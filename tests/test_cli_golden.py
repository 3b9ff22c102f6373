"""Byte-exact CLI output on a fixed corpus.

``cli_golden.json`` holds the stdout of ``bwmlink invariant``,
``bwmlink torus``, ``bwmlink bratteli`` and the Bratteli, Markov and oracle
``bwmlink verify`` suites for every command line below.  Engine changes must leave
it byte-identical.  After an intended change of output format, regenerate it
with ``PYTHONPATH=src python tests/test_cli_golden.py`` and review the diff.
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from bwmlink.cli import main

GOLDEN = Path(__file__).with_name("cli_golden.json")

WORDS = [
    "B1:",  # the empty word
    "B3:",
    "B2: 1 -1",
    "B2: 1^3", "B2: -1^3",  # mirror pair
    "B3: 1 -2 1 -2",
    "B3: 1 2 1 2", "B3: -1 -2 -1 -2",  # mirror pair
    "B4: 1 2 3 1 2 3", "B4: -1 -2 -3 -1 -2 -3",  # mirror pair
    "B4: 1 -2 3 -2 1",
    "B5: 1 -2 3 -4 1 -2 3 -4",
    "B3: 1 1 2 2", "B4: 1 1 2 2 3 3", "B5: 1 1 2 2 3 3 4 4",  # 2, 3, 4 components
]
SPECS = [None, "osp:1", "so:2"]
FORMATS = ["text", "json"]
BRATTELI_SPECS = [None, "osp:1", "so:2", "osp:3"]
BRATTELI_FORMATS = ["text", "json", "dot"]
VERIFY_LINES = [
    ["verify", "sumrule", "--max-f", "8"],
    ["verify", "omega", "--max-f", "8"],
    ["verify", "lemma2", "--max-size", "7", "--max-n", "3"],
    ["verify", "markov", "--words", "20"],
    ["verify", "oracle", "--m", "-6..8"],
]


def command_lines() -> list[list[str]]:
    lines = []
    for word in WORDS:
        for spec in SPECS:
            for fmt in FORMATS:
                argv = ["invariant", "--braid", word, "--format", fmt]
                if spec is not None:
                    argv += ["--spec", spec]
                lines.append(argv)
    for fmt in FORMATS:
        lines.append(["torus", "--m", "7", "--format", fmt])
    for spec in BRATTELI_SPECS:
        for fmt in BRATTELI_FORMATS:
            argv = ["bratteli", "--depth", "8", "--format", fmt]
            if spec is not None:
                argv += ["--spec", spec]
            lines.append(argv)
    return lines + VERIFY_LINES


def stdout_of(argv: list[str]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        assert main(argv) == 0
    return out.getvalue()


def golden() -> dict[str, str]:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_golden_covers_corpus():
    assert sorted(golden()) == sorted(json.dumps(a) for a in command_lines())


@pytest.mark.parametrize("argv", command_lines(), ids=" ".join)
def test_stdout_byte_identical(argv):
    assert stdout_of(argv) == golden()[json.dumps(argv)]


if __name__ == "__main__":
    doc = {json.dumps(argv): stdout_of(argv) for argv in command_lines()}
    GOLDEN.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n",
                      encoding="utf-8")
