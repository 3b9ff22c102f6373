"""Regenerate ``golden.json``, the expected output of every benchmark case.

Run from the repository root:  python3 bench/make_golden.py

Every skein value is cross-checked once against an independent engine
configuration, SkeinEngine(use_cache=False, use_poke_reduction=True), and
every two-strand value also against the closed form; a disagreement aborts
without writing.  This takes about a quarter of an hour on a 2-vCPU Xeon:
the uncached cross-checks and five timed rounds over the cli_mixed pool.
"""

from __future__ import annotations

import io
import json
import statistics
import tempfile
from contextlib import redirect_stderr
from pathlib import Path

import corpus
import speed
import workloads
from workloads import bwmlink, cli

COST_REPEATS = 5


def oracle_value(text: str):
    word = bwmlink.parse_braid(text)
    return bwmlink.SkeinEngine(use_cache=False,
                               use_poke_reduction=True).kauffman_polynomial(word)


def torus_golden() -> dict:
    engine = bwmlink.SkeinEngine()
    out = {}
    for text in corpus.torus_sweep_corpus():
        word = bwmlink.parse_braid(text)
        value = bwmlink.kauffman_polynomial(word, engine)
        if value != oracle_value(text):
            raise SystemExit(f"{text}: engines disagree")
        if word.strands == 2 and value != bwmlink.torus2_invariant(
                bwmlink.exponent_sum(word)):
            raise SystemExit(f"{text}: closed form disagrees")
        out[text] = workloads.value_json(value)
    return out


def cli_outputs(word: str, out_path: Path) -> dict:
    docs = {}
    for spec in corpus.CLI_SPECS:
        if cli.main(["invariant", "--braid", word, "--spec", spec,
                     "--format", "json", "--out", str(out_path)]):
            raise SystemExit(f"{word} {spec}: nonzero exit")
        docs[spec] = json.loads(out_path.read_text(encoding="utf-8"))
    return docs


def cli_golden(out_dir: Path) -> dict:
    """Outputs and cost of every pool word.  The cost is the median of
    COST_REPEATS scaled timings, taken in rounds over the whole pool so that
    a slow spell of the host does not single out one word."""
    out_path = out_dir / "invariant.json"
    words = corpus.cli_pool()
    docs, seconds = {}, {word: [] for word in words}
    for _ in range(COST_REPEATS):
        for word in words:
            docs[word], cost = speed.scaled_call(lambda: cli_outputs(word, out_path))
            seconds[word].append(cost)
    pool = {}
    for word in words:
        oracle = oracle_value(word)
        for spec_text, spec in zip(corpus.CLI_SPECS, (
                bwmlink.Specialization.osp(1), bwmlink.Specialization.so(1))):
            expected = bwmlink.specialize(oracle, spec)
            actual = workloads.one_var_from_json(docs[word][spec_text]["value"])
            if not bwmlink.one_var_equal(actual, expected):
                raise SystemExit(f"{word} {spec_text}: engines disagree")
        pool[word] = {"cost_s": round(statistics.median(seconds[word]), 4),
                      **docs[word]}
    return pool


def bratteli_golden() -> dict:
    identities = workloads.BratteliIdentities(0, {"bratteli_identities": {}}, Path("."))
    out = {}
    for index, case in enumerate(identities.cases):
        output = identities.run_case(index)
        if case[0] == "truncated":
            output = workloads.graph_summary(output[0])
        out[corpus.case_key(case)] = output
    return dict(sorted(out.items()))


def write_golden(golden: dict) -> None:
    """One case per line, so a regenerated file diffs readably."""
    sections = []
    for name, table in sorted(golden.items()):
        rows = [f"  {json.dumps(key)}: {json.dumps(value, sort_keys=True)}"
                for key, value in sorted(table.items())]
        sections.append(f" {json.dumps(name)}: {{\n" + ",\n".join(rows) + "\n }")
    corpus.GOLDEN_PATH.write_text("{\n" + ",\n".join(sections) + "\n}\n",
                                  encoding="utf-8")


def main() -> None:
    with tempfile.TemporaryDirectory(prefix=".bench-out-",
                                     dir=workloads.ROOT) as tmp:
        with redirect_stderr(io.StringIO()):
            golden = {
                "torus_sweep": torus_golden(),
                "cli_mixed": cli_golden(Path(tmp)),
                "bratteli_identities": bratteli_golden(),
            }
    write_golden(golden)


if __name__ == "__main__":
    main()
