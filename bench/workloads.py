"""The three workloads: one timed pass over a corpus, then checks that do
not trust the engine under test.

Importing this module imports ``bwmlink`` from the checkout's ``src``
directory, so the import is part of the measured set-up.  Package functions
are looked up on their modules at call time, never bound at import, so that
the layer tracer's wrappers see every call.
"""

from __future__ import annotations

import io
import json
import sys
import time
from contextlib import redirect_stderr
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import bwmlink  # noqa: E402
from bwmlink import bratteli, cli, skein  # noqa: E402

import corpus  # noqa: E402
import speed  # noqa: E402

if not Path(bwmlink.__file__).resolve().is_relative_to(SRC):
    raise ImportError(f"bwmlink was imported from {bwmlink.__file__}, not {SRC}")


class Pass(NamedTuple):
    times: list[float]  # seconds per case, as measured
    scaled: list[float]  # the same, scaled to the nominal host (speed.py)
    problems: dict[int, str]  # failed case index -> first failed check

    @property
    def wall(self) -> float:
        """Seconds for the cases of the pass, checks excluded."""
        return sum(self.times)

    @property
    def scaled_wall(self) -> float:
        return sum(self.scaled)


def value_json(value) -> dict:
    """A two-variable value in the CLI's JSON shape."""
    return {"num": value.num.to_triples(), "den_power": value.k}


def value_from_json(doc: dict):
    num = bwmlink.LaurentPoly2({(a, b): c for a, b, c in doc["num"]})
    return bwmlink.LocalizedPoly(num, doc["den_power"])


def one_var_from_json(doc: dict):
    """A specialized value from the CLI's JSON: polynomial or fraction in q."""
    if "terms" in doc:
        return bwmlink.LaurentPoly1({e: c for e, c in doc["terms"]})
    return bwmlink.QFraction(bwmlink.LaurentPoly1({e: c for e, c in doc["num"]}),
                             bwmlink.LaurentPoly1({e: c for e, c in doc["den"]}))


def start_cold() -> bool:
    """Empty every function cache in the package and report whether the
    module-level default skein engine is still empty, so that no pass is
    served from work done by an earlier one."""
    for mod in [m for name, m in list(sys.modules.items())
                if m is not None and name.startswith("bwmlink")]:
        for value in vars(mod).values():
            if callable(getattr(value, "cache_clear", None)):
                value.cache_clear()
    engine = getattr(skein, "_default_engine", None)
    return getattr(engine, "cache_size", 0) == 0


class Workload:
    """A corpus of ``cases`` with one ``expected`` golden entry each.

    Subclasses are built from (seed, golden table, output directory).
    """

    name = ""
    cases: list
    expected: list

    def start_pass(self) -> bool:
        """Prepare a pass; True when it starts with every cache empty."""
        return start_cold()

    def run_case(self, index: int):
        raise NotImplementedError

    def check(self, index: int, output) -> str | None:
        """The first failed check of one case, or None."""
        raise NotImplementedError

    def failures(self, outputs: list) -> dict[int, str]:
        problems = {}
        for index, output in enumerate(outputs):
            if isinstance(output, Exception):
                problems[index] = f"raised {type(output).__name__}: {output}"
                continue
            try:
                problem = self.check(index, output)
            except Exception as exc:  # a check that cannot run is a failure
                problem = f"check raised {type(exc).__name__}: {exc}"
            if problem:
                problems[index] = problem
        return problems

    def timed_pass(self) -> Pass:
        """Run every case once, sampling the host speed around each."""
        cold = self.start_pass()
        clock = time.perf_counter
        track = speed.SpeedTrack()
        starts, times, outputs = [], [], []
        for index in range(len(self.cases)):
            track.sample()
            t = clock()
            try:
                output = self.run_case(index)
            except Exception as exc:  # counted as a failed case, not fatal
                output = exc
            times.append(clock() - t)
            starts.append(t)
            outputs.append(output)
        track.sample()
        scaled = [track.scale(t, d) for t, d in zip(starts, times)]
        if not cold:
            warm = "pass started with a warm cache"
            return Pass(times, scaled, {i: warm for i in range(len(self.cases))})
        return Pass(times, scaled, self.failures(outputs))


class TorusSweep(Workload):
    """T(2, m) for m = -24..24, then B3 (1 2)^k, through one engine per pass."""

    name = "torus_sweep"

    def __init__(self, seed: int, golden: dict, out_dir: Path):
        self.cases = corpus.torus_sweep_corpus()
        self.words = [bwmlink.parse_braid(text) for text in self.cases]
        table = golden["torus_sweep"]
        self.expected = [value_from_json(table[text]) if text in table else None
                         for text in self.cases]
        self.engine = None

    def start_pass(self) -> bool:
        cold = start_cold()
        self.engine = bwmlink.SkeinEngine()
        return cold and self.engine.cache_size == 0

    def run_case(self, index: int):
        return bwmlink.kauffman_polynomial(self.words[index], self.engine)

    def check(self, index: int, value) -> str | None:
        word = self.words[index]
        if word.strands == 2:
            if value != bwmlink.torus2_invariant(bwmlink.exponent_sum(word)):
                return "differs from the closed form torus2_invariant"
        if value.flip_vars() != value:
            return "F(-r, -s) != F(r, s)"
        if self.expected[index] is None:
            return "no golden value"
        if value != self.expected[index]:
            return "differs from the golden value"
        return None


class CliMixed(Workload):
    """Seeded words through ``bwmlink invariant``, once per specialization."""

    name = "cli_mixed"

    def __init__(self, seed: int, golden: dict, out_dir: Path):
        pool = golden["cli_mixed"]
        words = corpus.cli_mixed_corpus(
            seed, {w: entry["cost_s"] for w, entry in pool.items()})
        self.cases = [(w, spec) for w in words for spec in corpus.CLI_SPECS]
        self.expected = [pool.get(w, {}).get(spec) for w, spec in self.cases]
        self.out = out_dir / "invariant.json"

    def run_case(self, index: int):
        word, spec = self.cases[index]
        self.out.unlink(missing_ok=True)
        with redirect_stderr(io.StringIO()):
            code = cli.main(["invariant", "--braid", word, "--spec", spec,
                             "--format", "json", "--out", str(self.out)])
        return code, self.out.read_text(encoding="utf-8")

    def check(self, index: int, output) -> str | None:
        code, text = output
        if code != 0:
            return f"exit code {code}"
        if self.expected[index] is None:
            return "no golden output"
        if json.loads(text) != self.expected[index]:
            return "differs from the golden output"
        return None

    def failures(self, outputs: list) -> dict[int, str]:
        """Per-case checks, then the paper's symmetry: the osp:1 and so:1
        values of one word agree by cross-multiplication, which is the
        one-variable image of F(-r, -s) = F(r, s)."""
        problems = super().failures(outputs)
        specs = corpus.CLI_SPECS
        for first in range(0, len(outputs), len(specs)):
            pair = range(first, first + len(specs))
            if any(i in problems for i in pair):
                continue
            try:
                values = [one_var_from_json(json.loads(outputs[i][1])["value"])
                          for i in pair]
                if not bwmlink.one_var_equal(*values):
                    problems[pair[-1]] = "osp:1 and so:1 values differ"
            except Exception as exc:  # a malformed document is a failure
                problems[pair[-1]] = f"symmetry check raised {exc!r}"
        return problems


def _double_factorial_odd(f: int) -> int:
    out = 1
    for k in range(1, 2 * f, 2):
        out *= k
    return out


def graph_summary(graph) -> list:
    """Vertex count and total path count per level."""
    return [[len(level) for level in graph.levels],
            [sum(counts.values()) for counts in graph.path_counts]]


class BratteliIdentities(Workload):
    """The paper's Bratteli and trace-weight identities; no skein code."""

    name = "bratteli_identities"

    def __init__(self, seed: int, golden: dict, out_dir: Path):
        self.cases = corpus.bratteli_corpus(seed)
        table = golden["bratteli_identities"]
        self.expected = [table.get(corpus.case_key(case)) for case in self.cases]

    def run_case(self, index: int):
        kind, *args = self.cases[index]
        if kind == "sum_rule":
            return bratteli.sum_rule_check(*args)
        if kind == "weights_equal":
            return bratteli.specialized_weights_equal(*args)
        if kind == "truncated":
            depth, n = args
            Spec = bwmlink.Specialization
            return (bratteli.truncated_bratteli(Spec.osp(n), depth),
                    bratteli.truncated_bratteli(Spec.so(n), depth))
        return bratteli.path_pair_count(*args)

    def check(self, index: int, output) -> str | None:
        kind, *args = self.cases[index]
        if kind in ("sum_rule", "weights_equal"):
            actual = output
            if output is not True:
                return "identity does not hold"
        elif kind == "truncated":
            osp, so = output
            if osp != so:
                return "osp and so truncations differ"
            actual = graph_summary(osp)
        else:
            actual = output
            if output != _double_factorial_odd(args[0]):
                return "path pair count is not (2f-1)!!"
        if self.expected[index] is None:
            return "no golden value"
        if actual != self.expected[index]:
            return "differs from the golden value"
        return None


WORKLOADS = {w.name: w for w in (TorusSweep, CliMixed, BratteliIdentities)}
