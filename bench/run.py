"""Benchmark runner: one workload, one seed, a fixed measuring time.

    python3 bench/run.py --workload torus_sweep --seed 1 --seconds 40 --trace 0

The load is a closed loop: one caller, one case at a time, in one process.
Each timed pass goes over the whole corpus with every cache empty at its
start, then checks every output.  ``--trace 0`` repeats untraced passes and
reports the end-to-end metrics; ``--trace 1`` alternates untraced and traced
passes and reports per-layer call counts and self time, plus the tracing
overhead.  The last line of stdout is the JSON result.

Every end-to-end time is scaled to a host of fixed speed by the reference
samples of ``speed.py``; the report also prints the pass walls as measured.

``--workload all`` runs every workload, each in its own process, and prints
each report in turn.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import corpus
import speed

ROOT = Path(__file__).resolve().parents[1]
WORKLOAD_NAMES = ("torus_sweep", "cli_mixed", "bratteli_identities")
SETUP_PROBES = 8  # fresh processes that set up once each, besides this one


def setup(name: str, seed: int, out_dir: Path):
    """Import the package, build the corpus and load the golden file;
    return the workload and the scaled set-up seconds."""
    def build():
        import workloads
        return workloads.WORKLOADS[name](seed, corpus.load_golden(), out_dir)
    return speed.scaled_call(build)


def probe_setup(name: str, seed: int) -> float:
    done = subprocess.run(
        [sys.executable, __file__, "--workload", name, "--seed", str(seed),
         "--setup-probe"],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.split()[-1])


def measure(workload, seconds: float, tracer=None):
    """Run passes until the next one would end after ``seconds``; with a
    tracer, alternate untraced and traced passes, at least one of each."""
    plain, traced, layers = [], [], []
    started = time.perf_counter()
    while True:
        use_tracer = tracer is not None and len(traced) < len(plain)
        gc.collect()
        if use_tracer:
            tracer.reset()
            with tracer.installed():
                traced.append(workload.timed_pass())
            layers.append(layer_row(tracer))
        else:
            plain.append(workload.timed_pass())
        due_traced = tracer is not None and len(traced) < len(plain)
        if tracer is None or traced:
            estimate = (traced if due_traced else plain)[-1].wall
            if time.perf_counter() - started + estimate > seconds:
                return plain, traced, layers


def layer_row(tracer) -> dict[str, float]:
    row = {}
    for name, (calls, self_s) in tracer.stats.items():
        row[f"{name}.calls"] = calls
        row[f"{name}.self_s"] = self_s
    row["skein.cache_entries"] = tracer.cache_entries
    return row


def tail(times: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten cases beyond it, and that
    percentile (the maximum when there are ten cases or fewer)."""
    ordered = sorted(times)
    if len(ordered) <= 10:
        return ordered[-1], 100.0
    return ordered[-11], 100.0 * (len(ordered) - 10) / len(ordered)


def end_to_end(setups: list[float], plain: list) -> tuple[dict, list[str]]:
    times = [t for p in plain for t in p.scaled]
    # the tail is taken per pass, so the case it lands on does not depend on
    # how many passes fitted in the run
    tails = [tail(p.scaled) for p in plain]
    tail_pct = tails[0][1]
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (statistics.median(p.scaled_wall for p in plain), "s"),
        "case_p50_s": (statistics.median(times), "s"),
        "case_tail_s": (statistics.median(t for t, _ in tails), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                        "MB"),
    }
    notes = [f"scaled, median of {len(setups)} set-ups",
             f"scaled, median of {len(plain)} passes",
             f"scaled, median of {len(times)} cases",
             f"scaled, p{tail_pct:.1f} of {len(plain[0].times)} cases (10 beyond "
             f"it) per pass, median of {len(plain)} passes",
             "ru_maxrss of this process"]
    return metrics, notes


def per_layer(plain: list, traced: list, layers: list[dict]) -> tuple[dict, list[str]]:
    metrics = {}
    for key in layers[0]:
        value = statistics.median(row[key] for row in layers)
        metrics[key] = (value, "s" if key.endswith("_s") else "count")
    lookups = metrics["diagram.canonical_key.calls"][0]
    entries = metrics["skein.cache_entries"][0]
    metrics["skein.cache_hit_ratio"] = (1 - entries / lookups if lookups else 0.0,
                                        "ratio")
    overhead = (statistics.median(p.scaled_wall for p in traced)
                - statistics.median(p.scaled_wall for p in plain))
    metrics["trace.overhead_s"] = (overhead, "s")
    notes = {key: f"median of {len(traced)} traced passes" for key in metrics}
    notes["skein.cache_hit_ratio"] = "1 - cache_entries / canonical_key calls"
    notes["trace.overhead_s"] = (f"traced minus untraced scaled wall_s, "
                                 f"{len(traced)} and {len(plain)} passes")
    return metrics, [notes[key] for key in metrics]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload == "all":
        codes = [subprocess.run([sys.executable, __file__, "--workload", name,
                                 "--seed", str(args.seed), "--seconds",
                                 str(args.seconds), "--trace", str(args.trace)],
                                cwd=ROOT).returncode
                 for name in WORKLOAD_NAMES]
        return max(codes)

    with tempfile.TemporaryDirectory(prefix=".bench-out-", dir=ROOT) as tmp:
        workload, own_setup = setup(args.workload, args.seed, Path(tmp))
        if args.setup_probe:
            print(own_setup)
            return 0
        tracer = None
        if args.trace:
            import spans
            tracer = spans.LayerTracer()
        else:
            setups = [own_setup] + [probe_setup(args.workload, args.seed)
                                    for _ in range(SETUP_PROBES)]
        plain, traced, layers = measure(workload, args.seconds, tracer)

    passes = plain + traced
    attempted = sum(len(p.times) for p in passes)
    problems = [(i, text) for p in passes for i, text in sorted(p.problems.items())]
    for index, text in problems[:10]:
        print(f"FAIL {workload.name} case {index} {workload.cases[index]!r}: {text}",
              file=sys.stderr)
    if args.trace:
        metrics, notes = per_layer(plain, traced, layers)
    else:
        metrics, notes = end_to_end(setups, plain)
    print(f"workload {workload.name}, seed {args.seed}, {len(workload.cases)} cases "
          f"per pass, {len(plain)} untraced and {len(traced)} traced passes")
    for kind, runs in (("untraced", plain), ("traced", traced)):
        if runs:
            print(f"  {kind} pass walls (s), as measured: "
                  + " ".join(f"{p.wall:.3f}" for p in runs))
            print(f"  {kind} pass walls (s), scaled:      "
                  + " ".join(f"{p.scaled_wall:.3f}" for p in runs))
    for (name, (value, unit)), note in zip(metrics.items(), notes):
        print(f"  {name:40s} {value:>14.6g} {unit:6s} {note}")
    print(f"  {'failed_ratio':40s} {len(problems) / attempted:>14.6g} {'ratio':6s} "
          f"{len(problems)} failed of {attempted} cases attempted")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": len(problems),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
