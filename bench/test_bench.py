"""Self-tests of the benchmark:  python3 -m pytest bench/test_bench.py"""

from __future__ import annotations

import copy
import json
import re

import pytest

import corpus
import run
import spans
import speed
import workloads
from workloads import bwmlink

GOLDEN = corpus.load_golden()


def test_corpus_is_deterministic_per_seed_and_freely_reduced():
    cost = {w: e["cost_s"] for w, e in GOLDEN["cli_mixed"].items()}
    assert corpus.cli_pool() == corpus.cli_pool()
    assert sorted(corpus.cli_pool()) == sorted(GOLDEN["cli_mixed"])
    for seed in (1, 2, 3):
        words = corpus.cli_mixed_corpus(seed, cost)
        assert words == corpus.cli_mixed_corpus(seed, cost)
        assert len(set(words)) == corpus.STRATA
        for text in words:
            letters = [int(t) for t in text.split(":")[1].split()]
            assert all(a != -b for a, b in zip(letters, letters[1:])), text
            word = bwmlink.parse_braid(text)
            assert bwmlink.free_reduce(word) == word
            assert 3 <= word.strands <= 5 and 6 <= len(word) <= 9
        assert corpus.bratteli_corpus(seed) == corpus.bratteli_corpus(seed)
    assert corpus.cli_mixed_corpus(1, cost) != corpus.cli_mixed_corpus(2, cost)
    assert corpus.partitions(9) and len(corpus.partitions(9)) == 30


def test_speed_track_scales_by_the_samples_next_to_the_interval():
    track = speed.SpeedTrack()
    track.starts = [0.0, 0.002, 0.004, 1.0]
    track.seconds = [0.001, 0.001, 0.003, 0.002]
    nominal = speed.NOMINAL_S
    assert track.scale(0.0012, 0.0008) == pytest.approx(0.0008 * nominal / 0.001)
    assert track.scale(0.005, 0.99) == pytest.approx(0.99 * nominal / 0.0015)
    assert track.scale(0.995, 0.004) == pytest.approx(0.004 * nominal / 0.002)


def _small(workload, keep):
    """Cut a workload down to the cases ``keep`` accepts."""
    indices = [i for i, case in enumerate(workload.cases) if keep(case)]
    for attr in ("cases", "expected", "words"):
        if hasattr(workload, attr):
            setattr(workload, attr, [getattr(workload, attr)[i] for i in indices])
    return workload


def _corrupt_torus(golden, clean):
    table = golden["torus_sweep"]
    table["B2: 1^3"] = table["B2: 1^5"]
    return lambda case: case in ("B2: 1^2", "B2: 1^3")


def _corrupt_cli(golden, clean):
    word = clean.cases[0][0]
    golden["cli_mixed"][word]["osp:1"]["value"] = {"terms": [[0, 7]],
                                                  "variables": ["q"]}
    return lambda case: case[0] == word


def _corrupt_bratteli(golden, clean=None):
    golden["bratteli_identities"][json.dumps(["path_pairs", 3])] = 16
    return lambda case: case[0] == "path_pairs"


@pytest.mark.parametrize("name, corrupt", [
    ("torus_sweep", _corrupt_torus),
    ("cli_mixed", _corrupt_cli),
    ("bratteli_identities", _corrupt_bratteli),
])
def test_corrupted_golden_value_fails_a_case(name, corrupt, tmp_path):
    golden = copy.deepcopy(GOLDEN)
    clean = workloads.WORKLOADS[name](1, GOLDEN, tmp_path)
    keep = corrupt(golden, clean)
    clean = _small(clean, keep)
    assert clean.cases and clean.timed_pass().problems == {}
    dirty = _small(workloads.WORKLOADS[name](1, golden, tmp_path), keep)
    problems = dirty.timed_pass().problems
    assert 0 < len(problems) < len(dirty.cases)
    assert all("golden" in text for text in problems.values())


def test_corrupted_golden_value_raises_the_reported_failed_ratio(
        monkeypatch, capsys):
    golden = copy.deepcopy(GOLDEN)
    _corrupt_bratteli(golden)
    monkeypatch.setattr(corpus, "load_golden", lambda: golden)
    monkeypatch.setattr(run, "SETUP_PROBES", 0)
    assert run.main(["--workload", "bratteli_identities", "--seed", "4",
                     "--seconds", "0"]) == 0
    out = capsys.readouterr().out
    result = json.loads(out.splitlines()[-1])
    assert result["correct"] is False and result["failed"] == 1
    assert set(result["metrics"]) == {"setup_s", "wall_s", "case_p50_s",
                                      "case_tail_s", "peak_rss_mb"}
    ratio = re.search(r"failed_ratio\s+(\S+)", out).group(1)
    assert float(ratio) == pytest.approx(1 / result["attempted"], rel=1e-5)


def wrapped_names() -> list[str]:
    """Every package attribute that still holds a wrapper (empty when the
    package is unpatched)."""
    found = []
    for mod in spans._package_modules():
        for key, value in vars(mod).items():
            members = [(key, value)]
            if isinstance(value, type):
                members += [(f"{key}.{attr}", m) for attr, m in vars(value).items()]
            found += [f"{mod.__name__}.{label}" for label, obj in members
                      if getattr(obj, "__module__", None) == spans.__name__]
    return found


def test_tracer_wraps_reimported_names_and_restores_the_package():
    laurent, cli = bwmlink.laurent, bwmlink.cli
    before = {m.__name__: dict(vars(m)) for m in spans._package_modules()}
    poly_dict = dict(vars(laurent.LaurentPoly2))
    parse, specialize = bwmlink.braid.parse_braid, laurent.specialize
    tracer = spans.LayerTracer()
    with pytest.raises(RuntimeError, match="inside"):
        with tracer.installed():
            assert cli.parse_braid is bwmlink.braid.parse_braid is not parse
            assert cli.parse_braid.__wrapped__ is parse
            assert (cli.specialize is bwmlink.skein.specialize
                    is bwmlink.bratteli.specialize is not specialize)
            rmul = vars(laurent.LaurentPoly2)["__rmul__"]
            assert rmul is not vars(laurent.LaurentPoly2)["__mul__"]
            assert rmul.__wrapped__ is poly_dict["__rmul__"]
            assert cli.main(["invariant", "--braid", "B2: 1^2", "--spec", "osp:1",
                             "--format", "json"]) == 0
            products = tracer.stats["laurent.poly2_mul"][0]
            3 * laurent.r_pow(1)
            assert tracer.stats["laurent.poly2_mul"][0] == products + 1
            raise RuntimeError("error inside the traced block")
    assert tracer.stats["braid.parse_braid"][0] == 1
    assert tracer.stats["cli.main"][0] == 1
    assert tracer.stats["laurent.specialize"][0] >= 1
    assert tracer.stats["skein.regular_isotopy_poly"][0] >= 1
    assert tracer.cache_entries >= 1
    assert all(stat[1] >= 0 for stat in tracer.stats.values())
    assert wrapped_names() == []
    after = {m.__name__: dict(vars(m)) for m in spans._package_modules()}
    assert after.keys() == before.keys()
    for name, namespace in before.items():
        assert all(after[name][k] is v for k, v in namespace.items()), name
    assert dict(vars(laurent.LaurentPoly2)) == poly_dict
