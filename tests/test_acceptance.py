"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report.  Every check is exact-symbolic; the elapsed-time budgets are part of
the criteria and asserted.
"""

import random
import time

import bwmlink.bratteli as yb
from bwmlink.braid import isotopy_moves, parse_braid
from bwmlink.cli import BRAID_RELATION_CORPUS, MARKOV_CORPUS, _torus_word
from bwmlink.closed_forms import torus2_invariant
from bwmlink.laurent import (Specialization, loop_value, one_var_equal,
                             quantum_dimension, specialize)
from bwmlink.skein import SkeinEngine
from test_closed_forms import row_parity_holds, torus_symmetric


def _report(number: int, name: str, ok: bool, elapsed: float, budget: float):
    status = "PASS" if ok and elapsed < budget else "FAIL"
    print(f"[criterion {number:02d}] {name}: {status} "
          f"({elapsed:.2f}s / budget {budget:.0f}s)")
    assert ok, f"criterion {number} ({name}) failed"
    assert elapsed < budget, f"criterion {number} over budget: {elapsed:.2f}s"


def test_criterion_01_oracle_equivalence():
    started = time.perf_counter()
    engine = SkeinEngine()
    ok = all(
        engine.kauffman_polynomial(_torus_word(m)) == torus2_invariant(m)
        for m in range(-6, 9))
    _report(1, "oracle equivalence m=-6..8", ok,
            time.perf_counter() - started, 1.0)


def test_criterion_02_variable_flip_symmetry():
    started = time.perf_counter()
    ok = all(torus_symmetric(m) for m in range(-6, 9))
    for m in range(-4, 7):
        value = torus2_invariant(m)
        for n in (1, 2):
            a = specialize(value, Specialization.osp(n))
            b = specialize(value, Specialization.so(n))
            ok = ok and one_var_equal(a, b)
    _report(2, "torus-family (r,s)->(-r,-s) symmetry and equal "
               "specializations", ok, time.perf_counter() - started, 1.0)


def test_criterion_03_markov_invariance():
    started = time.perf_counter()
    engine = SkeinEngine()
    ok = True
    assert len(MARKOV_CORPUS) == 20
    for text in MARKOV_CORPUS:
        word = parse_braid(text)
        assert word.strands <= 4 and len(word) <= 8
        base = engine.kauffman_polynomial(word)
        for kind, moved in isotopy_moves(word):
            if kind in ("conjugate", "stabilize"):
                ok = ok and engine.kauffman_polynomial(moved) == base
    _report(3, "Markov invariance on the 20-word corpus", ok,
            time.perf_counter() - started, 30.0)


def test_criterion_04_braid_relation_invariance():
    started = time.perf_counter()
    engine = SkeinEngine()
    ok = True
    assert len(BRAID_RELATION_CORPUS) == 10
    for text in BRAID_RELATION_CORPUS:
        word = parse_braid(text)
        base = engine.kauffman_polynomial(word)
        rewrites = 0
        for kind, rewritten in isotopy_moves(word):
            if kind == "relation":
                ok = ok and engine.kauffman_polynomial(rewritten) == base
                rewrites += 1
        ok = ok and rewrites > 0
    _report(4, "braid-relation rewrites on the 10-word corpus", ok,
            time.perf_counter() - started, 30.0)


def test_criterion_05_coefficient_parity():
    started = time.perf_counter()
    ok = all(row_parity_holds(m) for m in range(1, 11))
    _report(5, "coefficient parity m=1..10", ok,
            time.perf_counter() - started, 1.0)


def test_criterion_06_sum_rule():
    started = time.perf_counter()
    ok = all(yb.sum_rule_check(f) for f in range(0, 6))
    _report(6, "weighted trace-weight sum equals x^f for f=0..5", ok,
            time.perf_counter() - started, 10.0)


def test_criterion_07_path_pair_counts():
    started = time.perf_counter()
    expected = [1, 3, 15, 105, 945, 10395]
    ok = [yb.path_pair_count(f) for f in range(1, 7)] == expected
    _report(7, "squared path counts equal (2f-1)!! for f=1..6", ok,
            time.perf_counter() - started, 1.0)


def test_criterion_08_weight_specialization_symmetry():
    started = time.perf_counter()
    ok = all(
        yb.specialized_weights_equal(shape, n)
        for size in range(0, 7)
        for shape in yb.young_level(size)
        for n in (1, 2, 3))
    rng = random.Random(20260809)
    for _ in range(50):
        size = rng.randint(1, 8)
        shape = rng.choice(yb.young_level(size))
        ok = ok and yb.sign_identity_check(shape)
    _report(8, "equal specialized weights (|shape|<=6, n<=3) and the "
               "sign identity on 50 random shapes", ok,
            time.perf_counter() - started, 30.0)


TRUNCATED_LEVELS_N1 = [
    [()],
    [(1,)],
    [(), (1, 1), (2,)],
    [(1,), (1, 1, 1), (2, 1), (3,)],
    [(), (1, 1), (2,), (3, 1), (4,)],
]


def test_criterion_09_truncation():
    started = time.perf_counter()
    ok = all(
        yb.truncation_rule(shape, n)
        == yb.survives_truncation(shape, Specialization.osp(n))
        == yb.survives_truncation(shape, Specialization.so(n))
        for size in range(0, 7)
        for shape in yb.young_level(size)
        for n in (1, 2, 3))
    for spec in (Specialization.osp(1), Specialization.so(1)):
        levels = yb.truncated_bratteli(spec, 4).levels
        ok = ok and [list(level) for level in levels] == TRUNCATED_LEVELS_N1
    for n in (1, 2, 3):
        for depth in range(0, 7):
            ok = ok and (yb.truncated_bratteli(Specialization.osp(n), depth)
                         == yb.truncated_bratteli(Specialization.so(n), depth))
    _report(9, "truncation rule, depth-4 level sets and osp/so graph "
               "equality", ok, time.perf_counter() - started, 10.0)


def test_criterion_10_loop_value_specializations():
    started = time.perf_counter()
    x = loop_value()
    ok = all(
        specialize(x, Specialization.osp(n)) == quantum_dimension(n)
        == specialize(x, Specialization.so(n))
        for n in (1, 2, 3))
    _report(10, "loop value specializes to the quantum dimension", ok,
            time.perf_counter() - started, 1.0)
