import random
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

import bwmlink.bratteli as yb
from bwmlink import laurent
from bwmlink.cli import DEPTH_CAP
from bwmlink.laurent import (DELTA, ONE2, X_NUM, LaurentPoly2, Quotient,
                             RationalFn2, Specialization, loop_value,
                             quantum_dimension, r_pow, s_pow, specialize)


@st.composite
def shapes(draw, max_size=8):
    size = draw(st.integers(0, max_size))
    return draw(st.sampled_from(yb.young_level(size)))


class TestLevels:
    def test_young_level_3(self):
        assert set(yb.young_level(3)) == {(3,), (2, 1), (1, 1, 1)}

    def test_bmw_level_2(self):
        assert set(yb.bmw_level(2)) == {(2,), (1, 1), ()}

    def test_bmw_level_0(self):
        assert yb.bmw_level(0) == ((),)

    def test_negative_level_raises(self):
        with pytest.raises(ValueError, match="negative level"):
            yb.young_level(-1)
        with pytest.raises(ValueError, match="negative level"):
            yb.bmw_level(-1)

    def test_partition_counts(self):
        expected = [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42]
        assert [len(yb.young_level(f)) for f in range(11)] == expected

    @given(shapes())
    def test_conjugate_involution(self, shape):
        assert yb.conjugate(yb.conjugate(shape)) == shape
        assert yb.shape_size(yb.conjugate(shape)) == yb.shape_size(shape)

    @given(shapes(max_size=6), shapes(max_size=6))
    @settings(max_examples=80)
    def test_edge_symmetry(self, a, b):
        assert yb.differ_by_one_box(a, b) == yb.differ_by_one_box(b, a)
        if yb.differ_by_one_box(a, b):
            small, big = sorted((a, b), key=yb.shape_size)
            boxes_small = set(yb.boxes(small))
            boxes_big = set(yb.boxes(big))
            assert boxes_small < boxes_big
            assert len(boxes_big - boxes_small) == 1


def hook(shape, i, j):
    return yb._hook(shape, yb.conjugate(shape), i, j)


def axial(shape, i, j):
    return yb._axial(shape, yb.conjugate(shape), i, j)


class TestBoxStatistics:
    def test_hook_corner(self):
        assert hook((2, 1), 1, 1) == 3

    def test_single_box(self):
        assert hook((1,), 1, 1) == 1
        assert axial((1,), 1, 1) == 1

    def test_below_diagonal(self):
        assert axial((2, 1), 2, 1) == -1

    @given(shapes(max_size=8))
    @settings(max_examples=60)
    def test_hook_counts_boxes(self, shape):
        # arm + leg + 1 by direct counting
        for i, j in yb.boxes(shape):
            arm = shape[i - 1] - j
            leg = sum(1 for row in shape[i:] if row >= j)
            assert hook(shape, i, j) == arm + leg + 1

    @given(shapes(max_size=8))
    @settings(max_examples=60)
    def test_padded_lengths(self, shape):
        # row k and column k, 0 past the end, by counting boxes
        cells = set(yb.boxes(shape))
        conj = yb.conjugate(shape)
        for k in range(1, len(shape) + (shape[0] if shape else 0) + 3):
            assert yb._at(shape, k) == sum(1 for i, _ in cells if i == k)
            assert yb._at(conj, k) == sum(1 for _, j in cells if j == k)


class TestTraceWeight:
    def test_empty(self):
        assert yb.trace_weight(()) == 1

    def test_single_box_is_loop_value(self):
        assert yb.trace_weight((1,)) == loop_value()

    def test_level_2_sum(self):
        # every weight over the common denominator (s^2 - s^-2)(s - s^-1)
        common = (s_pow(2) - s_pow(-2)) * DELTA
        total = LaurentPoly2()
        for shape in ((2,), (1, 1), ()):
            w = yb.trace_weight(shape)
            total = total + w.num * common.exact_div(w.den)
        assert RationalFn2(total, common) == RationalFn2(X_NUM**2, DELTA**2)

    def test_sum_rule_range(self):
        for f in range(0, 6):
            assert yb.sum_rule_check(f), f

    def test_zero_gap_is_zero(self):
        # s^0 - s^-0: both terms are the constant 1 and cancel
        assert yb._gap(0, 0).is_zero
        with pytest.raises(ZeroDivisionError):
            Quotient(ONE2, yb._gap(0, 0))


def box_by_box_weight(shape):
    """Oracle: the weight as the product of its per-box factors, with hook
    lengths and axial statistics counted directly from the rows."""
    rows = list(shape)
    cols = [sum(1 for r in rows if r > j) for j in range(rows[0] if rows else 0)]

    def row(k):
        return rows[k - 1] if k <= len(rows) else 0

    def col(k):
        return cols[k - 1] if k <= len(cols) else 0

    num = den = LaurentPoly2.const(1)
    for i in range(1, len(rows) + 1):
        for j in range(1, row(i) + 1):
            if i == j:
                a, e = row(i) - col(j), row(i) + col(j) - 2 * j + 1
                factor = (r_pow(1) * s_pow(a) - r_pow(-1) * s_pow(-a)
                          + s_pow(e) - s_pow(-e))
            else:
                if i < j:
                    d = row(i) + row(j) - i - j + 1
                else:
                    d = -col(i) - col(j) + i + j - 1
                factor = r_pow(1) * s_pow(d) - r_pow(-1) * s_pow(-d)
            h = (row(i) - j) + (col(j) - i) + 1
            num = num * factor
            den = den * (s_pow(h) - s_pow(-h))
    return RationalFn2(num, den)


def negate_first_factor(box_factors):
    """The box factors of a shape with the first one negated: the shape's
    weight numerator negated, its hook lengths kept."""
    (factor, hook), *rest = box_factors
    return ((-factor, hook), *rest)


class TestSumRuleCommonDenominator:
    def test_holds_to_8(self):
        for f in range(6, 9):
            assert yb.sum_rule_check(f), f

    def test_bumped_path_count_fails(self, monkeypatch):
        real = yb.generic_bratteli

        def bumped(depth):
            graph = real(depth)
            counts = list(graph.path_counts)
            level = dict(counts[depth])
            level[graph.levels[depth][depth % len(level)]] += 1
            counts[depth] = level
            return yb.BratteliGraph(graph.levels, graph.edges, tuple(counts))

        monkeypatch.setattr(yb, "generic_bratteli", bumped)
        for f in range(1, 9):
            assert not yb.sum_rule_check(f), f

    def test_negated_numerator_fails(self, monkeypatch):
        real = yb._box_factors
        target = {}

        def negated(shape):
            return (negate_first_factor(real(shape))
                    if shape == target["shape"] else real(shape))

        monkeypatch.setattr(yb, "_box_factors", negated)
        for f in range(1, 9):
            level = yb.bmw_level(f)
            target["shape"] = level[f % len(level)]
            assert not yb.sum_rule_check(f), f

    def test_weight_terms_match_box_by_box(self):
        for size in range(0, 8):
            for shape in yb.young_level(size):
                got, want = yb.trace_weight(shape), box_by_box_weight(shape)
                assert got.num == want.num and got.den == want.den, shape

    def test_equal_off_diagonal_factors_are_shared(self):
        # the per-shape cache holds references to one r s^d - r^-1 s^-d
        # per d, not a copy per box
        first = {}
        for size in range(0, 8):
            for shape in yb.young_level(size):
                for factor, _ in yb._box_factors(shape):
                    if len(factor) == 2:
                        assert first.setdefault(factor, factor) is factor, shape


    def test_equal_diagonal_factors_are_shared(self):
        # one r s^e - r^-1 s^-e + s^h - s^-h per (e, h), across shapes
        first = {}
        for size in range(0, 10):
            for shape in yb.young_level(size):
                for (i, j), (factor, _) in zip(yb.boxes(shape),
                                               yb._box_factors(shape)):
                    if i == j:
                        assert first.setdefault(factor, factor) is factor, shape
        assert len(first) > 10


class TestSumRuleGroupedByHooks:
    def test_holds_at_9(self):
        assert yb.sum_rule_check(9)

    def test_negated_conjugate_partner_fails(self, monkeypatch):
        # (3, 1) and (2, 1, 1) are conjugate, so they share a hook multiset
        # and the factor H(C - hooks); negating one of them must still break
        # the rule
        real = yb._box_factors
        assert (sorted(h for _, h in real((3, 1)))
                == sorted(h for _, h in real((2, 1, 1))))

        def negated(shape):
            return (negate_first_factor(real(shape)) if shape == (3, 1)
                    else real(shape))

        monkeypatch.setattr(yb, "_box_factors", negated)
        assert not yb.sum_rule_check(4)


def all_pairs_edges(graph):
    """Oracle: every one-box pair between adjacent levels, by testing all
    pairs, lower shape first, then upper-level order."""
    return tuple(
        tuple((lo, hi) for lo in graph.levels[k] for hi in graph.levels[k + 1]
              if yb.differ_by_one_box(lo, hi))
        for k in range(graph.depth))


def reference_build_graph(depth, keep=None):
    """Oracle: the graph built level by level from scratch on every call,
    filtering each level with ``keep``, as before levels and edges were
    shared between calls."""
    levels = []
    for k in range(depth + 1):
        shapes = yb.bmw_level(k)
        if keep is not None:
            shapes = tuple(s for s in shapes if keep(s))
        levels.append(shapes)
    edges = []
    counts = [{(): 1}]
    for k in range(depth):
        upper = levels[k + 1]
        position = {s: idx for idx, s in enumerate(upper)}
        gap = []
        for lo in levels[k]:
            found = sorted(position[s] for s in
                           yb._one_box_larger(lo) + yb._one_box_smaller(lo)
                           if s in position)
            gap.extend((lo, upper[idx]) for idx in found)
        edges.append(tuple(gap))
        level_counts = {s: 0 for s in upper}
        for lo, hi in gap:
            level_counts[hi] += counts[k][lo]
        counts.append(level_counts)
    return yb.BratteliGraph(tuple(levels), tuple(edges), tuple(counts))


def graph_and_reference(spec, depth):
    """The generic graph (spec None) or the truncation, and its oracle."""
    if spec is None:
        return yb.generic_bratteli(depth), reference_build_graph(depth)
    return (yb.truncated_bratteli(spec, depth), reference_build_graph(
        depth, lambda s: yb.truncation_rule(s, spec.n)))


def cross_multiplied_weights_equal(shape, n):
    """Oracle: specialize the two-variable weight, then cross-multiply."""
    w = yb.trace_weight(shape)
    osp, so = Specialization.osp(n), Specialization.so(n)
    return (specialize(w.num, osp) * specialize(w.den, so)
            - specialize(w.num, so) * specialize(w.den, osp)).is_zero


def expanded_weight_nonzero(shape, spec):
    """Oracle: specialize the expanded numerator and denominator."""
    w = yb.trace_weight(shape)
    if specialize(w.den, spec).is_zero:
        raise ZeroDivisionError("specialized weight denominator vanished")
    return not specialize(w.num, spec).is_zero


def parity_sign(box_factors):
    """The product over boxes of (-1)^(p + h), with p the common parity of
    a + b over the terms r^a s^b of the box factor and h its hook length."""
    sign = 1
    for factor, hook in box_factors:
        (parity,) = {(a + b) % 2 for a, b, _ in factor.terms()}
        sign *= (-1) ** (parity + hook)
    return sign


def patch_box_factors(monkeypatch, fake):
    """Patch ``_box_factors`` and give the per-shape Lemma-2 sign an empty
    cache of its own for the test, so it reads the patched factors and
    later tests never read a sign computed from them."""
    monkeypatch.setattr(yb, "_box_factors", fake)
    monkeypatch.setattr(yb, "_weight_flips",
                        lru_cache(maxsize=None)(yb._weight_flips.__wrapped__))


def times_r(real):
    """The box factors of ``real`` with the last-row-index box (in box
    order) multiplied by r: its parity flips, its hook length is kept."""
    def patched(shape):
        for index, (factor, hook) in enumerate(real(shape)):
            yield (factor * r_pow(1) if index == len(shape) - 1
                   else factor), hook
    return patched


class TestNeighbourEdges:
    def test_generic_matches_all_pairs(self):
        for depth in range(0, 11):
            graph = yb.generic_bratteli(depth)
            assert graph.edges == all_pairs_edges(graph), depth

    def test_truncated_matches_all_pairs(self):
        for n in (1, 2, 3):
            for spec in (Specialization.osp(n), Specialization.so(n)):
                for depth in range(0, 11):
                    graph = yb.truncated_bratteli(spec, depth)
                    assert graph.edges == all_pairs_edges(graph), (spec, depth)

    def test_shared_levels_match_reference(self):
        # every graph kind and depth, in an order that leaves the level
        # caches partly filled by other kinds and deeper graphs; from n = 5
        # on, every truncation to depth 10 keeps the whole generic graph
        calls = [(spec, depth) for spec in (None, *(
                     make(n) for n in range(1, 9)
                     for make in (Specialization.osp, Specialization.so)))
                 for depth in range(11)]
        random.Random(20261018).shuffle(calls)
        for spec, depth in calls:
            got, want = graph_and_reference(spec, depth)
            assert got == want, (spec, depth)

    def test_path_counts_are_fresh(self):
        # levels and edges are shared between calls, path counts are not
        for spec in (None, Specialization.osp(1)):
            graph, _ = graph_and_reference(spec, 5)
            graph.path_counts[5][graph.levels[5][-1]] += 7
            graph.path_counts[2].clear()
            again, want = graph_and_reference(spec, 5)
            assert again == want, spec

    def test_path_counts_fill_one_level_at_a_time(self, monkeypatch):
        # each level's counts are summed from the cached level below, so
        # building a graph from cold caches nests at most two count calls
        cached, nesting = yb._level_counts, [0, 0]  # current, deepest

        def tracked(k, n):
            nesting[0] += 1
            nesting[1] = max(nesting)
            try:
                return cached(k, n)
            finally:
                nesting[0] -= 1

        cached.cache_clear()
        monkeypatch.setattr(yb, "_level_counts", tracked)
        for spec in (None, Specialization.osp(2)):
            got, want = graph_and_reference(spec, 10)
            assert got == want, spec
        assert nesting == [0, 2]

    def test_negative_depth_raises(self):
        with pytest.raises(ValueError):
            yb.generic_bratteli(-1)
        with pytest.raises(ValueError):
            yb.truncated_bratteli(Specialization.osp(1), -1)


class TestWeightsEqualByFactors:
    def test_matches_cross_multiplied_weight(self):
        # n = 4..6: the parities decide every n alike
        for max_size, ns in ((9, (1, 2, 3)), (6, (4, 5, 6))):
            for size in range(0, max_size + 1):
                for shape in yb.young_level(size):
                    for n in ns:
                        assert (yb.specialized_weights_equal(shape, n)
                                == cross_multiplied_weights_equal(shape, n)), (
                                    shape, n)

    def test_factor_times_r_fails(self, monkeypatch):
        # r goes to -q^(2n) under osp and to q^(2n) under so, so one extra
        # factor r flips the sign of one side: only a zero weight survives
        cases = [(shape, n) for size in range(1, 8)
                 for shape in yb.young_level(size) for n in (1, 2, 3)
                 if yb.specialized_weight_nonzero(shape, Specialization.osp(n))]
        assert len(cases) > 100
        patch_box_factors(monkeypatch, times_r(yb._box_factors))
        for shape, n in cases:
            assert not yb.specialized_weights_equal(shape, n), (shape, n)

    def test_factor_times_r_matches_cross_multiplied(self, monkeypatch):
        # every nonempty shape has flip = -1 under the mutant; the zero
        # weights among them must still read equal, as the oracle (which
        # reads the patched factors through trace_weight) says
        patch_box_factors(monkeypatch, times_r(yb._box_factors))
        zero_weights = 0
        for size in range(0, 8):
            for shape in yb.young_level(size):
                for n in (1, 2, 3):
                    got = yb.specialized_weights_equal(shape, n)
                    assert got == cross_multiplied_weights_equal(shape, n), (
                        shape, n)
                    zero_weights += bool(shape) and got
        assert zero_weights > 10

    def test_mixed_parity_factor_raises(self, monkeypatch):
        # the constant 1 has even parity: added to an odd factor it mixes
        real = yb._box_factors
        shape = (2, 1)
        odd = next(index for index, (factor, _) in enumerate(real(shape))
                   if parity_sign([(factor, 0)]) == -1)

        def mixed(s):
            return tuple((factor + ONE2 if index == odd else factor, hook)
                         for index, (factor, hook) in enumerate(real(s)))

        patch_box_factors(monkeypatch, mixed)
        with pytest.raises(ValueError, match=r"\[2, 1\]"):
            yb.specialized_weights_equal(shape, 1)

    def test_sign_read_once_per_shape(self, monkeypatch):
        # the sign depends on the shape alone: n = 1..8 read the box
        # factors of the shape once
        real = yb._box_factors
        reads = []

        def counted(shape):
            reads.append(shape)
            return real(shape)

        patch_box_factors(monkeypatch, counted)
        shape = (4, 3, 1)
        for n in range(1, 9):
            assert yb.specialized_weights_equal(shape, n), n
        assert reads == [shape]

    def test_sweep_specializes_nothing(self, monkeypatch):
        # one sweep from empty caches decides every case from the factor
        # parities alone
        calls = []
        real = laurent.specialize

        def counted(value, spec):
            calls.append((value, spec))
            return real(value, spec)

        monkeypatch.setattr(laurent, "specialize", counted)
        monkeypatch.setattr(yb, "specialize", counted)
        for value in vars(yb).values():
            if callable(getattr(value, "cache_clear", None)):
                value.cache_clear()
        for size in range(10):
            for shape in yb.young_level(size):
                for n in (1, 2, 3):
                    assert yb.specialized_weights_equal(shape, n), (shape, n)
        assert calls == []


class TestNFreeLemma2:
    def test_weight_invariant_under_sign_flip(self):
        # W(-r, -s) = W(r, s) as a two-variable identity
        for size in range(0, 8):
            for shape in yb.young_level(size):
                w = yb.trace_weight(shape)
                assert Quotient(w.num.flip_vars(), w.den.flip_vars()) == w, (
                    shape)

    def test_parity_sign_is_sign_lemma(self):
        for size in range(0, 11):
            for shape in yb.young_level(size):
                sign = parity_sign(yb._box_factors(shape))
                assert sign == yb.offdiag_sign(shape) * yb.split_sign(shape), (
                    shape)
                assert sign == 1, shape


class TestGraph:
    def test_path_counts_level_3(self):
        g = yb.generic_bratteli(3)
        assert g.path_count((3,), 3) == 1
        assert g.path_count((2, 1), 3) == 2
        assert g.path_count((1, 1, 1), 3) == 1
        assert g.path_count((1,), 3) == 3

    def test_path_pair_counts(self):
        double_factorials = [1, 3, 15, 105, 945, 10395]
        assert [yb.path_pair_count(f) for f in range(1, 7)] == double_factorials

    def test_pair_count_is_squared_sum(self):
        g = yb.generic_bratteli(4)
        assert yb.path_pair_count(4) == sum(
            g.path_count(s, 4) ** 2 for s in g.levels[4])

    def test_enumerate_paths_matches_counts(self):
        g = yb.generic_bratteli(5)
        for level in range(0, 6):
            for shape in g.levels[level]:
                paths = yb.enumerate_paths(g, shape, level)
                assert len(paths) == g.path_count(shape, level)
                assert len(set(paths)) == len(paths)
                for path in paths:
                    assert path[0] == () and path[-1] == shape
                    assert all(yb.differ_by_one_box(path[i], path[i + 1])
                               for i in range(level))

    def test_enumerate_paths_cap(self):
        g = yb.generic_bratteli(7)
        with pytest.raises(ValueError):
            yb.enumerate_paths(g, (7,), 7)

    def test_enumerate_paths_shape_off_level(self):
        # (1,) sits on odd levels only; (2, 1) is not reached by level 2
        g = yb.generic_bratteli(3)
        for shape, level in (((1,), 2), ((2, 1), 2), ((3,), 1)):
            with pytest.raises(ValueError, match="is not on level"):
                yb.enumerate_paths(g, shape, level)

    @pytest.mark.parametrize("level", [-1, 3, 4])
    def test_enumerate_paths_level_out_of_range(self, level):
        # level -1 must not read the last level, nor 3 or 4 run off the end
        g = yb.generic_bratteli(2)
        with pytest.raises(ValueError, match="outside 0..2"):
            yb.enumerate_paths(g, (), level)


TRUNCATED_LEVELS_N1 = [
    [()],
    [(1,)],
    [(), (1, 1), (2,)],
    [(1,), (1, 1, 1), (2, 1), (3,)],
    [(), (1, 1), (2,), (3, 1), (4,)],
]


class TestTruncation:
    def test_rule_examples(self):
        assert not yb.truncation_rule((1, 1, 1, 1), 1)
        assert yb.truncation_rule((4,), 1)
        assert yb.truncation_rule((), 3)

    def test_matches_conjugate_columns(self):
        for size in range(0, 11):
            for shape in yb.young_level(size):
                conj = yb.conjugate(shape) + (0, 0)
                for n in range(1, 5):
                    assert yb.truncation_rule(shape, n) == (
                        conj[0] + conj[1] <= 2 * n + 1), (shape, n)

    def test_matches_inductive_membership(self):
        # every shape that a truncated graph to the depth cap can hold
        for size in range(0, DEPTH_CAP + 1):
            for shape in yb.young_level(size):
                for n in (1, 2, 3):
                    rule = yb.truncation_rule(shape, n)
                    assert rule == yb.survives_truncation(
                        shape, Specialization.osp(n)), (shape, n)
                    assert rule == yb.survives_truncation(
                        shape, Specialization.so(n)), (shape, n)

    def test_bare_nonvanishing_is_weaker(self):
        # no chain of surviving shapes reaches this one, yet its own
        # specialized weight is nonzero; membership must say no
        spec = Specialization.osp(1)
        assert yb.specialized_weight_nonzero((2, 1, 1, 1), spec)
        assert not yb.survives_truncation((2, 1, 1, 1), spec)

    def test_vanished_weight_denominator_raises(self, monkeypatch):
        # a hook length of 0: s^0 - s^-0 is 0 under every specialization
        factor, _ = yb._box_factors((1,))[0]
        monkeypatch.setattr(yb, "_box_factors", lambda shape: ((factor, 0),))
        with pytest.raises(ZeroDivisionError):
            yb.specialized_weight_nonzero((1,), Specialization.osp(1))

    def test_nonzero_by_factors_matches_expansion(self):
        for size in range(0, 9):
            for shape in yb.young_level(size):
                for n in (1, 2, 3):
                    for spec in (Specialization.osp(n), Specialization.so(n)):
                        assert (yb.specialized_weight_nonzero(shape, spec)
                                == expanded_weight_nonzero(shape, spec)), (
                                    shape, spec)

    def test_truncated_level_sets_frozen(self):
        for spec in (Specialization.osp(1), Specialization.so(1)):
            g = yb.truncated_bratteli(spec, 4)
            assert [list(level) for level in g.levels] == TRUNCATED_LEVELS_N1

    def test_osp_so_graphs_identical(self):
        for n in (1, 2, 3):
            for depth in range(0, 7):
                assert (yb.truncated_bratteli(Specialization.osp(n), depth)
                        == yb.truncated_bratteli(Specialization.so(n), depth))

    def test_wide_truncation_is_generic(self):
        for depth in range(0, 5):
            g = yb.truncated_bratteli(Specialization.osp(depth + 1), depth)
            assert g == yb.generic_bratteli(depth)


def first_two_columns(shape):
    """l'_1 + l'_2, read off the conjugate."""
    conj = yb.conjugate(shape) + (0, 0)
    return conj[0] + conj[1]


class TestTruncationRank:
    def test_least_keeping_rank(self):
        for size in range(0, 11):
            for shape in yb.young_level(size):
                least = next(n for n in range(size + 1)
                             if first_two_columns(shape) <= 2 * n + 1)
                assert yb._truncation_rank(shape) == least, shape

    def test_rank_never_falls_along_an_edge(self):
        # and the larger shape of an edge is its lexicographically larger
        # end, which is how each truncation finds it
        for gap in yb.generic_bratteli(10).edges:
            for lo, hi in gap:
                small, big = sorted((lo, hi), key=yb.shape_size)
                assert max(lo, hi) == big, (lo, hi)
                assert (yb._truncation_rank(small)
                        <= yb._truncation_rank(big)), (lo, hi)

    def test_larger_shape_filter_keeps_edges_with_both_ends(self):
        # oracle: the generic edges with both ends kept by the column rule
        for n in range(1, 9):
            for depth in range(0, 11):
                graph = yb.truncated_bratteli(Specialization.osp(n), depth)
                generic = yb.generic_bratteli(depth)
                for k in range(depth):
                    keep = {s for s in generic.levels[k] + generic.levels[k + 1]
                            if first_two_columns(s) <= 2 * n + 1}
                    want = tuple(e for e in generic.edges[k]
                                 if keep.issuperset(e))
                    assert graph.edges[k] == want, (n, depth, k)


class TestWeightSymmetry:
    def test_single_box(self):
        assert yb.specialized_weights_equal((1,), 1)

    def test_hook_shape(self):
        assert yb.specialized_weights_equal((2, 1), 2)

    def test_all_small(self):
        for size in range(0, 7):
            for shape in yb.young_level(size):
                for n in (1, 2, 3):
                    assert yb.specialized_weights_equal(shape, n), (shape, n)

    def test_specialized_weight_matches_quantum_dimension(self):
        w = yb.trace_weight((1,))
        for n in (1, 2, 3):
            num = specialize(w.num, Specialization.osp(n))
            den = specialize(w.den, Specialization.osp(n))
            assert num.exact_div(den) == quantum_dimension(n)


class TestSignIdentity:
    @given(shapes(max_size=8))
    @settings(max_examples=80)
    def test_brute_force(self, shape):
        assert yb.sign_identity_check(shape)

    def test_border_boxes_disjoint(self):
        shape = (4, 3, 3, 1)
        top = max(len(shape), shape[0])
        seen = set()
        for k in range(1, top + 1):
            hor, ver = yb.border_boxes(shape, k)
            for box in hor + ver:
                assert box not in seen
                seen.add(box)

    def test_fixed_seed_sample(self):
        rng = random.Random(20260809)
        for _ in range(50):
            size = rng.randint(1, 8)
            shape = rng.choice(yb.young_level(size))
            assert yb.sign_identity_check(shape)


class TestRendering:
    def test_dot_deterministic(self):
        g = yb.truncated_bratteli(Specialization.osp(1), 4)
        a = yb.bratteli_dot(g, "osp:1")
        assert a == yb.bratteli_dot(g, "osp:1")
        assert 'label="[3,1]"' in a
        assert "shape=circle" in a

    def test_dot_osp_so_identical(self):
        for depth in (4, 6):
            a = yb.bratteli_dot(
                yb.truncated_bratteli(Specialization.osp(1), depth), "t")
            b = yb.bratteli_dot(
                yb.truncated_bratteli(Specialization.so(1), depth), "t")
            assert a == b

    def test_json_shape(self):
        import json
        doc = json.loads(yb.bratteli_json(yb.generic_bratteli(2), "generic"))
        assert doc["schema"] == 1
        assert doc["levels"][2]["vertices"] == [
            {"shape": [], "paths": 1},
            {"shape": [1, 1], "paths": 1},
            {"shape": [2], "paths": 1},
        ]
