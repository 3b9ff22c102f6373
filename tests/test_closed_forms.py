import random
import sys

import bwmlink.closed_forms as cf
from bwmlink.closed_forms import _row, torus2_invariant
from bwmlink.laurent import (DELTA, LaurentPoly2, LocalizedPoly, Specialization,
                             loop_value, r_pow, specialize)

ONE = LaurentPoly2.const(1)
ZERO = LaurentPoly2()
R = r_pow(1)
R_INV = r_pow(-1)
X = loop_value()


class TestGeneratorPower:
    """Rows (a_m, b_m, c_m): g^m = a_m + b_m g + c_m e."""

    def test_base_rows(self):
        assert _row(0) == (ONE, ZERO, ZERO)
        assert _row(1) == (ZERO, ONE, ZERO)

    def test_square(self):
        assert _row(2) == (ONE, DELTA, -R_INV * DELTA)

    def test_cube(self):
        assert _row(3) == (DELTA, ONE + DELTA * DELTA,
                           -R_INV * DELTA * DELTA - r_pow(-2) * DELTA)

    def test_inverse(self):
        assert _row(-1) == (-DELTA, ONE, DELTA)

    def test_two_sided_consistency(self):
        # stepping down then up twice lands one step up
        for m in range(-5, 8):
            (lo_a, lo_b, lo_c), (mid_a, mid_b, mid_c), (hi_a, _, _) = (
                _row(k) for k in (m - 1, m, m + 1))
            # ascend from lo must give mid, ascend from mid must give hi
            assert mid_a == lo_b
            assert mid_b == lo_a + lo_b * DELTA
            assert mid_c == -lo_b * R_INV * DELTA + lo_c * R_INV
            assert hi_a == mid_b

    def test_cubic_relation(self):
        # (g - r^-1)(g + s^-1)(g - s) = 0 rearranged:
        #   g^3 = (delta + r^-1) g^2 + (1 - r^-1 delta) g - r^-1
        # pushed into the {1, g, e} basis via the m=2 row; an independent
        # derivation of the cube row
        two_a, two_b, two_c = _row(2)
        coef2 = DELTA + R_INV
        coef1 = ONE - R_INV * DELTA
        coef0 = -R_INV
        a = coef2 * two_a + coef0
        b = coef2 * two_b + coef1
        c = coef2 * two_c
        assert (a, b, c) == _row(3)


def x_trace(m: int) -> LocalizedPoly:
    """x times the Markov trace of g^m (tr 1 = 1, tr g = r/x, tr e = 1/x):
    a_m x + b_m r + c_m, which is r^m times the torus invariant."""
    return r_pow(m) * torus2_invariant(m)


class TestTrace:
    def test_identity(self):
        assert x_trace(0) == X

    def test_single_power(self):
        # tr g^(+-1) = r^(+-1)/x
        assert x_trace(1) == LocalizedPoly.from_poly(R)
        assert x_trace(-1) == LocalizedPoly.from_poly(R_INV)

    def test_square(self):
        # 1 + (s - s^-1)(r - r^-1)/x
        assert x_trace(2) == X + DELTA * (R - R_INV)

    def test_parity_flip_of_trace(self):
        # the scalar shadow of the substitution symmetry: x specializes the
        # same both ways, so the two specialized traces differ by (-1)^m
        for m in range(-4, 7):
            sign = 1 if m % 2 == 0 else -1
            for n in (1, 2):
                a = specialize(x_trace(m), Specialization.osp(n))
                b = specialize(x_trace(m), Specialization.so(n))
                assert a == sign * b, (m, n)


class TestTorusInvariant:
    def test_unknot(self):
        assert torus2_invariant(1) == LocalizedPoly.from_poly(1)

    def test_two_unlink(self):
        assert torus2_invariant(0) == X

    def test_hopf(self):
        assert torus2_invariant(2) == (r_pow(-2) * X
                                       + DELTA * (R_INV - r_pow(-3)))

    def test_expansion_matches_rows(self):
        for m in range(-6, 9):
            a, b, c = _row(m)
            direct = r_pow(-m) * (a * X + b * R + c)
            assert torus2_invariant(m) == direct


def row_parity_holds(m: int) -> bool:
    """Every term of a_m and c_m has total degree congruent to m mod 2, and
    every term of b_m congruent to m+1."""
    a, b, c = _row(m)

    def all_parity(p: LaurentPoly2, parity: int) -> bool:
        return all((ra + sb) % 2 == parity for ra, sb, _ in p.terms())

    return (all_parity(a, m % 2) and all_parity(c, m % 2)
            and all_parity(b, (m + 1) % 2))


def torus_symmetric(m: int) -> bool:
    """Whether T(2, m)'s closed form is unchanged under (r, s) -> (-r, -s)."""
    value = torus2_invariant(m)
    return value.flip_vars() == value


class TestParity:
    def test_stated_cases(self):
        assert row_parity_holds(1)
        assert row_parity_holds(2)
        assert row_parity_holds(3)

    def test_positive_range(self):
        assert all(row_parity_holds(m) for m in range(1, 11))

    def test_negative_range_extends(self):
        # the pattern survives the descending recurrence as well
        assert all(row_parity_holds(m) for m in range(-6, 1))


class TestSymmetry:
    def test_stated_cases(self):
        assert torus_symmetric(3)
        assert torus_symmetric(0)
        assert torus_symmetric(-2)

    def test_range(self):
        assert all(torus_symmetric(m) for m in range(-6, 9))


def _stack_depth() -> int:
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


def _unshifted_rows(stop: int) -> dict[int, list]:
    """Rows |m| <= stop of the recurrence on c_m itself, as term lists."""
    rows = {0: _row_lists((ONE, ZERO, ZERO))}
    for step in (1, -1):
        a, b, c = ONE, ZERO, ZERO
        for m in range(step, step * (stop + 1), step):
            if step > 0:
                a, b, c = b, a + b * DELTA, -b * R_INV * DELTA + c * R_INV
            else:
                a, b, c = b - a * DELTA, a, a * DELTA + c * R
            rows[m] = _row_lists((a, b, c))
    return rows


def _row_lists(row: tuple) -> list:
    return [p.to_lists() for p in row]


class TestRowsWithoutRecursion:
    def test_rows_past_the_recursion_limit(self):
        # rows are filled in a loop, so |m| far above the frames left
        # under the limit must work on an empty memo
        cf._row.cache_clear()
        limit = sys.getrecursionlimit()
        low = _stack_depth() + 40
        sys.setrecursionlimit(low)
        try:
            m = low + 10
            assert row_parity_holds(m) and row_parity_holds(-m)
            assert len(_row(m)) == len(_row(-m - 1)) == 3
        finally:
            sys.setrecursionlimit(limit)

    def test_rows_match_the_unshifted_steps(self):
        # the kept row holds r^k c_k; the rows it returns are those of the
        # recurrence on c_k itself, term for term
        cf._row.cache_clear()
        expected = _unshifted_rows(60)
        for m in [*range(1, 61), *range(-1, -61, -1)]:
            assert _row_lists(_row(m)) == expected[m], m

    def test_rows_in_any_order(self):
        # sweeps that step up from negative kept rows and down from
        # positive ones, then a shuffled order with resets at random points
        expected = _unshifted_rows(40)
        rng = random.Random(17)
        shuffled = list(range(-40, 41))
        rng.shuffle(shuffled)
        cf._row.cache_clear()
        for m in [*range(-40, 41), *range(40, -41, -1), *shuffled]:
            if rng.random() < 0.1:
                cf._row.cache_clear()
            assert _row_lists(_row(m)) == expected[m], m

    def test_rows_independent_of_fill_order(self):
        # the same rows whether computed from row 0 or from a kept row
        cf._row.cache_clear()
        direct = [_row(m) for m in (-30, 30)]
        cf._row.cache_clear()
        stepped = [_row(m) for m in (-10, -30, 10, 30)]
        assert stepped[1] == direct[0] and stepped[3] == direct[1]
        cf._row.cache_clear()
        assert [_row(m) for m in (10, -10)] == [stepped[2], stepped[0]]
