import random
import sys

import bwmlink.closed_forms as cf
from bwmlink.closed_forms import (GeneratorPower, generator_power,
                                  generator_power_trace, parity_check,
                                  symmetry_check, torus2_invariant)
from bwmlink.laurent import (DELTA, X_NUM, LaurentPoly2, LocalizedPoly,
                             RationalFn2, Specialization, loop_value, r_pow,
                             specialize)

ONE = LaurentPoly2.const(1)
ZERO = LaurentPoly2()
R = r_pow(1)
R_INV = r_pow(-1)
X = loop_value()


class TestGeneratorPower:
    def test_base_rows(self):
        assert generator_power(0) == GeneratorPower(0, ONE, ZERO, ZERO)
        assert generator_power(1) == GeneratorPower(1, ZERO, ONE, ZERO)

    def test_square(self):
        row = generator_power(2)
        assert row.a == ONE
        assert row.b == DELTA
        assert row.c == -R_INV * DELTA

    def test_cube(self):
        row = generator_power(3)
        assert row.a == DELTA
        assert row.b == ONE + DELTA * DELTA
        assert row.c == -R_INV * DELTA * DELTA - r_pow(-2) * DELTA

    def test_inverse(self):
        row = generator_power(-1)
        assert row.a == -DELTA
        assert row.b == ONE
        assert row.c == DELTA

    def test_two_sided_consistency(self):
        # stepping down then up twice lands one step up
        for m in range(-5, 8):
            lo, mid, hi = (generator_power(k) for k in (m - 1, m, m + 1))
            # ascend from lo must give mid, ascend from mid must give hi
            assert mid.a == lo.b
            assert mid.b == lo.a + lo.b * DELTA
            assert mid.c == -lo.b * R_INV * DELTA + lo.c * R_INV
            assert hi.a == mid.b

    def test_cubic_relation(self):
        # (g - r^-1)(g + s^-1)(g - s) = 0 rearranged:
        #   g^3 = (delta + r^-1) g^2 + (1 - r^-1 delta) g - r^-1
        # pushed into the {1, g, e} basis via the m=2 row; an independent
        # derivation of the cube row
        two = generator_power(2)
        coef2 = DELTA + R_INV
        coef1 = ONE - R_INV * DELTA
        coef0 = -R_INV
        a = coef2 * two.a + coef0
        b = coef2 * two.b + coef1
        c = coef2 * two.c
        three = generator_power(3)
        assert (a, b, c) == (three.a, three.b, three.c)


class TestTrace:
    def test_identity(self):
        assert generator_power_trace(0) == 1

    def test_single_power(self):
        # r/x as a rational function
        assert generator_power_trace(1) == RationalFn2(R * DELTA, X_NUM)
        assert generator_power_trace(-1) == RationalFn2(R_INV * DELTA, X_NUM)

    def test_square(self):
        # 1 + (s - s^-1)(r - r^-1)/x
        expected = RationalFn2(X_NUM + DELTA * DELTA * (R - R_INV), X_NUM)
        assert generator_power_trace(2) == expected

    def test_parity_flip_of_trace(self):
        # the scalar shadow of the substitution symmetry: the two
        # specializations differ by exactly (-1)^m
        for m in range(-4, 7):
            tr = generator_power_trace(m)
            for n in (1, 2):
                a_num = specialize(tr.num, Specialization.osp(n))
                a_den = specialize(tr.den, Specialization.osp(n))
                b_num = specialize(tr.num, Specialization.so(n))
                b_den = specialize(tr.den, Specialization.so(n))
                sign = 1 if m % 2 == 0 else -1
                assert (a_num * b_den - sign * b_num * a_den).is_zero, (m, n)


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
            row = generator_power(m)
            direct = r_pow(-m) * (row.a * X + row.b * R + row.c)
            assert torus2_invariant(m) == direct


class TestParity:
    def test_stated_cases(self):
        assert parity_check(1)
        assert parity_check(2)
        assert parity_check(3)

    def test_positive_range(self):
        assert all(parity_check(m) for m in range(1, 11))

    def test_negative_range_extends(self):
        # the pattern survives the descending recurrence as well
        assert all(parity_check(m) for m in range(-6, 1))


class TestSymmetry:
    def test_stated_cases(self):
        assert symmetry_check(3)
        assert symmetry_check(0)
        assert symmetry_check(-2)

    def test_range(self):
        assert all(symmetry_check(m) for m in range(-6, 9))


def _stack_depth() -> int:
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


def _unshifted_rows(stop: int) -> dict[int, list]:
    """Rows |m| <= stop of the recurrence on c_m itself, as term lists."""
    rows = {0: _row_lists(GeneratorPower(0, ONE, ZERO, ZERO))}
    for step in (1, -1):
        a, b, c = ONE, ZERO, ZERO
        for m in range(step, step * (stop + 1), step):
            if step > 0:
                a, b, c = b, a + b * DELTA, -b * R_INV * DELTA + c * R_INV
            else:
                a, b, c = b - a * DELTA, a, a * DELTA + c * R
            rows[m] = _row_lists(GeneratorPower(m, a, b, c))
    return rows


def _row_lists(row: GeneratorPower) -> list:
    return [p.to_lists() for p in (row.a, row.b, row.c)]


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
            assert parity_check(m) and parity_check(-m)
            assert generator_power(m).m == m
            assert generator_power(-m - 1).m == -m - 1
        finally:
            sys.setrecursionlimit(limit)

    def test_rows_match_the_unshifted_steps(self):
        # the kept row holds r^k c_k; the rows it returns are those of the
        # recurrence on c_k itself, term for term
        cf._row.cache_clear()
        expected = _unshifted_rows(60)
        for m in [*range(1, 61), *range(-1, -61, -1)]:
            assert _row_lists(generator_power(m)) == expected[m], m

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
            assert _row_lists(generator_power(m)) == expected[m], m

    def test_rows_independent_of_fill_order(self):
        # the same rows whether computed from row 0 or from a kept row
        cf._row.cache_clear()
        direct = [generator_power(m) for m in (-30, 30)]
        cf._row.cache_clear()
        stepped = [generator_power(m) for m in (-10, -30, 10, 30)]
        assert stepped[1] == direct[0] and stepped[3] == direct[1]
        cf._row.cache_clear()
        assert [generator_power(m) for m in (10, -10)] == [stepped[2], stepped[0]]
