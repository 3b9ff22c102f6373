import inspect
import random
import sys
import textwrap

import pytest
from hypothesis import Phase, find, given, settings, strategies as st

import bwmlink
from bwmlink import laurent
from bwmlink.laurent import (DELTA, X_NUM, LaurentPoly1, LaurentPoly2,
                             LocalizedPoly, Quotient, RationalFn2,
                             Specialization, _div_delta, loop_value,
                             quantum_dimension, r_pow, s_pow, specialize,
                             sums_of_products_equal)

R = r_pow(1)
S = s_pow(1)


def poly2(d):
    return LaurentPoly2(d)


@st.composite
def polys2(draw, max_terms=4, max_exp=3, max_coeff=5):
    n = draw(st.integers(0, max_terms))
    terms = {}
    for _ in range(n):
        a = draw(st.integers(-max_exp, max_exp))
        b = draw(st.integers(-max_exp, max_exp))
        c = draw(st.integers(-max_coeff, max_coeff))
        terms[(a, b)] = c
    return LaurentPoly2(terms)


def reference_mul(p: LaurentPoly2, q: LaurentPoly2) -> LaurentPoly2:
    """The pairwise convolution of every term pair, with no monomial key
    shift: the reference for ``LaurentPoly2.__mul__``."""
    out: dict[tuple[int, int], int] = {}
    for a1, b1, c1 in p.terms():
        for a2, b2, c2 in q.terms():
            k = (a1 + a2, b1 + b2)
            out[k] = out.get(k, 0) + c1 * c2
    return LaurentPoly2(out)


def source_copy(fn, old, new):
    """A copy of ``fn``, a function or method of the package, with the
    source text ``old`` made ``new``, run in the namespace of its module."""
    source = textwrap.dedent(inspect.getsource(fn))
    mutated = source.replace(old, new)
    assert mutated != source
    namespace = dict(vars(sys.modules[fn.__module__]))
    exec(mutated, namespace)
    return namespace[fn.__name__]


specs = st.sampled_from(
    [Specialization.osp(n) for n in (1, 2, 3)]
    + [Specialization.so(n) for n in (1, 2, 3)])


class TestLaurentPoly2:
    def test_cancellation(self):
        assert (R + S) + (-S) == R

    def test_difference_of_squares(self):
        assert DELTA * (S + s_pow(-1)) == s_pow(2) - s_pow(-2)

    def test_zero_normalization(self):
        assert poly2({(1, 0): 1, (0, 0): 0}) == R
        assert (R - R).is_zero

    @given(polys2(), polys2(), polys2())
    @settings(max_examples=60)
    def test_ring_axioms(self, p, q, r):
        assert p + q == q + p
        assert (p + q) + r == p + (q + r)
        assert p * q == q * p
        assert (p * q) * r == p * (q * r)
        assert p * (q + r) == p * q + p * r

    @given(polys2())
    def test_additive_inverse(self, p):
        assert (p + (-p)).is_zero

    def test_pow_monomial_negative(self):
        assert (R * S) ** -2 == LaurentPoly2.term(1, -2, -2)

    def test_pow_negative_non_unit_raises(self):
        # only +-monomials are units of the Laurent ring
        for p in (R + S, 2 * R, DELTA):
            with pytest.raises(ValueError, match="unit monomials"):
                p ** -1

    def test_serialization_order(self):
        p = poly2({(2, -1): -3, (0, 0): 1})
        assert p.to_triples() == [[0, 0, 1], [2, -1, -3]]
        assert p.to_text() == "1 - 3*r^2*s^-1"

    def test_text_roundtrip_examples(self):
        assert poly2({}).to_text() == "0"
        assert (R - s_pow(-1)).to_text() == "-s^-1 + r"


H = laurent.KEY_M // 2  # (M - 1) / 2, the largest |s-exponent| of a key
key_pairs = st.lists(st.tuples(
    st.integers(-2**12, 2**12),
    st.one_of(st.integers(-40, 40), st.sampled_from((H, -H, H - 1, 1 - H)))),
    min_size=1, max_size=8)


def round_trips(pairs) -> bool:
    """Whether (a, b) -> k -> (a, b) is the identity on ``pairs``."""
    return all(laurent._unpack(laurent._pack(a, b)) == (a, b)
               for a, b in pairs)


def parity_kept(pairs) -> bool:
    """Whether every key has the parity of a + b."""
    return all(laurent._pack(a, b) & 1 == (a + b) & 1 for a, b in pairs)


def first_failure(check):
    """A drawn list of pairs on which ``check`` fails."""
    return find(key_pairs, lambda pairs: not check(pairs),
                settings=settings(max_examples=500, database=None,
                                  derandomize=True, phases=[Phase.generate]))


class TestKeyFormat:
    """r^a s^b is keyed by a M + b with M odd and b balanced."""

    def test_m_is_odd(self):
        assert laurent.KEY_M % 2 == 1 and 2 * H + 1 == laurent.KEY_M

    @given(key_pairs)
    def test_round_trip(self, pairs):
        assert round_trips(pairs)
        poly = LaurentPoly2({pair: 3 for pair in pairs})
        assert [(a, b) for a, b, _ in poly.terms()] == sorted(set(pairs))

    @given(key_pairs)
    def test_sorted_keys_are_sorted_pairs(self, pairs):
        keys = sorted(laurent._pack(a, b) for a, b in set(pairs))
        assert [laurent._unpack(k) for k in keys] == sorted(set(pairs))

    @given(key_pairs)
    def test_parity(self, pairs):
        assert parity_kept(pairs)
        poly = LaurentPoly2({pair: 1 for pair in pairs})
        assert poly.parities() == {(a + b) & 1 for a, b in pairs}

    @pytest.mark.parametrize("b", [H + 1, -H - 1])
    def test_s_exponent_out_of_range(self, b):
        with pytest.raises(ValueError, match="key range"):
            LaurentPoly2({(0, b): 1})
        with pytest.raises(ValueError, match="key range"):
            LaurentPoly2.term(1, 2, b)
        inside = b - 1 if b > 0 else b + 1
        assert LaurentPoly2.term(1, 2, inside).to_triples() == [[2, inside, 1]]

    def test_floor_decoding_fails(self, monkeypatch):
        # b = k mod M is right for b >= 0 only
        monkeypatch.setattr(laurent, "_unpack", source_copy(
            laurent._unpack, "b = (k + _HALF) % KEY_M - _HALF",
            "b = k % KEY_M"))
        pairs = first_failure(round_trips)
        monkeypatch.undo()
        assert round_trips(pairs) and any(b < 0 for _, b in pairs)

    def test_even_m_fails(self, monkeypatch):
        # with M even, a M + b has the parity of b, not of a + b
        monkeypatch.setattr(laurent, "KEY_M", 1 << 20)
        pairs = first_failure(parity_kept)
        monkeypatch.undo()
        assert parity_kept(pairs) and any(a % 2 for a, _ in pairs)


class TestMonomialProduct:
    """A product with a one-term operand is a key shift, scaled unless the
    coefficient is 1."""

    @given(polys2(), st.integers(-3, 3), st.integers(-3, 3),
           st.sampled_from((1, -1, 2, -3, 7)))
    @settings(max_examples=80)
    def test_matches_reference(self, p, a, b, m):
        mono = LaurentPoly2.term(m, a, b)
        for x, y in ((p, mono), (mono, p), (mono, mono),
                     (LaurentPoly2(), mono), (mono, LaurentPoly2())):
            product = x * y
            assert product == reference_mul(x, y)
            assert all(c for *_, c in product.terms())


class TestExactDivision:
    def test_delta_square(self):
        assert (s_pow(2) - s_pow(-2)).exact_div(DELTA) == S + s_pow(-1)

    def test_monomial_factor(self):
        assert (R * S - R * s_pow(-1)).exact_div(DELTA) == R

    def test_non_divisible(self):
        assert (R + S).exact_div(DELTA) is None

    @given(polys2(), polys2())
    @settings(max_examples=60)
    def test_divide_product(self, p, d):
        if d.is_zero:
            return
        assert (p * d).exact_div(d) == p

    def test_aliased_images_rejected(self):
        # the keys of 1 - r and 1 - s are 1 - t^M and 1 - t, which divide;
        # a quotient would need s-exponents in 0..-1, so the first quotient
        # key stops the division
        assert (1 - R).exact_div(1 - S) is None


def div_delta(p: LaurentPoly2) -> LaurentPoly2 | None:
    """``_div_delta`` on a LaurentPoly2's keys, column by column."""
    q = _div_delta(p._terms, True)
    return None if q is None else LaurentPoly2._make(q)


class TestDivDelta:
    def test_examples(self):
        assert div_delta(s_pow(3) - s_pow(-3)) == s_pow(2) + 1 + s_pow(-2)
        assert div_delta(R * DELTA + DELTA * DELTA) == R + DELTA
        assert div_delta(LaurentPoly2()) == LaurentPoly2()
        assert div_delta(S) is None
        assert div_delta(S + s_pow(-1)) is None
        # (s - s^-1) divides p exactly when p vanishes at s = 1 and s = -1,
        # that is when both parity classes of a column sum to 0; each of
        # these fails one class only
        assert div_delta(1 + S - s_pow(2)) is None
        assert div_delta(1 + S - s_pow(3)) is None
        assert div_delta(R * (s_pow(2) - 1) + (1 + S - s_pow(2))) is None

    @given(polys2(max_terms=6), st.integers(0, 2))
    @settings(max_examples=200)
    def test_matches_exact_div(self, p, j):
        # exact_div is the general routine; None cases must agree too
        q = p * DELTA**j
        assert div_delta(q) == q.exact_div(DELTA)

    def test_one_run_in_q(self):
        # without columns the recurrence runs once over the whole
        # polynomial, gaps included
        q = LaurentPoly1.term(1, 1)
        assert _div_delta((q**3 - q**-3)._terms, False) == (q**2 + 1 + q**-2)._terms
        assert _div_delta((q**5 - q)._terms, False) == {4: 1, 2: 1}
        assert _div_delta(q._terms, False) is None
        assert _div_delta({}, False) == {}

    def test_columns_divide_alone(self):
        # r^1000 (s^2 - s^-2) + (s - s^-1): the recurrence never walks the
        # ~1000 M keys between the two columns
        p = r_pow(1000) * (s_pow(2) - s_pow(-2)) + DELTA
        assert div_delta(p) == r_pow(1000) * (S + s_pow(-1)) + 1


def generic(num, k):
    """(num, k) of the value the normalizing constructor gives."""
    v = LocalizedPoly(num, k)
    return v.num, v.k


class TestLocalizedFastPaths:
    @given(polys2(), st.integers(0, 3))
    @settings(max_examples=60)
    def test_times_delta(self, p, k):
        v = LocalizedPoly(p, k)
        for w in (v * DELTA, DELTA * v):
            assert (w.num, w.k) == generic(v.num * DELTA, v.k)

    @given(polys2(), st.integers(0, 3), st.integers(-3, 3), st.integers(-3, 3),
           st.sampled_from((1, -1, 3, -6)))
    @settings(max_examples=60)
    def test_times_monomial(self, p, k, a, b, c):
        v = LocalizedPoly(p, k)
        m = LaurentPoly2.term(c, a, b)
        for w in (v * m, m * v):
            assert (w.num, w.k) == generic(reference_mul(v.num, m), v.k)

    @given(polys2(), st.integers(0, 3), st.integers(-4, 4))
    @settings(max_examples=60)
    def test_times_int(self, p, k, n):
        v = LocalizedPoly(p, k)
        for w in (v * n, n * v):
            assert (w.num, w.k) == generic(v.num * n, v.k)
        assert (v * 0).num.is_zero and (v * 0).k == 0

    @given(polys2(), polys2(), st.integers(0, 3), st.integers(0, 3))
    @settings(max_examples=60)
    def test_add(self, p, q, j, k):
        # equal and unequal k alike: both numerators lifted to the larger k
        u, v = LocalizedPoly(p, j), LocalizedPoly(q, k)
        top = max(u.k, v.k)
        w = u + v
        assert (w.num, w.k) == generic(u.num * DELTA ** (top - u.k)
                                       + v.num * DELTA ** (top - v.k), top)

    def test_add_equal_k_divides_out(self):
        w = LocalizedPoly(S, 1) + LocalizedPoly(-s_pow(-1), 1)
        assert (w.num, w.k) == (LaurentPoly2.const(1), 0)

    @pytest.mark.parametrize("num, k", [(X_NUM, 1), (R + S, 2), (S, 3)])
    def test_neg_and_flip_skip_division(self, monkeypatch, num, k):
        # both keep (s - s^-1) from dividing the numerator, so neither
        # needs a trial division
        v = LocalizedPoly(num, k)
        assert v.k == k
        calls = []
        div_delta = laurent._div_delta

        def counted(*args):
            calls.append(args)
            return div_delta(*args)

        monkeypatch.setattr(laurent, "_div_delta", counted)
        neg, flipped = -v, v.flip_vars()
        assert calls == []
        monkeypatch.undo()
        assert (neg.num, neg.k) == generic(-v.num, k)
        sign = -1 if k % 2 else 1
        assert (flipped.num, flipped.k) == generic(sign * v.num.flip_vars(), k)


class TestLocalized:
    def test_loop_value_clears(self):
        assert loop_value() * DELTA == LocalizedPoly.from_poly(X_NUM)

    def test_loop_value_minus_one(self):
        assert loop_value() - 1 == LocalizedPoly(R - r_pow(-1), 1)

    def test_addition_normalizes(self):
        lhs = LocalizedPoly(R - r_pow(-1), 1) + LocalizedPoly(DELTA, 1)
        assert lhs == loop_value()
        assert lhs.k == 1

    @pytest.mark.parametrize("k", [1, 0])
    def test_int_numerator_raises(self, k):
        with pytest.raises(TypeError, match="LocalizedPoly.from_poly"):
            LocalizedPoly(1, k)

    def test_negative_denominator_exponent_raises(self):
        with pytest.raises(ValueError, match="nonnegative"):
            LocalizedPoly(R, -1)

    def test_negative_power_raises(self):
        # 1/x is not in Z[r^+-1, s^+-1][1/(s - s^-1)]
        with pytest.raises(ValueError, match="localized ring"):
            loop_value() ** -1

    def test_normalization_invariant(self):
        v = LocalizedPoly(DELTA * DELTA * R, 2)
        assert v.k == 0 and v.num == R

    @given(polys2(), st.integers(0, 3))
    @settings(max_examples=60)
    def test_always_normalized(self, p, k):
        v = LocalizedPoly(p, k)
        assert v.k == 0 or v.num.exact_div(DELTA) is None

    @given(polys2(), polys2(), st.integers(0, 2), st.integers(0, 2))
    @settings(max_examples=40)
    def test_mul_matches_lifted(self, p, q, j, k):
        u, v = LocalizedPoly(p, j), LocalizedPoly(q, k)
        assert (u * v) * DELTA ** (j + k) == LocalizedPoly.from_poly(p * q)


class TestRationalFn:
    def test_cross_multiplied_equality(self):
        assert RationalFn2(R * DELTA, DELTA) == R

    @given(polys2(), polys2())
    @settings(max_examples=60)
    def test_scaling_invariance(self, p, d):
        if d.is_zero:
            return
        assert RationalFn2(p * d, d) == p

    @given(polys2(), polys2(), polys2())
    @settings(max_examples=40)
    def test_equivalence_transitive(self, p, q, d):
        if d.is_zero:
            return
        a = RationalFn2(p * q, d)
        b = RationalFn2(p * q * d, d * d)
        c = RationalFn2(p * q * d * d, d * d * d)
        assert a == b and b == c and a == c


@st.composite
def polys1(draw, max_terms=4, max_exp=4, max_coeff=5):
    terms = draw(st.dictionaries(st.integers(-max_exp, max_exp),
                                 st.integers(-max_coeff, max_coeff),
                                 max_size=max_terms))
    return LaurentPoly1(terms)


class TestMonomialProduct1:
    """A ``LaurentPoly1`` product with a one-term operand is a key shift
    too, scaled by the coefficient."""

    @given(polys1(), st.integers(-4, 4), st.sampled_from((1, -1, 2, -3)))
    @settings(max_examples=80)
    def test_matches_convolution(self, p, a, m):
        mono = LaurentPoly1.term(m, a)
        for x, y in ((p, mono), (mono, p), (mono, mono),
                     (LaurentPoly1(), mono), (mono, LaurentPoly1())):
            expected: dict[int, int] = {}
            for e1, c1 in x._terms.items():
                for e2, c2 in y._terms.items():
                    expected[e1 + e2] = expected.get(e1 + e2, 0) + c1 * c2
            product = x * y
            assert product == LaurentPoly1(expected)
            assert 0 not in product._terms.values()


class TestExactDivBothClasses:
    """Both classes divide with the one long division: the result is None
    or an exact quotient, and never None when a quotient exists."""

    @pytest.mark.parametrize("polys", [polys2, polys1])
    @settings(max_examples=150)
    @given(data=st.data())
    def test_none_or_exact(self, polys, data):
        p, q, d = (data.draw(polys()) for _ in range(3))
        if d.is_zero:
            return
        out = p.exact_div(d)
        assert out is None or out * d == p, (p, d, out)
        assert (q * d).exact_div(d) == q

    def test_zero_divisor(self):
        for zero in (LaurentPoly2(), LaurentPoly1()):
            with pytest.raises(ZeroDivisionError):
                zero.exact_div(zero)


class TestQuotient:
    @given(st.one_of(st.tuples(polys2(), polys2()), st.tuples(polys1(), polys1())))
    @settings(max_examples=80)
    def test_equals_polynomial_both_ways(self, pair):
        p, d = pair
        if d.is_zero:
            return
        w = Quotient(p * d, d)
        assert w == p and p == w
        # negative control: a different polynomial is not equal
        assert w != p + 1 and p + 1 != w

    @given(polys2(), polys2(), st.integers(0, 3))
    @settings(max_examples=60)
    def test_equals_localized_both_ways(self, p, d, k):
        if d.is_zero:
            return
        v = LocalizedPoly(p, k)
        w = Quotient(p * d, DELTA**k * d)
        assert w == v and v == w
        assert w != v + 1 and v + 1 != w

    def test_equals_int_both_ways(self):
        assert Quotient(DELTA * 3, DELTA) == 3 and 3 == Quotient(DELTA * 3, DELTA)
        assert Quotient(DELTA * 3, DELTA) != 2

    def test_zero_denominator_raises(self):
        with pytest.raises(ZeroDivisionError):
            Quotient(R, LaurentPoly2())
        with pytest.raises(ZeroDivisionError):
            Quotient(LaurentPoly1.const(1), LaurentPoly1())

    def test_unhashable(self):
        with pytest.raises(TypeError):
            hash(Quotient(R, DELTA))

    def test_never_reduced(self):
        w = Quotient(R * DELTA * 2, DELTA * 2)
        assert (w.num, w.den) == (R * DELTA * 2, DELTA * 2)

    def test_one_type_under_three_names(self):
        assert bwmlink.RationalFn2 is bwmlink.QFraction is bwmlink.Quotient

    def test_different_variables_unequal(self):
        q = LaurentPoly1.const(1)
        one2 = LaurentPoly2.const(1)
        pairs = [(one2, q), (LocalizedPoly.from_poly(1), q),
                 (Quotient(DELTA, DELTA), q),
                 (Quotient(DELTA, DELTA), Quotient(q, q)),
                 (Quotient(q, q), LocalizedPoly.from_poly(1)),
                 (Quotient(q, q), one2)]
        for u, v in pairs:
            assert (u == v) is False and (v == u) is False
            assert u != v and v != u


class TestPower:
    """Square-and-multiply powers equal the repeated product."""

    @staticmethod
    def check(base, one):
        product = one
        for n in range(10):
            assert base**n == product, n
            product = product * base

    def test_laurent_poly2(self):
        self.check(R + 2 * S - 1, LaurentPoly2.const(1))

    def test_localized(self):
        self.check(loop_value() - R, LocalizedPoly.from_poly(1))

    def test_laurent_poly1(self):
        q = LaurentPoly1.term(1, 1)
        self.check(q - 2 + LaurentPoly1.term(3, -2), LaurentPoly1.const(1))

    def test_localized_keeps_normal_form(self):
        v = loop_value() ** 5
        assert v.k == 5 and v.num == X_NUM**5

    def test_no_product_with_one(self, monkeypatch):
        # the first factor is taken as it is: base**n costs one squaring
        # per bit after the first and one product per further set bit
        calls = []
        mul = LaurentPoly2.__mul__

        def counted(self, other):
            calls.append(other)
            return mul(self, other)

        monkeypatch.setattr(LaurentPoly2, "__mul__", counted)
        for n in range(1, 10):
            calls.clear()
            DELTA**n
            assert len(calls) == n.bit_length() + bin(n).count("1") - 2, n
        assert X_NUM**1 is X_NUM


class TestFlipVars:
    def test_even_monomial(self):
        assert (R * S).flip_vars() == R * S

    def test_odd_monomial(self):
        assert (R * s_pow(2)).flip_vars() == -(R * s_pow(2))

    @given(polys2())
    def test_involution(self, p):
        assert p.flip_vars().flip_vars() == p

    @given(polys2(), polys2())
    @settings(max_examples=60)
    def test_ring_homomorphism(self, p, q):
        assert (p * q).flip_vars() == p.flip_vars() * q.flip_vars()
        assert (p + q).flip_vars() == p.flip_vars() + q.flip_vars()

    def test_localized_flip(self):
        x = loop_value()
        assert x.flip_vars() == x


class TestSpecialize:
    def test_monomial_osp(self):
        assert specialize(R * S, Specialization.osp(1)) == LaurentPoly1.term(-1, 3)

    def test_delta_so(self):
        assert specialize(DELTA, Specialization.so(1)) == LaurentPoly1({1: -1, -1: 1})

    def test_x_both_ways(self):
        for n in (1, 2, 3):
            a = specialize(loop_value(), Specialization.osp(n))
            b = specialize(loop_value(), Specialization.so(n))
            assert a == quantum_dimension(n) == b

    @given(polys2(), polys2(), specs)
    @settings(max_examples=60)
    def test_ring_homomorphism(self, p, q, spec):
        assert specialize(p * q, spec) == specialize(p, spec) * specialize(q, spec)
        assert specialize(p + q, spec) == specialize(p, spec) + specialize(q, spec)

    @given(polys2(), st.integers(1, 3))
    @settings(max_examples=60)
    def test_flip_swaps_specializations(self, p, n):
        # the scalar shadow of the substitution symmetry: flipping r, s and
        # specializing one way is exactly specializing the other way
        assert (specialize(p.flip_vars(), Specialization.so(n))
                == specialize(p, Specialization.osp(n)))
        assert (specialize(p.flip_vars(), Specialization.osp(n))
                == specialize(p, Specialization.so(n)))

    def test_inexact_division_raises(self):
        # 1 / (s - s^-1) is no engine value: its image is no polynomial in q
        with pytest.raises(ValueError, match="does not divide"):
            specialize(LocalizedPoly(LaurentPoly2.const(1), 1),
                       Specialization.osp(1))

    @pytest.mark.parametrize("args", [(0, 1, 1), (1, 2, 1), (1, -1, 0),
                                      (-1, 1, -2)])
    def test_invalid_specialization_raises(self, args):
        with pytest.raises(ValueError):
            Specialization(*args)

    def test_unsupported_value_raises(self):
        for value in (3, LaurentPoly1.const(1), Quotient(R, DELTA)):
            with pytest.raises(TypeError, match="cannot specialize"):
                specialize(value, Specialization.osp(1))


class TestSpecializationLabel:
    """``label`` names the osp and so sign pairs and spells out the others."""

    @pytest.mark.parametrize("sign_r, sign_s, n, label", [
        (-1, 1, 1, "osp:1"), (-1, 1, 7, "osp:7"),
        (1, -1, 2, "so:2"), (1, -1, 100, "so:100"),
        (1, 1, 3, "(1*q^6, 1*q)"), (-1, -1, 2, "(-1*q^4, -1*q)"),
    ])
    def test_label(self, sign_r, sign_s, n, label):
        assert Specialization(sign_r, sign_s, n).label() == label

    def test_named_constructors(self):
        assert Specialization.osp(4).label() == "osp:4"
        assert Specialization.so(5).label() == "so:5"


class TestQuantumDimension:
    def test_n1(self):
        assert quantum_dimension(1) == LaurentPoly1({0: 1, 1: -1, -1: -1})

    def test_n1_coefficient_sum(self):
        assert sum(c for _, c in quantum_dimension(1).terms()) == -1

    def test_nonpositive_n_raises(self):
        for n in (0, -1):
            with pytest.raises(ValueError, match="positive integer"):
                quantum_dimension(n)

    def test_clears_division(self):
        for n in (1, 2, 3, 4):
            lhs = (LaurentPoly1({1: 1, -1: -1})) * (quantum_dimension(n) - 1)
            assert lhs == LaurentPoly1({2 * n: -1, -2 * n: 1})


def expand(side, one):
    """Oracle: the sum of products, multiplied and added out."""
    total = one * 0
    for factors in side:
        product = one
        for f in factors:
            product = product * f
        total = total + product
    return total


# small coefficients, and ones far beyond a machine word
coeffs = st.one_of(st.integers(-3, 3), st.integers(2**40, 2**44),
                   st.integers(-2**44, -2**40))
exps = st.integers(-3, 3)
one_var = st.dictionaries(exps, coeffs, max_size=4).map(LaurentPoly1)
two_var = st.dictionaries(st.tuples(exps, exps), coeffs,
                          max_size=4).map(LaurentPoly2)


@st.composite
def sides(draw):
    """Two sums of products of one class; empty dictionaries give zero
    factors, empty lists empty products.  Half the time the right side is
    rewritten to equal the left, so cancellation is tested too."""
    polys, one = draw(st.sampled_from(
        [(one_var, LaurentPoly1.const(1)), (two_var, LaurentPoly2.const(1))]))
    side = st.lists(st.lists(polys, max_size=3).map(tuple), max_size=3)
    lhs, rhs = draw(side), draw(side)
    if draw(st.booleans()):
        rhs = rhs + [(expand(lhs, one) - expand(rhs, one),)]
    return lhs, rhs, one


# the Bratteli checks pass factors of 1-4 terms; every product below also
# has one of 5-6 terms, so the shifted copies are tested on longer factors
few_one_var = st.dictionaries(exps, coeffs, min_size=1, max_size=4)
many_one_var = st.dictionaries(exps, coeffs, min_size=5, max_size=6)
few_two_var = st.dictionaries(st.tuples(exps, exps), coeffs,
                              min_size=1, max_size=4)
many_two_var = st.dictionaries(st.tuples(exps, exps), coeffs,
                               min_size=5, max_size=6)


@st.composite
def mixed_sides(draw):
    """Two sums of products whose factors have both few and many terms;
    half the time the right side is rewritten to equal the left."""
    cls, few, many = draw(st.sampled_from(
        [(LaurentPoly1, few_one_var, many_one_var),
         (LaurentPoly2, few_two_var, many_two_var)]))
    product = st.tuples(st.lists(few.map(cls), min_size=1, max_size=2),
                        many.map(cls)).flatmap(
        lambda parts: st.permutations(parts[0] + [parts[1]])).map(tuple)
    side = st.lists(product, min_size=1, max_size=2)
    lhs, rhs = draw(side), draw(side)
    one = cls.const(1)
    if draw(st.booleans()):
        rhs = rhs + [(expand(lhs, one) - expand(rhs, one),)]
    return lhs, rhs, one


def terms_as_products(poly, cls):
    """poly as a sum of products of one factor each, all coefficients +-1:
    a term c m gives |c| products (+-m,)."""
    return [(cls.term(1 if c > 0 else -1, *exps),)
            for *exps, c in poly.terms() for _ in range(abs(c))]


@st.composite
def sides_with_coefficients(draw, coeffs, as_products):
    """Two sums of products whose drawn factors take their coefficients
    from ``coeffs``; half the time the right side gets the difference,
    written as products by ``as_products(poly, cls)``."""
    cls, keys = draw(st.sampled_from(
        [(LaurentPoly1, exps), (LaurentPoly2, st.tuples(exps, exps))]))
    factor = st.dictionaries(keys, coeffs, min_size=1, max_size=4).map(cls)
    side = st.lists(st.lists(factor, min_size=1, max_size=3).map(tuple),
                    min_size=1, max_size=3)
    lhs, rhs = draw(side), draw(side)
    one = cls.const(1)
    if draw(st.booleans()):
        rhs = rhs + as_products(expand(lhs, one) - expand(rhs, one), cls)
    return lhs, rhs, one


def unit_sides():
    """Every coefficient +-1, the difference's terms included."""
    return sides_with_coefficients(st.sampled_from((1, -1)), terms_as_products)


def scaled_sides():
    """Every coefficient even and nonzero, so |c| >= 2 holds for every
    product and for the difference too."""
    even = st.one_of(st.integers(1, 20), st.integers(-20, -1),
                     st.integers(2**40, 2**44)).map(lambda c: 2 * c)
    return sides_with_coefficients(
        even, lambda poly, cls: [] if poly.is_zero else [(poly,)])


def parity_factors(parity):
    """LaurentPoly2 factors whose terms r^a s^b all have a + b = parity
    (mod 2), as every Bratteli factor has."""
    keys = st.tuples(exps, exps).map(
        lambda k: k if (k[0] + k[1] - parity) % 2 == 0 else (k[0], k[1] + 1))
    return st.dictionaries(keys, coeffs, min_size=1,
                           max_size=4).map(LaurentPoly2)


def parity_parts(poly):
    """poly as a sum of at most two one-factor products, the terms of even
    and of odd a + b."""
    parts = [{(a, b): c for a, b, c in poly.terms() if (a + b) % 2 == p}
             for p in (0, 1)]
    return [(LaurentPoly2(part),) for part in parts if part]


@st.composite
def parity_sides(draw):
    """Two sums of products of parity-homogeneous factors, so the kernel
    packs every int at half width; the products' parities differ, so both
    residue classes occur.  A third of the time the right side gets the
    difference, split into its two parity parts; a third of the time it is
    the left side times r or s, whose products have the left's packed
    values in the other class."""
    factor = st.integers(0, 1).flatmap(parity_factors)
    side = st.lists(st.lists(factor, min_size=1, max_size=3).map(tuple),
                    min_size=1, max_size=3)
    lhs, rhs = draw(side), draw(side)
    one = LaurentPoly2.const(1)
    mode = draw(st.sampled_from(("drawn", "difference", "shifted")))
    if mode == "difference":
        rhs = rhs + parity_parts(expand(lhs, one) - expand(rhs, one))
    elif mode == "shifted":
        odd = draw(st.sampled_from((R, S)))
        rhs = [t + (odd,) for t in lhs]
    return lhs, rhs, one


def kernel_copy(old, new):
    """A copy of the helper with the source text ``old`` made ``new``."""
    return source_copy(laurent.sums_of_products_equal, old, new)


def byte_base_copy():
    """A copy of the helper with B = 2^8 whatever the coefficient bound."""
    return kernel_copy("bits = bound.bit_length()", "bits = 8")


def agrees(kernel, case):
    """Whether ``kernel`` decides the case as the expansion does."""
    lhs, rhs, one = case
    return kernel(lhs, rhs) is (expand(lhs, one) == expand(rhs, one))


class TestSumsOfProductsEqual:
    @given(st.one_of(sides(), mixed_sides()))
    @settings(max_examples=300, deadline=None)
    def test_matches_expansion(self, case):
        lhs, rhs, one = case
        expected = expand(lhs, one) == expand(rhs, one)
        assert sums_of_products_equal(lhs, rhs) is expected
        assert sums_of_products_equal(rhs, lhs) is expected

    @given(st.one_of(unit_sides(), scaled_sides()))
    @settings(max_examples=150, deadline=None)
    def test_unit_and_scaled_coefficients(self, case):
        # +-1 coefficients take the add and subtract branches of the
        # kernel, |c| >= 2 the multiply branch
        lhs, rhs, one = case
        assert agrees(sums_of_products_equal, case)
        assert agrees(sums_of_products_equal, (rhs, lhs, one))

    @pytest.mark.parametrize("strategy, old, new", [
        (unit_sides, "total -= value << bits", "total += value << bits"),
        (scaled_sides, "total += value * c << bits", "total += value << bits"),
    ])
    def test_branch_mutants_fail(self, strategy, old, new):
        # a kernel that adds the copy for c = -1, or drops the scale for
        # |c| >= 2, disagrees with the expansion on some drawn case
        mutant = kernel_copy(old, new)
        case = find(strategy(), lambda case: not agrees(mutant, case),
                    settings=settings(max_examples=500, database=None,
                                      derandomize=True,
                                      phases=[Phase.generate]))
        assert agrees(sums_of_products_equal, case)

    @given(st.one_of(sides(), mixed_sides(), unit_sides(), scaled_sides()),
           st.integers(0, 2**32))
    @settings(max_examples=200, deadline=None)
    def test_order_does_not_matter(self, case, seed):
        # the kernel picks its own factor order; any order it is handed in,
        # of factors within a product or of products within a side, gives
        # the same answer
        lhs, rhs, one = case
        rng = random.Random(seed)

        def shuffled(side):
            out = [tuple(rng.sample(t, len(t))) for t in side]
            rng.shuffle(out)
            return out

        expected = expand(lhs, one) == expand(rhs, one)
        assert sums_of_products_equal(shuffled(lhs), shuffled(rhs)) is expected

    @given(parity_sides())
    @settings(max_examples=120, deadline=None)
    def test_parity_homogeneous_factors(self, case):
        lhs, rhs, one = case
        assert agrees(sums_of_products_equal, case)
        assert agrees(sums_of_products_equal, (rhs, lhs, one))

    def test_residue_classes_kept_apart(self):
        # s^2 - 1 and s (s^2 - 1) have only even gaps, so both are packed in
        # steps of s^2; their shifts 0 and 1 lie in different classes, which
        # are never summed into one int
        q = LaurentPoly1.term(1, 1)
        for s in (S, q):
            assert not sums_of_products_equal([(s * s - 1,)], [(s, s * s - 1)])
            assert sums_of_products_equal([(s * s - 1, s)], [(s, s * s - 1)])

    def test_merged_classes_mutant_fails(self):
        # a kernel that sums every residue class into one int aliases
        # products whose shifts differ by less than one step
        mutant = kernel_copy("totals[rho]", "totals[0]")
        case = find(parity_sides(), lambda case: not agrees(mutant, case),
                    settings=settings(max_examples=500, database=None,
                                      derandomize=True,
                                      phases=[Phase.generate]))
        assert agrees(sums_of_products_equal, case)

    def test_edge_cases(self):
        q = LaurentPoly1.term(1, 1)
        zero = LaurentPoly1()
        big = 2**40 + 1
        assert sums_of_products_equal([], [])
        assert sums_of_products_equal([(), ()], [(LaurentPoly1.const(2),)])
        assert not sums_of_products_equal([()], [])
        assert sums_of_products_equal([(q, zero)], [])
        assert sums_of_products_equal([(zero,)], [(q - q, q)])
        assert sums_of_products_equal([(q * big, q * big)], [(q**2 * big**2,)])
        assert not sums_of_products_equal([(q * big, q * big)],
                                          [(q**2 * big**2 + 1,)])
        assert sums_of_products_equal([(R, S), (R, -S)], [])
        with pytest.raises(TypeError):
            sums_of_products_equal([(q,)], [(R,)])

    def test_base_below_bound_aliases(self):
        # (q + 255)(q + 1) = q^2 + 256 q + 255 and 2 q^2 + 255 differ by
        # q (256 - q), which vanishes at q = 2^8: a coefficient of 256 carries
        # into the next byte
        q = LaurentPoly1.term(1, 1)
        lhs, rhs = [(q + 255, q + 1)], [(q**2 * 2 + 255,)]
        assert expand(lhs, 1) != expand(rhs, 1)
        assert byte_base_copy()(lhs, rhs)
        assert not sums_of_products_equal(lhs, rhs)
