import inspect
import textwrap

import pytest
from hypothesis import Phase, example, find, given, settings, strategies as st

from bwmlink import skein
from bwmlink.braid import (BraidWord, closure_diagram, closure_permutation,
                           component_count, conjugate, exponent_sum,
                           free_reduce, parse_braid, stabilize)
from bwmlink.closed_forms import torus2_invariant
from bwmlink.diagram import PlanarDiagram
from bwmlink.laurent import (DELTA, ONE2, X_NUM, LaurentPoly1, LaurentPoly2,
                             LocalizedPoly, Specialization, loop_value, r_pow,
                             specialize)
from bwmlink.skein import (SkeinEngine, _mirror, _skein_step,
                           kauffman_polynomial)
from test_laurent import polys2, reference_mul

X = loop_value()
ONE1 = LaurentPoly1.const(1)


@st.composite
def small_words(draw, max_strands=3, max_len=6, min_len=0):
    f = draw(st.integers(2, max_strands))
    n = draw(st.integers(min_len, max_len))
    letters = tuple(
        (draw(st.integers(1, f - 1)), draw(st.sampled_from((1, -1))))
        for _ in range(n))
    return BraidWord(f, letters)


def numerator_parity_holds(word):
    """Whether every term r^a s^b of the closure's numerator N has
    a + b = cr + c - 1 (mod 2), cr the crossing count and c the number of
    components: the flip symmetry of the skein module docstring."""
    diagram = closure_diagram(word)
    num, c = SkeinEngine()._value(diagram)
    want = (len(diagram.crossings) + c - 1) % 2
    return all((a + b) % 2 == want for a, b in num._terms)


def skein_copy(fn, old, new):
    """A copy of ``fn``, a function or method of ``skein``, with the source
    text ``old`` made ``new``."""
    source = textwrap.dedent(inspect.getsource(fn))
    mutated = source.replace(old, new)
    assert mutated != source
    namespace = dict(vars(skein))
    exec(mutated, namespace)
    return namespace[fn.__name__]


def skein_step_copy(old, new):
    """A copy of ``_skein_step`` with the source text ``old`` made ``new``."""
    return skein_copy(skein._skein_step, old, new)


class TestNumeratorParity:
    @given(small_words(max_strands=4, max_len=8))
    @settings(max_examples=300, deadline=None)
    def test_terms_have_one_parity(self, word):
        assert numerator_parity_holds(word)
        # the same fact on the normalized value, after the r^-w shift and
        # the localization: F(-r, -s) = F(r, s)
        value = kauffman_polynomial(word)
        assert value.flip_vars() == value

    def test_swapped_delta_powers_fail(self, monkeypatch):
        # a step that lifts each smoothing by the other's power of delta
        # breaks the parity where the two smoothings' component counts
        # differ by one.  A flipped sign cannot: negating a coefficient or
        # an exponent keeps a + b (mod 2)
        mutant = skein_step_copy(
            "((par, e_par, state), (cap, e_cap, -state))",
            "((par, e_cap, state), (cap, e_par, -state))")
        monkeypatch.setattr(skein, "_skein_step", mutant)
        word = find(small_words(max_strands=4, max_len=8),
                    lambda w: not numerator_parity_holds(w),
                    settings=settings(max_examples=500, database=None,
                                      derandomize=True,
                                      phases=[Phase.generate]))
        monkeypatch.undo()
        assert numerator_parity_holds(word)


def component_words(word):
    """The closures of ``word`` restricted to each component's strands: a
    letter between two strands of one component keeps its sign and is
    renumbered among that component's slots, any other letter is dropped."""
    image = closure_permutation(word)
    components, seen = [], set()
    for start in range(1, word.strands + 1):
        cycle, p = set(), start
        while p not in seen:
            seen.add(p)
            cycle.add(p)
            p = image[p - 1]
        if cycle:
            components.append(cycle)
    words = []
    for strands in components:
        current = list(range(1, word.strands + 1))  # slot -> strand start
        letters = []
        for i, e in word.letters:
            if current[i - 1] in strands and current[i] in strands:
                rank = sum(1 for s in current[:i - 1] if s in strands)
                letters.append((rank + 1, e))
            current[i - 1], current[i] = current[i], current[i - 1]
        words.append(BraidWord(len(strands), tuple(letters)))
    return words


R_MINUS_R_INV = LaurentPoly1({1: 1, -1: -1})


def at_s_one(num: LaurentPoly2) -> LaurentPoly1:
    """N(r, 1), with r written as q."""
    out = {}
    for a, _, c in num.terms():
        out[a] = out.get(a, 0) + c
    return LaurentPoly1(out)


def lowest_terms_hold(word):
    """Whether the closure's numerator obeys the lowest-coefficient formula
    of the skein module docstring: N(r, 1) = (r - r^-1)^(c-1) u(r) with
    u(1) = 1, and u the product of the components' own N_K(r, 1); and
    whether the normalized value equals the one built by the normalizing
    constructor.  Every engine is fresh, so that a mutant caches nothing
    that other tests read."""
    num, c = SkeinEngine()._value(closure_diagram(word))
    knots = component_words(word)
    u = LaurentPoly1.const(1)
    for knot in knots:
        u = u * at_s_one(SkeinEngine()._value(closure_diagram(knot))[0])
    e_sum = sum(e for _, e in word.letters)
    return (len(knots) == c
            and at_s_one(num) == R_MINUS_R_INV ** (c - 1) * u
            and sum(coeff for _, coeff in u.terms()) == 1
            and SkeinEngine().kauffman_polynomial(word)
            == r_pow(-e_sum) * LocalizedPoly(num, c - 1))


class TestLowestTerms:
    """The engine's (N, c) pairs are in lowest terms, by the theorem in the
    skein module docstring, checked here against the components' own
    numerators: an oracle that never divides by s - s^-1 in the engine."""

    @given(small_words(max_strands=5, max_len=9))
    @example(parse_braid("B3:"))                    # 3-component unlink
    @example(parse_braid("B5: 1 1 -3 -3"))          # two Hopf links and a loop
    @example(parse_braid("B5: 1 1 1 -3 -3 -3"))     # both trefoils and a loop
    @example(parse_braid("B3: 1 1 2 2"))            # 3-component chain
    @example(parse_braid("B4: 1 2 1 2 3 3 3 -1"))   # knot linked to a loop
    @settings(max_examples=200, deadline=None)
    def test_lowest_coefficient_formula(self, word):
        assert lowest_terms_hold(word)

    def test_component_words(self):
        # the Borromean rings: every component on its own is an unknot
        words = component_words(parse_braid("B3: 1 -2 1 -2 1 -2"))
        assert words == [BraidWord(1, ())] * 3
        # a trefoil on strands 1, 2 and an unknot on strands 3, 4
        assert component_words(parse_braid("B4: 1 1 1 3")) == [
            BraidWord(2, ((1, 1),) * 3), BraidWord(2, ((1, 1),))]

    def test_swapped_delta_powers_fail(self, monkeypatch):
        mutant = skein_step_copy(
            "((par, e_par, state), (cap, e_cap, -state))",
            "((par, e_cap, state), (cap, e_par, -state))")
        monkeypatch.setattr(skein, "_skein_step", mutant)
        word = find(small_words(max_strands=5, max_len=9),
                    lambda w: not lowest_terms_hold(w),
                    settings=settings(max_examples=500, database=None,
                                      derandomize=True,
                                      phases=[Phase.generate]))
        monkeypatch.undo()
        assert lowest_terms_hold(word)


class TestBaseCases:
    def test_two_unlink(self):
        eng = SkeinEngine()
        assert eng.regular_isotopy_poly(closure_diagram(parse_braid("B2:"))) == X

    def test_single_kink(self):
        eng = SkeinEngine()
        assert eng.regular_isotopy_poly(
            closure_diagram(parse_braid("B2: 1"))) == LocalizedPoly(r_pow(1))

    def test_switch_relation_instance(self):
        # value(positive kink) - value(negative kink)
        #   = (s - s^-1) (value(2-unlink) - value(unknot))
        eng = SkeinEngine()
        pos = eng.regular_isotopy_poly(closure_diagram(parse_braid("B2: 1")))
        neg = eng.regular_isotopy_poly(closure_diagram(parse_braid("B2: -1")))
        assert pos - neg == DELTA * (X - 1)

    def test_poke_pair(self):
        # closure of the third-strand cancelling pair next to a kink
        eng = SkeinEngine()
        value = eng.regular_isotopy_poly(closure_diagram(parse_braid("B3: 1 2 -2")))
        assert value == r_pow(1) * X

    def test_normalization(self):
        assert kauffman_polynomial(parse_braid("B2: 1")) == 1
        assert kauffman_polynomial(parse_braid("B2:")) == X
        assert kauffman_polynomial(parse_braid("B1:")) == 1


TREFOIL = LaurentPoly2({
    (-4, 0): 1,
    (-3, 1): 1, (-3, -1): -1,
    (-5, 1): -1, (-5, -1): 1,
    (-2, 2): 1, (-2, -2): 1,
    (-4, 2): -1, (-4, -2): -1,
})


class TestOracle:
    def test_trefoil_frozen(self):
        # hand expansion of 2r^-2 - r^-4 + (s-s^-1)(r^-3 - r^-5)
        #   + (s-s^-1)^2 (r^-2 - r^-4), the closed form for three positive
        #   letters on two strands
        assert kauffman_polynomial(parse_braid("B2: 1^3")) == TREFOIL
        assert torus2_invariant(3) == LocalizedPoly(TREFOIL)

    def test_full_range(self):
        eng = SkeinEngine()
        for m in range(-60, 61):
            word = BraidWord(2, ((1, 1 if m > 0 else -1),) * abs(m))
            assert eng.kauffman_polynomial(word) == torus2_invariant(m), m


class TestSkeinIdentity:
    @given(small_words(max_len=4), small_words(max_len=3),
           st.integers(1, 2), st.sampled_from((1, -1)))
    @settings(max_examples=25, deadline=None)
    def test_global_switch_relation(self, w, v, index, sign):
        strands = max(w.strands, v.strands, index + 1)
        letters = (tuple(w.letters) + ((index, sign),) + tuple(v.letters))
        word = BraidWord(strands, letters)
        flipped = BraidWord(strands, (tuple(w.letters) + ((index, -sign),)
                                      + tuple(v.letters)))
        eng = SkeinEngine()
        d = closure_diagram(word)
        cid = len(w.letters)  # the crossing of the inserted letter
        _, par, cap = d.resolve(cid)
        lhs = (eng.regular_isotopy_poly(d)
               - eng.regular_isotopy_poly(closure_diagram(flipped)))
        rhs = DELTA * (eng.regular_isotopy_poly(par)
                       - eng.regular_isotopy_poly(cap))
        assert lhs == (rhs if sign > 0 else -rhs)


class TestMoveInvariance:
    @given(small_words(max_len=5), st.integers(1, 2), st.sampled_from((1, -1)))
    @settings(max_examples=20, deadline=None)
    def test_markov_moves(self, w, g, sign):
        eng = SkeinEngine()
        base = eng.kauffman_polynomial(w)
        mover = BraidWord(w.strands, ((min(g, w.strands - 1), sign),))
        assert eng.kauffman_polynomial(conjugate(w, mover)) == base
        assert eng.kauffman_polynomial(stabilize(w, sign)) == base

    @given(small_words(max_strands=4, max_len=3), st.integers(1, 2),
           st.booleans())
    @settings(max_examples=20, deadline=None)
    def test_braid_relation(self, w, i, front):
        if i + 1 > w.strands - 1:
            i = 1
        if w.strands < 3:
            w = BraidWord(3, w.letters)
        triple_a = ((i, 1), (i + 1, 1), (i, 1))
        triple_b = ((i + 1, 1), (i, 1), (i + 1, 1))
        if front:
            wa = BraidWord(w.strands, triple_a + w.letters)
            wb = BraidWord(w.strands, triple_b + w.letters)
        else:
            wa = BraidWord(w.strands, w.letters + triple_a)
            wb = BraidWord(w.strands, w.letters + triple_b)
        eng = SkeinEngine()
        assert eng.kauffman_polynomial(wa) == eng.kauffman_polynomial(wb)

    @given(small_words(max_strands=4, max_len=4))
    @settings(max_examples=20, deadline=None)
    def test_far_commutation(self, w):
        if w.strands < 4:
            w = BraidWord(4, w.letters)
        eng = SkeinEngine()
        wa = BraidWord(w.strands, ((1, 1), (3, 1)) + w.letters)
        wb = BraidWord(w.strands, ((3, 1), (1, 1)) + w.letters)
        assert eng.kauffman_polynomial(wa) == eng.kauffman_polynomial(wb)


class TestDeterminismAndMemo:
    CORPUS = ["B2: 1 1 1", "B3: 1 -2 1 -2", "B3: 1 2 1 2", "B4: 1 -2 3",
              "B3: 2 2 1 -2 1", "B2: -1 -1 -1 -1"]

    def test_repeat_evaluation_identical(self):
        eng = SkeinEngine()
        for text in self.CORPUS:
            w = parse_braid(text)
            assert eng.kauffman_polynomial(w) == eng.kauffman_polynomial(w)

    def test_cache_soundness(self):
        cached = SkeinEngine(use_cache=True)
        plain = SkeinEngine(use_cache=False)
        for text in self.CORPUS:
            w = parse_braid(text)
            assert cached.kauffman_polynomial(w) == plain.kauffman_polynomial(w)
        assert cached.cache_size > 0 and plain.cache_size == 0

    def test_shared_cache_across_words(self):
        eng = SkeinEngine()
        first = eng.kauffman_polynomial(parse_braid("B2: 1^4"))
        size_after_first = eng.cache_size
        again = eng.kauffman_polynomial(parse_braid("B2: 1^4"))
        assert first == again
        assert eng.cache_size == size_after_first

    @given(small_words(max_len=5))
    @settings(max_examples=15, deadline=None)
    def test_cache_equals_no_cache(self, w):
        # on the unreduced closure, so cancelling pairs reach the recursion
        d = closure_diagram(w)
        assert (SkeinEngine(True).regular_isotopy_poly(d)
                == SkeinEngine(False).regular_isotopy_poly(d))


class TestCacheKeys:
    """Only parts with no kink and no poke, the ones that reach traverse and
    resolve, are keyed and cached."""

    @staticmethod
    def keyed_parts(engine, diagrams):
        keyed = []
        key = PlanarDiagram.canonical_key

        def recording(self):
            keyed.append(self)
            return key(self)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(PlanarDiagram, "canonical_key", recording)
            for d in diagrams:
                engine.regular_isotopy_poly(d)
        assert {part.canonical_key() for part in keyed} == set(engine._cache)
        # a part with fewer over bits 1 than 0 is keyed by its mirror image
        for part in keyed:
            assert 2 * sum(part.crossings.values()) >= part.crossing_count
        return keyed

    @staticmethod
    def assert_reduced(keyed):
        for part in keyed:
            assert part.reduce() == (part, 0)

    @given(st.lists(small_words(max_strands=4, max_len=7), min_size=1,
                    max_size=3))
    @settings(max_examples=25, deadline=None)
    def test_keyed_parts_are_reduced(self, words):
        # on unreduced closures, so cancelling pairs reach the recursion
        engine = SkeinEngine()
        self.assert_reduced(
            self.keyed_parts(engine, [closure_diagram(w) for w in words]))

    def test_symmetric_corpus(self):
        texts = (["B2: 1^9", "B2: -1^8", "B3:" + " 1 2" * 5,
                  "B4:" + " 1 2 3" * 3, "B3:" + " 1 2 -1 -2" * 3]
                 + TestDeterminismAndMemo.CORPUS)
        engine = SkeinEngine()
        keyed = self.keyed_parts(
            engine, [closure_diagram(parse_braid(t)) for t in texts])
        assert keyed
        self.assert_reduced(keyed)

    def test_minority_part_keyed_by_its_mirror(self):
        d = closure_diagram(parse_braid("B2: -1 -1 -1"))
        keyed = self.keyed_parts(SkeinEngine(), [d])
        assert keyed[0].arcs is d.arcs
        assert keyed[0].crossings == {c: 1 - o for c, o in d.crossings.items()}

    def test_balanced_part_keyed_unmirrored(self):
        d = closure_diagram(parse_braid("B3: 1 -2 1 -2"))
        assert d.reduce() == (d, 0)
        assert 2 * sum(d.crossings.values()) == d.crossing_count
        assert self.keyed_parts(SkeinEngine(), [d])[0] is d

    def test_without_pokes_keyed_parts_are_kink_free(self):
        d = closure_diagram(parse_braid("B3: 1 2 -2 -1 1 2 1"))
        keyed = self.keyed_parts(SkeinEngine(use_poke_reduction=False), [d])
        assert any(part.reduce()[0].crossing_count < part.crossing_count
                   for part in keyed)
        for part in keyed:
            assert part.reduce(pokes=False) == (part, 0)


def mirror_word(w: BraidWord) -> BraidWord:
    return BraidWord(w.strands, tuple((i, -e) for i, e in w.letters))


def invert_vars(v: LocalizedPoly) -> LocalizedPoly:
    """v(r^-1, s^-1); the denominator contributes (-1)^k."""
    num = LaurentPoly2({(-a, -b): c for a, b, c in v.num.terms()})
    if v.k % 2:
        num = -num
    return LocalizedPoly(num, v.k)


class TestClassicalIdentities:
    """Structural facts about the invariant that the engine never consults:
    independent cross-checks of the sign conventions."""

    MIRROR_WORDS = ["B2: 1 1 1", "B3: 1 2 1 2", "B3: 1 -2 1 -2",
                    "B4: 1 2 3 1 2 3", "B3: 1 1 2 -1 2"]

    # The mirror side is evaluated without a cache: a cached engine would
    # answer it from the entry of w, through the identity checked here.

    def test_mirror_inverts_variables(self):
        eng = SkeinEngine()
        for text in self.MIRROR_WORDS:
            w = parse_braid(text)
            assert (SkeinEngine(use_cache=False).kauffman_polynomial(
                        mirror_word(w))
                    == invert_vars(eng.kauffman_polynomial(w))), text

    def test_word_reversal_invariance(self):
        eng = SkeinEngine()
        for text in ("B3: 1 2 1 -2", "B4: 1 -2 3 -2 1", "B3: 1 1 2 2"):
            w = parse_braid(text)
            rev = BraidWord(w.strands, tuple(reversed(w.letters)))
            assert eng.kauffman_polynomial(rev) == eng.kauffman_polynomial(w)

    def test_amphichiral_four_crossing_knot(self):
        value = kauffman_polynomial(parse_braid("B3: 1 -2 1 -2"))
        assert value == invert_vars(value)

    def test_connected_sum_multiplicativity(self):
        eng = SkeinEngine()
        trefoil = eng.kauffman_polynomial(parse_braid("B2: 1 1 1"))
        granny = eng.kauffman_polynomial(parse_braid("B3: 1 1 1 2 2 2"))
        square = eng.kauffman_polynomial(parse_braid("B3: 1 1 1 -2 -2 -2"))
        assert granny == trefoil * trefoil
        assert square == trefoil * invert_vars(trefoil)

    @given(small_words(max_strands=4, max_len=6))
    @settings(max_examples=20, deadline=None)
    def test_mirror_random(self, w):
        assert (SkeinEngine(use_cache=False).kauffman_polynomial(mirror_word(w))
                == invert_vars(SkeinEngine().kauffman_polynomial(w)))

    def test_relabeled_diagram_same_value(self):
        # identical abstract diagram, different ids, different recursion order
        from test_diagram import relabeled
        eng = SkeinEngine()
        for text in self.MIRROR_WORDS:
            d = closure_diagram(parse_braid(text))
            assert (eng.regular_isotopy_poly(relabeled(d, seed=99))
                    == eng.regular_isotopy_poly(d))


class TestMirrorSharing:
    """A part and its mirror image share one cache entry, mapped through
    N(D*) = (-1)^(c-1) N(D)(r^-1, s^-1)."""

    @staticmethod
    def assert_mirror_from_cache(w):
        # on unreduced closures, so cancelling pairs reach the recursion
        d = closure_diagram(mirror_word(w))
        eng = SkeinEngine()
        eng.regular_isotopy_poly(closure_diagram(w))
        assert (eng.regular_isotopy_poly(d)
                == SkeinEngine(use_cache=False).regular_isotopy_poly(d))

    @given(small_words(max_strands=4, max_len=7))
    @settings(max_examples=30, deadline=None)
    def test_mirror_after_word(self, w):
        self.assert_mirror_from_cache(w)

    @given(small_words(max_strands=3, max_len=6, min_len=2)
           .filter(lambda w: component_count(w) >= 2))
    @settings(max_examples=30, deadline=None)
    def test_mirror_of_link(self, w):
        # a part with an even component count has its entry negated
        self.assert_mirror_from_cache(w)

    def test_torus_mirror_adds_no_entries(self):
        eng = SkeinEngine()
        for m in range(1, 25):
            eng.kauffman_polynomial(BraidWord(2, ((1, 1),) * m))
            size = eng.cache_size
            value = eng.kauffman_polynomial(BraidWord(2, ((1, -1),) * m))
            assert eng.cache_size == size, m
            assert value == torus2_invariant(-m), m

    def test_torus_corpus_entries(self):
        # T(2, m), 0 < |m| <= 24, then B3 (1 2)^k, k = 2..5; 78 entries
        # when a part and its mirror were keyed apart
        eng = SkeinEngine()
        for m in range(-24, 25):
            if m:
                eng.kauffman_polynomial(
                    BraidWord(2, ((1, 1 if m > 0 else -1),) * abs(m)))
        for k in range(2, 6):
            eng.kauffman_polynomial(BraidWord(3, ((1, 1), (2, 1)) * k))
        assert eng.cache_size == 55


def torus_corpus(negative_first: bool) -> list[BraidWord]:
    """T(2, m) for 0 < |m| <= 24, one sign of m before the other, then B3
    (1 2)^k for k = 2..5."""
    signs = (-1, 1) if negative_first else (1, -1)
    return ([BraidWord(2, ((1, sign),) * m) for sign in signs
             for m in range(1, 25)]
            + [BraidWord(3, ((1, 1), (2, 1)) * k) for k in range(2, 6)])


def pending_shift_holds(words) -> bool:
    """One shared engine normalizes ``words`` in order; another takes the
    same closures through ``regular_isotopy_poly`` alone.  Each normalized
    value must be r^(-w) times the regular-isotopy value, and the two memos
    must hold the same keys and pairs: r^(-w) never reaches the memo."""
    engine, plain = SkeinEngine(), SkeinEngine()
    for w in words:
        value = engine.kauffman_polynomial(w)
        direct = plain.regular_isotopy_poly(closure_diagram(free_reduce(w)))
        if value != r_pow(-exponent_sum(w)) * direct:
            return False
    return engine._cache == plain._cache


class TestPendingShift:
    """r^(-w) and the kink sums go down the recursion as one pending
    r-power, applied to a part's value as it is copied, never stored."""

    @pytest.mark.parametrize("negative_first", [True, False])
    def test_torus_corpus(self, negative_first):
        assert pending_shift_holds(torus_corpus(negative_first))

    @given(st.lists(small_words(max_strands=4, max_len=8), min_size=1,
                    max_size=4))
    @settings(max_examples=30, deadline=None)
    def test_words(self, words):
        assert pending_shift_holds(words)

    def test_shifted_store_fails(self, monkeypatch):
        # a copy that shifts the numerator before the memo stores it
        store = "    if self._cache is not None:\n        self._cache[key]"
        monkeypatch.setattr(SkeinEngine, "_connected", skein_copy(
            SkeinEngine._connected, store,
            "    if shift:\n"
            "        num, shift = r_pow(shift) * num, 0\n" + store))
        assert not pending_shift_holds(torus_corpus(True))


class TestMonomialKernel:
    """A monomial product is a key shift, scaled unless the coefficient is
    1, and ``_mirror`` with a shift is the shifted mirror."""

    @given(polys2(), st.integers(-3, 3),
           st.integers(-3, 3).filter(bool), st.sampled_from((1, -1, 3)),
           st.integers(0, 4), st.integers(-5, 5))
    @settings(max_examples=80)
    def test_matches_double_loop(self, p, a, b, m, half_c, k):
        for s_exp in (0, b):
            mono = LaurentPoly2.term(m, a, s_exp)
            assert mono * p == reference_mul(mono, p)
            assert p * mono == reference_mul(p, mono)
        for c in (2 * half_c + 1, 2 * half_c + 2):
            assert _mirror(p, c, k) == (r_pow(k) * _mirror(p, c)[0], c)


class TestFreeReduction:
    @given(small_words(max_len=4), st.data())
    @settings(max_examples=30, deadline=None)
    def test_value_of_unreduced_word(self, w, data):
        # cancelling pairs inserted, then conjugation by up to two letters
        letters = list(w.letters)
        for _ in range(data.draw(st.integers(1, 2))):
            i = data.draw(st.integers(1, w.strands - 1))
            e = data.draw(st.sampled_from((1, -1)))
            at = data.draw(st.integers(0, len(letters)))
            letters[at:at] = [(i, e), (i, -e)]
        word = BraidWord(w.strands, tuple(letters))
        for _ in range(data.draw(st.integers(0, 2))):
            i = data.draw(st.integers(1, w.strands - 1))
            e = data.draw(st.sampled_from((1, -1)))
            word = conjugate(word, BraidWord(w.strands, ((i, e),)))
        e_sum = sum(e for _, e in word.letters)
        direct = SkeinEngine().regular_isotopy_poly(closure_diagram(word))
        assert SkeinEngine().kauffman_polynomial(word) == r_pow(-e_sum) * direct

    def test_long_cancelling_word(self):
        eng = SkeinEngine()
        word = parse_braid("B2: " + "1 -1 " * 600)
        assert eng.kauffman_polynomial(word) == X
        assert eng.cache_size == 0


def reference_value(diagram) -> LocalizedPoly:
    """The LocalizedPoly-valued recursion the engine's (N, c) pairs replaced,
    uncached, with poke reduction: the reference for the numerators."""
    parts = diagram.connected_parts()
    value = X ** (diagram.free_loops + len(parts) - 1)
    for part in parts:
        value = value * _reference_connected(part)
    return value


def _reference_connected(part) -> LocalizedPoly:
    reduced, kink_sum = part.reduce()
    if reduced.crossing_count < part.crossing_count:
        return r_pow(kink_sum) * reference_value(reduced)
    walk = part.traverse()
    if walk.switch_candidate is None:
        return r_pow(walk.writhe) * X ** (walk.components - 1)
    switched, par, cap = part.resolve(walk.switch_candidate)
    state = 1 if part.crossings[walk.switch_candidate] == 1 else -1
    correction = DELTA * (reference_value(par) - reference_value(cap))
    return reference_value(switched) + state * correction


class TestNumerators:
    @given(small_words(max_strands=4, max_len=7))
    @settings(max_examples=25, deadline=None)
    def test_matches_localized_reference(self, w):
        # the closure and every child of resolving each of its crossings
        d = closure_diagram(w)
        diagrams = [d] + [child for cid in d.crossings
                          for child in d.resolve(cid)]
        for diagram in diagrams:
            assert (SkeinEngine().regular_isotopy_poly(diagram)
                    == reference_value(diagram))

    def test_no_division_per_evaluation(self, monkeypatch):
        # engine values are born in lowest terms (skein module docstring):
        # neither a node nor the evaluation calls the normalizing constructor
        built = []
        init = LocalizedPoly.__init__

        def counting_init(self, *args, **kwargs):
            built.append(1)
            init(self, *args, **kwargs)

        monkeypatch.setattr(LocalizedPoly, "__init__", counting_init)
        SkeinEngine().kauffman_polynomial(parse_braid("B4: 1 2 3 1 2 3"))
        assert len(built) == 0

    def test_cache_holds_numerator_pairs(self):
        eng = SkeinEngine()
        eng.kauffman_polynomial(parse_braid("B3: 1 1 2 2"))
        assert eng.cache_size > 0
        for num, c in eng._cache.values():
            assert type(num) is LaurentPoly2 and type(c) is int and c >= 1


def reference_delta_power(e: int) -> LaurentPoly2:
    out = ONE2
    for _ in range(e):
        out = reference_mul(out, DELTA)
    return out


class TestSkeinStep:
    """``_skein_step`` sums s-shifted copies of the smoothings' numerators
    into one dict: it must equal the step built from products."""

    @given(polys2(), polys2(), polys2(), st.integers(0, 2), st.integers(0, 2),
           st.sampled_from((1, -1)), st.booleans())
    @settings(max_examples=100)
    def test_matches_reference(self, sw, par, cap, e_par, e_cap, state, cancel):
        if cancel:  # the smoothing terms cancel, leaving sw
            cap, e_cap = par, e_par
        expected = sw + state * (reference_mul(par, reference_delta_power(e_par))
                                 - reference_mul(cap, reference_delta_power(e_cap)))
        step = _skein_step(sw, state, par, e_par, cap, e_cap)
        assert step == expected
        assert 0 not in step._terms.values()
        if cancel:
            assert step == sw

    def test_cancels_to_zero(self):
        for e in range(3):
            assert _skein_step(LaurentPoly2(), 1, X_NUM, e, X_NUM, e).is_zero

    @pytest.mark.parametrize("e", [3, -1])
    def test_exponent_outside_range(self, e):
        with pytest.raises(ValueError):
            _skein_step(ONE2, 1, ONE2, e, ONE2, 0)
        with pytest.raises(ValueError):
            _skein_step(ONE2, 1, ONE2, 0, ONE2, e)
        step, one = skein._q_ring(Specialization.so(1)).step, ONE1
        with pytest.raises(ValueError):
            step(one, 1, one, e, one, 0)
        with pytest.raises(ValueError):
            step(one, 1, one, 0, one, e)

    def test_no_general_product(self, monkeypatch):
        # every product left in the recursion has a one-term operand, and
        # no part or leaf builds X_NUM**0
        general, x_num_zero = [], []
        mul, power = LaurentPoly2.__mul__, LaurentPoly2.__pow__

        def counting_mul(self, other):
            if type(other) is LaurentPoly2 and len(self) > 1 and len(other) > 1:
                general.append((self, other))
            return mul(self, other)

        def counting_pow(self, n):
            if n == 0 and self == X_NUM:
                x_num_zero.append(self)
            return power(self, n)

        monkeypatch.setattr(LaurentPoly2, "__mul__", counting_mul)
        monkeypatch.setattr(LaurentPoly2, "__pow__", counting_pow)
        value = SkeinEngine().kauffman_polynomial(parse_braid("B2: 1^12"))
        monkeypatch.undo()
        assert general == [] and x_num_zero == []
        assert value == torus2_invariant(12)


class TestPokeReduction:
    def test_cancelling_pair_reduces(self):
        d = closure_diagram(parse_braid("B2: 1 -1"))
        poked, kinks = d.reduce()
        assert kinks == 0
        assert poked.crossing_count == 0 and poked.free_loops == 2

    def test_hopf_does_not_reduce(self):
        d = closure_diagram(parse_braid("B2: 1 1"))
        assert d.reduce() == (d, 0)

    def test_on_by_default(self):
        assert SkeinEngine()._poke is True

    @given(small_words(max_strands=4, max_len=7))
    @settings(max_examples=25, deadline=None)
    def test_value_preserving(self, w):
        # on the unreduced closure, so cancelling pairs reach reduce
        d = closure_diagram(w)
        plain = SkeinEngine(use_poke_reduction=False)
        reducing = SkeinEngine(use_poke_reduction=True)
        assert plain.regular_isotopy_poly(d) == reducing.regular_isotopy_poly(d)


class TestReduction:
    """Each ``_value`` reduces its diagram once and multiplies in r to the
    kink sum; the parts it splits off are not reduced again."""

    def test_one_reduction_per_value(self, monkeypatch):
        calls = {"reduce": 0, "connected_parts": 0}
        for name in calls:
            def counted(self, *args, _name=name,
                        _original=getattr(PlanarDiagram, name), **kwargs):
                calls[_name] += 1
                return _original(self, *args, **kwargs)
            monkeypatch.setattr(PlanarDiagram, name, counted)
        SkeinEngine().kauffman_polynomial(parse_braid("B4: 1 2 3 1 2 3"))
        assert calls["reduce"] == calls["connected_parts"] > 1

    @given(small_words(max_strands=4, max_len=7))
    @settings(max_examples=25, deadline=None)
    def test_kink_sum_is_the_power_of_r(self, w):
        # the closure and every child of resolving each of its crossings
        plain = SkeinEngine(use_poke_reduction=False)
        d = closure_diagram(w)
        for diagram in [d] + [child for cid in d.crossings
                              for child in d.resolve(cid)]:
            reduced, k = diagram.reduce()
            assert (plain.regular_isotopy_poly(diagram)
                    == r_pow(k) * plain.regular_isotopy_poly(reduced))


class TestSpecializedInvariants:
    def test_unknot(self):
        from bwmlink.skein import osp_invariant, so_invariant
        for n in (1, 2):
            assert osp_invariant(parse_braid("B2: 1"), n) == 1
            assert so_invariant(parse_braid("B2: 1"), n) == 1

    def test_two_unlink(self):
        from bwmlink.laurent import quantum_dimension
        from bwmlink.skein import osp_invariant
        assert osp_invariant(parse_braid("B2:"), 1) == quantum_dimension(1)

    def test_corpus_specializations_agree(self):
        # the paper's corollary beyond T(2, m): osp(1|2n) and so(2n+1) give
        # the same invariant on the Markov and braid-relation corpora
        from bwmlink.cli import BRAID_RELATION_CORPUS, MARKOV_CORPUS
        from bwmlink.skein import osp_invariant, so_invariant
        engine = SkeinEngine()
        for text in MARKOV_CORPUS + BRAID_RELATION_CORPUS:
            b = parse_braid(text)
            for n in (1, 2, 3):
                assert (osp_invariant(b, n, engine)
                        == so_invariant(b, n, engine)), (text, n)

    def test_torus_family_specializations_agree(self):
        from bwmlink.laurent import Specialization, one_var_equal, specialize
        for m in range(-4, 7):
            value = torus2_invariant(m)
            for n in (1, 2):
                a = specialize(value, Specialization.osp(n))
                b = specialize(value, Specialization.so(n))
                assert one_var_equal(a, b), (m, n)

    @pytest.mark.parametrize("sign_r, sign_s", [(1, 1), (1, -1), (-1, 1),
                                                (-1, -1)])
    @given(word=small_words(max_strands=4, max_len=8))
    @settings(max_examples=75, deadline=None)
    def test_specialized_values_are_polynomials(self, sign_r, sign_s, word):
        # the skein module docstring proves every value lies in
        # Z[r^+-1, s^+-1][x], and x specializes into Z[q^+-1]
        value = kauffman_polynomial(word)
        for n in (1, 2, 3):
            spec = Specialization(sign_r, sign_s, n)
            assert type(specialize(value, spec)) is LaurentPoly1, (word, n)


RING_SPECS = ([Specialization.osp(n) for n in (1, 2, 3)]
              + [Specialization.so(n) for n in (1, 2, 3)])


def ring_words() -> list[BraidWord]:
    """The torus corpus, negative m first so that positive m is answered
    through mirrored entries, then the CLI's Markov and braid-relation
    words."""
    from bwmlink.cli import BRAID_RELATION_CORPUS, MARKOV_CORPUS
    return torus_corpus(True) + [parse_braid(text) for text in
                                 MARKOV_CORPUS + BRAID_RELATION_CORPUS]


def ring_agrees(spec: Specialization, words) -> bool:
    """Whether one engine in Z[q^+-1], shared across ``words``, gives the
    specialized two-variable value of each: the specialize-after oracle."""
    ring = SkeinEngine(spec=spec)
    return all(ring.kauffman_polynomial(w)
               == specialize(SkeinEngine().kauffman_polynomial(w), spec)
               for w in words)


def ring_memo_holds(spec: Specialization, words) -> bool:
    """Whether an engine in Z[q^+-1] and a two-variable engine fed the same
    words hold the same memo keys, each ring entry the image of the
    two-variable (N, c)."""
    ring, plain = SkeinEngine(spec=spec), SkeinEngine()
    for w in words:
        ring.kauffman_polynomial(w)
        plain.kauffman_polynomial(w)
    return (ring._cache.keys() == plain._cache.keys()
            and all(ring._cache[key] == (specialize(num, spec), c)
                    for key, (num, c) in plain._cache.items()))


@pytest.fixture
def fresh_rings():
    """Rings built inside the test, so a patched ``_QRing`` takes effect and
    none of its rings outlives the test."""
    skein._q_ring.cache_clear()
    yield
    skein._q_ring.cache_clear()


class TestRingEngine:
    """An engine built with a ``Specialization`` evaluates every numerator
    in Z[q^+-1]; ``specialize`` of the two-variable value is its oracle."""

    @pytest.mark.parametrize("spec", RING_SPECS, ids=Specialization.label)
    @given(word=small_words(max_strands=5, max_len=9))
    @settings(max_examples=40, deadline=None)
    def test_words(self, spec, word):
        value = SkeinEngine(spec=spec).kauffman_polynomial(word)
        assert type(value) is LaurentPoly1
        assert value == specialize(kauffman_polynomial(word), spec)

    @pytest.mark.parametrize("spec", RING_SPECS, ids=Specialization.label)
    def test_torus_closures(self, spec):
        ring = SkeinEngine(spec=spec)
        for m in range(-60, 61):
            word = BraidWord(2, ((1, 1 if m > 0 else -1),) * abs(m))
            assert (ring.kauffman_polynomial(word)
                    == specialize(torus2_invariant(m), spec)), m

    @pytest.mark.parametrize("spec", [Specialization.osp(1),
                                      Specialization.so(2)],
                             ids=Specialization.label)
    def test_memo_corpus(self, spec):
        assert ring_memo_holds(spec, ring_words())

    @given(st.lists(small_words(max_strands=5, max_len=9), min_size=1,
                    max_size=4), st.sampled_from(RING_SPECS))
    @settings(max_examples=30, deadline=None)
    def test_memo_words(self, words, spec):
        assert ring_memo_holds(spec, words)

    def test_one_ring_per_spec(self, fresh_rings):
        assert (SkeinEngine(spec=Specialization.so(2))._ring
                is SkeinEngine(spec=Specialization.so(2))._ring)
        assert (SkeinEngine(spec=Specialization.so(2))._ring
                is not SkeinEngine(spec=Specialization.osp(2))._ring)

    def test_inexact_division_raises(self):
        # 1 / (s - s^-1) is no engine value
        divide = skein._q_ring(Specialization.osp(1)).divide
        with pytest.raises(ValueError, match="does not divide"):
            divide(ONE1, 1)
        assert divide(LaurentPoly1(), 3).is_zero
        assert divide(ONE1, 0) == ONE1

    @pytest.mark.parametrize("method, old, new, spec", [
        # eta dropped on the odd q-shifts of delta^e: visible where eta = -1
        ("__init__", "(k, m * self.eta if k % 2 else m)", "(k, m)",
         Specialization.so(1)),
        # eps^k dropped on odd r-powers: visible where eps = -1
        ("r_pow", "self.eps if k % 2 else 1", "1", Specialization.osp(1)),
        # the mirror's (-1)^(c-1) dropped
        ("mirror", "sign = 1 if c % 2 else -1", "sign = 1",
         Specialization.osp(2)),
        # eps^shift of the pending r-power dropped from the mirror
        ("mirror", "sign *= self.eps", "pass", Specialization.osp(1)),
    ], ids=["step-eta", "r-pow-eps", "mirror-sign", "mirror-eps"])
    def test_mutants_fail(self, monkeypatch, fresh_rings, method, old, new,
                          spec):
        words = ring_words()
        assert ring_agrees(spec, words)
        mutant = skein_copy(getattr(skein._QRing, method), old, new)
        monkeypatch.setattr(skein._QRing, method, mutant)
        skein._q_ring.cache_clear()
        assert not ring_agrees(spec, words)
