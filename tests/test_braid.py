import re
from collections import Counter

import pytest
from hypothesis import example, given, settings, strategies as st

from bwmlink.braid import (BraidParseError, BraidWord, closure_diagram,
                           closure_permutation, component_count, conjugate,
                           exponent_sum, free_reduce, isotopy_moves,
                           parse_braid, stabilize)
from bwmlink.diagram import PlanarDiagram


@st.composite
def braid_words(draw, max_strands=4, max_len=8):
    f = draw(st.integers(1, max_strands))
    if f == 1:
        return BraidWord(1, ())
    n = draw(st.integers(0, max_len))
    letters = tuple(
        (draw(st.integers(1, f - 1)), draw(st.sampled_from((1, -1))))
        for _ in range(n))
    return BraidWord(f, letters)


class TestParse:
    def test_plain_word(self):
        w = parse_braid("B2: 1 1 1")
        assert w.strands == 2
        assert w.letters == ((1, 1), (1, 1), (1, 1))

    def test_signs(self):
        assert parse_braid("B3: 1 -2").letters == ((1, 1), (2, -1))

    def test_power_expansion(self):
        assert parse_braid("B2: 1^3") == parse_braid("B2: 1 1 1")
        assert parse_braid("B2: 1^-2").letters == ((1, -1), (1, -1))
        assert parse_braid("B2: -1^2").letters == ((1, -1), (1, -1))
        assert parse_braid("B2: 1^0").letters == ()

    def test_commas(self):
        assert parse_braid("B3: 1, -2,1") == parse_braid("B3: 1 -2 1")

    def test_identity_needs_prefix(self):
        assert parse_braid("B5:") == BraidWord(5, ())

    def test_index_out_of_range(self):
        with pytest.raises(BraidParseError):
            parse_braid("B2: 3")

    def test_index_zero(self):
        with pytest.raises(BraidParseError):
            parse_braid("B2: 0")

    def test_missing_prefix(self):
        with pytest.raises(BraidParseError):
            parse_braid("1 2 3")

    def test_malformed_token(self):
        with pytest.raises(BraidParseError) as err:
            parse_braid("B3: 1 x")
        assert err.value.position == 6

    def test_expanded_length_cap(self, monkeypatch):
        import bwmlink.braid as braid
        monkeypatch.setattr(braid, "MAX_LETTERS", 5)
        assert len(parse_braid("B2: 1^3 -1^2")) == 5
        with pytest.raises(BraidParseError) as err:
            parse_braid("B2: 1^3 -1^3")
        assert err.value.position == 8

    def test_digit_cap(self, monkeypatch):
        import bwmlink.braid as braid
        monkeypatch.setattr(braid, "MAX_DIGITS", 3)
        assert len(parse_braid("B3: 2^100")) == 100
        for text, position in (("B1000:", 1), ("B3: 1000", 4),
                               ("B3: 1 -2^1000", 6)):
            with pytest.raises(BraidParseError) as err:
                parse_braid(text)
            assert err.value.position == position
            assert "digits" in str(err.value)

    def test_strand_cap(self, monkeypatch):
        import bwmlink.braid as braid
        monkeypatch.setattr(braid, "MAX_STRANDS", 4)
        assert parse_braid("B4: 3").strands == 4
        for text, position in (("B5:", 1), ("  b12: 1", 3)):
            with pytest.raises(BraidParseError) as err:
                parse_braid(text)
            assert err.value.position == position
            assert "strand count" in str(err.value)

    def test_numbers_past_int_conversion_limit(self):
        # longer than the interpreter's 4300-digit int() limit
        nines = "9" * 5000
        for text in (f"B{nines}: 1", f"B2: {nines}", f"B2: 1^{nines}",
                     f"B2: 1^-{nines}"):
            with pytest.raises(BraidParseError):
                parse_braid(text)

    def test_strand_count_zero(self):
        with pytest.raises(BraidParseError):
            parse_braid("B0:")


def reference_parse(text: str) -> BraidWord:
    """``parse_braid`` as it was before its separator regex was compiled
    once and powers were expanded by list repetition: the oracle for the
    trimmed parser."""
    import bwmlink.braid as braid
    m = braid._HEADER.match(text)
    if not m:
        raise BraidParseError("expected 'B<f>:' prefix", 0)
    strands = braid._number(m.group(1), m.start(1))
    if strands < 1:
        raise BraidParseError("strand count must be at least 1", m.start(1))
    if strands > braid.MAX_STRANDS:
        raise BraidParseError(
            f"strand count {strands} over cap {braid.MAX_STRANDS}", m.start(1))
    letters: list[tuple[int, int]] = []
    pos = m.end()
    rest = text[pos:]
    for token_match in re.finditer(r"[^\s,]+", rest):
        token = token_match.group()
        where = pos + token_match.start()
        tm = braid._TOKEN.match(token)
        if not tm:
            raise BraidParseError(f"malformed letter {token!r}", where)
        base = braid._number(tm.group(1), where)
        if base == 0:
            raise BraidParseError("generator index 0 is not valid", where)
        power = braid._number(tm.group(2), where) if tm.group(2) else 1
        index = abs(base)
        if index > strands - 1:
            raise BraidParseError(
                f"generator index {index} out of range 1..{strands - 1}", where)
        sign = (1 if base > 0 else -1) * (1 if power >= 0 else -1)
        if len(letters) + abs(power) > braid.MAX_LETTERS:
            raise BraidParseError(
                f"word longer than {braid.MAX_LETTERS} letters", where)
        letters.extend((index, sign) for _ in range(abs(power)))
    return BraidWord(strands, tuple(letters))


def parse_outcome(parse, text: str):
    """The word, or the message and position of the parse error."""
    try:
        return parse(text)
    except BraidParseError as err:
        return str(err), err.position


# letters with powers, ^0 and ^-k; malformed tokens; numbers over the
# digit cap; powers over the letter cap
TOKENS = st.one_of(
    st.builds("{}{}".format, st.sampled_from(["", "-", "+"]),
              st.integers(0, 6)),
    st.builds("{}{}^{}{}".format, st.sampled_from(["", "-"]),
              st.integers(0, 6), st.sampled_from(["", "-", "+"]),
              st.integers(0, 12)),
    st.sampled_from(["x", "1^", "^2", "1^2^3", "--1", "1.5", "1^x", "B2:",
                     "9" * 19, "1^" + "9" * 19, "-1^-" + "9" * 19,
                     "1^10001", "1^-5000", "2^9999"]),
)
SEPARATORS = st.sampled_from([" ", ",", ", ", " ,", "\t", "  ", ",,", "\n"])
HEADERS = st.sampled_from(["B1:", "B2:", "B3:", "b4 :", "  B5:", "B0:",
                           "B65:", "B64:", "X3:", "B3", "B" + "9" * 19 + ":"])


@st.composite
def braid_texts(draw):
    tokens = draw(st.lists(TOKENS, max_size=8))
    text = draw(HEADERS)
    for token in tokens:
        text += draw(SEPARATORS) + token
    return text + draw(st.sampled_from(["", " ", ","]))


class TestTrimmedParser:
    """The compiled separator and the repeated-list expansion change no
    word, message or position."""

    @given(braid_texts())
    @example("B2: 1^3 -1^-2, 1^0,,-1")
    @example("B3: 1 x")
    @settings(max_examples=300, deadline=None)
    def test_matches_reference(self, text):
        assert parse_outcome(parse_braid, text) == parse_outcome(
            reference_parse, text)

    def test_expansion_cap_position(self):
        # the capped token is the third one, at position 18
        outcome = parse_outcome(parse_braid, "B2: 1^5000 1^5000 1^1")
        assert outcome == ("word longer than 10000 letters (at position 18)",
                           18)
        assert outcome == parse_outcome(reference_parse, "B2: 1^5000 1^5000 1^1")


class TestStatistics:
    def test_exponent_sum_cubed(self):
        assert exponent_sum(parse_braid("B2: 1^3")) == 3

    def test_exponent_sum_identity(self):
        assert exponent_sum(parse_braid("B5:")) == 0

    def test_exponent_sum_mixed(self):
        assert exponent_sum(parse_braid("B3: 1 -2")) == 0

    def test_components_identity(self):
        assert component_count(parse_braid("B2:")) == 2

    def test_components_unknot(self):
        assert component_count(parse_braid("B2: 1")) == 1

    def test_components_two_strand_even(self):
        assert component_count(parse_braid("B2: 1 1")) == 2
        assert closure_permutation(parse_braid("B2: 1 1")) == (1, 2)

    def test_permutation_is_bijection(self):
        image = closure_permutation(parse_braid("B4: 1 2 3"))
        assert sorted(image) == [1, 2, 3, 4]


class TestWordOps:
    def test_free_reduce_pair(self):
        assert free_reduce(parse_braid("B2: 1 -1")) == parse_braid("B2:")

    def test_free_reduce_inner(self):
        assert free_reduce(parse_braid("B3: 1 2 -2 1")) == parse_braid("B3: 1 1")

    def test_free_reduce_no_adjacent(self):
        w = parse_braid("B3: 1 2 -1")
        assert free_reduce(w) == w

    def test_conjugate_reduces_back(self):
        w = parse_braid("B2: 1 1 1")
        a = parse_braid("B2: 1")
        assert free_reduce(conjugate(w, a)) == w

    def test_stabilize(self):
        assert stabilize(parse_braid("B2: 1"), 1) == parse_braid("B3: 1 2")
        assert stabilize(parse_braid("B1:"), 1) == parse_braid("B2: 1")
        assert stabilize(parse_braid("B1:"), -1) == parse_braid("B2: -1")

    @given(braid_words(), braid_words())
    @settings(max_examples=60)
    def test_component_count_invariance(self, w, a):
        a = BraidWord(w.strands, tuple(
            (min(i, max(w.strands - 1, 1)), e) for i, e in a.letters
            if i <= w.strands - 1))
        assert component_count(conjugate(w, a)) == component_count(w)
        assert component_count(stabilize(w, 1)) == component_count(w)
        assert component_count(stabilize(w, -1)) == component_count(w)

    @given(braid_words())
    @settings(max_examples=60)
    def test_free_reduce_preserves_exponent_sum(self, w):
        assert exponent_sum(free_reduce(w)) == exponent_sum(w)


class TestIsotopyMoves:
    def test_move_counts(self):
        # 2 generators x 2 signs, 2 stabilizations, and the factors 1 2 1 at
        # positions 0 and 2 (2 1 2 at 1 and 3 is not g_i g_(i+1) g_i)
        word = parse_braid("B3: 1 2 1 2 1 2")
        kinds = Counter(kind for kind, _ in isotopy_moves(word))
        assert kinds == {"conjugate": 4, "stabilize": 2, "relation": 2}

    def test_moves(self):
        moves = list(isotopy_moves(parse_braid("B3: 1 2 1 -2")))
        assert [(kind, w.word_text()) for kind, w in moves] == [
            ("conjugate", "B3: 1 1 2 1 -2 -1"),
            ("conjugate", "B3: -1 1 2 1 -2 1"),
            ("conjugate", "B3: 2 1 2 1 -2 -2"),
            ("conjugate", "B3: -2 1 2 1 -2 2"),
            ("stabilize", "B4: 1 2 1 -2 3"),
            ("stabilize", "B4: 1 2 1 -2 -3"),
            ("relation", "B3: 2 1 2 -2"),
        ]

    def test_negative_factor_not_rewritten(self):
        word = parse_braid("B3: -1 -2 -1")
        kinds = Counter(kind for kind, _ in isotopy_moves(word))
        assert kinds["relation"] == 0 and kinds["conjugate"] == 4


def reference_closure(b: BraidWord) -> PlanarDiagram:
    """The closure builder that collected a list of arc pairs and then
    wrote both directions of each pair into a fresh arc dict: the reference
    for ``closure_diagram``, which writes them as it goes."""
    crossings: dict[int, int] = {}
    arc_pairs: list[tuple[int, int]] = []
    current: dict[int, int] = {}
    lowest: dict[int, int] = {}
    for cid, (i, e) in enumerate(b.letters):
        h_bl, h_br, h_tr, h_tl = range(4 * cid, 4 * cid + 4)
        crossings[cid] = 1 if e > 0 else 0
        for pos, bottom in ((i, h_bl), (i + 1, h_br)):
            if pos in current:
                arc_pairs.append((current[pos], bottom))
            else:
                lowest[pos] = bottom
        current[i], current[i + 1] = h_tl, h_tr
    free_loops = b.strands - len(current)
    for pos, top in current.items():
        arc_pairs.append((top, lowest[pos]))
    arcs: dict[int, int] = {}
    for a, b_ in arc_pairs:
        arcs[a] = b_
        arcs[b_] = a
    return PlanarDiagram(dict(crossings), arcs, free_loops)


class TestClosureDiagram:
    @given(braid_words(max_strands=5))
    @example(BraidWord(1, ()))
    @example(BraidWord(4, ()))
    @example(BraidWord(5, ((2, 1), (2, -1))))
    @example(BraidWord(5, ((4, -1), (1, 1), (4, -1))))
    @settings(max_examples=80)
    def test_matches_pair_list_builder(self, w):
        d, ref = closure_diagram(w), reference_closure(w)
        assert d == ref
        # the same insertion order, so every walk over the dicts is the same
        assert list(d.arcs.items()) == list(ref.arcs.items())
        assert list(d.crossings.items()) == list(ref.crossings.items())
        d.validate()

    def test_identity_braid(self):
        d = closure_diagram(parse_braid("B3:"))
        assert d.crossing_count == 0 and d.free_loops == 3

    def test_single_crossing(self):
        d = closure_diagram(parse_braid("B2: 1"))
        assert d.crossing_count == 1 and d.free_loops == 0
        d.validate()

    def test_trefoil_wiring(self):
        d = closure_diagram(parse_braid("B2: 1^3"))
        assert d.crossing_count == 3 and d.free_loops == 0
        d.validate()
        walk = d.traverse()
        assert walk.components == 1

    def test_untouched_strand_is_loop(self):
        d = closure_diagram(parse_braid("B4: 1"))
        assert d.crossing_count == 1 and d.free_loops == 2

    @given(braid_words())
    @settings(max_examples=60)
    def test_wiring_invariants(self, w):
        d = closure_diagram(w)
        d.validate()
        assert d.crossing_count == len(w)
        touched = {p for i, _ in w.letters for p in (i, i + 1)}
        assert d.free_loops == w.strands - len(touched)
        walk = d.traverse()
        assert walk.components + d.free_loops == component_count(w)
