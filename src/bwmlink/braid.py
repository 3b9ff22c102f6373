"""Braid words, their combinatorial statistics and closure diagrams.

Words are stored fully expanded: every letter is a generator index together
with an exponent of +1 or -1.  Powers in the input grammar are a parser
convenience only.
"""

from __future__ import annotations

import re
from collections.abc import Iterator

from .diagram import PlanarDiagram
from .record import Record, init_field


class BraidParseError(ValueError):
    """Malformed braid text; carries the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class BraidWord(Record):
    """A braid on ``strands`` strands with letters (index, +-1)."""

    _fields = ("strands", "letters")

    def __init__(self, strands: int,
                 letters: tuple[tuple[int, int], ...] = ()):
        if strands < 1:
            raise ValueError("strand count must be at least 1")
        for i, e in letters:
            if not 1 <= i <= strands - 1:
                raise ValueError(f"generator index {i} out of range 1..{strands - 1}")
            if e not in (1, -1):
                raise ValueError("letter exponents must be +1 or -1")
        init_field(self, "strands", strands)
        init_field(self, "letters", letters)

    def __len__(self) -> int:
        return len(self.letters)

    def word_text(self) -> str:
        body = " ".join(str(i * e) for i, e in self.letters)
        return f"B{self.strands}:" + (" " + body if body else "")

    def __str__(self) -> str:
        return self.word_text()


MAX_LETTERS = 10_000  # cap on the expanded word length, checked before expansion
MAX_DIGITS = 18  # cap on the digits of any number, checked before int()
MAX_STRANDS = 64  # cap on the strand count: free loops cost x^(loops - 1)

_HEADER = re.compile(r"\s*[Bb](\d+)\s*:")
_TOKEN = re.compile(r"([+-]?\d+)(?:\^([+-]?\d+))?$")
_SEPARATED = re.compile(r"[^\s,]+")  # a letter between separators


def _number(text: str, where: int) -> int:
    """``int(text)``, rejecting a number of more than ``MAX_DIGITS`` digits
    before conversion."""
    if len(text.lstrip("+-")) > MAX_DIGITS:
        raise BraidParseError(f"number longer than {MAX_DIGITS} digits", where)
    return int(text)


def parse_braid(text: str) -> BraidWord:
    """Parse ``B<f>: <letter> ...`` where a letter is a nonzero signed integer
    (the generator index, sign giving the exponent) with an optional ``^m``
    power suffix.  Separators are whitespace or commas.  A word whose
    expansion would exceed ``MAX_LETTERS`` letters, a number of more than
    ``MAX_DIGITS`` digits, or a strand count over ``MAX_STRANDS``, is
    rejected unexpanded.
    """
    m = _HEADER.match(text)
    if not m:
        raise BraidParseError("expected 'B<f>:' prefix", 0)
    strands = _number(m.group(1), m.start(1))
    if strands < 1:
        raise BraidParseError("strand count must be at least 1", m.start(1))
    if strands > MAX_STRANDS:
        raise BraidParseError(
            f"strand count {strands} over cap {MAX_STRANDS}", m.start(1))
    letters: list[tuple[int, int]] = []
    for token_match in _SEPARATED.finditer(text, m.end()):
        token = token_match.group()
        where = token_match.start()
        tm = _TOKEN.match(token)
        if not tm:
            raise BraidParseError(f"malformed letter {token!r}", where)
        base = _number(tm.group(1), where)
        if base == 0:
            raise BraidParseError("generator index 0 is not valid", where)
        power = _number(tm.group(2), where) if tm.group(2) else 1
        index = abs(base)
        if index > strands - 1:
            raise BraidParseError(
                f"generator index {index} out of range 1..{strands - 1}", where)
        sign = (1 if base > 0 else -1) * (1 if power >= 0 else -1)
        if len(letters) + abs(power) > MAX_LETTERS:
            raise BraidParseError(
                f"word longer than {MAX_LETTERS} letters", where)
        letters += [(index, sign)] * abs(power)
    return BraidWord(strands, tuple(letters))


def exponent_sum(b: BraidWord) -> int:
    """Sum of letter exponents."""
    return sum(e for _, e in b.letters)


def closure_permutation(b: BraidWord) -> tuple[int, ...]:
    """Image list of the underlying permutation: position p at the bottom
    arrives at image[p-1] at the top.  Product of the transpositions
    (i, i+1) in word order."""
    image = list(range(1, b.strands + 1))
    current = list(range(1, b.strands + 1))  # slot -> strand start
    for i, _ in b.letters:
        current[i - 1], current[i] = current[i], current[i - 1]
    for slot, strand in enumerate(current, start=1):
        image[strand - 1] = slot
    return tuple(image)


def component_count(b: BraidWord) -> int:
    """Number of components of the canonical closure (cycles of the
    closure permutation)."""
    image = closure_permutation(b)
    seen = [False] * b.strands
    cycles = 0
    for start in range(b.strands):
        if seen[start]:
            continue
        cycles += 1
        p = start
        while not seen[p]:
            seen[p] = True
            p = image[p] - 1
    return cycles


def free_reduce(b: BraidWord) -> BraidWord:
    """Cancel adjacent inverse pairs with equal index until none remain."""
    stack: list[tuple[int, int]] = []
    for letter in b.letters:
        if stack and stack[-1][0] == letter[0] and stack[-1][1] == -letter[1]:
            stack.pop()
        else:
            stack.append(letter)
    return BraidWord(b.strands, tuple(stack))


def conjugate(b: BraidWord, a: BraidWord) -> BraidWord:
    """The word a b a^-1 on the same strand count."""
    if a.strands != b.strands:
        raise ValueError("conjugation requires equal strand counts")
    inverse = tuple((i, -e) for i, e in reversed(a.letters))
    return BraidWord(b.strands, a.letters + b.letters + inverse)


def stabilize(b: BraidWord, sign: int = 1) -> BraidWord:
    """Embed into one more strand and append the last generator."""
    if sign not in (1, -1):
        raise ValueError("stabilization sign must be +1 or -1")
    return BraidWord(b.strands + 1, b.letters + ((b.strands, sign),))


def isotopy_moves(b: BraidWord) -> Iterator[tuple[str, BraidWord]]:
    """Words one move away from b whose closures are isotopic to b's,
    each tagged with its kind:

    * ``"conjugate"``: b conjugated by each generator to the power +-1;
    * ``"stabilize"``: b on one more strand with its last generator to the
      power +-1 appended;
    * ``"relation"``: each factor g_i g_(i+1) g_i of positive letters
      rewritten to g_(i+1) g_i g_(i+1).
    """
    for g in range(1, b.strands):
        for sign in (1, -1):
            mover = BraidWord(b.strands, ((g, sign),))
            yield "conjugate", conjugate(b, mover)
    for sign in (1, -1):
        yield "stabilize", stabilize(b, sign)
    letters = b.letters
    for p in range(len(letters) - 2):
        (i1, e1), (i2, e2), (i3, e3) = letters[p:p + 3]
        if i1 == i3 and i2 == i1 + 1 and e1 == e2 == e3 == 1:
            swapped = letters[:p] + ((i2, 1), (i1, 1), (i2, 1)) + letters[p + 3:]
            yield "relation", BraidWord(b.strands, swapped)


def closure_diagram(b: BraidWord) -> PlanarDiagram:
    """Planar diagram of the canonical closure.

    One crossing per letter, numbered in word order, with slots 0..3
    (bottom-left, bottom-right, top-right, top-left).  Strands are wired
    bottom to top through the braid and then around the closure; positions
    never entered by a letter close into free loops.
    """
    crossings: dict[int, int] = {}
    arcs: dict[int, int] = {}
    current: dict[int, int] = {}  # position -> open half-edge at the top
    lowest: dict[int, int] = {}  # position -> half-edge awaiting the closure arc
    for cid, (i, e) in enumerate(b.letters):
        h_bl, h_br, h_tr, h_tl = range(4 * cid, 4 * cid + 4)
        crossings[cid] = 1 if e > 0 else 0
        for pos, bottom in ((i, h_bl), (i + 1, h_br)):
            top = current.get(pos)
            if top is None:
                lowest[pos] = bottom
            else:
                arcs[top] = bottom
                arcs[bottom] = top
        current[i], current[i + 1] = h_tl, h_tr
    for pos, top in current.items():
        bottom = lowest[pos]
        arcs[top] = bottom
        arcs[bottom] = top
    return PlanarDiagram(crossings, arcs, b.strands - len(current))
