"""Exact Laurent-polynomial arithmetic in the variables r, s (and q after
specialization).

Four value types:

* ``LaurentPoly2``  -- integer-coefficient Laurent polynomial in r and s.
* ``LaurentPoly1``  -- integer-coefficient Laurent polynomial in q, the
  target of the specializations r -> +-q^(2n), s -> +-q.
* ``LocalizedPoly`` -- a ``LaurentPoly2`` divided by a power of (s - s^-1),
  kept in normalized form: the skein engine's results and the loop
  constant x.  The engine's (N, c - 1) pairs are normal by the theorem in
  the ``skein`` docstring and are wrapped with ``_normal``; sums,
  products, JSON input and the torus closed forms go through the
  normalizing constructor.
* ``Quotient``      -- num / den of two Laurent polynomials in the same
  variables, never reduced and compared by cross-multiplication: the
  trace weights.  ``RationalFn2`` and ``QFraction`` are other names for it.

Keys.  Both polynomial classes map an int key to a nonzero coefficient.
``LaurentPoly1`` keys q^e by e.  ``LaurentPoly2`` keys r^a s^b by
k = a M + b, with M = ``KEY_M`` = 2^20 + 1 and |b| <= H = (M - 1) / 2,
and decodes the balanced b = (k + H) mod M - H.  Keys are the images of
r -> t^M, s -> t, a ring homomorphism into Z[t^+-1], one to one on terms
with |b| <= H: an r-shift adds M, an s-shift 1, and the mirror with r^j,
(a, b) -> (j - a, -b), is k -> j M - k.  As |b| < M / 2, sorted keys are
sorted (a, b) pairs, which ``terms()``, text and JSON follow.  M is odd,
so k = a + b (mod 2): ``flip_vars`` and ``parities`` read k & 1.

Range.  The constructor and ``term`` raise ValueError for |b| > H = 2^19;
arithmetic does not check, and every value the caps allow stays far
below.  An engine numerator with cr crossings and c components has
|b| <= cr + c - 1: a leaf r^w X_NUM^(c-1) has |b| <= c - 1, a skein step
lifts a smoothing, one crossing fewer, by delta^(1 + c - c_smoothing),
kinks, pokes, splits and the mirror keep the bound, and cr + c never
grows down the recursion.  So |b| < 10 064 under the caps of ``braid``.
The torus closed form at m has |b| <= |m| + 1, and a trace weight to
depth 8 has |b| <= 36.  So M need be no larger, and every key with
|a| <= 2^9 stays below 2^30, where a CPython int has one digit.

One product kernel in ``_Laurent`` serves both classes, with a key shift
for a monomial operand.  One recurrence, ``_div_delta``, divides by
s - s^-1, column by column in r or once over a polynomial in q.
``NumeratorRing`` gives the skein engine one step, one mirror and one
r-power for both classes.  ``_long_div`` serves only ``exact_div``.

``sums_of_products_equal`` decides exactly whether two sums of products
of polynomials are equal without expanding them: it substitutes a power
of two above every coefficient the difference can have, builds each
product's Python int by adding or subtracting shifted copies (multiplying
only for a coefficient of size 2 or more), and compares.  The Bratteli
sum rule and the Lemma-2 weight check use it.

All values are immutable; every operation returns a fresh value.
"""

from __future__ import annotations

from collections.abc import Iterator, Mapping
from math import gcd, prod

from .record import Record, init_field

KEY_M = (1 << 20) + 1  # the key of r in a LaurentPoly2 (module docstring)
_HALF = KEY_M >> 1  # (M - 1) / 2, the largest |s-exponent| a key holds


def _pack(a: int, b: int) -> int:
    """The key a M + b of r^a s^b; ValueError when |b| > (M - 1) / 2."""
    if not -_HALF <= b <= _HALF:
        raise ValueError(f"s-exponent {b} outside the key range "
                         f"-{_HALF}..{_HALF}")
    return a * KEY_M + b


def _unpack(k: int) -> tuple[int, int]:
    """The pair (a, b) of the key k = a M + b, with b balanced."""
    b = (k + _HALF) % KEY_M - _HALF
    return (k - b) // KEY_M, b


def _power(base, n: int):
    """base ** n for n >= 1 by square-and-multiply; the first factor is
    taken as it is, not multiplied into a one."""
    out = None
    while n:
        if n & 1:
            out = base if out is None else out * base
        n >>= 1
        if n:
            base = base * base
    return out


# ---------------------------------------------------------------------------
# the sparse core shared by the polynomial classes


class _Laurent:
    """Sparse Laurent polynomial with integer coefficients.

    Terms are stored as a map int key -> coeff with no zero coefficients.
    Equality is term-map equality within one class; polynomials in
    different variables are never equal.  A subclass names its variables
    (``_NAMES``), decodes a key into exponents (``_exps``) and supplies
    ``exact_div``.
    """

    __slots__ = ("_terms",)
    _NAMES: tuple[str, ...] = ()

    def __init__(self, terms: Mapping | None = None):
        self._terms: dict = {k: c for k, c in terms.items() if c} if terms else {}

    @classmethod
    def _make(cls, terms: dict):
        """A value owning ``terms``, which must hold no zero coefficient."""
        out = cls.__new__(cls)
        out._terms = terms
        return out

    @classmethod
    def const(cls, n: int):
        return cls._make({0: n} if n else {})

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def terms(self) -> Iterator[tuple[int, ...]]:
        """Yield (exponents..., coeff) tuples in canonical ascending order."""
        exps = self._exps
        for k in sorted(self._terms):
            yield (*exps(k), self._terms[k])

    def to_lists(self) -> list[list[int]]:
        """The terms as lists [exponents..., coeff], for JSON output."""
        return [list(t) for t in self.terms()]

    def parities(self) -> set[int]:
        """The parities of the terms' total degrees, k & 1 of each key."""
        return {k & 1 for k in self._terms}

    def __len__(self) -> int:
        return len(self._terms)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, int):
            other = self.const(other)
        if type(other) is not type(self):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    def __add__(self, other):
        if isinstance(other, int):
            other = self.const(other)
        elif type(other) is not type(self):
            return NotImplemented
        out = dict(self._terms)
        for k, c in other._terms.items():
            n = out.get(k, 0) + c
            if n:
                out[k] = n
            else:
                del out[k]
        return self._make(out)

    __radd__ = __add__

    def __neg__(self):
        return self._make({k: -c for k, c in self._terms.items()})

    def __sub__(self, other):
        if isinstance(other, int):
            other = self.const(other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        """The one product kernel: a key shift for a monomial operand,
        scaled unless its coefficient is 1, else the double loop."""
        if type(other) is not type(self):
            if not isinstance(other, int):
                return NotImplemented
            return self._make({k: c * other for k, c in self._terms.items()}
                              if other else {})
        mono, poly = (self, other) if len(self._terms) == 1 else (other, self)
        if len(mono._terms) == 1:  # m t^j: shift every key by j
            ((j, m),) = mono._terms.items()
            items = poly._terms.items()
            if m == 1:
                return self._make({k + j: c for k, c in items})
            return self._make({k + j: c * m for k, c in items})
        out: dict[int, int] = {}
        for k1, c1 in self._terms.items():
            for k2, c2 in other._terms.items():
                k = k1 + k2
                n = out.get(k, 0) + c1 * c2
                if n:
                    out[k] = n
                else:
                    del out[k]
        return self._make(out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            if len(self._terms) == 1:
                ((k, c),) = self._terms.items()
                if c in (1, -1):  # keys are a homomorphism: n k
                    return self._make({k * n: c ** (n & 1 or 2)})
            raise ValueError("negative powers only for unit monomials")
        return _power(self, n) if n else self.const(1)

    def flip_vars(self):
        """The value with every variable negated: each term picks up
        (-1)^(total degree), the parity of its key."""
        return self._make({k: -c if k & 1 else c
                           for k, c in self._terms.items()})

    def to_text(self) -> str:
        if not self._terms:
            return "0"
        parts: list[str] = []
        for *exps, c in self.terms():
            factors = [name if e == 1 else f"{name}^{e}"
                       for name, e in zip(self._NAMES, exps) if e]
            if abs(c) != 1 or not factors:
                factors.insert(0, str(abs(c)))
            if parts:
                parts.append((" - " if c < 0 else " + ") + "*".join(factors))
            else:
                parts.append(("-" if c < 0 else "") + "*".join(factors))
        return "".join(parts)

    def __str__(self) -> str:
        return self.to_text()

    def __repr__(self) -> str:
        return f"{type(self).__name__}('{self.to_text()}')"


# ---------------------------------------------------------------------------
# two-variable Laurent polynomials


class LaurentPoly2(_Laurent):
    """Sparse Laurent polynomial in r, s; r^a s^b is keyed by a M + b
    (module docstring).  The constructor takes (r_exp, s_exp) keys."""

    __slots__ = ()
    _NAMES = ("r", "s")
    _exps = staticmethod(_unpack)
    # entries of this class, so that each can be wrapped on its own
    __mul__ = __rmul__ = _Laurent.__mul__

    def __init__(self, terms: Mapping[tuple[int, int], int] | None = None):
        self._terms = ({_pack(a, b): c for (a, b), c in terms.items() if c}
                       if terms else {})

    @staticmethod
    def term(coeff: int, r_exp: int = 0, s_exp: int = 0) -> LaurentPoly2:
        return LaurentPoly2._make({_pack(r_exp, s_exp): coeff} if coeff else {})

    def exact_div(self, d: LaurentPoly2) -> LaurentPoly2 | None:
        """Exact quotient self / d in the Laurent ring, or None.

        ``_long_div`` divides the keys, the images under r -> t^M, s -> t.
        Z[r^+-1] has no zero divisors, so the top and bottom s-degrees of a
        product are the sums of its factors': every term r^a s^b of a
        quotient q has lo <= b <= hi, lo = smin(self) - smin(d) and
        hi = smax(self) - smax(d).  Keys are one to one on such terms, so
        the image of q is the unique quotient of the images in the domain
        Z[t^+-1], found from the top key down; a quotient key with b
        outside lo..hi shows that no q exists and stops the division.  The
        result must still give self back when multiplied by d.
        """
        if d.is_zero:
            raise ZeroDivisionError("division by the zero polynomial")
        if self.is_zero:
            return LaurentPoly2()
        ps = [_unpack(k)[1] for k in self._terms]
        ds = [_unpack(k)[1] for k in d._terms]
        lo, hi = min(ps) - min(ds), max(ps) - max(ds)
        quot = _long_div(self._terms, d._terms,
                         lambda k: lo <= _unpack(k)[1] <= hi)
        if quot is None:
            return None
        out = LaurentPoly2._make(quot)
        return out if out * d == self else None

    to_triples = _Laurent.to_lists


def r_pow(e: int = 1) -> LaurentPoly2:
    return LaurentPoly2._make({e * KEY_M: 1})


def s_pow(e: int = 1) -> LaurentPoly2:
    return LaurentPoly2.term(1, 0, e)


ZERO2 = LaurentPoly2()
ONE2 = LaurentPoly2.const(1)
# s - s^-1, the localization denominator
DELTA = LaurentPoly2({(0, 1): 1, (0, -1): -1})
# r - r^-1 + s - s^-1, the numerator of the loop constant x
X_NUM = LaurentPoly2({(1, 0): 1, (-1, 0): -1, (0, 1): 1, (0, -1): -1})


# ---------------------------------------------------------------------------
# one-variable Laurent polynomials in q


class LaurentPoly1(_Laurent):
    """Sparse Laurent polynomial in q; terms keyed by the exponent itself."""

    __slots__ = ()
    _NAMES = ("q",)

    @staticmethod
    def _exps(e: int) -> tuple[int]:
        return (e,)

    @staticmethod
    def term(coeff: int, q_exp: int = 0) -> LaurentPoly1:
        return LaurentPoly1({q_exp: coeff})

    def exact_div(self, d: LaurentPoly1) -> LaurentPoly1 | None:
        if d.is_zero:
            raise ZeroDivisionError("division by the zero polynomial")
        quot = _long_div(self._terms, d._terms)
        return None if quot is None else LaurentPoly1._make(quot)


def _long_div(p: dict[int, int], d: dict[int, int],
              fits=None) -> dict[int, int] | None:
    """Exact quotient of int-keyed term maps p / d (d nonzero) by long
    division from the top term, or None when d does not divide p.  A
    quotient key that ``fits`` rejects gives None at once."""
    rem = dict(p)
    dlt = max(d)
    dlc = d[dlt]
    dmin = min(d)
    quot: dict[int, int] = {}
    while rem:
        lt = max(rem)
        if min(rem) - dmin > lt - dlt:
            return None  # remainder narrower than divisor
        lc = rem[lt]
        if lc % dlc:
            return None
        q = lc // dlc
        e = lt - dlt
        if fits is not None and not fits(e):
            return None
        quot[e] = q
        for de, dc in d.items():
            k = de + e
            n = rem.get(k, 0) - q * dc
            if n:
                rem[k] = n
            else:
                rem.pop(k, None)
    return quot


# ---------------------------------------------------------------------------
# exact identities between sums of products


def sums_of_products_equal(lhs, rhs) -> bool:
    """Whether sum(prod(t) for t in lhs) == sum(prod(t) for t in rhs),
    decided exactly by Kronecker substitution, without expanding a product.

    ``lhs`` and ``rhs`` are sequences of tuples of polynomials, all of one
    class (``LaurentPoly1`` or ``LaurentPoly2``).  A tuple with a zero
    factor is a zero product; an empty tuple is the product 1.

    Method.  Let M be the sum, over the products of both sides, of the
    product of their factors' 1-norms; M bounds every coefficient of the
    difference D = lhs - rhs.  Take B = 2^K > M.  In two variables, r
    becomes s^W, with W odd and above the s-span of the difference (the
    highest s-degree of any product minus the lowest), so distinct
    monomials r^a s^b of D go to distinct powers s^(W a + b), and W a + b
    keeps the parity of a + b.  Each distinct factor's keys are decoded
    once and re-keyed with W: the keys' own r -> t^(KEY_M) would make every
    int about KEY_M / W times longer.  Let d be the gcd of the exponent gaps
    inside the flattened factors (1 if every factor is a monomial), and
    write each factor as s^lo g(s^d).  Then s^d (or q^d) becomes B.  Each
    g, as terms c B^e, is multiplied into its product's int v as the sum
    of the shifted copies c (v << K e): a copy is added for c = 1 and
    subtracted for c = -1, and only a larger |c| costs a product, v c.
    Every step is linear in the size of v.  Each distinct factor's norm,
    span and flattened terms are computed once, however often it occurs.
    A product's shift is the sum of its factors' lo; products are summed
    by the class of that shift mod d, each shifted back by its distance
    from the smallest shift, in steps of d, and every class must sum to 0.

    A factor whose terms r^a s^b all have one parity of a + b, such as
    every Bratteli factor (the weight symmetry W(-r, -s) = W(r, s)), has
    only even gaps once W is odd: d = 2, and every int has half the
    digits it would have with d = 1.  With d = 1 there is one class and
    the kernel is the plain substitution s -> B.

    Order.  Multiplying a w-digit v by a factor of t terms and span sigma
    (in steps of d) costs t shifted copies and widens v by sigma, so
    factor i just before factor j costs t_j sigma_i - t_i sigma_j more
    than just after it: factors go in by ascending sigma / t (Smith's
    rule, W. E. Smith 1956).  B, W and d come from the factors alone, not
    from the order.

    Why this is exact.  The substitution is a ring homomorphism.  The
    exponents of a product s^shift prod g(s^d) are all = shift (mod d),
    so D splits into parts D_rho, one per class rho of the shift, with
    disjoint exponents: D = 0 exactly when every D_rho is.  Each D_rho is
    a power of s times G_rho(s^d), whose coefficients are some of D's, so
    bounded by M; and each class total is G_rho(B), which is 0 when
    G_rho = 0.  If G_rho is nonzero, let c B^e be its lowest nonzero term:
    0 < |c| <= M < B, and G_rho(B) = B^e (c + B t) for an integer t.
    Then c + B t = 0 would make B divide c, so G_rho(B) is not 0.
    """
    signed = [(1, t) for t in lhs] + [(-1, t) for t in rhs]
    distinct = {id(f): f for _, t in signed for f in t}
    classes = {type(f) for f in distinct.values()}
    if len(classes) > 1:
        raise TypeError("factors of different classes")
    norms = {i: sum(map(abs, f._terms.values())) for i, f in distinct.items()}
    products = []  # (sign, factor ids) of every nonzero product
    bound = 0
    for sign, t in signed:
        ids = list(map(id, t))
        norm = prod(map(norms.__getitem__, ids))
        if norm:
            products.append((sign, ids))
            bound += norm
    if not products:
        return True
    flats = {i: f._terms for i, f in distinct.items() if f._terms}
    if LaurentPoly2 in classes:
        # each distinct factor's terms as (a, key, coeff), decoded once,
        # and its s-degree range; then a M + b becomes W a + b
        cols, lows, highs = {}, {}, {}
        for i, terms in flats.items():
            cols[i] = [((k + _HALF) // KEY_M, k, c) for k, c in terms.items()]
            s_exps = [k - a * KEY_M for a, k, _ in cols[i]]
            lows[i], highs[i] = min(s_exps), max(s_exps)
        low = min(sum(map(lows.__getitem__, ids)) for _, ids in products)
        high = max(sum(map(highs.__getitem__, ids)) for _, ids in products)
        width = (high - low + 1) | 1
        shrink = KEY_M - width
        flats = {i: {k - a * shrink: c for a, k, c in terms}
                 for i, terms in cols.items()}
    los = {i: min(terms) for i, terms in flats.items()}
    step = gcd(*(e - los[i] for i, terms in flats.items() for e in terms)) or 1
    packed, span_per_term = {}, {}
    for i, terms in flats.items():
        lo = los[i]
        packed[i] = lo, [((e - lo) // step, c) for e, c in terms.items()]
        span_per_term[i] = (max(terms) - lo) / len(terms)

    bits = bound.bit_length()
    shifted = []  # (value at B, exponent of s to multiply it by)
    for sign, ids in products:
        value, shift = sign, 0
        for i in sorted(ids, key=span_per_term.__getitem__):
            lo, terms = packed[i]
            total = 0
            for e, c in terms:
                if c == 1:
                    total += value << bits * e
                elif c == -1:
                    total -= value << bits * e
                else:
                    total += value * c << bits * e
            value = total
            shift += lo
        shifted.append((value, shift))
    base = min(shift for _, shift in shifted)
    totals = [0] * step  # one per class of the shift mod d
    for value, shift in shifted:
        k, rho = divmod(shift - base, step)
        totals[rho] += value << bits * k
    return not any(totals)


# ---------------------------------------------------------------------------
# localization at (s - s^-1)


def _div_delta(terms: dict[int, int], columns: bool) -> dict[int, int] | None:
    """Exact quotient of an int-keyed term map by t - t^-1, the image of
    s - s^-1 in both key formats, or None; linear in the span it walks.

    Writing p_j and q_j for the coefficients of t^j, p = q (t - t^-1) means
    p_j = q_(j-1) - q_(j+1), so q_(j-1) = p_j + q_(j+1) from the top key
    down.  The division is exact when the recurrence ends with
    q_lo = q_(lo-1) = 0, lo being the run's lowest key.  With ``columns``
    (a ``LaurentPoly2``) each r-column, the keys a M + b of one a, is a run
    of its own, as s - s^-1 divides a polynomial exactly when it divides
    each column: the recurrence never walks the keys between columns.
    Without, one run covers the whole polynomial in q.
    """
    if not terms:
        return {}
    runs = (terms,)
    if columns:
        by_a: dict[int, dict[int, int]] = {}
        for k, c in terms.items():
            by_a.setdefault((k + _HALF) // KEY_M, {})[k] = c
        runs = by_a.values()
    out: dict[int, int] = {}
    for run in runs:
        above = here = 0  # q_(j+1), q_j
        get = run.get
        for j in range(max(run), min(run) - 1, -1):
            below = get(j, 0) + above  # q_(j-1)
            if below:
                out[j - 1] = below
            above, here = here, below
        if above or here:
            return None
    return out


class LocalizedPoly:
    """Value num / (s - s^-1)^k, normalized so k = 0 or (s - s^-1) does not
    divide num.

    The constructor normalizes by repeated exact division by (s - s^-1)
    (``_div_delta``); ``_normal`` wraps a pair already in that form, such
    as a skein-engine value: N(r, 1) is not 0 (``skein`` docstring), so
    s - 1, and with it s - s^-1, does not divide N.
    """

    __slots__ = ("num", "k")

    def __init__(self, num: LaurentPoly2, k: int = 0):
        if not isinstance(num, LaurentPoly2):
            raise TypeError(f"numerator must be a LaurentPoly2, not "
                            f"{type(num).__name__}; use LocalizedPoly.from_poly")
        if k < 0:
            raise ValueError("denominator exponent must be nonnegative")
        if num.is_zero:
            num, k = ZERO2, 0
        else:
            while k > 0:
                q = _div_delta(num._terms, True)
                if q is None:
                    break
                num, k = LaurentPoly2._make(q), k - 1
        self.num = num
        self.k = k

    @staticmethod
    def _normal(num: LaurentPoly2, k: int) -> LocalizedPoly:
        value = object.__new__(LocalizedPoly)
        value.num, value.k = num, k
        return value

    @staticmethod
    def from_poly(p: LaurentPoly2 | int) -> LocalizedPoly:
        if isinstance(p, int):
            p = LaurentPoly2.const(p)
        return LocalizedPoly(p, 0)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, LaurentPoly2)):
            other = LocalizedPoly.from_poly(other)
        if not isinstance(other, LocalizedPoly):
            return NotImplemented
        return self.k == other.k and self.num == other.num

    def __hash__(self) -> int:
        return hash((self.num, self.k))

    def __add__(self, other: LocalizedPoly | LaurentPoly2 | int) -> LocalizedPoly:
        if isinstance(other, (int, LaurentPoly2)):
            other = LocalizedPoly.from_poly(other)
        if not isinstance(other, LocalizedPoly):
            return NotImplemented
        k = max(self.k, other.k)
        return LocalizedPoly(self.num * DELTA ** (k - self.k)
                             + other.num * DELTA ** (k - other.k), k)

    __radd__ = __add__

    def __neg__(self) -> LocalizedPoly:
        return LocalizedPoly._normal(-self.num, self.k)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other: LocalizedPoly | LaurentPoly2 | int) -> LocalizedPoly:
        if isinstance(other, (int, LaurentPoly2)):
            num = self.num * other
            if num._terms and (isinstance(other, int) or len(other) == 1):
                # s - 1 and s + 1 divide no nonzero int or monomial: still normal
                return LocalizedPoly._normal(num, self.k)
            return LocalizedPoly(num, self.k)
        if not isinstance(other, LocalizedPoly):
            return NotImplemented
        return LocalizedPoly(self.num * other.num, self.k + other.k)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> LocalizedPoly:
        if n < 0:
            raise ValueError("negative powers not defined in the localized ring")
        return _power(self, n) if n else LocalizedPoly.from_poly(1)

    def flip_vars(self) -> LocalizedPoly:
        """Value at (-r, -s); the denominator flip contributes (-1)^k.
        (s - s^-1) divides num exactly when it divides the flipped num, so
        the result is already normal."""
        num = self.num.flip_vars()
        if self.k % 2:
            num = -num
        return LocalizedPoly._normal(num, self.k)

    def to_text(self) -> str:
        if self.k == 0:
            return self.num.to_text()
        den = "(s - s^-1)" if self.k == 1 else f"(s - s^-1)^{self.k}"
        return f"({self.num.to_text()}) / {den}"

    def __str__(self) -> str:
        return self.to_text()

    def __repr__(self) -> str:
        return f"LocalizedPoly('{self.to_text()}')"


def loop_value() -> LocalizedPoly:
    """The value x = (r - r^-1)/(s - s^-1) + 1 of a disjoint unknotted loop."""
    return LocalizedPoly(X_NUM, 1)


# ---------------------------------------------------------------------------
# the skein engine's numerator ring


# delta^e for e = 0, 1, 2 as (s-shift, coefficient) pairs
_DELTA_POWERS = (((0, 1),), ((1, 1), (-1, -1)), ((2, 1), (0, -2), (-2, 1)))


class NumeratorRing:
    """A skein engine's numerator ring as data: the value class, the key
    ``r_unit`` of r and the signs eps, eta of r -> eps t^r_unit,
    s -> eta t, where t has key 1, with ``x_num`` the image of X_NUM.
    Z[r^+-1, s^+-1] is (``LaurentPoly2``, ``KEY_M``, 1, 1), the ring of
    r -> t^M, s -> t; Z[q^+-1] under r -> eps q^(2n), s -> eta q is
    (``LaurentPoly1``, 2n, eps, eta).  One int-keyed kernel serves both.
    """

    def __init__(self, cls: type, r_unit: int, eps: int, eta: int,
                 x_num: _Laurent):
        self.cls, self.r_unit, self.eps, self.eta = cls, r_unit, eps, eta
        self.one, self.x_num = cls.const(1), x_num
        # delta^e as (key shift, coefficient) pairs: s^j -> eta^j t^j
        self.deltas = tuple(tuple((j, m * eta if j % 2 else m) for j, m in p)
                            for p in _DELTA_POWERS)

    def r_pow(self, k: int) -> _Laurent:
        """r^k = eps^k t^(k r_unit)."""
        return self.cls._make({self.r_unit * k: self.eps if k % 2 else 1})

    def mirror(self, num: _Laurent, c: int,
               shift: int = 0) -> tuple[_Laurent, int]:
        """The (N, c) pair of r^shift times the mirror image's value:
        (-1)^(c-1) r^shift N(r^-1, s^-1), c, in one pass over N: a key k
        becomes shift r_unit - k, with the sign eps^shift of r^shift."""
        sign = 1 if c % 2 else -1
        if shift % 2:
            sign *= self.eps
        e = self.r_unit * shift
        return self.cls._make({e - k: sign * m
                               for k, m in num._terms.items()}), c

    def step(self, sw: _Laurent, state: int, par: _Laurent, e_par: int,
             cap: _Laurent, e_cap: int) -> _Laurent:
        """sw + state * (delta^e_par * par - delta^e_cap * cap), summed into
        one dict as s-shifted copies of the terms of par and cap."""
        if not (0 <= e_par <= 2 and 0 <= e_cap <= 2):
            raise ValueError(f"delta exponents {e_par}, {e_cap} outside 0..2")
        out = dict(sw._terms)
        get = out.get
        for poly, e, sign in ((par, e_par, state), (cap, e_cap, -state)):
            items = poly._terms.items()
            for shift, m in self.deltas[e]:
                m *= sign
                for j, c in items:
                    k = j + shift
                    n = get(k, 0) + m * c
                    if n:
                        out[k] = n
                    else:
                        del out[k]
        return self.cls._make(out)

    def divide(self, num: _Laurent, k: int) -> LocalizedPoly | LaurentPoly1:
        """num / delta^k: an engine pair is wrapped as it is in two
        variables, being normal, and divided exactly in q (``skein``)."""
        if self.cls is LaurentPoly2:
            return LocalizedPoly._normal(num, k)
        return _divide_image(num, k, self.eta)


# ---------------------------------------------------------------------------
# quotients


class Quotient(Record):
    """num / den of two Laurent polynomials in the same variables.

    The denominator must be nonzero.  The pair is stored as given and never
    reduced: no GCD, no content, no sign or monomial shift.  Equality
    cross-multiplies against another ``Quotient``, an int, a polynomial or
    a ``LocalizedPoly``, in either direction; values in different variables
    are unequal.  Equal values can have different pairs, so a ``Quotient``
    is unhashable.
    """

    _fields = ("num", "den")

    def __init__(self, num: _Laurent, den: _Laurent):
        if den.is_zero:
            raise ZeroDivisionError("quotient with zero denominator")
        init_field(self, "num", num)
        init_field(self, "den", den)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Quotient):
            num, den = other.num, other.den
        elif isinstance(other, LocalizedPoly):
            num, den = other.num, DELTA ** other.k
        else:
            num, den = other, 1
        ring = (int, type(self.den))
        if not (isinstance(num, ring) and isinstance(den, ring)):
            return NotImplemented
        return (self.num * den - num * self.den).is_zero

    def to_text(self) -> str:
        return f"({self.num.to_text()}) / ({self.den.to_text()})"

    def __str__(self) -> str:
        return self.to_text()


# the earlier names of the two-variable and the one-variable quotient
RationalFn2 = QFraction = Quotient


def one_var_equal(u: LaurentPoly1 | Quotient, v: LaurentPoly1 | Quotient) -> bool:
    """Equality of two one-variable values: ``u == v``."""
    return u == v


# ---------------------------------------------------------------------------
# specializations r -> sign_r * q^(2n), s -> sign_s * q


class Specialization(Record):
    """Substitution r -> sign_r * q^(2n), s -> sign_s * q."""

    _fields = ("sign_r", "sign_s", "n")

    def __init__(self, sign_r: int, sign_s: int, n: int):
        if sign_r not in (1, -1) or sign_s not in (1, -1):
            raise ValueError("signs must be +1 or -1")
        if n < 1:
            raise ValueError("n must be a positive integer")
        init_field(self, "sign_r", sign_r)
        init_field(self, "sign_s", sign_s)
        init_field(self, "n", n)

    @staticmethod
    def osp(n: int) -> Specialization:
        """r -> -q^(2n), s -> q: the osp(1|2n) specialization."""
        return Specialization(-1, 1, n)

    @staticmethod
    def so(n: int) -> Specialization:
        """r -> q^(2n), s -> -q: the so(2n+1) specialization."""
        return Specialization(1, -1, n)

    def label(self) -> str:
        signs = (self.sign_r, self.sign_s)
        if signs == (-1, 1):
            return f"osp:{self.n}"
        if signs == (1, -1):
            return f"so:{self.n}"
        return f"({self.sign_r}*q^{2 * self.n}, {self.sign_s}*q)"


def specialize(value, spec: Specialization):
    """Substitute r, s by the one-variable images and collect exactly.

    A LaurentPoly2 gives its image, re-keyed in one pass: r^a s^b goes to
    sign_r^a sign_s^b q^(2na+b).  A LocalizedPoly N / (s - s^-1)^k gives the
    image of N divided by the image of (s - s^-1)^k, which must divide it
    exactly (it does for every skein-engine value: see ``skein``);
    ValueError otherwise.
    """
    if isinstance(value, LaurentPoly2):
        flip_r, flip_s = spec.sign_r < 0, spec.sign_s < 0
        shrink = KEY_M - 2 * spec.n  # a M + b -> 2n a + b
        out: dict[int, int] = {}
        get = out.get
        for k, c in value._terms.items():
            a = (k + _HALF) // KEY_M
            if flip_r and a & 1:
                c = -c
            if flip_s and (k ^ a) & 1:  # b = k - a (mod 2), as M is odd
                c = -c
            e = k - a * shrink
            n = get(e, 0) + c
            if n:
                out[e] = n
            else:
                del out[e]
        return LaurentPoly1._make(out)
    if not isinstance(value, LocalizedPoly):
        raise TypeError(f"cannot specialize {type(value).__name__}")
    return _divide_image(specialize(value.num, spec), value.k, spec.sign_s)


def _divide_image(num: LaurentPoly1, k: int, eta: int) -> LaurentPoly1:
    """num / (eta (q - q^-1))^k, the image of (s - s^-1)^k under s -> eta q:
    k top-down passes of ``_div_delta``, then the sign eta^k.  ValueError
    when the division is not exact."""
    terms = num._terms
    for _ in range(k):
        terms = _div_delta(terms, False)
        if terms is None:
            raise ValueError(f"(s - s^-1)^{k} does not divide the "
                             f"numerator's image")
    quot = LaurentPoly1._make(terms)
    return -quot if eta < 0 and k % 2 else quot


def quantum_dimension(n: int) -> LaurentPoly1:
    """Exact value of (-q^(2n) + q^(-2n))/(q - q^-1) + 1.

    The division is carried out in closed form:
    1 - sum_{j=0}^{2n-1} q^(2n-1-2j).
    """
    if n < 1:
        raise ValueError("n must be a positive integer")
    terms = {0: 1}
    for j in range(2 * n):
        e = 2 * n - 1 - 2 * j
        terms[e] = terms.get(e, 0) - 1
    return LaurentPoly1(terms)
