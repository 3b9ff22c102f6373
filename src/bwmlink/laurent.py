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

The two polynomial classes share one sparse core, ``_Laurent``: a map from
exponent key to nonzero coefficient, with everything that does not depend
on the shape of the key.  Each subclass keeps only its product kernel and
its key helpers; both ``exact_div`` methods call ``_long_div``, the one
long division, on int-keyed term maps (``LaurentPoly2`` first maps r to a
power of s wide enough to decode the quotient).  ``LaurentPoly2`` keys are
(r_exp, s_exp) pairs; ``LaurentPoly1`` keys are plain ints, because 1-tuple
keys made its product kernel 1.3-1.6x slower.  A ``LaurentPoly2`` product
with a monomial m r^a s^b is a key shift by (a, b), scaled by m
unless m = 1; a ``LaurentPoly1`` product with m q^a shifts by a.

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

    Terms are stored as a map exponent key -> coeff with no zero
    coefficients.  Equality is term-map equality within one class;
    polynomials in different variables are never equal.  A subclass names
    its variables (``_NAMES``), converts between keys and exponent tuples
    (``_key``, ``_exps``) and supplies ``__mul__`` and ``exact_div``.
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
        return cls({cls._key((0,) * len(cls._NAMES)): n})

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

    def _scaled(self, n):
        """self * n for an int n; NotImplemented for any other operand."""
        if not isinstance(n, int):
            return NotImplemented
        return self._make({k: c * n for k, c in self._terms.items()} if n else {})

    def __pow__(self, n: int):
        if n < 0:
            if len(self._terms) == 1:
                ((k, c),) = self._terms.items()
                if c in (1, -1):
                    key = self._key(tuple(e * n for e in self._exps(k)))
                    return self._make({key: c ** (n & 1 or 2)})
            raise ValueError("negative powers only for unit monomials")
        return _power(self, n) if n else self.const(1)

    def flip_vars(self):
        """The value with every variable negated: each term picks up
        (-1)^(total degree)."""
        exps = self._exps
        return self._make({k: (-c if sum(exps(k)) % 2 else c)
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
    """Sparse Laurent polynomial in r, s; terms keyed by (r_exp, s_exp)."""

    __slots__ = ()
    _NAMES = ("r", "s")
    _key = _exps = staticmethod(tuple)

    @staticmethod
    def term(coeff: int, r_exp: int = 0, s_exp: int = 0) -> LaurentPoly2:
        return LaurentPoly2({(r_exp, s_exp): coeff})

    def __mul__(self, other: LaurentPoly2 | int) -> LaurentPoly2:
        if type(other) is not LaurentPoly2:
            return self._scaled(other)
        mono, poly = (self, other) if len(self._terms) == 1 else (other, self)
        if len(mono._terms) == 1:  # m r^a s^b: shift every key by (a, b)
            (((a, b), m),) = mono._terms.items()
            items = poly._terms.items()
            if m == 1:
                return LaurentPoly2._make({(x + a, y + b): c
                                           for (x, y), c in items})
            return LaurentPoly2._make({(x + a, y + b): c * m
                                       for (x, y), c in items})
        out: dict[tuple[int, int], int] = {}
        for (a1, b1), c1 in self._terms.items():
            for (a2, b2), c2 in other._terms.items():
                k = (a1 + a2, b1 + b2)
                n = out.get(k, 0) + c1 * c2
                if n:
                    out[k] = n
                else:
                    del out[k]
        return LaurentPoly2._make(out)

    __rmul__ = __mul__

    def exact_div(self, d: LaurentPoly2) -> LaurentPoly2 | None:
        """Exact quotient self / d in the Laurent ring, or None.

        Method.  With lo = smin(self) - smax(d) and W = smax(self) - smin(d)
        - lo + 1, the substitution r -> t^W, s -> t sends r^a s^b to
        t^(W a + b); both images are divided by ``_long_div``, and each key
        k of the quotient's image is decoded as a = (k - lo) // W,
        b = lo + (k - lo) % W.  The decoded value is returned only if its
        product with d is self.

        Why decoding is exact when a quotient q exists.  Z[r^+-1] has no
        zero divisors, so the top and bottom s-degrees of a product are the
        sums of its factors': every term r^a s^b of q has
        smin(self) - smin(d) <= b <= smax(self) - smax(d), so 0 <= b - lo
        <= smax(self) - smin(self) < W.  On such terms the substitution is
        one to one, so the image of q has no cancelled or merged terms and
        decodes back to q.  The substitution is a ring homomorphism into
        Z[t^+-1], which has no zero divisors either, so the image of self
        is the image of q times the image of d, and that quotient is
        unique.  ``_long_div`` finds it: each remainder is the rest of the
        quotient times the image of d, so neither of its stops fires.  So
        q is returned, never None.

        Why the check rejects aliased quotients.  When no quotient exists
        the images may still divide: 1 - r and 1 - s give 1 - t^2 and
        1 - t.  The decoded value then times d is not self, since it would
        otherwise be a quotient, so None is returned.
        """
        if d.is_zero:
            raise ZeroDivisionError("division by the zero polynomial")
        if self.is_zero:
            return LaurentPoly2()
        ps = [b for _, b in self._terms]
        ds = [b for _, b in d._terms]
        lo = min(ps) - max(ds)
        width = max(ps) - min(ds) - lo + 1
        quot = _long_div({width * a + b: c for (a, b), c in self._terms.items()},
                         {width * a + b: c for (a, b), c in d._terms.items()})
        if quot is None:
            return None
        terms = {}
        for k, c in quot.items():
            a, b = divmod(k - lo, width)
            terms[(a, b + lo)] = c
        out = LaurentPoly2._make(terms)
        return out if out * d == self else None

    to_triples = _Laurent.to_lists


def r_pow(e: int = 1) -> LaurentPoly2:
    return LaurentPoly2.term(1, e, 0)


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
    def _key(exps: tuple[int]) -> int:
        return exps[0]

    @staticmethod
    def _exps(e: int) -> tuple[int]:
        return (e,)

    @staticmethod
    def term(coeff: int, q_exp: int = 0) -> LaurentPoly1:
        return LaurentPoly1({q_exp: coeff})

    def __mul__(self, other: LaurentPoly1 | int) -> LaurentPoly1:
        if type(other) is not LaurentPoly1:
            return self._scaled(other)
        mono, poly = (self, other) if len(self._terms) == 1 else (other, self)
        if len(mono._terms) == 1:  # m q^a: shift every key by a
            ((a, m),) = mono._terms.items()
            return LaurentPoly1._make({e + a: c * m
                                       for e, c in poly._terms.items()})
        out: dict[int, int] = {}
        for e1, c1 in self._terms.items():
            for e2, c2 in other._terms.items():
                k = e1 + e2
                n = out.get(k, 0) + c1 * c2
                if n:
                    out[k] = n
                else:
                    del out[k]
        return LaurentPoly1._make(out)

    __rmul__ = __mul__

    def exact_div(self, d: LaurentPoly1) -> LaurentPoly1 | None:
        if d.is_zero:
            raise ZeroDivisionError("division by the zero polynomial")
        quot = _long_div(self._terms, d._terms)
        return None if quot is None else LaurentPoly1._make(quot)


def _long_div(p: dict[int, int], d: dict[int, int]) -> dict[int, int] | None:
    """Exact quotient of int-keyed term maps p / d (d nonzero) by long
    division from the top term, or None when d does not divide p."""
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
    keeps the parity of a + b.  Let d be the gcd of the exponent gaps
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
        # each distinct factor's s-degree range, then its flattened terms
        lows, highs = {}, {}
        for i, terms in flats.items():
            s_exps = [b for _, b in terms]
            lows[i], highs[i] = min(s_exps), max(s_exps)
        low = min(sum(map(lows.__getitem__, ids)) for _, ids in products)
        high = max(sum(map(highs.__getitem__, ids)) for _, ids in products)
        width = (high - low + 1) | 1
        flats = {i: {width * a + b: c for (a, b), c in terms.items()}
                 for i, terms in flats.items()}
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


def _div_delta(p: LaurentPoly2) -> LaurentPoly2 | None:
    """Exact quotient p / (s - s^-1), or None; linear in the s-span of p.

    Column by column in r: writing p_b and q_b for the coefficients of s^b,
    p = q * (s - s^-1) means p_b = q_(b-1) - q_(b+1), so q_(b-1) = p_b +
    q_(b+1) from the top s-degree down.  The division is exact when the
    recurrence ends with q_lo = q_(lo-1) = 0, lo being the column's lowest
    s-degree.
    """
    cols: dict[int, dict[int, int]] = {}
    for (a, b), c in p._terms.items():
        col = cols.get(a)
        if col is None:
            cols[a] = {b: c}
        else:
            col[b] = c
    out: dict[tuple[int, int], int] = {}
    for a, col in cols.items():
        above, here = 0, 0  # q_(b+1), q_b
        get = col.get
        for b in range(max(col), min(col) - 1, -1):
            below = get(b, 0) + above  # q_(b-1)
            if below:
                out[(a, b - 1)] = below
            above, here = here, below
        if above or here:
            return None
    return LaurentPoly2._make(out)


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
                q = _div_delta(num)
                if q is None:
                    break
                num, k = q, k - 1
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

    A LaurentPoly2 gives its image.  A LocalizedPoly N / (s - s^-1)^k gives
    the image of N divided by the image of (s - s^-1)^k, which must divide
    it exactly (it does for every skein-engine value: see ``skein``);
    ValueError otherwise.
    """
    if isinstance(value, LaurentPoly2):
        out: dict[int, int] = {}
        for (a, b), c in value._terms.items():
            if spec.sign_r < 0 and a % 2:
                c = -c
            if spec.sign_s < 0 and b % 2:
                c = -c
            e = 2 * spec.n * a + b
            n = out.get(e, 0) + c
            if n:
                out[e] = n
            else:
                del out[e]
        return LaurentPoly1._make(out)
    if not isinstance(value, LocalizedPoly):
        raise TypeError(f"cannot specialize {type(value).__name__}")
    den = specialize(DELTA, spec) ** value.k
    q = specialize(value.num, spec).exact_div(den)
    if q is None:
        raise ValueError(f"(s - s^-1)^{value.k} does not divide the "
                         f"numerator under {spec.label()}")
    return q


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
