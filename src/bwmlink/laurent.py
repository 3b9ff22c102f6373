"""Exact Laurent-polynomial arithmetic in the variables r, s (and q after
specialization).

Four value types:

* ``LaurentPoly2``  -- integer-coefficient Laurent polynomial in r and s.
* ``LocalizedPoly`` -- a ``LaurentPoly2`` divided by a power of (s - s^-1),
  kept in normalized form.  This ring carries the skein engine's values and
  the loop constant x.
* ``RationalFn2``   -- quotient of two ``LaurentPoly2`` values, compared by
  cross-multiplication (no GCD reduction, only content reduction).
* ``LaurentPoly1``  -- integer-coefficient Laurent polynomial in q, the
  target of the specializations r -> +-q^(2n), s -> +-q.

All values are immutable; every operation returns a fresh value.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Iterator, Mapping


def _power(base, n: int, one):
    """base ** n for n >= 0 by square-and-multiply, starting from ``one``."""
    out = one
    while n:
        if n & 1:
            out = out * base
        n >>= 1
        if n:
            base = base * base
    return out


# ---------------------------------------------------------------------------
# two-variable Laurent polynomials


class LaurentPoly2:
    """Sparse Laurent polynomial in r, s with integer coefficients.

    Terms are stored as a map (r_exp, s_exp) -> coeff with no zero
    coefficients.  Equality is term-map equality.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[tuple[int, int], int] | None = None):
        self._terms: dict[tuple[int, int], int] = {}
        if terms:
            for (a, b), c in terms.items():
                if c:
                    self._terms[(a, b)] = self._terms.get((a, b), 0) + c
            self._terms = {k: v for k, v in self._terms.items() if v}

    @staticmethod
    def term(coeff: int, r_exp: int = 0, s_exp: int = 0) -> LaurentPoly2:
        return LaurentPoly2({(r_exp, s_exp): coeff})

    @staticmethod
    def const(n: int) -> LaurentPoly2:
        return LaurentPoly2({(0, 0): n})

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def coeff(self, r_exp: int, s_exp: int) -> int:
        return self._terms.get((r_exp, s_exp), 0)

    def terms(self) -> Iterator[tuple[int, int, int]]:
        """Yield (r_exp, s_exp, coeff) triples in canonical ascending order."""
        for (a, b) in sorted(self._terms):
            yield a, b, self._terms[(a, b)]

    def __len__(self) -> int:
        return len(self._terms)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, int):
            other = LaurentPoly2.const(other)
        if not isinstance(other, LaurentPoly2):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    def __add__(self, other: LaurentPoly2 | int) -> LaurentPoly2:
        if isinstance(other, int):
            other = LaurentPoly2.const(other)
        if not isinstance(other, LaurentPoly2):
            return NotImplemented
        out = dict(self._terms)
        for k, c in other._terms.items():
            n = out.get(k, 0) + c
            if n:
                out[k] = n
            else:
                out.pop(k, None)
        res = LaurentPoly2()
        res._terms = out
        return res

    __radd__ = __add__

    def __neg__(self) -> LaurentPoly2:
        res = LaurentPoly2()
        res._terms = {k: -c for k, c in self._terms.items()}
        return res

    def __sub__(self, other: LaurentPoly2 | int) -> LaurentPoly2:
        if isinstance(other, int):
            other = LaurentPoly2.const(other)
        return self + (-other)

    def __rsub__(self, other: int) -> LaurentPoly2:
        return (-self) + other

    def __mul__(self, other: LaurentPoly2 | int) -> LaurentPoly2:
        if isinstance(other, int):
            res = LaurentPoly2()
            if other:
                res._terms = {k: c * other for k, c in self._terms.items()}
            return res
        if not isinstance(other, LaurentPoly2):
            return NotImplemented
        out: dict[tuple[int, int], int] = {}
        for (a1, b1), c1 in self._terms.items():
            for (a2, b2), c2 in other._terms.items():
                k = (a1 + a2, b1 + b2)
                n = out.get(k, 0) + c1 * c2
                if n:
                    out[k] = n
                else:
                    del out[k]
        res = LaurentPoly2()
        res._terms = out
        return res

    __rmul__ = __mul__

    def __pow__(self, n: int) -> LaurentPoly2:
        if n < 0:
            if len(self._terms) == 1:
                ((a, b), c) = next(iter(self._terms.items()))
                if c in (1, -1):
                    return LaurentPoly2({(a * n, b * n): c ** (n & 1 or 2)})
            raise ValueError("negative powers only for unit monomials")
        return _power(self, n, LaurentPoly2.const(1))

    def flip_vars(self) -> LaurentPoly2:
        """Return self(-r, -s): each term picks up (-1)^(r_exp + s_exp)."""
        res = LaurentPoly2()
        res._terms = {
            (a, b): (-c if (a + b) % 2 else c) for (a, b), c in self._terms.items()
        }
        return res

    def exact_div(self, d: LaurentPoly2) -> LaurentPoly2 | None:
        """Exact quotient self / d in the Laurent ring, or None.

        Shifts both operands into the ordinary polynomial ring and runs
        plain lex-leading-term division; a stuck or nonzero remainder
        means d does not divide self.
        """
        if d.is_zero:
            raise ZeroDivisionError("division by the zero polynomial")
        if self.is_zero:
            return LaurentPoly2()
        # shift so both operands have nonnegative exponents
        pmin = (min(a for a, _ in self._terms), min(b for _, b in self._terms))
        dmin = (min(a for a, _ in d._terms), min(b for _, b in d._terms))
        rem = {(a - pmin[0], b - pmin[1]): c for (a, b), c in self._terms.items()}
        div = {(a - dmin[0], b - dmin[1]): c for (a, b), c in d._terms.items()}
        dlt = max(div)
        dlc = div[dlt]
        quot: dict[tuple[int, int], int] = {}
        while rem:
            lt = max(rem)
            lc = rem[lt]
            qa, qb = lt[0] - dlt[0], lt[1] - dlt[1]
            if qa < 0 or qb < 0 or lc % dlc:
                return None
            qc = lc // dlc
            quot[(qa, qb)] = qc
            for (a, b), c in div.items():
                k = (a + qa, b + qb)
                n = rem.get(k, 0) - qc * c
                if n:
                    rem[k] = n
                else:
                    rem.pop(k, None)
        # undo the shifts: self/d = quot * r^(pmin-dmin) s^(...)
        sa, sb = pmin[0] - dmin[0], pmin[1] - dmin[1]
        res = LaurentPoly2()
        res._terms = {(a + sa, b + sb): c for (a, b), c in quot.items()}
        return res

    def content(self) -> int:
        """GCD of all coefficients (0 for the zero polynomial)."""
        g = 0
        for c in self._terms.values():
            g = gcd(g, c)
        return g

    def to_triples(self) -> list[list[int]]:
        return [[a, b, c] for a, b, c in self.terms()]

    def to_text(self) -> str:
        return _format_terms(
            [((a, b), c) for a, b, c in self.terms()], ("r", "s")
        )

    def __str__(self) -> str:
        return self.to_text()

    def __repr__(self) -> str:
        return f"LaurentPoly2('{self.to_text()}')"


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


def _format_terms(items, names) -> str:
    """Render (exps, coeff) pairs; exps aligned with variable names."""
    if not items:
        return "0"
    parts: list[str] = []
    for exps, c in items:
        factors = []
        for name, e in zip(names, exps):
            if e == 0:
                continue
            factors.append(name if e == 1 else f"{name}^{e}")
        if not factors:
            body = str(abs(c))
        elif abs(c) == 1:
            body = "*".join(factors)
        else:
            body = "*".join([str(abs(c))] + factors)
        if not parts:
            parts.append(("-" if c < 0 else "") + body)
        else:
            parts.append((" - " if c < 0 else " + ") + body)
    return "".join(parts)


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
    res = LaurentPoly2()
    res._terms = out
    return res


class LocalizedPoly:
    """Value num / (s - s^-1)^k, normalized so k = 0 or (s - s^-1) does not
    divide num.

    The constructor normalizes by repeated exact division by (s - s^-1)
    (``_div_delta``).  Products whose normal form is known without a trial
    division skip it: a factor (s - s^-1) lowers k, and a monomial or an
    integer factor keeps k, since (s - s^-1) is primitive and cannot come
    to divide num through a unit or an integer content.
    """

    __slots__ = ("num", "k")

    def __init__(self, num: LaurentPoly2, k: int = 0):
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
        """A value from a (num, k) pair already in normal form."""
        out = LocalizedPoly.__new__(LocalizedPoly)
        out.num, out.k = num, (k if num._terms else 0)
        return out

    @staticmethod
    def from_poly(p: LaurentPoly2 | int) -> LocalizedPoly:
        if isinstance(p, int):
            p = LaurentPoly2.const(p)
        return LocalizedPoly(p, 0)

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    def _lift(self, k: int) -> LaurentPoly2:
        if k == self.k:
            return self.num
        return self.num * DELTA ** (k - self.k)

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
        return LocalizedPoly(self._lift(k) + other._lift(k), k)

    __radd__ = __add__

    def __neg__(self) -> LocalizedPoly:
        return LocalizedPoly._normal(-self.num, self.k)

    def __sub__(self, other):
        if isinstance(other, (int, LaurentPoly2)):
            other = LocalizedPoly.from_poly(other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other: LocalizedPoly | LaurentPoly2 | int) -> LocalizedPoly:
        if isinstance(other, int):
            return LocalizedPoly._normal(self.num * other, self.k)
        if isinstance(other, LaurentPoly2):
            if len(other._terms) == 1:
                return LocalizedPoly._normal(self.num * other, self.k)
            if self.k and other._terms == DELTA._terms:
                return LocalizedPoly._normal(self.num, self.k - 1)
            return LocalizedPoly(self.num * other, self.k)
        if not isinstance(other, LocalizedPoly):
            return NotImplemented
        return LocalizedPoly(self.num * other.num, self.k + other.k)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> LocalizedPoly:
        if n < 0:
            raise ValueError("negative powers not defined in the localized ring")
        return _power(self, n, LocalizedPoly.from_poly(1))

    def flip_vars(self) -> LocalizedPoly:
        """Value at (-r, -s); the denominator flip contributes (-1)^k."""
        num = self.num.flip_vars()
        if self.k % 2:
            num = -num
        return LocalizedPoly(num, self.k)

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
# rational functions in r, s


class RationalFn2:
    """Quotient num/den of two-variable Laurent polynomials.

    Equality is by cross-multiplication; construction applies only content
    reduction (integer gcd, a common monomial and the denominator's sign),
    never a polynomial GCD.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: LaurentPoly2, den: LaurentPoly2):
        if den.is_zero:
            raise ZeroDivisionError("rational function with zero denominator")
        if num.is_zero:
            self.num, self.den = ZERO2, ONE2
            return
        # shift the common monomial so the denominator starts at exponent 0
        da = min(a for a, _ in den._terms)
        db = min(b for _, b in den._terms)
        shift = LaurentPoly2.term(1, -da, -db)
        num, den = num * shift, den * shift
        g = gcd(num.content(), den.content())
        if den._terms[max(den._terms)] < 0:
            g = -g
        if g != 1:
            num = LaurentPoly2({k: c // g for k, c in num._terms.items()})
            den = LaurentPoly2({k: c // g for k, c in den._terms.items()})
        self.num, self.den = num, den

    @staticmethod
    def from_poly(p: LaurentPoly2 | int) -> RationalFn2:
        if isinstance(p, int):
            p = LaurentPoly2.const(p)
        return RationalFn2(p, ONE2)

    @staticmethod
    def from_localized(p: LocalizedPoly) -> RationalFn2:
        return RationalFn2(p.num, DELTA**p.k)

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, LaurentPoly2)):
            other = RationalFn2.from_poly(other)
        elif isinstance(other, LocalizedPoly):
            other = RationalFn2.from_localized(other)
        if not isinstance(other, RationalFn2):
            return NotImplemented
        return (self.num * other.den - other.num * self.den).is_zero

    def __hash__(self) -> int:
        raise TypeError("RationalFn2 is unhashable (equality is by value)")

    def _coerce(self, other):
        if isinstance(other, (int, LaurentPoly2)):
            return RationalFn2.from_poly(other)
        if isinstance(other, LocalizedPoly):
            return RationalFn2.from_localized(other)
        return other if isinstance(other, RationalFn2) else None

    def __add__(self, other) -> RationalFn2:
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return RationalFn2(self.num * other.den + other.num * self.den,
                           self.den * other.den)

    __radd__ = __add__

    def __neg__(self) -> RationalFn2:
        return RationalFn2(-self.num, self.den)

    def __sub__(self, other) -> RationalFn2:
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other) -> RationalFn2:
        if isinstance(other, int):
            return RationalFn2(self.num * other, self.den)
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return RationalFn2(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> RationalFn2:
        if n < 0:
            return RationalFn2(self.den, self.num) ** (-n)
        return _power(self, n, RationalFn2.from_poly(1))

    def flip_vars(self) -> RationalFn2:
        return RationalFn2(self.num.flip_vars(), self.den.flip_vars())

    def to_text(self) -> str:
        if self.den == ONE2:
            return self.num.to_text()
        return f"({self.num.to_text()}) / ({self.den.to_text()})"

    def __str__(self) -> str:
        return self.to_text()

    def __repr__(self) -> str:
        return f"RationalFn2('{self.to_text()}')"


# ---------------------------------------------------------------------------
# one-variable Laurent polynomials in q


class LaurentPoly1:
    """Sparse Laurent polynomial in q with integer coefficients."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[int, int] | None = None):
        self._terms: dict[int, int] = {}
        if terms:
            for e, c in terms.items():
                if c:
                    self._terms[e] = self._terms.get(e, 0) + c
            self._terms = {k: v for k, v in self._terms.items() if v}

    @staticmethod
    def term(coeff: int, q_exp: int = 0) -> LaurentPoly1:
        return LaurentPoly1({q_exp: coeff})

    @staticmethod
    def const(n: int) -> LaurentPoly1:
        return LaurentPoly1({0: n})

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def coeff(self, q_exp: int) -> int:
        return self._terms.get(q_exp, 0)

    def terms(self) -> Iterator[tuple[int, int]]:
        for e in sorted(self._terms):
            yield e, self._terms[e]

    def __eq__(self, other: object) -> bool:
        if isinstance(other, int):
            other = LaurentPoly1.const(other)
        if not isinstance(other, LaurentPoly1):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    def __add__(self, other: LaurentPoly1 | int) -> LaurentPoly1:
        if isinstance(other, int):
            other = LaurentPoly1.const(other)
        if not isinstance(other, LaurentPoly1):
            return NotImplemented
        out = dict(self._terms)
        for e, c in other._terms.items():
            n = out.get(e, 0) + c
            if n:
                out[e] = n
            else:
                out.pop(e, None)
        res = LaurentPoly1()
        res._terms = out
        return res

    __radd__ = __add__

    def __neg__(self) -> LaurentPoly1:
        res = LaurentPoly1()
        res._terms = {e: -c for e, c in self._terms.items()}
        return res

    def __sub__(self, other):
        if isinstance(other, int):
            other = LaurentPoly1.const(other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other: LaurentPoly1 | int) -> LaurentPoly1:
        if isinstance(other, int):
            res = LaurentPoly1()
            if other:
                res._terms = {e: c * other for e, c in self._terms.items()}
            return res
        if not isinstance(other, LaurentPoly1):
            return NotImplemented
        out: dict[int, int] = {}
        for e1, c1 in self._terms.items():
            for e2, c2 in other._terms.items():
                k = e1 + e2
                n = out.get(k, 0) + c1 * c2
                if n:
                    out[k] = n
                else:
                    del out[k]
        res = LaurentPoly1()
        res._terms = out
        return res

    __rmul__ = __mul__

    def __pow__(self, n: int) -> LaurentPoly1:
        if n < 0:
            if len(self._terms) == 1:
                (e, c) = next(iter(self._terms.items()))
                if c in (1, -1):
                    return LaurentPoly1({e * n: c ** (n & 1 or 2)})
            raise ValueError("negative powers only for unit monomials")
        return _power(self, n, LaurentPoly1.const(1))

    def flip_q(self) -> LaurentPoly1:
        """Return self(-q)."""
        res = LaurentPoly1()
        res._terms = {e: (-c if e % 2 else c) for e, c in self._terms.items()}
        return res

    def exact_div(self, d: LaurentPoly1) -> LaurentPoly1 | None:
        if d.is_zero:
            raise ZeroDivisionError("division by the zero polynomial")
        if self.is_zero:
            return LaurentPoly1()
        rem = dict(self._terms)
        dlt = max(d._terms)
        dlc = d._terms[dlt]
        dmin = min(d._terms)
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
            for de, dc in d._terms.items():
                k = de + e
                n = rem.get(k, 0) - q * dc
                if n:
                    rem[k] = n
                else:
                    rem.pop(k, None)
        res = LaurentPoly1()
        res._terms = quot
        return res

    def to_pairs(self) -> list[list[int]]:
        return [[e, c] for e, c in self.terms()]

    def to_text(self) -> str:
        return _format_terms([((e,), c) for e, c in self.terms()], ("q",))

    def __str__(self) -> str:
        return self.to_text()

    def __repr__(self) -> str:
        return f"LaurentPoly1('{self.to_text()}')"


@dataclass(frozen=True)
class QFraction:
    """Quotient of two one-variable Laurent polynomials (nonzero denominator).

    Produced by specialization when the denominator does not divide the
    numerator exactly; compared by cross-multiplication.
    """

    num: LaurentPoly1
    den: LaurentPoly1

    def __post_init__(self):
        if self.den.is_zero:
            raise ZeroDivisionError("QFraction with zero denominator")

    def exact(self) -> LaurentPoly1 | None:
        return self.num.exact_div(self.den)

    def to_text(self) -> str:
        return f"({self.num.to_text()}) / ({self.den.to_text()})"

    def __str__(self) -> str:
        return self.to_text()


def one_var_equal(u: LaurentPoly1 | QFraction, v: LaurentPoly1 | QFraction) -> bool:
    """Equality of specialized values, tolerating the fraction form."""
    un, ud = (u.num, u.den) if isinstance(u, QFraction) else (u, LaurentPoly1.const(1))
    vn, vd = (v.num, v.den) if isinstance(v, QFraction) else (v, LaurentPoly1.const(1))
    return (un * vd - vn * ud).is_zero


# ---------------------------------------------------------------------------
# specializations r -> sign_r * q^(2n), s -> sign_s * q


@dataclass(frozen=True)
class Specialization:
    """Substitution r -> sign_r * q^(2n), s -> sign_s * q."""

    sign_r: int
    sign_s: int
    n: int

    def __post_init__(self):
        if self.sign_r not in (1, -1) or self.sign_s not in (1, -1):
            raise ValueError("signs must be +1 or -1")
        if self.n < 1:
            raise ValueError("n must be a positive integer")

    @staticmethod
    def osp(n: int) -> Specialization:
        """r -> -q^(2n), s -> q: the osp(1|2n) specialization."""
        return Specialization(-1, 1, n)

    @staticmethod
    def so(n: int) -> Specialization:
        """r -> q^(2n), s -> -q: the so(2n+1) specialization."""
        return Specialization(1, -1, n)

    def label(self) -> str:
        if self == Specialization.osp(self.n):
            return f"osp:{self.n}"
        if self == Specialization.so(self.n):
            return f"so:{self.n}"
        return f"({self.sign_r}*q^{2 * self.n}, {self.sign_s}*q)"


def specialize(value, spec: Specialization):
    """Substitute r, s by the one-variable images and collect exactly.

    LaurentPoly2 inputs give a LaurentPoly1.  LocalizedPoly and RationalFn2
    inputs give a LaurentPoly1 when the specialized denominator divides the
    specialized numerator, a QFraction otherwise.
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
        res = LaurentPoly1()
        res._terms = out
        return res
    if isinstance(value, LocalizedPoly):
        num = specialize(value.num, spec)
        den = specialize(DELTA, spec) ** value.k
    elif isinstance(value, RationalFn2):
        num = specialize(value.num, spec)
        den = specialize(value.den, spec)
    else:
        raise TypeError(f"cannot specialize {type(value).__name__}")
    if den.is_zero:
        raise ZeroDivisionError("specialized denominator vanished")
    q = num.exact_div(den)
    return q if q is not None else QFraction(num, den)


def flip_vars(p):
    """p(-r, -s) for the two-variable types, p(-q) for LaurentPoly1."""
    if isinstance(p, LaurentPoly1):
        return p.flip_q()
    return p.flip_vars()


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
