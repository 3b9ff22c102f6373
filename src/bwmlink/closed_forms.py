"""Closed forms for powers of a single braid generator in the trace algebra.

Any power of a generator g is a combination a + b*g + c*e of the identity,
the generator and its cap-cup companion e, where the coefficients are
integer Laurent polynomials in r and s.  Iterating

    g^(m+1) = b_m + (a_m + b_m (s - s^-1)) g
              + (-b_m r^-1 (s - s^-1) + c_m r^-1) e

steps up from any row, and its inverse, which gives
g^-1 = g - (s - s^-1)(1 - e) from g^0 = 1, steps down.  These rows drive the
closed-form invariant of the two-strand torus links, the independent oracle
for the skein engine.

``torus2_invariant`` builds its value through the normalizing
``LocalizedPoly`` arithmetic on purpose.  The engine's values are born in
normal form by a proof, with no division; comparing them with ``==``
against a normal form reached by trial division, as ``torus --m +-100``
and ``verify oracle --m -100..100`` do, checks that proof as well.
"""

from __future__ import annotations

from .laurent import (DELTA, ONE2, ZERO2, LaurentPoly2, LocalizedPoly,
                      loop_value, r_pow)


_ROW_0 = (0, ONE2, ZERO2, ZERO2)
_kept = _ROW_0  # (k, a_k, b_k, r^k c_k) of the last row built


def _row(m: int) -> tuple[LaurentPoly2, LaurentPoly2, LaurentPoly2]:
    """The row (a_m, b_m, c_m).

    One row is kept between calls, with r^k c_k in place of c_k: c_k has
    Theta(k^2) terms, and in that form a step shifts only the Theta(k)-term
    a or b part,

        r^(k+1) c_(k+1) = r^k c_k - r^k b_k (s - s^-1)      (ascending),
        r^(k-1) c_(k-1) = r^k c_k + r^(k-1) a_k (s - s^-1)  (descending).

    The two steps are inverse identities that hold for every k, of either
    sign.  Row m is reached in a loop from the kept row or from row 0,
    whichever is fewer steps away, so no |m| deepens the call stack, and
    c_m is shifted by r^-m once per call.  ``_row.cache_clear`` resets the
    kept row to row 0.
    """
    global _kept
    k, a, b, rc = _kept
    if abs(m) < abs(m - k):
        k, a, b, rc = _ROW_0
    while k < m:
        a, b, rc = b, a + b * DELTA, rc - b * DELTA * r_pow(k)
        k += 1
    while k > m:
        a, b, rc = b - a * DELTA, a, rc + a * DELTA * r_pow(k - 1)
        k -= 1
    _kept = k, a, b, rc
    return a, b, rc * r_pow(-m)


def _forget_row() -> None:
    global _kept
    _kept = _ROW_0


# called like a functools cache's by callers that reset every cache
_row.cache_clear = _forget_row


def torus2_invariant(m: int) -> LocalizedPoly:
    """Normalized invariant of the closure of the m-th power of a single
    generator on two strands: r^-m (a_m x + b_m r + c_m)."""
    a, b, c = _row(m)
    return r_pow(-m) * (a * loop_value() + b * r_pow(1) + c)

