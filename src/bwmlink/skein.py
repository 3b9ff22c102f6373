"""Skein evaluation of closed diagrams and the normalized link invariant.

The regular-isotopy value of a diagram satisfies

* value(c crossing-free loops)     = x^(c-1),
* value(diagram with a kink)       = r^(+-1) * value(kink removed),
* value(D+) - value(D-)            = (s - s^-1) * (value(par) - value(cap)),
* fully descending diagram         = r^writhe * x^(components - 1),

and disjoint pieces multiply with one extra factor of x per split.  Each
diagram is first reduced: ``PlanarDiagram.reduce`` removes its kinks, for
r^(kink sum), and its pokes (Reidemeister II bigons, which keep the value).
Kinks and pokes lie inside one connected part, so every part of a reduced
diagram is reduced too.  The engine then resolves the first
non-descending crossing of the deterministic strand walk, which terminates
because smoothing drops a crossing and switching strictly extends the
descending prefix.  A child of a reduced part can only hold moves that
touch the resolved crossing's neighbours, so its reduction starts there.

As x = X_NUM / delta, delta = s - s^-1, a diagram with c components (free
loops included) has value N / delta^(c-1).  The recursion carries (N, c);
only ``regular_isotopy_poly`` divides by delta.  A smoothing changes c by
at most one, so a skein step lifts each smoothing's numerator by delta^e,
0 <= e <= 2.  As delta^e = s - s^-1 or s^2 - 2 + s^-2, ``_skein_step``
builds N = N_switched + state * (delta^e_par N_par - delta^e_cap N_cap)
as one sum of s-shifted copies in one output dict, with no product.

The mirror image D* of D flips every over bit, and F_{L*}(r, s) =
F_L(r^-1, s^-1).  On numerators, N(D*) = (-1)^(c-1) N(D)(r^-1, s^-1), with
the same c.  Sketch, by induction along the recursion: flipping every over
bit commutes with each move.  ``reduce`` deletes the same crossings; each
kink's sign flips, r^k -> r^-k, and each poke stays a poke.  Parts and
smoothings ignore over bits, and D*'s switched child is the mirror of D's.
At a leaf the writhe negates, and X_NUM(r^-1, s^-1) = -X_NUM gives
(-1)^(c-1) from X_NUM^(c-1).  (D* is then ascending, which is descending
for the reversed walk; the value does not depend on the walk.)  A split
into parts of c_i components carries X_NUM^split, so the signs collect to
(-1)^(split + sum(c_i - 1)) = (-1)^(c-1).  In a skein step the state
changes sign and delta(s^-1) = -delta, so a smoothing's term delta^e N_sm,
e = 1 + c - c_sm, picks up (-1)^(c-1) (-1)^e = -(-1)^(c_sm-1): the step of
D* at the same crossing, with D*'s state.  The memo keys a part with fewer
over bits 1 than 0 by its mirror, so a link and its mirror share entries.

The flip symmetry F(-r, -s) = F(r, s) holds for every link.  Put
G(D) = (-1)^cr(D) V_D(-r, -s), with V the regular-isotopy value and cr
the crossing count.  G obeys each rule above: loops and splits have no
crossings of their own and x(-r, -s) = x; a kink gives (-1) (-r) = r, and
a poke deletes two crossings and keeps the value; in the skein step both
smoothings have one crossing fewer and the switched diagram as many, so
(-1) (-delta) = delta; a descending diagram gives (-1)^cr (-r)^w = r^w,
as the writhe w = cr (mod 2).  The engine computes V from these rules
alone, so by induction along its recursion G = V, and F = r^-w V gives
F(-r, -s) = (-1)^(w + cr) F = F.  On numerators, as delta(-s) = -delta,
every term r^a s^b of N has a + b = cr + c - 1 (mod 2).  So
``osp_invariant`` and ``so_invariant`` (which sends s to -q) are equal
for every link and every n: the paper's corollary, for all links.

Every pair (N, c) the engine returns is in lowest terms: s - s^-1 does
not divide N.  In fact N(r, 1) = (r - r^-1)^(c-1) u(r) with u a Laurent
polynomial in r and u(1) = 1, the Dubrovnik form of the lowest-coefficient
formula (Lickorish-Millett, Topology 26, 1987, for HOMFLY; Kauffman, Trans.
AMS 318, 1990).  By induction along the recursion, as for the flip: loops
and splits give X_NUM^(c-1), and X_NUM(r, 1) = r - r^-1 (a split into
parts of c_i components has split + sum(c_i - 1) = c - 1); kinks and
descending leaves contribute powers of r, which are 1 at r = 1; pokes keep
the value; the mirror rule maps u(r) to u(r^-1), with the sign (-1)^(c-1)
absorbed by (r^-1 - r)^(c-1).  In a skein step delta(1) = 0, so at s = 1
only the switched diagram (c components, as switching keeps them) and a
smoothing with c_sm = c + 1 (delta^0) survive, and the latter carries one
more factor r - r^-1, which is 0 at r = 1.  So N(r, 1) is not 0, s - 1
does not divide N, and neither does delta = s^-1 (s - 1)(s + 1).
``regular_isotopy_poly`` therefore wraps (N, c - 1) with
``LocalizedPoly._normal``, with no trial division.

Every value lies in Z[r^+-1, s^+-1][x]: each rule above is a polynomial
in x with Laurent coefficients, and sums and products stay in that ring.
Under r -> +-q^(2n), s -> +-q, X_NUM maps to delta's image times
y = +-(q^(2n) - q^(-2n)) / (q - q^-1) + 1, which is in Z[q^+-1].  A
value N / delta^k = sum p_i x^i (i <= d) gives, with m = max(d, k), the
Laurent identity N delta^(m-k) = sum p_i X_NUM^i delta^(m-i).  Its image,
with delta' = image of delta cancelled in the domain Z[q^+-1], reads
N' = delta'^k sum p_i' y^i.  So ``specialize`` of an engine value divides
exactly, and its ``ValueError`` for an inexact division never fires.

The normalized invariant of a braid closure divides out r^(exponent sum);
it takes the value 1 on the unknot.  That factor r^(-w), w the exponent
sum, and the closure's kink sum form one pending r-power k, carried down
as an exponent, not multiplied into the result.  ``_value`` adds its kink
sum to k; when the reduced diagram is one part with no free loop it hands
k to ``_connected``, which applies it in the pass that already copies the
part's value: on a mirrored hit one pass builds (-1)^(c-1) r^k N(r^-1,
s^-1), on a plain hit or after a miss one key shift makes r^k N, and with
k = 0 the stored pair itself is returned.  Several parts or free loops
take r^k on the small first factor X_NUM^split, before the product.  The
memo never holds a shifted value: it stores the part's own (N, c).
"""

from __future__ import annotations

from .braid import BraidWord, closure_diagram, exponent_sum, free_reduce
from .diagram import PlanarDiagram
from .laurent import (ONE2, X_NUM, LaurentPoly1, LaurentPoly2, LocalizedPoly,
                      Specialization, r_pow, specialize)


class SkeinEngine:
    """Evaluator with a memo table from canonical diagram form to the (N, c)
    pair of the module docstring, and with poke (Reidemeister II) reduction
    before each resolution.

    Each diagram is reduced once, before it splits into connected parts, so
    every part is free of kinks (and pokes).  The table holds those parts,
    the ones that reach ``traverse`` and ``resolve``.  A resolution changes
    the arcs or the over bit at one crossing only, so each child's
    reduction tests just that crossing's neighbours and what its own
    deletions reach: O(change), not O(diagram), per node.
    A part with fewer over bits 1 than 0 is keyed and stored as its mirror
    image, its value mapped through the mirror identity of the module
    docstring; a balanced part is keyed as it is.  So parts with equal keys
    have equal values up to that recorded mirror, and sharing the table
    across evaluations (or threads) is harmless.  Both are on by default, as
    measured on the torus corpus T(2, m), 0 < |m| <= 24, and B3 (1 2)^k,
    k <= 5 (Python 3.11, 2-vCPU Xeon): 0.016 s and 55 entries with the
    cache, 26 s without it.  Pokes prune most resolution nodes: B4
    (1 2 3)^4 takes 2.7 s without them and 0.13 s with them.  Turning
    either off is for cross-checks only.
    """

    def __init__(self, use_cache: bool = True, use_poke_reduction: bool = True):
        self._cache: dict[tuple[int, ...], tuple[LaurentPoly2, int]] | None = (
            {} if use_cache else None)
        self._poke = use_poke_reduction

    @property
    def cache_size(self) -> int:
        return len(self._cache) if self._cache is not None else 0

    def regular_isotopy_poly(self, diagram: PlanarDiagram, *,
                             shift: int = 0) -> LocalizedPoly:
        """The unnormalized diagram value described in the module docstring,
        times r^shift; (N, c - 1) is already in normal form, as proved there
        (a power of r does not change that)."""
        num, c = self._value(diagram, shift=shift)
        return LocalizedPoly._normal(num, c - 1)

    def _value(self, diagram: PlanarDiagram, near: set[int] | None = None,
               shift: int = 0) -> tuple[LaurentPoly2, int]:
        """The pair (N, c) with r^shift times the diagram's value equal to
        N / delta^(c-1).  ``near`` holds a crossing of every kink or poke, as
        ``reduce`` needs."""
        diagram, kink_sum = diagram.reduce(self._poke, near)
        shift += kink_sum
        parts = diagram.connected_parts()
        split = diagram.free_loops + len(parts) - 1
        if split < 0:
            raise ValueError("the empty diagram has no value")
        if not split and parts:  # one part and no free loop
            return self._connected(parts[0], shift)
        num = X_NUM**split if split else ONE2
        if shift:  # into the small first factor, not the product
            num = r_pow(shift) * num
        c = diagram.free_loops
        for part in parts:
            part_num, part_c = self._connected(part)
            num = num * part_num
            c += part_c
        return num, c

    def _connected(self, part: PlanarDiagram,
                   shift: int = 0) -> tuple[LaurentPoly2, int]:
        """The (N, c) pair of r^shift times a connected part's value.  The
        memo holds the unshifted pair; the shift is applied in the one pass
        that copies the value, fused with the mirror on a mirrored hit."""
        key = mirrored = None
        if self._cache is not None:
            # a part with fewer over bits 1 than 0 is keyed by its mirror
            crossings = part.crossings
            mirrored = 2 * sum(crossings.values()) < len(crossings)
            key = (PlanarDiagram({c: 1 - o for c, o in crossings.items()},
                                 part.arcs)
                   if mirrored else part).canonical_key()
            hit = self._cache.get(key)
            if hit is not None:
                if mirrored:
                    return _mirror(*hit, shift)
                return (r_pow(shift) * hit[0], hit[1]) if shift else hit
        walk = part.traverse()
        c = walk.components
        if walk.switch_candidate is None:
            num = r_pow(walk.writhe)
            if c > 1:
                num = num * X_NUM ** (c - 1)
        else:
            x = walk.switch_candidate
            switched, par, cap = part.resolve(x)
            near = part.neighbours(x)
            state = 1 if part.crossings[x] == 1 else -1
            par_num, par_c = self._value(par, near)
            cap_num, cap_c = self._value(cap, near)
            num = _skein_step(self._value(switched, near)[0], state,
                              par_num, 1 + c - par_c, cap_num, 1 + c - cap_c)
        if self._cache is not None:
            self._cache[key] = _mirror(num, c) if mirrored else (num, c)
        return (r_pow(shift) * num if shift else num), c

    def kauffman_polynomial(self, b: BraidWord) -> LocalizedPoly:
        """Normalized two-variable invariant of the braid's closure:
        r^(-exponent sum) times the regular-isotopy value, taken on the
        freely reduced word (each cancelled pair is a Reidemeister II move).
        The factor r^(-exponent sum) goes down the recursion as the pending
        r-power of the module docstring, not as a product on the result."""
        return self.regular_isotopy_poly(closure_diagram(free_reduce(b)),
                                         shift=-exponent_sum(b))


def _mirror(num: LaurentPoly2, c: int,
            shift: int = 0) -> tuple[LaurentPoly2, int]:
    """The (N, c) pair of r^shift times the mirror image's value:
    (-1)^(c-1) r^shift N(r^-1, s^-1), c, built in one pass over N."""
    sign = 1 if c % 2 else -1
    return LaurentPoly2._make({(shift - a, -b): sign * m
                               for (a, b), m in num._terms.items()}), c


# delta^e for e = 0, 1, 2 as (s-shift, coefficient) pairs
_DELTA_POWERS = (((0, 1),), ((1, 1), (-1, -1)), ((2, 1), (0, -2), (-2, 1)))


def _skein_step(sw: LaurentPoly2, state: int, par: LaurentPoly2, e_par: int,
                cap: LaurentPoly2, e_cap: int) -> LaurentPoly2:
    """sw + state * (delta^e_par * par - delta^e_cap * cap), summed into one
    dict as s-shifted copies of the terms of par and cap."""
    if not (0 <= e_par <= 2 and 0 <= e_cap <= 2):
        raise ValueError(f"delta exponents {e_par}, {e_cap} outside 0..2")
    out = dict(sw._terms)
    get = out.get
    for poly, e, sign in ((par, e_par, state), (cap, e_cap, -state)):
        items = poly._terms.items()
        for shift, m in _DELTA_POWERS[e]:
            m *= sign
            for (a, b), c in items:
                k = (a, b + shift)
                n = get(k, 0) + m * c
                if n:
                    out[k] = n
                else:
                    del out[k]
    return LaurentPoly2._make(out)


_default_engine = SkeinEngine()


def kauffman_polynomial(b: BraidWord,
                        engine: SkeinEngine | None = None) -> LocalizedPoly:
    return (engine or _default_engine).kauffman_polynomial(b)


def osp_invariant(b: BraidWord, n: int,
                  engine: SkeinEngine | None = None) -> LaurentPoly1:
    """One-variable invariant at r -> -q^(2n), s -> q."""
    return specialize(kauffman_polynomial(b, engine), Specialization.osp(n))


def so_invariant(b: BraidWord, n: int,
                 engine: SkeinEngine | None = None) -> LaurentPoly1:
    """One-variable invariant at r -> q^(2n), s -> -q."""
    return specialize(kauffman_polynomial(b, engine), Specialization.so(n))
