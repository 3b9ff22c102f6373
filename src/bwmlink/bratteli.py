"""Young diagrams, the tangle-algebra Bratteli diagram and trace weights.

Partitions are plain tuples of weakly decreasing positive integers; the
empty tuple is the empty diagram.  Level k of the generic Bratteli diagram
holds all partitions of k, k-2, k-4, ...; edges join shapes differing by a
single box, and path counts satisfy the obvious sum recurrence from the
empty shape at level 0.

Each shape carries a trace weight, a rational function in r and s built
box by box: a diagonal box (j,j) contributes

    (r s^(row-col) - r^-1 s^(col-row) + s^(row+col-2j+1) - s^(-row-col+2j-1))
    / (s^h - s^-h)

with h the hook length, and an off-diagonal box (i,j) contributes
(r s^d - r^-1 s^-d) / (s^h - s^-h) with d the axial statistic below.  The
weight of the empty shape is 1.

Every weight satisfies the n-free identity W(-r, -s) = W(r, s) (the
paper's sign lemma, see ``specialized_weights_equal``), so its osp(1|2n)
and so(2n+1) specializations agree for every n: the paper's Lemma 2.
"""

from __future__ import annotations

import json
from functools import lru_cache
from itertools import compress

from .laurent import (ONE2, X_NUM, LaurentPoly2, Quotient, Specialization,
                      specialize, sums_of_products_equal)
from .record import Record, init_field

Shape = tuple[int, ...]


# ---------------------------------------------------------------------------
# partitions


def shape_size(shape: Shape) -> int:
    return sum(shape)


def conjugate(shape: Shape) -> Shape:
    """Transpose: column lengths read left to right."""
    if not shape:
        return ()
    return tuple(sum(1 for r in shape if r > j) for j in range(shape[0]))


def boxes(shape: Shape):
    """All (row, col) box coordinates, 1-indexed."""
    for i, row in enumerate(shape, start=1):
        for j in range(1, row + 1):
            yield i, j


@lru_cache(maxsize=None)
def young_level(f: int) -> tuple[Shape, ...]:
    """All partitions of f, lexicographically sorted."""
    if f < 0:
        raise ValueError("negative level")
    out: set[Shape] = set()

    def grow(remaining: int, maximum: int, prefix: tuple[int, ...]):
        if remaining == 0:
            out.add(prefix)
            return
        for part in range(min(remaining, maximum), 0, -1):
            grow(remaining - part, part, prefix + (part,))

    grow(f, f, ())
    return tuple(sorted(out))


def bmw_level(f: int) -> tuple[Shape, ...]:
    """Partitions of f, f-2, f-4, ..., lexicographically sorted."""
    if f < 0:
        raise ValueError("negative level")
    out: list[Shape] = []
    for size in range(f, -1, -2):
        out.extend(young_level(size))
    return tuple(sorted(out))


def differ_by_one_box(a: Shape, b: Shape) -> bool:
    if abs(shape_size(a) - shape_size(b)) != 1:
        return False
    small, big = (a, b) if shape_size(a) < shape_size(b) else (b, a)
    padded = small + (0,) * (len(big) - len(small))
    if len(padded) != len(big):
        return False
    diffs = [bi - si for bi, si in zip(big, padded)]
    return diffs.count(0) == len(diffs) - 1 and diffs.count(1) == 1


# ---------------------------------------------------------------------------
# box statistics and trace weights


def _at(lengths: Shape, k: int) -> int:
    """Length k (1-indexed) of a shape or of its conjugate, 0 past the end:
    row k, or column k."""
    return lengths[k - 1] if k <= len(lengths) else 0


def _hook(shape: Shape, conj: Shape, i: int, j: int) -> int:
    """Arm + leg + 1 of the box (i, j)."""
    return shape[i - 1] - i + conj[j - 1] - j + 1


def _axial(shape: Shape, conj: Shape, i: int, j: int) -> int:
    """Axial statistic of the box (i, j): row_i + row_j - i - j + 1 on or
    above the diagonal, -(col_i + col_j) + i + j - 1 below it."""
    if i <= j:
        return _at(shape, i) + _at(shape, j) - i - j + 1
    return -_at(conj, i) - _at(conj, j) + i + j - 1


@lru_cache(maxsize=None)
def _box_factors(shape: Shape) -> tuple[tuple[LaurentPoly2, int], ...]:
    """Each box's numerator factor and hook length, with the conjugate
    computed once for the whole shape."""
    conj = conjugate(shape)
    out = []
    for i, j in boxes(shape):
        hook = _hook(shape, conj, i, j)
        if i == j:
            factor = _diagonal(shape[i - 1] - conj[j - 1], hook)
        else:
            factor = _gap(1, _axial(shape, conj, i, j))
        out.append((factor, hook))
    return tuple(out)


@lru_cache(maxsize=None)
def _diagonal(e: int, hook: int) -> LaurentPoly2:
    """r s^e - r^-1 s^-e + s^h - s^-h, the numerator factor of a diagonal
    box with row - col = e and hook length h (row + col - 2j + 1 of a
    diagonal box is its hook length); shapes share it."""
    return _gap(1, e) + _gap(0, hook)


@lru_cache(maxsize=None)
def _gap(k: int, e: int) -> LaurentPoly2:
    """r^k s^e - r^-k s^-e, 0 if k = e = 0: s^h - s^-h (k = 0) is the
    denominator factor of a box with hook length h, r s^d - r^-1 s^-d
    (k = 1) the numerator of a box off the diagonal; boxes share them."""
    return LaurentPoly2({(k, e): 1, (-k, -e): -1} if k or e else {})


def trace_weight(shape: Shape) -> Quotient:
    """The product-formula weight of a shape (1 for the empty shape).

    Assembled as one unreduced quotient: numerator and denominator are the
    products of the per-box factors.
    """
    num = den = ONE2
    for factor, hook in _box_factors(shape):
        num, den = num * factor, den * _gap(0, hook)
    return Quotient(num, den)


# ---------------------------------------------------------------------------
# Bratteli graphs


class BratteliGraph(Record):
    """Leveled graph of shapes with one-box edges and path counts."""

    _fields = ("levels", "edges", "path_counts")

    def __init__(self, levels: tuple[tuple[Shape, ...], ...],
                 edges: tuple[tuple[tuple[Shape, Shape], ...], ...],
                 path_counts: tuple[dict[Shape, int], ...]):
        init_field(self, "levels", levels)
        init_field(self, "edges", edges)  # per gap, (lower, upper)
        init_field(self, "path_counts", path_counts)

    @property
    def depth(self) -> int:
        return len(self.levels) - 1

    def path_count(self, shape: Shape, level: int) -> int:
        return self.path_counts[level][shape]


@lru_cache(maxsize=None)
def _level_shapes(k: int, n: int | None) -> tuple[Shape, ...]:
    """Level k of the generic graph (n None), or those of its shapes whose
    truncation rank is at most n."""
    if n is None:
        return bmw_level(k)
    return tuple(s for s in _level_shapes(k, None)
                 if _truncation_rank(s) <= n)


@lru_cache(maxsize=None)
def _level_edges(k: int, n: int | None) -> tuple[tuple[Shape, Shape], ...]:
    """The one-box edges from level k to level k + 1, lower shape first,
    then upper-level order.  A truncation, an induced subgraph on
    subsequences of the levels, keeps the generic edges between its shapes:
    those whose larger shape has rank at most n (``truncation_rule``)."""
    if n is not None:
        return tuple(compress(_level_edges(k, None),
                              map(n.__ge__, _edge_ranks(k))))
    upper = _level_shapes(k + 1, n)
    position = {s: idx for idx, s in enumerate(upper)}
    gap: list[tuple[Shape, Shape]] = []
    for lo in _level_shapes(k, n):
        found = sorted(position[s] for s in
                       _one_box_larger(lo) + _one_box_smaller(lo)
                       if s in position)
        gap.extend((lo, upper[idx]) for idx in found)
    return tuple(gap)


@lru_cache(maxsize=None)
def _edge_ranks(k: int) -> tuple[int, ...]:
    """The truncation rank of each generic edge's larger shape, in edge
    order, shared by every truncation: of two shapes one box apart, the
    larger is the lexicographically larger (a longer row, or one more)."""
    return tuple(_truncation_rank(hi if lo < hi else lo)
                 for lo, hi in _level_edges(k, None))


@lru_cache(maxsize=None)
def _level_counts(k: int, n: int | None) -> dict[Shape, int]:
    """Path counts on level k; ``_build_graph`` fills the levels bottom-up,
    so level k - 1 is cached already.  Shared: hand out copies only."""
    if not k:
        return {(): 1}
    below, counts = _level_counts(k - 1, n), dict.fromkeys(
        _level_shapes(k, n), 0)
    for lo, hi in _level_edges(k - 1, n):
        counts[hi] += below[lo]
    return counts


def _build_graph(depth: int, n: int | None = None) -> BratteliGraph:
    """The graph to ``depth``, truncated at rank n unless n is None; levels
    and edges are shared between calls, path counts are fresh dicts."""
    if depth < 0:
        raise ValueError("negative depth")
    levels = tuple(_level_shapes(k, n) for k in range(depth + 1))
    edges = tuple(_level_edges(k, n) for k in range(depth))
    counts = tuple(dict(_level_counts(k, n)) for k in range(depth + 1))
    return BratteliGraph(levels, edges, counts)


def generic_bratteli(depth: int) -> BratteliGraph:
    return _build_graph(depth)


def truncation_rule(shape: Shape, n: int) -> bool:
    """Survival criterion: first two column lengths sum to at most 2n + 1.

    With c = l'_1 + l'_2 that sum, c <= 2n + 1 holds exactly when n is at
    least rho = floor(c / 2), the shape's truncation rank: the least n whose
    truncation keeps it.  Adding a box lengthens one column by one, so c,
    and with it rho, never falls along an edge of the graph; a truncation
    keeps an edge's smaller shape whenever it keeps the larger one.
    """
    return _truncation_rank(shape) <= n


@lru_cache(maxsize=None)
def _truncation_rank(shape: Shape) -> int:
    """rho = floor((l'_1 + l'_2) / 2): the first column has one box per
    row, the second one per row that is not a single box."""
    return (2 * len(shape) - shape.count(1)) // 2


def specialized_weight_nonzero(shape: Shape, spec: Specialization) -> bool:
    """Whether the specialized trace weight is nonzero: specialization is a
    ring homomorphism into the integral domain Z[q, q^-1], so it is zero
    exactly when one box factor's image is.  The image of s^h - s^-h,
    +-(q^h - q^-h), vanishes only for h = 0, which raises."""
    nonzero = True
    for factor, hook in _box_factors(shape):
        if not hook:
            raise ZeroDivisionError("specialized weight denominator vanished")
        nonzero = nonzero and not specialize(factor, spec).is_zero
    return nonzero


def _one_box_smaller(shape: Shape) -> list[Shape]:
    out = []
    for i in range(len(shape)):
        nxt = shape[i + 1] if i + 1 < len(shape) else 0
        if shape[i] - 1 >= nxt:
            rows = list(shape)
            rows[i] -= 1
            if rows[-1] == 0:
                rows.pop()
            out.append(tuple(rows))
    return out


def _one_box_larger(shape: Shape) -> list[Shape]:
    """Shapes with one box added at the end of a row, or as a new row."""
    out = [shape[:i] + (shape[i] + 1,) + shape[i + 1:]
           for i in range(len(shape)) if i == 0 or shape[i - 1] > shape[i]]
    out.append(shape + (1,))
    return out


@lru_cache(maxsize=None)
def survives_truncation(shape: Shape, spec: Specialization) -> bool:
    """Membership in the truncated shape lattice, built inductively from the
    empty shape: a shape survives when its specialized weight is nonzero and
    some one-box-smaller shape already survives.

    Bare nonvanishing is not enough: shapes can have nonzero specialized
    weight while every chain down to the empty shape passes through a
    vanishing one, and those are cut.
    """
    if not shape:
        return True
    if not specialized_weight_nonzero(shape, spec):
        return False
    return any(survives_truncation(sub, spec) for sub in _one_box_smaller(shape))


def truncated_bratteli(spec: Specialization, depth: int) -> BratteliGraph:
    """Induced subgraph on the surviving shapes, path counts recomputed."""
    return _build_graph(depth, spec.n)


def sum_rule_check(f: int) -> bool:
    """Exact identity: the path-count-weighted sum of level-f trace weights
    equals x^f = X_NUM^f / (s - s^-1)^f.

    Every weight is num / H(hooks): num is the product of the shape's box
    factors, H(hooks) that of (s^h - s^-h) over its hook lengths, and
    s - s^-1 = H({1: 1}).  For C, the union (maximum multiplicity) of the
    level's hook multisets and of {1: f}, H(C) is a common multiple of
    every denominator, and multiplying by it gives

        sum count * num * H(C - hooks) - X_NUM^f * H(C - {1: f}) == 0.

    The Laurent ring is an integral domain and H(C) is nonzero, so the two
    identities hold or fail together, whatever form the products are
    written in.  Nothing is expanded or grouped: each shape, and x^f as
    count -1 with f factors X_NUM and hooks {1: f}, gives one tuple of
    factors, and ``sums_of_products_equal`` decides exactly whether the
    products sum to 0.
    """
    graph = generic_bratteli(f)
    terms = [(graph.path_count(shape, f), tuple(_box_factors(shape)))
             for shape in graph.levels[f]] + [(-1, ((X_NUM, 1),) * f)]
    hooks, common = [], {}  # per term, and for C: hook length -> multiplicity
    for _, boxes_ in terms:
        multiset: dict[int, int] = {}
        for _, h in boxes_:
            multiset[h] = multiset.get(h, 0) + 1
        hooks.append(multiset)
        for h, m in multiset.items():
            if m > common.get(h, 0):
                common[h] = m
    products = [(LaurentPoly2.const(count), *(factor for factor, _ in boxes_),
                 *(_gap(0, h) for h, m in common.items()
                   for _ in range(m - multiset.get(h, 0))))
                for (count, boxes_), multiset in zip(terms, hooks)]
    return sums_of_products_equal(products, [])


def path_pair_count(f: int) -> int:
    """Number of pairs of equal-shape paths of length f: the sum of squared
    path counts on level f."""
    graph = generic_bratteli(f)
    return sum(n * n for n in graph.path_counts[f].values())


PATH_ENUMERATION_CAP = 6  # (2f-1)!! growth; counting stays cheap, listing not


def enumerate_paths(graph: BratteliGraph, shape: Shape,
                    level: int) -> tuple[tuple[Shape, ...], ...]:
    """All paths from the empty shape at level 0 to ``shape`` at ``level``,
    as shape sequences.  Capped at PATH_ENUMERATION_CAP levels."""
    if level > PATH_ENUMERATION_CAP:
        raise ValueError(
            f"path enumeration capped at level {PATH_ENUMERATION_CAP}")
    if not 0 <= level <= graph.depth:
        raise ValueError(f"level {level} outside 0..{graph.depth}")
    if shape not in graph.levels[level]:
        raise ValueError(f"shape {list(shape)} is not on level {level}")
    table: dict[Shape, list[tuple[Shape, ...]]] = {(): [((),)]}
    for k in range(level):
        below = table
        table = {s: [] for s in graph.levels[k + 1]}
        for lo, hi in graph.edges[k]:
            for path in below.get(lo, ()):
                table[hi].append(path + (hi,))
    return tuple(sorted(table[shape]))


def specialized_weights_equal(shape: Shape, n: int) -> bool:
    """Whether r -> -q^(2n), s -> q (osp) and r -> q^(2n), s -> -q (so) give
    the same weight, decided from the term parities of the box factors.

    osp sends r^a s^b to (-1)^a q^(2na+b) and so to (-1)^b q^(2na+b), so a
    factor whose terms all have a + b = p (mod 2) has so image (-1)^p times
    its osp image, for every n; s^h - s^-h has parity h.  With flip the
    product over boxes of (-1)^(p + h), that is W(-r, -s) / W(r, s),
    num_osp den_so - num_so den_osp = (-1)^(sum h) (1 - flip) num_osp den_osp.
    den_osp is a product of nonzero q^h - q^-h (h >= 1) in the integral
    domain Z[q, q^-1], so the weights agree exactly when flip = +1 or the
    osp weight is zero.

    flip depends on the shape alone, not on n: ``_weight_flips`` computes
    it once per shape, so a sweep over n = 1..8 reads each shape's box
    factors once.  flip = offdiag_sign * split_sign, which the paper's
    sign lemma makes +1: an off-diagonal factor r s^d - r^-1 s^-d has
    parity d + 1, and d + h = row_j + col_j above the diagonal,
    row_i + col_i below it (mod 2); a diagonal factor has the parity of
    its hook.  A factor whose terms mix parities raises ValueError;
    ``_box_factors`` builds none.
    """
    return (not _weight_flips(shape)
            or not specialized_weight_nonzero(shape, Specialization.osp(n)))


@lru_cache(maxsize=None)
def _weight_flips(shape: Shape) -> bool:
    """Whether W(-r, -s) = -W(r, s): the product over boxes of (-1)^(p + h)
    is -1, with p the common parity of a + b over the terms r^a s^b of the
    box factor and h its hook length.  ValueError on a factor whose terms
    mix parities."""
    flip = 0
    for factor, hook in _box_factors(shape):
        parities = {(a + b) & 1 for a, b in factor._terms}
        if len(parities) > 1:
            raise ValueError(
                f"a box factor of shape {list(shape)} mixes term parities")
        flip ^= sum(parities) ^ hook
    return bool(flip & 1)


# ---------------------------------------------------------------------------
# sign bookkeeping behind the weight symmetry


def offdiag_sign(shape: Shape) -> int:
    """(-1) to the number of off-diagonal boxes."""
    count = sum(1 for i, j in boxes(shape) if i != j)
    return -1 if count % 2 else 1


def split_sign(shape: Shape) -> int:
    """Product over boxes above the diagonal of (-1)^(col_j + row_j) and
    below the diagonal of (-1)^(row_i + col_i), by direct enumeration."""
    conj = conjugate(shape)
    sign = 1
    for i, j in boxes(shape):
        if i < j:
            if (_at(conj, j) + _at(shape, j)) % 2:
                sign = -sign
        elif i > j:
            if (_at(shape, i) + _at(conj, i)) % 2:
                sign = -sign
    return sign


def border_boxes(shape: Shape, k: int) -> tuple[list, list]:
    """The horizontal and vertical box sets of index k: boxes (k, j) with
    j <= min(k-1, row_k) and boxes (i, k) with i <= min(k-1, col_k)."""
    return _border(shape, conjugate(shape), k)


def _border(shape: Shape, conj: Shape, k: int) -> tuple[list, list]:
    hor = [(k, j) for j in range(1, min(k - 1, _at(shape, k)) + 1)]
    ver = [(i, k) for i in range(1, min(k - 1, _at(conj, k)) + 1)]
    return hor, ver


def border_sign_identity(shape: Shape, k: int) -> bool:
    """Local sign identity at index k: (-1)^(|hor| + |ver|) equals the
    product over those boxes of (-1)^(row_k + col_k)."""
    conj = conjugate(shape)
    row_k, col_k = _at(shape, k), _at(conj, k)
    hor, ver = _border(shape, conj, k)
    lhs = -1 if (len(hor) + len(ver)) % 2 else 1
    rhs = 1
    for _ in ver:
        if (col_k + row_k) % 2:
            rhs = -rhs
    for _ in hor:
        if (row_k + col_k) % 2:
            rhs = -rhs
    return lhs == rhs


def sign_identity_check(shape: Shape) -> bool:
    """Global sign identity plus every local one, all by brute-force box
    enumeration."""
    top = max(len(shape), shape[0] if shape else 0)
    locals_hold = all(border_sign_identity(shape, k) for k in range(1, top + 1))
    return locals_hold and offdiag_sign(shape) == split_sign(shape)


# ---------------------------------------------------------------------------
# rendering


def shape_label(shape: Shape) -> str:
    return "[" + ",".join(str(r) for r in shape) + "]"


def bratteli_dot(graph: BratteliGraph, title: str = "bratteli") -> str:
    """Deterministic DOT rendering: one rank per level, the empty shape as a
    circle, all other shapes as boxed partition labels."""
    lines = [f'graph "{title}" {{', "  rankdir=TB;",
             '  node [shape=box, fontname="monospace"];']
    index: dict[tuple[int, Shape], str] = {}
    for k, level in enumerate(graph.levels):
        names = []
        for idx, shape in enumerate(level):
            name = f"v{k}_{idx}"
            index[(k, shape)] = name
            if shape:
                lines.append(f'  {name} [label="{shape_label(shape)}"];')
            else:
                lines.append(f'  {name} [label="", shape=circle];')
            names.append(name)
        lines.append("  { rank=same; " + "; ".join(names) + "; }")
    for k, gap in enumerate(graph.edges):
        for lo, hi in sorted(gap):
            lines.append(f"  {index[(k, lo)]} -- {index[(k + 1, hi)]};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def bratteli_json(graph: BratteliGraph, kind: str) -> str:
    doc = {
        "schema": 1,
        "kind": kind,
        "depth": graph.depth,
        "levels": [
            {
                "level": k,
                "vertices": [
                    {"shape": list(shape), "paths": graph.path_count(shape, k)}
                    for shape in level
                ],
            }
            for k, level in enumerate(graph.levels)
        ],
        "edges": [
            {"level": k,
             "pairs": [[list(lo), list(hi)] for lo, hi in sorted(gap)]}
            for k, gap in enumerate(graph.edges)
        ],
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"
