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
"""

from __future__ import annotations

import json
from collections import Counter
from collections.abc import Mapping
from dataclasses import dataclass
from functools import lru_cache

from .laurent import (DELTA, ONE2, X_NUM, ZERO2, LaurentPoly1, LaurentPoly2,
                      Quotient, Specialization, s_pow, specialize,
                      sums_of_products_equal)

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


def _check_box(shape: Shape, i: int, j: int) -> None:
    if not (1 <= i <= len(shape) and 1 <= j <= shape[i - 1]):
        raise ValueError(f"box ({i}, {j}) outside shape {list(shape)}")


def _hook(shape: Shape, conj: Shape, i: int, j: int) -> int:
    return shape[i - 1] - i + conj[j - 1] - j + 1


def _axial(shape: Shape, conj: Shape, i: int, j: int) -> int:
    if i <= j:
        row_i = shape[i - 1]
        row_j = shape[j - 1] if j <= len(shape) else 0
        return row_i + row_j - i - j + 1
    col_i = conj[i - 1] if i <= len(conj) else 0
    col_j = conj[j - 1]
    return -col_i - col_j + i + j - 1


def hook_length(shape: Shape, i: int, j: int) -> int:
    """Arm + leg + 1 of the 1-indexed box (i, j)."""
    _check_box(shape, i, j)
    return _hook(shape, conjugate(shape), i, j)


def d_stat(shape: Shape, i: int, j: int) -> int:
    """Axial statistic of the box (i, j): row_i + row_j - i - j + 1 above the
    diagonal, -(col_i + col_j) + i + j - 1 below it."""
    _check_box(shape, i, j)
    return _axial(shape, conjugate(shape), i, j)


def _box_factors(shape: Shape):
    """Each box's numerator factor and hook length, with the conjugate
    computed once for the whole shape."""
    conj = conjugate(shape)
    for i, j in boxes(shape):
        hook = _hook(shape, conj, i, j)
        if i == j:
            # row + col - 2j + 1 of a diagonal box is its hook length
            a = shape[i - 1] - conj[j - 1]
            factor = LaurentPoly2({(1, a): 1, (-1, -a): -1,
                                   (0, hook): 1, (0, -hook): -1})
        else:
            d = _axial(shape, conj, i, j)
            factor = LaurentPoly2({(1, d): 1, (-1, -d): -1})
        yield factor, hook


def _weight_parts(shape: Shape) -> tuple[LaurentPoly2, Counter]:
    """Numerator of a shape's trace weight (the product of the per-box
    numerator factors) and the multiset of its hook lengths."""
    num = ONE2
    hooks: Counter = Counter()
    for factor, hook in _box_factors(shape):
        num = num * factor
        hooks[hook] += 1
    return num, hooks


def _hook_product(hooks: Mapping[int, int]) -> LaurentPoly2:
    """The product of (s^h - s^-h)^m over the hook multiset {h: m}."""
    out = ONE2
    for h, m in sorted(hooks.items()):
        out = out * (s_pow(h) - s_pow(-h)) ** m
    return out


def trace_weight(shape: Shape) -> Quotient:
    """The product-formula weight of a shape (1 for the empty shape).

    Assembled as one unreduced quotient: numerator and denominator are the
    products of the per-box factors.
    """
    num, hooks = _weight_parts(shape)
    return Quotient(num, _hook_product(hooks))


def matrix_unit_trace(shape: Shape, f: int) -> Quotient:
    """Trace of a diagonal matrix unit at level f: weight(shape) / x^f."""
    if shape not in bmw_level(f):
        raise ValueError(f"shape {list(shape)} is not on level {f}")
    w = trace_weight(shape)
    return Quotient(w.num * DELTA**f, w.den * X_NUM**f)


# ---------------------------------------------------------------------------
# Bratteli graphs


@dataclass(frozen=True)
class BratteliGraph:
    """Leveled graph of shapes with one-box edges and path counts."""

    levels: tuple[tuple[Shape, ...], ...]
    edges: tuple[tuple[tuple[Shape, Shape], ...], ...]  # per gap, (lower, upper)
    path_counts: tuple[dict[Shape, int], ...]

    @property
    def depth(self) -> int:
        return len(self.levels) - 1

    def path_count(self, shape: Shape, level: int) -> int:
        return self.path_counts[level][shape]


def _build_graph(depth: int, keep=None) -> BratteliGraph:
    if depth < 0:
        raise ValueError("negative depth")
    levels: list[tuple[Shape, ...]] = []
    for k in range(depth + 1):
        shapes = bmw_level(k)
        if keep is not None:
            shapes = tuple(s for s in shapes if keep(s))
        levels.append(shapes)
    edges: list[tuple[tuple[Shape, Shape], ...]] = []
    counts: list[dict[Shape, int]] = [{(): 1}]
    for k in range(depth):
        upper = levels[k + 1]
        position = {s: idx for idx, s in enumerate(upper)}
        gap: list[tuple[Shape, Shape]] = []
        for lo in levels[k]:
            found = sorted(position[s] for s in
                           _one_box_larger(lo) + _one_box_smaller(lo)
                           if s in position)
            gap.extend((lo, upper[idx]) for idx in found)
        edges.append(tuple(gap))
        level_counts: dict[Shape, int] = {s: 0 for s in upper}
        for lo, hi in gap:
            level_counts[hi] += counts[k][lo]
        counts.append(level_counts)
    return BratteliGraph(tuple(levels), tuple(edges), tuple(counts))


def generic_bratteli(depth: int) -> BratteliGraph:
    return _build_graph(depth)


def truncation_rule(shape: Shape, n: int) -> bool:
    """Survival criterion: first two column lengths sum to at most 2n + 1.

    The first column has one box per row, the second one per row of
    length at least 2.
    """
    second = sum(1 for row in shape if row >= 2)
    return len(shape) + second <= 2 * n + 1


def specialized_weight_nonzero(shape: Shape, spec: Specialization) -> bool:
    """Whether the specialized trace weight is nonzero (the numerator does
    not specialize to the zero polynomial in q)."""
    w = trace_weight(shape)
    num = specialize(w.num, spec)
    den = specialize(w.den, spec)
    if den.is_zero:
        raise ZeroDivisionError("specialized weight denominator vanished")
    return not num.is_zero


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
    return _build_graph(depth, keep=lambda s: truncation_rule(s, spec.n))


def sum_rule_check(f: int) -> bool:
    """Exact identity: the path-count-weighted sum of level-f trace weights
    equals x^f = X_NUM^f / (s - s^-1)^f.

    Every weight is num / H(hooks), with H(hooks) the product of
    (s^h - s^-h) over the shape's hook lengths, and s - s^-1 = H({1: 1}).
    Take C, the union (maximum multiplicity) of the level's hook
    multisets and of {1: f}; H(C) is a common multiple of every
    denominator.  Multiplying both sides by H(C) turns the identity into
    one between Laurent polynomials,

        sum count * num * H(C - hooks) == X_NUM^f * H(C - {1: f}),

    and since the Laurent ring is an integral domain and H(C) is nonzero,
    the two identities hold or fail together.

    Shapes with equal hook multisets share the factor H(C - hooks) (a
    shape and its conjugate always do), so the left side is summed as
    sum over groups of H(C - hooks) * (sum of count * num in the group):
    the same polynomial by distributivity, with one product per group
    instead of one per shape.  Those products and X_NUM^f * H(C - {1: f})
    are not expanded: ``sums_of_products_equal`` compares the two sums of
    products exactly by Kronecker substitution.
    """
    graph = generic_bratteli(f)
    groups: dict[frozenset, LaurentPoly2] = {}
    common = Counter({1: f})
    for shape in graph.levels[f]:
        num, hooks = _weight_parts(shape)
        key = frozenset(hooks.items())
        groups[key] = groups.get(key, ZERO2) + num * graph.path_count(shape, f)
        common |= hooks
    lhs = [(partial, _hook_product(common - Counter(dict(key))))
           for key, partial in groups.items()]
    rhs = [(X_NUM,) * f + (_hook_product(common - Counter({1: f})),)]
    return sums_of_products_equal(lhs, rhs)


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
    """Whether the two specializations r -> -q^(2n), s -> q and
    r -> q^(2n), s -> -q give the same weight, by cross-multiplication.

    Specialization is a ring homomorphism, so the specialized numerator
    and denominator are the products of the specialized box factors and
    of the specialized (s^h - s^-h); the two-variable weight is never
    built.  The check is then num_osp * den_so == num_so * den_osp, in
    full: no sign rule is assumed.  Both sides stay unexpanded products of
    specialized factors, compared exactly by ``sums_of_products_equal``.
    """
    osp, so = Specialization.osp(n), Specialization.so(n)
    lhs: list[LaurentPoly1] = []  # num_osp * den_so
    rhs: list[LaurentPoly1] = []  # num_so * den_osp
    for factor, hook in _box_factors(shape):
        gap = s_pow(hook) - s_pow(-hook)
        lhs += specialize(factor, osp), specialize(gap, so)
        rhs += specialize(factor, so), specialize(gap, osp)
    return sums_of_products_equal([tuple(lhs)], [tuple(rhs)])


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

    def row(k: int) -> int:
        return shape[k - 1] if k <= len(shape) else 0

    def col(k: int) -> int:
        return conj[k - 1] if k <= len(conj) else 0

    sign = 1
    for i, j in boxes(shape):
        if i < j:
            if (col(j) + row(j)) % 2:
                sign = -sign
        elif i > j:
            if (row(i) + col(i)) % 2:
                sign = -sign
    return sign


def border_boxes(shape: Shape, k: int) -> tuple[list, list]:
    """The horizontal and vertical box sets of index k: boxes (k, j) with
    j <= min(k-1, row_k) and boxes (i, k) with i <= min(k-1, col_k)."""
    conj = conjugate(shape)
    row_k = shape[k - 1] if k <= len(shape) else 0
    col_k = conj[k - 1] if k <= len(conj) else 0
    hor = [(k, j) for j in range(1, min(k - 1, row_k) + 1)]
    ver = [(i, k) for i in range(1, min(k - 1, col_k) + 1)]
    return hor, ver


def border_sign_identity(shape: Shape, k: int) -> bool:
    """Local sign identity at index k: (-1)^(|hor| + |ver|) equals the
    product over those boxes of (-1)^(row_k + col_k)."""
    conj = conjugate(shape)
    row_k = shape[k - 1] if k <= len(shape) else 0
    col_k = conj[k - 1] if k <= len(conj) else 0
    hor, ver = border_boxes(shape, k)
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
