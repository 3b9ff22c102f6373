"""Closed 4-valent planar diagrams of braid closures and their local moves.

A diagram is a set of crossings plus a perfect matching (the arcs) on their
half-edges, together with a count of crossing-free closed loops.  Half-edge
``h`` is slot ``h % 4`` of crossing ``h // 4``, so crossing ``c`` owns
half-edges ``4c .. 4c + 3``, and no move renumbers a half-edge.  The slots
run counterclockwise (bottom-left, bottom-right, top-right, top-left as
created inside a braid), so ``h ^ 2`` is the opposite slot on the same
crossing.  Each crossing stores only its ``over`` bit, naming the
over-diagonal:

* ``over == 1``: the diagonal through slots 1 and 3 is over (the positive
  braid letter),
* ``over == 0``: the diagonal through slots 0 and 2 is over (the inverse).

The slot order fixes the two smoothings once and for all: the parallel
smoothing joins slots (0,3) and (1,2), the cap smoothing joins (0,1) and
(2,3).  ``reduce`` deletes kinks (Reidemeister I) and pokes (Reidemeister
II bigons) from a worklist of crossings, joining each deleted crossing's
slots straight, (0,2) and (1,3), and rechecking only the crossings at the
ends of the arcs a deletion made.  The smoothings and ``reduce`` delete
crossings through one in-place splice of an arc dict, ``_splice``; no
diagram's own dicts are ever changed, so diagrams may share them.
Geometric crossing signs and kink signs are derived from the same slot
order, so every convention lives in this one module.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable

from .record import Record, init_field


PAR_PAIRS = ((0, 3), (1, 2))
CAP_PAIRS = ((0, 1), (2, 3))
STRAIGHT_PAIRS = ((0, 2), (1, 3))


Traversal = namedtuple("Traversal", "components switch_candidate writhe")
Traversal.__doc__ = """Strand walk of a diagram from deterministic base points:
the number of closed strands through crossings, the first crossing met on
its under-strand (None if there is none), and the writhe, the sum of the
geometric crossing signs."""


class PlanarDiagram(Record):
    """Immutable closed diagram: crossings, arcs and free loops.

    ``crossings`` maps each crossing id to its over bit; ``arcs`` maps each
    half-edge to its partner (a symmetric involution without fixed points).
    """

    _fields = ("crossings", "arcs", "free_loops")

    def __init__(self, crossings: dict[int, int], arcs: dict[int, int],
                 free_loops: int = 0):
        init_field(self, "crossings", crossings)
        init_field(self, "arcs", arcs)
        init_field(self, "free_loops", free_loops)

    def validate(self) -> None:
        """Check the half-edge bookkeeping; raises on inconsistency."""
        for cid, over in self.crossings.items():
            if cid < 0 or over not in (0, 1):
                raise ValueError(f"crossing {cid} has bad id or over bit {over}")
        if set(self.arcs) != {4 * cid + i for cid in self.crossings
                              for i in range(4)}:
            raise ValueError("arc endpoints do not match crossing slots")
        for a, b in self.arcs.items():
            if a == b or self.arcs[b] != a:
                raise ValueError("arcs are not a fixed-point-free involution")
        if self.free_loops < 0:
            raise ValueError("negative free loop count")
        if not self.crossings and self.free_loops < 1:
            raise ValueError("empty diagram")

    @property
    def crossing_count(self) -> int:
        return len(self.crossings)

    # -- strand traversal ------------------------------------------------------

    def traverse(self) -> Traversal:
        """Walk every closed strand, starting each component at its smallest
        half-edge id; derive the switch candidate and the geometric writhe.

        A crossing is descending-compatible when its first passage (in the
        global walk order) runs along the over-diagonal; the first crossing
        violating this is the switch candidate.  The geometric sign of a
        crossing is +1 exactly when the over-strand enters one slot
        counterclockwise from the under-strand's entry.
        """
        visited: set[int] = set()
        components = 0
        entries: dict[int, list[int]] = {cid: [] for cid in self.crossings}
        switch: int | None = None
        # Crossing c owns half-edges 4c .. 4c + 3, and a strand through it
        # holds slots 0 and 2 or slots 1 and 3, so 4c and 4c + 1 are the only
        # possible smallest half-edges of a strand: ascending starts.
        for c in sorted(self.crossings):
            for h0 in (4 * c, 4 * c + 1):
                if h0 in visited:
                    continue
                components += 1
                h = h0
                while True:
                    visited.add(h)
                    h2 = self.arcs[h]
                    visited.add(h2)
                    cid, slot = divmod(h2, 4)
                    first = not entries[cid]
                    entries[cid].append(slot)
                    if (first and switch is None
                            and slot % 2 != self.crossings[cid]):
                        switch = cid
                    h = h2 ^ 2
                    if h == h0:
                        break
        writhe = 0
        for cid, ent in entries.items():
            e1, e2 = ent
            over = self.crossings[cid]
            over_entry, under_entry = (e1, e2) if e1 % 2 == over else (e2, e1)
            writhe += 1 if (over_entry - under_entry) % 4 == 1 else -1
        return Traversal(components, switch, writhe)

    # -- local moves -----------------------------------------------------------

    def with_switched(self, cid: int) -> PlanarDiagram:
        """Flip the over-diagonal of one crossing."""
        crossings = dict(self.crossings)
        crossings[cid] = 1 - crossings[cid]
        return PlanarDiagram(crossings, self.arcs, self.free_loops)

    def _contract(self, cid: int, pairs) -> PlanarDiagram:
        """Delete crossing ``cid``, joining its slots as ``pairs`` says."""
        arcs = dict(self.arcs)
        loops, _ = _splice(arcs, (cid,), pairs)
        crossings = dict(self.crossings)
        del crossings[cid]
        return PlanarDiagram(crossings, arcs, self.free_loops + loops)

    def resolve(self, cid: int) -> tuple[PlanarDiagram, PlanarDiagram, PlanarDiagram]:
        """Return (switched, parallel smoothing, cap smoothing) at a crossing."""
        if cid not in self.crossings:
            raise KeyError(f"crossing {cid} not in diagram")
        return (self.with_switched(cid),
                self._contract(cid, PAR_PAIRS),
                self._contract(cid, CAP_PAIRS))

    def neighbours(self, cid: int) -> set[int]:
        """The other crossings that share an arc with crossing ``cid``."""
        arcs = self.arcs
        return {arcs[h] // 4 for h in range(4 * cid, 4 * cid + 4)} - {cid}

    def reduce(self, pokes: bool = True,
               near: Iterable[int] | None = None) -> tuple[PlanarDiagram, int]:
        """Delete every kink and, if ``pokes``, every poke; return the
        reduced diagram and the signed kink count.

        Let ``n`` be the next slot after half-edge ``h`` on its crossing.  A
        kink is an arc from ``h`` to ``n``, of sign +1 exactly when ``h``
        lies on the over-diagonal.  A poke is a bigon on two crossings: ``h``
        meets ``h2`` on another crossing and ``n`` meets the slot before
        ``h2``, and the strand through ``h`` and ``h2`` is over at both or
        under at both; the test finds it from either crossing.  Undoing a
        poke never changes the diagram value.

        The crossings ``near`` (default: all) start a worklist.  Each popped
        crossing that still exists is tested; a found move is spliced out of
        a private copy of the dicts, taken at the first move, and the
        crossings at the ends of the arcs it made are pushed, since any new
        move uses such an arc.  So ``near`` must hold a crossing of every
        move in the diagram.  With no move found, ``self`` is returned.
        """
        crossings, arcs = self.crossings, self.arcs
        todo = list(crossings if near is None else near)
        kink_sum = loops = 0
        copied = False
        while todo:
            c = todo.pop()
            if c not in crossings:
                continue
            gone: tuple[int, ...] = ()
            for h in range(4 * c, 4 * c + 4):
                h2 = arcs[h]
                n = 4 * c + (h + 1) % 4
                over = h % 2 == crossings[c]
                if h2 == n:
                    gone = (c,)
                    kink_sum += 1 if over else -1
                    break
                if pokes:
                    d = h2 // 4
                    if (d != c and arcs[n] == 4 * d + (h2 - 1) % 4
                            and over == (h2 % 2 == crossings[d])):
                        gone = (c, d)
                        break
            if not gone:
                continue
            if not copied:
                crossings, arcs, copied = dict(crossings), dict(arcs), True
            for g in gone:
                del crossings[g]
            closed, ends = _splice(arcs, gone, STRAIGHT_PAIRS)
            loops += closed
            todo.extend(h // 4 for h in ends)
        if not copied:
            return self, 0
        return PlanarDiagram(crossings, arcs, self.free_loops + loops), kink_sum

    # -- decomposition ---------------------------------------------------------

    def connected_parts(self) -> list[PlanarDiagram]:
        """Split the crossing graph along arcs into connected sub-diagrams.

        Free loops stay with the caller: every part is returned with
        free_loops = 0.  A diagram that is one part shares its dicts with
        that part, and is itself the part when it has no free loops.
        """
        remaining = set(self.crossings)
        parts: list[PlanarDiagram] = []
        while remaining:
            seed = min(remaining)
            group = {seed}
            frontier = [seed]
            while frontier:
                cid = frontier.pop()
                for h in range(4 * cid, 4 * cid + 4):
                    nid = self.arcs[h] // 4
                    if nid not in group:
                        group.add(nid)
                        frontier.append(nid)
            remaining -= group
            if not parts and not remaining:
                return [self if not self.free_loops
                        else PlanarDiagram(self.crossings, self.arcs, 0)]
            crossings = {cid: self.crossings[cid] for cid in sorted(group)}
            arcs = {a: b for a, b in self.arcs.items() if a // 4 in group}
            parts.append(PlanarDiagram(crossings, arcs, 0))
        return parts

    # -- canonical form --------------------------------------------------------

    def canonical_key(self) -> tuple[int, ...]:
        """Int tuple invariant under relabeling of crossings.

        From a start crossing, crossings are labeled breadth-first, visiting
        each crossing's slots in order.  In label order, each crossing
        contributes its ``over`` bit, then ``4 * label + slot`` of each
        slot's arc partner; this describes the diagram completely up to
        relabeling.  The smallest tuple over all start crossings is kept, so
        isomorphic labelings collide.  Connected diagrams only.  A
        crossing-less diagram has key ``(free_loops,)``, a length no key of
        a diagram with crossings has.

        A start whose key ties the best's yields the automorphism
        ``best_order[i] -> order[i]``; every start on its cycle through that
        start ties too and is skipped.  The key is unchanged: on a torus
        closure T(2, m), where every start ties, one tie skips all the rest.
        """
        if not self.crossings:
            return (self.free_loops,)
        partners = {cid: tuple(divmod(self.arcs[h], 4)
                               for h in range(4 * cid, 4 * cid + 4))
                    for cid in self.crossings}
        best = None
        skip: set[int] = set()
        for start in self.crossings:
            if start in skip:
                continue
            label = {start: 0}
            order = [start]
            key: list[int] = []
            for cid in order:  # grows while it is read: breadth-first
                key.append(self.crossings[cid])
                for pid, pslot in partners[cid]:
                    if pid not in label:
                        label[pid] = len(order)
                        order.append(pid)
                    key.append(4 * label[pid] + pslot)
            if len(order) != len(self.crossings):
                raise ValueError("canonical form requires a connected diagram")
            if best is None or key < best:
                best, best_order = key, order
            elif key == best:
                image = dict(zip(best_order, order))
                cid = image[start]
                while cid != start:
                    skip.add(cid)
                    cid = image[cid]
        return tuple(best)

    def debug_dump(self) -> str:
        lines = [f"free_loops {self.free_loops}"]
        for cid in sorted(self.crossings):
            lines.append(f"crossing {cid} over {self.crossings[cid]}")
        for a in sorted(self.arcs):
            if a < self.arcs[a]:
                lines.append(f"arc {a} {self.arcs[a]}")
        if not self.crossings or len(self.connected_parts()) == 1:
            key = " ".join(map(str, self.canonical_key()))
            lines.append(f"key {key}")
        return "\n".join(lines)


def _splice(arcs: dict[int, int], cids: Iterable[int],
            pairs) -> tuple[int, list[int]]:
    """Delete the crossings ``cids`` from ``arcs`` in place, joining the
    slots of each as ``pairs`` says; the only code that deletes crossings.

    Only the deleted half-edges and the arcs that leave them are touched.
    Each outside half-edge whose arc led in is wired to the far end of its
    chain of join and arc hops; each chain that closes up inside the deleted
    crossings is one free loop.  Returns the number of such loops and the
    ends of the new arcs.
    """
    join: dict[int, int] = {}
    for cid in cids:
        for i, j in pairs:
            join[4 * cid + i] = 4 * cid + j
            join[4 * cid + j] = 4 * cid + i
    ends: list[int] = []
    for h in join:
        a = arcs.get(h)
        if a is None or a in join:  # spliced already, or inside the chain
            continue
        b = h
        while b in join:
            del arcs[b]
            b = arcs.pop(join[b])
        arcs[a] = b
        arcs[b] = a
        ends += (a, b)
    loops = 0
    for h in join:
        if h in arcs:  # left on a chain closed inside the deleted crossings
            loops += 1
            while h in arcs:
                del arcs[h]
                h = arcs.pop(join[h])
    return loops, ends
