import random

import pytest
from hypothesis import given, settings, strategies as st

from bwmlink import diagram as diagram_module
from bwmlink.braid import BraidWord, closure_diagram, parse_braid
from bwmlink.diagram import PlanarDiagram, Traversal
from bwmlink.skein import SkeinEngine


def relabeled(d: PlanarDiagram, seed: int) -> PlanarDiagram:
    """Apply a random permutation to crossing ids; each half-edge follows
    its crossing and keeps its slot."""
    rng = random.Random(seed)
    cids = sorted(d.crossings)
    cperm = dict(zip(cids, rng.sample(cids, len(cids))))

    def move(h):
        return 4 * cperm[h // 4] + h % 4

    crossings = {cperm[cid]: over for cid, over in d.crossings.items()}
    arcs = {move(a): move(b) for a, b in d.arcs.items()}
    return PlanarDiagram(crossings, arcs, d.free_loops)


def reference_remove_curls(d: PlanarDiagram) -> tuple[PlanarDiagram, int]:
    """One kink at a time, in sorted crossing order, with its own arc
    splice: the sweeps of reduce(pokes=False) must agree with it."""
    diagram = d
    total = 0
    while True:
        found = None
        for cid in sorted(diagram.crossings):
            for a in range(4):
                if diagram.arcs[4 * cid + a] == 4 * cid + (a + 1) % 4:
                    found = (cid, a)
                    break
            if found:
                break
        if not found:
            return diagram, total
        cid, a = found
        total += 1 if a % 2 == diagram.crossings[cid] else -1
        b1, b2 = 4 * cid + (a + 2) % 4, 4 * cid + (a + 3) % 4
        p1, p2 = diagram.arcs[b1], diagram.arcs[b2]
        new_arcs = {x: y for x, y in diagram.arcs.items()
                    if x // 4 != cid and y // 4 != cid}
        loops = diagram.free_loops
        if p1 == b2:
            loops += 1
        else:
            new_arcs[p1] = p2
            new_arcs[p2] = p1
        crossings = dict(diagram.crossings)
        del crossings[cid]
        diagram = PlanarDiagram(crossings, new_arcs, loops)


def reference_canonical_key(d: PlanarDiagram) -> tuple[int, ...]:
    """A full breadth-first labelling from every start crossing, the
    smallest kept: canonical_key's orbit skip must agree with it."""
    if not d.crossings:
        return (d.free_loops,)
    partners = {cid: tuple(divmod(d.arcs[h], 4)
                           for h in range(4 * cid, 4 * cid + 4))
                for cid in d.crossings}
    best = None
    for start in d.crossings:
        label = {start: 0}
        order = [start]
        key: list[int] = []
        for cid in order:
            key.append(d.crossings[cid])
            for pid, pslot in partners[cid]:
                if pid not in label:
                    label[pid] = len(order)
                    order.append(pid)
                key.append(4 * label[pid] + pslot)
        if len(order) != len(d.crossings):
            raise ValueError("canonical form requires a connected diagram")
        if best is None or key < best:
            best = key
    return tuple(best)


def reference_traverse(d: PlanarDiagram) -> Traversal:
    """The strand walk started from every half-edge in sorted order, the
    reference for traverse's starts at 4c and 4c + 1."""
    visited: set[int] = set()
    components = 0
    entries: dict[int, list[int]] = {cid: [] for cid in d.crossings}
    switch = None
    for h0 in sorted(d.arcs):
        if h0 in visited:
            continue
        components += 1
        h = h0
        while True:
            visited.add(h)
            h2 = d.arcs[h]
            visited.add(h2)
            cid, slot = divmod(h2, 4)
            first = not entries[cid]
            entries[cid].append(slot)
            if first and switch is None and slot % 2 != d.crossings[cid]:
                switch = cid
            h = h2 ^ 2
            if h == h0:
                break
    writhe = 0
    for cid, ent in entries.items():
        e1, e2 = ent
        over = d.crossings[cid]
        over_entry, under_entry = (e1, e2) if e1 % 2 == over else (e2, e1)
        writhe += 1 if (over_entry - under_entry) % 4 == 1 else -1
    return Traversal(components, switch, writhe)


@st.composite
def small_words(draw, max_strands=4, max_len=6):
    f = draw(st.integers(2, max_strands))
    n = draw(st.integers(1, max_len))
    letters = tuple(
        (draw(st.integers(1, f - 1)), draw(st.sampled_from((1, -1))))
        for _ in range(n))
    return BraidWord(f, letters)


class TestResolve:
    def test_single_crossing_closure(self):
        d = closure_diagram(parse_braid("B2: 1"))
        switched, par, cap = d.resolve(0)
        assert switched == closure_diagram(parse_braid("B2: -1"))
        assert par.crossing_count == 0 and par.free_loops == 2
        assert cap.crossing_count == 0 and cap.free_loops == 1

    def test_hopf_parallel_smoothing(self):
        d = closure_diagram(parse_braid("B2: 1 1"))
        _, par, _ = d.resolve(1)
        # the parallel smoothing of the top crossing is the one-crossing closure
        one = closure_diagram(parse_braid("B2: 1"))
        assert par.canonical_key() == one.canonical_key()

    def test_hopf_cap_smoothing_is_opposite_kink(self):
        d = closure_diagram(parse_braid("B2: 1 1"))
        _, _, cap = d.resolve(0)
        assert cap.crossing_count == 1 and cap.free_loops == 0
        reduced, kinks = cap.reduce(pokes=False)
        assert kinks == -1
        assert reduced.crossing_count == 0 and reduced.free_loops == 1

    def test_missing_crossing(self):
        d = closure_diagram(parse_braid("B2: 1"))
        try:
            d.resolve(7)
        except KeyError:
            pass
        else:
            raise AssertionError("expected KeyError")

    @given(small_words(), st.integers(0, 10**6))
    @settings(max_examples=50)
    def test_disjoint_resolutions_commute(self, w, pick):
        d = closure_diagram(w)
        if d.crossing_count < 2:
            return
        cids = sorted(d.crossings)
        rng = random.Random(pick)
        c1, c2 = rng.sample(cids, 2)
        for way1 in range(3):
            for way2 in range(3):
                ab = d.resolve(c1)[way1]
                if c2 in ab.crossings:
                    ab = ab.resolve(c2)[way2]
                    ba = d.resolve(c2)[way2]
                    if c1 not in ba.crossings:
                        continue
                    ba = ba.resolve(c1)[way1]
                    assert ab == ba


class TestRemoveCurls:
    def test_positive_kink(self):
        d = closure_diagram(parse_braid("B2: 1"))
        reduced, kinks = d.reduce(pokes=False)
        assert kinks == 1
        assert reduced.crossing_count == 0 and reduced.free_loops == 1

    def test_negative_kink(self):
        # both arcs of the one-crossing closure are kink arcs: one loop
        d = closure_diagram(parse_braid("B2: -1"))
        assert d.arcs[1] == 2
        assert d.arcs[3] == 0
        reduced, kinks = d.reduce(pokes=False)
        assert kinks == -1
        assert reduced.crossing_count == 0 and reduced.free_loops == 1

    def test_no_crossings_untouched(self):
        d = closure_diagram(parse_braid("B3:"))
        reduced, kinks = d.reduce(pokes=False)
        assert kinks == 0 and reduced == d

    def test_kink_then_poke(self):
        # the first letter closes into a kink; the cancelling pair that
        # remains is a poke, not a kink, and stays without poke removal
        d = closure_diagram(parse_braid("B3: 1 2 -2"))
        reduced, kinks = d.reduce(pokes=False)
        assert kinks == 1
        assert reduced.crossing_count == 2

    def test_kink_and_poke(self):
        # with poke removal the cancelling pair goes too: r times two loops
        d = closure_diagram(parse_braid("B3: 1 2 -2"))
        reduced, kinks = d.reduce()
        assert kinks == 1
        assert reduced.crossing_count == 0 and reduced.free_loops == 2

    def test_cascading_kinks(self):
        # each stabilization letter closes into its own kink once the one
        # above it is gone
        d = closure_diagram(parse_braid("B3: 1 2"))
        reduced, kinks = d.reduce(pokes=False)
        assert kinks == 2
        assert reduced.crossing_count == 0 and reduced.free_loops == 1

    def test_hopf_has_no_kinks(self):
        d = closure_diagram(parse_braid("B2: 1 1"))
        reduced, kinks = d.reduce(pokes=False)
        assert kinks == 0 and reduced.crossing_count == 2


class TestValidate:
    """Half-edge h is slot h % 4 of crossing h // 4; validate enforces it."""

    def test_closure_is_valid(self):
        closure_diagram(parse_braid("B3: 1 -2 1")).validate()

    def test_arc_endpoint_on_absent_crossing(self):
        d = closure_diagram(parse_braid("B2: 1 1"))
        moved = {a if a < 4 else a + 16: b if b < 4 else b + 16
                 for a, b in d.arcs.items()}
        for bad in (PlanarDiagram({0: 1}, d.arcs, 0),
                    PlanarDiagram(d.crossings, moved, 0)):
            with pytest.raises(ValueError, match="arc endpoints"):
                bad.validate()

    @pytest.mark.parametrize("over", (-1, 2))
    def test_bad_over_bit(self, over):
        d = closure_diagram(parse_braid("B2: 1 1"))
        with pytest.raises(ValueError, match="over bit"):
            PlanarDiagram({0: 1, 1: over}, d.arcs, 0).validate()

    def test_negative_crossing_id(self):
        # negative half-edges name no crossing, so crossing -1 cannot own -4..-1
        d = closure_diagram(parse_braid("B2: 1"))
        shifted = {a - 4: b - 4 for a, b in d.arcs.items()}
        with pytest.raises(ValueError, match="bad id"):
            PlanarDiagram({-1: 1}, shifted, 0).validate()


class TestSingleContraction:
    """Smoothings, kinks and pokes all delete crossings through one splice."""

    @given(small_words(max_len=8))
    @settings(max_examples=80, deadline=None)
    def test_moves_match_reference(self, w):
        d = closure_diagram(w)
        diagrams = [d]
        for cid in sorted(d.crossings):
            children = d.resolve(cid)
            for child in children:
                child.validate()
            diagrams.extend(children)
        for diagram in diagrams:
            reduced, kinks = diagram.reduce(pokes=False)
            reduced.validate()
            expected, expected_kinks = reference_remove_curls(diagram)
            assert kinks == expected_kinks
            assert reduced == expected
            poked, _ = diagram.reduce()
            poked.validate()
            assert poked.reduce() == (poked, 0)
            for part in diagram.connected_parts():
                part.validate()

    @staticmethod
    def recorded_splices(monkeypatch) -> list[set[int]]:
        calls = []
        splice = diagram_module._splice

        def counted(arcs, cids, pairs):
            calls.append(set(cids))
            return splice(arcs, cids, pairs)

        monkeypatch.setattr(diagram_module, "_splice", counted)
        return calls

    def test_independent_kinks(self, monkeypatch):
        d = closure_diagram(parse_braid("B4: 1 3"))
        calls = self.recorded_splices(monkeypatch)
        reduced, kinks = d.reduce(pokes=False)
        assert sorted(calls, key=min) == [{0}, {1}]
        assert kinks == 2
        assert reduced.crossing_count == 0 and reduced.free_loops == 2

    def test_kink_and_poke(self, monkeypatch):
        # a kink on strands 1-2 and a cancelling pair on strands 3-4
        d = closure_diagram(parse_braid("B4: 1 3 -3"))
        calls = self.recorded_splices(monkeypatch)
        reduced, kinks = d.reduce()
        assert sorted(calls, key=min) == [{0}, {1, 2}]
        assert kinks == 1
        assert reduced.crossing_count == 0 and reduced.free_loops == 3

    def test_nothing_to_reduce_returns_self(self, monkeypatch):
        d = closure_diagram(parse_braid("B3: 1 -2 1 -2"))
        calls = self.recorded_splices(monkeypatch)
        for near in (None, set(d.crossings), ()):
            reduced, kinks = d.reduce(near=near)
            assert reduced is d and kinks == 0
        assert calls == []

    def test_splice_leaves_the_parent_alone(self):
        # with_switched shares its parent's arcs, so no move may change them
        d = closure_diagram(parse_braid("B3: 1 2 -2 1"))
        before = (dict(d.crossings), dict(d.arcs))
        switched = d.with_switched(0)
        for child in (switched, *d.resolve(1)):
            child.reduce()
        assert (d.crossings, d.arcs) == before
        assert switched.arcs is d.arcs

    def test_torus_cap_child_kink_chain(self, monkeypatch):
        # the cap smoothing of T(2, 60) is a chain of 59 kinks: the worklist
        # takes it one crossing per splice, each new arc's ends next
        d = closure_diagram(parse_braid("B2: 1^60"))
        cap = d.resolve(0)[2]
        calls = self.recorded_splices(monkeypatch)
        reduced, kinks = cap.reduce(near=d.neighbours(0))
        assert len(calls) == 59 and all(len(c) == 1 for c in calls)
        assert kinks == -59
        assert reduced.crossing_count == 0 and reduced.free_loops == 1


class TestReduceNearResolution:
    """A child of a reduced diagram only holds moves at the resolved
    crossing's neighbours, so reducing from them reduces fully."""

    @given(small_words(max_len=8))
    @settings(max_examples=80, deadline=None)
    def test_children_reduce_from_neighbours(self, w):
        for pokes in (True, False):
            engine = SkeinEngine(use_poke_reduction=pokes)
            d, _ = closure_diagram(w).reduce(pokes)
            for cid in sorted(d.crossings):
                near = d.neighbours(cid)
                for child in d.resolve(cid):
                    reduced, kinks = child.reduce(pokes, near=near)
                    reduced.validate()
                    assert reduced.reduce(pokes) == (reduced, 0)
                    full, full_kinks = child.reduce(pokes)
                    assert kinks == full_kinks
                    assert (engine.regular_isotopy_poly(reduced)
                            == engine.regular_isotopy_poly(full))


class TestTraversal:
    def test_positive_kink_descending(self):
        walk = closure_diagram(parse_braid("B2: 1")).traverse()
        assert walk.switch_candidate is None
        assert walk.writhe == 1
        assert walk.components == 1

    def test_writhe_matches_exponent_sum_on_positive_words(self):
        for text in ("B2: 1 1", "B2: 1 1 1", "B3: 1 2", "B4: 1 2 3 1"):
            d = closure_diagram(parse_braid(text))
            e = sum(exp for _, exp in parse_braid(text).letters)
            assert d.traverse().writhe == e

    @given(small_words())
    @settings(max_examples=60)
    def test_writhe_is_exponent_sum(self, w):
        # braid orientations make the geometric and algebraic signs agree
        d = closure_diagram(w)
        assert d.traverse().writhe == sum(e for _, e in w.letters)

    @given(small_words(max_len=8), st.integers(0, 10**6))
    @settings(max_examples=60, deadline=None)
    def test_matches_reference(self, w, seed):
        # the closure and every resolve child, each also relabeled
        d = closure_diagram(w)
        diagrams = [d] + [child for cid in d.crossings
                          for child in d.resolve(cid)]
        for diagram in diagrams:
            for e in (diagram, relabeled(diagram, seed)):
                assert e.traverse() == reference_traverse(e)


class TestCanonicalKey:
    @given(small_words(max_len=8), st.integers(0, 10**6))
    @settings(max_examples=80, deadline=None)
    def test_relabeling_invariance(self, w, seed):
        # the closure, every resolve child, and relabeled copies of each
        # give the all-starts reference key
        d = closure_diagram(w)
        diagrams = [d] + [child for cid in sorted(d.crossings)
                          for child in d.resolve(cid)]
        for diagram in diagrams:
            for part in diagram.connected_parts():
                expected = reference_canonical_key(part)
                assert part.canonical_key() == expected
                assert relabeled(part, seed).canonical_key() == expected

    @pytest.mark.parametrize("text", (
        [f"B2: 1^{m}" for m in range(1, 31)]
        + [f"B2: -1^{m}" for m in (2, 7, 12)]
        + ["B3:" + " 1 2" * k for k in range(1, 9)]
        + ["B3:" + " 1 -2" * k for k in range(1, 6)]
        + ["B4:" + " 1 2 3" * k for k in range(1, 8)]
        + ["B4:" + " 1 2 1 3" * 3, "B4:" + " 1 -2 3" * 4,
           "B5:" + " 1 2 3 4" * 3]))
    def test_symmetric_closures_match_reference(self, text):
        # rotations of these closures are automorphisms, so starts tie and
        # whole orbits are skipped; relabeling changes which start comes
        # first and which ties are found
        d = closure_diagram(parse_braid(text))
        diagrams = [d] + [child for cid in sorted(d.crossings)[:3]
                          for child in d.resolve(cid)]
        for diagram in diagrams:
            for part in diagram.connected_parts():
                expected = reference_canonical_key(part)
                assert part.canonical_key() == expected
                for seed in range(3):
                    assert relabeled(part, seed).canonical_key() == expected

    def test_distinguishes_mirror(self):
        a = closure_diagram(parse_braid("B2: 1 1"))
        b = closure_diagram(parse_braid("B2: -1 -1"))
        assert a.canonical_key() != b.canonical_key()

    @given(st.lists(small_words(), min_size=1, max_size=3))
    @settings(max_examples=30, deadline=None)
    def test_equal_key_equal_value(self, words):
        # connected parts of closures and of their resolve children,
        # grouped by key; one group must hold a single value
        engine = SkeinEngine(use_cache=False)
        values = {}
        for w in words:
            d = closure_diagram(w)
            diagrams = [d] + [child for cid in sorted(d.crossings)
                              for child in d.resolve(cid)]
            for diagram in diagrams:
                for part in diagram.connected_parts():
                    value = engine.regular_isotopy_poly(part)
                    assert values.setdefault(part.canonical_key(), value) == value

    def test_disconnected_raises(self):
        # two copies of one closure side by side, ids shifted apart; on the
        # torus closure every start of a copy ties, but the first start's
        # labelling already falls short
        for text in ("B2: 1 1", "B2: 1^5"):
            one = closure_diagram(parse_braid(text))
            crossings = {cid + 10: over for cid, over in one.crossings.items()}
            arcs = {a + 40: b + 40 for a, b in one.arcs.items()}
            split = PlanarDiagram({**one.crossings, **crossings},
                                  {**one.arcs, **arcs}, 0)
            assert len(split.connected_parts()) == 2
            for seed in range(4):
                with pytest.raises(ValueError):
                    (relabeled(split, seed) if seed else split).canonical_key()

    def test_debug_dump_contains_key(self):
        d = closure_diagram(parse_braid("B2: 1"))
        dump = d.debug_dump()
        assert "crossing 0" in dump and "key" in dump
        assert dump == d.debug_dump()


class TestConnectedParts:
    def test_split_union(self):
        # two-strand closure next to an untouched strand
        d = closure_diagram(parse_braid("B3: 1 1"))
        assert d.free_loops == 1
        parts = d.connected_parts()
        assert len(parts) == 1 and parts[0].crossing_count == 2

    def test_genuinely_split_crossings(self):
        d1 = closure_diagram(parse_braid("B2: 1 1"))
        shifted = {cid + 10: over for cid, over in d1.crossings.items()}
        arcs = dict(d1.arcs)
        arcs.update({a + 40: b + 40 for a, b in d1.arcs.items()})
        merged = PlanarDiagram({**d1.crossings, **shifted}, arcs, 0)
        parts = merged.connected_parts()
        assert len(parts) == 2
        assert parts[0].canonical_key() == parts[1].canonical_key()
