"""The five value records: equality, hashing, immutability, validation,
keyword construction, repr, copy and pickle; and the modules that
importing the command line loads."""

import copy
import pickle
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from bwmlink.braid import BraidWord, closure_diagram, parse_braid
from bwmlink.bratteli import BratteliGraph, generic_bratteli
from bwmlink.diagram import PlanarDiagram
from bwmlink.laurent import (DELTA, ZERO2, LaurentPoly1, Quotient,
                             Specialization, r_pow)

SRC = Path(__file__).resolve().parents[1] / "src"


def _diagram() -> PlanarDiagram:
    return closure_diagram(parse_braid("B3: 1 -2 1"))


def _graph() -> BratteliGraph:
    return generic_bratteli(3)


# each record class, a factory of one instance, its fields in order, and
# whether it is hashable
RECORDS = [
    (BraidWord, lambda: BraidWord(3, ((1, 1), (2, -1))),
     ("strands", "letters"), True),
    (PlanarDiagram, _diagram, ("crossings", "arcs", "free_loops"), False),
    (BratteliGraph, _graph, ("levels", "edges", "path_counts"), False),
    (Quotient, lambda: Quotient(r_pow(1), DELTA), ("num", "den"), False),
    (Specialization, lambda: Specialization(-1, 1, 2),
     ("sign_r", "sign_s", "n"), True),
]
IDS = [cls.__name__ for cls, *_ in RECORDS]


def fields_of(record, names) -> dict:
    return {name: getattr(record, name) for name in names}


@pytest.mark.parametrize("cls, make, names, hashable", RECORDS, ids=IDS)
class TestRecord:
    def test_equality(self, cls, make, names, hashable):
        a, b = make(), make()
        assert a == b and not a != b
        assert a == cls(**fields_of(a, names))

    def test_other_class_with_equal_fields_unequal(self, cls, make, names,
                                                   hashable):
        a = make()
        other = SimpleNamespace(**fields_of(a, names))
        assert a != other and other != a

    def test_hash(self, cls, make, names, hashable):
        if hashable:
            assert hash(make()) == hash(make())
            assert len({make(), make()}) == 1
        else:
            with pytest.raises(TypeError):
                hash(make())

    def test_frozen(self, cls, make, names, hashable):
        a = make()
        before = fields_of(a, names)
        for name in names:
            with pytest.raises(AttributeError):
                setattr(a, name, 0)
            with pytest.raises(AttributeError):
                delattr(a, name)
        with pytest.raises(AttributeError):
            a.extra = 0
        assert fields_of(a, names) == before

    def test_keyword_construction(self, cls, make, names, hashable):
        a = make()
        values = fields_of(a, names)
        assert cls(**values) == a
        assert cls(*values.values()) == a

    def test_repr(self, cls, make, names, hashable):
        a = make()
        shown = ", ".join(f"{name}={getattr(a, name)!r}" for name in names)
        assert repr(a) == f"{cls.__name__}({shown})"

    def test_copy(self, cls, make, names, hashable):
        a = make()
        b = copy.copy(a)
        assert type(b) is cls and b == a
        assert fields_of(b, names) == fields_of(a, names)

    def test_pickle(self, cls, make, names, hashable):
        a = make()
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            b = pickle.loads(pickle.dumps(a, protocol))
            assert type(b) is cls and b == a
            assert fields_of(b, names) == fields_of(a, names)


@pytest.mark.parametrize("cls, make, names, hashable",
                         [row for row in RECORDS if row[0] is not Quotient],
                         ids=[i for i in IDS if i != "Quotient"])
def test_subclass_with_equal_fields_unequal(cls, make, names, hashable):
    """Field-wise equality holds only within one class (``Quotient``
    compares values across classes instead)."""
    sub = type("Sub", (cls,), {})
    a = make()
    assert a != sub(**fields_of(a, names))


class TestDefaults:
    def test_braid_word_letters(self):
        assert BraidWord(2) == BraidWord(2, ()) == BraidWord(strands=2)

    def test_planar_diagram_free_loops(self):
        assert PlanarDiagram({}, {}) == PlanarDiagram({}, {}, 0)


class TestValidation:
    @pytest.mark.parametrize("strands, letters", [
        (0, ()), (-1, ()),  # strands
        (3, ((3, 1),)), (3, ((0, 1),)),  # index
        (3, ((1, 2),)), (3, ((1, 0),)),  # exponent
    ])
    def test_braid_word(self, strands, letters):
        with pytest.raises(ValueError):
            BraidWord(strands, letters)

    @pytest.mark.parametrize("sign_r, sign_s, n", [
        (2, 1, 1), (1, 0, 1),  # signs
        (1, -1, 0), (-1, 1, -3),  # n
    ])
    def test_specialization(self, sign_r, sign_s, n):
        with pytest.raises(ValueError):
            Specialization(sign_r, sign_s, n)

    def test_quotient_zero_denominator(self):
        with pytest.raises(ZeroDivisionError):
            Quotient(DELTA, ZERO2)
        with pytest.raises(ZeroDivisionError):
            Quotient(den=LaurentPoly1({}), num=LaurentPoly1({1: 1}))


def test_cli_import_loads_no_heavy_modules():
    """A bare interpreter imports the command line without dataclasses and
    its chain (inspect, ast, dis), typing or random."""
    code = (
        "import sys\n"
        f"sys.path.insert(0, {str(SRC)!r})\n"
        "before = set(sys.modules)\n"
        "import bwmlink.cli\n"
        "print(*sorted(set(sys.modules) - before))\n"
    )
    done = subprocess.run([sys.executable, "-S", "-c", code],
                          capture_output=True, text=True, check=True)
    loaded = set(done.stdout.split())
    assert "bwmlink.cli" in loaded
    heavy = {"dataclasses", "inspect", "ast", "dis", "typing", "random"}
    assert not heavy & loaded, sorted(heavy & loaded)
