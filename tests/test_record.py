"""Value semantics of the package's frozen records, and what importing the
package loads."""

import copy
import pickle

import pytest

from rimcert.abelian import AbelianInvariants
from rimcert.braids import BraidWord
from rimcert.certify import CyclicityVerdict
from rimcert.diagrams import Crossing, Diagram
from rimcert.enumeration import EnumerationResult
from rimcert.groups import GroupPresentation, Word
from rimcert.invariants import NormalInvariantReport
from rimcert.laurent import LaurentPolynomial
from rimcert.report import CertificationReport
from rimcert.surgery import PlotnickMatrix, SurgerySpec

from test_batch import _fresh_python

A = Word.gen(0)
SPEC = SurgerySpec("3_1", 3, 1, 1)
VERDICT = CyclicityVerdict("cyclic", 3, "index 1", {"index": 1})

# Per class: a construction, run twice for equal records, and its fields.
RECORDS = [
    (lambda: AbelianInvariants(0, (2, 4)), ("free_rank", "torsion")),
    (lambda: BraidWord(3, (1, -2, 1)), ("strands", "letters")),
    (lambda: CyclicityVerdict("cyclic", 3, "index 1", {"index": 1}, {"stage": "x"}),
     ("status", "order", "justification", "witness", "certificate")),
    (lambda: Crossing(0, 1, 2, -1), ("over", "under_in", "under_out", "sign")),
    (lambda: Diagram((Crossing(0, 1, 2, 1),), 3, ((0, 1, 2, 0),)),
     ("crossings", "n_arcs", "strands")),
    (lambda: EnumerationResult(6, 24, 100),
     ("index", "cosets_defined", "max_cosets", "reason", "table")),
    (lambda: Word(((0, 2), (1, -1))), ("cols",)),
    (lambda: GroupPresentation(2, (A**3, Word.gen(1, 2)), A),
     ("ngens", "relators", "meridian", "longitude")),
    (lambda: NormalInvariantReport(1, "1*PD(T')"), ("arf", "label")),
    (lambda: LaurentPolynomial((0, 1, -1, 1, 0), -1), ("coeffs", "base")),
    (lambda: CertificationReport(SPEC, VERDICT, {"ngens": 2}, {}, {}, {}, 0.5),
     ("spec", "verdict", "group", "invariants", "conclusions", "limits", "elapsed")),
    (lambda: PlotnickMatrix(3, 1, 1, 0, ((1, 3, 0), (0, 1, 0), (0, 0, 1))),
     ("order", "twists", "inverse_residue", "complement", "rows")),
    (lambda: SurgerySpec("4_1", 5, 2, 1, "annulus"), ("knot", "d", "m", "n", "kind")),
]
IDS = [make().__class__.__name__ for make, _ in RECORDS]
UNHASHABLE = (CyclicityVerdict, CertificationReport)


@pytest.mark.parametrize("make, fields", RECORDS, ids=IDS)
def test_records_are_frozen_values(make, fields):
    a, b = make(), make()
    assert a is not b and a == b and not a != b
    if isinstance(a, UNHASHABLE):
        with pytest.raises(TypeError, match="unhashable"):
            hash(a)
    else:
        assert hash(a) == hash(b)
    # The field values alone, and every record of another class, differ.
    assert a != tuple(getattr(a, name) for name in fields)
    assert all(a != other() for other, _ in RECORDS if other is not make)
    assert repr(a).startswith(f"{type(a).__name__}({fields[0]}=")
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(a, name, None)
        with pytest.raises(AttributeError):
            delattr(a, name)
    assert a == b
    # pickle and copy rebuild a record without setting its fields.
    for clone in (pickle.loads(pickle.dumps(a)), copy.copy(a), copy.deepcopy(a)):
        assert type(clone) is type(a) and clone == a


def test_a_field_that_differs_makes_records_unequal():
    assert BraidWord(3, (1, -2, 1)) != BraidWord(3, (1, 2, 1))
    assert EnumerationResult(6, 24, 100) != EnumerationResult(6, 24, 100, "timeout")
    assert Crossing(0, 1, 2, -1) != Crossing(0, 1, 2, 1)
    assert repr(BraidWord(2, (1,))) == "BraidWord(strands=2, letters=(1,))"


def test_spec_equality_ignores_the_braid():
    # The braid is derived from the knot; a spec forced to another braid
    # still equals, hashes and prints as the spec with the same fields.
    a, b = SurgerySpec("3_1", 3, 1, 1), SurgerySpec("3_1", 3, 1, 1)
    object.__setattr__(b, "braid", BraidWord(2, (1,)))
    assert a.braid != b.braid
    assert a == b and hash(a) == hash(b) and repr(a) == repr(b)
    assert "braid" not in repr(a)
    assert pickle.loads(pickle.dumps(b)).braid == b.braid
    assert a != SurgerySpec("3_1", 3, 1, 1, "annulus")


def test_verdicts_never_share_a_default_dict():
    a, b = CyclicityVerdict("cyclic", 3, "x"), CyclicityVerdict("cyclic", 3, "x")
    dicts = [a.witness, a.certificate, b.witness, b.certificate]
    assert dicts == [{}, {}, {}, {}]
    assert len({id(d) for d in dicts}) == 4
    a.witness["index"] = 1
    assert b.witness == {} and a != b


def test_importing_the_package_loads_no_class_generator(tmp_path):
    # The value classes are hand-written records, so neither the package
    # nor its CLI loads dataclasses, or inspect, which dataclasses imports.
    code = (
        "import sys, rimcert, rimcert.cli\n"
        "print([m for m in ('dataclasses', 'inspect') if m in sys.modules])\n"
    )
    assert _fresh_python(code, tmp_path) == ["[]"]


def test_each_module_loads_only_what_it_imports(tmp_path):
    # The package binds no name but __version__ and imports no module, so
    # importing one module loads that module and its own imports alone,
    # and rimcert.certify is the certifier module, not a function.
    code = (
        "import sys, rimcert\n"
        "loaded = lambda: sorted(m for m in sys.modules if m.split('.')[0] == 'rimcert')\n"
        "print(loaded(), [n for n in vars(rimcert) if not n.startswith('_')],\n"
        "      hasattr(rimcert, '__version__'))\n"
        "import rimcert.groups\n"
        "print(loaded())\n"
        "import rimcert.certify as m\n"
        "print(type(m).__name__, m.certify_cyclic.__module__)\n"
    )
    assert _fresh_python(code, tmp_path) == [
        "['rimcert'] [] True",
        "['rimcert', 'rimcert.groups', 'rimcert.record']",
        "module rimcert.certify",
    ]
