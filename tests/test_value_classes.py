"""The package's value classes, built without ``dataclasses``.

Records that neither validate nor cache are named tuples; the classes that
check their fields in ``__post_init__`` or keep cached tables in
``__dict__`` are plain classes with their own ``__init__``, ``__eq__``,
``__hash__`` and ``__repr__``.  For every one of them, built twice from
equal fields: the two are equal, and their hash is that of the tuple of
the compared fields, the value the frozen dataclasses gave, so the order
of a set or dict of them is unchanged.  A cached table changes neither,
``Decomposition`` leaves its certificate out, and each plain constructor
runs the ``__post_init__`` its class holds when it is called (the hook
the benchmark's tracer and the counting tests patch).
"""

from fractions import Fraction
from pathlib import Path

import pytest

from groupcodes.codes import BlockCode, SequenceSpace, code_from_generators, window_internal
from groupcodes.control import Chunk, ControlProfile, OrderProfile, control_profile, order_profile
from groupcodes.convolutional import (
    ConvolutionalCode,
    StrongControllabilityVerdict,
    WeakControllabilityVerdict,
    dual_convolutional,
    strong_controllability_index,
    weak_controllability,
)
from groupcodes.duality import Character, QmodZ, QuotientDualityReport, quotient_duality_check
from groupcodes.groups import (
    FiniteAbelianGroup,
    GroupElement,
    PrimaryComponent,
    primary_decomposition,
)
from groupcodes.linalg import ResidueMatrix, residue_matrix
from groupcodes.observe import (
    DualityReport,
    ObserveProfile,
    check_control_observe_duality,
    observe_profile,
)
from groupcodes.oracle import EnumeratedCode, enumerate_code
from groupcodes.specfmt import CodeSpecDocument, emit_spec, parse_spec
from groupcodes.structure import (
    Decomposition,
    DecompositionGenerator,
    VerificationCertificate,
    cyclic_product_decomposition,
)

from .conftest import space_of

ROOT = Path(__file__).resolve().parents[1]
SPECS = sorted((ROOT / "tests" / "golden" / "specs").glob("*.spec")) + sorted(
    (ROOT / "demos" / "specs").glob("*.spec")
)

# Plain class -> its compared fields, in the order the dataclass held them.
PLAIN = {
    FiniteAbelianGroup: ("moduli",),
    GroupElement: ("group", "residues"),
    SequenceSpace: ("symbols",),
    BlockCode: ("space", "basis"),
    ResidueMatrix: ("moduli", "rows"),
    ConvolutionalCode: ("symbol", "form", "taps", "horizon"),
    QmodZ: ("numerator", "denominator"),
    DualityReport: (
        "window_checks", "chain_ok", "matched_checks", "control_index",
        "dual_observe_index", "observe_index", "dual_control_index",
    ),
    EnumeratedCode: ("moduli", "words", "offsets"),
    Decomposition: ("space", "generators"),
}
RECORDS = (
    ControlProfile, OrderProfile, Chunk, WeakControllabilityVerdict,
    StrongControllabilityVerdict, Character, QuotientDualityReport, ObserveProfile,
    CodeSpecDocument, DecompositionGenerator, VerificationCertificate, PrimaryComponent,
)
# The plain classes that check their fields, and so run ``__post_init__``.
CHECKED = (
    FiniteAbelianGroup, GroupElement, SequenceSpace, BlockCode, ResidueMatrix,
    ConvolutionalCode, QmodZ,
)


def code():
    space = space_of((2,), (4,), (2, 2), (4,))
    return code_from_generators(space, [[1, 2, 1, 0, 3], [0, 1, 0, 1, 2]])


def conv():
    return ConvolutionalCode(FiniteAbelianGroup([4]), "kernel", [[(1,), (2,)], [(0,), (1,)]], 6)


def document():
    return parse_spec((ROOT / "demos" / "specs" / "z4_chain.spec").read_text(encoding="utf-8"))


# One builder per value class; each call builds every object afresh.
BUILDERS = {
    FiniteAbelianGroup: lambda: FiniteAbelianGroup([2, 4]),
    GroupElement: lambda: GroupElement(FiniteAbelianGroup((2, 4)), [1, 3]),
    SequenceSpace: lambda: space_of((2,), (4,), (2, 2)),
    BlockCode: code,
    ResidueMatrix: lambda: ResidueMatrix([4, 6], [[1, 2], [0, 3]]),
    ConvolutionalCode: conv,
    QmodZ: lambda: QmodZ.of(Fraction(-5, 4)),
    DualityReport: lambda: check_control_observe_duality(code()),
    EnumeratedCode: lambda: enumerate_code(code()),
    Decomposition: lambda: cyclic_product_decomposition(code()),
    ControlProfile: lambda: control_profile(code()),
    OrderProfile: lambda: order_profile(code()),
    Chunk: lambda: Chunk((1, 0, 1), 0, 3),
    WeakControllabilityVerdict: lambda: weak_controllability(conv()),
    StrongControllabilityVerdict: lambda: strong_controllability_index(conv()),
    Character: lambda: Character(GroupElement(FiniteAbelianGroup((4,)), (3,))),
    QuotientDualityReport: lambda: quotient_duality_check(
        residue_matrix([[2]], [4]), residue_matrix([[1]], [4]), FiniteAbelianGroup((4,))
    ),
    ObserveProfile: lambda: observe_profile(code()),
    CodeSpecDocument: document,
    DecompositionGenerator: lambda: DecompositionGenerator((1, 1), 0, 2, 2, 2),
    VerificationCertificate: lambda: cyclic_product_decomposition(code()).certificate,
    PrimaryComponent: lambda: primary_decomposition(FiniteAbelianGroup((6, 4)))[2],
}


def fields(value) -> tuple:
    """The compared fields of ``value``, in declaration order."""
    names = PLAIN.get(type(value))
    return tuple(value) if names is None else tuple(getattr(value, n) for n in names)


def test_every_value_class_has_a_builder():
    assert set(BUILDERS) == set(PLAIN) | set(RECORDS)
    assert len(BUILDERS) == 22
    for cls in RECORDS:
        assert issubclass(cls, tuple) and hasattr(cls, "_fields"), cls
    for cls in PLAIN:
        assert not issubclass(cls, tuple), cls
        assert "__dataclass_fields__" not in vars(cls), cls


@pytest.mark.parametrize("cls", list(BUILDERS), ids=lambda cls: cls.__name__)
def test_equal_fields_give_equal_objects_and_hashes(cls):
    first, second = BUILDERS[cls](), BUILDERS[cls]()
    assert type(first) is type(second) is cls
    assert first is not second
    assert first == second and not first != second
    assert hash(first) == hash(second) == hash(fields(first))
    assert len({first, second}) == 1


@pytest.mark.parametrize("cls", list(PLAIN), ids=lambda cls: cls.__name__)
def test_plain_class_equality_is_its_class_and_fields(cls):
    value = BUILDERS[cls]()
    assert value.__eq__(fields(value)) is NotImplemented
    assert value != fields(value) and value != object()
    assert repr(value) == f"{cls.__name__}(" + ", ".join(
        f"{name}={getattr(value, name)!r}" for name in (
            PLAIN[cls] + ("certificate",) if cls is Decomposition else PLAIN[cls]
        )
    ) + ")"


def test_a_field_that_differs_breaks_equality():
    Z4 = FiniteAbelianGroup((4,))
    assert FiniteAbelianGroup((2, 4)) != FiniteAbelianGroup((4, 2))
    assert GroupElement(Z4, (1,)) != GroupElement(FiniteAbelianGroup((8,)), (1,))
    assert space_of((2,), (4,)) != space_of((4,), (2,))
    assert ResidueMatrix((4,), ((1,),)) != ResidueMatrix((4,), ((2,),))
    assert QmodZ(1, 4) != QmodZ(3, 4) and QmodZ(1, 2) != QmodZ(1, 3)
    whole = code()
    assert window_internal(whole, 0, 2) != whole
    base = conv()
    for changed in (
        ConvolutionalCode(FiniteAbelianGroup((8,)), base.form, base.taps, base.horizon),
        ConvolutionalCode(base.symbol, "image", base.taps, base.horizon),
        ConvolutionalCode(base.symbol, base.form, base.taps[:1], base.horizon),
        ConvolutionalCode(base.symbol, base.form, base.taps),
    ):
        assert changed != base
    report = check_control_observe_duality(whole)
    given = {name: getattr(report, name) for name in PLAIN[DualityReport]}
    other = DualityReport(**{**given, "observe_index": report.observe_index + 1})
    assert other != report
    enum = enumerate_code(whole)
    assert EnumeratedCode(enum.moduli, enum.words[1:], enum.offsets) != enum
    decomposition = cyclic_product_decomposition(whole)
    assert Decomposition(decomposition.space, decomposition.generators[1:]) != decomposition


def test_cached_tables_change_neither_equality_nor_hash():
    values = {cls: (BUILDERS[cls](), BUILDERS[cls]()) for cls in PLAIN}
    hashes = {cls: hash(first) for cls, (first, _) in values.items()}
    space = values[SequenceSpace][0]
    space.flat_moduli, space.offsets(), space.cardinality
    block = values[BlockCode][0]
    block.pivots(), block._record, block._local_dual, block._subcodes
    convolutional = values[ConvolutionalCode][0]
    convolutional.memory, weak_controllability(convolutional), dual_convolutional(convolutional)
    values[DualityReport][0].ok
    enum = values[EnumeratedCode][0]
    assert enum.words[0] in enum
    for cls in (SequenceSpace, BlockCode, ConvolutionalCode, DualityReport, EnumeratedCode):
        assert set(vars(values[cls][0])) > set(PLAIN[cls]), cls
    for cls, (first, second) in values.items():
        assert first == second and second == first, cls
        assert hash(first) == hash(second) == hashes[cls], cls


def test_decomposition_ignores_its_certificate():
    built = cyclic_product_decomposition(code())
    bare = Decomposition(built.space, built.generators)
    failed = Decomposition(
        built.space, built.generators, VerificationCertificate(False, True, (), True, "support")
    )
    assert built.certificate is not None and bare.certificate is None
    assert built == bare == failed
    assert hash(built) == hash(bare) == hash(failed) == hash((built.space, built.generators))


@pytest.mark.parametrize("cls", CHECKED, ids=lambda cls: cls.__name__)
def test_constructor_runs_the_hook_the_class_holds(cls, monkeypatch):
    hook, seen = cls.__post_init__, []

    def counted(self):
        seen.append(type(self))
        hook(self)

    monkeypatch.setattr(cls, "__post_init__", counted)
    value = BUILDERS[cls]()
    assert seen and set(seen) == {cls}
    assert fields(value) == fields(BUILDERS[cls]())


@pytest.mark.parametrize("path", SPECS, ids=lambda path: path.name)
def test_emitted_spec_parses_to_an_equal_document(path):
    doc = parse_spec(path.read_text(encoding="utf-8"))
    text = emit_spec(doc)
    again = parse_spec(text)
    assert again == doc and hash(again) == hash(doc)
    assert emit_spec(again) == text
    if doc.kind == "block":
        assert again.to_block_code() == doc.to_block_code()
    else:
        assert again.to_convolutional() == doc.to_convolutional()


def test_dual_of_the_dual_is_the_code(conv_corpus):
    for form, codes in conv_corpus.items():
        for original in codes:
            bidual = dual_convolutional(dual_convolutional(original))
            twin = ConvolutionalCode(original.symbol, form, original.taps, original.horizon)
            assert bidual == original == twin and hash(bidual) == hash(twin)
            dual = dual_convolutional(twin)
            assert dual.form != form and dual != twin
            assert dual == ConvolutionalCode(dual.symbol, dual.form, twin.taps, twin.horizon)
