"""Shared corpora and the acceptance summary hook."""

import itertools
import random
import re
from pathlib import Path

import pytest

from groupcodes.codes import (
    BlockCode,
    SequenceSpace,
    ambient_code,
    code_from_generators,
    join,
    zero_code,
)
from groupcodes.convolutional import ConvolutionalCode
from groupcodes.groups import FiniteAbelianGroup
from groupcodes.specfmt import parse_spec


def space_of(*symbol_moduli):
    return SequenceSpace(tuple(FiniteAbelianGroup(m) for m in symbol_moduli))


def all_subgroups(space: SequenceSpace) -> list[BlockCode]:
    """Every subgroup of the ambient, by closure in the subgroup lattice."""
    moduli = space.flat_moduli
    ambient = list(itertools.product(*[range(m) for m in moduli]))
    seen = {}
    frontier = [zero_code(space)]
    seen[zero_code(space).basis.rows] = zero_code(space)
    while frontier:
        current = frontier.pop()
        for g in ambient:
            if current.contains(g):
                continue
            extended = join(current, code_from_generators(space, [g]))
            if extended.basis.rows not in seen:
                seen[extended.basis.rows] = extended
                frontier.append(extended)
    return sorted(seen.values(), key=lambda c: (c.cardinality, c.basis.rows))


EXHAUSTIVE_AMBIENTS = (
    space_of((2,), (2,), (2,), (2,)),
    space_of((4,), (4,)),
    space_of((2,), (4,)),
    space_of((2, 3), (2, 3)),
)


@pytest.fixture(scope="session")
def exhaustive_corpus():
    corpus = []
    for space in EXHAUSTIVE_AMBIENTS:
        corpus.extend(all_subgroups(space))
    return corpus


def random_block_code(rng: random.Random, max_code=64, max_ambient=2048):
    symbol_choices = [(2,), (3,), (4,), (5,), (8,), (2, 2), (2, 4), (6,), (9,)]
    while True:
        n = rng.randint(2, 4)
        symbols = [rng.choice(symbol_choices) for _ in range(n)]
        space = space_of(*symbols)
        if space.cardinality > max_ambient:
            continue
        gens = [
            [rng.randrange(m) for m in space.flat_moduli]
            for _ in range(rng.randint(1, 2))
        ]
        code = code_from_generators(space, gens)
        if code.cardinality <= max_code:
            return code


@pytest.fixture(scope="session")
def random_corpus():
    rng = random.Random(20260809)
    return [random_block_code(rng) for _ in range(300)]


# Mixed moduli with modulus-1 columns.
MIXED_SYMBOLS = (
    ((1,), (2,), (1,)),
    ((2, 4), (1,), (6,)),
    ((3,), (9, 3), (1, 2)),
    ((4,), (1, 2), (4,), (2,)),
)


@pytest.fixture(scope="session")
def mixed_corpus():
    """Zero, ambient and four random codes over each mixed-moduli space."""
    rng = random.Random(71)
    corpus = []
    for symbols in MIXED_SYMBOLS:
        space = space_of(*symbols)
        corpus += [zero_code(space), ambient_code(space)]
        for k in (1, 2, 2, 3):
            gens = [[rng.randrange(m) for m in space.flat_moduli] for _ in range(k)]
            corpus.append(code_from_generators(space, gens))
    return corpus


BAND_SPECS = Path(__file__).resolve().parent / "golden" / "specs"
BAND_SPEC_PATHS = sorted(BAND_SPECS.glob("*band*.spec"))


def band_code(name):
    return parse_spec((BAND_SPECS / name).read_text(encoding="utf-8")).to_block_code()


def convolutional_corpus():
    symbols = [
        FiniteAbelianGroup((2,)),
        FiniteAbelianGroup((4,)),
        FiniteAbelianGroup((2, 2)),
    ]
    rng = random.Random(8093)
    codes = {"image": [], "kernel": []}
    for symbol in symbols:
        steps = list(itertools.product(*[range(m) for m in symbol.moduli]))
        two_step = [
            (a, b) for a in steps for b in steps if any(a) or any(b)
        ]
        three_step = [
            (a, b, c)
            for a in steps
            for b in steps
            for c in steps
            if any(a) or any(b) or any(c)
        ]
        rng.shuffle(two_step)
        rng.shuffle(three_step)
        pairs = [
            (two_step[2 * i], two_step[2 * i + 1])
            for i in range(min(4, len(two_step) // 2))
        ]
        taps_menu = (
            [(t,) for t in two_step[:12]]
            + [(t,) for t in three_step[:6]]
            + pairs
        )
        for form in ("image", "kernel"):
            for taps in taps_menu:
                codes[form].append(ConvolutionalCode(symbol, form, taps))
    return codes


@pytest.fixture(scope="session")
def conv_corpus():
    return convolutional_corpus()


ACCEPTANCE_RESULTS: dict[int, tuple[str, str]] = {}


def pytest_runtest_logreport(report):
    if report.when != "call":
        return
    match = re.search(r"test_acceptance\.py::test_criterion_(\d+)_(\w+)", report.nodeid)
    if not match:
        return
    number = int(match.group(1))
    label = match.group(2).replace("_", " ")
    outcome = "PASS" if report.passed else "FAIL"
    ACCEPTANCE_RESULTS[number] = (label, outcome)


def pytest_terminal_summary(terminalreporter):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for number in sorted(ACCEPTANCE_RESULTS):
        label, outcome = ACCEPTANCE_RESULTS[number]
        terminalreporter.write_line(f"criterion {number} ({label}): {outcome}")
