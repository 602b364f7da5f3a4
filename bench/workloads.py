"""Seeded spec generators for the benchmark workloads.

The shapes mirror the corpora in the test suite (random block codes over a
small symbol menu, Z/4 band codes, convolutional codes from short taps) but
are written out here, so that edits to the tests cannot change the load.
Each generator returns a list of ``Spec`` records in the order the timed
loop consumes them.  Block and band codes come in *rounds*: every round
holds one code of each stratum (a |C| band or a horizon); convolutional
codes are drawn stratum by stratum.  Strata and their order come from
design streams that are the same for every seed, so any prefix of the pool
carries the same mix and runs with different seeds stay comparable.

Codes are distinct within a pool: block codes are deduplicated on
(symbols, Howell rows), convolutional codes on (symbol, form, normalized
taps).  The program under test sees only the spec text written to disk.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Optional

from groupcodes.codes import SequenceSpace, code_from_generators
from groupcodes.convolutional import ConvolutionalCode
from groupcodes.duality import dual_block_code
from groupcodes.groups import FiniteAbelianGroup

# Symbol menu of the random block-code corpus in the tests.
BLOCK_SYMBOLS = ((2,), (3,), (4,), (5,), (8,), (2, 2), (2, 4), (6,), (9,))
# floor(log2 |C|) -> the horizons its codes take, i.e. |C| in [4, 1024)
# and N in 2..8.  An op enumerates C once per prefix length, so its cost
# grows with |C| * N**2; the largest bands keep short horizons so that the
# slowest op stays near a second and a 36 s run holds about a hundred ops.
# The low ends leave every ambient AMBIENT_HEADROOM times larger than the
# band (an N = 2 ambient holds at most 81 words).
BLOCK_BAND_HORIZONS = {
    2: (2, 8), 3: (2, 8), 4: (2, 8), 5: (3, 8), 6: (3, 7), 7: (3, 6), 8: (4, 5), 9: (4, 4),
}
# The known-defect probe of block-codes lies above the 2**16 enumeration
# bound of order_profile: Z/4 at N = 10..12 with 2**17 or 2**18 words.
ABOVE_BOUND_HORIZONS = (10, 12)
ABOVE_BOUND_LOG2 = (17, 18)
# Seeded draws in one design cell before its symbols (block codes) or tap
# lengths (band codes) are redrawn.
SEEDED_TRIES = 100
BAND_TRIES = 20
# Ambients at least this many times the band's lower edge, so that a cell
# holds many distinct codes rather than the whole ambient alone.
AMBIENT_HEADROOM = 4

# Horizons of one long-horizon round.  N = 8 comes twice so that the median
# op is an N = 8 one rather than a point between the N = 8 and N = 10 costs.
BAND_HORIZONS = (6, 8, 8, 10)

CONV_SYMBOLS = ((2,), (4,), (2, 2))
CONV_FORMS = ("image", "kernel")
# The only codes of the convolutional menus whose analysis raises the
# uncaught MarginError (window not stabilized at margin 3): Z/4 kernel
# checks with one three-step tap, listed as normalized taps.  A workload
# must hold no failing op, so they are left out of the pool; each run
# still tries one of them outside the timed loop (see ``probe``).
CONV_MARGIN_ERROR = {
    ((4,), "kernel", (((a,), (b,), (2,)),)) for a in (1, 3) for b in (0, 2)
}

COMMANDS = {
    "block-codes": ("analyze", "dual", "decompose"),
    "long-horizon": ("duality-check",),
    "convolutional": ("analyze", "duality-check"),
}


@dataclass(frozen=True)
class Spec:
    """One generated code: the spec text plus what the generator knows."""

    name: str
    text: str
    kind: str
    horizon: int
    log2_size: Optional[int]  # floor(log2 |C|) for block codes
    ambient: Optional[int]  # |ambient| for block codes
    above_bound: bool = False
    stratum: str = ""


def _moduli_token(moduli) -> str:
    return "[" + ",".join(str(m) for m in moduli) + "]"


def _block_text(symbols, generators) -> str:
    lines = ["kind: block", "symbols: " + " ".join(_moduli_token(s) for s in symbols)]
    for gen in generators:
        parts, pos = [], 0
        for s in symbols:
            parts.append(",".join(str(e) for e in gen[pos : pos + len(s)]))
            pos += len(s)
        lines.append("generator: " + " ".join(parts))
    return "\n".join(lines) + "\n"


def _conv_text(symbol, form, taps) -> str:
    lines = ["kind: convolutional", "symbol: " + _moduli_token(symbol), f"form: {form}"]
    for tap in taps:
        lines.append("tap: " + " ".join(",".join(str(e) for e in step) for step in tap))
    return "\n".join(lines) + "\n"


def _space(symbols) -> SequenceSpace:
    return SequenceSpace(tuple(FiniteAbelianGroup(s) for s in symbols))


class _Dedup:
    def __init__(self) -> None:
        self.seen: set = set()

    def add(self, key) -> bool:
        if key in self.seen:
            return False
        self.seen.add(key)
        return True


def _random_generators(rng: random.Random, moduli, band: int) -> list[list[int]]:
    gens = []
    for _ in range(rng.randint(1, band)):
        density = rng.random()
        gens.append([rng.randrange(m) if rng.random() < density else 0 for m in moduli])
    return gens


def _in_band(space, gens, band: int):
    code = code_from_generators(space, gens)
    return code if (1 << band) <= code.cardinality < (2 << band) else None


def _block_in_cell(design, rng, band: int, n: int, dedup: _Dedup):
    """A distinct code with floor(log2 |C|) == band at horizon n.

    The symbols come from the design stream, the generators from the seed
    stream by rejection sampling on |C|.  Symbols that miss the band
    SEEDED_TRIES times in a row (some, such as all Z/5, cannot hit it) are
    redrawn.
    """
    while True:
        symbols = [design.choice(BLOCK_SYMBOLS) for _ in range(n)]
        space = _space(symbols)
        if space.cardinality < AMBIENT_HEADROOM << band:
            continue
        for _ in range(SEEDED_TRIES):
            gens = _random_generators(rng, space.flat_moduli, band)
            code = _in_band(space, gens, band)
            if code is not None and dedup.add((tuple(symbols), code.basis.rows)):
                return symbols, gens, space.cardinality


def _above_bound_block(design, rng, dedup: _Dedup):
    """A Z/4 code of 2**17 or 2**18 words, built so its size is known.

    Rows in echelon form with unit pivots are free of order 4; one extra row
    of even entries with a fresh pivot adds a factor 2.  A unitriangular
    mix hides the echelon shape from the spec.  The design stream fixes the
    horizon, size and pivots; the seed the entries.
    """
    n = design.randint(*ABOVE_BOUND_HORIZONS)
    log2 = design.choice(ABOVE_BOUND_LOG2)
    units, halves = divmod(log2, 2)
    pivots = sorted(design.sample(range(n), units + halves))
    half_pivot = design.choice(pivots) if halves else None
    while True:
        rows = []
        for p in pivots:
            row = [0] * n
            if p == half_pivot:
                row[p] = 2
                for j in range(p + 1, n):
                    row[j] = 2 * rng.randrange(2)
            else:
                row[p] = 1
                for j in range(p + 1, n):
                    row[j] = rng.randrange(4)
            rows.append(row)
        gens = [list(r) for r in rows]
        for i in range(len(gens)):
            for j in range(i + 1, len(gens)):
                c = rng.randrange(4)
                gens[i] = [(a + c * b) % 4 for a, b in zip(gens[i], rows[j])]
        symbols = [(4,)] * n
        code = code_from_generators(_space(symbols), gens)
        if code.cardinality != 1 << log2:
            raise AssertionError("above-bound construction has the wrong size")
        if dedup.add((tuple(symbols), code.basis.rows)):
            return symbols, gens, 4**n, log2


def block_codes(design, rng: random.Random, rounds: int) -> list[Spec]:
    """One code per |C| band per round; the horizon of a band steps through
    its range from round to round."""
    dedup = _Dedup()
    out: list[Spec] = []
    for r in range(rounds):
        batch = []
        for band, (low, high) in BLOCK_BAND_HORIZONS.items():
            n = low + (r + band) % (high - low + 1)
            symbols, gens, ambient = _block_in_cell(design(r, band), rng, band, n, dedup)
            batch.append(
                Spec("", _block_text(symbols, gens), "block", n, band, ambient,
                     stratum=f"band{band}")
            )
        design(r).shuffle(batch)
        out.extend(batch)
    return out


def _random_tap(rng: random.Random, length: int, modulus: int) -> list[int]:
    tap = [rng.randrange(modulus) for _ in range(length)]
    tap[0] = rng.randrange(1, modulus)
    tap[-1] = rng.randrange(1, modulus)
    return tap


def _band_code(shape: random.Random, rng: random.Random, n: int, dedup: _Dedup):
    """A distinct Z/4 band code at horizon n whose dual is distinct too.

    The design stream ``shape`` fixes the number and lengths of the taps,
    the seed their entries; a shape that yields no new code in BAND_TRIES
    draws (a single short tap spans only a few codes) is redrawn.
    """
    space = _space([(4,)] * n)
    while True:
        lengths = [shape.randint(2, 3) for _ in range(shape.randint(1, 2))]
        for _ in range(BAND_TRIES):
            gens = []
            for tap in (_random_tap(rng, length, 4) for length in lengths):
                for s in range(n - len(tap) + 1):
                    gens.append([0] * s + tap + [0] * (n - len(tap) - s))
            code = code_from_generators(space, gens)
            dual = dual_block_code(code)
            key_code, key_dual = (n, code.basis.rows), (n, dual.basis.rows)
            if key_code != key_dual and key_code not in dedup.seen and key_dual not in dedup.seen:
                dedup.add(key_code)
                dedup.add(key_dual)
                return gens, code, dual


def long_horizon(design, rng: random.Random, rounds: int) -> list[Spec]:
    """Z/4 band codes (all in-window shifts of one or two taps) and duals;
    per round, each horizon cell gets one band code and its dual."""
    dedup = _Dedup()
    out: list[Spec] = []
    for r in range(rounds):
        batch = []
        for cell, n in enumerate(BAND_HORIZONS):
            gens, code, dual = _band_code(design(r, cell), rng, n, dedup)
            symbols = [(4,)] * n
            for which, c, g in (("code", code, gens), ("dual", dual, dual.basis.rows)):
                batch.append(
                    Spec("", _block_text(symbols, g), "block", n,
                         c.cardinality.bit_length() - 1, 4**n, stratum=f"N{n}-{which}")
                )
        design(r).shuffle(batch)
        out.extend(batch)
    return out


def _gf2_gcd(a: int, b: int) -> int:
    """gcd in GF(2)[D] of polynomials written as bit masks (bit t is D^t)."""
    while b:
        while a.bit_length() >= b.bit_length():
            a ^= b << (a.bit_length() - b.bit_length())
        a, b = b, a
    return a


def _cost_class(symbol, form: str, taps) -> str:
    """The property that splits the cost of a code of one shape.

    A code with memory m is analysed on windows up to 8m, so memory sets
    the scale.  A single kernel check over Z/2 or Z/2 x Z/2 is weakly
    controllable exactly when the gcd of its coordinate polynomials is a
    power of D; controllable ones take some twenty times longer, because
    the stabilization search runs to the full horizon, and longer still the
    wider the span of nonzero steps of the tap (its controllability index
    grows with it).
    """
    memory = max(len(t) for t in taps)
    if len(taps) != 1:
        return f"m{memory}"
    nonzero = [t for t, step in enumerate(taps[0]) if any(step)]
    cls = f"m{memory}-s{nonzero[-1] - nonzero[0] + 1}"
    if form != "kernel" or set(symbol) != {2}:
        return cls
    g = 0
    for j in range(len(symbol)):
        g = _gf2_gcd(g, sum(step[j] << t for t, step in enumerate(taps[0])))
    return f"{cls}-{'controllable' if g & (g - 1) == 0 else 'uncontrollable'}"


def _conv_menus(symbol, form) -> dict[tuple[str, str], list]:
    """Every code of each tap shape over the symbol, one entry per code,
    grouped by (shape, cost class).

    Trailing zero steps are stripped, so taps of different shapes can name
    one code; each code is kept under the first shape that names it.
    """
    steps = list(itertools.product(*[range(m) for m in symbol]))
    two = [(a, b) for a in steps for b in steps if any(a) or any(b)]
    three = [
        (a, b, c) for a in steps for b in steps for c in steps
        if any(a) or any(b) or any(c)
    ]
    shapes = {
        "two-step": [(t,) for t in two],
        "three-step": [(t,) for t in three],
        "pair": list(itertools.combinations(two, 2)),
    }
    group = FiniteAbelianGroup(symbol)
    seen: set = set()
    menus: dict[tuple[str, str], list] = {}
    for shape, candidates in shapes.items():
        for taps in candidates:
            key = ConvolutionalCode(group, form, taps).taps
            if key not in seen and (symbol, form, key) not in CONV_MARGIN_ERROR:
                seen.add(key)
                menus.setdefault((shape, _cost_class(symbol, form, key)), []).append(taps)
    return menus


def convolutional(design, rng: random.Random, slots: int) -> list[Spec]:
    """Image- and kernel-form codes from one- to three-step taps and pairs.

    The codes are drawn without replacement, each distinct code equally
    likely, in two steps: the design stream picks the stratum (form, tap
    shape, symbol, cost class) of each slot in proportion to how many of its
    codes are left, and the seed picks the code inside it.  Every seed thus
    gets the same strata in the same order.
    """
    menus = {}
    for form in CONV_FORMS:
        for symbol in CONV_SYMBOLS:
            for (shape, cls), taps in sorted(_conv_menus(symbol, form).items()):
                rng.shuffle(taps)
                menus[(form, shape, symbol, cls)] = taps
    keys = list(menus)
    strata = design("strata")
    out: list[Spec] = []
    for _ in range(slots):
        weights = [len(menus[k]) for k in keys]
        if not any(weights):
            break
        form, shape, symbol, cls = key = strata.choices(keys, weights)[0]
        taps = menus[key].pop()
        conv = ConvolutionalCode(FiniteAbelianGroup(symbol), form, taps)
        out.append(Spec("", _conv_text(symbol, form, taps), "convolutional",
                        conv.analysis_horizon, None, None, stratum=f"{form}-{shape}-{cls}"))
    return out


GENERATORS = {
    "block-codes": block_codes,
    "long-horizon": long_horizon,
    "convolutional": convolutional,
}


def generate(workload: str, seed: int, rounds: int) -> list[Spec]:
    """The workload's specs for this seed.

    Two kinds of random stream: design streams, keyed by round and cell and
    the same for every seed, fix the shape of each op (|C| band and horizon,
    symbols, tap count and shape) and the order of ops within a round; the
    seed stream draws the codes inside those shapes.  Runs with different seeds therefore see different codes
    in the same mix, which keeps their timings comparable.
    """
    def design(*key) -> random.Random:
        return random.Random(":".join([workload, "design", *map(str, key)]))

    rng = random.Random(f"{workload}:{seed}")
    specs = GENERATORS[workload](design, rng, rounds)
    return [
        Spec(f"{i:05d}.spec", s.text, s.kind, s.horizon, s.log2_size, s.ambient,
             s.above_bound, s.stratum)
        for i, s in enumerate(specs)
    ]


def probe(workload: str, seed: int) -> Optional[Spec]:
    """A spec that hits a known defect of the program, or None.

    It is run once per run outside the timed loop and reported on its own,
    so the defect stays in sight while no op of the workload fails:
    block-codes tries a code above the 2**16 enumeration bound (refused
    with exit 2), convolutional one of CONV_MARGIN_ERROR (MarginError).
    """
    rng = random.Random(f"{workload}:probe:{seed}")
    if workload == "block-codes":
        symbols, gens, ambient, log2 = _above_bound_block(rng, rng, _Dedup())
        return Spec("probe.spec", _block_text(symbols, gens), "block", len(symbols),
                    log2, ambient, above_bound=True, stratum="above-bound")
    if workload == "convolutional":
        symbol, form, taps = rng.choice(sorted(CONV_MARGIN_ERROR))
        conv = ConvolutionalCode(FiniteAbelianGroup(symbol), form, taps)
        return Spec("probe.spec", _conv_text(symbol, form, taps), "convolutional",
                    conv.analysis_horizon, None, None, stratum="margin-error")
    return None
