"""Time the library's L0 kernels on the inputs one benchmark pool gives them.

    PYTHONPATH=src python tests/kernel_timing.py --workload W [--seed 7]
        [--limit K] [--repeat 5]

The pool of workload W and the seed (the specs a 36 s run of
``bench/run.py`` generates, or the first K) is run through
``groupcodes.cli.main`` under every command ``tests/report_digest.py``
runs on it, with the Howell cache cleared first.  Every input that reaches
the Howell kernel (every cache miss of ``linalg._howell_cached``), every
invariant-factor count (``linalg._counted_invariants``, on a Howell form
and its order),
every call of ``duality.pairs_to_zero`` and every pairing of the duality
report's pairing pass (``observe._row_pairings``: one C row, its weights
folded in, and the D rows it is paired with, over moduli all equal to
their lcm), every (code, l, n, levels) that
``control.order_profile`` tests, every prefix table that fills entries
(``codes._PrefixTable``, with the last end it filled: a code's own, the
dual's included, whose orders the duality report's dual control index
reads, or one with no owner whose orders the strong index reads), every
code whose annihilator windows fill entries of its local dual's prefix
table (with the last end filled), every code whose suffix projections proj_[a,N) C
the reports read (``BlockCode._suffix``, with the starts read), every
code whose duality report the commands run
(``observe.check_control_observe_duality``), every code that
``structure.cyclic_product_decomposition`` decomposes and every distinct
convolutional code the commands make (duals included) is recorded.  Each kernel is then timed on the
recorded inputs it takes, bucketed by matrix width:

* ``reference``: the ``_HowellSingle`` state, every row pushed at once, on
  every Howell input;
* ``reference-2^k``: the same on the inputs the packed kernel takes (every
  modulus a power of 2 up to 8);
* ``packed``: the ``_HowellPacked`` state on those inputs;
* ``dispatch``: ``_howell_kernel``, which picks one of the two, on every
  Howell input;
* ``prefix-per-end``: every entry of a recorded prefix table by one Howell
  form per end of the reversed rows vanishing from that end on, the route
  the prefix table took before the sweep;
* ``prefix-sweep``: the same entries filled by one unfinished sweep of
  one Howell state (``_PrefixTable.entry``), weak Howell forms; each is
  checked by its own Howell form and its pivot columns and products;
* ``order-sweep``: every window order |C ∩ [a, b)|, b up to the last end,
  read through ``_PrefixTable.order`` on a table with no owner, as the
  strong index reads them; checked against the orders of
  ``prefix-per-end``'s forms;
* ``annihilator-per-end``: entries 1..last of a recorded annihilator
  table, C-perp ∩ [0, b) for each end b, by one kernel per end
  (``kernel_references.per_end_prefix_annihilator``), the route
  ``window_annihilator(code, 0, b)`` took before it read the local dual;
* ``annihilator-table``: the same entries by ``window_annihilator``: one
  kernel of the code's rows, the local dual T = C-perp, one unfinished
  sweep of T's prefix table, and the Howell form of each entry's rows;
* ``suffix-codes``: the pivot record of proj_[a,N) C for every recorded
  start a, each built as a code of its own with its own space and Howell
  form (``kernel_references.suffix_projection_code``), the route before
  the suffix projections were records;
* ``suffix-records``: the same records by ``BlockCode._suffix`` on a
  fresh copy of the code: one unfinished trimming sweep of one Howell
  state (``codes._SuffixTable``), weak Howell forms in the space's own
  columns and no code or space; each is checked by the Howell form of its
  rows cut to [a, N) and its pivot columns, shifted by offset(a), and
  products;
* ``matched-own-table``: the duals of the matched sides of each recorded
  duality report, on a fresh copy of its code, with T = D-perp a code of
  its own that reads its own prefix table, each gap one Howell form of
  its stacked window rows, and every side dualized at each gap
  (``kernel_references.own_table_matched_duals``), the route before the
  local dual's local dual was the code;
* ``matched-shared-table``: the same by ``observe._matched_duals``, where
  T is the code, whose chain of sums, climbed once and kept as a tuple
  (``codes._subcode_chain``), both sides read, and each distinct side is
  one object, dualized once;
* ``duality-windows-cut``: the window checks and chain verdict of each
  recorded duality report, every projection of the dual a cut copy of
  its rows and every nested containment tested on every row
  (``kernel_references.cut_duality_windows``), the route before the walk;
* ``duality-windows-walk``: the same by ``observe._window_walk``, one
  walk per start over the dual's suffix record and the prefix entries,
  after one pairing pass per report that pairs each (C row, D row) pair
  whose rows meet once, and only the rows each end adds or changes
  tested.  Both run on the recorded code, whose
  tables its report filled, so they time the reads only;
* ``smith``: invariant factors by the integer Smith form
  (``kernel_references.smith_quotient_invariants``) on every
  ``_counted_invariants`` input, its numerator and denominator;
* ``counted``: ``_counted_invariants``, which counts them on the Howell
  form and the order it is given;
* ``pair-loop``: the residue-by-residue pairing test
  (``kernel_references.loop_pairs_to_zero``) on every ``pairs_to_zero``
  input and every pairing of the duality report's pairing pass;
* ``pair-map``: ``pairs_to_zero`` on the same inputs;
* ``order-graph``: the order split by a split graph
  (``kernel_references.order_split_everywhere``, given the prefix and
  suffix window codes) on every order split input;
* ``order-counted``: ``control._order_splits``, which compares span
  orders; each call builds its own scaled Howell forms (an unmemoized
  ``control._scaled_form``), where ``order_profile`` shares them between
  the (l, n) of one code;
* ``peel-code``: the decomposition with every primary part and peel
  complement built as a code (``kernel_references.code_peel_decomposition``),
  on a fresh copy of every decomposed code;
* ``peel-reversed``: ``cyclic_product_decomposition``, which peels each
  primary part in one Howell state on its column-reversed rows, on the
  same copies; the generators and the certificate are compared;
* ``conv-windows-reference``: the code, zero-extension and finite-support
  windows [0, n), n <= min(N, 6), as rows and order, and the weak
  controllability and observability verdicts of a fresh copy of every
  recorded convolutional code, by the route before the window engine
  (``kernel_references.ReferenceWindows``: full-window settle steps, long
  windows, the kept cut window);
* ``conv-windows-engine``: the same by ``groupcodes.convolutional``, one
  window per read kind ending in terminal rows settled on
  (s + 1)-symbol windows.

A line gives the kernel, the width bucket, the input count, the number of
outputs that differ from the reference's (``_HowellSingle``,
``prefix-per-end``, ``annihilator-per-end``, ``suffix-codes``,
``matched-own-table``, ``duality-windows-cut``, ``smith``, ``pair-loop``,
``order-graph``, ``peel-code`` or ``conv-windows-reference``) and the
best of ``--repeat`` timed passes, in seconds of CPU time (a shared machine's other load then shows less than in wall
time).  The Howell cache is cleared before each pass, so a kernel that
reads Howell forms pays for them in every pass.
"""

from __future__ import annotations

import argparse
import bisect
import functools
import math
import operator
import os
import sys
import tempfile
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import kernel_references  # noqa: E402  (the Smith route, the pairing loop)
import report_digest  # noqa: E402  (the pools, the commands, one report)

from groupcodes import (  # noqa: E402
    cli,
    codes,
    control,
    convolutional,
    duality,
    linalg,
    observe,
    structure,
)
from groupcodes.codes import BlockCode, SequenceSpace, window_internal  # noqa: E402
from groupcodes.convolutional import ConvolutionalCode  # noqa: E402

# (label, least width, largest width) of each bucket, then of all inputs.
BUCKETS = (
    ("0-4", 0, 4),
    ("5-8", 5, 8),
    ("9-16", 9, 16),
    ("17-32", 17, 32),
    ("33-64", 33, 64),
    ("65+", 65, math.inf),
)
EVERY = ("all", 0, math.inf)


def recorded_inputs(workload: str, seed: int, limit: int | None) -> tuple[dict, int]:
    """The inputs that reached each kernel while the pool ran through the
    CLI, by kernel ("howell": (rows, moduli), "quotient": (numerator,
    denominator rows), "pairs": (xs, ys, moduli), "order": (code, l, n,
    levels) and the memoized forms ``order_profile`` passed), and the
    number of specs run.  "prefix" holds (space, reversed rows, last end)
    of every prefix table that filled an entry, "annihilator" (code, last
    end) of every code whose local dual's prefix table filled one,
    "suffix" (code, starts) of every code whose suffix projections were
    read, "matched" (code,) of every duality report, "peel" (code,) of every
    decomposed code, "conv" (code,) of every distinct convolutional
    code."""
    inputs = {"howell": [], "quotient": [], "pairs": [], "order": [], "matched": [], "peel": []}
    tables, dualized, convs = [], [], []
    table_init = codes._PrefixTable.__init__
    conv_init = ConvolutionalCode.__post_init__
    local_dual = codes.BlockCode.__dict__["_local_dual"]
    dualize = local_dual.fn
    suffix = codes.BlockCode._suffix
    suffixed = {}  # id -> (code, starts read), in first-read order

    def record_table(table, *args):
        tables.append(table)
        table_init(table, *args)

    def record_dual(code):
        dualized.append(code)
        return dualize(code)

    def record_suffix(code, a):
        suffixed.setdefault(id(code), (code, set()))[1].add(a)
        return suffix(code, a)

    def record_conv(conv):
        conv_init(conv)
        convs.append(conv)

    # (module, name, the inputs it records into) of every wrapped kernel;
    # ``codes`` and ``cli`` call their own imported names.
    wrapped = (
        (linalg, "_howell_kernel", inputs["howell"]),
        (linalg, "_counted_invariants", inputs["quotient"]),
        (codes, "_counted_invariants", inputs["quotient"]),
        (duality, "pairs_to_zero", inputs["pairs"]),
        (control, "_order_splits", inputs["order"]),
        (observe, "check_control_observe_duality", inputs["matched"]),
        (cli, "check_control_observe_duality", inputs["matched"]),
        (structure, "cyclic_product_decomposition", inputs["peel"]),
        (cli, "cyclic_product_decomposition", inputs["peel"]),
    )
    originals = [getattr(module, name) for module, name, _ in wrapped]
    walk_pass, walk_pairing = observe._failing_pairs, observe._row_pairings
    walk = {}  # the D rows by id and ``top`` of the pass running

    def record_walk_pass(entries, records, offsets, moduli):
        walk.update(rows={id(y): y for ys, _, _ in records for y in ys}, top=math.lcm(*moduli))
        return walk_pass(entries, records, offsets, moduli)

    def record_walk_pairing(x, reach, column_rows, weights):
        # The C row with the weights top/m_j folded in and the D rows it
        # is paired with, as an input of ``pairs_to_zero`` over moduli
        # all top.
        sums = walk_pairing(x, reach, column_rows, weights)
        if sums:
            ys = [walk["rows"][y] for y in sums]
            folded = list(map(operator.mul, x, weights))
            inputs["pairs"].append(([folded], ys, (walk["top"],) * len(x)))
        return sums

    def recording(kernel, record):
        def record_call(*args):
            record.append(args)
            return kernel(*args)

        return record_call

    specs = report_digest.pool(workload, seed, limit)
    linalg._howell_cached.cache_clear()
    for (module, name, record), kernel in zip(wrapped, originals):
        setattr(module, name, recording(kernel, record))
    observe._failing_pairs, observe._row_pairings = record_walk_pass, record_walk_pairing
    codes._PrefixTable.__init__ = record_table
    local_dual.fn = record_dual
    codes.BlockCode._suffix = record_suffix
    ConvolutionalCode.__post_init__ = record_conv
    try:
        with tempfile.TemporaryDirectory() as work:
            for spec in specs:
                path = os.path.join(work, spec.name)
                with open(path, "w", encoding="utf-8") as handle:
                    handle.write(spec.text)
                for command in report_digest.COMMANDS[workload]:
                    report_digest.report(command, path)
    finally:
        for (module, name, _), kernel in zip(wrapped, originals):
            setattr(module, name, kernel)
        observe._failing_pairs, observe._row_pairings = walk_pass, walk_pairing
        codes._PrefixTable.__init__ = table_init
        local_dual.fn = dualize
        codes.BlockCode._suffix = suffix
        ConvolutionalCode.__post_init__ = conv_init
    inputs["prefix"] = [
        (table.space, table.reversed_rows, len(table.entries) - 1)
        for table in tables
        if len(table.entries) > 1
    ]
    filled = ((code, code._local_dual.__dict__.get("_prefixes")) for code in dualized)
    inputs["annihilator"] = [
        (code, len(table.entries) - 1) for code, table in filled if table and len(table.entries) > 1
    ]
    inputs["suffix"] = [
        (code, tuple(sorted(starts - {0}))) for code, starts in suffixed.values() if starts - {0}
    ]
    inputs["conv"] = [(conv,) for conv in dict.fromkeys(convs)]
    return inputs, len(specs)


def one_shot(state, rows) -> list:
    """The Howell form of ``rows`` by one ``state``, every row pushed at once."""
    state.push(rows)
    return state.finish()


def single(rows, moduli) -> list:
    return one_shot(linalg._HowellSingle(moduli), rows)


def packed(rows, moduli) -> list:
    return one_shot(linalg._HowellPacked(moduli), rows)


def prefix_per_end(space, reversed_rows, last) -> list:
    """Entries 1..``last`` of a prefix table, one Howell form per end."""
    moduli, offsets = space.flat_moduli, space.offsets()
    entries = []
    for b in range(1, last + 1):
        head = offsets[-1] - offsets[b]
        rows = tuple(row[::-1] for row in reversed_rows if not any(row[:head]))
        canon = linalg.howell_form(linalg._trusted(moduli, rows)).rows
        entries.append(kernel_references.pivot_record(canon, moduli))
    return entries


def prefix_sweep(space, reversed_rows, last) -> list:
    """Entries 1..``last`` of a prefix table, by its unfinished sweep."""
    table = codes._PrefixTable(space, reversed_rows)
    table.entry(last)
    return table.entries[1:]


def finished(entries, space) -> list:
    """Each entry's rows replaced by their Howell form, so a weak Howell
    form with the right pivot columns and products reads as the per-end
    form's entry."""
    moduli = space.flat_moduli
    return [
        (linalg.howell_form(linalg._trusted(moduli, rows)).rows, columns, products)
        for rows, columns, products in entries
    ]


def window_orders(entries, space) -> list:
    """|C ∩ [a, b)| for b = 1..len(entries) and a = 0..b, off the entries
    C ∩ [0, b)."""
    offsets = space.offsets()
    return [
        products[-1] // products[bisect.bisect_left(columns, offsets[a])]
        for b, (_, columns, products) in enumerate(entries, 1)
        for a in range(b + 1)
    ]


def order_sweep(space, reversed_rows, last) -> list:
    """The window orders of entries 1..``last``, read through
    ``_PrefixTable.order`` on a table with no owner."""
    order = codes._PrefixTable(space, reversed_rows).order
    return [order(a, b) for b in range(1, last + 1) for a in range(b + 1)]


def duality_windows_walk(code) -> tuple:
    """The window checks and chain verdict of ``code``'s duality report
    by the walk, on the tables its report filled."""
    return observe._window_walk(code, code._local_dual)


def smith_factors(numerator, denominator_rows, order) -> tuple:
    """Invariant factors by the integer Smith form on one
    ``_counted_invariants`` input, whose order the Smith form does not read."""
    return kernel_references.smith_quotient_invariants(numerator, denominator_rows)


def annihilator_per_end(code, last) -> list:
    """C-perp ∩ [0, b) for b = 1..``last``, one kernel per end."""
    return [kernel_references.per_end_prefix_annihilator(code, b) for b in range(1, last + 1)]


def annihilator_table(code, last) -> list:
    """The same windows by ``window_annihilator`` on a fresh copy of the
    code: one kernel, one reversed Howell form, one unfinished sweep of
    the local dual's prefix table, and one Howell form per window."""
    fresh = BlockCode.from_howell(code.space, code.basis.rows)
    return [codes.window_annihilator(fresh, 0, b).basis.rows for b in range(1, last + 1)]


def suffix_codes(code, starts) -> list:
    """The record of proj_[a,N) C for each start, each built as a code of
    its own."""
    return [
        kernel_references.pivot_record(proj.basis.rows, proj.basis.moduli)
        for proj in (kernel_references.suffix_projection_code(code, a) for a in starts)
    ]


def suffix_records(code, starts) -> list:
    """The same records by ``BlockCode._suffix`` on a fresh copy of the
    code: entries of its suffix table, one trimming sweep."""
    fresh = BlockCode.from_howell(code.space, code.basis.rows)
    return [fresh._suffix(a) for a in starts]


def finished_suffixes(records, call) -> list:
    """Each suffix record in the coordinates of [a, N): its rows cut at
    offset(a) and replaced by their Howell form, its pivot columns shifted
    by offset(a), so a weak Howell form of proj_[a,N) C with the right
    pivot columns and products reads as the per-start form's record."""
    code, starts = call
    offsets, moduli = code.space.offsets(), code.basis.moduli
    reads = []
    for a, (rows, columns, products) in zip(starts, records):
        lo = offsets[a]
        canon = linalg.howell_form(linalg._trusted(moduli[lo:], tuple(row[lo:] for row in rows)))
        reads.append((canon.rows, tuple(j - lo for j in columns), products))
    return reads


def _fresh_matched_rows(matched_duals, code) -> tuple:
    """The rows of the matched sides' duals that ``matched_duals`` gives on
    a fresh copy of ``code`` (no dual or table kept)."""
    fresh = BlockCode.from_howell(code.space, code.basis.rows)
    return tuple(tuple(c.basis.rows for c in side) for side in matched_duals(fresh))


def matched_own_table(code) -> tuple:
    return _fresh_matched_rows(kernel_references.own_table_matched_duals, code)


def matched_shared_table(code) -> tuple:
    return _fresh_matched_rows(lambda c: observe._matched_duals(c, c._local_dual), code)


def peel_code(code) -> tuple:
    """Generators and certificate of the complement-code route, on a fresh
    copy of ``code`` (no reversed Howell form or prefix table kept)."""
    fresh = BlockCode.from_howell(code.space, code.basis.rows)
    decomposition = kernel_references.code_peel_decomposition(fresh)
    return decomposition.generators, decomposition.certificate


def peel_reversed(code) -> tuple:
    """The same by ``cyclic_product_decomposition``, on a fresh copy."""
    fresh = BlockCode.from_howell(code.space, code.basis.rows)
    decomposition = structure.cyclic_product_decomposition(fresh)
    return decomposition.generators, decomposition.certificate


def _fresh_conv(conv) -> ConvolutionalCode:
    return ConvolutionalCode(conv.symbol, conv.form, conv.taps, conv.horizon)


def conv_windows_reference(conv) -> tuple:
    """Every report read of a fresh copy of ``conv`` and its weak verdicts,
    by the route before the window engine."""
    ref = kernel_references.ReferenceWindows(_fresh_conv(conv))
    last = min(conv.analysis_horizon, convolutional.REPORT_WINDOWS)
    reads = [(ref.code(n), ref.zero_extension(n), ref.finite_support(n)) for n in range(1, last + 1)]
    return reads, ref.weak_controllability(), ref.weak_observability()


def conv_windows_engine(conv) -> tuple:
    """The same by the window engine."""
    fresh, engine = _fresh_conv(conv), convolutional
    last = min(conv.analysis_horizon, engine.REPORT_WINDOWS)
    reads = [
        (
            engine._read(fresh, "code", n),
            engine._read(fresh, "zero extension", n),
            engine._read(fresh, "finite support", n),
        )
        for n in range(1, last + 1)
    ]
    return reads, engine.weak_controllability(fresh), engine.weak_observability(fresh)


def as_is(output, call):
    return output


def best_time(kernel, inputs: list, repeat: int) -> float:
    best = float("inf")
    for _ in range(repeat):
        linalg._howell_cached.cache_clear()
        start = time.process_time()
        for args in inputs:
            kernel(*args)
        best = min(best, time.process_time() - start)
    return best


def width(args: tuple) -> int:
    """The matrix width of one recorded input: its code's, space's or
    numerator's, a convolutional code's report windows', or the length of
    its moduli, which come last."""
    first = args[0]
    if isinstance(first, ConvolutionalCode):
        return len(first.symbol.moduli) * first._reads
    if isinstance(first, BlockCode):
        return first.basis.width
    if isinstance(first, SequenceSpace):
        return len(first.flat_moduli)
    return first.width if isinstance(first, linalg.ResidueMatrix) else len(args[-1])


def split_graph(code, l, n, levels) -> bool:
    """The split-graph decision at (l, n), on the window codes that
    ``order_profile`` passed it before it counted."""
    N = code.space.horizon
    return kernel_references.order_split_everywhere(
        code, window_internal(code, 0, n), window_internal(code, l, N), n, levels
    )


def order_counted(code, l, n, levels) -> bool:
    """``control._order_splits`` at (l, n), with scaled forms of its own."""
    return control._order_splits(code, l, n, levels, functools.partial(control._scaled_form, code))


def print_lines(name, kernel, calls, expected, widths, repeat, read) -> None:
    """One line per nonempty width bucket, then one for all ``calls``; an
    output is compared with its expected one as ``read`` reads it, given
    the output and the call."""
    for label, low, high in BUCKETS + (EVERY,):
        picked = [i for i, w in enumerate(widths) if low <= w <= high]
        if not picked and label != "all":
            continue
        chosen = [calls[i] for i in picked]
        mismatches = sum(read(kernel(*calls[i]), calls[i]) != expected[i] for i in picked)
        seconds = best_time(kernel, chosen, repeat)
        print(f"{name:<23}{label:>7}{len(picked):>8}{mismatches:>12}{seconds:>10.4f}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(report_digest.COMMANDS))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--limit", type=int, default=None)
    parser.add_argument("--repeat", type=int, default=5)
    args = parser.parse_args(argv)
    if args.limit is not None and args.limit < 1:
        parser.error("--limit must be at least 1")
    if args.repeat < 1:
        parser.error("--repeat must be at least 1")
    inputs, specs = recorded_inputs(args.workload, args.seed, args.limit)
    howell = inputs["howell"]
    packable = [
        i for i, (_, moduli) in enumerate(howell) if linalg._PACKED_MODULI.issuperset(moduli)
    ]
    quotients, pairs = inputs["quotient"], inputs["pairs"]
    splits = [call[:4] for call in inputs["order"]]
    prefixes, annihilators, peels = inputs["prefix"], inputs["annihilator"], inputs["peel"]
    suffixes, matched, convs = inputs["suffix"], inputs["matched"], inputs["conv"]
    print(
        f"{args.workload} seed {args.seed}: {len(howell)} Howell inputs from "
        f"{specs} specs, {len(packable)} on the packed path, "
        f"{len(quotients)} quotient inputs, {len(pairs)} pairing inputs, "
        f"{len(splits)} order split inputs, {len(prefixes)} prefix tables, "
        f"{len(annihilators)} annihilator tables, {len(suffixes)} suffix tables, "
        f"{len(matched)} duality reports, "
        f"{len(peels)} decompositions, "
        f"{len(convs)} convolutional codes"
    )
    print(f"{'kernel':<23}{'width':>7}{'inputs':>8}{'mismatches':>12}{'seconds':>10}")
    expected = [single(*call) for call in howell]
    two_power = [howell[i] for i in packable]
    two_power_expected = [expected[i] for i in packable]
    per_end = [prefix_per_end(*call) for call in prefixes]
    per_end_orders = [window_orders(entries, call[0]) for entries, call in zip(per_end, prefixes)]
    kernel_per_end = [annihilator_per_end(*call) for call in annihilators]
    by_suffix_codes = [suffix_codes(*call) for call in suffixes]
    own_table = [matched_own_table(*call) for call in matched]
    cut_windows = [kernel_references.cut_duality_windows(*call) for call in matched]
    smith = [smith_factors(*call) for call in quotients]
    loop = [kernel_references.loop_pairs_to_zero(*call) for call in pairs]
    graph = [split_graph(*call) for call in splits]
    by_codes = [peel_code(*call) for call in peels]
    by_reference = [conv_windows_reference(*call) for call in convs]
    # (name, kernel, its calls, the reference output of each, the inputs
    # the calls were made from)
    kernels = (
        ("reference", single, howell, expected, howell),
        ("reference-2^k", single, two_power, two_power_expected, two_power),
        ("packed", packed, two_power, two_power_expected, two_power),
        ("dispatch", linalg._howell_kernel, howell, expected, howell),
        ("prefix-per-end", prefix_per_end, prefixes, per_end, prefixes),
        ("prefix-sweep", prefix_sweep, prefixes, per_end, prefixes),
        ("order-sweep", order_sweep, prefixes, per_end_orders, prefixes),
        ("annihilator-per-end", annihilator_per_end, annihilators, kernel_per_end, annihilators),
        ("annihilator-table", annihilator_table, annihilators, kernel_per_end, annihilators),
        ("suffix-codes", suffix_codes, suffixes, by_suffix_codes, suffixes),
        ("suffix-records", suffix_records, suffixes, by_suffix_codes, suffixes),
        ("matched-own-table", matched_own_table, matched, own_table, matched),
        ("matched-shared-table", matched_shared_table, matched, own_table, matched),
        ("duality-windows-cut", kernel_references.cut_duality_windows, matched, cut_windows, matched),
        ("duality-windows-walk", duality_windows_walk, matched, cut_windows, matched),
        ("smith", smith_factors, quotients, smith, quotients),
        ("counted", linalg._counted_invariants, quotients, smith, quotients),
        ("pair-loop", kernel_references.loop_pairs_to_zero, pairs, loop, pairs),
        ("pair-map", duality.pairs_to_zero, pairs, loop, pairs),
        ("order-graph", split_graph, splits, graph, splits),
        ("order-counted", order_counted, splits, graph, splits),
        ("peel-code", peel_code, peels, by_codes, peels),
        ("peel-reversed", peel_reversed, peels, by_codes, peels),
        ("conv-windows-reference", conv_windows_reference, convs, by_reference, convs),
        ("conv-windows-engine", conv_windows_engine, convs, by_reference, convs),
    )
    for name, kernel, calls, outputs, recorded in kernels:
        widths = [width(args) for args in recorded]
        read = {
            "prefix-sweep": lambda out, call: finished(out, call[0]),
            "suffix-records": finished_suffixes,
        }.get(name, as_is)
        print_lines(name, kernel, calls, outputs, widths, args.repeat, read)
    return 0


if __name__ == "__main__":
    sys.exit(main())
