"""Tests for consistency sets, observability and duality reports."""

import io
import random
import sys
from bisect import bisect_left
from collections import Counter
from contextlib import redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groupcodes.codes import (
    BlockCode,
    SequenceSpace,
    ambient_code,
    code_from_generators,
    window_annihilator,
    window_internal,
    window_projection,
)
from groupcodes.control import control_profile
from groupcodes.duality import dual_block_code
from groupcodes.groups import FiniteAbelianGroup
from groupcodes.linalg import howell_form, residue_matrix
from groupcodes.observe import (
    _observe_index,
    check_control_observe_duality,
    consistency_set,
    observable_supercode,
    observe_profile,
)
from groupcodes.oracle import DEFAULT_BOUND, brute_consistency_set, enumerate_code
from groupcodes.specfmt import parse_spec

from .conftest import BAND_SPEC_PATHS, BAND_SPECS, band_code
from .kernel_references import cut_duality_windows
from .test_cli import z8_band_spec
from .test_codes import (
    mixed_codes,
    reference_window_annihilator,
    reference_window_internal,
    reference_window_projection,
)


def space(*symbol_moduli):
    return SequenceSpace(tuple(FiniteAbelianGroup(m) for m in symbol_moduli))


def binary_space(n):
    return space(*[(2,)] * n)


@pytest.fixture
def even_weight():
    return code_from_generators(binary_space(3), [(1, 1, 0), (0, 1, 1)])


@pytest.fixture
def repetition():
    return code_from_generators(binary_space(3), [(1, 1, 1)])


class TestConsistencySet:
    def test_repetition_prefix_window(self, repetition):
        got = set(consistency_set(repetition, 0, 1).words())
        assert got == {(a, a, b) for a in range(2) for b in range(2)}

    def test_window_covering_everything(self, even_weight):
        assert consistency_set(even_weight, 0, 2) == even_weight

    def test_even_weight_short_window_is_everything(self, even_weight):
        assert consistency_set(even_weight, 0, 1) == ambient_code(even_weight.space)

    def test_contains_code(self, even_weight, repetition):
        for code in (even_weight, repetition):
            for k in range(3):
                for L in range(3):
                    assert code.is_subcode_of(consistency_set(code, k, L))

    def test_matches_brute_force(self):
        rng = random.Random(97)
        for _ in range(20):
            sp = space(*[(rng.choice([2, 3, 4]),) for _ in range(rng.randint(2, 3))])
            code = code_from_generators(
                sp, [[rng.randrange(m) for m in sp.flat_moduli] for _ in range(2)]
            )
            enum = enumerate_code(code)
            for k in range(sp.horizon):
                for L in range(sp.horizon + 1):
                    got = set(consistency_set(code, k, L).words())
                    assert got == set(brute_consistency_set(enum, k, L, DEFAULT_BOUND))


def test_consistency_set_matches_howell_form_of_generators(mixed_corpus):
    # The canonical basis written directly equals the Howell form of the
    # generator set: the padded projection rows and every outside unit row.
    for code in mixed_corpus:
        N = code.space.horizon
        moduli = code.space.flat_moduli
        width = len(moduli)
        for k in range(N):
            for L in range(N + 1):
                sl = code.space.flat_slice(k, min(k + L + 1, N))
                rows = [
                    (0,) * sl.start + row + (0,) * (width - sl.stop)
                    for row in window_projection(code, k, min(k + L + 1, N)).basis.rows
                ]
                rows += [
                    [int(i == j) for i in range(width)]
                    for j in range(width)
                    if not sl.start <= j < sl.stop
                ]
                expected = howell_form(residue_matrix(rows, moduli))
                assert consistency_set(code, k, L).basis == expected


class TestObservableSupercode:
    def test_repetition_window_one(self, repetition):
        assert observable_supercode(repetition, 1) == repetition

    def test_even_weight_windows(self, even_weight):
        assert observable_supercode(even_weight, 1) == ambient_code(
            even_weight.space
        )
        assert observable_supercode(even_weight, 2) == even_weight

    def test_ambient_at_zero(self):
        amb = ambient_code(binary_space(3))
        assert observable_supercode(amb, 0) == amb

    def test_decreasing_in_window(self, even_weight):
        prev = None
        for L in range(4):
            cur = observable_supercode(even_weight, L)
            assert even_weight.is_subcode_of(cur)
            if prev is not None:
                assert cur.is_subcode_of(prev)
            prev = cur

    def test_negative_window_is_rejected(self, even_weight):
        # Checked before the sum, so the message is the supercode's own
        # (``controllable_subcode``'s is tested in test_control.py).
        with pytest.raises(ValueError, match="window length must be nonnegative"):
            observable_supercode(even_weight, -1)


class TestObserveProfile:
    def test_repetition_index(self, repetition):
        assert observe_profile(repetition).index == 1

    def test_even_weight_index(self, even_weight):
        assert observe_profile(even_weight).index == 2

    def test_ambient_index(self):
        assert observe_profile(ambient_code(binary_space(3))).index == 0

    def test_per_position_minima_realize_code(self, even_weight, repetition):
        from groupcodes.codes import intersect

        for code in (even_weight, repetition):
            profile = observe_profile(code)
            result = ambient_code(code.space)
            for k, lk in enumerate(profile.lengths):
                result = intersect(result, consistency_set(code, k, lk))
            assert result == code


def reference_meet(code, lengths):
    """The meet of the consistency sets on [k, k + lengths[k]]."""
    from groupcodes.codes import intersect

    result = ambient_code(code.space)
    for k, lk in enumerate(lengths):
        result = intersect(result, consistency_set(code, k, lk))
    return result


def reference_observe_lengths(code, index):
    """The greedy of observe_profile, recomputing the full meet per trial."""
    lengths = [index] * code.space.horizon
    for k in range(len(lengths)):
        while lengths[k] > 0:
            trial = list(lengths)
            trial[k] -= 1
            if reference_meet(code, trial) != code:
                break
            lengths = trial
    return tuple(lengths)


def test_greedy_matches_full_recomputation(exhaustive_corpus, random_corpus):
    for code in exhaustive_corpus + random_corpus[:100]:
        profile = observe_profile(code)
        assert observable_supercode(code, profile.index) == code
        if profile.index:
            assert observable_supercode(code, profile.index - 1) != code
        assert profile.lengths == reference_observe_lengths(code, profile.index)


@given(mixed_codes())
@settings(max_examples=80, deadline=None, derandomize=True)
def test_counted_greedy_matches_full_recomputation(code):
    profile = observe_profile(code)
    assert profile.lengths == reference_observe_lengths(code, profile.index)


def test_observe_profile_counts_on_the_suffix_projections(mixed_corpus, monkeypatch):
    # No sum is joined and no kernel is built: each |C-perp ∩ [a, b)| is
    # |G_[a,b)| / |proj_[a,b) C|, read off the suffix projections.
    import groupcodes.codes as codes_module
    import groupcodes.control as control_module
    import groupcodes.linalg as linalg_module
    import groupcodes.observe as observe_module

    calls = Counter()
    for module in (codes_module, control_module, linalg_module, observe_module):
        for name in ("join", "stack", "head_kernel"):
            if hasattr(module, name):
                original = getattr(module, name)

                def counted(*args, _name=name, _original=original):
                    calls[_name] += 1
                    return _original(*args)

                monkeypatch.setattr(module, name, counted)
    codes = [BlockCode(c.space, c.basis) for c in mixed_corpus]
    codes += [band_code(path.name) for path in BAND_SPEC_PATHS]
    for code in codes:
        calls.clear()
        observe_profile(code)
        assert calls["join"] == calls["stack"] == calls["head_kernel"] == 0


@pytest.mark.parametrize("spec", ["z4_band10_code.spec", "mixed_band8.spec"])
def test_block_analyze_builds_no_annihilator(spec, monkeypatch):
    import groupcodes.codes as codes_module
    import groupcodes.duality as duality_module
    import groupcodes.linalg as linalg_module
    from groupcodes.cli import main

    calls = Counter()
    original = linalg_module.annihilator_rows

    def counted(matrix):
        calls["annihilator_rows"] += 1
        return original(matrix)

    for module in (codes_module, duality_module, linalg_module):
        monkeypatch.setattr(module, "annihilator_rows", counted)
    path = next(p for p in BAND_SPEC_PATHS if p.name == spec)
    with redirect_stdout(io.StringIO()):
        assert main(["analyze", str(path)]) == 0
    assert calls["annihilator_rows"] == 0


@pytest.mark.parametrize("spec", ["z4_band10_code.spec", "mixed_band8.spec"])
def test_duality_check_makes_one_kernel_of_the_code(spec, monkeypatch):
    # The dual is the code's prefix annihilator at the horizon, the one
    # kernel of C's rows.  The supercode side's top T, the kernel of the
    # dual's rows, has C's rows and is the code itself, so its dual is the
    # report's dual.  The observe index builds none: it reads the code's
    # suffix projections.
    import groupcodes.codes as codes_module
    import groupcodes.duality as duality_module

    code = band_code(spec)
    kernels = Counter()
    original = codes_module.annihilator_rows

    def counted(matrix):
        kernels[matrix.rows] += 1
        return original(matrix)

    monkeypatch.setattr(codes_module, "annihilator_rows", counted)
    monkeypatch.setattr(duality_module, "annihilator_rows", counted)
    assert check_control_observe_duality(code).ok
    assert kernels[code.basis.rows] == 1


def test_duality_check_reads_the_bidual_off_the_code_tables(monkeypatch):
    # T = D-perp is one kernel of the dual's rows; they equal C's, so T is
    # the code object and the annihilator sums read C's prefix table.  The
    # report keeps two prefix tables, C's and D's, each on its code, and
    # none for T: the dual's control index is counted on D's own table
    # (``control_profile``).  It sweeps two suffix tables: D's records for
    # the walk and C's for the observe index.  No table's Howell state is
    # ever finished.  The one other state is the one climb of C's chain of
    # controllable subcodes (``codes._subcode_chain``), finished at each
    # gap that takes new window rows: gaps 0 and 2, where it reaches its
    # top; gap 1 takes none and shares the object of gap 0.  The chain is
    # kept on C as the tuple (cs_0, cs_0, C), and D keeps none.  Each of
    # C and D is kernelled once.
    import groupcodes.codes as codes_module

    code = band_code("z4_band10_code.spec")
    tables, suffix_tables, kernels, states = [], [], Counter(), []
    table_init, kernel = codes_module._PrefixTable.__init__, codes_module.annihilator_rows
    suffix_init, make_state = codes_module._SuffixTable.__init__, codes_module._howell_state

    class CountedState:
        def __init__(self, moduli):
            self.state, self.finished = make_state(moduli), 0
            states.append(self)

        def push(self, rows):
            self.state.push(rows)

        def record(self):
            return self.state.record()

        def trim(self, cut):
            return self.state.trim(cut)

        def finish(self):
            self.finished += 1
            return self.state.finish()

    def counted_table(self, space, reversed_rows):
        tables.append(self)
        table_init(self, space, reversed_rows)

    def counted_suffix_table(self, space, rows, whole):
        suffix_tables.append((self, rows))
        suffix_init(self, space, rows, whole)

    def counted_kernel(matrix):
        kernels[matrix.rows] += 1
        return kernel(matrix)

    monkeypatch.setattr(codes_module._PrefixTable, "__init__", counted_table)
    monkeypatch.setattr(codes_module._SuffixTable, "__init__", counted_suffix_table)
    monkeypatch.setattr(codes_module, "annihilator_rows", counted_kernel)
    monkeypatch.setattr(codes_module, "_howell_state", CountedState)
    assert check_control_observe_duality(code).ok
    dual = dual_block_code(code)
    assert dual_block_code(dual) is code
    assert kernels[code.basis.rows] == kernels[dual.basis.rows] == 1
    assert [table.reversed_rows for table in tables] == [
        code._reversed_howell,
        dual._reversed_howell,
    ]
    assert code._prefixes is tables[0] and dual._prefixes is tables[1]
    assert [(table, rows) for table, rows in suffix_tables] == [
        (dual._suffixes, dual.basis.rows),
        (code._suffixes, code.basis.rows),
    ]
    swept = {id(table.state) for table in tables + [table for table, _ in suffix_tables]}
    (climb,) = [state for state in states if id(state) not in swept]
    assert len(states) == len(swept) + 1
    assert not any(state.finished for state in states if state is not climb)
    chain = code.__dict__["_subcodes"]
    assert "_subcodes" not in dual.__dict__
    assert (climb.finished, len(chain) - 1) == (2, 2)
    assert chain[1] is chain[0] and chain[2] is code


class TestOwnerGate:
    """One owner per subgroup on the duality path, counted per
    ``duality-check`` on three band specs.  Each distinct subgroup the
    report dualizes (C, D and each distinct controllable subcode of C;
    T = D-perp is C) takes one kernel (``linalg.annihilator_rows``), kept
    on its code object (``BlockCode._local_dual``), and each distinct dual
    object, one per distinct subcode, has its invariant factors counted
    once (``linalg._counted_invariants``, kept as
    ``BlockCode._invariant_factors``).  The counts are pinned too."""

    # (kernels, invariant-factor counts) per spec.  On the N = 10 code the
    # chain is (cs_0, cs_0, C): gap 1 takes no new row, and a second
    # object there would take a fourth kernel and a third count.
    COUNTS = {
        "z4_band8_code.spec": (4, 3),
        "z4_band10_code.spec": (3, 2),
        "mixed_band8.spec": (4, 3),
    }

    @pytest.mark.parametrize("spec", sorted(COUNTS))
    def test_one_kernel_and_one_count_per_owner(self, spec, monkeypatch, capsys):
        import groupcodes.codes as codes_module
        from groupcodes.cli import main
        from groupcodes.control import controllable_subcode

        kernels, invariants = Counter(), Counter()
        kernel, count = codes_module.annihilator_rows, codes_module._counted_invariants

        def counted_kernel(matrix):
            kernels[matrix.rows] += 1
            return kernel(matrix)

        def counted_invariants(canon, denominator_rows, order):
            invariants[canon.rows] += 1
            return count(canon, denominator_rows, order)

        monkeypatch.setattr(codes_module, "annihilator_rows", counted_kernel)
        monkeypatch.setattr(codes_module, "_counted_invariants", counted_invariants)
        assert main(["duality-check", str(BAND_SPECS / spec)]) == 0
        capsys.readouterr()
        monkeypatch.undo()
        code = band_code(spec)
        subcodes = [controllable_subcode(code, L) for L in range(code.space.horizon)]
        dualized = {c.basis.rows for c in subcodes} | {dual_block_code(code).basis.rows}
        duals = {dual_block_code(c).basis.rows for c in subcodes}
        assert kernels == Counter(dict.fromkeys(dualized, 1))
        assert invariants == Counter(dict.fromkeys(duals, 1))
        assert (kernels.total(), invariants.total()) == self.COUNTS[spec]


def walk_pairs_held(code):
    """The (C row, D row) pairs, by row identity, that some window of the
    duality report holds, read off the tables: C ∩ [k, b) as the rows of
    prefix entry b with pivot at or after offset(k), proj_[k,b) D as the
    rows of D's suffix record at k with pivot before offset(b) (both
    tables keep the space's columns); and the number of pairs the windows
    hold one by one."""
    dual = dual_block_code(code)
    N, offsets = code.space.horizon, code.space.offsets()
    held, per_window = set(), 0
    for k in range(N):
        ys, y_columns, _ = dual._suffix(k)
        for b in range(k + 1, N + 1):
            xs, x_columns, _ = code._prefixes.entry(b)
            inner = xs[bisect_left(x_columns, offsets[k]) :]
            outer = ys[: bisect_left(y_columns, offsets[b])]
            held.update((id(x), id(y)) for x in inner for y in outer)
            per_window += len(inner) * len(outer)
    return held, per_window


def support(row):
    return {c for c, e in enumerate(row) if e}


def recorded_walk(code, monkeypatch):
    """Run the duality report of ``code`` and record the starts k whose
    suffix record of D it reads, the rows of those records by identity,
    and each pairing of the one pairing pass (``observe._row_pairings``):
    the C row and the ids of the D rows it is paired with."""
    import groupcodes.observe as observe_module

    dual = dual_block_code(code)
    reads, rows, calls = Counter(), {}, []
    suffix, pairing = BlockCode._suffix, observe_module._row_pairings

    def counted_suffix(self, a):
        record = suffix(self, a)
        if self is dual:
            reads[a] += 1
            rows.update((id(y), y) for y in record[0])
        return record

    def counted_pairing(x, reach, column_rows, weights):
        sums = pairing(x, reach, column_rows, weights)
        calls.append((x, list(sums)))
        return sums

    monkeypatch.setattr(BlockCode, "_suffix", counted_suffix)
    monkeypatch.setattr(observe_module, "_row_pairings", counted_pairing)
    report = check_control_observe_duality(code)
    monkeypatch.undo()
    return report, reads, rows, calls


def test_duality_walk_reads_each_suffix_record_once_and_copies_no_dual_row(monkeypatch):
    # The walk reads D's suffix record proj_[k,N) D once per start k.
    # Every D row the pairing pass pairs is a row object of those records,
    # uncut; each C row is paired in one call, and no (C row, D row) pair
    # is paired twice in one report.  Every pair some window holds whose
    # rows share a nonzero column is among the pairs paired (the others
    # pair to zero term by term).
    for spec in ("z4_band10_code.spec", "mixed_band8.spec"):
        code = band_code(spec)
        N = code.space.horizon
        report, reads, rows, calls = recorded_walk(code, monkeypatch)
        assert report.ok
        assert reads == Counter(range(N))
        assert [w.start for w in report.window_checks] == [k for k in range(N) for _ in range(k, N)]
        assert all(y in rows for _, ys in calls for y in ys)
        assert len({id(x) for x, _ in calls}) == len(calls)
        pairs = [(id(x), y) for x, ys in calls for y in ys]
        assert len(pairs) == len(set(pairs))
        held, _ = walk_pairs_held(code)
        x_rows = {id(x): x for x, _ in calls}
        assert {x for x, _ in held} <= set(x_rows)
        meeting = {(x, y) for x, y in held if support(x_rows[x]) & support(rows[y])}
        assert meeting <= set(pairs)


class TestWalkPairingCounts:
    """Exact pairing counts of one duality report on the Z/8 band code that
    ``TestBandBudget`` runs, at N = 32 and N = 64: the (C row, D row)
    pairs the one pairing pass pairs, and the products it takes, one per
    nonzero column the two rows share.  Pairing each pair once per start
    paired 2,006 and 8,118 pairs of whole rows, kept as upper bounds, and
    pairing window by window 8,183 and 55,271.  Per doubling of N, pairs
    and products must grow less than ×4.2.  The README quotes the counts,
    their ratio and the bound beside the wall budget."""

    COUNTS = {32: (542, 1136), 64: (2094, 4304)}
    PER_START = {32: 2006, 64: 8118}

    @staticmethod
    def counts(n, monkeypatch):
        code = parse_spec(z8_band_spec(n)).to_block_code()
        report, _, rows, calls = recorded_walk(code, monkeypatch)
        assert report.ok
        pairs = sum(len(ys) for _, ys in calls)
        products = sum(len(support(x) & support(rows[y])) for x, ys in calls for y in ys)
        _, per_window = walk_pairs_held(code)
        assert pairs < per_window
        return pairs, products

    @pytest.mark.parametrize("n", sorted(COUNTS))
    def test_pairs_and_products_per_report(self, n, monkeypatch):
        pairs, products = self.counts(n, monkeypatch)
        assert (pairs, products) == self.COUNTS[n]
        assert pairs <= self.PER_START[n]

    def test_growth_per_doubling(self, monkeypatch):
        small, large = (self.counts(n, monkeypatch) for n in sorted(self.COUNTS))
        assert all(later < 4.2 * earlier for later, earlier in zip(large, small))


def suffix_sweep_work(run, monkeypatch):
    """The rows the suffix sweeps push while ``run()`` runs (each table's
    seed rows and every row a trim pushes again) and the Howell forms
    taken inside a read of a suffix record (``BlockCode._suffix``)."""
    import groupcodes.linalg as linalg_module

    counts, depth = Counter(), [0]

    def inside(read):
        def counted(self, a):
            depth[0] += 1
            try:
                return read(self, a)
            finally:
                depth[0] -= 1

        return counted

    monkeypatch.setattr(BlockCode, "_suffix", inside(BlockCode._suffix))
    for state in (linalg_module._HowellSingle, linalg_module._HowellPacked):

        def counted_push(self, rows, _push=state.push):
            rows = list(rows)
            counts["rows"] += len(rows) if depth[0] else 0
            return _push(self, rows)

        monkeypatch.setattr(state, "push", counted_push)
    canonical = linalg_module.howell_form

    def counted_howell(matrix):
        counts["howell"] += depth[0] > 0
        return canonical(matrix)

    for module in list(sys.modules.values()):
        name = getattr(module, "__name__", "")
        if name.startswith("groupcodes") and getattr(module, "howell_form", None) is canonical:
            monkeypatch.setattr(module, "howell_form", counted_howell)
    run()
    monkeypatch.undo()
    return counts["rows"], counts["howell"]


class TestSuffixSweepGrowth:
    """A growth gate on the suffix sweeps, on the Z/8 band code that
    ``TestBandBudget`` runs, at N = 32 and N = 64.  ``duality-check``
    (D's suffix records for the walk, C's for the observe index) and
    ``observe_profile`` (C's) take no Howell form inside a
    suffix read, and the rows their sweeps push are pinned exactly: the
    seed rows of each table and each row a trim pushes again, about one
    per start.  From N = 32 to 64 they must grow less than ×2.5, where
    a state seeded afresh at every start pushes about N rows per start,
    ×4.  The README states the bound."""

    PUSHED = {
        32: {"duality-check": 96, "observe_profile": 61},
        64: {"duality-check": 192, "observe_profile": 125},
    }

    @staticmethod
    def pushed(n, command, tmp_path, monkeypatch):
        from groupcodes.cli import main

        text = z8_band_spec(n)
        if command == "observe_profile":
            code = parse_spec(text).to_block_code()
            return suffix_sweep_work(lambda: observe_profile(code), monkeypatch)
        spec = tmp_path / f"z8_band{n}.spec"
        spec.write_text(text, encoding="utf-8")

        def run():
            with redirect_stdout(io.StringIO()):
                assert main(["duality-check", str(spec)]) == 0

        return suffix_sweep_work(run, monkeypatch)

    @pytest.mark.parametrize("command", ["duality-check", "observe_profile"])
    def test_rows_pushed_grow_linearly(self, command, tmp_path, monkeypatch):
        rows = {}
        for n in sorted(self.PUSHED):
            rows[n], howell = self.pushed(n, command, tmp_path, monkeypatch)
            assert howell == 0
        assert rows == {n: pinned[command] for n, pinned in self.PUSHED.items()}
        assert rows[64] < 2.5 * rows[32]


@st.composite
def band_codes(draw, menu, max_horizon=24):
    """Band codes: every in-window shift of one or two taps, over N <= 24
    symbols of one component each, its modulus drawn from ``menu``; a
    tap's entries are reduced modulo each symbol's own modulus."""
    N = draw(st.integers(2, max_horizon))
    moduli = draw(st.lists(st.sampled_from(menu), min_size=N, max_size=N))
    entry = st.integers(0, max(menu) - 1)
    taps = draw(st.lists(st.lists(entry, min_size=1, max_size=4), min_size=1, max_size=2))
    return shifted_taps(moduli, taps)


def shifted_taps(moduli, taps):
    N = len(moduli)
    gens = []
    for tap in taps:
        for t in range(N - len(tap) + 1):
            word = [0] * t + list(tap) + [0] * (N - len(tap) - t)
            gens.append([e % m for e, m in zip(word, moduli)])
    return code_from_generators(space(*[(m,) for m in moduli]), gens)


def changed_rows(code):
    """How many rows of a prefix entry the next end replaces (the rows of
    entry b - 1 that are not row objects of entry b)."""
    N = code.space.horizon
    entries = [code._prefixes.entry(b)[0] for b in range(N + 1)]
    return sum(
        not any(row is new for new in entries[b])
        for b in range(1, N + 1)
        for row in entries[b - 1]
    )


def assert_walk_matches_cut_windows(code):
    from groupcodes.observe import _window_walk

    assert _window_walk(code, dual_block_code(code)) == cut_duality_windows(code)


@pytest.mark.parametrize("spec", ["z4_band8_code.spec", "z4_band8_dual.spec"])
def test_walk_matches_cut_windows_on_wrong_dual_records(spec, monkeypatch):
    # D's suffix record at start k is served as its image under negating
    # one column, an automorphism that keeps the order of every window
    # projection, so every count passes while pairings with C fail from
    # the first window that holds the column on.  The walk must give every
    # window the cut route's verdict: a window after a failed one pairs
    # all of its rows again, as the failed one left pairs unpaired.
    from groupcodes.linalg import _entry, _trusted, howell_form
    from groupcodes.observe import _window_walk

    code = band_code(spec)
    dual = dual_block_code(code)
    N, offsets, moduli = code.space.horizon, code.space.offsets(), code.space.flat_moduli
    suffix = BlockCode._suffix
    failed = 0
    for k in range(N):
        rows = suffix(dual, k)[0]
        for c in range(offsets[k], len(moduli)):
            if moduli[c] <= 2 or not any(row[c] for row in rows):
                continue
            negated = tuple(row[:c] + ((-row[c]) % moduli[c],) + row[c + 1 :] for row in rows)
            record = _entry(howell_form(_trusted(moduli, negated)).rows, moduli)
            monkeypatch.setattr(
                BlockCode,
                "_suffix",
                lambda self, a: record if self is dual and a == k else suffix(self, a),
            )
            walked, cut = _window_walk(code, dual), cut_duality_windows(code)
            monkeypatch.undo()
            assert walked == cut, (k, c)
            failed += sum(not w.ok for w in cut[0])
    assert failed > N


class TestWalkTwin:
    """The walk's window verdicts and chain verdict against the cut route
    (``kernel_references.cut_duality_windows``: every projection of the
    dual a cut copy, every window paired whole), on band codes up to
    N = 24, whose prefix entries keep some rows by identity and, for
    taps with a non-unit lead, replace others between ends."""

    @pytest.mark.parametrize(
        "moduli, taps",
        [
            ((8,) * 12, [(2, 1)]),
            ((8,) * 16, [(7, 1, 6)]),
            ((27,) * 12, [(3, 9, 1)]),
            ((4, 6, 9, 12) * 3, [(2, 3, 1)]),
        ],
    )
    def test_entries_that_replace_rows(self, moduli, taps):
        code = shifted_taps(moduli, taps)
        assert changed_rows(code) > 0
        assert_walk_matches_cut_windows(code)

    @pytest.mark.parametrize(
        "menu", [(8,), (9,), (27,), (2, 3, 4, 6, 9, 12)], ids=["Z8", "Z9", "Z27", "mixed"]
    )
    @given(data=st.data())
    @settings(max_examples=40, deadline=None, derandomize=True)
    def test_band_codes(self, menu, data):
        assert_walk_matches_cut_windows(data.draw(band_codes(menu)))


class TestDualityReport:
    def test_even_weight_golden(self, even_weight):
        report = check_control_observe_duality(even_weight)
        assert report.ok
        assert report.control_index == 1
        assert report.dual_observe_index == 1
        assert report.observe_index == 2
        assert report.dual_control_index == 2

    def test_repetition_golden(self, repetition):
        report = check_control_observe_duality(repetition)
        assert report.ok
        assert report.control_index == 2
        assert report.dual_observe_index == 2

    def test_ambient(self):
        report = check_control_observe_duality(ambient_code(binary_space(3)))
        assert report.ok
        assert report.control_index == 0
        assert report.dual_observe_index == 0

    def test_random_codes_pass(self):
        rng = random.Random(101)
        for _ in range(12):
            sp = space(*[(rng.choice([2, 4, 3]),) for _ in range(rng.randint(2, 3))])
            code = code_from_generators(
                sp, [[rng.randrange(m) for m in sp.flat_moduli] for _ in range(2)]
            )
            report = check_control_observe_duality(code)
            assert report.ok

    def test_render_mentions_both_conventions(self, repetition):
        text = check_control_observe_duality(repetition).render()
        assert "0-based" in text
        assert "1-based" in text


def reference_duality_report(code):
    """The duality report built without stopping or projection reads: every
    gap L, the dual's consistency sets, and the chains by ``is_subcode_of``."""
    from groupcodes.control import control_profile, controllable_subcode
    from groupcodes.duality import pairs_to_zero
    from groupcodes.linalg import smith_invariants
    from groupcodes.observe import (
        DualityReport,
        MatchedParameterCheck,
        WindowDualityCheck,
    )

    dual = dual_block_code(code)
    N = code.space.horizon
    cons = [[consistency_set(dual, k, L) for L in range(N + 1)] for k in range(N)]
    windows = []
    for a in range(N):
        for b in range(a + 1, N + 1):
            inner, pulled = window_internal(code, a, b), cons[a][b - 1 - a]
            sl = code.space.flat_slice(a, b)
            ok = inner.cardinality * pulled.cardinality == code.space.cardinality
            ok = ok and pairs_to_zero(
                [row[sl] for row in inner.basis.rows],
                [row[sl] for row in pulled.basis.rows],
                code.space.flat_moduli[sl],
            )
            windows.append(WindowDualityCheck(a, b, ok))
    chain_ok = all(
        window_internal(code, 0, b).is_subcode_of(window_internal(code, 0, b + 1))
        for b in range(N)
    ) and all(cons[k][L + 1].is_subcode_of(cons[k][L]) for k in range(N) for L in range(N))
    matched, supercodes = [], []
    for L in range(N):
        sub_dual = dual_block_code(controllable_subcode(code, L))
        sup = observable_supercode(dual, L)
        supercodes.append(sup)
        matched.append(
            MatchedParameterCheck(
                L, smith_invariants(sub_dual.basis), smith_invariants(sup.basis), sub_dual == sup
            )
        )
    return DualityReport(
        window_checks=tuple(windows),
        chain_ok=chain_ok,
        matched_checks=tuple(matched),
        control_index=control_profile(code).index,
        dual_observe_index=supercodes.index(dual),
        observe_index=observe_profile(code).index,
        dual_control_index=control_profile(dual).index,
    )


class TestDualityReportTwin:
    """The report against the reference built at every gap from the dual's
    consistency sets, field by field."""

    def test_mixed_corpus(self, mixed_corpus):
        for code in mixed_corpus:
            assert check_control_observe_duality(code) == reference_duality_report(code)

    def test_exhaustive_corpus(self, exhaustive_corpus):
        for code in exhaustive_corpus:
            assert check_control_observe_duality(code) == reference_duality_report(code)

    @pytest.mark.parametrize("path", BAND_SPEC_PATHS, ids=lambda p: p.stem)
    def test_band_specs(self, path):
        code = band_code(path.name)
        assert check_control_observe_duality(code) == reference_duality_report(code)


def per_window_reference(code):
    """Window verdicts, chain verdict and the two sums at every gap, each
    window built as its own ``BlockCode``: internal parts from the
    projection graph, projections of the dual as Howell forms of its sliced
    rows, the dual's window annihilators as local duals of those."""
    from groupcodes.duality import is_annihilator
    from groupcodes.observe import WindowDualityCheck

    dual = dual_block_code(code)
    N = code.space.horizon
    proj = {
        (a, b): reference_window_projection(dual, a, b)
        for a in range(N)
        for b in range(a + 1, N + 1)
    }
    windows = []
    for (a, b), local in proj.items():
        inner = reference_window_internal(code, a, b)
        sl = code.space.flat_slice(a, b)
        ok = is_annihilator(
            [row[sl] for row in inner.basis.rows],
            inner.cardinality,
            local.basis.rows,
            local.cardinality,
            code.space.flat_moduli[sl],
        )
        windows.append(WindowDualityCheck(a, b, ok))
    prefixes = [reference_window_internal(code, 0, b) for b in range(N + 1)]
    chain_ok = all(prefixes[b].is_subcode_of(prefixes[b + 1]) for b in range(N)) and all(
        code_from_generators(
            proj[k, b].space, [row[: proj[k, b].basis.width] for row in proj[k, b + 1].basis.rows]
        ).is_subcode_of(proj[k, b])
        for k in range(N)
        for b in range(k + 1, N)
    )

    def window_sum(window, c, L):
        rows = [row for k in range(N) for row in window(c, k, min(k + L + 1, N)).basis.rows]
        return code_from_generators(c.space, rows)

    subcodes = [window_sum(reference_window_internal, code, L) for L in range(N)]
    sums = [window_sum(reference_window_annihilator, dual, L) for L in range(N)]
    return tuple(windows), chain_ok, subcodes, sums


def assert_report_matches_per_window_reference(code):
    from groupcodes.control import controllable_subcode

    report = check_control_observe_duality(code)
    windows, chain_ok, subcodes, sums = per_window_reference(code)
    assert report.window_checks == windows
    assert report.chain_ok == chain_ok
    dual = dual_block_code(code)
    for L, (subcode, total) in enumerate(zip(subcodes, sums)):
        assert controllable_subcode(code, L) == subcode
        assert controllable_subcode(dual._local_dual, L) == total


class TestRowReadsTwin:
    """The report's window and chain verdicts and both sums, read as rows
    off the window tables, against a route building every window as a
    code of its own."""

    def test_mixed_corpus(self, mixed_corpus):
        for code in mixed_corpus:
            assert_report_matches_per_window_reference(code)

    def test_exhaustive_corpus(self, exhaustive_corpus):
        for code in exhaustive_corpus:
            assert_report_matches_per_window_reference(code)

    @pytest.mark.parametrize("path", BAND_SPEC_PATHS, ids=lambda p: p.stem)
    def test_band_specs(self, path):
        assert_report_matches_per_window_reference(band_code(path.name))

    @given(mixed_codes())
    @settings(max_examples=80, deadline=None, derandomize=True)
    def test_mixed_moduli(self, code):
        assert_report_matches_per_window_reference(code)


def test_duality_check_builds_linearly_many_codes(monkeypatch):
    # Windows are read as rows: one report builds the table entries, the
    # matched sides and their duals, and no code per window.  The
    # Howell forms are those of the tables and the matched sides; each
    # prefix table, the local duals' included, is one reversed Howell form
    # and one sweep, with no Howell form per end, and the invariant factors
    # of the matched sides are counted on their own Howell rows.  T, the
    # local dual of the dual, is the code itself, so the two matched sides
    # are one climb, and each distinct side is dualized once; every suffix
    # record is read off one trimming sweep; the climb is one Howell state
    # finished at each gap that takes new rows, kept as one chain
    # (``codes._subcode_chain``), with no Howell form: 8 (11 with a Howell
    # form per gap of the climb, 29 with that and a Howell form per suffix
    # record, 32 with the supercode side
    # summed a second time, 37 with T's own reversed
    # Howell form and kernel and a kernel per gap of each side, 39 with a
    # second Howell form of each side's basis too, 47 with a kernel per
    # end of the annihilator windows, 66 with a Howell form per prefix).
    import groupcodes.linalg as linalg_module
    from groupcodes.cli import main

    calls = Counter()
    post_init, from_howell = BlockCode.__post_init__, BlockCode.from_howell.__func__
    space_init = SequenceSpace.__post_init__
    canonical = linalg_module.howell_form

    def counted_init(self):
        calls["codes"] += 1
        post_init(self)

    def counted_space(self):
        calls["spaces"] += 1
        space_init(self)

    def counted_from_howell(cls, space, rows):
        calls["codes"] += 1
        return from_howell(cls, space, rows)

    def counted_howell(matrix):
        calls["howell_form"] += 1
        return canonical(matrix)

    monkeypatch.setattr(BlockCode, "__post_init__", counted_init)
    monkeypatch.setattr(BlockCode, "from_howell", classmethod(counted_from_howell))
    monkeypatch.setattr(SequenceSpace, "__post_init__", counted_space)
    for module in list(sys.modules.values()):
        name = getattr(module, "__name__", "")
        if name.startswith("groupcodes") and getattr(module, "howell_form", None) is canonical:
            monkeypatch.setattr(module, "howell_form", counted_howell)
    path = BAND_SPECS / "z4_band10_code.spec"
    with redirect_stdout(io.StringIO()):
        assert main(["duality-check", str(path)]) == 0
    # The parsed code, its dual and the one climb of matched sides and
    # their duals are the only codes: the climb shares a code between gaps
    # that take no new rows and hands out the code itself at its top (6
    # with a code per gap up to the top, 9 with the supercode side built
    # apart, 27 when every suffix projection and the accessor reads were
    # codes); every window table is a record, so the spec's space is the
    # only space (19 with one per suffix projection).
    assert calls["codes"] == 4
    assert calls["spaces"] == 1
    assert calls["howell_form"] == 8


def _first_top(side, top, N):
    return next(L for L in range(N) if side(L).basis.rows == top.basis.rows)


@pytest.mark.parametrize("spec", ["z4_band8_code.spec", "z4_band10_dual.spec"])
def test_duality_check_stops_each_matched_side_at_its_top(spec, monkeypatch):
    # The window and chain checks read the dual's window projections and
    # build no consistency set; each matched side is built up to the first
    # gap where it reaches its top and no further.  With T = D-perp the
    # code itself, the two sides are one climb to C, so every
    # ``controllable_subcode`` call of the report is one of its steps.
    import groupcodes.observe as observe_module
    from groupcodes.control import controllable_subcode

    code = band_code(spec)
    dual = dual_block_code(code)
    assert dual != code
    assert dual._local_dual is code
    N = code.space.horizon
    sub_top = _first_top(lambda L: controllable_subcode(code, L), code, N)
    sum_top = _first_top(
        lambda L: controllable_subcode(dual._local_dual, L), window_annihilator(dual, 0, N), N
    )
    assert sum_top == sub_top < N - 1
    calls = Counter()

    def count(name, original):
        def counted(*args):
            calls[name] += 1
            return original(*args)

        monkeypatch.setattr(observe_module, name, counted)

    count("consistency_set", observe_module.consistency_set)
    count("controllable_subcode", observe_module.controllable_subcode)
    assert check_control_observe_duality(code).ok
    assert calls["consistency_set"] == 0
    assert calls["controllable_subcode"] <= sub_top + 1


def test_matched_sides_are_one_list_when_the_bidual_is_the_code():
    # T = D-perp is the code object, so the supercode side is the subcode
    # side itself and nothing is built for it.
    import groupcodes.observe as observe_module

    for spec in ("z4_band8_code.spec", "z4_band10_dual.spec", "mixed_band8.spec"):
        code = band_code(spec)
        dual = code._local_dual
        assert dual._local_dual is code
        sub_duals, supercodes = observe_module._matched_duals(code, dual)
        assert supercodes is sub_duals
        assert len(sub_duals) == code.space.horizon


def serve_one_window(monkeypatch, start, stop, serve):
    """Patch the walk's per-start read (``observe._start_windows``) so that
    the read of ``start`` hands the window [start, stop) through
    ``serve``, which takes the window's read tuple and returns the one to
    serve; every other window is read as the walk reads it.  Returns the
    list of windows served."""
    import groupcodes.observe as observe_module

    read, served = observe_module._start_windows, []

    def reading(entries, record, offsets, k):
        reads = read(entries, record, offsets, k)
        if k == start:
            reads[stop - start - 1] = serve(reads[stop - start - 1])
            served.append((start, stop))
        return reads

    monkeypatch.setattr(observe_module, "_start_windows", reading)
    return served


def test_wrong_dual_projection_fails_its_window(monkeypatch):
    # Serving a proper subgroup or a proper supergroup of one window
    # projection of the dual breaks that window's check or the chain; a
    # proper subgroup with a longer window after it breaks the chain too,
    # and so does the whole window group with a shorter window before it
    # that is not the whole group there.  The wrong rows and order enter
    # through the walk's per-start read, once, as the dual's side of that
    # window, in the space's columns as the suffix records hold them.
    from groupcodes.codes import _projection

    code = band_code("mixed_band8.spec")
    dual = dual_block_code(code)
    N, offsets = code.space.horizon, code.space.offsets()
    served = 0
    for a in range(N):
        shorter_whole, pad = True, (0,) * offsets[a]
        for b in range(a + 1, N + 1):
            right = code_from_generators(code.space.window(a, b), _projection(dual, a, b)[0])
            smaller = code_from_generators(right.space, right.basis.rows[:-1])
            for wrong in (smaller, ambient_code(right.space)):
                if wrong == right:
                    continue
                served += 1
                rows = tuple(pad + row for row in wrong.basis.rows)
                hits = serve_one_window(
                    monkeypatch, a, b, lambda read: read[:3] + (rows, len(rows), wrong.cardinality)
                )
                report = check_control_observe_duality(code)
                monkeypatch.undo()
                assert hits == [(a, b)]
                verdicts = {(w.start, w.stop): w.ok for w in report.window_checks}
                assert not verdicts.pop((a, b)) or not report.chain_ok
                assert all(verdicts.values())
                assert not report.ok
                if wrong is smaller and b < N:
                    # The projection on [a, b + 1), cut to [a, b), is the
                    # right one, which the smaller one does not contain.
                    assert not report.chain_ok
                if wrong is not smaller and b > a + 1 and not shorter_whole:
                    # The whole group on [a, b), cut to [a, b - 1), is the
                    # whole group there, which the right projection is not.
                    assert not report.chain_ok
            shorter_whole = right == ambient_code(right.space)
    assert served > N * (N + 1) // 2


def test_dropped_internal_row_fails_exactly_its_window(monkeypatch):
    # Serving C ∩ [a, b) without its first row, whose pivot column no other
    # row has, shrinks the internal part: that window's count fails, and no
    # other window, chain or matched check notices.  The rows are the ones
    # the walk reads, the rows of prefix entry b from offset(a) on; the
    # wrong window enters through the walk's per-start read, once.
    import groupcodes.observe as observe_module

    code = band_code("z4_band8_code.spec")
    dual = dual_block_code(code)
    N, offsets = code.space.horizon, code.space.offsets()
    entries = [code._prefixes.entry(b) for b in range(N + 1)]
    served = 0
    for a in range(N):
        reads = observe_module._start_windows(entries, dual._suffix(a), offsets, a)
        for b, (xs, i, order, *_) in enumerate(reads, a + 1):
            if i == len(xs):
                continue
            kept = xs[i + 1 :]
            smaller = code_from_generators(code.space, kept).cardinality
            assert smaller < order
            served += 1
            hits = serve_one_window(monkeypatch, a, b, lambda read: (kept, 0, smaller) + read[3:])
            report = check_control_observe_duality(code)
            monkeypatch.undo()
            assert hits == [(a, b)]
            verdicts = {(w.start, w.stop): w.ok for w in report.window_checks}
            assert not verdicts.pop((a, b))
            assert all(verdicts.values())
            assert report.chain_ok
            assert all(m.ok for m in report.matched_checks)
            assert not report.ok
    assert served > N


def test_wrong_annihilator_sum_before_the_stop_mismatches(monkeypatch):
    # The dual's local dual T is seeded as a code of its own with C's rows,
    # so the supercode side climbs controllable_subcode(T, L) on T's own
    # tables.  A wrong sum at a gap before it reaches T, the zero sum or T
    # itself served early, shows as a mismatch there.
    import groupcodes.observe as observe_module
    from groupcodes.codes import zero_code
    from groupcodes.control import controllable_subcode

    code = band_code("z4_band8_dual.spec")
    dual = dual_block_code(code)
    N = code.space.horizon
    top = BlockCode.from_howell(code.space, code.basis.rows)
    dual.__dict__["_local_dual"] = top
    assert top == code and top is not code
    stop = _first_top(lambda L: controllable_subcode(top, L), top, N)
    assert stop > 1
    for gap in range(stop):
        for wrong in (zero_code(code.space), top):
            monkeypatch.setattr(
                observe_module,
                "controllable_subcode",
                lambda c, L: wrong if c is top and L == gap else controllable_subcode(c, L),
            )
            report = check_control_observe_duality(code)
            assert not report.matched_checks[gap].ok
            assert "MISMATCH" in report.render()
            assert not report.ok


class TestCountedObservability:
    """Sums of annihilators tested by their order, on mixed moduli with
    modulus-1 columns, against the consistency-set meets they decide."""

    def test_supercode_is_meet_of_consistency_sets(self, mixed_corpus):
        for code in mixed_corpus:
            N = code.space.horizon
            for L in range(N + 1):
                assert observable_supercode(code, L) == reference_meet(code, [L] * N)

    def test_observe_profile_matches_meets(self, mixed_corpus):
        for code in mixed_corpus:
            N, index = code.space.horizon, 0
            while reference_meet(code, [index] * N) != code:
                index += 1
                # The meet at length N is the code; wrong consistency sets
                # fail here instead of searching forever.
                assert index <= N, "no length up to the horizon gives the code"
            profile = observe_profile(code)
            assert profile.index == index
            assert profile.lengths == reference_observe_lengths(code, index)

    def test_window_annihilator_is_consistency_set_annihilator(self, mixed_corpus):
        for code in mixed_corpus:
            dual = dual_block_code(code)
            N = code.space.horizon
            for a in range(N):
                for b in range(a + 1, N + 1):
                    ann = window_annihilator(code, a, b)
                    assert ann == dual_block_code(consistency_set(code, a, b - 1 - a))
                    assert ann == window_internal(dual, a, b)


def reference_observe_index(code):
    """The annihilator-sum search: the least uniform L at which the sum of
    the per-window annihilators on [k, k+L] has |C-perp| elements."""
    N = code.space.horizon
    target = code.space.cardinality // code.cardinality

    def total(L):
        rows = [
            row
            for k in range(N)
            for row in reference_window_annihilator(code, k, min(k + L + 1, N)).basis.rows
        ]
        return code_from_generators(code.space, rows).cardinality

    return next(L for L in range(N) if total(L) == target)


def assert_observe_index_identity(code):
    index = _observe_index(code)
    assert index == reference_observe_index(code)
    assert index == control_profile(dual_block_code(code)).index


class TestObserveIndexIdentity:
    """The observe index counted on the annihilator table equals the
    annihilator-sum search and the control index of the dual."""

    def test_mixed_corpus(self, mixed_corpus):
        for code in mixed_corpus:
            assert_observe_index_identity(code)

    def test_exhaustive_corpus(self, exhaustive_corpus):
        for code in exhaustive_corpus:
            assert_observe_index_identity(code)

    @pytest.mark.parametrize("path", BAND_SPEC_PATHS, ids=lambda p: p.stem)
    def test_band_specs(self, path):
        assert_observe_index_identity(band_code(path.name))

    @given(mixed_codes())
    @settings(max_examples=80, deadline=None, derandomize=True)
    def test_mixed_moduli(self, code):
        assert_observe_index_identity(code)


def test_wrong_suffix_projection_breaks_indices_match(monkeypatch):
    # The observe index of the code is counted on the code's own suffix
    # records and the control index of the dual on the dual's prefix
    # table: serving the zero projection as proj_[3,N) C moves the first
    # and not the second.
    from groupcodes.codes import BlockCode

    code = band_code("z4_band10_code.spec")
    zero = ((), (), (1,))
    right = check_control_observe_duality(code)
    assert right.indices_match
    assert code._suffix(3) != zero
    suffix = BlockCode._suffix
    monkeypatch.setattr(
        BlockCode,
        "_suffix",
        lambda self, a: zero if (self, a) == (code, 3) else suffix(self, a),
    )
    wrong = check_control_observe_duality(code)
    assert wrong.observe_index != right.observe_index
    assert wrong.dual_control_index == right.dual_control_index
    assert not wrong.indices_match


@pytest.mark.parametrize("spec", ["z4_band10_code.spec", "z4_band10_dual.spec"])
def test_duality_check_intersects_nothing(spec, monkeypatch):
    # Every identity of the report is decided by orders and pairings; no
    # Zassenhaus meet is built.
    import groupcodes.codes as codes_module
    import groupcodes.linalg as linalg_module
    from groupcodes.cli import main

    calls = Counter()
    meet = linalg_module.intersect_rows

    def counted(a, b):
        calls["intersect_rows"] += 1
        return meet(a, b)

    monkeypatch.setattr(linalg_module, "intersect_rows", counted)
    monkeypatch.setattr(codes_module, "intersect_rows", counted)
    assert main(["duality-check", str(BAND_SPECS / spec)]) == 0
    assert calls["intersect_rows"] == 0


@pytest.mark.parametrize("spec", ["z4_band10_code.spec", "z4_band10_dual.spec"])
def test_duality_check_builds_no_reachable_set(spec, monkeypatch):
    # The reach chain reads the nesting of the prefix codes: no reachable
    # set C_k(L) is built and nothing is joined.
    import groupcodes.codes as codes_module
    import groupcodes.control as control_module
    import groupcodes.observe as observe_module
    from groupcodes.cli import main

    calls = Counter()

    def count(module, name):
        original = getattr(module, name)

        def counted(*args):
            calls[name] += 1
            return original(*args)

        monkeypatch.setattr(module, name, counted)

    for module in (codes_module, control_module, observe_module):
        for name in ("join", "reachable_set"):
            if hasattr(module, name):
                count(module, name)
    assert main(["duality-check", str(BAND_SPECS / spec)]) == 0
    assert calls["reachable_set"] == 0
    assert calls["join"] == 0


def test_broken_prefix_nesting_fails_the_chain(monkeypatch, capsys):
    # Serving the prefix table's entry for C itself as that of C ∩ [0, 1)
    # breaks the nesting C ∩ [0, 1) ⊆ C ∩ [0, 2); the reach chain reports it.
    from groupcodes.cli import main
    from groupcodes.codes import _PrefixTable

    path = BAND_SPECS / "z4_band8_code.spec"
    code = parse_spec(path.read_text(encoding="utf-8")).to_block_code()
    assert check_control_observe_duality(code).chain_ok
    assert not code.is_subcode_of(window_internal(code, 0, 2))
    entry = _PrefixTable.entry

    def broken(self, b):
        return entry(self, self.space.horizon if b == 1 else b)

    monkeypatch.setattr(_PrefixTable, "entry", broken)
    assert not check_control_observe_duality(code).chain_ok
    capsys.readouterr()
    assert main(["duality-check", str(path)]) == 1
    assert "reachability chains monotone: NO" in capsys.readouterr().out


def test_broken_dual_suffix_projection_fails_the_nesting(monkeypatch, capsys):
    # Serving proj_[k,N) D with the pivot column of its first row recorded
    # one symbol late drops that row from proj_[k,b) D, b the end of its
    # pivot's symbol, while proj_[k,b+1) D, cut, still has it: the nested
    # chain, read against the recorded pivot columns, reports it, for
    # every start k.
    from groupcodes.cli import main

    path = BAND_SPECS / "z4_band10_dual.spec"
    code = parse_spec(path.read_text(encoding="utf-8")).to_block_code()
    dual = dual_block_code(code)
    N = code.space.horizon
    assert check_control_observe_duality(code).ok
    suffix = BlockCode._suffix
    for k in range(1, N - 1):
        rows, columns, products = suffix(dual, k)
        assert columns[0] + 1 < dual.basis.width
        broken = (rows, (columns[0] + 1,) + columns[1:], products)
        monkeypatch.setattr(
            BlockCode,
            "_suffix",
            lambda self, a, k=k, broken=broken: broken
            if a == k and self.basis.rows == dual.basis.rows
            else suffix(self, a),
        )
        report = check_control_observe_duality(code)
        assert not report.chain_ok
        assert not report.ok
        capsys.readouterr()
        assert main(["duality-check", str(path)]) == 1
        assert "reachability chains monotone: NO" in capsys.readouterr().out


@pytest.mark.parametrize("spec", ["z4_band8_code.spec", "z4_band10_code.spec", "mixed_band8.spec"])
def test_wrong_dual_suffix_record_fails_a_window_of_its_start(spec, monkeypatch):
    # The dual's suffix record proj_[k,N) D is served with its first row
    # dropped or its first two rows swapped, with the pivot columns and
    # orders of the served rows, in the space's columns as the suffix
    # table holds them.  Where that changes the rows or the order
    # some window of start k reads, a window check of start k fails; the
    # nested chain checks the records' cut bookkeeping (the rows an end
    # adds vanish before it), not duality, so it need not notice.  Two
    # rows swapped within one symbol change no read, and the report stays
    # right.
    from groupcodes.codes import _rows_before
    from groupcodes.linalg import _entry

    code = band_code(spec)
    dual = dual_block_code(code)
    N, offsets = code.space.horizon, code.space.offsets()
    right = check_control_observe_duality(code)
    suffix = BlockCode._suffix
    failed = set()
    for k in range(N):
        rows, moduli, lo = suffix(dual, k)[0], dual.basis.moduli, offsets[k]

        def windows(record):
            # The subgroup each window reads and the order it is read with.
            reads = []
            for b in range(k + 1, N + 1):
                hi = offsets[b]
                rows_read, order = _rows_before(record, hi)
                span = code_from_generators(code.space.window(k, b), [r[lo:hi] for r in rows_read])
                reads.append((span, order))
            return reads

        for wrong in (rows[1:], rows[1:2] + rows[:1] + rows[2:]):
            if wrong == rows:
                continue
            record = _entry(wrong, moduli)
            monkeypatch.setattr(
                BlockCode,
                "_suffix",
                lambda self, a: record if self is dual and a == k else suffix(self, a),
            )
            report = check_control_observe_duality(code)
            if windows(record) == windows(suffix(dual, k)):
                assert report == right, (k, wrong)
                continue
            failed.add(k)
            assert not all(w.ok for w in report.window_checks if w.start == k), (k, wrong)
            assert all(w.ok for w in report.window_checks if w.start != k)
            assert not report.ok
    # Every start whose record has a row to drop is served a wrong one.
    assert failed == {k for k in range(N) if suffix(dual, k)[0]}


def test_dropped_row_of_the_dual_local_dual_mismatches(monkeypatch, capsys):
    # The supercode side reads only the dual's own local dual (D-perp, the
    # code as a set, from a kernel of D's rows): without its first row, the
    # annihilator sums never reach the code and some matched line reads
    # MISMATCH, though C's own tables are whole.
    import groupcodes.codes as codes_module
    from groupcodes.cli import main

    path = BAND_SPECS / "z4_band8_code.spec"
    code = parse_spec(path.read_text(encoding="utf-8")).to_block_code()
    dual = dual_block_code(code)
    assert dual != code
    # The unbroken report, on a copy whose dual keeps no local dual yet.
    copy = parse_spec(path.read_text(encoding="utf-8")).to_block_code()
    assert check_control_observe_duality(copy).ok
    local_dual = BlockCode.__dict__["_local_dual"].fn

    def broken(self):
        top = local_dual(self)
        if self.basis.rows == dual.basis.rows:
            return BlockCode.from_howell(self.space, top.basis.rows[1:])
        return top

    descriptor = codes_module._cached(broken)
    descriptor.__set_name__(BlockCode, "_local_dual")
    monkeypatch.setattr(BlockCode, "_local_dual", descriptor)
    report = check_control_observe_duality(code)
    assert report.chain_ok and all(w.ok for w in report.window_checks)
    assert not all(m.ok for m in report.matched_checks)
    assert not report.ok
    capsys.readouterr()
    assert main(["duality-check", str(path)]) == 1
    out = capsys.readouterr().out
    assert "MISMATCH" in out and "verdict: FAIL" in out


def test_wrong_entry_of_the_shared_prefix_table_fails_its_windows(monkeypatch, capsys):
    # T is the code itself, so the annihilator sums read C's own prefix
    # table and a wrong entry of it reaches both matched sides alike.
    # Serving entry b as another subgroup of the same order (the last
    # column of [0, b) negated) still fails the report, through the window
    # checks that end at b, which pair the entry with the dual's own
    # projections.
    from groupcodes.cli import main
    from groupcodes.codes import _PrefixTable
    from groupcodes.linalg import _entry, _trusted, howell_form

    path = BAND_SPECS / "z4_band8_code.spec"
    code = parse_spec(path.read_text(encoding="utf-8")).to_block_code()
    N, moduli, offsets = code.space.horizon, code.space.flat_moduli, code.space.offsets()
    assert check_control_observe_duality(code).ok
    table, entry = code._prefixes, _PrefixTable.entry
    served = 0
    for b in range(1, N):
        rows, _, products = entry(table, b)
        j = offsets[b] - 1
        flipped = tuple(row[:j] + ((-row[j]) % moduli[j],) + row[j + 1 :] for row in rows)
        wrong = _entry(howell_form(_trusted(moduli, flipped)).rows, moduli)
        if wrong[0] == rows:
            continue
        assert wrong[2][-1] == products[-1]
        served += 1
        monkeypatch.setattr(
            _PrefixTable,
            "entry",
            lambda self, i, b=b, wrong=wrong: wrong
            if i == b and self.reversed_rows == table.reversed_rows
            else entry(self, i),
        )
        report = check_control_observe_duality(code)
        assert dual_block_code(dual_block_code(code)) is code
        verdicts = {(w.start, w.stop): w.ok for w in report.window_checks}
        assert not verdicts[0, b]
        assert not report.ok
        capsys.readouterr()
        assert main(["duality-check", str(path)]) == 1
        out = capsys.readouterr().out
        line = f"window [0,{b}) (1-based closed [1,{b}]): dual of internal part"
        assert f"{line} equals dual-code consistency set: NO" in out
        assert "verdict: FAIL" in out
    assert served > N // 2
