"""End-to-end tests of the command line interface."""

import io
import json
import random
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from groupcodes import cli
from groupcodes.cli import build_parser, main

SPECS = Path(__file__).resolve().parents[1] / "demos" / "specs"
HUGE_COPRIME = Path(__file__).resolve().parent / "golden" / "specs" / "huge_coprime.spec"
M89 = 2**89 - 1  # a Mersenne prime


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


@pytest.fixture
def even_weight_spec():
    return str(SPECS / "even_weight.spec")


@pytest.fixture
def constant_spec():
    return str(SPECS / "constant_kernel.spec")


class TestAnalyze:
    def test_even_weight_report(self, even_weight_spec):
        code, out, _ = run_cli("analyze", even_weight_spec)
        assert code == 0
        assert "invariant factors: [2, 2]" in out
        assert "control index: 1" in out
        assert "observe index: 2" in out

    def test_json_mirrors_text(self, even_weight_spec):
        code, out, _ = run_cli("analyze", even_weight_spec, "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert data["invariant_factors"] == [2, 2]
        assert data["control_lengths"] == [0, 1, 1]
        assert data["observe_index"] == 2

    def test_constant_code_report(self, constant_spec):
        code, out, _ = run_cli("analyze", constant_spec)
        assert code == 0
        assert "weakly controllable: no (witness window 1)" in out
        assert "not-controllable" in out

    def test_weak_verdict_computed_once(self, monkeypatch):
        # The weak verdict is read from the strong one, not recomputed.
        import groupcodes.cli
        import groupcodes.convolutional as conv_module

        calls = []
        weak = conv_module.weak_controllability

        def counted(conv):
            calls.append(conv)
            return weak(conv)

        monkeypatch.setattr(conv_module, "weak_controllability", counted)
        monkeypatch.setattr(groupcodes.cli, "weak_controllability", counted)
        code, _, _ = run_cli("analyze", str(SPECS / "z4_burst_kernel.spec"))
        assert code == 0
        assert len(calls) == 1

    def test_deterministic_output(self):
        for spec in sorted(SPECS.glob("*.spec")):
            first = run_cli("analyze", str(spec))
            second = run_cli("analyze", str(spec))
            assert first == second
            assert first[0] == 0


class TestDual:
    def test_dual_of_even_weight_is_repetition(self, even_weight_spec):
        code, out, _ = run_cli("dual", even_weight_spec)
        assert code == 0
        assert "generator: 1 1 1" in out

    def test_dual_twice_is_canonical_original(self, even_weight_spec):
        _, once, _ = run_cli("dual", even_weight_spec)
        spec_path = SPECS / "_tmp_dual.spec"
        spec_path.write_text(once, encoding="utf-8")
        try:
            _, twice, _ = run_cli("dual", str(spec_path))
            spec_path.write_text(twice, encoding="utf-8")
            _, thrice, _ = run_cli("dual", str(spec_path))
            assert thrice == once
        finally:
            spec_path.unlink(missing_ok=True)

    def test_convolutional_dual_swaps_form(self, constant_spec):
        code, out, _ = run_cli("dual", constant_spec)
        assert code == 0
        assert "form: image" in out
        assert "tap: 1 1" in out

    def test_convolutional_dual_twice_roundtrips(self, constant_spec, tmp_path):
        _, once, _ = run_cli("dual", constant_spec)
        first = tmp_path / "dual.spec"
        first.write_text(once, encoding="utf-8")
        _, twice, _ = run_cli("dual", str(first))
        second = tmp_path / "dual2.spec"
        second.write_text(twice, encoding="utf-8")
        _, thrice, _ = run_cli("dual", str(second))
        assert thrice == once


class TestDecompose:
    def test_even_weight_decomposition(self, even_weight_spec):
        code, out, _ = run_cli("decompose", even_weight_spec)
        assert code == 0
        assert "y_1 = [1, 1, 0]" in out
        assert "y_2 = [0, 1, 1]" in out
        assert "order product 4 vs cardinality 4" in out
        assert "verdict: valid" in out

    def test_json_shape(self, even_weight_spec):
        code, out, _ = run_cli("decompose", even_weight_spec, "--format", "json")
        data = json.loads(out)
        assert data["verified"] is True
        assert data["subdirect"] is True
        assert [g["order"] for g in data["generators"]] == [2, 2]


def z4_spec_of_size(rng, n, free):
    """A Z/4 block spec at horizon n spanning 4**free words.

    Echelon rows with unit pivots, each of order 4, mixed by a
    unitriangular transform so the spec hides the echelon shape.
    """
    pivots = sorted(rng.sample(range(n), free))
    rows = [
        [0] * p + [1] + [rng.randrange(4) for _ in range(p + 1, n)]
        for p in pivots
    ]
    gens = [list(r) for r in rows]
    for i in range(free):
        for j in range(i + 1, free):
            c = rng.randrange(4)
            gens[i] = [(a + c * b) % 4 for a, b in zip(gens[i], rows[j])]
    lines = ["kind: block", "symbols: " + " ".join(["[4]"] * n)]
    lines += ["generator: " + " ".join(map(str, g)) for g in gens]
    return "\n".join(lines) + "\n"


class TestDecomposeScale:
    def test_above_order_profile_bound(self, tmp_path):
        # 2**18 words: more than the 2**16 the order profile once enumerated.
        spec = tmp_path / "big.spec"
        spec.write_text(z4_spec_of_size(random.Random(18), 10, 9), encoding="utf-8")
        code, out, _ = run_cli("decompose", str(spec))
        assert code == 0
        assert "order product 262144 vs cardinality 262144" in out
        assert "  verdict: valid" in out
        code, out, err = run_cli("analyze", str(spec))
        assert code == 0
        assert "cardinality: 262144" in out
        assert err == ""

    def test_analyze_above_old_bound_matches_transversal(self, tmp_path):
        # Three Z/4 rows on four positions plus all of (Z/4)**9 at the last:
        # 2**24 words, yet only the first rows' classes reach the reference.
        # The margin 3 at l = 1 comes from the order condition; splitting
        # alone needs n(1) = 2.
        from groupcodes.codes import SequenceSpace, code_from_generators
        from groupcodes.groups import FiniteAbelianGroup

        from .test_control import transversal_order_profile

        rows = [
            [2, 3, 3, 2, 3, 1, 3, 0, 3, 2, 1, 1, 0],
            [2, 2, 2, 1, 2, 0, 1, 2, 0, 1, 0, 3, 3],
            [2, 1, 2, 2, 2, 3, 0, 2, 3, 3, 1, 2, 0],
        ]
        rows += [[0] * 4 + [int(k == j) for k in range(9)] for j in range(9)]
        lines = ["kind: block", "symbols: [4] [4] [4] [4] [" + ",".join(["4"] * 9) + "]"]
        lines += [
            "generator: " + " ".join(map(str, r[:4])) + " " + ",".join(map(str, r[4:]))
            for r in rows
        ]
        spec = tmp_path / "big.spec"
        spec.write_text("\n".join(lines) + "\n", encoding="utf-8")
        code, out, err = run_cli("analyze", str(spec), "--format", "json")
        assert code == 0, err
        data = json.loads(out)
        assert data["cardinality"] == 1 << 24
        assert data["order_uniform_margin"] == 3
        space = SequenceSpace(
            tuple(FiniteAbelianGroup(m) for m in [(4,)] * 4 + [(4,) * 9])
        )
        reference = transversal_order_profile(code_from_generators(space, rows))
        assert tuple(data["order_bounds"]) == reference == (0, 4, 4, 4, 4, 5)

    def test_huge_coprime_moduli(self, tmp_path):
        # Primes come from each modulus; factoring their product by trial
        # division would take about 10**9 steps.
        spec = tmp_path / "huge.spec"
        spec.write_text(
            "kind: block\n"
            "symbols: [1000000007,998244353] [1000000007,998244353]\n"
            "generator: 1,1 0,2\n"
            "generator: 0,5 3,0\n",
            encoding="utf-8",
        )
        code, out, _ = run_cli("decompose", str(spec))
        assert code == 0
        assert "prime 1000000007" in out
        assert "prime 998244353" in out
        assert "  verdict: valid" in out

    def test_analyze_with_huge_prime_exponent(self, tmp_path):
        # The order profile's divisors of the exponent 2 * 1000000007 come
        # from its prime factors; trying every integer up to it would hang.
        spec = tmp_path / "huge_prime.spec"
        spec.write_text(
            "kind: block\nsymbols: [2] [1000000007]\ngenerator: 1 0\n", encoding="utf-8"
        )
        proc = subprocess.run(
            [sys.executable, "-m", "groupcodes.cli", "analyze", str(spec)],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 0
        assert "cardinality: 2" in proc.stdout

    def test_analyze_with_huge_coprime_moduli(self):
        # The order profile takes its primes modulus by modulus; factoring
        # the exponent 1000000007 * 998244353 by trial division would hang.
        proc = subprocess.run(
            [sys.executable, "-m", "groupcodes.cli", "analyze", str(HUGE_COPRIME)],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 0
        assert "order-split bounds n(l), l = 0..N: [0, 1, 2]" in proc.stdout


class TestCheck:
    def test_weak_controllable_failure_exits_one(self, constant_spec):
        code, out, _ = run_cli("check", constant_spec, "--property", "weak-controllable")
        assert code == 1
        assert "fails at window length 1" in out

    def test_l_controllable_block(self, even_weight_spec):
        code, _, _ = run_cli(
            "check", even_weight_spec, "--property", "l-controllable", "--level", "1"
        )
        assert code == 0
        code, _, _ = run_cli(
            "check", even_weight_spec, "--property", "l-controllable", "--level", "0"
        )
        assert code == 1

    def test_observable_at_a_level(self, even_weight_spec, monkeypatch):
        # The observe index of the even-weight code is 2: level 2 holds and
        # level 1 fails.  The verdict reads the index alone, with no
        # per-position lengths.
        import groupcodes.cli

        monkeypatch.setattr(groupcodes.cli, "observe_profile", None)
        code, out, err = run_cli(
            "check", even_weight_spec, "--property", "observable", "--level", "2"
        )
        assert (code, err) == (0, "")
        assert out == "property observable: holds\nobserve index 2 vs requested level 2\n"
        code, out, err = run_cli(
            "check", even_weight_spec, "--property", "observable", "--level", "1"
        )
        assert (code, err) == (1, "")
        assert out == "property observable: fails\nobserve index 2 vs requested level 1\n"

    def test_rectangular(self):
        code, _, _ = run_cli(
            "check", str(SPECS / "coprime_z6.spec"), "--property", "rectangular"
        )
        assert code == 0
        code, _, _ = run_cli(
            "check", str(SPECS / "even_weight.spec"), "--property", "rectangular"
        )
        assert code == 1

    @pytest.mark.parametrize(
        "text",
        [
            "symbols: [2] [2]\ngenerator: 1 0\ngenerator: 0 1\n",
            "symbols: [4] [2]\ngenerator: 2 0\n",
        ],
        ids=["full-z2-z2", "z4-z2-order-two"],
    )
    def test_rectangular_with_shared_primes(self, tmp_path, text):
        path = tmp_path / "code.spec"
        path.write_text("kind: block\n" + text, encoding="utf-8")
        code, out, err = run_cli("check", str(path), "--property", "rectangular")
        assert (code, err) == (0, "")
        assert out == "property rectangular: holds\ncoordinatewise product verified\n"

    def test_rectangular_matches_product_of_projections(self, exhaustive_corpus, tmp_path):
        # Brute force: C is a product of symbol subgroups exactly when it is
        # the product of its per-position projections.  A failure names the
        # product of the single-position windows, counted word by word.
        from groupcodes.specfmt import document_from_block_code, emit_spec

        path = tmp_path / "code.spec"
        verdicts = set()
        for c in exhaustive_corpus:
            words = [c.space.split(w) for w in c.words()]
            projections, windows = 1, 1
            for i in range(c.space.horizon):
                projections *= len({w[i] for w in words})
                windows *= sum(not any(any(s) for j, s in enumerate(w) if j != i) for w in words)
            rectangular = projections == c.cardinality
            path.write_text(emit_spec(document_from_block_code(c)), encoding="utf-8")
            code, out, err = run_cli("check", str(path), "--property", "rectangular")
            assert (code, err) == (0 if rectangular else 1, "")
            if not rectangular:
                assert out.splitlines()[1] == (
                    f"|C| = {c.cardinality} but the single-position windows "
                    f"multiply to {windows}"
                )
            verdicts.add(rectangular)
        assert verdicts == {True, False}

    def test_subdirect(self, even_weight_spec):
        code, _, _ = run_cli("check", even_weight_spec, "--property", "subdirect")
        assert code == 0

    def test_subdirect_decomposition_failure_exits_one(
        self, even_weight_spec, monkeypatch
    ):
        # A failed decomposition is a failed property, as in `decompose`.
        import groupcodes.cli
        from groupcodes.structure import DecompositionError

        def failing(code):
            raise DecompositionError("no splitting character; order below exponent")

        monkeypatch.setattr(groupcodes.cli, "cyclic_product_decomposition", failing)
        code, out, err = run_cli("check", even_weight_spec, "--property", "subdirect")
        assert code == 1
        assert out == (
            "property subdirect: fails\n"
            "decomposition failed: no splitting character; order below exponent\n"
        )
        assert err == ""

    def test_missing_level_is_usage_error(self, even_weight_spec):
        code, _, err = run_cli(
            "check", even_weight_spec, "--property", "l-controllable"
        )
        assert code == 2
        assert "level" in err

    def test_missing_level_checked_before_strong_index(
        self, constant_spec, monkeypatch
    ):
        import groupcodes.cli

        calls = []
        monkeypatch.setattr(
            groupcodes.cli, "strong_controllability_index", calls.append
        )
        code, out, err = run_cli("check", constant_spec, "--property", "l-controllable")
        assert code == 2
        assert out == ""
        assert err == "error: field 'level': l-controllable needs --level\n"
        assert calls == []

    @pytest.mark.parametrize("prop", ["l-controllable", "observable"])
    @pytest.mark.parametrize("spec", ["z4_band8_code.spec", "z4_12_kernel.spec"])
    def test_negative_level_is_usage_error(self, spec, prop):
        path = str(Path(__file__).resolve().parent / "golden" / "specs" / spec)
        code, out, err = run_cli("check", path, "--property", prop, "--level", "-1")
        assert code == 2
        assert out == ""
        assert err == "error: field 'level': level must be at least 0, got -1\n"


class TestDualityCheck:
    def test_block_report_passes(self, even_weight_spec):
        code, out, _ = run_cli("duality-check", even_weight_spec)
        assert code == 0
        assert "verdict: pass" in out

    def test_convolutional_report_passes(self, constant_spec):
        code, out, _ = run_cli("duality-check", constant_spec)
        assert code == 0
        assert "zero-extension" in out


def z8_band_spec(n, tap=(7, 1, 6)):
    """The Z/8 band spec at horizon n: every in-window shift of ``tap``."""
    lines = ["kind: block", "symbols: " + " ".join(["[8]"] * n)]
    for k in range(n - len(tap) + 1):
        row = [0] * k + list(tap) + [0] * (n - len(tap) - k)
        lines.append("generator: " + " ".join(map(str, row)))
    return "\n".join(lines) + "\n"


class TestBandBudget:
    # The wall budget the README states for each command on the N = 128
    # Z/8 band spec, run as a fresh process (about 0.23, 0.23 and 0.37 s on
    # a 2-core shared machine).  Never raised to make a slow change pass.
    BUDGET_S = 10.0

    @pytest.mark.parametrize("command", ["analyze", "decompose", "duality-check"])
    def test_n128_band_within_budget(self, command, tmp_path):
        spec = tmp_path / "z8_band128.spec"
        spec.write_text(z8_band_spec(128), encoding="utf-8")
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "groupcodes.cli", command, str(spec)],
            capture_output=True,
            text=True,
            timeout=3 * self.BUDGET_S,
        )
        elapsed = time.perf_counter() - start
        assert proc.returncode == 0, proc.stderr
        assert elapsed <= self.BUDGET_S, (command, elapsed)
        if command == "duality-check":
            assert "verdict: pass" in proc.stdout


def oracle_set_checks(code):
    """(check, engine set, brute list) for every set check ``oracle`` makes
    on a block code whose ambient is within the bound."""
    from groupcodes import oracle
    from groupcodes.control import reachable_set
    from groupcodes.duality import dual_block_code
    from groupcodes.observe import consistency_set

    enum, N = oracle.enumerate_code(code), code.space.horizon
    for k in range(N):
        for L in range(N - k + 1):
            brute = oracle.brute_reachable_set(enum, k, L)
            yield "reachable sets", reachable_set(code, k, L), brute
        for L in range(N - k):
            brute = oracle.brute_consistency_set(enum, k, L, oracle.DEFAULT_BOUND)
            yield "consistency sets", consistency_set(code, k, L), brute
    yield "annihilator", dual_block_code(code), oracle.brute_annihilator(enum, oracle.DEFAULT_BOUND)


class TestOracle:
    # The wall budget the README states for ``oracle`` on the N = 8 Z/4
    # band spec, run as a fresh process (about 2.3 s on a 2-core shared
    # machine, every check run).  Never raised to make a slow change pass.
    BUDGET_S = 10.0

    def test_band8_code_within_budget(self):
        spec = Path(__file__).resolve().parent / "golden" / "specs" / "z4_band8_code.spec"
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "groupcodes.cli", "oracle", str(spec)],
            capture_output=True,
            text=True,
            timeout=3 * self.BUDGET_S,
        )
        elapsed = time.perf_counter() - start
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout.endswith("verdict: pass\n")
        assert elapsed <= self.BUDGET_S, elapsed

    def test_block_oracle_agrees(self, even_weight_spec):
        code, out, _ = run_cli("oracle", even_weight_spec)
        assert code == 0
        assert "verdict: pass" in out

    def test_convolutional_oracle_agrees(self, constant_spec):
        code, out, _ = run_cli("oracle", constant_spec)
        assert code == 0

    def test_negative_oracle_bound_is_usage_error(self, even_weight_spec):
        code, out, err = run_cli("oracle", even_weight_spec, "--bound", "-1")
        assert (code, out) == (2, "")
        assert err == "error: field 'bound': bound must be at least 0, got -1\n"
        code, out, err = run_cli("oracle", even_weight_spec, "--bound", "0")
        assert (code, out) == (2, "")
        assert err == "error: span exceeds the oracle bound 0\n"

    def test_code_above_the_bound_is_refused_before_enumeration(self):
        # |C| is about 10**36: enumerating any set of its words exhausts
        # memory.  Under a 1.5 GB address-space cap and a timeout, a
        # regression fails here instead of taking the machine's memory.
        import resource

        def cap():
            limit = 1536 << 20
            resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

        proc = subprocess.run(
            [sys.executable, "-m", "groupcodes.cli", "oracle", str(HUGE_COPRIME)],
            capture_output=True,
            text=True,
            timeout=60,
            preexec_fn=cap,
        )
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr == "error: span exceeds the oracle bound 1048576\n"

    def test_every_window_is_bounded_before_any_is_checked(self, tmp_path, monkeypatch):
        # Window [0,2) has exactly 2**20 words and [0,3) has 2**30: the
        # spec exits 2 before the first window is enumerated.
        import groupcodes.oracle

        spec = tmp_path / "wide_image.spec"
        spec.write_text(
            "kind: convolutional\nsymbol: [1024,512]\nform: image\n"
            "tap: 3,1 2,0 1,1 0,2 5,3 7,1\n",
            encoding="utf-8",
        )
        calls = []
        monkeypatch.setattr(groupcodes.oracle, "enumerate_code", lambda *a, **k: calls.append(a))
        code, out, err = run_cli("oracle", str(spec))
        assert (code, out, calls) == (2, "", [])
        assert err == "error: span exceeds the oracle bound 1048576\n"

    def test_checks_above_the_bound_are_reported_skipped(self, even_weight_spec):
        # The ambient space has 8 words; the checks that enumerate it say
        # so instead of vanishing, and a skip does not change the verdict.
        code, out, err = run_cli("oracle", even_weight_spec, "--bound", "4")
        assert (code, err) == (0, "")
        skipped = "skipped (ambient 8 exceeds the oracle bound 4)"
        assert out.splitlines() == [
            "oracle cross-check report",
            "code :: reachable sets: agree",
            f"code :: consistency sets: {skipped}",
            f"code :: annihilator: {skipped}",
            "code :: order profile: agree",
            "code :: invariant factors: agree",
            "code :: decomposition verification: agree",
            "verdict: pass",
        ]


    def test_consistency_check_reads_only_the_engine_basis_rows(self, monkeypatch):
        # One window of the N = 8 band code: B has 4**8 words, and the
        # engine set is asked for its order and its Howell rows only.  A
        # stand-in holding just those agrees, and no word goes through
        # ``BlockCode.contains``.
        from types import SimpleNamespace

        import groupcodes.oracle as oracle
        from groupcodes.codes import BlockCode
        from groupcodes.observe import consistency_set

        from .conftest import band_code

        code = band_code("z4_band8_code.spec")
        enum = oracle.enumerate_code(code)
        brute = oracle.brute_consistency_set(enum, 2, 1, oracle.DEFAULT_BOUND)
        engine = consistency_set(code, 2, 1)
        calls = []
        monkeypatch.setattr(BlockCode, "contains", lambda self, word: calls.append(word))
        rows = SimpleNamespace(rows=engine.basis.rows)
        assert cli._agrees(SimpleNamespace(cardinality=engine.cardinality, basis=rows), brute)
        assert cli._agrees(engine, brute)
        assert calls == []

    def test_set_checks_make_no_membership_test(self, monkeypatch):
        # The whole report on a block spec, every check run: no membership
        # test is made from ``cli``, so no word of a brute list goes
        # through the engine reducer (the decomposition's own certificate
        # may still test its generators).
        from groupcodes.codes import BlockCode

        contains, callers = BlockCode.contains, []

        def spy(self, word):
            callers.append(Path(sys._getframe(1).f_code.co_filename).name)
            return contains(self, word)

        monkeypatch.setattr(BlockCode, "contains", spy)
        code, out, err = run_cli("oracle", str(SPECS / "even_weight.spec"))
        assert (code, err) == (0, "")
        assert "cli.py" not in callers
        assert out.splitlines()[1:4] == [
            "code :: reachable sets: agree",
            "code :: consistency sets: agree",
            "code :: annihilator: agree",
        ]

    def test_consistency_set_missing_an_outside_unit_disagrees(self, tmp_path, monkeypatch):
        # C = <(2, 0, 0)> over (Z/4)^3 and the window [0, 1).  The fake set
        # swaps the unit (0, 1, 0) for (1, 1, 0): it has as many words as
        # B and holds every zeroed word of B, but not the unit.
        import groupcodes.cli as cli
        from groupcodes.codes import code_from_generators

        spec = tmp_path / "z4_double.spec"
        spec.write_text("kind: block\nsymbols: [4] [4] [4]\ngenerator: 2 0 0\n", encoding="utf-8")
        real = cli.consistency_set

        def missing_unit(code, k, L):
            if (k, L) != (0, 0):
                return real(code, k, L)
            fake = code_from_generators(code.space, [(2, 0, 0), (1, 1, 0), (0, 0, 1)])
            assert fake.cardinality == real(code, k, L).cardinality
            assert fake.contains((2, 0, 0)) and not fake.contains((0, 1, 0))
            return fake

        monkeypatch.setattr(cli, "consistency_set", missing_unit)
        code, out, err = run_cli("oracle", str(spec))
        assert (code, err) == (1, "")
        assert "code :: consistency sets: DISAGREE" in out.splitlines()
        assert "code :: reachable sets: agree" in out.splitlines()

    def test_wrong_consistency_set_on_the_whole_tail_disagrees(self, tmp_path, monkeypatch):
        # C = <(2, 0, 0)> over (Z/4)^3.  Only the window [0, 3), which
        # reaches the horizon, is served a wrong set: <(0, 2, 0)> has as
        # many words as C, its consistency set there, but is not C.
        from groupcodes.codes import code_from_generators

        spec = tmp_path / "z4_double.spec"
        spec.write_text("kind: block\nsymbols: [4] [4] [4]\ngenerator: 2 0 0\n", encoding="utf-8")
        real, served = cli.consistency_set, []

        def wrong_tail(code, k, L):
            if k > 0 or k + L + 1 < code.space.horizon:
                return real(code, k, L)
            served.append(L)
            return code_from_generators(code.space, [(0, 2, 0)])

        monkeypatch.setattr(cli, "consistency_set", wrong_tail)
        code, out, err = run_cli("oracle", str(spec))
        assert (code, err, served) == (1, "", [2])
        assert "code :: consistency sets: DISAGREE" in out.splitlines()

    @pytest.mark.parametrize("corpus", ["exhaustive_corpus", "mixed_corpus"])
    def test_every_brute_set_is_a_subgroup(self, corpus, request):
        # The premise of the one agreement rule: each list a set check
        # compares with is a subgroup, so it holds the span of any rows it
        # holds.  The span of the list's words is grown one word at a time
        # by that word's multiples; the list is a subgroup exactly when the
        # span ends equal to it.
        for code in request.getfixturevalue(corpus):
            moduli = code.space.flat_moduli
            for _, _, brute in oracle_set_checks(code):
                span = {(0,) * len(moduli)}
                for word in brute:
                    if word not in span:
                        multiples, step = [], word
                        while step not in span:
                            multiples.append(step)
                            step = tuple((a + b) % m for a, b, m in zip(step, word, moduli))
                        span |= {
                            tuple((a + b) % m for a, b, m in zip(x, y, moduli))
                            for x in span
                            for y in multiples
                        }
                assert span == set(brute), code.basis

    @pytest.mark.parametrize("corpus", ["exhaustive_corpus", "mixed_corpus"])
    def test_a_basis_row_outside_the_list_disagrees(self, corpus, request):
        # Each engine set agrees with its list; a stand-in with as many
        # words whose Howell rows gain one word outside the list does not.
        from itertools import product
        from types import SimpleNamespace

        checked = set()
        for code in request.getfixturevalue(corpus):
            ambient = list(product(*map(range, code.space.flat_moduli)))
            for name, engine, brute in oracle_set_checks(code):
                assert cli._agrees(engine, brute), (name, code.basis)
                members = set(brute)
                outside = next((w for w in ambient if w not in members), None)
                if outside is None:
                    continue
                rows = SimpleNamespace(rows=engine.basis.rows + (outside,))
                fake = SimpleNamespace(cardinality=len(brute), basis=rows)
                assert not cli._agrees(fake, brute), (name, code.basis)
                checked.add(name)
        assert checked == {"reachable sets", "consistency sets", "annihilator"}

    @pytest.mark.parametrize("spec, codes", [("even_weight.spec", 1), ("constant_kernel.spec", 4)])
    def test_each_code_is_enumerated_once(self, spec, codes, monkeypatch):
        # One generator closure per code, shared by every brute-force check,
        # not one per window.
        import groupcodes.oracle

        enumerate_code = groupcodes.oracle.enumerate_code
        calls = []

        def counted(code, bound=groupcodes.oracle.DEFAULT_BOUND):
            calls.append(code)
            return enumerate_code(code, bound)

        monkeypatch.setattr(groupcodes.oracle, "enumerate_code", counted)
        code, out, err = run_cli("oracle", str(SPECS / spec))
        assert (code, err) == (0, "")
        labels = {line.split(" :: ")[0] for line in out.splitlines() if " :: " in line}
        assert len(calls) == len(labels) == codes
        assert len({id(c) for c in calls}) == codes


class TestExitContract:
    """Every input error exits 2 with nothing on stdout and one ``error:``
    line on stderr, whichever subcommand meets it."""

    COMMANDS = [
        ("analyze",),
        ("dual",),
        ("decompose",),
        ("check", "--property", "observable"),
        ("duality-check",),
        ("oracle",),
    ]

    @staticmethod
    def assert_error(argv, message=None):
        code, out, err = run_cli(*argv)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.endswith("\n")
        assert err.count("\n") == 1
        if message is not None:
            assert err == f"error: {message}\n"
        return err

    def test_every_subcommand_is_swept(self):
        import groupcodes.cli

        assert [c[0] for c in self.COMMANDS] == list(groupcodes.cli.COMMANDS)

    @pytest.mark.parametrize("source", ["missing", "directory", "malformed", "not-utf8"])
    @pytest.mark.parametrize("command", COMMANDS, ids=[c[0] for c in COMMANDS])
    def test_unreadable_input(self, command, source, tmp_path):
        # A directory raises IsADirectoryError, an OSError other than
        # FileNotFoundError; it still exits 2 with one error line.
        if source == "missing":
            path, message = tmp_path / "no_such.spec", "error: no such file: "
        elif source == "directory":
            path, message = tmp_path, "error: cannot read "
        elif source == "not-utf8":
            # The first bad byte sits on line 3, after a \r\n and a lone \r,
            # each one line break for parse_spec.
            path, message = tmp_path / "latin1.spec", "error: line 3: not UTF-8: byte 0xe9 "
            path.write_bytes("kind: block\r\nsymbols: [2]\r# café\n".encode("latin-1"))
        else:
            path, message = tmp_path / "bad.spec", "error: line 3: "
            path.write_text("kind: block\nsymbols: [2]\ngenerator: 7\n", encoding="utf-8")
        err = self.assert_error([command[0], str(path), *command[1:]])
        assert err.startswith(message)
        if source == "malformed":
            assert "out of range" in err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (
                ["decompose"],
                "field 'kind': decompose expects a block code document",
            ),
            (
                ["decompose", "--format", "json"],
                "field 'kind': decompose expects a block code document",
            ),
            (
                ["check", "--property", "rectangular"],
                "field 'property': property 'rectangular' not available "
                "for convolutional codes",
            ),
            (
                ["check", "--property", "subdirect"],
                "field 'property': property 'subdirect' not available "
                "for convolutional codes",
            ),
        ],
        ids=["decompose", "decompose-json", "rectangular", "subdirect"],
    )
    def test_block_only_commands_on_a_convolutional_spec(self, constant_spec, argv, message):
        self.assert_error([argv[0], constant_spec, *argv[1:]], message)

    @pytest.mark.parametrize("spec", ["even_weight.spec", "constant_kernel.spec"])
    def test_l_controllable_needs_a_level(self, spec):
        argv = ["check", str(SPECS / spec), "--property", "l-controllable"]
        self.assert_error(argv, "field 'level': l-controllable needs --level")

    @pytest.mark.parametrize("fmt", [(), ("--format", "text"), ("--format", "json")])
    def test_failed_decomposition_is_one_text_line(self, even_weight_spec, monkeypatch, fmt):
        # A decomposition that fails has no JSON form: its one line prints
        # as text under every format, and it exits 1.
        import groupcodes.cli
        from groupcodes.structure import DecompositionError

        def failing(code):
            raise DecompositionError("no splitting character; order below exponent")

        monkeypatch.setattr(groupcodes.cli, "cyclic_product_decomposition", failing)
        assert run_cli("decompose", even_weight_spec, *fmt) == (
            1,
            "decomposition failed: no splitting character; order below exponent\n",
            "",
        )

    def test_a_stuck_peel_fails_the_decomposition(self, even_weight_spec, monkeypatch):
        # A peel whose complement does not shrink ends the loop with a
        # failed decomposition (exit 1), not a hang.
        import groupcodes.structure

        calls = []

        def stuck(state, record, moduli, word, order):
            calls.append(order)
            if len(calls) > 50:
                raise AssertionError("the peel loop kept going")

        monkeypatch.setattr(groupcodes.structure, "_peel_complement", stuck)
        assert run_cli("decompose", even_weight_spec) == (
            1,
            "decomposition failed: peel left a complement of order 4, not 2\n",
            "",
        )


class TestLargeModuli:
    """A modulus past trial division is factored, or refused at parse."""

    RUNS = TestExitContract.COMMANDS + [
        ("analyze", "--format", "json"),
        ("check", "--property", "subdirect"),
    ]

    @pytest.mark.parametrize("argv", RUNS, ids=[" ".join(argv) for argv in RUNS])
    def test_prime_near_10_to_18_finishes(self, tmp_path, argv):
        # Factoring 10^18 + 3 by trial division took past 20 s under
        # analyze; each subcommand now finishes well within 20 s (the
        # oracle refuses the span, above its bound, with exit 2).
        spec = tmp_path / "large_prime.spec"
        spec.write_text(
            "kind: block\nsymbols: [1000000000000000003]\ngenerator: 1\n", encoding="utf-8"
        )
        proc = subprocess.run(
            [sys.executable, "-m", "groupcodes.cli", argv[0], str(spec), *argv[1:]],
            capture_output=True,
            text=True,
            timeout=20,
        )
        assert proc.returncode == (2 if argv[0] == "oracle" else 0), proc.stderr
        assert (proc.stderr == "") == (argv[0] != "oracle")

    @pytest.mark.parametrize("command", TestExitContract.COMMANDS, ids=lambda c: c[0])
    @pytest.mark.parametrize(
        "text, field",
        [
            (f"kind: block\nsymbols: [2] [{M89}]\ngenerator: 1 1\n", "symbols"),
            (f"kind: convolutional\nsymbol: [{M89}]\nform: image\n", "symbol"),
        ],
        ids=["block", "convolutional"],
    )
    def test_unprovable_prime_is_a_spec_error(self, tmp_path, command, text, field):
        # 2^89 - 1 is prime, above the bound where Miller-Rabin to the bases
        # up to 41 decides: every subcommand refuses it at parse.
        spec = tmp_path / "m89.spec"
        spec.write_text(text, encoding="utf-8")
        err = TestExitContract.assert_error([command[0], str(spec), *command[1:]])
        assert err.startswith(f"error: line 2: field {field!r}: cannot factor modulus {M89}: ")


class TestErrors:
    @pytest.mark.parametrize(
        "text, error",
        [
            (
                "kind: block\nsymbols: [2] [2]\nsymbols: [2]\ngenerator: 1 1\n",
                "error: line 3: field 'symbols': repeated; first given on line 2\n",
            ),
            (
                "kind: block\nsymbols: [2] [2]\nhorizon: 3\n",
                "error: line 3: field 'horizon': not valid in a block document\n",
            ),
        ],
        ids=["repeated-symbols", "block-horizon"],
    )
    def test_ignored_key_is_usage_error(self, tmp_path, text, error):
        path = tmp_path / "code.spec"
        path.write_text(text, encoding="utf-8")
        for command in ("analyze", "duality-check"):
            assert run_cli(command, str(path)) == (2, "", error)

    def test_z4_102_kernel_analyzes(self, tmp_path):
        # Z/4 kernel check (3, 0, 2): every window is zero.  The old margin
        # loop gave up on it with exit 2.
        spec = tmp_path / "z4_302.spec"
        spec.write_text(
            "kind: convolutional\nsymbol: [4]\nform: kernel\ntap: 3 0 2\n",
            encoding="utf-8",
        )
        code, out, err = run_cli("analyze", str(spec), "--format", "json")
        assert (code, err) == (0, "")
        data = json.loads(out)
        assert data["window_orders"] == {str(n): 1 for n in range(1, 7)}
        assert data["weakly_controllable"]

    def test_console_entry_point(self, even_weight_spec):
        proc = subprocess.run(
            [sys.executable, "-m", "groupcodes.cli", "analyze", even_weight_spec],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "groupcodes analyze report" in proc.stdout


class TestParserReuse:
    def test_repeated_calls_match_single_runs(self, even_weight_spec, constant_spec):
        import groupcodes.cli

        cases = [
            ("analyze", even_weight_spec),
            ("check", constant_spec, "--property", "l-controllable", "--level", "1"),
            ("analyze", constant_spec, "--format", "json"),
            ("check", even_weight_spec, "--property", "bogus"),
            ("dual", even_weight_spec),
            ("check", constant_spec, "--property", "l-controllable"),
            ("duality-check", constant_spec),
        ]

        def run_caught(argv):
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                try:
                    code = main(list(argv))
                except SystemExit as exc:  # argparse errors exit by raising
                    code = ("exit", exc.code)
            return code, out.getvalue(), err.getvalue()

        alone = {}
        for argv in cases:
            groupcodes.cli.build_parser.cache_clear()
            alone[argv] = run_caught(argv)
        assert alone[cases[3]][0] == ("exit", 2)
        assert "invalid choice" in alone[cases[3]][2]
        parser = groupcodes.cli.build_parser()
        for argv in cases * 2 + cases[::-1]:
            assert run_caught(argv) == alone[argv]
        assert groupcodes.cli.build_parser() is parser


def parsed_or_exit(parse, argv):
    """(namespace dict or SystemExit code, stdout, stderr) of one parse."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            result = vars(parse(argv))
        except SystemExit as exc:
            result = ("exit", exc.code)
    return result, out.getvalue(), err.getvalue()


class TestPlainDispatch:
    """``cli._arguments`` against ``build_parser().parse_args``: a plain
    ``COMMAND SPEC`` line reads argparse's namespace with no parse, and
    every other line is argparse's own."""

    PLAIN = [name for name in cli.COMMANDS if name != "check"]

    def test_templates_are_the_commands_without_a_required_option(self):
        assert list(cli._plain_namespaces()) == self.PLAIN

    @pytest.mark.parametrize("command", PLAIN)
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(spec=st.text().filter(lambda text: not text.startswith("-")))
    @example(spec="")
    @example(spec=" -x")
    @example(spec="a b\tc")
    @example(spec="ℤ/4 ü.spec")
    def test_plain_line_twins_argparse(self, command, spec):
        argv = [command, spec]
        assert vars(cli._arguments(argv)) == vars(build_parser().parse_args(argv))

    @pytest.mark.parametrize(
        "argv",
        [
            ["analyze", "a.spec", "--format", "json"],
            ["dual", "a.spec", "--format", "json"],
            ["oracle", "a.spec", "--bound", "7"],
            ["-h"],
            ["analyze", "-h"],
            ["check", "a.spec"],
            ["check", "a.spec", "--property", "observable"],
            ["bogus", "a.spec"],
            ["analyze", "-x"],
            ["oracle", "-"],
            ["analyze", "--format"],
            ["analyze"],
            ["a.spec"],
            [],
            ["analyze", "a.spec", "b.spec"],
            ["duality-check", "a.spec", "--format"],
        ],
        ids=lambda argv: "_".join(argv) or "empty",
    )
    def test_every_other_shape_is_argparse(self, argv):
        twin = parsed_or_exit(cli._arguments, argv)
        assert twin == parsed_or_exit(build_parser().parse_args, argv)
        if isinstance(twin[0], tuple):
            assert twin[0][1] in (0, 2)

    def test_argv_none_reads_sys_argv(self, monkeypatch):
        monkeypatch.setattr(sys, "argv", ["groupcodes", "dual", "a.spec"])
        assert vars(cli._arguments()) == vars(build_parser().parse_args(["dual", "a.spec"]))
        monkeypatch.setattr(sys, "argv", ["groupcodes", "dual", "a.spec", "--format", "json"])
        assert cli._arguments().format == "json"

    @pytest.mark.parametrize("command", PLAIN)
    def test_plain_main_runs_no_parse(self, command, even_weight_spec, monkeypatch):
        import argparse

        cli._plain_namespaces()  # the templates are taken once, by parses
        calls = []
        parse = argparse.ArgumentParser.parse_known_args

        def counted(self, *args, **kwargs):
            calls.append(args)
            return parse(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", counted)
        code, out, err = run_cli(command, even_weight_spec)
        assert (calls, code, err) == ([], 0, "") and out
        build_parser().parse_args([command, even_weight_spec])  # the counter sees a parse
        assert calls
