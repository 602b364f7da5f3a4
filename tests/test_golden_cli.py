"""Golden CLI reports: every report on the demo specs and on the extra
convolutional and Z/4 band specs in `tests/golden/specs`, byte for byte,
and the output of each `demos/*.py` script.

`tests/golden/index.json` maps each case name to its argument list (the
spec is named by file name, looked up in `demos/specs` and then in
`tests/golden/specs`; a demo case names its script, which runs in a
subprocess), its exit code and its stderr; `tests/golden/<name>.out`
holds its stdout.  Regenerate them with
`PYTHONPATH=src python tests/test_golden_cli.py [NAME...]` only when a
report is meant to change, and review the diff.  With names, only those
cases are rewritten, and nothing is written if any other case's report
would change (those cases are listed on stderr).

`PYTHONPATH=src python tests/test_golden_cli.py --check` writes nothing: it
lists every case whose report differs from its golden on stderr and exits
1 if there is one.  The module imports without pytest, so the check runs
on any installed interpreter.
"""

import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from groupcodes.cli import main

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden"
SPEC_DIRS = (ROOT / "demos" / "specs", GOLDEN / "specs")
SPECS = {spec.name: spec for d in reversed(SPEC_DIRS) for spec in d.glob("*.spec")}

BLOCK_PROPERTIES = (
    ("weak-controllable",),
    ("l-controllable", "--level", "1"),
    ("observable",),
    ("rectangular",),
    ("subdirect",),
)
CONVOLUTIONAL_PROPERTIES = (
    ("weak-controllable",),
    ("l-controllable", "--level", "1"),
    ("observable",),
)


def golden_cases():
    """(name, argv) for every report; argv[1] is a spec file name, except
    in a demo case, whose argv is its script alone."""
    for spec in sorted(SPECS.values()):
        block = "kind: block" in spec.read_text(encoding="utf-8")
        stem, name = spec.stem, spec.name
        yield f"{stem}.analyze", ["analyze", name]
        yield f"{stem}.analyze-json", ["analyze", name, "--format", "json"]
        yield f"{stem}.dual", ["dual", name]
        if block:
            yield f"{stem}.decompose", ["decompose", name]
            yield f"{stem}.decompose-json", ["decompose", name, "--format", "json"]
        yield f"{stem}.duality-check", ["duality-check", name]
        yield f"{stem}.duality-check-json", ["duality-check", name, "--format", "json"]
        for prop in BLOCK_PROPERTIES if block else CONVOLUTIONAL_PROPERTIES:
            yield f"{stem}.check-{prop[0]}", ["check", name, "--property", *prop]
        if not block:
            yield f"{stem}.oracle", ["oracle", name]
    for demo in sorted((ROOT / "demos").glob("*.py")):
        yield f"demo.{demo.stem}", [f"demos/{demo.name}"]


def run_case(argv):
    if argv[0].startswith("demos/"):
        env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "PYTHONIOENCODING": "utf-8"}
        done = subprocess.run([sys.executable, argv[0]], cwd=ROOT, env=env, capture_output=True)
        return done.returncode, done.stdout.decode("utf-8"), done.stderr.decode("utf-8")
    argv = [argv[0], str(SPECS[argv[1]]), *argv[2:]]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _index():
    return json.loads((GOLDEN / "index.json").read_text(encoding="utf-8"))


CASES = list(golden_cases())


def test_golden_index_covers_every_case():
    assert sorted(_index()) == sorted(name for name, _ in CASES)


# Specs whose every case is also run on a copy saved with a UTF-8
# byte-order mark: a block spec and two convolutional ones, with reports
# that exit 0 and 1.
BOM_SPECS = ("even_weight.spec", "constant_kernel.spec", "z4_102_margin_error.spec")
BOM_CASES = [(name, argv) for name, argv in CASES if argv[1:2] and argv[1] in BOM_SPECS]


def pytest_generate_tests(metafunc):
    if metafunc.function is test_golden_report:
        metafunc.parametrize("name,argv", CASES, ids=[name for name, _ in CASES])
    if metafunc.function is test_byte_order_mark_prints_the_golden:
        metafunc.parametrize("name,argv", BOM_CASES, ids=[name for name, _ in BOM_CASES])


def test_golden_report(name, argv):
    expected = _index()[name]
    assert expected["argv"] == argv
    code, out, err = run_case(argv)
    assert out.encode("utf-8") == (GOLDEN / f"{name}.out").read_bytes()
    assert (code, err) == (expected["exit"], expected["stderr"])


def test_byte_order_mark_prints_the_golden(name, argv, tmp_path):
    copy = tmp_path / argv[1]
    copy.write_bytes(b"\xef\xbb\xbf" + SPECS[argv[1]].read_bytes())
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main([argv[0], str(copy), *argv[2:]])
    expected = _index()[name]
    assert out.getvalue().encode("utf-8") == (GOLDEN / f"{name}.out").read_bytes()
    assert (code, err.getvalue()) == (expected["exit"], expected["stderr"])


def _fresh_reports():
    """(index entry, stdout bytes) of every case, run now."""
    fresh = {}
    for name, argv in CASES:
        code, out, err = run_case(argv)
        fresh[name] = {"argv": argv, "exit": code, "stderr": err}, out.encode("utf-8")
    return fresh


def _stored(index, name):
    path = GOLDEN / f"{name}.out"
    return (index.get(name), path.read_bytes() if path.exists() else None)


def check_goldens():
    """List on stderr every case whose report differs from its golden;
    1 if there is one, else 0.  Nothing is written."""
    index = _index()
    fresh = _fresh_reports()
    changed = [name for name in sorted(fresh) if fresh[name] != _stored(index, name)]
    print(f"{len(fresh) - len(changed)} of {len(fresh)} cases match", file=sys.stderr)
    if changed:
        print("\n".join(changed), file=sys.stderr)
    return 1 if changed else 0


def write_goldens(names=()):
    """Rewrite the goldens of ``names``, or of every case when none are
    named.  With names given, nothing is written if the report of any
    other case differs from its golden; those cases are listed instead."""
    known = {name for name, _ in CASES}
    unknown = sorted(set(names) - known)
    if unknown:
        print("unknown cases: " + " ".join(unknown), file=sys.stderr)
        return 2
    selected = set(names) or known
    index = _index() if (GOLDEN / "index.json").exists() else {}
    fresh = _fresh_reports()
    changed = [name for name in sorted(known - selected) if fresh[name] != _stored(index, name)]
    if changed:
        print("other cases would change; nothing written:", file=sys.stderr)
        print("\n".join(changed), file=sys.stderr)
        return 1
    GOLDEN.mkdir(exist_ok=True)
    for name in sorted(selected):
        index[name], out = fresh[name]
        (GOLDEN / f"{name}.out").write_bytes(out)
    (GOLDEN / "index.json").write_text(
        json.dumps(index, sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )
    return 0


if __name__ == "__main__":
    if sys.argv[1:] == ["--check"]:
        raise SystemExit(check_goldens())
    raise SystemExit(write_goldens(sys.argv[1:]))
