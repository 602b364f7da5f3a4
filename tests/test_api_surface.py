"""The package's import surface: every module's ``__all__`` names what it
defines, so a name removed from a module cannot linger in its exports, and
the package namespace imports a submodule only when one of its names is
first read."""

import ast
import importlib
import inspect
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import groupcodes

MODULES = ["groupcodes"] + [
    f"groupcodes.{info.name}" for info in pkgutil.iter_modules(groupcodes.__path__)
]


def package_modules():
    """The package and each of its modules, imported."""
    return [importlib.import_module(name) for name in MODULES]


def test_every_module_is_listed():
    assert len(MODULES) > 10
    assert {"groupcodes.linalg", "groupcodes.structure", "groupcodes.oracle"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_exports_resolve_and_star_import_succeeds(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == [], f"{name}.__all__ names undefined {missing}"
    namespace: dict = {}
    exec(f"from {name} import *", namespace)
    for exported in getattr(module, "__all__", ()):
        assert namespace[exported] is getattr(module, exported)


ROOT = Path(__file__).resolve().parents[1]
# The names ``groupcodes`` re-exported before its namespace was lazy.
PACKAGE_EXPORTS = {
    "BlockCode", "SequenceSpace", "ambient_code", "code_from_generators", "intersect",
    "invariant_factors_of_code", "join", "window_internal", "window_projection", "zero_code",
    "Chunk", "ControlProfile", "OrderProfile", "ProfileInsufficientError", "chunk_decompose",
    "control_profile", "controllable_subcode", "order_profile", "reachable_set",
    "ConvolutionalCode", "StrongControllabilityVerdict", "WeakControllabilityVerdict",
    "dual_convolutional", "local_window", "strong_controllability_index",
    "verify_window_duality", "weak_controllability", "weak_observability", "window_code",
    "zero_extension_window",
    "Character", "QmodZ", "annihilator", "dual_block_code", "pairing",
    "quotient_duality_check",
    "FiniteAbelianGroup", "GroupElement", "element_order", "height", "primary_decomposition",
    "socle",
    "ResidueMatrix", "howell_form", "residue_matrix", "smith_invariants", "span_cardinality",
    "ObserveProfile", "check_control_observe_duality", "consistency_set",
    "observable_supercode", "observe_profile",
    "EnumeratedCode", "brute", "enumerate_code",
    "CodeSpecDocument", "SpecError", "emit_spec", "parse_spec",
    "Decomposition", "DecompositionGenerator", "coprime_rectangular",
    "cyclic_product_decomposition", "is_subdirect_product", "verify_decomposition",
}


def fresh(code):
    """The value of the expression that ends ``code``, evaluated in a new
    interpreter with this checkout's ``src`` first on the path."""
    *statements, expression = code.strip().splitlines()
    script = "\n".join(statements + [f"print(repr({expression}))"])
    path = os.environ.get("PYTHONPATH")
    env = dict(
        os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src")] + ([path] if path else []))
    )
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, cwd=ROOT
    )
    assert done.returncode == 0, done.stderr
    return ast.literal_eval(done.stdout.strip())


LOADED = "sorted(n for n in sys.modules if n.startswith('groupcodes.'))"


class TestLazyNamespace:
    """``import groupcodes`` loads no submodule; each exported name and
    each submodule name loads its submodule on first use (PEP 562)."""

    def test_package_import_loads_no_submodule(self):
        assert fresh(f"import sys, groupcodes\n{LOADED}") == []

    def test_library_modules_load_no_analysis_module(self):
        loaded = fresh(
            "import sys\nimport groupcodes.codes, groupcodes.convolutional, groupcodes.duality\n"
            + LOADED
        )
        assert "groupcodes.codes" in loaded
        for name in ("observe", "oracle", "specfmt", "structure", "cli"):
            assert f"groupcodes.{name}" not in loaded

    def test_command_line_loads_no_class_builder(self):
        # The value classes are plain classes and named tuples: neither
        # ``dataclasses`` nor the ``inspect`` it imports is loaded.
        assert fresh(
            "import sys, groupcodes.cli\n"
            "[n for n in ('dataclasses', 'inspect') if n in sys.modules]"
        ) == []

    def test_benchmark_setup_modules_load_no_class_builder(self):
        assert fresh(
            "import sys\n"
            "import groupcodes.codes, groupcodes.convolutional, groupcodes.duality\n"
            "import groupcodes.groups\n"
            "[n for n in ('dataclasses', 'inspect') if n in sys.modules]"
        ) == []

    def test_text_command_loads_no_json(self):
        # ``cli._emit`` imports ``json`` only for a ``--format json`` report.
        spec = str(ROOT / "demos" / "specs" / "even_weight.spec")
        assert fresh(
            "import contextlib, io, sys\n"
            "from groupcodes.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()): code = main(['analyze', %r])\n"
            "(code, 'json' in sys.modules)" % spec
        ) == (0, False)

    def test_submodule_and_name_resolve(self):
        assert fresh(
            "import sys, groupcodes\n"
            "oracle = groupcodes.oracle\n"
            "(oracle is sys.modules['groupcodes.oracle'], oracle.__name__,"
            " groupcodes.BlockCode.__module__)"
        ) == (True, "groupcodes.oracle", "groupcodes.codes")

    def test_unknown_name_is_an_attribute_error(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            groupcodes.no_such_name

    def test_all_is_the_names_exported_before(self):
        assert set(groupcodes.__all__) == PACKAGE_EXPORTS
        assert len(groupcodes.__all__) == len(PACKAGE_EXPORTS) == 65

    def test_dir_lists_all(self):
        assert set(groupcodes.__all__) <= set(dir(groupcodes))
        assert fresh("import groupcodes\nset(groupcodes.__all__) <= set(dir(groupcodes))")

    def test_each_name_is_defined_where_the_table_says(self):
        for name, module in groupcodes._ORIGIN.items():
            value = getattr(groupcodes, name)
            assert inspect.isclass(value) or inspect.isfunction(value), name
            assert value.__module__ == f"groupcodes.{module}", name
