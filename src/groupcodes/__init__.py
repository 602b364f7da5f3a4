"""Exact computation with block and convolutional codes over finite abelian
groups: canonical forms, duality, controllability and observability
profiles, and weakly rectangular decompositions, all in integer arithmetic.

The namespace is lazy (PEP 562): ``import groupcodes`` loads no submodule,
and each name below imports the submodule that defines it on first use.
"""

import importlib

# Each submodule and the names the package re-exports from it.
_EXPORTS = {
    "codes": (
        "BlockCode", "SequenceSpace", "ambient_code", "code_from_generators", "intersect",
        "invariant_factors_of_code", "join", "window_internal", "window_projection",
        "zero_code",
    ),
    "control": (
        "Chunk", "ControlProfile", "OrderProfile", "ProfileInsufficientError",
        "chunk_decompose", "control_profile", "controllable_subcode", "order_profile",
        "reachable_set",
    ),
    "convolutional": (
        "ConvolutionalCode", "StrongControllabilityVerdict", "WeakControllabilityVerdict",
        "dual_convolutional", "local_window", "strong_controllability_index",
        "verify_window_duality", "weak_controllability", "weak_observability", "window_code",
        "zero_extension_window",
    ),
    "duality": (
        "Character", "QmodZ", "annihilator", "dual_block_code", "pairing",
        "quotient_duality_check",
    ),
    "groups": (
        "FiniteAbelianGroup", "GroupElement", "element_order", "height",
        "primary_decomposition", "socle",
    ),
    "linalg": (
        "ResidueMatrix", "howell_form", "residue_matrix", "smith_invariants",
        "span_cardinality",
    ),
    "observe": (
        "ObserveProfile", "check_control_observe_duality", "consistency_set",
        "observable_supercode", "observe_profile",
    ),
    "oracle": ("EnumeratedCode", "brute", "enumerate_code"),
    "specfmt": ("CodeSpecDocument", "SpecError", "emit_spec", "parse_spec"),
    "structure": (
        "Decomposition", "DecompositionGenerator", "coprime_rectangular",
        "cyclic_product_decomposition", "is_subdirect_product", "verify_decomposition",
    ),
}
_ORIGIN = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_ORIGIN)
__version__ = "0.1.0"


def __getattr__(name):
    """An exported name, or one of the submodules above, imported on first
    use and bound here so later reads skip this hook."""
    if name in _ORIGIN:
        value = getattr(importlib.import_module(f"{__name__}.{_ORIGIN[name]}"), name)
    elif name in _EXPORTS:
        value = importlib.import_module(f"{__name__}.{name}")
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
