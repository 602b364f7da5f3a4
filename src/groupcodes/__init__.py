"""Exact computation with block and convolutional codes over finite abelian
groups: canonical forms, duality, controllability and observability
profiles, and weakly rectangular decompositions, all in integer arithmetic.
"""

from .codes import (
    BlockCode,
    SequenceSpace,
    ambient_code,
    code_from_generators,
    intersect,
    invariant_factors_of_code,
    join,
    window_internal,
    window_projection,
    zero_code,
)
from .control import (
    Chunk,
    ControlProfile,
    OrderProfile,
    ProfileInsufficientError,
    chunk_decompose,
    control_profile,
    controllable_subcode,
    order_profile,
    reachable_set,
)
from .convolutional import (
    ConvolutionalCode,
    StrongControllabilityVerdict,
    WeakControllabilityVerdict,
    dual_convolutional,
    local_window,
    strong_controllability_index,
    verify_window_duality,
    weak_controllability,
    weak_observability,
    window_code,
    zero_extension_window,
)
from .duality import (
    Character,
    QmodZ,
    annihilator,
    dual_block_code,
    pairing,
    quotient_duality_check,
)
from .groups import (
    FiniteAbelianGroup,
    GroupElement,
    element_order,
    height,
    primary_decomposition,
    socle,
)
from .linalg import (
    ResidueMatrix,
    howell_form,
    residue_matrix,
    smith_invariants,
    span_cardinality,
)
from .observe import (
    ObserveProfile,
    check_control_observe_duality,
    consistency_set,
    observable_supercode,
    observe_profile,
)
from .oracle import EnumeratedCode, brute, enumerate_code
from .specfmt import CodeSpecDocument, SpecError, emit_spec, parse_spec
from .structure import (
    Decomposition,
    DecompositionGenerator,
    coprime_rectangular,
    cyclic_product_decomposition,
    is_subdirect_product,
    verify_decomposition,
)

__version__ = "0.1.0"
