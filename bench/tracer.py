"""Per-layer tracing installed from outside the program.

Each traced function is replaced by a wrapper in every ``groupcodes``
module namespace that binds it (modules import each other's functions with
``from .x import f``, so patching the defining module alone would miss
calls).  Dataclass validation is traced by patching ``__post_init__`` on the
class.  Calls, total time and self time are aggregated on the fly; self
time is total time minus the time covered by traced child calls, taken from
a stack of open calls.  Spans of the analysis layers are kept in memory
with their op identifier and written out when the run ends; the leaf
layers (``specfmt``, ``codes``, ``linalg``) are too frequent to keep as
spans and are only aggregated.  Per-layer times are wall time: the CPU
clock costs six times as much to read, and a traced op makes thousands of
reads.
"""

from __future__ import annotations

import importlib
import json
import sys
from time import perf_counter

# (module, name) of every traced function; "Class.init" is __post_init__.
TARGETS = (
    ("cli", "main"),
    ("specfmt", "parse_spec"),
    ("structure", "cyclic_product_decomposition"),
    ("structure", "verify_decomposition"),
    ("structure", "is_subdirect_product"),
    ("control", "control_profile"),
    ("control", "order_profile"),
    ("control", "reachable_set"),
    ("control", "controllable_subcode"),
    ("observe", "observe_profile"),
    ("observe", "consistency_set"),
    ("observe", "observable_supercode"),
    ("observe", "check_control_observe_duality"),
    ("duality", "dual_block_code"),
    ("codes", "window_internal"),
    ("codes", "window_projection"),
    ("codes", "intersect"),
    ("codes", "join"),
    ("codes", "code_from_generators"),
    ("codes", "BlockCode.init"),
    ("convolutional", "weak_controllability"),
    ("convolutional", "strong_controllability_index"),
    ("convolutional", "weak_observability"),
    ("convolutional", "window_code"),
    ("convolutional", "zero_extension_window"),
    ("convolutional", "local_window"),
    ("convolutional", "verify_window_duality"),
    ("linalg", "howell_form"),
    ("linalg", "homomorphism_kernel"),
    ("linalg", "solve_homomorphism"),
    ("linalg", "annihilator_rows"),
    ("linalg", "smith_invariants"),
    ("linalg", "coset_reduce"),
    ("linalg", "ResidueMatrix.init"),
)
SPAN_MODULES = ("cli", "structure", "control", "observe", "duality", "convolutional")


class Tracer:
    def __init__(self) -> None:
        self.stats: dict[str, list] = {}  # name -> [calls, total, self]
        self.missing: list[str] = []
        self.order_profile_words = 0
        self._open: list[float] = []  # child time accumulated per open call
        self._span_stack: list[int] = []
        self.spans: list[tuple] = []
        self.op_id = -1  # the op being run, set by the loop
        self.origin = perf_counter()

    def install(self) -> None:
        """Wrap every target; targets the program no longer has are listed
        in ``missing`` and reported as absent."""
        modules = [
            m for n, m in list(sys.modules.items())
            if n == "groupcodes" or n.startswith("groupcodes.")
        ]
        for module_name, name in TARGETS:
            module = importlib.import_module(f"groupcodes.{module_name}")
            label = f"{module_name}.{name}"
            if name.endswith(".init"):
                cls = getattr(module, name[: -len(".init")], None)
                original = getattr(cls, "__post_init__", None)
                if original is None:
                    self.missing.append(label)
                    continue
                cls.__post_init__ = self._wrap(label, original, False)
                continue
            original = getattr(module, name, None)
            if original is None:
                self.missing.append(label)
                continue
            wrapper = self._wrap(label, original, module_name in SPAN_MODULES)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)

    def _wrap(self, label: str, fn, keep_spans: bool):
        stat = self.stats.setdefault(label, [0, 0.0, 0.0])
        open_calls = self._open
        span_stack = self._span_stack
        spans = self.spans
        count_words = label == "control.order_profile"

        def traced(*args, **kwargs):
            if count_words:
                self.order_profile_words += args[0].cardinality
            if keep_spans:
                span_id = len(spans)
                parent = span_stack[-1] if span_stack else None
                span_stack.append(span_id)
                spans.append(None)
            open_calls.append(0.0)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                child = open_calls.pop()
                elapsed = end - start
                stat[0] += 1
                stat[1] += elapsed
                stat[2] += elapsed - child
                if open_calls:
                    open_calls[-1] += elapsed
                if keep_spans:
                    span_stack.pop()
                    spans[span_id] = (
                        self.op_id, span_id, parent, label,
                        start - self.origin, end - self.origin,
                    )

        traced.__wrapped__ = fn
        return traced

    def metrics(self) -> dict:
        out = {}
        for module_name, name in TARGETS:
            label = f"{module_name}.{name}"
            if label in self.missing:
                continue
            calls, total, own = self.stats[label]
            out[f"{label}.calls"] = calls
            out[f"{label}.total_s"] = total
            out[f"{label}.self_s"] = own
        if "control.order_profile" not in self.missing:
            out["control.order_profile.words"] = self.order_profile_words
        info = howell_cache_info()
        if info is not None and info.hits + info.misses:
            out["linalg.howell_cache.hit_ratio"] = info.hits / (info.hits + info.misses)
        return out

    def write_spans(self, path: str, op_spans: list[tuple]) -> None:
        """Write op spans (one per op, name "op") and analysis spans."""
        with open(path, "w", encoding="utf-8") as handle:
            for op_id, name, start, end in op_spans:
                handle.write(json.dumps(
                    {"op": op_id, "span": f"op{op_id}", "parent": None,
                     "name": name, "start_s": start, "end_s": end}) + "\n")
            for op_id, span_id, parent, label, start, end in self.spans:
                handle.write(json.dumps(
                    {"op": op_id, "span": span_id,
                     "parent": f"op{op_id}" if parent is None else parent,
                     "name": label, "start_s": start, "end_s": end}) + "\n")


def howell_cache_info():
    """``cache_info()`` of the Howell cache, or None when the program no
    longer keeps its Howell forms in an ``lru_cache``."""
    linalg = sys.modules.get("groupcodes.linalg")
    cached = getattr(linalg, "_howell_cached", None)
    info = getattr(cached, "cache_info", None)
    return info() if callable(info) else None
