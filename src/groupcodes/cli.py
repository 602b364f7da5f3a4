"""Command line interface.

Subcommands: analyze, dual, decompose, check, duality-check, oracle.
Exit codes: 0 when the command succeeds and any checked property holds,
1 when a property fails or a verification mismatches, 2 for usage or input
errors and for an ``oracle`` run above its bound.  Reports are byte-stable
for fixed input and flags; positions are printed in both the internal
convention (0-based, half-open) and the classical one (1-based, closed).
Each subcommand returns one report, which ``_emit`` prints and maps to
exit 0 or 1; ``main`` turns an error into exit 2.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from typing import Optional, Sequence

from . import oracle
from .codes import BlockCode, invariant_factors_of_code, window_order
from .control import control_profile, order_profile, reachable_set
from .convolutional import (
    REPORT_WINDOWS,
    ConvolutionalCode,
    _order,
    dual_convolutional,
    strong_controllability_index,
    verify_window_duality,
    weak_controllability,
    weak_observability,
    window_code,
)
from .duality import dual_block_code
from .observe import (
    _observe_index,
    check_control_observe_duality,
    consistency_set,
    observe_profile,
)
from .oracle import DEFAULT_BOUND, OracleBoundExceeded
from .specfmt import (
    CodeSpecDocument,
    SpecError,
    document_from_block_code,
    document_from_convolutional,
    emit_spec,
    parse_spec,
)
from .structure import DecompositionError, cyclic_product_decomposition

# A subcommand's report: its JSON form (None for a text-only report), its
# text, and whether it holds (exit 0, else 1).  A subcommand may build only
# the form its --format prints (``_emit``).
Report = tuple[Optional[dict], str, bool]

PROPERTIES = (
    "weak-controllable",
    "l-controllable",
    "observable",
    "rectangular",
    "subdirect",
)


def _closed_interval(start: int, stop: int) -> str:
    """Render a half-open 0-based window as a 1-based closed interval."""
    return f"[{start + 1},{stop}]"


def _load(path: str) -> CodeSpecDocument:
    """Read a spec's bytes once and parse them as UTF-8, a leading
    byte-order mark skipped.  A byte that is not UTF-8 is a SpecError on
    its line, counted as ``parse_spec`` counts lines."""
    try:
        with open(path, "rb") as handle:
            data = handle.read()
    except FileNotFoundError:
        raise SpecError(f"no such file: {path}")
    except OSError as exc:  # a directory, no permission, a read failure
        raise SpecError(f"cannot read {path}: {exc.strerror or exc}")
    try:
        text = data.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        line = len((exc.object[: exc.start].decode("utf-8") + "x").splitlines())
        raise SpecError(f"not UTF-8: byte 0x{exc.object[exc.start]:02x} cannot be decoded", line)
    return parse_spec(text)


def _analyze_block(code: BlockCode) -> dict:
    ctrl = control_profile(code)
    obs = observe_profile(code)
    order = order_profile(code)
    return {
        "kind": "block",
        "horizon": code.space.horizon,
        "symbols": [list(g.moduli) for g in code.space.symbols],
        "cardinality": code.cardinality,
        "invariant_factors": list(invariant_factors_of_code(code)),
        "control_lengths": list(ctrl.lengths),
        "control_index": ctrl.index,
        "observe_lengths": list(obs.lengths),
        "observe_index": obs.index,
        "order_bounds": list(order.bounds),
        "order_margins": list(order.margins),
        "order_uniform_margin": order.uniform_margin,
    }


def _analyze_convolutional(conv: ConvolutionalCode) -> dict:
    # The strong verdict carries the weak one: it is "not-controllable",
    # with the weak witness, exactly when weak controllability fails.
    strong = strong_controllability_index(conv)
    windows = {}
    for n in range(1, min(conv.analysis_horizon, REPORT_WINDOWS) + 1):
        windows[str(n)] = _order(conv, "code", n)
    return {
        "kind": "convolutional",
        "symbol": list(conv.symbol.moduli),
        "form": conv.form,
        "taps": [[list(step) for step in tap] for tap in conv.taps],
        "memory": conv.memory,
        "analysis_horizon": conv.analysis_horizon,
        "window_orders": windows,
        "weakly_controllable": strong.status != "not-controllable",
        "weak_witness": strong.witness,
        "strong_status": strong.status,
        "strong_index": strong.index,
    }


def _render_analysis(data: dict) -> str:
    lines = ["groupcodes analyze report"]
    if data["kind"] == "block":
        lines += [
            f"kind: block, horizon {data['horizon']} "
            f"(positions 0..{data['horizon'] - 1}, 1-based 1..{data['horizon']})",
            "symbols: " + " ".join("Z/" + "+Z/".join(str(m) for m in s) for s in data["symbols"]),
            f"cardinality: {data['cardinality']}",
            f"invariant factors: {data['invariant_factors']}",
            f"control lengths (gap [k,k+L), 0-based): {data['control_lengths']}",
            f"control index: {data['control_index']}",
            f"observe lengths (window [k,k+L] closed): {data['observe_lengths']}",
            f"observe index: {data['observe_index']}",
            f"order-split bounds n(l), l = 0..N: {data['order_bounds']}",
            f"order-split margins n(l) - l: {data['order_margins']}",
            f"uniform order margin: {data['order_uniform_margin']}",
        ]
    else:
        lines += [
            f"kind: convolutional ({data['form']} form)",
            "symbol: Z/" + "+Z/".join(str(m) for m in data["symbol"]),
            f"taps: {data['taps']}",
            f"memory: {data['memory']}",
            f"analysis horizon: {data['analysis_horizon']}",
            "window orders: "
            + ", ".join(f"n={n}: {v}" for n, v in sorted(data["window_orders"].items(), key=lambda kv: int(kv[0]))),
            f"weakly controllable: {'yes' if data['weakly_controllable'] else 'no'}"
            + (
                f" (witness window {data['weak_witness']})"
                if data["weak_witness"] is not None
                else ""
            ),
            f"strong controllability: {data['strong_status']}"
            + (
                f", index {data['strong_index']}"
                if data["strong_index"] is not None
                else ""
            ),
        ]
    return "\n".join(lines) + "\n"


def _cmd_analyze(args) -> Report:
    doc = _load(args.spec)
    data = (
        _analyze_block(doc.to_block_code())
        if doc.kind == "block"
        else _analyze_convolutional(doc.to_convolutional())
    )
    return data, _render_analysis(data), True


def _cmd_dual(args) -> Report:
    doc = _load(args.spec)
    if doc.kind == "block":
        dual_doc = document_from_block_code(dual_block_code(doc.to_block_code()))
    else:
        dual_doc = document_from_convolutional(dual_convolutional(doc.to_convolutional()))
    text = emit_spec(dual_doc)
    return {"kind": dual_doc.kind, "document": text}, text, True


def _cmd_decompose(args) -> Report:
    doc = _load(args.spec)
    if doc.kind != "block":
        raise SpecError("decompose expects a block code document", field="kind")
    code = doc.to_block_code()
    try:
        decomposition = cyclic_product_decomposition(code)
    except DecompositionError as exc:
        return None, f"decomposition failed: {exc}\n", False
    # A verified decomposition recombines to the code: subdirect = verified.
    cert = decomposition.certificate
    data = {
        "generators": [
            {
                "word": list(g.word),
                "window": [g.start, g.stop],
                "window_1based_closed": _closed_interval(g.start, g.stop),
                "order": g.order,
                "prime": g.prime,
            }
            for g in decomposition.generators
        ],
        "order_product": decomposition.order_product,
        "cardinality": code.cardinality,
        "verified": cert.ok,
        "subdirect": cert.ok,
    }
    lines = ["groupcodes decomposition report"]
    for i, g in enumerate(data["generators"], start=1):
        lines.append(
            f"y_{i} = {g['word']} on window [{g['window'][0]},{g['window'][1]}) "
            f"(1-based closed {g['window_1based_closed']}), order {g['order']}"
            + (f", prime {g['prime']}" if g["prime"] is not None else "")
        )
    lines.append(
        f"order product {data['order_product']} vs cardinality {data['cardinality']}"
    )
    lines.append("certificate:")
    lines.extend("  " + ln for ln in cert.render().splitlines())
    lines.append(f"subdirect: {'yes' if data['subdirect'] else 'no'}")
    return data, "\n".join(lines) + "\n", cert.ok


def _check_block(code: BlockCode, prop: str, level: Optional[int]) -> tuple[bool, str]:
    if prop == "l-controllable":
        profile = control_profile(code)
        return (
            profile.is_l_controllable(level),
            f"control index {profile.index} vs requested level {level}",
        )
    if prop == "observable":
        index = _observe_index(code)
        if level is None:
            return True, f"observe index {index} (finite horizon)"
        return level >= index, f"observe index {index} vs requested level {level}"
    if prop == "rectangular":
        # The single-position windows C ∩ [i, i+1) sum directly inside C, so
        # C is their product exactly when their orders multiply to |C|.
        N, order = code.space.horizon, code.cardinality
        windows = math.prod(window_order(code, i, i + 1) for i in range(N))
        if windows == order:
            return True, "coordinatewise product verified"
        return False, f"|C| = {order} but the single-position windows multiply to {windows}"
    if prop == "subdirect":
        try:
            decomposition = cyclic_product_decomposition(code)
        except DecompositionError as exc:
            return False, f"decomposition failed: {exc}"
        return decomposition.certificate.ok, "factors recombine to the code"
    if prop == "weak-controllable":
        return True, "finite horizon: every block code is its finite-support part"
    raise SpecError(f"property {prop!r} not available for block codes", field="property")


def _check_convolutional(
    conv: ConvolutionalCode, prop: str, level: Optional[int]
) -> tuple[bool, str]:
    if prop == "weak-controllable":
        verdict = weak_controllability(conv)
        return verdict.holds, verdict.render()
    if prop == "l-controllable":
        verdict = strong_controllability_index(conv)
        if not verdict.is_finite:
            return False, verdict.render()
        return verdict.index <= level, verdict.render()
    if prop == "observable":
        verdict = weak_observability(conv)
        return verdict.holds, verdict.render().replace("controllable", "observable")
    raise SpecError(
        f"property {prop!r} not available for convolutional codes", field="property"
    )


def _cmd_check(args) -> Report:
    if args.level is not None and args.level < 0:
        raise SpecError(f"level must be at least 0, got {args.level}", field="level")
    doc = _load(args.spec)
    block = doc.kind == "block"
    code = doc.to_block_code() if block else doc.to_convolutional()
    if args.property == "l-controllable" and args.level is None:
        raise SpecError("l-controllable needs --level", field="level")
    check = _check_block if block else _check_convolutional
    holds, detail = check(code, args.property, args.level)
    verdict = "holds" if holds else "fails"
    return None, f"property {args.property}: {verdict}\n{detail}\n", holds


def _cmd_duality_check(args) -> Report:
    """The duality report of a block or convolutional spec.  ``_emit``
    prints one form of it, so the JSON form is built only under
    ``--format json`` and the text only otherwise."""
    doc = _load(args.spec)
    as_json = args.format == "json"
    if doc.kind == "block":
        report = check_control_observe_duality(doc.to_block_code())
        ok = report.ok
        if not as_json:
            return None, report.render() + "\n", ok
        data = {
            "ok": ok,
            "control_index": report.control_index,
            "dual_observe_index": report.dual_observe_index,
            "observe_index": report.observe_index,
            "dual_control_index": report.dual_control_index,
            "indices_match": report.indices_match,
            "windows": [
                {"start": w.start, "stop": w.stop, "ok": w.ok}
                for w in report.window_checks
            ],
            "matched": [
                {
                    "gap": m.gap,
                    "subcode_dual_factors": list(m.subcode_dual_factors),
                    "supercode_factors": list(m.supercode_factors),
                    "ok": m.ok,
                }
                for m in report.matched_checks
            ],
        }
        return data, "", ok
    conv = doc.to_convolutional()
    results = []
    for n in range(1, min(conv.analysis_horizon, REPORT_WINDOWS) + 1):
        results.append((n, verify_window_duality(conv, n)))
    ctrl = weak_controllability(conv)
    obs = weak_observability(dual_convolutional(conv))
    verdict_match = ctrl.holds == obs.holds
    ok = verdict_match and all(good for _, good in results)
    if as_json:
        data = {
            "ok": ok,
            "verdict_match": verdict_match,
            "windows": [{"n": n, "ok": good} for n, good in results],
        }
        return data, "", ok
    lines = ["convolutional duality report"]
    for n, good in results:
        lines.append(
            f"window [0,{n}): annihilator of window equals zero-extension "
            f"window of dual: {'yes' if good else 'NO'}"
        )
    lines.append(
        f"weak controllability of code vs weak observability of dual: "
        f"{'match' if verdict_match else 'MISMATCH'}"
    )
    lines.append(f"verdict: {'pass' if ok else 'FAIL'}")
    return None, "\n".join(lines) + "\n", ok


def _cmd_oracle(args) -> Report:
    if args.bound < 0:
        raise SpecError(f"bound must be at least 0, got {args.bound}", field="bound")
    doc = _load(args.spec)
    if doc.kind == "block":
        code = doc.to_block_code()
        codes = [("code", code)]
    else:
        conv = doc.to_convolutional()
        codes = [
            (f"window [0,{n})", window_code(conv, n))
            for n in range(1, min(conv.analysis_horizon, 4) + 1)
        ]
    # One code above the bound refuses the report before any check runs.
    for _, code in codes:
        oracle.check_bound(code, args.bound)
    all_ok = True
    lines = ["oracle cross-check report"]
    for label, code in codes:
        for name, ok in _oracle_checks(code, args.bound):
            if ok is None:
                ambient = code.space.cardinality
                outcome = f"skipped (ambient {ambient} exceeds the oracle bound {args.bound})"
            else:
                all_ok = all_ok and ok
                outcome = "agree" if ok else "DISAGREE"
            lines.append(f"{label} :: {name}: {outcome}")
    lines.append(f"verdict: {'pass' if all_ok else 'FAIL'}")
    return None, "\n".join(lines) + "\n", all_ok


def _oracle_checks(code: BlockCode, bound: int) -> list[tuple[str, bool | None]]:
    """(name, agrees) per check of a code within the bound; None for a
    check over the whole ambient space, skipped above it.  The code is
    enumerated once, and every brute-force twin reads that list.

    Every subgroup twin is decided by one rule: an engine code E agrees
    with a brute list B of distinct words when |E| = |B| and each row of
    E's Howell basis is a word of B.  Each B lists a subgroup: a reachable
    set and the annihilator by their definitions over the closed
    enumeration, a consistency set as the preimage of a window projection.
    So B holds the span of those rows, which is E, and the verdict is that
    of testing every word of B in E; no word of B goes through the engine's
    reducer.  Each consistency window [k, min(k + L + 1, N)) is checked
    once: L runs up to N - k - 1, where the window reaches the horizon."""
    enum = oracle.enumerate_code(code, bound)
    N = code.space.horizon
    reachable = all(
        _agrees(reachable_set(code, k, L), oracle.brute_reachable_set(enum, k, L))
        for k in range(N)
        for L in range(N - k + 1)
    )
    checks = [("reachable sets", reachable)]
    if code.space.cardinality <= bound:
        consistent = all(
            _agrees(consistency_set(code, k, L), oracle.brute_consistency_set(enum, k, L, bound))
            for k in range(N)
            for L in range(N - k)
        )
        annihilator = _agrees(dual_block_code(code), oracle.brute_annihilator(enum, bound))
        checks += [("consistency sets", consistent), ("annihilator", annihilator)]
    else:
        checks += [("consistency sets", None), ("annihilator", None)]
    order = order_profile(code).bounds == oracle.brute_order_profile(enum)
    factors = invariant_factors_of_code(code) == oracle.brute_smith_invariants(enum)
    checks += [("order profile", order), ("invariant factors", factors)]
    try:
        decomposition = cyclic_product_decomposition(code)
        ok_main = decomposition.certificate.ok
        pairs = [(g.word, g.order) for g in decomposition.generators]
        ok_brute = oracle.brute_verify_decomposition(enum, pairs)
        checks.append(("decomposition verification", ok_main and ok_brute))
    except DecompositionError:
        checks.append(("decomposition verification", False))
    return checks


def _agrees(engine: BlockCode, brute: Sequence) -> bool:
    """Whether an engine code is the subgroup a brute list of distinct
    words lists (``_oracle_checks``): as many words, and each Howell row
    among them."""
    return engine.cardinality == len(brute) and not set(engine.basis.rows).difference(brute)


# name: (handler, help, --format choices with the default first)
TEXT_JSON = ("text", "json")
COMMANDS = {
    "analyze": (_cmd_analyze, "cardinality, factors and profiles", TEXT_JSON),
    "dual": (_cmd_dual, "emit the dual code document", ("spec", "json")),
    "decompose": (_cmd_decompose, "cyclic product decomposition", TEXT_JSON),
    "check": (_cmd_check, "named property verdicts", ()),
    "duality-check": (_cmd_duality_check, "control/observe duality report", TEXT_JSON),
    "oracle": (_cmd_oracle, "cross-check against brute force", ()),
}
# The options a subcommand takes besides its spec and --format.
EXTRAS = {
    "check": (
        ("--property", {"required": True, "choices": PROPERTIES}),
        ("--level", {"type": int, "default": None}),
    ),
    "oracle": (("--bound", {"type": int, "default": DEFAULT_BOUND}),),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="groupcodes",
        description="Exact analysis of block and convolutional codes over "
        "finite abelian groups.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (fn, help_text, formats) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("spec")
        if formats:
            p.add_argument("--format", choices=formats, default=formats[0])
        for flag, options in EXTRAS.get(name, ()):
            p.add_argument(flag, **options)
        p.set_defaults(fn=fn)
    return parser


def _emit(args, data: Optional[dict], text: str, ok: bool) -> int:
    """Print one report and map whether it holds to exit 0 or 1.

    ``data`` is the JSON form, printed under ``--format json``; a report
    without one (``check``, ``oracle``, a failed decomposition) prints its
    text under every format.  ``json`` is imported here, on the first
    JSON report, so a text command never loads it.
    """
    if data is not None and args.format == "json":
        import json

        print(json.dumps(data, sort_keys=True, indent=2))
    else:
        sys.stdout.write(text)
    return 0 if ok else 1


@functools.cache
def _plain_namespaces() -> dict[str, dict]:
    """Per command without a required option, the namespace argparse
    builds for ``COMMAND SPEC``, as a dict with an empty spec."""
    return {
        name: vars(build_parser().parse_args([name, ""]))
        for name in COMMANDS
        if not any(options.get("required") for _, options in EXTRAS.get(name, ()))
    }


def _arguments(argv: Optional[Sequence[str]] = None) -> argparse.Namespace:
    """The parsed command line (``sys.argv[1:]`` when None).  A line that
    is exactly ``COMMAND SPEC``, with a spec not starting with ``-``,
    takes argparse's namespace for that command (``_plain_namespaces``)
    with no parse; every other line, ``-h`` and every usage error go
    through ``build_parser().parse_args``."""
    if argv is None:
        argv = sys.argv[1:]
    if len(argv) == 2 and all(isinstance(arg, str) for arg in argv):
        name, spec = argv
        template = _plain_namespaces().get(name)
        if template is not None and not spec.startswith("-"):
            return argparse.Namespace(**{**template, "spec": spec})
    return build_parser().parse_args(argv)


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run one command line: ``_arguments`` reads it, the command's
    handler builds its report, ``_emit`` prints it and gives exit 0 or 1,
    and an input error exits 2 with one ``error:`` line."""
    args = _arguments(argv)
    try:
        return _emit(args, *args.fn(args))
    except (ValueError, OracleBoundExceeded) as exc:  # SpecError included
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
