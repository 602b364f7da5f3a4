"""Parsing and emission of code specification documents.

The format is line oriented and human writable.  A block code:

    kind: block
    symbols: [2] [2,4] [6]
    generator: 1 0,2 3
    generator: 0 1,0 2

A convolutional code:

    kind: convolutional
    symbol: [2,2]
    form: kernel
    tap: 1,0 0,1
    horizon: 12

Symbols are bracketed lists of cyclic moduli; per-index residue vectors are
comma separated inside an index and whitespace separated across indices.
Comments start with '#'.  ``generator`` and ``tap`` lines may repeat; every
other key is given at most once, and ``horizon`` only in a convolutional
document.  Parsing reports the offending line for syntax errors, the field
for schema errors, and the exact position for residues out of range.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, chain, repeat
from operator import mod
from typing import Optional, Sequence

from .codes import BlockCode, SequenceSpace, code_from_generators
from .convolutional import ConvolutionalCode
from .groups import FiniteAbelianGroup
from .linalg import prime_factors

__all__ = [
    "CodeSpecDocument",
    "SpecError",
    "parse_spec",
    "emit_spec",
    "document_from_block_code",
    "document_from_convolutional",
]


class SpecError(ValueError):
    """A positioned parse or validation error."""

    def __init__(self, message: str, line: Optional[int] = None, field: Optional[str] = None):
        self.line = line
        self.field = field
        prefix = ""
        if line is not None:
            prefix += f"line {line}: "
        if field is not None:
            prefix += f"field {field!r}: "
        super().__init__(prefix + message)


@dataclass(frozen=True)
class CodeSpecDocument:
    """A validated code description, either block or convolutional."""

    kind: str
    symbols: tuple[tuple[int, ...], ...] = ()
    generators: tuple[tuple[tuple[int, ...], ...], ...] = ()
    symbol: tuple[int, ...] = ()
    form: str = ""
    taps: tuple[tuple[tuple[int, ...], ...], ...] = ()
    horizon: Optional[int] = None

    def to_block_code(self) -> BlockCode:
        if self.kind != "block":
            raise SpecError("not a block code document", field="kind")
        groups = {m: FiniteAbelianGroup(m) for m in set(self.symbols)}
        space = SequenceSpace(tuple(map(groups.__getitem__, self.symbols)))
        flat = [tuple(chain.from_iterable(gen)) for gen in self.generators]
        return code_from_generators(space, flat)

    def to_convolutional(self) -> ConvolutionalCode:
        if self.kind != "convolutional":
            raise SpecError("not a convolutional code document", field="kind")
        return ConvolutionalCode(
            symbol=FiniteAbelianGroup(self.symbol),
            form=self.form,
            taps=self.taps,
            horizon=self.horizon,
        )


def _parse_bracket_group(token: str, line: int, field: str) -> tuple[int, ...]:
    if not (token.startswith("[") and token.endswith("]")):
        raise SpecError(f"expected a bracketed moduli list, got {token!r}", line, field)
    inner = token[1:-1].strip()
    if not inner:
        raise SpecError("empty moduli list", line, field)
    try:
        moduli = tuple(int(x) for x in inner.split(","))
    except ValueError:
        raise SpecError(f"moduli must be integers: {token!r}", line, field)
    if any(m < 1 for m in moduli):
        raise SpecError(f"moduli must be >= 1: {token!r}", line, field)
    for m in moduli:
        # Every analysis factors the moduli; one that cannot be factored
        # exactly is refused here, where its line is known.
        try:
            prime_factors(m)
        except ValueError as exc:
            raise SpecError(f"cannot factor modulus {m}: {exc}", line, field)
    return moduli


def _parse_vector_groups(
    value: str, symbols: Sequence[tuple[int, ...]], line: int, field: str
) -> tuple[tuple[int, ...], ...]:
    tokens = value.split()
    if len(tokens) != len(symbols):
        raise SpecError(
            f"expected {len(symbols)} index groups, got {len(tokens)}", line, field
        )
    groups = []
    for idx, (token, moduli) in enumerate(zip(tokens, symbols)):
        try:
            entries = tuple(int(x) for x in token.split(","))
        except ValueError:
            raise SpecError(f"non-integer residue in {token!r}", line, f"{field}[{idx}]")
        if len(entries) != len(moduli):
            raise SpecError(
                f"index {idx} expects {len(moduli)} residues, got {len(entries)}",
                line,
                f"{field}[{idx}]",
            )
        for pos, (e, m) in enumerate(zip(entries, moduli)):
            if not 0 <= e < m:
                raise SpecError(
                    f"residue {e} out of range for modulus {m}",
                    line,
                    f"{field}[{idx}][{pos}]",
                )
        groups.append(entries)
    return tuple(groups)


def _line_layout(symbols: Sequence[tuple[int, ...]]) -> tuple[list, list, Optional[list]]:
    """Each symbol's comma count and the flat moduli of a line over
    ``symbols``, and the slices that cut its flat entries into symbols
    (None when every symbol has one modulus: each entry is one)."""
    commas = [len(moduli) - 1 for moduli in symbols]
    flat = list(chain.from_iterable(symbols))
    if not any(commas):
        return commas, flat, None
    cuts = list(accumulate(map(len, symbols), initial=0))
    return commas, flat, list(map(slice, cuts, cuts[1:]))


def _vector_lines(
    given: Sequence[tuple[int, str]], symbols: tuple[tuple[int, ...], ...], field: str
) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """The per-index residue vectors of each ``generator`` line over
    ``symbols``, or of each ``tap`` line, ``symbols`` then the one symbol
    every step takes.  A line is accepted by one check over the whole
    line: each token's comma count against its symbol's width, ``int``
    over all its entries, and each entry against its flat modulus, by one
    ``map`` of ``mod`` (0 <= e < m exactly when e % m == e).  A line that
    fails it goes to the positioned checker (``_parse_vector_groups``),
    which accepts exactly the lines this check accepts: it raises the
    error it gives that line, and the lines are read in order, so the
    first error reported is the same."""
    tap, layouts, out = field == "tap", {}, []
    for lineno, value in given:
        tokens = value.split()
        line = symbols * len(tokens) if tap else symbols
        if len(line) not in layouts:
            layouts[len(line)] = _line_layout(line)
        commas, flat, slices = layouts[len(line)]
        if list(map(str.count, tokens, repeat(","))) == commas:
            try:
                entries = list(map(int, ",".join(tokens).split(",")))
            except ValueError:
                entries = None
            if entries is not None and list(map(mod, entries, flat)) == entries:
                if slices is None:
                    out.append(tuple(zip(entries)))
                else:
                    out.append(tuple(map(tuple(entries).__getitem__, slices)))
                continue
        out.append(_parse_vector_groups(value, line, lineno, field))
    return tuple(out)


def parse_spec(text: str) -> CodeSpecDocument:
    """Parse and validate a code specification document."""
    entries: list[tuple[int, str, str]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if ":" not in line:
            raise SpecError("expected 'key: value'", lineno)
        key, value = line.split(":", 1)
        entries.append((lineno, key.strip(), value.strip()))
    if not entries:
        raise SpecError("empty document")
    fields = {}
    for lineno, key, value in entries:
        fields.setdefault(key, []).append((lineno, value))
    single = {"kind", "symbols", "symbol", "form", "horizon"}
    for key, given in fields.items():
        if key not in single | {"generator", "tap"}:
            raise SpecError("unknown key", given[0][0], key)
        if key in single and len(given) > 1:
            raise SpecError(f"repeated; first given on line {given[0][0]}", given[1][0], key)
    if "kind" not in fields:
        raise SpecError("missing 'kind'", field="kind")
    kind_line, kind = fields["kind"][0]
    if kind not in ("block", "convolutional"):
        raise SpecError(f"kind must be block or convolutional, got {kind!r}", kind_line, "kind")

    if kind == "block":
        for forbidden in ("symbol", "form", "tap", "horizon"):
            if forbidden in fields:
                raise SpecError(
                    "not valid in a block document", fields[forbidden][0][0], forbidden
                )
        if "symbols" not in fields:
            raise SpecError("missing 'symbols'", field="symbols")
        sym_line, sym_value = fields["symbols"][0]
        parsed: dict[str, tuple[int, ...]] = {}
        for tok in sym_value.split():
            if tok not in parsed:
                parsed[tok] = _parse_bracket_group(tok, sym_line, "symbols")
        symbols = tuple(map(parsed.__getitem__, sym_value.split()))
        if not symbols:
            raise SpecError("at least one symbol group required", sym_line, "symbols")
        generators = _vector_lines(fields.get("generator", []), symbols, "generator")
        return CodeSpecDocument(kind="block", symbols=symbols, generators=generators)

    for forbidden in ("symbols", "generator"):
        if forbidden in fields:
            raise SpecError(
                "not valid in a convolutional document",
                fields[forbidden][0][0],
                forbidden,
            )
    if "symbol" not in fields:
        raise SpecError("missing 'symbol'", field="symbol")
    sym_line, sym_value = fields["symbol"][0]
    tokens = sym_value.split()
    if len(tokens) != 1:
        raise SpecError("exactly one symbol group expected", sym_line, "symbol")
    symbol = _parse_bracket_group(tokens[0], sym_line, "symbol")
    if "form" not in fields:
        raise SpecError("missing 'form'", field="form")
    form_line, form = fields["form"][0]
    if form not in ("image", "kernel"):
        raise SpecError(f"form must be image or kernel, got {form!r}", form_line, "form")
    taps = _vector_lines(fields.get("tap", []), (symbol,), "tap")
    horizon = None
    if "horizon" in fields:
        h_line, h_value = fields["horizon"][0]
        try:
            horizon = int(h_value)
        except ValueError:
            raise SpecError(f"horizon must be an integer, got {h_value!r}", h_line, "horizon")
        if horizon < 1:
            raise SpecError("horizon must be positive", h_line, "horizon")
    return CodeSpecDocument(
        kind="convolutional",
        symbol=symbol,
        form=form,
        taps=taps,
        horizon=horizon,
    )


def _moduli_token(moduli: Sequence[int]) -> str:
    return "[" + ",".join(str(m) for m in moduli) + "]"


def _vector_token(groups: Sequence[Sequence[int]]) -> str:
    return " ".join(",".join(str(e) for e in part) for part in groups)


def emit_spec(doc: CodeSpecDocument) -> str:
    """Render a document in canonical line order; parse(emit(d)) == d."""
    lines = [f"kind: {doc.kind}"]
    if doc.kind == "block":
        lines.append("symbols: " + " ".join(_moduli_token(m) for m in doc.symbols))
        for gen in doc.generators:
            lines.append("generator: " + _vector_token(gen))
    else:
        lines.append("symbol: " + _moduli_token(doc.symbol))
        lines.append(f"form: {doc.form}")
        for tap in doc.taps:
            lines.append("tap: " + _vector_token(tap))
        if doc.horizon is not None:
            lines.append(f"horizon: {doc.horizon}")
    return "\n".join(lines) + "\n"


def document_from_block_code(code: BlockCode) -> CodeSpecDocument:
    """Canonical document: generators are the Howell basis rows."""
    symbols = tuple(g.moduli for g in code.space.symbols)
    generators = tuple(
        code.space.split(row) for row in code.basis.rows
    )
    return CodeSpecDocument(kind="block", symbols=symbols, generators=generators)


def document_from_convolutional(conv: ConvolutionalCode) -> CodeSpecDocument:
    """Canonical document: taps normalized as the code stores them."""
    return CodeSpecDocument(
        kind="convolutional",
        symbol=conv.symbol.moduli,
        form=conv.form,
        taps=conv.taps,
        horizon=conv.horizon,
    )
