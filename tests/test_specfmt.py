"""Tests for the code specification document format."""

import pytest

from groupcodes.specfmt import (
    SpecError,
    document_from_block_code,
    emit_spec,
    parse_spec,
)

EVEN_WEIGHT = """\
kind: block
symbols: [2] [2] [2]
generator: 1 1 0
generator: 0 1 1
"""

CONSTANT = """\
kind: convolutional
symbol: [2]
form: kernel
tap: 1 1
"""


class TestParse:
    def test_block_document(self):
        doc = parse_spec(EVEN_WEIGHT)
        assert doc.kind == "block"
        assert doc.symbols == ((2,), (2,), (2,))
        assert doc.generators == (((1,), (1,), (0,)), ((0,), (1,), (1,)))
        code = doc.to_block_code()
        assert code.cardinality == 4

    def test_convolutional_document(self):
        doc = parse_spec(CONSTANT)
        assert doc.kind == "convolutional"
        assert doc.form == "kernel"
        conv = doc.to_convolutional()
        assert conv.taps == (((1,), (1,)),)

    def test_comments_and_blank_lines(self):
        text = "# heading\n\nkind: block\nsymbols: [3]\ngenerator: 2  # inline\n"
        doc = parse_spec(text)
        assert doc.generators == (((2,),),)

    def test_multi_modulus_symbols(self):
        text = "kind: block\nsymbols: [2,4] [2,4]\ngenerator: 1,2 0,3\n"
        doc = parse_spec(text)
        assert doc.symbols == ((2, 4), (2, 4))
        assert doc.to_block_code().contains((1, 2, 0, 3))

    def test_out_of_range_residue(self):
        text = "kind: block\nsymbols: [2] [2]\ngenerator: 2 0\n"
        with pytest.raises(SpecError) as info:
            parse_spec(text)
        assert info.value.line == 3
        assert "out of range" in str(info.value)

    def test_syntax_error_has_line(self):
        with pytest.raises(SpecError) as info:
            parse_spec("kind: block\nsymbols [2]\n")
        assert info.value.line == 2

    def test_schema_error_has_field(self):
        with pytest.raises(SpecError) as info:
            parse_spec("kind: block\nsymbols: [2]\nform: image\n")
        assert info.value.field == "form"

    def test_missing_kind(self):
        with pytest.raises(SpecError):
            parse_spec("symbols: [2]\n")

    def test_bad_horizon(self):
        text = "kind: convolutional\nsymbol: [2]\nform: image\nhorizon: soon\n"
        with pytest.raises(SpecError) as info:
            parse_spec(text)
        assert info.value.field == "horizon"

    def test_wrong_group_count_in_generator(self):
        text = "kind: block\nsymbols: [2] [2]\ngenerator: 1\n"
        with pytest.raises(SpecError) as info:
            parse_spec(text)
        assert info.value.line == 3

    @pytest.mark.parametrize(
        "text, key",
        [
            ("kind: block\nkind: block\nsymbols: [2]\n", "kind"),
            (EVEN_WEIGHT.replace("generator: 0 1 1", "symbols: [2] [2]"), "symbols"),
            (CONSTANT.replace("tap: 1 1", "symbol: [4]"), "symbol"),
            (CONSTANT.replace("tap: 1 1", "form: kernel"), "form"),
            (CONSTANT.replace("tap: 1 1", "horizon: 4\nhorizon: 5"), "horizon"),
        ],
        ids=["kind", "symbols", "symbol", "form", "horizon"],
    )
    def test_repeated_single_valued_key(self, text, key):
        # The second line is refused, not silently dropped.
        second = [i for i, line in enumerate(text.splitlines(), 1) if line.startswith(key + ":")]
        with pytest.raises(SpecError) as info:
            parse_spec(text)
        assert (info.value.line, info.value.field) == (second[1], key)
        assert f"first given on line {second[0]}" in str(info.value)

    def test_repeated_generators_and_taps_are_kept(self):
        assert len(parse_spec(EVEN_WEIGHT).generators) == 2
        assert len(parse_spec(CONSTANT + "tap: 1 0 1\n").taps) == 2

    def test_horizon_in_block_document(self):
        with pytest.raises(SpecError) as info:
            parse_spec("kind: block\nsymbols: [2] [2]\nhorizon: 3\n")
        assert (info.value.line, info.value.field) == (3, "horizon")


class TestEmit:
    def test_round_trip_identity(self):
        for text in (EVEN_WEIGHT, CONSTANT):
            doc = parse_spec(text)
            assert parse_spec(emit_spec(doc)) == doc

    def test_canonical_block_document_round_trip(self):
        doc = parse_spec(EVEN_WEIGHT)
        canonical = document_from_block_code(doc.to_block_code())
        emitted = emit_spec(canonical)
        assert parse_spec(emitted) == canonical
        # Canonicalization is idempotent through the code.
        again = document_from_block_code(canonical.to_block_code())
        assert emit_spec(again) == emitted


def parse_outcome(parse, text):
    """("doc", document) or ("error", message, line, field) of one parse."""
    try:
        return ("doc", parse(text))
    except SpecError as exc:
        return ("error", str(exc), exc.line, exc.field)


def spec_texts():
    """Every spec of the three benchmark pools at seeds 7 and 11, and the
    golden and demo specs."""
    from pathlib import Path

    from . import report_digest

    root = Path(__file__).resolve().parents[1]
    texts = [
        spec.text
        for workload in ("block-codes", "long-horizon", "convolutional")
        for seed in (7, 11)
        for spec in report_digest.pool(workload, seed, None)
    ]
    for folder in (root / "demos" / "specs", root / "tests" / "golden" / "specs"):
        texts += [path.read_text(encoding="utf-8") for path in sorted(folder.glob("*.spec"))]
    return texts


MALFORMED_SOURCES = (
    EVEN_WEIGHT,
    """\
kind: block
symbols: [2,4] [6] [2,4] [9]
generator: 1,3 5 0,2 8
generator: 0,1 0 1,0 4
""",
    CONSTANT,
    """\
kind: convolutional
symbol: [2,4]
form: image
tap: 1,2 0,3 1,1
tap: 0,1 1,0
horizon: 9
""",
)


def token_mutations(token, moduli):
    """Malformed variants of one vector token over ``moduli``, each with
    the reason the checker sees: a non-integer entry, an empty entry, a
    negative and an out-of-range residue, one entry too many and one too
    few, and (as lists of tokens) one token too many and one too few."""
    entries = token.split(",")
    variants = []
    for pos, m in enumerate(moduli):
        for bad in ("x", "", "-1", str(m)):
            variants.append([",".join(entries[:pos] + [bad] + entries[pos + 1 :])])
    variants.append([token + ",0"])
    variants.append([",".join(entries[:-1])] if len(entries) > 1 else [])
    variants.append([token, token])
    variants.append([])
    return variants


def malformed_corpus():
    """Each source spec with one token of one generator or tap line
    replaced by each of its ``token_mutations``, the empty entry ``1,,2``
    written between two residues, and the last entry of a token moved to
    the front of the next one (the line keeps its number of entries)."""
    out = []
    for text in MALFORMED_SOURCES:
        doc = parse_spec(text)
        lines = text.splitlines()
        for i, line in enumerate(lines):
            key, _, value = line.partition(":")
            if key not in ("generator", "tap"):
                continue
            tokens = value.split()
            symbols = doc.symbols if key == "generator" else (doc.symbol,) * len(tokens)
            for t, (token, moduli) in enumerate(zip(tokens, symbols)):
                variants = token_mutations(token, moduli)
                variants.append([token.replace(",", ",,", 1) if "," in token else f"{token},,0"])
                for variant in variants:
                    mutated = " ".join(tokens[:t] + variant + tokens[t + 1 :])
                    out.append("\n".join(lines[:i] + [f"{key}: {mutated}"] + lines[i + 1 :]))
                if "," in token and t + 1 < len(tokens):
                    head, _, last = token.rpartition(",")
                    moved = tokens[:t] + [head, f"{last},{tokens[t + 1]}"] + tokens[t + 2 :]
                    mutated = " ".join(moved)
                    out.append("\n".join(lines[:i] + [f"{key}: {mutated}"] + lines[i + 1 :]))
    return out


class TestOnePassParserTwin:
    """``parse_spec`` against the line-by-line parser it replaced
    (``kernel_references.line_by_line_parse_spec``): equal documents on
    every spec the pools, goldens and demos hold, and byte-identical
    ``SpecError`` text, line and field on a malformed corpus."""

    def test_every_pool_golden_and_demo_spec(self):
        from .kernel_references import line_by_line_parse_spec

        texts = spec_texts()
        assert len(texts) > 1000
        for text in texts:
            doc = parse_spec(text)
            assert doc == line_by_line_parse_spec(text)
            assert repr(doc) == repr(line_by_line_parse_spec(text))

    @pytest.mark.parametrize(
        "text",
        [
            CONSTANT.replace("tap: 1 1", "tap:"),
            CONSTANT.replace("tap: 1 1", "tap: 1 1\ntap:   "),
        ],
    )
    def test_empty_tap_line_is_accepted(self, text):
        from .kernel_references import line_by_line_parse_spec

        doc = parse_spec(text)
        assert doc == line_by_line_parse_spec(text)
        assert () in doc.taps

    def test_malformed_corpus_errors_are_identical(self):
        from .kernel_references import line_by_line_parse_spec

        corpus = malformed_corpus()
        errors = 0
        for text in corpus:
            outcome = parse_outcome(parse_spec, text)
            assert outcome == parse_outcome(line_by_line_parse_spec, text), text
            errors += outcome[0] == "error"
        # Every mutation of a block line is an error; a tap line may lose
        # or gain a step and stay valid.
        assert len(corpus) == 232 and errors == 214

    def test_first_failing_line_is_reported(self):
        from .kernel_references import line_by_line_parse_spec

        text = EVEN_WEIGHT + "generator: 1 2 0\ngenerator: 1 x 0\n"
        outcome = parse_outcome(parse_spec, text)
        assert outcome == parse_outcome(line_by_line_parse_spec, text)
        assert outcome[1:] == (
            "line 5: field 'generator[1][0]': residue 2 out of range for modulus 2",
            5,
            "generator[1][0]",
        )

    def test_repeated_symbol_tokens_are_parsed_once(self, monkeypatch):
        import groupcodes.specfmt as specfmt_module

        calls = []
        parse_group = specfmt_module._parse_bracket_group

        def counted(token, line, field):
            calls.append(token)
            return parse_group(token, line, field)

        monkeypatch.setattr(specfmt_module, "_parse_bracket_group", counted)
        doc = parse_spec("kind: block\nsymbols: [4] [2,2] [4] [4] [2,2]\n")
        assert calls == ["[4]", "[2,2]"]
        assert doc.symbols == ((4,), (2, 2), (4,), (4,), (2, 2))
        built = []
        group = specfmt_module.FiniteAbelianGroup

        def counted_group(moduli):
            built.append(moduli)
            return group(moduli)

        monkeypatch.setattr(specfmt_module, "FiniteAbelianGroup", counted_group)
        groups = doc.to_block_code().space.symbols
        assert sorted(built) == [(2, 2), (4,)]
        assert groups[0] is groups[2] is groups[3] and groups[1] is groups[4]
