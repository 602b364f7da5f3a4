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
