"""JSON interchange: canonical bytes, round trips, rejection paths."""

from __future__ import annotations

import json

import pytest

from sunurd import (
    CycleFactorization,
    Decomposition,
    DocumentFormatError,
    HostGraph,
    ParamTuple,
    build,
    canonical_decomposition,
    cycle_factorization_minus_f,
    dumps_document,
    from_document,
    loads_document,
    to_document,
    urd12_h3,
    verify,
)


class TestRoundTrip:
    def test_parse_serialize_identity_on_canonical(self):
        dec = canonical_decomposition(urd12_h3((3, 4)))
        doc = to_document(dec, h=3)
        assert from_document(doc).payload == dec

    def test_text_round_trip_reverifies(self):
        dec = build(ParamTuple(10, 5, 1, 4))
        text = dumps_document(dec, h=5)
        parsed = loads_document(text)
        report = verify(parsed.payload, expected_h=parsed.h)
        assert report.passed and (report.r, report.s) == (1, 4)
        assert dumps_document(parsed.payload, h=parsed.h) == text

    def test_byte_stability(self):
        a = dumps_document(urd12_h3((7, 2)), h=3)
        b = dumps_document(urd12_h3((7, 2)), h=3)
        assert a == b

    def test_minus_f_host_round_trip(self):
        cf = cycle_factorization_minus_f(8, 4)
        parsed = loads_document(dumps_document(cf))
        assert isinstance(parsed.payload, CycleFactorization)
        assert parsed.payload.host == cf.host
        assert parsed.payload.classes == cf.classes

    def test_blown_cycle_host_round_trip(self):
        from sunurd import UrgddKind, urgdd_ch2

        frag = urgdd_ch2(4, UrgddKind.ZERO_TWO)
        parsed = loads_document(dumps_document(frag, h=4))
        assert parsed.payload == canonical_decomposition(frag)
        assert verify(parsed.payload, expected_h=4).passed


class TestDocumentShape:
    def test_field_order_fixed(self):
        doc = to_document(urd12_h3((3, 4)), h=3)
        assert list(doc) == ["format_version", "host", "h", "classes"]
        assert doc["format_version"] == "1"

    def test_sun_blocks_sorted_within_class(self):
        doc = to_document(urd12_h3((3, 4)), h=3)
        for cls in doc["classes"]:
            if cls["type"] == "sun_factor":
                cycles = [s["cycle"] for s in cls["suns"]]
                assert cycles == sorted(cycles)
            else:
                assert cls["edges"] == sorted(cls["edges"])

    def test_seed_document_carries_source(self):
        cf = cycle_factorization_minus_f(8, 4)
        doc = to_document(cf)
        assert doc["source"] == "quotient:B"
        assert all(c["type"] == "cycle_factor" for c in doc["classes"])

    def test_h_required_for_pure_matching_documents(self):
        from sunurd import one_factorization

        dec = Decomposition(
            HostGraph.complete(4), tuple(one_factorization(range(4)))
        )
        with pytest.raises(ValueError):
            to_document(dec)
        assert to_document(dec, h=3)["h"] == 3

    @pytest.mark.parametrize("h", ["x", True, "3", 3.5])
    def test_h_that_is_not_an_int_rejected(self, h):
        # "x" and True were written as text that is not JSON, "3" as the int
        # 3, and 3.5 as a document the reader rejects.
        with pytest.raises(ValueError, match="h must be an int"):
            dumps_document(build(ParamTuple(12, 3, 3, 4)), h=h)

    def test_payload_that_is_not_a_record_rejected(self):
        with pytest.raises(TypeError) as exc_info:
            dumps_document(5)
        assert str(exc_info.value) == "cannot serialize int"


class TestRejection:
    def test_bad_json(self):
        with pytest.raises(DocumentFormatError):
            loads_document("{oops")

    def test_unknown_version(self):
        doc = to_document(urd12_h3((3, 4)), h=3)
        doc["format_version"] = "2"
        with pytest.raises(DocumentFormatError):
            from_document(doc)

    def test_unknown_class_type(self):
        doc = to_document(urd12_h3((3, 4)), h=3)
        doc["classes"][0] = {"type": "star_factor", "stars": []}
        with pytest.raises(DocumentFormatError):
            from_document(doc)

    def test_unhashable_class_type(self):
        doc = to_document(urd12_h3((3, 4)), h=3)
        doc["classes"][0]["type"] = ["sun_factor"]
        with pytest.raises(DocumentFormatError):
            from_document(doc)

    def test_unknown_host_kind(self):
        doc = to_document(urd12_h3((3, 4)), h=3)
        doc["host"] = {"kind": "torus", "v": 12}
        with pytest.raises(DocumentFormatError):
            from_document(doc)

    def test_mixing_cycle_factor_with_design_classes(self):
        doc = to_document(cycle_factorization_minus_f(8, 4))
        doc["classes"].append({"type": "one_factor", "edges": [[0, 1]]})
        with pytest.raises(DocumentFormatError):
            from_document(doc)

    def test_non_integer_vertices(self):
        text = json.dumps(
            {
                "format_version": "1",
                "host": {"kind": "complete", "v": 4},
                "h": 3,
                "classes": [{"type": "one_factor", "edges": [["a", 1]]}],
            }
        )
        with pytest.raises(DocumentFormatError):
            loads_document(text)
