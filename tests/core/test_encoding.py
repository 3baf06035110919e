"""PBIO-style binary encoding: formats, roundtrips, self-description."""

import hashlib

import pytest
from hypothesis import given, strategies as st

from repro.core.encoding import (
    FormatRegistry,
    FrameDecoder,
    RecordView,
    _PACK_CHUNK,
    decode_frame,
    encode_frame,
    encode_text,
)

FIELDS = (
    ("id", "u32"),
    ("value", "f64"),
    ("count", "i64"),
    ("port", "u16"),
    ("flag", "bool"),
    ("name", "str12"),
)


def _registry():
    registry = FormatRegistry()
    return registry, registry.register("test.record", FIELDS)


def _roundtrip(registry, fmt, records):
    """Encode dict records as one frame; decode back to dicts."""
    decoded_fmt, rows = decode_frame(registry, encode_frame(fmt, records))
    return decoded_fmt, [decoded_fmt.row_to_dict(row) for row in rows]


def test_roundtrip_single_record():
    registry, fmt = _registry()
    record = {"id": 7, "value": 3.25, "count": -9, "port": 8080,
              "flag": True, "name": "hello"}
    decoded_fmt, records = _roundtrip(registry, fmt, [record])
    assert decoded_fmt is fmt
    assert records == [record]


def test_roundtrip_many_records():
    registry, fmt = _registry()
    originals = [
        {"id": i, "value": i * 1.5, "count": i - 50, "port": i % 65536,
         "flag": bool(i % 2), "name": "r{}".format(i)}
        for i in range(100)
    ]
    _, decoded = _roundtrip(registry, fmt, originals)
    assert decoded == originals


def test_string_truncation_and_padding():
    registry, fmt = _registry()
    record = {"id": 1, "value": 0.0, "count": 0, "port": 0, "flag": False,
              "name": "much-longer-than-twelve-bytes"}
    _, decoded = _roundtrip(registry, fmt, [record])
    assert decoded[0]["name"] == "much-longer-"


def test_multibyte_truncation_at_codepoint_boundary():
    """Truncation must not cut a multibyte character mid-sequence.

    "a" + six "é" is 13 UTF-8 bytes with the sixth "é" spanning bytes
    11-12; a blind ``data[:12]`` cut would keep its lead byte and the
    decoder could only render U+FFFD.  Regression test for the ``strN``
    fix: the whole straddling character is dropped instead.
    """
    registry, fmt = _registry()
    record = {"id": 1, "value": 0.0, "count": 0, "port": 0, "flag": False,
              "name": "a" + "é" * 6}
    _, decoded = _roundtrip(registry, fmt, [record])
    assert decoded[0]["name"] == "a" + "é" * 5
    assert "�" not in decoded[0]["name"]


def test_truncation_of_wide_codepoints():
    # Four-byte emoji starting at byte 10 straddles the 12-byte width:
    # it must be dropped whole, not split after two bytes.
    registry, fmt = _registry()
    record = {"id": 1, "value": 0.0, "count": 0, "port": 0, "flag": False,
              "name": "ab" + "\U0001f600" * 4}
    _, decoded = _roundtrip(registry, fmt, [record])
    assert decoded[0]["name"] == "ab" + "\U0001f600" * 2
    assert "�" not in decoded[0]["name"]


def test_empty_record_list():
    """An empty batch is a bare 8-byte header that still counts as a frame."""
    _, fmt = _registry()
    blob = encode_frame(fmt, [])
    assert len(blob) == 8
    decoder = FrameDecoder()
    decoder.feed_descriptor(fmt.describe())
    assert decoder.feed(blob)[1] == []
    assert decoder.stats() == {"frames_decoded": 1, "records_decoded": 0}


def test_record_size_fixed():
    _, fmt = _registry()
    assert fmt.record_size == 4 + 8 + 8 + 2 + 1 + 12


def test_bad_magic_rejected():
    """Byte-swapped or off-by-one magics are not frames."""
    registry, fmt = _registry()
    blob = encode_frame(fmt, [])
    for magic in (blob[1::-1], bytes([blob[0] ^ 1, blob[1]])):
        with pytest.raises(ValueError, match="magic"):
            decode_frame(registry, magic + blob[2:])


def test_truncated_blob_rejected():
    """Input shorter than a header raises ValueError, not struct.error."""
    registry, fmt = _registry()
    frame = encode_frame(fmt, [])
    for cut in range(len(frame)):
        with pytest.raises(ValueError, match="short frame"):
            decode_frame(registry, frame[:cut])
    with pytest.raises(ValueError, match="short frame"):
        FrameDecoder(registry).feed(b"\x0f\xb1\x01")
    descriptor = fmt.describe()
    for cut in range(4):
        with pytest.raises(ValueError, match="short format descriptor"):
            FormatRegistry().adopt(descriptor[:cut])


def test_garbled_descriptor_rejected():
    _, fmt = _registry()
    descriptor = fmt.describe()
    garbled = [
        descriptor[:-1],  # body cut short
        descriptor + b"x",  # trailing bytes past the declared body
        descriptor[:4] + b"\xff" * (len(descriptor) - 4),  # not UTF-8
        descriptor.replace(b"f64", b"f65"),  # unknown field type
        descriptor.replace(b"str12", b"strxy"),  # unparsable width
    ]
    for blob in garbled:
        with pytest.raises(ValueError):
            FrameDecoder().feed_descriptor(blob)


def test_self_describing_adopt():
    """A decoder that never saw the format learns it from the descriptor."""
    _, fmt = _registry()
    fresh = FormatRegistry()
    adopted = fresh.adopt(fmt.describe())
    assert adopted.fields == fmt.fields
    assert adopted.format_id == fmt.format_id
    record = {"id": 3, "value": 1.0, "count": 2, "port": 1, "flag": True, "name": "ok"}
    _, rows = decode_frame(fresh, encode_frame(fmt, [record]))
    assert [adopted.row_to_dict(row) for row in rows] == [record]


def test_register_is_idempotent():
    registry = FormatRegistry()
    first = registry.register("f", FIELDS)
    second = registry.register("f", FIELDS)
    assert first is second


def test_conflicting_reregistration_rejected():
    registry = FormatRegistry()
    registry.register("f", FIELDS)
    with pytest.raises(ValueError):
        registry.register("f", (("other", "u32"),))


def test_unknown_field_type_rejected():
    registry = FormatRegistry()
    with pytest.raises(ValueError):
        registry.register("bad", (("x", "float128"),))


def test_binary_much_smaller_than_text():
    _, fmt = _registry()
    records = [
        {"id": i, "value": 1.0, "count": 2, "port": 3, "flag": False, "name": "n"}
        for i in range(50)
    ]
    binary = encode_frame(fmt, records)
    text = encode_text(records)
    assert len(binary) < len(text) / 2


# ----------------------------------------------------------------------
# frames: the batched dissemination wire format
# ----------------------------------------------------------------------


def _sample_records(n):
    return [
        {"id": i, "value": i * 0.5, "count": i - 10, "port": i % 65536,
         "flag": bool(i % 2), "name": "rec{}".format(i)}
        for i in range(n)
    ]


def _as_rows(fmt, records):
    return [tuple(record[name] for name in fmt.names) for record in records]


def test_frame_roundtrip_rows():
    registry, fmt = _registry()
    records = _sample_records(40)
    rows = _as_rows(fmt, records)
    decoded_fmt, decoded = decode_frame(registry, encode_frame(fmt, rows))
    assert decoded_fmt is fmt
    assert [fmt.row_to_dict(row) for row in decoded] == records


def test_frame_accepts_dict_records():
    registry, fmt = _registry()
    records = _sample_records(7)
    _, decoded = decode_frame(registry, encode_frame(fmt, records))
    assert [fmt.row_to_dict(row) for row in decoded] == records


#: sha256 of ``encode_frame`` over ``_sample_records(64)``.  Recorded
#: while the per-record wire layout still existed and carried the same
#: 64 record images after its own 8-byte header, so it pins both the
#: frame bytes and the record image the two layouts shared.
FRAME_64_SHA256 = "79a28449d1578293d84e4d1a022bdf187cc583ee8de0dab2f5b9fdded47ce7b6"


def test_frame_bytes_pinned():
    _, fmt = _registry()
    blob = encode_frame(fmt, _as_rows(fmt, _sample_records(64)))
    assert len(blob) == 8 + 64 * fmt.record_size
    observed = hashlib.sha256(blob).hexdigest()
    assert observed == FRAME_64_SHA256, "frame bytes changed; observed " + observed


def test_empty_frame():
    registry, fmt = _registry()
    _, decoded = decode_frame(registry, encode_frame(fmt, []))
    assert decoded == []


def test_frame_bad_magic_rejected():
    registry, fmt = _registry()
    blob = encode_frame(fmt, _as_rows(fmt, _sample_records(2)))
    with pytest.raises(ValueError, match="magic"):
        decode_frame(registry, b"\x00\x00" + blob[2:])


def test_truncated_frame_rejected():
    registry, fmt = _registry()
    blob = encode_frame(fmt, _as_rows(fmt, _sample_records(3)))
    with pytest.raises(ValueError, match="truncated"):
        decode_frame(registry, blob[:-5])


def test_frame_larger_than_pack_chunk():
    """> _PACK_CHUNK records exercise the chunked multi-record packers."""
    registry, fmt = _registry()
    records = _sample_records(_PACK_CHUNK + 37)
    _, decoded = decode_frame(
        registry, encode_frame(fmt, _as_rows(fmt, records))
    )
    assert [fmt.row_to_dict(row) for row in decoded] == records


def test_packer_cache_reused_and_bounded():
    _, fmt = _registry()
    assert fmt.packer(8) is fmt.packer(8)
    assert fmt.packer(1).size * 8 == fmt.packer(8).size
    with pytest.raises(ValueError):
        fmt.packer(_PACK_CHUNK + 1)


def test_frame_decoder_streaming():
    """The GPA side: descriptor first, then frames, on a fresh registry."""
    _, fmt = _registry()
    decoder = FrameDecoder()
    adopted = decoder.feed_descriptor(fmt.describe())
    assert adopted.fields == fmt.fields
    records = _sample_records(9)
    for chunk in (records[:4], records[4:]):
        got_fmt, rows = decoder.feed(encode_frame(fmt, _as_rows(fmt, chunk)))
        assert got_fmt.name == fmt.name
        assert [got_fmt.row_to_dict(row) for row in rows] == chunk
    assert decoder.stats() == {"frames_decoded": 2, "records_decoded": 9}


def test_frame_decoder_unknown_format_raises():
    _, fmt = _registry()
    decoder = FrameDecoder()  # never fed the descriptor
    with pytest.raises(KeyError):
        decoder.feed(encode_frame(fmt, _as_rows(fmt, _sample_records(1))))


def test_record_view_exposes_row_as_mapping():
    _, fmt = _registry()
    records = _sample_records(2)
    rows = _as_rows(fmt, records)
    view = RecordView(fmt)
    assert view.bind(rows[0])["name"] == "rec0"
    assert view.get("port") == 0
    assert view.get("missing", 42) == 42
    assert "flag" in view and "missing" not in view
    assert tuple(view.keys()) == fmt.names
    assert view.as_dict() == records[0]
    # One reused view: bind() swaps the row in place.
    assert view.bind(rows[1])["name"] == "rec1"


RECORDS_STRATEGY = st.lists(
    st.fixed_dictionaries(
        {
            "id": st.integers(0, 2**32 - 1),
            "value": st.floats(allow_nan=False, allow_infinity=False,
                               width=64),
            "count": st.integers(-(2**63), 2**63 - 1),
            "port": st.integers(0, 65535),
            "flag": st.booleans(),
            "name": st.text(
                alphabet=st.characters(min_codepoint=32, max_codepoint=126),
                max_size=12,
            ),
        }
    ),
    max_size=20,
)


@given(RECORDS_STRATEGY)
def test_roundtrip_property(records):
    registry = FormatRegistry()
    fmt = registry.register("prop.record", FIELDS)
    _, decoded = _roundtrip(registry, fmt, records)
    assert decoded == records


@given(RECORDS_STRATEGY)
def test_frame_roundtrip_property(records):
    """Preordered rows decode to the dicts they were built from."""
    registry = FormatRegistry()
    fmt = registry.register("prop.record", FIELDS)
    rows = [tuple(record[name] for name in fmt.names) for record in records]
    _, decoded = decode_frame(registry, encode_frame(fmt, rows))
    assert [fmt.row_to_dict(row) for row in decoded] == records


# ----------------------------------------------------------------------
# numpy kernels: the vectorized frame paths must be indistinguishable
# from the pure-struct ones — same bytes out, same values back.
# ----------------------------------------------------------------------

from repro.core import encoding as encoding_mod  # noqa: E402


def _sample_rows(fmt, n=1200):
    """Rows crossing the _PACK_CHUNK boundary, with awkward strings."""
    rows = []
    for i in range(n):
        name = ["plain", "é-accent", "日本語テキスト", "", "x" * 40][i % 5]
        rows.append((
            i, i * 0.625, i - 600, i % 65536, bool(i % 3), name,
        ))
    return rows


def test_numpy_decode_matches_struct_decode(monkeypatch):
    if encoding_mod._np is None:
        pytest.skip("numpy unavailable")
    registry, fmt = _registry()
    rows = _sample_rows(fmt)
    blob = encode_frame(fmt, rows)
    _, vectorized = decode_frame(registry, blob)
    monkeypatch.setattr(encoding_mod, "_np", None)
    _, scalar = decode_frame(registry, blob)
    assert [tuple(r) for r in vectorized] == [tuple(r) for r in scalar]


def test_encode_frame_bytes_identical_with_and_without_numpy(monkeypatch):
    """encode_frame itself is struct-based either way; pin the bytes."""
    _registry_a, fmt_a = _registry()
    rows = _sample_rows(fmt_a, n=300)
    with_np = encode_frame(fmt_a, rows)
    monkeypatch.setattr(encoding_mod, "_np", None)
    registry_b = FormatRegistry()
    fmt_b = registry_b.register("test.record", FIELDS)
    assert encode_frame(fmt_b, rows) == with_np


def test_encode_frame_array_matches_row_encoding():
    if encoding_mod._np is None:
        pytest.skip("numpy unavailable")
    np = encoding_mod._np
    registry, fmt = _registry()
    rows = [(i, i * 1.5, -i, i, bool(i % 2), "n{}".format(i))
            for i in range(500)]
    # Build the columnar producer's array (strings pre-encoded to bytes).
    wire = [row[:-1] + (row[-1].encode(),) for row in rows]
    array = np.array(wire, dtype=fmt.numpy_dtype())
    assert encoding_mod.encode_frame_array(fmt, array) == encode_frame(fmt, rows)


def test_decode_frame_array_columnar_view():
    if encoding_mod._np is None:
        pytest.skip("numpy unavailable")
    registry, fmt = _registry()
    rows = [(i, i * 0.5, i, i, False, "r{}".format(i)) for i in range(64)]
    blob = encode_frame(fmt, rows)
    got_fmt, array = encoding_mod.decode_frame_array(registry, blob)
    assert got_fmt is fmt
    assert array.shape == (64,)
    assert array["value"].sum() == sum(r[1] for r in rows)
    assert array["id"].tolist() == list(range(64))


def test_array_functions_require_numpy(monkeypatch):
    registry, fmt = _registry()
    blob = encode_frame(fmt, [])
    monkeypatch.setattr(encoding_mod, "_np", None)
    with pytest.raises(RuntimeError):
        encoding_mod.decode_frame_array(registry, blob)
    with pytest.raises(RuntimeError):
        encoding_mod.encode_frame_array(fmt, None)


def test_numpy_dtype_layout_matches_struct():
    if encoding_mod._np is None:
        pytest.skip("numpy unavailable")
    _registry_x, fmt = _registry()
    dtype = fmt.numpy_dtype()
    assert dtype is not None
    assert dtype.itemsize == fmt.record_size
    assert dtype.names == fmt.names
