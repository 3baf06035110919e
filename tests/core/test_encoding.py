"""PBIO-style binary encoding: formats, roundtrips, self-description."""

import hashlib
import tracemalloc

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core.encoding import (
    FormatRegistry,
    FrameDecoder,
    RecordView,
    _DESCRIPTOR_HEADER,
    _FORMAT_BOUND,
    _FRAME_HEADER,
    _FRAME_MAGIC,
    _NAME_TABLE_BOUND,
    decode_frame,
    encode_frame,
    encode_text,
)
from repro.core.lpa import INTERACTION_FORMAT
from tests.core.helpers import load_or_block_numpy

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


#: A well-formed descriptor whose ``strN`` width makes ``struct`` raise
#: ``struct.error: total struct size too long``.  It used to escape the
#: tier's ``ValueError`` handler and abort the whole run.
STRUCT_REJECTED_DESCRIPTOR = (
    _DESCRIPTOR_HEADER.pack(9, 32) + b"evil|a:str9999999999999999999999"
)


def test_garbled_descriptor_rejected():
    _, fmt = _registry()
    descriptor = fmt.describe()
    garbled = [
        descriptor[:-1],  # body cut short
        descriptor + b"x",  # trailing bytes past the declared body
        descriptor[:4] + b"\xff" * (len(descriptor) - 4),  # not UTF-8
        descriptor.replace(b"f64", b"f65"),  # unknown field type
        descriptor.replace(b"str12", b"strxy"),  # unparsable width
        STRUCT_REJECTED_DESCRIPTOR,  # a width struct cannot address
    ]
    for blob in garbled:
        with pytest.raises(ValueError):
            FrameDecoder().feed_descriptor(blob)


@pytest.mark.parametrize("numpy", [True, False], ids=["numpy", "pure"])
def test_zero_width_frame_claiming_records_rejected(numpy, monkeypatch):
    """A field-less format is adoptable, but its frames cost no payload
    bytes per record, so one could claim a million records.  That is a
    ValueError, and an honest empty frame still decodes, whether numpy
    is loaded or cannot be imported."""
    load_or_block_numpy(numpy, monkeypatch)
    decoder = FrameDecoder()
    fmt = decoder.feed_descriptor(_DESCRIPTOR_HEADER.pack(9, 6) + b"ghost|")
    assert fmt.record_size == 0
    with pytest.raises(ValueError, match="truncated frame"):
        decoder.feed(_FRAME_HEADER.pack(_FRAME_MAGIC, 9, 1_000_000))
    assert decoder.feed(_FRAME_HEADER.pack(_FRAME_MAGIC, 9, 0)) == (fmt, [])


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


def test_frame_roundtrip_549_records():
    registry, fmt = _registry()
    records = _sample_records(549)
    _, decoded = decode_frame(
        registry, encode_frame(fmt, _as_rows(fmt, records))
    )
    assert [fmt.row_to_dict(row) for row in decoded] == records


# ----------------------------------------------------------------------
# decoder state: nothing per frame size, a bounded table of shared names
# ----------------------------------------------------------------------

_NODES = ("client", "proxy", "backend0", "backend1")
_IPS = ("10.0.0.1", "10.0.0.2", "10.0.0.3", "10.0.0.4")
_CLASSES = ("nfs-write", "nfs-read", "nfs-commit")


def _interaction_row(i, node=None):
    """A ``sysprof.interaction`` row whose names repeat the way an nfs
    GPA sees them: a few nodes, IPs and request classes."""
    return (
        i, node or _NODES[i % 4], _IPS[i % 4], 1000 + i % 7, _IPS[(i + 1) % 4],
        2049, i * 0.01, i * 0.01 + 0.002, 3, 4096, 1, 128, 1e-4, 2e-4, 3e-4,
        4e-4, 0.0, 2, 1, 100 + i % 3, "nfsd", _CLASSES[i % 3], 0.002,
    )


def _interaction_decoder():
    """A fresh decoder that adopted ``sysprof.interaction``, and the
    sender's format."""
    fmt = FormatRegistry().register(*INTERACTION_FORMAT)
    decoder = FrameDecoder()
    decoder.feed_descriptor(fmt.describe())
    return decoder, fmt


def test_decoder_keeps_no_state_per_frame_size():
    """Frames of every count from 1 to 300 leave a decoder holding its
    format and a few names: a compiled Struct per record count held
    about 35 MB after these frames."""
    fmt = FormatRegistry().register(*INTERACTION_FORMAT)
    rows = [_interaction_row(i) for i in range(300)]
    frames = [encode_frame(fmt, rows[:count]) for count in range(1, 301)]
    tracemalloc.start()
    try:
        decoder = FrameDecoder()
        decoder.feed_descriptor(fmt.describe())
        for frame in frames:
            decoder.feed(frame)  # the decoded rows are dropped at once
        retained, _peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert decoder.stats()["records_decoded"] == 300 * 301 // 2
    assert retained < 256 * 1024, retained


def test_decoded_names_are_shared():
    """One node name decoded from two frames is one ``str``."""
    decoder, fmt = _interaction_decoder()
    node = fmt.names.index("node")
    _, first = decoder.feed(encode_frame(fmt, [_interaction_row(1)]))
    _, second = decoder.feed(encode_frame(fmt, [_interaction_row(5)]))
    assert first[0][node] == "proxy"
    assert first[0][node] is second[0][node]


def test_name_table_stays_bounded():
    """A peer naming more distinct nodes than the format's table keeps
    fills it to its bound and no further; every name still decodes."""
    decoder, fmt = _interaction_decoder()
    names = ["node{}".format(i) for i in range(_NAME_TABLE_BOUND + 100)]
    rows = [_interaction_row(i, node=name) for i, name in enumerate(names)]
    adopted, decoded = decoder.feed(encode_frame(fmt, rows))
    node = fmt.names.index("node")
    assert [row[node] for row in decoded] == names
    assert len(adopted._name_table) == _NAME_TABLE_BOUND


def test_decoder_memory_is_bounded_over_formats():
    """Names and formats a peer sends cannot grow one decoder without
    bound: 32 one-field formats fed 4,096 distinct names apiece left a
    decoder with a name table per format holding about 32 MB; with one
    table per registry it holds about 1.1 MB."""
    sender = FormatRegistry()
    streams = []
    for i in range(32):
        fmt = sender.register("peer.f{}".format(i), (("name", "str64"),))
        names = [("f{}-{:056d}".format(i, n),) for n in range(4096)]
        streams.append((fmt.describe(), encode_frame(fmt, names)))
    tracemalloc.start()
    try:
        decoder = FrameDecoder()
        for descriptor, frame in streams:
            decoder.feed_descriptor(descriptor)
            decoder.feed(frame)  # the decoded rows are dropped at once
        retained, _peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert decoder.stats()["records_decoded"] == 32 * 4096
    assert retained < 4 * 1024 * 1024, retained


def test_registry_refuses_formats_past_its_bound():
    """A new format id past ``_FORMAT_BOUND`` is refused; re-describing
    a held id still replaces that format, and its old name goes."""
    sender = FormatRegistry()
    formats = [sender.register("peer.f{}".format(i), (("x", "u16"),))
               for i in range(_FORMAT_BOUND + 1)]
    decoder = FrameDecoder()
    for fmt in formats[:-1]:
        decoder.feed_descriptor(fmt.describe())
    with pytest.raises(ValueError, match="refused"):
        decoder.feed_descriptor(formats[-1].describe())
    with pytest.raises(KeyError):
        decoder.feed(encode_frame(formats[-1], [(1,)]))
    replacement = FormatRegistry()
    replacement.register("peer.wide", (("x", "u32"),))
    adopted = decoder.feed_descriptor(replacement.get("peer.wide").describe())
    assert adopted.format_id == 1
    assert decoder.registry.by_id(1) is adopted
    assert "peer.f0" not in decoder.registry
    fmt, rows = decoder.feed(encode_frame(replacement.get("peer.wide"), [(70000,)]))
    assert fmt is adopted and rows == [(70000,)]


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
# fuzzing the decoder: hostile descriptor and frame streams
# ----------------------------------------------------------------------

_FUZZ_REGISTRY = FormatRegistry()
_FUZZ_FMT = _FUZZ_REGISTRY.register("fuzz.record", FIELDS)
_FUZZ_ROWS = _as_rows(_FUZZ_FMT, _sample_records(5))
_FUZZ_DESCRIPTOR = _FUZZ_FMT.describe()
_FUZZ_FRAME = encode_frame(_FUZZ_FMT, _FUZZ_ROWS)
# A sibling format on the same stream, so blobs can be spliced across
# formats and a frame can land on the other format's id.
_SIBLING_FMT = _FUZZ_REGISTRY.register("fuzz.sibling", (("x", "u16"), ("y", "str3")))
_VALID_DESCRIPTORS = (_FUZZ_DESCRIPTOR, _SIBLING_FMT.describe())
_VALID_FRAMES = (_FUZZ_FRAME, encode_frame(_SIBLING_FMT, [(7, "abc"), (8, "é")]))
_VALID_BLOBS = _VALID_DESCRIPTORS + _VALID_FRAMES

_VALID_TYPES = st.one_of(
    st.sampled_from(["f64", "i64", "u32", "u16", "bool"]),
    st.integers(1, 40).map("str{}".format),
)
#: Mostly valid field types, so most random formats get adopted and
#: their frames decoded; then garbage, and widths up to 10**30 (past
#: 2**63 - 1, ``struct`` itself rejects the layout).
_FIELD_TYPES = st.one_of(
    _VALID_TYPES,
    _VALID_TYPES,
    _VALID_TYPES,
    st.sampled_from(["str", "strx", "str0", "str-1", "f65", ""]),
    st.integers(0, 10**30).map("str{}".format),
)


@st.composite
def _random_format(draw):
    """A descriptor built from a random name and field list, then a frame
    for its id whose payload is random bytes of the declared size."""
    name = draw(st.text(max_size=8))
    fields = draw(st.lists(st.tuples(st.text(max_size=4), _FIELD_TYPES), max_size=6))
    body = "{}|{}".format(name, ";".join("{}:{}".format(f, t) for f, t in fields))
    body = body.encode("utf-8")
    format_id = draw(st.integers(0, 3))
    descriptor = _DESCRIPTOR_HEADER.pack(format_id, len(body)) + body
    try:
        size = FormatRegistry().adopt(descriptor).record_size
    except ValueError:
        size = draw(st.integers(0, 16))
    count = draw(st.integers(0, 4)) if size <= 64 else 0
    payload = draw(st.binary(min_size=count * size, max_size=count * size))
    frame = _FRAME_HEADER.pack(_FRAME_MAGIC, format_id, count) + payload
    return [("fmt", descriptor), ("frame", frame)]


@st.composite
def _claiming_frame(draw):
    """A frame for any id that claims up to 2**32 - 1 records."""
    count = draw(st.integers(0, 2**32 - 1))
    header = _FRAME_HEADER.pack(_FRAME_MAGIC, draw(st.integers(0, 3)), count)
    return header + draw(st.binary(max_size=96))


@st.composite
def _mutant(draw, blobs=_VALID_BLOBS):
    """A truncation, bit flip, duplicated run or splice of a valid blob."""
    blob = draw(st.sampled_from(blobs))
    at = draw(st.integers(0, len(blob)))
    kind = draw(st.sampled_from(["truncate", "flip", "duplicate", "splice"]))
    if kind == "truncate":
        return blob[:at]
    if kind == "flip":
        at = min(at, len(blob) - 1)
        flipped = bytearray(blob)
        flipped[at] ^= 1 << draw(st.integers(0, 7))
        return bytes(flipped)
    if kind == "duplicate":
        end = draw(st.integers(at, len(blob)))
        return blob[:end] + blob[at:]
    other = draw(st.sampled_from(_VALID_BLOBS))
    return blob[:at] + other[draw(st.integers(0, len(other))):]


#: Streams of (feed kind, blob) messages.  Valid blobs come in any
#: order and any number of times, so frames arrive before their
#: descriptor and descriptors arrive twice; the last branch feeds any
#: blob as either kind.
_MESSAGES = st.lists(
    st.one_of(
        _random_format(),
        st.tuples(
            st.just("fmt"),
            st.one_of(st.sampled_from(_VALID_DESCRIPTORS), _mutant(_VALID_DESCRIPTORS)),
        ).map(lambda message: [message]),
        st.tuples(
            st.just("frame"),
            st.one_of(
                st.sampled_from(_VALID_FRAMES), _mutant(_VALID_FRAMES), _claiming_frame()
            ),
        ).map(lambda message: [message]),
        st.tuples(st.sampled_from(["fmt", "frame"]), _mutant()).map(
            lambda message: [message]
        ),
    ),
    max_size=6,
).map(lambda groups: [message for group in groups for message in group])


@settings(derandomize=True, max_examples=300, deadline=None)
@given(_MESSAGES)
@example([("fmt", STRUCT_REJECTED_DESCRIPTOR)])
@example([("frame", _FUZZ_FRAME), ("fmt", _FUZZ_DESCRIPTOR), ("fmt", _FUZZ_DESCRIPTOR)])
def test_decoder_survives_hostile_streams(messages):
    """The decoder only returns or raises ValueError/KeyError, never
    returns a row of the wrong width, and keeps no state that stops the
    original descriptor and frame from decoding afterwards."""
    decoder = FrameDecoder()
    for kind, blob in messages:
        try:
            if kind == "fmt":
                decoder.feed_descriptor(blob)
            else:
                fmt, rows = decoder.feed(blob)
                assert all(len(row) == len(fmt.fields) for row in rows)
        except (KeyError, ValueError):
            pass
    decoder.feed_descriptor(_FUZZ_DESCRIPTOR)
    fmt, rows = decoder.feed(_FUZZ_FRAME)
    assert fmt.fields == _FUZZ_FMT.fields
    assert rows == _FUZZ_ROWS
