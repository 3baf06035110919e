"""PBIO-style self-describing binary record encoding.

The paper's dissemination daemon uses PBIO binary encodings to keep
event-channel payloads compact.  This module reproduces the discipline:

* a **format** is a named, ordered list of typed fields, registered once;
* a **format descriptor** serializes the schema itself, so a decoder that
  has never seen the format can reconstruct it (self-describing streams);
* **records** are fixed-layout ``struct`` packs referencing the format by
  id — no per-record field names on the wire.

Supported field types: ``f64``, ``i64``, ``u32``, ``u16``, ``bool`` and
``strN`` (fixed-width UTF-8, NUL-padded, truncated at a codepoint
boundary within N bytes).

Records travel in **frames** (:func:`encode_frame`): one header
carrying a record *count*, then contiguous record images packed through
a cached multi-record ``struct.Struct`` (chunks of up to ``_PACK_CHUNK``
records per C call) into a reusable per-format ``bytearray`` scratch.

Every decode failure — short, truncated or garbled frames and format
descriptors — raises :class:`ValueError` (an unknown format id raises
:class:`KeyError`), so a receiver can count it and keep reading.

A record may be a ``dict`` keyed by field name or a **preordered row**:
a sequence whose values appear in registered field order.  Rows are what
the analyzers emit on the hot path — packing one is a flat iteration
with zero per-record dict lookups.

Encode and decode both run through the same cached multi-record
``struct`` packers: one C-level ``pack_into`` or ``unpack_from`` per
chunk of records, so neither side does per-record header work.
"""

import struct

_FRAME_MAGIC = 0xB10F  # multi-record frame
_FRAME_HEADER = struct.Struct("<HHI")  # magic, format_id, record count
_DESCRIPTOR_HEADER = struct.Struct("<HH")  # format_id, body length

#: Records per cached multi-record Struct.  Bounds both the size of the
#: compiled format strings and the per-format packer cache (at most
#: ``_PACK_CHUNK`` distinct remainder sizes ever get compiled).
_PACK_CHUNK = 512

_SCALAR_CODES = {"f64": "d", "i64": "q", "u32": "I", "u16": "H", "bool": "?"}


def _field_code(ftype):
    code = _SCALAR_CODES.get(ftype)
    if code is not None:
        return code
    if ftype.startswith("str"):
        width = int(ftype[3:])
        if width <= 0:
            raise ValueError("string width must be positive: {}".format(ftype))
        return "{}s".format(width)
    raise ValueError("unknown field type: {}".format(ftype))


def _utf8_field(value, width):
    """Encode ``value`` into at most ``width`` UTF-8 bytes.

    Truncation backs up to a codepoint boundary: cutting a multibyte
    character mid-sequence would leave an undecodable tail that the
    reader can only render as U+FFFD.
    """
    if not isinstance(value, str):
        value = str(value)
    data = value.encode("utf-8")
    if len(data) <= width:
        return data
    cut = width
    # data[cut] is the first byte past the limit; while it is a UTF-8
    # continuation byte (0b10xxxxxx) the character it belongs to started
    # earlier and must be dropped whole.
    while cut > 0 and (data[cut] & 0xC0) == 0x80:
        cut -= 1
    return data[:cut]


class RecordFormat:
    """One registered format: name + ordered (field, type) pairs."""

    def __init__(self, format_id, name, fields):
        self.format_id = format_id
        self.name = name
        self.fields = tuple((str(fname), str(ftype)) for fname, ftype in fields)
        self.names = tuple(fname for fname, _ in self.fields)
        self._codes = "".join(_field_code(ftype) for _, ftype in self.fields)
        try:
            self._struct = struct.Struct("<" + self._codes)
        except struct.error as exc:  # e.g. a strN too wide to address
            raise ValueError("format {}: {}".format(name, exc)) from None
        self._index = {fname: i for i, fname in enumerate(self.names)}
        self._string_fields = tuple(
            (i, int(ftype[3:]))
            for i, (_fname, ftype) in enumerate(self.fields)
            if ftype.startswith("str")
        )
        self._packers = {1: self._struct}
        self._scratch = bytearray()

    @property
    def record_size(self):
        return self._struct.size

    # ------------------------------------------------------------------
    # packing
    # ------------------------------------------------------------------

    def packer(self, count):
        """Cached ``struct.Struct`` covering ``count`` consecutive records."""
        cached = self._packers.get(count)
        if cached is None:
            if count > _PACK_CHUNK:
                raise ValueError(
                    "packer count {} exceeds chunk limit {}".format(count, _PACK_CHUNK)
                )
            cached = self._packers[count] = struct.Struct("<" + self._codes * count)
        return cached

    def pack_frame_into(self, scratch, offset, records):
        """Pack ``records`` contiguously into ``scratch`` at ``offset``.

        Uses the cached multi-record packers in chunks of up to
        ``_PACK_CHUNK`` records — one C-level ``pack_into`` per chunk
        instead of one per record.  Rows are extended straight into one
        flat argument list (no per-record row copy); string slots are
        then encoded in a stride walk over the flat list.  Returns the
        offset past the payload.
        """
        size = self.record_size
        nfields = len(self.fields)
        names = self.names
        string_fields = self._string_fields
        count = len(records)
        start = 0
        while start < count:
            n = min(_PACK_CHUNK, count - start)
            flat = []
            extend = flat.extend
            for record in records[start:start + n]:
                if isinstance(record, dict):
                    extend([record[fname] for fname in names])
                else:
                    extend(record)
            for i, width in string_fields:
                for base in range(i, n * nfields, nfields):
                    value = flat[base]
                    if type(value) is str:
                        data = value.encode("utf-8")
                        if len(data) > width:
                            cut = width
                            while cut > 0 and (data[cut] & 0xC0) == 0x80:
                                cut -= 1
                            data = data[:cut]
                        flat[base] = data
                    else:
                        flat[base] = _utf8_field(value, width)
            self.packer(n).pack_into(scratch, offset, *flat)
            offset += n * size
            start += n
        return offset

    # ------------------------------------------------------------------
    # unpacking
    # ------------------------------------------------------------------

    def unpack_rows(self, payload, count):
        """Unpack ``count`` contiguous records into preordered row tuples.

        One cached multi-record ``unpack_from`` per chunk, then a flat
        slice per record: no per-record header or per-record ``bytes``
        objects.
        """
        nfields = len(self.fields)
        size = self.record_size
        string_fields = self._string_fields
        rows = []
        append = rows.append
        offset = 0
        start = 0
        while start < count:
            n = min(_PACK_CHUNK, count - start)
            flat = self.packer(n).unpack_from(payload, offset)
            for base in range(0, n * nfields, nfields):
                row = flat[base:base + nfields]
                if string_fields:
                    row = list(row)
                    for i, _width in string_fields:
                        row[i] = row[i].rstrip(b"\x00").decode("utf-8", "replace")
                    row = tuple(row)
                append(row)
            offset += n * size
            start += n
        return rows

    def row_to_dict(self, row):
        return dict(zip(self.names, row))

    def describe(self):
        """Serialized schema (the self-describing part of the stream)."""
        body = "{}|{}".format(
            self.name, ";".join("{}:{}".format(f, t) for f, t in self.fields)
        ).encode("utf-8")
        return _DESCRIPTOR_HEADER.pack(self.format_id, len(body)) + body

    def __repr__(self):
        return "<RecordFormat {} #{} {}B>".format(
            self.name, self.format_id, self.record_size
        )


class RecordView:
    """Dict-like read-only view over one preordered row.

    The daemon's filter push-down hands these to user ``data_filter``
    functions so filters written against dict records keep working when
    the analyzers emit rows.  One view is reused across a whole drain
    (``bind`` swaps the row), so filters must not retain it.
    """

    __slots__ = ("_fmt", "_row")

    def __init__(self, fmt, row=None):
        self._fmt = fmt
        self._row = row

    def bind(self, row):
        self._row = row
        return self

    def __getitem__(self, fname):
        return self._row[self._fmt._index[fname]]

    def get(self, fname, default=None):
        index = self._fmt._index.get(fname)
        return default if index is None else self._row[index]

    def __contains__(self, fname):
        return fname in self._fmt._index

    def keys(self):
        return self._fmt.names

    def as_dict(self):
        return self._fmt.row_to_dict(self._row)


class FormatRegistry:
    """Registry mapping format names/ids to :class:`RecordFormat`."""

    def __init__(self):
        self._by_name = {}
        self._by_id = {}
        self._next_id = 1

    def register(self, name, fields):
        """Register (or fetch the identical existing) format."""
        existing = self._by_name.get(name)
        if existing is not None:
            if existing.fields != tuple((str(a), str(b)) for a, b in fields):
                raise ValueError("format {} re-registered with different fields".format(name))
            return existing
        fmt = RecordFormat(self._next_id, name, fields)
        self._next_id += 1
        self._by_name[name] = fmt
        self._by_id[fmt.format_id] = fmt
        return fmt

    def adopt(self, descriptor):
        """Install a format from a peer's :meth:`RecordFormat.describe` blob.

        Raises :class:`ValueError` on a short, truncated or garbled
        descriptor.
        """
        size = _DESCRIPTOR_HEADER.size
        if len(descriptor) < size:
            raise ValueError(
                "short format descriptor: {} bytes".format(len(descriptor))
            )
        format_id, body_len = _DESCRIPTOR_HEADER.unpack_from(descriptor)
        if len(descriptor) != size + body_len:
            raise ValueError(
                "format descriptor length {} does not match its {}-byte body".format(
                    len(descriptor), body_len
                )
            )
        body = descriptor[size:].decode("utf-8")
        name, _, field_blob = body.partition("|")
        fields = []
        if field_blob:
            for item in field_blob.split(";"):
                fname, _, ftype = item.partition(":")
                fields.append((fname, ftype))
        fmt = RecordFormat(format_id, name, fields)
        self._by_id[format_id] = fmt
        self._by_name[name] = fmt
        return fmt

    def get(self, name):
        return self._by_name[name]

    def by_id(self, format_id):
        return self._by_id[format_id]

    def __contains__(self, name):
        return name in self._by_name


def encode_frame(fmt, records):
    """Encode records (preordered rows or dicts) into one frame blob.

    Frame layout::

        <H magic> <H format_id> <I count> <count x record_size payload>

    The payload is packed through the cached multi-record packers into a
    reusable per-format scratch ``bytearray``; the only fresh allocation
    per call is the returned ``bytes``.
    """
    if not isinstance(records, (list, tuple)):
        records = list(records)
    count = len(records)
    total = _FRAME_HEADER.size + count * fmt.record_size
    scratch = fmt._scratch
    if len(scratch) < total:
        scratch = fmt._scratch = bytearray(total)
    _FRAME_HEADER.pack_into(scratch, 0, _FRAME_MAGIC, fmt.format_id, count)
    fmt.pack_frame_into(scratch, _FRAME_HEADER.size, records)
    return bytes(memoryview(scratch)[:total])


def _frame_header(blob):
    """``(format_id, count)`` of a frame; ValueError if short or mis-tagged."""
    if len(blob) < _FRAME_HEADER.size:
        raise ValueError("short frame: {} bytes".format(len(blob)))
    magic, format_id, count = _FRAME_HEADER.unpack_from(blob)
    if magic != _FRAME_MAGIC:
        raise ValueError("bad frame magic: {:#x}".format(magic))
    return format_id, count


def _frame_payload(registry, blob):
    """``(format, count, payload)`` of a frame whose payload is exactly
    ``count`` records; ValueError otherwise.  A zero-width format's
    frames must be empty: there a count costs no bytes, so a frame could
    claim a million records."""
    format_id, count = _frame_header(blob)
    fmt = registry.by_id(format_id)
    payload = memoryview(blob)[_FRAME_HEADER.size:]
    if len(payload) != count * fmt.record_size or (count and not fmt.record_size):
        raise ValueError(
            "truncated frame: {} payload bytes for {} records of {}B".format(
                len(payload), count, fmt.record_size
            )
        )
    return fmt, count, payload


def decode_frame(registry, blob):
    """Decode one frame blob into ``(format, [row tuples])``."""
    fmt, count, payload = _frame_payload(registry, blob)
    if count == 0:
        return fmt, []
    return fmt, fmt.unpack_rows(payload, count)


class FrameDecoder:
    """Streaming decoder for one subscriber's frame stream (the GPA side).

    Feed it format-descriptor blobs and frame blobs in arrival order; it
    adopts unseen formats on the fly and unpacks whole frames through the
    cached multi-record packers — no per-record header parsing and no
    per-record payload slices.
    """

    def __init__(self, registry=None):
        self.registry = registry or FormatRegistry()
        self.frames_decoded = 0
        self.records_decoded = 0

    def feed_descriptor(self, blob):
        """Adopt a self-describing format descriptor."""
        return self.registry.adopt(blob)

    def feed(self, blob):
        """Decode one frame; returns ``(format, [row tuples])``."""
        fmt, rows = decode_frame(self.registry, blob)
        self.frames_decoded += 1
        self.records_decoded += len(rows)
        return fmt, rows

    def stats(self):
        return {
            "frames_decoded": self.frames_decoded,
            "records_decoded": self.records_decoded,
        }


def pack_count_runs(counts):
    """Pack a sparse ``{index: count}`` table into ``(base, payload)``.

    The payload is a run-length string of ``gap:count`` entries in
    ascending index order, where ``gap`` is the distance from the
    previous index (0 for the first entry, measured from ``base``).
    Sketch bucket indices cluster tightly, so gaps stay single-digit and
    the rendering fits a fixed-width ``strN`` field.  An empty table
    packs to ``(0, "")``.
    """
    if not counts:
        return 0, ""
    ordered = sorted(counts)
    base = ordered[0]
    parts = []
    previous = base
    for index in ordered:
        parts.append("{}:{}".format(index - previous, counts[index]))
        previous = index
    return base, ",".join(parts)


def unpack_count_runs(base, payload):
    """Inverse of :func:`pack_count_runs` — rebuild ``{index: count}``."""
    counts = {}
    if not payload:
        return counts
    index = int(base)
    for entry in payload.split(","):
        gap, _, count = entry.partition(":")
        index += int(gap)
        counts[index] = int(count)
    return counts


def encode_text(records, fmt=None):
    """Baseline text encoding (repr lines) for the encoding-cost ablation.

    ``fmt`` is required to render preordered rows; dict records render
    without it.
    """
    rendered = []
    for record in records:
        if not isinstance(record, dict):
            if fmt is None:
                raise ValueError("encode_text needs a format to render rows")
            record = fmt.row_to_dict(record)
        rendered.append(repr(sorted(record.items())))
    return "\n".join(rendered).encode("utf-8")
