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
carrying a record *count*, then contiguous record images, each packed
through the format's one record ``struct.Struct`` into a reusable
per-format ``bytearray`` scratch.  A decoder unpacks a frame with
``Struct.iter_unpack``, so neither side compiles or keeps anything per
frame size.

Every decode failure — short, truncated or garbled frames and format
descriptors — raises :class:`ValueError` (an unknown format id raises
:class:`KeyError`), so a receiver can count it and keep reading.

A record may be a ``dict`` keyed by field name or a **preordered row**:
a sequence whose values appear in registered field order.  Rows are what
the analyzers emit on the hot path — packing one is a flat iteration
with zero per-record dict lookups.

String fields at most ``_NAME_WIDTH`` bytes wide hold names (nodes,
IPs, task and class names, metrics).  They decode through a table keyed
by the raw field bytes, one per registry, so records naming one node
share one ``str``.  The table keeps at most ``_NAME_TABLE_BOUND``
names: past that, new names still decode but are not kept.  A registry
adopts at most ``_FORMAT_BOUND`` formats from a peer, so what a peer
sends cannot grow one connection's decoder without bound.
``sys.intern`` is not used because interned strings are immortal on
CPython 3.12, and a peer's names would never be freed.
"""

import re
import struct
from itertools import accumulate

_FRAME_MAGIC = 0xB10F  # multi-record frame
_FRAME_HEADER = struct.Struct("<HHI")  # magic, format_id, record count
_DESCRIPTOR_HEADER = struct.Struct("<HH")  # format_id, body length

#: Widest ``strN`` field decoded through the name table; wider fields
#: (a sketch's run string) are unique per record and decode afresh.
_NAME_WIDTH = 64

#: Names a registry's name table keeps, over all its formats.
_NAME_TABLE_BOUND = 4096

#: Format ids a registry adopts from a peer's descriptors.
_FORMAT_BOUND = 64

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


def _truncated(data, width):
    """The longest prefix of UTF-8 ``data`` within ``width`` bytes.

    Truncation backs up to a codepoint boundary: cutting a multibyte
    character mid-sequence would leave an undecodable tail that the
    reader can only render as U+FFFD.
    """
    cut = width
    # data[cut] is the first byte past the limit; while it is a UTF-8
    # continuation byte (0b10xxxxxx) the character it belongs to started
    # earlier and must be dropped whole.
    while cut > 0 and (data[cut] & 0xC0) == 0x80:
        cut -= 1
    return data[:cut]


class RecordFormat:
    """One registered format: name + ordered (field, type) pairs."""

    def __init__(self, format_id, name, fields, name_table):
        self.format_id = format_id
        self.name = name
        self.fields = tuple((str(fname), str(ftype)) for fname, ftype in fields)
        self.names = tuple(fname for fname, _ in self.fields)
        codes = "".join(_field_code(ftype) for _, ftype in self.fields)
        try:
            self._struct = struct.Struct("<" + codes)
        except struct.error as exc:  # e.g. a strN too wide to address
            raise ValueError("format {}: {}".format(name, exc)) from None
        self._index = {fname: i for i, fname in enumerate(self.names)}
        self._string_fields = tuple(
            (i, int(ftype[3:]))
            for i, (_fname, ftype) in enumerate(self.fields)
            if ftype.startswith("str")
        )
        self._name_fields = tuple(
            i for i, width in self._string_fields if width <= _NAME_WIDTH
        )
        self._text_fields = tuple(
            i for i, width in self._string_fields if width > _NAME_WIDTH
        )
        # Raw name-field bytes -> the decoded str every record shares.
        # Decoding is a function of the bytes alone, so one table serves
        # every name field of every format in a registry.
        self._name_table = name_table
        self._scratch = bytearray()

    @property
    def record_size(self):
        return self._struct.size

    # ------------------------------------------------------------------
    # packing
    # ------------------------------------------------------------------

    def pack_frame_into(self, scratch, offset, records):
        """Pack ``records`` back to back into ``scratch`` at ``offset``.

        One ``pack_into`` of the format's record ``Struct`` per record:
        a dict is read in field order, a row is copied once, and its
        string slots are encoded in place.  Returns the offset past the
        payload.
        """
        pack_into = self._struct.pack_into
        size = self._struct.size
        names = self.names
        string_fields = self._string_fields
        for record in records:
            if isinstance(record, dict):
                values = [record[fname] for fname in names]
            else:
                values = list(record)
            for i, width in string_fields:
                data = str(values[i]).encode()
                values[i] = data if len(data) <= width else _truncated(data, width)
            pack_into(scratch, offset, *values)
            offset += size
        return offset

    # ------------------------------------------------------------------
    # unpacking
    # ------------------------------------------------------------------

    def unpack_rows(self, payload):
        """Unpack a payload of whole records into preordered row tuples.

        ``Struct.iter_unpack`` yields one tuple per record.  A name field
        decodes through the registry's table, keyed by the raw field bytes,
        so rows naming one node share one ``str`` and a repeated name
        skips the strip and decode.  A full table still decodes new
        names; it just stops keeping them.
        """
        names = self._name_table
        name_fields = self._name_fields
        text_fields = self._text_fields
        decoded = []
        append = decoded.append
        for row in self._struct.iter_unpack(payload):
            row = list(row)
            for i in name_fields:
                raw = row[i]
                text = names.get(raw)
                if text is None:
                    text = raw.rstrip(b"\x00").decode("utf-8", "replace")
                    if len(names) < _NAME_TABLE_BOUND:
                        names[raw] = text
                row[i] = text
            for i in text_fields:
                row[i] = row[i].rstrip(b"\x00").decode("utf-8", "replace")
            append(tuple(row))
        return decoded

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

    def __init__(self, fmt):
        self._fmt = fmt
        self._row = None

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
        self._name_table = {}  # shared by every format registered here

    def register(self, name, fields):
        """Register (or fetch the identical existing) format."""
        existing = self._by_name.get(name)
        if existing is not None:
            if existing.fields != tuple((str(a), str(b)) for a, b in fields):
                raise ValueError("format {} re-registered with different fields".format(name))
            return existing
        fmt = RecordFormat(self._next_id, name, fields, self._name_table)
        self._next_id += 1
        self._by_name[name] = fmt
        self._by_id[fmt.format_id] = fmt
        return fmt

    def adopt(self, descriptor):
        """Install a format from a peer's :meth:`RecordFormat.describe` blob.

        Raises :class:`ValueError` on a short, truncated or garbled
        descriptor, and on one for a new format id once the registry
        holds ``_FORMAT_BOUND`` formats; re-describing a held id
        replaces that format.
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
        old = self._by_id.get(format_id)
        if old is None and len(self._by_id) >= _FORMAT_BOUND:
            raise ValueError(
                "format {} refused: {} formats held".format(format_id, _FORMAT_BOUND)
            )
        body = descriptor[size:].decode("utf-8")
        name, _, field_blob = body.partition("|")
        fields = []
        if field_blob:
            for item in field_blob.split(";"):
                fname, _, ftype = item.partition(":")
                fields.append((fname, ftype))
        fmt = RecordFormat(format_id, name, fields, self._name_table)
        if old is not None and self._by_name.get(old.name) is old:
            del self._by_name[old.name]
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

    Each record is packed through the format's record ``Struct`` into a
    reusable per-format scratch ``bytearray``; the only fresh allocation
    per call, besides each row's copy, is the returned ``bytes``.
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
    return fmt, fmt.unpack_rows(payload)


class FrameDecoder:
    """Streaming decoder for one subscriber's frame stream (the GPA side).

    Feed it format-descriptor blobs and frame blobs in arrival order; it
    adopts unseen formats on the fly and unpacks whole frames with their
    record ``Struct``'s ``iter_unpack``: no per-record header parsing,
    and no state that grows with frame sizes, with what a peer names, or
    past ``_FORMAT_BOUND`` formats.
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
    append = parts.append
    previous = base
    for index in ordered:
        append(f"{index - previous}:{counts[index]}")
        previous = index
    return base, ",".join(parts)


#: Exactly the payloads :func:`pack_count_runs` emits: empty, or a first
#: gap of 0 then gaps and counts of at least 1, in plain decimal.
_COUNT_RUNS = re.compile(r"(?:0:[1-9][0-9]*(?:,[1-9][0-9]*:[1-9][0-9]*)*)?")


def is_count_runs(payload):
    """Whether ``payload`` is a string :func:`pack_count_runs` could have
    emitted — the only strings :func:`iter_count_runs` may walk."""
    return _COUNT_RUNS.fullmatch(payload) is not None


def iter_count_runs(base, payload):
    """Walk a packed table as ``(index, count)`` pairs in ascending index
    order, keeping nothing.  ``payload`` must pass :func:`is_count_runs`.
    """
    if not payload:
        return iter(())
    numbers = list(map(int, payload.replace(":", ",").split(",")))
    numbers[0] += int(base)  # the first index is base plus its gap
    return zip(accumulate(numbers[0::2]), numbers[1::2])


def unpack_count_runs(base, payload):
    """Inverse of :func:`pack_count_runs` — rebuild ``{index: count}``."""
    return dict(iter_count_runs(base, payload))


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
