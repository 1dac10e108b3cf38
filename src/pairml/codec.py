"""The one byte codec: little-endian u8/u16/u32/u64 fields, runs of u64
words, raw fixed-size fields, and u32-length-prefixed blobs and blob lists.

`Writer` appends fields and `Reader` takes them back in order.  Every read
raises `ValueError` on a short buffer and `end()` raises on leftover bytes;
decoders read inside `with Reader(buf) as r:`, which calls `end()`, so each
accepts exactly one encoding.  Polynomial arrays pass through `raw` as numpy
bytes.  Transport frame headers keep their own `transport.HEADER`.

Formats carried.  Each is pinned, since it crosses a wide-area channel or a
test pins it (`tests/test_codec.py`; `tests/test_fss.py` for keys;
`tests/test_tee.py` for materials and the enclaves' 3PC byte streams):

* field-element vectors and matrices, `engine.encode_vec`/`encode_mat`,
  written from uint64 arrays or ints; `decode_mat` gives uint64, `decode_vec` ints;
* the manifest's `WTS1` weight blocks (`engine.serialize_manifest`) and the
  owner's model delivery, one blob (`sim`);
* the setup frame, the dealer conversion request and reply, and the
  preprocessing ciphertext list, in `engine`; `perfbench/lockstep.py`
  builds the same frames by hand;
* `RingPoly` and `LprCiphertext`, in `ring` and `lpr`;
* DPF/DCF keys, which are their bytes; `fss` is the one owner of their
  layout (`fss.make_key` writes it, `DpfKey.deserialize` checks it);
* the material blob, `gadgets.serialize_material`, which only crosses the
  local enclave-to-host channel; its layout is versioned by `_MAT_VERSION`;
* the enclaves' 3PC messages: the u64 runs of `shares3.Arith3Engine` are
  its share arrays' little-endian bytes, and boolean sharings travel as
  single little-endian ints of their width.
"""

from __future__ import annotations

import struct

_U8, _U16, _U32, _U64 = (struct.Struct(f"<{c}") for c in "BHIQ")


class Writer:
    """Appends fields; every method returns the writer, so calls chain."""

    def __init__(self):
        self._parts: list[bytes] = []

    def u8(self, v: int) -> "Writer":
        return self.raw(_U8.pack(v))

    def u16(self, v: int) -> "Writer":
        return self.raw(_U16.pack(v))

    def u32(self, v: int) -> "Writer":
        return self.raw(_U32.pack(v))

    def u64(self, v: int) -> "Writer":
        return self.raw(_U64.pack(v))

    def u64s(self, vals) -> "Writer":
        """A run of u64 words with no count; the reader must know how many."""
        vals = [int(v) for v in vals]
        return self.raw(struct.pack(f"<{len(vals)}Q", *vals))

    def raw(self, data: bytes) -> "Writer":
        self._parts.append(bytes(data))
        return self

    def blob(self, data: bytes) -> "Writer":
        return self.u32(len(data)).raw(data)

    def blobs(self, items: list[bytes]) -> "Writer":
        self.u32(len(items))
        for item in items:
            self.blob(item)
        return self

    def getvalue(self) -> bytes:
        return b"".join(self._parts)


class Reader:
    """Takes fields from the front of a buffer, never past its end."""

    def __init__(self, buf: bytes):
        self._buf = buf
        self._off = 0

    def __enter__(self) -> "Reader":
        return self

    def __exit__(self, exc_type, exc, tb):
        if exc_type is None:
            self.end()

    def _advance(self, n: int) -> int:
        off = self._off
        if n > len(self._buf) - off:
            raise ValueError(f"truncated input: {n} bytes wanted at offset {off}, "
                             f"{len(self._buf) - off} left")
        self._off = off + n
        return off

    def _get(self, fmt: struct.Struct) -> int:
        return fmt.unpack_from(self._buf, self._advance(fmt.size))[0]

    def u8(self) -> int:
        return self._get(_U8)

    def u16(self) -> int:
        return self._get(_U16)

    def u32(self) -> int:
        return self._get(_U32)

    def u64(self) -> int:
        return self._get(_U64)

    def u64s(self, n: int) -> list[int]:
        return list(struct.unpack_from(f"<{n}Q", self._buf, self._advance(8 * n)))

    def raw(self, n: int) -> bytes:
        off = self._advance(n)
        return bytes(self._buf[off:off + n])

    def blob(self) -> bytes:
        return self.raw(self.u32())

    def blobs(self) -> list[bytes]:
        return [self.blob() for _ in range(self.u32())]

    def end(self) -> None:
        if self._off != len(self._buf):
            raise ValueError(f"{len(self._buf) - self._off} trailing bytes")
