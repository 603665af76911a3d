"""Pure-Python MaxMind-DB (MMDB) reader, written from the public file-format
specification (https://maxmind.github.io/MaxMind-DB/).

This replaces the reference's use of ``com.maxmind.db.Reader`` /
``com.maxmind.geoip2.DatabaseReader`` (opened at
``/root/reference/src/main/java/org/logstash/filters/geoip/GeoIPFilter.java:85-92``).
Nothing here is translated from the reference — the reference consumes a
packaged Java library; we implement the format from its published spec:

- the file ends with a metadata map located after the last occurrence of the
  16-byte marker ``\\xab\\xcd\\xefMaxMind.com``;
- a binary search tree of ``node_count`` fixed-size nodes (2 records of
  ``record_size`` bits each) is walked bit-by-bit over the IP address
  (IPv4 addresses enter an IPv6 tree at depth 96);
- record values < node_count point at the next node, == node_count means
  "no data", > node_count point into the data section at
  ``value - node_count - 16`` (16 = size of the zero-filled separator);
- the data section holds a compact tagged encoding (pointer / utf8 / double /
  bytes / u16 / u32 / map / i32 / u64 / u128 / array / bool / float) that we
  decode recursively with an offset-keyed cache (the analog of the
  reference's ``CHMCache`` which "caches the data-section decode",
  ``GeoIPFilter.java:87``).

The reader is mmap-backed and immutable after construction, so it is safe to
share across threads within one Ray actor; each actor opens its own instance
in ``__init__`` (SURVEY.md §1.5).
"""

from __future__ import annotations

import ipaddress
import mmap
import struct
from typing import Any, Callable, Optional, Tuple

import numpy as np

METADATA_MARKER = b"\xab\xcd\xefMaxMind.com"
DATA_SECTION_SEPARATOR_SIZE = 16
#: data offset ``get_ipv4_batch`` reports for an address with no record
NOT_FOUND = -1

# data-section type tags (public spec §"Output Data Section")
_T_EXTENDED = 0
_T_POINTER = 1
_T_UTF8 = 2
_T_DOUBLE = 3
_T_BYTES = 4
_T_UINT16 = 5
_T_UINT32 = 6
_T_MAP = 7
_T_INT32 = 8
_T_UINT64 = 9
_T_UINT128 = 10
_T_ARRAY = 11
_T_CONTAINER = 12
_T_END_MARKER = 13
_T_BOOL = 14
_T_FLOAT = 15


class InvalidDatabaseError(ValueError):
    """Raised when the file is not a structurally valid MMDB.

    The engine maps this to the reference's build-time error message
    "The database provided is invalid or corrupted."
    (``GeoIPFilter.java:88-89``).
    """


class U16(int):
    """int decoded from MMDB storage type uint16 (Java Integer).

    The width matters for Java-parity strict deserialization: the reference's
    maxmind-db decoder rejects a uint16 where the response model declares a
    Long or Boolean — exactly how the MaxMind *-Test.mmdb fixtures mark
    "corrupt custom fields" (``GeoIPFilter.java:53-59`` and
    ``GeoIPFilterTest.java:276-290``: e.g. ``autonomous_system_number`` stored
    as uint16 / ``is_in_european_union`` stored as uint16 at 216.160.83.60).
    """


class UBIG(int):
    """int decoded from MMDB uint64/uint128 (Java BigInteger — never a Long)."""


class U32(int):
    """int that ``mmdb_writer.build_mmdb`` stores as uint32 whatever its
    magnitude (a plain int below 2^16 is stored as uint16, which the City
    and Country models reject for Long fields such as ``geoname_id``). The
    reader decodes uint32 as a plain int."""


class _Decoder:
    """Decoder for the MMDB data section (offsets relative to section start)."""

    def __init__(self, buf, base_offset: int):
        self._buf = buf
        self._base = base_offset
        # decode cache keyed by data-section offset; records are shared by
        # many networks, so this is the highest-leverage cache (CHMCache analog)
        self._cache: dict[int, Any] = {}
        # pointer targets currently being resolved: a corrupt file whose
        # pointer (transitively) targets itself would otherwise recurse
        # forever — the cache can't break the cycle because it is only
        # written AFTER resolution completes
        self._resolving: set = set()

    def decode(self, offset: int) -> Tuple[Any, int]:
        """Decode the value at data-section offset; returns (value, next_offset)."""
        buf = self._buf
        pos = self._base + offset
        ctrl = buf[pos]
        pos += 1
        type_num = ctrl >> 5
        if type_num == _T_EXTENDED:
            type_num = buf[pos] + 7
            pos += 1
            if type_num < 8:
                raise InvalidDatabaseError(
                    "invalid extended type %d at offset %d" % (type_num, offset)
                )

        if type_num == _T_POINTER:
            ptr_size = (ctrl >> 3) & 0x3
            base_val = ctrl & 0x7
            if ptr_size == 0:
                target = (base_val << 8) | buf[pos]
                pos += 1
            elif ptr_size == 1:
                target = ((base_val << 16) | (buf[pos] << 8) | buf[pos + 1]) + 2048
                pos += 2
            elif ptr_size == 2:
                target = (
                    (base_val << 24)
                    | (buf[pos] << 16)
                    | (buf[pos + 1] << 8)
                    | buf[pos + 2]
                ) + 526336
                pos += 3
            else:
                target = struct.unpack_from(">I", buf, pos)[0]
                pos += 4
            if target in self._cache:
                return self._cache[target], pos - self._base
            if target in self._resolving or len(self._resolving) > 512:
                raise InvalidDatabaseError(
                    "pointer cycle or over-deep pointer chain at offset %d"
                    % target
                )
            self._resolving.add(target)
            try:
                value, _ = self.decode(target)
            finally:
                self._resolving.discard(target)
            self._cache[target] = value
            return value, pos - self._base

        # size field
        size = ctrl & 0x1F
        if size == 29:
            size = 29 + buf[pos]
            pos += 1
        elif size == 30:
            size = 285 + (buf[pos] << 8) + buf[pos + 1]
            pos += 2
        elif size == 31:
            size = 65821 + (buf[pos] << 16) + (buf[pos + 1] << 8) + buf[pos + 2]
            pos += 3

        if type_num == _T_UTF8:
            value = bytes(buf[pos : pos + size]).decode("utf-8", "strict")
            pos += size
        elif type_num == _T_DOUBLE:
            if size != 8:
                raise InvalidDatabaseError("double size != 8")
            value = struct.unpack_from(">d", buf, pos)[0]
            pos += 8
        elif type_num == _T_BYTES:
            value = bytes(buf[pos : pos + size])
            pos += size
        elif type_num == _T_UINT16:
            value = U16(int.from_bytes(bytes(buf[pos : pos + size]), "big")) if size else U16(0)
            pos += size
        elif type_num == _T_UINT32:
            value = int.from_bytes(bytes(buf[pos : pos + size]), "big") if size else 0
            pos += size
        elif type_num in (_T_UINT64, _T_UINT128):
            value = UBIG(int.from_bytes(bytes(buf[pos : pos + size]), "big")) if size else UBIG(0)
            pos += size
        elif type_num == _T_MAP:
            value = {}
            off = pos - self._base
            for _ in range(size):
                key, off = self.decode(off)
                val, off = self.decode(off)
                value[key] = val
            return value, off
        elif type_num == _T_INT32:
            value = int.from_bytes(bytes(buf[pos : pos + size]), "big", signed=True) if size else 0
            pos += size
        elif type_num == _T_ARRAY:
            value = []
            off = pos - self._base
            for _ in range(size):
                item, off = self.decode(off)
                value.append(item)
            return value, off
        elif type_num == _T_BOOL:
            value = size != 0
        elif type_num == _T_FLOAT:
            if size != 4:
                raise InvalidDatabaseError("float size != 4")
            value = struct.unpack_from(">f", buf, pos)[0]
            pos += 4
        elif type_num in (_T_CONTAINER, _T_END_MARKER):
            raise InvalidDatabaseError("unexpected type %d in data" % type_num)
        else:
            raise InvalidDatabaseError("unknown type %d" % type_num)

        return value, pos - self._base


class MMDBReader:
    """mmap-backed MaxMind-DB reader with longest-prefix-match ``get``.

    ``get(ip)`` returns ``(record, prefix_len)`` — the decoded record dict (or
    None when the address has no data) plus the matched network prefix length
    (used to reconstruct the ``network`` CIDR field the way the Java
    ``Network.toString()`` does, ``GeoIPFilter.java:445,467``).
    """

    def __init__(self, path: str):
        self._path = path
        try:
            self._file = open(path, "rb")
        except OSError as e:
            raise FileNotFoundError("The database provided was not found in the path") from e
        try:
            self._mmap = mmap.mmap(self._file.fileno(), 0, access=mmap.ACCESS_READ)
        except ValueError as e:  # empty file
            self._file.close()
            raise InvalidDatabaseError("The database provided is invalid or corrupted.") from e

        marker_at = self._mmap.rfind(METADATA_MARKER)
        if marker_at < 0:
            self.close()
            raise InvalidDatabaseError("The database provided is invalid or corrupted.")
        meta_decoder = _Decoder(self._mmap, marker_at + len(METADATA_MARKER))
        try:
            self.metadata, _ = meta_decoder.decode(0)
            self.node_count = int(self.metadata["node_count"])
            self.record_size = int(self.metadata["record_size"])
            self.ip_version = int(self.metadata["ip_version"])
            self.database_type = str(self.metadata["database_type"])
        except (KeyError, TypeError, ValueError, IndexError, struct.error) as e:
            self.close()
            raise InvalidDatabaseError("The database provided is invalid or corrupted.") from e
        if self.record_size not in (24, 28, 32):
            self.close()
            raise InvalidDatabaseError("The database provided is invalid or corrupted.")

        self._node_size = self.record_size // 4
        self._tree_size = self._node_size * self.node_count
        self._data_base = self._tree_size + DATA_SECTION_SEPARATOR_SIZE
        if self.node_count < 0 or self._data_base > len(self._mmap):
            self.close()
            raise InvalidDatabaseError("The database provided is invalid or corrupted.")
        self._decoder = _Decoder(self._mmap, self._data_base)
        # zero-copy byte view of the search tree for the batch walk
        self._tree = np.frombuffer(self._mmap, dtype=np.uint8, count=self._tree_size)

        # IPv4 addresses enter an IPv6 tree at depth 96: follow 96 zero bits
        # once and remember the landing node.
        self._ipv4_start = 0
        if self.ip_version == 6:
            node = 0
            for _ in range(96):
                if node >= self.node_count:
                    break
                node = self._read_record(node, 0)
            self._ipv4_start = node

    # -- tree ---------------------------------------------------------------

    def _read_record(self, node: int, index: int) -> int:
        buf = self._mmap
        base = node * self._node_size
        rs = self.record_size
        if rs == 24:
            off = base + index * 3
            return (buf[off] << 16) | (buf[off + 1] << 8) | buf[off + 2]
        if rs == 28:
            if index == 0:
                return ((buf[base + 3] & 0xF0) << 20) | (buf[base] << 16) | (buf[base + 1] << 8) | buf[base + 2]
            return ((buf[base + 3] & 0x0F) << 24) | (buf[base + 4] << 16) | (buf[base + 5] << 8) | buf[base + 6]
        off = base + index * 4
        return struct.unpack_from(">I", buf, off)[0]

    def get(self, ip) -> Tuple[Optional[Any], int]:
        """Longest-prefix lookup. ``ip`` is an ipaddress.IPv4Address/IPv6Address
        or string. Returns (record, prefix_len); record None = not found."""
        if isinstance(ip, str):
            ip = ipaddress.ip_address(ip)
        if ip.version == 6 and self.ip_version == 4:
            return None, 0

        packed = ip.packed
        if ip.version == 4 and self.ip_version == 6:
            node = self._ipv4_start
            depth0 = 96
        else:
            node = 0
            depth0 = 0
        bit_count = len(packed) * 8
        node_count = self.node_count
        read = self._read_record

        depth = 0
        while depth < bit_count and node < node_count:
            byte = packed[depth >> 3]
            bit = (byte >> (7 - (depth & 7))) & 1
            node = read(node, bit)
            depth += 1

        if node == node_count:
            return None, depth0 + depth
        if node > node_count:
            return self.record_at(node - node_count - DATA_SECTION_SEPARATOR_SIZE), depth0 + depth
        raise InvalidDatabaseError("tree walk ended inside the tree")

    def record_at(self, data_offset: int) -> Any:
        """Decoded record at a data-section offset (memoized per offset)."""
        cache = self._decoder._cache
        if data_offset in cache:
            return cache[data_offset]
        if data_offset < 0:
            raise InvalidDatabaseError("record pointer %d before the data section" % data_offset)
        value, _ = self._decoder.decode(data_offset)
        cache[data_offset] = value
        return value

    def get_ipv4_batch(self, addrs: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Longest-prefix lookup of many IPv4 addresses at once.

        ``addrs`` holds the addresses as uint32. Walks all of them down the
        tree together, one bit per step, gathering child records from the
        mmap'd tree bytes. Returns ``(data_offset, prefix_len)`` as int64 and
        int16 arrays with ``get``'s meaning of the prefix length (counted
        from the IPv6 root in IPv6 trees). The offset is ``NOT_FOUND`` where
        ``get`` returns no record or raises on the walk: no data, a walk that
        ends inside the tree, or a pointer before the data section. Records
        are decoded by the caller with ``record_at``."""
        addrs = np.asarray(addrs, dtype=np.uint32)
        node_count = self.node_count
        depth0 = 96 if self.ip_version == 6 else 0
        node = np.full(len(addrs), self._ipv4_start, dtype=np.int64)
        depth = np.zeros(len(addrs), dtype=np.int16)
        # the walks still inside the tree: their positions, nodes, addresses
        live = np.flatnonzero(node < node_count)
        cur, bits = node[live], addrs[live].astype(np.int64)
        for step in range(32):
            if not len(live):
                break
            cur = self._read_records(cur, (bits >> (31 - step)) & 1)
            done = cur >= node_count
            if done.any():
                node[live[done]] = cur[done]
                depth[live[done]] = step + 1
                stay = ~done
                live, cur, bits = live[stay], cur[stay], bits[stay]
        node[live] = cur  # walks that ended inside the tree
        depth[live] = 32
        offset = node - (node_count + DATA_SECTION_SEPARATOR_SIZE)
        offset[(node <= node_count) | (offset < 0)] = NOT_FOUND
        return offset, depth + depth0

    def _read_records(self, node: np.ndarray, bit: np.ndarray) -> np.ndarray:
        """Vectorized ``_read_record``: record ``bit`` of each node."""
        tree = self._tree
        rs = self.record_size
        if rs == 32:
            return tree.view(">u4")[node * 2 + bit].astype(np.int64)
        if rs == 28:  # the middle byte holds both records' high nibbles
            base = node * 7
            at = base + bit * 4
            mid = tree[base + 3].astype(np.int64)
            value = np.where(bit == 1, mid & 0x0F, mid >> 4) << 24
        else:
            at = node * 6 + bit * 3
            value = np.zeros(len(node), dtype=np.int64)
        for k in range(3):
            value |= tree[at + k].astype(np.int64) << (16 - 8 * k)
        return value

    def networks(self, ipv4_only: bool = True):
        """Yield ``(ipaddress.ip_network, record)`` for every data-bearing
        leaf, by depth-first tree walk. Used by the synthetic-transcript
        generator to draw a deterministic IP pool from the fixture DBs;
        not a hot path."""
        start = self._ipv4_start if (ipv4_only and self.ip_version == 6) else 0
        base_depth = 96 if (ipv4_only and self.ip_version == 6) else 0
        total_bits = 32 if ipv4_only else (128 if self.ip_version == 6 else 32)
        stack = [(start, 0, 0)]  # (node, depth-from-start, prefix bits)
        while stack:
            node, depth, prefix = stack.pop()
            if node >= self.node_count:
                if node == self.node_count:
                    continue
                record = self.record_at(node - self.node_count - DATA_SECTION_SEPARATOR_SIZE)
                if ipv4_only:
                    addr = ipaddress.IPv4Address(prefix << (32 - depth))
                elif self.ip_version == 6:
                    addr = ipaddress.IPv6Address(prefix << (total_bits - depth))
                else:
                    addr = ipaddress.IPv4Address(prefix << (total_bits - depth))
                yield ipaddress.ip_network((addr, depth)), record
                continue
            if depth >= total_bits:
                continue
            # visit left (bit 0) after right so pops run in ascending order
            stack.append((self._read_record(node, 1), depth + 1, (prefix << 1) | 1))
            stack.append((self._read_record(node, 0), depth + 1, prefix << 1))

    # -- lifecycle ----------------------------------------------------------

    def close(self) -> None:
        self._tree = None  # release the buffer export, or mmap.close() fails
        try:
            if getattr(self, "_mmap", None) is not None:
                self._mmap.close()
        finally:
            if getattr(self, "_file", None) is not None:
                self._file.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def resolve_distinct(offsets: np.ndarray, resolve: Callable[[int], Any]) -> Tuple[np.ndarray, list]:
    """Call ``resolve`` once per distinct data offset of a batch lookup.
    Returns ``(slot, values)``: the non-None results in order, and each
    offset's index into them (-1 for ``NOT_FOUND`` or a None result)."""
    distinct, inverse = np.unique(offsets, return_inverse=True)
    values: list = []
    slots = np.full(len(distinct), -1, dtype=np.int64)
    for i, offset in enumerate(distinct.tolist()):
        value = None if offset == NOT_FOUND else resolve(offset)
        if value is not None:
            slots[i] = len(values)
            values.append(value)
    return slots[inverse], values


def is_database_valid(path: str) -> bool:
    """Open/close probe mirroring ``GeoIPFilter.isDatabaseValid``
    (``GeoIPFilter.java:109-119``): True iff the file opens as a valid MMDB."""
    try:
        MMDBReader(path).close()
        return True
    except (InvalidDatabaseError, FileNotFoundError, OSError):
        return False
