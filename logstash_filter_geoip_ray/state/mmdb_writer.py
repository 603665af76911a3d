"""Minimal MaxMind-DB *writer* — compiles (network → record) pairs into an
MMDB file readable by ``state.mmdb.MMDBReader`` (and any spec-compliant
reader). Written from the same public format spec as the reader.

Why the engine ships a writer: the reference consumes vendor-built MMDBs
only; at pipeline scale the natural source of enrichment side tables is a
Parquet table (IP reputation lists, allocation feeds, customer CIDR maps).
``build_mmdb`` turns such a table into the mmap-friendly binary the enrich
actors already know how to serve, so custom lookup joins get the same
per-worker mmap + LRU path as GeoIP.

Implementation notes:
- always an IPv6 tree (ip_version=6, record_size=32); IPv4 networks are
  inserted under the ::/96-mapped space exactly where readers expect them;
- the data section deduplicates identical records (offset reuse — the
  format's pointer mechanism is not needed for correctness, so values are
  emitted inline once per distinct record);
- supported value types: str, bool, int (uint16/32/64/128 by magnitude;
  negative → int32, so the encodable range is [-2^31, 2^128) — out-of-range
  ints raise TypeError at build time; ``mmdb.U32`` forces uint32), float
  (double), dict, list.
"""

from __future__ import annotations

import ipaddress
import struct
import time
from typing import Dict, Iterable, List, Optional, Tuple

from .mmdb import DATA_SECTION_SEPARATOR_SIZE, METADATA_MARKER, U32


def _encode_value(value) -> bytes:
    """Encode one value in the MMDB data-section tagged format."""
    if isinstance(value, bool):
        # type 14 (extended): ctrl byte 0 with size=0/1, ext byte 14-7
        return bytes([(0 << 5) | (1 if value else 0), 14 - 7])
    if isinstance(value, str):
        data = value.encode("utf-8")
        return _ctrl(2, len(data)) + data
    if isinstance(value, float):
        return _ctrl(3, 8) + struct.pack(">d", value)
    if isinstance(value, int):
        if value < -(1 << 31) or value >= (1 << 128):
            # int32 is the only signed type; uint128 caps the unsigned range
            raise TypeError(
                "MMDB integer out of encodable range [-2^31, 2^128): %r" % value
            )
        if isinstance(value, U32) and not 0 <= value < (1 << 32):
            raise TypeError("U32 out of range [0, 2^32): %r" % value)
        if value < 0:
            return bytes([(0 << 5) | 4, 8 - 7]) + struct.pack(">i", value)
        if value < (1 << 16) and not isinstance(value, U32):
            payload = value.to_bytes((value.bit_length() + 7) // 8, "big") if value else b""
            return _ctrl(5, len(payload)) + payload
        if value < (1 << 32):
            payload = value.to_bytes((value.bit_length() + 7) // 8, "big")
            return _ctrl(6, len(payload)) + payload
        payload = value.to_bytes((value.bit_length() + 7) // 8, "big")
        if value < (1 << 64):
            return bytes([(0 << 5) | len(payload), 9 - 7]) + payload
        return bytes([(0 << 5) | len(payload), 10 - 7]) + payload
    if isinstance(value, dict):
        out = _ctrl(7, len(value))
        for k, v in value.items():
            out += _encode_value(str(k))
            out += _encode_value(v)
        return out
    if isinstance(value, (list, tuple)):
        out = bytes([(0 << 5) | 0, 11 - 7]) if len(value) == 0 else _ext_ctrl(11, len(value))
        for item in value:
            out += _encode_value(item)
        return out
    if isinstance(value, bytes):
        return _ctrl(4, len(value)) + value
    raise TypeError("unsupported MMDB value type: %r" % type(value))


def _ctrl(type_num: int, size: int) -> bytes:
    """Control byte(s) for a non-extended type."""
    if size < 29:
        return bytes([(type_num << 5) | size])
    if size < 29 + 256:
        return bytes([(type_num << 5) | 29, size - 29])
    if size < 285 + 65536:
        return bytes([(type_num << 5) | 30]) + (size - 285).to_bytes(2, "big")
    return bytes([(type_num << 5) | 31]) + (size - 65821).to_bytes(3, "big")


def _ext_ctrl(type_num: int, size: int) -> bytes:
    """Control bytes for an extended type: first byte carries type=0 + size
    bits, the extended-type byte comes NEXT, size-extension bytes after."""
    ext = bytes([type_num - 7])
    if size < 29:
        return bytes([size]) + ext
    if size < 29 + 256:
        return bytes([29]) + ext + bytes([size - 29])
    if size < 285 + 65536:
        return bytes([30]) + ext + (size - 285).to_bytes(2, "big")
    return bytes([31]) + ext + (size - 65821).to_bytes(3, "big")


class _Node:
    __slots__ = ("left", "right", "data_offset")

    def __init__(self):
        self.left: Optional["_Node"] = None
        self.right: Optional["_Node"] = None
        self.data_offset: Optional[int] = None


def build_mmdb(
    entries: Iterable[Tuple[str, dict]],
    out_path: str,
    database_type: str = "Custom-Enrichment",
    description: str = "engine-built lookup table",
) -> str:
    """Compile ``(cidr_string, record_dict)`` pairs into an MMDB file.

    More-specific networks win on overlap (inserted by ascending prefix
    length, so /24 refines a /16's subtree). Returns ``out_path``."""
    # encode data section with dedup of identical records
    data = bytearray()
    offsets: Dict[bytes, int] = {}

    def record_offset(record: dict) -> int:
        blob = _encode_value(record)
        found = offsets.get(blob)
        if found is not None:
            return found
        off = len(data)
        data.extend(blob)
        offsets[blob] = off
        return off

    root = _Node()
    parsed: List[Tuple[ipaddress._BaseNetwork, dict]] = []
    for cidr, record in entries:
        parsed.append((ipaddress.ip_network(cidr, strict=False), record))
    parsed.sort(key=lambda e: (e[0].prefixlen + (96 if e[0].version == 4 else 0)))

    for net, record in parsed:
        off = record_offset(record)
        # unified 128-bit view: IPv4 sits in the ::/96-mapped low 32 bits
        if net.version == 4:
            addr128 = int(net.network_address)
            bits = 96 + net.prefixlen
        else:
            addr128 = int(net.network_address)
            bits = net.prefixlen
        node = root
        for depth in range(bits):
            if net.version == 4:
                bit = 0 if depth < 96 else (addr128 >> (31 - (depth - 96))) & 1
            else:
                bit = (addr128 >> (127 - depth)) & 1
            child = node.right if bit else node.left
            if child is None or child.data_offset is not None:
                new = _Node()
                if child is not None and child.data_offset is not None and depth < bits - 1:
                    # refine under a broader record: both halves inherit it,
                    # our side is overridden as the walk continues
                    new.left = _Node()
                    new.left.data_offset = child.data_offset
                    new.right = _Node()
                    new.right.data_offset = child.data_offset
                if bit:
                    node.right = new
                else:
                    node.left = new
                child = new
            node = child
        node.left = None
        node.right = None
        node.data_offset = off

    # number interior nodes breadth-first
    order: List[_Node] = []

    def collect(n: _Node):
        if n.data_offset is not None:
            return
        order.append(n)
        if n.left is not None:
            collect(n.left)
        if n.right is not None:
            collect(n.right)

    collect(root)
    node_ids = {id(n): i for i, n in enumerate(order)}
    node_count = len(order)

    def record_value(child: Optional[_Node]) -> int:
        if child is None:
            return node_count  # no data
        if child.data_offset is not None:
            return node_count + DATA_SECTION_SEPARATOR_SIZE + child.data_offset
        return node_ids[id(child)]

    tree = bytearray()
    for n in order:
        tree += struct.pack(">II", record_value(n.left), record_value(n.right))

    metadata = {
        "binary_format_major_version": 2,
        "binary_format_minor_version": 0,
        "build_epoch": 0,  # deterministic output
        "database_type": database_type,
        "description": {"en": description},
        "ip_version": 6,
        "languages": ["en"],
        "node_count": node_count,
        "record_size": 32,
    }

    with open(out_path, "wb") as f:
        f.write(bytes(tree))
        f.write(b"\x00" * DATA_SECTION_SEPARATOR_SIZE)
        f.write(bytes(data))
        f.write(METADATA_MARKER)
        f.write(_encode_value(metadata))
    return out_path


def build_mmdb_from_table(
    table,
    out_path: str,
    cidr_col: str = "network",
    database_type: str = "Custom-Enrichment",
):
    """Compile a pyarrow Table (one row per CIDR, other columns become the
    record fields; nulls omitted) into an MMDB file."""
    cols = [c for c in table.column_names if c != cidr_col]
    entries = []
    for row in table.to_pylist():
        record = {c: row[c] for c in cols if row[c] is not None}
        entries.append((row[cidr_col], record))
    return build_mmdb(entries, out_path, database_type=database_type)
