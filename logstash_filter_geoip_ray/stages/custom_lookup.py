"""Generic MMDB-backed lookup enrichment: serve ANY side table compiled with
``state.mmdb_writer.build_mmdb_from_table`` through the same per-worker
mmap + LRU path as GeoIP.

This is the scale shape for medium-size lookup joins (too big to broadcast
as a Python dict per batch, too small to shuffle-join): compile once to an
MMDB file (longest-prefix keyed for CIDRs), ship the *path*, mmap in every
worker."""

from __future__ import annotations

import struct
from functools import lru_cache
from typing import Dict, Optional

import numpy as np
import pyarrow as pa

from ..functions.iputil import parse_ip, parse_ipv4_array
from ..state.mmdb import MMDBReader, resolve_distinct

_PROCESS_READERS: dict = {}

_DECODE_ERRORS = (ValueError, IndexError, KeyError, struct.error)


class CustomMMDBEnricher:
    """map_batches callable: look up ``source_column`` (IP/CIDR-keyed) in a
    custom MMDB and emit ``output_column`` as a struct of ``fields``
    (name → pyarrow type). Misses/malformed → null struct. IPv4 dotted
    quads go through the reader's batch tree walk; other strings through
    an LRU. One reader + LRU per worker process."""

    def __init__(
        self,
        db_path: str,
        fields: Dict[str, pa.DataType],
        source_column: str = "source_ip",
        output_column: str = "lookup",
        cache_size: int = 10_000,
    ):
        self.db_path = db_path
        self.fields = list(fields.items())
        self.source_column = source_column
        self.output_column = output_column
        self.cache_size = cache_size

    def _reader_and_lookup(self):
        key = (self.db_path, self.cache_size)
        entry = _PROCESS_READERS.get(key)
        if entry is None:
            reader = MMDBReader(self.db_path)

            @lru_cache(maxsize=self.cache_size)
            def lookup(raw: str):
                addr = parse_ip(raw)
                if addr is None:
                    return None
                try:
                    record, _ = reader.get(addr)
                except _DECODE_ERRORS:
                    return None
                return record

            entry = (reader, lookup)
            _PROCESS_READERS[key] = entry
        return entry

    def __call__(self, batch: pa.Table) -> pa.Table:
        reader, lookup = self._reader_and_lookup()
        src = batch[self.source_column]
        if isinstance(src, pa.ChunkedArray):
            src = src.combine_chunks()
        enc = src.dictionary_encode()
        dictionary = enc.dictionary.cast(pa.string())
        # per distinct source string: its slot in `records`, -1 = no record
        is_v4, addrs = parse_ipv4_array(dictionary)
        offsets, _ = reader.get_ipv4_batch(addrs)
        v4_slot, records = resolve_distinct(offsets, lambda offset: _record_at(reader, offset))
        slot = np.full(len(dictionary), -1, dtype=np.int64)
        slot[is_v4] = v4_slot
        fallback = np.flatnonzero(~is_v4)
        for pos, raw in zip(fallback.tolist(), dictionary.take(fallback).to_pylist()):
            record = lookup(raw)
            if record is not None:
                slot[pos] = len(records)
                records.append(record)

        # Null source rows keep a null index, so they can never alias
        # dictionary slot 0's record; misses take a null index too.
        row_slot = np.asarray(pa.array(slot).take(enc.indices).fill_null(-1))
        found = row_slot >= 0
        row_record = pa.array(row_slot, mask=~found)
        child_arrays = [
            pa.array([r.get(name) for r in records], type=typ).take(row_record)
            for name, typ in self.fields
        ]
        names = [name for name, _ in self.fields]
        struct_arr = pa.StructArray.from_arrays(child_arrays, names=names, mask=pa.array(~found))
        if self.output_column in batch.column_names:
            batch = batch.drop_columns([self.output_column])
        return batch.append_column(self.output_column, struct_arr)


def _record_at(reader: MMDBReader, offset: int) -> Optional[dict]:
    try:
        return reader.record_at(offset)
    except _DECODE_ERRORS:
        return None
