"""Ground-truth checker: every expected value comes from the generator's
per-row truth (``fixtures.Traffic`` + ``fixtures.World``), never from a
stored copy of program output."""

from __future__ import annotations

import functools
import os
from pathlib import Path
from typing import Dict, List, Tuple

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.dataset as pds
import pyarrow.parquet as pq

from .fixtures import COUNTRIES, HIT, MISS_KEY, TOOLS, TURNS_PER_CONV, Traffic, World


class Truth:
    """Per-row expected sink and City values for one workload's input."""

    def __init__(self, w: World, tr: Traffic, shard_dir: str):
        """Truth for the rows held by the shard files in ``shard_dir``:
        all of ``tr``, or a prefix of it (its first shards)."""
        self.files = sorted(Path(shard_dir).glob("*.parquet"))
        self.rows = rows = sum(pq.ParquetFile(p).metadata.num_rows for p in self.files)
        klass, net, tool = tr.klass[:rows], tr.net[:rows], tr.tool[:rows]
        hit = klass == HIT
        iso = np.array([c[0] for c in COUNTRIES] + [MISS_KEY], dtype=object)
        cidx = np.full(rows, len(COUNTRIES), dtype=np.int64)
        cidx[hit] = w.net_country[net[hit]]
        self.country = iso[cidx]  # ISO code or "_miss"
        self.city = np.full(rows, None, dtype=object)
        self.city[hit] = w.city_names[w.net_city[net[hit]]]
        self.tool = np.array(TOOLS, dtype=object)[tool]
        per_key = np.bincount(cidx * len(TOOLS) + tool,
                              minlength=len(iso) * len(TOOLS))
        self.counts: Dict[Tuple[str, str], int] = {
            (iso[k // len(TOOLS)], TOOLS[k % len(TOOLS)]): int(n)
            for k, n in enumerate(per_key.tolist()) if n
        }


    @functools.cached_property
    def text(self) -> pa.Array:
        """The input's own text: the routed write must carry it byte for byte."""
        return pa.concat_tables(pq.read_table(p, columns=["text"]) for p in self.files
                                )["text"].combine_chunks()


def check_counts(truth: Truth, result: pa.Table) -> List[str]:
    """``sink_counts`` output against the expected (country, tool) counts."""
    got: Dict[Tuple[str, str], int] = {}
    errors = []
    for c, t, n in zip(result["country"].to_pylist(), result["tool"].to_pylist(),
                       result["n"].to_pylist()):
        if (c, t) in got:
            errors.append("sink %s/%s reported twice" % (c, t))
        got[(c, t)] = int(n)
    for key in sorted(set(got) | set(truth.counts)):
        if got.get(key) != truth.counts.get(key):
            errors.append("sink %s/%s: got %s rows, expected %s"
                          % (key + (got.get(key), truth.counts.get(key))))
    return errors


def _row_index(tbl: pa.Table) -> np.ndarray:
    conv = pc.cast(pc.utf8_slice_codeunits(tbl["conv_id"], 5), pa.int64())
    return conv.to_numpy() * TURNS_PER_CONV + tbl["turn_idx"].to_numpy().astype(np.int64)


def check_routed(truth: Truth, out_dir: str) -> Tuple[List[str], int, int]:
    """Routed sinks under ``out_dir`` (``country=<c>/tool=<t>/*.parquet``)
    against the truth. Returns (errors, files, bytes)."""
    if not os.path.isdir(out_dir):
        return ["no output directory"], 0, 0
    keys = pds.partitioning(pa.schema([("country", pa.string()), ("tool", pa.string())]),
                            flavor="hive")
    data = pds.dataset(out_dir, format="parquet", partitioning=keys)
    files = sorted(data.files)
    size = sum(os.path.getsize(f) for f in files)
    # one scan, rows in file order (sorted paths) and in order within a file
    tbl = data.to_table(columns=["country", "tool", "conv_id", "turn_idx", "text", "geoip"])
    errors: List[str] = []
    idx = _row_index(tbl)
    if len(idx) and (idx.min() < 0 or idx.max() >= truth.rows):
        return ["rows outside the input"], len(files), size
    country = tbl["country"].to_numpy(zero_copy_only=False)
    tool = tbl["tool"].to_numpy(zero_copy_only=False)
    sink = np.char.add(np.char.add(country.astype(str), "/"), tool.astype(str))
    # a sink's rows are contiguous in the scan: order is checked between
    # neighbours of the same sink
    same_sink = sink[1:] == sink[:-1]
    for name in sorted(set(sink[1:][same_sink & (np.diff(idx) < 0)].tolist())):
        errors.append("%s: (conv_id, turn_idx) decreases" % name)
    wrong = (truth.country[idx] != country) | (truth.tool[idx] != tool)
    for name in sorted(set(sink[wrong].tolist())):
        errors.append("%s: holds rows of another sink" % name)
    geo = tbl["geoip"].combine_chunks()
    cc = pc.struct_field(geo, "country_code2").to_numpy(zero_copy_only=False)
    city = pc.struct_field(geo, "city_name").to_numpy(zero_copy_only=False)
    exp_cc = np.where(truth.country[idx] == MISS_KEY, None, truth.country[idx])
    for name in sorted(set(sink[cc != exp_cc].tolist())):
        errors.append("%s: wrong geoip.country_code2" % name)
    for name in sorted(set(sink[city != truth.city[idx]].tolist())):
        errors.append("%s: wrong geoip.city_name" % name)
    if not tbl["text"].combine_chunks().equals(truth.text.take(pa.array(idx))):
        errors.append("text differs from the input")
    allidx = np.sort(idx)
    if len(allidx) != truth.rows or np.any(allidx != np.arange(truth.rows)):
        errors.append("rows lost or duplicated: %d written for %d input rows"
                      % (len(allidx), truth.rows))
    return errors, len(files), size
