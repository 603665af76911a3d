"""Per-layer metrics of the traced run. Each is measured from outside, by
timing calls into the layer's public functions on the workload's own
input, under a span of the run's tracer. Single-process figures run in the
benchmark process while the Ray session is idle."""

from __future__ import annotations

import os
import shutil
import statistics
import time
from pathlib import Path
from typing import Dict, List, Tuple

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

#: distinct tokens timed by the per-lookup figures
LOOKUP_SAMPLE = 20_000
REPEATS = 3


class PreEnriched:
    """``shard_fn`` for the resumable write that returns the routed table
    enriched ahead of time, so a write pass times fan-out and compaction
    alone."""

    def __init__(self, directory: str):
        self.directory = directory

    def __call__(self, input_path: str) -> pa.Table:
        return pq.read_table(os.path.join(self.directory, os.path.basename(input_path)))


def _median_time(fn, repeats: int = REPEATS) -> float:
    walls = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        walls.append(time.perf_counter() - t0)
    return statistics.median(walls)


def _each(fn, tables: List[pa.Table]) -> List[pa.Table]:
    return [fn(t) for t in tables]


def measure(b, setup: List[Tuple[float, float]], median_wall: float, cpus: int) -> Dict:
    """Every per-layer metric for bench ``b`` (see README's layer map)."""
    import ray

    from logstash_filter_geoip_ray.functions.iputil import parse_ip
    from logstash_filter_geoip_ray.pipelines.geoip_pipeline import (
        add_routing_keys,
        sink_counts,
    )
    from logstash_filter_geoip_ray.sources.readers import read_transcripts_parquet
    from logstash_filter_geoip_ray.stages.enrich import GeoIPLookup, WorkerCachedEnricher
    from logstash_filter_geoip_ray.stages.parse import make_extract_ips
    from logstash_filter_geoip_ray.state.mmdb import MMDBReader

    from perfbench.run import aggregate_query, read_blocks

    span = b.tracer.span
    tr, wl = b.traffic, b.wl
    rows = tr.rows
    write_query = wl.query == "write"
    columns = None if write_query else ["text", "tool"]
    config = b.full_config if write_query else b.country_config
    shards = sorted(str(p) for p in Path(tr.dir).glob("*.parquet"))
    m: Dict[str, Tuple[float, str]] = {}

    m["setup.ray_init_s"] = (statistics.median(i for i, _ in setup), "s")
    m["setup.first_pass_s"] = (statistics.median(f for _, f in setup), "s")

    def open_close():
        GeoIPLookup(b.full_config).close()

    with span("enrich.open"):
        m["enrich.open_s"] = (_median_time(open_close, 5), "s")

    # sources: the Ray read alone, and the single-core read behind it
    def ray_read():
        read_transcripts_parquet(tr.dir, columns=columns,
                                 override_num_blocks=read_blocks(wl.shards)).materialize()

    with span("sources.read"):
        m["sources.read.rows_per_s"] = (rows / _median_time(ray_read), "rows/s")
    with span("sources.read_single"):
        read_s = _median_time(lambda: [pq.read_table(p, columns=columns) for p in shards])
    tables = [pq.read_table(p, columns=columns) for p in shards]

    extract = make_extract_ips(drop_text=not write_query)
    with span("parse.extract"):
        extract_s = _median_time(lambda: _each(extract, tables))
    m["parse.extract.rows_per_s"] = (rows / extract_s, "rows/s")
    extracted = _each(extract, tables)
    # the routed write enriches whole rows, text included
    full_tables = extracted if write_query else _each(
        make_extract_ips(), [pq.read_table(p) for p in shards])

    # enrich: per-token costs on a fresh lookup (LRU and decoder cold)
    tokens: List[str] = []
    seen = set()
    for t in extracted:
        for tok in pc.unique(t["source_ip"].combine_chunks()).to_pylist():
            if tok and tok.strip() and tok not in seen:
                seen.add(tok)
                tokens.append(tok)
    sample = tokens[:LOOKUP_SAMPLE]
    lookup = GeoIPLookup(b.country_config)
    with span("enrich.lookup"):
        t0 = time.perf_counter()
        for tok in sample:
            lookup.lookup(tok)
        m["enrich.lookup.us"] = ((time.perf_counter() - t0) / len(sample) * 1e6, "us")
    lookup.close()
    addrs = [a for a in (parse_ip(tok) for tok in sample) if a is not None]
    reader = MMDBReader(b.world.path)
    with span("mmdb.get"):
        t0 = time.perf_counter()
        for a in addrs:
            reader.get(a)
        m["mmdb.get.us"] = ((time.perf_counter() - t0) / len(addrs) * 1e6, "us")
    reader.close()

    # how much the batch dictionary and the LRU save: each shard's distinct
    # tokens replayed, in order, through one lookup with the configured LRU
    distinct = sum(len(pc.unique(t["source_ip"].combine_chunks())) for t in extracted)
    m["enrich.distinct_share"] = (distinct / rows, "ratio")
    lookup = GeoIPLookup(b.country_config)
    with span("enrich.lru_replay"):
        for t in extracted[:4]:
            for tok in pc.unique(t["source_ip"].combine_chunks()).to_pylist():
                if tok and tok.strip():
                    lookup.lookup(tok)
    info = lookup.lookup.cache_info()
    lookup.close()
    m["enrich.lru_hit_ratio"] = (info.hits / max(1, info.hits + info.misses), "ratio")

    # enrich batches in this process; the first call opens the database
    def enrich_rate(name: str, cfg, inputs: List[pa.Table]) -> Tuple[float, List[pa.Table]]:
        enricher = WorkerCachedEnricher(cfg)
        enricher(inputs[0].slice(0, 16))
        with span(name):
            t0 = time.perf_counter()
            out = _each(enricher, inputs)
            return rows / (time.perf_counter() - t0), out

    rate, enriched_country = enrich_rate("enrich.batch", b.country_config, extracted)
    m["enrich.batch.rows_per_s"] = (rate, "rows/s")
    full_rate, enriched_full = enrich_rate("enrich.batch_full", b.full_config, full_tables)
    m["enrich.batch_full.rows_per_s"] = (full_rate, "rows/s")
    enrich_s = rows / (full_rate if write_query else m["enrich.batch.rows_per_s"][0])

    routing = add_routing_keys(config.resolved_target())
    enriched = enriched_full if write_query else enriched_country
    with span("route"):
        route_s = _median_time(lambda: _each(routing, enriched))
    m["route.rows_per_s"] = (rows / route_s, "rows/s")
    routed = _each(routing, enriched)

    busy = read_s + extract_s + enrich_s + route_s
    m["pipeline.cpu_efficiency"] = (busy / (median_wall * cpus), "ratio")

    def aggregate():
        ray.get(sink_counts(ray.data.from_arrow(routed)).to_arrow_refs())

    with span("aggregate.sink_counts"):
        m["aggregate.sink_counts_s"] = (_median_time(aggregate), "s")

    one = b.work / "one-shard"
    one.mkdir()
    shutil.copy(shards[0], one / os.path.basename(shards[0]))

    def one_shard():
        ray.get(aggregate_query(str(one), 1, b.country_config))

    with span("pipeline.one_shard"):
        m["pipeline.fixed_s"] = (_median_time(one_shard), "s")

    # write: fan-out and compaction alone, on shards enriched ahead of time
    pre = b.work / "pre-enriched"
    pre.mkdir(exist_ok=True)
    full_routing = add_routing_keys(b.full_config.resolved_target())
    for p, t in zip(shards, enriched_full):
        pq.write_table(full_routing(t), pre / os.path.basename(p))
    walls = [b.write_pass("layer", shard_fn=PreEnriched(str(pre))).wall for _ in range(REPEATS)]
    m["write.rows_per_s"] = (rows / statistics.median(walls), "rows/s")
    m["write.sink_files"] = (b.sink[0], "files")
    m["write.sink_mb"] = (b.sink[1] / 1e6, "MB")
    return m
