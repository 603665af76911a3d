"""The flagship pipeline (north_star): parse → enrich → route → aggregate
over transcript Parquet.

Stage map (SURVEY.md §2.B):
  P1 ``ray.data.read_parquet(transcripts)``   — column-pruned read
  P2 ``map_batches(extract_ips)``              — stateless vectorized grok
  P3 ``map_batches(WorkerCachedEnricher)``     — per-worker mmap+LRU state
     (or ``map_batches(GeoIPEnricher, concurrency=N)`` actor pool mode)
  route ``map_batches(add_routing_keys)``      — country ∥ "_miss", tool
  P4 ``write_parquet(partition_cols=[country, tool])`` — fan-out sinks
  P5 ``grouped_counts`` / ``turn_histogram``   — partial-agg + tiny shuffle

Everything streams: no full materialization between stages; the only wide
exchanges are the two final aggregates over pre-combined partials.
"""

from __future__ import annotations

import os
from typing import Optional, Sequence, Tuple

import pyarrow as pa
import pyarrow.compute as pc

from ..functions.config import GeoIPConfig
from ..sources.transcripts import DEFAULT_CITY_DB, ip_geo_path, transcripts_path
from ..stages.aggregate import grouped_counts, turn_histogram
from ..stages.enrich import GeoIPEnricher, WorkerCachedEnricher
from ..stages.parse import make_extract_ips

MISS_KEY = "_miss"


def default_config(database: str = DEFAULT_CITY_DB) -> GeoIPConfig:
    return GeoIPConfig(source="source_ip", database=database)


def add_routing_keys(
    target_column: str = "geoip", country_col: str = "country", ecs: bool = False
):
    """Routing key = country code ∥ '_miss' (FIXTURES.md §5): read from the
    flat legacy child or the nested ECS path geo.country_iso_code."""
    path = ["geo", "country_iso_code"] if ecs else ["country_code2"]

    def fn(batch: pa.Table) -> pa.Table:
        target = batch[target_column]
        if isinstance(target, pa.ChunkedArray):
            target = target.combine_chunks()
        country = pc.struct_field(target, path)
        country = pc.fill_null(country, MISS_KEY)
        if country_col in batch.column_names:
            batch = batch.drop_columns([country_col])
        return batch.append_column(country_col, country)

    return fn


def build_enriched(
    sf_dir: str,
    config: Optional[GeoIPConfig] = None,
    rows: Optional[int] = None,
    enrich_mode: str = "tasks",
    concurrency=None,
    batch_size: Optional[int] = None,
    columns: Optional[list] = None,
    add_routing: bool = True,
    drop_text: bool = False,
    enrich_fields: Optional[Sequence[str]] = None,
):
    """Dataset of transcripts + geoip struct + tags + country routing key.

    ``columns`` prunes the Parquet read to exactly the needed input columns
    (aggregate-only consumers: pass ``["text", "tool"]`` etc. — at fleet
    scale an unpruned read roughly doubles scanned bytes for the headline
    aggregates). ``drop_text=True`` additionally drops ``text`` right after
    token extraction so the widest column never leaves the first map stage.

    ``enrich_fields`` pushes the projection down THROUGH the enrich stage:
    the enricher materializes only the named geoip fields (the reference's
    desired-fields selection, E14) instead of the full per-DB default set.
    The aggregate-only consumers route on one struct child; building all 14
    City leaves for them triples the enrich kernel cost (measured 22.9 →
    7.4 ms per 64 Ki-row batch with ``("country_code2",)``). Success/failure
    semantics, tags and the routing key are identical — only unused leaves
    are skipped. Leave ``None`` wherever the full struct is consumed (e.g.
    the routed writes).

    - ``enrich_mode="tasks"`` (default): stateless tasks with a per-worker-
      process enricher singleton (WorkerCachedEnricher) — fastest; read-only
      state needs no actor.
    - ``enrich_mode="actors"``: classic actor pool
      (``map_batches(GeoIPEnricher, concurrency=...)``); pass ``concurrency``
      to pin the pool size (defaults to (1, cpus*3/4)).
    - ``batch_size=None`` processes whole blocks per call — all batch fns are
      O(n) vectorized, so bigger batches amortize dispatch; blocks are one
      input shard (~64k rows) each (see transcripts ROWS_PER_SHARD).
    """
    import dataclasses
    import glob

    import ray
    import ray.data

    config = config or default_config()
    if enrich_fields is not None:
        config = dataclasses.replace(config, fields=tuple(enrich_fields))
    path = transcripts_path(sf_dir, rows)
    nfiles = len(glob.glob(os.path.join(path, "*.parquet")))
    # block count: at least one per shard wave, at most ~4 blocks per cpu —
    # per-task driver dispatch is ~1-2 ms, so thousands of tiny blocks put a
    # multi-second serial floor under the whole pipeline; a read task then
    # covers several shard files, which is exactly how a fleet-scale read
    # amortizes small files
    ncpu = 8
    import ray

    if ray.is_initialized():
        ncpu = int(ray.cluster_resources().get("CPU", 8))
    nblocks = min(nfiles, max(4 * ncpu, 64)) if nfiles else None
    read_kwargs = {"override_num_blocks": nblocks} if nblocks else {}
    ds = ray.data.read_parquet(path, columns=columns, **read_kwargs)
    ds = ds.map_batches(
        make_extract_ips(drop_text=drop_text),
        batch_format="pyarrow",
        batch_size=batch_size,
    )
    if enrich_mode == "tasks":
        ds = ds.map_batches(
            WorkerCachedEnricher(config), batch_format="pyarrow", batch_size=batch_size
        )
    elif enrich_mode == "actors":
        if concurrency is None:
            ncpu = int(ray.cluster_resources().get("CPU", 8)) if ray.is_initialized() else 8
            concurrency = (1, max(2, (ncpu * 3) // 4))
        ds = ds.map_batches(
            GeoIPEnricher,
            fn_constructor_args=(config,),
            batch_format="pyarrow",
            batch_size=batch_size,
            concurrency=concurrency,
        )
    else:
        raise ValueError("enrich_mode must be 'tasks' or 'actors'")
    if add_routing:
        # country routing applies to City-shaped targets; pass
        # add_routing=False for other database types (e.g. ASN)
        ds = ds.map_batches(
            add_routing_keys(config.resolved_target(), ecs=config.ecs),
            batch_format="pyarrow",
            batch_size=batch_size,
        )
    return ds


def sink_counts(enriched_ds, count_alias: str = "n"):
    """Per-sink (country, tool) counts, sorted — matches ORACLE_SINK_COUNTS.
    Sorting happens in the driver's last fold (the result is a few hundred
    rows; a Ray Sort operator would be pure fixed overhead). The
    partial counts take whole blocks: a fixed batch size makes Ray bundle
    small blocks into fewer tasks than there are CPUs."""
    return grouped_counts(
        enriched_ds, ["country", "tool"], count_alias, batch_size=None, sort_result=True
    )


def sink_counts_checkpointed(sf_dir: str, work_root: str = "/tmp/graft_ckpt_query"):
    """P8 (checkpoint/resume) through the driver gate: per-shard checkpointed
    enrich into a content-keyed /tmp work dir — a rerun is a pure resume
    (manifests + config hash skip every finished shard) — then the flagship
    (country, tool) aggregate over the checkpoint OUTPUT shards. Must
    reproduce the sink_counts oracle exactly, proving the resumable path
    computes the same answer as the streaming path."""
    import glob as _glob
    import hashlib as _hashlib

    import ray.data

    from ..stages import enrich as _enrich_mod
    from ..stages import parse as _parse_mod
    from ..state import checkpoint as _ckpt_mod
    from ..state.checkpoint import output_path, run_checkpointed

    # key the work dir by input path AND the source bytes of every module
    # that shapes the output — a code change invalidates the cache without
    # anyone remembering to bump ENGINE_VERSION (config_hash only covers
    # the GeoIPConfig fields)
    h = _hashlib.md5()
    path = transcripts_path(sf_dir)
    h.update(path.encode())
    import sys as _sys

    for mod in (_enrich_mod, _parse_mod, _ckpt_mod, _sys.modules[__name__]):
        try:
            with open(mod.__file__, "rb") as f:
                h.update(f.read())
        except (OSError, AttributeError):
            pass
    out_dir = os.path.join(work_root, h.hexdigest()[:16])
    run_checkpointed(path, out_dir)
    inputs = sorted(_glob.glob(os.path.join(path, "*.parquet")))
    # read exactly the outputs of the current inputs (stale files from an
    # older generator revision in the same work dir can never leak in)
    outputs = [output_path(out_dir, p) for p in inputs]
    ds = ray.data.read_parquet(outputs, columns=["country", "tool"])
    return sink_counts(ds)


def country_turn_histogram(enriched_ds, bucket_width: int = 4, count_alias: str = "n"):
    return turn_histogram(
        enriched_ds, "country", "turn_idx", bucket_width, count_alias, sort_result=True
    )


def write_routed(enriched_ds, out_dir: str, cluster: bool = False):
    """P4 routed fan-out: one Parquet directory per (country, tool) sink.

    Hive-partitioned layout → a rerun or downstream reader addresses one sink
    without touching the rest; pairs with state/checkpoint.py manifests.

    ``cluster=False`` (default) streams: every write task splits its block by
    sink → cheapest wall time, but ~#tasks × #sinks small files.
    ``cluster=True`` range-partitions by the sink key first (Ray sort) so
    each task holds whole sinks → ~one file per sink (measured: 2880 files →
    45, +30% wall at 4.2M rows). The fleet-scale shape is
    :func:`write_routed_bucketed` — hash-bucket exchange, no global sort."""
    if cluster:
        enriched_ds = enriched_ds.sort(["country", "tool"])
    enriched_ds.write_parquet(out_dir, partition_cols=["country", "tool"])
    return out_dir


def _probe_write_marker(path: str) -> bool:
    """Shared-storage probe body — runs inside a Ray worker task. Kept
    module-level so :func:`write_routed_bucketed` tests can inject a stand-in
    that writes somewhere else (modeling a worker whose ``out_dir`` resolves
    to node-local disk)."""
    with open(path, "w") as f:
        f.write("ok")
    return True


#: per-worker-process (task_id → next call sequence) for deterministic
#: staged-file names. A RETRIED map task keeps its Ray task id and replays
#: its batches in the same order in a fresh worker (counter resets), so the
#: retry OVERWRITES the failed attempt's files instead of duplicating rows —
#: the same idempotency contract Ray Data's own file datasink provides via
#: deterministic per-task names (verified: task_id is stable across
#: max_retries re-executions; see BASELINE.md round-4 session-2).
_FANOUT_TASK_SEQ: dict = {}


def _sink_runs(tbl: pa.Table, key_cols: Sequence[str], caller: str):
    """Sort ``tbl`` stably by ``key_cols`` and cut it into one run per sink.
    Returns the sorted table and ``[(start, end, sink)]``, where ``sink`` is
    the run's hive path (``country=US/tool=bash``; a null key value is
    ``__HIVE_DEFAULT_PARTITION__``, as in pyarrow)."""
    import numpy as np

    tbl = tbl.take(
        pc.sort_indices(tbl, sort_keys=[(c, "ascending") for c in key_cols])
    )
    n = tbl.num_rows
    # run boundaries over the composite key: adjacent-row inequality on any
    # key col (null-safe: a null != value edge is a boundary too)
    change = np.zeros(max(n - 1, 0), dtype=bool)
    for c in key_cols:
        col = tbl[c].combine_chunks()
        if n > 1:
            a, b = col.slice(0, n - 1), col.slice(1)
            neq = pc.fill_null(pc.not_equal(a, b), False)
            null_edge = pc.xor(pc.is_null(a), pc.is_null(b))
            change |= pc.or_(neq, null_edge).to_numpy(zero_copy_only=False)
    starts = np.concatenate(([0], np.flatnonzero(change) + 1, [n])) if n else [0]
    runs = []
    for i in range(len(starts) - 1):
        s, e = int(starts[i]), int(starts[i + 1])
        parts = []
        for c in key_cols:
            v = tbl[c][s].as_py()
            if v is not None and ("/" in str(v) or "=" in str(v)):
                # a separator in the key value would silently nest dirs /
                # corrupt the sink→dir mapping; routing keys are expected
                # to be sanitized upstream (country codes, tool names)
                raise ValueError(
                    "%s: key value %r in column %r contains '/' or '=' — "
                    "sanitize routing keys upstream" % (caller, v, c)
                )
            parts.append(
                "%s=%s" % (c, "__HIVE_DEFAULT_PARTITION__" if v is None else v)
            )
        runs.append((s, e, "/".join(parts)))
    return tbl, runs


def _stage_runs(path: str, payload: pa.Table, runs: list) -> list:
    """Stage the sink ``runs`` of ``payload`` as ONE uncompressed Arrow IPC
    file at ``path``, published via tmp + atomic rename: one record batch
    per run, or one per chunk of a run that spans chunks of ``payload``
    (Arrow keeps a string column past 2 GiB in several). Returns
    ``[(sink, rows)]`` in file order: entry *i* describes batch *i*.
    Uncompressed is deliberate: per shard it costs about a seventh of lz4
    per run, for about twice the (transient) staged bytes."""
    staged = []
    with pa.OSFile(path + ".tmp", "wb") as f, pa.ipc.new_file(
        f, payload.schema
    ) as w:
        for s, e, sink in runs:
            for b in payload.slice(s, e - s).to_batches():
                if b.num_rows:
                    w.write_batch(b)
                    staged.append((sink, b.num_rows))
    os.replace(path + ".tmp", path)
    return staged


def _hive_fanout_ipc(staging: str, key_cols: Sequence[str]):
    """Phase-1 fan-out map fn for :func:`write_routed_bucketed` with
    ``staging_format='ipc'``: split each block into per-sink runs (one sort +
    zero-copy slices) and stage them as one Arrow IPC file
    (:func:`_stage_runs`). IPC encode is ~memcpy, so the data is
    parquet-encoded exactly ONCE (in the phase-2 compaction) instead of
    twice. Emits one (sink, rows, file, batch) row per staged batch: the
    phase-2 part list.

    File names are DETERMINISTIC per (task, call) and published via tmp +
    atomic rename: a task retry overwrites its own partial output (never
    duplicates it), and a crash mid-write leaves only ``*.tmp`` strays no
    part list names."""
    key_cols = list(key_cols)

    def fn(batch: pa.Table) -> pa.Table:
        import ray

        tbl, runs = _sink_runs(batch, key_cols, "write_routed_bucketed")
        try:
            tid = ray.get_runtime_context().get_task_id() or "driver"
        except Exception:
            tid = "driver"
        seq = _FANOUT_TASK_SEQ.get(tid, 0)
        _FANOUT_TASK_SEQ[tid] = seq + 1
        path = os.path.join(staging, "part-%s-%05d.arrow" % (tid[:24], seq))
        staged = _stage_runs(
            path, tbl.drop_columns(key_cols).combine_chunks(), runs
        )
        return pa.table(
            {"sink": pa.array([sink for sink, _ in staged], type=pa.string()),
             "rows": pa.array([n for _, n in staged], type=pa.int64()),
             "file": pa.array([path] * len(staged), type=pa.string()),
             "batch": pa.array(range(len(staged)), type=pa.int64())}
        )

    return fn


def write_routed_bucketed(
    enriched_ds,
    out_dir: str,
    num_buckets: Optional[int] = None,
    key_cols: Sequence[str] = ("country", "tool"),
    staging_format: str = "ipc",
    hot_sink_rows: Optional[int] = None,
    _probe_write=None,
):
    """Fleet-scale routed write with one output file per sink (file count =
    #sinks, independent of upstream task count) and no global sort.

    Implementation: a DISK-STAGED exchange, like a MapReduce shuffle. Phase 1
    is a streaming fan-out write into a hive-partitioned staging dir (each
    map task appends its block's per-sink slices — no global sort, no
    object-store residency beyond one block per task). Phase 2 is the shared
    :func:`_compact_sinks`, which streams each sink's staged part-files into
    one output file (bounded memory even for hot sinks). A first raw-Ray
    attempt that exchanged per-bucket
    sub-tables through the object store double-materialized the dataset and
    spilled (measured 237 s vs 15.5 s streaming at 41.9M rows); staging
    through the filesystem keeps phase 1 streaming and phase 2
    sequential-IO. Raw tasks are used only for compaction — the Dataset API
    has no repartition-by-key (``sort`` is a range-sort, ``groupby`` is
    sort-based). ``num_buckets`` caps concurrent compactions.
    ``hot_sink_rows`` turns on AUTO-SALTING: sinks whose phase-1 partial
    counts exceed the threshold are compacted as K parallel part-N files
    (see :func:`_compact_sinks`) instead of serializing phase 2 behind one
    writer; all other sinks stay single-file.

    ``staging_format='ipc'`` (default) stages one uncompressed Arrow IPC
    file per block (:func:`_hive_fanout_ipc`), the layout the resumable
    write stages per shard: IPC encode/decode is ~memcpy, so the rows are
    parquet-encoded exactly ONCE (in phase 2) instead of twice (phase 2
    halved against parquet staging at 41.9M rows / 32 cpus). ``'parquet'``
    staging is kept for staging filesystems where staged bytes matter more
    than the encode; its part rows come from the parquet footers.

    Storage assumption (same as ANY distributed sink): ``out_dir`` must be
    on storage every worker AND the driver can reach — on a real cluster
    that is the job's shared object store / NFS output path, exactly where
    a fan-out write lands anyway; node-local paths only work single-node.

    Returns (out_dir, files_written)."""
    import glob as _glob
    import shutil

    import pyarrow.parquet as pq
    import ray

    key_cols = list(key_cols)
    staging = os.path.join(out_dir, "_staging")
    # a crashed prior run leaves partial staging files; appending to them
    # would duplicate rows in the compacted output — start clean
    shutil.rmtree(staging, ignore_errors=True)
    # likewise remove prior COMPACTED outputs: a rerun into a reused out_dir
    # whose input changed must not leave stale key-partition dirs for sinks
    # that no longer occur (the destination is exactly this run's sinks)
    for stale in _glob.glob(os.path.join(out_dir, "%s=*" % key_cols[0])):
        shutil.rmtree(stale, ignore_errors=True)

    # capability probe: the staging exchange assumes `out_dir` is shared
    # storage (see docstring). Verify BEFORE phase 1 — one remote task writes
    # a marker, the driver stats it — so a node-local path fails in
    # milliseconds with a clear message instead of burning the whole phase-1
    # write and producing a silently-empty compaction at fleet scale.
    os.makedirs(staging, exist_ok=True)
    probe_marker = os.path.join(staging, "_shared_fs_probe")
    ray.get(ray.remote(_probe_write or _probe_write_marker).remote(probe_marker))
    if not os.path.exists(probe_marker):
        raise RuntimeError(
            "write_routed_bucketed: staging dir %r is not visible to the "
            "driver after a worker wrote to it — out_dir must be on shared "
            "storage (NFS / object-store mount) reachable by every worker "
            "and the driver; a node-local path only works single-node"
            % staging
        )
    os.remove(probe_marker)

    # part lists in (file, batch) order: (path, batch, rows), where batch is
    # None for a whole staged parquet file
    if staging_format == "ipc":
        # the fan-out's report (one row per staged batch, driver-trivial)
        # names every published staged file with its batches' sinks and rows
        staged = [
            (r["file"], r["batch"], r["sink"], r["rows"])
            for r in enriched_ds.map_batches(
                _hive_fanout_ipc(staging, key_cols), batch_format="pyarrow"
            ).take_all()
        ]
    elif staging_format == "parquet":
        # staging was wiped on entry, so the glob sees only this run's parts
        enriched_ds.write_parquet(staging, partition_cols=key_cols)
        staged = [
            (p, None, os.path.relpath(os.path.dirname(p), staging),
             pq.ParquetFile(p).metadata.num_rows)
            for p in _glob.glob(os.path.join(
                staging, *("%s=*" % c for c in key_cols), "*.parquet"))
        ]
    else:
        raise ValueError("staging_format must be 'ipc' or 'parquet'")
    sink_parts: dict = {}
    for path, batch, sink, rows in sorted(staged, key=lambda r: r[:2]):
        sink_parts.setdefault(sink, []).append((path, batch, rows))

    files = _compact_sinks(out_dir, sink_parts, num_buckets or 32, hot_sink_rows)
    shutil.rmtree(staging, ignore_errors=True)
    return out_dir, files


#: pyarrow's default (and largest useful) row-group length: the compactor
#: buffers staged batches up to this many rows per ``write_table`` call, so
#: every row group of a sink file but its last is full
_ROW_GROUP_ROWS = 1024 * 1024
#: ... or up to this many bytes, whichever comes first: a compaction task's
#: buffer stays bounded on wide rows (the ``text`` payload), once per CPU
_ROW_GROUP_BYTES = 64 * 1024 * 1024


def _balance(items: list, n: int, weight) -> list:
    """Greedy largest-first split of ``items`` into ``n`` lists balanced by
    ``weight``: each item goes to the lightest list so far (ties: the list
    with fewer items, then the lower index). Every list keeps its items in
    their input order, so a split of sorted parts stays sorted."""
    import heapq

    bins = [(0, 0, i) for i in range(n)]
    members: list = [[] for _ in range(n)]
    for j in sorted(range(len(items)), key=lambda j: -weight(items[j])):
        load, count, i = heapq.heappop(bins)
        members[i].append(j)
        heapq.heappush(bins, (load + weight(items[j]), count + 1, i))
    return [[items[j] for j in sorted(m)] for m in members]


def _compact_sinks(
    out_dir: str,
    sink_parts: dict,
    max_concurrent: int,
    hot_sink_rows: Optional[int] = None,
) -> int:
    """Phase-2 compaction shared by the one-shot and resumable bucketed
    writes. ``sink_parts`` maps each sink (its hive path under ``out_dir``)
    to its parts in output order; a part is ``(path, batch, rows)``, where
    ``batch`` is the index of one record batch of a staged Arrow IPC file
    (:func:`_stage_runs`), or None for a whole staged ``.parquet`` file.

    Each sink becomes one ``part-00000.parquet``. When ``hot_sink_rows`` is
    set, a sink with more rows than that is split into
    ``K = min(#parts, ceil(rows / hot_sink_rows))`` part files written in
    parallel (auto-salting): a hot sink no longer serializes phase 2 behind
    one writer, and every other sink stays single-file. Parts go to the K
    splits greedily by rows (:func:`_balance`), in part order within each.

    The output files are grouped into about one task per Ray CPU (at most
    ``max_concurrent``), balanced greedily by rows. A task streams each of
    its outputs into a ``ParquetWriter`` in row groups of
    ``_ROW_GROUP_ROWS`` rows or ``_ROW_GROUP_BYTES`` bytes, whichever fills
    first (a small sink is one row group), so its memory is bounded by one
    row group, not by the sink, and it opens each staged IPC file once.
    Every output file is published via tmp + atomic rename.
    Returns the number of files written."""
    import math

    import ray

    outputs = []  # (sink, file name, parts, rows)
    for sink in sorted(sink_parts):
        parts = sink_parts[sink]
        rows = sum(p[2] for p in parts)
        n_splits = 1
        if hot_sink_rows is not None and rows > hot_sink_rows:
            n_splits = min(len(parts), math.ceil(rows / hot_sink_rows))
        for i, sub in enumerate(_balance(parts, n_splits, lambda p: p[2])):
            outputs.append(
                (sink, "part-%05d.parquet" % i, sub, sum(p[2] for p in sub))
            )
    if not outputs:
        return 0
    cpus = int(ray.cluster_resources().get("CPU", 1))
    n_tasks = max(1, min(len(outputs), max_concurrent, cpus))
    compact = ray.remote(_compact_outputs)
    groups = _balance(outputs, n_tasks, lambda o: o[3])
    return sum(ray.get([compact.remote(out_dir, g) for g in groups]))


def _compact_outputs(out_dir: str, outputs: list) -> int:
    """Body of one phase-2 task of :func:`_compact_sinks`: write each
    ``(sink, name, parts, rows)`` output file from its parts."""
    import pyarrow.parquet as pq

    readers: dict = {}  # staged IPC file → (file, reader), opened once

    def batches(path: str, batch: Optional[int]):
        if batch is None:
            yield from pq.ParquetFile(path).iter_batches()
            return
        if path not in readers:
            if len(readers) >= 256:  # bound the open files of a task
                for f, _ in readers.values():
                    f.close()
                readers.clear()
            f = pa.OSFile(path, "rb")
            readers[path] = (f, pa.ipc.open_file(f))
        yield readers[path][1].get_batch(batch)

    try:
        for sink, name, parts, _ in outputs:
            dest_dir = os.path.join(out_dir, sink)
            os.makedirs(dest_dir, exist_ok=True)
            dest = os.path.join(dest_dir, name)
            writer, buf, rows, nbytes = None, [], 0, 0
            try:
                for path, batch, _ in parts:
                    for b in batches(path, batch):
                        if writer is None:
                            writer = pq.ParquetWriter(dest + ".tmp", b.schema)
                        while b.num_rows:
                            head = b.slice(0, _ROW_GROUP_ROWS - rows)
                            b = b.slice(head.num_rows)
                            buf.append(head)
                            rows += head.num_rows
                            nbytes += head.get_total_buffer_size()
                            if (rows >= _ROW_GROUP_ROWS
                                    or nbytes >= _ROW_GROUP_BYTES):
                                writer.write_table(pa.Table.from_batches(buf))
                                buf, rows, nbytes = [], 0, 0
                if buf:
                    writer.write_table(pa.Table.from_batches(buf))
            finally:
                if writer is not None:
                    writer.close()
            os.replace(dest + ".tmp", dest)
    finally:
        for f, _ in readers.values():
            f.close()
    return len(outputs)


def _default_routed_shard_fn(config: GeoIPConfig):
    """path → routed pa.Table, the per-shard body of the resumable bucketed
    write (same transform chain as ``state/checkpoint._ShardWriter``:
    extract when the source column is absent, enrich, add routing keys)."""

    def fn(input_path: str) -> pa.Table:
        import pyarrow.parquet as _pq

        from ..stages.enrich import WorkerCachedEnricher
        from ..stages.parse import make_extract_ips

        work = _pq.read_table(input_path)
        if config.source not in work.column_names:
            work = make_extract_ips(output_column=config.source)(work)
        work = WorkerCachedEnricher(config)(work)
        return add_routing_keys(config.resolved_target(), ecs=config.ecs)(work)

    return fn


def write_routed_bucketed_resumable(
    input_dir: str,
    out_dir: str,
    key_cols: Sequence[str] = ("country", "tool"),
    config: Optional[GeoIPConfig] = None,
    shard_fn=None,
    num_buckets: Optional[int] = None,
    hot_sink_rows: Optional[int] = None,
):
    """Resumable fleet-scale routed write: the one-shot
    :func:`write_routed_bucketed` wipes staging on entry, so a driver crash
    in phase 1 repays the whole fan-out — at 100 TB that is hours. Here
    phase 1 is restartable, with one commit per input shard:

    - the unit of work is one INPUT SHARD (one parquet file under
      ``input_dir``), processed wholly inside one plain Ray task (at most
      two per CPU in flight): read → enrich → route (``shard_fn``), then a
      stable sort by ``key_cols`` that makes each sink one run;
    - the task stages the shard as ONE uncompressed Arrow IPC file,
      ``_staging/<stem>.arrow``, with one record batch per sink run
      (:func:`_stage_runs`), named by the shard stem (never the task
      attempt) and published via tmp + atomic rename — a retried or resumed
      shard OVERWRITES its own file, and a file no manifest names is never
      read;
    - an atomic per-shard manifest (``_staging/_manifests/<stem>.json``:
      ``files``, ``sinks``, ``rows``, ``total_rows``, ``config_hash``)
      then commits the shard; batch *i* of the staged file holds
      ``rows[i]`` rows of sink ``sinks[i]``. Resume = skip shards with a
      valid manifest, rerun the rest. The config hash carries the key
      columns and the staging layout, so a manifest from another config or
      layout is rerun, not misread.

    Phase 2 reads only what the CURRENT inputs' manifests name: each sink's
    parts are its batches in shard-stem order, so a shard deleted or renamed
    between a crash and a resume contributes nothing stale. They are
    compacted by the shared :func:`_compact_sinks` (full row groups, about
    one task per CPU, ``hot_sink_rows`` auto-salting balanced by rows).

    Every staged file's name AND content depend only on (shard, config), so
    an interrupted-then-resumed run compacts to BYTE-IDENTICAL sink files
    vs an uninterrupted run (pinned by the SIGKILL test).

    Returns (out_dir, files_written, summary_dict)."""
    import glob as _glob
    import json as _json
    import shutil

    import ray

    from ..state.checkpoint import ENGINE_VERSION, _shard_stem, config_hash

    key_cols = list(key_cols)
    config = config or default_config()
    # the staging-layout tag makes a manifest of another layout a mismatch
    chash = config_hash(
        config, extra="routed_bucketed:shard-ipc-file:%s" % ",".join(key_cols)
    )
    staging = os.path.join(out_dir, "_staging")
    man_dir = os.path.join(staging, "_manifests")
    os.makedirs(man_dir, exist_ok=True)

    # same shared-storage capability probe as the one-shot write: resume
    # depends on the driver seeing worker-written manifests, so fail in
    # milliseconds on a node-local path instead of after a whole phase 1
    probe_marker = os.path.join(staging, "_shared_fs_probe")
    ray.get(ray.remote(_probe_write_marker).remote(probe_marker))
    if not os.path.exists(probe_marker):
        raise RuntimeError(
            "write_routed_bucketed_resumable: staging dir %r is not visible "
            "to the driver after a worker wrote to it — out_dir must be on "
            "shared storage reachable by every worker and the driver"
            % staging
        )
    os.remove(probe_marker)

    inputs = sorted(_glob.glob(os.path.join(input_dir, "*.parquet")))
    if not inputs:
        raise FileNotFoundError("no input shards under %s" % input_dir)

    def _manifest(stem: str) -> Optional[dict]:
        try:
            with open(os.path.join(man_dir, stem + ".json")) as f:
                m = _json.load(f)
        except (OSError, ValueError):
            return None
        if m.get("status") != "done" or m.get("config_hash") != chash:
            return None
        if not all(os.path.exists(os.path.join(staging, f)) for f in m["files"]):
            return None  # staged file vanished — redo the shard
        return m

    todo = [p for p in inputs if _manifest(_shard_stem(p)) is None]
    fn = shard_fn or _default_routed_shard_fn(config)

    def shard_task(input_path: str) -> None:
        stem = _shard_stem(input_path)
        tbl, runs = _sink_runs(
            fn(input_path), key_cols, "write_routed_bucketed_resumable"
        )
        rel = stem + ".arrow"
        staged = _stage_runs(
            os.path.join(staging, rel),
            tbl.drop_columns(key_cols).combine_chunks(),
            runs,
        )
        # an EMPTY shard commits a manifest with no sinks (skipped on resume)
        manifest = {
            "status": "done",
            "input_path": input_path,
            "config_hash": chash,
            "engine_version": ENGINE_VERSION,
            "files": [rel],
            "sinks": [sink for sink, _ in staged],
            "rows": [n for _, n in staged],
            "total_rows": int(tbl.num_rows),
        }
        mpath = os.path.join(man_dir, stem + ".json")
        with open(mpath + ".tmp", "w") as f:
            _json.dump(manifest, f)
        os.replace(mpath + ".tmp", mpath)

    task = ray.remote(shard_task)
    window = 2 * int(ray.cluster_resources().get("CPU", 1))
    pending: list = []
    try:
        for p in todo:
            if len(pending) >= window:
                done, pending = ray.wait(pending, num_returns=1)
                ray.get(done)
            pending.append(task.remote(p))
        ray.get(pending)
    except BaseException:
        for ref in pending:  # a failed phase 1 cancels its queued shards
            ray.cancel(ref)
        raise

    # phase-1 commit check: every shard must now carry a valid manifest
    manifests = {}
    for p in inputs:
        m = _manifest(_shard_stem(p))
        if m is None:
            raise RuntimeError(
                "write_routed_bucketed_resumable: shard %r has no valid "
                "manifest after phase 1" % p
            )
        manifests[_shard_stem(p)] = m

    sink_parts: dict = {}
    for stem in sorted(manifests):
        m = manifests[stem]
        path = os.path.join(staging, m["files"][0])
        for i, (sink, rows) in enumerate(zip(m["sinks"], m["rows"])):
            sink_parts.setdefault(sink, []).append((path, i, int(rows)))

    # stale compacted outputs from a prior different run
    for stale in _glob.glob(os.path.join(out_dir, "%s=*" % key_cols[0])):
        shutil.rmtree(stale, ignore_errors=True)
    files = _compact_sinks(out_dir, sink_parts, num_buckets or 32, hot_sink_rows)
    shutil.rmtree(staging, ignore_errors=True)
    summary = {
        "shards_total": len(inputs),
        "shards_processed": len(todo),
        "shards_skipped": len(inputs) - len(todo),
        "rows": sum(m["total_rows"] for m in manifests.values()),
        "sinks": len(sink_parts),
        "config_hash": chash,
    }
    return out_dir, files, summary


def asn_salted_counts(sf_dir: str, rows: Optional[int] = None, buckets: int = 8):
    """Second-database pipeline + skew path (north_rule "salted keys for hot
    ASNs"): enrich against the vendored ASN DB, route on the ASN, and count
    per ASN through the two-stage *salted* aggregation — no single reducer
    ever sees a whole hot ASN."""
    import pyarrow as pa  # noqa: F401  (types used below)

    from ..sources.transcripts import DEFAULT_ASN_DB
    from ..stages.aggregate import salted_grouped_counts

    # projection pushdown: the count keys off `asn` alone, so the enricher
    # skips the as_org / network leaves (same E14 mechanism as the headline)
    cfg = GeoIPConfig(
        source="source_ip",
        database=DEFAULT_ASN_DB,
        fields=("autonomous_system_number",),
    )
    ds = build_enriched(
        sf_dir, config=cfg, rows=rows, add_routing=False,
        columns=["text"], drop_text=True,
    )

    def add_asn_key(batch):
        target = batch[cfg.resolved_target()]
        if isinstance(target, pa.ChunkedArray):
            target = target.combine_chunks()
        asn = pc.struct_field(target, ["asn"])
        key = pc.fill_null(pc.cast(asn, pa.string()), MISS_KEY)
        return pa.table({"asn_key": key})

    keyed = ds.map_batches(add_asn_key, batch_format="pyarrow")
    # sort folds into the driver's last fold (52 keys — a Sort operator was
    # a pure fixed-cost all-to-all)
    return salted_grouped_counts(
        keyed, ["asn_key"], "n", buckets=buckets, sort_result=True
    )


def db_key_counts(
    sf_dir: str,
    database: str,
    keys: Sequence[Tuple[str, str, str]],
    rows: Optional[int] = None,
):
    """Generic per-database count pipeline (E7/E9/E10/E11 end-to-end): enrich
    against ``database`` and count rows per projected key(s).

    ``keys``: (target_struct_child, output_alias, kind) with kind 'str'
    (null → '_miss') or 'int' (null → -1, for boolean traits cast to 0/1 so
    the oracle comparison stays integer-only). Reads only ``text``, sheds it
    at extraction — the fleet scan shape."""
    cfg = GeoIPConfig(source="source_ip", database=database)
    ds = build_enriched(
        sf_dir, config=cfg, rows=rows, add_routing=False,
        columns=["text"], drop_text=True,
    )
    target_col = cfg.resolved_target()

    def keyfn(batch: pa.Table) -> pa.Table:
        target = batch[target_col]
        if isinstance(target, pa.ChunkedArray):
            target = target.combine_chunks()
        cols = {}
        for child, alias, kind in keys:
            v = pc.struct_field(target, [child])
            if kind == "int":
                cols[alias] = pc.fill_null(pc.cast(v, pa.int64()), -1)
            else:
                cols[alias] = pc.fill_null(pc.cast(v, pa.string()), MISS_KEY)
        return pa.table(cols)

    keyed = ds.map_batches(keyfn, batch_format="pyarrow")
    return grouped_counts(keyed, [a for _, a, _ in keys], "n", sort_result=True)


def oracle_db_key_counts_sql(
    sf_dir: str, cols: Sequence[Tuple[str, str, str]], rows: Optional[int] = None
) -> str:
    """DuckDB oracle for :func:`db_key_counts`: join the parsed token to the
    golden side table, coalesce misses the same way ('_miss' / -1)."""
    t = transcripts_path(sf_dir, rows)
    g = ip_geo_path(sf_dir, rows)
    sel = ", ".join(
        (
            f"coalesce(g.{side_col}, -1) AS {alias}"
            if kind == "int"
            else f"coalesce(g.{side_col}, '{MISS_KEY}') AS {alias}"
        )
        for side_col, alias, kind in cols
    )
    aliases = ", ".join(alias for _, alias, _ in cols)
    return f"""
WITH parsed AS (
  SELECT nullif(regexp_extract(text, '(?:request from|client=)\\s*([^\\s"]+)', 1), '') AS tok
  FROM read_parquet('{t}/*.parquet')
)
SELECT {sel}, count(*) AS n
FROM parsed p LEFT JOIN read_parquet('{g}') g ON p.tok = g.ip
GROUP BY {aliases} ORDER BY {aliases}
"""


def oracle_asn_counts_sql(sf_dir: str, rows: Optional[int] = None) -> str:
    t = transcripts_path(sf_dir, rows)
    g = ip_geo_path(sf_dir, rows)
    return f"""
WITH parsed AS (
  SELECT nullif(regexp_extract(text, '(?:request from|client=)\\s*([^\\s"]+)', 1), '') AS tok
  FROM read_parquet('{t}/*.parquet')
)
SELECT coalesce(CAST(g.asn AS VARCHAR), '{MISS_KEY}') AS asn_key, count(*) AS n
FROM parsed p LEFT JOIN read_parquet('{g}') g ON p.tok = g.ip
GROUP BY 1 ORDER BY 1
"""


# ---------------------------------------------------------------------------
# DuckDB oracle SQL (driver correctness gate). The regex literal matches
# stages/parse.py DEFAULT_PATTERN; both engines are RE2-compatible here.
# ---------------------------------------------------------------------------


def geohash_counts(sf_dir: str, rows: Optional[int] = None,
                   precision: int = 5):
    """Spatial rollup of the City enrichment's lat/lon output (E5/E12
    downstream consumer): turns per geohash-``precision`` cell. The
    geohash kernel is 25 vectorized bit passes per batch
    (:mod:`..functions.geo`); rows whose lookup missed or whose City
    record carries no location land in the ``_miss`` cell. Reads only
    ``text`` and sheds it at extraction — the fleet scan shape; the
    exchange is |distinct cells| partial-count rows per block."""
    import numpy as np

    from ..functions.geo import geohash_encode
    from ..stages.aggregate import grouped_counts

    # default_config pins the vendored GeoIP2-City fixture explicitly —
    # GeoIPConfig(database=None) would resolve to the GeoLite2 default
    # (geoip.rb parity), whose records carry different locations than the
    # golden side table the oracle joins
    cfg = default_config()
    ds = build_enriched(
        sf_dir, config=cfg, rows=rows, add_routing=False,
        columns=["text"], drop_text=True,
    )
    target_col = cfg.resolved_target()

    def keyfn(batch: pa.Table) -> pa.Table:
        target = batch[target_col]
        if isinstance(target, pa.ChunkedArray):
            target = target.combine_chunks()
        lat = pc.struct_field(target, ["latitude"]).to_numpy(
            zero_copy_only=False
        )
        lon = pc.struct_field(target, ["longitude"]).to_numpy(
            zero_copy_only=False
        )
        ok = ~(np.isnan(lat) | np.isnan(lon))
        gh = np.full(len(lat), MISS_KEY, dtype=object)
        if ok.any():
            gh[ok] = geohash_encode(lat[ok], lon[ok], precision)
        return pa.table({"geohash": pa.array(gh, type=pa.string())})

    keyed = ds.map_batches(keyfn, batch_format="pyarrow")
    return grouped_counts(keyed, ["geohash"], "n", sort_result=True)


def oracle_geohash_counts_sql(sf_dir: str, rows: Optional[int] = None,
                              precision: int = 5) -> str:
    """DuckDB oracle for :func:`geohash_counts`: the token→(lat, lon) side
    table is GENERATED from the same ``GeoIPLookup`` trust root as
    ``ip_geo.parquet`` (the fixture pool is small), but the geohash itself
    is computed by SQL bit arithmetic generated in
    :mod:`..functions.geo` — an independent second implementation of the
    interleave/base32 encode, like the zonemap Morton oracle."""
    from ..functions.config import GeoIPConfig as _Cfg
    from ..functions.fields import Field
    from ..functions.geo import (
        geohash_chars_sql,
        geohash_idx_sql,
        geohash_interleave_sql,
    )
    from ..sources.transcripts import (
        DEFAULT_CITY_DB,
        MALFORMED_TOKENS,
        MISS_TOKENS,
        _ip_pool,
        transcripts_path,
    )
    from ..stages.enrich import GeoIPLookup

    t = transcripts_path(sf_dir, rows)
    lookup = GeoIPLookup(_Cfg(source="x", database=DEFAULT_CITY_DB))
    vals = []
    for tok in list(_ip_pool(DEFAULT_CITY_DB)) + list(MISS_TOKENS) + list(
        MALFORMED_TOKENS
    ):
        ok, values = lookup.lookup(tok)
        lat = values.get(Field.LATITUDE) if ok else None
        lon = values.get(Field.LONGITUDE) if ok else None
        vals.append(
            "('%s', %s, %s)"
            % (
                tok,
                "CAST(NULL AS DOUBLE)" if lat is None else repr(float(lat)),
                "CAST(NULL AS DOUBLE)" if lon is None else repr(float(lon)),
            )
        )
    lat_idx, lon_idx = geohash_idx_sql("g.lat", "g.lon", precision)
    inter = geohash_interleave_sql("la", "lo", precision)
    chars = geohash_chars_sql("gbits", precision)
    return f"""
WITH geo(ip, lat, lon) AS (VALUES {', '.join(vals)}),
parsed AS (
  SELECT nullif(regexp_extract(text, '(?:request from|client=)\\s*([^\\s"]+)', 1), '') AS tok
  FROM read_parquet('{t}/*.parquet')
),
idx AS (
  SELECT {lat_idx} AS la, {lon_idx} AS lo
  FROM parsed p LEFT JOIN geo g ON p.tok = g.ip
),
inter AS (SELECT {inter} AS gbits FROM idx)
SELECT coalesce({chars}, '{MISS_KEY}') AS geohash,
       CAST(count(*) AS BIGINT) AS n
FROM inter GROUP BY 1 ORDER BY 1
"""


def oracle_sink_counts_sql(sf_dir: str, rows: Optional[int] = None) -> str:
    t = transcripts_path(sf_dir, rows)
    g = ip_geo_path(sf_dir, rows)
    return f"""
WITH parsed AS (
  SELECT conv_id, turn_idx, tool,
         nullif(regexp_extract(text, '(?:request from|client=)\\s*([^\\s"]+)', 1), '') AS tok
  FROM read_parquet('{t}/*.parquet')
), enr AS (
  SELECT p.*, g.country_code2
  FROM parsed p LEFT JOIN read_parquet('{g}') g ON p.tok = g.ip
)
SELECT coalesce(country_code2, '{MISS_KEY}') AS country, tool, count(*) AS n
FROM enr GROUP BY 1, 2 ORDER BY 1, 2
"""


def oracle_turn_histogram_sql(sf_dir: str, rows: Optional[int] = None, bucket_width: int = 4) -> str:
    t = transcripts_path(sf_dir, rows)
    g = ip_geo_path(sf_dir, rows)
    return f"""
WITH parsed AS (
  SELECT conv_id, turn_idx,
         nullif(regexp_extract(text, '(?:request from|client=)\\s*([^\\s"]+)', 1), '') AS tok
  FROM read_parquet('{t}/*.parquet')
), enr AS (
  SELECT p.*, g.country_code2
  FROM parsed p LEFT JOIN read_parquet('{g}') g ON p.tok = g.ip
)
SELECT coalesce(country_code2, '{MISS_KEY}') AS country,
       CAST(floor(turn_idx / {bucket_width}) AS INTEGER) AS turn_bucket,
       count(*) AS n
FROM enr GROUP BY 1, 2 ORDER BY 1, 2
"""


def sink_counts_incremental(
    sf_dir: str,
    micro_batch_units: int = 2,
    state_root: str = "/tmp/graft_incr_state",
):
    """Streaming-ingestion mode: transcript (file, row-group) units are
    processed in arrival order as MICRO-BATCHES of ``micro_batch_units``
    units each, persisting one per-micro-batch (country, tool)
    partial-count parquet under a state dir keyed by code (module sources),
    config database identity and input path, with per-unit keys covering
    file size+mtime (content proxy) — a rerun
    (or a crash-rerun) skips every finished micro-batch (exactly-once per
    unit group) and only new arrivals compute. The final answer is the
    tree-sum of all persisted partials and must equal the batch
    ``sink_counts`` oracle exactly, proving incremental == batch.

    This is the continuous-pipeline analog of the reference's long-running
    Logstash process (events keep arriving; counts stay queryable), built
    from the same partial-aggregate algebra the batch path uses: a
    (country, tool) count partial is mergeable, so micro-batch boundaries
    carry no correctness weight. Scale shape: the driver lists only
    row-group METADATA (O(files)); each unit is read inside a Ray task
    (``pq.ParquetFile.read_row_group`` — the same task-local pattern as
    the ORC/IPC readers); each micro-batch is its own bounded pipeline
    (pruned read → extract → enrich → route → tiny partial); the state dir
    holds only sink-cardinality rows per batch; the final combine reads
    partials, never raw shards. Publish is atomic (tmp + rename), so a
    crash mid-write never double-counts."""
    import glob as _glob
    import hashlib as _hashlib

    import pyarrow.parquet as _pq
    import ray.data

    from ..stages import enrich as _enrich_mod
    from ..stages import parse as _parse_mod
    from ..stages.aggregate import tree_sum

    config = default_config()
    path = transcripts_path(sf_dir)
    inputs = sorted(_glob.glob(os.path.join(path, "*.parquet")))
    if not inputs:
        raise FileNotFoundError("sink_counts_incremental: no shards under %r" % path)
    units = []
    for f in inputs:
        for rg in range(_pq.ParquetFile(f).num_row_groups):
            units.append((f, rg))

    import sys as _sys

    code = _hashlib.md5()
    # every module that shapes the output, INCLUDING this one (routing +
    # config defaults live here), plus the configured GeoIP database bytes'
    # identity (size+mtime) — the enrichment side table is an input too
    for mod in (_enrich_mod, _parse_mod, _sys.modules[__name__]):
        with open(mod.__file__, "rb") as f:
            code.update(f.read())
    dbst = os.stat(config.database)
    code.update(("%d:%d" % (dbst.st_size, dbst.st_mtime_ns)).encode())
    state_dir = os.path.join(
        state_root,
        _hashlib.md5((path + code.hexdigest()).encode()).hexdigest()[:16],
    )
    os.makedirs(state_dir, exist_ok=True)

    def read_unit(batch: pa.Table) -> pa.Table:
        out = []
        for p, rg in zip(batch["path"].to_pylist(), batch["rg"].to_pylist()):
            out.append(
                _pq.ParquetFile(p).read_row_group(rg, columns=["text", "tool"])
            )
        return pa.concat_tables(out)

    groups = [
        units[i : i + micro_batch_units]
        for i in range(0, len(units), micro_batch_units)
    ]
    partial_paths = []
    for g in groups:
        # unit key covers file identity AND content (size + mtime): a
        # regenerated shard under the same name invalidates its partials
        key = _hashlib.md5(
            "\x1f".join(
                "%s#%d#%d#%d"
                % (p, rg, os.path.getsize(p), os.stat(p).st_mtime_ns)
                for p, rg in g
            ).encode()
        ).hexdigest()[:16]
        out = os.path.join(state_dir, "partial-%s.parquet" % key)
        partial_paths.append(out)
        if os.path.exists(out):
            continue  # exactly-once: this micro-batch already landed
        ds = ray.data.from_items(
            [{"path": p, "rg": rg} for p, rg in g]
        ).map_batches(read_unit, batch_size=1, batch_format="pyarrow")
        ds = ds.map_batches(
            make_extract_ips(drop_text=True), batch_format="pyarrow"
        )
        ds = ds.map_batches(
            WorkerCachedEnricher(config), batch_format="pyarrow"
        )
        ds = ds.map_batches(
            add_routing_keys(config.resolved_target(), ecs=config.ecs),
            batch_format="pyarrow",
        )
        counts = grouped_counts(
            ds.select_columns(["country", "tool"]), ["country", "tool"], "n"
        )
        # iter_batches(pyarrow) yields Tables in this Ray version
        tbl = pa.concat_tables(
            list(counts.iter_batches(batch_format="pyarrow"))
        )
        tmp = out + ".tmp"
        _pq.write_table(tbl, tmp)
        os.replace(tmp, out)  # atomic publish: crash mid-write never counts

    final = ray.data.read_parquet(partial_paths)
    return tree_sum(final, ["country", "tool"], ["n"], sort_result=True)


def delete_rows_partitioned(out_dir: str, column: str, values):
    """GDPR-style targeted delete over a partitioned parquet store: remove
    every row whose ``column`` is in ``values``, rewriting ONLY the files
    that actually contain target rows — untouched files keep their bytes
    and mtimes (minimal write amplification, the property that makes
    right-to-be-forgotten viable on a 100 TB store).

    Scale shape: one Ray task per file; each task first scans just the
    predicate COLUMN (a column-pruned read — tiny vs the full file), exits
    untouched when no target is present, and otherwise rewrites its file
    atomically (tmp + rename — the DATA is exactly-once under retry; the
    COUNTERS are not: a task retried after its rename sees a clean file
    and reports 0 for it, so the report reflects work done by this
    invocation, not cumulative history). The driver sees only per-file
    counters. Returns a dict: files_scanned / files_rewritten /
    rows_deleted / rows_kept."""
    import glob as _glob

    import pyarrow.parquet as _pq
    import ray.data

    files = sorted(_glob.glob(os.path.join(out_dir, "**", "*.parquet"),
                              recursive=True))
    if not files:
        raise FileNotFoundError("delete_rows_partitioned: no parquet under %r" % out_dir)
    vals = sorted(set(values))  # materialize first: numpy/pandas inputs
    if not vals:
        raise ValueError("delete_rows_partitioned: empty values set")
    # plan-time guard: the column must exist SOMEWHERE in the store; a
    # schema-evolved file lacking it simply cannot contain victims and is
    # skipped per task below
    if not any(column in _pq.read_schema(f).names for f in files):
        raise KeyError(
            "delete_rows_partitioned: column %r in no file under %r"
            % (column, out_dir)
        )
    value_set = pa.array(vals)

    def process(batch: pa.Table) -> pa.Table:
        out = {"path": [], "rewritten": [], "deleted": [], "kept": []}
        for path in batch["path"].to_pylist():
            if column not in _pq.read_schema(path).names:
                # schema-evolved file without the column: no victims here
                n = _pq.ParquetFile(path).metadata.num_rows
                out["path"].append(path)
                out["rewritten"].append(False)
                out["deleted"].append(0)
                out["kept"].append(n)
                continue
            probe = _pq.read_table(path, columns=[column])
            hit = pc.is_in(probe[column], value_set=value_set)
            n_hit = pc.sum(pc.cast(hit, pa.int64())).as_py() or 0
            if n_hit == 0:
                out["path"].append(path)
                out["rewritten"].append(False)
                out["deleted"].append(0)
                out["kept"].append(probe.num_rows)
                continue
            full = _pq.read_table(path)
            keep = pc.invert(
                pc.fill_null(pc.is_in(full[column], value_set=value_set), False)
            )
            kept_tbl = full.filter(keep)
            tmp = path + ".tmp"
            _pq.write_table(kept_tbl, tmp)
            os.replace(tmp, path)
            out["path"].append(path)
            out["rewritten"].append(True)
            out["deleted"].append(n_hit)
            out["kept"].append(kept_tbl.num_rows)
        return pa.table(
            {
                "path": pa.array(out["path"], type=pa.string()),
                "rewritten": pa.array(out["rewritten"], type=pa.bool_()),
                "deleted": pa.array(out["deleted"], type=pa.int64()),
                "kept": pa.array(out["kept"], type=pa.int64()),
            }
        )

    report = (
        ray.data.from_items([{"path": p} for p in files])
        .map_batches(process, batch_size=1, batch_format="pyarrow")
        .to_pandas()
    )
    return {
        "files_scanned": len(report),
        "files_rewritten": int(report["rewritten"].sum()),
        "rows_deleted": int(report["deleted"].sum()),
        "rows_kept": int(report["kept"].sum()),
    }


def compact_partition_files(root: str, target_rows: int = 1_000_000):
    """Small-file compaction for a partitioned parquet store: every leaf
    directory holding more than one file (INCLUDING earlier compact-*
    outputs, so repeated maintenance rounds converge instead of
    accumulating one file per round) gets its files merged into
    ~ceil(total_rows / target_rows) files, streamed one input row group at
    a time through a rolling ParquetWriter — per-task memory is one row
    group, not the partition.

    Crash safety: merged files are fully written as ``*.tmp`` FIRST, then
    a ``_compacting.json`` marker (listing both the replaced files and the
    new tmp→final names) is published, then the tmps rename, the old files
    delete, and the marker is removed. Recovery on any rerun/task-retry:
    a marker means every tmp is complete — finish the pending renames,
    finish the pending deletions, drop the marker. A crash BEFORE the
    marker leaves only stray tmps (ignored and overwritten next round);
    a crash after it is always completable — no window loses data. One
    Ray task per directory. Returns dict: dirs_scanned / dirs_compacted /
    files_before / files_after."""
    import glob as _glob
    import hashlib as _hashlib
    import json as _json

    import pyarrow.parquet as _pq
    import ray.data

    leaf_dirs = sorted(
        {os.path.dirname(p) for p in _glob.glob(
            os.path.join(root, "**", "*.parquet"), recursive=True)}
    )
    if not leaf_dirs:
        raise FileNotFoundError("compact_partition_files: no parquet under %r" % root)

    def _recover(d: str, marker: str) -> None:
        with open(marker) as f:
            m = _json.load(f)
        for tmp, final in m["publish"]:
            if os.path.exists(tmp):
                os.replace(tmp, final)
        for old in m["replaced"]:
            if os.path.exists(old):
                os.remove(old)
        os.remove(marker)

    def process(batch: pa.Table) -> pa.Table:
        rows = {"dir": [], "compacted": [], "before": [], "after": []}
        for d in batch["dir"].to_pylist():
            marker = os.path.join(d, "_compacting.json")
            if os.path.exists(marker):
                _recover(d, marker)
            files = sorted(_glob.glob(os.path.join(d, "*.parquet")))
            if len(files) <= 1:
                rows["dir"].append(d)
                rows["compacted"].append(False)
                rows["before"].append(len(files))
                rows["after"].append(len(files))
                continue
            key = _hashlib.sha256("\x1f".join(files).encode()).hexdigest()[:12]
            new_files = []
            writer = None
            written = 0
            idx = 0

            def roll():
                nonlocal writer
                if writer is not None:
                    writer.close()
                    writer = None

            schema = _pq.read_schema(files[0])
            for f in files:
                pf = _pq.ParquetFile(f)
                for rg in range(pf.num_row_groups):
                    tbl = pf.read_row_group(rg).cast(schema)
                    if writer is None or written >= target_rows:
                        roll()
                        out = os.path.join(
                            d, "compact-%s-%04d.parquet" % (key, idx)
                        )
                        idx += 1
                        new_files.append(out)
                        writer = _pq.ParquetWriter(out + ".tmp", schema)
                        written = 0
                    writer.write_table(tbl)
                    written += tbl.num_rows
            roll()
            with open(marker + ".tmp", "w") as f:
                _json.dump(
                    {
                        "replaced": files,
                        "publish": [[o + ".tmp", o] for o in new_files],
                    },
                    f,
                )
            os.replace(marker + ".tmp", marker)
            _recover(d, marker)
            rows["dir"].append(d)
            rows["compacted"].append(True)
            rows["before"].append(len(files))
            rows["after"].append(len(new_files))
        return pa.table(
            {
                "dir": pa.array(rows["dir"], type=pa.string()),
                "compacted": pa.array(rows["compacted"], type=pa.bool_()),
                "before": pa.array(rows["before"], type=pa.int64()),
                "after": pa.array(rows["after"], type=pa.int64()),
            }
        )

    rep = (
        ray.data.from_items([{"dir": d} for d in leaf_dirs])
        .map_batches(process, batch_size=1, batch_format="pyarrow")
        .to_pandas()
    )
    return {
        "dirs_scanned": len(rep),
        "dirs_compacted": int(rep["compacted"].sum()),
        "files_before": int(rep["before"].sum()),
        "files_after": int(rep["after"].sum()),
    }
