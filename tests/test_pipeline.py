"""End-to-end flagship pipeline: parse → enrich → route → aggregate over the
deterministic synthetic transcripts, checked against the DuckDB oracle
(the driver's correctness gate in miniature)."""

import os

import duckdb
import pyarrow as pa
import pyarrow.compute as pc
import pytest

from logstash_filter_geoip_ray.pipelines.geoip_pipeline import (
    build_enriched,
    country_turn_histogram,
    oracle_sink_counts_sql,
    oracle_turn_histogram_sql,
    sink_counts,
    write_routed,
)
from logstash_filter_geoip_ray.sources.transcripts import (
    transcripts_path,
)
from logstash_filter_geoip_ray.stages.parse import extract_ips

SF = "/root/testdata/sf0.001"


def test_transcript_generation_deterministic():
    import pyarrow.parquet as pq

    p = transcripts_path(SF)
    t = pq.read_table(p)  # directory of part files
    assert t.column_names == ["conv_id", "turn_idx", "role", "text", "tool", "ts"]
    assert t.num_rows == 6000
    # regeneration must be byte-stable: spot-check a few cells
    rows = t.slice(0, 3).to_pylist()
    assert rows[0]["conv_id"] == "conv-00000000"
    assert rows[0]["turn_idx"] == 0 and rows[2]["turn_idx"] == 2


def test_extract_ips_vectorized():
    batch = pa.table(
        {
            "text": [
                "request from 1.2.3.4 via proxy path=/x",
                "client=N/A status=500 latency=9ms",
                "no ip in this row at all",
                None,
            ]
        }
    )
    out = extract_ips(batch)
    assert out["source_ip"].to_pylist() == ["1.2.3.4", "N/A", None, None]


def test_extract_log_fields_vectorized():
    from logstash_filter_geoip_ray.stages.parse import make_extract_log_fields

    batch = pa.table(
        {
            "text": [
                "request from 1.2.3.4 via proxy path=/api/v1/run",
                "client=9.9.9.9 status=404 latency=17ms",
                "session opened; request from 8.8.8.8 ua=agent/1.3",
                None,
            ]
        }
    )
    out = make_extract_log_fields(drop_text=True)(batch)
    assert "text" not in out.column_names
    assert out["path"].to_pylist() == ["/api/v1/run", None, None, None]
    assert out["status"].to_pylist() == [None, "404", None, None]
    assert out["latency_ms"].to_pylist() == [None, "17", None, None]
    assert out["ua"].to_pylist() == [None, None, "agent/1.3", None]


def test_hopping_windows_cover_tumbling(ray_session):
    """Every event lands in exactly width/hop hopping windows (stream start
    clipped), so total hopping mass = k x event count minus the clip."""
    import duckdb as _duck

    from logstash_filter_geoip_ray.pipelines.data_ops import DATA_QUERIES

    hop = DATA_QUERIES["hopping_windows"]("/root/testdata/sf0.001").to_pandas()
    n_events = _duck.sql(
        "SELECT count(*) FROM read_parquet('/root/testdata/sf0.001/events.parquet')"
    ).fetchone()[0]
    assert hop["n"].sum() <= 4 * n_events
    assert hop["n"].sum() >= 4 * n_events - 3 * 5  # ≤ k-1 clipped per key


def test_sink_counts_match_oracle(ray_session):
    counts = sink_counts(build_enriched(SF)).to_pandas()
    oracle = duckdb.sql(oracle_sink_counts_sql(SF)).df()
    merged = counts.merge(oracle, on=["country", "tool"], how="outer", suffixes=("_r", "_o"))
    assert len(merged) == len(counts) == len(oracle)
    assert (merged["n_r"] == merged["n_o"]).all()
    assert counts["n"].sum() == 6000


def test_enrich_fields_pushdown_equals_full(ray_session):
    """Projection pushdown through the enricher (enrich_fields=E14 desired
    fields) must be invisible to the aggregate: same (country, tool) counts
    and same routing-miss behavior as the full 14-leaf City enrich."""
    full = sink_counts(build_enriched(SF, columns=["text", "tool"])).to_pandas()
    pruned = sink_counts(
        build_enriched(
            SF,
            columns=["text", "tool"],
            drop_text=True,
            enrich_fields=("country_code2",),
        )
    ).to_pandas()
    merged = full.merge(pruned, on=["country", "tool"], how="outer", suffixes=("_f", "_p"))
    assert len(merged) == len(full) == len(pruned)
    assert (merged["n_f"] == merged["n_p"]).all()
    assert "_miss" in set(pruned["country"])


def test_turn_histogram_matches_oracle(ray_session):
    hist = country_turn_histogram(build_enriched(SF)).to_pandas()
    oracle = duckdb.sql(oracle_turn_histogram_sql(SF)).df()
    merged = hist.merge(oracle, on=["country", "turn_bucket"], how="outer", suffixes=("_r", "_o"))
    assert len(merged) == len(hist) == len(oracle)
    assert (merged["n_r"] == merged["n_o"]).all()


@pytest.mark.parametrize(
    "spec", ["isp_counts", "domain_counts", "enterprise_counts", "anonymous_counts"]
)
def test_db_type_counts_match_oracle(ray_session, spec):
    """E7/E9/E10/E11 end-to-end: ISP/Domain/Enterprise/Anonymous pipelines
    vs the golden-side-table DuckDB oracle."""
    import importlib.util
    import pathlib

    entry = pathlib.Path(__file__).resolve().parents[1] / "__ray_entry__.py"
    s = importlib.util.spec_from_file_location("_ray_entry_test", entry)
    mod = importlib.util.module_from_spec(s)
    s.loader.exec_module(mod)
    from logstash_filter_geoip_ray.pipelines.geoip_pipeline import (
        oracle_db_key_counts_sql,
    )

    ray_df = mod.queries()[spec](SF).to_pandas()
    _, _, oracle_cols = mod._DB_COUNT_SPECS[spec]
    oracle_df = duckdb.sql(oracle_db_key_counts_sql(SF, oracle_cols)).df()
    keys = [c for c in ray_df.columns if c != "n"]
    merged = ray_df.merge(oracle_df, on=keys, how="outer", suffixes=("_r", "_o"))
    assert len(merged) == len(ray_df) == len(oracle_df)
    assert (merged["n_r"] == merged["n_o"]).all()


def test_routed_rows_stable_ordering(ray_session):
    """Per-turn text equality under stable (conv_id, turn_idx) ordering
    (input_hint invariant): keys survive the pipeline untouched."""
    import pyarrow.parquet as pq

    ds = build_enriched(SF)
    out = ds.select_columns(["conv_id", "turn_idx", "text"]).to_pandas()
    out = out.sort_values(["conv_id", "turn_idx"]).reset_index(drop=True)
    src = pq.read_table(transcripts_path(SF), columns=["conv_id", "turn_idx", "text"]).to_pandas()
    src = src.sort_values(["conv_id", "turn_idx"]).reset_index(drop=True)
    assert (out["text"] == src["text"]).all()
    assert len(out) == len(src)


def test_routed_fanout_write(ray_session, tmp_path):
    out_dir = str(tmp_path / "routed")
    ds = build_enriched(SF)
    write_routed(ds, out_dir)
    import glob
    import pyarrow.parquet as pq

    part_dirs = glob.glob(out_dir + "/country=*/tool=*")
    assert len(part_dirs) > 10
    # per-sink row counts from the files must equal the aggregate query
    total = sum(
        pq.read_table(f).num_rows for f in glob.glob(out_dir + "/**/*.parquet", recursive=True)
    )
    assert total == 6000
    # spot one sink: the US bucket exists (Milton vectors dominate the pool)
    assert any("country=US" in d for d in part_dirs)
    assert any("country=_miss" in d for d in part_dirs)


def test_salted_counts_match_plain(ray_session):
    from logstash_filter_geoip_ray.stages.aggregate import salted_grouped_counts

    ds = build_enriched(SF)
    plain = sink_counts(ds).to_pandas()
    salted = (
        salted_grouped_counts(build_enriched(SF), ["country", "tool"], buckets=4)
        .sort(["country", "tool"])
        .to_pandas()
    )
    merged = plain.merge(salted, on=["country", "tool"], suffixes=("_p", "_s"))
    assert (merged["n_p"] == merged["n_s"]).all()


def test_bucketed_routed_write(ray_session, tmp_path):
    """Hash-bucket exchange: exactly one file per sink, no sort operator,
    same per-sink totals as the aggregate query."""
    import glob
    import pyarrow.parquet as pq

    from logstash_filter_geoip_ray.pipelines.geoip_pipeline import (
        write_routed_bucketed,
    )

    out_dir = str(tmp_path / "routed_bucketed")
    _, files_written = write_routed_bucketed(build_enriched(SF), out_dir, num_buckets=8)
    files = glob.glob(out_dir + "/**/*.parquet", recursive=True)
    part_dirs = glob.glob(out_dir + "/country=*/tool=*")
    assert len(files) == files_written == len(part_dirs)  # one file per sink
    # per-sink counts equal the aggregate path
    expected = {
        (r["country"], r["tool"]): r["n"]
        for _, r in sink_counts(build_enriched(SF)).to_pandas().iterrows()
    }
    got = {}
    for d in part_dirs:
        country = d.split("country=")[1].split("/")[0]
        tool = d.split("tool=")[1]
        got[(country, tool)] = sum(
            pq.read_table(f).num_rows for f in glob.glob(d + "/*.parquet")
        )
    assert got == expected


def test_actor_mode_matches_task_mode(ray_session):
    """enrich_mode='actors' (classic actor pool) must produce identical sink
    counts to the default task mode."""
    tasks = sink_counts(build_enriched(SF, enrich_mode="tasks")).to_pandas()
    actors = sink_counts(
        build_enriched(SF, enrich_mode="actors", concurrency=2)
    ).to_pandas()
    merged = tasks.merge(actors, on=["country", "tool"], suffixes=("_t", "_a"))
    assert len(merged) == len(tasks) == len(actors)
    assert (merged["n_t"] == merged["n_a"]).all()


def test_clustered_routed_write(ray_session, tmp_path):
    """cluster=True range-partitions by sink → ~one file per sink."""
    import glob
    import pyarrow.parquet as pq

    out_dir = str(tmp_path / "routed_clustered")
    write_routed(build_enriched(SF), out_dir, cluster=True)
    files = glob.glob(out_dir + "/**/*.parquet", recursive=True)
    part_dirs = glob.glob(out_dir + "/country=*/tool=*")
    assert len(files) <= len(part_dirs) + 8  # ~one file per sink
    total = sum(pq.read_table(f).num_rows for f in files)
    assert total == 6000


def test_sink_counts_checkpointed_matches_oracle(ray_session, tmp_path):
    """P8 driver query: the checkpointed enrich path reproduces the flagship
    sink counts, and a rerun is a pure resume (no shard reprocessed)."""
    import glob
    import os

    from logstash_filter_geoip_ray.pipelines.geoip_pipeline import (
        sink_counts_checkpointed,
    )
    from logstash_filter_geoip_ray.sources.transcripts import transcripts_path

    work = str(tmp_path / "ckpt")
    counts = sink_counts_checkpointed(SF, work_root=work).to_pandas()
    oracle = duckdb.sql(oracle_sink_counts_sql(SF)).df()
    merged = counts.merge(oracle, on=["country", "tool"], how="outer", suffixes=("_r", "_o"))
    assert len(merged) == len(counts) == len(oracle)
    assert (merged["n_r"] == merged["n_o"]).all()
    # rerun resumes: every manifest already present, outputs unchanged
    out_dir = glob.glob(os.path.join(work, "*"))[0]
    manifests = glob.glob(os.path.join(out_dir, "_manifests", "*.json"))
    n_inputs = len(glob.glob(os.path.join(transcripts_path(SF), "*.parquet")))
    assert len(manifests) == n_inputs
    mtimes = {m: os.path.getmtime(m) for m in manifests}
    counts2 = sink_counts_checkpointed(SF, work_root=work).to_pandas()
    assert counts2.equals(counts)
    assert {m: os.path.getmtime(m) for m in manifests} == mtimes


def test_ipc_fanout_retry_idempotent(tmp_path):
    """A retried map task (same task id, fresh worker, same batch replay)
    must OVERWRITE its failed attempt's staged files, not add a second copy
    — otherwise the compaction duplicates rows. Simulated by re-running the
    fan-out fn on the same batch after clearing the per-worker sequence
    (what a fresh worker process sees)."""
    import glob

    import pyarrow as pa

    from logstash_filter_geoip_ray.pipelines import geoip_pipeline as gp

    batch = pa.table(
        {"country": ["US", "US", "DE"], "tool": ["a", "b", "b"], "v": [1, 2, 3]}
    )
    fn = gp._hive_fanout_ipc(str(tmp_path), ["country", "tool"])
    gp._FANOUT_TASK_SEQ.clear()
    fn(batch)
    files1 = sorted(glob.glob(str(tmp_path) + "/**/*.arrow", recursive=True))
    gp._FANOUT_TASK_SEQ.clear()  # retry = fresh worker: counter resets
    report = fn(batch)
    files2 = sorted(glob.glob(str(tmp_path) + "/**/*.arrow", recursive=True))
    assert files1 == files2  # identical names -> overwrite, no duplicates
    assert len(files1) == 1  # one staged file per call
    # one batch per (country, tool) sink run
    assert report["sink"].to_pylist() == [
        "country=DE/tool=b", "country=US/tool=a", "country=US/tool=b"
    ]
    assert report["batch"].to_pylist() == [0, 1, 2]
    # rows survive exactly once
    total = 0
    for p in files2:
        with pa.OSFile(p, "rb") as f:
            total += pa.ipc.open_file(f).read_all().num_rows
    assert total == 3
    # no tmp strays after clean publishes
    assert not glob.glob(str(tmp_path) + "/**/*.tmp", recursive=True)


def test_ipc_fanout_rejects_separator_in_key(tmp_path):
    """A '/' or '=' in a routing-key value would silently nest staging dirs
    and corrupt the sink→dir mapping — must raise loudly instead."""
    import pyarrow as pa
    import pytest

    from logstash_filter_geoip_ray.pipelines import geoip_pipeline as gp

    fn = gp._hive_fanout_ipc(str(tmp_path), ["country", "tool"])
    bad = pa.table({"country": ["U/S"], "tool": ["a"], "v": [1]})
    with pytest.raises(ValueError, match="sanitize routing keys"):
        fn(bad)


def test_bucketed_routed_write_staging_formats_equal(ray_session, tmp_path):
    """The lz4-IPC staging path (default) and the parquet staging path must
    produce byte-equal logical output: same sink layout, same schema (key
    cols live in the dir name, not the file), same rows per sink."""
    import glob

    import pyarrow.parquet as pq

    from logstash_filter_geoip_ray.pipelines.geoip_pipeline import (
        write_routed_bucketed,
    )

    outs = {}
    for fmt in ("ipc", "parquet"):
        out_dir = str(tmp_path / ("routed_" + fmt))
        write_routed_bucketed(
            build_enriched(SF), out_dir, num_buckets=4, staging_format=fmt
        )
        sinks = {}
        for f in sorted(glob.glob(out_dir + "/country=*/tool=*/*.parquet")):
            rel = os.path.relpath(f, out_dir)
            t = pq.read_table(f)
            # routed rows are unordered across staging parts: normalize
            sinks[os.path.dirname(rel)] = t.sort_by(
                [("conv_id", "ascending"), ("turn_idx", "ascending")]
            )
        outs[fmt] = sinks
    assert outs["ipc"].keys() == outs["parquet"].keys()
    for k in outs["ipc"]:
        a, b = outs["ipc"][k], outs["parquet"][k]
        assert a.schema.names == b.schema.names
        assert a.cast(b.schema).equals(b)


def test_bucketed_routed_write_clears_stale_sinks(ray_session, tmp_path):
    """Rerunning into a reused out_dir with different input must not leave
    stale key-partition dirs from the previous run mixed into the output."""
    import pyarrow as pa
    import ray.data

    from logstash_filter_geoip_ray.pipelines.geoip_pipeline import (
        write_routed_bucketed,
    )

    out = str(tmp_path / "routed")
    t1 = pa.table({"country": ["US", "DE"], "tool": ["a", "b"], "v": [1, 2]})
    write_routed_bucketed(ray.data.from_arrow(t1), out)
    assert os.path.isdir(os.path.join(out, "country=DE"))

    t2 = pa.table({"country": ["US"], "tool": ["a"], "v": [3]})
    _, nfiles = write_routed_bucketed(ray.data.from_arrow(t2), out)
    assert nfiles == 1
    assert not os.path.isdir(os.path.join(out, "country=DE"))
    import pyarrow.parquet as pq

    got = pq.read_table(os.path.join(out, "country=US", "tool=a", "part-00000.parquet"))
    assert got["v"].to_pylist() == [3]


def test_bucketed_routed_write_probes_shared_storage(ray_session, tmp_path):
    """Capability probe: a staging dir the workers can write but the driver
    cannot see (node-local disk on a real cluster) must fail fast with a
    clear message BEFORE the phase-1 fan-out write burns fleet hours.
    Simulated by injecting a probe body that writes to a different root."""
    import pyarrow as pa
    import pytest
    import ray.data

    from logstash_filter_geoip_ray.pipelines.geoip_pipeline import (
        write_routed_bucketed,
    )

    elsewhere = str(tmp_path / "node_local")
    os.makedirs(elsewhere, exist_ok=True)

    def node_local_probe(path):
        # models a worker resolving out_dir onto its own local disk: the
        # write succeeds *somewhere*, but not where the driver looks
        with open(os.path.join(elsewhere, os.path.basename(path)), "w") as f:
            f.write("ok")
        return True

    t = pa.table({"country": ["US"], "tool": ["a"], "v": [1]})
    with pytest.raises(RuntimeError, match="shared storage"):
        write_routed_bucketed(
            ray.data.from_arrow(t),
            str(tmp_path / "routed_probe"),
            _probe_write=node_local_probe,
        )
    # and nothing was fan-out written: phase 1 never started
    import glob as _glob

    assert not _glob.glob(str(tmp_path / "routed_probe") + "/**/*.parquet", recursive=True)


def test_geohash_kernel_vectors_and_sql_parity():
    """Known geohash vectors (Niemeyer's canonical u4pru…, plus world
    cities), numpy ≡ generated-SQL parity on a random sweep, edge clamp,
    and NULL propagation through the SQL twin (DuckDB LEAST/GREATEST skip
    nulls — the CASE guard must re-assert them)."""
    import numpy as np

    from logstash_filter_geoip_ray.functions.geo import (
        geohash_chars_sql,
        geohash_encode,
        geohash_idx_sql,
        geohash_interleave_sql,
    )

    lat = np.array([57.64911, 38.8977, -33.8688, 0.0, 90.0, -90.0])
    lon = np.array([10.40744, -77.0365, 151.2093, 0.0, 180.0, -180.0])
    got = geohash_encode(lat, lon, 5).tolist()
    assert got[0] == "u4pru"  # canonical example prefix
    assert got[3] == "s0000"  # origin
    assert len(set(got)) == 6

    # precision sweep against the pure-python reference implementation
    def ref(lat_v, lon_v, p):
        lo, hi = {"lat": [-90.0, 90.0], "lon": [-180.0, 180.0]}, None
        intervals = {"lat": [-90.0, 90.0], "lon": [-180.0, 180.0]}
        bits, axis, out = 0, "lon", 0
        chars = []
        alphabet = "0123456789bcdefghjkmnpqrstuvwxyz"
        for _ in range(5 * p):
            iv = intervals[axis]
            mid = (iv[0] + iv[1]) / 2
            v = lon_v if axis == "lon" else lat_v
            out <<= 1
            if v >= mid:
                out |= 1
                iv[0] = mid
            else:
                iv[1] = mid
            axis = "lat" if axis == "lon" else "lon"
            bits += 1
            if bits == 5:
                chars.append(alphabet[out])
                bits, out = 0, 0
        return "".join(chars)

    rng = np.random.default_rng(7)
    rl = rng.uniform(-89.9, 89.9, 64)
    rg = rng.uniform(-179.9, 179.9, 64)
    for p in (1, 5, 7):
        enc = geohash_encode(rl, rg, p)
        for a, b, e in zip(rl, rg, enc):
            assert e == ref(a, b, p), (a, b, p)

    # SQL twin parity incl. NULL propagation
    la, lo = geohash_idx_sql("lat", "lon", 5)
    inter = geohash_interleave_sql("la", "lo", 5)
    chars = geohash_chars_sql("g", 5)
    rows = ", ".join(f"({a!r}, {b!r})" for a, b in zip(rl, rg))
    sql = f"""
WITH pts(lat, lon) AS (VALUES {rows}, (CAST(NULL AS DOUBLE), 10.0)),
 idx AS (SELECT {la} AS la, {lo} AS lo FROM pts),
 inter AS (SELECT *, {inter} AS g FROM idx)
SELECT coalesce({chars}, '_miss') AS gh FROM inter
"""
    got_sql = duckdb.sql(sql).df()["gh"].tolist()
    assert got_sql[:-1] == geohash_encode(rl, rg, 5).tolist()
    assert got_sql[-1] == "_miss"


def test_geohash_counts_match_oracle(ray_session):
    from logstash_filter_geoip_ray.pipelines.geoip_pipeline import (
        geohash_counts,
        oracle_geohash_counts_sql,
    )

    counts = geohash_counts(SF).to_pandas()
    oracle = duckdb.sql(oracle_geohash_counts_sql(SF)).df()
    merged = counts.merge(oracle, on="geohash", how="outer", suffixes=("_r", "_o"))
    assert len(merged) == len(counts) == len(oracle)
    assert (merged["n_r"] == merged["n_o"]).all()
    assert counts["n"].sum() == 6000


def test_log_templates_match_oracle(ray_session):
    """Template mining: vectorized number/whitespace normalization plus
    per-tool top-5 must equal the DuckDB window-rank oracle at sf0.001
    (the registered oracle embeds the driver's sf0.01 path, so the SQL is
    re-derived here against SF)."""
    import importlib.util
    import os

    spec = importlib.util.spec_from_file_location(
        "__ray_entry_test__",
        os.path.join(os.path.dirname(__file__), "..", "__ray_entry__.py"),
    )
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    got = mod.queries()["log_templates"](SF).to_pandas()
    t = transcripts_path(SF)
    oracle = duckdb.sql(f"""
WITH tpl AS (
  SELECT tool,
         trim(regexp_replace(regexp_replace(text, '[0-9]+', '<n>', 'g'),
                             '\\s+', ' ', 'g')) AS template
  FROM read_parquet('{t}/*.parquet')
)
SELECT tool, n, template FROM (
  SELECT tool, template, CAST(count(*) AS BIGINT) AS n,
         row_number() OVER (PARTITION BY tool
                            ORDER BY count(*) DESC, template) AS rn
  FROM tpl GROUP BY 1, 2)
WHERE rn <= 5
ORDER BY tool, n DESC, template
""").df()
    cols = sorted(got.columns)
    a = got[cols].astype(str).sort_values(cols).reset_index(drop=True)
    b = oracle[cols].astype(str).sort_values(cols).reset_index(drop=True)
    assert a.equals(b)


def test_latency_slo_match_oracle(ray_session):
    """Counting-quantile SLO report must equal the DuckDB order-statistic
    oracle at sf0.001 (SQL re-derived at this SF)."""
    import importlib.util
    import os

    spec = importlib.util.spec_from_file_location(
        "__ray_entry_test2__",
        os.path.join(os.path.dirname(__file__), "..", "__ray_entry__.py"),
    )
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    got = mod.queries()["latency_slo"](SF).to_pandas()
    t = transcripts_path(SF)
    oracle = duckdb.sql(f"""
WITH lat AS (
  SELECT regexp_extract(text, 'status=(\\d+)', 1) AS status,
         CAST(regexp_extract(text, 'latency=(\\d+)ms', 1) AS BIGINT) AS ms
  FROM read_parquet('{t}/*.parquet')
  WHERE regexp_extract(text, 'latency=(\\d+)ms', 1) <> ''
    AND regexp_extract(text, 'status=(\\d+)', 1) <> ''
), r AS (
  SELECT status, ms,
         row_number() OVER (PARTITION BY status ORDER BY ms) AS rn,
         count(*) OVER (PARTITION BY status) AS n
  FROM lat
)
SELECT status, CAST(max(n) AS BIGINT) AS n,
       CAST(max(CASE WHEN rn = CAST(ceil(0.50 * n) AS BIGINT) THEN ms END) AS BIGINT) AS p50_ms,
       CAST(max(CASE WHEN rn = CAST(ceil(0.95 * n) AS BIGINT) THEN ms END) AS BIGINT) AS p95_ms,
       CAST(max(CASE WHEN rn = CAST(ceil(0.99 * n) AS BIGINT) THEN ms END) AS BIGINT) AS p99_ms
FROM r GROUP BY status ORDER BY status
""").df()
    cols = sorted(got.columns)
    a = got[cols].astype(str).sort_values(cols).reset_index(drop=True)
    b = oracle[cols].astype(str).sort_values(cols).reset_index(drop=True)
    assert a.equals(b)


def test_sink_counts_incremental_exactly_once(ray_session, tmp_path):
    """Micro-batch incremental aggregation: equals batch sink_counts, a
    rerun recomputes nothing (state mtimes frozen), and a deleted partial
    is the ONLY thing a subsequent run recomputes."""
    import glob
    import os

    from logstash_filter_geoip_ray.pipelines.geoip_pipeline import (
        sink_counts_incremental,
    )

    sf = "/root/testdata/sf0.01"  # 4 row groups -> 2 micro-batches of 2
    state = str(tmp_path / "incr")
    got = sink_counts_incremental(
        sf, micro_batch_units=2, state_root=state
    ).to_pandas()
    oracle = duckdb.sql(oracle_sink_counts_sql(sf)).df()
    merged = got.merge(oracle, on=["country", "tool"], suffixes=("_r", "_o"))
    assert len(merged) == len(got) == len(oracle)
    assert (merged["n_r"] == merged["n_o"]).all()

    parts = sorted(glob.glob(os.path.join(state, "*", "partial-*.parquet")))
    assert len(parts) >= 2
    mtimes = {p: os.path.getmtime(p) for p in parts}
    again = sink_counts_incremental(
        sf, micro_batch_units=2, state_root=state
    ).to_pandas()
    assert again.equals(got)
    assert {p: os.path.getmtime(p) for p in parts} == mtimes  # pure resume

    victim = parts[0]
    os.remove(victim)
    third = sink_counts_incremental(
        sf, micro_batch_units=2, state_root=state
    ).to_pandas()
    assert third.equals(got)
    assert os.path.exists(victim)  # only the deleted partial recomputed
    for p in parts[1:]:
        assert os.path.getmtime(p) == mtimes[p]


def test_delete_rows_partitioned_minimal_rewrite(ray_session, tmp_path):
    """GDPR delete: target rows gone, row parity holds, and files WITHOUT
    targets keep their exact mtime (no write amplification)."""
    import glob
    import os

    import duckdb as _duck

    from logstash_filter_geoip_ray.pipelines.geoip_pipeline import (
        build_enriched,
        delete_rows_partitioned,
        write_routed,
    )

    out = str(tmp_path / "routed")
    write_routed(build_enriched(SF), out)
    files = sorted(glob.glob(os.path.join(out, "**", "*.parquet"), recursive=True))
    before = _duck.sql(
        f"SELECT count(*) FROM read_parquet('{out}/**/*.parquet')"
    ).fetchone()[0]
    # pick victims present in SOME files only
    victims = _duck.sql(
        f"SELECT DISTINCT conv_id FROM read_parquet('{out}/**/*.parquet') LIMIT 3"
    ).df()["conv_id"].tolist()
    n_victim_rows = _duck.sql(
        f"SELECT count(*) FROM read_parquet('{out}/**/*.parquet') "
        f"WHERE conv_id IN ({', '.join(repr(v) for v in victims)})"
    ).fetchone()[0]
    mtimes = {p: os.path.getmtime(p) for p in files}

    rep = delete_rows_partitioned(out, "conv_id", victims)
    assert rep["files_scanned"] == len(files)
    assert rep["rows_deleted"] == n_victim_rows > 0
    assert rep["rows_kept"] == before - n_victim_rows
    after = _duck.sql(
        f"SELECT count(*) FROM read_parquet('{out}/**/*.parquet')"
    ).fetchone()[0]
    assert after == before - n_victim_rows
    left = _duck.sql(
        f"SELECT count(*) FROM read_parquet('{out}/**/*.parquet') "
        f"WHERE conv_id IN ({', '.join(repr(v) for v in victims)})"
    ).fetchone()[0]
    assert left == 0
    untouched = [p for p in files if os.path.getmtime(p) == mtimes[p]]
    assert len(untouched) == rep["files_scanned"] - rep["files_rewritten"]
    assert rep["files_rewritten"] < rep["files_scanned"]  # pruning was real


def test_compact_partition_files(ray_session, tmp_path):
    """Compaction: row/value parity, fewer files, single-file dirs
    untouched, repeated rounds converge over earlier compact outputs, and
    marker recovery completes BOTH crash windows (tmp written + marker
    published; old files pending deletion)."""
    import glob
    import json
    import os

    import duckdb as _duck
    import pyarrow as pa
    import pyarrow.parquet as pq

    from logstash_filter_geoip_ray.pipelines.geoip_pipeline import (
        compact_partition_files,
    )

    root = tmp_path / "store"
    (root / "k=1").mkdir(parents=True)
    (root / "k=2").mkdir(parents=True)
    for i in range(4):
        pq.write_table(
            pa.table({"x": pa.array([i * 10 + j for j in range(5)], pa.int64())}),
            str(root / "k=1" / f"part-{i}.parquet"),
        )
    pq.write_table(
        pa.table({"x": pa.array([999], pa.int64())}),
        str(root / "k=2" / "only.parquet"),
    )
    before = _duck.sql(
        f"SELECT sum(x), count(*) FROM read_parquet('{root}/**/*.parquet')"
    ).fetchone()
    single = str(root / "k=2" / "only.parquet")
    single_mtime = os.path.getmtime(single)

    rep = compact_partition_files(str(root), target_rows=100)
    assert rep == {
        "dirs_scanned": 2, "dirs_compacted": 1,
        "files_before": 5, "files_after": 2,
    }
    after = _duck.sql(
        f"SELECT sum(x), count(*) FROM read_parquet('{root}/**/*.parquet')"
    ).fetchone()
    assert after == before
    assert os.path.getmtime(single) == single_mtime
    assert len(glob.glob(str(root / "k=1" / "*.parquet"))) == 1

    # convergence: a NEW small file beside the earlier compact output must
    # merge WITH it (compact-* files are inputs too)
    pq.write_table(
        pa.table({"x": pa.array([1000], pa.int64())}),
        str(root / "k=1" / "late-arrival.parquet"),
    )
    rep2 = compact_partition_files(str(root), target_rows=100)
    assert rep2["dirs_compacted"] == 1
    assert len(glob.glob(str(root / "k=1" / "*.parquet"))) == 1
    total2 = _duck.sql(
        f"SELECT sum(x), count(*) FROM read_parquet('{root}/**/*.parquet')"
    ).fetchone()
    assert total2 == (before[0] + 1000, before[1] + 1)

    # crash window A (tmp complete, marker published, nothing renamed):
    # recovery must rename the tmp and delete the old file — no data loss
    old_file = glob.glob(str(root / "k=1" / "*.parquet"))[0]
    stale = str(root / "k=1" / "zz-stale.parquet")
    os.rename(old_file, stale)
    final = str(root / "k=1" / "compact-recover-0000.parquet")
    src = pq.read_table(stale)
    pq.write_table(src, final + ".tmp")
    with open(str(root / "k=1" / "_compacting.json"), "w") as f:
        json.dump({"replaced": [stale], "publish": [[final + ".tmp", final]]}, f)
    rep3 = compact_partition_files(str(root), target_rows=100)
    assert not os.path.exists(stale)
    assert not os.path.exists(final + ".tmp")
    assert os.path.exists(final)
    total3 = _duck.sql(
        f"SELECT sum(x), count(*) FROM read_parquet('{root}/**/*.parquet')"
    ).fetchone()
    assert total3 == total2


def test_delete_rows_partitioned_guards(ray_session, tmp_path):
    """Plan-time guards: unknown predicate column and empty values raise."""
    import pyarrow as pa
    import pyarrow.parquet as pq
    import pytest

    from logstash_filter_geoip_ray.pipelines.geoip_pipeline import (
        delete_rows_partitioned,
    )

    d = tmp_path / "s"
    d.mkdir()
    pq.write_table(pa.table({"x": pa.array([1], pa.int64())}), str(d / "a.parquet"))
    with pytest.raises(KeyError, match="'nope'"):
        delete_rows_partitioned(str(d), "nope", [1])
    with pytest.raises(ValueError, match="empty values"):
        delete_rows_partitioned(str(d), "x", [])
    with pytest.raises(FileNotFoundError):
        delete_rows_partitioned(str(tmp_path / "missing"), "x", [1])
    # schema-evolved file WITHOUT the predicate column: skipped, not crashed
    pq.write_table(
        pa.table({"x": pa.array([2], pa.int64()), "region": ["eu"]}),
        str(d / "b.parquet"),
    )
    rep = delete_rows_partitioned(str(d), "region", ["eu"])
    assert rep["files_scanned"] == 2
    assert rep["rows_deleted"] == 1        # only b.parquet had the column
    assert rep["files_rewritten"] == 1
    # numpy array input works (materialized before truthiness)
    import numpy as np

    rep2 = delete_rows_partitioned(str(d), "x", np.array([1, 2]))
    assert rep2["rows_deleted"] >= 1


def test_rotation_window_policy():
    """The driver-checked 50-query window self-advances deterministically:
    canaries always lead, the other 48 slots prefer oracle-backed queries
    with no prior driver CORRECTNESS row (registration order), and once all
    are covered the least-recently-checked refresh; every name is oracle-
    backed and the window never exceeds 50."""
    import importlib.util
    import pathlib

    entry = pathlib.Path(__file__).resolve().parents[1] / "__ray_entry__.py"
    s = importlib.util.spec_from_file_location("_ray_entry_rot", entry)
    mod = importlib.util.module_from_spec(s)
    s.loader.exec_module(mod)

    # synthetic registries: 6 oracle-backed + 1 rows-only
    out = {n: (lambda sf: None) for n in ["sink_counts", "routed_rows", "a", "b", "c", "d", "rows_only"]}
    sql = {n: "SELECT 1" for n in ["sink_counts", "routed_rows", "a", "b", "c", "d"]}
    w = mod._rotation_window(out, sql)
    assert w[:2] == ["sink_counts", "routed_rows"]
    assert "rows_only" not in w
    assert len(w) == len(set(w)) <= 50
    # with the repo's real CORRECTNESS files the real window holds exactly
    # 50 distinct oracle-backed names led by the canaries, and prefers
    # never-driver-checked queries for every non-canary slot when enough
    # exist
    import glob
    import json

    real_q, real_sql = mod.queries(), mod.oracle_sql()
    window = [n for n in real_q if n in real_sql][:50]
    assert window[:2] == ["sink_counts", "routed_rows"]
    assert len(set(window)) == 50
    checked = set()
    for p in sorted(glob.glob(str(entry.parent / "CORRECTNESS_r*.json"))):
        checked.update(json.load(open(p)))
    never = [n for n in real_sql if n not in checked and n not in window[:2]]
    if len(never) >= 48:
        assert all(n in never or n in window[:2] for n in window)


def test_resumable_bucketed_write_sigkill_resume(ray_session, tmp_path):
    """Round-5 verdict item #4: SIGKILL mid-phase-1 → resume skips the
    committed shards, reruns only the rest, and compacts to BYTE-IDENTICAL
    sink files vs an uninterrupted run (deterministic per-shard staged part
    names + atomic manifests)."""
    import glob
    import hashlib
    import os
    import signal
    import subprocess
    import sys
    import textwrap
    import time

    from logstash_filter_geoip_ray.pipelines.geoip_pipeline import (
        write_routed_bucketed_resumable,
    )
    from logstash_filter_geoip_ray.sources.transcripts import transcripts_path

    input_dir = transcripts_path(SF, rows=200_000)  # 4 shards
    out_a = str(tmp_path / "uninterrupted")
    out_b = str(tmp_path / "interrupted")

    _, files_a, s_a = write_routed_bucketed_resumable(input_dir, out_a)
    assert s_a["shards_processed"] == 4 and s_a["rows"] == 200_000

    # interrupted run in a subprocess: serial shards (num_cpus=1) slowed so
    # the kill lands after >=1 but <4 manifests are committed
    script = tmp_path / "killme.py"
    script.write_text(textwrap.dedent("""
        import sys, time
        import ray
        ray.init(address="local", num_cpus=1, include_dashboard=False,
                 logging_level="ERROR")
        from logstash_filter_geoip_ray.pipelines.geoip_pipeline import (
            _default_routed_shard_fn, default_config,
            write_routed_bucketed_resumable,
        )
        cfg = default_config()
        inner = _default_routed_shard_fn(cfg)
        def slow(p):
            t = inner(p)
            time.sleep(2.0)
            return t
        write_routed_bucketed_resumable(sys.argv[1], sys.argv[2],
                                        config=cfg, shard_fn=slow)
    """))
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))))
    proc = subprocess.Popen(
        [sys.executable, str(script), input_dir, out_b],
        env=env, start_new_session=True,
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    man_glob = os.path.join(out_b, "_staging", "_manifests", "*.json")
    deadline = time.time() + 120
    while time.time() < deadline:
        n = len(glob.glob(man_glob))
        if 1 <= n < 4:
            break
        if proc.poll() is not None:
            raise AssertionError("subprocess finished before the kill")
        time.sleep(0.05)
    os.killpg(os.getpgid(proc.pid), signal.SIGKILL)
    proc.wait()
    n_committed = len(glob.glob(man_glob))
    assert 1 <= n_committed < 4  # died mid-phase-1

    # resume in this process: committed shards are SKIPPED
    _, files_b, s_b = write_routed_bucketed_resumable(input_dir, out_b)
    assert s_b["shards_skipped"] == n_committed
    assert s_b["shards_processed"] == 4 - n_committed
    assert s_b["rows"] == 200_000

    # byte-identical sinks vs the uninterrupted run
    def digest_tree(root):
        out = {}
        for f in sorted(glob.glob(root + "/**/*.parquet", recursive=True)):
            with open(f, "rb") as fh:
                out[os.path.relpath(f, root)] = hashlib.md5(fh.read()).hexdigest()
        return out

    da, db = digest_tree(out_a), digest_tree(out_b)
    assert da and da == db
    assert files_a == files_b == len(da)


def test_bucketed_routed_write_hot_sink_salted(ray_session, tmp_path):
    """Round-5 verdict item #5: a planted 50%-hot sink is auto-salted — its
    phase-2 compaction runs as K parallel part files — while every other
    sink stays single-file, and per-sink row totals are unchanged."""
    import glob
    import math

    import numpy as np
    import pyarrow.parquet as pq
    import ray.data

    from logstash_filter_geoip_ray.pipelines.geoip_pipeline import (
        write_routed_bucketed,
    )

    n = 20_000
    rng = np.random.default_rng(3)
    hot = rng.random(n) < 0.5
    countries = np.where(hot, "US", rng.choice(["DE", "FR", "JP", "BR"], n))
    tools = np.where(hot, "grep", rng.choice(["bash", "edit"], n))
    tbl = pa.table(
        {
            "country": pa.array(countries.tolist()),
            "tool": pa.array(tools.tolist()),
            "conv_id": pa.array([f"c{i}" for i in range(n)]),
            "turn_idx": pa.array(np.arange(n, dtype=np.int64)),
        }
    )
    ds = ray.data.from_arrow(tbl).repartition(16)
    out = str(tmp_path / "hot")
    threshold = 2_000
    _, files = write_routed_bucketed(
        ds, out, num_buckets=4, hot_sink_rows=threshold
    )

    expected = {}
    for c, t in zip(countries.tolist(), tools.tolist()):
        expected[(c, t)] = expected.get((c, t), 0) + 1
    got, hot_parts = {}, None
    for d in glob.glob(out + "/country=*/tool=*"):
        c = d.split("country=")[1].split("/")[0]
        t = d.split("tool=")[1]
        parts = glob.glob(d + "/*.parquet")
        rows = sum(pq.read_table(p).num_rows for p in parts)
        got[(c, t)] = rows
        if (c, t) == ("US", "grep"):
            hot_parts = len(parts)
        else:
            assert len(parts) == 1, (c, t, parts)  # cold sinks single-file
    assert got == expected  # row totals unchanged by salting
    k_want = min(16, math.ceil(expected[("US", "grep")] / threshold))
    assert hot_parts == k_want  # hot sink split into K parallel parts
    assert files == len(got) - 1 + hot_parts


def test_resumable_bucketed_write_counts_match_aggregate(ray_session, tmp_path):
    """The resumable write's per-sink file row counts must equal the flagship
    sink_counts aggregate over the same input — the two phase-1 transform
    chains (Dataset pipeline vs per-shard task) cannot be allowed to drift;
    with hot_sink_rows set, splitting must not change any total."""
    import glob
    import math

    import pyarrow.parquet as pq

    from logstash_filter_geoip_ray.pipelines.geoip_pipeline import (
        write_routed_bucketed_resumable,
    )
    from logstash_filter_geoip_ray.sources.transcripts import transcripts_path

    rows = 200_000
    input_dir = transcripts_path(SF, rows=rows)
    out = str(tmp_path / "resumable_counts")
    threshold = 5_000
    _, files, summary = write_routed_bucketed_resumable(
        input_dir, out, hot_sink_rows=threshold
    )
    assert summary["rows"] == rows

    expected = {
        (r["country"], r["tool"]): r["n"]
        for _, r in sink_counts(
            build_enriched(SF, rows=rows)
        ).to_pandas().iterrows()
    }
    got, n_files = {}, 0
    for d in glob.glob(out + "/country=*/tool=*"):
        c = d.split("country=")[1].split("/")[0]
        t = d.split("tool=")[1]
        parts = glob.glob(d + "/*.parquet")
        n_files += len(parts)
        got[(c, t)] = sum(pq.read_table(p).num_rows for p in parts)
        want_parts = (
            min(4, math.ceil(expected[(c, t)] / threshold))  # 4 shards max
            if expected[(c, t)] > threshold
            else 1
        )
        assert len(parts) == want_parts, (c, t, len(parts), want_parts)
    assert got == expected
    assert files == n_files


def test_hot_sink_salting_parquet_staging(ray_session, tmp_path):
    """hot_sink_rows on the parquet staging path: per-sink rows come from
    footer metadata (no phase-1 partial counts there) — the hot sink still
    splits and totals still match."""
    import glob
    import numpy as np
    import pyarrow.parquet as pq
    import ray.data

    from logstash_filter_geoip_ray.pipelines.geoip_pipeline import (
        write_routed_bucketed,
    )

    n = 8_000
    rng = np.random.default_rng(5)
    hot = rng.random(n) < 0.5
    tbl = pa.table(
        {
            "country": pa.array(np.where(hot, "US", "DE").tolist()),
            "tool": pa.array(["bash"] * n),
            "turn_idx": pa.array(np.arange(n, dtype=np.int64)),
        }
    )
    out = str(tmp_path / "hotpq")
    _, files = write_routed_bucketed(
        ray.data.from_arrow(tbl).repartition(8), out,
        staging_format="parquet", hot_sink_rows=1_500,
    )
    got = {}
    for d in glob.glob(out + "/country=*/tool=*"):
        c = d.split("country=")[1].split("/")[0]
        parts = glob.glob(d + "/*.parquet")
        got[c] = (len(parts), sum(pq.read_table(p).num_rows for p in parts))
    assert got["US"][1] + got["DE"][1] == n
    assert got["US"][0] > 1  # hot sink split
    assert got["DE"][0] > 1 or got["DE"][1] <= 4_500  # DE may also exceed


def test_resumable_write_clears_stale_parts_before_rerun(ray_session, tmp_path):
    """A shard that crashed under a PRIOR config can leave staged parts whose
    names the new attempt never writes (different routing) — the rerun must
    remove every part carrying its stem before staging, or compaction would
    ingest the stale file. Planted: a garbage .arrow with shard-0's stem in
    a real sink dir, no manifests → full rerun must clear it (compaction
    would otherwise crash on the garbage bytes) and totals must hold."""
    import glob
    import os

    import pyarrow.parquet as pq

    from logstash_filter_geoip_ray.pipelines.geoip_pipeline import (
        write_routed_bucketed_resumable,
    )
    from logstash_filter_geoip_ray.sources.transcripts import transcripts_path

    rows = 200_000
    input_dir = transcripts_path(SF, rows=rows)
    out = str(tmp_path / "cfgchange")
    _, _, s1 = write_routed_bucketed_resumable(input_dir, out)
    sink_dirs = sorted(glob.glob(out + "/country=*/tool=*"))
    assert sink_dirs

    inputs = sorted(glob.glob(os.path.join(input_dir, "*.parquet")))
    stem0 = os.path.splitext(os.path.basename(inputs[0]))[0]
    staging = os.path.join(out, "_staging")
    real_sink_rel = os.path.relpath(sink_dirs[0], out)
    stale_dir = os.path.join(staging, real_sink_rel)
    os.makedirs(stale_dir, exist_ok=True)
    stale = os.path.join(stale_dir, "part-%s-00042.arrow" % stem0)
    with open(stale, "wb") as f:
        f.write(b"not-an-ipc-stream")  # compaction would crash on this
    os.makedirs(os.path.join(staging, "_manifests"), exist_ok=True)

    _, files, s2 = write_routed_bucketed_resumable(input_dir, out)
    assert s2["shards_processed"] == 4  # no manifests survived → full rerun
    total = sum(
        pq.read_table(f).num_rows
        for f in glob.glob(out + "/**/*.parquet", recursive=True)
    )
    assert total == rows


def _sink_digests(root):
    """{sink file relative to ``root``: md5} over a routed write's output."""
    import glob
    import hashlib

    out = {}
    for f in sorted(glob.glob(root + "/**/*.parquet", recursive=True)):
        with open(f, "rb") as fh:
            out[os.path.relpath(f, root)] = hashlib.md5(fh.read()).hexdigest()
    return out


def test_resumable_write_after_input_set_changes(ray_session, tmp_path):
    """A first run fails in phase 1 after three of four shards commit; then
    one committed input shard is deleted and another renamed. The rerun on
    the same out_dir reads only the current inputs' manifests, so its sinks
    are byte-identical to a clean run over the new input set — the deleted
    shard's and the old name's staged rows never reach the output."""
    import glob
    import shutil
    import time

    import pyarrow.parquet as pq

    from logstash_filter_geoip_ray.pipelines.geoip_pipeline import (
        _default_routed_shard_fn,
        default_config,
        write_routed_bucketed_resumable,
    )

    src = sorted(glob.glob(os.path.join(transcripts_path(SF, rows=200_000),
                                        "*.parquet")))
    assert len(src) == 4
    input_dir = str(tmp_path / "in")
    os.makedirs(input_dir)
    for p in src:
        shutil.copy(p, input_dir)
    stems = [os.path.splitext(os.path.basename(p))[0] for p in src]
    out = str(tmp_path / "out")
    man_glob = os.path.join(out, "_staging", "_manifests", "*.json")
    inner = _default_routed_shard_fn(default_config())

    def fail_last(path):
        if os.path.basename(path) == stems[-1] + ".parquet":
            deadline = time.time() + 60
            while len(glob.glob(man_glob)) < 3 and time.time() < deadline:
                time.sleep(0.05)
            raise RuntimeError("planted shard failure")
        return inner(path)

    with pytest.raises(Exception, match="planted shard failure"):
        write_routed_bucketed_resumable(input_dir, out, shard_fn=fail_last)
    assert sorted(os.path.basename(m) for m in glob.glob(man_glob)) == [
        s + ".json" for s in stems[:3]
    ]

    os.remove(os.path.join(input_dir, stems[0] + ".parquet"))
    os.rename(os.path.join(input_dir, stems[1] + ".parquet"),
              os.path.join(input_dir, "renamed.parquet"))
    _, files, summary = write_routed_bucketed_resumable(input_dir, out)
    assert summary["shards_skipped"] == 1  # stems[2] stays committed
    assert summary["shards_processed"] == 2  # the renamed and the failed one
    assert summary["rows"] == sum(
        pq.ParquetFile(p).metadata.num_rows for p in src[1:]
    )

    clean = str(tmp_path / "clean")
    _, files_clean, _ = write_routed_bucketed_resumable(input_dir, clean)
    got, want = _sink_digests(out), _sink_digests(clean)
    assert want and got == want
    assert files == files_clean == len(want)


def test_resumable_write_ignores_unmanifested_staged_files(ray_session, tmp_path):
    """Staged files no manifest names are never read: a garbage
    ``_staging/<stem>.arrow`` left by a crashed attempt is overwritten by
    the rerun, and one whose stem is not an input is ignored. The output is
    byte-identical to a clean run, and each sink is one row group whose
    rows total the sink_counts aggregate."""
    import pyarrow.parquet as pq

    from logstash_filter_geoip_ray.pipelines.geoip_pipeline import (
        write_routed_bucketed_resumable,
    )

    rows = 200_000
    input_dir = transcripts_path(SF, rows=rows)
    clean = str(tmp_path / "clean")
    write_routed_bucketed_resumable(input_dir, clean)

    out = str(tmp_path / "garbage")
    staging = os.path.join(out, "_staging")
    os.makedirs(os.path.join(staging, "_manifests"))
    stem0 = sorted(os.listdir(input_dir))[0].rsplit(".", 1)[0]
    for stem in (stem0, "not-an-input"):
        with open(os.path.join(staging, stem + ".arrow"), "wb") as f:
            f.write(b"not-an-ipc-file")
    _, files, summary = write_routed_bucketed_resumable(input_dir, out)
    assert summary["shards_processed"] == 4
    digests = _sink_digests(out)
    assert digests == _sink_digests(clean) and files == len(digests)

    expected = {
        (r["country"], r["tool"]): r["n"]
        for _, r in sink_counts(build_enriched(SF, rows=rows)).to_pandas().iterrows()
    }
    got = {}
    for rel in digests:
        meta = pq.ParquetFile(os.path.join(out, rel)).metadata
        assert meta.num_row_groups == 1, rel
        c, t = (part.split("=", 1)[1] for part in rel.split("/")[:2])
        got[(c, t)] = meta.num_rows
    assert got == expected


def test_resumable_hot_sink_splits_balanced_by_rows(ray_session, tmp_path):
    """Salted parts go to splits greedily by their manifest row counts. In
    the planted hot sink, shard 0 holds most of the rows: it gets a split
    of its own, and the other seven runs make up the second. Assigning by
    file count (every other part) would give 8,400 vs 1,120 rows, a gap
    larger than the biggest part; here the gap stays under one part."""
    import pyarrow.parquet as pq

    from logstash_filter_geoip_ray.pipelines.geoip_pipeline import (
        write_routed_bucketed_resumable,
    )

    hot = [6000, 1000, 900, 50, 800, 40, 700, 30]
    input_dir = str(tmp_path / "in")
    os.makedirs(input_dir)
    turn = 0
    for i, n_hot in enumerate(hot):
        n = n_hot + 100  # 100 cold rows per shard
        pq.write_table(
            pa.table(
                {
                    "country": ["US"] * n_hot + ["DE"] * 100,
                    "tool": ["grep"] * n_hot + ["bash"] * 100,
                    "turn_idx": pa.array(range(turn, turn + n), type=pa.int64()),
                }
            ),
            os.path.join(input_dir, "shard-%02d.parquet" % i),
        )
        turn += n
    out = str(tmp_path / "out")
    _, files, _ = write_routed_bucketed_resumable(
        input_dir, out, shard_fn=pq.read_table, hot_sink_rows=5_000
    )
    assert files == 3
    cold = pq.read_table(os.path.join(out, "country=DE", "tool=bash"))
    assert cold.num_rows == 800
    splits = []
    for name in ("part-00000.parquet", "part-00001.parquet"):
        t = pq.read_table(os.path.join(out, "country=US", "tool=grep", name))
        idx = t["turn_idx"].to_pylist()
        assert idx == sorted(idx)  # shard order kept within each split
        splits.append(t.num_rows)
    assert sorted(splits) == [sum(hot) - hot[0], hot[0]]
    assert max(splits) - min(splits) <= max(hot)


def test_compact_outputs_writes_full_row_groups(tmp_path, monkeypatch):
    """The compactor coalesces a sink's staged batches into full row groups
    (only the last is partial), reading each run by its batch index."""
    import pyarrow.parquet as pq

    from logstash_filter_geoip_ray.pipelines import geoip_pipeline as gp

    monkeypatch.setattr(gp, "_ROW_GROUP_ROWS", 100)
    staged = []
    for k in range(3):  # three shards, each with runs of two sinks
        path = str(tmp_path / ("shard-%d.arrow" % k))
        with pa.OSFile(path, "wb") as f, pa.ipc.new_file(
            f, pa.schema([("v", pa.int64())])
        ) as w:
            w.write_batch(pa.record_batch([pa.array([-1] * 7)], names=["v"]))
            w.write_batch(pa.record_batch(
                [pa.array(range(k * 90, (k + 1) * 90))], names=["v"]))
        staged.append(path)
    parts = [(p, 1, 90) for p in staged]
    assert gp._compact_outputs(str(tmp_path), [("s=a", "x.parquet", parts, 270)]) == 1
    f = pq.ParquetFile(str(tmp_path / "s=a" / "x.parquet"))
    sizes = [f.metadata.row_group(i).num_rows for i in range(f.metadata.num_row_groups)]
    assert sizes == [100, 100, 70]
    assert f.read()["v"].to_pylist() == list(range(270))


def test_compact_outputs_caps_row_group_bytes(tmp_path, monkeypatch):
    """A row group is also cut once the buffered batches reach
    ``_ROW_GROUP_BYTES``, so a task's buffer stays bounded on wide rows
    whatever the row cap."""
    import pyarrow.parquet as pq

    from logstash_filter_geoip_ray.pipelines import geoip_pipeline as gp

    monkeypatch.setattr(gp, "_ROW_GROUP_BYTES", 1000)  # 90 int64s: 720 B
    path = str(tmp_path / "shard.arrow")
    with pa.OSFile(path, "wb") as f, pa.ipc.new_file(
        f, pa.schema([("v", pa.int64())])
    ) as w:
        for k in range(3):
            w.write_batch(pa.record_batch(
                [pa.array(range(k * 90, (k + 1) * 90))], names=["v"]))
    parts = [(path, k, 90) for k in range(3)]
    assert gp._compact_outputs(str(tmp_path), [("s=a", "x.parquet", parts, 270)]) == 1
    f = pq.ParquetFile(str(tmp_path / "s=a" / "x.parquet"))
    sizes = [f.metadata.row_group(i).num_rows for i in range(f.metadata.num_row_groups)]
    assert sizes == [180, 90]
    assert f.read()["v"].to_pylist() == list(range(270))


def test_stage_runs_keeps_runs_that_span_chunks(tmp_path):
    """A payload column Arrow keeps in several chunks (a string column past
    2 GiB) is staged as one batch per chunk of each run, and the returned
    (sink, rows) list names every batch, so a compacted sink loses no row.
    Planted: a three-chunk payload whose middle run spans all three."""
    import pyarrow.parquet as pq

    from logstash_filter_geoip_ray.pipelines import geoip_pipeline as gp

    payload = pa.Table.from_batches([
        pa.record_batch([pa.array(range(a, b))], names=["v"])
        for a, b in ((0, 5), (5, 9), (9, 15))
    ])
    assert payload["v"].num_chunks == 3
    runs = [(0, 3, "s=a"), (3, 11, "s=b"), (11, 15, "s=c")]
    path = str(tmp_path / "shard.arrow")
    staged = gp._stage_runs(path, payload, runs)
    assert staged == [
        ("s=a", 3), ("s=b", 2), ("s=b", 4), ("s=b", 2), ("s=c", 4)
    ]
    sink_parts: dict = {}
    for i, (sink, rows) in enumerate(staged):
        sink_parts.setdefault(sink, []).append((path, i, rows))
    out = str(tmp_path / "out")
    outputs = [(sink, "part-00000.parquet", parts, sum(p[2] for p in parts))
               for sink, parts in sorted(sink_parts.items())]
    assert gp._compact_outputs(out, outputs) == 3
    for (s, e, sink) in runs:
        got = pq.read_table(os.path.join(out, sink, "part-00000.parquet"))
        assert got["v"].to_pylist() == list(range(s, e))
