"""Driver contract for the graft builder (Ray Data target).

Ray is initialised by the driver BEFORE this module is imported: nothing here
calls ``ray.init()`` / ``ray.shutdown()``.

``queries()`` exposes one entry per implemented pipeline/operator from
SURVEY.md §2; ``oracle_sql()`` gives the DuckDB-equivalent SQL. The
transcript-pipeline queries run over the deterministic synthetic transcript
table (BASELINE.json ``input_hint``) generated per scale factor into a /tmp
cache — both the Ray side and the oracle SQL read the same files, so the
comparison is apples-to-apples. The token→geo side table the oracle joins is
golden data pinned by the unit-test vector suite (see
sources/transcripts.py docstring).
"""

from __future__ import annotations

from collections.abc import Callable
from typing import Any

ORACLE_SF_DIR = "/root/testdata/sf0.01"


def entry() -> Any:
    """Flagship pipeline on sf0.001: parse → enrich → route → aggregate."""
    from logstash_filter_geoip_ray.pipelines.geoip_pipeline import (
        build_enriched,
        sink_counts,
    )

    return sink_counts(
        build_enriched("/root/testdata/sf0.001", columns=["text", "tool"], drop_text=True)
    )


def _q_sink_counts(sf_dir: str):
    from logstash_filter_geoip_ray.pipelines.geoip_pipeline import (
        build_enriched,
        sink_counts,
    )

    # aggregate-only consumer: prune the read to the two needed columns, drop
    # text at extraction, and push the projection through the enricher — the
    # count routes on country_code2 alone, so the other 13 City leaves are
    # never materialized
    return sink_counts(
        build_enriched(
            sf_dir,
            columns=["text", "tool"],
            drop_text=True,
            enrich_fields=("country_code2",),
        )
    )


def _q_turn_histogram(sf_dir: str):
    from logstash_filter_geoip_ray.pipelines.geoip_pipeline import (
        build_enriched,
        country_turn_histogram,
    )

    return country_turn_histogram(
        build_enriched(
            sf_dir,
            columns=["text", "turn_idx"],
            drop_text=True,
            enrich_fields=("country_code2",),
        )
    )


def _q_routed_rows(sf_dir: str):
    """Routed-row equality: every turn with its routing key, stable
    (conv_id, turn_idx) carried through — per-turn text equality check."""
    from logstash_filter_geoip_ray.pipelines.geoip_pipeline import build_enriched

    ds = build_enriched(sf_dir, columns=["conv_id", "turn_idx", "text", "tool"])
    return ds.select_columns(["conv_id", "turn_idx", "text", "tool", "country"]).sort(
        ["conv_id", "turn_idx"]
    )


def _q_sink_counts_ecs(sf_dir: str):
    """Same pipeline in ECS v1 mode (nested client.geo.* output schema):
    counts must equal the legacy-mode sink counts."""
    from logstash_filter_geoip_ray.functions.config import GeoIPConfig
    from logstash_filter_geoip_ray.pipelines.geoip_pipeline import (
        build_enriched,
        sink_counts,
    )
    from logstash_filter_geoip_ray.sources.transcripts import DEFAULT_CITY_DB

    cfg = GeoIPConfig(
        source="source_ip",
        database=DEFAULT_CITY_DB,
        ecs_compatibility="v1",
        target="client",
    )
    return sink_counts(
        build_enriched(sf_dir, config=cfg, columns=["text", "tool"], drop_text=True)
    )


def _q_geohash_counts(sf_dir: str):
    """Spatial rollup of the City lat/lon output: turns per geohash-5 cell
    (vectorized bit-interleave kernel; independent SQL bit-arithmetic
    oracle)."""
    from logstash_filter_geoip_ray.pipelines.geoip_pipeline import geohash_counts

    return geohash_counts(sf_dir)


def _q_asn_counts_salted(sf_dir: str):
    """ASN-database pipeline with salted two-stage aggregation (hot ASNs)."""
    from logstash_filter_geoip_ray.pipelines.geoip_pipeline import asn_salted_counts

    return asn_salted_counts(sf_dir)


#: E7/E9/E10/E11 end-to-end coverage: (db-const name, engine keys, oracle cols)
#: engine key = (target struct child, alias, kind); oracle col = (side-table
#: column, alias, kind). Aliases must match for the driver's hash compare.
_DB_COUNT_SPECS = {
    "isp_counts": (
        "DEFAULT_ISP_DB",
        [("isp", "isp", "str"), ("organization", "isp_org", "str")],
        [("isp", "isp", "str"), ("isp_org", "isp_org", "str")],
    ),
    "domain_counts": (
        "DEFAULT_DOMAIN_DB",
        [("domain", "domain", "str")],
        [("domain", "domain", "str")],
    ),
    "enterprise_counts": (
        "DEFAULT_ENTERPRISE_DB",
        [("country_code2", "ent_country", "str"), ("city_name", "ent_city", "str")],
        [("ent_country", "ent_country", "str"), ("ent_city", "ent_city", "str")],
    ),
    "anonymous_counts": (
        "DEFAULT_ANON_DB",
        [("anonymous", "is_anonymous", "int"), ("hosting_provider", "is_hosting", "int")],
        [("is_anonymous", "is_anonymous", "int"), ("is_hosting", "is_hosting", "int")],
    ),
}


def _make_db_counts_query(spec_name: str):
    def q(sf_dir: str):
        from logstash_filter_geoip_ray.pipelines.geoip_pipeline import db_key_counts
        from logstash_filter_geoip_ray.sources import transcripts as tsrc

        db_const, engine_keys, _ = _DB_COUNT_SPECS[spec_name]
        return db_key_counts(sf_dir, getattr(tsrc, db_const), engine_keys)

    q.__name__ = "_q_" + spec_name
    return q


def _q_log_templates(sf_dir: str):
    """Log-template mining (the Drain-family 'what are my log shapes'
    query, deterministic variant): numbers → <n>, whitespace collapsed,
    then the top-5 templates per tool by count (ties → template asc).
    One vectorized pc.replace_substring_regex pass per batch; counts via
    grouped partial sums; top-k via the two-stage partial-top-k (the Sort
    operator never sees more than buckets × tools × k rows)."""
    import pyarrow as pa
    import pyarrow.compute as pc
    import ray.data

    from logstash_filter_geoip_ray.sources.transcripts import transcripts_path
    from logstash_filter_geoip_ray.stages.aggregate import (
        grouped_counts,
        grouped_topk,
    )

    ds = ray.data.read_parquet(transcripts_path(sf_dir), columns=["tool", "text"])

    def to_template(batch: pa.Table) -> pa.Table:
        text = batch["text"]
        if isinstance(text, pa.ChunkedArray):
            text = text.combine_chunks()
        tpl = pc.replace_substring_regex(text, "[0-9]+", "<n>")
        tpl = pc.replace_substring_regex(tpl, r"\s+", " ")
        tpl = pc.utf8_trim_whitespace(tpl)
        return pa.table({"tool": batch["tool"], "template": tpl})

    tpl = ds.map_batches(to_template, batch_format="pyarrow")
    counts = grouped_counts(tpl, ["tool", "template"], "n")
    return grouped_topk(
        counts, key_col="tool", order_col="n", id_col="template", k=5
    )


def _q_tool_hour_heatmap(sf_dir: str):
    """Operational heatmap: turns per (tool, hour-of-day) — the staffing /
    load-shape rollup over the transcript stream; one vectorized hour
    extraction per batch, tiny keyed partials."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc
    import ray.data

    from logstash_filter_geoip_ray.sources.transcripts import transcripts_path
    from logstash_filter_geoip_ray.stages.aggregate import tree_sum

    ds = ray.data.read_parquet(transcripts_path(sf_dir), columns=["tool", "ts"])

    def partial(batch: pa.Table) -> pa.Table:
        ts_us = pc.cast(batch["ts"], pa.int64()).to_numpy()
        hour = (ts_us // 3_600_000_000) % 24
        t = pa.table(
            {
                "tool": batch["tool"],
                "hour": pa.array(hour, type=pa.int64()),
                "n": pa.array(np.ones(batch.num_rows, dtype=np.int64)),
            }
        )
        g = t.group_by(["tool", "hour"]).aggregate([("n", "sum")])
        return g.rename_columns(["tool", "hour", "n"])

    return tree_sum(
        ds.map_batches(partial, batch_format="pyarrow"),
        ["tool", "hour"], ["n"], sort_result=True,
    )


def _q_conv_duration_histogram(sf_dir: str):
    """Conversation-duration distribution: per SECOND-bucket the number of
    conversations whose (max ts − min ts) falls in it — the latency-curve
    rollup at CONVERSATION grain. Per-batch (conv, min, max) partials
    collapse first (a conv may span batches), a conv-bucketed exact
    min/max resolve follows, and only minute-bucket counts reach the final
    combine."""
    import pandas as pd
    import pyarrow as pa
    import pyarrow.compute as pc
    import ray.data

    from logstash_filter_geoip_ray.sources.transcripts import transcripts_path
    from logstash_filter_geoip_ray.stages.aggregate import bucket_by_key, tree_sum

    ds = ray.data.read_parquet(
        transcripts_path(sf_dir), columns=["conv_id", "ts"]
    )

    def partial(batch: pa.Table) -> pa.Table:
        t = pa.table(
            {
                "conv_id": batch["conv_id"],
                "ts_us": pc.cast(batch["ts"], pa.int64()),
            }
        )
        g = t.group_by(["conv_id"]).aggregate([("ts_us", "min"), ("ts_us", "max")])
        return g.rename_columns(["conv_id", "lo", "hi"])

    partials = ds.map_batches(partial, batch_format="pyarrow")
    bucketed = bucket_by_key(partials, "conv_id", 16)

    def per_bucket(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("conv_id", as_index=False, sort=False).agg(
            lo=("lo", "min"), hi=("hi", "max")
        )
        seconds = ((g["hi"] - g["lo"]) // 1_000_000).astype("int64")
        out = seconds.value_counts().rename_axis("seconds").reset_index(name="n_convs")
        out["seconds"] = out["seconds"].astype("int64")
        out["n_convs"] = out["n_convs"].astype("int64")
        return out[["seconds", "n_convs"]]

    hist = bucketed.groupby("_bucket").map_groups(
        per_bucket, batch_format="pandas"
    )
    return tree_sum(hist, ["seconds"], ["n_convs"], sort_result=True)


def _q_country_top_tools(sf_dir: str):
    """Per-country top-3 tools by enriched-turn count (ties → tool asc) —
    the drill-down ranking over the flagship (country, tool) aggregate:
    partial counts collapse per batch, the two-stage partial top-k keeps
    the Sort at buckets × countries × 3 rows."""
    from logstash_filter_geoip_ray.pipelines.geoip_pipeline import (
        build_enriched,
        sink_counts,
    )
    from logstash_filter_geoip_ray.stages.aggregate import grouped_topk

    counts = sink_counts(
        build_enriched(sf_dir, columns=["text", "tool"], drop_text=True)
    )
    return grouped_topk(
        counts, key_col="country", order_col="n", id_col="tool", k=3
    )


def _q_failure_rates(sf_dir: str):
    """Dead-letter-queue metric: per tool the total rows, enrichment
    misses (no token or no DB hit — the rows a logstash DLQ would hold)
    and the integer miss rate in permille. One pass over the enriched
    stream; partials collapse per batch."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc

    from logstash_filter_geoip_ray.pipelines.geoip_pipeline import (
        MISS_KEY,
        build_enriched,
    )
    from logstash_filter_geoip_ray.stages.aggregate import tree_sum

    ds = build_enriched(sf_dir, columns=["tool", "text"], drop_text=True)

    def partial(batch: pa.Table) -> pa.Table:
        miss = pc.cast(pc.equal(batch["country"], MISS_KEY), pa.int64())
        t = pa.table(
            {
                "tool": batch["tool"],
                "n_total": pa.array(np.ones(batch.num_rows, dtype=np.int64)),
                "n_miss": miss,
            }
        )
        g = t.group_by(["tool"]).aggregate([("n_total", "sum"), ("n_miss", "sum")])
        return g.rename_columns(["tool", "n_total", "n_miss"])

    sums = tree_sum(
        ds.map_batches(partial, batch_format="pyarrow"),
        ["tool"], ["n_total", "n_miss"], sort_result=True,
    )

    def rate(batch: pa.Table) -> pa.Table:
        permille = pc.divide(
            pc.multiply(batch["n_miss"], 1000), batch["n_total"]
        )
        return batch.append_column("miss_permille", pc.cast(permille, pa.int64()))

    return sums.map_batches(rate, batch_format="pyarrow")


def _q_grok_ua_counts(sf_dir: str):
    """End-to-end grok-SYNTAX pipeline: the `%{IPV4:ip} ua=%{NOTSPACE:ua}`
    template compiles through `compile_grok` into one vectorized
    extract_regex, then counts per user-agent token — proving the
    logstash-grok syntax surface drives a full distributed aggregate."""
    import pyarrow as pa
    import pyarrow.compute as pc
    import ray.data

    from logstash_filter_geoip_ray.sources.transcripts import transcripts_path
    from logstash_filter_geoip_ray.stages.aggregate import grouped_counts
    from logstash_filter_geoip_ray.stages.parse import make_grok

    ds = ray.data.read_parquet(transcripts_path(sf_dir), columns=["text"])
    ds = ds.map_batches(
        make_grok("request from %{IPV4:ip} ua=%{NOTSPACE:ua}", drop_text=True),
        batch_format="pyarrow",
    )
    ds = ds.map_batches(
        lambda t: t.filter(pc.is_valid(t["ua"])).select(["ua"]),
        batch_format="pyarrow",
    )
    return grouped_counts(ds, ["ua"], "n", sort_result=True)


def _q_multiline_events(sf_dir: str):
    """Logstash MULTILINE-CODEC analog (pattern => '^session opened',
    negate => true, what => previous — logstash-codec-multiline's classic
    config): within each conversation's (turn_idx) order, a turn starting
    with 'session opened;' BEGINS a new assembled event and every other
    turn continues the previous one (a conversation's first turn always
    begins one). Emits per assembled event: line count, first/last
    turn_idx and total text chars. The stateful-across-rows assembly is a
    conv-bucketed vectorized cumsum over start flags — no per-row Python,
    and block boundaries carry no state because the bucket holds the whole
    conversation."""
    import pandas as pd
    import ray.data

    from logstash_filter_geoip_ray.sources.transcripts import transcripts_path
    from logstash_filter_geoip_ray.stages.aggregate import bucket_by_key

    ds = ray.data.read_parquet(
        transcripts_path(sf_dir), columns=["conv_id", "turn_idx", "text"]
    )
    bucketed = bucket_by_key(ds, "conv_id", 16)

    def per_bucket(df: pd.DataFrame) -> pd.DataFrame:
        import numpy as np

        if not len(df):
            return pd.DataFrame(
                {
                    "conv_id": pd.Series([], dtype="object"),
                    "event_seq": pd.Series([], dtype="int64"),
                    "n_lines": pd.Series([], dtype="int64"),
                    "first_turn": pd.Series([], dtype="int64"),
                    "last_turn": pd.Series([], dtype="int64"),
                    "text_chars": pd.Series([], dtype="int64"),
                }
            )
        b = df.sort_values(["conv_id", "turn_idx"])
        convs = b["conv_id"].to_numpy()
        new_conv = np.empty(len(b), dtype=bool)
        new_conv[0] = True
        new_conv[1:] = convs[1:] != convs[:-1]
        starts = (
            b["text"].str.startswith("session opened;").to_numpy() | new_conv
        )
        seq = np.cumsum(starts)
        # rebase to a per-conv 1..k sequence: subtract the running count at
        # each conversation's first row
        base = np.maximum.accumulate(np.where(new_conv, seq - 1, 0))
        ev = seq - base
        b = b.assign(
            event_seq=ev.astype("int64"),
            chars=b["text"].str.len().astype("int64"),
        )
        g = b.groupby(["conv_id", "event_seq"], sort=False).agg(
            n_lines=("turn_idx", "size"),
            first_turn=("turn_idx", "min"),
            last_turn=("turn_idx", "max"),
            text_chars=("chars", "sum"),
        ).reset_index()
        for c in ("n_lines", "first_turn", "last_turn", "text_chars"):
            g[c] = g[c].astype("int64")
        return g

    return (
        bucketed.groupby("_bucket")
        .map_groups(per_bucket, batch_format="pandas")
        .sort(["conv_id", "event_seq"])
    )


def _q_asn_country_diversity(sf_dir: str):
    """CHAINED multi-database enrichment (the multiple-geoip-filters
    Logstash pattern: one event through an ASN filter THEN a City filter,
    distinct targets): per ASN, how many distinct countries its IPs
    geolocate to — the BGP-hygiene / anycast-detection rollup. Both
    lookups run in the same map chain over one extraction; per-batch
    distinct (asn, country) pairs collapse before the exchange."""
    import pyarrow as pa
    import pyarrow.compute as pc
    import ray.data

    from logstash_filter_geoip_ray.functions.config import GeoIPConfig
    from logstash_filter_geoip_ray.sources.transcripts import (
        DEFAULT_ASN_DB,
        DEFAULT_CITY_DB,
        transcripts_path,
    )
    from logstash_filter_geoip_ray.stages.aggregate import bucket_by_key
    from logstash_filter_geoip_ray.stages.enrich import WorkerCachedEnricher
    from logstash_filter_geoip_ray.stages.parse import make_extract_ips

    cfg_asn = GeoIPConfig(source="source_ip", database=DEFAULT_ASN_DB,
                          target="asn_geo")
    cfg_city = GeoIPConfig(source="source_ip", database=DEFAULT_CITY_DB,
                           target="geoip")
    ds = ray.data.read_parquet(transcripts_path(sf_dir), columns=["text"])
    ds = ds.map_batches(make_extract_ips(drop_text=True), batch_format="pyarrow")
    ds = ds.map_batches(WorkerCachedEnricher(cfg_asn), batch_format="pyarrow")
    ds = ds.map_batches(WorkerCachedEnricher(cfg_city), batch_format="pyarrow")

    def pairs(batch: pa.Table) -> pa.Table:
        asn_t = batch["asn_geo"]
        city_t = batch["geoip"]
        if isinstance(asn_t, pa.ChunkedArray):
            asn_t = asn_t.combine_chunks()
        if isinstance(city_t, pa.ChunkedArray):
            city_t = city_t.combine_chunks()
        t = pa.table(
            {
                "asn": pc.struct_field(asn_t, ["asn"]),
                "country": pc.struct_field(city_t, ["country_code2"]),
            }
        )
        t = t.filter(pc.and_(pc.is_valid(t["asn"]), pc.is_valid(t["country"])))
        return t.group_by(["asn", "country"]).aggregate([])

    distinct_pairs = ds.map_batches(pairs, batch_format="pyarrow")
    bucketed = bucket_by_key(distinct_pairs, "asn", 8)

    def per_bucket(df):
        g = (
            df[["asn", "country"]]
            .drop_duplicates()
            .groupby("asn", sort=False)
            .size()
            .reset_index(name="n_countries")
        )
        g["asn"] = g["asn"].astype("int64")
        g["n_countries"] = g["n_countries"].astype("int64")
        return g

    return (
        bucketed.groupby("_bucket")
        .map_groups(per_bucket, batch_format="pandas")
        .sort("asn")
    )


def _q_beacon_candidates(sf_dir: str):
    """Beaconing detection core (C2-style regular callbacks): per client
    IP the exact integer inter-arrival moments — gap count, sum and sum of
    squares in MILLISECONDS (squares bounded: max gap ~6e7 ms squared is
    3.7e15, far inside int64 at per-IP hit counts) — from which variance /
    coefficient-of-variation is a driver-side formula; only IPs with ≥ 5
    gaps emit. Key-bucketed ONE vectorized sort+diff pass per bucket (ties
    in ts give zero gaps identically in both engines: the gap MULTISET is
    tie-order-independent)."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc
    import ray.data

    from logstash_filter_geoip_ray.sources.transcripts import transcripts_path
    from logstash_filter_geoip_ray.stages.aggregate import bucket_by_key
    from logstash_filter_geoip_ray.stages.parse import make_extract_ips

    ds = ray.data.read_parquet(transcripts_path(sf_dir), columns=["ts", "text"])
    ds = ds.map_batches(make_extract_ips(drop_text=True), batch_format="pyarrow")

    def prep(batch: pa.Table) -> pa.Table:
        t = pa.table(
            {
                "ip": batch["source_ip"],
                "ms": pc.divide(pc.cast(batch["ts"], pa.int64()), 1000),
            }
        )
        return t.filter(pc.is_valid(t["ip"]))

    parsed = ds.map_batches(prep, batch_format="pyarrow")
    bucketed = bucket_by_key(parsed, "ip", 16)

    def per_bucket(df):
        import pandas as pd

        if not len(df):
            return pd.DataFrame(
                {
                    "ip": pd.Series([], dtype="object"),
                    "n_gaps": pd.Series([], dtype="int64"),
                    "sum_gap_ms": pd.Series([], dtype="int64"),
                    "sum_gap2": pd.Series([], dtype="int64"),
                }
            )
        b = df.sort_values(["ip", "ms"])
        ms = b["ms"].to_numpy()
        ips = b["ip"].to_numpy()
        same = np.empty(len(b), dtype=bool)
        same[0] = False
        same[1:] = ips[1:] == ips[:-1]
        gaps = np.where(same, np.concatenate(([0], np.diff(ms))), 0)
        if gaps.size and int(gaps.max()) > 3_000_000_000:
            # gap² past ~3e9 ms would wrap int64 SILENTLY in numpy while
            # the SQL oracle errors — fail loudly instead of diverging
            raise ValueError(
                "beacon_candidates: max gap %d ms exceeds the int64-safe "
                "square bound (3e9 ms); widen to object/float accumulation "
                "for this data" % int(gaps.max())
            )
        g = pd.DataFrame({"ip": ips, "gap": gaps, "is_gap": same.astype("int64")})
        agg = g.groupby("ip", sort=False).agg(
            n_gaps=("is_gap", "sum"),
            sum_gap_ms=("gap", "sum"),
            sum_gap2=("gap", lambda x: int((x.to_numpy() ** 2).sum())),
        ).reset_index()
        agg = agg[agg["n_gaps"] >= 5]
        for c in ("n_gaps", "sum_gap_ms", "sum_gap2"):
            agg[c] = agg[c].astype("int64")
        return agg

    return (
        bucketed.groupby("_bucket")
        .map_groups(per_bucket, batch_format="pandas")
        .sort("ip")
    )


def _q_multi_country_convs(sf_dir: str):
    """'Impossible travel' security analytic over the GeoIP enrichment:
    conversations whose turns resolve to TWO OR MORE distinct countries
    (real hits only — misses excluded), with the distinct-country count.
    Per-batch distinct (conv, country) pairs collapse before the exchange;
    a conv-bucketed distinct count finishes exactly."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from logstash_filter_geoip_ray.pipelines.geoip_pipeline import (
        MISS_KEY,
        build_enriched,
    )
    from logstash_filter_geoip_ray.stages.aggregate import bucket_by_key

    ds = build_enriched(sf_dir, columns=["conv_id", "text"], drop_text=True)

    def pairs(batch: pa.Table) -> pa.Table:
        t = pa.table(
            {"conv_id": batch["conv_id"], "country": batch["country"]}
        )
        t = t.filter(pc.invert(pc.equal(t["country"], MISS_KEY)))
        return t.group_by(["conv_id", "country"]).aggregate([])

    distinct_pairs = ds.map_batches(pairs, batch_format="pyarrow")
    bucketed = bucket_by_key(distinct_pairs, "conv_id", 16)

    def per_bucket(df):
        import pandas as pd

        g = (
            df[["conv_id", "country"]]
            .drop_duplicates()
            .groupby("conv_id", sort=False)
            .size()
            .reset_index(name="n_countries")
        )
        g = g[g["n_countries"] >= 2]
        g["n_countries"] = g["n_countries"].astype("int64")
        return g

    return (
        bucketed.groupby("_bucket")
        .map_groups(per_bucket, batch_format="pandas")
        .sort("conv_id")
    )


def _q_new_client_ips(sf_dir: str):
    """New-entity detection (the 'first-seen today' security-analytics
    query): client IPs appearing in the AFTER period that were never seen
    in the BEFORE period, with their after-period counts. Both periods
    stream once; the BEFORE side ships only per-batch-distinct keys into a
    bucketed anti semi-join (no driver set, no broadcast)."""
    import pyarrow as pa
    import pyarrow.compute as pc
    import ray.data

    from logstash_filter_geoip_ray.sources.transcripts import transcripts_path
    from logstash_filter_geoip_ray.stages.aggregate import grouped_counts
    from logstash_filter_geoip_ray.stages.joins import hash_anti_join
    from logstash_filter_geoip_ray.stages.parse import make_extract_ips

    import numpy as np

    split_us = int(
        np.datetime64("2023-11-14T23:00:00").astype("datetime64[us]").astype("int64")
    )
    ds = ray.data.read_parquet(transcripts_path(sf_dir), columns=["ts", "text"])
    ds = ds.map_batches(make_extract_ips(drop_text=True), batch_format="pyarrow")

    def prep(batch: pa.Table) -> pa.Table:
        t = pa.table(
            {
                "ts_us": pc.cast(batch["ts"], pa.int64()),
                "ip": batch["source_ip"],
            }
        )
        return t.filter(pc.is_valid(t["ip"]))

    parsed = ds.map_batches(prep, batch_format="pyarrow").materialize()

    before = parsed.map_batches(
        lambda t: t.filter(pc.less(t["ts_us"], split_us))
        .select(["ip"])
        .group_by(["ip"])
        .aggregate([]),
        batch_format="pyarrow",
    )
    after_counts = grouped_counts(
        parsed.map_batches(
            lambda t: t.filter(pc.greater_equal(t["ts_us"], split_us)).select(["ip"]),
            batch_format="pyarrow",
        ),
        ["ip"],
        "n",
    )
    new = hash_anti_join(after_counts, before, "ip", "ip", num_buckets=16)
    return new.sort(["n", "ip"], descending=[True, False])


def _q_latency_slo(sf_dir: str):
    """SLO latency report per status: exact p50/p95/p99 of the grok'd
    latency=…ms field plus the sample count — the dashboard query of every
    log pipeline. Exactness at scale WITHOUT a global sort: latency is a
    bounded-domain integer, so per-batch (status, ms) counts collapse to a
    tiny histogram (statuses × distinct ms values), the tree combine ships
    only that, and the quantile is a cumulative-sum walk in the final task
    — the classic counting-quantile for integer metrics (equals the
    ceil(p·n)-th order statistic the oracle selects by row_number)."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc
    import ray.data

    from logstash_filter_geoip_ray.sources.transcripts import transcripts_path
    from logstash_filter_geoip_ray.stages.aggregate import tree_sum

    ds = ray.data.read_parquet(transcripts_path(sf_dir), columns=["text"])

    def extract(batch: pa.Table) -> pa.Table:
        text = batch["text"]
        if isinstance(text, pa.ChunkedArray):
            text = text.combine_chunks()
        st = pc.struct_field(
            pc.extract_regex(text, r"status=(?P<v>\d+)"), "v"
        )
        ms = pc.cast(
            pc.struct_field(pc.extract_regex(text, r"latency=(?P<v>\d+)ms"), "v"),
            pa.int64(),
        )
        t = pa.table({"status": st, "ms": ms,
                      "n": pa.array(np.ones(batch.num_rows, dtype=np.int64))})
        t = t.filter(pc.and_(pc.is_valid(t["status"]), pc.is_valid(t["ms"])))
        g = t.group_by(["status", "ms"]).aggregate([("n", "sum")])
        return g.rename_columns(["status", "ms", "n"])

    hist = tree_sum(
        ds.map_batches(extract, batch_format="pyarrow"),
        ["status", "ms"],
        ["n"],
        sort_result=False,
    )

    def quantiles(batch: pa.Table) -> pa.Table:
        import pandas as pd

        df = batch.to_pandas().sort_values(["status", "ms"])
        out = []
        for status, g in df.groupby("status", sort=True):
            cum = g["n"].cumsum().to_numpy()
            n = int(cum[-1])
            ms = g["ms"].to_numpy()
            def pick(p):
                target = -(-p * n // 100)  # ceil(p*n/100)
                return int(ms[np.searchsorted(cum, target)])
            out.append((status, n, pick(50), pick(95), pick(99)))
        return pa.table(
            {
                "status": pa.array([o[0] for o in out], type=pa.string()),
                "n": pa.array([o[1] for o in out], type=pa.int64()),
                "p50_ms": pa.array([o[2] for o in out], type=pa.int64()),
                "p95_ms": pa.array([o[3] for o in out], type=pa.int64()),
                "p99_ms": pa.array([o[4] for o in out], type=pa.int64()),
            }
        )

    return hist.repartition(1).map_batches(
        quantiles, batch_format="pyarrow", batch_size=None
    )


def _q_sink_counts_checkpointed(sf_dir: str):
    """P8 end-to-end: checkpointed per-shard enrich (rerun = resume) →
    aggregate over the checkpoint outputs; same oracle as sink_counts."""
    from logstash_filter_geoip_ray.pipelines.geoip_pipeline import (
        sink_counts_checkpointed,
    )

    return sink_counts_checkpointed(sf_dir)


def _q_sink_counts_incremental(sf_dir: str):
    """Streaming micro-batch mode: shards processed in arrival-order groups
    with persisted, exactly-once partial counts; final = tree-sum of the
    partials. Same oracle as sink_counts — incremental must equal batch."""
    from logstash_filter_geoip_ray.pipelines.geoip_pipeline import (
        sink_counts_incremental,
    )

    return sink_counts_incremental(sf_dir)


def _q_parse_tokens(sf_dir: str):
    """P2 alone: distinct extracted tokens with frequencies."""
    from logstash_filter_geoip_ray.sources.transcripts import transcripts_path
    from logstash_filter_geoip_ray.stages.aggregate import grouped_counts
    from logstash_filter_geoip_ray.stages.parse import make_extract_ips
    import ray.data

    ds = ray.data.read_parquet(transcripts_path(sf_dir), columns=["text"])
    ds = ds.map_batches(make_extract_ips(), batch_format="pyarrow")
    import pyarrow.compute as pc
    import pyarrow as pa

    def drop_null(batch: pa.Table) -> pa.Table:
        return batch.filter(pc.is_valid(batch["source_ip"])).select(["source_ip"])

    ds = ds.map_batches(drop_null, batch_format="pyarrow")
    return grouped_counts(ds, ["source_ip"], "n").sort("source_ip")


def _q_log_field_counts(sf_dir: str):
    """Multi-field grok (P2 generalized): path/status/latency captures from
    the same text column, aggregated to (path, status) counts + total
    latency. All extraction is one pc.extract_regex per field."""
    import pyarrow as pa
    import pyarrow.compute as pc
    import ray.data

    from logstash_filter_geoip_ray.sources.transcripts import transcripts_path
    from logstash_filter_geoip_ray.stages.aggregate import tree_sum
    from logstash_filter_geoip_ray.stages.parse import make_extract_log_fields

    ds = ray.data.read_parquet(transcripts_path(sf_dir), columns=["text"])
    ds = ds.map_batches(make_extract_log_fields(drop_text=True), batch_format="pyarrow")

    def partial(batch: pa.Table) -> pa.Table:
        path = pc.fill_null(batch["path"], "_none")
        status = pc.fill_null(batch["status"], "_none")
        lat = pc.fill_null(pc.cast(batch["latency_ms"], pa.int64()), 0)
        keyed = pa.table({"path": path, "status": status, "lat": lat})
        g = keyed.group_by(["path", "status"]).aggregate(
            [("lat", "sum"), ([], "count_all")]
        )
        return g.rename_columns(["path", "status", "lat", "n"])

    partials = ds.map_batches(partial, batch_format="pyarrow")
    return tree_sum(partials, ["path", "status"], ["lat", "n"], sort_result=True)


def _q_kv_pair_stats(sf_dir: str):
    """Generic KV filter (logstash-filter-kv): discover every ``key=value``
    token in the log text — no declared schema, unlike grok — then per key:
    occurrence count + distinct-value count. The kv explode is pure Arrow
    kernels (split/flatten/parent-index); only (key, value, cnt) partials
    shuffle, never text."""
    import pandas as pd
    import pyarrow as pa
    import ray.data

    from logstash_filter_geoip_ray.sources.transcripts import transcripts_path
    from logstash_filter_geoip_ray.stages.aggregate import bucket_by_key
    from logstash_filter_geoip_ray.stages.logfilters import make_kv_pairs

    ds = ray.data.read_parquet(transcripts_path(sf_dir), columns=["text"])
    kv = ds.map_batches(make_kv_pairs(), batch_format="pyarrow")

    def partial(batch: pa.Table) -> pa.Table:
        g = batch.group_by(["kv_key", "kv_value"]).aggregate([([], "count_all")])
        return g.rename_columns(["kv_key", "kv_value", "cnt"])

    parts = kv.map_batches(partial, batch_format="pyarrow")
    bucketed = bucket_by_key(parts, "kv_key", 16)

    def per_bucket(block: pd.DataFrame) -> pd.DataFrame:
        g = (
            block.groupby("kv_key", sort=False)
            .agg(n=("cnt", "sum"), n_values=("kv_value", "nunique"))
            .reset_index()
        )
        g["n"] = g["n"].astype("int64")
        g["n_values"] = g["n_values"].astype("int64")
        return g

    return (
        bucketed.groupby("_bucket")
        .map_groups(per_bucket, batch_format="pandas")
        .sort("kv_key")
    )


def _q_dissect_status(sf_dir: str):
    """Dissect filter (logstash-filter-dissect): positional literal-split
    parse of the ``client=… status=… latency=…ms`` log shape — no regex —
    then per status: row count, distinct client IPs, total latency. Rows
    not matching the template are excluded (the ``_dissectfailure`` path)."""
    import pandas as pd
    import pyarrow as pa
    import pyarrow.compute as pc
    import ray.data

    from logstash_filter_geoip_ray.sources.transcripts import transcripts_path
    from logstash_filter_geoip_ray.stages.aggregate import bucket_by_key
    from logstash_filter_geoip_ray.stages.logfilters import make_dissect

    ds = ray.data.read_parquet(transcripts_path(sf_dir), columns=["text"])
    dis = ds.map_batches(
        make_dissect(
            "client=%{ip} status=%{status} latency=%{lat}ms", drop_text=True
        ),
        batch_format="pyarrow",
    )

    def partial(batch: pa.Table) -> pa.Table:
        t = batch.filter(batch["dissect_ok"])
        keyed = pa.table(
            {
                "status": t["status"],
                "ip": t["ip"],
                "lat": pc.cast(t["lat"], pa.int64()),
            }
        )
        g = keyed.group_by(["status", "ip"]).aggregate(
            [("lat", "sum"), ([], "count_all")]
        )
        return g.rename_columns(["status", "ip", "lat_sum", "cnt"])

    parts = dis.map_batches(partial, batch_format="pyarrow")
    bucketed = bucket_by_key(parts, "status", 8)

    def per_bucket(block: pd.DataFrame) -> pd.DataFrame:
        g = (
            block.groupby("status", sort=False)
            .agg(
                n=("cnt", "sum"),
                n_ips=("ip", "nunique"),
                lat_sum=("lat_sum", "sum"),
            )
            .reset_index()
        )
        for c in ("n", "n_ips", "lat_sum"):
            g[c] = g[c].astype("int64")
        return g

    return (
        bucketed.groupby("_bucket")
        .map_groups(per_bucket, batch_format="pandas")
        .sort("status")
    )


#: CIDR filter network list — non-overlapping labeled IPv4 networks drawn
#: from the MaxMind test ranges the transcript IP pool samples
_CIDR_NETWORKS = (
    ("1.0.0.0/8", "apnic-lab"),
    ("67.43.156.0/24", "na-edge"),
    ("81.2.69.0/24", "eu-lon"),
    ("89.160.20.0/23", "eu-north"),
)


def _q_cidr_token_classes(sf_dir: str):
    """CIDR filter (logstash-filter-cidr, geoip's closest sibling):
    classify every extracted log token against a broadcast labeled network
    list — compiled once per worker into sorted integer ranges, matched
    per batch with one anchored regex parse + numpy searchsorted — and
    count per class (including ``_unmatched`` / ``_invalid``)."""
    import pyarrow as pa
    import pyarrow.compute as pc
    import ray.data

    from logstash_filter_geoip_ray.sources.transcripts import transcripts_path
    from logstash_filter_geoip_ray.stages.aggregate import grouped_counts
    from logstash_filter_geoip_ray.stages.logfilters import make_cidr_classify
    from logstash_filter_geoip_ray.stages.parse import make_extract_ips

    ds = ray.data.read_parquet(transcripts_path(sf_dir), columns=["text"])
    classify = make_cidr_classify(_CIDR_NETWORKS, "source_ip")

    def prep(batch: pa.Table) -> pa.Table:
        batch = make_extract_ips(drop_text=True)(batch)
        batch = batch.filter(pc.is_valid(batch["source_ip"]))
        return classify(batch).select(["network_class"])

    classes = ds.map_batches(prep, batch_format="pyarrow")
    return grouped_counts(classes, ["network_class"], "n", sort_result=True)


def _cidr_oracle_case(networks) -> str:
    """CASE over integer ranges generated from the SAME network list the
    engine compiles — no hand-derived literals to drift."""
    import ipaddress

    arms = []
    for cidr, label in networks:
        net = ipaddress.ip_network(cidr)
        lo, hi = int(net.network_address), int(net.broadcast_address)
        arms.append(f"WHEN ipint BETWEEN {lo} AND {hi} THEN '{label}'")
    return "CASE " + " ".join(arms) + " ELSE '_unmatched' END"


#: ordered format fallbacks for the date filter — ISO-space, Apache-log,
#: ISO-T; first parse wins (logstash-filter-date `match` list semantics)
_DATE_FORMATS = ("%Y-%m-%d %H:%M:%S", "%d/%b/%Y:%H:%M:%S", "%Y-%m-%dT%H:%M:%S")


def _q_multiformat_dates(sf_dir: str):
    """Date filter (logstash-filter-date): timestamps rendered in three
    heterogeneous string formats (deterministically by turn_idx % 3) are
    parsed back through the ordered format-fallback chain — one vectorized
    strptime pass per format, coalesced — and counted per hour."""
    import pyarrow as pa
    import pyarrow.compute as pc
    import ray.data

    from logstash_filter_geoip_ray.sources.transcripts import transcripts_path
    from logstash_filter_geoip_ray.stages.aggregate import grouped_counts
    from logstash_filter_geoip_ray.stages.logfilters import parse_datetime_multi

    ds = ray.data.read_parquet(
        transcripts_path(sf_dir), columns=["ts", "turn_idx"]
    )

    def to_hour(batch: pa.Table) -> pa.Table:
        # second-precision render: Arrow's %S appends the fraction for
        # sub-second units (DuckDB's does not), so drop to timestamp[s]
        ts = pc.cast(batch["ts"], pa.timestamp("s"), safe=False)
        sel = pa.array(
            batch["turn_idx"].to_numpy(zero_copy_only=False) % 3
        )
        rendered = [pc.strftime(ts, format=f) for f in _DATE_FORMATS]
        raw = pc.if_else(
            pc.equal(sel, 0),
            rendered[0],
            pc.if_else(pc.equal(sel, 1), rendered[1], rendered[2]),
        )
        parsed = parse_datetime_multi(raw, _DATE_FORMATS)
        hour = pc.strftime(
            pc.floor_temporal(parsed, unit="hour"), format="%Y-%m-%d %H:00"
        )
        return pa.table({"hour": hour})

    hours = ds.map_batches(to_hour, batch_format="pyarrow")
    return grouped_counts(hours, ["hour"], "n", sort_result=True)


def _q_mutated_text_stats(sf_dir: str):
    """Mutate filter (logstash-filter-mutate, the most-used Logstash
    filter): a five-op chain over the transcript text — gsub digit runs →
    '#', uppercase, strip, then a split/join round trip through the list
    domain (proving both kernels are lossless) — followed by per-tool
    row count, DISTINCT normalized-text count and total chars. Ops apply
    in the filter's documented fixed order regardless of config order
    (pinned separately by the unit test); every op is one Arrow kernel."""
    import pandas as pd
    import pyarrow as pa
    import pyarrow.compute as pc
    import ray.data

    from logstash_filter_geoip_ray.sources.transcripts import transcripts_path
    from logstash_filter_geoip_ray.stages.aggregate import bucket_by_key
    from logstash_filter_geoip_ray.stages.logfilters import make_mutate

    ds = ray.data.read_parquet(transcripts_path(sf_dir), columns=["text", "tool"])
    mutate = make_mutate(
        gsub=[("text", r"\d+", "#")],
        uppercase=["text"],
        strip=["text"],
        split={"text": " "},
        join={"text": " "},
    )

    def partial(batch: pa.Table) -> pa.Table:
        m = mutate(batch)
        g = m.group_by(["tool", "text"]).aggregate([([], "count_all")])
        return g.rename_columns(["tool", "norm", "cnt"])

    parts = ds.map_batches(partial, batch_format="pyarrow")
    bucketed = bucket_by_key(parts, "tool", 8)

    def per_bucket(block: pd.DataFrame) -> pd.DataFrame:
        block = block.assign(chars=block["norm"].str.len() * block["cnt"])
        g = (
            block.groupby("tool", sort=False)
            .agg(n=("cnt", "sum"), n_texts=("norm", "nunique"), chars=("chars", "sum"))
            .reset_index()
        )
        for c in ("n", "n_texts", "chars"):
            g[c] = g[c].astype("int64")
        return g

    return (
        bucketed.groupby("_bucket")
        .map_groups(per_bucket, batch_format="pandas")
        .sort("tool")
    )


#: UA fixture render shapes (by turn_idx % 4) — the Chrome UA deliberately
#: also contains "Safari/537.36", so the query bank's trailing Safari
#: pattern would mis-claim it if first-match-wins ordering ever broke
_UA_CHROME_PRE = (
    "Mozilla/5.0 (X11; Linux x86_64) AppleWebKit/537.36 "
    "(KHTML, like Gecko) Chrome/"
)
_UA_FIREFOX_PRE = "Mozilla/5.0 (Windows NT 10.0; Win64; x64; rv:"


def _q_ua_family_counts(sf_dir: str):
    """Useragent filter (logstash-filter-useragent): deterministic UA
    strings rendered per turn_idx % 4 (Chrome / curl / python-requests /
    Firefox — the multiformat_dates render precedent) are classified by
    the ORDERED regex bank (uap-core first-match-wins; the appended
    Safari pattern must NOT claim the Chrome UAs, which all carry a
    Safari/537.36 suffix) and counted per (ua_family, ua_major)."""
    import numpy as np
    import pyarrow as pa
    import ray.data

    from logstash_filter_geoip_ray.sources.transcripts import transcripts_path
    from logstash_filter_geoip_ray.stages.aggregate import grouped_counts
    from logstash_filter_geoip_ray.stages.logfilters import (
        UA_DEFAULT_BANK,
        make_useragent,
    )

    bank = tuple(UA_DEFAULT_BANK) + (
        (r"Safari/(?P<major>\d+)\.(?P<minor>\d+)", "Safari"),
    )
    parse_ua = make_useragent("ua", bank=bank)

    ds = ray.data.read_parquet(transcripts_path(sf_dir), columns=["turn_idx"])

    def render_and_parse(batch: pa.Table) -> pa.Table:
        ti = batch["turn_idx"].to_numpy(zero_copy_only=False).astype(np.int64)
        mod = ti % 4
        ua = np.empty(len(ti), dtype=object)
        m = mod == 0
        v = (90 + ti[m] % 40).astype("U")
        ua[m] = np.char.add(
            np.char.add(_UA_CHROME_PRE, v), ".0.4472.124 Safari/537.36"
        )
        m = mod == 1
        ua[m] = np.char.add(
            np.char.add("curl/8.", (ti[m] % 10).astype("U")), ".0"
        )
        m = mod == 2
        ua[m] = np.char.add(
            np.char.add("python-requests/2.", (ti[m] % 32).astype("U")), ".0"
        )
        m = mod == 3
        v = (100 + ti[m] % 30).astype("U")
        ua[m] = np.char.add(
            np.char.add(
                np.char.add(np.char.add(_UA_FIREFOX_PRE, v), ".0) Gecko/20100101 Firefox/"),
                v,
            ),
            ".0",
        )
        t = pa.table({"ua": pa.array(ua, type=pa.string())})
        return parse_ua(t).select(["ua_family", "ua_major"])

    fams = ds.map_batches(render_and_parse, batch_format="pyarrow")
    return grouped_counts(fams, ["ua_family", "ua_major"], "n", sort_result=True)


def _q_decoded_path_counts(sf_dir: str):
    """Urldecode filter (logstash-filter-urldecode): the extracted path
    tokens are percent-ENCODED deterministically ('/'→%2F, 'a'→%61 — mixed
    case hex exercised) then decoded back by the vectorized byte-domain
    kernel and counted per decoded path. The oracle aggregates the RAW
    source paths, so any decode loss breaks the hash (the csv_roundtrip
    precedent: round-trip proof, not replayed render)."""
    import pyarrow as pa
    import pyarrow.compute as pc
    import ray.data

    from logstash_filter_geoip_ray.sources.transcripts import transcripts_path
    from logstash_filter_geoip_ray.stages.aggregate import grouped_counts
    from logstash_filter_geoip_ray.stages.logfilters import urldecode_array

    ds = ray.data.read_parquet(transcripts_path(sf_dir), columns=["text"])

    def encode_decode(batch: pa.Table) -> pa.Table:
        ext = pc.extract_regex(batch["text"], r'path=(?P<path>[^\s"]+)')
        path = pc.struct_field(ext, ["path"])
        keep = pc.is_valid(path)
        path = pc.drop_null(path)
        enc = pc.replace_substring(path, pattern="/", replacement="%2F")
        enc = pc.replace_substring(enc, pattern="a", replacement="%61")
        dec = urldecode_array(
            enc.combine_chunks() if isinstance(enc, pa.ChunkedArray) else enc
        )
        return pa.table({"path": dec})

    decoded = ds.map_batches(encode_decode, batch_format="pyarrow")
    return grouped_counts(decoded, ["path"], "n", sort_result=True)


def _q_clause_stats(sf_dir: str):
    """Split filter (logstash-filter-split, event explosion): each turn
    text explodes into one row per '; '-separated clause (flatten +
    parent-index carry of the role column, vectorized within-row clause
    index), then per (role, clause index): row count + total chars."""
    import pyarrow as pa
    import pyarrow.compute as pc
    import ray.data

    from logstash_filter_geoip_ray.sources.transcripts import transcripts_path
    from logstash_filter_geoip_ray.stages.aggregate import tree_sum
    from logstash_filter_geoip_ray.stages.logfilters import make_split_rows

    ds = ray.data.read_parquet(transcripts_path(sf_dir), columns=["text", "role"])
    split = make_split_rows("text", "; ", keep_cols=["role"])

    def partial(batch: pa.Table) -> pa.Table:
        e = split(batch)
        keyed = pa.table(
            {
                "role": e["role"],
                "part_idx": e["part_idx"],
                "len": pc.cast(pc.utf8_length(e["part"]), pa.int64()),
            }
        )
        g = keyed.group_by(["role", "part_idx"]).aggregate(
            [("len", "sum"), ([], "count_all")]
        )
        return g.rename_columns(["role", "part_idx", "chars", "n"])

    parts = ds.map_batches(partial, batch_format="pyarrow")
    return tree_sum(parts, ["role", "part_idx"], ["chars", "n"], sort_result=True)


def _q_cloned_type_counts(sf_dir: str):
    """Clone filter (logstash-filter-clone): every turn passes through AND
    is duplicated once per clone type ('shadow', 'audit'), copies tagged in
    their type field; counted per (type, tool). Registered demoted from the
    start — one batch-local concat, no novel exchange (the grouped_counts
    family is driver-checked everywhere); pinned by its pytest oracle row."""
    import pyarrow as pa
    import pyarrow.compute as pc
    import ray.data

    from logstash_filter_geoip_ray.sources.transcripts import transcripts_path
    from logstash_filter_geoip_ray.stages.aggregate import grouped_counts
    from logstash_filter_geoip_ray.stages.logfilters import make_clone

    ds = ray.data.read_parquet(transcripts_path(sf_dir), columns=["tool"])
    clone = make_clone(["shadow", "audit"])

    def cloned(batch: pa.Table) -> pa.Table:
        c = clone(batch)
        return pa.table(
            {
                "type": pc.fill_null(c["type"], "_original"),
                "tool": c["tool"],
            }
        )

    out = ds.map_batches(cloned, batch_format="pyarrow")
    return grouped_counts(out, ["type", "tool"], "n", sort_result=True)


def _q_syslog_severity_counts(sf_dir: str):
    """Syslog_pri filter (logstash-filter-syslog_pri): a deterministic RFC
    3164 priority string per turn — ``(turn_idx*7+3) % 200`` rendered as
    digits, every 13th turn the unparseable literal ``'x'`` — decoded with
    the fixed label tables (values > 191 and parse failures both fall back
    to the documented default 13 + failure tag); counted per (facility
    label, severity label, failed)."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc
    import ray.data

    from logstash_filter_geoip_ray.sources.transcripts import transcripts_path
    from logstash_filter_geoip_ray.stages.aggregate import grouped_counts
    from logstash_filter_geoip_ray.stages.logfilters import make_syslog_pri

    decode = make_syslog_pri("pri")
    ds = ray.data.read_parquet(transcripts_path(sf_dir), columns=["turn_idx"])

    def render_and_decode(batch: pa.Table) -> pa.Table:
        ti = batch["turn_idx"].to_numpy(zero_copy_only=False).astype(np.int64)
        pri = ((ti * 7 + 3) % 200).astype("U6")
        pri[ti % 13 == 0] = "x"
        d = decode(pa.table({"pri": pa.array(pri, type=pa.string())}))
        return pa.table(
            {
                "syslog_facility": d["syslog_facility"],
                "syslog_severity": d["syslog_severity"],
                "failed": pc.invert(pc.is_null(d["syslog_tag"])),
            }
        )

    out = ds.map_batches(render_and_decode, batch_format="pyarrow")
    return grouped_counts(
        out, ["syslog_facility", "syslog_severity", "failed"], "n",
        sort_result=True,
    )


def _q_range_violation_counts(sf_dir: str):
    """Range filter (logstash-filter-range): three deliberately OVERLAPPING
    within-[min,max] checks over documents.n_chars (short 0-200, mid
    150-800, long 500+) — a row can fire 0, 1 or 2 tags, and the fired-tag
    list keeps config order; tags are exploded (flatten + parent-index
    lang carry) and counted per (tag, lang)."""
    import pyarrow as pa
    import pyarrow.compute as pc
    import ray.data

    from logstash_filter_geoip_ray.stages.aggregate import grouped_counts
    from logstash_filter_geoip_ray.stages.logfilters import make_range_tag

    check = make_range_tag(
        [
            ("n_chars", 0, 200, "short"),
            ("n_chars", 150, 800, "mid"),
            ("n_chars", 500, 1_000_000_000, "long"),
        ]
    )
    ds = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["n_chars", "lang"]
    )

    def explode(batch: pa.Table) -> pa.Table:
        t = check(batch)
        lists = t["range_tags"].combine_chunks()
        parent = pc.list_parent_indices(lists)
        return pa.table(
            {
                "tag": pc.list_flatten(lists),
                "lang": pc.take(t["lang"].combine_chunks(), parent),
            }
        )

    out = ds.map_batches(explode, batch_format="pyarrow")
    return grouped_counts(out, ["tag", "lang"], "n", sort_result=True)


def _q_domain_tld_counts(sf_dir: str):
    """Tld filter (logstash-filter-tld): deterministic hostnames rendered
    per turn (optional ``www.`` subdomain every 4th turn, base label
    ``app<turn_idx%7>``, suffix cycling a 6-entry list that includes the
    multi-label registries co.uk / github.io / com.au) are split into
    tld / sld / domain / subdomain by the broadcast public-suffix probe;
    counted per (tld, domain, has_sub). The SQL oracle re-derives the split
    GENERICALLY from string_split + the same suffix set — not from the
    render — so the kernel's suffix logic is what's under test."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc
    import ray.data

    from logstash_filter_geoip_ray.sources.transcripts import transcripts_path
    from logstash_filter_geoip_ray.stages.aggregate import grouped_counts
    from logstash_filter_geoip_ray.stages.logfilters import make_tld

    split = make_tld("host")
    ds = ray.data.read_parquet(transcripts_path(sf_dir), columns=["turn_idx"])

    def render_and_split(batch: pa.Table) -> pa.Table:
        ti = batch["turn_idx"].to_numpy(zero_copy_only=False).astype(np.int64)
        sfx = np.array(TLD_RENDER_SUFFIXES, dtype=object)[ti % 6]
        host = np.char.add(
            np.char.add(np.char.add("app", (ti % 7).astype("U2")), "."),
            sfx.astype("U16"),
        )
        host = np.where(ti % 4 == 0, np.char.add("www.", host), host)
        t = split(pa.table({"host": pa.array(host, type=pa.string())}))
        return pa.table(
            {
                "tld": t["tld"],
                "domain": t["domain"],
                "has_sub": pc.invert(pc.is_null(t["subdomain"])),
            }
        )

    out = ds.map_batches(render_and_split, batch_format="pyarrow")
    return grouped_counts(out, ["tld", "domain", "has_sub"], "n", sort_result=True)


#: suffix cycle for the tld-filter driver query (shared with its oracle)
TLD_RENDER_SUFFIXES = ("com", "co.uk", "github.io", "org", "com.au", "net")


def _q_shaped_turns(sf_dir: str):
    """Event-shaping filter chain (prune → de_dot → truncate, the Logstash
    field-hygiene trio): turns arrive with dotted ingest names (event.role,
    event.tool, msg.text — the ECS-ish shape de_dot exists for), get
    de-dotted, pruned to the whitelisted fields (conv_id/turn_idx dropped),
    and msg_text is capped at 40 BYTES; per (event_role, event_tool):
    row count + total kept chars. The oracle replays the cap with substr
    (the table is ASCII so chars == bytes; multibyte trim semantics are
    pinned by the kernel unit tests)."""
    import pyarrow as pa
    import pyarrow.compute as pc
    import ray.data

    from logstash_filter_geoip_ray.sources.transcripts import transcripts_path
    from logstash_filter_geoip_ray.stages.aggregate import tree_sum
    from logstash_filter_geoip_ray.stages.logfilters import (
        make_de_dot,
        make_prune,
        make_truncate_bytes,
    )

    de_dot = make_de_dot()
    prune = make_prune(whitelist=[r"^event_", r"^msg_text$"])
    trunc = make_truncate_bytes(["msg_text"], 40)

    ds = ray.data.read_parquet(
        transcripts_path(sf_dir), columns=["conv_id", "turn_idx", "role", "tool", "text"]
    )

    def shape(batch: pa.Table) -> pa.Table:
        # select() pins positional order before the positional rename
        ingested = batch.select(
            ["conv_id", "turn_idx", "role", "tool", "text"]
        ).rename_columns(
            ["conv_id", "turn_idx", "event.role", "event.tool", "msg.text"]
        )
        t = trunc(prune(de_dot(ingested)))
        keyed = pa.table(
            {
                "event_role": t["event_role"],
                "event_tool": pc.fill_null(t["event_tool"], "_none"),
                "chars": pc.cast(pc.utf8_length(t["msg_text"]), pa.int64()),
            }
        )
        g = keyed.group_by(["event_role", "event_tool"]).aggregate(
            [("chars", "sum"), ([], "count_all")]
        )
        return g.rename_columns(["event_role", "event_tool", "chars", "n"])

    parts = ds.map_batches(shape, batch_format="pyarrow")
    return tree_sum(
        parts, ["event_role", "event_tool"], ["chars", "n"], sort_result=True
    )


def _q_extracted_number_stats(sf_dir: str):
    """Extractnumbers filter (logstash-filter-extractnumbers): every number
    embedded in each turn's text, via the two-step tokenize/validate
    contract (split on non-number runs, full-match regex — '1.2.3.4'-style
    IPs are rejected whole, not re-segmented); per (role, num_idx, is_int):
    row count + exact int64 sum of the integer tokens."""
    import pyarrow as pa
    import pyarrow.compute as pc
    import ray.data

    from logstash_filter_geoip_ray.sources.transcripts import transcripts_path
    from logstash_filter_geoip_ray.stages.aggregate import tree_sum
    from logstash_filter_geoip_ray.stages.logfilters import make_extractnumbers

    extract = make_extractnumbers("text", keep_cols=["role"])
    ds = ray.data.read_parquet(transcripts_path(sf_dir), columns=["role", "text"])

    def partial(batch: pa.Table) -> pa.Table:
        e = extract(batch)
        int_val = pc.if_else(
            e["is_int"], e["num"], pa.scalar("0", pa.string())
        ).cast(pa.int64())
        keyed = pa.table(
            {
                "role": e["role"],
                "num_idx": e["num_idx"],
                "is_int": e["is_int"],
                "int_sum": int_val,
            }
        )
        g = keyed.group_by(["role", "num_idx", "is_int"]).aggregate(
            [("int_sum", "sum"), ([], "count_all")]
        )
        return g.rename_columns(["role", "num_idx", "is_int", "int_sum", "n"])

    parts = ds.map_batches(partial, batch_format="pyarrow")
    return tree_sum(
        parts, ["role", "num_idx", "is_int"], ["int_sum", "n"], sort_result=True
    )


def _q_frequent_tokens(sf_dir: str):
    """Heavy hitters at sketch cost: tokens appearing ≥ 100 times, via
    capacity-pruned partials (capacity=128 < the ~450 distinct tokens, so
    pruning + the error-bound candidate pass are genuinely exercised while
    the summed eviction bound stays under the threshold) and an exact
    recount — output is exact, oracle = GROUP BY ... HAVING."""
    import pyarrow as pa
    import pyarrow.compute as pc
    import ray.data

    from logstash_filter_geoip_ray.sources.transcripts import transcripts_path
    from logstash_filter_geoip_ray.stages.aggregate import heavy_hitters
    from logstash_filter_geoip_ray.stages.parse import make_extract_ips

    ds = ray.data.read_parquet(transcripts_path(sf_dir), columns=["text"])
    ds = ds.map_batches(make_extract_ips(drop_text=True), batch_format="pyarrow")

    def drop_null(batch: pa.Table) -> pa.Table:
        return batch.filter(pc.is_valid(batch["source_ip"])).select(["source_ip"])

    tokens = ds.map_batches(drop_null, batch_format="pyarrow")
    return heavy_hitters(tokens, "source_ip", threshold=100, capacity=128)


def _q_conv_documents(sf_dir: str):
    """Turn → conversation-document assembly (the canonical training-data
    prep step): per conv_id, concatenate turn texts in (turn_idx) order and
    fingerprint the assembled document. Scale shape: stable-hash bucket on
    conv_id (P7 `bucket_by_key`) → ONE vectorized pandas groupby.agg per
    bucket — a bounded number of tasks each assembling thousands of
    conversations in C-speed groupby code, instead of one Python
    `map_groups` call per conversation (millions at fleet scale)."""
    import hashlib

    import pandas as pd
    import ray.data

    from logstash_filter_geoip_ray.sources.transcripts import transcripts_path
    from logstash_filter_geoip_ray.stages.aggregate import bucket_by_key

    ds = ray.data.read_parquet(
        transcripts_path(sf_dir), columns=["conv_id", "turn_idx", "text"]
    )

    def assemble_bucket(block: pd.DataFrame) -> pd.DataFrame:
        b = block.sort_values(["conv_id", "turn_idx"])
        g = b.groupby("conv_id", sort=True)
        docs = g["text"].agg("\n".join)
        return pd.DataFrame(
            {
                "conv_id": docs.index.to_numpy(),
                "n_turns": g.size().to_numpy(),
                "doc_chars": docs.str.len().to_numpy(),
                "doc_md5": [
                    hashlib.md5(d.encode("utf-8")).hexdigest() for d in docs
                ],
            }
        )

    bucketed = bucket_by_key(ds, "conv_id", num_buckets=64)
    return (
        bucketed.groupby("_bucket")
        .map_groups(assemble_bucket, batch_format="pandas")
        .sort("conv_id")
    )


def _rotation_window(out: dict, sql: dict) -> list[str]:
    """Compute the driver-checked 50-query window for THIS round.

    Reads the committed CORRECTNESS_r*.json files (repo root, driver-written
    at each round end) to learn which oracle-backed queries already have a
    driver hash-compare row. Deterministic given the files on disk, so the
    driver and any local run agree on the registration order."""
    import glob as _glob
    import json as _json
    import os as _os

    canaries = ["sink_counts", "routed_rows"]
    oracle_backed = [n for n in out if n in sql and n not in canaries]
    here = _os.path.dirname(_os.path.abspath(__file__))
    checked: dict[str, int] = {}  # name -> newest round index with a row
    for i, p in enumerate(sorted(_glob.glob(_os.path.join(here, "CORRECTNESS_r*.json")))):
        try:
            with open(p) as f:
                rows = _json.load(f)
        except (OSError, ValueError):
            continue
        if not isinstance(rows, dict):
            # driver format change — never let the window computation take
            # queries() down with it; unknown files just don't count as
            # "checked"
            continue
        for n in rows:
            checked[n] = i
    window = canaries + [n for n in oracle_backed if n not in checked][:48]
    if len(window) < 50:
        # every oracle-backed query has a driver row: refresh the least-
        # recently-checked ones (stable tie-break by registration order)
        reg = {n: i for i, n in enumerate(oracle_backed)}
        rest = sorted(
            (n for n in oracle_backed if n in checked),
            key=lambda n: (checked[n], reg[n]),
        )
        window += [n for n in rest if n not in window][: 50 - len(window)]
    return window[:50]


def queries() -> dict[str, Callable[[str], Any]]:
    from logstash_filter_geoip_ray.pipelines.data_ops import DATA_QUERIES

    out = {
        "sink_counts": _q_sink_counts,
        "sink_counts_ecs": _q_sink_counts_ecs,
        "asn_counts_salted": _q_asn_counts_salted,
        "turn_histogram": _q_turn_histogram,
        "routed_rows": _q_routed_rows,
        "sink_counts_checkpointed": _q_sink_counts_checkpointed,
        "parse_tokens": _q_parse_tokens,
        "log_field_counts": _q_log_field_counts,
        "log_templates": _q_log_templates,
        "latency_slo": _q_latency_slo,
        "sink_counts_incremental": _q_sink_counts_incremental,
        "new_client_ips": _q_new_client_ips,
        "multi_country_convs": _q_multi_country_convs,
        "beacon_candidates": _q_beacon_candidates,
        "asn_country_diversity": _q_asn_country_diversity,
        "multiline_events": _q_multiline_events,
        "grok_ua_counts": _q_grok_ua_counts,
        "failure_rates": _q_failure_rates,
        "country_top_tools": _q_country_top_tools,
        "conv_duration_histogram": _q_conv_duration_histogram,
        "tool_hour_heatmap": _q_tool_hour_heatmap,
        "kv_pair_stats": _q_kv_pair_stats,
        "dissect_status": _q_dissect_status,
        "multiformat_dates": _q_multiformat_dates,
        "mutated_text_stats": _q_mutated_text_stats,
        "ua_family_counts": _q_ua_family_counts,
        "decoded_path_counts": _q_decoded_path_counts,
        "clause_stats": _q_clause_stats,
        "cloned_type_counts": _q_cloned_type_counts,
        "syslog_severity_counts": _q_syslog_severity_counts,
        "range_violation_counts": _q_range_violation_counts,
        "domain_tld_counts": _q_domain_tld_counts,
        "shaped_turns": _q_shaped_turns,
        "extracted_number_stats": _q_extracted_number_stats,
        "cidr_token_classes": _q_cidr_token_classes,
        "geohash_counts": _q_geohash_counts,
        "frequent_tokens": _q_frequent_tokens,
        "conv_documents": _q_conv_documents,
    }
    for spec_name in _DB_COUNT_SPECS:
        out[spec_name] = _make_db_counts_query(spec_name)
    out.update(DATA_QUERIES)
    # Driver-window ROTATION (round 4+): the round driver hash-compares only
    # the FIRST 50 registered oracle-backed queries. Rounds 1-3 pinned a
    # fixed window chosen by a demote-list policy (each demoted query's
    # machinery shared with a checked sibling — rationale in git history at
    # tag `round 3`); every query outside the window is still verified
    # against its DuckDB oracle every round by tests/ and
    # tools/check_oracles.py. From round 4 the window SELF-ADVANCES each
    # round, computed from the CORRECTNESS_r*.json files committed in the
    # repo root (deterministic: same files → same window):
    #   - two canaries stay in every window (sink_counts = the flagship
    #     aggregate, routed_rows = the 60k-row full-pipeline value hash)
    #   - the other 48 slots go to oracle-backed queries that have never
    #     had a driver row, in registration order; once every query has
    #     one, slots refresh the least-recently-checked names.
    # tools/window_canary.py guards each rotation: any query that LEFT the
    # window must still pass its local oracle check, so rotation cannot
    # hide a regression.
    sql = oracle_sql()
    window = _rotation_window(out, sql)
    missing = [n for n in window if n not in out or n not in sql]
    if missing:
        raise RuntimeError(
            "queries(): window names missing a query or oracle "
            "registration: %s" % missing
        )
    ordered = {n: out[n] for n in window}
    # remaining oracle-backed queries follow (outside the driver window,
    # verified by tests/ + tools/check_oracles.py), then rows-only ones
    ordered.update({n: f for n, f in out.items() if n in sql and n not in ordered})
    ordered.update({n: f for n, f in out.items() if n not in sql})
    return ordered


def oracle_sql() -> dict[str, str]:
    from logstash_filter_geoip_ray.pipelines.geoip_pipeline import (
        MISS_KEY,
        oracle_asn_counts_sql,
        oracle_sink_counts_sql,
        oracle_turn_histogram_sql,
    )
    from logstash_filter_geoip_ray.sources.transcripts import (
        ip_geo_path,
        transcripts_path,
    )

    sf = ORACLE_SF_DIR
    t = transcripts_path(sf)  # generates the deterministic table if needed
    g = ip_geo_path(sf)
    routed = f"""
WITH parsed AS (
  SELECT conv_id, turn_idx, text, tool,
         nullif(regexp_extract(text, '(?:request from|client=)\\s*([^\\s"]+)', 1), '') AS tok
  FROM read_parquet('{t}/*.parquet')
)
SELECT p.conv_id, p.turn_idx, p.text, p.tool,
       coalesce(g.country_code2, '{MISS_KEY}') AS country
FROM parsed p LEFT JOIN read_parquet('{g}') g ON p.tok = g.ip
ORDER BY p.conv_id, p.turn_idx
"""
    parse_tokens = f"""
SELECT nullif(regexp_extract(text, '(?:request from|client=)\\s*([^\\s"]+)', 1), '') AS source_ip,
       count(*) AS n
FROM read_parquet('{t}/*.parquet')
WHERE nullif(regexp_extract(text, '(?:request from|client=)\\s*([^\\s"]+)', 1), '') IS NOT NULL
GROUP BY 1 ORDER BY 1
"""
    from logstash_filter_geoip_ray.pipelines.data_ops import (
        DATA_ORACLES,
        semdedup_oracles,
    )

    from logstash_filter_geoip_ray.pipelines.geoip_pipeline import (
        oracle_db_key_counts_sql,
    )

    from logstash_filter_geoip_ray.pipelines.geoip_pipeline import (
        oracle_geohash_counts_sql,
    )

    out = {
        "sink_counts": oracle_sink_counts_sql(sf),
        "geohash_counts": oracle_geohash_counts_sql(sf),
        "sink_counts_ecs": oracle_sink_counts_sql(sf),
        "asn_counts_salted": oracle_asn_counts_sql(sf),
        "sink_counts_custom_db": oracle_sink_counts_sql(sf),
        "sink_counts_checkpointed": oracle_sink_counts_sql(sf),
        "sink_counts_incremental": oracle_sink_counts_sql(sf),
        "turn_histogram": oracle_turn_histogram_sql(sf),
        "routed_rows": routed,
        "parse_tokens": parse_tokens,
    }
    for spec_name, (_, _, oracle_cols) in _DB_COUNT_SPECS.items():
        out[spec_name] = oracle_db_key_counts_sql(sf, oracle_cols)
    out["conv_documents"] = f"""
SELECT conv_id,
       CAST(count(*) AS BIGINT) AS n_turns,
       CAST(length(string_agg(text, chr(10) ORDER BY turn_idx)) AS BIGINT) AS doc_chars,
       md5(string_agg(text, chr(10) ORDER BY turn_idx)) AS doc_md5
FROM read_parquet('{t}/*.parquet') GROUP BY 1 ORDER BY 1
"""
    out["frequent_tokens"] = f"""
WITH parsed AS (
  SELECT nullif(regexp_extract(text, '(?:request from|client=)\\s*([^\\s"]+)', 1), '') AS source_ip
  FROM read_parquet('{t}/*.parquet')
)
SELECT source_ip, CAST(count(*) AS BIGINT) AS n
FROM parsed WHERE source_ip IS NOT NULL
GROUP BY 1 HAVING count(*) >= 100 ORDER BY 1
"""
    out["log_templates"] = f"""
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
"""
    out["tool_hour_heatmap"] = f"""
SELECT tool, CAST((epoch_us(ts) // 3600000000) % 24 AS BIGINT) AS hour,
       CAST(count(*) AS BIGINT) AS n
FROM read_parquet('{t}/*.parquet')
GROUP BY 1, 2 ORDER BY 1, 2
"""
    out["conv_duration_histogram"] = f"""
WITH c AS (
  SELECT conv_id,
         (epoch_us(max(ts)) - epoch_us(min(ts))) // 1000000 AS seconds
  FROM read_parquet('{t}/*.parquet') GROUP BY 1
)
SELECT CAST(seconds AS BIGINT) AS seconds,
       CAST(count(*) AS BIGINT) AS n_convs
FROM c GROUP BY 1 ORDER BY 1
"""
    out["country_top_tools"] = f"""
WITH parsed AS (
  SELECT tool,
         nullif(regexp_extract(text, '(?:request from|client=)\\s*([^\\s"]+)', 1), '') AS tok
  FROM read_parquet('{t}/*.parquet')
), enr AS (
  SELECT p.tool, coalesce(g.country_code2, '{MISS_KEY}') AS country
  FROM parsed p LEFT JOIN read_parquet('{g}') g ON p.tok = g.ip
), c AS (
  SELECT country, tool, CAST(count(*) AS BIGINT) AS n FROM enr GROUP BY 1, 2
)
SELECT country, n, tool FROM (
  SELECT country, tool, n,
         row_number() OVER (PARTITION BY country ORDER BY n DESC, tool) AS rn
  FROM c)
WHERE rn <= 3 ORDER BY country, n DESC, tool
"""
    out["failure_rates"] = f"""
WITH parsed AS (
  SELECT tool,
         nullif(regexp_extract(text, '(?:request from|client=)\\s*([^\\s"]+)', 1), '') AS tok
  FROM read_parquet('{t}/*.parquet')
), enr AS (
  SELECT p.tool, g.country_code2
  FROM parsed p LEFT JOIN read_parquet('{g}') g ON p.tok = g.ip
)
SELECT tool, CAST(count(*) AS BIGINT) AS n_total,
       CAST(sum(CASE WHEN country_code2 IS NULL THEN 1 ELSE 0 END) AS BIGINT) AS n_miss,
       CAST((1000 * sum(CASE WHEN country_code2 IS NULL THEN 1 ELSE 0 END))
            // count(*) AS BIGINT) AS miss_permille
FROM enr GROUP BY 1 ORDER BY 1
"""
    out["grok_ua_counts"] = f"""
WITH m AS (
  SELECT nullif(regexp_extract(text,
    'request from (\\d{{1,3}}\\.\\d{{1,3}}\\.\\d{{1,3}}\\.\\d{{1,3}}) ua=([^\\s]+)', 2), '') AS ua
  FROM read_parquet('{t}/*.parquet')
)
SELECT ua, CAST(count(*) AS BIGINT) AS n FROM m
WHERE ua IS NOT NULL GROUP BY 1 ORDER BY 1
"""
    out["multiline_events"] = f"""
WITH t AS (
  SELECT conv_id, turn_idx, text,
         CASE WHEN starts_with(text, 'session opened;')
                   OR row_number() OVER (PARTITION BY conv_id
                                         ORDER BY turn_idx) = 1
              THEN 1 ELSE 0 END AS is_start
  FROM read_parquet('{t}/*.parquet')
), ev AS (
  SELECT conv_id, turn_idx, length(text) AS chars,
         sum(is_start) OVER (PARTITION BY conv_id ORDER BY turn_idx
                             ROWS UNBOUNDED PRECEDING) AS event_seq
  FROM t
)
SELECT conv_id, CAST(event_seq AS BIGINT) AS event_seq,
       CAST(count(*) AS BIGINT) AS n_lines,
       CAST(min(turn_idx) AS BIGINT) AS first_turn,
       CAST(max(turn_idx) AS BIGINT) AS last_turn,
       CAST(sum(chars) AS BIGINT) AS text_chars
FROM ev GROUP BY 1, 2 ORDER BY 1, 2
"""
    out["asn_country_diversity"] = f"""
WITH parsed AS (
  SELECT nullif(regexp_extract(text, '(?:request from|client=)\\s*([^\\s"]+)', 1), '') AS tok
  FROM read_parquet('{t}/*.parquet')
), j AS (
  SELECT g.asn, g.country_code2 AS c
  FROM parsed p JOIN read_parquet('{g}') g ON p.tok = g.ip
  WHERE g.asn IS NOT NULL AND g.country_code2 IS NOT NULL
)
SELECT CAST(asn AS BIGINT) AS asn,
       CAST(count(DISTINCT c) AS BIGINT) AS n_countries
FROM j GROUP BY 1 ORDER BY 1
"""
    out["beacon_candidates"] = f"""
WITH parsed AS (
  SELECT epoch_us(ts) // 1000 AS ms,
         nullif(regexp_extract(text, '(?:request from|client=)\\s*([^\\s"]+)', 1), '') AS ip
  FROM read_parquet('{t}/*.parquet')
), w AS (
  SELECT ip, ms - lag(ms) OVER (PARTITION BY ip ORDER BY ms) AS gap
  FROM parsed WHERE ip IS NOT NULL
), g AS (SELECT ip, gap FROM w WHERE gap IS NOT NULL)
SELECT ip, CAST(count(*) AS BIGINT) AS n_gaps,
       CAST(sum(gap) AS BIGINT) AS sum_gap_ms,
       CAST(sum(gap * gap) AS BIGINT) AS sum_gap2
FROM g GROUP BY 1 HAVING count(*) >= 5 ORDER BY 1
"""
    out["multi_country_convs"] = f"""
WITH parsed AS (
  SELECT conv_id,
         nullif(regexp_extract(text, '(?:request from|client=)\\s*([^\\s"]+)', 1), '') AS tok
  FROM read_parquet('{t}/*.parquet')
), j AS (
  SELECT p.conv_id, g.country_code2 AS c
  FROM parsed p JOIN read_parquet('{g}') g ON p.tok = g.ip
  WHERE g.country_code2 IS NOT NULL
)
SELECT conv_id, CAST(count(DISTINCT c) AS BIGINT) AS n_countries
FROM j GROUP BY 1 HAVING count(DISTINCT c) >= 2 ORDER BY 1
"""
    out["new_client_ips"] = f"""
WITH parsed AS (
  SELECT ts, nullif(regexp_extract(text, '(?:request from|client=)\\s*([^\\s"]+)', 1), '') AS ip
  FROM read_parquet('{t}/*.parquet')
), p1 AS (
  SELECT DISTINCT ip FROM parsed
  WHERE ip IS NOT NULL AND ts < TIMESTAMP '2023-11-14 23:00:00'
), p2 AS (
  SELECT ip, CAST(count(*) AS BIGINT) AS n FROM parsed
  WHERE ip IS NOT NULL AND ts >= TIMESTAMP '2023-11-14 23:00:00'
  GROUP BY 1
)
SELECT ip, n FROM p2 ANTI JOIN p1 USING (ip)
ORDER BY n DESC, ip
"""
    out["latency_slo"] = f"""
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
"""
    out["log_field_counts"] = f"""
SELECT coalesce(nullif(regexp_extract(text, 'path=([^\\s"]+)', 1), ''), '_none') AS path,
       coalesce(nullif(regexp_extract(text, 'status=(\\d{{3}})', 1), ''), '_none') AS status,
       CAST(sum(coalesce(CAST(nullif(regexp_extract(text, 'latency=(\\d+)ms', 1), '') AS BIGINT), 0)) AS BIGINT) AS lat,
       CAST(count(*) AS BIGINT) AS n
FROM read_parquet('{t}/*.parquet')
GROUP BY 1, 2 ORDER BY 1, 2
"""
    out["kv_pair_stats"] = f"""
WITH toks AS (
  SELECT unnest(string_split(text, ' ')) AS tok
  FROM read_parquet('{t}/*.parquet')
), kv AS (
  SELECT split_part(tok, '=', 1) AS kv_key,
         substr(tok, strpos(tok, '=') + 1) AS kv_value
  FROM toks WHERE contains(tok, '=')
)
SELECT kv_key, CAST(count(*) AS BIGINT) AS n,
       CAST(count(DISTINCT kv_value) AS BIGINT) AS n_values
FROM kv GROUP BY 1 ORDER BY 1
"""
    # non-greedy groups = first-occurrence literal match (dissect semantics)
    out["dissect_status"] = f"""
WITH d AS (
  SELECT regexp_extract(text, '^client=(.*?) status=(.*?) latency=(.*)ms$', 1) AS ip,
         regexp_extract(text, '^client=(.*?) status=(.*?) latency=(.*)ms$', 2) AS status,
         regexp_extract(text, '^client=(.*?) status=(.*?) latency=(.*)ms$', 3) AS lat
  FROM read_parquet('{t}/*.parquet')
  WHERE regexp_matches(text, '^client=(.*?) status=(.*?) latency=(.*)ms$')
)
SELECT status, CAST(count(*) AS BIGINT) AS n,
       CAST(count(DISTINCT ip) AS BIGINT) AS n_ips,
       CAST(sum(CAST(lat AS BIGINT)) AS BIGINT) AS lat_sum
FROM d GROUP BY 1 ORDER BY 1
"""
    out["mutated_text_stats"] = f"""
WITH m AS (
  SELECT tool, trim(upper(regexp_replace(text, '\\d+', '#', 'g'))) AS norm
  FROM read_parquet('{t}/*.parquet')
)
SELECT tool, CAST(count(*) AS BIGINT) AS n,
       CAST(count(DISTINCT norm) AS BIGINT) AS n_texts,
       CAST(sum(length(norm)) AS BIGINT) AS chars
FROM m GROUP BY 1 ORDER BY 1
"""
    out["ua_family_counts"] = f"""
WITH s AS (
  SELECT CASE turn_idx % 4
    WHEN 0 THEN '{_UA_CHROME_PRE}' || (90 + turn_idx % 40) || '.0.4472.124 Safari/537.36'
    WHEN 1 THEN 'curl/8.' || (turn_idx % 10) || '.0'
    WHEN 2 THEN 'python-requests/2.' || (turn_idx % 32) || '.0'
    ELSE '{_UA_FIREFOX_PRE}' || (100 + turn_idx % 30) || '.0) Gecko/20100101 Firefox/' || (100 + turn_idx % 30) || '.0'
    END AS ua
  FROM read_parquet('{t}/*.parquet')
), p AS (
  SELECT CASE
    WHEN regexp_matches(ua, 'Chrome/\\d+\\.\\d+') THEN 'Chrome'
    WHEN regexp_matches(ua, 'Firefox/\\d+\\.\\d+') THEN 'Firefox'
    WHEN regexp_matches(ua, 'curl/\\d+\\.\\d+') THEN 'curl'
    WHEN regexp_matches(ua, 'python-requests/\\d+\\.\\d+') THEN 'python-requests'
    WHEN regexp_matches(ua, 'Safari/\\d+\\.\\d+') THEN 'Safari'
    ELSE 'Other' END AS ua_family, ua
  FROM s
)
SELECT ua_family,
       CASE ua_family
         WHEN 'Chrome' THEN regexp_extract(ua, 'Chrome/(\\d+)\\.', 1)
         WHEN 'Firefox' THEN regexp_extract(ua, 'Firefox/(\\d+)\\.', 1)
         WHEN 'curl' THEN regexp_extract(ua, 'curl/(\\d+)\\.', 1)
         WHEN 'python-requests' THEN regexp_extract(ua, 'python-requests/(\\d+)\\.', 1)
       END AS ua_major,
       CAST(count(*) AS BIGINT) AS n
FROM p GROUP BY 1, 2 ORDER BY 1, 2
"""
    from logstash_filter_geoip_ray.stages.logfilters import (
        SYSLOG_FACILITY_LABELS,
        SYSLOG_SEVERITY_LABELS,
        TLD_MULTI_SUFFIXES,
    )

    _fac = "[" + ", ".join("'%s'" % x for x in SYSLOG_FACILITY_LABELS) + "]"
    _sev = "[" + ", ".join("'%s'" % x for x in SYSLOG_SEVERITY_LABELS) + "]"
    out["syslog_severity_counts"] = f"""
WITH p AS (
  SELECT CAST(turn_idx AS BIGINT) AS ti FROM read_parquet('{t}/*.parquet')
), d AS (
  SELECT CASE WHEN ti % 13 = 0 OR (ti*7+3) % 200 > 191
              THEN 13 ELSE (ti*7+3) % 200 END AS eff,
         (ti % 13 = 0 OR (ti*7+3) % 200 > 191) AS failed
  FROM p
)
SELECT ({_fac})[CAST(eff // 8 AS INT) + 1] AS syslog_facility,
       ({_sev})[CAST(eff % 8 AS INT) + 1] AS syslog_severity,
       failed,
       CAST(count(*) AS BIGINT) AS n
FROM d GROUP BY 1, 2, 3 ORDER BY 1, 2, 3
"""
    out["range_violation_counts"] = f"""
WITH d AS (SELECT lang, n_chars FROM read_parquet('{sf}/documents.parquet')),
f AS (
  SELECT 'short' AS tag, lang FROM d WHERE n_chars BETWEEN 0 AND 200
  UNION ALL SELECT 'mid', lang FROM d WHERE n_chars BETWEEN 150 AND 800
  UNION ALL SELECT 'long', lang FROM d WHERE n_chars BETWEEN 500 AND 1000000000
)
SELECT tag, lang, CAST(count(*) AS BIGINT) AS n
FROM f GROUP BY 1, 2 ORDER BY 1, 2
"""
    # generic re-derivation: string_split + the SAME multi-label suffix set,
    # independent of how the hosts were rendered — the kernel's suffix
    # membership and label arithmetic is what the hash pins
    _sfx = "[" + ", ".join("'%s'" % x for x in TLD_RENDER_SUFFIXES) + "]"
    _multi = "(" + ", ".join("'%s'" % x for x in sorted(set(TLD_MULTI_SUFFIXES))) + ")"
    out["domain_tld_counts"] = f"""
WITH p AS (
  SELECT CAST(turn_idx AS BIGINT) AS ti FROM read_parquet('{t}/*.parquet')
), h AS (
  SELECT (CASE WHEN ti % 4 = 0 THEN 'www.' ELSE '' END)
         || 'app' || CAST(ti % 7 AS VARCHAR) || '.'
         || ({_sfx})[CAST(ti % 6 AS INT) + 1] AS host
  FROM p
), s AS (
  SELECT host, string_split(host, '.') AS l FROM h
), d AS (
  SELECT len(l) AS nl,
         (len(l) >= 2 AND (l[-2] || '.' || l[-1]) IN {_multi}) AS is_multi,
         l
  FROM s
)
SELECT CASE WHEN is_multi THEN l[-2] || '.' || l[-1] ELSE l[-1] END AS tld,
       CASE WHEN nl >= (CASE WHEN is_multi THEN 3 ELSE 2 END)
            THEN (CASE WHEN is_multi THEN l[-3] ELSE l[-2] END)
                 || '.' || (CASE WHEN is_multi THEN l[-2] || '.' || l[-1]
                                 ELSE l[-1] END)
       END AS domain,
       nl >= (CASE WHEN is_multi THEN 4 ELSE 3 END) AS has_sub,
       CAST(count(*) AS BIGINT) AS n
FROM d GROUP BY 1, 2, 3 ORDER BY 1, 2, 3
"""
    out["extracted_number_stats"] = f"""
WITH rows_ AS (
  SELECT role, string_split_regex(text, '[^0-9eE.+-]+') AS l,
         row_number() OVER () AS rid
  FROM read_parquet('{t}/*.parquet') WHERE text IS NOT NULL
), toks AS (
  SELECT role, rid, unnest(l) AS tok, generate_subscripts(l, 1) AS pos
  FROM rows_
), numbered AS (
  SELECT role, tok,
         row_number() OVER (PARTITION BY rid ORDER BY pos) AS num_idx
  FROM toks
  WHERE regexp_full_match(tok, '[-+]?([0-9]+\\.?[0-9]*|\\.[0-9]+)([eE][-+]?[0-9]+)?')
)
SELECT role,
       CAST(num_idx AS BIGINT) AS num_idx,
       regexp_full_match(tok, '[-+]?[0-9]+') AS is_int,
       CAST(sum(CASE WHEN regexp_full_match(tok, '[-+]?[0-9]+')
                     THEN CAST(tok AS BIGINT) ELSE 0 END) AS BIGINT) AS int_sum,
       CAST(count(*) AS BIGINT) AS n
FROM numbered
GROUP BY 1, 2, 3 ORDER BY 1, 2, 3
"""
    out["shaped_turns"] = f"""
SELECT role AS event_role,
       coalesce(tool, '_none') AS event_tool,
       CAST(sum(length(substr(text, 1, 40))) AS BIGINT) AS chars,
       CAST(count(*) AS BIGINT) AS n
FROM read_parquet('{t}/*.parquet')
GROUP BY 1, 2 ORDER BY 1, 2
"""
    out["cloned_type_counts"] = f"""
WITH c AS (
  SELECT '_original' AS type, tool FROM read_parquet('{t}/*.parquet')
  UNION ALL SELECT 'shadow', tool FROM read_parquet('{t}/*.parquet')
  UNION ALL SELECT 'audit', tool FROM read_parquet('{t}/*.parquet')
)
SELECT type, tool, CAST(count(*) AS BIGINT) AS n
FROM c GROUP BY 1, 2 ORDER BY 1, 2
"""
    # round-trip proof: the oracle aggregates the RAW source paths — any
    # loss in the engine's encode→urldecode chain breaks the hash
    out["decoded_path_counts"] = f"""
WITH p AS (
  SELECT nullif(regexp_extract(text, 'path=([^\\s"]+)', 1), '') AS path
  FROM read_parquet('{t}/*.parquet')
)
SELECT path, CAST(count(*) AS BIGINT) AS n
FROM p WHERE path IS NOT NULL GROUP BY 1 ORDER BY 1
"""
    out["clause_stats"] = f"""
WITH s AS (
  SELECT role, string_split(text, '; ') AS parts
  FROM read_parquet('{t}/*.parquet')
), e AS (
  SELECT role, unnest(parts) AS part,
         generate_subscripts(parts, 1) AS part_idx
  FROM s
)
SELECT role, CAST(part_idx AS BIGINT) AS part_idx,
       CAST(sum(length(part)) AS BIGINT) AS chars,
       CAST(count(*) AS BIGINT) AS n
FROM e GROUP BY 1, 2 ORDER BY 1, 2
"""
    out["multiformat_dates"] = f"""
WITH s AS (
  SELECT CASE turn_idx % 3
           WHEN 0 THEN strftime(ts, '%Y-%m-%d %H:%M:%S')
           WHEN 1 THEN strftime(ts, '%d/%b/%Y:%H:%M:%S')
           ELSE strftime(ts, '%Y-%m-%dT%H:%M:%S') END AS raw
  FROM read_parquet('{t}/*.parquet')
), p AS (
  SELECT coalesce(try_strptime(raw, '%Y-%m-%d %H:%M:%S'),
                  try_strptime(raw, '%d/%b/%Y:%H:%M:%S'),
                  try_strptime(raw, '%Y-%m-%dT%H:%M:%S')) AS pts
  FROM s
)
SELECT strftime(date_trunc('hour', pts), '%Y-%m-%d %H:00') AS hour,
       CAST(count(*) AS BIGINT) AS n
FROM p GROUP BY 1 ORDER BY 1
"""
    out["cidr_token_classes"] = f"""
WITH parsed AS (
  SELECT nullif(regexp_extract(text, '(?:request from|client=)\\s*([^\\s"]+)', 1), '') AS tok
  FROM read_parquet('{t}/*.parquet')
), v AS (
  SELECT CASE WHEN regexp_matches(tok, '^\\d{{1,3}}\\.\\d{{1,3}}\\.\\d{{1,3}}\\.\\d{{1,3}}$')
                   AND CAST(split_part(tok, '.', 1) AS BIGINT) <= 255
                   AND CAST(split_part(tok, '.', 2) AS BIGINT) <= 255
                   AND CAST(split_part(tok, '.', 3) AS BIGINT) <= 255
                   AND CAST(split_part(tok, '.', 4) AS BIGINT) <= 255
              THEN CAST(split_part(tok, '.', 1) AS BIGINT) * 16777216
                   + CAST(split_part(tok, '.', 2) AS BIGINT) * 65536
                   + CAST(split_part(tok, '.', 3) AS BIGINT) * 256
                   + CAST(split_part(tok, '.', 4) AS BIGINT)
         END AS ipint
  FROM parsed WHERE tok IS NOT NULL
)
SELECT CASE WHEN ipint IS NULL THEN '_invalid'
            ELSE {_cidr_oracle_case(_CIDR_NETWORKS)} END AS network_class,
       CAST(count(*) AS BIGINT) AS n
FROM v GROUP BY 1 ORDER BY 1
"""
    out["conv_stats"] = f"""
SELECT conv_id, CAST(count(*) AS BIGINT) AS n_turns,
       CAST(max(turn_idx) AS BIGINT) AS max_turn
FROM read_parquet('{t}/*.parquet') GROUP BY 1 ORDER BY 1
"""
    out.update(DATA_ORACLES)
    out.update(semdedup_oracles())
    return out
