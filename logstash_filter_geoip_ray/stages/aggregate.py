"""Aggregation stages (P5, P7): per-sink counts and per-country turn
histograms, with a partial-aggregation (combiner) strategy that keeps the
all-to-all shuffle tiny, plus a salted two-stage variant for skewed keys.

The reference has no aggregation of its own — these are the Logstash-pipeline-
level operators the north_rule requires natively (SURVEY.md §2.B).

Scale design: a naive ``ds.groupby(k).count()`` shuffles every row. Instead
each ``map_batches`` task counts its own batch (one output row per distinct
key per batch — with ~200 countries × 5 tools the partials are microscopic),
and only the partials reach the driver, which folds them into one row per
key. At 10^12 rows that traffic is #batches × #distinct-keys, not rows.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import pyarrow as pa
import pyarrow.compute as pc


def _partial_counts(key_cols: Sequence[str], count_alias: str):
    def partial(batch: pa.Table) -> pa.Table:
        return batch.group_by(list(key_cols)).aggregate([([], "count_all")]).rename_columns(
            list(key_cols) + [count_alias]
        )

    return partial


def _combine_sums(key_cols: Sequence[str], sum_cols: Sequence[str], sort: bool):
    def combine(batch: pa.Table) -> pa.Table:
        agg = batch.group_by(list(key_cols)).aggregate([(c, "sum") for c in sum_cols])
        agg = agg.rename_columns(list(key_cols) + list(sum_cols))
        if sort:
            agg = agg.sort_by([(k, "ascending") for k in key_cols])
        return agg

    return combine


#: the driver folds its buffer of partial rows each time this many rows have
#: arrived since the last fold, so its memory stays near this plus the
#: number of keys
_FOLD_ROWS = 1 << 20

#: loud guard on the driver-side fold: the folded table holds one row per
#: key, so past this many the keys are not low-cardinality and the fold is
#: the wrong operator — fail early, before the driver balloons
MAX_DRIVER_COMBINE_ROWS = 50_000_000


def _folded(combine, tables: List[pa.Table]) -> pa.Table:
    out = combine(pa.concat_tables(tables, promote_options="permissive").combine_chunks())
    if out.num_rows > MAX_DRIVER_COMBINE_ROWS:
        raise RuntimeError(
            "driver-side fold: %d keys exceed MAX_DRIVER_COMBINE_ROWS (%d) — "
            "the key set is not low-cardinality; use salted_grouped_counts "
            "or the native groupby().aggregate() for this key"
            % (out.num_rows, MAX_DRIVER_COMBINE_ROWS)
        )
    return out


def _fold(ds, combine, last):
    """Stream ``ds``'s blocks to the driver, fold them with ``combine``
    every ``_FOLD_ROWS`` rows and once more with ``last``; return the result
    as a one-block materialized Dataset. With no rows, ``last`` folds the
    upstream's empty table, so the columns keep their types."""
    import ray.data

    buf, fresh = [], 0
    for t in ds.iter_batches(batch_format="pyarrow", batch_size=None):
        buf.append(t)
        fresh += t.num_rows
        if fresh > _FOLD_ROWS:
            buf, fresh = [_folded(combine, buf)], 0
    if not buf:
        schema = ds.schema()
        if schema is None:
            return ray.data.from_blocks([])
        buf = [pa.schema(list(zip(schema.names, schema.types))).empty_table()]
    # from_blocks computes the block metadata here; from_arrow would run a
    # remote task for it
    return ray.data.from_blocks([_folded(last, buf)])


def tree_sum(ds, key_cols: Sequence[str], sum_cols: Sequence[str],
             sort_result: bool = True):
    """Sum ``sum_cols`` per key of ``ds``'s partial rows, folded on the
    driver (see :func:`_fold`); the result is one block, sorted by key when
    ``sort_result``.

    With combiner-style partials the rows that reach the driver are
    #blocks × #keys, a few thousand for hundreds of keys, and any Ray
    operator on them (native Aggregate/Sort, or a combine task) costs more
    fixed latency than the work. For *high-cardinality* keys use the native
    ``groupby().aggregate()`` or :func:`salted_grouped_counts`; past
    ``MAX_DRIVER_COMBINE_ROWS`` folded keys this raises."""
    return _fold(
        ds,
        _combine_sums(key_cols, sum_cols, sort=False),
        _combine_sums(key_cols, sum_cols, sort=sort_result),
    )


def tree_agg(ds, combine_fn):
    """:func:`tree_sum` for any mergeable combine: ``combine_fn`` folds
    partial rows into one row per key on the driver, and must give the same
    result however the rows are split between folds. The result is one
    block."""
    return _fold(ds, combine_fn, combine_fn)


def grouped_counts(
    ds,
    key_cols: Sequence[str],
    count_alias: str = "n",
    batch_size: Optional[int] = 65536,
    sort_result: bool = False,
):
    """count(*) per key: per-batch partial counts → tree combine
    (``batch_size=None``: one partial per block).

    Returns a Dataset with columns ``key_cols + [count_alias]``.
    """
    partials = ds.map_batches(
        _partial_counts(key_cols, count_alias),
        batch_format="pyarrow",
        batch_size=batch_size,
    )
    return tree_sum(partials, key_cols, [count_alias], sort_result=sort_result)


def stable_key_hash(values: pa.Array, num_buckets: int) -> pa.Array:
    """Deterministic per-row bucket id from a key column — stable across
    processes/machines (pandas' SipHash with its fixed key; never Python's
    salted ``hash``). Vectorized."""
    import pandas as pd

    # normalize integer widths first: hash_pandas_object hashes int32(-1)
    # and int64(-1) differently, which would bucket matching keys of
    # different declared widths into different partitions
    if pa.types.is_integer(values.type):
        values = values.cast(pa.int64())
        if values.null_count:
            # a null-carrying int64 column turns float64 in to_pandas(),
            # and float64(2.0) hashes differently than int64(2) — the same
            # key would land in different buckets depending on whether its
            # COLUMN happens to contain a null elsewhere. Null keys only
            # need a deterministic bucket (they equal nothing), so fold
            # them onto 0's bucket and keep the column integer.
            import pyarrow.compute as pc

            values = pc.fill_null(values, 0)
    s = values.to_pandas()
    h = pd.util.hash_pandas_object(s, index=False).to_numpy()
    return pa.array((h % num_buckets).astype("int32"))


def bucket_by_key(ds, key_col: str, num_buckets: int, bucket_col: str = "_bucket"):
    """P7 explicit partitioning on a key (e.g. conv_id): adds a stable hash
    bucket column so downstream groupbys / per-bucket tasks co-locate one
    key's rows without a full sort. The same bucket id on every stage that
    reuses the key avoids repeated shuffles."""

    def add_bucket(batch: pa.Table) -> pa.Table:
        col = batch[key_col]
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        if bucket_col in batch.column_names:
            batch = batch.drop_columns([bucket_col])
        return batch.append_column(bucket_col, stable_key_hash(col, num_buckets))

    return ds.map_batches(add_bucket, batch_format="pyarrow")


def add_salt_column(ds, buckets: int, salt_col: str = "_salt"):
    """P7 skew mitigation: spread every key over ``buckets`` sub-keys by row
    position (round-robin — the most even spread for a hot key). First-stage
    aggregates run per (key, salt); the second stage sums over salt — no
    single reducer sees a whole hot key."""

    def salt(batch: pa.Table) -> pa.Table:
        # cheap deterministic spread: row-index modulo buckets (vectorized)
        import numpy as np

        n = batch.num_rows
        salt_arr = pa.array((np.arange(n) % buckets).astype("int32"))
        if salt_col in batch.column_names:
            batch = batch.drop_columns([salt_col])
        return batch.append_column(salt_col, salt_arr)

    return ds.map_batches(salt, batch_format="pyarrow")


def salted_grouped_counts(
    ds,
    key_cols: Sequence[str],
    count_alias: str = "n",
    buckets: int = 8,
    batch_size: int = 65536,
    sort_result: bool = False,
):
    """Two-stage salted count for hot keys: partials keyed by
    (keys..., salt) shuffle into ``buckets`` reducers per key — no single
    reducer ever sees a whole hot key — then the per-(key, salt) rows
    (#keys × buckets, tiny by construction) fold through the combine tree.
    Using :func:`tree_sum` for the second stage instead of another native
    groupby (and ``sort_result`` instead of a trailing ``Dataset.sort``)
    drops two fixed-cost all-to-all exchanges that operated on a few dozen
    rows; the salted exchange — the part that matters at scale — stays."""
    from ray.data.aggregate import Sum

    salted = add_salt_column(ds, buckets)
    stage1 = salted.map_batches(
        _partial_counts(list(key_cols) + ["_salt"], count_alias),
        batch_format="pyarrow",
        batch_size=batch_size,
    )
    per_salt = stage1.groupby(list(key_cols) + ["_salt"]).aggregate(
        Sum(count_alias, alias_name=count_alias)
    )
    return tree_sum(per_salt, key_cols, [count_alias], sort_result=sort_result)


def stratified_sample(ds, key_col: str, id_col: str, n_per_key: int, num_buckets: int = 64):
    """Deterministic stratified sample: the ``n_per_key`` rows per key with
    the smallest md5(id) — a seeded-free, machine-independent ordering both
    this engine and a SQL oracle can compute (``ORDER BY md5(id)``).

    Shape: per-batch partial top-n per key (only batches×keys×n tiny rows
    survive) → keys co-located by stable hash bucket → per-bucket vectorized
    ``groupby.head`` final top-n (no Python call per stratum). The
    md5-per-row call is the kernel (C-speed hashlib inside map_batches);
    everything after is partial top-k, never a full-row shuffle."""
    import hashlib as _hashlib

    import pandas as pd

    def partial(batch: pa.Table) -> pa.Table:
        df = batch.select([key_col, id_col]).to_pandas()
        df["_h"] = [
            _hashlib.md5(str(int(v)).encode()).hexdigest() for v in df[id_col]
        ]
        top = (
            df.sort_values([key_col, "_h", id_col])
            .groupby(key_col, sort=False)
            .head(n_per_key)
        )
        return pa.Table.from_pandas(top, preserve_index=False)

    def final_bucket(block: pd.DataFrame) -> pd.DataFrame:
        g = (
            block.sort_values([key_col, "_h", id_col])
            .groupby(key_col, sort=False)
            .head(n_per_key)
        )
        return g[[key_col, id_col]]

    partials = ds.map_batches(partial, batch_format="pyarrow")
    bucketed = bucket_by_key(partials, key_col, num_buckets)
    return (
        bucketed.groupby("_bucket")
        .map_groups(final_bucket, batch_format="pandas")
        .sort([key_col, id_col])
    )


#: MINSTD (Lehmer / Park–Miller) constants for the deterministic uniform
#: draw inside :func:`weighted_priority_sample` — public-domain PRNG math;
#: both this engine and a SQL oracle reproduce it with two BIGINT ops.
MINSTD_MOD = 2_147_483_647
MINSTD_MULT = 48_271


def weighted_priority_sample(
    ds,
    id_col: str,
    weight_col: str,
    k: int,
    keep_cols: "Sequence[str]" = (),
):
    """Deterministic weight-proportional sample WITHOUT replacement: the
    ``k`` rows with the smallest ``priority = u // w``, where ``u`` is a
    MINSTD hash of the integer id (a machine-independent stand-in for a
    uniform draw) and ``w`` a positive integer weight. Integer-exact
    variant of Efraimidis–Spirakis priority sampling (their ``u**(1/w)``
    key replaced by ``u // w`` so a SQL oracle matches bit-for-bit —
    heavier rows get proportionally smaller priorities and enter the
    sample more often, and any fixed-size prefix is itself a valid sample,
    which is what reservoir/priority sampling is for).

    Scale shape: per-batch partial top-``k`` (only batches×``k`` rows
    survive the map side) → one global ``sort().limit(k)`` over that tiny
    survivor set. The corpus never shuffles; adding nodes only adds
    partials."""
    import numpy as np

    cols = [id_col, weight_col, *keep_cols]

    def partial(batch: pa.Table) -> pa.Table:
        ids = batch[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        w = batch[weight_col].to_numpy(zero_copy_only=False).astype(np.int64)
        if len(w) and w.min() <= 0:
            raise ValueError(
                "weighted_priority_sample: weights must be positive integers"
            )
        # two MINSTD steps: one step is id*48271 with NO modular wrap for
        # id < ~44k (monotone, not uniform-looking); the second multiply
        # always wraps and scrambles consecutive ids
        u = ((ids % MINSTD_MOD) * MINSTD_MULT) % MINSTD_MOD
        u = (u * MINSTD_MULT) % MINSTD_MOD
        pr = u // w
        t = batch.select(cols).append_column(
            "priority", pa.array(pr, type=pa.int64())
        )
        order = np.lexsort((ids, pr))[:k]
        return t.take(pa.array(order))

    partials = ds.map_batches(partial, batch_format="pyarrow")
    return partials.sort(["priority", id_col]).limit(k)


def grouped_topk(
    ds,
    key_col: str,
    order_col: str,
    id_col: str,
    k: int,
    descending: bool = True,
    num_buckets: int = 64,
):
    """Exact top-``k`` rows per key by ``order_col`` (ties broken by
    ``id_col`` ascending — fully deterministic, SQL ``row_number()``
    reproducible).

    Scale shape — same two-stage partial top-k as
    :func:`stratified_sample`: every batch keeps only its own top-``k`` per
    key (batches × keys_in_batch × k rows survive the map side), the
    survivors co-locate by stable key-hash bucket, and each bucket takes a
    vectorized ``groupby.head`` final top-k. No global sort operator ever
    sees more than buckets × keys × k rows; the full dataset never
    shuffles."""
    import pandas as pd

    ascending = [True, not descending, True]
    by = [key_col, order_col, id_col]

    def partial(batch: pa.Table) -> pa.Table:
        df = batch.select(by).to_pandas()
        top = (
            df.sort_values(by, ascending=ascending)
            .groupby(key_col, sort=False)
            .head(k)
        )
        return pa.Table.from_pandas(top, preserve_index=False)

    def final_bucket(block: pd.DataFrame) -> pd.DataFrame:
        return (
            block.sort_values(by, ascending=ascending)
            .groupby(key_col, sort=False)
            .head(k)[by]
        )

    partials = ds.map_batches(partial, batch_format="pyarrow")
    bucketed = bucket_by_key(partials, key_col, num_buckets)
    return (
        bucketed.groupby("_bucket")
        .map_groups(final_bucket, batch_format="pandas")
        .sort(by, descending=[False, descending, False])
    )


def heavy_hitters(
    ds,
    col: str,
    threshold: int,
    capacity: int = 4096,
    count_alias: str = "n",
):
    """EXACT frequent-item mining at sketch cost (SpaceSaving-style): items
    of ``col`` with global count ≥ ``threshold``.

    Pass 1 emits per-batch partial counts PRUNED to the top-``capacity``
    items, plus the batch's max evicted count as its error bound. An item's
    global pruned sum undercounts by at most Σ error_b, so every item with
    ``pruned_sum + Σ error_b ≥ threshold`` is a candidate — and an item
    evicted from EVERY batch has true count ≤ Σ error_b, so as long as
    ``Σ error_b < threshold`` no qualifying item can be missed (the
    SpaceSaving guarantee, data-dependent and tighter than N/capacity).
    When the bound fails the capacity was too small for this threshold and
    the function raises instead of silently under-reporting — raise
    ``capacity`` (or lower ``threshold``) and rerun. Pass 2 recounts ONLY
    the candidate set exactly (broadcast ``pc.is_in`` filter → partial
    counts) and applies the threshold. Output is exact → SQL-oracle
    comparable.

    Scale shape: shuffle volume = batches × capacity + candidate counts —
    never the full distinct-item space (the point: at 10^12 rows a full
    groupby on a high-cardinality token column is the thing to avoid)."""
    import ray

    def pruned_partial(batch: pa.Table) -> pa.Table:
        g = (
            batch.select([col])
            .group_by([col])
            .aggregate([([], "count_all")])
            .rename_columns([col, count_alias])
        )
        if g.num_rows > capacity:
            order = pc.sort_indices(
                g, sort_keys=[(count_alias, "descending"), (col, "ascending")]
            )
            kept = g.take(order[:capacity])
            evicted_max = g.take(order[capacity : capacity + 1])[count_alias][0]
            err = int(evicted_max.as_py())
        else:
            kept = g
            err = 0
        return kept.append_column(
            "_err", pa.array([err] * kept.num_rows, type=pa.int64())
        )

    partials = ds.map_batches(pruned_partial, batch_format="pyarrow").materialize()

    from ray.data.aggregate import Sum

    per_item = partials.groupby(col).aggregate(
        Sum(count_alias, alias_name=count_alias)
    )
    # total error bound = Σ over batches of that batch's max evicted count.
    # A pruned batch (err > 0) keeps EXACTLY `capacity` rows, all carrying
    # the same err — so #batches with a given err = rows(err) / capacity,
    # recovered from a tiny distinct-err aggregate.
    err_rows = partials.groupby("_err").count().to_pandas()
    total_err = int(
        sum(
            int(r["_err"]) * (int(r["count()"]) // capacity)
            for _, r in err_rows.iterrows()
            if r["_err"] > 0
        )
    )
    if total_err >= threshold:
        # an item evicted from every batch can have true count up to
        # total_err ≥ threshold yet never appear in per_item — the no-miss
        # guarantee is void. Fail loudly instead of silently dropping items.
        raise ValueError(
            "heavy_hitters: summed eviction error %d >= threshold %d — "
            "capacity %d is too small for this threshold/distribution; "
            "raise capacity" % (total_err, threshold, capacity)
        )

    cand = per_item.map_batches(
        lambda b: b.filter(
            pc.greater_equal(b[count_alias], threshold - total_err)
        ).select([col]),
        batch_format="pyarrow",
    ).to_pandas()
    if len(cand) == 0:
        import ray.data

        s = ds.schema()
        col_type = dict(zip(s.names, s.types))[col]
        return ray.data.from_arrow(
            pa.table(
                {
                    col: pa.array([], type=col_type),
                    count_alias: pa.array([], type=pa.int64()),
                }
            )
        )
    cand_ref = ray.put(pa.array(cand[col].tolist()))

    def recount(batch: pa.Table) -> pa.Table:
        wanted = ray.get(cand_ref)
        f = batch.select([col]).filter(pc.is_in(batch[col], value_set=wanted))
        g = f.group_by([col]).aggregate([([], "count_all")])
        return g.rename_columns([col, count_alias])

    counts = ds.map_batches(recount, batch_format="pyarrow")
    exact = tree_sum(counts, [col], [count_alias], sort_result=False)
    return exact.map_batches(
        lambda b: b.filter(pc.greater_equal(b[count_alias], threshold)),
        batch_format="pyarrow",
    ).sort(col)


def approx_distinct(
    ds,
    key_col: str,
    value_col: str,
    p: int = 14,
    alias: str = "approx_distinct",
    num_buckets: int = 64,
):
    """Approximate COUNT(DISTINCT value) per key via mergeable HyperLogLog
    sketches: one sketch per (batch, key) inside ``map_batches`` (shuffle
    volume = #batches × #keys × 2^p bytes, never rows), merged per key in a
    tiny ``map_groups``. Standard error ≈ 1.04/√2^p (~0.8% at p=14)."""
    import pandas as pd

    from ..functions.sketches import HLL, stable_hash64

    def sketch_batch(batch: pa.Table) -> pa.Table:
        keys_out, sketches = [], []
        tbl = batch.select([key_col, value_col])
        df = tbl.to_pandas()
        import pandas as pd

        for key, group in df.groupby(key_col, sort=False):
            h = HLL(p).add_strings(
                str(v) for v in group[value_col] if pd.notna(v)
            )
            keys_out.append(key)
            sketches.append(h.to_bytes())
        return pa.table(
            {
                key_col: pa.array(keys_out, type=batch[key_col].type),
                "_sketch": pa.array(sketches, type=pa.binary()),
            }
        )

    def merge_bucket(block: pd.DataFrame) -> pd.DataFrame:
        # one task per hash bucket of keys; the inner per-key merge loop is
        # sketch-object code (can't vectorize), but Ray dispatch stays
        # bounded at #buckets instead of one group per key
        from ..functions.sketches import HLL as _HLL

        keys_out, ests = [], []
        for key, group in block.groupby(key_col, sort=True):
            merged = _HLL.from_bytes(group["_sketch"].iloc[0], p)
            for raw in group["_sketch"].iloc[1:]:
                merged.merge(_HLL.from_bytes(raw, p))
            keys_out.append(key)
            ests.append(int(round(merged.estimate())))
        return pd.DataFrame({key_col: keys_out, alias: ests})

    sketches = ds.map_batches(sketch_batch, batch_format="pyarrow")
    bucketed = bucket_by_key(sketches, key_col, num_buckets)
    return (
        bucketed.groupby("_bucket")
        .map_groups(merge_bucket, batch_format="pandas")
        .sort(key_col)
    )


def approx_quantiles(
    ds,
    key_col: str,
    value_col: str,
    quantiles=(0.5, 0.9, 0.99),
    k: int = 256,
    num_buckets: int = 64,
):
    """Approximate per-key quantiles via mergeable KLL-style sketches: one
    sketch per (batch, key) → per-key merge in map_groups. Shuffle carries
    sketches only. Output: one row per key with qXX float columns (rows-only
    driver check; tolerance asserted in tests)."""
    import pandas as pd

    from ..functions.sketches import QuantileSketch

    def sketch_batch(batch: pa.Table) -> pa.Table:
        df = batch.select([key_col, value_col]).to_pandas()
        keys_out, payloads = [], []
        for key, group in df.groupby(key_col, sort=False):
            s = QuantileSketch(k).add(group[value_col].to_numpy(dtype=float))
            keys_out.append(key)
            payloads.append(s.to_payload())
        return pa.table(
            {
                key_col: pa.array(keys_out, type=batch[key_col].type),
                "_sk": pa.array(payloads, type=pa.binary()),
            }
        )

    def merge_bucket(block: pd.DataFrame) -> pd.DataFrame:
        from ..functions.sketches import QuantileSketch as _QS

        rows = {key_col: []}
        for q in quantiles:
            rows["q%02d" % int(round(q * 100))] = []
        for key, group in block.groupby(key_col, sort=True):
            merged = _QS.from_payload(group["_sk"].iloc[0], k)
            for raw in group["_sk"].iloc[1:]:
                merged.merge(_QS.from_payload(raw, k))
            rows[key_col].append(key)
            for q in quantiles:
                rows["q%02d" % int(round(q * 100))].append(merged.quantile(q))
        return pd.DataFrame(rows)

    sketches = ds.map_batches(sketch_batch, batch_format="pyarrow")
    bucketed = bucket_by_key(sketches, key_col, num_buckets)
    return (
        bucketed.groupby("_bucket")
        .map_groups(merge_bucket, batch_format="pandas")
        .sort(key_col)
    )


def turn_histogram(
    ds,
    country_col: str = "country",
    turn_col: str = "turn_idx",
    bucket_width: int = 4,
    count_alias: str = "n",
    sort_result: bool = False,
):
    """Per-country histogram of turn_idx buckets (north_star): floor-divide
    turn_idx into buckets inside map_batches, then the partial-count path."""
    import pyarrow.compute as pc

    def bucketize(batch: pa.Table) -> pa.Table:
        bucket = pc.cast(
            pc.floor(pc.divide(pc.cast(batch[turn_col], pa.float64()), float(bucket_width))),
            pa.int32(),
        )
        return batch.select([country_col]).append_column("turn_bucket", bucket)

    bucketed = ds.map_batches(bucketize, batch_format="pyarrow")
    return grouped_counts(
        bucketed, [country_col, "turn_bucket"], count_alias, sort_result=sort_result
    )


def grouped_mode(
    ds,
    key_col: str,
    value_col: str,
    num_buckets: int = 32,
    mode_alias: str = "mode_value",
    count_alias: str = "n",
):
    """Exact per-key mode (most frequent value; ties broken by smallest
    value — SQL ``row_number() OVER (ORDER BY count DESC, value)``
    reproducible).

    Scale shape: each batch collapses to its distinct (key, value) partial
    counts map-side, the partials co-locate by stable key-hash bucket, and
    each bucket resolves its keys' argmax in one vectorized pass. Shuffle
    volume = distinct (key, value) pairs across batches, never rows; a hot
    key costs one task |distinct values for that key|."""
    import pandas as pd

    def partial(batch: pa.Table) -> pa.Table:
        return (
            batch.select([key_col, value_col])
            .group_by([key_col, value_col])
            .aggregate([([], "count_all")])
            .rename_columns([key_col, value_col, count_alias])
        )

    partials = ds.map_batches(partial, batch_format="pyarrow")
    bucketed = bucket_by_key(partials, key_col, num_buckets)

    def final_bucket(block: pd.DataFrame) -> pd.DataFrame:
        # dropna=False: the Arrow partials KEEP null groups (SQL GROUP BY
        # semantics) — pandas' default would silently drop a key whose
        # mode is NULL, or a NULL key partition
        g = block.groupby(
            [key_col, value_col], as_index=False, dropna=False
        )[count_alias].sum()
        # NaN sorts last in pandas, matching DuckDB's ASC NULLS LAST
        g = g.sort_values(
            [key_col, count_alias, value_col], ascending=[True, False, True]
        )
        top = g.groupby(key_col, sort=False, dropna=False).head(1)
        return top.rename(columns={value_col: mode_alias})[
            [key_col, mode_alias, count_alias]
        ]

    def final_sort(block: pd.DataFrame) -> pd.DataFrame:
        # pandas masks missing keys before comparing (NULLS LAST, matching
        # DuckDB ASC); Ray's sort operator would numpy-compare NaN against
        # strings and raise — and the result is only |keys| rows anyway
        return block.sort_values(key_col, na_position="last").reset_index(
            drop=True
        )

    return (
        bucketed.groupby("_bucket")
        .map_groups(final_bucket, batch_format="pandas")
        .repartition(1)
        .map_batches(final_sort, batch_format="pandas", batch_size=None)
    )


def sigma_outliers(
    ds,
    key_col: str,
    id_col: str,
    value_col: str,
    k_sigma: int = 3,
    num_buckets: int = 16,
):
    """Per-key k-sigma outlier rows, integer-exact at any scale: flag row x
    iff (n*x - s)^2 > k^2 * (n*q - s^2) over the key's integer-milli values
    (population variance cross-multiplied — the mean and sigma never
    materialize as floats, so the result is bit-identical to a HUGEINT SQL
    oracle).

    Scale shape:
      1. each batch collapses to per-key (n, sum, sumsq) partials map-side;
      2. partials combine per key-hash bucket in PYTHON-INT arithmetic
         (object dtype) — sum-of-squares at fleet scale overflows int64,
         the exchange is only #batches x #keys rows so the big-int combine
         is free;
      3. the tiny per-key moment table reaches the driver, which derives
         closed integer bounds via isqrt: flag iff x >= hi or x <= lo where
         hi = (s + r)//n + 1, lo = (s - r - 1)//n, r = isqrt(k^2*(n*q - s^2))
         (exact: for integers, d^2 > R  <=>  |d| > isqrt(R));
      4. the bounds broadcast into one vectorized compare per batch — the
         corpus itself never shuffles."""
    import math

    import numpy as np
    import pandas as pd

    def to_milli(batch: pa.Table) -> pa.Table:
        v = pc.cast(pc.floor(pc.multiply(batch[value_col], 1000.0)), pa.int64())
        return pa.table(
            {id_col: batch[id_col], key_col: batch[key_col], "value_milli": v}
        )

    # two STREAMING passes over the (column-pruned) source — same
    # discipline as kmeans/quantize: re-reading beats pinning the whole
    # corpus in the object store with a mid-pipeline materialize()
    milli = ds.map_batches(to_milli, batch_format="pyarrow")

    def moment_partial(batch: pa.Table) -> pa.Table:
        df = batch.select([key_col, "value_milli"]).to_pandas()
        # object dtype BEFORE squaring: v^2 alone can overflow int64
        v = df["value_milli"].astype(object)
        g = pd.DataFrame(
            {key_col: df[key_col], "v": v, "v2": v * v}
        ).groupby(key_col, as_index=False)
        out = g.agg(n=("v", "size"), s=("v", "sum"), q=("v2", "sum"))
        return pa.table(
            {
                key_col: pa.array(out[key_col]),
                "n": pa.array(out["n"].astype(np.int64), type=pa.int64()),
                # strings carry the unbounded ints through the exchange
                "s": pa.array(out["s"].map(str), type=pa.string()),
                "q": pa.array(out["q"].map(str), type=pa.string()),
            }
        )

    partials = milli.map_batches(moment_partial, batch_format="pyarrow")
    bucketed = bucket_by_key(partials, key_col, num_buckets)

    def combine_bucket(block: pd.DataFrame) -> pd.DataFrame:
        g = block.groupby(key_col, as_index=False)
        out = g.agg(
            n=("n", "sum"),
            s=("s", lambda c: str(sum(int(x) for x in c))),
            q=("q", lambda c: str(sum(int(x) for x in c))),
        )
        return out

    moments = (
        bucketed.groupby("_bucket")
        .map_groups(combine_bucket, batch_format="pandas")
        .to_pandas()
    )

    bounds = {}
    for _, row in moments.iterrows():
        n, s, q = int(row["n"]), int(row["s"]), int(row["q"])
        r = math.isqrt(k_sigma * k_sigma * (n * q - s * s))
        hi = (s + r) // n + 1          # x >= hi  <=>  n*x - s >  r
        lo = (s - r - 1) // n          # x <= lo  <=>  n*x - s < -r
        bounds[row[key_col]] = (lo, hi)

    keys = list(bounds)
    key_set = pa.array(keys)
    lo_arr = np.array([bounds[k][0] for k in keys], dtype=np.int64)
    hi_arr = np.array([bounds[k][1] for k in keys], dtype=np.int64)

    def flag(batch: pa.Table) -> pa.Table:
        kidx_arr = pc.index_in(batch[key_col], value_set=key_set)
        seen = pc.is_valid(kidx_arr).to_numpy(zero_copy_only=False)
        kidx = pc.fill_null(kidx_arr, 0).to_numpy(zero_copy_only=False)
        x = batch["value_milli"].to_numpy(zero_copy_only=False)
        mask = seen & ((x <= lo_arr[kidx]) | (x >= hi_arr[kidx]))
        return batch.filter(pa.array(mask))

    return milli.map_batches(flag, batch_format="pyarrow").sort(id_col)


def winsorize_values(
    ds,
    key_col: str,
    id_col: str,
    value_col: str,
    p_lo: float = 0.05,
    p_hi: float = 0.95,
    num_buckets: int = 32,
):
    """Per-key percentile winsorization (training-data value clipping):
    every row's integer-milli value clips into its key's exact
    [quantile_disc(p_lo), quantile_disc(p_hi)] band.

    Exact quantiles WITHOUT co-locating a key's rows: quantile_disc over
    a multiset is a function of the (value → count) histogram, so
      1. per-batch (key, value) partial counts → key-bucket combine —
         shuffle = distinct pairs, a hot key costs |distinct values|;
      2. per key: cumulative counts + one searchsorted give the element
         at ceil(n·p)−1 (DuckDB's quantile_disc convention, same as
         q_exact_value_quantiles);
      3. the |keys|-sized bounds broadcast into one vectorized clip per
         batch — rows never shuffle."""
    import numpy as np
    import pandas as pd

    def to_milli(batch: pa.Table) -> pa.Table:
        v = pc.cast(pc.floor(pc.multiply(batch[value_col], 1000.0)), pa.int64())
        return pa.table(
            {id_col: batch[id_col], key_col: batch[key_col], "value_milli": v}
        )

    # two streaming passes, not a mid-pipeline materialize (see
    # sigma_outliers)
    milli = ds.map_batches(to_milli, batch_format="pyarrow")

    def pair_partial(batch: pa.Table) -> pa.Table:
        return (
            batch.select([key_col, "value_milli"])
            .group_by([key_col, "value_milli"])
            .aggregate([([], "count_all")])
            .rename_columns([key_col, "v", "cnt"])
        )

    def bounds_bucket(block: pd.DataFrame) -> pd.DataFrame:
        out = []
        for key, g in block.groupby(key_col, sort=False):
            g = g.groupby("v", as_index=False)["cnt"].sum().sort_values("v")
            vals = g["v"].to_numpy(dtype=np.int64)
            cs = np.cumsum(g["cnt"].to_numpy(dtype=np.int64))
            n = int(cs[-1])
            row = {key_col: key}
            for p, name in ((p_lo, "lo"), (p_hi, "hi")):
                idx = min(n - 1, max(0, int(np.ceil(n * p)) - 1))
                row[name] = int(vals[np.searchsorted(cs, idx, side="right")])
            out.append(row)
        return pd.DataFrame(out, columns=[key_col, "lo", "hi"])

    bounds = (
        bucket_by_key(
            milli.map_batches(pair_partial, batch_format="pyarrow"),
            key_col,
            num_buckets,
        )
        .groupby("_bucket")
        .map_groups(bounds_bucket, batch_format="pandas")
        .to_pandas()
    )

    key_set = pa.array(list(bounds[key_col]))
    lo_arr = bounds["lo"].to_numpy(dtype=np.int64)
    hi_arr = bounds["hi"].to_numpy(dtype=np.int64)

    def clip(batch: pa.Table) -> pa.Table:
        kidx_arr = pc.index_in(batch[key_col], value_set=key_set)
        # drop rows whose key has no bounds (null / unseen keys): the SQL
        # oracle's inner JOIN q USING(key) excludes them too — without
        # this mask a null-key row would clip into key[0]'s band
        seen = pc.is_valid(kidx_arr)
        kidx = pc.fill_null(kidx_arr, 0).to_numpy(zero_copy_only=False)
        x = batch["value_milli"].to_numpy(zero_copy_only=False)
        clipped = np.minimum(np.maximum(x, lo_arr[kidx]), hi_arr[kidx])
        return pa.table(
            {
                id_col: batch[id_col],
                key_col: batch[key_col],
                "x_wins": pa.array(clipped, type=pa.int64()),
            }
        ).filter(seen)

    return milli.map_batches(clip, batch_format="pyarrow").sort(id_col)


def grouped_trend(
    ds,
    key_col: str,
    x_col: str,
    y_col: str,
    x_base: int = 1_600_000_000_000_000,
    num_buckets: int = 16,
):
    """Per-key OLS slope of y over x as an EXACT rational: emits
    slope_num = n·Σxy − Σx·Σy and slope_den = n·Σx² − (Σx)² as decimal
    strings — drift/trend detection with no float summation anywhere, so
    a HUGEINT SQL oracle hash-matches. x is rebased by ``x_base`` (both
    engines) to keep the oracle inside int128; the engine itself is
    overflow-free (Python ints ride the exchange as strings, exactly the
    :func:`sigma_outliers` moment discipline)."""
    import pandas as pd

    def moment_partial(batch: pa.Table) -> pa.Table:
        xs = batch[x_col].to_numpy(zero_copy_only=False)
        ys = batch[y_col].to_numpy(zero_copy_only=False)
        df = pd.DataFrame(
            {
                key_col: batch[key_col].to_pandas(),
                "x": pd.Series(xs - x_base, dtype="object"),
                "y": pd.Series(ys, dtype="object"),
            }
        )
        df["xy"] = df["x"] * df["y"]
        df["xx"] = df["x"] * df["x"]
        g = df.groupby(key_col, as_index=False).agg(
            n=("x", "size"), sx=("x", "sum"), sy=("y", "sum"),
            sxy=("xy", "sum"), sxx=("xx", "sum"),
        )
        return pa.table(
            {
                key_col: pa.array(g[key_col]),
                "n": pa.array(g["n"].astype("int64"), type=pa.int64()),
                "sx": pa.array(g["sx"].map(str), type=pa.string()),
                "sy": pa.array(g["sy"].map(str), type=pa.string()),
                "sxy": pa.array(g["sxy"].map(str), type=pa.string()),
                "sxx": pa.array(g["sxx"].map(str), type=pa.string()),
            }
        )

    def combine_bucket(block: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for key, g in block.groupby(key_col, sort=False):
            n = int(g["n"].sum())
            sx = sum(int(v) for v in g["sx"])
            sy = sum(int(v) for v in g["sy"])
            sxy = sum(int(v) for v in g["sxy"])
            sxx = sum(int(v) for v in g["sxx"])
            rows.append(
                {
                    key_col: key,
                    "n": n,
                    "slope_num": str(n * sxy - sx * sy),
                    "slope_den": str(n * sxx - sx * sx),
                }
            )
        return pd.DataFrame(
            rows, columns=[key_col, "n", "slope_num", "slope_den"]
        )

    partials = ds.map_batches(moment_partial, batch_format="pyarrow")
    return (
        bucket_by_key(partials, key_col, num_buckets)
        .groupby("_bucket")
        .map_groups(combine_bucket, batch_format="pandas")
        .sort(key_col)
    )
