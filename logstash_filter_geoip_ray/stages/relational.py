"""Relational rollup operators over the TPC-H-ish tables: conditional
aggregation (pivot), the wide Q1-style pricing summary, and a multiway-join
revenue rollup (fact → fact join chain → dimension broadcast).

All money/quantity arithmetic runs in integer milli/micro units with
per-row floor division, so every result is hash-exact against the DuckDB
oracle (float summation order never enters). Partitioning assumptions are
the repo's standard ones: partial aggregation inside ``map_batches`` before
any exchange, ``hash_join`` buckets sized so one bucket fits a task, and
dimension tables (nation × region, ≤ a few hundred rows) broadcast once."""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

#: fixed event-type vocabulary of the synthetic events table — the pivot's
#: output columns. A type outside this list still counts toward n_total
#: (both engines), it just gets no dedicated column.
EVENT_TYPES = ("click", "error", "purchase", "signup", "view")

#: TPC-H Q1's cutoff: shipdate <= 1998-12-01 - 90 days
PRICING_CUTOFF = "1998-09-02"


def hourly_type_pivot(ds, ts_col: str = "ts", type_col: str = "event_type"):
    """Conditional aggregation / pivot: events per (hour-of-day × type),
    one row per hour with one count column per event type plus the total.

    Scale shape: the tall (hour, type) partial count is built per batch (a
    batch collapses to ≤ 24 × |types| rows map-side), tree-combined, and
    only the ≤ 24 × |types| aggregate ever pivots — the wide layout is a
    final single-block reshape, never a shuffle."""
    from .aggregate import _partial_counts, tree_sum

    def add_hour(batch: pa.Table) -> pa.Table:
        epoch_us = batch[ts_col].cast(pa.timestamp("us")).cast(pa.int64())
        h_all = pc.divide(epoch_us, pa.scalar(3_600_000_000, type=pa.int64()))
        hour = pc.subtract(
            h_all, pc.multiply(pc.divide(h_all, pa.scalar(24, type=pa.int64())), 24)
        )
        return pa.table({"hour": hour, type_col: batch[type_col]})

    tall = ds.map_batches(add_hour, batch_format="pyarrow").map_batches(
        _partial_counts(["hour", type_col], "n"), batch_format="pyarrow"
    )
    agg = tree_sum(tall, ["hour", type_col], ["n"], sort_result=False)

    def pivot(block: pd.DataFrame) -> pd.DataFrame:
        wide = block.pivot_table(
            index="hour", columns=type_col, values="n", aggfunc="sum", fill_value=0
        ).reindex(columns=list(EVENT_TYPES), fill_value=0)
        out = pd.DataFrame({"hour": wide.index.to_numpy()})
        for t in EVENT_TYPES:
            out[f"n_{t}"] = wide[t].to_numpy().astype(np.int64)
        # n_total counts EVERY event in the hour, listed type or not
        totals = block.groupby("hour", sort=True)["n"].sum()
        out["n_total"] = totals.loc[wide.index].to_numpy().astype(np.int64)
        return out.sort_values("hour").reset_index(drop=True)

    # tree_sum returns one small block, so the pivot is a single-task reshape
    return agg.map_batches(pivot, batch_format="pandas", batch_size=None)


def _milli(col, scale: float = 1000.0) -> pa.Array:
    return pc.cast(pc.floor(pc.multiply(col, scale)), pa.int64())


def pricing_summary(sf_dir: str):
    """TPC-H-Q1-style wide aggregate over lineitem: per (returnflag,
    linestatus) the qty / base-price / discounted-price / charge sums and
    the row count, at shipdate <= PRICING_CUTOFF.

    Exactness: qty/price/disc/tax become integer milli at the first map;
    disc_price = price_milli·(1000-disc_milli) // 1000 and charge =
    price_milli·(1000-disc_milli)·(1000+tax_milli) // 10^6 floor per ROW
    (mirrored verbatim in the oracle), so sums are int64-exact. Per-row
    intermediates stay ≤ ~10^14, far inside int64.

    Scale shape: the shipdate predicate is pushed into the parquet read
    (row-group pruning); only 6 columns leave storage; a batch collapses to
    ≤ |rf×ls| = 6 partial rows before the tree combine."""
    import os

    import pyarrow.dataset as pads
    import ray.data

    from .aggregate import tree_sum

    cutoff = np.datetime64(PRICING_CUTOFF).astype("datetime64[us]")
    ds = ray.data.read_parquet(
        os.path.join(sf_dir, "lineitem.parquet"),
        columns=[
            "l_returnflag",
            "l_linestatus",
            "l_quantity",
            "l_extendedprice",
            "l_discount",
            "l_tax",
        ],
        filter=(pads.field("l_shipdate") <= pa.scalar(cutoff)),
    )

    def partial(batch: pa.Table) -> pa.Table:
        qty = _milli(batch["l_quantity"])
        price = _milli(batch["l_extendedprice"]).to_numpy()
        disc = _milli(batch["l_discount"]).to_numpy()
        tax = _milli(batch["l_tax"]).to_numpy()
        disc_price_micro = price * (1000 - disc)
        work = pa.table(
            {
                "l_returnflag": batch["l_returnflag"],
                "l_linestatus": batch["l_linestatus"],
                "sum_qty_milli": qty,
                "sum_base_milli": pa.array(price, type=pa.int64()),
                "sum_disc_milli": pa.array(disc_price_micro // 1000, type=pa.int64()),
                "sum_charge_milli": pa.array(
                    (disc_price_micro * (1000 + tax)) // 1_000_000, type=pa.int64()
                ),
                "n": pa.array(np.ones(batch.num_rows, dtype=np.int64)),
            }
        )
        g = work.group_by(["l_returnflag", "l_linestatus"]).aggregate(
            [
                ("sum_qty_milli", "sum"),
                ("sum_base_milli", "sum"),
                ("sum_disc_milli", "sum"),
                ("sum_charge_milli", "sum"),
                ("n", "sum"),
            ]
        )
        return g.rename_columns(
            [
                "l_returnflag",
                "l_linestatus",
                "sum_qty_milli",
                "sum_base_milli",
                "sum_disc_milli",
                "sum_charge_milli",
                "n",
            ]
        )

    partials = ds.map_batches(partial, batch_format="pyarrow")
    return tree_sum(
        partials,
        ["l_returnflag", "l_linestatus"],
        ["sum_qty_milli", "sum_base_milli", "sum_disc_milli", "sum_charge_milli", "n"],
        sort_result=True,
    )


def revenue_rollup(sf_dir: str, num_buckets: int = 32):
    """Multiway-join revenue rollup: lineitem ⋈ orders ⋈ customer ⋈ nation
    ⋈ region → revenue (Σ extendedprice·(1-discount), integer micro) and
    item count per (region, nation).

    Scale shape — the canonical star-ish join chain at 100 TB:
      - lineitem (largest fact) pre-aggregates per l_orderkey inside each
        batch BEFORE anything moves: the exchange ships (orderkey,
        rev_micro, n_items) partials, never raw line items.
      - two partitioned ``hash_join``s co-locate orderkey then custkey
        buckets (both sides large — no broadcast); partial re-aggregation
        between them keeps shuffle volume at |orders| then |customers|.
      - nation × region (≤ a few hundred rows for any real deployment) is
        pre-merged driver-side and broadcast once via ``ray.put``.
      - the final (region, nation) aggregate is a tiny tree combine."""
    import os

    import pyarrow.parquet as pq
    import ray.data

    from .aggregate import tree_sum
    from .joins import broadcast_join, hash_join

    li = ray.data.read_parquet(
        os.path.join(sf_dir, "lineitem.parquet"),
        columns=["l_orderkey", "l_extendedprice", "l_discount"],
    )

    def li_partial(batch: pa.Table) -> pa.Table:
        price = _milli(batch["l_extendedprice"]).to_numpy()
        disc = _milli(batch["l_discount"]).to_numpy()
        work = pa.table(
            {
                "l_orderkey": batch["l_orderkey"],
                "rev_micro": pa.array(price * (1000 - disc), type=pa.int64()),
                "n_items": pa.array(np.ones(batch.num_rows, dtype=np.int64)),
            }
        )
        g = work.group_by(["l_orderkey"]).aggregate(
            [("rev_micro", "sum"), ("n_items", "sum")]
        )
        return g.rename_columns(["l_orderkey", "rev_micro", "n_items"])

    li_agg = li.map_batches(li_partial, batch_format="pyarrow")

    orders = ray.data.read_parquet(
        os.path.join(sf_dir, "orders.parquet"), columns=["o_orderkey", "o_custkey"]
    )
    with_cust = hash_join(
        orders, li_agg, "o_orderkey", "l_orderkey", num_buckets=num_buckets
    )

    def cust_partial(batch: pa.Table) -> pa.Table:
        g = batch.group_by(["o_custkey"]).aggregate(
            [("rev_micro", "sum"), ("n_items", "sum")]
        )
        return g.rename_columns(["o_custkey", "rev_micro", "n_items"])

    # materialize: the next hash_join's schema() peek would otherwise
    # EXECUTE the orders⋈lineitem exchange once for the schema and the tag
    # stage would run it again (Ray 2.49 does not cache peeked plans)
    cust_agg = with_cust.map_batches(
        cust_partial, batch_format="pyarrow"
    ).materialize()

    customer = ray.data.read_parquet(
        os.path.join(sf_dir, "customer.parquet"), columns=["c_custkey", "c_nationkey"]
    )
    with_nation = hash_join(
        customer, cust_agg, "c_custkey", "o_custkey", num_buckets=num_buckets
    )

    nation = pq.read_table(
        os.path.join(sf_dir, "nation.parquet"),
        columns=["n_nationkey", "n_name", "n_regionkey"],
    ).to_pandas()
    region = pq.read_table(
        os.path.join(sf_dir, "region.parquet"), columns=["r_regionkey", "r_name"]
    ).to_pandas()
    dim = pa.Table.from_pandas(
        nation.merge(region, left_on="n_regionkey", right_on="r_regionkey")[
            ["n_nationkey", "n_name", "r_name"]
        ],
        preserve_index=False,
    )
    named = broadcast_join(
        with_nation.select_columns(["c_nationkey", "rev_micro", "n_items"]),
        dim,
        "c_nationkey",
        "n_nationkey",
        how="inner",
    )
    return tree_sum(
        named.select_columns(["r_name", "n_name", "rev_micro", "n_items"]),
        ["r_name", "n_name"],
        ["rev_micro", "n_items"],
        sort_result=True,
    )


def _lineitem_rev_partials(sf_dir: str, key: str):
    """lineitem pre-aggregated per ``key`` inside each batch: (key,
    rev_micro, n_items) partials — the map-side combiner every fact-table
    join in this module starts from (the exchange never ships raw line
    items)."""
    import os

    import ray.data

    li = ray.data.read_parquet(
        os.path.join(sf_dir, "lineitem.parquet"),
        columns=[key, "l_extendedprice", "l_discount"],
    )

    def partial(batch: pa.Table) -> pa.Table:
        price = _milli(batch["l_extendedprice"]).to_numpy()
        disc = _milli(batch["l_discount"]).to_numpy()
        work = pa.table(
            {
                key: batch[key],
                "rev_micro": pa.array(price * (1000 - disc), type=pa.int64()),
                "n_items": pa.array(np.ones(batch.num_rows, dtype=np.int64)),
            }
        )
        g = work.group_by([key]).aggregate([("rev_micro", "sum"), ("n_items", "sum")])
        return g.rename_columns([key, "rev_micro", "n_items"])

    return li.map_batches(partial, batch_format="pyarrow")


def promo_revenue(sf_dir: str, num_buckets: int = 32):
    """Q14-flavored revenue mix: revenue + item count per part type
    (PROMO vs the rest). lineitem pre-aggregates per partkey map-side,
    then ONE partitioned hash_join against part (both sides large at fleet
    scale — part is a 200M-row table at TPC-H SF100k, no broadcast) and a
    tiny per-type tree combine."""
    import os

    import ray.data

    from .aggregate import tree_sum
    from .joins import hash_join

    li_agg = _lineitem_rev_partials(sf_dir, "l_partkey")
    part = ray.data.read_parquet(
        os.path.join(sf_dir, "part.parquet"), columns=["p_partkey", "p_type"]
    )
    joined = hash_join(part, li_agg, "p_partkey", "l_partkey", num_buckets=num_buckets)
    return tree_sum(
        joined.select_columns(["p_type", "rev_micro", "n_items"]),
        ["p_type"],
        ["rev_micro", "n_items"],
        sort_result=True,
    )


def supplier_revenue(sf_dir: str, top_k: int = 10, num_buckets: int = 16):
    """Q15-flavored top suppliers: the ``top_k`` suppliers by lineitem
    revenue (ties broken by s_suppkey asc). Same shape as promo_revenue
    with a supplier join, a per-supplier combine, and a final sort+limit
    over only |suppliers| rows."""
    import os

    import ray.data

    from .aggregate import tree_sum
    from .joins import hash_join

    li_agg = _lineitem_rev_partials(sf_dir, "l_suppkey")
    supp = ray.data.read_parquet(
        os.path.join(sf_dir, "supplier.parquet"), columns=["s_suppkey", "s_name"]
    )
    joined = hash_join(supp, li_agg, "s_suppkey", "l_suppkey", num_buckets=num_buckets)
    per_supp = tree_sum(
        joined.select_columns(["s_suppkey", "s_name", "rev_micro", "n_items"]),
        ["s_suppkey", "s_name"],
        ["rev_micro", "n_items"],
        sort_result=False,
    )
    return per_supp.sort(["rev_micro", "s_suppkey"], descending=[True, False]).limit(
        top_k
    )


#: retention split point for the synthetic January-2024 events table — late
#: enough in the month that a real churned cohort exists at every SF
RETENTION_CUTOFF = "2024-01-29"


def retention_cohorts(sf_dir: str, cutoff: str = RETENTION_CUTOFF,
                      num_buckets: int = 32):
    """Retention / set-op cohort classify: every (user, event_type) entity
    becomes 'retained' (active on both sides of ``cutoff``), 'churned'
    (before only) or 'new' (after only) — INTERSECT / EXCEPT over two
    activity sets, computed as one grouped flag-OR instead of three
    distinct-shuffles.

    Scale shape: a batch collapses to distinct (user, type, f_before,
    f_after) flag rows map-side (group_by max); user-hash buckets combine
    the flags — the only exchange, sized by |entities|, never |events| —
    then classify vectorized and count per (event_type, cohort); the final
    combine is ≤ |types|·3 rows."""
    import os

    import ray.data

    from .aggregate import bucket_by_key, tree_sum

    cutoff_us = int(
        np.datetime64(cutoff).astype("datetime64[us]").astype("int64")
    )

    ds = ray.data.read_parquet(
        os.path.join(sf_dir, "events.parquet"),
        columns=["user_id", "event_type", "ts"],
    )

    def flag_partial(batch: pa.Table) -> pa.Table:
        ts_us = batch["ts"].cast(pa.timestamp("us")).cast(pa.int64())
        before = pc.cast(pc.less(ts_us, cutoff_us), pa.int64())
        work = pa.table(
            {
                "user_id": batch["user_id"],
                "event_type": batch["event_type"],
                "f_before": before,
                "f_after": pc.subtract(pa.scalar(1, type=pa.int64()), before),
            }
        )
        g = work.group_by(["user_id", "event_type"]).aggregate(
            [("f_before", "max"), ("f_after", "max")]
        )
        return g.rename_columns(["user_id", "event_type", "f_before", "f_after"])

    partials = ds.map_batches(flag_partial, batch_format="pyarrow")
    bucketed = bucket_by_key(partials, "user_id", num_buckets)

    def classify(block: pd.DataFrame) -> pd.DataFrame:
        # dropna=False: a null user/type is a real entity — the Arrow-side
        # flag partial and the SQL oracle's GROUP BY both keep null groups
        g = (
            block.groupby(["user_id", "event_type"], sort=False, dropna=False)
            .agg(f_before=("f_before", "max"), f_after=("f_after", "max"))
            .reset_index()
        )
        fb = g["f_before"].to_numpy() > 0
        fa = g["f_after"].to_numpy() > 0
        cohort = np.where(fb & fa, "retained", np.where(fb, "churned", "new"))
        out = pd.DataFrame({"event_type": g["event_type"], "cohort": cohort})
        c = (
            out.groupby(["event_type", "cohort"], sort=False, dropna=False)
            .size()
            .reset_index(name="n")
        )
        c["n"] = c["n"].astype(np.int64)
        return c

    counts = bucketed.groupby("_bucket").map_groups(
        classify, batch_format="pandas"
    )
    return tree_sum(counts, ["event_type", "cohort"], ["n"], sort_result=True)


def above_average_orders(sf_dir: str, num_buckets: int = 16):
    """Correlated-scalar-subquery filter (SQL ``WHERE price > (SELECT
    avg(...) FROM orders o2 WHERE o2.custkey = o.custkey)``): orders priced
    above their own customer's average, counted + revenue-summed per order
    priority.

    Exactness: the average never materializes — the filter cross-multiplies
    (price_milli · n_cust > sum_milli), so both engines compare integers.

    Scale shape: per-custkey (n, sum) partials combine inside each batch,
    finalize in custkey-hash buckets (exchange = |customers| rows), then
    ONE partitioned hash_join back to orders (both sides large — no
    broadcast) feeds a vectorized filter and a tiny per-priority combine."""
    import os

    import ray.data

    from .aggregate import bucket_by_key, tree_sum
    from .joins import hash_join

    orders_cols = ["o_custkey", "o_totalprice", "o_orderpriority"]

    def cust_partial(batch: pa.Table) -> pa.Table:
        work = pa.table(
            {
                "ac_custkey": batch["o_custkey"],
                "c_n": pa.array(np.ones(batch.num_rows, dtype=np.int64)),
                "c_s": _milli(batch["o_totalprice"]),
            }
        )
        g = work.group_by(["ac_custkey"]).aggregate(
            [("c_n", "sum"), ("c_s", "sum")]
        )
        return g.rename_columns(["ac_custkey", "c_n", "c_s"])

    def cust_final(block: pd.DataFrame) -> pd.DataFrame:
        g = (
            block.groupby("ac_custkey", sort=False)
            .agg(c_n=("c_n", "sum"), c_s=("c_s", "sum"))
            .reset_index()
        )
        return g

    # materialize the |customers|-sized aggregate: hash_join's schema()
    # peek would otherwise EXECUTE this shuffle once for the schema and the
    # tag stage would run it again (Ray 2.49 does not cache peeked plans)
    cust_agg = (
        bucket_by_key(
            ray.data.read_parquet(
                os.path.join(sf_dir, "orders.parquet"),
                columns=["o_custkey", "o_totalprice"],
            ).map_batches(cust_partial, batch_format="pyarrow"),
            "ac_custkey",
            num_buckets,
        )
        .groupby("_bucket")
        .map_groups(cust_final, batch_format="pandas")
        .materialize()
    )

    orders = ray.data.read_parquet(
        os.path.join(sf_dir, "orders.parquet"), columns=orders_cols
    )
    joined = hash_join(
        orders, cust_agg, "o_custkey", "ac_custkey", num_buckets=num_buckets
    )

    def filter_partial(batch: pa.Table) -> pa.Table:
        price_milli = _milli(batch["o_totalprice"]).to_numpy()
        c_n = batch["c_n"].to_numpy()
        c_s = batch["c_s"].to_numpy()
        keep = price_milli * c_n > c_s
        work = pa.table(
            {
                "o_orderpriority": batch["o_orderpriority"],
                "_pm": pa.array(price_milli, type=pa.int64()),
                "_one": pa.array(np.ones(batch.num_rows, dtype=np.int64)),
            }
        ).filter(pa.array(keep))
        g = work.group_by(["o_orderpriority"]).aggregate(
            [("_one", "sum"), ("_pm", "sum")]
        )
        return g.rename_columns(["o_orderpriority", "n", "sum_price_milli"])

    partials = joined.map_batches(filter_partial, batch_format="pyarrow")
    return tree_sum(
        partials, ["o_orderpriority"], ["n", "sum_price_milli"], sort_result=True
    )


def priority_rollup(sf_dir: str, cube: bool = False):
    """Grouping-sets aggregate: order count + price sum per (priority,
    status), per priority subtotal, and grand total — subtotal rows marked
    'ALL' (SQL ``GROUP BY ROLLUP(priority, status)`` with COALESCE
    markers). ``cube=True`` adds the per-STATUS subtotal level too —
    ``GROUP BY CUBE``, all 2² grouping sets.

    Scale shape: only the FINEST level ever aggregates distributed (a batch
    collapses to ≤ |priorities|·|statuses| partial rows); the coarser
    rollup/cube levels derive from that tiny table in the one final block —
    never a second pass over the data."""
    import os

    import ray.data

    from .aggregate import tree_sum

    ds = ray.data.read_parquet(
        os.path.join(sf_dir, "orders.parquet"),
        columns=["o_orderpriority", "o_orderstatus", "o_totalprice"],
    )

    def partial(batch: pa.Table) -> pa.Table:
        work = pa.table(
            {
                "pri": batch["o_orderpriority"],
                "status": batch["o_orderstatus"],
                "n": pa.array(np.ones(batch.num_rows, dtype=np.int64)),
                "sum_price_milli": _milli(batch["o_totalprice"]),
            }
        )
        g = work.group_by(["pri", "status"]).aggregate(
            [("n", "sum"), ("sum_price_milli", "sum")]
        )
        return g.rename_columns(["pri", "status", "n", "sum_price_milli"])

    finest = tree_sum(
        ds.map_batches(partial, batch_format="pyarrow"),
        ["pri", "status"],
        ["n", "sum_price_milli"],
        sort_result=False,
    )

    def rollup(block: pd.DataFrame) -> pd.DataFrame:
        lvl1 = (
            block.groupby("pri", sort=False)
            .agg(n=("n", "sum"), sum_price_milli=("sum_price_milli", "sum"))
            .reset_index()
        )
        lvl1["status"] = "ALL"
        lvl2 = pd.DataFrame(
            {
                "pri": ["ALL"],
                "status": ["ALL"],
                "n": [block["n"].sum()],
                "sum_price_milli": [block["sum_price_milli"].sum()],
            }
        )
        pieces = [block, lvl1[["pri", "status", "n", "sum_price_milli"]], lvl2]
        if cube:  # the (ALL, status) grouping set completes the 2² cube
            lvl_s = (
                block.groupby("status", sort=False)
                .agg(n=("n", "sum"), sum_price_milli=("sum_price_milli", "sum"))
                .reset_index()
            )
            lvl_s["pri"] = "ALL"
            pieces.append(lvl_s[["pri", "status", "n", "sum_price_milli"]])
        out = pd.concat(pieces, ignore_index=True)
        out["n"] = out["n"].astype(np.int64)
        out["sum_price_milli"] = out["sum_price_milli"].astype(np.int64)
        return out.sort_values(["pri", "status"]).reset_index(drop=True)

    # tree_sum returns one block, so the rollup is a single-block reshape
    return finest.map_batches(rollup, batch_format="pandas", batch_size=None)


def part_supplier_counts(sf_dir: str, num_buckets: int = 32):
    """Q16-flavored supplier diversity: distinct suppliers per
    (p_brand, p_type, p_size) over non-PROMO parts, excluding suppliers
    with negative account balance (this schema's stand-in for Q16's
    customer-complaint comment predicate — the supplier table here has no
    comment column).

    Scale shape: lineitem collapses to per-batch DISTINCT
    (l_partkey, l_suppkey) pairs map-side, after a vectorized ``pc.is_in``
    anti-filter against the excluded supplier keys (a bounded slice of the
    supplier dimension, pulled once and shipped in the closure — never a
    shuffle). ONE partitioned ``hash_join`` against the filtered part
    projection (both sides large at fleet scale — no broadcast). The final
    COUNT(DISTINCT) co-locates each (brand, type, size) group by composite
    hash and ships only distinct (group, suppkey) quads, never lineitem
    rows; per-bucket dedup + nunique is one vectorized pandas pass."""
    import os

    import ray.data

    from .aggregate import bucket_by_key
    from .joins import hash_join

    bad = (
        ray.data.read_parquet(
            os.path.join(sf_dir, "supplier.parquet"),
            columns=["s_suppkey", "s_acctbal"],
        )
        .map_batches(
            lambda b: b.filter(pc.less(b["s_acctbal"], 0.0)).select(
                ["s_suppkey"]
            ),
            batch_format="pyarrow",
        )
        .to_pandas()  # bounded: a fraction of the supplier dimension table
    )
    bad_keys = pa.array(bad["s_suppkey"].to_numpy(), type=pa.int64())

    def distinct_pairs(batch: pa.Table) -> pa.Table:
        keep = pc.invert(
            pc.is_in(batch["l_suppkey"], value_set=bad_keys)
        )
        t = batch.filter(keep)
        return t.group_by(["l_partkey", "l_suppkey"]).aggregate([])

    pairs = ray.data.read_parquet(
        os.path.join(sf_dir, "lineitem.parquet"),
        columns=["l_partkey", "l_suppkey"],
    ).map_batches(distinct_pairs, batch_format="pyarrow")

    def part_filter(batch: pa.Table) -> pa.Table:
        return batch.filter(
            pc.invert(pc.starts_with(batch["p_type"], "PROMO"))
        )

    parts = ray.data.read_parquet(
        os.path.join(sf_dir, "part.parquet"),
        columns=["p_partkey", "p_brand", "p_type", "p_size"],
    ).map_batches(part_filter, batch_format="pyarrow")

    joined = hash_join(pairs, parts, "l_partkey", "p_partkey", num_buckets)

    def quads(batch: pa.Table) -> pa.Table:
        t = batch.select(["p_brand", "p_type", "p_size", "l_suppkey"])
        t = t.group_by(["p_brand", "p_type", "p_size", "l_suppkey"]).aggregate([])
        key = pc.binary_join_element_wise(
            t["p_brand"],
            t["p_type"],
            pc.cast(t["p_size"], pa.string()),
            "|",
        )
        return t.append_column("_gkey", key)

    def per_bucket(block: pd.DataFrame) -> pd.DataFrame:
        d = block.drop_duplicates(
            ["p_brand", "p_type", "p_size", "l_suppkey"]
        )
        g = d.groupby(["p_brand", "p_type", "p_size"], as_index=False).agg(
            supplier_cnt=("l_suppkey", "nunique")
        )
        g["supplier_cnt"] = g["supplier_cnt"].astype(np.int64)
        return g

    bucketed = bucket_by_key(
        joined.map_batches(quads, batch_format="pyarrow"), "_gkey", num_buckets
    )
    return (
        bucketed.groupby("_bucket")
        .map_groups(per_bucket, batch_format="pandas")
        .sort(["p_brand", "p_type", "p_size"])
    )


def unpivot(
    ds,
    id_cols,
    value_cols,
    var_name: str = "measure",
    value_name: str = "value",
    value_type: pa.DataType = pa.int64(),
):
    """UNPIVOT / melt: widen-to-long reshape, one output row per (input row
    × value column), with the column name in ``var_name`` and its value
    (cast to ``value_type``) in ``value_name``.

    Embarrassingly parallel — a pure per-batch reshape (one dictionary-cheap
    sub-table per value column, concatenated), no shuffle, row count grows
    by exactly ``len(value_cols)``×. The long form is what the grouped /
    windowed operators downstream consume, so at fleet scale this runs
    fused into the read."""
    value_cols = list(value_cols)
    id_cols = list(id_cols)

    def melt(batch: pa.Table) -> pa.Table:
        ids = batch.select(id_cols)
        parts = []
        for vc in value_cols:
            t = ids.append_column(
                var_name, pa.array([vc] * batch.num_rows, type=pa.string())
            )
            t = t.append_column(value_name, pc.cast(batch[vc], value_type))
            parts.append(t)
        return pa.concat_tables(parts)

    return ds.map_batches(melt, batch_format="pyarrow")


def big_part_revenue(sf_dir: str, num_buckets: int = 32):
    """Revenue per brand over a SELECTIVE part subset (p_size > 40, ~20% of
    parts), joined through :func:`stages.joins.bloom_prefilter_join`: the
    subset's keys Bloom-broadcast once and ~80% of the lineitem partials
    drop BEFORE the join exchange — the runtime-filter pattern for
    selective dimension subsets against a fact table. promo_revenue's
    integer-micro arithmetic; final exchange = |brands|-sized tree sum."""
    import os

    import ray.data

    from .aggregate import tree_sum
    from .joins import bloom_prefilter_join

    li_agg = _lineitem_rev_partials(sf_dir, "l_partkey")

    def big_parts(batch: pa.Table) -> pa.Table:
        return batch.filter(pc.greater(batch["p_size"], 40)).select(
            ["p_partkey", "p_brand"]
        )

    parts = ray.data.read_parquet(
        os.path.join(sf_dir, "part.parquet"),
        columns=["p_partkey", "p_brand", "p_size"],
    ).map_batches(big_parts, batch_format="pyarrow")
    joined = bloom_prefilter_join(
        li_agg, parts, "l_partkey", "p_partkey", num_buckets=num_buckets
    )
    return tree_sum(
        joined.select_columns(["p_brand", "rev_micro", "n_items"]),
        ["p_brand"],
        ["rev_micro", "n_items"],
        sort_result=True,
    )


# -- distributed skyline (Pareto frontier) -----------------------------------


def _skyline_kernel(batch: pa.Table, max_col: str, min_col: str) -> pa.Table:
    """Local 2-D skyline of one block, fully vectorized: a row survives iff
    no other row has ``max_col ≥`` AND ``min_col ≤`` with at least one
    strict. Two prefix-max passes over the (min asc, max desc) sort order —
    ``max_le``/``max_lt`` are the best ``max_col`` among rows at ≤ / <
    this ``min_col``; equal (max, min) twins never dominate each other, so
    exact duplicates survive together (same as SQL NOT EXISTS dominance).
    Null measures are dropped (a null never participates in dominance —
    both engines filter them identically)."""
    import numpy as np

    mask = pc.and_(
        pc.is_valid(batch[max_col]), pc.is_valid(batch[min_col])
    )
    batch = batch.filter(mask)
    if batch.num_rows == 0:
        return batch
    v = batch[max_col].to_numpy(zero_copy_only=False).astype(np.int64)
    d = batch[min_col].to_numpy(zero_copy_only=False).astype(np.int64)
    order = np.lexsort((-v, d))  # min_col asc, max_col desc
    ds_, vs = d[order], v[order]
    new = np.empty(len(ds_), dtype=bool)
    new[0] = True
    new[1:] = ds_[1:] != ds_[:-1]
    gid = np.cumsum(new) - 1
    gmax = vs[new]  # per-group max = first element (v desc within group)
    run = np.maximum.accumulate(gmax)
    before = np.concatenate(([np.iinfo(np.int64).min], run[:-1]))
    keep = ~((run[gid] > vs) | (before[gid] >= vs))
    return batch.take(pa.array(np.sort(order[keep])))


def skyline_2d(ds, max_col: str, min_col: str):
    """Distributed Pareto frontier (maximize ``max_col``, minimize
    ``min_col``): per-block local skylines → one final skyline over their
    union. Correct because the global skyline is a subset of every
    superset's skyline, so no global-skyline row can be eliminated
    locally. The exchange carries only the local frontiers — expected
    O(log n) rows per block for independent dimensions; the documented
    worst case is fully anti-correlated data where the frontier IS the
    dataset and no skyline algorithm beats a full collect."""
    local = ds.map_batches(
        lambda b: _skyline_kernel(b, max_col, min_col),
        batch_format="pyarrow",
        batch_size=None,
    )
    return local.repartition(1).map_batches(
        lambda b: _skyline_kernel(b, max_col, min_col),
        batch_format="pyarrow",
        batch_size=None,
    )


# -- Q3/Q4-flavored order analytics + OHLC / correlation moments -------------

#: Q3-style split date: orders strictly before, shipments strictly after.
#: Mid-range of the synthetic order/ship spans so both sides are populated
#: at every SF.
SHIPPING_CUTOFF = "1998-01-01"

#: Q4-flavored lateness threshold: an order is "late" when ANY of its line
#: items shipped more than this many days after the order date.
LATE_SHIP_DAYS = 90


def shipping_priority(
    sf_dir: str,
    segment: str = "BUILDING",
    cutoff: str = SHIPPING_CUTOFF,
    top_k: int = 10,
    num_buckets: int = 32,
):
    """TPC-H-Q3-flavored shipping priority: the ``top_k`` unshipped-revenue
    orders — customers in ``segment``, orders placed before ``cutoff``,
    revenue from line items shipped after it. Ties break by o_orderkey asc.

    Scale shape: both date predicates and the segment predicate are pushed
    into the parquet reads (row-group pruning); lineitem pre-aggregates
    rev_micro per orderkey inside each batch, so the two partitioned
    ``hash_join`` exchanges (orders x customer-keys on custkey, survivors x
    lineitem partials on orderkey) ship only keyed partials, never raw line
    items. The per-order final sum re-buckets by orderkey — one bucket =
    one task = every partial of an orderkey (block boundaries carry no
    correctness weight) — and each bucket emits only its local top-k, so
    the final Sort sees <= num_buckets x top_k rows.

    Exactness: rev_micro = floor(price*1000) * (1000 - floor(disc*1000))
    summed in int64, mirrored verbatim in the oracle."""
    import os

    import pyarrow.dataset as pads
    import ray.data

    from .aggregate import bucket_by_key
    from .joins import hash_join

    cut = np.datetime64(cutoff).astype("datetime64[us]")

    cust = ray.data.read_parquet(
        os.path.join(sf_dir, "customer.parquet"),
        columns=["c_custkey"],
        filter=(pads.field("c_mktsegment") == segment),
    )
    orders = ray.data.read_parquet(
        os.path.join(sf_dir, "orders.parquet"),
        columns=["o_orderkey", "o_custkey", "o_orderdate"],
        filter=(pads.field("o_orderdate") < pa.scalar(cut)),
    )
    ord_cust = hash_join(
        orders, cust, "o_custkey", "c_custkey", num_buckets=num_buckets
    ).select_columns(["o_orderkey", "o_orderdate"])

    li = ray.data.read_parquet(
        os.path.join(sf_dir, "lineitem.parquet"),
        columns=["l_orderkey", "l_extendedprice", "l_discount"],
        filter=(pads.field("l_shipdate") > pa.scalar(cut)),
    )

    def li_partial(batch: pa.Table) -> pa.Table:
        price = _milli(batch["l_extendedprice"]).to_numpy()
        disc = _milli(batch["l_discount"]).to_numpy()
        work = pa.table(
            {
                "l_orderkey": batch["l_orderkey"],
                "rev_micro": pa.array(price * (1000 - disc), type=pa.int64()),
            }
        )
        g = work.group_by(["l_orderkey"]).aggregate([("rev_micro", "sum")])
        return g.rename_columns(["l_orderkey", "rev_micro"])

    li_agg = li.map_batches(li_partial, batch_format="pyarrow")
    joined = hash_join(
        ord_cust, li_agg, "o_orderkey", "l_orderkey", num_buckets=num_buckets
    ).select_columns(["o_orderkey", "o_orderdate", "rev_micro"])

    bucketed = bucket_by_key(joined, "o_orderkey", num_buckets)

    def bucket_topk(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby(["o_orderkey", "o_orderdate"], as_index=False, sort=False)[
            "rev_micro"
        ].sum()
        return g.sort_values(
            ["rev_micro", "o_orderkey"], ascending=[False, True]
        ).head(top_k)[["o_orderkey", "o_orderdate", "rev_micro"]]

    tops = bucketed.groupby("_bucket").map_groups(
        bucket_topk, batch_format="pandas"
    )
    return tops.sort(["rev_micro", "o_orderkey"], descending=[True, False]).limit(
        top_k
    )


def late_priority_counts(
    sf_dir: str, late_days: int = LATE_SHIP_DAYS, num_buckets: int = 32
):
    """TPC-H-Q4-flavored order-priority check: per o_orderpriority, how
    many orders had at least one line item shipped more than ``late_days``
    after the order date (the EXISTS semi-join of Q4, adapted to this
    schema's shipdate-only lineitem).

    Scale shape: lineitem collapses to one (orderkey, max_ship_us) partial
    per batch before the exchange; the partitioned ``hash_join`` against
    orders co-locates by orderkey, a re-bucketed per-order final max
    resolves batch-split orderkeys, and only priority-sized count partials
    reach the final combine."""
    import os

    import ray.data

    from .aggregate import bucket_by_key, tree_sum
    from .joins import hash_join

    li = ray.data.read_parquet(
        os.path.join(sf_dir, "lineitem.parquet"),
        columns=["l_orderkey", "l_shipdate"],
    )

    def li_partial(batch: pa.Table) -> pa.Table:
        t = pa.table(
            {
                "l_orderkey": batch["l_orderkey"],
                "ship_us": pc.cast(batch["l_shipdate"], pa.int64()),
            }
        )
        g = t.group_by(["l_orderkey"]).aggregate([("ship_us", "max")])
        return g.rename_columns(["l_orderkey", "max_ship_us"])

    li_max = li.map_batches(li_partial, batch_format="pyarrow")

    orders = ray.data.read_parquet(
        os.path.join(sf_dir, "orders.parquet"),
        columns=["o_orderkey", "o_orderdate", "o_orderpriority"],
    )

    def ord_prep(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "o_orderkey": batch["o_orderkey"],
                "order_us": pc.cast(batch["o_orderdate"], pa.int64()),
                "o_orderpriority": batch["o_orderpriority"],
            }
        )

    orders_us = orders.map_batches(ord_prep, batch_format="pyarrow")
    joined = hash_join(
        orders_us, li_max, "o_orderkey", "l_orderkey", num_buckets=num_buckets
    ).select_columns(["o_orderkey", "order_us", "o_orderpriority", "max_ship_us"])

    bucketed = bucket_by_key(joined, "o_orderkey", num_buckets)
    late_us = int(late_days) * 86_400_000_000

    def bucket_counts(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("o_orderkey", as_index=False, sort=False).agg(
            max_ship_us=("max_ship_us", "max"),
            order_us=("order_us", "first"),
            o_orderpriority=("o_orderpriority", "first"),
        )
        late = g[g["max_ship_us"] > g["order_us"] + late_us]
        out = late.groupby("o_orderpriority", as_index=False, sort=False).size()
        out = out.rename(columns={"size": "n_late"})
        out["n_late"] = out["n_late"].astype("int64")
        return out[["o_orderpriority", "n_late"]]

    partials = bucketed.groupby("_bucket").map_groups(
        bucket_counts, batch_format="pandas"
    )
    return tree_sum(partials, ["o_orderpriority"], ["n_late"], sort_result=True)


def ohlc_bars(sf_dir: str, num_buckets: int = 64):
    """Time-series OHLC bars: per (user_id, epoch-day) the opening / high /
    low / closing value_milli and the event count, with (ts, event_id)
    ordering — the candlestick rollup every metrics pipeline runs.

    Scale shape: each batch collapses to one partial row per (user, day)
    carrying the open/close candidates WITH their (ts_us, event_id) sort
    keys, so batch splits inside a day are harmless; partials re-bucket by
    user_id and each bucket resolves open (min ts,id), close (max ts,id),
    high/low/n in three vectorized pandas passes. The exchange moves only
    partial rows, never raw events."""
    import os

    import ray.data

    from .aggregate import bucket_by_key

    ev = ray.data.read_parquet(
        os.path.join(sf_dir, "events.parquet"),
        columns=["event_id", "ts", "user_id", "value"],
    )

    def prep(batch: pa.Table) -> pa.Table:
        ts_us = pc.cast(batch["ts"], pa.int64())
        return pa.table(
            {
                "user_id": batch["user_id"],
                "day": pa.array(
                    ts_us.to_numpy() // 86_400_000_000, type=pa.int64()
                ),
                "ts_us": ts_us,
                "event_id": batch["event_id"],
                "vm": _milli(batch["value"]),
            }
        )

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["user_id", "day", "ts_us", "event_id"])
        g = df.groupby(["user_id", "day"], sort=False)
        first = g[["ts_us", "event_id", "vm"]].first().rename(
            columns={"ts_us": "o_ts", "event_id": "o_id", "vm": "open_milli"}
        )
        last = g[["ts_us", "event_id", "vm"]].last().rename(
            columns={"ts_us": "c_ts", "event_id": "c_id", "vm": "close_milli"}
        )
        mm = g["vm"].agg(high_milli="max", low_milli="min", n="size")
        out = first.join(last).join(mm).reset_index()
        out["n"] = out["n"].astype("int64")
        return out

    partials = ev.map_batches(prep, batch_format="pyarrow").map_batches(
        partial, batch_format="pandas"
    )
    bucketed = bucket_by_key(partials, "user_id", num_buckets)

    def final(df: pd.DataFrame) -> pd.DataFrame:
        keys = ["user_id", "day"]
        o = (
            df.sort_values(keys + ["o_ts", "o_id"])
            .groupby(keys, sort=False, as_index=False)
            .first()[keys + ["open_milli"]]
        )
        c = (
            df.sort_values(keys + ["c_ts", "c_id"], ascending=[True, True, False, False])
            .groupby(keys, sort=False, as_index=False)
            .first()[keys + ["close_milli"]]
        )
        mm = df.groupby(keys, as_index=False, sort=False).agg(
            high_milli=("high_milli", "max"),
            low_milli=("low_milli", "min"),
            n=("n", "sum"),
        )
        out = o.merge(c, on=keys).merge(mm, on=keys)
        out["n"] = out["n"].astype("int64")
        return out[
            ["user_id", "day", "open_milli", "high_milli", "low_milli",
             "close_milli", "n"]
        ]

    # final presentation sort over bar-count rows (days x users, already
    # aggregated — orders of magnitude below the event count)
    return bucketed.groupby("_bucket").map_groups(
        final, batch_format="pandas"
    ).sort(["user_id", "day"])


def value_hour_corr(sf_dir: str):
    """Distributed exact correlation components between value_milli and
    hour-of-day, per event_type: the six int64 moment sums (n, sum_x,
    sum_y, sum_xx, sum_yy, sum_xy) from which Pearson r is a driver-side
    scalar formula. Sums stay integer-exact (mirrored in the oracle); a
    10^12-row deployment would widen to 128-bit or per-partition Welford —
    the combine shape (tiny keyed partials, tree merge) is unchanged."""
    import os

    import ray.data

    from .aggregate import tree_sum

    ev = ray.data.read_parquet(
        os.path.join(sf_dir, "events.parquet"), columns=["ts", "event_type", "value"]
    )

    def partial(batch: pa.Table) -> pa.Table:
        x = _milli(batch["value"]).to_numpy()
        ts_us = pc.cast(batch["ts"], pa.int64()).to_numpy()
        y = (ts_us // 3_600_000_000) % 24
        work = pa.table(
            {
                "event_type": batch["event_type"],
                "n": pa.array(np.ones(len(x), dtype=np.int64)),
                "sum_x": pa.array(x, type=pa.int64()),
                "sum_y": pa.array(y, type=pa.int64()),
                "sum_xx": pa.array(x * x, type=pa.int64()),
                "sum_yy": pa.array(y * y, type=pa.int64()),
                "sum_xy": pa.array(x * y, type=pa.int64()),
            }
        )
        g = work.group_by(["event_type"]).aggregate(
            [(c, "sum") for c in ("n", "sum_x", "sum_y", "sum_xx", "sum_yy", "sum_xy")]
        )
        return g.rename_columns(
            ["event_type", "n", "sum_x", "sum_y", "sum_xx", "sum_yy", "sum_xy"]
        )

    partials = ev.map_batches(partial, batch_format="pyarrow")
    return tree_sum(
        partials,
        ["event_type"],
        ["n", "sum_x", "sum_y", "sum_xx", "sum_yy", "sum_xy"],
        sort_result=True,
    )
