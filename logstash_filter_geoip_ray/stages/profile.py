"""Table/column profiler — the data-quality sweep a training-data
pipeline runs before anything else (null rates, exact distinct
cardinalities, value ranges per column).

Contract: the caller first normalizes every profiled column to a
string-safe representation (ints stay ints, timestamps become epoch-µs,
floats become integer millis), and the profile is computed over the
STRING form of each column — min/max are lexicographic on that form —
so a SQL oracle using ``CAST(x AS VARCHAR)`` reproduces it bit-exactly
(UTF-8 byte order equals codepoint order, and both engines compare
strings binary).

Scale shape: two independent exchanges, neither carrying rows —
  * scalar moments (n_rows, n_null, min, max): one per-batch pass over
    the COLUMNS (a loop bounded by schema width, never rows), partials
    folded on the driver (``aggregate.tree_agg``);
  * exact distinct counts: per-batch distinct (col, value) pairs →
    one global distinct groupby → per-column count. The shuffle is the
    distinct value space itself — the price of exactness; the HLL
    sketch path (``aggregate.approx_distinct``) is the approximate
    alternative when that space is unbounded.
"""

from __future__ import annotations

from typing import Sequence

import pyarrow as pa
import pyarrow.compute as pc


def profile_columns(ds, cols: Sequence[str]):
    """Profile ``cols`` of ``ds`` (already normalized, see module doc).
    Returns a pandas DataFrame (one row per column — provably small):
    (col, n_rows, n_null, n_distinct, min_val, max_val)."""
    import pandas as pd

    cols = list(cols)

    def scalar_partial(batch: pa.Table) -> pa.Table:
        names, rows, nulls, mins, maxs = [], [], [], [], []
        for c in cols:
            arr = batch[c]
            s = pc.cast(arr, pa.string())
            mm = pc.min_max(s)
            names.append(c)
            rows.append(batch.num_rows)
            nulls.append(arr.null_count)
            mins.append(mm["min"].as_py())
            maxs.append(mm["max"].as_py())
        return pa.table(
            {
                "col": pa.array(names, type=pa.string()),
                "n_rows": pa.array(rows, type=pa.int64()),
                "n_null": pa.array(nulls, type=pa.int64()),
                "min_val": pa.array(mins, type=pa.string()),
                "max_val": pa.array(maxs, type=pa.string()),
            }
        )

    def scalar_combine(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        # object-dtype min/max with NaN present raises in pandas; an
        # all-null column must surface None, not crash
        g = df.groupby("col", as_index=False).agg(
            n_rows=("n_rows", "sum"),
            n_null=("n_null", "sum"),
            min_val=(
                "min_val",
                lambda c: c.dropna().min() if c.notna().any() else None,
            ),
            max_val=(
                "max_val",
                lambda c: c.dropna().max() if c.notna().any() else None,
            ),
        )
        return pa.Table.from_pandas(g, preserve_index=False)

    from .aggregate import tree_agg

    scalars = tree_agg(
        ds.map_batches(scalar_partial, batch_format="pyarrow"),
        scalar_combine,
    ).to_pandas()

    def distinct_partial(batch: pa.Table) -> pa.Table:
        parts = []
        for c in cols:
            s = pc.cast(batch[c], pa.string())
            if isinstance(s, pa.ChunkedArray):
                s = s.combine_chunks()
            u = pc.unique(pc.drop_null(s))
            parts.append(
                pa.table(
                    {
                        "col": pa.array([c] * len(u), type=pa.string()),
                        "val": u,
                    }
                )
            )
        return pa.concat_tables(parts)

    distinct = (
        ds.map_batches(distinct_partial, batch_format="pyarrow")
        .groupby(["col", "val"])
        .count()
        .select_columns(["col"])
        .groupby("col")
        .count()
        .rename_columns({"count()": "n_distinct"})
        .to_pandas()
    )

    out = scalars.merge(distinct, on="col", how="left")
    out["n_distinct"] = out["n_distinct"].fillna(0).astype("int64")
    out = out[["col", "n_rows", "n_null", "n_distinct", "min_val", "max_val"]]
    return out.sort_values("col").reset_index(drop=True)
