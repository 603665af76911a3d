"""The driver-side fold behind ``tree_sum`` and ``tree_agg``."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pytest
import ray

from logstash_filter_geoip_ray.stages import aggregate
from logstash_filter_geoip_ray.stages.aggregate import (
    grouped_counts,
    tree_agg,
    tree_sum,
)


def _blocks(n_blocks=24, rows=40, keys=7, seed=0):
    """A Dataset of ``n_blocks`` blocks of (k, v) rows."""
    import ray.data

    rng = np.random.default_rng(seed)
    return ray.data.from_arrow(
        [
            pa.table(
                {
                    "k": pa.array(["k%02d" % i for i in rng.integers(0, keys, rows)]),
                    "v": pa.array(rng.integers(0, 100, rows), type=pa.int64()),
                }
            )
            for _ in range(n_blocks)
        ]
    )


def _count_folds(monkeypatch):
    calls = []
    real = aggregate._folded

    def counting(combine, tables):
        calls.append(sum(t.num_rows for t in tables))
        return real(combine, tables)

    monkeypatch.setattr(aggregate, "_folded", counting)
    return calls


def test_tree_sum_folds_many_blocks_into_one_sorted_block(ray_session, monkeypatch):
    monkeypatch.setattr(aggregate, "_FOLD_ROWS", 30)
    folds = _count_folds(monkeypatch)
    ds = _blocks()
    partials = ds.map_batches(
        lambda b: b.group_by(["k"]).aggregate([("v", "sum"), ([], "count_all")])
        .rename_columns(["k", "v", "n"]),
        batch_format="pyarrow",
        batch_size=None,
    )
    out = tree_sum(partials, ["k"], ["v", "n"])
    assert len(folds) >= 3  # at least two intermediate folds and the last
    assert out.num_blocks() == 1
    got = out.to_pandas()
    rows = ds.to_pandas()
    want = (
        rows.groupby("k").agg(v=("v", "sum"), n=("v", "size")).reset_index()
        .sort_values("k").reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(got, want, check_dtype=False)
    assert list(got["k"]) == sorted(got["k"])


def test_tree_sum_empty_input_keeps_types(ray_session):
    def none_pass(b):
        b = b.filter(pc.greater(b["v"], 1000))
        return b.group_by(["k"]).aggregate([([], "count_all")]).rename_columns(["k", "n"])

    partials = _blocks(n_blocks=4).map_batches(none_pass, batch_format="pyarrow")
    out = tree_sum(partials, ["k"], ["n"])
    tbl = pa.concat_tables(ray.get(out.to_arrow_refs()))
    assert tbl.num_rows == 0
    assert tbl.schema == pa.schema([("k", pa.string()), ("n", pa.int64())])


def test_tree_sum_cap_counts_folded_keys(ray_session, monkeypatch):
    # 24 blocks x 7 keys of partial rows fold to 7 keys: under a cap of 10
    monkeypatch.setattr(aggregate, "MAX_DRIVER_COMBINE_ROWS", 10)
    monkeypatch.setattr(aggregate, "_FOLD_ROWS", 30)
    assert grouped_counts(_blocks(), ["k"], batch_size=None).count() == 7

    # 50 keys trip the cap at the first fold, before the rest arrive
    folds = _count_folds(monkeypatch)
    with pytest.raises(RuntimeError, match="MAX_DRIVER_COMBINE_ROWS.*salted_grouped_counts"):
        grouped_counts(_blocks(keys=50), ["k"], batch_size=None)
    assert len(folds) == 1


def test_tree_agg_many_blocks_equals_one_combine(ray_session, monkeypatch):
    monkeypatch.setattr(aggregate, "_FOLD_ROWS", 30)

    def partial(b):
        return b.group_by(["k"]).aggregate(
            [("v", "min"), ("v", "max"), ([], "count_all")]
        ).rename_columns(["k", "lo", "hi", "n"])

    def combine(b):
        return b.group_by(["k"]).aggregate(
            [("lo", "min"), ("hi", "max"), ("n", "sum")]
        ).rename_columns(["k", "lo", "hi", "n"]).sort_by("k")

    ds = _blocks(n_blocks=30)
    out = tree_agg(ds.map_batches(partial, batch_format="pyarrow", batch_size=None), combine)
    assert out.num_blocks() == 1
    whole = pa.concat_tables(ray.get(ds.to_arrow_refs()))
    assert pa.concat_tables(ray.get(out.to_arrow_refs())).equals(combine(partial(whole)))
