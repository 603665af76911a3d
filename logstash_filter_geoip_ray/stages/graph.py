"""Iterative graph algorithms as join-based Dataset rounds.

PageRank is the canonical iterative fan-in/fan-out workload a
training-data engine needs (domain-authority weighting for crawl
curation, e.g. Common-Crawl harmonic/PageRank centrality lists used to
prioritize fetch frontiers). The reference plugin has no iterative
operator; this follows the classic synchronous power-iteration
formulation (Page et al. 1999) expressed as one partitioned hash-join +
one grouped sum per round — the same shuffle discipline as
``stages.dedup.label_propagation_clusters``.

Determinism contract: all arithmetic is int64 with truncating division
(ranks carried in 1e-12 units of probability mass), so the result is
bit-identical across batchings, machines, and a SQL oracle — float
PageRank would hash-diverge on summation order. Convergence behaviour is
the same as the float algorithm up to the 1e-12 quantization.
"""

from __future__ import annotations

import pyarrow as pa

#: total probability mass carried as integer units (1e-12 resolution)
PAGERANK_SCALE = 10**12
#: damping factor 0.85 as an exact rational
PAGERANK_DAMP_NUM = 85
PAGERANK_DAMP_DEN = 100


def pagerank(
    edges_ds,
    iterations: int = 5,
    num_buckets: int = 32,
    scale: int = PAGERANK_SCALE,
):
    """Integer-exact PageRank over a directed edge list ``(src, dst)``.

    Semantics (mirrored exactly by the unrolled-SQL oracle in
    ``pipelines.data_ops``): with ``N`` = number of distinct source
    nodes, ``base = scale // N``, ``tele = (15 * base) // 100``::

        pr0[v]   = base
        pr_i[v]  = tele + (85 * Σ_{(u,v)∈E} (pr_{i-1}[u] // deg[u])) // 100

    Every node must have out-degree ≥ 1 (no dangling mass term):
    symmetrize the edge list or add self-loops first — the query builder
    does the former. Nodes therefore all appear as both src and dst and
    the per-round recurrence is a pure edge aggregation, no outer join.

    Scale shape: the rank table is a Dataset keyed by node (never a
    broadcast — node count is unbounded for web graphs); each round is
    ONE bucket-co-partitioned ``hash_join`` of the edge list against the
    rank table on ``src`` plus one grouped int64 sum on ``dst``. The
    edge list pre-joins each edge's destination degree once, so the new
    rank rows come out of the aggregation carrying the degree they need
    for the next round — 2 shuffles per round total, lineage severed
    between rounds (see ``label_propagation_clusters`` for why plain
    ``materialize()`` is not enough).

    Returns rows ``(node, pr)`` sorted by node, ``pr`` in units of
    ``1/scale``.
    """
    import numpy as np
    import ray.data
    from ray.data.aggregate import Sum

    from .joins import hash_join

    def bundle(ds):
        # every exchange fragments the stream into per-bucket / per-key
        # micro-blocks (measured on the sf0.01 graph: 64+ blocks of ~1.5k
        # rows → per-task overhead dominated a round 10×); re-bundle into
        # ~1M-row blocks. The num_cpus=0.9 marker differs from the upstream
        # ops' CPU request, so Ray does not fuse this op into them and push
        # the big batch_size onto the whole chain.
        return ds.map_batches(
            lambda b: b, batch_format="pyarrow", batch_size=1 << 20, num_cpus=0.9
        )

    def checkpoint(ds):
        return ray.data.from_arrow_refs(bundle(ds).to_arrow_refs())

    def norm(batch: pa.Table, cols) -> pa.Table:
        arrays = []
        for c in cols:
            a = batch[c]
            if isinstance(a, pa.ChunkedArray):
                a = a.combine_chunks()
            arrays.append(a.cast(pa.int64()))
        return pa.Table.from_arrays(arrays, names=list(cols))

    edges = checkpoint(
        edges_ds.map_batches(
            lambda b: norm(b, ["src", "dst"]), batch_format="pyarrow"
        )
    )

    # out-degree per node (symmetrized graph ⇒ same node set as dst side)
    deg = checkpoint(
        edges.groupby("src")
        .count()
        .map_batches(
            lambda b: pa.table(
                {
                    "node": b["src"].cast(pa.int64()),
                    "deg": b["count()"].cast(pa.int64()),
                }
            ),
            batch_format="pyarrow",
        )
    )
    n_nodes = deg.count()
    if n_nodes == 0:
        return ray.data.from_arrow(
            pa.table(
                {
                    "node": pa.array([], type=pa.int64()),
                    "pr": pa.array([], type=pa.int64()),
                }
            )
        )
    base = scale // n_nodes
    tele = (PAGERANK_DAMP_DEN - PAGERANK_DAMP_NUM) * base // PAGERANK_DAMP_DEN

    # each edge carries its DESTINATION's degree so the grouped sum emits
    # rank rows already holding the degree needed by the next round
    deg_renamed = deg.map_batches(
        lambda b: b.rename_columns(["dst_node", "dst_deg"]),
        batch_format="pyarrow",
    )
    edges_dd = checkpoint(
        hash_join(edges, deg_renamed, "dst", "dst_node", num_buckets=num_buckets)
        .map_batches(
            lambda b: norm(b, ["src", "dst", "dst_deg"]), batch_format="pyarrow"
        )
    )

    ranks = checkpoint(
        deg.map_batches(
            lambda b: b.append_column(
                "pr", pa.array(np.full(b.num_rows, base, dtype=np.int64))
            ),
            batch_format="pyarrow",
        )
    )

    def contrib(batch: pa.Table) -> pa.Table:
        pr = batch["pr"].to_numpy(zero_copy_only=False)
        d = batch["deg"].to_numpy(zero_copy_only=False)
        out = norm(batch, ["dst", "dst_deg"])
        return out.append_column("c", pa.array(pr // d))

    def finish(batch: pa.Table) -> pa.Table:
        s = batch["sum(c)"].to_numpy(zero_copy_only=False).astype(np.int64)
        pr = tele + (PAGERANK_DAMP_NUM * s) // PAGERANK_DAMP_DEN
        return pa.table(
            {
                "node": batch["dst"].cast(pa.int64()),
                "deg": batch["dst_deg"].cast(pa.int64()),
                "pr": pa.array(pr),
            }
        )

    for _ in range(iterations):
        joined = hash_join(edges_dd, ranks, "src", "node", num_buckets=num_buckets)
        ranks = checkpoint(
            joined.map_batches(contrib, batch_format="pyarrow")
            .groupby(["dst", "dst_deg"])
            .aggregate(Sum("c"))
            .map_batches(finish, batch_format="pyarrow")
        )

    return ranks.select_columns(["node", "pr"]).sort("node")


def triangle_counts(
    edges,
    a_col: str = "a",
    b_col: str = "b",
    num_buckets: int = 32,
    max_wedges: int = 100_000_000,
):
    """Per-node triangle participation counts over an undirected simple
    graph (input: DISTINCT edges with ``a < b``, both int64). Returns
    (node, n_tri) for every node in at least one triangle.

    Classic degree-orientation + wedge-check formulation (Chiba–Nishizeki
    node-iterator in its MapReduce form, Cohen 2009; also Suri & Vassilvitskii
    2011) — no step ever co-locates a node's full undirected neighborhood:

      1. degree per node — one grouped count over both endpoint columns;
      2. orient every edge from its (deg, id)-smaller endpoint to the
         larger (two partitioned hash joins attach endpoint degrees) —
         out-degree under this orientation is O(sqrt(|E|)) for any graph,
         which bounds the wedge stage even at hub nodes;
      3. wedges: oriented edges bucket by src; ONE vectorized self-merge
         per bucket emits each src's ordered out-neighbor pairs (v ≺ w);
      4. a wedge (v, w) closes a triangle iff the oriented edge (v, w)
         exists — one partitioned hash join on the composite key;
      5. matched wedges explode to their three corners → grouped counts.

    The wedge table (Σ out-deg² rows) is the algorithm's intrinsic
    intermediate; it streams through the join exchange and is never
    collected. Wedge/edge tables are materialized before hash_join to keep
    Ray's schema peek from double-executing the upstream shuffles.

    Dense-graph guard: on a near-clique, Σ out-deg² is Θ(n³) — the wedge
    work is intrinsic to exact counting, not an implementation artifact —
    so the exact wedge budget is computed from the oriented out-degrees
    (one cheap aggregate) and the operator RAISES past ``max_wedges``
    instead of silently launching a billion-row exchange. Orientation
    keeps sparse real-world graphs (out-deg O(√E)) comfortably inside."""
    import numpy as np
    import pandas as pd
    import pyarrow.compute as pc

    from .aggregate import bucket_by_key
    from .joins import hash_join

    def endpoints(batch: pa.Table) -> pa.Table:
        a = batch[a_col]
        b = batch[b_col]
        if isinstance(a, pa.ChunkedArray):
            a, b = a.combine_chunks(), b.combine_chunks()
        t = pa.table({"node": pa.concat_arrays([a, b])})
        return t.group_by(["node"]).aggregate([([], "count_all")]).rename_columns(
            ["node", "deg"]
        )

    deg = (
        edges.map_batches(endpoints, batch_format="pyarrow")
        .groupby("node")
        .sum("deg")
        .rename_columns({"sum(deg)": "deg"})
        .materialize()
    )

    with_da = hash_join(edges, deg, a_col, "node", num_buckets=num_buckets)

    def keep_da(batch: pa.Table) -> pa.Table:
        return pa.table(
            {a_col: batch[a_col], b_col: batch[b_col], "deg_a": batch["deg"]}
        )

    left = with_da.map_batches(keep_da, batch_format="pyarrow").materialize()
    with_db = hash_join(left, deg, b_col, "node", num_buckets=num_buckets)

    def orient(batch: pa.Table) -> pa.Table:
        a = batch[a_col].to_numpy(zero_copy_only=False)
        b = batch[b_col].to_numpy(zero_copy_only=False)
        da = batch["deg_a"].to_numpy(zero_copy_only=False)
        db = batch["deg"].to_numpy(zero_copy_only=False)
        a_first = (da < db) | ((da == db) & (a < b))
        src = np.where(a_first, a, b)
        dst = np.where(a_first, b, a)
        dsrc = np.where(a_first, da, db)
        ddst = np.where(a_first, db, da)
        return pa.table(
            {
                "src": pa.array(src, type=pa.int64()),
                "dst": pa.array(dst, type=pa.int64()),
                "dsrc": pa.array(dsrc, type=pa.int64()),
                "ddst": pa.array(ddst, type=pa.int64()),
            }
        )

    oriented = with_db.map_batches(orient, batch_format="pyarrow").materialize()

    # exact wedge budget needs per-src TOTALS (a per-batch square would
    # undercount split sources), so aggregate the out-degree table first
    odeg_tbl = (
        oriented.groupby("src").count().rename_columns({"count()": "d"})
    )
    wedge_budget = int(
        odeg_tbl.map_batches(
            lambda b: pa.table(
                {
                    "w": pa.array(
                        [
                            int(
                                (
                                    b["d"].to_numpy(zero_copy_only=False).astype(np.int64)
                                    ** 2
                                ).sum()
                            )
                        ],
                        type=pa.int64(),
                    )
                }
            ),
            batch_format="pyarrow",
        ).sum("w")
        or 0
    )
    if wedge_budget > max_wedges:
        raise ValueError(
            "triangle_counts: wedge budget %d exceeds max_wedges=%d — the "
            "graph is too dense for exact wedge enumeration (Σ out-deg² is "
            "Θ(n³) on near-cliques); sparsify the edge rule or raise "
            "max_wedges explicitly" % (wedge_budget, max_wedges)
        )

    def wedge_bucket(block: pd.DataFrame) -> pa.Table:
        b = block[["src", "dst", "ddst"]]
        m = b.merge(b, on="src", suffixes=("_v", "_w"))
        # ordered pair v ≺ w in the SAME (deg, id) total order as the
        # orientation, so the wedge key can only match an oriented edge
        keep = (m["ddst_v"] < m["ddst_w"]) | (
            (m["ddst_v"] == m["ddst_w"]) & (m["dst_v"] < m["dst_w"])
        )
        m = m[keep]
        key = (
            m["dst_v"].astype(np.int64).astype(str)
            + "\x1f"
            + m["dst_w"].astype(np.int64).astype(str)
        ).to_numpy()
        return pa.table(
            {
                "u": pa.array(m["src"].to_numpy(dtype=np.int64), type=pa.int64()),
                "v": pa.array(m["dst_v"].to_numpy(dtype=np.int64), type=pa.int64()),
                "w": pa.array(m["dst_w"].to_numpy(dtype=np.int64), type=pa.int64()),
                "_vw": pa.array(key, type=pa.string()),
            }
        )

    wedges = (
        bucket_by_key(oriented, "src", num_buckets)
        .groupby("_bucket")
        .map_groups(wedge_bucket, batch_format="pandas")
        .materialize()
    )

    def edge_keys(batch: pa.Table) -> pa.Table:
        key = pc.binary_join_element_wise(
            pc.cast(batch["src"], pa.string()),
            pc.cast(batch["dst"], pa.string()),
            "\x1f",
        )
        return pa.table({"ek": key})

    ekeys = oriented.map_batches(edge_keys, batch_format="pyarrow").materialize()
    closed = hash_join(wedges, ekeys, "_vw", "ek", num_buckets=num_buckets)

    def corners(batch: pa.Table) -> pa.Table:
        u = batch["u"]
        v = batch["v"]
        w = batch["w"]
        if isinstance(u, pa.ChunkedArray):
            u, v, w = u.combine_chunks(), v.combine_chunks(), w.combine_chunks()
        t = pa.table({"node": pa.concat_arrays([u, v, w])})
        return t.group_by(["node"]).aggregate([([], "count_all")]).rename_columns(
            ["node", "n_tri"]
        )

    return (
        closed.map_batches(corners, batch_format="pyarrow")
        .groupby("node")
        .sum("n_tri")
        .rename_columns({"sum(n_tri)": "n_tri"})
        .sort("node")
    )


def bfs_levels(
    edges_ds,
    seeds_ds,
    num_buckets: int = 16,
    max_rounds: int = 64,
):
    """Multi-source BFS: minimum hop distance from any seed, as rows
    ``(node, level)`` — only REACHED nodes appear. The missing graph
    primitive next to PageRank/components: frontier expansion, one
    partitioned hash_join + one anti-join per round, O(diameter) rounds.

    Inputs: ``edges_ds`` with int64 (src, dst) treated as UNDIRECTED
    (symmetrized internally), ``seeds_ds`` with an int64 ``node`` column.
    Per round the frontier joins the symmetrized edges (both sides
    sharded — the frontier is never broadcast), discovered nodes
    anti-join against the known set (shuffle ships distinct keys only),
    and the driver reads ONE scalar (the new-frontier count) to decide
    termination — the classic bulk-synchronous BFS, correct for any
    block split since min-distance is confluent. Raises past
    ``max_rounds`` (a diameter that large on a co-occurrence graph means
    a pathological input, not a longer loop)."""
    import ray.data

    from .joins import hash_anti_join, hash_join

    def bundle(ds):
        return ds.map_batches(
            lambda b: b, batch_format="pyarrow", batch_size=1 << 20,
            num_cpus=0.9,
        )

    def checkpoint(ds):
        # sever lineage: an iterative plan otherwise doubles per round
        return ray.data.from_arrow_refs(bundle(ds).to_arrow_refs())

    def norm(batch: pa.Table) -> pa.Table:
        u = batch["src"]
        v = batch["dst"]
        if isinstance(u, pa.ChunkedArray):
            u = u.combine_chunks()
        if isinstance(v, pa.ChunkedArray):
            v = v.combine_chunks()
        u, v = u.cast(pa.int64()), v.cast(pa.int64())
        return pa.table(
            {
                "u": pa.concat_arrays([u, v]),
                "v": pa.concat_arrays([v, u]),
            }
        )

    sym = checkpoint(
        edges_ds.map_batches(norm, batch_format="pyarrow")
        .groupby(["u", "v"])
        .map_groups(lambda t: t.slice(0, 1), batch_format="pyarrow")
    )

    def as_level(ds, level: int):
        return ds.map_batches(
            lambda b, lv=level: pa.table(
                {
                    "node": b["node"].cast(pa.int64())
                    if not isinstance(b["node"], pa.ChunkedArray)
                    else b["node"].combine_chunks().cast(pa.int64()),
                    "level": pa.array([lv] * b.num_rows, pa.int64()),
                }
            ),
            batch_format="pyarrow",
        )

    frontier = checkpoint(as_level(seeds_ds, 0))
    levels = frontier
    for round_no in range(1, max_rounds + 1):
        hops = hash_join(
            frontier.select_columns(["node"]),
            sym,
            "node",
            "u",
            num_buckets=num_buckets,
        ).map_batches(
            lambda b: pa.table({"node": b["v"]}), batch_format="pyarrow"
        )
        # distinct discovered nodes, then drop already-known ones
        distinct = hops.groupby("node").map_groups(
            lambda t: t.slice(0, 1), batch_format="pyarrow"
        )
        new = checkpoint(
            as_level(
                hash_anti_join(
                    distinct, levels.select_columns(["node"]), "node",
                    "node", num_buckets=num_buckets,
                ),
                round_no,
            )
        )
        if new.count() == 0:
            return levels.sort("node")
        levels = checkpoint(levels.union(new))
        frontier = new
    raise ValueError(
        "bfs_levels: frontier still growing after max_rounds=%d" % max_rounds
    )


def kcore_nodes(
    edges_ds,
    k: int,
    num_buckets: int = 16,
    max_rounds: int = 100,
):
    """k-core decomposition membership: the maximal subgraph in which every
    node has degree ≥ ``k``, as rows ``(node, degree)`` — degree measured
    INSIDE the core. The classic iterative-peeling graph primitive next to
    PageRank / components / BFS.

    Inputs: ``edges_ds`` with int64 (src, dst), treated as UNDIRECTED and
    deduplicated (self-loops dropped — a self-loop is not a neighbour).

    Scale shape: bulk-synchronous peeling — per round ONE degree count
    (distinct-node-sized groupby), a filter, and TWO bucketed semi-joins
    that keep only edges whose both endpoints survive; the exchange ships
    the edge list plus distinct surviving keys, never a broadcast. The
    driver reads ONE scalar per round (the surviving-node count) to detect
    the fixpoint; lineage is severed per round so the plan stays O(1).
    Rounds are bounded by ``max_rounds`` — real co-occurrence graphs peel
    in far fewer; hitting the cap raises rather than looping forever."""
    import pyarrow.compute as pc
    import ray.data

    from .joins import hash_semi_join
    from ..stages.aggregate import grouped_counts

    def bundle(ds):
        return ds.map_batches(
            lambda b: b, batch_format="pyarrow", batch_size=1 << 20,
            num_cpus=0.9,
        )

    def checkpoint(ds):
        return ray.data.from_arrow_refs(bundle(ds).to_arrow_refs())

    def norm(batch: pa.Table) -> pa.Table:
        u = batch["src"]
        v = batch["dst"]
        if isinstance(u, pa.ChunkedArray):
            u = u.combine_chunks()
        if isinstance(v, pa.ChunkedArray):
            v = v.combine_chunks()
        u, v = u.cast(pa.int64()), v.cast(pa.int64())
        t = pa.table(
            {
                "u": pa.concat_arrays([u, v]),
                "v": pa.concat_arrays([v, u]),
            }
        )
        return t.filter(pc.invert(pc.equal(t["u"], t["v"])))

    edges = checkpoint(
        edges_ds.map_batches(norm, batch_format="pyarrow")
        .groupby(["u", "v"])
        .map_groups(lambda t: t.slice(0, 1), batch_format="pyarrow")
    )

    prev_nodes = None
    for _ in range(max_rounds):
        deg = grouped_counts(
            edges.select_columns(["u"]), ["u"], count_alias="degree"
        )
        surv = checkpoint(
            deg.map_batches(
                lambda b: b.filter(pc.greater_equal(b["degree"], k)),
                batch_format="pyarrow",
            )
        )
        n_surv = surv.count()
        if n_surv == 0:
            # empty-core guard: Ray's to_pandas() on a 0-row Dataset drops
            # the schema, so hand back a typed DataFrame directly (the
            # driver contract allows Dataset | DataFrame)
            import pandas as pd

            return pd.DataFrame(
                {
                    "node": pd.Series([], dtype="int64"),
                    "degree": pd.Series([], dtype="int64"),
                }
            )
        if prev_nodes is not None and n_surv == prev_nodes:
            # fixpoint: nobody dropped this round → degrees are final
            return surv.map_batches(
                lambda b: pa.table(
                    {"node": b["u"], "degree": b["degree"]}
                ),
                batch_format="pyarrow",
            ).sort("node")
        prev_nodes = n_surv
        keep = surv.select_columns(["u"])
        edges = checkpoint(
            hash_semi_join(
                hash_semi_join(edges, keep, "u", "u", num_buckets=num_buckets),
                keep,
                "v",
                "u",
                num_buckets=num_buckets,
            )
        )
    raise RuntimeError(
        "kcore_nodes: no fixpoint after %d rounds — pathological input "
        "or max_rounds too low" % max_rounds
    )
