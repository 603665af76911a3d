"""Deduplication operators over the ``documents`` table: exact,
MinHash+LSH, SimHash, token-set Jaccard, embedding-cosine near-dup, and
the EXACTSUBSTR duplicated-span family (detection, doc rollup, span
removal, cross-dump incremental via the persisted window sketch).

Scale shapes (the part that matters at 100 TB):

- **exact**: content hash inside ``map_batches`` → per-batch partial min-id
  per hash → ``groupby(hash).min(id)``. Shuffle volume = distinct hashes,
  not rows.
- **MinHash+LSH**: signature per doc (map_batches) → explode to
  (band_key, doc) rows → ``groupby(band_key)`` co-locates candidates →
  pairs → exact-Jaccard verify. The only all-to-all is on band keys, whose
  cardinality ≈ docs × bands but with tiny rows.
- **SimHash**: 64-bit signature → group by signature (near-dup buckets).
- **token-set Jaccard**: deterministic blocking key (``source``) →
  ``groupby(source).map_groups`` computes within-block pairs — expressible
  in SQL, so it carries a DuckDB oracle.
- **embedding cosine**: broadcast the (small) matrix via ``ray.put`` once,
  each batch computes sims against it — no shuffle join. The scale path
  replaces the broadcast with LSH bucketing (see similarity.py).
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from ..functions.sketches import (
    MinHasher,
    exact_jaccard,
    simhash64,
    token_set_jaccard,
)


# -- exact dedup ------------------------------------------------------------


def exact_dedup_keepers(ds, text_col: str = "text", id_col: str = "doc_id"):
    """Keeper ids (min id per distinct text). Oracle:
    ``SELECT min(doc_id) AS doc_id FROM documents GROUP BY text``."""
    from ray.data.aggregate import Min

    def add_hash(batch: pa.Table) -> pa.Table:
        from ..functions.textstats import md5_fingerprints

        text = batch[text_col]
        if isinstance(text, pa.ChunkedArray):
            text = text.combine_chunks()
        if pa.types.is_null(text.type):
            text = text.cast(pa.string())
        # null texts form ONE group (SQL GROUP BY semantics); the sentinel
        # cannot collide with a 32-char hex digest, and Ray's sort-based
        # groupby cannot order null keys against strings
        h = pc.fill_null(md5_fingerprints(text), "__null_text__")
        return batch.select([id_col]).append_column("_h", h)

    def partial_min(batch: pa.Table) -> pa.Table:
        return (
            batch.group_by(["_h"]).aggregate([(id_col, "min")]).rename_columns(["_h", id_col])
        )

    hashed = ds.map_batches(add_hash, batch_format="pyarrow")
    partial = hashed.map_batches(partial_min, batch_format="pyarrow")
    keepers = partial.groupby("_h").aggregate(Min(id_col, alias_name=id_col))
    return keepers.select_columns([id_col]).sort(id_col)


# -- MinHash + LSH ----------------------------------------------------------


def _raw_words(text: pa.Array) -> tuple:
    """Case-preserving whitespace words of every row, flattened, with row
    indices — ``contamination._flat_words(lower=False)``: the vectorized
    equivalent of ``str.split()`` per row, case-sensitive because
    :func:`~..functions.sketches.word_shingles` (the per-row reference and
    the exact-Jaccard verifier) is."""
    from .contamination import _flat_words

    return _flat_words(text, lower=False)


class MinHashBandStage:
    """map_batches stage: text → LSH band rows (band_key int64, id) ONLY.

    The band shuffle is the one all-to-all in the MinHash path; its rows must
    be minimal — carrying text would ship ~``bands``× the corpus through the
    object store. Candidate texts are re-attached later by id (broadcast
    semi-join in :func:`minhash_lsh_pairs`).

    The signature kernel is fully vectorized per batch: one Arrow pass
    builds every doc's word k-grams (flat array + doc offsets), one pandas
    C call hashes all gram strings, and ``MinHasher.sig_matrix`` does the
    per-permutation mix + segment-min with numpy ``reduceat`` — no Python
    loop over docs in the hot path. Docs with 1..k-1 words (whose single
    shingle is the joined token list, matching ``word_shingles``) are the
    only per-row fallback and are rare by construction."""

    def __init__(self, num_perm=128, bands=32, shingle_k=3, text_col="text", id_col="doc_id"):
        self.hasher = MinHasher(num_perm=num_perm, bands=bands, shingle_k=shingle_k)
        self.text_col = text_col
        self.id_col = id_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        from ..functions.sketches import hash_strings64

        text = batch[self.text_col]
        if isinstance(text, pa.ChunkedArray):
            text = text.combine_chunks()
        ids = batch[self.id_col]
        if isinstance(ids, pa.ChunkedArray):
            ids = ids.combine_chunks()
        k = self.hasher.shingle_k
        n_rows = batch.num_rows
        flat, widx = _raw_words(text)
        wc = (
            np.bincount(widx, minlength=n_rows)
            if len(widx)
            else np.zeros(n_rows, dtype=np.int64)
        )

        # full-length docs (wc >= k): k-gram join over the flat word array
        from .contamination import _ngrams_from_flat

        grams, gidx = _ngrams_from_flat(flat, widx, k)

        sig_parts, pos_parts = [], []
        if len(gidx):
            starts = np.flatnonzero(np.r_[True, gidx[1:] != gidx[:-1]])
            gh = hash_strings64(grams)
            sig_parts.append(self.hasher.sig_matrix(gh, starts))
            pos_parts.append(gidx[starts])

        # short docs (0 < wc < k): single shingle = " ".join(words)
        short = np.flatnonzero((wc > 0) & (wc < k))
        if len(short):
            joined = [
                " ".join(text[int(r)].as_py().split()) for r in short
            ]
            sh = hash_strings64(joined)
            from ..functions.sketches import _mix64

            sig_parts.append(
                _mix64(sh[:, None] ^ self.hasher._seeds[None, :])
            )
            pos_parts.append(short)

        if not sig_parts:
            return pa.table(
                {
                    "band_key": pa.array([], type=pa.int64()),
                    # explicit type: an all-skipped block must not emit a
                    # null-typed id column that breaks schema unification
                    self.id_col: pa.array([], type=ids.type),
                }
            )

        sigs = np.concatenate(sig_parts, axis=0)
        positions = np.concatenate(pos_parts)
        keys = self.hasher.band_key_matrix(sigs)  # (n, bands) int64
        bands = keys.shape[1]
        out_idx = pa.array(np.repeat(positions, bands))
        return pa.table(
            {
                "band_key": pa.array(keys.reshape(-1)),
                self.id_col: pc.take(ids, out_idx),
            }
        )


def minhash_candidate_pairs(
    ds,
    num_perm: int = 128,
    bands: int = 32,
    shingle_k: int = 3,
    text_col: str = "text",
    id_col: str = "doc_id",
    num_buckets: int = 64,
):
    """Distinct LSH candidate pairs (a, b), a < b — ids only, no payload.

    Shape: (band_key, id) explode → ``groupby(band_key)`` co-locates bucket
    members → per-bucket id pairs → per-batch distinct → global distinct.
    Shuffle volume = docs × bands tiny rows + candidate pairs.

    ``id_col`` must be integer-typed (the pair columns and downstream
    union-find are int64); a non-integer id raises here with a clear message
    instead of failing inside bucket tasks."""
    from ray.data.aggregate import Count

    schema = ds.schema()
    id_type = dict(zip(schema.names, schema.types)).get(id_col)
    if id_type is not None and not pa.types.is_integer(id_type):
        raise TypeError(
            "minhash_candidate_pairs: id column %r must be integer-typed "
            "(got %s) — map string ids to int64 upstream" % (id_col, id_type)
        )
    stage = MinHashBandStage(num_perm, bands, shingle_k, text_col, id_col)
    banded = ds.map_batches(stage, batch_format="pyarrow")

    # band keys are high-cardinality with tiny member sets: co-locate them by
    # coarse hash bucket and generate ALL of a bucket's pairs in one
    # vectorized self-merge — not one Python map_groups call per band key
    from .aggregate import bucket_by_key

    def pairs_in_coarse_bucket(block: pd.DataFrame) -> pd.DataFrame:
        b = block.drop_duplicates(["band_key", id_col])[["band_key", id_col]]
        m = b.merge(b, on="band_key", suffixes=("_a", "_b"))
        m = m[m[id_col + "_a"] < m[id_col + "_b"]]
        return pd.DataFrame(
            {
                "a": m[id_col + "_a"].astype("int64").to_numpy(),
                "b": m[id_col + "_b"].astype("int64").to_numpy(),
            }
        ).drop_duplicates()

    bucketed = bucket_by_key(banded, "band_key", num_buckets)
    cand = bucketed.groupby("_bucket").map_groups(
        pairs_in_coarse_bucket, batch_format="pandas"
    )

    def partial_distinct(batch: pa.Table) -> pa.Table:
        return batch.group_by(["a", "b"]).aggregate([])

    return (
        cand.map_batches(partial_distinct, batch_format="pyarrow")
        .groupby(["a", "b"])
        .aggregate(Count(alias_name="_c"))
        .select_columns(["a", "b"])
    )


def minhash_lsh_pairs(
    ds,
    num_perm: int = 128,
    bands: int = 32,
    shingle_k: int = 3,
    min_jaccard: float = 0.5,
    text_col: str = "text",
    id_col: str = "doc_id",
):
    """Verified near-duplicate pairs: (a, b, inter, union_) with exact
    word-shingle Jaccard ≥ min_jaccard among LSH candidates. a < b.

    Scale shape: the band shuffle moves (band_key, id) only; candidate texts
    are fetched by a broadcast SEMI-join — the candidate-id set (bounded by
    near-dups + LSH false positives, orders of magnitude smaller than the
    corpus by construction) ships once via ``ray.put``, each doc batch keeps
    matching rows with a vectorized ``pc.is_in``, and the small candidate
    corpus broadcasts back for the distributed exact-Jaccard verify. The
    full text column never enters a shuffle. If the candidate set ever
    outgrows a worker heap, swap the broadcast for two ``hash_join`` passes
    attaching text_a/text_b."""
    import ray

    cand = minhash_candidate_pairs(
        ds, num_perm, bands, shingle_k, text_col, id_col
    ).materialize()

    # candidate ids: provably-small driver pull (ids only, int64)
    cand_ids: set = set()
    for batch in cand.iter_batches(batch_format="pyarrow"):
        cand_ids.update(batch["a"].to_pylist())
        cand_ids.update(batch["b"].to_pylist())
    if not cand_ids:
        import ray.data

        return ray.data.from_arrow(
            pa.table(
                {
                    "a": pa.array([], type=pa.int64()),
                    "b": pa.array([], type=pa.int64()),
                    "inter": pa.array([], type=pa.int64()),
                    "union_": pa.array([], type=pa.int64()),
                }
            )
        )
    ids_ref = ray.put(pa.array(sorted(cand_ids), type=pa.int64()))

    def semi_join(batch: pa.Table) -> pa.Table:
        wanted = ray.get(ids_ref)
        keep = pc.is_in(pc.cast(batch[id_col], pa.int64()), value_set=wanted)
        return batch.filter(keep).select([id_col, text_col])

    cand_docs = ds.map_batches(semi_join, batch_format="pyarrow").to_pandas()
    texts_ref = ray.put(
        dict(zip((int(v) for v in cand_docs[id_col]), cand_docs[text_col]))
    )

    def verify(batch: pa.Table) -> pa.Table:
        texts = ray.get(texts_ref)
        out = []
        for a, b in zip(batch["a"].to_pylist(), batch["b"].to_pylist()):
            ta, tb = texts.get(int(a)), texts.get(int(b))
            if ta is None or tb is None:
                continue
            inter, union = exact_jaccard(ta, tb, shingle_k)
            if union and inter / union >= min_jaccard:
                out.append((int(a), int(b), inter, union))
        arr = list(zip(*out)) if out else ([], [], [], [])
        return pa.table(
            {
                "a": pa.array(arr[0], type=pa.int64()),
                "b": pa.array(arr[1], type=pa.int64()),
                "inter": pa.array(arr[2], type=pa.int64()),
                "union_": pa.array(arr[3], type=pa.int64()),
            }
        )

    return cand.map_batches(verify, batch_format="pyarrow").sort(["a", "b"])


def minhash_incremental_dedup(
    new_ds,
    prior_ds,
    num_perm: int = 128,
    bands: int = 32,
    shingle_k: int = 3,
    min_jaccard: float = 0.5,
    text_col: str = "text",
    id_col: str = "doc_id",
    num_buckets: int = 64,
    prior_banded=None,
):
    """Keeper ids of the NEW corpus after removing docs that NEAR-duplicate
    (exact word-shingle Jaccard ≥ ``min_jaccard``) any doc of the PRIOR
    corpus — the cross-dump fuzzy-dedup step real crawl pipelines run per
    snapshot (each new dump deduped against everything already kept), the
    near-dup complement of :func:`bloom_incremental_dedup`'s exact-match
    tier. Within-corpus duplicates are deliberately NOT touched — that is
    the full-corpus :func:`minhash_lsh_pairs` → :func:`dup_clusters` job.

    Scale shape: one :class:`MinHashBandStage` pass per corpus (the prior
    corpus's band rows are exactly what a production run would PERSIST and
    re-load per dump instead of recomputing); the union'd band shuffle
    carries (band_key, id, origin-bit) only; each coarse hash bucket
    generates NEW×PRIOR pairs only (a within-corpus pair never
    materializes, so a prior corpus full of internal dups costs nothing
    here); candidate texts fetch by broadcast semi-join from each corpus
    and verify with exact Jaccard, identical to the full-corpus path.
    Returns a Dataset of keeper new-corpus ids (id_col), sorted.

    Ids must be integer-typed and the two corpora's id spaces may overlap
    freely (origin is carried separately, never encoded into the id).

    ``prior_banded``: a pre-computed (band_key, id) dataset for the prior
    corpus — pass :func:`..state.minhash_index.load_minhash_index` output
    to skip the prior-side band pass entirely (the per-dump production
    shape; the index's band parameters MUST match ``num_perm``/``bands``/
    ``shingle_k``, which the loader enforces). ``prior_ds`` is still needed
    for the candidate TEXT fetch in the verify step."""
    import ray
    import ray.data

    from ray.data.aggregate import Count

    from .aggregate import bucket_by_key

    for name, ds in (("new_ds", new_ds), ("prior_ds", prior_ds)):
        schema = ds.schema()
        id_type = dict(zip(schema.names, schema.types)).get(id_col)
        if id_type is not None and not pa.types.is_integer(id_type):
            raise TypeError(
                "minhash_incremental_dedup: %s id column %r must be "
                "integer-typed (got %s)" % (name, id_col, id_type)
            )

    stage = MinHashBandStage(num_perm, bands, shingle_k, text_col, id_col)

    def tag(origin: int):
        def fn(batch: pa.Table) -> pa.Table:
            return batch.append_column(
                "origin", pa.array(np.full(batch.num_rows, origin, np.int8))
            )

        return fn

    if prior_banded is None:
        prior_banded = prior_ds.map_batches(stage, batch_format="pyarrow")
    else:
        # a persisted index may carry its hive bucket column; the join
        # re-buckets below, so keep only the band rows
        if "_bucket" in prior_banded.schema().names:
            prior_banded = prior_banded.select_columns(["band_key", id_col])
    banded = (
        new_ds.map_batches(stage, batch_format="pyarrow")
        .map_batches(tag(1), batch_format="pyarrow")
        .union(prior_banded.map_batches(tag(0), batch_format="pyarrow"))
    )

    def cross_pairs_in_coarse_bucket(block: pd.DataFrame) -> pd.DataFrame:
        b = block.drop_duplicates(["band_key", id_col, "origin"])
        new = b[b["origin"] == 1][["band_key", id_col]]
        prior = b[b["origin"] == 0][["band_key", id_col]]
        m = new.merge(prior, on="band_key", suffixes=("_n", "_p"))
        return pd.DataFrame(
            {
                "a": m[id_col + "_n"].astype("int64").to_numpy(),
                "b": m[id_col + "_p"].astype("int64").to_numpy(),
            }
        ).drop_duplicates()

    bucketed = bucket_by_key(banded, "band_key", num_buckets)
    cand = (
        bucketed.groupby("_bucket")
        .map_groups(cross_pairs_in_coarse_bucket, batch_format="pandas")
        .groupby(["a", "b"])
        .aggregate(Count(alias_name="_c"))
        .select_columns(["a", "b"])
        .materialize()
    )

    # candidate ids per side: provably-small driver pull (ids only), same
    # bound as minhash_lsh_pairs (near-dups + LSH false positives)
    new_ids: set = set()
    prior_ids: set = set()
    for batch in cand.iter_batches(batch_format="pyarrow"):
        new_ids.update(batch["a"].to_pylist())
        prior_ids.update(batch["b"].to_pylist())

    if not new_ids:
        return new_ds.select_columns([id_col]).sort(id_col)

    def fetch(ds, wanted_ids):
        ids_ref = ray.put(pa.array(sorted(wanted_ids), type=pa.int64()))

        def semi_join(batch: pa.Table) -> pa.Table:
            keep = pc.is_in(
                pc.cast(batch[id_col], pa.int64()), value_set=ray.get(ids_ref)
            )
            return batch.filter(keep).select([id_col, text_col])

        docs = ds.map_batches(semi_join, batch_format="pyarrow").to_pandas()
        return dict(zip((int(v) for v in docs[id_col]), docs[text_col]))

    texts_ref = ray.put((fetch(new_ds, new_ids), fetch(prior_ds, prior_ids)))

    def verify(batch: pa.Table) -> pa.Table:
        new_texts, prior_texts = ray.get(texts_ref)
        dup = []
        for a, b in zip(batch["a"].to_pylist(), batch["b"].to_pylist()):
            ta, tb = new_texts.get(int(a)), prior_texts.get(int(b))
            if ta is None or tb is None:
                continue
            inter, union = exact_jaccard(ta, tb, shingle_k)
            if union and inter / union >= min_jaccard:
                dup.append(int(a))
        return pa.table({"dup_id": pa.array(sorted(set(dup)), type=pa.int64())})

    dup_new = set()
    for batch in (
        cand.map_batches(verify, batch_format="pyarrow").iter_batches(
            batch_format="pyarrow"
        )
    ):
        dup_new.update(batch["dup_id"].to_pylist())
    drop_ref = ray.put(pa.array(sorted(dup_new), type=pa.int64()))

    def keep_filter(batch: pa.Table) -> pa.Table:
        keep = pc.invert(
            pc.is_in(pc.cast(batch[id_col], pa.int64()), value_set=ray.get(drop_ref))
        )
        return batch.filter(keep)

    return (
        new_ds.select_columns([id_col])
        .map_batches(keep_filter, batch_format="pyarrow")
        .sort(id_col)
    )


# -- Bloom-filter incremental dedup ----------------------------------------


def bloom_incremental_dedup(
    new_ds,
    old_ds,
    text_col: str = "text",
    id_col: str = "doc_id",
    m_bits: int = 1 << 23,
    k: int = 7,
    verify: str = "broadcast",
):
    """Keeper ids of the NEW corpus after removing docs whose text already
    exists in the PRIOR corpus — the incremental-crawl dedup step. Bloom
    FALSE POSITIVES are removed by an exact membership verify against the
    prior corpus; dup detection is by 64-bit content hash, the same
    equality convention as :func:`exact_dedup_keepers` (a cross-corpus
    SipHash collision — ~n²/2⁶⁵ — is the accepted trade of every
    content-hash dedup). Null-text docs are kept (they cannot match prior
    text).

    Scale shape — neither corpus shuffles, and only 8-byte HASHES ever move
    between stages (never document text):

    1. build: per-batch partial Bloom bitmaps over ``hash64(text)`` of the
       prior corpus (vectorized double hashing), bitwise-OR reduce down to
       one ``m_bits/8``-byte bitmap, ``ray.put`` once.
    2. probe: each new-corpus batch tests its hashes against the broadcast
       filter — definite misses (the overwhelming majority in a mostly-fresh
       crawl) are kept immediately; the surviving candidate HASH set
       (true dups + ~0.8% FP) is deduped per batch and broadcast back.
    3. verify: the prior corpus streams once through a vectorized
       ``pc.is_in`` against the candidate hashes; the confirmed-hash set
       broadcasts for the final keep filter.

    The candidate/confirmed sets are 8 bytes per distinct duplicate text —
    ~100× smaller than the texts a naive verify would pull. For a crawl
    whose OVERLAP alone outgrows driver memory (≳10⁹ distinct dup texts)
    pass ``verify="join"``: the verify becomes a bucket-co-partitioned
    hash anti-join on the hash column — Bloom-positive new-corpus
    ``(id, hash)`` pairs and the prior corpus's per-batch-distinct hashes
    co-locate by stable hash bucket and each bucket drops confirmed dups
    vectorized; nothing ever sits on the driver. Shuffle volume = 8-byte
    hashes of the candidates plus the prior corpus's distinct hashes (the
    canonical exact-dedup exchange); the Bloom prefilter still spares the
    overwhelming fresh majority from the shuffle entirely. Both paths
    return identical keeper sets (equivalence is pinned by a test). At
    10^10+ prior keys the single broadcast bitmap also outgrows an
    object — shard the filter by hash prefix (see ``BloomFilter``
    docstring)."""
    if verify not in ("broadcast", "join"):
        raise ValueError("bloom_incremental_dedup: verify must be 'broadcast' or 'join'")
    import ray
    import ray.data

    from ..functions.sketches import BloomFilter, hash_strings64

    def partial_bloom(batch: pa.Table) -> pa.Table:
        text = batch[text_col]
        if isinstance(text, pa.ChunkedArray):
            text = text.combine_chunks()
        if pa.types.is_null(text.type):
            text = text.cast(pa.string())
        text = text.drop_null()
        bf = BloomFilter(m_bits, k)
        if len(text):
            bf.add_hashes(hash_strings64(text))
        return pa.table({"bits": pa.array([bf.bits.tobytes()], type=pa.binary())})

    # OR-reduce: bundle many partial bitmaps per task (large batch_size; the
    # num_cpus=0.9 marker differs from the upstream map's, so Ray does not
    # fuse the two and push the big batch_size onto the whole chain), then
    # a single final combine
    def or_combine(batch: pa.Table) -> pa.Table:
        acc = None
        for buf in batch["bits"].to_pylist():
            arr = np.frombuffer(buf, dtype=np.uint64)
            acc = arr.copy() if acc is None else (acc | arr)
        if acc is None:
            acc = np.zeros(m_bits // 64, dtype=np.uint64)
        return pa.table({"bits": pa.array([acc.tobytes()], type=pa.binary())})

    partials = old_ds.map_batches(partial_bloom, batch_format="pyarrow")
    combined = partials.map_batches(
        or_combine, batch_format="pyarrow", batch_size=1 << 20, num_cpus=0.9
    ).repartition(1).map_batches(or_combine, batch_format="pyarrow", batch_size=None)
    final_bits = combined.to_pandas()["bits"].iloc[0]
    bloom = BloomFilter(m_bits, k)
    bloom.bits = np.frombuffer(final_bits, dtype=np.uint64).copy()
    bloom_ref = ray.put(bloom)

    def _hashes_of(batch_text) -> np.ndarray:
        if isinstance(batch_text, pa.ChunkedArray):
            batch_text = batch_text.combine_chunks()
        if pa.types.is_null(batch_text.type):
            batch_text = batch_text.cast(pa.string())
        batch_text = batch_text.drop_null()
        if not len(batch_text):
            return np.array([], dtype=np.int64)
        return hash_strings64(batch_text).view(np.int64)

    if verify == "join":
        from .aggregate import stable_key_hash

        num_buckets = 64

        def probe_rows(batch: pa.Table) -> pa.Table:
            """(doc_id, _h, _cand): _cand rows enter the anti-join; the
            rest (Bloom miss or null text) are kept immediately."""
            bf = ray.get(bloom_ref)
            ids = pc.cast(batch[id_col], pa.int64())
            t = batch[text_col]
            if isinstance(t, pa.ChunkedArray):
                t = t.combine_chunks()
            if pa.types.is_null(t.type):
                t = t.cast(pa.string())
            null_mask = pc.is_null(t).to_numpy(zero_copy_only=False)
            h = np.zeros(len(t), dtype=np.int64)
            cand = np.zeros(len(t), dtype=bool)
            if (~null_mask).any():
                h[~null_mask] = hash_strings64(t.fill_null("")).view(np.int64)[
                    ~null_mask
                ]
                cand[~null_mask] = bf.contains(h[~null_mask].view(np.uint64))
            return pa.table(
                {id_col: ids, "_h": pa.array(h), "_cand": pa.array(cand)}
            )

        rows = new_ds.map_batches(probe_rows, batch_format="pyarrow")
        keep_direct = rows.map_batches(
            lambda b: b.filter(pc.invert(b["_cand"])).select([id_col]),
            batch_format="pyarrow",
        )

        def cand_side(batch: pa.Table) -> pa.Table:
            f = batch.filter(batch["_cand"])
            ids = f[id_col]
            if isinstance(ids, pa.ChunkedArray):
                ids = ids.combine_chunks()
            h = f["_h"]
            if isinstance(h, pa.ChunkedArray):
                h = h.combine_chunks()
            return pa.table(
                {
                    id_col: ids,
                    "_h": h,
                    "_side": pa.array(["n"] * f.num_rows, type=pa.string()),
                    "_bucket": stable_key_hash(h, num_buckets),
                }
            )

        def old_side(batch: pa.Table) -> pa.Table:
            h = pc.unique(pa.array(_hashes_of(batch[text_col])))
            return pa.table(
                {
                    # sentinel 0, NOT null: a nullable int64 column turns
                    # float64 in the pandas map_groups block, and float64
                    # rounds ids above 2^53 (the hash_join int64 hazard)
                    id_col: pa.array(np.zeros(len(h), dtype=np.int64)),
                    "_h": h,
                    "_side": pa.array(["o"] * len(h), type=pa.string()),
                    "_bucket": stable_key_hash(h, num_buckets),
                }
            )

        tagged = rows.map_batches(cand_side, batch_format="pyarrow").union(
            old_ds.map_batches(old_side, batch_format="pyarrow")
        )

        def anti(block: pd.DataFrame) -> pd.DataFrame:
            """Per-bucket vectorized anti-join: drop new rows whose hash
            exists in the prior corpus (this kills Bloom FPs too — an FP's
            hash has no old-side row in its bucket)."""
            old_h = block.loc[block["_side"] == "o", "_h"].to_numpy()
            new = block[block["_side"] == "n"]
            keep = new[~np.isin(new["_h"].to_numpy(), old_h)]
            return keep[[id_col]].astype({id_col: "int64"})

        survivors = (
            tagged.groupby("_bucket")
            .map_groups(anti, batch_format="pandas")
            # normalize back to Arrow blocks: unioning pandas blocks with
            # keep_direct's Arrow blocks breaks the downstream sort
            .map_batches(lambda b: b, batch_format="pyarrow")
        )
        return keep_direct.union(survivors).sort(id_col)

    def probe_hits(batch: pa.Table) -> pa.Table:
        """Bloom-positive HASHES only (8 bytes/candidate, deduped)."""
        bf = ray.get(bloom_ref)
        h = _hashes_of(batch[text_col])
        if not len(h):
            return pa.table({"_h": pa.array([], type=pa.int64())})
        hit = bf.contains(h.view(np.uint64))
        return pa.table({"_h": pc.unique(pa.array(h[hit]))})

    # candidate hashes: true dups + ~FP-rate of the filter, 8 B each
    cand: set = set()
    for b in (
        new_ds.map_batches(probe_hits, batch_format="pyarrow")
        .iter_batches(batch_format="pyarrow")
    ):
        cand.update(b["_h"].to_pylist())

    if cand:
        cand_arr = pa.array(sorted(cand), type=pa.int64())

        def old_matching(batch: pa.Table) -> pa.Table:
            """Exact membership verify: which candidate hashes really exist
            in the prior corpus (kills Bloom false positives)."""
            h = _hashes_of(batch[text_col])
            ha = pa.array(h)
            return pa.table(
                {"h": pc.unique(ha.filter(pc.is_in(ha, value_set=cand_arr)))}
            )

        dup_hashes = set(
            old_ds.map_batches(old_matching, batch_format="pyarrow")
            .to_pandas()["h"]
            .tolist()
        )
    else:
        dup_hashes = set()
    dup_arr = (
        pa.array(sorted(dup_hashes), type=pa.int64()) if dup_hashes else None
    )

    def keepers(batch: pa.Table) -> pa.Table:
        ids = pc.cast(batch[id_col], pa.int64())
        if dup_arr is None:
            return pa.table({id_col: ids})
        t = batch[text_col]
        if isinstance(t, pa.ChunkedArray):
            t = t.combine_chunks()
        if pa.types.is_null(t.type):
            t = t.cast(pa.string())
        null_mask = pc.is_null(t).to_numpy(zero_copy_only=False)
        h = np.zeros(len(t), dtype=np.int64)
        if (~null_mask).any():
            h[~null_mask] = hash_strings64(t.fill_null("")).view(np.int64)[
                ~null_mask
            ]
        is_dup = pc.is_in(pa.array(h), value_set=dup_arr).to_numpy(
            zero_copy_only=False
        )
        is_dup &= ~null_mask  # null text always kept
        return pa.table({id_col: ids.filter(pa.array(~is_dup))})

    return new_ds.map_batches(keepers, batch_format="pyarrow").sort(id_col)


# -- SimHash ----------------------------------------------------------------


#: Hamming-near-dup parameters: 4 bands × 16 bits over a 64-bit signature.
#: Pigeonhole: any pair at Hamming distance ≤ 3 differs in at most 3 of the
#: 4 bands, so it SHARES at least one band — banding finds every qualifying
#: pair exactly (no recall loss), unlike probabilistic MinHash banding.
SIMHASH_BANDS = 4
SIMHASH_MAX_HAMMING = SIMHASH_BANDS - 1


def _md5_token_hash64(tokens: np.ndarray) -> np.ndarray:
    """uint64 from the first 16 hex chars of md5(token) — chosen because the
    oracle can reproduce it in SQL (`('0x' || substr(md5(w),1,16))::UBIGINT`).
    Hashes the UNIQUE tokens of the batch only (a Python loop over the
    batch vocabulary, not the corpus): the oracle-parity variant trades a
    slower hash for SQL reproducibility; the fleet-scale default signature
    is the keyed-blake2b :func:`~..functions.sketches.simhash64`."""
    import hashlib as _hl

    uniq, inv = np.unique(tokens, return_inverse=True)
    hv = np.fromiter(
        (
            int(_hl.md5(t.encode("utf-8")).hexdigest()[:16], 16)
            for t in uniq
        ),
        dtype=np.uint64,
        count=len(uniq),
    )
    return hv[inv]


def simhash_md5_signatures_batch(
    text: pa.Array,
) -> tuple:
    """(row_positions int64[], signatures uint64[]) for every row with ≥1
    lowercase token — tf-weighted 64-bit SimHash over md5 token hashes,
    vectorized: one word explode, per-(doc, token) counts via pandas, bit
    matrix + signed accumulate via ``np.add.at``."""
    import pandas as pd

    from .contamination import _flat_words

    flat, idx = _flat_words(text)
    if not len(idx):
        return np.array([], dtype=np.int64), np.array([], dtype=np.uint64)
    df = pd.DataFrame({"i": idx, "w": flat.to_numpy(zero_copy_only=False)})
    per = df.groupby(["i", "w"], sort=False).size().reset_index(name="c")
    docs = per["i"].to_numpy(dtype=np.int64)
    cnts = per["c"].to_numpy(dtype=np.int64)
    hv = _md5_token_hash64(per["w"].to_numpy())
    uniq_docs, doc_pos = np.unique(docs, return_inverse=True)
    acc = np.zeros((len(uniq_docs), 64), dtype=np.int64)
    # chunked accumulate: the (rows, 64) contrib matrix is 512 B/row — a
    # batch of long docs would otherwise materialize gigabytes at once
    shifts = np.arange(64, dtype=np.uint64)
    for s in range(0, len(hv), 1 << 19):
        hv_c = hv[s : s + (1 << 19)]
        cnt_c = cnts[s : s + (1 << 19)]
        bits = ((hv_c[:, None] >> shifts) & np.uint64(1)).astype(bool)
        np.add.at(
            acc,
            doc_pos[s : s + (1 << 19)],
            np.where(bits, cnt_c[:, None], -cnt_c[:, None]),
        )
    sig_bits = acc > 0
    weights = (np.uint64(1) << np.arange(64, dtype=np.uint64))[None, :]
    sigs = np.where(sig_bits, weights, np.uint64(0)).sum(
        axis=1, dtype=np.uint64
    )
    return uniq_docs, sigs


def _popcount64(x: np.ndarray) -> np.ndarray:
    """Vectorized popcount of a uint64 array (byte-view + unpackbits)."""
    return (
        np.unpackbits(x.astype(np.uint64).reshape(-1, 1).view(np.uint8), axis=1)
        .sum(axis=1)
        .astype(np.int64)
    )


def simhash_hamming_pairs(
    ds,
    text_col: str = "text",
    id_col: str = "doc_id",
    max_hamming: int = SIMHASH_MAX_HAMMING,
    num_buckets: int = 64,
    max_band_members: int = 10_000,
):
    """Near-duplicate pairs (a, b, hamming) with Hamming(simhash_a,
    simhash_b) ≤ ``max_hamming``, a < b — EXACT result (pigeonhole banding,
    see SIMHASH_BANDS) with a full DuckDB oracle (md5-derived token hashes
    are SQL-reproducible; ``bit_count(xor(...))`` is the verifier).

    Scale shape: signature stage is embarrassingly parallel; the band
    explode ships ``SIMHASH_BANDS`` tiny rows per doc (band_key int64 +
    signature int64); per-coarse-bucket vectorized self-merge generates
    candidates exactly like the MinHash path; the Hamming verify is a
    vectorized xor+popcount per batch. No all-pairs stage anywhere."""
    from ray.data.aggregate import Count

    from .aggregate import bucket_by_key

    bands = SIMHASH_BANDS
    band_bits = 64 // bands
    if max_hamming > bands - 1:
        # the pigeonhole guarantee (pair shares >= 1 band) only holds for
        # distance <= bands - 1; a larger threshold would silently miss pairs
        raise ValueError(
            "simhash_hamming_pairs: max_hamming=%d exceeds SIMHASH_BANDS-1=%d"
            " — banding recall is exact only up to bands-1 bit flips; raise"
            " SIMHASH_BANDS (and the oracle threshold) together" % (max_hamming, bands - 1)
        )

    def band_rows(batch: pa.Table) -> pa.Table:
        text = batch[text_col]
        if isinstance(text, pa.ChunkedArray):
            text = text.combine_chunks()
        pos, sigs = simhash_md5_signatures_batch(text)
        if not len(pos):
            return pa.table(
                {
                    "band_key": pa.array([], type=pa.int64()),
                    id_col: pa.array([], type=pa.int64()),
                    "sig": pa.array([], type=pa.int64()),
                }
            )
        ids = (
            pc.take(pc.cast(batch[id_col], pa.int64()), pa.array(pos))
            .to_numpy(zero_copy_only=False)
            .astype(np.int64)
        )
        mask = np.uint64((1 << band_bits) - 1)
        keys = np.empty((len(sigs), bands), dtype=np.int64)
        for b in range(bands):
            seg = (sigs >> np.uint64(b * band_bits)) & mask
            # band index folded into the key so equal segments of different
            # bands never collide into one bucket
            keys[:, b] = (seg.astype(np.int64) << 3) | b
        return pa.table(
            {
                "band_key": pa.array(keys.reshape(-1)),
                id_col: pa.array(np.repeat(ids, bands)),
                "sig": pa.array(np.repeat(sigs.view(np.int64), bands)),
            }
        )

    banded = ds.map_batches(band_rows, batch_format="pyarrow")
    bucketed = bucket_by_key(banded, "band_key", num_buckets)

    def pairs_in_coarse_bucket(block: pd.DataFrame) -> pd.DataFrame:
        b = block.drop_duplicates(["band_key", id_col])[
            ["band_key", id_col, "sig"]
        ]
        hot = b.groupby("band_key", sort=False).size()
        if len(hot) and int(hot.max()) > max_band_members:
            # same skew principle as JACCARD_MAX_BLOCK_ROWS: a band key with
            # n members self-merges into n² rows in ONE task — fail loudly.
            # Identical signatures (exact duplicates) are the usual cause;
            # run exact dedup first, or raise max_band_members explicitly.
            raise ValueError(
                "simhash_hamming_pairs: band key %r has %d members "
                "(> max_band_members=%d) — deduplicate exact copies first "
                "or raise max_band_members"
                % (hot.idxmax(), int(hot.max()), max_band_members)
            )
        m = b.merge(b, on="band_key", suffixes=("_a", "_b"))
        m = m[m[id_col + "_a"] < m[id_col + "_b"]]
        if not len(m):
            return pd.DataFrame(
                {
                    "a": pd.Series(dtype="int64"),
                    "b": pd.Series(dtype="int64"),
                    "hamming": pd.Series(dtype="int64"),
                }
            )
        xa = m["sig_a"].to_numpy().astype(np.int64).view(np.uint64)
        xb = m["sig_b"].to_numpy().astype(np.int64).view(np.uint64)
        ham = _popcount64(xa ^ xb)
        out = pd.DataFrame(
            {
                "a": m[id_col + "_a"].astype("int64").to_numpy(),
                "b": m[id_col + "_b"].astype("int64").to_numpy(),
                "hamming": ham,
            }
        )
        return out[out["hamming"] <= max_hamming].drop_duplicates(["a", "b"])

    cand = bucketed.groupby("_bucket").map_groups(
        pairs_in_coarse_bucket, batch_format="pandas"
    )

    def partial_distinct(batch: pa.Table) -> pa.Table:
        return batch.group_by(["a", "b", "hamming"]).aggregate([])

    # (a, b) determines hamming (one signature per doc), so distinct over
    # all three columns is the pair-dedup across bands
    return (
        cand.map_batches(partial_distinct, batch_format="pyarrow")
        .groupby(["a", "b", "hamming"])
        .aggregate(Count(alias_name="_c"))
        .select_columns(["a", "b", "hamming"])
        .sort(["a", "b"])
    )


def simhash_signatures(ds, text_col: str = "text", id_col: str = "doc_id"):
    """(id, simhash hex string) per doc — identical signatures are near-dup
    buckets; hex keeps the driver/oracle comparison integer-free."""

    def add_simhash(batch: pa.Table) -> pa.Table:
        sigs = [
            ("%016x" % simhash64(t)) if t is not None and t.split() else None
            for t in batch[text_col].to_pylist()
        ]
        return batch.select([id_col]).append_column("simhash", pa.array(sigs, type=pa.string()))

    return ds.map_batches(add_simhash, batch_format="pyarrow").sort(id_col)


# -- token-set Jaccard within blocking key (oracle-expressible) -------------


#: all-pairs validators refuse blocks bigger than this: a skewed block key
#: must fail loudly instead of handing one task n²/2 Python comparisons.
#: 5000 rows ⇒ ≤ 12.5M comparisons per block — minutes, not days.
JACCARD_MAX_BLOCK_ROWS = 5000


def _check_block_cap(
    n: int, key, max_rows: int, fn_name: str, cap_name: str = "max_block_rows"
) -> None:
    """Raise when block ``key`` has ``n`` rows over the cap ``cap_name``
    (the caller's keyword, named in the message so it says what to raise)."""
    if n > max_rows:
        raise ValueError(
            "%s: block %r has %d rows (> %s=%d) — the all-pairs "
            "validator is O(n²) per block and exists as an oracle cross-check;"
            " use the MinHash+LSH path (minhash_lsh_pairs) for skewed/large "
            "blocks, or raise %s explicitly"
            % (fn_name, key, n, cap_name, max_rows, cap_name)
        )


def jaccard_pairs_by_block(
    ds,
    block_col: str = "source",
    min_ratio: float = 0.5,
    text_col: str = "text",
    id_col: str = "doc_id",
    max_block_rows: int = JACCARD_MAX_BLOCK_ROWS,
):
    """Unigram-token-set Jaccard for every doc pair sharing ``block_col``:
    rows (a, b, inter, union) with inter/union ≥ min_ratio, a < b.
    Integer outputs → exact oracle comparison (see oracle SQL in
    __ray_entry__). Blocks over ``max_block_rows`` raise (skew guard)."""

    def pairs(group: pd.DataFrame) -> pd.DataFrame:
        _check_block_cap(
            len(group),
            group[block_col].iloc[0] if len(group) else None,
            max_block_rows,
            "jaccard_pairs_by_block",
        )
        rows = group.sort_values(id_col)
        items = list(zip(rows[id_col], rows[text_col]))
        out = []
        for i in range(len(items)):
            for j in range(i + 1, len(items)):
                (ida, ta), (idb, tb) = items[i], items[j]
                if ta is None or tb is None:
                    continue
                inter, union = token_set_jaccard(ta, tb)
                if union and inter / union >= min_ratio:
                    out.append((ida, idb, inter, union))
        return pd.DataFrame(out, columns=["a", "b", "inter", "union_"])

    return (
        ds.select_columns([block_col, id_col, text_col])
        .groupby(block_col)
        .map_groups(pairs, batch_format="pandas")
        .sort(["a", "b"])
    )


def ngram_jaccard_pairs_by_block(
    ds,
    block_col: str = "lang",
    shingle_k: int = 3,
    threshold_num: int = 1,
    threshold_den: int = 50,
    text_col: str = "text",
    id_col: str = "doc_id",
    max_block_rows: int = JACCARD_MAX_BLOCK_ROWS,
):
    """Word-k-gram shingle-set Jaccard for every doc pair sharing
    ``block_col``: rows (a, b, inter, union_) with
    ``inter * threshold_den >= union * threshold_num`` (pure integer
    threshold, so the DuckDB oracle comparison has no float boundary),
    a < b. The shingle sets match the MinHash stage's ``word_shingles``.
    Blocks over ``max_block_rows`` raise (skew guard)."""

    def pairs(group: pd.DataFrame) -> pd.DataFrame:
        from ..functions.sketches import word_shingles

        _check_block_cap(
            len(group),
            group[block_col].iloc[0] if len(group) else None,
            max_block_rows,
            "ngram_jaccard_pairs_by_block",
        )
        rows = group.sort_values(id_col)
        items = [
            (i, word_shingles(t, shingle_k))
            for i, t in zip(rows[id_col], rows[text_col])
            if t is not None and t.strip()
        ]
        out = []
        for i in range(len(items)):
            for j in range(i + 1, len(items)):
                (ida, sa), (idb, sb) = items[i], items[j]
                inter = len(sa & sb)
                union = len(sa | sb)
                if union and inter * threshold_den >= union * threshold_num:
                    out.append((ida, idb, inter, union))
        return pd.DataFrame(out, columns=["a", "b", "inter", "union_"])

    return (
        ds.select_columns([block_col, id_col, text_col])
        .groupby(block_col)
        .map_groups(pairs, batch_format="pandas")
        .sort(["a", "b"])
    )


# -- duplicate clusters (connected components over verified pairs) ---------


def dup_clusters(pairs_ds, a_col: str = "a", b_col: str = "b"):
    """Connected components over verified near-duplicate pairs: rows
    (doc_id, cluster_id) where cluster_id = min doc id in the component,
    for every doc appearing in at least one pair.

    The pair set is the *verified* near-dup output — orders of magnitude
    smaller than the corpus by construction — so union-find runs on the
    driver (the sanctioned shape for provably-small candidate sets); the
    expensive part (pair generation) stays distributed. For pathological
    pair volumes switch to iterated min-label propagation with groupby
    rounds."""
    edges = pairs_ds.select_columns([a_col, b_col]).to_pandas()
    parent: dict = {}

    def find(x):
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    for a, b in zip(edges[a_col], edges[b_col]):
        a, b = int(a), int(b)
        parent.setdefault(a, a)
        parent.setdefault(b, b)
        ra, rb = find(a), find(b)
        if ra != rb:
            # union by smaller id so the root IS the cluster id
            lo, hi = (ra, rb) if ra < rb else (rb, ra)
            parent[hi] = lo

    import ray.data

    nodes = sorted(parent)
    table = pa.table(
        {
            "doc_id": pa.array(nodes, type=pa.int64()),
            "cluster_id": pa.array([find(n) for n in nodes], type=pa.int64()),
        }
    )
    return ray.data.from_arrow(table)


def label_propagation_clusters(pairs_ds, a_col: str = "a", b_col: str = "b",
                               max_rounds: int = 50, num_buckets: int = 32):
    """Distributed connected components by iterated min-label propagation —
    the scale path for pair sets too large for driver union-find. Entirely
    shuffle-based: no broadcast of the label table, no driver-side state
    beyond one scalar per round.

    One round: HASH-JOIN the label table to the half-edge list on ``node``
    (bucket-co-partitioned ``stages.joins.hash_join`` — the exchange is a
    bounded-bucket join, not one pandas group per node), send each node's
    label to every neighbor, union the nodes' own labels, then
    ``groupby(node).min`` adopts the smallest proposal; a POINTER-DOUBLING
    self-join (label ← label[label]) then short-circuits long chains, so
    convergence takes O(log diameter) rounds, not O(diameter). Labels only
    ever decrease, so ``sum(label)`` is strictly decreasing until
    convergence — the stopping test is a single scalar aggregate, not a
    dataset diff.

    Returns rows (doc_id, cluster_id = min id in component)."""
    import ray.data
    from ray.data.aggregate import Min, Sum

    from .joins import hash_join

    def checkpoint(ds):
        # sever lineage COMPLETELY between rounds: plain materialize() keeps
        # the logical plan chained, and because each round references the
        # previous labels twice (join left + doubling side) the driver-side
        # plan tree doubles per round — measured 2× wall per round until a
        # 12-round run took minutes of pure plan traversal. Rebuilding from
        # the materialized block refs makes every round O(1) on the driver.
        return ray.data.from_arrow_refs(ds.to_arrow_refs())

    def explode(batch: pa.Table) -> pa.Table:
        a = batch[a_col].combine_chunks() if isinstance(batch[a_col], pa.ChunkedArray) else batch[a_col]
        b = batch[b_col].combine_chunks() if isinstance(batch[b_col], pa.ChunkedArray) else batch[b_col]
        node = pa.concat_arrays([a.cast(pa.int64()), b.cast(pa.int64())])
        neigh = pa.concat_arrays([b.cast(pa.int64()), a.cast(pa.int64())])
        return pa.table({"node": node, "neigh": neigh})

    half_edges = checkpoint(pairs_ds.map_batches(explode, batch_format="pyarrow"))

    # initial labels: own id (distinct nodes from the half-edge list)
    labels = checkpoint(
        half_edges.groupby("node").aggregate(Min("node", alias_name="label"))
    )

    def to_neighbor(batch: pa.Table) -> pa.Table:
        neigh = batch["neigh"]
        label = batch["label"]
        return pa.table(
            {
                "node": neigh.combine_chunks() if isinstance(neigh, pa.ChunkedArray) else neigh,
                "label": label.combine_chunks() if isinstance(label, pa.ChunkedArray) else label,
            }
        )

    def relabel(batch: pa.Table) -> pa.Table:
        # after the doubling self-join: adopt the label's label
        lbl2 = batch["label2"]
        node = batch["node"]
        return pa.table(
            {
                "node": node.combine_chunks() if isinstance(node, pa.ChunkedArray) else node,
                "label": lbl2.combine_chunks() if isinstance(lbl2, pa.ChunkedArray) else lbl2,
            }
        )

    def bundle(ds):
        # union+aggregate DOUBLE the label table's block count every round
        # (measured: 1→3→7→15… micro-blocks, and per-block operator overhead
        # then dominates); bundle into ~1M-row blocks after each exchange.
        # The num_cpus=0.9 marker differs from the upstream ops' CPU request,
        # so Ray does not fuse this op into them and push the big
        # batch_size onto the whole chain.
        return ds.map_batches(
            lambda b: b, batch_format="pyarrow", batch_size=1 << 20, num_cpus=0.9
        )

    prev_sum = None
    for _ in range(max_rounds):
        # (node, neigh) ⋈ (node, label) → each half-edge carries its node's
        # current label; retargeted to the neighbor it proposes to
        joined = hash_join(half_edges, labels, "node", "node", num_buckets=num_buckets)
        proposals = joined.map_batches(to_neighbor, batch_format="pyarrow")
        labels = checkpoint(
            bundle(
                proposals.union(labels)
                .groupby("node")
                .aggregate(Min("label", alias_name="label"))
            )
        )  # consumed twice below (join left + self side)
        # pointer doubling: label ← label[label]. Every label value is itself
        # a node (the min id of some subset), so the 1:1 self-join never
        # drops rows; chains halve every round → O(log diameter) rounds.
        renamed = labels.map_batches(
            lambda b: b.rename_columns(["node2", "label2"]), batch_format="pyarrow"
        )
        doubled = hash_join(
            labels, renamed, "label", "node2", num_buckets=num_buckets
        )
        labels = checkpoint(bundle(doubled.map_batches(relabel, batch_format="pyarrow")))
        total = labels.aggregate(Sum("label", alias_name="s"))["s"]
        if total == prev_sum:
            break
        prev_sum = total

    return labels.map_batches(
        lambda b: b.rename_columns(["doc_id", "cluster_id"]), batch_format="pyarrow"
    ).sort("doc_id")


def filter_non_keepers(ds, clusters_ds, id_col: str = "doc_id"):
    """Broadcast anti-join: drop every doc that belongs to a near-dup
    cluster but is not its representative (min id). The drop-set is tiny
    (≤ #near-dups), so it ships once via ``ray.put`` and each batch filters
    vectorized — no shuffle join (the guide's semi/anti-join shape)."""
    import ray

    clusters = clusters_ds.to_pandas()
    drop = sorted(
        int(d) for d, c in zip(clusters["doc_id"], clusters["cluster_id"]) if d != c
    )
    drop_ref = ray.put(pa.array(drop, type=pa.int64()))

    def anti_join(batch: pa.Table) -> pa.Table:
        drop_arr = ray.get(drop_ref)
        keep = pc.invert(
            pc.is_in(pc.cast(batch[id_col], pa.int64()), value_set=drop_arr)
        )
        return batch.filter(keep)

    return ds.map_batches(anti_join, batch_format="pyarrow")


# -- embedding cosine near-dup ---------------------------------------------


def embedding_dup_pairs(
    ds,
    min_cosine: float = 0.9,
    vec_col: str = "embedding",
    id_col: str = "vec_id",
    num_blocks: int = 8,
):
    """All pairs with cosine ≥ min_cosine, computed EXACTLY via a block-grid
    self-join (no driver materialization, no full-matrix broadcast). Output
    (a, b) int64 pairs, a < b.

    Scale shape: every vector lands in bucket ``id % num_blocks``; a row in
    bucket p is replicated to the grid cells {(i,p): i ≤ p} ∪ {(p,j): j ≥ p}
    (``num_blocks`` copies), ``groupby(cell)`` co-locates each cell's two
    buckets, and one numpy matmul per cell scores that block pair. Each
    unordered pair of vectors meets in exactly one cell → exact results.
    Shuffle volume = num_blocks × corpus; per-task memory = 2·n/num_blocks
    vectors — pick ``num_blocks ≈ corpus_bytes / task_budget`` at fleet
    scale. (LSH bucketing is *not* used here: near-threshold cosines make
    probabilistic recall < 1, which breaks the exact contract; the LSH scale
    path for top-k lives in similarity.lsh_topk.)

    ``embedding_dup_pairs_broadcast`` keeps the one-pass broadcast variant as
    an independent cross-check (tests assert equality)."""

    B = num_blocks

    def to_grid(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return pa.table(
                {
                    "cell": pa.array([], type=pa.int64()),
                    "bucket": pa.array([], type=pa.int64()),
                    id_col: pa.array([], type=pa.int64()),
                    vec_col: pa.array([], type=batch[vec_col].type),
                }
            )
        ids = pc.cast(batch[id_col], pa.int64())
        if isinstance(ids, pa.ChunkedArray):
            ids = ids.combine_chunks()
        buckets = np.asarray(ids) % B
        # replicate: row in bucket p goes to every cell pairing p with
        # another bucket (B copies each) — fully vectorized: cell id is the
        # integer i*B + j for the ordered pair (i ≤ j)
        n = len(buckets)
        p_rep = np.repeat(buckets, B)
        other = np.tile(np.arange(B, dtype=np.int64), n)
        lo = np.minimum(p_rep, other)
        hi = np.maximum(p_rep, other)
        cells = lo * B + hi
        idx = pa.array(np.repeat(np.arange(n, dtype=np.int64), B))
        return pa.table(
            {
                "cell": pa.array(cells, type=pa.int64()),
                "bucket": pa.array(p_rep, type=pa.int64()),
                id_col: pc.take(ids, idx),
                vec_col: pc.take(
                    batch[vec_col].combine_chunks()
                    if isinstance(batch[vec_col], pa.ChunkedArray)
                    else batch[vec_col],
                    idx,
                ),
            }
        )

    def cell_pairs(group: pd.DataFrame) -> pd.DataFrame:
        cell = int(group["cell"].iloc[0])
        i, j = divmod(cell, B)
        # rows arriving for a cell are deduped per (bucket, id): a vector is
        # sent once per cell, but defensively drop repeats
        group = group.drop_duplicates(subset=["bucket", id_col])
        sides = {}
        for side in (i, j):
            rows = group[group["bucket"] == side]
            if len(rows) == 0:
                sides[side] = (None, None)
                continue
            ids_ = rows[id_col].to_numpy()
            mat = np.stack(rows[vec_col].to_numpy()).astype(np.float64)
            norms = np.linalg.norm(mat, axis=1)
            norms[norms == 0] = 1.0
            sides[side] = (ids_, mat / norms[:, None])
        ids_i, mat_i = sides[i]
        if ids_i is None:
            return pd.DataFrame({"a": [], "b": []}, dtype="int64")
        if i == j:
            # within-bucket sims matrix holds each unordered pair twice
            # (and the self diagonal): keep the a < b orientation only
            sims = mat_i @ mat_i.T
            ra, rb = np.nonzero(sims >= min_cosine)
            a, b = ids_i[ra], ids_i[rb]
            keep = a < b
            a, b = a[keep], b[keep]
        else:
            ids_j, mat_j = sides[j]
            if ids_j is None:
                return pd.DataFrame({"a": [], "b": []}, dtype="int64")
            # cross-bucket: each unordered pair appears exactly once —
            # ORIENT (swap to min/max), never drop
            sims = mat_i @ mat_j.T
            ra, rb = np.nonzero(sims >= min_cosine)
            x, y = ids_i[ra], ids_j[rb]
            a, b = np.minimum(x, y), np.maximum(x, y)
        return pd.DataFrame({"a": a.astype("int64"), "b": b.astype("int64")})

    grid = ds.select_columns([id_col, vec_col]).map_batches(to_grid, batch_format="pyarrow")
    return grid.groupby("cell").map_groups(cell_pairs, batch_format="pandas").sort(["a", "b"])


def embedding_dup_pairs_broadcast(
    ds,
    min_cosine: float = 0.9,
    vec_col: str = "embedding",
    id_col: str = "vec_id",
):
    """One-pass broadcast variant of :func:`embedding_dup_pairs` — the whole
    normalized matrix ships once via ``ray.put`` and each batch matmuls
    against it. Valid while the matrix fits a worker heap; kept as the
    independent cross-check for the grid path."""
    import ray

    mat_tbl = ds.select_columns([id_col, vec_col]).to_pandas()
    ids = mat_tbl[id_col].to_numpy()
    mat = np.stack(mat_tbl[vec_col].to_numpy()).astype(np.float64)
    norms = np.linalg.norm(mat, axis=1)
    norms[norms == 0] = 1.0
    matn = mat / norms[:, None]
    ref = ray.put((ids, matn))

    def batch_pairs(batch: pa.Table) -> pa.Table:
        from .similarity import list_column_to_matrix

        ref_ids, ref_mat = ray.get(ref)
        bids = np.asarray(batch[id_col])
        bmat = list_column_to_matrix(batch[vec_col])
        bn = np.linalg.norm(bmat, axis=1)
        bn[bn == 0] = 1.0
        bmat = bmat / bn[:, None]
        sims = bmat @ ref_mat.T
        rows_a, rows_b = np.nonzero(sims >= min_cosine)
        a = bids[rows_a]
        b = ref_ids[rows_b]
        keep = a < b  # dedupe + drop self
        return pa.table({"a": pa.array(a[keep]), "b": pa.array(b[keep])})

    return ds.map_batches(batch_pairs, batch_format="pyarrow").sort(["a", "b"])


def semdedup_clustered_pairs(
    ds,
    centroids: np.ndarray,
    min_cosine: float = 0.9,
    vec_col: str = "embedding",
    id_col: str = "vec_id",
    max_cluster_rows: int = 200_000,
):
    """SemDeDup's corpus-scale pair path: kmeans cluster partitioning →
    exact cosine pairs WITHIN each cluster only.  Output (a, b) int64 pairs,
    a < b, restricted to same-cluster pairs — the deliberate SemDeDup
    approximation (Abbas et al. 2023: semantic dedup searches within
    k-means clusters, never across), which turns the all-pairs O(n²) into
    Σ cluster_size² ≪ n² when k is sized so clusters stay small.

    One map pass attaches the integer-exact cluster id (same `_assign`
    algebra as :func:`clustering.kmeans_fit`, so an oracle built from the
    same centroid literals reproduces the partition bit-for-bit), one
    ``groupby(cluster)`` co-locates each cluster, one numpy matmul scores
    it.  Shuffle volume = 1× corpus (vs num_blocks× for the exact grid).
    ``max_cluster_rows`` is the skew guard: a cluster too big for one
    task's matmul raises loudly — resize k upstream rather than silently
    degrade.  The exact block-grid (:func:`embedding_dup_pairs`) remains
    the exactness cross-check; tests pin that this path equals the grid
    path filtered to within-cluster pairs."""
    import ray

    cent_ref = ray.put(np.ascontiguousarray(centroids, dtype=np.int64))

    def attach(batch: pa.Table) -> pa.Table:
        from .clustering import _assign, _milli_matrix

        if batch.num_rows == 0:
            return pa.table(
                {
                    "cluster": pa.array([], type=pa.int64()),
                    id_col: pa.array([], type=pa.int64()),
                    vec_col: pa.array([], type=batch[vec_col].type),
                }
            )
        cents = ray.get(cent_ref)
        mat = _milli_matrix(batch, vec_col)
        return pa.table(
            {
                "cluster": pa.array(_assign(mat, cents).astype(np.int64)),
                id_col: pc.cast(batch[id_col], pa.int64()),
                vec_col: batch[vec_col].combine_chunks()
                if isinstance(batch[vec_col], pa.ChunkedArray)
                else batch[vec_col],
            }
        )

    def cluster_pairs(group: pd.DataFrame) -> pd.DataFrame:
        _check_block_cap(
            len(group),
            int(group["cluster"].iloc[0]) if len(group) else None,
            max_cluster_rows,
            "semdedup_clustered_pairs",
            "max_cluster_rows",
        )
        empty = pd.DataFrame({"a": pd.Series(dtype="int64"),
                              "b": pd.Series(dtype="int64")})
        if len(group) < 2:
            return empty
        ids = group[id_col].to_numpy()
        mat = np.stack(group[vec_col].to_numpy()).astype(np.float64)
        norms = np.linalg.norm(mat, axis=1)
        norms[norms == 0] = 1.0
        matn = mat / norms[:, None]
        sims = matn @ matn.T
        ra, rb = np.nonzero(sims >= min_cosine)
        a, b = ids[ra], ids[rb]
        keep = a < b
        return pd.DataFrame({"a": a[keep].astype("int64"),
                             "b": b[keep].astype("int64")})

    withc = ds.select_columns([id_col, vec_col]).map_batches(
        attach, batch_format="pyarrow"
    )
    return (
        withc.groupby("cluster")
        .map_groups(cluster_pairs, batch_format="pandas")
        .sort(["a", "b"])
    )


def edit_distance_pairs(
    ds,
    block_cols=("lang", "source"),
    id_col: str = "doc_id",
    text_col: str = "text",
    prefix_chars: int = 64,
    max_dist: int = 40,
    max_block_rows: int = JACCARD_MAX_BLOCK_ROWS,
):
    """Levenshtein near-dup pairs within blocks: (a, b, dist) for every
    same-block pair whose edit distance over the UTF-8 BYTES of the first
    ``prefix_chars`` characters is ≤ ``max_dist`` (a < b).

    Byte-based on purpose: DuckDB's ``levenshtein()`` edits bytes, not
    codepoints (levenshtein('héllo','hello') = 2), so the oracle matches
    exactly for any input. The prefix bound makes the kernel O(prefix²)
    per pair regardless of document length — this is a validation-grade
    near-dup signal like the blocked Jaccard family (same skew cap; the
    MinHash path remains the unbounded-scale default).

    The DP is vectorized across ALL of a block's pairs at once — no
    Python pair loop: one (pairs × bytes) row per DP step, with the
    in-row dependency resolved by the classic min-accumulate carry
    (cur[j] = j + running-min of (t[k] − k))."""
    import numpy as np

    cols = list(block_cols)

    def pairs(group: pd.DataFrame) -> pd.DataFrame:
        _check_block_cap(
            len(group),
            tuple(group[c].iloc[0] for c in cols) if len(group) else None,
            max_block_rows,
            "edit_distance_pairs",
        )
        g = group[group[text_col].notna()].sort_values(id_col)
        n = len(g)
        empty = pd.DataFrame(
            {
                "a": pd.Series(dtype="int64"),
                "b": pd.Series(dtype="int64"),
                "dist": pd.Series(dtype="int64"),
            }
        )
        if n < 2:
            return empty
        ids = g[id_col].to_numpy()
        texts = [t[:prefix_chars].encode("utf-8") for t in g[text_col]]
        lens = np.array([len(t) for t in texts], dtype=np.int16)
        L = int(lens.max())
        enc = np.full((n, L), -1, dtype=np.int16)
        for i, t in enumerate(texts):  # per-DOC fill, not per pair
            enc[i, : len(t)] = np.frombuffer(t, dtype=np.uint8)

        ia, ib = np.triu_indices(n, k=1)
        A, B = enc[ia], enc[ib]
        la, lb = lens[ia].astype(np.int64), lens[ib].astype(np.int64)
        P = len(ia)
        idx = np.arange(L + 1, dtype=np.int16)
        prev = np.broadcast_to(idx, (P, L + 1)).astype(np.int16)
        res = np.zeros(P, dtype=np.int16)
        m0 = la == 0
        res[m0] = lb[m0]
        rows = np.arange(P)
        for i in range(1, int(la.max()) + 1 if P else 1):
            cost = (A[:, i - 1][:, None] != B).astype(np.int16)
            t = np.empty((P, L + 1), dtype=np.int16)
            t[:, 0] = i
            np.minimum(prev[:, 1:] + 1, prev[:, :-1] + cost, out=t[:, 1:])
            cur = np.minimum.accumulate(t - idx, axis=1) + idx
            snap = la == i
            if snap.any():
                res[snap] = cur[rows[snap], lb[snap]]
            prev = cur
        keep = res <= max_dist
        return pd.DataFrame(
            {
                "a": ids[ia[keep]].astype(np.int64),
                "b": ids[ib[keep]].astype(np.int64),
                "dist": res[keep].astype(np.int64),
            }
        )

    def drop_null_blocks(batch: pa.Table) -> pa.Table:
        # a NULL block key never equi-joins in the SQL oracle (NULL = NULL
        # is not true) — Ray's groupby would otherwise pair such rows
        import pyarrow.compute as pc

        mask = pc.is_valid(batch[cols[0]])
        for c in cols[1:]:
            mask = pc.and_(mask, pc.is_valid(batch[c]))
        return batch.filter(mask)

    return (
        ds.select_columns(cols + [id_col, text_col])
        .map_batches(drop_null_blocks, batch_format="pyarrow")
        .groupby(cols)
        .map_groups(pairs, batch_format="pandas")
        .sort(["a", "b"])
    )


# -- prefix-filter set-similarity join (PPJoin-style) -----------------------

#: skew guard for one prefix-token candidate group — prefix tokens are each
#: doc's RAREST tokens under the global (count, token) order, so a group this
#: large means the corpus or threshold is pathological; fail loudly rather
#: than emit a quadratic candidate block.
PREFIX_MAX_GROUP = 5000


def prefix_filter_jaccard_pairs(
    docs_ds,
    threshold_num: int = 1,
    threshold_den: int = 2,
    text_col: str = "text",
    id_col: str = "doc_id",
    num_buckets: int = 32,
    max_group: int = PREFIX_MAX_GROUP,
    max_broadcast_docs: int = 500_000,
    positional_filter: bool = True,
):
    """GLOBAL (blocking-free) token-set Jaccard join via prefix filtering —
    the PPJoin-family scale path that replaces the O(n²)-per-block
    validators (`jaccard_pairs_by_block`) when no safe blocking key exists.
    Rows (a, b, inter, union_) with a < b and
    ``inter * threshold_den >= union_ * threshold_num``.

    Algorithm (public: Chaudhuri et al. SSJoin / Xiao et al. PPJoin):
    order all tokens by ascending global frequency (total order =
    (count, token)); a pair with Jaccard ≥ t MUST share a token inside each
    side's first ``|x| - ceil(t·|x|) + 1`` tokens under that order, so only
    prefix-token groups generate candidates, with the size filter
    ``larger·num ≤ smaller·den`` applied inside the group. Candidates are
    then verified exactly.

    Scale shape: every stage is a partitioned exchange —
    (1) per-batch vectorized explode to distinct (doc, token);
    (2) token counts (vocab-sized groupby);
    (3) one hash_join tok ⋈ counts (both sides large, no broadcast);
    (4) doc-bucketed prefix selection (vectorized rank-vs-prefix-len);
    (5) token-bucketed candidate pair generation (numpy triu, skew-capped,
        per-bucket dedup after an a-bucketed distinct);
    (6) verification joins the (small-by-filter-design) candidate set to
        per-doc token lists with two more hash_joins; the only per-row
        Python is the final set-intersection over verified candidates.
    Nothing whole-corpus ever reaches the driver."""
    import pandas as pd

    from .contamination import _flat_words
    from ..stages.aggregate import bucket_by_key, grouped_counts
    from ..stages.joins import hash_join

    def explode(batch: pa.Table) -> pa.Table:
        text = batch[text_col]
        if isinstance(text, pa.ChunkedArray):
            text = text.combine_chunks()
        flat, idx = _flat_words(text)  # lowercased, empty rows removed
        ids = pc.take(pc.cast(batch[id_col], pa.int64()), pa.array(idx))
        df = pd.DataFrame(
            {"doc": ids.to_numpy(zero_copy_only=False),
             "w": flat.to_numpy(zero_copy_only=False)}
        ).drop_duplicates()  # a doc is one row → batch-local distinct is global
        return pa.table(
            {"doc": pa.array(df["doc"].to_numpy(), type=pa.int64()),
             "w": pa.array(df["w"], type=pa.string())}
        )

    def _empty_pairs():
        # one return type everywhere: an empty typed Dataset (callers chain
        # Dataset ops; NOTE Ray's to_pandas drops columns on 0 rows — use
        # .schema() for names on the empty path)
        import ray.data

        return ray.data.from_arrow(
            pa.table(
                {
                    "a": pa.array([], type=pa.int64()),
                    "b": pa.array([], type=pa.int64()),
                    "inter": pa.array([], type=pa.int64()),
                    "union_": pa.array([], type=pa.int64()),
                }
            )
        )

    tok = docs_ds.select_columns([id_col, text_col]).map_batches(
        explode, batch_format="pyarrow"
    ).materialize()  # reused by counts, prefixes AND verification
    if tok.count() == 0:  # all-empty corpus: no tokens, no pairs
        return _empty_pairs()

    counts = grouped_counts(tok.select_columns(["w"]), ["w"], count_alias="cnt")
    tok_cnt = hash_join(tok, counts, "w", "w", num_buckets=num_buckets)

    def prefixes(df: pd.DataFrame) -> pd.DataFrame:
        if not len(df):  # empty group block
            return pd.DataFrame(
                {
                    "w": pd.Series([], dtype="object"),
                    "doc": pd.Series([], dtype="int64"),
                    "size": pd.Series([], dtype="int64"),
                    "rank": pd.Series([], dtype="int64"),
                }
            )
        df = df.sort_values(["doc", "cnt", "w"])
        size = df.groupby("doc", sort=False)["w"].transform("size").to_numpy()
        rank = df.groupby("doc", sort=False).cumcount().to_numpy()
        # prefix length for Jaccard t = num/den: s - ceil(t*s) + 1
        ceil_ts = (threshold_num * size + threshold_den - 1) // threshold_den
        keep = rank < (size - ceil_ts + 1)
        out = df[keep][["w", "doc"]].copy()
        out["size"] = size[keep]
        # token's 0-based position in the doc's frequency-ordered token list
        # — carried for the positional filter in gen_pairs
        out["rank"] = rank[keep]
        return out

    pref = (
        bucket_by_key(tok_cnt.select_columns(["doc", "w", "cnt"]), "doc", num_buckets)
        .groupby("_bucket")
        .map_groups(prefixes, batch_format="pandas")
    )

    def gen_pairs(df: pd.DataFrame) -> pd.DataFrame:
        outs = []
        for w, g in df.groupby("w", sort=False):
            n = len(g)
            if n < 2:
                continue
            if n > max_group:
                raise ValueError(
                    "prefix_filter_jaccard_pairs: prefix-token group %r has "
                    "%d docs (> max_group=%d) — quadratic candidate block; "
                    "raise the threshold or max_group explicitly" % (w, n, max_group)
                )
            g = g.sort_values(["size", "doc"])
            docs = g["doc"].to_numpy()
            sizes = g["size"].to_numpy()
            ranks = g["rank"].to_numpy()
            ai, bi = np.triu_indices(n, 1)
            # LENGTH filter (PPJoin): i < j ⇒ sizes[ai] <= sizes[bi];
            # J >= t needs larger * num <= smaller * den
            ok = sizes[bi] * threshold_num <= sizes[ai] * threshold_den
            ai, bi = ai[ok], bi[ok]
            # POSITIONAL filter (PPJoin, Xiao et al.): J >= t needs overlap
            # alpha = ceil(t/(1+t) * (sx+sy)); sharing THIS token at 0-based
            # positions (px, py) bounds the overlap by
            # 1 + min(sx-px-1, sy-py-1) = min(sx-px, sy-py). The bound is
            # tight only at a pair's FIRST shared prefix token, but pairs
            # are generated at EVERY shared token and unioned, so a true
            # pair always survives via its first shared token — the filter
            # only prunes, never loses (verification stays exact besides).
            rem = sizes - ranks
            alpha = (
                threshold_num * (sizes[ai] + sizes[bi])
                + threshold_num
                + threshold_den
                - 1
            ) // (threshold_num + threshold_den)
            if positional_filter:
                okp = np.minimum(rem[ai], rem[bi]) >= alpha
                ai, bi = ai[okp], bi[okp]
            outs.append(pd.DataFrame({
                "a": np.minimum(docs[ai], docs[bi]),
                "b": np.maximum(docs[ai], docs[bi]),
            }))
        if not outs:
            return pd.DataFrame({"a": pd.Series([], dtype="int64"),
                                 "b": pd.Series([], dtype="int64")})
        return pd.concat(outs).drop_duplicates()

    cand = (
        bucket_by_key(pref, "w", num_buckets)
        .groupby("_bucket")
        .map_groups(gen_pairs, batch_format="pandas")
    )
    # global pair dedup: same (a,b) from different prefix tokens lands in the
    # same a-bucket, so a per-bucket distinct is globally distinct
    cand = (
        bucket_by_key(cand, "a", num_buckets)
        .groupby("_bucket")
        .map_groups(
            lambda df: df[["a", "b"]].drop_duplicates(), batch_format="pandas"
        )
    )

    # -- verification: broadcast the CANDIDATE docs' token sets once ------
    # The candidate-doc class is the near-dup class — small by the same
    # argument as the MinHash candidate-text fetch (broadcast semi-join
    # precedent). Shipping token lists per PAIR through a join would move
    # each hot doc's tokens once per pair (quadratic duplication); the
    # broadcast moves each doc's tokens exactly once. A cap raises if the
    # candidate-doc set is not actually small.
    cand = cand.materialize()
    n_cand = cand.count()
    # surviving-candidate telemetry: the prefix+length+positional stack is
    # the knob that decides verify cost — make its effect visible per run
    import logging

    logging.getLogger(__name__).info(
        "prefix_filter_jaccard_pairs: %d candidate pairs survive "
        "prefix+length+positional filters (t=%d/%d)",
        n_cand, threshold_num, threshold_den,
    )
    if n_cand == 0:  # prefix filter eliminated every pair
        return _empty_pairs()
    cand_ids_df = (
        cand.map_batches(
            lambda t: pa.table(
                {
                    "doc": pa.concat_arrays(
                        [
                            t["a"].combine_chunks()
                            if isinstance(t["a"], pa.ChunkedArray) else t["a"],
                            t["b"].combine_chunks()
                            if isinstance(t["b"], pa.ChunkedArray) else t["b"],
                        ]
                    )
                }
            ),
            batch_format="pyarrow",
        )
        .groupby("doc")
        .map_groups(lambda t: t.slice(0, 1), batch_format="pyarrow")
        .to_pandas()  # sanctioned: distinct candidate ids (provably small)
    )
    if len(cand_ids_df) > max_broadcast_docs:
        raise ValueError(
            "prefix_filter_jaccard_pairs: %d candidate docs exceed "
            "max_broadcast_docs=%d — the near-dup class is not small; "
            "raise the threshold or the cap"
            % (len(cand_ids_df), max_broadcast_docs)
        )
    cand_id_set = pa.array(cand_ids_df["doc"].to_numpy(), type=pa.int64())

    tok_small = tok.map_batches(
        lambda t: t.filter(pc.is_in(t["doc"], value_set=cand_id_set)),
        batch_format="pyarrow",
    ).to_pandas()  # candidate docs' tokens only — bounded by the cap
    doc_tokens: dict = {
        d: g["w"].to_numpy(dtype=object)
        for d, g in tok_small.groupby("doc", sort=False)
    }
    import ray

    tokens_ref = ray.put(doc_tokens)

    class _VerifyPairs:
        """Per-worker interned token sets: each doc's set is built ONCE per
        actorless worker process (module cache), then every pair is one C
        set-intersection — no per-pair set construction, no list shipping."""

        def __init__(self):
            self._sets = None

        def _ensure(self):
            if self._sets is None:
                raw = ray.get(tokens_ref)
                self._sets = {d: frozenset(v) for d, v in raw.items()}
            return self._sets

        def __call__(self, batch: pa.Table) -> pa.Table:
            sets = self._ensure()
            a = batch["a"].to_pylist()
            b = batch["b"].to_pylist()
            oa, ob, oi, ou = [], [], [], []
            for x, y in zip(a, b):
                sa = sets[x]
                sb = sets[y]
                inter = len(sa & sb)
                union = len(sa) + len(sb) - inter
                if union and inter * threshold_den >= union * threshold_num:
                    oa.append(x)
                    ob.append(y)
                    oi.append(inter)
                    ou.append(union)
            return pa.table(
                {
                    "a": pa.array(oa, type=pa.int64()),
                    "b": pa.array(ob, type=pa.int64()),
                    "inter": pa.array(oi, type=pa.int64()),
                    "union_": pa.array(ou, type=pa.int64()),
                }
            )

    return cand.map_batches(
        _VerifyPairs, batch_format="pyarrow", concurrency=(1, 8)
    ).sort(["a", "b"])


# -- exact substring (duplicated-span) dedup ----------------------------------
#
# The Lee et al. 2021 ("Deduplicating Training Data Makes Language Models
# Better", arXiv:2107.06499) EXACTSUBSTR operator, re-expressed Ray-Data-first:
# instead of a corpus-wide suffix array (a single shared index no Dataset
# stage can hold), duplicated regions are found as runs of duplicated
# fixed-length character windows — every length-L window that occurs >= 2
# times in the corpus is duplicated text, and maximal runs of duplicated
# windows are exactly the duplicated spans of length >= L.
#
# Scale shape (two corpus scans + bounded exchanges):
#   scan 1  per-batch seen/seen-twice BITMAP partials over the window
#           hashes (k probe bits each, Bloom-style), OR-tree-combined with
#           the saturating rule  twice' = t_a | t_b | (s_a & s_b) — an
#           associative reduce, so NO all-to-all at all on the hash side
#           (a groupby over the near-corpus-sized distinct-hash set was
#           measured 55x the map cost — see BASELINE.md round-4 entry).
#           False positives only ever ADD candidates; they cannot drop one.
#   scan 2  bitmap probe per batch -> candidate (id, pos, window-text)
#           rows for probably-duplicated windows; a bucketed groupby on the
#           window TEXT re-counts exactly, killing both sketch false
#           positives and hash collisions (same exact-verify discipline as
#           the MinHash path) — the end result is EXACT for any sketch
#           size; sizing only tunes the wasted verify volume.
#   spans   per-doc maximal-span merge, bucketed by doc id — one vectorized
#           pandas islands pass per bucket, no per-doc Python loop.
#
# An exact-scan-1 variant (duplicated_window_hash_set: per-batch distinct
# counts -> groupby(hash).sum -> capped driver pull) is kept for audit; the
# sketch path is the default and returns identical spans (pinned by test).

#: odd multiplier (FNV-1a 64-bit prime) — the rolling polynomial hash base;
#: odd => the Horner step is a bijection on Z/2^64 so chars never cancel
_WIN_HASH_BASE = np.uint64(0x100000001B3)


def _char_window_hashes(
    text: pa.Array, window: int
) -> "tuple[np.ndarray, np.ndarray, np.ndarray]":
    """All length-``window`` CHARACTER windows of every row as uint64
    polynomial hashes, with row index and 1-based char position.

    Char-exact (UTF-32 codepoints, one uint32 per char), so positions and
    window boundaries match SQL ``substr``/``length`` semantics for any
    input, not just ASCII.  Fully vectorized: one Arrow ``binary_join``
    flattens the batch, one ``str.encode`` yields the codepoint array, and
    the hash is ``window`` Horner multiply-add passes over it — no per-row
    work.  Returns ``(hashes, row_idx, pos)``; rows shorter than ``window``
    (and null rows) contribute no windows.
    """
    if isinstance(text, pa.ChunkedArray):
        text = text.combine_chunks()
    if pa.types.is_null(text.type):
        text = text.cast(pa.string())
    filled = pc.fill_null(text, "")
    empty = (
        np.array([], dtype=np.uint64),
        np.array([], dtype=np.int64),
        np.array([], dtype=np.int64),
    )
    n_rows = len(filled)
    if n_rows == 0:
        return empty
    lengths = pc.utf8_length(filled).to_numpy(zero_copy_only=False).astype(np.int64)
    # one C-level join of the whole batch into a single string, then one
    # encode to the flat uint32 codepoint array
    wrapper = pa.ListArray.from_arrays(
        pa.array([0, n_rows], type=pa.int32()), filled
    )
    big = pc.binary_join(wrapper, "")[0].as_py()
    flat = np.frombuffer(big.encode("utf-32-le"), dtype="<u4").astype(np.uint64)
    n = len(flat)
    if n < window:
        return empty
    m = n - window + 1
    acc = np.zeros(m, dtype=np.uint64)
    for j in range(window):
        acc *= _WIN_HASH_BASE
        acc += flat[j : j + m]
    row_of = np.repeat(np.arange(n_rows, dtype=np.int64), lengths)
    starts_row = row_of[:m]
    valid = starts_row == row_of[window - 1 :]
    f = np.flatnonzero(valid)
    ridx = starts_row[f]
    offsets = np.concatenate([[0], np.cumsum(lengths)])
    pos = f - offsets[ridx] + 1
    return acc[f], ridx, pos


def duplicated_window_hash_set(
    ds,
    window: int = 40,
    text_col: str = "text",
    min_count: int = 2,
    max_dup_windows: int = 5_000_000,
) -> np.ndarray:
    """Scan 1: uint64 hashes of every length-``window`` char window whose
    total corpus occurrence count is >= ``min_count`` (same-doc repeats
    count, per EXACTSUBSTR semantics).  Per-batch ``np.unique`` partials
    keep the exchange at distinct-hash volume; the result is pulled to the
    driver ONCE for broadcast.  ``max_dup_windows`` raises loudly if the
    duplicated vocabulary outgrows the broadcast premise (the alternative
    at that point is a bucketed semi-join of the (hash, id, pos) explosion
    — noted here, deliberately not the default: it ships one row per
    corpus char)."""
    import ray
    from ray.data.aggregate import Sum

    def partial(batch: pa.Table) -> pa.Table:
        h, _, _ = _char_window_hashes(batch[text_col], window)
        if not len(h):
            return pa.table(
                {
                    "_h": pa.array([], type=pa.int64()),
                    "_c": pa.array([], type=pa.int64()),
                }
            )
        uh, counts = np.unique(h, return_counts=True)
        # int64 bit-view: Ray's sort-based groupby and Arrow interop are
        # exercised on int64 keys everywhere else in this repo
        return pa.table(
            {
                "_h": pa.array(uh.view(np.int64)),
                "_c": pa.array(counts.astype(np.int64)),
            }
        )

    agg = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("_h")
        .aggregate(Sum("_c", alias_name="_c"))
    )

    def keep_dups(batch: pa.Table) -> pa.Table:
        return batch.filter(
            pc.greater_equal(batch["_c"], min_count)
        ).select(["_h"])

    dup = agg.map_batches(keep_dups, batch_format="pyarrow")
    tables = ray.get(dup.to_arrow_refs())
    parts = [t["_h"].combine_chunks() for t in tables if t.num_rows]
    if not parts:
        return np.array([], dtype=np.uint64)
    out = pa.concat_arrays(
        [p if isinstance(p, pa.Array) else p.combine_chunks() for p in parts]
    ).to_numpy(zero_copy_only=False)
    if len(out) > max_dup_windows:
        raise ValueError(
            "duplicated_window_hash_set: %d duplicated windows (> "
            "max_dup_windows=%d) — the duplicated vocabulary no longer fits "
            "the broadcast premise; raise the cap explicitly or switch to a "
            "bucketed (hash, id, pos) semi-join" % (len(out), max_dup_windows)
        )
    return out.view(np.uint64)


#: second probe-bit mixer (splitmix64 golden-ratio increment) — gives the
#: sketch an independent bit position per window hash
_SKETCH_MIX = np.uint64(0x9E3779B97F4A7C15)


def _sketch_positions(h: np.ndarray, mask: np.uint64, k: int) -> list:
    """k probe-bit indices per hash: the hash itself and successive
    golden-ratio remixes (top-bits via the wraparound product)."""
    out = [h & mask]
    g = h
    for _ in range(k - 1):
        g = g * _SKETCH_MIX
        out.append((g >> np.uint64(17)) & mask)
    return out


def _set_bits(words: np.ndarray, idx: np.ndarray) -> None:
    np.bitwise_or.at(
        words, (idx >> np.uint64(6)).astype(np.int64),
        np.uint64(1) << (idx & np.uint64(63)),
    )


def _test_bits(words: np.ndarray, idx: np.ndarray) -> np.ndarray:
    return (
        (words[(idx >> np.uint64(6)).astype(np.int64)] >> (idx & np.uint64(63)))
        & np.uint64(1)
    ).astype(bool)


def _encode_pair_local(
    seen_idx: np.ndarray, twice_idx: np.ndarray, nw: int
) -> "tuple[str, bytes, bytes]":
    """Size-adaptive (fmt, seen, twice) encode at a given word width ``nw``.
    Sparse only when it's a DECISIVE (4x) win: dense partials cost plain ORs
    downstream while sparse ones cost an O(n log n) sort at the all-sparse
    combine — measured: always-sparse made the final 40-partial combine sort
    400M indices and LOST to the dense ORs it replaced at the 2^28 default.
    Index arrays must be sorted-distinct uint32 (np.unique upstream)."""
    sparse_bytes = 4 * (len(seen_idx) + len(twice_idx))
    if sparse_bytes * 4 < 2 * nw * 8:
        return (
            "sparse",
            seen_idx.astype("<u4").tobytes(),
            twice_idx.astype("<u4").tobytes(),
        )
    seen = np.zeros(nw, dtype=np.uint64)
    twice = np.zeros(nw, dtype=np.uint64)
    _set_bits(seen, seen_idx.astype(np.uint64))
    _set_bits(twice, twice_idx.astype(np.uint64))
    return "dense", seen.tobytes(), twice.tobytes()


def _merge_pair_rows(
    fmts: list, seens: list, twices: list, nw: int
) -> "tuple[str, bytes, bytes]":
    """Saturating associative merge of (fmt, seen, twice) rows at word width
    ``nw`` — the shared kernel of the full-width OR tree AND the per-shard
    reducers (where ``nw`` is the shard's slice width and sparse indices are
    shard-local).  All-sparse inputs merge in the sparse domain: a bit in
    >= 2 partials is union-twice (each partial's indices are distinct within
    itself, so cross-partial multiplicity IS the seen_a & seen_b rule)."""
    if all(f == "sparse" for f in fmts):
        seen_cat = (
            np.concatenate([np.frombuffer(s, dtype="<u4") for s in seens])
            if seens
            else np.array([], dtype="<u4")
        )
        twice_cat = (
            np.concatenate([np.frombuffer(t, dtype="<u4") for t in twices])
            if twices
            else np.array([], dtype="<u4")
        )
        useen, counts = np.unique(seen_cat, return_counts=True)
        twice_idx = np.unique(np.concatenate([useen[counts >= 2], twice_cat]))
        return _encode_pair_local(
            useen.astype(np.uint32), twice_idx.astype(np.uint32), nw
        )
    seen_acc = np.zeros(nw, dtype=np.uint64)
    twice_acc = np.zeros(nw, dtype=np.uint64)
    for fmt, sb, tb in zip(fmts, seens, twices):
        if fmt == "sparse":
            sidx = np.frombuffer(sb, dtype="<u4").astype(np.uint64)
            tidx = np.frombuffer(tb, dtype="<u4").astype(np.uint64)
            # bits seen by BOTH this partial and the accumulator are
            # union-twice (the saturating rule, sparse form)
            dup = sidx[_test_bits(seen_acc, sidx)]
            _set_bits(twice_acc, dup)
            _set_bits(twice_acc, tidx)
            _set_bits(seen_acc, sidx)
        else:
            s = np.frombuffer(sb, dtype=np.uint64)
            t = np.frombuffer(tb, dtype=np.uint64)
            twice_acc |= t | (seen_acc & s)
            seen_acc |= s
    return "dense", seen_acc.tobytes(), twice_acc.tobytes()


def window_sketch_pair(
    ds,
    window: int = 40,
    text_col: str = "text",
    min_count: int = 2,
    sketch_bits: int = 1 << 28,
    sketch_hashes: int = 2,
    reduce_shards: "int | None" = None,
    stage_walls: "dict | None" = None,
) -> "tuple[np.ndarray, np.ndarray]":
    """Scan 1 (sketch path): a saturating seen/seen-twice bitmap pair over
    every length-``window`` char window hash.  Per batch each hash sets
    ``sketch_hashes`` bits in `seen` (and in `twice` when its within-batch
    count >= min_count); partials combine ASSOCIATIVELY —
    ``twice' = t_a | t_b | (s_a & s_b)`` — via a bundled OR tree (the
    :func:`bloom_incremental_dedup` reduce shape), so the hash side never
    shuffles.  Returns the final ``(seen, twice)`` bitmap pair: a window is
    a DUP CANDIDATE iff all its probe bits are set in `twice`.  Candidates
    are a superset of the true duplicated windows for ANY sizing — the
    window-text recount in :func:`duplicated_spans` makes the end result
    exact; ``sketch_bits`` only tunes wasted verify volume (false-positive
    rate ≈ (k·n/m)^k for n distinct windows — the 2^28 default holds ~3.4e7
    windows at <7% FP; size m ≈ 8n and mind that partial volume is
    blocks × m/4 bytes).  The pair is the mergeable cross-dump artifact
    persisted by ``state/substring_sketch.py``."""
    if sketch_bits & (sketch_bits - 1):
        raise ValueError("duplicated_window_sketch: sketch_bits must be a power of 2")
    mask = np.uint64(sketch_bits - 1)
    n_words = sketch_bits // 64

    # Partials ship SPARSE (sorted distinct uint32 bit indices) whenever
    # that is smaller than the dense bitmap, else dense.  A block holds
    # block-chars × k candidate bits, so at fleet block sizes sparse wins
    # ~10×: partial volume stopped scaling with sketch_bits and became
    # proportional to the block's own window count (measured: the dense
    # 64 MiB-per-block partials made a 1M-doc run 9.4× a 200k-doc run —
    # 20 GB of bitmaps through the OR tree — see BASELINE.md).  The first
    # combine level densifies, so the tree above it is unchanged.
    def partial(batch: pa.Table) -> pa.Table:
        h, _, _ = _char_window_hashes(batch[text_col], window)
        if not len(h):
            fmt, sb, tb = _encode_pair_local(
                np.array([], dtype=np.uint32), np.array([], dtype=np.uint32), n_words
            )
        else:
            uh, counts = np.unique(h, return_counts=True)
            rep = uh[counts >= min_count]
            seen_idx = np.unique(
                np.concatenate(_sketch_positions(uh, mask, sketch_hashes))
            ).astype(np.uint32)
            twice_idx = (
                np.unique(np.concatenate(_sketch_positions(rep, mask, sketch_hashes)))
                .astype(np.uint32)
                if len(rep)
                else np.array([], dtype=np.uint32)
            )
            fmt, sb, tb = _encode_pair_local(seen_idx, twice_idx, n_words)
        return pa.table(
            {
                "fmt": pa.array([fmt]),
                "seen": pa.array([sb], type=pa.binary()),
                "twice": pa.array([tb], type=pa.binary()),
            }
        )

    def combine(batch: pa.Table) -> pa.Table:
        fmt, sb, tb = _merge_pair_rows(
            batch["fmt"].to_pylist(),
            batch["seen"].to_pylist(),
            batch["twice"].to_pylist(),
            n_words,
        )
        return pa.table(
            {
                "fmt": pa.array([fmt]),
                "seen": pa.array([sb], type=pa.binary()),
                "twice": pa.array([tb], type=pa.binary()),
            }
        )

    # batch_size=None → one partial pair per BLOCK (the default 1024-row
    # batches would emit a bitmap pair per ~1k docs: partial volume is
    # partials × sketch_bits/4 bytes, so fewer partials is the point)
    import time as _time

    _t0 = _time.perf_counter()
    partials = ds.map_batches(partial, batch_format="pyarrow", batch_size=None)
    if stage_walls is not None:  # telemetry mode: wall per stage (adds
        partials = partials.materialize()  # materialize barriers — NOT the
        stage_walls["partials"] = _time.perf_counter() - _t0  # default path)
        _t0 = _time.perf_counter()
    # level 1 of the OR tree folds bundles of 8 pairs IN PARALLEL (a single
    # bundled task was measured serializing the whole blocks × bitmap volume
    # through one worker); num_cpus=0.9 blocks fusion with the partial map
    level1 = partials.map_batches(
        combine, batch_format="pyarrow", batch_size=8, num_cpus=0.9
    )
    if stage_walls is not None:
        level1 = level1.materialize()
        stage_walls["level1"] = _time.perf_counter() - _t0
        _t0 = _time.perf_counter()

    # Final reduce: range-partition the BIT SPACE across K reducers so no
    # single task ever holds (or sorts) a full-width pair.  At 2^31 bits the
    # old single level-2 task OR-ed 2 × 256 MiB bitmaps (or sorted ~400M
    # sparse indices); sharded, each of the K reducers owns a contiguous
    # 1/K slice of the words — the saturating algebra applies independently
    # per slice because the slices are bit-disjoint.  Sparse level-1 outputs
    # are searchsorted-split at the shard boundaries (indices are sorted-
    # distinct by construction), so the per-shard sparse union also sorts
    # only its slice's indices.  Auto K: one shard per 2^26 bits (8 MiB of
    # words), capped at 64 — tiny sketches keep the single-task path.
    if reduce_shards is None:
        n_shards = max(1, min(64, sketch_bits >> 26, n_words))
    else:
        # coerce to a DIVISOR of n_words (word-aligned equal slices): a
        # non-divisor K would truncate shard_words = n_words // K and the
        # tail bit range would belong to no shard — silent data loss
        n_shards = max(1, min(int(reduce_shards), n_words))
        while n_words % n_shards:
            n_shards -= 1
    if n_shards == 1:
        row = (
            level1.repartition(1)
            .map_batches(combine, batch_format="pyarrow", batch_size=None)
            .to_pandas()
        )
        if stage_walls is not None:
            stage_walls["final"] = _time.perf_counter() - _t0
        seen = np.zeros(n_words, dtype=np.uint64)
        twice = np.zeros(n_words, dtype=np.uint64)
        if row["fmt"].iloc[0] == "sparse":  # tiny corpus: stayed sparse
            _set_bits(seen, np.frombuffer(row["seen"].iloc[0], dtype="<u4").astype(np.uint64))
            _set_bits(twice, np.frombuffer(row["twice"].iloc[0], dtype="<u4").astype(np.uint64))
            return seen, twice
        seen[:] = np.frombuffer(row["seen"].iloc[0], dtype=np.uint64)
        twice[:] = np.frombuffer(row["twice"].iloc[0], dtype=np.uint64)
        return seen, twice

    shard_words = n_words // n_shards
    shard_bits = shard_words * 64

    def shard_split(batch: pa.Table) -> pa.Table:
        shards, fmts_o, seens_o, twices_o = [], [], [], []
        for fmt, sb, tb in zip(
            batch["fmt"].to_pylist(),
            batch["seen"].to_pylist(),
            batch["twice"].to_pylist(),
        ):
            if fmt == "sparse":
                sidx = np.frombuffer(sb, dtype="<u4")
                tidx = np.frombuffer(tb, dtype="<u4")
                edges = np.arange(0, n_shards + 1, dtype=np.int64) * shard_bits
                s_cut = np.searchsorted(sidx.astype(np.int64), edges)
                t_cut = np.searchsorted(tidx.astype(np.int64), edges)
                for k in range(n_shards):
                    s_k = sidx[s_cut[k] : s_cut[k + 1]]
                    t_k = tidx[t_cut[k] : t_cut[k + 1]]
                    if not len(s_k) and not len(t_k):
                        continue  # empty slice is the merge identity
                    off = np.uint32(k * shard_bits)
                    shards.append(k)
                    fmts_o.append("sparse")
                    seens_o.append((s_k - off).tobytes())
                    twices_o.append((t_k - off).tobytes())
            else:
                s = np.frombuffer(sb, dtype=np.uint64)
                t = np.frombuffer(tb, dtype=np.uint64)
                for k in range(n_shards):
                    lo, hi = k * shard_words, (k + 1) * shard_words
                    s_k, t_k = s[lo:hi], t[lo:hi]
                    if not s_k.any() and not t_k.any():
                        continue
                    shards.append(k)
                    fmts_o.append("dense")
                    seens_o.append(s_k.tobytes())
                    twices_o.append(t_k.tobytes())
        return pa.table(
            {
                "shard": pa.array(shards, type=pa.int32()),
                "fmt": pa.array(fmts_o, type=pa.string()),
                "seen": pa.array(seens_o, type=pa.binary()),
                "twice": pa.array(twices_o, type=pa.binary()),
            }
        )

    def combine_shard(block: pa.Table) -> pa.Table:
        fmt, sb, tb = _merge_pair_rows(
            block["fmt"].to_pylist(),
            block["seen"].to_pylist(),
            block["twice"].to_pylist(),
            shard_words,
        )
        return pa.table(
            {
                "shard": pa.array([block["shard"][0].as_py()], type=pa.int32()),
                "fmt": pa.array([fmt]),
                "seen": pa.array([sb], type=pa.binary()),
                "twice": pa.array([tb], type=pa.binary()),
            }
        )

    per_shard = (
        level1.map_batches(shard_split, batch_format="pyarrow", num_cpus=0.9)
        .groupby("shard")
        .map_groups(combine_shard, batch_format="pyarrow")
    )
    rows = per_shard.to_pandas()
    if stage_walls is not None:
        stage_walls["final"] = _time.perf_counter() - _t0
    seen = np.zeros(n_words, dtype=np.uint64)
    twice = np.zeros(n_words, dtype=np.uint64)
    for _, r in rows.iterrows():
        k = int(r["shard"])
        lo = k * shard_words
        if r["fmt"] == "dense":
            seen[lo : lo + shard_words] = np.frombuffer(r["seen"], dtype=np.uint64)
            twice[lo : lo + shard_words] = np.frombuffer(r["twice"], dtype=np.uint64)
        else:
            off = np.uint64(k * shard_bits)
            _set_bits(seen, np.frombuffer(r["seen"], dtype="<u4").astype(np.uint64) + off)
            _set_bits(twice, np.frombuffer(r["twice"], dtype="<u4").astype(np.uint64) + off)
    return seen, twice


def duplicated_window_sketch(
    ds,
    window: int = 40,
    text_col: str = "text",
    min_count: int = 2,
    sketch_bits: int = 1 << 28,
    sketch_hashes: int = 2,
    reduce_shards: "int | None" = None,
) -> "Optional[np.ndarray]":
    """The `twice` bitmap of :func:`window_sketch_pair` (None when no bit
    is set) — the single-corpus candidate filter ``duplicated_spans``
    broadcasts."""
    _, twice = window_sketch_pair(
        ds, window, text_col, min_count, sketch_bits, sketch_hashes,
        reduce_shards=reduce_shards,
    )
    return twice if twice.any() else None


def duplicated_spans(
    ds,
    window: int = 40,
    text_col: str = "text",
    id_col: str = "doc_id",
    min_count: int = 2,
    max_dup_windows: int = 5_000_000,
    num_buckets: int = 16,
    method: str = "sketch",
    sketch_bits: int = 1 << 28,
    sketch_hashes: int = 2,
    reduce_shards: "int | None" = None,
):
    """Maximal duplicated char spans per document:
    ``(doc_id, span_start, span_end, span_chars)``, 1-based inclusive
    positions, sorted by (doc_id, span_start).

    A char position is duplicated iff some length-``window`` window covering
    it occurs >= ``min_count`` times in the whole corpus; runs of duplicated
    window START positions with gaps <= ``window`` merge into one span
    (gap <= window means the covered char ranges touch or overlap, so the
    merged span is contiguous duplicated text).  Oracle: the LATERAL
    range-explode + HAVING count >= 2 + lag-islands SQL registered as
    ``dup_spans``.  ``ds`` must carry (id_col, text_col) only — prune
    upstream.

    ``method="sketch"`` (default) finds dup-candidate windows with the
    shuffle-free saturating bitmap (:func:`duplicated_window_sketch`);
    ``method="exact"`` uses the audit-path distinct-hash aggregate
    (:func:`duplicated_window_hash_set`, driver-capped by
    ``max_dup_windows``).  Both return IDENTICAL spans — the window-text
    recount below is the exactness guarantee either way."""
    import ray

    if method not in ("sketch", "exact"):
        raise ValueError("duplicated_spans: method must be 'sketch' or 'exact'")
    if method == "exact":
        dup_hashes = duplicated_window_hash_set(
            ds, window, text_col, min_count, max_dup_windows
        )
        broadcast = np.sort(dup_hashes) if len(dup_hashes) else None
    else:
        broadcast = duplicated_window_sketch(
            ds, window, text_col, min_count, sketch_bits, sketch_hashes,
            reduce_shards=reduce_shards,
        )
    if broadcast is None:
        # typed empty result — Ray drops the schema on a 0-row to_pandas,
        # so the no-dup case returns a pandas DataFrame directly (queries
        # may return Dataset OR DataFrame; same contract as kcore_nodes)
        return pd.DataFrame(
            {
                id_col: pd.Series([], dtype="int64"),
                "span_start": pd.Series([], dtype="int64"),
                "span_end": pd.Series([], dtype="int64"),
                "span_chars": pd.Series([], dtype="int64"),
            }
        )
    dup_ref = ray.put(broadcast)
    sk_mask = np.uint64(sketch_bits - 1)

    def probe(batch: pa.Table) -> pa.Table:
        dup_set = ray.get(dup_ref)
        text = batch[text_col]
        if isinstance(text, pa.ChunkedArray):
            text = text.combine_chunks()
        h, ridx, pos = _char_window_hashes(text, window)
        out_empty = pa.table(
            {
                id_col: pa.array([], type=pa.int64()),
                "pos": pa.array([], type=pa.int64()),
                "w": pa.array([], type=pa.string()),
            }
        )
        if not len(h):
            return out_empty
        if method == "exact":
            hit = np.isin(h, dup_set, assume_unique=False)
        else:
            hit = np.ones(len(h), dtype=bool)
            for idx in _sketch_positions(h, sk_mask, sketch_hashes):
                hit &= _test_bits(dup_set, idx)
        if not hit.any():
            return out_empty
        ridx = ridx[hit]
        pos = pos[hit]
        ids = pc.cast(batch[id_col], pa.int64())
        if isinstance(ids, pa.ChunkedArray):
            ids = ids.combine_chunks()
        wins = _window_texts(text, ridx, pos, window)
        return pa.table(
            {
                id_col: pc.take(ids, pa.array(ridx)),
                "pos": pa.array(pos),
                "w": pa.array(wins),
            }
        )

    cand = ds.map_batches(probe, batch_format="pyarrow")

    # exact re-count on the window TEXT: bucketing by w co-locates every
    # occurrence of a window, so the per-bucket count is the global count
    from .aggregate import bucket_by_key

    def verify(block: pd.DataFrame) -> pd.DataFrame:
        c = block.groupby("w")["w"].transform("size")
        keep = block.loc[c >= min_count, [id_col, "pos"]]
        return keep

    verified = bucket_by_key(cand, "w", num_buckets).groupby("_bucket").map_groups(
        verify, batch_format="pandas"
    )
    return _island_spans(verified, id_col, window, num_buckets)


def _window_texts(
    text: pa.Array, ridx: np.ndarray, pos: np.ndarray, window: int
) -> np.ndarray:
    """Exact window text for candidate (row, pos) pairs — the collision
    guard.  Encodes each candidate ROW once even when it holds many
    candidate windows (np.unique), gathers every window's codepoint slab
    and reinterprets each L-codepoint row as ONE numpy unicode scalar —
    vectorized, no per-candidate loop."""
    texts = pc.fill_null(text, "")
    urows, inv = np.unique(ridx, return_inverse=True)
    cand_rows = pc.take(texts, pa.array(urows))
    wrapper = pa.ListArray.from_arrays(
        pa.array([0, len(cand_rows)], type=pa.int32()), cand_rows
    )
    big = pc.binary_join(wrapper, "")[0].as_py()
    cp = np.frombuffer(big.encode("utf-32-le"), dtype="<u4")
    lens = pc.utf8_length(cand_rows).to_numpy(zero_copy_only=False).astype(np.int64)
    row_starts = np.concatenate([[0], np.cumsum(lens)])[:-1]
    gather = (row_starts[inv] + pos - 1)[:, None] + np.arange(window)[None, :]
    return np.ascontiguousarray(cp[gather]).view("<U%d" % window).ravel()


def _island_spans(verified, id_col: str, window: int, num_buckets: int):
    """Per-doc maximal-span merge (islands) over verified duplicated window
    positions: bucket by doc id, ONE vectorized pandas pass per bucket."""
    from .aggregate import bucket_by_key

    def spans(block: pd.DataFrame) -> pd.DataFrame:
        b = block.sort_values([id_col, "pos"], kind="mergesort")
        new = b[id_col].ne(b[id_col].shift()) | (
            b["pos"] - b["pos"].shift() > window
        )
        grp = new.cumsum()
        g = b.groupby(grp, sort=True)
        out = pd.DataFrame(
            {
                id_col: g[id_col].first().astype("int64"),
                "span_start": g["pos"].min().astype("int64"),
                "span_end": (g["pos"].max() + window - 1).astype("int64"),
            }
        )
        out["span_chars"] = (
            out["span_end"] - out["span_start"] + 1
        ).astype("int64")
        return out.reset_index(drop=True)

    merged = (
        bucket_by_key(verified, id_col, num_buckets)
        .groupby("_bucket")
        .map_groups(spans, batch_format="pandas")
    )
    return merged.sort([id_col, "span_start"])


def remove_duplicated_spans(
    ds,
    window: int = 40,
    text_col: str = "text",
    id_col: str = "doc_id",
    min_count: int = 2,
    max_spans: int = 5_000_000,
    **span_kwargs,
):
    """The EXACTSUBSTR dedup ACTION: cut every duplicated span (per
    :func:`duplicated_spans`, all occurrences — the symmetric variant) out
    of every document and emit ``(doc_id, kept_chars, cleaned_md5)`` per
    doc, null-text docs passing through with null stats (SQL semantics).

    Scale shape: the span set is bounded by the dedup premise and ships
    ONCE via ``ray.put`` (``max_spans`` raises if the premise breaks); the
    corpus then streams through one vectorized cut pass — covered chars are
    masked with an interval-diff cumsum over the batch's flat codepoint
    array (no per-span or per-doc loop; the only per-row work is the final
    C-level slice reassembly of cleaned strings, the inverse of the
    kernel's ``binary_join`` flatten).  Unaffected rows (the overwhelming
    majority) take a pure-Arrow passthrough."""
    import ray

    from ..functions.textstats import md5_fingerprints

    spans = duplicated_spans(
        ds,
        window=window,
        text_col=text_col,
        id_col=id_col,
        min_count=min_count,
        **span_kwargs,
    )
    if isinstance(spans, pd.DataFrame):  # no duplicated windows at all
        span_ids = np.array([], dtype=np.int64)
        span_s = np.array([], dtype=np.int64)
        span_e = np.array([], dtype=np.int64)
    else:
        tbls = [t for t in ray.get(spans.to_arrow_refs()) if t.num_rows]
        if tbls:
            t = pa.concat_tables(tbls)
            if t.num_rows > max_spans:
                raise ValueError(
                    "remove_duplicated_spans: %d spans (> max_spans=%d) — "
                    "the duplicated-span set outgrew the broadcast premise"
                    % (t.num_rows, max_spans)
                )
            # re-sort driver-side: the probe's searchsorted needs globally
            # sorted ids, and to_arrow_refs block order after a Dataset.sort
            # is an implementation detail this must not depend on
            order = pc.sort_indices(
                t, sort_keys=[(id_col, "ascending"), ("span_start", "ascending")]
            )
            t = t.take(order)
            span_ids = t[id_col].to_numpy(zero_copy_only=False)
            span_s = t["span_start"].to_numpy(zero_copy_only=False)
            span_e = t["span_end"].to_numpy(zero_copy_only=False)
        else:
            span_ids = np.array([], dtype=np.int64)
            span_s = np.array([], dtype=np.int64)
            span_e = np.array([], dtype=np.int64)
    span_ref = ray.put((span_ids, span_s, span_e))

    def clean(batch: pa.Table) -> pa.Table:
        s_ids, s_s, s_e = ray.get(span_ref)
        text = batch[text_col]
        if isinstance(text, pa.ChunkedArray):
            text = text.combine_chunks()
        if pa.types.is_null(text.type):
            text = text.cast(pa.string())
        ids = pc.cast(batch[id_col], pa.int64())
        if isinstance(ids, pa.ChunkedArray):
            ids = ids.combine_chunks()
        ids_np = ids.to_numpy(zero_copy_only=False)
        # passthrough stats for every row (null-safe), then overwrite the
        # affected rows' values
        kept = pc.utf8_length(text).to_numpy(zero_copy_only=False).astype("float64")
        md5s = md5_fingerprints(text).to_pylist()

        lo = np.searchsorted(s_ids, ids_np, side="left")
        hi = np.searchsorted(s_ids, ids_np, side="right")
        affected = np.flatnonzero(hi > lo)
        if len(affected):
            atext = pc.take(text, pa.array(affected))
            lens = pc.utf8_length(atext).to_numpy(zero_copy_only=False).astype(
                np.int64
            )
            wrapper = pa.ListArray.from_arrays(
                pa.array([0, len(atext)], type=pa.int32()), atext
            )
            big = pc.binary_join(wrapper, "")[0].as_py()
            cp = np.frombuffer(big.encode("utf-32-le"), dtype="<u4")
            offs = np.concatenate([[0], np.cumsum(lens)])
            # interval-diff coverage mask over the affected flat array —
            # every span of every affected row in ONE gather (ranges from
            # (lo, hi) offsets, no per-doc loop)
            counts = (hi[affected] - lo[affected]).astype(np.int64)
            cum = np.concatenate([[0], np.cumsum(counts)])
            total = int(cum[-1])
            rep_k = np.repeat(np.arange(len(affected)), counts)
            span_idx = (
                np.arange(total, dtype=np.int64)
                - np.repeat(cum[:-1], counts)
                + np.repeat(lo[affected], counts)
            )
            diff = np.zeros(offs[-1] + 1, dtype=np.int64)
            np.add.at(diff, offs[rep_k] + s_s[span_idx] - 1, 1)
            np.add.at(diff, offs[rep_k] + s_e[span_idx], -1)
            covered = np.cumsum(diff[:-1]) > 0
            keep_mask = ~covered
            kept_cp = cp[keep_mask]
            row_of = np.repeat(np.arange(len(affected)), lens)
            kept_lens = np.bincount(
                row_of[keep_mask], minlength=len(affected)
            ).astype(np.int64)
            big_clean = kept_cp.tobytes().decode("utf-32-le")
            koffs = np.concatenate([[0], np.cumsum(kept_lens)])
            cleaned = [
                big_clean[koffs[k] : koffs[k + 1]] for k in range(len(affected))
            ]
            cmd5 = md5_fingerprints(pa.array(cleaned, type=pa.string())).to_pylist()
            for k, r in enumerate(affected):
                kept[r] = kept_lens[k]
                md5s[r] = cmd5[k]
        kept_arr = pa.array(
            [None if md5s[i] is None else int(kept[i]) for i in range(len(md5s))],
            type=pa.int64(),
        )
        return pa.table(
            {
                id_col: ids,
                "kept_chars": kept_arr,
                "cleaned_md5": pa.array(md5s, type=pa.string()),
            }
        )

    return ds.map_batches(clean, batch_format="pyarrow").sort(id_col)


def duplicated_spans_incremental(
    new_ds,
    sketch_dir: str,
    text_col: str = "text",
    id_col: str = "doc_id",
    num_buckets: int = 16,
    min_run: int = 5,
):
    """Duplicated spans of a NEW dump against (prior corpus ∪ new dump),
    with the prior corpus represented ENTIRELY by its persisted sketch
    (``state/substring_sketch.py``) — NO prior text pass at all.  Window /
    sketch parameters come from the sketch meta (the caller cannot
    desynchronize them).

    Exactness contract (documented trade, the incremental analog of
    64-bit-hash dedup equality): WITHIN-NEW duplication stays exact (the
    window-text recount); CROSS-DUMP duplication is witnessed by the prior
    ``seen`` bitmap, and a position counts as prior-witnessed ONLY inside a
    run of >= ``min_run`` consecutive witnessed positions of its doc.
    Per-window bitmap false positives are ~occupancy^k (measured 2% at 14%
    occupancy — 90k false docs on a 200k-doc check without the run rule);
    independent per position, so a run of ``min_run`` FPs is
    ~(occupancy^k)^min_run — negligible for any sane sizing.  The cost is a
    detection FLOOR: cross-dump matches shorter than
    ``window + min_run - 1`` chars (44 at defaults) are not reported — the
    ExactSubstr minimum-match convention (Lee et al. use 50-token floors).
    False negatives above the floor are impossible (true windows always set
    their bits).  The full-corpus :func:`duplicated_spans` over prior ∪ new
    restricted to new ids is the reference (equality above the floor pinned
    by test)."""
    import ray

    from ..state.substring_sketch import (
        load_substring_sketch,
        merge_sketch_pairs,
        sketch_meta,
    )

    meta = sketch_meta(sketch_dir)
    window = meta["window"]
    sketch_bits = meta["sketch_bits"]
    sketch_hashes = meta["sketch_hashes"]
    min_count = meta["min_count"]
    prior = load_substring_sketch(sketch_dir)
    new_pair = window_sketch_pair(
        new_ds, window, text_col, min_count, sketch_bits, sketch_hashes
    )
    _, twice_m = merge_sketch_pairs(prior, new_pair)
    if not twice_m.any():
        return pd.DataFrame(
            {
                id_col: pd.Series([], dtype="int64"),
                "span_start": pd.Series([], dtype="int64"),
                "span_end": pd.Series([], dtype="int64"),
                "span_chars": pd.Series([], dtype="int64"),
            }
        )
    ref = ray.put((twice_m, prior[0]))
    sk_mask = np.uint64(sketch_bits - 1)

    def probe(batch: pa.Table) -> pa.Table:
        twice, prior_seen = ray.get(ref)
        text = batch[text_col]
        if isinstance(text, pa.ChunkedArray):
            text = text.combine_chunks()
        h, ridx, pos = _char_window_hashes(text, window)
        out_empty = pa.table(
            {
                id_col: pa.array([], type=pa.int64()),
                "pos": pa.array([], type=pa.int64()),
                "w": pa.array([], type=pa.string()),
                "prior": pa.array([], type=pa.bool_()),
            }
        )
        if not len(h):
            return out_empty
        positions = _sketch_positions(h, sk_mask, sketch_hashes)
        hit = np.ones(len(h), dtype=bool)
        for idx in positions:
            hit &= _test_bits(twice, idx)
        if not hit.any():
            return out_empty
        prior_flag = np.ones(len(h), dtype=bool)
        for idx in positions:
            prior_flag &= _test_bits(prior_seen, idx)
        # run rule: a prior witness only counts inside a run of >= min_run
        # consecutive witnessed positions of the same doc (window positions
        # of a doc are consecutive in the kernel's output, so run boundaries
        # are flag flips or doc changes) — vectorized run-length labeling
        if min_run > 1 and prior_flag.any():
            doc_change = np.empty(len(h), dtype=bool)
            doc_change[0] = True
            doc_change[1:] = ridx[1:] != ridx[:-1]
            prev_flag = np.empty(len(h), dtype=bool)
            prev_flag[0] = False
            prev_flag[1:] = prior_flag[:-1]
            start = prior_flag & (~prev_flag | doc_change)
            run_id = np.cumsum(start) - 1
            run_len = np.bincount(
                run_id[prior_flag], minlength=max(int(run_id[-1]) + 1, 1)
            )
            prior_flag = prior_flag & (run_len[run_id] >= min_run)
        ridx_h = ridx[hit]
        pos_h = pos[hit]
        ids = pc.cast(batch[id_col], pa.int64())
        if isinstance(ids, pa.ChunkedArray):
            ids = ids.combine_chunks()
        wins = _window_texts(text, ridx_h, pos_h, window)
        return pa.table(
            {
                id_col: pc.take(ids, pa.array(ridx_h)),
                "pos": pa.array(pos_h),
                "w": pa.array(wins),
                "prior": pa.array(prior_flag[hit]),
            }
        )

    cand = new_ds.map_batches(probe, batch_format="pyarrow")

    from .aggregate import bucket_by_key

    def verify(block: pd.DataFrame) -> pd.DataFrame:
        c = block.groupby("w")["w"].transform("size")
        keep = block.loc[(c >= min_count) | block["prior"], [id_col, "pos"]]
        return keep

    verified = bucket_by_key(cand, "w", num_buckets).groupby("_bucket").map_groups(
        verify, batch_format="pandas"
    )
    return _island_spans(verified, id_col, window, num_buckets)


def containment_pairs_by_block(
    ds,
    block_col: str = "source",
    threshold_num: int = 8,
    threshold_den: int = 10,
    text_col: str = "text",
    id_col: str = "doc_id",
    max_block_tokens: int = 5_000_000,
    max_merge_rows: int = 50_000_000,
):
    """Asymmetric Broder CONTAINMENT |A∩B| / min(|A|, |B|) for every doc
    pair sharing ``block_col``: rows (a, b, inter, size_a, size_b) with
    ``inter * threshold_den >= min(size) * threshold_num``, a < b — the
    quote/subset detector symmetric Jaccard misses (a short doc fully
    embedded in a long one has low Jaccard but containment 1.0).  Pure
    integer threshold → exact DuckDB oracle.

    Unlike the O(n²)-loop Jaccard validator beside it, the block kernel is
    fully vectorized: distinct (doc, token) explode → one self-merge on
    token → pair groupby — C pandas throughout, so ``max_block_tokens``
    caps exploded TOKEN rows.  That alone does not bound the merge: the
    self-merge materializes Σ df(w)² rows, so ONE high-document-frequency
    token (a stopword every doc in the block shares) explodes it
    quadratically in docs while staying far under the token cap (round-5
    advice item).  ``max_merge_rows`` therefore also caps the PREDICTED
    merge size — computed exactly from the per-token doc frequencies before
    merging — raising the same loud ValueError instead of OOM-ing the
    task."""

    def pairs(group: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame(
            {
                "a": pd.Series([], dtype="int64"),
                "b": pd.Series([], dtype="int64"),
                "inter": pd.Series([], dtype="int64"),
                "size_a": pd.Series([], dtype="int64"),
                "size_b": pd.Series([], dtype="int64"),
            }
        )
        rows = group[[id_col, text_col]].dropna(subset=[text_col])
        if not len(rows):
            return empty
        ex = rows.assign(w=rows[text_col].str.lower().str.split()).explode("w")
        ex = ex[ex.w.notna()][[id_col, "w"]].drop_duplicates()
        _check_block_cap(
            len(ex),
            group[block_col].iloc[0] if len(group) else None,
            max_block_tokens,
            "containment_pairs_by_block",
            "max_block_tokens",
        )
        if not len(ex):
            return empty
        df = ex.groupby("w").size()
        predicted = int((df.astype("int64") ** 2).sum())
        _check_block_cap(
            predicted,
            group[block_col].iloc[0] if len(group) else None,
            max_merge_rows,
            "containment_pairs_by_block (predicted Σ df(w)² merge rows)",
            "max_merge_rows",
        )
        sizes = ex.groupby(id_col).size()
        m = ex.merge(ex, on="w", suffixes=("_x", "_y"))
        ax, ay = id_col + "_x", id_col + "_y"
        m = m[m[ax] < m[ay]]
        if not len(m):
            return empty
        inter = m.groupby([ax, ay]).size().reset_index(name="inter")
        inter["size_a"] = inter[ax].map(sizes)
        inter["size_b"] = inter[ay].map(sizes)
        smaller = inter[["size_a", "size_b"]].min(axis=1)
        keep = inter["inter"] * threshold_den >= smaller * threshold_num
        out = inter[keep]
        return pd.DataFrame(
            {
                "a": out[ax].astype("int64").to_numpy(),
                "b": out[ay].astype("int64").to_numpy(),
                "inter": out["inter"].astype("int64").to_numpy(),
                "size_a": out["size_a"].astype("int64").to_numpy(),
                "size_b": out["size_b"].astype("int64").to_numpy(),
            }
        )

    return (
        ds.select_columns([block_col, id_col, text_col])
        .groupby(block_col)
        .map_groups(pairs, batch_format="pandas")
        .sort(["a", "b"])
    )
