"""Training-data pipeline operators wired as driver queries over the
testdata tables (``documents``, ``embeddings``, ``events``), each with a
DuckDB oracle where SQL can express it (rows-only checks otherwise:
MinHash/SimHash/LSH are hash-seeded algorithms SQL cannot reproduce).

Every query reads via ``ray.data.read_parquet`` with column pruning and
streams through the stage implementations in ``stages/``."""

from __future__ import annotations

import os
from typing import Any, Callable, Dict

import pyarrow as pa

ANN_QUERY_IDS = [0, 7, 42, 99, 123, 250, 333, 499]
ANN_K = 10
EMB_DUP_TAU = 0.4
JACCARD_TAU = 0.5
WINDOW_SEC = 3600
SESSION_GAP_SEC = 1800


def _docs(sf_dir: str, columns=None):
    import ray.data

    return ray.data.read_parquet(os.path.join(sf_dir, "documents.parquet"), columns=columns)


def _emb(sf_dir: str, columns=None):
    import ray.data

    return ray.data.read_parquet(os.path.join(sf_dir, "embeddings.parquet"), columns=columns)


def _events(sf_dir: str, columns=None):
    import ray.data

    return ray.data.read_parquet(os.path.join(sf_dir, "events.parquet"), columns=columns)


# -- queries ----------------------------------------------------------------


def q_dedup_ratio_report(sf_dir: str):
    """Curation dedup report: per source, total docs vs distinct texts and
    the duplicate rate in permille — the before/after table a dedup run
    publishes. Shape: per-batch (source, md5) distinct pairs collapse
    before ONE hash-bucketed exchange of fingerprints; totals ride the
    same partials."""
    import numpy as np
    import pyarrow.compute as pc

    from ..functions.textstats import md5_fingerprints
    from ..stages.aggregate import bucket_by_key, tree_sum

    docs = _docs(sf_dir, ["doc_id", "source", "text"])

    def explode(batch: pa.Table) -> pa.Table:
        text = batch["text"]
        if isinstance(text, pa.ChunkedArray):
            text = text.combine_chunks()
        if pa.types.is_null(text.type):
            text = text.cast(pa.string())
        h = pc.fill_null(md5_fingerprints(text), "__null_text__")
        t = pa.table(
            {
                "source": batch["source"],
                "_h": h,
                "n": pa.array(np.ones(batch.num_rows, dtype=np.int64)),
            }
        )
        g = t.group_by(["source", "_h"]).aggregate([("n", "sum")])
        return g.rename_columns(["source", "_h", "n"])

    pairs = docs.map_batches(explode, batch_format="pyarrow")
    bucketed = bucket_by_key(pairs, "_h", 16)

    def per_bucket(df):
        g = df.groupby(["source", "_h"], as_index=False, sort=False)["n"].sum()
        out = g.groupby("source", as_index=False, sort=False).agg(
            n_docs=("n", "sum"), n_distinct=("n", "size")
        )
        for c in ("n_docs", "n_distinct"):
            out[c] = out[c].astype("int64")
        return out

    partials = bucketed.groupby("_bucket").map_groups(
        per_bucket, batch_format="pandas"
    )
    sums = tree_sum(partials, ["source"], ["n_docs", "n_distinct"],
                    sort_result=True)

    def rate(batch: pa.Table) -> pa.Table:
        dup = pc.subtract(batch["n_docs"], batch["n_distinct"])
        permille = pc.divide(pc.multiply(dup, 1000), batch["n_docs"])
        return batch.append_column(
            "dup_permille", pc.cast(permille, pa.int64())
        )

    return sums.map_batches(rate, batch_format="pyarrow")


def q_dedup_exact(sf_dir: str):
    from ..stages.dedup import exact_dedup_keepers

    return exact_dedup_keepers(_docs(sf_dir, ["doc_id", "text"]))


def q_doc_stats(sf_dir: str):
    from ..stages.textops import doc_stats

    return doc_stats(_docs(sf_dir, ["doc_id", "text"]))


def q_doc_analysis(sf_dir: str):
    from ..stages.textops import doc_analysis

    return doc_analysis(_docs(sf_dir, ["doc_id", "text"]))


def q_lang_stats(sf_dir: str):
    from ..stages.textops import lang_stats

    return lang_stats(_docs(sf_dir, ["doc_id", "text", "lang"]))


def _bucketed_word_counts(docs, num_buckets: int = 32):
    """Shared scaffolding for vocabulary-scale aggregates (vocab_top,
    freq_spectrum): lowercase word explode (``_flat_words`` — handles
    all-null blocks) → per-batch partial counts → word-hash buckets. Each
    word lands in exactly ONE bucket, so a per-bucket sum of ``n`` is that
    word's GLOBAL count — no single task ever holds the whole vocabulary."""
    import pyarrow as pa

    from ..stages.aggregate import _partial_counts, bucket_by_key
    from ..stages.contamination import _flat_words

    def explode(batch: pa.Table) -> pa.Table:
        text = batch["text"]
        if isinstance(text, pa.ChunkedArray):
            text = text.combine_chunks()
        flat, _ = _flat_words(text)
        return pa.table({"w": flat})

    partials = docs.map_batches(explode, batch_format="pyarrow").map_batches(
        _partial_counts(["w"], "n"), batch_format="pyarrow", batch_size=65536
    )
    return bucket_by_key(partials, "w", num_buckets)


def q_vocab_top(sf_dir: str):
    """Vocabulary building (LLM-prep): lowercase word frequencies over the
    corpus, top 100 by (count desc, token asc). Word-hash-bucketed combine
    (see ``_bucketed_word_counts``) → per-bucket top-100 (valid because a
    bucket owns its words' global counts) → global sort over only
    buckets×100 rows; the Sort operator never sees the vocabulary."""
    import pandas as pd

    bucketed = _bucketed_word_counts(_docs(sf_dir, ["text"]))

    def bucket_top(block: pd.DataFrame) -> pd.DataFrame:
        g = block.groupby("w", sort=False, observed=True)["n"].sum().reset_index()
        g = g.sort_values(["n", "w"], ascending=[False, True]).head(100)
        return g[["w", "n"]]

    topped = bucketed.groupby("_bucket").map_groups(
        bucket_top, batch_format="pandas"
    )
    return topped.sort(["n", "w"], descending=[True, False]).limit(100)


#: decontamination parameters: docs with doc_id % MOD == 0 play the role of
#: the (small, fixed) eval benchmark; 4-gram overlap flags training docs.
CONTAM_BENCH_MOD = 17
CONTAM_NGRAM = 4


def _mod_filter(equal: bool):
    """Batch filter on doc_id % CONTAM_BENCH_MOD (Arrow lacks a modulo
    kernel; one numpy op per batch)."""
    import numpy as np
    import pyarrow as pa

    def f(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy(zero_copy_only=False)
        hit = (ids % CONTAM_BENCH_MOD) == 0
        return batch.filter(pa.array(hit if equal else ~hit))

    return f


def q_contaminated_docs(sf_dir: str):
    """Benchmark decontamination: training docs (doc_id % 17 != 0) sharing
    any word 4-gram with the benchmark split (doc_id % 17 == 0). Benchmark
    shingles broadcast once; corpus streams through one vectorized is_in."""
    from ..stages.contamination import benchmark_shingles, contaminated_docs

    docs = _docs(sf_dir, ["doc_id", "text"])
    bench = benchmark_shingles(
        docs.map_batches(_mod_filter(True), batch_format="pyarrow"), n=CONTAM_NGRAM
    )
    train = docs.map_batches(_mod_filter(False), batch_format="pyarrow")
    return contaminated_docs(train, bench, n=CONTAM_NGRAM).sort("doc_id")


def q_quality_filter(sf_dir: str):
    """Gopher-style repetition filter: docs surviving the duplicate-word /
    top-word-fraction / min-length thresholds, with their integer-milli
    stats."""
    from ..stages.textops import quality_filter

    return quality_filter(_docs(sf_dir, ["doc_id", "text"]))


def q_inverted_index(sf_dir: str):
    """word → (df, sorted posting list) over the corpus."""
    from ..stages.textops import inverted_index

    return inverted_index(_docs(sf_dir, ["doc_id", "text"]))


#: data-mixing sampler: per-source keep rate in milli (rate = 100 + 45·k for
#: source "src{k}") and a Knuth multiplicative hash of doc_id as the
#: deterministic coin — both sides integer, so the oracle is exact. The coin
#: is computed as ((id % 1000) · (MULT % 1000)) % 1000 ≡ (id · MULT) % 1000:
#: the reduced product never exceeds ~1e6, so neither numpy int64 (silent
#: wrap) nor DuckDB BIGINT (hard error) can overflow at any doc_id.
MIX_HASH_MULT = 2654435761
_MIX_MULT_RED = MIX_HASH_MULT % 1000


def q_packed_chunks(sf_dir: str):
    """Materialized training chunks: per (bucket, chunk) doc count, chars,
    and md5 of the ordered concatenated text."""
    from ..stages.packing import pack_chunks

    return pack_chunks(_docs(sf_dir, ["doc_id", "text"]))


#: collocation mining: bigrams seen ≥ this count qualify for PMI scoring —
#: the threshold prunes the candidate set BEFORE any join/driver step, which
#: is what keeps the op scale-safe (heavy collocations are few by definition)
COLLOC_MIN_COUNT = 10
COLLOC_TOP_K = 50


def q_collocations(sf_dir: str):
    """Phrase mining: top-50 bigrams by integer PMI surrogate
    pmi_milli = (1000 · cnt_ab · N_words) // (cnt_a · cnt_b), among bigrams
    with cnt_ab ≥ 10. Bigram + unigram counts stream through the partial-
    count path (shuffle = distinct grams); only the threshold-pruned
    candidate set (provably small) reaches the driver, where Python big-int
    arithmetic scores it exactly — no int64 overflow at any corpus size.

    The unigram side never reaches the driver whole: N_words is a streamed
    ``sum`` over the distributed count table, and the per-word counts are
    semi-joined down to the candidate bigrams' component words (≤ 2·|cand|,
    small by the same pruning argument) with a broadcast ``pc.is_in`` filter
    before the only driver pull. Vocabulary size (unbounded at web scale —
    typos/URLs/hashes) therefore never bounds driver memory."""
    import pandas as pd
    import pyarrow as pa
    import pyarrow.compute as pc

    from ..stages.aggregate import grouped_counts
    from ..stages.contamination import _doc_ngrams, _flat_words

    docs = _docs(sf_dir, ["text"])

    def explode_bigrams(batch: pa.Table) -> pa.Table:
        text = batch["text"]
        if isinstance(text, pa.ChunkedArray):
            text = text.combine_chunks()
        g, _ = _doc_ngrams(text, 2)
        return pa.table({"g": g})

    def explode_words(batch: pa.Table) -> pa.Table:
        text = batch["text"]
        if isinstance(text, pa.ChunkedArray):
            text = text.combine_chunks()
        flat, _ = _flat_words(text)
        return pa.table({"w": flat})

    big = grouped_counts(
        docs.map_batches(explode_bigrams, batch_format="pyarrow"), ["g"], "c2"
    )
    def keep_heavy(batch: pa.Table) -> pa.Table:
        return batch.filter(pc.greater_equal(batch["c2"], COLLOC_MIN_COUNT))

    heavy = big.map_batches(keep_heavy, batch_format="pyarrow")
    cand = heavy.to_pandas()  # small by construction (threshold-pruned)

    # semi-join the (unbounded) unigram table down to the candidate words
    cand_words: set = set()
    for g_ in cand["g"]:
        a, b = g_.split(" ", 1)
        cand_words.add(a)
        cand_words.add(b)
    word_set = pa.array(sorted(cand_words), type=pa.string())

    # materialize the distributed count table once: it feeds both the
    # streamed N_words sum and the is_in filter (lazy would re-explode text)
    uni_ds = grouped_counts(
        docs.map_batches(explode_words, batch_format="pyarrow"), ["w"], "c"
    ).materialize()
    n_words = int(uni_ds.sum("c") or 0)

    def keep_candidates(batch: pa.Table) -> pa.Table:
        return batch.filter(pc.is_in(batch["w"], value_set=word_set))

    if len(cand):
        uni = uni_ds.map_batches(
            keep_candidates, batch_format="pyarrow"
        ).to_pandas()
        counts = dict(zip(uni["w"], (int(v) for v in uni["c"])))
    else:  # empty-corpus guard: to_pandas() on an empty Dataset drops columns
        counts = {}

    rows = []
    for g_, c2 in zip(cand["g"], cand["c2"]):
        a, b = g_.split(" ", 1)
        pmi = (1000 * int(c2) * n_words) // (counts[a] * counts[b])
        rows.append((g_, int(c2), pmi))
    out = pd.DataFrame(rows, columns=["bigram", "cnt", "pmi_milli"])
    out = out.sort_values(
        ["pmi_milli", "bigram"], ascending=[False, True]
    ).head(COLLOC_TOP_K)
    return pa.Table.from_pandas(out.reset_index(drop=True), preserve_index=False)


def q_lm_scores(sf_dir: str):
    """Bigram-LM document scoring (the KenLM-shaped fluency signal of a
    training-data quality pipeline, as an exact-integer surrogate): per
    document, the mean corpus-transition score of its bigrams —
    ``lm_milli = (Σ_occurrences (1000·c(ab)) // c(a)) // n_bigrams`` with
    corpus-global counts. Pipeline shape at fleet scale: one text scan
    emits distinct (doc, bigram, multiplicity) rows; ONE native hash
    aggregate produces the global bigram counts; the prefix counts derive
    from that VOCABULARY-SIZED table (c(a·) = Σ_b c(ab) — never a second
    corpus pass), the per-gram score joins vocab-to-vocab, and only one
    corpus-sized PARTITIONED hash_join ships the (doc, gram) rows (no
    broadcast — the vocab is unbounded); the final per-doc reduce is a
    plain groupby. Nothing driver-side at any point.
    Int64 bounds: 1000·c(ab) caps at ~10¹⁵ for a 10¹²-bigram corpus.
    Single-word and empty docs carry no bigram and are absent by
    definition (SQL's big CTE drops them identically)."""
    import pyarrow.compute as pc
    from ray.data.aggregate import Sum

    from ..stages.contamination import _doc_ngrams
    from ..stages.joins import hash_join

    docs = _docs(sf_dir, ["doc_id", "text"])

    def explode(batch: pa.Table) -> pa.Table:
        text = batch["text"]
        if isinstance(text, pa.ChunkedArray):
            text = text.combine_chunks()
        g, idx = _doc_ngrams(text, 2)
        ids = pc.take(pc.cast(batch["doc_id"], pa.int64()), pa.array(idx))
        t = pa.table({"doc_id": ids, "g": g})
        gr = t.group_by(["doc_id", "g"]).aggregate([([], "count_all")])
        return gr.rename_columns(["doc_id", "g", "m"])

    # one text scan feeds the bigram aggregate and the score join (lazy
    # would re-explode per consumer)
    dg = docs.map_batches(explode, batch_format="pyarrow").materialize()

    bigc = dg.groupby("g").aggregate(Sum("m", alias_name="c2"))

    def add_prefix(batch: pa.Table) -> pa.Table:
        # first word = the prefix key (split_pattern is codepoint-safe for
        # multibyte words, unlike a byte-offset slice)
        a = pc.list_element(
            pc.split_pattern(batch["g"], " ", max_splits=1), 0
        )
        return batch.append_column("a", a)

    # NOTE: prefix counts c(a·) = Σ_b c(ab) derive from the VOCAB-sized
    # bigram table, not a second corpus pass. They count word occurrences
    # AS BIGRAM PREFIXES (doc-final words excluded) — the natural LM
    # denominator; the oracle derives the same quantity from its big CTE.
    bigca = bigc.map_batches(add_prefix, batch_format="pyarrow").materialize()
    unic = (
        bigca.map_batches(
            lambda b: pa.table({"w": b["a"], "mm": b["c2"]}),
            batch_format="pyarrow",
        )
        .groupby("w")
        .aggregate(Sum("mm", alias_name="c1"))
        .materialize()  # hash_join peeks schema(); avoid double-execute
    )
    # per-gram score: vocab ⋈ vocab — tiny next to the corpus
    sg = hash_join(bigca, unic, "a", "w")

    def per_gram(batch: pa.Table) -> pa.Table:
        import numpy as np

        c2 = batch["c2"].to_numpy(zero_copy_only=False).astype(np.int64)
        c1 = batch["c1"].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table(
            {
                "g": batch["g"],
                "sg": pa.array((1000 * c2) // c1, type=pa.int64()),
            }
        )

    score_tbl = sg.map_batches(per_gram, batch_format="pyarrow").materialize()

    # the ONE corpus-sized exchange: (doc, gram, m) ⋈ (gram, score)
    j = hash_join(dg, score_tbl, "g", "g")

    def weigh(batch: pa.Table) -> pa.Table:
        import numpy as np

        m = batch["m"].to_numpy(zero_copy_only=False).astype(np.int64)
        s = batch["sg"].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "s": pa.array(m * s, type=pa.int64()),
                "m": pa.array(m, type=pa.int64()),
            }
        )

    scored = (
        j.map_batches(weigh, batch_format="pyarrow")
        .groupby("doc_id")
        .aggregate(Sum("s", alias_name="s_sum"), Sum("m", alias_name="n_bigrams"))
    )

    def finish(batch: pa.Table) -> pa.Table:
        import numpy as np

        s = batch["s_sum"].to_numpy(zero_copy_only=False).astype(np.int64)
        n = batch["n_bigrams"].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "n_bigrams": pa.array(n, type=pa.int64()),
                "lm_milli": pa.array(s // n, type=pa.int64()),
            }
        )

    return scored.map_batches(finish, batch_format="pyarrow").sort("doc_id")


def q_mix_sample(sf_dir: str):
    """Domain mixing: downsample each source at its own rate (the
    training-mixture reweighting step). Stateless vectorized filter — keep
    doc iff (doc_id · MULT) % 1000 < rate(source); embarrassingly parallel,
    no shuffle, reproducible on any cluster size."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc

    docs = _docs(sf_dir, ["doc_id", "source"])

    def keep(batch: pa.Table) -> pa.Table:
        src = batch["source"]
        if isinstance(src, pa.ChunkedArray):
            src = src.combine_chunks()
        ids = batch["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        sfx = pc.cast(pc.utf8_slice_codeunits(src, 3, 32), pa.int64()).to_numpy(
            zero_copy_only=False
        )
        rate = 100 + 45 * sfx
        mask = ((ids % 1000) * _MIX_MULT_RED) % 1000 < rate
        return batch.filter(pa.array(mask))

    return docs.map_batches(keep, batch_format="pyarrow").sort("doc_id")


def q_top_terms(sf_dir: str):
    """Per-document top-3 TF-IDF-style terms with an integer-exact score
    (score = tf · ((1000·N_docs) // df) — `//` keeps both engines bit-equal;
    a float idf would be hash-fragile). The retrieval-prep pipeline shape:
    exploded (doc, word, tf) table → global (word, df) aggregate →
    partitioned hash_join on word (both sides large at fleet scale — no
    broadcast) → re-bucket by doc → vectorized per-bucket rank/head."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import pyarrow.compute as pc

    from ..stages.aggregate import bucket_by_key
    from ..stages.contamination import _flat_words
    from ..stages.joins import hash_join

    docs = _docs(sf_dir, ["doc_id", "text"])

    def tf_explode(batch: pa.Table) -> pa.Table:
        text = batch["text"]
        if isinstance(text, pa.ChunkedArray):
            text = text.combine_chunks()
        flat, idx = _flat_words(text)
        ids = pc.take(pc.cast(batch["doc_id"], pa.int64()), pa.array(idx))
        pairs = pa.table({"doc_id": ids, "w": flat})
        g = pairs.group_by(["doc_id", "w"]).aggregate([([], "count_all")])
        return g.rename_columns(["doc_id", "w", "tf"])

    # materialize tf ONCE: the single text scan feeds the df aggregate, the
    # N scalar, and the join (a lazy tf would re-run the explode per consumer)
    tf = docs.map_batches(tf_explode, batch_format="pyarrow").materialize()
    from ray.data.aggregate import Count, Sum

    # materialized for the same reason as tf: hash_join's schema() peek
    # would execute the df aggregate once for the schema and again for the
    # tag stage (Ray 2.49); size = |vocab|, the same volume the join
    # shuffles anyway (object store spills if needed)
    df_tbl = tf.groupby("w").aggregate(Count(alias_name="df")).materialize()
    # N: docs with ≥1 word — exactly the distinct doc_ids of tf, counted as
    # a GLOBAL distinct (per-batch dedup → groupby → row count). A per-batch
    # count_distinct sum would double-count any doc whose rows Ray's dynamic
    # block splitting spread over two blocks — invisible at gate scale,
    # wrong at fleet scale.
    def batch_distinct_ids(batch: pa.Table) -> pa.Table:
        return pa.table({"doc_id": pc.unique(batch["doc_id"])})

    n_docs = (
        tf.map_batches(batch_distinct_ids, batch_format="pyarrow")
        .groupby("doc_id")
        .count()
        .count()
    )

    joined = hash_join(tf, df_tbl, left_key="w", right_key="w")

    def score(batch: pa.Table) -> pa.Table:
        tf_v = batch["tf"].to_numpy(zero_copy_only=False).astype(np.int64)
        df_v = batch["df"].to_numpy(zero_copy_only=False).astype(np.int64)
        s = tf_v * ((1000 * n_docs) // df_v)
        return pa.table(
            {
                "doc_id": pc.cast(batch["doc_id"], pa.int64()),
                "w": batch["w"],
                "score": pa.array(s, type=pa.int64()),
            }
        )

    scored = joined.map_batches(score, batch_format="pyarrow")

    def rank_bucket(block: pd.DataFrame) -> pd.DataFrame:
        b = block.sort_values(
            ["doc_id", "score", "w"], ascending=[True, False, True]
        )
        b["rk"] = b.groupby("doc_id", sort=False).cumcount() + 1
        b = b[b["rk"] <= 3]
        return b[["doc_id", "w", "score", "rk"]]

    bucketed = bucket_by_key(scored, "doc_id", 64)
    return (
        bucketed.groupby("_bucket")
        .map_groups(rank_bucket, batch_format="pandas")
        .sort(["doc_id", "rk"])
    )


def q_repetition_filter(sf_dir: str):
    """Gopher-style structural repetition filter: duplicate-line fraction +
    top-bigram fraction thresholds (integer milli)."""
    from ..stages.textops import repetition_filter

    return repetition_filter(_docs(sf_dir, ["doc_id", "text"]))


def q_simhash_pairs(sf_dir: str):
    """SimHash Hamming near-dup pairs (≤ 3 bits over md5-token-hash
    signatures) — exact via pigeonhole banding, full DuckDB oracle."""
    from ..stages.dedup import simhash_hamming_pairs

    return simhash_hamming_pairs(_docs(sf_dir, ["doc_id", "text"]))


def q_rag_chunks(sf_dir: str):
    """RAG-prep chunking: overlapping 64-token windows (stride 48) per doc,
    with exact chunk text — the retrieval-index preparation step."""
    from ..stages.textops import chunk_documents

    return chunk_documents(_docs(sf_dir, ["doc_id", "text"]))


def q_freq_spectrum(sf_dir: str):
    """Vocabulary frequency spectrum (count-of-counts, the Zipf/Good-Turing
    table): rows (freq, n_words) = how many distinct lowercase words occur
    exactly freq times. Word counts come from the same hash-bucketed
    combine as vocab_top (each word's global count computed inside its one
    bucket — no single task holds the vocabulary); the spectrum itself is a
    tiny tree-combined count over ~log-many distinct frequencies."""
    import pandas as pd

    from ..stages.aggregate import tree_sum

    bucketed = _bucketed_word_counts(_docs(sf_dir, ["text"]))

    def bucket_spectrum(block: pd.DataFrame) -> pd.DataFrame:
        c = block.groupby("w", sort=False, observed=True)["n"].sum()
        spec = c.value_counts().sort_index()
        return pd.DataFrame(
            {"freq": spec.index.astype("int64"), "n_words": spec.to_numpy("int64")}
        )

    spectra = bucketed.groupby("_bucket").map_groups(
        bucket_spectrum, batch_format="pandas"
    )
    return tree_sum(spectra, ["freq"], ["n_words"], sort_result=True)


def q_dup_ngram_spans(sf_dir: str):
    """Substring-dedup signal: per doc, fraction of word 8-gram windows
    whose gram occurs >= 2 times in the corpus."""
    from ..stages.textops import duplicated_window_stats

    return duplicated_window_stats(_docs(sf_dir, ["doc_id", "text"]))


#: char-window length for the EXACTSUBSTR queries — long enough to be
#: discriminative on the templated corpus (≈8 words), short enough that
#: planted shared passages exceed it
_DUP_SPAN_WINDOW = 40


def q_dup_spans(sf_dir: str):
    """EXACTSUBSTR (Lee et al. 2021) duplicated spans: maximal char spans
    covered by length-40 windows occurring >= 2 times in the corpus —
    1-based inclusive (doc_id, span_start, span_end, span_chars)."""
    from ..stages.dedup import duplicated_spans

    return duplicated_spans(
        _docs(sf_dir, ["doc_id", "text"]), window=_DUP_SPAN_WINDOW
    )


def q_substring_dup_docs(sf_dir: str):
    """Doc-level rollup of the EXACTSUBSTR spans — the 'drop documents that
    are mostly duplicated text' curation gate: per doc with >= 1 duplicated
    span, its span count, duplicated char total and integer permille of
    n_chars.  The span set is bounded by the dedup premise (same cap as
    duplicated_spans), so the n_chars attach is a broadcast probe of the
    documents scan, not a shuffle join."""
    import numpy as np
    import pyarrow.compute as pc
    import ray
    from ray.data.aggregate import Count, Sum

    from ..stages.dedup import duplicated_spans

    spans = duplicated_spans(
        _docs(sf_dir, ["doc_id", "text"]), window=_DUP_SPAN_WINDOW
    )
    import pandas as pd

    if isinstance(spans, pd.DataFrame):
        # no duplicated windows at all → typed empty rollup
        return pd.DataFrame(
            {
                c: pd.Series([], dtype="int64")
                for c in ("doc_id", "n_chars", "dup_chars", "n_spans", "dup_permille")
            }
        )
    per_doc = spans.groupby("doc_id").aggregate(
        Sum("span_chars", alias_name="dup_chars"),
        Count(alias_name="n_spans"),
    )
    tbl = pa.concat_tables(
        [t for t in ray.get(per_doc.to_arrow_refs()) if t.num_rows]
        or [
            pa.table(
                {
                    "doc_id": pa.array([], type=pa.int64()),
                    "dup_chars": pa.array([], type=pa.int64()),
                    "n_spans": pa.array([], type=pa.int64()),
                }
            )
        ]
    )
    order = pc.sort_indices(tbl["doc_id"])
    dup_ids = pc.take(tbl["doc_id"], order).to_numpy(zero_copy_only=False)
    dup_chars = pc.take(tbl["dup_chars"], order).to_numpy(zero_copy_only=False)
    n_spans = pc.take(
        pc.cast(tbl["n_spans"], pa.int64()), order
    ).to_numpy(zero_copy_only=False)
    ref = ray.put((dup_ids, dup_chars, n_spans))

    def attach(batch: pa.Table) -> pa.Table:
        ids_np, chars_np, spans_np = ray.get(ref)
        ids = pc.cast(batch["doc_id"], pa.int64()).to_numpy(zero_copy_only=False)
        n_chars = pc.cast(batch["n_chars"], pa.int64()).to_numpy(
            zero_copy_only=False
        )
        if not len(ids_np):
            ids = ids[:0]
            n_chars = n_chars[:0]
        idx = np.searchsorted(ids_np, ids)
        idx_c = np.clip(idx, 0, max(len(ids_np) - 1, 0))
        match = ids_np[idx_c] == ids if len(ids) else np.zeros(0, dtype=bool)
        d = chars_np[idx_c[match]]
        s = spans_np[idx_c[match]]
        nc = n_chars[match]
        return pa.table(
            {
                "doc_id": pa.array(ids[match]),
                "n_chars": pa.array(nc),
                "dup_chars": pa.array(d),
                "n_spans": pa.array(s),
                "dup_permille": pa.array(1000 * d // nc),
            }
        )

    return (
        _docs(sf_dir, ["doc_id", "n_chars"])
        .map_batches(attach, batch_format="pyarrow")
        .sort("doc_id")
    )


def q_substring_dedup_cleaned(sf_dir: str):
    """The EXACTSUBSTR dedup ACTION: every duplicated span cut from every
    document (all occurrences, symmetric variant); per doc the kept char
    count and the md5 of the cleaned text — the md5 pins the full cleaned
    string against the oracle's string_agg gap reconstruction without
    hashing megabytes of text through the compare."""
    from ..stages.dedup import remove_duplicated_spans

    return remove_duplicated_spans(
        _docs(sf_dir, ["doc_id", "text"]), window=_DUP_SPAN_WINDOW
    )


def q_dup_spans_incremental(sf_dir: str):
    """Cross-dump EXACTSUBSTR THROUGH the persisted window sketch: the
    PRIOR corpus (doc_id % BLOOM_OLD_MOD == 0) is sketched once into a
    content-keyed bitmap pair (``state/substring_sketch.py``) and the NEW
    dump's duplicated spans against (prior ∪ new) come from the loaded
    sketch — no prior text pass.  The oracle replays the kernel's keep rule
    exactly — within-new recount OR prior-witnessed run >= min_run — so
    equality is corpus-independent: the documented window+min_run-1
    cross-dump detection floor is encoded in the SQL, not assumed absent
    from the data (round-5 advice item)."""
    import os as _os

    from ..stages.dedup import duplicated_spans_incremental
    from ..state.substring_sketch import SKETCH_META, build_substring_sketch

    docs = _docs(sf_dir, ["doc_id", "text"])

    def part(equal: bool):
        def f(batch: pa.Table) -> pa.Table:
            import numpy as np  # noqa: F401

            ids = batch["doc_id"].to_numpy(zero_copy_only=False)
            hit = (ids % BLOOM_OLD_MOD) == 0
            return batch.filter(pa.array(hit if equal else ~hit))

        return f

    prior = docs.map_batches(part(True), batch_format="pyarrow")
    new = docs.map_batches(part(False), batch_format="pyarrow")

    # sketch dir keyed by input identity + shaping modules + BUILD PARAMS
    # (same convention as the minhash index query)
    from ..stages import dedup as _dedup_mod
    from ..state import substring_sketch as _sk_mod

    sketch_dir = _artifact_cache_dir(
        sf_dir, "documents.parquet", "graft_substring_sketch",
        (_dedup_mod, _sk_mod), params=("window", _DUP_SPAN_WINDOW),
    )
    if not _os.path.exists(_os.path.join(sketch_dir, SKETCH_META)):
        build_substring_sketch(prior, sketch_dir, window=_DUP_SPAN_WINDOW)
    return duplicated_spans_incremental(new, sketch_dir)


def q_shared_paragraphs(sf_dir: str):
    """Dolma-style paragraph-dedup signal: per doc, distinct non-empty
    paragraphs appearing in >= 2 docs (integer milli fraction)."""
    from ..stages.textops import shared_paragraphs

    return shared_paragraphs(_docs(sf_dir, ["doc_id", "text"]))


def q_dedup_paragraphs(sf_dir: str):
    """C4-style GLOBAL paragraph dedup with reassembly: each distinct
    non-empty paragraph survives only at its first (doc_id, idx) occurrence
    corpus-wide; documents are re-joined from their kept paragraphs. The
    oracle replays the rule with a window-free min-rank join and ordered
    string_agg — the full clean_text values enter the driver hash."""
    from ..stages.textops import paragraph_dedup

    return paragraph_dedup(_docs(sf_dir, ["doc_id", "text"]))


def q_url_dedup_spectrum(sf_dir: str):
    """URL normalization + exact dedup profile: deterministic raw URLs
    rendered per event (mixed-case scheme/host, default and non-default
    ports, shuffled param order, fragments, every 17th row unparseable)
    are canonicalized by :func:`normalize_urls` and profiled as
    (dups → n_urls); unparseable rows land in the dups = -1 reject bin.
    The oracle re-derives the normalization GENERICALLY in SQL
    (regexp_extract components + list_sort of the query params), so the
    kernel's canonicalization is what the hash pins."""
    import numpy as np
    import pyarrow as pa

    from ..stages.textops import url_dedup_spectrum

    ev = _events(sf_dir, ["event_id"])

    def render(batch: pa.Table) -> pa.Table:
        e = batch["event_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        scheme = np.where(e % 2 == 0, "HTTP://", "https://")
        host = np.char.add(
            np.char.add("WWW.Site", (e % 5).astype("U1")), ".Example.COM"
        )
        port = np.select([e % 3 == 0, e % 3 == 1], [":80", ":8080"], "")
        path = np.char.add("/p/", (e % 10).astype("U2"))
        a = (e % 4).astype("U1")
        q = np.where(
            e % 2 == 0,
            np.char.add("?b=2&a=", a),
            np.char.add(np.char.add("?a=", a), "&b=2"),
        )
        frag = np.where(e % 5 == 0, "#frag", "")
        url = scheme.astype(object)
        for piece in (host, port, path, q, frag):
            url = np.char.add(url.astype("U120"), piece.astype("U40"))
        url = url.astype(object)
        url[e % 17 == 0] = "not a url"
        return pa.table({"url": pa.array(url, type=pa.string())})

    return url_dedup_spectrum(ev.map_batches(render, batch_format="pyarrow"))


def q_quality_top_decile(sf_dir: str):
    """Top-quantile curation: docs at or above the 0.9 discrete quantile of
    token count (histogram-derived threshold, ties kept)."""
    from ..stages.textops import quality_threshold_filter

    return quality_threshold_filter(_docs(sf_dir, ["doc_id", "text"]))


#: incremental-dedup split: docs with doc_id % BLOOM_OLD_MOD == 0 play the
#: prior (already-ingested) corpus; the rest are the new crawl
BLOOM_OLD_MOD = 3


def q_bloom_dedup(sf_dir: str):
    """Incremental dedup of the new crawl against the prior corpus via a
    broadcast Bloom prefilter + exact text verify (exact result, full
    oracle)."""
    import numpy as np
    import pyarrow as pa

    from ..stages.dedup import bloom_incremental_dedup

    docs = _docs(sf_dir, ["doc_id", "text"])

    def part(equal: bool):
        def f(batch: pa.Table) -> pa.Table:
            ids = batch["doc_id"].to_numpy(zero_copy_only=False)
            hit = (ids % BLOOM_OLD_MOD) == 0
            return batch.filter(pa.array(hit if equal else ~hit))

        return f

    old = docs.map_batches(part(True), batch_format="pyarrow")
    new = docs.map_batches(part(False), batch_format="pyarrow")
    return bloom_incremental_dedup(new, old)


def q_dedup_incremental_minhash(sf_dir: str):
    """Cross-dump NEAR-dup dedup: the new crawl (doc_id % 3 != 0) keeps only
    docs with no exact-word-3-gram-Jaccard ≥ 0.5 partner in the prior corpus
    (doc_id % 3 == 0) — candidates via the NEW×PRIOR-only LSH band join,
    verify exact (``minhash_incremental_dedup``). The fuzzy complement of
    ``bloom_dedup``'s exact-text tier, over the same corpus split. Planted
    dups sit at J ≥ 0.9 where 32-band/4-row recall is ≈ 1 − 10⁻¹⁵, so the
    all-pairs SQL oracle is exact."""
    import pyarrow as pa

    from ..stages.dedup import minhash_incremental_dedup

    docs = _docs(sf_dir, ["doc_id", "text"])

    def part(equal: bool):
        def f(batch: pa.Table) -> pa.Table:
            import numpy as np

            ids = batch["doc_id"].to_numpy(zero_copy_only=False)
            hit = (ids % BLOOM_OLD_MOD) == 0
            return batch.filter(pa.array(hit if equal else ~hit))

        return f

    old = docs.map_batches(part(True), batch_format="pyarrow")
    new = docs.map_batches(part(False), batch_format="pyarrow")
    return minhash_incremental_dedup(new, old, min_jaccard=0.5)


def q_dedup_incremental_minhash_indexed(sf_dir: str):
    """The same cross-dump near-dup dedup THROUGH the persisted LSH index:
    the prior corpus's band rows are built once into a content-keyed
    parquet index (``state/minhash_index.py`` — the per-dump artifact a
    production run re-loads instead of recomputing) and the new crawl
    dedups against the LOADED index. Must reproduce the recompute-path
    oracle exactly — one oracle, two prior-side plans."""
    import os as _os

    import pyarrow as pa

    from ..state.minhash_index import build_minhash_index, load_minhash_index
    from ..stages.dedup import minhash_incremental_dedup

    docs = _docs(sf_dir, ["doc_id", "text"])

    def part(equal: bool):
        def f(batch: pa.Table) -> pa.Table:
            import numpy as np

            ids = batch["doc_id"].to_numpy(zero_copy_only=False)
            hit = (ids % BLOOM_OLD_MOD) == 0
            return batch.filter(pa.array(hit if equal else ~hit))

        return f

    old = docs.map_batches(part(True), batch_format="pyarrow")
    new = docs.map_batches(part(False), batch_format="pyarrow")

    # index dir keyed by input identity + the modules that shape band rows
    # (same convention as sink_counts_checkpointed): a regenerated table or
    # a kernel change invalidates the cached index instead of silently
    # serving stale band rows
    from ..stages import dedup as _dedup_mod
    from ..state import minhash_index as _idx_mod

    index_dir = _artifact_cache_dir(
        sf_dir, "documents.parquet", "graft_minhash_index",
        (_dedup_mod, _idx_mod), params=("min_jaccard", 0.5),
    )
    if not _os.path.exists(_os.path.join(index_dir, "_meta.json")):
        build_minhash_index(old, index_dir)
    return minhash_incremental_dedup(
        new, old, min_jaccard=0.5, prior_banded=load_minhash_index(index_dir)
    )


def q_video_frames(sf_dir: str):
    """End-to-end VIDEO pipeline over real self-decoded AVI containers:
    each doc id is rendered into a deterministic uncompressed-DIB AVI (6
    flat 8×8 frames, pixel value = (doc_id*7 + frame*13) mod 256,
    ``functions/avi.py`` encoder), frame-sampled every 2nd frame by the
    strict actor-pool FrameSampleStage (RIFF chunk walk → PPM re-encode),
    decoded back per frame, and reduced to the exact integer frame mean.
    DIB is lossless, so the whole container → sample → decode path is
    SQL-reproducible: oracle = docs × (0,2,4) with the same closed-form
    pixel value."""
    import numpy as np
    import pyarrow as pa

    from ..stages.multimodal import FrameSampleStage, decode_ppm
    from ..functions.avi import encode_avi

    docs = _docs(sf_dir, ["doc_id"])

    def render(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        payloads = []
        for i in ids:
            frames = [
                np.full((8, 8, 3), (int(i) * 7 + f * 13) % 256, dtype=np.uint8)
                for f in range(6)
            ]
            payloads.append(encode_avi(frames, fps=10, codec="DIB "))
        return pa.table(
            {
                "media_id": pa.array(ids),
                "payload": pa.array(payloads, type=pa.binary()),
            }
        )

    sampled = docs.map_batches(render, batch_format="pyarrow").map_batches(
        FrameSampleStage,
        fn_constructor_kwargs={"every_k": 2, "strict": True},
        batch_format="pyarrow",
        batch_size=256,
        concurrency=(1, 4),
    )

    def frame_mean(batch: pa.Table) -> pa.Table:
        means = [
            int(decode_ppm(fb.as_py() if hasattr(fb, "as_py") else bytes(fb)).mean())
            for fb in batch["frame"]
        ]
        return pa.table(
            {
                "doc_id": batch["media_id"],
                "frame_idx": batch["frame_idx"].cast(pa.int64()),
                "mean_val": pa.array(means, type=pa.int64()),
            }
        )

    return (
        sampled.map_batches(frame_mean, batch_format="pyarrow")
        .sort(["doc_id", "frame_idx"])
    )


def q_media_features(sf_dir: str):
    """Multimodal decode pipeline over REAL self-decoded payloads: each doc
    id is rendered into a deterministic small PNG (pure-Python encoder),
    decoded back by the strict actor-pool DecodeImageStage (stdlib zlib +
    numpy unfiltering — no PIL), and reduced to integer features. Rows-only
    driver check (feature extraction has no SQL equivalent); the decoder
    itself is pinned by pixel-exact unit tests."""
    import numpy as np
    import pyarrow as pa

    from ..stages.multimodal import IMAGE_META_TYPE, DecodeImageStage, encode_png

    docs = _docs(sf_dir, ["doc_id"])

    def render(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        payloads, metas = [], []
        for i in ids:
            # deterministic 8×8 RGB image from the id (no RNG)
            base = np.arange(192, dtype=np.int64) * (7 + int(i) % 251) + int(i)
            px = (base % 256).astype(np.uint8).reshape(8, 8, 3)
            payloads.append(encode_png(px, filter_type="mixed"))
            metas.append({"width": 8, "height": 8, "format": "png"})
        return pa.table(
            {
                "media_id": pa.array(ids),
                "payload": pa.array(payloads, type=pa.binary()),
                "meta": pa.array(metas, type=IMAGE_META_TYPE),
            }
        )

    media = docs.map_batches(render, batch_format="pyarrow")
    feats = media.map_batches(
        DecodeImageStage,
        fn_constructor_kwargs={"strict": True},
        batch_format="pyarrow",
        batch_size=256,
        concurrency=(1, 4),
    )

    def to_ints(batch: pa.Table) -> pa.Table:
        f = np.stack(
            [np.asarray(v) for v in batch["features"].to_pylist()]
        ) if batch.num_rows else np.zeros((0, 16), dtype=np.float32)
        return pa.table(
            {
                "media_id": batch["media_id"],
                "width": pa.array(f[:, 0].astype(np.int64), type=pa.int64()),
                "height": pa.array(f[:, 1].astype(np.int64), type=pa.int64()),
                "mean_milli_r": pa.array(
                    (f[:, 2] * 1000).round().astype(np.int64), type=pa.int64()
                ),
                "std_milli_r": pa.array(
                    (f[:, 5] * 1000).round().astype(np.int64), type=pa.int64()
                ),
            }
        )

    return feats.map_batches(to_ints, batch_format="pyarrow").sort("media_id")


def q_resized_media(sf_dir: str):
    """Decode → RESIZE → re-decode roundtrip over real self-decoded
    payloads: the media_features PNGs are bilinear-resized 8×8 → 4×4 by
    the actor-pool ResizeImageStage (pure-numpy kernel, PPM re-encode),
    decoded AGAIN, and reduced to exact integer pixel sums per image.
    Rows-only driver check; the resize kernel is pinned by hand-value and
    naive-reference unit tests."""
    import numpy as np
    import pyarrow as pa

    from ..stages.multimodal import (
        IMAGE_META_TYPE,
        ResizeImageStage,
        decode_ppm,
        encode_png,
    )

    docs = _docs(sf_dir, ["doc_id"])

    def render(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        payloads, metas = [], []
        for i in ids:
            base = np.arange(192, dtype=np.int64) * (7 + int(i) % 251) + int(i)
            px = (base % 256).astype(np.uint8).reshape(8, 8, 3)
            payloads.append(encode_png(px, filter_type="mixed"))
            metas.append({"width": 8, "height": 8, "format": "png"})
        return pa.table(
            {
                "media_id": pa.array(ids),
                "payload": pa.array(payloads, type=pa.binary()),
                "meta": pa.array(metas, type=IMAGE_META_TYPE),
            }
        )

    resized = docs.map_batches(render, batch_format="pyarrow").map_batches(
        ResizeImageStage,
        fn_constructor_kwargs={
            "out_h": 4, "out_w": 4, "method": "bilinear", "strict": True,
        },
        batch_format="pyarrow",
        batch_size=256,
        concurrency=(1, 4),
    )

    def pixel_sums(batch: pa.Table) -> pa.Table:
        sums = [
            int(decode_ppm(p).astype(np.int64).sum())
            for p in batch["payload"].to_pylist()
        ]
        return pa.table(
            {
                "media_id": batch["media_id"],
                "pixel_sum": pa.array(sums, type=pa.int64()),
            }
        )

    return resized.map_batches(pixel_sums, batch_format="pyarrow").sort(
        "media_id"
    )


def q_epoch_shuffle(sf_dir: str):
    """Deterministic epoch shuffle: global order by md5(seed:doc_id) —
    reproducible across cluster sizes, rerunnable per epoch by seed."""
    from ..stages.packing import hash_shuffle

    return hash_shuffle(_docs(sf_dir, ["doc_id"])).select_columns(["doc_id", "h"])


def q_pack_sequences(sf_dir: str):
    """Sequence packing: per-bucket greedy doc→fixed-token-chunk assignment
    (chunk_tokens=256, buckets=8)."""
    from ..stages.packing import pack_sequences

    return pack_sequences(_docs(sf_dir, ["doc_id", "text"]))


def q_masked_docs(sf_dir: str):
    """Privacy scrub: normalized + IP/email-masked document text (the
    pre-retention cleaning pass), row-for-row vs the SQL oracle."""
    from ..stages.textops import normalize_and_mask

    return normalize_and_mask(_docs(sf_dir, ["doc_id", "text"]))


def q_jaccard_pairs(sf_dir: str):
    from ..stages.dedup import jaccard_pairs_by_block

    return jaccard_pairs_by_block(_docs(sf_dir), min_ratio=JACCARD_TAU)


def q_containment_pairs(sf_dir: str):
    """Asymmetric Broder containment |A∩B|/min(|A|,|B|) >= 0.8 within each
    source block — the quote/subset near-dup detector symmetric Jaccard
    misses (a short doc fully embedded in a long one)."""
    from ..stages.dedup import containment_pairs_by_block

    return containment_pairs_by_block(_docs(sf_dir))


def q_ngram_jaccard(sf_dir: str):
    from ..stages.dedup import ngram_jaccard_pairs_by_block

    return ngram_jaccard_pairs_by_block(_docs(sf_dir))


def q_ppjoin_pairs(sf_dir: str):
    """GLOBAL (no blocking key) token-set Jaccard ≥ 9/10 pairs via the
    PPJoin-style prefix-filter join — the scale path that makes the
    O(n²)-per-block validators unnecessary when no safe blocking column
    exists. Exact (a, b, inter, union_) output."""
    from ..stages.dedup import prefix_filter_jaccard_pairs

    return prefix_filter_jaccard_pairs(
        _docs(sf_dir), threshold_num=9, threshold_den=10
    )


def q_dup_clusters(sf_dir: str):
    """Connected components over the verified token-set Jaccard pairs:
    (doc_id, cluster_id=min id in component)."""
    from ..stages.dedup import dup_clusters, jaccard_pairs_by_block

    pairs = jaccard_pairs_by_block(_docs(sf_dir), min_ratio=JACCARD_TAU)
    return dup_clusters(pairs)


def q_cluster_canonicals(sf_dir: str):
    """Canonical-document selection per duplicate cluster: from the
    verified-pair connected components, each cluster keeps its
    highest-quality member (max n_chars, tie doc_id asc) — the
    canonicalization step between clustering and dedup-filtering in a
    curation pipeline. Cluster table ⋈ documents metadata via a
    partitioned hash_join; winner via the two-stage partial top-k."""
    import ray.data

    from ..stages.aggregate import grouped_topk, tree_sum
    from ..stages.dedup import dup_clusters, jaccard_pairs_by_block
    from ..stages.joins import hash_join

    pairs = jaccard_pairs_by_block(_docs(sf_dir), min_ratio=JACCARD_TAU)
    clusters = dup_clusters(pairs)  # (doc_id, cluster_id)
    meta = _docs(sf_dir, ["doc_id", "n_chars"]).map_batches(
        lambda t: t.rename_columns(["m_doc", "n_chars"]),
        batch_format="pyarrow",
    )
    joined = hash_join(clusters, meta, "doc_id", "m_doc", num_buckets=8)
    wins = grouped_topk(
        joined.select_columns(["cluster_id", "n_chars", "doc_id"]),
        key_col="cluster_id",
        order_col="n_chars",
        id_col="doc_id",
        k=1,
    ).map_batches(
        lambda t: t.rename_columns(["cluster_id", "n_chars", "canonical_doc"]),
        batch_format="pyarrow",
    )
    sizes = tree_sum(
        clusters.map_batches(
            lambda t: pa.table(
                {
                    "cluster_id": t["cluster_id"],
                    "size": pa.array([1] * t.num_rows, type=pa.int64()),
                }
            ),
            batch_format="pyarrow",
        ),
        ["cluster_id"],
        ["size"],
        sort_result=False,
    )
    out = hash_join(wins, sizes, "cluster_id", "cluster_id", num_buckets=8)
    # one-sided-empty buckets transit pandas merge as float64 and Ray then
    # promotes the WHOLE column — pin the declared int64 schema per block
    target = pa.schema(
        [
            ("cluster_id", pa.int64()),
            ("canonical_doc", pa.int64()),
            ("n_chars", pa.int64()),
            ("size", pa.int64()),
        ]
    )
    return out.map_batches(
        lambda t: t.select(
            ["cluster_id", "canonical_doc", "n_chars", "size"]
        ).cast(target),
        batch_format="pyarrow",
    ).sort("cluster_id")


def q_dedup_filtered_docs(sf_dir: str):
    """End-to-end near-dup dedup: pairs → clusters → broadcast anti-join
    filter; returns the surviving doc ids."""
    from ..stages.dedup import dup_clusters, filter_non_keepers, jaccard_pairs_by_block

    docs = _docs(sf_dir, ["doc_id", "text", "source"])
    pairs = jaccard_pairs_by_block(docs, min_ratio=JACCARD_TAU)
    clusters = dup_clusters(pairs)
    return (
        filter_non_keepers(_docs(sf_dir, ["doc_id"]), clusters)
        .select_columns(["doc_id"])
        .sort("doc_id")
    )


def q_dedup_filtered_docs_minhash(sf_dir: str):
    """End-to-end near-dup dedup through the SCALE path: MinHash+LSH
    candidates (band shuffle carries ids only) → exact-Jaccard verify →
    clusters → anti-join filter. The keeper set must equal the all-pairs
    exact word-3-gram-Jaccard oracle — planted dups sit at J ≥ 0.9 where
    32-band/4-row LSH recall is 1 − (1 − 0.9⁴)³² ≈ 1 − 10⁻¹⁵."""
    from ..stages.dedup import dup_clusters, filter_non_keepers, minhash_lsh_pairs

    docs = _docs(sf_dir, ["doc_id", "text"])
    pairs = minhash_lsh_pairs(docs, min_jaccard=0.5)
    clusters = dup_clusters(pairs)
    return (
        filter_non_keepers(_docs(sf_dir, ["doc_id"]), clusters)
        .select_columns(["doc_id"])
        .sort("doc_id")
    )


def q_corpus_refresh(sf_dir: str):
    """End-to-end NEW-DUMP INGESTION — the composite a corpus refresh runs
    per crawl: the new dump (doc_id % 3 != 0) survives (1) exact-text dedup
    vs the prior corpus (Bloom prefilter + exact verify), (2) near-dup
    dedup vs the prior corpus (MinHash LSH + exact-Jaccard verify) and
    (3) the Gopher-style repetition quality gate, emitting keeper ids with
    their quality stats. Composed as the INTERSECTION of the three tiers'
    keeper sets (each per-doc independent, so intersection ≡ sequential
    application — an exact dup is also a J=1 near-dup) via two bucketed
    hash joins: every tier is its own scale-shaped pipeline and the join
    exchange carries ids + three ints only."""
    import pyarrow as pa

    from ..stages.dedup import bloom_incremental_dedup, minhash_incremental_dedup
    from ..stages.joins import hash_join
    from ..stages.textops import quality_filter

    docs = _docs(sf_dir, ["doc_id", "text"])

    def part(equal: bool):
        def f(batch: pa.Table) -> pa.Table:
            import numpy as np

            ids = batch["doc_id"].to_numpy(zero_copy_only=False)
            hit = (ids % BLOOM_OLD_MOD) == 0
            return batch.filter(pa.array(hit if equal else ~hit))

        return f

    old = docs.map_batches(part(True), batch_format="pyarrow")
    new = docs.map_batches(part(False), batch_format="pyarrow")

    kept_exact = bloom_incremental_dedup(new, old)
    kept_near = minhash_incremental_dedup(new, old, min_jaccard=0.5)

    def strip_sort_key(name):
        def f(batch: pa.Table) -> pa.Table:
            return batch.select(["doc_id"]).rename_columns([name])

        return f

    qual = quality_filter(new)  # (doc_id, token_total, dup_milli, top_milli)
    j = hash_join(
        qual,
        kept_exact.map_batches(strip_sort_key("_ke"), batch_format="pyarrow"),
        "doc_id",
        "_ke",
    ).drop_columns(["_ke"])
    j = hash_join(
        j,
        kept_near.map_batches(strip_sort_key("_kn"), batch_format="pyarrow"),
        "doc_id",
        "_kn",
    ).drop_columns(["_kn"])
    return j.sort("doc_id")


def q_approx_distinct_users(sf_dir: str):
    """Mergeable-sketch aggregation: HLL approx COUNT(DISTINCT user_id) per
    event_type. Approximate by design → rows-only driver check; the ±error
    bound vs the exact count is asserted in tests."""
    from ..stages.aggregate import approx_distinct

    return approx_distinct(
        _events(sf_dir, ["event_type", "user_id"]), "event_type", "user_id"
    )


def q_sink_counts_custom_db(sf_dir: str):
    """The flagship sink counts computed through the CUSTOM lookup path:
    compile the golden token→country side table into an engine-built MMDB,
    enrich with CustomMMDBEnricher instead of the GeoIP projection, count
    per (country, tool). Must equal the sink_counts oracle — one oracle,
    two independent enrichment engines."""
    import pyarrow as pa
    import pyarrow.compute as pc
    import pyarrow.parquet as pq
    import ray.data

    from ..functions.iputil import parse_ip
    from ..sources.transcripts import ip_geo_path, transcripts_path
    from ..stages.aggregate import grouped_counts
    from ..stages.custom_lookup import CustomMMDBEnricher
    from ..stages.parse import make_extract_ips
    from ..state.mmdb_writer import build_mmdb

    side = pq.read_table(ip_geo_path(sf_dir)).to_pylist()
    entries = []
    for row in side:
        addr = parse_ip(row["ip"])
        if addr is None or row["country_code2"] is None:
            continue
        entries.append(
            ("%s/%d" % (addr, 32 if addr.version == 4 else 128),
             {"country": row["country_code2"]})
        )
    import hashlib
    import os as _os

    db_path = "/tmp/custom_sink_db_%s.mmdb" % hashlib.md5(
        repr(sorted(entries)).encode()
    ).hexdigest()[:12]
    if not _os.path.exists(db_path):
        build_mmdb(entries, db_path + ".tmp", database_type="Custom-Country")
        _os.replace(db_path + ".tmp", db_path)

    ds = ray.data.read_parquet(transcripts_path(sf_dir), columns=["text", "tool"])
    ds = ds.map_batches(make_extract_ips(drop_text=True), batch_format="pyarrow")
    ds = ds.map_batches(
        CustomMMDBEnricher(db_path, {"country": pa.string()}),
        batch_format="pyarrow",
    )

    def route(batch: pa.Table) -> pa.Table:
        target = batch["lookup"]
        if isinstance(target, pa.ChunkedArray):
            target = target.combine_chunks()
        country = pc.fill_null(pc.struct_field(target, ["country"]), "_miss")
        return batch.select(["tool"]).append_column("country", country)

    ds = ds.map_batches(route, batch_format="pyarrow")
    return grouped_counts(ds, ["country", "tool"], "n", sort_result=True)


def q_dedup_minhash(sf_dir: str):
    from ..stages.dedup import minhash_lsh_pairs

    return minhash_lsh_pairs(_docs(sf_dir, ["doc_id", "text"]), min_jaccard=0.3)


def q_dedup_simhash(sf_dir: str):
    from ..stages.dedup import simhash_signatures

    return simhash_signatures(_docs(sf_dir, ["doc_id", "text"]))


def q_dedup_embedding(sf_dir: str):
    """Exact all-pairs cosine dedup through the block-grid self-join (the
    scale default — no driver materialization); the broadcast variant is the
    in-test cross-check."""
    from ..stages.dedup import embedding_dup_pairs

    return embedding_dup_pairs(_emb(sf_dir, ["vec_id", "embedding"]), min_cosine=EMB_DUP_TAU)


def q_dedup_filtered_embeddings(sf_dir: str):
    """SemDeDup end-to-end: exact cosine dup pairs (block-grid self-join) →
    connected components → anti-join keeper filter over the embeddings
    table. Returns the surviving vec_ids; keeper = min id per cluster."""
    from ..stages.dedup import dup_clusters, embedding_dup_pairs, filter_non_keepers

    pairs = embedding_dup_pairs(_emb(sf_dir, ["vec_id", "embedding"]), min_cosine=EMB_DUP_TAU)
    clusters = dup_clusters(pairs)
    return (
        filter_non_keepers(_emb(sf_dir, ["vec_id"]), clusters, id_col="vec_id")
        .select_columns(["vec_id"])
        .sort("vec_id")
    )


def _artifact_cache_dir(sf_dir, table, prefix, mods, params=()):
    """Content-keyed /tmp artifact directory for persisted indexes/sketches:
    hashes the input parquet's identity (path+size+mtime), the shaping
    modules' bytes, AND the build parameters — so changing ANY of
    window / n_clusters / n_subspaces / n_codes invalidates the cached
    artifact instead of silently serving one built with the old parameters
    (round-5 advice item: the parameter edit used to reuse a stale
    artifact whose meta then drove the kernel with the old values)."""
    import hashlib
    import os as _os

    h = hashlib.md5()
    p = _os.path.join(sf_dir, table)
    st = _os.stat(p)
    h.update(("%s:%d:%d" % (p, st.st_size, st.st_mtime_ns)).encode())
    for mod in mods:
        with open(mod.__file__, "rb") as f:
            h.update(f.read())
    h.update(repr(tuple(params)).encode())
    return "/tmp/%s/%s" % (prefix, h.hexdigest()[:16])


#: SemDeDup scale-path clustering spec (shared by the Ray query AND the
#: oracle's local centroid replica — same constants, no drift possible)
SEMDEDUP_K = 8
SEMDEDUP_ITERS = 4
SEMDEDUP_SAMPLE_MILLI = 200  # init="sample" hash-sample rate (per-mille)


def q_dedup_semantic_clustered(sf_dir: str):
    """SemDeDup's corpus-scale route end-to-end (round-5 verdict item #3):
    integer-exact distributed kmeans fit → cluster-partitioned exact cosine
    pairs (within-cluster ONLY — Σ cluster² ≪ n², the SemDeDup
    approximation by design) → connected components → anti-join keepers.
    The oracle reproduces the identical partition from centroid literals
    computed by the bit-exact LOCAL kmeans replica
    (:func:`clustering.kmeans_fit_local`, distributed==local pinned by
    test), then restricts the recursive-CTE keeper SQL to within-cluster
    pairs.  The exact block-grid (``dedup_filtered_embeddings``) stays
    registered beside it as the exactness cross-check."""
    from ..stages.clustering import kmeans_fit
    from ..stages.dedup import (
        dup_clusters,
        filter_non_keepers,
        semdedup_clustered_pairs,
    )

    emb = _emb(sf_dir, ["vec_id", "embedding"])
    centroids = kmeans_fit(emb, k=SEMDEDUP_K, iters=SEMDEDUP_ITERS)
    pairs = semdedup_clustered_pairs(emb, centroids, min_cosine=EMB_DUP_TAU)
    clusters = dup_clusters(pairs)
    return (
        filter_non_keepers(_emb(sf_dir, ["vec_id"]), clusters, id_col="vec_id")
        .select_columns(["vec_id"])
        .sort("vec_id")
    )


def q_dedup_semantic_clustered_sampled(sf_dir: str):
    """The same SemDeDup scale route under the 1-PASS kmeans init
    (``init="sample"``: deterministic splitmix64(id) hash sample, then
    farthest-point locally — k−1 corpus passes become 1).  A different init
    means different centroids, so this gets its OWN oracle whose centroid
    literals come from the local replica under the identical sample rule —
    proving the scale init end-to-end, not just in unit tests."""
    from ..stages.clustering import kmeans_fit
    from ..stages.dedup import (
        dup_clusters,
        filter_non_keepers,
        semdedup_clustered_pairs,
    )

    emb = _emb(sf_dir, ["vec_id", "embedding"])
    centroids = kmeans_fit(
        emb, k=SEMDEDUP_K, iters=SEMDEDUP_ITERS,
        init="sample", sample_milli=SEMDEDUP_SAMPLE_MILLI,
    )
    pairs = semdedup_clustered_pairs(emb, centroids, min_cosine=EMB_DUP_TAU)
    clusters = dup_clusters(pairs)
    return (
        filter_non_keepers(_emb(sf_dir, ["vec_id"]), clusters, id_col="vec_id")
        .select_columns(["vec_id"])
        .sort("vec_id")
    )


#: eigenvalues reported by pca_components (d=64 upstream; top-8 carries
#: ~all the variance signal and keeps the rows-only check table tiny)
PCA_TOP_K = 8


def q_embedding_gram(sf_dir: str):
    """Distributed exact-integer Gram matrix of the embeddings table:
    one matmul per batch reduces each (n × 64) slice to 64² int64 partials,
    tree-combined — O(d²) numbers cross the exchange regardless of row
    count (the one-pass distributed-PCA shape). Oracle: DuckDB unnest
    self-join over the same floor(v·1000) quantization."""
    from ..stages.linalg import gram_triplets

    return gram_triplets(_emb(sf_dir, ["embedding"])).sort(["i", "j"])


def q_pca_components(sf_dir: str):
    """PCA over the embeddings: top-8 eigenvalues of the sample covariance
    assembled from the single Gram/moments exchange (driver sees exactly
    d² + d + 1 integers), eigendecomposed on the driver. Exact-integer
    milli outputs; rows-only driver check (SQL has no eigensolver) — the
    distributed path is pinned in-test against a local numpy PCA of the
    same quantized matrix."""
    import pyarrow as pa

    from ..stages.linalg import covariance_eig

    evals, _, n = covariance_eig(
        _emb(sf_dir, ["embedding"]), top=PCA_TOP_K
    )
    total = float(evals.sum()) if evals.sum() else 1.0
    cum = 0.0
    rows_k, rows_ev, rows_cum = [], [], []
    for k, ev in enumerate(evals):
        cum += float(ev)
        rows_k.append(k)
        rows_ev.append(int(ev * 1_000_000))  # micro: evals are ~1/d each
        rows_cum.append(int(1000 * cum / total))
    return pa.table(
        {
            "component": pa.array(rows_k, type=pa.int64()),
            "eigenvalue_micro": pa.array(rows_ev, type=pa.int64()),
            "cum_var_milli_of_topk": pa.array(rows_cum, type=pa.int64()),
            "n_rows": pa.array([n] * len(rows_k), type=pa.int64()),
        }
    )


def q_ann_topk(sf_dir: str):
    from ..stages.similarity import brute_force_topk

    return brute_force_topk(_emb(sf_dir), ANN_QUERY_IDS, k=ANN_K)


def q_ann_lsh(sf_dir: str):
    from ..stages.similarity import lsh_topk

    return lsh_topk(_emb(sf_dir), ANN_QUERY_IDS, k=ANN_K)


def q_ann_ivf(sf_dir: str):
    from ..stages.similarity import ivf_topk

    return ivf_topk(_emb(sf_dir, ["vec_id", "embedding"]), ANN_QUERY_IDS, k=ANN_K)


def q_ann_pq(sf_dir: str):
    """Product-quantization ADC search (compressed-domain ANN): per-subspace
    codebooks trained on the deterministic bounded sample, every corpus
    vector scored as n_subspaces table lookups — the 32x-compression path
    that lets a 100 TB embedding corpus serve from RAM.  Rows-only (lossy
    by design); recall + exact local-reference equality pinned in tests."""
    from ..stages.similarity import pq_topk

    return pq_topk(
        _emb(sf_dir, ["vec_id", "embedding"]),
        ANN_QUERY_IDS,
        k=ANN_K,
        n_subspaces=16,
        n_codes=64,
    )


def q_ann_ivf_indexed(sf_dir: str):
    """The same IVF search THROUGH the persisted cell-partitioned index
    (``state/ann_index.py``): the codebook and per-cell vector partitions
    are built once into a content-keyed /tmp index; search reads ONLY the
    probed cells' directories — the scan itself shrinks by
    ~n_probe/n_clusters, the directory-pruning win a recomputing IVF can
    never have. Must equal the recompute-path ``ann_ivf`` rows exactly
    (same codebook sample rule + seed); rows-only driver check like
    ann_ivf, exact-equality pinned in tests."""
    from ..state.ann_index import ivf_index_topk

    return ivf_index_topk(_ivf_index_dir(sf_dir), ANN_QUERY_IDS, k=ANN_K)


#: coarse-quantizer cells of the persisted IVF index (build + both search
#: tiers share it; part of the artifact cache key)
IVF_N_CLUSTERS = 16


def _ivf_index_dir(sf_dir: str) -> str:
    """Build-once content-keyed IVF index for this corpus (+params)."""
    import os as _os

    from ..state import ann_index as _ann_mod
    from ..state.ann_index import build_ivf_index
    from ..stages import similarity as _sim_mod

    index_dir = _artifact_cache_dir(
        sf_dir, "embeddings.parquet", "graft_ivf_index",
        (_ann_mod, _sim_mod), params=("n_clusters", IVF_N_CLUSTERS),
    )
    if not _os.path.exists(_os.path.join(index_dir, "_meta.json")):
        build_ivf_index(
            _emb(sf_dir, ["vec_id", "embedding"]), index_dir,
            n_clusters=IVF_N_CLUSTERS,
        )
    return index_dir


def q_ann_ivf_indexed_fullprobe(sf_dir: str):
    """The persisted-IVF tier at n_probe = n_clusters: every cell is probed,
    so the search degenerates to an exact scan THROUGH the index layout and
    must equal the brute-force top-k bit-for-bit — which upgrades one
    persisted-index ANN tier from a rows-only driver check to a full hash
    MATCH against the ``ann_topk`` SQL oracle (round-5 verdict item #6).
    The pruned n_probe=4 tier stays registered beside it as the honest
    lossy path."""
    from ..state.ann_index import ivf_index_topk

    return ivf_index_topk(
        _ivf_index_dir(sf_dir), ANN_QUERY_IDS, k=ANN_K,
        n_probe=IVF_N_CLUSTERS,
    )


def q_ann_ivfpq_indexed(sf_dir: str):
    """Compressed-domain search THROUGH the persisted IVF-PQ index: the
    coarse quantizer prunes at the directory level AND each probed cell
    holds only uint8 residual codes (~64x smaller reads than the raw-vector
    IVF index) — the FAISS-style serving shape for a 100 TB embedding
    corpus.  Rows-only (doubly lossy by design); recall + determinism
    pinned in tests."""
    import os as _os

    from ..state import ann_index as _ann_mod
    from ..state.ann_index import build_ivfpq_index, ivfpq_index_topk
    from ..stages import similarity as _sim_mod

    index_dir = _artifact_cache_dir(
        sf_dir, "embeddings.parquet", "graft_ivfpq_index",
        (_ann_mod, _sim_mod),
        params=("n_clusters", 8, "n_subspaces", 16, "n_codes", 64),
    )
    if not _os.path.exists(_os.path.join(index_dir, "_meta.json")):
        build_ivfpq_index(
            _emb(sf_dir, ["vec_id", "embedding"]), index_dir,
            n_clusters=8, n_subspaces=16, n_codes=64,
        )
    return ivfpq_index_topk(
        index_dir, _emb(sf_dir, ["vec_id", "embedding"]),
        ANN_QUERY_IDS, k=ANN_K, n_probe=4,
    )


def q_ann_filtered(sf_dir: str):
    """Metadata-filtered exact vector search (the RAG-stack shape): cosine
    top-k per query over ONLY the corpus rows with label in (0, 1, 2) —
    the predicate is applied as a vectorized Arrow filter at the scan
    (zero extra exchange); query vectors still come from the full table."""
    import pyarrow.compute as pc

    from ..stages.similarity import brute_force_topk

    emb = _emb(sf_dir)
    allowed = pa.array([0, 1, 2], type=pa.int32())
    corpus = emb.map_batches(
        lambda b: b.filter(pc.is_in(b["label"], value_set=allowed)),
        batch_format="pyarrow",
    )
    return brute_force_topk(emb, ANN_QUERY_IDS, k=ANN_K, corpus_ds=corpus)


def q_hard_negatives(sf_dir: str):
    """Contrastive hard-negative mining: per query vector, the top-k most
    similar corpus rows with a DIFFERENT label — the highest-similarity
    wrong-class examples an embedding trainer wants as negatives.  A
    per-query validity mask (each query excludes a different subset), not
    a scan predicate — the shape ann_filtered cannot express."""
    from ..stages.similarity import hard_negative_topk

    return hard_negative_topk(
        _emb(sf_dir, ["vec_id", "embedding", "label"]), ANN_QUERY_IDS, k=ANN_K
    )


def q_customers_per_region(sf_dir: str):
    """Broadcast dimension join: customer ⨝ nation ⨝ region (both dims tiny,
    shipped once) → customer counts per region name."""
    import pyarrow.parquet as pq
    import ray.data

    from ..stages.aggregate import grouped_counts
    from ..stages.joins import broadcast_join

    nation = pq.read_table(os.path.join(sf_dir, "nation.parquet"))
    region = pq.read_table(os.path.join(sf_dir, "region.parquet"))
    dim = (
        nation.to_pandas()
        .merge(region.to_pandas(), left_on="n_regionkey", right_on="r_regionkey")
    )[["n_nationkey", "r_name"]]
    import pyarrow as pa

    customers = ray.data.read_parquet(
        os.path.join(sf_dir, "customer.parquet"), columns=["c_custkey", "c_nationkey"]
    )
    joined = broadcast_join(
        customers, pa.Table.from_pandas(dim), "c_nationkey", "n_nationkey"
    )
    return grouped_counts(joined, ["r_name"], "n", sort_result=True)


def q_orders_per_nation(sf_dir: str):
    """Partitioned hash join of two large-ish sides (orders ⨝ customer on
    custkey, bucket-co-partitioned) then a broadcast nation join → order
    counts per nation name."""
    import pyarrow.parquet as pq
    import ray.data

    from ..stages.aggregate import grouped_counts
    from ..stages.joins import broadcast_join, hash_join

    orders = ray.data.read_parquet(
        os.path.join(sf_dir, "orders.parquet"), columns=["o_orderkey", "o_custkey"]
    )
    customers = ray.data.read_parquet(
        os.path.join(sf_dir, "customer.parquet"), columns=["c_custkey", "c_nationkey"]
    )
    joined = hash_join(orders, customers, "o_custkey", "c_custkey", num_buckets=16)
    nation = pq.read_table(os.path.join(sf_dir, "nation.parquet"), columns=["n_nationkey", "n_name"])
    with_nation = broadcast_join(joined, nation, "c_nationkey", "n_nationkey")
    return grouped_counts(with_nation, ["n_name"], "n", sort_result=True)


#: PageRank driver-query constants (the oracle unrolls exactly this many
#: iterations — keep the two in sync)
PAGERANK_ITERS = 3


def q_pagerank_nodes(sf_dir: str):
    """Iterative operator: integer-exact PageRank over the symmetrized
    customer–supplier co-order graph (an edge per distinct (customer,
    supplier) pair that shares an order — orders ⨝ lineitem). Node ids:
    customer c ↦ 2c, supplier s ↦ 2s+1. Every round is a partitioned
    hash-join + grouped sum; see ``stages.graph.pagerank``."""
    import numpy as np
    import pyarrow as pa
    import ray.data

    from ..stages.graph import pagerank
    from ..stages.joins import hash_join

    orders = ray.data.read_parquet(
        os.path.join(sf_dir, "orders.parquet"), columns=["o_orderkey", "o_custkey"]
    )
    lineitem = ray.data.read_parquet(
        os.path.join(sf_dir, "lineitem.parquet"), columns=["l_orderkey", "l_suppkey"]
    )
    joined = hash_join(orders, lineitem, "o_orderkey", "l_orderkey", num_buckets=16)

    def to_pair(batch: pa.Table) -> pa.Table:
        cust = batch["o_custkey"].to_numpy(zero_copy_only=False).astype(np.int64)
        supp = batch["l_suppkey"].to_numpy(zero_copy_only=False).astype(np.int64)
        t = pa.table({"a": 2 * cust, "b": 2 * supp + 1})
        return t.group_by(["a", "b"]).aggregate([])  # per-batch distinct

    pairs = (
        joined.map_batches(to_pair, batch_format="pyarrow")
        .groupby(["a", "b"])
        .count()
        .select_columns(["a", "b"])
    )

    def symmetrize(batch: pa.Table) -> pa.Table:
        a = batch["a"]
        b = batch["b"]
        if isinstance(a, pa.ChunkedArray):
            a, b = a.combine_chunks(), b.combine_chunks()
        return pa.table(
            {
                "src": pa.concat_arrays([a, b]),
                "dst": pa.concat_arrays([b, a]),
            }
        )

    edges = pairs.map_batches(symmetrize, batch_format="pyarrow")
    return pagerank(edges, iterations=PAGERANK_ITERS, num_buckets=16)


def q_top_docs_per_lang(sf_dir: str):
    """Grouped top-k: the 5 longest documents per language (n_chars desc,
    doc_id asc tiebreak) via two-stage partial top-k — no global sort of
    the corpus (``stages.aggregate.grouped_topk``)."""
    from ..stages.aggregate import grouped_topk

    return grouped_topk(
        _docs(sf_dir, ["doc_id", "lang", "n_chars"]),
        key_col="lang",
        order_col="n_chars",
        id_col="doc_id",
        k=5,
    )


def q_coreset_select(sf_dir: str):
    """Cluster-stratified representative subset (coreset): KMeans the
    embedding corpus, keep each cluster's 16 members nearest its centroid
    — the semantic-diversity curation sample.  Integer-exact (bit-identical
    under any batching); iterative KMeans has no SQL oracle → rows-only,
    distributed ≡ local-reference equality pinned in tests."""
    from ..stages.clustering import coreset_select

    return coreset_select(
        _emb(sf_dir, ["vec_id", "embedding"]), k=8, per_cluster=16
    )


def q_embedding_clusters(sf_dir: str):
    """Distributed integer-milli KMeans over the embeddings table (full
    corpus, streaming re-read per Lloyd round, centroids broadcast) →
    (vec_id, cluster) assignments. Bit-deterministic across batchings but
    iterative float→int quantized clustering has no SQL oracle → rows-only
    driver check; exact numpy equivalence pinned in tests."""
    from ..stages.clustering import kmeans_assign, kmeans_fit

    ds = _emb(sf_dir, ["vec_id", "embedding"])
    centroids = kmeans_fit(ds, k=8, iters=4)
    return kmeans_assign(ds, centroids)


def q_top_users(sf_dir: str):
    """sort + top-k: 20 most active users (count desc, user_id asc)."""
    from ..stages.aggregate import grouped_counts

    ds = _events(sf_dir, ["user_id"])
    counts = grouped_counts(ds, ["user_id"], "n")
    # two-key ordering for deterministic ties: Ray sort supports multi-key
    return counts.sort(["n", "user_id"], descending=[True, False]).limit(20)


def q_distinct_event_types(sf_dir: str):
    """set op: distinct values of a column (shuffle-dedup)."""
    import pyarrow as pa

    ds = _events(sf_dir, ["event_type"])

    def batch_distinct(batch: pa.Table) -> pa.Table:
        return batch.group_by(["event_type"]).aggregate([])

    # per-batch distinct → tiny global distinct (no full-row shuffle)
    partial = ds.map_batches(batch_distinct, batch_format="pyarrow")
    return partial.groupby("event_type").count().select_columns(["event_type"]).sort("event_type")


def q_sample_events(sf_dir: str):
    """deterministic systematic sample: a range predicate pushed down to the
    parquet read (row-group pruning) + a vectorized modulo filter in the
    first map stage. Arrow dataset expressions support comparisons (pushdown)
    but not modulo, so the modulo runs as the first batch op."""
    import pyarrow as pa
    import pyarrow.compute as pc
    import pyarrow.dataset as pads
    import ray.data

    ds = ray.data.read_parquet(
        os.path.join(sf_dir, "events.parquet"),
        columns=["event_id", "user_id", "event_type"],
        filter=(pads.field("event_id") >= 100),
    )

    def mod_filter(batch: pa.Table) -> pa.Table:
        keep = pc.equal(pc.subtract(batch["event_id"], pc.multiply(pc.divide(batch["event_id"], 97), 97)), 0)
        return batch.filter(keep)

    return ds.map_batches(mod_filter, batch_format="pyarrow").sort("event_id")


def q_sample_stratified(sf_dir: str):
    """Deterministic stratified sample: 20 events per event_type by md5(id)
    order — reproducible across engines, no RNG."""
    from ..stages.aggregate import stratified_sample

    return stratified_sample(
        _events(sf_dir, ["event_type", "event_id"]), "event_type", "event_id", 20
    )


def q_tumbling_windows(sf_dir: str):
    from ..stages.windows import tumbling_window_counts

    return tumbling_window_counts(_events(sf_dir, ["ts", "event_type", "value"]), WINDOW_SEC)


def q_hopping_windows(sf_dir: str):
    """Overlapping (hopping) window counts — each event lands in
    width/hop consecutive windows via a vectorized np.repeat explosion."""
    from ..stages.windows import hopping_window_counts

    return hopping_window_counts(
        _events(sf_dir, ["ts", "event_type"]), width_sec=WINDOW_SEC, hop_sec=WINDOW_SEC // 4
    )


def q_asof_last_signup(sf_dir: str):
    """As-of join: each event joined with the user's most recent signup at
    or before it (per-key ordered carry-forward)."""
    from ..stages.windows import asof_last_event

    return asof_last_event(
        _events(sf_dir, ["event_id", "user_id", "event_type", "ts"])
    )


def q_value_quantiles(sf_dir: str):
    """Mergeable quantile sketches: approx p50/p90/p99 of value per
    event_type (rows-only driver check; tolerance asserted in tests)."""
    from ..stages.aggregate import approx_quantiles

    return approx_quantiles(_events(sf_dir, ["event_type", "value"]), "event_type", "value")


def q_sessions(sf_dir: str):
    from ..stages.windows import sessionize

    return sessionize(_events(sf_dir, ["ts", "user_id"]), SESSION_GAP_SEC)


def q_exact_distinct_users(sf_dir: str):
    """EXACT count-distinct per key (the oracle-backed complement of the HLL
    sketch): per-batch distinct (event_type, user_id) pairs → global distinct
    via groupby → count pairs per event_type. Shuffle volume = distinct
    pairs, never rows."""
    import pyarrow as pa

    from ..stages.aggregate import grouped_counts

    ds = _events(sf_dir, ["event_type", "user_id"])

    def batch_distinct(batch: pa.Table) -> pa.Table:
        return batch.group_by(["event_type", "user_id"]).aggregate([])

    pairs = (
        ds.map_batches(batch_distinct, batch_format="pyarrow")
        .groupby(["event_type", "user_id"])
        .count()
        .select_columns(["event_type", "user_id"])
    )
    return grouped_counts(pairs, ["event_type"], "n_users", sort_result=True)


def q_exact_value_quantiles(sf_dir: str):
    """EXACT discrete per-key quantiles over integer milli-units (the
    oracle-backed complement of the KLL sketch). Validation-grade shape:
    one ``map_groups`` task per key holds that key's values — fine for
    bounded keys; the KLL sketch is the unbounded-scale path."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import pyarrow.compute as pc

    ds = _events(sf_dir, ["event_type", "value"])

    def to_milli(batch: pa.Table) -> pa.Table:
        v = pc.cast(pc.floor(pc.multiply(batch["value"], 1000.0)), pa.int64())
        return pa.table({"event_type": batch["event_type"], "v": v})

    def qgroup(group: pd.DataFrame) -> pd.DataFrame:
        vals = np.sort(group["v"].to_numpy())
        n = len(vals)
        row = {"event_type": [group["event_type"].iloc[0]]}
        for p, name in ((0.5, "p50"), (0.9, "p90"), (0.99, "p99")):
            # DuckDB quantile_disc: element at ceil(n*p)-1 of the sorted
            # values (verified empirically, incl. the p=0.99 tail)
            idx = min(n - 1, max(0, int(np.ceil(n * p)) - 1))
            row[name] = [int(vals[idx])] if n else [None]
        return pd.DataFrame(row)

    return (
        ds.map_batches(to_milli, batch_format="pyarrow")
        .groupby("event_type")
        .map_groups(qgroup, batch_format="pandas")
        .sort("event_type")
    )


def q_conv_stats(sf_dir: str):
    """High-cardinality groupby over the transcript conv_id (one row per
    conversation): exercises Ray's native hash aggregate where the
    low-cardinality tree_sum shape would be wrong."""
    import ray.data
    from ray.data.aggregate import Count, Max

    from ..sources.transcripts import transcripts_path

    ds = ray.data.read_parquet(
        transcripts_path(sf_dir), columns=["conv_id", "turn_idx"]
    )
    out = ds.groupby("conv_id").aggregate(
        Count(alias_name="n_turns"), Max("turn_idx", alias_name="max_turn")
    )

    def fix_types(batch):
        import pyarrow as pa
        import pyarrow.compute as pc

        return pa.table(
            {
                "conv_id": batch["conv_id"],
                "n_turns": pc.cast(batch["n_turns"], pa.int64()),
                "max_turn": pc.cast(batch["max_turn"], pa.int64()),
            }
        )

    return out.map_batches(fix_types, batch_format="pyarrow").sort("conv_id")


def q_word_rarity(sf_dir: str):
    """Per-doc word-rarity score (mean/min corpus df of the doc's distinct
    words) — the cheap perplexity proxy for curation ranking."""
    from ..stages.textops import word_rarity_scores

    return word_rarity_scores(_docs(sf_dir, ["doc_id", "text"]))


def q_novelty_scores(sf_dir: str):
    """Per-doc 3-gram novelty (fraction of distinct grams with corpus
    df = 1, integer milli) — the uniqueness-ranking curation signal;
    vectorized gram explode + one grams ⋈ df hash_join."""
    from ..stages.textops import ngram_novelty_scores

    return ngram_novelty_scores(_docs(sf_dir, ["doc_id", "text"]))


def q_bpe_pairs(sf_dir: str):
    """One BPE-trainer merge round: top-50 adjacent codepoint pairs inside
    words, corpus-wide."""
    from ..stages.textops import bpe_pair_counts

    return bpe_pair_counts(_docs(sf_dir, ["text"]))


def q_customers_without_events(sf_dir: str):
    """Bucketed anti semi-join with BOTH sides large (no broadcast, no
    driver set): customers that never emitted an event, counted per market
    segment. The right side ships only its per-batch-distinct keys."""
    import ray.data

    from ..stages.aggregate import grouped_counts
    from ..stages.joins import hash_anti_join

    cust = ray.data.read_parquet(
        os.path.join(sf_dir, "customer.parquet"),
        columns=["c_custkey", "c_mktsegment"],
    )
    events = ray.data.read_parquet(
        os.path.join(sf_dir, "events.parquet"), columns=["user_id"]
    )
    left = hash_anti_join(cust, events, "c_custkey", "user_id", num_buckets=16)
    return grouped_counts(left, ["c_mktsegment"], "n", sort_result=True)


def q_active_customers(sf_dir: str):
    """Bucketed positive semi-join (SQL EXISTS, both sides large): customers
    that emitted at least one event, counted per market segment — the
    complement of customers_without_events on the same exchange shape."""
    import ray.data

    from ..stages.aggregate import grouped_counts
    from ..stages.joins import hash_semi_join

    cust = ray.data.read_parquet(
        os.path.join(sf_dir, "customer.parquet"),
        columns=["c_custkey", "c_mktsegment"],
    )
    events = ray.data.read_parquet(
        os.path.join(sf_dir, "events.parquet"), columns=["user_id"]
    )
    left = hash_semi_join(cust, events, "c_custkey", "user_id", num_buckets=16)
    return grouped_counts(left, ["c_mktsegment"], "n", sort_result=True)


def q_latest_events(sf_dir: str):
    """Last-write-wins compaction over the event log: per user the event
    with the greatest (ts, event_id) — the CDC / state-snapshot shape."""
    from ..stages.windows import latest_events

    return latest_events(
        _events(sf_dir, ["user_id", "event_id", "ts", "event_type", "value"])
    )


def q_event_deltas(sf_dir: str):
    """Per-key lag: µs gap from each event to the same user's previous
    event (-1 for the first) — SQL LAG() re-expressed as one vectorized
    pass per key bucket."""
    from ..stages.windows import event_deltas

    return event_deltas(_events(sf_dir, ["user_id", "event_id", "ts"]))


def q_event_fingerprints(sf_dir: str):
    """Logstash fingerprint-filter analog: SHA256 over the concatenated
    name=value serialization of (event_id, user_id, event_type) per event —
    the content-addressing / idempotency-key filter. Message built in one
    vectorized pass; digest per row (inherently per-row C call)."""
    from ..stages.logfilters import make_fingerprint

    ev = _events(sf_dir, ["event_id", "user_id", "event_type"])
    fp = ev.map_batches(
        make_fingerprint(["event_id", "user_id", "event_type"]),
        batch_format="pyarrow",
    )
    return fp.select_columns(["event_id", "fingerprint"]).sort("event_id")


def q_scd2_intervals(sf_dir: str):
    """SCD Type-2 dimension build: each user's event_type changelog
    compressed to validity intervals (valid_from/valid_to, -1-sentinel
    open current row) — one vectorized change-mask + shift pass per key
    bucket."""
    from ..stages.windows import scd2_intervals

    return scd2_intervals(_events(sf_dir, ["user_id", "event_type", "ts", "event_id"]))


#: bitemporal probe instant for state_at_cutoff — mid-January so every SF
#: has both established and not-yet-changed states.
STATE_CUTOFF = "2024-01-15T00:00:00"


#: drift split instant — first half vs second half of the synthetic January
DRIFT_SPLIT = "2024-01-16T00:00:00"


def q_value_drift_bins(sf_dir: str):
    """Distribution-drift monitor (the exact-count core of a PSI report):
    per (event_type, equi-width value bin) the row counts of the BEFORE
    and AFTER periods around a split instant — the binned two-period table
    an MLOps pipeline feeds into PSI/chi-square scoring (the float score
    itself is a driver-side formula over this tiny exact table). One
    bounded-domain histogram pass; partials collapse per batch; the
    exchange ships only (type, bin, n_before, n_after) rows."""
    import numpy as np
    import pyarrow.compute as pc

    from ..stages.aggregate import tree_sum

    split_us = int(
        np.datetime64(DRIFT_SPLIT).astype("datetime64[us]").astype("int64")
    )
    ev = _events(sf_dir, ["ts", "event_type", "value"])

    def partial(batch: pa.Table) -> pa.Table:
        ts_us = pc.cast(batch["ts"], pa.int64()).to_numpy()
        vm = pc.cast(
            pc.floor(pc.multiply(batch["value"], 1000.0)), pa.int64()
        ).to_numpy()
        # 50-unit-wide value bins; TRUNCATING division to match DuckDB's
        # `//` (numpy // floors: -7 // 50000 is -1 there but 0 in SQL)
        bins = (np.sign(vm) * (np.abs(vm) // 50_000)).astype(np.int64)
        before = (ts_us < split_us).astype(np.int64)
        t = pa.table(
            {
                "event_type": batch["event_type"],
                "bin": pa.array(bins, type=pa.int64()),
                "n_before": pa.array(before),
                "n_after": pa.array(1 - before),
            }
        )
        g = t.group_by(["event_type", "bin"]).aggregate(
            [("n_before", "sum"), ("n_after", "sum")]
        )
        return g.rename_columns(["event_type", "bin", "n_before", "n_after"])

    return tree_sum(
        ev.map_batches(partial, batch_format="pyarrow"),
        ["event_type", "bin"],
        ["n_before", "n_after"],
        sort_result=True,
    )


def q_state_at_cutoff(sf_dir: str):
    """Bitemporal point-in-time query over the SCD2 dimension: each user's
    event_type state AT the cutoff instant (interval containing T; users
    whose first change is after T have no state), aggregated to
    (event_type, n_users). Proves the interval table answers as-of
    queries — filter is a vectorized predicate over the intervals, the
    count a tiny tree combine."""
    import numpy as np
    import pyarrow.compute as pc

    from ..stages.aggregate import tree_sum
    from ..stages.windows import scd2_intervals

    cut_us = int(
        np.datetime64(STATE_CUTOFF).astype("datetime64[us]").astype("int64")
    )
    iv = scd2_intervals(_events(sf_dir, ["user_id", "event_type", "ts", "event_id"]))

    def partial(batch: pa.Table) -> pa.Table:
        frm = batch["valid_from_us"]
        to = batch["valid_to_us"]
        live = pc.and_(
            pc.less_equal(frm, cut_us),
            pc.or_(pc.equal(to, -1), pc.greater(to, cut_us)),
        )
        t = batch.filter(live)
        work = pa.table(
            {
                "event_type": t["event_type"],
                "n_users": pa.array(np.ones(t.num_rows, dtype=np.int64)),
            }
        )
        g = work.group_by(["event_type"]).aggregate([("n_users", "sum")])
        return g.rename_columns(["event_type", "n_users"])

    return tree_sum(
        iv.map_batches(partial, batch_format="pyarrow"),
        ["event_type"], ["n_users"], sort_result=True,
    )


def q_twap_values(sf_dir: str):
    """Per-user time-weighted average value (TWAP): step-function integral
    over each user's own [first, last] span under (ts, event_id) order —
    integer numerator/denominator, single-observation users emit their
    value. One vectorized diff+reduceat pass per key bucket."""
    from ..stages.windows import time_weighted_averages

    return time_weighted_averages(
        _events(sf_dir, ["user_id", "ts", "event_id", "value"])
    )


def q_rolling_windows(sf_dir: str):
    """Trailing range window per event: count + integer-milli value sum of
    the same user's events in the last hour (RANGE frame, peers included)."""
    from ..stages.windows import rolling_window_sums

    return rolling_window_sums(
        _events(sf_dir, ["user_id", "event_id", "ts", "value"]), window_sec=WINDOW_SEC
    )


def q_hourly_pivot(sf_dir: str):
    """Pivot / conditional aggregation: events per hour-of-day with one
    count column per event type plus the hour total."""
    from ..stages.relational import hourly_type_pivot

    return hourly_type_pivot(_events(sf_dir, ["ts", "event_type"]))


def q_pricing_summary(sf_dir: str):
    """TPC-H-Q1-style wide aggregate over lineitem (integer milli sums,
    shipdate predicate pushed into the parquet read)."""
    from ..stages.relational import pricing_summary

    return pricing_summary(sf_dir)


def q_revenue_rollup(sf_dir: str):
    """Multiway join chain lineitem ⋈ orders ⋈ customer ⋈ (nation × region
    broadcast): revenue (integer micro) + item count per (region, nation)."""
    from ..stages.relational import revenue_rollup

    return revenue_rollup(sf_dir)


def q_shipping_priority(sf_dir: str):
    """TPC-H-Q3-flavored top-10 unshipped-revenue orders (segment filter →
    two partitioned hash joins over keyed partials → per-bucket partial
    top-k; integer micro revenue)."""
    from ..stages.relational import shipping_priority

    return shipping_priority(sf_dir)


def q_late_priority_counts(sf_dir: str):
    """TPC-H-Q4-flavored EXISTS semi-join: orders per priority with any
    line item shipped >90 days after the order date (per-batch max-ship
    partials, orderkey-bucketed resolve, priority-sized combine)."""
    from ..stages.relational import late_priority_counts

    return late_priority_counts(sf_dir)


def q_ohlc_bars(sf_dir: str):
    """Time-series OHLC candlesticks per (user, epoch-day): open/high/low/
    close value_milli under (ts, event_id) ordering plus the bar count —
    partial bars per batch, user-bucketed exact resolve."""
    from ..stages.relational import ohlc_bars

    return ohlc_bars(sf_dir)


def q_value_hour_corr(sf_dir: str):
    """Distributed exact correlation components (six int64 moment sums)
    between value_milli and hour-of-day per event_type."""
    from ..stages.relational import value_hour_corr

    return value_hour_corr(sf_dir)


def q_bm25_topk(sf_dir: str):
    """BM25-style retrieval: top-20 docs for a fixed query-term set under
    an integer-exact BM25 variant (two corpus streams, no shuffle)."""
    from ..stages.textops import bm25_topk

    return bm25_topk(_docs(sf_dir, ["doc_id", "text"]))


def q_running_totals(sf_dir: str):
    """Per-user cumulative count + value sum at every event (ROWS frame) —
    one rebased cumsum per bucket, no per-key work."""
    from ..stages.windows import running_totals

    return running_totals(_events(sf_dir, ["user_id", "event_id", "ts", "value"]))


def q_value_ranks(sf_dir: str):
    """Dense rank of each event's integer-milli value within its event
    type (SQL dense_rank window)."""
    from ..stages.windows import value_ranks

    return value_ranks(_events(sf_dir, ["event_type", "event_id", "value"]))


def q_type_transitions(sf_dir: str):
    """Markov transition matrix of the per-user event stream: (prev type →
    next type) counts — the funnel/session-flow aggregate."""
    from ..stages.windows import type_transitions

    return type_transitions(_events(sf_dir, ["user_id", "event_id", "ts", "event_type"]))


def q_stopword_filter(sf_dir: str):
    """Gopher stopword-band quality filter: docs whose integer-milli
    stopword fraction lies in [50, 400], with their stats."""
    from ..stages.textops import stopword_filter

    return stopword_filter(_docs(sf_dir, ["doc_id", "text"]))


def q_promo_revenue(sf_dir: str):
    """Q14-flavored revenue mix per part type: lineitem partials ⋈ part
    (partitioned hash join, both sides large at fleet scale)."""
    from ..stages.relational import promo_revenue

    return promo_revenue(sf_dir)


def q_supplier_revenue(sf_dir: str):
    """Q15-flavored top-10 suppliers by revenue: lineitem partials ⋈
    supplier, per-supplier combine, sort+limit over |suppliers| rows."""
    from ..stages.relational import supplier_revenue

    return supplier_revenue(sf_dir)


def q_part_supplier_counts(sf_dir: str):
    """Q16-flavored supplier diversity: distinct suppliers per
    (p_brand, p_type, p_size) for non-PROMO parts, excluding
    negative-balance suppliers — grouped COUNT(DISTINCT) after a
    broadcast anti-filter and a partitioned hash join
    (``stages.relational.part_supplier_counts``)."""
    from ..stages.relational import part_supplier_counts

    return part_supplier_counts(sf_dir)


def q_weighted_sample(sf_dir: str):
    """Weight-proportional sample without replacement (training-mixture
    upweighting): the 100 events with the smallest ``priority = u // w``
    where ``u`` is a MINSTD hash of event_id and ``w = floor(value*1000)+1``
    — an integer-exact rendition of Efraimidis–Spirakis priority sampling
    (``stages.aggregate.weighted_priority_sample``). Per-batch partial
    top-k; the corpus never shuffles."""
    import numpy as np
    import pyarrow as pa

    from ..stages.aggregate import weighted_priority_sample

    ev = _events(sf_dir, ["event_id", "event_type", "value"])

    def add_weight(batch: pa.Table) -> pa.Table:
        v = batch["value"].to_numpy(zero_copy_only=False)
        w = np.floor(v * 1000).astype(np.int64) + 1
        return batch.select(["event_id", "event_type"]).append_column(
            "w", pa.array(w, type=pa.int64())
        )

    weighted = ev.map_batches(add_weight, batch_format="pyarrow")
    return weighted_priority_sample(
        weighted, "event_id", "w", k=100, keep_cols=["event_type"]
    )


def q_lineitem_measures(sf_dir: str):
    """UNPIVOT / melt: lineitem's three money/quantity measures reshaped
    long — one (l_orderkey, l_linenumber, measure, value_milli) row per
    measure, integer milli units (``stages.relational.unpivot``). A pure
    per-batch reshape, no shuffle."""
    import os

    import pyarrow as pa
    import pyarrow.compute as pc
    import ray.data

    from ..stages.relational import unpivot

    def to_milli(batch: pa.Table) -> pa.Table:
        t = batch.select(["l_orderkey", "l_linenumber"])
        for c in ("l_quantity", "l_extendedprice", "l_discount"):
            milli = pc.cast(
                pc.floor(pc.multiply(batch[c], 1000.0)), pa.int64()
            )
            t = t.append_column(c[2:], milli)
        return t

    li = ray.data.read_parquet(
        os.path.join(sf_dir, "lineitem.parquet"),
        columns=["l_orderkey", "l_linenumber", "l_quantity",
                 "l_extendedprice", "l_discount"],
    ).map_batches(to_milli, batch_format="pyarrow")
    return unpivot(
        li,
        ["l_orderkey", "l_linenumber"],
        ["quantity", "extendedprice", "discount"],
        var_name="measure",
        value_name="value_milli",
    ).sort(["l_orderkey", "l_linenumber", "measure"])


def q_zorder_layout(sf_dir: str):
    """Z-order (Morton) clustering layout: every event keyed by the bit
    interleave of (user_id, value_milli) low 16 bits and globally sorted by
    it — the space-filling-curve layout that makes Parquet row-group
    pruning work on either dimension (``stages.packing.zorder_layout``)."""
    import numpy as np
    import pyarrow as pa

    from ..stages.packing import zorder_layout

    ev = _events(sf_dir, ["event_id", "user_id", "value"])

    def prep(batch: pa.Table) -> pa.Table:
        vm = np.floor(
            batch["value"].to_numpy(zero_copy_only=False) * 1000
        ).astype(np.int64)
        return batch.select(["event_id", "user_id"]).append_column(
            "value_milli", pa.array(vm, type=pa.int64())
        )

    prepped = ev.map_batches(prep, batch_format="pyarrow")
    return zorder_layout(prepped, "event_id", "user_id", "value_milli")


#: zone-map audit parameters: both dimensions domain-normalized to 10 bits
#: (so the Morton curve actually interleaves them — raw coordinates with
#: mismatched dynamic ranges would leave the top bits all-x or all-y and
#: the audit non-discriminating), top 6 Morton bits = 64 chunks, one fixed
#: range predicate per dimension (in scaled 0..1023 units)
_ZM_BITS = 10
_ZM_SHIFT = 2 * _ZM_BITS - 6
_ZM_X_RANGE = (100, 200)  # scaled user_id
_ZM_Y_RANGE = (256, 384)  # scaled value_milli


def q_orc_roundtrip_stats(sf_dir: str):
    """Third file format end-to-end THROUGH DISK: the events table is
    written to ORC (one file per block, inside the map tasks), read back
    stripe-parallel by :func:`sources.readers.read_orc` (one Ray task per
    stripe — ORC's row-group analog), and aggregated from the re-read
    columns. The oracle aggregates the source parquet directly, so any
    value/row loss across the ORC write→read hop breaks the hash."""
    import hashlib
    import shutil

    import numpy as np
    import pyarrow.compute as pc

    from ..sources.readers import read_orc, write_orc
    from ..stages.aggregate import tree_sum

    staging = "/tmp/orc_roundtrip_%s" % hashlib.sha256(
        os.path.abspath(sf_dir).encode()
    ).hexdigest()[:12]
    # destination hygiene (same contract as write_routed_bucketed): the
    # staging dir must hold exactly THIS run's files, or a schema change
    # upstream would silently mix stale stripes into the read
    shutil.rmtree(staging, ignore_errors=True)
    write_orc(
        _events(sf_dir, ["event_type", "value"]), staging, compression="zlib"
    )

    def partial(batch: pa.Table) -> pa.Table:
        v = batch["value"]
        if isinstance(v, pa.ChunkedArray):
            v = v.combine_chunks()
        milli = np.floor(
            v.to_numpy(zero_copy_only=False) * 1000.0
        ).astype(np.int64)
        t = pa.table(
            {
                "event_type": batch["event_type"],
                "value_milli": pa.array(milli, type=pa.int64()),
                "n": pa.array(np.ones(len(milli), np.int64)),
            }
        )
        return t.group_by(["event_type"]).aggregate(
            [("value_milli", "sum"), ("n", "sum")]
        ).rename_columns(["event_type", "value_milli", "n"])

    return tree_sum(
        read_orc(staging).map_batches(partial, batch_format="pyarrow"),
        ["event_type"],
        ["value_milli", "n"],
    )


def q_ipc_roundtrip_stats(sf_dir: str):
    """Fourth file format end-to-end THROUGH DISK: the events table is
    written to Arrow IPC / Feather-V2 (one .arrow file per block, inside
    the map tasks), read back record-batch-parallel by
    :func:`sources.readers.read_ipc`, and aggregated per user-id decade —
    a DIFFERENT key than the ORC roundtrip so the two format hops are
    pinned by independent aggregates. The oracle reads the source parquet
    directly, so any value/row loss across the IPC write→read hop breaks
    the hash."""
    import hashlib
    import shutil

    import numpy as np
    import pyarrow.compute as pc

    from ..sources.readers import read_ipc, write_ipc
    from ..stages.aggregate import tree_sum

    staging = "/tmp/ipc_roundtrip_%s" % hashlib.sha256(
        os.path.abspath(sf_dir).encode()
    ).hexdigest()[:12]
    shutil.rmtree(staging, ignore_errors=True)
    write_ipc(_events(sf_dir, ["user_id", "value"]), staging)

    def partial(batch: pa.Table) -> pa.Table:
        v = batch["value"]
        if isinstance(v, pa.ChunkedArray):
            v = v.combine_chunks()
        milli = np.floor(
            v.to_numpy(zero_copy_only=False) * 1000.0
        ).astype(np.int64)
        # int64 pc.divide already truncates (== floor for the non-negative
        # synthetic ids; the oracle's // has the same truncating semantics)
        decade = pc.divide(pc.cast(batch["user_id"], pa.int64()), 10)
        t = pa.table(
            {
                "user_decade": decade,
                "value_milli": pa.array(milli, type=pa.int64()),
                "n": pa.array(np.ones(len(milli), np.int64)),
            }
        )
        return t.group_by(["user_decade"]).aggregate(
            [("value_milli", "sum"), ("n", "sum")]
        ).rename_columns(["user_decade", "value_milli", "n"])

    return tree_sum(
        read_ipc(staging).map_batches(partial, batch_format="pyarrow"),
        ["user_decade"],
        ["value_milli", "n"],
    )


def q_value_decile_bins(sf_dir: str):
    """ML feature discretization: equal-frequency (NTILE-10) binning of
    value_milli — per bin its row count and [lo, hi] value bounds, the
    bin-edge table a feature pipeline broadcasts to discretize at serving
    time. Exact WITHOUT a global sort: value_milli is a bounded-domain
    integer, so a (vm, n) histogram collapses per batch, the tree combine
    ships only the tiny histogram, and every NTILE boundary is an order
    statistic read off the cumulative counts (ties spanning a boundary
    belong to both bins in SQL too, so min/max/count stay deterministic)."""
    import numpy as np
    import pyarrow.compute as pc

    from ..stages.aggregate import tree_sum

    ev = _events(sf_dir, ["value"])

    def partial(batch: pa.Table) -> pa.Table:
        vm = pc.cast(
            pc.floor(pc.multiply(batch["value"], 1000.0)), pa.int64()
        )
        t = pa.table({"vm": vm, "n": pa.array(
            np.ones(batch.num_rows, dtype=np.int64))})
        g = t.group_by(["vm"]).aggregate([("n", "sum")])
        return g.rename_columns(["vm", "n"])

    hist = tree_sum(
        ev.map_batches(partial, batch_format="pyarrow"),
        ["vm"], ["n"], sort_result=False,
    )

    def bins(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas().sort_values("vm")
        vm = df["vm"].to_numpy()
        cnt = df["n"].to_numpy()
        cum = cnt.cumsum()
        total = int(cum[-1])
        k = 10
        big = total % k          # first `big` bins take ceil(total/k)
        size_hi, size_lo = -(-total // k), total // k
        out = []
        start = 0  # 0-indexed first row of the bin
        for b in range(1, k + 1):
            # NTILE: the first (total % k) bins take the ceil size; when
            # total divides evenly size_hi == size_lo; with total < k the
            # tail bins are EMPTY and ntile never emits them — skip
            size = size_hi if b <= big else size_lo
            if size == 0:
                continue
            end = start + size - 1
            lo = int(vm[np.searchsorted(cum, start + 1)])
            hi = int(vm[np.searchsorted(cum, end + 1)])
            out.append((b, size, lo, hi))
            start = end + 1
        return pa.table(
            {
                "bin": pa.array([o[0] for o in out], type=pa.int64()),
                "n": pa.array([o[1] for o in out], type=pa.int64()),
                "lo_milli": pa.array([o[2] for o in out], type=pa.int64()),
                "hi_milli": pa.array([o[3] for o in out], type=pa.int64()),
            }
        )

    return hist.repartition(1).map_batches(
        bins, batch_format="pyarrow", batch_size=None
    )


#: PII inventory patterns — the masking stage's OWN regexes (imported, not
#: re-typed, so inventory and mask cannot drift) plus URL; shared
#: RE2/DuckDB syntax (mirrored verbatim in the oracle).
from ..stages.textops import MASK_PATTERNS as _MASK_PATTERNS

PII_PATTERNS = (
    ("ip", _MASK_PATTERNS[0][0]),
    ("email", _MASK_PATTERNS[1][0]),
    ("url", r"https?://[^\s\"]+"),
)


def q_pii_inventory(sf_dir: str):
    """Data-governance inventory: per PII kind (ip / email / url) the total
    match count and the number of documents containing at least one —
    the 'what leaks where' report a compliance pipeline runs BEFORE the
    masking stage. One vectorized ``pc.count_substring_regex`` per kind per
    batch; only a 3-row partial leaves each batch."""
    import numpy as np
    import pyarrow.compute as pc

    from ..stages.aggregate import tree_sum

    docs = _docs(sf_dir, ["text"])

    def partial(batch: pa.Table) -> pa.Table:
        text = batch["text"]
        if isinstance(text, pa.ChunkedArray):
            text = text.combine_chunks()
        kinds, totals, docs_any = [], [], []
        for kind, pat in PII_PATTERNS:
            c = pc.count_substring_regex(text, pat)
            cn = c.to_numpy(zero_copy_only=False)
            cn = np.nan_to_num(cn.astype("float64"), nan=0.0).astype("int64")
            kinds.append(kind)
            totals.append(int(cn.sum()))
            docs_any.append(int((cn > 0).sum()))
        return pa.table(
            {
                "kind": pa.array(kinds, type=pa.string()),
                "total_matches": pa.array(totals, type=pa.int64()),
                "docs_with_any": pa.array(docs_any, type=pa.int64()),
            }
        )

    partials = docs.map_batches(partial, batch_format="pyarrow")
    return tree_sum(
        partials, ["kind"], ["total_matches", "docs_with_any"], sort_result=True
    )


def q_zonemap_stats(sf_dir: str):
    """Zone-map / data-skipping audit for the Z-order layout: every event
    maps to a Morton-curve chunk (top 6 interleaved bits = up to 64
    space-partitioned chunks — exactly how data-lake formats assign sorted
    rows to files), and the query emits each chunk's zone map (row count,
    min/max per dimension) plus whether a fixed range predicate on EITHER
    dimension would have to scan it. Because the curve interleaves both
    dimensions, both predicates prune to a small chunk subset — the
    measurable 'why Z-order matters at fleet scale' number.

    Scale shape: two streaming passes (the quantize_embeddings precedent) —
    pass 1 is one tiny global max aggregate per dimension (two scalars to
    the driver, sanctioned), pass 2 a stateless per-batch map; the only
    exchange is the ≤64-row zone-map aggregate (tree-combined min/max/sum).
    The corpus itself never shuffles — auditing the layout costs one scan."""
    import numpy as np
    import pyarrow.compute as pc
    from ray.data.aggregate import Max

    from ..stages.aggregate import tree_agg
    from ..stages.packing import morton_key

    ev = _events(sf_dir, ["user_id", "value"])
    bounds = ev.aggregate(Max("user_id"), Max("value"))
    mx = int(bounds["max(user_id)"])
    my = int(np.floor(bounds["max(value)"] * 1000))
    scale = 1 << _ZM_BITS

    def partial(batch: pa.Table) -> pa.Table:
        x = batch["user_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        y = np.floor(
            batch["value"].to_numpy(zero_copy_only=False) * 1000
        ).astype(np.int64)
        x = (x * scale) // (mx + 1)
        y = (y * scale) // (my + 1)
        chunk = morton_key(x, y, bits=_ZM_BITS) >> _ZM_SHIFT
        t = pa.table(
            {
                "chunk": pa.array(chunk, type=pa.int64()),
                "x": pa.array(x, type=pa.int64()),
                "y": pa.array(y, type=pa.int64()),
            }
        )
        agg = t.group_by(["chunk"]).aggregate(
            [([], "count_all"), ("x", "min"), ("x", "max"),
             ("y", "min"), ("y", "max")]
        )
        return agg.rename_columns(
            ["chunk", "n", "min_x", "max_x", "min_y", "max_y"]
        )

    def combine(batch: pa.Table) -> pa.Table:
        agg = batch.group_by(["chunk"]).aggregate(
            [("n", "sum"), ("min_x", "min"), ("max_x", "max"),
             ("min_y", "min"), ("max_y", "max")]
        )
        return agg.rename_columns(
            ["chunk", "n", "min_x", "max_x", "min_y", "max_y"]
        ).sort_by([("chunk", "ascending")])

    zm = tree_agg(ev.map_batches(partial, batch_format="pyarrow"), combine)

    def flags(batch: pa.Table) -> pa.Table:
        (xlo, xhi), (ylo, yhi) = _ZM_X_RANGE, _ZM_Y_RANGE
        scan_x = pc.and_(
            pc.greater_equal(batch["max_x"], xlo),
            pc.less_equal(batch["min_x"], xhi),
        )
        scan_y = pc.and_(
            pc.greater_equal(batch["max_y"], ylo),
            pc.less_equal(batch["min_y"], yhi),
        )
        return batch.append_column("scan_x", scan_x).append_column(
            "scan_y", scan_y
        )

    return zm.map_batches(flags, batch_format="pyarrow")


def q_elapsed_times(sf_dir: str):
    """Elapsed filter (logstash-filter-elapsed): each user's first signup
    paired with the first purchase strictly after it — elapsed µs for
    matched pairs, the filter's failure tags as a status column otherwise
    (start_without_end / end_without_start)."""
    from ..stages.logfilters import elapsed

    ev = _events(sf_dir, ["user_id", "ts", "event_type"])
    return elapsed(
        ev, "user_id", "ts", "event_type",
        start_type="signup", end_type="purchase",
    )


def q_compression_quality(sf_dir: str):
    """Compression-ratio quality signal (zlib repetitiveness heuristic):
    per-lang doc count, below-threshold count, ratio-milli sum. Rows-only
    (no zlib in SQL); exact vs the direct-zlib pytest reference."""
    from ..stages.textops import compression_quality

    return compression_quality(_docs(sf_dir, ["text", "lang"]))


def q_model_scores(sf_dir: str):
    """Batched model inference as a first-class stage: documents scored
    through an actor pool whose model artifact loads ONCE per actor
    (``stages/inference.py`` — the plumbing a real ONNX/reward-model scorer
    uses), rolled up per language. The demo model is an integer-milli
    linear scorer over exact text features, so the oracle replays every
    score bit-for-bit."""
    from ..stages.inference import ensure_model_file, model_score_rollup

    docs = _docs(sf_dir, ["text", "lang"])
    return model_score_rollup(docs, ensure_model_file(), group_col="lang")


def q_event_cooccurrence(sf_dir: str):
    """Market-basket association pairs: for every unordered event-type pair
    (a < b), how many users performed both. Per-batch distinct
    (user, type) partials → user-hash-bucketed exchange (only the distinct
    pairs move, never event rows) → per-bucket vectorized self-merge
    (pair fan-out is bounded by the small type vocabulary) → tree-combined
    pair counts."""
    import pandas as pd
    import pyarrow as pa
    import pyarrow.compute as pc

    from ..stages.aggregate import bucket_by_key, tree_sum

    ev = _events(sf_dir, ["user_id", "event_type"])

    def distinct_pairs(batch: pa.Table) -> pa.Table:
        # SQL self-join semantics: NULL user_id never matches — drop here
        # (pandas merge WOULD pair NaN keys, diverging from the oracle)
        batch = batch.filter(pc.is_valid(batch["user_id"]))
        return batch.group_by(["user_id", "event_type"]).aggregate([])

    def per_bucket(block: pd.DataFrame) -> pd.DataFrame:
        d = block[["user_id", "event_type"]].drop_duplicates()
        m = d.merge(d, on="user_id")
        m = m[m["event_type_x"] < m["event_type_y"]]
        g = m.groupby(["event_type_x", "event_type_y"], as_index=False).agg(
            n_users=("user_id", "size")
        )
        g["n_users"] = g["n_users"].astype("int64")
        return g.rename(
            columns={"event_type_x": "type_a", "event_type_y": "type_b"}
        )

    parts = ev.map_batches(distinct_pairs, batch_format="pyarrow")
    bucketed = bucket_by_key(parts, "user_id", 64)
    pair_partials = bucketed.groupby("_bucket").map_groups(
        per_bucket, batch_format="pandas"
    )
    return tree_sum(pair_partials, ["type_a", "type_b"], ["n_users"])


def q_balanced_shards(sf_dir: str):
    """Size-balanced training-shard assignment: documents ranked globally
    by (n_chars desc, doc_id) and snake-dealt onto 16 shards
    (``stages.packing.balanced_shards``) — global row_number computed from
    a broadcast per-size count table + per-size-bucket local argsort, no
    global sort operator."""
    from ..stages.packing import balanced_shards

    docs = _docs(sf_dir, ["doc_id", "n_chars"])
    return balanced_shards(docs, "doc_id", "n_chars", num_shards=16)


def q_big_part_revenue(sf_dir: str):
    """Revenue per brand over a selective part subset through the Bloom
    runtime-filter join — ~80% of lineitem partials drop before the
    exchange (``stages.relational.big_part_revenue`` /
    ``stages.joins.bloom_prefilter_join``)."""
    from ..stages.relational import big_part_revenue

    return big_part_revenue(sf_dir)


def q_high_value_counts(sf_dir: str):
    """Predicate pushdown at the READ: count per event_type over
    value > 400, with the row filter handed to ``read_parquet`` itself
    (``filter=pc.field(...)``) so non-matching row groups are pruned from
    parquet statistics and dropped rows never enter the object store —
    prune-at-the-read taken one step past column pruning."""
    import os

    import pyarrow.compute as pc
    import ray.data

    from ..stages.aggregate import grouped_counts

    ev = ray.data.read_parquet(
        os.path.join(sf_dir, "events.parquet"),
        columns=["event_type", "value"],
        filter=(pc.field("value") > 400.0),
    )
    return grouped_counts(
        ev.select_columns(["event_type"]), ["event_type"], count_alias="n",
        sort_result=True,
    )


def q_user_type_profile(sf_dir: str):
    """Grouped ordered string aggregation (array_agg/string_agg DISTINCT):
    per user the sorted distinct event types joined with ',' plus their
    count. Per-batch distinct (user, type) partials → user-hash-bucketed
    dedup → one vectorized per-bucket sorted groupby-join; event rows never
    shuffle, only distinct pairs."""
    import pandas as pd
    import pyarrow as pa

    from ..stages.aggregate import bucket_by_key

    ev = _events(sf_dir, ["user_id", "event_type"])

    def distinct_pairs(batch: pa.Table) -> pa.Table:
        return batch.group_by(["user_id", "event_type"]).aggregate([])

    def per_bucket(block: pd.DataFrame) -> pd.DataFrame:
        d = block[["user_id", "event_type"]].drop_duplicates()
        d = d.sort_values(["user_id", "event_type"])
        # dropna=False: SQL GROUP BY keeps the NULL-user group
        g = d.groupby("user_id", sort=False, dropna=False)["event_type"].agg(
            n_types="size", types=",".join
        ).reset_index()
        g["n_types"] = g["n_types"].astype("int64")
        return g[["user_id", "n_types", "types"]]

    parts = ev.map_batches(distinct_pairs, batch_format="pyarrow")
    bucketed = bucket_by_key(parts, "user_id", 64)
    return (
        bucketed.groupby("_bucket")
        .map_groups(per_bucket, batch_format="pandas")
        .sort("user_id")
    )


#: logstash-filter-translate dictionary for the event-type → tier rollup
_TIER_MAP = {
    "view": "engagement",
    "click": "engagement",
    "purchase": "revenue",
    "signup": "acquisition",
}


def q_translated_tiers(sf_dir: str):
    """Translate filter (logstash-filter-translate): map event_type through
    a broadcast static dictionary with a default, then per tier: row count +
    how many source types merged into it. The dictionary rides the batch-fn
    closure once per worker; the lookup is one index_in + take per batch."""
    import pandas as pd
    import pyarrow as pa

    from ..stages.aggregate import tree_sum
    from ..stages.logfilters import make_translate

    ev = _events(sf_dir, ["event_type"])
    translated = ev.map_batches(
        make_translate(_TIER_MAP, "event_type", "tier", default="_other"),
        batch_format="pyarrow",
    )

    def partial(batch: pa.Table) -> pa.Table:
        g = batch.group_by(["tier", "event_type"]).aggregate([([], "count_all")])
        return g.rename_columns(["tier", "event_type", "cnt"])

    # (tier, type) grain is bounded by the type vocabulary — the final
    # rollup is a tiny exact pass over the tree-combined partials
    parts = tree_sum(
        translated.map_batches(partial, batch_format="pyarrow"),
        ["tier", "event_type"],
        ["cnt"],
    )

    def rollup(block: pd.DataFrame) -> pd.DataFrame:
        g = (
            block.groupby("tier", sort=False)
            .agg(n=("cnt", "sum"), n_types=("event_type", "nunique"))
            .reset_index()
        )
        g["n"] = g["n"].astype("int64")
        g["n_types"] = g["n_types"].astype("int64")
        return g

    return (
        parts.groupby("tier").map_groups(rollup, batch_format="pandas").sort("tier")
    )


def q_throttled_counts(sf_dir: str):
    """Throttle filter (logstash-filter-throttle): at most 3 events per
    (user, day) pass in deterministic (ts, event_id) arrival order; the
    rest are marked throttled. Rolled up to (day, allowed) counts. The rank
    runs per user-hash bucket — one vectorized sort + cumcount per bucket,
    no global sort."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from ..stages.aggregate import tree_sum
    from ..stages.logfilters import throttle

    ev = _events(sf_dir, ["event_id", "user_id", "ts"])
    marked = throttle(
        ev, "user_id", "ts", limit=3, period="day", tiebreak_col="event_id"
    )

    def partial(batch: pa.Table) -> pa.Table:
        day = pc.strftime(
            pc.cast(
                pc.multiply(batch["_window"], 86_400_000_000),
                pa.timestamp("us"),
            ),
            format="%Y-%m-%d",
        )
        keyed = pa.table({"day": day, "allowed": batch["allowed"]})
        g = keyed.group_by(["day", "allowed"]).aggregate([([], "count_all")])
        return g.rename_columns(["day", "allowed", "n"])

    parts = marked.map_batches(partial, batch_format="pyarrow")
    return tree_sum(parts, ["day", "allowed"], ["n"], sort_result=True)


def q_retention_cohorts(sf_dir: str):
    """Retention cohorts (INTERSECT/EXCEPT classify): every (user,
    event_type) entity labeled retained / churned / new around a fixed
    cutoff, counted per (type, cohort)."""
    from ..stages.relational import retention_cohorts

    return retention_cohorts(sf_dir)


def q_above_avg_orders(sf_dir: str):
    """Correlated scalar subquery: orders priced above their customer's own
    average, count + revenue per priority (integer cross-multiplied — the
    average never materializes)."""
    from ..stages.relational import above_average_orders

    return above_average_orders(sf_dir)


def q_priority_rollup(sf_dir: str):
    """ROLLUP grouping sets over orders: (priority, status) + per-priority
    subtotals + grand total, 'ALL' markers."""
    from ..stages.relational import priority_rollup

    return priority_rollup(sf_dir)


def q_priority_cube(sf_dir: str):
    """Full CUBE grouping sets over orders: all 2² levels of (priority,
    status) with 'ALL' markers — the rollup plus the per-status subtotals,
    derived from the same single finest-level distributed aggregate."""
    from ..stages.relational import priority_rollup

    return priority_rollup(sf_dir, cube=True)


def q_quartile_stats(sf_dir: str):
    """NTILE(4) per event_type ordered by (value, event_id): count +
    integer-milli value sum per (type, quartile) — exact SQL remainder
    semantics."""
    from ..stages.windows import ntile_stats

    return ntile_stats(_events(sf_dir, ["event_type", "value", "event_id"]), k=4)


#: click-attribution band: clicks in the 24h up to (and including) each
#: purchase — µs units shared verbatim with the SQL oracle
ATTRIBUTION_WINDOW_US = 24 * 3600 * 1_000_000


def q_click_attribution(sf_dir: str):
    """Banded interval join (attribution): per purchase event, the number
    of clicks by the same user in the trailing 24 hours. Pairs are never
    materialized — searchsorted counts per key band."""
    import pyarrow.dataset as pads
    import ray.data

    from ..stages.joins import band_join_counts

    def read_side(event_type: str, columns):
        # type predicate pushed into the parquet read (row-group pruning);
        # only (key, time[, id]) columns ever leave storage
        ds = ray.data.read_parquet(
            os.path.join(sf_dir, "events.parquet"),
            columns=columns,
            filter=(pads.field("event_type") == event_type),
        )

        return ds.map_batches(_to_epoch_us("ts"), batch_format="pyarrow")

    purchases = read_side("purchase", ["event_id", "user_id", "ts"])
    clicks = read_side("click", ["user_id", "ts"])
    out = band_join_counts(
        purchases,
        clicks,
        left_key="user_id",
        right_key="user_id",
        left_time="ts",
        right_time="ts",
        id_col="event_id",
        before=ATTRIBUTION_WINDOW_US,
        after=0,
        count_alias="n_clicks",
    )
    return out.sort("event_id")


def q_bpe_merges(sf_dir: str):
    """Iterative BPE tokenizer training over documents: the first 10 learned
    merge rules (rank, left, right, weighted count). Iterative state → no
    SQL oracle (rows-only); the merge sequence is pinned exactly against a
    sequential reference in pytest."""
    from ..stages.textops import bpe_train

    return bpe_train(_docs(sf_dir, ["text"]), n_merges=10)


def q_bpe_token_counts(sf_dir: str):
    """Train-then-apply tokenizer pipeline: learn 10 BPE merges over the
    corpus, then re-tokenize every document with them (per-doc BPE token
    count + milli compression ratio). Rows-only — iterative + replay state
    has no SQL oracle; both halves are pinned exactly by pytest."""
    from ..stages.textops import bpe_encode, bpe_train

    docs = _docs(sf_dir, ["doc_id", "text"])
    merges = bpe_train(docs, n_merges=10)
    return bpe_encode(docs, merges).sort("doc_id")


def q_label_centroids(sf_dir: str):
    """Per-class centroid sums over the embedding corpus: (label, dim) →
    int64 milli sum + class count, one vectorized np.add.at pass per batch,
    tree combine over |labels|·dim rows."""
    from ..stages.clustering import label_centroids

    return label_centroids(_emb(sf_dir, ["embedding", "label"]))


def _to_epoch_us(col: str):
    """Batch transform factory: cast a timestamp column to epoch-µs int64 in
    place — the shared prologue of every time-keyed join/window query."""

    def fn(batch: pa.Table) -> pa.Table:
        i = batch.column_names.index(col)
        return batch.set_column(
            i, col, batch[col].cast(pa.timestamp("us")).cast(pa.int64())
        )

    return fn


def q_events_last_order(sf_dir: str):
    """Two-table AS-OF join: for every event, the latest order date (epoch
    µs) at-or-before the event by the same user — the state-at-event-time
    enrichment. Returns per-event rows; ties are impossible in the output
    because the operator returns the matched TIME, not an arbitrary row."""
    import ray.data

    from ..stages.joins import asof_join_time

    ev = _events(sf_dir, ["event_id", "user_id", "ts"])
    orders = ray.data.read_parquet(
        os.path.join(sf_dir, "orders.parquet"),
        columns=["o_custkey", "o_orderdate"],
    )
    out = asof_join_time(
        ev.map_batches(_to_epoch_us("ts"), batch_format="pyarrow"),
        orders.map_batches(_to_epoch_us("o_orderdate"), batch_format="pyarrow"),
        left_key="user_id",
        right_key="o_custkey",
        left_time="ts",
        right_time="o_orderdate",
        id_col="event_id",
        matched_alias="matched_t",
    )
    return out.sort("event_id")


def q_user_reconciliation(sf_dir: str):
    """FULL OUTER join reconciliation: distinct event users vs the customer
    table — how many ids appear in both, only in events, only in customer.
    Exercises hash_join(how='outer') with typed-null schema stability on
    BOTH sides."""
    import numpy as np
    import ray.data

    from ..stages.aggregate import bucket_by_key, tree_sum
    from ..stages.joins import hash_join

    def distinct_partial(batch: pa.Table) -> pa.Table:
        g = batch.group_by(["eu_user"]).aggregate([])
        return g

    def distinct_final(block):
        # select before dedup: the _bucket column must not leak into the
        # join input (hash_join adds its own)
        return block[["eu_user"]].drop_duplicates()

    users = (
        bucket_by_key(
            _events(sf_dir, ["user_id"])
            .map_batches(
                lambda b: pa.table({"eu_user": b["user_id"]}),
                batch_format="pyarrow",
            )
            .map_batches(distinct_partial, batch_format="pyarrow"),
            "eu_user",
            16,
        )
        .groupby("_bucket")
        .map_groups(distinct_final, batch_format="pandas")
        # |distinct users|-sized: materialize so hash_join's schema() peek
        # does not execute the distinct shuffle twice (Ray 2.49)
        .materialize()
    )
    cust = ray.data.read_parquet(
        os.path.join(sf_dir, "customer.parquet"), columns=["c_custkey"]
    )
    joined = hash_join(
        users, cust, "eu_user", "c_custkey", num_buckets=16, how="outer"
    )

    def classify(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        enull = pc.is_null(batch["eu_user"])
        cnull = pc.is_null(batch["c_custkey"])
        status = pc.if_else(
            enull,
            pa.scalar("customer_only"),
            pc.if_else(cnull, pa.scalar("events_only"), pa.scalar("both")),
        )
        work = pa.table(
            {
                "status": status,
                "n": pa.array(np.ones(batch.num_rows, dtype=np.int64)),
            }
        )
        g = work.group_by(["status"]).aggregate([("n", "sum")])
        return g.rename_columns(["status", "n"])

    partials = joined.map_batches(classify, batch_format="pyarrow")
    return tree_sum(partials, ["status"], ["n"], sort_result=True)


def q_customer_order_profile(sf_dir: str):
    """LEFT OUTER join end-to-end: every customer keeps a row whether or
    not they have orders — per market segment the customer count, total
    orders (0-filled) and the zero-order customer count. Exercises
    hash_join(how='left') with the null-introducing merge."""
    import numpy as np

    from ..stages.aggregate import bucket_by_key, tree_sum
    from ..stages.joins import hash_join
    import ray.data

    def order_partial(batch: pa.Table) -> pa.Table:
        work = pa.table(
            {
                "oc_custkey": batch["o_custkey"],
                "n_ord": pa.array(np.ones(batch.num_rows, dtype=np.int64)),
            }
        )
        g = work.group_by(["oc_custkey"]).aggregate([("n_ord", "sum")])
        return g.rename_columns(["oc_custkey", "n_ord"])

    def order_final(block):
        g = block.groupby("oc_custkey", sort=False)["n_ord"].sum().reset_index()
        g["n_ord"] = g["n_ord"].astype(np.int64)
        return g

    ord_counts = (
        bucket_by_key(
            ray.data.read_parquet(
                os.path.join(sf_dir, "orders.parquet"), columns=["o_custkey"]
            ).map_batches(order_partial, batch_format="pyarrow"),
            "oc_custkey",
            16,
        )
        .groupby("_bucket")
        .map_groups(order_final, batch_format="pandas")
        # |customers|-sized: materialize so hash_join's schema() peek does
        # not execute the count shuffle twice (Ray 2.49)
        .materialize()
    )
    cust = ray.data.read_parquet(
        os.path.join(sf_dir, "customer.parquet"),
        columns=["c_custkey", "c_mktsegment"],
    )
    joined = hash_join(
        cust, ord_counts, "c_custkey", "oc_custkey", num_buckets=16,
        how="left",
    )

    def seg_partial(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        # hash_join(how='left') guarantees int64-with-nulls (schema cast
        # inside merge_bucket), so a plain 0-fill suffices
        n_ord = pc.fill_null(batch["n_ord"], 0)
        inactive = pc.cast(pc.equal(n_ord, 0), pa.int64())
        work = pa.table(
            {
                "c_mktsegment": batch["c_mktsegment"],
                "n_customers": pa.array(
                    np.ones(batch.num_rows, dtype=np.int64)
                ),
                "n_orders": n_ord,
                "n_inactive": inactive,
            }
        )
        g = work.group_by(["c_mktsegment"]).aggregate(
            [("n_customers", "sum"), ("n_orders", "sum"), ("n_inactive", "sum")]
        )
        return g.rename_columns(
            ["c_mktsegment", "n_customers", "n_orders", "n_inactive"]
        )

    partials = joined.map_batches(seg_partial, batch_format="pyarrow")
    return tree_sum(
        partials,
        ["c_mktsegment"],
        ["n_customers", "n_orders", "n_inactive"],
        sort_result=True,
    )


def q_window_distinct_users(sf_dir: str):
    """Windowed COUNT(DISTINCT): unique users per (event_type, 1h tumbling
    window). Per-batch distinct triples → user-hash buckets (a triple's
    copies share the user, so per-bucket dedup is global) → per-(type,
    window) partial counts → tiny tree combine. The shuffle ships distinct
    triples, never events."""
    import numpy as np
    import pandas as pd

    from ..stages.aggregate import bucket_by_key, tree_sum

    w_us = 3_600_000_000

    def triples(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        epoch = batch["ts"].cast(pa.timestamp("us")).cast(pa.int64())
        win = pc.multiply(pc.divide(epoch, w_us), w_us)
        work = pa.table(
            {
                "event_type": batch["event_type"],
                "window_us": win,
                "user_id": batch["user_id"],
            }
        )
        g = work.group_by(["event_type", "window_us", "user_id"]).aggregate([])
        return g

    def per_bucket(block: pd.DataFrame) -> pd.DataFrame:
        d = block.drop_duplicates(["event_type", "window_us", "user_id"])
        g = (
            d.groupby(["event_type", "window_us"], sort=False)
            .size()
            .reset_index(name="n_users")
        )
        g["n_users"] = g["n_users"].astype(np.int64)
        return g

    ev = _events(sf_dir, ["event_type", "user_id", "ts"])
    bucketed = bucket_by_key(
        ev.map_batches(triples, batch_format="pyarrow"), "user_id", 32
    )
    partials = bucketed.groupby("_bucket").map_groups(
        per_bucket, batch_format="pandas"
    )
    return tree_sum(
        partials, ["event_type", "window_us"], ["n_users"], sort_result=True
    )


def q_lang_centroids(sf_dir: str):
    """Cross-table centroid rollup: embeddings ⋈ documents on id, then
    per-LANGUAGE centroid sums — label_centroids with a string label that
    arrives via a partitioned hash join (both tables large at fleet scale;
    the embedding payload moves exactly once, as any engine's join must)."""
    from ..stages.clustering import label_centroids
    from ..stages.joins import hash_join

    emb = _emb(sf_dir, ["vec_id", "embedding"])
    docs = _docs(sf_dir, ["doc_id", "lang"])
    joined = hash_join(emb, docs, "vec_id", "doc_id", num_buckets=8)
    # explicit label_type: a schema() peek on the shuffle-backed join would
    # execute the whole embeddings⋈documents exchange twice (Ray 2.49)
    return label_centroids(joined, label_col="lang", label_type=pa.string())


#: left-side row-count threshold above which a key takes the broadcast
#: path in segment_activity — sized so the synthetic events table (≈67
#: events/user at every SF) exercises BOTH the hot and the cold path
SEGMENT_HOT_THRESHOLD = 70


def q_segment_activity(sf_dir: str):
    """Skew-aware join demo: events (hot, repeated user keys) ⋈ customer
    (unique per key) → count + value sum per market segment. Keys at ≥
    SEGMENT_HOT_THRESHOLD left rows join via broadcast, the rest through
    the bucketed hash join — both paths exercised at every SF."""
    import numpy as np
    import ray.data

    from ..stages.aggregate import tree_sum
    from ..stages.joins import skew_aware_hash_join

    def to_milli(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        v = pc.cast(
            pc.floor(pc.multiply(batch["value"], 1000.0)), pa.int64()
        )
        return pa.table({"user_id": batch["user_id"], "v_milli": v})

    ev = _events(sf_dir, ["user_id", "value"]).map_batches(
        to_milli, batch_format="pyarrow"
    )
    cust = ray.data.read_parquet(
        os.path.join(sf_dir, "customer.parquet"),
        columns=["c_custkey", "c_mktsegment"],
    )
    joined = skew_aware_hash_join(
        ev, cust, "user_id", "c_custkey",
        hot_count_threshold=SEGMENT_HOT_THRESHOLD,
        num_buckets=16,
    )

    def partial(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        work = pa.table(
            {
                "c_mktsegment": batch["c_mktsegment"],
                "n": pa.array(
                    np.ones(batch.num_rows, dtype=np.int64)
                ),
                "sum_v_milli": batch["v_milli"],
            }
        )
        g = work.group_by(["c_mktsegment"]).aggregate(
            [("n", "sum"), ("sum_v_milli", "sum")]
        )
        return g.rename_columns(["c_mktsegment", "n", "sum_v_milli"])

    partials = joined.map_batches(partial, batch_format="pyarrow")
    return tree_sum(
        partials, ["c_mktsegment"], ["n", "sum_v_milli"], sort_result=True
    )


#: loud-failure cap on a (event_type, hour) co-occurrence group — one hot
#: group would otherwise generate |group|² pairs in a single task
TRIANGLE_GROUP_CAP = 100_000


def _cooccurrence_edges(sf_dir: str):
    """Shared graph builder for the graph-family queries: distinct edges
    (a < b) between users who saw the SAME props payload ``k`` in the same
    event_type within the same hour. The k match keeps the graph sparse
    (the plain (type, hour) graph is a near-clique — Θ(n³) triangles, a
    graph-shape property no exact algorithm escapes). Group-size capped,
    vectorized self-merge per bucket; returns a materialized Dataset
    (a, b) so downstream schema peeks never re-run the shuffle.

    Payload contract: ``k`` is extracted as a BARE integer (the synthetic
    schema); quoted/float payloads would diverge from the oracle's
    json_extract + CAST semantics and are treated as unparseable."""
    import numpy as np

    from ..stages.aggregate import bucket_by_key

    ev = _events(sf_dir, ["event_type", "ts", "user_id", "props"])

    def occ_partial(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        hr = pc.divide(
            batch["ts"].cast(pa.timestamp("us")).cast(pa.int64()),
            pa.scalar(3_600_000_000, type=pa.int64()),
        )
        ex = pc.extract_regex(batch["props"], r'"k":\s*(?P<k>-?\d+)')
        k = pc.cast(pc.struct_field(ex, "k"), pa.int64())
        g = pc.binary_join_element_wise(
            pc.cast(batch["event_type"], pa.string()),
            pc.cast(hr, pa.string()),
            pc.cast(k, pa.string()),
            "\x1f",
        )
        t = pa.table({"g": g, "user_id": batch["user_id"]})
        # drop unparseable-k rows (g is null): the oracle's o1.k = o2.k
        # equi-join excludes NULLs, and pandas' merge would otherwise PAIR
        # NaN keys while its groupby size-guard SKIPS them — an uncapped,
        # oracle-divergent null group
        t = t.filter(pc.is_valid(t["g"]))
        return t.group_by(["g", "user_id"]).aggregate([])

    occ = (
        ev.map_batches(occ_partial, batch_format="pyarrow")
        .groupby(["g", "user_id"])
        .count()
        .select_columns(["g", "user_id"])
    )

    def pairs_bucket(block) -> pa.Table:
        sizes = block.groupby("g")["user_id"].transform("size")
        if len(sizes) and int(sizes.max()) > TRIANGLE_GROUP_CAP:
            raise ValueError(
                "co-occurrence group exceeds TRIANGLE_GROUP_CAP=%d — a hot "
                "(type, hour, k) key would square inside one task; shrink "
                "the window or pre-sample the group" % TRIANGLE_GROUP_CAP
            )
        m = block.merge(block, on="g", suffixes=("_a", "_b"))
        m = m[m["user_id_a"] < m["user_id_b"]]
        return pa.table(
            {
                "a": pa.array(m["user_id_a"].to_numpy(dtype=np.int64)),
                "b": pa.array(m["user_id_b"].to_numpy(dtype=np.int64)),
            }
        )

    return (
        bucket_by_key(occ, "g", 32)
        .groupby("_bucket")
        .map_groups(pairs_bucket, batch_format="pandas")
        .groupby(["a", "b"])
        .count()
        .select_columns(["a", "b"])
        .materialize()
    )


def q_user_triangles(sf_dir: str):
    """Per-user triangle participation counts over the payload-k
    co-occurrence graph (``_cooccurrence_edges``); counting is the
    degree-oriented wedge-check pipeline in
    ``stages.graph.triangle_counts`` (wedge-budget guarded)."""
    from ..stages.graph import triangle_counts

    tri = triangle_counts(_cooccurrence_edges(sf_dir))
    return tri.rename_columns({"node": "user_id"})


def q_trending_types(sf_dir: str):
    """Streaming-analytics composition: the top-3 event types per hopping
    window by count (ties → type asc) — ``hopping_window_counts`` feeding
    ``grouped_topk``, the trending-items dashboard query."""
    from ..stages.aggregate import grouped_topk
    from ..stages.windows import hopping_window_counts

    counts = hopping_window_counts(
        _events(sf_dir, ["ts", "event_type"]),
        width_sec=WINDOW_SEC,
        hop_sec=WINDOW_SEC // 4,
    )
    return grouped_topk(
        counts, key_col="window_id", order_col="n", id_col="event_type", k=3
    )


def q_props_k_stats(sf_dir: str):
    """Log-pipeline JSON field extraction (the reference's world: parse a
    JSON payload column, then aggregate): props's ``k`` field extracted
    with one vectorized regex per batch → per-type n/sum/min/max via
    arrow group_by partials and a bundled combine. No JSON parser in the
    hot path — the schema-known fast path every log engine ships.
    Contract: bare-integer payloads (the synthetic schema); quoted or
    float ``k`` values would diverge from json_extract + CAST."""
    import pyarrow.compute as pc

    ev = _events(sf_dir, ["event_type", "props"])

    def partial(batch: pa.Table) -> pa.Table:
        ex = pc.extract_regex(batch["props"], r'"k":\s*(?P<k>-?\d+)')
        k = pc.cast(pc.struct_field(ex, "k"), pa.int64())
        t = pa.table({"event_type": batch["event_type"], "k": k})
        agg = t.group_by(["event_type"]).aggregate(
            [([], "count_all"), ("k", "sum"), ("k", "min"), ("k", "max")]
        )
        return agg.rename_columns(
            ["event_type", "n", "sum_k", "min_k", "max_k"]
        )

    def combine(batch: pa.Table) -> pa.Table:
        agg = batch.group_by(["event_type"]).aggregate(
            [("n", "sum"), ("sum_k", "sum"), ("min_k", "min"), ("max_k", "max")]
        )
        return agg.rename_columns(
            ["event_type", "n", "sum_k", "min_k", "max_k"]
        ).sort_by([("event_type", "ascending")])

    from ..stages.aggregate import tree_agg

    return tree_agg(ev.map_batches(partial, batch_format="pyarrow"), combine)


def q_json_field_stats(sf_dir: str):
    """JSON filter (logstash-filter-json): the props payload parsed by
    Arrow's C++ NDJSON reader — whole batch joined into one block, ONE
    parser call per batch, no per-row json.loads — then per-type
    n/sum/min/max. The general-schema counterpart of props_k_stats's
    regex fast path; both must agree with the same json_extract oracle."""
    import pyarrow.compute as pc

    from ..stages.aggregate import tree_agg
    from ..stages.logfilters import make_json_parse

    ev = _events(sf_dir, ["event_type", "props"])
    parse = make_json_parse(
        line_col="props",
        explicit_schema=pa.schema([("k", pa.int64())]),
    )

    def partial(batch: pa.Table) -> pa.Table:
        t = parse(batch)
        agg = t.group_by(["event_type"]).aggregate(
            [([], "count_all"), ("k", "sum"), ("k", "min"), ("k", "max")]
        )
        return agg.rename_columns(
            ["event_type", "n", "sum_k", "min_k", "max_k"]
        )

    def combine(batch: pa.Table) -> pa.Table:
        agg = batch.group_by(["event_type"]).aggregate(
            [("n", "sum"), ("sum_k", "sum"), ("min_k", "min"), ("max_k", "max")]
        )
        return agg.rename_columns(
            ["event_type", "n", "sum_k", "min_k", "max_k"]
        ).sort_by([("event_type", "ascending")])

    return tree_agg(ev.map_batches(partial, batch_format="pyarrow"), combine)


def q_csv_roundtrip_stats(sf_dir: str):
    """CSV filter (logstash-filter-csv): orders rendered to RFC-4180 lines
    (the note field is quoted and CONTAINS commas + escaped quotes, so the
    quote path is load-bearing), parsed back by Arrow's C++ CSV reader —
    one parser call per batch — and aggregated from the PARSED columns.
    The oracle aggregates the source table directly, so any parse loss
    breaks the hash."""
    import pyarrow.compute as pc
    import ray.data

    from ..stages.aggregate import tree_sum
    from ..stages.logfilters import make_csv_parse

    orders = ray.data.read_parquet(
        os.path.join(sf_dir, "orders.parquet"),
        columns=["o_orderkey", "o_orderstatus", "o_totalprice", "o_orderpriority"],
    )
    parse = make_csv_parse(
        ["key", "status", "note", "cents"],
        {"key": pa.int64(), "cents": pa.int64()},
    )

    def roundtrip(batch: pa.Table) -> pa.Table:
        # the note contains BOTH a comma and a quote char, so quoting AND
        # ""-escaping are exercised on every row
        note = pc.binary_join_element_wise(
            'priority, "note": ', batch["o_orderpriority"], ""
        )
        # RFC-4180 quote the whole field (it always contains ", ")
        quoted = pc.binary_join_element_wise(
            '"', pc.replace_substring(note, '"', '""'), '"', ""
        )
        cents = pc.cast(
            pc.round(pc.multiply(batch["o_totalprice"], 100.0)), pa.int64()
        )
        line = pc.binary_join_element_wise(
            pc.cast(batch["o_orderkey"], pa.string()),
            batch["o_orderstatus"],
            quoted,
            pc.cast(cents, pa.string()),
            ",",
        )
        t = parse(pa.table({"line": line}))
        keyed = pa.table(
            {
                "status": t["status"],
                "cents": t["cents"],
                "note_chars": pc.cast(pc.utf8_length(t["note"]), pa.int64()),
            }
        )
        g = keyed.group_by(["status"]).aggregate(
            [([], "count_all"), ("cents", "sum"), ("note_chars", "sum")]
        )
        return g.rename_columns(["status", "n", "cents", "note_chars"])

    parts = orders.map_batches(roundtrip, batch_format="pyarrow")
    return tree_sum(parts, ["status"], ["n", "cents", "note_chars"], sort_result=True)


#: funnel step sequence for q_funnel_conversion (first-touch chained order)
FUNNEL_STEPS = ["view", "click", "purchase"]
#: conversion window per step (each step within 24h of the previous one) —
#: sized so the synthetic corpus converts partially (150/60/25 at sf0.01),
#: keeping the oracle comparison discriminating
FUNNEL_WITHIN_SEC = 24 * 3600


def q_funnel_conversion(sf_dir: str):
    """Product-analytics funnel: users reaching view → click → purchase in
    strict timestamp order (first-touch chaining, equal timestamps do not
    advance), each step within a 24h conversion window of the previous.
    The corpus filters to funnel-type rows at the first map; users
    co-locate by hash bucket; each bucket is k-1 vectorized merge+min
    passes; the final exchange is a steps-sized tree sum
    (``stages.windows.funnel_counts``)."""
    from ..stages.windows import funnel_counts

    counts = funnel_counts(
        _events(sf_dir, ["user_id", "ts", "event_type"]),
        FUNNEL_STEPS,
        within_sec=FUNNEL_WITHIN_SEC,
    )

    def attach_type(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        names = pc.take(pa.array(FUNNEL_STEPS), batch["step"])
        return pa.table(
            {"step": batch["step"], "event_type": names, "users": batch["users"]}
        )

    return counts.map_batches(attach_type, batch_format="pyarrow").sort("step")


def q_knn_labels(sf_dir: str):
    """k-NN majority-vote labeling of every embedding from its 10 nearest
    neighbors by integer-milli inner product (weak supervision). Full k-NN
    graph via the block-grid self-join; integer dots keep even the
    double-arithmetic SQL oracle exactly aligned
    (``stages.similarity.knn_majority_labels``)."""
    from ..stages.similarity import knn_majority_labels

    return knn_majority_labels(
        _emb(sf_dir, ["vec_id", "embedding", "label"]), k=ANN_K
    )


#: interval self-join window: same-user event pairs at most 2h apart —
#: wide enough to produce pairs at every SF, narrow enough to stay sparse
EVENT_PAIR_WINDOW_US = 2 * 3_600_000_000


def q_event_pairs_within(sf_dir: str):
    """Interval self-join (the band/range-join family member beside the
    as-of join): every ordered pair of same-user events ≤ 2h apart, with
    the exact µs delta. One sort + one searchsorted + repeat/arange
    explosion per bucket (``stages.windows.interval_self_pairs``); a
    burst-key quadratic blowup raises at a documented pair cap instead of
    materializing silently."""
    from ..stages.windows import interval_self_pairs

    return interval_self_pairs(
        _events(sf_dir, ["user_id", "ts", "event_id"]),
        window_us=EVENT_PAIR_WINDOW_US,
    )


def q_cdc_merged_state(sf_dir: str):
    """Lakehouse MERGE (CDC apply): the events stream is a changelog over
    the customer base table — per key the LATEST change wins (``error``
    events are deletes, everything else an upsert of the event value);
    untouched base keys pass through, upserts of unknown keys insert.
    Scale shape: latest-change extraction is a bucketed vectorized
    segment-last (never a per-key loop); base and changelog co-locate by
    the SAME key-hash bucket and merge per bucket — one exchange total,
    both sides large. Exact integer milli values throughout."""
    import numpy as np
    import pandas as pd
    import ray.data

    from ..stages.aggregate import bucket_by_key

    NBK = 32

    def chg_rows(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        vm = pc.cast(
            pc.floor(pc.multiply(batch["value"], 1000.0)), pa.int64()
        )
        return pa.table(
            {
                "k": pc.cast(batch["user_id"], pa.int64()),
                "ts_us": pc.cast(batch["ts"], pa.int64()),
                "event_id": batch["event_id"],
                "is_del": pc.equal(batch["event_type"], "error"),
                "vm": vm,
                "side": pa.array(["c"] * batch.num_rows, pa.string()),
            }
        )

    def base_rows(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        vm = pc.cast(
            pc.floor(pc.multiply(batch["c_acctbal"], 1000.0)), pa.int64()
        )
        n = batch.num_rows
        return pa.table(
            {
                "k": pc.cast(batch["c_custkey"], pa.int64()),
                "ts_us": pa.nulls(n, pa.int64()),
                "event_id": pa.nulls(n, pa.int64()),
                "is_del": pa.nulls(n, pa.bool_()),
                "vm": vm,
                "side": pa.array(["b"] * n, pa.string()),
            }
        )

    chg = _events(
        sf_dir, ["user_id", "ts", "event_id", "event_type", "value"]
    ).map_batches(chg_rows, batch_format="pyarrow")
    base = ray.data.read_parquet(
        os.path.join(sf_dir, "customer.parquet"),
        columns=["c_custkey", "c_acctbal"],
    ).map_batches(base_rows, batch_format="pyarrow")

    def merge_bucket(block: pd.DataFrame) -> pd.DataFrame:
        c = block[block["side"] == "c"]
        b = block[block["side"] == "b"]
        out_k, out_v = [b["k"].to_numpy()], [b["vm"].to_numpy()]
        if len(c):
            cs = c.sort_values(["k", "ts_us", "event_id"])
            keys = cs["k"].to_numpy()
            last = np.ones(len(cs), dtype=bool)
            last[:-1] = keys[1:] != keys[:-1]
            lk = keys[last]
            ldel = cs["is_del"].to_numpy()[last].astype(bool)
            lvm = cs["vm"].to_numpy()[last]
            # drop base rows for every changed key, then re-add upserts
            changed = np.isin(out_k[0], lk)
            out_k[0], out_v[0] = out_k[0][~changed], out_v[0][~changed]
            out_k.append(lk[~ldel])
            out_v.append(lvm[~ldel])
        return pd.DataFrame(
            {
                "user_id": np.concatenate(out_k),
                "value_milli": np.concatenate(out_v),
            }
        )

    unioned = bucket_by_key(chg.union(base), "k", NBK)
    return (
        unioned.groupby("_bucket")
        .map_groups(merge_bucket, batch_format="pandas")
        .sort("user_id")
    )


def q_resampled_series(sf_dir: str):
    """Daily resample + forward fill of each user's value series (the
    time-series gap-filling feature step): one row per (user, day) from
    the user's first event day to the global horizon, carrying the latest
    at-or-before value in exact integer milli. The horizon is a one-column
    streamed max over ts (tiny aggregate, driver scalar by contract);
    everything else is the bucketed one-pass vectorized ffill in
    ``stages.windows.resample_daily_ffill``."""
    import pyarrow.compute as pc

    from ..stages.windows import resample_daily_ffill

    def to_day(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "day": pc.divide(
                    pc.cast(batch["ts"], pa.int64()), 86_400_000_000
                )
            }
        )

    end_day = int(
        _events(sf_dir, ["ts"])
        .map_batches(to_day, batch_format="pyarrow")
        .max("day")
    )
    return resample_daily_ffill(
        _events(sf_dir, ["user_id", "event_id", "ts", "value"]),
        end_day=end_day,
    )


def q_order_skyline(sf_dir: str):
    """Pareto frontier of orders (maximize price, minimize date — "the
    earliest expensive orders"): distributed 2-D skyline via per-block
    local frontiers + one union frontier; the exchange carries frontiers
    only. Exact-integer measures (cents, epoch days); oracle = the NOT
    EXISTS dominance query, a genuinely independent O(n²) definition."""
    import pyarrow.compute as pc

    import ray.data

    from ..stages.relational import skyline_2d

    orders = ray.data.read_parquet(
        os.path.join(sf_dir, "orders.parquet"),
        columns=["o_orderkey", "o_totalprice", "o_orderdate"],
    )

    def measures(batch: pa.Table) -> pa.Table:
        cents = pc.cast(
            pc.round(pc.multiply(batch["o_totalprice"], 100.0)), pa.int64()
        )
        day = pc.divide(
            pc.cast(batch["o_orderdate"], pa.int64()), 86_400_000_000
        )
        return pa.table(
            {
                "o_orderkey": batch["o_orderkey"],
                "cents": cents,
                "day": day,
            }
        )

    return skyline_2d(
        orders.map_batches(measures, batch_format="pyarrow"), "cents", "day"
    ).sort("o_orderkey")


def q_winsorized_values(sf_dir: str):
    """Per-event-type percentile winsorization: every event's milli value
    clipped into its type's exact [p05, p95] quantile_disc band — computed
    from the (value → count) histogram so rows never co-locate by key
    (``stages.aggregate.winsorize_values``)."""
    from ..stages.aggregate import winsorize_values

    return winsorize_values(
        _events(sf_dir, ["event_id", "event_type", "value"]),
        key_col="event_type",
        id_col="event_id",
        value_col="value",
    )


def q_value_trend(sf_dir: str):
    """Per-event-type OLS slope of value over time as an exact rational
    (slope_num / slope_den decimal strings) — drift detection with zero
    float arithmetic, HUGEINT-oracle reproducible
    (``stages.aggregate.grouped_trend``)."""
    from ..stages.aggregate import grouped_trend

    def prep(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        return pa.table(
            {
                "event_type": batch["event_type"],
                "x": batch["ts"].cast(pa.timestamp("us")).cast(pa.int64()),
                "y": pc.cast(
                    pc.floor(pc.multiply(batch["value"], 1000.0)), pa.int64()
                ),
            }
        )

    ev = _events(sf_dir, ["event_type", "ts", "value"]).map_batches(
        prep, batch_format="pyarrow"
    )
    return grouped_trend(ev, key_col="event_type", x_col="x", y_col="y")


def q_dataset_splits(sf_dir: str):
    """Deterministic stratified 80/10/10 train/val/test assignment per
    source (md5 rank within stratum, cross-multiplied integer thresholds —
    no float ceil in either engine; ``stages.packing.stratified_split``)."""
    from ..stages.packing import stratified_split

    return stratified_split(_docs(sf_dir, ["doc_id", "source"]))


def q_curated_chunks(sf_dir: str):
    """THE composed training-data curation pipeline, end to end as one
    query: quality filter (Gopher thresholds, streaming passthrough) →
    benchmark decontamination (broadcast shingles; eval split excluded)
    → MinHash-LSH near-dup dedup (id-only band shuffle, exact verify,
    keeper anti-join) → sequence packing into 256-token chunks. Every
    stage is the same scale-shaped operator its standalone query uses;
    the corpus streams through the filter chain (each consumer re-reads
    the pruned source rather than pinning survivors in the object
    store). The oracle replays the identical chain as one CTE stack."""
    import numpy as np

    from ..stages.contamination import benchmark_shingles, contaminated_docs
    from ..stages.dedup import dup_clusters, filter_non_keepers, minhash_lsh_pairs
    from ..stages.packing import pack_sequences
    from ..stages.textops import quality_filter

    docs = _docs(sf_dir, ["doc_id", "text"])
    bench = benchmark_shingles(
        docs.map_batches(_mod_filter(True), batch_format="pyarrow"),
        n=CONTAM_NGRAM,
    )
    train = docs.map_batches(_mod_filter(False), batch_format="pyarrow")

    # flagged set: small by construction (contamination is the exception)
    flagged = (
        contaminated_docs(train, bench, n=CONTAM_NGRAM)
        .select_columns(["doc_id"])
        .to_pandas()["doc_id"]
        .to_numpy(dtype=np.int64)
    )
    flag_arr = pa.array(flagged, type=pa.int64())

    def survivors():
        import pyarrow.compute as pc

        q = quality_filter(train, passthrough=True)

        def drop_flagged(batch: pa.Table) -> pa.Table:
            hit = pc.is_in(pc.cast(batch["doc_id"], pa.int64()),
                           value_set=flag_arr)
            return batch.filter(pc.invert(hit))

        return q.map_batches(drop_flagged, batch_format="pyarrow")

    pairs = minhash_lsh_pairs(survivors(), min_jaccard=0.5)
    clusters = dup_clusters(pairs)
    keepers = filter_non_keepers(survivors(), clusters)
    return pack_sequences(keepers).sort("doc_id")


def q_key_skew(sf_dir: str):
    """Partitioning diagnostics: the exact Gini coefficient of the per-user
    event-count distribution, as an integer rational (gini_num/gini_den
    decimal strings — no float division anywhere). The quantity an engine
    consults before choosing salt/broadcast strategies for a key.

    Shape: per-batch partial counts → one native groupby over user_id
    (|keys| rows — the aggregate table, not the corpus) → ONE final task
    ranks the counts and folds the big-int Gini sums (Python ints; the
    table is entity-sized, documented)."""
    import pandas as pd

    from ..stages.aggregate import _partial_counts

    ev = _events(sf_dir, ["user_id"])
    counts = (
        ev.map_batches(_partial_counts(["user_id"], "n"), batch_format="pyarrow")
        .groupby("user_id")
        .sum("n")
        .rename_columns({"sum(n)": "n"})
    )

    def gini(block: pa.Table) -> pa.Table:
        df = block.to_pandas().sort_values(["n", "user_id"]).reset_index(drop=True)
        m = len(df)
        ns = [int(v) for v in df["n"]]
        total = sum(ns)
        num = sum((2 * (i + 1) - m - 1) * v for i, v in enumerate(ns))
        return pa.table(
            {
                "n_keys": pa.array([m], type=pa.int64()),
                "gini_num": pa.array([str(num)], type=pa.string()),
                "gini_den": pa.array([str(m * total)], type=pa.string()),
            }
        )

    return counts.repartition(1).map_batches(
        gini, batch_format="pyarrow", batch_size=None
    )


def q_activity_islands(sf_dir: str):
    """Gaps-and-islands coverage rollup: each event opens a 30-minute
    interval; per user, overlapping intervals merge into islands →
    (user_id, n_islands, covered_us) (``stages.windows
    .merged_interval_stats``)."""
    from ..stages.windows import merged_interval_stats

    return merged_interval_stats(_events(sf_dir, ["user_id", "ts"]))


def q_late_events(sf_dir: str):
    """Watermark / allowed-lateness classification (streaming semantics as
    a batch operator): events re-ordered by a deterministic md5 arrival
    permutation, per-user running-max event time = the watermark, emit
    events arriving > 14 days behind it (``stages.windows.late_events``)."""
    from ..stages.windows import late_events

    return late_events(_events(sf_dir, ["event_id", "user_id", "ts"]))


def q_quantized_embeddings(sf_dir: str):
    """Int8-style linear quantization of the embedding corpus: per-dim
    milli (min, max) from one streaming pass, then exploded (vec_id, dim,
    q) codes — integer floor-division exact vs the SQL oracle
    (``stages.clustering.quantize_embeddings``)."""
    from ..stages.clustering import quantize_embeddings

    return quantize_embeddings(_emb(sf_dir, ["vec_id", "embedding"]))


def q_edit_distance_pairs(sf_dir: str):
    """Blocked Levenshtein near-dup pairs: same-(lang, source) docs whose
    64-char-prefix BYTE edit distance is ≤ 40 (DuckDB levenshtein is
    byte-based — matched exactly). Vectorized all-pairs DP per block, skew
    cap raises on hot blocks (``stages.dedup.edit_distance_pairs``)."""
    from ..stages.dedup import edit_distance_pairs

    return edit_distance_pairs(
        _docs(sf_dir, ["doc_id", "lang", "source", "text"])
    )


def q_cust_order_distribution(sf_dir: str):
    """TPC-H Q13 flavor: distribution of per-customer order counts,
    INCLUDING zero-order customers (the LEFT JOIN is the point). Orders
    collapse to per-custkey counts first (native high-cardinality
    groupby), the count table left-joins the customer keys, and the tiny
    count-of-counts histogram tree-combines."""
    import ray.data

    from ..stages.aggregate import tree_sum
    from ..stages.joins import hash_join

    orders = ray.data.read_parquet(
        os.path.join(sf_dir, "orders.parquet"), columns=["o_custkey"]
    )

    def order_partial(batch: pa.Table) -> pa.Table:
        return (
            batch.group_by(["o_custkey"])
            .aggregate([([], "count_all")])
            .rename_columns(["o_custkey", "n"])
        )

    counts = (
        orders.map_batches(order_partial, batch_format="pyarrow")
        .groupby("o_custkey")
        .sum("n")
        .rename_columns({"sum(n)": "n"})
        .materialize()  # schema peek in hash_join must not re-run the shuffle
    )
    cust = ray.data.read_parquet(
        os.path.join(sf_dir, "customer.parquet"), columns=["c_custkey"]
    )
    joined = hash_join(cust, counts, "c_custkey", "o_custkey", how="left",
                       num_buckets=16)

    def hist_partial(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        c_count = pc.fill_null(pc.cast(batch["n"], pa.int64()), 0)
        return (
            pa.table({"c_count": c_count})
            .group_by(["c_count"])
            .aggregate([([], "count_all")])
            .rename_columns(["c_count", "n_custs"])
        )

    partials = joined.map_batches(hist_partial, batch_format="pyarrow")
    return tree_sum(partials, ["c_count"], ["n_custs"], sort_result=True)


#: profiled events columns → the VARCHAR-normal form both engines compare
#: (ints verbatim, timestamps as epoch-µs, floats as integer millis)
PROFILE_EXPRS = {
    "event_id": "CAST(event_id AS VARCHAR)",
    "ts_us": "CAST(epoch_us(ts) AS VARCHAR)",
    "user_id": "CAST(user_id AS VARCHAR)",
    "event_type": "CAST(event_type AS VARCHAR)",
    "value_milli": "CAST(CAST(floor(value * 1000) AS BIGINT) AS VARCHAR)",
    "props": "props",
}


def _profile_oracle_sql() -> str:
    parts = [
        f"SELECT '{c}' AS col, CAST(count(*) AS BIGINT) AS n_rows,"
        f" CAST(count(*) - count({e}) AS BIGINT) AS n_null,"
        f" CAST(count(DISTINCT {e}) AS BIGINT) AS n_distinct,"
        f" min({e}) AS min_val, max({e}) AS max_val FROM events"
        for c, e in PROFILE_EXPRS.items()
    ]
    return "SELECT * FROM (" + " UNION ALL ".join(parts) + ") ORDER BY col"


def q_events_profile(sf_dir: str):
    """Column profiler over the events table: per-column row count, null
    count, EXACT distinct cardinality, and lexicographic min/max on the
    normalized string form (``stages.profile.profile_columns``) — the
    data-quality sweep that runs before any training-data job."""
    from ..stages.profile import profile_columns

    def normalize(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        return pa.table(
            {
                "event_id": batch["event_id"],
                "ts_us": batch["ts"].cast(pa.timestamp("us")).cast(pa.int64()),
                "user_id": batch["user_id"],
                "event_type": batch["event_type"],
                "value_milli": pc.cast(
                    pc.floor(pc.multiply(batch["value"], 1000.0)), pa.int64()
                ),
                "props": batch["props"],
            }
        )

    ds = _events(sf_dir).map_batches(normalize, batch_format="pyarrow")
    return profile_columns(ds, list(PROFILE_EXPRS))


def q_table_row_counts(sf_dir: str):
    """Metadata-only row counts for every testdata table: answered from
    parquet footers — ZERO data pages read, the degenerate limit of
    prune-at-the-read (a count(*) that scans is wrong at 100 TB). Pure
    driver-side footer reads; no Ray stage needed or wanted."""
    import pandas as pd
    import pyarrow.parquet as pq

    tables = [
        "customer", "documents", "embeddings", "events", "lineitem",
        "nation", "orders", "part", "region", "supplier",
    ]
    rows = []
    for t in tables:
        path = os.path.join(sf_dir, t + ".parquet")
        if os.path.exists(path):
            rows.append(
                {"tbl": t, "n_rows": pq.ParquetFile(path).metadata.num_rows}
            )
    out = pd.DataFrame(rows, columns=["tbl", "n_rows"])
    out["n_rows"] = out["n_rows"].astype("int64")
    return out.sort_values("tbl").reset_index(drop=True)


#: BFS seed rule: every node ≡ 0 (mod BFS_SEED_MOD) is a source — a
#: deterministic multi-source frontier both engines derive identically
BFS_SEED_MOD = 10


def q_bfs_levels(sf_dir: str):
    """Multi-source BFS over the co-occurrence graph: minimum hop distance
    from any seed (user_id ≡ 0 mod 10) — frontier expansion with one
    partitioned hash_join + anti-join per round, O(diameter) rounds
    (``stages.graph.bfs_levels``). Oracle: DuckDB recursive CTE min
    distance over the same symmetrized edges."""
    import pyarrow.compute as pc
    import ray.data  # noqa: F401

    from ..stages.graph import bfs_levels

    e = _cooccurrence_edges(sf_dir)  # materialized — both consumers reuse it
    edges = e.map_batches(
        lambda b: pa.table({"src": b["a"], "dst": b["b"]}),
        batch_format="pyarrow",
    )
    nodes = (
        e.map_batches(
            lambda b: pa.table(
                {
                    "node": pa.concat_arrays(
                        [
                            b["a"].combine_chunks()
                            if isinstance(b["a"], pa.ChunkedArray)
                            else b["a"],
                            b["b"].combine_chunks()
                            if isinstance(b["b"], pa.ChunkedArray)
                            else b["b"],
                        ]
                    )
                }
            ),
            batch_format="pyarrow",
        )
        .groupby("node")
        .map_groups(lambda t: t.slice(0, 1), batch_format="pyarrow")
    )
    def pick_seeds(b: pa.Table) -> pa.Table:
        import numpy as np

        n = b["node"].to_numpy(zero_copy_only=False).astype(np.int64)
        return b.filter(pa.array(n % BFS_SEED_MOD == 0))

    seeds = nodes.map_batches(pick_seeds, batch_format="pyarrow")
    return bfs_levels(edges, seeds)


def q_kcore_members(sf_dir: str):
    """k-core decomposition (k=2) of the payload-k co-occurrence graph:
    iterative bulk-synchronous peeling (`stages.graph.kcore_nodes`) —
    degree count + two bucketed semi-joins per round, driver reads one
    scalar to detect the fixpoint. Rows (user_id, degree) with degree
    measured inside the core. Iterative → no single-statement SQL oracle;
    pinned instead by `test_kcore_known_graph` naive-peel equality."""
    from ..stages.graph import kcore_nodes

    edges = _cooccurrence_edges(sf_dir).map_batches(
        lambda b: pa.table({"src": b["a"], "dst": b["b"]}),
        batch_format="pyarrow",
    )
    core = kcore_nodes(edges, k=2)
    if not hasattr(core, "map_batches"):  # empty-core DataFrame guard
        return core.rename(columns={"node": "user_id"})
    return core.map_batches(
        lambda b: b.rename_columns(["user_id", "degree"]),
        batch_format="pyarrow",
    )


def q_user_communities(sf_dir: str):
    """Connected components END-TO-END on the join-based min-label
    propagation scale path (pointer doubling, O(log diameter) rounds) —
    the primary consumer of ``dedup.label_propagation_clusters`` rather
    than its small-set union-find fallback. Graph: the shared payload-k
    co-occurrence edges (``_cooccurrence_edges``); output = (user_id,
    community = min user in component, size)."""
    from ..stages.aggregate import tree_sum
    from ..stages.dedup import label_propagation_clusters
    from ..stages.joins import hash_join

    comp = label_propagation_clusters(_cooccurrence_edges(sf_dir), num_buckets=8)

    def size_partial(batch: pa.Table) -> pa.Table:
        return (
            batch.select(["cluster_id"])
            .group_by(["cluster_id"])
            .aggregate([([], "count_all")])
            .rename_columns(["cluster_id", "community_size"])
        )

    sizes = tree_sum(
        comp.map_batches(size_partial, batch_format="pyarrow"),
        ["cluster_id"],
        ["community_size"],
        sort_result=False,
    ).materialize()
    joined = hash_join(comp, sizes, "cluster_id", "cluster_id",
                       num_buckets=8)

    def finish(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "user_id": batch["doc_id"],
                "community": batch["cluster_id"],
                "community_size": batch["community_size"],
            }
        )

    return joined.map_batches(finish, batch_format="pyarrow").sort("user_id")


def q_user_top_event(sf_dir: str):
    """Exact per-user mode of event_type (most frequent; ties broken by
    smallest type) — the per-entity categorical profile aggregate. Shuffle
    = distinct (user, type) partial counts, never events."""
    from ..stages.aggregate import grouped_mode

    return grouped_mode(
        _events(sf_dir, ["user_id", "event_type"]),
        key_col="user_id",
        value_col="event_type",
        mode_alias="mode_type",
    )


def q_value_percent_ranks(sf_dir: str):
    """Integer-exact percent_rank() of every event's milli value within its
    event type: (rank-1, n-1) numerator/denominator columns — the float
    quotient never materializes, so the SQL window oracle hash-matches."""
    from ..stages.windows import percent_ranks

    return percent_ranks(_events(sf_dir, ["event_type", "event_id", "value"]))


def q_value_outliers(sf_dir: str):
    """Per-event-type 3-sigma outlier events, integer-exact: cross-
    multiplied population-variance inequality over milli values, evaluated
    with Python big-int moments and closed isqrt bounds — hash-matches a
    HUGEINT SQL oracle with no float sigma in either engine."""
    from ..stages.aggregate import sigma_outliers

    return sigma_outliers(
        _events(sf_dir, ["event_id", "event_type", "value"]),
        key_col="event_type",
        id_col="event_id",
        value_col="value",
    )


#: join-sample size + MINSTD seed (shared by the Ray query and the
#: generated oracle)
JOIN_SAMPLE_K = 60
JOIN_SAMPLE_SEED = 20240801


def q_join_sample(sf_dir: str):
    """Sampling over joins without the join (EDBT-2023-style): 60
    deterministic tuples of the events⋈orders-on-user/custkey virtual
    result (~96k tuples at sf0.01), drawn from the factorized nL·nR index
    space — only per-key counts and the ≤k sampled rows ever move; the
    join itself never materializes in either engine's Ray path."""
    from ..stages.joins import join_sample

    import ray.data

    orders = ray.data.read_parquet(
        os.path.join(sf_dir, "orders.parquet"),
        columns=["o_custkey", "o_orderkey"],
    )
    return join_sample(
        _events(sf_dir, ["user_id", "event_id"]),
        orders,
        left_key="user_id", right_key="o_custkey",
        left_id="event_id", right_id="o_orderkey",
        k=JOIN_SAMPLE_K, seed=JOIN_SAMPLE_SEED,
    )


#: SEQ pattern for event trend aggregation — shared by the Ray query and
#: the generated oracle
TREND_PATTERN = ["view", "click", "purchase"]


def q_event_trends(sf_dir: str):
    """Event trend aggregation (SIGMOD 2019 aggregation-pushdown): the
    per-user count of ALL view→click→purchase subsequences under
    skip-till-any-match semantics — every interleaving, not the funnel's
    single first-touch chain — computed as len(pattern) segmented
    cumsum passes instead of trend enumeration."""
    from ..stages.windows import event_trend_counts

    return event_trend_counts(
        _events(sf_dir, ["user_id", "ts", "event_id", "event_type"]),
        TREND_PATTERN,
    )


#: accented labels for the i18n roundtrip (every Unicode mark category is
#: load-bearing: Latin Mn, Vietnamese stacked marks, Devanagari Mc,
#: enclosing Me, katakana voicing) — shared by the Ray query and the
#: generated oracle
I18N_LABELS = {
    "click": "cliqué-à⃐",
    "view": "vuệ-कि",
    "purchase": "Dvořák-ド",
    "signup": "señal-Ångström",
    "error": "naïve-Ñoño",
}


def q_transliterated_labels(sf_dir: str):
    """i18n filter (logstash-filter-i18n transliterate): event types mapped
    to accented labels spanning all three Unicode mark categories, then
    accent-stripped by the NFD+\\p{M} kernel and counted by the STRIPPED
    label plus a changed-rows count — any strip divergence from DuckDB's
    strip_accents breaks the hash."""
    import pyarrow.compute as pc

    from ..stages.aggregate import tree_sum
    from ..stages.logfilters import make_translate, transliterate_array

    ev = _events(sf_dir, ["event_type"])
    label = make_translate(I18N_LABELS, "event_type", "label")

    def strip_stats(batch: pa.Table) -> pa.Table:
        t = label(batch)
        stripped = transliterate_array(t["label"])
        keyed = pa.table(
            {
                "label_ascii": stripped,
                "changed": pc.cast(
                    pc.not_equal(stripped, t["label"]), pa.int64()
                ),
            }
        )
        g = keyed.group_by(["label_ascii"]).aggregate(
            [([], "count_all"), ("changed", "sum")]
        )
        return g.rename_columns(["label_ascii", "n", "n_changed"])

    parts = ev.map_batches(strip_stats, batch_format="pyarrow")
    return tree_sum(parts, ["label_ascii"], ["n", "n_changed"],
                    sort_result=True)


#: temperature-mix target sample size (shared by the Ray query and its
#: generated oracle)
TEMP_MIX_TOTAL = 100


def q_temperature_mix(sf_dir: str):
    """Temperature-based corpus mixing (mT5/XLM-R recipe, alpha = 1/2):
    per-language sample quotas follow the exact-integer n^(1/2)-flattened
    shares with largest-remainder allocation, rows selected by md5 rank
    within language — English's share drops toward the flattened mix while
    small languages are boosted, all in integer arithmetic the SQL window
    oracle reproduces bit-for-bit."""
    from ..stages.packing import temperature_mix

    return temperature_mix(
        _docs(sf_dir, ["doc_id", "lang"]),
        stratum_col="lang", id_col="doc_id",
        target_total=TEMP_MIX_TOTAL, alpha_num=1, alpha_den=2,
    )


#: note suffix for the XML roundtrip — contains raw &, quotes and a tag so
#: the escape/unescape path is load-bearing on every row; shared by the Ray
#: renderer and the generated oracle
XML_NOTE_SUFFIX = ' & "co" <tag>'


def q_xml_order_stats(sf_dir: str):
    """XML filter (logstash-filter-xml): orders rendered to XML documents
    (note text carries raw ``&``/``<``/``>`` so escaping is exercised on
    every row), parsed back by the batch-envelope ElementTree stage —
    one C parse call per batch — and aggregated from the PARSED columns
    (attribute + three element extracts). The oracle aggregates the
    source table directly, so any parse or escape loss breaks the hash."""
    import pyarrow.compute as pc
    import ray.data

    from ..stages.aggregate import tree_sum
    from ..stages.logfilters import make_xml_parse, xml_escape_array

    orders = ray.data.read_parquet(
        os.path.join(sf_dir, "orders.parquet"),
        columns=["o_orderkey", "o_orderstatus", "o_totalprice",
                 "o_orderpriority"],
    )
    parse = make_xml_parse(
        "doc", {"key": "@id", "status": "st", "note": "note", "cents": "c"}
    )

    def roundtrip(batch: pa.Table) -> pa.Table:
        note = xml_escape_array(
            pc.binary_join_element_wise(
                batch["o_orderpriority"], XML_NOTE_SUFFIX, ""
            )
        )
        cents = pc.cast(
            pc.round(pc.multiply(batch["o_totalprice"], 100.0)), pa.int64()
        )
        doc = pc.binary_join_element_wise(
            '<o id="', pc.cast(batch["o_orderkey"], pa.string()),
            '"><st>', batch["o_orderstatus"],
            "</st><note>", note,
            "</note><c>", pc.cast(cents, pa.string()),
            "</c></o>", "",
        )
        t = parse(pa.table({"doc": doc}))
        keyed = pa.table(
            {
                "status": t["status"],
                "cents": pc.cast(t["cents"], pa.int64()),
                # length of the UNESCAPED text — proves entities decoded
                "note_chars": pc.cast(pc.utf8_length(t["note"]), pa.int64()),
                # attribute path: sum of parsed ids pins @id extraction
                "key_sum": pc.cast(t["key"], pa.int64()),
            }
        )
        g = keyed.group_by(["status"]).aggregate(
            [([], "count_all"), ("cents", "sum"), ("note_chars", "sum"),
             ("key_sum", "sum")]
        )
        return g.rename_columns(["status", "n", "cents", "note_chars",
                                 "key_sum"])

    parts = orders.map_batches(roundtrip, batch_format="pyarrow")
    return tree_sum(
        parts, ["status"], ["n", "cents", "note_chars", "key_sum"],
        sort_result=True,
    )


#: aggregate-filter task timeout (µs) — shared by the Ray query and its
#: generated oracle so the two cannot drift
AGG_TIMEOUT_US = 172_800_000_000  # 2 days


def q_aggregated_tasks(sf_dir: str):
    """Aggregate filter (logstash-filter-aggregate): per user task, the
    first signup opens the map, the first purchase within 2 days closes it
    (status ``completed``) or the map expires (``timeout`` — both branches
    occur in the testdata at this horizon); n_events + milli value sum
    over every event inside the task window. Timeout rows carry the
    operator's null t1 as the repo's -1 sentinel so the stringified
    compare is null-free (url_dedup_spectrum precedent)."""
    import pyarrow.compute as _pc

    from ..stages.logfilters import aggregate_tasks

    ev = _events(sf_dir, ["user_id", "ts", "event_type", "value"])
    out = aggregate_tasks(
        ev, "user_id", "ts", "event_type",
        start_type="signup", end_type="purchase",
        value_col="value", timeout_us=AGG_TIMEOUT_US,
    )

    def sentinel(batch: pa.Table) -> pa.Table:
        t1 = _pc.fill_null(_pc.cast(batch["t1"], pa.int64()), -1)
        return batch.set_column(batch.schema.get_field_index("t1"), "t1", t1)

    # re-sort: the sentinel map runs after the operator's sort and block
    # order is not otherwise guaranteed (preserve_order is off)
    return out.map_batches(sentinel, batch_format="pyarrow").sort("user_id")


def q_dsir_selected(sf_dir: str):
    """DSIR-style importance selection (deterministic top-k variant): each
    document scores the integer sum of broadcast per-word milli log-ratio
    weights over its lowercased whitespace words; the 20 highest-scoring
    docs per language survive (score desc, doc_id asc tie-break). The
    weight table is the small side and rides the task closure; only
    (lang, doc_id, score) partial top-k rows shuffle — never the corpus."""
    from ..stages.textops import dsir_select

    return dsir_select(_docs(sf_dir, ["doc_id", "text", "lang"]))


DATA_QUERIES: Dict[str, Callable[[str], Any]] = {
    "latest_events": q_latest_events,
    "active_customers": q_active_customers,
    "label_centroids": q_label_centroids,
    "segment_activity": q_segment_activity,
    "window_distinct_users": q_window_distinct_users,
    "lang_centroids": q_lang_centroids,
    "customer_order_profile": q_customer_order_profile,
    "events_last_order": q_events_last_order,
    "user_reconciliation": q_user_reconciliation,
    "bpe_merges": q_bpe_merges,
    "bpe_token_counts": q_bpe_token_counts,
    "retention_cohorts": q_retention_cohorts,
    "above_avg_orders": q_above_avg_orders,
    "priority_rollup": q_priority_rollup,
    "priority_cube": q_priority_cube,
    "quartile_stats": q_quartile_stats,
    "click_attribution": q_click_attribution,
    "promo_revenue": q_promo_revenue,
    "supplier_revenue": q_supplier_revenue,
    "part_supplier_counts": q_part_supplier_counts,
    "weighted_sample": q_weighted_sample,
    "lineitem_measures": q_lineitem_measures,
    "zorder_layout": q_zorder_layout,
    "event_cooccurrence": q_event_cooccurrence,
    "balanced_shards": q_balanced_shards,
    "big_part_revenue": q_big_part_revenue,
    "high_value_counts": q_high_value_counts,
    "user_type_profile": q_user_type_profile,
    "translated_tiers": q_translated_tiers,
    "throttled_counts": q_throttled_counts,
    "json_field_stats": q_json_field_stats,
    "csv_roundtrip_stats": q_csv_roundtrip_stats,
    "zonemap_stats": q_zonemap_stats,
    "orc_roundtrip_stats": q_orc_roundtrip_stats,
    "ipc_roundtrip_stats": q_ipc_roundtrip_stats,
    "value_decile_bins": q_value_decile_bins,
    "pii_inventory": q_pii_inventory,
    "model_scores": q_model_scores,
    "elapsed_times": q_elapsed_times,
    "compression_quality": q_compression_quality,
    "running_totals": q_running_totals,
    "value_ranks": q_value_ranks,
    "user_top_event": q_user_top_event,
    "value_percent_ranks": q_value_percent_ranks,
    "value_outliers": q_value_outliers,
    "user_triangles": q_user_triangles,
    "user_communities": q_user_communities,
    "bfs_levels": q_bfs_levels,
    "kcore_members": q_kcore_members,
    "table_row_counts": q_table_row_counts,
    "events_profile": q_events_profile,
    "edit_distance_pairs": q_edit_distance_pairs,
    "cust_order_distribution": q_cust_order_distribution,
    "late_events": q_late_events,
    "activity_islands": q_activity_islands,
    "key_skew": q_key_skew,
    "curated_chunks": q_curated_chunks,
    "dataset_splits": q_dataset_splits,
    "quantized_embeddings": q_quantized_embeddings,
    "order_skyline": q_order_skyline,
    "cdc_merged_state": q_cdc_merged_state,
    "event_pairs_within": q_event_pairs_within,
    "resampled_series": q_resampled_series,
    "winsorized_values": q_winsorized_values,
    "value_trend": q_value_trend,
    "knn_labels": q_knn_labels,
    "trending_types": q_trending_types,
    "funnel_conversion": q_funnel_conversion,
    "props_k_stats": q_props_k_stats,
    "type_transitions": q_type_transitions,
    "stopword_filter": q_stopword_filter,
    "event_deltas": q_event_deltas,
    "twap_values": q_twap_values,
    "event_fingerprints": q_event_fingerprints,
    "scd2_intervals": q_scd2_intervals,
    "state_at_cutoff": q_state_at_cutoff,
    "value_drift_bins": q_value_drift_bins,
    "rolling_windows": q_rolling_windows,
    "hourly_pivot": q_hourly_pivot,
    "pricing_summary": q_pricing_summary,
    "revenue_rollup": q_revenue_rollup,
    "shipping_priority": q_shipping_priority,
    "late_priority_counts": q_late_priority_counts,
    "ohlc_bars": q_ohlc_bars,
    "value_hour_corr": q_value_hour_corr,
    "bm25_topk": q_bm25_topk,
    "word_rarity": q_word_rarity,
    "novelty_scores": q_novelty_scores,
    "bpe_pairs": q_bpe_pairs,
    "customers_without_events": q_customers_without_events,
    "dedup_exact": q_dedup_exact,
    "dedup_ratio_report": q_dedup_ratio_report,
    "doc_stats": q_doc_stats,
    "doc_analysis": q_doc_analysis,
    "lang_stats": q_lang_stats,
    "masked_docs": q_masked_docs,
    "vocab_top": q_vocab_top,
    "contaminated_docs": q_contaminated_docs,
    "quality_filter": q_quality_filter,
    "repetition_filter": q_repetition_filter,
    "simhash_pairs": q_simhash_pairs,
    "bloom_dedup": q_bloom_dedup,
    "dedup_incremental_minhash": q_dedup_incremental_minhash,
    "dedup_incremental_minhash_indexed": q_dedup_incremental_minhash_indexed,
    "corpus_refresh": q_corpus_refresh,
    "rag_chunks": q_rag_chunks,
    "freq_spectrum": q_freq_spectrum,
    "dup_ngram_spans": q_dup_ngram_spans,
    "dup_spans": q_dup_spans,
    "substring_dup_docs": q_substring_dup_docs,
    "substring_dedup_cleaned": q_substring_dedup_cleaned,
    "dup_spans_incremental": q_dup_spans_incremental,
    "shared_paragraphs": q_shared_paragraphs,
    "dedup_paragraphs": q_dedup_paragraphs,
    "url_dedup_spectrum": q_url_dedup_spectrum,
    "dsir_selected": q_dsir_selected,
    "aggregated_tasks": q_aggregated_tasks,
    "xml_order_stats": q_xml_order_stats,
    "temperature_mix": q_temperature_mix,
    "transliterated_labels": q_transliterated_labels,
    "event_trends": q_event_trends,
    "join_sample": q_join_sample,
    "resized_media": q_resized_media,
    "quality_top_decile": q_quality_top_decile,
    "media_features": q_media_features,
    "video_frames": q_video_frames,
    "inverted_index": q_inverted_index,
    "epoch_shuffle": q_epoch_shuffle,
    "pack_sequences": q_pack_sequences,
    "mix_sample": q_mix_sample,
    "top_terms": q_top_terms,
    "collocations": q_collocations,
    "lm_scores": q_lm_scores,
    "packed_chunks": q_packed_chunks,
    "jaccard_pairs": q_jaccard_pairs,
    "containment_pairs": q_containment_pairs,
    "ppjoin_pairs": q_ppjoin_pairs,
    "ngram_jaccard": q_ngram_jaccard,
    "dup_clusters": q_dup_clusters,
    "cluster_canonicals": q_cluster_canonicals,
    "dedup_filtered_docs": q_dedup_filtered_docs,
    "dedup_filtered_docs_minhash": q_dedup_filtered_docs_minhash,
    "sink_counts_custom_db": q_sink_counts_custom_db,
    "approx_distinct_users": q_approx_distinct_users,
    "dedup_minhash": q_dedup_minhash,
    "dedup_simhash": q_dedup_simhash,
    "dedup_embedding": q_dedup_embedding,
    "embedding_gram": q_embedding_gram,
    "pca_components": q_pca_components,
    "dedup_filtered_embeddings": q_dedup_filtered_embeddings,
    "dedup_semantic_clustered": q_dedup_semantic_clustered,
    "dedup_semantic_clustered_sampled": q_dedup_semantic_clustered_sampled,
    "ann_topk": q_ann_topk,
    "ann_lsh": q_ann_lsh,
    "ann_ivf": q_ann_ivf,
    "ann_pq": q_ann_pq,
    "ann_ivfpq_indexed": q_ann_ivfpq_indexed,
    "ann_ivf_indexed": q_ann_ivf_indexed,
    "ann_ivf_indexed_fullprobe": q_ann_ivf_indexed_fullprobe,
    "ann_filtered": q_ann_filtered,
    "hard_negatives": q_hard_negatives,
    "customers_per_region": q_customers_per_region,
    "orders_per_nation": q_orders_per_nation,
    "pagerank_nodes": q_pagerank_nodes,
    "top_docs_per_lang": q_top_docs_per_lang,
    "embedding_clusters": q_embedding_clusters,
    "coreset_select": q_coreset_select,
    "top_users": q_top_users,
    "distinct_event_types": q_distinct_event_types,
    "sample_events": q_sample_events,
    "sample_stratified": q_sample_stratified,
    "tumbling_windows": q_tumbling_windows,
    "hopping_windows": q_hopping_windows,
    "asof_last_signup": q_asof_last_signup,
    "value_quantiles": q_value_quantiles,
    "sessions": q_sessions,
    "exact_distinct_users": q_exact_distinct_users,
    "exact_value_quantiles": q_exact_value_quantiles,
    "conv_stats": q_conv_stats,
}

#: SQL-side whitespace trim matching Arrow's utf8_trim_whitespace: DuckDB's
#: bare trim() strips SPACES only, so tab/newline-padded text would tokenize
#: differently in the two engines (phantom empty edge tokens, diverging
#: token counts / doc-inclusion predicates).
_WS = "' ' || chr(9) || chr(10) || chr(13) || chr(11) || chr(12)"
_TRIMMED = f"trim(text, {_WS})"
_TOKENS = rf"regexp_split_to_array({_TRIMMED}, '\s+')"
_TOKEN_COUNT = f"CASE WHEN {_TRIMMED} = '' THEN 0 ELSE len({_TOKENS}) END"

#: BM25 oracle shares the exact integer formula with stages/textops.bm25_topk
_BM25_TERMS_SQL = "('hash', 'join', 'vector', 'slow')"

def _morton_terms(bits: int) -> str:
    """Bit-interleave (Morton) key spelled out as BIGINT shift/mask terms —
    generated so the SQL stays in lockstep with ``packing.morton_key``."""
    return " + ".join(
        "(((x >> %d) & 1) << %d) + (((y >> %d) & 1) << %d)"
        % (i, 2 * i, i, 2 * i + 1)
        for i in range(bits)
    )


def _zorder_oracle_sql(bits: int = 16) -> str:
    terms = _morton_terms(bits)
    return """
WITH v AS (
  SELECT event_id,
         user_id %% 65536 AS x,
         CAST(floor(value * 1000) AS BIGINT) %% 65536 AS y
  FROM events
)
SELECT event_id, CAST(%s AS BIGINT) AS z
FROM v ORDER BY z, event_id
""" % terms


DATA_ORACLES: Dict[str, str] = {
    # embedding_gram: the same floor(v·1000) quantization as the Ray kernel;
    # SUM over BIGINT products is HUGEINT in DuckDB and pandas renders
    # HUGEINT as float ("123.0" ≠ "123" under the stringified compare), so
    # the final CAST back to BIGINT is part of the contract
    "embedding_gram": """
WITH e AS (
  SELECT vec_id, UNNEST(embedding) AS v,
         generate_subscripts(embedding, 1) AS idx
  FROM embeddings
), q AS (
  SELECT vec_id, idx - 1 AS i,
         CAST(floor(CAST(v AS DOUBLE) * 1000) AS BIGINT) AS qv
  FROM e
)
SELECT a.i AS i, b.i AS j, CAST(SUM(a.qv * b.qv) AS BIGINT) AS g
FROM q a JOIN q b ON a.vec_id = b.vec_id
GROUP BY a.i, b.i
ORDER BY i, j
""",
    "label_centroids": """
SELECT CAST(label AS BIGINT) AS label, CAST(i - 1 AS BIGINT) AS dim,
       CAST(sum(CAST(floor(v * 1000) AS BIGINT)) AS BIGINT) AS sum_milli,
       CAST(count(*) AS BIGINT) AS n
FROM (SELECT label, generate_subscripts(embedding, 1) AS i,
             unnest(embedding) AS v
      FROM embeddings)
GROUP BY 1, 2 ORDER BY 1, 2
""",
    "events_last_order": """
SELECT e.event_id,
       (SELECT CAST(epoch_us(max(o.o_orderdate)) AS BIGINT) FROM orders o
         WHERE o.o_custkey = e.user_id
           AND epoch_us(o.o_orderdate) <= epoch_us(e.ts)) AS matched_t
FROM events e ORDER BY 1
""",
    "user_reconciliation": """
SELECT status, CAST(count(*) AS BIGINT) AS n FROM (
  SELECT CASE WHEN e.user_id IS NULL THEN 'customer_only'
              WHEN c.c_custkey IS NULL THEN 'events_only'
              ELSE 'both' END AS status
  FROM (SELECT DISTINCT user_id FROM events) e
  FULL OUTER JOIN customer c ON c.c_custkey = e.user_id)
GROUP BY 1 ORDER BY 1
""",
    "customer_order_profile": """
SELECT c_mktsegment,
       CAST(count(*) AS BIGINT) AS n_customers,
       CAST(sum(COALESCE(oc.n_ord, 0)) AS BIGINT) AS n_orders,
       CAST(sum(CASE WHEN oc.n_ord IS NULL THEN 1 ELSE 0 END) AS BIGINT)
         AS n_inactive
FROM customer c
LEFT JOIN (SELECT o_custkey, CAST(count(*) AS BIGINT) AS n_ord
           FROM orders GROUP BY 1) oc ON oc.o_custkey = c.c_custkey
GROUP BY 1 ORDER BY 1
""",
    "window_distinct_users": """
SELECT event_type,
       CAST((epoch_us(ts) // 3600000000) * 3600000000 AS BIGINT) AS window_us,
       CAST(count(DISTINCT user_id) AS BIGINT) AS n_users
FROM events GROUP BY 1, 2 ORDER BY 1, 2
""",
    "lang_centroids": """
SELECT lang, CAST(i - 1 AS BIGINT) AS dim,
       CAST(sum(CAST(floor(v * 1000) AS BIGINT)) AS BIGINT) AS sum_milli,
       CAST(count(*) AS BIGINT) AS n
FROM (SELECT d.lang, generate_subscripts(e.embedding, 1) AS i,
             unnest(e.embedding) AS v
      FROM embeddings e JOIN documents d ON d.doc_id = e.vec_id)
GROUP BY 1, 2 ORDER BY 1, 2
""",
    "segment_activity": """
SELECT c_mktsegment, CAST(count(*) AS BIGINT) AS n,
       CAST(sum(CAST(floor(e.value * 1000) AS BIGINT)) AS BIGINT)
         AS sum_v_milli
FROM events e JOIN customer c ON c.c_custkey = e.user_id
GROUP BY 1 ORDER BY 1
""",
    "retention_cohorts": """
SELECT event_type, cohort, CAST(count(*) AS BIGINT) AS n FROM (
  SELECT user_id, event_type,
    CASE WHEN max(CASE WHEN ts < TIMESTAMP '2024-01-29' THEN 1 ELSE 0 END) = 1
          AND max(CASE WHEN ts >= TIMESTAMP '2024-01-29' THEN 1 ELSE 0 END) = 1
         THEN 'retained'
         WHEN max(CASE WHEN ts < TIMESTAMP '2024-01-29' THEN 1 ELSE 0 END) = 1
         THEN 'churned' ELSE 'new' END AS cohort
  FROM events GROUP BY 1, 2)
GROUP BY 1, 2 ORDER BY 1, 2
""",
    "above_avg_orders": """
WITH ca AS (
  SELECT o_custkey AS k, CAST(count(*) AS BIGINT) AS c,
         CAST(sum(CAST(floor(o_totalprice * 1000) AS BIGINT)) AS BIGINT) AS s
  FROM orders GROUP BY 1)
SELECT o_orderpriority, CAST(count(*) AS BIGINT) AS n,
       CAST(sum(CAST(floor(o_totalprice * 1000) AS BIGINT)) AS BIGINT)
         AS sum_price_milli
FROM orders JOIN ca ON o_custkey = ca.k
WHERE CAST(floor(o_totalprice * 1000) AS BIGINT) * ca.c > ca.s
GROUP BY 1 ORDER BY 1
""",
    "priority_rollup": """
SELECT COALESCE(o_orderpriority, 'ALL') AS pri,
       COALESCE(o_orderstatus, 'ALL') AS status,
       CAST(count(*) AS BIGINT) AS n,
       CAST(sum(CAST(floor(o_totalprice * 1000) AS BIGINT)) AS BIGINT)
         AS sum_price_milli
FROM orders GROUP BY ROLLUP(o_orderpriority, o_orderstatus) ORDER BY 1, 2
""",
    "priority_cube": """
SELECT COALESCE(o_orderpriority, 'ALL') AS pri,
       COALESCE(o_orderstatus, 'ALL') AS status,
       CAST(count(*) AS BIGINT) AS n,
       CAST(sum(CAST(floor(o_totalprice * 1000) AS BIGINT)) AS BIGINT)
         AS sum_price_milli
FROM orders GROUP BY CUBE(o_orderpriority, o_orderstatus) ORDER BY 1, 2
""",
    "quartile_stats": """
SELECT event_type, CAST(tile AS BIGINT) AS tile, CAST(count(*) AS BIGINT) AS n,
       CAST(sum(v_milli) AS BIGINT) AS sum_v_milli FROM (
  SELECT event_type,
         NTILE(4) OVER (PARTITION BY event_type ORDER BY value, event_id) AS tile,
         CAST(floor(value * 1000) AS BIGINT) AS v_milli
  FROM events)
GROUP BY 1, 2 ORDER BY 1, 2
""",
    "click_attribution": """
SELECT p.event_id, CAST(count(c.user_id) AS BIGINT) AS n_clicks
FROM events p LEFT JOIN events c
  ON c.user_id = p.user_id AND c.event_type = 'click'
 AND epoch_us(c.ts) BETWEEN epoch_us(p.ts) - 86400000000 AND epoch_us(p.ts)
WHERE p.event_type = 'purchase'
GROUP BY 1 ORDER BY 1
""",
    "active_customers": """
SELECT c_mktsegment, CAST(count(*) AS BIGINT) AS n
FROM customer c
WHERE EXISTS (SELECT 1 FROM events e WHERE e.user_id = c.c_custkey)
GROUP BY 1 ORDER BY 1
""",
    "promo_revenue": """
SELECT p_type,
       CAST(sum(CAST(floor(l_extendedprice * 1000) AS BIGINT)
                * (1000 - CAST(floor(l_discount * 1000) AS BIGINT))) AS BIGINT)
         AS rev_micro,
       CAST(count(*) AS BIGINT) AS n_items
FROM lineitem JOIN part ON l_partkey = p_partkey
GROUP BY 1 ORDER BY 1
""",
    "supplier_revenue": """
SELECT s_suppkey, s_name,
       CAST(sum(CAST(floor(l_extendedprice * 1000) AS BIGINT)
                * (1000 - CAST(floor(l_discount * 1000) AS BIGINT))) AS BIGINT)
         AS rev_micro,
       CAST(count(*) AS BIGINT) AS n_items
FROM lineitem JOIN supplier ON l_suppkey = s_suppkey
GROUP BY 1, 2 ORDER BY rev_micro DESC, s_suppkey LIMIT 10
""",
    "part_supplier_counts": """
SELECT p_brand, p_type, p_size,
       CAST(count(DISTINCT l_suppkey) AS BIGINT) AS supplier_cnt
FROM lineitem JOIN part ON l_partkey = p_partkey
WHERE p_type NOT LIKE 'PROMO%'
  AND l_suppkey NOT IN (SELECT s_suppkey FROM supplier WHERE s_acctbal < 0)
GROUP BY 1, 2, 3 ORDER BY 1, 2, 3
""",
    "weighted_sample": """
WITH w AS (
  SELECT event_id, event_type,
         CAST(floor(value * 1000) AS BIGINT) + 1 AS w
  FROM events
)
SELECT event_id, w, event_type,
       CAST(((((event_id % 2147483647) * 48271) % 2147483647) * 48271)
            % 2147483647 // w AS BIGINT) AS priority
FROM w ORDER BY priority, event_id LIMIT 100
""",
    "event_cooccurrence": """
WITH d AS (SELECT DISTINCT user_id, event_type FROM events)
SELECT a.event_type AS type_a, b.event_type AS type_b,
       CAST(count(*) AS BIGINT) AS n_users
FROM d a JOIN d b ON a.user_id = b.user_id
                 AND a.event_type < b.event_type
GROUP BY 1, 2 ORDER BY 1, 2
""",
    "big_part_revenue": """
SELECT p_brand,
       CAST(sum(CAST(floor(l_extendedprice * 1000) AS BIGINT)
                * (1000 - CAST(floor(l_discount * 1000) AS BIGINT))) AS BIGINT)
         AS rev_micro,
       CAST(count(*) AS BIGINT) AS n_items
FROM lineitem JOIN part ON l_partkey = p_partkey
WHERE p_size > 40
GROUP BY 1 ORDER BY 1
""",
    "high_value_counts": """
SELECT event_type, CAST(count(*) AS BIGINT) AS n
FROM events WHERE value > 400 GROUP BY 1 ORDER BY 1
""",
    "user_type_profile": """
WITH d AS (SELECT DISTINCT user_id, event_type FROM events)
SELECT user_id, CAST(count(*) AS BIGINT) AS n_types,
       string_agg(event_type, ',' ORDER BY event_type) AS types
FROM d GROUP BY user_id ORDER BY user_id
""",
    "translated_tiers": """
WITH m AS (
  SELECT CASE event_type
           WHEN 'view' THEN 'engagement'
           WHEN 'click' THEN 'engagement'
           WHEN 'purchase' THEN 'revenue'
           WHEN 'signup' THEN 'acquisition'
           ELSE '_other' END AS tier,
         event_type
  FROM events
)
SELECT tier, CAST(count(*) AS BIGINT) AS n,
       CAST(count(DISTINCT event_type) AS BIGINT) AS n_types
FROM m GROUP BY 1 ORDER BY 1
""",
    "throttled_counts": """
WITH r AS (
  SELECT strftime(CAST(ts AS DATE), '%Y-%m-%d') AS day,
         row_number() OVER (
           PARTITION BY user_id, CAST(ts AS DATE)
           ORDER BY ts, event_id
         ) AS rn
  FROM events
)
SELECT day, rn <= 3 AS allowed, CAST(count(*) AS BIGINT) AS n
FROM r GROUP BY 1, 2 ORDER BY 1, 2
""",
    "elapsed_times": """
WITH st AS (
  SELECT user_id, CAST(min(epoch_us(ts)) AS BIGINT) AS t0
  FROM events WHERE event_type = 'signup' AND user_id IS NOT NULL
  GROUP BY 1
), en AS (
  SELECT user_id, CAST(epoch_us(ts) AS BIGINT) AS t
  FROM events WHERE event_type = 'purchase' AND user_id IS NOT NULL
), m AS (
  SELECT st.user_id, st.t0, CAST(min(en.t) AS BIGINT) AS t1
  FROM st LEFT JOIN en ON en.user_id = st.user_id AND en.t > st.t0
  GROUP BY 1, 2
)
SELECT user_id,
       CASE WHEN t1 IS NULL THEN 'start_without_end' ELSE 'matched' END AS status,
       t0, t1,
       CASE WHEN t1 IS NULL THEN NULL ELSE t1 - t0 END AS elapsed_us
FROM m
UNION ALL
SELECT user_id, 'end_without_start', NULL, CAST(min(t) AS BIGINT), NULL
FROM en WHERE user_id NOT IN (SELECT user_id FROM st)
GROUP BY 1
ORDER BY user_id
""",
    "json_field_stats": """
SELECT event_type, CAST(count(*) AS BIGINT) AS n,
       CAST(sum(CAST(json_extract(props, '$.k') AS BIGINT)) AS BIGINT) AS sum_k,
       CAST(min(CAST(json_extract(props, '$.k') AS BIGINT)) AS BIGINT) AS min_k,
       CAST(max(CAST(json_extract(props, '$.k') AS BIGINT)) AS BIGINT) AS max_k
FROM events GROUP BY 1 ORDER BY 1
""",
    "csv_roundtrip_stats": """
SELECT o_orderstatus AS status, CAST(count(*) AS BIGINT) AS n,
       CAST(sum(CAST(round(o_totalprice * 100) AS BIGINT)) AS BIGINT) AS cents,
       CAST(sum(length('priority, "note": ' || o_orderpriority)) AS BIGINT) AS note_chars
FROM orders GROUP BY 1 ORDER BY 1
""",
    "orc_roundtrip_stats": """
SELECT event_type, CAST(sum(CAST(floor(value * 1000) AS BIGINT)) AS BIGINT)
         AS value_milli,
       CAST(count(*) AS BIGINT) AS n
FROM events GROUP BY 1 ORDER BY 1
""",
    "zonemap_stats": f"""
WITH b AS (
  SELECT max(user_id) AS mx,
         CAST(floor(max(value) * 1000) AS BIGINT) AS my
  FROM events
), v AS (
  SELECT (user_id * {1 << _ZM_BITS}) // (b.mx + 1) AS x,
         (CAST(floor(value * 1000) AS BIGINT) * {1 << _ZM_BITS}) // (b.my + 1) AS y
  FROM events, b
), z AS (
  SELECT x, y, (CAST({_morton_terms(_ZM_BITS)} AS BIGINT) >> {_ZM_SHIFT}) AS chunk
  FROM v
)
SELECT chunk, CAST(count(*) AS BIGINT) AS n,
       CAST(min(x) AS BIGINT) AS min_x, CAST(max(x) AS BIGINT) AS max_x,
       CAST(min(y) AS BIGINT) AS min_y, CAST(max(y) AS BIGINT) AS max_y,
       (max(x) >= {_ZM_X_RANGE[0]} AND min(x) <= {_ZM_X_RANGE[1]}) AS scan_x,
       (max(y) >= {_ZM_Y_RANGE[0]} AND min(y) <= {_ZM_Y_RANGE[1]}) AS scan_y
FROM z GROUP BY 1 ORDER BY 1
""",
    "balanced_shards": """
WITH r AS (
  SELECT doc_id, n_chars,
         row_number() OVER (ORDER BY n_chars DESC, doc_id) - 1 AS rnk
  FROM documents
)
SELECT doc_id, n_chars, CAST(rnk AS BIGINT) AS rnk,
       CAST(CASE WHEN (rnk // 16) % 2 = 0 THEN rnk % 16
                 ELSE 15 - (rnk % 16) END AS BIGINT) AS shard
FROM r ORDER BY doc_id
""",
    "lineitem_measures": """
WITH m AS (
  SELECT l_orderkey, l_linenumber,
         CAST(floor(l_quantity * 1000) AS BIGINT) AS quantity,
         CAST(floor(l_extendedprice * 1000) AS BIGINT) AS extendedprice,
         CAST(floor(l_discount * 1000) AS BIGINT) AS discount
  FROM lineitem
)
SELECT l_orderkey, l_linenumber, measure, value_milli FROM (
  SELECT l_orderkey, l_linenumber, 'quantity' AS measure,
         quantity AS value_milli FROM m
  UNION ALL SELECT l_orderkey, l_linenumber, 'extendedprice', extendedprice
  FROM m
  UNION ALL SELECT l_orderkey, l_linenumber, 'discount', discount FROM m
) ORDER BY l_orderkey, l_linenumber, measure
""",
    "running_totals": """
SELECT event_id,
       CAST(count(*) OVER win AS BIGINT) AS run_n,
       CAST(sum(CAST(floor(value * 1000) AS BIGINT)) OVER win AS BIGINT)
         AS run_v_milli
FROM events
WINDOW win AS (PARTITION BY user_id ORDER BY ts, event_id
               ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW)
ORDER BY event_id
""",
    "value_ranks": """
SELECT event_id,
       CAST(floor(value * 1000) AS BIGINT) AS value_milli,
       CAST(dense_rank() OVER (
         PARTITION BY event_type
         ORDER BY CAST(floor(value * 1000) AS BIGINT) DESC) AS BIGINT) AS rnk
FROM events ORDER BY event_id
""",
    "user_top_event": """
SELECT user_id, event_type AS mode_type, n FROM (
  SELECT user_id, event_type, CAST(count(*) AS BIGINT) AS n,
         row_number() OVER (PARTITION BY user_id
                            ORDER BY count(*) DESC, event_type) AS rn
  FROM events GROUP BY user_id, event_type
) WHERE rn = 1 ORDER BY user_id
""",
    "value_percent_ranks": """
WITH v AS (
  SELECT event_id, event_type,
         CAST(floor(value * 1000) AS BIGINT) AS x
  FROM events
)
SELECT event_id,
       CAST(rank() OVER (PARTITION BY event_type ORDER BY x) - 1 AS BIGINT)
         AS pr_num,
       CAST(count(*) OVER (PARTITION BY event_type) - 1 AS BIGINT) AS pr_den
FROM v ORDER BY event_id
""",
    "value_outliers": """
WITH v AS (
  SELECT event_id, event_type,
         CAST(floor(value * 1000) AS BIGINT) AS x
  FROM events
), a AS (
  SELECT event_type,
         CAST(count(*) AS HUGEINT) AS n,
         CAST(sum(x) AS HUGEINT) AS s,
         sum(CAST(x AS HUGEINT) * x) AS q
  FROM v GROUP BY event_type
)
SELECT event_id, v.event_type, x AS value_milli
FROM v JOIN a USING (event_type)
WHERE (n * x - s) * (n * x - s) > 9 * (n * q - s * s)
ORDER BY event_id
""",
    "events_profile": _profile_oracle_sql(),
    "zorder_layout": _zorder_oracle_sql(),
    "table_row_counts": """
SELECT * FROM (
  SELECT 'customer' AS tbl, CAST(count(*) AS BIGINT) AS n_rows FROM customer
  UNION ALL SELECT 'documents', count(*) FROM documents
  UNION ALL SELECT 'embeddings', count(*) FROM embeddings
  UNION ALL SELECT 'events', count(*) FROM events
  UNION ALL SELECT 'lineitem', count(*) FROM lineitem
  UNION ALL SELECT 'nation', count(*) FROM nation
  UNION ALL SELECT 'orders', count(*) FROM orders
  UNION ALL SELECT 'part', count(*) FROM part
  UNION ALL SELECT 'region', count(*) FROM region
  UNION ALL SELECT 'supplier', count(*) FROM supplier
) ORDER BY tbl
""",
    "user_communities": """
WITH RECURSIVE occ AS (
  SELECT DISTINCT event_type,
         CAST(epoch_us(ts) // 3600000000 AS BIGINT) AS hr,
         CAST(json_extract(props, '$.k') AS BIGINT) AS k, user_id
  FROM events
), e AS (
  SELECT DISTINCT o1.user_id AS a, o2.user_id AS b
  FROM occ o1
  JOIN occ o2 ON o1.event_type = o2.event_type AND o1.hr = o2.hr
             AND o1.k = o2.k AND o1.user_id < o2.user_id
), sym AS (
  SELECT a AS u, b AS v FROM e UNION SELECT b, a FROM e
), reach(node, lab) AS (
  SELECT u, u FROM (SELECT DISTINCT u FROM sym)
  UNION
  SELECT r.node, s.v FROM reach r JOIN sym s ON r.lab = s.u
), comp AS (
  SELECT node, min(lab) AS community FROM reach GROUP BY node
)
SELECT node AS user_id, community,
       CAST(count(*) OVER (PARTITION BY community) AS BIGINT)
         AS community_size
FROM comp ORDER BY user_id
""",
    # bfs_levels: recursive min-distance CTE over the SAME symmetrized
    # co-occurrence edges as user_communities; UNION (not UNION ALL)
    # bounds the recursion, min() collapses to hop distance
    "bfs_levels": f"""
WITH RECURSIVE occ AS (
  SELECT DISTINCT event_type,
         CAST(epoch_us(ts) // 3600000000 AS BIGINT) AS hr,
         CAST(json_extract(props, '$.k') AS BIGINT) AS k, user_id
  FROM events
), e AS (
  SELECT DISTINCT o1.user_id AS a, o2.user_id AS b
  FROM occ o1
  JOIN occ o2 ON o1.event_type = o2.event_type AND o1.hr = o2.hr
             AND o1.k = o2.k AND o1.user_id < o2.user_id
), sym AS (
  SELECT a AS u, b AS v FROM e UNION SELECT b, a FROM e
), walk(node, lvl) AS (
  SELECT u, 0 FROM (SELECT DISTINCT u FROM sym) WHERE u % {BFS_SEED_MOD} = 0
  UNION
  -- lvl < 200 bounds the recursion on cycles (UNION dedups exact
  -- (node, lvl) pairs, so a cycle would otherwise mint ever-larger
  -- lvls forever); any real co-occurrence diameter is far below it and
  -- the Ray side RAISES past 64 rounds rather than silently diverging
  SELECT s.v, w.lvl + 1 FROM walk w JOIN sym s ON w.node = s.u
  WHERE w.lvl < 200
)
SELECT node, CAST(min(lvl) AS BIGINT) AS level
FROM walk GROUP BY 1 ORDER BY 1
""",
    "edit_distance_pairs": """
WITH d AS (
  SELECT doc_id, lang, source, substr(text, 1, 64) AS p
  FROM documents WHERE text IS NOT NULL
)
SELECT a.doc_id AS a, b.doc_id AS b,
       CAST(levenshtein(a.p, b.p) AS BIGINT) AS dist
FROM d a JOIN d b ON a.lang = b.lang AND a.source = b.source
                 AND a.doc_id < b.doc_id
WHERE levenshtein(a.p, b.p) <= 40
ORDER BY a, b
""",
    "trending_types": f"""
WITH h AS (
  SELECT event_type, CAST(w AS BIGINT) AS window_id,
         CAST(count(*) AS BIGINT) AS n
  FROM (
    SELECT event_type,
           unnest(range(greatest(epoch_us(ts) // {WINDOW_SEC // 4 * 1_000_000} - 3, 0),
                        epoch_us(ts) // {WINDOW_SEC // 4 * 1_000_000} + 1)) AS w
    FROM events
  ) GROUP BY 1, 2
)
SELECT window_id, n, event_type FROM (
  SELECT *, row_number() OVER (PARTITION BY window_id
                               ORDER BY n DESC, event_type) AS rn
  FROM h
) WHERE rn <= 3 ORDER BY window_id, n DESC, event_type
""",
    "funnel_conversion": f"""
WITH s0 AS (
  SELECT user_id, min(ts) AS t FROM events
  WHERE event_type = 'view' AND user_id IS NOT NULL GROUP BY user_id
), s1 AS (
  SELECT e.user_id, min(e.ts) AS t
  FROM events e JOIN s0 ON e.user_id = s0.user_id
  WHERE e.event_type = 'click' AND e.ts > s0.t
    AND e.ts <= s0.t + INTERVAL {FUNNEL_WITHIN_SEC} SECOND
  GROUP BY e.user_id
), s2 AS (
  SELECT e.user_id, min(e.ts) AS t
  FROM events e JOIN s1 ON e.user_id = s1.user_id
  WHERE e.event_type = 'purchase' AND e.ts > s1.t
    AND e.ts <= s1.t + INTERVAL {FUNNEL_WITHIN_SEC} SECOND
  GROUP BY e.user_id
)
SELECT * FROM (
  SELECT CAST(0 AS BIGINT) AS step, 'view' AS event_type,
         (SELECT CAST(count(*) AS BIGINT) FROM s0) AS users
  UNION ALL
  SELECT CAST(1 AS BIGINT), 'click',
         (SELECT CAST(count(*) AS BIGINT) FROM s1)
  UNION ALL
  SELECT CAST(2 AS BIGINT), 'purchase',
         (SELECT CAST(count(*) AS BIGINT) FROM s2)
) ORDER BY step
""",
    "props_k_stats": """
SELECT event_type, CAST(count(*) AS BIGINT) AS n,
       CAST(sum(k) AS BIGINT) AS sum_k,
       CAST(min(k) AS BIGINT) AS min_k,
       CAST(max(k) AS BIGINT) AS max_k
FROM (
  SELECT event_type, CAST(json_extract(props, '$.k') AS BIGINT) AS k
  FROM events
) GROUP BY event_type ORDER BY event_type
""",
    "knn_labels": """
WITH m AS (
  SELECT vec_id, CAST(label AS BIGINT) AS label,
         list_transform(embedding,
                        x -> CAST(floor(x * 1000) AS BIGINT)) AS v
  FROM embeddings
), r AS (
  SELECT a.vec_id AS q, b.vec_id AS nbr, b.label AS nl,
         row_number() OVER (
           PARTITION BY a.vec_id
           ORDER BY list_dot_product(a.v, b.v) DESC, b.vec_id) AS rn
  FROM m a JOIN m b ON a.vec_id <> b.vec_id
), votes AS (
  SELECT q, nl, CAST(count(*) AS BIGINT) AS c
  FROM r WHERE rn <= 10 GROUP BY q, nl
)
SELECT q AS vec_id, nl AS pred_label, c AS n_votes FROM (
  SELECT *, row_number() OVER (PARTITION BY q
                               ORDER BY c DESC, nl) AS rr
  FROM votes
) WHERE rr = 1 ORDER BY vec_id
""",
    "winsorized_values": """
WITH v AS (
  SELECT event_id, event_type,
         CAST(floor(value * 1000) AS BIGINT) AS x
  FROM events
), q AS (
  SELECT event_type, quantile_disc(x, 0.05) AS lo,
         quantile_disc(x, 0.95) AS hi
  FROM v GROUP BY event_type
)
SELECT event_id, v.event_type,
       LEAST(GREATEST(x, lo), hi) AS x_wins
FROM v JOIN q USING (event_type) ORDER BY event_id
""",
    "value_trend": """
WITH v AS (
  SELECT event_type,
         CAST(epoch_us(ts) - 1600000000000000 AS BIGINT) AS x,
         CAST(floor(value * 1000) AS BIGINT) AS y
  FROM events
), a AS (
  SELECT event_type,
         CAST(count(*) AS HUGEINT) AS n,
         CAST(sum(x) AS HUGEINT) AS sx,
         CAST(sum(y) AS HUGEINT) AS sy,
         sum(CAST(x AS HUGEINT) * y) AS sxy,
         sum(CAST(x AS HUGEINT) * x) AS sxx
  FROM v GROUP BY event_type
)
SELECT event_type, CAST(n AS BIGINT) AS n,
       CAST(n * sxy - sx * sy AS VARCHAR) AS slope_num,
       CAST(n * sxx - sx * sx AS VARCHAR) AS slope_den
FROM a ORDER BY event_type
""",
    "dataset_splits": """
WITH r AS (
  SELECT doc_id, source,
         row_number() OVER (PARTITION BY source
            ORDER BY md5('split:' || CAST(doc_id AS VARCHAR)), doc_id) AS i,
         count(*) OVER (PARTITION BY source) AS n
  FROM documents
)
SELECT doc_id, source,
       CASE WHEN 100 * i <= 80 * n THEN 'train'
            WHEN 100 * i <= 90 * n THEN 'val'
            ELSE 'test' END AS split
FROM r ORDER BY doc_id
""",
    "curated_chunks": f"""
WITH RECURSIVE qw AS (
  SELECT doc_id, lower(unnest({_TOKENS})) AS w
  FROM documents WHERE doc_id % 17 <> 0 AND {_TRIMMED} <> ''
), qf AS (
  SELECT doc_id, w, count(*) AS c FROM qw WHERE w <> '' GROUP BY 1, 2
), qa AS (
  SELECT doc_id, CAST(sum(c) AS BIGINT) AS tt,
         CAST(1000 - (1000 * count(*)) // sum(c) AS BIGINT) AS dm,
         CAST((1000 * max(c)) // sum(c) AS BIGINT) AS tm
  FROM qf GROUP BY 1
), qpass AS (
  SELECT doc_id FROM qa WHERE tt >= 20 AND dm <= 500 AND tm <= 150
), ct AS (
  SELECT doc_id,
         regexp_split_to_array(trim(lower(text), {_WS}), '\\s+') AS ws
  FROM documents WHERE {_TRIMMED} <> ''
), cg AS (
  SELECT doc_id, unnest(CASE WHEN len(ws) >= 4
      THEN list_transform(range(1, len(ws) - 2),
           i -> ws[i] || ' ' || ws[i+1] || ' ' || ws[i+2] || ' ' || ws[i+3])
      ELSE CAST(NULL AS VARCHAR[]) END) AS g
  FROM ct
), cbench AS (
  SELECT DISTINCT g FROM cg WHERE doc_id % 17 = 0
), cflag AS (
  SELECT DISTINCT doc_id FROM cg
  WHERE doc_id % 17 <> 0 AND g IN (SELECT g FROM cbench)
), surv AS (
  SELECT d.doc_id, d.text FROM documents d
  JOIN qpass USING (doc_id)
  WHERE d.doc_id NOT IN (SELECT doc_id FROM cflag)
), toks AS (
  SELECT doc_id, {_TOKENS} AS t FROM surv WHERE {_TRIMMED} <> ''
), grams AS (
  SELECT doc_id,
         unnest(CASE WHEN len(t) < 3 THEN [array_to_string(t, ' ')]
                ELSE list_transform(range(1, len(t) - 1),
                     i -> t[i] || ' ' || t[i+1] || ' ' || t[i+2]) END) AS g
  FROM toks
), sets AS (
  SELECT DISTINCT doc_id, g FROM grams
), counts AS (
  SELECT doc_id, count(*) AS c FROM sets GROUP BY 1
), inter AS (
  SELECT s1.doc_id AS a, s2.doc_id AS b, count(*) AS inter
  FROM sets s1 JOIN sets s2 ON s1.g = s2.g AND s1.doc_id < s2.doc_id
  GROUP BY 1, 2
), pairs AS (
  SELECT a, b FROM inter
  JOIN counts ca ON ca.doc_id = a
  JOIN counts cb ON cb.doc_id = b
  WHERE inter * 2 >= (ca.c + cb.c - inter)
), e AS (
  SELECT a AS s, b AS d FROM pairs UNION SELECT b, a FROM pairs
), walk(node, reach) AS (
  SELECT s, s FROM (SELECT DISTINCT s FROM e)
  UNION
  SELECT w.node, e.d FROM walk w JOIN e ON e.s = w.reach
), clusters AS (
  SELECT node AS doc_id, min(reach) AS cluster_id FROM walk GROUP BY 1
), keep AS (
  SELECT s.doc_id, s.text FROM surv s
  WHERE s.doc_id NOT IN
        (SELECT doc_id FROM clusters WHERE doc_id <> cluster_id)
), pt AS (
  SELECT doc_id, doc_id % 8 AS bucket, {_TOKEN_COUNT} AS tokens FROM keep
), pcs AS (
  SELECT doc_id, bucket, tokens,
         sum(tokens) OVER (PARTITION BY bucket ORDER BY doc_id
                           ROWS UNBOUNDED PRECEDING) - tokens AS start_tok
  FROM pt
)
SELECT doc_id, CAST(bucket AS BIGINT) AS bucket,
       CAST(start_tok AS BIGINT) AS start_tok,
       CAST(start_tok // 256 AS BIGINT) AS chunk_id
FROM pcs ORDER BY doc_id
""",
    "key_skew": """
WITH c AS (
  SELECT user_id, CAST(count(*) AS BIGINT) AS n FROM events GROUP BY user_id
), r AS (
  SELECT n, row_number() OVER (ORDER BY n, user_id) AS i,
         count(*) OVER () AS m
  FROM c
)
SELECT CAST(count(*) AS BIGINT) AS n_keys,
       CAST(sum((2 * CAST(i AS HUGEINT) - m - 1) * n) AS VARCHAR)
         AS gini_num,
       CAST(CAST(count(*) AS HUGEINT) * sum(CAST(n AS HUGEINT)) AS VARCHAR)
         AS gini_den
FROM r
""",
    "activity_islands": """
WITH iv AS (
  SELECT user_id, epoch_us(ts) AS s, epoch_us(ts) + 1800000000 AS e
  FROM events
), o AS (
  SELECT user_id, s, e,
         CASE WHEN s > coalesce(max(e) OVER (PARTITION BY user_id
              ORDER BY s, e ROWS BETWEEN UNBOUNDED PRECEDING
              AND 1 PRECEDING), -1) THEN 1 ELSE 0 END AS new_island
  FROM iv
), isl AS (
  SELECT user_id, s, e,
         sum(new_island) OVER (PARTITION BY user_id ORDER BY s, e
             ROWS UNBOUNDED PRECEDING) AS island
  FROM o
), agg AS (
  SELECT user_id, island, min(s) AS island_start, max(e) AS island_end
  FROM isl GROUP BY user_id, island
)
SELECT user_id, CAST(count(*) AS BIGINT) AS n_islands,
       CAST(sum(island_end - island_start) AS BIGINT) AS covered_us
FROM agg GROUP BY user_id ORDER BY user_id
""",
    "late_events": """
WITH w AS (
  SELECT event_id, user_id, epoch_us(ts) AS ts_us,
         max(epoch_us(ts)) OVER (PARTITION BY user_id
            ORDER BY md5('arr:' || CAST(event_id AS VARCHAR)), event_id
            ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING) AS wm_us
  FROM events
)
SELECT event_id, ts_us, wm_us, wm_us - ts_us AS late_by_us
FROM w WHERE wm_us - ts_us > 1209600000000 ORDER BY event_id
""",
    "quantized_embeddings": """
WITH e AS (
  SELECT vec_id, generate_subscripts(embedding, 1) AS dim,
         CAST(floor(unnest(embedding) * 1000) AS BIGINT) AS x
  FROM embeddings
), mm AS (
  SELECT dim, min(x) AS mn, max(x) AS mx FROM e GROUP BY dim
)
SELECT vec_id, e.dim,
       CAST(CASE WHEN mx = mn THEN 0
            ELSE ((x - mn) * 254) // (mx - mn) END AS BIGINT) AS q
FROM e JOIN mm USING (dim) ORDER BY vec_id, e.dim
""",
    "cust_order_distribution": """
SELECT c_count, CAST(count(*) AS BIGINT) AS n_custs FROM (
  SELECT c_custkey, CAST(count(o_orderkey) AS BIGINT) AS c_count
  FROM customer LEFT JOIN orders ON c_custkey = o_custkey
  GROUP BY c_custkey
) GROUP BY c_count ORDER BY c_count
""",
    "user_triangles": """
WITH occ AS (
  SELECT DISTINCT event_type,
         CAST(epoch_us(ts) // 3600000000 AS BIGINT) AS hr,
         CAST(json_extract(props, '$.k') AS BIGINT) AS k, user_id
  FROM events
), e AS (
  SELECT DISTINCT o1.user_id AS a, o2.user_id AS b
  FROM occ o1
  JOIN occ o2 ON o1.event_type = o2.event_type AND o1.hr = o2.hr
             AND o1.k = o2.k AND o1.user_id < o2.user_id
), tri AS (
  SELECT e1.a AS x, e1.b AS y, e2.b AS z
  FROM e e1
  JOIN e e2 ON e1.b = e2.a
  JOIN e e3 ON e3.a = e1.a AND e3.b = e2.b
)
SELECT node AS user_id, CAST(count(*) AS BIGINT) AS n_tri FROM (
  SELECT x AS node FROM tri
  UNION ALL SELECT y FROM tri
  UNION ALL SELECT z FROM tri
) GROUP BY node ORDER BY node
""",
    "type_transitions": """
WITH s AS (
  SELECT event_type,
         lag(event_type) OVER (PARTITION BY user_id ORDER BY ts, event_id)
           AS prev
  FROM events
)
SELECT prev AS prev_type, event_type AS next_type,
       CAST(count(*) AS BIGINT) AS n
FROM s WHERE prev IS NOT NULL GROUP BY 1, 2 ORDER BY 1, 2
""",
    "stopword_filter": f"""
WITH w AS (
  SELECT doc_id, lower(unnest(regexp_split_to_array({_TRIMMED}, '\\s+'))) AS w
  FROM documents WHERE {_TRIMMED} <> ''
), t AS (
  SELECT doc_id, CAST(count(*) AS BIGINT) AS n_tokens,
         CAST(sum(CASE WHEN w IN ('a','the','and','of','to','in','is')
                       THEN 1 ELSE 0 END) AS BIGINT) AS n_stop
  FROM w WHERE w <> '' GROUP BY 1
)
SELECT doc_id, n_tokens,
       CAST((1000 * n_stop) // n_tokens AS BIGINT) AS stop_milli
FROM t WHERE (1000 * n_stop) // n_tokens BETWEEN 50 AND 400
ORDER BY doc_id
""",
    "latest_events": """
SELECT user_id, event_id, epoch_us(ts) AS ts_us, event_type,
       CAST(floor(value * 1000) AS BIGINT) AS value_milli
FROM (SELECT *, row_number() OVER (
        PARTITION BY user_id ORDER BY ts DESC, event_id DESC) AS rn
      FROM events)
WHERE rn = 1 ORDER BY user_id
""",
    "event_deltas": """
SELECT event_id,
       coalesce(epoch_us(ts) - lag(epoch_us(ts)) OVER (
         PARTITION BY user_id ORDER BY ts, event_id), -1) AS gap_us
FROM events ORDER BY event_id
""",
    "rolling_windows": """
SELECT event_id,
       CAST(count(*) OVER win AS BIGINT) AS n_win,
       CAST(sum(CAST(floor(value * 1000) AS BIGINT)) OVER win AS BIGINT)
         AS v_milli_win
FROM events
WINDOW win AS (PARTITION BY user_id ORDER BY ts
               RANGE BETWEEN INTERVAL 1 HOUR PRECEDING AND CURRENT ROW)
ORDER BY event_id
""",
    "hourly_pivot": """
SELECT CAST((epoch_us(ts) // 3600000000) % 24 AS BIGINT) AS hour,
       CAST(sum(CASE WHEN event_type = 'click' THEN 1 ELSE 0 END) AS BIGINT) AS n_click,
       CAST(sum(CASE WHEN event_type = 'error' THEN 1 ELSE 0 END) AS BIGINT) AS n_error,
       CAST(sum(CASE WHEN event_type = 'purchase' THEN 1 ELSE 0 END) AS BIGINT) AS n_purchase,
       CAST(sum(CASE WHEN event_type = 'signup' THEN 1 ELSE 0 END) AS BIGINT) AS n_signup,
       CAST(sum(CASE WHEN event_type = 'view' THEN 1 ELSE 0 END) AS BIGINT) AS n_view,
       CAST(count(*) AS BIGINT) AS n_total
FROM events GROUP BY 1 ORDER BY 1
""",
    "pricing_summary": """
WITH m AS (
  SELECT l_returnflag, l_linestatus,
         CAST(floor(l_quantity * 1000) AS BIGINT) AS qty_milli,
         CAST(floor(l_extendedprice * 1000) AS BIGINT) AS price_milli,
         CAST(floor(l_discount * 1000) AS BIGINT) AS disc_milli,
         CAST(floor(l_tax * 1000) AS BIGINT) AS tax_milli
  FROM lineitem WHERE l_shipdate <= DATE '1998-09-02'
)
SELECT l_returnflag, l_linestatus,
       CAST(sum(qty_milli) AS BIGINT) AS sum_qty_milli,
       CAST(sum(price_milli) AS BIGINT) AS sum_base_milli,
       CAST(sum((price_milli * (1000 - disc_milli)) // 1000) AS BIGINT) AS sum_disc_milli,
       CAST(sum((price_milli * (1000 - disc_milli) * (1000 + tax_milli)) // 1000000) AS BIGINT) AS sum_charge_milli,
       CAST(count(*) AS BIGINT) AS n
FROM m GROUP BY 1, 2 ORDER BY 1, 2
""",
    "shipping_priority": """
WITH rev AS (
  SELECT l_orderkey,
         CAST(floor(l_extendedprice * 1000) AS BIGINT)
           * (1000 - CAST(floor(l_discount * 1000) AS BIGINT)) AS r
  FROM lineitem WHERE l_shipdate > TIMESTAMP '1998-01-01'
)
SELECT o_orderkey, o_orderdate, CAST(sum(r) AS BIGINT) AS rev_micro
FROM orders
JOIN customer ON o_custkey = c_custkey
JOIN rev ON l_orderkey = o_orderkey
WHERE c_mktsegment = 'BUILDING' AND o_orderdate < TIMESTAMP '1998-01-01'
GROUP BY 1, 2
ORDER BY rev_micro DESC, o_orderkey
LIMIT 10
""",
    "late_priority_counts": """
SELECT o_orderpriority, CAST(count(*) AS BIGINT) AS n_late
FROM orders
WHERE EXISTS (
  SELECT 1 FROM lineitem
  WHERE l_orderkey = o_orderkey
    AND epoch_us(l_shipdate) > epoch_us(o_orderdate) + 90 * 86400000000
)
GROUP BY 1 ORDER BY 1
""",
    "ohlc_bars": """
WITH ev AS (
  SELECT user_id, CAST(epoch_us(ts) // 86400000000 AS BIGINT) AS day,
         CAST(floor(value * 1000) AS BIGINT) AS vm,
         epoch_us(ts) AS ts_us, event_id
  FROM events
), o AS (
  SELECT user_id, day, vm AS open_milli FROM (
    SELECT *, row_number() OVER (
      PARTITION BY user_id, day ORDER BY ts_us, event_id) AS rn FROM ev)
  WHERE rn = 1
), c AS (
  SELECT user_id, day, vm AS close_milli FROM (
    SELECT *, row_number() OVER (
      PARTITION BY user_id, day ORDER BY ts_us DESC, event_id DESC) AS rn FROM ev)
  WHERE rn = 1
)
SELECT e.user_id, e.day,
       max(o.open_milli) AS open_milli,
       max(e.vm) AS high_milli,
       min(e.vm) AS low_milli,
       max(c.close_milli) AS close_milli,
       CAST(count(*) AS BIGINT) AS n
FROM ev e
JOIN o ON o.user_id = e.user_id AND o.day = e.day
JOIN c ON c.user_id = e.user_id AND c.day = e.day
GROUP BY 1, 2 ORDER BY 1, 2
""",
    "value_hour_corr": """
WITH m AS (
  SELECT event_type,
         CAST(floor(value * 1000) AS BIGINT) AS x,
         (epoch_us(ts) // 3600000000) % 24 AS y
  FROM events
)
SELECT event_type,
       CAST(count(*) AS BIGINT) AS n,
       CAST(sum(x) AS BIGINT) AS sum_x,
       CAST(sum(y) AS BIGINT) AS sum_y,
       CAST(sum(x * x) AS BIGINT) AS sum_xx,
       CAST(sum(y * y) AS BIGINT) AS sum_yy,
       CAST(sum(x * y) AS BIGINT) AS sum_xy
FROM m GROUP BY 1 ORDER BY 1
""",
    "revenue_rollup": """
SELECT r_name, n_name,
       CAST(sum(CAST(floor(l_extendedprice * 1000) AS BIGINT)
                * (1000 - CAST(floor(l_discount * 1000) AS BIGINT))) AS BIGINT)
         AS rev_micro,
       CAST(count(*) AS BIGINT) AS n_items
FROM lineitem
JOIN orders   ON l_orderkey = o_orderkey
JOIN customer ON o_custkey = c_custkey
JOIN nation   ON c_nationkey = n_nationkey
JOIN region   ON n_regionkey = r_regionkey
GROUP BY 1, 2 ORDER BY 1, 2
""",
    "bm25_topk": f"""
WITH tok AS (
  SELECT doc_id, lower(unnest(regexp_split_to_array({_TRIMMED}, '\\s+'))) AS w
  FROM documents WHERE {_TRIMMED} <> ''
), tk AS (SELECT doc_id, w FROM tok WHERE w <> ''),
dl AS (SELECT doc_id, CAST(count(*) AS BIGINT) AS dl FROM tk GROUP BY 1),
stats AS (SELECT CAST(count(*) AS BIGINT) AS n_docs,
                 CAST(sum(dl) AS BIGINT) AS n_tokens FROM dl),
tf AS (SELECT doc_id, w, CAST(count(*) AS BIGINT) AS tf
       FROM tk WHERE w IN {_BM25_TERMS_SQL} GROUP BY 1, 2),
df AS (SELECT w, CAST(count(*) AS BIGINT) AS df FROM tf GROUP BY 1),
scored AS (
  SELECT tf.doc_id,
         ((1000 * s.n_docs) // df.df) *
         ((tf.tf * 2200000) //
          (tf.tf * 1000 +
           (1200 * (250 + (750 * ((1000000 * dl.dl) //
                                  ((1000 * s.n_tokens) // s.n_docs))) // 1000)) // 1000))
           AS contrib
  FROM tf JOIN df USING (w) JOIN dl USING (doc_id) CROSS JOIN stats s
)
SELECT doc_id, CAST(sum(contrib) AS BIGINT) AS score
FROM scored GROUP BY 1 ORDER BY score DESC, doc_id LIMIT 20
""",
    "word_rarity": f"""
WITH pairs AS (
  SELECT DISTINCT doc_id, lower(unnest(regexp_split_to_array({_TRIMMED}, '\\s+'))) AS w
  FROM documents WHERE {_TRIMMED} <> ''
), p AS (SELECT * FROM pairs WHERE w <> ''),
df AS (SELECT w, count(*) AS df FROM p GROUP BY w)
SELECT p.doc_id,
       CAST(count(*) AS BIGINT) AS n_words,
       CAST(sum(df.df) AS BIGINT) AS df_sum,
       CAST((1000 * sum(df.df)) // count(*) AS BIGINT) AS mean_df_milli,
       CAST(min(df.df) AS BIGINT) AS min_df
FROM p JOIN df USING (w)
GROUP BY 1 ORDER BY 1
""",
    "bpe_pairs": f"""
WITH words AS (
  SELECT lower(unnest(regexp_split_to_array({_TRIMMED}, '\\s+'))) AS w
  FROM documents WHERE {_TRIMMED} <> ''
), adj AS (
  SELECT substr(w, CAST(i AS INT), 2) AS pair
  FROM (SELECT w, unnest(range(1, length(w))) AS i FROM words WHERE w <> '')
)
SELECT pair, CAST(count(*) AS BIGINT) AS n
FROM adj GROUP BY 1 ORDER BY n DESC, pair LIMIT 50
""",
    "customers_without_events": """
SELECT c_mktsegment, CAST(count(*) AS BIGINT) AS n
FROM customer c
WHERE NOT EXISTS (SELECT 1 FROM events e WHERE e.user_id = c.c_custkey)
GROUP BY 1 ORDER BY 1
""",
    "dedup_exact": "SELECT min(doc_id) AS doc_id FROM documents GROUP BY text ORDER BY 1",
    # DIB-AVI is lossless, so the rendered-container → RIFF-walk →
    # frame-sample → PPM-decode pipeline collapses to a closed form:
    # every sampled frame of doc i is flat (i*7 + f*13) mod 256
    "video_frames": """
SELECT d.doc_id,
       CAST(f.frame_idx AS BIGINT) AS frame_idx,
       CAST((d.doc_id * 7 + f.frame_idx * 13) % 256 AS BIGINT) AS mean_val
FROM documents d CROSS JOIN (VALUES (0), (2), (4)) f(frame_idx)
ORDER BY d.doc_id, f.frame_idx
""",
    "doc_stats": f"""
SELECT doc_id,
       CAST({_TOKEN_COUNT} AS BIGINT) AS token_count,
       md5(text) AS fingerprint
FROM documents ORDER BY doc_id
""",
    "lang_stats": f"""
SELECT lang,
       CAST(sum(length(text)) AS BIGINT) AS total_chars,
       CAST(sum({_TOKEN_COUNT}) AS BIGINT) AS total_tokens,
       CAST(count(*) AS BIGINT) AS n_docs
FROM documents GROUP BY lang ORDER BY lang
""",
    "vocab_top": r"""
WITH w AS (
  SELECT lower(unnest(regexp_split_to_array(trim(text, ' ' || chr(9) || chr(10) || chr(13) || chr(11) || chr(12)), '\s+'))) AS w FROM documents
)
SELECT w, CAST(count(*) AS BIGINT) AS n FROM w WHERE w <> ''
GROUP BY 1 ORDER BY n DESC, w LIMIT 100
""",
    "contaminated_docs": r"""
WITH t AS (
  SELECT doc_id, regexp_split_to_array(trim(lower(text), ' ' || chr(9) || chr(10) || chr(13) || chr(11) || chr(12)), '\s+') AS ws
  FROM documents WHERE trim(text, ' ' || chr(9) || chr(10) || chr(13) || chr(11) || chr(12)) <> ''
), g AS (
  SELECT doc_id, unnest(CASE WHEN len(ws) >= 4
      THEN list_transform(range(1, len(ws) - 2),
                          i -> ws[i] || ' ' || ws[i+1] || ' ' || ws[i+2] || ' ' || ws[i+3])
      ELSE CAST(NULL AS VARCHAR[]) END) AS g
  FROM t
), bench AS (
  SELECT DISTINCT g FROM g WHERE doc_id % 17 = 0
), hits AS (
  SELECT DISTINCT gg.doc_id, gg.g FROM g gg
  WHERE gg.doc_id % 17 <> 0 AND gg.g IN (SELECT g FROM bench)
)
SELECT doc_id, CAST(count(*) AS BIGINT) AS n_hit_grams
FROM hits GROUP BY 1 ORDER BY 1
""",
    "quality_filter": r"""
WITH w AS (
  SELECT doc_id, lower(unnest(regexp_split_to_array(trim(text, ' ' || chr(9) || chr(10) || chr(13) || chr(11) || chr(12)), '\s+'))) AS w
  FROM documents WHERE trim(text, ' ' || chr(9) || chr(10) || chr(13) || chr(11) || chr(12)) <> ''
), f AS (
  SELECT doc_id, w, count(*) AS c FROM w WHERE w <> '' GROUP BY 1, 2
), agg AS (
  SELECT doc_id,
         CAST(sum(c) AS BIGINT) AS token_total,
         CAST(1000 - (1000 * count(*)) // sum(c) AS BIGINT) AS dup_milli,
         CAST((1000 * max(c)) // sum(c) AS BIGINT) AS top_milli
  FROM f GROUP BY 1
)
SELECT doc_id, token_total, dup_milli, top_milli FROM agg
WHERE token_total >= 20 AND dup_milli <= 500 AND top_milli <= 150
ORDER BY doc_id
""",
    "repetition_filter": f"""
WITH d AS (
  SELECT doc_id, text FROM documents WHERE text IS NOT NULL
), lines AS (
  SELECT doc_id, unnest(string_split(text, chr(10))) AS line FROM d
), lm AS (
  SELECT doc_id, CAST(count(*) AS BIGINT) AS n_lines,
         CAST((1000 * (count(*) - count(DISTINCT line))) // count(*) AS BIGINT)
           AS dup_line_milli
  FROM lines GROUP BY doc_id
), t AS (
  SELECT doc_id,
         regexp_split_to_array(trim(lower(text), {_WS}), '\\s+') AS ws
  FROM d WHERE trim(text, {_WS}) <> ''
), big AS (
  SELECT doc_id, unnest(CASE WHEN len(ws) >= 2
      THEN list_transform(range(1, len(ws)), i -> ws[i] || ' ' || ws[i+1])
      ELSE CAST(NULL AS VARCHAR[]) END) AS g
  FROM t
), bc AS (
  SELECT doc_id, g, count(*) AS c FROM big GROUP BY 1, 2
), bm AS (
  SELECT doc_id, CAST((1000 * max(c)) // sum(c) AS BIGINT) AS top_bigram_milli
  FROM bc GROUP BY doc_id
)
SELECT lm.doc_id, lm.n_lines, lm.dup_line_milli,
       CAST(coalesce(bm.top_bigram_milli, 0) AS BIGINT) AS top_bigram_milli
FROM lm LEFT JOIN bm ON lm.doc_id = bm.doc_id
WHERE lm.dup_line_milli <= 300 AND coalesce(bm.top_bigram_milli, 0) <= 200
ORDER BY lm.doc_id
""",
    "rag_chunks": f"""
WITH t AS (
  SELECT doc_id, {_TOKENS} AS ws FROM documents WHERE {_TRIMMED} <> ''
), c AS (
  SELECT doc_id, len(ws) AS n, ws,
         unnest(range(0, (len(ws) + 47) // 48)) AS chunk_idx
  FROM t
)
SELECT doc_id, CAST(chunk_idx AS BIGINT) AS chunk_idx,
       CAST(least(n, chunk_idx * 48 + 64) - chunk_idx * 48 AS BIGINT) AS n_tokens,
       array_to_string(ws[chunk_idx * 48 + 1 : least(n, chunk_idx * 48 + 64)], ' ') AS chunk_text
FROM c ORDER BY doc_id, chunk_idx
""",
    "freq_spectrum": f"""
WITH w AS (
  SELECT lower(unnest({_TOKENS})) AS w FROM documents WHERE {_TRIMMED} <> ''
), u AS (
  SELECT w, count(*) AS c FROM w WHERE w <> '' GROUP BY 1
)
SELECT CAST(c AS BIGINT) AS freq, CAST(count(*) AS BIGINT) AS n_words
FROM u GROUP BY 1 ORDER BY 1
""",
    "dup_ngram_spans": f"""
WITH t AS (
  SELECT doc_id,
         regexp_split_to_array(trim(lower(text), {_WS}), '\\s+') AS ws
  FROM documents WHERE trim(text, {_WS}) <> ''
), g AS (
  SELECT doc_id, unnest(list_transform(range(1, len(ws) - 6),
      i -> ws[i] || ' ' || ws[i+1] || ' ' || ws[i+2] || ' ' || ws[i+3] || ' '
           || ws[i+4] || ' ' || ws[i+5] || ' ' || ws[i+6] || ' ' || ws[i+7])) AS g
  FROM t WHERE len(ws) >= 8
), c AS (
  SELECT g, count(*) AS cnt FROM g GROUP BY 1
), d AS (
  SELECT doc_id, CAST(count(*) AS BIGINT) AS n_windows,
         CAST(sum(CASE WHEN c.cnt >= 2 THEN 1 ELSE 0 END) AS BIGINT) AS dup_windows
  FROM g JOIN c USING (g) GROUP BY doc_id
)
SELECT doc_id, n_windows, dup_windows,
       CAST((1000 * dup_windows) // n_windows AS BIGINT) AS dup_milli
FROM d ORDER BY doc_id
""",
    "dedup_paragraphs": """
WITH sp AS (
  SELECT CAST(doc_id AS BIGINT) AS doc_id, string_split(text, chr(10)) AS l
  FROM documents WHERE text IS NOT NULL
), p AS (
  SELECT doc_id, unnest(l) AS para,
         CAST(generate_subscripts(l, 1) AS BIGINT) AS idx
  FROM sp
), np AS (
  SELECT doc_id, idx, para FROM p WHERE para <> ''
), w AS (
  SELECT para, min(doc_id * 1048576 + idx) AS win FROM np GROUP BY para
), k AS (
  SELECT np.doc_id, np.idx, np.para
  FROM np JOIN w ON np.para = w.para
   AND np.doc_id * 1048576 + np.idx = w.win
)
SELECT doc_id, string_agg(para, chr(10) ORDER BY idx) AS clean_text
FROM k GROUP BY doc_id ORDER BY doc_id
""",
    "url_dedup_spectrum": """
WITH p AS (SELECT CAST(event_id AS BIGINT) AS e FROM events),
r AS (
  SELECT (CASE WHEN e % 2 = 0 THEN 'HTTP://' ELSE 'https://' END)
         || 'WWW.Site' || CAST(e % 5 AS VARCHAR) || '.Example.COM'
         || (CASE e % 3 WHEN 0 THEN ':80' WHEN 1 THEN ':8080' ELSE '' END)
         || '/p/' || CAST(e % 10 AS VARCHAR)
         || (CASE WHEN e % 2 = 0 THEN '?b=2&a=' || CAST(e % 4 AS VARCHAR)
                  ELSE '?a=' || CAST(e % 4 AS VARCHAR) || '&b=2' END)
         || (CASE WHEN e % 5 = 0 THEN '#frag' ELSE '' END) AS raw,
         e % 17 = 0 AS broken
  FROM p
), g AS (
  SELECT CASE WHEN broken THEN 'not a url' ELSE raw END AS url FROM r
), x AS (
  SELECT url,
    lower(regexp_extract(url, '^([A-Za-z][A-Za-z0-9+.-]*)://', 1)) AS sch,
    lower(regexp_extract(url, '^[A-Za-z][A-Za-z0-9+.-]*://([^/?#:]+)', 1)) AS host,
    regexp_extract(url, '^[A-Za-z][A-Za-z0-9+.-]*://[^/?#:]+(:[0-9]+)', 1) AS port,
    regexp_extract(url, '^[A-Za-z][A-Za-z0-9+.-]*://[^/?#]+(/[^?#]*)', 1) AS pth,
    regexp_extract(url, '\\?([^#]*)', 1) AS q
  FROM g
), n AS (
  SELECT CASE WHEN sch = '' THEN NULL ELSE
    sch || '://' || host
    || (CASE WHEN (sch = 'http' AND port = ':80')
              OR (sch = 'https' AND port = ':443') THEN '' ELSE port END)
    || (CASE WHEN pth = '' THEN '/' ELSE pth END)
    || (CASE WHEN q = '' THEN ''
             ELSE '?' || array_to_string(list_sort(string_split(q, '&')), '&')
        END)
  END AS u FROM x
), c AS (
  SELECT u, count(*) AS c FROM n WHERE u IS NOT NULL GROUP BY u
)
SELECT CAST(c AS BIGINT) AS dups, CAST(count(*) AS BIGINT) AS n_urls
FROM c GROUP BY 1
UNION ALL
SELECT -1, CAST(count(*) AS BIGINT) FROM n WHERE u IS NULL HAVING count(*) > 0
ORDER BY dups
""",
    # dup_spans / substring_dup_docs / substring_dedup_cleaned are assigned
    # below DATA_ORACLES from the shared _dup_span_cte scaffolding
    "shared_paragraphs": """
WITH p AS (
  SELECT DISTINCT doc_id, unnest(string_split(text, chr(10))) AS para
  FROM documents WHERE text IS NOT NULL
), np AS (
  SELECT doc_id, para FROM p WHERE para <> ''
), pf AS (
  SELECT para FROM (SELECT para, count(*) AS c FROM np GROUP BY 1) WHERE c >= 2
)
SELECT doc_id,
       CAST(count(*) AS BIGINT) AS n_paras,
       CAST(sum(CASE WHEN para IN (SELECT para FROM pf) THEN 1 ELSE 0 END) AS BIGINT) AS shared_paras,
       CAST((1000 * sum(CASE WHEN para IN (SELECT para FROM pf) THEN 1 ELSE 0 END)) // count(*) AS BIGINT) AS shared_milli
FROM np GROUP BY doc_id ORDER BY doc_id
""",
    "quality_top_decile": f"""
WITH s AS (
  SELECT doc_id, CAST({_TOKEN_COUNT} AS BIGINT) AS score
  FROM documents WHERE text IS NOT NULL
), t AS (
  SELECT quantile_disc(score, 0.9) AS q FROM s
)
SELECT doc_id, score FROM s WHERE score >= (SELECT q FROM t) ORDER BY doc_id
""",
    "bloom_dedup": """
SELECT doc_id FROM documents n
WHERE doc_id % 3 <> 0
  AND (text IS NULL OR text NOT IN
       (SELECT text FROM documents WHERE doc_id % 3 = 0 AND text IS NOT NULL))
ORDER BY doc_id
""",
    "dedup_incremental_minhash": f"""
WITH toks AS (
  SELECT doc_id, {_TOKENS} AS t FROM documents WHERE trim(text, {_WS}) <> ''
), grams AS (
  SELECT doc_id,
         unnest(CASE WHEN len(t) < 3 THEN [array_to_string(t, ' ')]
                ELSE list_transform(range(1, len(t) - 1),
                                    i -> t[i] || ' ' || t[i+1] || ' ' || t[i+2]) END) AS g
  FROM toks
), sets AS (
  SELECT DISTINCT doc_id, g FROM grams
), counts AS (
  SELECT doc_id, count(*) AS c FROM sets GROUP BY 1
), inter AS (
  SELECT n.doc_id AS a, p.doc_id AS b, count(*) AS inter
  FROM sets n JOIN sets p ON n.g = p.g
  WHERE n.doc_id % 3 <> 0 AND p.doc_id % 3 = 0
  GROUP BY 1, 2
), dup_new AS (
  SELECT DISTINCT a FROM inter
  JOIN counts ca ON ca.doc_id = a
  JOIN counts cb ON cb.doc_id = b
  WHERE inter * 2 >= (ca.c + cb.c - inter)
)
SELECT doc_id FROM documents
WHERE doc_id % 3 <> 0 AND doc_id NOT IN (SELECT a FROM dup_new)
ORDER BY doc_id
""",
    "simhash_pairs": f"""
WITH w AS (
  SELECT doc_id,
         lower(unnest(regexp_split_to_array(trim(text, {_WS}), '\\s+'))) AS w
  FROM documents WHERE trim(text, {_WS}) <> ''
), f AS (
  SELECT doc_id, w, count(*) AS c FROM w WHERE w <> '' GROUP BY 1, 2
), h AS (
  SELECT doc_id, ('0x' || substr(md5(w), 1, 16))::UBIGINT AS hv, c FROM f
), bits AS (
  SELECT doc_id, b.range AS b,
         sum(CASE WHEN (hv >> b.range::INT) & 1::UBIGINT = 1::UBIGINT
                  THEN c ELSE -c END) AS s
  FROM h, range(64) b GROUP BY 1, 2
), sig AS (
  SELECT doc_id,
         sum(CASE WHEN s > 0 THEN (1::UBIGINT << b::INT)::HUGEINT
                  ELSE 0::HUGEINT END)::UBIGINT AS sig
  FROM bits GROUP BY 1
)
SELECT x.doc_id AS a, y.doc_id AS b,
       CAST(bit_count(xor(x.sig, y.sig)) AS BIGINT) AS hamming
FROM sig x JOIN sig y ON x.doc_id < y.doc_id
WHERE bit_count(xor(x.sig, y.sig)) <= 3
ORDER BY a, b
""",
    "inverted_index": r"""
WITH w AS (
  SELECT DISTINCT doc_id, lower(unnest(regexp_split_to_array(trim(text, ' ' || chr(9) || chr(10) || chr(13) || chr(11) || chr(12)), '\s+'))) AS w
  FROM documents WHERE trim(text, ' ' || chr(9) || chr(10) || chr(13) || chr(11) || chr(12)) <> ''
)
SELECT w, CAST(count(*) AS BIGINT) AS df,
       string_agg(CAST(doc_id AS VARCHAR), ',' ORDER BY doc_id) AS postings
FROM w WHERE w <> '' GROUP BY w ORDER BY w
""",
    "collocations": r"""
WITH t AS (
  SELECT regexp_split_to_array(trim(lower(text), ' ' || chr(9) || chr(10) || chr(13) || chr(11) || chr(12)), '\s+') AS ws
  FROM documents WHERE trim(text, ' ' || chr(9) || chr(10) || chr(13) || chr(11) || chr(12)) <> ''
), words AS (
  SELECT unnest(ws) AS w FROM t
), uni AS (
  SELECT w, count(*) AS c FROM words WHERE w <> '' GROUP BY 1
), tot AS (
  SELECT CAST(sum(c) AS HUGEINT) AS n FROM uni
), big AS (
  SELECT unnest(CASE WHEN len(ws) >= 2
      THEN list_transform(range(1, len(ws)), i -> ws[i] || ' ' || ws[i+1])
      ELSE CAST(NULL AS VARCHAR[]) END) AS g
  FROM t
), bigc AS (
  SELECT g, count(*) AS c2 FROM big GROUP BY 1 HAVING count(*) >= 10
)
SELECT g AS bigram, CAST(c2 AS BIGINT) AS cnt,
       CAST((1000 * c2 * (SELECT n FROM tot)) // (u1.c * u2.c) AS BIGINT) AS pmi_milli
FROM bigc
JOIN uni u1 ON u1.w = split_part(g, ' ', 1)
JOIN uni u2 ON u2.w = split_part(g, ' ', 2)
ORDER BY pmi_milli DESC, bigram LIMIT 50
""",
    # event_pairs_within: ordered-pair semantics — (ts, id) strict order on
    # the left endpoint, inclusive window on the right
    "event_pairs_within": f"""
SELECT a.user_id, a.event_id AS a, b.event_id AS b,
       CAST(epoch_us(b.ts) - epoch_us(a.ts) AS BIGINT) AS delta_us
FROM events a JOIN events b
  ON a.user_id = b.user_id
 AND (b.ts > a.ts OR (b.ts = a.ts AND b.event_id > a.event_id))
 AND epoch_us(b.ts) - epoch_us(a.ts) <= {EVENT_PAIR_WINDOW_US}
ORDER BY a.user_id, a, b
""",
    # cdc_merged_state: MERGE semantics as SQL — latest change per key via
    # one descending row_number, FULL OUTER against the base, deletes
    # filtered; matches the engine's per-bucket latest-wins apply
    "cdc_merged_state": """
WITH chg AS (
  SELECT user_id AS k, event_type,
         CAST(floor(value * 1000) AS BIGINT) AS vm,
         row_number() OVER (
           PARTITION BY user_id ORDER BY ts DESC, event_id DESC) AS rn
  FROM events
), latest AS (
  SELECT k, (event_type = 'error') AS is_del, vm FROM chg WHERE rn = 1
), base AS (
  SELECT c_custkey AS k, CAST(floor(c_acctbal * 1000) AS BIGINT) AS vm
  FROM customer
)
SELECT coalesce(l.k, b.k) AS user_id,
       CASE WHEN l.k IS NOT NULL THEN l.vm ELSE b.vm END AS value_milli
FROM base b FULL OUTER JOIN latest l ON b.k = l.k
WHERE l.k IS NULL OR NOT l.is_del
ORDER BY 1
""",
    # resampled_series: daily spine per user from first event day to the
    # global horizon; IGNORE NULLS window ffill is DuckDB's native
    # equivalent of the engine's searchsorted fill
    "resampled_series": """
WITH ev AS (
  SELECT user_id, CAST(epoch_us(ts) // 86400000000 AS BIGINT) AS day,
         CAST(floor(value * 1000) AS BIGINT) AS vm, ts, event_id
  FROM events
), daily AS (
  SELECT user_id, day, vm FROM (
    SELECT *, row_number() OVER (
      PARTITION BY user_id, day ORDER BY ts DESC, event_id DESC) AS rn
    FROM ev) WHERE rn = 1
), bounds AS (SELECT user_id, min(day) AS d0 FROM ev GROUP BY 1),
gmax AS (SELECT max(day) AS d1 FROM ev),
spine AS (
  SELECT b.user_id, unnest(range(b.d0, (SELECT d1 FROM gmax) + 1)) AS day
  FROM bounds b
)
SELECT s.user_id, s.day,
       last_value(d.vm IGNORE NULLS) OVER (
         PARTITION BY s.user_id ORDER BY s.day
         ROWS UNBOUNDED PRECEDING) AS value_milli
FROM spine s LEFT JOIN daily d ON d.user_id = s.user_id AND d.day = s.day
ORDER BY 1, 2
""",
    # order_skyline: the oracle is the O(n²) NOT EXISTS dominance
    # definition — a genuinely independent second implementation of the
    # frontier the distributed local-skyline merge computes
    "order_skyline": """
WITH v AS (
  SELECT o_orderkey, CAST(round(o_totalprice * 100) AS BIGINT) AS cents,
         CAST(epoch_us(o_orderdate) // 86400000000 AS BIGINT) AS day
  FROM orders
)
SELECT o_orderkey, cents, day FROM v t
WHERE NOT EXISTS (
  SELECT 1 FROM v u
  WHERE u.cents >= t.cents AND u.day <= t.day
    AND (u.cents > t.cents OR u.day < t.day)
)
ORDER BY o_orderkey
""",
    # lm_scores: the denominator counts word occurrences AS BIGRAM PREFIXES
    # (derived from the same big CTE), matching the Ray kernel's NOTE
    "lm_scores": r"""
WITH t AS (
  SELECT doc_id, regexp_split_to_array(trim(lower(text), ' ' || chr(9) || chr(10) || chr(13) || chr(11) || chr(12)), '\s+') AS ws
  FROM documents WHERE trim(text, ' ' || chr(9) || chr(10) || chr(13) || chr(11) || chr(12)) <> ''
), big AS (
  SELECT doc_id, unnest(CASE WHEN len(ws) >= 2
      THEN list_transform(range(1, len(ws)), i -> ws[i] || ' ' || ws[i+1])
      ELSE CAST(NULL AS VARCHAR[]) END) AS g
  FROM t
), bigc AS (
  SELECT g, count(*) AS c2 FROM big GROUP BY 1
), unic AS (
  SELECT split_part(g, ' ', 1) AS w, count(*) AS c1 FROM big GROUP BY 1
), scored AS (
  SELECT b.doc_id, (1000 * bc.c2) // u.c1 AS s
  FROM big b JOIN bigc bc ON b.g = bc.g
  JOIN unic u ON u.w = split_part(b.g, ' ', 1)
)
SELECT doc_id, CAST(count(*) AS BIGINT) AS n_bigrams,
       CAST(sum(s) // count(*) AS BIGINT) AS lm_milli
FROM scored GROUP BY 1 ORDER BY 1
""",
    "packed_chunks": r"""
WITH t AS (
  SELECT doc_id, text, doc_id % 8 AS bucket,
         CASE WHEN trim(text, ' ' || chr(9) || chr(10) || chr(13) || chr(11) || chr(12)) = '' THEN 0
              ELSE len(regexp_split_to_array(trim(text, ' ' || chr(9) || chr(10) || chr(13) || chr(11) || chr(12)), '\s+')) END AS tokens
  FROM documents WHERE text IS NOT NULL
), c AS (
  SELECT doc_id, text, bucket,
         sum(tokens) OVER (PARTITION BY bucket ORDER BY doc_id
                           ROWS UNBOUNDED PRECEDING) - tokens AS start_tok
  FROM t
)
SELECT CAST(bucket AS BIGINT) AS bucket,
       CAST(start_tok // 256 AS BIGINT) AS chunk_id,
       CAST(count(*) AS BIGINT) AS n_docs,
       CAST(length(string_agg(text, chr(10) ORDER BY doc_id)) AS BIGINT) AS chunk_chars,
       md5(string_agg(text, chr(10) ORDER BY doc_id)) AS chunk_md5
FROM c GROUP BY 1, 2 ORDER BY 1, 2
""",
    "top_terms": r"""
WITH words AS (
  SELECT doc_id, lower(unnest(regexp_split_to_array(trim(text, ' ' || chr(9) || chr(10) || chr(13) || chr(11) || chr(12)), '\s+'))) AS w
  FROM documents WHERE trim(text, ' ' || chr(9) || chr(10) || chr(13) || chr(11) || chr(12)) <> ''
), tf AS (
  SELECT doc_id, w, count(*) AS tf FROM words WHERE w <> '' GROUP BY 1, 2
), df AS (
  SELECT w, count(*) AS df FROM tf GROUP BY 1
), n AS (
  SELECT count(*) AS n FROM documents WHERE trim(text, ' ' || chr(9) || chr(10) || chr(13) || chr(11) || chr(12)) <> ''
), scored AS (
  SELECT t.doc_id, t.w, t.tf * ((1000 * (SELECT n FROM n)) // d.df) AS score
  FROM tf t JOIN df d USING (w)
), ranked AS (
  SELECT doc_id, w, score,
         row_number() OVER (PARTITION BY doc_id ORDER BY score DESC, w) AS rk
  FROM scored
)
SELECT doc_id, w, CAST(score AS BIGINT) AS score, CAST(rk AS BIGINT) AS rk
FROM ranked WHERE rk <= 3 ORDER BY doc_id, rk
""",
    "mix_sample": r"""
SELECT doc_id, source FROM documents
WHERE ((doc_id % 1000) * 761) % 1000 < 100 + 45 * CAST(substr(source, 4) AS BIGINT)
ORDER BY doc_id
""",
    "epoch_shuffle": r"""
SELECT doc_id, md5('s0:' || CAST(doc_id AS VARCHAR)) AS h
FROM documents ORDER BY h, doc_id
""",
    "pack_sequences": r"""
WITH t AS (
  SELECT doc_id, doc_id % 8 AS bucket,
         CASE WHEN text IS NULL OR trim(text, ' ' || chr(9) || chr(10) || chr(13) || chr(11) || chr(12)) = '' THEN 0
              ELSE len(regexp_split_to_array(trim(text, ' ' || chr(9) || chr(10) || chr(13) || chr(11) || chr(12)), '\s+')) END AS tokens
  FROM documents
), c AS (
  SELECT doc_id, bucket, tokens,
         sum(tokens) OVER (PARTITION BY bucket ORDER BY doc_id
                           ROWS UNBOUNDED PRECEDING) - tokens AS start_tok
  FROM t
)
SELECT doc_id, CAST(bucket AS BIGINT) AS bucket,
       CAST(start_tok AS BIGINT) AS start_tok,
       CAST(start_tok // 256 AS BIGINT) AS chunk_id
FROM c ORDER BY doc_id
""",
    "masked_docs": r"""
SELECT doc_id,
  regexp_replace(
    regexp_replace(
      regexp_replace(lower(trim(text, ' ' || chr(9) || chr(10) || chr(13) || chr(11) || chr(12))), '\s+', ' ', 'g'),
      '\b\d{1,3}\.\d{1,3}\.\d{1,3}\.\d{1,3}\b', '<IP>', 'g'),
    '[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}', '<EMAIL>', 'g') AS clean_text
FROM documents ORDER BY doc_id
""",
    "value_drift_bins": """
SELECT event_type,
       CAST(CAST(floor(value * 1000) AS BIGINT) // 50000 AS BIGINT) AS bin,
       CAST(sum(CASE WHEN ts < TIMESTAMP '2024-01-16 00:00:00'
                THEN 1 ELSE 0 END) AS BIGINT) AS n_before,
       CAST(sum(CASE WHEN ts < TIMESTAMP '2024-01-16 00:00:00'
                THEN 0 ELSE 1 END) AS BIGINT) AS n_after
FROM events GROUP BY 1, 2 ORDER BY 1, 2
""",
    "state_at_cutoff": """
WITH e AS (
  SELECT user_id, event_type, epoch_us(ts) AS ts_us, event_id,
         lag(event_type) OVER (PARTITION BY user_id
                               ORDER BY epoch_us(ts), event_id) AS prev
  FROM events
), ch AS (
  SELECT user_id, event_type, ts_us, event_id
  FROM e WHERE prev IS NULL OR prev <> event_type
), iv AS (
  SELECT user_id, event_type, ts_us AS f,
         coalesce(lead(ts_us) OVER (PARTITION BY user_id
                                    ORDER BY ts_us, event_id), -1) AS t
  FROM ch
)
SELECT event_type, CAST(count(*) AS BIGINT) AS n_users
FROM iv
WHERE f <= epoch_us(TIMESTAMP '2024-01-15 00:00:00')
  AND (t = -1 OR t > epoch_us(TIMESTAMP '2024-01-15 00:00:00'))
GROUP BY 1 ORDER BY 1
""",
    "scd2_intervals": """
WITH e AS (
  SELECT user_id, event_type, epoch_us(ts) AS ts_us, event_id,
         lag(event_type) OVER (PARTITION BY user_id
                               ORDER BY epoch_us(ts), event_id) AS prev
  FROM events
), ch AS (
  SELECT user_id, event_type, ts_us, event_id
  FROM e WHERE prev IS NULL OR prev <> event_type
)
SELECT user_id, event_type,
       CAST(ts_us AS BIGINT) AS valid_from_us,
       CAST(coalesce(lead(ts_us) OVER (PARTITION BY user_id
                              ORDER BY ts_us, event_id), -1) AS BIGINT) AS valid_to_us
FROM ch ORDER BY user_id, valid_from_us, event_type
""",
    "event_fingerprints": """
SELECT event_id,
       sha256('event_id=' || CAST(event_id AS VARCHAR) ||
              '|user_id=' || coalesce(CAST(user_id AS VARCHAR), '') ||
              '|event_type=' || coalesce(event_type, '')) AS fingerprint
FROM events ORDER BY event_id
""",
    "pii_inventory": """
WITH pats(kind, pat) AS (VALUES
  ('ip', '\\b\\d{1,3}\\.\\d{1,3}\\.\\d{1,3}\\.\\d{1,3}\\b'),
  ('email', '[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\\.[A-Za-z]{2,}'),
  ('url', 'https?://[^\\s"]+')
), m AS (
  SELECT p.kind, len(regexp_extract_all(d.text, p.pat)) AS c
  FROM documents d CROSS JOIN pats p
)
SELECT kind,
       CAST(sum(c) AS BIGINT) AS total_matches,
       CAST(sum(CASE WHEN c > 0 THEN 1 ELSE 0 END) AS BIGINT) AS docs_with_any
FROM m GROUP BY 1 ORDER BY 1
""",
    "value_decile_bins": """
WITH v AS (
  SELECT CAST(floor(value * 1000) AS BIGINT) AS vm FROM events
), b AS (
  SELECT vm, CAST(ntile(10) OVER (ORDER BY vm) AS BIGINT) AS bin FROM v
)
SELECT bin, CAST(count(*) AS BIGINT) AS n,
       CAST(min(vm) AS BIGINT) AS lo_milli,
       CAST(max(vm) AS BIGINT) AS hi_milli
FROM b GROUP BY 1 ORDER BY 1
""",
    "ipc_roundtrip_stats": """
SELECT CAST(user_id // 10 AS BIGINT) AS user_decade,
       CAST(sum(CAST(floor(value * 1000) AS BIGINT)) AS BIGINT) AS value_milli,
       CAST(count(*) AS BIGINT) AS n
FROM events GROUP BY 1 ORDER BY 1
""",
    "twap_values": """
WITH ev AS (
  SELECT user_id, epoch_us(ts) AS ts_us, event_id,
         CAST(floor(value * 1000) AS BIGINT) AS vm
  FROM events
), w AS (
  SELECT user_id, ts_us, vm,
         coalesce(lead(ts_us) OVER (PARTITION BY user_id
                                    ORDER BY ts_us, event_id), ts_us)
           - ts_us AS width,
         row_number() OVER (PARTITION BY user_id
                            ORDER BY ts_us, event_id) AS rn
  FROM ev
), agg AS (
  SELECT user_id,
         CAST(max(ts_us) - min(ts_us) AS BIGINT) AS span_us,
         CAST(sum(vm * width) AS BIGINT) AS twap_num,
         CAST(max(CASE WHEN rn = 1 THEN vm END) AS BIGINT) AS first_vm
  FROM w GROUP BY 1
)
SELECT user_id, span_us, twap_num,
       CAST(CASE WHEN span_us > 0 THEN twap_num // span_us
            ELSE first_vm END AS BIGINT) AS twap_milli
FROM agg ORDER BY user_id
""",
    "novelty_scores": f"""
WITH toks AS (
  SELECT doc_id, list_transform({_TOKENS}, w -> lower(w)) AS t
  FROM documents WHERE {_TRIMMED} <> ''
), grams AS (
  SELECT doc_id,
         unnest(list_transform(range(1, len(t) - 1),
                               i -> t[i] || ' ' || t[i+1] || ' ' || t[i+2])) AS g
  FROM toks WHERE len(t) >= 3
), sets AS (
  SELECT DISTINCT doc_id, g FROM grams
), df AS (
  SELECT g, count(*) AS c FROM sets GROUP BY 1
)
SELECT doc_id,
       CAST(count(*) AS BIGINT) AS n_grams,
       CAST(sum(CASE WHEN c = 1 THEN 1 ELSE 0 END) AS BIGINT) AS n_unique,
       CAST((1000 * sum(CASE WHEN c = 1 THEN 1 ELSE 0 END)) // count(*) AS BIGINT)
         AS novelty_milli
FROM sets JOIN df USING (g)
GROUP BY 1 ORDER BY 1
""",
    "dedup_ratio_report": """
WITH d AS (
  SELECT source, coalesce(md5(text), '__null_text__') AS h FROM documents
), g AS (
  SELECT source, CAST(count(*) AS BIGINT) AS n_docs,
         CAST(count(DISTINCT h) AS BIGINT) AS n_distinct
  FROM d GROUP BY 1
)
SELECT source, n_docs, n_distinct,
       CAST((1000 * (n_docs - n_distinct)) // n_docs AS BIGINT) AS dup_permille
FROM g ORDER BY source
""",
    "ppjoin_pairs": f"""
WITH sets AS (
  SELECT DISTINCT doc_id, lower(unnest({_TOKENS})) AS w
  FROM documents WHERE {_TRIMMED} <> ''
), counts AS (
  SELECT doc_id, count(*) AS c FROM sets GROUP BY 1
), inter AS (
  SELECT s1.doc_id AS a, s2.doc_id AS b, count(*) AS inter
  FROM sets s1 JOIN sets s2 ON s1.w = s2.w AND s1.doc_id < s2.doc_id
  GROUP BY 1, 2
)
SELECT a, b,
       CAST(inter AS BIGINT) AS inter,
       CAST(ca.c + cb.c - inter AS BIGINT) AS union_
FROM inter
JOIN counts ca ON ca.doc_id = a
JOIN counts cb ON cb.doc_id = b
WHERE inter * 10 >= (ca.c + cb.c - inter) * 9
ORDER BY a, b
""",
    "jaccard_pairs": f"""
WITH sets AS (
  SELECT DISTINCT doc_id, source, lower(unnest({_TOKENS})) AS w
  FROM documents WHERE trim(text, ' ' || chr(9) || chr(10) || chr(13) || chr(11) || chr(12)) <> ''
), counts AS (
  SELECT doc_id, count(*) AS c FROM sets GROUP BY 1
), inter AS (
  SELECT s1.doc_id AS a, s2.doc_id AS b, count(*) AS inter
  FROM sets s1 JOIN sets s2
    ON s1.source = s2.source AND s1.w = s2.w AND s1.doc_id < s2.doc_id
  GROUP BY 1, 2
)
SELECT a, b,
       CAST(inter AS BIGINT) AS inter,
       CAST(ca.c + cb.c - inter AS BIGINT) AS union_
FROM inter
JOIN counts ca ON ca.doc_id = a
JOIN counts cb ON cb.doc_id = b
WHERE inter >= {JACCARD_TAU} * (ca.c + cb.c - inter)
ORDER BY a, b
""",
    "containment_pairs": f"""
WITH sets AS (
  SELECT DISTINCT doc_id, source, lower(unnest({_TOKENS})) AS w
  FROM documents WHERE trim(text, ' ' || chr(9) || chr(10) || chr(13) || chr(11) || chr(12)) <> ''
), counts AS (
  SELECT doc_id, count(*) AS c FROM sets GROUP BY 1
), inter AS (
  SELECT s1.doc_id AS a, s2.doc_id AS b, count(*) AS inter
  FROM sets s1 JOIN sets s2
    ON s1.source = s2.source AND s1.w = s2.w AND s1.doc_id < s2.doc_id
  GROUP BY 1, 2
)
SELECT a, b,
       CAST(inter AS BIGINT) AS inter,
       CAST(ca.c AS BIGINT) AS size_a,
       CAST(cb.c AS BIGINT) AS size_b
FROM inter
JOIN counts ca ON ca.doc_id = a
JOIN counts cb ON cb.doc_id = b
WHERE inter * 10 >= least(ca.c, cb.c) * 8
ORDER BY a, b
""",
    "ngram_jaccard": f"""
WITH toks AS (
  SELECT doc_id, lang, {_TOKENS} AS t FROM documents WHERE trim(text, ' ' || chr(9) || chr(10) || chr(13) || chr(11) || chr(12)) <> ''
), grams AS (
  SELECT doc_id, lang,
         unnest(CASE WHEN len(t) < 3 THEN [array_to_string(t, ' ')]
                ELSE list_transform(range(1, len(t) - 1),
                                    i -> t[i] || ' ' || t[i+1] || ' ' || t[i+2]) END) AS g
  FROM toks
), sets AS (
  SELECT DISTINCT doc_id, lang, g FROM grams
), counts AS (
  SELECT doc_id, count(*) AS c FROM sets GROUP BY 1
), inter AS (
  SELECT s1.doc_id AS a, s2.doc_id AS b, count(*) AS inter
  FROM sets s1 JOIN sets s2
    ON s1.lang = s2.lang AND s1.g = s2.g AND s1.doc_id < s2.doc_id
  GROUP BY 1, 2
)
SELECT a, b, CAST(inter AS BIGINT) AS inter,
       CAST(ca.c + cb.c - inter AS BIGINT) AS union_
FROM inter JOIN counts ca ON ca.doc_id = a JOIN counts cb ON cb.doc_id = b
WHERE inter * 50 >= (ca.c + cb.c - inter) * 1
ORDER BY a, b
""",
    "dup_clusters": f"""
WITH RECURSIVE sets AS (
  SELECT DISTINCT doc_id, source, lower(unnest({_TOKENS})) AS w
  FROM documents WHERE trim(text, ' ' || chr(9) || chr(10) || chr(13) || chr(11) || chr(12)) <> ''
), counts AS (
  SELECT doc_id, count(*) AS c FROM sets GROUP BY 1
), inter AS (
  SELECT s1.doc_id AS a, s2.doc_id AS b, count(*) AS inter
  FROM sets s1 JOIN sets s2
    ON s1.source = s2.source AND s1.w = s2.w AND s1.doc_id < s2.doc_id
  GROUP BY 1, 2
), pairs AS (
  SELECT a, b FROM inter
  JOIN counts ca ON ca.doc_id = a
  JOIN counts cb ON cb.doc_id = b
  WHERE inter >= {JACCARD_TAU} * (ca.c + cb.c - inter)
), e AS (
  SELECT a AS s, b AS d FROM pairs UNION SELECT b, a FROM pairs
), walk(node, reach) AS (
  SELECT s, s FROM (SELECT DISTINCT s FROM e)
  UNION
  SELECT w.node, e.d FROM walk w JOIN e ON e.s = w.reach
)
SELECT node AS doc_id, CAST(min(reach) AS BIGINT) AS cluster_id
FROM walk GROUP BY 1 ORDER BY 1
""",
    "cluster_canonicals": f"""
WITH RECURSIVE sets AS (
  SELECT DISTINCT doc_id, source, lower(unnest({_TOKENS})) AS w
  FROM documents WHERE trim(text, ' ' || chr(9) || chr(10) || chr(13) || chr(11) || chr(12)) <> ''
), counts AS (
  SELECT doc_id, count(*) AS c FROM sets GROUP BY 1
), inter AS (
  SELECT s1.doc_id AS a, s2.doc_id AS b, count(*) AS inter
  FROM sets s1 JOIN sets s2
    ON s1.source = s2.source AND s1.w = s2.w AND s1.doc_id < s2.doc_id
  GROUP BY 1, 2
), pairs AS (
  SELECT a, b FROM inter
  JOIN counts ca ON ca.doc_id = a
  JOIN counts cb ON cb.doc_id = b
  WHERE inter >= {JACCARD_TAU} * (ca.c + cb.c - inter)
), e AS (
  SELECT a AS s, b AS d FROM pairs UNION SELECT b, a FROM pairs
), walk(node, reach) AS (
  SELECT s, s FROM (SELECT DISTINCT s FROM e)
  UNION
  SELECT w.node, e.d FROM walk w JOIN e ON e.s = w.reach
), clusters AS (
  SELECT node AS doc_id, min(reach) AS cluster_id FROM walk GROUP BY 1
), ranked AS (
  SELECT c.cluster_id, c.doc_id, d.n_chars,
         row_number() OVER (PARTITION BY c.cluster_id
                            ORDER BY d.n_chars DESC, c.doc_id) AS rn,
         count(*) OVER (PARTITION BY c.cluster_id) AS size
  FROM clusters c JOIN documents d ON d.doc_id = c.doc_id
)
SELECT CAST(cluster_id AS BIGINT) AS cluster_id,
       CAST(doc_id AS BIGINT) AS canonical_doc,
       CAST(n_chars AS BIGINT) AS n_chars,
       CAST(size AS BIGINT) AS size
FROM ranked WHERE rn = 1 ORDER BY cluster_id
""",
    "dedup_filtered_docs": f"""
WITH RECURSIVE sets AS (
  SELECT DISTINCT doc_id, source, lower(unnest({_TOKENS})) AS w
  FROM documents WHERE trim(text, ' ' || chr(9) || chr(10) || chr(13) || chr(11) || chr(12)) <> ''
), counts AS (
  SELECT doc_id, count(*) AS c FROM sets GROUP BY 1
), inter AS (
  SELECT s1.doc_id AS a, s2.doc_id AS b, count(*) AS inter
  FROM sets s1 JOIN sets s2
    ON s1.source = s2.source AND s1.w = s2.w AND s1.doc_id < s2.doc_id
  GROUP BY 1, 2
), pairs AS (
  SELECT a, b FROM inter
  JOIN counts ca ON ca.doc_id = a
  JOIN counts cb ON cb.doc_id = b
  WHERE inter >= {JACCARD_TAU} * (ca.c + cb.c - inter)
), e AS (
  SELECT a AS s, b AS d FROM pairs UNION SELECT b, a FROM pairs
), walk(node, reach) AS (
  SELECT s, s FROM (SELECT DISTINCT s FROM e)
  UNION
  SELECT w.node, e.d FROM walk w JOIN e ON e.s = w.reach
), clusters AS (
  SELECT node AS doc_id, min(reach) AS cluster_id FROM walk GROUP BY 1
)
SELECT d.doc_id FROM documents d
WHERE d.doc_id NOT IN (SELECT doc_id FROM clusters WHERE doc_id <> cluster_id)
ORDER BY d.doc_id
""",
    # exact word-3-gram Jaccard over ALL pairs (no blocking) at threshold 1/2
    # (integer comparison: 2·inter ≥ union) — the ground truth the MinHash+LSH
    # scale path must reproduce exactly on this corpus (planted dups J ≥ 0.9)
    "dedup_filtered_docs_minhash": f"""
WITH RECURSIVE toks AS (
  SELECT doc_id, {_TOKENS} AS t FROM documents WHERE trim(text, ' ' || chr(9) || chr(10) || chr(13) || chr(11) || chr(12)) <> ''
), grams AS (
  SELECT doc_id,
         unnest(CASE WHEN len(t) < 3 THEN [array_to_string(t, ' ')]
                ELSE list_transform(range(1, len(t) - 1),
                                    i -> t[i] || ' ' || t[i+1] || ' ' || t[i+2]) END) AS g
  FROM toks
), sets AS (
  SELECT DISTINCT doc_id, g FROM grams
), counts AS (
  SELECT doc_id, count(*) AS c FROM sets GROUP BY 1
), inter AS (
  SELECT s1.doc_id AS a, s2.doc_id AS b, count(*) AS inter
  FROM sets s1 JOIN sets s2 ON s1.g = s2.g AND s1.doc_id < s2.doc_id
  GROUP BY 1, 2
), pairs AS (
  SELECT a, b FROM inter
  JOIN counts ca ON ca.doc_id = a
  JOIN counts cb ON cb.doc_id = b
  WHERE inter * 2 >= (ca.c + cb.c - inter)
), e AS (
  SELECT a AS s, b AS d FROM pairs UNION SELECT b, a FROM pairs
), walk(node, reach) AS (
  SELECT s, s FROM (SELECT DISTINCT s FROM e)
  UNION
  SELECT w.node, e.d FROM walk w JOIN e ON e.s = w.reach
), clusters AS (
  SELECT node AS doc_id, min(reach) AS cluster_id FROM walk GROUP BY 1
)
SELECT d.doc_id FROM documents d
WHERE d.doc_id NOT IN (SELECT doc_id FROM clusters WHERE doc_id <> cluster_id)
ORDER BY d.doc_id
""",
    "dedup_embedding": f"""
SELECT a.vec_id AS a, b.vec_id AS b
FROM embeddings a JOIN embeddings b ON a.vec_id < b.vec_id
WHERE list_cosine_similarity(a.embedding, b.embedding) >= {EMB_DUP_TAU}
ORDER BY 1, 2
""",
    "dedup_filtered_embeddings": f"""
WITH RECURSIVE pairs AS (
  SELECT a.vec_id AS a, b.vec_id AS b
  FROM embeddings a JOIN embeddings b ON a.vec_id < b.vec_id
  WHERE list_cosine_similarity(a.embedding, b.embedding) >= {EMB_DUP_TAU}
), e AS (
  SELECT a AS s, b AS d FROM pairs UNION SELECT b, a FROM pairs
), walk(node, reach) AS (
  SELECT s, s FROM (SELECT DISTINCT s FROM e)
  UNION
  SELECT w.node, e.d FROM walk w JOIN e ON e.s = w.reach
), clusters AS (
  SELECT node AS vec_id, min(reach) AS cluster_id FROM walk GROUP BY 1
)
SELECT v.vec_id FROM embeddings v
WHERE v.vec_id NOT IN (SELECT vec_id FROM clusters WHERE vec_id <> cluster_id)
ORDER BY v.vec_id
""",
    "ann_topk": f"""
WITH q AS (
  SELECT vec_id, embedding FROM embeddings
  WHERE vec_id IN ({", ".join(str(i) for i in ANN_QUERY_IDS)})
), sims AS (
  SELECT q.vec_id AS query_id, e.vec_id AS neighbor_id,
         list_cosine_similarity(q.embedding, e.embedding) AS sim
  FROM q JOIN embeddings e ON e.vec_id <> q.vec_id
)
SELECT query_id, neighbor_id, CAST(rn AS BIGINT) AS rank FROM (
  SELECT query_id, neighbor_id,
         row_number() OVER (PARTITION BY query_id ORDER BY sim DESC, neighbor_id) AS rn
  FROM sims
) WHERE rn <= {ANN_K}
ORDER BY query_id, rank
""",
    "hard_negatives": f"""
WITH q AS (
  SELECT vec_id, embedding, label FROM embeddings
  WHERE vec_id IN ({", ".join(str(i) for i in ANN_QUERY_IDS)})
), sims AS (
  SELECT q.vec_id AS query_id, e.vec_id AS neighbor_id,
         list_cosine_similarity(q.embedding, e.embedding) AS sim
  FROM q JOIN embeddings e
    ON e.vec_id <> q.vec_id AND e.label <> q.label
)
SELECT query_id, neighbor_id, CAST(rn AS BIGINT) AS rank FROM (
  SELECT query_id, neighbor_id,
         row_number() OVER (PARTITION BY query_id ORDER BY sim DESC, neighbor_id) AS rn
  FROM sims
) WHERE rn <= {ANN_K}
ORDER BY query_id, rank
""",
    "ann_filtered": f"""
WITH q AS (
  SELECT vec_id, embedding FROM embeddings
  WHERE vec_id IN ({", ".join(str(i) for i in ANN_QUERY_IDS)})
), sims AS (
  SELECT q.vec_id AS query_id, e.vec_id AS neighbor_id,
         list_cosine_similarity(q.embedding, e.embedding) AS sim
  FROM q JOIN embeddings e ON e.vec_id <> q.vec_id
  WHERE e.label IN (0, 1, 2)
)
SELECT query_id, neighbor_id, CAST(rn AS BIGINT) AS rank FROM (
  SELECT query_id, neighbor_id,
         row_number() OVER (PARTITION BY query_id ORDER BY sim DESC, neighbor_id) AS rn
  FROM sims
) WHERE rn <= {ANN_K}
ORDER BY query_id, rank
""",
    "customers_per_region": """
SELECT r.r_name, CAST(count(*) AS BIGINT) AS n
FROM customer c JOIN nation nt ON c.c_nationkey = nt.n_nationkey
JOIN region r ON nt.n_regionkey = r.r_regionkey
GROUP BY 1 ORDER BY 1
""",
    "orders_per_nation": """
SELECT nt.n_name, CAST(count(*) AS BIGINT) AS n
FROM orders o JOIN customer c ON o.o_custkey = c.c_custkey
JOIN nation nt ON c.c_nationkey = nt.n_nationkey
GROUP BY 1 ORDER BY 1
""",
    "top_docs_per_lang": """
SELECT lang, n_chars, doc_id FROM (
  SELECT lang, n_chars, doc_id,
         row_number() OVER (PARTITION BY lang
                            ORDER BY n_chars DESC, doc_id) AS rn
  FROM documents
) WHERE rn <= 5 ORDER BY lang, n_chars DESC, doc_id
""",
    "top_users": """
SELECT user_id, CAST(count(*) AS BIGINT) AS n
FROM events GROUP BY user_id
ORDER BY n DESC, user_id LIMIT 20
""",
    "distinct_event_types": "SELECT DISTINCT event_type FROM events ORDER BY 1",
    "sample_events": """
SELECT event_id, user_id, event_type FROM events
WHERE event_id >= 100 AND event_id % 97 = 0 ORDER BY event_id
""",
    "sample_stratified": """
SELECT event_type, event_id FROM (
  SELECT event_type, event_id,
         row_number() OVER (PARTITION BY event_type
                            ORDER BY md5(CAST(event_id AS VARCHAR)), event_id) AS rn
  FROM events
) WHERE rn <= 20 ORDER BY event_type, event_id
""",
    "tumbling_windows": f"""
SELECT event_type,
       epoch_us(ts) // {WINDOW_SEC * 1_000_000} AS window_id,
       CAST(sum(CAST(floor(value * 1000) AS BIGINT)) AS BIGINT) AS value_milli,
       CAST(count(*) AS BIGINT) AS n
FROM events GROUP BY 1, 2 ORDER BY 1, 2
""",
    "hopping_windows": f"""
SELECT event_type, CAST(w AS BIGINT) AS window_id, CAST(count(*) AS BIGINT) AS n
FROM (
  SELECT event_type,
         unnest(range(greatest(epoch_us(ts) // {WINDOW_SEC // 4 * 1_000_000} - 3, 0),
                      epoch_us(ts) // {WINDOW_SEC // 4 * 1_000_000} + 1)) AS w
  FROM events
)
GROUP BY 1, 2 ORDER BY 1, 2
""",
    "asof_last_signup": """
SELECT event_id,
       CAST(coalesce(max(CASE WHEN event_type = 'signup' THEN epoch_us(ts) END)
            OVER (PARTITION BY user_id ORDER BY ts, event_id
                  ROWS UNBOUNDED PRECEDING), -1) AS BIGINT) AS last_marker_us
FROM events ORDER BY event_id
""",
    "sessions": f"""
WITH o AS (
  SELECT user_id, ts,
         CASE WHEN lag(ts) OVER w IS NULL
                OR epoch_us(ts) - epoch_us(lag(ts) OVER w) > {SESSION_GAP_SEC * 1_000_000}
              THEN 1 ELSE 0 END AS new_s
  FROM events
  WINDOW w AS (PARTITION BY user_id ORDER BY ts)
), s AS (
  SELECT user_id,
         sum(new_s) OVER (PARTITION BY user_id ORDER BY ts ROWS UNBOUNDED PRECEDING) AS sid
  FROM o
), sz AS (
  SELECT user_id, sid, count(*) AS c FROM s GROUP BY 1, 2
)
SELECT user_id,
       CAST(sum(c) AS BIGINT) AS n_events,
       CAST(count(*) AS BIGINT) AS n_sessions,
       CAST(max(c) AS BIGINT) AS max_session_events
FROM sz GROUP BY 1 ORDER BY 1
""",
    "exact_distinct_users": """
SELECT event_type, CAST(count(DISTINCT user_id) AS BIGINT) AS n_users
FROM events GROUP BY 1 ORDER BY 1
""",
    "exact_value_quantiles": """
SELECT event_type,
       CAST(quantile_disc(CAST(floor(value * 1000) AS BIGINT), 0.5) AS BIGINT) AS p50,
       CAST(quantile_disc(CAST(floor(value * 1000) AS BIGINT), 0.9) AS BIGINT) AS p90,
       CAST(quantile_disc(CAST(floor(value * 1000) AS BIGINT), 0.99) AS BIGINT) AS p99
FROM events GROUP BY 1 ORDER BY 1
""",
    # dedup_minhash / dedup_simhash / ann_lsh / doc_analysis: seeded-hash
    # algorithms & heuristics SQL cannot reproduce → rows-only driver check.
}


def _pagerank_oracle_sql(iters: int) -> str:
    """Unrolled-CTE oracle for ``q_pagerank_nodes``: one CTE per power
    iteration, every arithmetic step (``//`` truncating division, 85/100
    damping, 1e12 integer mass) mirroring ``stages.graph.pagerank``
    EXACTLY so the comparison is a hash match, not a tolerance check."""
    head = """
WITH eraw AS (
  SELECT DISTINCT 2 * o.o_custkey AS a, 2 * l.l_suppkey + 1 AS b
  FROM orders o JOIN lineitem l ON o.o_orderkey = l.l_orderkey
), edges AS (
  SELECT a AS src, b AS dst FROM eraw
  UNION ALL
  SELECT b AS src, a AS dst FROM eraw
), deg AS (
  SELECT src AS node, CAST(count(*) AS BIGINT) AS deg FROM edges GROUP BY 1
), params AS (
  SELECT CAST(1000000000000 // count(*) AS BIGINT) AS base,
         CAST((15 * (1000000000000 // count(*))) // 100 AS BIGINT) AS tele
  FROM deg
), r0 AS (
  SELECT node, deg, (SELECT base FROM params) AS pr FROM deg
)"""
    rounds = []
    for i in range(1, iters + 1):
        rounds.append(
            f""", r{i} AS (
  SELECT e.dst AS node, d2.deg AS deg,
         CAST((SELECT tele FROM params)
              + (85 * sum(r.pr // r.deg)) // 100 AS BIGINT) AS pr
  FROM edges e JOIN r{i - 1} r ON e.src = r.node
  JOIN deg d2 ON d2.node = e.dst
  GROUP BY 1, 2
)"""
        )
    return head + "".join(rounds) + f"\nSELECT node, pr FROM r{iters} ORDER BY node"


# composite new-dump ingestion: exact-dedup AND near-dup AND quality tiers
def _dup_span_cte(L: int) -> str:
    """Shared EXACTSUBSTR oracle scaffolding (through the ``spans`` CTE):
    LATERAL range explode of every length-L char window, HAVING count >= 2
    over the window text, lag-islands merge with gap <= L."""
    return f"""
WITH wins AS (
  SELECT doc_id, CAST(t.pos AS BIGINT) AS pos,
         substr(text, CAST(t.pos AS INTEGER), {L}) AS w
  FROM documents,
       LATERAL UNNEST(range(1, length(text) - {L} + 2)) AS t(pos)
), dup AS (
  SELECT w FROM wins GROUP BY w HAVING count(*) >= 2
), marked AS (
  SELECT doc_id, pos FROM wins WHERE w IN (SELECT w FROM dup)
), lagged AS (
  SELECT doc_id, pos,
         lag(pos) OVER (PARTITION BY doc_id ORDER BY pos) AS prev
  FROM marked
), grouped AS (
  SELECT doc_id, pos,
         SUM(CASE WHEN prev IS NULL OR pos - prev > {L} THEN 1 ELSE 0 END)
           OVER (PARTITION BY doc_id ORDER BY pos) AS grp
  FROM lagged
), spans AS (
  SELECT doc_id,
         min(pos) AS span_start,
         max(pos) + {L - 1} AS span_end,
         max(pos) + {L} - min(pos) AS span_chars
  FROM grouped GROUP BY doc_id, grp
)"""


DATA_ORACLES["dup_spans"] = (
    _dup_span_cte(_DUP_SPAN_WINDOW)
    + """
SELECT doc_id, span_start, span_end, span_chars
FROM spans ORDER BY doc_id, span_start
"""
)

DATA_ORACLES["substring_dup_docs"] = (
    _dup_span_cte(_DUP_SPAN_WINDOW)
    + """
SELECT d.doc_id,
       CAST(d.n_chars AS BIGINT) AS n_chars,
       CAST(sum(s.span_chars) AS BIGINT) AS dup_chars,
       CAST(count(*) AS BIGINT) AS n_spans,
       CAST((1000 * sum(s.span_chars)) // d.n_chars AS BIGINT) AS dup_permille
FROM spans s JOIN documents d USING (doc_id)
GROUP BY d.doc_id, d.n_chars ORDER BY d.doc_id
"""
)

DATA_ORACLES["substring_dedup_cleaned"] = (
    _dup_span_cte(_DUP_SPAN_WINDOW)
    + """
, gaps AS (
  SELECT doc_id,
         COALESCE(lag(span_end) OVER (PARTITION BY doc_id ORDER BY span_start),
                  0) + 1 AS gs,
         span_start - 1 AS ge
  FROM spans
  UNION ALL
  SELECT doc_id, max(span_end) + 1 AS gs, NULL AS ge FROM spans GROUP BY doc_id
), cleaned AS (
  SELECT d.doc_id,
         coalesce(string_agg(substr(d.text, CAST(g.gs AS INTEGER),
                                    CAST(COALESCE(g.ge, length(d.text))
                                         - g.gs + 1 AS INTEGER)), ''
                             ORDER BY g.gs)
                    FILTER (WHERE COALESCE(g.ge, length(d.text)) >= g.gs),
                  '') AS ct
  FROM documents d JOIN gaps g USING (doc_id) GROUP BY d.doc_id
)
SELECT doc_id, CAST(length(ct) AS BIGINT) AS kept_chars, md5(ct) AS cleaned_md5
FROM cleaned
UNION ALL
SELECT d.doc_id, CAST(length(d.text) AS BIGINT) AS kept_chars,
       md5(d.text) AS cleaned_md5
FROM documents d WHERE d.doc_id NOT IN (SELECT doc_id FROM cleaned)
ORDER BY doc_id
"""
)

# The incremental oracle replays the kernel's EXACT keep rule rather than
# restricting the full-corpus span set: a NEW-doc window position is kept iff
# its window text occurs >= 2 times among NEW docs (within-new recount), OR it
# occurs in the PRIOR dump AND sits inside a run of >= min_run (5) consecutive
# prior-witnessed positions — the FP-hardening rule of
# duplicated_spans_incremental (stages/dedup.py), whose documented trade is a
# window + min_run - 1 (44-char) cross-dump detection floor.  Encoding the
# floor here makes oracle equality corpus-INDEPENDENT: a regenerated corpus
# containing a 40-43-char cross-dump-only duplicate no longer fails the gate.
def _dup_spans_incremental_oracle_sql(L: int, mod: int, min_run: int) -> str:
    return f"""
WITH wins AS (
  SELECT doc_id, CAST(t.pos AS BIGINT) AS pos,
         substr(text, CAST(t.pos AS INTEGER), {L}) AS w
  FROM documents,
       LATERAL UNNEST(range(1, length(text) - {L} + 2)) AS t(pos)
), new_wins AS (
  SELECT * FROM wins WHERE doc_id % {mod} <> 0
), new_dup AS (
  SELECT w FROM new_wins GROUP BY w HAVING count(*) >= 2
), prior_w AS (
  SELECT DISTINCT w FROM wins WHERE doc_id % {mod} = 0
), flagged AS (
  SELECT doc_id, pos,
         (w IN (SELECT w FROM new_dup)) AS ndup,
         (w IN (SELECT w FROM prior_w)) AS pwit
  FROM new_wins
), lag_flag AS (
  SELECT doc_id, pos, ndup, pwit,
         COALESCE(lag(pwit) OVER (PARTITION BY doc_id ORDER BY pos),
                  FALSE) AS prev_pwit
  FROM flagged
), runs AS (
  SELECT doc_id, pos, ndup, pwit,
         SUM(CASE WHEN pwit AND NOT prev_pwit THEN 1 ELSE 0 END)
           OVER (PARTITION BY doc_id ORDER BY pos) AS prun
  FROM lag_flag
), runlen AS (
  SELECT doc_id, pos, ndup, pwit,
         count(*) FILTER (WHERE pwit)
           OVER (PARTITION BY doc_id, prun) AS plen
  FROM runs
), marked AS (
  SELECT doc_id, pos FROM runlen
  WHERE ndup OR (pwit AND plen >= {min_run})
), lagged AS (
  SELECT doc_id, pos,
         lag(pos) OVER (PARTITION BY doc_id ORDER BY pos) AS prev
  FROM marked
), grouped AS (
  SELECT doc_id, pos,
         SUM(CASE WHEN prev IS NULL OR pos - prev > {L} THEN 1 ELSE 0 END)
           OVER (PARTITION BY doc_id ORDER BY pos) AS grp
  FROM lagged
), spans AS (
  SELECT doc_id,
         min(pos) AS span_start,
         max(pos) + {L - 1} AS span_end,
         max(pos) + {L} - min(pos) AS span_chars
  FROM grouped GROUP BY doc_id, grp
)
SELECT doc_id, span_start, span_end, span_chars
FROM spans ORDER BY doc_id, span_start
"""


DATA_ORACLES["dup_spans_incremental"] = _dup_spans_incremental_oracle_sql(
    _DUP_SPAN_WINDOW, BLOOM_OLD_MOD, 5
)

DATA_ORACLES["corpus_refresh"] = f"""
WITH toks AS (
  SELECT doc_id, {_TOKENS} AS t FROM documents WHERE trim(text, {_WS}) <> ''
), grams AS (
  SELECT doc_id,
         unnest(CASE WHEN len(t) < 3 THEN [array_to_string(t, ' ')]
                ELSE list_transform(range(1, len(t) - 1),
                                    i -> t[i] || ' ' || t[i+1] || ' ' || t[i+2]) END) AS g
  FROM toks
), sets AS (
  SELECT DISTINCT doc_id, g FROM grams
), counts AS (
  SELECT doc_id, count(*) AS c FROM sets GROUP BY 1
), inter AS (
  SELECT n.doc_id AS a, p.doc_id AS b, count(*) AS inter
  FROM sets n JOIN sets p ON n.g = p.g
  WHERE n.doc_id % 3 <> 0 AND p.doc_id % 3 = 0
  GROUP BY 1, 2
), dup_new AS (
  SELECT DISTINCT a FROM inter
  JOIN counts ca ON ca.doc_id = a
  JOIN counts cb ON cb.doc_id = b
  WHERE inter * 2 >= (ca.c + cb.c - inter)
), words AS (
  SELECT doc_id, lower(unnest({_TOKENS})) AS w
  FROM documents WHERE trim(text, {_WS}) <> ''
), wf AS (
  SELECT doc_id, w, count(*) AS c FROM words WHERE w <> '' GROUP BY 1, 2
), qual AS (
  SELECT doc_id,
         CAST(sum(c) AS BIGINT) AS token_total,
         CAST(1000 - (1000 * count(*)) // sum(c) AS BIGINT) AS dup_milli,
         CAST((1000 * max(c)) // sum(c) AS BIGINT) AS top_milli
  FROM wf GROUP BY 1
)
SELECT d.doc_id, q.token_total, q.dup_milli, q.top_milli
FROM documents d JOIN qual q ON q.doc_id = d.doc_id
WHERE d.doc_id % 3 <> 0
  AND d.doc_id NOT IN (SELECT a FROM dup_new)
  AND (d.text IS NULL OR d.text NOT IN
       (SELECT text FROM documents WHERE doc_id % 3 = 0 AND text IS NOT NULL))
  AND q.token_total >= 20 AND q.dup_milli <= 500 AND q.top_milli <= 150
ORDER BY d.doc_id
"""
# indexed prior-side plan must reproduce the recompute-path answer exactly
DATA_ORACLES["dedup_incremental_minhash_indexed"] = DATA_ORACLES[
    "dedup_incremental_minhash"
]
# full-probe IVF == exact scan through the index layout: same oracle as the
# brute-force tier (round-5 verdict item #6 — one persisted-index ANN tier
# gets a hash MATCH, not just a rows-only check)
DATA_ORACLES["ann_ivf_indexed_fullprobe"] = DATA_ORACLES["ann_topk"]
DATA_ORACLES["pagerank_nodes"] = _pagerank_oracle_sql(PAGERANK_ITERS)


def _semdedup_oracle_sql(init: str = "farthest") -> "str | None":
    """dedup_semantic_clustered oracle: the kmeans partition is reproduced
    in SQL from centroid literals computed by the LOCAL bit-exact replica
    (``kmeans_fit_local`` — same int64 milli algebra as the distributed
    fit, parity pinned by test), and the recursive-CTE keeper SQL is
    restricted to WITHIN-cluster pairs.  Like the transcript oracles, the
    literals are bound to the driver-compare corpus (sf0.01): running
    ``tools/check_oracles.py`` against another sf_dir reports an expected
    mismatch for this one query.  None (→ rows-only) if the corpus is
    absent."""
    import os as _os

    import pyarrow.parquet as _pq

    from ..stages.clustering import kmeans_fit_local

    p = "/root/testdata/sf0.01/embeddings.parquet"
    if not _os.path.exists(p):
        return None
    cents = kmeans_fit_local(
        _pq.read_table(p, columns=["vec_id", "embedding"]),
        k=SEMDEDUP_K,
        iters=SEMDEDUP_ITERS,
        init=init,
        sample_milli=SEMDEDUP_SAMPLE_MILLI,
    )
    vals = ", ".join(
        "(%d, %d, %d)" % (c, d + 1, int(cents[c, d]))
        for c in range(cents.shape[0])
        for d in range(cents.shape[1])
    )
    return f"""
WITH RECURSIVE cent(c, dim, cv) AS (
  VALUES {vals}
), ev AS (
  SELECT vec_id, UNNEST(embedding) AS v,
         generate_subscripts(embedding, 1) AS dim
  FROM embeddings
), q AS (
  SELECT vec_id, dim, CAST(floor(CAST(v AS DOUBLE) * 1000) AS BIGINT) AS qv
  FROM ev
), sc AS (
  SELECT q.vec_id, ct.c,
         SUM(ct.cv * ct.cv) - 2 * SUM(q.qv * ct.cv) AS score
  FROM q JOIN cent ct ON ct.dim = q.dim
  GROUP BY q.vec_id, ct.c
), assign AS (
  SELECT vec_id, c AS cl FROM (
    SELECT vec_id, c,
           row_number() OVER (PARTITION BY vec_id ORDER BY score, c) AS rn
    FROM sc
  ) WHERE rn = 1
), pairs AS (
  SELECT a.vec_id AS a, b.vec_id AS b
  FROM embeddings a
  JOIN embeddings b ON a.vec_id < b.vec_id
  JOIN assign ca ON ca.vec_id = a.vec_id
  JOIN assign cb ON cb.vec_id = b.vec_id AND cb.cl = ca.cl
  WHERE list_cosine_similarity(a.embedding, b.embedding) >= {EMB_DUP_TAU}
), edges AS (
  SELECT a AS s, b AS d FROM pairs UNION SELECT b, a FROM pairs
), walk(node, reach) AS (
  SELECT s, s FROM (SELECT DISTINCT s FROM edges)
  UNION
  SELECT w.node, edges.d FROM walk w JOIN edges ON edges.s = w.reach
), comps AS (
  SELECT node AS vec_id, min(reach) AS cluster_id FROM walk GROUP BY 1
)
SELECT v.vec_id FROM embeddings v
WHERE v.vec_id NOT IN (SELECT vec_id FROM comps WHERE vec_id <> cluster_id)
ORDER BY v.vec_id
"""


def semdedup_oracles() -> Dict[str, str]:
    """The two dedup_semantic_clustered oracles, built when the oracle
    runner asks for them (each is a local k-means fit over the corpus, too
    dear for import time). A variant whose corpus is absent, or whose fit
    raises ``ValueError`` (the sampled init on a corpus too small for its
    sample), stays rows-only."""
    out = {}
    for name, init in (
        ("dedup_semantic_clustered", "farthest"),
        ("dedup_semantic_clustered_sampled", "sample"),
    ):
        try:
            sql = _semdedup_oracle_sql(init=init)
        except ValueError:
            sql = None
        if sql is not None:
            out[name] = sql
    return out


def _model_scores_oracle_sql() -> str:
    from ..stages.inference import quality_score_oracle_sql

    return quality_score_oracle_sql("documents")


DATA_ORACLES["model_scores"] = _model_scores_oracle_sql()


def _dsir_oracle_sql(n_per_lang: int = 20) -> str:
    # generated from the SAME weight table the Ray kernel broadcasts, so
    # the oracle cannot drift from the operator
    from ..stages.textops import DSIR_WEIGHTS_MILLI

    vals = ", ".join(f"('{w}', {v})" for w, v in DSIR_WEIGHTS_MILLI.items())
    return f"""
WITH w(word, wt) AS (VALUES {vals}),
d AS (
  SELECT lang, CAST(doc_id AS BIGINT) AS doc_id,
         string_split_regex(lower(coalesce(text, '')), '\\s+') AS ws
  FROM documents
), e AS (
  SELECT lang, doc_id, unnest(ws) AS word FROM d
), s AS (
  SELECT e.lang, e.doc_id, SUM(w.wt) AS sc
  FROM e JOIN w ON e.word = w.word
  GROUP BY e.lang, e.doc_id
), sc AS (
  SELECT d2.lang, d2.doc_id, CAST(coalesce(s.sc, 0) AS BIGINT) AS score
  FROM (SELECT lang, CAST(doc_id AS BIGINT) AS doc_id FROM documents) d2
  LEFT JOIN s ON d2.lang = s.lang AND d2.doc_id = s.doc_id
), r AS (
  SELECT lang, doc_id, score,
         row_number() OVER (
           PARTITION BY lang ORDER BY score DESC, doc_id ASC) AS rn
  FROM sc
)
SELECT lang, doc_id, score FROM r WHERE rn <= {n_per_lang}
ORDER BY lang, doc_id
"""


DATA_ORACLES["dsir_selected"] = _dsir_oracle_sql()


def _aggregated_tasks_oracle_sql() -> str:
    # generated around the SAME timeout constant the Ray query passes
    return f"""
WITH e AS (
  SELECT user_id, CAST(epoch_us(ts) AS BIGINT) AS ts, event_type,
         CAST(FLOOR(value * 1000) AS BIGINT) AS v
  FROM events WHERE user_id IS NOT NULL
), s AS (
  SELECT user_id, min(ts) AS t0 FROM e
  WHERE event_type = 'signup' GROUP BY user_id
), en AS (
  SELECT e.user_id, min(e.ts) AS t1
  FROM e JOIN s ON e.user_id = s.user_id
  WHERE e.event_type = 'purchase'
    AND e.ts >= s.t0 AND e.ts <= s.t0 + {AGG_TIMEOUT_US}
  GROUP BY e.user_id
), tk AS (
  SELECT s.user_id, s.t0, en.t1,
         CASE WHEN en.t1 IS NOT NULL THEN 'completed'
              ELSE 'timeout' END AS status,
         coalesce(en.t1, s.t0 + {AGG_TIMEOUT_US}) AS win_end
  FROM s LEFT JOIN en ON s.user_id = en.user_id
), ag AS (
  SELECT tk.user_id, CAST(count(*) AS BIGINT) AS n_events,
         CAST(sum(e.v) AS BIGINT) AS sum_value_milli
  FROM tk JOIN e ON e.user_id = tk.user_id
   AND e.ts >= tk.t0 AND e.ts <= tk.win_end
  GROUP BY tk.user_id
)
SELECT tk.user_id, tk.status, tk.t0, coalesce(tk.t1, -1) AS t1,
       ag.n_events, ag.sum_value_milli
FROM tk JOIN ag ON tk.user_id = ag.user_id
ORDER BY tk.user_id
"""


DATA_ORACLES["aggregated_tasks"] = _aggregated_tasks_oracle_sql()


def _xml_order_stats_oracle_sql() -> str:
    # the oracle never sees the XML: it aggregates the source columns the
    # renderer consumed, so parse/escape loss anywhere breaks the hash
    return f"""
SELECT o_orderstatus AS status, CAST(count(*) AS BIGINT) AS n,
       CAST(sum(CAST(round(o_totalprice * 100) AS BIGINT)) AS BIGINT)
         AS cents,
       CAST(sum(length(o_orderpriority) + {len(XML_NOTE_SUFFIX)}) AS BIGINT)
         AS note_chars,
       CAST(sum(o_orderkey) AS BIGINT) AS key_sum
FROM orders GROUP BY 1 ORDER BY 1
"""


DATA_ORACLES["xml_order_stats"] = _xml_order_stats_oracle_sql()


def _temperature_mix_oracle_sql() -> str:
    # alpha = 1/2: the exact integer sqrt is floor(sqrt) float-seeded then
    # big-int corrected (±1 covers the 1-ulp float error), mirroring
    # packing._iroot; quotas replay temperature_quotas' largest-remainder
    # allocation with the same (remainder desc, stratum asc) tie-break
    t = TEMP_MIX_TOTAL
    return f"""
WITH c AS (
  SELECT lang, CAST(count(*) AS BIGINT) AS n FROM documents GROUP BY 1
), w0 AS (
  SELECT lang, n, CAST(floor(sqrt(CAST(n AS DOUBLE))) AS BIGINT) AS s0
  FROM c
), w1 AS (
  SELECT lang, n, s0 - CASE WHEN s0 * s0 > n THEN 1 ELSE 0 END AS s1
  FROM w0
), w AS (
  SELECT lang, n,
         s1 + CASE WHEN (s1 + 1) * (s1 + 1) <= n THEN 1 ELSE 0 END AS wt
  FROM w1
), q0 AS (
  SELECT lang, n, wt,
         CAST({t} * wt // (SELECT sum(wt) FROM w) AS BIGINT) AS base,
         CAST({t} * wt % (SELECT sum(wt) FROM w) AS BIGINT) AS rem
  FROM w
), q AS (
  SELECT lang,
         least(n, base + CASE WHEN row_number() OVER
             (ORDER BY rem DESC, lang ASC)
           <= {t} - (SELECT sum(base) FROM q0) THEN 1 ELSE 0 END) AS quota
  FROM q0
), r AS (
  SELECT lang, CAST(doc_id AS BIGINT) AS doc_id,
         row_number() OVER (PARTITION BY lang
           ORDER BY md5('mix:' || CAST(doc_id AS VARCHAR)), doc_id) AS rk
  FROM documents
)
SELECT r.lang, r.doc_id
FROM r JOIN q ON r.lang = q.lang AND r.rk <= q.quota
ORDER BY r.lang, r.doc_id
"""


DATA_ORACLES["temperature_mix"] = _temperature_mix_oracle_sql()


def _transliterated_labels_oracle_sql() -> str:
    # generated from the SAME accented-label dict; strip_accents is
    # utf8proc STRIPMARK — the kernel's pinned contract
    cases = " ".join(
        f"WHEN '{k}' THEN '{v}'" for k, v in I18N_LABELS.items()
    )
    return f"""
WITH l AS (
  SELECT CASE event_type {cases} END AS label FROM events
)
SELECT strip_accents(label) AS label_ascii,
       CAST(count(*) AS BIGINT) AS n,
       CAST(sum(CASE WHEN strip_accents(label) <> label THEN 1 ELSE 0 END)
            AS BIGINT) AS n_changed
FROM l GROUP BY 1 ORDER BY 1
"""


DATA_ORACLES["transliterated_labels"] = _transliterated_labels_oracle_sql()


def _event_trends_oracle_sql() -> str:
    # the same per-stage DP, unrolled: matches of prefix k ending at an
    # event = cumulative prefix-(k-1) count strictly before it in
    # (ts, event_id) order — one window cumsum CTE per pattern stage
    head = f"""
WITH e AS (
  SELECT user_id, CAST(epoch_us(ts) AS BIGINT) AS ts,
         CAST(event_id AS BIGINT) AS eid, event_type
  FROM events
  WHERE user_id IS NOT NULL
    AND event_type IN ({", ".join("'%s'" % t for t in TREND_PATTERN)})
), d0 AS (
  SELECT user_id, ts, eid, event_type,
         CASE WHEN event_type = '{TREND_PATTERN[0]}'
              THEN 1 ELSE 0 END AS dp
  FROM e
)"""
    stages = []
    for k in range(1, len(TREND_PATTERN)):
        stages.append(
            f""", d{k} AS (
  SELECT user_id, ts, eid, event_type,
         CASE WHEN event_type = '{TREND_PATTERN[k]}' THEN
           coalesce(sum(dp) OVER (PARTITION BY user_id
             ORDER BY ts, eid
             ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING), 0)
         ELSE 0 END AS dp
  FROM d{k - 1}
)"""
        )
    last = len(TREND_PATTERN) - 1
    return (
        head
        + "".join(stages)
        + f"""
SELECT user_id, CAST(sum(dp) AS BIGINT) AS n_trends
FROM d{last} GROUP BY user_id HAVING sum(dp) > 0
ORDER BY user_id
"""
    )


DATA_ORACLES["event_trends"] = _event_trends_oracle_sql()


def _join_sample_oracle_sql() -> str:
    # replays the factorized index space: per-key nL·nR weights with
    # cumulative bases, the SAME fixed-length MINSTD stream (first k
    # distinct values mod N, in stream order), range-lookup to (key, i, j)
    # and row_number ranks — the join materializes HERE only because SQL
    # may; the Ray path never builds it
    k, seed = JOIN_SAMPLE_K, JOIN_SAMPLE_SEED
    return f"""
WITH RECURSIVE seq(step, x) AS (
  SELECT 0, CAST({seed} AS BIGINT)
  UNION ALL
  SELECT step + 1, x * 48271 % 2147483647 FROM seq WHERE step < {8 * k}
), cl AS (
  SELECT user_id AS key, CAST(count(*) AS BIGINT) AS nl
  FROM events WHERE user_id IS NOT NULL GROUP BY 1
), cr AS (
  SELECT o_custkey AS key, CAST(count(*) AS BIGINT) AS nr
  FROM orders GROUP BY 1
), w AS (
  SELECT cl.key, nl, nr, nl * nr AS w FROM cl JOIN cr USING (key)
), b AS (
  SELECT key, nl, nr, w,
         coalesce(sum(w) OVER (ORDER BY key
           ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING), 0) AS base
  FROM w
), g0 AS (
  SELECT step, x % (SELECT sum(w) FROM w) AS g FROM seq WHERE step >= 1
), gd AS (
  SELECT g, min(step) AS first_step FROM g0 GROUP BY g
), gk AS (
  SELECT g FROM gd ORDER BY first_step LIMIT {k}
), map AS (
  SELECT b.key, (gk.g - b.base) // b.nr AS i, (gk.g - b.base) % b.nr AS j
  FROM gk JOIN b ON gk.g >= b.base AND gk.g < b.base + b.w
), lr AS (
  SELECT user_id AS key, CAST(event_id AS BIGINT) AS event_id,
         row_number() OVER (PARTITION BY user_id ORDER BY event_id) - 1
           AS i
  FROM events WHERE user_id IS NOT NULL
), rr AS (
  SELECT o_custkey AS key, CAST(o_orderkey AS BIGINT) AS o_orderkey,
         row_number() OVER (PARTITION BY o_custkey ORDER BY o_orderkey) - 1
           AS j
  FROM orders
)
SELECT m.key AS user_id, lr.event_id, rr.o_orderkey
FROM map m
JOIN lr ON lr.key = m.key AND lr.i = m.i
JOIN rr ON rr.key = m.key AND rr.j = m.j
ORDER BY 1, 2, 3
"""


DATA_ORACLES["join_sample"] = _join_sample_oracle_sql()
