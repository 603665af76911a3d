"""Training-data operators: dedup family, similarity search, text analysis,
windows/sessions — each oracle-checked against DuckDB where expressible,
plus self-consistency checks for the seeded-hash algorithms."""

import duckdb
import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

from logstash_filter_geoip_ray.pipelines.data_ops import (
    ANN_QUERY_IDS,
    DATA_ORACLES,
    DATA_QUERIES,
)

SF = "/root/testdata/sf0.01"


@pytest.fixture(scope="module")
def sf_dir_copy_nulls(tmp_path_factory):
    """sf0.001 events table with ~10% of user_ids nulled (deterministic) —
    exercises the SQL-null-parity contracts on a corpus that actually
    contains NULL keys."""
    import pyarrow.parquet as pq

    src = pq.read_table("/root/testdata/sf0.001/events.parquet")
    n = src.num_rows
    mask = (np.arange(n) % 10) == 3
    uid = src["user_id"].combine_chunks().to_numpy(zero_copy_only=False)
    nulled = pa.array(
        np.where(mask, 0, uid).astype("int64"), type=pa.int64(),
        mask=mask,
    )
    out = src.set_column(
        src.schema.get_field_index("user_id"), "user_id", nulled
    )
    d = tmp_path_factory.mktemp("sfnulls")
    pq.write_table(out, str(d / "events.parquet"))
    return str(d)


@pytest.fixture(scope="module")
def oracle_con():
    con = duckdb.connect()
    for t in ("documents", "embeddings", "events", "customer", "orders",
              "region", "nation", "supplier", "part", "lineitem"):
        con.execute(
            f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{SF}/{t}.parquet')"
        )
    return con


def _norm(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)].copy()
    return df.astype(str).sort_values(list(df.columns)).reset_index(drop=True)


@pytest.mark.parametrize(
    "name",
    ["dedup_exact", "doc_stats", "lang_stats", "jaccard_pairs", "ngram_jaccard",
     "dedup_embedding", "ann_topk", "tumbling_windows", "hopping_windows",
     "sessions", "top_users", "distinct_event_types", "sample_events",
     "exact_distinct_users", "exact_value_quantiles",
     "contaminated_docs", "quality_filter", "inverted_index",
     "epoch_shuffle", "pack_sequences", "mix_sample", "packed_chunks",
     "top_terms", "collocations", "repetition_filter", "simhash_pairs",
     "shared_paragraphs", "dedup_paragraphs", "url_dedup_spectrum",
     "dsir_selected", "aggregated_tasks", "xml_order_stats",
     "temperature_mix", "transliterated_labels", "event_trends",
     "join_sample",
     "quality_top_decile", "bloom_dedup",
     "dedup_filtered_embeddings", "rag_chunks", "freq_spectrum",
     "dup_ngram_spans", "top_docs_per_lang", "video_frames",
     "word_rarity", "bpe_pairs", "customers_without_events",
     "sample_stratified", "latest_events", "event_deltas",
     "rolling_windows", "hourly_pivot", "bm25_topk",
     "running_totals", "value_ranks", "type_transitions",
     "user_top_event", "value_percent_ranks", "value_outliers",
     "user_triangles", "user_communities", "events_profile", "table_row_counts", "edit_distance_pairs",
     "cust_order_distribution", "late_events", "quantized_embeddings",
     "activity_islands", "key_skew", "curated_chunks", "dataset_splits",
     "winsorized_values", "value_trend", "knn_labels",
     "trending_types", "props_k_stats", "funnel_conversion",
     "stopword_filter", "active_customers", "retention_cohorts",
     "window_distinct_users", "lang_centroids", "customer_order_profile",
     "events_last_order", "user_reconciliation",
     "above_avg_orders", "priority_rollup", "priority_cube", "quartile_stats",
     "click_attribution", "label_centroids", "segment_activity",
     "weighted_sample", "lineitem_measures", "zorder_layout",
     "event_cooccurrence", "balanced_shards", "high_value_counts",
     "user_type_profile", "embedding_gram", "orc_roundtrip_stats",
     "lm_scores", "order_skyline", "pricing_summary",
     "shipping_priority", "late_priority_counts", "ohlc_bars",
     "value_hour_corr", "ppjoin_pairs", "novelty_scores", "ann_filtered",
     "twap_values", "event_fingerprints", "ipc_roundtrip_stats", "value_decile_bins", "pii_inventory",
     "scd2_intervals", "state_at_cutoff", "cluster_canonicals",
     "value_drift_bins", "dedup_ratio_report",
     "resampled_series", "cdc_merged_state", "bfs_levels",
     "event_pairs_within", "dup_spans", "substring_dup_docs",
     "substring_dedup_cleaned", "dup_spans_incremental",
     "hard_negatives", "containment_pairs"],
)
def test_oracle_match(ray_session, oracle_con, name):
    res = DATA_QUERIES[name](SF)
    # queries may return a Dataset OR a pandas DataFrame (driver contract)
    ray_df = res.to_pandas() if hasattr(res, "to_pandas") else res
    oracle_df = oracle_con.sql(DATA_ORACLES[name]).df()
    a, b = _norm(ray_df), _norm(oracle_df)
    assert list(a.columns) == list(b.columns)
    assert len(a) == len(b)
    pd.testing.assert_frame_equal(a, b)


def test_minhash_lsh_finds_planted_dups(ray_session):
    """Planted near-duplicates must surface through the LSH path."""
    import ray.data

    from logstash_filter_geoip_ray.stages.dedup import minhash_lsh_pairs

    base = "the quick brown fox jumps over the lazy dog again and again " * 5
    near = base.replace("lazy", "sleepy")  # high shingle overlap
    other = "completely different content about ray data pipelines " * 6
    docs = pa.table(
        {
            "doc_id": pa.array([1, 2, 3, 4], type=pa.int64()),
            "text": [base, near, other, base],
        }
    )
    pairs = minhash_lsh_pairs(ray.data.from_arrow(docs), min_jaccard=0.5).to_pandas()
    found = {(r.a, r.b) for r in pairs.itertuples()}
    assert (1, 4) in found  # exact dup
    assert (1, 2) in found  # near dup
    assert not any({3} & {a, b} for a, b in found)  # unrelated doc untouched
    exact = pairs[(pairs.a == 1) & (pairs.b == 4)].iloc[0]
    assert exact["inter"] == exact["union_"]  # identical docs


def test_embedding_grid_equals_broadcast(ray_session):
    """The block-grid self-join (scale default) and the broadcast matmul are
    independent implementations of the same exact computation — identical
    pair sets, including across a threshold-hugging sim distribution."""
    import ray.data

    from logstash_filter_geoip_ray.stages.dedup import (
        embedding_dup_pairs,
        embedding_dup_pairs_broadcast,
    )

    emb = ray.data.read_parquet(SF + "/embeddings.parquet", columns=["vec_id", "embedding"])
    for tau in (0.3, 0.4):
        g = embedding_dup_pairs(emb, min_cosine=tau, num_blocks=5).to_pandas()
        b = embedding_dup_pairs_broadcast(emb, min_cosine=tau).to_pandas()
        pd.testing.assert_frame_equal(g.reset_index(drop=True), b.reset_index(drop=True))
        assert len(g) > 0


def test_heavy_hitters_exact_under_heavy_pruning(ray_session):
    """heavy_hitters must equal the exact GROUP BY/HAVING answer even when
    capacity is far below the distinct-item count (pruning every batch) and
    heavy items are scattered across many blocks."""
    import ray.data

    from logstash_filter_geoip_ray.stages.aggregate import heavy_hitters

    rng = np.random.default_rng(9)
    # 2000 distinct light items + 12 heavy ones spread across blocks
    light = [f"light-{i}" for i in rng.integers(0, 2000, 20000)]
    heavy = [f"heavy-{i % 12}" for i in range(3000)]
    vals = light + heavy
    rng.shuffle(vals)
    ds = ray.data.from_arrow(pa.table({"tok": vals})).repartition(16)
    # capacity 48 << ~1100 distinct per block: every batch prunes, yet the
    # summed error bound stays below the threshold → exact answer guaranteed
    got = heavy_hitters(ds, "tok", threshold=100, capacity=48).to_pandas()
    exact = (
        pd.Series(vals).value_counts().loc[lambda s: s >= 100].sort_index()
    )
    assert list(got["tok"]) == list(exact.index)
    assert list(got["n"]) == list(exact.values)
    # capacity too small for the threshold → loud error, never silent misses
    with pytest.raises(ValueError, match="capacity"):
        heavy_hitters(ds, "tok", threshold=100, capacity=8).to_pandas()
    # nothing qualifies → clean empty result with a stable schema
    empty = heavy_hitters(ds, "tok", threshold=10**9, capacity=4096)
    assert empty.schema().names == ["tok", "n"]
    assert empty.count() == 0


def test_minhash_jaccard_estimate_accuracy():
    from logstash_filter_geoip_ray.functions.sketches import (
        MinHasher,
        estimate_jaccard,
        exact_jaccard,
    )

    a = "one two three four five six seven eight nine ten " * 4
    b = "one two three four five six seven EIGHT nine ten " * 4
    h = MinHasher(num_perm=256)
    est = estimate_jaccard(h.signature(a), h.signature(b))
    inter, union = exact_jaccard(a, b)
    assert abs(est - inter / union) < 0.15


def test_simhash_properties():
    from logstash_filter_geoip_ray.functions.sketches import hamming64, simhash64

    a = simhash64("alpha beta gamma delta epsilon zeta eta theta")
    b = simhash64("alpha beta gamma delta epsilon zeta eta iota")
    c = simhash64("totally unrelated words qq ww ee rr tt yy")
    assert a == simhash64("alpha beta gamma delta epsilon zeta eta theta")
    assert hamming64(a, b) < hamming64(a, c)


def test_ann_lsh_recall(ray_session):
    """LSH top-k must recover most of the exact top-k (recall ≥ 0.5 with
    multiprobe on this 500×64 random table)."""
    import ray.data

    from logstash_filter_geoip_ray.stages.similarity import brute_force_topk, lsh_topk

    ds = ray.data.read_parquet(f"{SF}/embeddings.parquet")
    exact = brute_force_topk(ds, ANN_QUERY_IDS, k=10).to_pandas()
    approx = lsh_topk(
        ray.data.read_parquet(f"{SF}/embeddings.parquet"), ANN_QUERY_IDS, k=10,
        n_planes=4, multiprobe_bits=1,
    ).to_pandas()
    recalls = []
    for q in ANN_QUERY_IDS:
        e = set(exact[exact.query_id == q].neighbor_id)
        a = set(approx[approx.query_id == q].neighbor_id)
        recalls.append(len(e & a) / len(e))
    assert np.mean(recalls) >= 0.5
    # approximate result is a subset of scored candidates with correct ranks
    assert (approx.groupby("query_id")["rank"].min() == 1).all()


def test_ivf_index_matches_recompute(ray_session, tmp_path):
    """The persisted cell-partitioned IVF index must return EXACTLY the
    recompute-path ivf_topk rows under identical parameters (same sample
    rule + k-means seed → same codebook → same probed set), and the probe
    must read only the accepted cells' files (directory pruning)."""
    import ray.data

    from logstash_filter_geoip_ray.stages.similarity import ivf_topk
    from logstash_filter_geoip_ray.state.ann_index import (
        build_ivf_index,
        ivf_index_topk,
    )

    idx = str(tmp_path / "ivf")
    build_ivf_index(
        ray.data.read_parquet(f"{SF}/embeddings.parquet"), idx, n_clusters=8
    )
    indexed = ivf_index_topk(idx, ANN_QUERY_IDS, k=10, n_probe=2).to_pandas()
    recompute = ivf_topk(
        ray.data.read_parquet(f"{SF}/embeddings.parquet"),
        ANN_QUERY_IDS, k=10, n_clusters=8, n_probe=2,
    ).to_pandas()
    key = ["query_id", "rank"]
    assert indexed.sort_values(key).reset_index(drop=True).equals(
        recompute.sort_values(key).reset_index(drop=True)
    )
    # the index holds every corpus vector, split across cell dirs
    import glob

    import pyarrow.parquet as pq

    total = sum(
        pq.ParquetFile(f).metadata.num_rows
        for f in glob.glob(idx + "/cell=*/*.parquet")
    )
    assert total == ray.data.read_parquet(f"{SF}/embeddings.parquet").count()


def test_ivf_index_append(ray_session, tmp_path):
    """Appending a dump re-uses the EXISTING codebook: appended vectors land
    in their nearest cells, become searchable, and an identical vector to a
    query id's own embedding ranks first among its new neighbors."""
    import glob

    import ray.data

    from logstash_filter_geoip_ray.state.ann_index import (
        append_ivf_index,
        build_ivf_index,
        ivf_index_topk,
    )

    idx = str(tmp_path / "ivf_a")
    build_ivf_index(
        ray.data.read_parquet(f"{SF}/embeddings.parquet"), idx, n_clusters=8
    )
    before = len(glob.glob(idx + "/cell=*/*.parquet"))
    # append exact copies of two existing vectors under fresh ids
    src = ray.data.read_parquet(f"{SF}/embeddings.parquet").to_pandas()
    dup = src[src.vec_id.isin(list(ANN_QUERY_IDS)[:2])].copy()
    dup["vec_id"] = dup["vec_id"] + 1_000_000
    dup_tbl = pa.table(
        {
            "vec_id": pa.array(dup["vec_id"].tolist(), type=pa.int64()),
            "embedding": pa.array(
                [list(map(float, v)) for v in dup["embedding"]],
                type=pa.list_(pa.float64()),
            ),
        }
    )
    append_ivf_index(ray.data.from_arrow(dup_tbl), idx)
    assert len(glob.glob(idx + "/cell=*/*.parquet")) > before
    out = ivf_index_topk(idx, list(ANN_QUERY_IDS)[:2], k=3, n_probe=2).to_pandas()
    for q in list(ANN_QUERY_IDS)[:2]:
        # the appended exact copy (cosine 1.0) must appear at rank 1
        top = out[(out.query_id == q) & (out["rank"] == 1)]["neighbor_id"].iloc[0]
        assert top == q + 1_000_000


def test_ann_ivf_recall(ray_session):
    """IVF top-k (spherical k-means codebook, n_probe cells) must recover
    most of the exact top-k, and more probes must not lower recall."""
    import ray.data

    from logstash_filter_geoip_ray.stages.similarity import brute_force_topk, ivf_topk

    ds = ray.data.read_parquet(f"{SF}/embeddings.parquet")
    exact = brute_force_topk(ds, ANN_QUERY_IDS, k=10).to_pandas()

    def recall(n_probe):
        approx = ivf_topk(
            ray.data.read_parquet(f"{SF}/embeddings.parquet"),
            ANN_QUERY_IDS, k=10, n_clusters=8, n_probe=n_probe,
        ).to_pandas()
        rs = []
        for q in ANN_QUERY_IDS:
            e = set(exact[exact.query_id == q].neighbor_id)
            a = set(approx[approx.query_id == q].neighbor_id)
            rs.append(len(e & a) / len(e))
        return float(np.mean(rs))

    r2, r8 = recall(2), recall(8)
    assert r2 >= 0.5
    assert r8 >= r2  # all cells probed → brute-force-equivalent recall
    assert r8 == 1.0  # n_probe == n_clusters scores every vector


def test_language_id_heuristic():
    from logstash_filter_geoip_ray.functions.textstats import language_id

    out = language_id(
        [
            "the cat sat on the mat and it is a good day for the cat",
            "der hund ist in das haus und der garten ist schön",
            "le chat est sur la table et il est pour le jardin",
            "xyzzy plugh",
            None,
        ]
    )
    assert out[0] == "en"
    assert out[1] == "de"
    assert out[2] == "fr"
    assert out[3] == "und"
    assert out[4] is None


def test_quality_features_vector():
    from logstash_filter_geoip_ray.functions.textstats import quality_features

    f = quality_features(["hello, world! the end.", "", None])
    assert f["token_count"][0] == 4
    assert f["char_len"][0] == 22
    assert 0 < f["punct_ratio"][0] < 0.3
    assert f["token_count"][1] == 0 and f["token_count"][2] == 0


def test_rolling_fingerprint_shift_tolerant():
    from logstash_filter_geoip_ray.functions.textstats import rolling_fingerprint

    base = "w%d " * 30 % tuple(range(30))
    shifted = "prefix " + base
    fp = rolling_fingerprint([base, shifted, "zz yy"])
    assert fp[0] == fp[1]  # min-hash window survives a prefix shift
    assert fp[0] != fp[2]


class TestMultimodal:
    def test_decode_stage_schema(self, ray_session):
        import ray.data

        from logstash_filter_geoip_ray.stages.multimodal import (
            DecodeImageStage,
            synthesize_media_table,
        )

        tbl = synthesize_media_table(64)
        ds = ray.data.from_arrow(tbl)
        out = ds.map_batches(
            DecodeImageStage,
            fn_constructor_kwargs={"strict": False},
            batch_format="pyarrow",
            batch_size=16,
            concurrency=2,
        )
        res = out.take_all()
        assert len(res) == 64
        assert len(res[0]["features"]) == DecodeImageStage.FEATURE_DIM
        assert "payload" not in res[0]  # bytes dropped before shuffle
        # deterministic across runs
        res2 = ray.data.from_arrow(synthesize_media_table(64)).map_batches(
            DecodeImageStage, batch_format="pyarrow", batch_size=16, concurrency=2
        ).take_all()
        assert np.allclose(res[0]["features"], res2[0]["features"])

    def test_strict_mode_raises(self):
        from logstash_filter_geoip_ray.stages.multimodal import (
            DecodeImageStage,
            synthesize_media_table,
        )

        stage = DecodeImageStage(strict=True)
        with pytest.raises(NotImplementedError, match="video"):
            stage(synthesize_media_table(2))

    def test_ppm_real_decode_roundtrip(self):
        """The PPM path is a REAL decoder: pixel-exact roundtrip and true
        per-channel statistics in the feature vector."""
        from logstash_filter_geoip_ray.stages.multimodal import (
            DecodeImageStage,
            decode_ppm,
            encode_ppm,
        )

        rng = np.random.default_rng(11)
        px = rng.integers(0, 256, size=(24, 32, 3), dtype=np.uint8)
        payload = encode_ppm(px)
        assert (decode_ppm(payload) == px).all()
        feats = DecodeImageStage(strict=True)._decode_features(payload, {"format": "ppm"})
        assert feats[0] == 32 and feats[1] == 24  # width, height
        assert np.allclose(feats[2:5], px.mean(axis=(0, 1)).astype(np.float32))
        assert np.allclose(feats[5:8], px.std(axis=(0, 1)).astype(np.float32))
        with pytest.raises(ValueError):
            decode_ppm(b"JFIF not a ppm")


    def test_png_real_decode_roundtrip_all_filters(self):
        """decode_png is a REAL zero-dependency decoder: pixel-exact
        round-trip for every scanline filter (None/Sub/Up/Average/Paeth,
        plus a mixed-filter image) and every channel count (gray,
        gray+alpha, RGB, RGBA)."""
        from logstash_filter_geoip_ray.stages.multimodal import (
            decode_png,
            encode_png,
        )

        rng = np.random.default_rng(23)
        for channels in (1, 2, 3, 4):
            px = rng.integers(0, 256, size=(13, 17, channels), dtype=np.uint8)
            for ft in (0, 1, 2, 3, 4, "mixed"):
                payload = encode_png(px, filter_type=ft)
                got = decode_png(payload)
                assert got.shape == px.shape, (channels, ft)
                assert (got == px).all(), (channels, ft)

    def test_png_malformed_and_unsupported(self):
        from logstash_filter_geoip_ray.stages.multimodal import (
            decode_png,
            encode_png,
        )

        px = np.zeros((4, 4, 3), dtype=np.uint8)
        good = encode_png(px)
        with pytest.raises(ValueError, match="not a PNG"):
            decode_png(b"JFIF nope")
        # flip one IDAT byte: CRC must catch it
        bad = bytearray(good)
        bad[len(bad) - 20] ^= 0xFF
        with pytest.raises(ValueError):
            decode_png(bytes(bad))
        with pytest.raises(ValueError, match="truncated|missing"):
            decode_png(good[: len(good) - 30])

    def test_png_decode_stage_features(self, ray_session):
        """DecodeImageStage decodes PNG payloads natively (no PIL) in strict
        mode and emits true per-channel statistics."""
        import ray.data

        from logstash_filter_geoip_ray.stages.multimodal import (
            IMAGE_META_TYPE,
            DecodeImageStage,
            encode_png,
        )

        rng = np.random.default_rng(31)
        px = rng.integers(0, 256, size=(20, 28, 3), dtype=np.uint8)
        payload = encode_png(px, filter_type="mixed")
        stage = DecodeImageStage(strict=True)
        feats = stage._decode_features(payload, {"format": "png"})
        assert feats[0] == 28 and feats[1] == 20
        assert np.allclose(feats[2:5], px.mean(axis=(0, 1)).astype(np.float32))
        # end-to-end through the actor-pool stage
        tbl = pa.table(
            {
                "media_id": pa.array([1], type=pa.int64()),
                "payload": pa.array([payload], type=pa.binary()),
                "meta": pa.array(
                    [{"width": 28, "height": 20, "format": "png"}],
                    type=IMAGE_META_TYPE,
                ),
            }
        )
        out = (
            ray.data.from_arrow(tbl)
            .map_batches(
                DecodeImageStage,
                fn_constructor_kwargs={"strict": True},
                batch_format="pyarrow",
                concurrency=1,
            )
            .take_all()
        )
        assert np.allclose(out[0]["features"], feats)

    def test_wav_real_decode_features(self, ray_session):
        """WAV decode is real (stdlib wave): a synthesized sine has known
        RMS (amp/√2), zero-crossing rate (2f/sr) and peak."""
        import ray.data

        from logstash_filter_geoip_ray.stages.multimodal import (
            AudioFeatureStage,
            decode_wav,
            encode_wav,
        )

        sr, f, amp = 16000, 440, 0.5
        t = np.arange(sr)  # 1 second
        sine = (amp * 32767 * np.sin(2 * np.pi * f * t / sr)).astype(np.int16)
        payload = encode_wav(sine, sr)
        samples, rate = decode_wav(payload)
        assert rate == sr and (samples == sine).all()

        tbl = pa.table(
            {
                "media_id": pa.array([1, 2], type=pa.int64()),
                "payload": pa.array([payload, b"not a wav"], type=pa.binary()),
            }
        )
        out = (
            ray.data.from_arrow(tbl)
            .map_batches(AudioFeatureStage(), batch_format="pyarrow")
            .to_pandas()
            .set_index("media_id")
        )
        good = out.loc[1]
        assert good["duration_ms"] == 1000 and good["sample_rate"] == sr
        assert abs(good["rms_milli"] - amp / np.sqrt(2) * 1000) <= 2
        assert abs(good["zcr_milli"] - 2 * f * 1000 / sr) <= 2
        assert abs(good["peak_milli"] - amp * 1000) <= 2
        assert pd.isna(out.loc[2]["duration_ms"])  # malformed → null row

    def test_frame_sampling(self):
        from logstash_filter_geoip_ray.stages.multimodal import (
            FrameSampleStage,
            synthesize_media_table,
        )

        tbl = synthesize_media_table(3, payload_bytes=1024)
        out = FrameSampleStage(every_k=4, frame_bytes=64)(tbl)
        # 1024/64 = 16 frames, every 4th → 4 rows per media
        assert out.num_rows == 12
        assert out["frame_idx"].to_pylist()[:4] == [0, 4, 8, 12]

    def test_y4m_roundtrip_pixel_exact(self):
        """YUV4MPEG2 codec vectors: grayscale round-trips bit-exactly in
        every colourspace (U=V=128 is lossless through the JFIF matrix and
        constant 2x2 blocks survive 4:2:0); constant-colour frames survive
        C444 within the documented ±1 rounding; malformed streams raise."""
        import pytest

        from logstash_filter_geoip_ray.functions.y4m import (
            decode_y4m_frames,
            encode_y4m,
        )

        # all 256 gray levels across 4 frames of 8x8
        grays = np.arange(256, dtype=np.uint8).reshape(4, 8, 8)
        frames = [np.repeat(g[..., None], 3, axis=-1) for g in grays]
        for cs in ("Cmono", "C444", "C420jpeg", "C420"):
            payload = encode_y4m(frames, fps=(30, 1), colourspace=cs)
            got = decode_y4m_frames(payload)
            assert len(got) == 4
            for a, b in zip(got, frames):
                assert (a == b).all(), cs

        # constant-colour chroma content: C444 within ±1 per channel
        col = np.zeros((4, 6, 3), np.uint8)
        col[..., 0], col[..., 1], col[..., 2] = 200, 30, 90
        got = decode_y4m_frames(encode_y4m([col], colourspace="C444"))[0]
        assert np.abs(got.astype(int) - col.astype(int)).max() <= 1

        with pytest.raises(ValueError, match="even dimensions"):
            encode_y4m([np.zeros((5, 4, 3), np.uint8)])
        with pytest.raises(ValueError, match="not a YUV4MPEG2"):
            decode_y4m_frames(b"RIFFxxxx")
        ok = encode_y4m(frames)
        with pytest.raises(ValueError, match="truncated"):
            decode_y4m_frames(ok[:-5])

    def test_frame_sampling_y4m(self):
        """FrameSampleStage on a YUV4MPEG2 payload: every k-th frame emitted
        as standalone PPM whose pixels equal the encoded source frames."""
        from logstash_filter_geoip_ray.functions.y4m import encode_y4m
        from logstash_filter_geoip_ray.stages.multimodal import (
            FrameSampleStage,
            decode_ppm,
        )

        frames = [
            np.full((6, 8, 3), 17 * i, dtype=np.uint8) for i in range(8)
        ]
        payload = encode_y4m(frames, colourspace="C420jpeg")
        tbl = pa.table(
            {
                "media_id": pa.array([7], type=pa.int64()),
                "payload": pa.array([payload], type=pa.binary()),
            }
        )
        out = FrameSampleStage(every_k=3, strict=True)(tbl)
        assert out["frame_idx"].to_pylist() == [0, 3, 6]
        for idx, frame in zip(out["frame_idx"].to_pylist(), out["frame"].to_pylist()):
            assert (decode_ppm(frame) == frames[idx]).all()


def test_dup_clusters_matches_recursive_oracle(ray_session, oracle_con):
    df = DATA_QUERIES["dup_clusters"](SF).to_pandas().sort_values("doc_id").reset_index(drop=True)
    odf = oracle_con.sql(DATA_ORACLES["dup_clusters"]).df().sort_values("doc_id").reset_index(drop=True)
    pd.testing.assert_frame_equal(df.astype(str), odf[df.columns].astype(str))
    # every cluster id is its own member and the minimum of its members
    grp = df.groupby("cluster_id")["doc_id"].min()
    assert (grp.index == grp.values).all()


def test_hll_accuracy_and_merge():
    from logstash_filter_geoip_ray.functions.sketches import HLL

    h = HLL(p=14).add_strings(str(i) for i in range(100_000))
    est = h.estimate()
    assert abs(est - 100_000) / 100_000 < 0.02
    # mergeability: two halves merged == estimate over the union
    h1 = HLL(p=14).add_strings(str(i) for i in range(50_000))
    h2 = HLL(p=14).add_strings(str(i) for i in range(25_000, 100_000))
    merged = HLL.from_bytes(h1.to_bytes()).merge(HLL.from_bytes(h2.to_bytes()))
    assert abs(merged.estimate() - est) / est < 1e-9  # identical registers


def test_approx_distinct_users_close_to_exact(ray_session, oracle_con):
    ad = DATA_QUERIES["approx_distinct_users"](SF).to_pandas()
    ex = oracle_con.sql(
        "SELECT event_type, count(DISTINCT user_id) AS x FROM events GROUP BY 1"
    ).df()
    m = ad.merge(ex, on="event_type")
    assert ((m["approx_distinct"] - m["x"]).abs() / m["x"]).max() < 0.03


def test_dedup_filtered_docs_matches_oracle(ray_session, oracle_con):
    df = DATA_QUERIES["dedup_filtered_docs"](SF).to_pandas().reset_index(drop=True)
    odf = oracle_con.sql(DATA_ORACLES["dedup_filtered_docs"]).df().reset_index(drop=True)
    pd.testing.assert_frame_equal(df.astype(str), odf.astype(str))
    # survivors include every cluster representative and no non-representative
    clusters = DATA_QUERIES["dup_clusters"](SF).to_pandas()
    reps = set(clusters["cluster_id"])
    non_reps = set(clusters[clusters.doc_id != clusters.cluster_id]["doc_id"])
    kept = set(df["doc_id"])
    assert reps <= kept
    assert not (non_reps & kept)


def test_asof_last_signup_matches_oracle(ray_session, oracle_con):
    df = DATA_QUERIES["asof_last_signup"](SF).to_pandas().reset_index(drop=True)
    odf = oracle_con.sql(DATA_ORACLES["asof_last_signup"]).df().reset_index(drop=True)
    pd.testing.assert_frame_equal(df.astype(str), odf[df.columns].astype(str))
    # self-inclusive: signup rows carry their own timestamp
    ev = oracle_con.sql(
        "SELECT event_id, epoch_us(ts) t FROM events WHERE event_type='signup'"
    ).df()
    merged = ev.merge(df, on="event_id")
    assert (merged["t"] == merged["last_marker_us"]).all()


def test_label_propagation_equals_union_find(ray_session):
    """The distributed min-label-propagation components must equal the
    driver union-find on a random graph (long chains included)."""
    import ray.data

    from logstash_filter_geoip_ray.stages.dedup import (
        dup_clusters,
        label_propagation_clusters,
    )

    rng = np.random.default_rng(3)
    a = rng.integers(0, 2000, 1500)
    b = rng.integers(0, 2000, 1500)
    m = a != b
    pairs = pa.table(
        {
            "a": pa.array(np.minimum(a[m], b[m]), type=pa.int64()),
            "b": pa.array(np.maximum(a[m], b[m]), type=pa.int64()),
        }
    )
    uf = dup_clusters(ray.data.from_arrow(pairs)).to_pandas().sort_values("doc_id").reset_index(drop=True)
    lp = (
        label_propagation_clusters(ray.data.from_arrow(pairs))
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(uf, lp)
    # a pure 12-node chain needs diameter rounds — stresses convergence
    chain = pa.table(
        {
            "a": pa.array(list(range(100, 111)), type=pa.int64()),
            "b": pa.array(list(range(101, 112)), type=pa.int64()),
        }
    )
    out = label_propagation_clusters(ray.data.from_arrow(chain)).to_pandas()
    assert (out["cluster_id"] == 100).all() and len(out) == 12


def test_quantile_sketch_accuracy_and_merge():
    from logstash_filter_geoip_ray.functions.sketches import QuantileSketch

    rng = np.random.default_rng(9)
    data = rng.normal(100, 15, 200_000)
    s = QuantileSketch().add(data)
    for q in (0.5, 0.9, 0.99):
        exact = np.quantile(data, q)
        # rank-error bound: compare by rank displacement, not value
        approx = s.quantile(q)
        rank = (data <= approx).mean()
        assert abs(rank - q) < 0.02
    # merge of halves ≈ whole
    s1 = QuantileSketch().add(data[:100_000])
    s2 = QuantileSketch().add(data[100_000:])
    merged = s1.merge(s2)
    rank = (data <= merged.quantile(0.5)).mean()
    assert abs(rank - 0.5) < 0.02


def test_value_quantiles_close_to_exact(ray_session, oracle_con):
    vq = DATA_QUERIES["value_quantiles"](SF).to_pandas()
    ex = oracle_con.sql(
        """SELECT event_type, quantile_cont(value, 0.5) q50x,
                  quantile_cont(value, 0.9) q90x, quantile_cont(value, 0.99) q99x
           FROM events GROUP BY 1"""
    ).df()
    m = vq.merge(ex, on="event_type")
    spread = oracle_con.sql(
        "SELECT max(value) - min(value) AS s FROM events"
    ).df()["s"][0]
    for a, b in (("q50", "q50x"), ("q90", "q90x"), ("q99", "q99x")):
        assert ((m[a] - m[b]).abs() / spread).max() < 0.05


@pytest.fixture(scope="module")
def tpch_con():
    con = duckdb.connect()
    for t in ("customer", "nation", "region", "orders", "lineitem", "part",
              "supplier"):
        con.execute(
            f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{SF}/{t}.parquet')"
        )
    return con


@pytest.mark.parametrize(
    "name", ["customers_per_region", "orders_per_nation", "pagerank_nodes",
             "pricing_summary", "revenue_rollup", "promo_revenue",
             "supplier_revenue", "part_supplier_counts", "big_part_revenue"]
)
def test_join_queries_match_oracle(ray_session, tpch_con, name):
    df = DATA_QUERIES[name](SF).to_pandas().reset_index(drop=True)
    odf = tpch_con.sql(DATA_ORACLES[name]).df().reset_index(drop=True)
    pd.testing.assert_frame_equal(df.astype(str), odf[list(df.columns)].astype(str))


def test_hash_join_inner_semantics(ray_session):
    import ray.data

    from logstash_filter_geoip_ray.stages.joins import hash_join

    left = ray.data.from_arrow(
        pa.table({"k": pa.array([1, 2, 3, 3], type=pa.int64()), "lv": ["a", "b", "c", "d"]})
    )
    right = ray.data.from_arrow(
        pa.table({"k2": pa.array([3, 3, 4], type=pa.int64()), "rv": ["x", "y", "z"]})
    )
    out = hash_join(left, right, "k", "k2", num_buckets=4).to_pandas()
    # inner join: key 3 has 2x2 matches, keys 1/2/4 drop
    assert len(out) == 4
    assert set(out["lv"]) == {"c", "d"} and set(out["rv"]) == {"x", "y"}


def test_hash_join_rejects_name_collision(ray_session):
    """Right-side non-key columns sharing a left name must fail loudly, not
    silently carry only the left values."""
    import ray.data

    from logstash_filter_geoip_ray.stages.joins import hash_join

    left = ray.data.from_arrow(pa.table({"k": [1, 2], "v": ["a", "b"]}))
    right = ray.data.from_arrow(pa.table({"k2": [1, 2], "v": ["x", "y"]}))
    with pytest.raises(ValueError, match="collide"):
        hash_join(left, right, "k", "k2", num_buckets=4)
    # a shared-name join key alone is fine
    same_key = ray.data.from_arrow(pa.table({"k": [1], "rv": ["x"]}))
    out = hash_join(left, same_key, "k", "k", num_buckets=4).to_pandas()
    assert len(out) == 1 and out["rv"][0] == "x"


@pytest.mark.parametrize("lw,rw", [("int64", "int64"), ("int32", "int64"), ("int64", "int32")])
def test_hash_join_mixed_widths_and_negatives(ray_session, lw, rw):
    """Regression: width-sensitive key hashing and one-sided buckets."""
    import ray.data

    from logstash_filter_geoip_ray.stages.joins import hash_join

    rng = np.random.default_rng(7)
    lkeys = rng.integers(-50, 50, 300)
    rkeys = rng.integers(-50, 200, 80)  # mostly disjoint → one-sided buckets
    left = pa.table({"k": pa.array(lkeys, type=getattr(pa, lw)()), "lv": list(range(300))})
    right = pa.table({"k2": pa.array(rkeys, type=getattr(pa, rw)()), "rv": list(range(80))})
    out = (
        hash_join(ray.data.from_arrow(left), ray.data.from_arrow(right), "k", "k2", num_buckets=64)
        .to_pandas()
        .sort_values(["lv", "rv"])
        .reset_index(drop=True)
    )
    expected = (
        left.to_pandas()
        .merge(right.to_pandas(), left_on="k", right_on="k2")
        .sort_values(["lv", "rv"])
        .reset_index(drop=True)
    )
    assert len(out) == len(expected)
    pd.testing.assert_frame_equal(
        out[["k", "lv", "rv"]].astype("int64"), expected[["k", "lv", "rv"]].astype("int64")
    )
    # no float64 leakage on int keys
    assert str(out["k"].dtype).startswith("int")


# -- contamination / quality / inverted index -------------------------------


def test_contamination_flags_exact_gram_overlap(ray_session):
    import ray.data

    from logstash_filter_geoip_ray.stages.contamination import (
        benchmark_shingles,
        contaminated_docs,
    )

    bench_tbl = pa.table(
        {"doc_id": [0], "text": ["the quick brown fox jumps over the lazy dog"]}
    )
    train_tbl = pa.table(
        {
            "doc_id": [1, 2, 3],
            "text": [
                # shares the 4-gram "quick brown fox jumps" AND
                # "brown fox jumps over" → 2 distinct hit grams
                "a quick brown fox jumps over fences",
                "completely different words entirely here now",
                "fox jumps over the lazy dog indeed",  # 3 hit grams
            ],
        }
    )
    bench = benchmark_shingles(ray.data.from_arrow(bench_tbl), n=4)
    out = (
        contaminated_docs(ray.data.from_arrow(train_tbl), bench, n=4)
        .sort("doc_id")
        .to_pandas()
    )
    assert out["doc_id"].tolist() == [1, 3]
    assert out["n_hit_grams"].tolist() == [2, 3]


def test_contamination_empty_benchmark_flags_nothing(ray_session):
    import ray.data

    from logstash_filter_geoip_ray.stages.contamination import contaminated_docs

    train = ray.data.from_arrow(pa.table({"doc_id": [1], "text": ["a b c d e"]}))
    out = contaminated_docs(train, pa.array([], type=pa.string()), n=4).to_pandas()
    assert len(out) == 0


def test_quality_filter_drops_repetitive_doc(ray_session):
    import ray.data

    from logstash_filter_geoip_ray.stages.textops import quality_filter

    clean = " ".join(f"w{i}" for i in range(30))  # 30 distinct words
    spam = " ".join(["buy"] * 30)  # 100% repetition
    short = "too short"
    ds = ray.data.from_arrow(
        pa.table({"doc_id": [1, 2, 3], "text": [clean, spam, short]})
    )
    out = quality_filter(ds).to_pandas()
    assert out["doc_id"].tolist() == [1]
    row = out.iloc[0]
    assert row["token_total"] == 30 and row["dup_milli"] == 0
    # 1/30 → 33 milli
    assert row["top_milli"] == (1000 * 1) // 30


def test_inverted_index_postings(ray_session):
    import ray.data

    from logstash_filter_geoip_ray.stages.textops import inverted_index

    ds = ray.data.from_arrow(
        pa.table(
            {
                "doc_id": [10, 2, 7],
                "text": ["apple banana apple", "banana cherry", "apple"],
            }
        )
    )
    out = inverted_index(ds).to_pandas().set_index("w")
    # apple appears in docs 10 and 7 (twice in 10 → still one posting)
    assert out.loc["apple", "df"] == 2
    assert out.loc["apple", "postings"] == "7,10"
    assert out.loc["banana", "postings"] == "2,10"
    assert out.loc["cherry", "postings"] == "2"


def test_hash_shuffle_deterministic_and_seed_sensitive(ray_session):
    import ray.data

    from logstash_filter_geoip_ray.stages.packing import hash_shuffle

    tbl = pa.table({"doc_id": list(range(50))})
    a = hash_shuffle(ray.data.from_arrow(tbl), seed="e1").to_pandas()
    b = hash_shuffle(ray.data.from_arrow(tbl), seed="e1").to_pandas()
    c = hash_shuffle(ray.data.from_arrow(tbl), seed="e2").to_pandas()
    pd.testing.assert_frame_equal(a, b)  # reproducible
    assert a["doc_id"].tolist() != c["doc_id"].tolist()  # new epoch, new order
    assert sorted(a["doc_id"]) == sorted(c["doc_id"]) == list(range(50))
    assert a["doc_id"].tolist() != list(range(50))  # actually shuffled


def test_pack_sequences_chunk_assignment(ray_session):
    import ray.data

    from logstash_filter_geoip_ray.stages.packing import pack_sequences

    # one bucket, chunk=10: docs of 4/4/4 tokens → starts 0,4,8 → chunks 0,0,0
    # then a 7-token doc starts at 12 → chunk 1
    ds = ray.data.from_arrow(
        pa.table(
            {
                "doc_id": [0, 1, 2, 3],
                "text": ["a b c d", "e f g h", "i j k l", "m n o p q r s"],
            }
        )
    )
    out = pack_sequences(ds, chunk_tokens=10, num_buckets=1).to_pandas()
    assert out["start_tok"].tolist() == [0, 4, 8, 12]
    assert out["chunk_id"].tolist() == [0, 0, 0, 1]
    assert (out["bucket"] == 0).all()


def test_pack_sequences_invariants(ray_session):
    """Property: within every bucket, start_tok is the exact running token
    sum in doc_id order, chunk ids are non-decreasing, and totals equal the
    corpus token count."""
    from hypothesis import given, settings, strategies as st

    import ray.data

    from logstash_filter_geoip_ray.stages.packing import pack_sequences

    @settings(max_examples=10, deadline=None)
    @given(
        st.lists(
            st.integers(min_value=0, max_value=30), min_size=1, max_size=40
        ),
        st.integers(min_value=1, max_value=64),
    )
    def check(token_counts_list, chunk):
        texts = [" ".join("w" for _ in range(n)) for n in token_counts_list]
        tbl = pa.table({"doc_id": list(range(len(texts))), "text": texts})
        out = (
            pack_sequences(
                ray.data.from_arrow(tbl), chunk_tokens=chunk, num_buckets=3
            )
            .to_pandas()
            .sort_values("doc_id")
            .reset_index(drop=True)
        )
        assert len(out) == len(texts)
        for _, grp in out.groupby("bucket"):
            g = grp.sort_values("doc_id")
            expect = 0
            for doc_id, start in zip(g["doc_id"], g["start_tok"]):
                assert start == expect
                expect += token_counts_list[doc_id]
            assert (g["chunk_id"].to_numpy() == g["start_tok"].to_numpy() // chunk).all()
            assert (np.diff(g["chunk_id"].to_numpy()) >= 0).all()

    check()


def test_sessionize_vectorized_matches_naive(ray_session):
    """Property: the bucket-vectorized sessionizer equals a naive per-key
    Python reference on random event streams."""
    import collections

    import ray.data

    from logstash_filter_geoip_ray.pipelines.data_ops import SESSION_GAP_SEC
    from logstash_filter_geoip_ray.stages.windows import sessionize

    rng = np.random.default_rng(17)
    n = 4000
    users = [f"u{int(i)}" for i in rng.integers(0, 200, n)]  # 200 keys
    ts = np.sort(rng.integers(0, 3 * 86400 * 1_000_000, n))
    tbl = pa.table(
        {
            "user_id": users,
            "ts": pa.array(ts, type=pa.timestamp("us")),
        }
    )
    got = (
        sessionize(ray.data.from_arrow(tbl), gap_sec=SESSION_GAP_SEC)
        .to_pandas()
        .set_index("user_id")
    )
    # naive reference
    per_user = collections.defaultdict(list)
    for u, t in zip(users, ts):
        per_user[u].append(int(t))
    for u, times in per_user.items():
        times.sort()
        sessions = [1]
        for prev, cur in zip(times, times[1:]):
            if cur - prev > SESSION_GAP_SEC * 1_000_000:
                sessions.append(1)
            else:
                sessions[-1] += 1
        assert got.loc[u, "n_events"] == len(times)
        assert got.loc[u, "n_sessions"] == len(sessions)
        assert got.loc[u, "max_session_events"] == max(sessions)
    assert len(got) == len(per_user)


def test_mix_sample_rates_graded(ray_session):
    """Higher-rate sources must keep proportionally more documents, and the
    filter is a pure function of (doc_id, source)."""
    out = DATA_QUERIES["mix_sample"](SF).to_pandas()
    kept = out.groupby("source").size()
    low = kept.get("src0", 0) + kept.get("src1", 0) + kept.get("src2", 0)
    high = kept.get("src17", 0) + kept.get("src18", 0) + kept.get("src19", 0)
    assert high > 2 * low  # rate 865-955 milli vs 100-190 milli
    again = DATA_QUERIES["mix_sample"](SF).to_pandas()
    assert again.equals(out)


def test_hash_shuffle_fast_contract(ray_session):
    """The SipHash scale-path shuffle obeys the same contract as the
    md5 oracle-path one: reproducible, seed-sensitive, a permutation."""
    import ray.data

    from logstash_filter_geoip_ray.stages.packing import hash_shuffle_fast

    tbl = pa.table({"doc_id": list(range(100))})
    a = hash_shuffle_fast(ray.data.from_arrow(tbl), seed="e1").to_pandas()
    b = hash_shuffle_fast(ray.data.from_arrow(tbl), seed="e1").to_pandas()
    c = hash_shuffle_fast(ray.data.from_arrow(tbl), seed="e2").to_pandas()
    pd.testing.assert_frame_equal(a, b)
    assert a["doc_id"].tolist() != c["doc_id"].tolist()
    assert sorted(a["doc_id"]) == sorted(c["doc_id"]) == list(range(100))
    assert a["doc_id"].tolist() != list(range(100))


def test_top_terms_semantics(ray_session, oracle_con):
    """TF-IDF top-terms: rare distinctive words outrank ubiquitous ones."""
    out = DATA_QUERIES["top_terms"](SF).to_pandas()
    assert (out.groupby("doc_id")["rk"].max() <= 3).all()
    assert (out.groupby("doc_id")["rk"].min() == 1).all()
    # a word present in EVERY doc has idf floor (1000*N)//N = 1000; any word
    # in half the docs has idf >= 2000 — so rank-1 terms are never the most
    # common word unless tf compensates: spot-check score monotonicity per doc
    for _, g in list(out.groupby("doc_id"))[:20]:
        s = g.sort_values("rk")["score"].to_numpy()
        assert (s[:-1] >= s[1:]).all()


def test_contamination_fuzz_vs_reference(ray_session):
    """Property: the vectorized gram-build + is_in probe equals a naive
    per-doc Python reference on random word soups (repeats, short docs,
    cross-row adjacency)."""
    from hypothesis import given, settings, strategies as st

    import ray.data

    from logstash_filter_geoip_ray.stages.contamination import contaminated_docs

    word = st.sampled_from(["a", "b", "c", "d", "e"])

    @settings(max_examples=15, deadline=None)
    @given(
        st.lists(st.lists(word, min_size=0, max_size=12), min_size=1, max_size=8),
        st.lists(st.lists(word, min_size=4, max_size=8), min_size=1, max_size=3),
    )
    def check(train_words, bench_words):
        n = 3
        train = [" ".join(ws) for ws in train_words]
        bench_set = set()
        for ws in bench_words:
            bench_set |= {
                " ".join(ws[i : i + n]) for i in range(len(ws) - n + 1)
            }
        expected = {}
        for i, ws in enumerate(train_words):
            grams = {" ".join(ws[j : j + n]) for j in range(len(ws) - n + 1)}
            hits = grams & bench_set
            if hits:
                expected[i] = len(hits)
        tbl = pa.table({"doc_id": list(range(len(train))), "text": train})
        df = contaminated_docs(
            ray.data.from_arrow(tbl), pa.array(sorted(bench_set)), n=n
        ).to_pandas()
        # Ray quirk: to_pandas() on an all-empty dataset loses the columns
        # (schema() still has them) — normalize to the empty mapping
        got = {} if df.empty else df.set_index("doc_id")["n_hit_grams"].to_dict()
        assert got == expected

    check()


def test_text_oracles_on_adversarial_whitespace(ray_session, tmp_path):
    """Whitespace parity net: tab/newline-padded, whitespace-only, empty and
    NULL texts must hash-match between engine and oracle for every
    documents-table text operator (DuckDB's bare trim() strips spaces only —
    regression test for the trim-semantics divergence)."""
    import pyarrow.parquet as pq

    docs = pa.table(
        {
            "doc_id": list(range(8)),
            "text": [
                "\ta b c d e f g h i j k l m n o p q r s t u\t",
                "\t", "\n\n", None, " x y z ", "a " * 30,
                "\tq w e r t y u i o p a s d f g h j k l z x c\n", "",
            ],
            "lang": ["en"] * 8,
            "source": [f"src{i}" for i in range(8)],
            "n_chars": [0] * 8,
        }
    )
    pq.write_table(docs, str(tmp_path / "documents.parquet"))
    con = duckdb.connect()
    con.execute(
        f"CREATE VIEW documents AS SELECT * FROM read_parquet('{tmp_path}/documents.parquet')"
    )
    for name in ["top_terms", "packed_chunks", "pack_sequences", "quality_filter",
                 "inverted_index", "doc_stats", "vocab_top", "masked_docs",
                 "contaminated_docs", "dedup_exact", "lang_stats",
                 "repetition_filter", "simhash_pairs", "collocations",
                 "shared_paragraphs", "dedup_paragraphs",
                 "quality_top_decile", "bloom_dedup",
                 "rag_chunks", "freq_spectrum", "dup_ngram_spans"]:
        d = DATA_QUERIES[name](str(tmp_path)).to_pandas()
        o = con.sql(DATA_ORACLES[name]).df()
        assert len(d) == len(o), f"{name}: {len(d)} vs {len(o)} rows"
        if len(d):
            a, b = _norm(d), _norm(o)
            pd.testing.assert_frame_equal(a, b, obj=name)


def test_minhash_band_stage_matches_per_row_reference():
    """The vectorized batch kernel (Arrow gram explode + pandas C hash +
    reduceat segment-min) must emit exactly the (band_key, id) rows the
    per-row reference path (signature() + band_keys()) produces — including
    null text, empty/whitespace-only text, and short docs (< k words) whose
    single shingle is the joined token list."""
    from logstash_filter_geoip_ray.stages.dedup import MinHashBandStage

    texts = [
        "the quick brown fox jumps over the lazy dog",
        None,
        "",
        "   \t\n  ",
        "one",
        "two words",
        "exactly three words",
        "the quick brown fox jumps over the sleepy dog",
        "  leading and trailing   whitespace \t mid\ngaps  ",
        "the quick brown fox jumps over the lazy dog",  # exact dup of row 0
    ]
    batch = pa.table(
        {
            "doc_id": pa.array(list(range(10)), type=pa.int64()),
            "text": pa.array(texts, type=pa.string()),
        }
    )
    stage = MinHashBandStage(num_perm=32, bands=8, shingle_k=3)
    got = stage(batch).to_pandas()
    got_rows = set(zip(got["band_key"], got["doc_id"]))

    expect = set()
    for i, t in enumerate(texts):
        sig = stage.hasher.signature(t)
        if sig is None:
            continue
        for key in stage.hasher.band_keys(sig):
            expect.add((key, i))
    assert got_rows == expect
    # exact dup docs share every band key
    keys0 = {k for k, d in got_rows if d == 0}
    keys9 = {k for k, d in got_rows if d == 9}
    assert keys0 == keys9 and len(keys0) == 8


def test_jaccard_block_cap_raises(ray_session):
    """A skewed block key must fail loudly, not hand one task n^2/2 Python
    comparisons."""
    import ray.data
    import pytest

    from logstash_filter_geoip_ray.stages.dedup import jaccard_pairs_by_block

    docs = pa.table(
        {
            "doc_id": pa.array(list(range(20)), type=pa.int64()),
            "source": pa.array(["hot"] * 20),
            "text": pa.array(["some text %d" % i for i in range(20)]),
        }
    )
    ds = ray.data.from_arrow(docs)
    with pytest.raises(Exception, match="max_block_rows"):
        jaccard_pairs_by_block(ds, max_block_rows=10).materialize()
    # under the cap the same input works
    out = jaccard_pairs_by_block(ds, max_block_rows=20).to_pandas()
    assert (out["union_"] > 0).all() if len(out) else True


def test_repetition_filter_planted(ray_session):
    """Docs with heavy line duplication or a dominating bigram must be
    dropped; clean docs kept with correct integer metrics."""
    import ray.data

    from logstash_filter_geoip_ray.stages.textops import repetition_filter

    clean = "\n".join("unique line number %d with words" % i for i in range(10))
    dup_lines = "\n".join(["same line every time"] * 10)
    dup_bigram = "spam ham " * 40  # one bigram dominates
    docs = pa.table(
        {
            "doc_id": pa.array([1, 2, 3, 4], type=pa.int64()),
            "text": [clean, dup_lines, dup_bigram, None],
        }
    )
    out = repetition_filter(ray.data.from_arrow(docs)).to_pandas()
    assert list(out["doc_id"]) == [1]
    assert out["n_lines"].iloc[0] == 10
    assert out["dup_line_milli"].iloc[0] == 0


def test_simhash_hamming_pairs_exact_vs_bruteforce(ray_session):
    """Pigeonhole banding must find EXACTLY the pairs a brute-force all-pairs
    Hamming scan finds (≤ 3 bits) — including planted near-identical docs."""
    import ray.data

    from logstash_filter_geoip_ray.stages.dedup import (
        _popcount64,
        simhash_hamming_pairs,
        simhash_md5_signatures_batch,
    )

    base = "the quick brown fox jumps over the lazy dog again and again " * 4
    texts = [base, base + "extra", base.replace("lazy", "sleepy"),
             "entirely different content about streaming data engines " * 4,
             base, "", None, "one two"]
    ids = list(range(len(texts)))
    docs = pa.table(
        {"doc_id": pa.array(ids, type=pa.int64()),
         "text": pa.array(texts, type=pa.string())}
    )
    got = simhash_hamming_pairs(ray.data.from_arrow(docs)).to_pandas()
    got_pairs = {(int(r.a), int(r.b), int(r.hamming)) for r in got.itertuples()}

    pos, sigs = simhash_md5_signatures_batch(docs["text"].combine_chunks())
    expect = set()
    for i in range(len(pos)):
        for j in range(i + 1, len(pos)):
            h = int(_popcount64(np.array([sigs[i] ^ sigs[j]], dtype=np.uint64))[0])
            if h <= 3:
                expect.add((int(pos[i]), int(pos[j]), h))
    assert got_pairs == expect
    assert (0, 4, 0) in got_pairs  # exact dup


@pytest.mark.parametrize("verify", ["broadcast", "join"])
def test_bloom_incremental_dedup_exact_under_fps(ray_session, verify):
    """A deliberately tiny Bloom filter (heavy false positives) must still
    produce the exact anti-join answer — the filter only prefilters; the
    text verify decides. Null-text docs are always kept. Both verify
    paths (driver-broadcast sets and the bucketed hash anti-join scale
    fallback) must return the identical keeper set."""
    import ray.data

    from logstash_filter_geoip_ray.stages.dedup import bloom_incremental_dedup

    old_texts = ["doc %d content" % i for i in range(200)]
    new_texts = (
        ["doc %d content" % i for i in range(50)]       # dups of old
        + ["fresh %d content" % i for i in range(150)]  # genuinely new
        + [None, ""]
    )
    old = ray.data.from_arrow(
        pa.table({"doc_id": pa.array(range(200), type=pa.int64()),
                  "text": pa.array(old_texts, type=pa.string())})
    )
    new = ray.data.from_arrow(
        pa.table({"doc_id": pa.array(range(1000, 1000 + len(new_texts)), type=pa.int64()),
                  "text": pa.array(new_texts, type=pa.string())})
    )
    # 256 bits for 200 keys -> filter saturates, FP rate near 1.0
    out = bloom_incremental_dedup(new, old, m_bits=256, k=2, verify=verify).to_pandas()
    expect = [1000 + i for i in range(50, len(new_texts))]
    assert list(out["doc_id"]) == expect


def test_minhash_incremental_dedup_planted(ray_session):
    """Cross-corpus near-dup semantics: a new doc near-duplicating a PRIOR
    doc (J≥0.9 word 3-gram) drops; internal new-new duplicates are KEPT
    (in-corpus dedup is the full-corpus op's job); fresh docs, short docs
    and null-text docs are kept; and a brute-force exact-Jaccard reference
    agrees on the planted set."""
    import ray.data

    from logstash_filter_geoip_ray.functions.sketches import exact_jaccard
    from logstash_filter_geoip_ray.stages.dedup import minhash_incremental_dedup

    base = "the quick brown fox jumps over the lazy dog near the river bank %d"
    prior_texts = [base % i for i in range(40)]
    new_rows = [
        (100, base % 7),                       # exact copy of prior -> drop
        (101, (base % 13) + " extra"),         # near-dup of prior -> drop
        (102, "completely different content about distributed dataflow engines"),
        (103, "completely different content about distributed dataflow engines"),
        (104, "tiny doc"),                     # short-doc (single-shingle) path
        (105, None),                           # null text kept
    ]
    prior = ray.data.from_arrow(
        pa.table({"doc_id": pa.array(range(40), type=pa.int64()),
                  "text": pa.array(prior_texts, type=pa.string())})
    )
    new = ray.data.from_arrow(
        pa.table({"doc_id": pa.array([r[0] for r in new_rows], type=pa.int64()),
                  "text": pa.array([r[1] for r in new_rows], type=pa.string())})
    )
    kept = list(
        minhash_incremental_dedup(new, prior, min_jaccard=0.5).to_pandas()["doc_id"]
    )
    # brute-force reference over the same threshold
    expect = []
    for nid, ntext in new_rows:
        dup = False
        if ntext:
            for ptext in prior_texts:
                inter, union = exact_jaccard(ntext, ptext, 3)
                if union and inter / union >= 0.5:
                    dup = True
                    break
        if not dup:
            expect.append(nid)
    assert kept == expect
    assert 100 not in kept and 101 not in kept      # planted cross dups drop
    assert {102, 103, 104, 105} <= set(kept)        # internal dups + fresh kept

    # no candidates at all -> every new id returns
    fresh = ray.data.from_arrow(
        pa.table({"doc_id": pa.array([7, 8], type=pa.int64()),
                  "text": pa.array(["alpha beta gamma delta", "nine ten eleven"],
                                   type=pa.string())})
    )
    kept2 = list(
        minhash_incremental_dedup(fresh, prior, min_jaccard=0.5).to_pandas()["doc_id"]
    )
    assert kept2 == [7, 8]


def test_minhash_index_persist_append_and_param_guard(ray_session, tmp_path):
    """The persisted LSH index must (a) reproduce the recompute-path keeper
    set exactly, (b) absorb appended dumps — a dump-2 doc near-duplicating a
    dump-1 keeper drops once dump 1 is appended, and (c) refuse to load
    under different band parameters."""
    import pytest
    import ray.data

    from logstash_filter_geoip_ray.stages.dedup import minhash_incremental_dedup
    from logstash_filter_geoip_ray.state.minhash_index import (
        append_minhash_index,
        build_minhash_index,
        load_minhash_index,
    )

    base = "the quick brown fox jumps over the lazy dog near the river bank %d"

    def corpus(ids_texts):
        return ray.data.from_arrow(
            pa.table({"doc_id": pa.array([i for i, _ in ids_texts], type=pa.int64()),
                      "text": pa.array([t for _, t in ids_texts], type=pa.string())})
        )

    prior = corpus([(i, base % i) for i in range(30)])
    dump1 = corpus([
        (100, base % 7),                                  # dup of prior -> drop
        (101, "fresh dump-one doc about streaming dataflow engines and backpressure"),
    ])
    dump2 = corpus([
        (200, "fresh dump-one doc about streaming dataflow engines and backpressure"),
        (201, "another genuinely new document mentioning arrow record batches"),
    ])

    idx = str(tmp_path / "mh_index")
    build_minhash_index(prior, idx)

    # (a) indexed plan == recompute plan
    direct = list(minhash_incremental_dedup(dump1, prior).to_pandas()["doc_id"])
    indexed = list(
        minhash_incremental_dedup(
            dump1, prior, prior_banded=load_minhash_index(idx)
        ).to_pandas()["doc_id"]
    )
    assert direct == indexed == [101]

    # (b) append dump-1 keepers; dump-2's copy of doc 101 now drops, and the
    # verify side needs the GROWN corpus for text fetch
    kept1 = dump1.filter(lambda r: r["doc_id"] in (101,))
    append_minhash_index(kept1, idx)
    grown = prior.union(kept1)
    kept2 = list(
        minhash_incremental_dedup(
            dump2, grown, prior_banded=load_minhash_index(idx)
        ).to_pandas()["doc_id"]
    )
    assert kept2 == [201]

    # (c) parameter guard: different band geometry must refuse to load
    with pytest.raises(ValueError, match="parameter mismatch"):
        load_minhash_index(idx, bands=16)
    # and appending to a non-index dir refuses too
    with pytest.raises(FileNotFoundError):
        append_minhash_index(kept1, str(tmp_path / "not_an_index"))


def test_shared_paragraphs_planted(ray_session):
    """A paragraph pasted into two docs must be flagged in both; unique
    paragraphs must not."""
    import ray.data

    from logstash_filter_geoip_ray.stages.textops import shared_paragraphs

    boiler = "subscribe to our newsletter"
    docs = pa.table(
        {
            "doc_id": pa.array([1, 2, 3, 4], type=pa.int64()),
            "text": [
                "unique one\n" + boiler,
                boiler + "\nunique two\nunique three",
                "totally original\n\ncontent here",
                None,
            ],
        }
    )
    out = shared_paragraphs(ray.data.from_arrow(docs), num_buckets=4).to_pandas()
    got = {int(r.doc_id): (int(r.n_paras), int(r.shared_paras)) for r in out.itertuples()}
    assert got == {1: (2, 1), 2: (3, 1), 3: (2, 0)}


def test_simhash_hamming_threshold_guard(ray_session):
    """max_hamming beyond the pigeonhole guarantee must raise, not silently
    under-report pairs."""
    import ray.data
    import pytest

    from logstash_filter_geoip_ray.stages.dedup import simhash_hamming_pairs

    docs = pa.table(
        {"doc_id": pa.array([1, 2], type=pa.int64()),
         "text": ["a b c", "a b d"]}
    )
    with pytest.raises(ValueError, match="SIMHASH_BANDS"):
        simhash_hamming_pairs(ray.data.from_arrow(docs), max_hamming=5)


def test_jpeg_real_codec_bounded_error():
    """The baseline JPEG codec is REAL (matrix DCT + Annex-K Huffman): the
    round-trip is lossy but bounded — smooth gradients reconstruct within
    ~1 intensity level at q90 in both 4:4:4 and 4:2:0, grayscale included —
    and malformed/unsupported inputs raise."""
    from logstash_filter_geoip_ray.functions.jpeg import decode_jpeg, encode_jpeg

    y, x = np.mgrid[0:37, 0:53]
    img = np.stack(
        [(x * 3 + y) % 256, (x + y * 2) % 256, (255 - x * 2) % 256], axis=-1
    ).astype(np.uint8)
    for sub in (False, True):
        out = decode_jpeg(encode_jpeg(img, quality=90, subsample=sub))
        assert out.shape == img.shape
        mae = np.abs(out.astype(int) - img.astype(int)).mean()
        assert mae < 2.0, (sub, mae)
    gray = ((x * 2 + y * 3) % 256).astype(np.uint8)
    gout = decode_jpeg(encode_jpeg(gray, quality=90))
    assert gout.shape == gray.shape
    assert np.abs(gout.astype(int) - gray.astype(int)).mean() < 2.0
    with pytest.raises(ValueError, match="not a JPEG"):
        decode_jpeg(b"P6 nope")
    with pytest.raises(ValueError, match="non-baseline"):
        decode_jpeg(b"\xff\xd8\xff\xc3\x00\x04\x00\x00")  # lossless SOF3
    with pytest.raises(ValueError):
        decode_jpeg(encode_jpeg(img)[:-40])  # truncated entropy data


def test_jpeg_progressive_decodes_identical_to_baseline():
    """Progressive (SOF2) support is REAL: the progressive encoder
    transmits the SAME quantized coefficients as the baseline encoder
    (spectral-selection bands × successive-approximation bit planes, DC
    and AC refinement scans, accumulated EOB runs with buffered
    correction bits), so the decode must be BIT-IDENTICAL to decoding
    the baseline bytes — not merely close."""
    from logstash_filter_geoip_ray.functions.jpeg import (
        decode_jpeg,
        encode_jpeg,
        encode_jpeg_progressive,
    )

    rng = np.random.default_rng(7)
    sparse = np.full((64, 64), 128, dtype=np.uint8)
    for _ in range(6):  # a few dots → long cross-block EOB runs
        yy, xx = rng.integers(0, 64, 2)
        sparse[yy, xx] = 255
    cases = [
        (rng.integers(0, 256, (24, 24), dtype=np.uint8), 85, False),
        (sparse, 85, False),
        (rng.integers(0, 256, (23, 19, 3), dtype=np.uint8), 85, False),
        (rng.integers(0, 256, (40, 40, 3), dtype=np.uint8), 10, False),  # ZRL-heavy
        (rng.integers(0, 256, (33, 35, 3), dtype=np.uint8), 95, True),  # 4:2:0
        (np.zeros((24, 24), dtype=np.uint8), 85, False),  # all-EOB scans
    ]
    for img, q, sub in cases:
        base = decode_jpeg(encode_jpeg(img, q, subsample=sub))
        prog = decode_jpeg(encode_jpeg_progressive(img, q, subsample=sub))
        assert np.array_equal(base, prog), (img.shape, q, sub)


def test_jpeg_progressive_through_decode_stage(ray_session):
    """DecodeImageStage strict mode decodes progressive payloads natively."""
    from logstash_filter_geoip_ray.functions.jpeg import encode_jpeg_progressive
    from logstash_filter_geoip_ray.stages.multimodal import DecodeImageStage

    y, x = np.mgrid[0:24, 0:32]
    img = np.stack(
        [(x * 4) % 256, (y * 5) % 256, (x + y) % 256], axis=-1
    ).astype(np.uint8)
    payload = encode_jpeg_progressive(img, quality=92)
    feats = DecodeImageStage(strict=True)._decode_features(
        payload, {"format": "jpeg"}
    )
    assert feats[0] == 32 and feats[1] == 24
    assert np.allclose(feats[2:5], img.mean(axis=(0, 1)), atol=3.0)


def test_jpeg_decode_stage_features(ray_session):
    """DecodeImageStage handles JPEG payloads natively in strict mode with
    approximately-true statistics."""
    from logstash_filter_geoip_ray.stages.multimodal import DecodeImageStage
    from logstash_filter_geoip_ray.functions.jpeg import encode_jpeg

    y, x = np.mgrid[0:24, 0:32]
    img = np.stack([(x * 4) % 256, (y * 5) % 256, (x + y) % 256], axis=-1).astype(
        np.uint8
    )
    payload = encode_jpeg(img, quality=92)
    feats = DecodeImageStage(strict=True)._decode_features(
        payload, {"format": "jpeg"}
    )
    assert feats[0] == 32 and feats[1] == 24
    assert np.allclose(feats[2:5], img.mean(axis=(0, 1)), atol=3.0)


def test_mjpeg_frame_extraction_real():
    """FrameSampleStage extracts REAL frames from MJPEG payloads: every k-th
    SOI/EOI span comes back as a standalone, decodable JPEG; codec video in
    strict mode still raises."""
    from logstash_filter_geoip_ray.functions.jpeg import decode_jpeg
    from logstash_filter_geoip_ray.stages.multimodal import (
        FrameSampleStage,
        encode_mjpeg,
    )

    frames = [
        np.full((8, 8, 3), 32 * i, dtype=np.uint8) for i in range(6)
    ]
    payload = encode_mjpeg(frames)
    batch = pa.table(
        {
            "media_id": pa.array([1], type=pa.int64()),
            "payload": pa.array([payload], type=pa.binary()),
        }
    )
    out = FrameSampleStage(every_k=2, strict=True)(batch).to_pandas()
    assert list(out["frame_idx"]) == [0, 2, 4]
    for fi, fb in zip(out["frame_idx"], out["frame"]):
        px = decode_jpeg(bytes(fb))
        assert abs(int(px.mean()) - 32 * fi) <= 2  # flat frame round-trips
    # non-MJPEG payload in strict mode: honest gate
    opaque = pa.table(
        {
            "media_id": pa.array([2], type=pa.int64()),
            "payload": pa.array([b"\x00\x01" * 100], type=pa.binary()),
        }
    )
    with pytest.raises(NotImplementedError, match="ffmpeg"):
        FrameSampleStage(strict=True)(opaque)


def test_gif_round_trip_and_interlace():
    """functions/gif.py is a REAL LZW codec: pixel-exact round trips across
    palette sizes (incl. a full 256-color table, which exercises code-size
    growth), interlaced row order, and the DecodeImageStage integration."""
    import struct

    from logstash_filter_geoip_ray.functions.gif import (
        _lzw_encode,
        decode_gif,
        encode_gif,
    )

    rng = np.random.default_rng(3)
    pal = rng.integers(0, 256, (17, 3), dtype=np.uint8)
    img = pal[rng.integers(0, 17, (33, 47))]
    assert (decode_gif(encode_gif(img)) == img).all()

    full_pal = np.unique(rng.integers(0, 256, (256, 3), dtype=np.uint8), axis=0)
    big = full_pal[rng.integers(0, len(full_pal), (120, 160))]
    assert (decode_gif(encode_gif(big)) == big).all()

    # hand-built interlaced frame: rows permuted into the four-pass order,
    # interlace bit set in the image descriptor
    h, w = 16, 8
    idx = np.arange(h, dtype=np.uint8)[:, None].repeat(w, axis=1)  # row = its index
    passes = np.concatenate(
        [np.arange(s, h, k) for s, k in ((0, 8), (4, 8), (2, 4), (1, 2))]
    )
    table = np.zeros((256, 3), dtype=np.uint8)
    table[:, 0] = np.arange(256)  # palette i -> (i, 0, 0)
    lzw = _lzw_encode(idx[passes].reshape(-1).astype(np.int64), 8)
    gif = bytearray(b"GIF89a")
    gif += struct.pack("<HHBBB", w, h, 0x80 | 7, 0, 0)
    gif += table.tobytes()
    gif += b"\x2c" + struct.pack("<HHHHB", 0, 0, w, h, 0x40) + bytes([8])
    for i in range(0, len(lzw), 255):
        chunk = lzw[i : i + 255]
        gif += bytes([len(chunk)]) + chunk
    gif += b"\x00\x3b"
    out = decode_gif(bytes(gif))
    assert (out[:, :, 0] == idx).all() and (out[:, :, 1:] == 0).all()

    # total-ValueError contract: truncation at EVERY offset plus the two
    # spots that used to leak struct.error / IndexError (image-descriptor
    # header, LZW min-code byte)
    g = encode_gif(img)
    for cut in list(range(0, len(g), 7)) + [len(g) - 1]:
        with pytest.raises(ValueError):
            decode_gif(g[:cut])
    for bad in (b"nope", b"GIF89a" + bytes(7) + b"\x2c", b"GIF89a" + bytes(7)):
        with pytest.raises(ValueError):
            decode_gif(bad)


def test_decode_image_stage_gif():
    """Strict DecodeImageStage decodes GIF payloads natively — the feature
    vector carries real dimensions and channel means."""
    from logstash_filter_geoip_ray.functions.gif import encode_gif
    from logstash_filter_geoip_ray.stages.multimodal import (
        IMAGE_META_TYPE,
        DecodeImageStage,
    )

    img = np.zeros((12, 10, 3), dtype=np.uint8)
    img[:, :, 0] = 200
    img[:, :, 1] = 50
    batch = pa.table(
        {
            "media_id": pa.array([7], type=pa.int64()),
            "payload": pa.array([encode_gif(img)], type=pa.binary()),
            "meta": pa.array(
                [{"width": 10, "height": 12, "format": "gif"}], type=IMAGE_META_TYPE
            ),
        }
    )
    out = DecodeImageStage(strict=True)(batch)
    feats = np.asarray(out["features"][0].as_py())
    assert feats[0] == 10 and feats[1] == 12  # real decoded dims
    assert abs(feats[2] - 200) < 1 and abs(feats[3] - 50) < 1 and abs(feats[4]) < 1


def test_avi_container_round_trip():
    """functions/avi.py is a REAL RIFF walker: DIB streams round-trip
    pixel-exact, MJPG streams round-trip within JPEG tolerance, and the
    header metadata (codec, dims, fps, frame count) survives."""
    from logstash_filter_geoip_ray.functions.avi import (
        decode_avi,
        encode_avi,
        parse_avi,
    )

    rng = np.random.default_rng(11)
    frames = [rng.integers(0, 256, (16, 24, 3), dtype=np.uint8) for _ in range(5)]
    avi = encode_avi(frames, fps=12, codec="DIB ")
    codec, w, h, fps, chunks = parse_avi(avi)
    assert (codec, w, h, fps, len(chunks)) == ("DIB ", 24, 16, 12, 5)
    for got, want in zip(decode_avi(avi), frames):
        assert (got == want).all()

    flat = [np.full((16, 24, 3), 40 * i, dtype=np.uint8) for i in range(5)]
    avi2 = encode_avi(flat, fps=25, codec="MJPG")
    codec, w, h, fps, chunks = parse_avi(avi2)
    assert (codec, w, h, fps, len(chunks)) == ("MJPG", 24, 16, 25, 5)
    for got, want in zip(decode_avi(avi2), flat):
        assert np.abs(got.astype(int) - want.astype(int)).mean() < 3

    for bad in (b"nope", b"RIFF\x04\x00\x00\x00WAVE", avi[:40]):
        with pytest.raises(ValueError):
            parse_avi(bad)


def test_avi_frame_sampling_stage():
    """FrameSampleStage walks AVI containers natively: MJPG streams emit
    their per-frame JPEG chunks, DIB streams emit PPM re-encodes — both
    standalone decodable — and codec-video fourccs stay honestly gated."""
    import struct

    from logstash_filter_geoip_ray.functions.avi import encode_avi
    from logstash_filter_geoip_ray.functions.jpeg import decode_jpeg
    from logstash_filter_geoip_ray.stages.multimodal import (
        FrameSampleStage,
        decode_ppm,
    )

    dib_frames = [np.full((8, 8, 3), (10 * i, 0, 255 - 10 * i), dtype=np.uint8) for i in range(6)]
    mjpg_frames = [np.full((8, 8, 3), 32 * i, dtype=np.uint8) for i in range(6)]
    batch = pa.table(
        {
            "media_id": pa.array([1, 2], type=pa.int64()),
            "payload": pa.array(
                [encode_avi(dib_frames, codec="DIB "), encode_avi(mjpg_frames, codec="MJPG")],
                type=pa.binary(),
            ),
        }
    )
    out = FrameSampleStage(every_k=3, strict=True)(batch).to_pandas()
    assert list(out["frame_idx"]) == [0, 3, 0, 3]
    for mid, fi, fb in zip(out["media_id"], out["frame_idx"], out["frame"]):
        fb = bytes(fb)
        if mid == 1:
            assert (decode_ppm(fb) == dib_frames[fi]).all()
        else:
            px = decode_jpeg(fb)
            assert abs(int(px.mean()) - 32 * fi) <= 2
    # a structurally valid AVI whose stream needs a real codec: swap the
    # strf biCompression fourcc to 'H264' and strh handler likewise
    h264 = bytearray(encode_avi(mjpg_frames, codec="MJPG"))
    h264 = h264.replace(b"MJPG", struct.pack("<I", 0x34363248))  # 'H264'
    codec_batch = pa.table(
        {
            "media_id": pa.array([3], type=pa.int64()),
            "payload": pa.array([bytes(h264)], type=pa.binary()),
        }
    )
    with pytest.raises(NotImplementedError, match="ffmpeg"):
        FrameSampleStage(strict=True)(codec_batch)
    # non-strict: falls back to byte chunking, no crash
    fallback = FrameSampleStage(every_k=4, strict=False)(codec_batch)
    assert fallback.num_rows >= 1


def test_audio_dominant_frequency():
    """The spectral feature is real: a pure sine's dominant_hz lands on its
    frequency."""
    from logstash_filter_geoip_ray.stages.multimodal import (
        AudioFeatureStage,
        encode_wav,
    )

    rate = 16000
    t = np.arange(rate) / rate  # 1 second
    for hz in (440, 1000, 3000):
        sig = (np.sin(2 * np.pi * hz * t) * 20000).astype(np.int16)
        batch = pa.table(
            {
                "media_id": pa.array([1], type=pa.int64()),
                "payload": pa.array([encode_wav(sig, rate)], type=pa.binary()),
            }
        )
        out = AudioFeatureStage()(batch).to_pandas()
        assert abs(int(out["dominant_hz"].iloc[0]) - hz) <= 2


def test_mjpeg_split_walks_markers_not_bytes():
    """split_mjpeg must walk the marker structure: an APP1 segment with an
    embedded FFD9 (EXIF-thumbnail shape) and inter-frame zero padding must
    not break the frame split."""
    import struct

    from logstash_filter_geoip_ray.functions.jpeg import decode_jpeg, encode_jpeg
    from logstash_filter_geoip_ray.stages.multimodal import split_mjpeg

    base = encode_jpeg(np.full((8, 8, 3), 100, dtype=np.uint8))
    # inject an APP1 segment containing a fake embedded EOI right after SOI
    thumb = b"Exif\x00\x00" + b"\xff\xd8stub-thumbnail\xff\xd9" + b"pad"
    app1 = b"\xff\xe1" + struct.pack(">H", len(thumb) + 2) + thumb
    tricky = base[:2] + app1 + base[2:]
    assert decode_jpeg(tricky).shape == (8, 8, 3)  # decoder skips APP1 too
    payload = tricky + b"\x00\x00" + base  # zero padding between frames
    frames = split_mjpeg(payload)
    assert len(frames) == 2
    assert frames[0] == tricky and frames[1] == base
    for f in frames:
        assert decode_jpeg(f).shape == (8, 8, 3)


def test_chunk_documents_matches_bruteforce(ray_session):
    """chunk_documents must equal the brute-force stride-48/window-64
    reference on edge sizes (empty, single word, exact window, ±1) and
    preserve non-integer id dtypes."""
    import ray.data

    from logstash_filter_geoip_ray.stages.textops import chunk_documents

    texts = [
        " ".join("w%d" % i for i in range(n)) if n >= 0 else None
        for n in (150, 64, 65, 63, 48, 49, 1, 0, -1, 112, 113)
    ]
    ds = ray.data.from_arrow(
        pa.table(
            {
                "doc_id": pa.array(
                    ["d%02d" % i for i in range(len(texts))], type=pa.string()
                ),
                "text": pa.array(texts, type=pa.string()),
            }
        )
    )
    out = chunk_documents(ds).to_pandas()
    assert out["doc_id"].dtype == object  # string ids preserved

    expect = []
    for i, t in enumerate(texts):
        if t is None:
            continue
        toks = t.split()
        c = 0
        while c * 48 < len(toks):
            win = toks[c * 48 : c * 48 + 64]
            expect.append(("d%02d" % i, c, len(win), " ".join(win)))
            c += 1
    got = list(
        zip(out["doc_id"], out["chunk_idx"], out["n_tokens"], out["chunk_text"])
    )
    assert [(a, int(b), int(c), d) for a, b, c, d in got] == expect


def test_dup_ngram_spans_planted(ray_session):
    """A doc sharing an 8-gram span with another doc (or repeating one
    internally) must show those window positions as duplicated."""
    import ray.data

    from logstash_filter_geoip_ray.stages.textops import duplicated_window_stats

    span = "one two three four five six seven eight"  # exactly 8 words
    docs = pa.table(
        {
            "doc_id": pa.array([1, 2, 3, 4], type=pa.int64()),
            "text": [
                span + " tail1 tail2",          # shares the span with doc 2
                "lead0 " + span,                 # shares the span with doc 1
                "all unique words here nine ten eleven twelve thirteen",
                span + " and " + span,           # internal repeat
            ],
        }
    )
    out = duplicated_window_stats(
        ray.data.from_arrow(docs), num_buckets=8
    ).to_pandas()
    got = {
        int(r.doc_id): (int(r.n_windows), int(r.dup_windows))
        for r in out.itertuples()
    }
    assert got[1][0] == 3 and got[1][1] >= 1   # the shared-span window
    assert got[2][0] == 2 and got[2][1] >= 1
    assert got[3] == (2, 0)                     # fully unique doc
    assert got[4][1] >= 2                       # both copies of the span


def test_simhash_band_skew_guard(ray_session):
    """A band key flooded by exact duplicates must fail loudly (n-squared
    self-merge guard), not OOM one bucket task."""
    import ray.data

    from logstash_filter_geoip_ray.stages.dedup import simhash_hamming_pairs

    docs = pa.table(
        {
            "doc_id": pa.array(list(range(40)), type=pa.int64()),
            "text": ["identical boilerplate page content here"] * 40,
        }
    )
    with pytest.raises(Exception, match="max_band_members"):
        simhash_hamming_pairs(
            ray.data.from_arrow(docs), max_band_members=10
        ).materialize()
    out = simhash_hamming_pairs(
        ray.data.from_arrow(docs), max_band_members=1000
    ).to_pandas()
    assert len(out) == 40 * 39 // 2 and (out["hamming"] == 0).all()


def test_hash_anti_join_semantics(ray_session):
    """Bucketed anti-join vs a pandas NOT-EXISTS reference: duplicate right
    keys collapse, right-side nulls match nothing, and a NULL left key is
    KEPT (NOT EXISTS semantics — null equals no key)."""
    import ray.data

    from logstash_filter_geoip_ray.stages.joins import hash_anti_join

    left = pa.table(
        {
            "k": pa.array([1, 2, 3, None, 5, 6, 7, 8], type=pa.int64()),
            "v": ["a", "b", "c", "d", "e", "f", "g", "h"],
        }
    )
    right = pa.table(
        {"rk": pa.array([2, 2, 5, None, 9, 9, 9], type=pa.int64())}
    )
    out = (
        hash_anti_join(
            ray.data.from_arrow(left),
            ray.data.from_arrow(right),
            "k",
            "rk",
            num_buckets=4,
        )
        .to_pandas()
        .sort_values("v")
        .reset_index(drop=True)
    )
    assert list(out.columns) == ["k", "v"]
    assert list(out["v"]) == ["a", "c", "d", "f", "g", "h"]  # null-k row kept
    # int32 right key against int64 left key still matches (width-normalized)
    right32 = pa.table({"rk": pa.array([2, 5], type=pa.int32())})
    out32 = (
        hash_anti_join(
            ray.data.from_arrow(left), ray.data.from_arrow(right32), "k", "rk", 4
        )
        .to_pandas()
        .sort_values("v")
        .reset_index(drop=True)
    )
    assert list(out32["v"]) == ["a", "c", "d", "f", "g", "h"]


def test_bpe_pairs_unicode_bruteforce(ray_session):
    """bpe_pair_counts' utf-32 vectorized kernel vs a per-word Python brute
    force — multibyte codepoints (é, ω, CJK) exercise the byte/codepoint
    offset split, and whitespace-only / null docs must contribute nothing."""
    from collections import Counter

    import ray.data

    from logstash_filter_geoip_ray.stages.textops import bpe_pair_counts

    texts = [
        "héllo héllo wörld",
        "ωmega ωmega ωmega 漢字漢字",
        "The THE the tHe",
        "a bb ccc dddd",
        "   \t\n  ",
        None,
        "x",
    ]
    ref = Counter()
    for t in texts:
        if t is None:
            continue
        for w in t.lower().split():
            for i in range(len(w) - 1):
                ref[w[i : i + 2]] += 1
    expect = sorted(ref.items(), key=lambda kv: (-kv[1], kv[0]))[:50]
    docs = pa.table({"text": pa.array(texts, type=pa.string())})
    got = bpe_pair_counts(
        ray.data.from_arrow(docs), top_k=50, num_buckets=4
    ).to_pandas()
    assert list(zip(got["pair"], got["n"])) == expect


def test_word_rarity_tiny(ray_session):
    """Hand-checked df arithmetic on a 3-doc corpus (distinct words per doc;
    'shared' has df 3, 'pair' df 2, the rest df 1)."""
    import ray.data

    from logstash_filter_geoip_ray.stages.textops import word_rarity_scores

    docs = pa.table(
        {
            "doc_id": pa.array([1, 2, 3, 4], type=pa.int64()),
            "text": [
                "shared pair unique1 shared",  # distinct: shared, pair, unique1
                "shared pair",
                "shared solo",
                "   ",  # tokenless: no output row
            ],
        }
    )
    out = word_rarity_scores(ray.data.from_arrow(docs), num_buckets=4).to_pandas()
    assert list(out["doc_id"]) == [1, 2, 3]
    # doc1: dfs {shared:3, pair:2, unique1:1} → sum 6, n 3, mean 2000, min 1
    # doc2: {3, 2} → sum 5, n 2, mean 2500, min 2
    # doc3: {3, 1} → sum 4, n 2, mean 2000, min 1
    assert list(out["n_words"]) == [3, 2, 2]
    assert list(out["df_sum"]) == [6, 5, 4]
    assert list(out["mean_df_milli"]) == [2000, 2500, 2000]
    assert list(out["min_df"]) == [1, 2, 1]


def test_gif_animation_compositing():
    """Animated GIF round trip vs an inline numpy reference of the GIF89a
    rendering model: GCE transparency leaves the canvas untouched, disposal
    2 restores the frame rect to background, disposal 3 restores the
    pre-frame canvas, and the Netscape looping extension is skipped."""
    from logstash_filter_geoip_ray.functions.gif import (
        decode_gif_frames,
        encode_gif_animation,
    )

    bg = (9, 9, 9)
    base = np.full((6, 8, 3), (10, 20, 30), dtype=np.uint8)
    p1 = np.full((2, 3, 3), (200, 0, 0), dtype=np.uint8)
    p1[0, 1] = (1, 2, 3)  # the transparent color
    p2 = np.full((3, 3, 3), (0, 200, 0), dtype=np.uint8)
    p3 = np.full((2, 2, 3), (0, 0, 200), dtype=np.uint8)
    gif = encode_gif_animation(
        (6, 8),
        [
            {"pixels": base, "disposal": 0},
            {"pixels": p1, "top": 1, "left": 2, "disposal": 3,
             "transparent": (1, 2, 3)},
            {"pixels": p2, "top": 2, "left": 3, "disposal": 2},
            {"pixels": p3, "disposal": 0},
        ],
        bg_color=bg,
    )
    frames = decode_gif_frames(gif)
    assert len(frames) == 4
    f0 = base.copy()
    f1 = f0.copy()
    f1[1:3, 2:5] = p1
    f1[1, 3] = f0[1, 3]  # transparent pixel kept the canvas value
    f2 = f0.copy()  # disposal 3 restored the pre-p1 canvas
    f2[2:5, 3:6] = p2
    f3 = f0.copy()
    f3[2:5, 3:6] = bg  # disposal 2 blanked p2's rect to background
    f3[0:2, 0:2] = p3
    for got, want in zip(frames, (f0, f1, f2, f3)):
        assert (got == want).all()
    # total-ValueError contract for the animation path too
    for cut in list(range(0, len(gif), 11)) + [len(gif) - 1]:
        with pytest.raises(ValueError):
            decode_gif_frames(gif[:cut])


def test_gif_frame_sampling_stage():
    """FrameSampleStage's third video tier: animated GIFs composite to
    screen-size frames, every k-th re-emitted as standalone PPM."""
    from logstash_filter_geoip_ray.functions.gif import encode_gif_animation
    from logstash_filter_geoip_ray.stages.multimodal import (
        FrameSampleStage,
        decode_ppm,
    )

    patches = [
        {"pixels": np.full((5, 7, 3), (40 * i, 10, 255 - 40 * i), np.uint8)}
        for i in range(5)
    ]
    gif = encode_gif_animation((5, 7), patches, bg_color=(0, 0, 0))
    batch = pa.table(
        {
            "media_id": pa.array([7], type=pa.int64()),
            "payload": pa.array([gif], type=pa.binary()),
        }
    )
    out = FrameSampleStage(every_k=2, strict=True)(batch).to_pandas()
    assert list(out["frame_idx"]) == [0, 2, 4]
    for fi, fb in zip(out["frame_idx"], out["frame"]):
        assert (decode_ppm(bytes(fb)) == patches[fi]["pixels"]).all()


def test_rolling_window_overflow_fallback(ray_session):
    """A multi-millennium ts span forces rolling_window_sums onto the
    per-segment searchsorted fallback (seg_count × band offset would
    overflow int64); answers must equal the brute-force frame definition,
    including RANGE-peer ties."""
    import ray.data

    from logstash_filter_geoip_ray.stages.windows import rolling_window_sums

    w = 3600
    far = 4_800_000_000_000_000_000  # ~152k years in µs: offset > 2^62
    rows = [  # (user, ts_us, value)
        (1, 0, 1.0),
        (1, 1_800_000_000, 2.0),
        (1, 3_600_000_000, 3.0),
        (1, 3_600_000_000, 4.0),  # peer tie at the same ts
        (1, 7_201_000_000, 5.0),
        (2, 10_000_000, 6.0),
        (2, 20_000_000, 7.0),
        (3, far, 8.0),
        (3, far + 1_000_000, 9.0),
    ]
    tbl = pa.table(
        {
            "user_id": pa.array([r[0] for r in rows], type=pa.int64()),
            "event_id": pa.array(list(range(len(rows))), type=pa.int64()),
            "ts": pa.array([r[1] for r in rows], type=pa.int64()).cast(
                pa.timestamp("us")
            ),
            "value": pa.array([r[2] for r in rows], type=pa.float64()),
        }
    )
    got = (
        rolling_window_sums(ray.data.from_arrow(tbl), window_sec=w, num_buckets=4)
        .to_pandas()
        .set_index("event_id")
    )
    w_us = w * 1_000_000
    for i, (u, ts, _) in enumerate(rows):
        frame = [
            j
            for j, (u2, ts2, _) in enumerate(rows)
            if u2 == u and ts - w_us <= ts2 <= ts
        ]
        assert got.loc[i, "n_win"] == len(frame), i
        assert got.loc[i, "v_milli_win"] == sum(
            int(rows[j][2] * 1000) for j in frame
        ), i


def test_bmp_round_trip_and_stage():
    """functions/bmp.py: 24-bit BI_RGB round-trips pixel-exact in both row
    orders, rejects unsupported variants with ValueError, and the strict
    DecodeImageStage decodes BMP payloads natively."""
    from logstash_filter_geoip_ray.functions.bmp import decode_bmp, encode_bmp
    from logstash_filter_geoip_ray.stages.multimodal import (
        IMAGE_META_TYPE,
        DecodeImageStage,
    )

    rng = np.random.default_rng(3)
    # odd width exercises the 4-byte row padding
    img = rng.integers(0, 256, size=(9, 7, 3), dtype=np.uint8)
    for top_down in (False, True):
        assert (decode_bmp(encode_bmp(img, top_down=top_down)) == img).all()
    with pytest.raises(ValueError):
        decode_bmp(b"BMgarbage")
    with pytest.raises(ValueError):
        decode_bmp(encode_bmp(img)[:30])  # truncated header
    # 8-bit / compressed variants are declared unsupported, not mis-decoded
    bad = bytearray(encode_bmp(img))
    bad[28] = 8  # biBitCount
    with pytest.raises(ValueError, match="24-bit"):
        decode_bmp(bytes(bad))

    flat = np.zeros((5, 6, 3), dtype=np.uint8)
    flat[:, :, 1] = 77
    batch = pa.table(
        {
            "media_id": pa.array([1], type=pa.int64()),
            "payload": pa.array([encode_bmp(flat)], type=pa.binary()),
            "meta": pa.array(
                [{"width": 6, "height": 5, "format": "bmp"}], type=IMAGE_META_TYPE
            ),
        }
    )
    feats = np.asarray(DecodeImageStage(strict=True)(batch)["features"][0].as_py())
    assert feats[0] == 6 and feats[1] == 5
    assert abs(feats[2]) < 1 and abs(feats[3] - 77) < 1 and abs(feats[4]) < 1


def test_stream_ops_partition_invariant(ray_session):
    """latest_events / event_deltas / running_totals / type_transitions must
    be batching-invariant: a 16-partition synthetic stream (interleaved
    keys, duplicate timestamps) equals the single-frame pandas reference."""
    import ray.data

    from logstash_filter_geoip_ray.stages.windows import (
        event_deltas,
        latest_events,
        running_totals,
        type_transitions,
    )

    rng = np.random.default_rng(11)
    n = 5000
    users = rng.integers(0, 40, n)
    ts_us = rng.integers(0, 10_000, n) * 1_000_000  # duplicate ts guaranteed
    types = np.array(["a", "b", "c"])[rng.integers(0, 3, n)]
    vals = rng.integers(0, 5000, n) / 100.0
    tbl = pa.table(
        {
            "user_id": pa.array(users, type=pa.int64()),
            "event_id": pa.array(np.arange(n), type=pa.int64()),
            "ts": pa.array(ts_us, type=pa.int64()).cast(pa.timestamp("us")),
            "event_type": pa.array(types, type=pa.string()),
            "value": pa.array(vals, type=pa.float64()),
        }
    )
    ds = ray.data.from_arrow(tbl).repartition(16)

    ref = tbl.to_pandas().sort_values(["user_id", "ts", "event_id"])
    ref["ts_us"] = ref["ts"].to_numpy().astype("datetime64[us]").astype("int64")
    ref["v_milli"] = np.floor(ref["value"].to_numpy() * 1000.0).astype(np.int64)

    lw = latest_events(ds, num_buckets=8).to_pandas()
    exp_lw = ref.groupby("user_id", sort=True).tail(1).sort_values("user_id")
    assert (lw["event_id"].to_numpy() == exp_lw["event_id"].to_numpy()).all()
    assert (lw["ts_us"].to_numpy() == exp_lw["ts_us"].to_numpy()).all()

    ed = event_deltas(ds, num_buckets=8).to_pandas().set_index("event_id")
    g = ref.groupby("user_id", sort=False)
    exp_gap = ref["ts_us"] - g["ts_us"].shift(1)
    exp_gap = exp_gap.fillna(-1).astype(np.int64)
    assert (ed.loc[ref["event_id"], "gap_us"].to_numpy() == exp_gap.to_numpy()).all()

    rt = running_totals(ds, num_buckets=8).to_pandas().set_index("event_id")
    exp_n = g.cumcount().to_numpy() + 1
    exp_v = g["v_milli"].cumsum().to_numpy()
    assert (rt.loc[ref["event_id"], "run_n"].to_numpy() == exp_n).all()
    assert (rt.loc[ref["event_id"], "run_v_milli"].to_numpy() == exp_v).all()

    tt = type_transitions(ds, num_buckets=8).to_pandas()
    prev = g["event_type"].shift(1)
    mask = prev.notna()
    exp_tt = (
        pd.DataFrame({"prev_type": prev[mask], "next_type": ref["event_type"][mask]})
        .groupby(["prev_type", "next_type"], sort=True)
        .size()
        .reset_index(name="n")
    )
    got = tt.sort_values(["prev_type", "next_type"]).reset_index(drop=True)
    pd.testing.assert_frame_equal(
        got.astype(str), exp_tt.astype(str), check_dtype=False
    )


def test_hash_semi_join_semantics(ray_session):
    """Positive semi-join (EXISTS): a matched left row appears EXACTLY once
    regardless of right-side duplicates; null left keys drop; semi + anti
    partition the left table."""
    import ray.data

    from logstash_filter_geoip_ray.stages.joins import hash_anti_join, hash_semi_join

    left = pa.table(
        {
            "k": pa.array([1, 2, 3, None, 5, 6], type=pa.int64()),
            "v": ["a", "b", "c", "d", "e", "f"],
        }
    )
    right = pa.table({"rk": pa.array([2, 2, 5, None, 9], type=pa.int64())})
    lds = ray.data.from_arrow(left)
    rds = ray.data.from_arrow(right)
    semi = hash_semi_join(lds, rds, "k", "rk", num_buckets=4).to_pandas()
    anti = hash_anti_join(lds, rds, "k", "rk", num_buckets=4).to_pandas()
    assert sorted(semi["v"]) == ["b", "e"]
    assert sorted(list(semi["v"]) + list(anti["v"])) == sorted(
        left["v"].to_pylist()
    )


def _band_counts_naive(lk, lt, rk, rt, before, after):
    out = []
    for k, t in zip(lk, lt):
        if k is None or t is None:
            out.append(0)
            continue
        out.append(
            sum(
                1
                for k2, t2 in zip(rk, rt)
                if k2 == k and t - before <= t2 <= t + after
            )
        )
    return out


def test_band_join_counts_vs_bruteforce(ray_session):
    """Banded interval join: inclusive band endpoints, keys missing from the
    right count 0, null left keys/times count 0, right-side nulls ignored."""
    import ray.data

    from logstash_filter_geoip_ray.stages.joins import band_join_counts

    rng = np.random.RandomState(7)
    n_l, n_r = 200, 300
    lk = rng.randint(0, 12, n_l).tolist()
    lt = rng.randint(0, 1000, n_l).tolist()
    lk[5] = None
    lt[9] = None
    rk = rng.randint(0, 15, n_r).tolist()
    rt = rng.randint(0, 1000, n_r).tolist()
    rk[3] = None
    rt[7] = None
    left = pa.table(
        {
            "k": pa.array(lk, type=pa.int64()),
            "t": pa.array(lt, type=pa.int64()),
            "id": pa.array(range(n_l), type=pa.int64()),
        }
    )
    right = pa.table(
        {"k": pa.array(rk, type=pa.int64()), "t": pa.array(rt, type=pa.int64())}
    )
    got = (
        band_join_counts(
            ray.data.from_arrow(left).repartition(4),
            ray.data.from_arrow(right).repartition(3),
            "k", "k", "t", "t", "id", before=50, after=25, num_buckets=5,
        )
        .to_pandas()
        .sort_values("id")
        .reset_index(drop=True)
    )
    rk_c = [k for k, t in zip(rk, rt) if k is not None and t is not None]
    rt_c = [t for k, t in zip(rk, rt) if k is not None and t is not None]
    exp = _band_counts_naive(lk, lt, rk_c, rt_c, 50, 25)
    assert got["n_matches"].tolist() == exp
    assert got["id"].tolist() == list(range(n_l))


def test_band_join_counts_overflow_fallback(ray_session):
    """Times spanning ~2^61 force the per-segment searchsorted fallback —
    same counts as the banded fast path computes on small spans."""
    import ray.data

    from logstash_filter_geoip_ray.stages.joins import band_join_counts

    big = 1 << 61
    left = pa.table(
        {
            "k": pa.array([1, 1, 2], type=pa.int64()),
            "t": pa.array([big, 100, big], type=pa.int64()),
            "id": pa.array([0, 1, 2], type=pa.int64()),
        }
    )
    right = pa.table(
        {
            "k": pa.array([1, 1, 1, 2], type=pa.int64()),
            "t": pa.array([big - 5, big + 5, 90, 0], type=pa.int64()),
        }
    )
    got = (
        band_join_counts(
            ray.data.from_arrow(left), ray.data.from_arrow(right),
            "k", "k", "t", "t", "id", before=10, after=10, num_buckets=1,
        )
        .to_pandas()
        .sort_values("id")
    )
    assert got["n_matches"].tolist() == [2, 1, 0]


def test_ntile_exact_remainder_semantics(ray_session):
    """NTILE(k) remainder rule: with n = q·k + r rows the first r tiles get
    q+1 rows — checked against a naive per-key reference on ragged sizes."""
    import ray.data

    from logstash_filter_geoip_ray.stages.windows import ntile_stats

    rows = []
    sizes = {"a": 7, "b": 4, "c": 3, "d": 1, "e": 9}
    i = 0
    for key, m in sizes.items():
        for _ in range(m):
            rows.append((key, float(np.random.RandomState(i).rand()), i))
            i += 1
    tbl = pa.table(
        {
            "event_type": [r[0] for r in rows],
            "value": [r[1] for r in rows],
            "event_id": pa.array([r[2] for r in rows], type=pa.int64()),
        }
    )
    got = ntile_stats(
        ray.data.from_arrow(tbl).repartition(3), k=4, num_buckets=3
    ).to_pandas()
    # naive reference
    exp_rows = {}
    for key, m in sizes.items():
        seg = sorted((r for r in rows if r[0] == key), key=lambda r: (r[1], r[2]))
        q, r_ = divmod(m, 4)
        tiles = []
        for tile in range(1, 5):
            tiles += [tile] * ((q + 1) if tile <= r_ else q)
        for (k2, v, _id), t in zip(seg, tiles):
            nk = (key, t)
            n, s = exp_rows.get(nk, (0, 0))
            exp_rows[nk] = (n + 1, s + int(np.floor(v * 1000.0)))
    exp = pd.DataFrame(
        [(k[0], k[1], n, s) for k, (n, s) in sorted(exp_rows.items())],
        columns=["event_type", "tile", "n", "sum_v_milli"],
    )
    pd.testing.assert_frame_equal(
        got.reset_index(drop=True).astype(str), exp.astype(str), check_dtype=False
    )


def test_skew_aware_hash_join_matches_plain(ray_session):
    """Planted hot key: the skew-aware join (hot keys broadcast, cold keys
    bucketed) returns exactly the plain hash_join rows; both paths carry
    rows; the broadcast-side cap raises."""
    import ray.data

    from logstash_filter_geoip_ray.stages.joins import (
        hash_join,
        skew_aware_hash_join,
    )

    rng = np.random.RandomState(3)
    # key 7 is hot (500 rows), keys 0..19 cold (~10 each)
    keys = np.concatenate([np.full(500, 7), rng.randint(0, 20, 200)])
    left = pa.table(
        {
            "k": pa.array(keys, type=pa.int64()),
            "x": pa.array(np.arange(len(keys)), type=pa.int64()),
        }
    )
    right = pa.table(
        {
            "rk": pa.array(np.arange(0, 25), type=pa.int64()),
            "name": [f"r{i}" for i in range(25)],
        }
    )
    lds = ray.data.from_arrow(left).repartition(4)
    rds = ray.data.from_arrow(right).repartition(2)
    got = (
        skew_aware_hash_join(lds, rds, "k", "rk", num_buckets=4,
                             hot_count_threshold=100)
        .to_pandas()
        .sort_values(["x"])
        .reset_index(drop=True)
    )
    exp = (
        hash_join(lds, rds, "k", "rk", num_buckets=4)
        .to_pandas()
        .sort_values(["x"])
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(
        got[sorted(got.columns)], exp[sorted(exp.columns)], check_dtype=False
    )
    assert (got["k"] == 7).sum() == int((keys == 7).sum())  # hot path ran
    assert (got["k"] != 7).sum() > 0  # and so did the cold path

    with pytest.raises(ValueError, match="max_hot_rows"):
        skew_aware_hash_join(
            lds, rds, "k", "rk", hot_count_threshold=100, max_hot_rows=0
        ).to_pandas()


def _naive_bpe(texts, n_merges, min_pair_count=2):
    """Pure-Python reference BPE: word-frequency vocab, weighted adjacent
    pair counts (overlaps included), greedy left-to-right non-overlapping
    merge, ties to the smaller (left, right) pair."""
    from collections import Counter

    vocab = Counter()
    for t in texts:
        for w in t.strip().lower().split():
            vocab[w] += 1
    seqs = {w: [ord(c) for c in w] for w in vocab}
    sym = {}

    def render(s):
        return sym[s] if s >= 0x110000 else chr(s)

    merges = []
    for r in range(n_merges):
        pairs = Counter()
        for w, seq in seqs.items():
            c = vocab[w]
            for i in range(len(seq) - 1):
                pairs[(seq[i], seq[i + 1])] += c
        if not pairs:
            break
        best = min(pairs.items(), key=lambda kv: (-kv[1], kv[0]))
        (a, b), n = best
        if n < min_pair_count:
            break
        new_id = 0x110000 + r
        sym[new_id] = render(a) + render(b)
        merges.append((r, render(a), render(b), n))
        for w, seq in seqs.items():
            out, i = [], 0
            while i < len(seq):
                if i + 1 < len(seq) and seq[i] == a and seq[i + 1] == b:
                    out.append(new_id)
                    i += 2
                else:
                    out.append(seq[i])
                    i += 1
            seqs[w] = out
    return merges


def test_bpe_train_matches_naive_reference(ray_session):
    """Distributed BPE training learns the exact same merge sequence (rules,
    order, weighted counts) as the sequential reference — including a==b
    chain merges and early stopping."""
    import ray.data

    from logstash_filter_geoip_ray.stages.textops import bpe_train

    texts = [
        "the theme of the thesis is the theory",
        "aaaa aaa aa the theater",
        "low lower lowest newest newer new",
        "the the the theme",
        "",
        "   ",
    ]
    tbl = pa.table({"text": texts})
    got = bpe_train(
        ray.data.from_arrow(tbl).repartition(3), n_merges=12, num_buckets=4
    ).to_pandas()
    exp = pd.DataFrame(
        _naive_bpe(texts, 12), columns=["rank", "left", "right", "n"]
    )
    pd.testing.assert_frame_equal(
        got.reset_index(drop=True), exp, check_dtype=False
    )
    # 'th'+'e' style stacked merges must appear for this corpus
    assert len(got) > 3


def test_bpe_encode_matches_naive(ray_session):
    """Applying the learned merges reproduces the sequential tokenizer's
    per-doc token counts exactly."""
    import ray.data

    from logstash_filter_geoip_ray.stages.textops import bpe_encode, bpe_train

    texts = [
        "the theme of the thesis is the theory",
        "aaaa aaa aa the theater",
        "low lower lowest newest newer new",
        "the the the theme",
        "",
    ]
    tbl = pa.table({"doc_id": pa.array(range(len(texts)), type=pa.int64()),
                    "text": texts})
    ds = ray.data.from_arrow(tbl).repartition(2)
    merges = bpe_train(ds, n_merges=8, num_buckets=4)
    got = (
        bpe_encode(ds, merges)
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )

    # sequential replay with the same greedy non-overlap rule
    rules = list(zip(merges["left"].to_pylist(), merges["right"].to_pylist()))
    sym = {}
    rid_rules = []
    for r, (l, rgt) in enumerate(rules):
        a = sym.get(l, ord(l) if len(l) == 1 else None)
        b = sym.get(rgt, ord(rgt) if len(rgt) == 1 else None)
        nid = 0x110000 + r
        sym[l + rgt] = nid
        rid_rules.append((a, b, nid))

    def tok_count(word):
        seq = [ord(c) for c in word]
        for a, b, nid in rid_rules:
            out, i = [], 0
            while i < len(seq):
                if i + 1 < len(seq) and seq[i] == a and seq[i + 1] == b:
                    out.append(nid)
                    i += 2
                else:
                    out.append(seq[i])
                    i += 1
            seq = out
        return len(seq)

    for _, row in got.iterrows():
        t = texts[int(row["doc_id"])]
        exp_tokens = sum(tok_count(w) for w in t.strip().lower().split())
        assert row["n_bpe_tokens"] == exp_tokens, (row, exp_tokens)
        n_chars = len(t)
        exp_ratio = (1000 * exp_tokens) // n_chars if n_chars else 0
        assert row["ratio_milli"] == exp_ratio


def test_band_join_counts_preserves_large_ids(ray_session):
    """Ids above 2^53 survive exactly (the bucket never converts to pandas,
    so the null-filled union cannot degrade the id column to float64)."""
    import ray.data

    from logstash_filter_geoip_ray.stages.joins import band_join_counts

    big = (1 << 53) + 1
    left = pa.table(
        {
            "k": pa.array([1, 1], type=pa.int64()),
            "t": pa.array([10, 500], type=pa.int64()),
            "id": pa.array([big, big + 2], type=pa.int64()),
        }
    )
    right = pa.table(
        {"k": pa.array([1, 1], type=pa.int64()),
         "t": pa.array([9, 11], type=pa.int64())}
    )
    got = (
        band_join_counts(
            ray.data.from_arrow(left), ray.data.from_arrow(right),
            "k", "k", "t", "t", "id", before=2, after=2, num_buckets=2,
        )
        .to_pandas()
        .sort_values("id")
    )
    assert got["id"].tolist() == [big, big + 2]
    assert got["n_matches"].tolist() == [2, 0]


def test_label_centroids_null_labels(ray_session):
    """A null label is its own group (SQL GROUP BY semantics), not a crash
    and not folded into label 0."""
    import duckdb
    import ray.data

    from logstash_filter_geoip_ray.stages.clustering import label_centroids

    tbl = pa.table(
        {
            "embedding": pa.array(
                [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0], [7.0, 8.0]],
                type=pa.list_(pa.float32()),
            ),
            "label": pa.array([0, None, 0, None], type=pa.int32()),
        }
    )
    got = label_centroids(ray.data.from_arrow(tbl)).to_pandas()
    con = duckdb.connect()
    con.register("embeddings", tbl)
    exp = con.sql(
        """
        SELECT CAST(label AS BIGINT) AS label, CAST(i - 1 AS BIGINT) AS dim,
               CAST(sum(CAST(floor(v * 1000) AS BIGINT)) AS BIGINT) AS sum_milli,
               CAST(count(*) AS BIGINT) AS n
        FROM (SELECT label, generate_subscripts(embedding, 1) AS i,
                     unnest(embedding) AS v FROM embeddings)
        GROUP BY 1, 2 ORDER BY 1, 2
        """
    ).df()
    pd.testing.assert_frame_equal(
        _norm(got), _norm(exp), check_dtype=False
    )


def test_retention_cohorts_null_user(ray_session, tmp_path):
    """A null user_id is a real entity — counted like the SQL oracle counts
    it, not dropped by the pandas combine."""
    import duckdb
    import pyarrow.parquet as pq
    import ray.data  # noqa: F401

    from logstash_filter_geoip_ray.stages.relational import retention_cohorts

    tbl = pa.table(
        {
            "user_id": pa.array([1, 1, None, None, 2], type=pa.int64()),
            "event_type": ["click", "click", "view", "view", "click"],
            "ts": pa.array(
                [
                    np.datetime64("2024-01-05", "us"),
                    np.datetime64("2024-01-30", "us"),
                    np.datetime64("2024-01-05", "us"),
                    np.datetime64("2024-01-30", "us"),
                    np.datetime64("2024-01-05", "us"),
                ]
            ),
            "event_id": pa.array(range(5), type=pa.int64()),
            "value": pa.array([0.0] * 5),
            "props": [""] * 5,
        }
    )
    sf = tmp_path / "sf"
    sf.mkdir()
    pq.write_table(tbl, sf / "events.parquet")
    got = retention_cohorts(str(sf)).to_pandas()
    con = duckdb.connect()
    con.sql(
        f"CREATE VIEW events AS SELECT * FROM '{sf}/events.parquet'"
    )
    exp = con.sql(
        """
        SELECT event_type, cohort, CAST(count(*) AS BIGINT) AS n FROM (
          SELECT user_id, event_type,
            CASE WHEN max(CASE WHEN ts < TIMESTAMP '2024-01-29' THEN 1 ELSE 0 END) = 1
                  AND max(CASE WHEN ts >= TIMESTAMP '2024-01-29' THEN 1 ELSE 0 END) = 1
                 THEN 'retained'
                 WHEN max(CASE WHEN ts < TIMESTAMP '2024-01-29' THEN 1 ELSE 0 END) = 1
                 THEN 'churned' ELSE 'new' END AS cohort
          FROM events GROUP BY 1, 2)
        GROUP BY 1, 2 ORDER BY 1, 2
        """
    ).df()
    pd.testing.assert_frame_equal(_norm(got), _norm(exp), check_dtype=False)


def test_hash_join_left_outer_schema_stable(ray_session):
    """how='left': unmatched rows get typed nulls and every bucket block
    agrees on int64 for the right-side count column (no float64 drift in
    full-match buckets)."""
    import ray.data

    from logstash_filter_geoip_ray.stages.joins import hash_join

    left = pa.table(
        {"k": pa.array([1, 2, 3, 4], type=pa.int64()), "v": ["a", "b", "c", "d"]}
    )
    right = pa.table(
        {"rk": pa.array([2, 4], type=pa.int64()),
         "cnt": pa.array([20, 40], type=pa.int64())}
    )
    out = hash_join(
        ray.data.from_arrow(left), ray.data.from_arrow(right),
        "k", "rk", num_buckets=3, how="left",
    )
    assert str(out.schema().types[out.schema().names.index("cnt")]) == "int64"
    df = out.to_pandas().sort_values("k").reset_index(drop=True)
    assert len(df) == 4
    assert df.loc[df["k"] == 2, "cnt"].iloc[0] == 20
    assert pd.isna(df.loc[df["k"] == 1, "cnt"].iloc[0])


def test_asof_join_time_vs_bruteforce(ray_session):
    """asof_join_time == per-row max(right_t <= left_t) brute force,
    including ties at the boundary, keys absent from the right, nulls, and
    large (>2^53) times surviving exactly."""
    import ray.data

    from logstash_filter_geoip_ray.stages.joins import asof_join_time

    rng = np.random.RandomState(11)
    n_l, n_r = 150, 200
    lk = rng.randint(0, 10, n_l).tolist()
    lt = rng.randint(0, 100, n_l).tolist()
    lk[3] = None
    rk = rng.randint(0, 12, n_r).tolist()
    rt = rng.randint(0, 100, n_r).tolist()
    big = (1 << 53) + 7
    lk.append(5)
    lt.append(big + 1)
    rk.append(5)
    rt.append(big)
    left = pa.table(
        {
            "k": pa.array(lk, type=pa.int64()),
            "t": pa.array(lt, type=pa.int64()),
            "id": pa.array(range(len(lk)), type=pa.int64()),
        }
    )
    right = pa.table(
        {"k": pa.array(rk, type=pa.int64()), "t": pa.array(rt, type=pa.int64())}
    )
    out = asof_join_time(
        ray.data.from_arrow(left).repartition(3),
        ray.data.from_arrow(right).repartition(2),
        "k", "k", "t", "t", "id", num_buckets=4,
    )
    # read ARROW, not pandas: a nullable int64 column through to_pandas
    # becomes float64 and would round the >2^53 value in the TEST itself
    blocks = [
        t.select(["id", "matched_t"])
        for t in ray.get(out.to_arrow_refs())
        if t.num_rows  # Ray's groupby can emit empty zero-column blocks
    ]
    got_tbl = pa.concat_tables(blocks, promote_options="default").sort_by("id")
    got_vals = got_tbl["matched_t"].to_pylist()
    exp = []
    for k, t in zip(lk, lt):
        if k is None:
            exp.append(None)
            continue
        cands = [t2 for k2, t2 in zip(rk, rt) if k2 == k and t2 <= t]
        exp.append(max(cands) if cands else None)
    assert got_vals == exp
    assert got_vals[-1] == big  # >2^53 matched time survives exactly


def test_grouped_mode_ties_and_buckets(ray_session):
    """Mode per key: ties resolve to the smallest value; result is
    partition-layout invariant (1 block vs many)."""
    import ray

    from logstash_filter_geoip_ray.stages.aggregate import grouped_mode

    rows = (
        [("a", "x")] * 3 + [("a", "y")] * 3 + [("a", "z")] * 2  # tie x/y -> x
        + [("b", "q")] * 5 + [("b", "p")] * 4                    # clear win q
        + [("c", "m")]                                            # singleton
    )
    tbl = pa.table({
        "k": pa.array([r[0] for r in rows]),
        "v": pa.array([r[1] for r in rows]),
    })
    for n_blocks in (1, 7):
        ds = ray.data.from_arrow(tbl).repartition(n_blocks)
        got = grouped_mode(ds, "k", "v", num_buckets=4).to_pandas()
        assert list(got["k"]) == ["a", "b", "c"]
        assert list(got["mode_value"]) == ["x", "q", "m"]
        assert list(got["n"]) == [3, 5, 1]


def test_sigma_outliers_matches_bruteforce(ray_session):
    """Integer 3-sigma bounds equal the brute-force cross-multiplied
    inequality on every row, including a planted extreme outlier and a
    zero-variance key."""
    import ray

    from logstash_filter_geoip_ray.stages.aggregate import sigma_outliers

    rng = np.random.default_rng(7)
    vals = list(rng.normal(100.0, 5.0, 400)) + [5000.0] + [42.0] * 10
    keys = ["n"] * 401 + ["const"] * 10
    ids = list(range(len(vals)))
    tbl = pa.table({
        "event_id": pa.array(ids, type=pa.int64()),
        "event_type": pa.array(keys),
        "value": pa.array(vals, type=pa.float64()),
    })
    ds = ray.data.from_arrow(tbl).repartition(5)
    got = sigma_outliers(ds, "event_type", "event_id", "value").to_pandas()

    # brute force with exact ints
    import math
    x = np.floor(np.array(vals) * 1000.0).astype(np.int64)
    expect = []
    for key in ("n", "const"):
        idx = [i for i, k in enumerate(keys) if k == key]
        xs = [int(x[i]) for i in idx]
        n, s, q = len(xs), sum(xs), sum(v * v for v in xs)
        for i, v in zip(idx, xs):
            if (n * v - s) ** 2 > 9 * (n * q - s * s):
                expect.append(i)
    assert sorted(got["event_id"]) == sorted(expect)
    assert 400 in list(got["event_id"])  # the planted outlier flags
    assert not any(k == "const" for k in got["event_type"])  # zero variance


def test_triangle_counts_vs_bruteforce(ray_session):
    """Degree-oriented wedge-check equals brute-force per-node triangle
    counts on a random graph plus a planted clique, at 1 and many blocks."""
    import itertools

    import ray

    from logstash_filter_geoip_ray.stages.graph import triangle_counts

    rng = np.random.default_rng(11)
    n = 40
    edge_set = set()
    for _ in range(160):
        a, b = rng.integers(0, n, 2)
        if a != b:
            edge_set.add((min(int(a), int(b)), max(int(a), int(b))))
    # planted 5-clique on high ids (distinct from the random mass)
    for a, b in itertools.combinations(range(100, 105), 2):
        edge_set.add((a, b))
    edges = sorted(edge_set)

    adj = {}
    for a, b in edges:
        adj.setdefault(a, set()).add(b)
        adj.setdefault(b, set()).add(a)
    expect = {}
    for a, b in edges:
        for c in adj[a] & adj[b]:
            if c > b:  # count each triangle once at its ordered corners
                for node in (a, b, c):
                    expect[node] = expect.get(node, 0) + 1

    tbl = pa.table({
        "a": pa.array([e[0] for e in edges], type=pa.int64()),
        "b": pa.array([e[1] for e in edges], type=pa.int64()),
    })
    for n_blocks in (1, 6):
        ds = ray.data.from_arrow(tbl).repartition(n_blocks)
        got = triangle_counts(ds, num_buckets=4).to_pandas()
        got_map = dict(zip(got["node"], got["n_tri"]))
        assert got_map == expect
    # the planted clique participates in C(4,2)=6 triangles per corner
    assert all(expect[v] >= 6 for v in range(100, 105))


def test_profile_columns_nulls_and_blocks(ray_session):
    """Profiler counts nulls per column, excludes them from distinct and
    min/max, survives an all-null column, and is block-layout invariant."""
    import ray

    from logstash_filter_geoip_ray.stages.profile import profile_columns

    tbl = pa.table({
        "a": pa.array([1, 2, 2, None, 10], type=pa.int64()),
        "b": pa.array(["x", None, None, "y", "x"]),
        "c": pa.array([None] * 5, type=pa.string()),
    })
    for n_blocks in (1, 4):
        ds = ray.data.from_arrow(tbl).repartition(n_blocks)
        got = profile_columns(ds, ["a", "b", "c"])
        rows = {r["col"]: r for _, r in got.iterrows()}
        assert rows["a"]["n_rows"] == 5 and rows["a"]["n_null"] == 1
        assert rows["a"]["n_distinct"] == 3
        # lexicographic on the string form: "10" < "2"
        assert rows["a"]["min_val"] == "1" and rows["a"]["max_val"] == "2"
        assert rows["b"]["n_null"] == 2 and rows["b"]["n_distinct"] == 2
        assert rows["b"]["min_val"] == "x" and rows["b"]["max_val"] == "y"
        assert rows["c"]["n_null"] == 5 and rows["c"]["n_distinct"] == 0
        assert rows["c"]["min_val"] is None or pd.isna(rows["c"]["min_val"])


def test_edit_distance_pairs_vs_bruteforce(ray_session):
    """Vectorized all-pairs byte DP equals a classic per-pair reference,
    including unicode (byte semantics), empty and null texts."""
    import ray

    from logstash_filter_geoip_ray.stages.dedup import edit_distance_pairs

    def lev_bytes(s, t):
        a, b = s.encode("utf-8"), t.encode("utf-8")
        prev = list(range(len(b) + 1))
        for i in range(1, len(a) + 1):
            cur = [i] + [0] * len(b)
            for j in range(1, len(b) + 1):
                cur[j] = min(prev[j] + 1, cur[j - 1] + 1,
                             prev[j - 1] + (a[i - 1] != b[j - 1]))
            prev = cur
        return prev[len(b)]

    texts = ["hello world", "hello wrld", "héllo world", "", "abc",
             "zzzz totally different content here", None, "hello world"]
    n = len(texts)
    tbl = pa.table({
        "doc_id": pa.array(range(n), type=pa.int64()),
        "lang": pa.array(["en"] * n),
        "source": pa.array(["web"] * n),
        "text": pa.array(texts, type=pa.string()),
    })
    ds = ray.data.from_arrow(tbl).repartition(3)
    got = edit_distance_pairs(ds, prefix_chars=64, max_dist=100).to_pandas()
    got_pairs = {(r.a, r.b): r.dist for r in got.itertuples()}
    expect = {}
    for i in range(n):
        for j in range(i + 1, n):
            if texts[i] is None or texts[j] is None:
                continue
            expect[(i, j)] = lev_bytes(texts[i][:64], texts[j][:64])
    assert got_pairs == expect
    assert got_pairs[(2, 7)] == 2  # héllo vs hello: 2 BYTE edits


def test_late_events_vs_naive(ray_session):
    """Watermark classification equals a per-key sequential replay of the
    md5 arrival order, including the never-late first arrival per key."""
    import hashlib

    import ray

    from logstash_filter_geoip_ray.stages.windows import late_events

    rng = np.random.default_rng(3)
    n = 300
    base = 1_700_000_000_000_000
    ids = np.arange(n, dtype=np.int64)
    keys = rng.integers(0, 7, n).astype(np.int64)
    ts = base + rng.integers(0, 10**9, n).astype(np.int64)
    tbl = pa.table({
        "event_id": pa.array(ids),
        "user_id": pa.array(keys),
        "ts": pa.array(ts, type=pa.int64()).cast(pa.timestamp("us")),
    })
    lateness = 10**8
    ds = ray.data.from_arrow(tbl).repartition(4)
    got = late_events(ds, lateness_us=lateness, num_buckets=3).to_pandas()

    order = sorted(range(n), key=lambda i: (
        hashlib.md5(f"arr:{ids[i]}".encode()).hexdigest(), ids[i]))
    wm = {}
    expect = {}
    for i in order:
        k = keys[i]
        if k in wm and wm[k] - ts[i] > lateness:
            expect[ids[i]] = (wm[k], wm[k] - ts[i])
        wm[k] = max(wm.get(k, ts[i]), ts[i])
    got_map = {r.event_id: (r.wm_us, r.late_by_us) for r in got.itertuples()}
    assert got_map == expect
    assert len(expect) > 0  # the permutation must actually create lateness


def test_quantize_embeddings_reference(ray_session):
    """Quantization codes equal the closed-form numpy reference; constant
    dimensions map to 0; codes span [0, 254]."""
    import ray

    from logstash_filter_geoip_ray.stages.clustering import quantize_embeddings

    rng = np.random.default_rng(5)
    n, d = 50, 6
    mat = rng.normal(0, 1, (n, d))
    mat[:, 3] = 0.42  # constant dim
    tbl = pa.table({
        "vec_id": pa.array(np.arange(n, dtype=np.int64)),
        "embedding": pa.array([list(map(float, row)) for row in mat],
                              type=pa.list_(pa.float32())),
    })
    ds = ray.data.from_arrow(tbl).repartition(4)
    got = quantize_embeddings(ds).to_pandas()

    milli = np.floor(mat.astype(np.float32).astype(np.float64) * 1000).astype(np.int64)
    mn, mx = milli.min(0), milli.max(0)
    span = mx - mn
    ref = np.where(span > 0, ((milli - mn) * 254) // np.where(span == 0, 1, span), 0)
    got_q = got.sort_values(["vec_id", "dim"])["q"].to_numpy().reshape(n, d)
    assert (got_q == ref).all()
    assert (got_q[:, 3] == 0).all()
    assert got_q.min() >= 0 and got_q.max() <= 254


def test_winsorize_values_vs_numpy(ray_session):
    """Histogram-derived quantile bounds equal DuckDB's quantile_disc
    convention and every row clips correctly, multi-block."""
    import ray

    from logstash_filter_geoip_ray.stages.aggregate import winsorize_values

    rng = np.random.default_rng(9)
    n = 500
    keys = rng.choice(["a", "b"], n)
    vals = np.where(keys == "a", rng.normal(10, 3, n), rng.normal(-5, 1, n))
    tbl = pa.table({
        "event_id": pa.array(np.arange(n, dtype=np.int64)),
        "event_type": pa.array(keys),
        "value": pa.array(vals, type=pa.float64()),
    })
    ds = ray.data.from_arrow(tbl).repartition(5)
    got = winsorize_values(ds, "event_type", "event_id", "value",
                           p_lo=0.1, p_hi=0.9, num_buckets=4).to_pandas()

    x = np.floor(vals * 1000).astype(np.int64)
    expect = np.empty(n, dtype=np.int64)
    for k in ("a", "b"):
        mask = keys == k
        s = np.sort(x[mask])
        m = len(s)
        lo = s[min(m - 1, max(0, int(np.ceil(m * 0.1)) - 1))]
        hi = s[min(m - 1, max(0, int(np.ceil(m * 0.9)) - 1))]
        expect[mask] = np.clip(x[mask], lo, hi)
    got_sorted = got.sort_values("event_id")["x_wins"].to_numpy()
    assert (got_sorted == expect).all()
    assert (got_sorted != x).any()  # clipping actually happened


def test_grouped_trend_bigint_exact(ray_session):
    """OLS slope rationals match a Python big-int reference, including
    magnitudes that overflow int64 inside the per-key products."""
    import ray

    from logstash_filter_geoip_ray.stages.aggregate import grouped_trend

    base = 1_600_000_000_000_000
    xs = np.array([base + i * 10**12 for i in range(8)], dtype=np.int64)
    ys = np.array([5, 7, 9, 11, 13, 15, 17, 100], dtype=np.int64)
    keys = ["k"] * 8
    tbl = pa.table({
        "event_type": pa.array(keys),
        "x": pa.array(xs),
        "y": pa.array(ys),
    })
    ds = ray.data.from_arrow(tbl).repartition(3)
    got = grouped_trend(ds, "event_type", "x", "y", x_base=base).to_pandas()

    rx = [int(v) - base for v in xs]
    ry = [int(v) for v in ys]
    n = len(rx)
    sx, sy = sum(rx), sum(ry)
    sxy = sum(a * b for a, b in zip(rx, ry))
    sxx = sum(a * a for a in rx)
    assert len(got) == 1
    assert got["n"].iloc[0] == n
    assert got["slope_num"].iloc[0] == str(n * sxy - sx * sy)
    assert got["slope_den"].iloc[0] == str(n * sxx - sx * sx)
    assert n * sxx - sx * sx > 2**63  # the exchange really carried big ints


def test_knn_majority_labels_vs_bruteforce(ray_session):
    """Grid k-NN + majority vote equals a naive full-matrix reference,
    including dot ties (duplicate vectors) and label-vote ties."""
    import ray

    from logstash_filter_geoip_ray.stages.similarity import knn_majority_labels

    rng = np.random.default_rng(13)
    n, d, k = 60, 8, 5
    mat = rng.normal(0, 1, (n, d))
    mat[7] = mat[3]  # exact duplicate → guaranteed dot ties
    labels = rng.integers(0, 3, n).astype(np.int64)
    tbl = pa.table({
        "vec_id": pa.array(np.arange(n, dtype=np.int64)),
        "embedding": pa.array([list(map(float, r)) for r in mat],
                              type=pa.list_(pa.float32())),
        "label": pa.array(labels, type=pa.int32()),
    })
    ds = ray.data.from_arrow(tbl).repartition(5)
    got = knn_majority_labels(ds, k=k, num_blocks=3, num_buckets=4).to_pandas()

    milli = np.floor(mat.astype(np.float32).astype(np.float64) * 1000).astype(np.int64)
    dots = milli @ milli.T
    expect = {}
    for q in range(n):
        cand = sorted(
            (( -dots[q, j], j) for j in range(n) if j != q)
        )[:k]
        votes = {}
        for _, j in cand:
            votes[labels[j]] = votes.get(labels[j], 0) + 1
        best = sorted(votes.items(), key=lambda t: (-t[1], t[0]))[0]
        expect[q] = (best[0], best[1])
    got_map = {r.vec_id: (r.pred_label, r.n_votes) for r in got.itertuples()}
    assert got_map == expect


def test_percent_ranks_vs_bruteforce(ray_session):
    """Integer percent_rank numerator/denominator equal the SQL RANK
    definition computed naively, with heavy value ties across blocks."""
    import ray

    from logstash_filter_geoip_ray.stages.windows import percent_ranks

    rng = np.random.default_rng(21)
    n = 400
    keys = rng.choice(["a", "b", "c"], n)
    vals = rng.integers(0, 6, n) / 2.0  # few distinct values → many ties
    tbl = pa.table({
        "event_id": pa.array(np.arange(n, dtype=np.int64)),
        "event_type": pa.array(keys),
        "value": pa.array(vals, type=pa.float64()),
    })
    ds = ray.data.from_arrow(tbl).repartition(6)
    got = percent_ranks(ds, num_buckets=4).to_pandas().sort_values("event_id")

    x = np.floor(vals * 1000).astype(np.int64)
    exp_num = np.empty(n, dtype=np.int64)
    exp_den = np.empty(n, dtype=np.int64)
    for k in ("a", "b", "c"):
        mask = keys == k
        xs = x[mask]
        for i in np.nonzero(mask)[0]:
            exp_num[i] = int((xs < x[i]).sum())  # RANK - 1 = strictly below
            exp_den[i] = int(mask.sum()) - 1
    assert (got["pr_num"].to_numpy() == exp_num).all()
    assert (got["pr_den"].to_numpy() == exp_den).all()


def test_triangle_counts_dense_graph_guard(ray_session):
    """A near-clique must raise the wedge-budget guard instead of silently
    launching a cubic wedge exchange."""
    import itertools

    import ray

    from logstash_filter_geoip_ray.stages.graph import triangle_counts

    edges = list(itertools.combinations(range(40), 2))  # complete K40
    tbl = pa.table({
        "a": pa.array([e[0] for e in edges], type=pa.int64()),
        "b": pa.array([e[1] for e in edges], type=pa.int64()),
    })
    ds = ray.data.from_arrow(tbl)
    with pytest.raises(ValueError, match="wedge budget"):
        triangle_counts(ds, num_buckets=2, max_wedges=1000).to_pandas()
    # and the same graph passes with an adequate budget
    got = triangle_counts(ds, num_buckets=2, max_wedges=10**6).to_pandas()
    assert (got["n_tri"] == (39 * 38) // 2).all()  # C(39,2) per corner in K40


def test_null_key_parity_for_new_operators(ray_session):
    """Review-fix regressions: SQL-null parity for the extension batch —
    grouped_mode keeps null groups (a NULL mode wins), winsorize drops
    null-key rows (inner-join oracle), late_events treats NULL keys as
    one partition, and edit_distance_pairs never pairs a null block."""
    import duckdb
    import ray

    from logstash_filter_geoip_ray.stages.aggregate import (
        grouped_mode,
        winsorize_values,
    )
    from logstash_filter_geoip_ray.stages.dedup import edit_distance_pairs
    from logstash_filter_geoip_ray.stages.windows import late_events

    # grouped_mode: key 'a' has 3 NULL values vs 2 'x' → mode is NULL
    t = pa.table({
        "k": pa.array(["a"] * 5 + [None, None]),
        "v": pa.array([None, None, None, "x", "x", "z", "z"]),
    })
    got = grouped_mode(ray.data.from_arrow(t).repartition(3), "k", "v",
                       num_buckets=2).to_pandas()
    a_row = got[got["k"] == "a"].iloc[0]
    assert pd.isna(a_row["mode_value"]) and a_row["n"] == 3
    null_key = got[got["k"].isna()]
    assert len(null_key) == 1 and null_key.iloc[0]["mode_value"] == "z"

    # winsorize: null-key rows are excluded, like the oracle's inner join
    t2 = pa.table({
        "event_id": pa.array([1, 2, 3, 4], type=pa.int64()),
        "event_type": pa.array(["a", "a", None, "a"]),
        "value": pa.array([1.0, 2.0, 99.0, 3.0]),
    })
    got2 = winsorize_values(
        ray.data.from_arrow(t2), "event_type", "event_id", "value",
        num_buckets=2,
    ).to_pandas()
    assert sorted(got2["event_id"]) == [1, 2, 4]

    # late_events: NULL user is one partition (SQL PARTITION BY semantics)
    base = 1_700_000_000_000_000
    t3 = pa.table({
        "event_id": pa.array(range(40), type=pa.int64()),
        "user_id": pa.array([None] * 40, type=pa.int64()),
        "ts": pa.array([base + i * 10**7 for i in range(40)],
                       type=pa.int64()).cast(pa.timestamp("us")),
    })
    got3 = late_events(ray.data.from_arrow(t3), lateness_us=10**7,
                       num_buckets=2).to_pandas()
    con = duckdb.connect()
    con.register("ev", t3.to_pandas())
    exp3 = con.sql("""
        WITH w AS (SELECT event_id, max(epoch_us(ts)) OVER (
            PARTITION BY user_id
            ORDER BY md5('arr:' || CAST(event_id AS VARCHAR)), event_id
            ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING) AS wm,
            epoch_us(ts) AS t FROM ev)
        SELECT event_id FROM w WHERE wm - t > 10000000 ORDER BY event_id
    """).df()
    assert sorted(got3["event_id"]) == sorted(exp3["event_id"])
    assert len(got3) > 0

    # edit_distance_pairs: null lang rows never pair
    t4 = pa.table({
        "doc_id": pa.array([1, 2, 3], type=pa.int64()),
        "lang": pa.array([None, None, "en"]),
        "source": pa.array(["w", "w", "w"]),
        "text": pa.array(["aaa", "aab", "aac"]),
    })
    got4 = edit_distance_pairs(ray.data.from_arrow(t4), max_dist=100).to_pandas()
    assert len(got4) == 0


def test_merged_interval_stats_vs_naive(ray_session):
    """Island merging equals a sequential sweep, including touching
    intervals (s == prev max e does NOT open a new island), nested
    intervals, and multi-block layout."""
    import ray

    from logstash_filter_geoip_ray.stages.windows import merged_interval_stats

    rng = np.random.default_rng(17)
    n = 300
    keys = rng.integers(0, 5, n).astype(np.int64)
    base = 1_700_000_000_000_000
    s = base + rng.integers(0, 10**8, n).astype(np.int64)
    dur = 5_000_000
    tbl = pa.table({
        "user_id": pa.array(keys),
        "ts": pa.array(s, type=pa.int64()).cast(pa.timestamp("us")),
    })
    ds = ray.data.from_arrow(tbl).repartition(4)
    got = merged_interval_stats(ds, duration_us=dur, num_buckets=3).to_pandas()

    expect = {}
    for k in np.unique(keys):
        iv = sorted((int(x), int(x) + dur) for x in s[keys == k])
        islands = []
        for a, b in iv:
            if islands and a <= islands[-1][1]:
                islands[-1][1] = max(islands[-1][1], b)
            else:
                islands.append([a, b])
        expect[int(k)] = (len(islands), sum(b - a for a, b in islands))
    got_map = {
        int(r.user_id): (int(r.n_islands), int(r.covered_us))
        for r in got.itertuples()
    }
    assert got_map == expect


def test_stratified_split_ratios_and_determinism(ray_session):
    """Split sizes obey the exact integer thresholds per stratum, the
    assignment is layout-invariant, and every row appears exactly once."""
    import ray

    from logstash_filter_geoip_ray.stages.packing import stratified_split

    rng = np.random.default_rng(23)
    n = 400
    strata = rng.choice(["a", "b", "c"], n)
    tbl = pa.table({
        "doc_id": pa.array(np.arange(n, dtype=np.int64)),
        "source": pa.array(strata),
    })
    results = []
    for n_blocks in (1, 7):
        ds = ray.data.from_arrow(tbl).repartition(n_blocks)
        got = stratified_split(ds, num_buckets=3).to_pandas()
        assert len(got) == n and got["doc_id"].is_unique
        for st in ("a", "b", "c"):
            sub = got[got["source"] == st]
            m = len(sub)
            n_train = (sub["split"] == "train").sum()
            n_val = (sub["split"] == "val").sum()
            # exact integer-threshold sizes: #train = floor(0.8 m), etc.
            assert n_train == (80 * m) // 100
            assert n_train + n_val == (90 * m) // 100
        results.append(got.sort_values("doc_id").reset_index(drop=True))
    pd.testing.assert_frame_equal(results[0], results[1])


def test_funnel_counts_vs_bruteforce(ray_session):
    """Chained first-touch funnel equals a per-user sequential reference,
    including tie semantics (equal timestamps do NOT advance the funnel)
    and zero rows for steps nobody reached."""
    import ray

    from logstash_filter_geoip_ray.stages.windows import funnel_counts

    rng = np.random.default_rng(11)
    n = 400
    types = np.array(["view", "click", "purchase", "error"])
    tvals = types[rng.integers(0, 4, n)]
    keys = rng.integers(0, 25, n).astype(np.int64)
    base = 1_700_000_000_000_000
    # coarse second-granularity grid → plenty of exact ties
    ts = base + rng.integers(0, 50, n).astype(np.int64) * 1_000_000
    tbl = pa.table({
        "user_id": pa.array(keys),
        "ts": pa.array(ts, type=pa.int64()).cast(pa.timestamp("us")),
        "event_type": pa.array(tvals),
    })
    steps = ["view", "click", "purchase"]
    ds = ray.data.from_arrow(tbl).repartition(5)

    for within in (None, 10):
        got = funnel_counts(ds, steps, num_buckets=4, within_sec=within).to_pandas()
        counts = [0, 0, 0]
        for u in np.unique(keys):
            mask = keys == u
            ut, utt = ts[mask], tvals[mask]
            prev = None
            for i, s in enumerate(steps):
                cand = ut[utt == s]
                if prev is not None:
                    ok = cand > prev
                    if within is not None:
                        ok &= cand <= prev + within * 1_000_000
                    cand = cand[ok]
                if cand.size == 0:
                    break
                prev = cand.min()
                counts[i] += 1
        assert list(got["step"]) == [0, 1, 2]
        assert list(got["users"]) == counts, f"within={within}"
        assert counts[2] > 0  # the grid must actually produce full conversions
        if within is not None:
            assert counts[1] < counts[0]  # the window must actually bite

    # a step type absent from the data still reports its row, at zero
    got2 = funnel_counts(
        ray.data.from_arrow(tbl), ["error", "view", "zzz_absent"], num_buckets=4
    ).to_pandas()
    assert list(got2["step"]) == [0, 1, 2]
    assert got2["users"].iloc[2] == 0


def test_morton_key_properties():
    """Bit-interleave invariants: bijective on the masked domain, even bits
    from x, odd bits from y, monotone in each coordinate along axes."""
    import numpy as np

    from logstash_filter_geoip_ray.stages.packing import morton_key

    x = np.arange(64)
    z_x = morton_key(x, np.zeros(64, dtype=np.int64), bits=8)
    z_y = morton_key(np.zeros(64, dtype=np.int64), x, bits=8)
    assert (z_y == 2 * z_x).all()  # y occupies the odd bit positions
    assert (np.diff(z_x) > 0).all()  # monotone along an axis
    # bijectivity on a full small grid
    gx, gy = np.meshgrid(np.arange(16), np.arange(16))
    z = morton_key(gx.ravel(), gy.ravel(), bits=4)
    assert len(np.unique(z)) == 256 and z.max() == 255
    # masking: only the low `bits` bits participate
    assert morton_key(np.array([16 + 3]), np.array([0]), bits=4)[0] == \
        morton_key(np.array([3]), np.array([0]), bits=4)[0]
    # negative inputs raise loudly instead of silently two's-complementing
    with pytest.raises(ValueError, match="non-negative"):
        morton_key(np.array([-1]), np.array([0]), bits=4)
    with pytest.raises(ValueError, match="non-negative"):
        morton_key(np.array([0]), np.array([-7]), bits=4)


def test_funnel_counts_edge_contracts(ray_session):
    """funnel_counts emits k zero rows when NO step event exists at all,
    and normalizes non-microsecond timestamp units before within_sec math."""
    import ray

    from logstash_filter_geoip_ray.stages.windows import funnel_counts

    base = 1_700_000_000_000_000
    tbl = pa.table({
        "user_id": pa.array([1, 1], type=pa.int64()),
        "ts": pa.array([base, base + 5_000_000], type=pa.int64()).cast(
            pa.timestamp("us")
        ),
        "event_type": pa.array(["other", "other"]),
    })
    got = funnel_counts(
        ray.data.from_arrow(tbl), ["a", "b"], num_buckets=2
    ).to_pandas()
    assert list(got["step"]) == [0, 1]
    assert list(got["users"]) == [0, 0]

    # nanosecond timestamps: a 5-second gap must still convert under
    # within_sec=10 (an un-normalized int64 cast would see 5e9 "us")
    tbl_ns = pa.table({
        "user_id": pa.array([1, 1], type=pa.int64()),
        "ts": pa.array(
            [base * 1000, (base + 5_000_000) * 1000], type=pa.int64()
        ).cast(pa.timestamp("ns")),
        "event_type": pa.array(["a", "b"]),
    })
    got_ns = funnel_counts(
        ray.data.from_arrow(tbl_ns), ["a", "b"], num_buckets=2, within_sec=10
    ).to_pandas()
    assert list(got_ns["users"]) == [1, 1]


def test_null_user_parity_cooccurrence_profile(ray_session, sf_dir_copy_nulls):
    """q_event_cooccurrence excludes NULL users (SQL join semantics);
    q_user_type_profile keeps the NULL-user group (SQL GROUP BY semantics).
    Both verified against their DuckDB oracles on a corpus WITH null
    user_ids."""
    import duckdb

    from logstash_filter_geoip_ray.pipelines.data_ops import (
        q_event_cooccurrence,
        q_user_type_profile,
    )
    from __ray_entry__ import oracle_sql

    sf = sf_dir_copy_nulls
    con = duckdb.connect()
    con.execute(
        f"CREATE VIEW events AS SELECT * FROM '{sf}/events.parquet'"
    )
    for name, q in (
        ("event_cooccurrence", q_event_cooccurrence),
        ("user_type_profile", q_user_type_profile),
    ):
        got = q(sf).to_pandas()
        want = con.execute(oracle_sql()[name]).fetch_df()
        got = got.sort_values(list(got.columns)).reset_index(drop=True)
        want = want.sort_values(list(want.columns)).reset_index(drop=True)
        pd.testing.assert_frame_equal(
            got[sorted(got.columns)], want[sorted(want.columns)],
            check_dtype=False,
        )
    con.close()


def test_unpivot_roundtrip(ray_session):
    """melt widens row count by len(value_cols) and preserves values."""
    import ray.data

    from logstash_filter_geoip_ray.stages.relational import unpivot

    t = pa.table({
        "id": pa.array([1, 2], type=pa.int64()),
        "a": pa.array([10, 20], type=pa.int64()),
        "b": pa.array([30, 40], type=pa.int64()),
    })
    out = unpivot(ray.data.from_arrow(t), ["id"], ["a", "b"]).to_pandas()
    assert len(out) == 4
    wide = out.pivot(index="id", columns="measure", values="value")
    assert wide.loc[1, "a"] == 10 and wide.loc[2, "b"] == 40


def test_weighted_priority_sample_rejects_nonpositive(ray_session):
    import ray.data

    from logstash_filter_geoip_ray.stages.aggregate import (
        weighted_priority_sample,
    )

    t = pa.table({
        "id": pa.array([1, 2], type=pa.int64()),
        "w": pa.array([5, 0], type=pa.int64()),
    })
    with pytest.raises(Exception, match="positive"):
        weighted_priority_sample(
            ray.data.from_arrow(t), "id", "w", k=1
        ).to_pandas()


def test_weighted_priority_sample_weight_monotone(ray_session):
    """A heavier weight can only shrink a row's priority — the
    weight-proportional selection property of priority sampling."""
    import ray.data

    from logstash_filter_geoip_ray.stages.aggregate import (
        weighted_priority_sample,
    )

    ids = pa.array(list(range(1, 201)), type=pa.int64())
    light = pa.table({"id": ids, "w": pa.array([1] * 200, type=pa.int64())})
    heavy_ids = set(range(1, 51))
    heavy = pa.table({
        "id": ids,
        "w": pa.array(
            [1000 if i in heavy_ids else 1 for i in range(1, 201)],
            type=pa.int64(),
        ),
    })
    top_light = weighted_priority_sample(
        ray.data.from_arrow(light), "id", "w", k=20
    ).to_pandas()
    top_heavy = weighted_priority_sample(
        ray.data.from_arrow(heavy), "id", "w", k=20
    ).to_pandas()
    # upweighted rows crowd into the sample
    frac_before = sum(i in heavy_ids for i in top_light["id"]) / 20
    frac_after = sum(i in heavy_ids for i in top_heavy["id"]) / 20
    assert frac_after > frac_before and frac_after >= 0.9


def test_balanced_shards_load_spread(ray_session):
    """Snake dealing bounds the shard-load gap by one max row size."""
    import ray.data

    from logstash_filter_geoip_ray.stages.packing import balanced_shards

    sizes = pa.table({
        "id": pa.array(list(range(1000)), type=pa.int64()),
        "sz": pa.array([((i * 37) % 97) + 1 for i in range(1000)],
                       type=pa.int64()),
    })
    out = balanced_shards(
        ray.data.from_arrow(sizes), "id", "sz", num_shards=8
    ).to_pandas()
    assert sorted(out["rnk"]) == list(range(1000))  # a true global rank
    loads = out.groupby("shard")["sz"].sum()
    assert len(loads) == 8
    assert loads.max() - loads.min() <= out["sz"].max()


def test_bloom_prefilter_join_equals_hash_join(ray_session):
    """The Bloom runtime filter must be a pure optimization: identical
    result to the exact partitioned join (false negatives impossible),
    null left keys drop (inner semantics), non-integer keys rejected."""
    import ray.data

    from logstash_filter_geoip_ray.stages.joins import (
        bloom_prefilter_join,
        hash_join,
    )

    # mostly-nonmatching left (the case the prefilter exists for)
    left = pa.table({
        "k": pa.array(
            [i % 997 for i in range(5000)] + [None, None], type=pa.int64()
        ),
        "lv": pa.array(list(range(5002)), type=pa.int64()),
    })
    right = pa.table({
        "rk": pa.array([3, 3, 14, 900, 12345], type=pa.int64()),
        "rv": ["a", "b", "c", "d", "e"],
    })
    got = (
        bloom_prefilter_join(
            ray.data.from_arrow(left), ray.data.from_arrow(right), "k", "rk",
            num_buckets=4, m_bits=1 << 10,  # tiny filter → plenty of FPs
        )
        .to_pandas()
        .sort_values(["k", "lv", "rv"])
        .reset_index(drop=True)
    )
    want = (
        hash_join(
            ray.data.from_arrow(left), ray.data.from_arrow(right), "k", "rk",
            num_buckets=4,
        )
        .to_pandas()
        .sort_values(["k", "lv", "rv"])
        .reset_index(drop=True)
    )
    # the null-carrying left key comes back float64 from the plain join
    # (inner join dropped the nulls, so the int64 cast is lossless)
    pd.testing.assert_frame_equal(got, want.astype({"k": "int64"}))
    assert len(got) and set(got["k"]) == {3, 14, 900}

    bad = pa.table({"k": ["x"], "lv": pa.array([1], type=pa.int64())})
    with pytest.raises(Exception, match="integer join keys"):
        bloom_prefilter_join(
            ray.data.from_arrow(bad),
            ray.data.from_arrow(right), "k", "rk",
        ).to_pandas()


def test_paragraph_dedup_planted(ray_session):
    """Global first-occurrence rule: a paragraph shared by docs 1 and 2
    survives only in doc 1; a within-doc repeat keeps only its first idx;
    a doc whose every paragraph appeared earlier disappears entirely."""
    import ray.data

    from logstash_filter_geoip_ray.stages.textops import paragraph_dedup

    docs = pa.table(
        {
            "doc_id": pa.array([1, 2, 3], pa.int64()),
            "text": [
                "alpha\nshared para\nalpha",   # within-doc repeat of 'alpha'
                "shared para\nbeta",            # 'shared para' lost to doc 1
                "alpha\nshared para",           # fully duplicated → dropped
            ],
        }
    )
    out = paragraph_dedup(ray.data.from_arrow(docs), num_buckets=4).to_pandas()
    got = dict(zip(out["doc_id"], out["clean_text"]))
    assert got == {1: "alpha\nshared para", 2: "beta"}


def test_normalize_urls_kernel():
    from logstash_filter_geoip_ray.stages.textops import normalize_urls

    u = pa.array(
        [
            "HTTP://WWW.Example.COM:80/p/1?b=2&a=1#frag",
            "https://Example.com:443/",
            "https://example.com:8080/x?z=1",
            "http://example.com",          # no path → '/'
            "http://example.com/p?",       # bare '?' dropped
            "ftp://Files.example.com:21/pub",  # non-http default port kept
            "not a url",
            None,
        ]
    )
    assert normalize_urls(u).to_pylist() == [
        "http://www.example.com/p/1?a=1&b=2",
        "https://example.com/",
        "https://example.com:8080/x?z=1",
        "http://example.com/",
        "http://example.com/p",
        "ftp://files.example.com:21/pub",
        None,
        None,
    ]


def test_dsir_select_ties_repeats_and_empty_docs(ray_session):
    """Explicit-weight vectors: repeats accumulate, unknown words weigh 0,
    null/wordless docs score 0, k-boundary ties break by doc_id asc, and
    per-batch partial top-k survives a many-block layout."""
    import ray.data

    from logstash_filter_geoip_ray.stages.textops import dsir_select

    tbl = pa.table(
        {
            "doc_id": pa.array([1, 2, 3, 4, 5, 6], type=pa.int64()),
            "text": [
                "Query query JOIN",   # 1200+1200+800 = 3200 (case-folded)
                "slow slow unknown",  # -800
                None,                 # 0
                "   ",                # wordless → 0
                "table",              # 900 — tied boundary vs doc 6
                "table",              # 900 — loses the k=2 tie to doc 5
            ],
            "lang": ["en", "en", "en", "en", "xx", "xx"],
        }
    )
    out = (
        dsir_select(
            ray.data.from_arrow(tbl).repartition(6),
            n_per_lang=2,
            num_buckets=4,
        )
        .to_pandas()
        .reset_index(drop=True)
    )
    assert out.columns.tolist() == ["lang", "doc_id", "score"]
    got = list(map(tuple, out.itertuples(index=False)))
    # en: doc 1 (3200) then the best of {2:-800, 3:0, 4:0} → doc 3 (0, id asc)
    # xx: both 900s kept, doc_id order
    assert got == [("en", 1, 3200), ("en", 3, 0), ("xx", 5, 900), ("xx", 6, 900)]


def test_temperature_quotas_exact_arithmetic():
    """Closed-form quota vectors: exact integer roots, largest-remainder
    allocation with (remainder desc, stratum asc) ties, population caps,
    and the all-zero-weight degenerate case."""
    from logstash_filter_geoip_ray.stages.packing import (
        _iroot,
        temperature_quotas,
    )

    assert [_iroot(x, 2) for x in (0, 1, 3, 4, 24, 25, 26)] == [
        0, 1, 1, 2, 4, 5, 5,
    ]
    assert _iroot(10**18, 3) == 10**6
    assert _iroot(10**18 - 1, 3) == 10**6 - 1
    # alpha=1/2 over {a:100, b:4}: w={10,2}, base={16,3}+remainder(20/12=1r8
    # → a: 1000//12=83r4... recompute: T=20, W=12 → a 200//12=16 r8,
    # b 40//12=3 r4 → extra=1 → a (larger rem) gets it
    q = temperature_quotas({"a": 100, "b": 4}, 20)
    assert q == {"a": 17, "b": 3} and sum(q.values()) == 20
    # cap: b's flattened share exceeds its population
    q = temperature_quotas({"a": 10000, "b": 1}, 200)
    assert q["b"] == 1  # capped at population
    # remainder tie broken by stratum name asc
    q = temperature_quotas({"x": 4, "y": 4, "z": 4}, 4)
    assert q == {"x": 2, "y": 1, "z": 1}
    # alpha=1 degenerates to proportional
    q = temperature_quotas({"a": 75, "b": 25}, 4, alpha_num=1, alpha_den=1)
    assert q == {"a": 3, "b": 1}
    assert temperature_quotas({"a": 0, "b": 0}, 10) == {"a": 0, "b": 0}


def test_event_trend_counts_dp(ray_session):
    """Hand-countable trend vectors: all interleavings counted (not just
    first-touch), order violations and incomplete prefixes yield nothing,
    ties in ts break by event id, distinct-pattern guard raises."""
    import ray.data

    from logstash_filter_geoip_ray.stages.windows import event_trend_counts

    tbl = pa.table(
        {
            "user_id": pa.array([1] * 5 + [2, 2] + [3] + [4, 4, 4], pa.int64()),
            "ts": pa.array(
                [1, 2, 3, 4, 5,   # A B A B C → 3 trends
                 1, 2,            # C A (wrong order) → 0
                 1,               # A only → 0
                 7, 7, 7],        # A B C all at one ts: id order ⇒ 1
                pa.int64(),
            ).cast(pa.timestamp("us")),
            "event_id": pa.array(list(range(11)), pa.int64()),
            "event_type": [
                "view", "click", "view", "click", "purchase",
                "purchase", "view",
                "view",
                "view", "click", "purchase",
            ],
        }
    )
    got = event_trend_counts(
        ray.data.from_arrow(tbl), ["view", "click", "purchase"],
        num_buckets=3,
    ).to_pandas()
    assert got.to_dict("records") == [
        {"user_id": 1, "n_trends": 3},
        {"user_id": 4, "n_trends": 1},
    ]
    with pytest.raises(ValueError):
        event_trend_counts(
            ray.data.from_arrow(tbl), ["view", "view", "purchase"]
        )


def test_join_sample_exhaustive_equals_virtual_join(ray_session):
    """With k ≥ N the sample IS the whole virtual join (every (key,i,j)
    index drawn) — compare against the materialized join directly; also
    covers duplicate per-side ranks, null keys and one-side-only keys."""
    import ray.data

    from logstash_filter_geoip_ray.stages.joins import join_sample

    left = pa.table(
        {
            "k": pa.array([1, 1, 1, 2, None, 9], pa.int64()),
            "lid": pa.array([10, 11, 12, 20, 30, 90], pa.int64()),
        }
    )
    right = pa.table(
        {
            "k": pa.array([1, 1, 2, 7], pa.int64()),
            "rid": pa.array([100, 101, 200, 700], pa.int64()),
        }
    )
    # N = 3*2 + 1*1 = 7 virtual tuples; k=50 → 8k=400 MINSTD draws mod 7
    # hit every index with probability ~1 (and deterministically here)
    got = join_sample(
        ray.data.from_arrow(left), ray.data.from_arrow(right),
        "k", "k", "lid", "rid", k=50, num_buckets=2,
    )
    expect = (
        left.to_pandas().dropna()
        .merge(right.to_pandas(), on="k")
        .astype({"k": "int64"})
        .sort_values(["k", "lid", "rid"])
        .reset_index(drop=True)[["k", "lid", "rid"]]
    )
    pd.testing.assert_frame_equal(
        got.astype("int64"), expect.astype("int64")
    )


def test_resize_image_kernels_and_stage(ray_session):
    """Hand-computed resize vectors (nearest block replication, bilinear
    boundary values, same-size identity), a naive-loop reference sweep,
    and the actor-pool stage roundtrip incl. per-row corrupt-payload
    degrade."""
    import numpy as np

    from logstash_filter_geoip_ray.stages.multimodal import (
        ResizeImageStage,
        decode_ppm,
        encode_png,
        resize_image,
    )

    cb = np.array([[[0], [255]], [[255], [0]]], dtype=np.uint8)
    assert (
        resize_image(cb, 4, 4, "nearest")[:, :, 0]
        == np.array(
            [[0, 0, 255, 255], [0, 0, 255, 255],
             [255, 255, 0, 0], [255, 255, 0, 0]]
        )
    ).all()
    g = np.array([[[0], [255]]], dtype=np.uint8)
    assert resize_image(g, 1, 4, "bilinear")[0, :, 0].tolist() == [
        0, 64, 191, 255,
    ]
    r = np.random.default_rng(3).integers(0, 256, (7, 5, 3), np.uint8)
    assert (resize_image(r, 7, 5, "bilinear") == r).all()

    def naive(px, oh, ow):
        h, w, _ = px.shape
        out = np.zeros((oh, ow, px.shape[2]))
        for i in range(oh):
            for j in range(ow):
                sy, sx = (i + 0.5) * h / oh - 0.5, (j + 0.5) * w / ow - 0.5
                y0 = int(np.clip(np.floor(sy), 0, h - 1))
                x0 = int(np.clip(np.floor(sx), 0, w - 1))
                y1, x1 = min(y0 + 1, h - 1), min(x0 + 1, w - 1)
                fy = min(max(sy - y0, 0), 1)
                fx = min(max(sx - x0, 0), 1)
                out[i, j] = (
                    px[y0, x0] * (1 - fx) + px[y0, x1] * fx
                ) * (1 - fy) + (px[y1, x0] * (1 - fx) + px[y1, x1] * fx) * fy
        return np.rint(out).clip(0, 255).astype(np.uint8)

    for h, w, oh, ow in [(3, 3, 7, 5), (8, 6, 3, 2), (1, 1, 4, 4), (5, 9, 9, 5)]:
        px = np.random.default_rng(h * 100 + w).integers(
            0, 256, (h, w, 3), np.uint8
        )
        assert (resize_image(px, oh, ow) == naive(px, oh, ow)).all()

    # stage roundtrip: PNG in → resized PPM out, corrupt row degrades alone
    px = np.arange(192, dtype=np.uint8).reshape(8, 8, 3)
    stage = ResizeImageStage(out_h=4, out_w=4, method="bilinear")
    batch = pa.table(
        {
            "media_id": pa.array([1, 2], pa.int64()),
            "payload": pa.array(
                [encode_png(px), b"not an image"], type=pa.binary()
            ),
            "meta": pa.array([None, None], type=pa.null()).cast(
                pa.struct([("width", pa.int64()), ("height", pa.int64()),
                           ("format", pa.string())])
            ),
        }
    )
    out = stage(batch)
    assert out["resize_ok"].to_pylist() == [True, False]
    resized = decode_ppm(out["payload"][0].as_py())
    assert resized.shape == (4, 4, 3)
    assert (resized == resize_image(px, 4, 4, "bilinear")).all()
    assert out["payload"][1].as_py() is None


def test_pca_matches_local_numpy(ray_session):
    """The distributed Gram/moments path must reproduce a local numpy PCA
    of the same quantized matrix exactly (identical integers enter the same
    driver-side eigensolver), eigenvectors must be orthonormal, and
    pca_project must equal the plain matmul."""
    import numpy as np
    import pyarrow.parquet as pq
    import ray.data

    from logstash_filter_geoip_ray.stages.linalg import (
        covariance_eig,
        pca_project,
    )

    ds = ray.data.read_parquet(f"{SF}/embeddings.parquet",
                               columns=["vec_id", "embedding"])
    evals, evecs, n = covariance_eig(ds)

    t = pq.read_table(f"{SF}/embeddings.parquet")
    m = np.array(t["embedding"].to_pylist(), dtype=np.float64)
    q = np.floor(m * 1000).astype(np.int64)
    cov = (q.T @ q - np.outer(q.sum(0), q.sum(0)) / len(q)) / (
        (len(q) - 1) * 1000.0**2
    )
    le, lv = np.linalg.eigh(cov)
    le = le[np.argsort(le)[::-1]]
    assert n == len(q)
    np.testing.assert_allclose(evals, le, rtol=0, atol=1e-12)
    np.testing.assert_allclose(evecs.T @ evecs, np.eye(64), atol=1e-9)

    proj = (
        pca_project(ds, evecs[:, :2], id_cols=["vec_id"])
        .to_pandas()
        .sort_values("vec_id")
    )
    got = np.stack(proj["pc"].to_numpy())
    # rows of the fixture table are already in vec_id order; guard it so
    # the row-for-row compare below is valid
    assert (np.diff(t["vec_id"].to_numpy()) > 0).all()
    np.testing.assert_allclose(got, m @ evecs[:, :2], atol=1e-9)


def test_gram_null_and_ragged_guards(ray_session):
    """batch_matrix must refuse null embeddings and ragged lengths."""
    import numpy as np
    import pyarrow as pa
    import pytest as _pytest

    from logstash_filter_geoip_ray.stages.linalg import batch_matrix

    ok = pa.table({"embedding": pa.array([[1.0, 2.0], [3.0, 4.0]],
                                         type=pa.list_(pa.float32()))})
    assert batch_matrix(ok, "embedding").shape == (2, 2)
    nulls = pa.table({"embedding": pa.array([[1.0, 2.0], None],
                                            type=pa.list_(pa.float32()))})
    with _pytest.raises(ValueError, match="null"):
        batch_matrix(nulls, "embedding")
    ragged = pa.table({"embedding": pa.array([[1.0, 2.0], [3.0]],
                                             type=pa.list_(pa.float32()))})
    with _pytest.raises(ValueError, match="ragged"):
        batch_matrix(ragged, "embedding")


def test_orc_reader_writer(ray_session, tmp_path):
    """read_orc fans out one task per stripe across files, prunes columns,
    and write_orc is idempotent under re-run (content-hashed names)."""
    import pyarrow.orc as orc
    import ray.data

    from logstash_filter_geoip_ray.sources.readers import read_orc, write_orc

    import os

    d = str(tmp_path / "orcs")
    os.makedirs(d)
    # two files, the first with two stripes (stripe_size forces the split)
    t1 = pa.table({"a": list(range(100_000)), "b": ["x"] * 100_000})
    orc.write_table(t1, os.path.join(d, "f1.orc"), stripe_size=64 * 1024)
    t2 = pa.table({"a": [7, 8], "b": ["y", "z"]})
    orc.write_table(t2, os.path.join(d, "f2.orc"))
    assert orc.ORCFile(os.path.join(d, "f1.orc")).nstripes > 1

    full = read_orc(d).to_pandas()
    assert len(full) == 100_002 and sorted(full.columns) == ["a", "b"]
    assert full["a"].sum() == sum(range(100_000)) + 15

    pruned = read_orc(d, columns=["a"])
    assert pruned.schema().names == ["a"]

    out = str(tmp_path / "sink")
    src = ray.data.from_arrow(t2)
    _, files1, rows1 = write_orc(src, out)
    _, files2, rows2 = write_orc(src, out)  # rerun: same names, no dupes
    assert rows1 == rows2 == 2
    assert len(os.listdir(out)) == files1 == files2
    back = read_orc(out).to_pandas().sort_values("a").reset_index(drop=True)
    assert back["a"].tolist() == [7, 8] and back["b"].tolist() == ["y", "z"]

    with pytest.raises(FileNotFoundError):
        read_orc(str(tmp_path / "empty_nowhere"))


def test_skyline_kernel_vs_naive(ray_session):
    """Local skyline kernel ≡ the O(n²) dominance definition on random,
    duplicated and anti-correlated data; the distributed two-level compose
    equals a single-level skyline of the whole set."""
    import numpy as np
    import ray.data

    from logstash_filter_geoip_ray.stages.relational import (
        _skyline_kernel,
        skyline_2d,
    )

    def naive(v, d):
        keep = []
        for i in range(len(v)):
            dom = any(
                (v[j] >= v[i] and d[j] <= d[i] and (v[j] > v[i] or d[j] < d[i]))
                for j in range(len(v))
            )
            if not dom:
                keep.append(i)
        return set(keep)

    rng = np.random.default_rng(11)
    cases = [
        (rng.integers(0, 50, 200), rng.integers(0, 50, 200)),  # dup-heavy
        (rng.integers(0, 10**6, 300), rng.integers(0, 10**6, 300)),
        (np.arange(100), np.arange(100)),            # fully anti-correlated
        (np.arange(100), np.arange(100)[::-1]),      # fully correlated
        (np.array([5, 5, 5]), np.array([2, 2, 2])),  # exact twins survive
    ]
    for v, d in cases:
        t = pa.table({"id": np.arange(len(v)), "v": v.astype(np.int64),
                      "d": d.astype(np.int64)})
        got = set(_skyline_kernel(t, "v", "d")["id"].to_pylist())
        assert got == naive(v, d), (v[:10], d[:10])

    # null measures drop
    tn = pa.table({"id": [0, 1], "v": pa.array([None, 3], pa.int64()),
                   "d": pa.array([1, 1], pa.int64())})
    assert _skyline_kernel(tn, "v", "d")["id"].to_pylist() == [1]

    # distributed compose over many blocks ≡ single-block kernel
    v = rng.integers(0, 10**4, 5000).astype(np.int64)
    d = rng.integers(0, 10**4, 5000).astype(np.int64)
    t = pa.table({"id": np.arange(5000), "v": v, "d": d})
    ds = ray.data.from_arrow(t).repartition(17)
    got = sorted(skyline_2d(ds, "v", "d").to_pandas()["id"])
    want = sorted(_skyline_kernel(t, "v", "d")["id"].to_pylist())
    assert got == want


def test_resample_ffill_kernel(ray_session):
    """Gap days carry the latest prior value, same-day ties resolve by
    (ts, id), every key extends to the shared horizon, and a horizon
    before a key's first day raises."""
    import numpy as np
    import ray.data

    from logstash_filter_geoip_ray.stages.windows import resample_daily_ffill

    US_DAY = 86_400_000_000
    t = pa.table(
        {
            "user_id": pa.array([1, 1, 1, 2, 2], pa.int64()),
            "event_id": pa.array([10, 11, 12, 20, 21], pa.int64()),
            "ts": pa.array(
                [0 * US_DAY + 5, 0 * US_DAY + 9, 3 * US_DAY, 2 * US_DAY,
                 2 * US_DAY],  # user 2: two events at the same ts
                pa.timestamp("us"),
            ),
            "value": pa.array([1.0, 2.0, 3.0, 7.0, 8.0], pa.float64()),
        }
    )
    out = (
        resample_daily_ffill(ray.data.from_arrow(t), end_day=4, num_buckets=3)
        .to_pandas()
    )
    got = {
        (int(r.user_id), int(r.day)): int(r.value_milli)
        for r in out.itertuples()
    }
    # user 1: day0 last = 2.0 (later ts wins), days 1-2 gap-fill, day3 = 3.0
    assert got[(1, 0)] == 2000 and got[(1, 1)] == 2000
    assert got[(1, 2)] == 2000 and got[(1, 3)] == 3000 and got[(1, 4)] == 3000
    # user 2: same-ts tie → higher event_id wins
    assert got[(2, 2)] == 8000 and got[(2, 3)] == 8000 and got[(2, 4)] == 8000
    assert len(got) == 5 + 3

    with pytest.raises(Exception):  # raises inside the Ray task
        resample_daily_ffill(
            ray.data.from_arrow(t), end_day=1, num_buckets=2
        ).to_pandas()


def test_bfs_levels_known_graph(ray_session):
    """Line graph distances, unreachable components absent, multi-source
    min wins, and the max_rounds guard raises on a too-deep graph."""
    import ray.data

    from logstash_filter_geoip_ray.stages.graph import bfs_levels

    # path 0-1-2-3-4, separate component 10-11 (unreachable from seed 0)
    edges = pa.table(
        {
            "src": pa.array([0, 1, 2, 3, 10], pa.int64()),
            "dst": pa.array([1, 2, 3, 4, 11], pa.int64()),
        }
    )
    seeds = pa.table({"node": pa.array([0], pa.int64())})
    out = bfs_levels(
        ray.data.from_arrow(edges), ray.data.from_arrow(seeds), num_buckets=4
    ).to_pandas()
    assert dict(zip(out["node"], out["level"])) == {0: 0, 1: 1, 2: 2, 3: 3, 4: 4}

    # multi-source: seeds at both ends of the path → min distance wins
    seeds2 = pa.table({"node": pa.array([0, 4], pa.int64())})
    out2 = bfs_levels(
        ray.data.from_arrow(edges), ray.data.from_arrow(seeds2), num_buckets=4
    ).to_pandas()
    assert dict(zip(out2["node"], out2["level"])) == {
        0: 0, 1: 1, 2: 2, 3: 1, 4: 0,
    }

    with pytest.raises(Exception):
        bfs_levels(
            ray.data.from_arrow(edges),
            ray.data.from_arrow(seeds),
            num_buckets=2,
            max_rounds=2,
        ).to_pandas()


def test_interval_self_pairs_kernel(ray_session):
    """Same-ts tie ordering, window inclusivity at the exact boundary,
    cross-key isolation, and the pair-cap guard."""
    import ray.data

    from logstash_filter_geoip_ray.stages.windows import interval_self_pairs

    t = pa.table(
        {
            "user_id": pa.array([1, 1, 1, 1, 2], pa.int64()),
            "event_id": pa.array([10, 11, 12, 13, 20], pa.int64()),
            "ts": pa.array([0, 0, 100, 201, 50], pa.timestamp("us")),
        }
    )
    out = interval_self_pairs(
        ray.data.from_arrow(t), window_us=100, num_buckets=3
    ).to_pandas()
    pairs = {(int(r.a), int(r.b)): int(r.delta_us) for r in out.itertuples()}
    # same-ts pair ordered by id; 100 is INSIDE the window; 201-100=101 out
    assert (10, 11) in pairs and pairs[(10, 11)] == 0
    assert pairs[(10, 12)] == 100 and pairs[(11, 12)] == 100
    assert (12, 13) not in pairs  # delta 101 > 100
    assert all(a != 20 and b != 20 for a, b in pairs)  # user 2 isolated

    with pytest.raises(Exception):
        interval_self_pairs(
            ray.data.from_arrow(t), window_us=100, num_buckets=2,
            max_pairs_per_block=1,
        ).to_pandas()

    # multi-year span across keys: the per-key offset remap must not let
    # a window probe bleed into the next key (a fixed key-index shift
    # would overflow/overlap here)
    YEAR = 365 * 86_400_000_000
    t3 = pa.table(
        {
            "user_id": pa.array([1, 1, 2, 2], pa.int64()),
            "event_id": pa.array([0, 1, 2, 3], pa.int64()),
            "ts": pa.array(
                [0, 10 * YEAR, 10 * YEAR + 50, 20 * YEAR], pa.timestamp("us")
            ),
        }
    )
    out3 = interval_self_pairs(
        ray.data.from_arrow(t3), window_us=100, num_buckets=1
    ).to_pandas()
    # user 1's 10-year gap: no pair; user 2's events 10 years apart: none;
    # and user 1's event at 10Y must NOT pair with user 2's at 10Y+50
    assert len(out3) == 0


def test_interval_and_resample_vs_naive_random(ray_session):
    """Randomized cross-check of the two vectorized time kernels against
    O(n²)/per-key naive references — boundary and tie behavior included
    (duplicate timestamps are generated on purpose)."""
    import numpy as np
    import ray.data

    from logstash_filter_geoip_ray.stages.windows import (
        interval_self_pairs,
        resample_daily_ffill,
    )

    rng = np.random.default_rng(23)
    n = 400
    keys = rng.integers(0, 8, n)
    ts = rng.integers(0, 50, n) * 1000  # duplicates guaranteed
    ids = np.arange(n)
    vals = rng.integers(0, 100, n) / 10.0
    t = pa.table(
        {
            "user_id": pa.array(keys, pa.int64()),
            "event_id": pa.array(ids, pa.int64()),
            "ts": pa.array(ts, pa.timestamp("us")),
            "value": pa.array(vals, pa.float64()),
        }
    )
    W = 7000
    got = interval_self_pairs(
        ray.data.from_arrow(t), window_us=W, num_buckets=5
    ).to_pandas()
    got_set = {(int(r.a), int(r.b), int(r.delta_us)) for r in got.itertuples()}
    want = set()
    for i in range(n):
        for j in range(n):
            if keys[i] != keys[j] or i == j:
                continue
            if (ts[j], ids[j]) > (ts[i], ids[i]) and ts[j] - ts[i] <= W:
                want.add((i, j, int(ts[j] - ts[i])))
    assert got_set == want

    # resample: per-key naive ffill on a daily grid (days are tiny here)
    US_DAY = 86_400_000_000
    ts2 = rng.integers(0, 5 * US_DAY, n)
    t2 = pa.table(
        {
            "user_id": pa.array(keys, pa.int64()),
            "event_id": pa.array(ids, pa.int64()),
            "ts": pa.array(ts2, pa.timestamp("us")),
            "value": pa.array(vals, pa.float64()),
        }
    )
    end_day = int(ts2.max() // US_DAY)
    got2 = resample_daily_ffill(
        ray.data.from_arrow(t2), end_day=end_day, num_buckets=5
    ).to_pandas()
    got_map = {
        (int(r.user_id), int(r.day)): int(r.value_milli)
        for r in got2.itertuples()
    }
    want_map = {}
    for k in np.unique(keys):
        rows = sorted(
            [(ts2[i], ids[i], vals[i]) for i in range(n) if keys[i] == k]
        )
        d0 = int(rows[0][0] // US_DAY)
        for day in range(d0, end_day + 1):
            eligible = [r for r in rows if r[0] // US_DAY <= day]
            want_map[(int(k), day)] = int(np.floor(eligible[-1][2] * 1000))
    assert got_map == want_map


def test_ppjoin_equals_naive_all_pairs(ray_session):
    """Prefix-filter join must equal the naive all-pairs Jaccard on a
    corpus with boundary-threshold pairs, identical twins, an empty doc
    and a whitespace-only doc."""
    import ray.data

    from logstash_filter_geoip_ray.stages.dedup import (
        prefix_filter_jaccard_pairs,
    )

    docs = [
        (1, "alpha beta gamma delta"),
        (2, "alpha beta gamma delta"),          # identical twin of 1
        (3, "alpha beta gamma epsilon"),        # J = 3/5 vs 1
        (4, "alpha beta"),                      # J = 2/4 = 0.5 vs 1 (boundary)
        (5, ""),                                # empty → excluded
        (6, "   "),                             # whitespace-only → excluded
        (7, "zeta eta theta iota kappa"),       # disjoint
        (8, "Alpha BETA gamma delta"),          # case-folds to doc 1
    ]
    num, den = 1, 2
    tbl = pa.table(
        {
            "doc_id": pa.array([d for d, _ in docs], type=pa.int64()),
            "text": [t for _, t in docs],
        }
    )
    got = (
        prefix_filter_jaccard_pairs(
            ray.data.from_arrow(tbl), threshold_num=num, threshold_den=den,
            num_buckets=4,
        )
        .to_pandas()
    )
    # naive reference
    sets = {d: set(t.lower().split()) for d, t in docs if t.split()}
    want = []
    ids = sorted(sets)
    for i, a in enumerate(ids):
        for b in ids[i + 1:]:
            inter = len(sets[a] & sets[b])
            union = len(sets[a] | sets[b])
            if union and inter * den >= union * num:
                want.append((a, b, inter, union))
    want_df = pd.DataFrame(want, columns=["a", "b", "inter", "union_"])
    got = got.sort_values(["a", "b"]).reset_index(drop=True)
    want_df = want_df.sort_values(["a", "b"]).reset_index(drop=True)
    pd.testing.assert_frame_equal(got.astype("int64"), want_df.astype("int64"))


def test_ppjoin_skew_guard_raises(ray_session):
    """A prefix-token group larger than max_group must fail loudly."""
    import ray.data

    from logstash_filter_geoip_ray.stages.dedup import (
        prefix_filter_jaccard_pairs,
    )

    # every doc shares the same single token → one group of size 5 > cap 4
    tbl = pa.table(
        {
            "doc_id": pa.array(list(range(5)), type=pa.int64()),
            "text": ["same"] * 5,
        }
    )
    with pytest.raises(Exception, match="max_group"):
        prefix_filter_jaccard_pairs(
            ray.data.from_arrow(tbl), num_buckets=2, max_group=4
        ).to_pandas()


def test_twap_kernel_edge_cases(ray_session):
    """TWAP: single-event key, all-equal-timestamps key (span 0 → first
    value), step integral vs hand computation, key-boundary isolation."""
    import ray.data

    from logstash_filter_geoip_ray.stages.windows import time_weighted_averages

    rows = [
        # user 1: v=1.0 for 10us, then v=3.0 for 0 (last) → num=1000*10
        (1, 0, 100, 1.0),
        (1, 10, 101, 3.0),
        # user 2: single event
        (2, 5, 200, 7.5),
        # user 3: two events at the SAME ts (span 0) → first by id = 2.0
        (3, 50, 300, 2.0),
        (3, 50, 301, 9.0),
        # user 4: three steps 1.0(5us) 2.0(5us) 4.0(end)
        (4, 0, 400, 1.0),
        (4, 5, 401, 2.0),
        (4, 10, 402, 4.0),
    ]
    tbl = pa.table(
        {
            "user_id": pa.array([r[0] for r in rows], type=pa.int64()),
            "ts": pa.array([r[1] for r in rows], type=pa.timestamp("us")),
            "event_id": pa.array([r[2] for r in rows], type=pa.int64()),
            "value": pa.array([r[3] for r in rows], type=pa.float64()),
        }
    )
    got = time_weighted_averages(
        ray.data.from_arrow(tbl), num_buckets=4
    ).to_pandas().set_index("user_id")
    assert got.loc[1, "span_us"] == 10 and got.loc[1, "twap_num"] == 10000
    assert got.loc[1, "twap_milli"] == 1000
    assert got.loc[2, "span_us"] == 0 and got.loc[2, "twap_milli"] == 7500
    assert got.loc[3, "span_us"] == 0 and got.loc[3, "twap_milli"] == 2000
    assert got.loc[4, "twap_num"] == 1000 * 5 + 2000 * 5
    assert got.loc[4, "twap_milli"] == (1000 * 5 + 2000 * 5) // 10


def test_scd2_kernel_edge_cases(ray_session):
    """SCD2: consecutive-duplicate compression, per-key isolation, open
    current interval, equal-timestamp change ordering by event_id."""
    import ray.data

    from logstash_filter_geoip_ray.stages.windows import scd2_intervals

    rows = [
        (1, "a", 0, 10), (1, "a", 5, 11), (1, "b", 9, 12), (1, "b", 15, 13),
        (1, "a", 20, 14),
        (2, "x", 3, 20),
        # user 3: two changes at the SAME ts — order by event_id
        (3, "p", 7, 30), (3, "q", 7, 31),
    ]
    tbl = pa.table(
        {
            "user_id": pa.array([r[0] for r in rows], type=pa.int64()),
            "event_type": [r[1] for r in rows],
            "ts": pa.array([r[2] for r in rows], type=pa.timestamp("us")),
            "event_id": pa.array([r[3] for r in rows], type=pa.int64()),
        }
    )
    got = scd2_intervals(ray.data.from_arrow(tbl), num_buckets=4).to_pandas()
    recs = list(map(tuple, got.to_numpy()))
    assert recs == [
        (1, "a", 0, 9), (1, "b", 9, 20), (1, "a", 20, -1),
        (2, "x", 3, -1),
        (3, "p", 7, 7), (3, "q", 7, -1),
    ]


# -- exact substring (duplicated-span) dedup ----------------------------------


def _naive_dup_spans(texts, window):
    """Per-doc maximal duplicated spans by brute force: count every
    length-`window` char window corpus-wide (same-doc repeats count), mark
    positions with count >= 2, merge runs with gap <= window."""
    from collections import Counter

    c = Counter()
    for t in texts.values():
        t = t or ""
        for p in range(len(t) - window + 1):
            c[t[p : p + window]] += 1
    rows = []
    for d in sorted(texts):
        t = texts[d] or ""
        dup_pos = [
            p + 1
            for p in range(len(t) - window + 1)
            if c[t[p : p + window]] >= 2
        ]
        cur_start = cur_last = None
        for p in dup_pos:
            if cur_last is not None and p - cur_last <= window:
                cur_last = p
            else:
                if cur_last is not None:
                    rows.append(
                        (d, cur_start, cur_last + window - 1,
                         cur_last + window - cur_start)
                    )
                cur_start = cur_last = p
        if cur_last is not None:
            rows.append(
                (d, cur_start, cur_last + window - 1,
                 cur_last + window - cur_start)
            )
    return pd.DataFrame(
        rows, columns=["doc_id", "span_start", "span_end", "span_chars"]
    ).astype("int64")


def _run_dup_spans(texts, window, **kw):
    import ray.data

    from logstash_filter_geoip_ray.stages.dedup import duplicated_spans

    tbl = pa.table(
        {
            "doc_id": pa.array(sorted(texts), type=pa.int64()),
            "text": pa.array([texts[d] for d in sorted(texts)]),
        }
    )
    out = duplicated_spans(ray.data.from_arrow(tbl), window=window, **kw)
    if hasattr(out, "to_pandas"):
        out = out.to_pandas()
    return out.reset_index(drop=True).astype("int64")


def test_duplicated_spans_planted(ray_session):
    """Hand-built vectors: cross-doc dup, same-doc repeat, multi-span doc,
    non-ASCII chars (UTF-32 position semantics), short/empty/null docs."""
    shared = "0123456789abcdefghij"  # 20 chars, window 10 → dup everywhere
    texts = {
        # doc 0/1: the shared passage at different offsets → one span each
        0: "XAXBXCXDXE" + shared + "YFYGYHYIYJ",
        1: shared + "Z" * 15,
        # doc 2: same-doc repetition with unique filler between → two spans
        # (filler 11 > window keeps them separate)
        2: "wwwwwqqqqq" + "uniqfill-01" + "wwwwwqqqqq",
        # doc 3: short (< window), never emits
        3: "tiny",
        # doc 4: empty
        4: "",
        # doc 5/6: non-ASCII dup — é is one CHAR position, not two bytes
        5: "ééééééééééσσσσσσσσσσ###PAD-A###",
        6: "ééééééééééσσσσσσσσσσ###PAD-B###",
    }
    got = _run_dup_spans(texts, 10)
    want = _naive_dup_spans(texts, 10)
    pd.testing.assert_frame_equal(got, want)
    # sanity on the shape we planted: docs 0,1 one span over `shared`
    d0 = got[got.doc_id == 0]
    assert len(d0) == 1 and int(d0.span_start.iloc[0]) == 11
    assert int(d0.span_chars.iloc[0]) == 20
    # doc 2's SAME-DOC repeat found as two spans (count>=2 incl. same doc)
    assert len(got[got.doc_id == 2]) == 2
    # non-ASCII span positions are char-exact: the shared prefix is
    # 10 é + 10 σ + '###PAD-' = 27 CHARS (not bytes — é/σ are multibyte)
    d5 = got[got.doc_id == 5]
    assert len(d5) == 1 and int(d5.span_chars.iloc[0]) == 27
    assert int(d5.span_start.iloc[0]) == 1
    assert not len(got[got.doc_id.isin([3, 4])])


def test_duplicated_spans_random_vs_naive(ray_session):
    """Randomized stress on a 2-letter alphabet (dense window collisions →
    heavy island merging) incl. empty and sub-window docs."""
    rng = np.random.default_rng(7)
    texts = {}
    for d in range(40):
        n = int(rng.integers(0, 30))
        texts[d] = "".join(rng.choice(list("ab"), n)) if n else ""
    texts[40] = None  # null text row
    got = _run_dup_spans(texts, 6, num_buckets=4)
    want = _naive_dup_spans({d: t for d, t in texts.items()}, 6)
    pd.testing.assert_frame_equal(got, want)
    # the 2-letter alphabet guarantees the dup machinery actually fired
    assert len(got) > 0


def test_duplicated_spans_no_dups_and_cap(ray_session):
    """All-unique corpus → typed empty result; cap raises loudly."""
    texts = {0: "abcdefghijklmnop", 1: "qrstuvwxyz012345"}
    got = _run_dup_spans(texts, 8)
    assert len(got) == 0
    assert list(got.columns) == ["doc_id", "span_start", "span_end", "span_chars"]
    dup = {0: "ABCDEFGH" * 4, 1: "ABCDEFGH" * 4}
    with pytest.raises(ValueError, match="max_dup_windows"):
        _run_dup_spans(dup, 8, max_dup_windows=3, method="exact")


def test_duplicated_spans_sketch_equals_exact(ray_session):
    """The default sketch path and the audit exact path return IDENTICAL
    spans — even with a deliberately TINY sketch (1024 bits → dense false
    positives), because the window-text recount is the exactness layer."""
    rng = np.random.default_rng(11)
    texts = {}
    passage = "shared-duplicated-passage-0123456789"
    for d in range(30):
        n = int(rng.integers(5, 25))
        body = "".join(rng.choice(list("abcdefgh"), n))
        texts[d] = (passage + body) if d % 3 == 0 else body
    exact = _run_dup_spans(texts, 12, method="exact")
    sketch = _run_dup_spans(texts, 12)  # default method
    tiny = _run_dup_spans(texts, 12, sketch_bits=1024, sketch_hashes=2)
    pd.testing.assert_frame_equal(sketch, exact)
    pd.testing.assert_frame_equal(tiny, exact)
    assert set(sketch.doc_id) >= {0, 3, 6}  # planted passage docs found


def test_remove_duplicated_spans_semantics(ray_session):
    """Cut semantics: fully-duplicated doc → empty string, partial cut
    reassembles head+tail, unaffected and null-text docs pass through."""
    import hashlib

    import ray.data

    from logstash_filter_geoip_ray.stages.dedup import remove_duplicated_spans

    dup = "0123456789abcdefghij"  # 20 chars, window 10
    texts = {
        0: dup,                       # fully covered → ''
        1: "HEAD-" + dup + "-TAIL",   # middle cut → 'HEAD--TAIL'
        2: "completely unrelated uniq text!!",  # untouched
        3: None,                      # null → null stats
    }
    tbl = pa.table(
        {
            "doc_id": pa.array(sorted(texts, key=lambda d: d), type=pa.int64()),
            "text": pa.array([texts[d] for d in sorted(texts)]),
        }
    )
    out = (
        remove_duplicated_spans(ray.data.from_arrow(tbl), window=10)
        .to_pandas()
        .set_index("doc_id")
    )
    md5 = lambda s: hashlib.md5(s.encode()).hexdigest()  # noqa: E731
    assert out.loc[0, "kept_chars"] == 0 and out.loc[0, "cleaned_md5"] == md5("")
    assert out.loc[1, "kept_chars"] == 10
    assert out.loc[1, "cleaned_md5"] == md5("HEAD--TAIL")
    assert out.loc[2, "kept_chars"] == len(texts[2])
    assert out.loc[2, "cleaned_md5"] == md5(texts[2])
    assert pd.isna(out.loc[3, "kept_chars"]) and out.loc[3, "cleaned_md5"] is None


def test_window_sketch_sharded_reduce_equals_single(ray_session):
    """The bit-space-sharded final sketch reduction (round-5: no single task
    holds a full-width bitmap) must produce the EXACT (seen, twice) pair of
    the single-task OR tree, for shard counts that exercise sparse splits,
    dense splits, and empty shards."""
    import ray.data

    from logstash_filter_geoip_ray.stages.dedup import window_sketch_pair

    rng = np.random.default_rng(11)
    passage = "the shared duplicated passage that repeats across many docs!"
    docs = []
    for i in range(3000):
        t = "".join(rng.choice(list("abcdefgh "), size=100))
        if i % 9 == 0:
            t = t[:25] + passage + t[25:]
        docs.append(t)
    ds = ray.data.from_arrow(
        pa.table({"doc_id": pa.array(range(len(docs)), type=pa.int64()),
                  "text": pa.array(docs)})
    ).repartition(12)

    for bits in (1 << 18, 1 << 21):
        ref = window_sketch_pair(ds, window=40, sketch_bits=bits, reduce_shards=1)
        # 3 is NOT a divisor of n_words: must coerce to a word-aligned
        # divisor instead of silently dropping the tail bit range
        for k in (2, 3, 4, 16):
            got = window_sketch_pair(
                ds, window=40, sketch_bits=bits, reduce_shards=k
            )
            assert (ref[0] == got[0]).all(), (bits, k)
            assert (ref[1] == got[1]).all(), (bits, k)
    assert ref[1].any()  # the planted passage actually set twice-bits


def test_substring_sketch_incremental(ray_session, tmp_path):
    """Cross-dump EXACTSUBSTR through the persisted sketch: spans of the
    NEW dump against (prior ∪ new) from the loaded bitmaps must equal the
    full-corpus reference restricted to new ids; appending dumps must equal
    sketching their union (associativity of the saturating merge)."""
    import ray.data

    from logstash_filter_geoip_ray.stages.dedup import (
        duplicated_spans,
        duplicated_spans_incremental,
    )
    from logstash_filter_geoip_ray.state.substring_sketch import (
        append_substring_sketch,
        build_substring_sketch,
        load_substring_sketch,
    )

    rng = np.random.default_rng(3)
    P_cross = "cross-dump-shared-passage-ABCDEFGHIJ"   # in prior AND new
    P_new = "within-new-duplicated-passage-0123456789"  # twice in new only
    P_prior = "prior-only-duplicated-passage-xyzxyzxyz"  # twice in prior only

    def fill(n):
        return "".join(rng.choice(list("qwertyuiopasdf"), n))

    prior_texts = {
        0: fill(30) + P_cross + fill(30),
        1: fill(25) + P_prior + fill(20),
        2: fill(22) + P_prior + fill(28),
        3: fill(60),
    }
    new_texts = {
        10: fill(20) + P_cross + fill(25),   # cross-dump dup → span
        11: fill(30) + P_new + fill(15),     # within-new dup → span
        12: P_new + fill(40),                # within-new dup → span
        13: fill(70),                        # clean
    }

    def to_ds(texts):
        return ray.data.from_arrow(
            pa.table(
                {
                    "doc_id": pa.array(sorted(texts), type=pa.int64()),
                    "text": pa.array([texts[d] for d in sorted(texts)]),
                }
            )
        )

    W = 12
    sdir = str(tmp_path / "sketch")
    build_substring_sketch(to_ds(prior_texts), sdir, window=W)
    got = duplicated_spans_incremental(to_ds(new_texts), sdir)
    got = (got.to_pandas() if hasattr(got, "to_pandas") else got).reset_index(
        drop=True
    )

    union = dict(prior_texts)
    union.update(new_texts)
    ref = duplicated_spans(to_ds(union), window=W)
    ref = ref.to_pandas() if hasattr(ref, "to_pandas") else ref
    ref = ref[ref.doc_id >= 10].reset_index(drop=True)
    pd.testing.assert_frame_equal(got.astype("int64"), ref.astype("int64"))
    assert set(got.doc_id) == {10, 11, 12}  # cross + within-new, never 13

    # append associativity: sketch(A) + append(B) == sketch(A ∪ B)
    half_a = {d: prior_texts[d] for d in (0, 1)}
    half_b = {d: prior_texts[d] for d in (2, 3)}
    sdir2 = str(tmp_path / "sketch2")
    build_substring_sketch(to_ds(half_a), sdir2, window=W)
    append_substring_sketch(to_ds(half_b), sdir2)
    s1, t1 = load_substring_sketch(sdir)
    s2, t2 = load_substring_sketch(sdir2)
    assert (s1 == s2).all() and (t1 == t2).all()

    # parameter pinning: mismatched window raises
    with pytest.raises(ValueError, match="parameter mismatch"):
        load_substring_sketch(sdir, window=W + 1)

    # FP-hardening detection floor, pinned: a CROSS-DUMP-only match shorter
    # than window + min_run - 1 chars (16 at W=12, min_run=5) must NOT be
    # reported — its witnessed run is min_run-1 long — while one exactly at
    # the floor must (run of exactly min_run).  This is the documented
    # ExactSubstr minimum-match trade of duplicated_spans_incremental.
    below = "ABCDEFGHJKLMNOP"  # 15 chars = floor-1 → 4 witnessed positions
    at_floor = "RSTUVWXYZ0123456"  # 16 chars = floor → 5 witnessed positions
    assert len(below) == W + 5 - 2 and len(at_floor) == W + 5 - 1
    prior_f = {0: fill(30) + below + fill(9) + at_floor + fill(30)}
    new_f = {10: fill(20) + below + fill(11) + at_floor + fill(25)}
    sdir3 = str(tmp_path / "sketch3")
    build_substring_sketch(to_ds(prior_f), sdir3, window=W)
    got_f = duplicated_spans_incremental(to_ds(new_f), sdir3)
    got_f = got_f.to_pandas() if hasattr(got_f, "to_pandas") else got_f
    assert len(got_f) == 1  # only the at-floor passage, never the sub-floor
    s0 = int(got_f.span_start.iloc[0])
    e0 = int(got_f.span_end.iloc[0])
    start_at = new_f[10].index(at_floor)  # 0-based
    assert (s0, e0) == (start_at + 1, start_at + len(at_floor))


def test_ann_pq_recall_and_reference(ray_session):
    """Product-quantization ADC search: recall@10 against exact brute force
    must clear a floor and improve with more subspaces/codes, and the
    distributed pipeline must equal a local numpy PQ reference EXACTLY for
    fixed codebooks."""
    import ray.data

    from logstash_filter_geoip_ray.stages.similarity import (
        _collect_queries,
        _normalized,
        brute_force_topk,
        pq_topk,
        pq_train,
    )

    ds = lambda: ray.data.read_parquet(f"{SF}/embeddings.parquet")  # noqa: E731
    exact = brute_force_topk(ds(), ANN_QUERY_IDS, k=10).to_pandas()

    def recall(m, nc):
        ap = pq_topk(ds(), ANN_QUERY_IDS, k=10, n_subspaces=m, n_codes=nc).to_pandas()
        rs = []
        for q in ANN_QUERY_IDS:
            e = set(exact[exact.query_id == q].neighbor_id)
            rs.append(len(e & set(ap[ap.query_id == q].neighbor_id)) / len(e))
        return float(np.mean(rs))

    r_small, r_big = recall(4, 16), recall(16, 64)
    assert r_big >= 0.5
    assert r_big > r_small  # finer quantization → better recall

    # distributed == local numpy reference, exactly, for FIXED codebooks
    cb = pq_train(ds(), n_subspaces=8, n_codes=16)
    got = pq_topk(ds(), ANN_QUERY_IDS, k=10, codebooks=cb).to_pandas()

    import duckdb

    full = duckdb.sql(
        f"SELECT vec_id, embedding FROM '{SF}/embeddings.parquet' ORDER BY vec_id"
    ).df()
    ids = full.vec_id.to_numpy()
    mat = _normalized(np.stack(full.embedding.to_numpy()).astype(np.float64))
    m, nc, sub = cb.shape
    codes = np.empty((len(mat), m), dtype=np.int64)
    for s in range(m):
        x = mat[:, s * sub : (s + 1) * sub]
        d2 = -2.0 * (x @ cb[s].T) + (cb[s] * cb[s]).sum(1)[None, :]
        codes[:, s] = np.argmin(d2, axis=1)
    qids, qmat = _collect_queries(ds(), ANN_QUERY_IDS, "vec_id", "embedding")
    rows = []
    for qi, q in enumerate(qids):
        t = qmat[qi].reshape(m, sub)
        sims = np.zeros(len(mat))
        for s in range(m):
            sims += (t[s] @ cb[s].T)[codes[:, s]]
        mask = ids != q
        order = np.lexsort((ids[mask], -sims[mask]))[:10]
        for r, j in enumerate(order, 1):
            rows.append((int(q), int(ids[mask][j]), r))
    want = pd.DataFrame(rows, columns=["query_id", "neighbor_id", "rank"])
    pd.testing.assert_frame_equal(
        got.sort_values(["query_id", "rank"]).reset_index(drop=True),
        want.sort_values(["query_id", "rank"]).reset_index(drop=True),
    )


def test_pq_encode_schema_and_determinism(ray_session):
    """pq_encode: fixed-size uint8 list schema, values < n_codes, identical
    codes across independent runs (deterministic sample + seeded kmeans)."""
    import ray.data

    from logstash_filter_geoip_ray.stages.similarity import pq_encode, pq_train

    ds = lambda: ray.data.read_parquet(f"{SF}/embeddings.parquet")  # noqa: E731
    cb1 = pq_train(ds(), n_subspaces=8, n_codes=16)
    cb2 = pq_train(ds(), n_subspaces=8, n_codes=16)
    np.testing.assert_array_equal(cb1, cb2)
    enc = pq_encode(ds(), cb1).to_pandas().sort_values("vec_id")
    codes = np.stack(enc.codes.to_numpy())
    assert codes.shape[1] == 8 and codes.dtype == np.uint8
    assert codes.max() < 16
    enc2 = pq_encode(ds(), cb1).to_pandas().sort_values("vec_id")
    np.testing.assert_array_equal(codes, np.stack(enc2.codes.to_numpy()))


def test_ivfpq_index_recall_and_determinism(ray_session, tmp_path):
    """Persisted IVF-PQ: recall@10 floor against exact brute force at
    full-probe (coarse pruning off → pure PQ loss), deterministic rebuild
    (identical rows), non-IVF-PQ dir rejected, and more probes never lower
    recall."""
    import ray.data

    from logstash_filter_geoip_ray.state.ann_index import (
        build_ivf_index,
        build_ivfpq_index,
        ivfpq_index_topk,
    )
    from logstash_filter_geoip_ray.stages.similarity import brute_force_topk

    ds = lambda: ray.data.read_parquet(f"{SF}/embeddings.parquet")  # noqa: E731
    exact = brute_force_topk(ds(), ANN_QUERY_IDS, k=10).to_pandas()

    idx = str(tmp_path / "ivfpq")
    build_ivfpq_index(ds(), idx, n_clusters=8, n_subspaces=16, n_codes=64)

    def recall(n_probe):
        ap = ivfpq_index_topk(idx, ds(), ANN_QUERY_IDS, k=10, n_probe=n_probe)
        ap = ap.to_pandas()
        rs = []
        for q in ANN_QUERY_IDS:
            e = set(exact[exact.query_id == q].neighbor_id)
            rs.append(len(e & set(ap[ap.query_id == q].neighbor_id)) / len(e))
        return float(np.mean(rs))

    r2, r8 = recall(2), recall(8)
    assert r8 >= 0.5  # full probe: only PQ loss remains
    assert r8 >= r2   # more cells probed can only help

    # deterministic rebuild → identical result rows
    idx2 = str(tmp_path / "ivfpq2")
    build_ivfpq_index(ds(), idx2, n_clusters=8, n_subspaces=16, n_codes=64)
    a = ivfpq_index_topk(idx, ds(), ANN_QUERY_IDS, k=10, n_probe=4).to_pandas()
    b = ivfpq_index_topk(idx2, ds(), ANN_QUERY_IDS, k=10, n_probe=4).to_pandas()
    pd.testing.assert_frame_equal(
        a.reset_index(drop=True), b.reset_index(drop=True)
    )

    # a raw-vector IVF index dir must be rejected loudly
    raw = str(tmp_path / "ivf_raw")
    build_ivf_index(ds(), raw, n_clusters=4)
    with pytest.raises(ValueError, match="not an IVF-PQ index"):
        ivfpq_index_topk(raw, ds(), ANN_QUERY_IDS, k=10)


def test_ivfpq_empty_probed_cells_fall_back(ray_session, tmp_path):
    """All-probed-cells-empty is a LEGAL state for a skewed corpus with
    small cells (round-5 advice item): search must extend probing to the
    nearest NON-EMPTY cells and return k results, not raise
    FileNotFoundError — which stays reserved for an index with no populated
    cells at all."""
    import glob as _glob
    import os as _os

    import ray.data

    from logstash_filter_geoip_ray.state.ann_index import (
        build_ivfpq_index,
        ivfpq_index_topk,
    )

    ds = lambda: ray.data.read_parquet(f"{SF}/embeddings.parquet")  # noqa: E731
    idx = str(tmp_path / "ivfpq_skew")
    build_ivfpq_index(ds(), idx, n_clusters=8, n_subspaces=16, n_codes=64)

    # simulate the skewed state: empty EVERY cell a 1-probe search of the
    # first query would touch, leaving the rest populated
    full = ivfpq_index_topk(idx, ds(), ANN_QUERY_IDS[:1], k=5, n_probe=1)
    full_rows = full.to_pandas()
    assert len(full_rows) == 5
    cell_dirs = sorted(_glob.glob(_os.path.join(idx, "cell=*")))
    assert len(cell_dirs) > 2
    # the n_probe=1 results all come from query 0's nearest cell — empty
    # exactly the cell(s) holding them, so the next 1-probe search hits
    # only empty partitions
    top_ids = set(full_rows.neighbor_id)
    emptied = 0
    for d in cell_dirs:
        rows = ray.data.read_parquet(_glob.glob(_os.path.join(d, "*.parquet")))
        if set(rows.to_pandas()["vec_id"]) & top_ids:
            for f in _glob.glob(_os.path.join(d, "*.parquet")):
                _os.remove(f)
            emptied += 1
    assert emptied == 1  # one nearest cell held all n_probe=1 results
    got = ivfpq_index_topk(idx, ds(), ANN_QUERY_IDS[:1], k=5, n_probe=1)
    got_rows = got.to_pandas()
    assert len(got_rows) == 5  # fell back to non-empty cells, no raise

    # truly empty index (every cell) → FileNotFoundError
    for d in cell_dirs:
        for f in _glob.glob(_os.path.join(d, "*.parquet")):
            _os.remove(f)
    with pytest.raises(FileNotFoundError, match="no populated cell"):
        ivfpq_index_topk(idx, ds(), ANN_QUERY_IDS[:1], k=5, n_probe=1)


def test_hard_negatives_labels_differ(ray_session):
    """Every mined hard negative must carry a label different from its
    query's, and per query the result is exactly the top-k of the
    label-excluded exact similarity ranking."""
    import duckdb

    from logstash_filter_geoip_ray.pipelines.data_ops import ANN_K, DATA_QUERIES

    out = DATA_QUERIES["hard_negatives"](SF)
    out = (out.to_pandas() if hasattr(out, "to_pandas") else out)
    lab = duckdb.sql(
        f"SELECT vec_id, label FROM '{SF}/embeddings.parquet'"
    ).df().set_index("vec_id")["label"]
    assert len(out) == len(ANN_QUERY_IDS) * ANN_K
    qlab = out.query_id.map(lab)
    nlab = out.neighbor_id.map(lab)
    assert (qlab != nlab).all()


def test_coreset_select_matches_local_reference(ray_session):
    """Distributed coreset selection ≡ a local numpy replay with the same
    centroids, exactly — plus the structural contract (per-cluster cap,
    nearest-first ranks)."""
    import duckdb
    import ray.data

    from logstash_filter_geoip_ray.stages.clustering import (
        KMEANS_MILLI,
        coreset_select,
        kmeans_fit,
    )

    ds = lambda: ray.data.read_parquet(f"{SF}/embeddings.parquet")  # noqa: E731
    cents = kmeans_fit(ds(), k=8, iters=5)
    got = coreset_select(ds(), k=8, per_cluster=16, centroids=cents).to_pandas()

    full = duckdb.sql(
        f"SELECT vec_id, embedding FROM '{SF}/embeddings.parquet' ORDER BY vec_id"
    ).df()
    ids = full.vec_id.to_numpy()
    mat = np.floor(
        np.stack(full.embedding.to_numpy()).astype(np.float64) * KMEANS_MILLI
    ).astype(np.int64)
    d2_all = (
        (mat * mat).sum(1)[:, None]
        - 2 * (mat @ cents.T)
        + (cents * cents).sum(1)[None, :]
    )
    assign = np.argmin(d2_all, axis=1)
    rows = []
    for c in range(8):
        members = np.flatnonzero(assign == c)
        d2 = d2_all[members, c]
        order = np.lexsort((ids[members], d2))[:16]
        for r, j in enumerate(order, 1):
            rows.append((int(ids[members][j]), c, r))
    want = pd.DataFrame(rows, columns=["vec_id", "cluster", "rank"]).sort_values(
        ["cluster", "rank"]
    )
    pd.testing.assert_frame_equal(
        got.reset_index(drop=True), want.reset_index(drop=True)
    )
    assert (got.groupby("cluster").size() <= 16).all()


def test_containment_catches_subset_jaccard_misses(ray_session):
    """A short doc fully embedded in a long one: containment fires at 1.0
    while the Jaccard filter at the same nominal bar stays silent."""
    import ray.data

    from logstash_filter_geoip_ray.stages.dedup import (
        containment_pairs_by_block,
        jaccard_pairs_by_block,
    )

    quote = "alpha beta gamma delta"
    host = quote + " " + " ".join("w%d" % i for i in range(40))
    tbl = pa.table(
        {
            "doc_id": pa.array([1, 2, 3], type=pa.int64()),
            "source": ["s", "s", "s"],
            "text": [quote, host, "totally unrelated content here"],
        }
    )
    cont = containment_pairs_by_block(
        ray.data.from_arrow(tbl), threshold_num=8, threshold_den=10
    ).to_pandas()
    jac = jaccard_pairs_by_block(
        ray.data.from_arrow(tbl), min_ratio=0.8
    ).to_pandas()
    assert [(r.a, r.b) for r in cont.itertuples()] == [(1, 2)]
    row = cont.iloc[0]
    assert row.inter == row.size_a == 4 and row.size_b == 44
    assert len(jac) == 0  # symmetric Jaccard misses the embedded quote


def test_containment_merge_size_guard(ray_session):
    """One high-document-frequency token shared by EVERY doc in the block
    explodes the token self-merge quadratically in docs while staying far
    under max_block_tokens — the predicted Σ df(w)² cap must raise loudly
    (round-5 advice item), and generous caps must leave results unchanged."""
    import ray.data

    from logstash_filter_geoip_ray.stages.dedup import (
        containment_pairs_by_block,
    )

    n = 200  # docs, each sharing one stopword: Σ df² >= n² = 40,000
    tbl = pa.table(
        {
            "doc_id": pa.array(range(n), type=pa.int64()),
            "source": ["s"] * n,
            "text": ["the unique%d token%d" % (i, i) for i in range(n)],
        }
    )
    ds = ray.data.from_arrow(tbl)
    with pytest.raises(ValueError, match="df\\(w\\)"):
        containment_pairs_by_block(
            ds, max_block_tokens=5_000_000, max_merge_rows=n * n - 1
        ).to_pandas()
    # a generous cap passes and the result is the honest all-pairs answer
    # for the shared-stopword block: inter=1 pairs filtered by threshold
    ok = containment_pairs_by_block(ds, max_merge_rows=10 * n * n).to_pandas()
    assert len(ok) == 0  # 1/3 containment < 8/10 threshold for every pair


def test_containment_merge_cap_error_names_its_keyword(ray_session):
    """The predicted-merge guard reports the cap that tripped
    (max_merge_rows), not the block-rows cap of the all-pairs validators."""
    import ray.data

    from logstash_filter_geoip_ray.stages.dedup import (
        containment_pairs_by_block,
    )

    n = 20
    tbl = pa.table(
        {
            "doc_id": pa.array(range(n), type=pa.int64()),
            "source": ["s"] * n,
            "text": ["the unique%d" % i for i in range(n)],
        }
    )
    with pytest.raises(ValueError, match="max_merge_rows=10") as err:
        containment_pairs_by_block(
            ray.data.from_arrow(tbl), max_merge_rows=10
        ).to_pandas()
    assert "max_block_rows" not in str(err.value)


def test_data_ops_import_fits_no_kmeans():
    """The semdedup oracles' k-means fits run when an oracle is asked for,
    not when data_ops is imported."""
    import os
    import subprocess
    import sys

    code = (
        "import logstash_filter_geoip_ray.stages.clustering as c\n"
        "def boom(*a, **k): raise SystemExit('kmeans_fit_local at import')\n"
        "c.kmeans_fit_local = boom\n"
        "import logstash_filter_geoip_ray.pipelines.data_ops as d\n"
        "assert 'dedup_semantic_clustered' not in d.DATA_ORACLES\n"
    )
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ, PYTHONPATH=root)
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_semdedup_oracles_fall_back_to_rows_only(monkeypatch):
    import os

    from logstash_filter_geoip_ray.pipelines.data_ops import semdedup_oracles
    from logstash_filter_geoip_ray.stages import clustering

    def fit(tbl, k, iters, init, sample_milli):
        if init == "sample":
            raise ValueError("sample smaller than k")
        return np.zeros((k, 2), dtype=np.int64)

    monkeypatch.setattr(clustering, "kmeans_fit_local", fit)
    got = semdedup_oracles()
    assert "dedup_semantic_clustered_sampled" not in got
    has_corpus = os.path.exists(os.path.join(SF, "embeddings.parquet"))
    assert ("dedup_semantic_clustered" in got) == has_corpus
