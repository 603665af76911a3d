"""Property/fuzz tests: hostile bytes and hostile strings must never crash
the engine — only clean errors (build time) or tagged failures (row level)."""

import numpy as np
import pandas as pd
import pyarrow as pa
from hypothesis import given, settings
from hypothesis import strategies as st

from logstash_filter_geoip_ray.functions.config import GeoIPConfig
from logstash_filter_geoip_ray.functions.iputil import host_address, parse_ip
from logstash_filter_geoip_ray.state.mmdb import (
    METADATA_MARKER,
    InvalidDatabaseError,
    MMDBReader,
)


@settings(max_examples=50, deadline=None)
@given(st.binary(min_size=0, max_size=2048))
def test_mmdb_random_bytes_never_crash(tmp_path_factory, data):
    path = tmp_path_factory.mktemp("fuzz") / "f.mmdb"
    path.write_bytes(data)
    try:
        MMDBReader(str(path)).close()
    except (InvalidDatabaseError, FileNotFoundError):
        pass  # the only acceptable outcomes


@settings(max_examples=50, deadline=None)
@given(st.binary(min_size=0, max_size=512))
def test_mmdb_marker_plus_garbage_never_crash(tmp_path_factory, garbage):
    path = tmp_path_factory.mktemp("fuzz") / "g.mmdb"
    path.write_bytes(garbage + METADATA_MARKER + garbage)
    try:
        with MMDBReader(str(path)) as r:
            r.get("1.2.3.4")
    except (InvalidDatabaseError, ValueError, KeyError, IndexError):
        pass


@settings(max_examples=200, deadline=None)
@given(st.text(max_size=64))
def test_lookup_any_string_never_raises(geo_lookup, s):
    ok, values = geo_lookup.lookup(s) if s.strip() else (False, None)
    assert isinstance(ok, bool)
    if not ok:
        assert values is None


@settings(max_examples=200, deadline=None)
@given(st.text(max_size=64))
def test_parse_ip_total(s):
    addr = parse_ip(s)
    if addr is not None:
        assert host_address(addr)  # canonical echo always renders


@settings(max_examples=25, deadline=None)
@given(st.lists(st.one_of(st.none(), st.text(max_size=32)), min_size=1, max_size=50))
def test_enricher_batch_any_strings(geo_enricher, values):
    batch = pa.table({"message": pa.array(values, type=pa.string())})
    out = geo_enricher(batch)
    assert out.num_rows == len(values)
    assert "geoip" in out.column_names and "tags" in out.column_names


_cidr_v4 = st.tuples(
    st.integers(0, (1 << 32) - 1), st.integers(8, 32)
).map(lambda t: "%s/%d" % (__import__("ipaddress").ip_address(t[0]), t[1]))


@settings(max_examples=25, deadline=None)
@given(
    st.lists(st.tuples(_cidr_v4, st.integers(0, 1000)), min_size=1, max_size=12),
    st.lists(st.integers(0, (1 << 32) - 1), min_size=1, max_size=16),
)
def test_mmdb_writer_longest_prefix_roundtrip(tmp_path_factory, entries, probes):
    """Writer→reader roundtrip equals a pure-Python longest-prefix reference
    for arbitrary CIDR sets and probe addresses."""
    import ipaddress

    from logstash_filter_geoip_ray.state.mmdb_writer import build_mmdb

    nets = [(ipaddress.ip_network(c, strict=False), {"v": v}) for c, v in entries]
    path = tmp_path_factory.mktemp("wfuzz") / "w.mmdb"
    build_mmdb([(str(n), rec) for n, rec in nets], str(path))

    def reference(addr):
        best = None
        for n, rec in nets:
            if addr in n and (best is None or n.prefixlen > best[0]):
                best = (n.prefixlen, rec)
        # insertion order ties: build_mmdb sorts by prefixlen, later same-
        # prefix entries overwrite — mirror that
        if best is None:
            return None
        plen = best[0]
        for n, rec in nets:
            if addr in n and n.prefixlen == plen:
                best = (plen, rec)
        return best[1]

    with MMDBReader(str(path)) as r:
        for p in probes:
            addr = __import__("ipaddress").ip_address(p)
            got, _ = r.get(addr)
            assert got == reference(addr), (str(addr), got, reference(addr))


@settings(max_examples=50, deadline=None)
@given(
    st.lists(
        st.one_of(st.none(), st.lists(st.text(max_size=6), max_size=4)), max_size=20
    ),
    st.lists(st.booleans(), max_size=20),
    st.lists(st.text(min_size=1, max_size=8), max_size=3),
)
def test_append_tags_property(existing_rows, failures, tags):
    """Offset-arithmetic append_tags equals the obvious per-row reference for
    arbitrary existing lists / failure masks / tag lists."""
    import numpy as np

    from logstash_filter_geoip_ray.stages.enrich import append_tags

    n = min(len(existing_rows), len(failures))
    existing_rows, failures = existing_rows[:n], np.array(failures[:n], dtype=bool)
    existing = pa.array(existing_rows, type=pa.list_(pa.string()))
    out = append_tags(existing, failures, tags, n).to_pylist()
    ref = [((t or []) + tags) if f else t for t, f in zip(existing_rows, failures)]
    assert out == ref


# session-scoped fixtures (built once; hypothesis calls the test many times)
import pytest


@pytest.fixture(scope="module")
def geo_lookup(db_paths):
    from logstash_filter_geoip_ray.stages.enrich import GeoIPLookup

    lk = GeoIPLookup(GeoIPConfig(source="x", database=db_paths["city"]))
    yield lk
    lk.close()


@pytest.fixture(scope="module")
def geo_enricher(db_paths):
    from logstash_filter_geoip_ray.stages.enrich import GeoIPEnricher

    return GeoIPEnricher(GeoIPConfig(source="message", database=db_paths["city"]))


@given(
    h=st.integers(min_value=1, max_value=12),
    w=st.integers(min_value=1, max_value=12),
    channels=st.sampled_from([1, 2, 3, 4]),
    ftype=st.sampled_from([0, 1, 2, 3, 4, "mixed"]),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
@settings(max_examples=60, deadline=None)
def test_fuzz_png_roundtrip(h, w, channels, ftype, seed):
    """encode_png → decode_png is the identity for every shape × filter ×
    channel count, including 1-pixel images."""
    import numpy as np

    from logstash_filter_geoip_ray.stages.multimodal import decode_png, encode_png

    rng = np.random.default_rng(seed)
    px = rng.integers(0, 256, size=(h, w, channels), dtype=np.uint8)
    got = decode_png(encode_png(px, filter_type=ftype))
    assert got.shape == px.shape
    assert (got == px).all()


@given(
    h=st.integers(min_value=1, max_value=16),
    w=st.integers(min_value=1, max_value=16),
    n_colors=st.integers(min_value=1, max_value=256),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
@settings(max_examples=60, deadline=None)
def test_fuzz_gif_roundtrip(h, w, n_colors, seed):
    """encode_gif → decode_gif is the identity for every shape × palette
    size (LZW code growth, 1-pixel images, 1-color palettes)."""
    import numpy as np

    from logstash_filter_geoip_ray.functions.gif import decode_gif, encode_gif

    rng = np.random.default_rng(seed)
    pal = rng.integers(0, 256, size=(n_colors, 3), dtype=np.uint8)
    px = pal[rng.integers(0, n_colors, size=(h, w))]
    got = decode_gif(encode_gif(px))
    assert got.shape == px.shape
    assert (got == px).all()


@given(
    texts=st.lists(
        st.one_of(
            st.none(),
            st.text(
                alphabet=st.sampled_from(list("ab \t\n")), max_size=40
            ),
            st.text(max_size=30),
        ),
        min_size=1,
        max_size=24,
    )
)
@settings(max_examples=40, deadline=None)
def test_fuzz_minhash_band_stage_equivalence(texts):
    """Vectorized batch band kernel ≡ per-row signature()/band_keys()
    reference on arbitrary (unicode, whitespace-degenerate, null) text."""
    import pyarrow as pa

    from logstash_filter_geoip_ray.stages.dedup import MinHashBandStage

    batch = pa.table(
        {
            "doc_id": pa.array(list(range(len(texts))), type=pa.int64()),
            "text": pa.array(texts, type=pa.string()),
        }
    )
    stage = MinHashBandStage(num_perm=16, bands=4, shingle_k=3)
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


@given(seed=st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=80, deadline=None)
def test_fuzz_jpeg_decode_total_contract(seed):
    """Adversarially mutated JPEG bytes must either decode or raise
    ValueError — never any other exception (the DecodeImageStage per-row
    degrade path catches exactly ValueError)."""
    import numpy as np

    from logstash_filter_geoip_ray.functions.jpeg import decode_jpeg, encode_jpeg

    from logstash_filter_geoip_ray.functions.jpeg import encode_jpeg_progressive

    rng = np.random.default_rng(seed)
    img = rng.integers(0, 256, (16, 16, 3), dtype=np.uint8)
    # alternate seeds mutate progressive bytes — the multi-scan decode
    # paths (EOB runs, refinement bits, per-scan entropy bounds) must hold
    # the same total-ValueError contract as the baseline path
    enc = encode_jpeg_progressive if seed % 2 else encode_jpeg
    good = bytearray(enc(img))
    b = bytearray(good)
    for _ in range(int(rng.integers(1, 8))):
        b[int(rng.integers(2, len(b)))] = int(rng.integers(0, 256))
    try:
        out = decode_jpeg(bytes(b))
        assert out.dtype == np.uint8
    except ValueError:
        pass


@settings(max_examples=25, deadline=None)
@given(
    n_l=st.integers(1, 60),
    n_r=st.integers(0, 80),
    n_keys=st.integers(1, 8),
    span=st.integers(1, 200),
    before=st.integers(0, 50),
    after=st.integers(0, 50),
    seed=st.integers(0, 2**31 - 1),
)
def test_fuzz_band_join_counts(ray_session, n_l, n_r, n_keys, span, before,
                               after, seed):
    """band_join_counts == per-row brute force for random keys/times/bands."""
    import ray.data

    from logstash_filter_geoip_ray.stages.joins import band_join_counts

    rng = np.random.RandomState(seed)
    lk = rng.randint(0, n_keys, n_l)
    lt = rng.randint(0, span, n_l)
    rk = rng.randint(0, n_keys, n_r)
    rt = rng.randint(0, span, n_r)
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
            ray.data.from_arrow(left),
            ray.data.from_arrow(right),
            "k", "k", "t", "t", "id",
            before=before, after=after, num_buckets=3,
        )
        .to_pandas()
        .sort_values("id")
    )
    exp = [
        int(((rk == k) & (rt >= t - before) & (rt <= t + after)).sum())
        for k, t in zip(lk, lt)
    ]
    assert got["n_matches"].tolist() == exp


@settings(max_examples=25, deadline=None)
@given(
    sizes=st.lists(st.integers(1, 23), min_size=1, max_size=6),
    k=st.integers(1, 7),
    seed=st.integers(0, 2**31 - 1),
)
def test_fuzz_ntile_matches_sql_rule(ray_session, sizes, k, seed):
    """ntile_stats tile sizes follow SQL's remainder rule for every
    (segment size, k) and the per-tile sums match a naive assignment."""
    import ray.data

    from logstash_filter_geoip_ray.stages.windows import ntile_stats

    rng = np.random.RandomState(seed)
    rows = []
    i = 0
    for s_idx, m in enumerate(sizes):
        for _ in range(m):
            rows.append((f"k{s_idx}", float(rng.rand()), i))
            i += 1
    tbl = pa.table(
        {
            "event_type": [r[0] for r in rows],
            "value": [r[1] for r in rows],
            "event_id": pa.array([r[2] for r in rows], type=pa.int64()),
        }
    )
    got = ntile_stats(
        ray.data.from_arrow(tbl), k=k, num_buckets=2
    ).to_pandas()
    exp = {}
    for s_idx, m in enumerate(sizes):
        key = f"k{s_idx}"
        seg = sorted((r for r in rows if r[0] == key), key=lambda r: (r[1], r[2]))
        q, r_ = divmod(m, k)
        tiles = []
        for tile in range(1, k + 1):
            tiles += [tile] * ((q + 1) if tile <= r_ else q)
        for (kk, v, _id), t in zip(seg, tiles):
            n, s = exp.get((kk, t), (0, 0))
            exp[(kk, t)] = (n + 1, s + int(np.floor(v * 1000.0)))
    got_map = {
        (r["event_type"], int(r["tile"])): (int(r["n"]), int(r["sum_v_milli"]))
        for _, r in got.iterrows()
    }
    assert got_map == exp


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.text(
            alphabet=st.sampled_from(list("abc日é \t")), min_size=0, max_size=20
        ),
        min_size=2,
        max_size=8,
    )
)
def test_fuzz_edit_distance_pairs(ray_session, texts):
    """The vectorized all-pairs byte DP equals the classic sequential DP on
    arbitrary (incl. multi-byte and whitespace-only) strings."""
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

    n = len(texts)
    tbl = pa.table({
        "doc_id": pa.array(range(n), type=pa.int64()),
        "lang": pa.array(["x"] * n),
        "source": pa.array(["y"] * n),
        "text": pa.array(texts, type=pa.string()),
    })
    ds = __import__("ray").data.from_arrow(tbl)
    got = edit_distance_pairs(ds, prefix_chars=16, max_dist=10**6).to_pandas()
    got_pairs = {(r.a, r.b): r.dist for r in got.itertuples()}
    expect = {
        (i, j): lev_bytes(texts[i][:16], texts[j][:16])
        for i in range(n)
        for j in range(i + 1, n)
    }
    assert got_pairs == expect


@settings(max_examples=100, deadline=None)
@given(
    st.lists(
        st.one_of(
            st.none(),
            st.text(max_size=40),  # arbitrary text incl. raw markup
        ),
        min_size=1,
        max_size=20,
    )
)
def test_xml_render_parse_roundtrip(values):
    """Render arbitrary text into an XML note via xml_escape_array, parse
    it back with the marker-envelope stage: every escaped row must
    round-trip verbatim, and no input may crash or misalign rows."""
    import pyarrow.compute as pc

    from logstash_filter_geoip_ray.stages.logfilters import (
        make_xml_parse,
        xml_escape_array,
    )

    # map away everything outside the XML 1.0 Char production (controls,
    # and the BMP noncharacters U+FFFE/U+FFFF hypothesis can generate) —
    # the renderer's contract is valid-XML text
    def xml_char(c):
        return (
            "\x20" <= c <= "\ud7ff"
            or "\ue000" <= c <= "\ufffd"
            or c > "\uffff"
        )

    clean = [
        None if v is None else "".join(c if xml_char(c) else "." for c in v)
        for v in values
    ]
    src = pa.array(clean, type=pa.string())
    note = xml_escape_array(src)
    doc = pc.binary_join_element_wise("<o><note>", note, "</note></o>", "")
    out = make_xml_parse("x", {"note": "note"})(pa.table({"x": doc}))
    got = out["note"].to_pylist()
    ok = out["xml_ok"].to_pylist()
    for inp, o, k in zip(clean, got, ok):
        if inp is None:
            assert not k and o is None
        else:
            assert k
            # ElementTree reports an empty element's text as None
            assert (o or "") == inp


@settings(max_examples=50, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=5),          # key
            st.integers(min_value=0, max_value=300),        # ts
            st.sampled_from(["start", "end", "other"]),     # type
            st.integers(min_value=-50, max_value=50),       # value (milli/1000)
        ),
        min_size=1,
        max_size=60,
    ),
    st.integers(min_value=1, max_value=120),                # timeout
)
def test_aggregate_tasks_vs_naive(ray_session, events, timeout_us):
    """aggregate_tasks must equal a per-key sequential-replay reference on
    random event grids: same task set, statuses, windows and sums."""
    import ray.data

    from logstash_filter_geoip_ray.stages.logfilters import aggregate_tasks

    tbl = pa.table(
        {
            "k": pa.array([e[0] for e in events], pa.int64()),
            "ts": pa.array([e[1] for e in events], pa.int64()).cast(
                pa.timestamp("us")
            ),
            "et": pa.array([e[2] for e in events]),
            "v": pa.array([float(e[3]) for e in events], pa.float64()),
        }
    )
    raw = aggregate_tasks(
        ray.data.from_arrow(tbl), "k", "ts", "et",
        start_type="start", end_type="end",
        value_col="v", timeout_us=timeout_us, num_buckets=2,
    ).to_pandas()
    # an all-empty result loses its schema through the final sort — the
    # contract is simply "no rows"; guard before set_index
    got = raw.set_index("k") if len(raw) else raw
    # naive reference
    keys = sorted({e[0] for e in events})
    expect = {}
    for k in keys:
        evs = sorted(
            [e for e in events if e[0] == k], key=lambda e: e[1]
        )
        starts = [e[1] for e in evs if e[2] == "start"]
        if not starts:
            continue
        t0 = min(starts)
        ends = [
            e[1] for e in evs
            if e[2] == "end" and t0 <= e[1] <= t0 + timeout_us
        ]
        t1 = min(ends) if ends else None
        hi = t1 if t1 is not None else t0 + timeout_us
        win = [e for e in evs if t0 <= e[1] <= hi]
        expect[k] = (
            "completed" if t1 is not None else "timeout",
            t0, t1, len(win), sum(int(e[3]) * 1000 for e in win),
        )
    if not expect:
        assert len(raw) == 0
        return
    assert sorted(got.index) == sorted(expect)
    for k, (status, t0, t1, n, sv) in expect.items():
        row = got.loc[k]
        assert row["status"] == status
        assert row["t0"] == t0
        assert (row["t1"] == t1) if t1 is not None else pd.isna(row["t1"])
        assert row["n_events"] == n
        assert row["sum_value_milli"] == sv


@settings(max_examples=25, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.integers(min_value=1, max_value=5),    # user
            st.integers(min_value=0, max_value=50),   # ts (µs, dup-heavy)
            st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
        ),
        min_size=1,
        max_size=60,
    )
)
def test_fuzz_twap_vs_naive(ray_session, rows):
    """TWAP kernel vs a naive per-key step-integration reference."""
    import pandas as pd
    import pyarrow as pa
    import ray.data

    from logstash_filter_geoip_ray.stages.windows import time_weighted_averages

    recs = [(u, t, i, v) for i, (u, t, v) in enumerate(rows)]
    tbl = pa.table(
        {
            "user_id": pa.array([r[0] for r in recs], type=pa.int64()),
            "ts": pa.array([r[1] for r in recs], type=pa.timestamp("us")),
            "event_id": pa.array([r[2] for r in recs], type=pa.int64()),
            "value": pa.array([r[3] for r in recs], type=pa.float64()),
        }
    )
    got = (
        time_weighted_averages(ray.data.from_arrow(tbl), num_buckets=3)
        .to_pandas()
        .set_index("user_id")
        .sort_index()
    )
    import math

    by_user = {}
    for u, t, i, v in recs:
        by_user.setdefault(u, []).append((t, i, int(math.floor(v * 1000))))
    for u, evs in sorted(by_user.items()):
        evs.sort()
        span = evs[-1][0] - evs[0][0]
        num = sum(
            vm * (evs[k + 1][0] - t) for k, (t, _, vm) in enumerate(evs[:-1])
        )
        twap = num // span if span > 0 else evs[0][2]
        assert got.loc[u, "span_us"] == span
        assert got.loc[u, "twap_num"] == num
        assert got.loc[u, "twap_milli"] == twap


@settings(max_examples=25, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.integers(min_value=1, max_value=4),            # user
            st.integers(min_value=0, max_value=30),           # ts
            st.sampled_from(["a", "b", "c"]),                 # attr
        ),
        min_size=1,
        max_size=50,
    )
)
def test_fuzz_scd2_vs_naive(ray_session, rows):
    """SCD2 kernel vs a naive per-key changelog compression reference."""
    import pyarrow as pa
    import ray.data

    from logstash_filter_geoip_ray.stages.windows import scd2_intervals

    recs = [(u, t, i, a) for i, (u, t, a) in enumerate(rows)]
    tbl = pa.table(
        {
            "user_id": pa.array([r[0] for r in recs], type=pa.int64()),
            "ts": pa.array([r[1] for r in recs], type=pa.timestamp("us")),
            "event_id": pa.array([r[2] for r in recs], type=pa.int64()),
            "event_type": [r[3] for r in recs],
        }
    )
    got = list(
        map(
            tuple,
            scd2_intervals(ray.data.from_arrow(tbl), num_buckets=3)
            .to_pandas()
            .to_numpy(),
        )
    )
    want = []
    by_user = {}
    for u, t, i, a in recs:
        by_user.setdefault(u, []).append((t, i, a))
    for u, evs in sorted(by_user.items()):
        evs.sort()
        changes = []
        prev = None
        for t, i, a in evs:
            if prev is None or a != prev:
                changes.append((t, i, a))
            prev = a
        for k, (t, i, a) in enumerate(changes):
            to = changes[k + 1][0] if k + 1 < len(changes) else -1
            want.append((u, a, t, to))
    want.sort(key=lambda r: (r[0], r[2], r[1]))
    assert got == want


@settings(max_examples=15, deadline=None)
@given(
    st.lists(
        st.lists(
            st.sampled_from(["w%d" % i for i in range(8)]),
            min_size=0,
            max_size=8,
        ),
        min_size=2,
        max_size=12,
    ),
    st.sampled_from([(1, 2), (7, 10), (9, 10)]),
)
def test_fuzz_ppjoin_vs_naive(ray_session, token_lists, thresh):
    """Prefix-filter join vs naive all-pairs on dense random corpora —
    exercises hot prefix tokens, empty docs and threshold boundaries."""
    import pyarrow as pa
    import ray.data

    from logstash_filter_geoip_ray.stages.dedup import (
        prefix_filter_jaccard_pairs,
    )

    num, den = thresh
    docs = [(i, " ".join(toks)) for i, toks in enumerate(token_lists)]
    tbl = pa.table(
        {
            "doc_id": pa.array([d for d, _ in docs], type=pa.int64()),
            "text": [t for _, t in docs],
        }
    )
    res = prefix_filter_jaccard_pairs(
        ray.data.from_arrow(tbl),
        threshold_num=num,
        threshold_den=den,
        num_buckets=2,
    )
    df = res.to_pandas() if hasattr(res, "to_pandas") else res
    got = sorted(map(tuple, df.to_numpy()))
    sets = {d: set(t.split()) for d, t in docs if t.split()}
    want = []
    ids = sorted(sets)
    for i, a in enumerate(ids):
        for b in ids[i + 1:]:
            inter = len(sets[a] & sets[b])
            union = len(sets[a] | sets[b])
            if union and inter * den >= union * num:
                want.append((a, b, inter, union))
    assert got == sorted(want)


@settings(max_examples=60, deadline=None)
@given(
    keys=st.lists(
        st.tuples(
            st.sampled_from(["US", "DE", "JP", "_miss", None]),
            st.sampled_from(["a", "b", "cc"]),
        ),
        min_size=0,
        max_size=40,
    )
)
def test_fuzz_ipc_fanout_run_boundaries(tmp_path_factory, keys):
    """Property: the fan-out's vectorized run-boundary split (sort + adjacent
    inequality with null-edge handling) lands every row in exactly the sink
    a pandas groupby reference assigns it, including null keys."""
    import pyarrow as pa

    from logstash_filter_geoip_ray.pipelines import geoip_pipeline as gp

    staging = str(tmp_path_factory.mktemp("fanout"))
    batch = pa.table(
        {
            "country": pa.array([k[0] for k in keys], type=pa.string()),
            "tool": pa.array([k[1] for k in keys], type=pa.string()),
            "v": pa.array(range(len(keys)), type=pa.int64()),
        }
    )
    gp._FANOUT_TASK_SEQ.clear()
    out = gp._hive_fanout_ipc(staging, ["country", "tool"])(batch)
    # reference: pandas groupby with dropna=False
    import pandas as pd

    ref = (
        batch.to_pandas().groupby(["country", "tool"], dropna=False)["v"]
        .apply(lambda s: sorted(s))
        .to_dict()
    )
    got = {}
    for r in out.to_pylist():
        c = r["sink"].split("country=")[1].split("/")[0]
        t = r["sink"].split("tool=")[1].split("/")[0]
        c = None if c == "__HIVE_DEFAULT_PARTITION__" else c
        with pa.OSFile(r["file"], "rb") as fh:
            b = pa.ipc.open_file(fh).get_batch(r["batch"])
        assert b.num_rows == r["rows"]
        key = (c, t)
        got[key] = sorted(got.get(key, []) + b["v"].to_pylist())
    ref = {(None if (isinstance(k[0], float) or k[0] is None) else k[0], k[1]): v
           for k, v in ref.items()}
    assert got == ref
    # emitted run counts cover every row exactly once
    assert sum(out["rows"].to_pylist()) == len(keys)
