"""MMDB writer roundtrip + custom-lookup enrichment stage."""

import pyarrow as pa
import pytest

from logstash_filter_geoip_ray.functions.fields import Field
from logstash_filter_geoip_ray.state.mmdb import MMDBReader
from logstash_filter_geoip_ray.state.mmdb_writer import (
    build_mmdb,
    build_mmdb_from_table,
)


def test_roundtrip_basic(tmp_path):
    path = str(tmp_path / "c.mmdb")
    build_mmdb(
        [
            ("10.0.0.0/8", {"org": "internal", "risk": 1, "flag": True, "score": 0.5}),
            ("10.1.0.0/16", {"org": "lab", "risk": 9}),
            ("192.168.1.0/24", {"org": "home", "tags": ["a", "b"]}),
            ("2001:db8::/32", {"org": "docs", "risk": 3}),
        ],
        path,
        database_type="Custom-Risk",
    )
    with MMDBReader(path) as r:
        assert r.database_type == "Custom-Risk"
        rec, _ = r.get("10.5.5.5")
        assert rec == {"org": "internal", "risk": 1, "flag": True, "score": 0.5}
        rec, _ = r.get("10.1.2.3")  # more specific wins
        assert rec == {"org": "lab", "risk": 9}
        rec, _ = r.get("192.168.1.77")
        assert rec["tags"] == ["a", "b"]
        rec, _ = r.get("2001:db8::1")
        assert rec["org"] == "docs"
        assert r.get("8.8.8.8")[0] is None
        assert r.get("192.168.2.1")[0] is None


def test_roundtrip_deterministic(tmp_path):
    e = [("1.2.3.0/24", {"x": 1}), ("4.5.0.0/16", {"x": 2})]
    p1, p2 = str(tmp_path / "a.mmdb"), str(tmp_path / "b.mmdb")
    build_mmdb(e, p1)
    build_mmdb(e, p2)
    assert open(p1, "rb").read() == open(p2, "rb").read()


def test_large_value_types(tmp_path):
    path = str(tmp_path / "t.mmdb")
    big = "x" * 1000  # exercises multi-byte size encoding
    build_mmdb(
        [("5.0.0.0/8", {"s": big, "neg": -7, "u64": 1 << 40, "nested": {"a": 1}})],
        path,
    )
    with MMDBReader(path) as r:
        rec, _ = r.get("5.1.2.3")
        assert rec["s"] == big and rec["neg"] == -7
        assert rec["u64"] == 1 << 40 and rec["nested"] == {"a": 1}


def test_integer_encoding_edges(tmp_path):
    path = str(tmp_path / "i.mmdb")
    build_mmdb(
        [
            (
                "6.0.0.0/8",
                {
                    "min32": -(1 << 31),
                    "u64max": (1 << 64) - 1,
                    "u128": 1 << 100,
                    "u128max": (1 << 128) - 1,
                },
            )
        ],
        path,
    )
    with MMDBReader(path) as r:
        rec, _ = r.get("6.1.2.3")
        assert rec["min32"] == -(1 << 31)
        assert rec["u64max"] == (1 << 64) - 1
        assert rec["u128"] == 1 << 100
        assert rec["u128max"] == (1 << 128) - 1
    with pytest.raises(TypeError, match="encodable range"):
        build_mmdb([("7.0.0.0/8", {"x": -(1 << 31) - 1})], str(tmp_path / "b1.mmdb"))
    with pytest.raises(TypeError, match="encodable range"):
        build_mmdb([("7.0.0.0/8", {"x": 1 << 128})], str(tmp_path / "b2.mmdb"))


def test_custom_lookup_stage(ray_session, tmp_path):
    import ray.data

    from logstash_filter_geoip_ray.stages.custom_lookup import CustomMMDBEnricher

    side = pa.table(
        {
            "network": ["10.0.0.0/8", "203.0.113.0/24"],
            "org": ["internal", "testnet"],
            "risk": pa.array([1, 8], type=pa.int64()),
        }
    )
    db = build_mmdb_from_table(side, str(tmp_path / "side.mmdb"))
    data = ray.data.from_arrow(
        pa.table({"source_ip": ["10.9.9.9", "203.0.113.50", "8.8.8.8", None, "bogus"]})
    )
    out = data.map_batches(
        CustomMMDBEnricher(db, {"org": pa.string(), "risk": pa.int64()}),
        batch_format="pyarrow",
    ).to_pandas()
    rows = {r["source_ip"]: r["lookup"] for _, r in out.iterrows()}
    assert rows["10.9.9.9"] == {"org": "internal", "risk": 1}
    assert rows["203.0.113.50"] == {"org": "testnet", "risk": 8}
    assert rows["8.8.8.8"] is None and rows["bogus"] is None
    assert rows[None] is None  # null source must never alias a dict slot


def test_custom_lookup_null_source_no_slot0_alias(tmp_path):
    """Regression: a null source row in a batch whose first distinct value
    HITS the DB must come back null, not with dictionary slot 0's record."""
    from logstash_filter_geoip_ray.stages.custom_lookup import CustomMMDBEnricher

    side = pa.table({"network": ["10.0.0.0/8"], "org": ["internal"]})
    db = build_mmdb_from_table(side, str(tmp_path / "side.mmdb"))
    enricher = CustomMMDBEnricher(db, {"org": pa.string()})
    # slot 0 = "10.1.1.1" (a hit); second row is null
    batch = pa.table({"source_ip": pa.array(["10.1.1.1", None, "10.1.1.1"])})
    out = enricher(batch)
    col = out["lookup"].combine_chunks()
    assert col.is_valid().to_pylist() == [True, False, True]
    assert col[0].as_py() == {"org": "internal"}


def test_u32_geoname_id_city_record(tmp_path):
    """A small ``geoname_id`` stored as uint16 fails the City model's Long
    check; ``U32`` stores it as uint32 and the record comes back."""
    from logstash_filter_geoip_ray.functions.config import GeoIPConfig
    from logstash_filter_geoip_ray.stages.enrich import GeoIPLookup
    from logstash_filter_geoip_ray.state.mmdb import U32

    def city_db(name, geoname_id):
        record = {"city": {"geoname_id": geoname_id, "names": {"en": "Five"}},
                  "location": {"latitude": 1.5, "longitude": 2.5}}
        return build_mmdb([("5.5.5.0/24", record)], str(tmp_path / name),
                          database_type="GeoIP2-City")

    lookup = GeoIPLookup(GeoIPConfig(source="x", database=city_db("u32.mmdb", U32(5))))
    ok, values = lookup.lookup("5.5.5.5")
    assert ok and values[Field.CITY_NAME] == "Five"
    with MMDBReader(lookup.config.database) as r:
        assert type(r.get("5.5.5.5")[0]["city"]["geoname_id"]) is int  # uint32
    plain = GeoIPLookup(GeoIPConfig(source="x", database=city_db("u16.mmdb", 5)))
    assert plain.lookup("5.5.5.5") == (False, None)
    with pytest.raises(TypeError, match="U32 out of range"):
        build_mmdb([("5.5.5.0/24", {"x": U32(1 << 32)})], str(tmp_path / "big.mmdb"))


def test_custom_lookup_truncated_record_is_a_miss(tmp_path):
    """A record pointer to a double cut short by the end of the file fails
    to decode with struct.error: a per-row miss on both the batch walk and
    the scalar path, not a failed batch."""
    import numpy as np

    from logstash_filter_geoip_ray.stages.custom_lookup import CustomMMDBEnricher

    path = tmp_path / "cut.mmdb"
    build_mmdb([("1.2.3.0/24", {"org": "bad"}), ("9.9.9.0/24", {"org": "good"})], str(path))
    with MMDBReader(str(path)) as r:
        offset = int(r.get_ipv4_batch(np.array([0x01020304], dtype=np.uint32))[0][0])
        old = (r.node_count + 16 + offset).to_bytes(4, "big")
        data_base, size = r._data_base, len(r._mmap)
    raw = bytearray(path.read_bytes()) + bytes([0x68])  # double ctrl byte, no payload
    new = (r.node_count + 16 + size - data_base).to_bytes(4, "big")
    at = raw.index(old)
    assert at % 4 == 0 and raw.count(old) == 1
    raw[at:at + 4] = new
    path.write_bytes(bytes(raw))

    enricher = CustomMMDBEnricher(str(path), {"org": pa.string()})
    out = enricher(pa.table({"source_ip": ["1.2.3.4", "::ffff:1.2.3.4", "9.9.9.9"]}))
    assert out["lookup"].to_pylist() == [None, None, {"org": "good"}]
