"""Enrichment-core conformance: the reference's JUnit golden vectors
(GeoIPFilterTest.java) and RSpec failure matrix (geoip_offline_spec.rb),
parameterized over ECS on/off, run through the batch enricher."""

import ipaddress

import pyarrow as pa
import pyarrow.compute as pc
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from logstash_filter_geoip_ray.functions.config import GeoIPConfig
from logstash_filter_geoip_ray.functions.fields import Field
from logstash_filter_geoip_ray.stages.enrich import (
    GeoIPEnricher,
    GeoIPLookup,
    _leaf_value,
    output_leaves,
)
from logstash_filter_geoip_ray.state.mmdb import METADATA_MARKER, U32, MMDBReader
from logstash_filter_geoip_ray.state.mmdb_writer import _encode_value, build_mmdb

FAILURE_TAG = ["_geoip_lookup_failure"]


def enrich_one(db_path, ip, ecs=False, fields=None, source_values=None, target=None):
    cfg = GeoIPConfig(
        source="message",
        database=db_path,
        fields=tuple(fields) if fields else None,
        ecs_compatibility="v1" if ecs else "disabled",
        target=target or ("tgt" if ecs else None),
    )
    enricher = GeoIPEnricher(cfg)
    values = source_values if source_values is not None else [ip]
    table = pa.table({"message": values})
    out = enricher(table)
    row = out.to_pylist()[0]
    return row[cfg.resolved_target()], row["tags"]


def geo_get(target, field_legacy, path_ecs, ecs):
    """Read a value via legacy flat name or ECS path."""
    if not ecs:
        return target.get(field_legacy) if target else None
    node = target
    for frag in path_ecs.split("."):
        if node is None:
            return None
        node = node.get(frag)
    return node


@pytest.mark.parametrize("ecs", [False, True])
class TestCityVectors:
    """GeoIPFilterTest.java:55-105 — 216.160.83.58 full city record."""

    def test_milton(self, db_paths, ecs):
        target, tags = enrich_one(db_paths["city"], "216.160.83.58", ecs=ecs)
        assert tags is None
        assert geo_get(target, "city_name", "geo.city_name", ecs) == "Milton"
        assert geo_get(target, "continent_code", "geo.continent_code", ecs) == "NA"
        assert geo_get(target, "country_name", "geo.country_name", ecs) == "United States"
        assert geo_get(target, "country_code2", "geo.country_iso_code", ecs) == "US"
        assert geo_get(target, "postal_code", "geo.postal_code", ecs) == "98354"
        assert geo_get(target, "dma_code", "mmdb.dma_code", ecs) == 819
        assert geo_get(target, "region_name", "geo.region_name", ecs) == "Washington"
        assert geo_get(target, "timezone", "geo.timezone", ecs) == "America/Los_Angeles"
        assert geo_get(target, "latitude", "geo.location.lat", ecs) == 47.2513
        assert geo_get(target, "longitude", "geo.location.lon", ecs) == -122.3149
        assert geo_get(target, "ip", "ip", ecs) == "216.160.83.58"
        if ecs:
            assert target["geo"]["location"] == {"lat": 47.2513, "lon": -122.3149}
            # region_iso_code only in ECS default set
            assert target["geo"]["region_iso_code"] == "US-WA"
            # country_code3 must be absent entirely in ECS mode
            assert "country_code3" not in target and "country_code3" not in target["geo"]
        else:
            assert target["location"] == {"lat": 47.2513, "lon": -122.3149}
            # legacy default set swaps REGION_ISO_CODE → REGION_CODE
            assert target["region_code"] == "WA"
            assert "region_iso_code" not in target
            assert target["country_code3"] == "US"

    def test_custom_fields_subset(self, db_paths, ecs):
        target, tags = enrich_one(
            db_paths["city"], "216.160.83.58", ecs=ecs, fields=["country_name", "continent_code"]
        )
        assert tags is None
        assert geo_get(target, "country_name", "geo.country_name", ecs) == "United States"
        assert geo_get(target, "continent_code", "geo.continent_code", ecs) == "NA"
        flat = target if not ecs else target.get("geo", {})
        assert "city_name" not in flat


@pytest.mark.parametrize("ecs", [False, True])
def test_country_ipv6(db_paths, ecs):
    """GeoIPFilterTest.java:107-117 — 2a02:d5c0:: → Spain, expanded echo."""
    target, tags = enrich_one(db_paths["country"], "2a02:d5c0:0:0:0:0:0:0", ecs=ecs)
    assert tags is None
    assert geo_get(target, "country_code2", "geo.country_iso_code", ecs) == "ES"
    assert geo_get(target, "country_name", "geo.country_name", ecs) == "Spain"
    assert geo_get(target, "continent_name", "geo.continent_name", ecs) == "Europe"
    assert geo_get(target, "ip", "ip", ecs) == "2a02:d5c0:0:0:0:0:0:0"


@pytest.mark.parametrize("ecs", [False, True])
def test_ipv6_compressed_input_expanded_echo(db_paths, ecs):
    """geoip_ecs_spec.rb:158 echo form: '::'-compressed input → expanded-zero."""
    target, tags = enrich_one(db_paths["country"], "2a02:d5c0::", ecs=ecs)
    assert tags is None
    assert geo_get(target, "ip", "ip", ecs) == "2a02:d5c0:0:0:0:0:0:0"


@pytest.mark.parametrize("ecs", [False, True])
def test_isp(db_paths, ecs):
    """GeoIPFilterTest.java:128-151 — 1.128.0.1 Telstra."""
    target, tags = enrich_one(db_paths["isp"], "1.128.0.1", ecs=ecs)
    assert tags is None
    assert geo_get(target, "asn", "as.number", ecs) == 1221
    assert geo_get(target, "as_org", "as.organization.name", ecs) == "Telstra Pty Ltd"
    assert geo_get(target, "isp", "mmdb.isp", ecs) == "Telstra Internet"
    assert geo_get(target, "organization", "mmdb.organization", ecs) == "Telstra Internet"
    assert geo_get(target, "ip", "ip", ecs) == "1.128.0.1"


@pytest.mark.parametrize("ecs", [False, True])
def test_asn_with_network(db_paths, ecs):
    """GeoIPFilterTest.java:153-165 — 12.81.92.1 AS7018, network CIDR."""
    target, tags = enrich_one(
        db_paths["asn"], "12.81.92.1", ecs=ecs, fields=["autonomous_system_number", "autonomous_system_organization", "network", "ip"]
    )
    assert tags is None
    assert geo_get(target, "asn", "as.number", ecs) == 7018
    assert geo_get(target, "as_org", "as.organization.name", ecs) == "AT&T Services"
    assert geo_get(target, "network", "ip_traits.network", ecs) == "12.81.92.0/22"


@pytest.mark.parametrize("ecs", [False, True])
def test_domain(db_paths, ecs):
    """GeoIPFilterTest.java:167-176 — 1.2.0.1 → maxmind.com."""
    target, tags = enrich_one(db_paths["domain"], "1.2.0.1", ecs=ecs)
    assert tags is None
    assert geo_get(target, "domain", "domain", ecs) == "maxmind.com"


@pytest.mark.parametrize("ecs", [False, True])
def test_enterprise(db_paths, ecs):
    """GeoIPFilterTest.java:200-226 — 74.209.24.1 enterprise default fields."""
    target, tags = enrich_one(db_paths["enterprise"], "74.209.24.1", ecs=ecs)
    assert tags is None
    assert geo_get(target, "country_code2", "geo.country_iso_code", ecs) == "US"
    assert geo_get(target, "country_name", "geo.country_name", ecs) == "United States"
    assert geo_get(target, "continent_name", "geo.continent_name", ecs) == "North America"
    assert geo_get(target, "region_iso_code", "geo.region_iso_code", ecs) == "US-NY"
    assert geo_get(target, "region_name", "geo.region_name", ecs) == "New York"
    assert geo_get(target, "city_name", "geo.city_name", ecs) == "Chatham"
    assert geo_get(target, "ip", "ip", ecs) == "74.209.24.1"
    loc = geo_get(target, "location", "geo.location", ecs)
    assert loc == {"lat": 42.3478, "lon": -73.5549}


@pytest.mark.parametrize("ecs", [False, True])
def test_enterprise_traits_and_network(db_paths, ecs):
    target, tags = enrich_one(
        db_paths["enterprise"],
        "74.209.24.1",
        ecs=ecs,
        fields=["autonomous_system_number", "autonomous_system_organization", "network", "hosting_provider", "tor_exit_node",
                "anonymous_vpn", "anonymous", "public_proxy", "residential_proxy"],
    )
    assert tags is None
    assert geo_get(target, "asn", "as.number", ecs) == 14671
    assert geo_get(target, "as_org", "as.organization.name", ecs) == "FairPoint Communications"
    assert geo_get(target, "network", "ip_traits.network", ecs) == "74.209.16.0/20"
    for trait in ("hosting_provider", "tor_exit_node", "anonymous_vpn",
                  "anonymous", "public_proxy", "residential_proxy"):
        assert geo_get(target, trait, "ip_traits." + trait, ecs) is False


@pytest.mark.parametrize("ecs", [False, True])
def test_anonymous_ip_all_true(db_paths, ecs):
    """GeoIPFilterTest.java:241-254 — 81.2.69.1 all six traits true."""
    target, tags = enrich_one(db_paths["anonymous"], "81.2.69.1", ecs=ecs)
    assert tags is None
    for trait in ("hosting_provider", "tor_exit_node", "anonymous_vpn",
                  "anonymous", "public_proxy", "residential_proxy"):
        assert geo_get(target, trait, "ip_traits." + trait, ecs) is True


def test_country_default_fields_present(db_paths):
    """GeoIPFilterTest.java:256-274: every COUNTRY default field set."""
    target, tags = enrich_one(db_paths["country"], "216.160.83.58", ecs=True)
    assert tags is None
    assert target["ip"] == "216.160.83.58"
    assert target["geo"]["country_iso_code"] == "US"
    assert target["geo"]["country_name"] == "United States"
    assert target["geo"]["continent_name"] == "North America"


@pytest.mark.parametrize(
    "db_key", ["country", "anonymous", "enterprise", "isp", "asn"]
)
def test_corrupt_custom_fields_fail_gracefully(db_paths, db_key):
    """GeoIPFilterTest.java:276-283 — 216.160.83.60 must fail, not crash."""
    target, tags = enrich_one(db_paths[db_key], "216.160.83.60", ecs=True)
    assert tags == FAILURE_TAG
    # attempted-but-failed → valid-but-empty target struct
    assert target is not None


def test_corrupt_custom_fields_domain_succeeds(db_paths):
    """GeoIPFilterTest.java:284-290 — Domain DB ignores the stray field."""
    target, tags = enrich_one(db_paths["domain"], "216.160.83.60", ecs=True)
    assert tags is None
    assert target["domain"] == "fantasyland.com"


def test_list_source_first_ip(db_paths):
    """GeoIPFilterTest.java:292-302 — list-valued source uses first element."""
    cfg = GeoIPConfig(source="message", database=db_paths["country"], ecs_compatibility="v1", target="tgt")
    out = GeoIPEnricher(cfg)(
        pa.table({"message": pa.array([["216.160.83.58", "127.0.0.1"]], type=pa.list_(pa.string()))})
    )
    row = out.to_pylist()[0]
    assert row["tags"] is None
    assert row["tgt"]["ip"] == "216.160.83.58"


def test_list_source_mixed_rows_vectorized(db_paths):
    """E1 vectorized list kernel: non-empty, empty, null-list, and
    null-first-element rows in one batch stay row-aligned (the old per-row
    loop's semantics, now list_slice+list_flatten+masked take)."""
    cfg = GeoIPConfig(source="message", database=db_paths["country"], ecs_compatibility="v1", target="tgt")
    col = pa.array(
        [["216.160.83.58", "127.0.0.1"], [], None, [None, "216.160.83.58"]],
        type=pa.list_(pa.string()),
    )
    rows = GeoIPEnricher(cfg)(pa.table({"message": col})).to_pylist()
    assert rows[0]["tgt"]["ip"] == "216.160.83.58" and rows[0]["tags"] is None
    # empty list / null list / null first element all degrade to tagged miss
    for r in rows[1:]:
        assert r["tgt"] is None
        assert r["tags"] == ["_geoip_lookup_failure"]


class TestFailureMatrix:
    """geoip_offline_spec.rb:11-85 — the three-state target/tags contract."""

    @pytest.mark.parametrize("bad", ["", "      "])
    def test_blank_source_target_unset(self, db_paths, bad):
        target, tags = enrich_one(db_paths["city"], bad)
        assert target is None
        assert tags == FAILURE_TAG

    def test_null_source_target_unset(self, db_paths):
        cfg = GeoIPConfig(source="message", database=db_paths["city"])
        out = GeoIPEnricher(cfg)(pa.table({"message": pa.array([None], type=pa.string())}))
        row = out.to_pylist()[0]
        assert row["geoip"] is None
        assert row["tags"] == FAILURE_TAG

    @pytest.mark.parametrize("bad", ["-", "N/A", "123.45.67.89,61.160.232.222"])
    def test_malformed_ip_empty_target(self, db_paths, bad):
        target, tags = enrich_one(db_paths["city"], bad)
        assert target is not None  # attempted → empty map, not unset
        assert all(v is None for v in target.values())
        assert tags == FAILURE_TAG

    @pytest.mark.parametrize("ip", ["0.0.0.0", "::1"])
    def test_not_found_empty_target(self, db_paths, ip):
        target, tags = enrich_one(db_paths["city"], ip)
        assert target is not None
        assert all(v is None for v in target.values())
        assert tags == FAILURE_TAG

    def test_city_without_coordinates_is_failure(self, db_paths):
        """geoip_offline_spec.rb:44-49 + GeoIPFilter.java:251-255 early abort."""
        target, tags = enrich_one(db_paths["city"], "127.0.0.1")
        assert target is not None
        assert all(v is None for v in target.values())
        assert tags == FAILURE_TAG

    def test_existing_tags_are_appended(self, db_paths):
        cfg = GeoIPConfig(source="message", database=db_paths["city"])
        table = pa.table(
            {
                "message": ["N/A", "216.160.83.58"],
                "tags": pa.array([["pre"], None], type=pa.list_(pa.string())),
            }
        )
        rows = GeoIPEnricher(cfg)(table).to_pylist()
        assert rows[0]["tags"] == ["pre", "_geoip_lookup_failure"]
        assert rows[1]["tags"] is None

    def test_null_typed_tags_column(self, db_paths):
        """An all-null ``tags`` column read from parquet infers as pa.null()
        (no list kernel exists for it) — must behave exactly like absent
        tags: failure rows get the tag list, success rows stay null."""
        cfg = GeoIPConfig(source="message", database=db_paths["city"])
        table = pa.table(
            {
                "message": ["N/A", "216.160.83.58"],
                "tags": pa.nulls(2),
            }
        )
        rows = GeoIPEnricher(cfg)(table).to_pylist()
        assert rows[0]["tags"] == ["_geoip_lookup_failure"]
        assert rows[1]["tags"] is None

    def test_custom_tag_on_failure(self, db_paths):
        cfg = GeoIPConfig(
            source="message", database=db_paths["city"], tag_on_failure=("t1", "t2")
        )
        rows = GeoIPEnricher(cfg)(pa.table({"message": ["N/A"]})).to_pylist()
        assert rows[0]["tags"] == ["t1", "t2"]


def test_corrupt_database_build_error(tmp_path):
    """geoip_offline_spec.rb:103-119 error message parity."""
    bad = tmp_path / "bad.mmdb"
    bad.write_bytes(b"junk" * 50)
    cfg = GeoIPConfig(source="message", database=str(bad))
    with pytest.raises(ValueError, match="The database provided is invalid or corrupted."):
        GeoIPLookup(cfg)


def test_append_tags_vectorized_matches_python_semantics():
    """append_tags offset/take arithmetic vs the obvious per-row reference."""
    import numpy as np

    from logstash_filter_geoip_ray.stages.enrich import append_tags

    existing = pa.array(
        [["keep"], None, [], ["a", "b"], None, ["x"]], type=pa.list_(pa.string())
    )
    failure = np.array([True, True, True, False, False, True])
    tags = ["_f1", "_f2"]
    out = append_tags(existing, failure, tags, 6).to_pylist()
    ref = [
        ((t or []) + tags) if f else t
        for t, f in zip(existing.to_pylist(), failure)
    ]
    assert out == ref
    # no pre-existing column fast path
    out2 = append_tags(None, failure, ["_t"], 6).to_pylist()
    assert out2 == [["_t"] if f else None for f in failure]
    # empty tag list: failure rows become empty (not null), like (t or []) + []
    out3 = append_tags(existing, failure, [], 6).to_pylist()
    assert out3 == [((t or []) if f else t) for t, f in zip(existing.to_pylist(), failure)]


def test_non_string_source_type_error(db_paths):
    """GeoIPFilter.java:159-162 parity: numeric source field raises with the
    reference's message instead of an opaque Arrow kernel error."""
    cfg = GeoIPConfig(source="message", database=db_paths["city"])
    with pytest.raises(TypeError, match="Expected input field value to be String or List type"):
        GeoIPEnricher(cfg)(pa.table({"message": pa.array([123, 456], type=pa.int64())}))
    # all-null (type-less) column is the `input == null` skip path (tagged
    # failure, target unset), not an error
    out = GeoIPEnricher(cfg)(pa.table({"message": pa.nulls(2)})).to_pylist()
    assert out[0]["geoip"] is None and out[0]["tags"] == ["_geoip_lookup_failure"]


def test_unknown_database_type_build_error(tmp_path):
    """GeoIPFilter.java:194-196 parity: an unrecognized database_type must
    fail loudly (at construction here, vs per-event in the reference), never
    silently tag-fail every row."""
    from logstash_filter_geoip_ray.state.mmdb_writer import build_mmdb

    db = str(tmp_path / "odd.mmdb")
    build_mmdb([("10.0.0.0/8", {"x": 1})], db, database_type="Frobnicator-DB")
    cfg = GeoIPConfig(source="message", database=db)
    with pytest.raises(ValueError, match="Unsupported database type Frobnicator-DB"):
        GeoIPLookup(cfg)


def test_hostname_resolution_opt_in(db_paths):
    """InetAddress.getByName DNS parity (GeoIPFilter.java:172): hostnames
    resolve when resolve_hostnames=True (injectable resolver; first answer
    wins), stay failed lookups when off (the documented default)."""
    import ipaddress

    from logstash_filter_geoip_ray.functions.iputil import set_hostname_resolver

    fake_dns = {"geo.example.test": ipaddress.ip_address("216.160.83.58")}
    set_hostname_resolver(lambda name: fake_dns.get(name))
    try:
        cfg_on = GeoIPConfig(
            source="message", database=db_paths["city"], resolve_hostnames=True
        )
        rows = GeoIPEnricher(cfg_on)(
            pa.table({"message": ["geo.example.test", "nxdomain.example.test"]})
        ).to_pylist()
        assert rows[0]["geoip"]["city_name"] == "Milton"
        assert rows[0]["tags"] is None
        assert rows[1]["tags"] == ["_geoip_lookup_failure"]

        cfg_off = GeoIPConfig(source="message", database=db_paths["city"])
        rows = GeoIPEnricher(cfg_off)(
            pa.table({"message": ["geo.example.test"]})
        ).to_pylist()
        assert rows[0]["tags"] == ["_geoip_lookup_failure"]
    finally:
        set_hostname_resolver(None)


def test_reference_defaults_preset_resolves_hostnames(db_paths):
    """`GeoIPConfig(reference_defaults=True)` restores the reference plugin's
    unconditional hostname resolution (GeoIPFilter.java:172) with no explicit
    resolve_hostnames opt-in — the one-switch migration preset."""
    import ipaddress

    from logstash_filter_geoip_ray.functions.iputil import set_hostname_resolver

    fake_dns = {"geo.example.test": ipaddress.ip_address("216.160.83.58")}
    set_hostname_resolver(lambda name: fake_dns.get(name))
    try:
        cfg = GeoIPConfig(
            source="message", database=db_paths["city"], reference_defaults=True
        )
        assert cfg.resolve_hostnames is True
        rows = GeoIPEnricher(cfg)(
            pa.table({"message": ["geo.example.test"]})
        ).to_pylist()
        assert rows[0]["geoip"]["city_name"] == "Milton"
        assert rows[0]["tags"] is None
    finally:
        set_hostname_resolver(None)


def test_reference_defaults_unknown_db_per_event_timing(tmp_path):
    """Under the parity preset an unrecognized database_type no longer fails
    at build: GeoIPFilter.java:194-196 throws IllegalStateException PER EVENT
    at lookup, so the preset defers the same message to the first attempted
    lookup. Blank/null sources never reach the lookup (handleEvent returns
    before the switch), so an all-miss batch still passes — exactly the
    reference's observable behavior."""
    from logstash_filter_geoip_ray.state.mmdb_writer import build_mmdb

    db = str(tmp_path / "odd.mmdb")
    build_mmdb([("10.0.0.0/8", {"x": 1})], db, database_type="Frobnicator-DB")
    cfg = GeoIPConfig(source="message", database=db, reference_defaults=True)
    enricher = GeoIPEnricher(cfg)  # build succeeds (reference parity)
    # no lookup attempted → no throw (null/blank short-circuit)
    rows = enricher(pa.table({"message": pa.array([None, "  "], type=pa.string())})).to_pylist()
    assert all(r["tags"] == ["_geoip_lookup_failure"] for r in rows)
    # first real event → the reference's per-event error, verbatim message
    with pytest.raises(ValueError, match="Unsupported database type Frobnicator-DB"):
        enricher(pa.table({"message": ["216.160.83.58"]}))


def test_reference_defaults_empty_list_source_crashes(db_paths):
    """Under the parity preset an empty-list source reproduces the
    reference's java.util.List.get(0) IndexOutOfBounds crash
    (GeoIPFilter.java:165) instead of the engine's default tagged-miss
    degradation; a NULL list field stays the `input == null` skip path."""
    cfg = GeoIPConfig(
        source="message", database=db_paths["country"], target="tgt",
        reference_defaults=True,
    )
    ok = pa.array([["216.160.83.58"], None], type=pa.list_(pa.string()))
    rows = GeoIPEnricher(cfg)(pa.table({"message": ok})).to_pylist()
    assert rows[0]["tgt"]["country_name"] == "United States"
    assert rows[1]["tgt"] is None  # null list = skip, not crash
    bad = pa.array([["216.160.83.58"], []], type=pa.list_(pa.string()))
    with pytest.raises(IndexError, match="Index 0 out of bounds for length 0"):
        GeoIPEnricher(cfg)(pa.table({"message": bad}))


def test_db_control_expire_and_hot_swap(db_paths, tmp_path):
    """Runtime DB manager hook (geoip.rb:156-171): :expire tags everything
    `_geoip_expired_database` with no lookup; :update hot-swaps the database
    mid-run without rebuilding the stage."""
    import json
    import os

    ctl = str(tmp_path / "db_control.json")
    cfg = GeoIPConfig(
        source="message",
        database=db_paths["city"],
        db_control_path=ctl,
        db_poll_interval=0.0,
    )
    e = GeoIPEnricher(cfg)
    batch = pa.table({"message": ["216.160.83.58"]})
    assert e(batch).to_pylist()[0]["geoip"]["city_name"] == "Milton"

    with open(ctl, "w") as f:
        json.dump({"action": "expire"}, f)
    os.utime(ctl, (1, 1))
    row = e(batch).to_pylist()[0]
    assert row["tags"] == ["_geoip_expired_database"] and row.get("geoip") is None

    with open(ctl, "w") as f:
        json.dump({"action": "update", "path": db_paths["asn"]}, f)
    os.utime(ctl, (2, 2))
    row = e(batch).to_pylist()[0]
    assert row["geoip"]["asn"] == 209  # 216.160.83.58 in the ASN test DB
    assert row["tags"] is None


def test_lookup_cache_transparent(db_paths):
    cfg = GeoIPConfig(source="message", database=db_paths["city"], cache_size=2)
    lk = GeoIPLookup(cfg)
    a1 = lk.lookup("216.160.83.58")
    for ip in ("81.2.69.142", "89.160.20.112", "216.160.83.58"):
        lk.lookup(ip)
    a2 = lk.lookup("216.160.83.58")
    assert a1 == a2


def test_batch_schema_stable_across_batches(db_paths):
    cfg = GeoIPConfig(source="message", database=db_paths["city"])
    e = GeoIPEnricher(cfg)
    s1 = e(pa.table({"message": ["216.160.83.58"]})).schema
    s2 = e(pa.table({"message": ["N/A"]})).schema
    s3 = e(pa.table({"message": pa.array([None], type=pa.string())})).schema
    assert s1 == s2 == s3


def test_expired_database_tag(db_paths):
    """E18 (geoip_offline_spec.rb:87-101): expired DB → lookup skipped, target
    untouched, `_geoip_expired_database` appended."""
    cfg = GeoIPConfig(source="message", database=db_paths["city"])
    table = pa.table({"message": ["216.160.83.58"], "tags": pa.array([["pre"]], type=pa.list_(pa.string()))})
    out = GeoIPEnricher(cfg, db_expired=True)(table)
    row = out.to_pylist()[0]
    assert "geoip" not in out.column_names  # target never created
    assert row["tags"] == ["pre", "_geoip_expired_database"]


def test_default_database_type(db_paths):
    """E24/config: no `database` → vendored default per default_database_type."""
    out = GeoIPEnricher(GeoIPConfig(source="message"))(pa.table({"message": ["216.160.83.58"]}))
    assert out.to_pylist()[0]["geoip"]["city_name"] == "Milton"
    out = GeoIPEnricher(GeoIPConfig(source="message", default_database_type="ASN"))(
        pa.table({"message": ["12.81.92.1"]})
    )
    assert out.to_pylist()[0]["geoip"]["asn"] == 7018
    with pytest.raises(Exception, match="default_database_type"):
        GeoIPConfig(source="message", default_database_type="Nope")


def test_empty_batch(db_paths):
    """Zero-row batches flow through with the stable output schema."""
    cfg = GeoIPConfig(source="message", database=db_paths["city"])
    e = GeoIPEnricher(cfg)
    empty = pa.table({"message": pa.array([], type=pa.string())})
    out = e(empty)
    assert out.num_rows == 0
    assert out.schema == e(pa.table({"message": ["216.160.83.58"]})).schema


def test_target_merge_not_replace(db_paths):
    """E16 / CHANGELOG 4.0.4: enrichment merges under a pre-existing target
    without clobbering its other content; failed/unattempted rows keep the
    existing target untouched."""
    cfg = GeoIPConfig(source="message", database=db_paths["city"])
    pre = pa.struct([("custom_note", pa.string()), ("city_name", pa.string())])
    batch = pa.table(
        {
            "message": ["216.160.83.58", "N/A", None],
            "geoip": pa.array(
                [
                    {"custom_note": "keep1", "city_name": "Old1"},
                    {"custom_note": "keep2", "city_name": "Old2"},
                    {"custom_note": "keep3", "city_name": "Old3"},
                ],
                type=pre,
            ),
        }
    )
    rows = GeoIPEnricher(cfg)(batch).to_pylist()
    ok, failed, unattempted = rows
    assert ok["geoip"]["custom_note"] == "keep1"       # carried
    assert ok["geoip"]["city_name"] == "Milton"        # overwritten on success
    assert ok["geoip"]["country_code2"] == "US"        # added
    assert failed["geoip"]["city_name"] == "Old2"      # untouched on failure
    assert failed["geoip"]["custom_note"] == "keep2"
    assert unattempted["geoip"]["city_name"] == "Old3"  # target never unset


@pytest.mark.parametrize("key", ["city_lite", "country_lite"])
def test_geolite2_variants(db_paths, key):
    """GeoLite2-City/Country test DBs flow through the same detection and
    projection paths as the GeoIP2 variants."""
    target, tags = enrich_one(db_paths[key], "89.160.20.128")
    if key == "city_lite":
        assert target["country_code2"] == "SE"
        assert target["city_name"] == "Linköping"
        assert tags is None
    else:
        assert target["country_code2"] == "SE"
        assert target["country_name"] == "Sweden"
        assert tags is None


def test_ecs_v8_alias(db_paths):
    """ecs_compatibility v8 behaves as v1 (GeoIPFilter.java:77-79)."""
    t_v8, tags = enrich_one(db_paths["city"], "216.160.83.58", ecs=False,
                            source_values=None, target=None)
    cfg8 = GeoIPConfig(source="message", database=db_paths["city"],
                       ecs_compatibility="v8", target="tgt")
    cfg1 = GeoIPConfig(source="message", database=db_paths["city"],
                       ecs_compatibility="v1", target="tgt")
    t = pa.table({"message": ["216.160.83.58"]})
    r8 = GeoIPEnricher(cfg8)(t).to_pylist()[0]
    r1 = GeoIPEnricher(cfg1)(t).to_pylist()[0]
    assert r8 == r1
    assert r8["tgt"]["geo"]["region_iso_code"] == "US-WA"


def test_target_merge_nested_ecs(db_paths):
    """E16 merge recurses into nested ECS structs: pre-existing geo children
    survive, computed children overwrite only when produced."""
    cfg = GeoIPConfig(source="message", database=db_paths["city"],
                      ecs_compatibility="v1", target="client")
    pre = pa.struct([("geo", pa.struct([("note", pa.string())])), ("extra", pa.string())])
    batch = pa.table(
        {
            "message": ["216.160.83.58", "N/A"],
            "client": pa.array(
                [{"geo": {"note": "gkeep"}, "extra": "e1"},
                 {"geo": {"note": "gkeep2"}, "extra": "e2"}],
                type=pre,
            ),
        }
    )
    rows = GeoIPEnricher(cfg)(batch).to_pylist()
    ok, failed = rows
    assert ok["client"]["extra"] == "e1"
    assert ok["client"]["geo"]["note"] == "gkeep"          # nested carried
    assert ok["client"]["geo"]["city_name"] == "Milton"    # nested added
    assert failed["client"]["extra"] == "e2"
    assert failed["client"]["geo"]["note"] == "gkeep2"     # untouched on failure


# ---------------------------------------------------------------------------
# Batch path vs scalar lookup: the IPv4 tree walk must give, row for row,
# what GeoIPLookup._lookup_uncached gives each source string.
# ---------------------------------------------------------------------------

#: strings the IPv4 regex must reject, so they take the scalar fallback
FALLBACK_STRINGS = ["01.2.3.4", " 1.2.3.4", "1.2.3.4 ", "1.2.3", "256.1.1.1",
                    "١.٢.٣.٤", "::ffff:1.2.3.4"]
#: edges, E22-corrupt (216.160.83.60), E5 City abort (2.3.3.1, 214.1.1.1),
#: ASN and Enterprise networks (12.81.92.1, 74.209.24.1)
PINNED = FALLBACK_STRINGS + [
    "0.0.0.0", "255.255.255.255", "216.160.83.60", "2.3.3.1", "214.1.1.1",
    "12.81.92.1", "74.209.24.1", "216.160.83.58", "1.128.0.1", "81.2.69.1",
    "1.2.0.1", "::1", "2a02:d5c0::", "2001:db8::1",
]
ALL_FIELDS = tuple(f.name.lower() for f in Field)


def _built_entries():
    """City/Enterprise-shaped records on nested IPv4 networks (plus edges
    and one IPv6 network): valid, no coordinates (E5) and a uint16
    geoname_id (E22)."""
    def rec(i):
        return {
            "city": {"geoname_id": U32(i + 1), "names": {"en": "City%d" % i}},
            "continent": {"code": "EU", "geoname_id": U32(6255148), "names": {"en": "Europe"}},
            "country": {"geoname_id": U32(100 + i % 7), "iso_code": "C%d" % (i % 7),
                        "names": {"en": "Country%d" % (i % 7)}},
            "location": {"latitude": float(i) / 3, "longitude": -float(i) / 7,
                         "time_zone": "Zone/%d" % i, "metro_code": i},
            "subdivisions": [{"geoname_id": U32(7), "iso_code": "S%d" % i,
                              "names": {"en": "Sub%d" % i}}],
            "traits": {"autonomous_system_number": U32(64500 + i),
                       "autonomous_system_organization": "AS%d" % i,
                       "is_anonymous": i % 2 == 0},
        }
    entries = [("0.0.0.0/16", rec(0)), ("255.255.255.255/32", rec(1)),
               ("2001:db8::/32", rec(2))]
    for i in range(3, 40):
        entries.append(("%d.%d.0.0/%d" % (11 + 5 * i, i, 8 + i % 9), rec(i)))
        entries.append(("%d.%d.%d.0/24" % (11 + 5 * i, i, i), rec(i + 40)))
        entries.append(("%d.%d.%d.%d/32" % (11 + 5 * i, i, i, i), rec(i + 80)))
    entries.append(("2.3.3.0/24", {"continent": {"code": "EU"}}))  # E5
    entries.append(("216.160.83.60/32", dict(rec(9), city={"geoname_id": 5})))  # E22
    return entries


def _repack(src: str, dst: str, record_size: int) -> str:
    """Rewrite a 32-bit ``build_mmdb`` file with 24- or 28-bit records."""
    with MMDBReader(src) as r:
        records = [(r._read_record(i, 0), r._read_record(i, 1)) for i in range(r.node_count)]
        buf = bytes(r._mmap)
        rest = buf[r._tree_size:buf.rfind(METADATA_MARKER)]  # separator + data
        metadata = dict(r.metadata, record_size=record_size)
    tree = bytearray()
    for left, right in records:
        if record_size == 24:
            tree += left.to_bytes(3, "big") + right.to_bytes(3, "big")
        else:  # 28 bits: the middle byte holds both high nibbles
            tree += (left & 0xFFFFFF).to_bytes(3, "big")
            tree.append(((left >> 24) << 4) | (right >> 24))
            tree += (right & 0xFFFFFF).to_bytes(3, "big")
    with open(dst, "wb") as f:
        f.write(bytes(tree) + rest + METADATA_MARKER + _encode_value(metadata))
    return dst


@pytest.fixture(scope="module")
def diff_dbs(db_paths, tmp_path_factory):
    d = tmp_path_factory.mktemp("diffdb")
    paths = dict(db_paths)
    for db_type in ("GeoIP2-City", "GeoIP2-Enterprise"):
        key = db_type.split("-")[1].lower()
        paths["built32_" + key] = build_mmdb(_built_entries(), str(d / (key + "32.mmdb")),
                                             database_type=db_type)
        paths["built24_" + key] = _repack(paths["built32_" + key], str(d / (key + "24.mmdb")), 24)
    paths["built28_city"] = _repack(paths["built32_city"], str(d / "city28.mmdb"), 28)
    return paths


_ENRICHERS: dict = {}


def _differential_enricher(path, fields, ecs):
    key = (path, fields, ecs)
    if key not in _ENRICHERS:
        cfg = GeoIPConfig(source="message", database=path, fields=fields,
                          ecs_compatibility="v1" if ecs else "disabled", target="out")
        enricher = GeoIPEnricher(cfg)
        enricher._ensure_open()
        with MMDBReader(path) as r:
            nets = [n for n, _ in r.networks()]
        _ENRICHERS[key] = (enricher, nets)
    return _ENRICHERS[key]


def _scalar_row(lookup, leaves, raw):
    """(target, tags) that the scalar lookup gives one source string."""
    attempted = raw is not None and pc.utf8_trim_whitespace(pa.scalar(raw)).as_py() != ""
    if not attempted:
        return None, FAILURE_TAG
    ok, values = lookup._lookup_uncached(raw)
    target: dict = {}
    for path, field in leaves:
        value = _leaf_value(field, path, values) if ok else None
        node = target
        for frag in path[:-1]:
            node = node.setdefault(frag, {})
        if value is not None or path[-1] not in node:
            node[path[-1]] = value  # a later non-null contributor wins

    def prune(node):  # a nested struct with no value below it is null
        if not isinstance(node, dict):
            return node
        node = {k: prune(v) for k, v in node.items()}
        return node if any(v is not None for v in node.values()) else None

    return {k: prune(v) for k, v in target.items()}, None if ok else FAILURE_TAG


def _v4(a: int) -> str:
    return str(ipaddress.IPv4Address(a))


@pytest.mark.parametrize("ecs", [False, True])
@pytest.mark.parametrize("fields", [None, ALL_FIELDS], ids=["default", "all"])
@pytest.mark.parametrize("db_key", [
    "city", "city_lite", "country", "country_lite", "asn", "isp", "domain",
    "enterprise", "anonymous", "built32_city", "built24_city", "built28_city",
    "built32_enterprise", "built24_enterprise",
])
@settings(max_examples=8, deadline=None)
@given(data=st.data())
def test_batch_path_matches_scalar_lookup(diff_dbs, db_key, fields, ecs, data):
    enricher, nets = _differential_enricher(diff_dbs[db_key], fields, ecs)
    inside = st.sampled_from(nets).flatmap(
        lambda n: st.integers(int(n.network_address), int(n.broadcast_address))
    ).map(_v4)
    values = PINNED + data.draw(st.lists(st.one_of(
        inside, inside.map(lambda s: "::ffff:" + s), st.integers(0, 2**32 - 1).map(_v4),
        st.text(max_size=12), st.none(),
    ), max_size=40))
    rows = enricher(pa.table({"message": pa.array(values, type=pa.string())})).to_pylist()
    lookup = enricher._lookup
    leaves = output_leaves(lookup.effective, ecs)
    for raw, row in zip(values, rows):
        assert (row["out"], row["tags"]) == _scalar_row(lookup, leaves, raw), raw


def test_kernel_and_fallback_row_counters(db_paths):
    """All-IPv4 batches never reach the scalar fallback; a mixed batch
    sends exactly its attempted non-IPv4 rows there."""
    enricher = GeoIPEnricher(GeoIPConfig(source="message", database=db_paths["city"]))
    enricher(pa.table({"message": ["216.160.83.58", "0.0.0.0", "216.160.83.58", "1.2.3.4"]}))
    assert (enricher.kernel_rows, enricher.fallback_rows) == (4, 0)
    mixed = ["216.160.83.58", "::ffff:216.160.83.58", "2a02:d5c0::", "N/A", None, "",
             " 1.2.3.4", "01.2.3.4", "81.2.69.142", "N/A"]
    enricher(pa.table({"message": pa.array(mixed, type=pa.string())}))
    assert (enricher.kernel_rows, enricher.fallback_rows) == (4 + 2, 6)
