"""Pure-Python MMDB reader conformance: decode vectors from all 9 MaxMind
public test DBs (the reference's conformance corpus,
``/root/reference/src/test/resources/maxmind-test-data/``)."""

import pytest

from logstash_filter_geoip_ray.state.mmdb import (
    InvalidDatabaseError,
    MMDBReader,
    is_database_valid,
)


def test_metadata_all_nine(db_paths):
    expected_types = {
        "city": "GeoIP2-City",
        "city_lite": "GeoLite2-City",
        "country": "GeoIP2-Country",
        "country_lite": "GeoLite2-Country",
        "asn": "GeoLite2-ASN",
        "isp": "GeoIP2-ISP",
        "domain": "GeoIP2-Domain",
        "enterprise": "GeoIP2-Enterprise",
        "anonymous": "GeoIP2-Anonymous-IP",
    }
    for key, expected in expected_types.items():
        with MMDBReader(db_paths[key]) as r:
            assert r.database_type == expected
            assert r.ip_version == 6
            assert r.node_count > 0


def test_city_milton_record(db_paths):
    with MMDBReader(db_paths["city"]) as r:
        rec, plen = r.get("216.160.83.58")
        assert rec["city"]["names"]["en"] == "Milton"
        assert rec["country"]["iso_code"] == "US"
        assert rec["location"]["latitude"] == 47.2513
        assert rec["location"]["longitude"] == -122.3149
        assert rec["location"]["metro_code"] == 819
        assert rec["postal"]["code"] == "98354"
        assert rec["subdivisions"][-1]["iso_code"] == "WA"
        assert rec["location"]["time_zone"] == "America/Los_Angeles"


def test_asn_prefix_network(db_paths):
    with MMDBReader(db_paths["asn"]) as r:
        rec, plen = r.get("12.81.92.1")
        assert rec["autonomous_system_number"] == 7018
        assert rec["autonomous_system_organization"] == "AT&T Services"
        # 118 tree bits - 96 IPv4 offset = /22 → Network "12.81.92.0/22"
        assert plen - 96 == 22


def test_ipv6_lookup(db_paths):
    with MMDBReader(db_paths["country"]) as r:
        rec, _ = r.get("2a02:d5c0::")
        assert rec["country"]["iso_code"] == "ES"
        assert rec["continent"]["names"]["en"] == "Europe"


def test_not_found(db_paths):
    with MMDBReader(db_paths["country"]) as r:
        rec, _ = r.get("0.0.0.0")
        assert rec is None
        rec, _ = r.get("::1")
        assert rec is None


def test_domain(db_paths):
    with MMDBReader(db_paths["domain"]) as r:
        rec, _ = r.get("1.2.0.1")
        assert rec["domain"] == "maxmind.com"


def test_anonymous_traits(db_paths):
    with MMDBReader(db_paths["anonymous"]) as r:
        rec, _ = r.get("81.2.69.1")
        assert rec["is_anonymous"] is True
        assert rec["is_tor_exit_node"] is True


def test_decode_cache_hits(db_paths):
    r = MMDBReader(db_paths["city"])
    rec1, _ = r.get("216.160.83.58")
    rec2, _ = r.get("216.160.83.59")  # same /31-ish network record
    assert rec1 is rec2 or rec1 == rec2
    r.close()


def test_corrupt_file(tmp_path):
    """geoip_offline_spec.rb:103-119: a corrupt DB file must be rejected."""
    bad = tmp_path / "bad.mmdb"
    bad.write_bytes(b"\x00" * 100)
    with pytest.raises(InvalidDatabaseError):
        MMDBReader(str(bad))
    assert not is_database_valid(str(bad))


def test_missing_file(tmp_path):
    with pytest.raises(FileNotFoundError):
        MMDBReader(str(tmp_path / "nope.mmdb"))
    assert not is_database_valid(str(tmp_path / "nope.mmdb"))


def test_valid_files(db_paths):
    for path in db_paths.values():
        assert is_database_valid(path)


def test_ipv4_batch_walk_matches_get(db_paths):
    """The vectorized walk lands on the record ``get`` decodes, with the
    same prefix length, for addresses inside, at the edges of and outside
    every IPv4 network of the 28-bit fixtures."""
    import ipaddress

    import numpy as np

    from logstash_filter_geoip_ray.state.mmdb import NOT_FOUND

    rng = np.random.default_rng(7)
    for path in db_paths.values():
        with MMDBReader(path) as r:
            addrs = [0, 2**32 - 1] + rng.integers(0, 2**32, 200).tolist()
            for net, _ in r.networks():
                first = int(net.network_address)
                addrs += [first, first + net.num_addresses - 1, max(0, first - 1)]
            offsets, prefix = r.get_ipv4_batch(np.array(addrs, dtype=np.uint32))
            for a, off, plen in zip(addrs, offsets.tolist(), prefix.tolist()):
                rec, want_plen = r.get(ipaddress.IPv4Address(a))
                assert (None if off == NOT_FOUND else r.record_at(off)) == rec, (path, a)
                if rec is not None:
                    assert plen == want_plen, (path, a)


@pytest.mark.parametrize("record_size", [24, 28, 32])
def test_ipv4_batch_walk_record_sizes(tmp_path, record_size):
    """Hand-packed one-node IPv4 trees: both records are data pointers with
    every bit of the record width in use (the 28-bit high nibbles too)."""
    import numpy as np

    from logstash_filter_geoip_ray.state.mmdb import METADATA_MARKER
    from logstash_filter_geoip_ray.state.mmdb_writer import _encode_value

    top = 1 << record_size
    left, right = top - 0x10EDCB, top // 2 + 0x123456
    if record_size == 28:
        node = (left & 0xFFFFFF).to_bytes(3, "big") + bytes([((left >> 24) << 4) | (right >> 24)]) \
            + (right & 0xFFFFFF).to_bytes(3, "big")
    else:
        node = left.to_bytes(record_size // 8, "big") + right.to_bytes(record_size // 8, "big")
    meta = {"node_count": 1, "record_size": record_size, "ip_version": 4,
            "database_type": "Test", "binary_format_major_version": 2}
    path = tmp_path / "t.mmdb"
    path.write_bytes(node + b"\x00" * 16 + METADATA_MARKER + _encode_value(meta))
    with MMDBReader(str(path)) as r:
        assert (r._read_record(0, 0), r._read_record(0, 1)) == (left, right)
        offsets, prefix = r.get_ipv4_batch(np.array([0x7FFFFFFF, 0x80000000], dtype=np.uint32))
        assert offsets.tolist() == [left - 17, right - 17]
        assert prefix.tolist() == [1, 1]
