"""Seeded fixtures for the benchmark: a synthetic City-shaped MMDB and
transcript shards, each with the generator's own per-row truth.

Everything is built in this one process (no worker pool) from numpy's
seeded generator, so the same seed and sizes always give the same bytes.
Each fixture is published atomically into ``perfbench/.cache/`` under a
name keyed by seed, sizes and ``GENERATOR_VERSION``; a later run with the
same key reuses it.

The database is the "world": it is keyed by ``DB_SEED`` and its sizes, not
by the run's ``--seed``, because compiling 10^5 networks with the
pure-Python ``build_mmdb`` takes tens of seconds and every seed of a
workload must look up against the same world for their figures to be
comparable. Traffic (addresses drawn, token classes, text, tools) comes
from ``--seed``.

Rebuild every fixture from scratch with::

    rm -rf perfbench/.cache && python3 perfbench/run.py --fixtures-only --seed 1
"""

from __future__ import annotations

import dataclasses
import os
import shutil
from pathlib import Path
from typing import Dict, Optional

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

GENERATOR_VERSION = "3"
CACHE = Path(__file__).resolve().parent / ".cache"

DB_SEED = 20_240_101
DB_NETWORKS = 100_000
CITIES_PER_COUNTRY = 64
TURNS_PER_CONV = 16

#: (iso_code, name, continent code, continent name, time zone, lat, lon)
COUNTRIES = (
    ("US", "United States", "NA", "North America", "America/Chicago", 39.8, -98.6),
    ("CN", "China", "AS", "Asia", "Asia/Shanghai", 35.0, 103.0),
    ("DE", "Germany", "EU", "Europe", "Europe/Berlin", 51.2, 10.4),
    ("JP", "Japan", "AS", "Asia", "Asia/Tokyo", 36.2, 138.3),
    ("GB", "United Kingdom", "EU", "Europe", "Europe/London", 54.0, -2.0),
    ("FR", "France", "EU", "Europe", "Europe/Paris", 46.2, 2.2),
    ("BR", "Brazil", "SA", "South America", "America/Sao_Paulo", -14.2, -51.9),
    ("IN", "India", "AS", "Asia", "Asia/Kolkata", 20.6, 79.0),
    ("KR", "South Korea", "AS", "Asia", "Asia/Seoul", 36.5, 127.8),
    ("CA", "Canada", "NA", "North America", "America/Toronto", 56.1, -106.3),
    ("IT", "Italy", "EU", "Europe", "Europe/Rome", 41.9, 12.6),
    ("RU", "Russia", "EU", "Europe", "Europe/Moscow", 61.5, 105.3),
    ("AU", "Australia", "OC", "Oceania", "Australia/Sydney", -25.3, 133.8),
    ("NL", "Netherlands", "EU", "Europe", "Europe/Amsterdam", 52.1, 5.3),
    ("ES", "Spain", "EU", "Europe", "Europe/Madrid", 40.5, -3.7),
    ("MX", "Mexico", "NA", "North America", "America/Mexico_City", 23.6, -102.6),
    ("SE", "Sweden", "EU", "Europe", "Europe/Stockholm", 60.1, 18.6),
    ("PL", "Poland", "EU", "Europe", "Europe/Warsaw", 51.9, 19.1),
    ("TW", "Taiwan", "AS", "Asia", "Asia/Taipei", 23.7, 121.0),
    ("ZA", "South Africa", "AF", "Africa", "Africa/Johannesburg", -30.6, 22.9),
)
CONTINENT_IDS = {"AF": 6255146, "AS": 6255147, "EU": 6255148, "NA": 6255149,
                 "OC": 6255151, "SA": 6255150}

TOOLS = ("bash", "browser", "search", "editor", "none")
ROLES = ("user", "assistant", "system", "tool")
MISS_KEY = "_miss"
#: tokens the extractor captures but that never parse as an address
MALFORMED_TOKENS = ("-", "N/A", "123.45.67.89,61.160.232.222", "999.1.2.3")
#: parseable addresses outside every database network (0/8, 10/8, 127/8
#: and IPv6 are never allocated by the generator)
FIXED_MISS_TOKENS = ("0.0.0.0", "127.0.0.1", "::1", "10.1.2.3", "10.200.0.9")
#: token class shares: hit, miss, malformed, no IP at all
CLASS_SHARES = (0.70, 0.08, 0.06, 0.16)
HIT, MISS, MALFORMED, NONE = range(4)


def _world_key(networks: int) -> str:
    return "db-v%s-s%d-n%d-c%d" % (GENERATOR_VERSION, DB_SEED, networks, CITIES_PER_COUNTRY)


def _traffic_key(networks: int, spec: "TrafficSpec", seed: int, label: str) -> str:
    return "tx-v%s-%s-s%d-r%d-k%d-p%s-db%d" % (
        GENERATOR_VERSION, label, seed, spec.rows, spec.shards, spec.hot_pool or "all",
        networks)


def published(networks: int, spec: "TrafficSpec", seed: int, label: str) -> bool:
    """Whether the database and this traffic are both in the cache."""
    return all((CACHE / k / "_SUCCESS").exists() for k in (
        _world_key(networks), _traffic_key(networks, spec, seed, label)))


def _publish(key: str, build) -> Path:
    """Build into a private temporary directory, then rename it into place.
    A concurrent run building the same key loses the rename and uses the
    winner's copy, which has the same bytes."""
    dest = CACHE / key
    if (dest / "_SUCCESS").exists():
        return dest
    CACHE.mkdir(parents=True, exist_ok=True)
    tmp = CACHE / ("%s.tmp-%d" % (key, os.getpid()))
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir()
    try:
        build(tmp)
        (tmp / "_SUCCESS").write_text("ok\n")
        try:
            os.rename(tmp, dest)
        except OSError:
            if not (dest / "_SUCCESS").exists():
                raise
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return dest


# ---------------------------------------------------------------------------
# database
# ---------------------------------------------------------------------------


@dataclasses.dataclass
class World:
    """The synthetic database and its truth tables."""

    path: str
    net_base: np.ndarray      # uint32 network address per network
    net_prefix: np.ndarray    # prefix length per network
    net_city: np.ndarray      # global city index per network
    city_country: np.ndarray  # country index per city
    city_names: np.ndarray    # object array of city names

    @property
    def net_country(self) -> np.ndarray:
        return self.city_country[self.net_city]


def _city_record(ci: int, city: int, rng_lat: float, rng_lon: float) -> dict:
    iso, name, cont, cont_name, tz, lat, lon = COUNTRIES[ci]
    country = {"geoname_id": 2_000_000 + ci, "iso_code": iso, "names": {"en": name}}
    region = city % 8
    return {
        "city": {"geoname_id": 3_000_000 + ci * CITIES_PER_COUNTRY + city,
                 "names": {"en": "%s City %03d" % (iso, city)}},
        "continent": {"code": cont, "geoname_id": CONTINENT_IDS[cont],
                      "names": {"en": cont_name}},
        "country": country,
        "location": {"accuracy_radius": 20 + city % 200,
                     "latitude": round(lat + rng_lat, 4),
                     "longitude": round(lon + rng_lon, 4),
                     "time_zone": tz},
        "postal": {"code": "%s-%04d" % (iso, city)},
        "registered_country": country,
        "subdivisions": [{"geoname_id": 4_000_000 + ci * 8 + region,
                          "iso_code": "R%d" % region,
                          "names": {"en": "%s Region %d" % (iso, region)}}],
    }


def _world_arrays(networks: int):
    rng = np.random.default_rng(DB_SEED)
    # one network per distinct /20 block; blocks in 0/8, 10/8, 127/8 and
    # 224/3 are never used, which leaves them for guaranteed misses
    blocks = np.arange(1 << 12, 224 << 12, dtype=np.int64)
    keep = ~(((blocks >> 12) == 10) | ((blocks >> 12) == 127))
    chosen = np.sort(rng.choice(blocks[keep], size=networks, replace=False))
    net_base = (chosen << 12).astype(np.uint32)
    net_prefix = rng.choice(np.array([20, 21, 22, 23, 24, 24, 24, 25, 26, 28]),
                            size=networks).astype(np.int8)
    nc = len(COUNTRIES)
    # mild skew across countries, uniform across a country's cities
    cw = 1.0 / np.sqrt(np.arange(1, nc + 1))
    country = rng.choice(nc, size=networks, p=cw / cw.sum())
    net_city = country * CITIES_PER_COUNTRY + rng.integers(0, CITIES_PER_COUNTRY, size=networks)
    city_country = np.repeat(np.arange(nc), CITIES_PER_COUNTRY)
    offsets = rng.uniform(-3.0, 3.0, size=(nc * CITIES_PER_COUNTRY, 2))
    return net_base, net_prefix, net_city, city_country, offsets


def world(networks: int = DB_NETWORKS) -> World:
    """The synthetic City database (built once per checkout and size)."""
    net_base, net_prefix, net_city, city_country, offsets = _world_arrays(networks)
    names = np.array(
        ["%s City %03d" % (COUNTRIES[c][0], i % CITIES_PER_COUNTRY)
         for i, c in enumerate(city_country)], dtype=object)

    def build(tmp: Path) -> None:
        from logstash_filter_geoip_ray.state.mmdb_writer import build_mmdb

        records = [
            _city_record(int(city_country[g]), g % CITIES_PER_COUNTRY,
                         float(offsets[g, 0]), float(offsets[g, 1]))
            for g in range(len(city_country))
        ]
        entries = (
            ("%d.%d.%d.%d/%d" % (b >> 24, (b >> 16) & 255, (b >> 8) & 255, b & 255, p),
             records[c])
            for b, p, c in zip(net_base.tolist(), net_prefix.tolist(), net_city.tolist())
        )
        build_mmdb(entries, str(tmp / "city.mmdb"), database_type="GeoIP2-City",
                   description="synthetic benchmark world")

    d = _publish(_world_key(networks), build)
    return World(str(d / "city.mmdb"), net_base, net_prefix, net_city,
                 city_country, names)


# ---------------------------------------------------------------------------
# traffic
# ---------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class TrafficSpec:
    rows: int
    shards: int
    hot_pool: Optional[int]  # None: uniform over every network


@dataclasses.dataclass
class Traffic:
    """One workload's input shards plus the generator's per-row truth.
    Row ``i`` is turn ``i % 16`` of conversation ``conv-%08d % (i // 16)``."""

    dir: str              # directory of part-*.parquet shards
    klass: np.ndarray     # token class per row (HIT/MISS/MALFORMED/NONE)
    net: np.ndarray       # network index per row, -1 unless HIT
    tool: np.ndarray      # tool index per row
    distinct_ips: int

    @property
    def rows(self) -> int:
        return len(self.klass)


def _ip_strings(addrs: np.ndarray) -> pa.Array:
    a = addrs.astype(np.int64)
    parts = [(a >> s) & 255 for s in (24, 16, 8, 0)]
    return pa.array(["%d.%d.%d.%d" % t for t in zip(*(p.tolist() for p in parts))],
                    type=pa.string())


#: text templates: prefix + token + middle + tail (no-IP rows have no token)
_PREFIX = ["request from ", "client=", "session opened; request from ",
           "assistant considered the plan and wrote notes about "]
_MIDDLE = [" via proxy path=", " status=", " ua=agent/1.", ""]
_PATHS = ["/api/v1/run", "/healthz", "/login", "/search"]
_CODES = ["200", "404", "500", "302"]
_LATENCY = ["latency=%dms" % i for i in range(3, 503)]


def _generate(w: World, spec: TrafficSpec, seed: int) -> Dict[str, object]:
    rng = np.random.default_rng((seed, spec.rows, spec.hot_pool or 0))
    n = spec.rows
    klass = rng.choice(4, size=n, p=CLASS_SHARES).astype(np.int8)
    hit, miss, bad = klass == HIT, klass == MISS, klass == MALFORMED
    nh, nm = int(hit.sum()), int(miss.sum())
    host_span = (1 << (32 - w.net_prefix.astype(np.int64)))
    if spec.hot_pool:
        # Zipf-ranked pool of addresses: the reference's hot-IP locality
        pool_net = rng.choice(len(w.net_base), size=spec.hot_pool, replace=False)
        pool_addr = w.net_base[pool_net].astype(np.int64) + rng.integers(0, host_span[pool_net])
        weights = 1.0 / np.arange(1, spec.hot_pool + 1)
        pick = rng.choice(spec.hot_pool, size=nh, p=weights / weights.sum())
        net_hit = pool_net[pick]
        hit_tok = _ip_strings(pool_addr).take(pa.array(pick))
        miss_tok = pa.array(FIXED_MISS_TOKENS).take(
            pa.array(rng.integers(0, len(FIXED_MISS_TOKENS), size=nm)))
    else:
        net_hit = rng.integers(0, len(w.net_base), size=nh)
        hit_tok = _ip_strings(w.net_base[net_hit].astype(np.int64)
                              + rng.integers(0, host_span[net_hit]))
        miss_tok = _ip_strings((10 << 24) + rng.integers(0, 1 << 24, size=nm))
    bad_tok = pa.array(MALFORMED_TOKENS).take(
        pa.array(rng.integers(0, len(MALFORMED_TOKENS), size=int(bad.sum()))))
    # scatter the three token populations back into row order
    order = np.concatenate([np.flatnonzero(hit), np.flatnonzero(miss), np.flatnonzero(bad)])
    pos = np.full(n, -1, dtype=np.int64)
    pos[order] = np.arange(len(order))
    tokens = pa.concat_arrays([hit_tok, miss_tok, bad_tok]).take(
        pa.array(pos, mask=pos < 0))
    net = np.full(n, -1, dtype=np.int64)
    net[hit] = net_hit

    template = rng.integers(0, 3, size=n)
    template[klass == NONE] = 3
    path = rng.integers(0, len(_PATHS), size=n)
    code = rng.integers(0, len(_CODES), size=n)
    lat = rng.integers(0, len(_LATENCY), size=n)
    # tail per template: path, "<code> <latency>", code, path
    tails = pa.array(_PATHS + ["%s %s" % (c, l) for c in _CODES for l in _LATENCY] + _CODES)
    tail = np.select(
        [template == 1, template == 2],
        [len(_PATHS) + code * len(_LATENCY) + lat, len(_PATHS) + len(_CODES) * len(_LATENCY) + code],
        path)
    text = pc.binary_join_element_wise(
        pa.array(_PREFIX).take(pa.array(template)),
        pc.fill_null(tokens, ""),
        pa.array(_MIDDLE).take(pa.array(template)),
        tails.take(pa.array(tail)),
        "")
    distinct = pc.count_distinct(pa.concat_arrays([hit_tok, miss_tok])).as_py()
    return {
        "klass": klass,
        "net": net,
        "tool": rng.integers(0, len(TOOLS), size=n).astype(np.int8),
        "role": rng.integers(0, len(ROLES), size=n).astype(np.int8),
        "ts_jitter": rng.integers(0, 1000, size=n),
        "text": text,
        "distinct_ips": np.array([distinct]),
    }


def traffic(w: World, spec: TrafficSpec, seed: int, label: str) -> Traffic:
    """The seeded transcript shards for one workload (cached per key)."""
    key = _traffic_key(len(w.net_base), spec, seed, label)

    def build(tmp: Path) -> None:
        g = _generate(w, spec, seed)
        n = spec.rows
        idx = np.arange(n)
        convs = pa.array(["conv-%08d" % c for c in range(-(-n // TURNS_PER_CONV))])
        table = pa.table({
            "conv_id": convs.take(pa.array(idx // TURNS_PER_CONV)),
            "turn_idx": pa.array((idx % TURNS_PER_CONV).astype(np.int32)),
            "role": pa.array(ROLES).take(pa.array(g["role"])),
            "text": g["text"],
            "tool": pa.array(TOOLS).take(pa.array(g["tool"])),
            "ts": pa.array(1_700_000_000_000_000 + idx * 1_000_000 + g["ts_jitter"],
                           type=pa.timestamp("us")),
        })
        shard_dir = tmp / "transcripts"
        shard_dir.mkdir()
        per = -(-n // spec.shards)
        for s in range(spec.shards):
            pq.write_table(table.slice(s * per, per), shard_dir / ("part-%05d.parquet" % s),
                           row_group_size=16_384)
        np.savez(tmp / "truth.npz", klass=g["klass"], net=g["net"], tool=g["tool"],
                 distinct_ips=g["distinct_ips"])

    d = _publish(key, build)
    t = np.load(d / "truth.npz")
    return Traffic(str(d / "transcripts"), t["klass"], t["net"], t["tool"],
                   int(t["distinct_ips"][0]))
