"""GeoIP enrichment — the Ray-Data-native re-creation of the reference's
core engine (``/root/reference/src/main/java/org/logstash/filters/geoip/GeoIPFilter.java``).

Architecture (SURVEY.md §1.5, §2.A): the reference enriches one event at a
time through a JRuby→Java boundary; here the same *semantics* are computed
vectorized over Arrow batches:

- ``GeoIPLookup`` is the pure-compute core — an mmap'd pure-Python MMDB
  reader + an LRU memo over raw source strings. It reproduces, per unique
  source value, the exact outcome of ``GeoIPFilter.handleEvent``:
  extraction guards (E1/E2), IP parse (E3), per-DB-type projection with
  null-omission (E5–E11), the City lat/lon early abort (E5), composite
  ``location``/``region_iso_code`` (E12/E13), strict model-type validation
  reproducing Java's DeserializationException on the fixtures' corrupt
  custom fields (E22), and the Java ``getHostAddress`` echo form.
- ``GeoIPEnricher`` is the Ray stage: a callable class used as
  ``ds.map_batches(GeoIPEnricher(cfg), batch_format="pyarrow",
  concurrency=N)``. Each actor opens the MMDB once. Each batch is
  dictionary-encoded, and its distinct source strings are resolved as a
  batch:

  - canonical IPv4 dotted quads (one Arrow regex) are parsed to uint32 and
    walked down the mmap'd search tree together with numpy
    (``MMDBReader.get_ipv4_batch``). Validation (E22), the E5 abort and the
    projection run once per distinct *record* and are memoized by its data
    offset; ``ip`` is the source string itself and ``network`` is computed
    from the address and prefix length;
  - everything else (IPv6, ``::ffff:`` and other non-canonical text,
    malformed tokens, hostnames, a deferred unsupported DB type) goes
    through ``GeoIPLookup.lookup`` and its LRU.

  Each leaf column is built once per record and expanded to rows with
  ``take`` — the batched algorithmic win the per-event reference cannot
  express. ``kernel_rows`` / ``fallback_rows`` count the rows each way.

Output encoding (three-state contract, SURVEY.md §1.5 / FIXTURES.md §4):

- source missing/empty/whitespace → target struct NULL        + failure tags
- attempted but failed lookup     → target struct valid, all-null children
                                    (the reference's "empty map")
                                  + failure tags
- success                         → populated struct, no tags
"""

from __future__ import annotations

import ipaddress
import struct
from functools import lru_cache
from typing import Any, Dict, FrozenSet, List, Optional, Tuple

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..functions.config import GeoIPConfig
from ..functions.fields import (
    DatabaseType,
    Field,
    database_from_type_string,
)
from ..functions.iputil import host_address, parse_ip, parse_ipv4_array
from ..state.mmdb import U16, UBIG, InvalidDatabaseError, MMDBReader, resolve_distinct

# ---------------------------------------------------------------------------
# Strict response-model validation (E22).
#
# The reference's maxmind-db decoder binds MMDB values to typed model
# constructor parameters: a declared parameter whose stored type mismatches
# raises DeserializationException (caught and reported as a failed lookup,
# GeoIPFilter.java:53-59, 238-242); *unknown* keys are skipped (which is why
# the Domain fixture with a stray `is_in_european_union` still succeeds,
# GeoIPFilterTest.java:284-290). We mirror the declared parameter sets of the
# geoip2 4.4.0 model classes.
# ---------------------------------------------------------------------------

_STR, _LONG, _INT, _DOUBLE, _BOOL, _NAMES = "str", "long", "int", "double", "bool", "names"

_COUNTRY_M = {
    "confidence": _INT,
    "geoname_id": _LONG,
    "is_in_european_union": _BOOL,
    "iso_code": _STR,
    "names": _NAMES,
}
_CONTINENT_M = {"code": _STR, "geoname_id": _LONG, "names": _NAMES}
_CITY_M = {"confidence": _INT, "geoname_id": _LONG, "names": _NAMES}
_LOCATION_M = {
    "accuracy_radius": _INT,
    "average_income": _INT,
    "latitude": _DOUBLE,
    "longitude": _DOUBLE,
    "metro_code": _INT,
    "population_density": _INT,
    "time_zone": _STR,
}
_POSTAL_M = {"code": _STR, "confidence": _INT}
_SUBDIVISION_M = {"confidence": _INT, "geoname_id": _LONG, "iso_code": _STR, "names": _NAMES}
_REPRESENTED_COUNTRY_M = dict(_COUNTRY_M, type=_STR)
_TRAITS_M = {
    "autonomous_system_number": _LONG,
    "autonomous_system_organization": _STR,
    "connection_type": _STR,
    "domain": _STR,
    "ip_address": _STR,
    "is_anonymous": _BOOL,
    "is_anonymous_proxy": _BOOL,
    "is_anonymous_vpn": _BOOL,
    "is_anycast": _BOOL,
    "is_hosting_provider": _BOOL,
    "is_legitimate_proxy": _BOOL,
    "is_public_proxy": _BOOL,
    "is_residential_proxy": _BOOL,
    "is_satellite_provider": _BOOL,
    "is_tor_exit_node": _BOOL,
    "isp": _STR,
    "mobile_country_code": _STR,
    "mobile_network_code": _STR,
    "organization": _STR,
    "static_ip_score": _DOUBLE,
    "user_count": _INT,
    "user_type": _STR,
}
_MAXMIND_M = {"queries_remaining": _INT}

_CITYLIKE_RESPONSE = {
    "city": _CITY_M,
    "continent": _CONTINENT_M,
    "country": _COUNTRY_M,
    "location": _LOCATION_M,
    "maxmind": _MAXMIND_M,
    "postal": _POSTAL_M,
    "registered_country": _COUNTRY_M,
    "represented_country": _REPRESENTED_COUNTRY_M,
    "subdivisions": [_SUBDIVISION_M],
    "traits": _TRAITS_M,
}
_COUNTRY_RESPONSE = {
    "continent": _CONTINENT_M,
    "country": _COUNTRY_M,
    "maxmind": _MAXMIND_M,
    "registered_country": _COUNTRY_M,
    "represented_country": _REPRESENTED_COUNTRY_M,
    "traits": _TRAITS_M,
}
_ASN_RESPONSE = {"autonomous_system_number": _LONG, "autonomous_system_organization": _STR}
_ISP_RESPONSE = dict(
    _ASN_RESPONSE,
    isp=_STR,
    organization=_STR,
    mobile_country_code=_STR,
    mobile_network_code=_STR,
)
_DOMAIN_RESPONSE = {"domain": _STR}
_ANONYMOUS_RESPONSE = {
    "is_anonymous": _BOOL,
    "is_anonymous_vpn": _BOOL,
    "is_hosting_provider": _BOOL,
    "is_public_proxy": _BOOL,
    "is_residential_proxy": _BOOL,
    "is_tor_exit_node": _BOOL,
}

_RESPONSE_MODELS = {
    DatabaseType.CITY: _CITYLIKE_RESPONSE,
    DatabaseType.COUNTRY: _COUNTRY_RESPONSE,
    DatabaseType.ASN: _ASN_RESPONSE,
    DatabaseType.ISP: _ISP_RESPONSE,
    DatabaseType.DOMAIN: _DOMAIN_RESPONSE,
    DatabaseType.ENTERPRISE: _CITYLIKE_RESPONSE,
    DatabaseType.ANONYMOUS_IP: _ANONYMOUS_RESPONSE,
}


class InvalidCustomFieldError(ValueError):
    """Python analog of GeoIp2InvalidCustomFieldException (GeoIPFilter.java:55-59)."""


def _check_scalar(value: Any, expected: str) -> bool:
    if expected == _STR:
        return isinstance(value, str)
    if expected == _BOOL:
        return isinstance(value, bool)
    if expected == _LONG:
        # Java Long accepts uint32-decoded Long only; uint16→Integer and
        # uint64→BigInteger both mismatch.
        return isinstance(value, int) and not isinstance(value, (bool, U16, UBIG))
    if expected == _INT:
        # Java Integer ← uint16 (and int32); be lenient on plain ints.
        return isinstance(value, int) and not isinstance(value, (bool, UBIG))
    if expected == _DOUBLE:
        return isinstance(value, float)
    return True


def _validate_model(record: Any, model: Any) -> None:
    """Recursively check declared keys; unknown keys are skipped."""
    if isinstance(model, dict):
        if model is _NAMES:  # pragma: no cover - _NAMES is a str sentinel
            return
        if not isinstance(record, dict):
            raise InvalidCustomFieldError(
                "The database contains invalid custom field, which caused deserialization to fail."
            )
        for key, sub in model.items():
            if key not in record:
                continue
            value = record[key]
            if isinstance(sub, (dict, list)):
                _validate_model(value, sub)
            elif sub == _NAMES:
                if not isinstance(value, dict) or any(
                    not isinstance(v, str) for v in value.values()
                ):
                    raise InvalidCustomFieldError(
                        "The database contains invalid custom field, which caused deserialization to fail."
                    )
            else:
                if not _check_scalar(value, sub):
                    raise InvalidCustomFieldError(
                        "The database contains invalid custom field, which caused deserialization to fail."
                    )
    elif isinstance(model, list):
        if not isinstance(record, list):
            raise InvalidCustomFieldError(
                "The database contains invalid custom field, which caused deserialization to fail."
            )
        for item in record:
            _validate_model(item, model[0])


# ---------------------------------------------------------------------------
# Per-DB projections (E5-E11). Each returns {Field: value} with null-valued
# fields omitted (except DOMAIN, which is put without a null guard,
# GeoIPFilter.java:486-489). Values use English names only (names.en), like
# every reference test vector.
# ---------------------------------------------------------------------------

#: which fields each projection's switch statement handles (a desired field
#: with no case in the reference's switch is silently ignored)
PROJECTION_FIELDS: Dict[DatabaseType, FrozenSet[Field]] = {
    DatabaseType.CITY: frozenset(
        {
            Field.CITY_NAME,
            Field.CONTINENT_CODE,
            Field.CONTINENT_NAME,
            Field.COUNTRY_NAME,
            Field.COUNTRY_CODE2,
            Field.COUNTRY_CODE3,
            Field.IP,
            Field.POSTAL_CODE,
            Field.DMA_CODE,
            Field.REGION_NAME,
            Field.REGION_CODE,
            Field.REGION_ISO_CODE,
            Field.TIMEZONE,
            Field.LOCATION,
            Field.LATITUDE,
            Field.LONGITUDE,
        }
    ),
    DatabaseType.COUNTRY: frozenset(
        {Field.IP, Field.COUNTRY_CODE2, Field.COUNTRY_NAME, Field.CONTINENT_NAME}
    ),
    DatabaseType.ISP: frozenset(
        {
            Field.IP,
            Field.AUTONOMOUS_SYSTEM_NUMBER,
            Field.AUTONOMOUS_SYSTEM_ORGANIZATION,
            Field.ISP,
            Field.ORGANIZATION,
        }
    ),
    DatabaseType.ASN: frozenset(
        {
            Field.IP,
            Field.AUTONOMOUS_SYSTEM_NUMBER,
            Field.AUTONOMOUS_SYSTEM_ORGANIZATION,
            Field.NETWORK,
        }
    ),
    DatabaseType.DOMAIN: frozenset({Field.DOMAIN}),
    DatabaseType.ENTERPRISE: frozenset(
        {
            Field.IP,
            Field.COUNTRY_CODE2,
            Field.COUNTRY_NAME,
            Field.CONTINENT_NAME,
            Field.REGION_ISO_CODE,
            Field.REGION_NAME,
            Field.CITY_NAME,
            Field.TIMEZONE,
            Field.LOCATION,
            Field.AUTONOMOUS_SYSTEM_NUMBER,
            Field.AUTONOMOUS_SYSTEM_ORGANIZATION,
            Field.NETWORK,
            Field.HOSTING_PROVIDER,
            Field.TOR_EXIT_NODE,
            Field.ANONYMOUS_VPN,
            Field.ANONYMOUS,
            Field.PUBLIC_PROXY,
            Field.RESIDENTIAL_PROXY,
        }
    ),
    DatabaseType.ANONYMOUS_IP: frozenset(
        {
            Field.IP,
            Field.HOSTING_PROVIDER,
            Field.TOR_EXIT_NODE,
            Field.ANONYMOUS_VPN,
            Field.ANONYMOUS,
            Field.PUBLIC_PROXY,
            Field.RESIDENTIAL_PROXY,
        }
    ),
    DatabaseType.UNKNOWN: frozenset(),
}

_TRAIT_KEYS = {
    Field.HOSTING_PROVIDER: "is_hosting_provider",
    Field.TOR_EXIT_NODE: "is_tor_exit_node",
    Field.ANONYMOUS_VPN: "is_anonymous_vpn",
    Field.ANONYMOUS: "is_anonymous",
    Field.PUBLIC_PROXY: "is_public_proxy",
    Field.RESIDENTIAL_PROXY: "is_residential_proxy",
}


def _en_name(sub: Optional[dict]) -> Optional[str]:
    if not sub:
        return None
    names = sub.get("names")
    if not names:
        return None
    return names.get("en")


def _network_string(addr, prefix_len: int, ip_version_6_tree: bool) -> str:
    """Java ``Network.toString()``: network address in getHostAddress form +
    '/' + prefix length (relative to IPv4 when an IPv4 address traversed an
    IPv6 tree, GeoIPFilter.java:465-468)."""
    if addr.version == 4 and ip_version_6_tree:
        prefix_len -= 96
    net = ipaddress.ip_network((addr, prefix_len), strict=False)
    return "%s/%d" % (host_address(net.network_address), net.prefixlen)


#: fields that depend on the looked-up address, not on its record
_ADDRESS_FIELDS = frozenset({Field.IP, Field.NETWORK})

_DECODE_ERRORS = (ValueError, IndexError, KeyError, struct.error)


def _put_if(geo: dict, field: Field, value) -> None:
    if value is not None:
        geo[field] = value


class GeoIPLookup:
    """The per-actor stateful lookup core: MMDB mmap + LRU memo.

    Mirrors one ``GeoIPFilter`` instance (reader+cache state,
    GeoIPFilter.java:62-67,87). ``lookup(raw)`` takes the raw source string
    (already guarded non-null/non-blank by the batch layer) and returns
    ``(ok, values)``: ok=False → attempted-but-failed ("empty map"), values
    None; ok=True → dict {Field: value} for the configured desired fields.
    """

    def __init__(self, config: GeoIPConfig):
        self.config = config
        try:
            self.reader = MMDBReader(config.resolved_database())
        except InvalidDatabaseError:
            raise ValueError("The database provided is invalid or corrupted.") from None
        except FileNotFoundError:
            raise ValueError("The database provided was not found in the path") from None
        self.db_type = database_from_type_string(self.reader.database_type)
        #: projected values per record data offset (see ``_values_at``)
        self._by_offset: Dict[int, Optional[Dict[Field, Any]]] = {}
        #: Reference parity (GeoIPFilter.java:194-196): an unrecognized
        #: database_type throws IllegalStateException("Unsupported database
        #: type ...") per event. Failing at construction preserves the
        #: fail-loudly intent without the reference's per-event throw —
        #: a mis-typed DB must not silently tag-fail 100% of rows.
        #: Under ``reference_defaults=True`` the raise is DEFERRED to the
        #: first attempted lookup instead, restoring the reference's exact
        #: per-event error timing (build succeeds; the job fails when the
        #: first event reaches the filter, same message).
        self._deferred_unsupported: Optional[str] = None
        if self.db_type is DatabaseType.UNKNOWN:
            if config.reference_defaults:
                self._deferred_unsupported = self.reader.database_type
                self.desired = frozenset()
                self.effective = frozenset()
                self._model = None
                self._tree_is_v6 = self.reader.ip_version == 6
                self.lookup = self._lookup_uncached
                return
            raise ValueError(
                "Unsupported database type %s" % self.reader.database_type
            )
        self.desired = config.desired_fields(self.db_type)
        self.effective = self.desired & PROJECTION_FIELDS[self.db_type]
        self._model = _RESPONSE_MODELS.get(self.db_type)
        self._tree_is_v6 = self.reader.ip_version == 6
        # LRU over raw source strings — semantically transparent memoization
        # (the reference's CHMCache analog, geoip.rb:77-91). Bounded, unlike
        # CHMCache, because a 10^12-turn stream must not grow actor heaps.
        self.lookup = lru_cache(maxsize=max(1, config.cache_size))(self._lookup_uncached)

    # -- core ---------------------------------------------------------------

    def _lookup_uncached(self, raw: str) -> Tuple[bool, Optional[Dict[Field, Any]]]:
        if self._deferred_unsupported is not None:
            # reference_defaults per-event timing (GeoIPFilter.java:194-196)
            raise ValueError(
                "Unsupported database type %s" % self._deferred_unsupported
            )
        addr = parse_ip(raw)
        if addr is None and self.config.resolve_hostnames:
            # InetAddress.getByName DNS path (GeoIPFilter.java:172), opt-in;
            # memoized by the surrounding LRU like every other lookup
            from ..functions.iputil import resolve_hostname

            addr = resolve_hostname(raw)
        if addr is None:
            return False, None  # UnknownHostException path (E3)
        try:
            record, prefix_len = self.reader.get(addr)
        except _DECODE_ERRORS:
            # includes InvalidDatabaseError plus raw decode failures on a
            # truncated/corrupt data section — degrade to a per-row failure
            # like the reference's per-event catch, never kill the batch
            return False, None
        if record is None:
            return False, None  # AddressNotFoundException path (E4)
        values = self._record_values(record)
        if values is None:
            return False, None
        if Field.IP in self.effective:
            values[Field.IP] = host_address(addr)
        if Field.NETWORK in self.effective:
            values[Field.NETWORK] = _network_string(addr, prefix_len, self._tree_is_v6)
        return True, values

    def lookup_ipv4(self, addrs: np.ndarray) -> Tuple[np.ndarray, List[Dict[Field, Any]], np.ndarray]:
        """Batch lookup of uint32 IPv4 addresses through the reader's tree
        walk: ``(slot, records, prefix_len)``. ``records`` holds the
        projected values of each distinct record found, without the
        per-address fields (IP, NETWORK); ``slot`` gives each address's
        index into it, -1 where the lookup fails."""
        offsets, prefix_len = self.reader.get_ipv4_batch(addrs)
        slot, records = resolve_distinct(offsets, self._values_at)
        return slot, records, prefix_len

    def _values_at(self, offset: int) -> Optional[Dict[Field, Any]]:
        """``_record_values`` of the record at a data offset, memoized per
        offset (a database holds far fewer records than addresses)."""
        try:
            return self._by_offset[offset]
        except KeyError:
            pass
        try:
            values = self._record_values(self.reader.record_at(offset))
        except _DECODE_ERRORS:
            values = None
        self._by_offset[offset] = values
        return values

    def _record_values(self, record: Any) -> Optional[Dict[Field, Any]]:
        """Projected values of a found record, without the per-address
        fields; None when the lookup fails on it: a model mismatch (E22),
        the City lat/lon early abort (E5) or an empty projection."""
        if self._model is not None:
            try:
                _validate_model(record, self._model)
            except InvalidCustomFieldError:
                return None  # E22: degrade to per-row failure
        values = self._project(record)
        if values is None or not (values or self.effective & _ADDRESS_FIELDS):
            return None
        return values

    def _project(self, rec: dict) -> Optional[Dict[Field, Any]]:
        """Per-DB projection of a record, without IP and NETWORK (which
        depend on the address, not the record); None on the E5 abort."""
        db = self.db_type
        eff = self.effective
        geo: Dict[Field, Any] = {}
        if db is DatabaseType.CITY:
            loc = rec.get("location") or {}
            lat, lon = loc.get("latitude"), loc.get("longitude")
            # early abort: a found record without coordinates is a *failure*
            # (GeoIPFilter.java:251-255)
            if lat is None and lon is None:
                return None
            country = rec.get("country") or {}
            subdivisions = rec.get("subdivisions") or []
            subdivision = subdivisions[-1] if subdivisions else {}
            if Field.CITY_NAME in eff:
                _put_if(geo, Field.CITY_NAME, _en_name(rec.get("city")))
            if Field.CONTINENT_CODE in eff:
                _put_if(geo, Field.CONTINENT_CODE, (rec.get("continent") or {}).get("code"))
            if Field.CONTINENT_NAME in eff:
                _put_if(geo, Field.CONTINENT_NAME, _en_name(rec.get("continent")))
            if Field.COUNTRY_NAME in eff:
                _put_if(geo, Field.COUNTRY_NAME, _en_name(country))
            if Field.COUNTRY_CODE2 in eff:
                _put_if(geo, Field.COUNTRY_CODE2, country.get("iso_code"))
            if Field.COUNTRY_CODE3 in eff:
                _put_if(geo, Field.COUNTRY_CODE3, country.get("iso_code"))
            if Field.POSTAL_CODE in eff:
                _put_if(geo, Field.POSTAL_CODE, (rec.get("postal") or {}).get("code"))
            if Field.DMA_CODE in eff:
                _put_if(geo, Field.DMA_CODE, loc.get("metro_code"))
            if Field.REGION_NAME in eff:
                _put_if(geo, Field.REGION_NAME, _en_name(subdivision))
            if Field.REGION_CODE in eff:
                _put_if(geo, Field.REGION_CODE, subdivision.get("iso_code"))
            if Field.REGION_ISO_CODE in eff:
                cc, rc = country.get("iso_code"), subdivision.get("iso_code")
                if cc is not None and rc is not None:
                    geo[Field.REGION_ISO_CODE] = "%s-%s" % (cc, rc)
            if Field.TIMEZONE in eff:
                _put_if(geo, Field.TIMEZONE, loc.get("time_zone"))
            if Field.LOCATION in eff and lat is not None and lon is not None:
                geo[Field.LOCATION] = {"lat": float(lat), "lon": float(lon)}
            if Field.LATITUDE in eff:
                _put_if(geo, Field.LATITUDE, None if lat is None else float(lat))
            if Field.LONGITUDE in eff:
                _put_if(geo, Field.LONGITUDE, None if lon is None else float(lon))
            return geo

        if db is DatabaseType.COUNTRY:
            country = rec.get("country") or {}
            if Field.COUNTRY_CODE2 in eff:
                _put_if(geo, Field.COUNTRY_CODE2, country.get("iso_code"))
            if Field.COUNTRY_NAME in eff:
                _put_if(geo, Field.COUNTRY_NAME, _en_name(country))
            if Field.CONTINENT_NAME in eff:
                _put_if(geo, Field.CONTINENT_NAME, _en_name(rec.get("continent")))
            return geo

        if db is DatabaseType.ISP:
            if Field.AUTONOMOUS_SYSTEM_NUMBER in eff:
                asn = rec.get("autonomous_system_number")
                if asn is not None:
                    geo[Field.AUTONOMOUS_SYSTEM_NUMBER] = int(asn)
            if Field.AUTONOMOUS_SYSTEM_ORGANIZATION in eff:
                _put_if(
                    geo,
                    Field.AUTONOMOUS_SYSTEM_ORGANIZATION,
                    rec.get("autonomous_system_organization"),
                )
            if Field.ISP in eff:
                _put_if(geo, Field.ISP, rec.get("isp"))
            if Field.ORGANIZATION in eff:
                _put_if(geo, Field.ORGANIZATION, rec.get("organization"))
            return geo

        if db is DatabaseType.ASN:
            if Field.AUTONOMOUS_SYSTEM_NUMBER in eff:
                asn = rec.get("autonomous_system_number")
                if asn is not None:
                    geo[Field.AUTONOMOUS_SYSTEM_NUMBER] = int(asn)
            if Field.AUTONOMOUS_SYSTEM_ORGANIZATION in eff:
                _put_if(
                    geo,
                    Field.AUTONOMOUS_SYSTEM_ORGANIZATION,
                    rec.get("autonomous_system_organization"),
                )
            return geo

        if db is DatabaseType.DOMAIN:
            if Field.DOMAIN in eff:
                # put WITHOUT a null guard: key present even when null
                # (GeoIPFilter.java:486-489) → a found record is a success
                geo[Field.DOMAIN] = rec.get("domain")
            return geo

        if db is DatabaseType.ENTERPRISE:
            country = rec.get("country") or {}
            loc = rec.get("location") or {}
            subdivisions = rec.get("subdivisions") or []
            subdivision = subdivisions[-1] if subdivisions else {}
            traits = rec.get("traits") or {}
            if Field.COUNTRY_CODE2 in eff:
                _put_if(geo, Field.COUNTRY_CODE2, country.get("iso_code"))
            if Field.COUNTRY_NAME in eff:
                _put_if(geo, Field.COUNTRY_NAME, _en_name(country))
            if Field.CONTINENT_NAME in eff:
                _put_if(geo, Field.CONTINENT_NAME, _en_name(rec.get("continent")))
            if Field.REGION_ISO_CODE in eff:
                cc, rc = country.get("iso_code"), subdivision.get("iso_code")
                if cc is not None and rc is not None:
                    geo[Field.REGION_ISO_CODE] = "%s-%s" % (cc, rc)
            if Field.REGION_NAME in eff:
                _put_if(geo, Field.REGION_NAME, _en_name(subdivision))
            if Field.CITY_NAME in eff:
                _put_if(geo, Field.CITY_NAME, _en_name(rec.get("city")))
            if Field.TIMEZONE in eff:
                _put_if(geo, Field.TIMEZONE, loc.get("time_zone"))
            if Field.LOCATION in eff:
                lat, lon = loc.get("latitude"), loc.get("longitude")
                if lat is not None and lon is not None:
                    geo[Field.LOCATION] = {"lat": float(lat), "lon": float(lon)}
            if Field.AUTONOMOUS_SYSTEM_NUMBER in eff:
                asn = traits.get("autonomous_system_number")
                if asn is not None:
                    geo[Field.AUTONOMOUS_SYSTEM_NUMBER] = int(asn)
            if Field.AUTONOMOUS_SYSTEM_ORGANIZATION in eff:
                _put_if(
                    geo,
                    Field.AUTONOMOUS_SYSTEM_ORGANIZATION,
                    traits.get("autonomous_system_organization"),
                )
            for trait_field, key in _TRAIT_KEYS.items():
                if trait_field in eff:
                    geo[trait_field] = bool(traits.get(key, False))
            return geo

        if db is DatabaseType.ANONYMOUS_IP:
            for trait_field, key in _TRAIT_KEYS.items():
                if trait_field in eff:
                    geo[trait_field] = bool(rec.get(key, False))
            return geo

        return geo

    def close(self) -> None:
        self.reader.close()


# ---------------------------------------------------------------------------
# Arrow output schema + batch assembly
# ---------------------------------------------------------------------------

_LEAF_TYPES = {
    Field.AUTONOMOUS_SYSTEM_NUMBER: pa.int64(),
    Field.DMA_CODE: pa.int64(),
    Field.LATITUDE: pa.float64(),
    Field.LONGITUDE: pa.float64(),
    Field.HOSTING_PROVIDER: pa.bool_(),
    Field.TOR_EXIT_NODE: pa.bool_(),
    Field.ANONYMOUS_VPN: pa.bool_(),
    Field.ANONYMOUS: pa.bool_(),
    Field.PUBLIC_PROXY: pa.bool_(),
    Field.RESIDENTIAL_PROXY: pa.bool_(),
}
_LOCATION_TYPE = pa.struct([("lat", pa.float64()), ("lon", pa.float64())])


def _leaf_type(field: Field) -> pa.DataType:
    if field is Field.LOCATION:
        return _LOCATION_TYPE
    return _LEAF_TYPES.get(field, pa.string())


def output_leaves(effective: FrozenSet[Field], ecs: bool) -> List[Tuple[Tuple[str, ...], Field]]:
    """Ordered (path, field) leaves of the target struct.

    Legacy: flat legacy names. ECS: nested dot-paths (geo./as./mmdb./
    ip_traits.), COUNTRY_CODE3 skipped (empty path, Field.java:35), LOCATION
    expanded into geo.location.lat/lon so it merges with LATITUDE/LONGITUDE
    the way Logstash bracket-path writes do.
    """
    leaves: List[Tuple[Tuple[str, ...], Field]] = []
    for field in Field:
        if field not in effective:
            continue
        path = field.field_path(ecs)
        if not path:
            continue  # skipped-in-ECS (COUNTRY_CODE3)
        if ecs and field is Field.LOCATION:
            leaves.append((("geo", "location", "lat"), field))
            leaves.append((("geo", "location", "lon"), field))
            continue
        leaves.append((path, field))
    # merge duplicate paths (ECS LOCATION vs LATITUDE/LONGITUDE): keep the
    # most specific contributor last so later writes win like Event.setField
    return leaves


def _leaf_value(field: Field, path: Tuple[str, ...], values: Dict[Field, Any]):
    if field is Field.LOCATION and path and path[-1] in ("lat", "lon"):
        loc = values.get(Field.LOCATION)
        if loc is None:
            return None
        return loc[path[-1]]
    return values.get(field)


class _TreeNode:
    __slots__ = ("children", "leaf")

    def __init__(self):
        self.children: "dict[str, _TreeNode]" = {}
        self.leaf = None  # (field, pa.Array) when this node is a leaf


def _build_struct_array(
    node: _TreeNode, n: int, valid: np.ndarray
) -> Tuple[pa.Array, np.ndarray]:
    """Bottom-up struct assembly. Returns (array, presence-mask) where
    presence = this subtree contributes a non-null value for the row (used so
    intermediate structs are null when no descendant was set — matching the
    absent-subtree semantics of the event model)."""
    names, arrays, presences = [], [], []
    for name, child in node.children.items():
        if child.leaf is not None:
            arr = child.leaf
            presence = np.asarray(pc.is_valid(arr))
        else:
            arr, presence = _build_struct_array(child, n, valid)
        names.append(name)
        arrays.append(arr)
        presences.append(presence)
    present = np.logical_or.reduce(presences) if presences else np.zeros(n, dtype=bool)
    mask = pa.array(~(present & valid))
    return pa.StructArray.from_arrays(arrays, names=names, mask=mask), present


def build_target_column(
    leaves: List[Tuple[Tuple[str, ...], pa.Array]],
    n: int,
    attempted: np.ndarray,
    succeeded: np.ndarray,
) -> pa.Array:
    """Assemble the target struct column with three-state validity:
    not attempted → null struct; attempted-but-failed → valid struct with
    all-null children; success → populated struct."""
    root = _TreeNode()
    for path, arr in leaves:
        node = root
        for frag in path:
            node = node.children.setdefault(frag, _TreeNode())
        node.leaf = arr
    names, arrays = [], []
    for name, child in root.children.items():
        if child.leaf is not None:
            arrays.append(child.leaf)
        else:
            arr, _present = _build_struct_array(child, n, succeeded)
            arrays.append(arr)
        names.append(name)
    if not names:
        # degenerate: no output fields configured — still honor validity
        return pa.array([{} if a else None for a in attempted], type=pa.struct([]))
    mask = pa.array(~attempted)
    return pa.StructArray.from_arrays(arrays, names=names, mask=mask)


def append_tags(
    existing: Optional[pa.Array], failure: np.ndarray, tag_list: List[str], n: int
) -> pa.Array:
    """Vectorized tags append (E17): rows where ``failure`` get ``tag_list``
    appended to their existing tags (null existing → just the new tags);
    other rows pass through untouched (null stays null). Pure offset/take
    arithmetic — no Python per-row list building.

    ``existing=None`` is the no-pre-existing-tags fast path: offsets advance
    by ``len(tag_list)`` on failure rows, success rows are null entries.
    A null-typed column (parquet schema inference over an all-null ``tags``
    field) takes the same path — every entry is null, so the semantics are
    identical and ``list_value_length`` (no null kernel) is never called."""
    k = len(tag_list)
    if existing is not None and pa.types.is_null(existing.type):
        existing = None
    if existing is None:
        counts = failure.astype(np.int32) * k
        offsets_np = np.zeros(n + 1, dtype=np.int32)
        np.cumsum(counts, out=offsets_np[1:])
        n_fail = int(failure.sum())
        values = pa.array(tag_list * n_fail, type=pa.string())
        return pa.ListArray.from_arrays(
            pa.array(offsets_np, type=pa.int32()), values, mask=pa.array(~failure)
        )

    if isinstance(existing, pa.ChunkedArray):
        existing = existing.combine_chunks()
    valid = np.asarray(pc.is_valid(existing))
    lens = np.asarray(pc.fill_null(pc.list_value_length(existing), 0)).astype(np.int64)
    # absolute offsets stay correct for sliced arrays: .values is the full
    # child buffer and .offsets index into it
    starts = np.asarray(existing.offsets).astype(np.int64)[:-1]
    total_ex = int(lens.sum())
    cum = np.cumsum(lens) - lens
    ragged = np.arange(total_ex, dtype=np.int64) - np.repeat(cum, lens)
    ex_take = np.repeat(starts, lens) + ragged

    out_lens = lens + failure.astype(np.int64) * k
    out_off = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(out_lens, out=out_off[1:])
    pos_ex = np.repeat(out_off[:-1], lens) + ragged
    fail_rows = np.nonzero(failure)[0]
    pos_tag = np.repeat(out_off[fail_rows] + lens[fail_rows], k) + np.tile(
        np.arange(k, dtype=np.int64), len(fail_rows)
    )

    ex_values = existing.values.cast(pa.string())
    pool = pa.concat_arrays([ex_values, pa.array(tag_list, type=pa.string())])
    take = np.empty(int(out_off[-1]), dtype=np.int64)
    take[pos_ex] = ex_take
    take[pos_tag] = len(ex_values) + np.tile(np.arange(k, dtype=np.int64), len(fail_rows))
    values = pc.take(pool, pa.array(take))
    mask = pa.array(~(valid | failure))
    return pa.ListArray.from_arrays(
        pa.array(out_off.astype(np.int32)), values, mask=mask
    )


class GeoIPEnricher:
    """Ray Data actor-pool stage: ``ds.map_batches(GeoIPEnricher(config),
    batch_format="pyarrow", concurrency=N, batch_size=B)``.

    Ray constructs the callable per actor via ``fn_constructor_args`` — or,
    when an *instance* is passed, pickles the config-carrying instance and
    opens the MMDB lazily on first batch so the mmap never crosses the
    network. Per batch: dictionary-encode the source column, resolve the
    distinct IPv4 values with one tree walk and the rest through the LRU,
    expand with ``take``.
    """

    def __init__(self, config: GeoIPConfig, source_column: Optional[str] = None,
                 tags_column: str = "tags", db_expired: bool = False):
        self.config = config
        self.source_column = source_column or config.source
        self.tags_column = tags_column
        self.target_column = config.resolved_target()
        #: E18 (geoip.rb:113-115,169-171): when the database is expired /
        #: unavailable, the lookup is skipped entirely, the target stays
        #: untouched, and every event is tagged `_geoip_expired_database`
        self.db_expired = db_expired
        self._lookup: Optional[GeoIPLookup] = None
        self._leaves = None
        self._db_override: Optional[str] = None
        self._control_mtime: Optional[float] = None
        self._last_poll = 0.0
        #: attempted rows looked up by the IPv4 tree walk / by the scalar
        #: fallback, summed over the batches this instance enriched
        self.kernel_rows = 0
        self.fallback_rows = 0

    # MMDB state must not be pickled (mmap); recreate lazily per process.
    def __getstate__(self):
        return {
            "config": self.config,
            "source_column": self.source_column,
            "tags_column": self.tags_column,
            "target_column": self.target_column,
            "db_expired": self.db_expired,
        }

    def __setstate__(self, state):
        self.__dict__.update(state)
        self._lookup = None
        self._leaves = None
        self._db_override = None
        self._control_mtime = None
        self._last_poll = 0.0
        self.kernel_rows = 0
        self.fallback_rows = 0

    def _effective_config(self) -> GeoIPConfig:
        if self._db_override is None:
            return self.config
        import dataclasses

        return dataclasses.replace(self.config, database=self._db_override)

    def _ensure_open(self):
        if self._lookup is None:
            cfg = self._effective_config()
            self._lookup = GeoIPLookup(cfg)
            self._leaves = output_leaves(self._lookup.effective, self.config.ecs)

    def _poll_control(self) -> None:
        """Runtime DB manager hook (update_filter, geoip.rb:156-171): check
        the control file at most once per poll interval; apply
        expire (→ fail_filter) / update (→ setup_filter with the new path)
        actions when its mtime changes. Stat-only when idle — never in the
        per-row path."""
        import json
        import os as _os
        import time as _time

        now = _time.monotonic()
        if now - self._last_poll < self.config.db_poll_interval:
            return
        self._last_poll = now
        try:
            mtime = _os.path.getmtime(self.config.db_control_path)
        except OSError:
            return  # no control file → no action
        if mtime == self._control_mtime:
            return
        self._control_mtime = mtime
        try:
            with open(self.config.db_control_path) as f:
                control = json.load(f)
        except (OSError, json.JSONDecodeError):
            return  # partially-written file: retry next poll
        action = control.get("action")
        if action == "expire":
            self.db_expired = True
        elif action == "update":
            path = control.get("path")
            if path:
                if self._lookup is not None:
                    self._lookup.close()
                self._lookup = None
                self._leaves = None
                self._db_override = path
                self.db_expired = False
        # else: invalid action ignored (reference logs a warning)

    def _tag_all(self, batch: pa.Table, tag: str) -> pa.Table:
        n = batch.num_rows
        existing = None
        if self.tags_column in batch.column_names:
            existing = batch[self.tags_column]
            batch = batch.drop_columns([self.tags_column])
        tags_arr = append_tags(existing, np.ones(n, dtype=bool), [tag], n)
        return batch.append_column(self.tags_column, tags_arr)

    def _resolve(self, dictionary: pa.Array):
        """Look up a batch's distinct source strings. Returns ``(slot,
        records, is_v4, address_leaves)``: the projected values of every
        record found, each string's index into them (-1 = failed), the
        mask of strings the IPv4 tree walk took, and the per-string IP and
        NETWORK columns (for the configured ones)."""
        lookup = self._lookup
        eff = lookup.effective
        # IPv4 dotted quads: one vectorized tree walk, projected once per
        # distinct record; per-address fields come from the string itself
        if lookup._deferred_unsupported is None:
            is_v4, addrs = parse_ipv4_array(dictionary)
        else:
            is_v4, addrs = np.zeros(len(dictionary), dtype=bool), np.zeros(0, dtype=np.uint32)
        v4_slot, records, v4_prefix = lookup.lookup_ipv4(addrs)
        slot = np.full(len(dictionary), -1, dtype=np.int64)
        slot[is_v4] = v4_slot
        address_leaves = {Field.IP: dictionary} if Field.IP in eff else {}
        if Field.NETWORK in eff:
            tree_depth = 96 if lookup._tree_is_v6 else 0
            address_leaves[Field.NETWORK] = _network_strings(
                is_v4, addrs, v4_prefix.astype(np.int64) - tree_depth
            )

        # everything else (IPv6, mapped and malformed text, hostnames)
        # through the scalar lookup and its LRU
        fallback = np.flatnonzero(~is_v4)
        if len(fallback):
            fb_values: List[Optional[Dict[Field, Any]]] = []
            for pos, raw in zip(fallback.tolist(), dictionary.take(fallback).to_pylist()):
                ok, values = lookup.lookup(raw) if raw.strip() else (False, None)
                fb_values.append(values)
                if ok:
                    slot[pos] = len(records)
                    records.append(values)
            at_fallback = pa.array(np.cumsum(~is_v4) - 1, mask=is_v4)
            for field, arr in address_leaves.items():
                fb_arr = pa.array([v and v.get(field) for v in fb_values], type=pa.string())
                address_leaves[field] = pc.if_else(pa.array(is_v4), arr, fb_arr.take(at_fallback))
        return slot, records, is_v4, address_leaves

    def __call__(self, batch: pa.Table) -> pa.Table:
        if self.config.db_control_path is not None:
            self._poll_control()
        if self.db_expired:
            from ..functions.config import EXPIRED_DATABASE_TAG

            return self._tag_all(batch, EXPIRED_DATABASE_TAG)
        self._ensure_open()
        n = batch.num_rows
        src_col = batch[self.source_column]
        if pa.types.is_list(src_col.type) or pa.types.is_large_list(src_col.type):
            # E1: list → first element, fully vectorized. Guard empty lists
            # (the reference throws IndexOutOfBounds per event; at batch
            # scale a crash would take thousands of healthy rows with it, so
            # we degrade an empty/null list to a missing source → tagged
            # failure — unless reference_defaults asks for the reference's
            # exact crash semantics). list_slice(0,1)+list_flatten emits one
            # value per non-empty list in row order; scatter them back with
            # a null-masked take.
            lengths = pc.list_value_length(src_col)
            if self.config.reference_defaults and bool(
                pc.any(pc.equal(lengths, 0)).as_py() or False
            ):
                # java.util.List.get(0) on an empty list
                # (GeoIPFilter.java:165): null field = skip, empty list =
                # per-event crash
                raise IndexError("Index 0 out of bounds for length 0")
            nonempty = np.asarray(pc.fill_null(pc.greater(lengths, 0), False))
            flat = pc.list_flatten(pc.list_slice(src_col, 0, 1))
            if isinstance(flat, pa.ChunkedArray):
                flat = flat.combine_chunks()
            take_idx = pa.array(
                np.cumsum(nonempty) - 1, type=pa.int64(), mask=~nonempty
            )
            src_col = flat.take(take_idx).cast(pa.string())
        elif pa.types.is_null(src_col.type):
            # an all-null column carries no type info; every row is the
            # reference's `input == null` skip path
            src_col = pa.nulls(n, type=pa.string())
        elif not (
            pa.types.is_string(src_col.type) or pa.types.is_large_string(src_col.type)
        ):
            #: E1 type parity (GeoIPFilter.java:159-162): a non-String,
            #: non-List source raises IllegalArgumentException. Raising the
            #: reference's message here fails the task with a clear schema
            #: error instead of an opaque Arrow kernel crash.
            raise TypeError("Expected input field value to be String or List type")
        src = src_col.combine_chunks() if isinstance(src_col, pa.ChunkedArray) else src_col

        trimmed = pc.utf8_trim_whitespace(src)
        attempted_arr = pc.fill_null(pc.not_equal(trimmed, pa.scalar("")), False)
        attempted = np.asarray(attempted_arr)

        enc = src.dictionary_encode()
        dictionary = enc.dictionary.cast(pa.string())
        d = len(dictionary)
        # null indices (missing source) → point at slot 0 but masked by
        # `attempted`; fill to keep take() happy
        indices = np.asarray(pc.fill_null(enc.indices, 0)) if d else np.zeros(n, dtype=np.int32)
        slot, records, is_v4, address_leaves = self._resolve(dictionary)
        if d:
            row_slot, row_v4 = slot[indices], is_v4[indices]
        else:
            row_slot, row_v4 = np.full(n, -1), np.zeros(n, dtype=bool)
        self.kernel_rows += int((row_v4 & attempted).sum())
        self.fallback_rows += int((~row_v4 & attempted).sum())
        succeeded = (row_slot >= 0) & attempted
        # rows that did not succeed take a NULL index, so every leaf take()
        # yields null there for free
        row_record = pa.array(row_slot, mask=~succeeded)
        row_source = pa.array(indices, mask=~succeeded)

        leaf_arrays: List[Tuple[Tuple[str, ...], pa.Array]] = []
        seen_paths = {}
        for path, field in self._leaves:
            if field in address_leaves:
                arr = address_leaves[field].take(row_source)
            else:
                t = _leaf_type(field) if not (path and path[-1] in ("lat", "lon") and field is Field.LOCATION) else pa.float64()
                arr = pa.array([_leaf_value(field, path, v) for v in records], type=t).take(row_record)
            if path in seen_paths:
                # ECS merge (geo.location.lat written by LOCATION then
                # LATITUDE): later contributor wins where non-null
                prev = seen_paths[path]
                merged = pc.if_else(pc.is_valid(arr), arr, prev[1])
                leaf_arrays[prev[0]] = (path, merged)
                seen_paths[path] = (prev[0], merged)
                continue
            seen_paths[path] = (len(leaf_arrays), arr)
            leaf_arrays.append((path, arr))

        target = build_target_column(leaf_arrays, n, attempted, succeeded)

        # tags (E17): append configured failure tags where the lookup did not
        # succeed (including never-attempted rows — geoip.rb:117-127)
        failure = ~succeeded
        tag_list = list(self.config.tag_on_failure)
        existing_tags = None
        if self.tags_column in batch.column_names:
            existing_tags = batch[self.tags_column]
            batch = batch.drop_columns([self.tags_column])
        tags_arr = append_tags(existing_tags, failure, tag_list, n)

        if self.target_column in batch.column_names:
            # E16 merge-not-replace (applyGeoData, GeoIPFilter.java:209-234;
            # CHANGELOG 4.0.4): pre-existing target content survives — fields
            # we don't emit are carried, our fields overwrite only on success,
            # and an existing non-null target is never nulled out
            existing_target = batch[self.target_column]
            if isinstance(existing_target, pa.ChunkedArray):
                existing_target = existing_target.combine_chunks()
            target = _merge_targets(existing_target, target, np.asarray(succeeded))
            batch = batch.drop_columns([self.target_column])
        batch = batch.append_column(self.target_column, target)
        batch = batch.append_column(self.tags_column, tags_arr)
        return batch


def _network_strings(is_v4: np.ndarray, addrs: np.ndarray, prefix_len: np.ndarray) -> pa.Array:
    """Java ``Network.toString()`` for IPv4 lookups, vectorized: the
    network address of each ``addrs`` entry at its ``prefix_len``, as
    ``a.b.c.d/len``, scattered to the positions ``is_v4`` marks (null
    elsewhere)."""
    keep = (np.uint64(0xFFFFFFFF) << (32 - prefix_len).astype(np.uint64)) & np.uint64(0xFFFFFFFF)
    net = addrs.astype(np.uint64) & keep
    octets = [pa.array((net >> np.uint64(shift)) & np.uint64(0xFF)).cast(pa.string()) for shift in (24, 16, 8, 0)]
    text = pc.binary_join_element_wise(
        pc.binary_join_element_wise(*octets, "."), pa.array(prefix_len).cast(pa.string()), "/"
    )
    return text.take(pa.array(np.cumsum(is_v4) - 1, mask=~is_v4))


def _merge_targets(existing: pa.Array, computed: pa.Array, succeeded) -> pa.Array:
    """Merge a pre-existing target struct with the computed one (E16):

    - per struct field: fields present only in one side are carried; fields
      in both take the computed value on success rows, the existing value
      otherwise (the reference writes per-field only when the lookup
      produced data);
    - row validity: valid where either side is valid (the reference never
      un-sets an existing target).
    Non-struct existing targets (unexpected type) are replaced.
    """
    if not pa.types.is_struct(existing.type):
        return computed
    n = len(computed)
    succ = pa.array(succeeded)
    existing_valid = np.asarray(pc.is_valid(existing))
    computed_valid = np.asarray(pc.is_valid(computed))
    names: List[str] = []
    arrays: List[pa.Array] = []
    computed_names = {f.name for f in computed.type}
    for field in existing.type:
        old = pc.struct_field(existing, field.name)
        if field.name in computed_names:
            new = pc.struct_field(computed, field.name)
            if pa.types.is_struct(field.type) and pa.types.is_struct(new.type):
                # recurse even when the child schemas differ — the merge
                # unions their fields (e.g. a pre-existing geo.note beside
                # the computed geo.city_name)
                arrays.append(_merge_targets(old, new, succeeded))
            elif new.type == field.type:
                # overwrite only where the lookup actually produced a value:
                # the reference writes per-field only for keys present in
                # geoData, so an omitted (null) field must not clobber the
                # pre-existing value. (Known divergence: the reference's
                # DOMAIN projection can put an explicit null that *does*
                # overwrite — indistinguishable from omitted in Arrow.)
                arrays.append(pc.if_else(pc.and_(succ, pc.is_valid(new)), new, old))
            else:
                # type conflict: computed schema wins on success rows; keep
                # null otherwise (cannot mix Arrow types in one column)
                arrays.append(pc.if_else(succ, new, pa.nulls(n, type=new.type)))
        else:
            arrays.append(old)
        names.append(field.name)
    for field in computed.type:
        if field.name in {f.name for f in existing.type}:
            continue
        names.append(field.name)
        arrays.append(pc.struct_field(computed, field.name))
    mask = pa.array(~(existing_valid | computed_valid))
    return pa.StructArray.from_arrays(arrays, names=names, mask=mask)


#: per-worker-process enricher singletons, keyed by config — see
#: WorkerCachedEnricher
_PROCESS_ENRICHERS: dict = {}


class WorkerCachedEnricher:
    """Task-mode enrichment: a picklable callable for stateless
    ``map_batches`` tasks that lazily builds ONE ``GeoIPEnricher`` per Ray
    worker *process* and reuses it (mmap + LRU survive across tasks).

    Why this exists alongside the actor-pool mode: the enricher's state is an
    immutable mmap'd DB plus a transparent memo — read-only state that any
    worker can host. Task mode lets the streaming executor schedule enrich
    work on every free CPU with no actor-pool dispatch queue or per-execution
    pool spin-up; measured on this node it is ~2.5× faster end-to-end than a
    tuned actor pool at 2.4M rows (see BASELINE.md). The actor pool remains
    the right shape for *mutable* per-stage state; both modes produce
    identical output.
    """

    def __init__(self, config: GeoIPConfig, source_column: Optional[str] = None,
                 tags_column: str = "tags"):
        self.config = config
        self.source_column = source_column
        self.tags_column = tags_column

    def __call__(self, batch: pa.Table) -> pa.Table:
        key = (self.config, self.source_column, self.tags_column)
        enricher = _PROCESS_ENRICHERS.get(key)
        if enricher is None:
            enricher = GeoIPEnricher(self.config, self.source_column, self.tags_column)
            _PROCESS_ENRICHERS[key] = enricher
        return enricher(batch)
