"""IP parsing/canonicalization matching the reference's use of
``java.net.InetAddress`` (``GeoIPFilter.java:172,296``).

Java semantics we reproduce:

- ``InetAddress.getByName(ip)`` on a malformed literal raises
  ``UnknownHostException`` → the reference treats the lookup as attempted-
  but-failed (empty-map target + failure tag). We map any
  ``ipaddress.ip_address`` ValueError to the same outcome.
- ``getHostAddress()`` echoes IPv4 dotted-quad, and IPv6 in *expanded-zero*
  form — each group in unpadded lowercase hex, **no ``::`` compression**:
  ``2607:f0d0:1002:51::4`` → ``2607:f0d0:1002:51:0:0:0:4``
  (asserted at ``spec/filters/geoip_ecs_spec.rb:158``). Python's
  ``str(IPv6Address)`` compresses, so we format groups explicitly.
- IPv4-mapped IPv6 literals (``::ffff:1.2.3.4``) come back from Java as an
  ``Inet4Address`` → dotted quad; we mirror via ``IPv6Address.ipv4_mapped``.

Hostname resolution: ``InetAddress.getByName`` also resolves *hostnames*
via DNS. The engine reproduces that behind an opt-in
(``GeoIPConfig(resolve_hostnames=True)`` → :func:`resolve_hostname`, the
first ``getaddrinfo`` answer like Java takes the first address) because DNS
in a hot batch path is a scale hazard — DEFAULT OFF, so a non-literal is a
failed lookup unless explicitly enabled. The resolver is process-global
injectable (:func:`set_hostname_resolver`) for offline tests and for
plugging a cached/deterministic resolver in production.
"""

from __future__ import annotations

import ipaddress
from typing import Callable, Optional, Tuple, Union

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

IPAddress = Union[ipaddress.IPv4Address, ipaddress.IPv6Address]

_hostname_resolver: Optional[Callable[[str], Optional[IPAddress]]] = None


def set_hostname_resolver(fn: Optional[Callable[[str], Optional[IPAddress]]]) -> None:
    """Install a process-global hostname resolver (None → back to the
    default ``socket.getaddrinfo`` path). Called per worker process when
    customizing — e.g. a pre-warmed cache or an offline test fake."""
    global _hostname_resolver
    _hostname_resolver = fn


def resolve_hostname(name: str) -> Optional[IPAddress]:
    """DNS-resolve a hostname to its FIRST address (InetAddress.getByName
    order, GeoIPFilter.java:172); None on failure (UnknownHostException)."""
    if _hostname_resolver is not None:
        return _hostname_resolver(name)
    import socket

    try:
        infos = socket.getaddrinfo(name, None)
    except (socket.gaierror, UnicodeError, OSError):
        return None
    for _fam, _t, _p, _c, sockaddr in infos:
        addr = parse_ip(sockaddr[0])
        if addr is not None:
            return addr  # first PARSEABLE answer (skips e.g. scoped fe80::%)
    return None


def parse_ip(text: str) -> Optional[IPAddress]:
    """Parse an IP literal; None on malformed input (Java UnknownHostException).

    Like ``InetAddress.getByName``, an IPv4-mapped IPv6 literal degrades to
    its IPv4 address.
    """
    try:
        addr = ipaddress.ip_address(text)
    except ValueError:
        return None
    if addr.version == 6:
        mapped = addr.ipv4_mapped
        if mapped is not None:
            return mapped
    return addr


def host_address(addr: IPAddress) -> str:
    """Java ``InetAddress.getHostAddress()`` canonical echo form."""
    if addr.version == 4:
        return str(addr)
    groups = []
    packed = addr.packed
    for i in range(0, 16, 2):
        groups.append(format((packed[i] << 8) | packed[i + 1], "x"))
    return ":".join(groups)


def parse_and_canonicalize(text: str) -> Tuple[Optional[IPAddress], Optional[str]]:
    """(parsed address, canonical echo string) — (None, None) if malformed."""
    addr = parse_ip(text)
    if addr is None:
        return None, None
    return addr, host_address(addr)


#: an IPv4 dotted quad in canonical form: ASCII digits, no leading zeros,
#: no whitespace — exactly the IPv4 text ``ipaddress.ip_address`` accepts
_OCTET = r"(?:25[0-5]|2[0-4]\d|1\d\d|[1-9]?\d)"
_DOTTED_QUAD = r"^%s\.%s\.%s\.%s$" % ((_OCTET,) * 4)


def parse_ipv4_array(strings: pa.Array) -> Tuple[np.ndarray, np.ndarray]:
    """Vectorized IPv4 parse of a string array: ``(mask, addrs)``, where
    ``mask`` marks the dotted quads (the strings ``parse_ip`` parses to an
    IPv4 address with ``host_address`` equal to the string itself) and
    ``addrs`` holds their addresses as uint32, in order."""
    mask = pc.fill_null(pc.match_substring_regex(strings, _DOTTED_QUAD), False)
    octets = pc.list_flatten(pc.split_pattern(strings.filter(mask), ".")).cast(pa.uint32())
    o = np.asarray(octets).reshape(-1, 4)
    addrs = (o[:, 0] << 24) | (o[:, 1] << 16) | (o[:, 2] << 8) | o[:, 3]
    return np.asarray(mask, dtype=bool), addrs
