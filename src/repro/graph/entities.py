"""Typed node identities for the entity graph.

Every node is an :class:`EntityId` — a ``(kind, value)`` named tuple —
so nodes from different namespaces (a session id, a fingerprint id, a
passenger-name key) can share one adjacency structure without
colliding.  Kinds are plain strings; the constructors below are the
only places that build ids, which keeps the namespace rules in one
file.

The kinds mirror the side-channels the paper's campaigns cannot
rotate away: booking references and passenger names for Case A/B seat
spinning, phone numbers and booking references for Case C SMS pumping,
plus the infrastructure identities (fingerprint, IP, /24 subnet) that
link *within* a rotation epoch.
"""

from __future__ import annotations

from typing import List, NamedTuple, Sequence, Tuple

SESSION = "session"
FINGERPRINT = "fp"
IP = "ip"
SUBNET = "subnet"
PHONE = "phone"
BOOKING_REF = "ref"
NAME_KEY = "name"
FLIGHT = "flight"

#: All node kinds, in display order.
KINDS: Tuple[str, ...] = (
    SESSION,
    FINGERPRINT,
    IP,
    SUBNET,
    PHONE,
    BOOKING_REF,
    NAME_KEY,
    FLIGHT,
)


class EntityId(NamedTuple):
    """One graph node: a namespaced identity."""

    kind: str
    value: str

    def __str__(self) -> str:  # pragma: no cover - repr convenience
        return f"{self.kind}:{self.value}"


def split_ids(nodes: Sequence[EntityId]) -> Tuple[List[str], List[str]]:
    """Kinds and values as two ``str`` lists, which pickle without one
    reduction per node (:func:`join_ids` inverts it)."""
    return [node.kind for node in nodes], [node.value for node in nodes]


def join_ids(kinds: Sequence[str], values: Sequence[str]) -> List[EntityId]:
    return list(map(EntityId, kinds, values))


def session_node(session_id: str) -> EntityId:
    return EntityId(SESSION, session_id)


def fingerprint_node(fingerprint_id: str) -> EntityId:
    return EntityId(FINGERPRINT, fingerprint_id)


def ip_node(ip_address: str) -> EntityId:
    return EntityId(IP, ip_address)


def subnet_node(ip_address: str) -> EntityId:
    """The /24 (first three octets) containing ``ip_address``."""
    return EntityId(SUBNET, subnet_of(ip_address))


def phone_node(number: str) -> EntityId:
    return EntityId(PHONE, number)


def booking_ref_node(booking_ref: str) -> EntityId:
    return EntityId(BOOKING_REF, booking_ref)


def name_key_node(name_key: Tuple[str, str]) -> EntityId:
    first, last = name_key
    return EntityId(NAME_KEY, f"{first}|{last}")


def flight_node(flight_id: str) -> EntityId:
    return EntityId(FLIGHT, flight_id)


def subnet_of(ip_address: str) -> str:
    """Dotted-quad prefix used for subnet grouping (``a.b.c.0/24``)."""
    parts = ip_address.split(".")
    if len(parts) != 4:
        return ip_address
    return ".".join(parts[:3]) + ".0/24"
