"""Addressing primitives: node identifiers and (node, port) endpoints."""

from __future__ import annotations

from dataclasses import dataclass

NodeId = int
"""Nodes are identified by small integers assigned by the Network."""

# Frozen dataclasses refuse plain attribute assignment.
_setattr = object.__setattr__


@dataclass(frozen=True, order=True, init=False)
class Endpoint:
    """A (node, port) pair — the datagram-layer address of a socket."""

    __slots__ = ("node", "port", "_hash")

    node: NodeId
    port: int

    def __init__(self, node: NodeId, port: int) -> None:
        # Endpoints key socket and session tables on every datagram, so
        # the hash is computed once; it equals the generated dataclass
        # hash of the field tuple.
        _setattr(self, "node", node)
        _setattr(self, "port", port)
        _setattr(self, "_hash", hash((node, port)))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # The default slots pickling would assign to a frozen instance.
        return (Endpoint, (self.node, self.port))

    def __str__(self) -> str:
        return f"{self.node}:{self.port}"


# Well-known ports used by the VoD service.  These mirror the role of
# registered port numbers on a real deployment; any free port works, the
# constants just make traces readable.
GCS_PORT = 7000
VIDEO_PORT = 8000
CONTROL_PORT = 8001
