"""Client lease management.

RIFL keeps completion records per client; the lease bounds how long a
silent client's records must be retained.  The paper's cluster
coordinator owns leases; here the :class:`LeaseServer` lives on the
coordinator host and masters consult it before expiring records.

The transport between master and lease server is elided (masters hold a
reference): lease checks happen on the master's local clock against
lease expiry timestamps, the same approximation RAMCloud itself makes
with its lease-expiration grace windows.
"""

from __future__ import annotations

import typing

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.sim.simulator import Simulator


class LeaseServer:
    """Issues client ids and tracks their lease expiry times."""

    def __init__(self, sim: "Simulator", lease_duration: float = 1_000_000.0):
        self.sim = sim
        self.lease_duration = lease_duration
        self._next_client_id = 1
        self._id_stride = 1
        self._expiry: dict[int, float] = {}

    def stripe(self, index: int, count: int) -> None:
        """Issue only ids ``index + 1 + k * count`` (k = 0, 1, ...).

        ``count`` lease servers striped with distinct indexes share one
        client-id space without talking to each other — the PDES
        partitions' coordinators, whose clients all reach the same
        masters, where RIFL keys completion records by client id.
        """
        self._next_client_id = index + 1
        self._id_stride = count

    def register_client(self) -> int:
        """Allocate a new client id with a fresh lease."""
        client_id = self._next_client_id
        self._next_client_id += self._id_stride
        self._expiry[client_id] = self.sim.now + self.lease_duration
        return client_id

    def renew(self, client_id: int) -> float:
        """Extend the lease; returns the new expiry time."""
        if client_id not in self._expiry:
            raise KeyError(f"unknown client id {client_id}")
        self._expiry[client_id] = self.sim.now + self.lease_duration
        return self._expiry[client_id]

    def is_expired(self, client_id: int) -> bool:
        expiry = self._expiry.get(client_id)
        if expiry is None:
            return True
        return self.sim.now > expiry

    def expiry_of(self, client_id: int) -> float | None:
        return self._expiry.get(client_id)

    def expired_clients(self) -> list[int]:
        """Clients whose lease has lapsed (candidates for record GC)."""
        now = self.sim.now
        return [cid for cid, exp in self._expiry.items() if now > exp]

    def drop(self, client_id: int) -> None:
        """Forget a client entirely (after masters GC'd its records)."""
        self._expiry.pop(client_id, None)
