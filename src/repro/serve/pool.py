"""The machine pool: bounded live machines, LRU eviction via checkpoints.

A live :class:`~repro.sim.functional.Machine` holds the register file,
sparse memory, decode caches, and (on the translated tier) translation
table bindings — too much to keep resident for every open session when the
server is holding thousands.  The pool caps live machines at
``REPRO_SERVE_POOL`` (default 8); leasing a machine for a session beyond
the cap evicts the least-recently-used session by *parking* it
(:meth:`Machine.checkpoint` onto the session, machine dropped).  Reviving
a parked session rebuilds a machine and restores the checkpoint; because
checkpoints carry counters and fresh machines re-bind warm to the shared
``image._translation_store`` entry, eviction is invisible to both digests
and budgets — only latency notices.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Optional

from repro.fabric.supervise import _env_number
from repro.serve.session import Session

#: Default live-machine cap when ``REPRO_SERVE_POOL`` is unset.
DEFAULT_CAPACITY = 8


def resolve_capacity(capacity: Optional[int] = None) -> int:
    """Live-machine cap: explicit > ``REPRO_SERVE_POOL`` env > 8."""
    if capacity is not None:
        return max(1, int(capacity))
    env = _env_number("REPRO_SERVE_POOL", int, 1)
    return DEFAULT_CAPACITY if env is None else env


class MachinePool:
    """LRU set of sessions currently holding a live machine."""

    def __init__(self, capacity: Optional[int] = None):
        self.capacity = resolve_capacity(capacity)
        self._live: "OrderedDict[str, Session]" = OrderedDict()
        self.leases = 0
        self.builds = 0
        self.warm_builds = 0
        self.evictions = 0

    def lease(self, session: Session):
        """The session's live machine, building/reviving as needed.

        Marks the session most-recently-used; may evict another session's
        machine to stay within capacity.
        """
        self.leases += 1
        sid = session.session_id
        if sid in self._live:
            self._live.move_to_end(sid)
            return session.machine
        while len(self._live) >= self.capacity:
            _, victim = self._live.popitem(last=False)
            victim.park()
            self.evictions += 1
        machine = session.build_machine()
        self.builds += 1
        if session.warm_start:
            self.warm_builds += 1
        self._live[sid] = session
        return machine

    def drop(self, session: Session):
        """Forget a session's machine without parking (session close)."""
        self._live.pop(session.session_id, None)
        session.machine = None

    def park_all(self):
        """Checkpoint every live session (graceful shutdown)."""
        while self._live:
            _, session = self._live.popitem(last=False)
            session.park()

    def stats(self) -> dict:
        return {
            "capacity": self.capacity,
            "live": len(self._live),
            "leases": self.leases,
            "builds": self.builds,
            "warm_builds": self.warm_builds,
            "evictions": self.evictions,
        }
