"""repro.service — simulation as a service: a sharded, multi-client
sweep daemon over the experiment engine.

The PR-1 engine is a one-shot library: every CLI invocation builds its
own process pool and talks to its own view of ``.repro-cache/``.  This
package promotes it to a **long-running daemon** so many concurrent
clients share one warm cache and one pool, with no duplicated in-flight
work:

**Protocol** (protocol.py).  Newline-delimited JSON over a Unix-domain
socket (and, optionally, a localhost HTTP front for the same requests).
Clients submit jobs in the executor's transport form
(``{"kind": ..., "job": {...}}``, see
:func:`~repro.engine.job.job_to_transport`), and the daemon streams one
``job`` event per finished job plus a terminal ``done`` summary.

**Daemon** (daemon.py).  The asyncio front end: accepts connections,
validates requests, fans submissions into one long-lived
:class:`~repro.engine.scheduler.Scheduler` — the engine's pool attempt
loop, which the embedded engine runs too — and streams results and
(for subscribed clients) live journal events back.  The scheduler is
the dedupe heart: one asyncio task per *unique* job key, so N clients
submitting the same key while it is in flight all await the same
execution (journaled once as ``"ok"``, the attachments as
``"shared"``); store hits short-circuit without touching the pool.  A
killed worker, a stuck one past its timeout and a failing job all end
as outcomes on the wire; client connections never drop.

**Client** (client.py).  A synchronous thin client whose
:meth:`~repro.service.client.ServiceClient.run` is engine-shaped
(returns :class:`~repro.engine.executor.JobOutcome` lists), so
``repro sweep --daemon``/``compare --daemon``/``fuzz --daemon`` reuse
the exact rendering and error paths of the embedded engine — and fall
back to it transparently when no daemon is listening.

Results served by the daemon are **digest-identical** to embedded-engine
results: both sides ship the one serialized ``to_dict()`` form the store
uses (a tested invariant, see ``tests/test_service.py``).
"""

from repro.service.client import (ServiceClient, ServiceError,
                                  ServiceUnavailable, connect_or_none)
from repro.service.daemon import ServiceDaemon
from repro.service.protocol import PROTOCOL_VERSION, ProtocolError

__all__ = [
    "PROTOCOL_VERSION", "ProtocolError", "ServiceClient",
    "ServiceDaemon", "ServiceError", "ServiceUnavailable",
    "connect_or_none",
]
