"""Live service mode: supervised scenarios with a queryable control
plane.  The paper's pitch (§1) is *online* diagnosis — monitoring you can query
and steer while the system serves traffic, not a trace you inspect
afterwards.  Batch experiments (``repro.experiments``) build a scenario
from this package's registry, run it to a horizon, and post-process;
this package also keeps the same deterministic simulation *alive*: a :class:`Supervisor` pumps a long-running
:class:`Scenario` in bounded slices while a versioned request/response +
subscription API — served in-process (:class:`ServiceClient`) or over a
line-delimited JSON socket (:class:`ServiceServer`) — answers queries
and applies controls at slice boundaries.  ``python -m repro serve``
wraps it all in a streaming terminal dashboard.

See ``docs/service.md`` for the API reference and the determinism
contract (an uncontrolled supervised run is byte-identical to batch).
"""

from repro.service.dashboard import render, stream
from repro.service.scenarios import SCENARIOS, Scenario, build_scenario
from repro.service.server import (
    ServiceCallError,
    ServiceClient,
    ServiceServer,
    SocketClient,
)
from repro.service.supervisor import (
    EVENT_KINDS,
    OPS,
    PROTOCOL_VERSION,
    ServiceError,
    Supervisor,
)

__all__ = [
    "EVENT_KINDS",
    "OPS",
    "PROTOCOL_VERSION",
    "SCENARIOS",
    "Scenario",
    "ServiceCallError",
    "ServiceClient",
    "ServiceError",
    "ServiceServer",
    "SocketClient",
    "Supervisor",
    "build_scenario",
    "render",
    "stream",
]
