"""Multi-process serving fleet: router, health-checked workers, rollouts.

This package scales the single-process :mod:`repro.serve` daemon out to
a fleet: a :class:`FleetRouter` front process owns admission and
dispatches tenant image blocks over length-prefixed frames
(:mod:`repro.fleet.wire`) to N worker processes
(:mod:`repro.fleet.worker`), each running its own dynamic-batching
:class:`~repro.serve.daemon.ServingDaemon` against store-ref tenants —
so every worker faults in only the layer blobs it actually serves, and
the per-worker fetch counters in ``fleet status`` show it.

The paper (DATE 2023, *Exploiting Kernel Compression on BNNs*) makes
binary models small enough that one host easily holds many; the fleet
layer is the serving counterpart: many small compressed models behind
one admission point, with worker crashes survived by transparent
failover and new artifact versions deployed by rolling, availability-
floored hot-swaps (:meth:`FleetRouter.rollout`) that never mix model
versions inside a batch.  A tenant is registered by name and artifact
alone (the wire ``register`` message carries nothing else); every
worker compiles the default plan, and spawned workers inherit the
router's environment, so ``REPRO_THREADS`` pins their contraction width.
"""

from .resilience import CircuitBreaker, RetryPolicy
from .router import (
    FleetClosedError,
    FleetConfig,
    FleetError,
    FleetRouter,
    NoHealthyWorkersError,
    RequestTimeoutError,
    RolloutError,
    RolloutResult,
    WorkerFailedError,
)
from .wire import decode_frame, encode_frame
from .worker import worker_main

__all__ = [
    "CircuitBreaker",
    "FleetClosedError",
    "FleetConfig",
    "FleetError",
    "FleetRouter",
    "NoHealthyWorkersError",
    "RequestTimeoutError",
    "RetryPolicy",
    "RolloutError",
    "RolloutResult",
    "WorkerFailedError",
    "decode_frame",
    "encode_frame",
    "worker_main",
]
