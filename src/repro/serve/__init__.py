"""Async dynamic-batching multi-tenant serving daemon (the paper, live).

The paper's whole premise is that a BNN's compressed kernels are decoded
*once per batch of work*, not once per scalar use: the hardware decoding
unit (Fig. 6) amortises its decode latency across the many convolutions
a batch of inputs drives through each layer, which is why Sec. IV-B's
execution model is batched at its core.  :mod:`repro.infer` reproduced
that arithmetic — ~17-22x serving throughput when work reaches
:meth:`~repro.infer.plan.InferencePlan.run_batch` in batches — but real
traffic arrives as *single* images from many concurrent clients.  This
package closes that gap the same way the decoder does: it queues the
single-image requests and coalesces them back into the large batches the
engine (and the hardware it models) is built to amortise.

How the pieces map onto the batched-decoder rationale:

===============================  ======================================
decoder / serving concept        package counterpart
===============================  ======================================
requests accumulate while the    :class:`~repro.serve.daemon.ServingDaemon`'s
decode unit works                per-tenant asyncio queue; the dynamic
                                 batcher flushes on ``max_batch`` or
                                 ``max_wait_ms``, whichever first
one decode serves a batch of     one ``run_batch`` call resolves every
convolutions                     coalesced request's future
bounded scratchpad, explicit     bounded ``queue_depth`` per tenant;
stall when full                  :class:`~repro.serve.daemon.QueueFullError`
                                 is the retriable software stall
weight version pinning           :class:`~repro.serve.tenants.Tenant`
(``BinaryConv2d.prepare()``)     pins its compiled plan to the
                                 artifact's version fingerprint and
                                 hot-swaps on change
utilisation counters             :class:`~repro.serve.metrics.ServingMetrics`:
                                 per-tenant request/batch counters,
                                 batch-size histogram, p50/p99 latency
===============================  ======================================

Quickstart::

    import asyncio
    from repro.serve import ServeConfig, ServingDaemon

    async def main():
        daemon = ServingDaemon(ServeConfig(max_batch=64, max_wait_ms=2))
        daemon.register("prod", "model.npz")      # lazy compile
        async with daemon:                        # graceful drain on exit
            logits = await daemon.submit("prod", image)
        print(daemon.snapshot())                  # JSON metrics surface

    asyncio.run(main())

The daemon serves one plan configuration, like the decoding unit's one
fixed configuration per deployed model: a tenant is just a name and an
artifact, compiled with :meth:`InferencePlan.from_artifact
<repro.infer.plan.InferencePlan.from_artifact>`'s defaults.
``REPRO_THREADS`` is the one contraction-width pin for serving.

Exactness carries through: the daemon only *schedules*; every batch
executes through the tenant's :class:`~repro.infer.plan.InferencePlan`,
so each request's logits stay bit-identical to the float reference
oracle evaluated at the coalesced minibatching.
"""

from .daemon import (
    DaemonClosedError,
    QueueFullError,
    ServeConfig,
    ServingDaemon,
)
from .metrics import LatencyWindow, ServingMetrics, TenantMetrics
from .tenants import Tenant, TenantRegistry, UnknownTenantError

__all__ = [
    "DaemonClosedError",
    "LatencyWindow",
    "QueueFullError",
    "ServeConfig",
    "ServingDaemon",
    "ServingMetrics",
    "Tenant",
    "TenantMetrics",
    "TenantRegistry",
    "UnknownTenantError",
]
