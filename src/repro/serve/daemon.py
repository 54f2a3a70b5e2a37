"""The async dynamic-batching serving daemon.

:class:`ServingDaemon` owns, per tenant, an asyncio queue and a batcher
task.  ``submit()`` enqueues one image and awaits its logits; the
batcher coalesces whatever is queued into one
:meth:`~repro.infer.plan.InferencePlan.run_batch` call — flushing when
``max_batch`` requests have gathered or the oldest has waited
``max_wait_ms``, whichever comes first — and executes it on a thread
pool so the event loop never blocks on numpy.  Backpressure is a
bounded per-tenant in-flight count: past ``queue_depth`` admissions a
submit fails fast with the retriable :class:`QueueFullError` instead of
letting latency grow without bound.  ``stop(drain=True)`` refuses new
work, flushes everything already admitted, and joins the pool.
"""

from __future__ import annotations

import asyncio
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from .metrics import ServingMetrics
from .tenants import Tenant, TenantRegistry, UnknownTenantError

__all__ = [
    "DaemonClosedError",
    "QueueFullError",
    "ServeConfig",
    "ServingDaemon",
]


class QueueFullError(RuntimeError):
    """Backpressure rejection: the tenant's queue is full. Retriable —
    the queue drains at the engine's batched throughput, so backing off
    and resubmitting is the intended client response."""


class DaemonClosedError(RuntimeError):
    """The daemon is shutting down (or stopped); not retriable here."""


@dataclass(frozen=True)
class ServeConfig:
    """Knobs of the dynamic batcher (the CLI flags map onto these)."""

    #: flush a batch once this many requests have coalesced
    max_batch: int = 32
    #: ... or once the oldest queued request has waited this long
    max_wait_ms: float = 2.0
    #: per-tenant bound on admitted-but-unfinished *images* (a
    #: submit_batch block of B images consumes B units of this budget)
    queue_depth: int = 256
    #: thread-pool width: how many tenant batches may run concurrently
    workers: int = 2
    #: latency reservoir size per tenant (see ServingMetrics)
    latency_window: int = 8192

    def __post_init__(self) -> None:
        if self.max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {self.max_batch}")
        if self.max_wait_ms < 0:
            raise ValueError(
                f"max_wait_ms must be >= 0, got {self.max_wait_ms}"
            )
        if self.queue_depth < 1:
            raise ValueError(
                f"queue_depth must be >= 1, got {self.queue_depth}"
            )
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")


class _Request:
    """One admitted unit of work: a ``(B, ...)`` image block, its future,
    and the admit timestamp.

    ``submit`` admits single-image units (``B == 1``, ``single=True`` —
    the future resolves to that image's ``(classes,)`` logits);
    ``submit_batch`` admits whole blocks whose future resolves to the
    ``(B, classes)`` slice.  ``count`` is what the backpressure budget
    and the batcher's flush threshold are measured in: images, not
    units, so a mixed stream of singles and blocks shares one budget.
    """

    __slots__ = ("images", "count", "single", "future", "admitted_at")

    def __init__(
        self,
        images: np.ndarray,
        future: "asyncio.Future",
        single: bool = False,
    ) -> None:
        self.images = images
        self.count = images.shape[0]
        self.single = single
        self.future = future
        self.admitted_at = time.perf_counter()


#: queue sentinel telling a batcher to flush and exit
_SHUTDOWN = object()


class _TenantLane:
    """Per-tenant scheduler state: queue, batcher task, in-flight count."""

    __slots__ = ("queue", "batcher", "inflight")

    def __init__(self) -> None:
        self.queue: "asyncio.Queue" = asyncio.Queue()
        self.batcher: Optional["asyncio.Task"] = None
        self.inflight = 0


class ServingDaemon:
    """Dynamic-batching multi-tenant server over compiled plans.

    Usage::

        daemon = ServingDaemon(ServeConfig(max_batch=64, max_wait_ms=2))
        daemon.register("prod", "model.npz")
        async with daemon:                    # stop(drain=True) on exit
            logits = await daemon.submit("prod", image)   # (classes,)

    Requests for one tenant must share an image shape (they are stacked
    into one ``(B, C, H, W)`` batch); a shape mismatch fails that batch's
    requests with the stacking error.  Tenants are isolated: each has
    its own queue, backpressure budget, plan and metrics, so one
    tenant's flood cannot reject another's traffic.
    """

    def __init__(
        self,
        config: Optional[ServeConfig] = None,
        registry: Optional[TenantRegistry] = None,
    ) -> None:
        self.config = config or ServeConfig()
        self.registry = registry or TenantRegistry()
        self.metrics = ServingMetrics(
            latency_window=self.config.latency_window
        )
        self._executor = ThreadPoolExecutor(
            max_workers=self.config.workers,
            thread_name_prefix="repro-serve",
        )
        self._lanes: Dict[str, _TenantLane] = {}
        self._inflight_tasks: "set[asyncio.Task]" = set()
        self._closing = False
        self._stopped = False

    # ------------------------------------------------------------------
    # Tenant management
    # ------------------------------------------------------------------
    def register(self, name: str, artifact: str) -> Tenant:
        """Register (or replace) a tenant namespace; compiles lazily."""
        return self.registry.register(name, artifact)

    # ------------------------------------------------------------------
    # Request path
    # ------------------------------------------------------------------
    async def submit(self, tenant: str, image: np.ndarray) -> np.ndarray:
        """Serve one image through the tenant's plan; returns its logits.

        Raises :class:`UnknownTenantError` for unregistered names,
        :class:`QueueFullError` when the tenant's backpressure budget is
        exhausted (retriable), and :class:`DaemonClosedError` after
        shutdown has begun.
        """
        image = np.asarray(image, dtype=np.float32)
        return await self._admit(tenant, image[None], single=True)

    async def submit_batch(
        self, tenant: str, images: np.ndarray
    ) -> np.ndarray:
        """Serve a ``(B, ...)`` block of images as one admission unit.

        The batch-granular ingress the fleet router dispatches through:
        one admission check, one queue entry and one future cover ``B``
        images, so none of the per-image event-loop overhead of
        :meth:`submit` is paid — while the block still coalesces with
        whatever else is queued, exactly like single submissions.
        Returns the block's ``(B, classes)`` logits; all-or-nothing —
        a block is either admitted whole or rejected whole.
        """
        images = np.asarray(images, dtype=np.float32)
        if images.ndim < 2 or images.shape[0] < 1:
            raise ValueError(
                f"expected a non-empty (B, ...) image block, got shape "
                f"{images.shape}"
            )
        return await self._admit(tenant, images, single=False)

    async def _admit(
        self, tenant: str, images: np.ndarray, single: bool
    ) -> np.ndarray:
        if self._closing:
            raise DaemonClosedError("daemon is shutting down")
        tenant_obj = self.registry.get(tenant)  # raises UnknownTenantError
        lane = self._lane(tenant_obj.name)
        count = images.shape[0]
        # a block larger than the whole budget could never be admitted;
        # let it through alone on an idle lane rather than livelock the
        # retry loop of a misconfigured client
        if (
            lane.inflight + count > self.config.queue_depth
            and not (lane.inflight == 0 and count > self.config.queue_depth)
        ):
            self.metrics.record_rejected(tenant)
            raise QueueFullError(
                f"tenant {tenant!r} queue is full "
                f"({lane.inflight}/{self.config.queue_depth} images in "
                f"flight, {count} offered); back off and retry"
            )
        lane.inflight += count
        self.metrics.record_admitted(tenant)
        request = _Request(
            images,
            asyncio.get_running_loop().create_future(),
            single=single,
        )
        lane.queue.put_nowait(request)
        return await request.future

    def _lane(self, name: str) -> _TenantLane:
        lane = self._lanes.get(name)
        if lane is None:
            lane = _TenantLane()
            lane.batcher = asyncio.get_running_loop().create_task(
                self._batch_loop(name, lane)
            )
            self._lanes[name] = lane
        return lane

    # ------------------------------------------------------------------
    # Dynamic batcher
    # ------------------------------------------------------------------
    async def _batch_loop(self, name: str, lane: _TenantLane) -> None:
        """Coalesce queued requests into run_batch-sized flushes."""
        loop = asyncio.get_running_loop()
        max_wait = self.config.max_wait_ms / 1e3
        while True:
            first = await lane.queue.get()
            if first is _SHUTDOWN:
                return
            batch: List[_Request] = [first]
            gathered = first.count
            deadline = loop.time() + max_wait
            shutdown = False
            try:
                while gathered < self.config.max_batch:
                    try:
                        # fast path: burst already queued — drain without
                        # paying a wait_for wrapper task per item
                        item = lane.queue.get_nowait()
                    except asyncio.QueueEmpty:
                        remaining = deadline - loop.time()
                        if remaining <= 0:
                            break
                        try:
                            item = await asyncio.wait_for(
                                lane.queue.get(), timeout=remaining
                            )
                        except asyncio.TimeoutError:
                            break
                    if item is _SHUTDOWN:
                        shutdown = True
                        break
                    batch.append(item)
                    gathered += item.count
            except asyncio.CancelledError:
                # aborted mid-collection: requests already claimed into
                # the partial batch would otherwise never resolve
                for request in batch:
                    lane.inflight -= request.count
                    if not request.future.done():
                        request.future.set_exception(
                            DaemonClosedError("daemon stopped before serving")
                        )
                raise
            self._dispatch(name, lane, batch)
            if shutdown:
                return

    def _dispatch(
        self, name: str, lane: _TenantLane, batch: List[_Request]
    ) -> None:
        task = asyncio.get_running_loop().create_task(
            self._execute(name, lane, batch)
        )
        self._inflight_tasks.add(task)
        task.add_done_callback(self._inflight_tasks.discard)

    async def _execute(
        self, name: str, lane: _TenantLane, batch: List[_Request]
    ) -> None:
        """Run one coalesced batch on the thread pool and fan results out."""
        loop = asyncio.get_running_loop()
        tenant = self.registry.get(name)
        total = sum(request.count for request in batch)

        def run_on_worker():
            images = np.concatenate([request.images for request in batch])
            plan, swapped = tenant.plan()  # lazy compile / hot-swap
            return plan.run_batch(images), swapped

        try:
            logits, swapped = await loop.run_in_executor(
                self._executor, run_on_worker
            )
        except Exception as error:  # noqa: BLE001 — forwarded to callers
            for request in batch:
                if not request.future.done():
                    request.future.set_exception(error)
                self.metrics.record_failed(name)
            return
        finally:
            lane.inflight -= total
        self.metrics.record_batch(name, total, swapped)
        completed_at = time.perf_counter()
        offset = 0
        for request in batch:
            if not request.future.done():
                block = logits[offset:offset + request.count]
                request.future.set_result(block[0] if request.single else block)
                self.metrics.record_completed(
                    name, completed_at - request.admitted_at
                )
            offset += request.count

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def stop(self, drain: bool = True) -> None:
        """Shut down: refuse new work, then drain or abort the queues.

        ``drain=True`` (graceful) flushes every admitted request through
        the engine before the pool is joined — no accepted request is
        dropped.  ``drain=False`` cancels the batchers and fails queued
        requests with :class:`DaemonClosedError`.
        """
        if self._stopped:
            return
        self._closing = True
        if drain:
            for lane in self._lanes.values():
                lane.queue.put_nowait(_SHUTDOWN)
            batchers = [
                lane.batcher for lane in self._lanes.values() if lane.batcher
            ]
            if batchers:
                await asyncio.gather(*batchers)
            while self._inflight_tasks:
                await asyncio.gather(
                    *tuple(self._inflight_tasks), return_exceptions=True
                )
        else:
            batchers = []
            for lane in self._lanes.values():
                if lane.batcher is not None:
                    lane.batcher.cancel()
                    batchers.append(lane.batcher)
                while not lane.queue.empty():
                    item = lane.queue.get_nowait()
                    if item is _SHUTDOWN:
                        continue
                    lane.inflight -= item.count
                    if not item.future.done():
                        item.future.set_exception(
                            DaemonClosedError("daemon stopped before serving")
                        )
            if batchers:
                await asyncio.gather(*batchers, return_exceptions=True)
            if self._inflight_tasks:
                await asyncio.gather(
                    *tuple(self._inflight_tasks), return_exceptions=True
                )
        self._stopped = True
        self._executor.shutdown(wait=True)

    async def __aenter__(self) -> "ServingDaemon":
        return self

    async def __aexit__(self, exc_type, exc, tb) -> None:
        await self.stop(drain=exc_type is None)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def queue_depths(self) -> Dict[str, int]:
        """Live admitted-but-unfinished image count per tenant."""
        return {name: lane.inflight for name, lane in self._lanes.items()}

    def snapshot(self) -> Dict:
        """The JSON metrics surface: config, tenants, counters, depths."""
        snapshot = self.metrics.to_dict(queue_depths=self.queue_depths())
        snapshot["config"] = {
            "max_batch": self.config.max_batch,
            "max_wait_ms": self.config.max_wait_ms,
            "queue_depth": self.config.queue_depth,
            "workers": self.config.workers,
        }
        snapshot["registry"] = self.registry.describe()
        return snapshot
