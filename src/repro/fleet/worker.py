"""The fleet worker: one process, one :class:`ServingDaemon`, one pipe.

:func:`worker_main` is the spawn entry point the router launches each
worker process on.  A worker owns a full dynamic-batching
:class:`~repro.serve.daemon.ServingDaemon` — per-tenant queues, plan
compilation, hot-swap pinning, metrics — and speaks the
:mod:`repro.fleet.wire` frame protocol over one duplex
:class:`multiprocessing.connection.Connection` back to the router:

================  =====================================================
router op         worker behaviour
================  =====================================================
``serve``         admit the frame's image block via
                  :meth:`~repro.serve.daemon.ServingDaemon.submit_batch`
                  and reply with logits, or with a typed error
                  (``queue_full`` is the retriable one the router
                  rebalances on)
``register``      create/replace a tenant namespace from its ``tenant``
                  and ``artifact`` fields (lazy compile of the default
                  plan)
``probe``         force-compile a tenant's plan and report its shape —
                  the rollout step that proves a new artifact serves
                  before the worker re-enters rotation
``snapshot``      the daemon's JSON metrics surface (includes per-tenant
                  store fetch counters for store-ref tenants)
``ping``          ``pong`` — the router's liveness heartbeat
``stop``          drain (or abort) the daemon, acknowledge, exit
================  =====================================================

Replies are serialised through one sender thread, so result frames,
pongs and acks leave in submission order and a large logits frame can
never interleave mid-write with a heartbeat.  ``faulthandler`` is
enabled first thing: a crashing or wedged worker dumps every thread's
stack to stderr, which the fault-injection harness and CI rely on
instead of a silent hang.
"""

from __future__ import annotations

import asyncio
import faulthandler
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, Optional

import numpy as np

from ..serve import (
    DaemonClosedError,
    QueueFullError,
    ServeConfig,
    ServingDaemon,
    UnknownTenantError,
)
from .wire import decode_frame, encode_frame

__all__ = ["worker_main"]


class _Replies:
    """FIFO reply channel: one sender thread, one lock-free ordering."""

    def __init__(self, conn) -> None:
        self._conn = conn
        self._pool = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="fleet-send"
        )
        self._lock = threading.Lock()

    def send(self, message: Dict, arrays: Optional[Dict] = None) -> None:
        data = encode_frame(message, arrays)

        def _write() -> None:
            try:
                with self._lock:
                    self._conn.send_bytes(data)
            except (BrokenPipeError, OSError):
                pass  # router is gone; the reader loop will exit too

        self._pool.submit(_write)

    def close(self) -> None:
        self._pool.shutdown(wait=True)


async def _serve_block(
    daemon: ServingDaemon, replies: _Replies, message: Dict, images
) -> None:
    """Run one dispatched image block and reply with logits or an error."""
    ident = message["id"]
    tenant = message["tenant"]
    try:
        logits = await daemon.submit_batch(tenant, images)
    except QueueFullError as error:
        replies.send(
            {"op": "result", "id": ident, "ok": False,
             "kind": "queue_full", "error": str(error)}
        )
    except (DaemonClosedError,) as error:
        replies.send(
            {"op": "result", "id": ident, "ok": False,
             "kind": "closed", "error": str(error)}
        )
    except UnknownTenantError as error:
        replies.send(
            {"op": "result", "id": ident, "ok": False,
             "kind": "fatal", "error": str(error)}
        )
    except Exception as error:  # noqa: BLE001 — typed and forwarded
        replies.send(
            {"op": "result", "id": ident, "ok": False,
             "kind": "fatal", "error": f"{type(error).__name__}: {error}"}
        )
    else:
        replies.send(
            {"op": "result", "id": ident, "ok": True},
            {"logits": np.ascontiguousarray(logits)},
        )


async def _probe(
    daemon: ServingDaemon, replies: _Replies, message: Dict
) -> None:
    """Compile (or re-validate) a tenant's plan off the event loop."""
    ident = message["id"]
    tenant = message["tenant"]
    loop = asyncio.get_running_loop()
    try:
        tenant_obj = daemon.registry.get(tenant)
        plan, _ = await loop.run_in_executor(None, tenant_obj.plan)
    except Exception as error:  # noqa: BLE001 — probe outcome is the reply
        replies.send(
            {"op": "result", "id": ident, "ok": False,
             "kind": "fatal", "error": f"{type(error).__name__}: {error}"}
        )
    else:
        replies.send(
            {"op": "result", "id": ident, "ok": True,
             "plan_steps": len(plan)}
        )


async def _run(conn, name: str, config: ServeConfig) -> None:
    daemon = ServingDaemon(config)
    replies = _Replies(conn)
    reader = ThreadPoolExecutor(max_workers=1, thread_name_prefix="fleet-recv")
    loop = asyncio.get_running_loop()
    tasks: "set[asyncio.Task]" = set()
    drain = True
    try:
        while True:
            try:
                data = await loop.run_in_executor(reader, conn.recv_bytes)
            except (EOFError, OSError):
                drain = False  # router vanished: abort, don't linger
                break
            try:
                message, arrays = decode_frame(data)
            except ValueError:
                # a frame that fails CRC or framing checks cannot be
                # trusted, and neither can anything after it: die
                # cleanly so the router's death path re-dispatches our
                # in-flight blocks to healthy workers
                drain = False
                break
            op = message["op"]
            if op == "serve":
                task = loop.create_task(
                    _serve_block(daemon, replies, message, arrays["images"])
                )
                tasks.add(task)
                task.add_done_callback(tasks.discard)
            elif op == "register":
                daemon.register(message["tenant"], message["artifact"])
                replies.send(
                    {"op": "result", "id": message["id"], "ok": True}
                )
            elif op == "probe":
                task = loop.create_task(_probe(daemon, replies, message))
                tasks.add(task)
                task.add_done_callback(tasks.discard)
            elif op == "snapshot":
                replies.send(
                    {"op": "result", "id": message["id"], "ok": True,
                     "snapshot": daemon.snapshot(), "worker": name}
                )
            elif op == "ping":
                replies.send({"op": "pong", "worker": name})
            elif op == "stop":
                drain = bool(message.get("drain", True))
                await daemon.stop(drain=drain)
                replies.send(
                    {"op": "result", "id": message["id"], "ok": True}
                )
                break
            else:
                replies.send(
                    {"op": "result", "id": message.get("id"), "ok": False,
                     "kind": "fatal", "error": f"unknown op {op!r}"}
                )
    finally:
        if tasks:
            await asyncio.gather(*tuple(tasks), return_exceptions=True)
        await daemon.stop(drain=drain)
        replies.close()
        reader.shutdown(wait=False)


def worker_main(conn, name: str, config: ServeConfig) -> None:
    """Process entry point: serve frames on ``conn`` until told to stop.

    Importable at module scope so the ``spawn`` start method (the
    fleet's default — no inherited locks or event loops) can locate it.
    """
    faulthandler.enable()
    try:
        asyncio.run(_run(conn, name, config))
    except KeyboardInterrupt:
        pass
    finally:
        try:
            conn.close()
        except OSError:
            pass
