"""The three benchmark workloads and the measurements they share.

Each workload builds its inputs from the seed, sets the system up
several times (``setup_s`` is the median) and measures for the given
number of seconds.  Then, outside the timed region, it checks the
outputs it kept bit for bit against the float oracle
(``load_compressed_model(ref).forward_batched`` at the same
minibatching).

With ``trace`` on, a workload sets up once, measures half its time
untraced and half traced, and reports per-layer metrics for the traced
half (``setup.*`` time the traced set-up; ``decode``, ``store.read``,
``pack`` and ``signs`` cover the traced set-up too, since that is where
the kernels are fetched and decoded).  See README.md for what each
metric means and which end-to-end metric it should move.
"""

from __future__ import annotations

import asyncio
import contextlib
import gc
import os
import shutil
import statistics
import tempfile
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

import repro.infer.plan as plan_module
from repro.bnn.reactnet import build_reactnet, build_small_bnn
from repro.core.clustering import ClusteringConfig
from repro.deploy import ArtifactReader, load_compressed_model, save_compressed_model
from repro.fleet import FleetConfig, FleetError, FleetRouter, decode_frame, encode_frame
from repro.infer import InferencePlan, KernelEntry
from repro.serve import QueueFullError, ServeConfig, ServingDaemon
from repro.store import ArtifactStore, StoreRef
from repro.synth import generate_reactnet_kernels, install_kernels

from host import peak_rss_mb
from tracing import Tracer, patched

#: open-loop arrival rate of ``serve-poisson``, calibrated once on a
#: 2-core Xeon VM (see README.md): 400 req/s held p50 at 5.0-5.6 ms,
#: while at 1000 req/s p50 followed the host's steal time (6.1-9.7 ms).
#: A constant, never re-derived per run, so two commits see one load.
SERVE_RATE_PER_S = 400.0

#: the tenant / model name every workload publishes under
TENANT = "bnn"

#: window of the windowed medians on the many-request workloads
WINDOW_S = 1.0

WARM_BATCH = 8
FLEET_BLOCK = 64
FLEET_WORKERS = 2
FLEET_CLIENTS = 2


@dataclass(frozen=True)
class Scale:
    """Sizes of one benchmark configuration."""

    #: full ReActNet at 224x224 for ``reactnet-warm`` (else the small
    #: model stands in, through the same code path)
    reactnet: bool
    #: set-ups per run (``setup_s`` is their median)
    reactnet_setups: int
    serve_setups: int
    fleet_setups: int


FULL = Scale(reactnet=True, reactnet_setups=2, serve_setups=21, fleet_setups=5)
#: toy size for the self-test: the small model everywhere
TOY = Scale(reactnet=False, reactnet_setups=2, serve_setups=2, fleet_setups=2)


@dataclass
class Context:
    seed: int
    seconds: float
    trace: bool
    scale: Scale
    workdir: Path

    def fresh_store(self) -> str:
        """A new, empty store directory inside the work directory."""
        return tempfile.mkdtemp(prefix="store-", dir=self.workdir)


@dataclass
class Result:
    """What one workload run measured and checked."""

    attempted: int = 0
    #: rejected + errored + wrong-logit requests
    failed: int = 0
    #: wrong-logit requests only (any makes the run incorrect)
    mismatches: int = 0
    metrics: Dict[str, float] = field(default_factory=dict)
    #: extra facts for the human-readable report
    notes: Dict[str, object] = field(default_factory=dict)
    tracer: Optional[Tracer] = None


# ----------------------------------------------------------------------
# Inputs and artefacts
# ----------------------------------------------------------------------
def small_bnn(seed: int):
    """``small-bnn``: channels 16/32 on 8x8 single-channel images."""
    model = build_small_bnn(
        in_channels=1, num_classes=10, image_size=8, channels=(16, 32),
        seed=seed,
    )
    model.eval()
    return model, (1, 8, 8), None


def reactnet(seed: int):
    """Full ReActNet with paper-calibrated 3x3 kernels."""
    model = build_reactnet(seed=seed)
    install_kernels(model, generate_reactnet_kernels(seed=seed))
    model.eval()
    return model, (3, 224, 224), ClusteringConfig(num_common=64, num_rare=400)


def images(seed: int, stream: int, shape: Sequence[int]) -> np.ndarray:
    rng = np.random.default_rng([seed, stream])
    return rng.standard_normal(tuple(shape)).astype(np.float32)


def artifact_bytes(ref: str) -> int:
    """Bytes of the blobs the published manifest references."""
    parsed = StoreRef.parse(ref)
    store = ArtifactStore(parsed.root, create=False)
    return store.describe()["models"][parsed.name]["bytes"]


def phase(tracer: Optional[Tracer], name: str):
    return tracer.span(name) if tracer is not None else contextlib.nullcontext()


def bit_equal(a: np.ndarray, b: np.ndarray) -> bool:
    a = np.ascontiguousarray(a, dtype=np.float32)
    b = np.ascontiguousarray(b, dtype=np.float32)
    return a.shape == b.shape and np.array_equal(
        a.view(np.uint32), b.view(np.uint32)
    )


def repeat_setup(ctx: Context, reps: int, set_up: Callable, tear_down: Callable):
    """Run ``set_up`` ``reps`` times; keep the last, tear down the rest.

    ``set_up(tracer)`` returns ``(state, seconds)``.  A traced run sets
    up once, with the ``setup.*`` phases and the artifact calls recorded.
    """
    tracer = Tracer() if ctx.trace else None
    reps = 1 if ctx.trace else reps
    times = []
    state = None
    for _ in range(reps):
        if state is not None:
            tear_down(state)
            state = None
            gc.collect()
        with traced_setup(tracer):
            state, seconds = set_up(tracer)
        times.append(seconds)
    return state, statistics.median(times), times, tracer


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def quantile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank quantile (the maximum when ``q`` exceeds 1 - 1/n)."""
    ordered = sorted(samples)
    rank = max(1, int(np.ceil(q * len(ordered))))
    return ordered[min(rank, len(ordered)) - 1]


def windowed(events: Sequence[Tuple[float, float]], start: float,
             seconds: float, images_per_request: int) -> Tuple[float, float]:
    """``(images_per_s, latency_p50_s)`` as medians over 1-second windows.

    ``events`` are ``(completion time, latency)`` pairs.  Each window
    gives its completion rate, between its first and last completion,
    and its median latency; the medians of those keep a contention burst
    on a shared host from moving a whole run's figure.
    """
    count = max(1, round(seconds / WINDOW_S))
    width = seconds / count
    windows: List[List[Tuple[float, float]]] = [[] for _ in range(count)]
    for ended, latency in sorted(events):
        index = int((ended - start) // width)
        if 0 <= index < count:
            windows[index].append((ended, latency))
    windows = [window for window in windows if len(window) >= 2]
    rate = statistics.median(
        (len(window) - 1) * images_per_request / (window[-1][0] - window[0][0])
        for window in windows
    )
    p50 = statistics.median(
        statistics.median(latency for _, latency in window)
        for window in windows
    )
    return rate, p50


def latency_notes(latencies_s: Sequence[float]) -> Dict[str, object]:
    """The latency tail, reported beside the metrics but not gated.

    On a shared 2-vCPU host the p90-p99 of the open-loop and fleet
    workloads moved by 0.3-1.2 of their median between runs, so no
    regression bound the benchmark may set would hold them.
    """
    count = len(latencies_s)
    beyond = count - int(np.ceil(0.99 * count))
    return {
        "latency_samples": count,
        "latency_p99_ms": quantile(latencies_s, 0.99) * 1e3,
        # below ten samples beyond it the p99 reads as the slowest few
        "samples_beyond_p99": beyond,
    }


# ----------------------------------------------------------------------
# Plan instrumentation (traced runs only)
# ----------------------------------------------------------------------
def step_span_name(step) -> str:
    if step.kind == "float":
        return f"plan.float.{step.label}"
    return f"plan.{step.kind}"


def _decode_measure(args, result) -> Dict[str, float]:
    entry = args[1]
    compressed = entry.get("storage") == "compressed3x3"
    return {"sequences": result.shape[0] * result.shape[1] if compressed else 0}


def instrument_plan(stack: contextlib.ExitStack, tracer: Tracer, plan) -> None:
    """Record spans around each step of ``plan``."""
    for step in plan.steps:
        stack.enter_context(
            patched(step, "run", tracer.wrap(step_span_name(step), step.run))
        )


def instrument_artifact(stack: contextlib.ExitStack, tracer: Tracer) -> None:
    """Record the store reads, decodes, packing and sign matrices of plans."""
    for attribute, name, measure in (
        ("kernel_bits", "decode", _decode_measure),
        ("stream_blob", "store.read", None),
    ):
        stack.enter_context(patched(
            ArtifactReader, attribute,
            tracer.wrap(name, getattr(ArtifactReader, attribute), measure),
        ))
    stack.enter_context(patched(
        plan_module, "pack_kernel_channels",
        tracer.wrap("pack", plan_module.pack_kernel_channels),
    ))
    stack.enter_context(patched(
        KernelEntry, "signs", tracer.wrap("signs", KernelEntry.signs)
    ))


def instrument_module(stack: contextlib.ExitStack, tracer: Tracer) -> None:
    """Record the artifact, contraction and threshold-pack calls of plans."""
    instrument_artifact(stack, tracer)
    for attribute, name in (
        ("threshold_pack_patches", "contraction.threshold_pack"),
        ("contract_packed_patches", "contraction.contract"),
    ):
        stack.enter_context(patched(
            plan_module, attribute,
            tracer.wrap(name, getattr(plan_module, attribute)),
        ))


@contextlib.contextmanager
def traced_setup(tracer: Optional[Tracer]):
    """Record the artifact calls of a traced set-up, where kernels are decoded."""
    with contextlib.ExitStack() as stack:
        if tracer is not None:
            instrument_artifact(stack, tracer)
        yield


def plan_counters(plan) -> Dict[str, float]:
    cache = plan.cache_stats() or {}
    fetch = plan.fetch_stats() or {}
    contraction = plan.contraction_stats().values()
    return {
        "kernel_cache.hits": cache.get("hits", 0),
        "kernel_cache.misses": cache.get("misses", 0),
        "contraction.calls": sum(row["calls"] for row in contraction),
        "contraction.tiles": sum(row["tiles"] for row in contraction),
        "store.reads": fetch.get("reads", 0),
        "store.bytes_read": fetch.get("bytes_read", 0),
        "store.verifications": fetch.get("verifications", 0),
    }


def counter_delta(before: Dict[str, float], after: Dict[str, float]):
    return {name: after[name] - before[name] for name in after}


def setup_metrics(tracer: Tracer) -> Dict[str, float]:
    """``setup.*``: the traced set-up's phases, inclusive."""
    return {
        f"{name}_s": sum(span.duration for span in tracer.named(name))
        for name in ("setup.publish", "setup.compile", "setup.warm")
    }


def plan_span_metrics(tracer: Tracer) -> Dict[str, float]:
    """Self times and counts of an instrumented plan's spans."""
    own = tracer.self_times()
    metrics = {
        f"{name}_s": seconds
        for name, seconds in own.items()
        if name.startswith(("plan.", "contraction."))
    }
    for name in ("decode", "pack", "signs"):
        metrics[f"{name}.s"] = own.get(name, 0.0)
    metrics["store.read_s"] = own.get("store.read", 0.0)
    decodes = tracer.named("decode")
    sequences = sum(span.attrs["sequences"] for span in decodes)
    decode_wall = sum(span.duration for span in decodes)
    metrics["decode.kernels"] = len(decodes)
    metrics["decode.sequences"] = sequences
    metrics["decode.sequences_per_s"] = (
        sequences / decode_wall if decode_wall > 0 else 0.0
    )
    return metrics


def counter_metrics(before: Dict[str, float], plan) -> Dict[str, float]:
    """The plan's counters over the traced window.

    ``store.*`` also count the traced set-up, where the plan fetched its
    kernels, as ``decode.*`` do.
    """
    after = plan_counters(plan)
    metrics = counter_delta(before, after)
    for name in ("store.reads", "store.bytes_read", "store.verifications"):
        metrics[name] = after[name]
    hits, misses = metrics["kernel_cache.hits"], metrics["kernel_cache.misses"]
    metrics["kernel_cache.hit_ratio"] = (
        hits / (hits + misses) if hits + misses else 0.0
    )
    return metrics


def median_call_ms(function: Callable, reps: int) -> float:
    times = []
    for _ in range(reps):
        start = time.perf_counter()
        function()
        times.append(time.perf_counter() - start)
    return statistics.median(times) * 1e3


# ----------------------------------------------------------------------
# reactnet-warm: closed loop straight on the plan
# ----------------------------------------------------------------------
def reactnet_warm(ctx: Context) -> Result:
    build = reactnet if ctx.scale.reactnet else small_bnn
    model, shape, clustering = build(ctx.seed)
    pool = images(ctx.seed, 1, (2, WARM_BATCH) + shape)
    first = pool[0][:1]

    def set_up(tracer):
        store = ctx.fresh_store()
        start = time.perf_counter()
        with phase(tracer, "setup.publish"):
            ref = str(save_compressed_model(
                model, f"{store}#{TENANT}", clustering=clustering
            ))
        with phase(tracer, "setup.compile"):
            reader = ArtifactReader(ref)
            # a cache that keeps every packed kernel resident
            size = sum(entry["type"] == "BinaryConv2d" for entry in reader.entries)
            plan = InferencePlan.from_artifact(reader, cache_size=size)
        with phase(tracer, "setup.warm"):
            plan.run_batch(first)
        return (plan, ref, store), time.perf_counter() - start

    def tear_down(state):
        shutil.rmtree(state[2], ignore_errors=True)

    (plan, ref, _), setup_s, setup_times, tracer = repeat_setup(
        ctx, ctx.scale.reactnet_setups, set_up, tear_down
    )
    result = Result(tracer=tracer)
    result.notes["setup_times_s"] = setup_times
    outputs: Dict[int, List[np.ndarray]] = defaultdict(list)
    # warm-up: set-up's first result was a single image, and the first
    # full batch ran 15% slower than the ones after it
    plan.run_batch(pool[1])

    def measure(seconds: float, traced: bool):
        latencies = []
        start = time.perf_counter()
        deadline = start + seconds
        index = 0
        while True:
            which = index % len(pool)
            began = time.perf_counter()
            if traced:
                with tracer.span("request", request=index):
                    out = plan.run_batch(pool[which])
            else:
                out = plan.run_batch(pool[which])
            ended = time.perf_counter()
            latencies.append(ended - began)
            outputs[which].append(out)
            index += 1
            if ended >= deadline:
                break
        return latencies, index * WARM_BATCH / (ended - start)

    if ctx.trace:
        _, untraced_ips = measure(ctx.seconds / 2, traced=False)
        before = plan_counters(plan)
        with contextlib.ExitStack() as stack:
            instrument_module(stack, tracer)
            instrument_plan(stack, tracer, plan)
            latencies, traced_ips = measure(ctx.seconds / 2, traced=True)
        result.metrics.update(setup_metrics(tracer))
        result.metrics.update(plan_span_metrics(tracer))
        result.metrics.update(counter_metrics(before, plan))
        result.metrics["trace.overhead_frac"] = 1.0 - traced_ips / untraced_ips
    else:
        latencies, ips = measure(ctx.seconds, traced=False)
        result.metrics.update({
            "latency_p50_ms": statistics.median(latencies) * 1e3,
            "setup_s": setup_s,
            "images_per_s": ips,
            "peak_rss_mb": peak_rss_mb(),
            "artifact_bytes": artifact_bytes(ref),
        })
    result.notes.update(latency_notes(latencies))
    result.notes["batch"] = WARM_BATCH
    result.notes["cache"] = plan.cache_stats()

    # oracle: batch 0 is the checked sample, every repetition of it
    del plan
    gc.collect()
    oracle = load_compressed_model(ref)
    expected = oracle.forward_batched(pool[0], WARM_BATCH)
    result.mismatches = sum(not bit_equal(out, expected) for out in outputs[0])
    result.attempted = sum(len(outs) for outs in outputs.values())
    result.failed = result.mismatches
    result.notes["checked_requests"] = len(outputs[0])
    return result


# ----------------------------------------------------------------------
# serve-poisson: open-loop single images into one daemon tenant
# ----------------------------------------------------------------------
def serve_poisson(ctx: Context) -> Result:
    # one CPU for the whole daemon: on a shared 2-vCPU host, wake-ups
    # across vCPUs made p50 follow the host's steal time (5.1-10.2 ms
    # over five seeds unpinned, 5.1-6.4 ms pinned)
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    return asyncio.run(_serve_poisson(ctx))


async def _serve_poisson(ctx: Context) -> Result:
    model, shape, clustering = small_bnn(ctx.seed)
    pool = images(ctx.seed, 1, (256,) + shape)

    async def set_up_async(tracer):
        store = ctx.fresh_store()
        start = time.perf_counter()
        with phase(tracer, "setup.publish"):
            ref = str(save_compressed_model(
                model, f"{store}#{TENANT}", clustering=clustering
            ))
        with phase(tracer, "setup.compile"):
            daemon = ServingDaemon(ServeConfig())
            daemon.register(TENANT, ref)
            plan, _ = daemon.registry.get(TENANT).plan()
        with phase(tracer, "setup.warm"):
            await daemon.submit(TENANT, pool[0])
        return (daemon, plan, ref, store), time.perf_counter() - start

    tracer = Tracer() if ctx.trace else None
    setup_times = []
    state = None
    for _ in range(1 if ctx.trace else ctx.scale.serve_setups):
        if state is not None:
            await state[0].stop()
            shutil.rmtree(state[3], ignore_errors=True)
        with traced_setup(tracer):
            state, seconds = await set_up_async(tracer)
        setup_times.append(seconds)
    daemon, plan, ref, _ = state
    result = Result(tracer=tracer)
    result.notes["setup_times_s"] = setup_times

    # every batch the daemon forms, for the oracle at the same minibatching
    batches: List[Tuple[np.ndarray, np.ndarray]] = []
    run_batch = plan.run_batch

    def recording_run_batch(x, batch_size=None):
        out = run_batch(x, batch_size)
        batches.append((x, out))
        return out

    completed: List[Tuple[int, np.ndarray]] = []
    counts = {"rejected": 0, "errored": 0}

    async def measure(seconds: float, seed_stream: int, traced: bool):
        rng = np.random.default_rng([ctx.seed, seed_stream])
        expected = int(SERVE_RATE_PER_S * seconds * 1.5) + 16
        arrivals = np.cumsum(rng.exponential(1.0 / SERVE_RATE_PER_S, expected))
        arrivals = arrivals[arrivals < seconds]
        latencies: List[float] = []
        lags: List[float] = []
        ends: List[float] = []

        async def one(index: int, due: float) -> None:
            began = time.perf_counter()
            try:
                out = await daemon.submit(TENANT, pool[index % len(pool)])
            except QueueFullError:
                counts["rejected"] += 1
                return
            except Exception:  # noqa: BLE001 -- counted as failed
                counts["errored"] += 1
                return
            now = time.perf_counter()
            if traced:
                tracer.add("request", began, now, index)
            latencies.append(now - due)
            ends.append(now)
            completed.append((index % len(pool), out))

        tasks = []
        start = time.perf_counter() + 0.01
        for index, offset in enumerate(arrivals):
            due = start + offset
            delay = due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            lags.append(time.perf_counter() - due)
            tasks.append(asyncio.create_task(one(index, due)))
        await asyncio.gather(*tasks)
        rate, p50 = windowed(list(zip(ends, latencies)), start, seconds, 1)
        return latencies, lags, rate, p50, len(arrivals)

    def tenant_counters() -> Dict[str, float]:
        row = daemon.snapshot()["tenants"][TENANT]
        return {
            "batches": row["batches"], "rejected": row["rejected"],
            "images": row["batches"] * row["mean_batch_size"],
            "histogram": row["batch_histogram"],
        }

    with patched(plan, "run_batch", recording_run_batch):
        if ctx.trace:
            _, _, _, untraced_p50, sent_untraced = await measure(
                ctx.seconds / 2, 2, traced=False
            )
            before = tenant_counters()
            plan_before = plan_counters(plan)
            with contextlib.ExitStack() as stack:
                instrument_module(stack, tracer)
                instrument_plan(stack, tracer, plan)
                stack.enter_context(patched(
                    plan, "run_batch",
                    tracer.wrap("daemon.execute", recording_run_batch),
                ))
                latencies, lags, ips, p50, sent = await measure(
                    ctx.seconds / 2, 3, traced=True
                )
            after = tenant_counters()
            plan_counts = counter_metrics(plan_before, plan)
            sent += sent_untraced
        else:
            latencies, lags, ips, p50, sent = await measure(
                ctx.seconds, 2, traced=False
            )
    await daemon.stop()
    rss = peak_rss_mb()

    result.notes.update(latency_notes(latencies))
    result.notes["rate_per_s"] = SERVE_RATE_PER_S
    result.notes.update(counts)
    result.notes["loadgen_lag_p99_ms"] = quantile(lags, 0.99) * 1e3
    p50_ms = p50 * 1e3
    if ctx.trace:
        result.metrics.update(setup_metrics(tracer))
        result.metrics.update(plan_span_metrics(tracer))
        result.metrics.update(plan_counts)
        batches_in_window = after["batches"] - before["batches"]
        images_in_window = after["images"] - before["images"]
        result.metrics.update({
            "daemon.batches": batches_in_window,
            "daemon.rejected": after["rejected"] - before["rejected"],
            "daemon.mean_batch_size": (
                images_in_window / batches_in_window if batches_in_window else 0.0
            ),
            "loadgen.lag_p99_ms": quantile(lags, 0.99) * 1e3,
            # open loop: throughput follows the offered rate, so tracing
            # cost shows in latency; compare the two halves' p50
            "trace.overhead_frac": p50 / untraced_p50 - 1.0,
        })
        execute_ms = _direct_execute_ms(ref, pool, before["histogram"],
                                        after["histogram"])
        result.metrics["daemon.execute_ms"] = execute_ms
        result.metrics["daemon.overhead_ms"] = p50_ms - execute_ms
    else:
        result.metrics.update({
            "latency_p50_ms": p50_ms,
            "setup_s": statistics.median(setup_times),
            "images_per_s": ips,
            "peak_rss_mb": rss,
            "artifact_bytes": artifact_bytes(ref),
        })

    # oracle at the daemon's own minibatching: a request is correct when
    # its logits equal the oracle's for its image in a batch the daemon
    # actually formed
    oracle = load_compressed_model(ref)
    index_of = {pool[p].tobytes(): p for p in range(len(pool))}
    acceptable: Dict[int, set] = defaultdict(set)
    for batch_images, _ in batches:
        expected = oracle.forward_batched(batch_images, len(batch_images))
        for row, image in enumerate(batch_images):
            acceptable[index_of[image.tobytes()]].add(expected[row].tobytes())
    result.mismatches = sum(
        np.ascontiguousarray(out, dtype=np.float32).tobytes()
        not in acceptable[which]
        for which, out in completed
    )
    result.attempted = sent
    result.failed = counts["rejected"] + counts["errored"] + result.mismatches
    result.notes["checked_requests"] = len(completed)
    result.notes["batches_checked"] = len(batches)
    return result


def _direct_execute_ms(ref: str, pool: np.ndarray, before: Dict,
                       after: Dict) -> float:
    """Mean direct ``run_batch`` time at the batch sizes the daemon formed."""
    plan = InferencePlan.from_artifact(ref)
    plan.run_batch(pool[:1])
    total_ms = 0.0
    batches = 0
    for size_text, count in after.items():
        count -= before.get(size_text, 0)
        if count <= 0:
            continue
        size = int(size_text)
        total_ms += count * median_call_ms(
            lambda: plan.run_batch(pool[:size]), reps=5
        )
        batches += count
    return total_ms / batches if batches else 0.0


# ----------------------------------------------------------------------
# fleet-blocks: closed-loop image blocks through a multi-process fleet
# ----------------------------------------------------------------------
def fleet_blocks(ctx: Context) -> Result:
    scale = ctx.scale
    model, shape, clustering = small_bnn(ctx.seed)
    pool = images(ctx.seed, 1, (16, FLEET_BLOCK) + shape)

    def set_up(tracer):
        store = ctx.fresh_store()
        start = time.perf_counter()
        with phase(tracer, "setup.publish"):
            ref = str(save_compressed_model(
                model, f"{store}#{TENANT}", clustering=clustering
            ))
        with phase(tracer, "setup.compile"):
            router = FleetRouter(FleetConfig(workers=FLEET_WORKERS))
            router.start()
            router.register(TENANT, ref)
        with phase(tracer, "setup.warm"):
            router.submit(TENANT, pool[0])
        return (router, ref, store), time.perf_counter() - start

    def tear_down(state):
        state[0].stop()
        shutil.rmtree(state[2], ignore_errors=True)

    state = None
    try:
        state, setup_s, setup_times, tracer = repeat_setup(
            ctx, scale.fleet_setups, set_up, tear_down
        )
        router, ref, _ = state
        result = _drive_fleet(ctx, router, ref, pool, tracer)
    finally:
        if state is not None:
            state[0].stop()
    result.notes["setup_times_s"] = setup_times
    if not ctx.trace:
        result.metrics["setup_s"] = setup_s
        result.metrics["artifact_bytes"] = artifact_bytes(ref)

    oracle = load_compressed_model(ref)
    expected = [oracle.forward_batched(block, len(block)) for block in pool]
    completed = result.notes.pop("completed")
    result.mismatches = sum(
        not bit_equal(out, expected[which]) for which, out in completed
    )
    result.failed += result.mismatches
    result.notes["checked_requests"] = len(completed)
    return result


def _fleet_counters(router: FleetRouter) -> Dict:
    status = router.status(snapshots=True)
    daemon = {"batches": 0, "rejected": 0, "images": 0.0}
    for worker in status["workers"].values():
        row = (worker.get("snapshot") or {}).get("tenants", {}).get(TENANT)
        if row:
            daemon["batches"] += row["batches"]
            daemon["rejected"] += row["rejected"]
            daemon["images"] += row["batches"] * row["mean_batch_size"]
    pids = [w["pid"] for w in status["workers"].values() if w["pid"]]
    return {"fleet": dict(status["counters"]), "daemon": daemon, "pids": pids}


def _drive_fleet(ctx: Context, router: FleetRouter, ref: str,
                 pool: np.ndarray, tracer: Optional[Tracer]) -> Result:
    result = Result(tracer=tracer)
    clients = FLEET_CLIENTS
    completed: List[Tuple[int, np.ndarray]] = []
    failures = {"rejected": 0, "errored": 0}
    lock = threading.Lock()

    def measure(seconds: float, traced: bool):
        events: List[List[Tuple[float, float]]] = [[] for _ in range(clients)]
        start = time.perf_counter()
        deadline = start + seconds

        def client(number: int) -> None:
            index = number
            while time.perf_counter() < deadline:
                which = index % len(pool)
                began = time.perf_counter()
                try:
                    if traced:
                        with tracer.span("fleet.submit", request=index):
                            out = router.submit(TENANT, pool[which])
                    else:
                        out = router.submit(TENANT, pool[which])
                except QueueFullError:
                    with lock:
                        failures["rejected"] += 1
                    continue
                except FleetError:
                    with lock:
                        failures["errored"] += 1
                    continue
                finally:
                    index += clients
                ended = time.perf_counter()
                events[number].append((ended, ended - began))
                with lock:
                    completed.append((which, out))

        threads = [
            threading.Thread(target=client, args=(number,))
            for number in range(clients)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        flat = [event for client_events in events for event in client_events]
        rate, p50 = windowed(flat, start, seconds, pool.shape[1])
        return [latency for _, latency in flat], rate, p50

    if ctx.trace:
        _, untraced_ips, _ = measure(ctx.seconds / 2, traced=False)
        before = _fleet_counters(router)
        latencies, ips, p50 = measure(ctx.seconds / 2, traced=True)
        after = _fleet_counters(router)
        p50_ms = p50 * 1e3
        fleet = counter_delta(before["fleet"], after["fleet"])
        daemon = counter_delta(before["daemon"], after["daemon"])
        result.metrics.update(setup_metrics(tracer))
        result.metrics.update({
            "trace.overhead_frac": 1.0 - ips / untraced_ips,
            "fleet.dispatched": fleet["dispatched"],
            "fleet.rebalanced": fleet["rebalanced"],
            "fleet.worker_deaths": fleet["worker_deaths"],
            "daemon.batches": daemon["batches"],
            "daemon.rejected": daemon["rejected"],
            "daemon.mean_batch_size": (
                daemon["images"] / daemon["batches"] if daemon["batches"] else 0.0
            ),
        })
        result.metrics.update(_wire_ms(pool[0]))
        direct_ms = _direct_block_ms(ref, pool[0])
        result.metrics["fleet.direct_ms"] = direct_ms
        result.metrics["fleet.overhead_ms"] = p50_ms - direct_ms
    else:
        latencies, ips, p50 = measure(ctx.seconds, traced=False)
        after = _fleet_counters(router)
        result.metrics["latency_p50_ms"] = p50 * 1e3
        result.metrics["images_per_s"] = ips
        result.metrics["peak_rss_mb"] = peak_rss_mb(after["pids"])
    result.notes.update(latency_notes(latencies))
    result.notes.update(failures)
    result.notes["completed"] = completed
    result.attempted = len(completed) + failures["rejected"] + failures["errored"]
    result.failed = failures["rejected"] + failures["errored"]
    return result


def _wire_ms(block: np.ndarray) -> Dict[str, float]:
    """Encode/decode time of one request block frame and its reply."""
    logits = np.zeros((block.shape[0], 10), np.float32)
    messages = (
        ({"op": "serve", "id": 0, "tenant": TENANT}, {"images": block}),
        ({"op": "result", "id": 0, "ok": True}, {"logits": logits}),
    )
    encode = decode = 0.0
    for header, arrays in messages:
        frame = encode_frame(header, arrays)
        encode += median_call_ms(lambda: encode_frame(header, arrays), reps=200)
        decode += median_call_ms(lambda: decode_frame(frame), reps=200)
    return {"wire.encode_ms": encode, "wire.decode_ms": decode}


def _direct_block_ms(ref: str, block: np.ndarray) -> float:
    """One block through a local plan compiled like a worker's."""
    plan = InferencePlan.from_artifact(ref)
    plan.run_batch(block)
    return median_call_ms(lambda: plan.run_batch(block), reps=20)


WORKLOADS: Dict[str, Callable[[Context], Result]] = {
    "reactnet-warm": reactnet_warm,
    "serve-poisson": serve_poisson,
    "fleet-blocks": fleet_blocks,
}
