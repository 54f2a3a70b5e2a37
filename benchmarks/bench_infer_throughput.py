"""Batched packed-inference throughput: the serving engine's gate.

The acceptance floor for the plan-based engine (:mod:`repro.infer`): on
the small serving BNN, batched execution through
:meth:`~repro.infer.plan.InferencePlan.run_batch` at batch >= 32 must be
at least 10x the per-image float reference forward in images/sec, with
logits bit-identical to the reference at the same minibatching.  A
second section serves straight from a deploy artifact (on-demand stream
decode + LRU kernel cache) and tracks its throughput next to the
model-backed plan.  A third section gates the threaded tiled
contraction engine: on a >= 4-core host a threaded plan must clear
2.5x the single-threaded plan at batch >= 32 (reduced mode and smaller
hosts only record the ratio), and its logits must stay bit-identical
to the float oracle — threading must never change a single bit.

Results land in ``BENCH_infer.json`` (see ``benchmarks/conftest.py``) so
the serving-perf trajectory is tracked across PRs.  ``BENCH_REDUCED=1``
shrinks the workload for CI smoke runs and relaxes the speedup floor.
"""

import os
import tempfile
import time
from pathlib import Path

import numpy as np

from conftest import bench_reduced, update_bench_artifact

from repro.bnn.reactnet import build_small_bnn
from repro.deploy import load_compressed_model, save_compressed_model
from repro.infer import InferencePlan

#: the serving model: deploy-artifact scale (edge CPU, Sec. IV-B context)
CHANNELS = (16, 32)
IMAGE_SIZE = 8
NUM_CLASSES = 10

FULL_IMAGES = 1024
REDUCED_IMAGES = 128
FULL_BATCH = 64
REDUCED_BATCH = 32

#: acceptance floors (reduced mode amortises fixed costs over less work)
FULL_FLOOR = 12.0
REDUCED_FLOOR = 6.0

#: threaded-contraction gate: only enforced where threads can help
THREADED_MIN_CORES = 4
THREADED_FULL_FLOOR = 2.5
THREADED_REDUCED_FLOOR = 1.3


def _serving_model():
    model = build_small_bnn(
        in_channels=1, num_classes=NUM_CLASSES, image_size=IMAGE_SIZE,
        channels=CHANNELS, seed=0,
    )
    model.eval()
    return model


def _images(count: int) -> np.ndarray:
    rng = np.random.default_rng(0)
    return rng.standard_normal(
        (count, 1, IMAGE_SIZE, IMAGE_SIZE)
    ).astype(np.float32)


def test_batched_engine_speedup_over_per_image_reference():
    """>= 10x images/sec at batch >= 32, bit-identical to the oracle."""
    reduced = bench_reduced()
    images = REDUCED_IMAGES if reduced else FULL_IMAGES
    batch = REDUCED_BATCH if reduced else FULL_BATCH
    floor = REDUCED_FLOOR if reduced else FULL_FLOOR

    model = _serving_model()
    x = _images(images)
    plan = InferencePlan.from_model(model)

    plan.run_batch(x[:batch])  # pack kernels outside the timed region
    packed_seconds = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        logits = plan.run_batch(x, batch_size=batch)
        packed_seconds = min(packed_seconds, time.perf_counter() - start)

    start = time.perf_counter()
    per_image = model.forward_batched(x, batch_size=1)
    reference_seconds = time.perf_counter() - start

    # exactness first: the speedup is worthless unless serving-exact.
    # the hard gate compares at the same minibatching (the engine's
    # contract); cross-batching argmax agreement is reported but not
    # asserted — BLAS may block the float ends differently per batch
    # shape, which can flip near-tied predictions at the ULP level
    oracle = model.forward_batched(x, batch_size=batch)
    assert np.array_equal(logits, oracle)
    agreement = float((logits.argmax(1) == per_image.argmax(1)).mean())

    speedup = reference_seconds / packed_seconds
    update_bench_artifact(
        "infer",
        "batched_vs_per_image",
        {
            "images": int(images),
            "batch": int(batch),
            "channels": list(CHANNELS),
            "image_size": IMAGE_SIZE,
            "packed_seconds": float(packed_seconds),
            "reference_seconds": float(reference_seconds),
            "packed_images_per_second": float(images / packed_seconds),
            "reference_images_per_second": float(images / reference_seconds),
            "speedup": float(speedup),
            "floor": float(floor),
            "per_image_top1_agreement": agreement,
        },
        headline="speedup",
    )
    print(
        f"\nserving {images} images (batch {batch}): "
        f"packed {images / packed_seconds:.0f} img/s, "
        f"per-image reference {images / reference_seconds:.0f} img/s "
        f"-> {speedup:.1f}x"
    )
    assert speedup >= floor, (
        f"batched engine is only {speedup:.1f}x over the per-image "
        f"reference (acceptance floor is {floor:.0f}x at batch {batch})"
    )


def test_threaded_contraction_speedup():
    """Threaded tiles >= 2.5x serial on >= 4 cores, bit-identical always."""
    reduced = bench_reduced()
    images = REDUCED_IMAGES if reduced else FULL_IMAGES
    batch = REDUCED_BATCH if reduced else FULL_BATCH
    if hasattr(os, "sched_getaffinity"):  # the CPUs this process may use
        cores = len(os.sched_getaffinity(0))
    else:
        cores = os.cpu_count() or 1
    threads = max(2, min(cores, 8))

    model = _serving_model()
    x = _images(images)
    # the baseline pins one thread: the default width threads large calls
    serial_plan = InferencePlan.from_model(
        model, strategy="popcount", threads=1
    )
    threaded_plan = InferencePlan.from_model(
        model, strategy="popcount", threads=threads
    )

    def best_of(plan, rounds=3):
        plan.run_batch(x[:batch])  # pack kernels / warm the pool
        seconds = float("inf")
        for _ in range(rounds):
            start = time.perf_counter()
            logits = plan.run_batch(x, batch_size=batch)
            seconds = min(seconds, time.perf_counter() - start)
        return logits, seconds

    serial_logits, serial_seconds = best_of(serial_plan)
    threaded_logits, threaded_seconds = best_of(threaded_plan)

    # exactness first: fan-out across the pool must not move one bit
    oracle = model.forward_batched(x, batch_size=batch)
    assert np.array_equal(serial_logits, oracle)
    assert np.array_equal(threaded_logits, oracle)

    stats = threaded_plan.contraction_stats()["popcount"]
    assert stats["threaded_calls"] > 0
    assert stats["max_threads"] == threads

    speedup = serial_seconds / threaded_seconds
    gated = cores >= THREADED_MIN_CORES
    floor = (
        (THREADED_REDUCED_FLOOR if reduced else THREADED_FULL_FLOOR)
        if gated
        else None
    )
    update_bench_artifact(
        "infer",
        "threaded_contraction",
        {
            "images": int(images),
            "batch": int(batch),
            "cores": int(cores),
            "threads": int(threads),
            "serial_seconds": float(serial_seconds),
            "threaded_seconds": float(threaded_seconds),
            "serial_images_per_second": float(images / serial_seconds),
            "threaded_images_per_second": float(images / threaded_seconds),
            "speedup": float(speedup),
            "floor": floor,
            "tiles": stats["tiles"],
            "threaded_calls": stats["threaded_calls"],
        },
        headline="speedup",
    )
    print(
        f"\nthreaded contraction ({threads} threads on {cores} cores): "
        f"serial {images / serial_seconds:.0f} img/s, threaded "
        f"{images / threaded_seconds:.0f} img/s -> {speedup:.2f}x"
    )
    if floor is not None:
        assert speedup >= floor, (
            f"threaded contraction is only {speedup:.2f}x over serial "
            f"(acceptance floor is {floor}x on {cores} cores)"
        )


def test_artifact_plan_serving_throughput():
    """Artifact-backed plan: on-demand decode, cached kernels, exact."""
    reduced = bench_reduced()
    images = (REDUCED_IMAGES if reduced else FULL_IMAGES) // 2
    batch = REDUCED_BATCH if reduced else FULL_BATCH

    model = _serving_model()
    x = _images(images)
    with tempfile.TemporaryDirectory() as tmp:
        artifact = Path(tmp) / "model.npz"
        save_compressed_model(model, artifact)

        start = time.perf_counter()
        plan = InferencePlan.from_artifact(artifact, cache_size=8)
        compile_seconds = time.perf_counter() - start

        plan.run_batch(x[:batch])  # first batch decodes every stream
        cold_stats = dict(plan.cache_stats())
        serving_seconds = float("inf")
        for _ in range(3):
            start = time.perf_counter()
            logits = plan.run_batch(x, batch_size=batch)
            serving_seconds = min(
                serving_seconds, time.perf_counter() - start
            )
        warm_stats = plan.cache_stats()

        deployed = load_compressed_model(artifact)
        oracle = deployed.forward_batched(x, batch_size=batch)
    assert np.array_equal(logits, oracle)
    # every post-warmup kernel fetch must come out of the LRU
    assert warm_stats["misses"] == cold_stats["misses"]
    assert warm_stats["hits"] > cold_stats["hits"]

    update_bench_artifact(
        "infer",
        "artifact_plan",
        {
            "images": int(images),
            "batch": int(batch),
            "compile_seconds": float(compile_seconds),
            "images_per_second": float(images / serving_seconds),
            "kernel_cache": warm_stats,
        },
        headline="images_per_second",
    )
    print(
        f"\nartifact plan: compile {compile_seconds * 1e3:.1f} ms, "
        f"serve {images / serving_seconds:.0f} img/s "
        f"(cache {warm_stats['hits']} hits / {warm_stats['misses']} misses)"
    )
