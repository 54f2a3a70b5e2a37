"""Fleet serving throughput: 4 worker processes behind one router.

The acceptance gate for :mod:`repro.fleet`: aggregate throughput of a
4-worker fleet serving batch-granular tenant requests must reach at
least 2.5x the single-daemon per-image throughput, measured in the same
run on the same host with the ``BENCH_serving.json`` load shape.  The
gate compares like with like: the committed ``BENCH_serving.json``
figure was measured on whichever machine last wrote it, so dividing
this host's fleet throughput by it gates on the host rather than on
the fleet.  The committed figure is still reported next to the in-run
one, for context.

The fleet's unit of admission is a whole image block (one ``run_batch``
per block at ``max_batch == block``), so results are bit-identical to
the artifact oracle at the same minibatching — the gate proves the
router, wire protocol and worker processes add throughput, not
approximation.

A second section measures a rolling rollout under live load: every
worker flips to the new store ref with zero failed requests, and every
block served during the flip is bit-equal to exactly one of the two
versions — never a mixed batch.

Results land in ``BENCH_fleet.json`` (see ``benchmarks/conftest.py``);
``BENCH_REDUCED=1`` shrinks the workload for CI smoke runs and relaxes
the speedup floor.  Everything is seeded end to end.
"""

import asyncio
import json
import tempfile
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from conftest import bench_reduced, update_bench_artifact

from repro.bnn.reactnet import build_small_bnn
from repro.deploy import load_compressed_model, save_compressed_model
from repro.fleet import FleetConfig, FleetRouter
from repro.serve import QueueFullError, ServeConfig, ServingDaemon
from repro.store import ArtifactStore

#: the serving model: deploy-artifact scale, same as BENCH_serving
CHANNELS = (16, 32)
IMAGE_SIZE = 8
NUM_CLASSES = 10
SEED = 0

WORKERS = 4
#: the fleet's admission unit: one tenant image block == one run_batch.
#: Large blocks are the design point — batch-granular dispatch amortises
#: per-request scheduling that caps the single daemon's per-image path
BLOCK = 512
CLIENTS = 4
#: one executor thread per worker process: the daemon inside a fleet
#: worker owns its process, so extra threads only add switching cost
SERVE_WORKERS = 1

FULL_REQUESTS = 16384
REDUCED_REQUESTS = 4096

#: acceptance floors (reduced mode amortises fixed costs over less work)
FULL_FLOOR = 2.5
REDUCED_FLOOR = 1.5

#: the BENCH_serving load shape the baseline reproduces in-run
BASELINE_CONCURRENCY = 32
BASELINE_REQUESTS = 1024

#: the committed single-daemon measurement, reported for context only
SERVING_ARTIFACT = Path(__file__).resolve().parent.parent / (
    "BENCH_serving.json"
)

#: rollout section: smaller blocks so the per-worker drain is snappy
ROLLOUT_BLOCK = 64


def _model(seed: int):
    model = build_small_bnn(
        in_channels=1, num_classes=NUM_CLASSES, image_size=IMAGE_SIZE,
        channels=CHANNELS, seed=seed,
    )
    model.eval()
    return model


def _images(count: int, seed: int = SEED) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.standard_normal(
        (count, 1, IMAGE_SIZE, IMAGE_SIZE)
    ).astype(np.float32)


def _single_daemon_rate(artifact: Path, requests: int) -> float:
    """Per-image dynamic-batching throughput: the BENCH_serving figure."""
    images = _images(requests)
    config = ServeConfig(
        max_batch=BASELINE_CONCURRENCY,
        max_wait_ms=2.0,
        queue_depth=4 * BASELINE_CONCURRENCY,
        workers=2,
    )
    daemon = ServingDaemon(config)
    daemon.register("bench", str(artifact))

    async def drive() -> float:
        gate = asyncio.Semaphore(BASELINE_CONCURRENCY)

        async def one(index: int) -> np.ndarray:
            async with gate:
                while True:
                    try:
                        return await daemon.submit("bench", images[index])
                    except QueueFullError:
                        await asyncio.sleep(0.001)

        async with daemon:
            # warm round: compile + decode outside the timed region
            await asyncio.gather(
                *(one(i) for i in range(BASELINE_CONCURRENCY))
            )
            start = time.perf_counter()
            await asyncio.gather(*(one(i) for i in range(requests)))
            return time.perf_counter() - start

    return requests / asyncio.run(drive())


def _submit_block_with_retry(fleet, tenant, block) -> np.ndarray:
    """Client contract: QueueFullError is retriable — back off and retry."""
    while True:
        try:
            return fleet.submit(tenant, block)
        except QueueFullError:
            time.sleep(0.001)


def _committed_serving_rate():
    """The committed single-daemon figure, or ``None`` when absent."""
    if not SERVING_ARTIFACT.exists():
        return None
    document = json.loads(SERVING_ARTIFACT.read_text())
    section = document.get("dynamic_vs_sequential") or {}
    rate = section.get("dynamic_images_per_second")
    return float(rate) if rate else None


def test_fleet_throughput_vs_single_daemon(tmp_path):
    """Fleet-of-4 aggregate throughput >= 2.5x the single-daemon figure."""
    reduced = bench_reduced()
    requests = REDUCED_REQUESTS if reduced else FULL_REQUESTS
    floor = REDUCED_FLOOR if reduced else FULL_FLOOR

    with tempfile.TemporaryDirectory() as tmp:
        model = _model(SEED)
        artifact = Path(tmp) / "model.npz"
        save_compressed_model(model, artifact)
        images = _images(requests)
        blocks = [
            images[index:index + BLOCK]
            for index in range(0, requests, BLOCK)
        ]

        in_run_rate = _single_daemon_rate(
            artifact, min(requests, BASELINE_REQUESTS)
        )
        committed_rate = _committed_serving_rate()

        config = FleetConfig(
            workers=WORKERS,
            serve=ServeConfig(
                max_batch=BLOCK, max_wait_ms=2.0, queue_depth=4 * BLOCK,
                workers=SERVE_WORKERS,
            ),
        )
        with FleetRouter(config) as fleet:
            fleet.register("bench", str(artifact))

            def warm(block):
                return _submit_block_with_retry(fleet, "bench", block)

            with ThreadPoolExecutor(max_workers=WORKERS) as pool:
                # one concurrent block per worker: least-outstanding
                # dispatch spreads them, so every process compiles its
                # plan outside the timed region
                list(pool.map(warm, [images[:BLOCK]] * (2 * WORKERS)))

            start = time.perf_counter()
            with ThreadPoolExecutor(max_workers=CLIENTS) as pool:
                results = list(
                    pool.map(
                        lambda block: _submit_block_with_retry(
                            fleet, "bench", block
                        ),
                        blocks,
                    )
                )
            fleet_seconds = time.perf_counter() - start
            status = fleet.status(snapshots=False)

        # bit-identity: max_batch == block, so each block is exactly one
        # run_batch — compare against the artifact oracle at that batching
        logits = np.concatenate(results)
        oracle = load_compressed_model(artifact).forward_batched(
            images, batch_size=BLOCK
        )
        assert np.array_equal(logits, oracle)

    fleet_rate = requests / fleet_seconds
    speedup = fleet_rate / in_run_rate
    counters = status["counters"]
    assert counters["worker_deaths"] == 0
    update_bench_artifact(
        "fleet",
        "fleet_vs_single_daemon",
        {
            "requests": int(requests),
            "block_size": BLOCK,
            "workers": WORKERS,
            "clients": CLIENTS,
            "channels": list(CHANNELS),
            "image_size": IMAGE_SIZE,
            "single_daemon_images_per_second": float(in_run_rate),
            "single_daemon_committed_images_per_second": committed_rate,
            "fleet_images_per_second": float(fleet_rate),
            "speedup": float(speedup),
            "floor": float(floor),
            "dispatched": counters["dispatched"],
            "rebalanced": counters["rebalanced"],
        },
        headline="speedup",
    )
    committed = f"{committed_rate:.0f}" if committed_rate else "none"
    print(
        f"\nfleet of {WORKERS} served {requests} images in blocks of "
        f"{BLOCK}: {fleet_rate:.0f} img/s aggregate vs single-daemon "
        f"{in_run_rate:.0f} img/s per-image in-run (committed "
        f"{committed}) -> {speedup:.1f}x "
        f"({counters['dispatched']} dispatches, "
        f"{counters['rebalanced']} rebalances)"
    )
    assert speedup >= floor, (
        f"fleet aggregate throughput is only {speedup:.1f}x the "
        f"single-daemon figure (acceptance floor is {floor:.1f}x with "
        f"{WORKERS} workers)"
    )


def test_rolling_rollout_zero_failed_requests(tmp_path):
    """A measured rollout under live load: no failures, no mixed batches."""
    reduced = bench_reduced()
    load_threads = 2 if reduced else 3

    store = ArtifactStore(tmp_path / "store")
    old_ref = f"{store.root}#prod"
    new_ref = f"{store.root}#next"
    save_compressed_model(_model(SEED), old_ref)
    save_compressed_model(_model(SEED + 1), new_ref)
    images = _images(ROLLOUT_BLOCK)
    old_oracle = load_compressed_model(old_ref).forward_batched(
        images, batch_size=ROLLOUT_BLOCK
    )
    new_oracle = load_compressed_model(new_ref).forward_batched(
        images, batch_size=ROLLOUT_BLOCK
    )

    config = FleetConfig(
        workers=WORKERS,
        serve=ServeConfig(
            max_batch=ROLLOUT_BLOCK, max_wait_ms=2.0, queue_depth=1024,
            workers=SERVE_WORKERS,
        ),
    )
    counts = {"old": 0, "new": 0}
    counts_lock = threading.Lock()
    errors = []
    stop = threading.Event()

    with FleetRouter(config) as fleet:
        fleet.register("prod", old_ref)
        with ThreadPoolExecutor(max_workers=WORKERS) as pool:
            list(pool.map(
                lambda block: _submit_block_with_retry(fleet, "prod", block),
                [images] * (2 * WORKERS),
            ))

        def client() -> None:
            while not stop.is_set():
                try:
                    logits = fleet.submit("prod", images)
                except QueueFullError:
                    time.sleep(0.001)
                    continue
                except Exception as error:  # any loss is a bench failure
                    errors.append(error)
                    return
                if np.array_equal(logits, old_oracle):
                    version = "old"
                elif np.array_equal(logits, new_oracle):
                    version = "new"
                else:
                    errors.append(AssertionError("mixed-version batch"))
                    return
                with counts_lock:
                    counts[version] += 1

        threads = [
            threading.Thread(target=client) for _ in range(load_threads)
        ]
        for thread in threads:
            thread.start()
        start = time.perf_counter()
        result = fleet.rollout("prod", new_ref)
        rollout_seconds = time.perf_counter() - start
        stop.set()
        for thread in threads:
            thread.join()

        assert not errors, errors[0]
        assert len(result.flipped) == WORKERS
        post = fleet.submit("prod", images)
        assert np.array_equal(post, new_oracle)
        status = fleet.status(snapshots=False)
        assert not store.pins()["manifests"]  # rollout unpinned both

    served = counts["old"] + counts["new"]
    assert served >= 1
    update_bench_artifact(
        "fleet",
        "rolling_rollout",
        {
            "workers": WORKERS,
            "block_size": ROLLOUT_BLOCK,
            "load_threads": load_threads,
            "rollout_seconds": float(rollout_seconds),
            "requests_during_load": int(served),
            "served_old_version": counts["old"],
            "served_new_version": counts["new"],
            "failed_requests": 0,
            "flipped": list(result.flipped),
            "old_manifest": result.old_manifest,
            "new_manifest": result.new_manifest,
            "worker_deaths": status["counters"]["worker_deaths"],
        },
        headline="rollout_seconds",
    )
    print(
        f"\nrolling rollout across {WORKERS} workers in "
        f"{rollout_seconds:.2f} s under {load_threads}-thread load: "
        f"{served} blocks served ({counts['old']} old, "
        f"{counts['new']} new), 0 failed, 0 mixed batches"
    )
