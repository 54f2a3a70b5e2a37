"""Tests for the async dynamic-batching serving daemon (``repro.serve``).

The daemon only *schedules* — every batch executes through the tenant's
:class:`~repro.infer.plan.InferencePlan` — so the contract under test is
scheduling-shaped: concurrent submissions coalesce into one ``run_batch``
call, backpressure rejects with a retriable error, tenants are isolated,
plans hot-swap when the artifact's weight version changes, and a
graceful drain serves everything already admitted.  Wherever the
coalesced batch composition is pinned, the delivered logits must be
bit-identical to the float reference oracle at that same minibatching.
"""

import asyncio
import json
import os

import numpy as np
import pytest

from repro.bnn.reactnet import build_small_bnn
from repro.deploy import load_compressed_model, save_compressed_model
from repro.serve.metrics import _quantile
from repro.store import ArtifactStore
from repro.serve import (
    DaemonClosedError,
    LatencyWindow,
    QueueFullError,
    ServeConfig,
    ServingDaemon,
    TenantRegistry,
    UnknownTenantError,
)

IMAGE_SIZE = 8


def _build_model(seed: int):
    model = build_small_bnn(
        in_channels=1, num_classes=4, image_size=IMAGE_SIZE,
        channels=(8, 16), seed=seed,
    )
    model.eval()
    return model


def _save_artifact(tmp_path, seed: int, name: str = "model.npz"):
    path = tmp_path / name
    save_compressed_model(_build_model(seed), path)
    return path


def _images(count: int, seed: int = 0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.standard_normal(
        (count, 1, IMAGE_SIZE, IMAGE_SIZE)
    ).astype(np.float32)


def _oracle(artifact, images: np.ndarray) -> np.ndarray:
    """The reference: reloaded float model at the same minibatching."""
    return load_compressed_model(artifact).forward_batched(images)


# ----------------------------------------------------------------------
# Config validation
# ----------------------------------------------------------------------
class TestServeConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_batch": 0},
            {"max_wait_ms": -1.0},
            {"queue_depth": 0},
            {"workers": 0},
        ],
    )
    def test_invalid_knobs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            ServeConfig(**kwargs)


# ----------------------------------------------------------------------
# Coalescing: one run_batch serves many requests
# ----------------------------------------------------------------------
class TestCoalescing:
    def test_concurrent_submits_coalesce_into_one_batch(self, tmp_path):
        artifact = _save_artifact(tmp_path, seed=3)
        images = _images(6)
        # max_batch == submission count: the wave flushes as ONE batch
        daemon = ServingDaemon(
            ServeConfig(max_batch=6, max_wait_ms=500, queue_depth=32)
        )
        daemon.register("t0", str(artifact))

        async def drive():
            async with daemon:
                return await asyncio.gather(
                    *(daemon.submit("t0", images[i]) for i in range(6))
                )

        results = asyncio.run(drive())
        tenant = daemon.snapshot()["tenants"]["t0"]
        assert tenant["batches"] == 1
        assert tenant["batch_histogram"] == {"6": 1}
        assert tenant["completed"] == 6
        # bit-identity at the coalesced minibatching (the 6-image batch)
        assert np.array_equal(np.stack(results), _oracle(artifact, images))

    def test_single_request_flushes_on_max_wait(self, tmp_path):
        artifact = _save_artifact(tmp_path, seed=3)
        daemon = ServingDaemon(
            ServeConfig(max_batch=64, max_wait_ms=5, queue_depth=32)
        )
        daemon.register("t0", str(artifact))

        async def drive():
            async with daemon:
                return await daemon.submit("t0", _images(1)[0])

        logits = asyncio.run(drive())
        tenant = daemon.snapshot()["tenants"]["t0"]
        assert tenant["batch_histogram"] == {"1": 1}
        assert np.array_equal(
            logits[None], _oracle(artifact, _images(1))
        )

    def test_snapshot_surfaces_the_plan_telemetry(self, tmp_path):
        """Serving reports the default plan's contraction counters and
        no per-tenant plan knobs: one plan configuration is served."""
        artifact = _save_artifact(tmp_path, seed=3)
        images = _images(4)
        daemon = ServingDaemon(
            ServeConfig(max_batch=4, max_wait_ms=500, queue_depth=32)
        )
        daemon.register("t0", str(artifact))

        async def drive():
            async with daemon:
                return await daemon.submit_batch("t0", images)

        logits = asyncio.run(drive())
        assert np.array_equal(logits, _oracle(artifact, images))
        snapshot = daemon.snapshot()
        row = snapshot["registry"]["t0"]
        assert row["contraction"]["gemm"]["calls"] >= 1
        assert row["kernel_cache"]["misses"] >= 1
        for knob in ("strategy", "threads", "cache_size"):
            assert knob not in row
        assert "threads" not in snapshot["config"]

    def test_unknown_tenant_rejected(self, tmp_path):
        daemon = ServingDaemon()

        async def drive():
            async with daemon:
                await daemon.submit("ghost", _images(1)[0])

        with pytest.raises(UnknownTenantError, match="ghost"):
            asyncio.run(drive())


# ----------------------------------------------------------------------
# Batch-granular admission: submit_batch
# ----------------------------------------------------------------------
class TestSubmitBatch:
    def test_block_serves_bitexact_without_per_image_overhead(
        self, tmp_path
    ):
        """A (B, ...) block admitted whole == the oracle at that batch."""
        artifact = _save_artifact(tmp_path, seed=3)
        images = _images(12)
        daemon = ServingDaemon(
            ServeConfig(max_batch=12, max_wait_ms=500, queue_depth=32)
        )
        daemon.register("t0", str(artifact))

        async def drive():
            async with daemon:
                return await daemon.submit_batch("t0", images)

        logits = asyncio.run(drive())
        tenant = daemon.snapshot()["tenants"]["t0"]
        assert logits.shape == (12, 4)
        assert tenant["batch_histogram"] == {"12": 1}
        assert np.array_equal(logits, _oracle(artifact, images))

    def test_blocks_and_singles_coalesce_bitexact(self, tmp_path):
        """Mixed submit/submit_batch traffic flushes as one batch."""
        artifact = _save_artifact(tmp_path, seed=3)
        images = _images(7)
        daemon = ServingDaemon(
            ServeConfig(max_batch=7, max_wait_ms=500, queue_depth=32)
        )
        daemon.register("t0", str(artifact))

        async def drive():
            async with daemon:
                return await asyncio.gather(
                    daemon.submit_batch("t0", images[0:4]),
                    daemon.submit("t0", images[4]),
                    daemon.submit_batch("t0", images[5:7]),
                )

        block_a, single, block_b = asyncio.run(drive())
        tenant = daemon.snapshot()["tenants"]["t0"]
        assert tenant["batch_histogram"] == {"7": 1}
        oracle = _oracle(artifact, images)
        assert np.array_equal(block_a, oracle[0:4])
        assert np.array_equal(single, oracle[4])
        assert single.ndim == 1  # submit() still returns one row
        assert np.array_equal(block_b, oracle[5:7])

    def test_backpressure_counts_images_not_requests(self, tmp_path):
        """queue_depth bounds admitted *images*: a 3-image block plus a
        2-image block overflows a depth-4 lane."""
        artifact = _save_artifact(tmp_path, seed=5)
        images = _images(5)
        daemon = ServingDaemon(
            ServeConfig(max_batch=16, max_wait_ms=50, queue_depth=4)
        )
        daemon.register("t0", str(artifact))

        async def drive():
            async with daemon:
                first = asyncio.ensure_future(
                    daemon.submit_batch("t0", images[:3])
                )
                for _ in range(3):
                    await asyncio.sleep(0)
                with pytest.raises(QueueFullError, match="retry"):
                    await daemon.submit_batch("t0", images[3:5])
                return await first

        block = asyncio.run(drive())
        assert daemon.snapshot()["tenants"]["t0"]["rejected"] == 1
        assert np.array_equal(block, _oracle(artifact, images[:3]))

    def test_oversized_block_admitted_alone_on_idle_lane(self, tmp_path):
        """A block larger than queue_depth must not livelock: an idle
        lane admits it whole (all-or-nothing), a busy lane rejects it."""
        artifact = _save_artifact(tmp_path, seed=5)
        images = _images(6)
        daemon = ServingDaemon(
            ServeConfig(max_batch=8, max_wait_ms=20, queue_depth=4)
        )
        daemon.register("t0", str(artifact))

        async def drive():
            async with daemon:
                oversized = asyncio.ensure_future(
                    daemon.submit_batch("t0", images)
                )
                for _ in range(3):
                    await asyncio.sleep(0)
                # while it is in flight, the lane is over budget
                with pytest.raises(QueueFullError):
                    await daemon.submit_batch("t0", images[:1])
                return await oversized

        logits = asyncio.run(drive())
        assert np.array_equal(logits, _oracle(artifact, images))

    def test_invalid_blocks_rejected(self, tmp_path):
        artifact = _save_artifact(tmp_path, seed=5)
        daemon = ServingDaemon()
        daemon.register("t0", str(artifact))

        async def drive():
            async with daemon:
                with pytest.raises(ValueError, match="image block"):
                    await daemon.submit_batch("t0", np.zeros(4))
                with pytest.raises(ValueError, match="image block"):
                    await daemon.submit_batch(
                        "t0", np.zeros((0, 1, 8, 8))
                    )

        asyncio.run(drive())


# ----------------------------------------------------------------------
# Backpressure
# ----------------------------------------------------------------------
class TestBackpressure:
    def test_full_queue_rejects_with_retriable_error(self, tmp_path):
        artifact = _save_artifact(tmp_path, seed=5)
        images = _images(5)
        daemon = ServingDaemon(
            ServeConfig(max_batch=16, max_wait_ms=50, queue_depth=4)
        )
        daemon.register("t0", str(artifact))

        async def drive():
            async with daemon:
                tasks = [
                    asyncio.ensure_future(daemon.submit("t0", images[i]))
                    for i in range(4)
                ]
                # let the submits enqueue before probing the full queue
                for _ in range(3):
                    await asyncio.sleep(0)
                with pytest.raises(QueueFullError, match="retry"):
                    await daemon.submit("t0", images[4])
                # retriable: once the wave flushes (max_wait), capacity
                # returns and the same submit is admitted
                first_wave = await asyncio.gather(*tasks)
                retried = await daemon.submit("t0", images[4])
                return first_wave, retried

        first_wave, retried = asyncio.run(drive())
        tenant = daemon.snapshot()["tenants"]["t0"]
        assert tenant["rejected"] == 1
        assert tenant["completed"] == 5
        assert np.array_equal(
            np.stack(first_wave), _oracle(artifact, images[:4])
        )
        assert np.array_equal(
            retried[None], _oracle(artifact, images[4:5])
        )


# ----------------------------------------------------------------------
# Multi-tenant isolation
# ----------------------------------------------------------------------
class TestMultiTenant:
    def test_tenants_serve_their_own_artifacts(self, tmp_path):
        artifact_a = _save_artifact(tmp_path, seed=1, name="a.npz")
        artifact_b = _save_artifact(tmp_path, seed=2, name="b.npz")
        images = _images(4)
        daemon = ServingDaemon(
            ServeConfig(max_batch=4, max_wait_ms=500, queue_depth=32)
        )
        daemon.register("alpha", str(artifact_a))
        daemon.register("beta", str(artifact_b))

        async def drive():
            async with daemon:
                alpha = asyncio.gather(
                    *(daemon.submit("alpha", images[i]) for i in range(4))
                )
                beta = asyncio.gather(
                    *(daemon.submit("beta", images[i]) for i in range(4))
                )
                return await alpha, await beta

        alpha, beta = asyncio.run(drive())
        oracle_a = _oracle(artifact_a, images)
        oracle_b = _oracle(artifact_b, images)
        assert np.array_equal(np.stack(alpha), oracle_a)
        assert np.array_equal(np.stack(beta), oracle_b)
        assert not np.array_equal(oracle_a, oracle_b)
        tenants = daemon.snapshot()["tenants"]
        assert tenants["alpha"]["batches"] == 1
        assert tenants["beta"]["batches"] == 1

    def test_one_tenants_flood_does_not_reject_another(self, tmp_path):
        artifact = _save_artifact(tmp_path, seed=1)
        images = _images(3)
        daemon = ServingDaemon(
            ServeConfig(max_batch=16, max_wait_ms=30, queue_depth=2)
        )
        daemon.register("flooder", str(artifact))
        daemon.register("victim", str(artifact))

        async def drive():
            async with daemon:
                flood = [
                    asyncio.ensure_future(
                        daemon.submit("flooder", images[i])
                    )
                    for i in range(2)
                ]
                for _ in range(3):
                    await asyncio.sleep(0)
                # flooder exhausted its own budget...
                with pytest.raises(QueueFullError):
                    await daemon.submit("flooder", images[2])
                # ...but the victim's lane still admits and serves
                victim_logits = await daemon.submit("victim", images[2])
                await asyncio.gather(*flood)
                return victim_logits

        victim_logits = asyncio.run(drive())
        tenants = daemon.snapshot()["tenants"]
        assert tenants["flooder"]["rejected"] == 1
        assert tenants["victim"]["rejected"] == 0
        assert np.array_equal(
            victim_logits[None], _oracle(artifact, images[2:3])
        )


# ----------------------------------------------------------------------
# Hot swap on weight-version change
# ----------------------------------------------------------------------
class TestHotSwap:
    def test_artifact_rewrite_swaps_plan_and_stays_bitexact(self, tmp_path):
        """Mutate weights, bump the version, next batch = fresh plan."""
        model = _build_model(seed=11)
        artifact = tmp_path / "model.npz"
        save_compressed_model(model, artifact)
        images = _images(4)
        daemon = ServingDaemon(
            ServeConfig(max_batch=4, max_wait_ms=500, queue_depth=32)
        )
        daemon.register("prod", str(artifact))

        async def wave():
            return np.stack(
                await asyncio.gather(
                    *(daemon.submit("prod", images[i]) for i in range(4))
                )
            )

        async def drive():
            async with daemon:
                before = await wave()
                # publish new weights: flip one conv's kernel and bump
                # the artifact's weight version by re-exporting it
                conv = model.binary_conv_layers(3)[0]
                conv.set_weight_bits(1 - conv.binary_weight_bits())
                save_compressed_model(model, artifact)
                after = await wave()
                return before, after

        before, after = asyncio.run(drive())
        # the second wave was served by a freshly compiled plan,
        # bit-identical to the float oracle of the *new* weights
        assert not np.array_equal(before, after)
        assert np.array_equal(after, _oracle(artifact, images))
        tenant = daemon.snapshot()["tenants"]["prod"]
        assert tenant["hot_swaps"] == 1
        assert daemon.registry.get("prod").swaps == 1

    def test_bump_forces_recompile_without_file_change(self, tmp_path):
        artifact = _save_artifact(tmp_path, seed=11)
        registry = TenantRegistry()
        tenant = registry.register("t", str(artifact))
        plan_a, swapped_a = tenant.plan()
        plan_b, swapped_b = tenant.plan()
        assert plan_b is plan_a and not swapped_a and not swapped_b
        tenant.bump()
        plan_c, swapped_c = tenant.plan()
        assert plan_c is not plan_a and swapped_c
        assert tenant.swaps == 1

    def test_registry_reports_unknown_names(self, tmp_path):
        registry = TenantRegistry()
        with pytest.raises(UnknownTenantError):
            registry.get("nope")
        registry.register("yes", str(_save_artifact(tmp_path, seed=1)))
        assert "yes" in registry and len(registry) == 1
        assert registry.describe()["yes"]["compiled"] is False


# ----------------------------------------------------------------------
# Version tokens: content hashes, probe failures, store refs
# ----------------------------------------------------------------------
class TestVersionProbe:
    def test_copy_deploy_of_identical_bytes_does_not_swap(self, tmp_path):
        """A new inode with the same content is the same weight version."""
        artifact = _save_artifact(tmp_path, seed=11)
        tenant = TenantRegistry().register("t", str(artifact))
        plan_a, _ = tenant.plan()

        staged = tmp_path / "staged.npz"
        staged.write_bytes(artifact.read_bytes())
        os.replace(staged, artifact)  # new inode + mtime, identical bytes

        plan_b, swapped = tenant.plan()
        assert plan_b is plan_a and not swapped
        assert tenant.swaps == 0

    def test_content_rewrite_of_same_size_swaps(self, tmp_path):
        """Same-size in-place republish still changes the content digest."""
        model = _build_model(seed=11)
        artifact = tmp_path / "model.npz"
        save_compressed_model(model, artifact)
        size_before = artifact.stat().st_size
        tenant = TenantRegistry().register("t", str(artifact))
        plan_a, _ = tenant.plan()

        conv = model.binary_conv_layers(3)[0]
        conv.set_weight_bits(1 - conv.binary_weight_bits())
        save_compressed_model(model, artifact)
        assert artifact.stat().st_size == size_before  # same shapes

        plan_b, swapped = tenant.plan()
        assert swapped and plan_b is not plan_a
        assert tenant.swaps == 1

    def test_probe_failure_keeps_serving_pinned_plan(self, tmp_path):
        """An unlink-then-rename deploy must not fail in-flight batches."""
        artifact = _save_artifact(tmp_path, seed=11)
        tenant = TenantRegistry().register("t", str(artifact))
        plan_a, _ = tenant.plan()

        artifact.unlink()  # the gap in the middle of the deploy
        plan_b, swapped = tenant.plan()
        assert plan_b is plan_a and not swapped

        # the deploy lands with new weights: the next batch swaps
        save_compressed_model(_build_model(seed=12), artifact)
        plan_c, swapped_c = tenant.plan()
        assert swapped_c and plan_c is not plan_a
        assert tenant.swaps == 1

    def test_probe_failure_without_plan_propagates(self, tmp_path):
        tenant = TenantRegistry().register("t", str(tmp_path / "no.npz"))
        with pytest.raises(OSError):
            tenant.plan()

    def test_store_ref_version_is_the_manifest_hash(self, tmp_path):
        """Ref flips swap; a dropped ref keeps serving the pinned plan."""
        store = ArtifactStore(tmp_path / "store")
        model = _build_model(seed=11)
        ref = save_compressed_model(model, f"{store.root}#prod")
        tenant = TenantRegistry().register("t", str(ref))
        plan_a, _ = tenant.plan()
        assert tenant.describe()["version"] == store.resolve("prod")

        store.remove("prod")  # probe now fails; traffic must continue
        plan_b, swapped = tenant.plan()
        assert plan_b is plan_a and not swapped

        conv = model.binary_conv_layers(3)[0]
        conv.set_weight_bits(1 - conv.binary_weight_bits())
        save_compressed_model(model, f"{store.root}#prod")
        plan_c, swapped_c = tenant.plan()
        assert swapped_c and tenant.swaps == 1
        images = _images(3)
        assert np.array_equal(
            plan_c.run_batch(images), _oracle(str(ref), images)
        )

    def test_republishing_identical_store_bytes_does_not_swap(
        self, tmp_path
    ):
        store = ArtifactStore(tmp_path / "store")
        model = _build_model(seed=11)
        ref = save_compressed_model(model, f"{store.root}#prod")
        tenant = TenantRegistry().register("t", str(ref))
        plan_a, _ = tenant.plan()
        save_compressed_model(model, f"{store.root}#prod")  # same content
        plan_b, swapped = tenant.plan()
        assert plan_b is plan_a and not swapped
        assert tenant.swaps == 0


# ----------------------------------------------------------------------
# Graceful drain / shutdown
# ----------------------------------------------------------------------
class TestDrain:
    def test_drain_serves_everything_admitted(self, tmp_path):
        artifact = _save_artifact(tmp_path, seed=7)
        images = _images(5)
        # max_wait far beyond the test: only drain can flush the batch
        daemon = ServingDaemon(
            ServeConfig(max_batch=64, max_wait_ms=60_000, queue_depth=32)
        )
        daemon.register("t0", str(artifact))

        async def drive():
            tasks = [
                asyncio.ensure_future(daemon.submit("t0", images[i]))
                for i in range(5)
            ]
            for _ in range(3):
                await asyncio.sleep(0)
            await daemon.stop(drain=True)
            results = await asyncio.gather(*tasks)
            # post-shutdown submissions are refused, not queued
            with pytest.raises(DaemonClosedError):
                await daemon.submit("t0", images[0])
            return results

        results = asyncio.run(drive())
        tenant = daemon.snapshot()["tenants"]["t0"]
        assert tenant["completed"] == 5
        assert tenant["batch_histogram"] == {"5": 1}
        assert daemon.queue_depths() == {"t0": 0}
        assert np.array_equal(np.stack(results), _oracle(artifact, images))

    def test_abort_fails_queued_requests(self, tmp_path):
        artifact = _save_artifact(tmp_path, seed=7)
        daemon = ServingDaemon(
            ServeConfig(max_batch=64, max_wait_ms=60_000, queue_depth=32)
        )
        daemon.register("t0", str(artifact))

        async def drive():
            tasks = [
                asyncio.ensure_future(daemon.submit("t0", _images(1)[0]))
                for _ in range(3)
            ]
            for _ in range(3):
                await asyncio.sleep(0)
            await daemon.stop(drain=False)
            return await asyncio.gather(*tasks, return_exceptions=True)

        results = asyncio.run(drive())
        # the batcher had already claimed the first request of the wave;
        # everything still queued fails with the shutdown error
        assert all(
            isinstance(r, (DaemonClosedError, np.ndarray)) for r in results
        )
        assert any(isinstance(r, DaemonClosedError) for r in results)

    def test_stop_is_idempotent(self, tmp_path):
        daemon = ServingDaemon()

        async def drive():
            await daemon.stop()
            await daemon.stop()

        asyncio.run(drive())


# ----------------------------------------------------------------------
# Metrics surface
# ----------------------------------------------------------------------
class TestMetrics:
    def test_snapshot_is_json_serialisable(self, tmp_path):
        artifact = _save_artifact(tmp_path, seed=3)
        daemon = ServingDaemon(
            ServeConfig(max_batch=2, max_wait_ms=50, queue_depth=8)
        )
        daemon.register("t0", str(artifact))

        async def drive():
            async with daemon:
                images = _images(4)
                await asyncio.gather(
                    *(daemon.submit("t0", images[i]) for i in range(4))
                )

        asyncio.run(drive())
        snapshot = json.loads(json.dumps(daemon.snapshot()))
        tenant = snapshot["tenants"]["t0"]
        assert tenant["requests"] == 4
        assert tenant["batches"] == 2
        assert sum(tenant["batch_histogram"].values()) == 2
        assert tenant["latency"]["count"] == 4
        assert tenant["latency"]["p99_ms"] >= tenant["latency"]["p50_ms"] >= 0
        assert snapshot["config"]["max_batch"] == 2
        assert snapshot["registry"]["t0"]["compiled"] is True

    def test_latency_window_quantiles(self):
        window = LatencyWindow(maxlen=100)
        for value in range(1, 101):  # 1..100 ms
            window.record(value / 1e3)
        summary = window.summary()
        assert summary["count"] == 100
        assert summary["p50_ms"] == pytest.approx(50.0, abs=1.5)
        assert summary["p99_ms"] == pytest.approx(99.0, abs=1.5)
        assert summary["mean_ms"] == pytest.approx(50.5, abs=0.1)

    def test_latency_window_is_bounded(self):
        window = LatencyWindow(maxlen=4)
        for value in range(100):
            window.record(float(value))
        assert window.count == 100
        assert len(window._samples) == 4
        # the window holds the most recent samples
        assert sorted(window._samples) == [96.0, 97.0, 98.0, 99.0]
        with pytest.raises(ValueError):
            LatencyWindow(maxlen=0)

    def test_quantile_small_windows_resolve_ties_upward(self):
        """Nearest-rank rounds *up*: p50 of two samples is the upper one.

        ``round()`` (banker's rounding) sent the rank down, so a
        2-sample window reported its p50 as the *lower* latency — an
        under-claim exactly where windows are smallest.
        """
        assert _quantile([], 0.50) == 0.0
        assert _quantile([7.0], 0.99) == 7.0
        assert _quantile([1.0, 2.0], 0.50) == 2.0
        assert _quantile([1.0, 2.0], 0.99) == 2.0
        assert _quantile([1.0, 2.0, 3.0], 0.0) == 1.0
        assert _quantile([1.0, 2.0, 3.0], 0.50) == 2.0
        assert _quantile([1.0, 2.0, 3.0, 4.0], 0.50) == 3.0
        assert _quantile([float(v) for v in range(1, 101)], 0.99) == 100.0

    def test_summary_is_window_consistent_after_wraparound(self):
        """Every summary statistic describes the same sample population.

        After the ring buffer wraps, the old summary mixed a *lifetime*
        mean with *window* quantiles — here that would report a mean of
        50.5 s under a p50 of 99 s.  All window statistics must describe
        the surviving samples [97, 98, 99, 100].
        """
        window = LatencyWindow(maxlen=4)
        for value in range(1, 101):
            window.record(float(value))
        summary = window.summary()
        assert summary["count"] == 100
        assert summary["window_count"] == 4
        assert summary["mean_ms"] == pytest.approx(98.5e3)
        assert summary["p50_ms"] == pytest.approx(99.0e3)
        assert summary["p99_ms"] == pytest.approx(100.0e3)
        # the mean sits inside the window's own range
        assert summary["p50_ms"] >= summary["mean_ms"] >= 97.0e3

    def test_empty_window_summary_is_zero(self):
        summary = LatencyWindow().summary()
        assert summary == {
            "count": 0, "window_count": 0,
            "mean_ms": 0.0, "p50_ms": 0.0, "p99_ms": 0.0,
        }
