"""Tests for the plan-based batched inference engine (``repro.infer``).

The engine's contract is exactness-first: every compiled plan — from a
live model or from a deploy artifact — must produce logits bit-identical
to the float reference forward evaluated at the same minibatching,
across batch sizes, model shapes, contraction strategies and cache
capacities.  On top of that the hot-path refactor is pinned: kernels are
packed once per weight version (never per call) and artifact plans
decode streams on demand through a bounded LRU.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.bnn.layers import BinaryConv2d, BinaryDense
from repro.bnn.ops import (
    binary_conv2d_packed,
    binary_conv2d_reference,
    binary_dense_packed,
    binary_dense_reference,
)
from repro.bnn.packing import (
    _popcount64_bytes,
    pack_bits,
    pack_kernel_channels,
    popcount64,
)
from repro.bnn.reactnet import build_small_bnn
from repro.deploy import save_compressed_model
from repro.infer import InferencePlan, LruCache
from repro.sim import Scenario, Simulator

#: every strategy at the default width and forced onto the tile pool
STRATEGY_WIDTHS = [
    pytest.param("popcount", None, id="popcount"),
    pytest.param("gemm", None, id="gemm"),
    pytest.param("popcount", 2, id="popcount-threaded"),
    pytest.param("gemm", 2, id="gemm-threaded"),
]


@pytest.fixture(scope="module")
def serving_model():
    model = build_small_bnn(
        in_channels=1, num_classes=4, image_size=16, channels=(16, 32),
        seed=7,
    )
    model.eval()
    return model


@pytest.fixture(scope="module")
def images():
    rng = np.random.default_rng(11)
    return rng.standard_normal((9, 1, 16, 16)).astype(np.float32)


def chunked_reference(model, x, batch_size):
    """The oracle: the float forward at the same minibatching."""
    return np.concatenate(
        [
            model.forward(x[offset:offset + batch_size])
            for offset in range(0, x.shape[0], batch_size)
        ],
        axis=0,
    )


# ----------------------------------------------------------------------
# Packing / ops substrate
# ----------------------------------------------------------------------
class TestPackedOps:
    def test_popcount_matches_byte_table(self):
        rng = np.random.default_rng(0)
        words = rng.integers(0, 2**63, (17, 5), dtype=np.uint64)
        words[0, 0] = 0
        words[1, 1] = np.uint64(2**64 - 1)
        assert np.array_equal(popcount64(words), _popcount64_bytes(words))

    @pytest.mark.parametrize("strategy,threads", STRATEGY_WIDTHS)
    def test_conv_prepacked_operand_matches_bit_tensor(
        self, strategy, threads
    ):
        rng = np.random.default_rng(1)
        kernel = rng.integers(0, 2, (8, 16, 3, 3)).astype(np.uint8)
        x = rng.integers(0, 2, (2, 16, 6, 6)).astype(np.uint8)
        from_bits = binary_conv2d_packed(
            x, kernel, strategy=strategy, threads=threads
        )
        prepacked = pack_kernel_channels(kernel)
        from_words = binary_conv2d_packed(
            x, prepacked, strategy=strategy, threads=threads
        )
        assert np.array_equal(from_bits, from_words)

    @pytest.mark.parametrize("strategy,threads", STRATEGY_WIDTHS)
    def test_conv_strategies_match_reference(self, strategy, threads):
        rng = np.random.default_rng(2)
        kernel = rng.integers(0, 2, (5, 8, 3, 3)).astype(np.uint8)
        x = rng.integers(0, 2, (3, 8, 5, 5)).astype(np.uint8)
        expected = binary_conv2d_reference(
            np.where(x.astype(bool), 1.0, -1.0),
            np.where(kernel.astype(bool), 1.0, -1.0),
        ).astype(np.int32)
        got = binary_conv2d_packed(
            x, kernel, strategy=strategy, threads=threads
        )
        assert np.array_equal(got, expected)

    @pytest.mark.parametrize("strategy,threads", STRATEGY_WIDTHS)
    def test_dense_prepacked_operand_matches_bit_tensor(
        self, strategy, threads
    ):
        rng = np.random.default_rng(3)
        weight = rng.integers(0, 2, (6, 70)).astype(np.uint8)
        x = rng.integers(0, 2, (4, 70)).astype(np.uint8)
        from_bits = binary_dense_packed(
            x, weight, strategy=strategy, threads=threads
        )
        prepacked = (pack_bits(weight), weight.shape[-1])
        from_words = binary_dense_packed(
            x, prepacked, strategy=strategy, threads=threads
        )
        assert np.array_equal(from_bits, from_words)
        expected = binary_dense_reference(
            np.where(x.astype(bool), 1.0, -1.0),
            np.where(weight.astype(bool), 1.0, -1.0),
        ).astype(np.int32)
        assert np.array_equal(from_bits, expected)

    def test_unknown_strategy_rejected(self):
        x = np.zeros((1, 4, 3, 3), dtype=np.uint8)
        kernel = np.zeros((2, 4, 3, 3), dtype=np.uint8)
        with pytest.raises(ValueError, match="unknown strategy"):
            binary_conv2d_packed(x, kernel, strategy="quantum")
        with pytest.raises(ValueError, match="unknown strategy"):
            binary_dense_packed(
                np.zeros((1, 8), np.uint8), np.zeros((2, 8), np.uint8),
                strategy="quantum",
            )

    def test_prepacked_geometry_validated(self):
        x = np.zeros((1, 4, 3, 3), dtype=np.uint8)
        words = np.zeros((2, 1), dtype=np.uint64)
        with pytest.raises(ValueError, match="not a multiple"):
            binary_conv2d_packed(x, (words, 35))
        with pytest.raises(ValueError, match="does not describe"):
            binary_conv2d_packed(x, (words, 4 * 3))
        with pytest.raises(ValueError, match="feature mismatch"):
            binary_dense_packed(np.zeros((1, 8), np.uint8), (words, 9))

    def test_explicit_kernel_size_rejects_reinterpretation(self):
        # a 3x3 kernel over 4 channels has 36 bits, which also factors
        # as a 2x2 kernel over 9 channels; the explicit geometry check
        # must reject that silent reinterpretation
        kernel = np.zeros((2, 4, 3, 3), dtype=np.uint8)
        operand = pack_kernel_channels(kernel)
        x9 = np.zeros((1, 9, 4, 4), dtype=np.uint8)
        assert binary_conv2d_packed(x9, operand).shape[1] == 2  # inferred 2x2
        with pytest.raises(ValueError, match="3x3 kernel over 9 channels"):
            binary_conv2d_packed(x9, operand, kernel_size=3)


# ----------------------------------------------------------------------
# Layer-level prepare()/run_batch() and the repacking hot-path fix
# ----------------------------------------------------------------------
class TestPrepare:
    def test_run_packed_packs_once_per_weight_version(self, monkeypatch):
        conv = BinaryConv2d(8, 4, rng=np.random.default_rng(0))
        calls = {"count": 0}
        import repro.bnn.layers as layers_module

        original = layers_module.pack_kernel_channels

        def counting(kernel_bits):
            calls["count"] += 1
            return original(kernel_bits)

        monkeypatch.setattr(layers_module, "pack_kernel_channels", counting)
        x_bits = np.random.default_rng(1).integers(
            0, 2, (2, 8, 5, 5)
        ).astype(np.uint8)
        first = conv.run_packed(x_bits)
        second = conv.run_packed(x_bits)
        assert calls["count"] == 1
        assert np.array_equal(first, second)

    def test_prepare_invalidated_by_weight_replacement(self):
        conv = BinaryConv2d(4, 4, rng=np.random.default_rng(0))
        words_before, _ = conv.prepare()
        bits = np.ones((4, 4, 3, 3), dtype=np.uint8)
        conv.set_weight_bits(bits)
        words_after, num_bits = conv.prepare()
        assert not np.array_equal(words_before, words_after)
        assert num_bits == 4 * 9
        # all-ones kernel packs to all-ones in the live bit range
        from repro.bnn.packing import unpack_bits

        assert unpack_bits(words_after, num_bits).all()

    def test_run_batch_matches_reference_on_sign_inputs(self):
        conv = BinaryConv2d(8, 6, rng=np.random.default_rng(2))
        rng = np.random.default_rng(3)
        bits = rng.integers(0, 2, (3, 8, 7, 7)).astype(np.uint8)
        signs = np.where(bits.astype(bool), 1.0, -1.0).astype(np.float32)
        expected = conv.forward(signs)
        assert np.array_equal(
            conv.run_batch(bits).astype(np.float32), expected
        )


class TestBinaryDense:
    def test_forward_matches_reference(self):
        dense = BinaryDense(12, 5, rng=np.random.default_rng(0))
        rng = np.random.default_rng(1)
        bits = rng.integers(0, 2, (4, 12)).astype(np.uint8)
        signs = np.where(bits.astype(bool), 1.0, -1.0).astype(np.float32)
        expected = binary_dense_reference(signs, dense.binary_weight_signs())
        assert np.array_equal(dense.forward(signs), expected)
        assert np.array_equal(
            dense.run_batch(bits).astype(np.float32), expected
        )

    def test_backward_applies_ste_mask(self):
        dense = BinaryDense(6, 3, rng=np.random.default_rng(0))
        dense.params["weight"][0, 0] = 5.0  # far outside the STE region
        x = np.ones((2, 6), dtype=np.float32)
        dense.forward(x)
        grad_in = dense.backward(np.ones((2, 3), dtype=np.float32))
        assert dense.grads["weight"][0, 0] == 0.0
        assert grad_in.shape == (2, 6)

    def test_storage_is_one_bit_per_weight(self):
        dense = BinaryDense(16, 4)
        assert dense.storage_bits() == 16 * 4

    def test_set_weight_bits_round_trips(self):
        dense = BinaryDense(8, 2)
        bits = np.random.default_rng(0).integers(0, 2, (2, 8)).astype(np.uint8)
        dense.set_weight_bits(bits)
        assert np.array_equal(dense.binary_weight_bits(), bits)
        with pytest.raises(ValueError, match="shape"):
            dense.set_weight_bits(np.zeros((3, 8), dtype=np.uint8))


# ----------------------------------------------------------------------
# LRU cache
# ----------------------------------------------------------------------
class TestLruCache:
    def test_eviction_order_is_least_recently_used(self):
        cache = LruCache(maxsize=2)
        cache.get("a", lambda: 1)
        cache.get("b", lambda: 2)
        cache.get("a", lambda: 1)  # refresh a
        cache.get("c", lambda: 3)  # evicts b
        assert "a" in cache and "c" in cache and "b" not in cache
        assert cache.stats() == {
            "size": 2, "maxsize": 2, "hits": 1, "misses": 3, "evictions": 1,
        }

    def test_build_called_once_per_live_key(self):
        cache = LruCache(maxsize=4)
        calls = []
        for _ in range(3):
            cache.get("k", lambda: calls.append(1))
        assert len(calls) == 1

    def test_invalid_capacity_rejected(self):
        with pytest.raises(ValueError):
            LruCache(maxsize=0)

    def test_concurrent_access_builds_once_per_live_key(self):
        """Serving threads hammering one cache never double-build a key."""
        import random
        import threading
        from collections import Counter

        cache = LruCache(maxsize=64)
        builds = Counter()  # distinct keys: serialised by per-key locks
        threads, gets_per_thread, keys = 8, 200, 16
        barrier = threading.Barrier(threads)

        def build(key):
            builds[key] += 1
            return key * 10

        def worker(seed):
            rng = random.Random(seed)
            barrier.wait()
            for _ in range(gets_per_thread):
                key = rng.randrange(keys)
                assert cache.get(key, lambda k=key: build(k)) == key * 10

        pool = [
            threading.Thread(target=worker, args=(seed,))
            for seed in range(threads)
        ]
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join()

        # no evictions (keys < maxsize), so every key built exactly once
        assert set(builds.values()) == {1}
        stats = cache.stats()
        assert stats["evictions"] == 0
        assert stats["misses"] == len(builds) == stats["size"]
        assert stats["hits"] + stats["misses"] == threads * gets_per_thread

    def test_concurrent_eviction_keeps_counters_consistent(self):
        import random
        import threading

        cache = LruCache(maxsize=4)
        total = {"builds": 0}
        # builds of *different* keys run concurrently under per-key
        # locks, so the shared tally needs its own lock
        tally_lock = threading.Lock()

        def worker(seed):
            rng = random.Random(seed)
            for _ in range(300):
                key = rng.randrange(32)

                def build():
                    with tally_lock:
                        total["builds"] += 1
                    return key

                assert cache.get(key, build) == key

        pool = [
            threading.Thread(target=worker, args=(seed,))
            for seed in range(6)
        ]
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join()

        stats = cache.stats()
        assert len(cache) <= 4
        assert stats["misses"] == total["builds"]
        assert stats["hits"] + stats["misses"] == 6 * 300
        assert stats["evictions"] == stats["misses"] - stats["size"]

    def test_misses_on_different_keys_build_in_parallel(self):
        """Two workers decoding *different* layers overlap their builds.

        Both builders rendezvous on a barrier from inside ``build()``:
        that is only possible when the two builds run concurrently.
        Under the old cache — one re-entrant lock held across
        ``build()`` — the second builder could not enter and the
        barrier timed out.
        """
        import threading

        cache = LruCache(maxsize=8)
        inside_build = threading.Barrier(2)
        results = {}

        def build(key):
            inside_build.wait(timeout=5.0)
            return key * 10

        def worker(key):
            results[key] = cache.get(key, lambda: build(key))

        pool = [
            threading.Thread(target=worker, args=(key,)) for key in (1, 2)
        ]
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join()

        assert not inside_build.broken, "builds never overlapped"
        assert results == {1: 10, 2: 20}
        stats = cache.stats()
        assert stats["misses"] == 2 and stats["hits"] == 0

    def test_contended_same_key_miss_builds_exactly_once(self):
        """Late arrivals at a key being built block, then hit."""
        import threading

        cache = LruCache(maxsize=8)
        first_inside = threading.Event()
        release = threading.Event()
        builds = []
        results = []

        def slow_build():
            builds.append(threading.get_ident())
            first_inside.set()
            assert release.wait(timeout=5.0)
            return "decoded"

        def worker():
            results.append(cache.get("k", slow_build))

        pool = [threading.Thread(target=worker) for _ in range(4)]
        pool[0].start()
        assert first_inside.wait(timeout=5.0)
        for thread in pool[1:]:  # arrive while the build is in flight
            thread.start()
        release.set()
        for thread in pool:
            thread.join()

        assert len(builds) == 1
        assert results == ["decoded"] * 4
        stats = cache.stats()
        assert stats["misses"] == 1 and stats["hits"] == 3

    def test_failed_build_leaves_no_entry_and_can_retry(self):
        cache = LruCache(maxsize=4)
        with pytest.raises(RuntimeError, match="decode failed"):
            cache.get("k", self._raise_decode_error)
        assert "k" not in cache
        assert cache.get("k", lambda: 7) == 7

    @staticmethod
    def _raise_decode_error():
        raise RuntimeError("decode failed")


# ----------------------------------------------------------------------
# Plan compilation + execution
# ----------------------------------------------------------------------
class TestModelPlan:
    @pytest.mark.parametrize("batch_size", [1, 2, 4, None])
    def test_bitexact_across_batch_sizes(
        self, serving_model, images, batch_size
    ):
        plan = InferencePlan.from_model(serving_model)
        expected = chunked_reference(
            serving_model, images,
            images.shape[0] if batch_size is None else batch_size,
        )
        got = plan.run_batch(images, batch_size=batch_size)
        assert got.dtype == expected.dtype
        assert np.array_equal(got, expected)

    @pytest.mark.parametrize("strategy,threads", STRATEGY_WIDTHS)
    def test_both_strategies_bitexact(
        self, serving_model, images, strategy, threads
    ):
        plan = InferencePlan.from_model(
            serving_model, strategy=strategy, threads=threads
        )
        expected = chunked_reference(serving_model, images, images.shape[0])
        assert np.array_equal(plan.run_batch(images), expected)

    def test_fuses_every_binary_conv(self, serving_model):
        plan = InferencePlan.from_model(serving_model)
        assert plan.num_packed_steps == len(
            serving_model.binary_conv_layers()
        )
        kinds = [kind for kind, _ in plan.describe()]
        assert "packed_conv" in kinds
        assert plan.kernel_cache is None

    def test_sequential_run_batch_facade(self, serving_model, images):
        expected = chunked_reference(serving_model, images, images.shape[0])
        assert np.array_equal(serving_model.run_batch(images), expected)
        # prepare() recompiles and returns the cached plan object
        plan = serving_model.prepare()
        assert serving_model.run_batch(images) is not None
        assert serving_model._plan is plan

    def test_plan_tracks_weight_replacement(self, images):
        model = build_small_bnn(
            in_channels=1, num_classes=4, image_size=16, channels=(16, 32),
            seed=9,
        )
        model.eval()
        plan = InferencePlan.from_model(model)
        before = plan.run_batch(images)
        conv = model.binary_conv_layers(3)[0]
        flipped = 1 - conv.binary_weight_bits()
        conv.set_weight_bits(flipped)
        after = plan.run_batch(images)
        assert not np.array_equal(before, after)
        assert np.array_equal(
            after, chunked_reference(model, images, images.shape[0])
        )

    def test_gemm_sign_matrix_built_once_per_weight_version(
        self, images, monkeypatch
    ):
        import repro.infer.plan as plan_module

        calls = {"count": 0}
        original = plan_module.unpack_bits

        def counting(words, num_bits):
            calls["count"] += 1
            return original(words, num_bits)

        monkeypatch.setattr(plan_module, "unpack_bits", counting)
        model = build_small_bnn(
            in_channels=1, num_classes=4, image_size=16, channels=(16, 32),
            seed=13,
        )
        model.eval()
        plan = InferencePlan.from_model(model)
        plan.run_batch(images, batch_size=2)  # several chunks per step
        assert calls["count"] == plan.num_packed_steps
        plan.run_batch(images, batch_size=3)
        assert calls["count"] == plan.num_packed_steps  # memo held
        conv = model.binary_conv_layers(3)[0]
        conv.set_weight_bits(1 - conv.binary_weight_bits())
        plan.run_batch(images)
        assert calls["count"] == plan.num_packed_steps + 1  # one re-unpack

    def test_run_batch_unaffected_by_training_mode_flip(self, images):
        model = build_small_bnn(
            in_channels=1, num_classes=4, image_size=16, channels=(16, 32),
            seed=17,
        )
        model.eval()
        expected = model.run_batch(images)
        from repro.bnn.layers import BatchNorm2d

        norms = [l for l in model.layers if isinstance(l, BatchNorm2d)]
        means = [norm.running_mean.copy() for norm in norms]
        model.train()  # e.g. between fine-tuning epochs
        got = model.run_batch(images)
        # still the eval-mode oracle, the running stats are untouched,
        # and the model comes back in the training mode it was left in
        assert np.array_equal(got, expected)
        for norm, mean in zip(norms, means):
            assert np.array_equal(norm.running_mean, mean)
        assert all(norm.training for norm in norms)

    def test_rejects_unbatched_input(self, serving_model):
        plan = InferencePlan.from_model(serving_model)
        with pytest.raises(ValueError, match="batched"):
            plan.run_batch(np.zeros(3, dtype=np.float32))
        with pytest.raises(ValueError, match="batch_size"):
            plan.run_batch(
                np.zeros((1, 1, 16, 16), dtype=np.float32), batch_size=0
            )

    @settings(max_examples=8, deadline=None)
    @given(
        batch=st.integers(1, 6),
        total=st.integers(1, 7),
        channels=st.sampled_from([(8,), (8, 16)]),
        image_size=st.sampled_from([8, 16]),
    )
    def test_property_sweep_bitexact(self, batch, total, channels, image_size):
        model = build_small_bnn(
            in_channels=1, num_classes=3, image_size=image_size,
            channels=channels, seed=image_size + len(channels),
        )
        model.eval()
        rng = np.random.default_rng(batch * 31 + total)
        x = rng.standard_normal(
            (total, 1, image_size, image_size)
        ).astype(np.float32)
        plan = InferencePlan.from_model(model)
        expected = chunked_reference(model, x, batch)
        assert np.array_equal(
            plan.run_batch(x, batch_size=batch), expected
        )


class TestArtifactPlan:
    @pytest.fixture(scope="class")
    def artifact(self, serving_model, tmp_path_factory):
        path = tmp_path_factory.mktemp("plans") / "model.npz"
        save_compressed_model(serving_model, path)
        return path

    def test_bitexact_against_reloaded_model(self, artifact, images):
        from repro.deploy import load_compressed_model

        plan = InferencePlan.from_artifact(artifact)
        deployed = load_compressed_model(artifact)
        for batch_size in (2, 5, images.shape[0]):
            expected = chunked_reference(deployed, images, batch_size)
            assert np.array_equal(
                plan.run_batch(images, batch_size=batch_size), expected
            )

    def test_streams_decode_lazily(self, artifact):
        plan = InferencePlan.from_artifact(artifact)
        assert plan.cache_stats()["misses"] == 0  # nothing decoded yet
        plan.run_batch(np.zeros((1, 1, 16, 16), dtype=np.float32))
        stats = plan.cache_stats()
        assert stats["misses"] == plan.num_packed_steps
        plan.run_batch(np.zeros((1, 1, 16, 16), dtype=np.float32))
        assert plan.cache_stats()["misses"] == stats["misses"]
        assert plan.cache_stats()["hits"] > 0

    def test_default_cache_holds_every_packed_step(self, artifact, images):
        from repro.serve.tenants import Tenant

        plan = InferencePlan.from_artifact(artifact)
        plan.run_batch(images)
        plan.run_batch(images)
        stats = plan.cache_stats()
        assert stats["maxsize"] == plan.num_packed_steps
        assert stats["misses"] == plan.num_packed_steps
        assert stats["evictions"] == 0
        # serving builds its plans with the same default
        served, _ = Tenant("t", str(artifact)).plan()
        assert served.cache_stats()["maxsize"] == plan.num_packed_steps

    def test_capacity_one_cache_still_exact(self, artifact, images):
        from repro.deploy import load_compressed_model

        plan = InferencePlan.from_artifact(artifact, cache_size=1)
        deployed = load_compressed_model(artifact)
        expected = chunked_reference(deployed, images, images.shape[0])
        assert np.array_equal(plan.run_batch(images), expected)
        assert plan.cache_stats()["evictions"] > 0

    def test_eviction_bounds_gemm_sign_matrices_too(self, artifact, images):
        # the sign matrix rides in the LRU entry, so once a layer is
        # evicted nothing — neither the packed words nor the 32x-larger
        # float sign matrix — stays resident anywhere in the plan
        import gc
        import weakref

        plan = InferencePlan.from_artifact(artifact, cache_size=1)
        first_packed = next(
            step for step in plan.steps if step.kind != "float"
        )
        entry_ref = weakref.ref(first_packed.source())
        plan.run_batch(images)  # later layers evict the first entry
        gc.collect()
        assert entry_ref() is None
        assert len(plan.kernel_cache) == 1


# ----------------------------------------------------------------------
# The inference simulation backend
# ----------------------------------------------------------------------
class TestInferenceBackend:
    def test_small_bnn_scenario_is_serving_exact(self):
        scenario = Scenario(
            name="serving-smoke", model="small-bnn",
            backends=("inference",),
        )
        report = Simulator().run(scenario)
        section = report.sections["inference"]
        assert section["logits_bitexact"] is True
        # top-1 agreement is measured against the per-image reference, a
        # different minibatching — near-tied logits may ULP-flip there,
        # so pin "essentially all" rather than exactly 1.0
        assert section["top1_accuracy"] >= 0.9
        assert section["images_per_second"] > 0
        assert section["num_packed_steps"] == 4

    def test_model_without_builder_rejected(self):
        scenario = Scenario(
            name="no-builder", model="reactnet-head",
            backends=("inference",),
        )
        with pytest.raises(ValueError, match="no runnable builder"):
            Simulator().run(scenario)

    def test_backend_parameter_validation(self):
        from repro.sim import get_backend

        with pytest.raises(ValueError, match="unknown engine"):
            get_backend("inference", engine="warp")
        with pytest.raises(ValueError, match="images"):
            get_backend("inference", images=0)

    def test_report_round_trips_inference_section(self):
        scenario = Scenario(
            name="serving-json", model="small-bnn",
            backends=("inference",),
        )
        report = Simulator().run(scenario)
        from repro.sim import SimulationReport

        clone = SimulationReport.from_json(report.to_json())
        assert clone.sections["inference"]["logits_bitexact"] is True
