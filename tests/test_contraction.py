"""Threaded tiled contraction engine: bit-identity is the contract.

Every strategy x tiling x thread-count combination of
:mod:`repro.bnn.contraction` must produce the *same integers* as the
float reference — the partial sums are small exact integers, so any
reassociation (BLAS blocking, tile order, thread interleaving) is
provably value-preserving, and the property suites here pin that
guarantee across the ``batch x out_channel x tile-size`` grid.  The
fused threshold->pack stage is held to the same standard against the
unfused ``binarize -> im2col -> pack`` composition it replaces.
"""

import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.bnn.binarize import binarize_bits
from repro.bnn.contraction import (
    AUTO_THREADS_MIN_WORK,
    BitThreshold,
    ContractionTelemetry,
    contract_packed_patches,
    default_threads,
    pack_input_patches,
    resolve_strategy,
    threshold_pack_patches,
    tile_spans,
)
from repro.bnn.ops import (
    CONTRACTION_STRATEGIES,
    binary_conv2d_packed,
    binary_conv2d_reference,
    binary_dense_packed,
    binary_dense_reference,
    im2col_bits,
)
from repro.bnn.packing import pack_bits, pack_kernel_channels
from repro.bnn.reactnet import build_small_bnn
from repro.infer import InferencePlan


def _conv_case(seed, batch, in_ch, out_ch, size, kernel=3):
    rng = np.random.default_rng(seed)
    x_bits = rng.integers(0, 2, (batch, in_ch, size, size), dtype=np.uint8)
    k_bits = rng.integers(
        0, 2, (out_ch, in_ch, kernel, kernel), dtype=np.uint8
    )
    return x_bits, k_bits


# ----------------------------------------------------------------------
# Threaded-vs-serial parity over the batch x out_channel x tile grid
# ----------------------------------------------------------------------
@settings(deadline=None, max_examples=40)
@given(
    seed=st.integers(0, 2**31 - 1),
    batch=st.integers(1, 5),
    in_ch=st.sampled_from([3, 16, 64, 130]),
    out_ch=st.integers(1, 9),
    chunk=st.sampled_from([1, 3, 64]),
    threads=st.sampled_from([2, 3, 5]),
)
def test_conv_threaded_matches_serial_and_reference(
    seed, batch, in_ch, out_ch, chunk, threads
):
    x_bits, k_bits = _conv_case(seed, batch, in_ch, out_ch, size=5)
    reference = binary_conv2d_reference(
        x_bits * 2.0 - 1.0, k_bits * 2.0 - 1.0, stride=1, padding=1
    )
    for strategy in CONTRACTION_STRATEGIES:
        for width in (None, threads):
            out = binary_conv2d_packed(
                x_bits,
                k_bits,
                stride=1,
                padding=1,
                out_channel_chunk=chunk,
                strategy=strategy,
                threads=width,
            )
            assert out.dtype == np.int32
            assert np.array_equal(
                out.astype(np.float32), reference
            ), (strategy, width)


@settings(deadline=None, max_examples=40)
@given(
    seed=st.integers(0, 2**31 - 1),
    batch=st.integers(1, 6),
    features=st.sampled_from([7, 64, 100, 192]),
    out=st.integers(1, 9),
    chunk=st.sampled_from([1, 4, 64]),
    threads=st.sampled_from([2, 3]),
)
def test_dense_threaded_matches_serial_and_reference(
    seed, batch, features, out, chunk, threads
):
    rng = np.random.default_rng(seed)
    x_bits = rng.integers(0, 2, (batch, features), dtype=np.uint8)
    w_bits = rng.integers(0, 2, (out, features), dtype=np.uint8)
    reference = binary_dense_reference(
        x_bits * 2.0 - 1.0, w_bits * 2.0 - 1.0
    )
    for strategy in CONTRACTION_STRATEGIES:
        for width in (None, threads):
            result = binary_dense_packed(
                x_bits,
                w_bits,
                strategy=strategy,
                threads=width,
                out_channel_chunk=chunk,
            )
            assert np.array_equal(
                result.astype(np.float32), reference
            ), (strategy, width)


def test_explicit_threads_on_base_strategy_matches_serial():
    """A positive ``threads`` forces the pool even for base strategies."""
    x_bits, k_bits = _conv_case(7, batch=4, in_ch=16, out_ch=6, size=6)
    serial = binary_conv2d_packed(x_bits, k_bits, strategy="popcount")
    for strategy in ("popcount", "gemm"):
        threaded = binary_conv2d_packed(
            x_bits, k_bits, strategy=strategy, threads=4
        )
        assert np.array_equal(threaded, serial)


# ----------------------------------------------------------------------
# Folded thresholds: bits straight out of the contraction
# ----------------------------------------------------------------------
@settings(deadline=None, max_examples=30)
@given(
    seed=st.integers(0, 2**31 - 1),
    rows=st.sampled_from([1, 7, 1023, 1025, 2600]),
    in_ch=st.sampled_from([3, 64, 130]),
    out_ch=st.integers(1, 9),
    threads=st.sampled_from([1, 2, 3]),
    descending=st.booleans(),
)
def test_threshold_selects_the_same_bits_for_every_strategy(
    seed, rows, in_ch, out_ch, threads, descending
):
    rng = np.random.default_rng(seed)
    num_bits = 9 * in_ch
    patch_words = pack_bits(rng.integers(0, 2, (rows, num_bits), np.uint8))
    w_words, _ = pack_kernel_channels(
        rng.integers(0, 2, (out_ch, in_ch, 3, 3), np.uint8)
    )
    at_least = rng.integers(-num_bits - 2, num_bits + 3, out_ch)
    flip = rng.random(out_ch) < 0.5 if descending else None
    threshold = BitThreshold(at_least, flip)
    reference = None
    for strategy in ("popcount", "gemm"):
        dots = contract_packed_patches(
            patch_words, w_words, num_bits, strategy, threads, 4
        )
        bits = contract_packed_patches(
            patch_words, w_words, num_bits, strategy, threads, 4,
            threshold=threshold,
        )
        expected = dots >= at_least
        if flip is not None:
            expected = expected != flip
        assert bits.dtype == np.uint8
        assert np.array_equal(bits, expected.view(np.uint8)), strategy
        if reference is None:
            reference = dots
        assert np.array_equal(dots, reference), strategy


def test_gemm_tiles_rows_with_a_floor():
    telemetry = ContractionTelemetry()
    rng = np.random.default_rng(3)
    num_bits = 64
    patch_words = pack_bits(rng.integers(0, 2, (20000, num_bits), np.uint8))
    w_words = pack_bits(rng.integers(0, 2, (5, num_bits), np.uint8))
    contract_packed_patches(
        patch_words, w_words, num_bits, "gemm", 1, 64, telemetry=telemetry
    )
    # a 64-bit plane row is 256 B: 2 MB tiles hold 8192 rows
    assert telemetry.snapshot()["gemm"]["tiles"] == 3
    wide = pack_bits(rng.integers(0, 2, (2100, 4608), np.uint8))
    contract_packed_patches(
        wide, pack_bits(rng.integers(0, 2, (5, 4608), np.uint8)), 4608,
        "gemm", 1, 64, telemetry=telemetry,
    )
    # 2 MB would be 113 rows of 4608 bits; the 1024-row floor wins
    assert telemetry.snapshot()["gemm"]["tiles"] == 3 + 3


# ----------------------------------------------------------------------
# Fused threshold -> pack
# ----------------------------------------------------------------------
@settings(deadline=None, max_examples=40)
@given(
    seed=st.integers(0, 2**31 - 1),
    channels=st.sampled_from([1, 3, 8, 16, 64, 96, 128]),
    kernel_stride_pad=st.sampled_from([(3, 1, 1), (3, 2, 1), (1, 1, 0)]),
    with_shift=st.booleans(),
)
def test_threshold_pack_matches_unfused_pipeline(
    seed, channels, kernel_stride_pad, with_shift
):
    kernel, stride, padding = kernel_stride_pad
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((2, channels, 5, 5)).astype(np.float32)
    shift = (
        rng.standard_normal(channels).astype(np.float32)
        if with_shift
        else None
    )
    fused_words, num_bits = threshold_pack_patches(
        x, shift, kernel, stride, padding
    )
    shifted = x if shift is None else x - shift[None, :, None, None]
    patches = im2col_bits(binarize_bits(shifted), kernel, stride, padding)
    assert num_bits == patches.shape[-1]
    assert np.array_equal(fused_words, pack_bits(patches))


@settings(deadline=None, max_examples=30)
@given(
    seed=st.integers(0, 2**31 - 1),
    channels=st.sampled_from([2, 4, 17, 64, 128, 192]),
)
def test_pack_input_patches_matches_im2col_pack(seed, channels):
    """All three pack paths (aligned / word-multiple / row-tiled) agree."""
    rng = np.random.default_rng(seed)
    x_bits = rng.integers(0, 2, (2, channels, 4, 4), dtype=np.uint8)
    words, num_bits = pack_input_patches(x_bits, 3, 1, 1)
    patches = im2col_bits(x_bits, 3, 1, 1)
    assert num_bits == patches.shape[-1]
    assert np.array_equal(words, pack_bits(patches))


def test_threshold_pack_passes_thresholded_bits_through():
    rng = np.random.default_rng(9)
    x_bits = rng.integers(0, 2, (2, 16, 5, 5), dtype=np.uint8)
    words, _ = threshold_pack_patches(x_bits, None, 3, 2, 1)
    assert np.array_equal(words, pack_input_patches(x_bits, 3, 2, 1)[0])
    with pytest.raises(ValueError, match="no shift"):
        threshold_pack_patches(x_bits, np.zeros(16, np.float32), 3, 2, 1)


# ----------------------------------------------------------------------
# Validation order and strategy resolution
# ----------------------------------------------------------------------
class _ExplodingOperand:
    """An operand whose conversion must never happen on invalid knobs."""

    def __array__(self, dtype=None, copy=None):
        raise AssertionError("operand converted before knob validation")


def test_bad_strategy_rejected_before_conversion():
    with pytest.raises(ValueError, match="strategy"):
        binary_conv2d_packed(
            _ExplodingOperand(), _ExplodingOperand(), strategy="simd"
        )


def test_bad_chunk_rejected_before_conversion():
    with pytest.raises(ValueError, match="out_channel_chunk"):
        binary_conv2d_packed(
            _ExplodingOperand(),
            _ExplodingOperand(),
            out_channel_chunk=0,
        )
    with pytest.raises(ValueError, match="out_channel_chunk"):
        binary_dense_packed(
            _ExplodingOperand(),
            _ExplodingOperand(),
            out_channel_chunk=-3,
        )


def test_negative_threads_rejected():
    with pytest.raises(ValueError, match="threads"):
        binary_conv2d_packed(
            _ExplodingOperand(), _ExplodingOperand(), threads=-1
        )


def test_resolve_strategy_rules():
    strategies = CONTRACTION_STRATEGIES
    assert strategies == ("popcount", "gemm")
    # None and 0 leave the width to each call; a positive one pins it
    assert resolve_strategy("popcount", None, strategies) == (
        "popcount", None
    )
    assert resolve_strategy("gemm", 0, strategies) == ("gemm", None)
    assert resolve_strategy("gemm", 6, strategies) == ("gemm", 6)
    assert resolve_strategy("popcount", 1, strategies) == ("popcount", 1)
    for retired in ("xnor", "popcount-threaded", "gemm-threaded"):
        with pytest.raises(ValueError, match="strategy"):
            resolve_strategy(retired, None, strategies)


def test_default_threads_env_pin(monkeypatch):
    monkeypatch.setenv("REPRO_THREADS", "3")
    assert default_threads() == 3
    monkeypatch.setenv("REPRO_THREADS", "0")
    assert default_threads() == 1
    # the pin obeys the pool cap too (pure: no pool, no threads built)
    monkeypatch.setenv("REPRO_THREADS", "10000")
    assert default_threads() == 16
    monkeypatch.setenv("REPRO_THREADS", "many")
    with pytest.raises(ValueError, match="REPRO_THREADS"):
        default_threads()


def test_default_threads_counts_usable_cpus(monkeypatch):
    """The affinity mask, not the host's CPU count, sizes the width."""
    monkeypatch.delenv("REPRO_THREADS", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    monkeypatch.setattr(
        os, "sched_getaffinity", lambda pid: {3}, raising=False
    )
    assert default_threads() == 1
    monkeypatch.setattr(
        os, "sched_getaffinity", lambda pid: {0, 2, 5}, raising=False
    )
    assert default_threads() == 3  # read at call time, not at import
    monkeypatch.setenv("REPRO_THREADS", "2")
    assert default_threads() == 2  # the pin still wins
    monkeypatch.delenv("REPRO_THREADS")
    monkeypatch.delattr(os, "sched_getaffinity")
    assert default_threads() == 8  # no affinity mask: the CPU count


# ----------------------------------------------------------------------
# The automatic width: large contractions fan out, small ones do not
# ----------------------------------------------------------------------
@pytest.mark.parametrize("strategy", CONTRACTION_STRATEGIES)
def test_auto_width_threads_large_contractions(monkeypatch, strategy):
    monkeypatch.setenv("REPRO_THREADS", "2")
    rng = np.random.default_rng(21)
    rows, num_bits, out_ch = 2100, 1000, 9
    assert rows * num_bits * out_ch >= AUTO_THREADS_MIN_WORK
    patch_bits = rng.integers(0, 2, (rows, num_bits), np.uint8)
    patch_words = pack_bits(patch_bits)
    w_bits = rng.integers(0, 2, (out_ch, num_bits), np.uint8)
    w_words = pack_bits(w_bits)
    threshold = BitThreshold(
        rng.integers(-40, 41, out_ch), rng.random(out_ch) < 0.5
    )
    results = {}
    for width in (None, 1):
        telemetry = ContractionTelemetry()
        dots = contract_packed_patches(
            patch_words, w_words, num_bits, strategy, width, 4,
            telemetry=telemetry,
        )
        bits = contract_packed_patches(
            patch_words, w_words, num_bits, strategy, width, 4,
            threshold=threshold, telemetry=telemetry,
        )
        results[width] = dots, bits
        stats = telemetry.snapshot()[strategy]
        assert stats["threaded_calls"] == (2 if width is None else 0)
        assert stats["max_threads"] == (2 if width is None else 1)
    assert np.array_equal(results[None][0], results[1][0])
    assert np.array_equal(results[None][1], results[1][1])
    reference = binary_dense_reference(
        patch_bits * 2.0 - 1.0, w_bits * 2.0 - 1.0
    )
    assert np.array_equal(results[None][0].astype(np.float32), reference)


@pytest.mark.parametrize("batch", [1, 64, 256])
def test_small_bnn_stays_serial_by_default(monkeypatch, batch):
    """No small-bnn contraction reaches the floor, even on a wide host."""
    monkeypatch.setenv("REPRO_THREADS", "2")
    model = build_small_bnn(
        in_channels=1, num_classes=10, image_size=8, channels=(16, 32),
        seed=0,
    )
    model.eval()
    x = np.random.default_rng(batch).standard_normal(
        (batch, 1, 8, 8)
    ).astype(np.float32)
    oracle = model.forward_batched(x, batch_size=batch)
    for strategy in CONTRACTION_STRATEGIES:
        plan = InferencePlan.from_model(model, strategy=strategy)
        assert np.array_equal(plan.run_batch(x), oracle), strategy
        stats = plan.contraction_stats()[strategy]
        assert stats["calls"] > 0
        assert stats["threaded_calls"] == 0, (strategy, batch)


def test_gemm_tile_count_rounds_up_to_whole_waves():
    rng = np.random.default_rng(4)
    num_bits = 2048  # 1024-row tiles: 6500 rows need 7 of them
    patch_words = pack_bits(rng.integers(0, 2, (6500, num_bits), np.uint8))
    w_words = pack_bits(rng.integers(0, 2, (2, num_bits), np.uint8))
    serial = contract_packed_patches(
        patch_words, w_words, num_bits, "popcount", 1, 64
    )
    for threads, tiles in ((1, 7), (2, 8), (3, 9)):
        telemetry = ContractionTelemetry()
        out = contract_packed_patches(
            patch_words, w_words, num_bits, "gemm", threads, 64,
            telemetry=telemetry,
        )
        assert telemetry.snapshot()["gemm"]["tiles"] == tiles, threads
        assert np.array_equal(out, serial)


# ----------------------------------------------------------------------
# Tiling and telemetry plumbing
# ----------------------------------------------------------------------
@settings(deadline=None, max_examples=60)
@given(total=st.integers(0, 200), tiles=st.integers(1, 24))
def test_tile_spans_partition_the_range(total, tiles):
    spans = tile_spans(total, tiles)
    if total == 0:
        assert spans == []
        return
    assert len(spans) == min(tiles, total)
    assert spans[0][0] == 0
    assert spans[-1][1] == total
    for (_, stop), (start, _) in zip(spans, spans[1:]):
        assert stop == start
    lengths = [stop - start for start, stop in spans]
    assert max(lengths) - min(lengths) <= 1


def test_telemetry_records_and_merges():
    telemetry = ContractionTelemetry()
    x_bits, k_bits = _conv_case(11, batch=3, in_ch=8, out_ch=4, size=5)
    binary_conv2d_packed(
        x_bits, k_bits, strategy="popcount", telemetry=telemetry
    )
    binary_conv2d_packed(
        x_bits, k_bits, strategy="popcount", threads=2, telemetry=telemetry
    )
    stats = telemetry.snapshot()["popcount"]
    assert stats["calls"] == 2
    assert stats["threaded_calls"] == 1
    assert stats["max_threads"] == 2
    assert stats["tiles"] >= 2
    assert stats["seconds"] >= 0.0

    other = ContractionTelemetry()
    binary_conv2d_packed(x_bits, k_bits, strategy="gemm", telemetry=other)
    merged = ContractionTelemetry.merge(
        [telemetry.snapshot(), other.snapshot()]
    )
    assert merged["popcount"]["calls"] == 2
    assert merged["gemm"]["calls"] == 1
