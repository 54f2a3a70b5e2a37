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

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.bnn.binarize import binarize_bits
from repro.bnn.contraction import (
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

THREADED = tuple(
    name for name in CONTRACTION_STRATEGIES if name.endswith("-threaded")
)


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
        out = binary_conv2d_packed(
            x_bits,
            k_bits,
            stride=1,
            padding=1,
            out_channel_chunk=chunk,
            strategy=strategy,
            threads=threads if strategy in THREADED else None,
        )
        assert out.dtype == np.int32
        assert np.array_equal(out.astype(np.float32), reference), strategy


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
        result = binary_dense_packed(
            x_bits,
            w_bits,
            strategy=strategy,
            threads=threads if strategy in THREADED else None,
            out_channel_chunk=chunk,
        )
        assert np.array_equal(result.astype(np.float32), reference), strategy


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
    assert resolve_strategy("popcount", None, strategies) == ("popcount", 1)
    assert resolve_strategy("gemm", 0, strategies) == ("gemm", 1)
    assert resolve_strategy("gemm", 6, strategies) == ("gemm", 6)
    base, threads = resolve_strategy("popcount-threaded", None, strategies)
    assert base == "popcount"
    assert threads == default_threads()
    assert resolve_strategy("gemm-threaded", 3, strategies) == ("gemm", 3)
    with pytest.raises(ValueError, match="strategy"):
        resolve_strategy("xnor", None, strategies)


def test_default_threads_env_pin(monkeypatch):
    monkeypatch.setenv("REPRO_THREADS", "3")
    assert default_threads() == 3
    monkeypatch.setenv("REPRO_THREADS", "0")
    assert default_threads() == 1
    monkeypatch.setenv("REPRO_THREADS", "many")
    with pytest.raises(ValueError, match="REPRO_THREADS"):
        default_threads()


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
