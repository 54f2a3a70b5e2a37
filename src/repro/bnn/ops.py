"""Binary convolution and dense kernels (Eq. 2: popcount(xnor(w, x))).

Two interchangeable implementations are provided:

* ``*_reference`` — float matrix multiply over {+1, -1} values.  Slow but
  obviously correct; the ground truth in tests.
* ``*_packed`` — the daBNN-style bit-packed path: channel-packed operands,
  xor + popcount, ``dot = bits - 2 * popcount``.  This is the layout whose
  memory traffic the hardware model simulates.

Padding semantics: spatial padding inserts 0 bits, which decode to -1 —
the exact "padding BNN kernels is challenging" situation of Sec. IV-B.
Both implementations apply the same convention (pad contributes as -1), so
they agree bit-for-bit; like the paper, the ReActNet-like model chooses
channel counts so that channel padding is never needed.
"""

from __future__ import annotations

import math
from typing import Optional, Tuple, Union

import numpy as np

from .contraction import (
    ContractionTelemetry,
    contract_packed_patches,
    pack_input_patches,
    resolve_strategy,
)
from .packing import pack_bits

__all__ = [
    "CONTRACTION_STRATEGIES",
    "PackedOperand",
    "conv_output_size",
    "im2col",
    "im2col_bits",
    "binary_conv2d_reference",
    "binary_conv2d_packed",
    "binary_dense_reference",
    "binary_dense_packed",
]

#: a prepacked binary operand: ``(words, num_bits)`` as produced by
#: :func:`repro.bnn.packing.pack_kernel_channels` / ``pack_bits``
PackedOperand = Tuple[np.ndarray, int]

#: how the packed ops contract bits: ``popcount`` is the hardware-faithful
#: xnor+popcount over 64-bit words (the traffic the hw model simulates);
#: ``gemm`` evaluates the *same* Eq. 2 dot product as a BLAS contraction
#: of {0, 1} patch bits against {+1, -1} weights.  Every intermediate
#: of both strategies is a small exact integer, so their outputs are
#: bit-identical — ``gemm`` is simply how a CPU without a vector
#: popcount serves fastest.  Either one fans large contractions out
#: over the shared worker pool (see :mod:`repro.bnn.contraction`);
#: tiling cannot change the integers, so every strategy/thread
#: combination stays bit-identical.
CONTRACTION_STRATEGIES = ("popcount", "gemm")


def _as_packed_kernel(
    kernel: PackedOperand,
    in_channels: int,
    kernel_size: Optional[int] = None,
) -> Tuple[np.ndarray, int, int, int]:
    """Validate a prepacked operand; returns ``(words, num_bits, out, k)``.

    The kernel geometry is recovered from ``num_bits = in * k * k``; when
    the caller knows the true ``kernel_size`` (the plan engine always
    does) passing it cross-checks the operand against the input instead
    of trusting the inference — a channel-mismatched operand whose bit
    count happens to factor as a different square kernel is rejected
    rather than silently reinterpreted.
    """
    words, num_bits = kernel
    words = np.asarray(words, dtype=np.uint64)
    if words.ndim != 2:
        raise ValueError(
            f"prepacked kernel words must be 2-D (out, words), "
            f"got {words.ndim} dims"
        )
    if kernel_size is None:
        if num_bits % in_channels:
            raise ValueError(
                f"prepacked num_bits {num_bits} is not a multiple of "
                f"in_channels {in_channels}"
            )
        kernel_size = math.isqrt(num_bits // in_channels)
    if kernel_size * kernel_size * in_channels != num_bits:
        raise ValueError(
            f"prepacked num_bits {num_bits} does not describe a "
            f"{kernel_size}x{kernel_size} kernel over {in_channels} channels"
        )
    return words, int(num_bits), words.shape[0], kernel_size


def conv_output_size(size: int, kernel: int, stride: int, padding: int) -> int:
    """Spatial output size of a convolution along one dimension."""
    if size <= 0 or kernel <= 0 or stride <= 0 or padding < 0:
        raise ValueError(
            f"invalid conv geometry: size={size} kernel={kernel} "
            f"stride={stride} padding={padding}"
        )
    out = (size + 2 * padding - kernel) // stride + 1
    if out <= 0:
        raise ValueError(
            f"empty output: size={size} kernel={kernel} "
            f"stride={stride} padding={padding}"
        )
    return out


def im2col(
    x: np.ndarray, kernel: int, stride: int, padding: int, pad_value: float = 0.0
) -> np.ndarray:
    """Extract convolution patches in (kh, kw, channel) position-major order.

    ``x`` has shape ``(batch, channels, height, width)``; the result has
    shape ``(batch, out_h, out_w, kernel * kernel * channels)``, matching
    the layout of :func:`repro.bnn.packing.pack_kernel_channels`.
    """
    x = np.asarray(x)
    if x.ndim != 4:
        raise ValueError(f"expected (N, C, H, W) input, got {x.ndim} dims")
    batch, channels, height, width = x.shape
    out_h = conv_output_size(height, kernel, stride, padding)
    out_w = conv_output_size(width, kernel, stride, padding)
    if padding:
        x = np.pad(
            x,
            ((0, 0), (0, 0), (padding, padding), (padding, padding)),
            constant_values=pad_value,
        )
    # gather windows: (N, C, out_h, out_w, kh, kw)
    windows = np.lib.stride_tricks.sliding_window_view(
        x, (kernel, kernel), axis=(2, 3)
    )[:, :, ::stride, ::stride]
    # -> (N, out_h, out_w, kh, kw, C) -> flatten position-major
    patches = windows.transpose(0, 2, 3, 4, 5, 1)
    return patches.reshape(batch, out_h, out_w, kernel * kernel * channels)


def im2col_bits(
    x_bits: np.ndarray, kernel: int, stride: int, padding: int
) -> np.ndarray:
    """Bit-domain im2col; spatial padding inserts 0 bits (logical -1)."""
    x_bits = np.asarray(x_bits, dtype=np.uint8)
    patches = im2col(x_bits, kernel, stride, padding, pad_value=0)
    # the uint8 input guarantees uint8 patches; asarray avoids the copy
    # a same-dtype astype would make on this hot path
    return np.asarray(patches, dtype=np.uint8)


def binary_conv2d_reference(
    x_signs: np.ndarray,
    kernel_signs: np.ndarray,
    stride: int = 1,
    padding: int = 1,
) -> np.ndarray:
    """Float reference of Eq. 2 over {+1, -1} operands.

    ``x_signs``: ``(N, C, H, W)``, ``kernel_signs``: ``(O, C, kh, kw)``;
    spatial padding contributes -1.  Returns ``(N, O, out_h, out_w)``
    ``float32``.
    """
    x_signs = np.asarray(x_signs, dtype=np.float32)
    kernel_signs = np.asarray(kernel_signs, dtype=np.float32)
    out_ch, in_ch, kh, kw = kernel_signs.shape
    if kh != kw:
        raise ValueError(f"only square kernels supported, got {kh}x{kw}")
    if x_signs.shape[1] != in_ch:
        raise ValueError(
            f"channel mismatch: input {x_signs.shape[1]} vs kernel {in_ch}"
        )
    patches = im2col(x_signs, kh, stride, padding, pad_value=-1.0)
    weights = kernel_signs.transpose(0, 2, 3, 1).reshape(out_ch, -1)
    out = patches @ weights.T
    return out.transpose(0, 3, 1, 2).astype(np.float32)


def binary_conv2d_packed(
    x_bits: np.ndarray,
    kernel_bits: Union[np.ndarray, PackedOperand],
    stride: int = 1,
    padding: int = 1,
    out_channel_chunk: int = 64,
    strategy: str = "popcount",
    kernel_size: Optional[int] = None,
    threads: Optional[int] = None,
    telemetry: Optional[ContractionTelemetry] = None,
) -> np.ndarray:
    """Bit-packed binary convolution (the daBNN execution model).

    ``x_bits``: ``(N, C, H, W)`` in {0, 1}; ``kernel_bits``: either an
    ``(O, C, kh, kw)`` bit tensor in {0, 1} or a prepacked
    ``(words, num_bits)`` pair from
    :func:`~repro.bnn.packing.pack_kernel_channels`, which skips the
    per-call channel packing (the serving hot path).  Output is the
    integer dot product over {+1, -1} semantics, identical to
    :func:`binary_conv2d_reference`.

    ``strategy`` picks the contraction (see
    :data:`CONTRACTION_STRATEGIES`): ``popcount`` is the xnor+popcount
    word loop the hardware model mirrors; ``gemm`` computes the same
    exact integers through a BLAS contraction (the fast serving path).
    ``out_channel_chunk`` bounds the popcount strategy's xor
    intermediate, mirroring how a real kernel tiles over output
    channels.  ``threads`` pins the tile fan-out; the default ``None``
    threads only large calls (see
    :func:`~repro.bnn.contraction.contract_packed_patches`).

    ``kernel_size`` (prepacked operands only) cross-checks the operand's
    geometry against the input instead of inferring it from the bit
    count.  ``telemetry`` collects tile/timing counters per strategy.
    (The plan engine calls the contraction directly, with the gemm
    operand cached per weight version.)
    """
    # validate knobs before any operand conversion work
    strategy, threads = resolve_strategy(
        strategy, threads, CONTRACTION_STRATEGIES
    )
    if out_channel_chunk <= 0:
        raise ValueError(
            f"out_channel_chunk must be positive, got {out_channel_chunk}"
        )
    x_bits = np.asarray(x_bits, dtype=np.uint8)
    if isinstance(kernel_bits, tuple):
        w_words, kernel_num_bits, _, kh = _as_packed_kernel(
            kernel_bits, x_bits.shape[1], kernel_size
        )
    else:
        kernel_arr = np.asarray(kernel_bits, dtype=np.uint8)
        out_ch, in_ch, kh, kw = kernel_arr.shape
        if kh != kw:
            raise ValueError(f"only square kernels supported, got {kh}x{kw}")
        if x_bits.shape[1] != in_ch:
            raise ValueError(
                f"channel mismatch: input {x_bits.shape[1]} vs kernel {in_ch}"
            )
        # position-major flatten, the layout im2col produces
        flat_bits = kernel_arr.transpose(0, 2, 3, 1).reshape(out_ch, -1)
        kernel_num_bits = flat_bits.shape[-1]
        w_words = pack_bits(flat_bits)
    patch_words, num_bits = pack_input_patches(x_bits, kh, stride, padding)
    if kernel_num_bits != num_bits:
        raise AssertionError("kernel/patch bit count mismatch")
    out = contract_packed_patches(
        patch_words,
        w_words,
        num_bits,
        strategy,
        threads,
        out_channel_chunk,
        telemetry=telemetry,
    )
    # accumulate position-major and hand back a transposed view: the same
    # memory layout the float reference produces, so downstream float ops
    # iterate both paths in the same order (bit-identical plan logits)
    return out.transpose(0, 3, 1, 2)


def binary_dense_reference(
    x_signs: np.ndarray, weight_signs: np.ndarray
) -> np.ndarray:
    """Binary fully-connected layer over {+1, -1}: ``x @ w.T``."""
    x_signs = np.asarray(x_signs, dtype=np.float32)
    weight_signs = np.asarray(weight_signs, dtype=np.float32)
    if x_signs.shape[-1] != weight_signs.shape[-1]:
        raise ValueError(
            f"feature mismatch: {x_signs.shape[-1]} vs {weight_signs.shape[-1]}"
        )
    return (x_signs @ weight_signs.T).astype(np.float32)


def binary_dense_packed(
    x_bits: np.ndarray,
    weight_bits: Union[np.ndarray, PackedOperand],
    strategy: str = "popcount",
    threads: Optional[int] = None,
    out_channel_chunk: int = 64,
    telemetry: Optional[ContractionTelemetry] = None,
) -> np.ndarray:
    """Bit-packed binary dense layer; same semantics as the reference.

    ``weight_bits`` is either an ``(out, features)`` bit tensor or a
    prepacked ``(words, num_bits)`` pair from
    :func:`~repro.bnn.packing.pack_bits`, which skips per-call weight
    packing.  ``strategy``, ``threads``, ``out_channel_chunk`` and
    ``telemetry`` behave exactly as their namesakes in
    :func:`binary_conv2d_packed`.
    """
    strategy, threads = resolve_strategy(
        strategy, threads, CONTRACTION_STRATEGIES
    )
    if out_channel_chunk <= 0:
        raise ValueError(
            f"out_channel_chunk must be positive, got {out_channel_chunk}"
        )
    x_bits = np.asarray(x_bits, dtype=np.uint8)
    num_bits = x_bits.shape[-1]
    if isinstance(weight_bits, tuple):
        w_words, weight_num_bits = weight_bits
        w_words = np.asarray(w_words, dtype=np.uint64)
    else:
        flat_bits = np.asarray(weight_bits, dtype=np.uint8)
        weight_num_bits = flat_bits.shape[-1]
        w_words = pack_bits(flat_bits)
    if num_bits != weight_num_bits:
        raise ValueError(
            f"feature mismatch: {num_bits} vs {weight_num_bits}"
        )
    return contract_packed_patches(
        pack_bits(x_bits),
        w_words,
        num_bits,
        strategy,
        threads,
        out_channel_chunk,
        telemetry=telemetry,
    )
