"""Channel packing of binary tensors into machine words (Sec. IV-B, Fig. 5).

On a CPU, the efficient layout for binary kernels packs bits *across
channels* for a fixed spatial position, so one register load brings in the
same kernel position of many channels.  daBNN uses this layout on ARMv8;
the paper adopts it for the uncompressed baseline and the packing unit of
the decoding unit recreates it at runtime for decompressed sequences.

Because a binary dot product is ``bits - 2 * popcount(xor(w, x))`` and
popcount is invariant to any bit permutation, the only layout requirement
is that weights and inputs are packed *identically*.  We pack along the
channel axis into 64-bit words (two words model a 128-bit NEON register).

Padding: when the channel count is not a multiple of the word size, the
tail is padded with 0 bits.  A 0 bit decodes to -1 (Sec. IV-B notes this
makes padding non-trivial), so :func:`packed_dot` subtracts the pad
contribution explicitly — pad bits are equal in both operands and
contribute ``xnor = 1`` each, which must not count toward the result.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

__all__ = [
    "WORD_BITS",
    "pack_bits",
    "unpack_bits",
    "packed_words",
    "popcount64",
    "packed_dot",
    "pack_kernel_channels",
]

WORD_BITS = 64

# popcount lookup for one byte; applied to the uint8 view of word arrays.
_BYTE_POPCOUNT = np.array(
    [bin(value).count("1") for value in range(256)], dtype=np.uint8
)


def packed_words(num_bits: int) -> int:
    """Number of 64-bit words needed to hold ``num_bits``."""
    if num_bits < 0:
        raise ValueError(f"num_bits must be non-negative, got {num_bits}")
    return (num_bits + WORD_BITS - 1) // WORD_BITS


def pack_bits(bits: np.ndarray) -> np.ndarray:
    """Pack a bit array along its last axis into ``uint64`` words.

    ``bits`` has shape ``(..., n)`` with values in {0, 1}; the result has
    shape ``(..., ceil(n / 64))``.  The tail word is zero padded.
    """
    bits = np.asarray(bits, dtype=np.uint8)
    n = bits.shape[-1]
    words = packed_words(n)
    padded = bits
    if n != words * WORD_BITS:
        padded = np.zeros(
            bits.shape[:-1] + (words * WORD_BITS,), dtype=np.uint8
        )
        padded[..., :n] = bits
    # packbits keeps a transposed input's memory order; the word view
    # needs the byte axis contiguous
    packed = np.ascontiguousarray(np.packbits(padded, axis=-1))
    return packed.view(">u8").astype(np.uint64)


def unpack_bits(words: np.ndarray, num_bits: int) -> np.ndarray:
    """Inverse of :func:`pack_bits`: recover the first ``num_bits`` bits."""
    words = np.asarray(words, dtype=np.uint64)
    as_bytes = words.astype(">u8").view(np.uint8)
    bits = np.unpackbits(as_bytes, axis=-1)
    if num_bits > bits.shape[-1]:
        raise ValueError(
            f"num_bits {num_bits} exceeds packed capacity {bits.shape[-1]}"
        )
    return bits[..., :num_bits]


def popcount64(words: np.ndarray) -> np.ndarray:
    """Summed popcount along the last (word) axis.

    Models the NEON ``cnt``+``addv`` reduction used by daBNN kernels,
    through numpy's native per-word ``bitwise_count``;
    :func:`_popcount64_bytes` keeps a byte-table formulation as the
    equivalence oracle for tests.
    """
    words = np.asarray(words, dtype=np.uint64)
    return np.bitwise_count(words).sum(axis=-1, dtype=np.int64)


def _popcount64_bytes(words: np.ndarray) -> np.ndarray:
    """Reference byte-table popcount: the test oracle of :func:`popcount64`."""
    words = np.asarray(words, dtype=np.uint64)
    as_bytes = words.view(np.uint8).reshape(words.shape + (8,))
    return _BYTE_POPCOUNT[as_bytes].sum(axis=(-1, -2)).astype(np.int64)


def packed_dot(
    w_words: np.ndarray, x_words: np.ndarray, num_bits: int
) -> np.ndarray:
    """Binary dot product of packed operands over ``num_bits`` real bits.

    Computes ``sum_i w_i * x_i`` with ``w, x`` in {+1, -1} via
    ``num_bits - 2 * popcount(xor)``.  Pad bits (both zero) xor to zero and
    therefore drop out of the popcount, so only ``num_bits`` matters.
    Operands broadcast against each other on leading axes.
    """
    w_words = np.asarray(w_words, dtype=np.uint64)
    x_words = np.asarray(x_words, dtype=np.uint64)
    if w_words.shape[-1] != x_words.shape[-1]:
        raise ValueError(
            "operands disagree on word count: "
            f"{w_words.shape[-1]} vs {x_words.shape[-1]}"
        )
    mismatches = popcount64(np.bitwise_xor(w_words, x_words))
    return num_bits - 2 * mismatches


def pack_kernel_channels(
    kernel_bits: np.ndarray,
) -> Tuple[np.ndarray, int]:
    """Channel-pack a 3x3 kernel bit tensor (Fig. 5 layout).

    ``kernel_bits`` has shape ``(out_channels, in_channels, kh, kw)``.  For
    each output channel the ``in_channels * kh * kw`` bits are laid out
    position-major — all channels' bit for position (0,0), then (0,1), ...
    — and packed into 64-bit words.

    Returns ``(words, num_bits)`` where ``words`` has shape
    ``(out_channels, ceil(in*kh*kw / 64))``.
    """
    kernel_bits = np.asarray(kernel_bits, dtype=np.uint8)
    if kernel_bits.ndim != 4:
        raise ValueError(
            f"expected (out, in, kh, kw) kernel, got {kernel_bits.ndim} dims"
        )
    out_channels, in_channels, kh, kw = kernel_bits.shape
    # position-major: (out, kh, kw, in) flattened
    position_major = kernel_bits.transpose(0, 2, 3, 1).reshape(out_channels, -1)
    num_bits = in_channels * kh * kw
    return pack_bits(position_major), num_bits
