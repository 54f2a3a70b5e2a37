"""Multi-threaded tiled contraction engine for the packed bit-plane kernels.

The packed binary kernels (:func:`repro.bnn.ops.binary_conv2d_packed`,
:func:`~repro.bnn.ops.binary_dense_packed`) evaluate Eq. 2 as exact
integer contractions, which makes them embarrassingly parallel: any
tiling over the ``batch x out_channel`` output grid produces the same
integers because every partial sum of either strategy is a small exact
integer (so even the BLAS ``gemm`` strategy is reassociation-proof).
This module supplies the pieces that turn that observation into the
serving hot path:

* **a shared worker pool** — the ``workers=`` fan-out idiom of
  ``compress_model`` / ``RtlBackend``, but *thread*-based so the packed
  operands are shared zero-copy between tiles (processes would have to
  pickle the whole im2col tensor).  numpy's bitwise/popcount ufuncs and
  the BLAS contraction all release the GIL on the tile sizes the engine
  produces, so tiles genuinely overlap on multi-core hosts.  The pool is
  lazily built and shared by every kernel call in the process — the
  serving daemon's executor threads funnel into one bounded pool
  instead of oversubscribing.  By default a contraction fans out over
  :func:`default_threads` (the CPUs this process may use) once its
  ``rows x num_bits x out_ch`` multiply-accumulates reach
  :data:`AUTO_THREADS_MIN_WORK` (2**24), and smaller calls stay serial.
  A positive ``threads=`` forces a width on any call; ``REPRO_THREADS``
  pins the automatic one (``REPRO_THREADS=1``: every call serial).
* **a fused threshold -> pack stage** — :func:`threshold_pack_patches`
  lowers an RSign threshold straight into packed ``uint64`` patch words:
  one vectorised ``x >= shift`` comparison (no ``x - shift``
  intermediate), then a bit-domain im2col that never materialises the
  whole ``{0, 1}`` ``uint8`` patch tensor between ``im2col_bits`` and
  ``pack_bits``.  When the channel count divides the word width the
  input is packed once per *pixel* and patch words are assembled by
  gathering/shifting those per-pixel codes (64x less data through the
  im2col gather); otherwise the pack runs over bounded row tiles.
* **a bit-emitting contraction** — given a per-channel
  :class:`BitThreshold` (the folded batch norm / RPReLU / RSign glue of
  :mod:`repro.infer.plan`), :func:`contract_packed_patches` compares
  each exact dot product in the tile that produced it and returns the
  next conv's input bits instead of integers.

Telemetry: every contraction records per-strategy call/tile/second
counters into a :class:`ContractionTelemetry`, surfaced by
``InferencePlan.contraction_stats()`` and the serving snapshots the same
way the artifact store's ``fetch_stats()`` counters are.
"""

from __future__ import annotations

import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .packing import WORD_BITS, pack_bits, packed_dot, packed_words, unpack_bits

__all__ = [
    "AUTO_THREADS_MIN_WORK",
    "BitThreshold",
    "ContractionTelemetry",
    "SignOperand",
    "contract_packed_patches",
    "default_threads",
    "resolve_strategy",
    "shared_pool",
    "sign_operand",
    "threshold_pack_patches",
    "tile_spans",
]

#: environment knob pinning the engine's automatic thread count (also
#: the CI reproducibility pin: ``REPRO_THREADS=1`` forces every tile serial)
THREADS_ENV = "REPRO_THREADS"

#: do not spawn more pool threads than this even on very wide hosts;
#: the kernels are memory-bandwidth bound well before 16 tiles overlap
_MAX_POOL_THREADS = 16

#: an automatic-width contraction fans out only from this much work
#: (``rows x num_bits x out_ch`` multiply-accumulates): on a 2-vCPU
#: host two threads made small-bnn plans (every layer <= 2.4M MACs)
#: 28-46% slower and ReActNet (every layer >= 25M MACs) 1.6x faster
AUTO_THREADS_MIN_WORK = 1 << 24


def default_threads() -> int:
    """The engine's automatic thread count, evaluated at call time.

    ``REPRO_THREADS`` pins it (values < 1 mean serial); otherwise the
    number of CPUs this process may run on (its affinity mask, so
    ``taskset`` and cgroup pins count; ``os.cpu_count()`` where the
    platform has no mask).  Either way the result is capped at
    :data:`_MAX_POOL_THREADS`.  A process limited to one CPU resolves
    to 1, i.e. the serial path.
    """
    pinned = os.environ.get(THREADS_ENV, "").strip()
    if pinned:
        try:
            width = int(pinned)
        except ValueError:
            raise ValueError(
                f"{THREADS_ENV} must be an integer, got {pinned!r}"
            ) from None
    elif hasattr(os, "sched_getaffinity"):
        width = len(os.sched_getaffinity(0))
    else:
        width = os.cpu_count() or 1
    return max(1, min(width, _MAX_POOL_THREADS))


def resolve_strategy(
    strategy: str,
    threads: Optional[int],
    strategies: Sequence[str],
) -> Tuple[str, Optional[int]]:
    """Validate ``strategy`` and ``threads`` before any operand work.

    Returns ``(strategy, threads)`` with ``threads`` either a positive
    width that every call forces, or ``None`` (from ``None`` or ``0``):
    the automatic width, :func:`default_threads` for a call whose work
    reaches :data:`AUTO_THREADS_MIN_WORK` and serial below it.
    Validation happens here so a bad knob fails fast and cheap.
    """
    if strategy not in strategies:
        raise ValueError(
            f"unknown strategy {strategy!r}; valid: {tuple(strategies)}"
        )
    if threads is not None and threads < 0:
        raise ValueError(f"threads must be >= 0, got {threads}")
    return strategy, int(threads) if threads else None


# ----------------------------------------------------------------------
# Shared worker pool
# ----------------------------------------------------------------------
_POOL_LOCK = threading.Lock()
_POOL: Optional[ThreadPoolExecutor] = None


def shared_pool() -> ThreadPoolExecutor:
    """The process-wide tile pool, built lazily on first threaded call."""
    global _POOL
    with _POOL_LOCK:
        if _POOL is None:
            _POOL = ThreadPoolExecutor(
                max_workers=max(2, default_threads()),
                thread_name_prefix="repro-contract",
            )
        return _POOL


def tile_spans(total: int, tiles: int) -> List[Tuple[int, int]]:
    """Split ``range(total)`` into at most ``tiles`` contiguous spans."""
    if total <= 0:
        return []
    tiles = max(1, min(tiles, total))
    base, extra = divmod(total, tiles)
    spans = []
    start = 0
    for index in range(tiles):
        stop = start + base + (1 if index < extra else 0)
        spans.append((start, stop))
        start = stop
    return spans


def _run_tiles(
    work: Sequence[Callable[[], None]], threads: int
) -> None:
    """Execute tile thunks, on the shared pool when it can overlap them."""
    if threads <= 1 or len(work) <= 1:
        for thunk in work:
            thunk()
        return
    pool = shared_pool()
    futures = [pool.submit(thunk) for thunk in work]
    error: Optional[BaseException] = None
    for future in futures:
        try:
            future.result()
        except BaseException as exc:  # noqa: BLE001 — re-raised below
            error = error or exc
    if error is not None:
        raise error


# ----------------------------------------------------------------------
# Telemetry
# ----------------------------------------------------------------------
class ContractionTelemetry:
    """Per-strategy contraction counters (calls, tiles, seconds).

    One instance rides on each plan step; ``snapshot()`` is merged into
    ``InferencePlan.contraction_stats()`` and from there into the
    serving daemon's per-tenant metrics, mirroring how store
    ``fetch_stats()`` counters surface.  Thread-safe: the daemon may run
    one plan from several executor threads at once.
    """

    __slots__ = ("_lock", "_stats")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._stats: Dict[str, Dict[str, float]] = {}

    def record(
        self, strategy: str, tiles: int, threads: int, seconds: float
    ) -> None:
        with self._lock:
            entry = self._stats.setdefault(
                strategy,
                {
                    "calls": 0,
                    "tiles": 0,
                    "threaded_calls": 0,
                    "max_threads": 0,
                    "seconds": 0.0,
                },
            )
            entry["calls"] += 1
            entry["tiles"] += tiles
            if threads > 1:
                entry["threaded_calls"] += 1
            entry["max_threads"] = max(entry["max_threads"], threads)
            entry["seconds"] += seconds

    def snapshot(self) -> Dict[str, Dict[str, float]]:
        with self._lock:
            return {
                strategy: dict(entry)
                for strategy, entry in self._stats.items()
            }

    @staticmethod
    def merge(
        snapshots: Sequence[Dict[str, Dict[str, float]]]
    ) -> Dict[str, Dict[str, float]]:
        """Combine per-step snapshots into one per-strategy summary."""
        merged: Dict[str, Dict[str, float]] = {}
        for snapshot in snapshots:
            for strategy, entry in snapshot.items():
                into = merged.setdefault(
                    strategy,
                    {
                        "calls": 0,
                        "tiles": 0,
                        "threaded_calls": 0,
                        "max_threads": 0,
                        "seconds": 0.0,
                    },
                )
                for key, value in entry.items():
                    if key == "max_threads":
                        into[key] = max(into[key], value)
                    else:
                        into[key] += value
        return merged


# ----------------------------------------------------------------------
# Fused threshold -> pack
# ----------------------------------------------------------------------
#: bound on the transient row-tile patch tensor of the general path
_PACK_TILE_BYTES = 1 << 20


def _threshold_bits(
    x: np.ndarray, shift: Optional[np.ndarray]
) -> np.ndarray:
    """``x >= shift`` straight to {0, 1} ``uint8``, no float intermediate.

    Bit-identical to the reference's ``binarize(x - shift)``: IEEE
    subtraction of unequal floats never rounds to zero (gradual
    underflow keeps near cancellations exact), so the sign of
    ``x - shift`` and the predicate ``x >= shift`` always agree.
    """
    if shift is None:
        bits = x >= 0
    else:
        bits = x >= shift[None, :, None, None]
    # bool and uint8 share a memory layout; the view skips a copy
    return bits.view(np.uint8)


def _per_pixel_codes(bits_nhwc: np.ndarray, channels: int) -> np.ndarray:
    """Pack each pixel's channel bits into one big-endian integer code."""
    packed = np.packbits(bits_nhwc, axis=-1)  # (..., ceil(C / 8)) bytes
    if channels <= 8:
        return packed[..., 0].astype(np.uint64) >> np.uint64(8 - channels)
    codes = packed[..., 0].astype(np.uint64)
    for byte_index in range(1, packed.shape[-1]):
        codes = (codes << np.uint64(8)) | packed[..., byte_index]
    return codes


def _pack_patches_word_aligned(
    bits: np.ndarray, kernel: int, stride: int, padding: int
) -> np.ndarray:
    """Patch words when whole pixels tile words (``64 % C == 0``).

    Each pixel's channel block is one ``C``-bit code; ``r = 64 / C``
    consecutive patch positions share a word, so patch words assemble
    from a sliding-window gather of the per-pixel codes — the wide
    ``uint8`` patch tensor never exists.
    """
    batch, channels, height, width = bits.shape
    codes = _per_pixel_codes(bits.transpose(0, 2, 3, 1), channels)
    if padding:
        codes = np.pad(
            codes,
            ((0, 0), (padding, padding), (padding, padding)),
            constant_values=0,  # a 0 bit decodes to -1, like im2col_bits
        )
    windows = np.lib.stride_tricks.sliding_window_view(
        codes, (kernel, kernel), axis=(1, 2)
    )[:, ::stride, ::stride]
    batch, out_h, out_w = windows.shape[:3]
    positions = kernel * kernel
    per_word = WORD_BITS // channels
    words = packed_words(positions * channels)
    padded = np.zeros(
        (batch, out_h, out_w, words * per_word), dtype=np.uint64
    )
    padded[..., :positions] = windows.reshape(batch, out_h, out_w, positions)
    grouped = padded.reshape(batch, out_h, out_w, words, per_word)
    shifts = (
        WORD_BITS - channels * (np.arange(per_word) + 1)
    ).astype(np.uint64)
    return (grouped << shifts).sum(axis=-1, dtype=np.uint64)


def _pack_patches_word_multiple(
    bits: np.ndarray, kernel: int, stride: int, padding: int
) -> np.ndarray:
    """Patch words when pixels span whole words (``C % 64 == 0``).

    The input packs once per pixel into ``C / 64`` words; the im2col
    gather then moves words, not bits — 64x less data than the uint8
    patch tensor it replaces.
    """
    batch, channels, height, width = bits.shape
    pixel_words = pack_bits(bits.transpose(0, 2, 3, 1))
    if padding:
        pixel_words = np.pad(
            pixel_words,
            ((0, 0), (padding, padding), (padding, padding), (0, 0)),
            constant_values=0,
        )
    windows = np.lib.stride_tricks.sliding_window_view(
        pixel_words, (kernel, kernel), axis=(1, 2)
    )[:, ::stride, ::stride]
    # (N, oh, ow, C/64 words, kh, kw) -> position-major (kh, kw, words)
    out = windows.transpose(0, 1, 2, 4, 5, 3)
    batch, out_h, out_w = out.shape[:3]
    return np.ascontiguousarray(out).reshape(batch, out_h, out_w, -1)


def _pack_patches_row_tiled(
    bits: np.ndarray, kernel: int, stride: int, padding: int
) -> np.ndarray:
    """General-channel fallback: pack over bounded output-row tiles.

    The classic ``im2col_bits`` + ``pack_bits`` pipeline, but the uint8
    patch tensor only ever exists for a slice of output rows small
    enough to stay cache-resident (:data:`_PACK_TILE_BYTES`).
    """
    from .ops import conv_output_size, im2col_bits

    batch, channels, height, width = bits.shape
    out_h = conv_output_size(height, kernel, stride, padding)
    out_w = conv_output_size(width, kernel, stride, padding)
    num_bits = kernel * kernel * channels
    words = packed_words(num_bits)
    out = np.empty((batch, out_h, out_w, words), dtype=np.uint64)
    row_bytes = max(1, batch * out_w * num_bits)
    rows_per_tile = max(1, _PACK_TILE_BYTES // row_bytes)
    if rows_per_tile >= out_h:
        out[:] = pack_bits(im2col_bits(bits, kernel, stride, padding))
        return out
    padded = bits
    if padding:
        padded = np.pad(
            padded,
            ((0, 0), (0, 0), (padding, padding), (padding, padding)),
            constant_values=0,
        )
    for row_start in range(0, out_h, rows_per_tile):
        row_stop = min(row_start + rows_per_tile, out_h)
        in_start = row_start * stride
        in_stop = (row_stop - 1) * stride + kernel
        tile = im2col_bits(
            padded[:, :, in_start:in_stop, :], kernel, stride, 0
        )
        out[:, row_start:row_stop] = pack_bits(tile)
    return out


def threshold_pack_patches(
    x: np.ndarray,
    shift: Optional[np.ndarray],
    kernel: int,
    stride: int,
    padding: int,
) -> Tuple[np.ndarray, int]:
    """Fused RSign threshold -> bit-domain im2col -> packed patch words.

    ``x`` is the float ``(N, C, H, W)`` activation; ``shift`` the
    preceding RSign's per-channel threshold (``None`` means the bare
    binary-conv zero threshold).  Returns ``(patch_words, num_bits)``
    where ``patch_words`` has shape ``(N, out_h, out_w, words)`` —
    bit-identical to ``pack_bits(im2col_bits(binarize_bits(x - shift),
    ...))`` with neither the float subtraction nor the full uint8 patch
    tensor ever materialised.  A ``uint8`` ``x`` holds bits already
    thresholded upstream (a contraction's folded
    :class:`BitThreshold` output) and is packed as it is.
    """
    x = np.asarray(x)
    if x.dtype == np.uint8:
        if shift is not None:
            raise ValueError("thresholded bits take no shift")
        return pack_input_patches(x, kernel, stride, padding)
    bits = _threshold_bits(x.astype(np.float32, copy=False), shift)
    return pack_input_patches(bits, kernel, stride, padding)


def pack_input_patches(
    x_bits: np.ndarray, kernel: int, stride: int, padding: int
) -> Tuple[np.ndarray, int]:
    """Bit-domain im2col straight to packed words (layout of Fig. 5).

    The packed twin of ``im2col_bits``: same patch bit order, but the
    result is already the ``uint64`` word tensor the contraction
    strategies consume.
    """
    x_bits = np.asarray(x_bits, dtype=np.uint8)
    if x_bits.ndim != 4:
        raise ValueError(f"expected (N, C, H, W) input, got {x_bits.ndim} dims")
    channels = x_bits.shape[1]
    num_bits = kernel * kernel * channels
    if channels and WORD_BITS % channels == 0:
        words = _pack_patches_word_aligned(x_bits, kernel, stride, padding)
    elif channels % WORD_BITS == 0:
        words = _pack_patches_word_multiple(x_bits, kernel, stride, padding)
    else:
        words = _pack_patches_row_tiled(x_bits, kernel, stride, padding)
    return words, num_bits


# ----------------------------------------------------------------------
# Tiled contraction
# ----------------------------------------------------------------------
#: target size of one gemm tile's float {0, 1} patch plane
_GEMM_TILE_BYTES = 2 << 20

#: a gemm tile never holds fewer rows than this: every tile streams the
#: whole weight operand through BLAS once, and a deep layer's 9216-bit
#: patch rows would fill the byte target in 56 rows, re-streaming its
#: 38 MB weight matrix for every 56 output pixels
_GEMM_MIN_ROWS = 1024


class SignOperand(NamedTuple):
    """The gemm strategy's weight operand, built once per weight version.

    ``signs_t`` is the position-major {+1, -1} float32 weight matrix as
    a transposed ``(num_bits, out)`` view, which BLAS contracts patches
    against through its transpose flag (no copy, and no slower than a
    contiguous transpose); ``sums`` holds its per-output-channel sums.  The gemm
    contracts {0, 1} patch bits ``b`` into ``z = b . W``, and the Eq. 2
    dot product over {+1, -1} semantics is then ``y = 2 z - sums``.
    """

    signs_t: np.ndarray
    sums: np.ndarray


def sign_operand(bits: np.ndarray) -> SignOperand:
    """:class:`SignOperand` of ``(out, num_bits)`` {0, 1} weight bits."""
    bits = np.asarray(bits, dtype=np.uint8)
    signs = bits.astype(np.float32)
    signs *= 2.0
    signs -= 1.0  # a 0 bit decodes to -1 (Sec. IV-B)
    sums = 2 * np.count_nonzero(bits, axis=1) - bits.shape[1]
    return SignOperand(signs.T, sums.astype(np.float32))


class BitThreshold(NamedTuple):
    """A per-output-channel integer threshold on the Eq. 2 dot product.

    Output bit ``c`` is ``(y_c >= at_least[c]) != flip[c]``: an ascending
    channel keeps ``y >= t``, a descending one stores ``y <= t`` as
    ``not (y >= t + 1)``.  ``flip`` is ``None`` when every channel
    ascends.  A contraction given one emits {0, 1} bits instead of the
    integers (the folded glue of :mod:`repro.infer.plan`).
    """

    at_least: np.ndarray
    flip: Optional[np.ndarray]


def _apply_threshold(
    values: np.ndarray, at_least: np.ndarray, flip: Optional[np.ndarray],
    out: np.ndarray,
) -> None:
    """``out = (values >= at_least) != flip``, row-broadcast, in place."""
    np.greater_equal(values, at_least, out=out)
    if flip is not None:
        np.not_equal(out, flip, out=out)


def contract_packed_patches(
    patch_words: np.ndarray,
    w_words: Optional[np.ndarray],
    num_bits: int,
    strategy: str,
    threads: Optional[int],
    out_channel_chunk: int = 64,
    kernel_signs: Optional[SignOperand] = None,
    threshold: Optional[BitThreshold] = None,
    telemetry: Optional[ContractionTelemetry] = None,
) -> np.ndarray:
    """Contract packed patches against packed weights, tiled and threaded.

    ``patch_words``: ``(..., words)`` packed patches (conv: one patch
    per output pixel; dense: one per row).  ``w_words``: ``(out,
    words)`` packed weights (optional for ``gemm`` when
    ``kernel_signs`` is supplied).  Returns the exact Eq. 2 integer dot
    products with shape ``(..., out)`` as ``int32`` — identical for
    every strategy, thread count and tiling, because every partial sum
    is a small exact integer.  With a ``threshold`` the result is
    instead the ``uint8`` {0, 1} bits it selects, same shape.

    A positive ``threads`` forces the tile fan-out; ``None`` or ``0``
    fans out to :func:`default_threads` when ``rows x num_bits x out``
    reaches :data:`AUTO_THREADS_MIN_WORK` and runs serially below it.
    ``popcount`` tiles over ``batch x out_channel`` (the xor
    intermediate of a tile is bounded by ``out_channel_chunk``).
    ``gemm`` tiles over rows sized to a ~2 MB float patch plane (never
    fewer than 1024 rows), in whole waves of ``threads`` tiles so no
    thread idles in the last one.  Each tile unpacks its patch words to
    {0, 1} floats and contracts them with BLAS against
    ``kernel_signs``, the transposed sign matrix built per weight
    version by the caller.
    Every ``z = b . W`` is an exact integer below 2**24, so the
    {+1, -1} correction ``y = 2 z - sums`` — or, with a threshold, the
    same comparison moved into the ``z`` domain — stays exact.
    """
    started = time.perf_counter()
    lead_shape = patch_words.shape[:-1]
    if strategy == "gemm" and kernel_signs is None:
        if w_words is None:
            raise ValueError("gemm needs kernel_signs or packed weights")
        kernel_signs = sign_operand(unpack_bits(w_words, num_bits))
    out_ch = (
        kernel_signs.signs_t.shape[1]
        if strategy == "gemm"
        else w_words.shape[0]
    )
    flat = patch_words.reshape(-1, patch_words.shape[-1])
    rows = flat.shape[0]
    if threshold is None:
        out = np.empty((rows, out_ch), dtype=np.int32)
    else:
        out = np.empty((rows, out_ch), dtype=np.bool_)

    if not threads:  # the automatic width: only large calls fan out
        large = rows * num_bits * out_ch >= AUTO_THREADS_MIN_WORK
        threads = default_threads() if large else 1
    tiles = 0
    work: List[Callable[[], None]] = []

    if strategy == "gemm":
        signs_t, sums = kernel_signs
        if threshold is not None:
            # y >= a  <=>  2 z - sums >= a  <=>  z >= ceil((a + sums) / 2)
            bound = threshold.at_least + sums.astype(np.int64)
            z_at_least = (-(-bound // 2)).astype(np.float32)
        rows_per_tile = max(
            _GEMM_MIN_ROWS, _GEMM_TILE_BYTES // (4 * max(1, num_bits))
        )
        waves = -(-rows // (rows_per_tile * threads))
        count = min(rows, waves * threads)

        def gemm_tile(row_start: int, row_stop: int) -> None:
            plane = np.empty((row_stop - row_start, num_bits), np.float32)
            np.copyto(
                plane,
                unpack_bits(flat[row_start:row_stop], num_bits),
                casting="unsafe",
            )
            z = plane @ signs_t
            if threshold is None:
                z *= 2.0
                z -= sums
                np.copyto(out[row_start:row_stop], z, casting="unsafe")
            else:
                _apply_threshold(
                    z, z_at_least, threshold.flip, out[row_start:row_stop]
                )

        for row_start, row_stop in tile_spans(rows, count):
            work.append(
                lambda a=row_start, b=row_stop: gemm_tile(a, b)
            )
            tiles += 1
        _run_tiles(work, threads)
    elif strategy == "popcount":
        expanded = flat[:, None, :]  # (rows, 1, words)
        dots = out if threshold is None else np.empty(
            (rows, out_ch), dtype=np.int32
        )

        def popcount_tile(
            row_start: int, row_stop: int, ch_start: int, ch_stop: int
        ) -> None:
            dots[row_start:row_stop, ch_start:ch_stop] = packed_dot(
                w_words[ch_start:ch_stop],
                expanded[row_start:row_stop],
                num_bits,
            )

        for row_start, row_stop in tile_spans(rows, threads):
            for ch_start in range(0, out_ch, out_channel_chunk):
                ch_stop = min(ch_start + out_channel_chunk, out_ch)
                work.append(
                    lambda a=row_start, b=row_stop, c=ch_start, d=ch_stop:
                    popcount_tile(a, b, c, d)
                )
                tiles += 1
        _run_tiles(work, threads)
        if threshold is not None:
            _apply_threshold(dots, threshold.at_least, threshold.flip, out)
    else:  # pragma: no cover - resolve_strategy guards the public paths
        raise ValueError(f"unknown base strategy {strategy!r}")

    if telemetry is not None:
        telemetry.record(
            strategy, tiles, threads, time.perf_counter() - started
        )
    if threshold is not None:
        out = out.view(np.uint8)
    return out.reshape(*lead_shape, out_ch)
