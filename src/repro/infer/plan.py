"""Plan-based batched packed inference (Sec. IV-B execution model).

An :class:`InferencePlan` is the compiled serving form of a BNN: each
``RSign -> BinaryConv2d`` pair of the Fig. 1 block structure is lowered
into one fused :class:`PackedConvStep` — sign/threshold straight to
{0, 1} bits, bit-domain im2col, an exact integer contraction over
prepacked channel-word kernels (the daBNN layout of Fig. 5).  The float
glue between two packed convs (batch norm, RPReLU and the next RSign)
is folded into per-channel integer thresholds where that is exact, so
the producing conv emits packed-ready bits; every other float layer —
the stem, pooling, the 8-bit head, and glue that does not fold — runs
through the layer's own eval-mode forward.  Either way the plan's
logits are bit-identical to the float reference oracle.

The fold is exact by construction (the bitpacked-output design of Larq
Compute Engine, made exhaustive).  A packed conv's outputs are integers
``y`` in ``{-K, -K+2, ..., K}`` with ``K = k * k * C_in``, so per channel
the glue followed by the next RSign is a fixed function of at most
``K + 1`` values.  The compiler evaluates the glue layers' own forward
and the RSign comparison over all of them; when every channel's bit row
has at most one transition, that row *is* a threshold ``y >= t`` (or
``y <= t``) and the edge folds.  Otherwise (a negative RPReLU slope,
say) the edge keeps the float path.  The compiler decides per edge, and
the fold is memoised on the glue parameters the way kernels are keyed
on the weight version.

Plans compile from two sources:

* :meth:`InferencePlan.from_model` — lower a live
  :class:`~repro.bnn.model.Sequential`; kernels are channel-packed once
  per weight version via :meth:`~repro.bnn.layers.BinaryConv2d.prepare`
  (never per call — the pre-plan hot-path bug).
* :meth:`InferencePlan.from_artifact` — lower a deploy artifact via
  :class:`~repro.deploy.ArtifactReader` *without* materialising a model:
  compressed kernel streams are decoded and prepacked on demand, held in
  a bounded :class:`~repro.infer.cache.LruCache` the way the decoding
  unit's scratchpad holds a bounded working set of decoded kernels.

:meth:`InferencePlan.run_batch` then executes the step list over
``(N, C, H, W)`` float inputs in minibatches, which is the batched
serving path the ROADMAP's production-scale story needs.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..bnn.binarize import binarize_bits
from ..bnn.contraction import (
    BitThreshold,
    ContractionTelemetry,
    SignOperand,
    _threshold_bits,
    contract_packed_patches,
    resolve_strategy,
    sign_operand,
    threshold_pack_patches,
)
from ..bnn.layers import (
    BatchNorm2d,
    BinaryConv2d,
    BinaryDense,
    Layer,
    RPReLU,
    RSign,
)
from ..bnn.model import Sequential
from ..bnn.ops import CONTRACTION_STRATEGIES, _as_packed_kernel
from ..bnn.packing import pack_bits, pack_kernel_channels, unpack_bits
from ..deploy import ArtifactReader
from .cache import LruCache

__all__ = [
    "FloatStep",
    "GlueFold",
    "InferencePlan",
    "KernelEntry",
    "PackedConvStep",
    "PackedDenseStep",
    "PlanStep",
    "fold_threshold",
]

class KernelEntry:
    """One decoded kernel: prepacked operand + lazy gemm operand.

    The unit the plan's caching policy manages.  ``operand`` is the
    ``(words, num_bits)`` pair the popcount strategy consumes;
    ``signs`` lazily unpacks it into the transposed {+1, -1} float32
    :class:`~repro.bnn.contraction.SignOperand` the gemm strategy
    contracts with (once per entry — the same hoist ``prepare()`` gives
    the packed words).  Because the gemm operand lives *on* the entry,
    whatever owns the entry bounds it too: an artifact plan's LRU
    eviction drops both representations together, and a model plan's
    per-layer memo ties both to the weight version.
    """

    __slots__ = ("operand", "_signs", "__weakref__")

    def __init__(self, operand: Tuple[np.ndarray, int]) -> None:
        self.operand = operand
        self._signs: Optional[SignOperand] = None

    def signs(self) -> SignOperand:
        """The gemm operand of the position-major weights, built on first use."""
        if self._signs is None:
            words, num_bits = self.operand
            self._signs = sign_operand(unpack_bits(words, num_bits))
        return self._signs


#: provider of a cached :class:`KernelEntry`
KernelSource = Callable[[], KernelEntry]


class _LayerKernelSource:
    """Adapter from a layer's ``prepare()`` to the entry contract.

    Keyed on the identity of the packed-words array ``prepare()``
    returns: a weight replacement (optimiser step, ``set_weight_bits``)
    yields a new words array and transparently invalidates the entry —
    gemm operand included.
    """

    def __init__(self, prepare: Callable[[], Tuple[np.ndarray, int]]) -> None:
        self.prepare = prepare
        self._entry: Optional[KernelEntry] = None

    def __call__(self) -> KernelEntry:
        operand = self.prepare()
        if self._entry is None or self._entry.operand[0] is not operand[0]:
            self._entry = KernelEntry(operand)
        return self._entry


def _eval_forward(layer: Layer, x: np.ndarray) -> np.ndarray:
    """``layer.forward`` with inference semantics, whatever its mode.

    A model flipped back to training mode since compile (e.g.
    ``model.train()`` between fine-tuning epochs) still executes with
    inference semantics — batch norm must not consume the serving
    batch's statistics or corrupt its running buffers — and the mode is
    left as it was found so training continues unaffected.
    """
    if not layer.training:
        return layer.forward(x)
    layer.eval()
    try:
        return layer.forward(x)
    finally:
        layer.train()


# ----------------------------------------------------------------------
# Glue folding
# ----------------------------------------------------------------------
#: per-channel elementwise glue a fold may absorb, with the state its
#: eval forward reads (the fold's memo key)
_FOLDABLE_GLUE: Dict[type, Callable[[Layer], Tuple]] = {
    BatchNorm2d: lambda layer: (
        layer.params["gamma"],
        layer.params["beta"],
        layer.running_mean,
        layer.running_var,
        layer.eps,
    ),
    RPReLU: lambda layer: (
        layer.params["slope"],
        layer.params["shift_in"],
        layer.params["shift_out"],
    ),
}

#: table elements evaluated per slice when folding (bounds the transient
#: float tables of the widest layers to a few MB)
_FOLD_SLICE = 1 << 20


def fold_threshold(
    glue: Sequence[Layer],
    shift: Optional[np.ndarray],
    num_bits: int,
    channels: int,
) -> Optional[BitThreshold]:
    """Fold ``glue`` then ``x >= shift`` into integer thresholds, or ``None``.

    Runs the glue layers' own eval forward, then the RSign comparison
    the next packed conv applies, over every reachable dot product
    ``y = -K, -K+2, ..., K`` (``K = num_bits``) of every channel.  Each
    channel's bit row must have at most one transition; it is then
    exactly ``y >= t`` (ascending) or ``y <= t`` (descending).  Any
    channel with more transitions means the edge cannot fold.
    """
    levels = np.arange(-num_bits, num_bits + 1, 2)
    bits = np.empty((channels, levels.size), dtype=np.bool_)
    span = max(1, _FOLD_SLICE // max(1, channels))
    for start in range(0, levels.size, span):
        y = levels[start:start + span].astype(np.float32)
        x = np.repeat(y[None, None, :, None], channels, axis=1)
        for layer in glue:
            x = _eval_forward(layer, x)
        bits[:, start:start + span] = _threshold_bits(x, shift)[0, :, :, 0]
    transitions = np.count_nonzero(bits[:, 1:] != bits[:, :-1], axis=1)
    if transitions.max(initial=0) > 1:
        return None
    ones = np.count_nonzero(bits, axis=1)
    descending = bits[:, 0] & ~bits[:, -1]
    # ascending rows are 0...01...1: the first 1 sits at level K + 2 - 2n
    # (K + 2 when there is none); descending rows are 1...10...0, whose
    # last 1 is t = 2n - 2 - K, stored as not (y >= t + 1)
    at_least = np.where(
        descending, 2 * ones - 1 - num_bits, num_bits + 2 - 2 * ones
    ).astype(np.int64)
    return BitThreshold(at_least, descending if descending.any() else None)


def _glue_key(value: Any) -> Any:
    if isinstance(value, np.ndarray):
        return (value.dtype.str, value.shape, value.tobytes())
    return value


class GlueFold:
    """The float glue between two packed convs, folded where exact.

    ``glue`` are the per-channel layers between the producing conv and
    the next one (batch norm, RPReLU), ``rsign`` the next conv's RSign
    (``None`` for a bare binary conv: threshold zero), ``num_bits`` the
    producing conv's patch bit count ``K`` and ``channels`` its output
    channels.  :meth:`threshold` is the folded
    :class:`~repro.bnn.contraction.BitThreshold`, or ``None`` when the
    edge does not fold and :meth:`forward` runs the glue instead.  The
    fold is computed at compile time and memoised on every parameter
    the glue and the RSign read, so in-place edits to a live model's
    parameters refold on the next call.
    """

    def __init__(
        self,
        glue: Sequence[Layer],
        rsign: Optional[RSign],
        num_bits: int,
        channels: int,
    ) -> None:
        self.glue = list(glue)
        self.rsign = rsign
        self.num_bits = num_bits
        self.channels = channels
        self._memo: Tuple[Any, Optional[BitThreshold]] = (None, None)
        self.threshold()  # the compile-time fold

    def _state(self) -> Tuple:
        state: List[Any] = []
        for layer in self.glue:
            state.extend(_FOLDABLE_GLUE[type(layer)](layer))
        if self.rsign is not None:
            state.append(self.rsign.params["shift"])
        return tuple(_glue_key(value) for value in state)

    def threshold(self) -> Optional[BitThreshold]:
        """The folded threshold for the current parameters (memoised)."""
        key = self._state()
        memo = self._memo
        if memo[0] != key:
            shift = None if self.rsign is None else self.rsign.params["shift"]
            memo = (
                key,
                fold_threshold(self.glue, shift, self.num_bits, self.channels),
            )
            self._memo = memo  # one tuple store: safe across threads
        return memo[1]

    def forward(self, x: np.ndarray) -> np.ndarray:
        """The unfolded edge: the glue layers' own eval forward."""
        for layer in self.glue:
            x = _eval_forward(layer, x)
        return x

    def describe(self) -> str:
        names = [type(layer).__name__ for layer in self.glue]
        names.append("RSign" if self.rsign is not None else "sign")
        chain = "+".join(names)
        if self.threshold() is None:
            return f"{chain} not folded (float glue)"
        return f"{chain} folded -> bits"


# ----------------------------------------------------------------------
# Plan steps
# ----------------------------------------------------------------------
class PlanStep:
    """One executable stage of a compiled plan."""

    #: short step family for reports ("packed_conv", "packed_dense", "float")
    kind: str = ""
    #: human-readable detail for ``describe()``
    label: str = ""

    def run(self, x: np.ndarray) -> np.ndarray:
        """Transform one minibatch; inputs/outputs are dense arrays."""
        raise NotImplementedError

    def describe(self) -> str:
        return self.label


class FloatStep(PlanStep):
    """Float glue that does not fold: delegate to a layer's eval forward.

    Reusing the layer's own forward (rather than re-deriving an affine
    form) is what makes the plan *bit-identical* to the reference path:
    the stem, pooling and the 8-bit head execute the exact same float32
    operation sequence in both worlds.
    """

    kind = "float"

    def __init__(self, layer: Layer) -> None:
        layer.eval()  # plans always execute inference semantics
        self.layer = layer
        self.label = type(layer).__name__

    def run(self, x: np.ndarray) -> np.ndarray:
        return _eval_forward(self.layer, x)


class PackedConvStep(PlanStep):
    """Fused sign/threshold + bit-packed binary convolution.

    ``rsign`` is the preceding RSign layer (``None`` for a bare binary
    conv, whose {+1, -1} input contract makes the threshold zero); its
    shift is read at run time and lowers *directly* into packed patch
    words via :func:`~repro.bnn.contraction.threshold_pack_patches` —
    one ``x >= shift`` comparison, no ``x - shift`` float intermediate
    and no full {0, 1} uint8 patch tensor.  A ``uint8`` input is bits a
    folded predecessor already thresholded with that shift.  The kernel
    operand comes from ``source`` — either a live layer's
    :meth:`~repro.bnn.layers.BinaryConv2d.prepare` or an artifact
    plan's LRU-cached decode — so channel packing is hoisted out of the
    per-call path.  ``fold`` (set by the compiler when the step feeds
    another packed conv) turns the output into those bits, or runs the
    glue when the edge does not fold.  ``threads`` pins the contraction's
    fan-out over the shared tile pool (``None``: automatic by call
    size, see :func:`~repro.bnn.contraction.contract_packed_patches`);
    ``telemetry`` accumulates per-strategy tile and timing counters for
    :meth:`InferencePlan.contraction_stats`.
    """

    kind = "packed_conv"

    def __init__(
        self,
        source: KernelSource,
        in_channels: int,
        out_channels: int,
        kernel_size: int,
        stride: int,
        padding: int,
        rsign: Optional[RSign] = None,
        strategy: str = "gemm",
        label: str = "BinaryConv2d",
        threads: Optional[int] = None,
    ) -> None:
        # validate the strategy/threads combination at compile time
        self.strategy, self.threads = resolve_strategy(
            strategy, threads, CONTRACTION_STRATEGIES
        )
        self.source = source
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.stride = stride
        self.padding = padding
        self.rsign = rsign
        self.label = label
        self.telemetry = ContractionTelemetry()
        self.fold: Optional[GlueFold] = None

    @property
    def num_bits(self) -> int:
        """``K``: bits per patch, so outputs lie in ``[-K, K]``."""
        return self.kernel_size * self.kernel_size * self.in_channels

    @property
    def folded(self) -> bool:
        """Whether the step currently emits bits for the next conv."""
        return self.fold is not None and self.fold.threshold() is not None

    def run(self, x: np.ndarray) -> np.ndarray:
        entry = self.source()
        w_words, num_bits, _, kernel = _as_packed_kernel(
            entry.operand, x.shape[1], self.kernel_size
        )
        shift = None
        if x.dtype != np.uint8 and self.rsign is not None:
            shift = self.rsign.params["shift"]
        patch_words, patch_bits = threshold_pack_patches(
            x, shift, kernel, self.stride, self.padding
        )
        if patch_bits != num_bits:
            raise AssertionError("kernel/patch bit count mismatch")
        threshold = None if self.fold is None else self.fold.threshold()
        out = contract_packed_patches(
            patch_words,
            w_words,
            num_bits,
            self.strategy,
            self.threads,
            kernel_signs=(
                entry.signs() if self.strategy == "gemm" else None
            ),
            threshold=threshold,
            telemetry=self.telemetry,
        ).transpose(0, 3, 1, 2)
        if threshold is not None:
            return out  # {0, 1} bits, thresholded for the next conv
        out = out.astype(np.float32)
        if self.fold is not None:
            out = self.fold.forward(out)
        return out

    def describe(self) -> str:
        if self.fold is None:
            return self.label
        return f"{self.label} | {self.fold.describe()}"


class PackedDenseStep(PlanStep):
    """Bit-packed binary dense layer over {+1, -1} inputs."""

    kind = "packed_dense"

    def __init__(
        self,
        source: KernelSource,
        strategy: str = "gemm",
        label: str = "BinaryDense",
        threads: Optional[int] = None,
    ) -> None:
        self.strategy, self.threads = resolve_strategy(
            strategy, threads, CONTRACTION_STRATEGIES
        )
        self.source = source
        self.label = label
        self.telemetry = ContractionTelemetry()

    def run(self, x: np.ndarray) -> np.ndarray:
        entry = self.source()
        w_words, num_bits = entry.operand
        if x.shape[-1] != num_bits:
            raise ValueError(f"feature mismatch: {x.shape[-1]} vs {num_bits}")
        return contract_packed_patches(
            pack_bits(binarize_bits(x)),
            w_words,
            num_bits,
            self.strategy,
            self.threads,
            kernel_signs=(
                entry.signs() if self.strategy == "gemm" else None
            ),
            telemetry=self.telemetry,
        ).astype(np.float32)


def _fold_edges(steps: List[PlanStep]) -> List[PlanStep]:
    """Hand the glue of each packed conv -> packed conv edge to a fold.

    An edge is a :class:`PackedConvStep` followed by zero or more
    foldable glue steps (batch norm, RPReLU) and then another packed
    conv.  The glue steps leave the step list; the producing step's
    :class:`GlueFold` either folds them into bits or runs them.
    """
    compiled: List[PlanStep] = []
    index = 0
    while index < len(steps):
        step = steps[index]
        compiled.append(step)
        index += 1
        if not isinstance(step, PackedConvStep):
            continue
        end = index
        while (
            end < len(steps)
            and isinstance(steps[end], FloatStep)
            and type(steps[end].layer) in _FOLDABLE_GLUE
        ):
            end += 1
        if end < len(steps) and isinstance(steps[end], PackedConvStep):
            step.fold = GlueFold(
                [glue.layer for glue in steps[index:end]],
                steps[end].rsign,
                step.num_bits,
                step.out_channels,
            )
            index = end
    return compiled


class InferencePlan:
    """A compiled, batched serving plan for one BNN.

    Build with :meth:`from_model` or :meth:`from_artifact`; execute with
    :meth:`run_batch`.  ``kernel_cache`` is the artifact plan's decoded
    kernel LRU (``None`` for model-backed plans, whose layers own their
    packed kernels).
    """

    def __init__(
        self,
        steps: Sequence[PlanStep],
        name: str = "model",
        kernel_cache: Optional[LruCache] = None,
        reader: Optional[ArtifactReader] = None,
    ) -> None:
        self.steps: List[PlanStep] = list(steps)
        self.name = name
        self.kernel_cache = kernel_cache
        self.reader = reader

    def fetch_stats(self) -> Optional[Dict]:
        """Store fetch counters of the plan's backing reader.

        Non-``None`` only for store-ref artifact plans (see
        :meth:`ArtifactReader.fetch_stats
        <repro.deploy.ArtifactReader.fetch_stats>`): the number of
        distinct layer blobs this plan has faulted in so far plus the
        blob-store media counters.  Serving surfaces it per tenant, so a
        fleet worker's lazy-shard footprint is observable.
        """
        if self.reader is None:
            return None
        return self.reader.fetch_stats()

    # ------------------------------------------------------------------
    # Compilation
    # ------------------------------------------------------------------
    @classmethod
    def from_model(
        cls,
        model: Sequential,
        strategy: str = "gemm",
        threads: Optional[int] = None,
    ) -> "InferencePlan":
        """Lower a live model into a packed plan.

        Every ``RSign -> BinaryConv2d`` pair fuses into one
        :class:`PackedConvStep`; bare binary conv/dense layers lower with
        a zero threshold (their documented {+1, -1} input contract);
        the glue between two packed convs folds (see :class:`GlueFold`);
        everything else — including residual wrappers — stays on the
        layer's own forward.  Compiling puts the model in inference
        mode.  Kernel packing happens lazily through each layer's
        ``prepare()`` cache, and folds are memoised on the glue
        parameters, so a plan stays consistent when the optimiser
        replaces latent weights or the glue parameters change.
        """
        steps: List[PlanStep] = []
        layers = list(model.layers)
        index = 0
        while index < len(layers):
            layer = layers[index]
            successor = layers[index + 1] if index + 1 < len(layers) else None
            if isinstance(layer, RSign) and isinstance(successor, BinaryConv2d):
                layer.eval()
                steps.append(
                    cls._conv_step(successor, layer, strategy, threads)
                )
                index += 2
            elif isinstance(layer, BinaryConv2d):
                steps.append(cls._conv_step(layer, None, strategy, threads))
                index += 1
            elif isinstance(layer, BinaryDense):
                steps.append(
                    PackedDenseStep(
                        _LayerKernelSource(layer.prepare),
                        strategy=strategy,
                        threads=threads,
                        label=(
                            f"BinaryDense {layer.in_features}"
                            f"->{layer.out_features}"
                        ),
                    )
                )
                layer.eval()
                index += 1
            else:
                steps.append(FloatStep(layer))
                index += 1
        return cls(_fold_edges(steps), name=model.name)

    @staticmethod
    def _conv_step(
        conv: BinaryConv2d,
        rsign: Optional[RSign],
        strategy: str,
        threads: Optional[int] = None,
    ) -> PackedConvStep:
        conv.eval()
        label = (
            f"BinaryConv2d {conv.in_channels}->{conv.out_channels} "
            f"k{conv.kernel_size} s{conv.stride}"
        )
        return PackedConvStep(
            _LayerKernelSource(conv.prepare),
            in_channels=conv.in_channels,
            out_channels=conv.out_channels,
            kernel_size=conv.kernel_size,
            stride=conv.stride,
            padding=conv.padding,
            rsign=rsign,
            strategy=strategy,
            label=label,
            threads=threads,
        )

    @classmethod
    def from_artifact(
        cls,
        path,
        cache_size: Optional[int] = None,
        strategy: str = "gemm",
        threads: Optional[int] = None,
    ) -> "InferencePlan":
        """Lower a deploy artifact straight into a serving plan.

        ``path`` is a monolithic ``.npz`` file, a ``<store-dir>#<name>``
        ref into a sharded :class:`~repro.store.ArtifactStore` (blobs
        are then fetched lazily — a worker decodes only the layers it
        executes), or an already-open
        :class:`~repro.deploy.ArtifactReader`.

        Binary conv entries become packed steps whose kernel operands
        are decoded from the stored streams *on demand* and kept in an
        LRU cache of ``cache_size`` layers (``None``: every packed step
        of the artifact; the gemm operand rides in the same cache
        entry, so eviction bounds both representations; per-key build
        locks let concurrent workers decode different layers in
        parallel).  The float glue is rebuilt through
        :class:`~repro.deploy.ArtifactReader` exactly as
        :func:`~repro.deploy.load_compressed_model` would and folded
        where exact, so the plan's logits match the reloaded model's
        reference forward bit for bit.
        """
        reader = path if isinstance(path, ArtifactReader) else ArtifactReader(path)
        entries = reader.entries
        if cache_size is None:
            cache_size = max(
                1, sum(entry["type"] == "BinaryConv2d" for entry in entries)
            )
        cache = LruCache(maxsize=cache_size)
        steps: List[PlanStep] = []
        index = 0
        while index < len(entries):
            entry = entries[index]
            successor = (
                entries[index + 1] if index + 1 < len(entries) else None
            )
            if (
                entry["type"] == "RSign"
                and successor is not None
                and successor["type"] == "BinaryConv2d"
            ):
                steps.append(
                    cls._artifact_conv_step(
                        reader, cache, successor, reader.rebuild_layer(entry),
                        strategy, threads,
                    )
                )
                index += 2
            elif entry["type"] == "BinaryConv2d":
                steps.append(
                    cls._artifact_conv_step(
                        reader, cache, entry, None, strategy, threads
                    )
                )
                index += 1
            else:
                steps.append(FloatStep(reader.rebuild_layer(entry)))
                index += 1
        return cls(
            _fold_edges(steps), name=reader.name, kernel_cache=cache,
            reader=reader,
        )

    @staticmethod
    def _artifact_conv_step(
        reader: ArtifactReader,
        cache: LruCache,
        entry: Dict,
        rsign: Optional[RSign],
        strategy: str,
        threads: Optional[int] = None,
    ) -> PackedConvStep:
        config = entry["config"]
        layer_index = entry["index"]

        def decode_and_pack() -> KernelEntry:
            return KernelEntry(
                pack_kernel_channels(reader.kernel_bits(entry))
            )

        def source() -> KernelEntry:
            return cache.get(layer_index, decode_and_pack)

        label = (
            f"BinaryConv2d {config['in_channels']}->{config['out_channels']} "
            f"k{config['kernel_size']} s{config['stride']} "
            f"[{entry['storage']}]"
        )
        return PackedConvStep(
            source,
            in_channels=config["in_channels"],
            out_channels=config["out_channels"],
            kernel_size=config["kernel_size"],
            stride=config["stride"],
            padding=config["padding"],
            rsign=rsign,
            strategy=strategy,
            label=label,
            threads=threads,
        )

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run_batch(
        self, x: np.ndarray, batch_size: Optional[int] = None
    ) -> np.ndarray:
        """Run ``(N, ...)`` inputs through the plan, in minibatches.

        ``batch_size=None`` executes the whole array as one batch;
        otherwise inputs are split into chunks of ``batch_size`` and the
        outputs concatenated, which bounds the im2col working set for
        large serving batches.

        Bit-identity contract: each chunk's logits equal the reference
        ``model.forward`` run on that same chunk, bit for bit.  (The
        float oracle itself is not guaranteed batch-size-invariant —
        BLAS may block a GEMM differently per batch shape — so the
        oracle is always "the reference at the same minibatching".)
        """
        x = np.asarray(x, dtype=np.float32)
        if x.ndim < 2:
            raise ValueError(
                f"expected a batched (N, ...) input, got {x.ndim} dims"
            )
        if batch_size is not None and batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        if batch_size is None or batch_size >= x.shape[0]:
            return self._run_chunk(x)
        chunks = [
            self._run_chunk(x[offset:offset + batch_size])
            for offset in range(0, x.shape[0], batch_size)
        ]
        return np.concatenate(chunks, axis=0)

    def _run_chunk(self, x: np.ndarray) -> np.ndarray:
        for step in self.steps:
            x = step.run(x)
        return x

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.run_batch(x)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.steps)

    @property
    def num_packed_steps(self) -> int:
        """How many steps run through the bit-packed engine."""
        return sum(1 for step in self.steps if step.kind != "float")

    @property
    def num_folded_edges(self) -> int:
        """How many packed convs emit bits straight into the next one."""
        return sum(
            1
            for step in self.steps
            if isinstance(step, PackedConvStep) and step.folded
        )

    def describe(self) -> List[Tuple[str, str]]:
        """``(kind, label)`` per step, for reports and the CLI.

        A packed conv feeding another one names its glue and whether it
        folded to bits.
        """
        return [(step.kind, step.describe()) for step in self.steps]

    def cache_stats(self) -> Optional[Dict[str, Any]]:
        """Decoded-kernel cache counters (``None`` for model plans)."""
        if self.kernel_cache is None:
            return None
        return self.kernel_cache.stats()

    def contraction_stats(self) -> Dict[str, Dict[str, float]]:
        """Per-strategy contraction telemetry, merged across steps.

        ``{strategy: {calls, tiles, threaded_calls, max_threads,
        seconds}}`` — the tile-engine twin of :meth:`fetch_stats`, and
        surfaced per tenant by the serving daemon the same way.
        """
        return ContractionTelemetry.merge(
            [
                step.telemetry.snapshot()
                for step in self.steps
                if isinstance(step, (PackedConvStep, PackedDenseStep))
            ]
        )
