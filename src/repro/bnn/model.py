"""Sequential model container for the BNN substrate.

Holds an ordered list of layers, runs forward/backward, exposes parameter
and gradient traversal for the optimiser, and — the part the compression
pipeline cares about — enumerates the model's binary 3x3 kernels grouped
by basic block.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .layers import BinaryConv2d, Layer

__all__ = ["Sequential"]


class Sequential:
    """An ordered stack of :class:`~repro.bnn.layers.Layer` objects."""

    def __init__(self, layers: Sequence[Layer], name: str = "model") -> None:
        self.layers: List[Layer] = list(layers)
        self.name = name
        self._plan = None  # compiled InferencePlan (see prepare())

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def forward(self, x: np.ndarray) -> np.ndarray:
        """Run the full stack front to back."""
        for layer in self.layers:
            x = layer.forward(x)
        return x

    def backward(self, grad: np.ndarray) -> np.ndarray:
        """Backpropagate through the stack back to front."""
        for layer in reversed(self.layers):
            grad = layer.backward(grad)
        return grad

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.forward(x)

    def forward_batched(
        self, x: np.ndarray, batch_size: Optional[int] = None
    ) -> np.ndarray:
        """Reference forward over ``(N, ...)`` inputs, in minibatches.

        The float oracle/baseline the serving engine is measured
        against: chunks of ``batch_size`` run through :meth:`forward`
        and concatenate.  ``batch_size=1`` is the per-image serving
        baseline; ``None`` runs one whole batch.
        """
        x = np.asarray(x)
        if batch_size is None or batch_size >= x.shape[0]:
            return self.forward(x)
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        return np.concatenate(
            [
                self.forward(x[offset:offset + batch_size])
                for offset in range(0, x.shape[0], batch_size)
            ],
            axis=0,
        )

    def prepare(self):
        """Compile (and cache) the batched packed serving plan.

        Lowers the model through
        :meth:`repro.infer.plan.InferencePlan.from_model` — fused
        sign+conv packed steps over prepacked kernels — and puts the
        model in inference mode.  Weight updates that *replace* latent
        arrays (the optimiser, ``set_weight_bits``) are picked up
        automatically; structural edits to ``layers`` require calling
        :meth:`prepare` again.
        """
        from ..infer import InferencePlan  # lazy: avoids an import cycle

        self._plan = InferencePlan.from_model(self)
        return self._plan

    def run_batch(
        self, x: np.ndarray, batch_size: Optional[int] = None
    ) -> np.ndarray:
        """Batched inference through the packed engine.

        Compiles the plan on first use (see :meth:`prepare`); the output
        is bit-identical to running :meth:`forward` in eval mode.
        Always executes inference semantics, but leaves the model's
        train/eval mode as it found it — safe to interleave with
        training epochs.
        """
        if self._plan is None:
            self.prepare()
        return self._plan.run_batch(x, batch_size=batch_size)

    def train(self) -> None:
        """Put every layer in training mode."""
        for layer in self.layers:
            layer.train()

    def eval(self) -> None:
        """Put every layer in inference mode."""
        for layer in self.layers:
            layer.eval()

    # ------------------------------------------------------------------
    # Parameters
    # ------------------------------------------------------------------
    def flat_layers(self) -> List[Tuple[str, Layer]]:
        """Depth-first ``(path, layer)`` view, descending into wrappers.

        Container layers (e.g. :class:`~repro.bnn.residual.ResidualBranch`)
        expose their children via ``inner_layers``; traversal descends so
        optimisers and the compression pipeline see every real layer.
        """
        out: List[Tuple[str, Layer]] = []

        def visit(prefix: str, layer: Layer) -> None:
            out.append((prefix, layer))
            inner = getattr(layer, "inner_layers", None)
            if inner is not None:
                for sub_index, sub in enumerate(inner()):
                    visit(f"{prefix}.{sub_index}", sub)

        for index, layer in enumerate(self.layers):
            visit(str(index), layer)
        return out

    def named_params(self) -> Iterator[Tuple[str, Layer, str]]:
        """Yield ``(unique_name, layer, param_key)`` for every parameter."""
        for path, layer in self.flat_layers():
            for key in layer.params:
                yield f"{path}.{type(layer).__name__}.{key}", layer, key

    @property
    def num_params(self) -> int:
        """Total trainable parameter count."""
        return sum(layer.num_params for layer in self.layers)

    def storage_bits(self) -> int:
        """Deployed model size in bits (per-layer precision-aware)."""
        return sum(layer.storage_bits() for layer in self.layers)

    def post_update(self) -> None:
        """Run per-layer post-optimiser hooks (latent weight clipping)."""
        for layer in self.layers:
            hook = getattr(layer, "apply_weight_update", None)
            if hook is not None:
                hook()

    # ------------------------------------------------------------------
    # Binary kernel access (compression interface)
    # ------------------------------------------------------------------
    def binary_conv_layers(
        self, kernel_size: Optional[int] = None
    ) -> List[BinaryConv2d]:
        """All binary conv layers (including inside residual wrappers)."""
        convs = [
            layer
            for _path, layer in self.flat_layers()
            if isinstance(layer, BinaryConv2d)
        ]
        if kernel_size is not None:
            convs = [c for c in convs if c.kernel_size == kernel_size]
        return convs

    def binary_kernel_bits(self, kernel_size: int = 3) -> List[np.ndarray]:
        """Bit tensors of every binary kernel of the given size."""
        return [
            conv.binary_weight_bits()
            for conv in self.binary_conv_layers(kernel_size)
        ]

    def blocks_of_3x3_kernels(self) -> Dict[int, List[np.ndarray]]:
        """Group 3x3 binary kernels into per-block lists, 1-indexed.

        The ReActNet-like topology has exactly one 3x3 binary conv per
        basic block, so block ``i`` maps to the ``i``-th 3x3 conv.  This is
        the unit at which the paper builds frequency tables and trees.
        """
        return {
            index + 1: [conv.binary_weight_bits()]
            for index, conv in enumerate(self.binary_conv_layers(3))
        }
