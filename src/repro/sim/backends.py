"""Evaluation backends: each one regenerates one slice of the paper.

A backend is a strategy object resolved from a string-keyed registry
(mirroring :mod:`repro.core.codec`'s codec registry) that turns the
shared :class:`SimulationContext` into one JSON-ready report section:

* ``compression`` — the offline pipeline of Sec. IV-A; per-block and
  whole-payload ratios (Table V, the Sec. VI 1.32x payload figure);
* ``analytic``    — the trace-driven :class:`~repro.hw.perf.PerfModel`
  timing of the three execution modes (Sec. VI: 1.35x hw speedup,
  Sec. IV-B: 1.47x sw slowdown; platform of Table IV);
* ``pipeline``    — instruction-level cross-validation on the in-order
  dual-issue core model (the Gem5/A53 substitute of Sec. V);
* ``rtl``         — cycle-accurate decode of *every* block of the model
  (Fig. 6 / Sec. V Verilog implementation) through the vectorised
  replay engine (FSM fallback), decode-verified against the input,
  with optional per-block process-pool fan-out;
* ``energy``      — per-inference energy pricing of the simulated
  activity (the DATE-venue extension axis).

The context lazily computes and caches everything backends share —
workloads, synthetic kernels, measured compression ratios and per-mode
timings — so one scenario run never simulates the same thing twice.  A
:class:`SweepCache` extends that sharing *across* scenario runs:
:meth:`repro.sim.simulator.Simulator.sweep` hands one cache to every
grid point so scenarios that differ only in timing knobs reuse the same
synthetic kernels and compression measurement.
"""

from __future__ import annotations

import json
from abc import ABC, abstractmethod
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple, Type

import numpy as np

from ..core.bitseq import kernel_to_sequences
from ..core.codec import SimplifiedTreeCodec
from ..core.frequency import FrequencyTable
from ..core.pipeline import CompressionPipeline, ModelCompressionResult
from ..core.simplified import DEFAULT_CAPACITIES, SimplifiedTree
from ..core.streams import CompressedKernel
from ..hw.cache import build_hierarchy
from ..hw.energy import EnergyModel, EnergyReport
from ..hw.memory import MainMemory
from ..hw.microkernel import (
    baseline_row_pass,
    hw_ldps_row_pass,
    sw_decode_prologue,
)
from ..hw.perf import LayerWorkload, ModelTiming, PerfModel
from ..hw.pipeline import InOrderPipeline, PipelineStats
from ..hw.rtl import RtlDecodingUnit
from .scenario import Scenario, get_model

__all__ = [
    "SimulationBackend",
    "SimulationContext",
    "SweepCache",
    "available_backends",
    "get_backend",
    "register_backend",
    "registered_backends",
]


class SweepCache:
    """Cross-scenario cache for the measurement-heavy context inputs.

    Grid points of one sweep usually vary only timing knobs (memory
    latency, cache sizes, decoder rates); their synthetic kernels and
    compression measurements are identical.  One ``SweepCache`` handed
    to every :class:`SimulationContext` of a sweep runs each distinct
    ``(model, seed)`` kernel generation and each distinct
    ``(model, seed, pipeline)`` compression exactly once.
    """

    def __init__(self) -> None:
        self._kernels: Dict[Any, Dict[Any, np.ndarray]] = {}
        self._compression: Dict[str, ModelCompressionResult] = {}
        self._rtl_streams: Dict[Any, Dict[Any, Any]] = {}

    @staticmethod
    def kernel_key(scenario: Scenario) -> Tuple[str, int]:
        """Everything kernel generation depends on."""
        return (scenario.model, scenario.seed)

    @staticmethod
    def compression_key(scenario: Scenario) -> str:
        """Everything the compression measurement depends on.

        ``workers`` only fans the same work out, so it is excluded —
        two scenarios differing only in worker count share the entry.
        """
        pipeline = scenario.to_dict()["pipeline"]
        pipeline.pop("workers", None)
        return json.dumps(
            {
                "model": scenario.model,
                "seed": scenario.seed,
                "pipeline": pipeline,
            },
            sort_keys=True,
        )

    def kernels(
        self, scenario: Scenario, build: Callable[[], Dict[Any, np.ndarray]]
    ) -> Dict[Any, np.ndarray]:
        """The cached kernels for ``scenario``, building on first use."""
        key = self.kernel_key(scenario)
        if key not in self._kernels:
            self._kernels[key] = build()
        return self._kernels[key]

    def compression(
        self,
        scenario: Scenario,
        build: Callable[[], ModelCompressionResult],
    ) -> ModelCompressionResult:
        """The cached compression result, building on first use."""
        key = self.compression_key(scenario)
        if key not in self._compression:
            self._compression[key] = build()
        return self._compression[key]

    def rtl_streams(
        self,
        scenario: Scenario,
        capacities: Tuple[int, ...],
        build: Callable[[], Dict[Any, Any]],
    ) -> Dict[Any, Any]:
        """The cached per-block rtl streams, building on first use.

        The encoded streams depend only on the kernels and the tree
        capacities, so timing-knob grid points reuse them and pay only
        for the (cheap) replay itself.
        """
        key = (scenario.model, scenario.seed, capacities)
        if key not in self._rtl_streams:
            self._rtl_streams[key] = build()
        return self._rtl_streams[key]


class SimulationContext:
    """Shared lazily-computed state for one scenario run.

    ``shared`` (optional) is a :class:`SweepCache` that extends the
    caching across scenario runs of one sweep.
    """

    def __init__(
        self, scenario: Scenario, shared: Optional[SweepCache] = None
    ) -> None:
        self.scenario = scenario
        self.spec = get_model(scenario.model)
        self.shared = shared
        self._workloads: Optional[List[LayerWorkload]] = None
        self._kernels: Optional[Dict[Any, np.ndarray]] = None
        self._perf: Optional[PerfModel] = None
        self._compression: Optional[ModelCompressionResult] = None
        self._layer_ratios: Optional[Dict[str, float]] = None
        self.timings: Dict[str, ModelTiming] = {}
        self.energy_reports: Dict[str, EnergyReport] = {}

    @property
    def workloads(self) -> List[LayerWorkload]:
        """The model's layer list (built once)."""
        if self._workloads is None:
            self._workloads = list(self.spec.workloads())
        return self._workloads

    @property
    def kernels(self) -> Dict[Any, np.ndarray]:
        """Per-block synthetic kernels for the scenario's seed."""
        if self._kernels is None:
            build = lambda: dict(self.spec.kernels(self.scenario.seed))
            if self.shared is not None:
                self._kernels = self.shared.kernels(self.scenario, build)
            else:
                self._kernels = build()
        return self._kernels

    @property
    def perf(self) -> PerfModel:
        """The analytic performance model over the scenario's system."""
        if self._perf is None:
            self._perf = PerfModel(self.scenario.system)
        return self._perf

    @property
    def compression(self) -> ModelCompressionResult:
        """The scenario pipeline run over the model's kernels (cached)."""
        if self._compression is None:
            build = lambda: CompressionPipeline(
                self.scenario.pipeline
            ).compress_model(self.kernels)
            if self.shared is not None:
                self._compression = self.shared.compression(
                    self.scenario, build
                )
            else:
                self._compression = build()
        return self._compression

    @property
    def layer_ratios(self) -> Dict[str, float]:
        """Layer name -> compression ratio driving the timing model.

        Explicit ``scenario.compression_ratios`` win; otherwise the
        ratios are measured with the scenario's pipeline, matching the
        Table V clustering column bit for bit.
        """
        if self._layer_ratios is None:
            if self.scenario.compression_ratios is not None:
                self._layer_ratios = dict(self.scenario.compression_ratios)
            else:
                self._layer_ratios = {
                    self.spec.layer_name(block): ratio
                    for block, ratio in self.compression.block_ratios().items()
                }
        return self._layer_ratios

    @property
    def layer_ratios_if_measured(self) -> Dict[str, float]:
        """The ratios, if some backend already resolved them; else empty.

        Lets the report assembly read what was computed without forcing
        a compression measurement no backend asked for.
        """
        return dict(self._layer_ratios) if self._layer_ratios is not None else {}

    def timing(self, mode: str) -> ModelTiming:
        """Whole-model timing under ``mode`` (cached per mode).

        The baseline never consults the ratios, so requesting it does
        not trigger a compression measurement.
        """
        if mode not in self.timings:
            ratios = None if mode == "baseline" else self.layer_ratios
            self.timings[mode] = self.perf.simulate_model(
                mode, ratios, self.workloads
            )
        return self.timings[mode]


class SimulationBackend(ABC):
    """One evaluation strategy; ``run`` returns a JSON-ready section."""

    #: registry key; subclasses must override
    name: str = ""
    #: which paper table/figure the backend reproduces
    paper_ref: str = ""

    @abstractmethod
    def run(self, context: SimulationContext) -> Dict[str, Any]:
        """Evaluate the scenario; returns one serialisable section."""


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
_REGISTRY: Dict[str, Type[SimulationBackend]] = {}


def register_backend(cls: Type[SimulationBackend]) -> Type[SimulationBackend]:
    """Class decorator: register ``cls`` under its ``name`` attribute."""
    if not cls.name:
        raise ValueError(f"{cls.__name__} must define a non-empty name")
    if cls.name in _REGISTRY and _REGISTRY[cls.name] is not cls:
        raise ValueError(f"backend name {cls.name!r} is already registered")
    _REGISTRY[cls.name] = cls
    return cls


def get_backend(name: str, **params) -> SimulationBackend:
    """Instantiate the backend registered as ``name``."""
    try:
        cls = _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown backend {name!r}; "
            f"available: {', '.join(available_backends())}"
        ) from None
    return cls(**params)


def available_backends() -> Tuple[str, ...]:
    """Registered backend names, sorted."""
    return tuple(sorted(_REGISTRY))


def registered_backends() -> Dict[str, Type[SimulationBackend]]:
    """Name -> backend class snapshot (for the ``backends`` CLI listing)."""
    return dict(sorted(_REGISTRY.items()))


# ----------------------------------------------------------------------
# Backends
# ----------------------------------------------------------------------
@register_backend
class CompressionBackend(SimulationBackend):
    """Offline compression metrics (Table V / Sec. VI payload ratio)."""

    name = "compression"
    paper_ref = "Table V, Sec. VI 1.32x payload ratio"

    def run(self, context: SimulationContext) -> Dict[str, Any]:
        result = context.compression
        section: Dict[str, Any] = {
            "codec": context.scenario.pipeline.codec,
            "merge_blocks": context.scenario.pipeline.merge_blocks,
            "num_blocks": result.num_blocks,
            "raw_bits": int(result.raw_bits),
            "compressed_bits": int(result.compressed_bits),
            "overall_ratio": float(result.compression_ratio),
            "block_ratios": {
                str(block): float(ratio)
                for block, ratio in result.block_ratios().items()
            },
            "layer_ratios": {
                name: float(ratio)
                for name, ratio in context.layer_ratios.items()
            },
        }
        first = result.blocks[min(result.blocks)]
        if isinstance(first.codec, SimplifiedTreeCodec):
            layout = first.codec.tree.layout
            section["decoder_table_bytes"] = int(layout.decoder_table_bytes())
            section["code_lengths"] = [int(c) for c in layout.code_lengths]
        return section


@register_backend
class AnalyticBackend(SimulationBackend):
    """Trace-driven whole-network timing of the execution modes."""

    name = "analytic"
    paper_ref = "Sec. VI 1.35x hw speedup, Sec. IV-B 1.47x sw slowdown"

    def run(self, context: SimulationContext) -> Dict[str, Any]:
        modes: Dict[str, Dict[str, Any]] = {}
        for mode in context.scenario.modes:
            timing = context.timing(mode)
            modes[mode] = {
                "total_cycles": float(timing.total_cycles),
                "dram_bytes": int(
                    sum(layer.dram_bytes for layer in timing.layers)
                ),
                "decode_cycles": float(
                    sum(layer.decode_cycles for layer in timing.layers)
                ),
                "weight_stall_cycles": float(
                    sum(layer.weight_stall_cycles for layer in timing.layers)
                ),
                "input_stall_cycles": float(
                    sum(layer.input_stall_cycles for layer in timing.layers)
                ),
                "cycles_by_kind": {
                    kind: float(cycles)
                    for kind, cycles in timing.cycles_by_kind().items()
                },
            }
        section: Dict[str, Any] = {"modes": modes}
        if "baseline" in modes and "hw_compressed" in modes:
            section["hw_speedup"] = _guarded_ratio(
                modes["baseline"]["total_cycles"],
                modes["hw_compressed"]["total_cycles"],
            )
        if "baseline" in modes and "sw_compressed" in modes:
            section["sw_slowdown"] = _guarded_ratio(
                modes["sw_compressed"]["total_cycles"],
                modes["baseline"]["total_cycles"],
            )
        return section


@register_backend
class PipelineBackend(SimulationBackend):
    """Instruction-level microkernel validation on the in-order core."""

    name = "pipeline"
    paper_ref = "Sec. V Gem5/A53 instruction-level evaluation"

    def __init__(self, max_outputs: int = 8, decode_sequences: int = 64):
        self.max_outputs = max_outputs
        self.decode_sequences = decode_sequences

    def _fresh_core(self, context: SimulationContext) -> InOrderPipeline:
        system = context.scenario.system
        hierarchy = build_hierarchy(
            system.l1, system.l2, MainMemory(system.memory)
        )
        return InOrderPipeline(
            hierarchy, issue_width=system.cpu.issue_width
        )

    @staticmethod
    def _stats_dict(stats: PipelineStats) -> Dict[str, Any]:
        return {
            "cycles": int(stats.cycles),
            "instructions": int(stats.instructions),
            "ipc": float(stats.ipc),
            "issue_stall_cycles": int(stats.issue_stall_cycles),
            "memory_stall_cycles": int(stats.memory_stall_cycles),
            "fifo_stall_cycles": int(stats.fifo_stall_cycles),
        }

    def run(self, context: SimulationContext) -> Dict[str, Any]:
        system = context.scenario.system
        workload = next(
            (w for w in context.workloads if w.kind == "conv3x3"), None
        )
        if workload is None:
            raise ValueError(
                f"model {context.scenario.model!r} has no conv3x3 layer "
                "for the pipeline backend to validate"
            )
        vector_bits = system.cpu.vector_bits

        baseline_program = baseline_row_pass(
            workload, vector_bits, max_outputs=self.max_outputs
        )
        baseline_stats = self._fresh_core(context).run(baseline_program)

        ldps_program = hw_ldps_row_pass(
            workload, vector_bits, max_outputs=self.max_outputs
        )
        num_words = sum(1 for i in ldps_program if i.kind == "ldps")
        sequences_per_word = vector_bits / 9.0
        ready_times = [
            (index + 1)
            * sequences_per_word
            / system.decoder.sequences_per_cycle
            for index in range(num_words)
        ]
        ldps_stats = self._fresh_core(context).run(
            ldps_program, fifo_ready_times=ready_times
        )

        decode_program = sw_decode_prologue(self.decode_sequences)
        decode_stats = self._fresh_core(context).run(decode_program)

        return {
            "workload": workload.name,
            "max_outputs": self.max_outputs,
            "modes": {
                "baseline": self._stats_dict(baseline_stats),
                "hw_ldps": self._stats_dict(ldps_stats),
                "sw_decode": self._stats_dict(decode_stats),
            },
            "ldps_speedup": _guarded_ratio(
                float(baseline_stats.cycles), float(ldps_stats.cycles)
            ),
            "sw_decode_cycles_per_sequence": (
                decode_stats.cycles / max(self.decode_sequences, 1)
            ),
        }


@register_backend
class RtlBackend(SimulationBackend):
    """Cycle-accurate decode of the whole model, verified bit-for-bit.

    Every block's kernel stream runs through the decoding-unit model
    (vectorised replay by default, the FSM as fallback/oracle via
    ``engine=``); the section reports per-block statistics plus model
    aggregates.  ``workers`` (default: the scenario pipeline's) fans
    the independent per-block decodes out over a process pool,
    mirroring the compression pipeline's per-block fan-out pattern.
    Stream encoding is shared through the sweep's
    :class:`SweepCache` — timing-only grid points pay for the decode
    replay, not for re-encoding every block.
    """

    name = "rtl"
    paper_ref = "Fig. 6 decoding unit, Sec. V Verilog timing"

    #: per-block fields summed into the model aggregate
    _SUMMED = (
        "num_sequences",
        "raw_bits",
        "compressed_bits",
        "cycles",
        "stall_cycles",
        "active_cycles",
        "fetch_requests",
        "packed_words",
    )

    def __init__(self, engine: str = "replay", workers: Optional[int] = None):
        if engine not in RtlDecodingUnit.ENGINES:
            raise ValueError(
                f"unknown engine {engine!r}; "
                f"valid: {RtlDecodingUnit.ENGINES}"
            )
        self.engine = engine
        self.workers = workers

    def run(self, context: SimulationContext) -> Dict[str, Any]:
        scenario = context.scenario
        workers = (
            scenario.pipeline.workers
            if self.workers is None
            else self.workers
        )
        capacities = tuple(
            dict(scenario.pipeline.codec_params).get(
                "capacities", DEFAULT_CAPACITIES
            )
        )
        memory_latency = max(scenario.system.memory.latency_cycles, 1)
        parse_rate = max(
            1, int(scenario.system.decoder.sequences_per_cycle)
        )
        build = lambda: _build_rtl_streams(context.kernels, capacities)
        if context.shared is not None:
            streams = context.shared.rtl_streams(scenario, capacities, build)
        else:
            streams = build()
        jobs = [
            (
                block,
                streams[block][0],
                streams[block][1],
                scenario.system.decoder,
                memory_latency,
                parse_rate,
                self.engine,
            )
            for block in sorted(streams)
        ]
        if workers > 1 and len(jobs) > 1:
            from concurrent.futures import ProcessPoolExecutor

            with ProcessPoolExecutor(max_workers=workers) as pool:
                futures = [
                    pool.submit(_rtl_block_job, *job) for job in jobs
                ]
                results = [future.result() for future in futures]
        else:
            results = [_rtl_block_job(*job) for job in jobs]

        blocks = {str(block): section for block, section in results}
        section: Dict[str, Any] = {
            "engine": self.engine,
            "num_blocks": len(blocks),
        }
        for field in self._SUMMED:
            section[field] = sum(entry[field] for entry in blocks.values())
        section["compression_ratio"] = _guarded_ratio(
            float(section["raw_bits"]), float(section["compressed_bits"])
        )
        section["utilisation"] = (
            section["active_cycles"] / section["cycles"]
            if section["cycles"]
            else 0.0
        )
        section["decode_verified"] = all(
            entry["decode_verified"] for entry in blocks.values()
        )
        section["blocks"] = blocks
        return section


def _build_rtl_streams(
    kernels: Mapping[Any, np.ndarray], capacities: Tuple[int, ...]
) -> Dict[Any, Tuple[CompressedKernel, np.ndarray]]:
    """Encode every block once: ``{block: (stream, sequences)}``.

    The result is what a :class:`SweepCache` shares across grid points
    (the streams depend only on kernels + capacities, never on timing
    knobs).
    """
    streams: Dict[Any, Tuple[CompressedKernel, np.ndarray]] = {}
    for block, kernel in kernels.items():
        sequences = kernel_to_sequences(kernel)
        tree = SimplifiedTree(
            FrequencyTable.from_sequences(sequences), capacities
        )
        streams[block] = (
            CompressedKernel.from_sequences(
                sequences, (kernel.shape[0], kernel.shape[1]), tree
            ),
            sequences,
        )
    return streams


def _rtl_block_job(
    block: Any,
    stream: CompressedKernel,
    sequences: np.ndarray,
    decoder_config,
    memory_latency: int,
    parse_rate: int,
    engine: str,
) -> Tuple[Any, Dict[str, Any]]:
    """Decode one block's stream (module level so process pools pickle)."""
    unit = RtlDecodingUnit(
        decoder_config,
        memory_latency=memory_latency,
        parse_rate=parse_rate,
        engine=engine,
    )
    decoded, packed_words, stats = unit.run(stream)
    return block, {
        "num_sequences": int(stream.num_sequences),
        "raw_bits": int(stream.raw_bits),
        "compressed_bits": int(stream.bit_length),
        "compression_ratio": float(stream.compression_ratio),
        "cycles": int(stats.cycles),
        "stall_cycles": int(stats.stall_cycles),
        "active_cycles": int(stats.active_cycles),
        "fetch_requests": int(stats.fetch_requests),
        "utilisation": float(stats.utilisation),
        "packed_words": len(packed_words),
        "decode_verified": bool(np.array_equal(decoded, sequences)),
    }


@register_backend
class InferenceBackend(SimulationBackend):
    """Actually *run* the scenario's model through the packed engine.

    Where the other backends simulate the hardware, this one executes
    real batched inference (Sec. IV-B's daBNN execution model) via
    :class:`~repro.infer.plan.InferencePlan` and verifies it against the
    float reference oracle: ``logits_bitexact`` pins bit-identity with
    the reference at the engine's minibatching (the hard contract), and
    ``top1_accuracy`` is the top-1 agreement with the *per-image*
    reference — expected ~1.0, though near-tied logits may flip at the
    ULP level across minibatchings (BLAS blocks per batch shape).
    Throughput is measured for both the batched engine and the per-image
    reference forward, the serving-vs-research baseline the benchmarks
    gate on.

    Requires a workload model with a runnable ``builder`` (e.g.
    ``reactnet`` or ``small-bnn``).
    """

    name = "inference"
    paper_ref = "Sec. IV-B daBNN packed execution (batched serving path)"

    def __init__(
        self,
        images: int = 32,
        batch: int = 32,
        engine: str = "packed",
    ):
        if engine not in ("packed", "reference"):
            raise ValueError(
                f"unknown engine {engine!r}; valid: ('packed', 'reference')"
            )
        if images < 1:
            raise ValueError(f"images must be >= 1, got {images}")
        if batch < 1:
            raise ValueError(f"batch must be >= 1, got {batch}")
        self.images = images
        self.batch = batch
        self.engine = engine

    def run(self, context: SimulationContext) -> Dict[str, Any]:
        import time

        from ..infer import InferencePlan

        spec = context.spec
        if spec.builder is None or spec.input_shape is None:
            raise ValueError(
                f"model {context.scenario.model!r} has no runnable builder "
                "for the inference backend (use a model registered with "
                "builder= and input_shape=)"
            )
        model = spec.builder(context.scenario.seed)
        rng = np.random.default_rng(context.scenario.seed)
        x = rng.standard_normal(
            (self.images, *spec.input_shape)
        ).astype(np.float32)

        plan = InferencePlan.from_model(model)

        # per-image float reference: the oracle and the serving baseline
        start = time.perf_counter()
        reference = model.forward_batched(x, batch_size=1)
        reference_seconds = time.perf_counter() - start

        if self.engine == "packed":
            run = lambda: plan.run_batch(x, batch_size=self.batch)
        else:
            run = lambda: model.forward_batched(x, batch_size=self.batch)
        run()  # warm the packed caches outside the timed region
        start = time.perf_counter()
        logits = run()
        engine_seconds = time.perf_counter() - start

        # bit-identity holds per minibatch, so the exactness pin compares
        # against the reference at the engine's batching; for the
        # reference engine that comparison would be the engine against
        # itself, so reuse the logits rather than paying a third pass
        if self.engine == "packed":
            oracle = model.forward_batched(x, batch_size=self.batch)
        else:
            oracle = logits
        return {
            "model": context.scenario.model,
            "engine": self.engine,
            "images": self.images,
            "batch": self.batch,
            "num_steps": len(plan),
            "num_packed_steps": plan.num_packed_steps,
            "images_per_second": _guarded_ratio(
                float(self.images), engine_seconds
            ),
            "reference_images_per_second": _guarded_ratio(
                float(self.images), reference_seconds
            ),
            "throughput_speedup": _guarded_ratio(
                reference_seconds, engine_seconds
            ),
            "top1_accuracy": float(
                (logits.argmax(axis=1) == reference.argmax(axis=1)).mean()
            ),
            "logits_bitexact": bool(np.array_equal(logits, oracle)),
        }


@register_backend
class EnergyBackend(SimulationBackend):
    """Per-inference energy of baseline vs. hardware-compressed runs."""

    name = "energy"
    paper_ref = "extension axis: DRAM-traffic energy (Horowitz ISSCC'14)"

    def run(self, context: SimulationContext) -> Dict[str, Any]:
        scenario = context.scenario
        model = EnergyModel(scenario.energy, scenario.system)
        reports = model.price_modes(
            {
                "baseline": context.timing("baseline"),
                "hw_compressed": context.timing("hw_compressed"),
            }
        )
        context.energy_reports.update(reports)
        section: Dict[str, Any] = {
            "modes": {
                mode: {
                    **{
                        component: float(value)
                        for component, value in report.breakdown().items()
                    },
                    "total_uj": float(report.total_uj),
                }
                for mode, report in reports.items()
            }
        }
        section["energy_saving"] = _guarded_ratio(
            reports["baseline"].total_uj,
            reports["hw_compressed"].total_uj,
        )
        return section


def _guarded_ratio(numerator: float, denominator: float) -> float:
    """``numerator / denominator`` with the degenerate cases pinned.

    Mirrors the ``compression_ratio`` contract: an empty denominator is
    infinitely better (``inf``) unless the numerator is empty too (1.0).
    """
    if denominator == 0:
        return float("inf") if numerator > 0 else 1.0
    return numerator / denominator
