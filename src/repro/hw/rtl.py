"""Cycle-accurate state-machine model of the decoding unit.

The paper implements the decoding unit in Verilog and synthesises it to
get latencies (Sec. V).  :class:`repro.hw.decoder.DecodingUnit` is a
*behavioural* model with analytic timing; this module is the RTL twin —
a per-cycle ``tick()`` simulation of the datapath in Fig. 6:

* **fetch stage** — issues chunk requests to memory, fills the double-
  buffered input buffer; a request is in flight for its full latency;
* **parse stage** — one sequence per cycle: consume prefix bits from the
  shift window, read the *length table* for the code length, extract the
  index bits (``decoded address``);
* **lookup stage** — read the banked *uncompressed table*;
* **pack stage** — insert the 9 decoded bits into the packing registers;
  a full register group retires to the output FIFO.

Two execution engines share this model:

* **FSM (the oracle)** — :meth:`RtlDecodingUnit.run_fsm`, the literal
  per-cycle loop below.  It is the golden reference: every architectural
  event happens in program order, so it is trusted, auditable and slow
  (microseconds of Python per simulated cycle).
* **replay (the default)** — :mod:`repro.hw.rtl_fast` reproduces the
  FSM's outputs *and* cycle accounting exactly with whole-stream array
  passes (LUT decode, analytic chunk-arrival cycles or the exact
  windowed event loop for wide parse configurations, numpy pack),
  which is what makes full-model cycle-accurate coverage affordable.
  The replay is universal — every parse configuration is cycle-exact —
  so the default ``engine="replay"`` never ticks the FSM;
  ``engine="fsm"`` forces the per-cycle reference, e.g. for the
  equivalence suite in ``tests/test_rtl_replay.py``.

Tests drive both models on the same stream and assert that (a) the
decoded/packed output is bit-identical and (b) the analytic model's
cycle count tracks the FSM's within a stated tolerance — the same
validation the paper's Gem5-vs-Verilog methodology implies.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from ..core.bitseq import BITS_PER_SEQUENCE
from ..core.streams import CompressedKernel
from .config import DecoderConfig

__all__ = ["RtlDecodeStats", "RtlDecodingUnit"]


@dataclass
class RtlDecodeStats:
    """Cycle-level accounting of one FSM run."""

    cycles: int = 0
    stall_cycles: int = 0
    fetch_requests: int = 0
    sequences_decoded: int = 0
    #: cycles in which the parser produced a sequence
    active_cycles: int = 0

    @property
    def utilisation(self) -> float:
        """Fraction of cycles the parse stage was productive."""
        if self.cycles == 0:
            return 0.0
        return self.active_cycles / self.cycles


@dataclass
class _FetchRequest:
    """One in-flight memory request."""

    data: bytes
    remaining_cycles: int


class RtlDecodingUnit:
    """Per-cycle FSM of the streaming + packing units.

    ``memory_latency`` is the flat latency of one chunk fetch (the
    behavioural model's cache path collapses to this when the stream is
    DRAM-resident); ``parse_rate`` is how many sequences the parser can
    emit per cycle (1 for a single-ported length table, 2 for the banked
    layout of Table IV).  ``engine`` selects the execution strategy:
    ``"fsm"`` ticks the per-cycle reference, while ``"replay"`` (the
    default) runs the vectorised replay of :mod:`repro.hw.rtl_fast`,
    which is cycle-exact for every parse configuration — the FSM is
    the golden oracle only.
    """

    ENGINES = ("replay", "fsm")

    def __init__(
        self,
        config: Optional[DecoderConfig] = None,
        register_bits: int = 128,
        memory_latency: int = 100,
        parse_rate: int = 1,
        engine: str = "replay",
    ) -> None:
        if register_bits % 64:
            raise ValueError("register width must be a multiple of 64 bits")
        if memory_latency < 1:
            raise ValueError("memory latency must be >= 1 cycle")
        if parse_rate < 1:
            raise ValueError("parse rate must be >= 1")
        if engine not in self.ENGINES:
            raise ValueError(
                f"unknown engine {engine!r}; valid: {self.ENGINES}"
            )
        self.config = config or DecoderConfig()
        self.register_bits = register_bits
        self.memory_latency = memory_latency
        self.parse_rate = parse_rate
        self.engine = engine

    # ------------------------------------------------------------------
    def run(self, stream: CompressedKernel) -> Tuple[np.ndarray, List[int], RtlDecodeStats]:
        """Decode a whole stream through the configured engine.

        Returns ``(sequences, packed_words, stats)`` — identical for
        every engine; the replay is cycle-exact by construction and the
        equivalence property suite keeps it that way.
        """
        if self.engine == "replay":
            from .rtl_fast import replay_run

            return replay_run(
                stream,
                self.config,
                self.register_bits,
                self.memory_latency,
                self.parse_rate,
            )
        return self.run_fsm(stream)

    def run_fsm(self, stream: CompressedKernel) -> Tuple[np.ndarray, List[int], RtlDecodeStats]:
        """Decode a whole stream cycle by cycle (the golden reference).

        Returns ``(sequences, packed_words, stats)``.
        """
        tree = stream.rebuild_tree()
        symbols, lengths = tree._decode_lut()  # the hardware's ROM contents
        max_length = int(max(tree.layout.code_lengths))

        total_bytes = (stream.bit_length + 7) // 8
        chunk = self.config.fetch_chunk_bytes
        payload = stream.payload + b"\x00\x00"

        # architectural state
        stats = RtlDecodeStats()
        window = 0  # bit window being parsed
        window_bits = 0
        buffered: List[bytes] = []  # chunks landed in the input buffer
        head_offset = 0  # consumed bytes of buffered[0] (no re-slicing)
        buffer_bytes = 0
        in_flight: Optional[_FetchRequest] = None
        next_fetch_offset = 0
        bit_position = 0

        decoded: List[int] = []
        packing = [0] * BITS_PER_SEQUENCE
        lane = 0
        packed_words: List[int] = []

        def buffer_capacity_left() -> int:
            return self.config.input_buffer_bytes - buffer_bytes

        max_cycles = 64 * (stream.num_sequences + 16) * self.memory_latency
        while len(decoded) < stream.num_sequences:
            stats.cycles += 1
            if stats.cycles > max_cycles:
                raise RuntimeError("FSM failed to converge (livelock?)")

            # ---- fetch stage: keep a chunk request in flight whenever
            # the double buffer has room and bytes remain
            if in_flight is None and next_fetch_offset < total_bytes:
                if buffer_capacity_left() >= chunk:
                    size = min(chunk, total_bytes - next_fetch_offset)
                    in_flight = _FetchRequest(
                        data=payload[next_fetch_offset:next_fetch_offset + size],
                        remaining_cycles=self.memory_latency,
                    )
                    next_fetch_offset += size
                    stats.fetch_requests += 1
            if in_flight is not None:
                in_flight.remaining_cycles -= 1
                if in_flight.remaining_cycles <= 0:
                    buffered.append(in_flight.data)
                    buffer_bytes += len(in_flight.data)
                    in_flight = None

            # ---- refill the parse window from the input buffer; an
            # offset cursor marks the consumed prefix of the head chunk
            # (re-slicing bytes per consumed byte would be quadratic)
            while window_bits <= 24 and buffered:
                head = buffered[0]
                window = (window << 8) | head[head_offset]
                window_bits += 8
                buffer_bytes -= 1
                head_offset += 1
                if head_offset == len(head):
                    buffered.pop(0)
                    head_offset = 0

            # ---- parse + lookup + pack (up to parse_rate per cycle)
            produced = 0
            for _ in range(self.parse_rate):
                if len(decoded) >= stream.num_sequences:
                    break
                remaining = stream.bit_length - bit_position
                need = min(max_length, remaining)
                if window_bits < need or remaining <= 0:
                    break  # starved: wait for the fetch stage
                peek = (
                    window >> (window_bits - max_length)
                    if window_bits >= max_length
                    else window << (max_length - window_bits)
                ) & ((1 << max_length) - 1)
                sequence = int(symbols[peek])
                code_length = int(lengths[peek])
                if sequence < 0 or code_length > remaining:
                    raise ValueError("invalid code word in stream")
                # consume the code from the window
                if window_bits >= code_length:
                    window_bits -= code_length
                    window &= (1 << window_bits) - 1
                bit_position += code_length
                decoded.append(sequence)
                produced += 1

                # pack stage: one register-file insert per sequence
                for position in range(BITS_PER_SEQUENCE):
                    bit = (sequence >> (BITS_PER_SEQUENCE - 1 - position)) & 1
                    packing[position] |= bit << lane
                lane += 1
                if lane == self.register_bits:
                    packed_words.extend(self._flush(packing))
                    packing = [0] * BITS_PER_SEQUENCE
                    lane = 0

            if produced:
                stats.active_cycles += 1
            else:
                stats.stall_cycles += 1

        if lane:
            packed_words.extend(self._flush(packing))
        stats.sequences_decoded = len(decoded)
        return np.asarray(decoded, dtype=np.int64), packed_words, stats

    def _flush(self, packing: List[int]) -> List[int]:
        """Retire one register group as 64-bit words (pack_bits layout)."""
        from ..bnn.packing import pack_bits

        r = self.register_bits
        bits = np.zeros((BITS_PER_SEQUENCE, r), dtype=np.uint8)
        for position, register in enumerate(packing):
            for lane in range(r):
                bits[position, lane] = (register >> lane) & 1
        words = pack_bits(bits)
        return [int(word) for word in words.reshape(-1)]
