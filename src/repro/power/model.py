"""The power-proxy model: per-cycle-bin energy from the span stream.

Wei et al. (arXiv 1803.05847) and CSI-NN (arXiv 1810.09076) recover
CNN structure from power/EM traces whose dominant components are bus
switching activity and datapath (MAC) activity.  :class:`PowerModel`
reproduces both as a *pure integer function of the flattened event
stream plus public timing parameters*:

* every bus transaction costs a base read/write energy plus a
  **switching** term — the Hamming distance between the transaction's
  block address and the previous one on the bus (the classic
  toggled-lines model);
* every read transaction additionally carries a **MAC-activity** term:
  one fetched block feeds the PE array for
  ``cycles_per_block * pe_macs_per_cycle`` multiply-accumulates, so
  datapath energy is attributed to the read that provisioned it.  Both
  knobs come from the :class:`~repro.accel.timing.TimingModel`, which
  the threat model already treats as datasheet-public.

Event energies are accumulated into cycle bins of ``quantum`` cycles
(``sample[b]`` covers cycles ``[b*quantum, (b+1)*quantum)``).  All
arithmetic is int64, so a :class:`PowerTrace` is bit-identical across
processes and span chunkings, and its digest can be golden-pinned.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from repro.accel.timing import TimingModel
from repro.errors import ConfigError

__all__ = ["PowerModel", "PowerTrace", "popcount64"]

_M1 = np.uint64(0x5555555555555555)
_M2 = np.uint64(0x3333333333333333)
_M4 = np.uint64(0x0F0F0F0F0F0F0F0F)
_H01 = np.uint64(0x0101010101010101)


def popcount64(values: np.ndarray) -> np.ndarray:
    """Per-element population count of a uint64 array (SWAR, branch-free)."""
    v = np.asarray(values, dtype=np.uint64)
    v = v - ((v >> np.uint64(1)) & _M1)
    v = (v & _M2) + ((v >> np.uint64(2)) & _M2)
    v = (v + (v >> np.uint64(4))) & _M4
    return ((v * _H01) >> np.uint64(56)).astype(np.int64)


@dataclass(frozen=True)
class PowerTrace:
    """One observed power-proxy trace: int64 energy per cycle bin.

    Attributes:
        samples: energy units accumulated per bin; ``samples[b]``
            covers cycles ``[b*quantum, (b+1)*quantum)`` from cycle 0.
        quantum: bin width in cycles.
    """

    samples: np.ndarray
    quantum: int

    def __len__(self) -> int:
        return len(self.samples)

    @property
    def num_samples(self) -> int:
        return len(self.samples)

    @property
    def total_energy(self) -> int:
        return int(self.samples.sum())

    def digest(self) -> str:
        """Content digest: sha256 of the little-endian sample bytes."""
        h = hashlib.sha256()
        h.update(np.int64(self.quantum).tobytes())
        h.update(
            np.ascontiguousarray(self.samples, dtype="<i8").tobytes()
        )
        return h.hexdigest()


@dataclass(frozen=True)
class PowerModel:
    """Energy coefficients of the power proxy (all integer units).

    Attributes:
        quantum: power sample period in cycles (probe bandwidth).
        read_energy: base energy of one read transaction.
        write_energy: base energy of one write transaction.
        switch_energy: energy per toggled address line (Hamming
            distance to the previous transaction's address).
        mac_energy: energy per ``macs_per_unit`` multiply-accumulates
            of datapath activity.
        macs_per_unit: MAC count that costs one ``mac_energy`` unit
            (keeps sample magnitudes in a probe-plausible range).
    """

    quantum: int = 32
    read_energy: int = 4
    write_energy: int = 6
    switch_energy: int = 1
    mac_energy: int = 1
    macs_per_unit: int = 64

    def __post_init__(self) -> None:
        if self.quantum < 1:
            raise ConfigError(f"quantum must be >= 1, got {self.quantum}")
        for name in (
            "read_energy",
            "write_energy",
            "switch_energy",
            "mac_energy",
        ):
            if getattr(self, name) < 0:
                raise ConfigError(
                    f"{name} must be >= 0, got {getattr(self, name)}"
                )
        if self.macs_per_unit < 1:
            raise ConfigError(
                f"macs_per_unit must be >= 1, got {self.macs_per_unit}"
            )

    def mac_units_per_read(self, timing: TimingModel) -> int:
        """Datapath energy units provisioned by one read transaction.

        One fetched block keeps the PE array busy for
        ``cycles_per_block`` cycles at ``pe_macs_per_cycle`` MACs each
        — the timing model's own compute/memory overlap assumption,
        read off the public datasheet parameters.
        """
        macs = timing.pe_macs_per_cycle * timing.cycles_per_block
        return macs // self.macs_per_unit

    def event_energy(
        self,
        addresses: np.ndarray,
        is_write: np.ndarray,
        prev_address: int,
        timing: TimingModel,
    ) -> np.ndarray:
        """Vectorised per-event energy for one span chunk.

        ``prev_address`` is the last address of the preceding chunk
        (0 before the first event) — the only cross-chunk state, which
        is what makes the proxy chunking-invariant: it depends on the
        flattened event order alone.
        """
        addrs = np.asarray(addresses, dtype=np.int64).view(np.uint64)
        prev = np.empty_like(addrs)
        prev[0] = np.uint64(np.int64(prev_address).view(np.uint64))
        prev[1:] = addrs[:-1]
        energy = self.switch_energy * popcount64(addrs ^ prev)
        writes = np.asarray(is_write, dtype=bool)
        mac_read = self.read_energy + self.mac_energy * self.mac_units_per_read(
            timing
        )
        energy += np.where(writes, self.write_energy, mac_read)
        return energy
