"""PowerModel: per-event energy, popcount kernel, validation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.accel.timing import TimingModel
from repro.errors import ConfigError
from repro.power import PowerModel, popcount64
from repro.reference import power_reference


def test_popcount_matches_python_bit_count():
    rng = np.random.default_rng(0)
    values = rng.integers(0, 2**63, size=512, dtype=np.int64).view(np.uint64)
    expected = [int(v).bit_count() for v in values]
    assert popcount64(values).tolist() == expected


def test_popcount_edge_values():
    vals = np.array([0, 1, 2**64 - 1, 2**63], dtype=np.uint64)
    assert popcount64(vals).tolist() == [0, 1, 64, 1]


def test_model_validation():
    with pytest.raises(ConfigError):
        PowerModel(quantum=0)
    with pytest.raises(ConfigError):
        PowerModel(read_energy=-1)
    with pytest.raises(ConfigError):
        PowerModel(macs_per_unit=0)


def test_event_energy_engines_bit_identical():
    rng = np.random.default_rng(3)
    timing = TimingModel()
    model = PowerModel()
    addresses = rng.integers(0, 1 << 40, size=800, dtype=np.int64)
    is_write = rng.random(800) < 0.4
    # One event per one-cycle bin: the oracle's samples are its
    # per-event energies, and a leading read at ``prev`` sets the
    # previous bus address of the first event under test.
    cycles = np.arange(len(addresses) + 1, dtype=np.int64)
    unit_bins = PowerModel(quantum=1)
    for prev in (0, 12345, (1 << 62) + 7):
        vec = model.event_energy(addresses, is_write, prev, timing)
        ref = power_reference(
            cycles,
            np.concatenate(([prev], addresses)),
            np.concatenate(([False], is_write)),
            timing,
            unit_bins,
        ).samples[1:]
        assert vec.dtype == np.int64
        assert np.array_equal(vec, ref)


def test_event_energy_components():
    timing = TimingModel()
    model = PowerModel(
        read_energy=4, write_energy=6, switch_energy=1, mac_energy=0
    )
    # Address toggles 0 -> 0b11 (2 lines) -> same (0 lines).
    energy = model.event_energy(
        np.array([3, 3], dtype=np.int64),
        np.array([False, True]),
        0,
        timing,
    )
    assert energy.tolist() == [4 + 2, 6 + 0]


def test_mac_units_scale_with_timing():
    model = PowerModel(macs_per_unit=64)
    timing = TimingModel()
    macs = timing.pe_macs_per_cycle * timing.cycles_per_block
    assert model.mac_units_per_read(timing) == macs // 64
