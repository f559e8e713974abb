"""How many forward passes each session call costs the victim.

Dense-write observations are synthesized from geometry alone: no
forward pass, one charged inference.  Reading the output (classify) or
observing a pruned device runs exactly one.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.accel import AcceleratorConfig, AcceleratorSim, PruningConfig
from repro.accel.sinks import StatsSink
from repro.channel import ChannelModel
from repro.device import DeviceSession, SharedQueryCache
from repro.errors import ConfigError
from repro.nn.zoo import build_lenet

VICTIM = build_lenet()
NOISY = ChannelModel(drop_rate=0.1, dup_rate=0.02, cycle_sigma=8.0, seed=4)


def _session(config=None, **kwargs) -> DeviceSession:
    return DeviceSession(AcceleratorSim(VICTIM, config), **kwargs)


@pytest.mark.parametrize("channel", [None, NOISY], ids=["ideal", "noisy"])
@pytest.mark.parametrize("sink", [False, True], ids=["own", "sink"])
@pytest.mark.parametrize("observe", ["observe_structure", "observe_power"])
def test_dense_observation_runs_no_forward_pass(
    forwards, observe, sink, channel
):
    session = _session(channel=channel)
    forwards.clear()
    getattr(session, observe)(sink=StatsSink() if sink else None)
    assert forwards == []
    assert session.ledger.inferences == 1


def test_shared_cache_miss_and_hit_run_no_forward_pass(forwards, tmp_path):
    cache = SharedQueryCache(tmp_path / "c.sqlite")
    for charged, cached in ((1, 0), (0, 1)):
        session = _session(channel=NOISY, shared_cache=cache)
        forwards.clear()
        obs = session.observe_structure(sink=StatsSink())
        assert forwards == []
        assert obs.num_classes == 10
        assert session.ledger.inferences == charged
        assert session.ledger.cached_inferences == cached
    # Power is a physical tap: never served from the cache, still no
    # forward pass.
    session = _session(channel=NOISY, shared_cache=cache)
    forwards.clear()
    session.observe_power()
    assert forwards == [] and session.ledger.inferences == 1
    cache.close()


def test_classify_runs_one_forward_pass(forwards):
    session = _session()
    x = np.random.default_rng(0).normal(size=(1, 1, 28, 28))
    forwards.clear()
    output = session.classify(x)
    assert len(forwards) == 1 and session.ledger.inferences == 1
    np.testing.assert_array_equal(output, VICTIM.network.forward(x))
    assert session.observe_structure().num_classes == output.shape[-1]


def test_classify_rejects_a_batch_before_charging(forwards, tmp_path):
    cache = SharedQueryCache(tmp_path / "cache.sqlite")
    session = _session(shared_cache=cache)
    forwards.clear()
    with pytest.raises(ConfigError, match=r"\(1, 1, 28, 28\)"):
        session.classify(np.zeros((4, 1, 28, 28)))
    assert forwards == [] and session.ledger.inferences == 0
    assert cache.stats()["outputs"] == 0
    cache.close()


def test_pruned_power_observation_runs_one_forward_pass(forwards):
    session = _session(AcceleratorConfig(pruning=PruningConfig(enabled=True)))
    forwards.clear()
    session.observe_power()
    assert len(forwards) == 1 and session.ledger.inferences == 1
