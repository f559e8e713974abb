"""Spec expansion and content-addressed job identity."""

from __future__ import annotations

import json
import subprocess
import sys

import numpy as np
import pytest

from repro.campaign import CampaignSpec, canonical_json, job_content_id
from repro.errors import ConfigError

SPEC = {
    "name": "unit",
    "sweeps": [
        {
            "kind": "weight_recovery",
            "tenant": "weights",
            "base": {"victim": {"conv": {"w": 6, "d": 2}}},
            "grid": {
                "mode": ["naive", "voted"],
                "search_steps": [8, 12],
            },
        },
        {
            "kind": "boundary_recovery",
            "base": {"victim": {"conv": {"w": 10}}, "runs": 2},
        },
    ],
    "tenants": {"weights": {"max_queries": 100}},
}


def test_expansion_order_is_grid_major():
    jobs = CampaignSpec.from_dict(SPEC).expand()
    assert len(jobs) == 5
    cells = [(j.params.get("mode"), j.params.get("search_steps"))
             for j in jobs[:4]]
    # First axis listed varies slowest.
    assert cells == [
        ("naive", 8), ("naive", 12), ("voted", 8), ("voted", 12)
    ]
    assert jobs[4].kind == "boundary_recovery"
    assert jobs[4].tenant == "default"
    assert all(j.tenant == "weights" for j in jobs[:4])


def test_duplicate_cells_get_repeat_indices_and_distinct_ids():
    spec = CampaignSpec.from_dict({
        "name": "dups",
        "sweeps": [{
            "kind": "weight_recovery",
            "base": {"victim": {"conv": {"w": 6}}},
            "grid": {"mode": ["naive", "naive", "naive"]},
        }],
    })
    jobs = spec.expand()
    assert [j.repeat for j in jobs] == [0, 1, 2]
    assert len({j.job_id for j in jobs}) == 3
    assert jobs[0].params == jobs[1].params == jobs[2].params


def test_expansion_is_deterministic():
    a = CampaignSpec.from_dict(SPEC).expand()
    b = CampaignSpec.from_dict(json.loads(json.dumps(SPEC))).expand()
    assert [j.job_id for j in a] == [j.job_id for j in b]


def test_job_ids_stable_across_processes():
    """The content address must not depend on interpreter state."""
    jobs = CampaignSpec.from_dict(SPEC).expand()
    code = (
        "import json, sys\n"
        "from repro.campaign import CampaignSpec\n"
        "spec = CampaignSpec.from_dict(json.loads(sys.argv[1]))\n"
        "print(json.dumps([j.job_id for j in spec.expand()]))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, json.dumps(SPEC)],
        capture_output=True, text=True, check=True,
    )
    assert json.loads(proc.stdout) == [j.job_id for j in jobs]


def test_job_content_id_is_canonical():
    params = {"b": 1, "a": {"y": 2, "x": 3}}
    reordered = {"a": {"x": 3, "y": 2}, "b": 1}
    assert job_content_id("k", params, 0) == job_content_id("k", reordered, 0)
    assert job_content_id("k", params, 0) != job_content_id("k", params, 1)


def test_canonical_json_is_sorted_and_compact():
    assert canonical_json({"b": 1, "a": [1.5, None]}) == '{"a":[1.5,null],"b":1}'


def test_spec_roundtrip_and_validation():
    spec = CampaignSpec.from_dict(SPEC)
    again = CampaignSpec.from_dict(spec.to_dict())
    assert canonical_json(spec.to_dict()) == canonical_json(again.to_dict())
    with pytest.raises(ConfigError):
        CampaignSpec.from_dict({"sweeps": []})
    with pytest.raises(ConfigError):
        CampaignSpec.from_dict({"name": "x", "sweeps": [{"base": {}}]})


# -- victim, device and channel builders --------------------------------------

@pytest.mark.parametrize(
    "build, spec, typo",
    [
        ("channel", {"drop": 0.1}, "drop"),
        ("device", {"prune": True}, "prune"),
        ("victim", {"conv": {"w": 8, "filters": 5}}, "filters"),
    ],
)
def test_builders_reject_misspelled_keys(build, spec, typo):
    """A typo must not run a different experiment under the asked name."""
    from repro.campaign.victims import build_channel, build_device, build_victim

    victim = build_victim({"conv": {"w": 8}})
    builders = {
        "channel": lambda: build_channel(spec),
        "device": lambda: build_device(victim, spec),
        "victim": lambda: build_victim(spec),
    }
    with pytest.raises(ConfigError, match=typo) as err:
        builders[build]()
    # The message lists what would have been accepted.
    assert {"channel": "drop_rate", "device": "pruning", "victim": "d"}[
        build
    ] in str(err.value)


def test_fc_head_leaves_the_conv_stage_untouched():
    from repro.campaign.victims import build_conv_victim

    spec = {"w": 14, "d": 6, "pool": [2, 2, 0], "seed": 3}
    plain = build_conv_victim(dict(spec))
    headed = build_conv_victim({**spec, "fc": 10})
    assert [s.name for s in headed.stages] == ["conv1", "fc2"]
    for name in ("weight", "bias"):
        assert (
            getattr(plain.network.nodes["conv1/conv"].layer, name).value.tobytes()
            == getattr(headed.network.nodes["conv1/conv"].layer, name).value.tobytes()
        )
    again = build_conv_victim({**spec, "fc": 10})
    assert np.array_equal(
        headed.network.nodes["fc2/fc"].layer.weight.value,
        again.network.nodes["fc2/fc"].layer.weight.value,
    )
