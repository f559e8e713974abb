"""Streaming trace analysis: bit-identity with the whole-trace oracles.

For LeNet AND AlexNet, folding the span stream through
:class:`StreamingTraceAnalyzer` (and the boundary trackers) yields
exactly the objects the batch oracles in :mod:`repro.reference`
compute from the materialised trace — for any chunking of the stream.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.accel import AcceleratorSim, MemoryTrace
from repro.attacks.robust import (
    RobustRawBoundaryTracker,
    boundary_cycles_from_trace,
)
from repro.attacks.structure import run_structure_attack
from repro.attacks.structure.trace_analysis import (
    BoundaryTracker,
    StreamingTraceAnalyzer,
    analyse_trace,
)
from repro.device import DeviceSession
from repro.errors import TraceError
from repro.nn.zoo import build_alexnet, build_lenet
from repro.reference import decode_reference, raw_boundaries_reference

VICTIMS = {
    "lenet": lambda: build_lenet(),
    "alexnet": lambda: build_alexnet(width_scale=0.25, num_classes=100),
}


@pytest.fixture(scope="module", params=sorted(VICTIMS))
def observed(request):
    """(name, materialised observation, oracle decode) per victim."""
    session = DeviceSession(AcceleratorSim(VICTIMS[request.param]()))
    obs = session.observe_structure(seed=1)
    return request.param, obs, decode_reference(obs)


def chunked(trace, size):
    for lo in range(0, len(trace), size):
        hi = min(lo + size, len(trace))
        yield (
            trace.cycles[lo:hi],
            trace.addresses[lo:hi],
            trace.is_write[lo:hi],
        )


# -- boundary trackers -----------------------------------------------------

@pytest.mark.parametrize("chunk", [1, 7, 1000])
def test_boundary_tracker_matches_batch_for_any_chunking(observed, chunk):
    _, obs, (boundaries, _) = observed
    tracker = BoundaryTracker()
    for _, _, is_write in chunked(obs.trace, chunk):
        tracker.feed(is_write)
    assert tracker.boundaries == boundaries


@pytest.mark.parametrize("chunk", [1, 7, 1000])
def test_raw_boundary_tracker_matches_batch_for_any_chunking(observed, chunk):
    _, obs, _ = observed
    trace = obs.trace
    # min_support=1 is the naive rule the oracle runs event by event.
    tracker = RobustRawBoundaryTracker(min_support=1)
    for cycles, addresses, is_write in chunked(trace, chunk):
        tracker.feed(cycles, addresses, is_write)
    assert tracker.boundaries == raw_boundaries_reference(
        trace.addresses, trace.is_write
    )


def test_empty_trackers_raise_like_the_batch_functions():
    with pytest.raises(TraceError, match="empty trace"):
        raw_boundaries_reference(np.empty(0, np.int64), np.empty(0, bool))
    with pytest.raises(TraceError, match="empty trace"):
        BoundaryTracker().boundaries
    empty = MemoryTrace(
        np.empty(0, np.int64), np.empty(0, np.int64), np.empty(0, bool)
    )
    with pytest.raises(TraceError, match="empty trace"):
        boundary_cycles_from_trace(empty)


# -- streaming analyzer ----------------------------------------------------

@pytest.mark.parametrize("chunk", [13, 4096])
def test_streaming_analysis_bit_identical_to_batch(observed, chunk):
    _, obs, (_, batch) = observed
    analyzer = StreamingTraceAnalyzer(
        obs.input_shape, obs.element_bytes, obs.block_bytes
    )
    for cycles, addresses, is_write in chunked(obs.trace, chunk):
        analyzer.feed(cycles, addresses, is_write)
    assert analyzer.finish(obs) == batch


def test_end_to_end_sink_analysis_bit_identical(observed):
    # The analyzer runs as the session's sink: nothing materialised,
    # same TraceAnalysis bit for bit.
    name, obs, (boundaries, batch) = observed
    session = DeviceSession(AcceleratorSim(VICTIMS[name]()))
    analyzer = StreamingTraceAnalyzer(
        session.image_shape, session.element_bytes, session.block_bytes
    )
    streamed_obs = session.observe_structure(seed=1, sink=analyzer)
    assert streamed_obs.trace is None
    assert session.ledger.trace_events == len(obs.trace)
    assert analyzer.finish(streamed_obs) == batch
    assert analyzer.boundaries == boundaries


def test_streaming_attack_equals_batch_attack(observed):
    # The attack observes run 0 with the input drawn from ``seed``, as
    # the fixture's session did: its decode must match the oracle's.
    name, obs, (boundaries, batch) = observed
    result = run_structure_attack(AcceleratorSim(VICTIMS[name]()), seed=1)
    assert result.observation.trace is None
    assert result.observation.total_cycles == obs.total_cycles
    assert result.analysis == batch
    assert result.boundaries == boundaries


# -- error paths -----------------------------------------------------------

def test_analyzer_finish_requires_events():
    analyzer = StreamingTraceAnalyzer((1, 8, 8), 1, 64)
    with pytest.raises(TraceError, match="empty trace"):
        analyzer.finish(None)


def test_analyzer_rejects_geometry_mismatch(observed):
    _, obs, _ = observed
    analyzer = StreamingTraceAnalyzer(
        obs.input_shape, obs.element_bytes * 2, obs.block_bytes
    )
    for chunk in chunked(obs.trace, 4096):
        analyzer.feed(*chunk)
    with pytest.raises(TraceError, match="geometry disagrees"):
        analyzer.finish(obs)


def test_analyzer_single_use(observed):
    _, obs, _ = observed
    analyzer = StreamingTraceAnalyzer(
        obs.input_shape, obs.element_bytes, obs.block_bytes
    )
    for chunk in chunked(obs.trace, 4096):
        analyzer.feed(*chunk)
    analyzer.finish(obs)
    with pytest.raises(TraceError, match="already finished"):
        analyzer.feed(obs.trace.cycles, obs.trace.addresses, obs.trace.is_write)
    with pytest.raises(TraceError, match="already finished"):
        analyzer.finish(obs)


def test_batch_analysis_refuses_streamed_observation(observed):
    name, _, _ = observed
    session = DeviceSession(AcceleratorSim(VICTIMS[name]()))
    analyzer = StreamingTraceAnalyzer(
        session.image_shape, session.element_bytes, session.block_bytes
    )
    streamed_obs = session.observe_structure(seed=1, sink=analyzer)
    with pytest.raises(TraceError, match="no materialised trace"):
        analyse_trace(streamed_obs)
