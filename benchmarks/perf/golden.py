"""Pinned golden span digests for the vectorised simulator.

A trace under a fixed accelerator config (pruning off, jitter off)
depends only on network geometry, the dataflow and the DRAM layout —
not on input values or weights — so its flattened event stream is a
stable fingerprint of the trace synthesis pipeline.  CI asserts the
vectorised synthesiser still produces exactly these streams for every
zoo model × dataflow; any change to tiling, scheduling or address
arithmetic that alters a trace must consciously re-pin digests here.
"""

from __future__ import annotations

import hashlib

import numpy as np

__all__ = [
    "GOLDEN_LENET_SHA256",
    "GOLDEN_LENET_POWER_SHA256",
    "GOLDEN_DATAFLOW_SHA256",
    "span_stream_digest",
    "lenet_span_digest",
    "lenet_power_digest",
    "model_span_digest",
    "golden_model",
]

# sha256 over the concatenated little-endian bytes of (cycles,
# addresses, is_write) of one LeNet inference's full trace.
GOLDEN_LENET_SHA256 = (
    "77b5c882a1406791940c4794448e53d8f5d82010f26b2d198d0a540192de58c0"
)

# sha256 of the clean LeNet power-proxy trace (PowerTrace.digest():
# quantum + little-endian int64 samples) under the default PowerModel.
# The proxy is a pure integer function of the span stream plus public
# timing parameters, so this pins the whole power pipeline — span
# synthesis, per-event energy, cycle binning — in one digest.
GOLDEN_LENET_POWER_SHA256 = (
    "e4a518551b895bd1c80ea8dc2d19ca0cd1f44097166ec42fe4fd074e8c2f5f35"
)

# Per-(model, dataflow) digests of the same stream.  LeNet runs at full
# scale; alexnet/squeezenet at the CLI's default ablation scale
# (width_scale=0.25, num_classes=100).  The output-stationary LeNet
# entry is the original pre-refactor digest — the default dataflow is
# bit-identical to the pre-dataflow simulator.
GOLDEN_DATAFLOW_SHA256 = {
    ("lenet", "output-stationary"): GOLDEN_LENET_SHA256,
    ("lenet", "weight-stationary"): (
        "18a70eff760d5aeea3e717776b69dbfc6c92208c24582309ef321b0b02d52753"
    ),
    ("lenet", "row-stationary"): (
        "695d3c1fdd7a6b2626bc51d16a61f6019aa87f5c30ec553686f1ee03cd246d73"
    ),
    ("alexnet", "output-stationary"): (
        "e290fb06c9d06d47b9253f5ef741d06aeae41dfb31461cbfba2f18f94bf2a6f7"
    ),
    ("alexnet", "weight-stationary"): (
        "957c60e5cef1a37c728dd48fae5a335a91f7f323c968902988d1227eae2bb7ac"
    ),
    ("alexnet", "row-stationary"): (
        "c4517a0f8ede029e083f583c604c1d050bbae56ee683d3d0f866b4843698bdcd"
    ),
    ("squeezenet", "output-stationary"): (
        "1197f217d6d06a9cbbe16c17db9ce648001ef4ed3f0fbd64a7e194d9b8f1f06e"
    ),
    ("squeezenet", "weight-stationary"): (
        "00746f1bf7fd1bd36f09024fe9256ba9b68fc801a2edd93e3bc21d4913ae6f51"
    ),
    ("squeezenet", "row-stationary"): (
        "c716276e40edb88a53bcc35188ca437cca8b1e852802658ec122528125c558d6"
    ),
}


def golden_model(name: str):
    """The exact victim each golden digest is pinned against."""
    from repro.nn.zoo import build_model

    if name == "lenet":
        return build_model("lenet")
    return build_model(name, width_scale=0.25, num_classes=100)


def model_span_digest(name: str, dataflow: str, reference: bool = False) -> str:
    """Digest of one inference of a golden victim under ``dataflow``.

    ``reference`` re-synthesizes the same run through the per-tile
    oracle (:func:`repro.reference.synthesize_reference`).
    """
    from repro.accel import AcceleratorConfig, AcceleratorSim
    from repro.reference import synthesize_reference

    sim = AcceleratorSim(
        golden_model(name), AcceleratorConfig(dataflow=dataflow)
    )
    result = sim.run(np.zeros((1, *sim.staged.network.input_shape)))
    if reference:
        result = synthesize_reference(sim)
    return span_stream_digest(result.trace)


def span_stream_digest(trace) -> str:
    """Digest of a materialised trace's flattened event stream."""
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(trace.cycles, dtype=np.int64).tobytes())
    h.update(np.ascontiguousarray(trace.addresses, dtype=np.int64).tobytes())
    h.update(np.ascontiguousarray(trace.is_write, dtype=bool).tobytes())
    return h.hexdigest()


def lenet_power_digest(reference: bool = False) -> str:
    """Digest of one clean LeNet inference's power-proxy trace.

    Like :func:`lenet_span_digest`, a zero image keeps the fingerprint
    free of any RNG dependency: the un-pruned trace (and therefore the
    proxy derived from it) depends only on geometry and layout.
    ``reference`` computes the proxy with the per-event oracle
    (:func:`repro.reference.power_reference`) instead of a
    :class:`~repro.power.PowerSink`.
    """
    from repro.accel import AcceleratorSim
    from repro.nn.zoo import build_lenet
    from repro.power import PowerSink
    from repro.reference import power_reference

    sim = AcceleratorSim(build_lenet())
    x = np.zeros((1, *sim.staged.network.input_shape))
    if reference:
        t = sim.run(x).trace
        return power_reference(
            t.cycles, t.addresses, t.is_write, sim.config.timing
        ).digest()
    sink = PowerSink(sim.config.timing)
    sim.run(x, sink)
    return sink.trace().digest()


def lenet_span_digest(reference: bool = False) -> str:
    """Digest of one LeNet inference under the default config.

    Input values are irrelevant to the un-pruned, jitter-free trace,
    so a zero image keeps the fingerprint free of any RNG dependency.
    """
    return model_span_digest("lenet", "output-stationary", reference)
