"""The per-layer metric table: what each traced layer metric measures,
which public entry points its spans wrap, and the prediction it carries.

Every row names the end-to-end metrics a change to that layer should
move, the workload that exercises the layer and the workload that
bypasses it (where the prediction for such a change is "no change").

Time metrics are *self* times: a span's duration minus the time its
child spans cover, summed over the layer's entry points and averaged
over the traced passes.  Count metrics are per pass.  Entry points are
``"module:Qualified.name"``; a method target also covers every loaded
subclass that overrides the method.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["LayerMetric", "LAYERS", "PASS_SPAN", "span_targets"]

# Root span of one traced pass; its self time is the unattributed
# remainder (benchmark glue and code outside every wrapped entry point).
PASS_SPAN = "pass"


@dataclass(frozen=True)
class LayerMetric:
    name: str
    unit: str
    meaning: str
    moves: tuple[str, ...]
    exercised: str
    bypassed: str
    targets: tuple[str, ...] = ()


LAYERS: tuple[LayerMetric, ...] = (
    # -- synthesis: the victim accelerator and its CNN ------------------
    LayerMetric(
        "accel.synth_s", "s", "self time of trace synthesis",
        ("wall_ref", "setup_s"), "structure", "weights",
        ("repro.accel.simulator:AcceleratorSim.run",
         "repro.accel.simulator:AcceleratorSim.replay"),
    ),
    LayerMetric(
        "accel.events", "count", "memory events synthesized per pass",
        ("wall_ref", "setup_s"), "structure", "weights",
    ),
    LayerMetric(
        "accel.events_per_s", "1/s", "accel.events / accel.synth_s",
        ("wall_ref", "setup_s"), "structure", "weights",
    ),
    LayerMetric(
        "nn.forward_s", "s", "self time of Network.forward (all callers)",
        ("wall_ref", "setup_s"), "structure", "weights",
        ("repro.nn.graph:Network.forward",),
    ),
    # -- attacker-side decode -------------------------------------------
    LayerMetric(
        "accel.coalesce_s", "s", "self time of span re-batching",
        ("wall_ref", "peak_rss_mb"), "structure", "weights",
        ("repro.accel.sinks:CoalescingSink.emit",
         "repro.accel.sinks:CoalescingSink.flush",
         "repro.accel.sinks:CoalescingSink.close"),
    ),
    LayerMetric(
        "structure.identify_s", "s", "self time of dataflow identification",
        ("wall_ref", "peak_rss_mb"), "structure", "weights",
        ("repro.attacks.structure.dataflow_id:DataflowIdentifier.emit",
         "repro.attacks.structure.dataflow_id:DataflowIdentifier.close",
         "repro.attacks.structure.dataflow_id:DataflowIdentifier.finish"),
    ),
    LayerMetric(
        "structure.decode_s", "s", "self time of streaming trace analysis",
        ("wall_ref", "peak_rss_mb"), "structure", "weights",
        ("repro.attacks.structure.trace_analysis:StreamingTraceAnalyzer.emit",
         "repro.attacks.structure.trace_analysis:StreamingTraceAnalyzer.close",
         "repro.attacks.structure.trace_analysis:StreamingTraceAnalyzer.finish"),
    ),
    LayerMetric(
        "structure.enumerate_s", "s", "self time of the Eq. (1)-(8) search",
        ("wall_ref",), "structure", "noisy_campaign",
        ("repro.attacks.structure.pipeline:StructureSearch.count",
         "repro.attacks.structure.pipeline:StructureSearch.enumerate"),
    ),
    LayerMetric(
        "structure.candidates", "count", "candidate structures counted",
        ("wall_ref",), "structure", "noisy_campaign",
    ),
    # -- the zero-pruning query path ------------------------------------
    LayerMetric(
        "device.query_s", "s",
        "self time of DeviceSession.query_* (excludes oracle and caches)",
        ("wall_ref", "device_runs"), "weights", "structure",
        ("repro.device.session:DeviceSession.query",
         "repro.device.session:DeviceSession.query_repeat",
         "repro.device.session:DeviceSession.query_batch",
         "repro.device.session:DeviceSession.query_per_filter"),
    ),
    LayerMetric(
        "accel.oracle_s", "s", "self time of the victim's count oracle",
        ("wall_ref", "device_runs"), "weights", "structure",
        ("repro.accel.oracle:StageOracle.nnz",
         "repro.accel.oracle:StageOracle.nnz_per_filter",
         "repro.accel.oracle:StageOracle.nnz_batch"),
    ),
    LayerMetric(
        "accel.oracle_calls", "count", "outermost oracle calls per pass",
        ("wall_ref", "device_runs"), "weights", "structure",
    ),
    LayerMetric(
        "device.lookups", "count", "probe lookups (LRU/shared hit or miss)",
        ("wall_ref", "device_runs"), "weights", "structure",
    ),
    LayerMetric(
        "device.lru_hit_ratio", "ratio",
        "lookups answered by the session LRU / lookups",
        ("wall_ref", "device_runs"), "weights", "structure",
    ),
    LayerMetric(
        "device.queries", "count", "counter probes that ran the victim",
        ("wall_ref", "device_runs"), "weights", "structure",
    ),
    LayerMetric(
        "weights.search_s", "s", "self time of the weight-recovery search",
        ("wall_ref", "device_runs"), "weights", "structure",
        ("repro.attacks.weights.recovery:WeightAttack.run",
         "repro.attacks.weights.recovery:SteppedWeightAttack.run_step",
         "repro.attacks.weights.threshold_attack:ThresholdWeightAttack.run"),
    ),
    LayerMetric(
        "weights.queries_per_weight", "count",
        "device.queries / weights recovered",
        ("wall_ref", "device_runs"), "weights", "structure",
    ),
    LayerMetric(
        "nn.train_s", "s", "self time of backward passes and optimizer steps",
        ("wall_ref",), "weights", "structure",
        ("repro.nn.train:Trainer.fit",
         "repro.nn.graph:Network.backward",
         "repro.nn.optim:Optimizer.step"),
    ),
    # -- the noisy measurement channel and its estimators ---------------
    LayerMetric(
        "device.observe_s", "s",
        "self time of DeviceSession.observe_*/classify (metering, keys, "
        "replay)",
        ("wall_ref",), "noisy_campaign", "weights",
        ("repro.device.session:DeviceSession.observe_structure",
         "repro.device.session:DeviceSession.observe_power",
         "repro.device.session:DeviceSession.classify"),
    ),
    LayerMetric(
        "channel.sink_s", "s", "self time of the trace channel model",
        ("wall_ref",), "noisy_campaign", "weights",
        ("repro.channel.sink:ChannelSink.emit",
         "repro.channel.sink:ChannelSink.close"),
    ),
    LayerMetric(
        "robust.track_s", "s", "self time of the robust RAW tracker",
        ("wall_ref",), "noisy_campaign", "weights",
        ("repro.attacks.robust.boundary:RobustRawBoundaryTracker.emit",
         "repro.attacks.robust.boundary:RobustRawBoundaryTracker.close"),
    ),
    LayerMetric(
        "robust.consensus_s", "s", "self time of boundary consensus",
        ("wall_ref",), "noisy_campaign", "weights",
        ("repro.attacks.robust.boundary:consensus_boundaries",),
    ),
    LayerMetric(
        "robust.calibrate_s", "s", "self time of channel calibration",
        ("wall_ref",), "noisy_campaign", "weights",
        ("repro.attacks.robust.calibrate:calibrate_channel",),
    ),
    LayerMetric(
        "power.sink_s", "s", "self time of the power proxy",
        ("wall_ref",), "noisy_campaign", "weights",
        ("repro.power.sink:PowerSink.emit", "repro.power.sink:PowerSink.close"),
    ),
    LayerMetric(
        "power.samples", "count", "power samples observed per pass",
        ("wall_ref",), "noisy_campaign", "weights",
    ),
    LayerMetric(
        "fusion.segment_s", "s", "self time of power-trace segmentation",
        ("wall_ref",), "noisy_campaign", "weights",
        ("repro.attacks.fusion.segment:segment_power_trace",),
    ),
    # -- fleet-wide caching and the campaign store ----------------------
    LayerMetric(
        "device.fingerprint_s", "s", "self time of victim fingerprinting",
        ("wall_ref", "device_runs"), "noisy_campaign", "structure",
        ("repro.device.shared_cache:device_fingerprint",),
    ),
    LayerMetric(
        "device.shared_get_s", "s", "self time of shared-cache reads",
        ("wall_ref", "device_runs"), "noisy_campaign", "structure",
        ("repro.device.shared_cache:SharedQueryCache.get_reply",
         "repro.device.shared_cache:SharedQueryCache.get_observation",
         "repro.device.shared_cache:SharedQueryCache.get_output"),
    ),
    LayerMetric(
        "device.shared_put_s", "s", "self time of shared-cache writes",
        ("wall_ref", "device_runs"), "noisy_campaign", "structure",
        ("repro.device.shared_cache:SharedQueryCache.put_reply",
         "repro.device.shared_cache:SharedQueryCache.put_observation",
         "repro.device.shared_cache:SharedQueryCache.put_output"),
    ),
    LayerMetric(
        "device.shared_hit_ratio", "ratio",
        "shared-cache reads that hit / shared-cache reads",
        ("wall_ref", "device_runs"), "noisy_campaign", "structure",
    ),
    LayerMetric(
        "campaign.checkpoint_s", "s", "self time of checkpoint writes",
        ("wall_ref",), "noisy_campaign", "structure",
        ("repro.campaign.checkpoint:JobCheckpoint.save",),
    ),
    LayerMetric(
        "campaign.result_write_s", "s",
        "self time of result records and results.jsonl",
        ("wall_ref",), "noisy_campaign", "structure",
        ("repro.campaign.store:ResultsStore.write_result",
         "repro.campaign.store:ResultsStore.consolidate"),
    ),
    LayerMetric(
        "campaign.job_s", "s",
        "self time of job execution glue (runner build, resume, records)",
        ("wall_ref",), "noisy_campaign", "structure",
        ("repro.campaign.coordinator:_execute_job",),
    ),
    LayerMetric(
        "campaign.store_mb", "MB", "bytes the pass left on disk (2^20 B)",
        ("wall_ref",), "noisy_campaign", "structure",
    ),
    # -- attack drivers and the remainder -------------------------------
    LayerMetric(
        "attack.glue_s", "s", "self time of the top-level attack drivers",
        ("wall_ref",), "structure", "weights",
        ("repro.attacks.structure.attack:run_structure_attack",
         "repro.attacks.clone:clone_model",
         "repro.campaign.coordinator:Campaign.create",
         "repro.campaign.coordinator:Campaign.run"),
    ),
    LayerMetric(
        "trace.unattributed_s", "s",
        "pass time outside every wrapped entry point",
        ("wall_ref",), "structure", "weights",
    ),
    LayerMetric(
        "trace.pass_s", "s", "mean traced pass time (= all self times)",
        ("wall_ref",), "structure", "weights",
    ),
    LayerMetric(
        "trace.overhead_s", "s",
        "median traced pass minus median untraced pass, same process",
        ("wall_ref",), "structure", "weights",
    ),
)


def span_targets() -> dict[str, str]:
    """Entry point ``"module:Qual.name"`` -> layer metric name."""
    return {
        target: layer.name for layer in LAYERS for target in layer.targets
    }
