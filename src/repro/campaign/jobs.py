"""Campaign job kinds: one table of runner factories and metrics.

Each job kind is one row of :data:`JOB_KINDS`.  Its *factory* builds
the job's :class:`~repro.attacks.stepped.Stepped` runner — one of the
repo's checkpointable attack runners
(:class:`~repro.attacks.robust.BoundaryRecovery`,
:class:`~repro.attacks.fusion.FusedBoundaryRecovery`,
:class:`~repro.attacks.weights.SteppedWeightAttack`,
:class:`~repro.attacks.structure.StructureAttack`,
:class:`~repro.attacks.clone.CloneAttack`) behind the plain prefix steps
the kind puts in front of its plan (``truth``, ``calibrate``,
``signature``) — and returns it with the ledgers the job meters.  Its
*metrics* function distils the completed state into the job's results
record.  The coordinator drives every kind through the one step loop,
:func:`~repro.attacks.stepped.drive`.

Metrics include *in-job truth figures* (ground truth is recomputed
from the declarative victim spec inside the job — the campaign store
never has to ship arrays around), and every figure written to results
is invariant under kill-and-resume: noise streams are content- or
run-index-keyed, and the ledger figures reported (``probe_lookups``,
``observations``, ``trace_events``, ``repeat_queries``) count
*lookups*, not cache-state-dependent device charges.
"""

from __future__ import annotations

import hashlib
from collections.abc import Callable
from dataclasses import asdict
from typing import NamedTuple

import numpy as np

from repro.attacks.fusion import FusedBoundaryRecovery
from repro.attacks.robust import (
    BoundaryRecovery,
    VotingChannel,
    boundary_cycles_from_trace,
    boundary_f1,
    calibrate_channel,
)
from repro.attacks.stepped import Stepped, SubPlan
from repro.attacks.structure import (
    PracticalityRules,
    StructureAttack,
    find_layer_boundaries,
    find_layer_boundaries_dataflow,
    identify_dataflow,
)
from repro.attacks.weights import AttackTarget, SteppedWeightAttack
from repro.campaign.victims import (
    VictimMemo,
    build_device,
    build_victim,
    job_session,
)
from repro.channel import ChannelModel
from repro.device import DeviceSession, QueryLedger, SharedQueryCache
from repro.errors import ConfigError
from repro.nn.stages import StagedNetwork
from repro.power import PowerModel

__all__ = ["JOB_KINDS", "JobKind", "JobRunner", "build_runner", "ledger_totals"]


def _digest(arr: np.ndarray) -> str:
    """Content digest of a result tensor, for cross-job comparisons."""
    data = np.ascontiguousarray(arr)
    return hashlib.sha256(
        repr((data.shape, str(data.dtype))).encode() + data.tobytes()
    ).hexdigest()[:16]


def ledger_totals(ledgers: list[QueryLedger]) -> dict:
    """The deterministic ledger figures a results record may carry."""
    return {
        "probe_lookups": sum(led.probe_lookups for led in ledgers),
        "observations": sum(led.observations for led in ledgers),
        "trace_events": sum(led.trace_events for led in ledgers),
        "repeat_queries": sum(led.repeat_queries for led in ledgers),
        "power_samples": sum(led.power_samples for led in ledgers),
    }


class JobRunner(Stepped):
    """An attack runner behind plain ``state -> state`` prefix steps.

    ``bind(state)``, when given, runs before every runner step and
    before :meth:`result`: it rebuilds what the runner needs from the
    products of a prefix step, which a resume may have skipped.
    ``victim`` is the network the job attacks, for metrics that score
    against it.
    """

    def __init__(
        self,
        params: dict,
        runner: Stepped,
        prefix: dict[str, Callable[[dict], dict]] | None = None,
        bind: Callable[[dict], None] | None = None,
        victim: StagedNetwork | None = None,
    ) -> None:
        self.params = params
        self.runner = runner
        self.prefix = dict(prefix or {})
        self.bind = bind or (lambda state: None)
        self.victim = victim

    def steps(self) -> list[str]:
        return [*self.prefix, *self.runner.steps()]

    def run_step(self, name: str, state: dict | None = None) -> dict:
        state = self._begin_step(name, state)
        if name in self.prefix:
            return self.prefix[name](state)
        self.bind(state)
        return self.runner.run_step(name, state)

    def result(self, state: dict):
        self.bind(state)
        return self.runner.result(state)


class JobKind(NamedTuple):
    factory: Callable[..., tuple[JobRunner, list[QueryLedger]]]
    metrics: Callable[[JobRunner, dict], dict]


# -- boundary_recovery / power_fusion ---------------------------------------

def _device_dataflow(params: dict) -> str:
    return str(
        dict(params.get("device") or {}).get("dataflow", "output-stationary")
    )


def _estimator_dataflow(params: dict) -> str:
    """The device's own dataflow, unless the spec pins a different
    (mismatched-estimator) one."""
    return str(params.get("dataflow", _device_dataflow(params)))


def _truth_step(
    params: dict, session: DeviceSession, shared_cache
) -> Callable[[dict], dict]:
    """Prefix step: clean-channel boundary cycles, scored against later.

    The truth observation is part of the job's metered activity: same
    device (and fingerprint), ideal channel, one shared ledger.
    """
    truth_session = DeviceSession(
        session.device,
        params.get("stage"),
        channel=ChannelModel.ideal(),
        ledger=session.ledger,
        shared_cache=shared_cache,
        fingerprint=session.fingerprint,
    )

    def truth(state: dict) -> dict:
        obs = truth_session.observe_structure(seed=0)
        state["truth"] = [
            int(c) for c in boundary_cycles_from_trace(obs.trace)
        ]
        return state

    return truth


def _boundary_recovery(params, shared_cache, budgets, victims):
    """Consensus boundary recovery against its own clean-trace truth."""
    session = job_session(
        params, victims=victims, shared_cache=shared_cache, **budgets
    )
    truth = _truth_step(params, session, shared_cache)
    recovery = BoundaryRecovery(
        session,
        int(params.get("runs", 3)),
        compare_naive=bool(params.get("compare_naive", False)),
        dataflow=_estimator_dataflow(params),
    )
    return JobRunner(params, recovery, {"truth": truth}), [session.ledger]


def _power_fusion(params, shared_cache, budgets, victims):
    """Memory-only (``mode="memory"``) vs fused boundary recovery.

    Each run costs one inference either way, so cells with equal
    ``runs`` are at a matched observation budget by construction.  An
    optional ``calibrate`` step spends ``calibrate_runs`` metered power
    probes whose noise estimate and recommended fusion budget land in
    the metrics — the attacker-side basis for choosing ``runs``.
    """
    session = job_session(
        params, victims=victims, shared_cache=shared_cache, **budgets
    )
    truth = _truth_step(params, session, shared_cache)
    mode = str(params.get("mode", "fused"))
    if mode not in ("memory", "fused"):
        raise ConfigError(f"unknown power_fusion mode {mode!r}")
    runs = int(params.get("runs", 1))
    dataflow = _estimator_dataflow(params)
    if mode == "memory":
        recovery = BoundaryRecovery(session, runs, dataflow=dataflow)
    else:
        power = dict(params.get("power") or {})
        recovery = FusedBoundaryRecovery(
            session,
            runs,
            dataflow=dataflow,
            power=PowerModel(**{k: int(v) for k, v in power.items()}),
            augment_unmatched=bool(params.get("augment_unmatched", False)),
        )
    prefix = {"truth": truth}
    calibrate_runs = int(params.get("calibrate_runs", 0))
    if calibrate_runs:

        def calibrate(state: dict) -> dict:
            cal = calibrate_channel(session, power_runs=calibrate_runs)
            state["calibration"] = {
                "power_sigma": cal.power_sigma,
                "power_quantum": cal.power_quantum,
                "power_plateau": cal.power_plateau,
                "power_informative": cal.power_informative,
                "recommended_fusion_runs": cal.recommended_fusion_runs,
            }
            return state

        prefix["calibrate"] = calibrate
    return JobRunner(params, recovery, prefix), [session.ledger]


def _boundary_scores(job: JobRunner, state: dict):
    """A boundary job's result, truth cycles, F1 tolerance and the
    figures both boundary kinds report."""
    result = job.result(state)
    truth = [int(c) for c in state["truth"]]
    window = job.runner.session.channel.latency_window
    return result, truth, window + 50, {
        "boundaries": [int(b) for b in result.boundaries],
        "truth_boundaries": len(truth),
        "found_boundaries": len(result.boundaries),
        "exact": result.boundaries == truth,
        "latency_window": int(window),
        "quorum": int(result.quorum),
    }


def _boundary_metrics(job: JobRunner, state: dict) -> dict:
    result, truth, tol, out = _boundary_scores(job, state)
    naive = [boundary_f1(n, truth, tol=tol).f1 for n in result.naive_runs]
    gaps = np.diff(truth) if len(truth) > 1 else np.array([0])
    out["robust_f1"] = float(boundary_f1(result.boundaries, truth, tol=tol).f1)
    out["naive_f1_mean"] = float(np.mean(naive)) if naive else None
    out["min_truth_gap"] = int(np.min(gaps))
    return out


def _power_fusion_metrics(job: JobRunner, state: dict) -> dict:
    result, truth, tol, out = _boundary_scores(job, state)
    out["mode"] = str(job.params.get("mode", "fused"))
    out["runs"] = int(job.runner.runs)
    out["f1"] = float(boundary_f1(result.boundaries, truth, tol=tol).f1)
    out["power_samples"] = int(job.runner.session.ledger.power_samples)
    if "calibration" in state:
        out["calibration"] = dict(state["calibration"])
    return out


# -- weight_recovery ---------------------------------------------------------

def _weight_recovery(params, shared_cache, budgets, victims):
    """Per-filter ``w/b`` recovery, scored against the spec's truth.

    ``mode="naive"`` reads the (possibly noisy) counter once per probe;
    ``mode="voted"`` first calibrates the channel, then queries through
    repeat-and-vote at the calibrated sigma.
    """
    conv = dict(params["victim"].get("conv") or {})
    if not conv:
        raise ConfigError("weight_recovery needs a 'conv' victim spec")
    session = job_session(
        params, victims=victims, shared_cache=shared_cache, **budgets
    )
    victim = session.device.staged
    mode = str(params.get("mode", "naive"))
    if mode not in ("naive", "voted"):
        raise ConfigError(f"unknown weight_recovery mode {mode!r}")
    attack = SteppedWeightAttack(
        session,
        AttackTarget(
            w_ifm=int(conv["w"]),
            d_ifm=int(conv.get("c", 1)),
            d_ofm=int(conv.get("d", 3)),
            f_conv=int(conv.get("f", 3)),
            s_conv=int(conv.get("s", 1)),
        ),
        search_steps=int(params.get("search_steps", 28)),
        filters_per_step=int(params.get("filters_per_step", 8)),
    )
    if mode == "naive":
        return JobRunner(params, attack, victim=victim), [session.ledger]

    def calibrate(state: dict) -> dict:
        cal = calibrate_channel(
            session, repeats=int(params.get("calibrate_repeats", 32))
        )
        state["calibrated_sigma"] = float(cal.counter_sigma)
        return state

    def vote(state: dict) -> None:
        if attack.channel is not session:
            return
        sigma = state.get("calibrated_sigma")
        if sigma is None:
            raise ConfigError("voted mode needs the calibrate step first")
        attack.channel = VotingChannel(session, sigma=float(sigma))

    return (
        JobRunner(params, attack, {"calibrate": calibrate}, vote, victim),
        [session.ledger],
    )


def _weight_metrics(job: JobRunner, state: dict) -> dict:
    result = job.result(state)
    channel = job.runner.channel
    conv = job.victim.network.nodes["conv1/conv"].layer
    return {
        "mode": str(job.params.get("mode", "naive")),
        "max_ratio_error": float(
            result.max_ratio_error(conv.weight.value, conv.bias.value)
        ),
        "ratio_digest": _digest(result.ratio_tensor()),
        "resolved_fraction": float(result.resolved_mask().mean()),
        "calibrated_sigma": state.get("calibrated_sigma"),
        "repeats": (
            channel.fixed_repeats
            if isinstance(channel, VotingChannel)
            else 1
        ),
        "repeat_queries": int(channel.ledger.repeat_queries),
    }


# -- structure ---------------------------------------------------------------

def _signature(params: dict, victim: StagedNetwork, state: dict) -> dict:
    """Prefix step: device ground truth — stage windows and the batch
    dataflow identifier on a raw clean trace (the bench-side oracle of
    the dataflow ablation).

    Not an attack measurement, so it runs on its own raw simulator,
    outside the metered session.
    """
    sim = build_device(victim, params.get("device"))
    res = sim.run(np.zeros((1, *victim.network.input_shape)))
    mem = sim.config.memory
    sig = identify_dataflow(
        res.trace,
        victim.network.input_shape,
        mem.element_bytes,
        mem.block_bytes,
    )
    counts = [w.num_reads + w.num_writes for w in res.windows]
    truth_idx = [0] + list(np.cumsum(counts[:-1]))
    if _device_dataflow(params) == "output-stationary":
        bounds = find_layer_boundaries(res.trace.addresses, res.trace.is_write)
    else:
        bounds = find_layer_boundaries_dataflow(
            res.trace.addresses, res.trace.is_write, mem.block_bytes
        )
    state["signature"] = {
        "identified": sig.dataflow,
        "boundary_f1": float(boundary_f1(bounds, truth_idx, tol=0).f1),
        "found_boundaries": len(bounds),
        "stages": len(res.windows),
    }
    return state


def _structure(params, shared_cache, budgets, victims):
    """Full identify-then-enumerate structure attack with in-job truth."""
    session = job_session(
        params, victims=victims, shared_cache=shared_cache, **budgets
    )
    victim = session.device.staged
    attack = StructureAttack(
        session,
        tolerance=float(params.get("tolerance", 0.25)),
        rules=PracticalityRules(
            exact_pool_division=bool(params.get("exact_pool_division", True))
        ),
        runs=int(params.get("runs", 1)),
        dataflow=str(params.get("attack_dataflow", "auto")),
    )
    prefix = (
        {"signature": lambda state: _signature(params, victim, state)}
        if params.get("signature", True)
        else {}
    )
    return (
        JobRunner(params, SubPlan("attack", attack), prefix, victim=victim),
        [session.ledger],
    )


def _structure_metrics(job: JobRunner, state: dict) -> dict:
    result = job.result(state)
    victim = job.victim
    truth = [
        g.canonical() for g in victim.geometries() if hasattr(g, "canonical")
    ]
    found = any(
        [
            layer.geometry.canonical()
            for layer in cand.layers
            if hasattr(layer.geometry, "canonical")
        ]
        == truth
        for cand in result.candidates
    )
    out = {
        "dataflow": _device_dataflow(job.params),
        "attack_identified": result.dataflow,
        "candidates": int(result.count),
        "num_layers": int(result.num_layers),
        "expected_layers": len(victim.stages),
        "truth_found": found,
    }
    if "signature" in state:
        out["signature"] = dict(state["signature"])
    return out


# -- clone -------------------------------------------------------------------

def _clone_dataset(params: dict):
    """The deterministic synthetic probe/evaluation images."""
    from repro.data import make_dataset

    spec = dict(params.get("dataset", {}))
    return make_dataset(
        num_classes=int(spec.get("num_classes", 10)),
        image_size=int(spec.get("image_size", 14)),
        channels=int(spec.get("channels", 1)),
        train_per_class=int(spec.get("train_per_class", 4)),
        val_per_class=int(spec.get("val_per_class", 2)),
        seed=int(spec.get("seed", 3)),
    )


def _clone(params, shared_cache, budgets, victims):
    """End-to-end duplication: the paper's stated objective as a job.

    The weight phase tunes the victim's activation threshold, device
    state no other job may see, so the victim is built here rather than
    taken from ``victims``.
    """
    from repro.attacks.clone import CloneAttack

    victim = build_victim(dict(params["victim"]))
    dense, pruned = (
        DeviceSession(
            build_device(victim, {"pruning": pruning}),
            shared_cache=shared_cache,
            **budgets,
        )
        for pruning in (False, True)
    )
    attack = CloneAttack(
        dense,
        pruned,
        _clone_dataset(params).train_images,
        distill_epochs=int(params.get("distill_epochs", 10)),
        seed=int(params.get("seed", 0)),
    )
    return JobRunner(params, attack), [dense.ledger, pruned.ledger]


def _clone_metrics(job: JobRunner, state: dict) -> dict:
    from repro.attacks.clone import prediction_agreement

    result = job.result(state)
    # The victim the devices run, as the weight phase left it.
    victim = job.runner.dense.device.staged
    dataset = _clone_dataset(job.params)
    return {
        "geometry": asdict(result.geometry),
        "structure_candidates": int(result.structure_candidates),
        "weights_resolved_fraction": float(result.weights_resolved_fraction),
        "labeling_queries": int(result.labeling_queries),
        "train_agreement": prediction_agreement(
            victim, result.network, dataset.train_images
        ),
        "val_agreement": prediction_agreement(
            victim, result.network, dataset.val_images
        ),
    }


JOB_KINDS: dict[str, JobKind] = {
    "boundary_recovery": JobKind(_boundary_recovery, _boundary_metrics),
    "power_fusion": JobKind(_power_fusion, _power_fusion_metrics),
    "weight_recovery": JobKind(_weight_recovery, _weight_metrics),
    "structure": JobKind(_structure, _structure_metrics),
    "clone": JobKind(_clone, _clone_metrics),
}


def build_runner(
    kind: str,
    params: dict,
    *,
    shared_cache: SharedQueryCache | None = None,
    budgets: dict | None = None,
    victims: VictimMemo | None = None,
) -> tuple[JobRunner, list[QueryLedger]]:
    """The stepwise runner for one job and the ledgers it meters.

    ``victims`` is the run's victim memo (a fresh one when absent).
    """
    try:
        factory = JOB_KINDS[kind].factory
    except KeyError:
        raise ConfigError(
            f"unknown job kind {kind!r}; choose from {sorted(JOB_KINDS)}"
        ) from None
    return factory(
        dict(params), shared_cache, dict(budgets or {}), victims or VictimMemo()
    )
