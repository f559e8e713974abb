"""Attacker-side channel calibration from repeated measurements.

Before spending the query budget on the actual attack, an attacker can
spend a small fixed budget estimating *how noisy the channel is* and
size the voting/consensus machinery from the estimate instead of
guessing.  Everything here uses only the sanctioned session surface:

* **counter noise** — re-measure a handful of fixed probe inputs
  ``repeats`` times each via
  :meth:`~repro.device.DeviceSession.query_repeat`.  The device is
  deterministic, so any spread across rows is channel noise: the
  sample standard deviation estimates ``counter_sigma`` and the GCD of
  count differences exposes ``counter_quantum`` (a quantised read-out
  makes counts move in multiples of the quantum).  Several probe
  values are used and the largest spread kept, because the counter is
  clipped at zero: a probe whose true count is 0 sees only the
  positive half of the noise and understates sigma by ~40%.
* **power noise** — repeat :meth:`observe_power` on one fixed input
  and compare the traces bin by bin.  The clean proxy is
  deterministic, so per-bin spread across runs is probe read-out
  noise: the pooled residual std over *active* bins estimates
  ``power_sigma`` (quiet bins are clipped at zero and would understate
  it, same clip caveat as the counter) and the GCD of cross-run
  deviations exposes ``power_quantum``.  The active-bin plateau level
  is reported alongside because sigma alone says nothing — what the
  fused estimator needs is the *ratio*: power segmentation is
  trustworthy (and one fused run replaces the multi-run memory
  consensus) only while sigma stays a small fraction of the plateau.

The estimated sigma feeds :func:`~repro.attacks.robust.vote.required_repeats`
to produce ``recommended_repeats``; sigma estimates are biased low when
the quantum exceeds the noise scale (quantisation swallows sub-quantum
spread), which is conservative for the attack only if the quantum is
also honoured — hence both are reported.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.attacks.robust.vote import required_repeats
from repro.device import DeviceSession
from repro.errors import ConfigError

__all__ = ["ChannelCalibration", "calibrate_channel"]


@dataclass(frozen=True)
class ChannelCalibration:
    """What the attacker learned about the measurement channel.

    Attributes:
        counter_sigma: estimated std-dev of the nnz counter read-out
            (None when the counter channel was not probed).
        counter_quantum: estimated counter granularity — observed
            counts move in multiples of it (None when not probed;
            1 when no quantisation was observed).
        power_sigma: estimated std-dev of the power-proxy read-out on
            active bins (None when the power channel was not probed).
        power_quantum: estimated power read-out granularity (None when
            not probed; 1 when no quantisation was observed).
        power_plateau: median active-bin level of the probed trace —
            the scale ``power_sigma`` must be compared against.
        counter_repeats: measurements spent probing the counter.
        power_runs: observation runs spent probing the power channel.
        recommended_repeats: voting repeats sized for the estimated
            sigma at the default per-decision confidence (1 when the
            counter looks clean or was not probed).
    """

    counter_sigma: float | None = None
    counter_quantum: int | None = None
    power_sigma: float | None = None
    power_quantum: int | None = None
    power_plateau: float | None = None
    counter_repeats: int = 0
    power_runs: int = 0

    @property
    def recommended_repeats(self) -> int:
        if self.counter_sigma is None or self.counter_sigma <= 0.0:
            return 1
        return required_repeats(self.counter_sigma)

    @property
    def power_informative(self) -> bool:
        """Whether power segmentation can be trusted at this SNR.

        The active/quiet threshold sits at a quarter of the plateau
        (see :func:`repro.attacks.fusion.segment.power_threshold`), so
        the mask stays clean while sigma is at most ~an eighth of the
        plateau — beyond that, noise crosses the threshold bin by bin
        and the segmentation shatters.
        """
        return (
            self.power_sigma is not None
            and self.power_plateau is not None
            and self.power_sigma <= self.power_plateau / 8.0
        )

    @property
    def recommended_fusion_runs(self) -> int:
        """Observation runs the fused estimator should budget.

        One run suffices when the power channel is informative (the
        power veto substitutes for cross-run consensus); otherwise
        fall back to the memory-only consensus default of 3 runs.
        """
        return 1 if self.power_informative else 3

    def describe(self) -> str:
        parts = []
        if self.counter_sigma is not None:
            parts.append(
                f"counter sigma~{self.counter_sigma:.3f} "
                f"quantum~{self.counter_quantum} "
                f"({self.counter_repeats} reads, "
                f"recommend {self.recommended_repeats} repeats)"
            )
        if self.power_sigma is not None:
            parts.append(
                f"power sigma~{self.power_sigma:.3f} "
                f"quantum~{self.power_quantum} "
                f"plateau~{self.power_plateau:.0f} "
                f"({self.power_runs} runs, fusion "
                f"{'informative' if self.power_informative else 'degraded'}: "
                f"recommend {self.recommended_fusion_runs} run(s))"
            )
        return "; ".join(parts) if parts else "channel not probed"


def _estimate_quantum(stack: np.ndarray) -> int:
    """GCD of observed count deviations: the counter's step size."""
    deltas = np.abs(stack - stack[0:1]).ravel()
    g = 0
    for d in np.unique(deltas[deltas > 0]).tolist():
        g = math.gcd(g, int(d))
    return g if g > 0 else 1


def calibrate_channel(
    session: DeviceSession,
    repeats: int = 32,
    power_runs: int = 0,
) -> ChannelCalibration:
    """Probe the channel with null measurements; see module docstring.

    Args:
        session: the device session under calibration.  The counter is
            probed when the device leaks the zero-pruning channel
            (``session.pruning_enabled``).
        repeats: counter reads of the null input (>= 2 to estimate a
            spread).
        power_runs: power observation runs (0 skips the power probe;
            >= 2 to estimate a spread).  The power probe has no
            dense-write precondition — it listens to the rail, not
            the bus.

    All probes are charged to the session ledger like any other query.
    """
    if repeats < 2:
        raise ConfigError(f"repeats must be >= 2, got {repeats}")
    if power_runs == 1:
        raise ConfigError("power_runs must be 0 or >= 2 to estimate a spread")
    if power_runs < 0:
        raise ConfigError(f"power_runs must be >= 0, got {power_runs}")

    counter_sigma: float | None = None
    counter_quantum: int | None = None
    counter_reads = 0
    if session.pruning_enabled:
        lo, hi = session.input_range
        # Spread probes over the input domain so at least one lands on
        # a count far from the zero clip (see module docstring).
        sigmas, quanta = [], []
        for value in (0.0, hi / 16.0, hi / 2.0, lo / 2.0):
            stack = session.query_repeat([(0, 0, 0)], [value], repeats)
            counter_reads += repeats
            sigmas.append(float(stack.std(axis=0, ddof=1).max()))
            quanta.append(_estimate_quantum(stack))
        counter_sigma = max(sigmas)
        counter_quantum = max(quanta)

    power_sigma: float | None = None
    power_quantum: int | None = None
    power_plateau: float | None = None
    power_probes = 0
    if power_runs > 0:
        stack = np.stack(
            [
                np.asarray(session.observe_power(seed=0).samples)
                for _ in range(power_runs)
            ]
        )
        power_probes = power_runs
        mean = stack.mean(axis=0)
        # Restrict to plateau bins: quiet bins are clipped at zero
        # (one-sided noise) and would bias sigma low.
        bar = max(1.0, float(np.quantile(mean, 0.75)) / 4.0)
        active = mean > bar
        if active.any():
            resid = stack[:, active] - mean[active]
            # Pooled residual variance; each active bin's mean eats one
            # degree of freedom.
            dof = max(1, resid.size - int(active.sum()))
            power_sigma = float(np.sqrt(np.sum(resid**2) / dof))
            power_quantum = _estimate_quantum(stack[:, active])
            power_plateau = float(np.median(mean[active]))

    return ChannelCalibration(
        counter_sigma=counter_sigma,
        counter_quantum=counter_quantum,
        power_sigma=power_sigma,
        power_quantum=power_quantum,
        power_plateau=power_plateau,
        counter_repeats=counter_reads,
        power_runs=power_probes,
    )

