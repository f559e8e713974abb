"""Exact weight recovery via a tunable pruning threshold.

The paper's Section 4 closing observation: ratio recovery leaves one
unknown (the bias) per filter, but accelerators with a *tunable*
threshold activation (Minerva/Cnvlutin style, refs [1, 12]) leak it too:

* With an all-zero input every output equals ``b``; sweeping the
  threshold, a positive-bias filter's non-zero count collapses exactly
  at ``t = b`` (the paper's own suggestion).
* More generally, a threshold-``t`` rectifier turns every cell into
  ``w*x + (b - t) > 0`` — structurally identical to a ReLU cell with an
  *effective bias* ``b - t``.  Running the ratio attack at two
  thresholds therefore yields ``rho_i = w/(b - t_i)``, and

  ::

      w = (t2 - t1) / (1/rho_1 - 1/rho_2),     b = t1 + w / rho_1

  recovers every weight and the bias exactly — for any bias sign, and
  even for pooled positive-bias filters that saturate the plain channel
  (a large enough threshold always de-saturates them).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import AttackError
from repro.device import DeviceSession
from repro.attacks.weights.recovery import WeightAttack, WeightStatus
from repro.attacks.weights.target import AttackTarget

__all__ = ["ThresholdAttackResult", "ThresholdWeightAttack", "recover_positive_biases"]


# Upper end of the bias bisection and its depth.
_T_MAX = 1e6
_BIAS_STEPS = 64


def recover_positive_biases(channel: DeviceSession) -> np.ndarray:
    """Per-filter bias via the zero-input threshold sweep.

    Bisects each positive bias over ``[0, 1e6]`` in 64 steps.  Returns
    the recovered bias for filters with ``b > 0`` and ``nan`` for the
    rest (their zero-input count is zero at every threshold).
    """
    channel.set_threshold(0.0)
    base = np.asarray(channel.query([(0, 0, 0)], [0.0]))
    positive = base > 0
    biases = np.full(len(base), np.nan)
    if not positive.any():
        channel.set_threshold(0.0)
        return biases
    lo = np.zeros(len(base))
    hi = np.full(len(base), _T_MAX)
    for _ in range(_BIAS_STEPS):
        mid = 0.5 * (lo + hi)
        # Evaluate each filter at its own midpoint: one device run per
        # distinct threshold, shared by the filters at that midpoint
        # because counts are per plane.
        counts = np.empty(len(base))
        for t in np.unique(mid[positive]):
            channel.set_threshold(float(t))
            c = np.asarray(channel.query([(0, 0, 0)], [0.0]))
            sel = positive & (mid == t)
            counts[sel] = c[sel]
        alive = counts > 0
        lo = np.where(positive & alive, mid, lo)
        hi = np.where(positive & ~alive, mid, hi)
    biases[positive] = 0.5 * (lo + hi)[positive]
    channel.set_threshold(0.0)
    return biases


@dataclass
class ThresholdAttackResult:
    """Exact recovered parameters of the attacked layer."""

    weights: np.ndarray  # (d_ofm, d_ifm, f, f)
    biases: np.ndarray  # (d_ofm,)
    resolved: np.ndarray  # bool mask, same shape as weights
    queries: int

    def max_weight_error(self, true_weights: np.ndarray) -> float:
        if not self.resolved.any():
            raise AttackError("no weights resolved")
        return float(np.abs(self.weights - true_weights)[self.resolved].max())

    def max_bias_error(self, true_biases: np.ndarray) -> float:
        return float(np.abs(self.biases - true_biases).max())


class ThresholdWeightAttack:
    """Run the ratio attack at two thresholds and solve for exact values.

    Args:
        channel: a :class:`~repro.device.DeviceSession` on a device with
            a tunable threshold rectifier.
        target: structural knowledge of the attacked stage.
        t1, t2: the two thresholds.  They must de-saturate the channel
            (for pooled positive-bias filters: exceed the bias); use
            :func:`recover_positive_biases` first when unsure, or pass
            generous values — any pair strictly above ``max(b, 0)``
            works.
    """

    def __init__(
        self,
        channel: DeviceSession,
        target: AttackTarget,
        t1: float = 1.0,
        t2: float = 3.0,
    ):
        if t1 < 0 or t2 < 0 or t1 == t2:
            raise AttackError(f"need two distinct non-negative thresholds, got {t1}, {t2}")
        self.channel = channel
        self.target = target
        self.t1 = t1
        self.t2 = t2

    def _ratios_at(self, t: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        self.channel.set_threshold(t)
        result = WeightAttack(self.channel, self.target).run()
        status = result.status_tensor()
        recovered = status == WeightStatus.RECOVERED
        zero = status == WeightStatus.ZERO
        return result.ratio_tensor(), recovered, zero

    def run(self) -> ThresholdAttackResult:
        try:
            rho1, ok1, zero1 = self._ratios_at(self.t1)
            rho2, ok2, zero2 = self._ratios_at(self.t2)
        finally:
            self.channel.set_threshold(0.0)
        # Weights resolved at BOTH thresholds pin the bias:
        #   rho_i = w / (b - t_i)  =>  w = (t2-t1)/(1/rho1 - 1/rho2).
        pair = ok1 & ok2 & (rho1 != 0.0) & (rho2 != 0.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            w_pair = (self.t2 - self.t1) / (1.0 / rho1 - 1.0 / rho2)
        # Bias per filter: median over its pair-resolved weights (all of
        # them imply the same bias in exact arithmetic — footnote 2 of
        # the paper: one bias per filter).
        d_ofm = rho1.shape[0]
        biases = np.full(d_ofm, np.nan)
        for f in range(d_ofm):
            mask = pair[f]
            if not mask.any():
                continue
            b_est = self.t1 + w_pair[f][mask] / rho1[f][mask]
            biases[f] = float(np.median(b_est))
        # With the bias known, EVERY weight observed at t1 follows from
        # its single ratio — including weights whose t2-ratio fell
        # outside the searchable input range.
        bias_known = ~np.isnan(biases)
        eff = (biases - self.t1)[:, None, None, None]
        weights = np.where(ok1 & bias_known[:, None, None, None], rho1 * eff, 0.0)
        zeros = zero1 & zero2
        weights[zeros] = 0.0
        resolved = (ok1 | zeros) & bias_known[:, None, None, None]
        return ThresholdAttackResult(
            weights=weights,
            biases=biases,
            resolved=resolved,
            queries=self.channel.queries,
        )
