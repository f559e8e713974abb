"""Repeat-and-vote querying for the weight attack under counter noise.

Algorithm 2's binary search compares a measured nnz count against a
modelled one; a single noisy read with sigma around 1 flips that
comparison more than half the time (``P(|N(0,1)| > 0.5) ≈ 0.62``), so
the naive attack collapses under even mild counter noise — the effect
the channel ablation bench quantifies.  CSI NN's answer (Batina et
al.) is brute statistical: measure each point many times and vote.

:class:`VotingChannel` wraps a :class:`~repro.device.DeviceSession`
and re-measures every channel query ``repeats`` times through the
session's repetition index (fresh content-keyed noise per repeat),
returning the consensus count — the per-element vote winner: the
median (the default — counter read-outs are clipped at zero, and the
median is immune to the clip bias that shifts the mean of
near-zero counts upward) or the rounded mean (slightly tighter for
counts far from the clip).  The consensus count is correct
whenever the averaged noise stays below half a count, so the error
probability per decision is ``P(|N(0, σ/√R)| > 1/2)`` — driving the
repeat budget ``R`` from a target per-decision confidence is what
:func:`required_repeats` does, and what an adaptive wrapper tunes
per query from the measured spread when no calibrated sigma is given.

Every extra measurement is charged to the session's
:class:`~repro.device.QueryLedger` as a normal channel query *and*
recorded under ``repeat_queries``, so attack-cost reports separate
noise overhead from intrinsic query complexity.

Because repeats ride the session's content-keyed noise, the wrapper
preserves the parallel-determinism contract: a forked
:class:`VotingChannel` (one per weight-attack shard) observes the same
measurement values the serial run would, so recovered ratios are
bit-identical at any worker count — noise or no noise.
"""

from __future__ import annotations

import math
from statistics import NormalDist

import numpy as np

from repro.device import DeviceSession, one_pattern_per_row
from repro.errors import ConfigError

__all__ = ["VotingChannel", "required_repeats", "vote_confidence"]

# Default per-decision confidence: a full AlexNet CONV1 recovery makes
# ~10^5 noisy comparisons, so 1 - 1e-7 keeps the whole attack's
# failure probability around a percent.
_DEFAULT_CONFIDENCE = 1.0 - 1e-7


# Asymptotic variance inflation of the sample median relative to the
# mean for Gaussian noise: the median needs pi/2 times the repeats for
# the same per-decision confidence.
_STAT_EFFICIENCY = {"mean": 1.0, "median": math.pi / 2.0}


def required_repeats(
    sigma: float,
    confidence: float = _DEFAULT_CONFIDENCE,
    delta: float = 1.0,
    statistic: str = "median",
) -> int:
    """Measurements needed to resolve a count step of ``delta``.

    The consensus errs when the estimator's deviation exceeds
    ``delta/2``; requiring that with probability ``confidence`` gives
    ``R >= eff * (2 z sigma / delta)^2`` with ``z`` the two-sided
    normal quantile of ``confidence`` and ``eff`` the statistic's
    variance inflation (1 for the mean, pi/2 for the median).
    """
    if sigma <= 0.0:
        return 1
    if not 0.0 < confidence < 1.0:
        raise ConfigError(f"confidence must be in (0, 1), got {confidence}")
    eff = _STAT_EFFICIENCY[statistic]
    z = NormalDist().inv_cdf(0.5 + confidence / 2.0)
    return max(1, math.ceil(eff * (2.0 * z * sigma / delta) ** 2))


def vote_confidence(
    repeats: int,
    sigma: float,
    delta: float = 1.0,
    statistic: str = "median",
) -> float:
    """Per-decision confidence of an ``repeats``-read consensus."""
    if sigma <= 0.0:
        return 1.0
    eff = _STAT_EFFICIENCY[statistic]
    return math.erf(
        delta * math.sqrt(repeats / eff) / (2.0 * sigma * math.sqrt(2.0))
    )


class VotingChannel:
    """A session wrapper measuring every query by repeated vote.

    Exposes the session's channel surface (``query``, ``query_batch``,
    ``query_per_filter``, ``fork`` and the public device facts), so it
    drops into :class:`~repro.attacks.weights.WeightAttack` — or any
    consumer of the session surface — unchanged.

    Args:
        session: the underlying (noisy) device session.
        repeats: base measurements per query (the floor of the budget).
        sigma: calibrated counter sigma; when given, the repeat count
            is fixed at ``max(repeats, required_repeats(sigma))`` and
            no per-query adaptation happens — deterministic cost, the
            mode :func:`~repro.attacks.robust.calibrate_channel` feeds.
        confidence: target per-decision confidence.
        max_repeats: adaptive-mode budget cap per query (default
            ``8 * repeats``); a calibrated sigma is trusted, so fixed
            mode is not capped by it.
        statistic: ``"median"`` (clip-robust, the default) or
            ``"mean"`` (rounded mean).
    """

    def __init__(
        self,
        session: DeviceSession,
        repeats: int = 9,
        *,
        sigma: float | None = None,
        confidence: float = _DEFAULT_CONFIDENCE,
        max_repeats: int | None = None,
        statistic: str = "median",
    ) -> None:
        if repeats < 1:
            raise ConfigError(f"repeats must be >= 1, got {repeats}")
        if statistic not in ("mean", "median"):
            raise ConfigError(
                f"statistic must be 'mean' or 'median', got {statistic!r}"
            )
        self._session = session
        self.repeats = int(repeats)
        self.sigma = sigma
        self.confidence = confidence
        self.max_repeats = (
            int(max_repeats) if max_repeats is not None else 8 * self.repeats
        )
        if self.max_repeats < self.repeats:
            raise ConfigError("max_repeats must be >= repeats")
        self.statistic = statistic
        if sigma is not None:
            # A calibrated clean channel needs no repetition at all —
            # the wrapper degrades to the exact single-shot attack.
            self._fixed = (
                1
                if sigma <= 0.0
                else max(
                    self.repeats,
                    required_repeats(sigma, confidence, statistic=statistic),
                )
            )
        else:
            self._fixed = None
        # Introspection: rounds taken, escalations, last vote quality.
        self.measurements = 0
        self.escalations = 0
        self.last_repeats = 0
        self.last_confidence = 1.0

    # -- the vote ----------------------------------------------------------
    def _consensus(self, stack: np.ndarray) -> np.ndarray:
        if self.statistic == "median":
            return np.rint(np.median(stack, axis=0)).astype(np.int64)
        return np.rint(stack.mean(axis=0)).astype(np.int64)

    def _measure(self, take) -> np.ndarray:
        """Repeat ``take(rep)`` to the configured confidence and vote."""
        n0 = self._fixed if self._fixed is not None else self.repeats
        rows = [take(r) for r in range(n0)]
        if self._fixed is None and self.max_repeats > len(rows):
            # Adaptive budget: estimate the spread from the measured
            # rows and escalate until the consensus is confident (or
            # the cap is hit).  The estimate is a deterministic
            # function of content-keyed measurements, so serial and
            # sharded runs escalate identically.
            while True:
                sigma_hat = float(
                    np.asarray(rows).std(axis=0, ddof=1).max()
                ) if len(rows) > 1 else 0.0
                need = required_repeats(
                    sigma_hat, self.confidence, statistic=self.statistic
                )
                target = min(self.max_repeats, need)
                if target <= len(rows):
                    break
                self.escalations += 1
                rows.extend(take(r) for r in range(len(rows), target))
        stack = np.asarray(rows, dtype=np.int64)
        self._session.ledger.record_repeats(len(rows) - 1)
        self.measurements += 1
        self.last_repeats = len(rows)
        sigma_known = (
            self.sigma
            if self.sigma is not None
            else (
                float(stack.std(axis=0, ddof=1).max())
                if len(rows) > 1
                else 0.0
            )
        )
        self.last_confidence = vote_confidence(
            len(rows), sigma_known, statistic=self.statistic
        )
        return self._consensus(stack)

    # -- channel surface ---------------------------------------------------
    def query(self, pixels, values) -> np.ndarray:
        return self._measure(
            lambda r: self._session.query(pixels, values, rep=r)
        )

    def query_batch(self, pixels, values) -> np.ndarray:
        return self._measure(
            lambda r: self._session.query_batch(pixels, values, rep=r)
        )

    def query_per_filter(self, pixels, values) -> np.ndarray:
        if one_pattern_per_row(pixels):
            # Several probes in one call: each gets its own vote, exactly
            # as if it had been asked alone.
            return np.stack(
                [self.query_per_filter(p, v) for p, v in zip(pixels, values)]
            )
        return self._measure(
            lambda r: self._session.query_per_filter(pixels, values, rep=r)
        )

    def query_repeat(self, pixels, values, repeats: int) -> np.ndarray:
        """Refused: a voted reply is already the consensus of repeats."""
        raise ConfigError(
            "VotingChannel already repeats every query; call query_repeat "
            "on the raw session (.session) to see individual measurements"
        )

    def fork(self, index: int | None = None) -> "VotingChannel":
        """A voting wrapper over a forked session (one per shard)."""
        return VotingChannel(
            self._session.fork(index),
            self.repeats,
            sigma=self.sigma,
            confidence=self.confidence,
            max_repeats=self.max_repeats,
            statistic=self.statistic,
        )

    def set_threshold(self, threshold: float) -> None:
        self._session.set_threshold(threshold)

    @property
    def fixed_repeats(self) -> int | None:
        """Measurements per query under a calibrated sigma (``None``
        in adaptive mode)."""
        return self._fixed

    # -- pass-through device facts ----------------------------------------
    @property
    def session(self) -> DeviceSession:
        return self._session

    def __getattr__(self, name: str):
        # Device facts not overridden (per_plane, input_shape, d_ofm,
        # input_range, ledger, queries, threshold, ...) are the
        # session's business.  Dunders/privates stay local so attribute
        # errors during construction cannot recurse, and query methods
        # are never forwarded: one the wrapper does not define would
        # silently skip the vote.
        if name.startswith(("_", "query")):
            raise AttributeError(name)
        return getattr(self._session, name)
