"""Repeat-and-vote querying for the weight attack under counter noise.

Algorithm 2's binary search compares a measured nnz count against a
modelled one; a single noisy read with sigma around 1 flips that
comparison more than half the time (``P(|N(0,1)| > 0.5) ≈ 0.62``), so
the naive attack collapses under even mild counter noise — the effect
the channel ablation bench quantifies.  CSI NN's answer (Batina et
al.) is brute statistical: measure each point many times and vote.

:class:`VotingChannel` wraps a :class:`~repro.device.DeviceSession`
and re-measures every channel query a fixed number of times through
the session's repetition index (fresh content-keyed noise per repeat),
returning the consensus count — the per-element median (counter
read-outs are clipped at zero, and the median is immune to the clip
bias that shifts the mean of near-zero counts upward).  The consensus
count is correct whenever the voted noise stays below half a count, so
the error probability per decision is ``P(|N(0, σ/√R)| > 1/2)``
inflated by the median's efficiency — sizing the repeat budget ``R``
from the calibrated sigma at a target per-decision confidence is what
:func:`required_repeats` does.

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

from repro.device import DeviceSession
from repro.errors import ConfigError

__all__ = ["VotingChannel", "required_repeats", "vote_confidence"]

# Default per-decision confidence: a full AlexNet CONV1 recovery makes
# ~10^5 noisy comparisons, so 1 - 1e-7 keeps the whole attack's
# failure probability around a percent.
_DEFAULT_CONFIDENCE = 1.0 - 1e-7


# Asymptotic variance inflation of the sample median relative to the
# mean for Gaussian noise: the median needs pi/2 times the repeats for
# the same per-decision confidence.
_MEDIAN_EFFICIENCY = math.pi / 2.0


def required_repeats(
    sigma: float, confidence: float = _DEFAULT_CONFIDENCE
) -> int:
    """Measurements needed to resolve a one-count step by median vote.

    The consensus errs when the median's deviation exceeds half a
    count; requiring that with probability ``confidence`` gives
    ``R >= (pi/2) * (2 z sigma)^2`` with ``z`` the two-sided normal
    quantile of ``confidence`` and pi/2 the median's variance
    inflation.
    """
    if sigma <= 0.0:
        return 1
    if not 0.0 < confidence < 1.0:
        raise ConfigError(f"confidence must be in (0, 1), got {confidence}")
    z = NormalDist().inv_cdf(0.5 + confidence / 2.0)
    return max(1, math.ceil(_MEDIAN_EFFICIENCY * (2.0 * z * sigma) ** 2))


def vote_confidence(repeats: int, sigma: float) -> float:
    """Per-decision confidence of an ``repeats``-read median vote."""
    if sigma <= 0.0:
        return 1.0
    return math.erf(
        math.sqrt(repeats / _MEDIAN_EFFICIENCY) / (2.0 * sigma * math.sqrt(2.0))
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
        sigma: calibrated counter sigma (see
            :func:`~repro.attacks.robust.calibrate_channel`); every
            query is measured ``max(repeats, required_repeats(sigma))``
            times, once when ``sigma`` is 0 (a clean channel).
    """

    def __init__(
        self, session: DeviceSession, repeats: int = 9, *, sigma: float
    ) -> None:
        if repeats < 1:
            raise ConfigError(f"repeats must be >= 1, got {repeats}")
        self._session = session
        self.repeats = int(repeats)
        self.sigma = float(sigma)
        # A calibrated clean channel needs no repetition at all — the
        # wrapper degrades to the exact single-shot attack.
        self.fixed_repeats = (
            1
            if self.sigma <= 0.0
            else max(self.repeats, required_repeats(self.sigma))
        )
        # Introspection: votes taken.
        self.measurements = 0

    # -- the vote ----------------------------------------------------------
    def _measure(self, take, probes: int = 1) -> np.ndarray:
        """Measure ``take(rep)`` ``fixed_repeats`` times; the element-wise
        median wins.

        One call may answer several probes; each counts as its own vote
        (one measurement, ``fixed_repeats - 1`` repeats), exactly as if
        it had been asked alone.
        """
        stack = np.asarray(
            [take(r) for r in range(self.fixed_repeats)], dtype=np.int64
        )
        self._session.ledger.record_repeats((self.fixed_repeats - 1) * probes)
        self.measurements += probes
        return np.rint(np.median(stack, axis=0)).astype(np.int64)

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
        return self._measure(
            lambda r: self._session.query_per_filter(pixels, values, rep=r),
            len(pixels),
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
            self._session.fork(index), self.repeats, sigma=self.sigma
        )

    def set_threshold(self, threshold: float) -> None:
        self._session.set_threshold(threshold)

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
