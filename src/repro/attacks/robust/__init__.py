"""Noise-robust attack estimators for the measurement channel.

The paper's attacks assume a perfect side-channel tap; this package
makes them survive a realistic one (see :mod:`repro.channel`).  Three
pieces, one per leak:

* :class:`VotingChannel` — repeat-and-vote querying for the weight
  attack's counter channel, with a repeat budget sized from the
  calibrated sigma (:func:`required_repeats`);
* :class:`RobustRawBoundaryTracker` / :class:`BoundaryRecovery` —
  hysteresis + multi-run consensus boundary detection for the
  structure attack's trace channel;
* :func:`calibrate_channel` — attacker-side estimation of the channel
  parameters (counter sigma and quantum, power read-out noise) from
  repeated null measurements, so the above can be sized from data.

All of it speaks only the :class:`~repro.device.DeviceSession`
surface; on an ideal channel every estimator degrades gracefully to
the exact paper behaviour (single measurement, single-event RAW rule).
"""

from repro.attacks.robust.boundary import (
    BoundaryScore,
    RobustRawBoundaryTracker,
    boundary_f1,
    consensus_boundaries,
)
from repro.attacks.robust.calibrate import ChannelCalibration, calibrate_channel
from repro.attacks.robust.structure import (
    BoundaryRecovery,
    RobustStructureResult,
    boundary_cycles_from_trace,
)
from repro.attacks.robust.vote import (
    VotingChannel,
    required_repeats,
    vote_confidence,
)

__all__ = [
    "VotingChannel",
    "required_repeats",
    "vote_confidence",
    "RobustRawBoundaryTracker",
    "BoundaryRecovery",
    "RobustStructureResult",
    "boundary_cycles_from_trace",
    "consensus_boundaries",
    "boundary_f1",
    "BoundaryScore",
    "ChannelCalibration",
    "calibrate_channel",
]
