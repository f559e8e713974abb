"""The attacker/device boundary: sessions and accounting.

This package is the only sanctioned way for attacks to touch a victim
device.  :class:`DeviceSession` meters every inference, channel query
and trace byte on a :class:`QueryLedger`, memoises and batches channel
queries, and streams structure-attack traces span-by-span into an
attacker-supplied :class:`~repro.accel.trace.TraceSink`
(re-exporting :class:`~repro.accel.sinks.CoalescingSink`,
:class:`~repro.accel.sinks.TeeSink` and
:class:`~repro.accel.sinks.MaterializeSink` so attack code can
right-size chunk delivery, fan one stream out to several decoders and
keep spans for a later decode without crossing the boundary).  A guard test asserts that nothing under
:mod:`repro.attacks` imports simulator or oracle internals directly.
"""

from repro.accel.sinks import CoalescingSink, MaterializeSink, TeeSink
from repro.device.observation import StructureObservation
from repro.device.cache import QueryCache
from repro.device.ledger import TRACE_EVENT_BYTES, QueryLedger
from repro.device.session import DeviceSession, VictimDevice
from repro.device.shared_cache import (
    SharedQueryCache,
    array_digest,
    content_key,
    device_fingerprint,
)
from repro.errors import QueryBudgetExceeded

__all__ = [
    "DeviceSession",
    "VictimDevice",
    "StructureObservation",
    "QueryLedger",
    "QueryBudgetExceeded",
    "QueryCache",
    "SharedQueryCache",
    "content_key",
    "device_fingerprint",
    "array_digest",
    "CoalescingSink",
    "MaterializeSink",
    "TeeSink",
    "TRACE_EVENT_BYTES",
]
