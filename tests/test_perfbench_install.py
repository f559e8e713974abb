"""The traced end-to-end benchmark can still wrap every entry point.

``perfbench/run.py --trace 1`` installs a span wrapper on each public
entry point named in :mod:`perfbench.layers`; a renamed function or a
method hoisted into a base class would make that install fail.
"""

from __future__ import annotations

from perfbench.layers import span_targets
from perfbench.spans import Instrumentation, SpanRecorder, _resolve


def test_every_span_target_installs_and_uninstalls():
    targets = span_targets()
    originals = {t: _resolve(t) for t in targets}
    instrumentation = Instrumentation(SpanRecorder())
    try:
        instrumentation.install(targets)
        assert all(_resolve(t) is not originals[t] for t in targets)
    finally:
        instrumentation.uninstall()
    assert all(_resolve(t) is originals[t] for t in targets)
