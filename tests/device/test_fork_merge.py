"""Session forking and ledger merging — the parallel layer's device side."""

from __future__ import annotations

import pytest

from repro.device import QueryLedger
from repro.errors import QueryBudgetExceeded
from repro.nn.shapes import PoolSpec
from tests.conftest import build_conv_stage, pruned_session


def test_ledger_merge_folds_counters():
    a = QueryLedger(channel_queries=10, inferences=2, cache_hits=5,
                    cache_misses=3)
    a.record_trace(4)
    b = QueryLedger(channel_queries=7, inferences=1, cache_hits=2,
                    cache_misses=2)
    c = QueryLedger(channel_queries=1)
    assert a.merge(b, c) is a
    assert a.channel_queries == 18
    assert a.inferences == 3
    assert a.cache_hits == 7
    assert a.cache_misses == 5
    assert a.trace_events == 4  # others recorded no trace
    assert b.channel_queries == 7  # sources untouched


def test_ledger_merge_is_budget_exempt():
    parent = QueryLedger(max_queries=5, channel_queries=4)
    worker = QueryLedger(channel_queries=100)
    parent.merge(worker)  # no QueryBudgetExceeded: work already happened
    assert parent.channel_queries == 104
    with pytest.raises(QueryBudgetExceeded):
        parent.charge_channel(1)


def test_fork_gets_fresh_ledger_and_same_observations():
    staged, _, _, _ = build_conv_stage(
        w=10, d=4, pool=PoolSpec(2, 2, 0), bias_sign=-1.0
    )
    parent = pruned_session(staged)
    parent_counts = parent.query([(0, 1, 1)], [2.0])
    child = parent.fork()
    assert child.ledger is not parent.ledger
    assert child.ledger.channel_queries == 0
    assert child.device is parent.device
    assert (child.query([(0, 1, 1)], [2.0]) == parent_counts).all()
    # The child charged its own account, not the parent's.
    assert child.ledger.channel_queries == 1
    assert parent.ledger.channel_queries == 1


def test_fork_carries_budgets_and_threshold():
    staged, _, _, _ = build_conv_stage(
        w=10, d=4, relu_threshold=0.0, bias_sign=-1.0
    )
    parent = pruned_session(staged, max_queries=3)
    parent.set_threshold(0.25)
    child = parent.fork()
    assert child.ledger.max_queries == 3
    assert child.threshold == parent.threshold == 0.25
    child.query([(0, 0, 0)], [1.0])
    child.query([(0, 0, 0)], [2.0])
    child.query([(0, 0, 0)], [3.0])
    with pytest.raises(QueryBudgetExceeded):
        child.query([(0, 0, 0)], [4.0])


def test_fork_requires_no_shared_oracle_instance():
    staged, _, _, _ = build_conv_stage(w=10, d=4)
    parent = pruned_session(staged)
    parent.query([(0, 0, 0)], [1.0])  # build the parent's count oracle
    child = parent.fork()
    # The fork builds its oracle lazily (in the worker process).
    assert child._oracle is None
