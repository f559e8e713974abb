"""Candidate ranking by short training (paper Figures 4 and 5).

The final attack step: train every candidate structure briefly and rank
by validation accuracy; the paper shows the true structure lands near
the top (4th of 24 for AlexNet) and that a few epochs already separate
good candidates from bad ones, so unpromising structures can be filtered
cheaply.

Every candidate's training run is independent — distinct network,
distinct optimiser state, a shuffling seed derived from
``(seed, index)`` and weight init keyed on the candidate's name — so the
loop shards perfectly across worker processes.  ``workers > 1`` trains
candidates through :func:`~repro.parallel.fork_map`; rankings are
bit-identical to the serial path at any worker count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.data.synthetic import Dataset
from repro.attacks.structure.pipeline import CandidateStructure
from repro.attacks.structure.reconstruct import reconstruct_network
from repro.errors import ConfigError
from repro.nn.optim import SGD, Adam
from repro.nn.train import Trainer
from repro.parallel import fork_map

__all__ = ["RankedCandidate", "rank_candidates", "candidate_seed"]


@dataclass
class RankedCandidate:
    """Training outcome of one candidate structure.

    A plain dataclass (``is_original`` included) so ranked results
    survive pickling across the worker-process boundary.
    """

    candidate: CandidateStructure
    index: int
    top1: float
    top5: float
    train_loss: float
    is_original: bool = False


def candidate_seed(seed: int, index: int) -> int:
    """The shuffling seed of candidate ``index`` under base ``seed``.

    Derived through :class:`numpy.random.SeedSequence` so it depends
    only on ``(seed, index)`` — never on which worker trains the
    candidate or in what order — which is what makes rankings
    bit-identical at any worker count.
    """
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


@dataclass
class _RankContext:
    """Everything one training task needs, shipped to workers once."""

    dataset: Dataset
    input_shape: tuple[int, int, int]
    num_classes: int
    epochs: int
    depth_scale: float
    lr: float
    momentum: float
    batch_size: int
    seed: int
    optimizer: str


_CONTEXT: _RankContext | None = None


def _rank_init(context: _RankContext) -> None:
    global _CONTEXT
    _CONTEXT = context


def _rank_one(task: tuple[int, CandidateStructure]) -> RankedCandidate:
    """Reconstruct and short-train one candidate (runs inside a worker)."""
    ctx = _CONTEXT
    assert ctx is not None, "worker used before _rank_init"
    i, cand = task
    staged = reconstruct_network(
        cand, ctx.input_shape, ctx.num_classes,
        name=f"cand{i}", depth_scale=ctx.depth_scale,
    )
    net = staged.network
    if ctx.optimizer == "sgd":
        opt = SGD(net.parameters(), lr=ctx.lr, momentum=ctx.momentum)
    elif ctx.optimizer == "adam":
        opt = Adam(net.parameters(), lr=ctx.lr)
    else:
        raise ConfigError(f"unknown optimizer {ctx.optimizer!r}")
    trainer = Trainer(
        net, opt, batch_size=ctx.batch_size,
        seed=candidate_seed(ctx.seed, i),
    )
    result = trainer.fit(
        ctx.dataset.train_images, ctx.dataset.train_labels,
        ctx.dataset.val_images, ctx.dataset.val_labels,
        epochs=ctx.epochs,
    )
    return RankedCandidate(
        candidate=cand,
        index=i,
        top1=result.final_top1,
        top5=result.final_top5,
        train_loss=result.epochs[-1].train_loss,
    )


def rank_candidates(
    candidates: list[CandidateStructure],
    dataset: Dataset,
    input_shape: tuple[int, int, int],
    num_classes: int,
    epochs: int = 3,
    depth_scale: float = 1.0,
    lr: float = 0.01,
    momentum: float = 0.9,
    batch_size: int = 16,
    seed: int = 0,
    optimizer: str = "sgd",
    workers: int | None = None,
) -> list[RankedCandidate]:
    """Train every candidate and return them sorted by top-1 accuracy.

    Each candidate is reconstructed at ``depth_scale`` and trained for
    ``epochs`` epochs with identical hyper-parameters; its shuffling
    seed is :func:`candidate_seed` of ``(seed, index)``, so the
    comparison isolates the structural differences and the result is
    independent of execution order.  ``workers > 1`` distributes the
    training runs over that many processes.
    """
    context = _RankContext(
        dataset=dataset, input_shape=input_shape, num_classes=num_classes,
        epochs=epochs, depth_scale=depth_scale, lr=lr, momentum=momentum,
        batch_size=batch_size, seed=seed, optimizer=optimizer,
    )
    ranked = fork_map(
        _rank_one, enumerate(candidates), workers,
        initializer=_rank_init, initargs=(context,),
    )
    # Stable sort on (-top1, index): ties cannot reorder by worker count.
    ranked.sort(key=lambda r: (-r.top1, r.index))
    return ranked
