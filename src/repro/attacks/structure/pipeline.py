"""Algorithm 1: chain per-layer solutions into whole-network candidates.

This stage is pure constraint solving over an already-captured
:class:`~repro.attacks.structure.trace_analysis.TraceAnalysis`; all
device interaction happened earlier through
:meth:`repro.device.DeviceSession.observe_structure` and is accounted on
the session's ledger.

Steps 3-5 of the paper's attack: solve each layer's constraint system,
then keep only combinations whose shapes agree along every connection
(``W_OFM_i = W_IFM_{i+1}`` and ``D_OFM_i = D_IFM_{i+1}``, generalised
here to arbitrary DAG edges including bypass merges and concatenations).

The search processes layers in execution order carrying a *frontier* —
the output geometry of every layer that some later layer still reads.
Per-layer solving is memoised on ``(layer, input geometry)``, and the
structure count uses dynamic programming over ``(layer, frontier)`` so
that networks whose candidate combinations explode combinatorially (the
paper counts 3^29 *theoretical* SqueezeNet combinations) can still be
counted exactly without enumerating paths.

The modular-network assumption of Section 3.2 ("large CNNs are typically
constructed in a modular fashion ... assume that the structures of all
fire modules are identical") plugs in as *role constraints*: layers
sharing a role (e.g. every fire module's 3x3 expand) must share their
micro-parameters (filter/stride/padding/pooling).
"""

from __future__ import annotations

from dataclasses import dataclass
from repro.errors import SolverError
from repro.attacks.structure.constraints import DeviceKnowledge
from repro.attacks.structure.solver import (
    LayerProblem,
    PracticalityRules,
    solve_conv_layer,
    solve_fc_layer,
)
from repro.attacks.structure.trace_analysis import (
    INPUT_SOURCE,
    LayerObservation,
    TraceAnalysis,
)
from repro.nn.spec import FCGeometry, LayerGeometry

__all__ = [
    "ShapeState",
    "CandidateLayer",
    "CandidateStructure",
    "MicroParams",
    "StructureSearch",
]

# Output geometry of a layer: (width, depth); width 0 means a flat vector.
ShapeState = tuple[int, int]


@dataclass(frozen=True)
class MicroParams:
    """Depth-independent structural parameters shared within a module role."""

    f_conv: int
    s_conv: int
    p_conv: int
    has_pool: bool
    f_pool: int
    s_pool: int
    p_pool: int

    @staticmethod
    def of(geom: LayerGeometry) -> "MicroParams":
        return MicroParams(
            geom.f_conv, geom.s_conv, geom.p_conv,
            geom.has_pool, geom.f_pool, geom.s_pool, geom.p_pool,
        )


@dataclass(frozen=True)
class CandidateLayer:
    """One layer of a candidate structure."""

    kind: str  # conv | fc | eltwise | concat
    geometry: LayerGeometry | FCGeometry | None
    sources: tuple[int, ...]


@dataclass(frozen=True)
class CandidateStructure:
    """A complete structure hypothesis for the observed network."""

    layers: tuple[CandidateLayer, ...]

    @property
    def num_layers(self) -> int:
        return len(self.layers)

    def conv_geometries(self) -> list[LayerGeometry]:
        return [
            l.geometry for l in self.layers if isinstance(l.geometry, LayerGeometry)
        ]

    def describe(self) -> str:
        rows = []
        for i, layer in enumerate(self.layers):
            g = layer.geometry
            if isinstance(g, LayerGeometry):
                pool = (
                    f" pool(f={g.f_pool},s={g.s_pool},p={g.p_pool})"
                    if g.has_pool
                    else ""
                )
                rows.append(
                    f"L{i} conv {g.w_ifm}x{g.d_ifm}->{g.w_ofm}x{g.d_ofm} "
                    f"f={g.f_conv} s={g.s_conv} p={g.p_conv}{pool}"
                )
            elif isinstance(g, FCGeometry):
                rows.append(f"L{i} fc {g.in_features}->{g.out_features}")
            else:
                rows.append(f"L{i} {layer.kind} sources={layer.sources}")
        return "\n".join(rows)


def _merge_kind(obs: LayerObservation) -> str:
    """Classify a merge layer as eltwise or concat from observed sizes.

    A concatenation's OFM is the union of its operands; an element-wise
    addition's OFM matches each operand.  Sizes are block-granular, so
    compare with one block of slack per operand.
    """
    ofm = obs.size_ofm.hi
    srcs = [s.hi for s in obs.size_ifm_per_source]
    slack = (obs.size_ofm.hi - obs.size_ofm.lo + 1) * (len(srcs) + 1)
    if abs(ofm - sum(srcs)) <= slack:
        return "concat"
    if all(abs(ofm - s) <= slack for s in srcs):
        return "eltwise"
    raise SolverError(
        f"merge layer {obs.index}: OFM size {ofm} matches neither the sum "
        f"nor each of its operand sizes {srcs}"
    )


class StructureSearch:
    """Candidate-structure search over one trace analysis.

    Args:
        analysis: output of :func:`analyse_trace`.
        device: public device timing parameters.
        tolerance: timing-filter tolerance (Algorithm 1 step 4).
        module_roles: optional map layer-index -> role name; layers with
            the same role are constrained to identical micro-parameters
            (the Section 3.2 modular assumption).
    """

    def __init__(
        self,
        analysis: TraceAnalysis,
        device: DeviceKnowledge | None = None,
        tolerance: float = 0.25,
        module_roles: dict[int, str] | None = None,
        rules: PracticalityRules | None = None,
    ):
        self.analysis = analysis
        self.device = device or DeviceKnowledge()
        self.tolerance = tolerance
        self.rules = rules or PracticalityRules()
        self.module_roles = dict(module_roles or {})
        c, h, w = analysis.input_shape
        if h != w:
            raise SolverError(f"non-square input {h}x{w}")
        self._input_state: ShapeState = (w, c)
        self._live_after = self._compute_live_sets()
        self._solve_cache: dict[tuple[int, ShapeState], list] = {}
        # Filled by count(): the structure count and, per reachable
        # state, (its count, its live (candidate, child state) edges).
        self._count: int | None = None
        self._memo: dict = {}
        self._root: tuple = ()

    # -- liveness ---------------------------------------------------------
    def _compute_live_sets(self) -> list[frozenset[int]]:
        """For each position i: source indices still read at layer >= i."""
        n = self.analysis.num_layers
        live: list[frozenset[int]] = []
        for i in range(n):
            needed = {
                src
                for layer in self.analysis.layers[i:]
                for src in layer.sources
            }
            live.append(frozenset(needed))
        live.append(frozenset())
        return live

    # -- per-layer candidate generation ---------------------------------------
    def _solve_compute(
        self, index: int, in_state: ShapeState
    ) -> list[CandidateLayer]:
        key = (index, in_state)
        if key in self._solve_cache:
            return self._solve_cache[key]
        obs = self.analysis.layers[index]
        w_in, d_in = in_state
        assert obs.size_fltr is not None
        final = index == self.analysis.num_layers - 1
        candidates: list[CandidateLayer] = []
        if w_in == 0:
            # Vector input: only an FC interpretation is possible.
            problem = LayerProblem(
                w_ifm=1, d_ifm=d_in,
                size_ofm=obs.size_ofm, size_fltr=obs.size_fltr,
                duration=obs.duration,
                read_transactions=obs.read_transactions,
                write_transactions=obs.write_transactions,
                final=final,
            )
            for fc in solve_fc_layer(problem, self.device, self.tolerance):
                candidates.append(CandidateLayer("fc", fc, obs.sources))
        else:
            problem = LayerProblem(
                w_ifm=w_in, d_ifm=d_in,
                size_ofm=obs.size_ofm, size_fltr=obs.size_fltr,
                duration=obs.duration,
                read_transactions=obs.read_transactions,
                write_transactions=obs.write_transactions,
                final=final,
            )
            for geom in solve_conv_layer(
                problem, self.device, self.tolerance, self.rules
            ):
                candidates.append(CandidateLayer("conv", geom, obs.sources))
            for fc in solve_fc_layer(problem, self.device, self.tolerance):
                candidates.append(CandidateLayer("fc", fc, obs.sources))
        if index == self.analysis.num_layers - 1:
            candidates = [c for c in candidates if self._final_ok(c)]
        self._solve_cache[key] = candidates
        return candidates

    def _final_ok(self, cand: CandidateLayer) -> bool:
        """Last layer: one score per class (W_OFM = 1, D_OFM = classes)."""
        classes = self.analysis.num_classes
        g = cand.geometry
        if isinstance(g, FCGeometry):
            return g.out_features == classes
        if isinstance(g, LayerGeometry):
            return g.w_ofm == 1 and g.d_ofm == classes
        return False

    @staticmethod
    def _out_state(cand: CandidateLayer) -> ShapeState:
        g = cand.geometry
        if isinstance(g, LayerGeometry):
            return (g.w_ofm, g.d_ofm)
        assert isinstance(g, FCGeometry)
        return (0, g.out_features)

    # -- walking the DAG -------------------------------------------------------
    def _candidates_at(
        self,
        index: int,
        frontier: dict[int, ShapeState],
        micro: dict[str, MicroParams],
    ) -> list[tuple[CandidateLayer, ShapeState, dict[str, MicroParams]]]:
        """(candidate, out_state, new_micro) options for layer ``index``."""
        obs = self.analysis.layers[index]
        states = []
        for src in obs.sources:
            if src not in frontier:
                raise SolverError(
                    f"layer {index} reads layer {src}, whose geometry left "
                    "the frontier — liveness bookkeeping is broken"
                )
            states.append(frontier[src])

        if obs.kind == "merge":
            kind = _merge_kind(obs)
            if kind == "eltwise":
                if len(set(states)) != 1:
                    return []
                out = states[0]
            else:
                widths = {s[0] for s in states}
                if len(widths) != 1 or 0 in widths:
                    return []
                out = (states[0][0], sum(s[1] for s in states))
            return [(CandidateLayer(kind, None, obs.sources), out, micro)]

        if len(states) != 1:
            raise SolverError(
                f"compute layer {index} reads {len(states)} feature maps"
            )
        options = []
        role = self.module_roles.get(index)
        for cand in self._solve_compute(index, states[0]):
            new_micro = micro
            if role is not None and isinstance(cand.geometry, LayerGeometry):
                mp = MicroParams.of(cand.geometry)
                bound = micro.get(role)
                if bound is not None:
                    if bound != mp:
                        continue
                else:
                    new_micro = dict(micro)
                    new_micro[role] = mp
            options.append((cand, self._out_state(cand), new_micro))
        return options

    def _step_frontier(
        self, index: int, frontier: dict[int, ShapeState], out: ShapeState
    ) -> dict[int, ShapeState]:
        live = self._live_after[index + 1]
        new_frontier = {k: v for k, v in frontier.items() if k in live}
        if index in live or index == self.analysis.num_layers - 1:
            new_frontier[index] = out
        return new_frontier

    # -- public API ---------------------------------------------------------------
    def enumerate(self, limit: int = 100_000) -> list[CandidateStructure]:
        """All candidate structures, in DFS order; raises if more than
        ``limit``.

        Walks only the live edges :meth:`count` recorded, so no dead
        subtree is visited and no state's options are rebuilt.
        """
        total = self.count()
        if total > limit:
            raise SolverError(
                f"{total} candidate structures, more than {limit}; use "
                "count() or tighten constraints"
            )
        n = self.analysis.num_layers
        memo = self._memo
        results: list[CandidateStructure] = []
        prefix: list[CandidateLayer] = []

        def walk(key) -> None:
            if key[0] == n:
                results.append(CandidateStructure(tuple(prefix)))
                return
            for cand, child in memo[key][1]:
                prefix.append(cand)
                walk(child)
                prefix.pop()

        walk(self._root)
        return results

    def count(self) -> int:
        """Exact number of candidate structures (DP over frontiers).

        Also records, per ``(index, frontier, micro)`` state, the options
        whose subtree holds at least one structure: the edges
        :meth:`enumerate` walks.  Computed once per search.
        """
        if self._count is not None:
            return self._count
        n = self.analysis.num_layers
        memo = self._memo

        def rec(key) -> int:
            index, frontier, micro = key
            if index == n:
                return 1
            if key in memo:
                return memo[key][0]
            fdict = dict(frontier)
            total = 0
            edges = []
            for cand, out, new_micro in self._candidates_at(
                index, fdict, dict(micro)
            ):
                child = (
                    index + 1,
                    frozenset(self._step_frontier(index, fdict, out).items()),
                    frozenset(new_micro.items()),
                )
                sub = rec(child)
                if sub:
                    edges.append((cand, child))
                    total += sub
            memo[key] = (total, edges)
            return total

        self._root = (
            0, frozenset({(INPUT_SOURCE, self._input_state)}), frozenset()
        )
        self._count = rec(self._root)
        return self._count
