"""Funnel recognition, certificates, labelings and the extremal arc bound.

A DAG is a funnel when every source-sink path has a private arc, i.e. an arc
no other source-sink path uses.  Equivalently: no vertex with indegree > 1
reaches a vertex with outdegree > 1 (reaching includes the vertex itself).
Equivalently again: the vertices split into a Fork part inducing an
out-forest and a Merge part inducing an in-forest, with no Merge-to-Fork arc.
The degree test, the certificate search and the canonical labeling share one
merge-fork scan (the first tainted vertex with two out-arcs, in topological
order); the path-count test is an independent recognizer.  They all agree.

:func:`doomed_arcs` is the one keep rule that the labeling check, the
approximation's deletion set and the exact solver share.  A Fork with a Fork
in-neighbor keeps the arc from the first one and dooms its other in-arcs; a
Fork without one dooms its in-arcs from labeled vertices, all Merges.  Merge
vertices mirror this on their out-arcs.  Under a total labeling nothing is
doomed exactly when the three conditions hold: a Fork with two in-arcs dooms
one, a Merge-to-Fork arc is doomed at its head, and a Fork whose one in-arc
comes from a Fork dooms nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .graph import ArcSet, Dag
from .labeling import Label, Labeling


class NotAFunnel(Exception):
    """Raised when a funnel-only operation is applied to a non-funnel."""


def _tainted(dag: Dag) -> list[bool]:
    """tainted[v]: v or some ancestor of v has indegree > 1 (one topo pass)."""
    in_tails, in_off = dag.in_tails, dag.in_off
    tainted = [False] * dag.vertex_count
    for v in dag.topo_order:
        lo, hi = in_off[v], in_off[v + 1]
        # With one in-arc, v inherits from its only in-neighbor.
        tainted[v] = hi - lo > 1 or (hi > lo and tainted[in_tails[lo]])
    return tainted


def _merge_fork(dag: Dag, tainted: Sequence[bool]) -> Optional[int]:
    """The first vertex in topological order that is tainted and has two
    out-arcs, or ``None`` when there is none, i.e. when the DAG is a funnel."""
    out_off = dag.out_off
    return next(
        (v for v in dag.topo_order if tainted[v] and out_off[v + 1] - out_off[v] > 1),
        None,
    )


def is_funnel_degree(dag: Dag) -> bool:
    """Degree characterization: no tainted vertex may have outdegree > 1.

    A single vertex carrying both indegree > 1 and outdegree > 1 already
    violates the condition.  Linear time.
    """
    return _merge_fork(dag, _tainted(dag)) is None


@dataclass(frozen=True)
class PathCounts:
    """Per-vertex counts of source-to-v and v-to-sink paths, saturated at 2.

    Saturation keeps the counts linear-time; 2 already means "shared".
    """

    source_paths: tuple[int, ...]
    sink_paths: tuple[int, ...]


def path_counts(dag: Dag) -> PathCounts:
    # Every count is at least 1, so two in-arcs (out-arcs) already saturate.
    src = [0] * dag.vertex_count
    snk = [0] * dag.vertex_count
    in_tails, in_off, heads, out_off = dag.in_tails, dag.in_off, dag.heads, dag.out_off
    for v in dag.topo_order:
        lo, hi = in_off[v], in_off[v + 1]
        src[v] = 1 if lo == hi else src[in_tails[lo]] if hi - lo == 1 else 2
    for v in reversed(dag.topo_order):
        lo, hi = out_off[v], out_off[v + 1]
        snk[v] = 1 if lo == hi else snk[heads[lo]] if hi - lo == 1 else 2
    return PathCounts(tuple(src), tuple(snk))


def is_funnel_private_arc(dag: Dag) -> bool:
    """Private-arc characterization via saturating path counts.

    An arc (u, v) is shared when source_paths(u) * sink_paths(v) >= 2, i.e.
    at least two source-sink paths run through it.  The DAG fails to be a
    funnel exactly when some source-sink path consists of shared arcs only,
    which we detect with one forward and one backward pass over shared arcs.
    """
    counts = path_counts(dag)
    src, snk = counts.source_paths, counts.sink_paths
    in_tails, in_off, heads, out_off = dag.in_tails, dag.in_off, dag.heads, dag.out_off
    reach = [False] * dag.vertex_count  # reachable from a source via shared arcs
    for v in dag.topo_order:
        lo, hi = in_off[v], in_off[v + 1]
        reach[v] = lo == hi or any(
            reach[u] for u in in_tails[lo:hi] if src[u] * snk[v] >= 2
        )
    coreach = [False] * dag.vertex_count  # reaches a sink via shared arcs
    for v in reversed(dag.topo_order):
        lo, hi = out_off[v], out_off[v + 1]
        coreach[v] = lo == hi or any(
            coreach[w] for w in heads[lo:hi] if src[v] * snk[w] >= 2
        )
    return not any(
        src[u] * snk[v] >= 2 and reach[u] and coreach[v]
        for u, v in zip(dag.tails, heads)
    )


@dataclass(frozen=True)
class ForbiddenWitness:
    """A concrete obstruction: two arcs into path[0], two arcs out of path[-1].

    Hosts u1 != u2 and w1 != w2; together with the path arcs these form the
    subgraph whose presence certifies "not a funnel".
    """

    u1: int
    u2: int
    path: tuple[int, ...]
    w1: int
    w2: int

    def arcs(self) -> ArcSet:
        hops = [
            (self.u1, self.path[0]),
            (self.u2, self.path[0]),
            (self.path[-1], self.w1),
            (self.path[-1], self.w2),
        ]
        hops.extend(zip(self.path, self.path[1:]))
        return frozenset(hops)


def find_forbidden_witness(dag: Dag) -> ForbiddenWitness | None:
    """Return an obstruction subgraph, or ``None`` when the DAG is a funnel.

    Starts from the merge-fork vertex and walks back to the nearest ancestor
    with two in-arcs.  A tainted vertex with fewer than two in-arcs has exactly
    one, and its tail is tainted too, so the walk never has a choice to make
    and must reach such an ancestor: its path is the only, hence the
    shortest, one.
    """
    vk = _merge_fork(dag, _tainted(dag))
    if vk is None:
        return None
    hops = [vk]
    while dag.in_degree(hops[-1]) < 2:
        hops.append(dag.in_neighbors(hops[-1])[0])
    path = tuple(reversed(hops))
    u1, u2 = dag.in_neighbors(path[0])[:2]
    w1, w2 = dag.out_neighbors(path[-1])[:2]
    return ForbiddenWitness(u1, u2, path, w1, w2)


def funnel_labeling(dag: Dag) -> Labeling:
    """Canonical Fork/Merge labeling of a funnel.

    Merge exactly for the tainted vertices (indegree > 1 at the vertex or at
    some ancestor); everything else is Fork.  Raises :class:`NotAFunnel`,
    naming the merge-fork vertex, on non-funnels.
    """
    tainted = _tainted(dag)
    v = _merge_fork(dag, tainted)
    if v is not None:
        raise NotAFunnel(f"vertex {v} merges and forks")
    return Labeling([Label.MERGE if t else Label.FORK for t in tainted])


def doomed_arcs(
    dag: Dag, v: int, labels: Sequence[Optional[Label]], alive: Sequence[int]
) -> list[int]:
    """Ids of the live arcs at ``v`` that the keep rule deletes, in id order.

    The keep rule of the module docstring.  ``labels`` may be partial, and
    ``alive`` is a mask over arc ids; an unlabeled vertex dooms nothing.
    """
    lab = labels[v]
    if lab is Label.FORK:
        ids, ends = dag.in_arcs(v), dag.tails
    elif lab is Label.MERGE:
        ids, ends = dag.out_arcs(v), dag.heads
    else:
        return []
    live = [a for a in ids if alive[a]]
    for keep in live:
        if labels[ends[keep]] is lab:
            return [a for a in live if a != keep]
    return [a for a in live if labels[ends[a]] is not None]


def verify_funnel_labeling(dag: Dag, labeling: Labeling) -> bool:
    """Check the funnel-labeling conditions for a total labeling.

    Fork vertices need indegree <= 1, Merge vertices outdegree <= 1, and no
    arc may run from a Merge vertex to a Fork vertex; equivalently, no vertex
    has :func:`doomed_arcs`.  Passing proves the DAG is a funnel.
    """
    labeling.require_total()
    labels, alive = list(labeling), bytearray(b"\x01") * dag.arc_count
    return not any(doomed_arcs(dag, v, labels, alive) for v in dag.vertices())


def max_arc_bound(n: int) -> int:
    """Largest arc count a funnel on ``n >= 2`` vertices can have."""
    if n < 2:
        raise ValueError("bound defined for n >= 2")
    return n * n // 4 + n - 2


def extremal_funnel(n: int) -> Dag:
    """A funnel on ``n`` vertices attaining :func:`max_arc_bound`.

    Fork path on the first floor(n/2) vertices, Merge path on the rest, plus
    every Fork-to-Merge arc.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    half = n // 2
    arcs = [(v, v + 1) for v in range(half - 1)]
    arcs += [(v, v + 1) for v in range(half, n - 1)]
    arcs += [(f, m) for f in range(half) for m in range(half, n)]
    return Dag(n, arcs)
