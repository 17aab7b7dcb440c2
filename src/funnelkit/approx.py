"""Factor-2 approximation for arc deletion distance to a funnel.

Three linear-time phases: a greedy degree-based labeling, the deletion set
that labeling forces, and a local relabeling pass that flips a vertex when
doing so shrinks the deletion set.  The deletion set of a total labeling is
a funnel for *any* labeling, so the result is always feasible; starting from
the greedy labeling makes it at most twice the optimum.
"""

from __future__ import annotations

from dataclasses import dataclass

from .analysis import doomed_arcs
from .graph import ArcSet, Dag
from .labeling import Label, Labeling


def assign_labels_greedy(dag: Dag) -> Labeling:
    """Label every vertex Fork or Merge from its degrees, in one topo pass.

    Fork when out-degree exceeds in-degree, Fork on a tie with some Fork
    in-neighbor (ties keep source-side runs going), Merge otherwise.
    """
    labels = Labeling.unassigned(dag.vertex_count)
    for v in dag.topo_order:
        ind, outd = dag.in_degree(v), dag.out_degree(v)
        if outd > ind:
            labels[v] = Label.FORK
        elif outd == ind and any(
            labels[u] is Label.FORK for u in dag.in_neighbors(v)
        ):
            labels[v] = Label.FORK
        else:
            labels[v] = Label.MERGE
    return labels


def arc_deletion_set(dag: Dag, labeling: Labeling) -> ArcSet:
    """Arcs that must go so ``labeling`` becomes a funnel labeling of the rest.

    The :func:`~funnelkit.analysis.doomed_arcs` of every vertex under a total
    labeling; deleting them always leaves a funnel.
    """
    labeling.require_total()
    labels, alive = list(labeling), bytearray(b"\x01") * dag.arc_count
    return frozenset(
        dag.arcs[a] for v in dag.vertices() for a in doomed_arcs(dag, v, labels, alive)
    )


def greedy_relabel(
    dag: Dag, labeling: Labeling, fixpoint: bool = False
) -> tuple[Labeling, ArcSet]:
    """Flip labels that strictly shrink the deletion set; return the result.

    A flip is judged by the exact change in deletion status over the arcs
    incident to the flipped vertex, holding all neighbor labels fixed; that
    is the only part of the deletion set a flip can change, so the set size
    never grows.  One pass in topological order by default; ``fixpoint``
    repeats passes until no flip helps.
    """
    labeling.require_total()
    labels = labeling.copy()
    n = dag.vertex_count
    # fork_in[v]: Fork-labeled in-neighbors; merge_out[v]: Merge-labeled out-neighbors.
    fork_in = [
        sum(1 for u in dag.in_neighbors(v) if labels[u] is Label.FORK)
        for v in range(n)
    ]
    merge_out = [
        sum(1 for w in dag.out_neighbors(v) if labels[w] is Label.MERGE)
        for v in range(n)
    ]

    def in_cost(v: int) -> int:
        # Arcs v's own label forces off its in side.
        if labels[v] is Label.MERGE:
            return 0
        return dag.in_degree(v) - 1 if fork_in[v] >= 1 else dag.in_degree(v)

    def out_cost(v: int) -> int:
        if labels[v] is Label.FORK:
            return 0
        return dag.out_degree(v) - 1 if merge_out[v] >= 1 else dag.out_degree(v)

    def flip_delta(v: int) -> int:
        # Exact change of the deletion-set size if v alone flips.  Every term
        # is the status change of an arc incident to v: the vertex's own side
        # costs, the Merge->Fork double counts, and the neighbors for which v
        # is the only same-label partner appearing or disappearing.
        old = labels[v]
        delta = -(in_cost(v) + out_cost(v))
        mf_gone = 0  # incident arcs that stop being Merge->Fork
        mf_new = 0  # incident arcs that become Merge->Fork
        if old is Label.FORK:  # Fork -> Merge
            for u in dag.in_neighbors(v):
                if labels[u] is Label.MERGE:
                    mf_gone += 1
                    if merge_out[u] == 0:
                        delta -= 1  # u gains its first Merge child
            for w in dag.out_neighbors(v):
                if labels[w] is Label.FORK:
                    mf_new += 1
                    if fork_in[w] == 1:
                        delta += 1  # w loses its only Fork parent
        else:  # Merge -> Fork
            for w in dag.out_neighbors(v):
                if labels[w] is Label.FORK:
                    mf_gone += 1
                    if fork_in[w] == 0:
                        delta -= 1  # w gains its first Fork parent
            for u in dag.in_neighbors(v):
                if labels[u] is Label.MERGE:
                    mf_new += 1
                    if merge_out[u] == 1:
                        delta += 1  # u loses its only Merge child
        labels[v] = Label.MERGE if old is Label.FORK else Label.FORK
        delta += in_cost(v) + out_cost(v)
        labels[v] = old
        return delta + mf_gone - mf_new

    def commit(v: int) -> None:
        old = labels[v]
        labels[v] = Label.MERGE if old is Label.FORK else Label.FORK
        if old is Label.FORK:
            for w in dag.out_neighbors(v):
                fork_in[w] -= 1
            for u in dag.in_neighbors(v):
                merge_out[u] += 1
        else:
            for w in dag.out_neighbors(v):
                fork_in[w] += 1
            for u in dag.in_neighbors(v):
                merge_out[u] -= 1

    while True:
        flipped = False
        for v in dag.topo_order:
            if flip_delta(v) < 0:
                commit(v)
                flipped = True
        if not (fixpoint and flipped):
            break
    return labels, arc_deletion_set(dag, labels)


@dataclass(frozen=True)
class ApproxResult:
    deletion_set: ArcSet
    labeling: Labeling
    size: int


def approximate_addf(dag: Dag) -> ApproxResult:
    """Greedy labeling, its deletion set, then local relabeling.  Linear time;
    the result is at most twice the optimal deletion distance."""
    labels, doomed = greedy_relabel(dag, assign_labels_greedy(dag))
    return ApproxResult(deletion_set=doomed, labeling=labels, size=len(doomed))
