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
    fork, merge = Label.FORK, Label.MERGE
    in_tails, in_off, out_off = dag.in_tails, dag.in_off, dag.out_off
    labels: list[Label | None] = [None] * dag.vertex_count
    for v in dag.topo_order:
        lo, hi = in_off[v], in_off[v + 1]
        outd = out_off[v + 1] - out_off[v]
        if outd > hi - lo or (
            outd == hi - lo and any(labels[u] is fork for u in in_tails[lo:hi])
        ):
            labels[v] = fork
        else:
            labels[v] = merge
    return Labeling(labels)


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
    fork, merge = Label.FORK, Label.MERGE
    labels = list(labeling)
    heads, out_off, in_tails, in_off = dag.heads, dag.out_off, dag.in_tails, dag.in_off
    n = dag.vertex_count
    # fork_in[v]: Fork-labeled in-neighbors; merge_out[v]: Merge-labeled out-neighbors.
    fork_in = [0] * n
    merge_out = [0] * n
    for u, w in dag.arcs:
        if labels[u] is fork:
            fork_in[w] += 1
        if labels[w] is merge:
            merge_out[u] += 1

    while True:
        flipped = False
        for v in dag.topo_order:
            outs = heads[out_off[v] : out_off[v + 1]]
            ins = in_tails[in_off[v] : in_off[v + 1]]
            # Exact change of the deletion-set size if v alone flips, counted
            # over the arcs at v with all neighbor labels fixed: first v's own
            # side costs (a Fork's in-arcs but one from a Fork parent, a
            # Merge's out-arcs but one to a Merge child), then the
            # Merge->Fork arcs at v that go or come, each offset when v
            # becomes a neighbor's first same-label partner or stops being
            # its only one.
            side = (len(outs) - (merge_out[v] > 0)) - (len(ins) - (fork_in[v] > 0))
            if labels[v] is fork:  # Fork -> Merge
                delta = side
                for u in ins:
                    if labels[u] is merge and merge_out[u]:
                        delta += 1  # u->v goes; v is not u's first Merge child
                for w in outs:
                    if labels[w] is fork and fork_in[w] != 1:
                        delta -= 1  # v->w comes; v was not w's only Fork parent
                if delta < 0:
                    labels[v] = merge
                    for w in outs:
                        fork_in[w] -= 1
                    for u in ins:
                        merge_out[u] += 1
                    flipped = True
            else:  # Merge -> Fork
                delta = -side
                for w in outs:
                    if labels[w] is fork and fork_in[w]:
                        delta += 1  # v->w goes; v is not w's first Fork parent
                for u in ins:
                    if labels[u] is merge and merge_out[u] != 1:
                        delta -= 1  # u->v comes; v was not u's only Merge child
                if delta < 0:
                    labels[v] = fork
                    for w in outs:
                        fork_in[w] += 1
                    for u in ins:
                        merge_out[u] -= 1
                    flipped = True
        if not (fixpoint and flipped):
            break
    result = Labeling(labels)
    return result, arc_deletion_set(dag, result)


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
