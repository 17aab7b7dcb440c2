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
    never grows.  With the neighbors fixed, if a Fork-to-Merge flip changes
    the size by g then flipping back changes it by -g, so one delta serves
    both directions.  One pass in topological order by default;
    ``fixpoint`` repeats passes until no flip helps.
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
            is_fork = labels[v] is fork
            is_merge = not is_fork
            # The size change if v goes from Fork to Merge, over the arcs at
            # v: first v's own side costs (a Fork's in-arcs but one from a
            # Fork parent, a Merge's out-arcs but one to a Merge child), then
            # +1 per Merge parent with a Merge child besides v and -1 per
            # Fork child with a Fork parent besides v.
            delta = (len(outs) - (merge_out[v] > 0)) - (len(ins) - (fork_in[v] > 0))
            for u in ins:
                if labels[u] is merge and merge_out[u] > is_merge:
                    delta += 1
            for w in outs:
                if labels[w] is fork and fork_in[w] > is_fork:
                    delta -= 1
            step = 1 if is_fork else -1  # the flip changes the size by delta * step
            if delta * step < 0:
                labels[v] = merge if is_fork else fork
                for w in outs:
                    fork_in[w] -= step
                for u in ins:
                    merge_out[u] += step
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
