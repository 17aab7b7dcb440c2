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


def _neighbor_counts(dag: Dag, labels: list[Label]) -> tuple[list[int], list[int]]:
    """fork_in[v]: Fork-labeled in-neighbors; merge_out[v]: Merge-labeled out-neighbors."""
    fork, merge = Label.FORK, Label.MERGE
    fork_in = [0] * dag.vertex_count
    merge_out = [0] * dag.vertex_count
    for u, w in zip(dag.tails, dag.heads):
        if labels[u] is fork:
            fork_in[w] += 1
        if labels[w] is merge:
            merge_out[u] += 1
    return fork_in, merge_out


def _deletion_set(
    dag: Dag, labels: list[Label], fork_in: list[int], merge_out: list[int]
) -> ArcSet:
    """The doomed arcs of a total labeling, given its neighbor counts.

    Under a total labeling a vertex dooms its side cost: a Fork its in-arcs
    but one from a Fork parent, a Merge its out-arcs but one to a Merge
    child.  Only vertices whose side cost is positive ask the keep rule
    which arcs those are.
    """
    fork, tails, heads = Label.FORK, dag.tails, dag.heads
    in_off, out_off = dag.in_off, dag.out_off
    alive = bytearray(b"\x01") * dag.arc_count
    doomed: list[int] = []
    for v in range(dag.vertex_count):
        if labels[v] is fork:
            cost = in_off[v + 1] - in_off[v] - (fork_in[v] > 0)
        else:
            cost = out_off[v + 1] - out_off[v] - (merge_out[v] > 0)
        if cost:
            doomed += doomed_arcs(dag, v, labels, alive)
    return frozenset([(tails[a], heads[a]) for a in doomed])


def arc_deletion_set(dag: Dag, labeling: Labeling) -> ArcSet:
    """Arcs that must go so ``labeling`` becomes a funnel labeling of the rest.

    The :func:`~funnelkit.analysis.doomed_arcs` of every vertex under a total
    labeling; deleting them always leaves a funnel.
    """
    labeling.require_total()
    labels = list(labeling)
    return _deletion_set(dag, labels, *_neighbor_counts(dag, labels))


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

    A vertex with no side cost of its own never flips, so it is skipped.
    For a Fork with ``in <= [fork_in > 0]`` the Fork-to-Merge change is at
    least ``[fork_in > 0] - in >= 0``, as at most its ``out - merge_out``
    children that are no Merge can take one off.  For a Merge with ``out <=
    [merge_out > 0]`` it is at most ``out - [merge_out > 0] <= 0``, as at
    most its ``in - fork_in`` parents that are no Fork can add one.
    """
    labeling.require_total()
    fork, merge = Label.FORK, Label.MERGE
    labels = list(labeling)
    heads, out_off, in_tails, in_off = dag.heads, dag.out_off, dag.in_tails, dag.in_off
    fork_in, merge_out = _neighbor_counts(dag, labels)

    while True:
        flipped = False
        for v in dag.topo_order:
            is_fork = labels[v] is fork
            if (in_off[v + 1] - in_off[v] <= (fork_in[v] > 0) if is_fork
                    else out_off[v + 1] - out_off[v] <= (merge_out[v] > 0)):
                continue  # no side cost of its own: v would not flip
            outs = heads[out_off[v] : out_off[v + 1]]
            ins = in_tails[in_off[v] : in_off[v + 1]]
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
    return Labeling(labels), _deletion_set(dag, labels, fork_in, merge_out)


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
