"""Exact arc deletion distance to a funnel: branch and bound plus reductions.

The search assigns Fork/Merge labels and deletes arcs until the remaining
graph is a funnel with a matching labeling.  Two reduction rules run to a
fixpoint at every node, over a queue with one queued flag per vertex in a
``bytearray``; a vertex is queued again when it gets a label or loses an arc:

* set-label, read off the live degrees: a vertex whose label is forced by
  them and its labeled neighbors gets that label (sources are Fork, sinks
  are Merge, a lone Fork in-neighbor passes Fork down, and degree counting
  settles the rest);
* satisfy-label: the live arcs :func:`~funnelkit.analysis.doomed_arcs` finds
  are deleted -- every Merge-to-Fork arc, all but one in-arc of a Fork vertex
  with a Fork in-neighbor (smallest id kept), and symmetrically for Merge.
  It passes over a vertex whose constrained side has no live arc, or one
  whose far end lacks the opposite label: the rule dooms nothing there.

When no rule fires the solver branches on the label of the first unlabeled
vertex in topological order; it is the only branching rule.  All of that
vertex's in-neighbors come earlier in the order, so they are labeled and the
satisfy-label rule acts on its in-arcs as soon as it gets its own label.
Once the labeling is total, the satisfy-label fixpoint leaves no vertex with
doomed arcs: every Fork has live in-degree at most 1 and every Merge live
out-degree at most 1, so the live graph is a funnel and the node is a leaf.
Undoing a child restores the parent's reduced state, so this holds at every
node, not only the root.  The claim is re-checked at every leaf.

The search is depth-first from an explicit stack of (trail mark, vertex,
label, packing) entries, Fork child first, whose packing is the branching
node's; popping one undoes the trail to its mark, so the Python stack stays
flat however deep the search goes.

:func:`solve_addf` is the one entry point.  It takes the incumbent (the
caller's ``incumbent=``, else the approximation), then :func:`lower_bound`
once; when the bound reaches the cutoff no smaller solution exists, so the
incumbent is returned as a certified root (one node, pruned, never timed
out) and no :class:`Solver` is built.  ``time_limit_ms`` starts when
:func:`solve_addf` is entered and is checked only before a branch, so the
approximation, the bound and the root's reductions run past it.

Nodes are pruned against the incumbent (the caller's ``incumbent=``, else
the approximation) using a certificate packing: arc-disjoint obstructions
each force one deletion, so their count lower-bounds the remaining work.
An obstruction is two in-arcs into a vertex, a live path from it, and two
out-arcs at the path's end.  The public :func:`lower_bound` adds vertex
stars (``min(in, out) - 1`` deletions each) ahead of its packing; the
search's nodes use packings alone, and pass them down.

A node keeps its packing as the record ``(owner, obs, free, free_in,
free_out)``: ``obs`` lists each obstruction's arc ids by its number,
``owner`` gives the number by arc id, and the rest is where the greedy
ended, the free arcs (live arcs no obstruction uses) as a mask with their
in- and out-degrees.  A greedy stopped at the cutoff prunes its node, so a
kept packing is complete and its bound is ``len(obs)``.  Only
:meth:`Solver._bound` builds or reads the record; :func:`_pack` fills its
parts.  A node that branches hands it to both children.  A child's
obstructions that lost no arc since are still live and arc-disjoint, so
they bound it first, and when they reach the cutoff the child is pruned
with no packing of its own.  A child that deleted no arc keeps its parent's
packing.  Any other repairs a copy: the deleted arcs leave the free state,
the obstructions that lost an arc are dropped, and their arcs still live
are free again, the released arcs.  The greedy then runs only from the
released arcs' heads and tails and from the vertices whose chains (walks
through vertices with one free out-arc) run into such a tail, in
topological order, and stops once the count reaches the cutoff less the
arcs deleted.  Only the root packs the whole graph.  ``prune N+B`` traces
the bound B that settled a prune: the survivors, or the repaired count at
its stop.

A repaired packing is as sound and as maximal as a fresh one.  The
parent's leaves no obstruction among its free arcs, and deleting arcs makes
none, so every obstruction among the child's free arcs uses a released arc:
its start is the head of one, or its chain runs into the tail of one.  Arcs
only leave the free set during the greedy, so no vertex outside the starts
ever gains an obstruction, and each start ends with none.  By induction
from the root, every kept packing is a maximal set of live, pairwise
arc-disjoint obstructions.  It need not be the one a fresh greedy finds,
so bounds, prunes, node counts and traces differ from packing afresh at
every node.  The answers do not: neither the reductions nor the branching
rule reads the bound, and a sound prune cuts only subtrees with no leaf
below the cutoff, so a completed search meets the same improving leaves in
the same order and returns the same distance, set and labeling.  A kept
state is a copy of the arc mask and two degree lists, about m + 16n bytes
beside its obstructions; one is kept per branching node on the current
path, shared by its two children on the stack.

The live graph is a ``bytearray`` mask over the arc ids of the Dag's own
tables, with a copy by in-arc position (``in_ids`` order) in which a
vertex's live in-arcs are one slice.  A vertex short of a fork has at most
one free out-arc, so the packing's forward search is a walk, and
``bytearray.find`` over a vertex's contiguous out-arc ids gives a walk's
next arc and a fork's first two.  A hit retires the path, the fork's two
out-arcs and the start's first two free in-arcs directly, with their
degree updates.  When a walk fails, every vertex on it has at most one free
out-arc, leading on to a dead end; free arcs only disappear during a
packing, so none of them can ever reach a fork again.  The packing marks
them dead in a ``bytearray`` of its own, so later walks stop and fail at
them: the count is that of a plain search, failing walks are linear work in
total, and the degrees it leaves behind are true counts for a child to
repair.
"""

from __future__ import annotations

import time
from array import array
from collections import deque
from dataclasses import dataclass
from itertools import chain, compress, islice
from operator import sub
from typing import Callable, Optional

from .analysis import doomed_arcs
from .approx import ApproxResult, approximate_addf
from .graph import ArcSet, Dag
from .labeling import Label, Labeling


def lower_bound(dag: Dag) -> int:
    """Vertex stars, then a greedy obstruction packing; never exceeds the distance.

    A funnel vertex has in-degree at most 1 (Fork) or out-degree at most 1
    (Merge), so a vertex v with ``need(v) = min(in(v), out(v))`` loses at
    least ``need(v) - 1`` of its arcs.  Stars of vertices with ``need >= 3``,
    largest first (ties by id) and skipping neighbors of a star already
    taken, share no arc; each adds ``need - 1`` and takes its arcs away.
    The packing then scans the arcs left in topological order: a vertex
    with two free in-arcs searches forward for one with two free out-arcs
    (possibly itself), and a hit consumes the two in-arcs, the connecting
    path and the two out-arcs and adds one.  Zero exactly on funnels.
    """
    alive = bytearray(b"\x01") * dag.arc_count
    live_in, live_out = _degrees(dag.in_off), _degrees(dag.out_off)
    stars = _stars(dag, alive, live_in, live_out)
    return stars + _pack(dag, alive, live_in, live_out, dag.out_off, dag.in_off, {}, {})


def _stars(dag: Dag, alive, live_in, live_out) -> int:
    """Deletions forced by non-adjacent stars of ``need >= 3``; clears their
    arcs from ``alive`` and the live degrees.  No neighbor of a star is
    taken, so every candidate left keeps its starting degrees."""
    tails, heads = dag.tails, dag.heads
    centers = [
        v for v in range(len(live_in)) if live_in[v] >= 3 and live_out[v] >= 3
    ]
    need = {v: min(live_in[v], live_out[v]) for v in centers}
    centers.sort(key=need.__getitem__, reverse=True)  # stable: ties by id
    blocked = bytearray(len(live_in))
    count = 0
    for v in centers:
        if blocked[v]:
            continue
        count += need[v] - 1
        for a in dag.in_arcs(v):
            alive[a] = 0
            live_out[tails[a]] -= 1
            blocked[tails[a]] = 1
        for a in dag.out_arcs(v):
            alive[a] = 0
            live_in[heads[a]] -= 1
            blocked[heads[a]] = 1
        live_in[v] = live_out[v] = 0
    return count


def _degrees(off) -> list[int]:
    """Per-vertex arc counts from a Dag's ``n + 1`` offset table."""
    return list(map(sub, islice(off, 1, None), off))


def _pack(
    dag: Dag, free, free_in, free_out, out_off, in_off, owner, obs, need=None, starts=None
) -> int:
    """Greedy obstruction count over the arcs set in ``free``.

    ``free`` is a mask over arc ids and ``free_in``/``free_out`` its
    degrees.  A hit takes its arcs out of all three, in place, and is
    recorded in ``obs`` (its arc ids by number, numbered on from the largest
    there) and ``owner`` (its number by arc id).  ``out_off``/``in_off`` are
    the Dag's offset tables or the solver's tuple copies of them.  The
    greedy starts from ``starts`` in order, else from every vertex in
    topological order, and a hit takes the first two free in-arcs and
    out-arcs in id order, so the count depends only on the graph, the mask
    and the starts.  It starts at ``len(obs)`` and stops early, and is
    returned, once it reaches ``need``.
    """
    tails, heads, in_ids = dag.tails, dag.heads, dag.in_ids
    find = free.find
    dead = bytearray(len(free_in))  # a walk from here runs into a dead end
    count, number = len(obs), max(obs, default=0)
    for v in dag.topo_order if starts is None else starts:
        while free_in[v] >= 2 and free_out[v] > 0 and not dead[v]:
            # Short of a fork a vertex has at most one free out-arc, so the
            # forward search is a walk along a single path.
            x, path = v, []
            while free_out[x] == 1 and not dead[x]:
                a = find(1, out_off[x])
                path.append(a)
                x = heads[a]
            if free_out[x] < 2:
                dead[v] = 1
                for a in path:
                    dead[heads[a]] = 1
                break
            count += 1
            if count == need:
                return count
            for a in path:
                free[a] = 0
                free_out[tails[a]] = 0
                free_in[heads[a]] -= 1
            a = find(1, out_off[x])
            b = find(1, a + 1)
            free[a] = free[b] = 0
            path += a, b
            free_out[x] -= 2
            free_in[heads[a]] -= 1
            free_in[heads[b]] -= 1
            free_in[v] -= 2
            taken = 0
            for a in in_ids[in_off[v] : in_off[v + 1]]:
                if free[a]:
                    free[a] = 0
                    free_out[tails[a]] -= 1
                    path.append(a)
                    taken += 1
                    if taken == 2:
                        break
            number += 1
            obs[number] = path
            owner.update(dict.fromkeys(path, number))
    return count


@dataclass
class SolverStats:
    nodes: int = 0
    rr1: int = 0  # labels set by the set-label rule
    rr2: int = 0  # arcs deleted by the satisfy-label rule
    br1: int = 0  # label branches taken
    br2: int = 0  # arc-keep branches; label branching alone finishes, so 0
    pruned: int = 0
    leaves: int = 0
    packs: int = 0  # packings computed at nodes, repairs included
    reused: int = 0  # prunes settled by the parent's surviving obstructions
    repairs: int = 0  # packings repaired from the parent's kept state
    timed_out: bool = False
    lower_bound: Optional[int] = None  # the root's lower_bound, set by solve_addf
    lower_bound_ms: float = 0.0  # the time it took


@dataclass(frozen=True)
class ExactResult:
    distance: int
    deletion_set: ArcSet
    labeling: Labeling
    stats: SolverStats


class Solver:
    """Branch-and-bound state: live arc view, labels, trail, incumbent.

    ``incumbent`` is the starting solution (default: the approximation), and
    ``time_limit_ms`` starts when the solver is built.  :func:`solve_addf`,
    the entry point, builds one only when the root bound leaves a gap.
    """

    def __init__(
        self,
        dag: Dag,
        initial_upper_bound: Optional[int] = None,
        *,
        incumbent: Optional[ApproxResult] = None,
        time_limit_ms: Optional[float] = None,
        trace: Optional[Callable[[str], None]] = None,
    ):
        self.dag = dag
        self.stats = SolverStats()
        self._labels: list[Optional[Label]] = [None] * dag.vertex_count
        self._alive = bytearray(b"\x01") * dag.arc_count  # by arc id
        # The same mask by in-arc position (in_ids order), so that a vertex's
        # live in-arcs are one slice of it; kept in step with _alive.  The
        # positions are an array('i'): a list would keep an int per arc.
        self._alive_in = bytearray(self._alive)
        self._in_pos = array("i", bytes(4 * dag.arc_count))
        for j, a in enumerate(dag.in_ids):
            self._in_pos[a] = j
        self._live_in = _degrees(dag.in_off)
        self._live_out = _degrees(dag.out_off)
        # Each vertex's place in the topological order (the inverse
        # permutation), by which a repair sorts its starts.
        self._position = sorted(dag.vertices(), key=dag.topo_order.__getitem__)
        # Reading an array('i') makes an int object; the per-node kernel reads
        # the offsets from tuples, whose ints exist already.
        self._offsets = tuple(dag.out_off), tuple(dag.in_off)
        self._deleted = 0  # arc ids on the trail
        self._trail: list[int] = []  # arc id a >= 0, or ~v for a label of v
        self._trace = trace
        self._deadline = (
            time.monotonic() + time_limit_ms / 1000.0
            if time_limit_ms is not None
            else None
        )
        if incumbent is None:
            incumbent = approximate_addf(dag)
        self._best_set = incumbent.deletion_set
        self._best_labels = incumbent.labeling
        # Only solutions smaller than this are worth a node.
        self._cutoff = len(self._best_set)
        if initial_upper_bound is not None:
            self._cutoff = min(self._cutoff, initial_upper_bound + 1)

    # ---- bookkeeping ----

    def _undo_to(self, mark: int) -> None:
        while len(self._trail) > mark:
            a = self._trail.pop()
            if a < 0:
                self._labels[~a] = None
            else:
                self._alive[a] = self._alive_in[self._in_pos[a]] = 1
                self._live_out[self.dag.tails[a]] += 1
                self._live_in[self.dag.heads[a]] += 1
                self._deleted -= 1

    # ---- reduction rules ----

    def _reduce(self, v: Optional[int]) -> None:
        """Run both rules to a joint fixpoint, from every vertex at the root
        (``v`` None), else from the vertex ``v`` just labeled."""
        dag, labels, alive, trail = self.dag, self._labels, self._alive, self._trail
        alive_in, in_pos = self._alive_in, self._in_pos
        stats, trace = self.stats, self._trace
        live_in, live_out = self._live_in, self._live_out
        tails, heads, in_tails = dag.tails, dag.heads, dag.in_tails
        find, find_in = alive.find, alive_in.find
        out_off, in_off = self._offsets
        fork, merge = Label.FORK, Label.MERGE

        def ins(v):  # live in-neighbors, in tail order
            lo, hi = in_off[v], in_off[v + 1]
            return compress(in_tails[lo:hi], alive_in[lo:hi])

        def outs(v):  # live out-neighbors, in head order
            lo, hi = out_off[v], out_off[v + 1]
            return compress(heads[lo:hi], alive[lo:hi])

        def wake(xs):
            for x in xs:
                if not queued[x]:
                    queued[x] = 1
                    pending.append(x)

        pending, queued = deque(), bytearray(dag.vertex_count)
        wake(dag.vertices() if v is None else chain((v,), ins(v), outs(v)))
        while pending:
            v = pending.popleft()
            queued[v] = 0
            lab = labels[v]
            # Labeled: the keep-side guard of the module docstring first.
            if lab is fork:
                d = live_in[v]
                if d == 0 or d == 1 and labels[in_tails[find_in(1, in_off[v])]] is not merge:
                    continue
            elif lab is merge:
                d = live_out[v]
                if d == 0 or d == 1 and labels[heads[find(1, out_off[v])]] is not fork:
                    continue
            else:
                # Unlabeled: the set-label rule, Fork cases first.
                ind, outd = live_in[v], live_out[v]
                if ind == 0 or ind == 1 and (
                    labels[in_tails[find_in(1, in_off[v])]] is fork
                    or outd > 1 and None not in map(labels.__getitem__, outs(v))
                ):
                    lab = fork
                elif outd == 0 or outd == 1 and (
                    labels[heads[find(1, out_off[v])]] is merge
                    or ind > 1 and None not in map(labels.__getitem__, ins(v))
                ):
                    lab = merge
                else:
                    continue
                labels[v] = lab
                trail.append(~v)
                stats.rr1 += 1
                if trace is not None:
                    trace(f"rr1 {v} {lab.value}")
                wake(chain((v,), ins(v), outs(v)))
                continue
            for a in doomed_arcs(dag, v, labels, alive):
                u, w = tails[a], heads[a]
                alive[a] = alive_in[in_pos[a]] = 0
                live_out[u] -= 1
                live_in[w] -= 1
                trail.append(a)
                self._deleted += 1
                stats.rr2 += 1
                if trace is not None:
                    trace(f"rr2 {u}->{w}")
                wake((u, w))

    # ---- search ----

    def _check_leaf(self) -> None:
        # Completeness: with no rule or branch applicable, the labeling must
        # be total and the live graph a funnel for it.  A failure here is a
        # solver bug, not a property of the input.
        for v in self.dag.vertices():
            if self._labels[v] is None:
                raise RuntimeError(f"leaf with unlabeled vertex {v}")
            if doomed_arcs(self.dag, v, self._labels, self._alive):
                raise RuntimeError(f"leaf where vertex {v} keeps a doomed arc")

    def _bound(self, parent: Optional[tuple], mark: int, need: int) -> tuple:
        """This node's packing bound, stopped at ``need``, and its packing.

        ``parent`` is the packing of the node that branched (None at the
        root) and ``mark`` the trail length before this node's label.  The
        root packs its live arcs from every vertex.  A child whose parent's
        survivors reach ``need`` returns them with no packing, one whose
        trail since ``mark`` holds no arc returns ``parent`` itself, and any
        other repairs a copy, as the module docstring says.
        """
        stats, dag = self.stats, self.dag
        if parent is None:
            owner, obs, starts = {}, {}, None
            free, free_in, free_out = bytearray(self._alive), self._live_in[:], self._live_out[:]
        else:
            owner, obs, free, free_in, free_out = parent
            deleted = [a for a in self._trail[mark:] if a >= 0]
            lost = {owner[a] for a in deleted if a in owner}
            survivors = len(obs) - len(lost)
            if survivors >= need:
                stats.reused += 1
                return survivors, None
            if not deleted:
                return survivors, parent
            stats.repairs += 1
            tails, heads, in_ids, in_tails = dag.tails, dag.heads, dag.in_ids, dag.in_tails
            free, free_in, free_out = bytearray(free), free_in.copy(), free_out.copy()
            for a in deleted:
                if free[a]:
                    free[a] = 0
                    free_out[tails[a]] -= 1
                    free_in[heads[a]] -= 1
            owner, obs = owner.copy(), obs.copy()
            starts, walk = set(), []
            for i in lost:
                for a in obs.pop(i):
                    del owner[a]
                    if self._alive[a]:
                        free[a] = 1
                        free_out[tails[a]] += 1
                        free_in[heads[a]] += 1
                        starts.add(heads[a])
                        walk.append(tails[a])
            chained, in_off = set(walk), self._offsets[1]
            while walk:
                w = walk.pop()
                lo, hi = in_off[w], in_off[w + 1]
                for a, u in zip(in_ids[lo:hi], in_tails[lo:hi]):
                    if free[a] and free_out[u] == 1 and u not in chained:
                        chained.add(u)
                        walk.append(u)
            starts = sorted(starts | chained, key=self._position.__getitem__)
        stats.packs += 1
        bound = _pack(dag, free, free_in, free_out, *self._offsets, owner, obs, need, starts)
        return bound, (owner, obs, free, free_in, free_out)

    def _node(self, v: Optional[int], mark: int, parent: Optional[tuple]):
        """Reduce from the vertex ``v`` just labeled (None at the root), then
        prune or record a leaf; the vertex to branch on and this node's
        packing, or None.  ``parent`` and ``mark`` are as in :meth:`_bound`."""
        stats, trace = self.stats, self._trace
        stats.nodes += 1
        self._reduce(v)
        size, cutoff = self._deleted, self._cutoff
        if size >= cutoff:
            stats.pruned += 1
            if trace is not None:
                trace(f"prune {size}")
            return None
        bound, packing = self._bound(parent, mark, cutoff - size)
        if size + bound >= cutoff:
            stats.pruned += 1
            if trace is not None:
                trace(f"prune {size}+{bound}")
            return None
        labels = self._labels
        v = next((v for v in self.dag.topo_order if labels[v] is None), None)
        if v is None:
            stats.leaves += 1
            self._check_leaf()
            # Past both prunes, so the leaf beats the incumbent.
            tails, heads = self.dag.tails, self.dag.heads
            self._best_set = frozenset((tails[a], heads[a]) for a in self._trail if a >= 0)
            self._best_labels = Labeling(labels)
            self._cutoff = size
            if trace is not None:
                trace(f"leaf {size}")
                trace(f"best {size}")
            return None
        # Past the deadline a node still reduces and prunes, so a search
        # whose gap is already closed does not report a timeout.
        if self._deadline is not None and time.monotonic() > self._deadline:
            stats.timed_out = True
            return None
        return v, packing

    def run(self) -> ExactResult:
        """Depth-first search from a stack of (trail mark, vertex, label,
        parent packing)."""
        stack: list[tuple[int, int, Label, tuple]] = []
        branch = self._node(None, 0, None)
        while True:
            if branch is not None:
                v, packing = branch
                mark = len(self._trail)
                stack += ((mark, v, Label.MERGE, packing), (mark, v, Label.FORK, packing))
            if not stack or self.stats.timed_out:
                break
            mark, v, lab, packing = stack.pop()
            self._undo_to(mark)
            self._labels[v] = lab
            self._trail.append(~v)
            self.stats.br1 += 1
            if self._trace is not None:
                self._trace(f"br1 {v} {lab.value}")
            branch = self._node(v, mark, packing)
        return ExactResult(
            distance=len(self._best_set),
            deletion_set=self._best_set,
            labeling=self._best_labels.copy(),
            stats=self.stats,
        )


def solve_addf(
    dag: Dag,
    initial_upper_bound: Optional[int] = None,
    *,
    incumbent: Optional[ApproxResult] = None,
    time_limit_ms: Optional[float] = None,
    trace: Optional[Callable[[str], None]] = None,
) -> ExactResult:
    """Minimum arc deletion distance to a funnel, with set and labeling.

    Looks only for solutions below the cutoff: the size of ``incumbent``
    (default: the factor-2 approximation), or ``initial_upper_bound + 1``
    when that is smaller.  A root :func:`lower_bound` (kept in
    ``stats.lower_bound``, its time in ``stats.lower_bound_ms``) that
    reaches the cutoff certifies the incumbent: one pruned node, traced
    ``prune 0+<bound>``.  Otherwise a :class:`Solver` searches.  With a
    time limit, counted from this call's entry, the incumbent so far is
    returned, and ``stats.timed_out`` is set when the search stopped with
    the gap still open; the distance is then only an upper bound.
    """
    entry = time.perf_counter()
    if incumbent is None:
        incumbent = approximate_addf(dag)
    start = time.perf_counter()
    bound = lower_bound(dag)
    now = time.perf_counter()
    cutoff = size = len(incumbent.deletion_set)
    if initial_upper_bound is not None:
        cutoff = min(cutoff, initial_upper_bound + 1)
    if bound >= cutoff:
        if trace is not None:
            trace(f"prune 0+{bound}")
        stats = SolverStats(nodes=1, pruned=1)
        result = ExactResult(size, incumbent.deletion_set, incumbent.labeling.copy(), stats)
    else:
        if time_limit_ms is not None:
            time_limit_ms -= (now - entry) * 1000
        solver = Solver(
            dag, initial_upper_bound, incumbent=incumbent, time_limit_ms=time_limit_ms, trace=trace
        )
        result = solver.run()
    result.stats.lower_bound, result.stats.lower_bound_ms = bound, (now - start) * 1000
    return result
