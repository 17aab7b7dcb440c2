"""DAG core: construction, validation, text IO, condensation, arc deletion.

Vertices are dense integer ids ``0..vertex_count-1``; an arc is a
``(tail, head)`` pair.  A :class:`Dag` validates itself on construction
(simple, acyclic) and precomputes arc-id adjacency tables plus a topological
order, after which it is immutable: every edit returns a new instance, so
values can be shared freely across threads and processes.

Edge-list text format: one ``<tail> <head>`` pair per line, ``#`` comments and
blank lines ignored, plus an optional leading header ``p <n> <m>`` declaring
the vertex and arc counts (useful for trailing isolated vertices).
"""

from __future__ import annotations

import heapq
from array import array
from itertools import accumulate
from operator import itemgetter
from typing import IO, Iterable, Optional, Union

from .labeling import Labeling

Arc = tuple[int, int]
ArcSet = frozenset[Arc]

# Largest vertex count a file may declare or imply, checked before allocating.
MAX_VERTICES = 10**7


class GraphError(Exception):
    """Base error for graph construction and parsing."""


class SelfLoop(GraphError):
    pass


class DuplicateArc(GraphError):
    pass


class CycleDetected(GraphError):
    pass


class ArcNotPresent(GraphError):
    pass


class MalformedLine(GraphError):
    """Syntax error in an edge-list file; carries the 1-based line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


def _offsets(n: int, ends: Iterable[int]) -> tuple[int, ...]:
    """Prefix sums of the arc counts per vertex: ``n + 1`` range bounds."""
    counts = [0] * n
    for x in ends:
        counts[x] += 1
    return tuple(accumulate(counts, initial=0))


class Dag:
    """Immutable simple DAG kept as read-only arc-id tables.

    An arc's id is its position in the sorted ``arcs``; ``tails[a]`` and
    ``heads[a]`` are its ends.  The out-arcs of ``u`` are the ids
    ``out_off[u]:out_off[u + 1]`` (head order), the in-arcs of ``v`` are
    ``in_ids[in_off[v]:in_off[v + 1]]`` (tail order), and neighbor tuples are
    slices, so every traversal of equal Dags is identical.  The topological
    order comes from Kahn's algorithm with a min-id heap: ties always break
    toward the smallest vertex id.
    """

    __slots__ = (
        "_n", "_arcs", "_arc_set", "_topo",
        "tails", "heads", "out_off", "in_off", "in_ids", "_in_tails",
    )

    def __init__(self, vertex_count: int, arcs: Iterable[Arc] = ()):
        if vertex_count < 0:
            raise ValueError("vertex_count must be non-negative")
        n = self._n = int(vertex_count)
        seen: set[Arc] = set()
        for u, v in arcs:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"arc ({u}, {v}) out of range for {n} vertices")
            if u == v:
                raise SelfLoop(f"self-loop at vertex {u}")
            if (u, v) in seen:
                raise DuplicateArc(f"duplicate arc ({u}, {v})")
            seen.add((u, v))
        self._arcs = tuple(sorted(seen))
        self._arc_set = frozenset(seen)
        self.tails = tuple(map(itemgetter(0), self._arcs))
        self.heads = tuple(map(itemgetter(1), self._arcs))
        self.out_off = _offsets(n, self.tails)
        self.in_off = _offsets(n, self.heads)
        # sorted() is stable, so ids with equal heads stay in tail order.
        by_head = sorted(range(len(self._arcs)), key=self.heads.__getitem__)
        self.in_ids = array("i", by_head)
        # Tails in in_ids order, so that in_neighbors is a slice as well.
        self._in_tails = tuple(map(self.tails.__getitem__, by_head))
        self._topo = self._kahn()

    def _kahn(self) -> tuple[int, ...]:
        heads, out_off, in_off = self.heads, self.out_off, self.in_off
        indeg = [in_off[v + 1] - in_off[v] for v in range(self._n)]
        ready = [v for v in range(self._n) if indeg[v] == 0]
        heapq.heapify(ready)
        order: list[int] = []
        while ready:
            v = heapq.heappop(ready)
            order.append(v)
            for w in heads[out_off[v] : out_off[v + 1]]:
                indeg[w] -= 1
                if indeg[w] == 0:
                    heapq.heappush(ready, w)
        if len(order) != self._n:
            raise CycleDetected("input digraph contains a directed cycle")
        return tuple(order)

    # ---- queries ----

    @property
    def vertex_count(self) -> int:
        return self._n

    @property
    def arc_count(self) -> int:
        return len(self._arcs)

    @property
    def arcs(self) -> tuple[Arc, ...]:
        return self._arcs

    @property
    def arc_set(self) -> ArcSet:
        return self._arc_set

    @property
    def topo_order(self) -> tuple[int, ...]:
        return self._topo

    def vertices(self) -> range:
        return range(self._n)

    def out_neighbors(self, v: int) -> tuple[int, ...]:
        return self.heads[self.out_off[v] : self.out_off[v + 1]]

    def in_neighbors(self, v: int) -> tuple[int, ...]:
        return self._in_tails[self.in_off[v] : self.in_off[v + 1]]

    def out_degree(self, v: int) -> int:
        return self.out_off[v + 1] - self.out_off[v]

    def in_degree(self, v: int) -> int:
        return self.in_off[v + 1] - self.in_off[v]

    def out_arcs(self, v: int) -> range:
        """Ids of the out-arcs of ``v``, in head order."""
        return range(self.out_off[v], self.out_off[v + 1])

    def in_arcs(self, v: int) -> array:
        """Ids of the in-arcs of ``v``, in tail order."""
        return self.in_ids[self.in_off[v] : self.in_off[v + 1]]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Dag):
            return NotImplemented
        return self._n == other._n and self._arcs == other._arcs

    def __hash__(self) -> int:
        return hash((self._n, self._arcs))

    def __repr__(self) -> str:
        return f"Dag({self._n}, {list(self._arcs)!r})"


def topological_order(dag: Dag) -> tuple[int, ...]:
    """Deterministic topological order (Kahn, min-id tie-break)."""
    return dag.topo_order


def delete_arcs(dag: Dag, arcs: Iterable[Arc]) -> Dag:
    """Return a copy of ``dag`` without the given arcs.

    Raises :class:`ArcNotPresent` if any requested arc is missing.
    """
    gone = frozenset(arcs)
    for arc in gone:
        if arc not in dag.arc_set:
            raise ArcNotPresent(f"arc {arc} not present")
    return Dag(dag.vertex_count, [a for a in dag.arcs if a not in gone])


def read_arc_list(source: Union[str, bytes, IO]) -> tuple[int, list[Arc]]:
    """Tolerant edge-list reader: returns ``(vertex_count, arcs)``.

    Only syntax is validated here; duplicates, self-loops and cycles pass
    through untouched (the condensation entry point wants them).  The header,
    when present, must agree with the ids and arc count that follow, and the
    vertex count may not exceed :data:`MAX_VERTICES`.
    """
    if hasattr(source, "read"):
        source = source.read()
    if isinstance(source, bytes):
        source = source.decode("utf-8")
    arcs: list[Arc] = []
    declared: Optional[tuple[int, int]] = None
    limit = MAX_VERTICES  # ids stay below this, or below the declared count
    header_line = 0
    for line_no, raw in enumerate(source.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if fields[0] == "p":
            if declared is not None or arcs:
                raise MalformedLine(line_no, "unexpected header")
            if len(fields) != 3:
                raise MalformedLine(line_no, "expected 'p <n> <m>'")
            try:
                declared = (int(fields[1]), int(fields[2]))
            except ValueError:
                raise MalformedLine(line_no, "expected 'p <n> <m>'") from None
            if not 0 <= declared[0] <= MAX_VERTICES:
                raise MalformedLine(line_no, f"vertex count not in 0..{MAX_VERTICES}")
            limit, header_line = declared[0], line_no
            continue
        if len(fields) != 2:
            raise MalformedLine(line_no, f"expected '<tail> <head>', got {line!r}")
        try:
            u, v = int(fields[0]), int(fields[1])
        except ValueError:
            raise MalformedLine(line_no, f"non-integer vertex id in {line!r}") from None
        if u < 0 or v < 0:
            raise MalformedLine(line_no, "vertex ids must be non-negative")
        if u >= limit or v >= limit:
            what = "declared count" if declared else "vertex limit"
            raise MalformedLine(line_no, f"vertex id beyond {what} {limit}")
        arcs.append((u, v))
    if declared is not None:
        if len(arcs) != declared[1]:
            raise MalformedLine(
                header_line, f"header declares {declared[1]} arcs, found {len(arcs)}"
            )
        return declared[0], arcs
    n = max((max(u, v) for u, v in arcs), default=-1) + 1
    return n, arcs


def parse_edge_list(source: Union[str, bytes, IO]) -> Dag:
    """Strict edge-list parser; the input must already be a simple DAG."""
    n, arcs = read_arc_list(source)
    return Dag(n, arcs)


def emit_edge_list(dag: Dag) -> str:
    """Edge-list text with a ``p <n> <m>`` header; parses back to an equal Dag."""
    lines = [f"p {dag.vertex_count} {dag.arc_count}"]
    lines.extend(f"{u} {v}" for u, v in dag.arcs)
    return "\n".join(lines) + "\n"


def condense_scc(
    arcs: Iterable[Arc], vertex_count: Optional[int] = None
) -> tuple[Dag, list[int]]:
    """Contract strongly connected components of a raw digraph into a Dag.

    Accepts arbitrary (cyclic, non-simple) arc lists.  Self-loops and the
    duplicates arising from contraction are dropped.  Components are numbered
    in topological order of the condensation, so the returned map is stable
    for a given input.
    """
    arcs = list(arcs)
    n = (
        int(vertex_count)
        if vertex_count is not None
        else max((max(u, v) for u, v in arcs), default=-1) + 1
    )
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in arcs:
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"arc ({u}, {v}) out of range for {n} vertices")
        adj[u].append(v)
    for lst in adj:
        lst.sort()

    # Iterative Tarjan; components are emitted in reverse topological order.
    next_index = 0
    disc = [-1] * n
    low = [0] * n
    on_stack = [False] * n
    stack: list[int] = []
    emitted = [-1] * n
    n_comps = 0
    for root in range(n):
        if disc[root] != -1:
            continue
        work: list[list[int]] = [[root, 0]]
        while work:
            frame = work[-1]
            v, pi = frame
            if pi == 0:
                disc[v] = low[v] = next_index
                next_index += 1
                stack.append(v)
                on_stack[v] = True
            descended = False
            nbrs = adj[v]
            while pi < len(nbrs):
                w = nbrs[pi]
                pi += 1
                if disc[w] == -1:
                    frame[1] = pi
                    work.append([w, 0])
                    descended = True
                    break
                if on_stack[w]:
                    low[v] = min(low[v], disc[w])
            if descended:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[v])
            if low[v] == disc[v]:
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    emitted[w] = n_comps
                    if w == v:
                        break
                n_comps += 1

    comp = [n_comps - 1 - emitted[v] for v in range(n)]
    condensed = {(comp[u], comp[v]) for u, v in arcs if comp[u] != comp[v]}
    return Dag(n_comps, condensed), comp


def emit_dot(
    dag: Dag,
    highlight: Iterable[Arc] = (),
    labeling: Optional[Labeling] = None,
) -> str:
    """Render as DOT.  Highlighted arcs are dashed; labels annotate nodes."""
    marked = frozenset(highlight)
    for arc in marked:
        if arc not in dag.arc_set:
            raise ArcNotPresent(f"arc {arc} not present")
    lines = ["digraph {"]
    for v in dag.vertices():
        if labeling is not None and labeling[v] is not None:
            lines.append(f'  {v} [label="{v}:{labeling[v].value}"];')
        else:
            lines.append(f"  {v};")
    for u, v in dag.arcs:
        style = " [style=dashed]" if (u, v) in marked else ""
        lines.append(f"  {u} -> {v}{style};")
    lines.append("}")
    return "\n".join(lines) + "\n"
