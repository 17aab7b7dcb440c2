"""DAG core: construction, validation, text IO, condensation, arc deletion.

Vertices are dense integer ids ``0..vertex_count-1``; an arc is a
``(tail, head)`` pair.  A :class:`Dag` validates itself on construction
(simple, acyclic) and precomputes arc-id adjacency tables plus a topological
order, after which it is immutable: every edit returns a new instance, so
values can be shared freely across threads and processes.  Construction
works on two tables, ``tails`` and ``heads``: ``Dag(n, arcs)`` sorts and
unzips its arcs, and :func:`parse_edge_list` reads the tables straight from
the text, building the arc tuples of ``dag.arcs`` only on first read.  Arcs
already in order, as :func:`emit_edge_list` writes them, are not sorted
again.

Edge-list text format: one ``<tail> <head>`` pair per line, ``#`` comments and
blank lines ignored, plus an optional leading header ``p <n> <m>`` declaring
the vertex and arc counts (useful for trailing isolated vertices).  Text in
exactly the form :func:`emit_edge_list` writes is read in bulk; any other
text, and any error, goes through a line loop that names the line at fault.
"""

from __future__ import annotations

import heapq
import re
from array import array
from itertools import accumulate, islice, repeat
from operator import add, eq, floordiv, itemgetter, lt, mod, mul, sub
from typing import IO, Iterable, Optional, Sequence, Union

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


def _first_fault(n: int, arcs: Iterable[Arc]) -> GraphError | ValueError:
    """The error for the first arc, in input order, that is out of range, a
    self-loop or a repeat of an earlier arc."""
    seen: set[Arc] = set()
    for u, v in arcs:
        if not (0 <= u < n and 0 <= v < n):
            return ValueError(f"arc ({u}, {v}) out of range for {n} vertices")
        if u == v:
            return SelfLoop(f"self-loop at vertex {u}")
        if (u, v) in seen:
            return DuplicateArc(f"duplicate arc ({u}, {v})")
        seen.add((u, v))
    raise AssertionError("no faulty arc")


class Dag:
    """Immutable simple DAG kept as read-only arc-id tables.

    An arc's id is its position in the sorted ``arcs``; ``tails[a]`` and
    ``heads[a]`` are its ends.  The out-arcs of ``u`` are the ids
    ``out_off[u]:out_off[u + 1]`` (head order), the in-arcs of ``v`` are
    ``in_ids[in_off[v]:in_off[v + 1]]`` (tail order) and their tails are
    ``in_tails`` over the same range, and neighbor tuples are slices, so
    every traversal of equal Dags is identical.

    Validation reads the tables: the range check is the extreme tails and
    heads, a self-loop is ``tails[a] == heads[a]``, and duplicates are
    adjacent once the arcs are sorted.  Only when one of these fails is the
    input scanned in its given order, so that the error names the same arc
    as a per-arc check would.  ``arc_set``, and ``arcs`` of a Dag parsed
    from text, are built on their first read.

    The topological order is Kahn's with ties broken toward the smallest
    ready id.  Ids are scanned in increasing order; a vertex that becomes
    ready after the scan passed it goes on a min-heap, and the heap is
    drained before the scan moves on.  Everything on the heap is below the
    scan position and every ready vertex not on it is above, so each step
    takes the smallest ready id.  When every arc points to a higher id the
    order is the identity, which one check of the tables returns.
    """

    __slots__ = (
        "_n", "_arcs", "_arc_set", "_topo",
        "tails", "heads", "out_off", "in_off", "in_ids", "in_tails",
    )

    def __init__(self, vertex_count: int, arcs: Iterable[Arc] = ()):
        given = list(map(tuple, arcs))  # arcs given as lists become tuples
        ordered = sorted(given)
        self._build(
            vertex_count,
            tuple(map(itemgetter(0), ordered)),
            tuple(map(itemgetter(1), ordered)),
            given,
        )
        self._arcs = tuple(ordered)

    def _build(
        self,
        vertex_count: int,
        tails: Sequence[int],
        heads: Sequence[int],
        given: Iterable[Arc],
    ) -> None:
        """Validate, sort and index the arc tables ``tails[i] -> heads[i]``.

        ``given`` is the same arcs in input order, which names a faulty one.
        """
        if vertex_count < 0:
            raise ValueError("vertex_count must be non-negative")
        n = self._n = int(vertex_count)
        if tails and (
            min(tails) < 0 or max(tails) >= n or min(heads) < 0 or max(heads) >= n
            or any(map(eq, tails, heads))
        ):
            raise _first_fault(n, given)
        # Arcs in strictly increasing order are sorted and distinct already.
        # Others are sorted by the key tail * n + head, which orders arcs in
        # range as their pairs do.
        if not all(map(lt, zip(tails, heads), zip(tails[1:], heads[1:]))):
            keys = sorted(map(add, map(mul, tails, repeat(n)), heads))
            if any(map(eq, keys, islice(keys, 1, None))):
                raise _first_fault(n, given)
            tails = map(floordiv, keys, repeat(n))
            heads = map(mod, keys, repeat(n))
        tails = self.tails = tuple(tails)
        heads = self.heads = tuple(heads)
        self._arcs: Optional[tuple[Arc, ...]] = None
        self._arc_set: Optional[ArcSet] = None
        self.out_off = _offsets(n, tails)
        self.in_off = _offsets(n, heads)
        # sorted() is stable, so ids with equal heads stay in tail order.
        by_head = sorted(range(len(tails)), key=heads.__getitem__)
        self.in_ids = array("i", by_head)
        self.in_tails = tuple([tails[a] for a in by_head])
        self._topo = self._kahn()

    def _kahn(self) -> tuple[int, ...]:
        n, heads, out_off, in_off = self._n, self.heads, self.out_off, self.in_off
        if all(map(lt, self.tails, heads)):
            return tuple(range(n))  # every arc points up: no id waits on a higher one
        indeg = list(map(sub, islice(in_off, 1, None), in_off))
        order: list[int] = []
        behind: list[int] = []  # min-heap of ready vertices the scan has passed
        for s in range(n):
            if indeg[s]:
                continue
            v = s
            while True:
                order.append(v)
                for w in heads[out_off[v] : out_off[v + 1]]:
                    indeg[w] -= 1
                    if not indeg[w] and w < s:
                        heapq.heappush(behind, w)
                if not behind:
                    break
                v = heapq.heappop(behind)
        if len(order) != n:
            raise CycleDetected("input digraph contains a directed cycle")
        return tuple(order)

    # ---- queries ----

    @property
    def vertex_count(self) -> int:
        return self._n

    @property
    def arc_count(self) -> int:
        return len(self.tails)

    @property
    def arcs(self) -> tuple[Arc, ...]:
        if self._arcs is None:
            self._arcs = tuple(zip(self.tails, self.heads))
        return self._arcs

    @property
    def arc_set(self) -> ArcSet:
        if self._arc_set is None:
            self._arc_set = frozenset(self.arcs)
        return self._arc_set

    @property
    def topo_order(self) -> tuple[int, ...]:
        return self._topo

    def vertices(self) -> range:
        return range(self._n)

    def out_neighbors(self, v: int) -> tuple[int, ...]:
        return self.heads[self.out_off[v] : self.out_off[v + 1]]

    def in_neighbors(self, v: int) -> tuple[int, ...]:
        return self.in_tails[self.in_off[v] : self.in_off[v + 1]]

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
        return (
            self._n == other._n and self.tails == other.tails and self.heads == other.heads
        )

    def __hash__(self) -> int:
        return hash((self._n, self.tails, self.heads))

    def __repr__(self) -> str:
        return f"Dag({self._n}, {list(self.arcs)!r})"


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


# What emit_edge_list writes: an optional header, then "<tail> <head>" lines of
# ASCII digits, each ending in a newline.  Nine digits are enough for any id
# below MAX_VERTICES and keep int() far from its digit limit.
_HEADER = re.compile(r"p ([0-9]{1,9}) ([0-9]{1,9})\n")
_ARC_LINES = re.compile(r"(?:[0-9]{1,9} [0-9]{1,9}\n)*")
# The line loop's id rule: ASCII digits only, so int() never sees "1_0",
# "+0" or non-ASCII digits.  The sign is let through for its own message.
_ID = re.compile(r"-?[0-9]+")
# Plain text is matched and split in blocks of about this many characters:
# a match keeps a backtracking frame per line, which over the 202,256 lines
# of a planted n=10^5 file would take 40 MB.
_BLOCK = 1 << 16


def _read_tables(source: Union[str, bytes, IO]) -> tuple[int, list[int], list[int]]:
    """``(vertex_count, tails, heads)`` of an edge list; see :func:`read_arc_list`."""
    if hasattr(source, "read"):
        source = source.read()
    if isinstance(source, bytes):
        try:
            source = source.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise GraphError(f"invalid UTF-8 at byte {exc.start}") from None
    return _read_plain(source) or _read_lines(source)


def _read_plain(text: str) -> Optional[tuple[int, list[int], list[int]]]:
    """The tables of plain text, read in bulk: per block one format check,
    one split and one int conversion.  ``None`` when the text is not plain
    or breaks a rule, so that the line loop can name the line at fault."""
    header = _HEADER.match(text)
    start = header.end() if header else 0
    ids: list[int] = []
    while start < len(text):
        end = text.find("\n", start + _BLOCK) + 1 or len(text)
        if not _ARC_LINES.fullmatch(text, start, end):
            return None
        ids += map(int, text[start:end].split())
        start = end
    top = max(ids, default=-1)
    tails, heads = ids[0::2], ids[1::2]
    if header is None:
        return (top + 1, tails, heads) if top < MAX_VERTICES else None
    n, m = map(int, header.groups())
    return (n, tails, heads) if n <= MAX_VERTICES and top < n and len(tails) == m else None


def _int(text: str) -> int:
    """``text`` as an int; ValueError unless it matches ``_ID``."""
    if not _ID.fullmatch(text):
        raise ValueError(text)
    return int(text)


def _read_lines(source: str) -> tuple[int, list[int], list[int]]:
    """The tables of any edge list, every rule checked line by line."""
    tails: list[int] = []
    heads: list[int] = []
    declared: Optional[tuple[int, int]] = None
    limit = MAX_VERTICES  # ids stay below this, or below the declared count
    header_line = 0
    for line_no, raw in enumerate(source.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if fields[0] == "p":
            if declared is not None or tails:
                raise MalformedLine(line_no, "unexpected header")
            if len(fields) != 3:
                raise MalformedLine(line_no, "expected 'p <n> <m>'")
            try:
                declared = (_int(fields[1]), _int(fields[2]))
            except ValueError:
                raise MalformedLine(line_no, "expected 'p <n> <m>'") from None
            if not 0 <= declared[0] <= MAX_VERTICES:
                raise MalformedLine(line_no, f"vertex count not in 0..{MAX_VERTICES}")
            limit, header_line = declared[0], line_no
            continue
        if len(fields) != 2:
            raise MalformedLine(line_no, f"expected '<tail> <head>', got {line!r}")
        try:
            u, v = _int(fields[0]), _int(fields[1])
        except ValueError:
            raise MalformedLine(line_no, f"non-integer vertex id in {line!r}") from None
        if u < 0 or v < 0:
            raise MalformedLine(line_no, "vertex ids must be non-negative")
        if u >= limit or v >= limit:
            what = "declared count" if declared else "vertex limit"
            raise MalformedLine(line_no, f"vertex id beyond {what} {limit}")
        tails.append(u)
        heads.append(v)
    if declared is not None:
        if len(tails) != declared[1]:
            raise MalformedLine(
                header_line, f"header declares {declared[1]} arcs, found {len(tails)}"
            )
        return declared[0], tails, heads
    return max(max(tails, default=-1), max(heads, default=-1)) + 1, tails, heads


def read_arc_list(source: Union[str, bytes, IO]) -> tuple[int, list[Arc]]:
    """Tolerant edge-list reader: returns ``(vertex_count, arcs)``.

    Only syntax is validated here; duplicates, self-loops and cycles pass
    through untouched (the condensation entry point wants them).  The header,
    when present, must agree with the ids and arc count that follow, and the
    vertex count may not exceed :data:`MAX_VERTICES`.  Bytes must be UTF-8.
    """
    n, tails, heads = _read_tables(source)
    return n, list(zip(tails, heads))


def parse_edge_list(source: Union[str, bytes, IO]) -> Dag:
    """Strict edge-list parser; the input must already be a simple DAG.

    Goes from text to the arc tables without building an arc tuple.
    """
    n, tails, heads = _read_tables(source)
    dag = Dag.__new__(Dag)
    dag._build(n, tails, heads, zip(tails, heads))
    return dag


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
