"""DAG core: construction, validation, text IO, condensation, arc deletion.

Vertices are dense integer ids ``0..vertex_count-1``; an arc is a
``(tail, head)`` pair.  A :class:`Dag` validates itself on construction
(simple, acyclic) and precomputes arc-id adjacency tables plus a topological
order, after which it is immutable: every edit returns a new instance, so
values can be shared freely across threads and processes.  Construction
works on two tables, ``tails`` and ``heads``: ``Dag(n, arcs)`` unzips its
arcs, :func:`parse_edge_list` reads the tables straight from the text and
:func:`dag_from_keys` sorts and decodes the keys ``tail * n + head``.
Tables out of order are sorted by that key; arcs already in order, as
:func:`emit_edge_list` writes them, are not sorted again.  The arc tuples of
``dag.arcs`` are built only on first read.  Vertex ids are checked once,
where they come in: the count must be an integer, ``Dag(n, arcs)`` and
:func:`dag_from_keys` check the range of their ids and the readers keep
every id in ``range(n)``.  The build trusts its tables and checks only
self-loops, repeats and cycles.

Memory: tables of vertex ids share one int object per vertex, tables of arc
ids are ``array('i')``s (see :class:`Dag`), the reader holds the ids it reads
in arrays and :func:`parse_edge_list` lets go of the text before the build.
A load of n = 10^5 vertices and m = 2*10^5 arcs peaks at about 68 bytes per
arc; the Dag keeps 52.

Edge-list text format: one ``<tail> <head>`` pair per line, ``#`` comments and
blank lines ignored, plus an optional leading header ``p <n> <m>`` declaring
the vertex and arc counts (useful for trailing isolated vertices).  Text in
exactly the form :func:`emit_edge_list` writes is read in bulk; any other
text, and any error, goes through a line loop that names the line at fault.
"""

from __future__ import annotations

import heapq
import json
import re
from array import array
from bisect import bisect_left
from itertools import accumulate, compress, islice, repeat
from operator import add, eq, floordiv, index, itemgetter, mod, mul, sub
from typing import IO, Iterable, Optional, Sequence, Union

from .labeling import Labeling, ascii_int

Arc = tuple[int, int]
ArcSet = frozenset[Arc]

# Largest vertex count a file may declare or imply, checked before allocating.
MAX_VERTICES = 10**7
MAX_GRID_ROWS = 10**5  # most rows of a benchmark grid, checked before listing any


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


def _first_fault(n: int, arcs: Iterable[Arc]) -> GraphError | ValueError:
    """The error for the first arc, in input order, that is no pair, out of
    range, a self-loop or a repeat of an earlier arc."""
    seen: set[Arc] = set()
    for arc in arcs:
        if len(arc) != 2:
            return ValueError(f"arc {arc} is not a (tail, head) pair")
        u, v = arc
        if not (0 <= u < n and 0 <= v < n):
            return ValueError(f"arc ({u}, {v}) out of range for {n} vertices")
        if u == v:
            return SelfLoop(f"self-loop at vertex {u}")
        if (u, v) in seen:
            return DuplicateArc(f"duplicate arc ({u}, {v})")
        seen.add((u, v))
    raise AssertionError("no faulty arc")


def _vertex_count(vertex_count: int) -> int:
    """``vertex_count`` as an int; a float or a string raises ``TypeError``."""
    if (n := index(vertex_count)) < 0:
        raise ValueError("vertex_count must be non-negative")
    return n


class Dag:
    """Immutable simple DAG kept as read-only arc-id tables.

    An arc's id is its position in the sorted ``arcs``; ``tails[a]`` and
    ``heads[a]`` are its ends.  The out-arcs of ``u`` are the ids
    ``out_off[u]:out_off[u + 1]`` (head order), the in-arcs of ``v`` are
    ``in_ids[in_off[v]:in_off[v + 1]]`` (tail order) and their tails are
    ``in_tails`` over the same range, and neighbor tuples are slices, so
    every traversal of equal Dags is identical.

    ``Dag(n, arcs)`` checks that its arcs are pairs of ids in ``range(n)``.
    The build is one pass that counts the degrees (the offsets are their
    prefix sums) and notes whether the pairs strictly increase and all point
    up; such arcs are sorted, distinct and free of self-loops.  Other input
    is also checked for self-loops and sorted by the key ``tail * n + head``.
    A failing input is scanned again in its given order, so that the error
    names the same arc as a per-arc check would.  ``arcs`` and ``arc_set``
    are built on their first read.

    The topological order is Kahn's, each step taking the smallest ready id
    off one min-heap.  When every arc points to a higher id that order is
    the identity, which the validation pass has seen.

    The tables hold vertex ids or arc ids.  The vertex-valued ones,
    ``tails``, ``heads``, ``in_tails`` and the topological order, are tuples
    that take their ids from one list ``vid`` once the arcs are checked
    (sorted keys are decoded through it too), so they share one int object
    per vertex.  The arc-id-valued ones, ``out_off``, ``in_off`` and
    ``in_ids``, are ``array('i')``s: 4 bytes an entry and no int objects,
    but every read makes an int, so the exact solver's per-node kernel
    reads tuple copies of the offsets.  At n = 10^5 and m = 2*10^5 a Dag
    keeps about 52 bytes per arc.  ``in_ids`` is a counting sort: arc ids
    are dealt, in order, into the range ``in_off`` gives each head, so they
    stay in tail order, as a stable sort by head would leave them, without
    a list of m ids.
    """

    __slots__ = (
        "_n", "_arcs", "_arc_set", "_topo",
        "tails", "heads", "out_off", "in_off", "in_ids", "in_tails",
    )

    def __init__(self, vertex_count: int, arcs: Iterable[Arc] = ()):
        n = _vertex_count(vertex_count)
        given = list(map(tuple, arcs))  # arcs given as lists become tuples
        if any(map((2).__ne__, map(len, given))):
            raise _first_fault(n, given)
        tails = tuple(map(itemgetter(0), given))
        heads = tuple(map(itemgetter(1), given))
        if given and (min(tails) < 0 or max(tails) >= n or min(heads) < 0 or max(heads) >= n):
            raise _first_fault(n, given)
        self._build(n, tails, heads)

    def _build(
        self, n: int, tails: Sequence[int], heads: Sequence[int], keys: Optional[list[int]] = None
    ) -> None:
        """Sort, check and index the arcs ``tails[i] -> heads[i]``, or ``keys``,
        whose ids the caller has kept in ``range(n)``."""
        self._n = n
        vid = list(range(n))  # the one int object of each vertex
        if keys is not None:
            tails = tuple(map(vid.__getitem__, map(floordiv, keys, repeat(n))))
            heads = tuple(map(vid.__getitem__, map(mod, keys, repeat(n))))
        # One pass counts the degrees and sees whether the pairs strictly
        # increase and whether every arc points up.
        out_deg, in_deg = [0] * n, [0] * n
        ordered = up = True
        pu = pv = -1
        for u, v in zip(tails, heads):
            out_deg[u] += 1
            in_deg[v] += 1
            if u >= v:
                up = False
            if u < pu or u == pu and v <= pv:
                ordered = False
            pu, pv = u, v
        if not up and any(map(eq, tails, heads)):
            raise _first_fault(n, zip(tails, heads))
        # Arcs out of order are sorted by the key tail * n + head, which
        # orders arcs in range as their pairs do, so that a duplicate shows
        # as two equal keys.  The counts hold in any order.
        if not ordered:
            keys = sorted(map(add, map(mul, tails, repeat(n)), heads))
            if any(map(eq, keys, islice(keys, 1, None))):
                raise _first_fault(n, zip(tails, heads))
            tails = tuple(map(vid.__getitem__, map(floordiv, keys, repeat(n))))
            heads = tuple(map(vid.__getitem__, map(mod, keys, repeat(n))))
        elif keys is None:
            tails = tuple(map(vid.__getitem__, tails))
            heads = tuple(map(vid.__getitem__, heads))
        self.tails, self.heads = tails, heads
        self._arcs: Optional[tuple[Arc, ...]] = None
        self._arc_set: Optional[ArcSet] = None
        self.out_off = array("i", accumulate(out_deg, initial=0))
        in_off = self.in_off = array("i", accumulate(in_deg, initial=0))
        del out_deg, in_deg
        in_ids = self.in_ids = array("i", bytes(4 * len(heads)))
        free = array("i", in_off)  # each head's next free slot in in_ids
        for a, v in enumerate(heads):
            i = free[v]
            in_ids[i] = a
            free[v] = i + 1
        del free  # not held while in_tails is built, the peak of the build
        self.in_tails = tuple([tails[a] for a in in_ids])
        self._topo = tuple(vid) if up else self._kahn(vid)

    def _kahn(self, vid: list[int]) -> tuple[int, ...]:
        n, heads, out_off, in_off = self._n, self.heads, self.out_off, self.in_off
        indeg = list(map(sub, islice(in_off, 1, None), in_off))
        ready = [v for v in vid if not indeg[v]]  # sorted, hence a heap
        order: list[int] = []
        while ready:
            v = heapq.heappop(ready)
            order.append(v)
            for w in heads[out_off[v] : out_off[v + 1]]:
                indeg[w] -= 1
                if not indeg[w]:
                    heapq.heappush(ready, w)
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
            self._arc_set = frozenset(zip(self.tails, self.heads))
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


def _arc_id(dag: Dag, arc: Arc) -> int:
    """The id of ``arc``: a bisection of the heads of its tail's out-arcs.

    Raises :class:`ArcNotPresent` when ``dag`` has no such arc, also for an
    arc that is no pair of ints in range.
    """
    try:
        u, v = arc
        if 0 <= u < dag.vertex_count:
            hi = dag.out_off[u + 1]
            a = bisect_left(dag.heads, v, dag.out_off[u], hi)
            if a < hi and dag.heads[a] == v:
                return a
    except (TypeError, ValueError):
        pass
    raise ArcNotPresent(f"arc {arc} not present")


def delete_arcs(dag: Dag, arcs: Iterable[Arc]) -> Dag:
    """Return a copy of ``dag`` without the given arcs.

    Raises :class:`ArcNotPresent` if any requested arc is missing.  Arcs are
    looked up by id, so neither ``dag.arcs`` nor ``dag.arc_set`` is built.
    """
    kept = bytearray(b"\x01") * dag.arc_count
    for arc in arcs:
        kept[_arc_id(dag, arc)] = 0
    # A subset of a Dag's sorted tables is sorted, simple and acyclic.
    tails, heads = tuple(compress(dag.tails, kept)), tuple(compress(dag.heads, kept))
    rest = Dag.__new__(Dag)
    rest._build(dag.vertex_count, tails, heads)
    return rest


# What emit_edge_list writes: an optional header, then "<tail> <head>" lines of
# ASCII digits, each ending in a newline.  Nine digits are enough for any
# count up to MAX_VERTICES and keep int() far from its digit limit.
_HEADER = re.compile(r"p ([0-9]{1,9}) ([0-9]{1,9})\n")
_NO_DIGITS = str.maketrans("", "", "0123456789")
# Plain text is checked and parsed in blocks of about this many characters,
# so that a JSON list holds the ids of one block, not of the file.
_BLOCK = 1 << 16


def _read_tables(source: Union[str, bytes, IO]) -> tuple[int, Sequence[int], Sequence[int]]:
    """``(vertex_count, tails, heads)`` of an edge list; see :func:`read_arc_list`."""
    if hasattr(source, "read"):
        source = source.read()
    if isinstance(source, bytes):
        try:
            source = source.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise GraphError(f"invalid UTF-8 at byte {exc.start}") from None
    return _read_plain(source) or _read_lines(source)


def _read_plain(text: str) -> Optional[tuple[int, array, array]]:
    """The tables of plain text as ``array('i')``s: per block one format check
    and one JSON scan.  ``None`` when the text is not plain or breaks a rule
    (JSON rejects leading zeros), so that the line loop can name the line."""
    header = _HEADER.match(text)
    start = header.end() if header else 0
    ids = array("i")
    top = -1
    while start < len(text):
        end = text.find("\n", start + _BLOCK) + 1 or len(text)
        lines = text[start:end]
        # Without their digits, plain lines leave " \n" each; JSON then
        # rejects a missing id.
        if lines[-1] != "\n" or lines.translate(_NO_DIGITS) != " \n" * lines.count("\n"):
            return None
        try:
            block = json.loads("[" + lines[:-1].replace(" ", ",").replace("\n", ",") + "]")
            ids.fromlist(block)
        except (ValueError, OverflowError):  # OverflowError: an id of 2^31 or more
            return None
        top = max(top, max(block))
        start = end
    tails, heads = ids[0::2], ids[1::2]
    if header is None:
        return (top + 1, tails, heads) if top < MAX_VERTICES else None
    n, m = map(int, header.groups())
    return (n, tails, heads) if n <= MAX_VERTICES and top < n and len(tails) == m else None


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
                declared = (ascii_int(fields[1]), ascii_int(fields[2]))
            except ValueError:
                raise MalformedLine(line_no, "expected 'p <n> <m>'") from None
            if not 0 <= declared[0] <= MAX_VERTICES:
                raise MalformedLine(line_no, f"vertex count not in 0..{MAX_VERTICES}")
            limit, header_line = declared[0], line_no
            continue
        if len(fields) != 2:
            raise MalformedLine(line_no, f"expected '<tail> <head>', got {line!r}")
        try:
            u, v = ascii_int(fields[0]), ascii_int(fields[1])
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

    Goes from text to the arc tables without building an arc tuple, and
    drops ``source`` before the build: text read from a file is gone by then,
    and so is a text argument unless the caller holds it (3.10 always does).
    """
    n, tails, heads = _read_tables(source)
    del source
    dag = Dag.__new__(Dag)
    dag._build(n, tails, heads)
    return dag


def dag_from_keys(n: int, keys: Iterable[int]) -> Dag:
    """The Dag on ``n`` vertices whose arcs have the keys ``tail * n + head``."""
    n = _vertex_count(n)
    keys = sorted(keys)
    if keys and not 0 <= keys[0] <= keys[-1] < n * n:
        raise _first_fault(n, map(divmod, keys, repeat(n)))
    dag = Dag.__new__(Dag)
    dag._build(n, (), (), keys)
    return dag


def emit_edge_list(dag: Dag) -> str:
    """Edge-list text with a ``p <n> <m>`` header; parses back to an equal Dag."""
    lines = [f"p {dag.vertex_count} {dag.arc_count}"]
    lines.extend(f"{u} {v}" for u, v in zip(dag.tails, dag.heads))
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
        _vertex_count(vertex_count)
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

    # Iterative Tarjan over frames (vertex, iterator over its out-neighbors).
    # A vertex found but not yet closed into a component is on the stack.
    # Components close in reverse topological order.
    found = 0
    disc = [-1] * n
    low = [0] * n
    closed = [-1] * n  # the closing count of each vertex's component
    stack: list[int] = []
    n_comps = 0
    for root in range(n):
        if disc[root] != -1:
            continue
        work = [(root, iter(adj[root]))]
        while work:
            v, nbrs = work[-1]
            if disc[v] == -1:
                disc[v] = low[v] = found
                found += 1
                stack.append(v)
            for w in nbrs:
                if disc[w] == -1:
                    work.append((w, iter(adj[w])))
                    break
                if closed[w] == -1:
                    low[v] = min(low[v], disc[w])
            else:
                work.pop()
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[v])
                if low[v] == disc[v]:
                    while closed[v] == -1:
                        closed[stack.pop()] = n_comps
                    n_comps += 1

    comp = [n_comps - 1 - closed[v] for v in range(n)]
    condensed = {(comp[u], comp[v]) for u, v in arcs if comp[u] != comp[v]}
    return Dag(n_comps, condensed), comp


def emit_dot(
    dag: Dag,
    highlight: Iterable[Arc] = (),
    labeling: Optional[Labeling] = None,
) -> str:
    """Render as DOT.  Highlighted arcs are dashed; labels annotate nodes."""
    marked = {_arc_id(dag, arc) for arc in highlight}
    lines = ["digraph {"]
    for v in dag.vertices():
        if labeling is not None and labeling[v] is not None:
            lines.append(f'  {v} [label="{v}:{labeling[v].value}"];')
        else:
            lines.append(f"  {v};")
    for a, (u, v) in enumerate(zip(dag.tails, dag.heads)):
        style = " [style=dashed]" if a in marked else ""
        lines.append(f"  {u} -> {v}{style};")
    lines.append("}")
    return "\n".join(lines) + "\n"
