"""Instance generators: planted funnels, noise arcs, 3-SAT hardness gadgets.

All randomness comes from SplitMix64 seeded explicitly, never from the
platform default generator, so any instance is reproducible bit-for-bit from
its parameters on any machine or Python version.

Cross arcs and noise arcs come from one sampler, ``_forward_pairs``: both
draw forward pairs ``r < c`` from rows x cols minus the pairs already taken.
One request draws at most ``MAX_VERTICES`` arcs, checked before its pool is
built.  Noise is added only to DAGs whose arcs all run forward in the vertex
order, the order every generated funnel has.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from operator import ge
from typing import AbstractSet, Optional, Sequence

from .graph import MAX_VERTICES, Arc, Dag
from .labeling import Label, Labeling

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


class NotEnoughSlots(Exception):
    """More arcs requested than absent forward pairs available."""


class InvalidFormula(Exception):
    """Clause list violates the strict 3-CNF shape."""


class SplitMix64:
    """SplitMix64: a fixed, portable 64-bit generator.

    The usual constants (Steele, Lea, Flood 2014); state advances by the
    golden gamma and the output is a finalizing hash of the state.
    """

    __slots__ = ("_state",)

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + _GOLDEN) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def below(self, n: int) -> int:
        """Uniform integer in [0, n), rejection-sampled to avoid modulo bias."""
        if n <= 0:
            raise ValueError("need a positive range")
        threshold = (1 << 64) - ((1 << 64) % n)
        while True:
            x = self.next_u64()
            if x < threshold:
                return x % n


def derive_seed(base: int, index: int) -> int:
    """Stable per-instance seed for suites driven by one base seed."""
    return SplitMix64((base + index * _GOLDEN) & _MASK64).next_u64()


@dataclass(frozen=True)
class GenParams:
    """Planted-funnel parameters: size, cross-arc density, noise arcs, seed."""

    n: int
    p: float
    s: int
    seed: int

    def __post_init__(self):
        if not 1 <= self.n <= MAX_VERTICES:
            raise ValueError(f"vertex count must lie in 1..{MAX_VERTICES}")
        if not 0.0 <= self.p <= 1.0:
            raise ValueError("density must lie in [0, 1]")
        if self.s < 0:
            raise ValueError("noise arc count must be non-negative")
        if not 0 <= self.seed <= _MASK64:
            raise ValueError("seed must lie in 0..2**64-1")


def _planted_arcs(params: GenParams) -> tuple[list[Arc], list[Label]]:
    """The arcs and labels of the planted funnel of ``params``."""
    rng = SplitMix64(params.seed)
    n = params.n
    labels = [Label.FORK if rng.below(2) == 0 else Label.MERGE for _ in range(n)]
    forks = [v for v in range(n) if labels[v] is Label.FORK]
    merges = [v for v in range(n) if labels[v] is Label.MERGE]

    arcs: list[Arc] = []
    for i, v in enumerate(forks):
        if i and (r := rng.below(i + 1)):
            arcs.append((forks[r - 1], v))
    for i, v in enumerate(reversed(merges)):
        if i and (r := rng.below(i + 1)):
            arcs.append((v, merges[len(merges) - r]))

    # Cross arcs run Fork -> Merge and forward in the vertex order.
    possible = sum(bisect_left(forks, m) for m in merges)
    count = math.ceil(params.p * possible)
    arcs += _forward_pairs(rng, n, forks, merges, possible, count)
    return arcs, labels


def _forward_pairs(
    rng: SplitMix64,
    n: int,
    rows: Sequence[int],
    cols: Sequence[int],
    pairs: int,
    count: int,
    taken: AbstractSet[Arc] = frozenset(),
) -> list[Arc]:
    """``count`` distinct pairs ``(r, c)``, ``r < c``, drawn uniformly from
    ``rows`` x ``cols`` minus ``taken``.

    ``rows`` and ``cols`` ascend in ``range(n)``, ``pairs`` counts their
    pairs with ``r < c`` and ``taken`` holds only such pairs.  Dense requests
    shuffle the ascending keys ``r * n + c`` (partial Fisher-Yates), which
    order as the pairs do and take less memory than tuples; sparse ones draw
    a row and a column until a free pair comes up.
    """
    slots = pairs - len(taken)
    if count > slots:
        raise NotEnoughSlots(f"wanted {count} arcs, only {slots} slots absent")
    if count > MAX_VERTICES:
        raise ValueError(f"wanted {count} arcs, more than the cap of {MAX_VERTICES}")
    if 2 * count >= slots:
        pool = [r * n + c for r in rows for c in cols[bisect_right(cols, r) :]]
        if taken:
            gone = {u * n + v for u, v in taken}
            pool = [key for key in pool if key not in gone]
        for i in range(count):
            j = i + rng.below(len(pool) - i)
            pool[i], pool[j] = pool[j], pool[i]
        # Decoding through ``ids`` lets the arcs of a vertex share one int
        # object instead of each making its own.
        ids = list(range(n))
        return [(ids[key // n], ids[key % n]) for key in pool[:count]]
    picked: set[Arc] = set()
    while len(picked) < count:
        r = rows[rng.below(len(rows))]
        c = cols[rng.below(len(cols))]
        if r < c and (r, c) not in taken:
            picked.add((r, c))
    return sorted(picked)


def _noise(n: int, present: AbstractSet[Arc], s: int, seed: int) -> list[Arc]:
    """``s`` forward pairs of ``range(n)`` absent from ``present``, uniformly."""
    ids = range(n)
    return _forward_pairs(SplitMix64(seed), n, ids, ids, n * (n - 1) // 2, s, present)


def generate_planted_funnel(params: GenParams) -> tuple[Dag, Labeling]:
    """Random funnel with the identity as topological order.

    Uniform i.i.d. Fork/Merge labels; an out-forest over the Fork vertices
    (each Fork is a root with probability 1/(1 + number of earlier Forks),
    otherwise it hangs under a uniformly chosen earlier Fork) and the mirror
    in-forest over the Merge vertices; then Fork-to-Merge forward arcs drawn
    uniformly without replacement up to ``ceil(p * possible)``.
    """
    arcs, labels = _planted_arcs(params)
    return Dag(params.n, arcs), Labeling(labels)


def add_noise_arcs(dag: Dag, s: int, seed: int) -> Dag:
    """Add ``s`` absent forward arcs (w.r.t. vertex order) chosen uniformly.

    Every arc of ``dag`` must run forward too, so the result stays a simple
    DAG and its deletion distance is at most ``s``; ValueError names the
    first arc that does not.  Raises :class:`NotEnoughSlots` when fewer than
    ``s`` pairs are absent.
    """
    if any(map(ge, dag.tails, dag.heads)):
        u, v = next(arc for arc in dag.arcs if arc[0] > arc[1])
        raise ValueError(f"arc ({u}, {v}) does not run forward in the vertex order")
    if s == 0:
        return dag
    noise = _noise(dag.vertex_count, dag.arc_set, s, seed)
    return Dag(dag.vertex_count, list(dag.arcs) + noise)


def planted_instance(params: GenParams) -> tuple[Dag, Optional[Labeling]]:
    """The instance of ``params``: its planted funnel plus ``s`` noise arcs.

    The one recipe behind bench rows and ``funnelkit generate``: the noise is
    seeded with ``derive_seed(seed, 1)``.  It equals
    ``add_noise_arcs(generate_planted_funnel(params)[0], s, derive_seed(seed,
    1))`` but builds one ``Dag``, not two.  The planted labeling comes back
    only when there is no noise, since noise may leave it invalid.
    """
    arcs, labels = _planted_arcs(params)
    if not params.s:
        return Dag(params.n, arcs), Labeling(labels)
    noise = _noise(params.n, set(arcs), params.s, derive_seed(params.seed, 1))
    return Dag(params.n, arcs + noise), None


@dataclass(frozen=True)
class CnfFormula:
    """Strict 3-CNF: every clause has three literals over distinct variables.

    Literals are DIMACS-style nonzero integers; variable ids run 1..num_vars.
    """

    num_vars: int
    clauses: tuple[tuple[int, int, int], ...]

    def __post_init__(self):
        if self.num_vars < 0:
            raise InvalidFormula("negative variable count")
        # Checked here, before reduce_3sat allocates its gadget.
        if 6 * self.num_vars + 5 * len(self.clauses) > MAX_VERTICES:
            raise InvalidFormula(f"gadget would exceed {MAX_VERTICES} vertices")
        for clause in self.clauses:
            if len(clause) != 3:
                raise InvalidFormula(f"clause {clause} must have three literals")
            seen = set()
            for lit in clause:
                var = abs(lit)
                if lit == 0 or var > self.num_vars:
                    raise InvalidFormula(f"literal {lit} out of range")
                if var in seen:
                    raise InvalidFormula(f"variable {var} repeats in {clause}")
                seen.add(var)


def _dimacs_ints(tokens: list[str], line: str) -> list[int]:
    try:
        return [int(tok) for tok in tokens]
    except ValueError:
        raise InvalidFormula(f"non-integer token in {line!r}") from None


def parse_dimacs(text: str) -> CnfFormula:
    """Read a DIMACS CNF file (``c`` comments, ``p cnf <n> <m>`` header)."""
    num_vars = None
    num_clauses = None
    literals: list[int] = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            fields = line.split()
            if len(fields) != 4 or fields[1] != "cnf":
                raise InvalidFormula(f"bad header {line!r}")
            num_vars, num_clauses = _dimacs_ints(fields[2:], line)
            continue
        literals.extend(_dimacs_ints(line.split(), line))
    if num_vars is None:
        raise InvalidFormula("missing 'p cnf' header")
    clauses: list[tuple[int, ...]] = []
    current: list[int] = []
    for lit in literals:
        if lit == 0:
            clauses.append(tuple(current))
            current = []
        else:
            current.append(lit)
    if current:
        raise InvalidFormula("unterminated clause")
    if len(clauses) != num_clauses:
        raise InvalidFormula(
            f"header declares {num_clauses} clauses, found {len(clauses)}"
        )
    return CnfFormula(num_vars, tuple(clauses))  # type: ignore[arg-type]


def reduce_3sat(formula: CnfFormula) -> tuple[Dag, int]:
    """Gadget DAG whose deletion distance is ``2m + n`` iff satisfiable.

    Variable i (1-based) occupies the id block ``6(i-1)..6(i-1)+5`` as
    [center, true-port, false-port, tap1, tap2, tap3]: both ports feed the
    center, the center feeds the taps.  Clause j occupies
    ``6n + 5j..6n + 5j + 4`` as [hub, spoke1..spoke4]: the spokes feed the
    hub and the hub points at the port of each of its three literals.
    """
    n, m = formula.num_vars, len(formula.clauses)
    arcs: list[Arc] = []
    for i in range(1, n + 1):
        center = 6 * (i - 1)
        true_port, false_port = center + 1, center + 2
        arcs.append((true_port, center))
        arcs.append((false_port, center))
        arcs.extend((center, center + tap) for tap in (3, 4, 5))
    for j, clause in enumerate(formula.clauses):
        hub = 6 * n + 5 * j
        arcs.extend((hub + spoke, hub) for spoke in (1, 2, 3, 4))
        for lit in clause:
            port = 6 * (abs(lit) - 1) + (1 if lit > 0 else 2)
            arcs.append((hub, port))
    return Dag(6 * n + 5 * m, arcs), 2 * m + n


