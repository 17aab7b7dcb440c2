"""Instance generators: planted funnels, noise arcs, 3-SAT hardness gadgets.

All randomness comes from SplitMix64 seeded explicitly, never from the
platform default generator, so any instance is reproducible bit-for-bit from
its parameters on any machine or Python version.  The generators draw in
lane-parallel batches (``SplitMix64.below_each``), which give the same
stream as one-at-a-time draws and handle rejections exactly.

Cross arcs and noise arcs come from one sampler, ``_forward_pairs``: both
draw forward pairs ``r < c`` from rows x cols minus the pairs already taken,
as keys ``r * n + c``, and the Dag is built from the sorted keys.  One
request draws at most ``MAX_VERTICES`` arcs, checked before its pool is
built.  Noise is added only to DAGs whose arcs all run forward in the vertex
order, the order every generated funnel has.
"""

from __future__ import annotations

import math
import struct
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import repeat
from operator import add, ge, mod, mul
from typing import AbstractSet, Optional, Sequence

from .graph import MAX_VERTICES, Arc, Dag, dag_from_keys
from .labeling import Label, Labeling, ascii_int

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
# SplitMix64.below_each hashes up to _LANES states at once, lane i of an int
# holding bits 128i..128i+127: _ONES has 1 in every lane, _LOW the low 64
# bits of every lane, and _GAMMAS the state step of lane i, (i + 1) * gamma.
# _ONES and _GAMMAS are read from their bytes: summing _LANES shifted terms
# would take quadratic time at every import.
_LANES = 1024
_ONES = int.from_bytes((b"\x01" + bytes(15)) * _LANES, "little")
_LOW = _ONES * _MASK64
_GAMMAS = int.from_bytes(
    struct.pack("<" + "Q8x" * _LANES, *((i + 1) * _GOLDEN & _MASK64 for i in range(_LANES))),
    "little",
)


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

    def below_each(self, spans: Sequence[int]) -> list[int]:
        """``[self.below(m) for m in spans]``, leaving the same state.

        Up to ``_LANES`` outputs are hashed at once, one per 128-bit lane of
        one int, so each mixing step is one big-int operation; the mask
        after each xor keeps a product from carrying into the next lane.  A
        batch with an output that ``below`` might reject (one at least
        ``2**64`` minus its largest span) is drawn again one value at a time.
        """
        if min(spans, default=1) <= 0:
            raise ValueError("need a positive range")
        out: list[int] = []
        for start in range(0, len(spans), _LANES):
            batch = spans[start : start + _LANES]
            lanes = len(batch)
            shift = (_LANES - lanes) << 7
            low = _LOW >> shift
            z = (self._state * (_ONES >> shift) + (_GAMMAS & low)) & low
            z = ((z ^ (z >> 30)) & low) * 0xBF58476D1CE4E5B9 & low
            z = ((z ^ (z >> 27)) & low) * 0x94D049BB133111EB & low
            z ^= z >> 31
            # Power-of-two widths (top lanes zero) bound struct's format cache.
            width = 1 << (lanes - 1).bit_length()
            xs = struct.unpack(
                "<" + "Q8x" * width, z.to_bytes(width << 4, "little")
            )[:lanes]
            if max(xs) >= (1 << 64) - max(batch):
                out += [self.below(m) for m in batch]
            else:
                self._state = (self._state + lanes * _GOLDEN) & _MASK64
                out += map(mod, xs, batch)
        return out


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


def _planted_keys(params: GenParams) -> tuple[list[int], list[Label]]:
    """Arc keys ``tail * n + head`` and labels of the planted funnel of ``params``."""
    rng = SplitMix64(params.seed)
    n = params.n
    labels = list(map((Label.FORK, Label.MERGE).__getitem__, rng.below_each([2] * n)))
    forks = [v for v in range(n) if labels[v] is Label.FORK]
    merges = [v for v in range(n) if labels[v] is Label.MERGE]

    # The i-th Fork (i > 0) draws r from range(i + 1) and, unless r is 0,
    # hangs under Fork r - 1; the Merges mirror this from the last one down.
    draws = rng.below_each(range(2, len(forks) + 1))
    keys = [forks[r - 1] * n + v for v, r in zip(forks[1:], draws) if r]
    draws = rng.below_each(range(2, len(merges) + 1))
    keys += [v * n + merges[-r] for v, r in zip(reversed(merges[:-1]), draws) if r]

    # Cross arcs run Fork -> Merge and forward in the vertex order.
    possible = sum(bisect_left(forks, m) for m in merges)
    count = math.ceil(params.p * possible)
    keys += _forward_pairs(rng, n, forks, merges, possible, count)
    return keys, labels


def _forward_pairs(
    rng: SplitMix64,
    n: int,
    rows: Sequence[int],
    cols: Sequence[int],
    pairs: int,
    count: int,
    taken: AbstractSet[int] = frozenset(),
) -> list[int]:
    """The keys ``r * n + c`` of ``count`` distinct pairs ``(r, c)``,
    ``r < c``, drawn uniformly from ``rows`` x ``cols`` minus the keys in
    ``taken``.

    ``rows`` and ``cols`` ascend in ``range(n)``, ``pairs`` counts their
    pairs with ``r < c`` and ``taken`` holds only such keys, which order as
    their pairs do.  Dense requests shuffle the ascending pool of keys
    (partial Fisher-Yates); sparse ones draw a row and a column until a free
    pair comes up.  Both draw in batches of at most ``_LANES``: a sparse
    round of ``k`` pairs adds at most ``k`` keys, so it never draws past the
    pair that completes the request.
    """
    slots = pairs - len(taken)
    if count > slots:
        raise NotEnoughSlots(f"wanted {count} arcs, only {slots} slots absent")
    if count > MAX_VERTICES:
        raise ValueError(f"wanted {count} arcs, more than the cap of {MAX_VERTICES}")
    if 2 * count >= slots:
        pool = [r * n + c for r in rows for c in cols[bisect_right(cols, r) :]]
        if taken:
            pool = [key for key in pool if key not in taken]
        for start in range(0, count, _LANES):
            stop = min(start + _LANES, count)
            draws = rng.below_each(range(len(pool) - start, len(pool) - stop, -1))
            for i, d in zip(range(start, stop), draws):
                pool[i], pool[i + d] = pool[i + d], pool[i]
        return pool[:count]
    picked: set[int] = set()
    while len(picked) < count:
        spans = [len(rows), len(cols)] * min(count - len(picked), _LANES)
        draws = iter(rng.below_each(spans))
        for i, j in zip(draws, draws):
            r, c = rows[i], cols[j]
            if r < c and (key := r * n + c) not in taken:
                picked.add(key)
    return sorted(picked)


def _noise(n: int, present: AbstractSet[int], s: int, seed: int) -> list[int]:
    """Keys of ``s`` forward pairs of ``range(n)`` not in ``present``, uniformly."""
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
    keys, labels = _planted_keys(params)
    return dag_from_keys(params.n, keys), Labeling(labels)


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
    n = dag.vertex_count
    keys = list(map(add, map(mul, dag.tails, repeat(n)), dag.heads))
    return dag_from_keys(n, keys + _noise(n, set(keys), s, seed))


def planted_instance(params: GenParams) -> tuple[Dag, Optional[Labeling]]:
    """The instance of ``params``: its planted funnel plus ``s`` noise arcs.

    The one recipe behind bench rows and ``funnelkit generate``: the noise is
    seeded with ``derive_seed(seed, 1)``.  It equals
    ``add_noise_arcs(generate_planted_funnel(params)[0], s, derive_seed(seed,
    1))`` but builds one ``Dag``, not two.  The planted labeling comes back
    only when there is no noise, since noise may leave it invalid.
    """
    keys, labels = _planted_keys(params)
    if not params.s:
        return dag_from_keys(params.n, keys), Labeling(labels)
    noise = _noise(params.n, set(keys), params.s, derive_seed(params.seed, 1))
    return dag_from_keys(params.n, keys + noise), None


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
        return [ascii_int(tok) for tok in tokens]
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
        if line.startswith("%"):  # SATLIB's end marker, before a last "0" line
            break
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


