"""Exhaustive reference oracles, each capped in size: the recognizers, the
exact solver and the 3-SAT reduction are checked against them."""

from __future__ import annotations

from itertools import combinations

from .analysis import funnel_labeling, is_funnel_degree
from .exact import ExactResult, SolverStats
from .generator import CnfFormula
from .graph import Arc, Dag, delete_arcs


class TooLarge(Exception):
    """Instance exceeds a hard cap of an exponential-time helper."""


def is_funnel_by_path_enumeration(dag: Dag, max_vertices: int = 12) -> bool:
    """Brute-force reference check: enumerate every source-sink path.

    Exponential; only meant as a test oracle, hence the small size cap.
    """
    if dag.vertex_count > max_vertices:
        raise ValueError(f"path enumeration capped at {max_vertices} vertices")
    paths: list[tuple[Arc, ...]] = []
    for s in dag.vertices():
        if dag.in_degree(s) > 0:
            continue
        stack: list[tuple[int, tuple[Arc, ...]]] = [(s, ())]
        while stack:
            v, arcs = stack.pop()
            if dag.out_degree(v) == 0:
                paths.append(arcs)
                continue
            for w in dag.out_neighbors(v):
                stack.append((w, arcs + ((v, w),)))
    count: dict[Arc, int] = {}
    for arcs in paths:
        for arc in arcs:
            count[arc] = count.get(arc, 0) + 1
    # Zero-arc paths are isolated vertices; they cannot violate anything.
    return all(
        any(count[arc] == 1 for arc in arcs) for arcs in paths if arcs
    )


def brute_force_addf(dag: Dag, max_arcs: int = 24) -> ExactResult:
    """Try all arc subsets by size; independent oracle for the solver.

    Subsets of equal size are tried in lexicographic arc order, so the
    returned set is the lexicographically first among the smallest.  Capped
    because the subset lattice explodes; raises :class:`TooLarge` beyond it.
    """
    if dag.arc_count > max_arcs:
        raise TooLarge(f"{dag.arc_count} arcs exceed the {max_arcs}-arc cap")
    stats = SolverStats()
    for k in range(dag.arc_count + 1):
        for subset in combinations(dag.arcs, k):
            stats.nodes += 1
            survivor = delete_arcs(dag, subset)
            if is_funnel_degree(survivor):
                stats.leaves = 1
                return ExactResult(
                    distance=k,
                    deletion_set=frozenset(subset),
                    labeling=funnel_labeling(survivor),
                    stats=stats,
                )
    raise AssertionError("deleting every arc always yields a funnel")


def labeling_enumeration_addf(dag: Dag, max_vertices: int = 14) -> int:
    """The distance as the cheapest of all 2^n total labelings.

    A labeling keeps every Fork-to-Merge arc, one in-arc of each Fork with a
    Fork in-neighbor and one out-arc of each Merge with a Merge out-neighbor,
    and deletes the rest, so its cost is m minus those three counts.  Every
    funnel has a labeling, so the cheapest one is optimal.  Reaches sizes
    where arc subsets cannot; raises :class:`TooLarge` beyond the cap.
    """
    n = dag.vertex_count
    if n > max_vertices:
        raise TooLarge(f"{n} vertices exceed the {max_vertices}-vertex cap")
    everyone = (1 << n) - 1
    ins, outs = [0] * n, [0] * n
    for u, v in dag.arcs:
        outs[u] |= 1 << v
        ins[v] |= 1 << u
    best = dag.arc_count
    for forks in range(1 << n):  # bit v set: v is a Fork
        merges = everyone & ~forks
        kept = 0
        for v in range(n):
            if forks >> v & 1:
                kept += (outs[v] & merges).bit_count() + bool(ins[v] & forks)
            else:
                kept += bool(outs[v] & merges)
        best = min(best, dag.arc_count - kept)
    return best


def sat_oracle(formula: CnfFormula, max_vars: int = 20) -> bool:
    """Exhaustive satisfiability check for small formulas."""
    if formula.num_vars > max_vars:
        raise TooLarge(f"{formula.num_vars} variables exceed the {max_vars} cap")
    for assignment in range(1 << formula.num_vars):
        if all(
            any(
                (assignment >> (abs(lit) - 1)) & 1 == (1 if lit > 0 else 0)
                for lit in clause
            )
            for clause in formula.clauses
        ):
            return True
    return False
