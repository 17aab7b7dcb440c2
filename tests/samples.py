"""Small graphs shared across the test modules.

Vertex ids are fixed so expected labelings, witnesses, and traces can be
written out literally.
"""

from funnelkit import Dag, SplitMix64


def obstruction(path_len: int = 0) -> Dag:
    """Two sources feeding a path of ``path_len`` arcs that feeds two sinks.

    The smallest graphs that are not funnels: 0 and 1 point at vertex 2,
    a path runs 2, 3, ..., and the last path vertex points at two sinks.
    """
    inner = list(range(2, 3 + path_len))
    arcs = [(0, inner[0]), (1, inner[0])]
    arcs += list(zip(inner, inner[1:]))
    last = inner[-1]
    arcs += [(last, last + 1), (last, last + 2)]
    return Dag(last + 3, arcs)


D0 = obstruction(0)  # 5 vertices: 0,1 -> 2 -> 3,4
D1 = obstruction(1)  # 6 vertices: 0,1 -> 2 -> 3 -> 4,5

DIAMOND = Dag(4, [(0, 1), (0, 2), (1, 3), (2, 3)])

PATH3 = Dag(3, [(0, 1), (1, 2)])

# Worked recognition pair: the left graph is a funnel, the right one adds
# a single arc (2, 5) and stops being one.
# ids: 0,1 sources; 2 the shared fork; 3 a second fork; 4,5,6 middles; 7 sink.
FUNNEL_8 = Dag(
    8,
    [(0, 2), (1, 2), (1, 3), (2, 4), (3, 5), (3, 6), (4, 7), (5, 7), (6, 7)],
)
NEAR_FUNNEL_8 = Dag(8, FUNNEL_8.arcs + ((2, 5),))

# 12-vertex graph where the one-pass greedy labeling deletes 4 arcs while
# two deletions suffice, so the factor 2 is tight.
TIGHT_12 = Dag(
    12,
    [
        (0, 3), (0, 2), (1, 3), (1, 2),
        (2, 6), (2, 5), (3, 5), (3, 7), (4, 5),
        (5, 8), (5, 9),
        (8, 10), (8, 11), (9, 10), (9, 11),
    ],
)

# 8 vertices, distance 3, packing bound 1: disjoint copies leave a root gap
# of two arcs per copy, so a search over them runs deep.
G8 = Dag(
    8,
    [
        (0, 1), (0, 3), (0, 7), (1, 3), (1, 5), (1, 6), (1, 7), (2, 3), (2, 4),
        (2, 6), (3, 4), (3, 5), (3, 6), (3, 7), (4, 5), (4, 6), (5, 6), (6, 7),
    ],
)

# ROADMAP item 1: distance 3 (delete 4->0, 7->3, 7->5), while the set-label
# rule's degree-counting case leads the solver to 4.
SET_LABEL_9 = Dag(
    9,
    [
        (2, 4), (2, 7), (2, 8), (1, 4), (1, 0), (1, 7), (1, 5), (4, 0), (4, 7),
        (0, 6), (6, 7), (6, 5), (6, 3), (7, 8), (7, 5), (7, 3), (8, 5), (5, 3),
    ],
)


def disjoint_copies(dag: Dag, count: int) -> Dag:
    """``count`` copies of ``dag`` side by side, copy i on ids shifted by i*n."""
    n = dag.vertex_count
    return Dag(
        n * count, [(u + n * i, v + n * i) for i in range(count) for u, v in dag.arcs]
    )


def random_dag(rng: SplitMix64, n: int, arc_chance_pct: int) -> Dag:
    """Random DAG on ``n`` vertices; each forward pair (u, v), u < v, is an
    arc with probability ``arc_chance_pct`` / 100."""
    arcs = [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if rng.below(100) < arc_chance_pct
    ]
    return Dag(n, arcs)


def shuffled_random_dag(rng: SplitMix64, n: int, arc_chance_pct: int) -> Dag:
    """``random_dag`` with its ids permuted, so that the topological order is
    not the identity."""
    perm = list(range(n))
    for i in range(n - 1, 0, -1):
        j = rng.below(i + 1)
        perm[i], perm[j] = perm[j], perm[i]
    arcs = random_dag(rng, n, arc_chance_pct).arcs
    return Dag(n, [(perm[u], perm[v]) for u, v in arcs])


# Edits that break an edge-list file in the ways real files break.
FUZZ_TOKENS = [
    b" ", b"\n", b"\t", b"\r\n", b"#", b"p", b"p 3 2\n", b"-1", b"1", b"9",
    b"\n0 5\n", b"\n3 7\n", b"\n0 2\n", b"\n2 2\n", b"\n6 1\n", b"\n1 9\n",
    b"1.5", b"nan", b"1e3", b"99999999999", b"\x00", b"\xff", "\u00e9".encode(),
]
FUZZ_BYTES = [bytes([b]) for b in b"0123456789 \n\t-p#"]


def mutate(rng, data: bytes) -> bytes:
    """One to three seeded edits: insert a byte, delete a span, insert junk."""
    for _ in range(1 + rng.below(3)):
        at = rng.below(len(data) + 1)
        kind = rng.below(3)
        if kind == 0:
            data = data[:at] + FUZZ_BYTES[rng.below(len(FUZZ_BYTES))] + data[at:]
        elif kind == 1:
            data = data[:at] + data[at + 1 + rng.below(4):]
        else:
            data = data[:at] + FUZZ_TOKENS[rng.below(len(FUZZ_TOKENS))] + data[at:]
    return data
