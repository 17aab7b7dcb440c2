import hashlib
import itertools
import math
import re
import subprocess
import sys
from bisect import bisect_left
from pathlib import Path

import pytest

import funnelkit
import funnelkit.generator as generator
from funnelkit import (
    CnfFormula,
    GenParams,
    InvalidFormula,
    Label,
    NotEnoughSlots,
    SplitMix64,
    add_noise_arcs,
    derive_seed,
    generate_planted_funnel,
    is_funnel_degree,
    lower_bound,
    parse_dimacs,
    planted_instance,
    reduce_3sat,
    sat_oracle,
    solve_addf,
    verify_funnel_labeling,
)
from funnelkit.graph import MAX_VERTICES, emit_edge_list

# ---- the RNG ----


def test_splitmix64_reference_sequence():
    # first outputs for seed 0, as published for this generator
    rng = SplitMix64(0)
    assert rng.next_u64() == 0xE220A8397B1DCDAF
    assert rng.next_u64() == 0x6E789E6AA1B965F4
    assert rng.next_u64() == 0x06C45D188009454F


def test_splitmix64_seed_masking():
    assert SplitMix64(1 << 64).next_u64() == SplitMix64(0).next_u64()
    assert SplitMix64(-1).next_u64() == SplitMix64((1 << 64) - 1).next_u64()


def test_below_is_in_range_and_covers():
    rng = SplitMix64(42)
    seen = set()
    for _ in range(400):
        x = rng.below(7)
        assert 0 <= x < 7
        seen.add(x)
    assert seen == set(range(7))


def _spans(rng, length):
    """Spans of up to 40 bits: a batch of them is almost never redrawn."""
    return [1 + rng.below(1 << (1 + rng.below(40))) for _ in range(length)]


@pytest.mark.parametrize("length", [0, 1, 1023, 1024, 1025, 3500])
@pytest.mark.parametrize("kind", ["random", "2**63 + 1", "2**64 - 1", "mixed"])
def test_below_each_draws_what_below_draws(length, kind):
    spans = {
        "random": _spans(SplitMix64(length), length),
        # Every batch of these is redrawn one value at a time, and about
        # half of the draws for 2**63 + 1 are rejected.
        "2**63 + 1": [2**63 + 1] * length,
        "2**64 - 1": [2**64 - 1] * length,
        "mixed": [(2, 7, 2**63 + 1, 10**6)[i % 4] for i in range(length)],
    }[kind]
    for seed in (0, 99, 2**64 - 1):
        bulk, one = SplitMix64(seed), SplitMix64(seed)
        assert bulk.below_each(spans) == [one.below(m) for m in spans]
        assert bulk._state == one._state
        # Ranges work as spans, and the stream goes on where it left off.
        assert bulk.below_each(range(1, 40)) == [one.below(m) for m in range(1, 40)]
        assert bulk._state == one._state


def test_lane_constants_equal_their_sums():
    lanes, mask = generator._LANES, generator._MASK64
    assert generator._ONES == sum(1 << (i << 7) for i in range(lanes))
    assert generator._LOW == sum(mask << (i << 7) for i in range(lanes))
    assert generator._GAMMAS == sum(
        ((i + 1) * generator._GOLDEN & mask) << (i << 7) for i in range(lanes)
    )


def test_below_each_needs_positive_spans():
    for spans in ([0], [5, -1, 3]):
        with pytest.raises(ValueError, match="positive range"):
            SplitMix64(0).below_each(spans)


def test_derive_seed_is_stable_and_spreads():
    a = derive_seed(5, 0)
    assert a == derive_seed(5, 0)
    outs = {derive_seed(5, i) for i in range(200)}
    assert len(outs) == 200


# ---- planted funnels ----


def test_planted_funnel_is_deterministic():
    params = GenParams(n=60, p=0.4, s=0, seed=17)
    first = generate_planted_funnel(params)
    second = generate_planted_funnel(params)
    assert first == second


def test_planted_funnel_is_a_funnel_with_verifying_labels():
    for seed in range(30):
        params = GenParams(n=1 + seed * 3 % 50 + 1, p=(seed % 10) / 10, s=0, seed=seed)
        dag, labels = generate_planted_funnel(params)
        assert dag.vertex_count == params.n
        assert is_funnel_degree(dag)
        assert verify_funnel_labeling(dag, labels)
        assert lower_bound(dag) == 0
        # identity must be a topological order: all arcs run forward
        assert all(u < v for u, v in dag.arcs)


def test_planted_funnel_cross_arc_count_matches_density():
    params = GenParams(n=80, p=0.5, s=0, seed=9)
    dag, labels = generate_planted_funnel(params)
    forks = [v for v in dag.vertices() if labels[v] is Label.FORK]
    merges = [v for v in dag.vertices() if labels[v] is Label.MERGE]
    possible = sum(1 for f in forks for m in merges if f < m)
    cross = sum(
        1
        for u, v in dag.arcs
        if labels[u] is Label.FORK and labels[v] is Label.MERGE
    )
    assert cross == math.ceil(params.p * possible)


def test_planted_funnel_density_extremes():
    for p in (0.0, 1.0):
        dag, labels = generate_planted_funnel(GenParams(n=40, p=p, s=0, seed=4))
        assert is_funnel_degree(dag)
    # p = 0 leaves only the two forests: forks get at most one parent and
    # merges at most one child
    dag, labels = generate_planted_funnel(GenParams(n=40, p=0.0, s=0, seed=4))
    for v in dag.vertices():
        if labels[v] is Label.FORK:
            assert dag.in_degree(v) <= 1
        else:
            assert dag.out_degree(v) <= 1


def test_planted_funnel_tiny_sizes():
    for n in (1, 2, 3):
        for seed in range(10):
            dag, labels = generate_planted_funnel(GenParams(n=n, p=1.0, s=0, seed=seed))
            assert is_funnel_degree(dag)
            assert verify_funnel_labeling(dag, labels)


def test_planted_funnel_respects_arc_bound():
    from funnelkit import max_arc_bound

    for n in (2, 5, 12, 33):
        for seed in (0, 1, 2):
            dag, _ = generate_planted_funnel(GenParams(n=n, p=1.0, s=0, seed=seed))
            assert dag.arc_count <= max_arc_bound(n)


def test_planted_funnel_has_distance_zero():
    dag, _ = generate_planted_funnel(GenParams(n=10, p=0.5, s=0, seed=77))
    assert is_funnel_degree(dag)
    assert solve_addf(dag).distance == 0


def test_gen_params_validation():
    with pytest.raises(ValueError):
        GenParams(n=0, p=0.5, s=0, seed=1)
    with pytest.raises(ValueError):
        GenParams(n=5, p=1.5, s=0, seed=1)
    with pytest.raises(ValueError):
        GenParams(n=5, p=0.5, s=-1, seed=1)
    # Checked before anything is allocated; never generate at this size.
    GenParams(n=MAX_VERTICES, p=0.5, s=0, seed=1)
    with pytest.raises(ValueError, match="vertex count"):
        GenParams(n=MAX_VERTICES + 1, p=0.5, s=0, seed=1)
    GenParams(n=5, p=0.5, s=0, seed=(1 << 64) - 1)
    for seed in (-1, 1 << 64):
        with pytest.raises(ValueError, match="seed"):
            GenParams(n=5, p=0.5, s=0, seed=seed)


# ---- noise arcs ----


def test_add_noise_arcs_counts_and_determinism():
    dag, _ = generate_planted_funnel(GenParams(n=30, p=0.3, s=0, seed=5))
    noisy = add_noise_arcs(dag, 7, seed=11)
    assert noisy.arc_count == dag.arc_count + 7
    assert add_noise_arcs(dag, 7, seed=11) == noisy
    assert set(dag.arcs) <= set(noisy.arcs)
    assert all(u < v for u, v in noisy.arcs)


def test_add_noise_arcs_zero_is_identity():
    dag, _ = generate_planted_funnel(GenParams(n=10, p=0.5, s=0, seed=2))
    assert add_noise_arcs(dag, 0, seed=1) is dag


def test_add_noise_arcs_distance_stays_below_noise():
    for seed in range(12):
        dag, _ = generate_planted_funnel(GenParams(n=14, p=0.4, s=0, seed=seed))
        noisy = add_noise_arcs(dag, 3, seed=seed + 100)
        assert solve_addf(noisy).distance <= 3


def test_single_noise_arc_can_break_the_funnel():
    # two sources feeding 2, plus a separate branching at 3; with seed 4 the
    # one noise arc lands on (2, 3), bridging the merge into the fork, and
    # exactly one deletion repairs it
    from funnelkit import Dag, brute_force_addf

    base = Dag(6, [(0, 2), (1, 2), (3, 4), (3, 5)])
    assert is_funnel_degree(base)
    noisy = add_noise_arcs(base, 1, seed=4)
    assert set(noisy.arcs) - set(base.arcs) == {(2, 3)}
    assert not is_funnel_degree(noisy)
    assert brute_force_addf(noisy).distance == 1


def test_add_noise_arcs_can_fill_every_slot():
    dag, _ = generate_planted_funnel(GenParams(n=8, p=0.2, s=0, seed=3))
    free = 8 * 7 // 2 - dag.arc_count
    full = add_noise_arcs(dag, free, seed=1)
    assert full.arc_count == 8 * 7 // 2
    with pytest.raises(NotEnoughSlots):
        add_noise_arcs(dag, free + 1, seed=1)


# Arcs as the generators produced them before both shared one sampling
# helper: one instance on each side of its pool-or-rejection switch.
PINNED_PLANTED = {
    0.9: (  # 11 of 12 possible cross arcs: explicit pool
        (0, 1), (0, 2), (0, 3), (0, 4), (0, 6), (0, 7), (1, 2), (1, 3),
        (1, 4), (1, 6), (2, 7), (3, 4), (4, 6), (5, 6), (5, 7), (6, 7),
    ),
    0.2: (  # 3 of 12: rejection sampling
        (0, 1), (0, 3), (1, 3), (2, 7), (3, 4), (4, 6), (5, 7), (6, 7),
    ),
}
PINNED_NOISE = {
    10: (  # 10 of 19 free slots: explicit pool
        (0, 2), (0, 3), (0, 4), (0, 5), (1, 3), (1, 4), (1, 6), (2, 5),
        (3, 4), (3, 5), (4, 5), (5, 6),
    ),
    3: ((0, 4), (0, 5), (1, 3), (2, 4), (4, 5)),  # 3 of 19: rejection
}


@pytest.mark.parametrize("p", sorted(PINNED_PLANTED))
def test_planted_funnel_arcs_are_pinned(p):
    dag, _ = generate_planted_funnel(GenParams(n=9, p=p, s=0, seed=5))
    assert dag.arcs == PINNED_PLANTED[p]


@pytest.mark.parametrize("s", sorted(PINNED_NOISE))
def test_noise_arcs_are_pinned(s):
    base, _ = generate_planted_funnel(GenParams(n=7, p=0.5, s=0, seed=3))
    assert base.arcs == ((0, 5), (4, 5))
    assert add_noise_arcs(base, s, seed=11).arcs == PINNED_NOISE[s]


# SHA-256 of every generator output below, pinned before the draws were
# batched and the sampler moved to arc keys.  The parameters reach every
# branch: dense and sparse cross arcs, dense and sparse noise, forests only,
# p = 1, n = 1 and n = 2 (where noise may find no free slot).
PINNED_OUTPUT_PARAMS = [
    (30, 0.9, 4),  # dense cross arcs, sparse noise
    (30, 0.6, 200),  # dense noise
    (60, 0.1, 5),  # sparse cross arcs, sparse noise
    (25, 0.0, 3),  # forests only
    (40, 1.0, 0),  # every cross arc, no noise
    (150, 0.9, 5000),  # dense requests of more than one batch of draws
    (1, 0.5, 0),
    (2, 0.5, 1),
]
PINNED_OUTPUT_SHA256 = "b1e3337753d55a7a694cca69eee6184f0c4cb223c6334da1ab15a155c700a150"
# The criterion-8 instance: n = 10^5 (seed 12) plus 2,000 noise arcs (seed 13).
PINNED_LARGE_SHA256 = "f0800b6c6ff6c36e39494e9a78fe1136dad5f2ced8bd691f8f059a780db2a480"


def _instance_text(dag, labeling):
    labels = "-" if labeling is None else labeling.to_text()
    return emit_edge_list(dag) + labels + "\n"


def test_generator_output_is_pinned():
    digest = hashlib.sha256()
    for n, p, s in PINNED_OUTPUT_PARAMS:
        for seed in range(4):
            params = GenParams(n=n, p=p, s=s, seed=derive_seed(seed, n))
            funnel, labeling = generate_planted_funnel(params)
            digest.update(_instance_text(funnel, labeling).encode())
            for make in (
                lambda: _instance_text(*planted_instance(params)),
                lambda: _instance_text(add_noise_arcs(funnel, s, seed), None),
            ):
                try:
                    digest.update(make().encode())
                except NotEnoughSlots as exc:
                    digest.update(f"{exc}\n".encode())
    assert digest.hexdigest() == PINNED_OUTPUT_SHA256


def test_large_generator_output_is_pinned():
    funnel, labeling = generate_planted_funnel(
        GenParams(n=100_000, p=0.00008, s=0, seed=12)
    )
    text = _instance_text(funnel, labeling)
    text += _instance_text(add_noise_arcs(funnel, 2000, seed=13), None)
    assert hashlib.sha256(text.encode()).hexdigest() == PINNED_LARGE_SHA256


# ---- one recipe, one Dag ----


def two_step_instance(params):
    """The instance of ``params`` built as a funnel Dag, then a noisy one."""
    funnel, _ = generate_planted_funnel(params)
    return add_noise_arcs(funnel, params.s, derive_seed(params.seed, 1))


def assert_same_dag(a, b):
    assert a == b
    assert hash(a) == hash(b)
    assert a.arcs == b.arcs


@pytest.mark.parametrize(
    "n, p, s",
    [
        (30, 0.9, 4),  # dense cross arcs: the sorted pool is shuffled
        (30, 0.6, 200),  # dense noise: pool of the free slots
        (60, 0.1, 5),  # sparse: rejection sampling on both sides
        (25, 0.0, 3),  # forests only
        (40, 1.0, 0),  # no noise: the planted labeling comes back
        (1, 0.5, 0),
        (2, 0.5, 1),
    ],
)
def test_planted_instance_is_the_funnel_plus_its_noise(n, p, s):
    for seed in range(12):
        params = GenParams(n=n, p=p, s=s, seed=derive_seed(seed, n))
        try:
            expected = two_step_instance(params)
        except NotEnoughSlots:
            with pytest.raises(NotEnoughSlots):
                planted_instance(params)
            continue
        dag, labeling = planted_instance(params)
        assert_same_dag(dag, expected)
        assert labeling == (generate_planted_funnel(params)[1] if s == 0 else None)


def test_planted_instance_fills_every_slot_and_no_more():
    for seed in range(6):
        funnel, _ = generate_planted_funnel(GenParams(n=9, p=0.5, s=0, seed=seed))
        free = 9 * 8 // 2 - funnel.arc_count
        full = GenParams(n=9, p=0.5, s=free, seed=seed)
        dag, _ = planted_instance(full)
        assert dag.arc_count == 9 * 8 // 2
        assert_same_dag(dag, two_step_instance(full))
        over = GenParams(n=9, p=0.5, s=free + 1, seed=seed)
        with pytest.raises(NotEnoughSlots):
            planted_instance(over)
        with pytest.raises(NotEnoughSlots):
            two_step_instance(over)


# ---- the forward-pair sampler against the samplers it replaced ----
# Copied from the generator as it was before cross arcs and noise arcs shared
# one sampler; ``reference_noise_pairs`` takes its generator instead of a seed
# so that the state it leaves can be compared.


def reference_sample_pairs(rng, count, slots, candidates, draw, decode=None):
    if 2 * count >= slots:
        pool = candidates()
        for i in range(count):
            j = i + rng.below(len(pool) - i)
            pool[i], pool[j] = pool[j], pool[i]
        return decode(pool[:count]) if decode else pool[:count]
    picked = set()
    while len(picked) < count:
        pair = draw()
        if pair is not None:
            picked.add(pair)
    return sorted(picked)


def reference_cross_keys(n, forks, merges):
    return [f * n + m for f in forks for m in merges[bisect_left(merges, f) :]]


def reference_cross_pairs(rng, n, forks, merges, count):
    possible = sum(bisect_left(forks, m) for m in merges)

    def pool():
        return reference_cross_keys(n, forks, merges)

    def decode(keys):
        ids = list(range(n))
        return [(ids[k // n], ids[k % n]) for k in keys]

    def draw():
        f = forks[rng.below(len(forks))]
        m = merges[rng.below(len(merges))]
        return (f, m) if f < m else None

    return reference_sample_pairs(rng, count, possible, pool, draw, decode)


def reference_noise_pairs(n, present, s, rng):
    free = n * (n - 1) // 2 - len(present)
    if s > free:
        raise NotEnoughSlots(f"wanted {s} arcs, only {free} slots absent")

    def pool():
        pairs = ((u, v) for u in range(n) for v in range(u + 1, n))
        return [pair for pair in pairs if pair not in present]

    def draw():
        u = rng.below(n)
        v = rng.below(n)
        return (u, v) if u < v and (u, v) not in present else None

    return reference_sample_pairs(rng, s, free, pool, draw)


def _request_size(rng, slots):
    """Zero, all, or a uniform share of ``slots``: both sides of the switch."""
    pick = rng.below(4)
    return 0 if pick == 0 else slots if pick == 1 else rng.below(slots + 1)


def test_forward_pairs_draws_what_the_old_samplers_drew():
    cases = SplitMix64(2024)
    sides = set()
    for case in range(612):
        # The last cases draw more than one batch of _LANES values.
        n = 1 + cases.below(24) if case < 600 else 100 + cases.below(100)
        labels = [cases.below(2) for _ in range(n)]
        forks = [v for v in range(n) if labels[v] == 0]
        merges = [v for v in range(n) if labels[v] == 1]
        forward = sorted((f, m) for m in merges for f in forks if f < m)
        count = _request_size(cases, len(forward))
        old, new = SplitMix64(case), SplitMix64(case)
        keys = generator._forward_pairs(new, n, forks, merges, len(forward), count)
        pairs = [divmod(key, n) for key in keys]
        assert pairs == reference_cross_pairs(old, n, forks, merges, count)
        assert new._state == old._state
        if count == len(forward):
            assert sorted(pairs) == forward
        sides.add(("cross", 2 * count >= len(forward)))

        everything = [(u, v) for u in range(n) for v in range(u + 1, n)]
        present = {pair for pair in everything if cases.below(3) == 0}
        if case % 2:
            present = set()
        free = [pair for pair in everything if pair not in present]
        s = _request_size(cases, len(free))
        old, new = SplitMix64(~case), SplitMix64(~case)
        keys = generator._forward_pairs(
            new, n, range(n), range(n), len(everything), s, {u * n + v for u, v in present}
        )
        pairs = [divmod(key, n) for key in keys]
        assert pairs == reference_noise_pairs(n, present, s, old)
        assert new._state == old._state
        if s == len(free):
            assert sorted(pairs) == free
        sides.add(("noise", 2 * s >= len(free), bool(present)))
    assert len(sides) == 6  # dense and sparse, with and without taken pairs


def test_forward_pairs_reports_the_free_slots():
    present = {0 * 3 + 1, 1 * 3 + 2}  # the keys of (0, 1) and (1, 2)
    with pytest.raises(NotEnoughSlots, match="wanted 2 arcs, only 1 slots absent"):
        generator._forward_pairs(SplitMix64(0), 3, range(3), range(3), 3, 2, present)


# ---- requests bounded before the pool is built ----


@pytest.mark.parametrize(
    "params",
    [
        GenParams(n=100_000, p=1.0, s=0, seed=0),  # 1,244,293,113 cross arcs
        GenParams(n=20_000, p=0.0, s=10**8, seed=0),  # dense noise
        GenParams(n=20_000, p=0.0, s=MAX_VERTICES + 1, seed=0),  # sparse noise
    ],
)
def test_arc_requests_are_bounded_before_allocating(params):
    with pytest.raises(ValueError, match=f"cap of {MAX_VERTICES}"):
        planted_instance(params)


# ---- noise needs forward arcs ----


@pytest.mark.parametrize(
    "arcs, s, first",
    [
        ([(2, 0)], 1, "(2, 0)"),  # used to close a cycle for some seeds
        ([(2, 0), (2, 1)], 2, "(2, 0)"),  # used to miscount the free slots
        ([(3, 1), (0, 2), (2, 1)], 1, "(2, 1)"),
        ([(1, 0)], 0, "(1, 0)"),
    ],
)
def test_add_noise_arcs_rejects_backward_arcs(arcs, s, first):
    from funnelkit import Dag

    for seed in range(20):
        with pytest.raises(ValueError, match=re.escape(first)):
            add_noise_arcs(Dag(4, arcs), s, seed)


def test_generator_does_not_load_the_solver():
    # The package __init__ imports every module, so the check loads the
    # generator under an empty package shell and sees what it pulls in.
    package = Path(funnelkit.__file__).parent
    code = (
        "import sys, types\n"
        "shell = types.ModuleType('funnelkit')\n"
        f"shell.__path__ = [{str(package)!r}]\n"
        "sys.modules['funnelkit'] = shell\n"
        "import funnelkit.generator\n"
        "assert 'funnelkit.graph' in sys.modules\n"
        "print(sorted(m for m in sys.modules if m.startswith('funnelkit.')))\n"
        "assert 'funnelkit.exact' not in sys.modules\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr


# ---- CNF parsing and the reduction ----


def test_parse_dimacs_round_trip():
    text = "c a comment\np cnf 3 2\n1 -2 3 0\n-1 2 -3 0\n"
    formula = parse_dimacs(text)
    assert formula.num_vars == 3
    assert formula.clauses == ((1, -2, 3), (-1, 2, -3))


def test_parse_dimacs_multiline_clause():
    formula = parse_dimacs("p cnf 3 1\n1 -2\n3 0\n")
    assert formula.clauses == ((1, -2, 3),)


def test_parse_dimacs_stops_at_the_satlib_end_marker():
    # SATLIB's uf*/uuf* files end with a "%" line and a "0" line; the 0
    # after the marker is no empty clause.
    plain = parse_dimacs("p cnf 3 2\n1 -2 3 0\n-1 2 -3 0\n")
    satlib = "c uf3-01.cnf\np cnf 3  2\n 1 -2 3 0\n-1 2 -3 0\n%\n0\n\n"
    assert parse_dimacs(satlib) == plain
    assert parse_dimacs(satlib.replace("%\n", "% end\n")) == plain
    with pytest.raises(InvalidFormula, match="header declares 2 clauses, found 3"):
        parse_dimacs(satlib.replace("%\n", ""))


def test_parse_dimacs_errors():
    with pytest.raises(InvalidFormula):
        parse_dimacs("1 2 3 0\n")  # no header
    with pytest.raises(InvalidFormula):
        parse_dimacs("p cnf 3 2\n1 -2 3 0\n")  # clause count mismatch
    with pytest.raises(InvalidFormula):
        parse_dimacs("p cnf 3 1\n1 -2 3\n")  # unterminated
    with pytest.raises(InvalidFormula):
        parse_dimacs("p cnf 2 1\n1 -2 5 0\n")  # literal out of range
    with pytest.raises(InvalidFormula):
        parse_dimacs("p cnf 3 1\n1 1 2 0\n")  # repeated variable
    with pytest.raises(InvalidFormula):
        parse_dimacs("p cnf 3 1\n1 2 0\n")  # not three literals
    # Integers are ASCII digits with an optional minus sign, as in edge lists.
    for text in (
        "p cnf 1_0 1\n1 2 3 0\n",
        "p cnf 3 1\n+1 2 3 0\n",
        "p cnf 3 1\n1 2 \uff13 0\n",  # a fullwidth 3
        "p cnf 3 1\n1 2 \u0663 0\n",  # an Arabic-Indic 3
    ):
        with pytest.raises(InvalidFormula, match="non-integer token"):
            parse_dimacs(text)
    # The gadget has 6 vertices per variable and 5 per clause, bounded
    # before reduce_3sat allocates; these formulas are never reduced.
    assert parse_dimacs("p cnf 1666666 0\n").num_vars == 1666666
    with pytest.raises(InvalidFormula, match="exceed"):
        parse_dimacs("p cnf 1666667 0\n")
    with pytest.raises(InvalidFormula, match="exceed"):
        parse_dimacs("p cnf 1666666 1\n1 2 3 0\n")


def test_reduction_shape():
    formula = CnfFormula(3, ((1, -2, 3),))
    dag, target = reduce_3sat(formula)
    assert dag.vertex_count == 6 * 3 + 5 * 1
    assert dag.arc_count == 5 * 3 + 7 * 1
    assert target == 2 * 1 + 3


def test_reduction_worked_example():
    # (x1 or not x2 or x3): satisfiable, so distance equals the target
    formula = CnfFormula(3, ((1, -2, 3),))
    dag, target = reduce_3sat(formula)
    assert target == 5
    assert solve_addf(dag).distance == 5


def test_reduction_agrees_with_oracle_exhaustively():
    # every 3-CNF with at most 3 variables and at most 2 clauses is
    # satisfiable (one clause rules out 1/8 of assignments), so the gadget
    # distance must equal the target on all of them; the unsatisfiable
    # direction gets its own test below
    all_clauses = [
        tuple(v * s for v, s in zip(combo, signs))
        for combo in itertools.combinations((1, 2, 3), 3)
        for signs in itertools.product((1, -1), repeat=3)
    ]
    for m in (1, 2):
        for picked in itertools.combinations(all_clauses, m):
            formula = CnfFormula(3, picked)
            assert sat_oracle(formula)
            dag, target = reduce_3sat(formula)
            result = solve_addf(dag, initial_upper_bound=target)
            assert result.distance == target


def test_reduction_agrees_with_oracle_on_four_variables():
    # wider family: all clauses over four variables, every pair of them, and
    # a fixed sample of the 5984 triples (the full sweep takes too long for
    # this suite but has the same outcome: three clauses rule out at most
    # 6 of 16 assignments, so everything here is satisfiable too)
    all_clauses = [
        tuple(v * s for v, s in zip(combo, signs))
        for combo in itertools.combinations((1, 2, 3, 4), 3)
        for signs in itertools.product((1, -1), repeat=3)
    ]
    assert len(all_clauses) == 32
    families = [(clause,) for clause in all_clauses]
    families.extend(itertools.combinations_with_replacement(all_clauses, 2))
    triples = list(itertools.combinations_with_replacement(all_clauses, 3))
    rng = SplitMix64(424242)
    families.extend(triples[rng.below(len(triples))] for _ in range(300))
    for picked in families:
        formula = CnfFormula(4, picked)
        assert sat_oracle(formula)
        dag, target = reduce_3sat(formula)
        assert dag.vertex_count == 6 * 4 + 5 * len(picked)
        result = solve_addf(dag, initial_upper_bound=target)
        assert result.distance == target


def test_reduction_detects_unsatisfiable():
    # all eight sign patterns over three variables: unsatisfiable
    clauses = tuple(
        (1 * a, 2 * b, 3 * c)
        for a in (1, -1)
        for b in (1, -1)
        for c in (1, -1)
    )
    formula = CnfFormula(3, clauses)
    assert not sat_oracle(formula)
    dag, target = reduce_3sat(formula)
    result = solve_addf(dag, initial_upper_bound=target)
    assert result.distance > target


def test_sat_oracle_basics():
    assert sat_oracle(CnfFormula(3, ()))
    assert sat_oracle(CnfFormula(0, ()))
    from funnelkit import TooLarge

    with pytest.raises(TooLarge):
        sat_oracle(CnfFormula(25, ()), max_vars=20)
