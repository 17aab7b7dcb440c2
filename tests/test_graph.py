import hashlib
import heapq
import io
import re
import tracemalloc
from array import array
from itertools import chain

import pytest

from funnelkit import (
    ArcNotPresent,
    CnfFormula,
    CycleDetected,
    Dag,
    DuplicateArc,
    GenParams,
    GraphError,
    Labeling,
    MalformedLine,
    SelfLoop,
    SplitMix64,
    condense_scc,
    delete_arcs,
    emit_dot,
    emit_edge_list,
    parse_edge_list,
    planted_instance,
    read_arc_list,
    reduce_3sat,
    topological_order,
)
from funnelkit.graph import _BLOCK, MAX_VERTICES, _read_plain, _read_tables, dag_from_keys
from samples import D0, DIAMOND, NEAR_FUNNEL_8, mutate, random_dag


def test_construction_and_queries():
    dag = Dag(4, [(2, 3), (0, 1), (0, 2)])
    assert dag.vertex_count == 4
    assert dag.arc_count == 3
    assert dag.arcs == ((0, 1), (0, 2), (2, 3))
    assert dag.out_neighbors(0) == (1, 2)
    assert dag.in_neighbors(3) == (2,)
    assert dag.out_degree(0) == 2
    assert dag.in_degree(1) == 1
    assert (0, 2) in dag.arc_set
    assert list(dag.vertices()) == [0, 1, 2, 3]


def test_empty_graph():
    dag = Dag(0)
    assert dag.vertex_count == 0
    assert dag.arcs == ()
    assert dag.topo_order == ()


def test_validation_errors():
    with pytest.raises(ValueError):
        Dag(-1)
    with pytest.raises(ValueError):
        Dag(2, [(0, 5)])
    with pytest.raises(SelfLoop):
        Dag(2, [(1, 1)])
    with pytest.raises(DuplicateArc):
        Dag(2, [(0, 1), (0, 1)])
    with pytest.raises(CycleDetected):
        Dag(3, [(0, 1), (1, 2), (2, 0)])
    # Unsorted input: each fault is found wherever it sits and named.
    with pytest.raises(ValueError, match=r"arc \(-1, 2\) out of range"):
        Dag(4, [(2, 3), (-1, 2), (0, 1)])
    with pytest.raises(ValueError, match=r"arc \(2, -3\) out of range"):
        Dag(4, [(2, 3), (2, -3), (0, 1)])
    with pytest.raises(ValueError, match=r"arc \(1, 4\) out of range"):
        Dag(4, [(2, 3), (1, 4), (0, 1)])
    with pytest.raises(DuplicateArc, match=r"duplicate arc \(1, 3\)"):
        Dag(4, [(1, 3), (0, 1), (2, 3), (0, 2), (1, 3)])
    with pytest.raises(SelfLoop, match="self-loop at vertex 2"):
        Dag(4, [(1, 3), (0, 1), (2, 2), (0, 2)])
    # Faults are reported in input order, whatever their kind.
    with pytest.raises(SelfLoop):
        Dag(4, [(2, 2), (0, 9)])
    with pytest.raises(DuplicateArc):
        Dag(4, [(0, 1), (0, 1), (3, 3)])
    # An arc is a pair: the first that is not one is named.
    with pytest.raises(ValueError, match=r"arc \(0, 1, 2\) is not a \(tail, head\) pair"):
        Dag(3, [(0, 1, 2)])
    with pytest.raises(ValueError, match=r"arc \(0,\) is not a \(tail, head\) pair"):
        Dag(3, [(0, 1), (0,)])
    with pytest.raises(ValueError, match=r"arc \(5, 0\) out of range"):
        Dag(3, [(5, 0), (0,)])
    # Faults the one-pass build sees in sorted or upward input.
    with pytest.raises(ValueError, match=r"arc \(-1, 0\) out of range for 3 vertices"):
        Dag(3, [(-1, 0), (0, 1)])  # increasing and upward
    with pytest.raises(ValueError, match=r"arc \(1, -1\) out of range for 3 vertices"):
        Dag(3, [(0, 2), (1, -1)])  # increasing, not upward
    with pytest.raises(ValueError, match=r"arc \(1, -3\) out of range for 3 vertices"):
        Dag(3, [(0, 1), (1, -3)])
    with pytest.raises(ValueError, match=r"arc \(0, -4\) out of range for 3 vertices"):
        Dag(3, [(0, 1), (0, -4)])
    with pytest.raises(ValueError, match=r"arc \(0, 3\) out of range for 3 vertices"):
        Dag(3, [(0, 3), (1, 2)])
    with pytest.raises(ValueError, match=r"arc \(1, 3\) out of range for 3 vertices"):
        Dag(3, [(0, 1), (1, 3)])
    with pytest.raises(SelfLoop, match="self-loop at vertex 1"):
        Dag(3, [(0, 1), (1, 1), (1, 2)])
    with pytest.raises(DuplicateArc, match=r"duplicate arc \(0, 2\)"):
        dag_from_keys(3, [5, 2, 1, 2])
    with pytest.raises(MalformedLine, match="line 3: vertex id beyond declared count 3"):
        parse_edge_list("p 3 2\n0 1\n1 3\n")
    # A float id is no vertex id; out of range it is named like any other.
    with pytest.raises(TypeError):
        Dag(3, [(0, 1.0)])
    with pytest.raises(ValueError, match=r"arc \(0, 5\.0\) out of range for 3 vertices"):
        Dag(3, [(0, 1.5), (0, 5.0)])
    # A vertex count is an integer: a float or a string is refused, not
    # truncated, at every door that takes one.
    for count in (2.5, 2.0, "2"):
        with pytest.raises(TypeError):
            Dag(count, [(0, 1)])
        with pytest.raises(TypeError):
            dag_from_keys(count, [1])
        with pytest.raises(TypeError):
            condense_scc([(0, 1)], count)
    with pytest.raises(TypeError):
        Dag(3.5, [(0, 3)])
    with pytest.raises(ValueError, match="vertex_count must be non-negative"):
        dag_from_keys(-1, [])
    with pytest.raises(ValueError, match="vertex_count must be non-negative"):
        condense_scc([], -1)

    class Count:  # an integer type other than int, as numpy's are
        def __index__(self):
            return 2

    assert Dag(Count(), [(0, 1)]) == dag_from_keys(Count(), [1]) == Dag(2, [(0, 1)])
    assert condense_scc([(0, 1), (1, 0)], Count())[0] == Dag(1)
    assert Dag(True) == dag_from_keys(True, []) == Dag(1)  # a bool is an int


def test_the_build_still_catches_faults_in_trusted_tables():
    # Ids in range reach the build unchecked.  It still names self-loops,
    # repeats and cycles with the errors a per-arc check gives, and an id
    # in range that is no int fails its count.
    cases = [
        (Dag, (3, [(0, 1), (2, 2)]), SelfLoop, "self-loop at vertex 2"),
        (dag_from_keys, (3, [4]), SelfLoop, "self-loop at vertex 1"),
        (dag_from_keys, (3, [5, 1, 5]), DuplicateArc, "duplicate arc (1, 2)"),
        (parse_edge_list, ("0 1\n1 2\n2 0\n",), CycleDetected,
         "input digraph contains a directed cycle"),
        (parse_edge_list, ("# by hand\n0 1\n1 2\n2 0\n",), CycleDetected,
         "input digraph contains a directed cycle"),
        (parse_edge_list, ("p 3 3\n0 1\n1 2\n0 1\n",), DuplicateArc, "duplicate arc (0, 1)"),
        (parse_edge_list, ("0 2\n1 2\n 0 2\n",), DuplicateArc, "duplicate arc (0, 2)"),
        (Dag, (3, [(0, 1.0)]), TypeError, None),
        (Dag, (3, [(0, 2), (1.0, 2)]), TypeError, None),
    ]
    for build, args, error, message in cases:
        with pytest.raises(error) as info:
            build(*args)
        assert type(info.value) is error
        assert message is None or str(info.value) == message


def test_the_readers_hand_the_build_only_ids_in_range():
    # The build trusts the tables a reader returns: on either path they
    # hold only ints in range(n), one pair per arc.
    text = emit_edge_list(NEAR_FUNNEL_8)
    bases = [text.encode(), text.split("\n", 1)[1].encode()]  # with and without header
    rng = SplitMix64(79)
    paths = []
    for i in range(2000):
        source = mutate(rng, bases[i % 2])
        try:
            n, tails, heads = _read_tables(source)
        except GraphError:
            continue
        paths.append(_read_plain(source.decode()) is not None)
        assert len(tails) == len(heads)
        for v in chain(tails, heads):
            assert type(v) is int and 0 <= v < n
    assert 100 < sum(paths) < len(paths) - 100  # both paths are taken


def test_arcs_as_lists_and_the_lazy_arc_set():
    arcs = [(2, 3), (0, 1), (1, 3), (0, 2)]
    dag = Dag(4, arcs)
    assert Dag(4, [list(arc) for arc in arcs]) == dag
    assert Dag(4, iter(arcs)) == dag
    assert dag.arc_set == frozenset(arcs)
    assert dag.arc_set is dag.arc_set
    parsed = parse_edge_list(emit_edge_list(dag))
    assert parsed.arcs == dag.arcs and parsed.arcs is parsed.arcs
    with pytest.raises(ArcNotPresent):
        delete_arcs(dag, [(0, 3)])
    with pytest.raises(ArcNotPresent):
        emit_dot(dag, highlight=[(3, 2)])


def test_topological_order_is_min_id_kahn():
    dag = Dag(6, [(5, 0), (4, 0), (0, 1), (3, 1)])
    # sources 2,3,4,5 drain smallest-first; 0 unlocks after 4 and 5
    assert topological_order(dag) == (2, 3, 4, 5, 0, 1)
    # Every arc points to a higher id: the identity, as the scan would give.
    arcs = [(0, 4), (1, 2), (2, 4), (3, 5), (1, 5)]
    assert topological_order(Dag(6, arcs)) == _reference_adjacency(6, arcs)[2]
    assert topological_order(Dag(6, arcs)) == (0, 1, 2, 3, 4, 5)


def test_equality_and_hash():
    a = Dag(3, [(0, 1), (1, 2)])
    b = Dag(3, [(1, 2), (0, 1)])
    assert a == b
    assert hash(a) == hash(b)
    assert a != Dag(4, [(0, 1), (1, 2)])


def test_delete_arcs():
    smaller = delete_arcs(DIAMOND, [(0, 1), (1, 3)])
    assert smaller.arcs == ((0, 2), (2, 3))
    assert smaller.vertex_count == 4
    with pytest.raises(ArcNotPresent):
        delete_arcs(DIAMOND, [(3, 0)])


def test_delete_arcs_by_id_matches_the_arc_tuple_rebuild():
    # The result equals the Dag rebuilt from the arc tuples left, table for
    # table, and neither dag.arcs nor dag.arc_set is built on the input.
    rng = SplitMix64(1801)
    for n, arcs in _shuffled_dags(rng, 300):
        dag = Dag(n, arcs)
        gone = [arcs[rng.below(len(arcs))] for _ in range(rng.below(len(arcs) + 1))]
        rest = delete_arcs(dag, gone)
        assert dag._arcs is None and dag._arc_set is None
        ref = Dag(n, [arc for arc in arcs if arc not in set(gone)])
        for name in ("tails", "heads", "out_off", "in_off", "in_ids", "in_tails", "topo_order"):
            assert getattr(rest, name) == getattr(ref, name)
    # Missing, out-of-range and malformed arcs are not present.
    absent = [(3, 0), (0, 3), (-3, 3), (1, -1), (0, 4), (4, 0), (0.5, 1), (0, 1.5),
              ("0", "1"), (0, 1, 3), (0,), None, 5]
    for arc in absent:
        with pytest.raises(ArcNotPresent, match="not present"):
            delete_arcs(DIAMOND, [(0, 1), arc])
        with pytest.raises(ArcNotPresent, match="not present"):
            emit_dot(DIAMOND, highlight=[arc])


def test_read_arc_list_plain():
    n, arcs = read_arc_list("0 1\n# comment\n\n1 2\n")
    assert n == 3
    assert arcs == [(0, 1), (1, 2)]


def test_read_arc_list_header_and_isolated_vertices():
    n, arcs = read_arc_list("p 7 2\n0 1\n1 2\n")
    assert n == 7
    assert arcs == [(0, 1), (1, 2)]


def test_read_arc_list_accepts_bytes_and_streams():
    assert read_arc_list(b"0 1\n") == (2, [(0, 1)])
    assert read_arc_list(io.StringIO("0 1\n")) == (2, [(0, 1)])


def test_read_arc_list_names_the_first_byte_that_is_not_utf8():
    for source in (b"0 1\n\xff\n", io.BytesIO(b"0 1\n\xff\n")):
        with pytest.raises(GraphError, match="invalid UTF-8 at byte 4"):
            read_arc_list(source)


def test_read_arc_list_errors_carry_line_numbers():
    with pytest.raises(MalformedLine) as info:
        read_arc_list("0 1\nbogus line here\n")
    assert info.value.line_no == 2
    with pytest.raises(MalformedLine) as info:
        read_arc_list("p 3 5\n0 1\n")
    assert info.value.line_no == 1  # header count mismatch
    with pytest.raises(MalformedLine) as info:
        read_arc_list("p 2 1\n0 9\n")
    assert info.value.line_no == 2  # id beyond declared count
    with pytest.raises(MalformedLine):
        read_arc_list("0 -1\n")
    with pytest.raises(MalformedLine):
        read_arc_list("0 1\np 2 1\n")  # header after arcs


@pytest.mark.parametrize(
    "text, message",
    [
        ("1_0 2\n", "non-integer vertex id"),
        ("+0 1\n", "non-integer vertex id"),
        ("\u0661 2\n", "non-integer vertex id"),  # ARABIC-INDIC DIGIT ONE
        ("0 \uff11\n", "non-integer vertex id"),  # FULLWIDTH DIGIT ONE
        ("p 1_0 0\n", "expected 'p <n> <m>'"),
        ("p +2 0\n", "expected 'p <n> <m>'"),
        ("p 2 \u0661\n0 1\n", "expected 'p <n> <m>'"),
        ("0 -1\n", "vertex ids must be non-negative"),
    ],
)
def test_vertex_ids_are_ascii_digits(text, message):
    for source in (text, text.encode()):
        for reader in (read_arc_list, parse_edge_list):
            with pytest.raises(MalformedLine, match=re.escape(f"line 1: {message}")):
                reader(source)


def test_edge_list_round_trip():
    text = emit_edge_list(D0)
    assert text.startswith("p 5 4\n")
    assert parse_edge_list(text) == D0
    # trailing isolated vertices survive the round trip
    padded = Dag(9, D0.arcs)
    assert parse_edge_list(emit_edge_list(padded)) == padded


def test_parse_edge_list_rejects_cycles():
    with pytest.raises(CycleDetected):
        parse_edge_list("0 1\n1 0\n")


def test_condense_two_cycle():
    dag, comp = condense_scc([(0, 1), (1, 0), (1, 2)])
    assert dag.vertex_count == 2
    assert dag.arcs == ((0, 1),)
    assert comp[0] == comp[1] == 0
    assert comp[2] == 1


def test_condense_numbers_components_topologically():
    # 3 -> {0,1} cycle -> 2, plus an isolated vertex 4
    dag, comp = condense_scc([(3, 0), (0, 1), (1, 0), (1, 2)], vertex_count=5)
    assert dag.vertex_count == 4
    assert comp[3] < comp[0] == comp[1] < comp[2]
    order = dag.topo_order
    assert order.index(comp[3]) < order.index(comp[0]) < order.index(comp[2])


def test_condense_acyclic_is_identity_shape():
    dag, comp = condense_scc(list(DIAMOND.arcs), vertex_count=4)
    assert dag.vertex_count == 4
    assert sorted(comp) == [0, 1, 2, 3]
    relabeled = {(comp[u], comp[v]) for u, v in DIAMOND.arcs}
    assert set(dag.arcs) == relabeled


def test_condense_drops_self_loops_and_duplicates():
    dag, comp = condense_scc([(0, 0), (0, 1), (0, 1)], vertex_count=2)
    assert dag.arcs == ((0, 1),)


def _random_digraph(rng, n):
    """Up to 3n random arcs on ``n`` vertices: cycles, self-loops, repeats."""
    arcs = [(rng.below(n), rng.below(n)) for _ in range(rng.below(3 * n + 1))]
    return arcs + arcs[: rng.below(3)]


def test_condensation_is_pinned():
    rng = SplitMix64(407)
    digest = hashlib.sha256()
    for i in range(500):
        n = 1 + rng.below(40)
        arcs = _random_digraph(rng, n)
        # Odd rounds omit the count, so trailing isolated vertices drop out.
        dag, comp = condense_scc(arcs, vertex_count=n if i % 2 == 0 else None)
        digest.update(repr((comp, dag.vertex_count, dag.arcs)).encode())
    assert digest.hexdigest() == (
        "0bbb94343239f5a86c82df44a44888da7b4e3da576677937136c83481eb8e8f6"
    )


def test_condensation_classes_are_mutual_reachability():
    rng = SplitMix64(1972)
    for _ in range(300):
        n = 1 + rng.below(9)
        arcs = _random_digraph(rng, n)
        reach = [{v} for v in range(n)]  # transitive closure, by fixpoint
        changed = True
        while changed:
            changed = False
            for u, v in arcs:
                if not reach[v] <= reach[u]:
                    reach[u] |= reach[v]
                    changed = True
        dag, comp = condense_scc(arcs, vertex_count=n)
        for u in range(n):
            for v in range(n):
                assert (comp[u] == comp[v]) == (v in reach[u] and u in reach[v])
        assert sorted(set(comp)) == list(range(dag.vertex_count))
        between = {(comp[u], comp[v]) for u, v in arcs if comp[u] != comp[v]}
        assert set(dag.arcs) == between
        assert all(a < b for a, b in dag.arcs)


def test_emit_dot():
    lab = Labeling.from_text("0 F\n1 M", 3)
    text = emit_dot(Dag(3, [(0, 1), (1, 2)]), highlight=[(1, 2)], labeling=lab)
    assert text.startswith("digraph {\n")
    assert '0 [label="0:F"];' in text
    assert "2;" in text  # unlabeled vertex stays bare
    assert "1 -> 2 [style=dashed];" in text
    assert "0 -> 1;" in text
    with pytest.raises(ArcNotPresent):
        emit_dot(DIAMOND, highlight=[(3, 0)])


def _reference_adjacency(n, arcs):
    """Adjacency built the per-vertex way: sorted lists and a min-heap Kahn."""
    out = [sorted(v for u, v in arcs if u == x) for x in range(n)]
    in_ = [sorted(u for u, v in arcs if v == x) for x in range(n)]
    indeg = [len(lst) for lst in in_]
    ready = [v for v in range(n) if indeg[v] == 0]
    heapq.heapify(ready)
    order = []
    while ready:
        v = heapq.heappop(ready)
        order.append(v)
        for w in out[v]:
            indeg[w] -= 1
            if indeg[w] == 0:
                heapq.heappush(ready, w)
    return out, in_, tuple(order)


def _shuffled_dags(rng, count):
    """``(n, arcs)`` of random DAGs with shuffled ids, so that the
    topological order is not the identity."""
    for _ in range(count):
        n = 1 + rng.below(12)
        perm = list(range(n))
        for i in range(n - 1, 0, -1):
            j = rng.below(i + 1)
            perm[i], perm[j] = perm[j], perm[i]
        yield n, [(perm[u], perm[v]) for u, v in random_dag(rng, n, 35).arcs]


def _gadgets(rng, count):
    """``(n, arcs)`` of 3-SAT reduction gadgets, whose port -> center arcs
    point to lower ids."""
    for _ in range(count):
        num_vars = 3 + rng.below(6)
        clauses = []
        for _ in range(rng.below(6)):
            chosen = []
            while len(chosen) < 3:
                var = 1 + rng.below(num_vars)
                if var not in chosen:
                    chosen.append(var)
            clauses.append(tuple(v if rng.below(2) else -v for v in chosen))
        dag = reduce_3sat(CnfFormula(num_vars, tuple(clauses)))[0]
        yield dag.vertex_count, list(dag.arcs)


def test_arc_id_tables_match_the_per_vertex_reference():
    rng = SplitMix64(306)
    for n, arcs in [*_shuffled_dags(rng, 300), *_gadgets(rng, 100)]:
        dag = Dag(n, arcs)
        out, in_, topo = _reference_adjacency(n, arcs)
        assert dag.topo_order == topo
        for v in range(n):
            assert dag.out_neighbors(v) == tuple(out[v])
            assert dag.in_neighbors(v) == tuple(in_[v])
            assert dag.out_degree(v) == len(out[v])
            assert dag.in_degree(v) == len(in_[v])
            assert [dag.arcs[a] for a in dag.out_arcs(v)] == [(v, w) for w in out[v]]
            assert [dag.arcs[a] for a in dag.in_arcs(v)] == [(u, v) for u in in_[v]]


def _reference_read_arc_list(source):
    """The line-by-line reader that preceded the bulk pass, kept verbatim."""
    if hasattr(source, "read"):
        source = source.read()
    if isinstance(source, bytes):
        try:
            source = source.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise GraphError(f"invalid UTF-8 at byte {exc.start}") from None
    arcs = []
    declared = None
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


def _outcome(fn, source):
    """``fn(source)``, or the type and message of what it raised."""
    try:
        return fn(source)
    except (GraphError, ValueError) as exc:
        return type(exc), str(exc)


def _assert_loads_like_the_reference(source):
    expected = _outcome(_reference_read_arc_list, source)
    assert _outcome(read_arc_list, source) == expected
    built = _outcome(lambda s: Dag(*_reference_read_arc_list(s)), source)
    parsed = _outcome(parse_edge_list, source)
    assert parsed == built
    if isinstance(parsed, Dag):
        assert hash(parsed) == hash(built)
        assert repr(parsed) == repr(built)
        assert parsed.arcs == built.arcs
        assert parsed.arc_set == built.arc_set
        assert parsed.topo_order == built.topo_order


def _variants(rng, text):
    """The same arcs written the ways other tools write them."""
    header, *lines = text.splitlines()
    shuffled = sorted(lines, key=lambda _: rng.below(1 << 30))
    return [
        text,
        "\n".join(lines) + "\n",  # no header
        "\n".join(lines),  # no final newline
        "\n".join(shuffled) + "\n",
        "\n".join([header, *shuffled]) + "\n",
        "# made by hand\n" + "\n\n".join(lines) + "\n# end\n",
        "\r\n".join([header, *lines]) + "\r\n",
        "\n".join(line.replace(" ", "\t") for line in [header, *lines]) + "\n",
        "\n".join("  " + line.replace(" ", "   ") for line in lines) + "\n",
        "\n".join(["0" + line.replace(" ", " 0") for line in lines]) + "\n",
    ]


def test_loader_matches_the_line_reader_on_emitted_dags():
    rng = SplitMix64(809)
    for _ in range(300):
        n = 1 + rng.below(14)
        text = emit_edge_list(random_dag(rng, n, 40))
        _assert_loads_like_the_reference(text)
        _assert_loads_like_the_reference(text.encode())
        if text.count("\n") > 1:
            for variant in _variants(rng, text):
                _assert_loads_like_the_reference(variant)


def test_loader_matches_the_line_reader_on_mutated_files():
    text = emit_edge_list(NEAR_FUNNEL_8)
    bases = [text.encode(), text.split("\n", 1)[1].encode()]  # with and without header
    rng = SplitMix64(78)
    for i in range(2000):
        _assert_loads_like_the_reference(mutate(rng, bases[i % 2]))


@pytest.mark.parametrize(
    "text, error, message",
    [
        ("p 4 3\n2 3\n0 1\n1 2\n", None, None),  # unsorted, plain
        ("p 4 3\n0 1\n1 2\n0 1\n", DuplicateArc, r"duplicate arc \(0, 1\)"),
        ("0 1\n2 3\n0 1\n", DuplicateArc, r"duplicate arc \(0, 1\)"),
        ("p 3 2\n0 1\n2 2\n", SelfLoop, "self-loop at vertex 2"),
        ("1 1\n0 1\n0 1\n", SelfLoop, "self-loop at vertex 1"),
        ("0 1\n1 2\n2 0\n", CycleDetected, "directed cycle"),
        ("p 3 2\n0 1\n1 3\n", MalformedLine, "line 3: vertex id beyond declared count 3"),
        ("p 3 3\n0 1\n1 2\n", MalformedLine, "line 1: header declares 3 arcs, found 2"),
        (f"0 {MAX_VERTICES}\n", MalformedLine, "line 1: vertex id beyond vertex limit"),
        (f"p {MAX_VERTICES + 1} 0\n", MalformedLine, "line 1: vertex count not in"),
    ],
)
def test_plain_files_with_faults_raise_the_errors_of_the_line_reader(text, error, message):
    _assert_loads_like_the_reference(text)
    if error is None:
        assert parse_edge_list(text) == Dag(4, [(0, 1), (1, 2), (2, 3)])
    else:
        with pytest.raises(error, match=message):
            parse_edge_list(text)


def test_shuffled_arcs_build_the_sorted_tables():
    rng = SplitMix64(811)
    for _ in range(100):
        n = 1 + rng.below(10)
        arcs = list(random_dag(rng, n, 50).arcs)
        shuffled = sorted(arcs, key=lambda _: rng.below(1000))
        text = f"p {n} {len(arcs)}\n" + "".join(f"{u} {v}\n" for u, v in shuffled)
        for dag in (Dag(n, shuffled), parse_edge_list(text)):
            assert dag == Dag(n, arcs)
            assert dag.tails == tuple(u for u, _ in arcs)
            assert dag.heads == tuple(v for _, v in arcs)


def _random_arcs(rng, n, count):
    """Up to ``count`` distinct arcs on ``n`` vertices, oriented by a random
    ranking of the ids (so the topological order is not the identity), in
    a random order.  Every id is a fresh int object."""
    rank = list(range(n))
    for i in range(n - 1, 0, -1):
        j = rng.below(i + 1)
        rank[i], rank[j] = rank[j], rank[i]
    arcs = {}
    for _ in range(count):
        u, v = rng.below(n), rng.below(n)
        if u != v:
            arcs.setdefault((u, v) if rank[u] < rank[v] else (v, u), rng.below(1 << 30))
    return sorted(arcs, key=arcs.__getitem__)


def test_vertex_tables_share_one_int_object_per_vertex():
    # n > 256, so that CPython's cache of small ints cannot hide a table
    # that holds its own copies of the ids.
    rng = SplitMix64(814)
    n = 600
    arcs = _random_arcs(rng, n, 2 * n)
    kahn = Dag(n, arcs)
    assert kahn.topo_order != tuple(range(n))
    text = emit_edge_list(kahn)
    dags = [
        kahn,
        parse_edge_list(text),  # bulk reader
        parse_edge_list(text.replace(" ", "\t")),  # line loop
        dag_from_keys(n, [u * n + v for u, v in arcs]),
        planted_instance(GenParams(n=700, p=0.01, s=40, seed=5))[0],
        delete_arcs(kahn, arcs[::3]),
    ]
    for dag in dags:
        tables = chain(dag.tails, dag.heads, dag.in_tails, dag.topo_order)
        assert len({id(x) for x in tables}) == dag.vertex_count
        # The tables of arc ids hold no int objects at all.
        for table in (dag.out_off, dag.in_off, dag.in_ids):
            assert type(table) is array and table.typecode == "i"


def test_keys_out_of_range_name_their_arc():
    # A key below 0 would decode through a negative index to a wrong vertex.
    with pytest.raises(ValueError, match=r"arc \(-1, 3\) out of range for 5 vertices"):
        dag_from_keys(5, [-2, 1])
    with pytest.raises(ValueError, match=r"arc \(6, 0\) out of range for 5 vertices"):
        dag_from_keys(5, [1, 30])
    assert dag_from_keys(5, [23, 1]).arcs == ((0, 1), (4, 3))
    with pytest.raises(SelfLoop, match="self-loop at vertex 4"):
        dag_from_keys(5, [24, 1])


def test_in_arc_tables_are_a_stable_sort_by_head():
    rng = SplitMix64(815)
    for _ in range(200):
        n = 1 + rng.below(600)
        dag = Dag(n, _random_arcs(rng, n, rng.below(3 * n + 1)))
        by_head = sorted(range(dag.arc_count), key=dag.heads.__getitem__)
        assert dag.in_ids == array("i", by_head)
        assert dag.in_tails == tuple(dag.tails[a] for a in by_head)


def test_bulk_reader_edge_cases_load_like_the_line_loop():
    # Three 9-character lines, then 10-character ones: the body's first
    # block ends on a newline exactly _BLOCK characters in.
    arcs = [(100, 5000), (101, 5000), (102, 5000)]
    arcs += [(1000 + i, 1001 + i) for i in range(8000)]
    dag = Dag(9001, arcs)
    text = emit_edge_list(dag)
    header, body = text.split("\n", 1)
    assert body[_BLOCK] == "\n" and len(body) > _BLOCK + 1
    lines = body.splitlines(keepends=True)
    cut = len(body[: _BLOCK + 1].splitlines())  # lines in the first block
    plain = [body, text, "".join(lines[:cut]), "".join(lines[: cut + 1]),
             "".join(lines[: cut - 1])]
    # JSON rejects leading zeros, so these go through the line loop.
    zeros = []
    for at in (cut - 1, cut, len(lines) - 1):
        edited = lines[:at] + ["0" + lines[at]] + lines[at + 1 :]
        zeros += ["".join(edited), header + "\n" + "".join(edited)]
    # So do a last line without its newline, a lone id and ids of 2^31 and
    # more.
    other = [body[:-1], "".join(lines[:cut]) + "7", "1", "9497296", "12 3\n45",
             "1 2147483648\n", "4294967297 1\n"]
    for source in plain + zeros + other:
        assert (_read_plain(source) is None) == (source not in plain)
        _assert_loads_like_the_reference(source)
    for source in (body, text, body[:-1], *zeros):
        assert parse_edge_list(source) == dag


def test_loading_keeps_the_tables_lean():
    # Bytes per arc while parse_edge_list loads a planted n = 20,000 file
    # (m = 40,452): about 69 at the peak and 52 retained by the Dag.  Offset
    # tables as tuples of ints peak at about 106 and retain 87, in-arc ids
    # sorted by sorted() peak at about 101, and tables without shared id
    # objects retain about 115.
    dag, _ = planted_instance(GenParams(n=20_000, p=0.0004, s=400, seed=12))
    text = emit_edge_list(dag)
    m = dag.arc_count
    del dag
    tracemalloc.start()
    try:
        loaded = parse_edge_list(text)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert loaded.arc_count == m == 40_452
    assert peak / m < 79
    assert retained / m < 60
