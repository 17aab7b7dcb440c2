import heapq
import io
import re

import pytest

from funnelkit import (
    ArcNotPresent,
    CycleDetected,
    Dag,
    DuplicateArc,
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
    read_arc_list,
    topological_order,
)
from funnelkit.graph import MAX_VERTICES
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


def test_arc_id_tables_match_the_per_vertex_reference():
    rng = SplitMix64(306)
    for _ in range(300):
        n = 1 + rng.below(12)
        # Shuffled ids, so that the topological order is not the identity.
        perm = list(range(n))
        for i in range(n - 1, 0, -1):
            j = rng.below(i + 1)
            perm[i], perm[j] = perm[j], perm[i]
        arcs = [(perm[u], perm[v]) for u, v in random_dag(rng, n, 35).arcs]
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
