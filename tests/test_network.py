import itertools
import random
import statistics
from dataclasses import replace
from xml.etree import ElementTree

import networkx as nx
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from newsreuse import network
from newsreuse.network import (
    COMBINED,
    RepublishGraph,
    attach_engagement,
    attach_metrics,
    betweenness,
    build_window_graph,
    compute_node_metrics,
    export_dot,
    export_graphml,
    flag_single_day_origins,
    louvain,
    merge_graphs,
)

from helpers import BASE_TS, make_pair
from oracles import (
    dict_betweenness,
    direct_modularity,
    enumeration_betweenness,
    line_dot,
    line_graphml,
)


def _graph(edges, window=0):
    g = RepublishGraph(window)
    for frm, to, *w in edges:
        g.add_edge(frm, to, w[0] if w else 1)
    return g


def test_build_aggregates_repeat_pairs():
    pairs = [
        make_pair("y", "x", earlier_id=f"y{i}", later_id=f"x{i}") for i in range(3)
    ]
    graph = build_window_graph(pairs, window_index=0)
    assert graph.edges() == [("x", "y", 3)]
    assert graph.total_weight == 3


def test_build_chain_direction():
    pairs = [make_pair("b", "a"), make_pair("c", "b")]
    graph = build_window_graph(pairs, window_index=0)
    assert ("a", "b", 1) in graph.edges()
    assert ("b", "c", 1) in graph.edges()


def test_build_excludes_ambiguous_by_default():
    tie = make_pair("a", "b", delta=0)
    assert tie.direction == "ambiguous"
    assert build_window_graph([tie], window_index=0).edges() == []
    with_flag = build_window_graph([tie], include_ambiguous=True, window_index=0)
    assert with_flag.edges() == [("b", "a", 1)]


def test_build_combined_graph_from_mixed_windows():
    pairs = [make_pair("a", "b", window=0), make_pair("b", "c", window=1)]
    graph = build_window_graph(pairs, window_index=COMBINED)
    assert graph.total_weight == 2


def test_weight_conservation():
    rng = random.Random(3)
    pairs = []
    for i in range(40):
        a, b = rng.sample(["s1", "s2", "s3", "s4", "s5"], 2)
        pairs.append(
            make_pair(a, b, earlier_id=f"e{i}", later_id=f"l{i}",
                      delta=rng.choice([0, 600, 3600]))
        )
    graph = build_window_graph(pairs, window_index=0)
    forward = sum(1 for p in pairs if p.direction == "forward")
    assert graph.total_weight == forward


def test_dedupe_origin_collapses_star():
    first = make_pair("origin", "copier1", earlier_id="o1", later_id="c1")
    second = make_pair("origin", "copier2", earlier_id="o1", later_id="c2", delta=7200)
    # copier1's article also matches copier2's article (same story).
    cross = make_pair(
        "copier1", "copier2", earlier_id="c1", later_id="c2",
        earlier_ts=BASE_TS + 3600, delta=3600,
    )
    full = build_window_graph([first, second, cross], window_index=0)
    assert full.total_weight == 3
    deduped = build_window_graph([first, second, cross], dedupe_origin=True, window_index=0)
    assert deduped.edges() == [("copier1", "origin", 1), ("copier2", "origin", 1)]


def test_merge_sums_weights():
    merged = merge_graphs([_graph([("a", "b", 2)]), _graph([("a", "b", 3)], window=1)])
    assert merged.window_index == COMBINED
    assert merged.edges() == [("a", "b", 5)]


def test_merge_disjoint_union():
    merged = merge_graphs([_graph([("a", "b")]), _graph([("c", "d")], window=1)])
    assert merged.edges() == [("a", "b", 1), ("c", "d", 1)]


def test_merge_associative_and_commutative():
    a = _graph([("a", "b", 2), ("b", "c", 1)])
    b = _graph([("a", "b", 1), ("c", "a", 4)], window=1)
    c = _graph([("d", "a", 3)], window=2)
    one = merge_graphs([merge_graphs([a, b]), c])
    two = merge_graphs([a, merge_graphs([b, c])])
    flat = merge_graphs([c, b, a])
    assert one == two == flat


def test_merge_equals_build_from_concatenation():
    rng = random.Random(9)
    sources = ["s1", "s2", "s3", "s4"]
    all_pairs = []
    window_graphs = []
    for w in range(6):
        pairs = []
        for i in range(rng.randint(0, 8)):
            a, b = rng.sample(sources, 2)
            pairs.append(
                make_pair(a, b, window=w, earlier_id=f"w{w}e{i}", later_id=f"w{w}l{i}")
            )
        all_pairs.extend(pairs)
        window_graphs.append(build_window_graph(pairs, window_index=w))
    merged = merge_graphs(window_graphs)
    rebuilt = build_window_graph(all_pairs, window_index=COMBINED)
    assert merged == rebuilt


def test_degree_metrics_star():
    graph = _graph([(leaf, "hub") for leaf in ["l1", "l2", "l3", "l4"]])
    attach_metrics(graph)
    hub = graph.node_attrs("hub")
    assert hub["weighted_in"] == 4
    assert hub["weighted_out"] == 0
    assert hub["in_degree_centrality"] == 1.0
    assert graph.node_attrs("l1")["in_degree_centrality"] == 0.0


def test_degree_metrics_isolated_node():
    graph = _graph([("a", "b")])
    graph.add_node("loner")
    attach_metrics(graph)
    loner = graph.node_attrs("loner")
    assert loner["weighted_in"] == 0
    assert loner["weighted_out"] == 0
    assert loner["in_degree_centrality"] == 0.0


def test_degree_metrics_match_adjacency_sums():
    rng = random.Random(17)
    nodes = [f"n{i}" for i in range(10)]
    graph = RepublishGraph(0)
    weights = {}
    for a, b in itertools.permutations(nodes, 2):
        if rng.random() < 0.2:
            w = rng.randint(1, 5)
            graph.add_edge(a, b, w)
            weights[(a, b)] = w
    attach_metrics(graph)
    for v in nodes:
        if not graph.has_node(v):
            continue
        assert graph.node_attrs(v)["weighted_in"] == sum(
            w for (a, b), w in weights.items() if b == v
        )
        assert graph.node_attrs(v)["weighted_out"] == sum(
            w for (a, b), w in weights.items() if a == v
        )


def test_removing_edge_never_increases_in_degree():
    graph = _graph([("a", "b", 2), ("c", "b", 1), ("b", "a", 1)])
    attach_metrics(graph)
    before = {v: graph.node_attrs(v)["weighted_in"] for v in graph.nodes()}
    smaller = _graph([("a", "b", 2), ("b", "a", 1)])
    attach_metrics(smaller)
    for v in smaller.nodes():
        assert smaller.node_attrs(v)["weighted_in"] <= before[v]


def test_betweenness_path():
    graph = _graph([("a", "b"), ("b", "c")])
    cb = betweenness(graph)
    assert cb == {"a": 0.0, "b": 1.0, "c": 0.0}


def test_betweenness_complete_digraph():
    nodes = ["a", "b", "c"]
    graph = _graph([(a, b) for a, b in itertools.permutations(nodes, 2)])
    assert betweenness(graph) == {"a": 0.0, "b": 0.0, "c": 0.0}


def test_betweenness_matches_enumeration_oracle():
    rng = random.Random(101)
    for trial in range(30):
        n = rng.randint(2, 8)
        nodes = [f"n{i}" for i in range(n)]
        edges = [
            (a, b) for a, b in itertools.permutations(nodes, 2)
            if rng.random() < 0.35
        ]
        graph = RepublishGraph(0)
        for v in nodes:
            graph.add_node(v)
        for a, b in edges:
            graph.add_edge(a, b, rng.randint(1, 4))
        got = betweenness(graph)
        want = enumeration_betweenness(nodes, edges)
        for v in nodes:
            assert abs(got[v] - want[v]) < 1e-9, f"trial {trial} node {v}"


@st.composite
def _digraphs(draw):
    """Digraphs with isolated nodes and up to three parts with no edge
    between them. Within a part, random edges, and optionally layers of
    equal width with every node of one layer pointing at every node of the
    next, which give many shortest paths of one length."""
    n = draw(st.integers(1, 14))
    parts = draw(st.integers(1, 3))
    names = draw(st.permutations([f"v{i:02d}" for i in range(n)]))
    graph = RepublishGraph(0)
    for name in names:
        graph.add_node(name)
    for a, b in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                              max_size=n * n)):
        if a != b and a % parts == b % parts:
            graph.add_edge(names[a], names[b])
    width = draw(st.integers(0, 4))
    for part in range(parts) if width else ():
        members = names[part::parts]
        layers = [members[i:i + width] for i in range(0, len(members), width)]
        for upper, lower in zip(layers, layers[1:]):
            for a in upper:
                for b in lower:
                    graph.add_edge(a, b)
    return graph


def _layered(widths):
    graph = RepublishGraph(0)
    layers = [[f"l{depth}-{i}" for i in range(w)] for depth, w in enumerate(widths)]
    for upper, lower in zip(layers, layers[1:]):
        for a in upper:
            for b in lower:
                graph.add_edge(a, b)
    graph.add_node("isolated")
    return graph


def _numbered(edges):
    graph = RepublishGraph(0)
    for a, b in edges:
        graph.add_edge(f"v{a}", f"v{b}")
    return graph


@given(_digraphs())
@example(_numbered([(0, 1), (0, 3), (0, 5), (0, 6), (1, 0), (1, 2), (2, 0), (2, 3), (2, 4),
                    (3, 2), (3, 5), (4, 0), (4, 2), (4, 3), (4, 5), (5, 0), (5, 4), (6, 0)]))
@example(_layered([1, 3, 3, 3, 1]))
@example(_layered([2, 3, 5, 7, 3]))
@settings(max_examples=300, deadline=None, derandomize=True)
def test_betweenness_equals_the_dict_version_bit_for_bit(graph):
    """Integer ids change no sum's order: every value is `==` the dict-based
    Brandes's, in the same key order."""
    got, want = betweenness(graph), dict_betweenness(graph)
    assert list(got.items()) == list(want.items())


def _two_cliques(bridge=True):
    graph = RepublishGraph(0)
    left = [f"l{i}" for i in range(8)]
    right = [f"r{i}" for i in range(8)]
    for group in (left, right):
        for a, b in itertools.combinations(group, 2):
            graph.add_edge(a, b)
    if bridge:
        graph.add_edge("l0", "r0")
    return graph, left, right


def test_louvain_recovers_planted_cliques():
    graph, left, right = _two_cliques()
    partition = louvain(graph, seed=0)
    communities = partition.communities
    assert len({communities[v] for v in left}) == 1
    assert len({communities[v] for v in right}) == 1
    assert communities["l0"] != communities["r0"]
    assert partition.modularity > 0.45
    direct = direct_modularity(graph.edges(), communities)
    assert abs(partition.modularity - direct) < 1e-9


def test_louvain_edgeless_graph():
    graph = RepublishGraph(0)
    for v in ("a", "b", "c"):
        graph.add_node(v)
    partition = louvain(graph, seed=1)
    assert sorted(partition.communities.values()) == [0, 1, 2]
    assert partition.modularity == 0.0


def test_louvain_dyad_single_community():
    partition = louvain(_graph([("a", "b", 2)]), seed=5)
    assert partition.communities["a"] == partition.communities["b"]


def test_louvain_invariant_to_insertion_order():
    edges = [("a", "b"), ("b", "c"), ("c", "a"), ("d", "e"), ("e", "f"), ("f", "d"),
             ("a", "d")]
    forward = RepublishGraph(0)
    for frm, to in edges:
        forward.add_edge(frm, to)
    backward = RepublishGraph(0)
    for frm, to in reversed(edges):
        backward.add_edge(frm, to)
    assert louvain(forward, seed=3) == louvain(backward, seed=3)


def _projected_modularity(graph, partition):
    return network._modularity(network._undirected_projection(graph), partition, 1.0)


def test_modularity_disconnected_cliques_half():
    graph, left, right = _two_cliques(bridge=False)
    partition = {v: 0 for v in left} | {v: 1 for v in right}
    assert _projected_modularity(graph, partition) == pytest.approx(0.5, abs=1e-12)


def test_modularity_two_cliques_with_bridge_hand_value():
    graph, left, right = _two_cliques()
    partition = {v: 0 for v in left} | {v: 1 for v in right}
    # m = 57, per clique: sigma_in = 56, sigma_tot = 57.
    expected = 2 * (56 / 114 - (57 / 114) ** 2)
    assert _projected_modularity(graph, partition) == pytest.approx(expected, abs=1e-12)
    whole = {v: 0 for v in list(left) + list(right)}
    assert _projected_modularity(graph, whole) == pytest.approx(0.0, abs=1e-12)


def test_modularity_edgeless_zero():
    graph = RepublishGraph(0)
    graph.add_node("a")
    assert _projected_modularity(graph, {"a": 0}) == 0.0


def test_attach_engagement_medians():
    # Three matched articles for one source with shares 10, 20, 30.
    p1 = make_pair("orig", "copier", earlier_id="o1", later_id="c1")
    p2 = make_pair("orig", "copier", earlier_id="o2", later_id="c2")
    p3 = make_pair("orig", "copier", earlier_id="o3", later_id="c3")
    p1 = replace(p1, earlier=replace(p1.earlier, fb_shares=10))
    p2 = replace(p2, earlier=replace(p2.earlier, fb_shares=20))
    p3 = replace(p3, earlier=replace(p3.earlier, fb_shares=30, fb_reactions=4))
    pairs = [p1, p2, p3]
    graph = build_window_graph(pairs, window_index=0)
    attach_engagement(graph, pairs)
    assert graph.node_attrs("orig")["median_fb_shares"] == 20.0
    assert graph.node_attrs("orig")["median_fb_reactions"] == 4.0
    assert graph.node_attrs("copier")["median_fb_shares"] is None

    even = [p1, p2]
    graph2 = build_window_graph(even, window_index=0)
    attach_engagement(graph2, even)
    assert graph2.node_attrs("orig")["median_fb_shares"] == 15.0


def test_attach_engagement_dedupes_articles():
    p1 = make_pair("orig", "c1", earlier_id="same", later_id="x1")
    p2 = make_pair("orig", "c2", earlier_id="same", later_id="x2")
    p1 = replace(p1, earlier=replace(p1.earlier, fb_shares=100))
    p2 = replace(p2, earlier=replace(p2.earlier, fb_shares=100))
    graph = build_window_graph([p1, p2], window_index=0)
    attach_engagement(graph, [p1, p2])
    # one article, not two samples
    assert graph.node_attrs("orig")["median_fb_shares"] == 100.0


def test_compute_node_metrics_across_windows():
    g0 = _graph([("a", "b")], window=0)
    g1 = _graph([("a", "b"), ("c", "b")], window=1)
    combined = merge_graphs([g0, g1])
    for graph in (combined, g0, g1):
        attach_metrics(graph)
    compute_node_metrics(combined, [g0, g1], 2)
    b, c = combined.node_attrs("b"), combined.node_attrs("c")
    assert b["weighted_in"] == 3
    # b's in-degree centrality is 1.0 in both windows, c's is 0.0 in both.
    assert (b["in_centrality_mean"], b["in_centrality_var"]) == (1.0, 0.0)
    assert (c["in_centrality_mean"], c["in_centrality_var"]) == (0.0, 0.0)
    assert b["betweenness_mean"] == 0.0
    assert combined.node_attrs("a")["weighted_out"] == 2



@given(
    st.lists(st.floats(min_value=0.0, max_value=1e12), max_size=40),
    st.integers(0, 400),
)
@example([0.1, 0.2, 0.7], 209488)  # the 3-article span of 209,491 windows
@example([5e-324, 1e12, 1 / 3], 0)
@settings(max_examples=500, deadline=None)
def test_padded_moments_equal_statistics_on_padded_series(values, zeros):
    assume(values or zeros)
    padded = values + [0.0] * zeros
    assert network._padded_moments(values, len(padded)) == (
        statistics.fmean(padded),
        statistics.pvariance(padded),
    )

_edges = st.lists(
    st.tuples(st.sampled_from("abcde"), st.sampled_from("abcde"), st.integers(1, 3)).filter(
        lambda e: e[0] != e[1]
    ),
    max_size=8,
)


@given(st.integers(1, 12).flatmap(
    lambda n: st.tuples(
        st.just(n), st.dictionaries(st.integers(0, n - 1), _edges, min_size=1)
    )
))
@settings(max_examples=200, deadline=None)
def test_compute_node_metrics_equals_series_in_window_order(case):
    """Graphs for some of `window_count` windows give the mean and variance
    of each node's series in window order, with zeros for the other windows."""
    window_count, edges_by_window = case
    graphs = [_graph(edges_by_window[i], window=i) for i in sorted(edges_by_window)]
    combined = merge_graphs(graphs)
    for graph in (combined, *graphs):
        attach_metrics(graph)
    compute_node_metrics(combined, graphs, window_count)
    by_index = {g.window_index: g for g in graphs}
    for node in combined.nodes():
        attrs = combined.node_attrs(node)
        for prefix, name in (("in_centrality", "in_degree_centrality"),
                             ("betweenness", "betweenness")):
            series = [
                by_index[i].node_attrs(node)[name]
                if i in by_index and by_index[i].has_node(node) else 0.0
                for i in range(window_count)
            ]
            assert attrs[f"{prefix}_mean"] == statistics.fmean(series)
            assert attrs[f"{prefix}_var"] == statistics.pvariance(series)


def test_flag_single_day_origins():
    same_day = [
        make_pair("stormer", "copier%d" % i, earlier_id=f"o{i}", later_id=f"c{i}",
                  earlier_ts=BASE_TS + 60 * i)
        for i in range(6)
    ]
    flags = flag_single_day_origins(same_day)
    assert len(flags) == 1
    assert flags[0][0] == "stormer"
    assert flags[0][2] == 1.0
    spread = [
        make_pair("wire", "copier%d" % i, earlier_id=f"so{i}", later_id=f"sc{i}",
                  earlier_ts=BASE_TS + i * 3 * 86400)
        for i in range(6)
    ]
    assert flag_single_day_origins(spread) == []


def test_export_graphml_empty_graph(tmp_path):
    path = tmp_path / "empty.graphml"
    export_graphml(RepublishGraph(0), path)
    parsed = nx.read_graphml(path)
    assert parsed.number_of_nodes() == 0


def test_export_graphml_edge_weight(tmp_path):
    path = tmp_path / "g.graphml"
    export_graphml(_graph([("a", "b", 3)]), path)
    text = path.read_text(encoding="utf-8")
    assert text.count("<edge") == 1
    assert '<data key="e_weight">3</data>' in text


def test_export_graphml_round_trip(tmp_path):
    graph = _graph([("a", "b", 3), ("b", "c", 1)])
    graph.node_attrs("a").update(
        {"community": 0, "audience": "mainstream", "median_fb_shares": 12.5,
         "skipped": None}
    )
    graph.node_attrs("b")["community"] = 1
    path = tmp_path / "rt.graphml"
    export_graphml(graph, path)
    parsed = nx.read_graphml(path)
    assert sorted(parsed.nodes()) == ["a", "b", "c"]
    assert parsed.nodes["a"]["community"] == 0
    assert parsed.nodes["a"]["audience"] == "mainstream"
    assert parsed.nodes["a"]["median_fb_shares"] == 12.5
    assert "skipped" not in parsed.nodes["a"]
    assert parsed.edges["a", "b"]["weight"] == 3
    assert parsed.edges["b", "c"]["weight"] == 1


def test_export_deterministic_bytes(tmp_path):
    graph = _graph([("a", "b", 2), ("c", "a", 1)])
    graph.node_attrs("a")["community"] = 0
    first, second = tmp_path / "one.graphml", tmp_path / "two.graphml"
    export_graphml(graph, first)
    export_graphml(graph, second)
    assert first.read_bytes() == second.read_bytes()
    d1, d2 = tmp_path / "one.dot", tmp_path / "two.dot"
    export_dot(graph, d1)
    export_dot(graph, d2)
    assert d1.read_bytes() == d2.read_bytes()


_AWKWARD_NAMES = [
    "a & b <c>", 'say "hi"', "it's", "both \" and '", "line\nbreak", "cr\r and\ttab",
    "café 東京 — ß", "back\\slash", "&amp; already", "plain",
]


def _awkward_graph(window_index):
    graph = RepublishGraph(window_index)
    for i, frm in enumerate(_AWKWARD_NAMES):
        for step, to in enumerate(_AWKWARD_NAMES[i + 1:i + 4], start=1):
            graph.add_edge(frm, to, step * (i + 1))
        if i:
            graph.add_edge(frm, _AWKWARD_NAMES[0])
    attach_metrics(graph)
    partition = louvain(graph, seed=2)
    for node in graph.nodes():
        attrs = graph.node_attrs(node)
        attrs["community"] = partition.communities[node] if "a" in node else None
        attrs["audience"] = f"<{node}> & \"{node}\" 'x'\r\n\t"
        attrs["leaning"] = "left"
        attrs["median_fb_shares"] = None if "e" in node else 2.5
    graph.node_attrs("plain")["mixed"] = 3
    graph.node_attrs("it's")["mixed"] = 0.1
    graph.node_attrs("cr\r and\ttab")["mixed"] = "cr\r & <b>"
    graph.add_node("lonely 'node' <x>")
    return graph


@pytest.mark.parametrize("window_index", [7, COMBINED])
def test_writers_equal_the_line_at_a_time_versions(tmp_path, window_index):
    """Names and string values holding & < > " ' CR LF tab, both quote kinds
    in one name, and non-ASCII text: each file is byte-equal to the one the
    earlier writers built a line at a time, which escape with
    `xml.sax.saxutils`."""
    graph = _awkward_graph(window_index)
    for export, oracle, suffix in ((export_graphml, line_graphml, "graphml"),
                                   (export_dot, line_dot, "dot")):
        got, want = tmp_path / f"got.{suffix}", tmp_path / f"want.{suffix}"
        export(graph, got)
        oracle(graph, want)
        assert got.read_bytes() == want.read_bytes(), suffix
    ns = "{http://graphml.graphdrawing.org/xmlns}"
    root = ElementTree.parse(tmp_path / "got.graphml").getroot()
    assert [node.get("id") for node in root.iter(f"{ns}node")] == graph.nodes()


def test_export_dot_contents(tmp_path):
    graph = _graph([("a", "b", 3)])
    graph.node_attrs("a")["community"] = 0
    graph.node_attrs("b")["community"] = 1
    path = tmp_path / "g.dot"
    export_dot(graph, path)
    text = path.read_text(encoding="utf-8")
    assert text.startswith("digraph")
    assert '"a" -> "b" [weight=3, penwidth=6.000' in text
    assert "fillcolor" in text
