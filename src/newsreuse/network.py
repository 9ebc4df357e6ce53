"""Republishing graphs: construction, metrics, communities, and export.

Edge A -> B with weight w means source A published w articles copied from
source B, direction inferred from publication timestamps. Metrics follow
that reading: a source's weighted in-degree is the number of articles other
sources copied from it.
"""

from __future__ import annotations

import logging
import math
import random
import statistics
from collections import Counter, defaultdict
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence

from .corpus import (
    FORWARD,
    LABEL_VALUES,
    SECONDS_PER_DAY,
    MatchedPair,
    write_csv,
    write_lines,
)

log = logging.getLogger(__name__)

COMBINED = "combined"


class RepublishGraph:
    """Directed weighted graph of sources with per-node attribute dicts."""

    def __init__(self, window_index: int | str):
        self.window_index = window_index
        self._nodes: dict[str, dict] = {}
        self._out: dict[str, dict[str, int]] = {}

    def add_node(self, source: str) -> None:
        if source not in self._nodes:
            self._nodes[source] = {}
            self._out[source] = {}

    def add_edge(self, frm: str, to: str, weight: int = 1) -> None:
        if frm == to:
            raise ValueError(f"self-loop on {frm!r}")
        if weight <= 0:
            raise ValueError("edge weight must be positive")
        self.add_node(frm)
        self.add_node(to)
        self._out[frm][to] = self._out[frm].get(to, 0) + weight

    def has_node(self, source: str) -> bool:
        return source in self._nodes

    def nodes(self) -> list[str]:
        return sorted(self._nodes)

    def edges(self) -> list[tuple[str, str, int]]:
        return sorted(
            (frm, to, w) for frm, outs in self._out.items() for to, w in outs.items()
        )

    def node_attrs(self, source: str) -> dict:
        return self._nodes[source]

    def successors(self, source: str) -> list[str]:
        return sorted(self._out.get(source, {}))

    @property
    def num_nodes(self) -> int:
        return len(self._nodes)

    @property
    def num_edges(self) -> int:
        return sum(len(outs) for outs in self._out.values())

    @property
    def total_weight(self) -> int:
        return sum(w for outs in self._out.values() for w in outs.values())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RepublishGraph):
            return NotImplemented
        return (
            self.window_index == other.window_index
            and self._nodes == other._nodes
            and self._out == other._out
        )

    def __repr__(self) -> str:
        return (
            f"RepublishGraph(window={self.window_index!r}, "
            f"nodes={self.num_nodes}, edges={self.num_edges})"
        )


def _story_clusters(pairs: Sequence[MatchedPair]) -> list[list[MatchedPair]]:
    parent: dict[str, str] = {}

    def find(x: str) -> str:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for p in pairs:
        for aid in (p.earlier.id, p.later.id):
            parent.setdefault(aid, aid)
        ra, rb = find(p.earlier.id), find(p.later.id)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    clusters: dict[str, list[MatchedPair]] = defaultdict(list)
    for p in pairs:
        clusters[find(p.earlier.id)].append(p)
    return [clusters[root] for root in sorted(clusters)]


def build_window_graph(
    matches: Sequence[MatchedPair],
    *,
    include_ambiguous: bool = False,
    dedupe_origin: bool = False,
    window_index: int | str,
) -> RepublishGraph:
    """Aggregate matched pairs into a directed weighted source graph.

    Ambiguous-direction pairs (identical timestamps) are excluded unless
    `include_ambiguous` is set, in which case the lexicographically smaller
    source is treated as the original. With `dedupe_origin`, pairwise links
    within one story cluster collapse to a single edge per copying article,
    pointing at the cluster's earliest publisher.
    """
    graph = RepublishGraph(window_index)
    included = [
        p for p in matches if p.direction == FORWARD or include_ambiguous
    ]
    if dedupe_origin:
        for cluster in _story_clusters(included):
            articles = {}
            for p in cluster:
                articles[p.earlier.id] = p.earlier
                articles[p.later.id] = p.later
            origin = min(
                articles.values(), key=lambda a: (a.published_utc, a.source, a.id)
            )
            for aid in sorted(articles):
                article = articles[aid]
                if aid == origin.id or article.source == origin.source:
                    continue
                graph.add_edge(article.source, origin.source)
        return graph
    for p in included:
        graph.add_edge(p.later.source, p.earlier.source)
    return graph


def merge_graphs(graphs: Iterable[RepublishGraph]) -> RepublishGraph:
    """Union of nodes, edge weights summed; node attributes are not carried."""
    combined = RepublishGraph(COMBINED)
    for graph in graphs:
        for node in graph.nodes():
            combined.add_node(node)
        for frm, to, w in graph.edges():
            combined.add_edge(frm, to, w)
    return combined


def betweenness(graph: RepublishGraph) -> dict[str, float]:
    """Directed betweenness via Brandes's dependency accumulation.

    Unnormalized. Edge weights are copy counts, not distances, so the graph
    is treated as unweighted. Nodes are numbered by their place in
    `graph.nodes()`, and each search visits, counts and sums in the order a
    search over the names would, so every value keeps its bits.
    """
    nodes = graph.nodes()
    number = {v: i for i, v in enumerate(nodes)}
    succ = [[number[w] for w in graph.successors(v)] for v in nodes]
    n = len(nodes)
    cb = [0.0] * n
    for s in range(n):
        if not succ[s]:  # s reaches no node, so it adds to no node's value
            continue
        dist = [n] * n  # n: farther than any node s reaches
        sigma = [0.0] * n
        preds: list = [None] * n
        dist[s] = 0
        sigma[s] = 1.0
        order = [s]
        for v in order:  # the BFS queue: nodes are appended while it is read
            step = dist[v] + 1
            sv = sigma[v]
            for w in succ[v]:
                if dist[w] >= step:
                    if dist[w] == step:
                        sigma[w] += sv
                        preds[w].append(v)
                    else:  # first reached: its sigma is 0.0 + sv
                        dist[w] = step
                        sigma[w] = sv
                        preds[w] = [v]
                        order.append(w)
        delta = [0.0] * n
        for w in order[:0:-1]:  # every reached node but s, the farthest first
            dw = delta[w]  # final: each node with w among its preds came earlier
            coeff = (1.0 + dw) / sigma[w]
            for v in preds[w]:
                delta[v] += sigma[v] * coeff
            cb[w] += dw
    return dict(zip(nodes, cb))


def _undirected_projection(graph: RepublishGraph) -> dict[str, dict[str, float]]:
    adj: dict[str, dict[str, float]] = {v: {} for v in graph.nodes()}
    for frm, to, w in graph.edges():
        adj[frm][to] = adj[frm].get(to, 0.0) + w
        adj[to][frm] = adj[to].get(frm, 0.0) + w
    return adj


def _modularity(
    adj: Mapping[str, Mapping[str, float]], communities: Mapping[str, int], resolution: float
) -> float:
    """Newman modularity of a partition on an undirected projection."""
    degree = {v: sum(ws.values()) for v, ws in adj.items()}
    m2 = sum(degree.values())
    if m2 == 0.0:
        return 0.0
    internal: dict[int, float] = defaultdict(float)
    total: dict[int, float] = defaultdict(float)
    for v, ws in adj.items():
        cv = communities[v]
        total[cv] += degree[v]
        for u, w in ws.items():
            if communities[u] == cv:
                internal[cv] += w
    q = 0.0
    for c in total:
        q += internal[c] / m2 - resolution * (total[c] / m2) ** 2
    return q


def _louvain_one_level(
    adj: Mapping[object, Mapping[object, float]],
    resolution: float,
    rng: random.Random,
) -> tuple[dict, bool]:
    nodes = sorted(adj)
    comm = {v: v for v in nodes}
    k = {
        v: sum(w for u, w in adj[v].items() if u != v) + 2.0 * adj[v].get(v, 0.0)
        for v in nodes
    }
    m2 = sum(k.values())
    if m2 == 0.0:
        return comm, False
    sigma_tot: dict[object, float] = defaultdict(float)
    for v in nodes:
        sigma_tot[comm[v]] += k[v]
    order = list(nodes)
    rng.shuffle(order)
    improved = False
    moved = True
    while moved:
        moved = False
        for v in order:
            cv = comm[v]
            neighbor_weight: dict[object, float] = defaultdict(float)
            for u, w in adj[v].items():
                if u != v:
                    neighbor_weight[comm[u]] += w
            sigma_tot[cv] -= k[v]
            best_c = cv
            best_gain = neighbor_weight.get(cv, 0.0) - resolution * sigma_tot[cv] * k[v] / m2
            for c in sorted(neighbor_weight):
                if c == cv:
                    continue
                gain = neighbor_weight[c] - resolution * sigma_tot[c] * k[v] / m2
                if gain > best_gain + 1e-12:
                    best_gain = gain
                    best_c = c
            sigma_tot[best_c] += k[v]
            if best_c != cv:
                comm[v] = best_c
                moved = True
                improved = True
    return comm, improved


def _aggregate(
    adj: Mapping[object, Mapping[object, float]], comm: Mapping[object, object]
) -> tuple[dict[int, dict[int, float]], dict[object, int]]:
    labels = {label: i for i, label in enumerate(sorted(set(comm.values())))}
    relabel = {v: labels[comm[v]] for v in comm}
    agg: dict[int, dict[int, float]] = {c: {} for c in labels.values()}
    for v, ws in adj.items():
        cv = relabel[v]
        row = agg[cv]
        for u, w in ws.items():
            cu = relabel[u]
            if cu == cv and u != v:
                # Both endpoints iterate this edge; halve to store it once.
                row[cv] = row.get(cv, 0.0) + w / 2.0
            elif u == v:
                row[cv] = row.get(cv, 0.0) + w
            else:
                row[cu] = row.get(cu, 0.0) + w
    return agg, relabel


@dataclass(frozen=True)
class Partition:
    """Community assignment per source plus its modularity score."""

    communities: dict[str, int]
    modularity: float


def louvain(
    graph: RepublishGraph, resolution: float = 1.0, seed: int = 0
) -> Partition:
    """Seeded Louvain community detection on the undirected projection.

    Node visitation order is shuffled by a seeded RNG after a canonical
    sort, so results do not depend on input node order. Community ids are
    relabeled 0..k-1 by each community's smallest member name.
    """
    projection = _undirected_projection(graph)
    adj: Mapping = projection
    node_list = sorted(adj)
    rng = random.Random(seed)
    membership: dict[str, object] = {v: v for v in node_list}
    while True:
        comm, improved = _louvain_one_level(adj, resolution, rng)
        if not improved:
            break
        agg, relabel = _aggregate(adj, comm)
        membership = {v: relabel[membership[v]] for v in membership}
        adj = agg
    groups: dict[object, list[str]] = defaultdict(list)
    for v in node_list:
        groups[membership[v]].append(v)
    ordered = sorted(groups.values(), key=lambda members: min(members))
    communities = {v: i for i, members in enumerate(ordered) for v in members}
    return Partition(communities, _modularity(projection, communities, resolution))


def compute_node_metrics(
    combined: RepublishGraph, window_graphs: Sequence[RepublishGraph], window_count: int
) -> None:
    """Set the mean and population variance, over `window_count` windows, of
    each combined node's in-degree centrality and betweenness, as
    `in_centrality_*` and `betweenness_*`. `attach_metrics` must have run on
    every window graph; a window without the node or without a graph counts
    as zero."""
    for node in combined.nodes():
        attrs = combined.node_attrs(node)
        for prefix, name in (("in_centrality", "in_degree_centrality"),
                             ("betweenness", "betweenness")):
            series = [g.node_attrs(node)[name] for g in window_graphs if g.has_node(node)]
            attrs[f"{prefix}_mean"], attrs[f"{prefix}_var"] = _padded_moments(
                series, window_count
            )


def _padded_moments(values: list[float], n: int) -> tuple[float, float]:
    """`statistics.fmean` and `statistics.pvariance` of `values` padded with
    zeros to n entries, with the same bits, in time linear in `values`.

    fmean divides the correctly rounded sum by n. pvariance rounds the exact
    (sum(x^2) - sum(x)^2 / n) / n once; here the sums are exact integers over
    one power-of-two denominator, and int / int rounds correctly.
    """
    ratios = [x.as_integer_ratio() for x in values]
    scale = max((d for _, d in ratios), default=1)
    ints = [p * (scale // d) for p, d in ratios]
    sx = sum(ints)
    sxx = sum(v * v for v in ints)
    return math.fsum(values) / n, (n * sxx - sx * sx) / (n * n * scale * scale)


# The node attributes that metrics.csv and engagement.csv hold, after `source`.
METRICS_COLUMNS = (
    "weighted_in",
    "weighted_out",
    "in_centrality_mean",
    "in_centrality_var",
    "betweenness_mean",
    "betweenness_var",
    "community",
)
ENGAGEMENT_COLUMNS = ("median_fb_shares", "median_fb_reactions")


def write_node_csv(graph: RepublishGraph, path: str | Path, columns: Sequence[str]) -> None:
    """One row per node: its name under `source`, then its attribute of each
    name in `columns`; a cell is empty where the node lacks the attribute or
    holds None."""
    rows = []
    for node in graph.nodes():
        values = map(graph.node_attrs(node).get, columns)
        rows.append([node, *("" if v is None else v for v in values)])
    write_csv(path, ["source", *columns], rows)


def attach_labels(graph: RepublishGraph, labels: Mapping[str, Mapping[str, str]]) -> None:
    """Copy each node's labels from `load_labels`' table; a node it lacks
    gets each column's unlabeled value."""
    unlabeled = {column: unknown for column, (_, unknown) in LABEL_VALUES.items()}
    for node in graph.nodes():
        graph.node_attrs(node).update(labels.get(node, unlabeled))


def attach_communities(graph: RepublishGraph, partition: Partition) -> None:
    for node in graph.nodes():
        community = partition.communities.get(node)
        if community is not None:
            graph.node_attrs(node)["community"] = community


def attach_metrics(graph: RepublishGraph) -> None:
    """Set weighted in- and out-degree, in-degree centrality and betweenness
    on every node."""
    n = graph.num_nodes
    central = betweenness(graph)
    weighted_in, in_degree = dict.fromkeys(graph._out, 0), dict.fromkeys(graph._out, 0)
    for outs in graph._out.values():
        for to, w in outs.items():
            weighted_in[to] += w
            in_degree[to] += 1
    for node in graph.nodes():
        attrs = graph.node_attrs(node)
        attrs["weighted_in"] = weighted_in[node]
        attrs["weighted_out"] = sum(graph._out[node].values())
        attrs["in_degree_centrality"] = in_degree[node] / (n - 1) if n > 1 else 0.0
        attrs["betweenness"] = central[node]


def attach_engagement(graph: RepublishGraph, matches: Sequence[MatchedPair]) -> None:
    """Median Facebook engagement over each node's matched articles.

    Articles count once regardless of how many pairs they appear in; a node
    with no engagement data gets a null attribute that exports omit.
    """
    per_source: dict[str, dict[str, object]] = defaultdict(dict)
    for pair in matches:
        for article in (pair.earlier, pair.later):
            per_source[article.source][article.id] = article
    for node in graph.nodes():
        articles = per_source.get(node, {}).values()
        shares = [a.fb_shares for a in articles if a.fb_shares is not None]
        reactions = [a.fb_reactions for a in articles if a.fb_reactions is not None]
        attrs = graph.node_attrs(node)
        attrs["median_fb_shares"] = float(statistics.median(shares)) if shares else None
        attrs["median_fb_reactions"] = (
            float(statistics.median(reactions)) if reactions else None
        )


# A source is flagged when it has at least FLAG_MIN_INBOUND copied-from
# articles and FLAG_DOMINANCE or more of them share one UTC day.
FLAG_MIN_INBOUND = 5
FLAG_DOMINANCE = 0.8


def flag_single_day_origins(matches: Sequence[MatchedPair]) -> list[tuple[str, str, float, int]]:
    """Sources whose forward-pair copied-from articles cluster on a single
    UTC day; ambiguous pairs are skipped.

    Timestamp-only direction inference mislabels origin when one outlet
    happens to post shared material (wire stories, speeches) first; this
    surfaces such nodes for manual review. Returns (source, dominant day,
    share, inbound pair count) tuples.
    """
    days: dict[str, Counter] = defaultdict(Counter)
    labels: dict[int, str] = {}  # a UTC day's label, by days since the epoch
    for p in matches:
        if p.direction != FORWARD:
            continue
        number = p.earlier.published_utc // SECONDS_PER_DAY
        label = labels.get(number)
        if label is None:
            day = datetime.fromtimestamp(number * SECONDS_PER_DAY, tz=timezone.utc)
            label = labels[number] = day.strftime("%Y-%m-%d")
        days[p.earlier.source][label] += 1
    flags = []
    for source in sorted(days):
        counts = days[source]
        inbound = sum(counts.values())
        if inbound < FLAG_MIN_INBOUND:
            continue
        day, top = max(counts.items(), key=lambda kv: (kv[1], kv[0]))
        share = top / inbound
        if share >= FLAG_DOMINANCE:
            flags.append((source, day, share, inbound))
    return flags


def _graphml_type(values: list) -> str:
    if any(isinstance(v, float) for v in values):
        return "double"
    if all(isinstance(v, int) for v in values):
        return "long"
    return "string"


# The rules of `xml.sax.saxutils.escape` and `quoteattr`, whose module
# imports `urllib.request` and `http.client` into every stage.
def _escape(text: str) -> str:
    """`text` with &, < and > as entity references."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _quoteattr(text: str) -> str:
    """`text` escaped, with LF, CR and tab as character references, and
    quoted as an XML attribute value: in single quotes if it holds double
    quotes and no single ones, else in double quotes, each `"` as `&quot;`."""
    text = _escape(text).replace("\n", "&#10;").replace("\r", "&#13;").replace("\t", "&#9;")
    if '"' in text and "'" not in text:
        return f"'{text}'"
    return '"' + text.replace('"', "&quot;") + '"'


def export_graphml(graph: RepublishGraph, path: str | Path) -> None:
    """Write GraphML with key declarations for every attribute in use.

    Output is byte-deterministic: nodes, edges, and keys are sorted and
    null attributes are omitted. A float is written as its repr; any other
    value is escaped, and each node name is quoted once per graph. Each
    line is written as it is made, so only the edge list is held whole.
    """
    write_lines(path, _graphml_lines(graph))


def _graphml_lines(graph: RepublishGraph) -> Iterator[str]:
    nodes = graph.nodes()
    node_attrs = [graph.node_attrs(node) for node in nodes]
    attr_values: dict[str, list] = defaultdict(list)
    for attrs in node_attrs:
        for name, value in attrs.items():
            if value is not None:
                attr_values[name].append(value)
    names = sorted(attr_values)
    yield '<?xml version="1.0" encoding="UTF-8"?>'
    yield (
        '<graphml xmlns="http://graphml.graphdrawing.org/xmlns"'
        ' xmlns:xsi="http://www.w3.org/2001/XMLSchema-instance"'
        ' xsi:schemaLocation="http://graphml.graphdrawing.org/xmlns'
        ' http://graphml.graphdrawing.org/xmlns/1.0/graphml.xsd">'
    )
    for name in names:
        kind = _graphml_type(attr_values[name])
        yield (
            f'  <key id="n_{name}" for="node" attr.name="{_escape(name)}"'
            f' attr.type="{kind}"/>'
        )
    yield '  <key id="e_weight" for="edge" attr.name="weight" attr.type="long"/>'
    graph_id = (
        graph.window_index
        if isinstance(graph.window_index, str)
        else f"window_{graph.window_index}"
    )
    yield f'  <graph id={_quoteattr(str(graph_id))} edgedefault="directed">'
    quoted = {node: _quoteattr(node) for node in nodes}
    tags = [(name, f'      <data key="n_{name}">') for name in names]
    for node, attrs in zip(nodes, node_attrs):
        data = []
        for name, tag in tags:
            value = attrs.get(name)
            if value is None:
                continue
            text = repr(value) if isinstance(value, float) else _escape(str(value))
            data.append(f"{tag}{text}</data>")
        if data:
            yield f"    <node id={quoted[node]}>"
            yield from data
            yield "    </node>"
        else:
            yield f"    <node id={quoted[node]}/>"
    for frm, to, w in graph.edges():
        yield (
            f"    <edge source={quoted[frm]} target={quoted[to]}>"
            f'<data key="e_weight">{w}</data></edge>'
        )
    yield "  </graph>"
    yield "</graphml>"


_PALETTE = [
    "#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd",
    "#8c564b", "#e377c2", "#7f7f7f", "#bcbd22", "#17becf",
    "#aec7e8", "#ffbb78", "#98df8a", "#ff9896", "#c5b0d5",
    "#c49c94", "#f7b6d2", "#c7c7c7", "#dbdb8d", "#9edae5",
]


def _dot_quote(text: str) -> str:
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def export_dot(graph: RepublishGraph, path: str | Path) -> None:
    """Write a Graphviz digraph, penwidth scaled by edge weight and node
    fill color bucketed by community. Each line is written as it is made,
    so only the edge list is held whole."""
    write_lines(path, _dot_lines(graph))


def _dot_lines(graph: RepublishGraph) -> Iterator[str]:
    nodes = graph.nodes()
    communities = [graph.node_attrs(v).get("community") for v in nodes]
    values = sorted({value for value in communities if value is not None}, key=str)
    color_of = {value: _PALETTE[i % len(_PALETTE)] for i, value in enumerate(values)}
    edges = graph.edges()
    max_weight = max((w for _, _, w in edges), default=1)
    quoted = {node: _dot_quote(node) for node in nodes}
    yield "digraph republishing {"
    yield "  node [shape=ellipse, style=filled];"
    for node, value in zip(nodes, communities):
        yield f'  {quoted[node]} [fillcolor="{color_of.get(value, "#ffffff")}"];'
    style: dict[int, str] = {}  # an edge's bracketed attributes, by weight
    for frm, to, w in edges:
        attrs = style.get(w)
        if attrs is None:
            penwidth = max(0.5, 6.0 * w / max_weight)
            attrs = style[w] = f'[weight={w}, penwidth={penwidth:.3f}, label="{w}"];'
        yield f"  {quoted[frm]} -> {quoted[to]} {attrs}"
    yield "}"
