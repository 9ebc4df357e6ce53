"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
lines. Criterion 9 needs a full NELA2017 JSONL export and is skipped unless
NEWSREUSE_NELA2017 points at it.
"""

import csv
import itertools
import os
import random
import sys
import time
from pathlib import Path

import pytest
from scipy import stats as scipy_stats

from newsreuse.cli import EXIT_OK, main
from newsreuse.headlines import anova_f, changed_fraction, title_distance
from newsreuse.network import (
    COMBINED,
    RepublishGraph,
    betweenness,
    build_window_graph,
    louvain,
    merge_graphs,
)
from newsreuse.similarity import TokenizedDoc, match_window

from helpers import (
    BASE_TS,
    make_article,
    make_pair,
    make_window,
    pseudo_vocab,
    random_body,
)
from oracles import direct_modularity, enumeration_betweenness, exhaustive_pairs

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import zipfgen  # noqa: E402


def _pass(criterion: int, message: str) -> None:
    print(f"\nACCEPTANCE {criterion} PASS: {message}")


def _read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _run(*argv):
    assert main(list(argv)) == EXIT_OK, argv


def test_criterion_1_planted_copy_detection(tmp_path):
    fx = tmp_path / "fx"
    _run("gen-fixture", "--out", str(fx))  # 20 sources x 50 articles, 30 copies
    out = tmp_path / "out"
    started = time.perf_counter()
    _run(
        "detect", "--config", str(fx / "fixture.cfg"), "--out", str(out),
        "--similarity-threshold", "0.9",
    )
    elapsed = time.perf_counter() - started
    truth = {
        frozenset((r["original_id"], r["copy_id"]))
        for r in _read_csv(fx / "ground_truth.csv")
    }
    detected = {
        frozenset((r["earlier_id"], r["later_id"])) for r in _read_csv(out / "pairs.csv")
    }
    assert len(truth) == 30
    recall = len(detected & truth) / len(truth)
    precision = len(detected & truth) / len(detected)
    assert recall == 1.0
    assert precision == 1.0
    assert elapsed < 10.0
    _pass(1, f"recall 30/30, precision 1.0, detect took {elapsed:.2f}s")


def _random_window(rng, vocab, size, index):
    sources = [f"s{i:02d}" for i in range(12)]
    articles = [
        make_article(
            f"w{index}a{i:03d}",
            rng.choice(sources),
            body=random_body(rng, vocab, 25, 60),
            ts=BASE_TS + rng.randrange(13 * 86400),
        )
        for i in range(size)
    ]
    # Exact and near copies push pair scores through the threshold region.
    for j in range(rng.randint(1, 5)):
        orig = rng.choice(articles[:size])
        words = orig.body.split()
        for k in range(rng.randint(0, 5)):
            words[rng.randrange(len(words))] = rng.choice(vocab)
        articles.append(
            make_article(
                f"w{index}copy{j}",
                rng.choice([s for s in sources if s != orig.source]),
                body=" ".join(words),
                ts=orig.published_utc + 60,
            )
        )
    return make_window(articles, index=index)


def test_criterion_2_similarity_exactness():
    rng = random.Random(424242)
    vocab = pseudo_vocab(rng, 1200)
    sizes = [rng.randint(10, 160) for _ in range(44)] + [
        rng.randint(300, 500) for _ in range(6)
    ]
    checked_pairs = 0
    for index, size in enumerate(sizes):
        window = _random_window(rng, vocab, size, index)
        result = match_window(window, threshold=0.90, min_body_tokens=20)
        articles = sorted(window.articles, key=lambda a: a.id)
        docs = [list(TokenizedDoc.from_text(a.body).tokens) for a in articles]
        keep = [i for i, d in enumerate(docs) if len(d) >= 20]
        oracle = {}
        for i, j, sim in exhaustive_pairs([docs[k] for k in keep], 0.90):
            a, b = articles[keep[i]], articles[keep[j]]
            if a.source != b.source:
                oracle[frozenset((a.id, b.id))] = sim
        got = {
            frozenset((p.earlier.id, p.later.id)): p.similarity for p in result.pairs
        }
        assert got.keys() == oracle.keys(), f"window {index}: pair sets differ"
        for key, sim in got.items():
            assert abs(sim - oracle[key]) <= 1e-12, f"window {index}: score drift"
        checked_pairs += len(got)
    assert checked_pairs > 50, "fixture produced too few threshold-region pairs"
    _pass(2, f"50 windows set-equal exhaustive oracle; {checked_pairs} pair scores within 1e-12")


def test_criterion_3_graph_conservation(tmp_path):
    fx = tmp_path / "fx"
    _run("gen-fixture", "--out", str(fx), "--sources", "8",
         "--articles-per-source", "25", "--copies", "15", "--windows", "3")
    out = tmp_path / "out"
    _run("detect", "--config", str(fx / "fixture.cfg"), "--out", str(out))
    rows = _read_csv(out / "pairs.csv")
    forward = [r for r in rows if r["direction"] == "forward"]

    rng = random.Random(77)
    fixtures = []
    sources = [f"s{i}" for i in range(6)]
    for trial in range(10):
        per_window = []
        for w in range(rng.randint(1, 5)):
            pairs = []
            for i in range(rng.randint(0, 12)):
                a, b = rng.sample(sources, 2)
                pairs.append(
                    make_pair(a, b, window=w, earlier_id=f"t{trial}w{w}e{i}",
                              later_id=f"t{trial}w{w}l{i}",
                              delta=rng.choice([0, 0, 3600]))
                )
            per_window.append(pairs)
        fixtures.append(per_window)

    # CLI fixture: total edge weight equals forward pair count.
    graphs = {}
    for row in forward:
        graphs.setdefault(int(row["window_index"]), []).append(row)
    total_from_csv = len(forward)
    combined_weight = 0
    for w, rws in graphs.items():
        g = RepublishGraph(w)
        for r in rws:
            g.add_edge(r["later_source"], r["earlier_source"])
        combined_weight += g.total_weight
    assert combined_weight == total_from_csv

    for per_window in fixtures:
        window_graphs = [
            build_window_graph(pairs, window_index=w)
            for w, pairs in enumerate(per_window)
        ]
        all_pairs = [p for pairs in per_window for p in pairs]
        forward_count = sum(1 for p in all_pairs if p.direction == "forward")
        merged = merge_graphs(window_graphs)
        assert merged.total_weight == forward_count
        assert sum(g.total_weight for g in window_graphs) == forward_count
        rebuilt = build_window_graph(all_pairs, window_index=COMBINED)
        assert merged == rebuilt
    _pass(3, "edge weight equals forward pairs; merge equals build-from-concatenation")


def test_criterion_4_betweenness_exactness():
    rng = random.Random(2024)
    for trial in range(100):
        n = rng.randint(2, 8)
        nodes = [f"n{i}" for i in range(n)]
        edges = [
            (a, b)
            for a, b in itertools.permutations(nodes, 2)
            if rng.random() < rng.choice([0.15, 0.3, 0.5])
        ]
        graph = RepublishGraph(0)
        for v in nodes:
            graph.add_node(v)
        for a, b in edges:
            graph.add_edge(a, b, rng.randint(1, 5))
        got = betweenness(graph)
        want = enumeration_betweenness(nodes, edges)
        for v in nodes:
            assert abs(got[v] - want[v]) <= 1e-9, f"trial {trial}, node {v}"
    _pass(4, "Brandes matches path-enumeration oracle on 100 random digraphs")


def test_criterion_5_community_recovery():
    graph = RepublishGraph(0)
    left = [f"l{i}" for i in range(8)]
    right = [f"r{i}" for i in range(8)]
    for group in (left, right):
        for a, b in itertools.combinations(group, 2):
            graph.add_edge(a, b)
    graph.add_edge("l0", "r0")
    partition = louvain(graph, seed=0)
    groups = {}
    for node, community in partition.communities.items():
        groups.setdefault(community, set()).add(node)
    assert sorted(groups.values(), key=min) == [set(left), set(right)]
    oracle_q = direct_modularity(graph.edges(), partition.communities)
    assert abs(partition.modularity - oracle_q) <= 1e-9
    assert partition.modularity > 0.45
    _pass(5, f"two cliques recovered; modularity {partition.modularity:.6f} matches oracle")


def test_criterion_6_anova_correctness():
    f_stat, p = anova_f([4.0, 5.0, 6.0], [4.0, 5.0, 6.0])
    assert f_stat == 0.0 and p == 1.0
    rng = random.Random(606)
    for trial in range(100):
        a = [rng.gauss(rng.uniform(-3, 3), rng.uniform(0.5, 2)) for _ in range(rng.randint(2, 40))]
        b = [rng.gauss(rng.uniform(-3, 3), rng.uniform(0.5, 2)) for _ in range(rng.randint(2, 40))]
        f_stat, p = anova_f(a, b)
        ref_f, ref_p = scipy_stats.f_oneway(a, b)
        assert abs(f_stat - ref_f) <= 1e-9, f"trial {trial}"
        assert abs(p - ref_p) <= 1e-9, f"trial {trial}"
    _pass(6, "F and p match closed-form oracle on 100 random group pairs")


def test_criterion_7_headline_change_fraction():
    same = ("steady headline text here", "steady headline text here")
    diff = ("alpha beta gamma delta", "epsilon zeta eta theta")
    pairs = []
    for i, (orig, copy) in enumerate([diff] * 7 + [same] * 5):
        pairs.append(
            make_pair("wire", "blog", earlier_id=f"o{i}", later_id=f"c{i}",
                      earlier_title=orig, later_title=copy)
        )
    tps = title_distance(pairs)
    fraction = changed_fraction(tps, 0.10)
    assert fraction == 7 / 12
    thresholds = [0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9]
    fractions = [changed_fraction(tps, t) for t in thresholds]
    assert all(x >= y for x, y in zip(fractions, fractions[1:]))
    _pass(7, f"changed fraction {fraction!r} == 7/12; monotone over 10 thresholds")


def test_criterion_8_determinism_across_jobs(tmp_path):
    fx = tmp_path / "fx"
    _run("gen-fixture", "--out", str(fx))
    # A skewed vocabulary: both windows take the norm-bound join, at the cut
    # its cost estimate picks.
    zipf = zipfgen.generate(tmp_path / "zipf", 1, sources=10, articles_per_source=60,
                            stories=30, vocabulary_size=20000)

    def pipeline(cfg, out, jobs):
        for command in ("detect", "graph", "headlines", "report"):
            _run(command, "--config", str(cfg), "--out", str(out), "--jobs", str(jobs))

    compared = 0
    for name, cfg in (("fixture", fx / "fixture.cfg"), ("zipf", zipf["config"])):
        out1, out8 = tmp_path / f"{name}1", tmp_path / f"{name}8"
        pipeline(cfg, out1, 1)
        pipeline(cfg, out8, 8)
        files1 = sorted(p.relative_to(out1) for p in out1.rglob("*") if p.is_file())
        files8 = sorted(p.relative_to(out8) for p in out8.rglob("*") if p.is_file())
        assert files1 == files8
        for rel in files1:
            assert (out1 / rel).read_bytes() == (out8 / rel).read_bytes(), (name, rel)
        compared += len(files1)
    _pass(8, f"{compared} output files of two corpora byte-identical between --jobs 1 and 8")


NELA_PATH = os.environ.get("NEWSREUSE_NELA2017", "")


@pytest.mark.skipif(not NELA_PATH, reason="set NEWSREUSE_NELA2017 to a NELA2017 JSONL export")
def test_criterion_9_full_corpus_reproduction(tmp_path):
    out = tmp_path / "nela"
    _run("detect", "--articles", NELA_PATH, "--out", str(out))
    _run("graph", "--articles", NELA_PATH, "--out", str(out))
    _run("headlines", "--articles", NELA_PATH, "--out", str(out))

    summary = dict(
        line.split("=", 1)
        for line in (out / "detect_summary.txt").read_text().splitlines()
    )
    assert int(summary["sources"]) == 92
    assert int(summary["sources_with_match"]) == 67

    metrics = _read_csv(out / "metrics.csv")
    by_source = {r["source"]: r for r in metrics}

    def find(fragment):
        hits = [s for s in by_source if fragment in s]
        assert hits, f"no source matching {fragment!r}"
        return hits[0]

    pairs = _read_csv(out / "pairs.csv")
    true_pundit = find("pundit")
    daily_caller = find("caller")
    weight = sum(
        1
        for r in pairs
        if r["direction"] == "forward"
        and r["later_source"] == true_pundit
        and r["earlier_source"] == daily_caller
    )
    assert weight > 160

    top10 = [
        r["source"]
        for r in sorted(metrics, key=lambda r: -int(r["weighted_in"]))[:10]
    ]
    assert any(s == "ap" or "associated press" in s for s in top10)
    assert any("pbs" in s for s in top10)

    headline = dict(
        line.split("=", 1)
        for line in (out / "headline_summary.txt").read_text().splitlines()
        if "=" in line and line.split("=", 1)[0].isidentifier()
    )
    fraction = float(headline["changed_fraction"])
    assert abs(fraction - 0.5857) <= 0.03
    _pass(9, "NELA2017 reproduction: 67/92 sources, edge weight, title fraction")
