"""Span recorder and the traced in-process pipeline of the newsreuse benchmark.

The recorder wraps public functions of the program's modules from outside:
each call becomes a span with a name, start, end, parent span and run id.
Spans stay in memory and are written as JSON lines when the run ends. A
layer's self time is its span's duration minus the part of that interval its
child spans cover.

Run as a script, it times `import newsreuse.cli`, runs detect, graph,
headlines and report in-process once untraced and once traced, and prints one
JSON object with the per-layer metrics and every stage's exit code.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Iterator, NamedTuple

STAGES = ("detect", "graph", "headlines", "report")

# Title-side similarity calls are told apart from body-side ones by this
# ancestor; they are reported as `similarity.title_<function>`.
TITLE_SPAN = "headlines.title_distance"

# Every function span reported, as `<module>.<function>`.
FUNCTIONS = (
    "cli.cmd_detect", "cli.cmd_graph", "cli.cmd_headlines", "cli.cmd_report",
    "corpus.ingest_articles", "corpus.partition_windows",
    "similarity.match_window", "similarity.tokenize", "similarity.fit_tfidf",
    "similarity.vectorize", "similarity.read_pairs_csv", "similarity.write_pairs_csv",
    "similarity.title_tokenize", "similarity.title_fit_tfidf",
    "similarity.title_vectorize", "similarity.title_cosine",
    "network.build_window_graph", "network.merge_graphs", "network.louvain",
    "network.attach_metrics", "network.compute_node_metrics", "network.betweenness",
    "network.export_graphml", "network.export_dot",
    "headlines.title_distance", "headlines.rank_changers",
    "headlines.significant_shifts", "headlines.extract_features",
    "headlines.normality_test", "headlines.anova_f",
)

# Counts summed over body-side spans, except MAX_COUNTS, which every call
# reports in full (the corpus is ingested once per stage).
COUNTS = (
    "corpus.articles", "corpus.windows", "similarity.eligible_docs",
    "similarity.tokens", "similarity.vocab_terms", "similarity.nnz",
    "similarity.eligible_pairs", "similarity.pairs_kept",
    "network.graphs", "network.edges",
)
MAX_COUNTS = frozenset({"corpus.articles", "corpus.windows"})

# (name, unit) of every per-layer metric, in report order.
PER_LAYER = (
    [("cli.import_s", "s")]
    + [
        (f"{fn}.{suffix}", unit)
        for fn in FUNCTIONS
        for suffix, unit in (("s", "s"), ("self_s", "s"), ("calls", "count"))
    ]
    + [(name, "count") for name in COUNTS]
    + [("similarity.pair_yield", "ratio"), ("trace.overhead_s", "s")]
)


class Span(NamedTuple):
    id: int
    parent: int  # -1 for a root span
    name: str
    start: float
    end: float
    counts: dict | None = None


class Recorder:
    """Collects spans of one run in memory."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def wrap(
        self, name: str, fn: Callable, count: Callable[[object], dict] | None = None
    ) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)  # reserve the id; filled in when the call ends
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[sid] = Span(sid, parent, name, start, end)
            if count is not None:
                spans[sid] = spans[sid]._replace(counts=count(result))
            return result

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def patched(self, targets) -> Iterator[None]:
        """Replace each (owner, attribute, span name, count) with a traced
        wrapper for the duration of the block. An attribute the owner does
        not have raises KeyError, so a moved call site cannot read zero."""
        saved = []
        try:
            for owner, attr, name, count in targets:
                saved.append((owner, attr, vars(owner)[attr]))
                wrapped = self.wrap(name, getattr(owner, attr), count)
                if isinstance(owner, type):  # a classmethod: the wrapper holds it bound
                    wrapped = staticmethod(wrapped)
                setattr(owner, attr, wrapped)
            yield
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def write_jsonl(self, path: Path) -> None:
        with path.open("w", encoding="utf-8") as fh:
            for s in self.spans:
                record = {"run": self.run_id, **s._asdict()}
                fh.write(json.dumps(record) + "\n")


def self_times(spans: list[Span]) -> dict[int, float]:
    """Duration of each span minus the union of its children's intervals."""
    children: dict[int, list[Span]] = defaultdict(list)
    for s in spans:
        children[s.parent].append(s)
    out = {}
    for s in spans:
        covered, cursor = 0.0, s.start
        for c in sorted(children[s.id], key=lambda c: c.start):
            lo, hi = max(c.start, cursor), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[s.id] = s.end - s.start - covered
    return out


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-function time, self time and calls, plus counts, from spans.

    `.s` is inclusive time, counted once where a function is nested in
    itself. Similarity spans under `headlines.title_distance` are reported
    as `similarity.title_<function>`, and their counts are left out.
    """
    by_id = {s.id: s for s in spans}

    def ancestors(s: Span) -> Iterator[Span]:
        while s.parent in by_id:
            s = by_id[s.parent]
            yield s

    selfs = self_times(spans)
    metrics: dict[str, float] = defaultdict(float)
    for fn in FUNCTIONS:
        for suffix in ("s", "self_s", "calls"):
            metrics[f"{fn}.{suffix}"] = 0.0
    for name in COUNTS:
        metrics[name] = 0
    for s in spans:
        names = [a.name for a in ancestors(s)]
        title_side = TITLE_SPAN in names
        name = s.name
        if title_side and name.startswith("similarity."):
            name = "similarity.title_" + name.split(".", 1)[1]
        metrics[f"{name}.calls"] += 1
        metrics[f"{name}.self_s"] += selfs[s.id]
        if s.name not in names:
            metrics[f"{name}.s"] += s.end - s.start
        if s.counts and not title_side:
            for key, value in s.counts.items():
                if key in MAX_COUNTS:
                    metrics[key] = max(metrics[key], value)
                else:
                    metrics[key] += value
    for fn in FUNCTIONS:
        metrics[f"{fn}.calls"] = int(metrics[f"{fn}.calls"])
    pairs = metrics["similarity.eligible_pairs"]
    metrics["similarity.pair_yield"] = metrics["similarity.pairs_kept"] / pairs if pairs else 0.0
    return dict(metrics)


def _match_counts(result) -> dict:
    eligible = result.eligible_count
    return {
        "similarity.eligible_docs": eligible,
        "similarity.eligible_pairs": eligible * (eligible - 1) // 2,
        "similarity.pairs_kept": len(result.pairs),
    }


def _graph_counts(graph) -> dict:
    return {"network.graphs": 1, "network.edges": graph.num_edges}


def _vocab_counts(model) -> dict:
    return {"similarity.vocab_terms": len(model.vocabulary)}


def _nnz_counts(vector) -> dict:
    return {"similarity.nnz": len(vector.indices)}


def targets(cli, similarity, network, headlines) -> list[tuple]:
    """(owner, attribute, span name, count) for every traced call site.

    A function imported by name is patched in the module that imports it,
    because that is where the call looks the name up.
    """
    out = [(cli, f"cmd_{stage}", f"cli.cmd_{stage}", None) for stage in STAGES]
    out += [
        (cli, "ingest_articles", "corpus.ingest_articles",
         lambda c: {"corpus.articles": len(c)}),
        (cli, "partition_windows", "corpus.partition_windows",
         lambda w: {"corpus.windows": len(w)}),
        (cli, "match_window", "similarity.match_window", _match_counts),
        (cli, "read_pairs_csv", "similarity.read_pairs_csv", None),
        (cli, "write_pairs_csv", "similarity.write_pairs_csv", None),
        (similarity.TokenizedDoc, "from_text", "similarity.tokenize",
         lambda d: {"similarity.tokens": len(d.tokens)}),
        (similarity, "fit_tfidf", "similarity.fit_tfidf", _vocab_counts),
        (similarity, "vectorize", "similarity.vectorize", _nnz_counts),
        (headlines, "fit_tfidf", "similarity.fit_tfidf", _vocab_counts),
        (headlines, "vectorize", "similarity.vectorize", _nnz_counts),
        (headlines, "cosine", "similarity.cosine", None),
        (network, "build_window_graph", "network.build_window_graph", _graph_counts),
        (network, "merge_graphs", "network.merge_graphs", _graph_counts),
    ]
    out += [
        (network, fn, f"network.{fn}", None)
        for fn in ("louvain", "attach_metrics", "compute_node_metrics", "betweenness",
                   "export_graphml", "export_dot")
    ]
    out += [
        (headlines, fn, f"headlines.{fn}", None)
        for fn in ("title_distance", "rank_changers", "significant_shifts",
                   "extract_features", "normality_test", "anova_f")
    ]
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--config", required=True)
    parser.add_argument("--out-untraced", required=True)
    parser.add_argument("--out-traced", required=True)
    parser.add_argument("--spans", required=True, help="JSON-lines file for the spans")
    parser.add_argument("--run-id", required=True)
    parser.add_argument("--dedupe-origin", action="store_true")
    args = parser.parse_args(argv)

    start = time.perf_counter()
    import newsreuse.cli as cli
    import_s = time.perf_counter() - start
    from newsreuse import headlines, network, similarity

    def pipeline(out: str) -> tuple[float, dict[str, int]]:
        codes = {}
        start = time.perf_counter()
        for stage in STAGES:
            stage_argv = [stage, "--config", args.config, "--out", out, "--jobs", "1"]
            if stage == "graph" and args.dedupe_origin:
                stage_argv.append("--dedupe-origin")
            codes[stage] = cli.main(stage_argv)
        return time.perf_counter() - start, codes

    untraced_s, untraced_codes = pipeline(args.out_untraced)
    recorder = Recorder(args.run_id)
    with recorder.patched(targets(cli, similarity, network, headlines)):
        traced_s, traced_codes = pipeline(args.out_traced)
    recorder.write_jsonl(Path(args.spans))

    metrics = layer_metrics(recorder.spans)
    metrics["cli.import_s"] = import_s
    metrics["trace.overhead_s"] = traced_s - untraced_s
    print(json.dumps({
        "metrics": metrics,
        "exit_codes": {"untraced": untraced_codes, "traced": traced_codes},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
