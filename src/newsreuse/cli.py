"""Command-line interface: detect, graph, headlines, report, gen-fixture.

Configuration comes from an optional flat key=value file plus command-line
flags; flags win. Each `RunConfig` field is one config key and one flag,
typed by its default. Logs go to stderr, data goes to files under the
output directory, all read and written through `corpus`'s file functions.
A stage reads every input before it writes its first output, and its
outputs appear only when it succeeds. Only detect parses the corpus; graph
and headlines read the matched articles detect hands off, and refuse them
if detect ran on another corpus or config; report refuses graph and
headlines outputs made from another detect run. Exit codes: 0 success,
1 usage or config error (an unreadable config file included), 2 data error,
3 internal error.
"""

from __future__ import annotations

import argparse
import gc
import logging
import math
import os
import sys
from collections import defaultdict
from contextlib import closing
from dataclasses import dataclass, fields, replace
from functools import partial
from itertools import chain
from pathlib import Path
from typing import Callable, Sequence

from . import network as network_mod
from .corpus import (
    CORPUS_FORMATS,
    MatchedPair,
    TimeWindow,
    file_sha256,
    format_timestamp,
    ingest_articles,
    load_labels,
    load_lexicon,
    partition_windows,
    read_csv,
    read_matched_articles,
    read_pairs_csv,
    read_lines,
    staged_outputs,
    write_csv,
    write_lines,
    write_matched_articles,
    write_pairs_csv,
)
from .errors import DataError
from .fixture import FixtureSpec, generate_fixture
from .similarity import WindowMatchResult, match_window, matched_articles, window_pairs

log = logging.getLogger("newsreuse")

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_INTERNAL = 3


class UsageError(Exception):
    """Bad flags or configuration; maps to exit code 1."""


# The articles of pairs.csv, with the fields graph and headlines read.
MATCHED_ARTICLES = "matched_articles.jsonl"
# The graph_summary.txt and headline_summary.txt key that records the
# detect_summary.txt the stage checked, so report can refuse a mix of runs.
DETECT_SUMMARY_SHA256 = "detect_summary_sha256"


@dataclass
class RunConfig:
    """Every setting of a run. A key's type in a config file, and its flag's
    type, is its default's type; a None default is a path."""

    articles: str | None = None
    format: str = "jsonl"
    labels: str | None = None
    bias_lexicon: str | None = None
    positive_lexicon: str | None = None
    negative_lexicon: str | None = None
    stopwords: str | None = None
    out_dir: str = "out"
    window_days: int = 14
    similarity_threshold: float = 0.90
    title_change_threshold: float = 0.10
    min_body_tokens: int = 20
    louvain_seed: int = 0
    louvain_resolution: float = 1.0
    dedupe_origin: bool = False
    include_ambiguous: bool = False
    jobs: int = 1
    min_window_docs: int = 0

    def validate(self, *, need_articles: bool = False) -> None:
        # Strict `>` at 1.0 would keep a verbatim copy only when rounding
        # lands above 1.0, so the result would depend on summation order.
        if not 0.0 < self.similarity_threshold < 1.0:
            raise UsageError("similarity_threshold must be in (0, 1)")
        if not 0.0 < self.title_change_threshold <= 1.0:
            raise UsageError("title_change_threshold must be in (0, 1]")
        if not 0.0 < self.louvain_resolution < math.inf:
            raise UsageError("louvain_resolution must be a finite number > 0")
        if self.window_days < 1:
            raise UsageError("window_days must be >= 1")
        if self.min_body_tokens < 0:
            raise UsageError("min_body_tokens must be >= 0")
        if self.jobs < 1:
            raise UsageError("jobs must be >= 1")
        if self.min_window_docs < 0:
            raise UsageError("min_window_docs must be >= 0")
        if self.format not in CORPUS_FORMATS:
            raise UsageError(f"unknown corpus format {self.format!r}")
        if need_articles and not self.articles:
            raise UsageError("an articles path is required (--articles or config file)")
        for f in fields(self):
            value = getattr(self, f.name)
            if f.default is None and value is not None and not Path(value).is_file():
                raise UsageError(f"{f.name} file not found: {value}")


_KEY_TYPES = {f.name: type(f.default) for f in fields(RunConfig)}


def load_config_file(path: str | Path) -> dict[str, object]:
    """Parse a flat key=value config file."""
    values: dict[str, object] = {}
    try:
        for lineno, raw in enumerate(read_lines(path), start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise UsageError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, _, value = line.partition("=")
            key, value = key.strip(), value.strip()
            if key not in _KEY_TYPES:
                raise UsageError(f"{path}:{lineno}: unknown config key {key!r}")
            kind = _KEY_TYPES[key]
            try:
                if kind is bool:
                    if value.lower() not in ("true", "false", "1", "0"):
                        raise ValueError(f"expected boolean, got {value!r}")
                    values[key] = value.lower() in ("true", "1")
                elif kind in (int, float):
                    values[key] = kind(value)
                else:
                    values[key] = value
            except ValueError as exc:
                raise UsageError(f"{path}:{lineno}: {exc}") from None
    except DataError as exc:
        raise UsageError(f"cannot read config file {path}: {exc.__cause__ or exc}") from exc
    return values


def build_config(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig()
    if getattr(args, "config", None):
        cfg = replace(cfg, **load_config_file(args.config))
    overrides = {
        f.name: getattr(args, f.name)
        for f in fields(RunConfig)
        if getattr(args, f.name, None) is not None
    }
    return replace(cfg, **overrides)


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        raise UsageError(message)


_FLAG_HELP = {
    "articles": "article corpus path",
    "format": "corpus format",
    "labels": "source labels CSV",
    "stopwords": "stopword list path",
    "out_dir": "output directory",
    "dedupe_origin": "collapse pairwise story links to one edge per copier, aimed at "
    "the cluster's earliest publisher",
    "include_ambiguous": "keep same-timestamp pairs in graphs (lexicographic tie-break)",
    "jobs": "worker processes for detection",
    "min_window_docs": "hide windows below this occupancy in reports",
}


def _common_options() -> _Parser:
    """`--config` and one flag per RunConfig field, in field order."""
    common = _Parser(add_help=False)
    common.add_argument("--config", help="flat key=value config file")
    for name, kind in _KEY_TYPES.items():
        flag = "--out" if name == "out_dir" else "--" + name.replace("_", "-")
        if kind is bool:
            options = {"action": "store_true", "default": None}
        else:
            options = {"type": kind if kind in (int, float) else None}
        if name == "format":
            options["choices"] = CORPUS_FORMATS
        common.add_argument(flag, dest=name, help=_FLAG_HELP.get(name), **options)
    return common


def _build_parser() -> _Parser:
    common = _common_options()
    parser = _Parser(
        prog="newsreuse",
        description="Detect verbatim news republishing, build who-copied-whom "
        "source networks, and analyze headline changes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("detect", parents=[common],
                   help="find near-verbatim cross-source article pairs")
    sub.add_parser("graph", parents=[common],
                   help="build per-window and combined republishing graphs")
    sub.add_parser("headlines", parents=[common],
                   help="analyze title changes of copied articles")
    sub.add_parser("report", parents=[common],
                   help="assemble one summary document from prior outputs")
    gen = sub.add_parser("gen-fixture", help="generate a synthetic planted-copy corpus")
    gen.add_argument("--out", dest="out_dir", default="fixture")
    for f in fields(FixtureSpec):
        gen.add_argument("--" + f.name.replace("_", "-"), type=type(f.default), default=f.default)
    return parser


def _write_kv(path: Path, items: Sequence[tuple[str, object]]) -> None:
    write_lines(path, (f"{key}={value}" for key, value in items))


def _read_kv(path: Path) -> dict[str, str]:
    values = {}
    for line in read_lines(path):
        if not line.strip():
            break
        key, _, value = line.rstrip("\n").partition("=")
        values[key] = value
    return values


def _detect_record(cfg: RunConfig) -> list[tuple[str, object]]:
    """The detect_summary.txt keys that name the corpus and the config that
    detect's outputs came from."""
    return [
        ("window_days", cfg.window_days),
        ("similarity_threshold", cfg.similarity_threshold),
        ("min_body_tokens", cfg.min_body_tokens),
        ("format", cfg.format),
        ("corpus_sha256", file_sha256(cfg.articles)),
    ]


# A detect worker's matcher and windows, set once as the worker starts. The
# pool forks its workers, so each inherits them from detect's process, with
# the descriptor of the windows' body spool, and no window is pickled; each
# task is a window's position.
_worker_job: tuple[Callable[[TimeWindow], WindowMatchResult], Sequence[TimeWindow]] | None = None


def _keep_job(
    match: Callable[[TimeWindow], WindowMatchResult], windows: Sequence[TimeWindow]
) -> None:
    global _worker_job
    _worker_job = (match, windows)


def _match_kept(position: int) -> WindowMatchResult:
    match, windows = _worker_job
    return match(windows[position])


def cmd_detect(cfg: RunConfig) -> int:
    cfg.validate(need_articles=True)
    out = Path(cfg.out_dir)
    record = _detect_record(cfg)
    collection = ingest_articles(cfg.articles, cfg.format)
    with closing(collection.spool):
        windows = partition_windows(collection, cfg.window_days)
        # Only occupied windows are listed; the span's count includes empty ones.
        window_count = windows[-1].index + 1
        log.info(
            "ingested %d articles into %d windows, %d occupied",
            len(collection), window_count, len(windows),
        )

        match = partial(
            match_window, threshold=cfg.similarity_threshold, min_body_tokens=cfg.min_body_tokens
        )
        # A pool forks all of its workers at once, so more than one per window
        # or per CPU this process may run on only costs memory. The fork start
        # method is named, not left to the default (forkserver on POSIX from
        # Python 3.14), which would pickle every window into each worker and
        # cannot pass the spool.
        cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
        workers = min(cfg.jobs, len(windows), cpus or 1)
        if workers > 1:
            # Imported here, so a process that does not fork never loads them.
            import multiprocessing
            from concurrent.futures import ProcessPoolExecutor

            with ProcessPoolExecutor(
                max_workers=workers,
                mp_context=multiprocessing.get_context("fork"),
                initializer=_keep_job,
                initargs=(match, windows),
            ) as pool:
                results = list(pool.map(_match_kept, range(len(windows))))
        else:
            results = [match(w) for w in windows]

    # Each pair's row is built as it is written; only the arrays stay.
    write_pairs_csv(chain.from_iterable(map(window_pairs, windows, results)), out / "pairs.csv")
    matched = [a for w, r in zip(windows, results) for a in matched_articles(w, r)]
    write_matched_articles(out / MATCHED_ARTICLES, matched)

    write_csv(
        out / "windows.csv",
        ["window_index", "start_utc", "end_utc", "docs", "eligible_docs", "matches"],
        (
            [
                window.index,
                format_timestamp(window.start_utc),
                format_timestamp(window.end_utc),
                len(window.articles),
                result.eligible_count,
                len(result.pairs),
            ]
            for window, result in zip(windows, results)
        ),
    )
    write_csv(
        out / "rejects.csv", ["row", "reason"], ((r.row, r.reason) for r in collection.rejects)
    )

    sources = collection.sources()
    matched_sources = {a.source for a in matched}
    pairs = sum(len(r.pairs) for r in results)
    ambiguous = sum(int(r.pairs.ambiguous.sum()) for r in results)
    _write_kv(
        out / "detect_summary.txt",
        [
            ("articles", len(collection)),
            ("rejected_rows", len(collection.rejects)),
            ("sources", len(sources)),
            ("windows", window_count),
            *record,
            ("matched_pairs", pairs),
            ("forward_pairs", pairs - ambiguous),
            ("ambiguous_pairs", ambiguous),
            ("sources_with_match", len(matched_sources)),
        ],
    )
    log.info(
        "detect: %d matched pairs; %d of %d sources participate",
        pairs, len(matched_sources), len(sources),
    )
    return EXIT_OK


def _load_pairs(cfg: RunConfig, out: Path) -> tuple[list[MatchedPair], int, str]:
    """The matched pairs, resolved against detect's hand-off, the number of
    windows and the sha256 of detect_summary.txt, from an out directory that
    detect wrote for this corpus and config."""
    summary_path = out / "detect_summary.txt"
    handoff_path = out / MATCHED_ARTICLES
    pairs_path = out / "pairs.csv"
    for path in (summary_path, handoff_path, pairs_path):
        if not path.is_file():
            raise DataError(f"{path} not found; re-run detect")
    recorded = _read_kv(summary_path)
    for key, value in _detect_record(cfg):
        if key not in recorded:
            raise DataError(f"{summary_path} records no {key}; re-run detect")
        if recorded[key] != str(value):
            raise DataError(
                f"{key} is {value}, but detect ran with {key}={recorded[key]}; re-run detect"
            )
    try:
        window_count = int(recorded["windows"])
    except (KeyError, ValueError):
        raise DataError(f"{summary_path} records no windows; re-run detect") from None
    summary_sha256 = file_sha256(summary_path)
    pairs = read_pairs_csv(pairs_path, read_matched_articles(handoff_path), window_count)
    return pairs, window_count, summary_sha256


def cmd_graph(cfg: RunConfig) -> int:
    cfg.validate(need_articles=True)
    out = Path(cfg.out_dir)
    pairs, window_count, summary_sha256 = _load_pairs(cfg, out)

    by_window: dict[int, list[MatchedPair]] = defaultdict(list)
    for p in pairs:
        by_window[p.window_index].append(p)
    # A window without pairs would add only zeros to compute_node_metrics.
    window_graphs = [
        network_mod.build_window_graph(
            by_window[index],
            include_ambiguous=cfg.include_ambiguous,
            dedupe_origin=cfg.dedupe_origin,
            window_index=index,
        )
        for index in sorted(by_window)
    ]
    combined = network_mod.merge_graphs(window_graphs)
    partition = network_mod.louvain(
        combined, resolution=cfg.louvain_resolution, seed=cfg.louvain_seed
    )

    labels = None
    if cfg.labels:
        labels = load_labels(cfg.labels)
    else:
        log.warning("no labels file configured; graphs carry no label attributes")

    graphs_dir = out / "graphs"
    written = 0
    for graph in window_graphs:
        index = graph.window_index
        _decorate_graph(graph, labels, partition, by_window[index])
        if graph.num_nodes == 0:
            continue
        network_mod.export_graphml(graph, graphs_dir / f"window_{index:03d}.graphml")
        network_mod.export_dot(graph, graphs_dir / f"window_{index:03d}.dot")
        written += 1
    _decorate_graph(combined, labels, partition, pairs)
    network_mod.compute_node_metrics(combined, window_graphs, window_count)
    network_mod.export_graphml(combined, graphs_dir / "combined.graphml")
    network_mod.export_dot(combined, graphs_dir / "combined.dot")
    network_mod.write_node_csv(combined, out / "metrics.csv", network_mod.METRICS_COLUMNS)
    network_mod.write_node_csv(combined, out / "engagement.csv", network_mod.ENGAGEMENT_COLUMNS)

    flags = network_mod.flag_single_day_origins(pairs)
    write_csv(
        out / "origin_flags.csv",
        ["source", "dominant_day", "share", "inbound_pairs"],
        ((source, day, repr(share), inbound) for source, day, share, inbound in flags),
    )

    _write_kv(
        out / "graph_summary.txt",
        [
            ("window_graphs", written),
            ("combined_nodes", combined.num_nodes),
            ("combined_edges", combined.num_edges),
            ("combined_weight", combined.total_weight),
            ("communities", len(set(partition.communities.values()))),
            ("modularity", repr(partition.modularity)),
            ("louvain_seed", cfg.louvain_seed),
            ("louvain_resolution", cfg.louvain_resolution),
            ("dedupe_origin", str(cfg.dedupe_origin).lower()),
            ("include_ambiguous", str(cfg.include_ambiguous).lower()),
            (DETECT_SUMMARY_SHA256, summary_sha256),
        ],
    )
    log.info(
        "graph: %d window graphs + combined (%d nodes, %d edges, weight %d)",
        written, combined.num_nodes, combined.num_edges, combined.total_weight,
    )
    return EXIT_OK


def _decorate_graph(graph, labels, partition, matches) -> None:
    if labels is not None:
        network_mod.attach_labels(graph, labels)
    network_mod.attach_metrics(graph)
    network_mod.attach_engagement(graph, matches)
    network_mod.attach_communities(graph, partition)


def cmd_headlines(cfg: RunConfig) -> int:
    # Only this stage uses headlines. It loads scipy.special (0.06-0.08 s after
    # this module's imports) on its first ANOVA only.
    from . import headlines as headlines_mod

    cfg.validate(need_articles=True)
    names = ("bias", "positive", "negative")
    missing = [f"{name}_lexicon" for name in names if not getattr(cfg, f"{name}_lexicon")]
    if 0 < len(missing) < len(names):
        raise UsageError(f"set all three lexicons or none; missing {', '.join(missing)}")
    out = Path(cfg.out_dir)
    pairs, _, summary_sha256 = _load_pairs(cfg, out)
    # Every input is read before the first write, so a bad one leaves the
    # previous run's outputs whole.
    lexicons = None
    if not missing:
        lexicons = {name: load_lexicon(getattr(cfg, f"{name}_lexicon"), name) for name in names}
        stopwords = (
            load_lexicon(cfg.stopwords, "stopwords")
            if cfg.stopwords
            else headlines_mod.DEFAULT_STOPWORDS
        )
    else:
        log.warning("lexicons not configured; skipping feature-shift analysis")

    title_pairs = headlines_mod.title_distance(pairs)
    threshold = cfg.title_change_threshold
    headlines_mod.write_title_pairs_csv(title_pairs, out / "title_pairs.csv", threshold)

    eligible = [tp for tp in title_pairs if tp.eligible]
    changed = sum(1 for tp in eligible if tp.changed(threshold))
    # changed_fraction raises when no pair is eligible.
    fraction = headlines_mod.changed_fraction(title_pairs, threshold) if eligible else None

    most_changed, by_magnitude = headlines_mod.rank_changers(title_pairs, threshold)
    write_csv(out / "ranking_most_changed.csv", ["source", "changed_titles"], most_changed)
    write_csv(
        out / "ranking_change_magnitude.csv",
        ["source", "mean_distance"],
        ((source, repr(mean)) for source, mean in by_magnitude),
    )

    shifts: list[headlines_mod.FeatureShift] = []
    if lexicons is not None:
        features = headlines_mod.title_features(eligible, lexicons, stopwords)
        shifts = headlines_mod.significant_shifts(eligible, features)
    headlines_mod.write_shifts_csv(shifts, out / "shifts.csv")

    summary = [
        ("eligible_pairs", len(eligible)),
        ("changed_pairs", changed),
        ("changed_fraction", repr(fraction) if fraction is not None else ""),
        ("title_change_threshold", threshold),
        ("shift_sources", len({s.source for s in shifts})),
        (DETECT_SUMMARY_SHA256, summary_sha256),
    ]
    lines = [f"{k}={v}" for k, v in summary] + [""]
    if fraction is None:
        lines.append("No eligible title pairs (empty or missing titles).")
    else:
        lines.append(
            f"{fraction * 100.0:.2f}% of copied articles changed the title "
            f"(cosine distance > {threshold})."
        )
    lines += ["", "Top sources by changed-title count:"]
    lines += [
        f"  {i:2d}. {source}: {count}"
        for i, (source, count) in enumerate(most_changed[:10], start=1)
    ]
    lines += ["", "Top sources by mean change magnitude:"]
    lines += [
        f"  {i:2d}. {source}: {mean:.4f}"
        for i, (source, mean) in enumerate(by_magnitude[:10], start=1)
    ]
    alpha, n = headlines_mod.SHIFT_ALPHA, headlines_mod.SHIFT_MIN_SAMPLES
    lines += ["", f"Significant feature shifts (p < {alpha}, normal groups, n > {n}):"]
    lines += [
        f"  {s.source}: {s.feature} {s.direction} "
        f"(F={s.f_stat:.3f}, p={s.p_value:.5f}, n={s.n_own})"
        for s in shifts
    ] or ["  none"]
    write_lines(out / "headline_summary.txt", lines)
    log.info(
        "headlines: %d eligible pairs, %d changed, %d feature shifts",
        len(eligible), changed, len(shifts),
    )
    return EXIT_OK


def _md_table(header: Sequence[str], rows: Sequence[Sequence[object]]) -> list[str]:
    """A GitHub-flavoured Markdown table; a `|` inside a cell is written `\\|`."""
    lines = ["| " + " | ".join(header) + " |", "|" + "---|" * len(header)]
    for row in rows:
        lines.append("| " + " | ".join(str(c).replace("|", "\\|") for c in row) + " |")
    return lines


def cmd_report(cfg: RunConfig) -> int:
    cfg.validate()
    out = Path(cfg.out_dir)
    needed = {
        "detect_summary.txt": "newsreuse detect",
        "windows.csv": "newsreuse detect",
        "pairs.csv": "newsreuse detect",
        "metrics.csv": "newsreuse graph",
        "graph_summary.txt": "newsreuse graph",
        "origin_flags.csv": "newsreuse graph",
        "engagement.csv": "newsreuse graph",
        "headline_summary.txt": "newsreuse headlines",
        "ranking_most_changed.csv": "newsreuse headlines",
        "ranking_change_magnitude.csv": "newsreuse headlines",
        "shifts.csv": "newsreuse headlines",
    }
    missing = sorted(
        {command for name, command in needed.items() if not (out / name).is_file()}
    )
    if missing:
        raise DataError(
            "missing upstream outputs; run first: " + ", ".join(missing)
        )
    detect_sha256 = file_sha256(out / "detect_summary.txt")
    for name, stage in (("graph_summary.txt", "graph"), ("headline_summary.txt", "headlines")):
        recorded = _read_kv(out / name).get(DETECT_SUMMARY_SHA256)
        if recorded is None:
            raise DataError(f"{out / name} records no {DETECT_SUMMARY_SHA256}; re-run {stage}")
        if recorded != detect_sha256:
            raise DataError(
                f"{out / name} came from another detect run than "
                f"{out / 'detect_summary.txt'}; re-run {stage}"
            )
    try:
        lines = _report_markdown(out, cfg.min_window_docs)
    except (KeyError, TypeError, ValueError, DataError) as exc:
        raise DataError(
            f"{out}: malformed upstream output ({type(exc).__name__}: {exc}); "
            f"re-run the stage that wrote it"
        ) from None
    write_lines(out / "report.md", lines)
    log.info("report: wrote %s", out / "report.md")
    return EXIT_OK


def _report_markdown(out: Path, min_window_docs: int) -> list[str]:
    detect = _read_kv(out / "detect_summary.txt")
    graph_summary = _read_kv(out / "graph_summary.txt")
    headline = _read_kv(out / "headline_summary.txt")
    windows, metrics, engagement, most_changed, by_magnitude, shifts, flags = (
        [record for _, record in read_csv(out / name)[1]]
        for name in (
            "windows.csv", "metrics.csv", "engagement.csv", "ranking_most_changed.csv",
            "ranking_change_magnitude.csv", "shifts.csv", "origin_flags.csv",
        )
    )

    lines = ["# Verbatim republishing analysis", ""]

    lines += ["## 1. Configuration", ""]
    config_rows = [
        ("window_days", detect["window_days"]),
        ("similarity_threshold", detect["similarity_threshold"]),
        ("min_body_tokens", detect["min_body_tokens"]),
        ("title_change_threshold", headline["title_change_threshold"]),
        ("louvain_seed", graph_summary["louvain_seed"]),
        ("louvain_resolution", graph_summary["louvain_resolution"]),
        ("dedupe_origin", graph_summary["dedupe_origin"]),
        ("include_ambiguous", graph_summary["include_ambiguous"]),
    ]
    lines += _md_table(["setting", "value"], config_rows)
    lines.append("")

    lines += ["## 2. Detection", ""]
    lines.append(
        f"{detect['matched_pairs']} matched pairs across "
        f"{detect['windows']} windows; {detect['sources_with_match']} of "
        f"{detect['sources']} sources participate in at least one match."
    )
    lines.append("")
    visible = [w for w in windows if int(w["docs"]) >= min_window_docs]
    if len(visible) < len(windows):
        lines.append(
            f"(windows with fewer than {min_window_docs} documents are omitted: "
            f"{len(windows) - len(visible)} hidden)"
        )
        lines.append("")
    lines += _md_table(
        ["window", "start", "docs", "eligible", "matches"],
        [
            (w["window_index"], w["start_utc"], w["docs"], w["eligible_docs"], w["matches"])
            for w in visible
        ],
    )
    lines.append("")

    lines += ["## 3. Network", ""]
    lines.append(
        f"Combined graph: {graph_summary['combined_nodes']} sources, "
        f"{graph_summary['combined_edges']} edges, total copied articles "
        f"{graph_summary['combined_weight']}; "
        f"{graph_summary['communities']} communities at modularity "
        f"{float(graph_summary['modularity']):.4f}."
    )
    lines.append("")

    def top10(key: str, number=float):
        rows = sorted(metrics, key=lambda r: (-number(r[key]), r["source"]))[:10]
        return [(r["source"], r[key]) for r in rows if number(r[key]) > 0]

    lines += ["### Top sources by weighted in-degree (copied from)", ""]
    lines += _md_table(["source", "weighted in"], top10("weighted_in", int))
    lines += ["", "### Top sources by weighted out-degree (copiers)", ""]
    lines += _md_table(["source", "weighted out"], top10("weighted_out", int))
    lines += ["", "### Top sources by mean in-degree centrality per window", ""]
    lines += _md_table(
        ["source", "mean centrality"],
        [(s, f"{float(v):.4f}") for s, v in top10("in_centrality_mean")],
    )
    lines += ["", "### Top sources by mean betweenness per window", ""]
    lines += _md_table(
        ["source", "mean betweenness"],
        [(s, f"{float(v):.4f}") for s, v in top10("betweenness_mean")],
    )
    engaged = [r for r in engagement if r["median_fb_shares"]]
    engaged.sort(key=lambda r: (-float(r["median_fb_shares"]), r["source"]))
    lines += ["", "### Top sources by median Facebook shares of matched articles", ""]
    lines += _md_table(
        ["source", "median shares", "median reactions"],
        [
            (r["source"], f"{float(r['median_fb_shares']):.1f}",
             f"{float(r['median_fb_reactions']):.1f}" if r["median_fb_reactions"] else "")
            for r in engaged[:10]
        ],
    )
    lines.append("")

    lines += ["## 4. Headlines", ""]
    if headline["changed_fraction"]:
        pct = float(headline["changed_fraction"]) * 100.0
        lines.append(
            f"{pct:.2f}% of {headline['eligible_pairs']} eligible copied "
            f"articles changed the title (cosine distance > "
            f"{headline['title_change_threshold']})."
        )
    else:
        lines.append("No eligible title pairs.")
    lines.append("")
    lines += ["### Most titles changed", ""]
    lines += _md_table(
        ["source", "changed titles"],
        [(r["source"], r["changed_titles"]) for r in most_changed[:10]],
    )
    lines += ["", "### Changed titles by the most", ""]
    lines += _md_table(
        ["source", "mean distance"],
        [(r["source"], f"{float(r['mean_distance']):.4f}") for r in by_magnitude[:10]],
    )
    lines += ["", "### Significant feature shifts", ""]
    if shifts:
        lines += _md_table(
            ["source", "feature", "direction", "p"],
            [
                (r["source"], r["feature"], r["direction"], f"{float(r['p']):.5f}")
                for r in shifts
            ],
        )
    else:
        lines.append("none")
    lines.append("")

    lines += ["## 5. Review flags", ""]
    lines.append(
        "Sources whose copied-from articles concentrate on a single day; "
        "timestamp-based direction inference may have mislabeled the origin."
    )
    lines.append("")
    if flags:
        lines += _md_table(
            ["source", "dominant day", "share", "inbound pairs"],
            [
                (r["source"], r["dominant_day"], f"{float(r['share']):.2f}",
                 r["inbound_pairs"])
                for r in flags
            ],
        )
    else:
        lines.append("none")
    return lines


def cmd_gen_fixture(args: argparse.Namespace) -> int:
    spec = FixtureSpec(**{f.name: getattr(args, f.name) for f in fields(FixtureSpec)})
    try:
        paths = generate_fixture(args.out_dir, spec)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    log.info("fixture written to %s (%d files)", args.out_dir, len(paths))
    print(paths["config"])
    return EXIT_OK


def main(argv: Sequence[str] | None = None) -> int:
    """Run one command and return its exit code.

    `gc.freeze()` first moves every object the imports left out of the
    collector's reach, so a stage's first full collection does not scan
    them. The freeze is process-wide: when nothing was frozen on entry,
    `main` unfreezes on return, so an in-process caller finds the collector
    as it left it.
    """
    thawed = gc.get_freeze_count() == 0
    gc.freeze()
    try:
        return _run_command(argv)
    finally:
        if thawed:
            gc.unfreeze()


def _run_command(argv: Sequence[str] | None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        logging.basicConfig(
            stream=sys.stderr,
            level=logging.INFO,
            format="%(levelname)s %(name)s: %(message)s",
        )
        with staged_outputs():
            if args.command == "gen-fixture":
                return cmd_gen_fixture(args)
            cfg = build_config(args)
            if args.command == "detect":
                return cmd_detect(cfg)
            if args.command == "graph":
                return cmd_graph(cfg)
            if args.command == "headlines":
                return cmd_headlines(cfg)
            if args.command == "report":
                return cmd_report(cfg)
            raise UsageError(f"unknown command {args.command!r}")
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (DataError, OSError) as exc:
        log.error("%s", exc)
        return EXIT_DATA
    except Exception:  # pragma: no cover - defensive
        log.exception("internal error")
        return EXIT_INTERNAL


def console_main() -> int:
    """The `newsreuse` command."""
    return main()


if __name__ == "__main__":
    sys.exit(console_main())
