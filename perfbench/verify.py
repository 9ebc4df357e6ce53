"""Output checks for the newsreuse benchmark.

Every check returns a list of problems; an empty list means the output
passed. Checks never import newsreuse: the pair-set reference below is an
independent scipy.sparse recomputation of the TFIDF all-pairs join.

Only `reference_pairs` needs numpy and scipy, and it imports them itself.
The harness imports this module and forks every measured process, and a
child's peak RSS starts from its parent's, so the harness must stay small.
"""

from __future__ import annotations

import csv
import hashlib
import json
import re
from pathlib import Path

SCORE_TOLERANCE = 1e-12
SECONDS_PER_DAY = 86400
_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)

# Files each stage writes under --out; a stage whose files are missing or
# differ between repetitions counts as a failed invocation.
STAGE_FILES = {
    "detect": ("pairs.csv", "windows.csv", "rejects.csv", "detect_summary.txt"),
    "graph": (
        "graphs/combined.graphml", "graphs/combined.dot", "metrics.csv",
        "engagement.csv", "origin_flags.csv", "graph_summary.txt",
    ),
    "headlines": (
        "title_pairs.csv", "ranking_most_changed.csv",
        "ranking_change_magnitude.csv", "shifts.csv", "headline_summary.txt",
    ),
    "report": ("report.md",),
}


def stage_of(relpath: str) -> str:
    """The stage that writes an output file."""
    if relpath.startswith("graphs/"):
        return "graph"
    for stage, names in STAGE_FILES.items():
        if relpath in names:
            return stage
    return "report"


def missing_outputs(out: Path) -> dict[str, list[str]]:
    """Expected files that are absent or empty, by stage."""
    missing: dict[str, list[str]] = {}
    for stage, names in STAGE_FILES.items():
        for name in names:
            path = out / name
            if not path.is_file() or path.stat().st_size == 0:
                missing.setdefault(stage, []).append(name)
    return missing


def digest_tree(root: Path) -> dict[str, str]:
    """sha256 of every file under `root`, keyed by relative posix path."""
    return {
        path.relative_to(root).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(root.rglob("*"))
        if path.is_file()
    }


def differing_files(a: dict[str, str], b: dict[str, str]) -> list[str]:
    return sorted(name for name in a.keys() | b.keys() if a.get(name) != b.get(name))


# A pair is keyed by (window, lower id, higher id); the value is
# (earlier id, later id, similarity, direction).
PairKey = tuple[int, str, str]
PairValue = tuple[str, str, float, str]


def read_pairs(path: Path) -> dict[PairKey, PairValue]:
    pairs: dict[PairKey, PairValue] = {}
    with path.open("r", encoding="utf-8", newline="") as fh:
        for row in csv.DictReader(fh):
            a, b = row["earlier_id"], row["later_id"]
            key = (int(row["window_index"]), min(a, b), max(a, b))
            pairs[key] = (a, b, float(row["similarity"]), row["direction"])
    return pairs


def compare_pairs(
    found: dict[PairKey, PairValue], expected: dict[PairKey, PairValue]
) -> list[str]:
    """Same pair set, same orientation and direction, scores within 1e-12."""
    problems = []
    missing = sorted(expected.keys() - found.keys())
    extra = sorted(found.keys() - expected.keys())
    if missing:
        problems.append(f"{len(missing)} expected pairs missing, e.g. {missing[0]}")
    if extra:
        problems.append(f"{len(extra)} unexpected pairs, e.g. {extra[0]}")
    for key in sorted(found.keys() & expected.keys()):
        fa, fb, fsim, fdir = found[key]
        ea, eb, esim, edir = expected[key]
        if (fa, fb, fdir) != (ea, eb, edir):
            problems.append(f"pair {key}: orientation {(fa, fb, fdir)} != {(ea, eb, edir)}")
        elif not abs(fsim - esim) <= SCORE_TOLERANCE:
            problems.append(f"pair {key}: similarity {fsim!r} != {esim!r}")
    return problems


def planted_copy_pairs(ground_truth: Path) -> dict[PairKey, PairValue]:
    """Expected pairs of a `newsreuse gen-fixture` corpus.

    Planted copies are verbatim and strictly later than their original, so
    each pair is forward with similarity 1.0 up to rounding.
    """
    pairs: dict[PairKey, PairValue] = {}
    with ground_truth.open("r", encoding="utf-8", newline="") as fh:
        for row in csv.DictReader(fh):
            a, b = row["original_id"], row["copy_id"]
            key = (int(row["window_index"]), min(a, b), max(a, b))
            pairs[key] = (a, b, 1.0, "forward")
    return pairs


def reference_pairs(
    articles_jsonl: Path,
    window_days: int,
    threshold: float = 0.90,
    min_body_tokens: int = 20,
) -> dict[PairKey, PairValue]:
    """Every cross-source pair whose TFIDF body cosine exceeds `threshold`.

    Mirrors the documented detect semantics: windows anchored at midnight
    UTC of the earliest article; lowercased `[^\\W_]+` tokens; bodies with
    fewer than `min_body_tokens` tokens excluded; raw tf times
    idf = ln((1 + N) / (1 + df)) + 1 over the window's eligible bodies; L2
    normalized; strict `>`. Scores come from one sparse product per window.
    """
    import numpy as np
    from scipy import sparse

    with articles_jsonl.open("r", encoding="utf-8") as fh:
        records = [json.loads(line) for line in fh if line.strip()]
    start0 = min(r["published_utc"] for r in records)
    start0 -= start0 % SECONDS_PER_DAY
    length = window_days * SECONDS_PER_DAY
    windows: dict[int, list[dict]] = {}
    for r in records:
        windows.setdefault((r["published_utc"] - start0) // length, []).append(r)

    pairs: dict[PairKey, PairValue] = {}
    for index, members in sorted(windows.items()):
        docs, tokens = [], []
        for r in sorted(members, key=lambda r: r["id"]):
            body = _TOKEN_RE.findall(r["body"].lower())
            if len(body) >= min_body_tokens:
                docs.append(r)
                tokens.append(body)
        if len(docs) < 2:
            continue
        vocab: dict[str, int] = {}
        term_ids = [vocab.setdefault(t, len(vocab)) for body in tokens for t in body]
        rows = np.repeat(np.arange(len(docs)), [len(t) for t in tokens])
        tf = sparse.csr_matrix(
            (np.ones(len(term_ids)), (rows, term_ids)), shape=(len(docs), len(vocab))
        )
        df = np.bincount(tf.indices, minlength=len(vocab))
        idf = np.log((1 + len(docs)) / (1 + df)) + 1.0
        x = sparse.csr_matrix(tf.multiply(idf[np.newaxis, :]))
        norms = np.sqrt(np.asarray(x.multiply(x).sum(axis=1)).ravel())
        x = sparse.csr_matrix(x.multiply((1.0 / norms)[:, np.newaxis]))
        for lo in range(0, len(docs), 512):
            block = (x[lo:lo + 512] @ x[lo:].T).toarray()
            for bi, bj in zip(*np.nonzero(block > threshold)):
                if bi >= bj:
                    continue
                a, b = docs[lo + bi], docs[lo + bj]
                if a["source"] == b["source"]:
                    continue
                if a["published_utc"] == b["published_utc"]:
                    first, second = sorted((a, b), key=lambda r: (r["source"], r["id"]))
                    direction = "ambiguous"
                else:
                    first, second = sorted((a, b), key=lambda r: r["published_utc"])
                    direction = "forward"
                key = (index, min(a["id"], b["id"]), max(a["id"], b["id"]))
                pairs[key] = (first["id"], second["id"], float(block[bi, bj]), direction)
    return pairs


def write_pairs(pairs: dict[PairKey, PairValue], path: Path) -> None:
    """Write pairs in the columns `read_pairs` reads, scores with every digit."""
    with path.open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["window_index", "earlier_id", "later_id", "similarity", "direction"])
        for (window, _, _), (a, b, sim, direction) in sorted(pairs.items()):
            writer.writerow([window, a, b, repr(sim), direction])


def check_pairs(pairs_csv: Path, expected: dict[PairKey, PairValue]) -> list[str]:
    if not pairs_csv.is_file():
        return [f"{pairs_csv} not written"]
    problems = compare_pairs(read_pairs(pairs_csv), expected)
    if not expected:
        problems.append("the reference pair set is empty; the workload checks nothing")
    return problems
