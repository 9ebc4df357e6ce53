"""Tests of the benchmark itself: its definition, the Zipf generator, the
span arithmetic and the output checks that gate every run."""

from __future__ import annotations

import csv
import functools
import json
import os
import sys
import time
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import probe  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import verify  # noqa: E402
import zipfgen  # noqa: E402
from newsreuse.cli import main  # noqa: E402

SMALL = {"sources": 5, "articles_per_source": 30, "stories": 8, "vocabulary_size": 5000}


def test_benchmark_json_matches_the_harness():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(spans.PER_LAYER)
    setup_bound = next(m["bound"] for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert all(m["bound"] <= setup_bound <= 0.25 for m in spec["end_to_end"])


def test_zipf_generator_is_deterministic_per_seed(tmp_path):
    def corpus(name, seed):
        paths = zipfgen.generate(tmp_path / name, seed, **SMALL)
        return {key: paths[key].read_bytes() for key in ("articles", "planted")}

    first = corpus("a", 7)
    assert corpus("b", 7) == first
    other = corpus("c", 8)
    assert other["articles"] != first["articles"]


def test_zipf_generator_records_every_planted_pair(tmp_path):
    paths = zipfgen.generate(tmp_path, 7, **SMALL)
    with paths["planted"].open(encoding="utf-8", newline="") as fh:
        planted = list(csv.DictReader(fh))
    clusters: dict[str, set[str]] = {}
    for row in planted:
        clusters.setdefault(row["story"], set()).update((row["id_a"], row["id_b"]))
    assert len(clusters) == SMALL["stories"]
    assert len(planted) == sum(len(c) * (len(c) - 1) // 2 for c in clusters.values())
    sources = [{member.split("-")[0] for member in c} for c in clusters.values()]
    assert all(len(s) == len(c) for s, c in zip(sources, clusters.values()))


def test_zipf_script_writes_the_reference_pairs(tmp_path, monkeypatch):
    monkeypatch.setattr(zipfgen, "generate", functools.partial(zipfgen.generate, **SMALL))
    assert zipfgen.main(["--out", str(tmp_path), "--seed", "7"]) == 0
    expected = verify.reference_pairs(tmp_path / "articles.jsonl", zipfgen.WINDOW_DAYS)
    assert len(expected) > 1
    assert verify.read_pairs(tmp_path / "expected_pairs.csv") == expected


def span(sid, parent, name, start, end, counts=None):
    return spans.Span(sid, parent, name, float(start), float(end), counts)


def test_self_time_subtracts_the_union_of_children():
    tree = [
        span(0, -1, "root", 0, 10),
        span(1, 0, "a", 1, 4),
        span(2, 0, "b", 3, 6),  # overlaps a: [1, 6] is covered once
        span(3, 1, "c", 2, 3),
        span(4, 0, "d", 9, 12),  # runs past its parent: clipped at 10
    ]
    assert spans.self_times(tree) == {0: 4.0, 1: 2.0, 2: 3.0, 3: 1.0, 4: 3.0}


def test_layer_metrics_split_title_side_and_count_nesting_once():
    tree = [
        span(0, -1, "network.attach_metrics", 0, 5),
        span(1, 0, "network.betweenness", 1, 3),
        span(2, 1, "network.betweenness", 1.5, 2.5),
        span(3, -1, "headlines.title_distance", 10, 20),
        span(4, 3, "similarity.tokenize", 11, 12, {"similarity.tokens": 5}),
        span(5, -1, "similarity.tokenize", 30, 32, {"similarity.tokens": 7}),
        span(6, -1, "corpus.ingest_articles", 40, 41, {"corpus.articles": 9}),
        span(7, -1, "corpus.ingest_articles", 50, 51, {"corpus.articles": 9}),
    ]
    m = spans.layer_metrics(tree)
    assert m["network.attach_metrics.s"] == 5.0
    assert m["network.attach_metrics.self_s"] == 3.0
    assert m["network.betweenness.s"] == 2.0
    assert m["network.betweenness.self_s"] == 2.0
    assert m["network.betweenness.calls"] == 2
    assert m["similarity.tokenize.calls"] == 1
    assert m["similarity.tokenize.s"] == 2.0
    assert m["similarity.title_tokenize.calls"] == 1
    assert m["headlines.title_distance.self_s"] == 9.0
    assert m["similarity.tokens"] == 7
    assert m["corpus.articles"] == 9
    assert m["corpus.ingest_articles.calls"] == 2
    assert {name for name, _ in spans.PER_LAYER} - {"cli.import_s", "trace.overhead_s"} <= m.keys()


def test_recorder_patches_and_restores_call_sites(tmp_path):
    class Doc:
        @classmethod
        def make(cls, n):
            return cls()

    def outer(n):
        return module.inner(n) + 1

    module = types.SimpleNamespace(inner=lambda n: n * 2, outer=outer)
    originals = dict(vars(module)), Doc.__dict__["make"]
    recorder = spans.Recorder("r1")
    targets = [
        (module, "outer", "m.outer", None),
        (module, "inner", "m.inner", lambda r: {"value": r}),
        (Doc, "make", "m.make", None),
    ]
    with recorder.patched(targets):
        assert module.outer(3) == 7
        assert isinstance(Doc.make(1), Doc)
    assert (dict(vars(module)), Doc.__dict__["make"]) == originals
    names = [(s.name, s.parent) for s in recorder.spans]
    assert names == [("m.outer", -1), ("m.inner", 0), ("m.make", -1)]
    assert recorder.spans[1].counts == {"value": 6}
    recorder.write_jsonl(tmp_path / "spans.jsonl")
    lines = (tmp_path / "spans.jsonl").read_text(encoding="utf-8").splitlines()
    assert [json.loads(line)["run"] for line in lines] == ["r1"] * 3

    with pytest.raises(KeyError):
        with recorder.patched([targets[0], (module, "absent", "m.absent", None)]):
            pass
    assert dict(vars(module)) == originals[0]


def test_every_patched_call_site_is_reported():
    from newsreuse import cli, headlines, network, similarity

    targets = spans.targets(cli, similarity, network, headlines)
    assert all(attr in vars(owner) for owner, attr, _, _ in targets)
    reported = {name for _, _, name, _ in targets}
    title_side = {"similarity.title_" + name.split(".", 1)[1] for name in reported
                  if name.startswith("similarity.")}
    assert set(spans.FUNCTIONS) <= reported | title_side
    assert reported - {"similarity.cosine"} <= set(spans.FUNCTIONS)


def rewrite_pairs(src: Path, dst: Path, edit) -> None:
    with src.open(encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    with dst.open("w", encoding="utf-8", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows([rows[0], *edit(rows[1:])])


def nudge_first_score(rows):
    rows[0][5] = repr(float(rows[0][5]) + 1e-9)
    return rows


@pytest.fixture(scope="module")
def detected(tmp_path_factory):
    """(pairs.csv, expected pairs) for a small Zipf corpus and a small
    planted-copy fixture, each run through `newsreuse detect`."""
    root = tmp_path_factory.mktemp("detected")
    paths = zipfgen.generate(root / "zipf", 7, **SMALL)
    assert main(["gen-fixture", "--out", str(root / "fixture")]) == 0
    cases = {
        "zipf": (paths["config"], verify.reference_pairs(paths["articles"], zipfgen.WINDOW_DAYS)),
        "fixture": (
            root / "fixture" / "fixture.cfg",
            verify.planted_copy_pairs(root / "fixture" / "ground_truth.csv"),
        ),
    }
    out = {}
    for name, (config, expected) in cases.items():
        assert main(["detect", "--config", str(config), "--out", str(root / f"out_{name}")]) == 0
        out[name] = (root / f"out_{name}" / "pairs.csv", expected)
    return out


@pytest.mark.parametrize("case", ["zipf", "fixture"])
def test_pair_check_accepts_the_program_output(detected, case):
    pairs_csv, expected = detected[case]
    assert len(expected) > 1
    assert verify.check_pairs(pairs_csv, expected) == []


@pytest.mark.parametrize("case", ["zipf", "fixture"])
@pytest.mark.parametrize(
    "edit", [lambda rows: rows[1:], nudge_first_score], ids=["one_pair_removed", "score_nudged"]
)
def test_pair_check_rejects_a_wrong_pairs_csv(detected, case, edit, tmp_path):
    pairs_csv, expected = detected[case]
    broken = tmp_path / "pairs.csv"
    rewrite_pairs(pairs_csv, broken, edit)
    assert verify.check_pairs(broken, expected) != []


def test_identical_outputs_are_compared_byte_for_byte(tmp_path):
    for name in ("a", "b"):
        (tmp_path / name / "graphs").mkdir(parents=True)
        (tmp_path / name / "pairs.csv").write_text("x\n", encoding="utf-8")
        (tmp_path / name / "graphs" / "combined.dot").write_text(name, encoding="utf-8")
    a, b = verify.digest_tree(tmp_path / "a"), verify.digest_tree(tmp_path / "b")
    assert verify.differing_files(a, b) == ["graphs/combined.dot"]
    assert verify.stage_of("graphs/combined.dot") == "graph"
    assert verify.stage_of("pairs.csv") == "detect"


def test_speed_scale_is_reference_over_mean_probe_time():
    with probe.Samplers([min(os.sched_getaffinity(0))]) as speed:
        start = time.perf_counter()
        while len(speed.samples) < 3 and time.perf_counter() < start + 10:
            time.sleep(0.01)
        end = time.perf_counter()
        during = [d for e, d in speed.samples if start <= e <= end]
        assert len(during) >= 3
        assert speed.scale(start, end) == pytest.approx(
            probe.REFERENCE_PROBE_S * len(during) / sum(during)
        )
        with pytest.raises(RuntimeError):
            speed.scale(end + 10, end + 11)
    assert all(proc.poll() is not None for proc in speed.procs)
