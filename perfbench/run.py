#!/usr/bin/env python3
"""The newsreuse benchmark.

    python3 perfbench/run.py --workload <name|all> --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
`src/`, so nothing has to be installed. Each run generates its corpus from
the seed, then:

- `--trace 0` runs detect, graph, headlines and report, each as its own CLI
  subprocess, repeatedly for about `--seconds` (at least twice), and
  reports each stage's median repetition. Start-up (`report --help`) is
  timed between repetitions and reported as a median. Every time is scaled
  to a reference CPU speed measured beside the stage (see probe.py).
- `--trace 1` runs the four stages in-process in one fresh interpreter, once
  untraced and once with spans around the program's public functions (see
  spans.py), and reports the per-layer metrics.

Every output is checked outside the timed region: exit codes, the files each
stage writes, the pair set against the planted copies or an independent
TFIDF recomputation, and byte-identical output directories across
repetitions. The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics; earlier lines print each metric with
its unit. Exits 1 when a check fails and 2 when the program is not found.

A child's peak RSS starts from that of the process that forked it, so this
harness imports no numpy: corpus generation and the reference recomputation
run in subprocesses of their own.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import probe
import spans
import verify

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

STAGES = spans.STAGES
ENTRY = "import sys; from newsreuse.cli import main; sys.exit(main())"
STAGE_TIMEOUT_S = 150
MIN_REPS = 2  # the second repetition checks byte-identity

END_TO_END = (
    ("pipeline_s", "s"),
    ("detect_s", "s"),
    ("graph_s", "s"),
    ("headlines_s", "s"),
    ("setup_s", "s"),
    ("detect_articles_per_s", "1/s"),
    ("detect_peak_rss_mb", "MB"),
)


@dataclass(frozen=True)
class Workload:
    name: str
    jobs: int
    graph_flags: tuple[str, ...]
    # `newsreuse gen-fixture` flags; None selects the Zipf story generator.
    fixture: tuple[str, ...] | None


WORKLOADS = {
    w.name: w
    for w in (
        # Uniform 4000-word vocabulary: prefix pruning fails, so the join is
        # most of detect. ~2.25k documents per window, as at full size.
        Workload(
            "uniform", 1, (),
            ("--sources", "40", "--articles-per-source", "100", "--copies", "500",
             "--windows", "2"),
        ),
        # Zipf(1.1) text where pruning works, plus stories republished by
        # several sources below similarity 1.0: the only input that exercises
        # --dedupe-origin clusters and the detect process pool.
        Workload("zipf-stories", 2, ("--dedupe-origin",), None),
        # Small windows and many sources: start-up, re-ingest, per-window
        # betweenness and per-source ANOVA dominate graph and headlines; the
        # join is under half of detect.
        Workload(
            "many-sources", 1, (),
            ("--sources", "150", "--articles-per-source", "40", "--copies", "2600",
             "--windows", "40", "--window-days", "2"),
        ),
    )
}


class Run:
    """One workload run: its files, its subprocesses and its failures."""

    def __init__(self, workload: Workload, seed: int, workdir: Path):
        self.workload = workload
        self.seed = seed
        self.dir = workdir
        self.log = workdir / "stderr.log"
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p
        ))
        self.attempted = 0
        self.failures: set[str] = set()  # one entry per failed invocation
        self.speed: probe.Samplers | None = None  # set while stages are timed

    def spawn(self, argv: list[str], stdout: Path | None = None) -> tuple[float, int, int]:
        """Wall seconds, exit code and peak RSS (KiB) of one subprocess,
        killed after STAGE_TIMEOUT_S. Its stdout goes to `stdout` if given.

        The RSS comes from wait4, so it is the largest of the process and
        the children it reaped (the detect worker pool)."""
        with self.log.open("ab") as err, (
            stdout.open("wb") if stdout else open(os.devnull, "wb")
        ) as out:
            start = time.perf_counter()
            # Its own process group, so a kill also reaches the worker pool.
            proc = subprocess.Popen(
                argv, stdout=out, stderr=err, env=self.env, cwd=self.dir,
                start_new_session=True,
            )
            watchdog = threading.Timer(STAGE_TIMEOUT_S, kill_group, (proc.pid,))
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                kill_group(proc.pid)
                proc.wait()
                raise
            finally:
                watchdog.cancel()
            elapsed = time.perf_counter() - start
        kill_group(proc.pid)  # any worker the stage left behind
        proc.returncode = os.waitstatus_to_exitcode(status)
        return elapsed, proc.returncode, usage.ru_maxrss

    def cli(self, *args: str) -> tuple[float, int, int]:
        return self.spawn([sys.executable, "-c", ENTRY, *args])

    def timed(self, *args: str) -> tuple[float, int, int]:
        """`cli`, with the wall seconds scaled to the probe's reference speed."""
        start = time.perf_counter()
        elapsed, code, rss_kib = self.cli(*args)
        return elapsed * self.speed.scale(start, start + elapsed), code, rss_kib

    def startup(self) -> float:
        """Seconds for `newsreuse report --help`: interpreter plus imports."""
        self.attempted += 1
        elapsed, code, _ = self.timed("report", "--help")
        if code != 0:
            self.fail(f"start-up probe {self.attempted}", f"exit {code}")
        return elapsed

    def fail(self, invocation: str, why: str) -> None:
        self.failures.add(invocation)
        print(f"{self.workload.name} seed {self.seed} {invocation}: {why}", file=sys.stderr)

    def generate(self) -> tuple[Path, dict]:
        """Write the corpus; returns its config file and the expected pairs."""
        corpus = self.dir / "corpus"
        zipf = self.workload.fixture is None
        if zipf:
            argv = [sys.executable, str(HERE / "zipfgen.py"), "--out", str(corpus),
                    "--seed", str(self.seed)]
        else:
            argv = [sys.executable, "-c", ENTRY, "gen-fixture", "--out", str(corpus),
                    "--seed", str(self.seed), *self.workload.fixture]
        _, code, _ = self.spawn(argv)
        if code != 0:
            raise RuntimeError(f"corpus generation exited {code}; see {self.log}")
        config = corpus / "fixture.cfg"
        if zipf:
            return config, verify.read_pairs(corpus / "expected_pairs.csv")
        return config, verify.planted_copy_pairs(corpus / "ground_truth.csv")

    def check_outputs(self, rep: int, out: Path, expected: dict) -> None:
        for stage, names in verify.missing_outputs(out).items():
            self.fail(f"rep {rep} {stage}", f"missing or empty outputs {names}")
        for problem in verify.check_pairs(out / "pairs.csv", expected):
            self.fail(f"rep {rep} detect", problem)

    def check_identical(self, rep: int, reference: dict, out: Path) -> None:
        for name in verify.differing_files(reference, verify.digest_tree(out)):
            self.fail(f"rep {rep} {verify.stage_of(name)}", f"{name} differs from rep 0")

    def stage_argv(self, stage: str, config: Path, out: Path) -> list[str]:
        argv = [stage, "--config", str(config), "--out", str(out),
                "--jobs", str(self.workload.jobs)]
        if stage == "graph":
            argv += self.workload.graph_flags
        return argv

    def measure(self, seconds: float) -> dict[str, float]:
        """Untraced pipeline repetitions; the end-to-end metrics."""
        config, expected = self.generate()
        # Pin this process, so every stage and its workers inherit the CPUs
        # the samplers watch.
        allowed = os.sched_getaffinity(0)
        cpus = sorted(allowed)[-self.workload.jobs:]
        os.sched_setaffinity(0, cpus)
        try:
            with probe.Samplers(cpus) as self.speed:
                return self.repeat(config, expected, seconds)
        finally:
            os.sched_setaffinity(0, allowed)

    def repeat(self, config: Path, expected: dict, seconds: float) -> dict[str, float]:
        out = self.dir / "out"
        self.startup()  # page in the interpreter and libraries
        setups = [self.startup()]
        times: dict[str, list[float]] = {stage: [] for stage in STAGES}
        rss_mb: list[float] = []
        reference = None
        articles = 0
        start = time.perf_counter()
        rep = 0
        while rep < MIN_REPS or (
            time.perf_counter() - start + (time.perf_counter() - start) / rep <= seconds
        ):
            shutil.rmtree(out, ignore_errors=True)
            for stage in STAGES:
                self.attempted += 1
                elapsed, code, rss_kib = self.timed(*self.stage_argv(stage, config, out))
                times[stage].append(elapsed)
                if code != 0:
                    self.fail(f"rep {rep} {stage}", f"exit {code}; see {self.log}")
                if stage == "detect":
                    rss_mb.append(rss_kib / 1024)
            setups.append(self.startup())
            if reference is None:
                self.check_outputs(rep, out, expected)
                reference = verify.digest_tree(out)
                articles = summary_articles(out / "detect_summary.txt")
            else:
                self.check_identical(rep, reference, out)
            rep += 1
        median = {stage: statistics.median(samples) for stage, samples in times.items()}
        return {
            "pipeline_s": sum(median.values()),
            "detect_s": median["detect"],
            "graph_s": median["graph"],
            "headlines_s": median["headlines"],
            "setup_s": statistics.median(setups),
            "detect_articles_per_s": articles / median["detect"],
            "detect_peak_rss_mb": statistics.median(rss_mb),
        }

    def trace(self) -> dict[str, float]:
        """One traced in-process pipeline; the per-layer metrics."""
        config, expected = self.generate()
        untraced, traced = self.dir / "out_untraced", self.dir / "out_traced"
        WORK.joinpath("traces").mkdir(parents=True, exist_ok=True)
        run_id = f"{self.workload.name}-seed{self.seed}"
        argv = [sys.executable, str(HERE / "spans.py"), "--config", str(config),
                "--out-untraced", str(untraced), "--out-traced", str(traced),
                "--spans", str(WORK / "traces" / f"{run_id}.jsonl"), "--run-id", run_id]
        if "--dedupe-origin" in self.workload.graph_flags:
            argv.append("--dedupe-origin")
        result_file = self.dir / "trace.json"
        _, code, _ = self.spawn(argv, stdout=result_file)
        self.attempted += 2 * len(STAGES)
        if code != 0:
            for stage in STAGES:
                self.fail(f"rep 0 {stage}", f"traced run exited {code}; see {self.log}")
            return {}
        result = json.loads(result_file.read_text(encoding="utf-8").splitlines()[-1])
        for rep, kind in enumerate(("untraced", "traced")):
            for stage, stage_code in result["exit_codes"][kind].items():
                if stage_code != 0:
                    self.fail(f"rep {rep} {stage}", f"{kind} in-process exit {stage_code}")
        self.check_outputs(1, traced, expected)
        self.check_identical(1, verify.digest_tree(untraced), traced)
        return {name: result["metrics"][name] for name, _ in spans.PER_LAYER}


def kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def summary_articles(path: Path) -> int:
    """The `articles=` count of detect_summary.txt, 0 when it is missing."""
    if not path.is_file():
        return 0
    for line in path.read_text(encoding="utf-8").splitlines():
        key, _, value = line.partition("=")
        if key == "articles":
            return int(value)
    return 0


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, int, int]:
    """(metrics as {name: {value, unit}}, attempted, failed) for one workload."""
    workdir = WORK / f"{name}-seed{seed}-pid{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    run = Run(WORKLOADS[name], seed, workdir)
    try:
        values = run.trace() if trace else run.measure(seconds)
    finally:
        if not run.failures:
            shutil.rmtree(workdir, ignore_errors=True)
    units = dict(spans.PER_LAYER if trace else END_TO_END)
    metrics = {k: {"value": v, "unit": units[k]} for k, v in values.items()}
    return metrics, run.attempted, len(run.failures)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="newsreuse benchmark")
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Turn SIGTERM into SystemExit so a running stage is killed and reaped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (SRC / "newsreuse" / "cli.py").is_file():
        print(f"newsreuse sources not found under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    metrics: dict[str, dict] = {}
    attempted = failed = 0
    for name in names:
        values, tried, bad = run_workload(name, args.seed, args.seconds, bool(args.trace))
        attempted += tried
        failed += bad
        for metric, entry in values.items():
            print(f"{name:14s} {metric:40s} {entry['value']:.6g} {entry['unit']}")
            key = metric if len(names) == 1 else f"{name}.{metric}"
            metrics[key] = entry
        print(f"{name:14s} {'failed_frac':40s} {bad / max(tried, 1):.6g} "
              f"({bad} of {tried} invocations)")
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
