"""CPU-speed probe for the newsreuse benchmark.

On a shared virtual machine each virtual CPU switches between a fast and a
slow state, up to about twice apart, on time scales of seconds to minutes.
The same `detect` invocation then takes anywhere from 5 to 10 seconds, and a
probe on another CPU, or one taken just before the stage, does not predict
it.

So each measured stage is pinned to fixed CPUs, and a sampler pinned to each
of them runs a fixed piece of work every SLEEP_S seconds for as long as the
benchmark runs. The work mixes what the program does: an interpreted loop,
a numpy pass over arrays larger than a core's L2 cache, and random reads of
a Python list; the loop alone misses the slowdown of memory-bound work. Its
mean duration over a stage's interval measures how fast those CPUs ran the
stage; the harness scales the stage's wall time to REFERENCE_PROBE_S. Beside
a running stage a sampler takes about an eighth of its CPU, the same on
every commit.

Run as a script, it is one sampler: `python3 probe.py CPU` prints
`<end perf_counter> <duration>` per sample until it is killed.
"""

from __future__ import annotations

import os
import random
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

LOOPS = 12_000
STREAM = 1_000_000  # float64 elements per array: three arrays of 8 MB
READS = 5_000
SLEEP_S = 0.05
# About the probe's mean duration beside a running stage on the reference
# machine (2-vCPU Intel Xeon VM, Python 3.11) at the fastest speed seen
# there. A stage time is reported as it would read at that speed, which is
# close to its wall time on that machine when it runs fast.
REFERENCE_PROBE_S = 0.0075


class Samplers:
    """One sampler subprocess per CPU in `cpus`, collecting every sample."""

    def __init__(self, cpus: list[int]):
        self.samples: list[tuple[float, float]] = []  # (end, duration)
        self.procs = [
            subprocess.Popen(
                [sys.executable, str(Path(__file__).resolve()), str(cpu)],
                stdout=subprocess.PIPE, text=True,
            )
            for cpu in cpus
        ]
        self.readers = [threading.Thread(target=self._read, args=(p,)) for p in self.procs]
        for reader in self.readers:
            reader.start()

    def _read(self, proc: subprocess.Popen) -> None:
        for line in proc.stdout:
            end, duration = line.split()
            self.samples.append((float(end), float(duration)))

    def scale(self, start: float, end: float) -> float:
        """REFERENCE_PROBE_S over the mean sample duration in [start, end]."""
        during = [d for e, d in list(self.samples) if start <= e <= end]
        if not during:
            raise RuntimeError("no CPU-speed samples; the probe is not running")
        return REFERENCE_PROBE_S / statistics.fmean(during)

    def close(self) -> None:
        for proc in self.procs:
            proc.kill()
        for proc in self.procs:
            proc.wait()
        for reader in self.readers:
            reader.join()

    def __enter__(self) -> "Samplers":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def main() -> int:
    import numpy as np

    os.sched_setaffinity(0, {int(sys.argv[1])})
    a, b, c = np.ones(STREAM), np.ones(STREAM), np.empty(STREAM)
    values = list(range(20 * READS))
    order = random.Random(0).sample(range(len(values)), READS)
    while True:
        start = time.perf_counter()
        s = 0
        for i in range(LOOPS):
            s += i * i % 7
        np.add(a, b, out=c)
        for i in order:
            s += values[i]
        end = time.perf_counter()
        sys.stdout.write(f"{end} {end - start}\n")
        sys.stdout.flush()
        time.sleep(SLEEP_S)


if __name__ == "__main__":
    sys.exit(main())
