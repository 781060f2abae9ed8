"""The machine's speed, measured beside every timed operation.

The benchmark runs on a few cores of a shared host, whose speed drifts by
tens of percent within a second.  Two probes measure that speed and use
nothing of nsforge, so a change to the program cannot change them:

- ``kernel_sample``: fixed pure-Python integer arithmetic over a constant
  table, the kind of work nsforge does.  It times operations that run in the
  benchmark's own process, and every set-up.
- ``interpreter_sample``: one bare ``python -c pass`` process.  It times the
  ``cli`` operations, which are processes of their own: they may run on
  another CPU than the benchmark, and half their time is process start.

A probe is sampled before each operation and once after the last;
``factors`` turns the samples into one factor per operation.  A time
multiplied by its factor reads as it would on a machine where the probe
takes its reference time.
"""

import gc
import statistics
import subprocess
import sys
import time

KERNEL_REFERENCE_MS = 0.5
INTERPRETER_REFERENCE_MS = 70.0
KERNEL_REPS = 48
KERNEL_ROWS = tuple(tuple((7 * i + 3 * j) % 11 - 5 for j in range(8)) for i in range(8))
KERNEL_RESULT = 690218
KERNEL_RUNS = 3  # a kernel sample is the median of this many back-to-back passes


def kernel_ms():
    """Milliseconds of one pass of the kernel, with the collector off.

    The kernel allocates no containers, and the collector is off while it
    runs, so the size of the program's heap does not reach it.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        acc = 0
        for _ in range(KERNEL_REPS):
            for i, row in enumerate(KERNEL_ROWS):
                for j, x in enumerate(row):
                    acc = (acc * 31 + x * (i - j)) % 1000003
        spent = time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()
    if acc != KERNEL_RESULT:
        raise SystemExit(f"calibration kernel returned {acc}, not {KERNEL_RESULT}")
    return 1000 * spent


def kernel_sample():
    return statistics.median(kernel_ms() for _ in range(KERNEL_RUNS))


def interpreter_sample(env):
    """Milliseconds of one ``python -c pass`` process, started as the CLI's are."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], env=env, check=True, timeout=60,
                   stdout=subprocess.DEVNULL)
    return 1000 * (time.perf_counter() - t0)


def factors(samples, reference_ms):
    """Per operation, ``reference_ms`` over the mean of the four samples around it.

    ``samples[i]`` precedes operation i and ``samples[-1]`` follows the last
    one, so operation i is framed by samples i - 1 and i before it and i + 1
    and i + 2 after it.
    """
    return [reference_ms / statistics.fmean(samples[max(0, i - 1):i + 3])
            for i in range(len(samples) - 1)]
