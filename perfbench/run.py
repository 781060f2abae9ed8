"""Layered benchmark of nsforge: four seeded workloads, end-to-end and per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload certify --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --smoke

``--trace 0`` measures the end-to-end metrics with tracing off.  Set-up is
repeated SETUP_REPS times and its median reported.  Then whole cycles of the
workload's fixed operation mix run in a closed loop with one client, until
the operations have taken ``--seconds``.  Every time is scaled to a reference
speed of the machine, measured beside it (see ``speed``), and so is the
count of ``--seconds``; the report line holds the unscaled figures too.
``--trace 1`` runs one fixed pass over the first TRACE_CYCLES cycle variants
untraced, traced and untraced again, and reports the per-layer metrics; its
call counts repeat exactly for a seed.  Every output is checked against the
independent oracle right after its operation, outside the timed span.  The
last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

import argparse
import compileall
import gc
import importlib
import itertools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

PROCESS_START = time.perf_counter()

import speed  # noqa: E402  (the benchmark's own modules, beside this file)
import tracing  # noqa: E402
from workloads import WORKLOADS, Unexpected  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPS = 7
TRACE_CYCLES = 4  # cycle variants in the traced pass; keeps a construct trace run near a minute


def declared(kind):
    """{name: unit} of the ``end_to_end`` or ``per_layer`` metrics in BENCHMARK.json."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def _load_nsforge():
    """Fresh import of the package from the checkout's src/ (re-executes its modules)."""
    for name in [n for n in sys.modules if n == "nsforge" or n.startswith("nsforge.")]:
        del sys.modules[name]
    ns = importlib.import_module("nsforge")
    importlib.import_module("nsforge.jsonio")
    if Path(ns.__file__).resolve().parent != (SRC / "nsforge").resolve():
        raise SystemExit(f"nsforge imported from {ns.__file__}, not from {SRC}")
    return ns


def setup(name, seed, reps):
    """Import, input generation and warm-up, ``reps`` times; the last one is kept.

    The first repetition is timed from process start.  Warm-up runs the
    workload's cheapest operation once.  A kernel sample, untimed, follows
    each repetition; a repetition's speed factor comes from the samples
    before and after it.  Returns the workload, the raw times and the factors.
    """
    times, samples, wl = [], [], None
    for rep in range(reps):
        start = PROCESS_START if rep == 0 else time.perf_counter()
        if wl is not None:
            wl.close()
        wl = WORKLOADS[name](_load_nsforge(), seed)
        _run_op(min(wl.cycles[0], key=lambda op: op.size))
        times.append(time.perf_counter() - start)
        samples.append(speed.kernel_sample())
    factors = [speed.KERNEL_REFERENCE_MS / statistics.fmean(samples[max(0, r - 1):r + 1])
               for r in range(reps)]
    return wl, times, factors


def _run_op(op):
    try:
        return op.run()
    except Exception as exc:  # an unexpected failure is an error, not a crash
        return Unexpected(exc)


def check(wl, op, out, notes):
    """True when the output passes the oracle; a failure is described in ``notes``."""
    try:
        if wl.check(op, out):
            return True
        detail = out.text if isinstance(out, Unexpected) else repr(out)[:200]
    except Exception as exc:
        detail = f"check raised {type(exc).__name__}: {exc}"
    if len(notes) < 10:
        notes.append(f"{op.label}: {detail}")
    return False


def tail(latencies):
    """The highest percentile with at least ten samples beyond it: (value, percentile)."""
    ordered = sorted(latencies)
    k = max(len(ordered) - 11, 0)
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def peak_rss_mb(name):
    who = resource.RUSAGE_CHILDREN if name == "cli" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def timed_phase(wl, cycles, seconds, notes):
    """Whole cycles, round-robin over the seeded variants, until ``seconds`` of operations.

    The operations' time is counted at the reference speed, so that a drift of
    the machine does not change the number of cycles, and with it the cost
    level on which the tail percentile falls.

    Each output is checked right after its operation, outside the timed
    span, and then dropped, so the heap does not grow with the run.  A
    speed sample of the workload's probe, untimed, precedes each operation
    and follows the last one.
    Returns (label, seconds) per operation, the speed samples and the number
    of failed operations.
    """
    latencies, samples, busy, failed = [], [], 0.0, 0
    clock = time.perf_counter
    for c in itertools.count():
        for op in cycles[c % len(cycles)]:
            samples.append(wl.speed_sample())
            t0 = clock()
            out = _run_op(op)
            spent = clock() - t0
            latencies.append((op.label, spent))
            busy += spent * wl.reference_ms / samples[-1]
            failed += not check(wl, op, out, notes)
        if busy >= seconds:
            break
    samples.append(wl.speed_sample())
    return latencies, samples, failed


def traced_pass(wl, ops, notes):
    """Passes over ``ops`` untraced, traced, untraced; outputs checked after each.

    The traced pass sits between two untraced ones, so that warm-up and drift
    do not masquerade as tracing overhead.  Returns the number of failed
    operations and the layer metrics.
    """
    clock, failed, elapsed = time.perf_counter, 0, []
    tracer = tracing.Tracer()
    for traced in (False, True, False):
        if traced:
            tracer.install()
        try:
            spent = 0.0
            for i, op in enumerate(ops):
                tracer.op_id = i
                t0 = clock()
                out = _run_op(op)
                spent += clock() - t0
                failed += not check(wl, op, out, notes)
        finally:
            tracer.restore()
        elapsed.append(spent)
    stats, search = tracer.summary()
    untraced = (elapsed[0] + elapsed[2]) / 2
    return failed, layer_metrics(stats, search, len(ops), untraced, elapsed[1])


def layer_metrics(stats, search, n_ops, untraced, traced):
    """Per-function stats flattened to ``<module>.<function>.<stat>``, plus derived metrics."""
    out = {f"{name}.{stat}": value for name, entry in stats.items() for stat, value in entry.items()}
    for module in ("intlinalg", "jsonio"):
        parts = [entry for name, entry in stats.items() if name.startswith(module + ".")]
        out[f"{module}.calls"] = sum(entry["calls"] for entry in parts)
        out[f"{module}.self_ms"] = sum(entry["self_ms"] for entry in parts)
    candidates, hits = search["candidates"], search["hits"]
    out.update({
        "certify.profiles_per_op": stats["exterior.intersection_profile"]["calls"] / n_ops,
        "search.candidates": candidates,
        "search.hits": hits,
        "search.useful_ratio": hits / candidates if candidates else 0.0,
        "trace.overhead_ratio": traced / untraced,
    })
    for code in ("ProfileFail", "NotIdempotent", "TraceMismatch", "RankMismatch"):
        out[f"search.rejects.{code}"] = search["rejects"].get(code, 0)
    return out


def cli_layers(wl, ops, passes):
    """Process-level timings of the cli workload, outside any trace."""
    clock = time.perf_counter
    per_command, inproc = {}, []
    for _ in range(passes):
        for op in ops:
            t0 = clock()
            _run_op(op)
            per_command.setdefault(op.label, []).append(clock() - t0)
            t0 = clock()
            wl.inprocess(op.expect)
            inproc.append(clock() - t0)
    probe = ("import json,time;t=time.perf_counter();import nsforge;"
             "print(json.dumps([time.perf_counter()-t, nsforge.__file__]))")
    interp, imports = [], []
    for _ in range(SETUP_REPS):
        interp.append(speed.interpreter_sample(wl.env))
        proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, check=True,
                              env=wl.env, text=True, timeout=60)
        seconds, where = json.loads(proc.stdout)
        if Path(where).resolve().parent != (SRC / "nsforge").resolve():
            raise SystemExit(f"child imported nsforge from {where}")
        imports.append(seconds)
    out = {"cli.interpreter_ms": statistics.median(interp),
           "cli.import_ms": 1000 * statistics.median(imports),
           "cli.inproc_ms": 1000 * statistics.median(inproc)}
    for label, values in per_command.items():
        out[f"cli.{label}.p50_ms"] = 1000 * statistics.median(values)
    return out


def _git_commit():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _bytecode_state():
    cache = SRC / "nsforge" / "__pycache__"
    tag = sys.implementation.cache_tag
    modules = [p.stem for p in (SRC / "nsforge").glob("*.py")]
    cached = [m for m in modules if (cache / f"{m}.{tag}.pyc").exists()]
    state = "warm" if len(cached) == len(modules) else "cold" if not cached else "partial"
    return {"state": state, "cached_modules": len(cached), "modules": len(modules),
            "writes_bytecode": not sys.dont_write_bytecode}


def metadata(seed):
    return {"seed": seed, "commit": _git_commit(), "python": platform.python_version(),
            "nproc": os.cpu_count(), "loadavg_1m_before": os.getloadavg()[0],
            "bytecode_cache": _bytecode_state()}


def run(name, seed, seconds, trace, smoke=False):
    """Run one workload; returns (result line dict, report dict)."""
    meta = metadata(seed)
    # every run, CLI children included, imports from a warm bytecode cache
    compileall.compile_dir(str(SRC / "nsforge"), quiet=1)
    wl, setup_times, setup_factors = setup(name, seed, 1 if smoke else SETUP_REPS)
    # set-up's objects leave the collector's young generations, so that
    # collections during the operations traverse the program's objects only
    gc.collect()
    gc.freeze()
    notes = []
    try:
        report = {"workload": name, "meta": meta}
        if trace:
            ops = wl.smoke_ops if smoke else [op for cycle in wl.cycles[:TRACE_CYCLES] for op in cycle]
            failed, layers = traced_pass(wl, [wl.traceable(op) for op in ops], notes)
            if name == "cli":
                layers.update(cli_layers(wl, ops, passes=1 if smoke else 3))
            attempted = 3 * len(ops)
            metrics = {k: {"value": layers[k], "unit": u} for k, u in declared("per_layer").items()}
            report["per_layer"] = layers
        else:
            cycles = [wl.smoke_ops] if smoke else wl.cycles
            latencies, samples, failed = timed_phase(wl, cycles, 0 if smoke else seconds, notes)
            attempted = len(latencies)
            raw = [t for _, t in latencies]
            times = [t * f for t, f in zip(raw, speed.factors(samples, wl.reference_ms))]
            tail_value, tail_pct = tail(times)
            values = {
                "setup_s": statistics.median(t * f for t, f in zip(setup_times, setup_factors)),
                "ops_per_s": attempted / sum(times),
                "op_p50_ms": 1000 * statistics.median(times),
                "op_tail_ms": 1000 * tail_value,
                "peak_rss_mb": peak_rss_mb(name),
            }
            metrics = {k: {"value": values[k], "unit": u} for k, u in declared("end_to_end").items()}
            by_kind = {}
            for (label, _), t in zip(latencies, times):
                by_kind.setdefault(label, []).append(1000 * t)
            report.update(samples=attempted, tail_percentile=tail_pct, timed_s=sum(raw),
                          setup_runs_s=setup_times, setup_factors=setup_factors,
                          speed_samples_ms={"median": statistics.median(samples),
                                            "min": min(samples), "max": max(samples),
                                            "reference": wl.reference_ms},
                          unscaled={"setup_s": statistics.median(setup_times),
                                    "ops_per_s": attempted / sum(raw),
                                    "op_p50_ms": 1000 * statistics.median(raw),
                                    "op_tail_ms": 1000 * tail(raw)[0]},
                          op_p50_ms_by_kind={k: statistics.median(v) for k, v in by_kind.items()})
        run_failures = wl.run_checks()
    finally:
        wl.close()
    meta["loadavg_1m_after"] = os.getloadavg()[0]
    report.update(error_ratio={"value": failed / attempted, "unit": "fraction"},
                  failures=notes + run_failures)
    line = {"correct": failed == 0 and not run_failures, "attempted": attempted,
            "failed": failed + len(run_failures), "metrics": metrics}
    return line, report


def smoke():
    """A tiny slice of every workload, traced and untraced; asserts the metric contract."""
    problems = []
    for name in ("certify", "construct", "search", "cli"):
        for trace, units in ((0, declared("end_to_end")), (1, declared("per_layer"))):
            line, report = run(name, 1, 0, trace, smoke=True)
            got = {k: v["unit"] for k, v in line["metrics"].items()}
            if got != units:
                problems.append(f"{name} trace={trace}: metrics {sorted(got)} != {sorted(units)}")
            if report["error_ratio"]["value"] != 0 or not line["correct"]:
                problems.append(f"{name} trace={trace}: errors {report['failures']}")
            print(f"smoke {name} trace={trace}: {line['attempted']} ops, "
                  f"error_ratio {report['error_ratio']['value']}")
    for p in problems:
        print("SMOKE FAIL", p)
    return 1 if problems else 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=["certify", "construct", "search", "cli"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny run of every workload")
    args = parser.parse_args(argv)
    if not (SRC / "nsforge" / "__init__.py").is_file():
        print(f"perfbench: no nsforge sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required")
    line, report = run(args.workload, args.seed, args.seconds, args.trace)
    for key, metric in line["metrics"].items():
        print(f"{args.workload} {key} {metric['value']:.6g} {metric['unit']}")
    print(f"{args.workload} error_ratio {report['error_ratio']['value']:.6g} fraction")
    print("report " + json.dumps(report, sort_keys=True))
    print(json.dumps(line, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
