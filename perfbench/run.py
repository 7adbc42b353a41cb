"""timefringe benchmark: closed-loop CLI workloads, end to end and per layer.

One client calls ``timefringe.cli.main(argv)`` in this process, op after op,
over whole passes of a deck of ops drawn from ``--seed``, for at least
``--seconds``. Every op's output is checked (see workloads.py).

    python3 perfbench/run.py --workload desk_simulate --seed 1 --seconds 35 --trace 0

With ``--trace 0`` the run reports the end-to-end metrics; with ``--trace 1``
each op runs twice, untraced and traced (tracing.py), and the run reports
per-layer metrics and the tracing overhead. Without ``--workload`` it prints
run metadata and the min-of-N baseline table, then runs every workload both
ways, each in a fresh process. The last line of a workload run is a JSON
object; the exit code is non-zero when any output check failed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

# One BLAS thread, set before numpy loads and inherited by child processes:
# eps_scan already runs nproc worker threads, and more threads than cores
# measure the scheduler of a shared host rather than the program.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

COLD_STARTS = 9
# Runs one cli call in a fresh interpreter; prints exit code and the seconds
# spent importing timefringe plus the call.
COLD_CHILD = """\
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
from timefringe import cli
rc = cli.main(sys.argv[2:])
print(rc, time.perf_counter() - t0)
"""

END_TO_END = {"ops_per_s": "1/s", "op_ms.p50": "ms", "op_ms.p90": "ms",
              "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "propagation.grid.calls": "1/op",
    "propagation.grid.self_ms": "ms/op",
    "propagation.propagate.calls": "1/op",
    "propagation.propagate.self_ms": "ms/op",
    "propagation.propagate.cells": "1/op",
    "propagation.propagate.useful_ratio": "ratio",
    "propagation.component.calls": "1/op",
    "propagation.component.self_ms": "ms/op",
    "experiments.two_gate.calls": "1/op",
    "experiments.two_gate.self_ms": "ms/op",
    "experiments.fringes.calls": "1/op",
    "experiments.fringes.self_ms": "ms/op",
    "experiments.fringes.nofringes": "1/op",
    "experiments.scan.self_ms": "ms/op",
    "experiments.scan.rows": "1/op",
    "experiments.scan.row_errors": "1/op",
    "experiments.scan.busy_ratio": "ratio",
    "svgplot.line_chart.self_ms": "ms/op",
    "cli.self_ms": "ms/op",
    "cli.bytes_written": "B/op",
    "trace.overhead": "ratio",
    "trace.self_sum_ratio": "ratio",
}


def fresh_cli(argv, timeout=170.0):
    """Run one cli call in a new interpreter: (exit code, seconds, stderr)."""
    proc = subprocess.run([sys.executable, "-c", COLD_CHILD, str(SRC), *argv],
                          cwd=ROOT, capture_output=True, text=True,
                          timeout=timeout)
    if proc.returncode != 0:
        return f"interpreter exit {proc.returncode}", float("nan"), proc.stderr
    rc, seconds = proc.stdout.strip().splitlines()[-1].split()
    return int(rc), float(seconds), proc.stderr


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def blas_info() -> tuple:
    import ctypes
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    name = f"{blas.get('name')} {blas.get('version')}"
    with open("/proc/self/maps") as fh:
        libs = {ln.split()[-1] for ln in fh if "blas" in ln.lower()}
    for lib in sorted(libs):
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(lib), sym, None)
            if fn is not None:
                return name, fn()
    return name, "unknown"


def metadata(seed) -> dict:
    import numpy as np
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                    capture_output=True, text=True,
                                    timeout=10).stdout.strip() or commit
        except OSError:
            pass
    blas, threads = blas_info()
    return {"nproc": nproc(), "python": platform.python_version(),
            "numpy": np.__version__, "blas": blas, "blas_threads": threads,
            "commit": commit, "seed": seed}


def probes(work: Path) -> list:
    """Known defects, reproduced untimed in fresh processes; not fixed here.
    Each gives (name, expected, actual, still reproduced)."""
    from workloads import fringe_period, read_report, write_scenario
    found = []
    rect = write_scenario(work / "probe_rect.json", 12.0, 2.0, "rectangular")
    rc, _, err = fresh_cli(["simulate", "--theory", "stueckelberg", "--engine",
                            "quadrature", "--scenario", rect,
                            "--out", str(work / "probe_rect")])
    found.append(("rect_quadrature_stueckelberg",
                  "exit 0: quadrature handles rectangular gates",
                  f"exit {rc}: {err.strip()}",
                  rc == 4 and "Gaussian gates only" in err))
    for name, eps, expected in (
            ("eps192_no_overlap", 192.0,
             "exit 4: no interference, so no fringes reported"),
            ("eps96_nt_cap", 96.0,
             "exit 3, or >= 8 time samples per predicted fringe")):
        out = work / f"probe_{name}"
        args = ["simulate", "--theory", "stueckelberg", "--scenario",
                write_scenario(work / f"{name}.json", eps, 2.0), "--out", str(out)]
        rc, _, err = fresh_cli(args)
        if rc != 0:
            found.append((name, expected, f"exit {rc}: {err.strip()}", False))
            continue
        rep = read_report(out)
        want = fringe_period(eps, 2.0)
        spacing = (rep["fringes"] or {}).get("spacing_T")
        with open(out / "trace.csv") as fh:
            next(fh)
            t = [float(ln.split(",")[0]) for ln in fh]
        per_fringe = want / (t[1] - t[0])
        actual = (f"exit 0: spacing_T={spacing} vs law {want:.6g}, "
                  f"interference visibility "
                  f"{rep['interference_visibility']:.3g}, "
                  f"{per_fringe:.3g} samples per fringe")
        bad = (spacing is not None and abs(spacing - want) / want > 0.1
               if name == "eps192_no_overlap" else per_fringe < 8)
        found.append((name, expected, actual, bad))
    return found


def peak_rss_mb() -> float:
    """Peak resident set of this process image. ru_maxrss would also count
    the parent's peak, which Linux carries across fork and exec."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise OSError("no VmHWM in /proc/self/status")


def percentile(values, q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def dir_bytes(path: Path) -> int:
    return sum(f.stat().st_size for f in path.iterdir() if f.is_file())


def source_dir(base: Path, op, suffix: str = ""):
    return None if op.source is None else base / f"{op.source}{suffix}"


def passes(seconds: float):
    """Yield pass numbers for whole passes over a deck, so that every run
    measures the deck's exact op mix; another pass starts while it is
    expected to end no later than half a pass past `seconds`."""
    t0 = perf_counter()
    n = 0
    while n == 0 or (perf_counter() - t0) * (1 + 0.5 / n) < seconds:
        yield n
        n += 1


def run_untraced(deck, base: Path, seconds: float, log) -> tuple:
    """Op latencies, outcome counts and wall time of the closed loop."""
    from workloads import check, run_op
    lat, status = [], Counter()
    t0 = perf_counter()
    for _ in passes(seconds):
        for i, op in enumerate(deck):
            out, src = base / str(i), source_dir(base, op)
            rc, dt = run_op(op, out, src)
            state, why = check(op, rc, out, src)
            lat.append(dt)
            status[state] += 1
            if why:
                log(f"{state}: op {i}: {why}")
    return lat, status, perf_counter() - t0


def run_traced(deck, base: Path, seconds: float, log) -> tuple:
    """Each op runs untraced and traced (the order alternating), into separate
    directories whose data files must match byte for byte."""
    from tracing import Tracer
    from workloads import check, run_op, same_data
    tracer = Tracer()
    status = Counter()
    plain_s = traced_s = 0.0
    pairs = written = 0
    for _ in passes(seconds):
        for i, op in enumerate(deck):
            order = (False, True) if pairs % 2 == 0 else (True, False)
            for traced in order:
                suffix = "t" if traced else ""
                out, src = base / f"{i}{suffix}", source_dir(base, op, suffix)
                span = tracer.op(pairs) if traced else None
                rc, dt = run_op(op, out, src, span)
                if traced:
                    traced_s += dt
                    written += dir_bytes(out)
                else:
                    plain_s += dt
                state, why = check(op, rc, out, src)
                status[state] += 1
                if why:
                    log(f"{state}: op {i}{suffix}: {why}")
            if not same_data(base / str(i), base / f"{i}t"):
                status["wrong"] += 1
                log(f"wrong: op {i}: traced output differs from untraced")
            pairs += 1
    tracer.write(base.parent / "spans.csv")
    return tracer.spans, pairs, plain_s, traced_s, written, status


def layer_metrics(spans, pairs, plain_s, traced_s, written) -> dict:
    from tracing import layer_totals
    tot = layer_totals(spans)
    cells = tot["propagation.propagate.cells"]
    capacity = tot["experiments.scan.capacity_s"]
    derived = {
        "propagation.propagate.useful_ratio":
            tot["propagation.propagate.kept"] / cells if cells else 0.0,
        "experiments.scan.busy_ratio":
            tot["experiments.scan.busy_s"] / capacity if capacity else 0.0,
        "cli.bytes_written": written / pairs,
        "trace.overhead": plain_s / traced_s,
        "trace.self_sum_ratio": sum(
            v for k, v in tot.items() if k.endswith(".self_s")) / plain_s,
    }
    m = {}
    for name in PER_LAYER:
        layer, what = name.rsplit(".", 1)
        if name in derived:
            m[name] = derived[name]
        elif what == "self_ms":
            m[name] = 1e3 * tot[f"{layer}.self_s"] / pairs
        else:
            m[name] = tot[name] / pairs
    return m


def end_to_end(deck, cold, base: Path, seconds: float, log) -> tuple:
    """Set-up time over cold starts, then the untraced closed loop."""
    from workloads import check, run_op
    setups = []
    for k in range(COLD_STARTS):
        out = base / f"cold{k}"
        rc, setup_s, _ = fresh_cli([*cold.args, "--out", str(out)])
        state, why = check(cold, rc, out)
        if why:
            log(f"{state}: cold start {k}: {why}")
        setups.append(setup_s)
    # warm-up: lazy set-up in numpy and the package ends before timing
    run_op(cold, base / "warm")
    lat, status, wall = run_untraced(deck, base / "ops", seconds, log)
    attempted = len(lat)
    ms = sorted(1e3 * x for x in lat)
    metrics = {
        "ops_per_s": status["ok"] / wall,
        "op_ms.p50": percentile(ms, 50),
        "op_ms.p90": percentile(ms, 90),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak_rss_mb(),
    }
    beyond = sum(x > metrics["op_ms.p90"] for x in ms)
    counts = {
        "ops_per_s": f"{status['ok']} ok ops in {wall:.3f} s, "
                     f"{attempted // len(deck)} passes of {len(deck)}",
        "op_ms.p50": f"n={attempted}",
        "op_ms.p90": f"n={attempted}, {beyond} beyond",
        "setup_s": f"median of {COLD_STARTS} cold starts: "
                   + " ".join(f"{x:.4f}" for x in setups),
        "peak_rss_mb": "VmHWM of this process",
    }
    print(f"error_rate = {status['error'] / attempted!r} (n={attempted})")
    print(f"wrong_rate = {status['wrong'] / attempted!r} (n={attempted})")
    return metrics, counts, status


def per_layer(deck, base: Path, seconds: float, log) -> tuple:
    spans, pairs, plain_s, traced_s, written, status = run_traced(
        deck, base / "ops", seconds, log)
    metrics = layer_metrics(spans, pairs, plain_s, traced_s, written)
    return metrics, {name: f"{pairs} ops traced" for name in metrics}, status


def run_workload(args) -> int:
    from workloads import WORKLOADS
    build_deck, cold_op = WORKLOADS[args.workload]
    base = OUT / args.workload
    shutil.rmtree(base, ignore_errors=True)
    scen = base / "scenarios"
    scen.mkdir(parents=True)
    (base / "ops").mkdir()
    problems = []

    def log(line):
        problems.append(line)
        print(line)

    print("meta " + json.dumps(metadata(args.seed)))
    for name, expected, actual, known in probes(base):
        print(f"probe.{name} status={'known-defect' if known else 'CHANGED'}"
              f" expected={expected!r} actual={actual!r}")

    deck = build_deck(random.Random(args.seed), scen, nproc())
    if args.trace == 0:
        units = END_TO_END
        metrics, counts, status = end_to_end(
            deck, cold_op(scen, nproc()), base, args.seconds, log)
    else:
        units = PER_LAYER
        metrics, counts, status = per_layer(deck, base, args.seconds, log)
    for name, value in metrics.items():
        print(f"{name} = {value!r} {units[name]} ({counts[name]})")
    correct = not problems
    print(json.dumps({
        "correct": correct, "attempted": sum(status.values()),
        "failed": status["error"] + status["wrong"],
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()}}))
    return 0 if correct else 1


def baseline_table(repeats: int = 3) -> None:
    """ROADMAP's baseline: min-of-N wall time per theory x engine."""
    from timefringe.experiments import (TwoGateConfig, extract_fringes,
                                        two_gate_run)
    cf, quad = TwoGateConfig(), TwoGateConfig(engine="quadrature")
    trace = two_gate_run("stueckelberg", cf).trace
    rows = (
        ("two_gate_run stueckelberg, closed form",
         lambda: two_gate_run("stueckelberg", cf)),
        ("two_gate_run schrodinger_control",
         lambda: two_gate_run("schrodinger_control", cf)),
        ("two_gate_run floquet, closed form",
         lambda: two_gate_run("floquet", cf)),
        ("two_gate_run stueckelberg, quadrature",
         lambda: two_gate_run("stueckelberg", quad)),
        ("two_gate_run floquet, quadrature",
         lambda: two_gate_run("floquet", quad)),
        ("extract_fringes", lambda: extract_fringes(trace)),
    )
    print(f"| run (min of {repeats}) | time |\n|---|---|")
    for name, fn in rows:
        best = float("inf")
        for _ in range(repeats):
            t0 = perf_counter()
            fn()
            best = min(best, perf_counter() - t0)
        print(f"| `{name}` | {1e3 * best:.3f} ms |")


def run_all(args) -> int:
    from workloads import WORKLOADS
    print("meta " + json.dumps(metadata(args.seed)))
    baseline_table()
    ok = True
    for name in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()),
                   "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(trace)]
            print(f"\n== {name} trace={trace}", flush=True)
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True,
                                  text=True, timeout=20 * args.seconds + 600)
            print(proc.stdout + proc.stderr, end="", flush=True)
            ok = ok and proc.returncode == 0
    print("\nall output checks passed" if ok else "\nOUTPUT CHECKS FAILED")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", help="one workload; default: all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "timefringe" / "__init__.py").is_file():
        print(f"timefringe sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS
    if args.workload is None:
        return run_all(args)
    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
