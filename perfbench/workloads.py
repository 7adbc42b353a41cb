"""Workloads of the timefringe benchmark.

A workload is a deck of CLI operations drawn from a seed. One op is one
``timefringe.cli.main(argv)`` call. Every op's output is checked against the
covariant fringe law T = 2 pi hbar L / (p c^2 eps) and the per-theory
visibility criteria, using inputs the benchmark wrote itself rather than
values the program reports.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

from timefringe import cli

STUECKELBERG = "stueckelberg"
FLOQUET = "floquet"
CONTROL = "schrodinger_control"

MOMENTUM = 0.2            # internal units: hbar = M = c = 1
LAW_TOLERANCE = 0.10      # relative, on the fringe spacing
MIN_VISIBILITY = 0.5      # covariant interference visibility
MAX_FLOQUET_VISIBILITY = 1e-10

# Covariant fringes need the two time-spread pulses to overlap; visibility
# falls below 0.5 near eps / L = 23 on the seed (and probe eps192 shows what
# happens far beyond). Drawn gate spacings therefore stay below
# OVERLAP_RATIO * L, well inside the interference regime.
OVERLAP_RATIO = 16.0

DESK_EPS, DESK_L = 12.0, 2.0   # desk-scale values of an axis a deck holds fixed
# Quadrature ops at L in this range take 0.1 to 0.3 s, so that a run holds
# enough of them for p90; at L = 2 they take 0.5 s.
QUADRATURE_L = (2.5, 4.0)
SCAN_PAIRS = 4            # gate-spacing + flight-distance scan pairs per deck
GATE_SCAN_POINTS = 6      # values per gate-spacing scan
FLIGHT_SPLIT = 2.75       # flight-distance scans take one L on each side

# Files whose bytes must not depend on tracing (report.json holds a wall time).
DATA_FILES = ("trace.csv", "trace.svg", "fringes.svg", "scan.csv")


@dataclass(frozen=True)
class Op:
    kind: str                  # "simulate", "fringes" or "scan"
    args: tuple                # cli arguments, without --out and --trace
    theory: str = STUECKELBERG
    points: tuple = ()         # the (eps, L) of each expected result
    source: int | None = None  # deck index of the simulate a fringes op re-reads


def fringe_period(eps: float, L: float) -> float:
    """T = 2 pi hbar L / (p c^2 eps), the paper's covariant fringe period."""
    return 2.0 * math.pi * L / (MOMENTUM * eps)


def spread(rng: random.Random, n: int, lo: float, hi: float) -> list:
    """Both ends of [lo, hi] plus one uniform draw in each of n - 2 equal
    strata between them, shuffled. The ends carry the costliest ops, which
    set peak memory and p90; the strata keep the deck's mean cost nearly
    independent of the seed."""
    inner = [lo + (i + rng.random()) * (hi - lo) / (n - 2)
             for i in range(n - 2)]
    values = [lo, hi, *inner]
    rng.shuffle(values)
    return values


def write_scenario(path: Path, eps: float, L: float,
              profile: str = "gaussian") -> str:
    path.write_text(json.dumps({
        "packet": {"momentum": MOMENTUM, "gate_spacing": eps,
                   "gate_profile": profile},
        "sim": {"flight_distance": L}}))
    return str(path)


def _simulate(path: Path, theory: str, eps: float, L: float,
              engine: str = "closed_form", profile: str = "gaussian") -> Op:
    args = ("simulate", "--theory", theory, "--engine", engine,
            "--scenario", write_scenario(path, eps, L, profile))
    return Op("simulate", args, theory, ((eps, L),))


def _scan(path: Path, param: str, values: list, workers: int) -> Op:
    values = sorted(values)
    points = tuple((v, DESK_L) if param == "gate_spacing" else (DESK_EPS, v)
                   for v in values)
    args = ("scan", "--param", param,
            "--values", ",".join(repr(v) for v in values),
            "--workers", str(workers),
            "--scenario", write_scenario(path, DESK_EPS, DESK_L))
    return Op("scan", args, STUECKELBERG, points)


def desk_deck(rng, scen_dir: Path, workers: int) -> list:
    """Closed-form simulate over the three theories, each followed by
    fringes re-reading the trace.csv it just wrote."""
    per_theory = 16
    theories = (STUECKELBERG, FLOQUET, CONTROL)
    draws = {th: (spread(rng, per_theory, 1.5, 4.0),
                  spread(rng, per_theory, 0.0, 1.0)) for th in theories}
    ops = []
    for i in range(per_theory):
        for th in theories:
            L = draws[th][0][i]
            eps = 8.0 + draws[th][1][i] * (min(48.0, OVERLAP_RATIO * L) - 8.0)
            ops.append(_simulate(scen_dir / f"{len(ops)}.json", th, eps, L))
            ops.append(Op("fringes", ("fringes",), th, source=len(ops) - 1))
    return ops


def quadrature_deck(rng, scen_dir: Path, workers: int) -> list:
    """Floquet simulate by quadrature with Gaussian gates at 8 seeded eps,
    every other one also with rectangular (Moshinsky-type) gates, each op at
    its own seeded L in QUADRATURE_L.

    An op's cost hardly depends on eps or the gate profile, but falls by
    more than half from L = 2.5 to L = 4. Spreading L spreads the latencies
    smoothly, so that p50 follows the machine's speed as evenly as the mean
    does, instead of jumping between a fast and a slow spell when every op
    costs the same. Covariant quadrature is left out: at 2.5 s an op, with
    its BLAS matmul on both cores, its time swung by 30% from run to run on
    a shared 2-core machine."""
    ops = []
    for i, eps in enumerate(spread(rng, 8, 8.0, 24.0)):
        for profile in ("gaussian", "rectangular")[:2 - i % 2]:
            ops.append((eps, profile))
    flights = spread(rng, len(ops), *QUADRATURE_L)
    return [_simulate(scen_dir / f"{k}.json", FLOQUET, eps, L, "quadrature",
                      profile)
            for k, ((eps, profile), L) in enumerate(zip(ops, flights))]


def scan_deck(rng, scen_dir: Path, workers: int) -> list:
    """Gate-spacing scans over GATE_SCAN_POINTS seeded values through the
    thread pool, alternating with flight-distance scans over one seeded L
    below FLIGHT_SPLIT and one above it.

    A gate-spacing point costs the same at any eps, while a flight-distance
    point costs twice as much and more at short L. The point counts and the
    split put both kinds' latencies around one mode, so that p50 does not
    sit on a gap between kinds, and the stratified draws keep the deck's
    costs nearly independent of the seed."""
    near = spread(rng, SCAN_PAIRS, 1.5, FLIGHT_SPLIT)
    far = spread(rng, SCAN_PAIRS, FLIGHT_SPLIT, 4.0)
    ops = []
    for i in range(SCAN_PAIRS):
        ops.append(_scan(scen_dir / f"{i}e.json", "gate_spacing",
                         spread(rng, GATE_SCAN_POINTS, 8.0,
                                OVERLAP_RATIO * DESK_L), workers))
        ops.append(_scan(scen_dir / f"{i}L.json", "flight_distance",
                         [near[i], far[i]], workers))
    return ops


def _cold_desk(scen_dir, workers):
    return _simulate(scen_dir / "cold.json", STUECKELBERG, DESK_EPS, DESK_L)


def _cold_quadrature(scen_dir, workers):
    return _simulate(scen_dir / "cold.json", FLOQUET, 16.0, 3.0, "quadrature")


def _cold_scan(scen_dir, workers):
    return _scan(scen_dir / "cold.json", "gate_spacing",
                 [8.0, 16.0, 24.0, 32.0], workers)


# name -> (deck builder, the fixed op a cold process runs for setup_s)
WORKLOADS = {
    "desk_simulate": (desk_deck, _cold_desk),
    "quadrature_simulate": (quadrature_deck, _cold_quadrature),
    "eps_scan": (scan_deck, _cold_scan),
}


def argv(op: Op, out: Path, source_out: Path | None = None) -> list:
    extra = (["--trace", str(source_out / "trace.csv")]
             if op.kind == "fringes" else [])
    return [*op.args, *extra, "--out", str(out)]


def run_op(op: Op, out: Path, source_out: Path | None = None,
           span=None):
    """Run one op in this process; return (exit code or exception text,
    seconds). The span context, if any, encloses exactly the cli call."""
    args = argv(op, out, source_out)
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        t0 = perf_counter()
        try:
            with span or contextlib.nullcontext():
                rc = cli.main(args)
        except (Exception, SystemExit) as exc:  # a crash is an op error
            rc = f"{type(exc).__name__}: {exc}"
        return rc, perf_counter() - t0


def _law_error(spacing, eps: float, L: float) -> str | None:
    if spacing is None:
        return f"no fringe spacing at eps={eps:.6g} L={L:.6g}"
    want = fringe_period(eps, L)
    rel = abs(spacing - want) / want
    if rel > LAW_TOLERANCE:
        return (f"spacing {spacing:.6g} vs law {want:.6g} "
                f"({rel:.1%}) at eps={eps:.6g} L={L:.6g}")
    return None


def read_report(out: Path) -> dict:
    return json.loads((out / "report.json").read_text())


def check(op: Op, rc, out: Path, source_out: Path | None = None):
    """Classify an op as ("ok", None), ("error", why) or ("wrong", why)."""
    if rc != 0:
        return "error", f"exit {rc}"
    try:
        rep = read_report(out)
        why = _check_report(op, rep, source_out)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        why = f"unreadable output: {type(exc).__name__}: {exc}"
    return ("ok", None) if why is None else ("wrong", why)


def _check_report(op: Op, rep: dict, source_out: Path | None):
    if op.kind == "fringes":
        fr = read_report(source_out)["fringes"]
        if fr is None:
            return None if rep.get("no_fringes") else "fringes found, simulate found none"
        if rep.get("spacing_T") != fr["spacing_T"]:
            return (f"re-analysis spacing {rep.get('spacing_T')!r} != "
                    f"simulate spacing {fr['spacing_T']!r}")
        return None
    if op.kind == "scan":
        rows = rep["rows"]
        if len(rows) != len(op.points):
            return f"{len(rows)} scan rows for {len(op.points)} values"
        for row, (eps, L) in zip(rows, op.points):
            why = _law_error(row["spacing_T"], eps, L)
            if why:
                return why
        return None
    vis = rep["interference_visibility"]
    if rep["theory"] != op.theory:
        return f"ran {rep['theory']}, asked for {op.theory}"
    if op.theory == STUECKELBERG:
        if vis < MIN_VISIBILITY:
            return f"interference visibility {vis:.3g} < {MIN_VISIBILITY}"
        eps, L = op.points[0]
        return _law_error((rep["fringes"] or {}).get("spacing_T"), eps, L)
    if op.theory == FLOQUET:
        return (None if vis <= MAX_FLOQUET_VISIBILITY
                else f"Floquet interference visibility {vis:.3g}")
    return None if vis == 0.0 else f"control visibility {vis!r} != 0"


def same_data(out_a: Path, out_b: Path) -> bool:
    """True when two runs of one op wrote byte-identical data files."""
    for name in DATA_FILES:
        a, b = out_a / name, out_b / name
        if a.exists() != b.exists() or (a.exists()
                                        and a.read_bytes() != b.read_bytes()):
            return False
    return True
