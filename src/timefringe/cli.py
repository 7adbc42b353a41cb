"""Command-line entry points: estimate, simulate, scan, fringes.

All data files are CSV with a header row naming columns and units; figures
are self-contained SVG carrying the scenario hash. Exit codes: 0 success,
2 configuration, 3 resolution, 4 domain, 5 I/O.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import json
import math
import os
import stat
import sys
import time
import warnings
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from . import __version__
from .errors import (ConfigError, DomainError, IoError, NoFringes,
                     ResolutionError)
from .estimates import compare_estimates
from .experiments import (SCAN_PARAMS, THRESHOLD_FRACTION, IntensityTrace,
                          extract_fringes, outcome_fringes, two_gate_run,
                          visibility_scan)
from .propagation import ENGINES, SCHRODINGER, STUECKELBERG, THEORIES
from .scenario import Scenario, parse_scenario
from .svgplot import line_chart

# CPython's built-in SHA-256, as random.py takes its SHA-512: hashlib maps
# OpenSSL's libcrypto, 3.4 MB resident and 3 ms of import, for one digest
try:
    from _sha2 import sha256  # Python 3.12 on
except ImportError:
    try:
        from _sha256 import sha256
    except ImportError:
        from hashlib import sha256

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RESOLUTION = 3
EXIT_DOMAIN = 4
EXIT_IO = 5

_G = "{:.17g}".format

_SCAN_HEADERS = {"gate_spacing": "gate_spacing epsilon (internal time)",
                 "flight_distance": "flight_distance L (internal length)"}


def _scenario_hash(echo: dict) -> str:
    """The hash of a scenario echo, Scenario.to_dict(): that of to_json()."""
    return sha256(json.dumps(echo, indent=2, sort_keys=True)
                  .encode()).hexdigest()[:16]


def _load_scenario(args) -> Scenario:
    scenario = (parse_scenario(args.scenario) if args.scenario
                else Scenario())
    if getattr(args, "engine", None):
        scenario = replace(scenario, engine=args.engine)
    if getattr(args, "theory", None):
        scenario = replace(scenario, theory=args.theory)
    return scenario


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


@contextlib.contextmanager
def _rewrite(path: Path, newline: str | None = None):
    """A text file that writes path in place, then cuts a regular file that
    was longer to the written length. An existing file keeps its inode and
    mode. Opened without O_TRUNC, a rewritten file starts no writeback when
    it closes, as ext4 (auto_da_alloc) does for a truncated one; that
    writeback costs several times the write. A file that needs no cut gets
    no truncate call, which on ext4 is a journal transaction."""
    with os.fdopen(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "w",
                   newline=newline) as fh:
        yield fh
        st = os.fstat(fh.fileno())  # /dev/null has no length to cut
        if stat.S_ISREG(st.st_mode) and st.st_size > fh.tell():
            fh.truncate()


def _write_report(out: Path, report: dict) -> None:
    with _rewrite(out / "report.json") as fh:
        fh.write(json.dumps(report, indent=2, sort_keys=True) + "\n")


def _write_trace_csv(path: Path, trace: IntensityTrace) -> None:
    pairs = np.column_stack((trace.times, trace.intensity)).ravel().tolist()
    with _rewrite(path, newline="") as fh:
        fh.write('t (internal time),"intensity (internal, |psi|^2)"\r\n')
        fh.write(("%.17g,%.17g\r\n" * len(trace.times)) % tuple(pairs))


def cmd_estimate(args) -> int:
    scenario = _load_scenario(args)
    t0 = time.perf_counter()
    result = compare_estimates(scenario.physical_setup())
    crude, covariant = result["crude"], result["covariant"]

    rows = [
        ("photon energy (eV)", covariant.inputs_echo["photon_energy_ev"]),
        ("kinetic energy (eV)", covariant.inputs_echo["kinetic_energy_ev"]),
        ("derived cp (eV)", covariant.inputs_echo["cp_ev"]),
        ("quoted cp (eV)", result["quoted_cp_ev"]),
        ("covariant eps*T (s^2)", covariant.epsilon_T_product),
        ("covariant T for eps=T (s)", covariant.equal_spacing_T),
        ("covariant eps*T from quoted cp (s^2)",
         result["covariant_product_from_quoted_cp"]),
        ("crude eps*T (s^2)", crude.epsilon_T_product),
        ("crude T for eps=T (s)", crude.equal_spacing_T),
        ("ratio crude/covariant", result["ratio"]),
    ]
    width = max(len(r[0]) for r in rows)
    for name, value in rows:
        print(f"{name:<{width}}  {value:.6g}")

    out = _out_dir(args)
    with _rewrite(out / "estimate.csv", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["quantity (units in name)", "value"])
        for name, value in rows:
            w.writerow([name, _G(value)])
    echo = scenario.to_dict()
    _write_report(out, {
        "command": "estimate",
        "scenario": echo,
        "scenario_hash": _scenario_hash(echo),
        "crude": asdict(crude),
        "covariant": asdict(covariant),
        "ratio": result["ratio"],
        "quoted_cp_ev": result["quoted_cp_ev"],
        "covariant_product_from_quoted_cp": result["covariant_product_from_quoted_cp"],
        "wall_time_s": time.perf_counter() - t0,
    })
    return EXIT_OK


def cmd_simulate(args) -> int:
    scenario = _load_scenario(args)
    cfg = scenario.two_gate_config()
    t0 = time.perf_counter()
    outcome = two_gate_run(scenario.theory, cfg)

    fringes = None
    fringe_error = None
    try:
        fringes = outcome_fringes(outcome,
                                  scenario.analysis["threshold_fraction"])
    except NoFringes as exc:
        fringe_error = str(exc)
        if scenario.theory == STUECKELBERG:
            print(f"error: expected fringes but found none: {exc}",
                  file=sys.stderr)
            return EXIT_DOMAIN

    out = _out_dir(args)
    _write_trace_csv(out / "trace.csv", outcome.trace)
    echo = scenario.to_dict()
    shash = _scenario_hash(echo)
    with _rewrite(out / "trace.svg") as fh:
        fh.write(line_chart(
            outcome.trace.times, outcome.trace.intensity,
            peaks=fringes.peak_times if fringes else None,
            title=f"{scenario.theory} two-gate intensity at detector",
            xlabel="t (internal time)", ylabel="intensity",
            meta=f"scenario-sha256:{shash}"))
    times = outcome.trace.times
    dt = (times[-1] - times[0]) / (len(times) - 1)
    report = {
        "command": "simulate",
        "scenario": echo,
        "scenario_hash": shash,
        "theory": scenario.theory,
        "engine": outcome.engine,
        "s_elapsed": outcome.s_elapsed,
        "detector_x": outcome.trace.detector_x,
        "interference_visibility": outcome.interference_visibility,
        "norm_drift": outcome.norm_drift,
        "predicted_spacing_T": outcome.predicted_spacing,
        "time_grid": {
            "n_t": len(times),
            "t_min": float(times[0]),
            "t_max": float(times[-1]),
            "samples_per_fringe": (None if outcome.predicted_spacing is None
                                   else outcome.predicted_spacing / dt),
        },
        "fringes": None if fringes is None else {
            "peak_times": fringes.peak_times,
            "spacing_T": fringes.spacing_T,
            "visibility": fringes.visibility,
            "relative_error": fringes.relative_error,
        },
        "no_fringes": fringe_error,
        "no_fringes_expected": scenario.theory == SCHRODINGER,
        "wall_time_s": time.perf_counter() - t0,
    }
    _write_report(out, report)
    vis = outcome.interference_visibility
    spacing = fringes.spacing_T if fringes else None
    print(f"theory={scenario.theory} visibility={vis:.6g} "
          f"spacing_T={'n/a' if spacing is None else f'{spacing:.6g}'} "
          f"norm_drift={outcome.norm_drift:.3g}")
    return EXIT_OK


def cmd_scan(args) -> int:
    scenario = _load_scenario(args)
    cfg = scenario.two_gate_config()
    try:
        values = [float(v) for v in args.values.split(",") if v.strip()]
    except ValueError as exc:
        raise ConfigError(f"--values must be comma-separated numbers: {exc}")
    if len(values) < 2:
        raise ConfigError("--values needs at least 2 entries")
    if not all(math.isfinite(v) for v in values):
        raise ConfigError("--values must be finite numbers")
    t0 = time.perf_counter()
    rows = visibility_scan(scenario.theory, cfg, values,
                           scenario.analysis["threshold_fraction"],
                           param=args.param)

    out = _out_dir(args)
    with _rewrite(out / "scan.csv", newline="") as fh:
        w = csv.writer(fh)
        w.writerow([_SCAN_HEADERS[args.param],
                    "interference visibility (dimensionless)",
                    "spacing_T (internal time)", "error"])
        for row in rows:
            w.writerow([_G(row.value), _G(row.visibility),
                        "" if row.spacing_T is None else _G(row.spacing_T),
                        row.error or ""])
    echo = scenario.to_dict()
    _write_report(out, {
        "command": "scan",
        "scenario": echo,
        "scenario_hash": _scenario_hash(echo),
        "param": args.param,
        "values": values,
        "rows": [{"param": r.value, "visibility": r.visibility,
                  "spacing_T": r.spacing_T, "error": r.error}
                 for r in rows],
        "wall_time_s": time.perf_counter() - t0,
    })
    for row in rows:
        spacing = "n/a" if row.spacing_T is None else f"{row.spacing_T:.6g}"
        print(f"{args.param}={row.value:g} visibility={row.visibility:.6g} "
              f"spacing_T={spacing}" + (f" error={row.error}" if row.error else ""))
    return EXIT_OK


def _read_trace_csv(path: Path) -> tuple:
    """(times, intensity) from one np.loadtxt pass over the lines after the
    header; names the first bad line, data line k being file line k + 2."""
    def bad(line: int, what: str) -> ConfigError:
        return ConfigError(f"trace CSV line {line}: {what}")
    try:
        with open(path, encoding="utf-8") as fh:  # \r\n and \r read as \n
            text = fh.read()
    except UnicodeDecodeError as exc:  # exc.object holds the whole file
        raise bad(len(exc.object[:exc.start + 1].splitlines()),
                  f"not UTF-8 text ({exc.reason})") from exc
    if not text:
        raise ConfigError("trace CSV is empty")
    lines = text.split("\n")[1:]
    if lines[-1:] == [""]:
        lines.pop()  # the last line's line break
    # np.loadtxt would skip a blank line, so the rows end before the first
    end = lines.index("") if "" in lines else len(lines)
    load = functools.partial(np.loadtxt, delimiter=",", usecols=(0, 1),
                             ndmin=2, quotechar='"', comments=None)
    try:
        pairs = load(lines[:end]) if end else np.empty((0, 2))
    except ValueError:  # bisect: lines[:lo] load and lines[:end] do not
        lo, pairs = 0, np.empty((0, 2))
        while end - lo > 1:
            mid = (lo + end) // 2
            try:
                pairs, lo = load(lines[:mid]), mid
            except ValueError:
                end = mid
        end = lo

    def cells(k: int) -> list:  # data line k as the csv module splits it
        return next(csv.reader([lines[k]]))
    times, intensity = pairs.T.copy()
    ok = np.isfinite(times) & np.isfinite(intensity) & (intensity >= 0)
    ok[1:] &= times[1:] > times[:-1]
    if not ok.all():
        k = int(ok.argmin())
        t, i = float(times[k]), float(intensity[k])
        if not (math.isfinite(t) and math.isfinite(i)):
            raise bad(k + 2, f"expected two finite numbers, got {cells(k)!r}")
        if k and t <= times[k - 1]:
            raise bad(k + 2, f"time {t!r} does not come after "
                      f"{float(times[k - 1])!r}")
        raise bad(k + 2, f"intensity {i!r} is negative")
    if end < len(lines):
        raise bad(end + 2, f"expected two numbers, got {cells(end)!r}")
    return times, intensity


def cmd_fringes(args) -> int:
    if not 0.0 < args.threshold < 1.0:
        raise ConfigError(
            f"--threshold must be in (0, 1), got {args.threshold}")
    path = Path(args.trace)
    if not path.exists():
        raise IoError(f"trace file not found: {path}")
    times, intensity = _read_trace_csv(path)
    if len(times) == 0:
        raise ConfigError("trace CSV has no data rows")
    trace = IntensityTrace(times=times, intensity=intensity,
                           detector_x=float("nan"), theory="reanalysis")
    out = _out_dir(args)
    try:
        fr = extract_fringes(trace, args.threshold)
    except NoFringes as exc:
        fr, found = None, {"no_fringes": str(exc)}
        line = f"no fringes: {exc}"
    else:
        found = {"peak_times": fr.peak_times, "spacing_T": fr.spacing_T,
                 "visibility": fr.visibility}
        line = (f"peaks={len(fr.peak_times)} spacing_T={fr.spacing_T:.6g} "
                f"visibility={fr.visibility:.6g}")
    _write_report(out, {"command": "fringes", "trace": str(path), **found})
    with _rewrite(out / "fringes.svg") as fh:
        fh.write(line_chart(trace.times, trace.intensity,
                            peaks=fr.peak_times if fr else None,
                            title="re-analyzed trace",
                            xlabel="t (internal time)", ylabel="intensity",
                            meta=f"trace:{path.name}"))
    print(line)
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="timefringe",
        description="Matter-wave interference-in-time simulator and "
                    "estimate toolkit.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--scenario", help="scenario JSON file "
                        "(defaults to the built-in desk-scale scenario)")
    common.add_argument("--out", default="out", help="output directory")

    run = argparse.ArgumentParser(add_help=False)  # simulate and scan
    run.add_argument("--engine", choices=ENGINES)
    run.add_argument("--theory", choices=THEORIES)

    p_est = sub.add_parser("estimate", parents=[common],
                           help="closed-form eps*T prediction chain")
    p_est.set_defaults(func=cmd_estimate)

    p_sim = sub.add_parser("simulate", parents=[common, run],
                           help="run the two-gate experiment")
    p_sim.set_defaults(func=cmd_simulate)

    p_scan = sub.add_parser("scan", parents=[common, run],
                            help="scan a parameter and tabulate fringes")
    p_scan.add_argument("--param", required=True, choices=SCAN_PARAMS)
    p_scan.add_argument("--values", required=True,
                        help="comma-separated values")
    p_scan.add_argument("--workers", type=int, default=1,
                        help="accepted for compatibility; starts no threads")
    p_scan.set_defaults(func=cmd_scan)

    p_fr = sub.add_parser("fringes", help="re-analyze an existing CSV trace")
    p_fr.add_argument("--trace", required=True, help="trace CSV path")
    p_fr.add_argument("--threshold", type=float, default=THRESHOLD_FRACTION)
    p_fr.add_argument("--out", default="out")
    p_fr.set_defaults(func=cmd_fringes)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    shown = set()

    def show(message, *_):  # one line per distinct warning, no source line
        if str(message) not in shown:
            shown.add(str(message))
            print(f"warning: {message}", file=sys.stderr)
    with warnings.catch_warnings():  # keeps the filters, restores showwarning
        warnings.showwarning = show
        try:
            return args.func(args)
        except ConfigError as exc:
            print(f"config error: {exc}", file=sys.stderr)
            return EXIT_CONFIG
        except ResolutionError as exc:
            print(f"resolution error: {exc}", file=sys.stderr)
            return EXIT_RESOLUTION
        except (DomainError, NoFringes) as exc:
            print(f"domain error: {exc}", file=sys.stderr)
            return EXIT_DOMAIN
        except (IoError, OSError) as exc:
            print(f"i/o error: {exc}", file=sys.stderr)
            return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
