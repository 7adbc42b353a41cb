"""Command-line entry points: estimate, simulate, scan, fringes.

All data files are CSV with a header row naming columns and units; figures
are self-contained SVG carrying the scenario hash. Exit codes: 0 success,
2 configuration, 3 resolution, 4 domain, 5 I/O.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
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


def _write_report(out: Path, report: dict) -> None:
    (out / "report.json").write_text(
        json.dumps(report, indent=2, sort_keys=True) + "\n")


def _write_trace_csv(path: Path, trace: IntensityTrace) -> None:
    body = "".join(map("{:.17g},{:.17g}\r\n".format, trace.times.tolist(),
                       trace.intensity.tolist()))
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerow(["t (internal time)",
                                 "intensity (internal, |psi|^2)"])
        fh.write(body)


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
    with open(out / "estimate.csv", "w", newline="") as fh:
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
    line_chart(out / "trace.svg", outcome.trace.times,
               outcome.trace.intensity,
               peaks=fringes.peak_times if fringes else None,
               title=f"{scenario.theory} two-gate intensity at detector",
               xlabel="t (internal time)", ylabel="intensity",
               meta=f"scenario-sha256:{shash}")
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
    with open(out / "scan.csv", "w", newline="") as fh:
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
    """(times, intensity) read row by row; names the first bad line."""
    times, intensity = [], []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)

        def bad(what: str) -> ConfigError:
            return ConfigError(f"trace CSV line {reader.line_num}: {what}")
        try:
            if next(reader, None) is None:
                raise ConfigError("trace CSV is empty")
            for row in reader:
                try:
                    t, i = float(row[0]), float(row[1])
                except (ValueError, IndexError) as exc:
                    raise bad(f"expected two numbers, got {row!r}") from exc
                if not (math.isfinite(t) and math.isfinite(i)):
                    raise bad(f"expected two finite numbers, got {row!r}")
                if times and t <= times[-1]:
                    raise bad(f"time {t!r} does not come after {times[-1]!r}")
                if i < 0:
                    raise bad(f"intensity {i!r} is negative")
                times.append(t)
                intensity.append(i)
        except csv.Error as exc:  # such as a cell past csv.field_size_limit()
            raise bad(str(exc)) from exc
    return np.asarray(times), np.asarray(intensity)


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
        _write_report(out, {"command": "fringes", "trace": str(path),
                            "no_fringes": str(exc)})
        print(f"no fringes: {exc}")
        return EXIT_OK
    _write_report(out, {
        "command": "fringes",
        "trace": str(path),
        "peak_times": fr.peak_times,
        "spacing_T": fr.spacing_T,
        "visibility": fr.visibility,
    })
    line_chart(out / "fringes.svg", trace.times, trace.intensity,
               peaks=fr.peak_times, title="re-analyzed trace",
               xlabel="t (internal time)", ylabel="intensity",
               meta=f"trace:{path.name}")
    print(f"peaks={len(fr.peak_times)} spacing_T={fr.spacing_T:.6g} "
          f"visibility={fr.visibility:.6g}")
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
