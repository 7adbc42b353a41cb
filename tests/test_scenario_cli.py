import csv
import hashlib
import itertools
import json
import math
import re
import sys
import threading
import warnings
from dataclasses import fields
from pathlib import Path
from xml.dom import minidom

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from timefringe import cli, experiments
from timefringe.cli import main
from timefringe.errors import ConfigError, IoError
from timefringe.experiments import DESK_SCALE, MIN_INTERFERENCE_VISIBILITY
from timefringe.propagation import MAX_AXIS_SAMPLES
from timefringe.scenario import Scenario, parse_scenario, scenario_from_dict
from timefringe.units import PhysicalSetup


_NUMBER_FIELDS = [
    ("simulate", "packet", "momentum"),
    ("simulate", "packet", "gate_spacing"),
    ("simulate", "sim", "flight_distance"),
    ("estimate", "setup", "wavelength_nm"),
    ("estimate", "setup", "photon_count"),
]


def run_one_key(tmp_path, command, section, key, value, *extra):
    sc = tmp_path / "sc.json"
    sc.write_text(json.dumps({section: {key: value}}))
    return main([command, "--scenario", str(sc),
                 "--out", str(tmp_path / "out"), *extra])


def trace_has_intensity(out) -> bool:
    with open(out / "trace.csv") as fh:
        next(fh)
        return any(float(line.split(",")[1]) > 0 for line in fh)


def strict_report(out) -> dict:
    """report.json parsed as strict JSON: a NaN or Infinity raises."""
    def reject(token):
        raise ValueError(f"report.json holds the non-JSON number {token}")
    return json.loads((out / "report.json").read_text(),
                      parse_constant=reject)


def assert_config_error(tmp_path, capsys, command, section, key, value):
    assert run_one_key(tmp_path, command, section, key, value) == 2
    assert f"{section}.{key}" in capsys.readouterr().err


class TestScenarioSchema:
    def test_defaults_round_trip(self):
        sc = Scenario()
        again = scenario_from_dict(json.loads(sc.to_json()))
        assert again == sc
        assert again.to_json() == sc.to_json()

    def test_default_echo_and_hash_are_pinned(self, tmp_path):
        # every report carries the scenario echo and its hash, which the
        # trace figure carries too
        echo = ('{"engine": "closed_form", "packet": {"gate_profile": '
                '"gaussian", "gate_spacing": 12.0, "gate_width": 0.5, '
                '"momentum": 0.2, "spatial_width": 5.0}, "setup": '
                '{"flight_distance_m": 0.01, "momentum_model": '
                '"nonrelativistic", "photon_count": 300, "wavelength_nm": '
                '850.0}, "sim": {"flight_distance": 2.0}, "theory": '
                '"stueckelberg"}')
        assert json.dumps(Scenario().to_dict(), sort_keys=True) == echo
        for argv in (["simulate"], ["estimate"],
                     ["scan", "--param", "gate_spacing", "--values", "12,18"]):
            out = tmp_path / argv[0]
            assert main([*argv, "--out", str(out)]) == 0
            text = (out / "report.json").read_text()
            report = json.loads(text)
            assert report["scenario_hash"] == "dedadeb708a9a1b1"
            assert json.dumps(report["scenario"], sort_keys=True) == echo
            # the echo is written as to_json() writes it, one level deeper
            assert ('"scenario": ' + Scenario().to_json().replace("\n", "\n  ")
                    in text)
        assert ("scenario-sha256:dedadeb708a9a1b1"
                in (tmp_path / "simulate" / "trace.svg").read_text())

    @pytest.mark.parametrize("raw", [
        {}, {"theory": "floquet", "engine": "quadrature"},
        {"packet": {"gate_spacing": 24.0, "gate_profile": "rectangular"}},
        {"sim": {"flight_distance": 3.5}, "packet": {"momentum": 1e-300},
         "setup": {"wavelength_nm": 632.8}}])
    def test_scenario_hash_is_hashlibs_sha256(self, raw):
        echo = scenario_from_dict(raw).to_dict()
        text = json.dumps(echo, indent=2, sort_keys=True)
        assert (cli._scenario_hash(echo)
                == hashlib.sha256(text.encode()).hexdigest()[:16])

    def test_defaults_are_the_configs_defaults(self):
        assert Scenario().two_gate_config() == DESK_SCALE
        assert Scenario().physical_setup() == PhysicalSetup()

    def test_readme_table_is_the_schema(self):
        # the README's scenario table lists every key the schema takes, each
        # with the default a run uses, and no other key
        lines = iter((Path(__file__).parents[1] / "README.md")
                     .read_text().splitlines())
        for line in lines:
            if line == "| key | default | sets |":
                break
        next(lines)  # |---|---|---|
        table = {}
        for line in itertools.takewhile(lambda ln: ln.startswith("|"), lines):
            key, default = (cell.strip().strip("`")
                            for cell in line.split("|")[1:3])
            table[key] = json.loads(default)
        echo = {}
        for name, value in Scenario().to_dict().items():
            echo.update({f"{name}.{k}": v for k, v in value.items()}
                        if isinstance(value, dict) else {name: value})
        assert ({k: (type(v), v) for k, v in table.items()}
                == {k: (type(v), v) for k, v in echo.items()})
        for key, default in table.items():
            section, _, name = key.rpartition(".")
            raw = {section: {name: default}} if section else {name: default}
            assert scenario_from_dict(raw) == Scenario()

    def test_echo_sections_are_copies(self):
        sc = Scenario()
        echo = sc.to_dict()
        echo["packet"]["momentum"] = 1.0
        assert sc.packet["momentum"] == 0.2
        assert sc.to_dict()["packet"]["momentum"] == 0.2

    def test_partial_sections_filled_with_defaults(self):
        sc = scenario_from_dict({"packet": {"gate_spacing": 24.0}})
        assert sc.packet["gate_spacing"] == 24.0
        assert sc.packet["gate_width"] == 0.5
        assert sc.theory == "stueckelberg"

    def test_unknown_key_suggests_nearest(self):
        for raw, hint in [({"packet": {"gate_spcing": 24.0}}, "gate_spacing"),
                          ({"packet": {"momentun": 0.2}}, "momentum")]:
            with pytest.raises(ConfigError, match=f"did you mean {hint!r}"):
                scenario_from_dict(raw)

    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigError,
                           match="unknown key 'theroy'; did you mean 'theory'"):
            scenario_from_dict({"theroy": "floquet"})

    def test_bad_values_name_the_field(self):
        with pytest.raises(ConfigError, match="packet.momentum"):
            scenario_from_dict({"packet": {"momentum": -0.2}})
        with pytest.raises(ConfigError, match="photon_count"):
            scenario_from_dict({"setup": {"photon_count": 1.5}})
        with pytest.raises(ConfigError, match="theory"):
            scenario_from_dict({"theory": "bohmian"})

    def test_two_gate_config_mapping(self):
        sc = scenario_from_dict({"packet": {"gate_spacing": 24.0},
                                 "sim": {"flight_distance": 4.0},
                                 "engine": "quadrature"})
        cfg = sc.two_gate_config()
        assert cfg.gate_spacing == 24.0
        assert cfg.flight_distance == 4.0
        assert cfg.engine == "quadrature"

    @pytest.mark.parametrize("value", [float("nan"), float("inf"),
                                       float("-inf")])
    @pytest.mark.parametrize("command,section,key", _NUMBER_FIELDS)
    def test_non_finite_number_is_config_error(self, tmp_path, capsys,
                                               command, section, key, value):
        assert_config_error(tmp_path, capsys, command, section, key, value)

    # 10**400 overflows float(); true is a JSON bool, not a number
    @pytest.mark.parametrize("value", [pytest.param(10**400, id="10**400"),
                                       True])
    @pytest.mark.parametrize("command,section,key", _NUMBER_FIELDS)
    def test_unusable_number_is_config_error(self, tmp_path, capsys,
                                             command, section, key, value):
        assert_config_error(tmp_path, capsys, command, section, key, value)

    def test_removed_scales_block_is_rejected(self, tmp_path, capsys):
        # so are the setup keys that no computation read, and the grid
        # block in any form, which no scenario needed: every axis sizes
        # itself; and the analysis section, whose peak threshold is fixed.
        # A deleted key has no successor, so no live key is suggested for it
        for raw, key in [
                ({"scales": {"length_scale": 1.0, "time_scale": 1.0,
                             "mass_scale": 1.0}}, "scales"),
                ({"grid": {"n_x": 2048}}, "grid"),
                ({"grid": {"n_t": 2048}}, "grid"),
                ({"setup": {"gate_spacing_s": 2.8e-15}},
                 "setup.gate_spacing_s"),
                ({"setup": {"gate_width_s": 2.5e-16}}, "setup.gate_width_s"),
                ({"sim": {"s_elapsed": 1000.0}}, "sim.s_elapsed"),
                ({"sim": {"detector_x": 5.0}}, "sim.detector_x"),
                ({"packet": {"spatial_center": 1.0}}, "packet.spatial_center"),
                ({"packet": {"carrier_energy": 2.0}},
                 "packet.carrier_energy"),
                ({"analysis": {"threshold_fraction": 0.1}}, "analysis"),
                ({"analysis": {}}, "analysis")]:
            with pytest.raises(ConfigError, match=f"unknown key '{key}'"):
                scenario_from_dict(raw)
            sc = tmp_path / "sc.json"
            sc.write_text(json.dumps(raw))
            for command in ("simulate", "estimate"):
                assert main([command, "--scenario", str(sc),
                             "--out", str(tmp_path / "out")]) == 2
                err = capsys.readouterr().err
                assert f"unknown key {key!r}" in err
                assert "did you mean" not in err

    def test_integer_past_parser_digit_limit_is_config_error(self, tmp_path):
        sc = tmp_path / "sc.json"
        sc.write_text('{"sim": {"flight_distance": 1' + "0" * 5000 + "}}")
        assert main(["simulate", "--scenario", str(sc),
                     "--out", str(tmp_path / "out")]) == 2

    def test_parse_scenario_io(self, tmp_path):
        with pytest.raises(IoError):
            parse_scenario(tmp_path / "missing.json")
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(ConfigError):
            parse_scenario(bad)


# a valid value other than the default for every key of each section that
# feeds a config; the sections must hold exactly these keys
_WIRING = {
    "setup": {"wavelength_nm": 900.0, "photon_count": 301,
              "flight_distance_m": 0.02, "momentum_model": "relativistic"},
    "packet": {"spatial_width": 6.0, "momentum": 0.3, "gate_width": 0.6,
               "gate_spacing": 24.0, "gate_profile": "rectangular"},
    "sim": {"flight_distance": 3.0},
}


class TestScenarioWiring:
    """Every scenario key feeds the config built from its section, and
    every config field is fed: a key or a field that outlives what it fed
    fails here."""

    def test_wiring_table_covers_every_key(self):
        defaults = Scenario().to_dict()
        for section, values in _WIRING.items():
            assert set(values) == set(defaults[section])
            for key, value in values.items():
                assert value != defaults[section][key]

    @pytest.mark.parametrize("key", sorted(_WIRING["setup"]))
    def test_every_setup_key_changes_the_physical_setup(self, key):
        sc = scenario_from_dict({"setup": {key: _WIRING["setup"][key]}})
        assert sc.physical_setup() != Scenario().physical_setup()

    @pytest.mark.parametrize("section,key", [
        (section, key) for section in ("packet", "sim")
        for key in sorted(_WIRING[section])])
    def test_every_packet_and_sim_key_changes_the_config(self, section, key):
        sc = scenario_from_dict({section: {key: _WIRING[section][key]}})
        assert sc.two_gate_config() != Scenario().two_gate_config()

    def test_every_config_field_is_reached(self):
        base = Scenario().two_gate_config()
        changed = [scenario_from_dict({"engine": "quadrature"})]
        changed += [scenario_from_dict({section: {key: value}})
                    for section in ("packet", "sim")
                    for key, value in _WIRING[section].items()]
        reached = {f.name for sc in changed for f in fields(base)
                   if getattr(sc.two_gate_config(), f.name)
                   != getattr(base, f.name)}
        assert reached == {f.name for f in fields(base)}


_FIELDS = ([(None, key) for key in Scenario().to_dict()]
           + [(section, key) for section, keys in Scenario().to_dict().items()
              if isinstance(keys, dict) for key in keys])
_JSON_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(),
    st.integers(min_value=-10**400, max_value=10**400),
    st.floats(allow_nan=True, allow_infinity=True), st.text(max_size=8))


class TestScenarioProperties:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from(_FIELDS), _JSON_SCALARS),
                    min_size=1, max_size=4))
    def test_any_scalar_in_any_field_is_accepted_or_config_error(self,
                                                                 pairs):
        raw = {}
        for (section, key), value in pairs:
            if section is None:
                raw[key] = value
            elif isinstance(raw.setdefault(section, {}), dict):
                raw[section][key] = value
        try:
            sc = scenario_from_dict(raw)
            sc.two_gate_config()
            sc.physical_setup()
        except ConfigError:
            pass


_SWEEP_KEYS = ([("packet", key) for key in (
    "spatial_width", "momentum", "gate_width", "gate_spacing")]
    + [("sim", "flight_distance")])
_SWEEP_VALUES = [0.0] + [sign * size for size in (
    1e-300, 1e-100, 1e-10, 1e-3, 1.0, 1e3, 1e10, 1e100, 1e154, 1e300)
    for sign in (1.0, -1.0)]


class TestScenarioSweep:
    @pytest.mark.parametrize("engine", ["closed_form", "quadrature"])
    @pytest.mark.parametrize("theory", ["schrodinger_control", "floquet",
                                        "stueckelberg"])
    def test_every_number_ends_in_a_documented_exit(self, tmp_path, capsys,
                                                    theory, engine):
        # each packet/sim number at 21 sizes, one key at a time: exit 0
        # with a trace that carries intensity and a strict-JSON report, or
        # exit 2, 3 or 4. No message prints an integer of more than 16
        # digits: past 2^53 a sample count's last digits are float noise
        bad = []
        for section, key in _SWEEP_KEYS:
            for value in _SWEEP_VALUES:
                where = f"{section}.{key} = {value!r}"
                try:
                    code = run_one_key(tmp_path, "simulate", section, key,
                                       value, "--theory", theory,
                                       "--engine", engine)
                    if code == 0:
                        strict_report(tmp_path / "out")
                except Exception as exc:
                    bad.append(f"{where}: {type(exc).__name__}: {exc}")
                    continue
                printed = "".join(capsys.readouterr())
                if re.search(r"(?<![\w.])\d{17,}(?![\w.])", printed):
                    bad.append(f"{where}: {printed}")
                if code not in (0, 2, 3, 4):
                    bad.append(f"{where}: exit {code}")
                elif code == 0 and not trace_has_intensity(tmp_path / "out"):
                    bad.append(f"{where}: exit 0 with an all-zero trace")
        assert not bad


_EXTREMES = [5e-324, 1e-300, 1e-154, 1e154, 1e300, 1e-8, 1e8]


@settings(max_examples=300, deadline=None)
@given(keys=st.lists(st.sampled_from(_SWEEP_KEYS), min_size=2, max_size=2,
                     unique=True),
       values=st.tuples(st.sampled_from(_EXTREMES),
                        st.sampled_from(_EXTREMES)),
       theory=st.sampled_from(["schrodinger_control", "floquet",
                               "stueckelberg"]),
       engine=st.sampled_from(["closed_form", "quadrature"]))
# s* = L / p underflowed to 0: a ZeroDivisionError traceback
@example(keys=[("packet", "momentum"), ("sim", "flight_distance")],
         values=(1e8, 5e-324), theory="floquet", engine="closed_form")
@example(keys=[("packet", "momentum"), ("sim", "flight_distance")],
         values=(1e154, 1e-300), theory="stueckelberg", engine="quadrature")
# numpy overflow warnings: 4 a in the norm overlap of a narrow packet, and
# the spread of the control's pulses just after a gate opens
@example(keys=[("packet", "spatial_width"), ("packet", "momentum")],
         values=(1e-154, 1e8), theory="floquet", engine="closed_form")
@example(keys=[("packet", "momentum"), ("packet", "gate_spacing")],
         values=(1e154, 1e-300), theory="schrodinger_control",
         engine="closed_form")
def test_any_two_extreme_numbers_end_in_a_documented_exit(
        tmp_path_factory, keys, values, theory, engine):
    # two packet/sim numbers at once, each at an extreme of the float
    # range: exit 0 with a trace that carries intensity and a strict-JSON
    # report, or exit 2, 3, 4 or 5; never an exception
    tmp = tmp_path_factory.getbasetemp()
    raw = {}
    for (section, key), value in zip(keys, values):
        raw.setdefault(section, {})[key] = value
    sc = tmp / "pair.json"
    sc.write_text(json.dumps(raw))
    out = tmp / "pair"
    code = main(["simulate", "--scenario", str(sc), "--theory", theory,
                 "--engine", engine, "--out", str(out)])
    assert code in (0, 2, 3, 4, 5)
    if code == 0:
        strict_report(out)
        assert trace_has_intensity(out)


class TestCliEstimate:
    # the photon energy overflows; the crude product underflows to 0
    @pytest.mark.parametrize("key,value", [
        ("wavelength_nm", 1e-320),
        pytest.param("photon_count", 10**300, id="photon_count-10**300")])
    def test_out_of_float_range_chain_is_domain_error(self, tmp_path, capsys,
                                                      key, value):
        assert run_one_key(tmp_path, "estimate", "setup", key, value) == 4
        assert f"setup.{key}" in capsys.readouterr().err

    def test_crude_product_overflow_is_domain_error(self, tmp_path, capsys):
        # E_kin^(-3/2) overflows at a tiny kinetic energy
        assert run_one_key(tmp_path, "estimate", "setup", "wavelength_nm",
                           1e300) == 4
        err = capsys.readouterr().err
        assert err.startswith("domain error: crude eps*T (s^2) = inf ")
        assert "setup.wavelength_nm = 1e+300" in err

    def test_writes_outputs(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["estimate", "--out", str(out)]) == 0
        assert (out / "estimate.csv").exists()
        report = json.loads((out / "report.json").read_text())
        assert report["command"] == "estimate"
        assert report["covariant"]["epsilon_T_product"] == pytest.approx(
            6.5233e-30, rel=1e-3)
        stdout = capsys.readouterr().out
        assert "covariant eps*T" in stdout
        assert "crude" in stdout


class TestCliSimulate:
    def test_covariant_run(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["simulate", "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["fringes"] is not None
        assert report["fringes"]["relative_error"] < 0.10
        assert report["interference_visibility"] >= 0.5
        grid = report["time_grid"]
        assert grid == {"n_t": 449, "t_min": pytest.approx(-81.7526032801682),
                        "t_max": pytest.approx(114.15260328016821),
                        "samples_per_fringe": pytest.approx(
                            report["predicted_spacing_T"] * 448
                            / (grid["t_max"] - grid["t_min"]))}
        assert grid["samples_per_fringe"] > 11.9
        svg = (out / "trace.svg").read_text()
        assert "scenario-sha256:" + report["scenario_hash"] in svg
        with open(out / "trace.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert len(rows) > 100
        assert rows[0][0].startswith("t ")

    @pytest.mark.parametrize("theory", ["schrodinger_control", "floquet",
                                        "stueckelberg"])
    @pytest.mark.parametrize("engine", ["closed_form", "quadrature"])
    @pytest.mark.parametrize("flight", [2.0, 3.0])
    def test_report_names_the_point_read(self, tmp_path, theory, engine,
                                         flight):
        # the detector sits at x = L and reads at s* = L / p
        assert run_one_key(tmp_path, "simulate", "sim", "flight_distance",
                           flight, "--theory", theory,
                           "--engine", engine) == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["detector_x"] == flight
        assert report["s_elapsed"] == flight / 0.2

    def test_flight_distance_sets_the_law(self, tmp_path):
        # L = 200 gives s* = 1000 and moves the fringe period to
        # 2 pi s* / eps = 523.6, far from the 5.24 of L = 2
        out = tmp_path / "out"
        assert run_one_key(tmp_path, "simulate", "sim", "flight_distance",
                           200) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["predicted_spacing_T"] == pytest.approx(
            2 * math.pi * 1000 / 12.0, rel=1e-12)
        assert report["fringes"]["relative_error"] < 0.01
        assert report["time_grid"]["samples_per_fringe"] >= 11.9

    def test_control_run_expects_no_fringes(self, tmp_path):
        out = tmp_path / "out"
        code = main(["simulate", "--theory", "schrodinger_control",
                     "--out", str(out)])
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["interference_visibility"] == 0.0
        assert report["norm_drift"] < 1e-15
        assert report["no_fringes_expected"] is True
        assert report["time_grid"]["n_t"] == 129
        assert report["time_grid"]["samples_per_fringe"] is None

    def test_control_reports_the_engine_that_ran(self, tmp_path, capsys):
        # the control has no quadrature path: asked for it, the run says so
        # once and reports closed form; the echo keeps the engine asked for
        traces = []
        for engine in ("closed_form", "quadrature"):
            out = tmp_path / engine
            assert main(["simulate", "--theory", "schrodinger_control",
                         "--engine", engine, "--out", str(out)]) == 0
            report = json.loads((out / "report.json").read_text())
            assert report["engine"] == "closed_form"
            assert report["scenario"]["engine"] == engine
            traces.append((out / "trace.csv").read_bytes())
        assert traces[0] == traces[1]
        assert capsys.readouterr().err == (
            "warning: schrodinger_control has no quadrature path: it runs "
            "in closed_form\n")

    @pytest.mark.parametrize("scenario,flight", [
        ({}, 10.0), ({"sim": {"flight_distance": 5}}, 25.0)],
        ids=["default", "flight_distance"])
    def test_control_reports_its_flight_time(self, tmp_path, scenario,
                                             flight):
        # the control runs for the flight time s* = L / p
        assert main(["simulate", "--theory", "schrodinger_control",
                     "--out", str(tmp_path / "default")]) == 0
        sc = tmp_path / "sc.json"
        sc.write_text(json.dumps(scenario))
        out = tmp_path / "out"
        assert main(["simulate", "--theory", "schrodinger_control",
                     "--scenario", str(sc), "--out", str(out)]) == 0
        assert strict_report(out)["s_elapsed"] == flight
        default = (tmp_path / "default" / "trace.csv").read_bytes()
        same = (out / "trace.csv").read_bytes() == default
        assert same == (flight == 10.0)

    @pytest.mark.parametrize("engine", ["closed_form", "quadrature"])
    def test_covariant_rectangular_gates_are_domain_error(self, tmp_path,
                                                          capsys, engine):
        # the automatic covariant time axis is sized from closed-form spread
        # gates, under quadrature too (ROADMAP item 2)
        assert run_one_key(tmp_path, "simulate", "packet", "gate_profile",
                           "rectangular", "--engine", engine) == 4
        assert capsys.readouterr().err == (
            "domain error: the automatic covariant time axis is sized in "
            "closed form, for Gaussian gates only\n")

    def test_missing_fringes_fails_for_covariant(self, tmp_path):
        sc = tmp_path / "sc.json"
        sc.write_text(json.dumps({"packet": {"gate_spacing": 0.0}}))
        code = main(["simulate", "--scenario", str(sc),
                     "--out", str(tmp_path / "out")])
        assert code == 4

    @pytest.mark.parametrize("theory,engine,momentum,named", [
        ("floquet", "closed_form", 1e-300, "the time axis"),
        ("floquet", "quadrature", 1e-300, "the time axis"),
        # the gates' |b| is E0 = p^2 / 2; the x component's is p
        ("stueckelberg", "quadrature", 1e100, "(|b| = 5e+199 before)")],
        ids=["floquet-closed_form-1e-300", "floquet-quadrature-1e-300",
             "stueckelberg-quadrature-1e+100"])
    def test_time_axis_fails_first(self, tmp_path, capsys, theory, engine,
                                   momentum, named):
        # both axes fail; the time rule runs first and names the time axis,
        # or the spread gate whose log-amplitude overflows
        assert run_one_key(tmp_path, "simulate", "packet", "momentum",
                           momentum, "--theory", theory,
                           "--engine", engine) == 4
        assert named in capsys.readouterr().err

    def test_below_visibility_floor_is_domain_error(self, tmp_path, capsys):
        # at eps = 96, L = 2 the automatic grid resolves the fringes, but
        # the gates barely overlap: V = 0.0063, and no file is written
        sc = tmp_path / "sc.json"
        sc.write_text(json.dumps({"packet": {"gate_spacing": 96.0},
                                  "sim": {"flight_distance": 2.0}}))
        out = tmp_path / "out"
        assert main(["simulate", "--scenario", str(sc),
                     "--out", str(out)]) == 4
        err = capsys.readouterr().err
        assert "interference visibility 0.00632 is below the floor of " \
            f"{MIN_INTERFERENCE_VISIBILITY}" in err
        assert not out.exists()

    @pytest.mark.parametrize("eps", [24.0, 48.0, 72.0, 96.0, 120.0, 144.0,
                                     168.0, 192.0])
    @pytest.mark.parametrize("flight", [1.5, 2.0, 4.0])
    def test_reported_spacing_follows_the_law(self, tmp_path, capsys, eps,
                                              flight):
        # without a cap on the automatic grid every case runs; each one
        # either stops at the visibility floor or reports the law's spacing
        sc = tmp_path / "sc.json"
        sc.write_text(json.dumps({"packet": {"gate_spacing": eps},
                                  "sim": {"flight_distance": flight}}))
        out = tmp_path / "out"
        code = main(["simulate", "--scenario", str(sc), "--out", str(out)])
        if code == 4:
            assert "below the floor" in capsys.readouterr().err
            return
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["interference_visibility"] >= MIN_INTERFERENCE_VISIBILITY
        assert report["fringes"]["relative_error"] < 0.10

    @pytest.mark.parametrize("engine", ["closed_form", "quadrature"])
    @pytest.mark.parametrize("theory", ["schrodinger_control", "floquet",
                                        "stueckelberg"])
    @pytest.mark.parametrize("flight,momentum,s", [
        (5e-324, 1e8, "0"), (5e-324, 1e154, "0"), (1e300, 1e-10, "inf")])
    def test_s_star_out_of_float_range_is_domain_error(
            self, tmp_path, capsys, theory, engine, flight, momentum, s):
        # L / p underflows to 0, which used to end in a ZeroDivisionError
        # traceback, or overflows; every theory runs for s*
        sc = tmp_path / "sc.json"
        sc.write_text(json.dumps({"packet": {"momentum": momentum},
                                  "sim": {"flight_distance": flight}}))
        out = tmp_path / "out"
        assert main(["simulate", "--theory", theory, "--engine", engine,
                     "--scenario", str(sc), "--out", str(out)]) == 4
        assert capsys.readouterr().err.endswith(
            f"domain error: s* = M L / p = {s} is not a positive float for "
            f"flight_distance = {flight:g} and momentum = {momentum:g}\n")
        assert not out.exists()

    # s* = M L / p overflows; the gate variance overflows; at s = 5e200
    # the spread width leaves the float range; p^2 in the carrier energy,
    # eps^2 in the gate overlap, 1/w^2 and x0^2/w^2 in the spatial Gaussian
    # overflow
    @pytest.mark.filterwarnings("ignore::timefringe.errors.OverlapWarning")
    @pytest.mark.parametrize("section,key,value,named,theory", [
        ("sim", "flight_distance", 1e308, "flight_distance = 1e+308",
         "stueckelberg"),
        ("packet", "momentum", 1e-308, "momentum = 1e-308", "stueckelberg"),
        ("packet", "gate_width", 1e300, "gate_width = 1e+300", "stueckelberg"),
        ("sim", "flight_distance", 1e200, "s = 5e+200", "stueckelberg"),
        ("packet", "momentum", 1e300, "momentum = 1e+300", "stueckelberg"),
        ("packet", "momentum", 1e300, "momentum = 1e+300", "floquet"),
        ("packet", "gate_spacing", 1e300, "gate_spacing = 1e+300",
         "stueckelberg"),
        ("packet", "gate_spacing", 1e300, "gate_spacing = 1e+300", "floquet"),
        ("packet", "spatial_width", 1e-300, "spatial_width = 1e-300",
         "stueckelberg"),
        ("packet", "spatial_width", 1e-300, "spatial_width = 1e-300",
         "floquet"),
        ("packet", "spatial_width", 1e-300, "spatial_width = 1e-300",
         "schrodinger_control"),
        ("packet", "momentum", 1e154, "carrier phase E0 t", "floquet"),
    ])
    def test_out_of_float_range_run_is_domain_error(self, tmp_path, capsys,
                                                    section, key, value,
                                                    named, theory):
        assert run_one_key(tmp_path, "simulate", section, key, value,
                           "--theory", theory) == 4
        assert named in capsys.readouterr().err

    @pytest.mark.parametrize("engine", ["closed_form", "quadrature"])
    def test_spread_gate_out_of_float_range_is_domain_error(self, tmp_path,
                                                            capsys, engine):
        # E0 = 5e307 enters the gates' coefficient b, and b^2 / 4 gamma
        # overflows as they spread; a NaN axis width used to be exit 3
        assert run_one_key(tmp_path, "simulate", "packet", "momentum", 1e154,
                           "--theory", "stueckelberg", "--engine",
                           engine) == 4
        err = capsys.readouterr().err
        assert err == ("domain error: the log-amplitude of a component "
                       "spread over s = 2e-154 leaves the float range "
                       "(|b| = 5e+307 before)\n")
        assert "nan" not in err

    @pytest.mark.parametrize("engine", ["closed_form", "quadrature"])
    @pytest.mark.parametrize("theory", ["floquet", "stueckelberg"])
    def test_gaussian_gate_overlap_overflow_names_the_key(
            self, tmp_path, capsys, theory, engine):
        # w^2 = 1e308 is a float, pi w^2 is not; a rectangular gate's
        # overlap takes no pi w^2 and runs
        assert run_one_key(tmp_path, "simulate", "packet", "gate_width",
                           1e154, "--theory", theory, "--engine",
                           engine) == 4
        assert capsys.readouterr().err.endswith(
            "domain error: packet.gate_width = 1e+154: the Gaussian gates' "
            "overlap pi w^2 leaves the float range\n")
        if theory == "floquet":
            sc = tmp_path / "rect.json"
            sc.write_text(json.dumps({"packet": {
                "gate_width": 1e154, "gate_profile": "rectangular"}}))
            assert main(["simulate", "--scenario", str(sc), "--theory",
                         theory, "--engine", engine,
                         "--out", str(tmp_path / "rect")]) == 0

    @pytest.mark.parametrize("engine", ["closed_form", "quadrature"])
    def test_control_window_past_the_float_range_is_domain_error(
            self, tmp_path, capsys, engine):
        # the arrival window 2 (4 sigma + eps) overflows; it used to be
        # exit 3 with a span and a sample count of inf
        assert run_one_key(tmp_path, "simulate", "packet", "momentum",
                           1e-154, "--theory", "schrodinger_control",
                           "--engine", engine) == 4
        err = capsys.readouterr().err.splitlines()[-1]
        assert err == ("domain error: the arrival window for packet.momentum"
                       " = 1e-154, packet.spatial_width = 5 and "
                       "packet.gate_spacing = 12 spans more than the float "
                       "range")

    @pytest.mark.parametrize("section,key,value", [
        ("sim", "flight_distance", 1e19), ("packet", "momentum", 1e10)])
    def test_closed_form_rounding_is_domain_error(self, tmp_path, capsys,
                                                  section, key, value):
        # the gates' exponent terms reach 1e17 and more, so their relative
        # phase is lost to rounding: at a carrier energy of 1e8 the trace's
        # peaks were 0.34 apart against a law of 5.24
        assert run_one_key(tmp_path, "simulate", section, key, value,
                           "--theory", "stueckelberg") == 4
        assert "their rounding passes 0.01" in capsys.readouterr().err

    @pytest.mark.parametrize("theory,named", [
        ("floquet", "n_t = 1440000000195"),
        ("stueckelberg", "n_t = 2106740179837")])
    def test_time_grid_past_ceiling_is_resolution_error(self, tmp_path,
                                                        capsys, theory, named):
        # each time grid samples its narrowest feature 12 times: the gate
        # width under the time shift, the fringe period of gates that
        # spread over 9.2e11 under the covariant theory
        assert run_one_key(tmp_path, "simulate", "packet", "gate_width",
                           1e-10, "--theory", theory) == 3
        err = capsys.readouterr().err
        assert named in err
        assert f"ceiling of {MAX_AXIS_SAMPLES}" in err

    @pytest.mark.parametrize("theory,section,key,value,named", [
        ("floquet", "packet", "momentum", 1000, "n_x = 18472439"),
        ("floquet", "sim", "flight_distance", 1e-4, "n_x = 69306319"),
        ("floquet", "packet", "spatial_width", 1e10,
         "n_x = 1.38612e+22"),
        ("stueckelberg", "sim", "flight_distance", 1e-4, "n_t = 5377523"),
    ])
    def test_quadrature_input_past_ceiling_is_resolution_error(
            self, tmp_path, capsys, theory, section, key, value, named):
        # resolving the kernel chirp would take this many input samples;
        # the run stops before it allocates them
        assert run_one_key(tmp_path, "simulate", section, key, value,
                           "--theory", theory, "--engine", "quadrature") == 3
        err = capsys.readouterr().err
        assert named in err
        assert f"ceiling of {MAX_AXIS_SAMPLES}" in err

    @pytest.mark.parametrize("engine", ["closed_form", "quadrature"])
    @pytest.mark.parametrize("section,key,value,code,named", [
        # the Gaussian's normalization pi w^2 overflows a float
        ("packet", "spatial_width", 1e154, 4, "leave the float range"),
        # the kernel phase 1 / 2s, or its square, overflows a float
        ("sim", "flight_distance", 5e-324, 4, "s = 2.47033e-323"),
        ("sim", "flight_distance", 1e-301, 4, "s = 5e-301"),
    ])
    def test_float_range_spread_ends_in_documented_exit(
            self, tmp_path, capsys, engine, section, key, value, code, named):
        assert run_one_key(tmp_path, "simulate", section, key, value,
                           "--theory", "floquet", "--engine", engine) == code
        assert named in capsys.readouterr().err

    @pytest.mark.parametrize("engine", ["closed_form", "quadrature"])
    @pytest.mark.parametrize("theory", ["floquet", "stueckelberg"])
    @pytest.mark.parametrize("width", [1e-150, 3e-153, 1e-153, 1e-154])
    def test_narrow_packet_reports_a_finite_drift_or_fails(
            self, tmp_path, theory, engine, width):
        # at s* = 10, from w = 2e-153 down the spread Re(a) is subnormal and
        # the overlaps of the norm overflow; at 3e-153 the quadrature kernel
        # phase over the output x axis overflows. Unguarded, either ends in
        # exit 0 with a NaN or Infinity norm_drift
        code = run_one_key(tmp_path, "simulate", "packet", "spatial_width",
                           width, "--theory", theory, "--engine", engine)
        assert code in (0, 3, 4)
        if code == 0:
            drift = strict_report(tmp_path / "out")["norm_drift"]
            assert math.isfinite(drift)

    @pytest.mark.parametrize("section,key,value,code", [
        ("sim", "flight_distance", 1e3, 0),
        # at p = 1e300 the flight time 2e-300 squares past the float range
        ("packet", "momentum", 1e100, 3), ("packet", "momentum", 1e300, 4),
        ("packet", "momentum", 1e3, 0), ("packet", "gate_spacing", 1e4, 0),
    ])
    def test_control_trace_covers_the_arrival(self, tmp_path, section, key,
                                              value, code):
        # the window centres on the flight time L / p and resolves the
        # arrival pulse, or the run says why not
        assert run_one_key(tmp_path, "simulate", section, key, value,
                           "--theory", "schrodinger_control") == code
        if code == 0:
            assert trace_has_intensity(tmp_path / "out")

    def test_bad_scenario_is_config_error(self, tmp_path):
        sc = tmp_path / "sc.json"
        sc.write_text(json.dumps({"packet": {"momentum": -1.0}}))
        assert main(["simulate", "--scenario", str(sc),
                     "--out", str(tmp_path / "out")]) == 2

    def test_each_warning_is_one_line(self, tmp_path, capsys):
        # overlapping gates warn once per run, not once per scan row, and
        # stderr names no source file or line
        assert run_one_key(tmp_path, "simulate", "packet", "gate_spacing",
                           0.3, "--theory", "floquet") == 0
        assert main(["scan", "--param", "gate_spacing", "--values",
                     "0.2,0.3,0.4", "--theory", "floquet",
                     "--out", str(tmp_path / "scan")]) == 0
        line = ("warning: gates are wider than their spacing: "
                "overlapping-gate regime\n")
        assert capsys.readouterr().err == line + line

    def test_warning_filters_still_apply(self, tmp_path, monkeypatch):
        def run(theory, cfg):
            warnings.warn("overflow", RuntimeWarning)
        monkeypatch.setattr(cli, "two_gate_run", run)
        with pytest.raises(RuntimeWarning, match="overflow"):
            main(["simulate", "--out", str(tmp_path / "out")])

    def test_missing_scenario_is_io_error(self, tmp_path):
        assert main(["simulate", "--scenario", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path / "out")]) == 5


class TestCliScan:
    def test_scan_csv_deterministic_across_workers(self, tmp_path):
        outputs = []
        for workers, name in [(1, "a"), (3, "b")]:
            out = tmp_path / name
            assert main(["scan", "--param", "gate_spacing",
                         "--values", "12,18,24",
                         "--workers", str(workers), "--out", str(out)]) == 0
            outputs.append((out / "scan.csv").read_bytes())
        assert outputs[0] == outputs[1]

    def test_scan_starts_no_thread(self, tmp_path, monkeypatch):
        counts = []
        run = experiments.two_gate_run

        def counted(theory, cfg):
            counts.append(threading.active_count())
            return run(theory, cfg)

        monkeypatch.setattr(experiments, "two_gate_run", counted)
        before = threading.active_count()
        assert main(["scan", "--param", "gate_spacing",
                     "--values", "12,18,24", "--workers", "4",
                     "--out", str(tmp_path / "out")]) == 0
        assert counts == [before] * 3
        assert threading.active_count() == before

    def test_flight_distance_scan(self, tmp_path):
        out = tmp_path / "out"
        assert main(["scan", "--param", "flight_distance",
                     "--values", "2,4", "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert [r["param"] for r in report["rows"]] == [2.0, 4.0]
        # spacing T grows linearly with L at fixed epsilon
        r0, r1 = report["rows"]
        assert r1["spacing_T"] == pytest.approx(2 * r0["spacing_T"], rel=0.05)

    def test_flight_distance_scan_runs_each_value_once(self, tmp_path,
                                                       monkeypatch):
        calls = []
        lock = threading.Lock()
        run = experiments.two_gate_run

        def counted(theory, cfg):
            with lock:
                calls.append(cfg.flight_distance)
            return run(theory, cfg)

        monkeypatch.setattr(experiments, "two_gate_run", counted)
        outputs = []
        for workers in (1, 2):
            out = tmp_path / f"w{workers}"
            assert main(["scan", "--param", "flight_distance",
                         "--values", "2,3,4", "--workers", str(workers),
                         "--out", str(out)]) == 0
            outputs.append((out / "scan.csv").read_bytes())
        assert sorted(calls) == [2.0, 2.0, 3.0, 3.0, 4.0, 4.0]
        assert outputs[0] == outputs[1]

    def test_bad_values_rejected(self, tmp_path):
        assert main(["scan", "--param", "gate_spacing", "--values", "12,abc",
                     "--out", str(tmp_path / "out")]) == 2
        assert main(["scan", "--param", "gate_spacing", "--values", "12",
                     "--out", str(tmp_path / "out")]) == 2
        for bad in ("12,nan", "inf,12"):
            assert main(["scan", "--param", "gate_spacing", "--values", bad,
                         "--out", str(tmp_path / "out")]) == 2


class TestCliFringes:
    def test_reanalyzes_written_trace(self, tmp_path, capsys):
        sim_out = tmp_path / "sim"
        assert main(["simulate", "--out", str(sim_out)]) == 0
        sim_report = json.loads((sim_out / "report.json").read_text())
        fr_out = tmp_path / "fr"
        assert main(["fringes", "--trace", str(sim_out / "trace.csv"),
                     "--out", str(fr_out)]) == 0
        report = json.loads((fr_out / "report.json").read_text())
        assert report["spacing_T"] == pytest.approx(
            sim_report["fringes"]["spacing_T"], rel=1e-9)
        assert (fr_out / "fringes.svg").exists()

    @pytest.mark.parametrize("rows,why", [
        ("".join(f"{t},{math.exp(-(t - 5) ** 2)!r}\n" for t in range(11)),
         "found 1 peak(s); need at least 2"),
        ("1.0,2.0\n", "central window too narrow for peak analysis"),
        ("".join(f"{t},1e300\n" for t in range(11)),
         "found 0 peak(s); need at least 2")],
        ids=["one_bump", "one_row", "flat"])
    def test_every_run_charts_its_own_trace(self, tmp_path, capsys, rows,
                                            why):
        # a trace without fringes into the --out of one with them: the
        # chart is the new trace's, without peak markers
        out = tmp_path / "fr"
        assert main(["simulate", "--out", str(tmp_path / "sim")]) == 0
        assert main(["fringes", "--trace", str(tmp_path / "sim" / "trace.csv"),
                     "--out", str(out)]) == 0
        assert "<circle" in (out / "fringes.svg").read_text()
        trace = tmp_path / "bare.csv"
        trace.write_text("t,intensity\n" + rows)
        capsys.readouterr()
        assert main(["fringes", "--trace", str(trace),
                     "--out", str(out)]) == 0
        assert capsys.readouterr().out == f"no fringes: {why}\n"
        assert json.loads((out / "report.json").read_text()) == {
            "command": "fringes", "trace": str(trace), "no_fringes": why}
        svg = (out / "fringes.svg").read_text()
        assert "<desc>trace:bare.csv</desc>" in svg
        assert "<circle" not in svg
        points = re.search(r'points="([^"]+)"', svg)[1].split()
        assert len(points) == rows.count("\n")
        assert all(70.0 <= float(pt.split(",")[0]) <= 880.0
                   and 40.0 <= float(pt.split(",")[1]) <= 430.0
                   for pt in points)

    @pytest.mark.parametrize("found", [True, False],
                             ids=["fringes", "no_fringes"])
    def test_file_name_with_markup_gives_well_formed_chart(self, tmp_path,
                                                           capsys, found):
        name = "a&b<c>.csv"
        trace = tmp_path / name
        if found:
            assert main(["simulate", "--out", str(tmp_path / "sim")]) == 0
            trace.write_bytes((tmp_path / "sim" / "trace.csv").read_bytes())
        else:
            trace.write_text("t,intensity\n0,0\n1,1\n2,0\n")
        out = tmp_path / "fr"
        assert main(["fringes", "--trace", str(trace), "--out", str(out)]) == 0
        doc = minidom.parse(str(out / "fringes.svg"))
        assert doc.getElementsByTagName("desc")[0].firstChild.data == \
            f"trace:{name}"
        assert bool(doc.getElementsByTagName("circle")) is found

    def test_non_numeric_cell_is_config_error(self, tmp_path, capsys):
        trace = tmp_path / "trace.csv"
        trace.write_text("t,intensity\n0.0,1.0\n0.5,abc\n")
        assert main(["fringes", "--trace", str(trace),
                     "--out", str(tmp_path / "out")]) == 2
        assert "line 3" in capsys.readouterr().err

    @pytest.mark.parametrize("row", ["0.5,nan", "0.5,inf", "nan,1.0",
                                     "-inf,1.0"])
    def test_non_finite_cell_is_config_error(self, tmp_path, capsys, row):
        trace = tmp_path / "trace.csv"
        trace.write_text(f"t,intensity\n0.0,1.0\n{row}\n1.0,2.0\n")
        assert main(["fringes", "--trace", str(trace),
                     "--out", str(tmp_path / "out")]) == 2
        assert "line 3" in capsys.readouterr().err

    def test_one_column_row_is_config_error(self, tmp_path, capsys):
        trace = tmp_path / "trace.csv"
        trace.write_text("t,intensity\n0.0,1.0\n0.5\n")
        assert main(["fringes", "--trace", str(trace),
                     "--out", str(tmp_path / "out")]) == 2
        assert "line 3" in capsys.readouterr().err

    @pytest.mark.parametrize("rows,named", [
        ("0,1\n1,2\n1,3\n", "line 4: time 1.0 does not come after 1.0"),
        ("0,1\n1,2\n0.5,3\n", "line 4: time 0.5 does not come after 1.0"),
        ("0,1\n1,-2\n2,1\n", "line 3: intensity -2.0 is negative")],
        ids=["repeated_time", "earlier_time", "negative_intensity"])
    def test_unordered_time_or_negative_intensity_is_config_error(
            self, tmp_path, capsys, rows, named):
        # before any output directory is made
        trace = tmp_path / "trace.csv"
        trace.write_text("t,intensity\n" + rows)
        out = tmp_path / "out"
        assert main(["fringes", "--trace", str(trace),
                     "--out", str(out)]) == 2
        assert named in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("value", ["0.2", "0.1", "1.5"])
    def test_threshold_option_is_gone(self, tmp_path, capsys, value):
        # the peak threshold is fixed at 0.1: argparse exits 2 on the
        # option, before any output directory is made
        trace = tmp_path / "trace.csv"
        trace.write_text("t,intensity\n0.0,1.0\n0.5,2.0\n1.0,1.0\n")
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            main(["fringes", "--trace", str(trace), "--threshold", value,
                  "--out", str(out)])
        assert exc.value.code == 2
        assert ("unrecognized arguments: --threshold"
                in capsys.readouterr().err)
        assert not out.exists()

    @pytest.mark.parametrize("peak", [2e307, 1.75e308, sys.float_info.max])
    def test_reads_a_trace_near_the_float_maximum(self, tmp_path, capsys,
                                                  peak):
        # the planted cosine of extract_fringes' tests at a peak near the
        # float maximum, and scaled down by 2**1000: the same peaks, and a
        # chart whose coordinates all lie in its box
        t = np.linspace(0.0, 20.0, 4001)
        y = peak / 2.0 * np.exp(-((t - 10.0) ** 2) / 18.0) * (
            1.0 + np.cos(2.0 * np.pi * (t - 10.0) / 0.5))
        reports = []
        for name, values in (("big", y), ("small", 2.0 ** -1000 * y)):
            trace = tmp_path / f"{name}.csv"
            trace.write_text("t,intensity\n" + "".join(
                f"{a!r},{b!r}\n" for a, b in zip(t.tolist(), values.tolist())))
            out = tmp_path / name
            assert main(["fringes", "--trace", str(trace),
                         "--out", str(out)]) == 0
            reports.append(json.loads((out / "report.json").read_text()))
            svg = (out / "fringes.svg").read_text()
            coords = [float(v) for v in re.findall(
                r' (?:x|y|x1|y1|x2|y2|cx|cy)="([^"]+)"', svg)]
            coords += [float(v) for v in re.search(
                r'points="([^"]+)"', svg)[1].replace(",", " ").split()]
            assert len(coords) > 2 * len(t)
            assert all(0.0 <= v <= 900.0 for v in coords)
        assert len(reports[0]["peak_times"]) == 17
        assert reports[0]["peak_times"] == reports[1]["peak_times"]
        assert reports[0]["spacing_T"] == pytest.approx(0.5, abs=1e-2)
        assert capsys.readouterr().err == ""

    def test_finds_fringes_at_times_past_the_float_maximum(self, tmp_path,
                                                           capsys):
        # a cosine, 8 samples a period, at times from -0.975 to 0.975 times
        # the float maximum: the sums over times used to overflow, with two
        # numpy warnings and "no fringes"
        t = np.linspace(-0.975, 0.975, 801) * sys.float_info.max
        y = 1.0 + np.cos(2.0 * np.pi * np.arange(801) / 8.0)
        trace = tmp_path / "trace.csv"
        trace.write_text("t,intensity\n" + "".join(
            f"{a!r},{b!r}\n" for a, b in zip(t.tolist(), y.tolist())))
        out = tmp_path / "out"
        assert main(["fringes", "--trace", str(trace),
                     "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["spacing_T"] == pytest.approx(8.0 * (t[1] - t[0]),
                                                    rel=1e-12)
        assert capsys.readouterr().err == ""

    def test_missing_trace_is_io_error(self, tmp_path):
        assert main(["fringes", "--trace", str(tmp_path / "nope.csv"),
                     "--out", str(tmp_path / "out")]) == 5
