import csv
import json
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from timefringe import experiments
from timefringe.cli import main
from timefringe.errors import ConfigError, IoError
from timefringe.propagation import MAX_AXIS_SAMPLES
from timefringe.scenario import Scenario, parse_scenario, scenario_from_dict


_NUMBER_FIELDS = [
    ("simulate", "packet", "momentum"),
    ("simulate", "sim", "detector_x"),
    ("simulate", "sim", "flight_distance"),
    ("estimate", "setup", "wavelength_nm"),
    ("estimate", "setup", "photon_count"),
]


def run_one_key(tmp_path, command, section, key, value, *extra):
    sc = tmp_path / "sc.json"
    sc.write_text(json.dumps({section: {key: value}}))
    return main([command, "--scenario", str(sc),
                 "--out", str(tmp_path / "out"), *extra])


def assert_config_error(tmp_path, capsys, command, section, key, value):
    assert run_one_key(tmp_path, command, section, key, value) == 2
    assert f"{section}.{key}" in capsys.readouterr().err


class TestScenarioSchema:
    def test_defaults_round_trip(self):
        sc = Scenario()
        again = scenario_from_dict(json.loads(sc.to_json()))
        assert again == sc
        assert again.to_json() == sc.to_json()

    def test_partial_sections_filled_with_defaults(self):
        sc = scenario_from_dict({"packet": {"gate_spacing": 24.0}})
        assert sc.packet["gate_spacing"] == 24.0
        assert sc.packet["gate_width"] == 0.5
        assert sc.theory == "stueckelberg"

    def test_unknown_key_suggests_nearest(self):
        with pytest.raises(ConfigError, match="gate_spacing"):
            scenario_from_dict({"packet": {"gate_spcing": 24.0}})

    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigError, match="unknown key"):
            scenario_from_dict({"theroy": "floquet"})

    def test_bad_values_name_the_field(self):
        with pytest.raises(ConfigError, match="packet.momentum"):
            scenario_from_dict({"packet": {"momentum": -0.2}})
        with pytest.raises(ConfigError, match="photon_count"):
            scenario_from_dict({"setup": {"photon_count": 1.5}})
        with pytest.raises(ConfigError, match="threshold_fraction"):
            scenario_from_dict({"analysis": {"threshold_fraction": 0.0}})
        with pytest.raises(ConfigError, match="grid.n_x"):
            scenario_from_dict({"grid": {"n_x": 1}})
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
        raw = {"scales": {"length_scale": 1.0, "time_scale": 1.0,
                          "mass_scale": 1.0}}
        with pytest.raises(ConfigError, match="unknown key 'scales'"):
            scenario_from_dict(raw)
        sc = tmp_path / "sc.json"
        sc.write_text(json.dumps(raw))
        assert main(["simulate", "--scenario", str(sc),
                     "--out", str(tmp_path / "out")]) == 2
        assert "scales" in capsys.readouterr().err

    def test_integer_past_parser_digit_limit_is_config_error(self, tmp_path):
        sc = tmp_path / "sc.json"
        sc.write_text('{"sim": {"flight_distance": 1' + "0" * 5000 + "}}")
        assert main(["simulate", "--scenario", str(sc),
                     "--out", str(tmp_path / "out")]) == 2

    @pytest.mark.parametrize("key", ["n_x", "n_t"])
    def test_grid_size_ceiling(self, tmp_path, capsys, key):
        sc = scenario_from_dict({"grid": {key: MAX_AXIS_SAMPLES}})
        assert sc.grid[key] == MAX_AXIS_SAMPLES
        for value in (MAX_AXIS_SAMPLES + 1, 10**30):
            assert_config_error(tmp_path, capsys, "simulate", "grid", key,
                                value)

    def test_parse_scenario_io(self, tmp_path):
        with pytest.raises(IoError):
            parse_scenario(tmp_path / "missing.json")
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(ConfigError):
            parse_scenario(bad)


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


class TestCliEstimate:
    # the photon energy overflows; the crude product underflows to 0
    @pytest.mark.parametrize("key,value", [
        ("wavelength_nm", 1e-320),
        pytest.param("photon_count", 10**300, id="photon_count-10**300")])
    def test_out_of_float_range_chain_is_domain_error(self, tmp_path, capsys,
                                                      key, value):
        assert run_one_key(tmp_path, "estimate", "setup", key, value) == 4
        assert f"setup.{key}" in capsys.readouterr().err

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
        svg = (out / "trace.svg").read_text()
        assert "scenario-sha256:" + report["scenario_hash"] in svg
        with open(out / "trace.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert len(rows) > 100
        assert rows[0][0].startswith("t ")

    def test_control_run_expects_no_fringes(self, tmp_path):
        out = tmp_path / "out"
        code = main(["simulate", "--theory", "schrodinger_control",
                     "--out", str(out)])
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["interference_visibility"] == 0.0
        assert report["no_fringes_expected"] is True

    def test_missing_fringes_fails_for_covariant(self, tmp_path):
        sc = tmp_path / "sc.json"
        sc.write_text(json.dumps({"packet": {"gate_spacing": 0.0}}))
        code = main(["simulate", "--scenario", str(sc),
                     "--out", str(tmp_path / "out")])
        assert code == 4

    @pytest.mark.parametrize("eps,code", [(96.0, 3), (48.0, 0)])
    def test_unresolved_fringes_are_resolution_error(self, tmp_path, capsys,
                                                     eps, code):
        # at L = 2 the capped time grid gives 4.8 samples per predicted
        # fringe at eps = 96 and 11.6 at eps = 48
        sc = tmp_path / "sc.json"
        sc.write_text(json.dumps({"packet": {"gate_spacing": eps},
                                  "sim": {"flight_distance": 2.0}}))
        assert main(["simulate", "--scenario", str(sc),
                     "--out", str(tmp_path / "out")]) == code
        if code == 3:
            assert "need n_t >= " in capsys.readouterr().err

    @pytest.mark.parametrize("theory", ["stueckelberg", "floquet"])
    def test_detector_outside_x_grid_is_domain_error(self, tmp_path, capsys,
                                                     theory):
        # at L = 2 the x grid spans [-22.75, 26.75]; the default detector
        # sits at x = L, inside it
        assert main(["simulate", "--theory", theory,
                     "--out", str(tmp_path / "default")]) == 0
        sc = tmp_path / "sc.json"
        sc.write_text(json.dumps({"sim": {"detector_x": 60.0}}))
        assert main(["simulate", "--theory", theory, "--scenario", str(sc),
                     "--out", str(tmp_path / "out")]) == 4
        err = capsys.readouterr().err
        assert "detector_x = 60" in err
        assert "[-22.7513, 26.7513]" in err

    # s* = M L / p overflows; the gate variance overflows; at s = 5e200
    # the spread width leaves the float range
    @pytest.mark.filterwarnings("ignore::timefringe.errors.OverlapWarning")
    @pytest.mark.parametrize("section,key,value,named", [
        ("sim", "flight_distance", 1e308, "flight_distance = 1e+308"),
        ("packet", "momentum", 1e-308, "momentum = 1e-308"),
        ("packet", "gate_width", 1e300, "gate_width = 1e+300"),
        ("sim", "flight_distance", 1e200, "s = 5e+200"),
    ])
    def test_out_of_float_range_run_is_domain_error(self, tmp_path, capsys,
                                                    section, key, value,
                                                    named):
        assert run_one_key(tmp_path, "simulate", section, key, value) == 4
        assert named in capsys.readouterr().err

    def test_time_grid_past_ceiling_is_resolution_error(self, tmp_path,
                                                        capsys):
        # the time-shift grid samples each gate width 12 times: 1.4e12
        assert run_one_key(tmp_path, "simulate", "packet", "gate_width",
                           1e-10, "--theory", "floquet") == 3
        assert f"ceiling of {MAX_AXIS_SAMPLES}" in capsys.readouterr().err

    def test_bad_scenario_is_config_error(self, tmp_path):
        sc = tmp_path / "sc.json"
        sc.write_text(json.dumps({"packet": {"momentum": -1.0}}))
        assert main(["simulate", "--scenario", str(sc),
                     "--out", str(tmp_path / "out")]) == 2

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

    def test_missing_trace_is_io_error(self, tmp_path):
        assert main(["fringes", "--trace", str(tmp_path / "nope.csv"),
                     "--out", str(tmp_path / "out")]) == 5
