"""The trace writers and the trace reader against the row-by-row code they
replace: the same bytes out, the same arrays and errors in."""

import csv
import math
import re
import sys

import numpy as np
import pytest

from timefringe import cli, svgplot
from timefringe.errors import ConfigError, NoFringes
from timefringe.experiments import TwoGateConfig, extract_fringes, two_gate_run
from timefringe.propagation import ENGINES, THEORIES


# ------------------------------------------------------- reference writers

def reference_trace_csv(path, trace):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["t (internal time)", "intensity (internal, |psi|^2)"])
        for t, i in zip(trace.times, trace.intensity):
            w.writerow([f"{t:.17g}", f"{i:.17g}"])


def reference_interp(x, y, v):
    if v <= x[0]:
        return y[0]
    for i in range(1, len(x)):
        if v <= x[i]:
            f = (v - x[i - 1]) / (x[i] - x[i - 1])
            return y[i - 1] + f * (y[i] - y[i - 1])
    return y[-1]


def reference_polyline_and_markers(x, y, peaks):
    """The points attribute and <circle> lines, one point at a time."""
    x = list(map(float, x))
    y = list(map(float, y))
    x_lo, x_hi = min(x), max(x)
    y_lo, y_hi = min(y), max(y)
    if y_hi == y_lo:
        y_hi = y_lo + 1.0
    pad = 0.05 * (y_hi - y_lo)
    y_lo -= pad
    y_hi += pad
    W, H = svgplot.WIDTH, svgplot.HEIGHT
    L, R, T, B = (svgplot.MARGIN_L, svgplot.MARGIN_R, svgplot.MARGIN_T,
                  svgplot.MARGIN_B)

    def sx(v):
        return L + (v - x_lo) / (x_hi - x_lo) * (W - L - R)

    def sy(v):
        return H - B - (v - y_lo) / (y_hi - y_lo) * (H - T - B)

    pts = " ".join(f"{sx(a):.2f},{sy(b):.2f}" for a, b in zip(x, y))
    y_by_x = dict(zip(x, y))
    circles = []
    for pt in peaks:
        yy = y_by_x.get(pt)
        if yy is None:
            yy = reference_interp(x, y, pt)
        circles.append(f'  <circle cx="{sx(pt):.2f}" cy="{sy(yy):.2f}" '
                       'r="3.5" fill="none" stroke="#c23b22" '
                       'stroke-width="1.5"/>')
    return pts, circles


def _marker_times(trace):
    """Fringe peaks where there are any, plus a time on a sample, one
    between samples, and one on each side of the trace."""
    t = trace.times
    try:
        peaks = list(extract_fringes(trace).peak_times)
    except NoFringes:
        peaks = []
    k = len(t) // 3
    return peaks + [float(t[k]), float(t[0]), float(t[-1]),
                    0.25 * float(t[k]) + 0.75 * float(t[k + 1]),
                    float(t[0]) - 1.0, float(t[-1]) + 1.0]


@pytest.fixture(scope="module", params=[(th, en) for th in THEORIES
                                        for en in ENGINES],
                ids=lambda p: f"{p[0]}-{p[1]}")
def trace(request):
    theory, engine = request.param
    return two_gate_run(theory, TwoGateConfig(engine=engine)).trace


@pytest.mark.filterwarnings(
    "ignore:schrodinger_control has no quadrature path")
class TestWriters:
    def test_trace_csv_matches_csv_writer_loop(self, tmp_path, trace):
        cli._write_trace_csv(tmp_path / "new.csv", trace)
        reference_trace_csv(tmp_path / "old.csv", trace)
        new = (tmp_path / "new.csv").read_bytes()
        assert new == (tmp_path / "old.csv").read_bytes()
        assert new.startswith(
            b't (internal time),"intensity (internal, |psi|^2)"\r\n')

    def test_svg_polyline_and_markers_match_point_loop(self, tmp_path,
                                                       trace):
        peaks = _marker_times(trace)
        assert any(p == trace.times[len(trace.times) // 3] for p in peaks)
        svgplot.line_chart(tmp_path / "t.svg", trace.times, trace.intensity,
                           peaks=peaks)
        svg = (tmp_path / "t.svg").read_text()
        pts, circles = reference_polyline_and_markers(
            trace.times, trace.intensity, peaks)
        assert re.search(r'<polyline points="([^"]*)"', svg)[1] == pts
        assert [ln for ln in svg.splitlines() if "<circle" in ln] == circles

    def test_exact_hit_marker_takes_the_sample(self, tmp_path):
        # y0 + 1 * (y1 - y0) rounds away from y1 here, so interpolating
        # onto a sample would move the marker
        x, y = [0.0, 1.0, 2.0, 3.0], [0.7, 0.1, 0.3, 0.2]
        assert y[0] + 1.0 * (y[1] - y[0]) != y[1]
        peaks = [1.0, 0.5, 3.0, -1.0, 4.0, 2.75]
        svgplot.line_chart(tmp_path / "t.svg", x, y, peaks=peaks)
        svg = (tmp_path / "t.svg").read_text()
        pts, circles = reference_polyline_and_markers(x, y, peaks)
        assert re.search(r'<polyline points="([^"]*)"', svg)[1] == pts
        assert [ln for ln in svg.splitlines() if "<circle" in ln] == circles
        want = [y[x.index(p)] if p in x else reference_interp(x, y, p)
                for p in peaks]
        assert svgplot._heights_at(np.array(x), np.array(y), peaks) == want


M = sys.float_info.max


@pytest.mark.parametrize("x,y", [
    (np.linspace(-0.975, 0.975, 801) * M, np.linspace(0.0, 1.0, 801) * M),
    (1e16 + 2.0 * np.arange(5), [0.0, 1.0, 0.0, 1.0, 0.0]),
    (np.arange(9.0), 1e16 + 2.0 * (np.arange(9) % 2)),
    (np.arange(9.0), 5e-324 * (np.arange(9) % 2)),
], ids=["past-float-max", "x-one-ulp-apart", "y-one-ulp-apart",
        "y-subnormal"])
def test_chart_of_any_finite_trace_lies_in_its_box(tmp_path, x, y):
    # spans past the float maximum or below one tick step used to raise or
    # never end; every coordinate is in the box and every label finite
    svgplot.line_chart(tmp_path / "t.svg", x, y,
                       peaks=[float(x[1]), float(x[-1])])
    svg = (tmp_path / "t.svg").read_text()
    coords = [float(v) for v in re.findall(
        r' (?:x|y|x1|y1|x2|y2|cx|cy)="([^"]+)"', svg)]
    coords += [float(v) for v in re.search(
        r'points="([^"]+)"', svg)[1].replace(",", " ").split()]
    assert all(0.0 <= v <= svgplot.WIDTH for v in coords)
    labels = re.findall(r'font-size="11">([^<]+)<', svg)
    assert labels and all(math.isfinite(float(v)) for v in labels)


# ----------------------------------------------------- reference reader

def reference_read(path):
    times, intensity = [], []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ConfigError("trace CSV is empty")
        for row in reader:
            try:
                t, i = float(row[0]), float(row[1])
            except (ValueError, IndexError) as exc:
                raise ConfigError(f"trace CSV line {reader.line_num}: expected"
                                  f" two numbers, got {row!r}") from exc
            if not (math.isfinite(t) and math.isfinite(i)):
                raise ConfigError(f"trace CSV line {reader.line_num}: expected"
                                  f" two finite numbers, got {row!r}")
            if times and t <= times[-1]:
                raise ConfigError(f"trace CSV line {reader.line_num}: time "
                                  f"{t!r} does not come after {times[-1]!r}")
            if i < 0:
                raise ConfigError(f"trace CSV line {reader.line_num}: "
                                  f"intensity {i!r} is negative")
            times.append(t)
            intensity.append(i)
    return np.asarray(times), np.asarray(intensity)


HEADER = 't (internal time),"intensity (internal, |psi|^2)"'
# times increase, as the reader requires; the second row's comes after 0.5
ROWS = ["-1e-320,1.2057765329193035e-12", "0.75,3",
        "6.25,0.30000000000000004"]

# (name, file text)
PARSE_CASES = [
    ("crlf", HEADER + "\r\n" + "\r\n".join(ROWS) + "\r\n"),
    ("lf", HEADER + "\n" + "\n".join(ROWS) + "\n"),
    ("no_final_newline", HEADER + "\n" + "\n".join(ROWS)),
    ("mixed_endings", f"{HEADER}\n{ROWS[0]}\r\n{ROWS[1]}\n"),
    ("header_only", HEADER + "\r\n"),
    ("header_no_newline", HEADER),
    ("empty", ""),
    ("blank_header", "\n" + "\n".join(ROWS) + "\n"),
    ("multiline_header", 't,"a\nb"\n0,1\n2,3\n'),
    ("spaces_and_underscores", "t,i\n 0.5 ,1_0\n1.5,\t2\n"),
    ("blank_middle", f"t,i\n{ROWS[0]}\n\n{ROWS[1]}\n"),
    ("blank_middle_crlf", f"t,i\r\n{ROWS[0]}\r\n\r\n{ROWS[1]}\r\n"),
    ("blank_end", f"t,i\n{ROWS[0]}\n\n"),
    ("blank_end_crlf", f"t,i\r\n{ROWS[0]}\r\n\r\n"),
    ("blank_only_body", "t,i\n\n"),
    ("comment_line", f"t,i\n# note\n{ROWS[0]}\n"),
    ("comment_after_cell", f"t,i\n{ROWS[0]}# note\n"),
    ("quoted_cells", f't,i\n"0.5","1.0"\n{ROWS[1]}\n'),
    ("third_column", f"t,i\n0.5,1.0,x\n{ROWS[1]}\n"),
    ("one_column", f"t,i\n{ROWS[0]}\n0.5\n"),
    ("empty_cell", f"t,i\n{ROWS[0]}\n0.5,\n"),
    ("non_numeric", f"t,i\n{ROWS[0]}\n0.5,abc\n"),
    ("nan_cell", f"t,i\n{ROWS[0]}\nnan,1.0\n"),
    ("inf_cell", f"t,i\n{ROWS[0]}\n0.5,-inf\n"),
    ("overflow_cell", f"t,i\n{ROWS[0]}\n0.5,1e999\n"),
    ("four_columns", "t,i\n0.5,1,2,3\n"),
    ("two_one_column_rows", f"t,i\n{ROWS[0]}\n0.5\n1.5\n"),
    ("cr_endings", "t,i\r0.5,1\r1.5,2\r"),
    ("cr_inside_row", f"t,i\n0.5\r,1\n{ROWS[1]}\n"),
    ("cr_before_crlf", f"t,i\r\n{ROWS[0]}\r\r\n"),
    ("quoted_newline", f't,i\n"0.5\n",1\n{ROWS[1]}\n'),
    ("repeated_time", f"t,i\n{ROWS[1]}\n{ROWS[1]}\n"),
    ("earlier_time", f"t,i\n{ROWS[2]}\n{ROWS[0]}\n"),
    ("negative_zero_after_zero", "t,i\n0,1\n-0.0,1\n"),
    ("negative_intensity", f"t,i\n{ROWS[0]}\n1,-1e-320\n"),
    ("negative_zero_intensity", f"t,i\n{ROWS[0]}\n1,-0.0\n"),
]


def _outcome(read, path):
    try:
        return read(path)
    except ConfigError as exc:
        return str(exc)


@pytest.mark.parametrize("name,text", PARSE_CASES,
                         ids=[c[0] for c in PARSE_CASES])
def test_trace_parse_matches_row_loop(tmp_path, name, text):
    path = tmp_path / "trace.csv"
    with open(path, "w", newline="") as fh:
        fh.write(text)
    want = _outcome(reference_read, path)
    got = _outcome(cli._read_trace_csv, path)
    if isinstance(want, str):
        assert got == want
    else:
        assert not isinstance(got, str), got
        for a, b in zip(got, want):
            assert a.dtype == b.dtype == np.float64
            assert a.shape == b.shape
            assert np.array_equal(a.view(np.int64), b.view(np.int64))


def test_oversized_cell_is_config_error(tmp_path, capsys):
    # the reader turns csv.Error into a configuration error naming the line
    path = tmp_path / "trace.csv"
    cell = "1" * csv.field_size_limit()
    for text, line in [(f"t,i\n0.5,0.{cell}\n", 2),
                       (f"t{cell},i\n0.5,0.1\n", 1),
                       (f"t,i\n0.5,0.1\n0.6,\"0.{cell}\n", 3)]:
        path.write_text(text)
        with pytest.raises(csv.Error):
            reference_read(path)
        with pytest.raises(ConfigError, match=f"trace CSV line {line}: "
                           "field larger than field limit"):
            cli._read_trace_csv(path)
        assert cli.main(["fringes", "--trace", str(path),
                         "--out", str(tmp_path / "out")]) == 2
        assert (f"config error: trace CSV line {line}:"
                in capsys.readouterr().err)


@pytest.mark.parametrize("name,message", [
    ("header_only", "has no data rows"),
    ("header_no_newline", "has no data rows"),
    ("blank_only_body", "line 2: expected two numbers")])
def test_trace_without_data_rows_is_config_error(tmp_path, capsys, name,
                                                 message):
    # the reader returns empty arrays for a header alone, and names the
    # blank row; fringes refuses both before it makes --out
    path = tmp_path / "trace.csv"
    with open(path, "w", newline="") as fh:
        fh.write(dict(PARSE_CASES)[name])
    out = tmp_path / "out"
    assert cli.main(["fringes", "--trace", str(path), "--out", str(out)]) == 2
    assert f"config error: trace CSV {message}" in capsys.readouterr().err
    assert not out.exists()


def test_written_trace_reads_back_bit_for_bit(tmp_path, trace):
    cli._write_trace_csv(tmp_path / "trace.csv", trace)
    times, intensity = cli._read_trace_csv(tmp_path / "trace.csv")
    assert np.array_equal(times.view(np.int64), trace.times.view(np.int64))
    assert np.array_equal(intensity.view(np.int64),
                          trace.intensity.view(np.int64))
