"""The trace writers and the trace reader against the row-by-row code they
replace: the same bytes out, the same arrays and errors in. Every output
file is rewritten in place: the same bytes as in a fresh directory, on the
same inode, with no tail left from a longer file."""

import csv
import json
import math
import os
import re
import stat
import sys
from xml.dom import minidom

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from timefringe import cli, svgplot
from timefringe.errors import ConfigError, NoFringes
from timefringe.experiments import (IntensityTrace, TwoGateConfig,
                                    extract_fringes, two_gate_run)
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


# the desk default, and a long flight at a wide spacing: the longest traces
# a benchmark deck draws, 1907 samples (stueckelberg) and 1347 (floquet)
DECK_SCALE = {"flight_distance": 4.0, "gate_spacing": 48.0}


@pytest.fixture(scope="module", params=[
    *((th, en, {}) for th in THEORIES for en in ENGINES),
    *((th, en, DECK_SCALE) for th in ("stueckelberg", "floquet")
      for en in ENGINES)],
    ids=lambda p: f"{p[0]}-{p[1]}" + ("-eps48-L4" if p[2] else ""))
def trace(request):
    theory, engine, scale = request.param
    return two_gate_run(theory, TwoGateConfig(engine=engine, **scale)).trace


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

    def test_svg_polyline_and_markers_match_point_loop(self, trace):
        peaks = _marker_times(trace)
        assert any(p == trace.times[len(trace.times) // 3] for p in peaks)
        svg = svgplot.line_chart(trace.times, trace.intensity, peaks=peaks)
        pts, circles = reference_polyline_and_markers(
            trace.times, trace.intensity, peaks)
        assert re.search(r'<polyline points="([^"]*)"', svg)[1] == pts
        assert [ln for ln in svg.splitlines() if "<circle" in ln] == circles

    def test_exact_hit_marker_takes_the_sample(self):
        # y0 + 1 * (y1 - y0) rounds away from y1 here, so interpolating
        # onto a sample would move the marker
        x, y = [0.0, 1.0, 2.0, 3.0], [0.7, 0.1, 0.3, 0.2]
        assert y[0] + 1.0 * (y[1] - y[0]) != y[1]
        peaks = [1.0, 0.5, 3.0, -1.0, 4.0, 2.75]
        svg = svgplot.line_chart(x, y, peaks=peaks)
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
    (np.arange(9.0), np.zeros(9)),
    (np.arange(9.0), np.full(9, 1e300)),
], ids=["past-float-max", "x-one-ulp-apart", "y-one-ulp-apart",
        "y-subnormal", "flat", "flat-at-1e300"])
def test_chart_of_any_finite_trace_lies_in_its_box(x, y):
    # spans past the float maximum or below one tick step used to raise or
    # never end; every coordinate is in the box and every label finite
    svg = svgplot.line_chart(x, y, peaks=[float(x[1]), float(x[-1])])
    coords = [float(v) for v in re.findall(
        r' (?:x|y|x1|y1|x2|y2|cx|cy)="([^"]+)"', svg)]
    coords += [float(v) for v in re.search(
        r'points="([^"]+)"', svg)[1].replace(",", " ").split()]
    assert all(0.0 <= v <= svgplot.WIDTH for v in coords)
    labels = re.findall(r'font-size="11">([^<]+)<', svg)
    assert labels and all(math.isfinite(float(v)) for v in labels)


def reference_points(x, y):
    return " ".join(map("{:.2f},{:.2f}".format, x, y))


def test_points_round_every_half_cent_as_format_does():
    # each k/200 is a half-cent or a cent; its neighbours sit one ulp to
    # either side of the tie
    k = np.arange(200_000) / 200
    v = np.concatenate([k, np.nextafter(k, 0), np.nextafter(k, 1000),
                        [0.0, 5e-324, 0.125, 0.375, 899.995, 999.994]])
    v = v[[f"{a:.2f}" != "1000.00" for a in v.tolist()]]
    x, y = v[: v.size // 2], v[v.size // 2: 2 * (v.size // 2)]
    assert svgplot._points(x, y) == reference_points(x.tolist(), y.tolist())


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(0, 1000, exclude_max=True), min_size=2,
                max_size=40))
def test_points_match_format_on_any_float_below_1000(values):
    x, y = values[::2][: len(values) // 2], values[1::2]
    if "1000.00" in reference_points(x, y):
        with pytest.raises(ValueError, match="rounds to 1000.00"):
            svgplot._points(np.array(x), np.array(y))
    else:
        assert svgplot._points(np.array(x), np.array(y)) == \
            reference_points(x, y)


@pytest.mark.parametrize("bad", [
    -0.0, -5e-324, -1.0, math.nan, math.inf, -math.inf, 1000.0,
    np.nextafter(999.995, 1000), 1e300])
def test_points_outside_their_domain_raise(bad):
    # "{:.2f}" would write -0.00, nan, inf or four integer digits: none of
    # them is written, whichever axis holds the value
    for x, y in (([bad, 1.0], [2.0, 3.0]), ([1.0, 2.0], [3.0, bad])):
        with pytest.raises(ValueError):
            svgplot._points(np.array(x), np.array(y))


def test_chart_text_nodes_escape_markup():
    names = {"title": "a&b", "xlabel": "t<0", "ylabel": "I>0",
             "meta": "trace:a&b<c>.csv"}
    svg = svgplot.line_chart([0.0, 1.0], [0.0, 1.0], **names)
    doc = minidom.parseString(svg)
    texts = [n.firstChild.data for n in doc.getElementsByTagName("text")]
    assert doc.getElementsByTagName("desc")[0].firstChild.data == \
        names["meta"]
    assert {"a&b", "t<0", "I>0"} <= set(texts)


# ----------------------------------------------------- reference reader

def reference_read(path):
    """The row-by-row reader that np.loadtxt replaced, on UTF-8 text."""
    times, intensity = [], []
    with open(path, newline="", encoding="utf-8") as fh:
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
    ("spaces", "t,i\n 0.5 ,10\n1.5,\t2\n"),
    ("utf8_bom", "\ufeff" + HEADER + "\r\n" + "\r\n".join(ROWS) + "\r\n"),
    ("nul_in_cell", f"t,i\n{ROWS[0]}\n0.5,1\x00\n"),
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
    # the first bad line in the file is named, whichever check finds it
    ("bad_cell_before_blank", f"t,i\n0.5,x\n\n{ROWS[1]}\n"),
    ("nan_before_bad_cell", f"t,i\n{ROWS[0]}\n0.5,nan\n0.6,x\n"),
    ("earlier_time_before_blank", f"t,i\n{ROWS[2]}\n{ROWS[0]}\n\n"),
    ("late_bad_cell", "t,i\n" + "".join(f"{k},1\n" for k in range(37))
     + "37,x\n38,1\n39,\n"),
]


# (name, file bytes, error) where the row loop's outcome changed on purpose:
# it took 1_0 and non-ASCII digits as float() does, read a header of two physical lines, named a
# row with a quoted line break by its last line, and raised
# UnicodeDecodeError on a file that is not UTF-8
CHANGED_CASES = [
    ("underscore_in_number", b"t,i\n 0.5 ,1_0\n1.5,\t2\n",
     "line 2: expected two numbers, got [' 0.5 ', '1_0']"),
    ("non_ascii_digit", "t,i\n\u0661,1\n".encode(),
     "line 2: expected two numbers, got ['\u0661', '1']"),
    ("multiline_header", b't,"a\nb"\n0,1\n2,3\n',
     "line 2: expected two numbers, got ['b\"']"),
    ("quoted_newline_error", b't,i\n"0.5\n",x\n',
     "line 2: expected two numbers, got ['0.5']"),
    ("not_utf8", b"t,i\n0,1\n\xff\xfe,2\n",
     "line 3: not UTF-8 text (invalid start byte)"),
    ("not_utf8_cr", b"t,i\r0,1\r\r\n1,\xe9\r",
     "line 4: not UTF-8 text (invalid continuation byte)"),
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
    path.write_bytes(text.encode())
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


@pytest.mark.parametrize("name,text,error", CHANGED_CASES,
                         ids=[c[0] for c in CHANGED_CASES])
def test_trace_parse_changed_from_row_loop(tmp_path, capsys, name, text,
                                           error):
    path = tmp_path / "trace.csv"
    path.write_bytes(text)
    with pytest.raises(ConfigError) as info:
        cli._read_trace_csv(path)
    assert str(info.value) == f"trace CSV {error}"
    out = tmp_path / "out"
    assert cli.main(["fringes", "--trace", str(path), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"config error: trace CSV {error}\n"
    assert not out.exists()


def test_oversized_cell_is_read_as_its_number(tmp_path):
    # the row loop raised csv.Error on a cell past csv.field_size_limit(),
    # a limit of the csv module that np.loadtxt does not have
    path = tmp_path / "trace.csv"
    cell = "1" * csv.field_size_limit()
    big = float(f"0.{cell}")
    for text, times, intensity in [
            (f"t,i\n0.5,0.{cell}\n", [0.5], [big]),
            (f"t{cell},i\n0.5,0.1\n", [0.5], [0.1]),
            (f"t,i\n0.5,0.1\n0.6,\"0.{cell}\n", [0.5, 0.6], [0.1, big])]:
        path.write_text(text)
        with pytest.raises(csv.Error):
            reference_read(path)
        got = cli._read_trace_csv(path)
        assert [a.tolist() for a in got] == [times, intensity]


@pytest.mark.parametrize("name,message", [
    ("empty", "is empty"),
    ("header_only", "has no data rows"),
    ("header_no_newline", "has no data rows"),
    ("blank_only_body", "line 2: expected two numbers, got []"),
    ("blank_middle", "line 3: expected two numbers, got []"),
    ("blank_end_crlf", "line 3: expected two numbers, got []"),
    ("comment_line", "line 2: expected two numbers, got ['# note']")])
def test_trace_without_data_rows_is_config_error(tmp_path, capsys, name,
                                                 message):
    # the reader returns empty arrays for a header alone, and names a blank
    # or # line, which np.loadtxt would skip; fringes refuses each before it
    # makes --out, and prints no loadtxt "input contained no data" warning
    path = tmp_path / "trace.csv"
    path.write_bytes(dict(PARSE_CASES)[name].encode())
    out = tmp_path / "out"
    assert cli.main(["fringes", "--trace", str(path), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"config error: trace CSV {message}\n"
    assert not out.exists()


def test_written_trace_reads_back_bit_for_bit(tmp_path, trace):
    cli._write_trace_csv(tmp_path / "trace.csv", trace)
    times, intensity = cli._read_trace_csv(tmp_path / "trace.csv")
    assert np.array_equal(times.view(np.int64), trace.times.view(np.int64))
    assert np.array_equal(intensity.view(np.int64),
                          trace.intensity.view(np.int64))


FINITE = st.floats(allow_nan=False, allow_infinity=False)
EDGES = [-0.0, 0.0, 5e-324, 2.2250738585072009e-308, 2.2250738585072014e-308,
         1.7976931348623155e308, sys.float_info.max]


@given(times=st.lists(FINITE, min_size=1, max_size=40, unique=True)
       .map(sorted),
       intensity=st.lists(st.one_of(st.sampled_from(EDGES),
                                    FINITE.map(abs)), min_size=40,
                          max_size=40))
@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_any_trace_round_trips_bit_for_bit(tmp_path, times, intensity):
    # each example rewrites the same file in place
    path = tmp_path / "trace.csv"
    trace = IntensityTrace(times=np.array(times),
                           intensity=np.array(intensity[:len(times)]),
                           detector_x=float("nan"), theory="any")
    cli._write_trace_csv(path, trace)
    assert path.read_bytes().decode() == (
        't (internal time),"intensity (internal, |psi|^2)"\r\n'
        + "".join(map("{:.17g},{:.17g}\r\n".format, trace.times.tolist(),
                      trace.intensity.tolist())))
    got = cli._read_trace_csv(path)
    for a, b in zip(got, (trace.times, trace.intensity)):
        assert a.dtype == np.float64 and a.flags.c_contiguous
        assert np.array_equal(a.view(np.int64), b.view(np.int64))


# ------------------------------------------------------ in-place rewrites

def _commands(source):
    """(name, argv without --out, files written) of the four commands;
    fringes re-reads the trace at source."""
    return [
        ("simulate", ["simulate"], ["trace.csv", "trace.svg", "report.json"]),
        ("scan", ["scan", "--param", "gate_spacing", "--values", "12,24"],
         ["scan.csv", "report.json"]),
        ("fringes", ["fringes", "--trace", str(source)],
         ["fringes.svg", "report.json"]),
        ("estimate", ["estimate"], ["estimate.csv", "report.json"]),
    ]


@pytest.fixture(scope="module")
def fresh(tmp_path_factory):
    """The files of each command run into a fresh --out, by name."""
    base = tmp_path_factory.mktemp("fresh")
    assert cli.main(["simulate", "--out", str(base / "source")]) == 0
    source = base / "source" / "trace.csv"
    files = {}
    for name, argv, written in _commands(source):
        assert cli.main([*argv, "--out", str(base / name)]) == 0
        assert sorted(p.name for p in (base / name).iterdir()) == sorted(
            written)
        files[name] = {f: (base / name / f).read_bytes() for f in written}
    return source, files


def _same_output(got: bytes, want: bytes, fname: str) -> bool:
    """Byte equality; a report is compared as strict JSON without its
    timing, which differs from run to run."""
    if fname != "report.json":
        return got == want
    a, b = json.loads(got), json.loads(want)
    a.pop("wall_time_s", None)
    b.pop("wall_time_s", None)
    return a == b


@pytest.mark.parametrize("newline", [None, ""])
def test_shorter_rewrite_leaves_only_the_new_bytes(tmp_path, newline):
    path = tmp_path / "f.txt"
    with cli._rewrite(path, newline=newline) as fh:
        fh.write("a much longer first version\r\n" * 100)
    inode = path.stat().st_ino
    os.link(path, tmp_path / "link")  # a freed inode number can come back
    with cli._rewrite(path, newline=newline) as fh:
        fh.write("short\r\n")
    assert path.read_bytes() == b"short\r\n"
    assert path.stat().st_ino == inode
    assert (tmp_path / "link").read_bytes() == b"short\r\n"


def test_output_linked_to_dev_null_is_discarded(tmp_path, capsys):
    # a device has no length to cut
    out = tmp_path / "out"
    out.mkdir()
    (out / "trace.svg").symlink_to(os.devnull)
    assert cli.main(["simulate", "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    assert (out / "trace.svg").is_symlink()
    assert (out / "trace.csv").stat().st_size > 0


def test_new_file_has_the_mode_open_w_gives(tmp_path):
    old = os.umask(0o027)
    try:
        with cli._rewrite(tmp_path / "new.txt") as fh:
            fh.write("x")
        with open(tmp_path / "ref.txt", "w") as fh:
            fh.write("x")
    finally:
        os.umask(old)
    assert (stat.S_IMODE((tmp_path / "new.txt").stat().st_mode)
            == stat.S_IMODE((tmp_path / "ref.txt").stat().st_mode) == 0o640)


@pytest.mark.parametrize("command", ["simulate", "scan", "fringes",
                                     "estimate"])
def test_rewrite_over_longer_files_matches_a_fresh_out(tmp_path, capsys,
                                                       fresh, command):
    # another run left longer files, with their own mode, in --out
    source, files = fresh
    name, argv, written = next(c for c in _commands(source)
                               if c[0] == command)
    out = tmp_path / "out"
    out.mkdir()
    before = {}
    for fname in written:
        (out / fname).write_bytes(b"stale,0\r\n" + 2 * files[name][fname])
        (out / fname).chmod(0o640)
        before[fname] = (out / fname).stat().st_ino
    assert cli.main([*argv, "--out", str(out)]) == 0
    capsys.readouterr()
    for fname in written:
        st = (out / fname).stat()
        assert st.st_ino == before[fname]
        assert stat.S_IMODE(st.st_mode) == 0o640
        assert _same_output((out / fname).read_bytes(), files[name][fname],
                            fname), fname


def test_no_output_is_opened_with_o_trunc(tmp_path, capsys, monkeypatch,
                                          fresh):
    # every file a command writes goes through os.open, without O_TRUNC: a
    # truncating open costs a writeback on ext4 when the file closes
    source, _ = fresh
    opened = []
    real_open = os.open

    def recording_open(path, flags, *args, **kwargs):
        opened.append((os.fspath(path), flags))
        return real_open(path, flags, *args, **kwargs)
    monkeypatch.setattr(os, "open", recording_open)
    for _ in range(2):  # into a fresh --out, then over its files
        for name, argv, written in _commands(source):
            out = tmp_path / name
            assert cli.main([*argv, "--out", str(out)]) == 0
            for fname in written:
                flags = [f for p, f in opened if p == str(out / fname)]
                assert flags, f"{name} wrote {fname} without os.open"
                assert not any(f & os.O_TRUNC for f in flags), fname
            opened.clear()
    capsys.readouterr()
