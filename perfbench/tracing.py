"""Outside-in span tracing of timefringe's layers.

While a Tracer is installed, each traced public function is replaced, at the
module attribute its caller looks up, by a wrapper that records a span:
(id, parent, op id, layer, start, end, info). A function looked up under two
names is wrapped at both: ``visibility_scan`` resolves ``two_gate_run`` and
``extract_fringes`` in ``timefringe.experiments``, the CLI in
``timefringe.cli``. Spans stay in memory until the run ends; self times are
derived from them afterwards.
"""

from __future__ import annotations

import contextlib
import csv
import itertools
import threading
from collections import defaultdict
from time import perf_counter

from timefringe import cli, experiments, propagation

OP_LAYER = "cli"

# (module, attribute, layer)
TARGETS = (
    (cli, "two_gate_run", "experiments.two_gate"),
    (experiments, "two_gate_run", "experiments.two_gate"),
    (cli, "extract_fringes", "experiments.fringes"),
    (experiments, "extract_fringes", "experiments.fringes"),
    (cli, "visibility_scan", "experiments.scan"),
    (cli, "line_chart", "svgplot.line_chart"),
    (experiments, "auto_output_grid", "propagation.grid"),
    (experiments, "propagate_stueckelberg", "propagation.propagate"),
    (experiments, "propagate_floquet", "propagation.propagate"),
    (experiments, "propagate_component", "propagation.component"),
    (propagation, "propagate_component", "propagation.component"),
)


def _info(layer: str, result, kwargs) -> tuple:
    """Counts taken where the work happens."""
    if layer == "propagation.propagate":
        # two_gate_run keeps one detector column of n_t samples per field
        return result.field.size, result.field.shape[1]
    if layer == "experiments.scan":
        return (len(result), sum(r.error is not None for r in result),
                kwargs.get("workers", 1))
    return ()


class Tracer:
    def __init__(self):
        self.spans = []
        self._ids = itertools.count(1)
        self._main = []                  # open span ids on the main thread
        self._local = threading.local()  # open span ids on worker threads
        self._originals = [getattr(m, name) for m, name, _ in TARGETS]
        self._wrappers = [self._wrap(fn, layer)
                          for fn, (_, _, layer) in zip(self._originals, TARGETS)]
        self._op = 0

    def _stack(self) -> list:
        if threading.current_thread() is threading.main_thread():
            return self._main
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _span(self, layer: str, fn, args, kwargs):
        stack = self._stack()
        # a worker thread's first span belongs to the main thread's open span
        parent = stack[-1] if stack else (self._main[-1] if self._main else 0)
        sid = next(self._ids)
        stack.append(sid)
        info = ()
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
            info = _info(layer, result, kwargs)
            return result
        except BaseException as exc:
            info = (type(exc).__name__,)
            raise
        finally:
            end = perf_counter()
            stack.pop()
            self.spans.append((sid, parent, self._op, layer, start, end, info))

    def _wrap(self, fn, layer: str):
        def traced(*args, **kwargs):
            return self._span(layer, fn, args, kwargs)
        return traced

    @contextlib.contextmanager
    def op(self, op_id: int):
        """Install the wrappers around one op; the op itself is the root span
        of layer ``cli``."""
        self._op = op_id
        for (module, name, _), wrapper in zip(TARGETS, self._wrappers):
            setattr(module, name, wrapper)
        sid = next(self._ids)
        self._main.append(sid)
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            self._main.pop()
            self.spans.append((sid, 0, op_id, OP_LAYER, start, end, ()))
            for (module, name, _), fn in zip(TARGETS, self._originals):
                setattr(module, name, fn)

    def write(self, path) -> None:
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["span", "parent", "op", "layer", "start_s", "end_s",
                        "info"])
            for sid, parent, op, layer, start, end, info in self.spans:
                w.writerow([sid, parent, op, layer, repr(start), repr(end),
                            " ".join(map(str, info))])


def _covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


def layer_totals(spans) -> dict:
    """Per layer: calls, self seconds (duration minus the union of its child
    spans) and summed counts; plus the scan's busy time and capacity."""
    children = defaultdict(list)
    for span in spans:
        children[span[1]].append(span)
    tot = defaultdict(float)
    for sid, parent, _, layer, start, end, info in spans:
        kids = children.get(sid, ())
        tot[f"{layer}.calls"] += 1
        tot[f"{layer}.self_s"] += (end - start) - _covered(
            [(k[4], k[5]) for k in kids], start, end)
        if layer == "propagation.propagate" and len(info) == 2:
            tot["propagation.propagate.cells"] += info[0]
            tot["propagation.propagate.kept"] += info[1]
        elif layer == "experiments.fringes" and info == ("NoFringes",):
            tot["experiments.fringes.nofringes"] += 1
        elif layer == "experiments.scan" and len(info) == 3:
            rows, errors, workers = info
            tot["experiments.scan.rows"] += rows
            tot["experiments.scan.row_errors"] += errors
            tot["experiments.scan.capacity_s"] += (end - start) * max(workers, 1)
            tot["experiments.scan.busy_s"] += sum(
                k[5] - k[4] for k in kids if k[3] == "experiments.two_gate")
    return tot
