"""In-memory spans recorded by the benchmark around its calls into qconsensus.

A span is (name, start, end, parent, run id). Names are ``<layer>.<call>``,
where the layer is the qconsensus module the call enters (``graphs``,
``walks``, ``walks.mc``, ``harness``, ``consensus``) or ``bench`` for the
benchmark's own code. Spans live in a list until the run ends and are
written out once, so recording costs two clock reads and an append.

The tracers also carry the speed probe, which runs at the boundaries
between timed items in both traced and untraced units.
"""

from __future__ import annotations

import csv
from time import perf_counter

LAYERS = ("graphs", "walks", "walks.mc", "harness", "consensus", "bench")
PROBE_INTERVAL_S = 0.2
PROBE_LOOPS = 250_000
PROBE_BURST = 5  # most probes run at one point, after a long timed item


def speed_probe() -> float:
    """Seconds for a fixed pure-Python loop, about 10 ms on a 2020s x86 core."""
    t = perf_counter()
    acc = 0
    for i in range(PROBE_LOOPS):
        acc += i & 7
    return perf_counter() - t


class SpeedProbe:
    """Times ``speed_probe`` once per PROBE_INTERVAL_S of work, between timed items.

    A shared host's speed drifts by 10-20% within seconds and over minutes,
    and the drift slows this loop and the workloads alike: the log time of a
    traced run and of the probe just before it correlate at 0.76, with slope
    1.0. Over 25 s windows of a 3-minute trace, the median per-tick cost of
    traced runs spread 30% (quartile distance over median); its fastest
    decile over the probe's fastest decile spread 1.2%. ``spent`` is the
    time taken by the probes, which the caller subtracts from its timings.
    """

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0
        self._last = perf_counter() - PROBE_INTERVAL_S

    def due(self) -> bool:
        return perf_counter() - self._last >= PROBE_INTERVAL_S

    def run(self) -> None:
        start = perf_counter()
        count = min(PROBE_BURST, max(1, int((start - self._last) / PROBE_INTERVAL_S)))
        self.samples += [speed_probe() for _ in range(count)]
        self._last = perf_counter()
        self.spent += self._last - start


class NullTracer:
    """Untraced mode: calls go straight through."""

    run_id = 0

    def __init__(self, probe: SpeedProbe | None = None):
        self.probe = probe

    @property
    def probe_spent(self) -> float:
        return self.probe.spent if self.probe is not None else 0.0

    def boundary(self):
        """A point between timed items, where the speed probe may run."""
        if self.probe is not None and self.probe.due():
            self.probe.run()

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def begin(self, name):
        pass

    def end(self):
        pass


class Tracer(NullTracer):
    """Records one span per call made through ``call`` or ``begin``/``end``."""

    def __init__(self, probe: SpeedProbe | None = None):
        super().__init__(probe)
        self.spans: list[list] = []  # [name, start, end, parent index, run id]
        self._open: list[int] = []
        self.run_id = 0

    def boundary(self):
        """Like NullTracer.boundary; probe time shows as a ``probe.speed`` span."""
        if self.probe is not None and self.probe.due():
            self.begin("probe.speed")
            self.probe.run()
            self.end()

    def begin(self, name):
        parent = self._open[-1] if self._open else -1
        self._open.append(len(self.spans))
        self.spans.append([name, perf_counter(), 0.0, parent, self.run_id])

    def end(self):
        self.spans[self._open.pop()][2] = perf_counter()

    def call(self, name, fn, *args, **kwargs):
        self.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.end()

    def unit_totals(self, root: str = "bench.unit") -> list[dict[str, list]]:
        """For each top-level ``root`` span: name -> [calls, duration, self time].

        Self time is a span's duration minus the durations of its direct
        children; everything runs on one thread, so children never overlap.
        A parent span is always recorded before its children.
        """
        child = [0.0] * len(self.spans)
        top = list(range(len(self.spans)))
        for k, (_, start, end, parent, _) in enumerate(self.spans):
            if parent >= 0:
                child[parent] += end - start
                top[k] = top[parent]
        units: dict[int, dict[str, list]] = {}
        for k, (name, start, end, _, _) in enumerate(self.spans):
            if self.spans[top[k]][0] != root:
                continue
            row = units.setdefault(top[k], {}).setdefault(name, [0, 0.0, 0.0])
            row[0] += 1
            row[1] += end - start
            row[2] += end - start - child[k]
        return list(units.values())

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(("name", "start_s", "end_s", "parent", "run_id"))
            t0 = self.spans[0][1] if self.spans else 0.0
            for name, start, end, parent, run_id in self.spans:
                writer.writerow((name, repr(start - t0), repr(end - t0), parent, run_id))


def layer_of(name: str) -> str:
    return name.rsplit(".", 1)[0]


def layer_self_time(totals, layer: str) -> float:
    return sum(row[2] for name, row in totals.items() if layer_of(name) == layer)
