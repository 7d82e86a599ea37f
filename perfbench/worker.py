"""One benchmark worker: a fresh interpreter that runs one unit of a workload.

    python3 perfbench/worker.py <census|ds|spectra> <seed> <index> <traced 0|1> <first round 0|1>

A unit is one census, one DS verdict (the item `index` of
`inputs.ds_queries(seed)`) or the whole spectra stream.  Starting each unit in a new process gives it the
empty program caches a separate `specgraph` process starts with, whatever
caches the program keeps.

Prints one JSON line: the CLOCK_MONOTONIC time at which imports and input
generation were done (`ready`), each operation's latency, output or error and
chunk, the reference samples, the peak RSS, and, when traced, the spans and
counts.  Only the program calls of an operation are timed; converting outputs
and the post-run relabelling check are not.

Reference samples time `reference_task`: once before the first operation,
every REF_EVERY_S of wall time from a SIGALRM handler, also in the middle of
an operation, and once after the last one.  Each sample is `[start, duration]`
on the clock the operations are timed with, so the run can take the samples
inside an operation out of its latency and report the latency in multiples of
the samples around it (see README.md).
"""

from __future__ import annotations

import functools
import json
import signal
import sys
import time
import warnings
from pathlib import Path

import inputs

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from specgraph import search  # noqa: E402  (needs the path above)
from specgraph.canonical import canonical_form  # noqa: E402
from specgraph.cp import is_cp_graph  # noqa: E402
from specgraph.exact import charpoly, closed_form_spectrum  # noqa: E402
from specgraph.graph6 import graph6_decode  # noqa: E402
from specgraph.graphs import FamilyKind, FamilySpec, Graph  # noqa: E402
from specgraph.numeric import count_geq, count_leq, eigenvalues  # noqa: E402

REF_EVERY_S = 0.5
REF_LOOPS = 200_000


class Tracer:
    """Spans `[id, parent, name, start, end]` and counts, kept in memory.

    Untraced, `call` only forwards, so both modes run the same code path.
    """

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.spans: list[list] = []
        self.counts: dict[str, int] = {}
        self._open: list = [None]

    def call(self, name: str, fn, *args, **kwargs):
        if not self.enabled:
            return fn(*args, **kwargs)
        record = [len(self.spans), self._open[-1], name, time.perf_counter(), None]
        self.spans.append(record)
        self._open.append(record[0])
        try:
            return fn(*args, **kwargs)
        finally:
            self._open.pop()
            record[4] = time.perf_counter()

    def count(self, name: str, k: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + k


def peak_rss_kb() -> int:
    """This process's peak RSS since exec (VmHWM).

    Not ru_maxrss: Linux carries the parent's peak over fork and exec into it.
    """
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def reference_task() -> int:
    """A fixed pure-Python task, about 70 ms here: dict updates and integer arithmetic."""
    table: dict[int, int] = {}
    mixed = 0
    for i in range(REF_LOOPS):
        table[i & 1023] = (table.get(i & 1023, 0) * 31 + i) & 0xFFFFFFFF
        mixed ^= (i * i) >> 3
    return mixed ^ len(table)


class Reference:
    """Reference samples `[start, duration]`, taken on demand and by a timer."""

    def __init__(self) -> None:
        self.samples: list[list[float]] = []

    def sample(self, *_signal) -> None:
        start = time.perf_counter()
        reference_task()
        self.samples.append([start, time.perf_counter() - start])

    def start_timer(self) -> None:
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, REF_EVERY_S, REF_EVERY_S)

    def stop_timer(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def timed_op(tracer: Tracer, fn, *args) -> dict:
    """Run one operation; an exception from the program counts it as failed."""
    start = time.perf_counter()
    try:
        result = tracer.call("op", fn, *args)
        error = None
    except Exception as exc:  # any program fault fails the operation, not the run
        result, error = None, f"{type(exc).__name__}: {exc}"
    return {"start": start, "latency_s": time.perf_counter() - start, "result": result,
            "error": error}


def census_query(tracer: Tracer, item: None):
    n = inputs.CENSUS_ORDER
    graphs = tracer.call("search.enumerate", search.enumerate_graphs, n)
    report = tracer.call("exact.charpoly", search.cospectral_classes, n)
    verdicts = [tracer.call("cp.is_cp_graph", is_cp_graph, g) for g in graphs]
    return graphs, report, verdicts


def census_output(tracer: Tracer, item: None, result) -> dict:
    graphs, report, verdicts = result
    tracer.count("search.graphs", report.graph_count)
    tracer.count("exact.classes", report.class_count)
    tracer.count("cp.non_cp", sum(not v.is_cp for v in verdicts))
    return {
        "graphs": [g.bits for g in graphs],
        "class_count": report.class_count,
        "nontrivial": [[g.bits for g in cls] for cls in report.nontrivial_classes],
        "witnesses": [None if v.is_cp else list(v.witness) for v in verdicts],
    }


def ds_query(tracer: Tracer, item: dict):
    g = tracer.call("graph6.decode", graph6_decode, item["g6"])
    return g, tracer.call("search.is_ds", search.is_ds, g)


def ds_output(tracer: Tracer, item: dict, result) -> dict:
    g, verdict = result
    return {"bits": g.bits, "is_ds": verdict.is_ds, "mates": [h.bits for h in verdict.mates],
            "searched_order": verdict.searched_order}


def trace_enumeration(tracer: Tracer) -> None:
    """Nest a search.enumerate span inside search.is_ds.

    is_ds enumerates through this module attribute.  Wrapping it splits the
    time without running the enumeration beforehand, which a search limited to
    one edge count would not need.
    """
    enumerate_graphs = search.enumerate_graphs

    def traced(*args, **kwargs):
        graphs = tracer.call("search.enumerate", enumerate_graphs, *args, **kwargs)
        tracer.count("search.graphs", len(graphs))
        return graphs

    search.enumerate_graphs = traced


def spectra_query(tracer: Tracer, item: dict):
    """The calls `specgraph spectrum` makes, plus exact counts, canonical form and CP."""
    g = tracer.call("graph6.decode", graph6_decode, item["g6"])
    poly = tracer.call("exact.charpoly", charpoly, g)
    spectrum = tracer.call("numeric.eigenvalues", eigenvalues, g)
    spectrum.clustered()
    closed = None
    if item["family"] is not None:
        kind, params = item["family"]
        closed = tracer.call("exact.closed_form", closed_form_spectrum,
                             FamilySpec(FamilyKind(kind), tuple(params)))
    leq = tracer.call("polynomials.count", count_leq, g, -1)
    geq = tracer.call("polynomials.count", count_geq, g, 0)
    canon = verdict = None
    if g.order <= inputs.SPECTRA_SMALL_ORDER:
        canon = tracer.call("canonical.canonical_form", canonical_form, g)
        verdict = tracer.call("cp.is_cp_graph", is_cp_graph, g)
    return g, poly, spectrum, closed, leq, geq, canon, verdict


def spectra_output(tracer: Tracer, item: dict, result, relabel_check: bool = True) -> dict:
    g, poly, spectrum, closed, leq, geq, canon, verdict = result
    out = {
        "bits": g.bits,
        "charpoly": list(poly.coeffs),
        "eigenvalues": list(spectrum.values),
        "closed_form": closed.values_float() if closed is not None else None,
        "leq_minus1": leq,
        "geq_0": geq,
        "canonical": None,
        "canonical_relabelled": None,
        "witness": None,
    }
    if canon is not None:
        n = item["order"]
        out["canonical"] = canon.key
        # family members are checked without the program; later rounds skip the check
        if item["family"] is None and relabel_check:
            relabelled = Graph(n, inputs.relabel(n, item["bits"], item["perm"]))
            out["canonical_relabelled"] = canonical_form(relabelled).key  # not timed
        out["is_cp"] = verdict.is_cp
        out["witness"] = list(verdict.witness) if verdict.witness is not None else None
        tracer.count("cp.non_cp", not verdict.is_cp)
    return out


# workload: (items for a seed and unit index, timed query, output conversion)
WORKLOADS = {
    "census": (lambda seed, index: [None], census_query, census_output),
    "ds": (lambda seed, index: [inputs.ds_queries(seed)[index]], ds_query, ds_output),
    "spectra": (lambda seed, index: inputs.spectra_queries(seed), spectra_query, spectra_output),
}


def main(argv: list[str]) -> int:
    workload, seed, index, traced = argv[0], int(argv[1]), int(argv[2]), argv[3] == "1"
    make_items, query, output = WORKLOADS[workload]
    if workload == "spectra" and argv[4] == "0":
        output = functools.partial(spectra_output, relabel_check=False)
    warnings.simplefilter("ignore", ResourceWarning)
    tracer = Tracer(traced)
    if traced and workload == "ds":
        trace_enumeration(tracer)
    items = make_items(seed, index)
    ready = time.clock_gettime(time.CLOCK_MONOTONIC)
    reference = Reference()
    reference.sample()
    reference.start_timer()
    ops = [timed_op(tracer, query, tracer, item) for item in items]
    reference.stop_timer()
    reference.sample()
    rss_kb = peak_rss_kb()
    for item, op in zip(items, ops):
        if op["error"] is None:
            op["result"] = output(tracer, item, op["result"])
    print(json.dumps({"ready": ready, "ops": ops, "refs": reference.samples, "rss_kb": rss_kb,
                      "spans": tracer.spans, "counts": tracer.counts}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
