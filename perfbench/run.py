"""specgraph benchmark: a cold order-8 census, cold DS verdicts and a spectra stream.

    python3 perfbench/run.py --workload {census,ds,spectra} --seed N --seconds S --trace {0,1}

A round is the workload's fixed work list: one census, the 13 DS verdicts,
or the whole spectra stream, all made from the seed.  The run repeats whole
rounds, with workers=1, while the next round fits in `--seconds` (at least
one round; an even number when traced).  Every census,
every DS verdict and every spectra stream runs in a fresh worker process
(worker.py), so each starts from empty program caches.  The first round's outputs are checked against independent
computations (oracles.py), and every later round must repeat them.

Times are reported in reference seconds.  Each worker times a fixed
reference task before its first operation, every half second (also in the
middle of an operation) and after its last one (worker.py).  An operation's
latency, less the samples taken inside it, is scaled by REF_SECONDS over the
mean of the samples from the last one before it to the first one after it: a
reference sample counts as REF_SECONDS.  The speed of a shared VM drifts by
tens of percent within seconds, and the reference task slows with it, so the
scaled time stays put where the measured one does not.  An operation's time
is the median of its scaled latencies over the run's rounds.  Set-up time is
scaled by the worker's first reference sample, and per-layer times by the
median of its worker's samples.

The last line of stdout is one JSON object with `correct`, `attempted`,
`failed` and `metrics`.  With `--trace 0` the metrics are the end-to-end
ones; with `--trace 1` rounds alternate untraced and traced, and the metrics
are the per-layer ones from the traced rounds plus the tracing overhead.  The
result and, when traced, the spans are also written to perfbench/results/.
See perfbench/README.md for the workloads, the metrics and the bounds.
"""

from __future__ import annotations

import argparse
import bisect
import itertools
import json
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

import inputs
import oracles

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
WORKER_TIMEOUT_S = 150
# A reference sample counts as this many seconds: about what reference_task
# took when the VM behind README.md's figures ran fastest.
REF_SECONDS = 0.070
# Rounds with fewer operations than this report their slowest one as the tail.
TAIL_MIN_SAMPLES = 40
TAIL_BEYOND = 10

LAYER_TIMES = ("search.enumerate", "search.is_ds", "exact.charpoly", "cp.is_cp_graph",
               "numeric.eigenvalues", "polynomials.count", "canonical.canonical_form",
               "exact.closed_form", "graph6.decode")
LAYER_COUNTS = ("search.graphs", "exact.classes", "cp.non_cp")


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def run_worker(workload: str, seed: int, index: int, traced: bool, first: bool) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), workload, str(seed), str(index),
           "1" if traced else "0", "1" if first else "0"]
    spawned = now()
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                          timeout=WORKER_TIMEOUT_S, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"worker {cmd[2:]} exited {proc.returncode}: {proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.splitlines()[-1])
    result["setup_s"] = result["ready"] - spawned
    result["traced"] = traced
    result["index"] = index
    return result


def run_rounds(workload: str, seed: int, seconds: float, trace: bool) -> list[list[dict]]:
    """Whole rounds, one worker per DS verdict, for about `seconds`.

    A round starts only if, at the pace of the longest round so far, it ends
    within `seconds`.  There is at least one round, and an
    even number of at least two when traced.
    """
    units = range(len(inputs.ds_queries(seed))) if workload == "ds" else range(1)
    rounds, longest = [], 0.0
    start = now()
    while (not rounds or now() - start + longest <= seconds
           or (trace and len(rounds) % 2)):
        traced = trace and len(rounds) % 2 == 1
        began = now()
        rounds.append([run_worker(workload, seed, i, traced, not rounds) for i in units])
        longest = max(longest, now() - began)
    return rounds


def outputs(ws: list[dict]) -> list:
    return [op["result"] for w in ws for op in w["ops"]]


def repeated(ws: list[dict]) -> list:
    """The outputs every round must repeat: all but the first round's relabelling check."""
    return [{k: v for k, v in out.items() if k != "canonical_relabelled"}
            if isinstance(out, dict) else out for out in outputs(ws)]


def check_rounds(workload: str, seed: int, rounds: list[list[dict]]) -> list[str]:
    """Check the first round against the oracles and every later one against it."""
    first = outputs(rounds[0])
    errors = [f"round {r} outputs differ from round 0"
              for r, ws in enumerate(rounds) if repeated(ws) != repeated(rounds[0])]
    if workload == "census":
        if first[0] is not None:
            errors += oracles.check_census(first[0])
    elif workload == "ds":
        for item, out in zip(inputs.ds_queries(seed), first):
            if out is not None:
                errors += oracles.check_ds(item, out)
    else:
        errors += oracles.check_spectra(inputs.spectra_queries(seed), first)
    return errors


def reference_seconds(w: dict, op: dict) -> float:
    """The operation's latency less the samples inside it, scaled by the samples around it."""
    starts = [start for start, _ in w["refs"]]
    end = op["start"] + op["latency_s"]
    first = bisect.bisect_right(starts, op["start"]) - 1
    last = bisect.bisect_left(starts, end)
    around = [duration for _, duration in w["refs"][first:last + 1]]
    inside = sum(around[1:-1])
    return (op["latency_s"] - inside) * REF_SECONDS / statistics.fmean(around)


def latencies(rounds: list[list[dict]]) -> list[float]:
    """Each operation's latency in reference seconds, the median over the rounds."""
    per_round = [[reference_seconds(w, op) for w in ws for op in w["ops"]] for ws in rounds]
    return [statistics.median(column) for column in zip(*per_round)]


def tail(latencies: list[float]) -> float:
    """The highest-percentile latency with TAIL_BEYOND samples beyond it, or the slowest."""
    ordered = sorted(latencies)
    if len(ordered) >= TAIL_MIN_SAMPLES:
        return ordered[-(TAIL_BEYOND + 1)]
    return ordered[-1]


def end_to_end(rounds: list[list[dict]]) -> dict:
    workers = [w for ws in rounds for w in ws]
    ops = latencies(rounds)
    return {
        "wall_s": (sum(ops), "s"),
        "latency_p50_ms": (1000 * statistics.median(ops), "ms"),
        "latency_tail_ms": (1000 * tail(ops), "ms"),
        "peak_rss_mb": (max(w["rss_kb"] for w in workers) / 1024, "MB"),
        "setup_s": (statistics.median(w["setup_s"] * REF_SECONDS / w["refs"][0][1]
                                      for w in workers), "s"),
    }


def self_times(spans: list[list], refs: list[list[float]]) -> dict[str, list[float]]:
    """Per name: durations minus the part covered by child spans.

    Reference samples taken inside a span are not part of its duration.
    """
    starts = [start for start, _ in refs]
    ends = list(itertools.accumulate((duration for _, duration in refs), initial=0.0))

    def net(start: float, end: float) -> float:
        inside = ends[bisect.bisect_left(starts, end)] - ends[bisect.bisect_left(starts, start)]
        return end - start - inside

    child = defaultdict(float)
    for _, parent, _, start, end in spans:
        if parent is not None:
            child[parent] += net(start, end)
    out = defaultdict(list)
    for span_id, _, name, start, end in spans:
        out[name].append(net(start, end) - child[span_id])
    return out


def per_layer(rounds: list[list[dict]]) -> dict:
    """Per-layer self times in reference seconds (minimum over traced rounds), calls and
    counts per round, the tracing overhead and the measured reference sample."""
    traced = [ws for ws in rounds if ws[0]["traced"]]
    times, calls, counts = defaultdict(list), defaultdict(int), defaultdict(int)
    for r, ws in enumerate(traced):
        totals = defaultdict(float)
        for w in ws:
            scale = REF_SECONDS / statistics.median(duration for _, duration in w["refs"])
            for name, values in self_times(w["spans"], w["refs"]).items():
                totals[name] += scale * sum(values)
                if r == 0:
                    calls[name] += len(values)
            if r == 0:
                for name, k in w["counts"].items():
                    counts[name] += k
        for name in LAYER_TIMES:
            times[name].append(totals[name])
    metrics = {f"{name}_s": (min(times[name]), "s") for name in LAYER_TIMES}
    metrics.update({name: (counts[name], "count") for name in LAYER_COUNTS})
    metrics.update({f"{name}.calls": (calls[name], "count") for name in LAYER_TIMES})
    untraced = [ws for ws in rounds if not ws[0]["traced"]]
    metrics["trace.overhead_s"] = (sum(latencies(traced)) - sum(latencies(untraced)), "s")
    refs = [duration for ws in rounds for w in ws for _, duration in w["refs"]]
    metrics["reference_ms"] = (1000 * statistics.median(refs), "ms")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("census", "ds", "spectra"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "specgraph" / "__init__.py").is_file():
        print(f"no specgraph sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    rounds = run_rounds(args.workload, args.seed, args.seconds, bool(args.trace))
    try:
        errors = check_rounds(args.workload, args.seed, rounds)
    except Exception:  # an output the checks cannot read is an incorrect output
        errors = [traceback.format_exc()]
    ops = [op for ws in rounds for w in ws for op in w["ops"]]
    failed = [op["error"] for op in ops if op["error"] is not None]
    for message in errors + failed:
        print(message, file=sys.stderr)
    if args.trace:
        metrics = per_layer(rounds)
    else:
        metrics = end_to_end(rounds)
    result = {
        "correct": not errors,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (RESULTS / f"{stem}.json").write_text(json.dumps(result, indent=2) + "\n")
    if args.trace:
        with open(RESULTS / f"{stem}.spans.jsonl", "w") as handle:
            for r, ws in enumerate(rounds):
                for w in ws:
                    for span_id, parent, name, start, end in w["spans"]:
                        handle.write(json.dumps({
                            "round": r, "unit": w["index"], "id": span_id,
                            "parent": parent, "name": name, "start": start, "end": end}) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
