"""Closed-loop benchmark of `selinf test`, the command users run.

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 benchmark/run.py --self-test

Run from the root of a source checkout: the program is imported from
./src, never from an installed copy.  One client in one thread sends one
request at a time, `selinf.cli.main(["test", FILE, "--json"])` with stdout
captured and the report parsed, cycling through the workload's datasets in
whole passes until S seconds of requests have run.  The datasets are written
by datasets.py from the seed; every report is checked against their ground
truth (checks.py), and every certificate once per run.

--trace 0 prints the end-to-end metrics; --trace 1 makes a fixed number of
passes, alternately untraced and traced (spans.py), and prints the per-layer
metrics per pass plus the tracing overhead.  The last line of stdout is one
JSON object: {"correct", "attempted", "failed", "metrics"}.
"""
from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import resource
import statistics
import sys
from collections import defaultdict
from fractions import Fraction
from time import perf_counter

import checks
import datasets
import hostspeed
import spans

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
OUT = os.path.join(HERE, "out")

WORKLOADS = ("lft-pivot", "lft-presolve", "battery-sweep")
# passes of the traced run, each sent once untraced and once traced: a fixed
# number, so its counts repeat exactly; about 10-45 s per run
TRACE_PASSES = {"lft-pivot": 1, "lft-presolve": 1, "battery-sweep": 16}
SETUP_REPEATS = 9


def import_program():
    """Import selinf.cli afresh from ./src; modules imported earlier are dropped."""
    if sys.path[0] != SRC:
        sys.path.insert(0, SRC)
    for name in [n for n in sys.modules if n == "selinf" or n.startswith("selinf.")]:
        del sys.modules[name]
    cli = importlib.import_module("selinf.cli")
    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        raise RuntimeError(f"selinf was imported from {cli.__file__}, not {SRC}")
    return cli


def setup(cases) -> tuple[float, object]:
    """Import the package, then read and validate every dataset file once."""
    start = perf_counter()
    cli = import_program()
    selinf = sys.modules["selinf"]
    for case in cases:
        if not selinf.validate_dataset(selinf.load_dataset(case.path)).valid:
            raise RuntimeError(f"{case.path}: the program rejects the dataset")
    return perf_counter() - start, cli


def timed_setups(cases, host: hostspeed.HostSpeed) -> tuple[float, object]:
    """SETUP_REPEATS set-ups, each in seconds on the reference machine; the median."""
    host.sample(0.0, force=True)
    spans = []
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        elapsed, cli = setup(cases)
        spans.append((start, start + elapsed))
        host.sample(elapsed)
    costs = [hostspeed.KERNEL_REF_S * (end - start) / host.around(start, end) for start, end in spans]
    print("set-up: " + " ".join(f"{c:.4f}" for c in costs) + " s")
    return statistics.median(costs), cli


def request(cli, path: str) -> tuple[int, dict | None, str]:
    """One `selinf test FILE --json` call: exit code, parsed report, stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["test", path, "--json"])
    doc = json.loads(out.getvalue()) if code != 2 else None
    return code, doc, err.getvalue()


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong = 0  # failed requests whose report was wrong, not missing
        self.times: dict[str, list[float]] = defaultdict(list)
        # (start, end) of every request in `times`, for the host's speed around it
        self.spans: dict[str, list[tuple[float, float]]] = defaultdict(list)
        self.host = hostspeed.HostSpeed()
        self.host.sample(0.0, force=True)

    def cost(self, name: str) -> float:
        """A dataset's mean request time in seconds on the reference machine:
        its requests' total time over the sum, per request, of the median
        kernel time around it (hostspeed.py), so the host's load, which
        moves both alike, drops out."""
        kernel = sum(self.host.around(start, end) for start, end in self.spans[name])
        return hostspeed.KERNEL_REF_S * sum(self.times[name]) / kernel

    def fail(self, case, message: str, wrong: bool) -> None:
        self.failed += 1
        self.wrong += wrong
        print(f"FAILED {case.name}: {message}", file=sys.stderr)


def run_pass(cli, cases, tally: Tally, check_certificates: bool, tracer=None) -> float:
    """Send every dataset once; returns the seconds spent inside requests.

    Between requests the host-speed kernel runs (hostspeed.py); each
    request's start and end are kept, to set its time against the kernel
    runs around it.
    """
    busy = 0.0
    for case in cases:
        tally.attempted += 1
        if tracer is not None:
            tracer.request += 1
        start = perf_counter()
        try:
            code, doc, err = request(cli, case.path)
        except Exception as exc:  # a crash fails this request, not the run
            elapsed = perf_counter() - start
            problems = [f"raised {exc!r}"]
            doc = None
        else:
            elapsed = perf_counter() - start
            problems = [] if doc is not None else [f"exit code {code}: {err.strip()}"]
        busy += elapsed
        tally.host.sample(elapsed)
        if problems:
            tally.fail(case, problems[0], wrong=False)
            continue
        try:
            problems = checks.check_report(case, code, doc)
            if not problems and check_certificates:
                lft = next(s for s in doc["stages"] if s["name"] == "lft")
                problems = checks.check_certificate(case, lft["detail"])
        except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
            problems = [f"malformed report: {exc!r}"]
        if problems:
            tally.fail(case, "; ".join(problems), wrong=True)
        else:
            tally.times[case.name].append(elapsed)
            tally.spans[case.name].append((start, start + elapsed))
    return busy


def end_to_end(cli, cases, seconds: float, tally: Tally) -> dict[str, tuple[float, str]]:
    pass_seconds: list[float] = []
    while True:
        spent = run_pass(cli, cases, tally, check_certificates=not pass_seconds)
        pass_seconds.append(spent)
        # whole passes only, so every run sends the same mix; stop at the
        # pass boundary nearest to the requested length
        if sum(pass_seconds) + spent / 2 >= seconds:
            break
    busy = sum(pass_seconds)
    largest = datasets.largest_design(cases)
    unique = [c for c in datasets.distinct(cases) if tally.times[c.name]]
    cost = {c.name: tally.cost(c.name) for c in unique}
    done = {c.name: len(tally.times[c.name]) for c in unique}
    on_largest = [cost[c.name] for c in unique if c.design == largest]
    for name, value in cost.items():
        raw = statistics.fmean(tally.times[name])
        print(f"  {name:24} {done[name]:4d} x  {value:.4f} s (raw mean {raw:.4f} s)")
    print(f"{len(pass_seconds)} passes, {sum(done.values())} verdicts in {busy:.2f} s of requests")
    print(f"host-speed kernel: mean {tally.host.mean() * 1e3:.3f} ms")
    print(f"largest design {largest.label}")
    print("seconds per pass: " + " ".join(f"{s:.3f}" for s in pass_seconds))
    return {
        # every completed request, each at its dataset's time
        "verdicts_per_s": (
            sum(done.values()) / sum(done[n] * cost[n] for n in cost) if cost else 0.0,
            "1/s",
        ),
        # over one pass's requests: a dataset sent n times counts n times
        "verdict_s.p50": (
            statistics.median(cost[c.name] for c in cases if c.name in cost) if cost else 0.0,
            "s",
        ),
        "verdict_s.largest": (statistics.fmean(on_largest) if on_largest else 0.0, "s"),
    }


def per_layer(cli, cases, passes: int, tally: Tally, trace_path: str) -> dict:
    tracer = spans.Tracer()
    untraced = traced = 0.0
    for p in range(passes):
        untraced += run_pass(cli, cases, tally, check_certificates=p == 0)
        tracer.install()
        try:
            traced += run_pass(cli, cases, tally, check_certificates=False, tracer=tracer)
        finally:
            tracer.remove()
    tracer.dump(trace_path)
    if tracer.missing:
        print("missing spans: " + ", ".join(sorted(tracer.missing)))
    overhead = (traced - untraced) / passes
    print(
        f"{passes} traced passes: {traced / passes:.3f} s/pass traced, "
        f"{untraced / passes:.3f} s/pass untraced, overhead {overhead:+.3f} s/pass "
        f"({100 * overhead / (untraced / passes):+.1f}%); spans in {trace_path}"
    )
    seconds = tracer.layer_seconds()
    metrics = {name: (value / passes, "s") for name, value in seconds.items()}
    for name, value in tracer.counts.items():
        per_pass = value if name in spans.MAX_COUNTS else value // passes
        metrics[name] = (per_pass, "bits" if name.endswith("_bits") else "count")
    return metrics


def benchmark(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    cases = datasets.workload_cases(workload, seed)
    unique = datasets.distinct(cases)
    datasets.write_cases(unique, os.path.join(OUT, workload))
    tally = Tally()
    setup_s, cli = timed_setups(unique, tally.host)
    if trace:
        trace_path = os.path.join(OUT, f"trace-{workload}-seed{seed}.json")
        metrics = per_layer(cli, cases, TRACE_PASSES[workload], tally, trace_path)
    else:
        metrics = end_to_end(cli, cases, seconds, tally)
        metrics["setup_s"] = (setup_s, "s")
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics["peak_rss_mb"] = (rss_kb / 1024, "MB")
    return {
        "correct": tally.wrong == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": v, "unit": unit} for name, (v, unit) in metrics.items()},
    }


def self_test() -> bool:
    """Run a few small datasets of each workload through the checks, and
    make sure each check rejects a report that was corrupted on purpose."""
    _, cli = setup([])
    ok = True

    def expect(label: str, problems: list[str], want_problems: bool) -> None:
        nonlocal ok
        good = bool(problems) == want_problems
        ok &= good
        detail = problems[0] if problems else "no problem found"
        print(f"{'ok  ' if good else 'FAIL'} {label}: {detail}")

    for workload in WORKLOADS:
        cases = datasets.distinct(datasets.workload_cases(workload, 0))
        datasets.write_cases(cases, os.path.join(OUT, "self-test", workload))
        cases.sort(key=lambda c: (c.design.columns, c.design.rows))
        picked = [next(c for c in cases if c.classical), next(c for c in cases if not c.classical)]
        for case in picked:
            label = f"{workload} {case.name}"
            code, doc, _ = request(cli, case.path)
            lft = next(s for s in doc["stages"] if s["name"] == "lft")["detail"]
            expect(f"{label} report", checks.check_report(case, code, doc), False)
            expect(f"{label} certificate", checks.check_certificate(case, lft), False)
            swapped = swap_verdict(code, doc)
            expect(f"{label} swapped verdict", checks.check_report(case, *swapped), True)
            if case.classical:
                moved = move_weight(lft["witness_support"])
                expect(f"{label} moved weight", checks.check_witness(case, moved), True)
            else:
                flipped = flip_sign(lft["farkas"])
                expect(f"{label} flipped sign", checks.check_farkas(case, flipped), True)
    return ok


def swap_verdict(code: int, doc: dict) -> tuple[int, dict]:
    doc = json.loads(json.dumps(doc))
    doc["verdict"] = {"consistent": "ruled-out", "ruled-out": "consistent"}[doc["verdict"]]
    lft = next(s for s in doc["stages"] if s["name"] == "lft")
    lft["status"] = {"pass": "fail", "fail": "pass"}[lft["status"]]
    lft["detail"]["verdict"] = {"feasible": "infeasible", "infeasible": "feasible"}[
        lft["detail"]["verdict"]
    ]
    return 1 - code, doc


def move_weight(support: list[dict]) -> list[dict]:
    """Move half of the first atom's weight onto the second atom."""
    moved = json.loads(json.dumps(support))
    half = Fraction(moved[0]["weight"]) / 2
    moved[0]["weight"] = str(half)
    moved[1]["weight"] = str(Fraction(moved[1]["weight"]) + half)
    return moved


def flip_sign(farkas: list[str]) -> list[str]:
    """Negate the entry of largest magnitude."""
    values = [Fraction(v) for v in farkas]
    k = max(range(len(values)), key=lambda i: abs(values[i]))
    values[k] = -values[k]
    return [str(v) for v in values]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true", help="check the checks and exit")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "selinf", "cli.py")):
        print(f"error: no selinf source under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    if args.self_test:
        return 0 if self_test() else 1
    if args.workload is None:
        parser.error("--workload is required")
    print(json.dumps(benchmark(args.workload, args.seed, args.seconds, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
