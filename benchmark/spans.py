"""Spans around the calls through which `selinf.cli.main` reaches each layer.

The tracer replaces a function at the name its caller looks it up by (for
example `selinf.lft.build_jdc_matrix`, which `run_lft` calls) with a wrapper
that records a span: name, start, end, parent span and request id.  Spans
stay in memory until the run ends.  A layer's self time is its spans'
durations minus the time their child spans cover; calls are nested in one
thread, so the children of a span never overlap and their cover is their
sum.  A name that no longer exists is reported as missing, not fatal.
"""
from __future__ import annotations

import importlib
import json
from collections import defaultdict
from time import perf_counter


def _nonzeros(jdc) -> int:
    return sum(len(row) for row in jdc.matrix.rows)


def _solve_counts(result) -> dict[str, int]:
    cert = result.witness if result.feasible else result.farkas
    bits = max(
        (max(v.numerator.bit_length(), v.denominator.bit_length()) for v in cert if v),
        default=0,
    )
    return {
        "rational_lp.pivots": result.pivots,
        "rational_lp.presolve_exits": int(result.pivots == 0),
        "rational_lp.cert_bits": bits,
    }


# (module, attribute, metric that takes the span's self time, counter)
POINTS = [
    ("selinf.cli", "main", "cli.self_s", None),
    ("selinf.cli", "load_dataset", "io.load_s", None),
    ("selinf.cli", "validate_dataset", "experiment.validate_s", None),
    ("selinf.lft", "validate_dataset", "experiment.validate_s", None),
    (
        "selinf.cli",
        "check_marginal_selectivity",
        "experiment.marginal_s",
        lambda r: {"experiment.comparisons": r.comparisons},
    ),
    (
        "selinf.distances",
        "check_marginal_selectivity",
        "experiment.marginal_s",
        lambda r: {"experiment.comparisons": r.comparisons},
    ),
    ("selinf.cli", "fine_inequalities", "distances.fine_s", None),
    (
        "selinf.cli",
        "enumerate_irreducible_sequences",
        "distances.enumerate_s",
        lambda r: {"distances.sequences": len(r)},
    ),
    ("selinf.cli", "chain_test", "distances.chain_s", None),
    ("selinf.cli", "correlations_from_dataset", "cosphericity.test_s", None),
    ("selinf.cli", "cosphericity_test", "cosphericity.test_s", None),
    ("selinf.cli", "run_lft", "lft.run_self_s", None),
    ("selinf.lft", "build_p_vector", "lft.build_p_s", None),
    ("selinf.lft", "build_jdc_matrix", "lft.build_m_s", lambda r: {"lft.m_nonzeros": _nonzeros(r)}),
    ("selinf.lft", "solve_equality_feasibility", "rational_lp.solve_s", _solve_counts),
    ("selinf.lft", "verify_certificate", "rational_lp.verify_s", None),
    ("selinf.lft", "LftVerdict.to_json_dict", "lft.report_s", None),
]

TIME_METRICS = sorted({metric for _, _, metric, _ in POINTS})
COUNT_METRICS = [
    "experiment.comparisons",
    "distances.sequences",
    "lft.m_nonzeros",
    "rational_lp.pivots",
    "rational_lp.presolve_exits",
    "rational_lp.cert_bits",
]
MAX_COUNTS = {"rational_lp.cert_bits"}  # largest over the run, not a sum
COUNTER_SPAN = "trace.counters"  # time spent computing counts, charged to no layer


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, request id]
        self.counts: dict[str, int] = {name: 0 for name in COUNT_METRICS}
        self.missing: set[str] = set()
        self.request = 0
        self._stack: list[int] = []
        self._installed: list[tuple[object, str, object]] = []

    def install(self) -> None:
        for modname, attr, metric, counter in POINTS:
            owner = importlib.import_module(modname)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            original = getattr(owner, leaf, None)
            if original is None:
                self.missing.add(f"{modname}.{attr}")
                continue
            setattr(owner, leaf, self._wrap(f"{modname}.{attr}", original, counter))
            self._installed.append((owner, leaf, original))

    def remove(self) -> None:
        for owner, leaf, original in reversed(self._installed):
            setattr(owner, leaf, original)
        self._installed = []

    def _wrap(self, name, original, counter):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            span = [name, 0.0, 0.0, parent, self.request]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if counter is not None:
                self._count(name, counter, result, parent, span[2])
            return result

        return traced

    def _count(self, name, counter, result, parent, start) -> None:
        try:
            values = counter(result)
        except (AttributeError, TypeError):
            self.missing.add(f"counts of {name}")
            values = {}
        for metric, value in values.items():
            if metric in MAX_COUNTS:
                self.counts[metric] = max(self.counts[metric], value)
            else:
                self.counts[metric] += value
        self.spans.append([COUNTER_SPAN, start, perf_counter(), parent, self.request])

    def layer_seconds(self) -> dict[str, float]:
        """Self time per layer metric, summed over every recorded span."""
        metric_of = {f"{m}.{a}": metric for m, a, metric, _ in POINTS}
        covered: dict[int, float] = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                covered[parent] += end - start
        seconds = {metric: 0.0 for metric in TIME_METRICS}
        for index, (name, start, end, _, _) in enumerate(self.spans):
            if name in metric_of:
                seconds[metric_of[name]] += end - start - covered[index]
        return seconds

    def dump(self, path: str) -> None:
        keys = ("name", "start", "end", "parent", "request")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": [dict(zip(keys, span)) for span in self.spans]}, fh)
