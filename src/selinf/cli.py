"""Command-line front end.

    selinf validate FILE [--json]
    selinf test FILE [--no-lft] [--orders d1,d2 | --orders-file F] [--tol X]
                [--max-len N] [--column-guard N] [--sequence-guard N]
                [--marginal-guard N] [--json]
    selinf generate KIND [params] [-o FILE]

Exit codes: 0 = valid / consistent with selective influences, 1 = invalid /
ruled out, 2 = usage or parse error (including guard breaches).
"""
from __future__ import annotations

import argparse
import functools
import json
import math
import sys

from .cosphericity import DEFAULT_TOL, correlations_from_dataset, cosphericity_test
from .distances import (
    MAX_LEN,
    SEQUENCE_GUARD,
    OrderRelation,
    chain_test,
    enumerate_irreducible_sequences,
    fine_inequalities,
    preset_order,
)
from .errors import DatasetParseError, MarginalSelectivityError, SizeGuardError
from .experiment import COMPARISON_GUARD, check_marginal_selectivity, make_design, validate_dataset
from .io import _unique_keys, dump_dataset, format_exact, json_text, load_dataset, parse_exact
from .lft import COLUMN_GUARD, run_lft

SCHEMA_VERSION = "1"


def _emit(doc: dict, as_json: bool, lines: list[str]) -> None:
    if as_json:
        print(json_text(doc))
    else:
        for line in lines:
            print(line)


def cmd_validate(args) -> int:
    dataset = load_dataset(args.file)
    report = validate_dataset(dataset)
    doc = {
        "schema_version": SCHEMA_VERSION,
        "command": "validate",
        "file": args.file,
        "valid": report.valid,
        "breaches": [
            {"kind": b.kind, "message": b.message} for b in report.breaches
        ],
    }
    lines = [f"{args.file}: {'valid' if report.valid else 'INVALID'}"]
    lines += [f"  {b.kind}: {b.message}" for b in report.breaches]
    _emit(doc, args.json, lines)
    return 0 if report.valid else 1


def _parse_orders(args, design) -> list[OrderRelation]:
    if args.orders_file:
        try:
            with open(args.orders_file, "r", encoding="utf-8") as fh:
                doc = json.load(fh, object_pairs_hook=_unique_keys)
            if not isinstance(doc, dict) or not isinstance(doc["orders"], list):
                raise ValueError("the top level must be an object and its 'orders' a list")
            orders = []
            for rec in doc["orders"]:
                if not isinstance(rec, dict):
                    raise ValueError(f"order record {rec!r} is not an object")
                name = rec.get("name", "custom")
                if not isinstance(name, str):
                    raise ValueError(f"order record {rec!r}: 'name' must be a string")
                orders.append(OrderRelation(rec["classes"], name=name))
        except KeyError as exc:
            raise ValueError(f"orders file {args.orders_file}: missing key {exc}") from None
        except (TypeError, ValueError, RecursionError) as exc:
            raise ValueError(f"orders file {args.orders_file}: {exc}") from None
        where = f"orders file {args.orders_file}"
    else:
        names = [s.strip() for s in args.orders.split(",") if s.strip()]
        orders = [preset_order(design, name) for name in names]
        where = f"--orders {args.orders!r}"
    if not orders:
        raise ValueError(f"{where} names no order relation")
    return orders


def _stage_marginal(report):
    detail = {
        "comparisons": report.comparisons,
        "violations": [
            {
                "subset": list(v.subset),
                "treatments": [list(v.treatment_a), list(v.treatment_b)],
                "discrepancy": format_exact(v.discrepancy),
            }
            for v in report.violations
        ],
    }
    status = "pass" if report.passed else "fail"
    text = f"{len(report.violations)} violation(s) over {report.comparisons} comparison(s)"
    return status, text, detail


def _stage_fine(dataset, marginal_report):
    try:
        report = fine_inequalities(dataset, marginal_report=marginal_report)
    except ValueError as exc:
        return "skip", str(exc), {}
    detail = {
        "inequalities": [
            {
                "family": r.family,
                "bound": r.bound,
                "expression": r.expression,
                "value": format_exact(r.value),
                "satisfied": r.satisfied,
            }
            for r in report.records
        ]
    }
    if report.passed:
        return "pass", "all eight bounds hold", detail
    worst = [r for r in report.records if not r.satisfied]
    text = "; ".join(f"{r.family} value {format_exact(r.value)} breaks {r.bound} bound" for r in worst)
    return "fail", text, detail


def _stage_chain(dataset, args):
    design = dataset.design
    orders = _parse_orders(args, design)
    sequences = enumerate_irreducible_sequences(
        design, max_len=args.max_len, sequence_guard=args.sequence_guard
    )
    if not sequences:
        return "pass", "no irreducible sequences to test", {"sequences": 0}, None
    detail = {"sequences": len(sequences), "max_len": args.max_len, "orders": []}
    failures = []
    for order in orders:
        report = chain_test(dataset, order, sequences)
        bad = report.failures()
        detail["orders"].append(
            {
                "order": order.name,
                "passed": report.passed,
                "failures": [
                    {
                        "points": list(map(list, r.sequence.points)),
                        "lhs": format_exact(r.lhs),
                        "rhs": format_exact(r.rhs),
                        "slack": format_exact(r.slack),
                    }
                    for r in bad
                ],
            }
        )
        if bad:
            failures.append((order, bad[0]))
    if not failures:
        text = f"{len(sequences)} sequence(s) x {len(orders)} order(s) hold"
        return "pass", text, detail, None
    order, rec = failures[0]
    text = (
        f"order {order.name}: chain {rec.sequence.points} has slack {format_exact(rec.slack)}"
    )
    return "fail", text, detail, failures[0]


def _stage_cosphericity(dataset, args):
    try:
        quad = correlations_from_dataset(dataset)
    except ValueError as exc:
        return "skip", str(exc), {}
    result = cosphericity_test(quad, tol=args.tol)
    detail = {
        "correlations": list(quad.as_tuple()),
        "lhs": result.lhs,
        "rhs": result.rhs,
        "slack": result.slack,
        "verdict": result.verdict,
        "note": "criterion is exact for bivariate normal outputs; otherwise necessary only",
    }
    text = f"slack {result.slack:.3e} ({result.verdict})"
    return ("pass" if result.passed else "fail"), text, detail


def _stage_lft(dataset, args, validation_report, chain_failure, marginal_report):
    verdict = run_lft(
        dataset,
        column_guard=args.column_guard,
        validation_report=validation_report,
        chain_failure=chain_failure,
        marginal_report=marginal_report,
    )
    detail = verdict.to_json_dict()
    if verdict.feasible:
        atoms = len(verdict.witness.support())
        return "pass", f"feasible; classical model with {atoms} atom(s)", detail
    if verdict.chain_failure is not None:
        return "fail", "infeasible; Farkas certificate from the failing chain attached", detail
    if verdict.marginal_violation is not None:
        return "fail", "infeasible; Farkas certificate from the marginal-selectivity violation attached", detail
    return "fail", "infeasible; Farkas certificate attached", detail


def cmd_test(args) -> int:
    dataset = load_dataset(args.file)
    vreport = validate_dataset(dataset)
    if not vreport.valid:
        print(f"{args.file}: invalid dataset: {vreport.summary()}", file=sys.stderr)
        return 2

    # the later stages are handed these reports, and the LFT also the first
    # failing chain, instead of checking again
    mreport = check_marginal_selectivity(dataset, comparison_guard=args.marginal_guard)
    stages = [("marginal-selectivity", *_stage_marginal(mreport))]
    if mreport.passed:
        stages.append(("fine-inequalities", *_stage_fine(dataset, mreport)))
    else:
        stages.append(
            ("fine-inequalities", "skip", "marginal selectivity failed", {})
        )
    *chain, chain_failure = _stage_chain(dataset, args)
    stages.append(("chain-tests", *chain))
    stages.append(("cosphericity", *_stage_cosphericity(dataset, args)))
    if args.no_lft:
        stages.append(("lft", "skip", "disabled with --no-lft", {}))
    else:
        stages.append(("lft", *_stage_lft(dataset, args, vreport, chain_failure, mreport)))

    failed = [s for s in stages if s[1] == "fail"]
    verdict = "ruled-out" if failed else "consistent"
    doc = {
        "schema_version": SCHEMA_VERSION,
        "command": "test",
        "file": args.file,
        "stages": [
            {"name": name, "status": status, "summary": text, "detail": detail}
            for name, status, text, detail in stages
        ],
        "verdict": verdict,
    }
    if failed:
        doc["first_failure"] = failed[0][0]
    lines = [f"{name}: {status.upper()} - {text}" for name, status, text, _ in stages]
    if failed:
        lines.append(f"verdict: ruled out (first failing test: {failed[0][0]})")
    else:
        lines.append("verdict: consistent with selective influences")
    _emit(doc, args.json, lines)
    return 1 if failed else 0


def _parse_sizes(text: str) -> tuple[int, ...]:
    try:
        sizes = tuple(int(s) for s in text.split(","))
    except ValueError:
        raise ValueError(f"bad size list {text!r}") from None
    if not sizes or any(s < 1 for s in sizes):
        raise ValueError(f"bad size list {text!r}")
    return sizes


def cmd_generate(args) -> int:
    # loaded here, on first use: no other command needs the generators
    from .generators import (
        AngleSpec, gen_classical, gen_double_detection, gen_ghz, gen_prbox, gen_singlet, parse_angle
    )

    if args.kind == "classical":
        k = _parse_sizes(args.inputs)
        m = _parse_sizes(args.outcomes)
        design = make_design(k, m)
        dataset, _ = gen_classical(design, seed=args.seed)
    elif args.kind == "prbox":
        dataset = gen_prbox()
    elif args.kind == "singlet":
        tokens = args.angles.split(",")
        if len(tokens) != 4:
            raise ValueError("--angles needs four comma-separated values: a1,a2,b1,b2")
        fr = [parse_angle(t) for t in tokens]
        dataset = gen_singlet(AngleSpec(((fr[0], fr[1]), (fr[2], fr[3]))), args.precision)
    elif args.kind == "ghz":
        dataset = gen_ghz()
    elif args.kind == "double-detection":
        parts = [parse_exact(t.strip()) for t in args.rates.split(",")]
        if len(parts) != 4:
            raise ValueError("--rates needs four values: r11,r12,r21,r22")
        rates = {(1, 1): parts[0], (1, 2): parts[1], (2, 1): parts[2], (2, 2): parts[3]}
        dataset = gen_double_detection(rates, parse_exact(args.coupling))
    else:  # pragma: no cover - argparse restricts choices
        raise ValueError(f"unknown kind {args.kind}")

    if args.output:
        dump_dataset(dataset, args.output)
    else:
        dump_dataset(dataset, sys.stdout)
    return 0


def tolerance(text: str) -> float:
    """The --tol value, refused before any stage runs if NaN, infinite or
    negative: cosphericity, which also checks it, skips on most designs."""
    tol = float(text)
    if not (math.isfinite(tol) and tol >= 0):
        raise argparse.ArgumentTypeError(
            f"cosphericity tolerance must be finite and nonnegative, got {text}"
        )
    return tol


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="selinf",
        description="Exact tests for selective influences / classical explanations",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_val = sub.add_parser("validate", help="check a dataset file's invariants")
    p_val.add_argument("file")
    p_val.add_argument("--json", action="store_true", help="machine-readable report")
    p_val.set_defaults(func=cmd_validate)

    p_test = sub.add_parser("test", help="run the test battery on a dataset file")
    p_test.add_argument("file")
    p_test.add_argument("--no-lft", action="store_true", help="skip the linear feasibility test")
    p_test.add_argument(
        "--orders",
        default="d1,d2",
        help="comma-separated preset orders for the chain tests (default d1,d2)",
    )
    p_test.add_argument(
        "--orders-file", default=None, help="JSON file with custom order relations"
    )
    p_test.add_argument("--tol", type=tolerance, default=DEFAULT_TOL, help="cosphericity tolerance")
    p_test.add_argument("--max-len", type=int, default=MAX_LEN, help="maximum chain length")
    p_test.add_argument(
        "--column-guard", type=int, default=COLUMN_GUARD, help="assignment-count guard for the LFT"
    )
    p_test.add_argument(
        "--sequence-guard", type=int, default=SEQUENCE_GUARD, help="chain enumeration guard"
    )
    p_test.add_argument(
        "--marginal-guard",
        type=int,
        default=COMPARISON_GUARD,
        help="comparison-count guard for the marginal-selectivity check",
    )
    p_test.add_argument("--json", action="store_true", help="machine-readable report")
    p_test.set_defaults(func=cmd_test)

    p_gen = sub.add_parser("generate", help="write a benchmark dataset")
    p_gen.add_argument(
        "kind", choices=["classical", "prbox", "singlet", "ghz", "double-detection"]
    )
    p_gen.add_argument("-o", "--output", default=None, help="output path (default stdout)")
    p_gen.add_argument("--inputs", default="2,2", help="classical: input sizes, e.g. 2,2")
    p_gen.add_argument("--outcomes", default="2,2", help="classical: outcome sizes, e.g. 2,2")
    p_gen.add_argument("--seed", type=int, default=None, help="classical: RNG seed")
    p_gen.add_argument(
        "--angles",
        default="0,pi/2,pi/4,3pi/4",
        help="singlet: a1,a2,b1,b2 as multiples of pi (e.g. 0,pi/2,pi/4,3pi/4)",
    )
    p_gen.add_argument("--precision", type=int, default=12, help="singlet: decimal digits")
    p_gen.add_argument(
        "--rates", default="1/2,1/2,1/2,1/2", help="double-detection: r11,r12,r21,r22"
    )
    p_gen.add_argument("--coupling", default="0", help="double-detection: mixing weight in [0,1]")
    p_gen.set_defaults(func=cmd_generate)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser `main` builds on its first call and reuses: it keeps no
    per-request state, since `parse_args` returns a new namespace each time."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (DatasetParseError, SizeGuardError, MarginalSelectivityError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
