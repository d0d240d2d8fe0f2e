"""Checks of one `selinf test --json` report against a dataset's ground truth.

Every computation here is the benchmark's own: the verdict comes from how
the dataset was built (see datasets.py), the witness is re-projected onto
every treatment with `datasets.project`, and a Farkas vector is checked
against every column of M by enumerating all assignments.  Each function
returns a list of problems; an empty list means the report is right.
"""
from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import lcm, prod

from datasets import Case, tables_from_atoms


def _stage_rules(case: Case) -> dict[str, str]:
    """Status every stage must have for a classical dataset.

    The Fine battery applies to the 2x2 binary design only; cosphericity to
    two inputs with two values, and not when an output is constant under
    some treatment (its correlation is undefined).
    """
    design = case.design
    square = design.ks == (2, 2)
    constant = any(
        len({outcome[n] for outcome, p in table.items() if p}) == 1
        for table in case.tables.values()
        for n in range(len(design.ms))
    )
    return {
        "marginal-selectivity": "pass",
        "fine-inequalities": "pass" if square and design.ms == (2, 2) else "skip",
        "chain-tests": "pass",
        "cosphericity": "pass" if square and not constant else "skip",
        "lft": "pass",
    }


def check_report(case: Case, code: int, doc: dict) -> list[str]:
    """Exit code, verdict and stage statuses against the ground truth."""
    want_code, want_verdict, want_lft = (
        (0, "consistent", "feasible") if case.classical else (1, "ruled-out", "infeasible")
    )
    problems = []
    if code != want_code:
        problems.append(f"exit code {code}, expected {want_code} ({case.why})")
    if doc.get("verdict") != want_verdict:
        problems.append(f"verdict {doc.get('verdict')!r}, expected {want_verdict!r}")
    stages = {s.get("name"): s for s in doc.get("stages", [])}
    lft = stages.get("lft", {})
    got_lft = lft.get("detail", {}).get("verdict")
    if got_lft != want_lft:
        problems.append(f"LFT verdict {got_lft!r}, expected {want_lft!r}")
    if case.classical:
        for name, status in _stage_rules(case).items():
            got = stages.get(name, {}).get("status")
            if got != status:
                problems.append(f"stage {name} is {got!r}, expected {status!r}")
    elif lft.get("status") != "fail":
        problems.append(f"stage lft is {lft.get('status')!r}, expected 'fail'")
    return problems


def check_certificate(case: Case, lft_detail: dict) -> list[str]:
    if case.classical:
        return check_witness(case, lft_detail.get("witness_support"))
    return check_farkas(case, lft_detail.get("farkas"))


def check_witness(case: Case, support) -> list[str]:
    """The weighted assignments must reproduce every table exactly."""
    design = case.design
    sizes = design.slot_sizes
    if not isinstance(support, list) or not support:
        return ["no witness support in the report"]
    atoms = []
    for rec in support:
        weight = Fraction(rec["weight"])
        assignment = tuple(rec["assignment"])
        if len(assignment) != len(sizes) or any(
            not 1 <= h <= m for h, m in zip(assignment, sizes)
        ):
            return [f"witness assignment {assignment} does not fit design {design.label}"]
        atoms.append((weight, assignment))
    problems = []
    if any(w < 0 for w, _ in atoms):
        problems.append("witness has a negative weight")
    if sum(w for w, _ in atoms) != 1:
        problems.append(f"witness weights sum to {sum(w for w, _ in atoms)}, not 1")
    simulated = tables_from_atoms(design, atoms)
    for tr in design.treatments:
        got = {k: v for k, v in simulated[tr].items() if v}
        want = {k: v for k, v in case.tables[tr].items() if v}
        if got != want:
            problems.append(f"witness does not reproduce the table of treatment {tr}")
            break
    return problems


def check_farkas(case: Case, farkas) -> list[str]:
    """y'P > 0, and y'M <= 0 on every assignment column.

    Rows run over treatments in sorted order, outcome tuples lexicographic
    within a treatment's block.  y is scaled to integers by the common
    denominator, which keeps every sign.
    """
    design = case.design
    if not isinstance(farkas, list) or len(farkas) != design.rows:
        return [f"Farkas vector missing or not of length {design.rows}"]
    y = [Fraction(v) for v in farkas]
    block = prod(design.ms)
    strides = [prod(design.ms[n + 1 :]) for n in range(len(design.ms))]
    outcomes = design.outcomes
    y_dot_p = Fraction(0)
    for t, tr in enumerate(design.treatments):
        table = case.tables[tr]
        for pos, outcome in enumerate(outcomes):
            y_dot_p += y[t * block + pos] * table.get(outcome, 0)
    problems = []
    if y_dot_p <= 0:
        problems.append(f"y'P = {y_dot_p} is not positive")

    scale = lcm(*(v.denominator for v in y))
    ints = [int(v * scale) for v in y]
    # per treatment: its block of y, and (slot, stride) for each output
    terms = [
        (
            ints[t * block : (t + 1) * block],
            [(off + w - 1, stride) for off, w, stride in zip(design.offsets, tr, strides)],
        )
        for t, tr in enumerate(design.treatments)
    ]
    for h in product(*(range(m) for m in design.slot_sizes)):
        column = 0
        for ys, slots in terms:
            column += ys[sum(h[s] * st for s, st in slots)]
        if column > 0:
            assignment = tuple(v + 1 for v in h)
            problems.append(f"y'M = {Fraction(column, scale)} > 0 at assignment {assignment}")
            break
    return problems
