"""Linear feasibility test for selective influences.

The question "can a single hidden variable with deterministic responses per
input value reproduce every treatment's joint distribution?" becomes: does
MQ = P, Q >= 0 have a solution?  P stacks all observed probabilities, one
block per treatment (treatments in sorted order, outcome tuples lexicographic
within a block).  Q ranges over all deterministic assignments: one outcome
for every value of every input, mixed-radix indexed with input 1's first
value most significant.  M(r, c) = 1 exactly when column c's assignment
produces row r's outcomes under row r's treatment, so each column has one 1
per treatment.  An assignment is one block of slots per input, so row (t, o)
is the Kronecker product of the rows (t_i, o_i) of per-input matrices M_i,
and `build_jdc_matrix` builds it so.

Many rows of M are redundant.  Phase one uses only the rows that
`collins_gisin_rows` picks from the design, which span M on any treatment
set; presolve and certificate verification read all of M.  P obeys the
relations that give the dropped rows exactly under marginal selectivity.

A feasible witness converts into an explicit classical model (`Si2Model`)
whose forward simulation reproduces the dataset exactly; infeasibility comes
with a verified Farkas vector.
"""
from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, product, repeat
from math import prod
from typing import Sequence

from .errors import MarginalSelectivityError, SizeGuardError
from .experiment import (
    Dataset,
    ExperimentDesign,
    MarginalReport,
    MarginalViolation,
    OutcomeTuple,
    Treatment,
    ZERO,
    marginal,
    marginal_discrepancy,
    parse_index,
    validate_dataset,
)
from .io import format_exact
from .rational_lp import ONE, SparseMatrix, solve_equality_feasibility, verify_certificate

Assignment = tuple[int, ...]
# default bound on the assignment count, the columns of M
COLUMN_GUARD = 10**6


def q_slot_offsets(design: ExperimentDesign) -> tuple[int, ...]:
    """Start position of each input's block of slots inside an assignment."""
    return tuple(accumulate(design.input_sizes[:-1], initial=0))


def slot_bases(design: ExperimentDesign) -> tuple[int, ...]:
    """Radix of each assignment slot: the outcome count of the slot's input."""
    return tuple(
        m for m, k in zip(design.outcome_sizes, design.input_sizes) for _ in range(k)
    )


def q_length(design: ExperimentDesign) -> int:
    return prod(slot_bases(design))


def p_length(design: ExperimentDesign) -> int:
    return prod(design.outcome_sizes) * len(design.treatments)


def mixed_radix_index(digits: Sequence[int], bases: Sequence[int]) -> int:
    """Index of 1-based digits in mixed radix `bases`, the first most significant."""
    if len(digits) != len(bases):
        raise ValueError(f"{tuple(digits)} has {len(digits)} digits, expected {len(bases)}")
    idx = 0
    for d, base in zip(digits, bases):
        if not 1 <= d <= base:
            raise ValueError(f"{tuple(digits)} out of range")
        idx = idx * base + (d - 1)
    return idx


def mixed_radix_digits(idx: int, bases: Sequence[int]) -> tuple[int, ...]:
    """The 1-based digits of `idx` in mixed radix `bases`: `mixed_radix_index`'s inverse."""
    if not 0 <= idx < prod(bases):
        raise ValueError("index out of range")
    digits = []
    for base in reversed(bases):
        idx, d = divmod(idx, base)
        digits.append(d + 1)
    return tuple(reversed(digits))


def _store_exact(vector, name: str, length: int) -> None:
    """Store `vector.values` as Fractions, converting only non-Fractions, and check the count."""
    values = tuple(v if isinstance(v, Fraction) else Fraction(v) for v in vector.values)
    if len(values) != length:
        raise ValueError(f"{name} has length {len(values)}, design needs {length}")
    object.__setattr__(vector, "values", values)


@dataclass(frozen=True)
class PVector:
    """Flat vector of all observed probabilities with its index maps.

    Flat index = treatment block (sorted treatment order) * block size +
    lexicographic rank of the outcome tuple.
    """

    design: ExperimentDesign
    values: tuple[Fraction, ...]

    def __post_init__(self):
        _store_exact(self, "P", p_length(self.design))

    @property
    def block_size(self) -> int:
        return prod(self.design.outcome_sizes)

    def index_of(self, treatment, outcome) -> int:
        block = self.design.treatments.index(tuple(treatment))
        return block * self.block_size + mixed_radix_index(outcome, self.design.outcome_sizes)

    def entry_at(self, flat: int) -> tuple[Treatment, OutcomeTuple]:
        if not 0 <= flat < len(self.values):
            raise ValueError("index out of range")
        block, pos = divmod(flat, self.block_size)
        return self.design.treatments[block], mixed_radix_digits(pos, self.design.outcome_sizes)


@dataclass(frozen=True)
class QVector:
    """Flat vector over deterministic assignments with its index maps.

    An assignment lists one outcome per (input, value) slot, slots ordered
    input 1 value 1, input 1 value 2, ..., input n value k_n.  The flat index
    is mixed radix with the first slot most significant.
    """

    design: ExperimentDesign
    values: tuple[Fraction, ...]

    def __post_init__(self):
        _store_exact(self, "Q", q_length(self.design))

    def index_of(self, assignment: Sequence[int]) -> int:
        return mixed_radix_index(assignment, slot_bases(self.design))

    def assignment_at(self, flat: int) -> Assignment:
        return mixed_radix_digits(flat, slot_bases(self.design))

    def support(self) -> list[tuple[Fraction, Assignment]]:
        return [
            (v, self.assignment_at(i)) for i, v in enumerate(self.values) if v != 0
        ]


def assignment_outcome(
    assignment: Assignment, treatment: Treatment, offsets: tuple[int, ...]
) -> OutcomeTuple:
    """Outcome tuple the assignment produces under the treatment."""
    return tuple(assignment[off + j - 1] for off, j in zip(offsets, treatment))


def build_p_vector(dataset: Dataset) -> PVector:
    """Stack the dataset's exact probabilities into canonical flat order."""
    report = validate_dataset(dataset)
    if not report.valid:
        raise ValueError(f"invalid dataset: {report.summary()}")
    design = dataset.design
    values = []
    for tr in design.treatments:
        table = dataset.tables[tr]
        for outcome in design.all_outcomes():
            values.append(table.get(outcome, ZERO))
    return PVector(design, tuple(values))


@dataclass(frozen=True)
class JdcMatrix:
    """The 0/1 compatibility matrix between observed rows and assignments."""

    design: ExperimentDesign
    matrix: SparseMatrix

    @property
    def nrows(self) -> int:
        return self.matrix.nrows

    @property
    def ncols(self) -> int:
        return self.matrix.ncols


def build_jdc_matrix(design: ExperimentDesign, column_guard: int = COLUMN_GUARD) -> JdcMatrix:
    """Build the compatibility matrix; refuses designs whose assignment count
    exceeds `column_guard` (override by passing a larger guard).  Input i's
    table maps (slot w, outcome a) to its block's values with a in slot w,
    times the block's stride (the later blocks' sizes multiplied); row (t, o)
    sums one entry per input at (t_i, o_i), ascending as input 1 is slowest."""
    ncols = q_length(design)
    if ncols > column_guard:
        raise SizeGuardError(
            f"assignment space has {ncols} columns, over the guard {column_guard}; "
            f"pass a larger column_guard (CLI: --column-guard) to proceed"
        )
    tables = []
    stride = ncols
    for k, m in zip(design.input_sizes, design.outcome_sizes):
        stride //= m**k
        table = defaultdict(list)
        for value, block in enumerate(product(range(1, m + 1), repeat=k)):
            for w, a in enumerate(block, 1):
                table[w, a].append(value * stride)
        tables.append(table)
    rows = []
    for tr in design.treatments:
        for outcome in design.all_outcomes():
            cols = [0]
            for table, w, a in zip(tables, tr, outcome):
                cols = [c + d for c in cols for d in table[w, a]]
            rows.append(tuple(zip(cols, repeat(ONE))))
    return JdcMatrix(design, SparseMatrix(p_length(design), ncols, tuple(rows)))


@dataclass(frozen=True)
class LftVerdict:
    """Outcome of the linear feasibility test.

    Feasible means a classical (selective-influences) explanation exists and
    `witness` holds one; infeasible refutes it and `farkas` proves it.
    """

    design: ExperimentDesign
    feasible: bool
    witness: QVector | None
    farkas: tuple[Fraction, ...] | None
    pivots: int

    def to_json_dict(self) -> dict:
        doc: dict = {
            "verdict": "feasible" if self.feasible else "infeasible",
            "pivots": self.pivots,
        }
        if self.feasible:
            doc["witness"] = [format_exact(v) for v in self.witness.values]
            doc["witness_support"] = [
                {"weight": format_exact(w), "assignment": list(a)}
                for w, a in self.witness.support()
            ]
            doc["index_legend"] = (
                "witness index is mixed radix over assignment slots "
                "(input 1 value 1 first and most significant); each slot holds the "
                "deterministic outcome for that input value"
            )
        else:
            doc["farkas"] = [format_exact(v) for v in self.farkas]
            doc["index_legend"] = (
                "farkas index runs over (treatment, outcome tuple) rows: treatment "
                "blocks in sorted order, outcome tuples lexicographic within a block"
            )
        return doc


def collins_gisin_rows(design: ExperimentDesign) -> list[int]:
    """Flat P indices of the rows of M that phase one uses.

    For each input i, the reference of a group of `design.treatment_groups`
    on the other inputs is its first member, the one with the lowest t_i.
    Row (t, o) is kept iff, for every i, o_i < m_i or t is its i-group's
    reference.  On a full-factorial design the references are the t_i = 1
    treatments, and the kept rows the prod(1 + k_i(m_i - 1)) Collins-Gisin
    rows (Collins & Gisin 2004), as many as M's rank.

    They span M.  Row (t, o) summed over o_i depends only on t_-i, so for r
    the reference of t's i-group
        row (t, o_-i, m_i) = sum_a row (r, o_-i, a) - sum_{a<m_i} row (t, o_-i, a),
    and P obeys this when tables t and r agree on the marginal over the other
    outputs.  A dropped row (t, o) has an i with o_i = m_i and t != r, so
    r_i < t_i, and every row on the right comes earlier in the order of (how
    many i have o_i = m_i, then sum(t)): induct on it.
    """
    inputs = range(1, design.n + 1)
    references = [
        {group[0] for group in design.treatment_groups([l for l in inputs if l != i]).values()}
        for i in inputs
    ]
    sizes = design.outcome_sizes
    outcomes = list(design.all_outcomes())
    return [
        t_idx * len(outcomes) + pos
        for t_idx, tr in enumerate(design.treatments)
        for pos, outcome in enumerate(outcomes)
        if all(o < m or tr in refs for o, m, refs in zip(outcome, sizes, references))
    ]


def run_lft(dataset: Dataset, column_guard: int = COLUMN_GUARD) -> LftVerdict:
    """Run the feasibility test on a valid dataset.

    Phase one runs on the rows `collins_gisin_rows` picks, and the result is
    verified against the full M.  An infeasible verdict there holds for all
    of M.  A witness from those rows that fails the check means P breaks the
    relations that give the dropped rows (marginal selectivity), and the
    system is solved again on every row.  Any other verification failure
    would be an internal error and raises RuntimeError.
    """
    p = list(build_p_vector(dataset).values)
    m = build_jdc_matrix(dataset.design, column_guard).matrix
    result = solve_equality_feasibility(m, p, collins_gisin_rows(dataset.design))
    verified = verify_certificate(m, p, result)
    if not verified and result.feasible:
        result = solve_equality_feasibility(m, p)
        verified = verify_certificate(m, p, result)
    if not verified:
        raise RuntimeError("solver produced a certificate that failed verification")
    witness = QVector(dataset.design, result.witness) if result.feasible else None
    return LftVerdict(dataset.design, result.feasible, witness, result.farkas, result.pivots)


@dataclass(frozen=True)
class Si2Model:
    """Explicit classical model: a hidden variable C ranging over weighted
    atoms, plus deterministic responses (the atom's assignment slot) for each
    input value."""

    design: ExperimentDesign
    atoms: tuple[tuple[Fraction, Assignment], ...]

    def response(self, lam: int, w: int, assignment: Assignment) -> int:
        off = q_slot_offsets(self.design)[lam - 1]
        return assignment[off + w - 1]

    def simulate(self) -> Dataset:
        """Forward-simulate every treatment; reproduces MQ exactly."""
        offsets = q_slot_offsets(self.design)
        tables: dict[Treatment, dict[OutcomeTuple, Fraction]] = {}
        for tr in self.design.treatments:
            row: dict[OutcomeTuple, Fraction] = defaultdict(lambda: ZERO)
            for weight, assignment in self.atoms:
                row[assignment_outcome(assignment, tr, offsets)] += weight
            tables[tr] = dict(row)
        return Dataset(self.design, tables)


def construct_si2(q: QVector, design: ExperimentDesign) -> Si2Model:
    """Turn a normalized nonnegative Q vector into an explicit model."""
    if q.design != design:
        raise ValueError("Q vector belongs to a different design")
    if any(v < 0 for v in q.values):
        raise ValueError("Q has negative components")
    if sum(q.values) != 1:
        raise ValueError("Q does not sum to 1")
    return Si2Model(design, tuple(q.support()))


def restrict_design(dataset: Dataset, subset) -> Dataset:
    """Project the experiment onto a subset of inputs.

    Treatments are projected (duplicates merged) and tables replaced by the
    subset marginals, which is well defined only when marginal selectivity
    holds on the subset; violations raise MarginalSelectivityError carrying
    the offending comparisons.
    """
    design = dataset.design
    lam_list = tuple(sorted(set(parse_index(l) for l in subset)))
    if not lam_list:
        raise ValueError("subset must be nonempty")
    if lam_list[0] < 1 or lam_list[-1] > design.n:
        raise ValueError(f"subset {lam_list} out of range")

    groups = design.treatment_groups(lam_list)
    violations = []
    margs: dict[Treatment, dict[OutcomeTuple, Fraction]] = {}
    for proj, (ref_tr, *others) in groups.items():
        ref = margs[proj] = marginal(dataset, ref_tr, lam_list)
        for tr in others:
            worst = marginal_discrepancy(ref, marginal(dataset, tr, lam_list))
            if worst != 0:
                violations.append(MarginalViolation(lam_list, ref_tr, tr, worst))
    if violations:
        comparisons = sum(len(members) - 1 for members in groups.values())
        report = MarginalReport(tuple(violations), comparisons, len(lam_list))
        raise MarginalSelectivityError(
            f"marginal selectivity fails on inputs {lam_list}", report
        )

    new_design = ExperimentDesign(
        tuple(design.inputs[l - 1] for l in lam_list),
        tuple(design.outputs[l - 1] for l in lam_list),
        tuple(groups.keys()),
    )
    return Dataset(new_design, {proj: margs[proj] for proj in groups})
