"""Exact linear feasibility: does MQ = P, Q >= 0 have a solution?

The solver is a phase-one simplex on the standard-form system with artificial
variables (minimize their sum).  It prices by Dantzig's rule (most negative
reduced cost, ties to the lowest index) and falls back to Bland's
least-index rule inside long runs of degenerate pivots, so it terminates on
every input and is deterministic: identical inputs give identical witnesses
and pivot counts.  Its tableau holds integers, d times the Fraction
tableau's values with d the last pivot, and divides exactly (Edmonds'
integer-preserving pivoting).  The system becomes integer by scaling every
row by one positive number and every variable by another; the witness is
scaled back, and a Farkas vector of the scaled rows is one of the original
rows, since one positive row scale changes no sign of y'M or y'P.  Phase one
may run on a subset of the rows that implies the others (a row basis, see
`solve_equality_feasibility`).  Infeasibility comes with a Farkas vector y
(y'M <= 0, y'P > 0) read off the optimal phase-one reduced-cost row, so
every verdict is self-verifying via `verify_certificate`.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Iterable, Sequence

ZERO = Fraction(0)
ONE = Fraction(1)
# once more than this many degenerate pivots come in a row, Bland's rule
# prices instead of Dantzig's until the next nondegenerate pivot
DEGENERATE_RUN = 50


@dataclass(frozen=True)
class SparseMatrix:
    """Row-major sparse matrix of exact rationals.

    Per row: (column, entry) pairs, int columns strictly increasing, nonzero
    `Fraction` entries; checked and kept as given (`from_dense` converts).
    """

    nrows: int
    ncols: int
    rows: tuple[tuple[tuple[int, Fraction], ...], ...]

    def __post_init__(self):
        if self.nrows < 0 or self.ncols < 0:
            raise ValueError("negative dimension")
        if len(self.rows) != self.nrows:
            raise ValueError(f"expected {self.nrows} rows, got {len(self.rows)}")
        ncols = self.ncols
        for i, row in enumerate(self.rows):
            prev = -1
            for col, val in row:
                if type(col) is not int:
                    raise ValueError(f"row {i}: column {col!r} is not an int")
                if not 0 <= col < ncols:
                    raise ValueError(f"row {i}: column {col} out of range")
                if col == prev:
                    raise ValueError(f"row {i}: duplicate column {col}")
                if col < prev:
                    raise ValueError(f"row {i}: column {col} after {prev}, not increasing")
                if not isinstance(val, Fraction):
                    raise ValueError(f"row {i}: entry {val!r} at column {col} is not a Fraction")
                if not val:
                    raise ValueError(f"row {i}: explicit zero entry at column {col}")
                prev = col

    @classmethod
    def from_dense(cls, rows: Sequence[Sequence]) -> "SparseMatrix":
        nrows = len(rows)
        ncols = len(rows[0]) if nrows else 0
        sparse = []
        for row in rows:
            if len(row) != ncols:
                raise ValueError("ragged dense matrix")
            sparse.append(
                tuple((j, Fraction(v)) for j, v in enumerate(row) if Fraction(v) != 0)
            )
        return cls(nrows, ncols, tuple(sparse))

    def to_dense(self) -> list[list[Fraction]]:
        dense = [[ZERO] * self.ncols for _ in range(self.nrows)]
        for i, row in enumerate(self.rows):
            for j, v in row:
                dense[i][j] = v
        return dense

    def mat_vec(self, q: Sequence[Fraction]) -> list[Fraction]:
        if len(q) != self.ncols:
            raise ValueError("dimension mismatch")
        return [sum((v * q[j] for j, v in row if q[j]), ZERO) for row in self.rows]

    def vec_mat(self, y: Sequence[Fraction]) -> list[Fraction]:
        if len(y) != self.nrows:
            raise ValueError("dimension mismatch")
        out = [ZERO] * self.ncols
        for i, row in enumerate(self.rows):
            yi = y[i]
            if yi == 0:
                continue
            for j, v in row:
                out[j] += yi * v
        return out


@dataclass(frozen=True)
class FeasibilityResult:
    """Feasible with witness Q, or infeasible with Farkas vector y."""

    feasible: bool
    witness: tuple[Fraction, ...] | None
    farkas: tuple[Fraction, ...] | None
    pivots: int


def _phase_one(A: list[list[int]], b: list[int]) -> tuple[bool, list[Fraction], int]:
    """Phase-one simplex on AQ = b, Q >= 0 with integer A and integer b >= 0.

    Edmonds' integer-preserving pivoting: the rows A_i | e_i | b_i and the
    priced-out objective row are integers over one common denominator d, the
    last pivot (1 before the first).  Every entry is d times the value the
    Fraction tableau would hold, and a minor of the initial integer tableau,
    so every division below is exact.  The pivot row stays as it is: over the
    new d, the pivot, it is the Fraction pivot row divided by its pivot.
    Pivots are positive, so d > 0 and the integers order the reduced costs
    and ratios as the Fraction tableau's values do.

    Dantzig's rule enters the column with the most negative reduced cost,
    ties to the lowest index.  Once more than DEGENERATE_RUN degenerate
    pivots (ratio 0) come in a row, Bland's least-index rule enters instead
    until the next nondegenerate pivot.  This terminates: the objective drops
    strictly at each nondegenerate pivot, so no basis recurs across one, and
    a cycle inside a degenerate run would end in Bland pivots only, which
    cannot cycle.  The leaving row is the least ratio, ties to the lowest
    basic variable.  Returns (feasible, witness or phase-one dual y', pivot
    count).
    """
    m = len(A)
    n = len(A[0]) if m else 0
    total = n + m
    # tableau rows: original columns, artificial identity, rhs
    num = [A[i] + [0] * i + [1] + [0] * (m - 1 - i) + [b[i]] for i in range(m)]
    basis = list(range(n, n + m))
    # reduced costs of min sum(artificials), priced out for the artificial basis
    obj = [-sum(col) for col in zip(*A)] + [0] * m + [-sum(b)]
    d = 1

    pivots = 0
    stall = 0  # degenerate pivots in a row
    while True:
        if stall > DEGENERATE_RUN:
            enter = next((j for j in range(total) if obj[j] < 0), -1)
        else:
            low = min(obj[:total])
            enter = obj.index(low) if low < 0 else -1
        if enter < 0:
            break
        leave = -1
        lead_num = lead_den = 0  # best ratio = lead_num / lead_den, lead_den > 0
        for i in range(m):
            a = num[i][enter]
            if a > 0:
                ri_num = num[i][total]
                cmp = ri_num * lead_den - lead_num * a
                if leave < 0 or cmp < 0 or (cmp == 0 and basis[i] < basis[leave]):
                    leave = i
                    lead_num, lead_den = ri_num, a
        if leave < 0:
            raise RuntimeError("phase-one objective unbounded; invariant violated")

        prow = num[leave]
        piv = prow[enter]
        for i in range(m):
            if i != leave:
                f = num[i][enter]
                num[i] = [(v * piv - f * pv) // d for v, pv in zip(num[i], prow)]
        f = obj[enter]
        obj = [(v * piv - f * pv) // d for v, pv in zip(obj, prow)]
        d = piv
        basis[leave] = enter
        pivots += 1
        stall = stall + 1 if lead_num == 0 else 0

    if obj[total] == 0:
        x = [ZERO] * n
        for i, bv in enumerate(basis):
            if bv < n:
                x[bv] = Fraction(num[i][total], d)
        return True, x, pivots
    y = [ONE - Fraction(obj[n + k], d) for k in range(m)]
    return False, y, pivots


def solve_equality_feasibility(
    M: SparseMatrix, P: Sequence, row_basis: Iterable[int] | None = None
) -> FeasibilityResult:
    """Decide MQ = P, Q >= 0 exactly.

    `row_basis`, if given, names the rows of M that phase one uses.  Presolve
    still reads every row; phase one runs only on the unsettled rows of the
    basis, and the Farkas vector is zero on the rows it skipped.  An
    infeasible result is always a certificate for the whole system, since a
    Farkas vector of some rows, zero on the rest, is one of all rows.  A
    feasible result solves the whole system when the basis rows span every
    row and P obeys the same linear relations (a settled row is zero on the
    live columns with P-component 0, so the relations still hold among the
    unsettled rows); otherwise its witness may fail the skipped rows, which
    `verify_certificate` against the full M rejects.

    Presolve settles rows in two sweeps over the rows in order, skipping
    settled ones.  A row with no live (undropped) column is settled if its
    P-component is 0 and proves infeasibility otherwise.  A row with P-component
    0 whose entries all share one sign fires: its live columns are dropped
    (forced to zero) and it is settled.  Two sweeps reach the fixpoint: whether
    a row can fire depends only on its P-component and its entries' signs, so
    every firing happens in the first sweep; dropping columns can only empty
    rows, which the second sweep settles, and settling drops nothing more.
    The phase-one simplex then runs on the reduced system, and certificates
    are mapped back to the full one.
    """
    P = [Fraction(p) for p in P]
    if len(P) != M.nrows:
        raise ValueError(f"P has length {len(P)}, matrix has {M.nrows} rows")

    m, n = M.nrows, M.ncols
    rows = M.rows
    settled = [False] * m
    fired: list[int] = []
    dropped: set[int] = set()
    infeasible_row = -1
    for i in 2 * list(range(m)):
        if settled[i]:
            continue
        row = rows[i]
        live = [c for c, _ in row if c not in dropped]
        if not live:
            if P[i] != 0:
                infeasible_row = i
                break
            settled[i] = True
        elif P[i] == 0:
            # a Fraction's denominator is positive, so its numerator carries the sign
            positive = row[0][1].numerator > 0
            if all((v.numerator > 0) == positive for _, v in row):
                settled[i] = True
                fired.append(i)
                dropped.update(live)

    def assemble_farkas(kept_y: dict[int, Fraction]) -> tuple[Fraction, ...]:
        # columns dropped by fired rows need a uniform large multiplier -K
        # on those rows so that y'M <= 0 holds on them too
        num: dict[int, Fraction] = {}
        for i, yi in kept_y.items():
            for j, v in rows[i]:
                if j in dropped:
                    num[j] = num.get(j, ZERO) + yi * v
        den = {j: ZERO for j, s in num.items() if s > 0}
        for z in fired:
            for j, v in rows[z]:
                if j in den:
                    den[j] += abs(v)
        K = max([ONE] + [num[j] / den[j] for j in den])
        y = [kept_y.get(i, ZERO) for i in range(m)]
        for z in fired:
            y[z] = -K if rows[z][0][1] > 0 else K
        return tuple(y)

    if infeasible_row >= 0:
        sign = ONE if P[infeasible_row] > 0 else -ONE
        return FeasibilityResult(False, None, assemble_farkas({infeasible_row: sign}), 0)

    kept_rows = [i for i in range(m) if not settled[i]]
    if row_basis is not None:
        basis = set(row_basis)
        kept_rows = [i for i in kept_rows if i in basis]
    kept_cols = [j for j in range(n) if j not in dropped]
    if not kept_rows:
        return FeasibilityResult(True, tuple([ZERO] * n), None, 0)

    # integer system: scale_a scales every row alike, scale_b every variable
    flip = [1 if P[i] >= 0 else -1 for i in kept_rows]
    kept = [{j: s * v for j, v in rows[i] if j not in dropped} for i, s in zip(kept_rows, flip)]
    scale_a = lcm(*(v.denominator for row in kept for v in row.values()))
    rhs = [s * P[i] * scale_a for i, s in zip(kept_rows, flip)]
    scale_b = lcm(*(r.denominator for r in rhs))
    A = [[int(row.get(j, 0) * scale_a) for j in kept_cols] for row in kept]

    feasible, vec, pivots = _phase_one(A, [int(r * scale_b) for r in rhs])
    if feasible:
        witness = [ZERO] * n
        for k, j in enumerate(kept_cols):
            witness[j] = vec[k] / scale_b
        return FeasibilityResult(True, tuple(witness), None, pivots)
    kept_y = {i: s * vec[k] for k, (i, s) in enumerate(zip(kept_rows, flip))}
    return FeasibilityResult(False, None, assemble_farkas(kept_y), pivots)


def verify_certificate(M: SparseMatrix, P: Sequence, result: FeasibilityResult) -> bool:
    """Re-check the certificate by direct exact arithmetic, independent of the
    solver: MQ = P with Q >= 0, or y'M <= 0 with y'P > 0."""
    P = [Fraction(p) for p in P]
    if len(P) != M.nrows:
        return False
    if result.feasible:
        q = result.witness
        if q is None or len(q) != M.ncols:
            return False
        if any(v < 0 for v in q):
            return False
        return M.mat_vec(list(q)) == P
    y = result.farkas
    if y is None or len(y) != M.nrows:
        return False
    if any(v > 0 for v in M.vec_mat(list(y))):
        return False
    return sum(yi * pi for yi, pi in zip(y, P)) > 0
