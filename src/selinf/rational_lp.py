"""Exact linear feasibility: does MQ = P, Q >= 0 have a solution?

The solver is a phase-one revised simplex on the standard-form system with
artificial variables (minimize their sum).  It prices by Dantzig's rule (most
negative reduced cost, ties to the lowest index) and falls back to Bland's
least-index rule inside long runs of degenerate pivots, so it terminates on
every input and is deterministic: identical inputs give identical witnesses
and pivot counts.  Its state is the basis inverse and the artificial reduced
costs times d, the last pivot, all integers (Edmonds' integer-preserving
pivoting); it prices from the sparse columns, forming no full tableau.  The
system becomes integer by scaling every row by one positive number and every
variable by another; the witness is scaled back, and a Farkas vector of the
scaled rows is one of the original rows, since one positive row scale changes
no sign of y'M or y'P.  Phase one may run on a subset of the rows that implies
the others (a row basis, see `solve_equality_feasibility`).  Infeasibility
comes with a Farkas vector y (y'M <= 0, y'P > 0) read off the optimal
phase-one duals, so every verdict is self-verifying via `verify_certificate`.
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


@dataclass(frozen=True)
class FeasibilityResult:
    """Feasible with witness Q, or infeasible with Farkas vector y."""

    feasible: bool
    witness: tuple[Fraction, ...] | None
    farkas: tuple[Fraction, ...] | None
    pivots: int


def _phase_one(cols: list[list[tuple[int, int]]], b: list[int]) -> tuple[bool, list[Fraction], int]:
    """Phase-one revised simplex on AQ = b, Q >= 0, integer A and integer b >= 0.

    `cols[j]` lists column j of A as (row, entry) pairs.  The state is the
    rows d*B^-1 | d*x_B and `art` = d*(artificial reduced costs | -objective),
    B the basis matrix and d the last pivot (1 before the first): the last
    m+1 columns of Edmonds' integer tableau over A | I | b, whose entries are
    d times the Fraction tableau's values and minors of A | I | b, so every
    division is exact.  The pivot row stays as it is: over the new d, the
    pivot, it is the Fraction pivot row divided by its pivot.  The other
    columns are priced from `cols`: the tableau holds (d*B^-1)_i . a_j in row
    i of column j and sum_i (art_i - d) a_ij as its reduced cost, d - art_i
    being d times row i's dual, so every integer compared is the tableau's.
    Pivots are positive, so d > 0 and the integers order as the Fractions do.

    Dantzig's rule enters the column with the most negative reduced cost,
    ties to the lowest index (structural columns first).  Once more than
    DEGENERATE_RUN degenerate pivots (ratio 0) come in a row, Bland's
    least-index rule enters instead until the next nondegenerate pivot.  This
    terminates: the objective drops strictly at each nondegenerate pivot, so
    no basis recurs across one, and a cycle inside a degenerate run would end
    in Bland pivots only, which cannot cycle.  The leaving row is the least
    ratio, ties to the lowest basic variable.  Returns (feasible, witness or
    phase-one dual y', pivot count).
    """
    m, n = len(b), len(cols)
    inv = [[0] * i + [1] + [0] * (m - 1 - i) + [b[i]] for i in range(m)]
    basis = list(range(n, n + m))
    art = [0] * m + [-sum(b)]
    d = 1

    pivots = 0
    stall = 0  # degenerate pivots in a row
    while True:
        dual = [a - d for a in art[:m]]  # -d times the duals
        obj = [sum([dual[i] * v for i, v in col]) for col in cols] + art[:m]
        if stall > DEGENERATE_RUN:
            enter = next((j for j, v in enumerate(obj) if v < 0), -1)
        else:
            low = min(obj)
            enter = obj.index(low) if low < 0 else -1
        if enter < 0:
            break
        if enter < n:
            alpha = [sum([row[i] * v for i, v in cols[enter]]) for row in inv]
        else:
            alpha = [row[enter - n] for row in inv]
        leave = -1
        lead_num = lead_den = 0  # best ratio = lead_num / lead_den, lead_den > 0
        for i, a in enumerate(alpha):
            if a > 0:
                ri_num = inv[i][m]
                cmp = ri_num * lead_den - lead_num * a
                if leave < 0 or cmp < 0 or (cmp == 0 and basis[i] < basis[leave]):
                    leave = i
                    lead_num, lead_den = ri_num, a
        if leave < 0:
            raise RuntimeError("phase-one objective unbounded; invariant violated")

        prow = inv[leave]
        piv = alpha[leave]
        for i, f in enumerate(alpha):
            if i != leave:
                inv[i] = [(v * piv - f * pv) // d for v, pv in zip(inv[i], prow)]
        f = obj[enter]
        art = [(v * piv - f * pv) // d for v, pv in zip(art, prow)]
        d = piv
        basis[leave] = enter
        pivots += 1
        stall = stall + 1 if lead_num == 0 else 0

    if art[m] == 0:
        x = [ZERO] * n
        for i, bv in enumerate(basis):
            if bv < n:
                x[bv] = Fraction(inv[i][m], d)
        return True, x, pivots
    y = [ONE - Fraction(art[k], d) for k in range(m)]
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
    live = [[(j, v) for j, v in rows[i] if j not in dropped] for i in kept_rows]
    scale_a = lcm(*{v.denominator for row in live for _, v in row})
    rhs = [s * P[i] * scale_a for i, s in zip(kept_rows, flip)]
    scale_b = lcm(*(r.denominator for r in rhs))
    position = dict(zip(kept_cols, range(n)))
    cols = [[] for _ in kept_cols]
    for k, (row, s) in enumerate(zip(live, flip)):
        for j, v in row:
            cols[position[j]].append((k, s * v.numerator * (scale_a // v.denominator)))

    feasible, vec, pivots = _phase_one(cols, [int(r * scale_b) for r in rhs])
    if feasible:
        witness = [ZERO] * n
        for k, j in enumerate(kept_cols):
            witness[j] = vec[k] / scale_b
        return FeasibilityResult(True, tuple(witness), None, pivots)
    kept_y = {i: s * vec[k] for k, (i, s) in enumerate(zip(kept_rows, flip))}
    return FeasibilityResult(False, None, assemble_farkas(kept_y), pivots)


def verify_certificate(M: SparseMatrix, P: Sequence, result: FeasibilityResult) -> bool:
    """Re-check the certificate by direct exact arithmetic, independent of the
    solver: MQ = P with Q >= 0, or y'M <= 0 with y'P > 0, over integers: the
    certificate times its denominators' lcm, each entry of M it meets as its
    numerator times (the met entries' denominators' lcm // its denominator)."""
    P = [Fraction(p) for p in P]
    if len(P) != M.nrows:
        return False
    cert = result.witness if result.feasible else result.farkas
    if cert is None or len(cert) != (M.ncols if result.feasible else M.nrows):
        return False
    nonzero = {i: Fraction(v) for i, v in enumerate(cert) if v}
    scale_c = lcm(*(v.denominator for v in nonzero.values()))
    c = {i: v.numerator * (scale_c // v.denominator) for i, v in nonzero.items()}
    if result.feasible:
        met = [[(j, v) for j, v in row if j in c] for row in M.rows]
        scale_m = lcm(*{v.denominator for row in met for _, v in row})
        return all(v > 0 for v in c.values()) and all(
            sum([c[j] * v.numerator * (scale_m // v.denominator) for j, v in row])
            == p * scale_c * scale_m
            for row, p in zip(met, P)
        )
    met = [(ci, M.rows[i]) for i, ci in c.items()]
    scale_m = lcm(*{v.denominator for _, row in met for _, v in row})
    out = [0] * M.ncols
    for ci, row in met:
        for j, v in row:
            out[j] += ci * v.numerator * (scale_m // v.denominator)
    return all(v <= 0 for v in out) and sum(ci * P[i] for i, ci in c.items()) > 0
