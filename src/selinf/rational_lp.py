"""Exact linear feasibility: does MQ = P, Q >= 0 have a solution?

The solver is a phase-one revised simplex on the standard-form system with
artificial variables (minimize their sum).  It prices by Dantzig's rule (most
negative reduced cost, ties to the lowest index) and falls back to Bland's
least-index rule inside long runs of degenerate pivots, so it terminates on
every input and is deterministic: identical inputs give identical witnesses
and pivot counts.  Its state is the basis inverse and the artificial reduced
costs times d, the last pivot, all integers (Edmonds' integer-preserving
pivoting); it forms no full tableau.  The state is column-packed: each of
its m+1 columns is one Python int whose digits, W bits each, are the column's
entries, so a pivot updates a column by one big-integer expression instead
of m+1 small ones.  W comes from a rigorous bound on the entries, never
from a guess: one running bound carried from pivot to pivot, and the
columns are repacked wider only when that bound outgrows W.  `simplex` is
that one ratio-test and update core, on any integer system; the system it
solves supplies pricing and the entering column.  Phase one may run on a
subset of the rows that implies the others (a row basis, see
`solve_equality_feasibility`).
Infeasibility comes with a Farkas vector y (y'M <= 0, y'P > 0) read off the
optimal phase-one duals, so every verdict is self-verifying via
`verify_certificate`.

M is the LFT's 0/1 matrix as `lft.LftSystem` derives it from the
experiment's design, never stored, and P >= 0.
"""
from __future__ import annotations

from fractions import Fraction
from typing import TYPE_CHECKING, Callable, Iterable, NamedTuple, Sequence

from .experiment import ONE, ZERO, coerce_prob

if TYPE_CHECKING:
    from .lft import LftSystem

# once more than this many degenerate pivots come in a row, Bland's rule
# prices instead of Dantzig's until the next nondegenerate pivot
DEGENERATE_RUN = 50

# price(dual, bland) -> (column, its reduced cost) or (-1, None); see `simplex`
Pricer = Callable[[list[int], bool], tuple[int, int | None]]


class FeasibilityResult(NamedTuple):
    """Feasible with witness Q, or infeasible with Farkas vector y."""

    feasible: bool
    witness: tuple[Fraction, ...] | None
    farkas: tuple[Fraction, ...] | None
    pivots: int


class Witness(tuple):
    """A dense witness made from its nonzero entries, which it keeps as
    `support`, (column, value) pairs in column order: readers of the nonzero
    entries need not scan every column."""

    support: tuple[tuple[int, Fraction], ...]

    def __new__(cls, ncols: int, values: dict[int, Fraction]):
        dense = [ZERO] * ncols
        for j, v in values.items():
            dense[j] = v
        witness = super().__new__(cls, dense)
        witness.support = tuple(sorted((j, v) for j, v in values.items() if v))
        return witness


class Presolve(NamedTuple):
    """What presolve decided before phase one.

    The rows with P-component 0, the zero rows, leave phase one, and every
    column that meets one is forced to zero.  `infeasible_row` is a row with
    P-component nonzero that meets no live column, which proves
    infeasibility alone, or -1.  `free[f][w]` lists the outcomes a whose
    cell (w, a) of front f (see `lft.LftSystem`) holds no zero row: the live
    columns are made of them.  `fired()` computes, when called, the zero
    rows that still met a live column when presolve reached them.
    """

    infeasible_row: int
    free: list[list[list[int]]]
    fired: Callable[[], tuple[int, ...]]


def _width(bound: int) -> int:
    """The digit width, in bits, of packed columns whose digits below the
    top are at most `bound` in absolute value: the least multiple of 8 with
    bound < 2**(width - 1)."""
    return (bound.bit_length() + 8) // 8 * 8


def _layout(width: int, m: int) -> tuple[int, int, int, range]:
    """(half, mask, bias, shifts) of packed columns with m digits of `width`
    bits below the top one: digit i sits at shifts[i] and the top digit at
    shifts.stop, and adding bias adds half to each digit below the top,
    which makes them unsigned."""
    half = 1 << (width - 1)
    bias = int.from_bytes(half.to_bytes(width // 8, "little") * m, "little")
    return half, (1 << width) - 1, bias, range(0, width * m, width)


def _pack(low: list[int], top: int, width: int) -> int:
    """The packed column with digits `low` below the top digit `top`."""
    half, _, bias, shifts = _layout(width, len(low))
    raw = b"".join([(e + half).to_bytes(width // 8, "little") for e in low])
    return int.from_bytes(raw, "little") - bias + (top << shifts.stop)


def _refit(
    cols: list[int], m: int, width: int, need: Callable[[int], int]
) -> tuple[int, int, list[int]]:
    """Unpack every column at `width`; exact is the largest digit below the
    top.  Repack at the width that holds exact and need(exact), plus one byte
    for the digits to grow into.  Returns (exact, the new width, the
    columns)."""
    half, mask, bias, shifts = _layout(width, m)
    lows = [[((y >> s) & mask) - half for s in shifts] for y in [c + bias for c in cols]]
    tops = [((c >> (shifts.stop - 1)) + 1) >> 1 for c in cols]
    exact = max([max(map(abs, low)) for low in lows])
    width = _width(max(exact, need(exact))) + 8
    return exact, width, [_pack(low, top, width) for low, top in zip(lows, tops)]


def simplex(
    b: list[int], n: int, price: Pricer, column: Callable[[int], list[tuple[int, int]]]
) -> tuple[bool, dict[int, Fraction] | list[Fraction], int]:
    """Phase-one revised simplex on AQ = b, Q >= 0, integer A with n columns
    and integer b >= 0.

    `column(j)` lists column j of A as (row, entry) pairs.  The state is the
    rows d*B^-1 | d*x_B and `art` = d*(artificial reduced costs | -objective),
    B the basis matrix and d the last pivot (1 before the first): the last
    m+1 columns of Edmonds' integer tableau over A | I | b, whose entries are
    d times the Fraction tableau's values and minors of A | I | b, so every
    division is exact.  The pivot row stays as it is: over the new d, the
    pivot, it is the Fraction pivot row divided by its pivot.  The structural
    columns are priced by `price(dual, bland)`, dual_i = art_i - d being -d
    times row i's dual: column j's reduced cost in the tableau is
    sum_i dual_i a_ij, so every integer compared is the tableau's.  Pivots are
    positive, so d > 0 and the integers order as the Fractions do.

    The state is held column-packed: column j is one int, sum_i e_ij 2**(W i)
    over its entries e_ij in rows i < m and art_j as digit m, the top.  The
    digits below the top are signed and |e| < 2**(W-1); the top one is read
    by a rounding shift and may be any size.  Packing is linear and every
    entry of the update divides exactly, so one expression per column,
    (C_j * piv - alpha' * pv_j) // d, is the whole Edmonds update: alpha' is
    the packed entering column sum_k v_k C_k, with digit `leave` set to
    piv - d (that row stays) and the top digit to the entering cost.  Per
    pivot only the art digits (for pricing), alpha and x_B (for the ratio
    test) and the pivot row (pv_j) are unpacked.

    W, a multiple of 8, holds the digits below the top by one rigorous
    bound U, carried from pivot to pivot; U starts at max b, packed one
    byte wider than it needs.  Over a pivot U becomes
    (U * piv + a * max|pv_j|) // d + 1, where a = max(|piv - d|, max|alpha_i|)
    bounds the digits of alpha' below the top; it also covers the pivot row,
    whose digits pv_j stay, since U * piv + a * |pv_j| >= d * |pv_j|.  An
    alpha digit is at most sum |v_k| * U.  When sum |v_k| * U (before the
    entering column is formed) or the carried U (after the update) reaches
    2**(W-1), the columns are unpacked and repacked one byte wider than
    that bound and their exact largest digit need, and U is reset to that
    exact maximum.

    Dantzig's rule enters the column with the most negative reduced cost,
    ties to the lowest index; the structural columns 0..n-1 come before the
    artificial ones n..n+m-1, so `price(dual, False)` returns the lowest
    structural column of least reduced cost and that cost.  Once more than
    DEGENERATE_RUN degenerate pivots (ratio 0) come in a row, Bland's
    least-index rule enters instead until the next nondegenerate pivot:
    `price(dual, True)` returns the first structural column of negative
    reduced cost.  Either returns (-1, None) when it has none.  This
    terminates: the objective drops strictly at each nondegenerate pivot, so
    no basis recurs across one, and a cycle inside a degenerate run would end
    in Bland pivots only, which cannot cycle.  The leaving row is the least
    ratio, ties to the lowest basic variable.  Returns (feasible, the basic
    structural values by column or the phase-one dual y', pivot count).
    A system with no rows is solved by Q = 0.
    """
    m = len(b)
    if not m:
        return True, {}, 0
    basis = list(range(n, n + m))
    bound = max(1, *b)  # the running bound on the digits below the top
    d = 1
    width = _width(bound) + 8
    cols = [1 << (width * k) for k in range(m)]
    cols.append(_pack(b, -sum(b), width))
    half, mask, bias, shifts = _layout(width, m)

    pivots = 0
    stall = 0  # degenerate pivots in a row
    while True:
        art = [((c >> (shifts.stop - 1)) + 1) >> 1 for c in cols]
        low = art[:m]
        dual = [a - d for a in low]  # -d times the duals
        bland = stall > DEGENERATE_RUN
        enter, cost = price(dual, bland)
        if bland:
            if enter < 0:
                k = next((k for k, v in enumerate(low) if v < 0), -1)
                enter, cost = (n + k, art[k]) if k >= 0 else (-1, None)
        else:
            least = min(low)
            if enter < 0 or least < cost:
                enter, cost = n + low.index(least), least
            if cost >= 0:
                enter = -1
        if enter < 0:
            break
        col = column(enter) if enter < n else [(enter - n, 1)]
        l1 = sum([abs(v) for _, v in col])
        if l1 * bound >= half:
            bound, width, cols = _refit(cols, m, width, lambda u: l1 * u)
            half, mask, bias, shifts = _layout(width, m)
        packed = sum([v * cols[k] for k, v in col])
        y = packed + bias
        alpha = [((y >> s) & mask) - half for s in shifts]
        rhs = cols[m] + bias
        leave = -1
        lead_num = lead_den = 0  # best ratio = lead_num / lead_den, lead_den > 0
        for i, a in enumerate(alpha):
            if a > 0:
                ri_num = ((rhs >> shifts[i]) & mask) - half
                cmp = ri_num * lead_den - lead_num * a
                if leave < 0 or cmp < 0 or (cmp == 0 and basis[i] < basis[leave]):
                    leave = i
                    lead_num, lead_den = ri_num, a
        if leave < 0:
            raise RuntimeError("phase-one objective unbounded; invariant violated")

        piv = alpha[leave]
        top = sum([v * art[k] for k, v in col])
        pos = shifts[leave]
        pvs = [(((c + bias) >> pos) & mask) - half for c in cols]
        big = max(abs(piv - d), *map(abs, alpha))  # |digits of alpha'| <= big
        grow = big * max(map(abs, pvs))
        bound = (bound * piv + grow) // d + 1  # carried over this pivot
        if bound >= half:
            # the new width holds alpha too, packed again below
            exact, width, cols = _refit(cols, m, width, lambda u: max(big, (u * piv + grow) // d + 1))
            half, mask, bias, shifts = _layout(width, m)
            packed = _pack(alpha, top, width)
            pos = shifts[leave]
            bound = (exact * piv + grow) // d + 1
        step = packed - (d << pos) + ((cost - top) << shifts.stop)  # alpha'
        cols = [(c * piv - step * p) // d for c, p in zip(cols, pvs)]
        d = piv
        basis[leave] = enter
        pivots += 1
        stall = stall + 1 if lead_num == 0 else 0

    if art[m] == 0:
        rhs = cols[m] + bias
        x = {bv: Fraction(((rhs >> shifts[i]) & mask) - half, d) for i, bv in enumerate(basis) if bv < n}
        return True, x, pivots
    return False, [ONE - Fraction(art[k], d) for k in range(m)], pivots


def solve_equality_feasibility(
    M: LftSystem, P: Sequence, row_basis: Iterable[int] | None = None
) -> FeasibilityResult:
    """Decide MQ = P, Q >= 0 exactly.

    Presolve (`M.presolve`) covers every row in one pass over the cells; the
    sweeps of its rule run only for a row with P > 0 that no column free of
    zero rows meets, or for the fired rows that a Farkas vector needs.
    Phase one runs on the rows of `row_basis` (all rows if None) with
    P-component nonzero, and its Farkas vector, zero on the rows it skipped,
    certifies the whole system.  A feasible result solves the whole system
    when the basis rows span every row and P obeys the same linear
    relations (a zero row meets no live column, so they still hold among the
    other rows); otherwise its witness may fail the skipped rows, which
    `verify_certificate` against the full M rejects.  P's entries are read
    by `coerce_prob`.
    """
    P = list(map(coerce_prob, P))
    if len(P) != M.nrows:
        raise ValueError(f"P has length {len(P)}, matrix has {M.nrows} rows")

    pre = M.presolve(P)
    if pre.infeasible_row >= 0:
        return FeasibilityResult(False, None, M.farkas({pre.infeasible_row: ONE}, pre), 0)

    basis = range(M.nrows) if row_basis is None else set(row_basis)
    kept_rows = [i for i in range(M.nrows) if P[i] and i in basis]
    if not kept_rows:
        return FeasibilityResult(True, Witness(M.ncols, {}), None, 0)
    feasible, vec, pivots = M.phase_one(P, kept_rows, pre)
    if feasible:
        return FeasibilityResult(True, vec, None, pivots)
    return FeasibilityResult(False, None, M.farkas(vec, pre), pivots)


def verify_certificate(M: LftSystem, P: Sequence, result: FeasibilityResult) -> bool:
    """Re-check the certificate by direct exact arithmetic, independent of the
    solver: MQ = P with Q >= 0, or y'M <= 0 with y'P > 0.  The entries of P
    and of the certificate are read by `coerce_prob`."""
    P = list(map(coerce_prob, P))
    if len(P) != M.nrows:
        return False
    cert = result.witness if result.feasible else result.farkas
    if cert is None or len(cert) != (M.ncols if result.feasible else M.nrows):
        return False
    pairs = cert.support if isinstance(cert, Witness) else enumerate(cert)
    nonzero = {i: coerce_prob(v) for i, v in pairs if v}
    if result.feasible:
        return all(v > 0 for v in nonzero.values()) and M.reproduces(nonzero, P)
    return sum([v * P[i] for i, v in nonzero.items()]) > 0 and M.bounded(nonzero)
