"""Linear feasibility test for selective influences.

The question "can a single hidden variable with deterministic responses per
input value reproduce every treatment's joint distribution?" becomes: does
MQ = P, Q >= 0 have a solution?  P stacks all observed probabilities, one
block per treatment (treatments in sorted order, outcome tuples lexicographic
within a block).  Q ranges over all deterministic assignments: one outcome
for every value of every input, mixed-radix indexed with input 1's first
value most significant.  M(r, c) = 1 exactly when column c's assignment
produces row r's outcomes under row r's treatment, so each column has one 1
per treatment.

`run_lft` never builds M: the solver reads `LftSystem`, derived from the
design.  `build_jdc_matrix` builds M's rows as the columns of their 1s, row
(t, o) as the Kronecker product of the rows (t_i, o_i) of per-input matrices
M_i, for checks by plain arithmetic; no solver and no request reaches it.

Phase one uses only the rows that `collins_gisin_rows` picks, which span M;
presolve and certificate verification cover every row.

A feasible witness converts into an explicit classical model (`Si2Model`)
whose forward simulation reproduces the dataset exactly; infeasibility comes
with a verified Farkas vector.

A failing chain inequality is such a vector already: an order distance is a
pseudo-quasi-metric on every single assignment, so the chain's terms as
rows of y give y'M <= 0 and y'P = -slack > 0 (`chain_farkas`).  Handed the
chain stage's first failure, `run_lft` verifies that y and returns it,
skipping presolve and phase one; if the check fails it solves as usual.
"""
from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import accumulate, compress, product, repeat
from math import prod
from operator import mul
from typing import TYPE_CHECKING, NamedTuple, Sequence

from .errors import MarginalSelectivityError, SizeGuardError
from .experiment import (
    DESIGN_CACHE,
    ONE,
    ZERO,
    Dataset,
    ExperimentDesign,
    MarginalReport,
    OutcomeTuple,
    Treatment,
    ValidationReport,
    coerce_prob,
    compare_marginals,
    parse_index,
    scaled,
    validate_dataset,
)
from .io import format_exact
from .rational_lp import (
    FeasibilityResult,
    Presolve,
    Witness,
    simplex,
    solve_equality_feasibility,
    verify_certificate,
)

if TYPE_CHECKING:
    from .distances import ChainRecord, OrderRelation

Assignment = tuple[int, ...]
# default bound on the assignment count, the columns of M
COLUMN_GUARD = 10**6


@lru_cache(maxsize=DESIGN_CACHE)
def q_slot_offsets(design: ExperimentDesign) -> tuple[int, ...]:
    """Start position of each input's block of slots inside an assignment."""
    return tuple(accumulate(design.input_sizes[:-1], initial=0))


@lru_cache(maxsize=DESIGN_CACHE)
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
        """Hold the values, read by `coerce_prob`, as a `Witness`, which keeps
        the nonzero entries; a solver's witness is one already, so it is not
        scanned again."""
        values = self.values
        if not isinstance(values, Witness):
            exact = list(map(coerce_prob, values))
            values = Witness(len(exact), dict(enumerate(exact)))
        if len(values) != q_length(self.design):
            raise ValueError(f"Q has length {len(values)}, design needs {q_length(self.design)}")
        object.__setattr__(self, "values", values)

    def index_of(self, assignment: Sequence[int]) -> int:
        return mixed_radix_index(assignment, slot_bases(self.design))

    def assignment_at(self, flat: int) -> Assignment:
        return mixed_radix_digits(flat, slot_bases(self.design))

    def support(self) -> list[tuple[Fraction, Assignment]]:
        """The nonzero entries as (weight, assignment), in index order."""
        return list(self._support)

    @cached_property
    def _support(self) -> tuple[tuple[Fraction, Assignment], ...]:
        return tuple((v, self.assignment_at(i)) for i, v in self.values.support)


def assignment_outcome(
    assignment: Assignment, treatment: Treatment, offsets: tuple[int, ...]
) -> OutcomeTuple:
    """Outcome tuple the assignment produces under the treatment."""
    return tuple(assignment[off + j - 1] for off, j in zip(offsets, treatment))


def build_p_vector(
    dataset: Dataset, *, validation_report: ValidationReport | None = None
) -> tuple[Fraction, ...]:
    """P: the dataset's exact probabilities, one block per treatment in
    sorted order, outcome tuples lexicographic within a block.  Refuses
    invalid data, by the caller's `validate_dataset` report of it if given,
    else by validating it here."""
    report = validation_report if validation_report is not None else validate_dataset(dataset)
    if not report.valid:
        raise ValueError(f"invalid dataset: {report.summary()}")
    design = dataset.design
    outcomes = list(design.all_outcomes())
    return tuple([dataset.tables[tr].get(o, ZERO) for tr in design.treatments for o in outcomes])


def _guarded_q_length(design: ExperimentDesign, column_guard: int) -> int:
    """The assignment count, the columns of M; refuses more than `column_guard`."""
    ncols = q_length(design)
    if ncols > column_guard:
        raise SizeGuardError(
            f"assignment space has {ncols} columns, over the guard {column_guard}; "
            f"pass a larger column_guard (CLI: --column-guard) to proceed"
        )
    return ncols


def build_jdc_matrix(
    design: ExperimentDesign, column_guard: int = COLUMN_GUARD
) -> tuple[tuple[int, ...], ...]:
    """M as its rows, each the increasing tuple of the columns where it has a
    1, the only value it holds; refuses designs whose assignment count
    exceeds `column_guard` (override by passing a larger guard).  Input i's
    table maps (slot w, outcome a) to its block's values with a in slot w,
    times the block's stride (the later blocks' sizes multiplied); row (t, o)
    sums one entry per input at (t_i, o_i), ascending as input 1 is slowest."""
    ncols = _guarded_q_length(design, column_guard)
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
            rows.append(tuple(cols))
    return tuple(rows)


@lru_cache(maxsize=DESIGN_CACHE)
def _front_cells(design: ExperimentDesign) -> tuple[tuple[tuple[tuple[int, ...], ...], ...], ...]:
    """Per front, per last slot w, per outcome a, the rows of cell (w, a)
    (see `LftSystem`), in tuples: they depend on the design alone."""
    block = prod(design.outcome_sizes)
    offsets = q_slot_offsets(design)
    strides = [prod(design.outcome_sizes[i + 1:]) for i in range(design.n - 1)]
    k, m = design.input_sizes[-1], design.outcome_sizes[-1]
    fronts = []
    for f in product(*map(range, slot_bases(design)[: offsets[-1]])):
        cells = [[[] for _ in range(m)] for _ in range(k)]
        for t, tr in enumerate(design.treatments):
            row = t * block + sum([f[off + w - 1] * s for off, w, s in zip(offsets, tr, strides)])
            for rows in cells[tr[-1] - 1]:
                rows.append(row)
                row += 1
        fronts.append(tuple(tuple(map(tuple, cw)) for cw in cells))
    return tuple(fronts)


class LftSystem:
    """The LFT's M as its design describes it, never built.

    A column is an assignment h: its front, the slots of inputs 1..n-1, then
    the last input's slots a_1..a_k, so its index is the front's index times
    m_n**k plus a's mixed-radix index.  Row (t, o) meets h (entry +1) iff h
    yields o under t: the front's outcomes under t, then a_{t_n}.  Once the
    front is fixed the last slots are independent: the rows h meets are the
    union over w of cell (w, a_w), the rows (t, front under t, a_w) with
    t_n = w.  Pricing, presolve and the Farkas bound read these cells,
    |fronts| x T x m_n rows, not M's T x |columns| entries.  Verification
    reads neither: it simulates a witness's atoms and enumerates the
    assignments against a Farkas vector.

    The cells depend on the design alone.  They are built on first use,
    once per design per process (`_front_cells`, a bounded cache keyed on
    the design), so the chain route, which only verifies, builds none.
    """

    def __init__(self, design: ExperimentDesign, column_guard: int = COLUMN_GUARD):
        self.design = design
        self.ncols = _guarded_q_length(design, column_guard)
        self.nrows = p_length(design)

    @cached_property
    def _cells(self) -> tuple[tuple[tuple[tuple[int, ...], ...], ...], ...]:
        return _front_cells(self.design)

    def presolve(self, P: list[Fraction]) -> Presolve:
        """Decide the zero rows before phase one, by this rule: sweep the rows
        in order twice, skipping settled ones.  A row that meets no live
        column (one not forced to zero) is settled if its P-component is 0,
        and otherwise proves infeasibility and ends presolve.  A row with
        P-component 0 that meets a live column fires: its columns are forced
        to zero and it is settled.  Unless presolve ends first, the first
        sweep settles every zero row, so the forced columns are those that
        meet a zero row, and the second sweep finds the positive rows that
        this emptied.

        Some row proves infeasibility iff no column made of free outcomes
        (`Presolve.free`) meets some row with P > 0: one pass over the cells
        tells.  Only then does `_sweeps` run here; otherwise `fired()` runs it.
        """
        if any(p < 0 for p in P):
            raise ValueError("P has a negative entry")
        zero = frozenset(i for i, p in enumerate(P) if not p)
        free = [[[a for a, rows in enumerate(cw) if zero.isdisjoint(rows)] for cw in cells]
                for cells in self._cells]
        met = set().union(*[cw[a] for cells, fs in zip(self._cells, free) if all(fs)
                            for cw, fw in zip(cells, fs) for a in fw]) if zero else range(self.nrows)
        if len(met) + len(zero) == self.nrows:
            return Presolve(-1, free, lambda: self._sweeps(P)[1])
        row, fired = self._sweeps(P)
        return Presolve(row, free, lambda: fired)

    def _sweeps(self, P) -> tuple[int, tuple[int, ...]]:
        """`presolve`'s rule: (the row that proves infeasibility or -1, the
        fired rows).  Row (t, o) with P = 0 forbids every h with h(t) = o.
        Let kill(h) be the first zero row h meets (nrows if none) and
        maxkill(r) the largest kill(h) over the h that meet row r.  A row with
        P > 0 has no live column when the first sweep reaches it iff
        maxkill(r) < r, and in the second sweep iff maxkill(r) < nrows.  A
        zero row fires iff maxkill(r) = r: some h of it meets no earlier zero
        row.  maxkill separates per front: the max over a of a min over the
        last slots is the min over the slots of each slot's max."""
        end = self.nrows
        kill = [end if p else i for i, p in enumerate(P)]
        maxkill = [-1] * end
        for cells in self._cells:
            first = [[min([kill[r] for r in rows], default=end) for rows in cw] for cw in cells]
            most = [max(fw) for fw in first]
            for w, cw in enumerate(cells):
                rest = min(most[:w] + most[w + 1:], default=end)
                for rows, v in zip(cw, first[w]):
                    v = min(v, rest)
                    for r in rows:
                        maxkill[r] = max(maxkill[r], v)
        positive = [i for i, p in enumerate(P) if p]
        row = next((i for i in positive if maxkill[i] < i), -1)
        limit = row  # the first sweep stopped here
        if row < 0:
            row = next((i for i in positive if maxkill[i] < end), -1)
            limit = end
        return row, tuple(i for i, p in enumerate(P) if not p and i < limit and maxkill[i] == i)

    def phase_one(self, P, kept_rows, pre):
        """`simplex` priced by exact min-sum over each front's last slots,
        every live front at once.

        Column (f, a) costs sum_w g_w(a_w), g_w(a) summing the duals of the
        kept rows of cell (w, a), over the free outcomes (`Presolve.free`); a
        front is live when each slot has one.  Dantzig's lowest-index least
        column is the first front of least sum_w min g_w, with each slot's
        smallest argmin.  Bland's first negative column is in the first front
        whose least sum is negative, with each slot's smallest a that the
        later slots' minima complete to a negative sum.

        The live fronts are priced together, as the digits of ints (SIMD
        within a register): digit i, W bits at bit W*i, is the i-th live
        front's.  A kept row lies in one cell (w, a), the same in every front
        that holds it, so one int holds cell (w, a) of every front:
        G_wa = sum_q dual_q ind_q + S + P dead_wa over the cell's kept rows
        q, where ind_q has digit 1 where a free cell holds row q and dead_wa
        digit 1 where the cell is not free.  S = sum |dual| bounds every |g|,
        so a free cell's digit is g + S, in [0, 2S], and any other's is
        S + P = 3S + 1 with P = 2S + 1: it never undercuts a free outcome of
        its slot, which every live front has, so the digitwise minimum over a
        is min g_w + S.  A cell free in no live front is left out.  No digit
        carries into the next while every digit and every front's sum of k
        minima stay below 2**(W-1): W is the least of 64, 128, 256, ... with
        k (4S + 1) < 2**(W-1), and the ints are laid out wider only when S
        outgrows W.  The digitwise minimum of X and Y is branch-free, with a
        guard bit H at the top of each digit: D = (X + H - Y) & H is set
        where X >= Y, and X ^ ((X ^ Y) & (D - (D >> (W-1)))) takes Y there.
        The totals, sum_w min g_w + kS per front, are read by bytes in
        little-endian order, whatever the host's, so the first least total
        is the first front of least sum and a total below kS a negative sum:
        the fronts and ties of pricing front by front.  The chosen front's g
        are its digits of the cell sums less S, exact, and its slots pick
        their outcomes and the cost as above.
        """
        scale, b = scaled(P[i] for i in kept_rows)
        design = self.design
        k, m = design.input_sizes[-1], design.outcome_sizes[-1]
        free = pre.free
        per = self.ncols // len(free)  # columns per front
        live = list(compress(range(len(free)), map(all, free)))
        count = len(live)
        position = dict(zip(kept_rows, range(len(kept_rows))))
        # in 64-bit digits, one per live front: ind[q] is 1 where a free cell
        # of the front holds kept row q, and dead[w * m + a] where its cell
        # (w, a) is not free; by_cell[w * m + a] lists the kept rows that
        # cell (w, a) holds where it is free
        ind, dead, by_cell = [0] * len(kept_rows), [0] * (k * m), [[] for _ in range(k * m)]
        units = [1 << 64 * i for i in range(count)]
        for f, unit in zip(live, units):
            for w, (cw, fw) in enumerate(zip(self._cells[f], free[f])):
                c = w * m
                if len(fw) < m:
                    for a in range(m):
                        if a not in fw:
                            dead[c + a] += unit
                for a in fw:
                    for r in cw[a]:
                        if r in position:
                            q = position[r]
                            if not ind[q]:
                                by_cell[c + a].append(q)
                            ind[q] += unit
        every = sum(units)

        def layout(bits):
            """The ints at W = `bits`, a multiple of 64: (2**(W-1), W, H, per
            slot its cells (w * m + a, their kept rows, their ind, dead), the
            int with digits 1, the totals' byte slices, their byte count)."""
            nb = bits // 8
            size = count * nb
            ones = int.from_bytes(b"\x01".ljust(nb, b"\0") * count, "little")

            def wide(x):  # x's 0/1 digits, 64 bits each, at `bits` bits
                spread = bytearray(size)
                spread[::nb] = x.to_bytes(count * 8, "little")[::8]
                return int.from_bytes(spread, "little")

            at, pen = (ind, dead) if nb == 8 else (list(map(wide, ind)), list(map(wide, dead)))
            # per slot its cells free in some live front: no other is the
            # slot's minimum in any live front
            cells = [[(c, by_cell[c], list(map(at.__getitem__, by_cell[c])), pen[c])
                      for c in range(w * m, w * m + m) if dead[c] != every] for w in range(k)]
            cuts = list(map(slice, range(0, size, nb), range(nb, size + nb, nb)))
            return 1 << (bits - 1), bits, ones << (bits - 1), cells, ones, cuts, size

        lay = layout(64)
        packed = [0] * (k * m)  # the last call's cell sums

        def price(dual, bland):
            nonlocal lay
            s = sum(map(abs, dual))
            if k * (4 * s + 1) >= lay[0]:
                width = 2 * lay[1]
                while k * (4 * s + 1) >= 1 << (width - 1):
                    width *= 2
                lay = layout(width)
            _, width, guard, cells, ones, cuts, size = lay
            get = dual.__getitem__
            start, penalty = s * ones, 2 * s + 1
            sums = 0
            for slot in cells:
                low = None
                for c, qs, inds, pen in slot:
                    g = packed[c] = sum(map(mul, map(get, qs), inds), start + penalty * pen)
                    if low is not None:
                        d = (g + guard - low) & guard  # guard set where g >= low
                        g ^= (g ^ low) & (d - (d >> (width - 1)))
                    low = g
                sums += low
            raw = sums.to_bytes(size, "little")
            totals = list(map(int.from_bytes, map(raw.__getitem__, cuts), repeat("little")))
            bar = k * s
            if bland:
                i = next((i for i, t in enumerate(totals) if t < bar), -1)
                if i < 0:
                    return -1, None
            else:
                i = totals.index(min(totals))
            f, shift, mask = live[i], width * i, (1 << width) - 1
            total = totals[i] - bar
            prefix = last = 0
            for w, allowed in enumerate(free[f]):
                g = [(packed[w * m + a] >> shift & mask) - s for a in allowed]  # front f's g, exact
                low = min(g)
                total -= low  # now the later slots' minima
                j = next(j for j, v in enumerate(g) if prefix + v + total < 0) if bland else g.index(low)
                prefix += g[j]
                last = last * m + allowed[j]
            return f * per + last, prefix

        def column(j):
            f, last = divmod(j, per)
            col = []
            for cw in reversed(self._cells[f]):
                last, a = divmod(last, m)
                col += [(position[r], 1) for r in cw[a] if r in position]
            return col

        feasible, vec, pivots = simplex(b, self.ncols, price, column)
        if not feasible:
            return False, dict(zip(kept_rows, vec)), pivots
        return True, Witness(self.ncols, {j: v / scale for j, v in vec.items()}), pivots

    def farkas(self, kept_y, pre):
        """y on the kept rows, and -K (`_farkas_bound`) on each fired row."""
        y = [kept_y.get(i, ZERO) for i in range(self.nrows)]
        fired = pre.fired()
        if fired:
            # a presolve-decided y is 1 on one row whose columns the fired
            # rows all meet, so no column needs more than K = 1
            bound = ONE if pre.infeasible_row >= 0 else self._farkas_bound(kept_y, pre.free, fired)
            for z in fired:
                y[z] = -bound
        return tuple(y)

    def _farkas_bound(self, kept_y, free, fired) -> Fraction:
        """The least K >= 1 with y'M_h <= K * (fired rows h meets) for every
        forced column h: phase one bounds y'M on the live columns only.  It
        is the largest of 1 and y'M_h over the fired rows h meets, over the
        forced h with y'M_h > 0; h meets at least one, since the first zero
        row h meets found h live and fired.  The one place that enumerates
        the forced columns."""
        scale, ints = scaled(kept_y.values())
        y = dict(zip(kept_y, ints))
        fired = set(fired)
        top, under = scale, 1  # K = top / (under * scale)
        for cells, fs in zip(self._cells, free):
            sums = [
                [(sum([y.get(r, 0) for r in rows]), len(fired.intersection(rows)), a not in fw)
                 for a, rows in enumerate(cw)]
                for cw, fw in zip(cells, fs)
            ]
            for h in product(*sums):
                num = sum([c[0] for c in h])
                if num > 0 and any(c[2] for c in h):
                    den = sum([c[1] for c in h])
                    if num * under > top * den:
                        top, under = num, den
        return Fraction(top, under * scale)

    def reproduces(self, q, P):
        """The witness's atoms, simulated, give P."""
        design = self.design
        bases = slot_bases(design)
        atoms = tuple((v, mixed_radix_digits(j, bases)) for j, v in sorted(q.items()))
        scale, sums = Si2Model(design, atoms).sums()
        made = (sums[tr].get(o, 0) for tr in design.treatments for o in design.all_outcomes())
        return all(v * p.denominator == p.numerator * scale for v, p in zip(made, P))

    def bounded(self, y):
        """sum_t y[t, h(t)] <= 0 for every assignment h, enumerated over the
        slots that the treatments with a nonzero y block read, in integers."""
        design = self.design
        block = prod(design.outcome_sizes)
        c = [0] * self.nrows
        for i, v in zip(y, scaled(y.values())[1]):
            c[i] = v
        offsets = q_slot_offsets(design)
        strides = [prod(design.outcome_sizes[i + 1:]) for i in range(design.n)]
        reads = [
            (t * block, [(off + w - 1, s) for off, w, s in zip(offsets, design.treatments[t], strides)])
            for t in sorted({i // block for i in y})
        ]
        slots = sorted({slot for _, rd in reads for slot, _ in rd})
        where = {slot: pos for pos, slot in enumerate(slots)}
        reads = [(base, [(where[slot], s) for slot, s in rd]) for base, rd in reads]
        bases = slot_bases(design)
        for h in product(*(range(bases[slot]) for slot in slots)):
            if sum([c[base + sum([h[pos] * s for pos, s in rd])] for base, rd in reads]) > 0:
                return False
        return True


class LftVerdict(NamedTuple):
    """Outcome of the linear feasibility test.

    Feasible means a classical (selective-influences) explanation exists and
    `witness` holds one; infeasible refutes it and `farkas` proves it.
    `chain_failure`, the (order, failing chain) that `farkas` was built
    from, is set only when the chain route decided the verdict.
    """

    design: ExperimentDesign
    feasible: bool
    witness: QVector | None
    farkas: tuple[Fraction, ...] | None
    pivots: int
    chain_failure: tuple[OrderRelation, ChainRecord] | None = None

    def to_json_dict(self) -> dict:
        doc: dict = {
            "verdict": "feasible" if self.feasible else "infeasible",
            "pivots": self.pivots,
        }
        if self.feasible:
            witness = [format_exact(ZERO)] * len(self.witness.values)
            for i, v in self.witness.values.support:
                witness[i] = format_exact(v)
            doc["witness"] = witness
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
            if self.chain_failure is not None:
                order, record = self.chain_failure
                doc["farkas_source"] = {
                    "stage": "chain-tests",
                    "order": order.name,
                    "points": [list(point) for point in record.sequence.points],
                }
        return doc


def collins_gisin_rows(design: ExperimentDesign) -> list[int]:
    """Flat P indices of the rows of M that phase one uses, in a new list;
    computed once per design per process (`_collins_gisin_rows`).

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
    return list(_collins_gisin_rows(design))


@lru_cache(maxsize=DESIGN_CACHE)
def _collins_gisin_rows(design: ExperimentDesign) -> tuple[int, ...]:
    inputs = range(1, design.n + 1)
    references = [
        {group[0] for group in design.treatment_groups([l for l in inputs if l != i]).values()}
        for i in inputs
    ]
    sizes = design.outcome_sizes
    outcomes = list(design.all_outcomes())
    return tuple(
        t_idx * len(outcomes) + pos
        for t_idx, tr in enumerate(design.treatments)
        for pos, outcome in enumerate(outcomes)
        if all(o < m or tr in refs for o, m, refs in zip(outcome, sizes, references))
    )


def chain_farkas(
    design: ExperimentDesign, order: OrderRelation, record: ChainRecord
) -> tuple[Fraction, ...]:
    """A Farkas vector for MQ = P built from a failing chain inequality.

    y is +1 on the rows (t, o) of the endpoint's treatment where o ranks the
    first point's output strictly below the last one's, and -1 on the same
    rows of each link's treatment, summed.  An assignment h meets one row
    per treatment, so y'M_h = 1[end] - sum 1[link] over h's own outcomes,
    which is <= 0: the order distance of a single joint outcome is a
    pseudo-quasi-metric.  y'P = lhs - rhs = -slack > 0.  Neither step reads
    the data, so this holds for any order, marginally selective or not.
    """
    outcomes = list(design.all_outcomes())
    y = [0] * p_length(design)
    for sign, link in ((1, record.endpoint), *((-1, lk) for lk in record.links)):
        (l1, _), (l2, _) = link.pair
        row = design.treatments.index(link.treatment) * len(outcomes)
        for o in outcomes:
            if order.rank(l1, o[l1 - 1]) < order.rank(l2, o[l2 - 1]):
                y[row] += sign
            row += 1
    return tuple(map(Fraction, y))


def run_lft(
    dataset: Dataset,
    column_guard: int = COLUMN_GUARD,
    *,
    validation_report: ValidationReport | None = None,
    chain_failure: tuple[OrderRelation, ChainRecord] | None = None,
) -> LftVerdict:
    """Run the feasibility test on a valid dataset.

    `validation_report` goes to `build_p_vector`, which refuses invalid data.
    `chain_failure`, an (order, failing `ChainRecord`) from `chain_test` on
    the same dataset, is a certificate already: `chain_farkas` turns it into
    y, and if `verify_certificate` accepts y the verdict is infeasible with
    0 pivots, without presolve or phase one.  If it does not, the test runs
    as without it.

    The system is `LftSystem`, so M is never built.  Phase one runs on the
    rows `collins_gisin_rows` picks, and the result is verified against every
    row.  An infeasible verdict there holds for all of M.  A witness from
    those rows that fails the check means P breaks the relations that give
    the dropped rows (marginal selectivity), and the system is solved again
    on every row.  Any other verification failure would be an internal error
    and raises RuntimeError.
    """
    p = build_p_vector(dataset, validation_report=validation_report)
    m = LftSystem(dataset.design, column_guard)
    if chain_failure is not None:
        y = chain_farkas(dataset.design, *chain_failure)
        if verify_certificate(m, p, FeasibilityResult(False, None, y, 0)):
            return LftVerdict(dataset.design, False, None, y, 0, chain_failure)
    result = solve_equality_feasibility(m, p, collins_gisin_rows(dataset.design))
    verified = verify_certificate(m, p, result)
    if not verified and result.feasible:
        result = solve_equality_feasibility(m, p)
        verified = verify_certificate(m, p, result)
    if not verified:
        raise RuntimeError("solver produced a certificate that failed verification")
    witness = QVector(dataset.design, result.witness) if result.feasible else None
    return LftVerdict(dataset.design, result.feasible, witness, result.farkas, result.pivots)


class Si2Model(NamedTuple):
    """Explicit classical model: a hidden variable C ranging over weighted
    atoms, plus deterministic responses (the atom's assignment slot) for each
    input value."""

    design: ExperimentDesign
    atoms: tuple[tuple[Fraction, Assignment], ...]

    def sums(self) -> tuple[int, dict[Treatment, dict[OutcomeTuple, int]]]:
        """The weights' common denominator, and per treatment each outcome's
        probability times it, summed in integers over the atoms."""
        offsets = q_slot_offsets(self.design)
        scale, weights = scaled(w for w, _ in self.atoms)
        sums: dict[Treatment, dict[OutcomeTuple, int]] = {}
        for tr in self.design.treatments:
            row = sums[tr] = defaultdict(int)
            for weight, (_, assignment) in zip(weights, self.atoms):
                row[assignment_outcome(assignment, tr, offsets)] += weight
        return scale, sums

    def simulate(self) -> Dataset:
        """Forward-simulate every treatment; reproduces MQ exactly."""
        scale, sums = self.sums()
        tables = {tr: {o: Fraction(v, scale) for o, v in row.items()} for tr, row in sums.items()}
        return Dataset(self.design, tables)


def construct_si2(q: QVector, design: ExperimentDesign) -> Si2Model:
    """Turn a normalized nonnegative Q vector into an explicit model."""
    if q.design != design:
        raise ValueError("Q vector belongs to a different design")
    weights = [v for _, v in q.values.support]
    if any(v < 0 for v in weights):
        raise ValueError("Q has negative components")
    if sum(weights) != 1:
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
    scale = dataset.integer_tables[0]
    margs, violations = {}, []
    for proj, (ref, *others) in groups.items():
        found, broken = compare_marginals(dataset, lam_list, (ref, *others), [(ref, tr) for tr in others])
        margs[proj] = {o: Fraction(v, scale) for o, v in found[ref].items()}
        violations += broken
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
    return Dataset(new_design, margs)
