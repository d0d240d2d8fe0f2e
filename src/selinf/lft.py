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
design.  `build_jdc_matrix` builds M's rows, each as the Kronecker product
of per-input rows, for the tests' plain-arithmetic checks and the
benchmark's M span; no solver and no request reaches it.

A feasible witness converts into an explicit classical model (`Si2Model`)
whose forward simulation reproduces the dataset exactly; infeasibility comes
with a verified Farkas vector.  A failing chain inequality is one already:
an order distance is a pseudo-quasi-metric on every single assignment, so
the chain's terms as rows of y give y'M <= 0 and y'P = -slack > 0
(`chain_farkas`).  So is a broken subset marginal (`marginal_farkas`).
`run_lft` takes the chain's, then the marginal's; only marginally selective
data reach presolve and phase one, which uses the rows `collins_gisin_rows`
picks, spanning M.  Verification covers every row.
"""
from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache, reduce
from itertools import accumulate, chain, compress, product, repeat
from math import prod
from operator import and_, itemgetter, mul, not_, or_
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, NamedTuple, Sequence

from .errors import SizeGuardError
from .experiment import (
    DESIGN_CACHE,
    ONE,
    ZERO,
    Dataset,
    ExperimentDesign,
    OutcomeTuple,
    Treatment,
    ValidationReport,
    check_marginal_selectivity,
    coerce_prob,
    scaled,
    validate_dataset,
)
from .io import format_exact
from .rational_lp import (
    FeasibilityResult,
    Witness,
    simplex,
    solve_equality_feasibility,
    verify_certificate,
)

if TYPE_CHECKING:
    from .distances import ChainRecord, OrderRelation
    from .experiment import MarginalReport, MarginalViolation

Assignment = tuple[int, ...]
# default bound on the assignment count, the columns of M
COLUMN_GUARD = 10**6
FARKAS_BLOCK = 1 << 12  # assignments per block of the Farkas check


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


def mixed_radix_digits(idx: int, bases: Sequence[int]) -> tuple[int, ...]:
    """The 1-based digits of `idx` in mixed radix `bases`, the first most
    significant: Q's one index map, read by `QVector.assignment_at` and
    `LftSystem.reproduces`.  An index outside 0..prod(bases) - 1 raises
    ValueError."""
    if not 0 <= idx < prod(bases):
        raise ValueError("index out of range")
    digits = []
    for base in reversed(bases):
        idx, d = divmod(idx, base)
        digits.append(d + 1)
    return tuple(reversed(digits))


@dataclass(frozen=True)
class QVector:
    """Flat vector over deterministic assignments with its index map.

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

    def assignment_at(self, flat: int) -> Assignment:
        return mixed_radix_digits(flat, slot_bases(self.design))

    def support(self) -> list[tuple[Fraction, Assignment]]:
        """The nonzero entries as (weight, assignment), in index order."""
        return list(self._support)

    @cached_property
    def _support(self) -> tuple[tuple[Fraction, Assignment], ...]:
        return tuple((v, self.assignment_at(i)) for i, v in self.values.support)


@lru_cache(maxsize=DESIGN_CACHE)
def _slot_readers(design: ExperimentDesign):
    """Each slot's stride, and per treatment t its row base less its strides,
    an `itemgetter` over its slots and a pad slot, and its (slot, stride)
    pairs: outcomes times strides, padded with 0, summed onto it: t's row."""
    sizes, offsets = design.outcome_sizes, q_slot_offsets(design)
    strides = [prod(sizes[i + 1:]) for i in range(design.n)]
    slots = tuple(s for s, k in zip(strides, design.input_sizes) for _ in range(k))
    reads = [tuple((off + w - 1, s) for off, w, s in zip(offsets, tr, strides)) for tr in design.treatments]
    return slots, tuple((t * prod(sizes) - sum(strides), itemgetter(*(s for s, _ in rd), len(slots)), rd)
                        for t, rd in enumerate(reads))


def _rows_met(design: ExperimentDesign, assignments: Iterable[Assignment]) -> Iterator[Iterator[int]]:
    """Per treatment, the row each assignment (slot outcomes) meets under it."""
    strides, readers = _slot_readers(design)
    spread = [[*map(mul, h, strides), 0] for h in assignments]
    return (map(sum, map(getter, spread), repeat(base)) for base, getter, _ in readers)


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


@lru_cache(maxsize=DESIGN_CACHE)
def _cell_masks(design: ExperimentDesign) -> tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]:
    """Per cell (w, a), c = w * m + a: its rows, and per row r the int F(r)
    with bit f set iff front f's cell (w, a) holds r (rows keep their cell)."""
    k, m = design.input_sizes[-1], design.outcome_sizes[-1]
    masks = [defaultdict(int) for _ in range(k * m)]
    for f, cells in enumerate(_front_cells(design)):
        for held, rows in zip(masks, chain.from_iterable(cells)):
            for r in rows:
                held[r] |= 1 << f
    return tuple((tuple(held), tuple(held.values())) for held in masks)


class Presolve(NamedTuple):
    """What presolve decided before phase one.

    `infeasible_row` is a row with P > 0 whose columns are all forced to
    zero, which proves infeasibility alone, or -1.  `free[f][w]` lists the
    outcomes a whose cell (w, a) of front f holds no zero row, none on a
    dead front: the live columns are made of them.  `fired()` computes,
    when called, the zero rows that still met a live column then.
    """

    infeasible_row: int
    free: list[list[list[int]]]
    fired: Callable[[], tuple[int, ...]]


class LftSystem:
    """The LFT's M as its design describes it, never built.

    A column is an assignment h: its front, the slots of inputs 1..n-1, then
    the last input's slots a_1..a_k, so its index is the front's index times
    m_n**k plus a's mixed-radix index.  Row (t, o) meets h (entry +1) iff h
    yields o under t: the front's outcomes under t, then a_{t_n}.  Once the
    front is fixed the last slots are independent: the rows h meets are the
    union over w of cell (w, a_w), the rows (t, front under t, a_w) with
    t_n = w.  Pricing and the Farkas bound read these cells, |fronts| x T x
    m_n rows, and presolve their front bits (`_cell_masks`), not M's
    T x |columns| entries.  Verification reads only `_slot_readers`.

    The cells depend on the design alone.  They are built on first use,
    once per design per process (bounded caches keyed on the design), so
    the chain route, which only verifies, builds none.
    """

    def __init__(self, design: ExperimentDesign, column_guard: int = COLUMN_GUARD):
        self.design = design
        self.ncols = _guarded_q_length(design, column_guard)
        self.nrows = p_length(design)

    @cached_property
    def _cells(self) -> tuple[tuple[tuple[tuple[int, ...], ...], ...], ...]:
        return _front_cells(self.design)

    def presolve(self, P: Sequence) -> Presolve:
        """Decide the zero rows before phase one, by this rule: sweep the rows
        in order twice, skipping settled ones.  A row that meets no live
        column (one not forced to zero) is settled if its P-component is 0,
        and otherwise proves infeasibility and ends presolve.  A row with
        P-component 0 that meets a live column fires: its columns are forced
        to zero and it is settled.  Unless presolve ends first, the first
        sweep settles every zero row, so the forced columns are those that
        meet a zero row, and the second sweep finds the positive rows that
        this emptied.  P is read by sign only.

        On the front bits F(r) of row r in cell c (`_cell_masks`): zero rows
        OR F(r) into dead[c]; front f is live if each w has an a with bit f
        clear in dead[w * m + a]; row r meets a live column iff F(r) & live &
        ~dead[c] != 0.  Over every zero row this tests the positive rows at
        once, and only if one fails does `_sweeps` run here.
        """
        if min(P) < 0:
            raise ValueError("P has a negative entry")
        k, m = self.design.input_sizes[-1], self.design.outcome_sizes[-1]
        fronts = self.ncols // m**k
        if 0 not in P:
            return Presolve(-1, [[list(range(m))] * k] * fronts, lambda: ())
        cells, zero = _cell_masks(self.design), list(map(not_, P))
        dead = [reduce(or_, compress(masks, map(zero.__getitem__, rows)), 0) for rows, masks in cells]
        live = (1 << fronts) - 1
        for c in range(0, k * m, m):
            live &= ~reduce(and_, dead[c:c + m])
        free = [[[]] * k] * fronts
        for f in compress(range(fronts), map("1".__eq__, bin(live)[:1:-1])):  # the live fronts
            free[f] = [[a for a in range(m) if not dead[c + a] >> f & 1] for c in range(0, k * m, m)]
        if all(all(map(and_, compress(masks, map(P.__getitem__, rows)), repeat(live & ~d)))
               for (rows, masks), d in zip(cells, dead)):
            return Presolve(-1, free, lambda: self._sweeps(P)[1])
        row, fired = self._sweeps(P)
        return Presolve(row, free, lambda: fired)

    def _sweeps(self, P) -> tuple[int, tuple[int, ...]]:
        """`presolve`'s rule, row by row in P's order: (the row that proves
        infeasibility or -1, the fired rows).  Before row r, dead and live
        hold the bits of the zero rows before r, so `presolve`'s test tells
        whether r meets a live column.  A zero row that does fires; its F(r)
        then joins dead[c], which narrows live on its slot.  A positive row
        that does not ends the first sweep; the second tests the positive
        rows on the final bits, those of every zero row."""
        k, m = self.design.input_sizes[-1], self.design.outcome_sizes[-1]
        at = sorted((r, c, mask) for c, cell in enumerate(_cell_masks(self.design)) for r, mask in zip(*cell))
        dead, live, fired = [0] * (k * m), (1 << self.ncols // m**k) - 1, []
        for r, c, mask in at:
            meets = mask & live & ~dead[c]
            if P[r]:
                if not meets:
                    return r, tuple(fired)
                continue
            if meets:
                fired.append(r)
            dead[c] |= mask
            w = c - c % m
            live &= ~reduce(and_, dead[w:w + m])
        row = next((r for r, c, mask in at if P[r] and not mask & live & ~dead[c]), -1)
        return row, tuple(fired)

    def phase_one(self, scale, P, kept_rows, pre):
        """`simplex` on the kept rows of P, ints over `scale`, priced by exact
        min-sum over each front's last slots, every live front at once.

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
        b = list(map(P.__getitem__, kept_rows))
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
        the forced columns, with an outcome outside `free`: all of a dead front's."""
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

    def reproduces(self, q: dict[int, int], unit: int, scale: int, P: Sequence[int]) -> bool:
        """MQ = P, q's weights over `unit` by column and P's over `scale`: each
        atom's weight summed at the row it meets, compared cross-multiplied."""
        bases, made, weights = slot_bases(self.design), [0] * self.nrows, list(q.values())
        for rows in _rows_met(self.design, [mixed_radix_digits(j, bases) for j in q]):
            for r, v in zip(rows, weights):
                made[r] += v
        return list(map(mul, made, repeat(scale))) == list(map(mul, P, repeat(unit)))

    def bounded(self, y: dict[int, int]) -> bool:
        """sum_t y[t, h(t)] <= 0, y integer, for every h of the slots read by
        treatments with nonzero y: the last (one at least) within FARKAS_BLOCK
        as row lists per treatment, shifted per block by the other slots'."""
        get = [y.get(i, 0) for i in range(self.nrows)].__getitem__
        block, bases = prod(self.design.outcome_sizes), slot_bases(self.design)
        readers = _slot_readers(self.design)[1]
        reads = [readers[t] for t in sorted({i // block for i in y})]
        outer = sorted({slot for _, _, rd in reads for slot, _ in rd})
        inner, size = [], 1
        while outer and (not inner or size * bases[outer[-1]] <= FARKAS_BLOCK):
            size *= bases[outer[-1]]
            inner.insert(0, outer.pop())
        plans = []
        for base, _, rd in reads:
            rows, stride = [base], dict(rd)
            for slot in inner:
                rows = [r + a * stride.get(slot, 0) for r in rows for a in range(1, bases[slot] + 1)]
            plans.append((rows, [(outer.index(slot), s) for slot, s in rd if slot in outer]))
        return all(max(map(sum, zip(*[map(get, map(sum([h[pos] * s for pos, s in out]).__add__, rows))
                                      for rows, out in plans])), default=0) <= 0
                   for h in product(*(range(1, bases[slot] + 1) for slot in outer)))


class LftVerdict(NamedTuple):
    """Outcome of the linear feasibility test.

    Feasible means a classical (selective-influences) explanation exists and
    `witness` holds one; infeasible refutes it and `farkas` proves it.
    `chain_failure` (an order and its failing chain) or `marginal_violation`
    is what `farkas` was built from, set only when its route decided.
    """

    design: ExperimentDesign
    feasible: bool
    witness: QVector | None
    farkas: tuple[Fraction, ...] | None
    pivots: int
    chain_failure: tuple[OrderRelation, ChainRecord] | None = None
    marginal_violation: MarginalViolation | None = None

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
            if self.marginal_violation is not None:
                subset, ta, tb, _ = self.marginal_violation
                doc["farkas_source"] = {"stage": "marginal-selectivity", "subset": list(subset),
                                        "treatments": [list(ta), list(tb)]}
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
    many i have o_i = m_i, then sum(t)): induct on it.  Data that break the
    agreement go to `marginal_farkas` instead of phase one (`run_lft`).
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


def marginal_farkas(
    design: ExperimentDesign, P: Sequence, violation: MarginalViolation
) -> tuple[Fraction, ...]:
    """A Farkas vector for MQ = P: sign(d) on treatment a's rows with outcomes
    o_S on the inputs S and -sign(d) on b's, for the first o_S in P's order
    whose S-marginals differ by d.  As a and b agree on S, y'M = 0 < y'P = |d|."""
    outcomes, (subset, ta, tb, _) = list(design.all_outcomes()), violation
    a, b = (design.treatments.index(t) * len(outcomes) for t in (ta, tb))
    keys = [tuple([o[l - 1] for l in subset]) for o in outcomes]
    delta = defaultdict(int)
    for i, key in enumerate(keys):
        delta[key] += P[a + i] - P[b + i]
    o_s = next((key for key, d in delta.items() if d), None)
    sign, y = ONE if delta[o_s] > 0 else -ONE, [ZERO] * p_length(design)
    for i, key in enumerate(keys):
        if key == o_s:
            y[a + i], y[b + i] = sign, -sign
    return tuple(y)


def run_lft(
    dataset: Dataset,
    column_guard: int = COLUMN_GUARD,
    *,
    validation_report: ValidationReport | None = None,
    chain_failure: tuple[OrderRelation, ChainRecord] | None = None,
    marginal_report: MarginalReport | None = None,
) -> LftVerdict:
    """Run the feasibility test on a valid dataset by the first route that
    applies (`validation_report` goes to `build_p_vector`, which refuses
    invalid data); a certificate that fails verification raises RuntimeError.
    - `chain_farkas` of `chain_failure`, an (order, failing `ChainRecord`)
      from `chain_test`, if `verify_certificate` accepts it: 0 pivots;
    - `marginal_farkas` of the first violation in `marginal_report`, or in
      `check_marginal_selectivity(dataset)` if None (SizeGuardError): 0 pivots;
    - phase one, once, over `LftSystem` on the rows `collins_gisin_rows` picks.
    """
    p = build_p_vector(dataset, validation_report=validation_report)
    m = LftSystem(dataset.design, column_guard)
    if chain_failure is not None:
        y = chain_farkas(dataset.design, *chain_failure)
        if verify_certificate(m, p, FeasibilityResult(False, None, y, 0)):
            return LftVerdict(dataset.design, False, None, y, 0, chain_failure)
    report = check_marginal_selectivity(dataset) if marginal_report is None else marginal_report
    violation = next(iter(report.violations), None)
    result = (solve_equality_feasibility(m, p, collins_gisin_rows(dataset.design)) if violation is None
              else FeasibilityResult(False, None, marginal_farkas(dataset.design, p, violation), 0))
    if not verify_certificate(m, p, result):
        raise RuntimeError("a certificate failed verification")
    witness = QVector(dataset.design, result.witness) if result.feasible else None
    return LftVerdict(dataset.design, result.feasible, witness, result.farkas, result.pivots, None, violation)


class Si2Model(NamedTuple):
    """Explicit classical model: a hidden variable C ranging over weighted
    atoms, plus deterministic responses (the atom's assignment slot) for each
    input value."""

    design: ExperimentDesign
    atoms: tuple[tuple[Fraction, Assignment], ...]

    def sums(self) -> tuple[int, dict[Treatment, dict[OutcomeTuple, int]]]:
        """The weights' common denominator, and per treatment each outcome's
        probability times it, summed in integers over the atoms."""
        scale, weights = scaled(w for w, _ in self.atoms)
        outcomes, treatments = list(self.design.all_outcomes()), self.design.treatments
        sums: dict[Treatment, dict[OutcomeTuple, int]] = {}
        for t, rows in enumerate(_rows_met(self.design, [h for _, h in self.atoms])):
            row = sums[treatments[t]] = defaultdict(int)
            for r, weight in zip(rows, weights):
                row[outcomes[r - t * len(outcomes)]] += weight
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
