"""Shared test utilities: independent LP feasibility oracles and references,
and random dataset samplers.  The oracles and references never call the
solver under test.

The exact `Fraction` forms that no `selinf` request calls live here, as the
oracles of the tests of the paper's claims: `marginal`, `transform_outputs`,
`order_distance`, `random_order` and `check_pq_metric_axioms`; so does
the closed form of the irreducible chains on a full-factorial design,
`enumerate_tetradic_sequences`, and the certificate checks as they were
before they read `lft._slot_readers`: `assignment_outcome`,
`reference_reproduces`, `reference_bounded` and `reference_verify`."""
from __future__ import annotations

import random
from collections import defaultdict
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, permutations, product
from math import comb, lcm, prod
from operator import mul
from typing import Iterable, Mapping, NamedTuple, Sequence

from selinf import rational_lp
from selinf.distances import ChainRecord, InputPointSequence, Labeled, LinkEvaluation, OrderRelation
from selinf.errors import SizeGuardError
from selinf.experiment import (
    ONE,
    Dataset,
    ExperimentDesign,
    MarginalReport,
    MarginalViolation,
    OutcomeTuple,
    Output,
    Treatment,
    coerce_prob,
    make_design,
    marginal_discrepancy,
    parse_index,
    scaled,
)
from selinf.lft import build_jdc_matrix, mixed_radix_digits, q_length, q_slot_offsets, slot_bases
from selinf.rational_lp import FeasibilityResult, Witness

F = Fraction
ZERO = F(0)


def marginal(dataset: Dataset, treatment, subset: Iterable[int]) -> dict[OutcomeTuple, Fraction]:
    """Exact marginal of one treatment's table over a nonempty subset of inputs.

    `subset` holds 1-based input positions; keys of the result are outcome
    sub-tuples ordered by ascending input position.
    """
    tr = tuple(treatment)
    if not dataset.design.has_treatment(tr):
        raise ValueError(f"unknown treatment {tr}")
    lam_list = sorted(set(parse_index(l) for l in subset))
    if not lam_list:
        raise ValueError("subset must be nonempty")
    if lam_list[0] < 1 or lam_list[-1] > dataset.design.n:
        raise ValueError(f"subset {lam_list} out of range")
    out: dict[OutcomeTuple, Fraction] = defaultdict(lambda: ZERO)
    for outcome, p in dataset.table(tr).items():
        out[tuple([outcome[lam - 1] for lam in lam_list])] += p
    return {k: v for k, v in out.items() if v != 0}


def project(dataset: Dataset, subset: Sequence[int]) -> Dataset:
    """The dataset on the inputs `subset`, sorted 1-based positions: each
    treatment's values on them, and its table's `marginal` over them, taken
    from the first treatment of each group; under marginal selectivity every
    treatment of the group has that marginal."""
    design = dataset.design
    groups = design.treatment_groups(subset)
    sub = ExperimentDesign(
        tuple(design.inputs[l - 1] for l in subset),
        tuple(design.outputs[l - 1] for l in subset),
        tuple(groups),
    )
    return Dataset(sub, {proj: marginal(dataset, trs[0], subset) for proj, trs in groups.items()})


def transform_outputs(
    dataset: Dataset,
    maps: Mapping[tuple[int, int], Mapping[int, int]],
    new_outputs: Sequence[Output] | None = None,
) -> Dataset:
    """Push every table forward through input-value-specific outcome maps.

    `maps[(lam, w)]` recodes outcomes of output lam when input lam has value w;
    it must be total on 1..m_lam.  Missing (lam, w) keys mean identity.  Under
    treatment phi the map applied to coordinate lam is maps[(lam, phi(lam))].
    Probabilities are preserved exactly by summing over preimages.
    """
    design = dataset.design
    out_sizes = design.outcome_sizes
    new_out = tuple(new_outputs) if new_outputs is not None else design.outputs
    if len(new_out) != design.n:
        raise ValueError("need one output per input")
    new_sizes = tuple(o.size for o in new_out)

    for (lam, w), mp in maps.items():
        if not 1 <= lam <= design.n or not 1 <= w <= design.inputs[lam - 1].size:
            raise ValueError(f"map key ({lam}, {w}) outside design")
        dom = set(mp)
        if dom != set(range(1, out_sizes[lam - 1] + 1)):
            raise ValueError(
                f"map for input {lam} value {w} must be total on 1..{out_sizes[lam - 1]}"
            )
        for tgt in mp.values():
            if not 1 <= int(tgt) <= new_sizes[lam - 1]:
                raise ValueError(
                    f"map for input {lam} value {w} sends an outcome to {tgt}, "
                    f"outside 1..{new_sizes[lam - 1]}; pass new_outputs to enlarge"
                )

    new_tables: dict[Treatment, dict[OutcomeTuple, Fraction]] = {}
    for tr, table in dataset.tables.items():
        per_coord = [maps.get((lam, tr[lam - 1])) for lam in range(1, design.n + 1)]
        row: dict[OutcomeTuple, Fraction] = defaultdict(lambda: ZERO)
        for outcome, p in table.items():
            image = tuple(
                mp[a] if mp is not None else a for mp, a in zip(per_coord, outcome)
            )
            row[image] += p
        new_tables[tr] = dict(row)
    new_design = ExperimentDesign(design.inputs, new_out, design.treatments)
    return Dataset(new_design, new_tables)


def random_order(design: ExperimentDesign, rng: random.Random) -> OrderRelation:
    """A random ranked partition of all (output, outcome) labels."""
    pool = [
        (lam, a)
        for lam, m in enumerate(design.outcome_sizes, start=1)
        for a in range(1, m + 1)
    ]
    rng.shuffle(pool)
    classes: list[set[Labeled]] = [set([pool[0]])]
    for el in pool[1:]:
        if rng.random() < 0.5:
            classes.append({el})
        else:
            classes[-1].add(el)
    return OrderRelation(tuple(frozenset(c) for c in classes), name="random")


def order_distance(
    dataset: Dataset, treatment, lam1: int, lam2: int, order: OrderRelation
) -> Fraction:
    """Exact Pr[output lam1 strictly below output lam2] under one treatment."""
    design = dataset.design
    tr = tuple(treatment)
    if not design.has_treatment(tr):
        raise ValueError(f"unknown treatment {tr}")
    if lam1 == lam2:
        raise ValueError("order_distance needs two distinct outputs")
    for lam in (lam1, lam2):
        if not 1 <= lam <= design.n:
            raise ValueError(f"output {lam} out of range")
        if not order.covers(lam, design.outcome_sizes[lam - 1]):
            raise ValueError(f"order does not cover all outcomes of output {lam}")
    total = ZERO
    for outcome, p in dataset.table(tr).items():
        if order.rank(lam1, outcome[lam1 - 1]) < order.rank(lam2, outcome[lam2 - 1]):
            total += p
    return total


class AxiomReport(NamedTuple):
    """Order-distance axiom check on one explicit joint distribution."""

    distances: dict[tuple[int, int], Fraction]
    violations: tuple[str, ...]

    @property
    def passed(self) -> bool:
        return not self.violations


def check_pq_metric_axioms(
    joint: Mapping[Sequence[int], object], order: OrderRelation
) -> AxiomReport:
    """Verify nonnegativity, zero self-distance, and every triangle
    inequality for the order-distance on an explicit joint distribution over
    at least three variables (keyed 1..v in the outcome tuples), its
    probabilities read by `coerce_prob`.  The distances are summed, and the
    triangles compared, in integers over the joint's common denominator."""
    items = [(tuple(map(parse_index, key)), coerce_prob(p)) for key, p in joint.items()]
    if not items:
        raise ValueError("empty joint distribution")
    v = len(items[0][0])
    if v < 3:
        raise ValueError("need a joint over at least three variables")
    if any(len(key) != v for key, _ in items):
        raise ValueError("ragged outcome tuples")
    scale, weights = scaled(p for _, p in items)
    if min(weights) < 0:
        raise ValueError("negative probability in joint")
    if sum(weights) != scale:
        raise ValueError("joint distribution must sum to 1")

    # ranked variable by variable, so an uncovered label raises for the first
    # such variable, as a loop over the pairs (i, j) would
    support = [(key, w) for (key, _), w in zip(items, weights) if w]
    weights = [w for _, w in support]
    ranks = [[order.rank(i, key[i - 1]) for key, _ in support] for i in range(1, v + 1)]
    num = {
        (i, j): sum([w for a, b, w in zip(ranks[i - 1], ranks[j - 1], weights) if a < b])
        for i in range(1, v + 1)
        for j in range(1, v + 1)
    }
    dist = {pair: Fraction(d, scale) for pair, d in num.items()}

    violations = []
    for (i, j), d in dist.items():
        if d < 0:
            violations.append(f"d({i},{j}) = {d} < 0")
        if i == j and d != 0:
            violations.append(f"d({i},{i}) = {d} != 0")
    for i in range(1, v + 1):
        for j in range(1, v + 1):
            for k in range(1, v + 1):
                if num[i, k] > num[i, j] + num[j, k]:
                    violations.append(
                        f"triangle fails: d({i},{k}) > d({i},{j}) + d({j},{k})"
                    )
    return AxiomReport(dist, tuple(violations))


def enumerate_tetradic_sequences(design: ExperimentDesign) -> list[InputPointSequence]:
    """All alternating tetrads x, y, s, t (x, s on one input, y, t on another,
    x != s, y != t) for a full-factorial treatment set; both input orientations
    are produced since reversed chains are distinct tests."""
    if not design.is_factorial:
        raise ValueError(
            "tetradic enumeration needs the full factorial treatment set; "
            "use enumerate_irreducible_sequences for restricted treatment sets"
        )
    k = design.input_sizes
    tetrads = sorted(
        ((l1, x), (l2, y), (l1, s), (l2, t))
        for l1, l2 in permutations(range(1, design.n + 1), 2)
        for x, s in permutations(range(1, k[l1 - 1] + 1), 2)
        for y, t in permutations(range(1, k[l2 - 1] + 1), 2)
    )
    return list(map(InputPointSequence, tetrads))


def matrix_rank(rows: list[list[Fraction]]) -> int:
    m = len(rows)
    n = len(rows[0]) if m else 0
    work = [list(r) for r in rows]
    rank = 0
    for c in range(n):
        pr = next((i for i in range(rank, m) if work[i][c] != 0), None)
        if pr is None:
            continue
        work[rank], work[pr] = work[pr], work[rank]
        pv = work[rank][c]
        work[rank] = [v / pv for v in work[rank]]
        for i in range(m):
            if i != rank and work[i][c] != 0:
                f = work[i][c]
                work[i] = [v - f * pv2 for v, pv2 in zip(work[i], work[rank])]
        rank += 1
        if rank == m:
            break
    return rank


def dense_m(design: ExperimentDesign) -> list[list[Fraction]]:
    """M as dense rows of Fractions, from the columns of each row's 1s that
    `build_jdc_matrix` lists."""
    dense = []
    for cols in build_jdc_matrix(design):
        row = [ZERO] * q_length(design)
        for c in cols:
            row[c] = ONE
        dense.append(row)
    return dense


def lp_feasible_bruteforce(dense: list[list[Fraction]], P: list[Fraction]) -> bool:
    """Vertex-enumeration oracle for MQ = P, Q >= 0.

    If the system is feasible it has a basic feasible solution whose support
    extends to a linearly independent column set of size rank(M); enumerate
    those sets and solve each square system exactly.  Every such set spans
    M's column space, so P must lie in it, and its solution is the one of
    the rows of a row basis B: x_S = M[B, S]^-1 P[B].  The inverses depend on
    M alone (`_vertex_inverses`), so each P costs one product per set.
    """
    m = len(dense)
    n = len(dense[0]) if m else 0
    if all(p == 0 for p in P):
        return True
    if n == 0:
        return False
    r = matrix_rank(dense)
    if r == 0:
        return False  # M = 0 but P != 0
    if matrix_rank([row + [p] for row, p in zip(dense, P)]) > r:
        return False  # P outside M's column space
    basis, scales, inverses = _vertex_inverses(tuple(map(tuple, dense)))
    b = [c * F(P[i]) for i, c in zip(basis, scales)]
    den = lcm(*(v.denominator for v in b))
    b = [v.numerator * (den // v.denominator) for v in b]
    return any(all(sum(map(mul, row, b)) >= 0 for row in rows) for rows in inverses)


@lru_cache(maxsize=4)
def _vertex_inverses(dense: tuple[tuple[Fraction, ...], ...]):
    """A row basis B of M, the positive integer c_i that clears row B_i's
    denominators, and for every independent column set S of size rank(M)
    the rows of d * A_S^-1 with d > 0, A_S the scaled M[B, S].

    One depth-first search over the sets in lexicographic order: Edmonds'
    integer Gauss-Jordan on [A | I] pivots each set's next column once, on
    the state its prefix left, so every entry is d times the Fraction
    tableau's and each division is exact.  A column with no unpivoted row
    left depends on the prefix, and no set extends that prefix by it.
    """
    basis = []
    for i in range(len(dense)):
        if matrix_rank([list(dense[j]) for j in basis + [i]]) > len(basis):
            basis.append(i)
    r, n = len(basis), len(dense[0])
    scales = [lcm(*(v.denominator for v in dense[i])) for i in basis]
    start = [
        [int(v * c) for v in dense[i]] + [int(k == j) for k in range(r)]
        for j, (i, c) in enumerate(zip(basis, scales))
    ]
    inverses = []

    def extend(rows, d, free, chosen, first):
        if len(chosen) == r:
            sign = 1 if d > 0 else -1
            inverses.append(tuple(tuple(sign * v for v in rows[i][n:]) for i in chosen))
            return
        for c in range(first, n - (r - len(chosen)) + 1):
            lead = next((i for i in free if rows[i][c]), None)
            if lead is None:
                continue
            piv, prow = rows[lead][c], rows[lead]
            after = [
                row if i == lead else [(v * piv - row[c] * pv) // d for v, pv in zip(row, prow)]
                for i, row in enumerate(rows)
            ]
            extend(after, piv, [i for i in free if i != lead], chosen + [lead], c + 1)

    extend(start, 1, list(range(r)), [], 0)
    return tuple(basis), tuple(scales), tuple(inverses)


def rand_frac(rng: random.Random, lo=F(0), hi=F(1), denom: int = 24) -> Fraction:
    return lo + (hi - lo) * F(rng.randint(0, denom), denom)


def random_ms_chsh(rng: random.Random, denom: int = 24) -> Dataset:
    """Random marginally selective 2x2 binary dataset: random margins plus a
    p(1,1|i,j) drawn inside the Frechet bounds.  Covers the whole
    no-signaling region, classical and not."""
    r = {i: rand_frac(rng, denom=denom) for i in (1, 2)}
    c = {j: rand_frac(rng, denom=denom) for j in (1, 2)}
    tables = {}
    for i in (1, 2):
        for j in (1, 2):
            lo = max(ZERO, r[i] + c[j] - 1)
            hi = min(r[i], c[j])
            p11 = rand_frac(rng, lo, hi, denom)
            tables[(i, j)] = {
                (1, 1): p11,
                (1, 2): r[i] - p11,
                (2, 1): c[j] - p11,
                (2, 2): 1 - r[i] - c[j] + p11,
            }
    return Dataset(make_design((2, 2), (2, 2)), tables)


def constant_output_dataset() -> Dataset:
    """Output 1 constant under treatment (1, 1), every other table uniform."""
    design = make_design((2, 2), (3, 3))
    uniform = {(a, b): F(1, 9) for a in (1, 2, 3) for b in (1, 2, 3)}
    tables = {tr: dict(uniform) for tr in design.treatments}
    tables[(1, 1)] = {(3, 1): F(425, 782), (3, 2): F(355, 782), (3, 3): F(2, 782)}
    return Dataset(design, tables)


def random_tables_dataset(design: ExperimentDesign, rng: random.Random, denom: int = 12) -> Dataset:
    """Arbitrary valid dataset: independent random table per treatment (no
    marginal selectivity guarantee)."""
    outcomes = list(design.all_outcomes())
    tables = {}
    for tr in design.treatments:
        weights = [rng.randint(0, denom) for _ in outcomes]
        if sum(weights) == 0:
            weights[rng.randrange(len(weights))] = 1
        total = sum(weights)
        tables[tr] = {o: F(w, total) for o, w in zip(outcomes, weights) if w}
    return Dataset(design, tables)


def random_small_design(rng: random.Random, max_n=3, max_k=2, max_m=3, factorial=True) -> ExperimentDesign:
    n = rng.randint(1, max_n)
    k = tuple(rng.randint(1, max_k) for _ in range(n))
    m = tuple(rng.randint(1, max_m) for _ in range(n))
    design = make_design(k, m)
    if factorial or len(design.treatments) <= 2:
        return design
    full = list(design.treatments)
    size = rng.randint(2, len(full))
    subset = rng.sample(full, size)
    return make_design(k, m, treatments=subset)


def lifted_prbox(design: ExperimentDesign) -> dict:
    """The PR box on values 1, 2 and outcomes 1, 2 of inputs 1 and 2; higher
    values act as value 2 and every other output reads outcome 1."""
    rest = (1,) * (design.n - 2)
    return {
        tr: {
            (a, b) + rest: F(1, 2)
            for a in (1, 2)
            for b in (1, 2)
            if (a != b) == (tr[0] >= 2 and tr[1] >= 2)
        }
        for tr in design.treatments
    }


def mix_tables(weight, a: dict, b: dict) -> dict:
    """Per treatment, weight * table a + (1 - weight) * table b."""
    return {
        tr: {
            o: weight * a[tr].get(o, 0) + (1 - weight) * b[tr].get(o, 0)
            for o in set(a[tr]) | set(b[tr])
        }
        for tr in a
    }


def textbook_phase_one(A: list[list[Fraction]], b: list[Fraction], degenerate_run: int):
    """Dense Fraction phase-one tableau on AQ = b, Q >= 0 (b >= 0), with the
    pricing and ratio rules the exact solver documents: Dantzig's most
    negative reduced cost, ties to the lowest index; Bland's first negative
    one once more than `degenerate_run` degenerate pivots come in a row; the
    least ratio, ties to the lowest basic variable.  Returns (feasible,
    witness or phase-one dual y, pivot count)."""
    m, n = len(A), len(A[0]) if A else 0
    total = n + m
    rows = [list(A[i]) + [F(int(i == k)) for k in range(m)] + [b[i]] for i in range(m)]
    basis = list(range(n, total))
    obj = [-sum((row[j] for row in A), ZERO) for j in range(n)] + [ZERO] * m + [-sum(b, ZERO)]
    pivots = stall = 0
    while True:
        negative = [j for j in range(total) if obj[j] < 0]
        if not negative:
            break
        if stall > degenerate_run:
            enter = negative[0]
        else:
            enter = min(negative, key=lambda j: (obj[j], j))
        leave = min(
            (i for i in range(m) if rows[i][enter] > 0),
            key=lambda i: (rows[i][total] / rows[i][enter], basis[i]),
        )
        stall = stall + 1 if rows[leave][total] == 0 else 0
        piv = rows[leave][enter]
        rows[leave] = [v / piv for v in rows[leave]]
        for i in range(m):
            if i != leave and rows[i][enter]:
                f = rows[i][enter]
                rows[i] = [v - f * pv for v, pv in zip(rows[i], rows[leave])]
        f = obj[enter]
        obj = [v - f * pv for v, pv in zip(obj, rows[leave])]
        basis[leave] = enter
        pivots += 1
    if obj[total] == 0:
        x = [ZERO] * n
        for i, bv in enumerate(basis):
            if bv < n:
                x[bv] = rows[i][total]
        return True, x, pivots
    return False, [1 - obj[n + k] for k in range(m)], pivots


def reference_simplex(b: list[int], n: int, price, column):
    """`rational_lp.simplex` on the state it documents, held as lists: the
    rows d*B^-1 | d*x_B and `art`, each entry one int, updated entry by
    entry.  The packed kernel must match it pivot for pivot; it reads
    DEGENERATE_RUN from `rational_lp`, so a test that patches one patches both."""
    m = len(b)
    if not m:
        return True, {}, 0
    inv = [[0] * i + [1] + [0] * (m - 1 - i) + [b[i]] for i in range(m)]
    basis = list(range(n, n + m))
    art = [0] * m + [-sum(b)]
    d = 1

    pivots = 0
    stall = 0  # degenerate pivots in a row
    while True:
        dual = [a - d for a in art[:m]]  # -d times the duals
        bland = stall > rational_lp.DEGENERATE_RUN
        enter, cost = price(dual, bland)
        if bland:
            if enter < 0:
                k = next((k for k, v in enumerate(art[:m]) if v < 0), -1)
                enter, cost = (n + k, art[k]) if k >= 0 else (-1, None)
        else:
            low = min(art[:m])
            if enter < 0 or low < cost:
                enter, cost = n + art.index(low), low
            if cost >= 0:
                enter = -1
        if enter < 0:
            break
        col = column(enter) if enter < n else [(enter - n, 1)]
        alpha = [sum([row[i] * v for i, v in col]) for row in inv]
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
        art = [(v * piv - cost * pv) // d for v, pv in zip(art, prow)]
        d = piv
        basis[leave] = enter
        pivots += 1
        stall = stall + 1 if lead_num == 0 else 0

    if art[m] == 0:
        return True, {bv: Fraction(inv[i][m], d) for i, bv in enumerate(basis) if bv < n}, pivots
    return False, [ONE - Fraction(art[k], d) for k in range(m)], pivots


def dense_pricer(cols):
    """The pricing rule `rational_lp.simplex` documents, over every column of
    `cols`, (row, integer entry) lists: the lowest-index column of least
    reduced cost, or under Bland's rule the first negative one."""

    def price(dual, bland):
        obj = [sum([dual[i] * v for i, v in col]) for col in cols]
        if bland:
            enter = next((j for j, v in enumerate(obj) if v < 0), -1)
        else:
            enter = obj.index(min(obj)) if obj else -1
        return enter, obj[enter] if enter >= 0 else None

    return price


def dense_certifies(dense: list[list[Fraction]], P, result: FeasibilityResult) -> bool:
    """`verify_certificate` by plain arithmetic on a dense M: MQ = P with
    Q > 0 on its support, or y'M <= 0 < y'P."""
    m, n = len(dense), len(dense[0])
    cert = result.witness if result.feasible else result.farkas
    if len(P) != m or cert is None or len(cert) != (n if result.feasible else m):
        return False
    if result.feasible:
        return all(v >= 0 for v in cert) and all(
            sum((a * q for a, q in zip(row, cert) if a and q), ZERO) == p for row, p in zip(dense, P)
        )
    yM = [ZERO] * n
    for y, row in zip(cert, dense):
        if y:
            for j, a in enumerate(row):
                if a:
                    yM[j] += y * a
    return sum((y * p for y, p in zip(cert, P)), ZERO) > 0 and all(v <= 0 for v in yM)


def reference_presolve(dense: list[list[Fraction]], P):
    """The two-sweep presolve rule on a dense 0/1 M: over the rows in order,
    twice, skipping settled ones, a row meeting no live column is settled if
    its P-component is 0 and proves infeasibility otherwise; a zero row
    meeting a live column fires, forcing its columns to zero.  Returns (the
    infeasible row or -1, settled rows, fired rows, forced columns)."""
    settled, fired, forced = set(), [], set()
    for i in 2 * list(range(len(dense))):
        if i in settled:
            continue
        live = [j for j, a in enumerate(dense[i]) if a and j not in forced]
        if not live:
            if P[i]:
                return i, settled, tuple(fired), forced
            settled.add(i)
        elif not P[i]:
            settled.add(i)
            fired.append(i)
            forced.update(live)
    return -1, settled, tuple(fired), forced


def reference_solve(dense: list[list[Fraction]], P, row_basis=None) -> FeasibilityResult:
    """`solve_equality_feasibility` on a dense 0/1 M and P >= 0, in Fractions:
    `reference_presolve`, then `textbook_phase_one` on the unsettled rows of
    the row basis and the live columns, and a Farkas vector that weights each
    fired row by -K, K the least number >= 1 that keeps y'M <= 0 on the
    forced columns."""
    P = [F(p) for p in P]
    n = len(dense[0])
    row, settled, fired, forced = reference_presolve(dense, P)
    pivots = 0
    if row >= 0:
        y = {row: F(1)}
    else:
        kept = [i for i in range(len(dense)) if i not in settled]
        if row_basis is not None:
            basis = set(row_basis)
            kept = [i for i in kept if i in basis]
        if not kept:
            return FeasibilityResult(True, (ZERO,) * n, None, 0)
        live = [j for j in range(n) if j not in forced]
        A = [[dense[i][j] for j in live] for i in kept]
        feasible, vec, pivots = textbook_phase_one(A, [P[i] for i in kept], rational_lp.DEGENERATE_RUN)
        if feasible:
            witness = [ZERO] * n
            for j, v in zip(live, vec):
                witness[j] = v
            return FeasibilityResult(True, tuple(witness), None, pivots)
        y = dict(zip(kept, vec))
    K = F(1)
    for j in forced:
        num = sum((v * dense[i][j] for i, v in y.items()), ZERO)
        if num > 0:
            K = max(K, num / sum(dense[z][j] for z in fired))
    farkas = [y.get(i, ZERO) for i in range(len(dense))]
    for z in fired:
        farkas[z] = -K
    return FeasibilityResult(False, None, tuple(farkas), pivots)


def reference_chain_test(dataset: Dataset, order, sequences) -> tuple[ChainRecord, ...]:
    """The chain records in `Fraction`s, each link's distances summed by
    `order_distance`, the min and the max realization evaluated apart."""
    pairs = {}
    for tr in dataset.design.treatments:
        for a in enumerate(tr, start=1):
            for b in enumerate(tr, start=1):
                pairs.setdefault((a, b), []).append(tr)

    def evaluate(a, b, pick_max):
        if (a, b) not in pairs:
            raise ValueError(f"no treatment realizes the pair {a}, {b}")
        ds = tuple(
            (tr, ZERO if a == b else order_distance(dataset, tr, a[0], b[0], order))
            for tr in pairs[(a, b)]
        )
        tr, d = (max if pick_max else min)(ds, key=lambda td: td[1])
        return LinkEvaluation((a, b), d, tr, ds)

    records = []
    for seq in sequences:
        endpoint = evaluate(*seq.endpoints, True)
        links = tuple(evaluate(a, b, False) for a, b in seq.links())
        rhs = sum((lk.distance for lk in links), ZERO)
        records.append(
            ChainRecord(seq, endpoint.distance, rhs, rhs - endpoint.distance, endpoint, links)
        )
    return tuple(records)


def reference_check_marginal_selectivity(
    dataset: Dataset, comparison_guard: int = 10**6
) -> MarginalReport:
    """The marginal-selectivity report in `Fraction`s: every treatment's
    marginal built by `marginal`, every pair compared by `marginal_discrepancy`."""
    design = dataset.design
    n = design.n

    groups_per_subset = []
    total = 0
    for size in range(1, n):
        for lam_list in combinations(range(1, n + 1), size):
            multi = [g for g in design.treatment_groups(lam_list).values() if len(g) > 1]
            total += sum(comb(len(g), 2) for g in multi)
            if multi:
                groups_per_subset.append((lam_list, multi))
    if total > comparison_guard:
        raise SizeGuardError(f"needs {total} comparisons (guard {comparison_guard})")

    violations = []
    for lam_list, groups in groups_per_subset:
        for group in groups:
            margs = {tr: marginal(dataset, tr, lam_list) for tr in group}
            for ta, tb in combinations(group, 2):
                worst = marginal_discrepancy(margs[ta], margs[tb])
                if worst != 0:
                    violations.append(MarginalViolation(lam_list, ta, tb, worst))
    return MarginalReport(tuple(violations), total, max(1, n - 1))


def reference_front_pricer(system, kept_rows, pre):
    """`LftSystem.phase_one`'s (price, column), front by front: for each live
    front, each slot's least g over its free outcomes, summed one cell at a
    time.  Dantzig's rule takes the first front of least total, Bland's the
    first whose total is negative; within it each slot takes its smallest
    argmin, or under Bland's rule the smallest a that the later slots'
    minima complete to a negative sum."""
    position = dict(zip(kept_rows, range(len(kept_rows))))
    tables = []  # (front, per slot (free outcomes, their kept positions))
    for f, (cells, free) in enumerate(zip(system._cells, pre.free)):
        if all(free):
            tables.append((f, [(fw, [[position[r] for r in cw[a] if r in position] for a in fw])
                               for cw, fw in zip(cells, free)]))
    width, m = system.ncols // len(pre.free), system.design.outcome_sizes[-1]

    def price(dual, bland):
        get = dual.__getitem__
        chosen = None
        for f, slots in tables:
            total = sum([min([sum(map(get, ks)) for ks in kss]) for _, kss in slots])
            if bland and total < 0:
                chosen = total, f, slots
                break
            if not bland and (chosen is None or total < chosen[0]):
                chosen = total, f, slots
        if chosen is None or bland and chosen[0] >= 0:
            return -1, None
        total, f, slots = chosen
        prefix = last = 0
        for allowed, kss in slots:
            g = [sum(map(get, ks)) for ks in kss]
            low = min(g)
            total -= low  # now the later slots' minima
            i = next(i for i, v in enumerate(g) if (prefix + v + total < 0 if bland else v == low))
            prefix += g[i]
            last = last * m + allowed[i]
        return f * width + last, prefix

    lookup = dict(tables)

    def column(j):
        f, last = divmod(j, width)
        col = []
        for allowed, kss in reversed(lookup[f]):
            last, a = divmod(last, m)
            col += [(i, 1) for i in kss[allowed.index(a)]]
        return col

    return price, column


def assignment_outcome(assignment, treatment: Treatment, offsets: tuple[int, ...]) -> OutcomeTuple:
    """Outcome tuple the assignment produces under the treatment."""
    return tuple(assignment[off + j - 1] for off, j in zip(offsets, treatment))


def reference_reproduces(system, q: Mapping[int, Fraction], P) -> bool:
    """The witness's atoms, q's nonzero entries by column, simulated one
    outcome tuple per (atom, treatment) in integers over their common
    denominator, give P, Fractions."""
    design = system.design
    bases, offsets = slot_bases(design), q_slot_offsets(design)
    atoms = [(v, mixed_radix_digits(j, bases)) for j, v in sorted(q.items())]
    scale, weights = scaled(v for v, _ in atoms)
    made = []
    for tr in design.treatments:
        row = defaultdict(int)
        for weight, (_, assignment) in zip(weights, atoms):
            row[assignment_outcome(assignment, tr, offsets)] += weight
        made += [row.get(o, 0) for o in design.all_outcomes()]
    return all(v * p.denominator == p.numerator * scale for v, p in zip(made, P))


def reference_bounded(system, y: Mapping[int, Fraction]) -> bool:
    """sum_t y[t, h(t)] <= 0 for every assignment h, enumerated one at a
    time over the slots that the treatments with a nonzero y block read, in
    integers."""
    design = system.design
    block = prod(design.outcome_sizes)
    c = [0] * system.nrows
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


def reference_verify(system, P, result: FeasibilityResult) -> bool:
    """`verify_certificate` in `Fraction`s through `reference_reproduces`
    and `reference_bounded`."""
    P = list(map(coerce_prob, P))
    cert = result.witness if result.feasible else result.farkas
    if len(P) != system.nrows or cert is None or len(cert) != (system.ncols if result.feasible else system.nrows):
        return False
    pairs = cert.support if isinstance(cert, Witness) else enumerate(cert)
    nonzero = {i: coerce_prob(v) for i, v in pairs if v}
    if result.feasible:
        return all(v > 0 for v in nonzero.values()) and reference_reproduces(system, nonzero, P)
    return sum([v * P[i] for i, v in nonzero.items()]) > 0 and reference_bounded(system, nonzero)
