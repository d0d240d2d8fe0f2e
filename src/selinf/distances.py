"""Order-distance chain tests and the Bell-CHSH-Fine inequality battery.

A total order on the pooled outcome labels of all outputs induces the
asymmetric distance D(X, Y) = Pr[X strictly below Y], a pseudo-quasi-metric.
For any chain of input points whose consecutive pairs (and endpoints) occur
together in treatments, a classical explanation forces the endpoint distance
to be at most the sum of the link distances.  Only irreducible chains need
checking; on full-factorial designs these are exactly the alternating
tetrads, and on the 2x2 binary design the two canonical orders reproduce the
four Bell-CHSH-Fine double inequalities.

On a full-factorial design any two points on distinct inputs co-occur, so a
pair of positions that is neither consecutive nor the endpoints must hold
two values of one input.  In a chain of length 5 or more, (1, 3), (1, 4)
and (2, 4) are such pairs, which puts positions 1 to 4 on one input, yet
positions 1 and 2 must co-occur.  In a 4-chain, (1, 3) and (2, 4) are such
pairs, which makes it an alternating tetrad; three pairwise co-occurring
points lie in one treatment, so there is no irreducible 3-chain.

`chain_test` sums each (treatment, output pair) distance once, in integers
over the tables' common denominator, so every slack is an integer sum; the
`Fraction` records are built only when read.
"""
from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import permutations
from types import MappingProxyType
from typing import Mapping, Sequence

from .errors import MarginalSelectivityError, SizeGuardError
from .experiment import (
    DESIGN_CACHE,
    Dataset,
    ExperimentDesign,
    MarginalReport,
    Treatment,
    ZERO,
    check_marginal_selectivity,
    coerce_prob,
    parse_index,
    scaled,
    scaled_tables,
)

Point = tuple[int, int]  # (input position, value index), 1-based
Labeled = tuple[int, int]  # (variable key, outcome index)
MAX_LEN, SEQUENCE_GUARD = 6, 10**5  # defaults: longest chain, most chains


@dataclass(frozen=True)
class OrderRelation:
    """Ranked partition of pooled outcome labels: classes in increasing order.

    Elements are (variable key, outcome index) pairs; for datasets the key is
    the 1-based input position.  Two labels in the same class are equivalent,
    labels in earlier classes strictly precede later ones.
    """

    classes: tuple[frozenset[Labeled], ...]
    name: str = ""
    _rank: dict = field(init=False, repr=False, compare=False, default_factory=dict)

    def __post_init__(self):
        classes = tuple(
            frozenset((parse_index(k), parse_index(a)) for k, a in cls) for cls in self.classes
        )
        if not classes or any(not cls for cls in classes):
            raise ValueError("order needs nonempty classes")
        rank: dict[Labeled, int] = {}
        for r, cls in enumerate(classes):
            for el in cls:
                if el in rank:
                    raise ValueError(f"label {el} appears in two classes")
                rank[el] = r
        object.__setattr__(self, "classes", classes)
        object.__setattr__(self, "_rank", rank)

    def rank(self, key: int, outcome: int) -> int:
        try:
            return self._rank[(key, outcome)]
        except KeyError:
            raise ValueError(f"order does not cover outcome {outcome} of variable {key}") from None

    def covers(self, key: int, size: int) -> bool:
        return all((key, a) in self._rank for a in range(1, size + 1))


def preset_order(design: ExperimentDesign, name: str) -> OrderRelation:
    """The two canonical orders.

    "d1" ranks outcomes by index across all outputs (1 = 1' < 2 = 2' < ...);
    "d2" does the same for output 1 but reverses the index for every other
    output (1 = 2' < 2 = 1' on the binary 2-output design).
    """
    if name not in ("d1", "d2"):
        raise ValueError(f"unknown preset order {name!r}")
    sizes = design.outcome_sizes
    top = max(sizes)
    classes = []
    for r in range(1, top + 1):
        cls = set()
        for lam, m in enumerate(sizes, start=1):
            if r <= m:
                if name == "d1" or lam == 1:
                    cls.add((lam, r))
                else:
                    cls.add((lam, m + 1 - r))
        if cls:
            classes.append(frozenset(cls))
    return OrderRelation(tuple(classes), name=name)


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


@dataclass(frozen=True)
class InputPointSequence:
    """A chain of input points x_1 ... x_l (l >= 3)."""

    points: tuple[Point, ...]

    def __post_init__(self):
        points = tuple((parse_index(l), parse_index(w)) for l, w in self.points)
        object.__setattr__(self, "points", points)
        if len(self.points) < 3:
            raise ValueError("sequences need at least three points")

    def __len__(self) -> int:
        return len(self.points)

    def links(self) -> list[tuple[Point, Point]]:
        """Consecutive pairs, in chain order."""
        return [
            (self.points[i - 1], self.points[i]) for i in range(1, len(self.points))
        ]

    @property
    def endpoints(self) -> tuple[Point, Point]:
        return self.points[0], self.points[-1]


@lru_cache(maxsize=DESIGN_CACHE)
def _pair_realizers(design: ExperimentDesign) -> Mapping[tuple[Point, Point], tuple[Treatment, ...]]:
    """Each ordered pair of input points (a point is (input, value)) mapped to
    the treatments containing both, in sorted order.  A point paired with
    itself is included; a pair that no treatment contains is absent.  Read
    only: it is cached per design, and reports hold its tuples."""
    pairs: dict[tuple[Point, Point], list[Treatment]] = {}
    for tr in design.treatments:
        points = list(enumerate(tr, start=1))
        for a in points:
            for b in points:
                pairs.setdefault((a, b), []).append(tr)
    return MappingProxyType({pair: tuple(trs) for pair, trs in pairs.items()})


def _too_many(sequence_guard: int) -> SizeGuardError:
    return SizeGuardError(
        f"more than {sequence_guard} irreducible sequences; raise "
        f"sequence_guard (CLI: --sequence-guard) to enumerate them all"
    )


def enumerate_irreducible_sequences(
    design: ExperimentDesign, max_len: int = MAX_LEN, sequence_guard: int = SEQUENCE_GUARD
) -> list[InputPointSequence]:
    """All irreducible treatment-realizable chains of length 3..max_len.

    Irreducible: distinct endpoints, and the only position subsets (of size
    above one) whose points fit inside a single treatment are the endpoint
    pair and the consecutive pairs.  A sequence and its reversal are distinct
    chains (the distance is asymmetric), so both are returned.  Output is
    deterministic: ordered by length, then lexicographically.

    On a full-factorial design these are `enumerate_tetradic_sequences`,
    counted against `sequence_guard` before any is built; any other
    treatment set is searched depth first.  The chains are found once per
    (design, max_len, sequence_guard) per process and returned in a new
    list; a breached guard raises on every call.
    """
    return list(_irreducible_sequences(design, max_len, sequence_guard))


@lru_cache(maxsize=DESIGN_CACHE)
def _irreducible_sequences(
    design: ExperimentDesign, max_len: int, sequence_guard: int
) -> tuple[InputPointSequence, ...]:
    if max_len < 3:
        raise ValueError("max_len must be >= 3")
    if design.is_factorial:
        if max_len < 4:
            return ()
        per_input = [k * (k - 1) for k in design.input_sizes]
        if sum(per_input) ** 2 - sum(c * c for c in per_input) > sequence_guard:
            raise _too_many(sequence_guard)
        return tuple(enumerate_tetradic_sequences(design))
    points = design.input_points()
    pairs = _pair_realizers(design)
    results: list[InputPointSequence] = []

    def extend(seq: list[Point], target: int) -> None:
        last = len(seq) + 1 == target
        for cand in points:
            # cand must co-occur with the point before it and differ from it
            # (adjacent duplicates are always reducible), and co-occur with
            # no earlier point but the other endpoint, which must co-occur
            if cand == seq[-1] or (seq[-1], cand) not in pairs:
                continue
            if any((p, cand) in pairs for p in seq[last:-1]):
                continue
            if not last:
                seq.append(cand)
                extend(seq, target)
                seq.pop()
            elif seq[0] != cand and (seq[0], cand) in pairs and not (
                # a 3-chain inside one treatment is reducible
                target == 3 and any(tr[cand[0] - 1] == cand[1] for tr in pairs[seq[0], seq[1]])
            ):
                if len(results) >= sequence_guard:
                    raise _too_many(sequence_guard)
                results.append(InputPointSequence((*seq, cand)))

    # an irreducible chain repeats no point: two equal points co-occur, so
    # they would have to be designated, and an adjacent repeat makes a
    # reducible triple; so no chain is longer than the point count
    for target in range(3, min(max_len, len(points)) + 1):
        for start in points:
            extend([start], target)
    return tuple(results)


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


@dataclass(frozen=True)
class LinkEvaluation:
    """One chain link: the pair, the distance used, the treatment that
    realized it, and every (treatment, distance) realization evaluated."""

    pair: tuple[Point, Point]
    distance: Fraction
    treatment: Treatment
    evaluated: tuple[tuple[Treatment, Fraction], ...]


@dataclass(frozen=True)
class ChainRecord:
    sequence: InputPointSequence
    lhs: Fraction
    rhs: Fraction
    slack: Fraction
    endpoint: LinkEvaluation
    links: tuple[LinkEvaluation, ...]

    @property
    def passed(self) -> bool:
        return self.slack >= 0


@dataclass(frozen=True)
class ChainReport:
    """One order's chain inequalities over a list of sequences.

    `slacks` holds each sequence's slack times `scale`, the tables' common
    denominator, and `realizations` maps each pair read to its realizing
    treatments and their distances times `scale`.  The `ChainRecord`s are
    built when read: the failing ones by `failures()`, all by `records`.
    """

    order: OrderRelation
    sequences: tuple[InputPointSequence, ...]
    slacks: tuple[int, ...]
    scale: int
    realizations: Mapping[tuple[Point, Point], tuple[tuple[Treatment, ...], list[int]]]

    @property
    def passed(self) -> bool:
        return all(s >= 0 for s in self.slacks)

    def failures(self) -> tuple[ChainRecord, ...]:
        return tuple(self._record(q) for q, s in zip(self.sequences, self.slacks) if s < 0)

    @cached_property
    def records(self) -> tuple[ChainRecord, ...]:
        return tuple(map(self._record, self.sequences))

    def _link(self, a: Point, b: Point, pick) -> LinkEvaluation:
        trs, ds = self.realizations[a, b]
        i = ds.index(pick(ds))  # the first realization of least (most) distance
        evaluated = tuple((tr, Fraction(d, self.scale)) for tr, d in zip(trs, ds))
        return LinkEvaluation((a, b), evaluated[i][1], trs[i], evaluated)

    def _record(self, seq: InputPointSequence) -> ChainRecord:
        endpoint = self._link(*seq.endpoints, max)
        links = tuple(self._link(a, b, min) for a, b in seq.links())
        rhs = sum((lk.distance for lk in links), ZERO)
        return ChainRecord(seq, endpoint.distance, rhs, rhs - endpoint.distance, endpoint, links)


def chain_test(
    dataset: Dataset, order: OrderRelation, sequences: Sequence[InputPointSequence]
) -> ChainReport:
    """Evaluate the chain inequality for every sequence.

    Every realizing treatment of every link is evaluated.  The reported
    right-hand side takes, per link, the realization with the smallest
    distance, and the left-hand side the largest one: the inequality must
    hold for every realization, so this is the tightest necessary condition
    (under marginal selectivity all realizations coincide).  Each (treatment,
    output pair) distance is summed once, in integers over the tables' common
    denominator (`scaled_tables`), so every slack is an integer sum.
    """
    sequences = tuple(sequences)
    pairs = _pair_realizers(dataset.design)
    scale, tables = scaled_tables(dataset, dataset.tables)
    rank, sizes = order._rank, dataset.design.outcome_sizes
    realizations: dict[tuple[Point, Point], tuple[tuple[Treatment, ...], list[int]]] = {}
    low: dict[tuple[Point, Point], int] = {}
    high: dict[tuple[Point, Point], int] = {}

    def realize(a: Point, b: Point) -> None:
        """Pr[output a[0] strictly below output b[0]] times scale, under each
        treatment that holds both points: a (treatment, output pair) belongs
        to one pair of points, so each is summed once.  It runs while a
        KeyError for the pair is handled, so its errors drop that context."""
        if (a, b) not in pairs:
            raise ValueError(f"no treatment realizes the pair {a}, {b}") from None
        trs = pairs[a, b]
        (l1, _), (l2, _) = a, b
        if a == b:
            ds = [0] * len(trs)  # Pr[X strictly below X] is 0 for the same input point
        else:
            for lam in (l1, l2):
                if not order.covers(lam, sizes[lam - 1]):
                    raise ValueError(f"order does not cover all outcomes of output {lam}") from None
            ds = [
                sum([v for o, v in tables[tr] if rank[l1, o[l1 - 1]] < rank[l2, o[l2 - 1]]])
                for tr in trs
            ]
        realizations[a, b] = trs, ds
        low[a, b], high[a, b] = min(ds), max(ds)

    slacks = []
    for seq in sequences:
        points = seq.points
        ends, links = (points[0], points[-1]), [*zip(points, points[1:])]
        try:
            slacks.append(sum([low[pair] for pair in links]) - high[ends])
        except KeyError:  # realize the new pairs in chain order, endpoints first
            for pair in (ends, *links):
                if pair not in realizations:
                    realize(*pair)
            slacks.append(sum([low[pair] for pair in links]) - high[ends])
    return ChainReport(order, sequences, tuple(slacks), scale, realizations)


@dataclass(frozen=True)
class FineInequality:
    family: str
    expression: str
    value: Fraction
    bound: str  # "lower" (>= -1) or "upper" (<= 0)

    @property
    def satisfied(self) -> bool:
        return self.value >= -1 if self.bound == "lower" else self.value <= 0


@dataclass(frozen=True)
class FineReport:
    records: tuple[FineInequality, ...]

    @property
    def passed(self) -> bool:
        return all(r.satisfied for r in self.records)

    def families(self) -> dict[str, Fraction]:
        return {r.family: r.value for r in self.records if r.bound == "upper"}

    def violated_families(self) -> tuple[str, ...]:
        return tuple(
            sorted({r.family for r in self.records if not r.satisfied})
        )


def fine_inequalities(
    dataset: Dataset, *, marginal_report: MarginalReport | None = None
) -> FineReport:
    """The four double inequalities bounding, within [-1, 0], the sum of all
    p(1,1|i,j) minus twice one of them minus two marginals.

    Applies to the 2-input, 2-value, binary-outcome full-factorial design and
    needs marginal selectivity (the marginals are otherwise ill-defined): the
    caller's `check_marginal_selectivity` report of it if given, else a fresh
    check.  The family subtracting p(1,1|1,2) comes first; its two bounds are
    jointly equivalent to the canonical-tetrad chain pair under the two
    preset orders.
    """
    design = dataset.design
    if not design.is_2x2 or design.outcome_sizes != (2, 2):
        raise ValueError(
            "Fine battery needs the 2-input, 2-value, binary-outcome full factorial design"
        )
    ms = marginal_report if marginal_report is not None else check_marginal_selectivity(dataset)
    if not ms.passed:
        raise MarginalSelectivityError(
            "Fine battery needs marginal selectivity", ms
        )

    p11 = {(i, j): dataset.prob((i, j), (1, 1)) for i in (1, 2) for j in (1, 2)}
    row = {i: dataset.prob((i, 1), (1, 1)) + dataset.prob((i, 1), (1, 2)) for i in (1, 2)}
    col = {j: dataset.prob((1, j), (1, 1)) + dataset.prob((1, j), (2, 1)) for j in (1, 2)}
    total = sum(p11.values())

    records = []
    for i0, j0 in ((1, 2), (1, 1), (2, 2), (2, 1)):
        oi, oj = 3 - i0, 3 - j0
        value = total - 2 * p11[(i0, j0)] - row[oi] - col[oj]
        plus = " + ".join(
            f"p11|{i}{j}" for i in (1, 2) for j in (1, 2) if (i, j) != (i0, j0)
        )
        expr = f"{plus} - p11|{i0}{j0} - p1.|{oi}. - p.1|.{oj}"
        family = f"p11|{i0}{j0}"
        records.append(FineInequality(family, f"-1 <= {expr}", value, "lower"))
        records.append(FineInequality(family, f"{expr} <= 0", value, "upper"))
    return FineReport(tuple(records))


def canonical_tetrad() -> InputPointSequence:
    """The chain (1,1), (2,1), (1,2), (2,2) whose inequality pair under the
    two preset orders matches the first Fine double inequality."""
    return InputPointSequence(((1, 1), (2, 1), (1, 2), (2, 2)))


@dataclass(frozen=True)
class AxiomReport:
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
    items = [(tuple(map(int, key)), coerce_prob(p)) for key, p in joint.items()]
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
