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
points lie in one treatment, so there is no irreducible 3-chain.  A test
checks the one search, which serves every design, against these tetrads.

`chain_test` reads each chain as indices into the point pairs that a plan,
compiled once per sequence list, numbers; per order it sums each (treatment,
output pair) distance once, in integers over the tables' common
denominator, so every slack is an integer sum; the `Fraction` records are
built only when read.
"""
from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache, lru_cache
from operator import itemgetter
from typing import Mapping, NamedTuple, Sequence

from .errors import MarginalSelectivityError, SizeGuardError
from .experiment import (
    DESIGN_CACHE,
    Dataset,
    ExperimentDesign,
    MarginalReport,
    Treatment,
    check_marginal_selectivity,
    parse_index,
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


@lru_cache(maxsize=DESIGN_CACHE)
def preset_order(design: ExperimentDesign, name: str) -> OrderRelation:
    """The two canonical orders.

    "d1" ranks outcomes by index across all outputs (1 = 1' < 2 = 2' < ...);
    "d2" does the same for output 1 but reverses the index for every other
    output (1 = 2' < 2 = 1' on the binary 2-output design).  Cached per
    (design, name): an order is immutable.
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
def _pair_realizers(design: ExperimentDesign) -> dict[tuple[Point, Point], tuple[Treatment, ...]]:
    """Each ordered pair of input points (a point is (input, value)) mapped to
    the treatments containing both, in sorted order.  A point paired with
    itself is included; a pair that no treatment contains is absent.  Built
    once per design: the chains and their plans read it."""
    treatments, pairs = design.treatments, {}
    for i in range(design.n):
        for j in range(i, design.n):
            groups = defaultdict(list)  # by their values on inputs i and j
            for values, tr in zip(map(itemgetter(i, j), treatments), treatments):
                groups[values].append(tr)
            for (v, w), trs in groups.items():
                pairs[(i + 1, v), (j + 1, w)] = pairs[(j + 1, w), (i + 1, v)] = tuple(trs)
    return pairs


def enumerate_irreducible_sequences(
    design: ExperimentDesign, max_len: int = MAX_LEN, sequence_guard: int = SEQUENCE_GUARD
) -> list[InputPointSequence]:
    """All irreducible treatment-realizable chains of length 3..max_len.

    Irreducible: distinct endpoints, and the only position subsets (of size
    above one) whose points fit inside a single treatment are the endpoint
    pair and the consecutive pairs.  A sequence and its reversal are distinct
    chains (the distance is asymmetric), so both are returned.  Output is
    deterministic: ordered by length, then lexicographically.

    One depth-first search serves every treatment set and counts each chain
    against `sequence_guard` as it finds it (on factorial designs it finds the
    tetrads, as a test checks).  Found once per (design, max_len, guard) per
    process, the chains come in a new list; a breached guard raises each call.
    """
    return list(_irreducible_sequences(design, max_len, sequence_guard))


@lru_cache(maxsize=DESIGN_CACHE)
def _irreducible_sequences(
    design: ExperimentDesign, max_len: int, sequence_guard: int
) -> tuple[InputPointSequence, ...]:
    if max_len < 3:
        raise ValueError("max_len must be >= 3")
    points = design.input_points()
    pairs = _pair_realizers(design)
    # each point's co-occurring points, itself among them: in point order, and as a set
    near = {p: [q for q in points if (p, q) in pairs] for p in points}
    meets = {p: set(qs) for p, qs in near.items()}
    results: list[tuple[Point, ...]] = []

    def extend(seq: list[Point], blocked: set[Point]) -> None:
        # seq: two points or more.  blocked: the points that co-occur with an interior point
        # (seq[1:-1]), those among them, so no point repeats and no path outgrows the point count
        first, last = seq[0], seq[-1]
        if len(seq) == 2:  # each input's values in the treatments holding both
            columns = list(zip(*pairs[first, last]))
        for cand in near[last]:
            if cand in blocked:
                continue
            if cand in meets[first]:
                # cand closes a chain, unless it is the first point or makes
                # a 3-chain inside one treatment (both reducible)
                if cand != first and not (len(seq) == 2 and cand[1] in columns[cand[0] - 1]):
                    if len(results) >= sequence_guard:
                        raise SizeGuardError(
                            f"more than {sequence_guard} irreducible sequences; raise "
                            f"sequence_guard (CLI: --sequence-guard) to enumerate them all"
                        )
                    results.append((*seq, cand))
            elif len(seq) + 1 < max_len:
                seq.append(cand)
                extend(seq, blocked | meets[last])
                seq.pop()

    for first in points:
        for second in near[first]:
            if second != first:
                extend([first, second], set())
    # extend calls itself (a cycle): freed with its tables before the cached chains are built.
    # Depth first is lexicographic within each length, and sorted() is stable
    del extend, near, meets
    return tuple(map(InputPointSequence, sorted(results, key=len)))


class LinkEvaluation(NamedTuple):
    """One chain link: the pair, the distance used, the treatment that
    realized it, and every (treatment, distance) realization evaluated."""

    pair: tuple[Point, Point]
    distance: Fraction
    treatment: Treatment
    evaluated: tuple[tuple[Treatment, Fraction], ...]


class ChainRecord(NamedTuple):
    sequence: InputPointSequence
    lhs: Fraction
    rhs: Fraction
    slack: Fraction
    endpoint: LinkEvaluation
    links: tuple[LinkEvaluation, ...]

    @property
    def passed(self) -> bool:
        return self.slack >= 0


class ChainReport(NamedTuple):
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
        return self._records((q, s) for q, s in zip(self.sequences, self.slacks) if s < 0)

    @property
    def records(self) -> tuple[ChainRecord, ...]:
        return self._records(zip(self.sequences, self.slacks))

    def _records(self, chosen) -> tuple[ChainRecord, ...]:
        # a design has few distinct pairs, read by many chains: each link's
        # LinkEvaluation is built once per call
        link = cache(self._link)
        return tuple(self._record(q, s, link) for q, s in chosen)

    def _link(self, a: Point, b: Point, pick) -> LinkEvaluation:
        trs, ds = self.realizations[a, b]
        i = ds.index(pick(ds))  # the first realization of least (most) distance
        evaluated = tuple((tr, Fraction(d, self.scale)) for tr, d in zip(trs, ds))
        return LinkEvaluation((a, b), evaluated[i][1], trs[i], evaluated)

    def _record(self, seq: InputPointSequence, slack: int, link) -> ChainRecord:
        endpoint = link(*seq.endpoints, max)
        links = tuple(link(a, b, min) for a, b in seq.links())
        rhs = slack + max(self.realizations[seq.endpoints][1])
        return ChainRecord(
            seq, endpoint.distance, Fraction(rhs, self.scale), Fraction(slack, self.scale), endpoint, links
        )


_PLANS: dict[tuple, tuple] = {}


def _chain_plan(design: ExperimentDesign, sequences: tuple[InputPointSequence, ...]) -> tuple:
    """The sequences compiled against the design: the distinct point pairs
    they read, numbered in first-use order (endpoints first, then links),
    each pair's realizing treatments (None where none realizes it), and each
    sequence as (endpoint index, an itemgetter over its link indices).

    `_PLANS` keeps the `DESIGN_CACHE` most recently used plans, keyed on the
    design and the sequence objects' identities, so finding one hashes no
    point; each entry holds its sequences, so no other object takes their
    ids while it is kept."""
    key = (design, *map(id, sequences))
    entry = _PLANS.pop(key, None)  # put back below as the most recent
    if entry is None:
        index: dict[tuple[Point, Point], int] = {}
        chains = []
        for seq in sequences:  # at least three points, so two links: get returns a tuple
            p = seq.points
            ends, *links = [index.setdefault(pair, len(index)) for pair in ((p[0], p[-1]), *zip(p, p[1:]))]
            chains.append((ends, itemgetter(*links)))
        entry = sequences, (tuple(index), tuple(map(_pair_realizers(design).get, index)), tuple(chains))
    _PLANS[key] = entry
    for old in list(_PLANS)[:-DESIGN_CACHE]:  # the least recently used
        _PLANS.pop(old, None)
    return entry[1]


def chain_test(
    dataset: Dataset, order: OrderRelation, sequences: Sequence[InputPointSequence]
) -> ChainReport:
    """Evaluate the chain inequality for every sequence.

    Every realizing treatment of every link is evaluated.  The reported
    right-hand side takes, per link, the realization with the smallest
    distance, and the left-hand side the largest one: the inequality must
    hold for every realization, so this is the tightest necessary condition
    (under marginal selectivity all realizations coincide).  Each pair of
    points is realized once, in the plan's order, in integers over the
    tables' common denominator (`Dataset.integer_tables`), so every slack is
    an integer sum.
    """
    sequences = tuple(sequences)
    pairs, realizers, chains = _chain_plan(dataset.design, sequences)
    scale, tables = dataset.integer_tables
    # each output's ranks by outcome index, checked once per output: None
    # where the order leaves an outcome of it out
    ranks = [
        [None, *(order._rank[lam, a] for a in range(1, m + 1))] if order.covers(lam, m) else None
        for lam, m in enumerate(dataset.design.outcome_sizes, start=1)
    ]
    realized = []
    for (a, b), trs in zip(pairs, realizers):
        # Pr[output a[0] strictly below output b[0]] times scale, under each
        # treatment that holds both points; 0 for a point paired with itself
        if trs is None:
            raise ValueError(f"no treatment realizes the pair {a}, {b}")
        i, j = a[0] - 1, b[0] - 1
        if a == b:
            realized.append([0] * len(trs))
            continue
        for k in (i, j):
            if ranks[k] is None:
                raise ValueError(f"order does not cover all outcomes of output {k + 1}")
        ri, rj = ranks[i], ranks[j]
        realized.append([sum([v for o, v in tables[tr] if ri[o[i]] < rj[o[j]]]) for tr in trs])
    low, high = [min(ds) for ds in realized], [max(ds) for ds in realized]
    slacks = tuple([sum(get(low)) - high[e] for e, get in chains])
    return ChainReport(order, sequences, slacks, scale, dict(zip(pairs, zip(realizers, realized))))


class FineInequality(NamedTuple):
    family: str
    expression: str
    value: Fraction
    bound: str  # "lower" (>= -1) or "upper" (<= 0)

    @property
    def satisfied(self) -> bool:
        return self.value >= -1 if self.bound == "lower" else self.value <= 0


class FineReport(NamedTuple):
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
    jointly equivalent to the inequalities of the chain (1,1), (2,1), (1,2),
    (2,2) under the two preset orders.
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
