"""Core data model: inputs, treatments, exact per-treatment joint distributions.

An experiment has n inputs, each with a finite value set, one random output
per input with a finite outcome set, and a nonempty set of allowable
treatments (index tuples choosing one value per input).  A dataset attaches
to each treatment an exact joint distribution over outcome tuples.  All
probabilities are `fractions.Fraction`; floating point never enters a verdict.

`coerce_prob` is the package's one conversion of a probability or weight,
`scaled` its one scaling of Fractions to integers, and `ZERO` and `ONE` its
exact constants.

Value and outcome indices are 1-based throughout.
"""
from __future__ import annotations

import re
from collections import defaultdict
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import combinations, product
from math import comb, lcm, prod
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import SizeGuardError

Treatment = tuple[int, ...]
OutcomeTuple = tuple[int, ...]

ZERO = Fraction(0)
ONE = Fraction(1)
# Fraction("1e-10000000") builds 10**10**7, so larger exponents are refused
MAX_EXPONENT = 1000
_EXPONENT = re.compile(r"e([-+]?[\d_]+)\s*\Z", re.IGNORECASE)
# default bound on the marginal check's (subset, treatment pair) comparisons
COMPARISON_GUARD = 10**6
# entries of each per-process cache of tables derived from a design alone,
# keyed on the frozen `ExperimentDesign`
DESIGN_CACHE = 16


def parse_index(value) -> int:
    """An index: an int, an integral number or an integer string.  A bool or
    a fractional number (or inf or nan, whose % 1 is nan) raises ValueError."""
    if type(value) is int:
        return value
    if isinstance(value, bool) or (not isinstance(value, str) and value % 1):
        raise ValueError(f"{value!r} is not an integer")
    return int(value)


def coerce_prob(value) -> Fraction:
    """A probability or weight as an exact Fraction: a Fraction, an int, or a
    "p/q" or decimal string.  A float, a bool or any other type raises
    TypeError, to keep every verdict exact; a decimal exponent beyond
    `MAX_EXPONENT` raises ValueError before Fraction expands it."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, str):
        exponent = _EXPONENT.search(value)
        if exponent and abs(int(exponent.group(1))) > MAX_EXPONENT:
            raise ValueError(f"decimal exponent beyond {MAX_EXPONENT}")
        return Fraction(value)
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    raise TypeError(
        f"probabilities must be Fraction, int or exact string, got {type(value).__name__}"
    )


def scaled(values: Iterable[Fraction]) -> tuple[int, list[int]]:
    """The lcm of the denominators of `values`, and each value times it, as
    ints in the same order."""
    values = list(values)
    scale = lcm(*(v.denominator for v in values))
    return scale, [v.numerator * (scale // v.denominator) for v in values]


@dataclass(frozen=True)
class _Labels:
    """A label and its distinct item labels, named by `_noun` and `_item`."""

    label: str
    values: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(str(v) for v in self.values))
        if not self.values:
            raise ValueError(f"{self._noun} {self.label!r} has no {self._item}s")
        if len(set(self.values)) != len(self.values):
            raise ValueError(f"{self._noun} {self.label!r} has duplicate {self._item} labels")

    @property
    def size(self) -> int:
        return len(self.values)


@dataclass(frozen=True)
class Input(_Labels):
    """One input: a label and its ordered value labels (size k >= 1)."""

    _noun, _item = "input", "value"


@dataclass(frozen=True)
class Output(_Labels):
    """One random output: a label and its ordered outcome labels (size m >= 1)."""

    _noun, _item = "output", "outcome"


@dataclass(frozen=True)
class ExperimentDesign:
    """Inputs, outputs and the allowable treatment set.

    Treatments are stored in sorted order; that order is the canonical one
    used for flat vector indexing elsewhere.  A design is immutable, so
    tables derived from it alone are cached: here as cached properties,
    elsewhere in caches of `DESIGN_CACHE` entries keyed on the design.
    """

    inputs: tuple[Input, ...]
    outputs: tuple[Output, ...]
    treatments: tuple[Treatment, ...]
    _treatment_set: frozenset[Treatment] = field(
        init=False, repr=False, compare=False, default=frozenset()
    )

    def __post_init__(self):
        inputs = tuple(self.inputs)
        outputs = tuple(self.outputs)
        if not inputs:
            raise ValueError("design needs at least one input")
        if len(outputs) != len(inputs):
            raise ValueError("need exactly one output per input")
        if len({inp.label for inp in inputs}) != len(inputs):
            raise ValueError("duplicate input labels")
        if len({out.label for out in outputs}) != len(outputs):
            raise ValueError("duplicate output labels")
        treatments = []
        for tr in self.treatments:
            tr = tuple(parse_index(j) for j in tr)
            if len(tr) != len(inputs):
                raise ValueError(f"treatment {tr} has wrong arity")
            for lam, j in enumerate(tr, start=1):
                if not 1 <= j <= inputs[lam - 1].size:
                    raise ValueError(f"treatment {tr} selects invalid value for input {lam}")
            treatments.append(tr)
        if not treatments:
            raise ValueError("treatment set must be nonempty")
        if len(set(treatments)) != len(treatments):
            raise ValueError("duplicate treatments")
        object.__setattr__(self, "inputs", inputs)
        object.__setattr__(self, "outputs", outputs)
        object.__setattr__(self, "treatments", tuple(sorted(treatments)))
        object.__setattr__(self, "_treatment_set", frozenset(treatments))

    @property
    def n(self) -> int:
        return len(self.inputs)

    @cached_property
    def input_sizes(self) -> tuple[int, ...]:
        return tuple(inp.size for inp in self.inputs)

    @cached_property
    def outcome_sizes(self) -> tuple[int, ...]:
        return tuple(out.size for out in self.outputs)

    @property
    def is_factorial(self) -> bool:
        return len(self.treatments) == prod(self.input_sizes)

    @property
    def is_2x2(self) -> bool:
        """Two inputs with two values each, every treatment allowed: the shape
        the Fine battery and cosphericity apply to."""
        return self.input_sizes == (2, 2) and self.is_factorial

    def has_treatment(self, treatment) -> bool:
        return tuple(treatment) in self._treatment_set

    def treatment_groups(self, subset: Sequence[int]) -> dict[Treatment, list[Treatment]]:
        """The treatments grouped by their values on `subset`, sorted 1-based input
        positions; each group in sorted order, so its first is least on the others."""
        groups: dict[Treatment, list[Treatment]] = defaultdict(list)
        for tr in self.treatments:
            groups[tuple(tr[lam - 1] for lam in subset)].append(tr)
        return dict(groups)

    def all_outcomes(self) -> Iterator[OutcomeTuple]:
        """All outcome tuples in lexicographic order (first coordinate slowest)."""
        return product(*(range(1, m + 1) for m in self.outcome_sizes))

    def input_points(self) -> list[tuple[int, int]]:
        """All (input position, value index) pairs, 1-based."""
        return [(lam, w) for lam in range(1, self.n + 1) for w in range(1, self.inputs[lam - 1].size + 1)]


def make_design(
    input_sizes: Sequence[int],
    outcome_sizes: Sequence[int],
    treatments: Sequence[Sequence[int]] | None = None,
) -> ExperimentDesign:
    """Convenience constructor with generic labels; treatments default to the
    full factorial set."""
    if len(input_sizes) != len(outcome_sizes):
        raise ValueError("input_sizes and outcome_sizes must have equal length")
    inputs = tuple(
        Input(f"alpha{lam}", tuple(str(w) for w in range(1, k + 1)))
        for lam, k in enumerate(input_sizes, start=1)
    )
    outputs = tuple(
        Output(f"A{lam}", tuple(str(a) for a in range(1, m + 1)))
        for lam, m in enumerate(outcome_sizes, start=1)
    )
    if treatments is None:
        treatments = tuple(product(*(range(1, k + 1) for k in input_sizes)))
    return ExperimentDesign(inputs, outputs, tuple(tuple(t) for t in treatments))


@dataclass(frozen=True)
class Dataset:
    """A design plus one exact joint distribution table per treatment.

    Tables are normalized on construction: keys become int tuples, values
    exact Fractions, zero entries are dropped (absent keys mean probability
    zero).  No validity checking happens here; `validate_dataset` reports
    breaches without ever aborting.
    """

    design: ExperimentDesign
    tables: Mapping[Treatment, Mapping[OutcomeTuple, Fraction]]

    def __post_init__(self):
        norm: dict[Treatment, dict[OutcomeTuple, Fraction]] = {}
        for tr, table in self.tables.items():
            key = tuple(parse_index(j) for j in tr)
            row: dict[OutcomeTuple, Fraction] = {}
            for outcome, p in table.items():
                p = coerce_prob(p)
                if p != 0:
                    row[tuple(parse_index(a) for a in outcome)] = p
            norm[key] = row
        object.__setattr__(self, "tables", norm)

    def table(self, treatment) -> Mapping[OutcomeTuple, Fraction]:
        tr = tuple(treatment)
        if tr not in self.tables:
            raise ValueError(f"no table for treatment {tr}")
        return self.tables[tr]

    def prob(self, treatment, outcome) -> Fraction:
        return self.table(treatment).get(tuple(outcome), ZERO)


@dataclass(frozen=True)
class ValidationBreach:
    kind: str
    message: str
    treatment: Treatment | None = None


@dataclass(frozen=True)
class ValidationReport:
    breaches: tuple[ValidationBreach, ...]

    @property
    def valid(self) -> bool:
        return not self.breaches

    def summary(self) -> str:
        if self.valid:
            return "valid"
        return "; ".join(b.message for b in self.breaches)


def validate_dataset(dataset: Dataset) -> ValidationReport:
    """Report every invariant breach; never raises.

    Checked: a table exists for every treatment of the design and for no
    other, outcome keys have the right arity and range, probabilities are
    nonnegative, each table's mass is exactly 1.
    """
    design = dataset.design
    breaches: list[ValidationBreach] = []
    for tr in design.treatments:
        if tr not in dataset.tables:
            breaches.append(
                ValidationBreach("missing-table", f"no table for treatment {tr}", tr)
            )
    sizes = design.outcome_sizes
    for tr, table in dataset.tables.items():
        if not design.has_treatment(tr):
            breaches.append(
                ValidationBreach("unknown-treatment", f"treatment {tr} not in design", tr)
            )
            continue
        mass = ZERO
        for outcome, p in table.items():
            if len(outcome) != design.n:
                breaches.append(
                    ValidationBreach(
                        "bad-outcome", f"outcome {outcome} has wrong arity under {tr}", tr
                    )
                )
                continue
            if any(not 1 <= a <= m for a, m in zip(outcome, sizes)):
                breaches.append(
                    ValidationBreach(
                        "bad-outcome", f"outcome {outcome} out of range under {tr}", tr
                    )
                )
            if p < 0:
                breaches.append(
                    ValidationBreach(
                        "negative-probability", f"negative probability {p} at {outcome} under {tr}", tr
                    )
                )
            mass += p
        if mass != 1:
            diff = ONE - mass
            word = "deficit" if diff > 0 else "excess"
            breaches.append(
                ValidationBreach(
                    "mass", f"mass != 1 under {tr}, {word} {abs(diff)}", tr
                )
            )
    return ValidationReport(tuple(breaches))


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


def marginal_discrepancy(
    ma: Mapping[OutcomeTuple, Fraction], mb: Mapping[OutcomeTuple, Fraction]
) -> Fraction:
    """Largest |difference| between two marginals, in Fractions or in integers
    over one scale; a missing key is zero."""
    return max(
        (abs(ma.get(key, ZERO) - mb.get(key, ZERO)) for key in set(ma) | set(mb)),
        default=ZERO,
    )


@dataclass(frozen=True)
class MarginalViolation:
    subset: tuple[int, ...]
    treatment_a: Treatment
    treatment_b: Treatment
    discrepancy: Fraction


@dataclass(frozen=True)
class MarginalReport:
    violations: tuple[MarginalViolation, ...]
    comparisons: int
    max_subset_size: int

    @property
    def passed(self) -> bool:
        return not self.violations


def scaled_tables(dataset: Dataset, treatments: Iterable[Treatment]) -> tuple[int, dict]:
    """The lcm of the denominators in the tables of `treatments`, read in that
    order, and each of those tables as (outcome, probability times it) pairs."""
    tables = {tr: dataset.table(tr) for tr in treatments}
    scale, ints = scaled(p for table in tables.values() for p in table.values())
    ints = iter(ints)
    return scale, {tr: list(zip(table, ints)) for tr, table in tables.items()}


def compare_marginals(
    scale: int, tables: Mapping, lam_list: tuple[int, ...], group, pairs
) -> tuple[dict[Treatment, dict[OutcomeTuple, int]], list[MarginalViolation]]:
    """The marginal over the sorted inputs `lam_list` of each treatment of
    `group`, summed once in integers from `scaled_tables`, zeros dropped; and
    a violation for each of `pairs` whose marginals differ, the only place a
    Fraction is built."""
    margs = {}
    for tr in group:
        out: dict[OutcomeTuple, int] = defaultdict(int)
        for outcome, v in tables[tr]:
            out[tuple([outcome[lam - 1] for lam in lam_list])] += v
        margs[tr] = {key: v for key, v in out.items() if v}
    return margs, [
        MarginalViolation(
            lam_list, ta, tb, Fraction(marginal_discrepancy(margs[ta], margs[tb]), scale)
        )
        for ta, tb in pairs
        if margs[ta] != margs[tb]
    ]


def check_marginal_selectivity(
    dataset: Dataset, comparison_guard: int = COMPARISON_GUARD
) -> MarginalReport:
    """Compare, for every nonempty proper input subset and every pair of
    treatments agreeing on it, the exact subset marginals.

    If the number of (subset, pair) comparisons exceeds `comparison_guard`,
    raises SizeGuardError before any table is read.  The marginals are
    compared in integers, by `compare_marginals`.
    """
    design = dataset.design
    n = design.n

    groups_per_subset: list[tuple[tuple[int, ...], list[list[Treatment]]]] = []
    total = 0
    for size in range(1, n):
        for lam_list in combinations(range(1, n + 1), size):
            multi = [g for g in design.treatment_groups(lam_list).values() if len(g) > 1]
            total += sum(comb(len(g), 2) for g in multi)
            if multi:
                groups_per_subset.append((lam_list, multi))
    if total > comparison_guard:
        raise SizeGuardError(
            f"marginal-selectivity check needs {total} comparisons "
            f"(guard {comparison_guard}); raise comparison_guard "
            f"(CLI: --marginal-guard) to run anyway"
        )

    read = dict.fromkeys(tr for _, groups in groups_per_subset for g in groups for tr in g)
    scale, tables = scaled_tables(dataset, read)
    violations: list[MarginalViolation] = []
    for lam_list, groups in groups_per_subset:
        for g in groups:
            violations += compare_marginals(scale, tables, lam_list, g, combinations(g, 2))[1]
    return MarginalReport(tuple(violations), total, max(1, n - 1))


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
