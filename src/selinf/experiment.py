"""Core data model: inputs, treatments, exact per-treatment joint distributions.

An experiment has n inputs, each with a finite value set, one random output
per input with a finite outcome set, and a nonempty set of allowable
treatments (index tuples choosing one value per input).  A dataset attaches
to each treatment an exact joint distribution over outcome tuples.  All
probabilities are `fractions.Fraction`; floating point never enters a verdict.

`coerce_prob` is the package's one conversion of a probability or weight,
`scaled` its one scaling of Fractions to integers (`Dataset.integer_tables`
a dataset's, once), and `ZERO` and `ONE` its exact constants.

Value and outcome indices are 1-based throughout.
"""
from __future__ import annotations

import re
from collections import defaultdict
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import combinations, product
from math import comb, lcm, prod
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

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
    `MAX_EXPONENT` raises ValueError before Fraction expands it.  "p/q" in
    decimal digits is read by `int`, with `Fraction(str)`'s value and refusals."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, str):
        num, slash, den = value.partition("/")
        if slash and num.isdecimal() and den.isdecimal():
            return Fraction(int(num), int(den))
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
    denominators = [v.denominator for v in values]
    scale = lcm(*denominators)
    return scale, [v.numerator * (scale // d) for v, d in zip(values, denominators)]


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
        positions; each group in sorted order, so its first is least on the others.
        A position outside 1..n raises ValueError."""
        subset = [parse_index(lam) for lam in subset]
        if not all(1 <= lam <= self.n for lam in subset):
            raise ValueError(f"subset {tuple(subset)} out of range")
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
    zero), each value read by `coerce_prob` before its key, parsed only for a
    nonzero value.  No validity checking happens here; `validate_dataset`
    reports breaches without ever aborting.
    """

    design: ExperimentDesign
    tables: Mapping[Treatment, Mapping[OutcomeTuple, Fraction]]

    def __post_init__(self):
        norm = {
            tuple(map(parse_index, tr)): {
                tuple(map(parse_index, outcome)): p
                for outcome, p in zip(table, map(coerce_prob, table.values())) if p
            }
            for tr, table in self.tables.items()
        }
        object.__setattr__(self, "tables", norm)

    def table(self, treatment) -> Mapping[OutcomeTuple, Fraction]:
        tr = tuple(treatment)
        if tr not in self.tables:
            raise ValueError(f"no table for treatment {tr}")
        return self.tables[tr]

    def prob(self, treatment, outcome) -> Fraction:
        return self.table(treatment).get(tuple(outcome), ZERO)

    @cached_property
    def integer_tables(self) -> tuple[int, dict[Treatment, list[tuple[OutcomeTuple, int]]]]:
        """The lcm of the denominators over every table, and each table as
        (outcome, probability times it) pairs in its order: the one integer
        form of the data, computed once per dataset."""
        scale, ints = scaled(p for table in self.tables.values() for p in table.values())
        ints = iter(ints)
        return scale, {tr: list(zip(table, ints)) for tr, table in self.tables.items()}


class ValidationBreach(NamedTuple):
    kind: str
    message: str
    treatment: Treatment | None = None


class ValidationReport(NamedTuple):
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
    nonnegative, each table's mass is exactly 1, summed in `integer_tables`.
    """
    design = dataset.design
    scale, ints = dataset.integer_tables
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
        mass = 0
        for outcome, v in ints[tr]:
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
            if v < 0:
                breaches.append(
                    ValidationBreach(
                        "negative-probability",
                        f"negative probability {table[outcome]} at {outcome} under {tr}",
                        tr,
                    )
                )
            mass += v
        if mass != scale:
            diff = Fraction(scale - mass, scale)
            word = "deficit" if diff > 0 else "excess"
            breaches.append(
                ValidationBreach(
                    "mass", f"mass != 1 under {tr}, {word} {abs(diff)}", tr
                )
            )
    return ValidationReport(tuple(breaches))


def marginal_discrepancy(
    ma: Mapping[OutcomeTuple, Fraction], mb: Mapping[OutcomeTuple, Fraction]
) -> Fraction:
    """Largest |difference| between two marginals, in Fractions or in integers
    over one scale; a missing key is zero."""
    return max(
        (abs(ma.get(key, ZERO) - mb.get(key, ZERO)) for key in set(ma) | set(mb)),
        default=ZERO,
    )


class MarginalViolation(NamedTuple):
    subset: tuple[int, ...]
    treatment_a: Treatment
    treatment_b: Treatment
    discrepancy: Fraction


class MarginalReport(NamedTuple):
    violations: tuple[MarginalViolation, ...]
    comparisons: int
    max_subset_size: int

    @property
    def passed(self) -> bool:
        return not self.violations


@lru_cache(maxsize=DESIGN_CACHE)
def _marginal_groups(design: ExperimentDesign) -> tuple[tuple, int]:
    """The design's part of `check_marginal_selectivity`: per proper input
    subset, its groups of more than one treatment (if any), and their pair count."""
    groups_per_subset, total = [], 0
    for size in range(1, design.n):
        for lam_list in combinations(range(1, design.n + 1), size):
            multi = tuple(tuple(g) for g in design.treatment_groups(lam_list).values() if len(g) > 1)
            total += sum(comb(len(g), 2) for g in multi)
            if multi:
                groups_per_subset.append((lam_list, multi))
    return tuple(groups_per_subset), total


def check_marginal_selectivity(
    dataset: Dataset, comparison_guard: int = COMPARISON_GUARD
) -> MarginalReport:
    """Compare, for every nonempty proper input subset and every pair of
    treatments agreeing on it, the exact subset marginals.

    If the number of (subset, pair) comparisons exceeds `comparison_guard`,
    raises SizeGuardError before any table is read.  The marginals are
    compared in integers: each treatment's is summed once in the dataset's
    `integer_tables`, zeros dropped, and a `Fraction` is built only for a
    violation.  A treatment without a table raises ValueError.
    """
    groups_per_subset, total = _marginal_groups(dataset.design)
    if total > comparison_guard:
        raise SizeGuardError(
            f"marginal-selectivity check needs {total} comparisons "
            f"(guard {comparison_guard}); raise comparison_guard "
            f"(CLI: --marginal-guard) to run anyway"
        )

    scale, tables = dataset.integer_tables
    violations: list[MarginalViolation] = []
    for lam_list, groups in groups_per_subset:
        for g in groups:
            margs = {}
            for tr in g:
                dataset.table(tr)  # refuses a missing table
                out: dict[OutcomeTuple, int] = defaultdict(int)
                for outcome, v in tables[tr]:
                    out[tuple([outcome[lam - 1] for lam in lam_list])] += v
                margs[tr] = {key: v for key, v in out.items() if v}
            violations += [
                MarginalViolation(
                    lam_list, ta, tb, Fraction(marginal_discrepancy(margs[ta], margs[tb]), scale)
                )
                for ta, tb in combinations(g, 2)
                if margs[ta] != margs[tb]
            ]
    return MarginalReport(tuple(violations), total, max(1, dataset.design.n - 1))
