"""Workload datasets, built from a seed with the benchmark's own code.

Nothing here imports selinf, so no change to the program can change the
inputs or their ground truth.  Every dataset carries the verdict it must get
and the reason it is known: an explicit hidden-variable model (classical), a
CHSH value above 2 on a 2x2 binary coarse-graining (not classical), or the
GHZ parity contradiction.

Conventions match the dataset file format: value and outcome indices are
1-based, treatments are full factorial, and an assignment lists one outcome
per (input, value) slot, input 1 value 1 first.
"""
from __future__ import annotations

import json
import math
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product
from math import prod

HALF = Fraction(1, 2)


@dataclass(frozen=True)
class Design:
    ks: tuple[int, ...]  # values per input
    ms: tuple[int, ...]  # outcomes per output

    @property
    def label(self) -> str:
        return ",".join(map(str, self.ks)) + "/" + ",".join(map(str, self.ms))

    @property
    def treatments(self) -> list[tuple[int, ...]]:
        return list(product(*(range(1, k + 1) for k in self.ks)))

    @property
    def outcomes(self) -> list[tuple[int, ...]]:
        return list(product(*(range(1, m + 1) for m in self.ms)))

    @property
    def offsets(self) -> tuple[int, ...]:
        return tuple(sum(self.ks[:i]) for i in range(len(self.ks)))

    @property
    def slot_sizes(self) -> tuple[int, ...]:
        return tuple(m for k, m in zip(self.ks, self.ms) for _ in range(k))

    @property
    def columns(self) -> int:
        return prod(m**k for k, m in zip(self.ks, self.ms))

    @property
    def rows(self) -> int:
        return len(self.treatments) * prod(self.ms)


Table = dict[tuple[int, ...], Fraction]


@dataclass
class Case:
    """One dataset file of a workload and the verdict it must get."""

    name: str
    design: Design
    tables: dict[tuple[int, ...], Table]
    classical: bool
    why: str
    path: str = field(default="")


def project(assignment, treatment, offsets) -> tuple[int, ...]:
    """Outcome tuple a deterministic assignment produces under a treatment."""
    return tuple(assignment[off + w - 1] for off, w in zip(offsets, treatment))


def tables_from_atoms(design: Design, atoms) -> dict[tuple[int, ...], Table]:
    """Forward-simulate a hidden-variable model given as (weight, assignment)."""
    offsets = design.offsets
    tables = {}
    for tr in design.treatments:
        row: Table = {}
        for weight, assignment in atoms:
            key = project(assignment, tr, offsets)
            row[key] = row.get(key, 0) + weight
        tables[tr] = row
    return tables


def mix(weight: Fraction, a, b):
    """weight * a + (1 - weight) * b, table by table."""
    out = {}
    for tr in a:
        row: Table = {}
        for key in set(a[tr]) | set(b[tr]):
            v = weight * a[tr].get(key, 0) + (1 - weight) * b[tr].get(key, 0)
            if v:
                row[key] = v
        out[tr] = row
    return out


def random_atoms(rng: random.Random, design: Design, count: int | None):
    """Random rational hidden-variable model.

    count=None draws each assignment with probability 1/2 (dense support);
    otherwise `count` distinct assignments.  Weights are integers 1..20,
    normalized.
    """
    sizes = design.slot_sizes
    if count is None:
        chosen = [a for a in product(*(range(1, m + 1) for m in sizes)) if rng.random() < 0.5]
    else:
        picked: set = set()
        while len(picked) < min(count, design.columns):
            picked.add(tuple(rng.randint(1, m) for m in sizes))
        chosen = sorted(picked)
    weights = [rng.randint(1, 20) for _ in chosen]
    total = sum(weights)
    return [(Fraction(w, total), a) for w, a in zip(weights, chosen)]


def uniform_tables(design: Design):
    """Tables of the uniform distribution over all assignments."""
    p = Fraction(1, prod(design.ms))
    return {tr: {o: p for o in design.outcomes} for tr in design.treatments}


def lifted_prbox(design: Design):
    """The PR box on values 1, 2 of inputs 1 and 2 and outcomes 1, 2.

    Values above 2 behave as value 2, outcomes above 2 and every further
    output's outcomes above 1 get zero mass.  All marginals are uniform on
    outcomes 1, 2, so marginal selectivity holds.
    """
    rest = (1,) * (len(design.ms) - 2)
    tables = {}
    for tr in design.treatments:
        flip = tr[0] >= 2 and tr[1] >= 2
        tables[tr] = {
            (a, b) + rest: HALF for a in (1, 2) for b in (1, 2) if (a != b) == flip
        }
    return tables


def chsh_values(tables) -> list[Fraction]:
    """The four CHSH sums on values 1, 2 of inputs 1 and 2.

    Outputs are coarse-grained to +1 (outcome 1) and -1 (any other outcome);
    further inputs are held at value 1.  A classical dataset keeps every
    |sum| at most 2; on the 2x2 binary design with marginal selectivity the
    converse holds too (Fine's theorem).
    """
    outer = (1,) * (len(next(iter(tables))) - 2)
    corr = {}
    for i, j in product((1, 2), repeat=2):
        e = Fraction(0)
        for outcome, p in tables[(i, j) + outer].items():
            e += p if (outcome[0] == 1) == (outcome[1] == 1) else -p
        corr[(i, j)] = e
    total = sum(corr.values())
    return [total - 2 * corr[flip] for flip in sorted(corr)]


def is_chsh_classical(tables) -> bool:
    return all(abs(s) <= 2 for s in chsh_values(tables))


def classical_case(rng, design, count, tag) -> Case:
    atoms = random_atoms(rng, design, count)
    return Case(
        f"{design.label}-{tag}",
        design,
        tables_from_atoms(design, atoms),
        True,
        f"explicit {len(atoms)}-atom hidden-variable model",
    )


def full_support_tables(rng, design):
    """Half the uniform model over every assignment, half a dense random one:
    an explicit hidden-variable model whose tables have no zero entry."""
    dense = tables_from_atoms(design, random_atoms(rng, design, None))
    return mix(HALF, uniform_tables(design), dense)


def full_case(rng, design, tag) -> Case:
    why = "explicit full-support hidden-variable model (uniform + dense random)"
    return Case(f"{design.label}-{tag}", design, full_support_tables(rng, design), True, why)


def prbox_case(design: Design) -> Case:
    tables = lifted_prbox(design)
    return Case(f"{design.label}-prbox", design, tables, False, _chsh_reason(tables))


def mixture_case(rng, design, tag) -> Case:
    """3/4 lifted PR box + 1/4 full-support classical: no zero entry, so
    presolve removes nothing, and CHSH >= 3 - 1/2 > 2."""
    tables = mix(Fraction(3, 4), lifted_prbox(design), full_support_tables(rng, design))
    return Case(f"{design.label}-{tag}", design, tables, False, _chsh_reason(tables))


def _chsh_reason(tables) -> str:
    worst = max(abs(s) for s in chsh_values(tables))
    if worst <= 2:
        raise RuntimeError("dataset meant to be non-classical keeps CHSH <= 2")
    return f"CHSH value {float(worst):.4f} > 2"


def no_signalling_case(rng, index: int) -> Case:
    """Random 2x2 binary table inside the no-signalling polytope.

    Marginals a_i = P(A1=1 | i), b_j = P(A2=1 | j) and each p11 lie on a grid
    of 1/24 inside their Frechet bounds, so marginal selectivity holds
    exactly.  Even indices are drawn until the CHSH values say classical, odd
    ones lean toward the PR-box corner and are drawn until they say not
    classical, so every pass holds the same mix.
    """
    design = Design((2, 2), (2, 2))
    den = 24
    want_classical = index % 2 == 0
    while True:
        lo_m, hi_m = (1, den - 1) if want_classical else (den // 3, 2 * den // 3)
        a = {i: Fraction(rng.randint(lo_m, hi_m), den) for i in (1, 2)}
        b = {j: Fraction(rng.randint(lo_m, hi_m), den) for j in (1, 2)}
        tables = {}
        for i, j in design.treatments:
            lo = max(Fraction(0), a[i] + b[j] - 1)
            hi = min(a[i], b[j])
            t = Fraction(rng.randint(0, den), den)
            if not want_classical:
                t = t / 4 if (i, j) == (2, 2) else 1 - t / 4
            tables[(i, j)] = _binary_table(lo + (hi - lo) * t, a[i], b[j])
        if is_chsh_classical(tables) == want_classical:
            break
    worst = max(abs(s) for s in chsh_values(tables))
    return Case(
        f"2,2/2,2-ns{index:02d}",
        design,
        tables,
        want_classical,
        f"Fine's theorem: largest |CHSH| {float(worst):.4f}",
    )


def _binary_table(p11, a, b) -> Table:
    return {
        k: v
        for k, v in {(1, 1): p11, (1, 2): a - p11, (2, 1): b - p11, (2, 2): 1 - a - b + p11}.items()
        if v
    }


def singlet_case(index: int, angles, digits: int = 12) -> Case:
    """Two spin-1/2 particles: p(k, l | i, j) = (1 + s_k s_l E_ij) / 4 with
    E_ij = -cos(a_i - b_j) rounded to `digits` decimals, so every marginal
    is exactly 1/2.  Angles are multiples of pi/8."""
    design = Design((2, 2), (2, 2))
    scale = 10**digits
    tables = {}
    for i, j in design.treatments:
        e = -math.cos((angles[i - 1] - angles[1 + j]) * math.pi / 8)
        e = Fraction(round(e * scale), scale)
        tables[(i, j)] = {
            (k, l): v
            for k in (1, 2)
            for l in (1, 2)
            if (v := (1 + (e if k == l else -e)) / 4)
        }
    classical = is_chsh_classical(tables)
    worst = max(abs(s) for s in chsh_values(tables))
    why = f"angles {angles} x pi/8; Fine's theorem: largest |CHSH| {float(worst):.4f}"
    return Case(f"singlet-{index}", design, tables, classical, why)


def double_detection_case(rng, index: int) -> Case:
    """Two areas, two intensities, Yes (1) / No (2).

    With weight theta one uniform U drives every response (A_{area,w} = Yes
    iff U < rate); otherwise each area has its own uniform.  The atoms of
    that model are listed explicitly, so the ground truth is a
    hidden-variable model, not a formula.
    """
    design = Design((2, 2), (2, 2))
    rates = [[Fraction(rng.randint(1, 11), 12) for _ in range(2)] for _ in range(2)]
    theta = Fraction(rng.randint(0, 6), 6)

    def threshold_atoms(thresholds):
        """(weight, responses) for one uniform U against these thresholds."""
        cuts = sorted(set([Fraction(0), Fraction(1), *thresholds]))
        return [
            (hi - lo, tuple(1 if lo < r else 2 for r in thresholds))
            for lo, hi in zip(cuts, cuts[1:])
        ]

    atoms = []
    for w, resp in threshold_atoms(rates[0] + rates[1]):
        atoms.append((theta * w, resp))
    for (w1, r1), (w2, r2) in product(threshold_atoms(rates[0]), threshold_atoms(rates[1])):
        atoms.append(((1 - theta) * w1 * w2, r1 + r2))
    atoms = [(w, a) for w, a in atoms if w]
    return Case(
        f"double-detection-{index}",
        design,
        tables_from_atoms(design, atoms),
        True,
        "explicit common-cause / independent hidden-variable model",
    )


def ghz_case() -> Case:
    """Three-particle GHZ table: X (value 1) or Y (value 2) per particle,
    outcome 1 = +1, 2 = -1.  XXX has product +1, each setting with two Y's
    product -1, the rest uniform.  No deterministic assignment satisfies the
    four parity constraints (their product is +1 on the left, -1 on the
    right), and they hold with probability 1, so no classical model exists."""
    design = Design((2, 2, 2), (2, 2, 2))
    sign = {1: 1, 2: -1}
    tables = {}
    for tr in design.treatments:
        ys = tr.count(2)
        if ys in (0, 2):
            parity = 1 if ys == 0 else -1
            tables[tr] = {
                o: Fraction(1, 4) for o in design.outcomes if prod(sign[a] for a in o) == parity
            }
        else:
            tables[tr] = {o: Fraction(1, 8) for o in design.outcomes}
    for x1, x2, x3, y1, y2, y3 in product((1, -1), repeat=6):
        if x1 * x2 * x3 == 1 and x1 * y2 * y3 == -1 and y1 * x2 * y3 == -1 and y1 * y2 * x3 == -1:
            raise RuntimeError("GHZ constraints admit a deterministic assignment")
    return Case("ghz", design, tables, False, "GHZ parity constraints have no assignment")


def _d(ks, ms) -> Design:
    return Design(tuple(ks), tuple(ms))


PIVOT = [_d((2, 2), (3, 3)), _d((3, 3), (2, 2)), _d((4, 4), (2, 2))]
# Full-support / mixture pairs per design.  One 4,4/2,2 dataset's pivot
# count varies by 11-13% (sd) from seed to seed; twelve pairs bring the
# design's total within about 3%.
PIVOT_PAIRS = dict(zip(PIVOT, (4, 8, 12)))
PRESOLVE = [
    _d((2, 2), (2, 2)),
    _d((3, 3), (3, 3)),
    _d((2, 2, 2), (3, 3, 3)),
    _d((3, 3), (4, 4)),
    _d((4, 4), (3, 3)),
]


def workload_cases(name: str, seed: int) -> list[Case]:
    """The list of requests one pass of a workload sends, in order.

    The pivot count of one random full-support dataset varies by 11-13% (sd)
    from seed to seed, so lft-pivot spreads its time over 24 datasets of its
    largest design; 3,3/3,3 and larger would take 2 to 50 s per request.
    Its two 2,2/2,2 datasets keep the Fine battery on the request path.  The
    datasets of the small designs are sent several times per pass, and each
    design's datasets are spread evenly over the pass, so every one is timed
    at different moments and the median request falls inside one large group
    of similar requests, not on the edge between two groups.
    """
    rng = random.Random(f"{name}:{seed}")
    if name == "lft-pivot":
        square = _d((2, 2), (2, 2))
        groups = [[full_case(rng, square, "full"), mixture_case(rng, square, "mixture")]]
        for design in PIVOT:
            group = []
            for i in range(PIVOT_PAIRS[design]):
                group.append(full_case(rng, design, f"full{i}"))
                group.append(mixture_case(rng, design, f"mixture{i}"))
            groups.append(group)
        return _spread(groups, short=3, repeats=3)
    if name == "lft-presolve":
        groups = [
            [prbox_case(design)] + [classical_case(rng, design, 3, f"few{i}") for i in range(3)]
            for design in PRESOLVE
        ]
        return _spread(groups, short=3, repeats=4)
    if name == "battery-sweep":
        cases = [no_signalling_case(rng, i) for i in range(16)]
        grid = [rng.sample(range(8), 2) + rng.sample(range(8), 2) for _ in range(7)]
        cases += [singlet_case(i, angles) for i, angles in enumerate([[0, 4, 2, 6]] + grid)]
        cases += [double_detection_case(rng, i) for i in range(4)]
        cases.append(ghz_case())
        cases += [classical_case(rng, _d((2, 2, 2), (2, 2, 2)), 6, f"c{i}") for i in range(6)]
        return cases
    raise ValueError(f"unknown workload {name!r}")


def _spread(groups: list[list[Case]], short: int, repeats: int) -> list[Case]:
    """One list from per-design groups: the first `short` groups sent
    `repeats` times, entry i of a group of n placed at (i + 1/2) / n of the
    pass."""
    placed = []
    for g, group in enumerate(groups):
        if g < short:
            group = group * repeats
        placed += [((i + 0.5) / len(group), g, case) for i, case in enumerate(group)]
    return [case for _, _, case in sorted(placed, key=lambda p: p[:2])]


def distinct(cases: list[Case]) -> list[Case]:
    return list({case.name: case for case in cases}.values())


def largest_design(cases: list[Case]) -> Design:
    return max((c.design for c in cases), key=lambda d: (d.columns, d.rows))


def to_json_dict(case: Case) -> dict:
    design = case.design
    return {
        "inputs": [
            {"label": f"x{n}", "values": [str(w) for w in range(1, k + 1)]}
            for n, k in enumerate(design.ks, start=1)
        ],
        "outputs": [
            {"label": f"A{n}", "values": [str(a) for a in range(1, m + 1)]}
            for n, m in enumerate(design.ms, start=1)
        ],
        "treatments": [
            {
                "treatment": list(tr),
                "probabilities": {
                    ",".join(map(str, o)): f"{p.numerator}/{p.denominator}"
                    for o, p in sorted(case.tables[tr].items())
                },
            }
            for tr in design.treatments
        ],
    }


def write_cases(cases: list[Case], directory: str) -> None:
    os.makedirs(directory, exist_ok=True)
    for case in cases:
        case.path = os.path.join(directory, case.name.replace("/", "_") + ".json")
        with open(case.path, "w", encoding="utf-8") as fh:
            json.dump(to_json_dict(case), fh)
