"""Benchmark dataset generators with known ground truth.

Classical mixtures (built from an explicit hidden-variable distribution, so
every test must pass), the PR box and the GHZ table (no classical
explanation), a two-particle singlet at arbitrary measurement angles
(rationalized to a stated precision), and a classical double-detection
family.
"""
from __future__ import annotations

import math
import random
import sys
from itertools import product
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from .experiment import Dataset, ExperimentDesign, Input, Output, ZERO, coerce_prob, make_design
from .errors import SizeGuardError
from .lft import COLUMN_GUARD, QVector, construct_si2, q_length

HALF = Fraction(1, 2)


@dataclass(frozen=True)
class AngleSpec:
    """Measurement angles per input value, as exact rational multiples of pi."""

    per_input: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        object.__setattr__(
            self,
            "per_input",
            tuple(tuple(Fraction(a) for a in angles) for angles in self.per_input),
        )
        if not self.per_input or any(not angles for angles in self.per_input):
            raise ValueError("each input needs at least one angle")

    def radians(self, lam: int, w: int) -> float:
        return float(self.per_input[lam - 1][w - 1]) * math.pi


def parse_angle(token: str) -> Fraction:
    """Parse an angle token into a rational multiple of pi.

    Accepts "pi/2", "3pi/4", "-pi", "0", and bare rationals (interpreted as
    multiples of pi, so "1/4" means pi/4).
    """
    token = token.strip().lower()
    if not token:
        raise ValueError("empty angle")
    if "pi" in token:
        token = token.replace("pi", "")
        if token in ("", "+"):
            token = "1"
        elif token == "-":
            token = "-1"
        elif token.startswith("/"):
            token = "1" + token
        elif token.startswith("-/"):
            token = "-1" + token[1:]
        elif token.endswith("*"):
            token = token[:-1]
        token = token.replace("*", "")
    try:
        return Fraction(token)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"malformed angle {token!r}") from None


def gen_classical(
    design: ExperimentDesign,
    q: QVector | Sequence | None = None,
    seed: int | None = None,
    max_support: int | None = None,
    weight_bound: int = 20,
) -> tuple[Dataset, QVector]:
    """Dataset with an explicit hidden-variable ground truth.

    Either pass a normalized Q over assignments (read by `coerce_prob`), or
    a seed to draw a random rational Q with bounded denominators (optionally
    bounding the support size).  Returns the dataset together with the
    generating Q.  Refuses designs with more than `COLUMN_GUARD` assignments.
    """
    qlen = q_length(design)
    if qlen > COLUMN_GUARD:
        raise SizeGuardError(
            f"assignment space has {qlen} assignments, over the guard {COLUMN_GUARD}"
        )
    if q is None:
        rng = random.Random(seed)
        weights = [0] * qlen
        if max_support is not None:
            support = rng.sample(range(qlen), min(max_support, qlen))
        else:
            support = [i for i in range(qlen) if rng.random() < 0.5]
        if not support:
            support = [rng.randrange(qlen)]
        for i in support:
            weights[i] = rng.randint(1, weight_bound)
        total = sum(weights)
        q = QVector(design, tuple(Fraction(w, total) for w in weights))
    elif not isinstance(q, QVector):
        q = QVector(design, q)
    return construct_si2(q, design).simulate(), q


def gen_prbox() -> Dataset:
    """The maximally nonlocal no-signaling box on the 2x2 binary design:
    perfectly equal outcomes except under treatment (2, 2), where they are
    perfectly unequal.  All single marginals are 1/2."""
    design = make_design((2, 2), (2, 2))
    equal = {(1, 1): HALF, (2, 2): HALF}
    unequal = {(1, 2): HALF, (2, 1): HALF}
    tables = {
        (1, 1): dict(equal),
        (1, 2): dict(equal),
        (2, 1): dict(equal),
        (2, 2): dict(unequal),
    }
    return Dataset(design, tables)


def _round_fraction(x: float, digits: int) -> Fraction:
    scale = 10**digits
    return Fraction(round(x * scale), scale)


def gen_singlet(angles: AngleSpec | Sequence, precision: int = 12) -> Dataset:
    """Two spin-1/2 particles from a common source, two measurement axes per
    side: p(k, l | i, j) = (1 + s_k s_l E_ij) / 4 with s_1 = +1, s_2 = -1 and
    E_ij = -cos(a_i - b_j).

    Each probability is rounded to `precision` decimal digits and the table
    rebuilt around averaged margins, so marginal selectivity holds exactly
    after rationalization.  Precision below 6 digits is rejected, and so is
    precision above `sys.float_info.max_10_exp` (308), where 10**precision
    overflows a float.
    """
    if precision < 6:
        raise ValueError("precision below 6 digits makes verdicts unreliable")
    if precision > sys.float_info.max_10_exp:
        raise ValueError(
            f"precision above {sys.float_info.max_10_exp} digits overflows a float"
        )
    if not isinstance(angles, AngleSpec):
        angles = AngleSpec(tuple(tuple(a) for a in angles))
    if len(angles.per_input) != 2 or any(len(a) != 2 for a in angles.per_input):
        raise ValueError("singlet needs two inputs with two angles each")

    design = make_design((2, 2), (2, 2))
    sign = {1: 1, 2: -1}

    rounded: dict[tuple[int, int], dict[tuple[int, int], Fraction]] = {}
    for i in (1, 2):
        for j in (1, 2):
            e = -math.cos(angles.radians(1, i) - angles.radians(2, j))
            table = {
                (k, l): _round_fraction((1 + sign[k] * sign[l] * e) / 4, precision)
                for k in (1, 2)
                for l in (1, 2)
            }
            total = sum(table.values())
            rounded[(i, j)] = {kl: p / total for kl, p in table.items()}

    # averaged margins keep marginal selectivity exact after rounding
    row_marg = {
        i: sum(rounded[(i, j)][(1, 1)] + rounded[(i, j)][(1, 2)] for j in (1, 2)) / 2
        for i in (1, 2)
    }
    col_marg = {
        j: sum(rounded[(i, j)][(1, 1)] + rounded[(i, j)][(2, 1)] for i in (1, 2)) / 2
        for j in (1, 2)
    }

    tables = {}
    for i in (1, 2):
        for j in (1, 2):
            r, c = row_marg[i], col_marg[j]
            lo = max(ZERO, r + c - 1)
            hi = min(r, c)
            p11 = min(max(rounded[(i, j)][(1, 1)], lo), hi)
            tables[(i, j)] = {
                (1, 1): p11,
                (1, 2): r - p11,
                (2, 1): c - p11,
                (2, 2): 1 - r - c + p11,
            }
    return Dataset(design, tables)


# Exact fixture for the three-particle parity experiment: inputs choose the
# X (value 1) or Y (value 2) measurement; outcome 1 codes +1, outcome 2 codes
# -1.  With zero Y's the outcome product is +1, with two Y's it is -1 (mass
# 1/4 on each consistent triple); the remaining settings are uniform (1/8).
def gen_ghz() -> Dataset:
    inputs = tuple(Input(f"alpha{lam}", ("X", "Y")) for lam in (1, 2, 3))
    outputs = tuple(Output(f"A{lam}", ("1", "2")) for lam in (1, 2, 3))
    treatments = tuple(product((1, 2), repeat=3))
    design = ExperimentDesign(inputs, outputs, treatments)

    quarter = Fraction(1, 4)
    eighth = Fraction(1, 8)
    sign = {1: 1, 2: -1}
    tables = {}
    for tr in treatments:
        n_y = sum(1 for v in tr if v == 2)
        if n_y in (0, 2):
            parity = 1 if n_y == 0 else -1
            tables[tr] = {
                out: quarter
                for out in product((1, 2), repeat=3)
                if sign[out[0]] * sign[out[1]] * sign[out[2]] == parity
            }
        else:
            tables[tr] = {out: eighth for out in product((1, 2), repeat=3)}
    return Dataset(design, tables)


def gen_double_detection(
    hit_rates: Sequence[Sequence] | Mapping[tuple[int, int], Fraction],
    coupling,
) -> Dataset:
    """Two observation areas, two intensities each, Yes/No responses.

    `hit_rates[(area, intensity)]` is the exact probability of Yes.  The
    joint under each treatment mixes the comonotone coupling of the two
    Bernoulli responses (weight `coupling`) with the independent one, so the
    construction is classical for every coupling in [0, 1].  The rates and
    the coupling are read by `coerce_prob`.
    """
    if not isinstance(hit_rates, Mapping):
        hit_rates = {(a, i): hit_rates[a - 1][i - 1] for a in (1, 2) for i in (1, 2)}
    rates = {k: coerce_prob(v) for k, v in hit_rates.items()}
    for key in ((1, 1), (1, 2), (2, 1), (2, 2)):
        if key not in rates:
            raise ValueError(f"missing hit rate for (area, intensity) {key}")
        if not 0 <= rates[key] <= 1:
            raise ValueError(f"hit rate {rates[key]} for {key} outside [0, 1]")
    theta = coerce_prob(coupling)
    if not 0 <= theta <= 1:
        raise ValueError(f"coupling {theta} does not produce a valid joint")

    inputs = (Input("area1", ("1", "2")), Input("area2", ("1", "2")))
    outputs = (Output("A1", ("Yes", "No")), Output("A2", ("Yes", "No")))
    treatments = tuple(product((1, 2), repeat=2))
    design = ExperimentDesign(inputs, outputs, treatments)

    tables = {}
    for i, j in treatments:
        r1 = rates[(1, i)]
        r2 = rates[(2, j)]
        yy = theta * min(r1, r2) + (1 - theta) * r1 * r2
        tables[(i, j)] = {
            (1, 1): yy,
            (1, 2): r1 - yy,
            (2, 1): r2 - yy,
            (2, 2): 1 - r1 - r2 + yy,
        }
    return Dataset(design, tables)
