"""Correlation-based cosphericity test for 2-input, 2-value designs.

Four correlations, one per treatment, must be realizable as cosines of
angles between four unit vectors on a 3D sphere:

    |r11*r12 - r21*r22| <= sqrt(1-r11^2)*sqrt(1-r12^2) + sqrt(1-r21^2)*sqrt(1-r22^2)

This is the only floating-point test in the package (the square roots rule
out exact rationals); borderline cases within the tolerance are flagged as
"marginal".  The verdict depends on the numeric coding of outcomes, so a
nonlinear input-value-specific recoding can legitimately change it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

from .experiment import Dataset, parse_index

DEFAULT_TOL = 1e-9


@dataclass(frozen=True)
class CorrelationQuad:
    """Correlations r[value of input 1][value of input 2] under the four
    treatments of a 2x2 design."""

    r11: float
    r12: float
    r21: float
    r22: float

    def __post_init__(self):
        for name in ("r11", "r12", "r21", "r22"):
            v = getattr(self, name)
            if not math.isfinite(v) or abs(v) > 1 + 1e-9:
                raise ValueError(f"correlation {name} = {v} outside [-1, 1]")

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.r11, self.r12, self.r21, self.r22)


def _coding(design, value_map, lam: int, w: int) -> dict[int, float]:
    m = design.outcome_sizes[lam - 1]
    mp = None if value_map is None else value_map.get((lam, w), value_map.get(lam))
    if mp is None:
        return {a: float(a) for a in range(1, m + 1)}
    # keys read as indices: an integral string or number names its outcome
    coded = {parse_index(a): float(x) for a, x in mp.items()}
    if len(coded) != len(mp) or set(coded) != set(range(1, m + 1)):
        raise ValueError(f"value map for output {lam} (value {w}) must name each of 1..{m} once")
    return coded


def correlations_from_dataset(
    dataset: Dataset, value_map: Mapping | None = None
) -> CorrelationQuad:
    """Pearson correlations of the numerically coded outputs under each of the
    four treatments of a 2-input, 2-value design.

    `value_map` may map an input position, or an (input position, value
    index) pair, to an outcome -> real coding; the default codes outcomes by
    their index.  A zero-variance output under some treatment is an error
    naming the degenerate (treatment, output).
    """
    design = dataset.design
    if not design.is_2x2:
        raise ValueError("correlation quad needs a 2-input, 2-value full factorial design")
    if any(m < 2 for m in design.outcome_sizes):
        raise ValueError("both outputs need at least two outcomes")

    rho = {}
    for i in (1, 2):
        for j in (1, 2):
            tr = (i, j)
            f1 = _coding(design, value_map, 1, i)
            f2 = _coding(design, value_map, 2, j)
            ex = ey = exy = exx = eyy = 0.0
            for outcome, p in dataset.table(tr).items():
                w = float(p)
                x = f1[outcome[0]]
                y = f2[outcome[1]]
                ex += w * x
                ey += w * y
                exy += w * x * y
                exx += w * x * x
                eyy += w * y * y
            var_x = exx - ex * ex
            var_y = eyy - ey * ey
            if var_x <= 0:
                raise ValueError(f"zero variance for output 1 under treatment {tr}")
            if var_y <= 0:
                raise ValueError(f"zero variance for output 2 under treatment {tr}")
            rho[(i, j)] = (exy - ex * ey) / math.sqrt(var_x * var_y)
    return CorrelationQuad(rho[(1, 1)], rho[(1, 2)], rho[(2, 1)], rho[(2, 2)])


@dataclass(frozen=True)
class CosphericityResult:
    lhs: float
    rhs: float
    slack: float
    tol: float
    verdict: str  # "pass" | "marginal" | "fail"

    @property
    def passed(self) -> bool:
        return self.verdict != "fail"


def cosphericity_test(quad: CorrelationQuad, tol: float = DEFAULT_TOL) -> CosphericityResult:
    """Can four unit vectors on a 3D sphere have these pairwise cosines
    across the bipartition?  Pass iff slack = RHS - LHS >= -tol; |slack| <=
    tol is flagged "marginal".  A NaN, infinite or negative tol raises
    ValueError."""
    if not (math.isfinite(tol) and tol >= 0):
        raise ValueError(f"cosphericity tolerance must be finite and nonnegative, got {tol}")
    r11, r12, r21, r22 = quad.as_tuple()

    def c(r: float) -> float:
        return math.sqrt(max(0.0, 1.0 - r * r))

    lhs = abs(r11 * r12 - r21 * r22)
    rhs = c(r11) * c(r12) + c(r21) * c(r22)
    slack = rhs - lhs
    if slack < -tol:
        verdict = "fail"
    elif slack <= tol:
        verdict = "marginal"
    else:
        verdict = "pass"
    return CosphericityResult(lhs, rhs, slack, tol, verdict)
