import math
import random
from fractions import Fraction

import pytest

from selinf.cosphericity import (
    CorrelationQuad,
    correlations_from_dataset,
    cosphericity_test,
)
from selinf.experiment import Dataset, make_design
from selinf.generators import AngleSpec, gen_classical, gen_prbox, gen_singlet

F = Fraction


def unit_vector(rng: random.Random):
    while True:
        v = (rng.gauss(0, 1), rng.gauss(0, 1), rng.gauss(0, 1))
        norm = math.sqrt(sum(c * c for c in v))
        if norm > 1e-9:
            return tuple(c / norm for c in v)


def dot(u, v):
    return sum(a * b for a, b in zip(u, v))


class TestQuadConstruction:
    def test_prbox_signed_coding(self):
        quad = correlations_from_dataset(
            gen_prbox(), {1: {1: 1.0, 2: -1.0}, 2: {1: 1.0, 2: -1.0}}
        )
        assert quad.as_tuple() == pytest.approx((1.0, 1.0, 1.0, -1.0))

    def test_independent_uniform_is_zero(self):
        design = make_design((2, 2), (2, 2))
        table = {(a, b): F(1, 4) for a in (1, 2) for b in (1, 2)}
        ds = Dataset(design, {tr: dict(table) for tr in design.treatments})
        quad = correlations_from_dataset(ds)
        assert quad.as_tuple() == pytest.approx((0.0, 0.0, 0.0, 0.0), abs=1e-12)

    def test_singlet_quad(self):
        ds = gen_singlet(AngleSpec(((F(0), F(1, 2)), (F(1, 4), F(3, 4)))), 12)
        quad = correlations_from_dataset(ds, {1: {1: 1.0, 2: -1.0}, 2: {1: 1.0, 2: -1.0}})
        h = math.sqrt(2) / 2
        assert quad.as_tuple() == pytest.approx((-h, h, -h, -h), abs=1e-9)

    def test_zero_variance_names_culprit(self):
        design = make_design((2, 2), (2, 2))
        point = {(1, 1): F(1)}
        mixed = {(1, 1): F(1, 2), (2, 2): F(1, 2)}
        ds = Dataset(design, {(1, 1): point, (1, 2): mixed, (2, 1): mixed, (2, 2): mixed})
        with pytest.raises(ValueError, match=r"output 1 under treatment \(1, 1\)"):
            correlations_from_dataset(ds)

    def test_wrong_shape_rejected(self):
        ds, _ = gen_classical(make_design((2, 2, 2), (2, 2, 2)), seed=0)
        with pytest.raises(ValueError, match="2-input"):
            correlations_from_dataset(ds)

    @pytest.mark.parametrize(
        "coding, match",
        [
            ({1.9: 0.0, 2: 1.0}, "not an integer"),
            ({True: 0.0, 2: 1.0}, "not an integer"),
            ({1: 0.0, "1": 5.0, 2: 1.0}, "each of 1..2 once"),
            ({1: 0.0}, "each of 1..2 once"),
        ],
    )
    def test_value_map_keys_are_read_as_indices(self, coding, match):
        with pytest.raises(ValueError, match=match):
            correlations_from_dataset(gen_prbox(), {1: coding})

    def test_value_map_keys_may_be_integral_strings_and_numbers(self):
        signed = {1: {1: 1.0, 2: -1.0}, 2: {1: 1.0, 2: -1.0}}
        spelled = {1: {"1": 1.0, 2.0: -1.0}, 2: {"1": 1.0, "2": -1.0}}
        assert correlations_from_dataset(gen_prbox(), spelled) == correlations_from_dataset(
            gen_prbox(), signed
        )

    def test_default_coding_is_outcome_index(self):
        design = make_design((2, 2), (2, 2))
        mixed = {(1, 1): F(1, 2), (2, 2): F(1, 2)}
        ds = Dataset(design, {tr: dict(mixed) for tr in design.treatments})
        quad = correlations_from_dataset(ds)
        assert quad.as_tuple() == pytest.approx((1.0, 1.0, 1.0, 1.0))


class TestCosphericityTest:
    def test_all_zero_passes(self):
        res = cosphericity_test(CorrelationQuad(0, 0, 0, 0))
        assert res.lhs == 0 and res.rhs == pytest.approx(2.0)
        assert res.verdict == "pass"

    def test_degenerate_quad_fails(self):
        res = cosphericity_test(CorrelationQuad(1, 1, 1, -1))
        assert res.lhs == pytest.approx(2.0) and res.rhs == pytest.approx(0.0)
        assert res.verdict == "fail"

    def test_boundary_is_marginal(self):
        res = cosphericity_test(CorrelationQuad(1, 1, 1, 1))
        assert res.verdict == "marginal"
        assert res.passed

    def test_out_of_range_correlation_rejected(self):
        with pytest.raises(ValueError, match="outside"):
            CorrelationQuad(1.5, 0, 0, 0)

    def test_bad_tolerance_rejected(self):
        # NaN turns every comparison false and inf makes every quad "marginal",
        # so either would flip the PR box's fail into a pass
        quad = CorrelationQuad(1, 1, 1, -1)
        for tol in (math.nan, math.inf, -math.inf, -1e-9):
            with pytest.raises(ValueError, match="tolerance"):
                cosphericity_test(quad, tol=tol)
        assert cosphericity_test(quad, tol=0).verdict == "fail"

    def test_geometric_necessity_fuzz(self):
        rng = random.Random(424242)
        for _ in range(2000):
            u1, u2 = unit_vector(rng), unit_vector(rng)
            v1, v2 = unit_vector(rng), unit_vector(rng)
            quad = CorrelationQuad(dot(u1, v1), dot(u1, v2), dot(u2, v1), dot(u2, v2))
            assert cosphericity_test(quad, tol=1e-9).passed

    def test_classical_necessity_any_coding(self):
        rng = random.Random(5150)
        design = make_design((2, 2), (3, 3))
        count = 0
        while count < 30:
            ds, _ = gen_classical(design, seed=rng.randrange(10**9))
            coding = {
                lam: {a: rng.uniform(-5, 5) for a in (1, 2, 3)} for lam in (1, 2)
            }
            try:
                quad = correlations_from_dataset(ds, coding)
            except ValueError:
                continue  # degenerate variance; not this test's concern
            assert cosphericity_test(quad, tol=1e-9).passed
            count += 1


class TestCodingSensitivity:
    # pinned pair: the same dataset fails under outcome-index coding and
    # passes when outcome 3 is pushed out nonlinearly
    DATASET = Dataset(
        make_design((2, 2), (3, 3)),
        {
            (1, 1): {(1, 1): F(5, 12), (2, 2): F(1, 4), (2, 3): F(1, 6), (3, 3): F(1, 6)},
            (1, 2): {(1, 1): F(7, 17), (2, 2): F(3, 17), (3, 2): F(2, 17), (3, 3): F(5, 17)},
            (2, 1): {(1, 1): F(4, 9), (2, 2): F(5, 18), (2, 3): F(1, 9), (3, 3): F(1, 6)},
            (2, 2): {(1, 3): F(1, 6), (2, 1): F(1, 12), (2, 2): F(1, 2), (3, 1): F(1, 4)},
        },
    )

    def test_verdict_flips_under_nonlinear_recoding(self):
        index_quad = correlations_from_dataset(self.DATASET)
        assert cosphericity_test(index_quad).verdict == "fail"
        stretched = {1: {1: 1.0, 2: 2.0, 3: 10.0}, 2: {1: 1.0, 2: 2.0, 3: 10.0}}
        alt_quad = correlations_from_dataset(self.DATASET, stretched)
        assert cosphericity_test(alt_quad).verdict == "pass"
