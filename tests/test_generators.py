import hashlib
import io
import math
import random
import re
from fractions import Fraction

import pytest

from selinf.distances import fine_inequalities
from selinf.errors import SizeGuardError
from selinf.experiment import check_marginal_selectivity, make_design, validate_dataset
from selinf.generators import (
    AngleSpec,
    gen_classical,
    gen_double_detection,
    gen_ghz,
    gen_prbox,
    gen_singlet,
    parse_angle,
)
from selinf.io import dump_dataset
from selinf.lft import COLUMN_GUARD, construct_si2, q_length, run_lft

F = Fraction


def singlet_sweep(seed=30, precisions=(6, 7, 9, 12)):
    """300 seeded singlet datasets: two random rational angles per side
    (multiples of pi in [-48, 48]) at a precision drawn from `precisions`."""
    rng = random.Random(seed)
    for _ in range(300):
        angles = tuple(tuple(F(rng.randint(-48, 48), rng.randint(1, 24)) for _ in range(2)) for _ in range(2))
        yield gen_singlet(angles, rng.choice(precisions))


class TestClassical:
    def test_point_mass_is_deterministic(self):
        design = make_design((2, 2), (2, 2))
        q = [F(0)] * q_length(design)
        q[0] = F(1)
        ds, qv = gen_classical(design, q=q)
        for tr in design.treatments:
            assert ds.table(tr) == {(1, 1): F(1)}

    def test_uniform_q_gives_uniform_tables(self):
        design = make_design((2, 2), (2, 2))
        n = q_length(design)
        ds, _ = gen_classical(design, q=[F(1, n)] * n)
        for tr in design.treatments:
            assert ds.table(tr) == {o: F(1, 4) for o in design.all_outcomes()}

    def test_seeded_random_q_passes_lft(self):
        design = make_design((2, 2), (2, 3))
        ds, q = gen_classical(design, seed=99)
        assert validate_dataset(ds).valid
        assert run_lft(ds).feasible

    def test_identical_seeds_identical_datasets(self):
        design = make_design((2, 2), (2, 2))
        a = gen_classical(design, seed=5)
        b = gen_classical(design, seed=5)
        assert a == b

    def test_size_guard(self):
        # 2**21 assignments: refused before the weight list is allocated
        design = make_design((7, 7, 7), (2, 2, 2))
        assert q_length(design) > COLUMN_GUARD
        with pytest.raises(SizeGuardError, match="2097152 assignments"):
            gen_classical(design, seed=0)

    def test_ground_truth_reproduces_dataset(self):
        design = make_design((2, 2), (2, 2))
        ds, q = gen_classical(design, seed=8)
        assert construct_si2(q, design).simulate() == ds


class TestPrBox:
    def test_marginals_all_half(self):
        pr = gen_prbox()
        for tr in pr.design.treatments:
            for lam in (1, 2):
                marg = {
                    a: sum(p for o, p in pr.table(tr).items() if o[lam - 1] == a)
                    for a in (1, 2)
                }
                assert marg == {1: F(1, 2), 2: F(1, 2)}

    def test_fine_value_plus_half(self):
        assert fine_inequalities(gen_prbox()).families()["p11|22"] == F(1, 2)

    def test_lft_infeasible(self):
        assert not run_lft(gen_prbox()).feasible


class TestSinglet:
    def test_equal_angles_perfect_anticorrelation(self):
        ds = gen_singlet(AngleSpec(((F(0), F(1, 3)), (F(0), F(1, 3)))), 12)
        assert ds.prob((1, 1), (1, 1)) == 0
        assert ds.prob((2, 2), (1, 1)) == 0

    def test_opposite_angles_perfect_correlation(self):
        ds = gen_singlet(AngleSpec(((F(0), F(1, 2)), (F(1), F(1, 2)))), 12)
        assert ds.prob((1, 1), (1, 1)) == F(1, 2)

    def test_optimal_angles_e_pattern(self):
        ds = gen_singlet(AngleSpec(((F(0), F(1, 2)), (F(1, 4), F(3, 4)))), 12)
        h = math.sqrt(2) / 2
        expected = {(1, 1): -h, (1, 2): h, (2, 1): -h, (2, 2): -h}
        for (i, j), e_want in expected.items():
            e = float(
                sum(p * (1 if o[0] == o[1] else -1) for o, p in ds.table((i, j)).items())
            )
            assert e == pytest.approx(e_want, abs=1e-11)

    def test_marginal_selectivity_exact_after_rounding(self):
        ds = gen_singlet(AngleSpec(((F(1, 7), F(2, 5)), (F(1, 3), F(5, 9)))), 7)
        assert validate_dataset(ds).valid
        assert check_marginal_selectivity(ds).passed

    def test_all_single_marginals_exactly_half(self):
        optimal = gen_singlet(AngleSpec(((F(0), F(1, 2)), (F(1, 4), F(3, 4)))), 12)
        for ds in (optimal, *singlet_sweep(), *singlet_sweep(31, (15, 16, 17, 20))):
            for tr in ds.design.treatments:
                for lam in (1, 2):
                    up = sum(p for o, p in ds.table(tr).items() if o[lam - 1] == 1)
                    assert up == F(1, 2)

    @pytest.mark.parametrize(
        "seed, precisions, pinned",
        [
            (30, (6, 7, 9, 12), "24db5f6eeba58e682ba89a77c27e11d7643589538a32a122ef535b31f244dae2"),
            # from about 15 digits on, a float's own error makes the rounded
            # pair miss 1/2 in some tables: these need the division by 2(a + b)
            (31, (15, 16, 17, 20), "496f5813dacfbc819534e56f4158b0776f368544c76f07ff34e5527e3e129d8b"),
        ],
        ids=["6-12-digits", "15-20-digits"],
    )
    def test_seeded_sweep_pinned(self, seed, precisions, pinned):
        # every dataset file byte for byte as the rounding-and-margin rebuild
        # wrote it before the closed form replaced it; each table is
        # symmetric under swapping both outcomes
        digest = hashlib.sha256()
        for ds in singlet_sweep(seed, precisions):
            for tr in ds.design.treatments:
                assert ds.prob(tr, (1, 1)) == ds.prob(tr, (2, 2))
                assert ds.prob(tr, (1, 2)) == ds.prob(tr, (2, 1))
            out = io.StringIO()
            dump_dataset(ds, out)
            digest.update(out.getvalue().encode())
        assert digest.hexdigest() == pinned

    def test_low_precision_rejected(self):
        with pytest.raises(ValueError, match="precision"):
            gen_singlet(AngleSpec(((F(0), F(1, 2)), (F(1, 4), F(3, 4)))), 5)

    def test_precision_past_float_range_rejected(self):
        # 10**309 does not fit a float; 308 digits still work
        angles = AngleSpec(((F(0), F(1, 2)), (F(1, 4), F(3, 4))))
        with pytest.raises(ValueError, match="precision above 308"):
            gen_singlet(angles, 309)
        assert gen_singlet(angles, 308).design.input_sizes == (2, 2)

    def test_angle_parsing(self):
        assert parse_angle("pi/2") == F(1, 2)
        assert parse_angle("3pi/4") == F(3, 4)
        assert parse_angle("-pi") == F(-1)
        assert parse_angle("0") == F(0)
        assert parse_angle("1/4") == F(1, 4)
        assert parse_angle("1e-1000pi") == F(1, 10**1000)
        for token, angle in (("2*pi/3", F(2, 3)), ("-pi/2", F(-1, 2)), ("+pi", F(1)), ("1/2pi", F(1, 2))):
            assert parse_angle(token) == angle
        # Fraction("1e-3000000") would build a 10-million-bit denominator,
        # and nothing but "/q" may follow "pi"
        for token in (
            "about tau", "1e-3000000", "1E+3000000pi", "-1e-1001",
            "3pi4", "pipi", "pi2", "2pi*", "pi*3",
        ):
            with pytest.raises(ValueError, match=re.escape(f"malformed angle {token!r}")):
                parse_angle(token)
        # AngleSpec reads each angle as parse_angle reads its number: its
        # Fractions pass unchanged, a huge exponent and a float are refused
        a = parse_angle("3pi/4")
        assert AngleSpec(((a, F(0)), (F(1, 4), 1))).per_input[0][0] is a
        with pytest.raises(ValueError, match="exponent"):
            AngleSpec((("1e-200000", F(1, 4)), (0, "1/2")))
        with pytest.raises(TypeError):
            AngleSpec(((0, 0.25), (0, "1/2")))


class TestGhz:
    def test_dimensions(self):
        g = gen_ghz()
        assert g.design.n == 3
        assert g.design.input_sizes == (2, 2, 2)
        assert g.design.outcome_sizes == (2, 2, 2)
        assert len(g.design.treatments) == 8

    def test_single_marginals_all_half(self):
        g = gen_ghz()
        for tr in g.design.treatments:
            for lam in (1, 2, 3):
                marg = {
                    a: sum(p for o, p in g.table(tr).items() if o[lam - 1] == a)
                    for a in (1, 2)
                }
                assert marg == {1: F(1, 2), 2: F(1, 2)}

    def test_parity_pattern(self):
        g = gen_ghz()
        sign = {1: 1, 2: -1}
        for tr in g.design.treatments:
            n_y = sum(1 for v in tr if v == 2)
            parities = {
                sign[o[0]] * sign[o[1]] * sign[o[2]] for o in g.table(tr)
            }
            if n_y == 0:
                assert parities == {1}
            elif n_y == 2:
                assert parities == {-1}
            else:
                assert parities == {1, -1}

    def test_validates_and_marginally_selective(self):
        g = gen_ghz()
        assert validate_dataset(g).valid
        assert check_marginal_selectivity(g).passed

    def test_lft_infeasible(self):
        assert not run_lft(gen_ghz()).feasible


class TestDoubleDetection:
    def test_zero_coupling_product_tables(self):
        rates = {(1, 1): F(9, 10), (1, 2): F(3, 5), (2, 1): F(4, 5), (2, 2): F(1, 2)}
        ds = gen_double_detection(rates, F(0))
        assert ds.prob((1, 2), (1, 1)) == F(9, 10) * F(1, 2)
        assert validate_dataset(ds).valid

    def test_all_ones_deterministic(self):
        ds = gen_double_detection([[1, 1], [1, 1]], F(1, 3))
        for tr in ds.design.treatments:
            assert ds.table(tr) == {(1, 1): F(1)}

    def test_any_valid_parameters_feasible(self):
        rng = random.Random(50)
        for _ in range(10):
            rates = {
                (a, i): F(rng.randint(0, 12), 12) for a in (1, 2) for i in (1, 2)
            }
            theta = F(rng.randint(0, 10), 10)
            ds = gen_double_detection(rates, theta)
            assert validate_dataset(ds).valid
            assert check_marginal_selectivity(ds).passed
            assert run_lft(ds).feasible

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError, match="coupling"):
            gen_double_detection([[1, 1], [1, 1]], F(3, 2))
        with pytest.raises(ValueError, match="hit rate"):
            gen_double_detection([[2, 1], [1, 1]], F(0))
