import hashlib
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from selinf import rational_lp
from selinf.experiment import make_design
from selinf.generators import AngleSpec, gen_classical, gen_ghz, gen_prbox, gen_singlet
from selinf.io import format_exact
from selinf.lft import run_lft
from selinf.rational_lp import (
    FeasibilityResult,
    SparseMatrix,
    solve_equality_feasibility,
    verify_certificate,
)

from helpers import lp_feasible_bruteforce, textbook_phase_one

F = Fraction


class TestSparseMatrix:
    def test_from_dense_roundtrip(self):
        dense = [[F(1), F(0)], [F(-2, 3), F(5)]]
        m = SparseMatrix.from_dense(dense)
        assert m.to_dense() == dense

    def test_rejects_bad_entries(self):
        with pytest.raises(ValueError, match="duplicate column"):
            SparseMatrix(1, 2, (((0, F(1)), (0, F(2))),))
        with pytest.raises(ValueError, match="out of range"):
            SparseMatrix(1, 2, (((2, F(1)),),))
        with pytest.raises(ValueError, match="zero entry"):
            SparseMatrix(1, 2, (((0, F(0)),),))
        # rows are checked and kept as given: nothing is sorted or converted
        with pytest.raises(ValueError, match="not increasing"):
            SparseMatrix(1, 2, (((1, F(1)), (0, F(2))),))
        with pytest.raises(ValueError, match="not an int"):
            SparseMatrix(1, 2, (((1.9, F(1)),),))
        with pytest.raises(ValueError, match="not an int"):
            SparseMatrix(1, 2, (((True, F(1)),),))
        for entry in (1, 0.5):
            with pytest.raises(ValueError, match="not a Fraction"):
                SparseMatrix(1, 2, (((0, entry),),))
        rows = (((0, F(1)), (1, F(-2))),)
        assert SparseMatrix(1, 2, rows).rows is rows


class TestSolveBasics:
    def test_identity_feasible(self):
        m = SparseMatrix.from_dense([[F(1)]])
        res = solve_equality_feasibility(m, [F(1)])
        assert res.feasible and res.witness == (F(1),)
        assert verify_certificate(m, [F(1)], res)

    def test_negative_rhs_infeasible(self):
        m = SparseMatrix.from_dense([[F(1)]])
        res = solve_equality_feasibility(m, [F(-1)])
        assert not res.feasible
        y = res.farkas
        assert y[0] <= 0  # y'M = y, as M = [1]
        assert sum(yi * pi for yi, pi in zip(y, [F(-1)])) > 0
        assert verify_certificate(m, [F(-1)], res)

    def test_zero_row_nonzero_rhs(self):
        m = SparseMatrix(2, 1, (((0, F(1)),), ()))
        res = solve_equality_feasibility(m, [F(1), F(2)])
        assert not res.feasible
        assert verify_certificate(m, [F(1), F(2)], res)

    def test_zero_row_zero_rhs_dropped(self):
        m = SparseMatrix(2, 1, (((0, F(1)),), ()))
        res = solve_equality_feasibility(m, [F(1), F(0)])
        assert res.feasible and res.witness == (F(1),)

    def test_dimension_mismatch(self):
        m = SparseMatrix.from_dense([[F(1)]])
        with pytest.raises(ValueError, match="rows"):
            solve_equality_feasibility(m, [F(1), F(2)])

    def test_empty_system(self):
        m = SparseMatrix(0, 3, ())
        res = solve_equality_feasibility(m, [])
        assert res.feasible and res.witness == (F(0),) * 3

    def test_corrupted_witness_rejected(self):
        m = SparseMatrix.from_dense([[F(1), F(1)]])
        res = solve_equality_feasibility(m, [F(1)])
        assert res.feasible
        bad = FeasibilityResult(True, (res.witness[0] - 1, res.witness[1]), None, res.pivots)
        assert not verify_certificate(m, [F(1)], bad)
        neg = FeasibilityResult(True, (F(2), F(-1)), None, 0)
        assert not verify_certificate(m, [F(1)], neg)

    def test_verify_over_common_denominators(self):
        # MQ and y'M are summed in integers; M, Q, y and P have denominators
        m = SparseMatrix.from_dense([[F(1), F(2, 3)], [F(0), F(3, 4)]])

        def holds(p, *cert, feasible):
            result = FeasibilityResult(feasible, cert if feasible else None,
                                       None if feasible else cert, 0)
            return verify_certificate(m, p, result)

        p = [F(4, 3), F(3, 4)]
        assert holds(p, F(2, 3), F(1), feasible=True)
        assert not holds(p, F(2, 3), F(1, 2), feasible=True)
        # MQ = P with a negative entry in Q
        assert not holds([F(1), F(3, 2)], F(-1, 3), F(2), feasible=True)
        # y'M = (-1/2, -29/60) and y'P = 2/5 > 0
        assert holds([F(-1), F(1, 2)], F(-1, 2), F(-1, 5), feasible=False)
        assert not holds(p, F(-1, 2), F(-1, 5), feasible=False)  # y'P < 0
        # y'M = (-3/4, 0) exactly; nudging y makes its second entry 3/4000
        assert holds([F(-1), F(1, 2)], F(-3, 4), F(2, 3), feasible=False)
        assert not holds([F(-1), F(1, 2)], F(-3, 4), F(2, 3) + F(1, 1000), feasible=False)

    def test_determinism(self):
        rng = random.Random(0)
        dense = [[F(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(8)] for _ in range(5)]
        p = [F(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(5)]
        m = SparseMatrix.from_dense(dense)
        a = solve_equality_feasibility(m, p)
        b = solve_equality_feasibility(m, p)
        assert a == b

    def test_farkas_spans_presolve_eliminated_columns(self):
        # row 0 pins x0 = x1 = 0, rows 1-2 then clash on x2; the Farkas
        # vector must still dominate the eliminated columns
        dense = [
            [F(1), F(1), F(0)],
            [F(1), F(0), F(1)],
            [F(0), F(0), F(1)],
        ]
        p = [F(0), F(1), F(2)]
        m = SparseMatrix.from_dense(dense)
        res = solve_equality_feasibility(m, p)
        assert not res.feasible
        assert verify_certificate(m, p, res)

    def test_farkas_when_elimination_empties_an_inconsistent_row(self):
        # row 0 forces x0 = 0, making row 1 (x0 = 1) unsatisfiable
        dense = [[F(1)], [F(1)]]
        p = [F(0), F(1)]
        m = SparseMatrix.from_dense(dense)
        res = solve_equality_feasibility(m, p)
        assert not res.feasible
        assert verify_certificate(m, p, res)
        # a later row fires and empties an earlier one with P != 0, which
        # only the second presolve sweep sees
        for dense, p, farkas in (
            ([[1], [1]], [1, 0], [1, -1]),
            ([[2, 0], [1, 1], [0, -3]], [1, 0, 0], [1, -2, 0]),
        ):
            m = SparseMatrix.from_dense(dense)
            res = solve_equality_feasibility(m, p)
            assert not res.feasible and res.pivots == 0
            assert res.farkas == tuple(map(F, farkas))
            assert verify_certificate(m, p, res)

    def test_degenerate_systems_terminate(self):
        # heavily degenerate bases (many zero right-hand sides over mixed-sign
        # rows, so the presolve cannot fire) still terminate under the
        # least-index rule
        dense = [
            [F(1), F(-1), F(0), F(0)],
            [F(0), F(1), F(-1), F(0)],
            [F(0), F(0), F(1), F(-1)],
            [F(-1), F(0), F(0), F(1)],
            [F(1), F(1), F(1), F(1)],
        ]
        p = [F(0), F(0), F(0), F(0), F(2)]
        m = SparseMatrix.from_dense(dense)
        res = solve_equality_feasibility(m, p)
        assert res.feasible
        assert verify_certificate(m, p, res)
        assert res.witness == (F(1, 2),) * 4


def _random_system(rng: random.Random, max_rows: int, max_cols: int):
    m = rng.randint(1, max_rows)
    n = rng.randint(1, max_cols)
    dense = [
        [
            F(rng.randint(-3, 3), rng.randint(1, 4)) if rng.random() < 0.7 else F(0)
            for _ in range(n)
        ]
        for _ in range(m)
    ]
    if rng.random() < 0.5:
        # make some instances certainly feasible: P = M q0 for a random q0 >= 0
        q0 = [F(rng.randint(0, 3), rng.randint(1, 3)) for _ in range(n)]
        p = [sum((row[j] * q0[j] for j in range(n)), F(0)) for row in dense]
    else:
        p = [F(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(m)]
    return dense, p


def _digest(certificate) -> str:
    return hashlib.sha256(",".join(map(format_exact, certificate)).encode()).hexdigest()


class TestPinnedPivotPath:
    """Pivot counts and certificates recorded with Dantzig pricing, phase one
    on the Collins-Gisin rows: a change of arithmetic must not move the
    pivot path."""

    def test_classical_feasible(self):
        verdict = run_lft(gen_classical(make_design((3, 3), (2, 2)), seed=5)[0])
        assert verdict.feasible and verdict.pivots == 23
        assert _digest(verdict.witness.values) == (
            "64da9b78eb0f590a76cea916a04f4168dbc8e89bdbaadaef15fd67dea25bf94a"
        )

    def test_singlet_infeasible(self):
        angles = AngleSpec(((F(0), F(1, 2)), (F(1, 4), F(3, 4))))
        verdict = run_lft(gen_singlet(angles, 12))
        assert not verdict.feasible and verdict.pivots == 13
        assert _digest(verdict.farkas) == (
            "69f5cf7f723ca51cd0095d2fd55639060f9c563f77af8ee86d2313592bf2fcb7"
        )

    @pytest.mark.parametrize(
        "seed, feasible, digest",
        [
            (0, True, "88b7dc62f73621f896094355113bbce225ba324fc7d6999ce6727e0de053a27b"),
            (12, False, "02bdf2a4bced4e9a29c8c07ae03b01d8e5adbbe1050e2d40d02919b5b9c3b463"),
        ],
    )
    def test_random_rational_system(self, seed, feasible, digest):
        dense, p = _random_system(random.Random(seed), 6, 8)
        assert any(v.denominator > 1 for row in dense for v in row)
        assert any(v.denominator > 1 for v in p)
        res = solve_equality_feasibility(SparseMatrix.from_dense(dense), p)
        assert res.feasible == feasible and res.pivots == 4
        assert _digest(res.witness if feasible else res.farkas) == digest


class TestPinnedPresolve:
    """Certificates recorded with the fixpoint presolve: deciding
    zero-probability rows in fewer sweeps must not change them."""

    @pytest.mark.parametrize(
        "dataset, digest",
        [
            (gen_prbox, "60d162791780785b9aad25699a2c9e477496050571386c7ce56edd436836924e"),
            (gen_ghz, "48608dca7c558d0a88b9fd60edafed11f21e837dba5d3ecf2e8c7b972bd0c2b3"),
        ],
    )
    def test_decided_in_presolve(self, dataset, digest):
        verdict = run_lft(dataset())
        assert not verdict.feasible and verdict.pivots == 0
        assert _digest(verdict.farkas) == digest

    def test_fires_then_phase_one(self):
        dense, p = _random_system(random.Random(26), 6, 8)
        res = solve_equality_feasibility(SparseMatrix.from_dense(dense), p)
        assert not res.feasible and res.pivots == 2
        assert F(-83, 12) in res.farkas  # -K on a fired row
        assert _digest(res.farkas) == (
            "785ee076f3c7535301a63864169931182ccd993ade94aaf5ee76b7a37d27ed18"
        )


class TestAgainstTextbookTableau:
    """Phase one, on the systems presolve hands it, against a dense Fraction
    tableau with the same pricing and ratio rules."""

    @pytest.mark.parametrize("degenerate_run", [rational_lp.DEGENERATE_RUN, 0])
    def test_same_pivots_and_certificates(self, monkeypatch, degenerate_run):
        monkeypatch.setattr(rational_lp, "DEGENERATE_RUN", degenerate_run)
        calls = []
        phase_one = rational_lp._phase_one

        def spy(cols, b):
            calls.append((cols, b, phase_one(cols, b)))
            return calls[-1][2]

        monkeypatch.setattr(rational_lp, "_phase_one", spy)
        rng = random.Random(2012)
        narrowed = 0
        while len(calls) < 2000:
            dense, p = _random_system(rng, 6, 8)
            if rng.random() < 0.3:
                # a nonnegative row with P-component 0 makes presolve fire
                i = rng.randrange(len(dense))
                dense[i] = [abs(v) for v in dense[i]]
                p[i] = F(0)
            before = len(calls)
            solve_equality_feasibility(SparseMatrix.from_dense(dense), p)
            if len(calls) == before:
                continue
            cols, b, got = calls[-1]
            narrowed += len(cols) < len(dense[0])
            A = [[F(0)] * len(cols) for _ in b]
            for j, col in enumerate(cols):
                for i, v in col:
                    A[i][j] = F(v)
            assert got == textbook_phase_one(A, list(map(F, b)), degenerate_run)
        assert narrowed > 100


class TestSoundnessAndCompleteness:
    def test_fuzz_certificates_always_verify(self):
        rng = random.Random(1234)
        for _ in range(300):
            dense, p = _random_system(rng, 6, 8)
            m = SparseMatrix.from_dense(dense)
            res = solve_equality_feasibility(m, p)
            assert verify_certificate(m, p, res)

    def test_fuzz_with_bland_after_every_degenerate_pivot(self, monkeypatch):
        # Dantzig then prices only right after a nondegenerate pivot, so the
        # switch to Bland's rule and back happens inside most solves
        monkeypatch.setattr(rational_lp, "DEGENERATE_RUN", 0)
        self.test_fuzz_certificates_always_verify()

    def test_verdicts_match_bruteforce_oracle(self):
        rng = random.Random(99)
        for trial in range(60):
            dense, p = _random_system(rng, 4, 5)
            m = SparseMatrix.from_dense(dense)
            res = solve_equality_feasibility(m, p)
            assert verify_certificate(m, p, res)
            assert res.feasible == lp_feasible_bruteforce(dense, p), (dense, p)

    def test_verdicts_match_oracle_at_12(self):
        rng = random.Random(7)
        for _ in range(6):
            dense, p = _random_system(rng, 12, 12)
            m = SparseMatrix.from_dense(dense)
            res = solve_equality_feasibility(m, p)
            assert verify_certificate(m, p, res)
            assert res.feasible == lp_feasible_bruteforce(dense, p)


frac = st.fractions(
    min_value=F(-3), max_value=F(3), max_denominator=4
)


@settings(max_examples=120, deadline=None, derandomize=True)
@given(
    st.integers(1, 4),
    st.integers(1, 5),
    st.data(),
)
def test_property_certificates_verify(nrows, ncols, data):
    dense = [
        [data.draw(frac) for _ in range(ncols)] for _ in range(nrows)
    ]
    p = [data.draw(frac) for _ in range(nrows)]
    m = SparseMatrix.from_dense(dense)
    res = solve_equality_feasibility(m, p)
    assert verify_certificate(m, p, res)
    assert res.feasible == lp_feasible_bruteforce(dense, p)
