import hashlib
import random
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings, strategies as st

from selinf import rational_lp
from selinf.experiment import Dataset, make_design
from selinf.generators import AngleSpec, gen_classical, gen_ghz, gen_prbox, gen_singlet
from selinf.io import format_exact
from selinf.lft import LftSystem, build_p_vector, collins_gisin_rows, run_lft
from selinf.rational_lp import (
    FeasibilityResult,
    simplex,
    solve_equality_feasibility,
    verify_certificate,
)

from helpers import (
    dense_certifies,
    dense_m,
    dense_pricer,
    lifted_prbox,
    lp_feasible_bruteforce,
    mix_tables,
    reference_simplex,
    reference_solve,
    textbook_phase_one,
)

F = Fraction


def _integer_system(dense, p):
    """MQ = P with every row flipped to P_i >= 0 and scaled to integers:
    (columns as (row, entry) lists, integer b, the row flips, the variable
    scale)."""
    flip = [1 if v >= 0 else -1 for v in p]
    scale_a = lcm(*(v.denominator for row in dense for v in row))
    rhs = [s * F(v) * scale_a for s, v in zip(flip, p)]
    scale_b = lcm(*(r.denominator for r in rhs))
    cols = [
        [(i, int(flip[i] * row[j] * scale_a)) for i, row in enumerate(dense) if row[j]]
        for j in range(len(dense[0]))
    ]
    return cols, [int(r * scale_b) for r in rhs], flip, scale_b


def _solve(dense, p):
    """`simplex` on a signed rational system, priced by `dense_pricer`: the
    witness scaled back, the phase-one dual flipped back to a Farkas vector
    of the original rows (one positive row scale changes no sign)."""
    cols, b, flip, scale_b = _integer_system(dense, p)
    feasible, vec, pivots = simplex(b, len(cols), dense_pricer(cols), cols.__getitem__)
    if feasible:
        witness = [F(0)] * len(cols)
        for j, v in vec.items():
            witness[j] = v / scale_b
        return FeasibilityResult(True, tuple(witness), None, pivots)
    return FeasibilityResult(False, None, tuple(s * y for s, y in zip(flip, vec)), pivots)


class TestSolveBasics:
    """`simplex` on small signed systems through `_solve`, and the driver and
    verification on `LftSystem`."""

    def test_identity_feasible(self):
        res = _solve([[F(1)]], [F(1)])
        assert res.feasible and res.witness == (F(1),)
        assert dense_certifies([[F(1)]], [F(1)], res)

    def test_negative_rhs_infeasible(self):
        res = _solve([[F(1)]], [F(-1)])
        assert not res.feasible
        y = res.farkas
        assert y[0] <= 0  # y'M = y, as M = [1]
        assert sum(yi * pi for yi, pi in zip(y, [F(-1)])) > 0
        assert dense_certifies([[F(1)]], [F(-1)], res)

    def test_zero_row_nonzero_rhs(self):
        dense = [[F(1)], [F(0)]]
        res = _solve(dense, [F(1), F(2)])
        assert not res.feasible
        assert dense_certifies(dense, [F(1), F(2)], res)

    def test_zero_row_zero_rhs_dropped(self):
        res = _solve([[F(1)], [F(0)]], [F(1), F(0)])
        assert res.feasible and res.witness == (F(1),)

    def test_dimension_mismatch(self):
        lft = LftSystem(make_design((1,), (2,)))
        with pytest.raises(ValueError, match="rows"):
            solve_equality_feasibility(lft, [F(1)] * 3)
        with pytest.raises(ValueError, match="negative"):
            solve_equality_feasibility(lft, [F(1), F(-1)])

    def test_empty_system(self):
        # an empty row basis leaves phase one nothing: Q = 0, which fails
        # the rows it skipped
        lft = LftSystem(make_design((2,), (2,)))
        res = solve_equality_feasibility(lft, [F(1, 2)] * 4, row_basis=[])
        assert res == FeasibilityResult(True, (F(0),) * 4, None, 0)
        assert not verify_certificate(lft, [F(1, 2)] * 4, res)

    def test_simplex_on_no_rows(self):
        # Q = 0 solves a system with no rows, whatever its columns
        cols = [[], [], []]
        assert simplex([], 3, dense_pricer(cols), cols.__getitem__) == (True, {}, 0)

    def test_corrupted_witness_rejected(self):
        ds = gen_classical(make_design((2, 2), (2, 2)), seed=3)[0]
        lft, p = LftSystem(ds.design), build_p_vector(ds)
        res = solve_equality_feasibility(lft, p)
        assert res.feasible and verify_certificate(lft, p, res)
        a, b = [j for j, v in enumerate(res.witness) if v][:2]
        moved = list(res.witness)
        moved[a], moved[b] = moved[a] / 2, moved[b] + moved[a] / 2
        assert not verify_certificate(lft, p, FeasibilityResult(True, tuple(moved), None, res.pivots))
        negative = list(res.witness)
        negative[res.witness.index(0)] = F(-1, 7)
        assert not verify_certificate(lft, p, FeasibilityResult(True, tuple(negative), None, 0))
        # a P or a certificate of the wrong length is refused, not truncated
        assert not verify_certificate(lft, p[:-1], res)
        assert not verify_certificate(lft, p, FeasibilityResult(True, res.witness[:-1], None, 0))
        pr = build_p_vector(gen_prbox())
        farkas = run_lft(gen_prbox()).farkas
        assert verify_certificate(lft, pr, FeasibilityResult(False, None, farkas, 0))
        assert not verify_certificate(lft, pr, FeasibilityResult(False, None, farkas + (F(0),), 0))

    def test_verify_over_common_denominators(self):
        # one input, two values, two outcomes: column (a1, a2) meets rows
        # (1, a1) and (2, a2).  MQ and y'M are summed in integers over Q's,
        # y's and P's denominators
        lft = LftSystem(make_design((2,), (2,)))

        def holds(p, *cert, feasible):
            result = FeasibilityResult(feasible, cert if feasible else None,
                                       None if feasible else cert, 0)
            assert dense_certifies(dense_m(lft.design), p, result) == (
                verify_certificate(lft, p, result)
            )
            return verify_certificate(lft, p, result)

        p = [F(1, 2), F(1, 2), F(7, 12), F(5, 12)]
        assert holds(p, F(1, 3), F(1, 6), F(1, 4), F(1, 4), feasible=True)
        assert not holds(p, F(1, 3) - F(1, 1000), F(1, 6) + F(1, 1000), F(1, 4), F(1, 4), feasible=True)
        # MQ = P with a negative entry in Q
        assert not holds([F(1, 2), F(1, 2), F(1, 2), F(1, 2)], F(2, 3), F(-1, 6), F(-1, 6), F(2, 3), feasible=True)
        # y'M = 0 and y'P = 1/12 > 0
        signalling = [F(1, 2), F(1, 2), F(1, 3), F(1, 2)]
        assert holds(signalling, F(1, 2), F(1, 2), F(-1, 2), F(-1, 2), feasible=False)
        assert not holds(p, F(1, 2), F(1, 2), F(-1, 2), F(-1, 2), feasible=False)  # y'P = 0
        # nudging y makes y'M 1/1000 on the columns with a2 = 1
        assert not holds(signalling, F(1, 2), F(1, 2), F(-1, 2) + F(1, 1000), F(-1, 2), feasible=False)

    def test_determinism(self):
        rng = random.Random(0)
        dense = [[F(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(8)] for _ in range(5)]
        p = [F(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(5)]
        assert _solve(dense, p) == _solve(dense, p)
        ds = gen_classical(make_design((2, 2), (3, 3)), seed=8)[0]
        p = build_p_vector(ds)
        assert solve_equality_feasibility(LftSystem(ds.design), p) == (
            solve_equality_feasibility(LftSystem(ds.design), p)
        )

    def test_farkas_spans_presolve_eliminated_columns(self):
        # fired rows 1, 5, 7 and 9 force columns to zero, then phase one ends
        # infeasible: the Farkas vector must still dominate the forced
        # columns, which takes K = 3 on the fired rows
        lft = LftSystem(make_design((2, 2), (2, 2)))
        p = list(map(F, [1, 0, 2, 1, 2, 0, 1, 0, 2, 0, 1, 2, 2, 0, 2, 0]))
        assert lft.presolve(p).fired() == (1, 5, 7, 9)
        res = solve_equality_feasibility(lft, p)
        assert not res.feasible and res.pivots == 2
        assert [res.farkas[z] for z in (1, 5, 7, 9)] == [F(-3)] * 4
        assert verify_certificate(lft, p, res)
        dense = dense_m(lft.design)
        assert dense_certifies(dense, p, res) and res == reference_solve(dense, p)

    def test_farkas_bound_counts_the_fired_rows_a_column_meets(self):
        # phase one on the Collins-Gisin rows ends infeasible after rows 3, 5
        # and 6 fire.  Forced column 10 meets two fired rows and has y'M = 2,
        # columns 8 and 11 meet one and have y'M = 1: K = max(1, 2/2, 1/1) = 1,
        # where a bound that ignored the count would give 2
        lft = LftSystem(make_design((2, 2), (2, 2)))
        p = list(map(F, [1, 1, 1, 0, 3, 0, 0, 4, 2, 1, 2, 1, 2, 4, 1, 4]))
        rows = collins_gisin_rows(lft.design)
        assert lft.presolve(p).fired() == (3, 5, 6)
        res = solve_equality_feasibility(lft, p, rows)
        assert not res.feasible and res.pivots == 3
        assert [res.farkas[z] for z in (3, 5, 6)] == [F(-1)] * 3
        dense = dense_m(lft.design)
        assert sum(res.farkas[i] for i in range(16) if dense[i][10] and i not in (3, 5, 6)) == 2
        assert verify_certificate(lft, p, res) and dense_certifies(dense, p, res)
        assert res == reference_solve(dense, p, rows)

    def test_farkas_when_elimination_empties_an_inconsistent_row(self):
        # rows 0 and 1 force every column to zero, so row 2 (P = 1) has none
        # left in the first sweep; then a later row fires and empties an
        # earlier one with P != 0, which only the second presolve sweep sees
        lft = LftSystem(make_design((2,), (2,)))
        dense = dense_m(lft.design)
        for p, farkas in (
            ([0, 0, 1, 0], [-1, -1, 1, 0]),
            ([1, 0, 0, 0], [1, -1, -1, -1]),
        ):
            p = list(map(F, p))
            res = solve_equality_feasibility(lft, p)
            assert not res.feasible and res.pivots == 0
            assert res.farkas == tuple(map(F, farkas))
            assert verify_certificate(lft, p, res) and dense_certifies(dense, p, res)
            assert res == reference_solve(dense, p)

    def test_degenerate_systems_terminate(self):
        # heavily degenerate bases (many zero right-hand sides over mixed-sign
        # rows) still terminate under the least-index rule
        dense = [
            [F(1), F(-1), F(0), F(0)],
            [F(0), F(1), F(-1), F(0)],
            [F(0), F(0), F(1), F(-1)],
            [F(-1), F(0), F(0), F(1)],
            [F(1), F(1), F(1), F(1)],
        ]
        p = [F(0), F(0), F(0), F(0), F(2)]
        res = _solve(dense, p)
        assert res.feasible
        assert dense_certifies(dense, p, res)
        assert res.witness == (F(1, 2),) * 4


class TestPReadOnce:
    """A tuple P is scaled once per solve, and a check of the same tuple
    object reads those ints; any other P is read on every call."""

    @staticmethod
    def _solved(seed: int):
        ds = gen_classical(make_design((2, 2), (2, 2)), seed=seed)[0]
        lft, p = LftSystem(ds.design), build_p_vector(ds)
        return lft, p, solve_equality_feasibility(lft, p)

    def test_a_list_changed_after_the_solve_is_read_again(self):
        lft, p, _ = self._solved(3)
        q = list(p)
        res = solve_equality_feasibility(lft, q)
        assert res.feasible and verify_certificate(lft, q, res)
        i = next(i for i in range(len(q) - 1) if q[i] and q[i + 1])
        q[i], q[i + 1] = q[i] / 2, q[i + 1] + q[i] / 2
        assert not verify_certificate(lft, q, res)
        assert verify_certificate(lft, p, res)

    def test_equal_tuples_each_verify(self):
        lft, p, res = self._solved(3)
        twin = tuple(list(p))  # tuple(p) would be p itself
        assert twin == p and twin is not p
        assert verify_certificate(lft, twin, res) and verify_certificate(lft, p, res)
        # another P on the same design, read after p, is not taken for it
        other = build_p_vector(gen_classical(make_design((2, 2), (2, 2)), seed=4)[0])
        assert other != p and not verify_certificate(lft, other, res)
        assert verify_certificate(lft, p, res)

    def test_planted_certificates_still_fail(self):
        lft, p, res = self._solved(3)
        a, b = [j for j, v in enumerate(res.witness) if v][:2]
        moved = list(res.witness)
        moved[a], moved[b] = moved[a] / 2, moved[b] + moved[a] / 2
        assert not verify_certificate(lft, p, FeasibilityResult(True, tuple(moved), None, 0))
        pr = build_p_vector(gen_prbox())
        res = solve_equality_feasibility(lft, pr)
        assert not res.feasible and verify_certificate(lft, pr, res)
        negated = tuple(-y for y in res.farkas)
        assert not verify_certificate(lft, pr, FeasibilityResult(False, None, negated, 0))


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
        res = _solve(dense, p)
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
        # the lifted PR box mixed 1/2 with three-atom classical data: presolve
        # fires 15 rows, then phase one ends infeasible, and the fired rows
        # carry -K with K = 3 so that y'M <= 0 holds on the forced columns
        design = make_design((2, 2), (3, 3))
        classical = gen_classical(design, seed=2, max_support=3)[0]
        ds = Dataset(design, mix_tables(F(1, 2), lifted_prbox(design), classical.tables))
        fired = LftSystem(design).presolve(build_p_vector(ds)).fired()
        assert len(fired) == 15
        verdict = run_lft(ds)
        assert not verdict.feasible and verdict.pivots == 6
        assert {verdict.farkas[z] for z in fired} == {F(-3)}
        assert _digest(verdict.farkas) == (
            "ad4f55b08f58b5b30ee4ab7696b6eaecbb70daecfed27518739fbb80a1e459e4"
        )


class TestAgainstTextbookTableau:
    """`simplex` on random signed rational systems, flipped and scaled to
    integers, against a dense Fraction tableau with the same pricing and
    ratio rules."""

    @pytest.mark.parametrize("degenerate_run", [rational_lp.DEGENERATE_RUN, 0])
    def test_same_pivots_and_certificates(self, monkeypatch, degenerate_run):
        monkeypatch.setattr(rational_lp, "DEGENERATE_RUN", degenerate_run)
        rng = random.Random(2012)
        verdicts = [0, 0]
        zero_rows = 0
        for _ in range(2000):
            dense, p = _random_system(rng, 6, 8)
            if rng.random() < 0.3:
                # a nonnegative row with P-component 0: a degenerate start
                i = rng.randrange(len(dense))
                dense[i] = [abs(v) for v in dense[i]]
                p[i] = F(0)
                zero_rows += 1
            cols, b, _, _ = _integer_system(dense, p)
            got = simplex(b, len(cols), dense_pricer(cols), cols.__getitem__)
            A = [[F(0)] * len(cols) for _ in b]
            for j, col in enumerate(cols):
                for i, v in col:
                    A[i][j] = F(v)
            want = textbook_phase_one(A, list(map(F, b)), degenerate_run)
            if got[0]:
                assert [got[1].get(j, 0) for j in range(len(cols))] == want[1]
                assert got[::2] == want[::2]
            else:
                assert got == want
            verdicts[got[0]] += 1
        assert zero_rows > 500 and min(verdicts) > 500


class TestAgainstListKernel:
    """`simplex` holds d*B^-1 | d*x_B column-packed, each column one int;
    `reference_simplex` holds it as lists of ints.  On every system, the
    LFT's and random signed ones, both give the same (feasible, vector,
    pivots)."""

    @staticmethod
    def _through_both(monkeypatch) -> list[tuple[bool, int]]:
        """Send `lft`'s phase one through both kernels; the (verdict, pivot
        count) of each solve."""
        seen = []

        def both(b, n, price, column):
            got = simplex(b, n, price, column)
            assert got == reference_simplex(b, n, price, column)
            seen.append((got[0], got[2]))
            return got

        monkeypatch.setattr("selinf.lft.simplex", both)
        return seen

    # per design, how often the kernel may repack its columns at most: each
    # repack unpacks every column, and a width rule that packs too tightly
    # repacks more often
    REPACKS = {
        ((3, 3), (3, 3)): 3,
        ((3, 3, 3), (2, 2, 2)): 4,
        ((4, 4), (3, 3)): 7,
        ((2, 2, 2, 2), (2, 2, 2, 2)): 1,
    }

    @pytest.mark.parametrize("ks, ms", list(REPACKS))
    def test_dense_ladder(self, monkeypatch, ks, ms):
        refits = []
        refit = rational_lp._refit

        def counted(*args):
            refits.append(args)
            return refit(*args)

        monkeypatch.setattr(rational_lp, "_refit", counted)
        seen = self._through_both(monkeypatch)
        assert run_lft(gen_classical(make_design(ks, ms), seed=3)[0]).feasible
        assert seen and min(pivots for _, pivots in seen) > 0
        assert len(refits) <= self.REPACKS[ks, ms]

    def test_classical_and_mixture_data(self, monkeypatch):
        # factorial and not; weight 1 is the lifted PR box alone, mostly
        # decided in presolve, and at 1/2 and 1/5 phase one finds the mixture
        # feasible or infeasible
        designs = [
            ((2, 2), (2, 2), None),
            ((3, 2), (2, 3), None),
            ((2, 2, 2), (2, 2, 2), None),
            ((3, 3), (2, 2), [(1, 1), (1, 3), (2, 2), (3, 1), (3, 2), (3, 3)]),
            ((2, 2, 2), (2, 3, 2), [(1, 1, 1), (1, 2, 2), (2, 1, 2), (2, 2, 1), (2, 2, 2)]),
            ((2, 3), (3, 2), [(1, 2), (2, 1), (2, 3)]),
        ]
        seen = self._through_both(monkeypatch)
        for ks, ms, treatments in designs:
            design = make_design(ks, ms, treatments=treatments)
            lft = LftSystem(design)
            for seed in range(3):
                classical = gen_classical(design, seed=seed)[0]
                for weight in (F(1), F(1, 2), F(1, 5)):
                    ds = Dataset(design, mix_tables(weight, lifted_prbox(design), classical.tables))
                    p = build_p_vector(ds)
                    for rows in (collins_gisin_rows(design), None):
                        solve_equality_feasibility(lft, p, rows)
        assert len(seen) > 60 and sum(pivots for _, pivots in seen) > 2000
        assert {feasible for feasible, _ in seen} == {False, True}

    @pytest.mark.parametrize("degenerate_run", [rational_lp.DEGENERATE_RUN, 0])
    def test_random_signed_systems_with_wide_entries(self, monkeypatch, degenerate_run):
        # b of up to 260 bits, m up to 40: each solve records the digit
        # widths the kernel packs at, and on some of them the width grows
        # during the run
        monkeypatch.setattr(rational_lp, "DEGENERATE_RUN", degenerate_run)
        widths = []
        width = rational_lp._width

        def recorded(bound):
            widths[-1].append(width(bound))
            return widths[-1][-1]

        monkeypatch.setattr(rational_lp, "_width", recorded)
        rng = random.Random(1968)
        wide = 0
        for _ in range(40):
            m, n = rng.randint(1, 40), rng.randint(1, 60)
            A = [[rng.choice((-3, -2, -1, 0, 0, 1, 2, 3)) for _ in range(n)] for _ in range(m)]
            bits = rng.choice((1, 8, 64, 200, 260))
            if rng.random() < 0.5:
                # feasible: b = A q for a random q >= 0, rows flipped to b >= 0
                q = [rng.getrandbits(bits) for _ in range(n)]
                b = [sum(a * v for a, v in zip(row, q)) for row in A]
                A = [row if v >= 0 else [-a for a in row] for row, v in zip(A, b)]
                b = [abs(v) for v in b]
            else:
                b = [rng.getrandbits(bits) for _ in range(m)]
            cols = [[(i, row[j]) for i, row in enumerate(A) if row[j]] for j in range(n)]
            widths.append([])
            got = simplex(b, n, dense_pricer(cols), cols.__getitem__)
            assert got == reference_simplex(b, n, dense_pricer(cols), cols.__getitem__)
            wide += max(b).bit_length() > 200
        assert wide >= 10
        assert sum(1 for w in widths if w[-1] > w[0]) >= 10


class TestSoundnessAndCompleteness:
    def test_fuzz_certificates_always_verify(self):
        rng = random.Random(1234)
        for _ in range(300):
            dense, p = _random_system(rng, 6, 8)
            res = _solve(dense, p)
            assert dense_certifies(dense, p, res)

    def test_fuzz_with_bland_after_every_degenerate_pivot(self, monkeypatch):
        # Dantzig then prices only right after a nondegenerate pivot, so the
        # switch to Bland's rule and back happens inside most solves
        monkeypatch.setattr(rational_lp, "DEGENERATE_RUN", 0)
        self.test_fuzz_certificates_always_verify()

    def test_verdicts_match_bruteforce_oracle(self):
        rng = random.Random(99)
        for trial in range(60):
            dense, p = _random_system(rng, 4, 5)
            res = _solve(dense, p)
            assert dense_certifies(dense, p, res)
            assert res.feasible == lp_feasible_bruteforce(dense, p), (dense, p)

    def test_verdicts_match_oracle_at_12(self):
        rng = random.Random(7)
        for _ in range(6):
            dense, p = _random_system(rng, 12, 12)
            res = _solve(dense, p)
            assert dense_certifies(dense, p, res)
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
    res = _solve(dense, p)
    assert dense_certifies(dense, p, res)
    assert res.feasible == lp_feasible_bruteforce(dense, p)
