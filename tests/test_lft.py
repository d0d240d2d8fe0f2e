import hashlib
import json
import random
from collections import defaultdict
from fractions import Fraction
from functools import cache
from itertools import product
from math import lcm, prod
from operator import mul

import pytest

from selinf import distances, experiment, lft
from selinf.cli import main
from selinf.distances import chain_test, enumerate_irreducible_sequences, preset_order
from selinf.errors import SizeGuardError
from selinf.experiment import (
    DESIGN_CACHE,
    Dataset,
    ExperimentDesign,
    Input,
    check_marginal_selectivity,
    make_design,
    validate_dataset,
)
from selinf.generators import gen_classical, gen_ghz, gen_prbox
from selinf.lft import (
    LftSystem,
    LftVerdict,
    QVector,
    build_jdc_matrix,
    build_p_vector,
    chain_farkas,
    collins_gisin_rows,
    construct_si2,
    marginal_farkas,
    mixed_radix_digits,
    p_length,
    q_length,
    q_slot_offsets,
    run_lft,
    slot_bases,
)
from selinf.io import dump_dataset, format_exact
from selinf.rational_lp import (
    FeasibilityResult,
    solve_equality_feasibility,
    verify_certificate,
)

from helpers import (
    assignment_outcome,
    dense_certifies,
    dense_m,
    dense_pricer,
    lifted_prbox,
    marginal,
    matrix_rank,
    mix_tables,
    project,
    random_order,
    random_small_design,
    random_tables_dataset,
    reference_front_pricer,
    reference_presolve,
    reference_solve,
    reference_verify,
    transform_outputs,
)

F = Fraction


class TestIndexing:
    def test_chsh_p_length_16(self):
        design = make_design((2, 2), (2, 2))
        assert p_length(design) == 16
        assert q_length(design) == 16

    def test_ghz_lengths(self):
        design = gen_ghz().design
        assert p_length(design) == 64
        assert q_length(design) == 64

    def test_single_input_p_vector(self):
        design = make_design((1,), (2,))
        ds = Dataset(design, {(1,): {(1,): F(1, 3), (2,): F(2, 3)}})
        p = build_p_vector(ds)
        assert type(p) is tuple and p == (F(1, 3), F(2, 3))

    @pytest.mark.parametrize(
        "sizes",
        [((2, 2), (2, 2)), ((1, 2), (3, 2)), ((2, 2, 2), (2, 2, 2)), ((2,), (3,))],
        ids=lambda sizes: "-".join(",".join(map(str, s)) for s in sizes),
    )
    def test_assignment_at_lists_every_assignment(self, sizes):
        # the flat index is mixed radix over the slots, the first most
        # significant: index order is the product's order
        design = make_design(*sizes)
        q = QVector(design, (F(0),) * q_length(design))
        every = product(*(range(1, base + 1) for base in slot_bases(design)))
        assert [q.assignment_at(i) for i in range(q_length(design))] == list(every)
        for flat in (-1, q_length(design)):
            with pytest.raises(ValueError, match="out of range"):
                q.assignment_at(flat)

    def test_values_convert_to_exact_fractions(self):
        # Fractions are kept as given; ints and strings from library callers
        # are still converted, exactly
        design = make_design((1,), (2,))
        kept = F(1, 3)
        q = QVector(design, (kept, "2/3"))
        assert q.values[0] is kept
        assert q.values == (F(1, 3), F(2, 3)) and all(type(v) is F for v in q.values)
        assert QVector(design, (0, 1)).values == (F(0), F(1))
        q = QVector(design, ("0.1", "9/10"))
        assert q.values[0] != 0.1  # exact, not the float nearest 1/10
        with pytest.raises(ValueError):
            QVector(design, ("half", 0))


class TestJdcMatrix:
    def test_chsh_matrix_shape_and_column_sums(self):
        design = make_design((2, 2), (2, 2))
        dense = dense_m(design)
        assert (len(dense), len(dense[0])) == (16, 16)
        assert [sum(col) for col in zip(*dense)] == [4] * 16  # one per treatment

    def test_trivial_design_is_identity(self):
        design = make_design((1,), (2,))
        assert build_jdc_matrix(design) == ((0,), (1,))
        assert dense_m(design) == [[F(1), F(0)], [F(0), F(1)]]

    def test_ghz_matrix_eight_ones_per_column(self):
        dense = dense_m(gen_ghz().design)
        assert (len(dense), len(dense[0])) == (64, 64)
        assert [sum(col) for col in zip(*dense)] == [8] * 64

    @staticmethod
    def assert_matches_definition(design):
        # M(r, c) = 1 exactly when column c's assignment yields row r's
        # outcomes under row r's treatment, built here column by column; a
        # row lists the columns of its 1s in increasing order.  Rows are
        # numbered by P's layout: treatments in sorted order, outcome tuples
        # lexicographic within a block
        rows = build_jdc_matrix(design)
        outcomes = product(*(range(1, m + 1) for m in design.outcome_sizes))
        row_of = {key: r for r, key in enumerate(product(sorted(design.treatments), outcomes))}
        q = QVector(design, (F(0),) * q_length(design))
        offsets = q_slot_offsets(design)
        want = [[] for _ in range(p_length(design))]
        for c in range(q_length(design)):
            assignment = q.assignment_at(c)
            for tr in design.treatments:
                want[row_of[tr, assignment_outcome(assignment, tr, offsets)]].append(c)
        assert type(rows) is tuple and all(type(row) is tuple for row in rows)
        assert rows == tuple(map(tuple, want))

    @pytest.mark.parametrize(
        "sizes",
        [((1, 3), (2, 1)), ((2, 3), (3, 2)), ((3, 1, 2), (2, 3, 2))],
    )
    def test_every_entry_matches_definition(self, sizes):
        self.assert_matches_definition(make_design(*sizes))

    def test_every_entry_matches_definition_ghz(self):
        self.assert_matches_definition(gen_ghz().design)

    def test_every_entry_matches_definition_non_factorial(self):
        # a row depends only on its treatment and outcome, so a subset of
        # the treatments gets the matching subset of the full design's rows
        rng = random.Random(11)
        for sizes in (((2, 3), (3, 2)), ((3, 1, 2), (2, 3, 2)), ((3, 3), (2, 2))):
            full = make_design(*sizes).treatments
            for _ in range(5):
                subset = rng.sample(full, rng.randint(1, len(full) - 1))
                self.assert_matches_definition(make_design(*sizes, treatments=subset))

    def test_column_guard(self):
        design = make_design((2, 2), (3, 3))  # 81 columns
        with pytest.raises(SizeGuardError, match="column_guard"):
            build_jdc_matrix(design, column_guard=80)
        rows = build_jdc_matrix(design, column_guard=81)
        assert max(c for row in rows for c in row) == 80


class TestRunLft:
    def test_prbox_infeasible_with_verified_farkas(self):
        pr = gen_prbox()
        verdict = run_lft(pr)
        assert not verdict.feasible
        p = build_p_vector(pr)
        dense = dense_m(pr.design)
        res = FeasibilityResult(False, None, verdict.farkas, verdict.pivots)
        assert dense_certifies(dense, p, res)

    def test_deterministic_dataset_feasible_point_mass(self):
        design = make_design((2, 2), (2, 2))
        tables = {tr: {(1, 1): F(1)} for tr in design.treatments}
        verdict = run_lft(Dataset(design, tables))
        assert verdict.feasible
        support = verdict.witness.support()
        assert support == [(F(1), (1, 1, 1, 1))]

    def test_invalid_dataset_rejected(self):
        design = make_design((1,), (2,))
        ds = Dataset(design, {(1,): {(1,): F(2)}})
        with pytest.raises(ValueError, match="invalid dataset"):
            run_lft(ds)
        # so is the caller's report of it
        with pytest.raises(ValueError, match="invalid dataset"):
            run_lft(ds, validation_report=validate_dataset(ds))

    def test_necessity_fuzz(self):
        rng = random.Random(17)
        for _ in range(40):
            design = random_small_design(rng, max_n=2, factorial=rng.random() < 0.6)
            ds, q = gen_classical(design, seed=rng.randrange(10**9))
            verdict = run_lft(ds)
            assert verdict.feasible

    def test_verdict_matches_vertex_oracle_end_to_end(self):
        # whole pipeline (matrix construction included) against the
        # basis-enumeration oracle, no reliance on inequality theorems
        from helpers import lp_feasible_bruteforce, random_ms_chsh

        rng = random.Random(222)
        design = make_design((2, 2), (2, 2))
        dense = dense_m(design)
        for trial in range(4):
            if trial % 2 == 0:
                ds, _ = gen_classical(design, seed=rng.randrange(10**9))
            else:
                ds = random_ms_chsh(rng, denom=6)
            verdict = run_lft(ds)
            p = build_p_vector(ds)
            assert verdict.feasible == lp_feasible_bruteforce(dense, p)
        # drive at least one infeasible instance through the oracle
        pr_verdict = run_lft(gen_prbox())
        pr = gen_prbox()
        assert not pr_verdict.feasible
        assert not lp_feasible_bruteforce(
            dense_m(pr.design),
            build_p_vector(pr),
        )

    def test_verdict_json_schema(self):
        doc = run_lft(gen_prbox()).to_json_dict()
        assert doc["verdict"] == "infeasible"
        assert "farkas" in doc and "index_legend" in doc
        ds, _ = gen_classical(make_design((2, 2), (2, 2)), seed=2)
        doc = run_lft(ds).to_json_dict()
        assert doc["verdict"] == "feasible"
        assert "witness" in doc and "witness_support" in doc


class TestRowBasis:
    """Phase one on the Collins-Gisin rows against a solve on every row."""

    @staticmethod
    def _run_lft(ds, monkeypatch, **kwargs):
        """`run_lft` and the row basis of each solve it made."""
        calls = []

        def spy(m, p, row_basis=None):
            calls.append(row_basis)
            return solve_equality_feasibility(m, p, row_basis)

        monkeypatch.setattr("selinf.lft.solve_equality_feasibility", spy)
        verdict = run_lft(ds, **kwargs)
        monkeypatch.undo()
        return verdict, calls

    def _check(self, ds, monkeypatch):
        p = build_p_vector(ds)
        m, dense = LftSystem(ds.design), dense_m(ds.design)
        rows = collins_gisin_rows(ds.design)
        reduced, full = solve_equality_feasibility(m, p, rows), solve_equality_feasibility(m, p)
        assert reduced.feasible == full.feasible
        assert dense_certifies(dense, p, reduced) and dense_certifies(dense, p, full)
        verdict, calls = self._run_lft(ds, monkeypatch)
        assert verdict.feasible == reduced.feasible and calls == [rows]
        return rows, reduced

    @pytest.mark.parametrize(
        "ks, ms, kept",
        [
            ((2, 2), (2, 2), 9),
            ((2, 2), (3, 3), 25),
            ((3, 3), (2, 2), 16),
            ((2, 2, 2), (2, 2, 2), 27),
        ],
    )
    def test_matches_full_row_solve(self, ks, ms, kept, monkeypatch):
        design = make_design(ks, ms)
        rng = random.Random(len(ks) * 100 + ks[0] * 10 + ms[0])
        verdicts = set()
        for _ in range(4):
            classical = gen_classical(design, seed=rng.randrange(10**9))[0]
            weight = F(rng.randint(1, 3), 4)
            for tables in (classical.tables, mix_tables(weight, lifted_prbox(design), classical.tables)):
                rows, result = self._check(Dataset(design, tables), monkeypatch)
                assert len(rows) == kept
                verdicts.add(result.feasible)
        assert verdicts == {True, False}

    @pytest.mark.parametrize(
        "ks, ms", [((3, 3), (2, 2)), ((2, 2, 2), (2, 2, 2)), ((3, 3), (3, 2)), ((4,), (3,))]
    )
    def test_treatment_subsets(self, ks, ms, monkeypatch):
        # on any treatment set the picked rows have M's exact rank, and phase
        # one on them alone decides as a solve on every row does
        full = make_design(ks, ms).treatments
        rng = random.Random(sum(ks) * 10 + sum(ms))
        verdicts = set()
        for _ in range(5):
            design = make_design(ks, ms, treatments=rng.sample(full, rng.randint(1, len(full) - 1)))
            dense = dense_m(design)
            rows = collins_gisin_rows(design)
            assert matrix_rank([dense[r] for r in rows]) == matrix_rank(dense)
            classical = gen_classical(design, seed=rng.randrange(10**9))[0]
            cases = [classical.tables]
            if design.n > 1:
                cases.append(mix_tables(F(3, 4), lifted_prbox(design), classical.tables))
            for tables in cases:
                verdicts.add(self._check(Dataset(design, tables), monkeypatch)[1].feasible)
        assert verdicts == ({True} if len(ks) == 1 else {True, False})

    def _check_signalling(self, ds, monkeypatch):
        """`run_lft` on data that break marginal selectivity: no solve, 0
        pivots and `marginal_farkas` of the first violation, which the full M
        accepts, as a solve on every row confirms; the same with the report
        handed over.  Returns whether phase one on the basis rows alone looked
        feasible, with a witness that misses the dropped rows' equations."""
        report = check_marginal_selectivity(ds)
        assert not report.passed
        p = build_p_vector(ds)
        m, dense = LftSystem(ds.design), dense_m(ds.design)
        on_basis = solve_equality_feasibility(m, p, collins_gisin_rows(ds.design))
        full = solve_equality_feasibility(m, p)
        assert not full.feasible and dense_certifies(dense, p, full)
        y = marginal_farkas(ds.design, p, report.violations[0])
        assert dense_certifies(dense, p, FeasibilityResult(False, None, y, 0))
        verdict, calls = self._run_lft(ds, monkeypatch)
        assert calls == [] and verdict == LftVerdict(ds.design, False, None, y, 0, None, report.violations[0])
        assert self._run_lft(ds, monkeypatch, marginal_report=report) == (verdict, [])
        if on_basis.feasible:
            # the basis witness misses the dropped rows' equations
            assert not dense_certifies(dense, p, on_basis)
        else:
            # a Farkas vector of some rows is one of all rows
            assert dense_certifies(dense, p, on_basis)
        return on_basis.feasible

    def test_marginal_selectivity_violation_certifies_without_a_solve(self, monkeypatch):
        # the first output's marginal moves with the second input's value
        ds = _signalling_2x2()
        design = ds.design
        # on the basis rows alone the dropped rows' equations would be lost:
        # that solve is feasible, and only the full-M check catches it
        p = build_p_vector(ds)
        wrong = solve_equality_feasibility(LftSystem(design), p, collins_gisin_rows(design))
        dense = dense_m(design)
        assert wrong.feasible and not dense_certifies(dense, p, wrong)
        assert self._check_signalling(ds, monkeypatch)
        # output 1 is 1 with 1/2 at (1, 1) and 1/3 at (1, 2): y is +1 on the
        # rows (1, 1) with o_1 = 1 and -1 on those of (1, 2), y'P = 1/6
        y = run_lft(ds).farkas
        assert y == (1, 1, 0, 0, -1, -1, 0, 0) + (0,) * 8 and sum(map(mul, y, p)) == F(1, 6)

    def _signalling_draws(self, design, seed, monkeypatch):
        """`_check_signalling` on classical data and lifted-PR-box mixtures
        with mass moved between two outcomes that differ in output 1 only, in
        one table, so that table's output-1 marginal differs from its
        neighbours'.  Returns the set of whether the basis-row solve looked
        feasible on each."""
        rng = random.Random(seed)
        looked_feasible = set()
        for _ in range(3):
            classical = gen_classical(design, seed=rng.randrange(10**9))[0]
            weight = F(rng.randint(1, 3), 4)
            mixture = mix_tables(weight, lifted_prbox(design), classical.tables)
            for tables in (classical.tables, mixture):
                tables = {tr: dict(table) for tr, table in tables.items()}
                table = tables[rng.choice(design.treatments)]
                src = max(table, key=lambda o: (table[o], o))
                dst = (src[0] % design.outcome_sizes[0] + 1,) + src[1:]
                delta = table[src] / rng.randint(2, 1000)
                table[src] -= delta
                table[dst] = table.get(dst, 0) + delta
                looked_feasible.add(self._check_signalling(Dataset(design, tables), monkeypatch))
        return looked_feasible

    @pytest.mark.parametrize(
        "ks, ms", [((2, 2), (2, 2)), ((2, 2), (3, 3)), ((3, 3), (2, 2)), ((2, 2, 2), (2, 2, 2))]
    )
    def test_signalling_matches_full_row_solve(self, ks, ms, monkeypatch):
        seed = len(ks) * 100 + ks[0] * 10 + ms[0] + 7
        assert self._signalling_draws(make_design(ks, ms), seed, monkeypatch) == {True, False}

    def test_signalling_on_a_non_factorial_design(self, monkeypatch):
        # every treatment shares its value of input 1 with another, so the
        # moved mass always breaks marginal selectivity
        treatments = [(1, 1), (1, 2), (2, 1), (2, 2), (2, 3), (3, 1), (3, 2)]
        design = make_design((3, 3), (2, 2), treatments)
        assert self._signalling_draws(design, 237, monkeypatch) == {True, False}


class TestSi2Model:
    def test_point_mass_single_atom(self):
        design = make_design((2,), (2,))
        q = QVector(design, (F(1), F(0), F(0), F(0)))
        model = construct_si2(q, design)
        assert len(model.atoms) == 1
        # the atom is Q's first column: outcome 1 at both values of the input
        assert model.atoms == ((F(1), (1, 1)),)

    def test_two_atom_mixture_simulates_average(self):
        design = make_design((2,), (2,))
        # assignments (1,1) and (2,2): H at value 1 / value 2 respectively
        q = QVector(design, (F(1, 2), F(0), F(0), F(1, 2)))
        model = construct_si2(q, design)
        ds = model.simulate()
        assert ds.table((1,)) == {(1,): F(1, 2), (2,): F(1, 2)}
        assert ds.table((2,)) == {(1,): F(1, 2), (2,): F(1, 2)}

    def test_witness_reproduces_dataset(self):
        rng = random.Random(5)
        for _ in range(20):
            design = random_small_design(rng, max_n=2, factorial=True)
            ds, _ = gen_classical(design, seed=rng.randrange(10**9))
            verdict = run_lft(ds)
            model = construct_si2(verdict.witness, design)
            assert model.simulate() == ds

    def test_unnormalized_rejected(self):
        design = make_design((2,), (2,))
        with pytest.raises(ValueError, match="sum"):
            construct_si2(QVector(design, (F(1, 2), F(0), F(0), F(0))), design)

    def test_negative_weight_rejected(self):
        # sums to 1, so only the sign check refuses it
        design = make_design((2,), (2,))
        with pytest.raises(ValueError, match="negative"):
            construct_si2(QVector(design, (F(3, 2), F(0), F(-1, 2), F(0))), design)
        with pytest.raises(ValueError, match="different design"):
            construct_si2(QVector(design, (F(1), F(0), F(0), F(0))), make_design((2,), (3,)))


class TestRestrictDesign:
    """A dataset restricted to a subset of its inputs, by `helpers.project`."""

    def test_nestedness(self):
        # selective influences on all inputs imply them on every subset: the
        # projection is well defined under marginal selectivity, checked first
        rng = random.Random(31)
        for _ in range(12):
            design = random_small_design(rng, max_n=3, max_m=2, factorial=True)
            ds, _ = gen_classical(design, seed=rng.randrange(10**9))
            assert run_lft(ds).feasible
            n = design.n
            subset = sorted(rng.sample(range(1, n + 1), rng.randint(1, n)))
            assert check_marginal_selectivity(ds).passed
            sub = project(ds, subset)
            assert run_lft(sub).feasible


def embed_in_ternary(ds: Dataset) -> Dataset:
    """Re-describe a binary-outcome dataset over ternary outcome alphabets
    (the third outcome carries zero mass, like a never-firing detector)."""
    design = ds.design
    new = make_design(design.input_sizes, tuple(3 for _ in range(design.n)),
                      treatments=design.treatments)
    return Dataset(new, {tr: dict(ds.table(tr)) for tr in design.treatments})


class TestTernaryEmbedding:
    def test_embedded_prbox_infeasible_on_36x81_system(self):
        emb = embed_in_ternary(gen_prbox())
        dense = dense_m(emb.design)
        assert (len(dense), len(dense[0])) == (36, 81)
        verdict = run_lft(emb)
        assert not verdict.feasible

    def test_embedded_classical_feasible_and_sound(self):
        ds, _ = gen_classical(make_design((2, 2), (2, 2)), seed=13)
        emb = embed_in_ternary(ds)
        verdict = run_lft(emb)
        assert verdict.feasible
        assert construct_si2(verdict.witness, emb.design).simulate() == emb

    def test_chain_slacks_unchanged_by_zero_mass_outcomes(self):
        from selinf.distances import (
            OrderRelation,
            chain_test,
            enumerate_irreducible_sequences,
            preset_order,
        )

        pr = gen_prbox()
        emb = embed_in_ternary(pr)
        seqs = enumerate_irreducible_sequences(pr.design, max_len=4)
        extra = frozenset({(1, 3), (2, 3)})
        for name in ("d1", "d2"):
            order = preset_order(pr.design, name)
            extended = OrderRelation(order.classes + (extra,))
            binary = chain_test(pr, order, seqs)
            ternary = chain_test(emb, extended, seqs)
            assert [r.slack for r in binary.records] == [r.slack for r in ternary.records]


class TestInvariance:
    def test_bijective_transform_preserves_verdict(self):
        pr = gen_prbox()
        maps = {(1, 2): {1: 2, 2: 1}, (2, 1): {1: 2, 2: 1}}
        assert not run_lft(transform_outputs(pr, maps)).feasible
        rng = random.Random(41)
        for _ in range(8):
            design = random_small_design(rng, max_n=2, factorial=True)
            ds, _ = gen_classical(design, seed=rng.randrange(10**9))
            maps = {}
            for lam in range(1, design.n + 1):
                m = design.outcome_sizes[lam - 1]
                for w in range(1, design.input_sizes[lam - 1] + 1):
                    perm = list(range(1, m + 1))
                    rng.shuffle(perm)
                    maps[(lam, w)] = {a: perm[a - 1] for a in range(1, m + 1)}
            assert run_lft(transform_outputs(ds, maps)).feasible

    def test_noninjective_transform_preserves_feasible(self):
        rng = random.Random(43)
        for _ in range(8):
            design = random_small_design(rng, max_n=2, factorial=True)
            ds, _ = gen_classical(design, seed=rng.randrange(10**9))
            maps = {}
            for lam in range(1, design.n + 1):
                m = design.outcome_sizes[lam - 1]
                for w in range(1, design.input_sizes[lam - 1] + 1):
                    maps[(lam, w)] = {
                        a: rng.randint(1, m) for a in range(1, m + 1)
                    }
            assert run_lft(transform_outputs(ds, maps)).feasible


class _Captured(Exception):
    """Stops a solve once phase one has been handed its pricer."""


def _capture_pricer(monkeypatch, system, p, rows):
    """The (b, n, price, column) that `system`'s phase one hands to
    `simplex`, or None if presolve decides."""
    seen = []

    def spy(b, n, price, column):
        seen.append((b, n, price, column))
        raise _Captured

    monkeypatch.setattr("selinf.lft.simplex", spy)
    try:
        solve_equality_feasibility(system, p, rows)
    except _Captured:
        pass
    monkeypatch.undo()
    return seen[0] if seen else None


def _mixed_p(design, rng):
    """P of a random sparse mixture of assignments, so zero cells (forbidden
    for the pricer) fall at random places but presolve cannot decide, or of
    independent random tables, full support or not; a list, which callers edit."""
    if rng.random() < 0.6:
        ds = gen_classical(design, seed=rng.randrange(10**9), max_support=rng.randint(1, 4))[0]
    else:
        ds = random_tables_dataset(design, rng, denom=rng.choice([1, 3, 12]))
    return list(build_p_vector(ds))


# factorial, non-factorial, one input (one empty front), an input with k = 1
# and a last output with m = 1
_SYSTEM_DESIGNS = [
    ((2, 2), (2, 2), None),
    ((3, 2), (2, 3), None),
    ((2, 2, 2), (2, 2, 2), None),
    ((3, 3), (2, 2), [(1, 1), (1, 3), (2, 2), (3, 1), (3, 2), (3, 3)]),
    ((2, 2, 2), (2, 3, 2), [(1, 1, 1), (1, 2, 2), (2, 1, 2), (2, 2, 1), (2, 2, 2)]),
    ((2, 3), (3, 2), [(1, 2), (2, 1), (2, 3)]),
    ((3,), (3,), None),
    ((1, 3), (3, 2), None),
    ((2, 1), (2, 3), None),
    ((2, 2), (3, 1), None),
]

# 3-atom classical data on these, alone or mixed with the lifted PR box,
# leave most fronts dead
_THREE_ATOM_DESIGNS = [((2, 2, 2), (3, 3, 3), None), ((2, 2, 2, 2), (2, 2, 2, 2), None)]


def _dual_sequence(rng, k, n):
    """Duals of length n for one pricer instance, in order: all zero (every
    front ties); entries in {-1, 0, 1} and single-row duals (fronts tie in
    classes); magnitudes rising by factors of 8 up to 2**300, with S = sum
    |dual| just below and above each width's bound k (4S + 1) < 2**(W-1)
    for W = 64, 128, 256; then shrinking again."""
    seq = [[0] * n]
    seq += [[rng.choice((-1, 0, 1)) for _ in range(n)] for _ in range(6)]
    seq += [[0] * q + [rng.choice((-2, -1, 1))] + [0] * (n - q - 1) for q in range(n)]
    for e in [*range(0, 301, 3), *range(300, -1, -9)]:
        seq.append([rng.randint(-4, 4) << e for _ in range(n)])
        if e in (0, 150, 300):
            for width in (64, 128, 256):
                bound = 2 ** (width - 1) // (4 * k)
                near = (bound * 2 // 3 + 1, bound * 9 // 10, bound - 1, bound, bound + 1)
                for target in (bound // 2, *near, 2 * bound):
                    raw = [rng.randint(-4, 4) for _ in range(n)]
                    if any(raw):
                        seq.append([v * (target // sum(map(abs, raw))) for v in raw])
    return seq


class TestLftSystem:
    """The structured system against dense references over `build_jdc_matrix`'s
    M: the presolve rule, a dense pricer and a Fraction tableau."""

    @pytest.mark.parametrize("ks, ms, treatments", _SYSTEM_DESIGNS)
    def test_pricing_matches_sparse(self, ks, ms, treatments, monkeypatch):
        design = make_design(ks, ms, treatments)
        dense, lft = dense_m(design), LftSystem(design)
        rng = random.Random(sum(ks) * 100 + sum(ms) * 10 + len(ks))
        masked = priced = 0
        for _ in range(12):
            p = _mixed_p(design, rng)
            rows = collins_gisin_rows(design) if rng.random() < 0.5 else None
            row, settled, _, forced = reference_presolve(dense, p)
            kept = [i for i in range(len(p)) if i not in settled and (rows is None or i in rows)]
            got = _capture_pricer(monkeypatch, lft, p, rows)
            assert (got is None) == (row >= 0 or not kept)
            if got is None:
                continue
            live = [j for j in range(lft.ncols) if j not in forced]
            masked += len(live) < lft.ncols
            cols = [[(k, 1) for k, i in enumerate(kept) if dense[i][j]] for j in live]
            scale = lcm(*(p[i].denominator for i in kept))
            assert got[0] == [int(p[i] * scale) for i in kept] and got[1] == lft.ncols
            price = dense_pricer(cols)
            for _ in range(20):
                dual = [rng.randint(-4, 4) * rng.choice([1, 7, 10**20]) for _ in kept]
                for bland in (False, True):
                    j, cost = price(dual, bland)
                    assert got[2](dual, bland) == ((live[j], cost) if j >= 0 else (-1, None))
                    priced += j >= 0
                    if j >= 0:
                        assert sorted(got[3](live[j])) == cols[j]
        assert priced and (masked or design.n == 1 or min(ms) == 1)

    @pytest.mark.parametrize("ks, ms, treatments", [*_SYSTEM_DESIGNS, ((4, 4), (2, 2), None), ((3, 3), (3, 3), None)])
    def test_packed_pricing_matches_front_by_front(self, ks, ms, treatments, monkeypatch):
        # one pricer instance per P, fed `_dual_sequence`: its digits widen
        # past 64, 128 and 256 bits and the duals shrink again, so a stale
        # width or layout, a misplaced guard bit or a wrong tie shows as a
        # (column, cost) or a column that differs from the front-by-front loop
        design = make_design(ks, ms, treatments)
        lft = LftSystem(design)
        rng = random.Random(sum(ks) * 100 + sum(ms) * 10 + len(ks) + 1)
        k = design.input_sizes[-1]
        draws = [_mixed_p(design, rng) for _ in range(3)]
        if ks == (3, 3) and ms == (3, 3):  # zero cells: most fronts dead
            draws = [list(build_p_vector(gen_classical(design, seed=s, max_support=3)[0])) for s in (3, 4)]
        priced = dead = 0
        for p in draws:
            rows = collins_gisin_rows(design) if rng.random() < 0.5 else None
            got = _capture_pricer(monkeypatch, lft, p, rows)
            if got is None:
                continue
            pre = lft.presolve(p)
            basis = range(lft.nrows) if rows is None else set(rows)
            kept = [i for i in range(lft.nrows) if p[i] and i in basis]
            price, column = reference_front_pricer(lft, kept, pre)
            dead += any(len(fw) < ms[-1] for fs in pre.free if all(fs) for fw in fs)
            for dual in _dual_sequence(rng, k, len(kept)):
                for bland in (False, True):
                    want = price(dual, bland)
                    assert got[2](dual, bland) == want
                    if want[0] >= 0:
                        priced += 1
                        assert got[3](want[0]) == column(want[0])
        assert priced and (dead or ms[-1] == 1)

    @pytest.mark.parametrize("ks, ms, treatments", _SYSTEM_DESIGNS + _THREE_ATOM_DESIGNS)
    def test_presolve_matches_sparse(self, ks, ms, treatments):
        design = make_design(ks, ms, treatments)
        dense, lft = dense_m(design), LftSystem(design)
        decided = dead = seen = 0
        if (ks, ms, treatments) in _THREE_ATOM_DESIGNS:  # most fronts dead
            draws = _presolve_draws(design, 12, _three_atoms_or_box)
        else:
            draws = _presolve_draws(design)
        for p in draws:
            row, settled, fired, forced = reference_presolve(dense, p)
            got = lft.presolve(p)
            assert got.infeasible_row == row and got.fired() == fired
            decided += row >= 0
            if row < 0:
                assert settled == {i for i, v in enumerate(p) if not v}
                # the forced columns: those with a last slot outside `free`
                width = lft.ncols // len(got.free)
                slots = (design.outcome_sizes[-1],) * design.input_sizes[-1]
                live = {j for j in range(lft.ncols) if all(
                    a - 1 in fw for a, fw in zip(mixed_radix_digits(j % width, slots), got.free[j // width])
                )}
                assert live == set(range(lft.ncols)) - forced
                # `free` exactly: per live front, slot by slot, the outcomes
                # of its live columns; an empty list per slot on a dead front
                want = [[set() for _ in slots] for _ in got.free]
                for j in live:
                    for w, a in enumerate(mixed_radix_digits(j % width, slots)):
                        want[j // width][w].add(a - 1)
                assert got.free == [[sorted(fw) for fw in front] for front in want]
                dead += sum(not front[0] for front in want)
                seen += len(want)
            assert solve_equality_feasibility(lft, p) == reference_solve(dense, p)
        assert decided or design.n == 1 or min(ms) == 1
        assert 2 * dead > seen or (ks, ms, treatments) not in _THREE_ATOM_DESIGNS
        with pytest.raises(ValueError, match="negative"):
            lft.presolve([F(-1)] + p[1:])

    def test_presolve_defers_to_phase_one(self):
        # on some of `test_presolve_matches_sparse`'s draws presolve decides
        # nothing, phase one ends infeasible, and its Farkas vector reads the
        # fired rows, which that test checks against `reference_solve`
        deferred = 0
        for ks, ms, treatments in _SYSTEM_DESIGNS:
            lft = LftSystem(make_design(ks, ms, treatments))
            for p in _presolve_draws(lft.design):
                pre = lft.presolve(p)
                if pre.infeasible_row < 0 and pre.fired():
                    deferred += not solve_equality_feasibility(lft, p).feasible
        assert deferred


class TestDeferredSweeps:
    """`LftSystem._sweeps`, the presolve rule, runs only when a row with
    P > 0 meets no column free of zero rows, or when a Farkas vector reads
    the fired rows, and then once."""

    @staticmethod
    def _count(monkeypatch) -> list:
        calls = []
        sweeps = LftSystem._sweeps

        def counted(self, P):
            calls.append(P)
            return sweeps(self, P)

        monkeypatch.setattr(LftSystem, "_sweeps", counted)
        return calls

    def test_feasible_data_skip_them(self, monkeypatch):
        ds = gen_classical(make_design((4, 4), (3, 3)), seed=3, max_support=3)[0]
        assert sum(not v for v in build_p_vector(ds)) == 100
        calls = self._count(monkeypatch)
        assert run_lft(ds).feasible and not calls

    def test_decided_in_presolve_once(self, monkeypatch):
        calls = self._count(monkeypatch)
        verdict = run_lft(gen_prbox())
        assert not verdict.feasible and verdict.pivots == 0 and len(calls) == 1

    def test_fired_rows_read_once(self, monkeypatch):
        # `TestPinnedPresolve`'s mixture: presolve decides nothing, phase one
        # ends infeasible, and the Farkas vector reads the fired rows
        design = make_design((2, 2), (3, 3))
        classical = gen_classical(design, seed=2, max_support=3)[0]
        ds = Dataset(design, mix_tables(F(1, 2), lifted_prbox(design), classical.tables))
        calls = self._count(monkeypatch)
        verdict = run_lft(ds)
        assert not verdict.feasible and verdict.pivots == 6 and len(calls) == 1
        fired = LftSystem(design).presolve(build_p_vector(ds)).fired()
        assert fired == (1, 3, 5, 6, 7, 8, 12, 14, 19, 23, 24, 25, 26, 27, 29)
        assert len(calls) == 2


# designs whose dense M is too large for `reference_presolve`, and
# non-factorial subsets of three of them
_PINNED_PRESOLVE_DESIGNS = [
    ((4, 4), (3, 3), None),
    ((3, 3, 3), (2, 2, 2), None),
    ((2, 2, 2, 2), (2, 2, 2, 2), None),
    ((2, 2, 2), (4, 4, 4), None),
    ((3, 3, 3), (3, 3, 3), None),
    ((2, 2, 2, 2), (2, 2, 2, 2), [t for i, t in enumerate(product((1, 2), repeat=4)) if i % 4 != 3]),
    ((3, 3, 3), (2, 2, 2), [t for t in product((1, 2, 3), repeat=3) if sum(t) % 3]),
    ((4, 4), (3, 3), [t for t in product((1, 2, 3, 4), repeat=2) if t[0] != t[1] or t[0] < 3]),
]


class TestPinnedPresolveRule:
    """`presolve`'s (infeasible row, fired rows) where no dense reference
    fits, pinned as the per-front sweeps gave them: the lifted PR box, its
    mixtures with 3-atom data at 1/2, 1/5 and 4/5, 3-atom data as drawn
    and with one cell's mass moved."""

    def test_pinned(self):
        lines = []
        first = second = deferred = 0
        for ks, ms, treatments in _PINNED_PRESOLVE_DESIGNS:
            design = make_design(ks, ms, treatments)
            lft = LftSystem(design)
            rng = random.Random(sum(ks) * 100 + sum(ms) + len(treatments or ()))
            box = lifted_prbox(design)
            draws = [build_p_vector(Dataset(design, box))]
            for weight in (F(1, 2), F(1, 5), F(4, 5)):
                draws.append(build_p_vector(Dataset(design, mix_tables(weight, box, _three_atoms(design, rng).tables))))
            draws.append(build_p_vector(_three_atoms(design, rng)))
            for _ in range(3):
                draws.append(_move_mass(list(build_p_vector(_three_atoms(design, rng))), design, rng))
            for p in draws:
                pre = lft.presolve(p)
                row, fired = pre.infeasible_row, pre.fired()
                lines.append(f"{row} {fired}")
                # the first sweep stops at its row; the second reads every zero row
                first += row >= 0 and max(fired, default=-1) < row
                second += row >= 0 and max(fired, default=-1) > row
                deferred += row < 0 and bool(fired)
        assert first and second and deferred
        assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == (
            "d3679d9f4f572a645198a684b0984e6d98c5370b8da032f8d5a50ee71f393366"
        )


def _presolve_draws(design, count=25, sample=None):
    """`count` P vectors of `sample(design, rng)` (`_mixed_p` if None), some
    with a positive cell zeroed and its mass put on another cell of its
    table (`_move_mass`); seeded by the design's sizes."""
    rng = random.Random(sum(design.input_sizes) * 100 + sum(design.outcome_sizes))
    for _ in range(count):
        p = (sample or _mixed_p)(design, rng)
        if rng.random() < 0.3:
            _move_mass(p, design, rng)
        yield p


def _move_mass(p, design, rng):
    """Zero a random positive cell of P, a list, and add its mass to a random
    cell of its table (maybe itself)."""
    block = len(p) // len(design.treatments)
    i = rng.choice([i for i, v in enumerate(p) if v])
    j = i - i % block + rng.randrange(block)
    if j != i:
        p[j], p[i] = p[j] + p[i], F(0)
    return p


def _three_atoms(design, rng):
    return gen_classical(design, seed=rng.randrange(10**9), max_support=3)[0]


def _three_atoms_or_box(design, rng):
    """P of 3-atom data, or of the lifted PR box mixed with it, at weight 1/5
    to 1 (the box alone): zero rows of both kinds, most fronts dead."""
    atoms = _three_atoms(design, rng)
    if rng.random() < 0.5:
        atoms = Dataset(design, mix_tables(F(rng.randint(1, 5), 5), lifted_prbox(design), atoms.tables))
    return list(build_p_vector(atoms))


def _shift_mass(ds, rng):
    """Signalling data: mass moved between two outcomes of one table that
    differ in output 1 only."""
    design = ds.design
    tables = {tr: dict(t) for tr, t in ds.tables.items()}
    table = tables[rng.choice(design.treatments)]
    src = max(table, key=lambda o: (table[o], o))
    dst = (src[0] % design.outcome_sizes[0] + 1,) + src[1:]
    delta = table[src] / rng.randint(2, 1000)
    table[src] -= delta
    table[dst] = table.get(dst, 0) + delta
    return Dataset(design, tables)


class TestRunLftWithoutM:
    def test_matches_sparse_path_field_for_field(self, monkeypatch):
        # verdict, pivots, Farkas vector and witness of the 24 marginally
        # selective cases, recorded from phase one over the stored sparse M;
        # the 16 signalling cases take `marginal_farkas`, with no solve
        rng = random.Random(1961)
        cases = []
        for ks, ms in (((2, 2), (2, 2)), ((2, 2), (3, 3)), ((3, 3), (2, 2)), ((2, 2, 2), (2, 2, 2))):
            design = make_design(ks, ms)
            for _ in range(2):
                classical = gen_classical(design, seed=rng.randrange(10**9))[0]
                mixture = Dataset(design, mix_tables(F(rng.randint(1, 3), 4), lifted_prbox(design), classical.tables))
                three = _three_atoms(design, rng)
                cases += [(classical, False), (mixture, False), (three, False),
                          (_shift_mass(classical, rng), True), (_shift_mass(mixture, rng), True)]

        def refuse(*args, **kwargs):
            raise AssertionError("run_lft built M")

        monkeypatch.setattr("selinf.lft.build_jdc_matrix", refuse)
        calls = []

        def spy(m, p, row_basis=None):
            calls.append(row_basis)
            return solve_equality_feasibility(m, p, row_basis)

        monkeypatch.setattr("selinf.lft.solve_equality_feasibility", spy)
        lines = []
        for ds, signalling in cases:
            calls.clear()
            verdict = run_lft(ds)
            # at most one solve, always on the basis rows
            assert calls == ([] if signalling else [collins_gisin_rows(ds.design)])
            if signalling:
                violation = check_marginal_selectivity(ds).violations[0]
                y = marginal_farkas(ds.design, build_p_vector(ds), violation)
                assert verdict == LftVerdict(ds.design, False, None, y, 0, None, violation)
                continue
            witness = verdict.witness.values if verdict.feasible else ()
            lines.append(";".join([
                str(int(verdict.feasible)), str(verdict.pivots), str(len(calls) - 1),
                ",".join(map(format_exact, verdict.farkas or ())), ",".join(map(format_exact, witness)),
            ]))
        assert len(lines) == 24 and {line[0] for line in lines} == {"0", "1"}
        assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == (
            "ac8396085d490b557528e93fb0b3ac075dac594a6975d3bd0dab21f059e31826"
        )

    def test_column_guard(self):
        ds = gen_classical(make_design((2, 2), (3, 3)), seed=4)[0]  # 81 assignments
        with pytest.raises(SizeGuardError, match="--column-guard"):
            run_lft(ds, column_guard=80)
        assert run_lft(ds, column_guard=81).feasible


class TestVerificationWithoutM:
    """`verify_certificate` on `LftSystem` (simulated atoms, enumerated
    assignments) against plain arithmetic on the full M."""

    @staticmethod
    def _results(count):
        rng = random.Random(200)
        designs = [make_design((2, 2), (2, 2)), make_design((2, 3), (3, 2)),
                   make_design((2, 2, 2), (2, 2, 2)), make_design((3,), (2,)),
                   make_design((3, 3), (2, 2), [(1, 1), (1, 2), (2, 2), (2, 3), (3, 1), (3, 3)])]
        while count:
            design = rng.choice(designs)
            classical = gen_classical(design, seed=rng.randrange(10**9), max_support=rng.randint(1, 6))[0]
            ds = classical
            if design.n > 1 and rng.random() < 0.5:
                ds = Dataset(design, mix_tables(F(rng.randint(1, 3), 4), lifted_prbox(design), classical.tables))
            if design.n > 1 and rng.random() < 0.3:
                ds = _shift_mass(ds, rng)
            yield ds, run_lft(ds)
            count -= 1

    def test_agrees_with_full_m_and_rejects_corruptions(self):
        rng = random.Random(7)
        rejected = {"moved": 0, "negative": 0, "flipped": 0}
        for ds, verdict in self._results(200):
            p = build_p_vector(ds)
            dense, lft = dense_m(ds.design), LftSystem(ds.design)
            variants = []
            if verdict.feasible:
                q = list(verdict.witness.values)
                variants.append(("good", FeasibilityResult(True, tuple(q), None, 0)))
                support = [j for j, v in enumerate(q) if v]
                if len(support) > 1:
                    a, b = rng.sample(support, 2)
                    moved = list(q)
                    moved[a], moved[b] = moved[a] - q[a] / 2, moved[b] + q[a] / 2
                    variants.append(("moved", FeasibilityResult(True, tuple(moved), None, 0)))
                negative = list(q)
                negative[rng.randrange(len(q))] = F(-1, 7)
                variants.append(("negative", FeasibilityResult(True, tuple(negative), None, 0)))
            else:
                y = list(verdict.farkas)
                variants.append(("good", FeasibilityResult(False, None, tuple(y), 0)))
                for i in [i for i, v in enumerate(y) if v]:
                    flipped = list(y)
                    flipped[i] = -flipped[i]
                    variants.append(("flipped", FeasibilityResult(False, None, tuple(flipped), 0)))
            for kind, result in variants:
                ok = verify_certificate(lft, p, result)
                assert ok == dense_certifies(dense, p, result)
                assert ok == (kind == "good") or kind == "flipped"
                rejected[kind] = rejected.get(kind, 0) + (not ok)
        assert rejected["good"] == 0 and all(rejected[k] > 10 for k in ("moved", "negative", "flipped"))


class TestChecksAgainstOracles:
    """`verify_certificate`, whose checks read the design's slot readers,
    against the checks it replaced, which simulate one outcome tuple per
    atom and treatment and enumerate one assignment at a time
    (`helpers.reference_verify`): on the solver's certificates and on
    planted defects that both must reject."""

    @staticmethod
    def _agree(lft, p, result):
        ok = verify_certificate(lft, p, result)
        assert ok == reference_verify(lft, p, result)
        return ok

    def _check(self, lft, p, result, rng, planted):
        """The certificate verifies, and each defect planted in it or in P
        fails both checks; the kinds planted are counted in `planted`."""
        assert self._agree(lft, p, result)
        if not result.feasible:
            y = list(result.farkas)
            k = max(range(len(y)), key=lambda i: abs(y[i]))
            y[k] = -y[k]
            self._agree(lft, p, FeasibilityResult(False, None, tuple(y), 0))
            return
        q = list(result.witness)
        support = [j for j, v in enumerate(q) if v]
        if len(support) > 1:
            a, b = rng.sample(support, 2)
            moved = list(q)
            moved[a], moved[b] = q[a] / 2, q[b] + q[a] / 2
            assert not self._agree(lft, p, FeasibilityResult(True, tuple(moved), None, 0))
            planted["moved weight"] += 1
        m = lft.design.outcome_sizes[-1]
        if m > 1:
            # the atom's last slot one outcome over
            j = rng.choice(support)
            near = list(q)
            near[j + 1 if j % m < m - 1 else j - 1] += near[j]
            near[j] = F(0)
            assert not self._agree(lft, p, FeasibilityResult(True, tuple(near), None, 0))
            planted["moved atom"] += 1
        # one treatment's block of P moved by 1/scale between two of its rows
        scale, block = lcm(*(v.denominator for v in p)), len(p) // len(lft.design.treatments)
        i = rng.choice([i for i, v in enumerate(p) if v])
        other = i - i % block + (i % block + rng.randrange(1, block)) % block if block > 1 else None
        if other is not None:
            bad = list(p)
            bad[i] -= F(1, scale)
            bad[other] += F(1, scale)
            assert not self._agree(lft, bad, result)
            planted["P moved"] += 1

    def test_system_designs(self):
        rng = random.Random(31)
        planted = defaultdict(int)
        for ks, ms, treatments in _SYSTEM_DESIGNS:
            lft = LftSystem(make_design(ks, ms, treatments))
            for p in _presolve_draws(lft.design):
                for rows in (None, collins_gisin_rows(lft.design)):
                    result = solve_equality_feasibility(lft, p, rows)
                    if rows is None:
                        self._check(lft, p, result, rng, planted)
                    else:
                        self._agree(lft, p, result)
        assert min(planted.values()) > 50 and len(planted) == 3, planted

    @pytest.mark.parametrize("ks, ms", [((3, 3), (3, 3)), ((3, 3, 3), (2, 2, 2)), ((4, 4), (3, 3)), ((2, 2, 2, 2), (2, 2, 2, 2))])
    def test_dense_ladder_and_signalling_data(self, ks, ms):
        rng = random.Random(sum(ks) + 10 * sum(ms))
        planted = defaultdict(int)
        design = make_design(ks, ms)
        lft = LftSystem(design)
        classical = gen_classical(design, seed=3)[0]
        verdicts = set()
        for ds in (classical, _shift_mass(classical, rng), _shift_mass(_three_atoms(design, rng), rng)):
            verdict = run_lft(ds)
            verdicts.add(verdict.feasible)
            witness = verdict.witness.values if verdict.feasible else None
            self._check(lft, build_p_vector(ds), FeasibilityResult(verdict.feasible, witness, verdict.farkas, 0), rng, planted)
        assert verdicts == {True, False} and len(planted) == 3, planted

    def test_uniform_witness_over_a_finer_scale(self):
        # four atoms of weight 1/4 give P = 1/2 everywhere: the sums, in
        # quarters, equal P, in halves, only cross-multiplied.  Atoms (1, 1)
        # and (2, 2) at 1/2 give it too; (1, 1) and (1, 2) do not
        lft = LftSystem(make_design((2,), (2,)))
        p = [F(1, 2)] * 4
        assert self._agree(lft, p, FeasibilityResult(True, (F(1, 4),) * 4, None, 0))
        assert self._agree(lft, p, FeasibilityResult(True, (F(1, 2), F(0), F(0), F(1, 2)), None, 0))
        assert not self._agree(lft, p, FeasibilityResult(True, (F(1, 2), F(1, 2), F(0), F(0)), None, 0))

    @pytest.mark.parametrize("block", [lft.FARKAS_BLOCK, 4])
    def test_farkas_check_reaches_the_last_block(self, block, monkeypatch):
        # y is -1 on every row except those of the last assignment h*, all
        # outcomes m: 0 there, and +1/2 on h*'s row of the first treatment.
        # Only h* has y'M > 0, and h* is the last assignment the check
        # enumerates; P is h*'s own tables, so y'P = 1/2.  Without the
        # +1/2, y'M <= 0 everywhere and y'P = 0: no certificate either
        monkeypatch.setattr(lft, "FARKAS_BLOCK", block)
        for ks, ms in [((4, 4), (3, 3)), ((2, 2), (2, 2)), ((2, 2, 2), (2, 2, 2)), ((3,), (3,))]:
            design = make_design(ks, ms)
            system = LftSystem(design)
            assert q_length(design) > block or block == lft.FARKAS_BLOCK
            last = prod(design.outcome_sizes) - 1  # the row of outcomes (m_1, ..., m_n)
            block_size = prod(design.outcome_sizes)
            y = [F(0) if i % block_size == last else F(-1) for i in range(p_length(design))]
            p = [F(int(i % block_size == last)) for i in range(p_length(design))]
            y[last] = F(1, 2)
            result = FeasibilityResult(False, None, tuple(y), 0)
            assert not self._agree(system, p, result)
            assert sum(v * w for v, w in zip(y, p)) > 0 and not system.bounded({i: int(2 * v) for i, v in enumerate(y) if v})
            y[last] = F(0)
            assert not self._agree(system, p, FeasibilityResult(False, None, tuple(y), 0))
            assert sum(v * w for v, w in zip(y, p)) == 0 and system.bounded({i: int(v) for i, v in enumerate(y) if v})


@cache
def _chain_cases():
    """(dataset, its order relations, its irreducible sequences, phase one's
    verdict, P, the dense M) over factorial and non-factorial designs:
    PR-box mixtures, signalling tables and classical data."""
    rng = random.Random(1982)
    designs = [make_design((2, 2), (2, 2)), make_design((2, 2), (3, 3)), make_design((3, 3), (2, 2)),
               make_design((2, 2, 2), (2, 2, 2)), make_design((2, 3), (3, 2)),
               make_design((3, 3), (2, 2), [(1, 1), (1, 2), (2, 2), (2, 3), (3, 1), (3, 3)])]
    cases = []
    for design in designs:
        dense = dense_m(design)
        sequences = enumerate_irreducible_sequences(design)
        for _ in range(6):
            classical = gen_classical(design, seed=rng.randrange(10**9), max_support=rng.randint(1, 6))[0]
            mixture = Dataset(design, mix_tables(F(rng.randint(1, 3), 4), lifted_prbox(design), classical.tables))
            orders = [preset_order(design, "d1"), preset_order(design, "d2"), random_order(design, rng)]
            for ds in (mixture, _shift_mass(mixture, rng), random_tables_dataset(design, rng), classical):
                cases.append((ds, orders, sequences, run_lft(ds), build_p_vector(ds), dense))
    return cases


class TestChainRoute:
    """`run_lft` handed a failing chain: the chain's y against plain
    arithmetic on the full M and against phase one on the same data."""

    @staticmethod
    def _certifies(ds, p, dense, y):
        result = FeasibilityResult(False, None, y, 0)
        ok = verify_certificate(LftSystem(ds.design), p, result)
        assert ok == dense_certifies(dense, p, result)
        return ok

    def test_every_chain_vector_verifies_and_matches_phase_one(self):
        routed = checked = 0
        for ds, orders, sequences, plain, p, dense in _chain_cases():
            assert plain.chain_failure is None
            for order in orders:
                failures = chain_test(ds, order, sequences).failures()
                for record in failures:
                    assert self._certifies(ds, p, dense, chain_farkas(ds.design, order, record))
                    checked += 1
                if failures:
                    assert not plain.feasible
                    verdict = run_lft(ds, chain_failure=(order, failures[0]))
                    y = chain_farkas(ds.design, order, failures[0])
                    assert verdict == LftVerdict(ds.design, False, None, y, 0, (order, failures[0]))
                    routed += 1
        assert routed > 50 and checked > 200

    def test_corrupted_records_fall_back_to_phase_one(self):
        kinds = {"passing": 0, "flipped": 0, "moved": 0}
        rejected = dict.fromkeys(kinds, 0)
        for ds, orders, sequences, plain, p, dense in _chain_cases():
            design = ds.design
            for order in orders:
                report = chain_test(ds, order, sequences)
                variants = []
                held = [q for q, slack in zip(sequences, report.slacks) if slack >= 0][:1]
                if order is orders[0] and held:
                    variants.append(("passing", chain_test(ds, order, held).records[0]))
                for r in report.failures()[:1]:
                    # the endpoint enters with -1 and a link with +1
                    variants.append(("flipped", r._replace(endpoint=r.links[0], links=(r.endpoint, *r.links[1:]))))
                    # a link read in a treatment that does not hold its pair
                    (l1, w1), (l2, w2) = r.links[1].pair
                    other = next(t for t in design.treatments if (t[l1 - 1], t[l2 - 1]) != (w1, w2))
                    links = list(r.links)
                    links[1] = links[1]._replace(treatment=other)
                    variants.append(("moved", r._replace(links=tuple(links))))
                for kind, record in variants:
                    verdict = run_lft(ds, chain_failure=(order, record))
                    if self._certifies(ds, p, dense, chain_farkas(design, order, record)):
                        # y'P = -slack <= 0 on a passing chain; a corrupted
                        # vector that still certifies is a Farkas vector all
                        # the same, and `run_lft` may keep it
                        assert kind != "passing" and not plain.feasible and verdict.pivots == 0
                    else:
                        assert verdict == plain
                        rejected[kind] += 1
                    kinds[kind] += 1
        assert min(kinds.values()) > 50 and all(rejected[k] > 0.8 * kinds[k] for k in kinds), (rejected, kinds)

    def test_prbox_verdict_and_report(self):
        pr = gen_prbox()
        order = preset_order(pr.design, "d1")
        record = chain_test(pr, order, enumerate_irreducible_sequences(pr.design)).failures()[0]
        verdict = run_lft(pr, chain_failure=(order, record))
        assert verdict.pivots == 0 and not verdict.feasible
        doc = verdict.to_json_dict()
        assert doc["farkas_source"] == {
            "stage": "chain-tests", "order": "d1", "points": [list(p) for p in record.sequence.points],
        }
        assert doc["farkas"] == list(map(format_exact, chain_farkas(pr.design, order, record)))
        # y'P is minus the chain's slack
        p = build_p_vector(pr)
        assert sum(y * v for y, v in zip(verdict.farkas, p)) == -record.slack
        assert "farkas_source" not in run_lft(pr).to_json_dict()


def _signalling_2x2():
    """Output 1's marginal moves with input 2's value at input 1 = 1: it is
    1 with 1/2 under (1, 1) and 1/3 under (1, 2)."""
    design = make_design((2, 2), (2, 2))
    tables = {}
    for i, j in design.treatments:
        p1 = F(1, 3) if (i, j) == (1, 2) else F(1, 2)
        tables[(i, j)] = {(a, b): (p1 if a == 1 else 1 - p1) * F(1, 2) for a in (1, 2) for b in (1, 2)}
    return Dataset(design, tables)


class TestMarginalRoute:
    """`marginal_farkas` on signalling data, factorial and not: each
    violation's y against plain arithmetic on the full M and
    `helpers.reference_verify`, and defects planted in it that every check
    must reject."""

    @staticmethod
    def _checks(ds, p, y):
        """Whether y certifies MQ = P, by all three checks, which must agree."""
        result = FeasibilityResult(False, None, tuple(y), 0)
        system = LftSystem(ds.design)
        ok = verify_certificate(system, p, result)
        assert ok == reference_verify(system, p, result) == dense_certifies(dense_m(ds.design), p, result)
        return ok

    @staticmethod
    def _y(design, subset, ta, tb, o_s, sign):
        """y by hand: `sign` on ta's rows whose outcomes on `subset` are o_s,
        -sign on tb's."""
        outcomes = list(design.all_outcomes())
        y = [F(0)] * p_length(design)
        for tr, s in ((ta, sign), (tb, -sign)):
            row = design.treatments.index(tr) * len(outcomes)
            for i, o in enumerate(outcomes):
                if tuple(o[l - 1] for l in subset) == o_s:
                    y[row + i] += s
        return tuple(y)

    def test_planted_defects_fail_verification(self):
        rng = random.Random(34)
        designs = [make_design((2, 2), (2, 2)), make_design((2, 2), (3, 3)), make_design((2, 2, 2), (2, 2, 2)),
                   make_design((3, 3), (2, 2), [(1, 1), (1, 2), (2, 1), (2, 2), (2, 3), (3, 1), (3, 2)]),
                   make_design((2, 3), (3, 2), [(1, 2), (2, 1), (2, 3), (1, 3)])]
        planted = defaultdict(int)
        for design in designs:
            outcomes = list(design.all_outcomes())
            for _ in range(3):
                classical = gen_classical(design, seed=rng.randrange(10**9))[0]
                mixture = Dataset(design, mix_tables(F(1, 2), lifted_prbox(design), classical.tables))
                for ds in (_shift_mass(classical, rng), _shift_mass(mixture, rng), random_tables_dataset(design, rng)):
                    p = build_p_vector(ds)
                    for v in check_marginal_selectivity(ds).violations[:4]:
                        (subset, a, b, _), y = v, marginal_farkas(design, p, v)
                        ma, mb = marginal(ds, a, subset), marginal(ds, b, subset)
                        # the outcomes on S in P's order, each with p_a - p_b
                        keys = dict.fromkeys(tuple(o[l - 1] for l in subset) for o in outcomes)
                        diff = {k: ma.get(k, 0) - mb.get(k, 0) for k in keys}
                        o_s = next(k for k, d in diff.items() if d)
                        assert y == self._y(design, subset, a, b, o_s, 1 if diff[o_s] > 0 else -1)
                        assert self._checks(ds, p, y) and sum(map(mul, y, p)) == abs(diff[o_s])
                        assert not self._checks(ds, p, [-e for e in y])
                        planted["flipped sign"] += 1
                        for k in [k for k, d in diff.items() if not d][:1]:
                            for sign in (1, -1):
                                assert not self._checks(ds, p, self._y(design, subset, a, b, k, sign))
                            planted["agreeing o_S"] += 1
                        away = [t for t in design.treatments
                                if any(t[l - 1] != a[l - 1] for l in subset) and marginal(ds, t, subset) != ma]
                        for c in away[:1]:
                            assert not self._checks(ds, p, marginal_farkas(design, p, v._replace(treatment_b=c)))
                            planted["treatments differ on S"] += 1
        assert min(planted.values()) > 10 and len(planted) == 3, planted

    def test_chain_route_goes_first(self, tmp_path, capsys):
        # data that fail both stages keep the chain's certificate; without a
        # chain failure the marginal stage's is taken
        both = 0
        for ds, orders, sequences, plain, p, dense in _chain_cases():
            report = check_marginal_selectivity(ds)
            if report.passed:
                assert plain.marginal_violation is None
                continue
            assert plain == run_lft(ds, marginal_report=report)
            assert plain.marginal_violation == report.violations[0] and plain.pivots == 0
            for order in orders:
                for record in chain_test(ds, order, sequences).failures()[:1]:
                    verdict = run_lft(ds, chain_failure=(order, record), marginal_report=report)
                    y = chain_farkas(ds.design, order, record)
                    assert verdict == LftVerdict(ds.design, False, None, y, 0, (order, record))
                    both += 1
        assert both > 20
        # end to end: the PR box with one table's output-1 marginal moved
        pr = gen_prbox()
        tables = {tr: dict(t) for tr, t in pr.tables.items()}
        tables[1, 1][1, 1] -= F(1, 10)
        tables[1, 1][2, 1] = F(1, 10)
        path = str(tmp_path / "pr.json")
        dump_dataset(Dataset(pr.design, tables), path)
        assert main(["test", path, "--json"]) == 1
        stages = {s["name"]: s for s in json.loads(capsys.readouterr().out)["stages"]}
        assert stages["marginal-selectivity"]["status"] == stages["chain-tests"]["status"] == "fail"
        assert stages["lft"]["detail"]["farkas_source"]["stage"] == "chain-tests"

    def test_a_failed_verification_raises(self, monkeypatch):
        # a report of other data: on marginally selective data its violation
        # gives y = 0, and a passing report sends signalling data to phase
        # one, whose basis-row witness fails the dropped rows
        signalling = _signalling_2x2()
        report = check_marginal_selectivity(signalling)
        classical = gen_classical(signalling.design, seed=5)[0]
        assert not any(marginal_farkas(classical.design, build_p_vector(classical), report.violations[0]))
        with pytest.raises(RuntimeError, match="failed verification"):
            run_lft(classical, marginal_report=report)
        with pytest.raises(RuntimeError, match="failed verification"):
            run_lft(signalling, marginal_report=check_marginal_selectivity(classical))
        calls = []
        monkeypatch.setattr("selinf.lft.check_marginal_selectivity", lambda ds: calls.append(ds) or report)
        assert run_lft(signalling).marginal_violation == report.violations[0] and calls == [signalling]


# the per-process caches of tables derived from a design alone
DESIGN_TABLES = (
    lft.slot_bases,
    lft.q_slot_offsets,
    lft._front_cells,
    lft._cell_masks,
    lft._slot_readers,
    lft._collins_gisin_rows,
    distances._irreducible_sequences,
    distances.preset_order,
    experiment._marginal_groups,
)


def _clear_design_tables():
    for table in DESIGN_TABLES:
        table.cache_clear()
    distances._pair_realizers.cache_clear()
    distances._PLANS.clear()


class TestDesignTables:
    """Tables that depend on the design alone are built once per design per
    process, and every request reports what it reports in a fresh process."""

    @staticmethod
    def _write(tmp_path, name, dataset):
        path = str(tmp_path / name)
        dump_dataset(dataset, path)
        return ["test", path, "--json"]

    @staticmethod
    def _request(argv, capsys):
        code = main(argv)
        return (code, *capsys.readouterr())

    def _alone(self, argvs, capsys):
        """Each request as a fresh process runs it: with every table empty."""
        reports = []
        for argv in argvs:
            _clear_design_tables()
            reports.append(self._request(argv, capsys))
        return reports

    def test_each_table_built_once_per_design(self, tmp_path, capsys):
        # full-support data, whose presolve reads no cell masks, and 3-atom
        # data on the same design, whose presolve does
        design = make_design((3, 3), (2, 2))
        argv = self._write(tmp_path, "classical.json", gen_classical(design, seed=5)[0])
        sparse = self._write(tmp_path, "sparse.json", gen_classical(design, seed=5, max_support=3)[0])
        _clear_design_tables()
        reports = [self._request(argv, capsys) for _ in range(3)]
        assert reports[0][0] == 0 and reports == reports[:1] * 3
        reports = [self._request(sparse, capsys) for _ in range(3)]
        assert reports[0][0] == 0 and reports == reports[:1] * 3
        for table in DESIGN_TABLES:
            # one entry per design, and per name for the two preset orders
            built = 2 if table is distances.preset_order else 1
            info = table.cache_info()
            assert (info.misses, info.currsize) == (built, built), (table, info)
            # the slot offsets are read once each by the builds of the front
            # cells and of the slot readers, which hold the per-request reads
            assert info.hits == 1 if table is lft.q_slot_offsets else info.hits >= 2, (table, info)
        # the pair table: built by the first request's enumeration, read by its plan
        info = distances._pair_realizers.cache_info()
        assert (info.misses, info.hits, info.currsize) == (1, 1, 1), info
        # one chain plan, built by the first request and read by the others
        (plan,) = distances._PLANS.values()
        self._request(argv, capsys)
        (again,) = distances._PLANS.values()
        assert again is plan

    def test_same_shape_different_labels(self, tmp_path, capsys):
        plain = make_design((2, 2), (2, 2))
        relabelled = ExperimentDesign(
            tuple(Input(f"x{i}", ("lo", "hi")) for i in (1, 2)), plain.outputs, plain.treatments
        )
        assert relabelled != plain
        argvs = [
            self._write(tmp_path, "classical.json", gen_classical(plain, seed=2)[0]),
            self._write(tmp_path, "prbox.json", Dataset(relabelled, gen_prbox().tables)),
        ]
        alone = self._alone(argvs, capsys)
        assert [code for code, _, _ in alone] == [0, 1]
        _clear_design_tables()
        assert [self._request(argv, capsys) for argv in argvs * 2] == alone * 2
        assert len(distances._PLANS) == 2

    def test_non_factorial_subset_alternating_with_its_parent(self, tmp_path, capsys):
        full = make_design((3, 3), (2, 2))
        subset = make_design((3, 3), (2, 2), treatments=[t for t in full.treatments if 3 not in t or t == (3, 3)])
        classical = gen_classical(full, seed=7)[0].tables
        ruled_out = mix_tables(F(1, 2), lifted_prbox(full), classical)
        argvs = [
            self._write(tmp_path, "full.json", Dataset(full, classical)),
            self._write(tmp_path, "subset.json", Dataset(subset, {tr: classical[tr] for tr in subset.treatments})),
            self._write(tmp_path, "full-mixed.json", Dataset(full, ruled_out)),
            self._write(tmp_path, "subset-mixed.json", Dataset(subset, {tr: ruled_out[tr] for tr in subset.treatments})),
        ]
        alone = self._alone(argvs, capsys)
        assert [code for code, _, _ in alone] == [0, 0, 1, 1]
        _clear_design_tables()
        assert [self._request(argv, capsys) for argv in argvs * 2] == alone * 2

    def test_breached_sequence_guard_fails_every_request(self, tmp_path, capsys):
        pr = gen_prbox()
        argv = [*self._write(tmp_path, "prbox.json", pr), "--sequence-guard", "1"]
        reports = [self._request(argv, capsys) for _ in range(3)]
        assert reports[0][0] == 2 and "sequence_guard" in reports[0][2]
        assert reports == reports[:1] * 3

    def test_returned_containers_are_fresh(self):
        ds = gen_classical(make_design((2, 2), (3, 2)), seed=4)[0]
        rows = collins_gisin_rows(ds.design)
        want = list(rows)
        rows.clear()
        assert collins_gisin_rows(ds.design) == want
        witness = run_lft(ds).witness
        support = witness.support()
        want = list(support)
        support.pop()
        assert witness.support() == want and sum(w for w, _ in want) == 1

    def test_caches_stay_bounded(self):
        _clear_design_tables()
        designs = [make_design((k, j), (2, 2)) for k in range(1, 6) for j in range(1, 5)]
        assert len(designs) > DESIGN_CACHE
        first = [(LftSystem(d)._cells, collins_gisin_rows(d), enumerate_irreducible_sequences(d)) for d in designs]
        for d in designs:
            distances._chain_plan(d, tuple(enumerate_irreducible_sequences(d)))
        for table in (*DESIGN_TABLES, distances._pair_realizers):
            info = table.cache_info()
            assert info.maxsize == DESIGN_CACHE and info.currsize <= DESIGN_CACHE, (table, info)
        assert len(distances._PLANS) == DESIGN_CACHE
        # an evicted design's tables are built again, the same
        d = designs[0]
        assert (LftSystem(d)._cells, collins_gisin_rows(d), enumerate_irreducible_sequences(d)) == first[0]
