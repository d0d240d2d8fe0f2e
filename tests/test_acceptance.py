"""Acceptance suite: one test per criterion, exact tolerances pinned.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion.  The heavy dataset sweeps are module-scoped fixtures so the
witness-soundness criterion can re-check every feasible verdict they
produced.
"""
import math
import random
import time
from fractions import Fraction
from itertools import product

import pytest

from selinf.cosphericity import CorrelationQuad, correlations_from_dataset, cosphericity_test
from selinf.distances import (
    InputPointSequence,
    OrderRelation,
    canonical_tetrad,
    chain_test,
    check_pq_metric_axioms,
    enumerate_irreducible_sequences,
    fine_inequalities,
    preset_order,
    random_order,
)
from selinf.experiment import Dataset, check_marginal_selectivity, make_design, validate_dataset
from selinf.generators import AngleSpec, gen_classical, gen_ghz, gen_prbox, gen_singlet
from selinf.lft import build_jdc_matrix, build_p_vector, construct_si2, run_lft
from selinf.rational_lp import FeasibilityResult

from helpers import dense_certifies, lifted_prbox, mix_tables, random_ms_chsh

F = Fraction
CHSH = make_design((2, 2), (2, 2))


def report(line: str) -> None:
    print(f"\nACCEPTANCE {line}")


# ---------------------------------------------------------------- fixtures


def _mix(a, b, lam):
    """Convex mixture of two datasets on the same design (keeps marginal
    selectivity when both sides have it)."""
    tables = {}
    for tr in a.design.treatments:
        ta, tb = a.table(tr), b.table(tr)
        tables[tr] = {
            o: lam * ta.get(o, F(0)) + (1 - lam) * tb.get(o, F(0))
            for o in set(ta) | set(tb)
        }
    return Dataset(a.design, tables)


@pytest.fixture(scope="module")
def crit1_sweep():
    """1000 marginally selective 2x2 binary datasets: classical, whole
    no-signaling region, and classical/PR-box mixtures straddling the
    boundary."""
    rng = random.Random(20260809)
    pr = gen_prbox()
    t0 = time.time()
    mismatches = []
    feasible_pairs = []
    chain_routes = []
    n_feasible = 0
    for trial in range(1000):
        flavor = trial % 4
        if flavor in (0, 2):
            ds, _ = gen_classical(CHSH, seed=rng.randrange(10**9))
        elif flavor == 1:
            ds = random_ms_chsh(rng)
        else:
            base, _ = gen_classical(CHSH, seed=rng.randrange(10**9))
            ds = _mix(pr, base, F(rng.randint(0, 24), 24))
        fine_ok = fine_inequalities(ds).passed
        verdict = run_lft(ds)
        if fine_ok != verdict.feasible:
            mismatches.append(ds)
        chain = _first_chain_failure(ds)
        if chain is not None:
            chain_routes.append((ds, chain, verdict))
        if verdict.feasible:
            n_feasible += 1
            feasible_pairs.append((ds, verdict.witness))
    return {
        "mismatches": mismatches,
        "feasible_pairs": feasible_pairs,
        "n": 1000,
        "n_feasible": n_feasible,
        "chain_routes": chain_routes,
        "elapsed": time.time() - t0,
    }


def _first_chain_failure(ds):
    """The chain stage's first failure under d1 then d2, as `selinf test`
    hands it to the LFT, or None."""
    sequences = enumerate_irreducible_sequences(ds.design)
    for name in ("d1", "d2"):
        order = preset_order(ds.design, name)
        failures = chain_test(ds, order, sequences).failures()
        if failures:
            return order, failures[0]
    return None


def _criterion4_shapes(rng: random.Random, count: int):
    """Random design shapes within n<=3, k<=2, m<=3; the largest LP shape is
    rationed and its ground-truth support bounded to keep the sweep fast."""
    shapes = []
    big_budget = 2
    while len(shapes) < count:
        n = rng.choice((1, 2, 2, 3, 3))
        k = tuple(rng.choice((1, 2, 2)) for _ in range(n))
        m = tuple(rng.choice((1, 2, 2, 3)) for _ in range(n))
        qlen = 1
        for mi, ki in zip(m, k):
            qlen *= mi**ki
        kwargs = {}
        if qlen > 400:
            if big_budget == 0:
                continue
            big_budget -= 1
            kwargs = {"max_support": rng.randint(20, 60)}
        factorial = rng.random() < 0.75
        shapes.append((n, k, m, factorial, kwargs))
    return shapes


@pytest.fixture(scope="module")
def crit4_sweep():
    rng = random.Random(77001)
    t0 = time.time()
    failures = []
    feasible_pairs = []
    seq_cache: dict = {}
    checked = {"ms": 0, "chain": 0, "cosph": 0, "lft": 0}
    for n, k, m, factorial, kwargs in _criterion4_shapes(rng, 500):
        design = make_design(k, m)
        if not factorial and len(design.treatments) > 2:
            full = list(design.treatments)
            design = make_design(k, m, treatments=rng.sample(full, rng.randint(2, len(full))))
        ds, q = gen_classical(design, seed=rng.randrange(10**9), **kwargs)

        if not validate_dataset(ds).valid:
            failures.append(("validate", design))
            continue
        if not check_marginal_selectivity(ds).passed:
            failures.append(("marginal-selectivity", design))
        checked["ms"] += 1

        key = (k, m, design.treatments)
        if key not in seq_cache:
            seq_cache[key] = enumerate_irreducible_sequences(design, max_len=6)
        seqs = seq_cache[key]
        if seqs:
            orders = [preset_order(design, "d1"), preset_order(design, "d2")]
            orders += [random_order(design, rng) for _ in range(5)]
            for order in orders:
                if not chain_test(ds, order, seqs).passed:
                    failures.append(("chain", design, order.name))
            checked["chain"] += 1

        if design.n == 2 and design.input_sizes == (2, 2) and design.is_factorial:
            try:
                quad = correlations_from_dataset(ds)
            except ValueError:
                quad = None  # degenerate variance: not applicable
            if quad is not None:
                if not cosphericity_test(quad, tol=1e-9).passed:
                    failures.append(("cosphericity", design))
                checked["cosph"] += 1

        verdict = run_lft(ds)
        if not verdict.feasible:
            failures.append(("lft", design))
        else:
            feasible_pairs.append((ds, verdict.witness))
        checked["lft"] += 1
    return {
        "failures": failures,
        "feasible_pairs": feasible_pairs,
        "checked": checked,
        "elapsed": time.time() - t0,
    }


@pytest.fixture(scope="module")
def crit3_results():
    t0 = time.time()
    optimal = gen_singlet(AngleSpec(((F(0), F(1, 2)), (F(1, 4), F(3, 4)))), 12)
    e = {}
    for i, j in product((1, 2), (1, 2)):
        e[(i, j)] = float(
            sum(p * (1 if o[0] == o[1] else -1) for o, p in optimal.table((i, j)).items())
        )
    combos = [
        abs(e[(1, 1)] + e[(1, 2)] + e[(2, 1)] - e[(2, 2)]),
        abs(e[(1, 1)] + e[(1, 2)] - e[(2, 1)] + e[(2, 2)]),
        abs(e[(1, 1)] - e[(1, 2)] + e[(2, 1)] + e[(2, 2)]),
        abs(-e[(1, 1)] + e[(1, 2)] + e[(2, 1)] + e[(2, 2)]),
    ]
    verdict_optimal = run_lft(optimal)

    same = gen_singlet(AngleSpec(((F(1, 5), F(2, 3)), (F(1, 5), F(2, 3)))), 12)
    verdict_same = run_lft(same)
    return {
        "chsh": max(combos),
        "verdict_optimal": verdict_optimal,
        "same_dataset": same,
        "verdict_same": verdict_same,
        "elapsed": time.time() - t0,
    }


# ---------------------------------------------------------------- criteria


def test_criterion_01_fine_equals_lft(crit1_sweep):
    sweep = crit1_sweep
    ok = not sweep["mismatches"] and sweep["n"] == 1000
    report(
        f"C1 fine<->lft: {'PASS' if ok else 'FAIL'} "
        f"({sweep['n'] - len(sweep['mismatches'])}/{sweep['n']} agree, "
        f"{sweep['n_feasible']} feasible, {sweep['elapsed']:.1f}s)"
    )
    assert ok, f"{len(sweep['mismatches'])} verdict mismatches"


def test_criterion_02_pr_box():
    t0 = time.time()
    pr = gen_prbox()
    fine = fine_inequalities(pr)
    verdict = run_lft(pr)
    p = build_p_vector(pr)
    jdc = build_jdc_matrix(pr.design)
    res = FeasibilityResult(False, None, verdict.farkas, verdict.pivots)
    ok = (
        fine.violated_families() == ("p11|22",)
        and fine.families()["p11|22"] == F(1, 2)
        and not verdict.feasible
        and dense_certifies(jdc.matrix.to_dense(), list(p.values), res)
    )
    report(f"C2 PR box: {'PASS' if ok else 'FAIL'} (one family at +1/2, Farkas verified, {time.time()-t0:.2f}s)")
    assert ok, (fine.violated_families(), verdict.feasible)


def test_criterion_03_singlet(crit3_results):
    r = crit3_results
    ok = (
        abs(r["chsh"] - 2 * math.sqrt(2)) <= 1e-9
        and not r["verdict_optimal"].feasible
        and r["verdict_same"].feasible
    )
    report(
        f"C3 singlet: {'PASS' if ok else 'FAIL'} (CHSH {r['chsh']:.12f} ~ 2*sqrt(2), "
        f"optimal {'in' if not r['verdict_optimal'].feasible else ''}feasible, "
        f"equal-angles {'' if r['verdict_same'].feasible else 'in'}feasible, {r['elapsed']:.2f}s)"
    )
    assert ok, r["chsh"]


def test_criterion_04_necessity_suite(crit4_sweep):
    sweep = crit4_sweep
    ok = not sweep["failures"] and sweep["checked"]["lft"] == 500
    report(
        f"C4 necessity: {'PASS' if ok else 'FAIL'} (500 classical datasets; "
        f"chains on {sweep['checked']['chain']}, cosphericity on {sweep['checked']['cosph']}, "
        f"LFT on {sweep['checked']['lft']}; {len(sweep['failures'])} failure(s); {sweep['elapsed']:.1f}s)"
    )
    assert ok, sweep["failures"][:5]


def test_criterion_05_witness_soundness(crit1_sweep, crit3_results, crit4_sweep):
    t0 = time.time()
    pairs = list(crit1_sweep["feasible_pairs"]) + list(crit4_sweep["feasible_pairs"])
    pairs.append((crit3_results["same_dataset"], crit3_results["verdict_same"].witness))
    bad = 0
    for ds, witness in pairs:
        if construct_si2(witness, ds.design).simulate() != ds:
            bad += 1
    ok = bad == 0
    report(
        f"C5 witness soundness: {'PASS' if ok else 'FAIL'} "
        f"({len(pairs) - bad}/{len(pairs)} witnesses reproduce their datasets exactly, "
        f"{time.time()-t0:.1f}s)"
    )
    assert ok, f"{bad} witnesses failed to reproduce"


def _realizable_chains(design, max_len):
    """Every chain of 3..max_len input points whose consecutive pairs and
    endpoints each lie in some treatment, built from the treatments alone.
    A repeated neighbour adds a zero link and equal endpoints a zero left
    side, so neither gives a new inequality and both are left out."""
    cooccur = {(a, b) for tr in design.treatments for a in enumerate(tr, 1) for b in enumerate(tr, 1)}
    chains = [(p,) for p in design.input_points()]
    found = []
    for length in range(2, max_len + 1):
        chains = [c + (p,) for c in chains for p in design.input_points() if p != c[-1] and (c[-1], p) in cooccur]
        if length >= 3:
            found += [c for c in chains if c[0] != c[-1] and (c[0], c[-1]) in cooccur]
    return [InputPointSequence(c) for c in found]


def test_criterion_06_tetradic_reduction():
    """Under marginal selectivity, the irreducible chains (the tetrads, on a
    factorial design) decide every chain test: their verdicts must equal
    those over every realizable chain of up to 5 points (4 beyond 6 input
    points), on classical data and on mixtures with the lifted PR box."""
    t0 = time.time()
    rng = random.Random(606)
    shapes = [(2, 2), (2, 3), (3, 2), (3, 3), (2, 2, 2), (3, 2, 2), (2, 3, 3)]
    seq_cache = {}
    n_checked = failing = 0
    disagreements = []
    for trial in range(200):
        k = shapes[trial % len(shapes)]
        m = tuple(rng.choice((2, 3)) for _ in k)
        design = make_design(k, m)
        if (k, m) not in seq_cache:
            seq_cache[(k, m)] = (
                enumerate_irreducible_sequences(design, max_len=6),
                _realizable_chains(design, 5 if sum(k) <= 6 else 4),
            )
        tet, every = seq_cache[(k, m)]
        ds, _ = gen_classical(design, seed=rng.randrange(10**9))
        if trial % 2:
            ds = Dataset(design, mix_tables(F(rng.randint(1, 3), 4), lifted_prbox(design), ds.tables))
        orders = [preset_order(design, "d1"), preset_order(design, "d2"), random_order(design, rng)]
        for order in orders:
            v_tet = chain_test(ds, order, tet).passed
            failing += not v_tet
            if chain_test(ds, order, every).passed != v_tet:
                disagreements.append((k, m, order.name))
        n_checked += 1
    ok = not disagreements and n_checked == 200 and failing > 0
    report(
        f"C6 tetradic reduction: {'PASS' if ok else 'FAIL'} "
        f"({n_checked} datasets x 3 orders, {failing} failing, "
        f"{len(disagreements)} disagreement(s), {time.time()-t0:.1f}s)"
    )
    assert ok, (failing, disagreements[:5])


def test_criterion_07_chain_pair_equals_first_fine():
    t0 = time.time()
    rng = random.Random(707)
    d1 = preset_order(CHSH, "d1")
    d2 = preset_order(CHSH, "d2")
    tetrad = canonical_tetrad()
    disagreements = []
    for trial in range(1000):
        if trial % 3 == 0:
            ds, _ = gen_classical(CHSH, seed=rng.randrange(10**9))
        else:
            ds = random_ms_chsh(rng)
        q1 = chain_test(ds, d1, [tetrad]).passed
        q2 = chain_test(ds, d2, [tetrad]).passed
        fine = fine_inequalities(ds)
        first = [r for r in fine.records if r.family == "p11|12"]
        if len(first) != 2 or (q1 and q2) != all(r.satisfied for r in first):
            disagreements.append(trial)
    ok = not disagreements
    report(
        f"C7 chain pair <-> first double inequality: {'PASS' if ok else 'FAIL'} "
        f"(1000 datasets, {len(disagreements)} disagreement(s), {time.time()-t0:.1f}s)"
    )
    assert ok, disagreements[:5]


def test_criterion_08_ghz():
    t0 = time.time()
    g = gen_ghz()
    jdc = build_jdc_matrix(g.design)
    verdict = run_lft(g)
    p = build_p_vector(g)
    res = FeasibilityResult(False, None, verdict.farkas, verdict.pivots)
    ok = (
        (jdc.nrows, jdc.ncols) == (64, 64)
        and g.design.input_sizes == (2, 2, 2)
        and g.design.outcome_sizes == (2, 2, 2)
        and not verdict.feasible
        and dense_certifies(jdc.matrix.to_dense(), list(p.values), res)
    )
    report(f"C8 GHZ: {'PASS' if ok else 'FAIL'} (64x64 system infeasible, Farkas verified, {time.time()-t0:.2f}s)")
    assert ok


def test_criterion_09_order_distance_axioms():
    t0 = time.time()
    rng = random.Random(909)
    violations = []
    for _ in range(10**4):
        sizes = [rng.randint(2, 4) for _ in range(3)]
        keys = list(product(*(range(1, s + 1) for s in sizes)))
        weights = [rng.randint(0, 9) for _ in keys]
        if sum(weights) == 0:
            weights[0] = 1
        total = sum(weights)
        joint = {kk: F(w, total) for kk, w in zip(keys, weights) if w}
        pool = [(v, a) for v, s in enumerate(sizes, start=1) for a in range(1, s + 1)]
        rng.shuffle(pool)
        classes = [[pool[0]]]
        for el in pool[1:]:
            if rng.random() < 0.5:
                classes.append([el])
            else:
                classes[-1].append(el)
        order = OrderRelation(tuple(frozenset(c) for c in classes))
        rep = check_pq_metric_axioms(joint, order)
        if not rep.passed:
            violations.append(rep.violations[:2])
    ok = not violations
    report(
        f"C9 order-distance axioms: {'PASS' if ok else 'FAIL'} "
        f"(10000 joints, {len(violations)} violation(s), {time.time()-t0:.1f}s)"
    )
    assert ok, violations[:3]


def test_criterion_10_cosphericity_necessity():
    t0 = time.time()
    rng = random.Random(1010)

    def unit():
        while True:
            v = (rng.gauss(0, 1), rng.gauss(0, 1), rng.gauss(0, 1))
            norm = math.sqrt(sum(c * c for c in v))
            if norm > 1e-9:
                return tuple(c / norm for c in v)

    geometric_failures = 0
    for _ in range(10**4):
        u1, u2, v1, v2 = unit(), unit(), unit(), unit()
        quad = CorrelationQuad(
            sum(a * b for a, b in zip(u1, v1)),
            sum(a * b for a, b in zip(u1, v2)),
            sum(a * b for a, b in zip(u2, v1)),
            sum(a * b for a, b in zip(u2, v2)),
        )
        if not cosphericity_test(quad, tol=1e-9).passed:
            geometric_failures += 1
    degenerate_fails = cosphericity_test(CorrelationQuad(1, 1, 1, -1)).verdict == "fail"
    ok = geometric_failures == 0 and degenerate_fails
    report(
        f"C10 cosphericity necessity: {'PASS' if ok else 'FAIL'} "
        f"(10000 geometric quads, {geometric_failures} failure(s); degenerate quad "
        f"{'fails' if degenerate_fails else 'PASSES'}, {time.time()-t0:.1f}s)"
    )
    assert ok


def test_criterion_11_chain_certificates(crit1_sweep, crit3_results):
    # a failing chain handed to the LFT is its Farkas vector: verified, with
    # no pivot, on every dataset a chain rules out, and phase one agrees
    t0 = time.time()
    routes = list(crit1_sweep["chain_routes"])
    optimal = gen_singlet(AngleSpec(((F(0), F(1, 2)), (F(1, 4), F(3, 4)))), 12)
    routes.append((optimal, _first_chain_failure(optimal), crit3_results["verdict_optimal"]))
    dense = build_jdc_matrix(CHSH).matrix.to_dense()
    bad = 0
    for ds, chain, phase_one in routes:
        verdict = run_lft(ds, chain_failure=chain)
        res = FeasibilityResult(False, None, verdict.farkas, verdict.pivots)
        bad += not (
            verdict.chain_failure == chain
            and verdict.pivots == 0
            and not verdict.feasible
            and not phase_one.feasible
            and dense_certifies(dense, list(build_p_vector(ds).values), res)
        )
    ok = bad == 0 and len(routes) > 100
    report(
        f"C11 chain certificates: {'PASS' if ok else 'FAIL'} ({len(routes) - bad}/{len(routes)} "
        f"chain-ruled-out datasets certified by their chain, {time.time()-t0:.1f}s)"
    )
    assert ok, bad
