import random
import time
from fractions import Fraction
from itertools import combinations, product

import pytest

from selinf.distances import (
    InputPointSequence,
    OrderRelation,
    chain_test,
    enumerate_irreducible_sequences,
    fine_inequalities,
    preset_order,
)
from selinf.errors import MarginalSelectivityError, SizeGuardError
from selinf.experiment import Dataset, check_marginal_selectivity, make_design
from selinf.generators import gen_classical, gen_prbox

from helpers import (
    check_pq_metric_axioms,
    enumerate_tetradic_sequences,
    order_distance,
    random_ms_chsh,
    random_order,
    random_tables_dataset,
    reference_chain_test,
    transform_outputs,
)

F = Fraction
# the chain whose inequality pair under the two preset orders matches the
# first Fine double inequality
TETRAD = InputPointSequence(((1, 1), (2, 1), (1, 2), (2, 2)))


def uniform_chsh() -> Dataset:
    design = make_design((2, 2), (2, 2))
    table = {o: F(1, 4) for o in product((1, 2), (1, 2))}
    return Dataset(design, {tr: dict(table) for tr in design.treatments})


class TestOrderRelation:
    def test_presets_on_chsh(self):
        design = make_design((2, 2), (2, 2))
        d1 = preset_order(design, "d1")
        assert d1.classes == (frozenset({(1, 1), (2, 1)}), frozenset({(1, 2), (2, 2)}))
        d2 = preset_order(design, "d2")
        assert d2.classes == (frozenset({(1, 1), (2, 2)}), frozenset({(1, 2), (2, 1)}))

    def test_overlapping_classes_rejected(self):
        with pytest.raises(ValueError, match="two classes"):
            OrderRelation((frozenset({(1, 1)}), frozenset({(1, 1)})))

    def test_fractional_labels_rejected(self):
        for cls in ({(1, 1.5)}, {(True, 1)}):
            with pytest.raises(ValueError, match="not an integer"):
                OrderRelation((frozenset(cls),))
        with pytest.raises(ValueError, match="not an integer"):
            InputPointSequence(((1, 1), (2, 1.5), (1, 2)))
        assert InputPointSequence(((1, 1), (2.0, "1"), (1, 2))).points == ((1, 1), (2, 1), (1, 2))

    def test_unknown_preset(self):
        with pytest.raises(ValueError, match="unknown preset"):
            preset_order(make_design((2, 2), (2, 2)), "d3")

    def test_presets_cached_per_design(self):
        # a design read again gives the same order; another outcome size,
        # or the other name, gives another
        binary, ternary = make_design((2, 2), (2, 2)), make_design((2, 2), (3, 3))
        for name in ("d1", "d2"):
            assert preset_order(binary, name) == preset_order(make_design((2, 2), (2, 2)), name)
            assert preset_order(binary, name) != preset_order(ternary, name)
            assert preset_order(ternary, name).covers(2, 3) and not preset_order(binary, name).covers(2, 3)
        assert preset_order(binary, "d1") != preset_order(binary, "d2")


class TestOrderDistance:
    def test_d1_on_chsh_is_p12(self):
        pr = gen_prbox()
        d1 = preset_order(pr.design, "d1")
        # distance from the first output's response to the second's at (1, 2)
        assert order_distance(pr, (1, 2), 1, 2, d1) == pr.prob((1, 2), (1, 2))

    def test_direct_summation(self):
        design = make_design((1, 1), (2, 2))
        ds = Dataset(
            design,
            {(1, 1): {(1, 2): F(3, 10), (1, 1): F(2, 10), (2, 1): F(4, 10), (2, 2): F(1, 10)}},
        )
        order = OrderRelation((frozenset({(1, 1), (2, 1)}), frozenset({(1, 2), (2, 2)})))
        assert order_distance(ds, (1, 1), 1, 2, order) == F(3, 10)

    def test_comonotone_gives_zero(self):
        design = make_design((1, 1), (2, 2))
        ds = Dataset(design, {(1, 1): {(1, 1): F(1, 2), (2, 2): F(1, 2)}})
        order = OrderRelation((frozenset({(1, 1), (2, 1)}), frozenset({(1, 2), (2, 2)})))
        assert order_distance(ds, (1, 1), 1, 2, order) == 0
        assert order_distance(ds, (1, 1), 2, 1, order) == 0

    def test_uncovered_outcome_rejected(self):
        pr = gen_prbox()
        order = OrderRelation((frozenset({(1, 1), (2, 1), (2, 2)}),))
        with pytest.raises(ValueError, match="cover"):
            order_distance(pr, (1, 1), 1, 2, order)

    def test_same_output_rejected(self):
        pr = gen_prbox()
        with pytest.raises(ValueError, match="distinct"):
            order_distance(pr, (1, 1), 1, 1, preset_order(pr.design, "d1"))


def _cooccur_in_some_treatment(design, pts):
    want = {}
    for lam, w in pts:
        if want.get(lam, w) != w:
            return False
        want[lam] = w
    return any(all(tr[l - 1] == w for l, w in want.items()) for tr in design.treatments)


def brute_force_irreducible(design, max_len):
    """Independent oracle applying the definition verbatim: realizability plus
    'the only position subsets of size > 1 inside a treatment are the endpoint
    pair and the consecutive pairs'."""
    points = design.input_points()
    found = []
    for l in range(3, max_len + 1):
        for seq in product(points, repeat=l):
            if seq[0] == seq[-1]:
                continue
            if not _cooccur_in_some_treatment(design, (seq[0], seq[-1])):
                continue
            if any(
                not _cooccur_in_some_treatment(design, (seq[i - 1], seq[i]))
                for i in range(1, l)
            ):
                continue
            designated = {frozenset({0, l - 1})} | {
                frozenset({i - 1, i}) for i in range(1, l)
            }
            ok = True
            for size in range(2, l + 1):
                for positions in combinations(range(l), size):
                    if frozenset(positions) in designated:
                        continue
                    if _cooccur_in_some_treatment(design, [seq[i] for i in positions]):
                        ok = False
                        break
                if not ok:
                    break
            if ok:
                found.append(tuple(seq))
    return sorted(found)


def small_designs():
    """Small binary-output designs, two of them with two treatments dropped
    at random (seeded), each with its (input sizes, factorial) tag."""
    rng = random.Random(2)
    shapes = [
        ((2, 2), True), ((2, 2), False), ((2, 3), True), ((2, 2, 2), True), ((3, 2), False),
        ((3, 3), True), ((2, 3, 2), True), ((4, 2), True),
    ]
    for k, factorial in shapes:
        m = tuple(2 for _ in k)
        design = make_design(k, m)
        if not factorial:
            full = list(design.treatments)
            design = make_design(k, m, treatments=rng.sample(full, max(2, len(full) - 2)))
        yield (k, factorial), design


# a restricted design with irreducible chains of 3, 4, 5 and 6 points
LONG_CHAINS = make_design(
    (3, 3, 2), (2, 2, 2), treatments=[(1, 1, 1), (1, 2, 1), (2, 2, 2), (2, 3, 1), (3, 1, 1), (3, 3, 2)]
)
TETRAD_DESIGNS = [(2, 2), (3, 3), (4, 4), (2, 1), (1, 1), (2, 2, 2), (3, 2, 2), (2, 3, 3), (2, 2, 2, 2)]


class TestEnumeration:
    @pytest.mark.parametrize("sizes", TETRAD_DESIGNS, ids=lambda k: ",".join(map(str, k)))
    def test_search_finds_the_tetrads_on_factorial_designs(self, sizes):
        # the paper's reduction: on a full-factorial design the irreducible
        # chains are the alternating tetrads, in the closed form's order, at
        # every max_len from 4 up; no irreducible 3-chain exists
        design = make_design(sizes, (2,) * len(sizes))
        tetrads = enumerate_tetradic_sequences(design)
        for max_len in (4, 6, 8, 10**9):
            assert enumerate_irreducible_sequences(design, max_len=max_len) == tetrads, max_len
        assert enumerate_irreducible_sequences(design, max_len=3) == []

    def test_chsh_irreducible_equals_tetrads(self):
        # the definition, applied by the oracle up to 6 points, gives the
        # closed-form tetrads
        design = make_design((2, 2), (2, 2))
        tet = enumerate_tetradic_sequences(design)
        assert brute_force_irreducible(design, 6) == sorted(s.points for s in tet)
        assert len(tet) == 8
        assert [len(s) for s in tet] == [4] * 8

    def test_single_treatment_design_has_none(self):
        design = make_design((2, 2), (2, 2), treatments=[(1, 1)])
        assert enumerate_irreducible_sequences(design, max_len=5) == []

    def test_matches_brute_force_on_small_designs(self):
        for (k, factorial), design in small_designs():
            got = sorted(s.points for s in enumerate_irreducible_sequences(design, max_len=5))
            want = brute_force_irreducible(design, 5)
            assert got == want, (k, factorial)
        # the random restricted designs above hold no chain; this one holds
        # chains of 3 to 5 points up to max_len 5
        got = sorted(s.points for s in enumerate_irreducible_sequences(LONG_CHAINS, max_len=5))
        assert got == brute_force_irreducible(LONG_CHAINS, 5) and {len(p) for p in got} == {3, 4, 5}

    def test_order_is_by_length_then_lexicographic(self):
        # the order sets the order of the failure records and which chain
        # the LFT's chain route certifies.  The random non-factorial designs
        # of the brute-force test above hold no chain, so two restricted
        # designs with chains of several lengths join them: 3 and 4 points,
        # and 3 to 6 points
        designs = [design for (_, factorial), design in small_designs() if not factorial]
        designs += [
            make_design((2, 2, 2), (2, 2, 2), treatments=[(1, 1, 1), (2, 1, 2), (1, 2, 2), (2, 2, 1)]),
            LONG_CHAINS,
        ]
        lengths = []
        for design in designs:
            got = enumerate_irreducible_sequences(design, max_len=6)
            assert got == sorted(got, key=lambda s: (len(s), s.points)), design.treatments
            lengths.append(sorted({len(s) for s in got}))
        assert lengths[-2:] == [[3, 4], [3, 4, 5, 6]]

    def test_matches_brute_force_up_to_length_six(self):
        # exhaustive up to the default cap on the smallest interesting designs,
        # including a restricted treatment set with genuinely long chains
        for design in (
            make_design((2, 2), (2, 2)),
            make_design((2, 2), (2, 2), treatments=[(1, 1), (1, 2), (2, 2)]),
            make_design((2, 2, 2), (2, 2, 2), treatments=[(1, 1, 1), (2, 1, 2), (1, 2, 2), (2, 2, 1)]),
        ):
            got = sorted(s.points for s in enumerate_irreducible_sequences(design, max_len=6))
            assert got == brute_force_irreducible(design, 6)

    def test_three_value_tetrad_counts(self):
        design = make_design((3, 3), (2, 2))
        tet = enumerate_tetradic_sequences(design)
        per_pair = [s for s in tet if s.points[0][0] == 1]
        assert len(per_pair) == 36  # 3*2*3*2 ordered choices per ordered input pair
        assert len(tet) == 72

    def test_one_value_input_yields_no_tetrads(self):
        design = make_design((2, 1), (2, 2))
        assert enumerate_tetradic_sequences(design) == []

    def test_nonfactorial_rejected_for_tetrads(self):
        design = make_design((2, 2), (2, 2), treatments=[(1, 1), (2, 2)])
        with pytest.raises(ValueError, match="full factorial"):
            enumerate_tetradic_sequences(design)

    def test_no_three_chains_on_factorial_designs(self):
        assert enumerate_irreducible_sequences(make_design((3, 2, 2), (2, 2, 2)), max_len=3) == []

    def test_sequence_guard(self):
        design = make_design((2, 2, 2), (2, 2, 2))
        with pytest.raises(SizeGuardError, match="sequence_guard"):
            enumerate_irreducible_sequences(design, max_len=4, sequence_guard=5)

    def test_sequence_guard_boundary(self):
        # a count equal to the guard is accepted and one more is refused, on
        # a factorial and a restricted treatment set
        factorial = make_design((3, 2, 2), (2, 2, 2))
        restricted = make_design((3, 2, 2), (2, 2, 2), treatments=factorial.treatments[1:])
        for design in (factorial, restricted):
            count = len(enumerate_irreducible_sequences(design, max_len=6))
            assert count > 1
            got = enumerate_irreducible_sequences(design, max_len=6, sequence_guard=count)
            assert len(got) == count
            with pytest.raises(SizeGuardError, match=f"more than {count - 1} "):
                enumerate_irreducible_sequences(design, max_len=6, sequence_guard=count - 1)

    def test_breached_guard_raises_on_every_call(self):
        # the chains are cached per (design, max_len, guard); a refusal is not
        factorial = make_design((3, 2, 2), (2, 2, 2))
        restricted = make_design((3, 2, 2), (2, 2, 2), treatments=factorial.treatments[1:])
        for design in (factorial, restricted):
            for _ in range(3):
                with pytest.raises(SizeGuardError, match="more than 1 "):
                    enumerate_irreducible_sequences(design, max_len=6, sequence_guard=1)
            assert len(enumerate_irreducible_sequences(design, max_len=6)) > 1

    def test_returns_a_fresh_list(self):
        factorial = make_design((3, 2), (2, 2))
        restricted = make_design((3, 2), (2, 2), treatments=factorial.treatments[1:])
        for design in (factorial, restricted):
            got = enumerate_irreducible_sequences(design)
            want = list(got)
            got.reverse()
            got.pop()
            assert got != want and enumerate_irreducible_sequences(design) == want

    def test_huge_max_len_stops_at_the_point_count(self):
        # no irreducible chain repeats a point, so the search ends at the
        # point count whatever max_len asks for
        design = make_design((3, 3, 3), (2, 2, 2))
        design = make_design((3, 3, 3), (2, 2, 2), treatments=design.treatments[::3] + design.treatments[1::3])
        want = enumerate_irreducible_sequences(design, max_len=len(design.input_points()))
        start = time.perf_counter()
        assert enumerate_irreducible_sequences(design, max_len=10**9) == want
        assert time.perf_counter() - start < 1

    def test_link_treatments_attached(self):
        # every link of an enumerated chain, endpoint link first, is reported
        # with a realizing treatment that contains both of its points
        ds = uniform_chsh()
        seqs = enumerate_irreducible_sequences(ds.design, max_len=4)
        report = chain_test(ds, preset_order(ds.design, "d1"), seqs)
        for seq, rec in zip(seqs, report.records):
            x1, xl = seq.endpoints
            assert rec.endpoint.pair == (x1, xl)
            assert [link.pair for link in rec.links] == list(seq.links())
            for link in (rec.endpoint, *rec.links):
                tr = link.treatment
                assert all(tr[lam - 1] == w for lam, w in link.pair)


class TestChain:
    def test_paper_chain_on_chsh(self):
        # endpoint distance p12|12 against p12|11 + p21|21 + p12|22
        rng = random.Random(8)
        for _ in range(30):
            ds = random_ms_chsh(rng)
            d1 = preset_order(ds.design, "d1")
            rec = chain_test(ds, d1, [TETRAD]).records[0]
            assert rec.lhs == ds.prob((1, 2), (1, 2))
            expected_rhs = (
                ds.prob((1, 1), (1, 2)) + ds.prob((2, 1), (2, 1)) + ds.prob((2, 2), (1, 2))
            )
            assert rec.rhs == expected_rhs

    def test_perfect_equality_then_inequality(self):
        design = make_design((2, 2), (2, 2))
        eq = {(1, 1): F(1, 2), (2, 2): F(1, 2)}
        neq = {(1, 2): F(1, 2), (2, 1): F(1, 2)}
        ds = Dataset(design, {(1, 1): eq, (2, 1): eq, (2, 2): eq, (1, 2): neq})
        d1 = preset_order(design, "d1")
        rec = chain_test(ds, d1, [TETRAD]).records[0]
        assert rec.lhs == F(1, 2)
        assert rec.rhs == F(0)
        assert not rec.passed
        # matches the Fine verdict reproduced through the D1/D2 chain pair
        d2 = preset_order(design, "d2")
        q2 = chain_test(ds, d2, [TETRAD]).records[0].passed
        fine = fine_inequalities(ds)
        first_ok = all(r.satisfied for r in fine.records if r.family == "p11|12")
        assert (rec.passed and q2) == first_ok

    def test_uniform_dataset_all_slack_nonnegative(self):
        ds = uniform_chsh()
        d1 = preset_order(ds.design, "d1")
        seqs = enumerate_irreducible_sequences(ds.design, max_len=6)
        report = chain_test(ds, d1, seqs)
        assert report.passed
        for rec in report.records:
            assert rec.lhs == F(1, 4)
            assert rec.rhs == F(3, 4)

    def test_unrealizable_sequence_rejected(self):
        design = make_design((2, 2), (2, 2), treatments=[(1, 1), (2, 2)])
        ds = random_tables_dataset(design, random.Random(0))
        seq = InputPointSequence(((1, 1), (2, 2), (1, 2), (2, 1)))
        with pytest.raises(ValueError, match="no treatment realizes"):
            chain_test(ds, preset_order(design, "d1"), [seq])

    def test_classical_necessity_with_random_orders(self):
        rng = random.Random(77)
        for _ in range(10):
            design = make_design((2, 2), (2, 2))
            ds, _ = gen_classical(design, seed=rng.randrange(10**9))
            seqs = enumerate_irreducible_sequences(design, max_len=6)
            for _ in range(4):
                order = random_order(design, rng)
                assert chain_test(ds, order, seqs).passed

    def test_slack_invariant_under_consistent_relabeling(self):
        rng = random.Random(13)
        for _ in range(10):
            design = make_design((2, 2), (2, 3))
            ds = random_tables_dataset(design, rng)
            seqs = enumerate_irreducible_sequences(design, max_len=4)
            order = random_order(design, rng)
            # one permutation per output, applied for every input value
            perms = {}
            maps = {}
            for lam in (1, 2):
                m = design.outcome_sizes[lam - 1]
                perm = list(range(1, m + 1))
                rng.shuffle(perm)
                perms[lam] = perm
                for w in (1, 2):
                    maps[(lam, w)] = {a: perm[a - 1] for a in range(1, m + 1)}
            relabeled = transform_outputs(ds, maps)
            new_classes = tuple(
                frozenset((lam, perms[lam][a - 1]) for lam, a in cls)
                for cls in order.classes
            )
            new_order = OrderRelation(new_classes)
            before = chain_test(ds, order, seqs)
            after = chain_test(relabeled, new_order, seqs)
            assert [r.slack for r in before.records] == [r.slack for r in after.records]

    def test_matches_fraction_reference(self):
        # integer slacks and lazily built records against the Fraction
        # reference, on enumerated chains and on random realizable walks of
        # length 3-6, which may repeat a point
        rng = random.Random(29)
        for trial in range(60):
            k = tuple(rng.randint(1, 3) for _ in range(rng.randint(2, 3)))
            design = make_design(k, tuple(rng.randint(2, 3) for _ in k))
            if trial % 2:
                full = design.treatments
                design = make_design(k, design.outcome_sizes, rng.sample(full, len(full) * 2 // 3 or 1))
            if trial % 3 == 0:
                ds, _ = gen_classical(design, seed=rng.randrange(10**9))
            else:
                ds = random_tables_dataset(design, rng)
            seqs = enumerate_irreducible_sequences(design, max_len=6)
            near = {}
            for tr in design.treatments:
                for a in enumerate(tr, start=1):
                    near.setdefault(a, set()).update(enumerate(tr, start=1))
            for _ in range(60):
                walk = [rng.choice(sorted(near))]
                for _ in range(rng.randint(2, 5)):
                    walk.append(rng.choice(sorted(near[walk[-1]])))
                if walk[0] != walk[-1] and walk[-1] in near[walk[0]]:
                    seqs.append(InputPointSequence(tuple(walk)))
            orders = [preset_order(design, "d1"), preset_order(design, "d2"), random_order(design, rng)]
            for order in orders:
                report = chain_test(ds, order, seqs)
                want = reference_chain_test(ds, order, seqs)
                assert report.failures() == tuple(r for r in want if not r.passed)
                assert report.passed == all(r.passed for r in want)
                assert report.records == want
                for rec in report.failures() + report.records:
                    values = [rec.lhs, rec.rhs, rec.slack]
                    for link in (rec.endpoint, *rec.links):
                        values += [link.distance, *(d for _, d in link.evaluated)]
                    assert all(type(v) is Fraction for v in values)

    def test_each_link_is_evaluated_once_per_call(self, monkeypatch):
        # a 4,4/2,2 design has 32 distinct pairs under 288 tetrads: each
        # (pair, rule) gets one LinkEvaluation per call, shared by the
        # records that read it
        from selinf.distances import ChainReport

        ds = random_tables_dataset(make_design((4, 4), (2, 2)), random.Random(5))
        seqs = enumerate_irreducible_sequences(ds.design)
        report = chain_test(ds, preset_order(ds.design, "d1"), seqs)
        records = report.records
        calls = []
        link = ChainReport._link
        monkeypatch.setattr(ChainReport, "_link", lambda self, *args: calls.append(args) or link(self, *args))
        failures = report.failures()
        assert failures and failures == tuple(r for r in records if r.slack < 0)
        assert len(calls) == len(set(calls)) == len(
            {(*r.sequence.endpoints, max) for r in failures}
            | {(a, b, min) for r in failures for a, b in r.sequence.links()}
        )
        assert len(calls) < 4 * len(failures)
        assert report.records == records

    def test_min_realization_rule_reported(self):
        # non-marginally-selective data: the same link pair has two realizing
        # treatments with different distances; the smaller must be used on the
        # right-hand side
        design = make_design((2, 2, 2), (2, 2, 2))
        rng = random.Random(3)
        ds = random_tables_dataset(design, rng)
        seqs = [s for s in enumerate_irreducible_sequences(design, max_len=4)
                if s.points[0][0] == 1 and s.points[1][0] == 2][:1]
        order = preset_order(design, "d1")
        rec = chain_test(ds, order, seqs).records[0]
        for link in rec.links:
            assert len(link.evaluated) == 2  # free third input gives 2 realizations
            assert link.distance == min(d for _, d in link.evaluated)
        assert rec.endpoint.distance == max(d for _, d in rec.endpoint.evaluated)
        # every realization named contains both points of its pair, in sorted
        # treatment order; a repeated point's link has distance 0 and lists
        # every treatment containing that point
        repeated = InputPointSequence(((1, 1), (1, 1), (2, 1)))
        rep = chain_test(ds, order, [repeated]).records[0]
        for link in (rec.endpoint, *rec.links, rep.endpoint, *rep.links):
            trs = [link.treatment] + [tr for tr, _ in link.evaluated]
            assert all(tr[l - 1] == w for tr in trs for l, w in link.pair)
            assert [tr for tr, _ in link.evaluated] == sorted(tr for tr, _ in link.evaluated)
        same = rep.links[0]
        assert same.pair == ((1, 1), (1, 1)) and same.distance == 0
        assert [tr for tr, _ in same.evaluated] == [tr for tr in design.treatments if tr[0] == 1]


class TestChainPlan:
    """`chain_test` compiles a plan per sequence list, found by the identity
    of its sequence objects: every list it is handed, in one process, must
    give the report of the `Fraction` reference."""

    @staticmethod
    def _orders(design, rng):
        top = max(design.outcome_sizes)
        custom = OrderRelation(tuple(
            frozenset((lam, a) for lam, m in enumerate(design.outcome_sizes, start=1) if a <= m)
            for a in range(top, 0, -1)
        ), name="custom")
        return [preset_order(design, "d1"), preset_order(design, "d2"), random_order(design, rng), custom]

    def test_reused_and_new_lists_match_the_reference(self):
        # the enumeration's list, reversed, sliced and extended by a walk that
        # repeats its points, each twice; then the list itself, extended
        # after it was tested
        rng = random.Random(41)
        full = make_design((3, 2), (2, 3))
        for design in (full, make_design((3, 2), (2, 3), treatments=full.treatments[1:])):
            seqs = enumerate_irreducible_sequences(design)
            x, y = seqs[0].points[:2]
            walk = InputPointSequence((x, y, x, y))
            lists = [seqs, enumerate_irreducible_sequences(design)[::-1], seqs[1::2], seqs[:1], [*seqs, walk]]
            for ds in (random_tables_dataset(design, rng), gen_classical(design, seed=5)[0]):
                for order in self._orders(design, rng):
                    for sequences in lists * 2:
                        report = chain_test(ds, order, sequences)
                        assert report.sequences == tuple(sequences)
                        assert report.records == reference_chain_test(ds, order, sequences)
                    seqs = enumerate_irreducible_sequences(design)
                    chain_test(ds, order, seqs)
                    seqs.append(walk)
                    assert chain_test(ds, order, seqs).records == reference_chain_test(ds, order, seqs)

    def test_errors_in_the_first_use_order(self):
        # after a plan of the realizable chains is built, an unrealizable
        # pair raises where it is first read, before or after a pair that
        # reads output 2, which the partial order leaves out
        design = make_design((3, 2), (2, 2), treatments=make_design((3, 2), (2, 2)).treatments[1:])
        ds = random_tables_dataset(design, random.Random(2))
        seqs = enumerate_irreducible_sequences(design)
        d1 = preset_order(design, "d1")
        assert seqs and chain_test(ds, d1, seqs).records == reference_chain_test(ds, d1, seqs)
        tetrad = InputPointSequence(((1, 2), (2, 2), (1, 1), (2, 1)))
        triple = InputPointSequence(((1, 1), (2, 1), (1, 2)))
        partial = OrderRelation((frozenset({(1, 1)}), frozenset({(1, 2)})))
        for sequences, order, match in (
            ([*seqs, tetrad], d1, r"no treatment realizes the pair \(1, 1\), \(2, 1\)"),
            ([triple, *seqs], partial, r"no treatment realizes the pair \(1, 1\), \(1, 2\)"),
            ([*seqs, triple], partial, "order does not cover all outcomes of output 2"),
        ):
            for _ in range(2):
                with pytest.raises(ValueError, match=match):
                    chain_test(ds, order, sequences)
                with pytest.raises(ValueError, match=match):
                    reference_chain_test(ds, order, sequences)


class TestFine:
    def test_prbox_exactly_one_family_violated_by_half(self):
        report = fine_inequalities(gen_prbox())
        assert not report.passed
        assert report.violated_families() == ("p11|22",)
        assert report.families()["p11|22"] == F(1, 2)
        others = {k: v for k, v in report.families().items() if k != "p11|22"}
        assert all(v == F(-1, 2) for v in others.values())

    def test_uniform_every_family_minus_half(self):
        report = fine_inequalities(uniform_chsh())
        assert report.passed
        assert set(report.families().values()) == {F(-1, 2)}

    def test_eight_records(self):
        report = fine_inequalities(uniform_chsh())
        assert len(report.records) == 8
        assert {r.bound for r in report.records} == {"lower", "upper"}

    def test_wrong_shape_rejected(self):
        ds, _ = gen_classical(make_design((2, 2), (3, 2)), seed=0)
        with pytest.raises(ValueError, match="binary"):
            fine_inequalities(ds)

    def test_ms_failure_rejected(self):
        design = make_design((2, 2), (2, 2))
        tables = {}
        for i, j in design.treatments:
            p1 = F(1, 2) if (i, j) != (1, 2) else F(1, 3)
            tables[(i, j)] = {(1, 1): p1 * F(1, 2), (1, 2): p1 * F(1, 2),
                              (2, 1): (1 - p1) * F(1, 2), (2, 2): (1 - p1) * F(1, 2)}
        ds = Dataset(design, tables)
        with pytest.raises(MarginalSelectivityError):
            fine_inequalities(ds)
        # a failing report handed over by the caller is refused the same way
        report = check_marginal_selectivity(ds)
        with pytest.raises(MarginalSelectivityError) as exc:
            fine_inequalities(ds, marginal_report=report)
        assert exc.value.report is report


class TestAxioms:
    def test_iid_uniform_binary_triple(self):
        joint = {key: F(1, 8) for key in product((1, 2), repeat=3)}
        order = OrderRelation(
            (frozenset({(v, 1) for v in (1, 2, 3)}), frozenset({(v, 2) for v in (1, 2, 3)}))
        )
        report = check_pq_metric_axioms(joint, order)
        assert report.passed
        for i in (1, 2, 3):
            for j in (1, 2, 3):
                assert report.distances[(i, j)] == (F(1, 4) if i != j else F(0))

    def test_comonotone_all_zero(self):
        joint = {(1, 1, 1): F(1, 2), (2, 2, 2): F(1, 2)}
        order = OrderRelation(
            (frozenset({(v, 1) for v in (1, 2, 3)}), frozenset({(v, 2) for v in (1, 2, 3)}))
        )
        report = check_pq_metric_axioms(joint, order)
        assert report.passed
        assert all(d == 0 for d in report.distances.values())

    def test_fuzz_axioms_always_hold(self):
        rng = random.Random(101)
        for _ in range(100):
            sizes = [rng.randint(2, 3) for _ in range(3)]
            keys = list(product(*(range(1, s + 1) for s in sizes)))
            weights = [rng.randint(0, 9) for _ in keys]
            if sum(weights) == 0:
                weights[0] = 1
            total = sum(weights)
            joint = {k: F(w, total) for k, w in zip(keys, weights) if w}
            pool = [(v, a) for v, s in enumerate(sizes, start=1) for a in range(1, s + 1)]
            rng.shuffle(pool)
            classes = [[pool[0]]]
            for el in pool[1:]:
                if rng.random() < 0.5:
                    classes.append([el])
                else:
                    classes[-1].append(el)
            order = OrderRelation(tuple(frozenset(c) for c in classes))
            assert check_pq_metric_axioms(joint, order).passed

    def test_non_integer_outcome_keys_rejected(self):
        # 1.9 is no outcome index: it must not be read as outcome 1
        order = OrderRelation(
            (frozenset({(v, 1) for v in (1, 2, 3)}), frozenset({(v, 2) for v in (1, 2, 3)}))
        )
        for bad in (1.9, True):
            with pytest.raises(ValueError, match="not an integer"):
                check_pq_metric_axioms({(bad, 1, 1): F(1, 2), (2, 2, 2): F(1, 2)}, order)
        assert check_pq_metric_axioms({(1.0, "1", 1): F(1, 2), (2, 2, 2): F(1, 2)}, order).passed

    def test_two_variables_rejected(self):
        with pytest.raises(ValueError, match="three variables"):
            check_pq_metric_axioms({(1, 1): F(1)}, OrderRelation((frozenset({(1, 1), (2, 1)}),)))
