import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import example, given, settings, strategies as st

from selinf.distances import preset_order
from selinf.errors import SizeGuardError
from selinf import experiment
from selinf.experiment import (
    Dataset,
    ExperimentDesign,
    Input,
    Output,
    check_marginal_selectivity,
    coerce_prob,
    make_design,
    marginal_discrepancy,
    scaled,
    validate_dataset,
)
from selinf.generators import gen_classical, gen_double_detection, gen_prbox
from selinf.lft import LftSystem, QVector, build_p_vector, run_lft
from selinf.rational_lp import FeasibilityResult, solve_equality_feasibility, verify_certificate

from helpers import (
    check_pq_metric_axioms,
    marginal,
    random_small_design,
    random_tables_dataset,
    reference_check_marginal_selectivity,
    transform_outputs,
)

F = Fraction


def uniform_chsh() -> Dataset:
    design = make_design((2, 2), (2, 2))
    table = {o: F(1, 4) for o in product((1, 2), (1, 2))}
    return Dataset(design, {tr: dict(table) for tr in design.treatments})


CHSH = make_design((2, 2), (2, 2))
HALF = F(1, 2)


def _pr_certificate():
    pr = gen_prbox()
    p = build_p_vector(pr)
    return p, FeasibilityResult(False, None, run_lft(pr).farkas, 0)


# each entry point that takes a probability or weight, fed one inexact number
ENTRY_POINTS = {
    "Dataset": lambda bad: Dataset(CHSH, {(1, 1): {(1, 1): bad, (2, 2): HALF}}),
    "QVector": lambda bad: QVector(CHSH, (bad,) + (F(0),) * 15),
    "gen_classical": lambda bad: gen_classical(CHSH, q=[bad] + [0] * 15),
    "gen_double_detection-rates": lambda bad: gen_double_detection(
        {(1, 1): bad, (1, 2): HALF, (2, 1): HALF, (2, 2): HALF}, 0
    ),
    "gen_double_detection-coupling": lambda bad: gen_double_detection([[HALF, HALF], [HALF, HALF]], bad),
    "solve_equality_feasibility": lambda bad: solve_equality_feasibility(
        LftSystem(CHSH), [bad, *_pr_certificate()[0][1:]]
    ),
    "verify_certificate-P": lambda bad: verify_certificate(
        LftSystem(CHSH), [bad, *_pr_certificate()[0][1:]], _pr_certificate()[1]
    ),
    "verify_certificate-witness": lambda bad: verify_certificate(
        LftSystem(CHSH), [F(1, 4)] * 16, FeasibilityResult(True, (bad,) + (F(0),) * 15, None, 0)
    ),
    "check_pq_metric_axioms": lambda bad: check_pq_metric_axioms(
        {(1, 1, 1): bad, (2, 2, 2): HALF}, preset_order(make_design((2, 2, 2), (2, 2, 2)), "d1")
    ),
}


def _fraction_of_str(text: str) -> Fraction:
    """`coerce_prob` on a string without its "p/q" fast path: the exponent
    guard, then Fraction(str)."""
    exponent = experiment._EXPONENT.search(text)
    if exponent and abs(int(exponent.group(1))) > experiment.MAX_EXPONENT:
        raise ValueError(f"decimal exponent beyond {experiment.MAX_EXPONENT}")
    return Fraction(text)


# decimal digits in several scripts (ASCII, Arabic-Indic, fullwidth,
# mathematical bold, NKo), numerals that are not decimal, underscores and
# runs past int's 4300-digit limit
_DIGITS = "0123456789\u0660\u0663\u0669\uff10\uff15\U0001d7ce\U0001d7d7\u07c0\u07c9"
_NUMERALS = st.one_of(
    st.text(st.sampled_from(_DIGITS), max_size=6),
    st.text(st.sampled_from(_DIGITS + "_"), max_size=6),
    st.sampled_from(["", "0", "00", "1_000", "_1", "1_", "1__0", "\u00b2", "\u00bd", "\u216b",
                     "9" * 4301, "1" * 5000]),
)
_PROB_STRINGS = st.one_of(
    st.builds(
        lambda lead, sign, num, sep, den, trail: lead + sign + num + sep + den + trail,
        st.sampled_from(["", "", " ", "\t", "\u2003"]),
        st.sampled_from(["", "", "+", "-"]),
        _NUMERALS,
        st.sampled_from(["/", "/", "/", ".", "e", "E-", "e+", ".5e", " /", "/ ", "//", ""]),
        _NUMERALS,
        st.sampled_from(["", "", " ", "\n", "\x85"]),
    ),
    st.text(st.sampled_from(_DIGITS + "/._eE+- "), max_size=10),
)


class TestExactNumbers:
    @pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
    def test_inexact_numbers_refused(self, entry):
        # a float and a bool are not exact probabilities, and a short string
        # with a huge decimal exponent would build an enormous denominator
        for bad, error, message in (
            (0.5, TypeError, "got float"),
            (True, TypeError, "got bool"),
            ("1e-1001", ValueError, "exponent"),
        ):
            with pytest.raises(error, match=message):
                ENTRY_POINTS[entry](bad)

    def test_exact_numbers_accepted(self):
        for value, exact in ((F(1, 3), F(1, 3)), (2, F(2)), ("0.25", F(1, 4)), ("1e-1000", F(1, 10**1000))):
            assert coerce_prob(value) == exact
        ds, _ = gen_classical(CHSH, q=[F(1, 10)] * 10 + [0] * 6)
        assert sum(ds.table((1, 1)).values()) == 1

    @settings(max_examples=500, deadline=None, derandomize=True)
    @given(_PROB_STRINGS)
    @example("1/0")
    @example("\u0663/0")
    @example("1_0/0")
    @example("9" * 4301 + "/1")
    @example("1/" + "9" * 4301)
    @example("9" * 4301 + "/0")
    @example(" 1/2")
    @example("1/2\n")
    @example("+1/2")
    @example("-1/2")
    @example("1 / 2")
    @example("1/2/3")
    @example("/2")
    @example("1/")
    @example("\u00b2/3")
    @example("0.25")
    @example("25e-2")
    def test_strings_read_as_fraction_reads_them(self, text):
        # "p/q" in decimal digits is read by int, any other string by
        # Fraction(str): the value, or the refusal's type and message, is
        # the one Fraction(str) gives behind the exponent guard
        def outcome(read):
            try:
                return read(text)
            except (ValueError, ZeroDivisionError) as exc:
                return type(exc), str(exc)

        assert outcome(coerce_prob) == outcome(_fraction_of_str)

    def test_scaled(self):
        assert scaled([F(1, 2), F(-1, 3), F(0), F(5)]) == (6, [3, -2, 0, 30])
        assert scaled(iter([F(2, 4)])) == (2, [1])
        assert scaled([]) == (1, [])

    def test_integer_tables(self):
        # one lcm over every table, each table's pairs in its own order,
        # computed once per dataset
        ds = Dataset(
            make_design((2,), (2,)),
            {(1,): {(1,): F(1, 2), (2,): F(1, 2)}, (2,): {(2,): F(1, 3), (1,): F(2, 3)}},
        )
        assert ds.integer_tables == (6, {(1,): [((1,), 3), ((2,), 3)], (2,): [((2,), 2), ((1,), 4)]})
        assert ds.integer_tables is ds.integer_tables
        assert Dataset(make_design((2,), (2,)), {}).integer_tables == (1, {})


class TestDesign:
    def test_treatments_sorted_and_deduped(self):
        d = make_design((2, 2), (2, 2), treatments=[(2, 1), (1, 2)])
        assert d.treatments == ((1, 2), (2, 1))
        assert not d.is_factorial
        assert make_design((2, 2), (2, 2)).is_2x2
        assert make_design((2, 2), (3, 3)).is_2x2  # outcome counts do not matter
        assert not make_design((2, 3), (2, 2)).is_2x2
        assert not make_design((2, 2), (2, 2), treatments=[(1, 1), (1, 2), (2, 1)]).is_2x2
        assert not make_design((2, 2, 2), (2, 2, 2)).is_2x2

    def test_duplicate_treatments_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            make_design((2, 2), (2, 2), treatments=[(1, 1), (1, 1)])

    def test_out_of_range_treatment_rejected(self):
        with pytest.raises(ValueError, match="invalid value"):
            make_design((2, 2), (2, 2), treatments=[(1, 3)])

    def test_fractional_treatment_rejected(self):
        # int() would truncate (1.9, 1) to (1, 1)
        for bad in ((1.9, 1), (True, 2), (F(3, 2), 1)):
            with pytest.raises(ValueError, match="not an integer"):
                make_design((2, 2), (2, 2), treatments=[bad, (2, 2)])
        assert make_design((2, 2), (2, 2), treatments=[(1.0, "2")]).treatments == ((1, 2),)

    def test_treatment_groups(self):
        design = make_design((3, 2), (2, 2), treatments=[(3, 1), (2, 2), (1, 2), (2, 1), (3, 2)])
        # keyed by the values on the subset, in first-seen sorted order; each
        # group sorted, so its first member has the lowest value on the other input
        assert design.treatment_groups((2,)) == {
            (1,): [(2, 1), (3, 1)],
            (2,): [(1, 2), (2, 2), (3, 2)],
        }
        assert list(design.treatment_groups((1,))) == [(1,), (2,), (3,)]
        assert design.treatment_groups((1,))[(2,)] == [(2, 1), (2, 2)]
        assert design.treatment_groups((1, 2)) == {tr: [tr] for tr in design.treatments}
        one = make_design((3,), (2,), treatments=[(3,), (2,)])
        assert one.treatment_groups(()) == {(): [(2,), (3,)]}

    def test_treatment_groups_refuses_bad_positions(self):
        # tr[lam - 1] read position 0 as input 2 and -1 as input 1, and
        # position 3 ended in a bare IndexError
        design = make_design((2, 2), (2, 2))
        for subset in ((0,), (-1,), (3,), (1, 3)):
            with pytest.raises(ValueError, match="out of range"):
                design.treatment_groups(subset)
        with pytest.raises(ValueError, match="not an integer"):
            design.treatment_groups((1.5,))

    def test_empty_treatments_rejected(self):
        with pytest.raises(ValueError, match="nonempty"):
            make_design((2, 2), (2, 2), treatments=[])

    def test_duplicate_labels_rejected(self):
        inp = (Input("a", ("1",)), Input("a", ("1",)))
        out = (Output("A1", ("1",)), Output("A2", ("1",)))
        with pytest.raises(ValueError, match="duplicate input labels"):
            ExperimentDesign(inp, out, ((1, 1),))
        with pytest.raises(ValueError, match="duplicate value labels"):
            Input("a", ("1", "1"))

    def test_inputs_and_outputs_share_one_body(self):
        assert Input("a", ("1", 2)) == Input("a", ("1", "2"))
        assert Input("a", ("1",)) != Output("a", ("1",))
        assert Output("A", ("x", "y", "z")).size == 3
        for cls, message in (
            (Input, "input 'a' has no values"),
            (Output, "output 'a' has no outcomes"),
        ):
            with pytest.raises(ValueError, match=f"^{message}$"):
                cls("a", ())
        with pytest.raises(ValueError, match="^output 'a' has duplicate outcome labels$"):
            Output("a", ("1", "1"))


class TestValidate:
    def test_uniform_chsh_valid(self):
        assert validate_dataset(uniform_chsh()).valid

    def test_fractional_table_keys_rejected(self):
        # int() would make (1.5, 1) a second (1, 1) table that replaces the first
        ds = uniform_chsh()
        with pytest.raises(ValueError, match="not an integer"):
            Dataset(ds.design, {**ds.tables, (1.5, 1): {(1, 1): F(1)}})
        with pytest.raises(ValueError, match="not an integer"):
            Dataset(ds.design, {(True, 2): ds.tables[(1, 2)]})
        with pytest.raises(ValueError, match="not an integer"):
            Dataset(ds.design, {(1, 1): {(1, 2.5): F(1)}})

    def test_entries_read_value_first(self):
        # a table's treatment is read first, then each entry's value, and
        # its outcome only if the value is nonzero
        for tables, error, message in (
            ({("x", 1): {(1, 1): "one"}}, ValueError, "invalid literal for int() with base 10: 'x'"),
            ({(1, 1): {("x", 1): "one"}}, ValueError, "Invalid literal for Fraction: 'one'"),
            ({(1, 1): {("x", 1): "1/2"}}, ValueError, "invalid literal for int() with base 10: 'x'"),
            ({(1, 1): {("x", 1): "1/0"}}, ZeroDivisionError, "Fraction(1, 0)"),
            ({(1, 1): {(1, 1): 0.5}}, TypeError, "probabilities must be Fraction, int or exact string, got float"),
        ):
            with pytest.raises(error) as refused:
                Dataset(CHSH, tables)
            assert str(refused.value) == message
        ds = Dataset(CHSH, {(1, 1): {("x", 1): "0", (2, 2): "0/7", (1, 2): "\u0663/\u0663"}})
        assert ds.tables == {(1, 1): {(1, 2): F(1)}}

    def test_mass_deficit_reported(self):
        design = make_design((1,), (2,))
        ds = Dataset(design, {(1,): {(1,): F(49, 100), (2,): F(1, 2)}})
        report = validate_dataset(ds)
        assert not report.valid
        [breach] = report.breaches
        assert breach.kind == "mass"
        assert "deficit 1/100" in breach.message

    def test_outcome_out_of_range(self):
        design = make_design((1,), (2,))
        ds = Dataset(design, {(1,): {(3,): F(1)}})
        kinds = {b.kind for b in validate_dataset(ds).breaches}
        assert "bad-outcome" in kinds

    def test_unknown_treatment_and_missing_table(self):
        design = make_design((2,), (2,), treatments=[(1,)])
        ds = Dataset(design, {(2,): {(1,): F(1)}})
        kinds = {b.kind for b in validate_dataset(ds).breaches}
        assert kinds == {"unknown-treatment", "missing-table"}

    def test_negative_probability(self):
        design = make_design((1,), (2,))
        ds = Dataset(design, {(1,): {(1,): F(3, 2), (2,): F(-1, 2)}})
        kinds = {b.kind for b in validate_dataset(ds).breaches}
        assert "negative-probability" in kinds

    def test_generator_outputs_validate(self):
        rng = random.Random(5)
        for _ in range(25):
            design = random_small_design(rng, factorial=rng.random() < 0.7)
            ds, _ = gen_classical(design, seed=rng.randrange(10**9))
            assert validate_dataset(ds).valid


class TestMarginal:
    def test_prbox_single_marginals(self):
        pr = gen_prbox()
        m = marginal(pr, (1, 1), {1})
        assert m == {(1,): F(1, 2), (2,): F(1, 2)}
        assert marginal_discrepancy(m, marginal(pr, (1, 2), {1})) == 0
        # a key missing on one side counts as probability zero there
        assert marginal_discrepancy(m, {(2,): F(1)}) == F(1, 2)
        assert marginal_discrepancy({(1,): F(1)}, {(2,): F(1)}) == 1

    def test_full_subset_is_identity(self):
        pr = gen_prbox()
        assert marginal(pr, (2, 2), {1, 2}) == dict(pr.table((2, 2)))

    def test_product_marginalizes_to_factor(self):
        design = make_design((1, 1), (2, 3))
        q = {1: F(1, 3), 2: F(2, 3)}
        r = {1: F(1, 2), 2: F(1, 3), 3: F(1, 6)}
        ds = Dataset(
            design,
            {(1, 1): {(a, b): q[a] * r[b] for a in q for b in r}},
        )
        assert marginal(ds, (1, 1), {2}) == {(b,): r[b] for b in r}

    def test_unknown_treatment_rejected(self):
        with pytest.raises(ValueError, match="unknown treatment"):
            marginal(gen_prbox(), (3, 1), {1})

    def test_empty_subset_rejected(self):
        with pytest.raises(ValueError, match="nonempty"):
            marginal(gen_prbox(), (1, 1), set())
        # int() would truncate 1.5 to input 1
        with pytest.raises(ValueError, match="not an integer"):
            marginal(gen_prbox(), (1, 1), [1.5])

    def test_marginal_composition(self):
        rng = random.Random(11)
        for _ in range(20):
            design = random_small_design(rng, max_n=3)
            ds = random_tables_dataset(design, rng)
            tr = rng.choice(design.treatments)
            n = design.n
            outer = sorted(rng.sample(range(1, n + 1), rng.randint(1, n)))
            inner = sorted(rng.sample(outer, rng.randint(1, len(outer))))
            direct = marginal(ds, tr, inner)
            mid = marginal(ds, tr, outer)
            sub = Dataset(
                make_design(
                    tuple(design.input_sizes[l - 1] for l in outer),
                    tuple(design.outcome_sizes[l - 1] for l in outer),
                    treatments=[tuple(tr[l - 1] for l in outer)],
                ),
                {tuple(tr[l - 1] for l in outer): mid},
            )
            positions = [outer.index(l) + 1 for l in inner]
            composed = marginal(sub, tuple(tr[l - 1] for l in outer), positions)
            assert composed == direct


class TestMarginalSelectivity:
    def test_prbox_passes(self):
        assert check_marginal_selectivity(gen_prbox()).passed

    def test_constructed_violation(self):
        design = make_design((2, 2), (2, 2))
        tables = {}
        for i, j in design.treatments:
            p1 = F(1, 2) if (i, j) != (1, 2) else F(1, 3)
            tables[(i, j)] = {(1, 1): p1 * F(1, 2), (1, 2): p1 * F(1, 2),
                              (2, 1): (1 - p1) * F(1, 2), (2, 2): (1 - p1) * F(1, 2)}
        report = check_marginal_selectivity(Dataset(design, tables))
        assert not report.passed
        assert any(v.discrepancy == F(1, 6) for v in report.violations)

    def test_classical_always_passes(self):
        rng = random.Random(3)
        for _ in range(20):
            design = random_small_design(rng, factorial=rng.random() < 0.5)
            ds, _ = gen_classical(design, seed=rng.randrange(10**9))
            assert check_marginal_selectivity(ds).passed

    def test_guard_trips(self):
        pr = gen_prbox()
        with pytest.raises(SizeGuardError, match="comparison_guard"):
            check_marginal_selectivity(pr, comparison_guard=3)
        assert check_marginal_selectivity(pr, comparison_guard=4).passed
        # the guard is checked before any table is read
        tableless = Dataset(pr.design, {})
        with pytest.raises(SizeGuardError, match="comparison_guard"):
            check_marginal_selectivity(tableless, comparison_guard=3)
        with pytest.raises(ValueError, match="no table"):
            check_marginal_selectivity(tableless, comparison_guard=4)

    @staticmethod
    def _counts_dataset(ds: Dataset, rng: random.Random) -> Dataset:
        """Relative frequencies of a few draws per treatment from ds's tables:
        each table's denominator is its own sample size."""
        tables = {}
        for tr, table in ds.tables.items():
            draws = rng.choices(list(table), weights=[float(p) for p in table.values()], k=rng.randint(1, 40))
            tables[tr] = {o: F(draws.count(o), len(draws)) for o in set(draws)}
        return Dataset(ds.design, tables)

    def test_matches_fraction_reference(self):
        rng = random.Random(59)
        cases = [gen_prbox()]
        for i in range(60):
            design = random_small_design(rng, max_n=4, factorial=i % 2 == 0)
            if design.n == 1:
                continue
            classical, _ = gen_classical(design, seed=rng.randrange(10**9), max_support=6)
            cases += [
                classical,
                self._counts_dataset(classical, rng),
                # one table per treatment, each over its own denominator
                random_tables_dataset(design, rng, denom=rng.choice((3, 12, 97))),
            ]
        passed = set()
        for ds in cases:
            want = reference_check_marginal_selectivity(ds)
            assert check_marginal_selectivity(ds) == want
            passed.add(want.passed)
            total = want.comparisons
            assert check_marginal_selectivity(ds, comparison_guard=total) == want
            with pytest.raises(SizeGuardError):
                check_marginal_selectivity(ds, comparison_guard=total - 1)
        assert passed == {True, False}


class TestTransformOutputs:
    def test_identity(self):
        pr = gen_prbox()
        maps = {(lam, w): {1: 1, 2: 2} for lam in (1, 2) for w in (1, 2)}
        assert transform_outputs(pr, maps) == pr

    def test_swap_on_one_input_value(self):
        pr = gen_prbox()
        maps = {(1, 2): {1: 2, 2: 1}}
        swapped = transform_outputs(pr, maps)
        # treatments with input 1 at value 2 have their first coordinate flipped
        assert swapped.table((2, 1)) == {(2, 1): F(1, 2), (1, 2): F(1, 2)}
        assert swapped.table((2, 2)) == {(2, 2): F(1, 2), (1, 1): F(1, 2)}
        # treatments with input 1 at value 1 untouched
        assert swapped.table((1, 1)) == pr.table((1, 1))
        assert swapped.table((1, 2)) == pr.table((1, 2))

    def test_collapse_to_point_mass(self):
        pr = gen_prbox()
        maps = {(lam, w): {1: 1, 2: 1} for lam in (1, 2) for w in (1, 2)}
        collapsed = transform_outputs(pr, maps)
        for tr in pr.design.treatments:
            assert collapsed.table(tr) == {(1, 1): F(1)}

    def test_partial_map_rejected(self):
        with pytest.raises(ValueError, match="total"):
            transform_outputs(gen_prbox(), {(1, 1): {1: 2}})

    def test_bijections_invert_and_preserve_ms_verdict(self):
        rng = random.Random(23)
        for _ in range(15):
            design = random_small_design(rng, factorial=True)
            ds = random_tables_dataset(design, rng)
            maps = {}
            inverse = {}
            for lam in range(1, design.n + 1):
                m = design.outcome_sizes[lam - 1]
                for w in range(1, design.input_sizes[lam - 1] + 1):
                    perm = list(range(1, m + 1))
                    rng.shuffle(perm)
                    maps[(lam, w)] = {a: perm[a - 1] for a in range(1, m + 1)}
                    inverse[(lam, w)] = {perm[a - 1]: a for a in range(1, m + 1)}
            fwd = transform_outputs(ds, maps)
            back = transform_outputs(fwd, inverse)
            assert back == ds
            assert (
                check_marginal_selectivity(fwd).passed
                == check_marginal_selectivity(ds).passed
            )
