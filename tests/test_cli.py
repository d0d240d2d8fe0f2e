import json
import random
from collections import Counter
from fractions import Fraction

import pytest

from selinf import cli, distances, experiment, lft
from selinf.cli import main
from selinf.experiment import Dataset, make_design
from selinf.generators import gen_classical, gen_ghz, gen_prbox
from selinf.io import dump_dataset, load_dataset

F = Fraction


def write(tmp_path, name, dataset):
    path = tmp_path / name
    dump_dataset(dataset, str(path))
    return str(path)


class TestValidate:
    def test_valid_file_exits_zero(self, tmp_path, capsys):
        path = write(tmp_path, "pr.json", gen_prbox())
        assert main(["validate", path]) == 0
        assert "valid" in capsys.readouterr().out

    def test_invalid_table_exits_one(self, tmp_path, capsys):
        design = make_design((1,), (2,))
        ds = Dataset(design, {(1,): {(1,): F(99, 100)}})
        path = write(tmp_path, "bad.json", ds)
        assert main(["validate", path]) == 1
        assert "mass" in capsys.readouterr().out

    def test_parse_error_exits_two(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text('{"inputs": []')
        assert main(["validate", str(path)]) == 2
        assert "error" in capsys.readouterr().err
        path.write_text("[" * 100000 + "]" * 100000)
        for command in ("validate", "test"):
            assert main([command, str(path)]) == 2
            assert "nested too deeply" in capsys.readouterr().err

    def test_malformed_probability_exits_two(self, tmp_path):
        path = tmp_path / "badprob.json"
        doc = {
            "inputs": [{"label": "a", "values": ["1"]}],
            "outputs": [{"label": "A", "values": ["1", "2"]}],
            "treatments": [{"treatment": [1], "probabilities": {"1": "half"}}],
        }
        path.write_text(json.dumps(doc))
        assert main(["validate", str(path)]) == 2
        doc["treatments"][0]["probabilities"] = ["1/2", "1/2"]
        path.write_text(json.dumps(doc))
        assert main(["validate", str(path)]) == 2
        # two keys naming one outcome, once as a repeated JSON key
        doc["treatments"][0]["probabilities"] = {"1": "1/2", "01": "1/2"}
        path.write_text(json.dumps(doc))
        assert main(["validate", str(path)]) == 2
        path.write_text(json.dumps(doc).replace('"01"', '"1"'))
        assert main(["validate", str(path)]) == 2
        # a fractional treatment index is refused, not truncated to 1
        doc["treatments"][0].update(treatment=[1.5], probabilities={"1": "1"})
        path.write_text(json.dumps(doc))
        assert main(["validate", str(path)]) == 2


class TestTest:
    def test_prbox_ruled_out_names_fine(self, tmp_path, capsys):
        path = write(tmp_path, "pr.json", gen_prbox())
        assert main(["test", path]) == 1
        out = capsys.readouterr().out
        assert "ruled out" in out
        assert "fine-inequalities" in out
        assert "1/2" in out

    def test_classical_consistent_with_witness(self, tmp_path, capsys):
        ds, _ = gen_classical(make_design((2, 2), (2, 2)), seed=7)
        path = write(tmp_path, "cl.json", ds)
        assert main(["test", path]) == 0
        out = capsys.readouterr().out
        assert "consistent with selective influences" in out
        assert "classical model" in out

    def test_ms_violation_fails_at_first_stage(self, tmp_path, capsys):
        design = make_design((2, 2), (2, 2))
        tables = {}
        for i, j in design.treatments:
            p1 = F(1, 2) if (i, j) != (1, 2) else F(1, 3)
            tables[(i, j)] = {(1, 1): p1 * F(1, 2), (1, 2): p1 * F(1, 2),
                              (2, 1): (1 - p1) * F(1, 2), (2, 2): (1 - p1) * F(1, 2)}
        path = write(tmp_path, "ms.json", Dataset(design, tables))
        assert main(["test", path]) == 1
        out = capsys.readouterr().out
        assert "first failing test: marginal-selectivity" in out

    def test_json_report_schema(self, tmp_path, capsys):
        path = write(tmp_path, "pr.json", gen_prbox())
        assert main(["test", path, "--json"]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["schema_version"] == "1"
        assert doc["verdict"] == "ruled-out"
        assert doc["first_failure"] == "fine-inequalities"
        names = [s["name"] for s in doc["stages"]]
        assert names == [
            "marginal-selectivity",
            "fine-inequalities",
            "chain-tests",
            "cosphericity",
            "lft",
        ]
        lft_stage = doc["stages"][-1]
        assert lft_stage["detail"]["verdict"] == "infeasible"

    def test_chain_failure_certifies_the_lft(self, tmp_path, capsys):
        # the PR box fails a chain, whose vector the LFT verifies and reports
        # with no pivot; GHZ passes every chain and gets its vector from the
        # solver; requests in one process hand nothing on to the next
        pr = write(tmp_path, "pr.json", gen_prbox())
        ghz = write(tmp_path, "ghz.json", gen_ghz())
        for path, source in ((pr, True), (ghz, False), (pr, True), (ghz, False)):
            assert main(["test", path, "--json"]) == 1
            stages = {s["name"]: s for s in json.loads(capsys.readouterr().out)["stages"]}
            lft_stage = stages["lft"]
            assert lft_stage["detail"]["verdict"] == "infeasible"
            assert (stages["chain-tests"]["status"] == "fail") == source
            assert ("farkas_source" in lft_stage["detail"]) == source
            assert ("failing chain" in lft_stage["summary"]) == source
        assert main(["test", pr, "--json"]) == 1
        detail = json.loads(capsys.readouterr().out)["stages"][-1]["detail"]
        assert detail["pivots"] == 0
        assert detail["farkas_source"] == {
            "stage": "chain-tests", "order": "d1", "points": [[1, 2], [2, 1], [1, 1], [2, 2]],
        }
        assert main(["test", pr]) == 1
        assert "lft: FAIL - infeasible; Farkas certificate from the failing chain attached" in (
            capsys.readouterr().out
        )

    def test_no_lft_skips_stage(self, tmp_path, capsys):
        ds, _ = gen_classical(make_design((2, 2), (2, 2)), seed=3)
        path = write(tmp_path, "cl.json", ds)
        assert main(["test", path, "--no-lft", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["stages"][-1]["status"] == "skip"

    def test_bad_tolerance_exits_two(self, tmp_path, capsys):
        # --tol=nan read the PR box's cosphericity failure as a pass
        path = write(tmp_path, "pr.json", gen_prbox())
        for tol in ("nan", "inf", "-1"):
            assert main(["test", path, f"--tol={tol}"]) == 2
            assert "tolerance" in capsys.readouterr().err
        # refused before any stage runs, also where cosphericity skips
        ghz = write(tmp_path, "ghz.json", gen_ghz())
        for tol in ("nan", "inf", "-1"):
            assert main(["test", ghz, f"--tol={tol}", "--no-lft"]) == 2
            assert "tolerance" in capsys.readouterr().err

    def test_column_guard_exits_two(self, tmp_path, capsys):
        ds, _ = gen_classical(make_design((2, 2), (3, 3)), seed=1)
        path = write(tmp_path, "big.json", ds)
        assert main(["test", path, "--column-guard", "10"]) == 2
        assert "column" in capsys.readouterr().err

    def test_invalid_dataset_exits_two(self, tmp_path):
        design = make_design((1,), (2,))
        ds = Dataset(design, {(1,): {(1,): F(99, 100)}})
        path = write(tmp_path, "bad.json", ds)
        assert main(["test", path]) == 2

    def test_zero_variance_skips_cosphericity(self, tmp_path, capsys):
        design = make_design((2, 2), (2, 2))
        tables = {tr: {(1, 1): F(1)} for tr in design.treatments}
        path = write(tmp_path, "det.json", Dataset(design, tables))
        assert main(["test", path, "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        cos = next(s for s in doc["stages"] if s["name"] == "cosphericity")
        assert cos["status"] == "skip"
        assert "variance" in cos["summary"]

    def test_custom_orders_file(self, tmp_path, capsys):
        ds, _ = gen_classical(make_design((2, 2), (2, 2)), seed=11)
        path = write(tmp_path, "cl.json", ds)
        orders = {
            "orders": [
                {"name": "mine", "classes": [[[1, 1], [2, 2]], [[1, 2], [2, 1]]]}
            ]
        }
        opath = tmp_path / "orders.json"
        opath.write_text(json.dumps(orders))
        assert main(["test", path, "--orders-file", str(opath), "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        chain = next(s for s in doc["stages"] if s["name"] == "chain-tests")
        assert chain["detail"]["orders"][0]["order"] == "mine"
        # malformed orders files are input errors that name the file
        # [1.9, 1.2] would be truncated to the point (1, 1)
        fractional = {"orders": [{"classes": [[[1.9, 1.2], [2, 2]], [[1, 2], [2, 1]]]}]}
        for bad in ({"nope": 1}, {"orders": [{"classes": [[1, 1]]}]}, fractional):
            opath.write_text(json.dumps(bad))
            assert main(["test", path, "--orders-file", str(opath)]) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: orders file") and str(opath) in err
        opath.write_text("[" * 100000 + "]" * 100000)
        assert main(["test", path, "--orders-file", str(opath)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: orders file") and str(opath) in err
        # no order at all would let every chain test pass vacuously
        opath.write_text(json.dumps({"orders": []}))
        assert main(["test", path, "--orders-file", str(opath)]) == 2
        assert "no order" in capsys.readouterr().err
        assert main(["test", path, "--orders", ","]) == 2
        assert "no order" in capsys.readouterr().err


class TestGenerate:
    def test_generate_prbox_roundtrip(self, tmp_path):
        path = tmp_path / "pr.json"
        assert main(["generate", "prbox", "-o", str(path)]) == 0
        assert load_dataset(str(path)) == gen_prbox()
        assert main(["validate", str(path)]) == 0

    def test_generate_singlet_then_test_ruled_out(self, tmp_path, capsys):
        path = tmp_path / "singlet.json"
        assert (
            main(
                [
                    "generate", "singlet",
                    "--angles", "0,pi/2,pi/4,3pi/4",
                    "--precision", "12",
                    "-o", str(path),
                ]
            )
            == 0
        )
        assert main(["test", str(path)]) == 1

    def test_generate_classical_then_test_consistent(self, tmp_path, capsys):
        path = tmp_path / "cl.json"
        assert main(["generate", "classical", "--seed", "7", "-o", str(path)]) == 0
        assert main(["test", str(path)]) == 0

    def test_generate_ghz_then_test_ruled_out(self, tmp_path, capsys):
        path = tmp_path / "ghz.json"
        assert main(["generate", "ghz", "-o", str(path)]) == 0
        assert main(["test", str(path)]) == 1
        out = capsys.readouterr().out
        assert "lft" in out

    def test_generate_double_detection(self, tmp_path):
        path = tmp_path / "dd.json"
        assert (
            main(
                [
                    "generate", "double-detection",
                    "--rates", "9/10,3/5,4/5,1/2",
                    "--coupling", "1/3",
                    "-o", str(path),
                ]
            )
            == 0
        )
        assert main(["test", str(path)]) == 0

    def test_bad_params_exit_two(self, tmp_path, capsys):
        assert main(["generate", "singlet", "--angles", "0,pi/2", "-o", str(tmp_path / "x.json")]) == 2
        assert main(["generate", "nope", "-o", str(tmp_path / "x.json")]) == 2
        # 2**21 assignments, over the LFT's column guard
        big = ["--inputs", "7,7,7", "--outcomes", "2,2,2"]
        assert main(["generate", "classical", *big, "-o", str(tmp_path / "x.json")]) == 2
        capsys.readouterr()
        # a zero denominator, a huge exponent or a precision past the float
        # range is one error line, not a traceback
        for extra in (
            ["--rates", "1/2,1/2,1/2,1/0"],
            ["--coupling", "1/0"],
            ["--coupling", "1e-100000000"],
            ["--precision", "309"],
        ):
            kind = "singlet" if extra[0] == "--precision" else "double-detection"
            assert main(["generate", kind, *extra, "-o", str(tmp_path / "x.json")]) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: ") and err.count("\n") == 1

    def test_roundtrip_every_kind_100_seeds(self, tmp_path, capsys):
        # generate -> validate -> test matches the generator's ground truth:
        # classical over 100 random seeds, the fixed kinds once each
        rng = random.Random(0)
        for _ in range(100):
            seed = rng.randrange(10**6)
            path = tmp_path / f"c{seed}.json"
            assert main(["generate", "classical", "--seed", str(seed), "-o", str(path)]) == 0
            assert main(["validate", str(path)]) == 0
            assert main(["test", str(path)]) == 0
        fixed = {
            ("prbox", ()): 1,
            ("ghz", ()): 1,
            ("singlet", ("--angles", "0,pi/2,pi/4,3pi/4")): 1,
            ("singlet", ("--angles", "0,pi/2,0,pi/2")): 0,
            ("double-detection", ("--rates", "3/4,1/2,2/3,1/3", "--coupling", "1/2")): 0,
        }
        for (kind, extra), want in fixed.items():
            path = tmp_path / f"{kind}-{want}.json"
            assert main(["generate", kind, *extra, "-o", str(path)]) == 0
            assert main(["validate", str(path)]) == 0
            assert main(["test", str(path)]) == want
        capsys.readouterr()


class TestOneProcess:
    """Many requests through one `main`, as the benchmark and library callers send them."""

    @staticmethod
    def _run(argvs, capsys):
        results = []
        for argv in argvs:
            code = main(argv)
            results.append((code, *capsys.readouterr()))
        return results

    def test_requests_stay_independent(self, tmp_path, capsys, monkeypatch):
        path = write(tmp_path, "pr.json", gen_prbox())
        argvs = [
            ["test", path, "--no-lft"],
            ["test", path, "--orders", "d2"],
            ["test", path, "--tol", "nan"],
            ["validate", path],
            ["generate", "prbox"],
            ["test", "--help"],
            ["test", path],
        ]
        fresh = cli.build_parser
        built = []

        def spy():
            built.append(1)
            return fresh()

        monkeypatch.setattr(cli, "build_parser", spy)
        cli._parser.cache_clear()
        reused = self._run(argvs, capsys)
        assert len(built) == 1
        assert [code for code, _, _ in reused] == [1, 1, 2, 0, 0, 0, 1]
        # the same calls, each on a parser of its own
        monkeypatch.setattr(cli, "_parser", fresh)
        assert self._run(argvs, capsys) == reused
        assert len(built) == 1

    @pytest.mark.parametrize("ks, ms", [((2, 2), (2, 2)), ((2, 2, 2), (2, 2, 2))])
    def test_each_check_runs_once_per_request(self, tmp_path, capsys, monkeypatch, ks, ms):
        ds, _ = gen_classical(make_design(ks, ms), seed=11)
        path = write(tmp_path, "classical.json", ds)
        calls = Counter()
        for name in ("check_marginal_selectivity", "validate_dataset"):
            original = getattr(experiment, name)

            def spy(*args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            for module in (cli, distances, lft):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, spy)
        for request in range(1, 3):
            assert main(["test", path, "--json"]) == 0
            stages = {s["name"]: s["status"] for s in json.loads(capsys.readouterr().out)["stages"]}
            assert stages["lft"] == "pass"
            assert stages["fine-inequalities"] == ("pass" if ks == (2, 2) else "skip")
            assert calls == {"check_marginal_selectivity": request, "validate_dataset": request}
