import json
import subprocess
import sys

import pytest

from balg import cli, suites
from balg.cli import main, parse_algebra_spec
from balg.config import default_config_dict


# past the interpreter's 4,300-digit limit on integer string conversion
BIG = "7" * 5000


def run_cli(args, capsys):
    code = main(args)
    out, err = capsys.readouterr()
    return code, out, err


class TestAlgebraSpec:
    def test_forms(self):
        assert parse_algebra_spec("P(3)").atom_count == 3
        assert parse_algebra_spec("powerset:5").atom_count == 5
        assert parse_algebra_spec("finite_cofinite").kind == "finite_cofinite"
        assert parse_algebra_spec("fincof").kind == "finite_cofinite"
        assert parse_algebra_spec("trivial").is_trivial

    def test_bad_specs(self):
        from balg.algebra import AlgebraError
        # the atom count is a run of ASCII digits: int() alone would read
        # P(1_6) as P(16) and take other scripts' digits and a sign
        for spec in ("Q(3)", "P(x)", "powerset", "P(99)", "P(1_6)", "P(\u0663)",
                     "powerset:+3", f"P({BIG})"):
            with pytest.raises(AlgebraError):
                parse_algebra_spec(spec)


class TestEval:
    def test_powerset(self, capsys):
        code, out, _ = run_cli(
            ["eval", "--algebra", "P(3)", "--expr", "{1,2} & {2,3}"], capsys)
        assert code == 0 and out.strip() == "{2}"

    def test_fincof(self, capsys):
        code, out, _ = run_cli(
            ["eval", "--algebra", "fincof", "--expr", "cof{1} & cof{2}"], capsys)
        assert code == 0 and out.strip() == "cof{1,2}"

    def test_parse_error_exit_code(self, capsys):
        code, _, err = run_cli(
            ["eval", "--algebra", "P(3)", "--expr", "{1,"], capsys)
        assert code == 2 and "error" in err

    @pytest.mark.parametrize("text", ["fin{²}", "fin{１}"])
    def test_non_ascii_digit_exit_code(self, text, capsys):
        code, out, err = run_cli(["eval", "--algebra", "fincof", "--expr", text], capsys)
        assert code == 2 and out == "" and "unexpected character" in err

    def test_oversized_number_exit_code(self, capsys):
        code, out, err = run_cli(["eval", "--algebra", "fincof", "--expr", f"fin{{{BIG}}}"],
                                 capsys)
        assert code == 2 and out == "" and "too long" in err


class TestCertify:
    def test_evens(self, capsys):
        code, out, _ = run_cli(["certify", "--target", "evens", "--steps", "4"],
                               capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["kind"] == "no_supremum"
        assert payload["revalidated"] is True
        assert len(payload["steps"]) == 4
        assert payload["steps"][0] == {"defect": 1, "improved": "cof{1}",
                                       "upper_bound": "1"}

    def test_diagonal(self, capsys):
        code, out, _ = run_cli(["certify", "--target", "diagonal"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["revalidated"] is True
        assert payload["steps"][0]["defect"] == [0, 1]

    def test_custom_start(self, capsys):
        code, out, _ = run_cli(
            ["certify", "--target", "evens", "--start", "cof{3}"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["steps"][0]["upper_bound"] == "cof{3}"
        assert payload["steps"][0]["defect"] == 1

    def test_not_upper_bound(self, capsys):
        code, out, _ = run_cli(
            ["certify", "--target", "evens", "--start", "fin{0,2}"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["verdict"] == "not_upper_bound"
        assert payload["witness"] == 4

    def test_diagonal_not_upper_bound(self, capsys):
        code, out, _ = run_cli(
            ["certify", "--target", "diagonal", "--start",
             "rect(fin{0,1},fin{0,1})"], capsys)
        assert code == 0
        assert json.loads(out)["witness"] == [2, 2]

    def test_non_ascii_digit_start_exit_code(self, capsys):
        code, out, err = run_cli(
            ["certify", "--target", "evens", "--start", "cof{¹}"], capsys)
        assert code == 2 and out == "" and "unexpected character" in err

    def test_oversized_start_exit_code(self, capsys):
        code, out, err = run_cli(
            ["certify", "--target", "evens", "--start", f"cof{{{BIG}}}"], capsys)
        assert code == 2 and out == "" and "too long" in err

    @pytest.mark.parametrize("steps", ["0", "-2"])
    def test_nonpositive_steps_usage_error(self, steps, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["certify", "--target", "evens", "--steps", steps])
        assert exc.value.code == 2
        assert "usage" in capsys.readouterr().err


def light_config(tmp_path, **overrides):
    data = default_config_dict()
    data["trials"] = 30
    data.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    return path


class TestVerify:
    def test_pass_run(self, tmp_path, capsys):
        cfg = light_config(tmp_path, suites=["core_axioms", "homomorphisms"])
        report_path = tmp_path / "report.json"
        code, _, _ = run_cli(["verify", "--config", str(cfg),
                              "--report", str(report_path)], capsys)
        assert code == 0
        report = json.loads(report_path.read_text(encoding="utf-8"))
        assert [s["verdict"] for s in report["suites"]] == ["pass", "pass"]
        assert report["config_echo"]["trials"] == 30

    def test_text_format(self, tmp_path, capsys):
        cfg = light_config(tmp_path, suites=["core_axioms"])
        code, out, _ = run_cli(["verify", "--config", str(cfg),
                                "--format", "text"], capsys)
        assert code == 0
        assert "PASS" in out and "RESULT: pass" in out

    def test_text_format_shows_the_law_counts(self, tmp_path, capsys):
        cfg = light_config(tmp_path, suites=["core_axioms", "regularity"], trials=5)
        report_path = tmp_path / "report.json"
        assert run_cli(["verify", "--config", str(cfg), "--report", str(report_path)],
                       capsys)[0] == 0
        code, out, _ = run_cli(["verify", "--config", str(cfg), "--format", "text"], capsys)
        assert code == 0
        shown = {}
        for line in out.splitlines():
            law, sep, counts = line.strip().rpartition(": runs ")
            if sep:
                runs, skipped, failed = counts.replace("skipped ", "").replace(
                    "failed ", "").split(", ")
                shown[law] = {"runs": int(runs), "skipped": int(skipped),
                              "failed": int(failed)}
        report = json.loads(report_path.read_text(encoding="utf-8"))
        laws = {law: c for s in report["suites"] for law, c in s["laws"].items()}
        assert shown == laws and len(laws) > 20

    def test_suite_that_raises_writes_the_report_and_exits_1(self, tmp_path, capsys,
                                                             monkeypatch):
        def raising(cfg, rng):
            raise KeyError("planted")

        monkeypatch.setitem(suites.SUITES, "core_axioms", raising)
        cfg = light_config(tmp_path, suites=["core_axioms", "homomorphisms"])
        report_path = tmp_path / "report.json"
        code, _, err = run_cli(["verify", "--config", str(cfg),
                                "--report", str(report_path)], capsys)
        assert code == 1 and err == ""
        report = json.loads(report_path.read_text(encoding="utf-8"))
        assert [s["verdict"] for s in report["suites"]] == ["fail", "pass"]
        assert report["suites"][0]["witnesses"] == [
            {"failed": "suite raised", "error": "KeyError: 'planted'"}]

    def test_config_error_exit_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({
            "algebras": [{"name": "A", "kind": "powerset", "atoms": 20}],
            "suites": ["core_axioms"]}), encoding="utf-8")
        code, _, err = run_cli(["verify", "--config", str(path)], capsys)
        assert code == 2 and "cap exceeded" in err

    def test_oversized_integer_config_exit_2(self, tmp_path, capsys):
        text = json.dumps(default_config_dict())
        assert '"atoms": 2' in text
        path = tmp_path / "big.json"
        path.write_text(text.replace('"atoms": 2', f'"atoms": {BIG}'), encoding="utf-8")
        code, out, err = run_cli(["verify", "--config", str(path)], capsys)
        assert code == 2 and out == "" and "config error" in err

    def test_missing_file_exit_2(self, tmp_path, capsys):
        code, _, _ = run_cli(["verify", "--config", str(tmp_path / "none.json")],
                             capsys)
        assert code == 2

    def test_undecodable_config_exit_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_bytes(b'{"algebras": "\xff"}')
        code, out, err = run_cli(["verify", "--config", str(path)], capsys)
        assert code == 2 and out == "" and err.startswith("config error")

    def test_unwritable_report_exit_2_before_any_suite(self, tmp_path, capsys,
                                                       monkeypatch):
        def no_run(cfg):
            raise AssertionError("a suite ran")

        monkeypatch.setattr(cli, "run_suites", no_run)
        cfg = light_config(tmp_path, suites=["core_axioms"])
        report = tmp_path / "missing" / "report.json"
        code, out, err = run_cli(["verify", "--config", str(cfg),
                                  "--report", str(report)], capsys)
        assert code == 2 and out == "" and err.startswith("report error")
        assert not report.parent.exists()

    def test_seed_override(self, tmp_path, capsys):
        cfg = light_config(tmp_path, suites=["core_axioms"])
        r1, r2 = tmp_path / "r1.json", tmp_path / "r2.json"
        assert run_cli(["verify", "--config", str(cfg), "--report", str(r1),
                        "--seed", "99"], capsys)[0] == 0
        assert run_cli(["verify", "--config", str(cfg), "--report", str(r2),
                        "--seed", "99"], capsys)[0] == 0
        a = json.loads(r1.read_text(encoding="utf-8"))
        b = json.loads(r2.read_text(encoding="utf-8"))
        assert a["config_echo"]["seed"] == 99 == b["config_echo"]["seed"]

    @pytest.mark.parametrize("args", [
        ["eval", "--algebra", "P(3)", "--expr", "(" * 200 + "0" + ")" * 200],
        ["certify", "--target", "diagonal", "--start", "!" * 1000 + "0"],
    ], ids=["eval_parens", "certify_bangs"])
    def test_deep_nesting_exits_2_without_traceback(self, args):
        proc = subprocess.run([sys.executable, "-m", "balg.cli", *args],
                              capture_output=True, text=True)
        assert proc.returncode == 2 and proc.stdout == ""
        assert "nested more than" in proc.stderr and "Traceback" not in proc.stderr

    def test_entry_point_runs(self):
        proc = subprocess.run(
            [sys.executable, "-m", "balg.cli", "eval", "--algebra", "P(2)",
             "--expr", "!{1}"], capture_output=True, text=True)
        assert proc.returncode == 0 and proc.stdout.strip() == "{2}"
