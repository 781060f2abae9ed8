import io
import json
import subprocess
import sys

import pytest

from nsforge import cli, jsonio

ETA0 = {"n": 4, "coeffs": [
    {"i": 3, "j": 8, "a": 1}, {"i": 3, "j": 7, "a": -1},
    {"i": 2, "j": 5, "a": 1}, {"i": 2, "j": 6, "a": -1},
    {"i": 1, "j": 6, "a": 1}, {"i": 4, "j": 7, "a": 1},
    {"i": 1, "j": 5, "a": -1}, {"i": 4, "j": 8, "a": -1},
]}


def run_cli(args, stdin_obj=None):
    proc = subprocess.run(
        [sys.executable, "-m", "nsforge"] + args,
        capture_output=True, text=True,
        input=json.dumps(stdin_obj) if stdin_obj is not None else None,
    )
    return proc


def write_json(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


class TestCheck:
    def test_golden_class(self, tmp_path):
        proc = run_cli(["check", "--in", write_json(tmp_path, "e.json", ETA0)])
        assert proc.returncode == 0
        payload = json.loads(proc.stdout)
        assert payload["u"] == 2 and payload["d"] == 2
        assert payload["mod_L"] == {"congruence_ok": True, "qr_ok": True}

    def test_imprimitive_is_an_error(self, tmp_path):
        doubled = {"n": 4, "coeffs": [dict(c, a=2 * c["a"]) for c in ETA0["coeffs"]]}
        proc = run_cli(["check", "--in", write_json(tmp_path, "d.json", doubled)])
        assert proc.returncode == 2
        err = json.loads(proc.stderr)
        assert err["error"]["code"] == "NotPrimitive"

    def test_negative_answer(self):
        square = {"n": 2, "coeffs": [{"i": 1, "j": 2, "a": 1}, {"i": 3, "j": 4, "a": 1}]}
        proc = run_cli(["check", "--in", "-"], stdin_obj=square)
        assert proc.returncode == 1
        assert json.loads(proc.stdout) == {"class": None}


class TestAnalytic:
    def test_negative_on_generic_tau(self, tmp_path):
        tau = {"n": 4, "backend": "float", "entries": [
            [[0.1 * (i + 1) * (j + 1), 1.9 if i == j else 0.07] for j in range(4)]
            for i in range(4)]}
        proc = run_cli([
            "analytic", "--in", write_json(tmp_path, "e.json", ETA0),
            "--tau", write_json(tmp_path, "t.json", tau)])
        assert proc.returncode == 1
        assert json.loads(proc.stdout)["vanishes"] is False

    def test_positive_on_witness(self, tmp_path):
        wit = run_cli(["witness", "--n", "4", "--u", "2", "--type", "2,2"])
        assert wit.returncode == 0
        payload = json.loads(wit.stdout)
        eta_path = write_json(tmp_path, "eta.json", payload["eta"])
        tau_path = write_json(tmp_path, "tau.json", payload["tau"])
        proc = run_cli(["analytic", "--in", eta_path, "--tau", tau_path])
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["vanishes"] is True


class TestRoundTrips:
    def test_profile(self, tmp_path):
        proc = run_cli(["profile", "--in", write_json(tmp_path, "e.json", ETA0)])
        assert json.loads(proc.stdout) == {"n": 4, "values": [24, 16, 0, 0]}

    def test_norm_and_analyze(self, tmp_path):
        path = write_json(tmp_path, "e.json", ETA0)
        norm = json.loads(run_cli(["norm", "--in", path]).stdout)
        assert norm["u"] == 2 and norm["d"] == 2
        assert norm["certificate"] == {"char_ok": True, "min_ok": True}
        rep = json.loads(run_cli(["analyze", "--in", path]).stdout)
        assert rep["type"] == [2, 2]
        assert rep["u"] == 2 and rep["d"] == 2

    def test_relations(self, tmp_path):
        proc = run_cli(["relations", "--in", write_json(tmp_path, "e.json", ETA0)])
        rel = json.loads(proc.stdout)
        assert rel["n"] == 4 and len(rel["polynomials"]) == 4

    def test_glue_and_witness_agree(self, tmp_path):
        spec = {
            "u": 1, "type": [1],
            "tauX": {"n": 1, "backend": "exact", "entries": [[["0", "1"]]]},
            "tauY": {"n": 1, "backend": "exact", "entries": [[["0", "1"]]]},
            "f": [[1, 0], [0, 1]], "g": [[1, 0], [0, 1]],
        }
        glued = json.loads(run_cli(["glue", "--in", write_json(tmp_path, "g.json", spec)]).stdout)
        wit = json.loads(run_cli(["witness", "--n", "2", "--u", "1", "--type", "1"]).stdout)
        assert glued == wit

    def test_humbert_both_directions(self, tmp_path):
        datum = {"a": 1, "b": 3, "c": 0, "d": 0, "e": 0, "m": 3}
        fwd = json.loads(run_cli(["humbert", "--in", write_json(tmp_path, "s.json", datum)]).stdout)
        assert fwd["datum"] == datum
        back = json.loads(run_cli(["humbert", "--in", write_json(tmp_path, "f.json", fwd["eta"])]).stdout)
        assert back["datum"] == datum

    def test_act_round_trip(self, tmp_path):
        payload = {"eta": ETA0, "S": [[1 if i == j else 0 for j in range(8)] for i in range(8)]}
        proc = run_cli(["act", "--in", write_json(tmp_path, "a.json", payload)])
        out = json.loads(proc.stdout)
        assert out["eta"] == {"n": 4, "coeffs": sorted(ETA0["coeffs"], key=lambda c: (c["i"], c["j"]))}

    def test_act_seeded_preserves_profile(self, tmp_path):
        path = write_json(tmp_path, "e.json", ETA0)
        moved = json.loads(run_cli(["act", "--in", path, "--seed", "3", "--word-length", "9"]).stdout)
        proc = run_cli(["profile", "--in", write_json(tmp_path, "m.json", moved["eta"])])
        assert json.loads(proc.stdout)["values"] == [24, 16, 0, 0]

    def test_witness_realizability(self, tmp_path):
        proc = run_cli(["witness", "--in", write_json(tmp_path, "e.json", ETA0)])
        assert proc.returncode == 0
        payload = json.loads(proc.stdout)
        assert payload["realizable"] is True and payload["tag"] == "ok"

    def test_out_file(self, tmp_path):
        out = tmp_path / "result.json"
        proc = run_cli(["profile", "--in", write_json(tmp_path, "e.json", ETA0),
                        "--out", str(out)])
        assert proc.returncode == 0 and proc.stdout == ""
        assert json.loads(out.read_text())["values"] == [24, 16, 0, 0]

    @pytest.mark.parametrize("spelling", [["--ou", "{}"], ["--out={}"]])
    def test_out_file_other_spellings(self, tmp_path, spelling):
        """argparse accepts an unambiguous prefix and the = form; the file must follow it."""
        out = tmp_path / "result.json"
        proc = run_cli(["profile", "--in", write_json(tmp_path, "e.json", ETA0)]
                       + [token.format(out) for token in spelling])
        assert proc.returncode == 0 and proc.stdout == ""
        assert json.loads(out.read_text())["values"] == [24, 16, 0, 0]

    def test_enum_with_spec_file(self, tmp_path):
        spec = {"n": 2, "u": 2, "d": 1, "bound": 1, "require_idempotent": True}
        proc = run_cli(["enum", "--in", write_json(tmp_path, "s.json", spec)])
        assert proc.returncode == 0
        classes = json.loads(proc.stdout)["classes"]
        # only the principal class is idempotent among full-dimension unit forms
        assert classes == [{"n": 2, "coeffs": [{"a": -1, "i": 1, "j": 3},
                                               {"a": -1, "i": 2, "j": 4}]}]

    @pytest.mark.parametrize("flags,code", [(["--u", "1"], "RangeError"), (["--d", "2"], "RangeError"),
                                            (["--u", "0", "--d", "2"], "RangeError"),
                                            (["--u", "5", "--d", "2"], "RangeError"),
                                            (["--u", "2", "--d", "0"], "RangeError")])
    def test_norm_takes_both_of_u_and_d_or_neither(self, tmp_path, flags, code):
        """A lone --u or --d is refused, and so is a u outside 1..n or a d below 1."""
        result = cli.run(["norm", "--in", write_json(tmp_path, "e.json", ETA0)] + flags)
        assert result.exit_code == 2 and result.payload["error"]["code"] == code

    def test_norm_with_supplied_data(self, tmp_path):
        path = write_json(tmp_path, "e.json", ETA0)
        good = run_cli(["norm", "--in", path, "--u", "2", "--d", "2"])
        assert good.returncode == 0
        bad = run_cli(["norm", "--in", path, "--u", "1", "--d", "2"])
        assert bad.returncode == 2
        assert json.loads(bad.stderr)["error"]["code"] in ("TraceMismatch", "RankMismatch")


class TestErrors:
    def test_unknown_file(self):
        proc = run_cli(["profile", "--in", "/nonexistent/x.json"])
        assert proc.returncode == 2
        assert "error" in json.loads(proc.stderr)

    def test_unwritable_out_is_one_json_error(self, tmp_path):
        out = str(tmp_path / "missing" / "x.json")
        proc = run_cli(["profile", "--in", write_json(tmp_path, "e.json", ETA0), "--out", out])
        assert (proc.returncode, proc.stdout) == (2, "")
        assert json.loads(proc.stderr)["error"]["code"] == "RangeError"

    def test_bad_usage(self):
        proc = run_cli(["analytic"])  # missing --in/--tau
        assert proc.returncode == 2
        assert "error" in json.loads(proc.stderr)

    def test_matrix_coeffs_disagreement(self, tmp_path):
        bad = dict(ETA0)
        bad["matrix"] = [[0] * 8 for _ in range(8)]
        proc = run_cli(["check", "--in", write_json(tmp_path, "b.json", bad)])
        assert proc.returncode == 2

    def _assert_json_error(self, proc, code):
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert json.loads(proc.stderr)["error"]["code"] == code

    def test_act_refuses_a_non_symplectic_matrix(self, tmp_path):
        eta = write_json(tmp_path, "e.json", {"n": 1, "coeffs": [{"i": 1, "j": 2, "a": 1}]})
        s_doc = write_json(tmp_path, "s.json", {"S": [[2, 0], [0, 2]]})
        proc = run_cli(["act", "--in", eta, "--s", s_doc])
        self._assert_json_error(proc, "NotAlternating")

    def test_tau_file_holding_an_array(self, tmp_path):
        proc = run_cli(["analytic", "--in", write_json(tmp_path, "e.json", ETA0),
                        "--tau", write_json(tmp_path, "t.json", [[["0", "1"]]])])
        self._assert_json_error(proc, "DimensionMismatch")

    def test_exact_tau_entry_with_zero_denominator(self, tmp_path):
        tau = {"n": 1, "backend": "exact", "entries": [[["1/0", "1"]]]}
        proc = run_cli(["analytic", "--in", write_json(tmp_path, "e.json", ETA0),
                        "--tau", write_json(tmp_path, "t.json", tau)])
        self._assert_json_error(proc, "RangeError")

    @pytest.mark.parametrize("value", [float("inf"), float("nan")])
    @pytest.mark.parametrize("command", ["analytic", "scan"])
    def test_non_finite_float_tau_entry(self, tmp_path, command, value):
        # json writes the literal Infinity / NaN, which json.loads reads back as a float
        tau = {"n": 2, "backend": "float",
               "entries": [[[value, 1.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 2.0]]]}
        args = ["--tau", write_json(tmp_path, "t.json", tau)]
        if command == "analytic":
            eta = {"n": 2, "coeffs": [{"i": 1, "j": 3, "a": -1}]}
            args += ["--in", write_json(tmp_path, "e.json", eta)]
        else:
            args += ["--u", "1", "--d", "1", "--bound", "1"]
        proc = run_cli([command] + args)
        self._assert_json_error(proc, "NotInSiegel")
        assert "finite" in json.loads(proc.stderr)["error"]["message"]

    @staticmethod
    def _tol_args(tmp_path, command):
        tau = {"n": 2, "backend": "float",
               "entries": [[[0.0, 1.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 2.0]]]}
        args = [command, "--tau", write_json(tmp_path, "t.json", tau)]
        if command == "analytic":
            eta = {"n": 2, "coeffs": [{"i": 1, "j": 3, "a": -1}]}
            return args + ["--in", write_json(tmp_path, "e.json", eta)]
        return args + ["--u", "1", "--d", "1", "--bound", "1"]

    @pytest.mark.parametrize("tol", ["-1", "nan", "inf"])
    @pytest.mark.parametrize("command", ["analytic", "scan"])
    def test_tol_out_of_range(self, tmp_path, command, tol):
        proc = run_cli(self._tol_args(tmp_path, command) + [f"--tol={tol}"])
        self._assert_json_error(proc, "RangeError")
        assert "tol" in json.loads(proc.stderr)["error"]["message"]

    @pytest.mark.parametrize("command", ["analytic", "scan"])
    def test_zero_tol_is_valid(self, tmp_path, command):
        # the class {(1, 3): -1} vanishes exactly on diag(i, 2i)
        proc = run_cli(self._tol_args(tmp_path, command) + ["--tol", "0"])
        assert proc.returncode == 0
        payload = json.loads(proc.stdout)
        if command == "analytic":
            assert payload["vanishes"] is True
        else:
            found = [c["class"]["coeffs"] for c in payload["classes"]]
            assert [{"i": 1, "j": 3, "a": -1}] in found

    def test_float_tolerance_overflow_is_a_range_error(self, tmp_path):
        # (1 + max |tau_kl|)^2 overflows binary64 on diag(1e200 i, 2e200 i)
        big = str(10**200)
        tau = {"n": 2, "backend": "exact",
               "entries": [[["0", big], ["0", "0"]], [["0", "0"], ["0", "2" + big[1:]]]]}
        eta = {"n": 2, "coeffs": [{"i": 1, "j": 3, "a": -1}]}
        result = cli.run(["analytic", "--in", write_json(tmp_path, "e.json", eta),
                          "--tau", write_json(tmp_path, "t.json", tau), "--backend", "float"])
        assert result.exit_code == 2
        assert result.payload["error"]["code"] == "RangeError"

    @pytest.mark.parametrize("command", ["analytic", "scan"])
    def test_float_downgrade_beyond_binary64_is_a_range_error(self, tmp_path, command):
        tau = {"n": 1, "backend": "exact", "entries": [[["0", str(10**400)]]]}
        args = [command, "--tau", write_json(tmp_path, "t.json", tau), "--backend", "float"]
        if command == "analytic":
            args += ["--in", write_json(tmp_path, "e.json", {"n": 1, "coeffs": [{"i": 1, "j": 2, "a": 1}]})]
        else:
            args += ["--u", "1", "--d", "1", "--bound", "1"]
        proc = run_cli(args)
        self._assert_json_error(proc, "RangeError")
        assert "binary64" in json.loads(proc.stderr)["error"]["message"]

    def test_enum_type_flag_matches_the_document(self, tmp_path):
        spec = {"n": 2, "u": 2, "d": 1, "bound": 1, "require_type": [1, 1]}
        by_doc = run_cli(["enum", "--in", write_json(tmp_path, "s.json", spec)])
        flags = ["enum", "--n", "2", "--u", "2", "--d", "1", "--bound", "1"]
        by_flags = run_cli(flags + ["--type", "1,1"])
        assert by_flags.returncode == by_doc.returncode == 0
        assert by_flags.stdout == by_doc.stdout
        # the principal class alone; without --type the 32 non-idempotent (2, 1) profiles come too
        assert len(json.loads(by_flags.stdout)["classes"]) == 1
        assert len(json.loads(run_cli(flags).stdout)["classes"]) > 1

    def test_enum_type_flag_refuses_an_impossible_type(self):
        proc = run_cli(["enum", "--n", "2", "--u", "1", "--d", "1", "--bound", "1", "--type", "2"])
        self._assert_json_error(proc, "RangeError")

    def test_enum_refuses_an_impossible_type(self, tmp_path):
        spec = {"n": 2, "u": 1, "d": 2, "bound": 2, "require_type": [5, 7]}
        proc = run_cli(["enum", "--in", write_json(tmp_path, "s.json", spec)])
        self._assert_json_error(proc, "RangeError")

    def test_malformed_budget_is_a_range_error(self, monkeypatch):
        # not an integer: refused, not read as the default 2,000,000 that n = 3 exceeds
        monkeypatch.setenv("NSFORGE_BUDGET", "1e9")
        result = cli.run(["enum", "--n", "3", "--u", "1", "--d", "3", "--bound", "1",
                          "--type", "3"])
        assert result.exit_code == 2
        assert result.payload["error"]["code"] == "RangeError"
        assert "NSFORGE_BUDGET" in result.payload["error"]["message"]

    @pytest.mark.parametrize("u", ["0", "3"])
    def test_scan_u_out_of_range(self, tmp_path, u):
        tau = {"n": 2, "backend": "exact",
               "entries": [[["0", "1"], ["0", "0"]], [["0", "0"], ["0", "2"]]]}
        proc = run_cli(["scan", "--tau", write_json(tmp_path, "t.json", tau),
                        "--u", u, "--d", "1", "--bound", "1"])
        self._assert_json_error(proc, "RangeError")


class TestWitnessFlags:
    """``witness`` tests its data flags with ``is None``: a zero or empty value reaches
    ``standard_witness``'s own checks, as it does for ``enum`` and ``scan``."""

    @pytest.mark.parametrize("flags,code,message", [
        (["--n", "0", "--u", "1", "--type", "1"], "RangeError", "need 1 <= u <= n - u"),
        (["--n", "2", "--u", "0", "--type", "1"], "RangeError", "need 1 <= u <= n - u"),
        (["--n", "2", "--u", "1", "--type", ""], "TypeMismatch", "type length must equal u"),
    ])
    def test_zero_or_empty_is_checked_not_missing(self, flags, code, message):
        result = cli.run(["witness"] + flags)
        assert result.exit_code == 2
        assert result.payload["error"]["code"] == code
        assert result.payload["error"]["message"].startswith(message)

    def test_absent_flag_is_still_missing(self):
        result = cli.run(["witness", "--n", "2", "--u", "1"])
        assert result.exit_code == 2
        assert result.payload["error"]["message"] == "witness needs --in, or --n --u --type"


class TestInDocumentOwnsItsData:
    """``enum --in`` and ``witness --in`` refuse the data flags the document would override."""

    DOCS = {"enum": {"n": 2, "u": 2, "d": 1, "bound": 1},
            "witness": {"n": 2, "coeffs": [{"i": 1, "j": 3, "a": -1}]}}

    @pytest.mark.parametrize("flag", [["--n", "2"], ["--u", "1"], ["--d", "1"], ["--bound", "1"],
                                      ["--type", "7"], ["--type", ""]])
    @pytest.mark.parametrize("command", ["enum", "witness"])
    def test_data_flag_beside_in_is_a_range_error(self, tmp_path, command, flag):
        path = write_json(tmp_path, "doc.json", self.DOCS[command])
        result = cli.run([command, "--in", path] + flag)
        assert result.exit_code == 2
        # witness reads no --d or --bound at all, so argparse refuses them as usage errors
        unread = command == "witness" and flag[0] in ("--d", "--bound")
        assert result.payload["error"]["code"] == ("Usage" if unread else "RangeError")
        assert flag[0] in result.payload["error"]["message"]

    @pytest.mark.parametrize("command", ["enum", "witness"])
    def test_in_alone_and_other_flags_still_run(self, tmp_path, command):
        path = write_json(tmp_path, "doc.json", self.DOCS[command])
        for extra in ([], ["--jobs", "1"]) if command == "enum" else ([],):
            assert cli.run([command, "--in", path] + extra).exit_code == 0


class TestDeclaredFlags:
    """Each subcommand declares exactly the flags its handler reads; argparse refuses the rest."""

    IO = {"--in", "--out"}
    DECLARED = {
        "profile": IO, "check": IO, "analyze": IO, "relations": IO, "glue": IO, "humbert": IO,
        "norm": IO | {"--u", "--d"},
        "analytic": IO | {"--tau", "--tol", "--backend"},
        "witness": IO | {"--n", "--u", "--type"},
        "scan": {"--out", "--tau", "--u", "--d", "--bound", "--tol", "--backend", "--jobs"},
        "enum": IO | {"--n", "--u", "--d", "--bound", "--type", "--jobs"},
        "act": IO | {"--s", "--seed", "--word-length"},
    }
    # a value each flag parses; --in, --out, --tau and --s name a file that does not exist
    VALUES = {"--n": "1", "--u": "1", "--d": "1", "--bound": "1", "--jobs": "1", "--seed": "1",
              "--word-length": "1", "--tol": "0", "--backend": "float", "--type": "1"}
    FLAGS = set(VALUES) | {"--in", "--out", "--tau", "--s"}

    @pytest.mark.parametrize("command", sorted(DECLARED))
    def test_declared_flags_parse(self, tmp_path, command):
        for flag in sorted(self.DECLARED[command]):
            value = self.VALUES.get(flag, str(tmp_path / "missing.json"))
            # alone, each flag leaves the handler short of input: an error, but not a usage error
            result = cli.run([command, flag, value])
            assert result.exit_code == 2
            assert result.payload["error"]["code"] != "Usage", (flag, result.payload)

    @pytest.mark.parametrize("command", sorted(DECLARED))
    def test_undeclared_flags_are_usage_errors(self, capsys, command):
        for flag in sorted(self.FLAGS - self.DECLARED[command]):
            value = self.VALUES.get(flag, "x.json")
            assert cli.main([command, flag, value]) == 2
            out, err = capsys.readouterr()
            assert out == ""
            message = f"unrecognized arguments: {flag} {value}"
            assert json.loads(err) == {"error": {"code": "Usage", "message": message}}

    def test_unread_flags_beside_in_are_refused(self, tmp_path):
        docs = TestInDocumentOwnsItsData.DOCS
        for command, extra in (("witness", ["--jobs", "1"]), ("witness", ["--seed", "3"]),
                               ("enum", ["--seed", "3"]), ("scan", [])):
            path = write_json(tmp_path, "doc.json", docs.get(command, ETA0))
            result = cli.run([command, "--in", path] + extra)
            assert result.exit_code == 2
            assert result.payload["error"]["code"] == "Usage"
            assert (extra or ["--in"])[0] in result.payload["error"]["message"]

    def test_usage_error_is_one_json_document(self, tmp_path):
        proc = run_cli(["check", "--in", write_json(tmp_path, "e.json", ETA0), "--u", "3"])
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert json.loads(proc.stderr) == {"error": {"code": "Usage",
                                                     "message": "unrecognized arguments: --u 3"}}

    def test_parse_errors_carry_argparse_message(self):
        for argv, message in (([], "the following arguments are required: command"),
                              (["enum", "--n", "x"], "argument --n: invalid int value: 'x'")):
            result = cli.run(argv)
            assert result.payload == {"error": {"code": "Usage", "message": message}}

    def test_unique_prefix_within_the_subcommand(self):
        # enum declares --bound but not --backend, so --b names one flag
        argv = ["enum", "--n", "2", "--u", "1", "--d", "1"]
        assert cli.run(argv + ["--b", "1"]) == cli.run(argv + ["--bound", "1"])

    def test_help_still_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["scan", "--help"])
        assert exc.value.code == 0
        assert "--tau" in capsys.readouterr().out


class TestWorkerPool:
    def test_enum_workers_capped_at_chunks(self, fake_pool):
        argv = ["enum", "--n", "2", "--u", "1", "--d", "1", "--bound", "1"]
        serial = cli.run(argv + ["--jobs", "1"])
        parallel = cli.run(argv + ["--jobs", "16"])
        # bound 1 splits the first coefficient into 2 * 1 + 1 = 3 chunks
        assert fake_pool == [3]
        assert jsonio.dumps(parallel.payload) == jsonio.dumps(serial.payload)


class TestStdin:
    class Unreadable:
        """Stands in for sys.stdin; any use of it fails the test instead of blocking."""

        def __getattr__(self, name):
            pytest.fail(f"stdin was used ({name}) without '--in -'")

    @pytest.mark.parametrize("command", ["analytic", "profile", "check", "norm", "analyze",
                                         "relations", "glue", "humbert", "act"])
    def test_missing_in_is_a_usage_error(self, monkeypatch, command):
        monkeypatch.setattr(sys, "stdin", self.Unreadable())
        result = cli.run([command])
        assert result.exit_code == 2
        assert result.payload["error"]["code"] == "RangeError"
        assert "--in" in result.payload["error"]["message"]

    def test_dash_still_reads_stdin(self, monkeypatch):
        monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(ETA0)))
        result = cli.run(["profile", "--in", "-"])
        assert result.exit_code == 0
        assert result.payload == {"n": 4, "values": [24, 16, 0, 0]}
