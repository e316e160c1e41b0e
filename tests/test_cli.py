"""End-to-end tests of the command line front end."""

import importlib
import json
import math
import pkgutil
import re
import shlex
from pathlib import Path

import numpy as np
import pytest

import trigjacobi
import trigjacobi.cli as cli
from trigjacobi import verify
from trigjacobi.basis import BasisElement, JacobiParams, eval_basis
from trigjacobi.kernels import TruncationConfig, symmetrized_kernel_pairs
from trigjacobi.quadrature import gauss_jacobi_grid


def run_cli(args, capsys):
    rc = cli.main(args)
    return rc, capsys.readouterr().out


def data_rows(text):
    lines = text.splitlines()
    assert lines[0].startswith("# ")
    return lines[2:]


class TestEvalBasis:
    def test_row_count_contract(self, capsys):
        rc, out = run_cli(["eval", "basis", "--alpha", "0", "--beta", "0",
                           "--kind", "sym_poly", "--n", "3",
                           "--grid", "256"], capsys)
        assert rc == 0
        assert len(data_rows(out)) == 256

    def test_header_embeds_config(self, capsys):
        rc, out = run_cli(["eval", "basis", "--n", "2", "--grid", "4"], capsys)
        header = json.loads(out.splitlines()[0][2:])
        assert header["command"] == "eval basis"
        assert header["n"] == 2 and header["grid"] == 4
        assert header["version"]

    def test_crlf_and_roundtrip_precision(self, capsys):
        rc, out = run_cli(["eval", "basis", "--alpha", "1.5", "--beta", "-0.7",
                           "--kind", "jacobi_fn", "--n", "4",
                           "--grid", "16"], capsys)
        assert "\r\n" in out
        row = data_rows(out)[7].split(",")
        theta = float(row[0])
        from trigjacobi.basis import BasisElement, eval_basis
        elem = BasisElement(JacobiParams(1.5, -0.7), 4, "jacobi_fn")
        assert float(row[1]) == float(eval_basis(elem, np.array([theta]))[0])


class TestEvalKernel:
    def test_point_value_matches_library_bitwise(self, capsys):
        rc, out = run_cli(["eval", "kernel", "--kind", "sym", "--t", "0.5",
                           "--theta", "1.0", "--phi", "2.0"], capsys)
        assert rc == 0
        got = float(data_rows(out)[0].split(",")[3])
        want = symmetrized_kernel_pairs(
            JacobiParams(0.0, 0.0), [1.0], [2.0], 0.5,
            cfg=TruncationConfig(eps_tail=1e-10))[0, 0]
        assert got == want

    def test_grid_mode_row_count(self, capsys):
        rc, out = run_cli(["eval", "kernel", "--kind", "even", "--t", "1.0",
                           "--grid", "6"], capsys)
        assert rc == 0
        assert len(data_rows(out)) == 36

    def test_scalar_broadcast(self, capsys):
        rc, out = run_cli(["eval", "kernel", "--kind", "odd", "--t", "0.7",
                           "--theta", "0.5,1.0,1.5", "--phi", "2.0"], capsys)
        assert rc == 0
        assert len(data_rows(out)) == 3

    def test_mismatched_lists_exit_2(self, capsys):
        rc, _ = run_cli(["eval", "kernel", "--t", "0.5",
                         "--theta", "1.0,2.0", "--phi", "1.0,2.0,3.0"], capsys)
        assert rc == 2

    @pytest.mark.parametrize("eps", ["0", "-1", "nan", "1", "2", "inf"])
    def test_tail_target_outside_unit_interval_exit_2(self, eps, capsys):
        rc = cli.main(["eval", "kernel", "--kind", "even", "--t", "0.5",
                       "--theta", "1", "--phi", "2", f"--eps-tail={eps}"])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("config error:") and "eps_tail" in err

    @pytest.mark.parametrize("t", ["0.005", "1e-3"])
    def test_small_time_evaluates(self, t, capsys):
        # only the term cap limits t: the sweeps' t_min and below it evaluate
        rc, out = run_cli(["eval", "kernel", "--kind", "even", "--t", t,
                           "--theta", "1.0", "--phi", "1.3"], capsys)
        assert rc == 0
        assert math.isfinite(float(data_rows(out)[0].split(",")[3]))

    @pytest.mark.parametrize("t", ["1e-6", "1e-5"])
    def test_beyond_the_term_cap_exit_3(self, t, capsys):
        rc = cli.main(["eval", "kernel", "--kind", "even", "--t", t,
                       "--theta", "1.0", "--phi", "2.0"])
        err = capsys.readouterr().err
        assert rc == 3
        assert err.startswith("numeric failure:") and "n_cap=65536" in err

    @pytest.mark.parametrize("t", ["-1", "0", "nan", "inf"])
    def test_time_not_positive_and_finite_exit_2(self, t, capsys):
        # bad configuration, not a numeric failure beyond the term cap
        rc = cli.main(["eval", "kernel", "--kind", "even", f"--t={t}",
                       "--theta", "1", "--phi", "2"])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("config error:") and "t must be" in err
        assert "np.float64" not in err

    @pytest.mark.parametrize("kind,theta,phi", [
        ("sym", "4", "1"), ("sym", "1", "-3.2"), ("even", "-1", "1"), ("even", "7", "1"),
        ("odd", "1", "3.2"), ("even", "nan", "1"), ("sym", "1", "inf")])
    def test_angle_outside_the_domain_exit_2(self, kind, theta, phi, capsys):
        rc, _ = run_cli(["eval", "kernel", "--kind", kind, "--t", "0.5",
                         f"--theta={theta}", f"--phi={phi}"], capsys)
        assert rc == 2

    @pytest.mark.parametrize("kind,lo", [("even", "0"), ("odd", "0"),
                                         ("sym", repr(-math.pi))])
    def test_domain_endpoints_evaluate(self, kind, lo, capsys):
        pi = repr(math.pi)
        rc, out = run_cli(["eval", "kernel", "--kind", kind, "--t", "0.5",
                           f"--theta={lo},{pi}", f"--phi={pi},{lo}"], capsys)
        assert rc == 0
        assert len(data_rows(out)) == 2


class TestEvalOperator:
    def test_square_closed_form(self, capsys):
        rc, out = run_cli(["eval", "operator", "--alpha", "1.5",
                           "--beta", "-0.7", "--kind", "square",
                           "--M", "1", "--N", "0", "--n", "5"], capsys)
        assert rc == 0
        rows = [r.split(",") for r in data_rows(out)]
        inp = np.array([float(r[1]) for r in rows])
        got = np.array([float(r[2]) for r in rows])
        want = math.sqrt(math.gamma(2.0) / 4.0) * np.abs(inp)
        assert np.max(np.abs(got - want)) <= 1e-4 * np.max(want)

    @pytest.mark.parametrize("setting", ["poly-sym", "fn-sym", "poly+", "fn+"])
    def test_semigroup_in_every_setting(self, setting, capsys):
        rc, out = run_cli(["eval", "operator", "--kind", "semigroup",
                           "--t", "0.5", "--setting", setting,
                           "--n", "3", "--grid", "32"], capsys)
        assert rc == 0
        # full-interval grids mirror the quadrature nodes across zero
        assert len(data_rows(out)) == (64 if setting.endswith("-sym") else 32)

    @pytest.mark.parametrize("setting,tag,kind", [
        ("poly-sym", "mu_full", "sym_poly"), ("fn-sym", "theta_full", "sym_fn"),
        ("poly+", "mu_plus", "trig_poly"), ("fn+", "theta_plus", "jacobi_fn")])
    def test_setting_samples_its_grid_and_element(self, setting, tag, kind, capsys):
        rc, out = run_cli(["eval", "operator", "--kind", "maximal", "--setting", setting,
                           "--alpha", "1.5", "--beta", "-0.7", "--n", "3",
                           "--grid", "16"], capsys)
        assert rc == 0
        rows = np.array([[float(v) for v in r.split(",")] for r in data_rows(out)])
        params = JacobiParams(1.5, -0.7)
        nodes = gauss_jacobi_grid(params, 16, tag).nodes
        assert np.array_equal(rows[:, 0], nodes)
        assert np.array_equal(rows[:, 1], eval_basis(BasisElement(params, 3, kind), nodes))

    def test_discrete_multiplier_atoms(self, capsys):
        rc, out = run_cli(["eval", "operator", "--kind", "multiplier",
                           "--atom-t", "0.5,1.0", "--atom-w", "1.0,-0.5",
                           "--n", "2", "--grid", "24"], capsys)
        assert rc == 0

    def test_missing_time_exit_2(self, capsys):
        rc, _ = run_cli(["eval", "operator", "--kind", "semigroup"], capsys)
        assert rc == 2

    @pytest.mark.parametrize("args", [["--kind", "semigroup", "--t", "nan"],
                                      ["--kind", "multiplier", "--atom-t", "nan"]])
    def test_nan_time_exit_2(self, args, capsys):
        # NaN fails every comparison: a bad time, not a numeric failure
        rc, _ = run_cli(["eval", "operator", *args, "--n", "2", "--grid", "16"], capsys)
        assert rc == 2

    def test_index_beyond_grid_exit_2(self, capsys):
        rc, _ = run_cli(["eval", "operator", "--kind", "maximal",
                         "--n", "40", "--grid", "32"], capsys)
        assert rc == 2

    def test_grid_bound_named_in_the_message_is_the_least_that_works(self, capsys):
        args = ["eval", "operator", "--kind", "semigroup", "--t", "0.5", "--n", "5"]
        assert cli.main([*args, "--grid", "11"]) == 2
        assert "needs --grid at least 12" in capsys.readouterr().err
        rc, out = run_cli([*args, "--grid", "12"], capsys)
        assert rc == 0
        assert len(data_rows(out)) == 24

    @pytest.mark.parametrize("t_max", ["inf", "1e308", "1e200"])
    def test_unverifiable_time_range_exit_2(self, t_max, capsys):
        rc = cli.main(["eval", "operator", "--kind", "maximal", "--n", "2",
                       "--grid", "16", "--t-max", t_max])
        assert rc == 2
        assert capsys.readouterr().err.startswith("config error:")

    @pytest.mark.parametrize("args", [
        ["--kind", "square", "--N", "-1", "--M", "2"],
        ["--kind", "square", "--N", "2", "--M", "-1", "--setting", "fn+"],
        ["--kind", "square_interlaced", "--N", "-1", "--M", "2", "--setting", "poly+"]])
    def test_negative_order_exit_2(self, args, capsys):
        rc, _ = run_cli(["eval", "operator", *args, "--n", "2", "--grid", "16"], capsys)
        assert rc == 2

    @pytest.mark.parametrize("args", [
        ["--kind", "semigroup", "--t", "0.5", "--N", "2"],
        ["--kind", "maximal", "--N", "2"],
        ["--kind", "riesz", "--N", "1", "--M", "3"],
        ["--kind", "riesz", "--N", "1", "--t", "0.7"],
        ["--kind", "riesz", "--N", "1", "--t-max", "10"],
        ["--kind", "semigroup", "--t", "0.5", "--atom-t", "0.3"],
        ["--kind", "semigroup", "--t", "0.5", "--atom-w", "2"],
        ["--kind", "maximal", "--atom-w", "2"],
        ["--kind", "multiplier", "--atom-t", "0.5", "--t-max", "10"]])
    def test_flag_its_kind_does_not_read_exit_2(self, args, capsys):
        # a flag the operator would ignore, but the header would record
        rc = cli.main(["eval", "operator", *args, "--n", "2", "--grid", "16"])
        assert rc == 2
        assert capsys.readouterr().err.startswith("config error:")

    @pytest.mark.parametrize("bound", ["--t-min", "--t-max"])
    def test_zero_time_bound_exit_2(self, bound, capsys):
        # a zero bound is a bad range, not a request for the default
        rc, _ = run_cli(["eval", "operator", "--kind", "maximal",
                         "--n", "2", "--grid", "16", bound, "0"], capsys)
        assert rc == 2


class TestVerifyCommand:
    def test_report_passes_and_embeds_config(self, capsys):
        rc, out = run_cli(["verify", "lp-sweep", "--alpha", "1.5",
                           "--beta", "-0.7"], capsys)
        assert rc == 0
        doc = json.loads(out)
        assert doc["passed"] and doc["schema_version"] == 1
        assert doc["config"]["suite"] == "lp-sweep"
        assert "timings" not in doc

    def test_byte_identical_reruns(self, capsys):
        args = ["verify", "lp-sweep", "--seed", "7"]
        _, first = run_cli(args, capsys)
        _, second = run_cli(args, capsys)
        assert first == second

    def test_custom_weight_flags(self, capsys):
        rc, out = run_cli(["verify", "lp-sweep", "--p", "2",
                           "--weight-r", "1.0", "--weight-s", "0.0"], capsys)
        assert rc == 0
        doc = json.loads(out)
        assert doc["config"]["weight_r"] == 1.0
        # byte for byte the report of the suite's two checks at that weight
        params = JacobiParams(0.0, 0.0)
        want = verify.suite_report(
            "lp-sweep", params, "quick",
            verify.empirical_lp_sweep(params, 2.0, weights=((1.0, 0.0),))
            + verify.check_weight_classes(params))
        want["config"] = doc["config"]
        assert out == verify.report_json(want)

    def test_custom_weight_flags_keep_timings(self, capsys):
        rc, out = run_cli(["verify", "lp-sweep", "--p", "2", "--timings"], capsys)
        assert rc == 0
        doc = json.loads(out)
        assert set(doc["timings"]) == {"lp-sweep", "weight-classes"}
        assert doc["checks"][0]["claim"] == "lp-norm/riesz-N1-even/p2/r0-s0"

    @pytest.mark.parametrize("p", ["0", "0.5"])
    def test_exponent_below_one_exit_2(self, p, capsys):
        # the exponent the header records is the one the sweep runs
        rc, _ = run_cli(["verify", "lp-sweep", "--p", p], capsys)
        assert rc == 2

    def test_timings_flag(self, capsys):
        rc, out = run_cli(["verify", "sharp-constants", "--grid", "128",
                           "--timings"], capsys)
        assert rc == 0
        assert json.loads(out)["timings"]

    def test_failing_check_exit_1(self, monkeypatch, capsys):
        monkeypatch.setattr(cli, "run_suite",
                            lambda *a, **k: {"passed": False, "checks": []})
        rc, _ = run_cli(["verify", "identities"], capsys)
        assert rc == 1

    def test_short_time_range_runs(self, capsys):
        # the sweep's time grid refines itself instead of failing its check
        rc, out = run_cli(["verify", "all", "--profile", "quick",
                           "--t-min", "0.01", "--t-max", "2"], capsys)
        assert rc == 0
        assert json.loads(out)["passed"]

    @pytest.mark.parametrize("suite,t_min", [("all", "10"), ("all", "5"),
                                             ("standard-estimates", "0.003")])
    def test_time_ranges_the_sweeps_sample_run(self, suite, t_min, capsys):
        # no floor above the sweep's own times: at t_min 10 the single-atom
        # kernel at t = 1 (the multiplier's atom) evaluates, and a first node
        # that rounds below t_min (exp(log 5) < 5) evaluates too
        rc, out = run_cli(["verify", suite, "--profile", "quick", "--t-min", t_min], capsys)
        assert rc == 0
        assert json.loads(out)["passed"]

    def test_domination_samples_its_times_in_the_range(self, capsys):
        # 0.01 * 2^k for k = 7-10: 1.28, 2.56, 5.12 and 10.24
        rc, out = run_cli(["verify", "domination", "--t-min", "1"], capsys)
        assert rc == 0
        pos = next(c for c in json.loads(out)["checks"]
                   if c["claim"] == "even-kernel-positive")
        assert pos["details"]["times"] == 4

    @pytest.mark.parametrize("suite", ["domination", "all"])
    def test_range_without_domination_times_exits_2_before_any_check(
            self, suite, monkeypatch, capsys):
        # the largest domination time is 10.24
        ran = []
        monkeypatch.setattr(verify, "check_identities",
                            lambda *a, **k: ran.append(a) or [])
        monkeypatch.setattr(verify, "eval_kernels", lambda *a, **k: ran.append(a))
        rc = cli.main(["verify", suite, "--profile", "quick", "--t-min", "11"])
        assert rc == 2 and not ran
        assert "no domination time" in capsys.readouterr().err

    def test_far_time_range_exits_2_before_any_check(self, monkeypatch, capsys):
        # from t_min of about 20 on, the log-uniform nodes cannot resolve
        # e^{-2t}; the sweep's grid is built before the first suite runs
        ran = []
        monkeypatch.setattr(verify, "check_identities",
                            lambda *a, **k: ran.append(a) or [])
        rc = cli.main(["verify", "all", "--profile", "quick", "--t-min", "20"])
        err = capsys.readouterr().err
        assert rc == 2 and not ran
        assert "quadrature check" in err
        assert "np.float64" not in err and "points_per_decade" not in err

    def test_time_range_past_the_grid_check_exits_2(self, capsys):
        # e^{-2 t_min} underflows from t_min of about 372 on; the grid's
        # check integrates e^{-2(t - t_min)}, which does not
        rc = cli.main(["verify", "standard-estimates", "--profile", "quick",
                       "--t-min", "400", "--t-max", "500"])
        assert rc == 2
        assert "quadrature check" in capsys.readouterr().err

    @pytest.mark.parametrize("t_max", ["inf", "1e308", "1e200"])
    def test_unverifiable_time_range_exit_2(self, t_max, capsys):
        rc = cli.main(["verify", "all", "--profile", "quick", "--t-max", t_max])
        assert rc == 2
        assert capsys.readouterr().err.startswith("config error:")

    def test_unknown_suite_exit_2(self):
        with pytest.raises(SystemExit) as err:
            cli.main(["verify", "nonsense"])
        assert err.value.code == 2

    def test_output_file(self, tmp_path, capsys):
        out_file = tmp_path / "report.json"
        rc, out = run_cli(["verify", "lp-sweep", "--out", str(out_file)], capsys)
        assert rc == 0 and out == ""
        doc = json.loads(out_file.read_text())
        assert doc["config"]["out"] == str(out_file)


class TestParser:
    # flags a command does not read are usage errors, not silent no-ops
    @pytest.mark.parametrize("command,flag", [
        *[(("eval", "basis"), f) for f in
          ("--t-min", "--t-max", "--eps-tail", "--seed", "--profile")],
        *[(("eval", "kernel", "--t", "0.5"), f) for f in
          ("--t-min", "--t-max", "--seed", "--profile")],
        *[(("eval", "operator", "--kind", "semigroup", "--t", "0.5"), f) for f in
          ("--eps-tail", "--seed", "--profile")],
        (("verify", "lp-sweep"), "--eps-tail"),
    ], ids=lambda v: v if isinstance(v, str) else " ".join(v[:2]))
    def test_unread_flag_exit_2(self, command, flag, capsys):
        value = "quick" if flag == "--profile" else "1"
        with pytest.raises(SystemExit) as err:
            cli.main([*command, flag, value])
        assert err.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("args", [
        ("verify", "sharp-constants", "--profil", "quick"),
        ("verify", "sharp-constants", "--prof", "quick"),
        ("eval", "kernel", "--t", "0.5", "--theta", "1", "--phi", "2", "--eps", "1e-9"),
    ], ids=lambda v: v[-2])
    def test_abbreviated_flag_exit_2(self, args, capsys):
        # a flag is read only as spelled, so a rename cannot leave a prefix working
        with pytest.raises(SystemExit) as err:
            cli.main(list(args))
        assert err.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("grid", ["0", "-1"])
    @pytest.mark.parametrize("command", [
        ("eval", "basis"), ("eval", "kernel", "--t", "0.5"),
        ("eval", "operator", "--kind", "semigroup", "--t", "0.5"),
        ("verify", "sharp-constants")], ids=lambda v: " ".join(v[:2]))
    def test_grid_below_one_exit_2(self, command, grid, capsys):
        # not replaced by the command's default size
        rc = cli.main([*command, "--grid", grid])
        assert rc == 2
        assert "--grid must be positive" in capsys.readouterr().err

    def test_usage_error_exit_2(self):
        with pytest.raises(SystemExit) as err:
            cli.main(["eval"])
        assert err.value.code == 2

    def test_csv_out_file_matches_stdout(self, tmp_path, capsys):
        args = ["eval", "basis", "--n", "1", "--grid", "8"]
        _, streamed = run_cli(args, capsys)
        out_file = tmp_path / "vals.csv"
        cli.main(args + ["--out", str(out_file)])
        capsys.readouterr()
        on_disk = out_file.read_bytes().decode()
        # the header records the output path, the body must agree
        assert on_disk.splitlines()[1:] == streamed.splitlines()[1:]


class TestReadme:
    """The README's commands and the package names it cites still exist."""

    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")

    def test_every_command_line_example_parses(self):
        blocks = re.findall(r"^```sh\n(.*?)^```", self.text, re.M | re.S)
        lines = [line for block in blocks for line in block.splitlines()
                 if line.startswith("trigjacobi ")]
        assert lines
        for line in lines:
            cli.build_parser().parse_args(shlex.split(line, comments=True)[1:])

    def test_every_dotted_package_name_resolves(self):
        heads = {m.name for m in pkgutil.iter_modules(trigjacobi.__path__)}
        names = [m for m in re.findall(r"`([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+)(?:\(\))?`", self.text)
                 if m.split(".")[0] in heads | set(trigjacobi.__all__)]
        assert names
        for name in names:
            head, *rest = name.split(".")
            obj = (importlib.import_module(f"trigjacobi.{head}") if head in heads
                   else getattr(trigjacobi, head))
            for attr in rest:
                assert hasattr(obj, attr), f"README cites `{name}`, which does not resolve"
                obj = getattr(obj, attr)
