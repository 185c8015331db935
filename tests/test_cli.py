"""End-to-end tests for the cfii command-line driver."""

import contextlib
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cfii import cli, estimate, witness
from cfii.adversary import optimize_restarts
from cfii.cli import (_SPECS, MAX_ROWS, ConfigError, ResultTable,
                      build_config, main)
from cfii.estimate import analytic_certification, certify_vk, sample_binary
from cfii.models import (NoisyFringeModel, NoisyFringeParams,
                         QubitFringeModel, QubitPreparation)

GOLDEN = NoisyFringeParams(gamma=0.25, epsilon_r=0.02, vartheta0=0.0)
PI_2 = "1.5707963267948966"
PI_8 = "0.39269908169872414"


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def exit_of(capsys, argv):
    """run_cli for an argv that may end the run with SystemExit (--help)."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    meta, columns, rows = {}, None, []
    for line in text.splitlines():
        if line.startswith("# "):
            key, _, value = line[2:].partition(": ")
            meta[key] = value
        elif columns is None:
            columns = line.split(",")
        else:
            rows.append(line.split(","))
    return meta, columns, rows


def drop_wallclock(text):
    return "".join(line for line in text.splitlines(keepends=True)
                   if not line.startswith("# wallclock"))


def drop_meta(text):
    return "".join(line for line in text.splitlines(keepends=True)
                   if not line.startswith("# "))


def reference_cells(col, csv):
    """A column's cells each formatted on its own: the rule that _cells
    keeps while it formats each distinct float once."""
    col = np.asarray(col)
    values = col.tolist()
    if col.dtype.kind == "f":
        if csv:
            return ["%.17g" % v for v in values]
        return [repr(v) if math.isfinite(v) else "null" for v in values]
    return list(map(str if csv else json.dumps, values))


def column(columns, rows, name, cast=float):
    i = columns.index(name)
    return [cast(row[i]) for row in rows]


class TestConfig:
    def test_parser_is_built_once(self, capsys):
        first = run_cli(capsys, ["fi"])
        assert run_cli(capsys, ["fi", "--bogus"])[0] == 2
        again = run_cli(capsys, ["fi"])
        assert (first[0], first[2]) == (again[0], again[2]) == (0, "")
        assert drop_wallclock(first[1]) == drop_wallclock(again[1])
        with pytest.raises(SystemExit) as exit_:
            main(["fi", "--help"])
        assert exit_.value.code == 0 and "--grid" in capsys.readouterr().out

    def test_defaults(self):
        config = build_config(["fi"])
        assert config.command == "fi"
        assert config.params["gamma"] == 0.25
        assert config.params["model"] == "noisy"
        assert config.seed is None
        assert config.fmt == "csv"

    def test_file_overrides_defaults(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"gamma": 0.5, "seed": 3,
                                    "format": "json"}))
        config = build_config(["fi", "--config", str(path)])
        assert config.params["gamma"] == 0.5
        assert config.seed == 3
        assert config.fmt == "json"

    def test_cli_overrides_file(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"gamma": 0.5, "format": "json"}))
        config = build_config(["fi", "--config", str(path),
                               "--gamma", "0.7", "--format", "csv"])
        assert config.params["gamma"] == 0.7
        assert config.fmt == "csv"

    def test_unknown_config_key(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"gamme": 0.5}))
        with pytest.raises(ConfigError, match="unknown config keys"):
            build_config(["fi", "--config", str(path)])

    def test_config_must_be_object(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text("[1, 2]")
        with pytest.raises(ConfigError, match="JSON object"):
            build_config(["fi", "--config", str(path)])

    def test_missing_config_file(self, capsys):
        code, _, err = run_cli(capsys, ["fi", "--config", "/nope.json"])
        assert code == 2
        assert "config error" in err

    def test_integral_float_accepted_for_int(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"shots": 100.0, "gamma_grid": "0:1:2"}))
        config = build_config(["certify", "--config", str(path)])
        assert config.params["shots"] == 100
        assert isinstance(config.params["shots"], int)

    def test_fractional_value_rejected_for_int(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"shots": 12.5}))
        with pytest.raises(ConfigError,
                           match=r"^shots must be an integral value, got 12\.5$"):
            build_config(["certify", "--config", str(path)])

    def test_bad_seed_type(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"seed": "abc"}))
        with pytest.raises(ConfigError,
                           match="^seed must be an integral value, got 'abc'$"):
            build_config(["fi", "--config", str(path)])

    def test_string_flag_in_a_config_file(self, capsys, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"grid": 5}))
        code, out, err = run_cli(capsys, ["fi", "--config", str(path)])
        assert (code, out, err) == (
            2, "", "cfii: config error: grid must be a string, got 5\n")

    def test_stochastic_commands_require_seed(self, capsys):
        # the seed is checked before any other refusal of the run
        for argv, run in ((["rmse", "--theta", "0"], "rmse"),
                          (["adversary", "--l", "0"], "adversary"),
                          (["certify", "--k", "1"], "single-point certify")):
            assert run_cli(capsys, argv) == (
                2, "", f"cfii: config error: {run} is stochastic: "
                "--seed is required\n")

    @pytest.mark.parametrize("argv", [
        ["fi", "--gam", "0.3"], ["fi", "--gam", "-1e-3"],
        ["certify", "--shot", "5", "--seed", "1"]])
    def test_a_flag_is_spelled_in_full(self, capsys, argv):
        code, out, err = run_cli(capsys, argv)
        assert (code, out) == (2, "") and err.count("\n") == 1
        assert err.startswith("cfii: config error: unrecognized arguments: ")

    @pytest.mark.parametrize("content", [
        b'\xff\xfe{"gamma": 0.3}', b"[" * 100000 + b"]" * 100000],
        ids=["not-utf8", "deep"])
    def test_unreadable_config_content_names_the_file(self, capsys, tmp_path,
                                                      content):
        # not UTF-8, and nested past the decoder's recursion limit
        path = tmp_path / "run.json"
        path.write_bytes(content)
        code, out, err = run_cli(capsys, ["fi", "--config", str(path)])
        assert (code, out) == (2, "") and err.count("\n") == 1
        assert err.startswith(f"cfii: config error: cannot read config file "
                              f"{path}: ")

    def test_a_value_error_anywhere_is_a_config_error(self, capsys):
        # raised outside the commands: by the --out write and the config read
        assert run_cli(capsys, ["fi", "--grid", "0.1:1:2", "--out", "a\0b"]) \
            == (2, "", "cfii: config error: embedded null byte\n")
        code, out, err = run_cli(capsys, ["fi", "--config", "a\0b"])
        assert (code, out) == (2, "") and err.count("\n") == 1
        assert err.endswith(": embedded null byte\n")

    def test_unknown_command_is_refused(self, capsys):
        for argv in (["frobnicate"], ["fi", "--bogus", "1"], []):
            code, out, err = run_cli(capsys, argv)
            assert (code, out) == (2, "") and err.count("\n") == 1
            assert err.startswith("cfii: config error: ")

    def test_bad_value_is_refused(self, capsys):
        for argv in (["fi", "--format", "xml"], ["chain", "--k", "2.5"],
                     ["fi", "--gamma", "abc"], ["fi", "--grid"]):
            code, out, err = run_cli(capsys, argv)
            assert (code, out) == (2, "") and err.count("\n") == 1
            assert err.startswith("cfii: config error: ")

    def test_help_exits_zero(self, capsys):
        for argv in (["--help"], ["chain", "--help"]):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 0
            assert capsys.readouterr().out.startswith("usage: cfii")

    @pytest.mark.parametrize("command", sorted(_SPECS))
    def test_help_lists_every_flag(self, capsys, command):
        code, out, err = exit_of(capsys, [command, "-h"])
        assert (code, err) == (0, "")
        rows = out.splitlines()
        assert rows[0].startswith(
            f"usage: cfii {command} [--config PATH] [--out PATH] ")
        flags = [row.split()[0] for row in rows[1:]]
        assert flags == list(map(_flag, _SPECS[command]))
        for row, (kind, default) in zip(rows[1:], _SPECS[command].values()):
            assert row.endswith(f"default {json.dumps(default)}")
            assert row.split()[1] == ("{%s}" % ",".join(kind)
                                      if isinstance(kind, tuple)
                                      else kind.__name__.upper())

    @pytest.mark.parametrize("argv, code, out, err", [
        (["fi", "--grid"], 2, "", "--grid needs a value"),
        (["landscape", "--grid_cb", "0:1:2"], 2, "",
         "unrecognized arguments: --grid_cb 0:1:2"),
        (["fi", "stray"], 2, "", "unrecognized arguments: stray"),
        (["--seed", "1", "fi"], 2, "",
         f"the first argument must be a command, one of {', '.join(_SPECS)}"
         "; got '--seed'"),
        (["fi", "-g", "1"], 2, "", "unrecognized arguments: -g 1"),
        (["fi", "--"], 2, "", "unrecognized arguments: --"),
        ([], 2, "",
         f"the first argument must be a command, one of {', '.join(_SPECS)}"
         "; got ''"),
        # the tokens from the first one not read, each as given
        (["fi", "--", "--gamma", "1"], 2, "",
         "unrecognized arguments: -- --gamma 1"),
        # the last of a repeated flag wins
        (["fi", "--gamma", "0.3", "--gamma", "0.4"], 0,
         ["fi", "--gamma", "0.4"], ""),
        (["fi", "--grid=0.1:1:2", "--format=json"], 0,
         ["fi", "--grid", "0.1:1:2", "--format", "json"], ""),
        (["fi", "-h"], 0, "usage: cfii fi ", ""),
    ])
    def test_parser_edge_cases(self, capsys, argv, code, out, err):
        got = exit_of(capsys, argv)
        assert got[0] == code
        assert got[2] == (f"cfii: config error: {err}\n" if err else "")
        if isinstance(out, list):
            # the stdout of `out`, CSV or JSON, but for its wallclock line
            lines, expected = ([line for line in text.splitlines()
                                if cli.WALLCLOCK_KEY not in line]
                               for text in (got[1], run_cli(capsys, out)[1]))
            assert lines == expected != []
        else:
            assert got[1].startswith(out) and (got[1] == "") == (code == 2)


class TestFiCommand:
    def test_noisy_reference_points(self, capsys):
        code, out, _ = run_cli(capsys, [
            "fi", "--grid", f"{PI_8}:{PI_2}:2"])
        assert code == 0
        _, columns, rows = parse_csv(out)
        assert columns == ["theta", "z", "fi"]
        fi = column(columns, rows, "fi")
        assert fi[0] == pytest.approx(0.8064913766408359, abs=1e-14)
        assert fi[1] == pytest.approx(0.4201925785491422, abs=1e-14)

    def test_values_round_trip_exactly(self, capsys):
        code, out, _ = run_cli(capsys, ["fi", "--grid", "0.1:3.1:7"])
        assert code == 0
        _, columns, rows = parse_csv(out)
        model = NoisyFringeModel(GOLDEN)
        for theta, z, fi in zip(column(columns, rows, "theta"),
                                column(columns, rows, "z"),
                                column(columns, rows, "fi")):
            assert z == float(model.z(theta))
            assert fi == float(model.fi(theta))

    def test_ideal_equator_is_flat(self, capsys):
        code, out, _ = run_cli(capsys, [
            "fi", "--model", "ideal", "--vartheta", "0.4",
            "--varphi", PI_2, "--grid", "0.1:6.2:50"])
        assert code == 0
        _, columns, rows = parse_csv(out)
        np.testing.assert_allclose(column(columns, rows, "fi"), 1.0,
                                   atol=1e-10)

    def test_negative_grid_rejected_for_noisy(self, capsys):
        code, _, err = run_cli(capsys, ["fi", "--grid=-1.0:1.0:5"])
        assert code == 2
        assert "theta >= 0" in err

    def test_irregular_fringe_point_is_a_degeneracy(self, capsys):
        # z = 1 at theta = 0 while zdot = -gamma: not a removable point
        code, out, err = run_cli(capsys, [
            "fi", "--model", "noisy", "--eps-r", "0", "--gamma", "2",
            "--grid", "0:0.001:3"])
        assert (code, out) == (3, "")
        assert err == ("cfii: numerical degeneracy: irregular fringe point: "
                       "z^2 = 1 with nonzero zdot\n")

    def test_unknown_model(self, capsys):
        code, _, err = run_cli(capsys, ["fi", "--model", "exact"])
        assert code == 2
        assert "ideal or noisy" in err

    def test_malformed_grid(self, capsys):
        for bad in ("1:2", "a:b:c", "0:1:1", "0:inf:3"):
            code, _, err = run_cli(capsys, ["fi", "--grid", bad])
            assert code == 2
        # integer grids: an endpoint beyond int64 is rejected before the cast
        for argv in (["rmse", "--seed", "1", "--n-grid", "1:1e300:3"],
                     ["chain", "--k-grid", "2:1e300:3"]):
            code, out, err = run_cli(capsys, argv)
            assert (code, out) == (2, "")
            assert err.endswith(
                " endpoints must lie in [-9.223372036854776e+18, "
                "9.223372036854776e+18), got 1e+300\n")
            assert err.count("\n") == 1


class TestLandscapeCommand:
    def test_witness_and_indicator_agree_in_sign(self, capsys):
        code, out, _ = run_cli(capsys, [
            "landscape", "--grid", "0.4:2.4:6", "--grid-cb", "0.3:2.1:5"])
        assert code == 0
        _, columns, rows = parse_csv(out)
        assert columns == ["theta_ac", "theta_cb", "v", "g"]
        assert len(rows) == 30
        for v, g in zip(column(columns, rows, "v"),
                        column(columns, rows, "g")):
            if math.isnan(v) or math.isnan(g):
                continue
            if abs(v) > 1e-9 and abs(g) > 1e-9:
                assert math.copysign(1.0, v) == math.copysign(1.0, g)

    def test_equator_witness_is_minus_one(self, capsys):
        code, out, _ = run_cli(capsys, [
            "landscape", "--varphi", PI_2, "--grid", "0.3:2.8:5"])
        assert code == 0
        _, columns, rows = parse_csv(out)
        np.testing.assert_allclose(column(columns, rows, "v"), -1.0,
                                   atol=1e-9)
        np.testing.assert_allclose(column(columns, rows, "g"),
                                   -0.5 * math.log(2.0), atol=1e-9)

    def test_clipping_bounds_respected(self, capsys):
        code, out, _ = run_cli(capsys, [
            "landscape", "--grid", "0.05:6.2:40", "--clip-v", "3",
            "--clip-g", "2"])
        assert code == 0
        _, columns, rows = parse_csv(out)
        v = np.array(column(columns, rows, "v"))
        g = np.array(column(columns, rows, "g"))
        assert np.nanmax(np.abs(v)) <= 3.0
        assert np.nanmax(np.abs(g)) <= 2.0

    def test_tiny_grid_rejected(self, capsys):
        code, _, _ = run_cli(capsys, ["landscape", "--grid", "0.1:2.0:1"])
        assert code == 2
        code, _, _ = run_cli(capsys, ["landscape", "--grid", "nan:1:3"])
        assert code == 2

    def test_undefined_cells(self, capsys):
        assert run_cli(capsys, ["landscape", "--clip-v", "0"])[0] == 2
        # zero FI at theta = 0 makes V = inf - inf in the first cell
        code, out, err = run_cli(capsys, [
            "landscape", "--vartheta", "0.5", "--varphi", "0",
            "--grid", "0:1:2"])
        assert code == 3 and out == ""
        assert "f_ab must be > 0" in err

    def test_dead_segment_is_not_a_violation(self, capsys):
        # F_ac = 0 at theta_ac = 0: the cell is undefined, not a violation
        code, out, err = run_cli(capsys, [
            "landscape", "--vartheta", "0.5", "--varphi", "0",
            "--grid", "0:1:2", "--grid-cb", "0.5:1:2"])
        assert (code, out) == (3, "")
        assert err == ("cfii: numerical degeneracy: "
                       "f_ac must be > 0, got 0.0\n")


    def test_overflowing_resistance_is_not_a_violation(self, capsys):
        # F_ac ~ 3e-310 > 0 at theta_ac = 1e-155, but 1/F_ac overflows
        code, out, err = run_cli(capsys, [
            "landscape", "--vartheta", "0.5", "--varphi", "0",
            "--grid", "1e-155:1:2", "--grid-cb", "0.5:1:2"])
        assert (code, out) == (3, "")
        assert err == "cfii: numerical degeneracy: 1/F overflows for f_ac\n"


class TestTableBound:
    """Grids of more than MAX_ROWS points, and product tables of more than
    MAX_ROWS rows, are refused before any row is computed."""

    @pytest.mark.parametrize("argv, message, computes", [
        (["landscape", "--grid", "0.05:6:100000"],
         "a 100000 x 100000 table exceeds 1000000 rows", "v_path"),
        (["landscape", "--grid", "0:1:1001", "--grid-cb", "0:1:1000"],
         "a 1001 x 1000 table exceeds 1000000 rows", "v_path"),
        (["fi", "--grid", "0:1:1000001"],
         "--grid needs 2 to 1000000 points, got 1000001", None),
        (["chain", "--gamma-grid", "0:0.6:1000001"],
         "--gamma-grid needs 2 to 1000000 points, got 1000001",
         "k_chain_gain"),
        (["chain", "--gamma-grid", "0:0.6:1001", "--k-grid", "2:1001:1000"],
         "a 1000 x 1001 table exceeds 1000000 rows", "k_chain_gain"),
        (["certify", "--gamma-grid", "0:0.6:1000001"],
         "--gamma-grid needs 2 to 1000000 points, got 1000001",
         "analytic_certification"),
        (["certify", "--gamma-grid", "0:0.6:1000000",
          "--shots-grid", "100:200:2"],
         "a 1000000 x 2 table exceeds 1000000 rows",
         "analytic_certification"),
    ])
    def test_refused_with_one_line(self, capsys, monkeypatch, argv, message,
                                   computes):
        assert MAX_ROWS == 10 ** 6

        def computed(*args, **kwargs):
            raise AssertionError(f"{computes} ran on a refused table")
        if computes:
            # a command looks each library name up in its defining module
            module = estimate if hasattr(estimate, computes) else witness
            monkeypatch.setattr(module, computes, computed)
        code, out, err = run_cli(capsys, argv)
        assert (code, out) == (2, "")
        assert err == f"cfii: config error: {message}\n"


class TestCertifyCommand:
    def test_single_point_report(self, capsys):
        code, out, _ = run_cli(capsys, [
            "certify", "--seed", "11", "--shots", "400"])
        assert code == 0
        _, columns, rows = parse_csv(out)
        assert columns == ["quantity", "value"]
        table = {row[0]: float(row[1]) for row in rows}
        expected_keys = (["v_hat", "se", "z", "ci95_lo", "ci95_hi",
                          "fi_hat_end"]
                         + [f"fi_hat_seg_{j}" for j in range(1, 5)]
                         + ["v_analytic", "se_analytic", "z_analytic"])
        assert list(table) == expected_keys
        assert table["ci95_lo"] == pytest.approx(
            table["v_hat"] - 1.959964 * table["se"], rel=1e-12)
        assert table["ci95_hi"] == pytest.approx(
            table["v_hat"] + 1.959964 * table["se"], rel=1e-12)
        assert table["z"] == pytest.approx(-table["v_hat"] / table["se"],
                                           rel=1e-12)
        expected = analytic_certification(NoisyFringeModel(GOLDEN),
                                          math.pi / 2, 4, 400)
        assert table["v_analytic"] == pytest.approx(expected.v_hat,
                                                    rel=1e-14)
        assert table["se_analytic"] == pytest.approx(expected.se, rel=1e-14)
        assert table["z_analytic"] == pytest.approx(expected.z, rel=1e-14)

    def test_point_draws_the_library_streams(self, capsys):
        # context j of a seeded run is sample_binary(..., seed, j)
        code, out, _ = run_cli(capsys, [
            "certify", "--seed", "5", "--shots", "300", "--t-total", "1.0",
            "--k", "2"])
        assert code == 0
        table = {row[0]: float(row[1]) for row in parse_csv(out)[2]}
        model = NoisyFringeModel(GOLDEN)
        samples = [sample_binary(model, theta, 300, 5, j)
                   for j, theta in enumerate([1.0, 0.5, 0.5])]
        report = certify_vk(samples[0], samples[1:], model)
        assert [table[name] for name in (
            "fi_hat_end", "fi_hat_seg_1", "fi_hat_seg_2")] == [
            report.f_end, *report.f_segments.tolist()]

    def test_pinned_k12_report(self, capsys):
        # 13 contexts: a pairwise (np.sum) SE would differ in the last bit
        code, out, _ = run_cli(capsys, [
            "certify", "--seed", "4", "--k", "12", "--se-mode", "empirical"])
        assert code == 0
        assert "".join(line for line in out.splitlines(keepends=True)
                       if not line.startswith("# wallclock")) == (
            f"# tool: cfii {cli.__version__}\n# command: certify\n"
            '# config: {"eps_r": '
            '0.02, "gamma": 0.25, "gamma_grid": "", "k": 12, "se_mode": '
            '"empirical", "seed": 4, "shots": 1000, "shots_grid": "", '
            '"t_total": 1.5707963267948966, "vartheta0": 0.0}\n# seed: 4\n'
            "quantity,value\n"
            "v_hat,-12.117055672406885\n"
            "se,0.63192169027403033\n"
            "z,19.17493236725641\n"
            "ci95_lo,-13.355599436163134\n"
            "ci95_hi,-10.878511908650635\n"
            "fi_hat_end,0.42019257854914221\n"
            "fi_hat_seg_1,0.86685922205163413\n"
            "fi_hat_seg_2,0.78749040383729085\n"
            "fi_hat_seg_3,0.92638583571239153\n"
            "fi_hat_seg_4,0.90654363115880576\n"
            "fi_hat_seg_5,0.82717481294446249\n"
            "fi_hat_seg_6,0.86685922205163413\n"
            "fi_hat_seg_7,0.70812158562294769\n"
            "fi_hat_seg_8,1.0454390630339063\n"
            "fi_hat_seg_9,0.76764819928370498\n"
            "fi_hat_seg_10,0.72796379017653345\n"
            "fi_hat_seg_11,0.84701701749804836\n"
            "fi_hat_seg_12,0.76764819928370498\n"
            "v_analytic,-12.329181201435755\n"
            "se_analytic,0.63555638524160607\n"
            "z_analytic,19.399036006457287\n")

    def test_point_evaluates_p0_once_per_angle(self, capsys, monkeypatch):
        calls = []
        p0 = NoisyFringeModel.p0

        def counted(self, theta):
            calls.append(theta)
            return p0(self, theta)
        monkeypatch.setattr(NoisyFringeModel, "p0", counted)
        code, _, _ = run_cli(capsys, ["certify", "--seed", "1", "--k", "1000",
                                      "--shots", "10"])
        assert code == 0 and len(calls) <= 2

    def test_sweep_reference_row(self, capsys):
        code, out, _ = run_cli(capsys, [
            "certify", "--gamma-grid", "0.25:0.5:2"])
        assert code == 0
        _, columns, rows = parse_csv(out)
        assert columns == ["gamma", "shots", "v_k", "se", "z",
                           "z_ge_3", "z_ge_5"]
        first = dict(zip(columns, map(float, rows[0])))
        assert first["gamma"] == 0.25
        assert first["shots"] == 1000
        assert first["v_k"] == pytest.approx(-2.5798942830008977, rel=1e-13)
        assert first["se"] == pytest.approx(0.21205689019467844, rel=1e-13)
        assert first["z"] == pytest.approx(12.166047897016837, rel=1e-13)
        assert first["z_ge_3"] == 1.0 and first["z_ge_5"] == 1.0

    def test_sweep_flags_track_z(self, capsys):
        code, out, _ = run_cli(capsys, [
            "certify", "--gamma-grid", "0.0:1.2:7",
            "--shots-grid", "10:10000:4"])
        assert code == 0
        _, columns, rows = parse_csv(out)
        for row in rows:
            record = dict(zip(columns, map(float, row)))
            assert record["z_ge_3"] == float(record["z"] >= 3.0)
            assert record["z_ge_5"] == float(record["z"] >= 5.0)

    def test_sweep_row_blocks_print_the_per_row_bytes(self, capsys):
        # 600 rows x (K + 1) = 3e6 entries: three row blocks of the
        # library's column path, against one library call per row
        code, out, _ = run_cli(capsys, [
            "certify", "--gamma-grid", "0:0.6:300", "--shots-grid",
            "100:1000:2", "--k", "5000"])
        assert code == 0
        gammas = np.repeat(np.linspace(0.0, 0.6, 300), 2)
        shots = np.tile([100, 1000], 300)
        rows = [analytic_certification(NoisyFringeModel(NoisyFringeParams(
            gamma=g, epsilon_r=0.02)), math.pi / 2, 5000, n)
            for g, n in zip(gammas.tolist(), shots.tolist())]
        z = np.array([r.z for r in rows])
        expected = ResultTable({
            "gamma": gammas, "shots": shots,
            "v_k": [r.v_hat for r in rows], "se": [r.se for r in rows],
            "z": z, "z_ge_3": (z >= 3.0).astype(np.int64),
            "z_ge_5": (z >= 5.0).astype(np.int64)})
        assert drop_meta(out) == expected.render_csv()

    def test_sweep_undefined_mu4_is_a_degeneracy(self, capsys):
        # lossless, undamped at gamma = 0: z = 1 at t_total = 2 pi, where
        # zdot = -sin(2 pi) is a rounding residue, not 0
        code, out, err = run_cli(capsys, [
            "certify", "--gamma-grid", "0:0.6:3", "--eps-r", "0",
            "--t-total", repr(2 * math.pi), "--k", "2"])
        assert (code, out) == (3, "")
        assert err == ("cfii: numerical degeneracy: mu4 undefined at a "
                       "degenerate point\n")

    @pytest.mark.parametrize("argv, message", [
        # every shot of the segment at pi/8 = vartheta0 gives outcome 0 at
        # gamma = 0, where the analytic SE alone predicted z = 114.5
        (["--gamma-grid", "0:0.6:5", "--eps-r", "0", "--vartheta0", PI_8],
         "outcome 1 has zero probability; score undefined"),
        # F_end ~ 3e-123: its fourth power underflows
        (["--gamma-grid", "0.2:0.3:2", "--t-total", "700", "--k", "2"],
         "1/F^4 overflows for f_end"),
    ])
    def test_sweep_degeneracies_make_no_claim(self, capsys, argv, message):
        code, out, err = run_cli(capsys, ["certify", *argv])
        assert (code, out) == (3, "")
        assert err == f"cfii: numerical degeneracy: {message}\n"

    def test_validation(self, capsys):
        assert run_cli(capsys, ["certify", "--seed", "1",
                                "--shots", "0"])[0] == 2
        assert run_cli(capsys, ["certify", "--seed", "1", "--k", "1"])[0] == 2
        assert run_cli(capsys, ["certify", "--seed", "1",
                                "--se-mode", "exact"])[0] == 2
        assert run_cli(capsys, ["certify", "--gamma-grid=-0.5:0.5:3"])[0] == 2
        # zero-length segments and single-shot contexts are bad flags,
        # not a falsification or a traceback
        for argv in (["--seed", "1", "--t-total", "0"],
                     ["--seed", "1", "--shots", "1"],
                     ["--gamma-grid", "0:0.6:3", "--t-total", "0"],
                     ["--gamma-grid", "0:0.6:3", "--shots-grid", "1:10:3"],
                     ["--gamma-grid", "0:0.5:2", "--k", "1000001"]):
            code, out, err = run_cli(capsys, ["certify", *argv])
            assert code == 2 and out == ""
            assert err.startswith("cfii: config error:")
            assert err.count("\n") == 1


class TestDrawBound:
    """Shot and replication counts above the library's limits are refused
    before anything is drawn."""

    @pytest.mark.parametrize("argv, message", [
        (["certify", "--seed", "1", "--shots", "1000000000"],
         "n must lie in [1, 10000000], got 1000000000"),
        (["rmse", "--seed", "1", "--reps", "1000000000"],
         "reps must lie in [1, 1000000], got 1000000000"),
    ])
    def test_refused_with_one_line(self, capsys, monkeypatch, argv, message):
        def drawn(*args):
            raise AssertionError("a refused run drew random numbers")
        monkeypatch.setattr(estimate, "derive_rng", drawn)
        code, out, err = run_cli(capsys, argv)
        assert (code, out) == (2, "")
        assert err == f"cfii: config error: {message}\n"


class TestAdversaryCommand:
    def test_summary_matches_rows(self, capsys):
        code, out, _ = run_cli(capsys, [
            "adversary", "--l", "2", "--m", "3", "--restarts", "3",
            "--steps", "60", "--seed", "4"])
        assert code == 0
        meta, columns, rows = parse_csv(out)
        assert columns == ["restart", "gamma_adv"]
        gammas = np.array(column(columns, rows, "gamma_adv"))
        assert column(columns, rows, "restart", cast=int) == [0, 1, 2]
        assert float(meta["summary_max"]) == gammas.max()
        assert float(meta["summary_mean"]) == pytest.approx(gammas.mean(),
                                                            rel=1e-15)
        assert float(meta["summary_min"]) == gammas.min()
        assert tuple(gammas) == optimize_restarts(
            2, 3, n_restarts=3, steps=60, seed=4).restart_gammas

    def test_binary_endpoint_reports_zero(self, capsys):
        code, out, _ = run_cli(capsys, [
            "adversary", "--l", "3", "--m", "2", "--restarts", "2",
            "--steps", "20", "--seed", "1"])
        assert code == 0
        meta, columns, rows = parse_csv(out)
        assert all(g == 0.0 for g in column(columns, rows, "gamma_adv"))
        assert float(meta["summary_max"]) == 0.0

    def test_validation(self, capsys):
        assert run_cli(capsys, ["adversary", "--seed", "1",
                                "--restarts", "0"])[0] == 2
        assert run_cli(capsys, ["adversary", "--seed", "1",
                                "--steps", "-1"])[0] == 2
        assert run_cli(capsys, ["adversary", "--seed", "1",
                                "--l", "1"])[0] == 2
        assert run_cli(capsys, ["adversary", "--seed", "1",
                                "--m", "1"])[0] == 2
        for lr in ("nan", "inf", "0", "-1"):
            code, out, err = run_cli(capsys, [
                "adversary", "--seed", "1", "--l", "3", "--m", "3",
                "--restarts", "2", "--steps", "5", "--lr", lr])
            assert (code, out) == (2, "") and err.count("\n") == 1


class TestRmseCommand:
    def test_columns_and_reference_bounds(self, capsys):
        code, out, _ = run_cli(capsys, [
            "rmse", "--seed", "2", "--n-grid", "100:400:2",
            "--reps", "200"])
        assert code == 0
        _, columns, rows = parse_csv(out)
        assert columns == ["n", "rmse", "crb", "crb_classical"]
        record = dict(zip(columns, map(float, rows[0])))
        assert record["n"] == 100
        assert record["crb"] == pytest.approx(0.1, rel=1e-15)
        assert record["crb_classical"] == pytest.approx(
            math.sqrt(2.0) * record["crb"], rel=1e-15)
        assert 0.05 < record["rmse"] < 0.2

    def test_damped_fringe_refused(self, capsys):
        # the MLE inverts cos(theta - vartheta0) only: it would be biased
        code, out, err = run_cli(capsys, [
            "rmse", "--model", "noisy", "--theta", PI_2, "--seed", "3",
            "--n-grid", "200:200:2", "--reps", "100"])
        assert (code, out) == (2, "") and err.count("\n") == 1
        assert "the MLE inverts z = cos(theta - 0.0) only" in err

    def test_noisy_model_supported(self, capsys):
        # the lossless noisy fringe is cos(theta - vartheta0)
        code, out, _ = run_cli(capsys, [
            "rmse", "--model", "noisy", "--gamma", "0", "--eps-r", "0",
            "--vartheta0", "0.4", "--theta", PI_2, "--seed", "3",
            "--n-grid", "200:200:2", "--reps", "100"])
        assert code == 0
        _, columns, rows = parse_csv(out)
        assert len(rows) == 1
        f = NoisyFringeModel(NoisyFringeParams(
            gamma=0.0, epsilon_r=0.0, vartheta0=0.4)).fi(math.pi / 2)
        record = dict(zip(columns, map(float, rows[0])))
        assert record["crb"] == pytest.approx(1.0 / math.sqrt(200 * f),
                                              rel=1e-12)

    def test_zero_information_point_rejected(self, capsys):
        # F = 0 at theta = 0 for this fringe; the MLE's branch refuses it
        code, _, err = run_cli(capsys, [
            "rmse", "--seed", "1", "--vartheta", "0.5", "--varphi", "0",
            "--theta", "0"])
        assert code == 2
        assert err == ("cfii: config error: theta must lie in "
                       "(0.5, 3.641592653589793), got 0.0\n")

    @pytest.mark.parametrize("theta", ["0", repr(math.pi), "4"])
    def test_theta_outside_the_branch_refused(self, capsys, theta):
        # at a branch end the estimate is pinned, past it mirrored: the
        # table would read as a beat of the Cramer-Rao bound
        code, out, err = run_cli(capsys, ["rmse", "--seed", "1",
                                          "--theta", theta])
        assert (code, out) == (2, "")
        assert err == ("cfii: config error: theta must lie in "
                       f"(0.0, 3.141592653589793), got {float(theta)}\n")

    @pytest.mark.parametrize("theta, p0", [("1e-10", "1.0"),
                                           ("3.1415926435897933", "0.0")])
    def test_theta_where_every_shot_agrees_refused(self, capsys, theta, p0):
        # inside the branch, but p0 rounds to 1 or 0: every replication
        # estimates a branch end, at any n
        code, out, err = run_cli(capsys, [
            "rmse", "--seed", "1", "--theta", theta, "--n-grid",
            "10:100000:3", "--reps", "100"])
        assert (code, out) == (2, "")
        assert err == (f"cfii: config error: theta must give 0 < p0 < 1, got "
                       f"p0 = {p0} at theta = {float(theta)!r}: every estimate "
                       "is a branch end\n")

    def test_branch_follows_vartheta(self, capsys):
        code, out, _ = run_cli(capsys, [
            "rmse", "--seed", "1", "--vartheta", "0.5", "--theta", "0.6",
            "--n-grid", "100:200:2", "--reps", "10"])
        assert code == 0
        assert len(parse_csv(out)[2]) == 2

    def test_validation(self, capsys):
        assert run_cli(capsys, ["rmse", "--seed", "1",
                                "--reps", "0"])[0] == 2
        assert run_cli(capsys, ["rmse", "--seed", "1",
                                "--n-grid", "0:100:3"])[0] == 2


class TestChainCommand:
    def test_reference_row(self, capsys):
        code, out, _ = run_cli(capsys, [
            "chain", "--gamma-grid", "0.25:0.5:2"])
        assert code == 0
        _, columns, rows = parse_csv(out)
        assert columns == ["k", "gamma", "f_end", "f_segment", "f_benchmark",
                           "v_k", "gamma_k", "gamma_k_midfringe"]
        record = dict(zip(columns, map(float, rows[0])))
        assert record["k"] == 4 and record["gamma"] == 0.25
        assert record["f_end"] == pytest.approx(0.4201925785491422,
                                                rel=1e-13)
        assert record["f_segment"] == pytest.approx(0.8064913766408359,
                                                    rel=1e-13)
        assert record["f_benchmark"] == pytest.approx(
            record["f_segment"] / 4.0, rel=1e-15)
        assert record["v_k"] == pytest.approx(-2.5798942830008977, rel=1e-13)
        assert record["gamma_k"] == pytest.approx(2.0840524311583377,
                                                  rel=1e-13)
        assert record["gamma_k_midfringe"] == pytest.approx(
            4.0 * math.exp(-2.0 * 0.25 * (math.pi / 2) * 0.75), rel=1e-15)

    def test_lossless_chain_gain_is_k(self, capsys):
        code, out, _ = run_cli(capsys, [
            "chain", "--eps-r", "0", "--gamma-grid", "0:1:2",
            "--k-grid", "2:6:3"])
        assert code == 0
        _, columns, rows = parse_csv(out)
        for row in rows:
            record = dict(zip(columns, map(float, row)))
            if record["gamma"] == 0.0:
                assert record["gamma_k"] == pytest.approx(record["k"],
                                                          abs=1e-12)
                assert record["v_k"] == pytest.approx(-(record["k"] - 1.0),
                                                      abs=1e-12)

    @pytest.mark.parametrize("grid", ["0:0.6:3", "0.6:0:3"])
    def test_zero_segment_fi_is_a_degeneracy(self, capsys, grid):
        # at gamma = 0 the segment angle pi/2 sits on the fringe extreme
        # vartheta0, first or last among the rates of the one library call
        code, out, err = run_cli(capsys, [
            "chain", "--gamma-grid", grid, "--vartheta0", PI_2,
            "--t-total", repr(math.pi), "--k", "2"])
        assert (code, out) == (3, "")
        assert err == ("cfii: numerical degeneracy: f_segment_0 must be > 0, "
                       "got 0.0\n")

    def test_infinite_fi_is_a_degeneracy(self, capsys):
        # zdot^2 overflows at gamma ~ 1e300 and theta = 1e-300
        code, out, err = run_cli(capsys, [
            "chain", "--gamma-grid", "10:1e300:40", "--t-total", "1e-300",
            "--k-grid", "2:100:4"])
        assert (code, out) == (3, "")
        assert err == ("cfii: numerical degeneracy: f_end must be finite, "
                       "got inf\n")

    def test_row_blocks_print_the_per_row_bytes(self, capsys):
        # 300 rates x (K + 1) = 1.5e6 entries: two row blocks of the
        # library's column path, against one library call per row
        code, out, _ = run_cli(capsys, [
            "chain", "--gamma-grid", "0:0.6:300", "--k", "5000"])
        assert code == 0
        gammas = np.linspace(0.0, 0.6, 300)
        rows = [witness.k_chain_gain(NoisyFringeModel(NoisyFringeParams(
            gamma=g, epsilon_r=0.02)), math.pi / 2, 5000)
            for g in gammas.tolist()]
        expected = ResultTable({
            "k": np.full(300, 5000), "gamma": gammas,
            "f_end": [r.f_end for r in rows],
            "f_segment": [r.f_segments[0] for r in rows],
            "f_benchmark": [r.f_benchmark for r in rows],
            "v_k": [r.v for r in rows],
            "gamma_k": [r.gamma_ratio for r in rows],
            "gamma_k_midfringe": [
                5000 * math.exp(-2.0 * g * (math.pi / 2) * (1.0 - 1 / 5000))
                for g in gammas.tolist()]})
        assert drop_meta(out) == expected.render_csv()

    def test_validation(self, capsys):
        assert run_cli(capsys, ["chain", "--k", "1"])[0] == 2
        assert run_cli(capsys, ["chain", "--gamma-grid=-0.1:0.5:3"])[0] == 2
        for argv in (["--t-total", "nan"], ["--t-total", "inf"],
                     ["--k", "1000001"]):
            code, out, err = run_cli(capsys, ["chain", *argv])
            assert (code, out) == (2, "") and err.count("\n") == 1


class TestNsitDemoCommand:
    def test_reports_separation(self, capsys):
        code, out, _ = run_cli(capsys, ["nsit-demo"])
        assert code == 0
        _, columns, rows = parse_csv(out)
        table = {row[0]: float(row[1]) for row in rows}
        assert table["nsit_holds"] == 1.0
        assert table["v_path"] == pytest.approx(-1.0, abs=1e-12)


class TestCrossingCommand:
    def test_reference_value(self, capsys):
        code, out, _ = run_cli(capsys, ["crossing"])
        assert code == 0
        _, columns, rows = parse_csv(out)
        assert columns == ["k", "t_total", "eps_r", "gamma_star"]
        record = dict(zip(columns, map(float, rows[0])))
        assert record["gamma_star"] == pytest.approx(0.44252088963544078,
                                                     abs=1e-6)

    def test_no_crossing_is_a_degeneracy(self, capsys):
        code, _, err = run_cli(capsys, ["crossing", "--gamma-max", "0.1"])
        assert code == 3
        assert "numerical degeneracy" in err

    def test_validation(self, capsys):
        assert run_cli(capsys, ["crossing", "--k", "1"])[0] == 2
        assert run_cli(capsys, ["crossing", "--gamma-max", "0"])[0] == 2
        for argv in (["--t-total", "nan"], ["--t-total", "inf"],
                     ["--k", "1000001"]):
            code, out, err = run_cli(capsys, ["crossing", *argv])
            assert (code, out) == (2, "") and err.count("\n") == 1


@pytest.mark.parametrize("argv, key", [
    (["crossing", "--gamma-max", "0"], "gamma_max"),
    (["crossing", "--t-total", "0"], "t_total"),
    (["chain", "--t-total", "0"], "t_total"),
    (["certify", "--seed", "1", "--t-total", "0"], "t_total"),
], ids=["crossing-gamma_max", "crossing-t_total", "chain-t_total",
        "certify-t_total"])
def test_refusal_names_the_flags_key(capsys, argv, key):
    # the library names each parameter as the config key of its flag
    assert run_cli(capsys, argv) == (
        2, "", f"cfii: config error: {key} must lie in (0, inf), got 0.0\n")


_ODD = st.sampled_from(["nan", "inf", "-inf", "0", "-1", "-0.5", "0.7",
                        "1e-300", "1e300", "abc"])
# magnitudes log-uniform over [1e-308, 1e308], of either sign: extreme rates
# and angles whose products overflow or underflow
_EXTREME = st.builds(lambda sign, e: repr(sign * 10.0 ** e),
                     st.sampled_from([1.0, -1.0]), st.floats(-308.0, 308.0))
_FLOATS = _ODD | st.floats(-7.0, 7.0).map(repr) | _EXTREME
_GRIDS = st.builds("{}:{}:{}".format, _FLOATS, _FLOATS, st.integers(0, 4))
# a small adversary budget; zero and negative values stay in the draw
_BUDGET = ("restarts", "steps")


def _flag_values(key, kind):
    if key.endswith("grid") or key == "grid_cb":
        return _GRIDS
    if isinstance(kind, tuple):
        return st.sampled_from([*kind, "exact"])
    if kind is int:
        return st.integers(-2, 5).map(str) | st.sampled_from(["abc", "2.5"])
    return _FLOATS


def _argv(command):
    spec = _SPECS[command]
    required = {key: st.integers(-1, 3).map(str)
                for key in _BUDGET if key in spec}
    # the test renders each exit-0 run in both formats
    optional = {key: _flag_values(key, kind)
                for key, (kind, _) in spec.items()
                if key not in required and key != "format"}
    return st.fixed_dictionaries(required, optional=optional).map(
        lambda flags: [command, "--seed", "1"] + [
            f"--{key.replace('_', '-')}={value}"
            for key, value in flags.items()])


@settings(max_examples=150, deadline=None)
@given(argv=st.sampled_from(sorted(_SPECS)).flatmap(_argv))
@example(argv=["certify", "--seed", "1", "--gamma", "-1"])
@example(argv=["crossing", "--eps-r", "0.7"])
@example(argv=["chain", "--t-total=-1"])
@example(argv=["rmse", "--seed", "1", "--model", "noisy", "--theta=-1"])
@example(argv=["chain", "--gamma-grid", "0:1e300:3"])
@example(argv=["landscape", "--grid", "nan:1:3"])
@example(argv=["fi", "--grid", "0:inf:3"])
@example(argv=["crossing", "--t-total", "1e-300"])
@example(argv=["adversary", "--seed", "1", "--restarts", "2", "--steps", "3",
               "--lr", "1e300"])
@example(argv=["fi", "--bogus", "1"])
@example(argv=["frobnicate"])
@example(argv=["fi", "--format", "xml"])
@example(argv=["chain", "--k", "2.5"])
@example(argv=["fi", "--vartheta", "nan"])
@example(argv=["rmse", "--seed", "1", "--gamma", "inf", "--n-grid",
               "100:200:2", "--reps", "5"])
@example(argv=["fi", "--model", "noisy", "--eps-r", "0", "--gamma", "2",
               "--grid", "0:0.001:3"])
@example(argv=["chain", "--gamma-grid", "0.0:9.353615843882265e+143:5",
               "--t-total", "8.502845843107654e-160", "--k", "2",
               "--eps-r", "0.47523077397199537"])
@example(argv=["certify", "--seed", "1", "--gamma", "1e300",
               "--t-total", "1e-300"])
@example(argv=["rmse", "--seed", "1", "--model", "noisy", "--gamma", "1e300",
               "--theta", "1e-300"])
@example(argv=["crossing", "--t-total", "700", "--k", "8", "--gamma-max",
               "1e308", "--vartheta0", "1.5707963267948966"])
@example(argv=["certify", "--gamma-grid", "0.0:6.778859359323615e+206:22",
               "--t-total", "6.283185307179586", "--k", "8",
               "--shots-grid", "2:1000:6", "--eps-r", "0"])
@example(argv=["certify", "--seed", "1", "--gamma", "1e40",
               "--t-total", "1e-45"])
@example(argv=["crossing", "--gamma-max", "1e155", "--t-total", "1e-155",
               "--k", "8"])
@example(argv=["crossing", "--gamma-max", "1e30", "--t-total", "1e-30"])
@example(argv=["rmse", "--seed", "1", "--model", "noisy", "--gamma", "1e153",
               "--theta", "1e-153"])
def test_fuzzed_flags_exit_cleanly(argv):
    """Any flag values end in exit 0 with finite cells and a strict-JSON
    rendering, or in exit 2/3 with a single stderr line; no exception or
    RuntimeWarning escapes main."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2, 3)
    if code == 0:
        _, _, rows = parse_csv(out.getvalue())
        assert not any(cell == "nan" for row in rows for cell in row)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(argv + ["--format", "json"]) == 0
        strict_json(out.getvalue())
    else:
        assert out.getvalue() == "" and err.getvalue().count("\n") == 1


def strict_json(text):
    """json.loads refusing NaN, Infinity and -Infinity, which RFC 8259
    does not allow."""
    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")
    return json.loads(text, parse_constant=refuse)


def _flag(key):
    return "--" + key.replace("_", "-")


class TestFlagRule:
    """Every flag of every command is checked when the config is built,
    whether or not the command or its model uses it (`fi --vartheta nan`
    has the noisy model, `rmse --gamma inf` the ideal one), so the config
    echo is always strict JSON."""

    @staticmethod
    def refusal(capsys, argv):
        code, out, err = run_cli(capsys, argv)
        assert (code, out) == (2, "") and err.count("\n") == 1, argv
        return err

    @staticmethod
    def config_argv(tmp_path, command, key, value):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"seed": 1, key: value}))
        return [command, "--config", str(path)]

    @pytest.mark.parametrize("command", sorted(_SPECS))
    def test_non_finite_float_refused(self, capsys, tmp_path, command):
        for key, (kind, _) in _SPECS[command].items():
            if kind is not float:
                continue
            for value in (math.nan, math.inf, -math.inf):
                expected = (f"cfii: config error: {key} must lie in "
                            f"(-inf, inf), got {value}\n")
                assert self.refusal(capsys, [
                    command, "--seed", "1", f"{_flag(key)}={value}"]) == expected
                assert self.refusal(capsys, [
                    command, "--seed", "1", _flag(key), str(value)]) == expected
                assert self.refusal(capsys, self.config_argv(
                    tmp_path, command, key, value)) == expected

    @pytest.mark.parametrize("flags, code, err", [
        (["--model", "ideal", "--grid", "-3:3:3"], 0, ""),
        (["--model", "noisy", "--vartheta0", "-1e-3", "--grid", "0.1:1:2"],
         0, ""),
        (["--vartheta0", "-inf"], 2,
         "cfii: config error: vartheta0 must lie in (-inf, inf), got -inf\n"),
    ])
    def test_value_may_start_with_a_dash(self, capsys, flags, code, err):
        # the token after a value flag is its value whatever it starts with,
        # as in --flag=value
        joined = [f"{flag}={value}"
                  for flag, value in zip(flags[::2], flags[1::2])]
        spaced = run_cli(capsys, ["fi", *flags])
        equals = run_cli(capsys, ["fi", *joined])
        assert (spaced[0], spaced[2]) == (equals[0], equals[2]) == (code, err)
        assert drop_wallclock(spaced[1]) == drop_wallclock(equals[1])
        assert (spaced[1] == "") == (code != 0)

    @pytest.mark.parametrize("command", sorted(_SPECS))
    def test_unknown_choice_refused(self, capsys, tmp_path, command):
        for key, (kind, _) in _SPECS[command].items():
            if not isinstance(kind, tuple):
                continue
            expected = (f"cfii: config error: {key} must be "
                        f"{' or '.join(kind)}, got {{!r}}\n")
            assert self.refusal(capsys, [command, "--seed", "1", _flag(key),
                                         "exact"]) == expected.format("exact")
            # and JSON values that no command-line string gives
            for value in ("exact", 1, True, None):
                assert self.refusal(capsys, self.config_argv(
                    tmp_path, command, key, value)) == expected.format(value)

    @pytest.mark.parametrize("argv, echo", [
        (["fi", "--bo\ngus"], r"--bo\ngus"),
        (["fi", "x\ny"], r"x\ny"),
        (["fi", "--config", "a\nb"], r"a\nb"),
        (["fi", "--config", "a\0b"], r"a\x00b"),
        # printable non-ASCII text is kept, a zero-width space is not
        (["fi", "--config", "\u00e9\u200b"], "\u00e9" + r"\u200b"),
    ])
    def test_control_characters_print_escaped(self, capsys, argv, echo):
        """An echoed argument cannot split the one stderr line or put a
        control byte on it."""
        err = self.refusal(capsys, argv)
        assert err[:-1].isprintable() and echo in err

    def test_json_boolean_is_not_a_number(self, capsys, tmp_path):
        for command, spec in _SPECS.items():
            for key, (kind, _) in spec.items():
                if kind in (int, float):
                    assert self.refusal(capsys, self.config_argv(
                        tmp_path, command, key, True)) == (
                        f"cfii: config error: {key} must be a number, "
                        "got True\n")


class TestOutputPlumbing:
    def test_nan_cell_is_a_degeneracy(self, capsys, monkeypatch):
        monkeypatch.setitem(cli._COMMANDS, "nsit-demo",
                            lambda config: ResultTable({"x": [1.0, math.nan]}))
        code, out, err = run_cli(capsys, ["nsit-demo"])
        assert (code, out, err) == (
            3, "", "cfii: numerical degeneracy: undefined (NaN) result cells\n")

    def test_out_writes_file_and_silences_stdout(self, capsys, tmp_path):
        path = tmp_path / "table.csv"
        code, out, _ = run_cli(capsys, [
            "fi", "--grid", "0.1:1.1:3", "--out", str(path)])
        assert code == 0
        assert out == ""
        text = path.read_text()
        assert text.startswith("# tool: cfii ")
        meta, columns, rows = parse_csv(text)
        assert meta["command"] == "fi"
        assert meta["seed"] == "none"
        assert len(rows) == 3

    @pytest.mark.parametrize("argv, message", [
        (["fi", "--out", ""], "cannot write --out: "),
        (["certify", "--seed", "1", "--config", ""],
         "cannot read config file : "),
    ])
    def test_empty_path_is_a_config_error(self, capsys, argv, message):
        # an empty path is the current directory, not an absent flag
        code, out, err = run_cli(capsys, argv)
        assert (code, out) == (2, "") and err.count("\n") == 1
        assert err.startswith("cfii: config error: " + message)

    def test_config_echo_reproduces_run(self, capsys, tmp_path):
        # one run of each command, seeded (seed: n) and not (seed: null)
        for argv in (["chain", "--gamma-grid", "0.1:0.3:3"],
                     ["fi", "--model", "ideal", "--grid", "0.1:1.1:3"],
                     ["certify", "--seed", "3", "--shots", "50"],
                     ["adversary", "--seed", "2", "--l", "2", "--m", "3",
                      "--restarts", "2", "--steps", "5"],
                     ["rmse", "--seed", "1", "--n-grid", "100:200:2",
                      "--reps", "20"],
                     ["landscape", "--grid", "0.1:1.1:3"],
                     ["nsit-demo"], ["crossing", "--k", "3"]):
            code, out, _ = run_cli(capsys, argv + ["--format", "json"])
            assert code == 0
            doc = strict_json(out)
            assert doc["meta"]["command"] == argv[0]
            path = tmp_path / "echo.json"
            path.write_text(json.dumps(doc["meta"]["config"]))
            code, out2, _ = run_cli(capsys, [
                argv[0], "--config", str(path), "--format", "json"])
            assert code == 0
            doc2 = strict_json(out2)
            doc["meta"].pop("wallclock")
            doc2["meta"].pop("wallclock")
            assert doc == doc2

    @pytest.mark.parametrize("argv, int_columns", [
        (["fi", "--grid", "0.1:1.1:3"], set()),
        (["landscape", "--grid", "0.1:1.1:3"], set()),
        (["certify", "--seed", "1"], set()),
        (["certify", "--gamma-grid", "0.1:0.4:3"],
         {"shots", "z_ge_3", "z_ge_5"}),
        (["adversary", "--seed", "1", "--l", "2", "--m", "3",
          "--restarts", "2", "--steps", "5"], {"restart"}),
        (["rmse", "--seed", "1", "--n-grid", "100:200:2", "--reps", "20"],
         {"n"}),
        (["chain", "--gamma-grid", "0:0.5:3"], {"k"}),
        (["nsit-demo"], set()),
        (["crossing"], {"k"}),
    ], ids=["fi", "landscape", "certify-point", "certify-sweep", "adversary",
            "rmse", "chain", "nsit-demo", "crossing"])
    def test_csv_and_json_agree(self, capsys, argv, int_columns):
        code, csv_out, _ = run_cli(capsys, argv + ["--format", "csv"])
        assert code == 0
        _, json_out, _ = run_cli(capsys, argv + ["--format", "json"])
        meta, columns, rows = parse_csv(csv_out)
        doc = json.loads(json_out)
        assert json_out == json.dumps(doc, indent=2) + "\n"
        assert doc["columns"] == columns
        assert len(doc["rows"]) == len(rows) > 0
        assert int_columns <= set(columns)
        for name, json_cells, csv_cells in zip(columns, zip(*doc["rows"]),
                                               zip(*rows)):
            for a, b in zip(json_cells, csv_cells):
                if name in int_columns:
                    assert type(a) is int and b == str(a)
                elif name == "quantity":
                    assert type(a) is str and a == b
                else:
                    assert type(a) is float and float(b) == a

    def test_result_table_cells(self):
        for ragged in ({"a": [1.0, 2.0], "b": [1]}, {"a": 1.0},
                       {"a": [[1.0], [2.0]]}):
            with pytest.raises(ValueError, match="equal length"):
                ResultTable(ragged)
        table = ResultTable({"n": np.arange(2), "x": [math.inf, 0.1],
                             "y": [-math.inf, 1.0]})
        assert table.render_csv() == (
            "n,x,y\n0,inf,-inf\n1,0.10000000000000001,1\n")
        assert json.loads(table.render_json()) == {
            "meta": {}, "columns": ["n", "x", "y"],
            "rows": [[0, None, None], [1, 0.1, 1.0]]}

    def test_render_json_is_indent_2_json_dumps(self):
        meta = {"tool": "cfii test", "note": 'a "b", \\c \u00e9',
                "config": {"gamma": 0.25, "seed": None}}
        floats = [math.inf, -math.inf, math.nan, -0.0, 5e-324, 1e308, 0.1]
        ints = [np.iinfo(np.int64).min, np.iinfo(np.int64).max, 0, -1, 1,
                2, 3]
        strs = ['say "hi"', "back\\slash", "a, b", "\u00fc\u03c0", ", ",
                "", "\u2019, \"\\"]
        tables = [
            (ResultTable({"x": floats, "n": np.array(ints, dtype=np.int64),
                          "s": strs}, meta=meta),
             [[x if math.isfinite(x) else None, n, t]
              for x, n, t in zip(floats, ints, strs)]),
            (ResultTable({"x": np.array([]),
                          "n": np.array([], dtype=np.int64)}, meta=meta), []),
            (ResultTable({}), []),
        ]
        for table, rows in tables:
            doc = {"meta": table.meta, "columns": list(table.columns),
                   "rows": rows}
            assert table.render_json() == json.dumps(doc, indent=2) + "\n"

    @pytest.mark.parametrize("col", [
        np.random.default_rng(1).permutation(np.repeat(
            np.linspace(-1.0, 1.0, 7), 50)),
        np.random.default_rng(2).random(300),
        np.array([0.0, -0.0, -0.0, 0.0, 1.0, -1.0]),
        np.array([math.inf, -math.inf, math.nan, 1.0, -math.inf, math.inf,
                  math.nan, 1.0]),
        np.array([5e-324, 0.1, 1e308, 0.1, 5e-324]),
        np.array([0.25]),
        np.array([]),
        np.repeat(np.linspace(0.0, 1.0, 9), 4)[1::3],
        np.repeat(np.linspace(0.0, 1.0, 9), 4)[::-2],
        np.linspace(0.0, 1.0, 11, dtype=np.float32).repeat(3),
        np.arange(-3, 4).repeat(2),
        np.array([], dtype=np.int64),
    ], ids=["repeats", "distinct", "signed-zeros", "non-finite", "extremes",
            "one-cell", "no-cells", "strided", "reversed", "float32", "ints",
            "no-ints"])
    def test_cells_equal_per_cell_formatting(self, col):
        before = col.copy()
        for csv in (True, False):
            assert cli._cells(col, csv) == reference_cells(col, csv)
        np.testing.assert_array_equal(col, before)

    def test_cells_tell_floats_apart_by_their_bits(self):
        zeros = np.array([-0.0, 0.0, -0.0, 0.0])
        assert cli._cells(zeros, csv=True) == ["-0", "0", "-0", "0"]
        assert cli._cells(zeros, csv=False) == ["-0.0", "0.0", "-0.0", "0.0"]
        # two NaN payloads, each repeated, print as one NaN does
        nans = np.array([0x7FF8000000000000, 0x7FF8000000000001] * 2,
                        dtype=np.int64).view(np.float64)
        assert cli._cells(nans, csv=True) == ["nan"] * 4
        assert cli._cells(nans, csv=False) == ["null"] * 4

    def test_landscape_renders_as_per_cell_formatting(self, monkeypatch):
        table = cli.execute(build_config(["landscape", "--grid", "-1:1:41"]))
        texts = table.render_csv(), table.render_json()
        monkeypatch.setattr(cli, "_cells", reference_cells)
        assert texts == (table.render_csv(), table.render_json())

    def test_stochastic_runs_are_reproducible(self, capsys):
        argv = ["rmse", "--seed", "7", "--n-grid", "100:200:2",
                "--reps", "50"]
        _, first, _ = run_cli(capsys, argv)
        _, second, _ = run_cli(capsys, argv)
        strip = lambda text: [line for line in text.splitlines()
                              if not line.startswith("# wallclock")]
        assert strip(first) == strip(second)
        assert first != second or strip(first) == first.splitlines()

    def test_json_reproducibility_modulo_wallclock(self, capsys):
        argv = ["adversary", "--l", "2", "--m", "3", "--restarts", "2",
                "--steps", "25", "--seed", "12", "--format", "json"]
        _, first, _ = run_cli(capsys, argv)
        _, second, _ = run_cli(capsys, argv)
        a, b = json.loads(first), json.loads(second)
        a["meta"].pop("wallclock")
        b["meta"].pop("wallclock")
        assert a == b

    def test_meta_block_contents(self, capsys):
        code, out, _ = run_cli(capsys, [
            "rmse", "--seed", "5", "--n-grid", "100:100:2", "--reps", "20"])
        assert code == 0
        meta, _, _ = parse_csv(out)
        assert meta["tool"].startswith("cfii ")
        assert meta["command"] == "rmse"
        assert meta["seed"] == "5"
        config = json.loads(meta["config"])
        assert config["seed"] == 5
        assert config["reps"] == 20


def test_cli_import_loads_no_scipy():
    """The runtime needs numpy only: importing the CLI in a fresh
    interpreter loads no scipy module."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    code = ("import sys, cfii.cli; print(sorted(m for m in sys.modules "
            "if m == 'scipy' or m.startswith('scipy.')))")
    result = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, text=True, check=True)
    assert result.stdout.strip() == "[]"


@pytest.mark.parametrize("preset, expected", [(None, "4"), ("30", "30")])
def test_import_lets_openblas_workers_sleep(preset, expected):
    """Importing cfii in a fresh interpreter sets OPENBLAS_THREAD_TIMEOUT
    before numpy loads, unless the caller has set it."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    env.pop("OPENBLAS_THREAD_TIMEOUT", None)
    if preset is not None:
        env["OPENBLAS_THREAD_TIMEOUT"] = preset
    code = ("import os, sys; early = 'numpy' in sys.modules; import cfii; "
            "print(os.environ['OPENBLAS_THREAD_TIMEOUT'], early)")
    result = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, text=True, check=True)
    assert result.stdout.split() == [expected, "False"]
