"""A fresh cfii process: the layers it loads, its one-shot entry and the
exits of that entry."""

import gc
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cfii
from cfii import cli, witness

SRC = Path(__file__).resolve().parents[1] / "src"
ENV = dict(os.environ, PYTHONPATH=str(SRC))
# the console script's body, with run() as its target
SCRIPT = "import sys; from cfii.cli import run; sys.exit(run())"


def python(*args, **kwargs):
    return subprocess.run([sys.executable, *args], env=ENV,
                          capture_output=True, text=True, **kwargs)


def loaded_after(statement: str) -> set[str]:
    """numpy, numpy.ma, argparse, gettext, locale and the cfii submodules
    that a fresh interpreter holds after running `statement` with its stdout
    discarded."""
    code = ("import contextlib, io, sys\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    {statement}\n"
            "print(*(m for m in sys.modules\n"
            "        if m in ('numpy', 'numpy.ma', 'argparse', 'gettext',\n"
            "                 'locale') or m.startswith('cfii.')))")
    return set(python("-c", code, check=True).stdout.split())


def drop_wallclock(text: str) -> str:
    return "".join(line for line in text.splitlines(keepends=True)
                   if not line.startswith(f"# {cli.WALLCLOCK_KEY}:"))


def in_process(capsys, argv: list[str]) -> tuple[int, str, str]:
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestLazyLayers:
    def test_import_loads_no_layer_and_no_numpy(self):
        assert loaded_after("import cfii") == set()

    def test_fi_loads_only_its_layers(self):
        assert loaded_after("from cfii import cli; cli.main(['fi'])") == {
            "numpy", "cfii.cli", "cfii.errors", "cfii.models", "cfii.rng"}

    def test_adversary_loads_neither_estimate_nor_witness(self):
        loaded = loaded_after(
            "from cfii import cli; cli.main(['adversary', '--seed', '1', "
            "'--restarts', '2', '--steps', '5'])")
        assert "cfii.adversary" in loaded
        assert not loaded & {"cfii.estimate", "cfii.witness"}

    @pytest.mark.parametrize("argv", [
        ["certify", "--gamma-grid", "0:0.6:25", "--shots-grid",
         "100:100000:7"],
        ["rmse", "--seed", "1"],
        ["nsit-demo"],
        ["chain", "--k-grid", "2:9:8"],
        ["landscape"],
        ["fi", "--format", "json"],
    ])
    def test_no_command_loads_numpy_ma(self, argv):
        # importing numpy.ma takes about 16 ms, a tenth of a fresh fi call
        assert "numpy.ma" not in loaded_after(
            f"from cfii import cli; cli.main({argv!r})")

    @pytest.mark.parametrize("argv", [
        ["fi", "--grid", "0.1:1:3"],
        ["landscape", "--grid", "0.1:1:3"],
        ["certify", "--seed", "1", "--shots", "100"],
        ["adversary", "--seed", "1", "--restarts", "2", "--steps", "5"],
        ["rmse", "--seed", "1", "--n-grid", "100:1000:2", "--reps", "10"],
        ["chain", "--gamma-grid", "0:0.6:3"],
        ["nsit-demo"],
        ["crossing"],
        ["chain", "--help"],
        ["fi", "--bogus"],
    ])
    def test_no_command_loads_argparse(self, argv):
        # the flags are read against _SPECS; importing argparse, gettext and
        # locale and building a parser took about 6-8 ms of a fresh call
        statement = ("with contextlib.suppress(SystemExit): "
                     f"from cfii import cli; cli.main({argv!r})")
        assert not loaded_after(statement) & {"argparse", "gettext", "locale"}

    def test_every_export_is_its_defining_module_attribute(self):
        code = ("import sys, cfii\n"
                "for name in cfii.__all__[1:]:\n"
                "    obj = getattr(cfii, name)\n"
                "    assert obj is getattr(sys.modules[obj.__module__], name)"
                ", name\n"
                "    assert name not in vars(cfii), name\n"
                "print(len(cfii.__all__))")
        assert python("-c", code, check=True).stdout.split() == [
            str(len(cfii.__all__))]

    def test_dir_submodules_and_an_unknown_name(self):
        code = ("import cfii\n"
                "assert set(cfii.__all__) <= set(dir(cfii))\n"
                "assert {'adversary', 'cli', 'witness'} <= set(dir(cfii))\n"
                "print(cfii.adversary.__name__)\n"
                "try:\n"
                "    cfii.no_such_name\n"
                "except AttributeError as exc:\n"
                "    print(exc)\n")
        assert python("-c", code, check=True).stdout == (
            "cfii.adversary\n"
            "module 'cfii' has no attribute 'no_such_name'\n")

    def test_public_surface_is_pinned(self):
        # a name added to or dropped from the package is a deliberate edit
        # of this list
        assert cfii.__all__ == [
            "__version__", "CfiiError", "DegenerateModelError",
            "NonPositiveFiError", "NotPositiveDefiniteError",
            "NonStochasticChannelError", "OptimizationError",
            "NoCrossingError", "DegenerateBenchmarkError", "EstimationError",
            "ResistanceOverflowError", "derive_rng", "QubitPreparation",
            "NoisyFringeParams", "BinaryModel", "QubitFringeModel",
            "NoisyFringeModel", "CategoricalModel", "categorical_fi",
            "effective_fi", "coarse_grain_fi", "WitnessReport", "v_path",
            "v_chain", "classical_benchmark_path", "gain_indicator",
            "split_optimized_benchmark", "k_chain_gain", "gamma_crossing",
            "nsit_separation_demo", "ContextSample", "FiEstimate",
            "CertificationReport", "sample_binary", "certify_vk",
            "analytic_certification", "classifier_score", "classifier_fi",
            "mc_rmse", "mc_vk_distribution", "AdversaryParams",
            "OptimizeResult", "gamma_adv", "gamma_adv_gradient",
            "optimize_restarts"]

    @pytest.mark.parametrize("owner, name", [
        ("models.BinaryModel", "score"),
        ("models.BinaryModel", "as_categorical"),
        ("models", "categorical_product"), ("witness", "improvement_factor"),
        ("estimate", "plugin_fi"), ("estimate", "analytic_mu4"),
        ("estimate", "fi_estimate_variance"), ("estimate", "mle_theta"),
        ("errors", "BranchWarning"), ("estimate", "_estimates"),
        ("estimate.CertificationReport", "estimates")])
    def test_second_paths_are_gone(self, owner, name):
        # each formula has one path, and a chain's contexts one layout: the
        # one these names repeated stays
        obj = cfii
        for part in owner.split("."):
            obj = getattr(obj, part)
        for where in (cfii, obj):
            with pytest.raises(AttributeError):
                getattr(where, name)
        # a dataclass field without a default is no class attribute
        assert name not in getattr(obj, "__dataclass_fields__", {})

    def test_a_patched_attribute_shows_through_the_package(self,
                                                           monkeypatch):
        def sentinel():
            pass
        monkeypatch.setattr(witness, "k_chain_gain", sentinel)
        assert cfii.k_chain_gain is sentinel


class TestOneShotEntry:
    @pytest.mark.parametrize("argv", [
        ["fi"],
        ["certify", "--seed", "1"],
        ["adversary", "--l", "3", "--m", "3", "--restarts", "2",
         "--steps", "20", "--seed", "1"],
    ])
    def test_same_stdout_as_in_process_main(self, capsys, argv):
        code, out, err = in_process(capsys, argv)
        assert (code, err) == (0, "")
        fresh = python("-m", "cfii.cli", *argv)
        assert (fresh.returncode, fresh.stderr) == (0, "")
        assert drop_wallclock(fresh.stdout) == drop_wallclock(out)

    @pytest.mark.parametrize("entry", [["-m", "cfii.cli"], ["-c", SCRIPT]])
    @pytest.mark.parametrize("want, argv", [
        (2, ["fi", "--out", "missing/x.csv"]),
        (3, ["fi", "--model", "noisy", "--eps-r", "0", "--gamma", "2",
             "--grid", "0:0.001:3"]),
    ])
    def test_refusal_prints_one_line(self, capsys, tmp_path, monkeypatch,
                                     entry, want, argv):
        monkeypatch.chdir(tmp_path)
        expected = in_process(capsys, argv)
        assert expected[0] == want
        fresh = python(*entry, *argv, cwd=tmp_path)
        assert (fresh.returncode, fresh.stdout, fresh.stderr) == expected
        assert fresh.stderr.count("\n") == 1

    def test_in_process_main_keeps_the_collector(self, capsys):
        before = gc.isenabled(), gc.get_freeze_count()
        assert in_process(capsys, ["nsit-demo"])[0] == 0
        assert in_process(capsys, ["fi", "--grid", "0:1:1000001"])[0] == 2
        assert (gc.isenabled(), gc.get_freeze_count()) == before

    @pytest.mark.parametrize("module_path", [True, False])
    def test_entry_runs_without_the_collector(self, module_path):
        """The entry leaves the collector off and freezes what is alive; in
        python -m cfii.cli no collection runs once numpy's import starts."""
        launch = ("runpy.run_module('cfii.cli', run_name='__main__', "
                  "alter_sys=True)" if module_path
                  else "from cfii.cli import run; run()")
        code = ("import atexit, gc, runpy, sys\n"
                "late = []\n"
                "gc.callbacks.append(lambda phase, info: late.append(phase)\n"
                "                    if 'numpy' in sys.modules else None)\n"
                "atexit.register(lambda: print(gc.isenabled(),\n"
                "                              gc.get_freeze_count() > 0,\n"
                "                              len(late), file=sys.stderr))\n"
                "sys.argv = ['cfii', 'fi']\n"
                f"{launch}\n")
        fresh = python("-c", code)
        assert fresh.returncode == 0
        enabled, frozen, collections = fresh.stderr.split()
        assert (enabled, frozen) == ("False", "True")
        if module_path:
            assert collections == "0"

    @pytest.mark.parametrize("argv, unbuffered", [
        (["fi"], True),  # fails in a write
        (["nsit-demo"], False),  # fails in the flush before exit
        (["fi", "--help"], False),  # fails in the usage text's flush
    ])
    def test_closed_stdout_exits_1_silently(self, argv, unbuffered):
        env = dict(ENV)
        env.pop("PYTHONUNBUFFERED", None)
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            fresh = subprocess.run(
                [sys.executable, "-m", "cfii.cli", *argv], env=env,
                stdout=write_end, stderr=subprocess.PIPE)
        finally:
            os.close(write_end)
        assert (fresh.returncode, fresh.stderr) == (1, b"")


@pytest.mark.parametrize("out", ["missing/x.csv", "."])
def test_unwritable_out_exits_2(capsys, tmp_path, monkeypatch, out):
    monkeypatch.chdir(tmp_path)
    code, stdout, err = in_process(capsys, ["fi", "--out", out])
    assert (code, stdout) == (2, "")
    assert err.startswith("cfii: config error: cannot write --out: ")
    assert err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []
