import ctypes
import hashlib
import json
import math
import os
import platform
import subprocess
import sys
import warnings
from importlib import resources

import numpy as np
import pytest
from conftest import SRC
from hypothesis import given, settings
from hypothesis import strategies as st

from subnyq import cli, converse, experiments, output
from subnyq.capacity import LossReport, batched_losses, discrete_losses, loss_csv_rows
from subnyq.channel import ChannelState, enumerate_states, load_channel
from subnyq.cli import main
from subnyq.numerics import colex_plan
from subnyq.output import g12_rows, json_records, loss_csv_lines
from subnyq.samplers import EnsembleSpec, draw_matrix, make_flat_sampler


def run(argv):
    return main(argv)


def discrete_json(block, loss_eq, loss_opt):
    """The discrete command's JSON document for these records."""
    return json_records(block, {"loss_eq": loss_eq, "loss_opt": loss_opt}, 0) + "\n"


class TestVerify:
    def test_default_suite_passes(self, capsys):
        assert run(["--command", "verify", "--seed", "7"]) == 0
        out = capsys.readouterr().out
        assert "-> pass" in out

    def test_perturbation_detected(self, capsys):
        assert run(["--command", "verify", "--seed", "7", "--perturb", "1e-3"]) == 2
        out = capsys.readouterr().out
        assert "FAIL" in out

    def test_overflowing_perturbation_warns_nothing(self, capsys):
        # B^T B overflows: the identities fail, and no floating-point warning
        # leaks; the one state of n = k = m = 7 uses the overflowed entry, so
        # its sum is not a number, not the 0 of a singular state
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(["--command", "verify", "--seed", "7", "--perturb", "1e160"]) == 2
        out = capsys.readouterr().out
        assert "FAIL" in out
        rows = [line.split() for line in out.splitlines() if line.split()[:3] == ["7"] * 3]
        assert len(rows) == 4 and all(row[4] == "nan" for row in rows)

    def test_a_sum_that_is_not_a_number_fails(self, capsys, monkeypatch):
        real = converse.subset_det_sums_unchecked
        monkeypatch.setattr(converse, "subset_det_sums_unchecked",
                            lambda b, k, grid: [math.nan] + real(b, k, grid)[1:])
        assert run(["--command", "verify", "--seed", "7"]) == 2
        assert "worst rel err nan -> FAIL" in capsys.readouterr().out

    def test_out_file(self, tmp_path, capsys):
        out = tmp_path / "verify.json"
        assert run(["--command", "verify", "--seed", "7", "--out", str(out)]) == 0
        capsys.readouterr()
        doc = json.loads(out.read_text())
        assert len(doc["checks"]) == 80  # 20 instances x 4 eps values
        assert doc["failures"] == []
        assert doc["worst_relative_error"] <= 1e-9


def strict_json_loads(text):
    """json.loads that rejects the NaN, Infinity and -Infinity tokens."""
    def reject(token):
        raise ValueError(f"{token} is not JSON")
    return json.loads(text, parse_constant=reject)


class TestStrictJson:
    """A JSON document a command writes holds a number that is not finite as
    the text the CSV outputs use for it, and strict parsers read it."""

    def test_overflowed_verify_out(self, tmp_path, capsys):
        out = tmp_path / "v.json"
        assert run(["--command", "verify", "--seed", "7", "--perturb", "1e160",
                    "--out", str(out)]) == 2
        capsys.readouterr()
        doc = strict_json_loads(out.read_text())
        assert doc["worst_relative_error"] == "nan"
        assert {chk["lhs_sum"] for chk in doc["checks"] if chk["n"] == 7 == chk["k"]} == {"nan"}

    def test_achievability_with_singular_minors(self, tmp_path, capsys):
        out = tmp_path / "a.json"
        assert run(["--command", "achievability", "--n", "8", "--k", "3", "--m", "3",
                    "--ensemble", "rademacher", "--eps", "0", "--trials", "4",
                    "--format", "json", "--out", str(out)]) == 0
        capsys.readouterr()
        doc = strict_json_loads(out.read_text())
        assert doc["summary"]["mean_min"] == "-inf" and doc["summary"]["std_min"] == "nan"
        assert "-inf" in doc["per_trial"]["min"]

    def test_finite_documents_keep_their_bytes(self):
        doc = {"b": [1.5, (2, -0.0)], "a": {"x": None, "y": True, "z": np.float64(0.1)}}
        assert output.strict_json(doc) == json.dumps(doc, sort_keys=True, indent=2)
        text = output.strict_json([math.inf, -math.inf, math.nan, np.float64(-math.inf)])
        assert strict_json_loads(text) == ["inf", "-inf", "nan", "-inf"]


class TestArgumentErrors:
    def test_unknown_command(self, capsys):
        assert run(["--command", "nonsense"]) == 1
        capsys.readouterr()

    def test_bad_dimensions(self, capsys):
        assert run(["--command", "achievability", "--k", "10", "--m", "4"]) == 1
        capsys.readouterr()

    def test_no_partial_output_on_bad_args(self, tmp_path, capsys):
        out = tmp_path / "never.csv"
        code = run([
            "--command", "achievability", "--k", "10", "--m", "4", "--out", str(out),
        ])
        capsys.readouterr()
        assert code == 1
        assert not out.exists()

    @pytest.mark.parametrize("target", ["missing-dir/out.txt", "."])
    @pytest.mark.parametrize("argv", [
        ["--command", "capacity", "--m", "4", "--seed", "11"],
        ["--command", "achievability", "--n", "10", "--k", "3", "--m", "3", "--trials", "4",
         "--format", "csv"],
    ])
    def test_unwritable_out_is_a_usage_error(self, tmp_path, capsys, argv, target):
        # a missing parent directory, then a path that is a directory
        out = tmp_path / target
        assert run(argv + ["--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert f"cannot write output file {out}" in err
        assert "Traceback" not in err

    def test_tau_flag_removed(self, capsys):
        assert run(["--command", "achievability", "--tau", "0.1"]) == 1
        capsys.readouterr()

    def test_tau_config_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"tau": 0.02}))
        assert run(["--command", "achievability", "--config", str(cfg)]) == 1
        assert "unknown config keys" in capsys.readouterr().err

    @pytest.mark.parametrize("workers", [0, -3])
    def test_workers_below_one_rejected(self, tmp_path, capsys, workers):
        out = tmp_path / "ach.json"
        args = ["--command", "achievability", "--n", "10", "--k", "3", "--m", "3",
                "--trials", "2", "--out", str(out)]
        assert run(args + ["--workers", str(workers)]) == 1
        assert "workers must be" in capsys.readouterr().err
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"workers": workers}))
        assert run(args + ["--config", str(cfg)]) == 1
        assert "workers must be" in capsys.readouterr().err
        assert not out.exists()

    _NUMERIC_KEYS = ("seed", "n", "k", "m", "eps", "trials", "state_cap", "workers", "power", "perturb")

    @pytest.mark.parametrize("key, value", [
        *((key, None) for key in _NUMERIC_KEYS),
        ("betas", [None]), ("alphas", [None]),
        ("trials", 2.5), ("seed", "7"), ("n", math.inf), ("workers", True),
        ("eps", math.nan), ("power", 10**400), ("perturb", "0.1"),
    ], ids=[*(f"{key}-null" for key in _NUMERIC_KEYS), "betas-null", "alphas-null", "trials-fractional",
            "seed-string", "n-inf", "workers-bool", "eps-nan", "power-beyond-float", "perturb-string"])
    def test_malformed_numeric_config_value_named(self, tmp_path, capsys, key, value):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: value}))
        out = tmp_path / "out.txt"
        args = ["--command", "achievability", "--config", str(cfg), "--out", str(out)]
        if key in ("betas", "alphas"):  # the sweep grids; give the other one
            other = "alphas" if key == "betas" else "betas"
            args = ["--command", "sweep", "--config", str(cfg), f"--{other}", "0.5", "--out", str(out)]
        assert run(args) == 1
        err = capsys.readouterr().err
        assert "usage error" in err and key in err
        assert not out.exists()

    def test_integral_float_config_values_run(self, tmp_path, capsys):
        args = ["--command", "achievability", "--n", "10", "--k", "3", "--m", "3", "--format", "json"]
        outputs = []
        for trials, seed in ((2, 7), (2.0, 7.0)):
            cfg, out = tmp_path / "cfg.json", tmp_path / f"ach-{trials!r}.json"
            cfg.write_text(json.dumps({"trials": trials, "seed": seed}))
            assert run(args + ["--config", str(cfg), "--out", str(out)]) == 0
            outputs.append(out.read_bytes())
        capsys.readouterr()
        assert outputs[0] == outputs[1]

    def test_missing_sweep_grid(self, capsys):
        assert run(["--command", "sweep", "--alphas", "0.5"]) == 1
        capsys.readouterr()

    def test_bad_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"unknown_key": 1}')
        assert run(["--command", "verify", "--config", str(cfg)]) == 1
        capsys.readouterr()

    SEED_ARGV = {  # small runs of every command
        "verify": [],
        "sweep": ["--betas", "0.5", "--alphas", "0.5"],
        "achievability": ["--n", "10", "--k", "3", "--m", "3", "--trials", "2"],
        "concentration": ["--k", "8", "--trials", "6"],
        "capacity": ["--m", "4"],
        "discrete": ["--n", "9", "--k", "3", "--m", "4"],
    }

    @pytest.mark.parametrize("seed", [-1, 2**64, 2**64 + 5])
    @pytest.mark.parametrize("command", sorted(SEED_ARGV))
    def test_seed_outside_64_bits_rejected(self, tmp_path, capsys, command, seed):
        # a 64-bit stream key would alias it: 2**64 + 5 to 5, -1 to 2**64 - 1
        out = tmp_path / "out"
        argv = ["--command", command, *self.SEED_ARGV[command], "--out", str(out)]
        assert run(argv + [f"--seed={seed}"]) == 1
        assert "usage error: seed must be" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("source", ["config", "env"])
    def test_seed_outside_64_bits_rejected_from_config_and_env(
        self, tmp_path, capsys, monkeypatch, source
    ):
        out = tmp_path / "out"
        argv = ["--command", "achievability", *self.SEED_ARGV["achievability"], "--out", str(out)]
        for seed in (-1, 2**64):
            if source == "config":
                cfg = tmp_path / "cfg.json"
                cfg.write_text(json.dumps({"seed": seed}))
                code = run(argv + ["--config", str(cfg)])
            else:
                monkeypatch.setenv("SUBNYQ_SEED", str(seed))
                code = run(argv)
            assert code == 1
            assert "usage error: seed must be" in capsys.readouterr().err
            assert not out.exists()

    @pytest.mark.parametrize("command", sorted(SEED_ARGV))
    def test_largest_seed_runs(self, tmp_path, capsys, command):
        out = tmp_path / "out"
        argv = ["--command", command, *self.SEED_ARGV[command], "--out", str(out)]
        assert run(argv + ["--seed", str(2**64 - 1)]) == 0
        capsys.readouterr()
        assert out.stat().st_size > 0


class TestSweep:
    def test_golden_half_half(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert run([
            "--command", "sweep", "--betas", "0.5", "--alphas", "0.5,1.0",
            "--out", str(out),
        ]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "beta;alpha;minimax_loss_per_hz;normalized_loss"
        row = dict(zip(("beta", "alpha", "loss", "norm"), lines[1].split(";")))
        assert float(row["loss"]) == pytest.approx(0.346574, abs=1e-6)
        # alpha = 1 column is exactly zero
        row2 = lines[2].split(";")
        assert float(row2[1]) == 1.0
        assert float(row2[2]) == 0.0

    def test_normalized_loss_monotone_decreasing_in_beta(self, tmp_path):
        out = tmp_path / "sweep.csv"
        betas = [0.05 * i for i in range(1, 19)]
        assert run([
            "--command", "sweep",
            "--betas", ",".join(f"{b:.2f}" for b in betas),
            "--alphas", "1.0", "--out", str(out),
        ]) == 0
        # at alpha=1 the loss column is 0; rerun at alpha=beta via pairs
        norm = []
        for b in betas:
            single = out.parent / f"s_{b:.2f}.csv"
            run(["--command", "sweep", "--betas", f"{b:.2f}", "--alphas", f"{b:.2f}",
                 "--out", str(single)])
            norm.append(float(single.read_text().strip().splitlines()[1].split(";")[3]))
        assert all(x > y for x, y in zip(norm, norm[1:]))

    def test_deterministic_bytes(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["--command", "sweep", "--betas", "0.1,0.3,0.5", "--alphas", "0.5,0.75,1.0"]
        run(args + ["--out", str(a)])
        run(args + ["--out", str(b)])
        assert a.read_bytes() == b.read_bytes()


class TestAchievability:
    ARGS = ["--command", "achievability", "--n", "16", "--k", "4", "--m", "4",
            "--trials", "50", "--seed", "7"]

    def test_exit_zero_and_json(self, tmp_path, capsys):
        out = tmp_path / "ach.json"
        assert run(self.ARGS + ["--out", str(out)]) == 0
        capsys.readouterr()
        doc = json.loads(out.read_text())
        assert doc["bound_violations"] == 0
        assert doc["trials"] == 50
        assert "wall_clock_s" not in doc

    def test_workers_do_not_change_bytes(self, tmp_path, capsys):
        files = []
        for w in ("1", "8"):
            out = tmp_path / f"ach_w{w}.json"
            assert run(self.ARGS + ["--workers", w, "--out", str(out)]) == 0
            files.append(out.read_bytes())
        capsys.readouterr()
        assert files[0] == files[1]

    def test_repeat_run_identical(self, tmp_path, capsys):
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        run(self.ARGS + ["--out", str(out1)])
        run(self.ARGS + ["--out", str(out2)])
        capsys.readouterr()
        assert out1.read_bytes() == out2.read_bytes()

    def test_superlandau_dispatch(self, tmp_path, capsys):
        out = tmp_path / "sl.json"
        code = run(["--command", "achievability", "--n", "16", "--k", "4", "--m", "8",
                    "--trials", "20", "--seed", "3", "--out", str(out)])
        capsys.readouterr()
        assert code == 0
        assert json.loads(out.read_text())["name"] == "superlandau_achievability"

    def test_superlandau_at_m_equal_n_runs(self, tmp_path, capsys):
        # alpha = 1 leaves no margin 1 - alpha - beta, and needs none: every
        # draw gives the exact value
        out = tmp_path / "sl.json"
        code = run(["--command", "achievability", "--n", "12", "--k", "3", "--m", "12",
                    "--trials", "5", "--seed", "3", "--out", str(out)])
        capsys.readouterr()
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["name"] == "superlandau_achievability" and doc["bound_violations"] == 0

    def test_csv_format(self, tmp_path, capsys):
        out = tmp_path / "ach.csv"
        assert run(self.ARGS + ["--trials", "5", "--out", str(out), "--format", "csv"]) == 0
        capsys.readouterr()
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "trial;max;mean;min"
        assert len(lines) == 6


def test_a_closed_pipe_ends_the_command_quietly():
    # more than the pipe holds, so the command is still writing when its
    # reader stops after one line: an output error, exit 1, no traceback
    proc = subprocess.Popen(
        [sys.executable, "-m", "subnyq.cli", "--command", "discrete", "--n", "20", "--k", "5",
         "--m", "4"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert proc.stdout.readline().startswith(b"state;")
    proc.stdout.close()
    try:
        assert proc.wait(timeout=60) == 1
    finally:
        proc.kill()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert "Traceback" not in err and "BrokenPipeError" not in err


class TestWorkersByteIdentity:
    """Outputs of the commands that take --workers, for 1 to 3 workers.

    The CLI runs in a subprocess (`cli_process`), and achievability with
    64-state chunks, so that every worker count splits the states.
    """

    CHUNK = "from subnyq import numerics\nnumerics.STATE_CHUNK = 64\n"

    def outputs(self, cli_process, tmp_path, args, workers, setup=""):
        files = []
        for w in workers:
            out = tmp_path / f"w{w}.out"
            result = cli_process(args + ["--workers", w, "--out", out], setup=setup)
            assert result.returncode == 0, result.stderr
            files.append(out.read_bytes())
        return files

    @pytest.mark.parametrize("nkm", [(14, 4, 4), (14, 3, 6)], ids=["k=m", "k<m"])
    def test_achievability(self, cli_process, tmp_path, nkm):
        n, k, m = nkm
        args = ["--command", "achievability", "--n", n, "--k", k, "--m", m,
                "--trials", "6", "--seed", "4", "--format", "json"]
        one, two, three = self.outputs(cli_process, tmp_path, args, (1, 2, 3), self.CHUNK)
        assert one == two == three
        assert json.loads(one)["trials"] == 6

    @pytest.mark.parametrize("args", [
        ["--command", "verify", "--seed", "7"],
        ["--command", "concentration", "--k", "20", "--trials", "30", "--seed", "2"],
    ], ids=["verify", "concentration"])
    def test_verify_and_concentration(self, cli_process, tmp_path, args):
        one, two = self.outputs(cli_process, tmp_path, args, (1, 2))
        assert one == two


class TestConcentration:
    def test_bracket_pass(self, tmp_path, capsys):
        out = tmp_path / "conc.json"
        code = run(["--command", "concentration", "--k", "100", "--trials", "200",
                    "--eps", "0.1", "--seed", "5", "--out", str(out)])
        capsys.readouterr()
        assert code == 0
        assert json.loads(out.read_text())["passed"] is True

    def test_bracket_miss_exits_2(self, tmp_path, capsys):
        out = tmp_path / "conc.json"
        code = run(["--command", "concentration", "--k", "5", "--trials", "50", "--eps", "0.8",
                    "--ensemble", "uniform_sym", "--format", "json", "--out", str(out)])
        assert "FAIL" in capsys.readouterr().out
        assert code == 2
        assert json.loads(out.read_text())["passed"] is False

    @pytest.mark.parametrize("sign", [-1.0, 0.0])
    def test_nonpositive_logdet_sign_exits_3(self, monkeypatch, capsys, tmp_path, sign):
        real = np.linalg.slogdet
        monkeypatch.setattr(np.linalg, "slogdet", lambda a: (sign, real(a)[1]))
        out = tmp_path / "conc.json"
        code = run(["--command", "concentration", "--k", "20", "--trials", "3",
                    "--eps", "0.1", "--out", str(out)])
        assert code == 3
        assert "numerical failure" in capsys.readouterr().err
        assert not out.exists()


class TestCapacity:
    def test_bundled_channel_csv(self, tmp_path, capsys):
        out = tmp_path / "cap.csv"
        code = run(["--command", "capacity", "--m", "4", "--seed", "11",
                    "--out", str(out)])
        capsys.readouterr()
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0].startswith("state;c_sampled")
        assert len(lines) == 57  # header + C(8,3) states
        for line in lines[1:]:
            assert float(line.split(";")[4]) >= -1e-9  # loss_eq column

    def test_custom_channel_json_format(self, tmp_path, capsys):
        doc = {"W": 4.0, "n": 4, "k": 2, "P": 8.0,
               "gains": [[1.0], [1.4], [0.8], [1.1]]}
        ch_path = tmp_path / "ch.json"
        ch_path.write_text(json.dumps(doc))
        out = tmp_path / "cap.json"
        code = run(["--command", "capacity", "--channel", str(ch_path), "--m", "2",
                    "--seed", "4", "--format", "json", "--out", str(out)])
        capsys.readouterr()
        assert code == 0
        payload = json.loads(out.read_text())
        assert len(payload["reports"]) == 6
        assert payload["sampler"]["kind"] == "gaussian"

    def test_bits_column(self, tmp_path, capsys):
        out = tmp_path / "cap.csv"
        run(["--command", "capacity", "--m", "4", "--seed", "11", "--bits",
             "--out", str(out)])
        capsys.readouterr()
        assert out.read_text().splitlines()[0].endswith(";loss_eq_bits")

    @pytest.mark.parametrize("change, named", [
        ({"W": None}, "'W'"),
        ({"state_gains": [1]}, "'state_gains'"),
        (None, "not a regular file"),  # --channel names a directory
        ({"n": 4.7}, "'n'"),
        ({"W": math.nan}, "'W'"),
        ({"P": 10**400}, "'P'"),
    ], ids=["W-null", "state-gains-list", "directory", "n-fractional", "W-nan", "P-beyond-float"])
    def test_malformed_channel_exits_1(self, tmp_path, capsys, change, named):
        path = tmp_path
        if change is not None:
            doc = {"W": 4.0, "n": 4, "k": 2, "P": 8.0, "gains": [[1.0], [1.4], [0.8], [1.1]]}
            path = tmp_path / "ch.json"
            path.write_text(json.dumps({**doc, **change}))
        out = tmp_path / "cap.csv"
        assert run(["--command", "capacity", "--channel", str(path), "--m", "2",
                    "--out", str(out)]) == 1
        assert named in capsys.readouterr().err
        assert not out.exists()


class TestDiscrete:
    def test_runs_and_losses_nonnegative(self, tmp_path, capsys):
        out = tmp_path / "disc.csv"
        code = run(["--command", "discrete", "--n", "8", "--k", "2", "--m", "2",
                    "--power", "5", "--seed", "3", "--out", str(out)])
        capsys.readouterr()
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 29  # header + C(8,2)
        for line in lines[1:]:
            assert float(line.split(";")[4]) >= -1e-9


class TestLossRowFormatting:
    """The CLI labels rows from the index block; its text must equal the
    LossReport formatter's on the same values."""

    @staticmethod
    def reports(states, capacities):
        columns = zip(*(col.tolist() for col in capacities))
        return [LossReport.from_capacities(ChannelState(tuple(s)), *row)
                for s, row in zip((states + 1).tolist(), columns)]

    @pytest.mark.parametrize("bits", [False, True])
    def test_capacity_csv_equals_loss_csv_rows(self, tmp_path, capsys, bits):
        out = tmp_path / "cap.csv"
        assert run(["--command", "capacity", "--m", "4", "--seed", "11", "--out", str(out)]
                   + (["--bits"] if bits else [])) == 0
        capsys.readouterr()
        channel = load_channel(resources.files("subnyq").joinpath("data/example_channel.json"))
        sampler = make_flat_sampler(
            draw_matrix(EnsembleSpec("gaussian", 4, channel.n_subbands, 11))
        )
        states = enumerate_states(channel.n_subbands, channel.k_active, 10**6)
        census = colex_plan(channel.n_subbands, channel.k_active)
        reports = self.reports(states, batched_losses(channel, sampler, census))
        assert out.read_text() == "\n".join(loss_csv_rows(reports, bits=bits)) + "\n"

    def test_capacity_json_fields(self, tmp_path, capsys):
        out = tmp_path / "cap.json"
        assert run(["--command", "capacity", "--m", "4", "--seed", "11", "--format", "json",
                    "--out", str(out)]) == 0
        capsys.readouterr()
        channel = load_channel(resources.files("subnyq").joinpath("data/example_channel.json"))
        sampler = make_flat_sampler(
            draw_matrix(EnsembleSpec("gaussian", 4, channel.n_subbands, 11))
        )
        states = enumerate_states(channel.n_subbands, channel.k_active, 10**6)
        census = colex_plan(channel.n_subbands, channel.k_active)
        reports = self.reports(states, batched_losses(channel, sampler, census))
        want = [
            {"state": list(rep.state.indices), "c_sampled": rep.c_sampled,
             "c_eq": rep.c_nyquist_eq, "c_opt": rep.c_nyquist_opt, "loss_eq": rep.loss_eq,
             "loss_opt": rep.loss_opt, "nu": rep.water_level}
            for rep in reports
        ]
        assert json.loads(out.read_text())["reports"] == want

    @pytest.mark.parametrize("cap", [10**6, 20])  # exhaustive, then sampled
    def test_discrete_csv_equals_loss_csv_rows(self, tmp_path, capsys, cap):
        out = tmp_path / "disc.csv"
        assert run(["--command", "discrete", "--n", "9", "--k", "3", "--m", "4", "--power", "5",
                    "--seed", "3", "--state-cap", str(cap), "--bits", "--out", str(out)]) == 0
        capsys.readouterr()
        states = enumerate_states(9, 3, cap)
        q = draw_matrix(EnsembleSpec("gaussian", 4, 9, 3))
        reports = self.reports(states, discrete_losses(np.ones(9), q, states, 5.0))
        assert out.read_text() == "\n".join(loss_csv_rows(reports, bits=True)) + "\n"


class TestDiscreteJson:
    """The discrete JSON writer must give the bytes of `json.dumps`."""

    @staticmethod
    def encoded(block, loss_eq, loss_opt):
        records = [
            {"state": state, "loss_eq": eq, "loss_opt": opt}
            for state, eq, opt in zip(np.asarray(block).tolist(), loss_eq, loss_opt)
        ]
        return json.dumps(records, sort_keys=True, indent=2) + "\n"

    def test_bytes_equal_json_dumps(self):
        gen = np.random.default_rng(5)
        special = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1e300, 1 / 3, -1e-17]
        values = special + (gen.standard_normal(300) * 10.0 ** gen.integers(-20, 20, 300)).tolist()
        loss_eq, loss_opt = values, values[::-1]
        block = np.sort([gen.choice(40, 3, replace=False) + 1 for _ in values], axis=1)
        block[0], block[-1] = [1, 2, 3], [38, 39, 40]
        for args in ((block, loss_eq, loss_opt), ([[3]], [-0.0], [math.nan])):
            assert discrete_json(*args) == self.encoded(*args)

    @pytest.mark.parametrize("change", ["none", "-0.0", "nan", "nan-payload", "inf", "-inf", "ulp"])
    def test_columns_equal_but_in_one_row(self, change):
        # a later column reuses an earlier one's texts only when the two are
        # equal bit for bit; one differing row keeps them apart
        gen = np.random.default_rng(6)
        loss_eq = gen.standard_normal(200) * 10.0 ** gen.integers(-20, 20, 200)
        loss_eq[[3, 50]] = 0.0, math.nan
        loss_opt = loss_eq.copy()
        other_nan = np.array([0x7FF8_0000_0000_0001], dtype=np.uint64).view(float)[0]
        loss_opt[3 if change == "-0.0" else 50 if change == "nan-payload" else 120] = {
            "none": loss_eq[120], "-0.0": -0.0, "nan": math.nan, "nan-payload": other_nan,
            "inf": math.inf, "-inf": -math.inf, "ulp": np.nextafter(loss_eq[120], math.inf),
        }[change]
        block = np.sort([gen.choice(40, 3, replace=False) + 1 for _ in loss_eq], axis=1)
        got = discrete_json(block, loss_eq, loss_opt)
        assert got == self.encoded(block, loss_eq.tolist(), loss_opt.tolist())
        texts = output._json_texts([loss_eq, loss_opt])
        assert (texts[1] is texts[0]) == (change == "none")

    def test_cli_output_equals_json_dumps(self, tmp_path, capsys):
        out = tmp_path / "disc.json"
        assert run(["--command", "discrete", "--n", "9", "--k", "3", "--m", "4", "--power", "5",
                    "--seed", "3", "--state-cap", "20", "--format", "json", "--out", str(out)]) == 0
        capsys.readouterr()
        states = enumerate_states(9, 3, 20)
        q = draw_matrix(EnsembleSpec("gaussian", 4, 9, 3))
        c_sampled, c_eq, c_opt, _ = discrete_losses(np.ones(9), q, states, 5.0)
        block = states + 1
        want = self.encoded(block, (c_eq - c_sampled).tolist(), (c_opt - c_sampled).tolist())
        assert out.read_text() == want


SPECIAL_FLOATS = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, 1.7976931348623157e308, 1 / 3]
LOSS_KEYS = ("c_sampled", "c_eq", "c_opt", "loss_eq", "loss_opt", "nu")


def loss_table(seed: int, count: int, width: int):
    """An index block of `width` columns from 1..120 (labels of one to three
    digits) and six value columns, the special floats first."""
    gen = np.random.default_rng(seed)
    labels = np.sort([gen.choice(120, width, replace=False) + 1 for _ in range(count)], axis=1)
    columns = {}
    for j, key in enumerate(LOSS_KEYS):
        values = (gen.standard_normal(count) * 10.0 ** gen.integers(-20, 20, count)).tolist()
        values[: len(SPECIAL_FLOATS)] = SPECIAL_FLOATS[j:] + SPECIAL_FLOATS[:j]
        columns[key] = values
    return labels, columns


def by_line(text: str) -> list[str]:
    """text split after each newline: equal lists mean equal bytes, and a
    failing comparison reports the first differing line quickly."""
    return text.splitlines(keepends=True)


def as_numpy(columns, kind: str):
    """The columns as Python floats, float64 arrays, or lists of numpy scalars."""
    if kind == "array":
        return {key: np.asarray(col) for key, col in columns.items()}
    if kind == "scalars":
        return {key: list(np.asarray(col)) for key, col in columns.items()}
    return columns


class TestLossCsvTemplate:
    """loss_csv_lines against a cell-by-cell reference, not through loss_csv_rows."""

    @staticmethod
    def reference(labels, columns, bits):
        lines = ["state;c_sampled;c_eq;c_opt;loss_eq;loss_opt;nu" + (";loss_eq_bits" if bits else "")]
        for i, label in enumerate(np.asarray(labels).tolist()):
            values = [float(columns[key][i]) for key in LOSS_KEYS]
            if bits:
                values.append(values[3] / math.log(2.0))
            lines.append(";".join(["|".join(str(j) for j in label)]
                                  + [format(v, ".12g") for v in values]))
        return "".join(line + "\n" for line in lines)

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")  # max double in bits
    @pytest.mark.parametrize("kind", ["list", "array", "scalars"])
    @pytest.mark.parametrize("bits", [False, True])
    def test_bytes_equal_per_cell_format(self, bits, kind):
        labels, columns = loss_table(7, 400, 1 + 2 * bits + ["list", "array", "scalars"].index(kind))
        got = loss_csv_lines(labels, **as_numpy(columns, kind), bits=bits)
        assert by_line(got) == by_line(self.reference(labels, columns, bits))
        assert "np." not in got and "float64" not in got

    def test_index_block_labels(self):
        idx = enumerate_states(9, 3, 10**6) + 1
        _, columns = loss_table(8, len(idx), 3)
        want = self.reference(idx.tolist(), columns, False)
        assert by_line(loss_csv_lines(list(idx), **columns)) == by_line(want)  # rows of numpy ints


class TestJsonRecords:
    """The JSON record writer against `json.dumps`, numpy inputs included."""

    @pytest.mark.parametrize("kind", ["list", "array", "scalars"])
    def test_discrete_json_numpy_inputs(self, kind):
        labels, columns = loss_table(9, 300, 1 + ["list", "array", "scalars"].index(kind))
        cols = as_numpy(columns, kind)
        records = [{"state": label, "loss_eq": eq, "loss_opt": opt}
                   for label, eq, opt in zip(labels.tolist(), columns["loss_eq"], columns["loss_opt"])]
        want = json.dumps(records, sort_keys=True, indent=2) + "\n"
        assert by_line(discrete_json(labels, cols["loss_eq"], cols["loss_opt"])) == by_line(want)

    @pytest.mark.parametrize("kind", ["list", "array"])
    def test_nested_records(self, kind):
        labels, columns = loss_table(10, 300, 4 if kind == "list" else 6)
        records = [dict(state=label, **{key: columns[key][i] for key in LOSS_KEYS})
                   for i, label in enumerate(labels.tolist())]
        want = json.dumps({"reports": records}, sort_keys=True, indent=2)
        got = json_records(labels, as_numpy(columns, kind), 1)
        assert by_line('{\n  "reports": ' + got + "\n}") == by_line(want)

    def test_keys_must_sort_before_state(self):
        with pytest.raises(ValueError):
            json_records([[1]], {"zeta": [1.0]}, 0)

    def test_head_and_tail_over_many_blocks(self, monkeypatch):
        monkeypatch.setattr(output, "_ROW_BLOCK_SLOTS", 1 << 10)  # a few records per block
        labels, columns = loss_table(11, 300, 2)
        records = [dict(state=label, **{key: columns[key][i] for key in LOSS_KEYS})
                   for i, label in enumerate(labels.tolist())]
        want = json.dumps({"reports": records}, sort_keys=True, indent=2) + "\n"
        got = json_records(labels, columns, 1, '{\n  "reports": ', "\n}\n")
        assert by_line(got) == by_line(want)
        assert json_records(np.empty((0, 2), dtype=int), {"loss_eq": []}, 0, "<", ">") == "<[\n\n]>"

    @pytest.mark.parametrize("channel", [None, "census"])
    def test_capacity_json_bytes_equal_json_dumps(self, tmp_path, capsys, channel):
        argv = ["--command", "capacity", "--m", "4", "--seed", "11", "--format", "json"]
        if channel:
            doc = {"W": 8.0, "n": 10, "k": 4, "P": 30.0, "q": 3,
                   "gains": np.random.default_rng(4).lognormal(0.0, 0.5, (10, 3)).tolist()}
            path = tmp_path / "channel.json"
            path.write_text(json.dumps(doc))
            argv += ["--channel", str(path)]
        else:
            path = resources.files("subnyq").joinpath("data/example_channel.json")
        out = tmp_path / "cap.json"
        assert run(argv + ["--out", str(out)]) == 0
        capsys.readouterr()
        channel = load_channel(path)
        spec = EnsembleSpec("gaussian", 4, channel.n_subbands, 11)
        states = enumerate_states(channel.n_subbands, channel.k_active, 10**6)
        census = colex_plan(channel.n_subbands, channel.k_active)
        c_sampled, c_eq, c_opt, nu = batched_losses(
            channel, make_flat_sampler(draw_matrix(spec)), census
        )
        values = zip(c_sampled.tolist(), c_eq.tolist(), c_opt.tolist(),
                     (c_eq - c_sampled).tolist(), (c_opt - c_sampled).tolist(), nu.tolist())
        reports = [dict(zip(("state",) + LOSS_KEYS, (label, *row)))
                   for label, row in zip((states + 1).tolist(), values)]
        want = json.dumps({"channel": channel.to_dict(), "sampler": spec.to_dict(),
                           "reports": reports}, sort_keys=True, indent=2) + "\n"
        assert by_line(out.read_text()) == by_line(want)


def pinned_channel(path, keys=("1,2,3,4", "3,8,11,12")):
    """A q = 4 channel on n = 12 subbands (two-digit labels) with two states
    of their own gains, the states of keys; rational gains, so no random
    stream is involved."""
    n, q = 12, 4
    doc = {"W": 12.0, "n": n, "k": 4, "P": 30.0, "q": q,
           "gains": [[0.6 + ((7 * i + 5 * j) % 13) / 10 for j in range(q)] for i in range(n)],
           "state_gains": {
               keys[0]: [[0.7 + ((3 * i + j) % 9) / 8 for j in range(q)] for i in range(n)],
               keys[1]: [[0.5 + ((5 * i + 2 * j) % 7) / 4 for j in range(q)] for i in range(n)],
           }}
    path.write_text(json.dumps(doc))
    return str(path)


# The first and last rows of enumerate_states(12, 4, 200), so that a run
# with --state-cap 200 weighs both of these states by their own gains.
SAMPLED_KEYS = ("1,2,4,6", "9,10,11,12")


class TestOutputPins:
    """sha256 of whole output files at fixed seeds.  The bytes depend on the
    machine's floating-point loops (README), so these pin one machine; any
    change of the writers or of the batched path must leave them alone."""

    PINS = {
        "capacity-bundled-csv": (
            ["--command", "capacity", "--m", "4", "--seed", "11"],
            "f9ffedfa7459f945659b077e0bc5c65ce318d8756871d20f73ea7a2259f6a012",
        ),
        "capacity-generated-csv": (
            ["--command", "capacity", "--m", "5", "--seed", "3", "--channel", None],
            "8adabf0986a7780168a414a2f1433aa7079f4dab2cbb3dd033eecf79151c2003",
        ),
        "capacity-generated-json": (
            ["--command", "capacity", "--m", "5", "--seed", "3", "--channel", None,
             "--format", "json"],
            "c5649ccc2aa4c13a62a0fa167f861718763998a941611d87289a9f31d755aa5f",
        ),
        "discrete-sampled-json": (
            ["--command", "discrete", "--n", "14", "--k", "3", "--m", "4", "--power", "5",
             "--seed", "3", "--state-cap", "200", "--format", "json"],
            "66c504fd74b2bf49985aca07023a6d4232d7a9bd939509ca4d65d288fbf1a22f",
        ),
        "discrete-census-json": (
            ["--command", "discrete", "--n", "12", "--k", "4", "--m", "5", "--power", "7",
             "--seed", "5", "--format", "json"],
            "9186000a43e1d998ac5330773e2fd312124fdec2953d70db33fd48e56907bb2f",
        ),
        "sweep-skipped-cells-csv": (  # every beta > alpha cell is left out
            ["--command", "sweep", "--betas", "0.1,0.3,0.5,0.7,0.9", "--alphas", "0.25,0.5,0.75,1"],
            "8b3308d24b8501254ff83f9ec9c494307868c1764948dacc12e69d6bf5529baf",
        ),
        "discrete-bits-csv": (
            ["--command", "discrete", "--n", "12", "--k", "4", "--m", "5", "--power", "7",
             "--seed", "5", "--bits"],
            "b2ca106f9090eff15b0dfd7b8314c79f51de38d4ce8b64f5400b16fb154836b5",
        ),
        "concentration-json": (
            ["--command", "concentration", "--k", "20", "--trials", "30", "--seed", "2",
             "--format", "json"],
            "6546011711fd3573b0872bc206e8a21f24a413c32fd0716d28e577dc946cece4",
        ),
        "achievability-landau-json": (
            ["--command", "achievability", "--n", "14", "--k", "4", "--m", "4", "--trials", "6",
             "--seed", "3", "--format", "json"],
            "ae6ec78d208b415fdecac1abe5b0bb3ed6f448de0850a6c4f628e4798f2729e7",
        ),
        "achievability-superlandau-csv": (
            ["--command", "achievability", "--n", "14", "--k", "3", "--m", "6", "--trials", "5",
             "--seed", "4", "--format", "csv"],
            "fd8eb595cbc9abf944f21239eb8b2361714b26f1527e290c1d0d557c3f53d365",
        ),
        "verify-json": (
            ["--command", "verify", "--seed", "7"],
            "4fb4245616856e8894300fbaee0ff9b5604603aac4911ecfe205a2bc43a67ec5",
        ),
        "capacity-bundled-columns-csv": (  # k = 3 > m: Grams from the columns
            ["--command", "capacity", "--m", "2", "--seed", "11"],
            "94ad3cb481f93fa271406a9465dc028bddb2ecfe427bde687f4970245d7aa8bd",
        ),
        "discrete-census-columns-json": (  # k = 5 > m on a census
            ["--command", "discrete", "--n", "12", "--k", "5", "--m", "3", "--power", "7",
             "--seed", "5", "--format", "json"],
            "ab18af6c59111ca7007eea6ad92d8ee270901d605dcaeb0c79d4876c19d2f5b2",
        ),
        "capacity-sampled-csv": (  # q = 4 on a sample, two states with their own gains
            ["--command", "capacity", "--m", "5", "--seed", "3", "--state-cap", "200",
             "--channel", SAMPLED_KEYS],
            "46514d2e147f565ef2ca374c3a652888c6d6e0d6981135d2adce86a95edd9370",
        ),
    }

    @pytest.mark.parametrize("workers", ["1", "2"])
    @pytest.mark.parametrize("name", sorted(PINS))
    def test_output_sha256(self, tmp_path, capsys, name, workers):
        argv, digest = self.PINS[name]
        channels = {None: pinned_channel(tmp_path / "channel.json"),
                    SAMPLED_KEYS: pinned_channel(tmp_path / "sampled.json", SAMPLED_KEYS)}
        out = tmp_path / "out"
        argv = [channels.get(a, a) for a in argv]
        assert run(argv + ["--workers", workers, "--out", str(out)]) == 0
        capsys.readouterr()
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    @pytest.mark.parametrize("workers", ["1", "2"])
    @pytest.mark.parametrize("name", sorted(PINS))
    def test_output_sha256_on_a_dirty_heap(self, tmp_path, capsys, name, workers):
        # The heap keeps what numpy frees, so np.empty hands back old bytes:
        # no writer may count on fresh, zeroed pages.
        cli._keep_freed_memory()
        junk = [np.full(1024 << i, 0xFF, dtype=np.uint8) for i in range(14)]  # 1 KiB .. 8 MiB
        del junk
        self.test_output_sha256(tmp_path, capsys, name, workers)


# The walk of the fault probe: the plan of the first 36,864 colex ranks of
# C(22, 6), whose level arrays exceed glibc's default mmap threshold of
# 128 KiB.  The last walk's values stay alive through the next walk, as in
# `census_stats`.
FAULT_PROBE = """
import resource, sys
import numpy as np
from subnyq import cli
from subnyq.numerics import colex_plan, subset_logdet
if sys.argv[1] == "keep":
    cli._keep_freed_memory()
plan = colex_plan(22, 6, 0, 36864)
b = np.cos(np.arange(6 * 22).reshape(6, 22))
faults = []
for _ in range(20):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    vals = subset_logdet(b, plan) / 22
    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
print(sum(faults[10:]) / 10)
"""
FAULTS_PER_WALK_BOUND = 10  # with the freed memory kept; about 0 on glibc 2.36


def _glibc_mallopt() -> bool:
    try:
        ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return False
    return sys.platform.startswith("linux") and platform.libc_ver()[0] == "glibc"


@pytest.mark.skipif(not _glibc_mallopt(), reason="glibc's mallopt only")
def test_kept_memory_walks_fault_no_pages():
    """A steady walk of a plan takes its temporaries from pages the heap
    kept.  By default glibc hands them back between walks (about 168 faults
    a walk), and either threshold set alone still faults on every walk."""

    def faults_per_walk(mode: str) -> float:
        result = subprocess.run(
            [sys.executable, "-c", FAULT_PROBE, mode],
            env={**os.environ, "PYTHONPATH": str(SRC)},
            capture_output=True, text=True, timeout=120, check=True,
        )
        return float(result.stdout)

    assert faults_per_walk("keep") < FAULTS_PER_WALK_BOUND
    assert faults_per_walk("default") >= 10 * FAULTS_PER_WALK_BOUND


LABEL_BLOCKS = {  # (n, k, state cap): census and sampled blocks, one to three digits
    "k=1": (9, 1, 10**6),
    "k=1,n=120": (120, 1, 10**6),
    "census": (16, 6, 10**6),
    "sampled,n=12": (12, 4, 100),
    "sampled,n=130": (130, 3, 500),
}


class TestStateLabels:
    """Labels joined once per state from the index block, in both writers:
    "|" in CSV, a comma and the indent of each level in JSON."""

    @pytest.mark.parametrize("name", sorted(LABEL_BLOCKS))
    def test_labels_equal_a_join_per_row(self, name):
        n, k, cap = LABEL_BLOCKS[name]
        states = enumerate_states(n, k, cap)
        assert (len(states) != math.comb(n, k)) == name.startswith("sampled")
        block = states + 1
        assert g12_rows([], block) == "".join("|".join(map(str, row)) + "\n" for row in block.tolist())
        _, columns = loss_table(11, len(block), 1)
        want = TestLossCsvTemplate.reference(block, columns, False)
        assert by_line(loss_csv_lines(block, **columns)) == by_line(want)

    @pytest.mark.parametrize("level", [0, 1])
    @pytest.mark.parametrize("name", sorted(LABEL_BLOCKS))
    def test_json_records_at_each_level(self, name, level):
        block = enumerate_states(*LABEL_BLOCKS[name]) + 1
        _, columns = loss_table(12, len(block), 1)
        records = [dict(state=label, **{key: columns[key][i] for key in LOSS_KEYS})
                   for i, label in enumerate(block.tolist())]
        got = json_records(block, columns, level)
        if level == 0:
            assert by_line(got) == by_line(json.dumps(records, sort_keys=True, indent=2))
        else:
            want = json.dumps({"reports": records}, sort_keys=True, indent=2)
            assert by_line('{\n  "reports": ' + got + "\n}") == by_line(want)

    def test_block_checks(self):
        assert g12_rows([], np.empty((0, 3), dtype=int)) == ""
        assert g12_rows([], np.array([[0, 10, 100]], dtype=np.uint8)) == "0|10|100\n"
        for bad in ([[1, -2]], [[1.0, 2.0]], [1, 2]):
            with pytest.raises(ValueError):
                g12_rows([], bad)
            with pytest.raises(ValueError):
                json_records(bad, {"loss_eq": [1.0] * len(bad)}, 0)


class TestTrialCsv:
    def test_bytes_equal_per_cell_format(self):
        gen = np.random.default_rng(2)
        stat = tuple(SPECIAL_FLOATS + gen.standard_normal(12).tolist())
        counts = tuple(range(len(stat)))
        result = experiments.ExperimentResult(
            name="t", trials=len(stat), reference=0.0, bound=None, bound_violations=0,
            violation_budget=0, summary={}, per_trial={"stat": stat, "count": counts},
        )
        want = ["trial;count;stat"] + [
            f"{t};{format(counts[t], '.12g')};{format(stat[t], '.12g')}" for t in range(len(stat))
        ]
        assert by_line(cli._result_payload(result, "csv")) == by_line("\n".join(want) + "\n")


def g12_reference(values) -> str:
    """One line per value, Python's own '%.12g'."""
    return "".join("%.12g\n" % v for v in np.asarray(values, dtype=float).tolist())


def neighbours(values):
    """Each value and the doubles one ulp below and above it."""
    values = np.asarray(values, dtype=float)
    return np.concatenate([values, np.nextafter(values, -np.inf), np.nextafter(values, np.inf)])


def exact_ties(gen, count):
    """Doubles whose decimal expansion has exactly 13 significant digits,
    the last a 5, so that '%.12g' rounds a tie (half to even): (10 n + 5)
    10**p, and t / 2**q = t 5**q / 10**q for odd t with t 5**q of 13 digits."""
    ties = [(10 * n + 5) * 10**p for n in gen.integers(10**11, 9 * 10**11, count).tolist()
            for p in range(4)]  # below 2**53
    for q in range(1, 19):
        low, high = -(-(10**12) // 5**q), 10**13 // 5**q
        odd = (gen.integers(low, high, count) | 1).tolist()
        ties += [t / 2**q for t in odd if t * 5**q < 10**13]
    return np.array(ties, dtype=float)


class TestG12Rows:
    """The vectorized '%.12g' writer against Python's correctly rounded
    conversion, cell by cell."""

    @settings(max_examples=300, deadline=None)
    @given(st.lists(
        st.one_of(st.floats(width=64), st.integers(0, 2**64 - 1).map(
            lambda bits: float(np.array(bits, dtype=np.uint64).view(np.float64)))),
        min_size=1, max_size=40,
    ))
    def test_every_double(self, values):
        assert g12_rows([values]) == g12_reference(values)

    @pytest.mark.parametrize("case", [
        "specials", "pitfall", "nines", "powers", "ties", "near-ties", "scaled-near-ties", "random",
    ])
    def test_hard_cases(self, case):
        gen = np.random.default_rng(8)
        if case == "specials":
            big, tiny = 1.7976931348623157e308, 5e-324
            values = [0.0, -0.0, math.inf, -math.inf, math.nan, big, -big, tiny, -tiny,
                      2.2250738585072014e-308, np.nextafter(2.2250738585072014e-308, 0)]
        elif case == "pitfall":  # one exponent estimate, then a final range check
            values = neighbours([99999999999.95, 999999999999.5, 9999999999.995, 0.99999999999995])
        elif case == "nines":
            values = neighbours([float(f"9.9999999999995e{j}") for j in range(-320, 309)])
        elif case == "powers":
            values = neighbours([float(f"1e{p}") for p in range(-300, 301)])
        elif case == "ties":
            values = neighbours(exact_ties(gen, 200))
        elif case == "near-ties":
            values = neighbours((gen.integers(1, 10**12, 3000) + 0.5) * 1e-9)
        elif case == "scaled-near-ties":  # where 10**-j is no double
            k = gen.integers(10**11, 10**12, 20000) + 0.5
            values = neighbours(k * 10.0 ** gen.integers(1, 23, 20000))
        else:
            values = gen.standard_normal(20000) * 10.0 ** gen.integers(-30, 40, 20000)
        values = np.concatenate([values, np.negative(values)])
        assert by_line(g12_rows([values])) == by_line(g12_reference(values))

    @pytest.mark.parametrize("extra", [0, -1, 1])
    def test_row_blocks(self, monkeypatch, extra):
        """S = 1 and S one below, at and above the rows of one block: the
        bytes do not depend on where a block ends, and a block holds the
        same rows whatever S is."""
        sizes = []
        cells = output._g12_cells

        def counted(x):
            sizes.append(len(x))
            return cells(x)

        monkeypatch.setattr(output, "_g12_cells", counted)
        labels, columns = loss_table(13, 3000, 3)
        g12_rows([columns[key] for key in LOSS_KEYS], labels)
        per_block = sizes[0] // len(LOSS_KEYS)
        assert 1 < per_block < 3000
        for rows in (1, per_block + extra):
            sizes.clear()
            part = {key: columns[key][:rows] for key in LOSS_KEYS}
            want = TestLossCsvTemplate.reference(labels[:rows], part, False)
            assert by_line(loss_csv_lines(labels[:rows], **part)) == by_line(want)
            assert sum(sizes) == 6 * rows and max(sizes) <= 6 * per_block
            assert len(sizes) == -(-rows // per_block)

    @pytest.mark.parametrize("width", [1, 2, 3])
    def test_labels_of_one_to_three_digits(self, width):
        gen = np.random.default_rng(width)
        block = np.sort(gen.integers(0, 10**width, (500, width)), axis=1)
        block[0] = 0
        block[1] = 10**width - 1
        values = gen.standard_normal(500)
        want = "".join(f"{'|'.join(map(str, row))};{v:.12g}\n"
                       for row, v in zip(block.tolist(), values))
        assert by_line(g12_rows([values], block)) == by_line(want)

    def test_label_only_rows_and_empty_input(self):
        assert g12_rows([], np.arange(3)[:, None]) == "0\n1\n2\n"
        assert g12_rows([[]]) == "" and g12_rows([], np.empty((0, 2), dtype=int)) == ""
        with pytest.raises(ValueError):
            g12_rows([[1.0, 2.0], [3.0]])


class TestLossExitCodes:
    """Exit 2 when a loss is negative or the power-control gain beats its bound."""

    @staticmethod
    def patched(monkeypatch, name, negative_loss, gap):
        """Make the last state's loss_eq -1e-6 and/or add gap to its c_opt."""
        original = getattr(cli.cap, name)

        def losses(*args, **kwargs):
            c_sampled, c_eq, c_opt, nu = (col.copy() for col in original(*args, **kwargs))
            if negative_loss:
                c_sampled[-1] = c_eq[-1] + 1e-6
            c_opt[-1] += gap
            return c_sampled, c_eq, c_opt, nu

        monkeypatch.setattr(cli.cap, name, losses)

    @pytest.mark.parametrize("negative_loss, gap, code", [
        (False, 0.0, 0), (True, 0.0, 2), (False, 1e6, 2),
    ])
    def test_capacity(self, tmp_path, capsys, monkeypatch, negative_loss, gap, code):
        self.patched(monkeypatch, "batched_losses", negative_loss, gap)
        argv = ["--command", "capacity", "--m", "4", "--seed", "11", "--out", str(tmp_path / "c")]
        assert run(argv) == code
        capsys.readouterr()

    @pytest.mark.parametrize("negative_loss, code", [(False, 0), (True, 2)])
    def test_discrete(self, tmp_path, capsys, monkeypatch, negative_loss, code):
        self.patched(monkeypatch, "discrete_losses", negative_loss, 0.0)
        argv = ["--command", "discrete", "--n", "9", "--k", "3", "--m", "4",
                "--seed", "3", "--out", str(tmp_path / "d")]
        assert run(argv) == code
        capsys.readouterr()


class TestConfigPrecedence:
    def test_config_file_then_flags(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"betas": "0.5", "alphas": "0.5"}))
        out = tmp_path / "sweep.csv"
        # flag overrides the config's alphas
        code = run(["--command", "sweep", "--config", str(cfg),
                    "--alphas", "1.0", "--out", str(out)])
        capsys.readouterr()
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[1].split(";")[1] == "1"

    def test_env_seed_fallback(self, tmp_path, capsys, monkeypatch):
        out_env = tmp_path / "env.json"
        out_flag = tmp_path / "flag.json"
        monkeypatch.setenv("SUBNYQ_SEED", "777")
        run(["--command", "achievability", "--n", "12", "--k", "3", "--m", "3",
             "--trials", "3", "--out", str(out_env)])
        monkeypatch.delenv("SUBNYQ_SEED")
        run(["--command", "achievability", "--n", "12", "--k", "3", "--m", "3",
             "--trials", "3", "--seed", "777", "--out", str(out_flag)])
        capsys.readouterr()
        assert out_env.read_bytes() == out_flag.read_bytes()

    def test_flag_beats_env(self, tmp_path, capsys, monkeypatch):
        out_a = tmp_path / "a.json"
        out_b = tmp_path / "b.json"
        monkeypatch.setenv("SUBNYQ_SEED", "1")
        run(["--command", "achievability", "--n", "12", "--k", "3", "--m", "3",
             "--trials", "3", "--seed", "2", "--out", str(out_a)])
        monkeypatch.delenv("SUBNYQ_SEED")
        run(["--command", "achievability", "--n", "12", "--k", "3", "--m", "3",
             "--trials", "3", "--seed", "2", "--out", str(out_b)])
        capsys.readouterr()
        assert out_a.read_bytes() == out_b.read_bytes()
