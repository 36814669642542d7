import json
import math
from importlib import resources

import numpy as np
import pytest

from subnyq import cli
from subnyq.capacity import LossReport, batched_losses, discrete_losses, loss_csv_rows
from subnyq.channel import enumerate_states, load_channel
from subnyq.cli import main
from subnyq.samplers import EnsembleSpec, draw_matrix, make_flat_sampler


def run(argv):
    return main(argv)


class TestVerify:
    def test_default_suite_passes(self, capsys):
        assert run(["--command", "verify", "--seed", "7"]) == 0
        out = capsys.readouterr().out
        assert "-> pass" in out

    def test_perturbation_detected(self, capsys):
        assert run(["--command", "verify", "--seed", "7", "--perturb", "1e-3"]) == 2
        out = capsys.readouterr().out
        assert "FAIL" in out

    def test_out_file(self, tmp_path, capsys):
        out = tmp_path / "verify.json"
        assert run(["--command", "verify", "--seed", "7", "--out", str(out)]) == 0
        capsys.readouterr()
        doc = json.loads(out.read_text())
        assert len(doc["checks"]) == 80  # 20 instances x 4 eps values
        assert doc["failures"] == []
        assert doc["worst_relative_error"] <= 1e-9


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

    def test_missing_sweep_grid(self, capsys):
        assert run(["--command", "sweep", "--alphas", "0.5"]) == 1
        capsys.readouterr()

    def test_bad_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"unknown_key": 1}')
        assert run(["--command", "verify", "--config", str(cfg)]) == 1
        capsys.readouterr()


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

    def test_csv_format(self, tmp_path, capsys):
        out = tmp_path / "ach.csv"
        assert run(self.ARGS + ["--trials", "5", "--out", str(out), "--format", "csv"]) == 0
        capsys.readouterr()
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "trial;max;mean;min"
        assert len(lines) == 6


class TestConcentration:
    def test_bracket_pass(self, tmp_path, capsys):
        out = tmp_path / "conc.json"
        code = run(["--command", "concentration", "--k", "100", "--trials", "200",
                    "--eps", "0.1", "--seed", "5", "--out", str(out)])
        capsys.readouterr()
        assert code == 0
        assert json.loads(out.read_text())["passed"] is True

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
        return [LossReport.from_capacities(s, *row) for s, row in zip(states, columns)]

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
        reports = self.reports(states, batched_losses(channel, sampler, states.indices))
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
        reports = self.reports(states, batched_losses(channel, sampler, states.indices))
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
        reports = self.reports(states, discrete_losses(np.ones(9), q, states.indices, 5.0))
        assert out.read_text() == "\n".join(loss_csv_rows(reports, bits=True)) + "\n"


class TestDiscreteJson:
    """The discrete JSON writer must give the bytes of `json.dumps`."""

    @staticmethod
    def encoded(labels, loss_eq, loss_opt):
        records = [
            {"state": state, "loss_eq": eq, "loss_opt": opt}
            for state, eq, opt in zip(labels, loss_eq, loss_opt)
        ]
        return json.dumps(records, sort_keys=True, indent=2) + "\n"

    def test_bytes_equal_json_dumps(self):
        gen = np.random.default_rng(5)
        special = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1e300, 1 / 3, -1e-17]
        values = special + (gen.standard_normal(300) * 10.0 ** gen.integers(-20, 20, 300)).tolist()
        loss_eq, loss_opt = values, values[::-1]
        sizes = gen.integers(1, 6, len(values))
        labels = [sorted(int(i) + 1 for i in gen.choice(40, k, replace=False)) for k in sizes]
        labels[0], labels[-1] = [7], [1]
        for args in ((labels, loss_eq, loss_opt), ([[3]], [-0.0], [math.nan])):
            assert cli._discrete_json(*args) == self.encoded(*args)

    def test_cli_output_equals_json_dumps(self, tmp_path, capsys):
        out = tmp_path / "disc.json"
        assert run(["--command", "discrete", "--n", "9", "--k", "3", "--m", "4", "--power", "5",
                    "--seed", "3", "--state-cap", "20", "--format", "json", "--out", str(out)]) == 0
        capsys.readouterr()
        states = enumerate_states(9, 3, 20)
        q = draw_matrix(EnsembleSpec("gaussian", 4, 9, 3))
        c_sampled, c_eq, c_opt, _ = discrete_losses(np.ones(9), q, states.indices, 5.0)
        labels = (states.indices + 1).tolist()
        want = self.encoded(labels, (c_eq - c_sampled).tolist(), (c_opt - c_sampled).tolist())
        assert out.read_text() == want


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
