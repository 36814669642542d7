import hashlib
import json
import math
from importlib import resources

import numpy as np
import pytest

from subnyq import cli, experiments
from subnyq.capacity import (
    LossReport, batched_losses, discrete_losses, loss_csv_lines, loss_csv_rows, state_labels
)
from subnyq.channel import ChannelState, enumerate_states, load_channel
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

    def test_tau_flag_removed(self, capsys):
        assert run(["--command", "achievability", "--tau", "0.1"]) == 1
        capsys.readouterr()

    def test_tau_config_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"tau": 0.02}))
        assert run(["--command", "achievability", "--config", str(cfg)]) == 1
        assert "unknown config keys" in capsys.readouterr().err

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


class TestWorkersByteIdentity:
    """Outputs of the commands that take --workers, for 1 to 3 workers.

    The CLI runs in a subprocess (`cli_process`), and achievability with
    64-state chunks, so that every worker count splits the states.
    """

    CHUNK = "from subnyq import experiments\nexperiments.STATE_CHUNK = 64\n"

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
                for s, row in zip((states.indices + 1).tolist(), columns)]

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
            assert cli._discrete_json(*args) == self.encoded(*args)

    def test_cli_output_equals_json_dumps(self, tmp_path, capsys):
        out = tmp_path / "disc.json"
        assert run(["--command", "discrete", "--n", "9", "--k", "3", "--m", "4", "--power", "5",
                    "--seed", "3", "--state-cap", "20", "--format", "json", "--out", str(out)]) == 0
        capsys.readouterr()
        states = enumerate_states(9, 3, 20)
        q = draw_matrix(EnsembleSpec("gaussian", 4, 9, 3))
        c_sampled, c_eq, c_opt, _ = discrete_losses(np.ones(9), q, states.indices, 5.0)
        block = states.indices + 1
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
        return lines

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")  # max double in bits
    @pytest.mark.parametrize("kind", ["list", "array", "scalars"])
    @pytest.mark.parametrize("bits", [False, True])
    def test_bytes_equal_per_cell_format(self, bits, kind):
        labels, columns = loss_table(7, 400, 1 + 2 * bits + ["list", "array", "scalars"].index(kind))
        got = loss_csv_lines(labels, **as_numpy(columns, kind), bits=bits)
        assert got == self.reference(labels, columns, bits)
        assert not any("np." in line or "float64" in line for line in got)

    def test_index_block_labels(self):
        idx = enumerate_states(9, 3, 10**6).indices + 1
        _, columns = loss_table(8, len(idx), 3)
        want = self.reference(idx.tolist(), columns, False)
        assert loss_csv_lines(list(idx), **columns) == want  # rows of numpy ints


class TestJsonRecords:
    """The per-record JSON template against `json.dumps`, numpy inputs included."""

    @pytest.mark.parametrize("kind", ["list", "array", "scalars"])
    def test_discrete_json_numpy_inputs(self, kind):
        labels, columns = loss_table(9, 300, 1 + ["list", "array", "scalars"].index(kind))
        cols = as_numpy(columns, kind)
        records = [{"state": label, "loss_eq": eq, "loss_opt": opt}
                   for label, eq, opt in zip(labels.tolist(), columns["loss_eq"], columns["loss_opt"])]
        want = json.dumps(records, sort_keys=True, indent=2) + "\n"
        assert by_line(cli._discrete_json(labels, cols["loss_eq"], cols["loss_opt"])) == by_line(want)

    @pytest.mark.parametrize("kind", ["list", "array"])
    def test_nested_records(self, kind):
        labels, columns = loss_table(10, 300, 4 if kind == "list" else 6)
        records = [dict(state=label, **{key: columns[key][i] for key in LOSS_KEYS})
                   for i, label in enumerate(labels.tolist())]
        want = json.dumps({"reports": records}, sort_keys=True, indent=2)
        got = cli._json_records(labels, as_numpy(columns, kind), 1)
        assert by_line('{\n  "reports": ' + got + "\n}") == by_line(want)

    def test_keys_must_sort_before_state(self):
        with pytest.raises(ValueError):
            cli._json_records([[1]], {"zeta": [1.0]}, 0)

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
        c_sampled, c_eq, c_opt, nu = batched_losses(
            channel, make_flat_sampler(draw_matrix(spec)), states.indices
        )
        values = zip(c_sampled.tolist(), c_eq.tolist(), c_opt.tolist(),
                     (c_eq - c_sampled).tolist(), (c_opt - c_sampled).tolist(), nu.tolist())
        reports = [dict(zip(("state",) + LOSS_KEYS, (label, *row)))
                   for label, row in zip((states.indices + 1).tolist(), values)]
        want = json.dumps({"channel": channel.to_dict(), "sampler": spec.to_dict(),
                           "reports": reports}, sort_keys=True, indent=2) + "\n"
        assert by_line(out.read_text()) == by_line(want)


def pinned_channel(path):
    """A q = 4 channel on n = 12 subbands (two-digit labels) with two states
    of their own gains; rational gains, so no random stream is involved."""
    n, q = 12, 4
    doc = {"W": 12.0, "n": n, "k": 4, "P": 30.0, "q": q,
           "gains": [[0.6 + ((7 * i + 5 * j) % 13) / 10 for j in range(q)] for i in range(n)],
           "state_gains": {
               "1,2,3,4": [[0.7 + ((3 * i + j) % 9) / 8 for j in range(q)] for i in range(n)],
               "3,8,11,12": [[0.5 + ((5 * i + 2 * j) % 7) / 4 for j in range(q)] for i in range(n)],
           }}
    path.write_text(json.dumps(doc))
    return str(path)


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
    }

    @pytest.mark.parametrize("workers", ["1", "2"])
    @pytest.mark.parametrize("name", sorted(PINS))
    def test_output_sha256(self, tmp_path, capsys, name, workers):
        argv, digest = self.PINS[name]
        channel = pinned_channel(tmp_path / "channel.json")
        out = tmp_path / "out"
        argv = [channel if a is None else a for a in argv]
        assert run(argv + ["--workers", workers, "--out", str(out)]) == 0
        capsys.readouterr()
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


LABEL_BLOCKS = {  # (n, k, state cap): census and sampled blocks, one to three digits
    "k=1": (9, 1, 10**6),
    "k=1,n=120": (120, 1, 10**6),
    "census": (16, 6, 10**6),
    "sampled,n=12": (12, 4, 100),
    "sampled,n=130": (130, 3, 500),
}


class TestStateLabels:
    """Labels joined once per state from the index block, in both writers."""

    @pytest.mark.parametrize("name", sorted(LABEL_BLOCKS))
    def test_labels_equal_a_join_per_row(self, name):
        states = enumerate_states(*LABEL_BLOCKS[name])
        assert states.sampled == name.startswith("sampled")
        block = states.indices + 1
        for sep in ("|", ",\n      ", ",\n        "):
            assert state_labels(block, sep) == [sep.join(map(str, row)) for row in block.tolist()]
        _, columns = loss_table(11, len(block), 1)
        assert loss_csv_lines(block, **columns) == TestLossCsvTemplate.reference(block, columns, False)

    @pytest.mark.parametrize("level", [0, 1])
    @pytest.mark.parametrize("name", sorted(LABEL_BLOCKS))
    def test_json_records_at_each_level(self, name, level):
        block = enumerate_states(*LABEL_BLOCKS[name]).indices + 1
        _, columns = loss_table(12, len(block), 1)
        records = [dict(state=label, **{key: columns[key][i] for key in LOSS_KEYS})
                   for i, label in enumerate(block.tolist())]
        got = cli._json_records(block, columns, level)
        if level == 0:
            assert by_line(got) == by_line(json.dumps(records, sort_keys=True, indent=2))
        else:
            want = json.dumps({"reports": records}, sort_keys=True, indent=2)
            assert by_line('{\n  "reports": ' + got + "\n}") == by_line(want)

    def test_block_checks(self):
        assert state_labels(np.empty((0, 3), dtype=int)) == []
        assert state_labels(np.array([[0, 10, 100]], dtype=np.uint8)) == ["0|10|100"]
        for bad in ([[1, -2]], [[1.0, 2.0]], [1, 2]):
            with pytest.raises(ValueError):
                state_labels(bad)


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
