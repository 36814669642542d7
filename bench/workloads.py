"""The benchmark's three workloads: seeded inputs, CLI arguments, output checks.

Each workload class is built once per benchmark run from the workload seed.
The constructor writes the generated inputs into a scratch directory and
precomputes, through the single-state library API, the values that the
output of every CLI invocation must reproduce.  ``check()`` then reads the
output file of one invocation and raises ``OutputError`` on the first
problem it finds.

Sizes are constants on purpose: figures stay comparable from one change of
the library to the next only while the work per invocation is fixed.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from itertools import combinations
from pathlib import Path

# Seed whose outputs are pinned to reference.json.
DEFAULT_SEED = 0
# Agreement between a CLI output and an independent recomputation.  A
# tolerance, not a byte hash: the gaussian draws may change in their last
# bits (for example when the inverse normal CDF is reimplemented).
REL_TOL = 1e-9
ABS_TOL = 1e-12
# Margin on the paper's inequalities (loss_eq >= 0, c_opt >= c_eq, ...).
INVARIANT_TOL = 1e-9
# States per invocation recomputed through capacity_loss / discrete_loss.
SPOT_CHECKS = 3

REFERENCE_PATH = Path(__file__).with_name("reference.json")


class OutputError(Exception):
    """A CLI output that fails the benchmark's correctness check."""


def derive_seed(seed: int, label: str) -> int:
    """A 32-bit seed for one input of one workload, fixed by (seed, label)."""
    digest = hashlib.sha256(f"{seed}:{label}".encode()).digest()
    return int.from_bytes(digest[:4], "little")


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=ABS_TOL)


def _expect(cond: bool, message: str) -> None:
    if not cond:
        raise OutputError(message)


def _finite(value, what: str) -> float:
    try:
        x = float(value)
    except (TypeError, ValueError):
        raise OutputError(f"{what} is not a number: {value!r}") from None
    _expect(math.isfinite(x), f"{what} is not finite: {value!r}")
    return x


def _read_json(path: Path):
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise OutputError(f"unreadable JSON output: {exc}") from None


def _check_reference(name: str, values: dict[str, float]) -> None:
    """Compare the pinned values of a default-seed output with reference.json."""
    reference = json.loads(REFERENCE_PATH.read_text(encoding="utf-8"))[name]
    _expect(
        set(values) == set(reference),
        f"reference keys differ: {sorted(set(values) ^ set(reference))[:5]}",
    )
    for key, want in reference.items():
        _expect(_close(values[key], want), f"{key} = {values[key]!r}, reference {want!r}")


class Workload:
    """One workload: its CLI arguments, output file and checker."""

    name = ""
    # State evaluations per invocation (for state_evals_per_s).
    states = 0
    # Useful floating-point operations per invocation spent in experiment
    # trials, or 0 when the workload runs no trials.
    trial_flops = 0.0

    def __init__(self, seed: int, scratch: Path) -> None:
        self.seed = seed
        self.out = scratch / f"{self.name}.out"
        self.cli_seed = derive_seed(seed, f"{self.name}/cli")
        self.argv: list[str] = []

    def check(self) -> None:
        """Raise OutputError unless the current output file is correct."""
        values = self.parse_and_check()
        if self.seed == DEFAULT_SEED:
            _check_reference(self.name, values)

    def parse_and_check(self) -> dict[str, float]:
        """Check the output and return the values pinned for the default seed."""
        raise NotImplementedError


class CapacityCensus(Workload):
    """Per-state loss report over all C(16, 6) states of a generated channel."""

    name = "capacity-census"
    N, K, Q, M = 16, 6, 4, 8
    BANDWIDTH, POWER, GAIN_SIGMA = 16.0, 40.0, 0.5
    HEADER = "state;c_sampled;c_eq;c_opt;loss_eq;loss_opt;nu"
    states = math.comb(N, K)
    PINNED_ROWS = (0, 1001, 4004, states - 1)

    def __init__(self, seed: int, scratch: Path) -> None:
        super().__init__(seed, scratch)
        rng = random.Random(derive_seed(seed, f"{self.name}/gains"))
        self.channel_doc = {
            "W": self.BANDWIDTH,
            "n": self.N,
            "k": self.K,
            "P": self.POWER,
            "q": self.Q,
            "gains": [
                [rng.lognormvariate(0.0, self.GAIN_SIGMA) for _ in range(self.Q)]
                for _ in range(self.N)
            ],
        }
        channel_path = scratch / f"{self.name}-channel.json"
        channel_path.write_text(json.dumps(self.channel_doc), encoding="utf-8")
        self.argv = [
            "--command", "capacity", "--m", str(self.M),
            "--channel", str(channel_path),
            "--seed", str(self.cli_seed),
            "--out", str(self.out),
        ]
        self.all_states = sorted(
            combinations(range(1, self.N + 1), self.K), key=lambda s: s[::-1]
        )
        spot_rng = random.Random(derive_seed(seed, f"{self.name}/spot"))
        self.spots = self._recompute(spot_rng.sample(range(self.states), SPOT_CHECKS))

    def _recompute(self, rows: list[int]) -> dict[int, tuple[float, ...]]:
        from subnyq.capacity import capacity_loss
        from subnyq.channel import ChannelState, CompoundChannel
        from subnyq.samplers import EnsembleSpec, draw_matrix, make_flat_sampler

        channel = CompoundChannel.from_dict(self.channel_doc)
        sampler = make_flat_sampler(
            draw_matrix(EnsembleSpec("gaussian", self.M, self.N, self.cli_seed))
        )
        out = {}
        for row in rows:
            rep = capacity_loss(channel, sampler, ChannelState(self.all_states[row]))
            out[row] = (
                rep.c_sampled, rep.c_nyquist_eq, rep.c_nyquist_opt,
                rep.loss_eq, rep.loss_opt, rep.water_level,
            )
        return out

    def parse_and_check(self) -> dict[str, float]:
        try:
            lines = self.out.read_text(encoding="utf-8").splitlines()
        except (OSError, UnicodeDecodeError) as exc:
            raise OutputError(f"unreadable CSV output: {exc}") from None
        _expect(bool(lines) and lines[0] == self.HEADER, "missing or wrong CSV header")
        _expect(
            len(lines) - 1 == self.states,
            f"{len(lines) - 1} rows, expected {self.states}",
        )
        table = []
        for i, line in enumerate(lines[1:]):
            cells = line.split(";")
            _expect(len(cells) == 7, f"row {i} has {len(cells)} cells")
            label = "|".join(str(j) for j in self.all_states[i])
            _expect(cells[0] == label, f"row {i} is state {cells[0]!r}, expected {label!r}")
            c_s, c_eq, c_opt, loss_eq, loss_opt, nu = (
                _finite(c, f"row {i}") for c in cells[1:]
            )
            _expect(loss_eq >= -INVARIANT_TOL, f"row {i}: loss_eq {loss_eq} < 0")
            _expect(c_opt >= c_eq - INVARIANT_TOL, f"row {i}: c_opt {c_opt} < c_eq {c_eq}")
            _expect(
                abs(loss_eq - (c_eq - c_s)) <= INVARIANT_TOL * max(1.0, abs(c_eq)),
                f"row {i}: loss_eq != c_eq - c_sampled",
            )
            _expect(
                abs(loss_opt - (c_opt - c_s)) <= INVARIANT_TOL * max(1.0, abs(c_opt)),
                f"row {i}: loss_opt != c_opt - c_sampled",
            )
            table.append((c_s, c_eq, c_opt, loss_eq, loss_opt, nu))
        for row, want in self.spots.items():
            _expect(
                all(_close(a, b) for a, b in zip(table[row], want)),
                f"row {row} differs from capacity_loss: {table[row]} vs {want}",
            )
        cols = ("c_sampled", "c_eq", "c_opt", "loss_eq", "loss_opt", "nu")
        values = {f"sum.{c}": math.fsum(r[j] for r in table) for j, c in enumerate(cols)}
        values["max.loss_eq"] = max(r[3] for r in table)
        for row in self.PINNED_ROWS:
            for j, c in enumerate(cols):
                values[f"row{row}.{c}"] = table[row][j]
        return values


class DiscreteSampled(Workload):
    """Discrete-channel losses on a 5,000-state sample of C(40, 8) states."""

    name = "discrete-sampled"
    N, K, M, POWER, STATE_CAP = 40, 8, 16, 5.0, 5000
    states = STATE_CAP
    PINNED_ROWS = (0, 2500, STATE_CAP - 1)

    def __init__(self, seed: int, scratch: Path) -> None:
        super().__init__(seed, scratch)
        self.argv = [
            "--command", "discrete",
            "--n", str(self.N), "--k", str(self.K), "--m", str(self.M),
            "--power", str(self.POWER), "--state-cap", str(self.STATE_CAP),
            "--format", "json",
            "--seed", str(self.cli_seed),
            "--out", str(self.out),
        ]
        spot_rng = random.Random(derive_seed(seed, f"{self.name}/spot"))
        self.spot_rows = spot_rng.sample(range(self.states), SPOT_CHECKS)

    def _recompute(self, states: dict[int, tuple[int, ...]]) -> dict[int, tuple[float, float]]:
        import numpy as np

        from subnyq.capacity import discrete_loss
        from subnyq.channel import ChannelState
        from subnyq.samplers import EnsembleSpec, draw_matrix

        q = draw_matrix(EnsembleSpec("gaussian", self.M, self.N, self.cli_seed))
        gains = np.ones(self.N)
        out = {}
        for row, state in states.items():
            rep = discrete_loss(gains, q, ChannelState(state), self.POWER)
            out[row] = (rep.loss_eq, rep.loss_opt)
        return out

    def parse_and_check(self) -> dict[str, float]:
        doc = _read_json(self.out)
        _expect(isinstance(doc, list), "output is not a JSON list")
        _expect(len(doc) == self.states, f"{len(doc)} states, expected {self.states}")
        seen = set()
        table = []
        for i, rec in enumerate(doc):
            _expect(
                isinstance(rec, dict) and set(rec) == {"state", "loss_eq", "loss_opt"},
                f"record {i} has the wrong fields",
            )
            state = rec["state"]
            _expect(
                isinstance(state, list)
                and len(state) == self.K
                and all(isinstance(j, int) and 1 <= j <= self.N for j in state)
                and all(a < b for a, b in zip(state, state[1:])),
                f"record {i}: {state!r} is not a sorted {self.K}-subset of 1..{self.N}",
            )
            seen.add(tuple(state))
            loss_eq = _finite(rec["loss_eq"], f"record {i} loss_eq")
            loss_opt = _finite(rec["loss_opt"], f"record {i} loss_opt")
            _expect(loss_eq >= -INVARIANT_TOL, f"record {i}: loss_eq {loss_eq} < 0")
            # flat gains: water-filling allocates equal power
            _expect(
                abs(loss_opt - loss_eq) <= INVARIANT_TOL,
                f"record {i}: loss_opt {loss_opt} != loss_eq {loss_eq} on flat gains",
            )
            table.append((loss_eq, loss_opt))
        _expect(len(seen) == self.states, f"only {len(seen)} distinct states")
        spots = self._recompute({row: tuple(doc[row]["state"]) for row in self.spot_rows})
        for row, want in spots.items():
            _expect(
                all(_close(a, b) for a, b in zip(table[row], want)),
                f"record {row} differs from discrete_loss: {table[row]} vs {want}",
            )
        values = {
            "sum.loss_eq": math.fsum(r[0] for r in table),
            "sum.loss_opt": math.fsum(r[1] for r in table),
            "max.loss_eq": max(r[0] for r in table),
            "min.loss_eq": min(r[0] for r in table),
        }
        for row in self.PINNED_ROWS:
            values[f"row{row}.loss_eq"] = table[row][0]
            values[f"row{row}.loss_opt"] = table[row][1]
        return values


class LandauMC(Workload):
    """Landau-rate Monte Carlo suite, 40 trials over all C(22, 6) states."""

    name = "landau-mc"
    N, K, M, TRIALS, WORKERS = 22, 6, 6, 40, 2
    EPS = 0.05  # the CLI default, which the command line leaves in force
    states = TRIALS * math.comb(N, K)
    # Per state: the k x k Gram of an m x k submatrix (2mk^2) and its
    # LU-based log-determinant (2k^3/3).
    trial_flops = states * (2 * M * K**2 + 2 * K**3 / 3)

    def __init__(self, seed: int, scratch: Path) -> None:
        super().__init__(seed, scratch)
        self.argv = [
            "--command", "achievability",
            "--n", str(self.N), "--k", str(self.K), "--m", str(self.M),
            "--trials", str(self.TRIALS), "--workers", str(self.WORKERS),
            "--format", "json",
            "--seed", str(self.cli_seed),
            "--out", str(self.out),
        ]
        from subnyq.converse import min_state_logdet_bound

        self.cap = min_state_logdet_bound(self.N, self.K, self.M, self.EPS)["exact"]

    def parse_and_check(self) -> dict[str, float]:
        doc = _read_json(self.out)
        _expect(isinstance(doc, dict), "output is not a JSON object")
        _expect(doc.get("name") == "landau_achievability", f"suite is {doc.get('name')!r}")
        _expect(doc.get("trials") == self.TRIALS, f"{doc.get('trials')} trials, expected {self.TRIALS}")
        per = doc.get("per_trial")
        _expect(
            isinstance(per, dict) and set(per) == {"min", "max", "mean"},
            "per_trial must hold min, max and mean",
        )
        series = {}
        for key in ("min", "max", "mean"):
            vals = per[key]
            _expect(
                isinstance(vals, list) and len(vals) == self.TRIALS,
                f"per_trial.{key} has the wrong length",
            )
            series[key] = [_finite(v, f"per_trial.{key}") for v in vals]
        _expect(doc.get("passed") is True, "the Landau verdict is not a pass")
        _expect(doc.get("bound_violations") == 0, "bound violations reported")
        _expect(_close(_finite(doc.get("bound"), "bound"), self.cap), "bound is not the deterministic cap")
        for t in range(self.TRIALS):
            lo, mid, hi = series["min"][t], series["mean"][t], series["max"][t]
            _expect(lo <= self.cap, f"trial {t}: min {lo} exceeds the cap {self.cap}")
            _expect(lo <= mid <= hi, f"trial {t}: min <= mean <= max fails")
        summary = doc.get("summary") or {}
        _expect(
            _close(_finite(summary.get("mean_min"), "summary.mean_min"),
                   math.fsum(series["min"]) / self.TRIALS),
            "summary.mean_min is not the mean of per_trial.min",
        )
        values = {"bound": doc["bound"], "reference": _finite(doc.get("reference"), "reference")}
        for key, vals in series.items():
            for t, v in enumerate(vals):
                values[f"{key}.{t}"] = v
        return values


WORKLOADS = {cls.name: cls for cls in (CapacityCensus, DiscreteSampled, LandauMC)}
