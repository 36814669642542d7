"""Command-line entry point.

One executable, one --command switch:

    subnyq --command verify        exact-identity and invariant suite
    subnyq --command sweep         minimax-loss surface as CSV
    subnyq --command achievability Landau / super-Landau Monte Carlo
    subnyq --command concentration log-det concentration bracket
    subnyq --command capacity      per-state loss reports for a channel JSON
    subnyq --command discrete      sparse vector channel loss reports

Exit codes: 0 pass, 1 usage/config error, 2 verification failure,
3 numerical failure.  Outputs are byte-identical for identical
configuration (including seed) and independent of --workers; timing is
printed to stdout only, never written to files.

`main` owns its process, so it first lets glibc's heap keep the memory
that numpy frees (`_keep_freed_memory`); the workers that
`parallel.map_ordered` forks inherit the setting.  Importing the package
leaves the allocator alone.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import math
import os
import sys
from importlib import resources
from pathlib import Path

import numpy as np

from . import capacity as cap
from . import converse, experiments, output
from .channel import CompoundChannel, enumerate_states, load_channel
from .numerics import (
    CENSUS_CAP,
    NumericalError,
    SingularityError,
    binary_entropy,
    colex_plan,
    log_binomial,
    logdet_shifted,
    minimax_limit,
    whiten,
)
from .samplers import (
    ENSEMBLE_KINDS, EnsembleSpec, PhiloxStream, derive_trial_seed, draw_matrix, make_flat_sampler
)

__all__ = ["main", "entry"]

COMMANDS = ("verify", "capacity", "achievability", "concentration", "sweep", "discrete")

DEFAULTS: dict = {
    "seed": 12345,
    "n": 16,
    "k": 4,
    "m": 4,
    "eps": 0.05,
    "trials": 50,
    "state_cap": CENSUS_CAP,
    "ensemble": "gaussian",
    "workers": 1,
    "power": 10.0,
    "bits": False,
    "perturb": 0.0,
    "betas": None,
    "alphas": None,
    "channel": None,
    "out": None,
    "format": None,
}

_CONFIG_KEYS = set(DEFAULTS) | {"command"}
# parameters that must be integers (an integral float is taken) and finite numbers
_INT_KEYS = ("seed", "n", "k", "m", "trials", "state_cap", "workers")
_REAL_KEYS = ("eps", "power", "perturb")

VERIFY_INSTANCES = 20
VERIFY_EPS_GRID = (0.0, 0.01, 0.5, 1.0)
IDENTITY_RTOL = 1e-9


# glibc's mallopt parameters (malloc.h) and the values `_keep_freed_memory` sets
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_MMAP_THRESHOLD_BYTES = 32 << 20
_TRIM_THRESHOLD_BYTES = 64 << 20


def _keep_freed_memory() -> None:
    """Keep the blocks numpy frees in this process's heap, for reuse.

    glibc serves a block at or above its mmap threshold from a fresh
    mapping and returns the heap's free top to the OS beyond its trim
    threshold, so each walk of a plan would take its ~0.4 MB of
    temporaries on new pages, one page fault per 4 KiB.  Below 32 MiB a
    block now comes from the heap, and the heap keeps up to 64 MiB free.
    Both are set together: setting either alone turns off glibc's adaptive
    thresholds and faults more than the defaults do.  Where the C library
    has no `mallopt` (macOS, Windows) this does nothing.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):  # no mallopt, or no dlopen(NULL)
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD_BYTES)
    mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD_BYTES)


class UsageError(Exception):
    """Bad flags or config; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits 2; the contract wants 1
        raise UsageError(message)


def build_parser() -> _Parser:
    p = _Parser(prog="subnyq", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--command", choices=COMMANDS, required=True)
    p.add_argument("--config", type=str, help="JSON file with parameter defaults")
    p.add_argument("--seed", type=int)
    p.add_argument("--n", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--m", type=int)
    p.add_argument("--eps", type=float)
    p.add_argument("--trials", type=int)
    p.add_argument("--state-cap", dest="state_cap", type=int)
    p.add_argument("--ensemble", choices=list(ENSEMBLE_KINDS))
    p.add_argument("--out", type=str, help="output file path")
    p.add_argument("--format", choices=["csv", "json"])
    p.add_argument("--workers", type=int)
    p.add_argument("--power", type=float, help="transmit power for the discrete channel")
    p.add_argument("--channel", type=str, help="channel JSON path (capacity command)")
    p.add_argument("--betas", type=str, help="comma-separated sparsity grid (sweep)")
    p.add_argument("--alphas", type=str, help="comma-separated undersampling grid (sweep)")
    p.add_argument("--bits", action="store_true", default=None, help="append a bits column to loss CSV")
    p.add_argument("--perturb", type=float, help="verify-only fault injection: corrupt B by this amount")
    return p


def _merge_params(args: argparse.Namespace) -> dict:
    """Precedence: CLI flags > config file > SUBNYQ_SEED (seed only) > defaults."""
    params = dict(DEFAULTS)
    seed_set = False
    if args.config:
        path = Path(args.config)
        if not path.exists():
            raise UsageError(f"config file not found: {path}")
        try:
            doc = json.loads(path.read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise UsageError(f"config file is not valid JSON: {exc}") from exc
        if not isinstance(doc, dict):
            raise UsageError("config file must hold a JSON object")
        unknown = set(doc) - _CONFIG_KEYS
        if unknown:
            raise UsageError(f"unknown config keys: {sorted(unknown)}")
        doc.pop("command", None)
        seed_set = "seed" in doc
        params.update(doc)
    for key in DEFAULTS:
        val = getattr(args, key, None)
        if val is not None:
            params[key] = val
            if key == "seed":
                seed_set = True
    if not seed_set:
        env = os.environ.get("SUBNYQ_SEED")
        if env is not None:
            try:
                params["seed"] = int(env)
            except ValueError as exc:
                raise UsageError(f"SUBNYQ_SEED must be an integer, got {env!r}") from exc
    for key in _INT_KEYS:
        value = params[key]
        if isinstance(value, float) and math.isfinite(value) and value == int(value):
            params[key] = value = int(value)  # an integral float, such as 50.0
        if isinstance(value, bool) or not isinstance(value, int):
            raise UsageError(f"{key} must be an integer, got {value!r}")
    for key in _REAL_KEYS:
        value = params[key]
        # NaN, an infinity and an integer beyond a float fail the comparison
        if isinstance(value, bool) or not isinstance(value, (int, float)) or not abs(value) <= sys.float_info.max:
            raise UsageError(f"{key} must be a finite number, got {value!r}")
    # the streams take the seed as a 64-bit key, so a wider one would alias
    if not 0 <= params["seed"] <= 2**64 - 1:
        raise UsageError(f"seed must be an integer in 0 .. 2**64 - 1, got {params['seed']!r}")
    if params["workers"] < 1:
        raise UsageError(f"workers must be an integer >= 1, got {params['workers']!r}")
    return params


def _parse_grid(text_or_list, name: str) -> list[float]:
    if text_or_list is None:
        raise UsageError(f"sweep needs a {name} grid (--{name} or config)")
    if isinstance(text_or_list, str):
        try:
            values = [float(tok) for tok in text_or_list.split(",") if tok.strip()]
        except ValueError as exc:
            raise UsageError(f"could not parse --{name}: {exc}") from exc
    else:
        try:
            values = [float(v) for v in text_or_list]
        except (TypeError, ValueError) as exc:
            raise UsageError(f"{name} must be a list of numbers, got {text_or_list!r}") from exc
    if not values:
        raise UsageError(f"{name} grid is empty")
    return values


def _write_text(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        try:
            Path(path).write_text(text, encoding="utf-8")
        except OSError as exc:
            raise UsageError(f"cannot write output file {path}: {exc.strerror or exc}") from exc


def _result_payload(result: experiments.ExperimentResult, fmt: str | None) -> str:
    if fmt == "csv":
        keys = sorted(result.per_trial)
        trials = np.arange(result.trials)[:, None]  # the trial number leads each row
        head = "trial;" + ";".join(keys) + "\n"
        return output.g12_rows([result.per_trial[key] for key in keys], trials, head)
    return result.to_json() + "\n"


# ----------------------------------------------------------------- verify


def _verify_instances(seed: int):
    """Deterministic (n, k, m, B) quadruples for the identity suite."""
    gen = PhiloxStream(derive_trial_seed(seed, 0xB0))
    out = []
    for t in range(VERIFY_INSTANCES):
        n = int(gen.integers(4, 13))
        m = int(gen.integers(1, n + 1))
        k = int(gen.integers(1, m + 1))
        spec = EnsembleSpec("gaussian", m, n, derive_trial_seed(seed, 0x1000 + t))
        b = whiten(draw_matrix(spec))
        out.append((n, k, m, b))
    return out


def cmd_verify(params: dict) -> int:
    seed = int(params["seed"])
    perturb = float(params["perturb"] or 0.0)
    checks: list[converse.ConverseCheck] = []
    failures: list[str] = []

    for n, k, m, b in _verify_instances(seed):
        if perturb:
            b = b.copy()
            b[0, 0] += perturb
        sums = converse.subset_det_sums_unchecked(b, k, VERIFY_EPS_GRID)
        for eps, lhs in zip(VERIFY_EPS_GRID, sums):
            rhs = converse.subset_det_sum_closed(n, k, m, eps)
            checks.append(
                converse.ConverseCheck(n=n, k=k, m=m, eps=eps, lhs_sum=lhs, rhs_closed=rhs)
            )
        if not perturb:
            sandwich = converse.per_instance_sandwich(b, k, 0.04)
            if sandwich["min_state_value"] > sandwich["deterministic_upper"]:
                failures.append(f"per-instance sandwich violated at (n={n}, k={k}, m={m})")
            again = whiten(b)
            if float(np.max(np.abs(again - b))) > 1e-9:
                failures.append(f"whitening is not idempotent at (n={n}, m={m})")

    header = f"{'n':>3} {'k':>3} {'m':>3} {'eps':>6} {'enumerated':>18} {'closed':>18} {'rel_err':>10}"
    print(header)
    for chk in checks:
        print(
            f"{chk.n:>3} {chk.k:>3} {chk.m:>3} {chk.eps:>6.2f} "
            f"{chk.lhs_sum:>18.9e} {chk.rhs_closed:>18.9e} {chk.relative_error:>10.2e}"
        )
    # np.max, not max: a sum that is not a number fails the check
    worst = float(np.max([chk.relative_error for chk in checks]))
    if not worst <= IDENTITY_RTOL:
        failures.append(f"identity relative error {worst:.3e} is not within {IDENTITY_RTOL}")

    if not perturb:
        failures.extend(_verify_numerics_invariants(seed))
        failures.extend(_verify_waterfill_flat())

    for line in failures:
        print(f"FAIL: {line}")
    verdict = "pass" if not failures else "FAIL"
    print(f"verify: {len(checks)} identity checks, worst rel err {worst:.3e} -> {verdict}")

    if params["out"]:
        payload = {
            "checks": [chk.to_dict() for chk in checks],
            "failures": failures,
            "worst_relative_error": worst,
        }
        _write_text(params["out"], output.strict_json(payload) + "\n")
    return 0 if not failures else 2


def _verify_numerics_invariants(seed: int) -> list[str]:
    failures = []
    raw = draw_matrix(EnsembleSpec("gaussian", 5, 5, derive_trial_seed(seed, 0xA1)))
    psd = raw @ raw.T
    # shifted log-det monotone in eps
    grid = [0.0, 1e-4, 1e-2, 0.1, 1.0, 10.0]
    vals = [logdet_shifted(psd, e) for e in grid]
    if any(b < a - 1e-12 for a, b in zip(vals, vals[1:])):
        failures.append("logdet_shifted is not monotone in eps")
    # tall/wide determinant identity
    tall = draw_matrix(EnsembleSpec("gaussian", 3, 7, derive_trial_seed(seed, 0xA2))).T
    lhs = logdet_shifted(tall.T @ tall, 0.25)
    rhs = (3 - 7) * math.log(0.25) + logdet_shifted(tall @ tall.T, 0.25)
    if abs(lhs - rhs) > 1e-8:
        failures.append("tall/wide shifted determinant identity failed")
    # binomial entropy sandwich over the exact-arithmetic range
    for n in range(2, 61):
        for k in range(1, n):
            h = binary_entropy(k / n)
            val = log_binomial(n, k) / n
            if not (h - math.log(n + 1) / n <= val <= h):
                failures.append(f"entropy sandwich failed at (n={n}, k={k})")
                break
    return failures


def _verify_waterfill_flat() -> list[str]:
    failures = []
    channel = CompoundChannel(
        bandwidth=6.0, n_subbands=6, k_active=2, power=9.0,
        gain_grid=np.full((6, 3), 1.3),
    )
    # state 2|5; its Nyquist-rate capacities do not depend on the sampler
    _, c_eq, c_opt, _ = cap.batched_losses(channel, make_flat_sampler(np.eye(6)), [[1, 4]])
    c_eq, c_opt = float(c_eq[0]), float(c_opt[0])
    bound = cap.waterfill_gap_bound(channel)
    if abs(c_opt - c_eq) > 1e-9:
        failures.append("flat channel: water-filling capacity differs from equal power")
    if not -1e-12 <= bound <= 1e-12:
        failures.append("flat channel: gap bound is not zero")
    if c_opt - c_eq > bound + 1e-9:
        failures.append("flat channel: measured gap exceeds its bound")
    return failures


# ------------------------------------------------------------------ sweep


def cmd_sweep(params: dict) -> int:
    betas = _parse_grid(params["betas"], "betas")
    alphas = _parse_grid(params["alphas"], "alphas")
    for b in betas:
        if not 0.0 < b < 1.0:
            raise UsageError(f"beta values must lie in (0, 1), got {b}")
    for a in alphas:
        if not 0.0 < a <= 1.0:
            raise UsageError(f"alpha values must lie in (0, 1], got {a}")
    rows = []
    for beta in betas:
        for alpha in alphas:
            if beta > alpha:
                continue
            loss = minimax_limit(alpha, beta)
            rows.append((beta, alpha, loss, loss / beta))
    text = output.g12_rows(np.array(rows, dtype=float).reshape(-1, 4).T)
    _write_text(params["out"], "beta;alpha;minimax_loss_per_hz;normalized_loss\n" + text)
    return 0


# ---------------------------------------------------------- achievability


def cmd_achievability(params: dict) -> int:
    cfg = experiments.TrialConfig(
        n=int(params["n"]),
        k=int(params["k"]),
        m=int(params["m"]),
        ensemble=params["ensemble"],
        eps=float(params["eps"]),
        trials=int(params["trials"]),
        master_seed=int(params["seed"]),
        state_cap=int(params["state_cap"]),
    )
    result = experiments.achievability_trial(cfg, workers=params["workers"])
    print(result.to_text())
    if params["out"]:
        _write_text(params["out"], _result_payload(result, params["format"]))
    return 0 if result.passed else 2


def cmd_concentration(params: dict) -> int:
    cfg = experiments.TrialConfig(
        n=int(params["k"]),
        k=int(params["k"]),
        m=int(params["k"]),
        ensemble=params["ensemble"],
        eps=float(params["eps"]),
        trials=int(params["trials"]),
        master_seed=int(params["seed"]),
    )
    result = experiments.law_trial("square", cfg)
    print(result.to_text())
    if params["out"]:
        _write_text(params["out"], _result_payload(result, params["format"]))
    return 0 if result.passed else 2


# --------------------------------------------------------------- capacity


def _loss_columns(capacities) -> dict[str, np.ndarray]:
    """The output columns of the batched (c_sampled, c_eq, c_opt, nu) arrays.

    The losses are the Nyquist-rate capacities less c_sampled.
    """
    c_sampled, c_eq, c_opt, nu = capacities
    return {
        "c_sampled": c_sampled,
        "c_eq": c_eq,
        "c_opt": c_opt,
        "loss_eq": c_eq - c_sampled,
        "loss_opt": c_opt - c_sampled,
        "nu": nu,
    }


def _print_loss_summary(command: str, loss_eq: np.ndarray, unit: str, sampled: bool) -> None:
    print(
        f"{command}: {len(loss_eq)} states, max loss_eq {loss_eq.max():.6f} {unit}"
        + (", sampled state set" if sampled else "")
    )


def _default_channel_path() -> Path:
    return Path(str(resources.files("subnyq").joinpath("data/example_channel.json")))


def cmd_capacity(params: dict) -> int:
    path = Path(params["channel"]) if params["channel"] else _default_channel_path()
    if not path.is_file():
        raise UsageError(f"channel JSON not found or not a regular file: {path}")
    channel = load_channel(path)
    m = int(params["m"])
    if not 1 <= m <= channel.n_subbands:
        raise UsageError(f"need 1 <= m <= n={channel.n_subbands}, got m={m}")
    spec = EnsembleSpec(params["ensemble"], m, channel.n_subbands, int(params["seed"]))
    sampler = make_flat_sampler(draw_matrix(spec))
    n, k, state_cap = channel.n_subbands, channel.k_active, int(params["state_cap"])
    sampled = math.comb(n, k) > state_cap
    states = enumerate_states(n, k, state_cap)
    block = states + 1  # 1-based labels
    walk = states if sampled else colex_plan(n, k)  # a census runs along its plan
    cols = _loss_columns(cap.batched_losses(channel, sampler, walk))
    gap_bound = cap.waterfill_gap_bound(channel)
    bad = bool(
        np.any(cols["loss_eq"] < -1e-9) or np.any(cols["c_opt"] - cols["c_eq"] > gap_bound + 1e-9)
    )
    if params["format"] == "json":
        # The encoder writes the document around a null placeholder.  Only a
        # top-level key follows a newline and exactly two spaces, and strings
        # hold no raw newline, so the partition finds that key and no other.
        key = '\n  "reports": '
        head, _, tail = json.dumps(
            {"channel": channel.to_dict(), "reports": None, "sampler": spec.to_dict()},
            sort_keys=True,
            indent=2,
        ).partition(key + "null")
        payload = output.json_records(block, cols, 1, head + key, tail + "\n")
    else:
        payload = output.loss_csv_lines(block, **cols, bits=bool(params["bits"]))
    _write_text(params["out"], payload)
    _print_loss_summary("capacity", cols["loss_eq"], "nats/s", sampled)
    return 0 if not bad else 2


def cmd_discrete(params: dict) -> int:
    n, k, m = int(params["n"]), int(params["k"]), int(params["m"])
    if not 1 <= k < n:
        raise UsageError(f"need 1 <= k < n, got k={k}, n={n}")
    if not 1 <= m <= n:
        raise UsageError(f"need 1 <= m <= n, got m={m}, n={n}")
    power = float(params["power"])
    if power <= 0:
        raise UsageError("power must be positive")
    gains = np.ones(n)
    spec = EnsembleSpec(params["ensemble"], m, n, int(params["seed"]))
    q = draw_matrix(spec)
    state_cap = int(params["state_cap"])
    states = enumerate_states(n, k, state_cap)
    block = states + 1  # 1-based labels
    cols = _loss_columns(cap.discrete_losses(gains, q, states, power))
    if params["format"] == "json":
        records = {key: cols[key] for key in ("loss_eq", "loss_opt")}
        payload = output.json_records(block, records, 0, tail="\n")
    else:
        payload = output.loss_csv_lines(block, **cols, bits=bool(params["bits"]))
    _write_text(params["out"], payload)
    _print_loss_summary("discrete", cols["loss_eq"], "nats per use", math.comb(n, k) > state_cap)
    return 0 if not np.any(cols["loss_eq"] < -1e-9) else 2


_DISPATCH = {
    "verify": cmd_verify,
    "sweep": cmd_sweep,
    "achievability": cmd_achievability,
    "concentration": cmd_concentration,
    "capacity": cmd_capacity,
    "discrete": cmd_discrete,
}


def main(argv=None) -> int:
    _keep_freed_memory()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        params = _merge_params(args)
        return _DISPATCH[args.command](params)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return 1
    except ValueError as exc:
        print(f"invalid arguments: {exc}", file=sys.stderr)
        return 1
    except (SingularityError, NumericalError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


def entry() -> None:  # console-script shim
    try:
        status = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout: an output error, as an unwritable --out
        # is; stdout now points at devnull, so the final flush cannot raise
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        status = 1
    sys.exit(status)


if __name__ == "__main__":
    entry()
