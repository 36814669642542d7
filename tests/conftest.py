import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from subnyq import CompoundChannel, batched_losses, make_flat_sampler
from subnyq.capacity import WATERFILL_DEFAULT_TOL


def random_channel(gen: np.random.Generator, flat: bool = False) -> CompoundChannel:
    """A small random channel; gains in [0.5, 2.0], q in 1..3."""
    n = int(gen.integers(4, 9))
    k = int(gen.integers(1, n // 2 + 1))
    q = int(gen.integers(1, 4))
    bandwidth = float(gen.uniform(1.0, 8.0))
    power = float(gen.uniform(0.5, 20.0))
    if flat:
        gains = np.full((n, q), float(gen.uniform(0.5, 2.0)))
    else:
        gains = gen.uniform(0.5, 2.0, size=(n, q))
    return CompoundChannel(
        bandwidth=bandwidth, n_subbands=n, k_active=k, power=power, gain_grid=gains
    )


def nyquist_row(channel: CompoundChannel, state, tol=WATERFILL_DEFAULT_TOL):
    """(c_eq, c_opt, nu) of one state, a 1-based index tuple: a one-row
    `batched_losses` call under the sampler [1, 0, ..., 0], since the
    Nyquist side does not depend on the sampler."""
    sampler = make_flat_sampler(np.eye(1, channel.n_subbands))
    _, c_eq, c_opt, nu = batched_losses(channel, sampler, [np.subtract(state, 1)], tol=tol)
    return float(c_eq[0]), float(c_opt[0]), float(nu[0])


def state_grid(channel: CompoundChannel, row) -> np.ndarray:
    """The (n, q) gain grid in effect at a state, a zero-based index row."""
    key = tuple(int(i) + 1 for i in row)
    return (channel.state_gains or {}).get(key, channel.gain_grid)


def spy(monkeypatch, func) -> list:
    """The argument tuples of every call of func, from any subnyq module
    that binds it, so that a call moved to another module still counts."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return func(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name == "subnyq" or name.startswith("subnyq."):
            for attr, value in list(vars(module).items()):
                if value is func:
                    monkeypatch.setattr(module, attr, counted)
    return calls


def eigh_shapes(monkeypatch) -> list:
    """The input shape of every `np.linalg.eigh` call from here on."""
    real, shapes = np.linalg.eigh, []

    def counted(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return real(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    return shapes


@pytest.fixture
def gen():
    return np.random.default_rng(20230517)


SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.fixture
def cli_process():
    """Run `subnyq.cli.main(args)` in a fresh interpreter, after `setup` code.

    Commands that fork workers run this way, under a timeout, so that a
    hung worker fails the test instead of stalling the suite.
    """

    def run(args, setup: str = "", timeout: float = 120) -> subprocess.CompletedProcess:
        code = f"import sys\nfrom subnyq import cli\n{setup}\nsys.exit(cli.main(sys.argv[1:]))\n"
        path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
        return subprocess.run(
            [sys.executable, "-c", code, *map(str, args)],
            env={**os.environ, "PYTHONPATH": path},
            capture_output=True,
            text=True,
            timeout=timeout,
        )

    return run
