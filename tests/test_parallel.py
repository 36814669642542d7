"""The forked-worker contract of `parallel.map_ordered`.

No test here asks for more than 3 workers.  The in-process maps run under
an alarm, and the CLI runs in a subprocess with a timeout, so that a hung
worker fails the test instead of stalling the suite.
"""

import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from subnyq import experiments
from subnyq.experiments import TrialConfig, landau_achievability_trial
from subnyq.numerics import NumericalError
from subnyq.parallel import map_ordered

SRC = Path(__file__).resolve().parents[1] / "src"
pytestmark = pytest.mark.skipif(not hasattr(os, "fork"), reason="forked workers need os.fork")


@pytest.fixture(autouse=True)
def deadline():
    def expire(signum, frame):
        raise TimeoutError("map_ordered did not return within 60 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(60)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def tagged(x):
    return x * x, os.getpid()


@pytest.mark.parametrize("workers, n", [(3, 2), (3, 7), (2, 5), (3, 1), (2, 0)])
def test_order_and_process_count(workers, n):
    out = map_ordered(tagged, range(n), workers=workers)
    assert [v for v, _ in out] == [x * x for x in range(n)]
    pids = [pid for _, pid in out]
    assert len(set(pids)) == min(workers, n)
    assert pids[:1] == [os.getpid()] * min(1, n)  # the caller works through shard 0
    assert pids == sorted(pids, key=pids.index)  # contiguous shards
    assert_no_child_left()


def test_worker_exception_keeps_its_type():
    parent = os.getpid()

    def fail_in_worker(x):
        if os.getpid() != parent and x == 4:
            raise NumericalError(f"item {x} failed in a worker")
        return x

    with pytest.raises(NumericalError, match="item 4 failed in a worker"):
        map_ordered(fail_in_worker, range(6), workers=3)
    assert_no_child_left()


@pytest.mark.parametrize("bad, first", [({1, 5}, 1), ({3, 5}, 3), ({5}, 5)])
def test_earliest_failure_wins(bad, first):
    def fail(x):
        if x in bad:
            raise ValueError(f"item {x}")
        return x

    with pytest.raises(ValueError) as serial:
        [fail(x) for x in range(6)]
    with pytest.raises(ValueError, match=f"item {first}") as forked:
        map_ordered(fail, range(6), workers=3)
    assert str(forked.value) == str(serial.value)
    assert_no_child_left()


def test_unpicklable_exception_is_reported():
    class Local(Exception):
        pass

    parent = os.getpid()

    def fail(x):
        if os.getpid() != parent:
            raise Local("cannot travel")
        return x

    with pytest.raises(ChildProcessError, match="Local: cannot travel"):
        map_ordered(fail, range(2), workers=2)
    assert_no_child_left()


@pytest.mark.parametrize("death, code", [("exit", 5), ("kill", -signal.SIGKILL)])
def test_dead_worker_raises_and_is_reaped(death, code):
    parent = os.getpid()

    def die(x):
        if os.getpid() != parent:
            if death == "exit":
                os._exit(5)
            os.kill(os.getpid(), signal.SIGKILL)
        return x

    with pytest.raises(ChildProcessError, match=f"exit code {code}"):
        map_ordered(die, range(4), workers=2)
    assert_no_child_left()


def test_parent_failure_reaps_the_workers():
    parent = os.getpid()

    def fail_in_parent(x):
        if os.getpid() == parent:
            raise KeyError(x)
        return x

    with pytest.raises(KeyError):
        map_ordered(fail_in_parent, range(3), workers=3)
    assert_no_child_left()


def test_line_printed_before_the_map_appears_once():
    # stdout is a block-buffered pipe here, and the workers flush it themselves
    probe = (
        "from subnyq.parallel import map_ordered\n"
        "print('before')\n"
        "print(map_ordered(lambda x: print('item', x, flush=True) or abs(x), range(-3, 3), 2))\n"
    )
    env = {key: val for key, val in os.environ.items() if key != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(SRC)
    result = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=60
    )
    assert result.returncode == 0, result.stderr
    lines = result.stdout.splitlines()
    assert lines[0] == "before" and lines[-1] == "[3, 2, 1, 0, 1, 2]"
    assert sorted(lines[1:-1]) == sorted(f"item {x}" for x in range(-3, 3))


def test_without_fork_the_map_is_serial(monkeypatch):
    monkeypatch.setattr(experiments, "STATE_CHUNK", 64)
    cfg = TrialConfig(n=14, k=4, m=4, trials=4, master_seed=11)
    forked = landau_achievability_trial(cfg, workers=3).to_json()
    monkeypatch.delattr(os, "fork")
    out = map_ordered(tagged, range(5), workers=3)
    assert out == [(x * x, os.getpid()) for x in range(5)]
    assert landau_achievability_trial(cfg, workers=3).to_json() == forked


PLANTED = """
import os
from subnyq import experiments
from subnyq.numerics import NumericalError
experiments.STATE_CHUNK = 64
kernel = experiments.subset_logdet
def planted(b, plan, shift):
    if plan.indices[-1].tolist() == [10, 11, 12, 13]:  # the run holding the last state
        raise NumericalError(f"planted in {os.getpid()}")
    return kernel(b, plan, shift=shift)
experiments.subset_logdet = planted
print("main", os.getpid())
"""


@pytest.mark.parametrize("workers", [1, 2])
def test_cli_exit_code_of_a_worker_failure(cli_process, workers):
    args = ["--command", "achievability", "--n", "14", "--k", "4", "--m", "4",
            "--trials", "3", "--workers", workers]
    result = cli_process(args, setup=PLANTED)
    assert result.returncode == 3, result.stderr
    main_pid = result.stdout.split()[1]
    raised_in = result.stderr.split("numerical failure: planted in ")[1].split()[0]
    assert (raised_in == main_pid) == (workers == 1)
