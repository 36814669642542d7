"""Benchmark of the subnyq command-line interface.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  The harness is a closed loop: a
single driver process runs one CLI invocation at a time as a child process
(``bench/child.py``, which calls ``subnyq.cli.main`` like the console
script does), waits for it, checks its output, and starts the next one,
until S seconds have passed.  Inputs come from the workload seed and are
written to a scratch directory under ``.bench_build/`` that is removed at
exit.

With ``--trace 0`` it prints the end-to-end metrics (medians over the
invocations): wall_s, setup_s, state_evals_per_s and peak_rss_mb.  With
``--trace 1`` it alternates untraced and traced invocations and prints the
per-layer metrics from the traced ones.  The last line of standard output
is one JSON object: {"correct", "attempted", "failed", "metrics"}.
See bench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from importlib.metadata import PackageNotFoundError, version
from pathlib import Path

from workloads import WORKLOADS, OutputError

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CHILD = Path(__file__).resolve().parent / "child.py"
CHILD_TIMEOUT_S = 120

# Spans reported as <name>.calls and <name>.busy_s.
CALL_METRICS = (
    "samplers.draw_matrix",
    "numerics.whiten",
    "capacity.capacity_loss",
    "capacity.sampled_capacity",
    "capacity.waterfill_level",
    "capacity.discrete_loss",
)
# Spans whose union is the time spent serializing and writing output.
SERIALIZE_SPANS = ("capacity.loss_csv_rows", "cli._result_payload", "json.dumps", "cli._write_text")
IMPORT_GROUPS = ("scipy", "numpy", "subnyq")

UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "state_evals_per_s": "1/s",
    "peak_rss_mb": "MB",
    "error_rate": "ratio",
}


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("gflops_computed"):
        return "GFLOP/s"
    if name.endswith("output_bytes"):
        return "bytes"
    if name == "parallel.concurrency":
        return "ratio"
    return "count"


# --------------------------------------------------------------- children


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def make_scratch(prefix: str) -> Path:
    """A fresh scratch directory under the checkout's ignored .bench_build/."""
    build = ROOT / ".bench_build"
    build.mkdir(exist_ok=True)
    return Path(tempfile.mkdtemp(prefix=prefix, dir=build))


def run_child(argv: list[str], scratch: Path, traced: bool) -> dict:
    """Run one CLI invocation; return its timings, exit code and trace."""
    report = scratch / "report.json"
    stdout = scratch / "stdout.txt"
    stderr = scratch / "stderr.txt"
    report.unlink(missing_ok=True)
    cmd = [sys.executable]
    if traced:
        cmd += ["-X", "importtime"]
    cmd += [str(CHILD), str(report), "1" if traced else "0", "--", *argv]
    with open(stdout, "wb") as out, open(stderr, "wb") as err:
        spawn = time.monotonic()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=child_env(), cwd=ROOT)
        # wait4 rather than Popen.wait: it also returns the child's peak RSS
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted: leave no child behind
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        end = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)
    result = {
        "code": proc.returncode,
        "wall_s": end - spawn,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
    }
    try:
        rep = json.loads(report.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError):
        return result
    result["setup_s"] = rep["main_start"] - spawn
    result["main_s"] = rep["main_end"] - rep["main_start"]
    if traced:
        result["spans"] = rep["spans"]
        result["missing"] = rep["missing"]
        result["imports"] = import_times(stderr.read_text(encoding="utf-8", errors="replace"))
    return result


def import_times(stderr: str) -> dict[str, float]:
    """Seconds spent importing scipy, numpy and subnyq itself (-X importtime).

    The log lists each import after the imports it triggered, indented one
    level deeper.  A dependency's time is the cumulative time of its
    outermost entries (numpy modules first imported by scipy count as
    scipy's); subnyq's is that of its own entries less the numpy and scipy
    imports nested in them.
    """
    entries = []  # (depth, name, cumulative us)
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line[len("import time:"):].split("|")
        if len(parts) != 3 or not parts[1].strip().isdigit():
            continue
        label = parts[2]
        entries.append((len(label) - len(label.lstrip()), label.strip(), int(parts[1])))

    def group(name: str):
        return next((g for g in IMPORT_GROUPS if name == g or name.startswith(g + ".")), None)

    totals = dict.fromkeys(IMPORT_GROUPS, 0)
    nested_in_subnyq = 0
    stack: list[tuple[int, str | None]] = []  # ancestors, walking the log backwards
    for depth, name, cumulative in reversed(entries):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        mine = group(name)
        ancestors = {g for _, g in stack}
        if mine == "subnyq":
            if "subnyq" not in ancestors:
                totals[mine] += cumulative
        elif mine and not ancestors & {"numpy", "scipy"}:
            totals[mine] += cumulative
            if "subnyq" in ancestors:
                nested_in_subnyq += cumulative
        stack.append((depth, mine))
    totals["subnyq"] -= nested_in_subnyq
    return {g: us * 1e-6 for g, us in totals.items()}


# ---------------------------------------------------------------- metrics


def layer_metrics(inv: dict, workload) -> dict[str, float]:
    """Per-layer metrics of one traced invocation."""
    spans = {s[0]: s for s in inv["spans"]}  # id -> (id, name, start, end, parent, thread, n)
    by_name: dict[str, list[tuple]] = {}
    for span in spans.values():
        by_name.setdefault(span[1], []).append(span)
    missing = set(inv["missing"])

    def outermost(names) -> list[tuple]:
        """Spans in `names` with no ancestor in `names`."""
        out = []
        for name in names:
            for span in by_name.get(name, []):
                parent = span[4]
                while parent is not None and spans[parent][1] not in names:
                    parent = spans[parent][4]
                if parent is None:
                    out.append(span)
        return out

    def busy(names) -> float:
        return sum(s[3] - s[2] for s in outermost(names))

    m: dict[str, float] = {}
    for group, seconds in inv["imports"].items():
        m[f"setup.import_{group}_s"] = seconds
    for name in CALL_METRICS:
        if name in missing:
            continue
        m[f"{name}.calls"] = len(by_name.get(name, []))
        m[f"{name}.busy_s"] = busy({name})
    if "samplers.draw_matrix" not in missing:
        m["samplers.draw_matrix.entries"] = sum(s[6] for s in by_name.get("samplers.draw_matrix", []))
    if "channel.enumerate_states" not in missing:
        m["channel.enumerate_states.busy_s"] = busy({"channel.enumerate_states"})
        m["channel.enumerate_states.states"] = sum(s[6] for s in by_name.get("channel.enumerate_states", []))
    if "parallel.map_ordered" not in missing:
        trials = by_name.get("experiments.trial", [])
        child_time: dict[int, float] = {}
        for span in spans.values():
            if span[4] is not None:
                child_time[span[4]] = child_time.get(span[4], 0.0) + span[3] - span[2]
        self_s = sum(s[3] - s[2] - child_time.get(s[0], 0.0) for s in trials)
        m["experiments.trial.calls"] = len(trials)
        m["experiments.trial.self_s"] = self_s
        m["experiments.trial.gflops_computed"] = (
            workload.trial_flops / self_s * 1e-9 if trials and self_s > 0 else 0.0
        )
        map_busy = busy({"parallel.map_ordered"})
        task_time = sum(s[3] - s[2] for s in trials + by_name.get("parallel.task", []))
        m["parallel.map_ordered.busy_s"] = map_busy
        m["parallel.concurrency"] = task_time / map_busy if map_busy > 0 else 0.0
    if "cli.main" not in missing:
        m["cli.main.busy_s"] = busy({"cli.main"})
    if "output_bytes" in inv:
        m["cli.output_bytes"] = inv["output_bytes"]
    present = [name for name in SERIALIZE_SPANS if name not in missing]
    if present:
        m["cli.serialize_s"] = busy(set(present))
    return m


def median_of(samples: list[dict], key: str) -> float | None:
    vals = [s[key] for s in samples if key in s]
    return statistics.median(vals) if vals else None


# ------------------------------------------------------------ environment


def environment() -> dict:
    import numpy as np

    try:
        np_config = np.show_config(mode="dicts")
        blas = np_config.get("Build Dependencies", {})
    except TypeError:  # numpy < 1.26 has no mode argument
        blas = "unavailable"
    try:
        scipy_version = version("scipy")
    except PackageNotFoundError:
        scipy_version = "absent"
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy_version,
        "blas": blas,
        "num_threads_env": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")},
        "commit": commit_hash(),
    }


def commit_hash() -> str:
    """HEAD of the checkout's git metadata, read from files; 'unknown' if absent."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.exists():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


# ------------------------------------------------------------------- main


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def measure(workload, scratch: Path, seconds: float, trace: bool) -> tuple[list[dict], list[dict], int]:
    """Closed loop of invocations; returns (untraced, traced, failures)."""
    untraced: list[dict] = []
    traced: list[dict] = []
    failed = 0
    start = time.monotonic()
    while True:
        want_trace = trace and len(traced) < len(untraced)
        workload.out.unlink(missing_ok=True)
        inv = run_child(workload.argv, scratch, want_trace)
        problem = None
        if inv["code"] != 0:
            problem = f"exit code {inv['code']}"
        elif "main_s" not in inv:
            problem = "no timing report"
        else:
            try:
                workload.check()
                inv["output_bytes"] = workload.out.stat().st_size
            except OutputError as exc:
                problem = str(exc)
        if problem:
            failed += 1
            inv["problem"] = problem
            print(f"invocation failed: {problem}", file=sys.stderr)
        print(
            f"  {'traced' if want_trace else 'run'} {len(untraced) + len(traced)}: "
            f"wall {inv['wall_s']:.4f} s, setup {inv.get('setup_s', float('nan')):.4f} s, "
            f"peak rss {inv['peak_rss_mb']:.1f} MB{', FAILED' if problem else ''}"
        )
        (traced if want_trace else untraced).append(inv)
        done = time.monotonic() - start >= seconds
        if done and untraced and (traced or not trace):
            return untraced, traced, failed


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "subnyq" / "cli.py").is_file():
        print(f"subnyq sources not found under {SRC}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("--seconds must be positive", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # A terminated benchmark still reaps its child and removes its scratch.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    scratch = make_scratch("run-")
    try:
        workload = WORKLOADS[args.workload](args.seed, scratch)
        # Untimed warm-up: compiles bytecode caches and loads shared
        # libraries into the page cache, which every user run finds warm.
        run_child(["--command", "sweep", "--betas", "0.5", "--alphas", "1"], scratch, False)
        untraced, traced, failed = measure(workload, scratch, args.seconds, bool(args.trace))
        env = environment()
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    runs = untraced + traced
    good = [inv for inv in untraced if "problem" not in inv]
    for inv in good:
        inv["state_evals_per_s"] = workload.states / inv["main_s"]
    e2e = {
        key: median_of(good, key)
        for key in ("wall_s", "setup_s", "state_evals_per_s", "peak_rss_mb")
    }
    e2e["error_rate"] = failed / len(runs)
    print(f"workload {args.workload}, seed {args.seed}, {len(runs)} invocations, {failed} failed")
    for key, value in e2e.items():
        shown = "-" if value is None else f"{value:.6g}"
        basis = f"{failed}/{len(runs)}" if key == "error_rate" else f"median of n={len(good)}"
        print(f"  {key:<20} {shown:>12} {UNITS[key]:<6} {basis}")
    print("env: " + json.dumps(env, sort_keys=True))

    if args.trace:
        per_inv = [layer_metrics(inv, workload) for inv in traced if "problem" not in inv]
        names = sorted({k for m in per_inv for k in m})
        metrics = {name: median_of(per_inv, name) for name in names}
        traced_wall = median_of(traced, "wall_s")
        untraced_wall = median_of(untraced, "wall_s")
        metrics["trace.overhead_s"] = traced_wall - untraced_wall
        missing = sorted({name for inv in traced for name in inv.get("missing", [])})
        if missing:
            print(f"absent (not defined by the library): {', '.join(missing)}")
        print(f"per-layer medians over {len(per_inv)} traced invocations:")
        for name in sorted(metrics):
            print(f"  {name:<40} {metrics[name]:>14.6g} {layer_unit(name)}")
        out_metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in metrics.items()}
    else:
        out_metrics = {
            k: {"value": v, "unit": UNITS[k]}
            for k, v in e2e.items()
            if k != "error_rate" and v is not None
        }
    result = {
        "correct": failed == 0,
        "attempted": len(runs),
        "failed": failed,
        "metrics": out_metrics,
    }
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
