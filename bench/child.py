"""Run one subnyq CLI command in this process, the way its console script does.

    python3 bench/child.py REPORT TRACE -- CLI-ARGS...

Imports ``subnyq.cli`` (which imports the whole package), then calls
``cli.main`` on CLI-ARGS and exits with its return code.  REPORT receives a
JSON object with the monotonic clock at the call into and the return from
``cli.main``, so the parent can split its wall time into set-up and work.

With TRACE = 1 the listed library functions are wrapped before the call, in
every ``subnyq.*`` module namespace that binds them (matched by identity, so
imported aliases such as ``experiments.whiten`` are covered), and each call
is kept in memory as a span: (id, name, start, end, parent id, thread id,
count).  The spans are written into REPORT after ``cli.main`` returns.  A
name the library no longer defines is skipped and listed in REPORT as
missing.  No source file of the library is changed.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
import time

from subnyq import cli

# Span name -> (module, attribute).  Count functions give the span's count.
TRACED = {
    "cli.main": ("subnyq.cli", "main"),
    "cli._write_text": ("subnyq.cli", "_write_text"),
    "cli._result_payload": ("subnyq.cli", "_result_payload"),
    "capacity.loss_csv_rows": ("subnyq.capacity", "loss_csv_rows"),
    "channel.enumerate_states": ("subnyq.channel", "enumerate_states"),
    "samplers.draw_matrix": ("subnyq.samplers", "draw_matrix"),
    "numerics.whiten": ("subnyq.numerics", "whiten"),
    "capacity.capacity_loss": ("subnyq.capacity", "capacity_loss"),
    "capacity.sampled_capacity": ("subnyq.capacity", "sampled_capacity"),
    "capacity.waterfill_level": ("subnyq.capacity", "waterfill_level"),
    "capacity.discrete_loss": ("subnyq.capacity", "discrete_loss"),
    "parallel.map_ordered": ("subnyq.parallel", "map_ordered"),
    "json.dumps": ("json", "dumps"),
}
COUNTS = {
    "channel.enumerate_states": len,
    "samplers.draw_matrix": lambda mat: int(mat.size),
}


class Tracer:
    """In-memory span recorder; one per traced process."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._ids = itertools.count()
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name, fn, args, kwargs, parent=None, count=None):
        stack = self._stack()
        sid = next(self._ids)
        if parent is None and stack:
            parent = stack[-1]
        stack.append(sid)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
        n = count(result) if count is not None else None
        # list.append is atomic under the interpreter lock
        self.spans.append((sid, name, start, end, parent, threading.get_ident(), n))
        return result

    def wrap(self, name, fn):
        count = COUNTS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(name, fn, args, kwargs, count=count)

        return wrapper

    def wrap_map(self, name, fn):
        """map_ordered: also record one span per task, parented to the map."""
        task_names = {"subnyq.experiments": "experiments.trial"}

        @functools.wraps(fn)
        def wrapper(task, items, *args, **kwargs):
            task_name = task_names.get(getattr(task, "__module__", None), "parallel.task")

            def run_map():
                map_id = self._stack()[-1]  # the span opened by call() below

                def traced_task(item):
                    return self.call(task_name, task, (item,), {}, parent=map_id)

                return fn(traced_task, items, *args, **kwargs)

            return self.call(name, run_map, (), {})

        return wrapper


def install(tracer: Tracer) -> list[str]:
    """Wrap every binding of the TRACED functions; return the names not found."""
    missing = []
    for name, (module_name, attr) in TRACED.items():
        module = sys.modules.get(module_name)
        original = getattr(module, attr, None) if module is not None else None
        if not callable(original):
            missing.append(name)
            continue
        make = tracer.wrap_map if name == "parallel.map_ordered" else tracer.wrap
        wrapped = make(name, original)
        namespaces = [module] + [
            mod for key, mod in list(sys.modules.items())
            if (key == "subnyq" or key.startswith("subnyq.")) and mod is not module
        ]
        for namespace in namespaces:
            for key, value in list(vars(namespace).items()):
                if value is original:
                    setattr(namespace, key, wrapped)
    return missing


def run(report_path: str, traced: bool, argv: list[str]) -> int:
    tracer = Tracer() if traced else None
    missing = install(tracer) if traced else []
    main = cli.main
    start = time.monotonic()
    code = main(argv)
    end = time.monotonic()
    report = {"main_start": start, "main_end": end, "code": code}
    if traced:
        report["spans"] = tracer.spans
        report["missing"] = missing
    with open(report_path, "w", encoding="utf-8") as handle:
        json.dump(report, handle)
    return code


if __name__ == "__main__":
    if len(sys.argv) < 4 or sys.argv[3] != "--" or sys.argv[2] not in ("0", "1"):
        sys.exit("usage: child.py REPORT 0|1 -- CLI-ARGS...")
    sys.exit(run(sys.argv[1], sys.argv[2] == "1", sys.argv[4:]))
