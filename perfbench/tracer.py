"""Traced in-process run of one workload: spans around every public spinboost function.

Usage: python perfbench/tracer.py SPEC.json RESULT.json  (with src on PYTHONPATH)

SPEC holds the ops of one pass, the same ops on tiny grids, the time budget
and the spans file. The tracer imports the CLI once, runs the tiny ops once
so that first-call costs fall outside the timings, then alternates untraced
and traced passes, calling ``spinboost.cli.main`` for each op. In a traced pass every public function
of every layer module is replaced, in each module that refers to it, by a
wrapper that records a span: name, start, end, parent span, run id (pass
and op), whether it raised, plus counts taken at the same boundary. Spans
stay in memory and are written to the spans file when the run ends.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import inspect
import io
import json
import sys
import time
import tracemalloc
from pathlib import Path

LAYERS = ("tensor", "lorentz", "states", "entanglement", "sweep", "checks", "cli")
ANNOTATED = {"sweep.delta_e_grid", "sweep.find_extrema", "checks.check_suite", "cli.build_parser"}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.stack: list[int] = []
        self.run = ""

    def wrap(self, layer: str, name: str, fn):
        tracer = self
        full = f"{layer}.{name}"
        signature = inspect.signature(fn) if full in ANNOTATED else None

        def traced(*args, **kwargs):
            span = {"id": len(tracer.spans), "name": full, "run": tracer.run,
                    "parent": tracer.stack[-1] if tracer.stack else None, "error": False}
            tracer.spans.append(span)
            tracer.stack.append(span["id"])
            measure_memory = full == "sweep.delta_e_grid" and not tracemalloc.is_tracing()
            if measure_memory:
                tracemalloc.start()
            span["start"] = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span["error"] = True
                raise
            finally:
                span["end"] = time.perf_counter_ns()
                tracer.stack.pop()
                if measure_memory:
                    span["peak_bytes"] = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
            if signature is not None:
                tracer.annotate(span, signature.bind(*args, **kwargs).arguments, result)
            return result

        return traced

    def annotate(self, span: dict, arguments: dict, result) -> None:
        """Counts recorded at the layer boundary, outside the timed interval."""
        name = span["name"]
        if name == "sweep.delta_e_grid":
            span["partition"] = arguments["partition"].name
            span["cells"] = int(arguments["thetas"].size * arguments["phis"].size)
        elif name == "sweep.find_extrema":
            span["clusters"] = len(result.maxima) + len(result.minima)
            span["hits"] = 0 if result.flat else _hits(arguments["result"].values)
        elif name == "checks.check_suite":
            span["passed"] = sum(r.passed for r in result.results)
            span["total"] = len(result.results)
        elif name == "cli.build_parser":
            result.parse_args = self.wrap("cli", "parse_args", result.parse_args)


def _hits(values) -> int:
    from spinboost.sweep import COLLECT_TOL

    return int((values.max() - values < COLLECT_TOL).sum() + (values - values.min() < COLLECT_TOL).sum())


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Replace every public layer function by its traced wrapper, then restore."""
    modules = [sys.modules["spinboost"]] + [sys.modules[f"spinboost.{m}"] for m in LAYERS]
    wrappers = {}
    for layer in LAYERS:
        module = sys.modules[f"spinboost.{layer}"]
        for name, fn in vars(module).items():
            if inspect.isfunction(fn) and fn.__module__ == module.__name__ and not name.startswith("_"):
                wrappers[id(fn)] = tracer.wrap(layer, name, fn)
    saved = []
    for module in modules:
        for attr, value in list(vars(module).items()):
            if id(value) in wrappers and inspect.isfunction(value):
                saved.append((module, attr, value))
                setattr(module, attr, wrappers[id(value)])
    try:
        yield
    finally:
        for module, attr, value in saved:
            setattr(module, attr, value)


def run_pass(cli, ops: list[dict], tracer: Tracer, pass_index: int) -> tuple[float, list[dict]]:
    records = []
    start = time.perf_counter()
    for k, op in enumerate(ops):
        tracer.run = f"{pass_index}:{k}"
        out, err = io.StringIO(), io.StringIO()
        record = {"rc": None, "reason": None}
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                record["rc"] = cli.main(op["argv"])
            except Exception as exc:  # an op that crashes is a failed op, the run goes on
                record["reason"] = f"raised {type(exc).__name__}: {exc}"
        record["stdout"], record["stderr"] = out.getvalue(), err.getvalue()[-2000:]
        records.append(record)
    wall = time.perf_counter() - start
    for op, record in zip(ops, records):
        if "out" in op and Path(op["out"]).is_file():
            record["hash"] = hashlib.sha256(Path(op["out"]).read_bytes()).hexdigest()
    return wall, records


def main(spec_path: str, result_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text())
    start = time.perf_counter()
    cli = importlib.import_module("spinboost.cli")
    import_s = time.perf_counter() - start
    for layer in LAYERS:
        importlib.import_module(f"spinboost.{layer}")
    ops, budget = spec["ops"], spec["seconds"]
    run_pass(cli, spec["warmup"], Tracer(), -1)
    walls = {"untraced": [], "traced": []}
    passes, traced_passes = [], []
    tracer = Tracer()
    begin = time.perf_counter()
    while True:
        wall, records = run_pass(cli, ops, Tracer(), len(passes))
        walls["untraced"].append(wall)
        passes.append(records)
        with installed(tracer):
            wall, records = run_pass(cli, ops, tracer, len(passes))
        walls["traced"].append(wall)
        traced_passes.append(len(passes))
        passes.append(records)
        pair = walls["untraced"][-1] + walls["traced"][-1]
        if time.perf_counter() - begin + pair > budget:
            break
    Path(spec["spans"]).write_text(json.dumps(tracer.spans))
    result = {"import_s": import_s, "walls": walls, "passes": passes, "traced_passes": traced_passes}
    Path(result_path).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
