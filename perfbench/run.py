"""Benchmark of the spinboost CLI: end-to-end timings, peak RSS and per-layer traces.

Run from the repository root:

    python3 perfbench/run.py --workload grid_default --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --smoke

With --trace 0 every workload op runs as its own ``python -m spinboost.cli``
child (PYTHONPATH=src), one at a time, and the end-to-end metrics are
measured on those children. With --trace 1 a single child
(perfbench/tracer.py) runs the same ops in-process with spans around each
layer's public functions and the per-layer metrics come from the spans.
Either way every output is checked by perfbench/gate.py; an op that fails
a check, exits non-zero or is killed counts in ``failed``. The last stdout
line is the JSON result; the lines above it are a readable report. Inputs,
the environment fingerprint, per-op records and spans are written to
.perfbench/results/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

import workloads
from tracer import LAYERS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUTPUT = ROOT / ".perfbench"
RUN_LIMIT_S = 170.0  # every run, set-up included, ends well within 180 s
SETUP_REPEATS = 4
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "GOTO_NUM_THREADS")


def mem_available_kb() -> int | None:
    try:
        with open("/proc/meminfo", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("MemAvailable:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return None


def environment() -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, ValueError):
        blas = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "blas_env": {name: os.environ.get(name) for name in BLAS_ENV},
        "mem_available_kb": mem_available_kb(),
    }


class Child:
    """Runs one command to completion and records wall time and its own peak RSS."""

    def __init__(self, work: Path, deadline: float) -> None:
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.stdout, self.stderr = work / "stdout.txt", work / "stderr.txt"
        self.deadline = deadline

    def run(self, cmd: list[str]) -> dict:
        timeout = max(1.0, self.deadline - time.monotonic())
        with open(self.stdout, "wb") as out, open(self.stderr, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, cwd=ROOT, env=self.env, stdout=out, stderr=err)
            timer = threading.Timer(timeout, proc.kill)
            timer.start()
            try:
                # wait4 reports this child's own peak RSS; RUSAGE_CHILDREN would
                # be the running maximum over every child reaped so far
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        record = {"wall_s": wall, "rss_kb": usage.ru_maxrss, "cpu_s": usage.ru_utime + usage.ru_stime,
                  "rc": proc.returncode, "reason": None,
                  "stdout": self.stdout.read_text(errors="replace"),
                  "stderr": self.stderr.read_text(errors="replace")[-2000:]}
        if os.WIFSIGNALED(status):
            record["rc"] = None
            record["reason"] = f"killed by signal {os.WTERMSIG(status)}" + (
                " after the time limit" if time.monotonic() >= self.deadline else "")
        return record

    def cli(self, argv: list[str]) -> dict:
        return self.run([sys.executable, "-m", "spinboost.cli", *argv])


def file_hash(path: str) -> str | None:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest() if Path(path).is_file() else None


def evaluate(ops: list[dict], passes: list[list[dict]], seed: int) -> list[dict]:
    """Gate every op record of every pass; returns one failure entry per failed record.

    Surfaces are checked once, from the files as the last pass left them;
    each pass's recorded output hash must equal the final file's, so every
    repeat of a sweep wrote the same bytes.
    """
    import gate  # imports spinboost, so it needs SRC on sys.path

    surfaces, expected, final_hash = {}, {}, {}
    for op in ops:
        if op["kind"] == "sweep":
            final_hash[op["out"]] = file_hash(op["out"])
            try:
                surfaces[op["out"]] = gate.check_surface(op, seed)
            except gate.GateError as exc:
                surfaces[op["out"]] = exc
    failures = []
    for p, records in enumerate(passes):
        for k, (op, rec) in enumerate(zip(ops, records)):
            try:
                _gate_record(gate, op, rec, surfaces, expected, final_hash)
            except gate.GateError as exc:
                failures.append({"pass": p, "op": k, "argv": op["argv"], "reason": str(exc)})
    return failures


def _gate_record(gate, op, rec, surfaces, expected, final_hash) -> None:
    if rec["reason"]:
        raise gate.GateError(rec["reason"])
    if rec["rc"] != 0:
        raise gate.GateError(f"exit code {rec['rc']}: {rec['stderr'].strip()[-300:]}")
    kind = op["kind"]
    if kind == "sweep":
        if rec.get("hash") != final_hash[op["out"]]:
            raise gate.GateError("output bytes differ between repeats of the same sweep")
        if isinstance(surfaces[op["out"]], gate.GateError):
            raise surfaces[op["out"]]
    elif kind == "extrema":
        surface = surfaces.get(op["in"])
        if not isinstance(surface, tuple):
            raise gate.GateError("input surface failed its own check")
        if op["in"] not in expected:
            expected[op["in"]] = gate.expected_extrema(*surface)
        gate.check_extrema(rec["stdout"], expected[op["in"]])
    elif kind == "check":
        gate.check_suite_output(rec["stdout"])
    elif kind == "point":
        gate.check_point(rec["stdout"], op)
    elif kind == "wigner":
        gate.check_wigner(rec["stdout"], op)


def summary(values: list[float]) -> dict:
    """Median, sample count and the highest of p99/p90/p75 with >= 10 samples beyond it."""
    out = {"median": statistics.median(values), "n": len(values)}
    ordered = sorted(values)
    for pct in (99, 90, 75):
        if len(values) * (100 - pct) / 100 >= 10:
            out[f"p{pct}"] = ordered[min(len(values) - 1, int(len(values) * pct / 100))]
            break
    return out


def measure(ops: list[dict], seconds: float, work: Path, deadline: float) -> dict:
    """Whole passes until the next one would overrun `seconds`, with set-up calls between.

    Set-up calls run at the start and at up to three points of every pass, so
    their median samples the same stretch of time as the passes. A pass's
    wall time is the sum of its own commands' wall times.
    """
    child = Child(work, deadline)

    def setup_call() -> dict:
        return child.cli(workloads.SETUP_OP["argv"])

    setup_call()  # warm-up: byte-code caches
    setup = [setup_call() for _ in range(SETUP_REPEATS)]
    setup_at = {0, len(ops) // 3, 2 * len(ops) // 3}
    passes, walls = [], []
    begin = time.perf_counter()
    while True:
        records = []
        for k, op in enumerate(ops):
            if k in setup_at:
                setup.append(setup_call())
            records.append(child.cli(op["argv"]))
        walls.append(sum(rec["wall_s"] for rec in records))
        for op, rec in zip(ops, records):
            if op["kind"] == "sweep":
                rec["hash"] = file_hash(op["out"])
        passes.append(records)
        elapsed = time.perf_counter() - begin
        if elapsed + elapsed / len(passes) > seconds or time.monotonic() > deadline - 60:
            break
    return {"setup": setup, "passes": passes, "walls": walls}


def end_to_end(ops: list[dict], measured: dict) -> tuple[dict, dict]:
    """Gated end-to-end metrics, and the per-command detail reported beside them."""
    every = [rec for recs in measured["passes"] for rec in recs] + measured["setup"]
    kinds = defaultdict(list)
    for recs in measured["passes"]:
        for op, rec in zip(ops, recs):
            kinds[op["kind"]].append(rec["wall_s"])
    metrics = {
        "setup_s": statistics.median(r["wall_s"] for r in measured["setup"]),
        "wall_s": statistics.median(measured["walls"]),
        "peak_rss_mb": max(r["rss_kb"] for r in every) / 1024,
    }
    detail = {f"{kind}_s": summary(kinds[kind]) for kind in ("sweep", "extrema", "check", "point")
              if kinds[kind]}
    if kinds["sweep"]:
        cells = sum(op["theta_grid"][2] * op["phi_grid"][2] for op in ops if op["kind"] == "sweep")
        cells *= len(measured["passes"])
        detail["cells_per_s"] = cells / sum(kinds["sweep"])
    detail["wall_s"] = summary(measured["walls"])
    detail["setup_s"] = summary([r["wall_s"] for r in measured["setup"]])
    return metrics, detail


def _size(path: str) -> int:
    return Path(path).stat().st_size if Path(path).is_file() else 0


def _dur(span: dict) -> float:
    return (span["end"] - span["start"]) / 1e9


def self_times(spans: list[dict]) -> dict[str, float]:
    """Per-layer sum of span duration minus the part of it covered by child spans."""
    children = defaultdict(list)
    for span in spans:
        if span["parent"] is not None:
            children[span["parent"]].append((span["start"], span["end"]))
    totals = defaultdict(float)
    for span in spans:
        covered, reach = 0, span["start"]
        for start, end in sorted(children[span["id"]]):
            start = max(start, reach)
            if end > start:
                covered += end - start
                reach = end
        totals[span["name"].split(".")[0]] += (span["end"] - span["start"] - covered) / 1e9
    return totals


def layer_metrics(ops: list[dict], spans: list[dict]) -> dict:
    """Per-layer metrics of one traced pass. Times named *_s are per call.

    A span whose call raised carries no boundary counts, hence the defaults.
    """
    by_name = defaultdict(list)
    for span in spans:
        by_name[span["name"]].append(span)

    def per_call(name: str, pick=lambda span: True) -> float:
        times = [_dur(s) for s in by_name[name] if pick(s)]
        return sum(times) / len(times) if times else 0.0

    commands = max(1, len(by_name["cli.main"]))
    grids = by_name["sweep.delta_e_grid"]
    cells = sum(s.get("cells", 0) for s in grids)
    m = {"cli.parse_s": sum(_dur(s) for name in ("cli.build_parser", "cli.parse_args")
                            for s in by_name[name]) / commands}
    for part in workloads.PARTITIONS:
        m[f"sweep.delta_e_grid_s.{part}"] = per_call("sweep.delta_e_grid",
                                                     lambda s, part=part: s.get("partition") == part)
    m["sweep.cells"] = cells
    m["sweep.us_per_cell"] = sum(_dur(s) for s in grids) / cells * 1e6 if cells else 0.0
    m["sweep.delta_e_grid_peak_mb"] = max((s["peak_bytes"] for s in grids), default=0) / 2**20
    for name in ("write_csv", "write_json", "read_csv", "read_json", "find_extrema"):
        m[f"sweep.{name}_s"] = per_call(f"sweep.{name}")
    m["sweep.bytes_written"] = sum(_size(op["out"]) for op in ops if op["kind"] == "sweep")
    m["sweep.bytes_read"] = sum(_size(op["in"]) for op in ops if op["kind"] == "extrema")
    m["sweep.extrema_hits"] = sum(s.get("hits", 0) for s in by_name["sweep.find_extrema"])
    m["sweep.extrema_clusters"] = sum(s.get("clusters", 0) for s in by_name["sweep.find_extrema"])
    for layer, name in (("lorentz", "boost_operator"), ("states", "assemble"),
                        ("entanglement", "delta_e"), ("entanglement", "linear_entropy"),
                        ("tensor", "state_purity")):
        m[f"{layer}.{name}_s"] = per_call(f"{layer}.{name}")
        m[f"{layer}.{name}_calls"] = len(by_name[f"{layer}.{name}"])
    m["checks.check_suite_s"] = per_call("checks.check_suite")
    m["checks.passed"] = sum(s.get("passed", 0) for s in by_name["checks.check_suite"])
    m["checks.total"] = sum(s.get("total", 0) for s in by_name["checks.check_suite"])
    selfs = self_times(spans)
    for layer in LAYERS:
        m[f"{layer}.self_s"] = selfs.get(layer, 0.0)
        m[f"{layer}.errors"] = sum(s["error"] for s in spans if s["name"].startswith(layer + "."))
    m["trace.spans"] = len(spans)
    return m


def traced(ops: list[dict], warmup: list[dict], seconds: float, work: Path, deadline: float,
           stem: str) -> dict:
    """Run the tracer child; returns its passes, per-layer metrics and spans file."""
    spec, result = work / "trace_spec.json", work / "trace_result.json"
    spans_path = OUTPUT / "results" / f"{stem}-spans.json"
    spec.write_text(json.dumps({"ops": ops, "warmup": warmup, "seconds": seconds,
                                "spans": str(spans_path)}))
    result.unlink(missing_ok=True)
    rec = Child(work, deadline).run([sys.executable, str(Path(__file__).parent / "tracer.py"),
                                     str(spec), str(result)])
    if rec["rc"] != 0 or not result.is_file():
        raise RuntimeError(f"tracer failed ({rec['reason'] or rec['rc']}): {rec['stderr'][-1000:]}")
    data = json.loads(result.read_text())
    spans = json.loads(spans_path.read_text())
    runs = defaultdict(list)
    for span in spans:
        runs[span["run"].partition(":")[0]].append(span)
    per_pass = [layer_metrics(ops, runs[str(index)]) for index in data["traced_passes"]]
    metrics = {}
    for key in per_pass[0]:
        values = [p[key] for p in per_pass]
        metrics[key] = statistics.median(values) if isinstance(values[0], float) else statistics.median_low(values)
    metrics["cli.import_s"] = data["import_s"]
    metrics["trace.overhead_s"] = (statistics.median(data["walls"]["traced"])
                                   - statistics.median(data["walls"]["untraced"]))
    return {"passes": data["passes"], "metrics": metrics, "walls": data["walls"],
            "tracer_rss_mb": rec["rss_kb"] / 1024, "spans_file": str(spans_path.relative_to(ROOT))}


def declared_metrics(trace: bool) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def run_workload(name: str, seed: int, seconds: float, trace: bool, tiny: bool = False) -> dict:
    """One benchmark run; returns the result object printed on the last line."""
    deadline = time.monotonic() + RUN_LIMIT_S
    work = OUTPUT / "work" / name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    (OUTPUT / "results").mkdir(parents=True, exist_ok=True)
    ops = workloads.build(name, seed, work, tiny=tiny)
    env = environment()
    stem = f"{name}-seed{seed}-trace{int(trace)}"
    report = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace, "tiny": tiny,
              "environment": env, "inputs": ops}
    if trace:
        warmup = workloads.build(name, seed, work, tiny=True)
        run = traced(ops, warmup, seconds, work, deadline, stem)
        passes, metrics = run["passes"], run["metrics"]
        report.update(walls=run["walls"], tracer_rss_mb=run["tracer_rss_mb"], spans_file=run["spans_file"])
        failures = evaluate(ops, passes, seed)
    else:
        measured = measure(ops, seconds, work, deadline)
        setup = measured["setup"]
        passes = measured["passes"]
        failures = evaluate(ops, passes, seed) + [
            {**f, "pass": "setup"} for f in evaluate([workloads.SETUP_OP] * len(setup), [setup], seed)]
        metrics, report["detail"] = end_to_end(ops, measured)
        report["records"] = [[{k: v for k, v in r.items() if k not in ("stdout", "stderr")}
                              for r in recs] for recs in passes + [setup]]
        passes = passes + [setup]
    attempted = sum(len(recs) for recs in passes)
    report.setdefault("detail", {})["failed_ratio"] = {
        "failed": len(failures), "attempted": attempted, "value": len(failures) / attempted}
    report["failures"] = failures
    units = declared_metrics(trace)
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(units))} do not match BENCHMARK.json")
    result = {"correct": not failures, "attempted": attempted, "failed": len(failures),
              "metrics": {key: {"value": metrics[key], "unit": units[key]} for key in units}}
    report["result"] = result
    (OUTPUT / "results" / f"{stem}.json").write_text(json.dumps(report, indent=1))
    shutil.rmtree(work, ignore_errors=True)
    return report


def print_report(report: dict) -> None:
    print(f"workload {report['workload']}  seed {report['seed']}  trace {int(report['trace'])}  "
          f"nproc {report['environment']['nproc']}  MemAvailable "
          f"{report['environment']['mem_available_kb']} kB")
    result = report["result"]
    for key, metric in result["metrics"].items():
        print(f"  {key:34s} {metric['value']:.6g} {metric['unit']}")
    for key, item in report.get("detail", {}).items():
        if key == "failed_ratio":
            print(f"  {key:34s} {item['value']:.6g} ({item['failed']} of {item['attempted']} ops)")
        elif isinstance(item, dict):
            tail = "".join(f"  {k} {v:.6g} s" for k, v in item.items() if k.startswith("p"))
            print(f"  {key:34s} median {item['median']:.6g} s  n {item['n']}{tail}")
        else:
            print(f"  {key:34s} {item:.6g} cells/s")
    for failure in report["failures"][:10]:
        print(f"  FAILED {' '.join(failure['argv'][:2])}: {failure['reason']}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload once on tiny grids, traced and untraced")
    args = parser.parse_args(argv)
    if not (SRC / "spinboost" / "cli.py").is_file():
        print(f"perfbench: no spinboost sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.smoke:
        bad = 0
        for name in workloads.WORKLOADS:
            for trace in (False, True):
                report = run_workload(name, args.seed, 0.0, trace, tiny=True)
                print_report(report)
                bad += not report["result"]["correct"]
        return 1 if bad else 0
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    report = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print_report(report)
    print(json.dumps(report["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
