"""The optishape benchmark.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; it runs ``src/optishape`` from
there.  Workloads (each a closed loop with one client: an operation starts
only after the previous one finished):

cli-mix        one fresh ``python -m optishape`` process per request, drawn
               in shuffled blocks of eight kinds (``solve`` of each of the
               seven problems, ``curve fence``) at scales log-uniform in
               1e-3..1e6.  After the timed loop an untimed edge probe runs
               every kind at the ends of the accepted scale range and at one
               seeded scale within it, and lists what fails.
verify-all     repeated ``python -m optishape verify --format json``.
library-sweep  one worker process imports optishape and warms up, then
               times seeded sweeps of public API calls in its CPU time
               (see libsweep.py); a sweep calls, for
               one seeded input each, every problem's closed and numeric
               solver, the ellipse at a varied radius and the fence curve.

With ``--trace 0`` the last output line carries the end-to-end metrics (the
median latency is averaged over windows of the run, see
stats.latency_summary); with
``--trace 1`` it carries the per-layer metrics of a traced run (see
tracer.py), which runs a fixed number of operations untraced and then
traced, plus one traced census of every command so each layer is reached.
Every operation's output is checked against check.py's references; a wrong
answer counts as a failed operation.  A full record of the run, with the
seed, the operation-list hash, the environment and every failure, goes to
``perfbench/out/``.  Stdlib only; optishape is never imported here.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import importlib.metadata
import itertools
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import threading
import time

import check
import ops
import stats
import tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")

WORKLOADS = ("cli-mix", "verify-all", "library-sweep")
# Set-ups per run, half before the timed loop and half after it, so that
# their median spans the run's swings in host speed.
SETUP_REPEATS = 5
# Operations per window of the windowed median (stats.latency_summary).
# cli-mix is one window: its requests are mostly interpreter start and
# import, which the host's speed swings move little, while the median of a
# short window moves with the window's mix of kinds.  verify-all's windows
# are about 2 s, library-sweep's about 0.2 s of sweeps.
WINDOW = {"cli-mix": None, "verify-all": 3, "library-sweep": 128}
# cli-mix runs at least this many requests, so the tail percentile (ten
# samples beyond it) falls inside the ellipse requests, the slowest eighth.
CLI_MIX_MIN_OPS = 12 * ops.BLOCK
CURVE_MAX_POINTS = 10001
# A traced run times a fixed number of operations, so that its counts
# repeat exactly: --seconds times this nominal rate, in whole blocks.
TRACE_RATE = {"cli-mix": 1.0, "verify-all": 0.2, "library-sweep": 40.0}
IMPORT_REPEATS = 5
OP_TIMEOUT_S = 120.0
FAILURES_KEPT = 20

WARM_UP = {"kind": "rectangle", "scale": 2400.0}
VERIFY = {"kind": "verify"}
PROBLEMS = ("rectangle", "box", "fence", "can", "can-dual", "rect-semicircle")
SUITES = check.VERIFY_SUITES

END_TO_END = (
    ("ops_per_s", "1/s"),
    ("latency_p50_s", "s"),
    ("latency_tail_s", "s"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)


def _per_layer_names() -> list[tuple[str, str]]:
    names = [
        ("interp.start_s", "s"), ("import.total_s", "s"), ("import.numpy_s", "s"),
        ("import.optishape_self_s", "s"),
        ("cli.calls", "count"), ("cli.main_s", "s"), ("cli.self_s", "s"),
    ]
    for p in PROBLEMS:
        names += [(f"problems.{p}.closed_s", "s"), (f"problems.{p}.numeric_s", "s")]
    names += [
        ("problems.ellipse-semicircle.solve_s", "s"), ("problems.fence_area_curve_s", "s"),
        ("problems.max_a_for_b.calls", "count"), ("problems.ellipse_fits.calls", "count"),
        ("problems.intersect_ellipse_circle.calls", "count"),
        ("optimize.golden.calls", "count"), ("optimize.golden.evaluations", "count"),
        ("optimize.golden.self_s", "s"),
        ("optimize.bisect.calls", "count"), ("optimize.bisect.pred_calls", "count"),
        ("optimize.bisect.self_s", "s"),
        ("optimize.grid_refine.calls", "count"), ("optimize.grid_refine.evaluations", "count"),
        ("optimize.grid_refine.self_s", "s"),
        ("optimize.central_diff.calls", "count"),
        ("geometry.calls", "count"), ("geometry.self_s", "s"),
        ("oracle.brute_min.calls", "count"), ("oracle.brute_min.evaluations", "count"),
        ("oracle.brute_min.self_s", "s"),
        ("oracle.brute_min_2d.evaluations", "count"), ("oracle.brute_min_2d.self_s", "s"),
    ]
    names += [(f"verify.{s}_s", "s") for s in SUITES]
    names += [
        ("verify.checks", "count"), ("verify.failed_checks", "count"),
        ("trace.overhead_ratio", "ratio"), ("trace.spans", "count"),
        ("edge.attempted", "count"), ("edge.failed", "count"),
    ]
    return names


PER_LAYER = _per_layer_names()

# Spans the per-layer metrics read; any the tracer did not find are recorded
# as absent in the run record.
REQUIRED_SPANS = (
    "cli.main",
    *(f"problems.solve_{p.replace('-', '_')}{suffix}" for p in PROBLEMS
      for suffix in ("", "_numeric")),
    "problems.solve_ellipse_semicircle", "problems.fence_area_curve",
    "problems.max_a_for_b", "problems.ellipse_fits", "problems.intersect_ellipse_circle",
    "optimize.golden_section_min", "optimize.bisect_boundary", "optimize.grid_refine_max",
    "optimize.central_diff", "oracle.brute_min", "oracle.brute_min_2d",
    *(f"verify.suite.{s}" for s in SUITES),
)


# --------------------------------------------------------------------------
# running the program


def child_env() -> dict:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def invoke(cmd: list[str]) -> dict:
    """Run one command to completion; wall time, output and peak RSS.

    The child is reaped with ``os.wait4`` so that its own resource usage,
    not the benchmark's, gives the peak RSS.
    """
    with tempfile.TemporaryFile(dir=OUT) as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err,
                                env=child_env(), cwd=ROOT)
        watchdog = threading.Timer(OP_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            out = proc.stdout.read()
        finally:
            proc.stdout.close()
            _, status, usage = os.wait4(proc.pid, 0)
            latency = time.perf_counter() - start
            watchdog.cancel()
            proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        return {"latency": latency, "code": proc.returncode,
                "out": out.decode(errors="replace"),
                "err": err.read().decode(errors="replace"),
                "rss_kb": usage.ru_maxrss}


def cli_cmd(op: dict) -> list[str]:
    return [sys.executable, "-m", "optishape", *ops.cli_argv(op)]


def traced_cmd(op: dict, spans_path: str, op_id: int) -> list[str]:
    return [sys.executable, os.path.join(HERE, "traced_cli.py"), spans_path, str(op_id),
            *ops.cli_argv(op)]


class Ledger:
    """Attempted and failed operations of a run, with the failing argv."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: list[dict] = []

    def record(self, op: dict, result: dict) -> str | None:
        """Check one invocation; returns the failure reason, if any."""
        self.attempted += 1
        reason = check.check_cli(op, result["code"], result["out"], result["err"])
        if reason:
            self.failed += 1
            if len(self.failures) < FAILURES_KEPT:
                self.failures.append({"argv": ops.cli_argv(op), "reason": reason})
        return reason

    def merge(self, summary: dict) -> None:
        """Add the counts a library-sweep worker reported."""
        self.attempted += summary["attempted"]
        self.failed += summary["failed"]
        self.failures += summary["failures"][:FAILURES_KEPT - len(self.failures)]


def cli_ops(workload: str, seed: int):
    """Endless operation stream of a CLI workload, in whole blocks."""
    if workload == "verify-all":
        while True:
            yield [VERIFY]
    yield from ops.blocks(seed, CURVE_MAX_POINTS)


def take(workload: str, seed: int, count: int) -> list[dict]:
    return list(itertools.islice(itertools.chain.from_iterable(cli_ops(workload, seed)), count))


def cli_setup(workload: str, ledger: Ledger, repeats: int) -> list[float]:
    op = VERIFY if workload == "verify-all" else WARM_UP
    times = []
    for _ in range(repeats):
        result = invoke(cli_cmd(op))
        ledger.record(op, result)
        times.append(result["latency"])
    return times


def cli_timed(workload: str, seed: int, seconds: float, ledger: Ledger) -> dict:
    latencies, rss, done = [], [], []
    by_kind: dict[str, list[float]] = {}
    min_ops = CLI_MIX_MIN_OPS if workload == "cli-mix" else 1
    deadline = time.perf_counter() + seconds
    for block in cli_ops(workload, seed):
        for op in block:
            result = invoke(cli_cmd(op))
            ledger.record(op, result)
            latencies.append(result["latency"])
            by_kind.setdefault(op["kind"], []).append(result["latency"])
            rss.append(result["rss_kb"])
            done.append(op)
        if time.perf_counter() >= deadline and len(done) >= min_ops:
            break
    summary = stats.latency_summary(latencies, WINDOW[workload])
    summary["peak_rss_kb"] = max(rss)
    summary["ops_digest"] = ops.digest(done)
    summary["latency_p50_by_kind_s"] = {k: statistics.median(v) for k, v in by_kind.items()}
    return summary


def edge_probe(seed: int) -> dict:
    """Every kind at the extremes of the accepted range, untimed."""
    probe = ops.edge_probe(seed)
    ledger = Ledger()
    with concurrent.futures.ThreadPoolExecutor(max_workers=2) as pool:
        results = list(pool.map(lambda op: invoke(cli_cmd(op)), probe))
    failing: dict[str, list] = {}
    for op, result in zip(probe, results):
        reason = ledger.record(op, result)
        if reason:
            failing.setdefault(op["kind"], []).append(
                {"argv": ops.cli_argv(op), "reason": reason})
    return {"attempted": ledger.attempted, "failed": ledger.failed,
            "fail_ratio": ledger.failed / ledger.attempted,
            "ops_digest": ops.digest(probe), "failing_by_kind": failing}


def libsweep(*args) -> dict:
    result = invoke([sys.executable, os.path.join(HERE, "libsweep.py"), *map(str, args)])
    if result["code"] != 0:
        raise RuntimeError(f"library-sweep worker exit {result['code']}:\n{result['err']}")
    return json.loads(result["out"].splitlines()[-1])


# --------------------------------------------------------------------------
# untraced run: end-to-end metrics


def run_plain(workload: str, seed: int, seconds: float, record: dict) -> Ledger:
    ledger = Ledger()
    before = SETUP_REPEATS // 2
    if workload == "library-sweep":
        setups = [libsweep("setup", seed)["setup_s"] for _ in range(before)]
        summary = libsweep("timed", seed, seconds)
        setups.append(summary["setup_s"])
        setups += [libsweep("setup", seed)["setup_s"]
                   for _ in range(SETUP_REPEATS - len(setups))]
        ledger.merge(summary)
        summary.update(stats.latency_summary(summary.pop("latencies"), WINDOW[workload]))
    else:
        setups = cli_setup(workload, ledger, before)
        summary = cli_timed(workload, seed, seconds, ledger)
        setups += cli_setup(workload, ledger, SETUP_REPEATS - before)
        if workload == "cli-mix":
            record["edge_probe"] = edge_probe(seed)
    record["setup_runs_s"] = setups
    record["timed"] = summary
    record["metrics"] = {
        "ops_per_s": summary["ops_per_s"],
        "latency_p50_s": summary["latency_p50_s"],
        "latency_tail_s": summary["tail"]["value"],
        "peak_rss_mb": summary["peak_rss_kb"] / 1024.0,
        "setup_s": statistics.median(setups),
    }
    return ledger


# --------------------------------------------------------------------------
# traced run: per-layer metrics


def import_layer() -> dict:
    """Interpreter start and ``import optishape`` in fresh interpreters."""
    start, total, numpy_s, self_s = [], [], [], []
    timed_import = ("import time; t = time.perf_counter(); import optishape; "
                    "print(time.perf_counter() - t)")
    for _ in range(IMPORT_REPEATS):
        start.append(_ok(invoke([sys.executable, "-c", "pass"]))["latency"])
        total.append(float(_ok(invoke([sys.executable, "-c", timed_import]))["out"]))
        report = _ok(invoke([sys.executable, "-X", "importtime", "-c", "import optishape"]))
        cumulative, own = parse_importtime(report["err"])
        numpy_s.append(cumulative.get("numpy", 0.0))
        self_s.append(sum(v for k, v in own.items() if k.split(".")[0] == "optishape"))
    return {"interp.start_s": statistics.median(start),
            "import.total_s": statistics.median(total),
            "import.numpy_s": statistics.median(numpy_s),
            "import.optishape_self_s": statistics.median(self_s)}


def _ok(result: dict) -> dict:
    if result["code"] != 0:
        raise RuntimeError(f"probe exit {result['code']}:\n{result['err']}")
    return result


def parse_importtime(text: str) -> tuple[dict, dict]:
    """Cumulative and self seconds per module from ``-X importtime``."""
    cumulative, own = {}, {}
    for line in text.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        fields = line[len("import time:"):].split("|")
        try:
            self_us, cum_us = int(fields[0]), int(fields[1])
        except ValueError:
            continue  # the header line
        name = fields[2].strip()
        cumulative[name] = cum_us / 1e6
        own[name] = self_us / 1e6
    return cumulative, own


def run_traced(workload: str, seed: int, seconds: float, record: dict) -> Ledger:
    ledger = Ledger()
    spans_dir = os.path.join(OUT, f"spans-{workload}-seed{seed}")
    os.makedirs(spans_dir, exist_ok=True)
    for name in os.listdir(spans_dir):
        os.remove(os.path.join(spans_dir, name))
    profile = tracer.Profile()
    verify_counts = [0, 0]

    def traced(op: dict, op_id: int) -> dict:
        path = os.path.join(spans_dir, f"op{op_id}.json")
        result = invoke(traced_cmd(op, path, op_id))
        ledger.record(op, result)
        profile.add_file(path)
        if op["kind"] == "verify" and result["code"] == 0:
            checks = check.parse_json(result["out"])["checks"]
            verify_counts[0] += len(checks)
            verify_counts[1] += sum(1 for c in checks if c["passed"] is not True)
        return result

    cli_setup(workload, ledger, 1)
    layer = import_layer()
    census = [VERIFY, *next(ops.blocks(seed, CURVE_MAX_POINTS))]
    for i, op in enumerate(census):
        traced(op, -1 - i)

    block = ops.BLOCK if workload == "cli-mix" else 1
    count = max(1, round(seconds * TRACE_RATE[workload] / block)) * block
    if workload == "library-sweep":
        path = os.path.join(spans_dir, "library.json")
        summary = libsweep("traced", seed, count, path)
        profile.add_file(path)
        ledger.merge(summary)
        plain_s, traced_s, digest = summary["plain_s"], summary["traced_s"], summary["ops_digest"]
    else:
        todo = take(workload, seed, count)
        plain = []
        for op in todo:
            result = invoke(cli_cmd(op))
            ledger.record(op, result)
            plain.append(result["latency"])
        plain_s = sum(plain)
        traced_s = sum(traced(op, i)["latency"] for i, op in enumerate(todo))
        digest = ops.digest(todo)
    edge = edge_probe(seed) if workload == "cli-mix" else None
    record["traced"] = {"ops": count, "ops_digest": digest, "plain_s": plain_s,
                        "traced_s": traced_s}
    if edge:
        record["edge_probe"] = edge
    metrics = dict(layer)
    metrics.update(layer_metrics(profile, verify_counts))
    metrics["trace.overhead_ratio"] = traced_s / plain_s
    metrics["edge.attempted"] = edge["attempted"] if edge else 0
    metrics["edge.failed"] = edge["failed"] if edge else 0
    record["absent"] = sorted(set(REQUIRED_SPANS) - profile.wrapped)
    record["metrics"] = metrics
    return ledger


def layer_metrics(profile: tracer.Profile, verify_counts: list[int]) -> dict:
    """Per-layer figures from merged spans; a name never called reads 0."""

    def median(name: str) -> float:
        durations = profile.durations.get(name)
        return statistics.median(durations) if durations else 0.0

    def calls(name: str) -> int:
        return profile.calls.get(name, 0)

    def count(key: str) -> int:
        return profile.counts.get(key, 0)

    m = {
        "cli.calls": profile.layer_calls.get("cli", 0),
        "cli.main_s": median("cli.main"),
        "cli.self_s": profile.layer_self_s.get("cli", 0.0),
    }
    for p in PROBLEMS:
        stem = "problems.solve_" + p.replace("-", "_")
        m[f"problems.{p}.closed_s"] = median(stem)
        m[f"problems.{p}.numeric_s"] = median(stem + "_numeric")
    m["problems.ellipse-semicircle.solve_s"] = median("problems.solve_ellipse_semicircle")
    m["problems.fence_area_curve_s"] = median("problems.fence_area_curve")
    for name in ("max_a_for_b", "ellipse_fits", "intersect_ellipse_circle"):
        m[f"problems.{name}.calls"] = calls(f"problems.{name}")
    golden, bisect_, grid = ("optimize.golden_section_min", "optimize.bisect_boundary",
                             "optimize.grid_refine_max")
    m.update({
        "optimize.golden.calls": calls(golden),
        "optimize.golden.evaluations": count(golden + ".evaluations"),
        "optimize.golden.self_s": profile.self_s.get(golden, 0.0),
        "optimize.bisect.calls": calls(bisect_),
        "optimize.bisect.pred_calls": count(bisect_ + ".arg_calls"),
        "optimize.bisect.self_s": profile.self_s.get(bisect_, 0.0),
        "optimize.grid_refine.calls": calls(grid),
        "optimize.grid_refine.evaluations": count(grid + ".evaluations"),
        "optimize.grid_refine.self_s": profile.self_s.get(grid, 0.0),
        "optimize.central_diff.calls": calls("optimize.central_diff"),
        "geometry.calls": profile.layer_calls.get("geometry", 0),
        "geometry.self_s": profile.layer_self_s.get("geometry", 0.0),
        "oracle.brute_min.calls": calls("oracle.brute_min"),
        "oracle.brute_min.evaluations": count("oracle.brute_min.arg_calls"),
        "oracle.brute_min.self_s": profile.self_s.get("oracle.brute_min", 0.0),
        "oracle.brute_min_2d.evaluations": count("oracle.brute_min_2d.arg_calls"),
        "oracle.brute_min_2d.self_s": profile.self_s.get("oracle.brute_min_2d", 0.0),
    })
    for s in SUITES:
        m[f"verify.{s}_s"] = median(f"verify.suite.{s}")
    m["verify.checks"], m["verify.failed_checks"] = verify_counts
    m["trace.spans"] = profile.spans
    return m


# --------------------------------------------------------------------------


def environment() -> dict:
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = None
    return {"python": platform.python_version(), "platform": platform.platform(),
            "nproc": len(os.sched_getaffinity(0)), "numpy": numpy_version}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "optishape", "__init__.py")):
        print(f"error: no optishape source under {ROOT}/src", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": environment()}
    run = run_traced if args.trace else run_plain
    ledger = run(args.workload, args.seed, args.seconds, record)
    record.update(attempted=ledger.attempted, failed=ledger.failed,
                  fail_ratio=ledger.failed / ledger.attempted, failures=ledger.failures)
    path = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as handle:
        json.dump(record, handle, indent=1)

    units = dict(PER_LAYER if args.trace else END_TO_END)
    metrics = {name: {"value": record["metrics"][name], "unit": unit}
               for name, unit in units.items()}
    for name, m in metrics.items():
        print(f"{name:40s} {m['value']:.6g} {m['unit']}", file=sys.stderr)
    if not args.trace:
        timed = record["timed"]
        t = timed["tail"]
        print(f"latency_tail_s is p{t['percentile']}: {t['beyond']} of {t['samples']}"
              " samples lie beyond it", file=sys.stderr)
        print(f"latency_p50_s is the mean median of {len(timed['window_p50_s'])} windows"
              f" of {timed['window_ops']} ops; whole-run p50"
              f" {timed['run_latency_p50_s']:.6g} s", file=sys.stderr)
    if "edge_probe" in record:
        edge = record["edge_probe"]
        print(f"edge probe (untimed): {edge['failed']} of {edge['attempted']} failed,"
              f" kinds {', '.join(edge['failing_by_kind'])}", file=sys.stderr)
    print(f"fail_ratio {record['fail_ratio']:.6g} ({ledger.failed}/{ledger.attempted});"
          f" record: {os.path.relpath(path, ROOT)}", file=sys.stderr)
    print(json.dumps({"correct": ledger.failed == 0, "attempted": ledger.attempted,
                      "failed": ledger.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
