"""library-sweep worker: import optishape, warm up, then time sweeps of
public API calls in this one process.

Usage:
    python libsweep.py setup SEED
    python libsweep.py timed SEED SECONDS
    python libsweep.py traced SEED SWEEPS SPANS_PATH

``import optishape`` is timed before anything else is imported, so the
set-up time carries the whole import.  Sweeps are timed in this thread's
CPU time: the calls do no I/O and never wait, so on an idle core that is
their wall time, while on a shared host wall time adds whatever other
processes take from the core (3-6% of a run on a shared 2-core host, in
slices of several milliseconds, which swamped the slowest sweeps).  Every call's result is checked
against check.py's references.  The last line of output is a JSON summary.
"""

import time

_start = time.perf_counter()
import optishape  # noqa: E402

IMPORT_S = time.perf_counter() - _start

import hashlib  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from array import array  # noqa: E402

import check  # noqa: E402
import ops  # noqa: E402

MAX_POINTS = 101
FAILURES_KEPT = 20


def prepare(op: dict):
    """(closed solver, numeric solver or None, args) for one operation."""
    kind, scale = op["kind"], op["scale"]
    if kind == "curve":
        layout = optishape.FenceLayout(op["v"], op["h"])
        return optishape.fence_area_curve, None, (scale, layout, op["points"])
    if kind == "ellipse-semicircle":
        return optishape.solve_ellipse_semicircle, None, (scale,)
    stem = "solve_" + kind.replace("-", "_")
    args = (scale,)
    if kind == "fence":
        args = (scale, optishape.FenceLayout(op["v"], op["h"]))
    elif kind in ("can", "can-dual"):
        base = op["base"]
        shape = (optishape.Shape.circle() if base == "circle"
                 else optishape.Shape.regular_polygon(base))
        args = (scale, shape)
    return getattr(optishape, stem), getattr(optishape, stem + "_numeric"), args


def _fields(result, ref):
    if isinstance(ref, dict):
        return {key: _fields(getattr(result, key), sub) for key, sub in ref.items()}
    if isinstance(ref, list):
        return [_fields(item, ref[0]) for item in result]
    return result


def check_result(op: dict, closed, numeric) -> str | None:
    if op["kind"] == "curve":
        return check.check_curve_rows(op, closed)
    ref = check.reference(op)
    for label, result in (("closed", closed), ("numeric", numeric)):
        if result is None:
            continue
        try:
            got = _fields(result, ref)
        except (AttributeError, TypeError) as exc:
            return f"{label}: {exc}"
        reason = check.compare(got, ref, label)
        if reason:
            return reason
    return None


class Loop:
    """Runs sweeps one after another, timing and checking each.

    A sweep is one block of operations, one of each kind, called back to
    back; it is the unit that is timed, in thread CPU time.  Timing single
    calls instead would put the median on the border between two kinds'
    costs, where it jumps.
    """

    def __init__(self) -> None:
        self.latencies = array("d")
        self.failed = 0
        self.failures: list[dict] = []
        self.hash = hashlib.sha256()

    def run(self, block: list[dict]) -> None:
        calls = [prepare(op) for op in block]
        results = []
        clock = time.thread_time
        t0 = clock()
        for closed, numeric, args in calls:
            results.append((closed(*args), numeric(*args) if numeric is not None else None))
        self.latencies.append(clock() - t0)
        reasons = []
        for op, (a, b) in zip(block, results):
            self.hash.update(ops.encode(op))
            reason = check_result(op, a, b)
            if reason:
                reasons.append({"op": op, "reason": reason})
        if reasons:
            self.failed += 1
            self.failures += reasons[:FAILURES_KEPT - len(self.failures)]

    def summary(self) -> dict:
        return {"attempted": len(self.latencies), "failed": self.failed,
                "failures": self.failures, "ops_digest": self.hash.hexdigest()[:16]}


def warm_up() -> float:
    start = time.perf_counter()
    Loop().run(next(ops.blocks(0, MAX_POINTS)))
    return IMPORT_S + time.perf_counter() - start


def main(argv: list[str]) -> dict:
    mode, seed = argv[0], int(argv[1])
    result = {"import_s": IMPORT_S, "setup_s": warm_up()}
    if mode == "setup":
        return result
    gen = ops.blocks(seed, MAX_POINTS)
    loop = Loop()
    if mode == "timed":
        deadline = time.perf_counter() + float(argv[2])
        start = time.perf_counter()
        for block in gen:
            loop.run(block)
            if time.perf_counter() >= deadline:
                break
        elapsed = time.perf_counter() - start
        # Read before the summary below allocates anything sizeable.
        result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        result.update(loop.summary())
        result["latencies"] = list(loop.latencies)
        result["wall_s"] = elapsed
        return result
    # traced: the same operations untraced, then traced
    import tracer

    count, path = int(argv[2]), argv[3]
    todo = list(itertools.islice(gen, count))
    for block in todo:
        loop.run(block)
    trace = tracer.Tracer()
    trace.install("optishape")
    traced = Loop()
    for i, block in enumerate(todo):
        trace.op = i
        traced.run(block)
    trace.dump(path)
    result.update(loop.summary())
    result["attempted"] += len(traced.latencies)
    result["failed"] += traced.failed
    result["failures"] += traced.failures
    result["plain_s"] = sum(loop.latencies)
    result["traced_s"] = sum(traced.latencies)
    return result


if __name__ == "__main__":
    print(json.dumps(main(sys.argv[1:])))
