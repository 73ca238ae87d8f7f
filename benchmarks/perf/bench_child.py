"""One measured pass in a fresh interpreter.

``python3 bench_child.py REQUEST_JSON`` imports the simulator, sets the
workload up, runs its ops (traced or not) and prints one JSON line: the
pass result, its set-up time and the process's peak RSS.  A fresh
process per pass means no process-global memo carries across passes,
just as every ``repro evaluate`` starts cold.

Set-up time runs from the parent's spawn instant (``time.monotonic``,
one clock system-wide on Linux) to the end of set-up, so it covers
interpreter start, imports and the workload's own set-up.  The host
calibration kernel (``bench_calibrate``) runs before and after set-up
(its own time is left out of set-up), after the ops and, in untraced
passes, between ops every half second.
"""

from __future__ import annotations

import contextlib
import json
import resource
import sys
import time


def main(request: dict) -> dict:
    from bench_calibrate import HostSpeed

    host = HostSpeed()
    began = time.monotonic()
    host.sample()
    calibrating_s = time.monotonic() - began

    sys.path.insert(0, request["src"])
    import bench_ops
    from bench_trace import Tracer
    from bench_workloads import Workload

    workload = Workload.from_dict(request["workload"])
    runner = bench_ops.prepare(workload, request["seed"], request["workdir"])
    setup_s = time.monotonic() - request["spawned_at"] - calibrating_s
    setup_began, setup_ended = host.samples[0][0], time.perf_counter()
    host.sample()
    budget = {"budget_s": request.get("budget_s"), "count": request.get("count")}
    tracer = Tracer() if request["trace"] else None
    ends: list[float] = []

    def between_ops(name: str) -> None:
        ends.append(time.perf_counter())
        if tracer is not None:
            tracer.op_done(name)
        else:
            host.maybe_sample()

    with tracer if tracer is not None else contextlib.nullcontext():
        result = runner.run(on_op=between_ops, **budget)
    ends += [time.perf_counter()] * (len(result.ops) - len(ends))
    host.sample()
    return {
        "setup_s": setup_s,
        "setup_factor": host.factor(setup_began, setup_ended),
        "op_factors": [
            host.factor(end - op.seconds, end) for op, end in zip(result.ops, ends)
        ],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "result": result.to_dict(),
        "trace": tracer.summary() if tracer is not None else None,
    }


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
