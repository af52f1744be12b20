"""One pass of a workload in a fresh interpreter.

Reads ``{"ops": [...], "trace": bool, "spans_path": str | null}`` as JSON on
stdin, runs the ops as a single-threaded closed loop (each call starts after
the previous one returned), checks every output with the clock stopped, and
prints one JSON line with the per-op records on stdout.  An op that raises,
whatever the exception, or fails its check is recorded and the pass goes on.
Between calls, also with the clock stopped, ``speed.Probes`` samples the
host's speed; the pass reports the factor that puts its times on the
reference speed, and the raw times.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    spec = json.load(sys.stdin)
    import chi2norm

    expected = (ROOT / "src" / "chi2norm").resolve()
    if Path(chi2norm.__file__).resolve().parent != expected:
        sys.stderr.write(f"chi2norm imported from {chi2norm.__file__}, "
                         f"not from {expected}\n")
        return 2
    import ops as oplib  # perfbench/ is sys.path[0]
    import speed

    tracer = None
    if spec["trace"]:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()

    out = sys.stdout
    sys.stdout = sys.stderr  # library prints must not reach the result line
    ctx: dict = {}
    records = []
    clock = time.perf_counter
    probes = speed.Probes()
    for op in spec["ops"]:
        call, check = oplib.OPS[op["op"]]
        t0 = clock()
        try:
            result = call(op, ctx)
        except Exception as exc:  # any failure counts; the pass goes on
            elapsed = clock() - t0
            records.append([op["label"], elapsed, False, type(exc).__name__,
                            str(exc)[:200]])
            probes.after_call()
            continue
        elapsed = clock() - t0
        if tracer is not None:
            tracer.active = False
        try:
            reason = check(op, ctx, result)
        except Exception as exc:
            reason = f"check raised {type(exc).__name__}: {exc}"
        if tracer is not None:
            tracer.active = True
        records.append([op["label"], elapsed, reason is None,
                        None if reason is None else "WrongOutput", reason])
        probes.after_call()

    payload = {"wall_s": sum(r[1] for r in records), "ops": records,
               "speed_factor": probes.factor()}
    if tracer is not None:
        tracer.active = False
        payload["layers"] = tracer.layer_metrics()
        if spec.get("spans_path"):
            tracer.write(spec["spans_path"])
    out.write(json.dumps(payload) + "\n")
    out.flush()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
