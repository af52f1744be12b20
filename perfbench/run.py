"""chi2norm benchmark.

    python3 perfbench/run.py --workload {constants,divergence,session}
                             --seed N --seconds S --trace {0,1}

Run from the root of a checkout.  The library is imported from ``src/`` of
that checkout; there is nothing to build.  Each pass of a workload runs its
seeded op list in a fresh interpreter (``worker.py``) with BLAS and OpenMP
pinned to one thread.  Passes repeat until the next one would end after
``--seconds``; there is always at least one (two with ``--trace 1``: one
untraced, one traced, alternating).  Every time is reported at the reference
speed of ``speed.py``: a pass scales its times by the factor its own speed
probes give, and each import probe by the probes run around it.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.  A readable summary, including every
failing op with its exception type, goes to stderr.  The exit code is not 0,
and no result is printed, when the source tree is missing, a worker dies or
the metrics do not match the names and units in ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import inputs
import speed

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
SETUP_PROBES = 7
SPEED_PROBES = 5  # speed probes before and after each import probe
RUN_CAP_S = 170.0  # every run must end within 180 s
THREAD_PINS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
PROBE = ("import time, chi2norm; print(time.monotonic_ns()); "
         "print(chi2norm.__file__)")


class BenchError(Exception):
    pass


def _env() -> dict[str, str]:
    env = dict(os.environ)
    env.update({pin: "1" for pin in THREAD_PINS})
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


def _run(argv: list[str], env: dict, stdin: str, deadline: float):
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("run time cap reached")
    try:
        proc = subprocess.run(argv, input=stdin, env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError("run time cap reached") from None
    if proc.returncode != 0:
        raise BenchError(f"{argv[-1]} exited with {proc.returncode}:\n"
                         + proc.stderr[-2000:])
    return proc.stdout


def _import_seconds(env: dict, deadline: float) -> float:
    """Fresh interpreter start to ``import chi2norm`` done, at the reference
    speed.

    Both clocks are CLOCK_MONOTONIC, which Linux shares across processes.
    """
    probes = [speed.probe() for _ in range(SPEED_PROBES)]
    t0 = time.monotonic_ns()
    done_ns, path = _run([sys.executable, "-c", PROBE], env, "",
                         deadline).split()
    if Path(path).resolve().parent != (SRC / "chi2norm").resolve():
        raise BenchError(f"chi2norm imported from {path}")
    probes += [speed.probe() for _ in range(SPEED_PROBES)]
    return (int(done_ns) - t0) * 1e-9 * speed.factor(probes)


def _pass(ops: list[dict], traced: bool, workload: str, env: dict,
          deadline: float) -> dict:
    spans = str(OUT / f"spans-{workload}.jsonl") if traced else None
    stdin = json.dumps({"ops": ops, "trace": traced, "spans_path": spans})
    out = _run([sys.executable, str(ROOT / "perfbench" / "worker.py")], env,
               stdin, deadline)
    return json.loads(out.strip().splitlines()[-1])


def rank_percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; ``inf`` marks a failed op, so a percentile
    that lands on one comes back as ``inf`` (missing)."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def _wall(p: dict) -> float:
    return p["wall_s"] * p["speed_factor"]


def _end_to_end(passes: list[dict], setup: list[float]) -> tuple[dict, dict]:
    wall = statistics.median(_wall(p) for p in passes)
    latencies = [r[1] * p["speed_factor"] if r[2] else math.inf
                 for p in passes for r in p["ops"]]
    attempted = len(latencies)
    failed = sum(1 for v in latencies if v == math.inf)
    metrics = {"setup_s": (statistics.median(setup), "s"),
               "wall_s": (wall, "s")}
    notes = {}
    for name, q in (("op_p50_ms", 0.5), ("op_p90_ms", 0.9)):
        value = rank_percentile(latencies, q)
        if value == math.inf:
            # a failed op misses every latency limit; the largest one this
            # run can state is the time of a whole pass
            value = wall
            notes[name] = "lands on a failed op: missing, reported as wall_s"
        metrics[name] = (value * 1e3, "ms")
    metrics["ok_frac"] = ((attempted - failed) / attempted, "ratio")
    notes["fail_frac"] = f"{failed / attempted:.4f} ({failed} of {attempted})"
    return metrics, notes


def _per_layer(untraced: list[dict], traced: list[dict]) -> dict:
    metrics = {}
    for name in traced[0]["layers"]:
        if name.endswith("self_s"):
            value = statistics.median(p["layers"][name] * p["speed_factor"]
                                      for p in traced)
            unit = "s"
        elif name.endswith("ratio"):
            value = statistics.median(p["layers"][name] for p in traced)
            unit = "ratio"
        else:
            value = int(statistics.median(p["layers"][name] for p in traced))
            unit = "count"
        metrics[name] = (value, unit)
    overhead = (statistics.median(_wall(p) for p in traced)
                - statistics.median(_wall(p) for p in untraced))
    metrics["trace.overhead_s"] = (overhead, "s")
    return metrics


def _smoke_check(metrics: dict, trace: bool) -> None:
    """Every metric BENCHMARK.json declares is printed, with its unit."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = {m["name"]: m["unit"]
                for m in spec["per_layer" if trace else "end_to_end"]}
    printed = {name: unit for name, (_, unit) in metrics.items()}
    if printed != declared:
        raise BenchError(f"metrics {printed} do not match BENCHMARK.json "
                         f"{declared}")


def _summary(args, passes: list[dict], metrics: dict, notes: dict) -> None:
    err = sys.stderr
    n_ops = len(passes[0]["ops"])
    err.write(f"workload={args.workload} seed={args.seed} "
              f"passes={len(passes)} ops/pass={n_ops} "
              f"samples={n_ops * len(passes)}\n"
              f"  raw pass walls (s)={[round(p['wall_s'], 3) for p in passes]}"
              f"\n  speed factors={[round(p['speed_factor'], 3) for p in passes]}"
              f"\n")
    for name, (value, unit) in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        err.write(f"  {name:40s} {value:.6g} {unit}{note}\n")
    if "fail_frac" in notes:
        err.write(f"  {'fail_frac':40s} {notes['fail_frac']}\n")
    seen = set()
    for p in passes:
        for label, _, ok, kind, detail in p["ops"]:
            if not ok and label not in seen:
                seen.add(label)
                err.write(f"  FAILED {kind}: {label}: {detail}\n")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=inputs.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + RUN_CAP_S
    if not (SRC / "chi2norm" / "__init__.py").is_file():
        sys.stderr.write(f"no chi2norm source tree under {SRC}\n")
        return 2

    trace = bool(args.trace)
    env = _env()
    ops = inputs.make_ops(args.workload, args.seed)
    try:
        setup = []
        if trace:
            OUT.mkdir(parents=True, exist_ok=True)
        else:
            _import_seconds(env, deadline)  # compiles bytecode on a new tree
            setup = [_import_seconds(env, deadline)
                     for _ in range(SETUP_PROBES)]
        start = time.monotonic()
        untraced: list[dict] = []
        traced: list[dict] = []
        while True:
            tracing = trace and len(untraced) > len(traced)
            t0 = time.monotonic()
            result = _pass(ops, tracing, args.workload, env, deadline)
            (traced if tracing else untraced).append(result)
            now = time.monotonic()
            enough = bool(traced) or not trace
            if enough and (now - start + (now - t0) > args.seconds
                           or now + (now - t0) > deadline):
                break
        passes = untraced + traced
        if trace:
            metrics, notes = _per_layer(untraced, traced), {}
        else:
            metrics, notes = _end_to_end(untraced, setup)
        _smoke_check(metrics, trace)
    except BenchError as exc:
        sys.stderr.write(f"benchmark failed: {exc}\n")
        return 1

    _summary(args, passes, metrics, notes)
    records = [r for p in passes for r in p["ops"]]
    print(json.dumps({
        "correct": not any(r[3] == "WrongOutput" for r in records),
        "attempted": len(records),
        "failed": sum(1 for r in records if not r[2]),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
