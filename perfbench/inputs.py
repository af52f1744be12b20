"""Seeded op lists for the three workloads.

Every input the library sees is generated here from ``--seed`` through
``numpy.random.default_rng``; the worker only replays the list.  An op is a
JSON-ready dict with an ``op`` kind, a human ``label`` and its arguments.
"""

from __future__ import annotations

import math

import numpy as np

WORKLOADS = ("constants", "divergence", "session")

# constants: seeded C_of_p points per index set.  The two sets share one
# stratified grid of 2 * SEEDED_P_PER_SET log-uniform strata, basic taking the
# even strata and symmetric the odd ones.  C_of_p costs roughly 1/p, so a
# plain random draw would make the op percentiles swing with the seed; the
# strata keep every order statistic inside a narrow band of p.  The grid
# starts at 1e-3, not at the pinned 1e-4: below 1e-3 one op takes 0.3-1.5 s,
# so a pass could hold only a few dozen ops, and the op percentiles of a run
# would rest on one or two samples each.  The pinned ops cover p = 1e-4.
P_LO, P_HI = 1e-3, 0.5
SEEDED_P_PER_SET = 128
PINNED_SMALL_P = 1e-4
COLD_BOUND_N = 100

MIXTURE_HALF_WIDTHS = ("1/2", "1", "3/2", "2", "3")
# the sum mixture is 1:1 with half-widths 1 and h.  chi2_direct fails on the
# n = 6 sum for both of these h, so every seed has the same failing ops and
# two sets of runs count the same share of failures
SUM_MIXTURE_HALF_WIDTHS = ("1/2", "2")
MGF_T_MAX, MGF_T_STEPS = 10.0, 40

# session: theorem_bound and corollary_bound for every n up to this value.
# Computing the levels costs about n^2; at 200 a pass took 9-12 s, so a run
# held two passes and its medians rested on two samples
SESSION_MAX_N = 150
CHI2_LO, CHI2_HI = 0.05, 0.6

README_COMMANDS = (
    "chi2 --dist uniform --method both",
    "table1",
    "constants --set basic --p 0.25",
    "bound --n 4 --avg-chi2 0.3285 --symmetric",
    "subgaussian threshold --set sym",
    "subgaussian check --dist uniform --t-max 10 --t-steps 40",
    "plotdata --x-max 20 --steps 200",
    "verify",
    "verify stein --dist uniform --n 3 --max-order 24",
)


def _chi2_values(rng: np.random.Generator, n: int) -> list[float]:
    return [float(v) for v in rng.uniform(CHI2_LO, CHI2_HI, n)]


def _constants_ops(rng: np.random.Generator) -> list[dict]:
    ops: list[dict] = [{"op": "constants_table", "label": "constants_table(2, 10)"}]
    for kind in ("basic", "symmetric"):
        ops.append({"op": "C_of_p", "set": kind, "p": PINNED_SMALL_P,
                    "pinned": True,
                    "label": f"C_of_p({kind}, {PINNED_SMALL_P:g}) pinned"})
    strata = 2 * SEEDED_P_PER_SET
    u = (np.arange(strata) + rng.random(strata)) / strata
    log_p = math.log(P_LO) + u * (math.log(P_HI) - math.log(P_LO))
    for i, lp in enumerate(log_p):
        kind = "basic" if i % 2 == 0 else "symmetric"
        p = float(math.exp(lp))
        ops.append({"op": "C_of_p", "set": kind, "p": p, "pinned": False,
                    "label": f"C_of_p({kind}, {p:.4g})"})
    for symmetric in (False, True):
        ops.append({"op": "theorem_bound", "n": COLD_BOUND_N,
                    "symmetric": symmetric,
                    "chi2s": _chi2_values(rng, COLD_BOUND_N),
                    "label": f"theorem_bound({COLD_BOUND_N}, "
                             f"symmetric={symmetric}) cold"})
    # a seeded order spreads cheap and costly ops over the whole pass, so
    # every part of the latency distribution sees the same host speed
    return [ops[i] for i in rng.permutation(len(ops))]


def _mixture_name(rng: np.random.Generator) -> str:
    h1, h2 = rng.choice(len(MIXTURE_HALF_WIDTHS), size=2, replace=False)
    w1, w2 = rng.integers(1, 4, size=2)
    return (f"mixture:{w1}:{MIXTURE_HALF_WIDTHS[h1]},"
            f"{w2}:{MIXTURE_HALF_WIDTHS[h2]}")


def _divergence_ops(rng: np.random.Generator) -> list[dict]:
    # non-integer beta shape in (1.2, 1.5): shapes near 1/2 cost minutes per
    # chi2_both (155 s at 0.55), this band costs 0.7-0.8 s
    shape = f"{int(rng.integers(1201, 1500))}/1000"
    mixtures: list[str] = []
    while len(mixtures) < 3:
        name = _mixture_name(rng)
        if name not in mixtures:
            mixtures.append(name)
    sum_mixture = ("mixture:1:1,1:" + SUM_MIXTURE_HALF_WIDTHS[
        int(rng.integers(0, len(SUM_MIXTURE_HALF_WIDTHS)))])
    ops: list[dict] = []
    for name in ["uniform", "normal", "beta:2", "beta:3",
                 f"beta:{shape}", *mixtures]:
        ops.append({"op": "chi2_both", "dist": name,
                    "label": f"chi2_both({name})"})
    # sizes of the normalized sums and of the series-route subset; the series
    # route stops at uniform n = 7 and beta:2 n = 3, because beyond those each
    # refused attempt costs 70-242 s before it raises AccuracyError
    plan = (("uniform", range(2, 13), range(2, 8)),
            ("beta:2", range(2, 7), range(2, 4)),
            (sum_mixture, range(2, 7), range(2, 7)))
    for base, sizes, series_sizes in plan:
        for n in sizes:
            key = f"{base}#{n}"
            ops.append({"op": "sum", "dist": base, "n": n, "key": key,
                        "label": f"normalized_sum_density({base}, {n})"})
            ops.append({"op": "direct", "key": key,
                        "label": f"chi2_direct(sum {base} n={n})"})
            if n in series_sizes:
                ops.append({"op": "series", "key": key,
                            "label": f"series route(sum {base} n={n})"})
    for variant in ("first", "basic", "symmetric"):
        ops.append({"op": "threshold", "variant": variant,
                    "label": f"threshold({variant})"})
    grid = [MGF_T_MAX * j / MGF_T_STEPS
            for j in range(-MGF_T_STEPS, MGF_T_STEPS + 1) if j != 0]
    ops.append({"op": "mgf_check", "dist": "uniform", "grid": grid,
                "label": f"mgf_check(uniform, {len(grid)} points)"})
    return ops


def _theorem_op(rng: np.random.Generator, n: int, symmetric: bool,
                note: str = "") -> dict:
    return {"op": "theorem_bound", "n": n, "symmetric": symmetric,
            "chi2s": _chi2_values(rng, n),
            "label": f"theorem_bound({n}, symmetric={symmetric}){note}"}


def _session_ops(rng: np.random.Generator) -> list[dict]:
    ops: list[dict] = []
    levels = [(n, symmetric) for n in range(2, SESSION_MAX_N + 1)
              for symmetric in (False, True)]
    for n, symmetric in levels:
        ops.append(_theorem_op(rng, n, symmetric))
        ops.append({"op": "corollary_bound", "n": n, "symmetric": symmetric,
                    "avg_chi2": math.fsum(ops[-1]["chi2s"]) / n,
                    "label": f"corollary_bound({n}, symmetric={symmetric})"})
    # every level once more, in a seeded order, all served by the memo.
    # Without these, half the bound calls compute a new level and half do
    # not, and the median op sits on the step between the two groups.
    for i in rng.permutation(len(levels)):
        ops.append(_theorem_op(rng, *levels[i], " warm"))
    ops.append({"op": "run_suite", "tiers": [1, 2, 3],
                "label": "run_suite((1, 2, 3))"})
    for command in README_COMMANDS:
        ops.append({"op": "cli", "argv": command.split(),
                    "label": f"cli: chi2norm {command}"})
    return ops


_OP_LISTS = {
    "constants": _constants_ops,
    "divergence": _divergence_ops,
    "session": _session_ops,
}


def make_ops(workload: str, seed: int) -> list[dict]:
    """The fixed op list of ``workload`` for ``seed``."""
    return _OP_LISTS[workload](np.random.default_rng(seed))
