"""Assembly of convergence bounds from per-variable divergences.

A Stein-type recurrence ties each Hermite coefficient of a weighted sum
to those of its leave-one-out versions.  Iterating the single-step
inequality over subsets and collapsing the combinatorics with
Maclaurin's inequality gives explicit bounds whose per-step constants
come from ``C_J`` at ``p = 1/k``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import BASIC_SET, SYMMETRIC_SET, C_of_p
from .distances import HermiteProfile
from .errors import AccuracyError, CapacityError, DomainError

__all__ = [
    "VarianceProfile",
    "BoundReport",
    "CorollaryResult",
    "stein_recurrence_rhs",
    "unroll_recurrence",
    "check_bound_n",
    "step_constants",
    "theorem_bound",
    "corollary_bound",
    "BASIC_AVG_THRESHOLD",
    "SYM_AVG_THRESHOLD",
    "MAX_BOUND_N",
]

BASIC_AVG_THRESHOLD = 0.82
SYM_AVG_THRESHOLD = 1.69

# geometric ratios used by the collapsed bound; at the thresholds above
# they stay below 1 (1.218 * 0.82 = 0.99876, 0.589 * 1.69 = 0.99541)
_BASIC_THETA = 1.218
_SYM_THETA = 0.589

MAX_BOUND_N = 1000


@dataclass(frozen=True)
class VarianceProfile:
    """Squared weights of the summands; they must resolve a unit total."""

    sigma_sq: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.sigma_sq) < 2:
            raise DomainError("a variance profile needs at least two entries")
        for q in self.sigma_sq:
            if not 0.0 < q < 1.0:
                raise DomainError("each squared weight must lie in (0, 1)")
        if abs(math.fsum(self.sigma_sq) - 1.0) > 1e-12:
            raise DomainError("squared weights must sum to 1")

    def __len__(self) -> int:
        return len(self.sigma_sq)

    @classmethod
    def equal(cls, n: int) -> "VarianceProfile":
        if n < 2:
            raise DomainError("need n >= 2")
        return cls(tuple([1.0 / n] * n))


def _require_order(profile: HermiteProfile, order: int, what: str) -> None:
    if profile.truncation_order < order:
        raise CapacityError(
            f"{what} profile reaches order {profile.truncation_order}, "
            f"need {order}")


def stein_recurrence_rhs(profiles: list[HermiteProfile],
                         variances: VarianceProfile,
                         leaveout_profiles: list[HermiteProfile],
                         m: int) -> float:
    """Right-hand side of the coefficient recurrence at order ``m``.

    In the normalized representation the weight attached to the
    ``(k, j)`` term is the square root of the binomial probability
    ``B(m, j, sigma_k^2)``, evaluated in log space.
    """
    if not isinstance(m, int) or isinstance(m, bool) or m < 1:
        raise DomainError("m must be an integer >= 1")
    n = len(variances)
    if len(profiles) != n or len(leaveout_profiles) != n:
        raise DomainError("profile lists must match the variance profile")
    for k in range(n):
        _require_order(profiles[k], m, f"summand {k}")
        _require_order(leaveout_profiles[k], m - 1, f"leave-one-out {k}")

    j = np.arange(1, m + 1, dtype=float)
    log_binom = np.array([math.lgamma(m + 1.0) - math.lgamma(i + 1.0)
                          - math.lgamma(m - i + 1.0) for i in range(1, m + 1)])
    pieces: list[float] = []
    for k in range(n):
        q = variances.sigma_sq[k]
        log_b = log_binom + j * math.log(q) + (m - j) * math.log1p(-q)
        w = np.exp(0.5 * log_b)
        a = np.asarray(profiles[k].values[1:m + 1])
        rest = np.asarray(leaveout_profiles[k].values[:m][::-1])
        pieces.extend((j * a * rest * w).tolist())
    return math.fsum(pieces) / m


def _mean_chi2(values: list[float]) -> float:
    """Mean of the per-summand divergences, which must be >= 0 with a finite
    sum: an infinite or nan value makes the sum inf or nan, and a sum past
    the float range raises in ``fsum``."""
    try:
        total = math.fsum(values)
    except (OverflowError, ValueError):
        total = math.nan
    if not (min(values) >= 0.0 and total < math.inf):
        raise DomainError("chi-square values must be nonnegative, with a "
                          "sum inside the float range")
    return total / len(values)


def unroll_recurrence(singleton_values: list[float],
                      constants: list[float]) -> float:
    """Closed form of the subset recursion after Maclaurin collapsing.

    ``constants`` holds the per-level values for levels 2..n.  The k-th
    power of the mean is charged the product of the top ``k-1``
    constants; an empty product counts as 1.
    """
    n = len(singleton_values)
    if n < 2:
        raise DomainError("need at least two singleton values")
    if len(constants) != n - 1:
        raise DomainError("need one constant per level 2..n")
    mean = _mean_chi2(singleton_values)
    for c in constants:
        if not c > 0.0:
            raise DomainError("level constants must be positive")
    total = mean
    prod = 1.0
    power = mean
    for k in range(2, n + 1):
        prod *= constants[n - k]  # constants[i] is the level-(i+2) value
        power *= mean
        total += prod * power
    if not math.isfinite(total):
        raise DomainError("chi-square values too large: the unrolled bound "
                          "overflows the float range")
    return total


# the per-level constants of each index set for levels 2, 3, ..., as far
# as any call has needed them; step_constants extends them on demand
_LEVEL_CONSTANTS: dict[str, list[float]] = {"basic": [], "symmetric": []}


def check_bound_n(n: int) -> None:
    """Refuse ``n`` unless it is an integer in ``2..MAX_BOUND_N``; a caller
    runs this before it builds anything of length ``n``."""
    if not isinstance(n, int) or isinstance(n, bool) or n < 2:
        raise DomainError("n must be an integer >= 2")
    if n > MAX_BOUND_N:
        raise CapacityError(f"n={n} exceeds the supported maximum {MAX_BOUND_N}")


def step_constants(n: int, symmetric: bool) -> list[float]:
    """Per-level constants for levels 2..n, as a new list.

    Level 2 uses ``C(1/2)`` directly (times 3 in the symmetric case);
    higher levels multiply ``C(1/k)`` by the boundary factor coming from
    the change of level-k to level-(k-1) normalization.  Each level's
    ``C(1/k)`` is computed once per process.
    """
    check_bound_n(n)
    index_set = SYMMETRIC_SET if symmetric else BASIC_SET
    levels = _LEVEL_CONSTANTS[index_set.kind]
    for k in range(len(levels) + 2, n + 1):
        c = C_of_p(index_set, 1.0 / k).value
        if symmetric:
            levels.append(3.0 * c if k == 2
                          else c * (k * k - 1.0) / ((k - 1.0) ** 2 - 1.0))
        else:
            levels.append(c if k == 2 else c * (k - 1.0) / (k - 2.0))
    return levels[:n - 1]


@dataclass(frozen=True)
class BoundReport:
    n: int
    chi2s: tuple[float, ...]
    average: float
    symmetric: bool
    leading_term: float
    correction: float
    total: float
    constants: tuple[float, ...]
    oracle_chi2: float | None = None

    def __post_init__(self) -> None:
        if not (self.total >= self.leading_term >= 0.0):
            raise AccuracyError("bound ordering violated: "
                                f"{self.total} < {self.leading_term}")
        if self.oracle_chi2 is not None and self.oracle_chi2 > self.total:
            raise AccuracyError(
                f"oracle divergence {self.oracle_chi2} exceeds the "
                f"claimed bound {self.total}")


def theorem_bound(n: int, chi2s: list[float], symmetric: bool,
                  oracle_chi2: float | None = None) -> BoundReport:
    """Explicit bound for an equal-weight sum of ``n`` summands.

    The finite product form is evaluated exactly as the unrolled
    recurrence gives it; no per-level constant is replaced by its limit.
    """
    check_bound_n(n)
    if len(chi2s) != n:
        raise DomainError("need one chi-square value per summand")
    mean = _mean_chi2(chi2s)
    constants = step_constants(n, symmetric)
    unrolled = unroll_recurrence(list(chi2s), constants)
    denom = (n * n - 1.0) if symmetric else (n - 1.0)
    return BoundReport(
        n=n,
        chi2s=tuple(float(v) for v in chi2s),
        average=mean,
        symmetric=symmetric,
        leading_term=mean / denom,
        correction=(unrolled - mean) / denom,
        total=unrolled / denom,
        constants=tuple(constants),
        oracle_chi2=oracle_chi2,
    )


@dataclass(frozen=True)
class CorollaryResult:
    """Geometric-sum form of the bound, or a refusal past the threshold.

    ``implied_constant`` is the concrete constant this implementation
    can certify for the given ``n``; it is not a universal constant.
    """

    n: int
    avg_chi2: float
    symmetric: bool
    threshold: float
    refused: bool
    bound: float | None = None
    implied_constant: float | None = None
    geometric_ratio: float | None = None


def corollary_bound(n: int, avg_chi2: float,
                    symmetric: bool) -> CorollaryResult:
    """Collapse the correction series into a geometric sum.

    Each term's product of top constants is charged ``theta`` per
    factor beyond the first; the worst per-term excess over levels
    2..n becomes the certified constant, so the finite-``n`` statement
    stays rigorous even where individual constants exceed ``theta``.
    """
    check_bound_n(n)
    if not (avg_chi2 >= 0.0) or math.isnan(avg_chi2):
        raise DomainError("average chi-square must be nonnegative")
    theta = _SYM_THETA if symmetric else _BASIC_THETA
    threshold = SYM_AVG_THRESHOLD if symmetric else BASIC_AVG_THRESHOLD
    if avg_chi2 > threshold:
        return CorollaryResult(n, avg_chi2, symmetric, threshold,
                               refused=True)
    ratio = theta * avg_chi2
    constants = step_constants(n, symmetric)
    # worst ratio of a top-(k-1) product to theta^(k-2), k = 2..n
    prod = 1.0
    worst = 0.0
    for k in range(2, n + 1):
        prod *= constants[n - k]
        worst = max(worst, prod / theta ** (k - 2))
    implied = worst / (1.0 - ratio)
    denom = (n * n - 1.0) if symmetric else (n - 1.0)
    bound = (avg_chi2 + implied * avg_chi2 * avg_chi2) / denom
    return CorollaryResult(n, avg_chi2, symmetric, threshold,
                           refused=False, bound=bound,
                           implied_constant=implied,
                           geometric_ratio=ratio)
