"""Independent verification oracle for claimed invariants.

Exact mode normalizes (pullback of f) - f and tests for the zero function;
this is the only mode that can affirm invariance.  Randomized mode evaluates
both sides at seeded rational points drawn from a pool of more than 10^6
coordinates; it is refutation-only: a single exact-arithmetic mismatch
refutes, while surviving all samples proves nothing and leaves the verdict
undecided.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .dynsys import DynamicalSystem, pullback
from .errors import PreconditionError
from .exactalg import RationalFunction

INVARIANT = "invariant"
NOT_INVARIANT = "not-invariant"
UNDEFINED_AT_SAMPLES = "undefined-at-samples"

DEFAULT_SEED = 0x52415444
DEFAULT_TRIALS = 32
MAX_TRIALS = 10_000  # about a second of samples on a small map, never a hang
_POOL_HALF = 500_000  # pool of integers in [-POOL_HALF, POOL_HALF]: > 10^6


@dataclass(frozen=True)
class VerificationReport:
    verdict: str
    mode: str
    trials: int
    valid_samples: int
    refutation_only: bool


def verify_invariant_report(sys: DynamicalSystem, f: RationalFunction,
                            mode: str = "exact", trials: int = DEFAULT_TRIALS,
                            seed: int = DEFAULT_SEED) -> VerificationReport:
    if f.variables != sys.variables:
        raise PreconditionError("function and system use different variables")
    if mode == "exact":
        verdict = INVARIANT if pullback(sys, f) == f else NOT_INVARIANT
        return VerificationReport(verdict=verdict, mode=mode, trials=0,
                                  valid_samples=0, refutation_only=False)
    if mode != "randomized":
        raise PreconditionError(f"unknown mode {mode!r}")
    if not 1 <= trials <= MAX_TRIALS:
        raise PreconditionError(f"randomized mode needs 1 <= trials <= {MAX_TRIALS}")
    rng = random.Random(seed)
    valid = 0
    for _ in range(trials):
        point = tuple(Fraction(rng.randint(-_POOL_HALF, _POOL_HALF))
                      for _ in sys.variables)
        try:
            image = tuple(c.evaluate(point) for c in sys.coords)
            lhs = f.evaluate(image)
            rhs = f.evaluate(point)
        except ZeroDivisionError:
            continue
        valid += 1
        if lhs != rhs:
            return VerificationReport(verdict=NOT_INVARIANT, mode=mode,
                                      trials=trials, valid_samples=valid,
                                      refutation_only=True)
    # surviving the samples never affirms invariance; without a refutation
    # the samples leave the question undecided
    return VerificationReport(verdict=UNDEFINED_AT_SAMPLES, mode=mode,
                              trials=trials, valid_samples=valid,
                              refutation_only=True)


def verify_invariant(sys: DynamicalSystem, f: RationalFunction,
                     mode: str = "exact", trials: int = DEFAULT_TRIALS,
                     seed: int = DEFAULT_SEED) -> str:
    """Verdict only; see verify_invariant_report for sample counts."""
    return verify_invariant_report(sys, f, mode, trials, seed).verdict
