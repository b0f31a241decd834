"""Core types and weight arithmetic for multiplicative-weights engines.

Conventions used throughout the package:

* groups: ``Group.A`` / ``Group.B``, iterated A before B;
* labels: ints, ``NEG = 0`` and ``POS = 1``;
* cells: (group, label) pairs in the canonical order
  (A,-), (B,-), (A,+), (B,+) — the same order q vectors use;
* weights live in linear scale, floored at 1e-300.  When every entry of a
  (group, label) slice drops below 2**-512 the slice is rescaled by a power
  of two.  Multiplying a float by a power of two is exact in binary floating
  point, so selection probabilities are preserved bit-for-bit and the
  rescale is observationally invisible.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from enum import IntEnum

import numpy as np

from .errors import ConfigError, InvalidExpertCount, InvalidHorizon

__all__ = [
    "Group",
    "NEG",
    "POS",
    "WeightTable",
    "RunConfig",
    "WEIGHT_FLOOR",
    "RESCALE_THRESHOLD",
    "weight_states",
    "trial_seed_sequence",
    "recommended_eta",
    "ENGINES",
]


class Group(IntEnum):
    """The two population groups, ordered A < B for deterministic iteration."""

    A = 0
    B = 1


NEG = 0
POS = 1


WEIGHT_FLOOR = 1e-300
RESCALE_THRESHOLD = 2.0 ** -512


def trial_seed_sequence(seed: int, trial: int) -> list[np.random.SeedSequence]:
    """Documented per-trial rng derivation: SeedSequence(seed, spawn_key=(trial,))
    spawned into three children — 0 stream synthesis/shuffling, 1 synthetic
    expert draws, 2 engine sampling.  Parallel and serial trial execution
    therefore see identical randomness."""
    return np.random.SeedSequence(seed, spawn_key=(trial,)).spawn(3)


def recommended_eta(T: int, d: int) -> float:
    """Horizon-tuned learning rate min(sqrt(ln d / T), 0.49).

    The cap keeps the rate inside the regret theorem's hypothesis eta < 1/2
    even for very short horizons.
    """
    if d < 2:
        raise InvalidExpertCount(f"need at least 2 experts, got {d}")
    if T < 1:
        raise InvalidHorizon(f"horizon must be >= 1, got {T}")
    return min(math.sqrt(math.log(d) / T), 0.49)


def _update_slice(w: np.ndarray, eta: float, losses: np.ndarray) -> None:
    """In-place multiplicative update of one weight slice.

    Entries with loss 0 are multiplied by exactly 1.0 so they keep their
    bit pattern; after flooring, the slice is rescaled by a power of two
    if its maximum has drifted below RESCALE_THRESHOLD.
    """
    np.multiply(w, np.power(1.0 - eta, losses), out=w)
    np.maximum(w, WEIGHT_FLOOR, out=w)
    m = float(w.max())
    if m < RESCALE_THRESHOLD:
        # m = mant * 2**e with mant in [0.5, 1); scaling by 2**-e puts the
        # max at mant, and a power-of-two multiply is exact.
        _, e = math.frexp(m)
        np.multiply(w, math.ldexp(1.0, -e), out=w)


def weight_states(eta: float, losses: np.ndarray) -> np.ndarray:
    """(n + 1, d) states of one slice from all-ones: row k is bitwise the
    slice after ``_update_slice`` with each of losses[:k] in turn.

    The factors (1-eta)^loss are at most 1, so flooring a cumprod equals
    flooring each step; a rescale restarts the cumprod at its row, and
    passes of 4096 rows bound the work a restart repeats.  Row maxima are
    exact in any order (``fairmw.engines`` says which operations define bits)."""
    n, d = losses.shape
    states = np.ones((n + 1, d))
    lo = 0
    while lo < n:
        hi = min(lo + 4096, n)
        seg = states[lo:hi + 1]
        np.power(1.0 - eta, losses[lo:hi], out=seg[1:])
        np.cumprod(seg, axis=0, out=seg)
        np.maximum(seg, WEIGHT_FLOOR, out=seg)
        top = functools.reduce(np.maximum, seg[1:].T)    # row maxima, column by column
        low = np.flatnonzero(top < RESCALE_THRESHOLD)
        if len(low):
            hi = lo + 1 + int(low[0])
            _, e = math.frexp(float(states[hi].max()))
            np.multiply(states[hi], math.ldexp(1.0, -e), out=states[hi])
        lo = hi
    return states


class WeightTable:
    """Expert weights indexed [group, label, expert], shape (2, 2, d).

    Every engine keeps its weights in one such table and reads and updates
    one (group, label) cell per round; see ``fairmw.engines`` for which
    cell each engine uses.  All updates go through _update_slice, so
    identical loss sequences give bit-identical weights whichever engine
    drives them.
    """

    def __init__(self, d: int):
        if d < 2:
            raise InvalidExpertCount(f"need at least 2 experts, got {d}")
        self.array = np.ones((2, 2, d))

    @property
    def d(self) -> int:
        return self.array.shape[-1]

    def slice(self, group: Group = Group.A, label: int = NEG) -> np.ndarray:
        """1-D view of one cell's weights."""
        return self.array[group, label]

    def update(self, eta: float, losses: np.ndarray,
               group: Group = Group.A, label: int = NEG) -> None:
        _update_slice(self.slice(group, label), eta, losses)


ENGINES = ("mw", "group_aware", "fairness_aware")


@dataclass
class RunConfig:
    """Reproducible description of one experiment.

    eta=None means "auto": recommended_eta(T, d) is applied once the expert
    count is known.  lam and b_tolerance order is (fpr, fnr, regret).
    fairness_budget is the reporting pair (delta_p, delta_n).
    """

    engine: str = "mw"
    horizon: int = 1000
    eta: float | None = None
    seed: int = 0
    trials: int = 1
    lam: tuple[float, float, float] = (1.0, 1.0, 1.0)
    b_tolerance: tuple[float, float, float] = (0.0, 0.0, 0.0)
    dirichlet_alpha: float = 1.0
    q_recompute_stride: int = 1
    fairness_budget: tuple[float, float] = (0.05, 0.05)

    def __post_init__(self):
        self.validate()

    def validate(self) -> None:
        if self.engine not in ENGINES:
            raise ConfigError(f"unknown engine {self.engine!r}; expected one of {ENGINES}")
        if self.horizon < 1:
            raise InvalidHorizon(f"horizon must be >= 1, got {self.horizon}")
        if self.eta is not None and not (0.0 < self.eta < 0.5):
            raise ConfigError(f"eta must lie in (0, 1/2), got {self.eta}")
        if self.trials < 1:
            raise ConfigError(f"trials must be >= 1, got {self.trials}")
        if len(self.lam) != 3 or any(v < 0 for v in self.lam):
            raise ConfigError(f"lambda must be 3 nonnegative reals, got {self.lam}")
        if len(self.b_tolerance) != 3:
            raise ConfigError("b_tolerance must have 3 components")
        if not self.dirichlet_alpha > 0:
            raise ConfigError(f"dirichlet_alpha must be positive, got {self.dirichlet_alpha}")
        if self.q_recompute_stride < 1:
            raise ConfigError(f"q_recompute_stride must be >= 1, got {self.q_recompute_stride}")
