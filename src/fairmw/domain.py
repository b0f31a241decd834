"""Core types and weight arithmetic for multiplicative-weights engines.

Conventions used throughout the package:

* groups: ``Group.A`` / ``Group.B``, iterated A before B;
* labels: ints, ``NEG = 0`` and ``POS = 1``;
* cells: (group, label) pairs, indexed ``2 * group + label`` by trials,
  ``Trajectory``, ``validate_bounds`` and ``dataset_stats``; only qopt's q
  and A columns, and summary.json's ``q_final``, use the canonical order
  (A,-), (B,-), (A,+), (B,+);
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
from typing import Any, Callable

import numpy as np

from .errors import ConfigError, FairmwError

__all__ = [
    "Group",
    "NEG",
    "POS",
    "RunConfig",
    "WEIGHT_FLOOR",
    "RESCALE_THRESHOLD",
    "weight_states",
    "trial_seed_sequence",
    "recommended_eta",
    "ENGINES",
    "gamma",
    "Key",
    "CONFIG_KEYS",
    "CONFIG_KEY",
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
        raise FairmwError(f"need at least 2 experts, got {d}")
    if T < 1:
        raise ConfigError(f"horizon must be >= 1, got {T}")
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


ENGINES = ("mw", "group_aware", "fairness_aware")


def gamma(eta: float) -> float:
    """ln(1-eta) / ln(1-eta(1+eta)); in (0, 1) on the range the eta entry of
    CONFIG_KEYS admits, 0 < eta < 1/2 less eta below ~1.11e-16 (gamma = 1.0)."""
    if not 0.0 < eta < 0.5:
        raise FairmwError(f"gamma requires 0 < eta < 1/2, got {eta}")
    return math.log1p(-eta) / math.log1p(-eta * (1.0 + eta))


def _real(s: str) -> float:
    if not math.isfinite(v := float(s)):
        raise ValueError(s)
    return v


@dataclass(frozen=True)
class Key:
    """One entry of CONFIG_KEYS: config keys sharing a parser, a raw default
    (None: required, or set by the mode) and a range.  ``range`` words what
    ``ok(value, run)`` accepts and what that protects; ``run`` is the
    RunConfig.  A RunConfig ``field`` holds one value per name.  ``mode``
    is the ``key=value`` setting under which the keys are read (None: read
    in every mode); setting one under another mode is a config error."""

    names: tuple[str, ...]
    parse: Callable[[str], Any] = str
    default: str | None = None
    range: str = "any text"
    ok: Callable[[Any, Any], bool] = lambda value, run: True
    field: str | None = None
    mode: str | None = None

    def check(self, value, run: RunConfig | None = None, name: str | None = None) -> None:
        """Raise ConfigError unless value is in range; None (unset, or eta auto) is."""
        if value is not None and not self.ok(value, run):
            raise ConfigError(f"{name or self.names[0]}: expected {self.range}, got {value!r}")


def _alpha_fits(alpha: float, run: RunConfig | None) -> bool:
    # Two ulps of horizon + 4 alpha keep t + alpha, t + 2 alpha and t + 4 alpha
    # apart after rounding at every count t up to the horizon, so each smoothed
    # rate in assemble_systems' denominators stays inside (0, 1), with no overflow.
    return alpha > 0.0 and (run is None or run.engine != "fairness_aware"
                            or alpha >= 2.0 * math.ulp(run.horizon + 4.0 * alpha))


_MAX_T = np.iinfo(np.intp).max // (7 * 8)   # a (T, 7) float64 array's bytes fit an intp
_INT64 = np.iinfo(np.int64).max
_FLAGS = {"true": True, "yes": True, "1": True, "false": False, "no": False, "0": False}
_UNIT = dict(range="a number in [0, 1]", ok=lambda v, run: 0.0 <= v <= 1.0)
_DATASET, _BUILTIN = "stream.kind=dataset", "experts.source=builtin"


CONFIG_KEYS = (
    Key(("engine",), str, "mw", "one of " + ", ".join(ENGINES),
        lambda v, run: v in ENGINES, "engine"),
    Key(("horizon",), int, "1000", f"an integer in [1, {_MAX_T}], so (T, 7) float64 arrays "
        "can be sized", lambda T, run: 1 <= T <= _MAX_T, "horizon"),
    Key(("eta",), lambda s: None if s == "auto" else _real(s), "auto",
        "auto, or a number in (0, 0.5) with gamma(eta) < 1, which keeps ln(d)/eta finite",
        lambda eta, run: 0.0 < eta < 0.5 and gamma(eta) < 1.0, "eta"),
    Key(("seed",), int, "0", "an integer >= 0", lambda v, run: v >= 0, "seed"),
    Key(("trials",), int, "1", "an integer >= 1", lambda v, run: v >= 1, "trials"),
    Key(("lambda.fpr", "lambda.fnr", "lambda.regret"), _real, "1", "a number >= 0",
        lambda v, run: v >= 0.0, "lam"),
    Key(("b.fpr", "b.fnr", "b.regret"), _real, "0", "a number", field="b_tolerance"),
    Key(("budget.fpr", "budget.fnr"), _real, "0.05", **_UNIT, field="fairness_budget"),
    Key(("dirichlet_alpha",), _real, "1.0", "a number > 0; for fairness_aware, at least "
        "2 ulp(horizon + 4 alpha), which keeps every smoothed rate inside (0, 1)",
        _alpha_fits, "dirichlet_alpha"),
    Key(("stride",), int, "1", f"an integer in [1, {_INT64}] (an int64)",
        lambda v, run: 1 <= v <= _INT64, "q_recompute_stride"),
    Key(("epsilon",), _real, None, **_UNIT),
    Key(("stream.kind",), str, None, "synthetic or dataset",
        lambda v, run: v in ("synthetic", "dataset")),
    Key(("stream.p", "stream.mu_a", "stream.mu_b"), _real, None, **_UNIT,
        mode="stream.kind=synthetic"),
    Key(("data.path",), range="a CSV path", mode=_DATASET),
    Key(("data.preset",), range="a preset name or path", mode=_DATASET),
    Key(("data.split_ratio",), _real, "0.7", "a number in (0, 1)", lambda v, run: 0.0 < v < 1.0,
        mode=_DATASET),
    Key(("experts.source",), str, None, "synthetic, file or builtin",
        lambda v, run: v in ("synthetic", "file", "builtin")),
    Key(("experts.profile.<name>",), lambda s: tuple(map(_real, s.split(","))), None,
        "4 error rates (e_a_neg, e_a_pos, e_b_neg, e_b_pos) in [0, 1]",
        lambda v, run: len(v) == 4 and all(0.0 <= r <= 1.0 for r in v),
        mode="experts.source=synthetic"),
    Key(("experts.file",), range="a CSV path", mode="experts.source=file"),
    Key(("experts.kinds",), lambda s: tuple(v.strip() for v in s.split(",") if v.strip()),
        "logistic,stump", "2 or more of logistic, stump",
        lambda v, run: len(v) >= 2 and set(v) <= {"logistic", "stump"}, mode=_BUILTIN),
    Key(("experts.include_group",), lambda s: _FLAGS[s.lower()], "true",
        "true or false (yes/no, 1/0)", mode=_BUILTIN),
    Key(("experts.epochs",), int, "500", "an integer >= 1", lambda v, run: v >= 1,
        mode=_BUILTIN),
)
CONFIG_KEY = {name: key for key in CONFIG_KEYS for name in key.names}


@dataclass
class RunConfig:
    """Reproducible description of one experiment.

    eta=None means "auto": recommended_eta(T, d) is applied once the expert
    count is known.  lam and b_tolerance order is (fpr, fnr, regret).
    fairness_budget is the reporting pair (delta_p, delta_n).  Every field
    is range-checked by its entry in CONFIG_KEYS.
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
        for key in (k for k in CONFIG_KEYS if k.field):
            value = getattr(self, key.field)
            values = (value,) if len(key.names) == 1 else tuple(value)
            if len(values) != len(key.names):
                raise ConfigError(f"{key.field} needs {len(key.names)} components, got {value!r}")
            for name, v in zip(key.names, values):
                key.check(v, self, name)
