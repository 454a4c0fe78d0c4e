"""Shared domain types, parameter derivation, and validation.

Everything downstream (ball fitting, selection, tree growth, peeling)
works in terms of the types defined here.  All of them are immutable;
functions taking them are pure.
"""

from __future__ import annotations

import math
import numbers
import operator
from dataclasses import dataclass

import numpy as np

__all__ = [
    "MeboError",
    "InvalidParamsError",
    "DegenerateDatasetError",
    "EmptySubsetError",
    "SpecInfeasibleError",
    "Dataset",
    "Ball",
    "Params",
    "DerivedParams",
    "Candidate",
    "RecognitionResult",
    "derive_params",
]


class MeboError(Exception):
    """Base class for all library errors."""


class InvalidParamsError(MeboError, ValueError):
    """A parameter violates its range or consistency constraints."""


class DegenerateDatasetError(MeboError, ValueError):
    """The dataset is too small for the requested parameters."""


class EmptySubsetError(MeboError, ValueError):
    """An operation that needs at least one point got none."""


class SpecInfeasibleError(MeboError, ValueError):
    """A multi-class specification cannot be satisfied on the data."""


class Dataset:
    """Immutable n x d matrix of points, one row per point.

    Entries must be finite reals, at most sqrt(float max / (4*n*d)) in
    absolute value (check_limit); both are checked once, here.  The
    backing array is copied and marked read-only, so instances are safe
    to share across threads.
    """

    __slots__ = ("points", "n", "d")

    def __init__(self, points) -> None:
        pts = as_reals("points", points)
        if pts.ndim != 2:
            raise InvalidParamsError(f"points must be 2-dimensional, got shape {pts.shape}")
        if pts.shape[0] < 1 or pts.shape[1] < 1:
            raise InvalidParamsError(f"need at least one point and one dimension, got shape {pts.shape}")
        # max and min propagate NaN, so they also find a non-finite entry
        hi, lo = float(pts.max()), float(pts.min())
        if not (math.isfinite(hi) and math.isfinite(lo)):
            raise InvalidParamsError("points contain NaN or infinity")
        check_limit("coordinates", max(hi, -lo), *pts.shape)
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "n", pts.shape[0])
        object.__setattr__(self, "d", pts.shape[1])

    def __setattr__(self, name, value):
        raise AttributeError("Dataset is immutable")

    def __repr__(self) -> str:
        return f"Dataset(n={self.n}, d={self.d})"


@dataclass(frozen=True)
class Ball:
    """A center plus a nonnegative radius.  The center is copied to a new
    float64 array."""

    center: np.ndarray
    radius: float

    def __post_init__(self):
        c = as_reals("ball center", self.center)
        object.__setattr__(self, "center", c)
        object.__setattr__(self, "radius", as_real("ball radius", self.radius))
        if c.ndim != 1:
            raise InvalidParamsError("ball center must be a flat vector")
        if not np.isfinite(c).all():
            raise InvalidParamsError("ball center must be finite")
        if not (self.radius >= 0.0):
            raise InvalidParamsError(f"ball radius must be >= 0, got {self.radius}")


@dataclass(frozen=True)
class Params:
    """All algorithm knobs.

    gamma is the assumed outlier fraction.  epsilon controls the radius
    approximation (tree height h = ceil(2/epsilon) + 1), delta the count
    slack (top-k size k = ceil((1+delta)*gamma*n)), mu the per-tree
    failure probability budget (sample size s = ceil((1+1/delta)*ln(h/mu))).

    epsilon also sets the iteration count of the ball-center recurrence,
    ceil(1/epsilon^2) (meb_iter_count), as it sets h.  forest_size and
    sequential_rounds configure boosting.  seed drives every random
    choice; identical Params give bit-identical results.
    """

    gamma: float
    epsilon: float = 0.8
    delta: float = 0.15
    mu: float = 0.9
    forest_size: int = 4
    sequential_rounds: int = 2
    seed: int = 0

    def __post_init__(self):
        for name in ("gamma", "epsilon", "delta", "mu"):
            object.__setattr__(self, name, as_real(name, getattr(self, name)))
        # gamma = 0 is allowed so multi-class peeling can request "no outliers".
        if not (0.0 <= self.gamma < 1.0):
            raise InvalidParamsError(f"gamma must be in [0, 1), got {self.gamma}")
        for name in ("epsilon", "delta", "mu"):
            v = getattr(self, name)
            if not (0.0 < v < 1.0):
                raise InvalidParamsError(f"{name} must be in (0, 1), got {v}")
        if (1.0 + self.delta) * self.gamma >= 1.0:
            raise InvalidParamsError(
                f"(1+delta)*gamma = {(1 + self.delta) * self.gamma:.6g} must stay below 1, "
                "otherwise no inliers remain"
            )
        as_int("forest_size", self.forest_size, 1)
        as_int("sequential_rounds", self.sequential_rounds, 0)
        as_seed(self.seed)

    @property
    def meb_iter_count(self) -> int:
        """Steps of the ball-center recurrence, ceil(1/epsilon^2)."""
        return _ceil_snapped(1.0 / (self.epsilon * self.epsilon))


def check_limit(what: str, big: float, n: int, d: int) -> None:
    """Refuse big, the largest |coordinate| of n points in d dimensions
    or of a center for them, past sqrt(float max / (4*n*d)): every
    distance, inlier sum and score over the points is then at most
    4*n*d*big^2, and finite.  A subset has a larger limit."""
    limit = math.sqrt(np.finfo(np.float64).max / (4.0 * n * d))
    if big > limit:
        raise InvalidParamsError(
            f"{what} must be at most {limit:.6g} in absolute value for "
            f"{n} points in {d} dimensions, or their sums of squares "
            f"overflow; got {big:.6g}")


def as_int(name: str, value, lo: int | None = None, hi: int | None = None) -> int:
    """value as an int in [lo, hi]; hi None leaves it unbounded above,
    and lo None (with hi None) leaves it unbounded.

    Bools, floats and other non-integers are refused, not truncated:
    numpy would fail on them later, deep inside a fit.  This is the one
    place a count is checked against its range, and every refusal reads
    `<name> must be in [lo, hi], got v` or `<name> must be >= lo, got v`.
    """
    if isinstance(value, bool):
        raise InvalidParamsError(f"{name} must be an integer, got {value!r}")
    try:
        v = operator.index(value)
    except TypeError:
        raise InvalidParamsError(f"{name} must be an integer, got {value!r}") from None
    if hi is not None and not (lo <= v <= hi):
        raise InvalidParamsError(f"{name} must be in [{lo}, {hi}], got {v}")
    if lo is not None and v < lo:
        raise InvalidParamsError(f"{name} must be >= {lo}, got {v}")
    return v


def as_seed(value) -> int:
    """value as a random seed, an integer in [0, 2^64)."""
    return as_int("seed", value, 0, 2**64 - 1)


def as_real(name: str, value) -> float:
    """value as a float.  Bools, text, None and other values that are
    not real numbers are refused, not converted: False would pass as
    0.0, and text would fail later with a bare TypeError."""
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        return float(value)
    raise InvalidParamsError(f"{name} must be a real number, got {value!r}")


def as_real_tuple(name: str, value) -> tuple:
    """value as a tuple of floats, each checked by as_real.  A lone
    number, text and other values that are not a sequence are refused:
    iterating over them would fail with a bare TypeError, or read text
    one character at a time."""
    if not isinstance(value, (str, bytes)):
        try:
            return tuple(as_real(name, v) for v in value)
        except TypeError:
            pass
    raise InvalidParamsError(f"{name} must be a sequence of real numbers, got {value!r}")


def as_reals(name: str, value) -> np.ndarray:
    """value as a new C-ordered float64 array, converted and copied in one
    pass; what numpy cannot read as reals raises InvalidParamsError, not a
    bare TypeError or ValueError.  A complex array is refused too: numpy
    would drop its imaginary part."""
    if isinstance(value, (np.ndarray, np.generic)) and value.dtype.kind == "c":
        raise InvalidParamsError(f"{name} must be real numbers, got dtype {value.dtype}")
    try:
        return np.array(value, dtype=np.float64, order="C")
    except (TypeError, ValueError) as e:
        raise InvalidParamsError(f"{name} must be real numbers: {e}") from None


@dataclass(frozen=True)
class DerivedParams:
    """Quantities derived from Params for a concrete dataset size."""

    h: int  # tree height
    k: int  # top-k (presumed outlier) count
    s: int  # children sampled per internal node
    m: int  # inlier count, n - k


def _ceil_snapped(x: float) -> int:
    """ceil that forgives float crumbs.

    Products like (1+delta)*gamma*n land a few ulps past an exact
    integer (1.1 * 0.4 * 10000 gives 4400.000000000001) and a plain
    ceil then overshoots by one.  A value within 1e-12 relative of an
    integer counts as that integer.
    """
    r = round(x)
    if abs(x - r) <= 1e-12 * max(1.0, abs(x)):
        return int(r)
    return int(math.ceil(x))


def derive_params(p: Params, n: int, m: int | None = None) -> DerivedParams:
    """Derive (h, k, s, m) for a dataset of n points.

    h = ceil(2/epsilon) + 1, k = ceil((1+delta)*gamma*n),
    s = ceil((1+1/delta)*ln(h/mu)), m = n - k.  An inlier count m in
    [1, n], when given, sets k = n - m instead.
    """
    n = as_int("n", n)
    if n < 1:
        raise DegenerateDatasetError(f"need at least one point, got n={n}")
    h = _ceil_snapped(2.0 / p.epsilon) + 1
    if m is None:
        k = _ceil_snapped((1.0 + p.delta) * p.gamma * n)
    else:
        k = n - as_int("m", m, 1, n)
    if k >= n:
        raise DegenerateDatasetError(
            f"top-k count k={k} leaves no inliers out of n={n}; lower gamma or delta"
        )
    s = max(1, _ceil_snapped((1.0 + 1.0 / p.delta) * math.log(h / p.mu)))
    return DerivedParams(h=h, k=k, s=s, m=n - k)


@dataclass(frozen=True)
class Candidate:
    """One tree node's attached center with its provenance and score.

    path holds dataset row indices along the root-to-node path; a tree
    rooted at a virtual (non-dataset) point contributes no index for
    that root.  score is the total variance of the node's m nearest
    points; the winner's inliers are re-derived when a result is
    assembled, so no per-node set is stored.
    """

    center: np.ndarray
    path: tuple
    score: float


@dataclass(frozen=True)
class RecognitionResult:
    """Final output: fitted ball, inlier indices, and bookkeeping."""

    ball: Ball
    inliers: np.ndarray
    candidates_evaluated: int
    score: float
