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
    absolute value (check_finite, check_limit), checked once, here.  The
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
        check_limit("coordinates", check_finite("points", pts), *pts.shape)
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "n", pts.shape[0])
        object.__setattr__(self, "d", pts.shape[1])

    def __setattr__(self, name, value):
        raise AttributeError("Dataset is immutable")

    def __reduce__(self):
        # a copy or an unpickled one is rebuilt, so its points are checked
        # and read-only again
        return Dataset, (self.points,)

    def __repr__(self) -> str:
        return f"Dataset(n={self.n}, d={self.d})"


@dataclass(frozen=True)
class Ball:
    """A nonempty finite center plus a radius in [0, inf).  The center is
    copied to a new float64 array."""

    center: np.ndarray
    radius: float

    def __post_init__(self):
        c = as_reals("ball center", self.center)
        r = as_real("ball radius", self.radius)
        if c.ndim != 1 or c.size == 0:
            raise InvalidParamsError(f"ball center must be a nonempty flat vector, got shape {c.shape}")
        check_finite("ball center", c)
        if not (0.0 <= r < math.inf):
            raise InvalidParamsError(f"ball radius must be in [0, inf), got {r}")
        object.__setattr__(self, "center", c)
        object.__setattr__(self, "radius", r)


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
        for name, lo in (("forest_size", 1), ("sequential_rounds", 0)):
            object.__setattr__(self, name, as_int(name, getattr(self, name), lo))
        object.__setattr__(self, "seed", as_seed(self.seed))

    @property
    def meb_iter_count(self) -> int:
        """Steps of the ball-center recurrence, ceil(1/epsilon^2)."""
        return _ceil_snapped(1.0 / (self.epsilon * self.epsilon))


def check_finite(name: str, a: np.ndarray) -> float:
    """The largest |entry| of a nonempty array a, after refusing a NaN or
    an infinity in it: the one rule for coordinates.  max and min pass a
    NaN on, so their two passes find a non-finite entry too."""
    hi, lo = float(a.max()), float(a.min())
    if not (math.isfinite(hi) and math.isfinite(lo)):
        raise InvalidParamsError(f"{name} must be finite, got NaN or infinity")
    return max(hi, -lo)


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


def check_center(ds: Dataset, center) -> np.ndarray:
    """center as a float64 vector of ds's d coordinates, after refusing
    one of another shape, one that is not finite and one past the limit
    ds's points were held to (check_limit): any of these would give a
    far set and a pivot that mean nothing, or a numpy error or warning."""
    c = as_reals("center", center)
    if c.shape != (ds.d,):
        raise InvalidParamsError(f"center must have shape ({ds.d},), got {c.shape}")
    check_limit("center coordinates", check_finite("center", c), ds.n, ds.d)
    return c


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


def as_fractions(name: str, value) -> tuple:
    """value as a nonempty tuple of floats in (0, 1], each read by
    as_real: the one rule for class fractions.  A lone number, text and
    other values that are not a sequence are refused: iterating over
    them would fail with a bare TypeError, or read text one character
    at a time."""
    fr = None
    if not isinstance(value, (str, bytes)):
        try:
            fr = tuple(as_real(name, v) for v in value)
        except TypeError:
            pass
    if fr is None:
        raise InvalidParamsError(f"{name} must be a sequence of real numbers, got {value!r}")
    if not fr or not all(0.0 < f <= 1.0 for f in fr):
        raise InvalidParamsError(f"{name} must be one or more numbers in (0, 1], got {fr}")
    return fr


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
