"""Core value types for fixed-point data of circle actions.

A *fixed-point profile* records the dimension parameter ``n`` (half the real
dimension of the manifold) together with the Morse indices ``lambda_i`` of the
moment map at each fixed point: ``lambda_i`` is the number of negative
isotropy weights at the i-th fixed point.  A *weight system* attaches to each
fixed point its full multiset of nonzero integer isotropy weights.

Conventions used throughout the package:

* fixed points are listed in (weakly) increasing order of ``lambda``;
* weights at a point are stored sorted ascending, as a tuple;
* a profile is *minimal* when there are exactly ``n + 1`` fixed points with
  indices ``0, 1, ..., n``;
* all arithmetic on weights is exact integer / rational arithmetic.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property, lru_cache
from math import gcd
from operator import index
from typing import List, Optional, Tuple


class ProfileError(ValueError):
    """Base class for invalid fixed-point profiles."""


class BalanceViolation(ProfileError):
    """Raised when sum(lambda_i) != (number of points) * n / 2."""


class RangeViolation(ProfileError):
    """Raised when some lambda_i is outside [0, n], or the point count is bad."""


class WeightSystemError(ValueError):
    """Raised when weight data is inconsistent with its profile."""


@dataclass(frozen=True)
class FixedPointProfile:
    """Combinatorial shadow of a fixed-point set: dimension and Morse indices."""

    n: int
    lambdas: Tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "n", index(self.n))
        object.__setattr__(self, "lambdas", tuple(map(index, self.lambdas)))

    @property
    def num_points(self) -> int:
        return len(self.lambdas)

    @property
    def counts(self) -> Tuple[int, ...]:
        """N_p = number of fixed points of index p, for p = 0..n."""
        out = [0] * (self.n + 1)
        for lam in self.lambdas:
            out[lam] += 1
        return tuple(out)

    @property
    def is_minimal(self) -> bool:
        return self.num_points == self.n + 1 and sorted(self.lambdas) == list(range(self.n + 1))

    def reversed(self) -> "FixedPointProfile":
        """Profile of the reversed circle action (lambda -> n - lambda)."""
        return FixedPointProfile(self.n, tuple(sorted(self.n - lam for lam in self.lambdas)))


def validate_profile(profile: FixedPointProfile) -> None:
    """Check the structural constraints every fixed-point profile must satisfy.

    * n >= 1, at least two fixed points;
    * each lambda_i lies in [0, n];
    * exactly one point of index 0 and one of index n is *not* required here,
      but the Poincare-type balance sum(lambda_i) = (#points) * n / 2 is;
    * the index counts must be palindromic: N_p == N_{n-p}.
    """
    if profile.n < 1:
        raise RangeViolation("dimension parameter n must be >= 1, got %r" % (profile.n,))
    if profile.num_points < 2:
        raise RangeViolation("need at least two fixed points, got %d" % profile.num_points)
    for lam in profile.lambdas:
        if not 0 <= lam <= profile.n:
            raise RangeViolation("index %d out of range [0, %d]" % (lam, profile.n))
    total = sum(profile.lambdas)
    if 2 * total != profile.num_points * profile.n:
        raise BalanceViolation(
            "sum of indices is %d, expected %s for %d points in dimension 2*%d"
            % (total, profile.num_points * profile.n / 2, profile.num_points, profile.n)
        )
    counts = profile.counts
    if counts != counts[::-1]:
        raise BalanceViolation("index counts %s are not palindromic" % (counts,))


def minimal_profile(n: int) -> FixedPointProfile:
    """The unique minimal profile in dimension 2n: indices 0, 1, ..., n."""
    return FixedPointProfile(n, tuple(range(n + 1)))


def minimal_divisors(n: int) -> List[int]:
    """Admissible first-Chern constants for a minimal profile: divisors of
    n(n+1)^2/2 that are at most n+1, in descending order (cheapest first)."""
    total = n * (n + 1) ** 2 // 2
    return [c for c in range(n + 1, 0, -1) if total % c == 0]


@dataclass(frozen=True)
class WeightSystem:
    """Isotropy weights at every fixed point, in profile order.

    ``points[i]`` is the ascending tuple of the n nonzero weights at the i-th
    fixed point.  Equality is multiset equality point by point (the sorted
    storage makes ``==`` do the right thing).  A weight must be an int
    (``operator.index``): a float, a string or a Fraction raises TypeError.
    """

    n: int
    points: Tuple[Tuple[int, ...], ...]

    def __post_init__(self):
        object.__setattr__(self, "n", index(self.n))
        points = tuple([tuple(sorted(map(index, p))) for p in self.points])
        object.__setattr__(self, "points", points)

    @property
    def num_points(self) -> int:
        return len(self.points)

    @cached_property
    def profile(self) -> FixedPointProfile:
        # the weights at a point are sorted: its index is where 0 would go
        return FixedPointProfile(self.n, tuple([bisect_left(p, 0) for p in self.points]))

    def weight_sums(self) -> Tuple[int, ...]:
        """Sum of the weights at each fixed point (the c_1^{S^1} values)."""
        return tuple(map(sum, self.points))

    def reversed(self) -> "WeightSystem":
        """Weight system of the reversed action: negate all weights and list
        points so that indices are again weakly increasing (reverse order)."""
        return WeightSystem(self.n, tuple(tuple(-w for w in p) for p in reversed(self.points)))

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "points": [
                {"lambda": sum(1 for w in p if w < 0), "weights": list(p)} for p in self.points
            ],
        }

    @classmethod
    def from_json(cls, data: dict) -> "WeightSystem":
        try:
            n = _json_int(data["n"], "n")
            pts = []
            for rec in data["points"]:
                weights = sorted(_json_int(w, "a weight") for w in rec["weights"])
                lam = _json_int(rec["lambda"], "lambda")
                if sum(1 for w in weights if w < 0) != lam:
                    raise WeightSystemError(
                        "declared index %d does not match weights %s" % (lam, weights)
                    )
                pts.append(weights)
        except (KeyError, TypeError) as exc:
            raise WeightSystemError("malformed weight-system record: %s" % (exc,))
        return cls(n, tuple(pts))


def _json_int(value, name: str) -> int:
    """``value`` when it is a JSON integer; WeightSystemError for anything
    else, a float such as 1.9, a string such as "3" or a boolean included."""
    if type(value) is not int:  # bool is a subclass of int
        raise WeightSystemError("%s must be an integer, got %r" % (name, value))
    return value


def weight_system_checks(ws: WeightSystem) -> List[str]:
    """Structural sanity checks on a weight system; returns a list of failure
    descriptions (empty list == all checks pass).

    Checked:
    * every point carries exactly n nonzero weights;
    * total pairing: the multiset of all weights is symmetric under negation
      (every positive weight somewhere is matched by an equal negative one);
    * effectiveness: the gcd of the weights at each point is 1;
    * the profile passes :func:`validate_profile`.
    """
    failures: List[str] = []
    flat: List[int] = []
    for i, p in enumerate(ws.points):
        if len(p) != ws.n:
            failures.append("point %d carries %d weights, expected %d" % (i, len(p), ws.n))
        if 0 in p:
            failures.append("point %d has a zero weight" % i)
        g = gcd(*p)
        if g != 1:
            failures.append("weights at point %d have gcd %d (action not effective)" % (i, g))
        flat += p
    # the multiset of weights is symmetric under negation exactly when its
    # sorted list reads, negated, the same backwards
    flat.sort()
    if flat != [-w for w in reversed(flat)]:
        failures.append("positive weights %s do not pair with negative weights"
                        % [w for w in flat if w > 0])
    failure = _profile_failure(ws.profile)
    if failure is not None:
        failures.append(failure)
    return failures


@lru_cache(maxsize=32)
def _profile_failure(profile: FixedPointProfile) -> Optional[str]:
    """The message :func:`validate_profile` raises for ``profile``, or None;
    memoized, as every instance of a search shares its profile."""
    try:
        validate_profile(profile)
    except ProfileError as exc:
        return str(exc)
    return None
