"""Reference weight systems of known Hamiltonian circle actions.

All fixtures list fixed points in increasing Morse index.  Parameters must
be ints (``operator.index``: a float such as 2.9 raises TypeError) and
give an effective action (per-point weight gcd 1) and pairwise-distinct data
where required; otherwise :class:`IneffectiveParameters` is raised.
"""

from __future__ import annotations

from math import gcd
from operator import index
from typing import Sequence

from .core import WeightSystem, weight_system_checks


class IneffectiveParameters(ValueError):
    """Fixture parameters do not define an effective action."""


def _checked(ws: WeightSystem) -> WeightSystem:
    failures = weight_system_checks(ws)
    if failures:
        raise IneffectiveParameters("; ".join(failures))
    return ws


def cp(xi: Sequence[int]) -> WeightSystem:
    """Complex projective space of complex dimension len(xi) - 1, with the
    diagonal circle action of weights ``xi`` (strictly decreasing).

    The fixed points are the coordinate lines; the weights at the i-th are
    { xi_i - xi_j : j != i }.
    """
    xi = [index(x) for x in xi]
    if len(xi) < 2 or any(a <= b for a, b in zip(xi, xi[1:])):
        raise IneffectiveParameters("cp requires strictly decreasing xi, got %s" % (xi,))
    n = len(xi) - 1
    pts = tuple(
        tuple(xi[i] - xi[j] for j in range(len(xi)) if j != i) for i in range(len(xi))
    )
    return _checked(WeightSystem(n, pts))


def grassmannian(xi: Sequence[int]) -> WeightSystem:
    """Oriented 2-plane Grassmannian Gr_2+(R^(2k+1)) for k = len(xi), with the
    circle acting through a maximal torus by the weight vector ``xi``
    (strictly decreasing positive integers).

    With y_0 = -x_0, ..., y_{k-1} = -x_{k-1}, y_k = x_{k-1}, ..., y_{2k-1} = x_0
    the fixed points are indexed by the y_i and the weights at y_i are
    { (y_j - y_i)(xi) : j != i, j != 2k-1-i } together with -y_i(xi).
    """
    xi = [index(x) for x in xi]
    k = len(xi)
    if k < 2 or any(a <= b for a, b in zip(xi, xi[1:])) or xi[-1] <= 0:
        raise IneffectiveParameters(
            "grassmannian requires strictly decreasing positive xi, got %s" % (xi,)
        )
    yvals = [-x for x in xi] + [x for x in reversed(xi)]
    m = 2 * k
    pts = []
    for i in range(m):
        ws = [yvals[j] - yvals[i] for j in range(m) if j != i and j != m - 1 - i]
        ws.append(-yvals[i])
        pts.append(tuple(ws))
    n = len(pts[0])
    return _checked(WeightSystem(n, tuple(pts)))


def v5() -> WeightSystem:
    """The rigid six-dimensional example with first Chern constant 2 and
    degree-5 cohomology relation."""
    return _checked(
        WeightSystem(3, ((1, 2, 3), (-1, 1, 4), (-4, -1, 1), (-3, -2, -1)))
    )


def v22() -> WeightSystem:
    """The rigid six-dimensional example with first Chern constant 1 and
    degree-22 cohomology relation."""
    return _checked(
        WeightSystem(3, ((1, 2, 3), (-1, 1, 5), (-5, -1, 1), (-3, -2, -1)))
    )


def s2xs2(a: int, b: int) -> WeightSystem:
    """Product of two spheres with the (a, b)-weighted product action;
    requires 0 < b, 0 < a, gcd(a, b) = 1 (and a != b for isolated weights)."""
    a, b = index(a), index(b)
    if a <= 0 or b <= 0 or gcd(a, b) != 1:
        raise IneffectiveParameters("s2xs2 requires positive coprime (a, b), got (%s, %s)" % (a, b))
    return _checked(
        WeightSystem(2, ((a, b), (-b, a), (-a, b), (-b, -a)))
    )


FIXTURES = {
    "cp": cp,
    "grassmannian": grassmannian,
    "v5": v5,
    "v22": v22,
    "s2xs2": s2xs2,
}
