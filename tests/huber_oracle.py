"""The exact Huber root, in rational arithmetic, as an oracle for the float solvers.

The influence sum ``g(theta) = sum(clip(x_i - theta, -beta, beta))`` is
nonincreasing and piecewise linear in ``theta``, with breakpoints at
``x_i +/- beta``.  Every finite float is an integer multiple of a power of
two, so in units of the smallest one that the samples and ``beta`` share,
``g`` is an exact integer at each breakpoint: bisection over the breakpoints
finds the piece where ``g`` changes sign, and the linear piece is solved
exactly as a ``Fraction``.  An infinite sample adds ``+/-beta`` to ``g``
whatever ``theta`` is.

The zero set of ``g`` is a point or an interval.  :func:`exact_huber_root`
gives the point, or the midpoint of a bounded interval, rounded to a float
once (``Fraction.__float__`` is correctly rounded); an interval unbounded on
one side gives its finite endpoint.
"""

from __future__ import annotations

import math
from fractions import Fraction


def zero_set(xs, beta: float) -> tuple[Fraction | float, Fraction | float]:
    """The ends ``(a, c)`` of ``{theta : g(theta) = 0}``; an unbounded end is ``-inf`` or ``inf``."""
    if any(math.isnan(x) for x in xs) or not beta > 0:
        raise ValueError("samples must not be nan and beta must be positive")
    finite = [float(x) for x in xs if math.isfinite(x)]
    unit = max(v.as_integer_ratio()[1] for v in [*finite, float(beta)])
    ints = [int(Fraction(v) * unit) for v in finite]
    b = int(Fraction(beta) * unit)
    shift = b * (sum(x == math.inf for x in xs) - sum(x == -math.inf for x in xs))
    # g is shift + m * beta left of every breakpoint and shift - m * beta right of them.
    left, right = shift + b * len(ints), shift - b * len(ints)
    if left < 0 or right > 0 or left == right == 0:
        raise ValueError("the influence sum has no zero, or is zero everywhere")
    points = sorted({x - b for x in ints} | {x + b for x in ints})

    def g(theta: int) -> int:
        return shift + sum(min(max(x - theta, -b), b) for x in ints)

    def first(pred) -> int:
        """The first breakpoint index where the monotone predicate holds."""
        lo, hi = 0, len(points) - 1
        while lo < hi:
            mid = (lo + hi) // 2
            if pred(g(points[mid])):
                hi = mid
            else:
                lo = mid + 1
        return lo

    def crossing(i: int) -> Fraction:
        """The zero of g between breakpoints i - 1 and i, where g changes sign strictly."""
        p, q = points[i - 1], points[i]
        gp, gq = g(p), g(q)
        return p + Fraction(gp * (q - p), gp - gq)

    if left == 0:
        a = -math.inf
    else:
        j = first(lambda v: v <= 0)
        a = points[j] if g(points[j]) == 0 else crossing(j)
    if right == 0:
        c = math.inf
    else:
        j = first(lambda v: v < 0)
        c = crossing(j) if g(points[j - 1]) > 0 else points[j - 1]
    return tuple(end if isinstance(end, float) else Fraction(end, unit) for end in (a, c))


def exact_huber_root(xs, beta: float) -> float:
    """The exact root rounded once: the point, a bounded interval's midpoint, or an unbounded one's end."""
    a, c = zero_set(xs, beta)
    if a == -math.inf:
        return float(c)
    if c == math.inf:
        return float(a)
    return float((a + c) / 2)


def ulps_off(value: float, exact: float, scale: float) -> float:
    """``|value - exact|`` in units in the last place of ``scale``."""
    return abs(value - exact) / math.ulp(scale)
