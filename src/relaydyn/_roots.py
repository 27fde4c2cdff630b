"""Brent's bracketing root finder, the package's only scalar root solver.

A line-for-line port of scipy's ``Zeros/brentq.c`` (Brent, *Algorithms for
Minimization without Derivatives*, 1973, ch. 4), with scipy's defaults and
its NaN check, so every root is equal (``==``) to
``scipy.optimize.brentq``'s.  ``copysign`` stands in for C's ``signbit``.
"""

from __future__ import annotations

import math
import sys

from .errors import NoConvergence, NoRootInBracket


def _value(f, x: float) -> float:
    fx = float(f(x))
    if math.isnan(fx):
        raise NoConvergence(f"function value at x={x} is NaN")
    return fx


def brentq(f, a: float, b: float, xtol: float = 2e-12,
           rtol: float = 4 * sys.float_info.epsilon, maxiter: int = 100) -> float:
    """Root of ``f`` in [a, b], where ``f(a)`` and ``f(b)`` differ in sign.

    Stops when the bracket half-width is below ``(xtol + rtol*|x|) / 2``.
    Raises :class:`NoRootInBracket` when the endpoint values share a sign,
    and :class:`NoConvergence` after ``maxiter`` iterations or at a NaN value.
    """
    xpre, xcur = float(a), float(b)
    xblk = fblk = spre = scur = 0.0
    fpre, fcur = _value(f, xpre), _value(f, xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise NoRootInBracket(f"f({xpre}) = {fpre} and f({xcur}) = {fcur} share a sign")
    for _ in range(maxiter):
        if fpre != 0.0 and fcur != 0.0 and math.copysign(1.0, fpre) != math.copysign(1.0, fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):  # good short step
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis

        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = _value(f, xcur)
    raise NoConvergence(f"brentq did not converge in {maxiter} iterations (last x={xcur})")
