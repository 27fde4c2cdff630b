"""Scalar kernels: Brent's root finder and an exact two-term dot product.

:func:`brentq` is the package's only scalar root solver, a line-for-line
port of scipy's ``Zeros/brentq.c`` (Brent, *Algorithms for Minimization
without Derivatives*, 1973, ch. 4), with scipy's defaults and its NaN
check, so every root is equal (``==``) to ``scipy.optimize.brentq``'s.
``copysign`` stands in for C's ``signbit``.

:func:`fused_dot` is a two-element ``ndarray.dot`` on Python floats, equal
to it bit for bit.  The OpenBLAS ``ddot`` that numpy ships rounds
``c0*x + c1*y`` as ``fma(c1, y, fl(c0*x))``, so plain float arithmetic
differs from it in the last bit for about one pair in four.  The kernel
writes ``c1*y`` as an exact sum ``q + err`` (Dekker's error-free product,
Numer. Math. 18, 1971, on Veltkamp's splitting) and rounds
``q + err + fl(c0*x)`` once with ``math.fsum``, which rounds correctly
(Shewchuk, Discrete Comput. Geom. 18, 1997).  The tests compare it with
``ndarray.dot``, so a BLAS that rounds otherwise fails them.  Its one user,
``reduced.CrossingKernel``, reads h = c . y through it, each map iterate's h
included, and its one Newton body writes the same arithmetic out, with
:data:`SPLITTER`, for the dot products that set a bit of a root, so a change
here belongs there too.
"""

from __future__ import annotations

import math
import sys

from .errors import NoConvergence, NoRootInBracket

SPLITTER = 134217729.0  # 2**27 + 1, Veltkamp's splitter for doubles


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


def split_factor(a: float) -> tuple[float, float, float]:
    """``(a, hi, lo)``: ``a`` with its Veltkamp halves, ``hi + lo == a``.

    Each half is at most 26 bits wide.  :func:`fused_dot` takes its second
    coefficient in this form, so a coefficient that enters many products is
    split once.  Above |a| = 1.3e300 the splitting product overflows and
    both halves are NaN.
    """
    t = SPLITTER * a
    hi = t - (t - a)
    return a, hi, a - hi


def fused_dot(c0: float, c1_split: tuple[float, float, float], x: float, y: float) -> float:
    """``c0*x + c1*y`` rounded as ``fma(c1, y, fl(c0*x))``, with
    ``c1_split = split_factor(c1)``: a two-element ``ndarray.dot`` bit for bit.

    Dekker's product is exact where no partial product underflows and no
    split overflows: 1e-250 < |c1*y| < 1e250 and |c1|, |y| below 1.3e300.
    Elsewhere (zeros, infinities and NaN in c1 or y included) the kernel
    calls ``ndarray.dot`` itself.  An infinite or NaN ``c0*x`` passes through
    ``fsum`` as through the fused multiply-add, and a finite one cannot make
    the sum overflow, since |c1*y| < 1e250.
    """
    c1, c1_hi, c1_lo = c1_split
    q = c1 * y
    if 1e-250 < abs(q) < 1e250:
        t = SPLITTER * y
        y_hi = t - (t - y)
        y_lo = y - y_hi
        err = ((c1_hi * y_hi - q) + c1_hi * y_lo + c1_lo * y_hi) + c1_lo * y_lo
        if err == err:  # NaN only where a split overflowed
            return math.fsum((q, err, c0 * x))
    import numpy as np  # outside the exact range only; loaded by every caller
    return float(np.array((c0, c1)).dot(np.array((x, y))))
