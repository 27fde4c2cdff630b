"""The package's scalar kernels: Brent's solver against scipy's, and the
exact two-term dot against ``ndarray.dot`` and rational arithmetic, all
compared with ``==``."""

import math
import random
import sys
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import brentq as scipy_brentq

from relaydyn import continuation, oscillator, reduced, relay
from relaydyn._roots import brentq, fused_dot, split_factor
from relaydyn.errors import NoConvergence, NoRootInBracket
from relaydyn.history import HybridState, SampledHistory

ZETA, TAU, EPS = -0.1, 4.2, 0.1

# the package's error for each scipy failure
SCIPY_ERROR = {NoRootInBracket: ValueError, NoConvergence: (RuntimeError, ValueError)}


def solve_both(f, a, b, **kw):
    """The package's root, checked against scipy's: equal, or both failing."""
    try:
        expected = scipy_brentq(f, a, b, **kw)
    except (ValueError, RuntimeError) as exc:
        expected = exc
    try:
        got = brentq(f, a, b, **kw)
    except (NoRootInBracket, NoConvergence) as exc:
        assert isinstance(expected, SCIPY_ERROR[type(exc)]), (exc, expected)
        raise
    assert got == expected
    return got


# frames without a name of their own: a call from one counts for the
# function around it, so moving a call into a comprehension keeps its site
UNNAMED_FRAMES = {"<listcomp>", "<genexpr>", "<lambda>"}


def call_site(frame) -> str:
    """Name of the nearest enclosing frame that is a named function."""
    while frame.f_code.co_name in UNNAMED_FRAMES:
        frame = frame.f_back
    return frame.f_code.co_name


def test_every_call_site_equals_scipy(monkeypatch):
    sites = Counter()

    def checked(f, a, b, **kw):
        sites[call_site(sys._getframe(1))] += 1
        return solve_both(f, a, b, **kw)

    def probe():  # calls from a list comprehension, a generator expression and a lambda
        [checked(lambda x: x - r, 0.0, 1.0) for r in (0.25, 0.5)]
        sum(checked(math.cos, 0.0, 2.0) for _ in range(1))
        (lambda: checked(math.sin, 3.0, 4.0))()

    probe()
    assert sites == {"probe": 4}
    sites.clear()

    for module in (reduced, relay, oscillator, continuation):
        monkeypatch.setattr(module, "brentq", checked)

    alpha = oscillator.surface_alpha(ZETA, TAU, EPS)[0]  # _slice_roots
    ctx = oscillator.collision_context(oscillator.collision_orbit(ZETA, TAU, alpha))
    rng = np.random.default_rng(32)
    for y in ctx.y_ref + rng.normal(scale=0.3, size=(200, 2)):  # _bracket_root
        for branch in (1, -1):
            try:
                reduced.crossing_time(ctx, y, branch)
            except NoRootInBracket:
                pass
    relay.hysteron(lambda s: math.sin(s) + 0.2 * math.sin(3.1 * s), (0.0, 30.0), 1, 0.4)
    system = relay.oscillator_system(ZETA, -0.5, TAU, EPS)
    state = HybridState(SampledHistory.constant([0.5, 0.0], TAU), 1)
    relay.evolve(system, state, 20.0 * TAU)  # _first_crossing on history and head path
    nsc = oscillator.find_nsc(ZETA, EPS)
    continuation._ns_alpha_at(ZETA, EPS, nsc[0] + 1e-3, nsc[1])
    assert set(sites) == {"_slice_roots", "_bracket_root", "_first_crossing",
                          "_ns_alpha_at"}
    assert sites["_bracket_root"] >= 5 and sites["_first_crossing"] >= 10


def cubic(x):
    return x ** 3 - 2.0 * x - 5.0


FUNCTIONS = [
    (cubic, 2.0, 3.0),
    (lambda x: math.cos(x) - x, 0.0, 1.0),
    (lambda x: math.exp(x) - 1e-3, -20.0, 5.0),
    (lambda x: math.tanh(50.0 * (x - 0.3)), 0.0, 1.0),
    (lambda x: x * math.exp(-x) - 0.1, 3.0, 0.0),  # reversed bracket
    (lambda x: math.atan(x - 1e-9) - 1e-12, -1e6, 1e6),
    (lambda x: math.sin(x) - 1e-300, 3.0, 4.0),
    # a jump: mostly bisection, so the stopping rule shows in the last bits
    (lambda x: -1.0 if x < 1.0 / 3.0 else 2.0, 0.0, 1.0),
]


@pytest.mark.parametrize("f, a, b", FUNCTIONS)
@pytest.mark.parametrize("xtol, rtol", [(2e-12, 4 * sys.float_info.epsilon),
                                        (1e-13, 4 * sys.float_info.epsilon),
                                        (1e-14, 8.9e-16), (1e-15, 8.9e-16),
                                        (1e-6, 1e-10)])
def test_brentq_equals_scipy(f, a, b, xtol, rtol):
    solve_both(f, a, b, xtol=xtol, rtol=rtol)


def test_brentq_defaults_equal_scipy():
    for f, a, b in FUNCTIONS:
        assert brentq(f, a, b) == scipy_brentq(f, a, b)


def test_endpoint_zero_returns_the_endpoint():
    for a, b in ((1.0, 2.0), (0.0, 1.0), (-1.0, 1.0), (-2.0, -1.0)):
        f = lambda x: (x - a) * (x + 7.0)  # noqa: E731
        assert solve_both(f, a, b) == a
        g = lambda x: (x - b) * (x + 7.0)  # noqa: E731
        assert solve_both(g, a, b) == b
    # a zero at both ends: the left one wins, as in scipy
    assert solve_both(lambda x: x * (x - 1.0), 0.0, 1.0) == 0.0
    # -0.0 is a zero, not a negative value
    assert solve_both(lambda x: -0.0 if x == 2.0 else x - 1.5, 1.0, 2.0) == 2.0


def test_narrow_brackets():
    root = math.sqrt(2.0)
    lo = math.nextafter(root, 0.0)
    hi = math.nextafter(root, 3.0)
    f = lambda x: x * x - 2.0  # noqa: E731
    for a, b in ((lo, hi), (lo, math.nextafter(hi, 3.0)), (root - 1e-14, root + 1e-14),
                 (root - 1e-9, root + 3e-10)):
        for xtol in (2e-12, 1e-15, 1e-300):
            got = solve_both(f, a, b, xtol=xtol)
            assert min(a, b) <= got <= max(a, b)


def test_same_sign_raises_no_root_in_bracket():
    for f, a, b in ((cubic, 3.0, 4.0), (lambda x: x * x + 1.0, -1.0, 1.0),
                    (lambda x: -1.0 - x * x, -1.0, 1.0)):
        with pytest.raises(NoRootInBracket):
            solve_both(f, a, b)


def test_iteration_cap_raises_no_convergence():
    hard = lambda x: math.tanh(50.0 * (x - 0.3))  # noqa: E731
    with pytest.raises(NoConvergence):
        solve_both(hard, 0.0, 1.0, maxiter=2)
    # the same call converges with the default budget
    assert solve_both(hard, 0.0, 1.0) == pytest.approx(0.3, abs=1e-12)
    # a triple root exhausts the default budget in both, through the same iterates
    with pytest.raises(NoConvergence):
        solve_both(lambda x: (x - 1.0) ** 3, 0.0, 3.0)


def test_nan_value_raises_no_convergence():
    with pytest.raises(NoConvergence):
        solve_both(lambda x: math.nan if x > 0.4 else x - 0.6, 0.0, 1.0)


def array_dot(c0, c1, x, y):
    with np.errstate(all="ignore"):
        return float(np.array((c0, c1)).dot(np.array((x, y))))


def fma_oracle(c0, c1, x, y):
    """fma(c1, y, fl(c0*x)) in exact rational arithmetic, rounded once."""
    exact = Fraction(c1) * Fraction(y) + Fraction(c0 * x)
    try:
        return float(exact)
    except OverflowError:
        return math.inf if exact > 0 else -math.inf


def same_float(a, b):
    """Equal bit for bit up to the NaN payload, the sign of zero included."""
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)


def test_fused_dot_equals_array_dot_and_the_rational_fma_on_random_pairs():
    rng = random.Random(20)
    rows = [[rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-3.0, 3.0) for _ in range(4)]
            for _ in range(100_000)]
    got = [fused_dot(c0, split_factor(c1), x, y) for c0, c1, x, y in rows]
    assert got == [float(np.array((c0, c1)).dot(np.array((x, y)))) for c0, c1, x, y in rows]
    assert got == [fma_oracle(*row) for row in rows]
    # the plain float sum is what the kernel replaces: it differs often
    assert sum(g != c0 * x + c1 * y for g, (c0, c1, x, y) in zip(got, rows)) > 10_000


@settings(max_examples=500)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=4, max_size=4))
def test_fused_dot_equals_array_dot_on_finite_floats(row):
    c0, c1, x, y = row
    with np.errstate(all="ignore"):  # the fallback's overflow, as ndarray.dot's
        got = fused_dot(c0, split_factor(c1), x, y)
    assert same_float(got, array_dot(c0, c1, x, y))
    if math.isfinite(c0 * x):
        assert got == fma_oracle(c0, c1, x, y)


EDGES = [0.0, -0.0, 5e-324, -5e-324, 2.225e-308, 1e-300, 1e-200, 1.5, -1e-3, 1e200,
         -1e290, 1.2e300, 1.4e300, -1e308, sys.float_info.max, math.inf, -math.inf,
         math.nan]


def test_fused_dot_equals_array_dot_at_the_edges():
    # zeros of either sign, subnormals, products at and past the exact
    # range, factors too large to split, infinities and NaN, in every slot
    checked = 0
    for c0 in EDGES[::2] + [-0.0, 0.7]:
        for x in EDGES[1::2] + [0.0, -2.5]:
            for c1 in EDGES:
                c1_split = split_factor(c1)
                for y in EDGES:
                    with np.errstate(all="ignore"):
                        got = fused_dot(c0, c1_split, x, y)
                    assert same_float(got, array_dot(c0, c1, x, y)), (c0, c1, x, y)
                    if all(map(math.isfinite, (c0, c1, x, y, c0 * x))):
                        assert got == fma_oracle(c0, c1, x, y), (c0, c1, x, y)
                    checked += 1
    assert checked == 11 * 11 * 18 * 18


def test_split_factor_halves_sum_to_the_factor():
    rng = random.Random(21)
    for a in [0.0, -0.0, 5e-324, 1.0, 1e290, -1.3e300] + [
            rng.uniform(-1.0, 1.0) * 10.0 ** rng.uniform(-300, 300) for _ in range(1000)]:
        same, hi, lo = split_factor(a)
        assert same == a and hi + lo == a
        # each half fits in 26 bits, so the partial products are exact
        for half in (hi, lo):
            m = abs(half.as_integer_ratio()[0])
            assert (m // (m & -m) if m else 0).bit_length() <= 26
    assert all(math.isnan(half) for half in split_factor(1.4e300)[1:])
