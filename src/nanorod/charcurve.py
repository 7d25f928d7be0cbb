"""Interaction-curve equation: evaluation, roots, branches, folds, kappa_cr.

The critical load pairs (lambda1, lambda2) of the linearized rod are the
zeros of a transcendental determinant

    f = sqrt(lambda1 / (1 - kappa lambda2)) * F(lambda1, lambda2)

with the bracketed factor

    F = 2 l1 + kappa l1 (kappa l1 - l2)
        + (2 l1 + l2^2 - kappa l1 l2) cos(r1) cosh(r2)
        - sqrt(l1 / (1 - kappa l2)) (l2 - kappa (l1 - kappa l1 l2 + l2^2))
          sin(r1) sinh(r2)

where r1, r2 are the wavenumbers of the linearized fourth-order operator.
All root finding works on the de-singularized factor F: its zeros for
lambda1 > 0 coincide with the zeros of f, but F has no spurious root at
lambda1 = 0 and no square-root branch sensitivity.

Conventions adopted here:
  * a fold (branching point) solves F = 0 and dF/dlambda2 = 0;
  * a branch minimum solves F = 0 and dF/dlambda1 = 0;
  * kappa_cr, the non-locality at which the first-mode curve stops reaching
    the lambda2 = 0 axis, solves F(l1, 0; kappa) = 0 and
    dF/dlambda1(l1, 0; kappa) = 0 in (kappa, l1): the two axis crossings
    merge into a double root in lambda1 there.
"""

import cmath
import math
from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import Optional

import numpy as np

from .errors import (
    DegeneratePointError,
    DomainError,
    InvalidInputError,
    NanorodError,
    NoFoldError,
    RootNotFoundError,
    SingularDenominatorError,
)
from .model import LoadPoint

SCAN_PANELS = 2000
ADMISSIBLE_MARGIN = 1e-9
DEFAULT_L2_CAP = 40.0  # scan ceiling for kappa = 0, where 1/kappa is no bound
_TOUCH_REL = 1e-5      # |F| at a tangency, relative to the scan scale
_CS_STEP = 1e-30       # complex step: any h far below the scale of x will do
_SCAN_XTOL, _SCAN_RTOL = 1e-14, 8.9e-16  # Brent stop for the roots of a scan
_NO_INDEX = np.empty(0, dtype=np.intp)


@dataclass(frozen=True)
class Wavenumbers:
    r1: float
    r2: float


def lambda2_max(kappa: float) -> float:
    """Upper end of the admissible lambda2 range (constitutive singularity)."""
    if kappa < 0.0:
        raise InvalidInputError(f"kappa must be nonnegative, got {kappa}")
    if kappa == 0.0:
        return DEFAULT_L2_CAP
    return (1.0 - ADMISSIBLE_MARGIN) / kappa


# Elementwise functions the residual is written in: math for one load point
# (cheapest per call), numpy for a whole scan column in one evaluation, cmath
# for a complex step.  The real paths clamp s - half at 0 against roundoff
# (-5e-171 at lambda1 = 0, lambda2 = 1e-170); a clamp would cut a complex step.
_SCALAR_OPS = SimpleNamespace(sqrt=math.sqrt, cos=math.cos, cosh=math.cosh,
                              sin=math.sin, sinh=math.sinh, maximum=max,
                              atan=math.atan, tanh=math.tanh, hypot=math.hypot)
_ARRAY_OPS = SimpleNamespace(sqrt=np.sqrt, cos=np.cos, cosh=np.cosh,
                             sin=np.sin, sinh=np.sinh, maximum=np.maximum,
                             atan=np.arctan, tanh=np.tanh, hypot=np.hypot)
_COMPLEX_OPS = SimpleNamespace(sqrt=cmath.sqrt, cos=cmath.cos, cosh=cmath.cosh,
                               sin=cmath.sin, sinh=cmath.sinh, maximum=lambda z, _: z)


def _check_admissible(lambda1: float, lambda2: float, kappa: float) -> float:
    if kappa < 0.0:
        raise InvalidInputError(f"kappa must be nonnegative, got {kappa}")
    denom = 1.0 - kappa * lambda2
    if denom <= 0.0:
        raise SingularDenominatorError(
            f"1 - kappa*lambda2 = {denom:.3e} <= 0 at lambda2 = {lambda2}"
        )
    if lambda1 < 0.0:
        raise DomainError(f"lambda1 = {lambda1} < 0")
    return denom


def _check_admissible_array(lambda1, lambda2, kappa: float):
    denom = 1.0 - kappa * lambda2
    if kappa < 0.0 or ((denom <= 0.0) | (lambda1 < 0.0)).any():  # np.any costs ~6 us a call
        for l1, l2 in np.broadcast(lambda1, lambda2):
            _check_admissible(float(l1), float(l2), kappa)  # raises at the first bad point
    return denom


def _wavenumbers(l1, l2, kappa, denom, ops):
    half = 0.5 * (kappa * l1 + l2) / denom
    s = ops.sqrt(l1 / denom + half * half)
    return ops.sqrt(s + half), ops.sqrt(ops.maximum(s - half, 0.0))


def wavenumbers(p: LoadPoint, kappa: float) -> Wavenumbers:
    """Wavenumbers r1 (oscillatory) and r2 (hyperbolic) at a load point."""
    l1, l2 = p.lambda1, p.lambda2
    denom = _check_admissible(l1, l2, kappa)
    r1, r2 = _wavenumbers(l1, l2, kappa, denom, _SCALAR_OPS)
    return Wavenumbers(r1=r1, r2=r2)


def char_residual(p: LoadPoint, kappa: float) -> float:
    """De-singularized interaction-curve residual (bracketed factor F)."""
    return _residual(p.lambda1, p.lambda2, kappa)


def _coefficients(l1, l2, kappa):
    """(ops, A, B, C, r1, r2) with F = A + B cos(r1) cosh(r2) - C sin(r1) sinh(r2),
    where ops holds the elementwise functions that suit the arguments."""
    # one type test of the sum: a test per argument adds ~10% to a real call
    probe = l1 + l2 + kappa
    if isinstance(probe, np.ndarray):
        ops, denom = _ARRAY_OPS, _check_admissible_array(l1, l2, kappa)
    elif isinstance(probe, complex):
        _check_admissible(l1.real, l2.real, kappa.real)
        ops, denom = _COMPLEX_OPS, 1.0 - kappa * l2
    else:
        ops, denom = _SCALAR_OPS, _check_admissible(l1, l2, kappa)
    r1, r2 = _wavenumbers(l1, l2, kappa, denom, ops)
    pref = ops.sqrt(l1 / denom)
    return (ops,
            2.0 * l1 + kappa * l1 * (kappa * l1 - l2),
            2.0 * l1 + l2 * l2 - kappa * l1 * l2,
            pref * (l2 - kappa * (l1 - kappa * l1 * l2 + l2 * l2)),
            r1, r2)


def _residual(l1, l2, kappa: float):
    """F at one load point, or elementwise when lambda1 or lambda2 is an array;
    a complex scalar (a complex step) is admitted when its real part is.
    At one point, a load so large that a wavenumber overflows raises
    DomainError; an array holds inf or nan there (see _bulk)."""
    ops, a, b, c, r1, r2 = _coefficients(l1, l2, kappa)
    try:
        return a + b * ops.cos(r1) * ops.cosh(r2) - c * ops.sin(r1) * ops.sinh(r2)
    except (ValueError, OverflowError):  # math or cmath met an infinite wavenumber
        raise DomainError(f"the residual overflows at lambda1 = {l1.real}, "
                          f"lambda2 = {l2.real}: load too large") from None


def _phase(l1, l2, kappa: float):
    """(phi, A, rho) at real load points, with F = A + rho cos(phi):
    phi = r1 + atan(C tanh(r2) / B) and rho = hypot(B cosh(r2), C sinh(r2)), a
    Pruefer-type phase (Pruefer 1926; Greenberg & Marletta 1995).  Admissible
    points with lambda1 > 0 have A > 0 and B > 0, so phi is single-valued and
    a root (cos phi = -A/rho < 0) has phi within pi/2 of (2K - 1) pi, where
    K = round(phi / 2 pi + 1/2) is its family."""
    ops, a, b, c, r1, r2 = _coefficients(l1, l2, kappa)
    return r1 + ops.atan(c * ops.tanh(r2) / b), a, ops.hypot(b * ops.cosh(r2), c * ops.sinh(r2))


def _derivative(f, x):
    """f'(x) = Im f(x + ih) / h, the complex step (Squire & Trapp 1998): no
    difference is taken, so it is exact to roundoff.  f must accept complex."""
    return f(complex(x, _CS_STEP)).imag / _CS_STEP


def char_partials(p: LoadPoint, kappa: float) -> tuple[float, float]:
    """(dF/dlambda1, dF/dlambda2) of the residual, exact to roundoff."""
    l1, l2 = p.lambda1, p.lambda2
    return (_derivative(lambda x: _residual(x, l2, kappa), l1),
            _derivative(lambda x: _residual(l1, x, kappa), l2))


def _kappa_partial(l1: float, l2: float, kappa: float) -> float:
    return _derivative(lambda k: _residual(l1, l2, k), kappa)


def eta_prime(p0: LoadPoint, kappa: float) -> float:
    """Implicit slope d(lambda2)/d(lambda1) of the interaction curve at p0."""
    df1, df2 = char_partials(p0, kappa)
    if abs(df2) < 1e-8 * max(1.0, abs(df1)):
        raise DegeneratePointError(
            f"dF/dlambda2 = {df2:.3e} at ({p0.lambda1}, {p0.lambda2}); fold point"
        )
    return -df1 / df2


def _brentq(f, a, b, xtol=2e-12, rtol=4.0 * np.finfo(float).eps):
    """Root of f on [a, b], where f(a) and f(b) differ in sign.

    Brent's method (Brent 1973, ch. 4), step for step as the classic
    ``brentq`` routine: secant or inverse quadratic interpolation,
    safeguarded by bisection, until the bracket half-width drops below
    (xtol + rtol |x|) / 2.
    """
    xpre, xcur = float(a), float(b)
    fpre, fcur = f(xpre), f(xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if (fpre < 0.0) == (fcur < 0.0):
        raise RootNotFoundError(f"no sign change on [{a}, {b}]")
    xblk = fblk = spre = scur = 0.0
    for _ in range(100):
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2.0
        sbis = (xblk - xcur) / 2.0
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # secant
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # inverse quadratic interpolation
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2.0 * abs(stry) < min(abs(spre), 3.0 * abs(sbis) - delta):
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0.0 else -delta
        fcur = f(xcur)
    raise RootNotFoundError(f"Brent iteration did not converge on [{a}, {b}]")


def _bulk(fun, *arrays):
    """fun(*arrays), evaluated elementwise with numpy's floating-point
    warnings off.  At a non-finite value fun is called again on that point
    alone, so the scalar path raises its error (DomainError for an
    overflowed wavenumber)."""
    with np.errstate(all="ignore"):
        vals = fun(*arrays)
        finite = np.isfinite(vals)
        if not finite.all():
            i = int(np.argmin(finite))
            fun(*[a[i] for a in arrays])
            raise DomainError(f"the residual evaluates to {vals[i]}")
    return vals


def _sign_brackets(vals):
    """The scan's root rule, (exact, brackets) as index arrays: a grid point
    where vals is exactly zero is a root (the last point included), and a
    panel whose ends differ strictly in sign brackets one to refine."""
    return np.flatnonzero(vals == 0.0), np.flatnonzero(vals[:-1] * vals[1:] < 0.0)


def _scan_roots(fun, lo, hi, touch_gate=None, count=None):
    """All roots of fun on [lo, hi], sorted: sign-change roots, plus tangency
    (double) roots when a touch gate is given.  With a count, the first count
    entries are those of the full list, bit for bit, and roots past them may
    be missing.

    fun must evaluate elementwise on an array: the scan grid is evaluated
    in one call, and only the refinements evaluate point by point.  (One
    bracket takes ~8 scalar calls, ~20 us, in _brentq, against ~180 us for
    the scan; _brentq_batch's ~15 array calls carry ~60 us of fixed numpy
    cost each, so batching pays only across many columns, see
    _scan_columns.)  With a touch gate, fun must also accept a complex
    scalar: its derivative is taken by complex step.
    A tangency is accepted when a local minimum of |fun| on the scan refines,
    by Brent on fun' between the neighbouring grid points, to a stationary
    point where |fun| is negligible: either against the scan scale, or
    against the caller-supplied gate ``touch_gate(x)`` (used to admit
    residuals explained by the finite printing precision of the transverse
    load parameter).
    A count refines only what the first count roots depend on.  Exact zeros
    and brackets are ordered by grid position (2j for an exact zero at
    xs[j], 2i + 1 for the bracket [xs[i], xs[i + 1]]), and the count-th of
    them is the cut: no root past it can come first.  A touch candidate at
    xs[i] is refined when its root, in [xs[i - 1], xs[i + 1]], can lie at
    or below the cut, together with every sign root within 16 steps of it,
    the ones its de-duplication is checked against.  With fewer than count
    sign roots, everything is refined.
    """
    xs = np.linspace(lo, hi, SCAN_PANELS + 1)
    vals = _bulk(fun, xs)
    exact, brackets = _sign_brackets(vals)
    touch = _touch_candidates(vals) if touch_gate is not None else _NO_INDEX
    if count is not None and exact.size + brackets.size >= count:
        cut = np.sort(np.concatenate((2 * exact, 2 * brackets + 1)))[count - 1]
        touch = touch[touch - 1 <= (cut + 1) // 2]  # the cut root is at or below xs[(cut + 1) // 2]
        if touch.size:
            cut = max(cut, 2 * (touch[-1] + 16) + 1)
        exact, brackets = exact[2 * exact <= cut], brackets[2 * brackets + 1 <= cut]
    roots = [xs[i] for i in exact]
    roots += [_brentq(fun, xs[i], xs[i + 1], xtol=_SCAN_XTOL, rtol=_SCAN_RTOL) for i in brackets]
    if touch.size:
        roots.extend(_touch_roots(fun, xs, vals, roots, touch_gate, touch))
    roots.sort()
    return roots


def _scan_columns(fun, params, lo, hi):
    """Sign-change roots in x of fun(p, x) on [lo, hi] for every p in params,
    as _scan_roots finds them without a touch gate: one list per p of
    (root, sign of fun just above the root) pairs, sorted by root.

    The sign is read from the scan: the value at the next grid point, or
    minus the value before the last point for an exact zero there.
    Each column is scanned in one array call; the brackets of all columns
    are then refined together by _brentq_batch, so fun must also evaluate
    elementwise on arrays of p and x alike.
    """
    xs = np.linspace(lo, hi, SCAN_PANELS + 1)
    columns, ends = [], []
    for c, p in enumerate(params):
        vals = _bulk(lambda x: fun(p, x), xs)
        exact, brackets = _sign_brackets(vals)
        above = np.sign(np.append(vals[1:], -vals[-2])[exact])
        columns.append(list(zip(xs[exact].tolist(), above.tolist())))
        ends.append((np.full(brackets.size, c), brackets, vals[brackets], vals[brackets + 1]))
    if ends:
        col, i, fa, fb = (np.concatenate(e) for e in zip(*ends))
        ps = np.asarray(params, dtype=float)
        roots = _brentq_batch(lambda k, x: fun(ps[col[k]], x), xs[i], xs[i + 1], fa, fb)
        for c, r, s in zip(col.tolist(), roots.tolist(), np.sign(fb).tolist()):
            columns[c].append((r, s))
    for roots in columns:
        roots.sort()
    return columns


def _brentq_batch(fun, a, b, fa, fb):
    """Elementwise _brentq on the brackets [a[k], b[k]], whose end values
    fa[k], fb[k] are known and differ strictly in sign.

    fun(k, x) evaluates the functions of the brackets k (an index array) at
    the points x.  Every bracket takes _brentq's steps with the scan's stop
    (_SCAN_XTOL, _SCAN_RTOL) and the same 100-evaluation cap; one array call
    per iteration evaluates the open brackets (and the spare lanes below).
    """
    # The lanes of the iteration come in power-of-two counts: numpy keeps
    # freed blocks under 1 KiB for reuse, per byte size, so open-bracket
    # subsets of every size would pile up there (+1 MB of peak RSS on a
    # curve sweep).  Spare lanes repeat a bracket or hold a converged one,
    # frozen at points fun has already seen.
    roots = np.empty(a.size)
    if not a.size:
        return roots
    k = np.resize(np.arange(a.size), _lanes(a.size))
    xpre, xcur, fpre, fcur = a[k], b[k], fa[k], fb[k]
    xblk = fblk = spre = scur = np.zeros(k.size)
    open_ = np.ones(k.size, dtype=bool)
    with np.errstate(divide="ignore", invalid="ignore"):  # interpolants a lane does not take
        for _ in range(100):
            new = np.sign(fpre) * np.sign(fcur) < 0.0  # both nonzero, signs differ
            step = xcur - xpre
            xblk, fblk = np.where(new, xpre, xblk), np.where(new, fpre, fblk)
            spre, scur = np.where(new, step, spre), np.where(new, step, scur)
            swap = np.abs(fblk) < np.abs(fcur)
            xpre, xcur, xblk = np.where(swap, xcur, xpre), np.where(swap, xblk, xcur), np.where(swap, xcur, xblk)
            fpre, fcur, fblk = np.where(swap, fcur, fpre), np.where(swap, fblk, fcur), np.where(swap, fcur, fblk)
            delta = (_SCAN_XTOL + _SCAN_RTOL * np.abs(xcur)) / 2.0
            sbis = (xblk - xcur) / 2.0
            done = open_ & ((fcur == 0.0) | (np.abs(sbis) < delta))
            roots[k] = np.where(done, xcur, roots[k])
            open_ &= ~done
            m = int(np.count_nonzero(open_))
            if m == 0:
                return roots
            if _lanes(m) < k.size:  # open lanes first, then converged ones as spares
                keep = np.argsort(~open_, kind="stable")[:_lanes(m)]
                k, xpre, xcur, xblk, fpre, fcur, fblk, spre, scur, delta, sbis, open_ = (
                    v[keep] for v in (k, xpre, xcur, xblk, fpre, fcur, fblk, spre, scur, delta, sbis, open_))
            secant = -fcur * (xcur - xpre) / (fcur - fpre)
            dpre = (fpre - fcur) / (xpre - xcur)
            dblk = (fblk - fcur) / (xblk - xcur)
            iqi = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            stry = np.where(xpre == xblk, secant, iqi)
            interp = (np.abs(spre) > delta) & (np.abs(fcur) < np.abs(fpre))
            accept = interp & (2.0 * np.abs(stry) < np.minimum(np.abs(spre), 3.0 * np.abs(sbis) - delta))
            spre, scur = np.where(accept, scur, sbis), np.where(accept, stry, sbis)
            xpre, fpre = xcur, fcur
            step = np.where(np.abs(scur) > delta, scur, np.where(sbis > 0.0, delta, -delta))
            xcur = np.where(open_, xcur + step, xcur)
            fcur = _bulk(fun, k, xcur)
    first = k[np.argmax(open_)]
    raise RootNotFoundError(f"Brent iteration did not converge on [{a[first]}, {b[first]}]")


def _lanes(count: int) -> int:
    """The power of two at or above count."""
    return 1 << (count - 1).bit_length()


def _touch_candidates(vals):
    """Grid indices of the local |vals| minima that may be double roots:
    small against the scan scale, with no sign change on either side (a
    genuine sign change is already refined)."""
    absv = np.abs(vals)
    scale = absv.max()
    if scale == 0.0:
        return _NO_INDEX
    mid = absv[1:-1]
    candidates = (
        (mid <= absv[:-2]) & (mid <= absv[2:]) & (mid <= 1e-3 * scale)
        & ~(vals[:-2] * vals[1:-1] < 0.0) & ~(vals[1:-1] * vals[2:] < 0.0)
    )
    return np.flatnonzero(candidates) + 1


def _touch_roots(fun, xs, vals, known, touch_gate, candidates):
    """The candidates (see _touch_candidates) that are numerically double roots."""
    scale = float(np.max(np.abs(vals)))
    touches = []
    step = xs[1] - xs[0]
    slope = lambda x: _derivative(fun, x)
    for i in candidates:
        try:
            x = _brentq(slope, xs[i - 1], xs[i + 1], xtol=_SCAN_XTOL, rtol=_SCAN_RTOL)
        except RootNotFoundError:  # fun' keeps its sign: no stationary point here
            continue
        if abs(fun(x)) > max(_TOUCH_REL * scale, touch_gate(x)):
            continue
        if any(abs(x - r) < 10.0 * step for r in known + touches):
            continue
        touches.append(x)
    return touches


def _solve_axis(fixed: float, kappa: float, axis: int, lo: float, hi: float, which: int) -> float:
    """The which-th root in lambda_axis of the residual, the other load held at fixed."""
    if which < 1:
        raise InvalidInputError(f"root index must be at least 1, got {which}")
    if axis == 2:
        fun = lambda x: _residual(fixed, x, kappa)
    else:
        fun = lambda x: _residual(x, fixed, kappa)

    def gate(x):
        # residual explainable by the fixed load and kappa known to ~6 significant digits
        l1, l2 = (fixed, x) if axis == 2 else (x, fixed)
        d_fixed = char_partials(LoadPoint(l1, l2), kappa)[2 - axis]
        dk = _kappa_partial(l1, l2, kappa)
        return 1e-5 * (abs(d_fixed) * max(1.0, abs(fixed)) + abs(dk) * max(1.0, kappa))

    roots = _scan_roots(fun, lo, hi, touch_gate=gate, count=which)
    if len(roots) < which:
        raise RootNotFoundError(
            f"only {len(roots)} lambda{axis} root(s) on [{lo}, {hi}] at "
            f"lambda{3 - axis} = {fixed}, requested #{which}"
        )
    return roots[which - 1]


def solve_lambda2(
    lambda1: float,
    kappa: float,
    bracket: Optional[tuple[float, float]] = None,
    which: int = 1,
) -> float:
    """The which-th root in lambda2 of the residual at fixed lambda1."""
    lo, hi = bracket if bracket is not None else (1e-9, lambda2_max(kappa))
    if kappa > 0.0 and hi * kappa >= 1.0:
        raise DomainError(f"bracket touches the singularity lambda2 = 1/kappa = {1.0 / kappa}")
    return _solve_axis(lambda1, kappa, 2, lo, hi, which)


def solve_lambda1(
    lambda2: float,
    kappa: float,
    bracket: Optional[tuple[float, float]] = None,
    which: int = 1,
) -> float:
    """The which-th root in lambda1 of the residual at fixed lambda2."""
    lo, hi = bracket if bracket is not None else (1e-6, 60.0)
    _check_admissible(lo, lambda2, kappa)
    return _solve_axis(lambda2, kappa, 1, lo, hi, which)


def _damped_newton2(fun, x0, max_iter=50, tol=1e-10):
    """Damped Newton for a 2-vector system with finite-difference Jacobian."""
    x = np.array(x0, dtype=float)
    r = np.array(fun(x), dtype=float)
    for _ in range(max_iter):
        if np.max(np.abs(r)) < tol:
            return x
        jac = np.zeros((2, 2))
        for j in range(2):
            xp = x.copy()
            hp = 1e-6 * max(1.0, abs(x[j]))
            xp[j] += hp
            try:
                jac[:, j] = (np.array(fun(xp)) - r) / hp
            except DomainError as exc:
                raise NoFoldError(f"Jacobian probe left the admissible region at {x}") from exc
        try:
            dx = np.linalg.solve(jac, -r)
        except np.linalg.LinAlgError as exc:
            raise NoFoldError(f"singular Jacobian at {x}") from exc
        lam = 1.0
        base = np.max(np.abs(r))
        for _ in range(12):
            try:
                r_new = np.array(fun(x + lam * dx), dtype=float)
            except DomainError:
                lam *= 0.5
                continue
            if np.max(np.abs(r_new)) < base or lam < 1e-3:
                break
            lam *= 0.5
        else:
            raise NoFoldError(f"line search stalled at {x}")
        x = x + lam * dx
        r = r_new
    if np.max(np.abs(r)) < tol:
        return x
    raise NoFoldError(f"Newton did not converge: residual {np.max(np.abs(r)):.3e} at {x}")


def _local_scale(l1, l2, kappa, dl=0.05):
    probes = []
    for d1, d2 in ((dl, 0.0), (-dl, 0.0), (0.0, dl), (0.0, -dl)):
        try:
            probes.append(abs(_residual(max(l1 + d1, 1e-9), l2 + d2, kappa)))
        except SingularDenominatorError:
            pass  # a probe past 1/kappa; an overflowing guess raises DomainError here
    return max(probes) if probes else 1.0


def _stationary_point(kappa: float, guess: LoadPoint, wrt: int, what: str) -> tuple[float, float]:
    """(lambda1, lambda2) with F = 0 and dF/dlambda_wrt = 0 near the guess, wrt 1 or 2."""
    scale = _local_scale(guess.lambda1, guess.lambda2, kappa)

    def system(x):
        l1, l2 = x.tolist()
        partial = char_partials(LoadPoint(l1, l2), kappa)[wrt - 1]
        return (_residual(l1, l2, kappa) / scale, partial / scale)

    sol = _damped_newton2(system, (guess.lambda1, guess.lambda2), tol=1e-8 / max(scale, 1.0))
    l1, l2 = float(sol[0]), float(sol[1])
    if l1 <= 0.0 or l2 < -1e-9:
        raise NoFoldError(f"{what} Newton left the admissible quadrant: ({l1}, {l2})")
    return l1, l2


def find_fold(kappa: float, guess: LoadPoint) -> LoadPoint:
    """Fold of the interaction curve: F = 0 and dF/dlambda2 = 0 near the guess."""
    l1, l2 = _stationary_point(kappa, guess, 2, "fold")
    return LoadPoint(l1, max(l2, 0.0))


def find_branch_minimum(kappa: float, guess: LoadPoint) -> LoadPoint:
    """Stationary lambda2 along the curve: F = 0 and dF/dlambda1 = 0."""
    return LoadPoint(*_stationary_point(kappa, guess, 1, "branch-minimum"))


def find_kappa_cr(guess_kappa: float = 0.37, guess_lambda1: float = 29.0) -> tuple[float, float]:
    """Critical non-locality: the axis crossings merge into a double lambda1 root.

    Solves F(l1, 0; kappa) = 0 and dF/dlambda1(l1, 0; kappa) = 0 in
    (kappa, l1).  Equivalently, the branch minimum of the folded first-mode
    curve touches the lambda2 = 0 axis.
    """
    scale = _local_scale(guess_lambda1, 0.0, guess_kappa)

    def system(x):
        kap, l1 = x.tolist()
        if kap <= 0.0 or l1 <= 0.0:
            raise DomainError("left the admissible (kappa, lambda1) quadrant")
        df1, _ = char_partials(LoadPoint(l1, 0.0), kap)
        return (_residual(l1, 0.0, kap) / scale, df1 / scale)

    sol = _damped_newton2(system, (guess_kappa, guess_lambda1), max_iter=80,
                          tol=1e-8 / max(scale, 1.0))
    return float(sol[0]), float(sol[1])


@dataclass
class BranchCurve:
    """One traced branch of an interaction-curve family."""

    kappa: float
    mode_index: int
    branch_tag: str  # "single" | "lower" | "upper"
    points: list = field(default_factory=list)  # [(LoadPoint, eta_prime)]
    fold: Optional[LoadPoint] = None


def _eta_prime_or_nan(p: LoadPoint, kappa: float) -> float:
    try:
        return eta_prime(p, kappa)
    except DegeneratePointError:
        return float("nan")


def trace_curve(kappa, lambda1_grid, mode_index: int = 1):
    """Trace the mode_index-th interaction-curve family over a lambda1 grid.

    All residual roots in lambda2 are found per grid column (each column
    scanned in one array call, the brackets of all columns refined
    together) with the sign of F just above each.  Every root is labelled
    on its own, with no reference to another column: its family
    K = round(phi / 2 pi + 1/2) from the phase (see _phase), and its side,
    lower where F is negative just above it and upper where F is positive.
    A branch is the roots of one label, in column order.  The two sides of
    a family form one folded family (tags lower/upper) iff its lower side
    never reaches the lambda2 = 0 axis, that is iff F(lambda1, 0) has no
    root of that family (for K = 1, iff kappa > kappa_cr); otherwise each
    side is a family of its own (tag single).  Families are numbered in
    (K, side) order among those with a root on the grid, a folded family
    counting once.  The fold of the returned family is refined from the
    midpoint of its branch ends; when that refinement fails, fold is None.
    """
    if mode_index < 1:
        raise InvalidInputError(f"mode index must be at least 1, got {mode_index}")
    grid = [float(l1) for l1 in lambda1_grid]
    columns = _scan_columns(lambda l1, x: _residual(l1, x, kappa), grid, 1e-9, lambda2_max(kappa))
    roots = [(l1, x, above) for l1, column in zip(grid, columns) for x, above in column]
    l1s, l2s = np.array([r[0] for r in roots]), np.array([r[1] for r in roots])
    families = np.rint(_phase(l1s, l2s, kappa)[0] / (2.0 * math.pi) + 0.5).astype(int)
    sides = {}  # (K, sign of F above) -> [(lambda1, lambda2)] in column order
    for (l1, x, above), k in zip(roots, families.tolist()):
        sides.setdefault((k, above), []).append((l1, x))
    units = []
    for k in sorted({k for k, _ in sides}):
        lower, upper = sides.get((k, -1.0)), sides.get((k, 1.0))
        if lower and upper and not _axis_has_root(kappa, k):
            units.append([("lower", lower), ("upper", upper)])
        else:
            units += [[("single", pts)] for pts in (lower, upper) if pts]
        if len(units) >= mode_index:
            break
    if len(units) < mode_index:
        return []
    branches = units[mode_index - 1]
    fold = None
    if len(branches) == 2:
        (_, lower), (_, upper) = branches
        seed = LoadPoint(0.5 * (lower[-1][0] + upper[-1][0]), 0.5 * (lower[-1][1] + upper[-1][1]))
        try:
            fold = find_fold(kappa, seed)
        except NanorodError:
            pass
    return [
        BranchCurve(kappa=kappa, mode_index=mode_index, branch_tag=tag, fold=fold,
                    points=[(LoadPoint(l1, l2), _eta_prime_or_nan(LoadPoint(l1, l2), kappa))
                            for l1, l2 in chain])
        for tag, chain in branches
    ]


def _axis_has_root(kappa: float, family: int) -> bool:
    """Whether F(lambda1, 0) has a root of the family K: phi grows with lambda1
    along the axis, so F is sampled where phi is within pi/2 of (2K - 1) pi.
    Unless a sample is at or below zero, the stationary point of F next to
    the lowest sample (Brent on the exact dF/dlambda1) decides, so a double
    root (at kappa_cr for K = 1) is resolved to roundoff, not to the spacing.
    Where cosh(r2) overflows (kappa < 2e-6, far families), A/rho is ~0 and
    the family has axis roots."""
    phi = lambda x: _phase(x, 0.0, kappa)[0]
    axis = lambda x: _residual(x, 0.0, kappa)
    try:
        ends = []
        for level in ((2 * family - 1.5) * math.pi, (2 * family - 0.5) * math.pi):
            lo, hi = 1e-9, 1.0
            while phi(hi) < level:
                lo, hi = hi, 2.0 * hi
            ends.append(_brentq(lambda x: phi(x) - level, lo, hi))
        xs = np.linspace(ends[0], ends[1], 65)
        vals = _bulk(axis, xs)
    except (OverflowError, DomainError):
        return True
    i = int(np.argmin(vals))
    if vals[i] > 0.0 and 0 < i < xs.size - 1:
        try:
            return axis(_brentq(lambda x: _derivative(axis, x), xs[i - 1], xs[i + 1])) <= 0.0
        except RootNotFoundError:  # dF/dlambda1 keeps its sign: the lowest sample is the minimum
            pass
    return bool(vals[i] <= 0.0)
