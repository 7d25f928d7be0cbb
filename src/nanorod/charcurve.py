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
import itertools
import math
import operator
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

ADMISSIBLE_MARGIN = 1e-9
_WINDOW_SAMPLES = 17   # samples of F per family window
_STEPS = np.arange(float(_WINDOW_SAMPLES))
_TWO_PI = 2.0 * math.pi
_TOUCH_REL = 1e-5      # |F| at a tangency, relative to the window's scale
_CS_STEP = 1e-30       # complex step: any h far below the scale of x will do
_SCAN_XTOL, _SCAN_RTOL = 1e-14, 8.9e-16  # Brent stop for the roots of a window
_SCALE_STEP = 0.05     # load offset of the probes that set a Newton system's scale


@dataclass(frozen=True)
class Wavenumbers:
    r1: float
    r2: float


def lambda2_max(kappa: float) -> float:
    """Upper end of the admissible lambda2 range (constitutive singularity;
    none at kappa = 0)."""
    if kappa < 0.0:
        raise InvalidInputError(f"kappa must be nonnegative, got {kappa}")
    _check_finite("kappa", kappa)
    if kappa == 0.0:
        return math.inf
    return (1.0 - ADMISSIBLE_MARGIN) / kappa


# Elementwise functions the residual is written in: math for one load point
# (cheapest per call), numpy for a whole family window in one evaluation, cmath
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


def _check_finite(name: str, value: float) -> None:
    if not math.isfinite(value):
        raise InvalidInputError(f"{name} must be finite, got {value}")


def _check_index(name: str, value) -> None:
    """value counts from 1: an int or numpy integer of at least 1."""
    try:
        index = operator.index(value)
    except TypeError:
        raise InvalidInputError(f"{name} must be an integer, got {value!r}") from None
    if index < 1:
        raise InvalidInputError(f"{name} must be at least 1, got {value}")


def _check_admissible(lambda1: float, lambda2: float, kappa: float) -> float:
    if not 0.0 <= kappa < math.inf:  # nan fails both comparisons
        raise InvalidInputError(
            f"kappa must be {'nonnegative' if kappa < 0.0 else 'finite'}, got {kappa}")
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
    # the .any() method: np.any costs ~6 us a call
    if not 0.0 <= kappa < math.inf or ((denom <= 0.0) | (lambda1 < 0.0)).any():
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
    if not math.isfinite(r1 + r2):
        raise DomainError(f"the wavenumbers overflow at lambda1 = {l1}, "
                          f"lambda2 = {l2}: load too large")
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
    DomainError; an array holds inf or nan there (see _family_roots)."""
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


def _brentq(f, a, b, xtol=2e-12, rtol=4.0 * np.finfo(float).eps, fa=None, fb=None):
    """Root of f on [a, b], where f(a) and f(b) differ in sign.

    Brent's method (Brent 1973, ch. 4), step for step as the classic
    ``brentq`` routine: secant or inverse quadratic interpolation,
    safeguarded by bisection, until the bracket half-width drops below
    (xtol + rtol |x|) / 2.  fa and fb, when given, stand for f(a) and f(b).
    """
    xpre, xcur = float(a), float(b)
    fpre = f(xpre) if fa is None else float(fa)
    fcur = f(xcur) if fb is None else float(fb)
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


class _Column:
    """F along one load x, the other held at fixed: x is lambda2 (axis 2) or
    lambda1 (axis 1), searched on [lo, hi).  first is the family of lo."""

    def __init__(self, fixed: float, kappa: float, axis: int, lo: float, hi: float):
        _check_finite(f"lambda{3 - axis}", fixed)
        self.fixed, self.kappa, self.axis, self.lo, self.hi = fixed, kappa, axis, lo, hi
        l1, l2 = (fixed, lo) if axis == 2 else (lo, fixed)
        r1 = _wavenumbers(l1, l2, kappa, _check_admissible(l1, l2, kappa), _SCALAR_OPS)[0]
        if not math.isfinite(r1):
            self.fun(lo)  # raises DomainError: the residual overflows
        self.first = int(r1 // _TWO_PI) + 1

    def fun(self, x):
        if self.axis == 2:
            return _residual(self.fixed, x, self.kappa)
        return _residual(x, self.fixed, self.kappa)

    @staticmethod
    def sample(cols, xs):
        """F at xs[i, j] on the column cols[i], in one array call; the
        columns share their kappa and axis."""
        col = cols[0]
        # one column's load as a scalar: a (1, 1) array costs ~7 us more a window
        fixed = col.fixed if len(cols) == 1 else np.array([[c.fixed] for c in cols])
        if col.axis == 2:
            return _residual(fixed, xs, col.kappa)
        return _residual(xs, fixed, col.kappa)

    def load(self, r1: float) -> float:
        """The x at which the wavenumber r1 is reached, in closed form; r1
        grows with either load wherever lambda1 >= 0."""
        u, k = r1 * r1, self.kappa
        if self.axis == 2:
            return (u * u - k * self.fixed * u - self.fixed) / (u * (k * u + 1.0))
        return u * ((1.0 - k * self.fixed) * u - self.fixed) / (k * u + 1.0)

    def rootless_tail(self, xs) -> bool:
        """Whether no root lies at or past the window xs in lambda2.  As
        lambda2 -> 1/kappa, A/rho tends to L = kappa^2 lambda1 / cosh(r2*),
        r2* = sqrt(lambda1 / (kappa lambda1 + 1/kappa)).  With L > 1 and
        A > rho across the window, F = A + rho cos(phi) > 0 there and, as
        A/rho keeps approaching L (observed, not proved), past it too."""
        l1, k = self.fixed, self.kappa
        if self.axis == 1 or k == 0.0 or k * k * l1 <= math.cosh(math.sqrt(l1 / (k * l1 + 1.0 / k))):
            return False
        _, a, rho = _phase(l1, xs, k)
        return bool((a > rho).all())


def _family_roots(cols, k: int, touch_gate=None) -> list:
    """For each column, in order, the roots of family k on it, sorted, as
    (root, sign of F just above it) pairs; None once its families have run
    out.  The columns share their kappa and axis.

    A root of family K has r1 in (2(K - 1) pi, 2K pi), since |phi - r1| <
    pi/2 and cos(phi) < 0 there (see _phase), and r1 grows with the free
    load, so the family's window on the load axis comes from col.load.  F
    is sampled at _WINDOW_SAMPLES points across every column's window in one
    array call; a sample where F is exactly zero is a root (the window's top
    excluded: it is the next window's bottom), and each sign change is
    refined by Brent.  At a local minimum of |F| between samples of one
    sign, Brent on the complex-step F' finds the stationary point: where F
    has the other sign there it brackets a close pair of roots, and where F
    is exactly zero, or negligible against the window's scale or the
    caller's ``touch_gate(x)`` (a residual explained by the printed
    precision of the loads), it is a tangency (double) root.  The columns
    are refined one after the other, and a column whose samples are not all
    finite raises the scalar residual's error (DomainError for an overflowed
    wavenumber) when its turn comes.
    """
    found = [[] if k < col.first else None for col in cols]
    live, ends = [], []
    for slot, col in enumerate(cols):
        if k < col.first:
            continue
        a = col.lo if k == col.first else max(col.lo, col.load(_TWO_PI * (k - 1)))
        if a >= col.hi:
            continue
        b = min(col.hi, col.load(_TWO_PI * k))
        if b > a:
            live.append((slot, col))
            ends.append((a, b))
        elif k == col.first:  # b below lo by rounding; later, past where 2 pi still moves r1
            found[slot] = []
    if not live:
        return found
    a, b = np.array(ends).T
    xs = _STEPS * ((b - a) / (_WINDOW_SAMPLES - 1))[:, None] + a[:, None]  # np.linspace's rule
    xs[:, -1] = b
    with np.errstate(all="ignore"):
        vals = live[0][1].sample([col for _, col in live], xs)
        finite = np.isfinite(vals).all(axis=1).tolist()
        sign = np.sign(vals)  # products of the values themselves may overflow
        absv = np.abs(vals)
        inf = np.full((len(live), 1), np.inf)
        pad_abs = np.concatenate((inf, absv, inf), axis=1)
        # an end sample is its own outer neighbour in sign, and below inf in |F|
        pad_sign = np.concatenate((sign[:, :1], sign, sign[:, -1:]), axis=1)
        trough = ((absv <= pad_abs[:, :-2]) & (absv <= pad_abs[:, 2:])
                  & (pad_sign[:, :-2] * sign > 0.0) & (sign * pad_sign[:, 2:] > 0.0))
        hits = np.stack((vals == 0.0, sign * pad_sign[:, 2:] < 0.0, trough), axis=1)
    hits[:, 0, -1] = False  # the window's top is the next window's bottom
    todo = {}  # row: [(0 zero | 1 sign change | 2 trough, sample)], in that order
    for r, kind, i in np.argwhere(hits).tolist():
        todo.setdefault(r, []).append((kind, i))
    refine = lambda f, lo, hi, *ends: _brentq(f, lo, hi, _SCAN_XTOL, _SCAN_RTOL, *ends)
    for r, (slot, col) in enumerate(live):
        x, v, s = xs[r], vals[r], sign[r]
        if not finite[r]:
            i = int(np.argmin(np.isfinite(v)))
            with np.errstate(all="ignore"):
                col.fun(x[i])
            raise DomainError(f"the residual evaluates to {v[i]}")
        above = s[1:].tolist()
        roots = []
        for kind, i in todo.get(r, ()):
            if kind == 0:
                roots.append((float(x[i]), above[i]))
            elif kind == 1:
                roots.append((refine(col.fun, x[i], x[i + 1], v[i], v[i + 1]), above[i]))
            else:
                j, m = max(i - 1, 0), min(i + 1, _WINDOW_SAMPLES - 1)
                try:
                    z = refine(lambda t: _derivative(col.fun, t), x[j], x[m])
                except RootNotFoundError:  # F' keeps its sign: no stationary point here
                    continue
                f = col.fun(z)
                if f != 0.0 and (f < 0.0) != (v[i] < 0.0):
                    roots += [(refine(col.fun, x[j], z, v[j], f), math.copysign(1.0, f)),
                              (refine(col.fun, z, x[m], f, v[m]), float(s[i]))]
                elif f == 0.0 or (touch_gate is not None
                                  and abs(f) <= max(_TOUCH_REL * absv[r].max(), touch_gate(z))):
                    roots.append((z, float(s[i])))
        if roots or not col.rootless_tail(x):
            roots.sort()
            found[slot] = roots
    return found


def _scan_roots(col: _Column, count, touch_gate=None) -> list:
    """The column's first count roots, sorted: the family windows are walked
    upward from col.first; fewer roots when the families run out first."""
    roots = []
    for k in itertools.count(col.first):
        (found,) = _family_roots([col], k, touch_gate)
        if found is None:
            break
        roots += [x for x, _ in found]
        if len(roots) >= count:
            break
    return roots


def _solve_axis(fixed: float, kappa: float, axis: int, lo: float, hi: float, which: int) -> float:
    """The which-th root in lambda_axis of the residual, the other load held at fixed."""
    _check_index("root index", which)
    if not lo < hi:
        raise InvalidInputError(f"bracket must have lo < hi, got ({lo}, {hi})")

    def gate(x):
        # residual explainable by the fixed load and kappa known to ~6 significant digits
        l1, l2 = (fixed, x) if axis == 2 else (x, fixed)
        d_fixed = char_partials(LoadPoint(l1, l2), kappa)[2 - axis]
        dk = _kappa_partial(l1, l2, kappa)
        return 1e-5 * (abs(d_fixed) * max(1.0, abs(fixed)) + abs(dk) * max(1.0, kappa))

    roots = _scan_roots(_Column(fixed, kappa, axis, lo, hi), which, touch_gate=gate)
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


def _damped_newton2(fun, x0, tol, max_iter=50):
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


def _local_scale(l1, l2, kappa):
    probes = []
    dl = _SCALE_STEP
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
    _check_finite("guess_kappa", guess_kappa)
    _check_finite("guess_lambda1", guess_lambda1)
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

    The family windows of every lambda2 column are walked upward together
    (see _family_roots), so every root is bitwise the one a point query
    gives for it.  A root's family K is its window, and its side is lower
    where F is negative just above it and upper where F is positive.  A
    branch is the roots of one (K, side), in column order.  The two sides of
    a family form one folded family (tags lower/upper) iff its lower side
    never reaches the lambda2 = 0 axis, that is iff F(lambda1, 0) has no
    root of that family (for K = 1, iff kappa > kappa_cr); otherwise each
    side is a family of its own (tag single).  Families are numbered in
    (K, side) order among those with a root on the grid, a folded family
    counting once, and the walk stops at the mode_index-th or when every
    column's families have run out.  The fold of the returned family is
    refined from the midpoint of its branch ends; when that refinement
    fails, fold is None.
    """
    _check_index("mode index", mode_index)
    hi = lambda2_max(kappa)
    walks = [(l1, _Column(l1, kappa, 2, 1e-9, hi)) for l1 in map(float, lambda1_grid)]
    units, k = [], 0
    while walks and len(units) < mode_index:
        k = max(k + 1, min(col.first for _, col in walks))
        lower, upper, live = [], [], []
        for (l1, col), found in zip(walks, _family_roots([col for _, col in walks], k)):
            if found is not None:
                live.append((l1, col))
                for x, above in found:
                    (lower if above < 0.0 else upper).append((l1, x))
        walks = live
        if lower and upper and not _axis_has_root(kappa, k):
            units.append([("lower", lower), ("upper", upper)])
        else:
            units += [[("single", pts)] for pts in (lower, upper) if pts]
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
    """Whether F(lambda1, 0) has a root of the family: its window on the
    lambda1 axis, without a touch gate, so a double root (at kappa_cr for
    K = 1) counts only where F reaches zero at its stationary point.  Where
    cosh(r2) overflows (kappa < 2e-6, far families), A/rho is ~0 and the
    family has axis roots."""
    try:
        return bool(_family_roots([_Column(0.0, kappa, 1, 1e-9, math.inf)], family)[0])
    except DomainError:
        return True
