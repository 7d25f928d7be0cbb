"""Nonlinear equilibrium of the rod, by collocation and by shooting, and the
linear shooting oracle.

State vector (x, y, theta, v, m): coordinates, tangent angle, shear resultant,
bending moment, all dimensionless on t in [0, 1].  The second-order
moment-curvature law is closed to first order by eliminating the moment's
second derivative, leaving

    theta' = (m - kappa l1 y cos(theta) + alpha1 / rho0)
             / (1 + kappa (v sin(theta) - l2 cos(theta)))

alongside v' = -l1 y, m' = -v cos(theta) - l2 sin(theta), x' = cos(theta),
y' = sin(theta).  Boundary conditions: x = y = theta = 0 at the clamp,
v(1) = alpha2 and m(1) = 0 at the tip.

`solve_postbuckling` solves this by Chebyshev collocation: theta and m at
N + 1 Lobatto nodes are the unknowns, y = Q0 sin(theta), x = Q0 cos(theta)
and v = alpha2 + l1 Q1 y follow by spectral integration, and a damped
Newton with an analytic Jacobian drives D theta - theta' and
D m - m' to zero (Trefethen, Spectral Methods in MATLAB, 2000, ch. 6 and
13).  Q0 and Q1 anchor x, y and v, and theta(0) = 0 and m(1) = 0 replace
two rows, so the boundary conditions hold by construction.  Newton starts
from the linear mode at the nodes, and builds the Jacobian only at an
accepted iterate that has not converged.  One product of the Chebyshev
coefficients of all five states with the basis samples them on the
requested grid, the one step that touches it; the grid keeps that basis.
The reported m2_residual is the single-equation operator residual of the
collocated theta, with y = Q0 sin(theta), y'' = D sin(theta) and the
integral kernels by Q1, at the nodes and on twice as many nodes, the larger
of the two: it measures the solve, whatever the grid.  The nodes, D, Q0, Q1,
the resolution test on the Chebyshev tail and the basis all come from one
quadrature.ChebRule per size, shared through cheb_rule with the
critical-point chain.  On the trivial side of the pitchfork
`solve_postbuckling` returns the straight rod.  `residual_M2` is the same
operator by central differences on a sampled trajectory.

`shoot` is the RK4 path: (v(0), m(0)) are the shooting unknowns, read back
as trajectory.v[0] and trajectory.m[0], and the integration is classical
fixed-step 4th order with one step per grid interval, so trajectories
land exactly on the shared quadrature grid.  It is the tests' oracle; no
production path calls it.
"""

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import (
    ConstitutiveSingularityError,
    DomainError,
    InvalidInputError,
    NoConvergenceError,
    RegimeError,
    SingularDenominatorError,
)
from .model import LoadPoint, RodSetup
from .quadrature import Grid, cheb_rule
from .reduction import Verdict, amplitude_for_offsets, critical_chain, crossing_offsets

SING_TOL = 1e-8
THETA_LIMIT = 0.5 * math.pi
SHOOT_TOL = 1e-9
SHOOT_MAX_ITER = 50
CHEB_N = 32  # collocation intervals; one retry at 2 * CHEB_N if the tail is not resolved
CHEB_TAIL = 1e-10  # last three Chebyshev coefficients relative to the largest: resolved
COLLOC_TOL = 1e-12
COLLOC_STRAIGHT = 1e-6  # max |theta| below this share of the seed's: the straight rod
COLLOC_MAX_ITER = 30
COLLOC_ACCEPT_STEP = 0.125  # the line search takes the step once halved to this
COLLOC_STALL_STEP = 1e-3  # and reports a stall below this, as shoot does
DETERMINANT_STEPS = 512  # fewest RK4 steps of linear_shooting_determinant
DETERMINANT_STEP_RATE = 0.02  # its largest h max(r1, r2)
DETERMINANT_MAX_STEPS = 2**20  # its most: 16 times the 2**16 of family 200 at kappa 1e-6


def _make_rhs(p: LoadPoint, setup: RodSetup):
    """The closed first-order system as rhs(t, x, y, theta, v, m) -> its derivatives."""
    l1, l2, kappa = p.lambda1, p.lambda2, setup.kappa
    alpha1, rho0 = setup.alpha1, setup.rho0
    cos, sin = math.cos, math.sin

    def rhs(tt, xx, yy, thth, vv, mm):
        if abs(thth) >= THETA_LIMIT:
            raise RegimeError(f"|theta| reached pi/2 at t = {tt:.4f}")
        c = cos(thth)
        s = sin(thth)
        den = 1.0 + kappa * (vv * s - l2 * c)
        if abs(den) < SING_TOL:
            raise ConstitutiveSingularityError(f"constitutive denominator vanished at t = {tt:.6f}")
        curv = alpha1 * float(rho0(tt)) if alpha1 != 0.0 else 0.0
        return c, s, (mm - kappa * l1 * yy * c + curv) / den, -l1 * yy, -vv * c - l2 * s

    return rhs


@dataclass
class Trajectory:
    t: np.ndarray
    x: np.ndarray
    y: np.ndarray
    theta: np.ndarray
    v: np.ndarray
    m: np.ndarray


def integrate(p: LoadPoint, setup: RodSetup, v0: float, m0: float,
              grid: Optional[Grid] = None) -> Trajectory:
    """Fixed-step RK4 integration from the clamp, one step per grid interval."""
    if not math.isfinite(v0) or not math.isfinite(m0):
        raise InvalidInputError(f"v(0) and m(0) must be finite, got {v0}, {m0}")
    if grid is None:
        grid = Grid()
    n = grid.n
    h = 1.0 / n
    rhs = _make_rhs(p, setup)

    xs, ys, ths, vs, ms = (np.empty(n + 1) for _ in range(5))
    x = y = th = xs[0] = ys[0] = ths[0] = 0.0
    v, m = vs[0], ms[0] = v0, m0
    h2, h6 = 0.5 * h, h / 6.0
    t = 0.0
    for i in range(1, n + 1):
        a1 = rhs(t, x, y, th, v, m)
        a2 = rhs(t + h2, x + h2 * a1[0], y + h2 * a1[1], th + h2 * a1[2],
                 v + h2 * a1[3], m + h2 * a1[4])
        a3 = rhs(t + h2, x + h2 * a2[0], y + h2 * a2[1], th + h2 * a2[2],
                 v + h2 * a2[3], m + h2 * a2[4])
        a4 = rhs(t + h, x + h * a3[0], y + h * a3[1], th + h * a3[2],
                 v + h * a3[3], m + h * a3[4])
        x += h6 * (a1[0] + 2.0 * (a2[0] + a3[0]) + a4[0])
        y += h6 * (a1[1] + 2.0 * (a2[1] + a3[1]) + a4[1])
        th += h6 * (a1[2] + 2.0 * (a2[2] + a3[2]) + a4[2])
        v += h6 * (a1[3] + 2.0 * (a2[3] + a3[3]) + a4[3])
        m += h6 * (a1[4] + 2.0 * (a2[4] + a3[4]) + a4[4])
        t += h
        xs[i], ys[i], ths[i], vs[i], ms[i] = x, y, th, v, m

    return Trajectory(t=np.linspace(0.0, 1.0, n + 1), x=xs, y=ys, theta=ths, v=vs, m=ms)


@dataclass
class BvpSolution:
    trajectory: Trajectory
    load: LoadPoint
    setup: RodSetup
    m2_residual: Optional[float] = None
    path: Optional[str] = None  # solve_postbuckling: "direct", "continuation" or "trivial"
    newton_iterations: Optional[int] = None  # collocation Newton steps of the returned solve


def shoot(p: LoadPoint, setup: RodSetup, guess_v0: float, guess_m0: float,
          grid: Optional[Grid] = None) -> BvpSolution:
    """Damped finite-difference Newton on (v(1) - alpha2, m(1)) over the
    initial values (v(0), m(0)), integrating on grid."""
    if grid is None:
        grid = Grid()
    u = np.array([guess_v0, guess_m0], dtype=float)

    def residual(uu):
        traj = integrate(p, setup, uu[0], uu[1], grid=grid)
        return np.array([traj.v[-1] - setup.alpha2, traj.m[-1]]), traj

    try:
        r, traj = residual(u)
    except RegimeError as exc:
        raise NoConvergenceError(f"initial guess not integrable: {exc}",
                                 last_iterate=tuple(u)) from exc
    for _ in range(SHOOT_MAX_ITER):
        if np.max(np.abs(r)) < SHOOT_TOL:
            sol = BvpSolution(trajectory=traj, load=p, setup=setup)
            sol.m2_residual = residual_M2(sol)
            return sol
        jac = np.zeros((2, 2))
        for j in range(2):
            up = u.copy()
            hp = 1e-7 * max(1.0, abs(u[j]))
            up[j] += hp
            try:
                rp, _ = residual(up)
            except RegimeError as exc:
                raise NoConvergenceError(f"Jacobian probe failed: {exc}",
                                         last_iterate=tuple(u)) from exc
            jac[:, j] = (rp - r) / hp
        try:
            du = np.linalg.solve(jac, -r)
        except np.linalg.LinAlgError as exc:
            raise NoConvergenceError("singular shooting Jacobian", last_iterate=tuple(u)) from exc
        base = np.max(np.abs(r))
        lam = 1.0
        while lam > 1e-3:
            try:
                r_new, traj_new = residual(u + lam * du)
            except RegimeError:
                lam *= 0.5
                continue
            if np.max(np.abs(r_new)) < base or lam <= 0.125:
                break
            lam *= 0.5
        else:
            raise NoConvergenceError("shooting line search stalled",
                                     last_iterate=tuple(u), residual=float(base))
        u = u + lam * du
        r, traj = r_new, traj_new
    raise NoConvergenceError(
        f"shooting Newton did not converge in {SHOOT_MAX_ITER} iterations",
        last_iterate=tuple(u), residual=float(np.max(np.abs(r))),
    )


def _collocate(p: LoadPoint, setup: RodSetup, theta: np.ndarray, m: np.ndarray,
               grid: Grid) -> BvpSolution:
    """Chebyshev collocation of the equilibrium from the seed theta, m at the
    CHEB_N + 1 nodes, sampled on grid.

    If the Chebyshev tail of theta or m is not resolved on CHEB_N + 1 nodes,
    Newton restarts once on 2 * CHEB_N + 1 nodes from the CHEB_N solution.
    A Newton that lands on the straight rod (max |theta| below the larger
    of COLLOC_TOL and COLLOC_STRAIGHT times the seed's, where the tail test
    would compare roundoff with roundoff) is reported as such.  m2_residual
    is _spectral_m2 of the solution at its nodes and on twice as many, the
    larger value.
    """
    straight = max(COLLOC_TOL, COLLOC_STRAIGHT * np.max(np.abs(theta)))
    theta, m, iterations = _collocation_newton(p, setup, theta, m)
    if np.max(np.abs(theta)) < straight:
        raise NoConvergenceError("collocation converged to the straight rod")
    rule = cheb_rule(len(theta) - 1)
    if not (rule.resolved(theta, CHEB_TAIL) and rule.resolved(m, CHEB_TAIL)):
        coarse, rule = rule, cheb_rule(2 * CHEB_N)
        theta, m = coarse.eval([theta, m], rule)
        theta[0] = 0.0
        theta, m, more = _collocation_newton(p, setup, theta, m)
        iterations += more
        if not (rule.resolved(theta, CHEB_TAIL) and rule.resolved(m, CHEB_TAIL)):
            raise NoConvergenceError(
                f"collocation not resolved on {2 * CHEB_N + 1} Chebyshev nodes")

    x, y = rule.q0 @ np.cos(theta), rule.q0 @ np.sin(theta)
    v = setup.alpha2 + p.lambda1 * (rule.q1 @ y)
    xs, ys, ths, vs, ms = rule.eval([x, y, theta, v, m], grid)
    xs[0] = ys[0] = ths[0] = 0.0
    den = 1.0 + setup.kappa * (vs * np.sin(ths) - p.lambda2 * np.cos(ths))
    if np.max(np.abs(ths)) >= THETA_LIMIT or np.min(np.abs(den)) < SING_TOL:
        raise NoConvergenceError("collocation solution leaves the regime between the nodes",
                                 last_iterate=(float(v[0]), float(m[0])))
    traj = Trajectory(t=grid.t.copy(), x=xs, y=ys, theta=ths, v=vs, m=ms)
    sol = BvpSolution(trajectory=traj, load=p, setup=setup, newton_iterations=iterations)
    fine = cheb_rule(2 * rule.n)
    sol.m2_residual = max(_spectral_m2(p, setup, rule, theta),
                          _spectral_m2(p, setup, fine, rule.eval(theta, fine)))
    return sol


def _spectral_m2(p: LoadPoint, setup: RodSetup, rule, theta: np.ndarray) -> float:
    """Sup-norm of the single-equation operator residual at the nodes of rule,
    for theta at those nodes: y' = sin(theta), y = Q0 y', y'' = D y'."""
    yd = np.sin(theta)
    res = _m2_operator(rule, p, setup, rule.q0 @ yd, yd, rule.d @ yd)
    return float(np.max(np.abs(res)))


def _collocation_newton(p: LoadPoint, setup: RodSetup, theta: np.ndarray, m: np.ndarray):
    """Damped Newton on the collocation residual over (theta, m) at the nodes,
    with the analytic Jacobian; returns (theta, m, iterations).  The Jacobian
    is built only at an accepted iterate that has not converged."""
    n1 = len(theta)
    rule = cheb_rule(n1 - 1)
    nodes, d, q0, q1 = rule.t, rule.d, rule.q0, rule.q1
    l1, l2, kappa, alpha2 = p.lambda1, p.lambda2, setup.kappa, setup.alpha2
    curv = setup.alpha1 * np.asarray(setup.rho0(nodes), dtype=float) if setup.alpha1 else 0.0

    def residual(th, mm):
        """(residual, terms for the Jacobian), or None outside the regime at a node."""
        c, s = np.cos(th), np.sin(th)
        y = q0 @ s
        v = alpha2 + l1 * (q1 @ y)
        den = 1.0 + kappa * (v * s - l2 * c)
        if np.max(np.abs(th)) >= THETA_LIMIT or np.min(np.abs(den)) < SING_TOL:
            return None
        num = mm - kappa * l1 * y * c + curv
        r = np.concatenate([d @ th - num / den, d @ mm + v * c + l2 * s])
        # the rows of theta at t = 0 and of m at t = 1 carry theta(0) = 0, m(1) = 0
        r[0], r[-1] = th[0], mm[-1]
        return r, (c, s, y, v, den, num)

    current = residual(theta, m)
    if current is None:
        raise NoConvergenceError("collocation seed leaves the regime at a node")
    for iteration in range(COLLOC_MAX_ITER):
        r, terms = current
        base = float(np.max(np.abs(r)))
        if base < COLLOC_TOL:
            return theta, m, iteration
        v0 = float(terms[3][0])  # v(0), for the errors' last iterate
        try:
            step = np.linalg.solve(_collocation_jacobian(rule, p, kappa, *terms), -r)
        except np.linalg.LinAlgError as exc:
            raise NoConvergenceError("singular collocation Jacobian",
                                     last_iterate=(v0, float(m[0]))) from exc
        lam = 1.0
        while lam > COLLOC_STALL_STEP:
            current = residual(theta + lam * step[:n1], m + lam * step[n1:])
            if current is None:
                lam *= 0.5
                continue
            if np.max(np.abs(current[0])) < base or lam <= COLLOC_ACCEPT_STEP:
                break
            lam *= 0.5
        else:
            raise NoConvergenceError("collocation line search stalled",
                                     last_iterate=(v0, float(m[0])), residual=base)
        theta, m = theta + lam * step[:n1], m + lam * step[n1:]
    raise NoConvergenceError(
        f"collocation Newton did not converge in {COLLOC_MAX_ITER} iterations",
        last_iterate=(float(current[1][3][0]), float(m[0])),
        residual=float(np.max(np.abs(current[0]))))


def _collocation_jacobian(rule, p: LoadPoint, kappa: float, c, s, y, v, den, num) -> np.ndarray:
    """The analytic Jacobian of the collocation residual over (theta, m) at the
    nodes of rule, from the terms of its residual evaluation."""
    n1 = rule.n + 1
    d, q0, q1 = rule.d, rule.q0, rule.q1
    l1, l2 = p.lambda1, p.lambda2
    dy = q0 * c  # dy/dtheta = Q0 diag(cos theta)
    dv = l1 * (q1 @ dy)
    dnum = -kappa * l1 * (c[:, None] * dy - np.diag(y * s))
    dden = kappa * (s[:, None] * dv + np.diag(v * c + l2 * s))
    jac = np.empty((2 * n1, 2 * n1))
    jac[:n1, :n1] = d - dnum / den[:, None] + (num / den**2)[:, None] * dden
    jac[:n1, n1:] = np.diag(-1.0 / den)
    jac[n1:, :n1] = c[:, None] * dv + np.diag(l2 * c - v * s)
    jac[n1:, n1:] = d
    jac[[0, -1]] = 0.0
    jac[0, 0] = jac[-1, -1] = 1.0
    return jac


def _mode_seed(yL, amplitude: float):
    """theta and m of the linear mode at amplitude a, at the CHEB_N + 1 nodes:
    theta = a yL' and m = a ((1 - kappa l02) yL'' + kappa l01 yL)."""
    nodes = cheb_rule(CHEB_N).t
    p0, kappa = yL.p0, yL.kappa
    theta = amplitude * yL(nodes, 1)
    theta[0] = 0.0
    m = amplitude * ((1.0 - kappa * p0.lambda2) * yL(nodes, 2) + kappa * p0.lambda1 * yL(nodes))
    return theta, m


def solve_postbuckling(p0: LoadPoint, kappa: float, delta: float,
                       direction: str = "along-lambda1", sign: int = 1,
                       grid: Optional[Grid] = None) -> BvpSolution:
    """Equilibrium near a critical point, loads offset across the curve.

    The offset follows the crossing path of the reduction module
    ((delta, -eta' delta) for along-lambda1, (-eta' delta, delta) for
    along-lambda2); the seed is the linear mode at the bifurcation amplitude,
    with the requested branch sign, and each attempt is solved by
    collocation.  If the direct solve fails, or lands on the trivial state or
    the mirrored branch, the offset is walked up quadratically in five
    continuation steps, each seeded with the previous solution's theta and m
    at the nodes scaled by the amplitude law a ~ sqrt(offset); a step that
    fails from that seed is retried once from the unscaled previous solution.
    Where the amplitude law has no positive radicand (the trivial side), the
    straight rod at the offset load is returned in closed form, and no
    Newton runs.  The solution's path records which of the three returned it.
    """
    if grid is None:
        grid = Grid()
    if sign not in (1, -1):
        raise InvalidInputError(f"sign must be +1 or -1, got {sign!r}")
    if not math.isfinite(delta):
        raise InvalidInputError(f"delta must be finite, got {delta}")
    yL, _, rc = critical_chain(p0, kappa, grid)
    if rc.verdict is Verdict.DEGENERATE:
        raise DomainError("degenerate critical point; no seeding amplitude")

    setup = RodSetup(kappa=kappa)
    dl1, dl2 = crossing_offsets(rc, delta, direction)
    if amplitude_for_offsets(rc, dl1, dl2) is None:
        # only a = 0 solves the bifurcation equation: the straight rod
        traj = Trajectory(grid.t.copy(), grid.t.copy(), *(np.zeros(grid.n + 1) for _ in range(4)))
        return BvpSolution(trajectory=traj, load=p0.offset(dl1, dl2), setup=setup,
                           m2_residual=0.0, path="trivial", newton_iterations=0)
    tip_mode = float(yL(1.0))

    def attempt(d, guess=None):
        dl1, dl2 = crossing_offsets(rc, d, direction)
        # None only where a subnormal offset's radicand underflows: seed zero
        amp = amplitude_for_offsets(rc, dl1, dl2) or 0.0
        p = p0.offset(dl1, dl2)
        theta, m = guess if guess is not None else _mode_seed(yL, sign * amp)
        sol = _collocate(p, setup, theta, m, grid=grid)
        # the tip must carry the requested sign and a share of the predicted size
        tip = float(sol.trajectory.y[-1])
        if sign * math.copysign(1.0, tip_mode) * tip < 0.2 * amp * abs(tip_mode):
            raise NoConvergenceError("converged to the trivial or the mirrored branch",
                                     last_iterate=(float(sol.trajectory.v[0]),
                                                   float(sol.trajectory.m[0])))
        return sol

    try:
        sol = attempt(delta)
        sol.path = "direct"
        return sol
    except NoConvergenceError:
        pass
    nodes = cheb_rule(CHEB_N).t
    sol = attempt(delta * (1 / 5.0) ** 2)
    for k in range(2, 6):
        d = delta * (k / 5.0) ** 2
        traj = sol.trajectory
        theta, m = np.interp(nodes, traj.t, traj.theta), np.interp(nodes, traj.t, traj.m)
        try:
            sol = attempt(d, guess=(k / (k - 1) * theta, k / (k - 1) * m))
        except NoConvergenceError:
            # the tip grows slower than sqrt(offset) at large offsets, where
            # the scaled seed can leave the |theta| < pi/2 regime
            sol = attempt(d, guess=(theta, m))
    sol.path = "continuation"
    return sol


def _central_second_derivative(slope: np.ndarray, h: float) -> np.ndarray:
    """y'' from the sampled slope y' by central differences, endpoints copied inward."""
    ydd = np.empty_like(slope)
    ydd[1:-1] = (slope[2:] - slope[:-2]) / (2.0 * h)
    ydd[0] = ydd[1]
    ydd[-1] = ydd[-2]
    return ydd


def residual_M2(sol: BvpSolution) -> float:
    """Sup-norm of the single-equation operator residual on a sampled trajectory.

    A check of the trajectory as sampled on its uniform grid, whatever solved
    it: the deflection's second derivative is taken by central differences,
    the integral kernels by the grid's quadrature, so the value carries the
    stencil's O(h^2) error.  The first and last grid points are skipped
    (one-sided stencils would dominate the residual).  solve_postbuckling
    reports the spectral residual of its collocation instead.
    """
    traj = _finite_trajectory(sol)
    grid = Grid(len(traj.t) - 1)
    yd = np.sin(traj.theta)
    res = _m2_operator(grid, sol.load, sol.setup, traj.y, yd,
                       _central_second_derivative(yd, grid.h))
    return float(np.max(np.abs(res[1:-1])))


def _m2_operator(quad: Grid, p: LoadPoint, setup: RodSetup, y, yd, ydd) -> np.ndarray:
    """The single-equation operator residual y'' - sqrt(1 - y'^2) N / D at the
    points of quad, with the integral kernels by quad's quadrature."""
    kappa, l1, l2 = setup.kappa, p.lambda1, p.lambda2
    j1 = quad.j1(yd)  # rejects |y'| >= 1
    j2 = quad.j2(y, yd)
    root = np.sqrt(1.0 - yd**2)
    i1y = quad.i1(y)
    i1yd = quad.i1(yd)
    curv = setup.alpha1 * np.asarray(setup.rho0(quad.t), dtype=float) if setup.alpha1 else 0.0
    numer = curv + setup.alpha2 * j1 + l1 * (j2 - kappa * y * root) + l2 * i1yd
    denom = 1.0 + kappa * setup.alpha2 * yd + kappa * l1 * yd * i1y - kappa * l2 * root
    return ydd - root * numer / denom


def _finite_trajectory(sol: BvpSolution) -> Trajectory:
    """sol's trajectory, once every sample of it is checked finite."""
    traj = sol.trajectory
    for name in ("t", "x", "y", "theta", "v", "m"):
        if not np.all(np.isfinite(getattr(traj, name))):
            raise InvalidInputError(f"trajectory.{name} holds a non-finite sample")
    return traj


def tip_deflection(sol: BvpSolution) -> float:
    return float(_finite_trajectory(sol).y[-1])


def node_count(sol: BvpSolution) -> int:
    """Interior sign changes of y' on (0, 1); 0 is first-mode-like."""
    return _sign_changes(np.sin(_finite_trajectory(sol).theta[1:-1]))


def _sign_changes(samples: np.ndarray) -> int:
    scale = np.max(np.abs(samples))
    if scale == 0.0:
        return 0
    signif = samples[np.abs(samples) > max(1e-9, 1e-7 * scale)]
    if signif.size < 2:
        return 0
    return int(np.sum(np.sign(signif[:-1]) != np.sign(signif[1:])))


def linear_shooting_determinant(p: LoadPoint, kappa: float) -> float:
    """Terminal-condition determinant of the linearized fourth-order problem.

    Two unit solutions with (y''(0), y'''(0)) = (1, 0) and (0, 1) are
    integrated; the rows are the two tip conditions of the linearized
    boundary set.  Zeros coincide with the characteristic residual's zeros,
    which makes this the independent root oracle for the curve module.

    The linearized system s' = A s has constant coefficients, so one
    classical RK4 step of size h is exactly s -> M s with the stability
    polynomial M = sum_{k<=4} (hA)^k / k!, and the steps are its power.

    The step count is the smallest power of two, at least
    DETERMINANT_STEPS, with h max(r1, r2) <= DETERMINANT_STEP_RATE, where
    r1 and r2 are the wavenumbers of y'''' + co2 y'' - co0 y = 0, so the
    oracle resolves the roots of far families too: its sign change lies
    within 1e-8 relative of F's root at kappa 0, lambda1 1, lambda2 713.07
    (2048 steps) and at kappa 1e-6, lambda1 1, lambda2 611679.34 (65536
    steps).  At the README points 512 steps meet the bound.  A load that
    would need more than DETERMINANT_MAX_STEPS steps, or whose rate
    overflows, raises DomainError.
    """
    if not math.isfinite(kappa):
        raise InvalidInputError(f"kappa must be finite, got {kappa}")
    denom = 1.0 - kappa * p.lambda2
    if denom <= 0.0:
        raise SingularDenominatorError(
            f"1 - kappa*lambda2 = {denom:.3e} <= 0 at lambda2 = {p.lambda2}")
    co2 = (kappa * p.lambda1 + p.lambda2) / denom
    co0 = p.lambda1 / denom
    # max(r1, r2), from r1^2, r2^2 = (sqrt(co2^2 + 4 co0) +- co2) / 2
    rate = math.sqrt(0.5 * abs(co2) + 0.5 * math.hypot(co2, 2.0 * math.sqrt(co0)))
    if rate > DETERMINANT_STEP_RATE * DETERMINANT_MAX_STEPS:
        raise DomainError(f"max(r1, r2) = {rate:.3e} needs over {DETERMINANT_MAX_STEPS} RK4 steps")
    steps = DETERMINANT_STEPS
    while DETERMINANT_STEP_RATE * steps < rate:
        steps *= 2
    h = 1.0 / steps

    # state (y, y', y'', y'''), y'''' = -co2 y'' + co0 y
    hA = np.zeros((4, 4))
    hA[0, 1] = hA[1, 2] = hA[2, 3] = h
    hA[3, 0], hA[3, 2] = h * co0, -h * co2
    step = term = np.eye(4)
    for k in range(1, 5):
        term = term @ hA / k
        step = step + term
    # columns: the unit solutions started from y''(0) = 1 and y'''(0) = 1
    s = np.linalg.matrix_power(step, steps)[:, 2:]
    b1 = s[2] * denom + kappa * p.lambda1 * s[0]
    b2 = s[3] * denom + (kappa * p.lambda1 + p.lambda2) * s[1]
    return float(b1[0] * b2[1] - b2[0] * b1[1])
