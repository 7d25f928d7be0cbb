"""Nonlinear equilibrium of the rod by shooting, and the linear shooting oracle.

State vector (x, y, theta, v, m): coordinates, tangent angle, shear resultant,
bending moment, all dimensionless on t in [0, 1].  The second-order
moment-curvature law is closed to first order by eliminating the moment's
second derivative, leaving

    theta' = (m - kappa l1 y cos(theta) + alpha1 / rho0)
             / (1 + kappa (v sin(theta) - l2 cos(theta)))

alongside v' = -l1 y, m' = -v cos(theta) - l2 sin(theta), x' = cos(theta),
y' = sin(theta).  Boundary conditions: x = y = theta = 0 at the clamp,
v(1) = alpha2 and m(1) = 0 at the tip; (v(0), m(0)) are the shooting
unknowns.  Integration is classical fixed-step 4th order with one step per
grid interval, so trajectories land exactly on the shared quadrature grid.
"""

import functools
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import (
    AmplitudeSeedError,
    ConstitutiveSingularityError,
    DomainError,
    NoConvergenceError,
    RegimeError,
)
from .model import LoadPoint, RodSetup
from .quadrature import Grid
from .reduction import Verdict, amplitude_for_offsets, critical_chain, crossing_offsets

SING_TOL = 1e-8
THETA_LIMIT = 0.5 * math.pi
SHOOT_TOL = 1e-9
SHOOT_MAX_ITER = 50
COARSE_N = 256  # steps of the grid shoot converges on before the requested one


@functools.lru_cache(maxsize=8)
def _stage_times(n: int) -> memoryview:
    """The RK4 stage times t_0, t_0 + h/2, t_1, ..., t_n of n steps on
    [0, 1], t accumulated as t += h, so that stage 4's t_i + h is t_{i+1}."""
    h, t, times = 1.0 / n, 0.0, np.empty(2 * n + 1)
    for i in range(n):
        times[2 * i], times[2 * i + 1] = t, t + 0.5 * h
        t += h
    times[-1] = t
    return memoryview(times).toreadonly()


def _make_rhs(p: LoadPoint, setup: RodSetup, n: Optional[int] = None):
    """The closed first-order system as rhs(t, x, y, theta, v, m) -> its derivatives.
    With n, rhs takes only the _stage_times(n), where one rho0 call samples alpha1 / rho0."""
    l1, l2, kappa = p.lambda1, p.lambda2, setup.kappa
    alpha1, rho0 = setup.alpha1, setup.rho0
    cos, sin = math.cos, math.sin
    if alpha1 != 0.0 and n is not None:
        times = _stage_times(n).tolist()
        samples = np.broadcast_to(np.asarray(rho0(np.array(times)), dtype=float), len(times))
        curvature = dict(zip(times, (alpha1 * samples).tolist())).__getitem__
    else:
        curvature = lambda tt: alpha1 * float(rho0(tt))

    def rhs(tt, xx, yy, thth, vv, mm):
        if abs(thth) >= THETA_LIMIT:
            raise RegimeError(f"|theta| reached pi/2 at t = {tt:.4f}")
        c = cos(thth)
        s = sin(thth)
        den = 1.0 + kappa * (vv * s - l2 * c)
        if abs(den) < SING_TOL:
            raise ConstitutiveSingularityError(f"constitutive denominator vanished at t = {tt:.6f}")
        curv = curvature(tt) if alpha1 != 0.0 else 0.0
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

    def terminal(self):
        return self.v[-1], self.m[-1]


def integrate(p: LoadPoint, setup: RodSetup, v0: float, m0: float,
              grid: Optional[Grid] = None) -> Trajectory:
    """Fixed-step RK4 integration from the clamp, one step per grid interval."""
    if grid is None:
        grid = Grid()
    n = grid.n
    h = 1.0 / n
    rhs = _make_rhs(p, setup, n)

    xs, ys, ths, vs, ms = (np.empty(n + 1) for _ in range(5))
    x = y = th = xs[0] = ys[0] = ths[0] = 0.0
    v, m = vs[0], ms[0] = v0, m0
    h2, h6 = 0.5 * h, h / 6.0
    stages = iter(_stage_times(n))
    t = next(stages)
    for i, tm, t1 in zip(range(1, n + 1), stages, stages):  # tm = t + h/2, t1 = t + h
        a1 = rhs(t, x, y, th, v, m)
        a2 = rhs(tm, x + h2 * a1[0], y + h2 * a1[1], th + h2 * a1[2],
                 v + h2 * a1[3], m + h2 * a1[4])
        a3 = rhs(tm, x + h2 * a2[0], y + h2 * a2[1], th + h2 * a2[2],
                 v + h2 * a2[3], m + h2 * a2[4])
        a4 = rhs(t1, x + h * a3[0], y + h * a3[1], th + h * a3[2],
                 v + h * a3[3], m + h * a3[4])
        x += h6 * (a1[0] + 2.0 * (a2[0] + a3[0]) + a4[0])
        y += h6 * (a1[1] + 2.0 * (a2[1] + a3[1]) + a4[1])
        th += h6 * (a1[2] + 2.0 * (a2[2] + a3[2]) + a4[2])
        v += h6 * (a1[3] + 2.0 * (a2[3] + a3[3]) + a4[3])
        m += h6 * (a1[4] + 2.0 * (a2[4] + a3[4]) + a4[4])
        t = t1
        xs[i], ys[i], ths[i], vs[i], ms[i] = x, y, th, v, m

    return Trajectory(t=np.linspace(0.0, 1.0, n + 1), x=xs, y=ys, theta=ths, v=vs, m=ms)


@dataclass
class BvpSolution:
    trajectory: Trajectory
    load: LoadPoint
    setup: RodSetup
    v0: float
    m0: float
    terminal_residuals: tuple
    m2_residual: Optional[float] = field(default=None)


def shoot(p: LoadPoint, setup: RodSetup, guess_v0: float, guess_m0: float,
          grid: Optional[Grid] = None) -> BvpSolution:
    """Newton on (v(1) - alpha2, m(1)) over the initial values (v(0), m(0)).

    Grid-sequenced: on a grid finer than COARSE_N steps, Newton first
    converges on Grid(COARSE_N) and then restarts on the requested grid from
    that solution, which differs from the fine-grid one only by the coarse
    RK4 error.  The returned trajectory and residuals, and the SHOOT_TOL
    check, are those of the requested grid.
    """
    if grid is None:
        grid = Grid()
    if grid.n > COARSE_N:
        try:
            coarse = _newton(p, setup, guess_v0, guess_m0, Grid(COARSE_N))
        except NoConvergenceError as exc:
            raise NoConvergenceError(f"{exc} on the {COARSE_N}-step grid",
                                     last_iterate=exc.last_iterate,
                                     residual=exc.residual) from exc
        guess_v0, guess_m0 = coarse.v0, coarse.m0
    sol = _newton(p, setup, guess_v0, guess_m0, grid)
    sol.m2_residual = residual_M2(sol)
    return sol


def _newton(p: LoadPoint, setup: RodSetup, v0: float, m0: float, grid: Grid) -> BvpSolution:
    """Damped finite-difference Newton for the terminal conditions on one grid."""
    u = np.array([v0, m0], dtype=float)

    def residual(uu):
        traj = integrate(p, setup, uu[0], uu[1], grid=grid)
        v1, m1 = traj.terminal()
        return np.array([v1 - setup.alpha2, m1]), traj

    try:
        r, traj = residual(u)
    except RegimeError as exc:
        raise NoConvergenceError(f"initial guess not integrable: {exc}",
                                 last_iterate=tuple(u)) from exc
    for _ in range(SHOOT_MAX_ITER):
        if np.max(np.abs(r)) < SHOOT_TOL:
            return BvpSolution(trajectory=traj, load=p, setup=setup, v0=float(u[0]),
                               m0=float(u[1]), terminal_residuals=(float(r[0]), float(r[1])))
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


def _mode_seed(yL, amplitude: float, grid: Grid):
    """Initial (v0, m0) predicted from the linear mode at amplitude a."""
    p0 = yL.p0
    v0 = amplitude * p0.lambda1 * grid.inner(np.ones_like(grid.t), yL.sample(grid))
    m0 = amplitude * (1.0 - yL.kappa * p0.lambda2) * float(yL(0.0, 2))
    return v0, m0


def solve_postbuckling(p0: LoadPoint, kappa: float, delta: float,
                       direction: str = "along-lambda1", sign: int = 1,
                       grid: Optional[Grid] = None) -> BvpSolution:
    """Nontrivial equilibrium near a critical point, loads offset across the curve.

    The offset follows the crossing path of the reduction module
    ((delta, -eta' delta) for along-lambda1, (-eta' delta, delta) for
    along-lambda2); the shooting seed comes from the bifurcation amplitude of
    the linear mode, with the requested branch sign.  If the direct solve
    fails, or lands on the trivial state or the mirrored branch, the offset is
    walked up quadratically in five continuation steps, each seeded with the
    previous solution scaled by the amplitude law a ~ sqrt(offset); a step
    that fails from that seed is retried once from the unscaled previous
    solution.
    """
    if grid is None:
        grid = Grid()
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    yL, _, rc = critical_chain(p0, kappa, grid)
    if rc.verdict is Verdict.DEGENERATE:
        raise DomainError("degenerate critical point; no seeding amplitude")

    setup = RodSetup(kappa=kappa)
    tip_mode = float(yL(1.0))

    def attempt(d, guess=None):
        dl1, dl2 = crossing_offsets(rc, d, direction)
        amp = amplitude_for_offsets(rc, dl1, dl2)
        p = p0.offset(dl1, dl2)
        if amp is None:
            raise AmplitudeSeedError(
                f"offset {d} lies on the trivial side; no nontrivial branch to seed", load=p)
        v0, m0 = guess if guess is not None else _mode_seed(yL, sign * amp, grid)
        sol = shoot(p, setup, v0, m0, grid=grid)
        # the tip must carry the requested sign and a share of the predicted size
        if sign * math.copysign(1.0, tip_mode) * tip_deflection(sol) < 0.2 * amp * abs(tip_mode):
            raise NoConvergenceError("converged to the trivial or the mirrored branch",
                                     last_iterate=(sol.v0, sol.m0))
        return sol

    try:
        return attempt(delta)
    except NoConvergenceError:
        pass
    sol = attempt(delta * (1 / 5.0) ** 2)
    for k in range(2, 6):
        d = delta * (k / 5.0) ** 2
        try:
            sol = attempt(d, guess=(k / (k - 1) * sol.v0, k / (k - 1) * sol.m0))
        except NoConvergenceError:
            # the tip grows slower than sqrt(offset) at large offsets, where
            # the scaled seed can leave the |theta| < pi/2 regime
            sol = attempt(d, guess=(sol.v0, sol.m0))
    return sol


def _central_second_derivative(slope: np.ndarray, h: float) -> np.ndarray:
    """y'' from the sampled slope y' by central differences, endpoints copied inward."""
    ydd = np.empty_like(slope)
    ydd[1:-1] = (slope[2:] - slope[:-2]) / (2.0 * h)
    ydd[0] = ydd[1]
    ydd[-1] = ydd[-2]
    return ydd


def residual_M2(sol: BvpSolution) -> float:
    """Sup-norm of the single-equation operator residual on the sampled deflection.

    The deflection's second derivative is taken by central differences; the
    integral kernels by the shared quadrature.  The first and last grid
    points are skipped (one-sided stencils would dominate the residual).
    """
    grid = Grid(len(sol.trajectory.t) - 1)
    setup, p = sol.setup, sol.load
    kappa, l1, l2 = setup.kappa, p.lambda1, p.lambda2
    y = sol.trajectory.y
    yd = np.sin(sol.trajectory.theta)
    j1 = grid.j1(yd)  # rejects |y'| >= 1
    j2 = grid.j2(y, yd)
    ydd = _central_second_derivative(yd, grid.h)

    root = np.sqrt(1.0 - yd**2)
    i1y = grid.i1(y)
    i1yd = grid.i1(yd)
    curv = setup.alpha1 * np.asarray(setup.rho0(grid.t), dtype=float) if setup.alpha1 else 0.0
    numer = curv + setup.alpha2 * j1 + l1 * (j2 - kappa * y * root) + l2 * i1yd
    denom = 1.0 + kappa * setup.alpha2 * yd + kappa * l1 * yd * i1y - kappa * l2 * root
    res = ydd - root * numer / denom
    return float(np.max(np.abs(res[1:-1])))


def tip_deflection(sol: BvpSolution) -> float:
    return float(sol.trajectory.y[-1])


def node_count(sol: BvpSolution) -> int:
    """Interior sign changes of y' on (0, 1); 0 is first-mode-like."""
    return _sign_changes(np.sin(sol.trajectory.theta[1:-1]))


def _sign_changes(samples: np.ndarray) -> int:
    scale = np.max(np.abs(samples))
    if scale == 0.0:
        return 0
    signif = samples[np.abs(samples) > max(1e-9, 1e-7 * scale)]
    if signif.size < 2:
        return 0
    return int(np.sum(np.sign(signif[:-1]) != np.sign(signif[1:])))


def linear_shooting_determinant(p: LoadPoint, kappa: float, n_steps: int = 512) -> float:
    """Terminal-condition determinant of the linearized fourth-order problem.

    Two unit solutions with (y''(0), y'''(0)) = (1, 0) and (0, 1) are
    integrated; the rows are the two tip conditions of the linearized
    boundary set.  Zeros coincide with the characteristic residual's zeros,
    which makes this the independent root oracle for the curve module.

    The linearized system s' = A s has constant coefficients, so one
    classical RK4 step of size h is exactly s -> M s with the stability
    polynomial M = sum_{k<=4} (hA)^k / k!, and n_steps steps are M^n_steps.
    """
    denom = 1.0 - kappa * p.lambda2
    if denom <= 0.0:
        return float("nan")
    co2 = (kappa * p.lambda1 + p.lambda2) / denom
    co0 = p.lambda1 / denom
    h = 1.0 / n_steps

    # state (y, y', y'', y'''), y'''' = -co2 y'' + co0 y
    hA = np.zeros((4, 4))
    hA[0, 1] = hA[1, 2] = hA[2, 3] = h
    hA[3, 0], hA[3, 2] = h * co0, -h * co2
    step = term = np.eye(4)
    for k in range(1, 5):
        term = term @ hA / k
        step = step + term
    # columns: the unit solutions started from y''(0) = 1 and y'''(0) = 1
    s = np.linalg.matrix_power(step, n_steps)[:, 2:]
    b1 = s[2] * denom + kappa * p.lambda1 * s[0]
    b2 = s[3] * denom + (kappa * p.lambda1 + p.lambda2) * s[1]
    return float(b1[0] * b2[1] - b2[0] * b1[1])
