"""Acceptance suite: one numbered criterion per test, one printed line each.

Run with `pytest tests/test_acceptance.py -s` to see the PASS/FAIL lines.
Criterion 7's subcritical sub-assertion is expected to fail and is marked
strict-xfail: the quantity behind those two published verdicts is the sign
of an identically zero expression, and the nonlinear equilibrium branch at
both points demonstrably bifurcates supercritically (see the repository
decision notes).  Everything else must pass.
"""

import math

import numpy as np
import pytest
from scipy.optimize import brentq

from nanorod.bvp import (
    linear_shooting_determinant,
    node_count,
    solve_postbuckling,
    tip_deflection,
)
from nanorod.charcurve import (
    char_residual,
    find_branch_minimum,
    find_fold,
    find_kappa_cr,
    solve_lambda2,
)
from nanorod.model import LoadPoint
from nanorod.modes import (
    adjoint_boundary_residuals,
    adjoint_kernel,
    linear_residual_L4,
    mode_shape,
)
from nanorod.quadrature import Grid
from nanorod.reduction import Verdict, reduction_coefficients
from nanorod.unfolding import is_universal_unfolding, unfolding_coefficients

from conftest import fixture_curvature

GRID = Grid()

# Fig. 6 caption pairs, kappa = 0.25
FIG6_PAIRS = [
    (0.05, 1.52248), (2.5, 1.33903), (5.0, 1.13541), (7.5, 0.916144),
    (10.0, 0.682732), (12.5, 0.436978), (15.0, 0.180736), (16.71310, 0.0),
]
# Figs. 5/7/9 caption pairs, kappa = 0.45 (union; root index in lambda2)
FIG579_PAIRS = [
    (0.05, 1.16776, 1), (2.5, 1.10261, 1), (5.0, 1.05447, 1), (6.0, 1.04544, 1),
    (7.0, 1.04881, 1), (7.5, 1.05978, 1), (8.0, 1.08694, 1),
    (8.29796, 1.15665, 1),
    (8.0, 1.25843, 2), (7.5, 1.33932, 2), (6.0, 1.51419, 2), (5.0, 1.61161, 2),
    (2.5, 1.82714, 2), (0.05, 2.01637, 2),
]

def report(num, name, ok, detail=""):
    print(f"criterion {num:02d} {name:<38s} {'PASS' if ok else 'FAIL'}  {detail}")
    return ok


def crit_point(lambda1, kappa, near, which=1):
    lo = near - 0.04 if near > 0.04 else -0.01
    lambda2 = solve_lambda2(lambda1, kappa, bracket=(lo, near + 0.04))
    p = LoadPoint(lambda1, lambda2)
    scale = max(abs(char_residual(LoadPoint(lambda1, lambda2 + 0.05), kappa)), 1.0)
    if abs(char_residual(p, kappa)) > 1e-9 * scale:
        # published pair rounds a fold: refine both coordinates
        p = find_fold(kappa, p)
    return p


def test_criterion_01_kappa_cr():
    kappa_cr, lambda1 = find_kappa_cr()
    ok = abs(kappa_cr - 0.375325) < 5e-4 and abs(lambda1 - 29.145) < 5e-3
    assert report(1, "critical non-locality", ok,
                  f"kappa_cr={kappa_cr:.6f} lambda1={lambda1:.5f}")


def test_criterion_02_fold():
    fold = find_fold(0.45, LoadPoint(8.3, 1.16))
    ok = abs(fold.lambda1 - 8.29796) < 1e-3 and abs(fold.lambda2 - 1.15665) < 1e-3
    assert report(2, "branching point at kappa=0.45", ok,
                  f"({fold.lambda1:.5f}, {fold.lambda2:.5f})")


def test_criterion_03_branch_minimum():
    pt = find_branch_minimum(0.45, LoadPoint(6.3, 1.045))
    ok = abs(pt.lambda1 - 6.32271) < 1e-3 and abs(pt.lambda2 - 1.04474) < 1e-3
    assert report(3, "lower-branch minimum", ok,
                  f"({pt.lambda1:.5f}, {pt.lambda2:.5f})")


def test_criterion_04_curve_points():
    failures = []
    for l1, l2_ref in FIG6_PAIRS:
        bracket = (l2_ref - 0.05, l2_ref + 0.05) if l2_ref > 0.05 else (-0.01, 0.05)
        l2 = solve_lambda2(l1, 0.25, bracket=bracket)
        if abs(l2 - l2_ref) >= 1e-3:
            failures.append((0.25, l1, l2, l2_ref))
    for l1, l2_ref, _which in FIG579_PAIRS:
        l2 = solve_lambda2(l1, 0.45, bracket=(l2_ref - 0.04, l2_ref + 0.04))
        if abs(l2 - l2_ref) >= 1e-3:
            failures.append((0.45, l1, l2, l2_ref))
    ok = not failures
    assert report(4, "caption load pairs (8 + 14)", ok, str(failures[:3]))


def test_criterion_05_oracle_equivalence():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(10):
        kappa = rng.uniform(0.0, 0.35)
        l1 = rng.uniform(0.5, 12.0)
        r_char = solve_lambda2(l1, kappa)
        det = lambda x: linear_shooting_determinant(LoadPoint(l1, x), kappa)
        r_det = brentq(det, r_char - 0.05, r_char + 0.05, xtol=1e-13)
        worst = max(worst, abs(r_char - r_det))
    ok = worst < 1e-6
    assert report(5, "shooting-determinant root oracle", ok, f"worst gap {worst:.2e}")


def test_criterion_06_classical_limit():
    root = solve_lambda2(1e-8, 0.0, bracket=(1.0, 4.0))
    ok = abs(root - math.pi**2 / 4.0) < 1e-3
    assert report(6, "Euler cantilever limit", ok, f"{root:.6f}")


def _verdicts_at(l1, kappa, near, which=1):
    p0 = crit_point(l1, kappa, near, which)
    yL = mode_shape(p0, kappa, GRID)
    out = {}
    for order in (2, 4):
        q = adjoint_kernel(order, p0, kappa, GRID)
        out[order] = reduction_coefficients(p0, kappa, yL, q, GRID).verdict
    return out


def test_criterion_07_supercritical_and_kernel_agreement():
    points = [(10.0, 0.25, 0.682732, 1),
              (0.05, 0.45, 1.16776, 1), (2.5, 0.45, 1.10261, 1),
              (5.0, 0.45, 1.05447, 1), (7.0, 0.45, 1.04881, 1),
              (7.5, 0.45, 1.05978, 1)]
    bad = []
    for l1, kappa, near, which in points:
        verdicts = _verdicts_at(l1, kappa, near, which)
        if verdicts[2] is not Verdict.SUPERCRITICAL or verdicts[2] is not verdicts[4]:
            bad.append((l1, kappa, verdicts))
    # kernel agreement also at the upper-branch points
    for l1, near in ((0.05, 2.01637), (2.5, 1.82714)):
        verdicts = _verdicts_at(l1, 0.45, near, which=2)
        if verdicts[2] is not verdicts[4]:
            bad.append((l1, 0.45, verdicts))
    ok = not bad
    assert report(7, "supercritical verdicts + q2/q4 accord", ok, str(bad[:3]))


@pytest.mark.xfail(
    strict=True,
    reason="published subcritical classification at (0.05, 2.01637) and "
    "(2.5, 1.82714): the printed rule takes the sign of c11 + c12*eta', "
    "which vanishes identically on the interaction curve (the order-2 "
    "kernel annihilates the linearization's range), and the nonlinear "
    "branch at both points bifurcates supercritically with sqrt amplitude "
    "scaling on the destabilizing side; no consistent evaluation reproduces "
    "a subcritical verdict here",
)
def test_criterion_07_subcritical_claims():
    bad = []
    for l1, near in ((0.05, 2.01637), (2.5, 1.82714)):
        verdicts = _verdicts_at(l1, 0.45, near, which=2)
        if verdicts[2] is not Verdict.SUBCRITICAL:
            bad.append((l1, str(verdicts[2])))
    report(7, "subcritical verdicts (published)", not bad, str(bad))
    assert not bad


def test_criterion_08_mode_and_kernel_residuals():
    worst_interior = 0.0
    worst_boundary = 0.0
    worst_adjoint = 0.0
    points = ([(l1, 0.25, l2, 1) for l1, l2 in FIG6_PAIRS]
              + [(l1, 0.45, l2, w) for l1, l2, w in FIG579_PAIRS])
    for l1, kappa, near, which in points:
        p0 = crit_point(l1, kappa, near, which)
        yL = mode_shape(p0, kappa, GRID)
        interior, boundary = linear_residual_L4(yL, p0, kappa, GRID)
        worst_interior = max(worst_interior, interior)
        worst_boundary = max(worst_boundary, max(abs(b) for b in boundary))
        denom = 1.0 - kappa * p0.lambda2
        co2 = (kappa * p0.lambda1 + p0.lambda2) / denom
        co0 = p0.lambda1 / denom
        for order in (2, 4):
            q = adjoint_kernel(order, p0, kappa, GRID)
            ode = q(GRID.t, 4) + co2 * q(GRID.t, 2) - co0 * q(GRID.t)
            worst_interior = max(worst_interior, float(np.max(np.abs(ode))))
            res = adjoint_boundary_residuals(q, GRID)
            worst_adjoint = max(worst_adjoint, max(abs(r) for r in res))
    ok = worst_interior < 1e-6 and worst_boundary < 1e-8 and worst_adjoint < 1e-8
    assert report(8, "mode/kernel residuals", ok,
                  f"interior {worst_interior:.1e} boundary {worst_boundary:.1e} "
                  f"adjoint {worst_adjoint:.1e}")


def test_criterion_09_reduction_robustness():
    drift = 0.0
    for n in (2048,):
        coarse, fine = Grid(n), Grid(2 * n)
        p0 = crit_point(10.0, 0.25, 0.682732)
        vals = {}
        for g in (coarse, fine):
            yL = mode_shape(p0, 0.25, g)
            q = adjoint_kernel(2, p0, 0.25, g)
            rc = reduction_coefficients(p0, 0.25, yL, q, g)
            uc = unfolding_coefficients(p0, 0.25, yL, q, fixture_curvature, g)
            vals[g.n] = [rc.c11, rc.c12, rc.c13, rc.c3,
                         uc.d01, uc.d02, uc.d11, uc.d21, uc.d22, uc.d36]
        for a, b in zip(vals[n], vals[2 * n]):
            if b != 0.0:
                drift = max(drift, abs(a - b) / max(abs(b), 1e-30))
    # gauge flip and mode rescale leave the verdict untouched
    p0 = crit_point(10.0, 0.25, 0.682732)
    yL = mode_shape(p0, 0.25, GRID)
    q = adjoint_kernel(2, p0, 0.25, GRID)
    rc = reduction_coefficients(p0, 0.25, yL, q, GRID)
    q_f = q.scaled(-1.0)
    yL_s = yL.scaled(2.0)
    same = (reduction_coefficients(p0, 0.25, yL, q_f, GRID).verdict is rc.verdict
            and reduction_coefficients(p0, 0.25, yL_s, q, GRID).verdict is rc.verdict)
    ok = drift < 1e-6 and same
    assert report(9, "grid-doubling and gauge robustness", ok, f"drift {drift:.1e}")


def test_criterion_10_unfolding_universality():
    points = [(10.0, 0.25, 0.682732, 1),
              (0.05, 0.45, 1.16776, 1), (2.5, 0.45, 1.10261, 1),
              (5.0, 0.45, 1.05447, 1), (7.0, 0.45, 1.04881, 1),
              (7.5, 0.45, 1.05978, 1),
              (0.05, 0.45, 2.01637, 2), (2.5, 0.45, 1.82714, 2)]
    bad = []
    for l1, kappa, near, which in points:
        p0 = crit_point(l1, kappa, near, which)
        yL = mode_shape(p0, kappa, GRID)
        q = adjoint_kernel(2, p0, kappa, GRID)
        rc = reduction_coefficients(p0, kappa, yL, q, GRID)
        uc = unfolding_coefficients(p0, kappa, yL, q, fixture_curvature, GRID)
        rep = is_universal_unfolding(rc, uc)
        if not rep.universal:
            bad.append((l1, kappa, rep.reasons))
    ok = not bad
    assert report(10, "two-parameter unfolding exists", ok, str(bad[:3]))


@pytest.fixture(scope="session")
def postbuckling_solutions():
    """The criterion 11/12 shapes, built once so criterion 13 re-checks all of
    them whichever criteria run and in whatever order."""
    fig6 = [(l1, solve_postbuckling(crit_point(l1, 0.25, near), 0.25, 0.5, grid=GRID))
            for l1, near in FIG6_PAIRS]
    below = crit_point(5.0, 0.45, 1.05447)
    above = crit_point(7.5, 0.45, 1.05978)
    p0 = crit_point(10.0, 0.25, 0.682732)
    return {
        "fig6": fig6,
        "below-min": solve_postbuckling(below, 0.45, 0.02, "along-lambda2", grid=GRID),
        "above-min": solve_postbuckling(above, 0.45, 0.02, "along-lambda2", grid=GRID),
        "scaling": [(dl1, solve_postbuckling(p0, 0.25, dl1, grid=GRID))
                    for dl1 in (0.1, 0.2, 0.3, 0.4, 0.5)],
    }


def test_criterion_11_postbuckling_morphology(postbuckling_solutions):
    bad = []
    for l1, sol in postbuckling_solutions["fig6"]:
        if node_count(sol) != 0 or sol.m2_residual >= 1e-4:
            bad.append((l1, node_count(sol), sol.m2_residual))
    sol_b = postbuckling_solutions["below-min"]
    sol_a = postbuckling_solutions["above-min"]
    if node_count(sol_b) != 0 or sol_b.m2_residual >= 1e-4:
        bad.append(("below-min", node_count(sol_b), sol_b.m2_residual))
    if node_count(sol_a) != 1 or sol_a.m2_residual >= 1e-4:
        bad.append(("above-min", node_count(sol_a), sol_a.m2_residual))
    ok = not bad
    assert report(11, "post-buckling morphology", ok, str(bad[:3]))


def test_criterion_12_pitchfork_scaling(postbuckling_solutions):
    ratios = [abs(tip_deflection(sol)) / math.sqrt(dl1)
              for dl1, sol in postbuckling_solutions["scaling"]]
    spread = max(ratios) / min(ratios) - 1.0
    ok = spread < 0.15
    assert report(12, "sqrt amplitude scaling", ok, f"spread {spread:.3f}")


def test_criterion_13_bvp_invariants(postbuckling_solutions):
    p0 = crit_point(10.0, 0.25, 0.682732)
    plus = solve_postbuckling(p0, 0.25, 0.3, sign=1, grid=GRID)
    minus = solve_postbuckling(p0, 0.25, 0.3, sign=-1, grid=GRID)
    mirror = float(np.max(np.abs(plus.trajectory.y + minus.trajectory.y)))
    solutions = ([sol for _, sol in postbuckling_solutions["fig6"]]
                 + [postbuckling_solutions["below-min"], postbuckling_solutions["above-min"]]
                 + [sol for _, sol in postbuckling_solutions["scaling"]]
                 + [plus, minus])
    worst_inext = 0.0
    for sol in solutions:
        th = sol.trajectory.theta
        worst_inext = max(worst_inext, float(np.max(np.abs(
            np.cos(th) ** 2 + np.sin(th) ** 2 - 1.0))))
    ok = mirror < 1e-8 and worst_inext < 1e-14
    assert report(13, "inextensibility + mirror pair", ok,
                  f"mirror {mirror:.1e} inext {worst_inext:.1e} "
                  f"({len(solutions)} solutions)")
