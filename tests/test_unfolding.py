import numpy as np
import pytest

from nanorod import charcurve, modes
from nanorod.quadrature import ChebRule, Grid
from nanorod.reduction import critical_chain, reduction_coefficients
from nanorod.unfolding import (
    is_universal_unfolding,
    unfolding_coefficients,
    unfolding_determinant,
)

from conftest import critical_point, fixture_curvature, fresh_rules


def build_all(lambda1, kappa, near, grid, which=1, rho0=fixture_curvature):
    p0 = critical_point(lambda1, kappa, near=near, which=which)
    yL, q, rc = critical_chain(p0, kappa, grid)
    uc = unfolding_coefficients(p0, kappa, yL, q, rho0, grid)
    return p0, yL, q, rc, uc


class TestCoefficients:
    def test_kappa_zero_kills_kappa_prefixed_constants(self, grid):
        _, _, _, _, uc = build_all(5.0, 0.0, None, grid)
        for name in ("d11", "d12", "d13", "d14", "d23", "d24", "d25", "d26",
                      "d31", "d32", "d33", "d34", "d35", "d36", "d37", "d38",
                      "d39", "d310"):
            assert getattr(uc, name) == 0.0, name

    def test_fixture_profile_gives_nonzero_d01(self, grid):
        _, _, _, _, uc = build_all(10.0, 0.25, 0.682732, grid)
        assert abs(uc.d01) > 1e-8

    def test_proportionality_chains_exact(self, grid):
        p0, _, _, _, uc = build_all(10.0, 0.25, 0.682732, grid)
        x = 1.0 - 0.25 * p0.lambda2
        assert uc.d13 == -0.25 / x * uc.d01
        assert uc.d14 == -0.25 / x * uc.d02
        assert uc.d25 == 0.25**2 / x**2 * uc.d01
        assert uc.d26 == 0.25**2 / x**2 * uc.d02
        assert uc.d39 == 0.25**3 / x**3 * uc.d01
        assert uc.d310 == 0.25**3 / x**3 * uc.d02

    def test_grid_refinement_stability(self):
        vals = {}
        for n in (2048, 4096):
            g = Grid(n)
            _, _, _, _, uc = build_all(10.0, 0.25, 0.682732, g)
            vals[n] = [getattr(uc, f) for f in
                       ("d01", "d02", "d11", "d12", "d21", "d22", "d31", "d36")]
        for a, b in zip(vals[2048], vals[4096]):
            assert a == pytest.approx(b, rel=1e-6, abs=1e-12)

    def test_kappa_zero_collapse_oracle(self, grid):
        # independent implementation of the local-rod constants
        p0, yL, q, rc, uc = build_all(5.0, 0.0, None, grid)
        t = grid.t
        yd = yL(t, 1)
        qv = q(t)
        curv = fixture_curvature(t)
        d01 = -grid.inner(curv, qv)
        d02 = -grid.inner(1.0 - t, qv)
        d21 = 0.5 * grid.inner(curv * yd**2, qv)
        d22 = 0.5 * grid.inner((1.0 - t) * yd**2 + grid.i1(yd**2), qv)
        assert uc.d01 == pytest.approx(d01, abs=1e-8)
        assert uc.d02 == pytest.approx(d02, abs=1e-8)
        assert uc.d21 == pytest.approx(d21, abs=1e-8)
        assert uc.d22 == pytest.approx(d22, abs=1e-8)
        det_oracle = d01 * d22 - d21 * d02
        assert unfolding_determinant(uc) == pytest.approx(det_oracle, abs=1e-8)


class TestDeterminant:
    def test_equal_rows_vanish(self):
        from nanorod.unfolding import UnfoldingCoefficients
        base = dict.fromkeys(
            ("d11", "d12", "d13", "d14", "d23", "d24", "d25", "d26", "d31",
             "d32", "d33", "d34", "d35", "d36", "d37", "d38", "d39", "d310"), 0.0)
        uc = UnfoldingCoefficients(d01=1.3, d02=1.3, d21=0.7, d22=0.7, **base)
        assert unfolding_determinant(uc) == 0.0

    def test_row_swap_flips_sign(self):
        from nanorod.unfolding import UnfoldingCoefficients
        base = dict.fromkeys(
            ("d11", "d12", "d13", "d14", "d23", "d24", "d25", "d26", "d31",
             "d32", "d33", "d34", "d35", "d36", "d37", "d38", "d39", "d310"), 0.0)
        uc = UnfoldingCoefficients(d01=1.0, d02=2.0, d21=3.0, d22=4.0, **base)
        sw = UnfoldingCoefficients(d01=2.0, d02=1.0, d21=4.0, d22=3.0, **base)
        assert unfolding_determinant(sw) == -unfolding_determinant(uc)

    def test_fixture_determinant_nonzero(self, grid):
        _, _, _, _, uc = build_all(10.0, 0.25, 0.682732, grid)
        assert abs(unfolding_determinant(uc)) > 1e-8


class TestUniversality:
    def test_classified_points_admit_unfolding(self, grid):
        for l1, kappa, near, which in (
            (10.0, 0.25, 0.682732, 1),
            (5.0, 0.45, 1.05447, 1),
            (5.0, 0.45, 1.61161, 2),
            (0.05, 0.45, 2.01637, 2),
            (2.5, 0.45, 1.82714, 2),
        ):
            _, _, _, rc, uc = build_all(l1, kappa, near, grid, which=which)
            report = is_universal_unfolding(rc, uc)
            assert report.universal, (l1, kappa, report.reasons)

    def test_degenerate_c_condition_rejected(self, grid):
        _, _, _, rc, uc = build_all(10.0, 0.25, 0.682732, grid)
        broken = type(rc)(c11=rc.c11, c12=rc.c12, c13=rc.c13, c3=0.0,
                          eta_prime=rc.eta_prime,
                          tangential_coefficient=rc.tangential_coefficient,
                          crossing_coefficient=rc.crossing_coefficient,
                          epsilon=0, delta=rc.delta,
                          verdict=type(rc.verdict).DEGENERATE)
        report = is_universal_unfolding(broken, uc)
        assert not report.universal
        assert "c-condition" in report.reasons

    def test_gauge_flip_keeps_decision(self, grid):
        p0, yL, q, rc, uc = build_all(10.0, 0.25, 0.682732, grid)
        flipped_q = q.scaled(-1.0)
        rc_f = reduction_coefficients(p0, 0.25, yL, flipped_q, grid)
        uc_f = unfolding_coefficients(p0, 0.25, yL, flipped_q, fixture_curvature, grid)
        assert uc_f.d01 == pytest.approx(-uc.d01, rel=1e-12)
        assert uc_f.d22 == pytest.approx(-uc.d22, rel=1e-12)
        # every d flips, so the 2x2 determinant (quadratic in q) is unchanged
        assert unfolding_determinant(uc_f) == pytest.approx(unfolding_determinant(uc), rel=1e-12)
        assert is_universal_unfolding(rc_f, uc_f).universal == \
            is_universal_unfolding(rc, uc).universal

    def test_mode_rescale_keeps_decision(self, grid):
        p0, yL, q, rc, uc = build_all(10.0, 0.25, 0.682732, grid)
        s = 2.3
        scaled = yL.scaled(s)
        rc_s = reduction_coefficients(p0, 0.25, scaled, q, grid)
        uc_s = unfolding_coefficients(p0, 0.25, scaled, q, fixture_curvature, grid)
        assert is_universal_unfolding(rc_s, uc_s).universal == \
            is_universal_unfolding(rc, uc).universal


def _run_chain(p0, kappa, ladder):
    """The chain on a fresh grid, with the given Chebyshev ladder (() leaves the
    grid alone) and empty memos."""
    grid = Grid()
    with pytest.MonkeyPatch.context() as m:
        m.setattr(modes, "CHAIN_LADDER", ladder)
        fresh_rules()
        yL = modes.mode_shape(p0, kappa, grid)
        q2 = modes.adjoint_kernel(2, p0, kappa, grid)
        q4 = modes.adjoint_kernel(4, p0, kappa, grid)
        reduction_coefficients(p0, kappa, yL, q2, grid)
        reduction_coefficients(p0, kappa, yL, q4, grid)
        unfolding_coefficients(p0, kappa, yL, q2, fixture_curvature, grid)


def test_chain_work_gate(monkeypatch):
    # one critical point's mode -> q2 -> q4 -> rc2 -> rc4 -> unfold chain integrates
    # the five distinct mode integrals once on its rule (21 cumulative integrals
    # when each coefficient set built its own), the Chebyshev rule one more for
    # its resolution check, and evaluates cos/sin/cosh/sinh on the rule once
    # (12 full evaluations when each sample built its own); the same holds on
    # the grid when the ladder offers no rule
    kappa = 0.25
    p0 = critical_point(10.0, kappa, near=0.682732)
    counts = {}
    basis = modes._basis

    def counted(cumint):
        def counted_cumint(self, z):
            counts["cumint"] += 1
            return cumint(self, z)
        return counted_cumint

    def counted_basis(r1, r2, t):
        counts["basis"] += np.ndim(t) > 0  # scalar probes are not samples
        return basis(r1, r2, t)

    for cls in (Grid, ChebRule):
        monkeypatch.setattr(cls, "cumint_right", counted(cls.cumint_right))
    monkeypatch.setattr(modes, "_basis", counted_basis)
    for ladder, cumints in ((modes.CHAIN_LADDER, 6), ((), 5)):
        counts.update(cumint=0, basis=0)
        _run_chain(p0, kappa, ladder)
        assert counts == {"cumint": cumints, "basis": 1}, ladder


def test_chain_builds_each_memo_slot_once(monkeypatch):
    # the q2 and q4 reductions share the q-independent integrands: one build
    # of each slot for the whole mode -> q2 -> q4 -> rc2 -> rc4 -> unfold chain,
    # on the Chebyshev rule and on the grid when the ladder offers no rule
    kappa = 0.25
    p0 = critical_point(10.0, kappa, near=0.682732)
    builds = {}
    memo = Grid.memo

    def counted_memo(self, slot, key, build):
        def counted_build():
            builds[slot] = builds.get(slot, 0) + 1
            return build()
        return memo(self, slot, key, counted_build)

    monkeypatch.setattr(Grid, "memo", counted_memo)  # ChebRule inherits it
    for ladder in (modes.CHAIN_LADDER, ()):
        builds.clear()
        _run_chain(p0, kappa, ladder)
        assert builds == {"basis": 1, "mode profile": 1, "reduction integrands": 1}, ladder


@pytest.mark.parametrize("kappa, l1, which", [
    (0.25, 10.0, 1), (0.45, 5.0, 1), (0.45, 5.0, 2), (0.25, 16.713078901585753, 1),
])
def test_point_query_work_gate(kappa, l1, which, monkeypatch):
    # a chain's critical point refines only the brackets and tangency candidates
    # its root depends on: 6-12 scalar residual calls after the one array scan
    # (117-158 when every bracket of the scan was refined)
    calls = {"array": 0, "scalar": 0}
    residual = charcurve._residual

    def counted(l1, l2, k):
        calls["array" if isinstance(l1 + l2 + k, np.ndarray) else "scalar"] += 1
        return residual(l1, l2, k)

    monkeypatch.setattr(charcurve, "_residual", counted)
    charcurve.solve_lambda2(l1, kappa, which=which)
    assert calls["array"] == 1
    assert calls["scalar"] <= 16
