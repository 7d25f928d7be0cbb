import itertools
import math
import time
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from nanorod import charcurve
from nanorod.bvp import linear_shooting_determinant
from nanorod.charcurve import (
    _Column,
    _brentq,
    _coefficients,
    _family_roots,
    _kappa_partial,
    _phase,
    _residual,
    _scan_roots,
    char_partials,
    char_residual,
    eta_prime,
    find_branch_minimum,
    find_fold,
    find_kappa_cr,
    lambda2_max,
    solve_lambda1,
    solve_lambda2,
    trace_curve,
    wavenumbers,
)
from nanorod.errors import (
    DegeneratePointError,
    DomainError,
    InvalidInputError,
    NanorodError,
    NoFoldError,
    RootNotFoundError,
    SingularDenominatorError,
)
from nanorod.model import LoadPoint
from nanorod.modes import mode_shape
from nanorod.quadrature import Grid

from conftest import critical_point
from oracles import SCAN_PANELS, scan_roots

README_L1 = [0.5 + 0.25 * i for i in range(33)]  # nanorod curve --l1 0.5:8.5:0.25


def _walk(col, count=math.inf):
    """(root, sign of F just above it, family) of the column's first count
    roots, the family windows walked upward as _scan_roots walks them; all
    of them when the families run out first."""
    roots = []
    for k in itertools.count(col.first):
        (found,) = _family_roots([col], k)
        if found is None:
            return roots
        roots += [(x, above, k) for x, above in found]
        if len(roots) >= count:
            return roots


def _stop(x):
    """The Brent stop of a window root at x: two refinements of one root
    differ by at most this."""
    return charcurve._SCAN_XTOL + charcurve._SCAN_RTOL * abs(x)


@pytest.fixture
def family_sizes(monkeypatch):
    """(family, number of roots) of every lambda2 column and window a trace
    walks, in walk order."""
    sizes = []
    family_roots = charcurve._family_roots

    def recorded(cols, k, touch_gate=None):
        found = family_roots(cols, k, touch_gate)
        sizes.extend((k, len(roots)) for col, roots in zip(cols, found)
                     if col.axis == 2 and roots is not None)
        return found

    monkeypatch.setattr(charcurve, "_family_roots", recorded)
    return sizes


def _per_family(sizes):
    totals = {}
    for k, n in sizes:
        totals[k] = totals.get(k, 0) + n
    return [totals[k] for k in sorted(totals)]


class TestWavenumbers:
    def test_unit_case(self):
        w = wavenumbers(LoadPoint(1.0, 0.0), 0.0)
        assert w.r1 == pytest.approx(1.0, abs=1e-15)
        assert w.r2 == pytest.approx(1.0, abs=1e-15)

    @pytest.mark.parametrize("l1,l2,kappa", [
        (1.0, 0.0, 0.0), (8.29796, 1.15665, 0.45), (10.0, 0.682732, 0.25),
        (0.05, 2.01637, 0.45), (29.145, 0.0, 0.375325),
    ])
    def test_algebraic_identities(self, l1, l2, kappa):
        w = wavenumbers(LoadPoint(l1, l2), kappa)
        denom = 1.0 - kappa * l2
        prod = math.sqrt(l1 / denom)
        diff = (kappa * l1 + l2) / denom
        assert w.r1 * w.r2 == pytest.approx(prod, rel=1e-12)
        assert w.r1**2 - w.r2**2 == pytest.approx(diff, rel=1e-12)

    def test_extended_precision_oracle(self):
        # independent re-evaluation of the defining formulas in 80-bit floats
        l1, l2, kappa = (np.longdouble("8.29796"), np.longdouble("1.15665"),
                         np.longdouble("0.45"))
        half = (kappa * l1 + l2) / (1 - kappa * l2) / 2
        s = np.sqrt(l1 / (1 - kappa * l2) + half * half)
        r1_ref = float(np.sqrt(s + half))
        r2_ref = float(np.sqrt(s - half))
        w = wavenumbers(LoadPoint(8.29796, 1.15665), 0.45)
        assert w.r1 == pytest.approx(r1_ref, rel=1e-12)
        assert w.r2 == pytest.approx(r2_ref, rel=1e-12)

    def test_singular_denominator(self):
        with pytest.raises(SingularDenominatorError):
            wavenumbers(LoadPoint(1.0, 5.0), 0.25)

    def test_overflow_raises(self):
        # half * half overflows: the wavenumbers were (inf, inf)
        with pytest.raises(DomainError, match="^the wavenumbers overflow at lambda1 = 1e"):
            wavenumbers(LoadPoint(1e300, 0.68), 0.25)


class TestResidual:
    def test_branching_point_from_text(self):
        # residual at the critical-nonlocality branching point, against local scale
        res = char_residual(LoadPoint(29.145, 0.0), 0.375325)
        scale = abs(char_residual(LoadPoint(29.145, 0.2), 0.375325))
        assert abs(res) < 5e-3 * max(scale, 1.0)

    def test_full_f_vanishes_at_zero_lambda1(self):
        # the full determinant f = sqrt(lambda1/(1 - kappa lambda2)) F
        for l2, kappa in ((0.3, 0.25), (1.0, 0.45), (2.0, 0.0)):
            f = math.sqrt(0.0 / (1.0 - kappa * l2)) * char_residual(LoadPoint(0.0, l2), kappa)
            assert f == 0.0

    def test_euler_cantilever_limit(self):
        root = solve_lambda2(1e-8, 0.0, bracket=(1.0, 4.0))
        assert root == pytest.approx(math.pi**2 / 4.0, abs=1e-3)


def _mp_residual(l1, l2, kappa):
    """F in 40-digit mpmath: the defining formulas written out once more."""
    import mpmath as mp
    d = 1 - kappa * l2
    half = (kappa * l1 + l2) / (2 * d)
    s = mp.sqrt(l1 / d + half * half)
    r1, r2 = mp.sqrt(s + half), mp.sqrt(s - half)
    return (2 * l1 + kappa * l1 * (kappa * l1 - l2)
            + (2 * l1 + l2 * l2 - kappa * l1 * l2) * mp.cos(r1) * mp.cosh(r2)
            - mp.sqrt(l1 / d) * (l2 - kappa * (l1 - kappa * l1 * l2 + l2 * l2))
            * mp.sin(r1) * mp.sinh(r2))


class TestPhase:
    """F = A + rho cos(phi), and the family index K = round(phi / 2 pi + 1/2)."""

    KAPPAS = [0.0] + np.random.default_rng(2026).uniform(0.0, 1.0, 6).tolist()

    @pytest.mark.parametrize("kappa", KAPPAS)
    def test_amplitude_phase_form(self, kappa):
        rng = np.random.default_rng(int(kappa * 1e6))
        l1 = rng.uniform(1e-6, 60.0, 500)
        l2 = rng.uniform(0.0, min(lambda2_max(kappa), 40.0), 500)
        phi, a, rho = _phase(l1, l2, kappa)
        tol = 8.0 * np.finfo(float).eps * (a + rho) * (1.0 + np.abs(phi))
        assert (np.abs(_residual(l1, l2, kappa) - (a + rho * np.cos(phi))) <= tol).all()
        # A > 0 and B > 0 keep phi single-valued: no unwrapping
        assert (a > 0.0).all() and (_coefficients(l1, l2, kappa)[2] > 0.0).all()

    @pytest.mark.parametrize("l1,l2,kappa", [
        (10.0, 0.682732, 0.25), (8.29796, 1.15665, 0.45), (29.145, 0.0, 0.375325),
        (3.0, 21.7, 0.0), (5.0, 2.2175, 0.45),
    ])
    def test_matches_mpmath(self, l1, l2, kappa):
        import mpmath as mp
        with mp.workdps(40):
            l1m, l2m, km = mp.mpf(l1), mp.mpf(l2), mp.mpf(kappa)
            d = 1 - km * l2m
            half = (km * l1m + l2m) / (2 * d)
            s = mp.sqrt(l1m / d + half * half)
            r1, r2 = mp.sqrt(s + half), mp.sqrt(s - half)
            a = 2 * l1m + km * l1m * (km * l1m - l2m)
            b = 2 * l1m + l2m * l2m - km * l1m * l2m
            c = mp.sqrt(l1m / d) * (l2m - km * (l1m - km * l1m * l2m + l2m * l2m))
            ref = (r1 + mp.atan(c * mp.tanh(r2) / b), a, mp.hypot(b * mp.cosh(r2), c * mp.sinh(r2)))
        for got, want in zip(_phase(l1, l2, kappa), ref):
            assert got == pytest.approx(float(want), rel=1e-13)

    @pytest.mark.parametrize("kappa,l1", [(0.0, 3.0), (0.25, 10.0), (0.375325, 29.145),
                                          (0.45, 5.0), (0.6, 1.0)])
    def test_family_margin_at_scan_roots(self, kappa, l1):
        # each of a column's first ten roots has the phase family of its
        # window, within a quarter turn of the family's centre, and no two
        # roots of a column share a label (K, sign of F above)
        column = _walk(_Column(l1, kappa, 2, 1e-9, lambda2_max(kappa)), 10)
        roots = np.array([x for x, _, _ in column])
        turns = _phase(l1, roots, kappa)[0] / (2.0 * math.pi) + 0.5
        windows = np.array([k for _, _, k in column])
        assert roots.size >= 2 and (np.rint(turns) == windows).all()
        assert (np.abs(turns - windows) <= 0.25).all()
        labels = [(k, above) for _, above, k in column]
        assert len(set(labels)) == len(labels)

    @pytest.mark.parametrize("kappa", [0.0] + np.random.default_rng(19).uniform(0.0, 1.2, 7).tolist())
    def test_bracket_skip_premises(self, kappa):
        # what the family windows rest on: r1 does not fall as lambda2
        # rises, _Column.load inverts r1 in closed form, and every root of
        # the reference scan of phase family K has r1 in (2(K - 1) pi, 2K pi)
        rng = np.random.default_rng(int(kappa * 1e6))
        l1s = np.concatenate((rng.uniform(0.0, 1.0, 3), rng.uniform(0.0, 40.0, 3)))
        hi = min(lambda2_max(kappa), 40.0)
        xs = np.linspace(1e-9, hi, SCAN_PANELS + 1)
        l1, roots = [], []
        for p in l1s:
            r1 = charcurve._wavenumbers(p, xs, kappa, 1.0 - kappa * xs, charcurve._ARRAY_OPS)[0]
            assert (np.diff(r1) >= 0.0).all()
            col = _Column(p, kappa, 2, 1e-9, hi)
            back = np.array([col.load(r) for r in r1.tolist()])
            assert np.abs(back - xs)[r1 > 0.1].max() <= 1e-11 * max(1.0, hi)
            found = scan_roots(lambda x: _residual(p, x, kappa), 1e-9, hi)
            l1 += [p] * len(found)
            roots += found
        l1, roots = np.array(l1), np.array(roots)
        families = np.rint(_phase(l1, roots, kappa)[0] / (2.0 * math.pi) + 0.5)
        r1 = charcurve._wavenumbers(l1, roots, kappa, 1.0 - kappa * roots, charcurve._ARRAY_OPS)[0]
        assert roots.size
        assert ((2.0 * (families - 1.0) * math.pi < r1) & (r1 < 2.0 * families * math.pi)).all()


class TestPartials:
    @pytest.mark.parametrize("kappa,point", [
        (0.25, lambda: critical_point(10.0, 0.25, near=0.682732)),
        (0.45, lambda: critical_point(5.0, 0.45, near=1.05447)),
        (0.45, lambda: find_fold(0.45, LoadPoint(8.3, 1.16))),
    ], ids=["kappa0.25-l1_10", "kappa0.45-l1_5", "kappa0.45-fold"])
    def test_partials_match_mpmath(self, kappa, point):
        # complex-step partials against 40-digit differentiation of the same
        # formulas at the same floats; central differences miss by 8e-12 to 1e-8
        import mpmath as mp
        p = point()
        with mp.workdps(40):
            l1, l2, kap = mp.mpf(p.lambda1), mp.mpf(p.lambda2), mp.mpf(kappa)
            ref1 = mp.diff(lambda x: _mp_residual(x, l2, kap), l1)
            ref2 = mp.diff(lambda x: _mp_residual(l1, x, kap), l2)
            refk = mp.diff(lambda x: _mp_residual(l1, l2, x), kap)
        scale = max(abs(ref1), abs(ref2))
        for k in (kappa, np.float64(kappa)):  # a numpy kappa must not drop the complex step
            d1, d2 = char_partials(p, k)
            assert abs(d1 - ref1) <= 1e-13 * scale
            assert abs(d2 - ref2) <= 1e-13 * scale
            assert abs(_kappa_partial(p.lambda1, p.lambda2, k) - refk) <= 1e-13 * abs(refk)

    def test_fold_has_vanishing_lambda2_partial(self):
        fold = find_fold(0.45, LoadPoint(8.3, 1.16))
        df1, df2 = char_partials(fold, 0.45)
        assert abs(df2) < 1e-4 * abs(df1)

    def test_step_halving_richardson(self):
        # reference: central differences of the residual at h and h/2,
        # Richardson-extrapolated to h = 0
        p = critical_point(10.0, 0.25, near=0.682732)
        l1, l2 = p.lambda1, p.lambda2

        def central(h):
            return ((_residual(l1 + h, l2, 0.25) - _residual(l1 - h, l2, 0.25)) / (2.0 * h),
                    (_residual(l1, l2 + h, 0.25) - _residual(l1, l2 - h, 0.25)) / (2.0 * h))

        (d1a, d2a), (d1b, d2b) = central(1e-4), central(5e-5)
        d1, d2 = char_partials(p, 0.25)
        assert d1 == pytest.approx((4.0 * d1b - d1a) / 3.0, rel=1e-6)
        assert d2 == pytest.approx((4.0 * d2b - d2a) / 3.0, rel=1e-6)


class TestEtaPrime:
    def test_negative_slope_on_monotone_curve(self):
        p = critical_point(10.0, 0.25, near=0.682732)
        assert eta_prime(p, 0.25) < 0.0

    def test_secant_oracle(self):
        p = critical_point(10.0, 0.25, near=0.682732)
        slope = eta_prime(p, 0.25)
        left = solve_lambda2(10.0 - 0.01, 0.25, bracket=(0.6, 0.8))
        right = solve_lambda2(10.0 + 0.01, 0.25, bracket=(0.6, 0.8))
        secant = (right - left) / 0.02
        assert slope == pytest.approx(secant, rel=1e-3)

    def test_upper_branch_secant(self):
        p = critical_point(5.0, 0.45, near=1.61161)
        slope = eta_prime(p, 0.45)
        assert slope < 0.0
        left = solve_lambda2(4.99, 0.45, bracket=(1.55, 1.68))
        right = solve_lambda2(5.01, 0.45, bracket=(1.55, 1.68))
        assert slope == pytest.approx((right - left) / 0.02, rel=1e-3)

    def test_degenerate_at_fold(self):
        fold = find_fold(0.45, LoadPoint(8.3, 1.16))
        with pytest.raises(DegeneratePointError):
            eta_prime(fold, 0.45)


class TestRootSolvers:
    @pytest.mark.parametrize("l1,kappa,expected,which", [
        (10.0, 0.25, 0.682732, 1),
        (5.0, 0.45, 1.05447, 1),
        (5.0, 0.45, 1.61161, 2),
    ])
    def test_known_roots(self, l1, kappa, expected, which):
        assert solve_lambda2(l1, kappa, which=which) == pytest.approx(expected, abs=1e-3)

    def test_residual_small_at_root(self):
        root = solve_lambda2(10.0, 0.25)
        assert abs(char_residual(LoadPoint(10.0, root), 0.25)) < 1e-10

    def test_lambda1_axis_roots(self):
        assert solve_lambda1(0.0, 0.25) == pytest.approx(16.71310, abs=1e-3)
        assert solve_lambda1(0.0, 0.375325) == pytest.approx(29.145, abs=5e-3)

    def test_axis_touch_is_the_stationary_point(self):
        # just above kappa_cr the lambda2 = 0 column only touches zero: the
        # accepted tangency is the 40-digit root of dF/dlambda1 (Newton on
        # central differences stopped 1e-10 short of it)
        import mpmath as mp
        with mp.workdps(40):
            kap = mp.mpf(0.375325)
            ref = mp.findroot(lambda x: mp.diff(lambda y: _mp_residual(y, 0, kap), x), 29.145)
        assert solve_lambda1(0.0, 0.375325) == pytest.approx(float(ref), rel=1e-13)

    def test_kappa_zero_against_linear_shooting(self):
        from nanorod.bvp import linear_shooting_determinant
        from scipy.optimize import brentq
        for l1 in (5.0, 10.0):
            r_char = solve_lambda2(l1, 0.0)
            det = lambda x: linear_shooting_determinant(LoadPoint(l1, x), 0.0)
            r_det = brentq(det, r_char - 0.05, r_char + 0.05, xtol=1e-13)
            assert abs(r_char - r_det) < 1e-6

    def test_missing_root_raises(self):
        with pytest.raises(RootNotFoundError, match=r"0 lambda2 root\(s\) .* at lambda1 = 5\.0,"):
            solve_lambda2(5.0, 0.45, bracket=(0.1, 0.5))
        with pytest.raises(RootNotFoundError, match=r"1 lambda1 root\(s\) .* at lambda2 = 0\.0, "
                                                    r"requested #2"):
            solve_lambda1(0.0, 0.25, bracket=(1.0, 20.0), which=2)

    def test_bracket_singularity_guard(self):
        with pytest.raises(DomainError, match="bracket touches the singularity"):
            solve_lambda2(5.0, 0.45, bracket=(0.1, 3.0))

    @pytest.mark.parametrize("call", [
        lambda: solve_lambda2(10.0, -0.1),
        lambda: solve_lambda1(0.5, -0.1),
        lambda: trace_curve(-1.0, [1.0, 1.5, 2.0]),
        lambda: trace_curve(-1.0, []),
        lambda: find_fold(-0.1, LoadPoint(8.3, 1.16)),
        lambda: mode_shape(LoadPoint(10.0, 0.68), -0.1, Grid(256)),
    ], ids=["solve_lambda2", "solve_lambda1", "trace_curve", "trace_curve_empty", "find_fold",
            "mode_shape"])
    def test_negative_kappa_rejected(self, call):
        with pytest.raises(InvalidInputError, match=r"kappa must be nonnegative, got -"):
            call()

    @pytest.mark.parametrize("call,name", [
        (lambda: solve_lambda2(math.nan, 0.45), "lambda1"),
        (lambda: solve_lambda2(-math.inf, 0.45), "lambda1"),
        (lambda: solve_lambda2(5.0, math.nan), "kappa"),
        (lambda: solve_lambda2(5.0, math.inf), "kappa"),
        (lambda: solve_lambda2(5.0, math.nan, bracket=(0.1, 0.5)), "kappa"),
        (lambda: solve_lambda1(math.nan, 0.25), "lambda2"),
        (lambda: solve_lambda1(0.0, math.inf), "kappa"),
        (lambda: trace_curve(0.45, [1.0, math.nan]), "lambda1"),
        (lambda: trace_curve(math.nan, [1.0]), "kappa"),
        (lambda: trace_curve(math.inf, []), "kappa"),
        (lambda: lambda2_max(math.nan), "kappa"),
        (lambda: char_residual(LoadPoint(10.0, 0.6827), math.nan), "kappa"),
        (lambda: char_partials(LoadPoint(10.0, 0.6827), math.nan), "kappa"),
        (lambda: eta_prime(LoadPoint(10.0, 0.6827), math.inf), "kappa"),
        (lambda: wavenumbers(LoadPoint(10.0, 0.6827), math.nan), "kappa"),
        (lambda: find_branch_minimum(math.inf, LoadPoint(6.3, 1.04)), "kappa"),
    ])
    def test_non_finite_load_rejected(self, call, name):
        # a nan load used to end in "cannot convert float NaN to integer"
        with pytest.raises(InvalidInputError, match=rf"^{name} must be finite, got -?(nan|inf)$"):
            call()

    @pytest.mark.parametrize("call,name", [
        (lambda: find_fold(math.nan, LoadPoint(8.3, 1.16)), "kappa"),
        (lambda: find_fold(0.45, LoadPoint(math.nan, 1.16)), "lambda1"),
        (lambda: find_branch_minimum(0.45, LoadPoint(6.3, math.inf)), "lambda2"),
        (lambda: find_kappa_cr(math.nan), "guess_kappa"),
        (lambda: find_kappa_cr(0.37, -math.inf), "guess_lambda1"),
    ], ids=["find_fold_kappa", "find_fold_seed", "find_branch_minimum_seed",
            "find_kappa_cr_kappa", "find_kappa_cr_seed"])
    def test_non_finite_newton_input_rejected(self, call, name):
        # checked before Newton starts, not reported as NoFoldError after it
        with pytest.raises(InvalidInputError, match=rf"^{name} must be finite, got -?(nan|inf)$"):
            call()

    @pytest.mark.parametrize("call", [
        lambda: solve_lambda2(10.0, 0.25, which=0),
        lambda: solve_lambda2(10.0, 0.25, which=-1),
        lambda: solve_lambda1(0.0, 0.25, which=0),
        lambda: solve_lambda2(5.0, 0.45, bracket=(0.1, 0.5), which=0),
    ], ids=["solve_lambda2_0", "solve_lambda2_-1", "solve_lambda1_0", "no_roots_0"])
    def test_root_index_below_one_rejected(self, call):
        # a Python index would wrap to the last roots instead
        with pytest.raises(InvalidInputError, match=r"root index must be at least 1, got "):
            call()

    @pytest.mark.parametrize("mode_index", [0, -1])
    def test_mode_index_below_one_rejected(self, mode_index):
        with pytest.raises(InvalidInputError, match=r"mode index must be at least 1, got "):
            trace_curve(0.45, [1.0, 1.5, 2.0], mode_index=mode_index)

    @pytest.mark.parametrize("call", [
        lambda: solve_lambda2(5.0, 0.45, which=1.5),
        lambda: solve_lambda2(5.0, 0.45, which=math.nan),
        lambda: solve_lambda1(0.0, 0.25, which=2.0),
        lambda: trace_curve(0.45, [1.0], mode_index=math.nan),
        lambda: trace_curve(0.45, [1.0], mode_index=1.5),
    ], ids=["solve_lambda2_1.5", "solve_lambda2_nan", "solve_lambda1_2.0",
            "trace_curve_nan", "trace_curve_1.5"])
    def test_non_integer_index_rejected(self, call):
        with pytest.raises(InvalidInputError, match=r"^(root|mode) index must be an integer, got "):
            call()

    def test_numpy_integer_index_accepted(self):
        assert solve_lambda2(5.0, 0.45, which=np.int64(2)) == solve_lambda2(5.0, 0.45, which=2)


class TestFoldAndCritical:
    def test_fold_at_045(self):
        fold = find_fold(0.45, LoadPoint(8.3, 1.16))
        assert fold.lambda1 == pytest.approx(8.29796, abs=1e-3)
        assert fold.lambda2 == pytest.approx(1.15665, abs=1e-3)

    def test_fold_at_kappa_cr_sits_on_axis_vicinity(self):
        # slightly above the critical non-locality the fold exists at small
        # positive lambda2; slightly below it leaves the quadrant
        fold = find_fold(0.375325 + 0.01, LoadPoint(25.0, 0.3))
        assert fold.lambda2 > 0.0
        with pytest.raises(NanorodError) as err:
            find_fold(0.375325 - 0.01, LoadPoint(33.0, 0.05))
        assert type(err.value) in (NoFoldError, DomainError, SingularDenominatorError)

    def test_no_first_mode_fold_at_025(self):
        for seed in (LoadPoint(8.0, 0.9), LoadPoint(14.0, 0.3), LoadPoint(5.0, 1.1)):
            with pytest.raises(NanorodError) as err:
                find_fold(0.25, seed)
            assert type(err.value) in (NoFoldError, DomainError, SingularDenominatorError)

    def test_branch_minimum(self):
        pt = find_branch_minimum(0.45, LoadPoint(6.3, 1.045))
        assert pt.lambda1 == pytest.approx(6.32271, abs=1e-3)
        assert pt.lambda2 == pytest.approx(1.04474, abs=1e-3)
        assert eta_prime(pt, 0.45) == pytest.approx(0.0, abs=1e-4)

    def test_branching_point_at_kappa_cr_is_the_axis_touch(self):
        # the text's (29.145, 0) branching point at the critical non-locality
        # is the stationary-lambda2 (branch-minimum) point sitting on the
        # axis; the dF/dlambda2 fold lies nearby at small positive lambda2
        touch = find_branch_minimum(0.375325, LoadPoint(29.1, 0.001))
        assert touch.lambda1 == pytest.approx(29.145, abs=5e-3)
        assert abs(touch.lambda2) < 1e-3
        fold = find_fold(0.375325, LoadPoint(29.4, 0.02))
        assert fold.lambda2 == pytest.approx(0.018, abs=2e-3)

    def test_branch_minimum_absent_at_025(self):
        # monotone first-mode curve: the traced lambda2 strictly decreases
        grid_l1 = [0.5 * k for k in range(1, 33)]
        branches = trace_curve(0.25, grid_l1, mode_index=1)
        (single,) = branches
        values = [p.lambda2 for p, _ in single.points]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_kappa_cr(self):
        kappa_cr, lambda1 = find_kappa_cr()
        assert kappa_cr == pytest.approx(0.375325, abs=5e-4)
        assert lambda1 == pytest.approx(29.145, abs=5e-3)

    def test_fold_lambda2_vs_kappa(self):
        # continuation from the verified anchor at kappa = 0.45, both ways:
        # the fold's lambda2 rises from the axis up to kappa ~ 0.5, and the
        # fold stays continuous (small steps land near the previous one)
        kappa_cr, _ = find_kappa_cr()
        anchor = find_fold(0.45, LoadPoint(8.3, 1.16))
        folds = {0.45: anchor}
        seed = anchor
        for kappa in (0.42, 0.39):
            seed = find_fold(kappa, seed)
            folds[kappa] = seed
        seed = anchor
        for kappa in (0.5, 0.6):
            seed = find_fold(kappa, seed)
            folds[kappa] = seed
        assert all(k > kappa_cr for k in folds)
        rising = [folds[k].lambda2 for k in (0.39, 0.42, 0.45, 0.5)]
        assert all(a < b for a, b in zip(rising, rising[1:]))
        # beyond ~0.5 the whole curve is squeezed under 1/kappa and the
        # fold's lambda2 comes back down while its lambda1 keeps shrinking
        assert folds[0.6].lambda2 < folds[0.5].lambda2
        assert folds[0.6].lambda1 < folds[0.5].lambda1


class TestTraceCurve:
    def test_single_branch_monotone_at_025(self):
        grid_l1 = [0.05] + list(np.arange(0.5, 16.6, 0.5))
        branches = trace_curve(0.25, grid_l1, mode_index=1)
        assert len(branches) == 1
        assert branches[0].branch_tag == "single"
        assert branches[0].fold is None
        for p, _ in branches[0].points:
            assert abs(char_residual(p, 0.25)) < 1e-9

    def test_two_branches_meet_at_045(self):
        grid_l1 = list(np.arange(0.5, 9.0, 0.25))
        branches = trace_curve(0.45, grid_l1, mode_index=1)
        tags = sorted(b.branch_tag for b in branches)
        assert tags == ["lower", "upper"]
        folds = [b.fold for b in branches if b.fold is not None]
        assert folds and folds[0].lambda1 == pytest.approx(8.29796, abs=1e-3)

    @pytest.mark.parametrize("kappa", [0.25, 0.45])
    def test_residual_work_gate(self, kappa, monkeypatch):
        # one array call per family window walked, every column's window in
        # it (one window for mode 1), plus the axis test's, and scalar Brent
        # calls only on the brackets the mode can lie in (3,986 real scalar
        # calls at 0.25 when every bracket is refined)
        calls = {"array": 0, "real": 0, "complex": 0}
        residual = charcurve._residual

        def counted(l1, l2, k):
            probe = l1 + l2 + k
            kind = ("array" if isinstance(probe, np.ndarray)
                    else "complex" if isinstance(probe, complex) else "real")
            calls[kind] += 1
            return residual(l1, l2, k)

        monkeypatch.setattr(charcurve, "_residual", counted)
        grid_l1 = list(np.arange(0.5, 8.5 + 1e-9, 0.25))
        assert trace_curve(kappa, grid_l1)
        assert calls["real"] <= 420
        assert calls["array"] == 2

    @pytest.mark.parametrize("kappa,mode,ceiling", [(0.25, 1, 70), (0.45, 1, 70), (0.45, 3, 210)])
    def test_bracket_work_gate(self, kappa, mode, ceiling, family_sizes):
        # only the family windows up to the mode are walked, one per column
        # and family: 66, 64 and 196 roots refined
        assert trace_curve(kappa, README_L1, mode_index=mode)
        assert len(family_sizes) == mode * len(README_L1)
        assert {k for k, _ in family_sizes} == set(range(1, mode + 1))
        assert 0 < sum(n for _, n in family_sizes) <= ceiling

    @pytest.mark.parametrize("kappa,grid_l1,mode,sizes", [
        (0.6, [4.0, 4.5, 5.0], 1, [0, 2]),  # family 1 has folded away: mode 1 is family 2
        (0.46249999999999997, [0.01, 0.02], 6, [4] * 6),  # family 6's two roots share a scan panel
    ])
    def test_skipped_brackets_refined_when_the_mode_lies_past_them(self, kappa, grid_l1, mode,
                                                                   sizes, family_sizes):
        # the walk passes the rootless windows and numbers the mode by the
        # families walked; each returned root lies in its family's window and
        # is a sign change of the linear shooting determinant
        branches = trace_curve(kappa, grid_l1, mode_index=mode)
        assert _per_family(family_sizes) == sizes
        assert [b.branch_tag for b in branches] == ["lower", "upper"]
        family = len(sizes)
        for b in branches:
            for p, _ in b.points:
                turns = _phase(p.lambda1, p.lambda2, kappa)[0] / (2.0 * math.pi) + 0.5
                assert round(turns) == family
                det = lambda x: linear_shooting_determinant(LoadPoint(p.lambda1, x), kappa)
                assert det(p.lambda2 - 1e-7) * det(p.lambda2 + 1e-7) < 0.0

    def test_small_kappa_keeps_every_column(self):
        branches = trace_curve(0.0, [0.5, 1.0, 1.5, 2.0, 2.5, 3.0])
        assert [b.branch_tag for b in branches] == ["single"]
        assert len(branches[0].points) == 6

    def test_coarse_step_keeps_the_fold(self):
        # a 1.5 step moves the upper branch by up to 0.22 in lambda2 per column,
        # and mode 3 at 0.45 lies in the dense roots under 1/kappa: each root's
        # own label still gives both branches every column up to their fold
        for kappa, mode, count in ((0.48, 1, 5), (0.45, 3, 6)):
            coarse = trace_curve(kappa, np.arange(0.5, 16.0, 1.5), mode_index=mode)
            assert [(b.branch_tag, len(b.points)) for b in coarse] == [("lower", count), ("upper", count)]
            fine = trace_curve(kappa, np.arange(0.5, 16.0, 0.05), mode_index=mode)
            assert [b.branch_tag for b in fine] == ["lower", "upper"]
            for c, f in zip(coarse, fine):
                ref = {round(p.lambda1, 9): p.lambda2 for p, _ in f.points}
                for p, _ in c.points:
                    assert p.lambda2 == pytest.approx(ref[round(p.lambda1, 9)], abs=1e-9)
            fold, ref = coarse[0].fold, fine[0].fold
            assert fold.lambda1 == pytest.approx(ref.lambda1, abs=1e-8)
            assert fold.lambda2 == pytest.approx(ref.lambda2, abs=1e-8)
        assert fold.lambda1 == pytest.approx(8.82712, abs=1e-5)

    @pytest.mark.parametrize("mode", range(1, 7))
    @pytest.mark.parametrize("kappa", [0.45, 0.5])
    def test_coarse_grid_agrees_with_fine_grid(self, kappa, mode):
        # the README grid (step 0.25) against step 0.025 read at the same columns
        fine_l1 = [(20 + i) / 40 for i in range(321)]
        coarse_l1 = fine_l1[::10]
        coarse = trace_curve(kappa, coarse_l1, mode_index=mode)
        fine = trace_curve(kappa, fine_l1, mode_index=mode)
        assert [b.branch_tag for b in coarse] == [b.branch_tag for b in fine]
        for c, f in zip(coarse, fine):
            kept = [p for p, _ in f.points if p.lambda1 in coarse_l1]
            assert [p.lambda1 for p, _ in c.points] == [p.lambda1 for p in kept]
            for (p, _), q in zip(c.points, kept):
                assert p.lambda2 == pytest.approx(q.lambda2, rel=1e-12, abs=0.0)
        if (kappa, mode) == (0.45, 4):  # whole branches to a fold past the grid, not 2-point pieces
            assert [len(b.points) for b in coarse] == [33, 33] and coarse[0].fold.lambda1 > 8.5

    def test_first_mode_folds_exactly_above_kappa_cr(self):
        # the pairing rule is kappa > kappa_cr itself, not a gap between branch ends
        kappa_cr, _ = find_kappa_cr()
        grid_l1 = [0.5 + 0.25 * i for i in range(33)]
        below = trace_curve(kappa_cr - 1e-5, grid_l1)
        above = trace_curve(kappa_cr + 1e-5, grid_l1)
        assert [(b.branch_tag, len(b.points)) for b in below] == [("single", 33)]
        assert [(b.branch_tag, len(b.points)) for b in above] == [("lower", 33), ("upper", 33)]
        assert above[0].fold.lambda1 > 29.0  # the fold sits next to the axis touch (29.145, 0)

    def test_far_family_past_the_float_range_of_cosh(self):
        # at kappa 1e-6 the axis window of the ~200th family has cosh(r2) past
        # 1e308: the pairing test reads that as axis roots (A/rho ~ 0), so
        # every family gives two single units and mode 400 is family 200
        branches = trace_curve(1e-6, [1.0, 2.0], mode_index=400)
        assert [(b.branch_tag, len(b.points)) for b in branches] == [("single", 2)]
        p = branches[0].points[0][0]
        assert p.lambda2 == pytest.approx(611679.338764, rel=1e-9)
        assert round(_phase(p.lambda1, p.lambda2, 1e-6)[0] / (2.0 * math.pi) + 0.5) == 200

    def test_higher_mode_branches_at_025(self):
        # some family above the first folds back even though the first-mode
        # curve at kappa = 0.25 is monotone
        grid_l1 = list(np.arange(30.0, 110.0, 4.0))
        folded = []
        for mode in range(1, 7):
            for b in trace_curve(0.25, grid_l1, mode_index=mode):
                if b.fold is not None:
                    folded.append((mode, b.fold))
        assert folded
        assert all(mode >= 2 for mode, _ in folded)


def _reference_scan(fun, lo, hi, panels=SCAN_PANELS):
    """Sign-change roots from one scalar residual call per grid point, refined
    by scipy's brentq: the scan as it stood before array evaluation."""
    from scipy.optimize import brentq
    xs = np.linspace(lo, hi, panels + 1)
    vals = [fun(float(x)) for x in xs]
    roots = []
    for i in range(panels):
        if vals[i] == 0.0:
            roots.append(float(xs[i]))
        elif vals[i] * vals[i + 1] < 0.0:
            roots.append(brentq(fun, xs[i], xs[i + 1], xtol=1e-14, rtol=8.9e-16))
    if vals[-1] == 0.0:
        roots.append(float(hi))
    return roots


class TestArrayScanAndBrent:
    def test_array_residual_matches_scalar_calls(self):
        xs = np.linspace(-2.0, lambda2_max(0.45), 401)
        vals = _residual(5.0, xs, 0.45)
        ref = np.array([_residual(5.0, float(x), 0.45) for x in xs])
        assert np.max(np.abs(vals - ref)) <= 1e-13 * np.max(np.abs(ref))
        l1s = np.linspace(0.0, 60.0, 301)
        ref = np.array([_residual(float(x), 0.3, 0.25) for x in l1s])
        assert np.max(np.abs(_residual(l1s, 0.3, 0.25) - ref)) <= 1e-13 * np.max(np.abs(ref))

    def test_array_residual_keeps_scalar_errors(self):
        with pytest.raises(SingularDenominatorError) as scalar:
            _residual(10.0, 5.0, 0.25)
        with pytest.raises(SingularDenominatorError) as array:
            _residual(10.0, np.array([0.5, 5.0, 6.0]), 0.25)
        assert str(array.value) == str(scalar.value)
        with pytest.raises(DomainError, match=r"lambda1 = -1\.0 < 0"):
            _residual(np.array([1.0, -1.0]), 0.5, 0.25)

    def test_brent_matches_scipy_on_residual_brackets(self):
        from scipy.optimize import brentq
        rng = np.random.default_rng(20240)
        checked = 0
        for _ in range(25):
            kappa = float(rng.choice([0.0, rng.uniform(0.0, 0.6)]))
            l1 = float(rng.uniform(0.0, 40.0))
            f = lambda x: _residual(l1, x, kappa)
            xs = np.linspace(-1.0, min(lambda2_max(kappa), 40.0), 301)
            vals = [f(float(x)) for x in xs]
            for a, b, fa, fb in zip(xs, xs[1:], vals, vals[1:]):
                if fa * fb < 0.0:
                    assert _brentq(f, a, b) == brentq(f, a, b)
                    assert (_brentq(f, a, b, xtol=1e-14, rtol=8.9e-16)
                            == brentq(f, a, b, xtol=1e-14, rtol=8.9e-16))
                    checked += 1
        assert checked > 50

    def test_brent_matches_scipy_on_shooting_determinant(self):
        from scipy.optimize import brentq
        rng = np.random.default_rng(77)
        for _ in range(8):
            kappa = float(rng.uniform(0.0, 0.35))
            l1 = float(rng.uniform(0.5, 12.0))
            r = solve_lambda2(l1, kappa)
            det = lambda x: linear_shooting_determinant(LoadPoint(l1, x), kappa)
            for xtol in (1e-12, 1e-13):
                assert (_brentq(det, r - 0.05, r + 0.05, xtol=xtol)
                        == brentq(det, r - 0.05, r + 0.05, xtol=xtol))

    def test_brent_rejects_bracket_without_sign_change(self):
        with pytest.raises(RootNotFoundError):
            _brentq(lambda x: x * x + 1.0, -1.0, 2.0)
        assert _brentq(lambda x: x - 1.0, 1.0, 3.0) == 1.0

    @pytest.mark.parametrize("l1,kappa,lo", [
        (5.0, 0.0, 1e-9),        # classical limit, reference capped at 40
        (10.0, 0.25, 1e-9),      # below kappa_cr
        (5.0, 0.45, 1e-9),       # above kappa_cr: lower and upper branch
        (8.0, 0.45, -3.0),
        (25.0, 0.25, -3.0),      # first root at negative lambda2
        (33.0, 0.36, -3.0),      # just below kappa_cr, negative lambda2
        (10.0, 0.39, -20.0),     # just above kappa_cr, roots crowd toward 1/kappa
    ])
    def test_scan_roots_match_reference_scan(self, l1, kappa, lo):
        # up to the reference's last root the walk holds every root of the
        # scalar reference scan within the Brent stop; each root it adds is
        # a sign change of F that the uniform panels missed
        f = lambda x: _residual(l1, x, kappa)
        hi = min(lambda2_max(kappa), 40.0)
        ref = _reference_scan(f, lo, hi)
        assert ref
        col = _Column(l1, kappa, 2, lo, min(hi, ref[-1] + 1e-11))
        roots = _scan_roots(col, math.inf)
        assert roots == sorted(roots)
        matched = [min(roots, key=lambda r: abs(r - x)) for x in ref]
        assert all(abs(m - x) <= _stop(x) for m, x in zip(matched, ref))
        for r in set(roots) - set(matched):  # Brent's last bracket holds a sign change
            assert f(r - _stop(r)) * f(r + _stop(r)) < 0.0
        # tangency detection only adds roots: with a zero gate every
        # sign-change root is kept
        with_touch = _scan_roots(col, math.inf, touch_gate=lambda x: 0.0)
        assert with_touch == sorted(with_touch) and set(roots) <= set(with_touch)

    @pytest.mark.parametrize("kappa", [0.0, 0.25, 0.375, 0.45, 0.55])
    def test_scan_columns_match_scan_roots(self, kappa):
        grid_l1 = [0.0, 0.05] + list(np.arange(0.5, 40.0, 1.5))
        hi = lambda2_max(kappa)
        for l1 in grid_l1:
            col = _Column(l1, kappa, 2, 1e-9, hi)
            column = _walk(col, 8)
            assert [x for x, _, _ in column] == _scan_roots(col, 8)
            # the sign of F above a root is the sign below the next one
            signs = [above for _, above, _ in column]
            assert set(signs) <= {-1.0, 1.0}
            assert all(a == -b for a, b in zip(signs, signs[1:]))
        # trace_curve's points are these column roots
        for mode in (1, 2):
            for branch in trace_curve(kappa, grid_l1, mode_index=mode):
                for p, _ in branch.points:
                    col = _Column(p.lambda1, kappa, 2, 1e-9, hi)
                    assert p.lambda2 in [x for x, _, _ in _walk(col, 8)]

    @pytest.mark.parametrize("kappa,tags", [(0.25, ["single"]), (0.45, ["lower", "upper"])])
    def test_traced_roots_are_point_query_roots(self, kappa, tags):
        # to the last bit: a mode-1 point is the first root of its column,
        # or the second on the upper branch
        branches = trace_curve(kappa, README_L1)
        assert [b.branch_tag for b in branches] == tags
        for branch in branches:
            which = 2 if branch.branch_tag == "upper" else 1
            for p, _ in branch.points:
                assert p.lambda2 == solve_lambda2(p.lambda1, kappa, which=which)

    def test_scan_columns_bracket_rule(self):
        # F = x - p over windows of width 1 (the load at r1 is r1 / 2 pi) on
        # [0, 3): a root on a sample, on the edge of two windows (counted
        # once, by the window above it), inside a panel, and none at all
        def line(p, slope=1.0):
            return SimpleNamespace(first=1, lo=0.0, hi=3.0, load=lambda r1: r1 / (2.0 * math.pi),
                                   fun=lambda x: slope * (x - p), rootless_tail=lambda xs: False,
                                   sample=lambda cols, xs: slope * (xs - p))

        on_sample = 5.0 / (charcurve._WINDOW_SAMPLES - 1)
        assert _walk(line(on_sample)) == [(on_sample, 1.0, 1)]
        assert _walk(line(1.0)) == [(1.0, 1.0, 2)]
        ((root, above, k),) = _walk(line(1.3337))
        assert abs(root - 1.3337) <= 1e-14 and (above, k) == (1.0, 2)
        assert _walk(line(5.0)) == []
        # F = p - x is negative above its root
        assert [(above, k) for _, above, k in _walk(line(1.3337, -1.0))] == [(-1.0, 2)]

    def test_batched_brent_iteration_cap(self):
        # a step function gives Brent nothing to interpolate: bisecting a
        # 6e38-wide panel of a 1e40-wide window down to 1e-14 takes ~175
        # halvings > 100
        step = lambda p, x: np.where(x > p, 1.0, -1.0)
        col = SimpleNamespace(first=1, lo=0.0, hi=1e40, load=lambda r1: 1e40 * r1 / (2.0 * math.pi),
                              fun=lambda x: step(1.0 / 3.0, x), rootless_tail=lambda xs: False,
                              sample=lambda cols, xs: step(1.0 / 3.0, xs))
        with pytest.raises(RootNotFoundError, match="did not converge"):
            _family_roots([col], 1)
        with pytest.raises(RootNotFoundError, match="did not converge"):
            _brentq(lambda x: step(1.0 / 3.0, x), 0.0, 5e36, xtol=1e-14, rtol=8.9e-16)

    def test_lambda1_scan_matches_reference_scan(self):
        f = lambda x: _residual(x, 0.0, 0.25)
        ref = _reference_scan(f, 1e-6, 60.0)
        roots = _scan_roots(_Column(0.0, 0.25, 1, 1e-6, 60.0), math.inf)
        assert ref and len(roots) == len(ref)
        assert all(abs(r - x) <= _stop(x) for r, x in zip(roots, ref))


def _per_column(cols, k, touch_gate=None):
    """_family_roots called once per column, in column order."""
    return [_family_roots([col], k, touch_gate)[0] for col in cols]


def _row_stand_in(fun, hi, load):
    """A stand-in column on [0, hi) with one family from 0 to load(2 pi);
    its sample evaluates every column's own fun on its row."""
    return SimpleNamespace(first=1, lo=0.0, hi=hi, load=load, fun=fun,
                           rootless_tail=lambda xs: False,
                           sample=lambda cols, xs: np.array([c.fun(x) for c, x in zip(cols, xs)]))


class TestBatchedWindows:
    """_family_roots samples the family window of every column in one array
    call and refines the columns one after the other, in their order."""

    def test_mixed_columns_match_one_column_at_a_time(self):
        kappa, hi = 0.45, lambda2_max(0.45)
        cols = [
            _Column(5.0, kappa, 2, 2.17, hi),                # lo in family 3: below col.first
            _Column(5.0, kappa, 2, 1e-9, 1.5),               # window 2 starts past hi
            _Column(1.75, kappa, 2, 2.1803022118431388, hi),  # lo on window 2's top: b <= a
            _Column(5.0, kappa, 2, 1e-9, hi),                # a folded pair
            _Column(5.0, kappa, 2, 2.1, hi),                 # its upper root only
            _Column(9.0, kappa, 2, 1e-9, hi),                # past the fold: a rootless tail
            _Column(8.6931, kappa, 2, 1e-9, hi),             # just past family 2's fold: a touch
        ]
        assert cols[0].first == 3
        assert cols[2].first == 2 and cols[2].load(4.0 * math.pi) <= cols[2].lo
        sizes = [0, None, 0, 2, 1, None]
        for touch_gate, touches in ((None, 0), (lambda x: 1e-6, 1)):
            found = _family_roots(cols, 2, touch_gate)
            assert [None if f is None else len(f) for f in found] == sizes + [touches]
            assert found == _per_column(cols, 2, touch_gate)
            assert _family_roots(cols[::-1], 2, touch_gate) == found[::-1]

    def test_window_points_are_linspace(self, monkeypatch):
        kappa, hi = 0.25, lambda2_max(0.25)
        # at lambda1 5 from -3, 16 steps of (b - a) / 16 from a miss b by rounding
        cols = [_Column(l1, kappa, 2, lo, hi)
                for l1, lo in ((0.5, 1e-9), (10.0, 0.3), (33.0, -3.0), (5.0, -3.0))]
        samples = []
        residual = charcurve._residual

        def recorded(l1, l2, k):
            samples.append(l2)
            return residual(l1, l2, k)

        monkeypatch.setattr(charcurve, "_residual", recorded)
        for k in (1, 2, 3):
            samples.clear()
            _family_roots(cols, k)
            xs = next(x for x in samples if isinstance(x, np.ndarray))
            ends = [(col.lo if k == col.first else max(col.lo, col.load(2.0 * math.pi * (k - 1))),
                     min(col.hi, col.load(2.0 * math.pi * k))) for col in cols]
            assert xs.shape == (len(cols), charcurve._WINDOW_SAMPLES)
            for row, (a, b) in zip(xs, ends):
                assert row.tobytes() == np.linspace(a, b, charcurve._WINDOW_SAMPLES).tobytes()

    def test_first_error_in_column_order(self):
        # a step function defeats Brent's interpolation (the iteration cap
        # ends it); at lambda1 3e11 cosh(r2) overflows on every sample
        stuck = _row_stand_in(lambda x: np.where(x > 1.0 / 3.0, 1.0, -1.0), 1e40,
                              lambda r1: 1e40 * r1 / (2.0 * math.pi))
        overflow = _row_stand_in(lambda x: _residual(3e11, x, 0.0), 1.0,
                                 lambda r1: r1 / (2.0 * math.pi))
        for cols, error, message in (([stuck, overflow], RootNotFoundError, "did not converge"),
                                     ([overflow, stuck], DomainError, "residual overflows")):
            got = _outcome(_family_roots, cols, 1)
            assert got == _outcome(_per_column, cols, 1)
            assert got[0] is error and message in got[1]


def _outcome(solve, *args, **kwargs):
    try:
        return solve(*args, **kwargs)
    except NanorodError as exc:
        return type(exc), str(exc)


_SCAN_ROOTS = charcurve._scan_roots


def _longer_walk(col, count, touch_gate=None):
    return _SCAN_ROOTS(col, count + 6, touch_gate)


# kappa = 0, the whole range, and around kappa_cr (0.375325), where tangencies live
_KAPPAS = st.one_of(st.just(0.0), st.floats(0.01, 0.6), st.floats(0.37, 0.38))
_WHICH = st.integers(1, 12)


class TestLazyPointQuery:
    """A point query walks the family windows only until it holds its root;
    its answer is the which-th root of a longer walk, bit for bit, or the
    same error, and the which-th root of the 2000-panel reference scan
    wherever that scan has converged."""

    @settings(derandomize=True, database=None, deadline=None, max_examples=150)
    @given(kappa=_KAPPAS, l1=st.floats(0.0, 40.0), which=_WHICH)
    @example(kappa=0.375325, l1=29.145, which=1)
    @example(kappa=0.45, l1=5.0, which=5)
    @example(kappa=0.45, l1=8.29796, which=1)  # an accepted tangency (the fold)
    @example(kappa=0.5, l1=5.87007, which=2)
    def test_lambda2_query_is_the_full_scan_root(self, kappa, l1, which):
        got = _outcome(solve_lambda2, l1, kappa, which=which)
        with mock.patch.object(charcurve, "_scan_roots", _longer_walk):
            assert got == _outcome(solve_lambda2, l1, kappa, which=which)

    @settings(derandomize=True, database=None, deadline=None, max_examples=60)
    @given(kappa=_KAPPAS, l2=st.floats(0.0, 1.5), which=st.integers(1, 4))
    @example(kappa=0.375325, l2=0.0, which=1)  # an accepted tangency
    @example(kappa=0.375325, l2=0.0, which=2)
    def test_lambda1_query_is_the_full_scan_root(self, kappa, l2, which):
        got = _outcome(solve_lambda1, l2, kappa, which=which)
        with mock.patch.object(charcurve, "_scan_roots", _longer_walk):
            assert got == _outcome(solve_lambda1, l2, kappa, which=which)

    @settings(derandomize=True, database=None, deadline=None, max_examples=150)
    @given(kappa=_KAPPAS, l1=st.floats(0.0, 40.0), which=_WHICH)
    @example(kappa=0.375325, l1=29.145, which=1)
    @example(kappa=0.45, l1=8.29796, which=1)  # an accepted tangency (the fold)
    @example(kappa=0.5712357192626106, l1=4.835819055087094, which=1)  # a pair the scan misses
    def test_lambda2_query_matches_the_reference_scan(self, kappa, l1, which):
        calls = []

        def spy(col, count, touch_gate=None):
            calls.append((col, touch_gate))
            return _SCAN_ROOTS(col, count, touch_gate)

        with mock.patch.object(charcurve, "_scan_roots", spy):
            got = _outcome(solve_lambda2, l1, kappa, which=which)
        if not isinstance(got, float):
            assert got[0] is RootNotFoundError
            return
        ((col, gate),) = calls
        # a sign change of the linear shooting determinant, or a tangency
        # the gate accepts: a stationary point of F where F is negligible.
        # The determinant's RK4 root sits up to ~2e-7 relative off F's.
        neighbours = [r for r in _SCAN_ROOTS(col, which + 1, gate)[max(which - 2, 0):] if r != got]
        delta = min([1e-6 * max(1.0, got)] + [abs(r - got) / 3.0 for r in neighbours])
        det = lambda x: linear_shooting_determinant(LoadPoint(l1, x), kappa)
        if _residual(l1, got - delta, kappa) * _residual(l1, got + delta, kappa) < 0.0:
            # the determinant is sqrt(lambda1 / (1 - kappa lambda2)) F: no sign left near lambda1 = 0
            assert l1 < 1e-3 or det(got - delta) * det(got + delta) < 0.0
        else:
            assert abs(_residual(l1, got, kappa)) <= gate(got)
        # the reference's which-th root, wherever 10x its panels give the same first roots
        f = lambda x: _residual(l1, x, kappa)
        hi = min(lambda2_max(kappa), 40.0)
        ref = scan_roots(f, 1e-9, hi, touch_gate=gate, count=which)[:which]
        fine = scan_roots(f, 1e-9, hi, touch_gate=gate, count=which, panels=10 * SCAN_PANELS)[:which]
        if len(ref) == len(fine) == which and all(abs(a - b) <= _stop(a) for a, b in zip(ref, fine)):
            assert abs(got - ref[-1]) <= _stop(got)


class TestLazyTrace:
    """trace_curve walks the family windows of every column together: each
    traced root is the root its column's window gives, bit for bit, and a
    branch holds the roots of one window family and one side."""

    @settings(derandomize=True, database=None, deadline=None, max_examples=80)
    @given(kappa=st.one_of(st.just(0.0), st.floats(0.01, 1.2)), start=st.floats(0.0, 40.0),
           step=st.floats(0.05, 4.0), count=st.integers(0, 12), mode=st.integers(1, 4))
    @example(kappa=0.25, start=30.0, step=4.0, count=20, mode=1)
    @example(kappa=0.6, start=4.0, step=0.5, count=3, mode=1)  # family 1 has no roots on the grid
    @example(kappa=0.3753146736259471, start=0.5, step=0.25, count=33, mode=1)  # kappa_cr - 1e-5
    @example(kappa=0.37533467362594714, start=0.5, step=0.25, count=33, mode=1)  # kappa_cr + 1e-5
    @example(kappa=0.45, start=0.5, step=0.25, count=33, mode=3)
    def test_trace_is_the_full_refinement(self, kappa, start, step, count, mode):
        grid_l1 = [start + step * i for i in range(count)]
        hi = lambda2_max(kappa)
        sides = {"lower": {-1.0}, "upper": {1.0}, "single": {-1.0, 1.0}}
        for branch in trace_curve(kappa, grid_l1, mode_index=mode):
            labels = set()
            for p, _ in branch.points:
                turns = _phase(p.lambda1, p.lambda2, kappa)[0] / (2.0 * math.pi) + 0.5
                family = round(turns)
                (column,) = _family_roots([_Column(p.lambda1, kappa, 2, 1e-9, hi)], family)
                column = dict(column)
                assert p.lambda2 in column and column[p.lambda2] in sides[branch.branch_tag]
                labels.add((family, column[p.lambda2]))
            assert len(labels) == 1


class TestFamilyWindows:
    """The defects of the 2000-panel scan, each mended by the family windows."""

    def test_crowded_first_root(self):
        # the scan returned 1.9909696 as root 1; the determinant changes
        # sign at 1.9777726, 1.9779548 and 1.9865171 below it
        assert solve_lambda2(6.75, 0.5) == pytest.approx(1.9777726, rel=1e-7)

    def test_eleventh_root_in_its_certified_enclosure(self):
        # interval arithmetic puts the 11th root in [2.2124566, 2.2135417]
        assert 2.2124566 <= solve_lambda2(5.0, 0.45, which=11) <= 2.2135417

    @pytest.mark.parametrize("kappa", [1e-6, 1e-300])
    def test_small_kappa_first_root(self, kappa):
        # a 500-wide first panel hid the lowest families at 1e-6, and the scan
        # overflowed at 1e-300; the walk ends by the roots it holds
        assert solve_lambda2(12.8, kappa) == pytest.approx(20.1679, rel=5e-5)
        (single,) = trace_curve(kappa, [1.0, 2.0])
        assert [p.lambda2 for p, _ in single.points] == pytest.approx([2.2823, 2.0947], rel=1e-4)

    def test_kappa_zero_has_no_cap(self):
        assert solve_lambda2(3.0, 0.0, which=3) == pytest.approx(61.5647819419, rel=1e-10)

    def test_rootless_tail_ends_the_walk(self):
        # L = kappa^2 lambda1 / cosh(r2*) = 1.1005 > 1: no family past the
        # fold has a root; a walk to 1/kappa would visit ~13,700 windows
        start = time.perf_counter()
        with pytest.raises(RootNotFoundError, match=r"only 0 lambda2 root\(s\)"):
            solve_lambda2(12.0, 0.42)
        assert time.perf_counter() - start < 0.05

    @pytest.mark.parametrize("kappa,l1", [(0.42, 12.0), (0.45, 9.5), (0.6, 6.0), (1.0, 3.0)])
    def test_ratio_stays_above_one_past_the_tail_window(self, kappa, l1):
        # what the tail stop rests on, observed: from the window where A > rho
        # at every sample on, A/rho stays above 1 all the way to 1/kappa
        col = _Column(l1, kappa, 2, 1e-9, lambda2_max(kappa))
        limit = kappa * kappa * l1 / math.cosh(math.sqrt(l1 / (kappa * l1 + 1.0 / kappa)))
        assert limit > 1.0
        k = col.first
        while _family_roots([col], k)[0] is not None:
            k += 1
        a = col.lo if k == col.first else col.load(charcurve._TWO_PI * (k - 1))
        gap = np.geomspace(1.0 / kappa - a, 1e-12 / kappa, 4001)  # distance below 1/kappa
        _, amp, rho = _phase(l1, 1.0 / kappa - gap, kappa)
        assert (amp > rho).all()
        assert abs(amp[-1] / rho[-1] - limit) <= 1e-3 * limit

    @pytest.mark.parametrize("bracket", [(2.0, 0.5), (1.0, 1.0), (float("nan"), 1.0)])
    def test_reversed_or_empty_bracket_rejected(self, bracket):
        # (2.0, 0.5) used to return 1.6116077, root 2 of [0.5, 2.0], as root 1
        with pytest.raises(InvalidInputError, match="bracket must have lo < hi"):
            solve_lambda2(5.0, 0.45, bracket=bracket)
        with pytest.raises(InvalidInputError, match="bracket must have lo < hi"):
            solve_lambda1(0.0, 0.25, bracket=(20.0, 1.0))
