"""Command-line front end: deterministic CSV/JSON tables for every analysis.

Subcommands
    curve       interaction-curve sweep (kappa, mode, branch, lambda1, lambda2, eta_prime)
    kcr         critical non-locality parameter and its lambda1
    fold        branching point of the interaction curve at fixed kappa
    minimum     lower-branch minimum at fixed kappa
    mode        linear buckling mode samples (t, y)
    reduce      reduction coefficients and pitchfork verdict
    unfold      imperfection unfolding constants, determinant, decision
    postbuckle  nonlinear post-buckling shape samples (x, y)
    verify      run the built-in oracle battery

Exit codes: 0 ok, 1 usage, 2 domain error, 3 convergence/verification failure.
Numbers are printed with 12 significant digits, locale independent.
"""

import argparse
import json
import math
import os
import sys
import tempfile

import numpy as np

from . import bvp, charcurve, reduction, unfolding
from .errors import AmplitudeSeedError, NanorodError, NoConvergenceError, NoFoldError
from .model import LoadPoint, RodSetup
from .modes import linear_residual_L4, mode_shape
from .quadrature import DEFAULT_N, Grid

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DOMAIN = 2
EXIT_CONVERGENCE = 3

FORMATS = ("csv", "json")
KERNEL_ORDERS = {"q2": 2, "q4": 4}
MAX_RANGE_POINTS = 10_000  # the README grid has 33

_CONVERGENCE_ERRORS = (NoFoldError, NoConvergenceError, AmplitudeSeedError)


def fmt(value) -> str:
    """12 significant digits, '.' decimal separator."""
    if isinstance(value, float):
        if math.isnan(value):
            return "nan"
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        return f"{value:.12g}"
    return str(value)


def section_fixture_curvature(t):
    """Default imperfection profile: curvature of y = t^3 - (4/3) t^2 + (4/9) t."""
    t = np.asarray(t, dtype=float)
    slope = 3.0 * t**2 - (8.0 / 3.0) * t + 4.0 / 9.0
    return (6.0 * t - 8.0 / 3.0) / np.sqrt(1.0 - slope**2)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


class _UsageError(Exception):
    """Malformed command-line input, reported in one line with exit code 1."""


def _load_config(path):
    cfg = {}
    try:
        with open(path, "r", encoding="ascii") as fh:
            lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise _UsageError(f"cannot read config file {path}: {exc}") from None
    for line in lines:
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise _UsageError(f"bad config line: {line!r}")
        key, _, value = line.partition("=")
        cfg[key.strip()] = value.strip()
    return cfg


def _apply_config(args):
    """Fill n, format and out from the config file where the command line left
    them at their defaults; values are checked as on the command line."""
    cfg = _load_config(args.config)
    unknown = sorted(set(cfg) - {"n", "format", "out"})
    if unknown:
        raise _UsageError(f"config file {args.config}: unknown key(s) {', '.join(unknown)}")
    if "n" in cfg and args.n == DEFAULT_N:
        try:
            args.n = _grid_size(cfg["n"])
        except argparse.ArgumentTypeError as exc:
            raise _UsageError(f"config file {args.config}: {exc}") from None
    if "format" in cfg and args.format == "csv":
        if cfg["format"] not in FORMATS:
            raise _UsageError(f"config file {args.config}: format must be one of "
                              f"{', '.join(FORMATS)}, got {cfg['format']!r}")
        args.format = cfg["format"]
    if "out" in cfg and not args.out:
        args.out = cfg["out"]


def _positive_int(text):
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected an integer >= 1, got {value}")
    return value


def _grid_size(text):
    n = _positive_int(text)
    if n % 2:
        raise argparse.ArgumentTypeError(f"grid size must be even, got {n}")
    return n


def _emit(rows, header, args, meta):
    """Write rows atomically as CSV or JSON; numerically identical in both formats."""
    rows = [[float(fmt(v)) if isinstance(v, float) else v for v in row] for row in rows]
    out = getattr(args, "out", None)
    if args.format == "csv":
        lines = [",".join(header)]
        lines += [",".join(fmt(v) for v in row) for row in rows]
        text = "\n".join(lines) + "\n"
    else:
        payload = {"meta": meta, "rows": [dict(zip(header, row)) for row in rows]}
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if out:
        directory = os.path.dirname(os.path.abspath(out))
        tmp = None
        try:
            fd, tmp = tempfile.mkstemp(dir=directory, prefix=".nanorod-")
            with os.fdopen(fd, "w", encoding="ascii") as fh:
                fh.write(text)
            os.replace(tmp, out)
        except OSError as exc:
            raise _UsageError(f"cannot write {out}: {exc}") from None
        finally:
            if tmp is not None and os.path.exists(tmp):
                os.unlink(tmp)
    else:
        sys.stdout.write(text)


def _check_finite(args):
    """NaN or infinity in a numeric option is a usage error, caught before any solver."""
    for name, value in vars(args).items():
        if isinstance(value, float) and not math.isfinite(value):
            raise _UsageError(f"--{name.replace('_', '-')} must be a finite number, got {value}")


def _parse_range(text):
    parts = text.split(":")
    try:
        start, stop, step = (float(p) for p in parts)
    except ValueError:
        raise _UsageError(f"range must be three numbers start:stop:step, got {text!r}") from None
    if not all(math.isfinite(v) for v in (start, stop, step)):
        raise _UsageError(f"range bounds and step must be finite numbers, got {text!r}")
    if step <= 0:
        raise _UsageError(f"range step must be positive, got {text!r}")
    span = (stop - start) / step
    if span + 1 > MAX_RANGE_POINTS:
        raise _UsageError(f"range {text!r} has more than {MAX_RANGE_POINTS} points")
    count = int(math.floor(span + 1e-9)) + 1
    return [start + i * step for i in range(max(count, 0))]


def cmd_curve(args):
    grid_l1 = _parse_range(args.l1)
    branches = charcurve.trace_curve(args.kappa, grid_l1, mode_index=args.mode)
    rows = []
    for br in branches:
        for point, etap in br.points:
            rows.append([args.kappa, br.mode_index, br.branch_tag,
                         point.lambda1, point.lambda2, etap])
        if br.fold is not None and br.branch_tag == "lower":
            rows.append([args.kappa, br.mode_index, "fold",
                         br.fold.lambda1, br.fold.lambda2, float("nan")])
    order = {"lower": 0, "single": 0, "upper": 1, "fold": 2}
    rows.sort(key=lambda r: (order[r[2]], r[3]))
    _emit(rows, ["kappa", "mode", "branch", "lambda1", "lambda2", "eta_prime"],
          args, {"command": "curve", "kappa": args.kappa, "mode": args.mode})
    return EXIT_OK


def cmd_kcr(args):
    kappa_cr, lambda1 = charcurve.find_kappa_cr(args.seed_kappa, args.seed_l1)
    _emit([[kappa_cr, lambda1]], ["kappa_cr", "lambda1"], args, {"command": "kcr"})
    return EXIT_OK


def cmd_fold(args):
    fold = charcurve.find_fold(args.kappa, LoadPoint(args.seed_l1, args.seed_l2))
    _emit([[args.kappa, fold.lambda1, fold.lambda2]],
          ["kappa", "lambda1", "lambda2"], args, {"command": "fold", "kappa": args.kappa})
    return EXIT_OK


def cmd_minimum(args):
    pt = charcurve.find_branch_minimum(args.kappa, LoadPoint(args.seed_l1, args.seed_l2))
    _emit([[args.kappa, pt.lambda1, pt.lambda2]],
          ["kappa", "lambda1", "lambda2"], args,
          {"command": "minimum", "kappa": args.kappa})
    return EXIT_OK


def _critical_point(args):
    if args.branch:
        which = {"lower": 1, "upper": 2}[args.branch]
    else:
        which = args.which or 1
    lambda2 = charcurve.solve_lambda2(args.l1, args.kappa, which=which)
    return LoadPoint(args.l1, lambda2)


def cmd_mode(args):
    grid = Grid(args.n)
    p0 = _critical_point(args)
    yL = mode_shape(p0, args.kappa, grid)
    rows = [[float(t), float(y)] for t, y in zip(grid.t, yL.sample(grid))]
    _emit(rows, ["t", "y"], args,
          {"command": "mode", "kappa": args.kappa,
           "lambda1": p0.lambda1, "lambda2": p0.lambda2})
    return EXIT_OK


def cmd_reduce(args):
    grid = Grid(args.n)
    p0 = _critical_point(args)
    _, _, rc = reduction.critical_chain(p0, args.kappa, grid, KERNEL_ORDERS[args.kernel])
    rows = [[p0.lambda1, p0.lambda2, rc.c11, rc.c12, rc.c13, rc.c3, rc.eta_prime,
             rc.tangential_coefficient, rc.crossing_coefficient,
             rc.epsilon, rc.delta, str(rc.verdict)]]
    _emit(rows,
          ["lambda1", "lambda2", "c11", "c12", "c13", "c3", "eta_prime",
           "tangential_coefficient", "crossing_coefficient", "epsilon", "delta", "verdict"],
          args, {"command": "reduce", "kappa": args.kappa, "kernel": args.kernel})
    return EXIT_OK


def _profile_from_file(path):
    try:
        data = np.loadtxt(path, delimiter=",", ndmin=2)
    except (OSError, ValueError) as exc:
        raise _UsageError(f"cannot read profile file {path}: {exc}") from None
    if data.shape[1] != 2:
        raise _UsageError(f"profile file {path} must be two-column CSV t,value")
    ts, vals = data[:, 0], data[:, 1]
    if np.any(np.diff(ts) <= 0.0):
        raise _UsageError(f"profile file {path}: t must increase from row to row")

    def rho0(t):
        return np.interp(np.asarray(t, dtype=float), ts, vals)

    return rho0


def cmd_unfold(args):
    rho0 = _profile_from_file(args.profile) if args.profile else section_fixture_curvature
    grid = Grid(args.n)
    p0 = _critical_point(args)
    yL, q, rc = reduction.critical_chain(p0, args.kappa, grid, KERNEL_ORDERS[args.kernel])
    uc = unfolding.unfolding_coefficients(p0, args.kappa, yL, q, rho0, grid)
    report = unfolding.is_universal_unfolding(rc, uc)
    names = ["d01", "d02", "d11", "d12", "d13", "d14", "d21", "d22", "d23", "d24",
             "d25", "d26", "d31", "d32", "d33", "d34", "d35", "d36", "d37", "d38",
             "d39", "d310"]
    rows = [[name, getattr(uc, name)] for name in names]
    rows.append(["determinant", report.determinant])
    rows.append(["universal", str(report.universal)])
    _emit(rows, ["name", "value"], args,
          {"command": "unfold", "kappa": args.kappa,
           "lambda1": p0.lambda1, "lambda2": p0.lambda2})
    return EXIT_OK


def cmd_postbuckle(args):
    grid = Grid(args.n)
    p0 = _critical_point(args)
    direction = "along-lambda1" if args.dl1 is not None else "along-lambda2"
    delta = args.dl1 if args.dl1 is not None else args.dl2
    try:
        sol = bvp.solve_postbuckling(p0, args.kappa, delta, direction,
                                     sign=args.sign, grid=grid)
    except AmplitudeSeedError:
        # offset lies on the trivial side: the equilibrium there is straight
        _, _, rc = reduction.critical_chain(p0, args.kappa, grid)
        dl1, dl2 = reduction.crossing_offsets(rc, delta, direction)
        sol = bvp.shoot(p0.offset(dl1, dl2), RodSetup(kappa=args.kappa), 0.0, 0.0,
                        grid=grid)
    traj = sol.trajectory
    rows = [[float(x), float(y)] for x, y in zip(traj.x, traj.y)]
    _emit(rows, ["x", "y"], args,
          {"command": "postbuckle", "kappa": args.kappa,
           "lambda1": sol.load.lambda1, "lambda2": sol.load.lambda2,
           "tip_deflection": bvp.tip_deflection(sol),
           "node_count": bvp.node_count(sol),
           "m2_residual": sol.m2_residual})
    return EXIT_OK


def cmd_verify(args):
    checks = []

    def check(name, ok, detail=""):
        checks.append(ok)
        print(f"{'PASS' if ok else 'FAIL'}  {name}  {detail}")

    grid = Grid(args.n)
    # wavenumber identities
    w = charcurve.wavenumbers(LoadPoint(8.29796, 1.15665), 0.45)
    lhs = w.r1 * w.r2
    rhs = math.sqrt(8.29796 / (1.0 - 0.45 * 1.15665))
    check("wavenumber product identity", abs(lhs - rhs) < 1e-12 * rhs, f"{lhs - rhs:.2e}")
    # polynomial exactness of the cumulative integral
    z = grid.t.copy()
    err = np.max(np.abs(grid.i1(z) - (1.0 - grid.t**2) / 2.0))
    check("cumulative Simpson exact on t", err < 1e-12, f"{err:.2e}")
    # Euler limit
    root = charcurve.solve_lambda2(1e-8, 0.0, bracket=(1.0, 4.0))
    check("Euler cantilever limit", abs(root - math.pi**2 / 4.0) < 1e-3, f"{root:.6f}")
    # char residual vs linear shooting determinant
    agree = True
    for l1, kappa in ((5.0, 0.2), (10.0, 0.25), (2.0, 0.45)):
        r_char = charcurve.solve_lambda2(l1, kappa)
        det = lambda x: bvp.linear_shooting_determinant(LoadPoint(l1, x), kappa)
        r_det = charcurve._brentq(det, r_char - 0.05, r_char + 0.05, xtol=1e-12)
        agree = agree and abs(r_char - r_det) < 1e-6
    check("shooting determinant oracle", agree)
    # fold and kappa_cr
    fold = charcurve.find_fold(0.45, LoadPoint(8.3, 1.16))
    check("fold at kappa=0.45", abs(fold.lambda1 - 8.29796) < 1e-3
          and abs(fold.lambda2 - 1.15665) < 1e-3,
          f"({fold.lambda1:.5f}, {fold.lambda2:.5f})")
    kcr, l1cr = charcurve.find_kappa_cr()
    check("critical non-locality", abs(kcr - 0.375325) < 5e-4 and abs(l1cr - 29.145) < 5e-3,
          f"({kcr:.6f}, {l1cr:.5f})")
    # mode residual
    p0 = LoadPoint(16.713078901585753, charcurve.solve_lambda2(16.713078901585753, 0.25))
    yL = mode_shape(p0, 0.25, grid)
    interior, boundary = linear_residual_L4(yL, p0, 0.25, grid)
    check("mode interior residual", interior < 1e-6, f"{interior:.2e}")
    check("mode boundary residual", max(abs(b) for b in boundary) < 1e-8)
    # mirror symmetry of the nonlinear solve
    p1 = LoadPoint(10.0, charcurve.solve_lambda2(10.0, 0.25))
    plus = bvp.solve_postbuckling(p1, 0.25, 0.2, sign=1, grid=grid)
    minus = bvp.solve_postbuckling(p1, 0.25, 0.2, sign=-1, grid=grid)
    mirror = np.max(np.abs(plus.trajectory.y + minus.trajectory.y))
    check("mirror-pair symmetry", mirror < 1e-8, f"{mirror:.2e}")
    check("operator residual of nonlinear solve", plus.m2_residual < 1e-4,
          f"{plus.m2_residual:.2e}")

    if all(checks):
        print(f"verify: {len(checks)} checks passed")
        return EXIT_OK
    print(f"verify: {sum(1 for c in checks if not c)} of {len(checks)} checks FAILED")
    return EXIT_CONVERGENCE


def build_parser():
    parser = _Parser(prog="nanorod", description=__doc__.splitlines()[0])
    parser.add_argument("--config", help="flat key=value config file")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--n", type=_grid_size, default=DEFAULT_N, help="grid size (even)")
        p.add_argument("--format", choices=FORMATS, default="csv")
        p.add_argument("--out", help="output path (default stdout)")

    p = sub.add_parser("curve", help="interaction-curve sweep")
    p.add_argument("--kappa", type=float, required=True)
    p.add_argument("--l1", required=True, help="lambda1 range start:stop:step")
    p.add_argument("--mode", type=_positive_int, default=1)
    common(p)
    p.set_defaults(func=cmd_curve)

    p = sub.add_parser("kcr", help="critical non-locality parameter")
    p.add_argument("--seed-kappa", type=float, default=0.37)
    p.add_argument("--seed-l1", type=float, default=29.0)
    common(p)
    p.set_defaults(func=cmd_kcr)

    p = sub.add_parser("fold", help="interaction-curve branching point")
    p.add_argument("--kappa", type=float, required=True)
    p.add_argument("--seed-l1", type=float, default=8.3)
    p.add_argument("--seed-l2", type=float, default=1.1)
    common(p)
    p.set_defaults(func=cmd_fold)

    p = sub.add_parser("minimum", help="lower-branch minimum")
    p.add_argument("--kappa", type=float, required=True)
    p.add_argument("--seed-l1", type=float, default=6.3)
    p.add_argument("--seed-l2", type=float, default=1.05)
    common(p)
    p.set_defaults(func=cmd_minimum)

    def critical_args(p):
        p.add_argument("--kappa", type=float, required=True)
        p.add_argument("--l1", type=float, required=True)
        root = p.add_mutually_exclusive_group()
        # no default value: argparse sees a conflict only for a value that is
        # not the default object, and --which 1 would parse to that object
        root.add_argument("--which", type=_positive_int,
                          help="root index in lambda2 (default 1; 2 = upper branch)")
        root.add_argument("--branch", choices=("lower", "upper"),
                          help="branch name; shorthand for --which 1/2")

    p = sub.add_parser("mode", help="linear buckling mode table")
    critical_args(p)
    common(p)
    p.set_defaults(func=cmd_mode)

    p = sub.add_parser("reduce", help="reduction coefficients and verdict")
    critical_args(p)
    p.add_argument("--kernel", choices=tuple(KERNEL_ORDERS), default="q2")
    common(p)
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("unfold", help="imperfection unfolding constants")
    critical_args(p)
    p.add_argument("--kernel", choices=tuple(KERNEL_ORDERS), default="q2")
    p.add_argument("--profile", help="two-column CSV t,value curvature profile")
    common(p)
    p.set_defaults(func=cmd_unfold)

    p = sub.add_parser("postbuckle", help="post-buckling shape table")
    critical_args(p)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--dl1", type=float)
    group.add_argument("--dl2", type=float)
    p.add_argument("--sign", type=int, choices=(1, -1), default=1)
    common(p)
    p.set_defaults(func=cmd_postbuckle)

    p = sub.add_parser("verify", help="run the oracle battery")
    common(p)
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else EXIT_USAGE
    try:
        if args.config:
            _apply_config(args)
        _check_finite(args)
        return args.func(args)
    except _UsageError as exc:
        print(f"nanorod: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except _CONVERGENCE_ERRORS as exc:
        print(f"nanorod: convergence error: {exc}", file=sys.stderr)
        return EXIT_CONVERGENCE
    except NanorodError as exc:
        print(f"nanorod: domain error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
