"""The four workloads: seeded inputs, the timed operation, and the output
checks, which run outside the timed region.

Every workload is a sequence of rounds.  A round is a fixed mix of operation
kinds with fresh seeded inputs, so each round costs about the same whatever
the seed, and no input repeats inside a run (a result cache in the program
would not be rewarded).  Why each workload exists, and which layers it loads
and bypasses, is written in README.md next to this file.
"""

import csv
import io
import math
import os
import random
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
CLI_BOOT = os.path.join(BENCH_DIR, "cli_boot.py")

# Published values (paper text and captions) the outputs are checked against.
KAPPA_CR = (0.375325, 29.145)
KAPPA_CR_TOL = (5e-4, 5e-3)
FOLD_045 = (8.29796, 1.15665)
MINIMUM_045 = (6.32271, 1.04474)
POINT_TOL = 1e-3

# Caption lambda1 values: Fig. 6 at kappa = 0.25 (the lambda2 = 0 axis point
# 16.7131 is left out), Figs. 5/7/9 at kappa = 0.45 per branch.
FIG6_L1 = (0.05, 2.5, 5.0, 7.5, 10.0, 12.5, 15.0)
FIG579_LOWER_L1 = (0.05, 2.5, 5.0, 6.0, 7.0, 7.5, 8.0)
FIG579_UPPER_L1 = (0.05, 2.5, 5.0, 6.0, 7.5, 8.0)
README_GRID = "0.5:8.5:0.25"
README_L1 = [0.5 + 0.25 * i for i in range(33)]

MAX_ROUNDS = 400  # rounds generated up front; a longer run cycles through them again


def fixture_curvature(t):
    """README default imperfection profile: curvature of t^3 - (4/3) t^2 + (4/9) t."""
    import numpy as np

    t = np.asarray(t, dtype=float)
    slope = 3.0 * t**2 - (8.0 / 3.0) * t + 4.0 / 9.0
    return (6.0 * t - 8.0 / 3.0) / np.sqrt(1.0 - slope**2)


def _stratified(rng, lo, hi, k):
    """One uniform draw from each of k equal strata of [lo, hi], shuffled."""
    width = (hi - lo) / k
    draws = [lo + (i + rng.random()) * width for i in range(k)]
    rng.shuffle(draws)
    return draws


def _near(value, target, tol):
    return abs(value - target) < tol


def det_brackets_root(lambda1, lambda2, kappa, others=()):
    """Independent root oracle: the linear shooting determinant changes sign
    across lambda2.  ``others`` are the other roots of the same column; the
    bracket stays clear of them."""
    from nanorod import bvp
    from nanorod.model import LoadPoint

    gap = min((abs(o - lambda2) for o in others if o != lambda2), default=1.0)
    half = min(1e-4 * max(1.0, abs(lambda2)), 0.25 * gap)
    lo = bvp.linear_shooting_determinant(LoadPoint(lambda1, lambda2 - half), kappa)
    hi = bvp.linear_shooting_determinant(LoadPoint(lambda1, lambda2 + half), kappa)
    return lo * hi < 0.0


def _verdict_errors(rc, label):
    """The verdict must follow from the signs of c3 and the crossing coefficient."""
    tol = 1e-10  # nanorod.reduction.DEGENERATE_TOL
    eps = 0 if abs(rc.c3) < tol else int(math.copysign(1.0, rc.c3))
    delta = 0 if abs(rc.crossing_coefficient) < tol else int(math.copysign(1.0, rc.crossing_coefficient))
    if eps == 0 or delta == 0:
        expected = "Degenerate"
    else:
        expected = "Supercritical" if eps * delta < 0 else "Subcritical"
    if (rc.epsilon, rc.delta, str(rc.verdict)) != (eps, delta, expected):
        return [f"{label}: verdict {rc.verdict} (eps {rc.epsilon}, delta {rc.delta}) but "
                f"c3 {rc.c3:.3e} and crossing {rc.crossing_coefficient:.3e} give {expected}"]
    return []


class Workload:
    """Common interface; subclasses fill in inputs, run and check."""

    name = ""
    in_process = True

    def __init__(self, seed, ops_limit=None):
        self.seed = seed
        self.rng = random.Random(f"{self.name}:{seed}")
        self.ops_limit = ops_limit
        self._rounds = []

    def setup(self):
        """Generate inputs and warm up; everything before the first timed op."""
        raise NotImplementedError

    def round(self, index):
        ops = self._rounds[index % len(self._rounds)]
        return ops[: self.ops_limit] if self.ops_limit else ops

    def run(self, op, traced=False):
        raise NotImplementedError

    def check(self, op, result):
        """List of check failures for one op's result (empty when correct)."""
        raise NotImplementedError

    @staticmethod
    def describe(op):
        return {k: v for k, v in op.items() if not k.startswith("_")}


class CliCold(Workload):
    """README commands, each a fresh `python -m nanorod.cli` process."""

    name = "cli_cold"
    in_process = False
    COMMANDS = ("curve", "kcr", "fold", "minimum", "mode", "reduce", "unfold",
                "postbuckle", "verify")
    # README and acceptance critical points: (kappa, l1, branch)
    POINTS = (("0.25", "10", None), ("0.45", "5", None), ("0.45", "5", "upper"))

    def __init__(self, seed, ops_limit=None, env=None, spans_dir=None):
        super().__init__(seed, ops_limit)
        self.env = env
        self.spans_dir = spans_dir
        self.span_files = []

    def setup(self):
        rng = self.rng
        # each point-taking command visits every point once per len(POINTS) rounds
        point_order = {c: rng.sample(range(len(self.POINTS)), len(self.POINTS))
                       for c in ("mode", "reduce", "unfold", "postbuckle")}
        curve_order = rng.sample(("0.25", "0.45"), 2)
        for r in range(12):
            ops = []
            for command in rng.sample(self.COMMANDS, len(self.COMMANDS)):
                op = {"command": command}
                if command == "curve":
                    op["argv"] = ["curve", "--kappa", curve_order[r % 2], "--l1", README_GRID]
                    op["_pick"] = rng.random()  # which row gets the determinant oracle
                elif command == "kcr":
                    op["argv"] = ["kcr"]
                elif command == "fold":
                    op["argv"] = ["fold", "--kappa", "0.45", "--seed-l1", "8.3", "--seed-l2", "1.16"]
                elif command == "minimum":
                    op["argv"] = ["minimum", "--kappa", "0.45"]
                elif command == "verify":
                    op["argv"] = ["verify"]
                else:
                    kappa, l1, branch = self.POINTS[point_order[command][r % len(self.POINTS)]]
                    argv = [command, "--kappa", kappa, "--l1", l1]
                    if branch:
                        argv += ["--branch", branch]
                    if command == "postbuckle":
                        argv += ["--dl1", "0.5"] if kappa == "0.25" else ["--dl2", "0.02"]
                        argv += ["--sign", str(rng.choice((1, -1)))]
                    op["argv"] = argv
                ops.append(op)
            self._rounds.append(ops)
        self._cli(["kcr"])  # warm-up: fills the page cache and pyc files

    def _cli(self, argv, op_id=None, traced=False):
        if traced:
            out = os.path.join(self.spans_dir, f"cli-{os.getpid()}-{op_id}.json")
            self.span_files.append(out)
            cmd = [sys.executable, CLI_BOOT, out, str(op_id)] + argv
        else:
            cmd = [sys.executable, "-m", "nanorod.cli"] + argv
        proc = subprocess.run(cmd, env=self.env, capture_output=True, text=True, timeout=150)
        return proc.returncode, proc.stdout, proc.stderr

    def run(self, op, traced=False):
        return self._cli(op["argv"], op.get("_id"), traced)

    def check(self, op, result):
        code, out, err = result
        if code != 0:
            return [f"exit {code}: {(err.strip().splitlines() or [''])[-1]}"]
        command = op["command"]
        if command == "verify":
            last = out.strip().splitlines()[-1] if out.strip() else ""
            return [] if last.endswith("checks passed") else [f"verify output: {last!r}"]
        rows = list(csv.DictReader(io.StringIO(out)))
        if not rows:
            return ["empty table"]
        return getattr(self, "_check_" + command)(op, rows)

    def _check_curve(self, op, rows):
        kappa = float(rows[0]["kappa"])
        errors = []
        tags = {r["branch"] for r in rows}
        if kappa == 0.45:
            fold = [r for r in rows if r["branch"] == "fold"]
            if tags != {"lower", "upper", "fold"} or len(fold) != 1:
                return [f"branches {sorted(tags)} at kappa 0.45"]
            got = (float(fold[0]["lambda1"]), float(fold[0]["lambda2"]))
            if not (_near(got[0], FOLD_045[0], POINT_TOL) and _near(got[1], FOLD_045[1], POINT_TOL)):
                errors.append(f"fold row {got} vs published {FOLD_045}")
        elif tags != {"single"} or len(rows) != len(README_L1):
            return [f"branches {sorted(tags)}, {len(rows)} rows at kappa {kappa}"]
        points = [r for r in rows if r["branch"] != "fold"]
        row = points[int(op["_pick"] * len(points))]
        l1, l2 = float(row["lambda1"]), float(row["lambda2"])
        others = [float(r["lambda2"]) for r in points if float(r["lambda1"]) == l1]
        if not det_brackets_root(l1, l2, kappa, others):
            errors.append(f"no determinant sign change at ({l1}, {l2})")
        return errors

    def _check_kcr(self, op, rows):
        got = (float(rows[0]["kappa_cr"]), float(rows[0]["lambda1"]))
        ok = _near(got[0], KAPPA_CR[0], KAPPA_CR_TOL[0]) and _near(got[1], KAPPA_CR[1], KAPPA_CR_TOL[1])
        return [] if ok else [f"kcr {got} vs published {KAPPA_CR}"]

    def _check_point(self, rows, published, label):
        got = (float(rows[0]["lambda1"]), float(rows[0]["lambda2"]))
        ok = _near(got[0], published[0], POINT_TOL) and _near(got[1], published[1], POINT_TOL)
        return [] if ok else [f"{label} {got} vs published {published}"]

    def _check_fold(self, op, rows):
        return self._check_point(rows, FOLD_045, "fold")

    def _check_minimum(self, op, rows):
        return self._check_point(rows, MINIMUM_045, "minimum")

    def _check_mode(self, op, rows):
        t = [float(r["t"]) for r in rows]
        y = [float(r["y"]) for r in rows]
        h = t[1] - t[0]
        norm2 = h * (sum(v * v for v in y) - 0.5 * (y[0] ** 2 + y[-1] ** 2))
        errors = []
        if len(rows) != 4097 or t[0] != 0.0 or t[-1] != 1.0:
            errors.append(f"{len(rows)} rows on [{t[0]}, {t[-1]}]")
        if y[0] != 0.0 or not y[2] - 2.0 * y[1] + y[0] > 0.0:
            errors.append("mode breaks y(0) = 0 or y''(0) > 0")
        if abs(norm2 - 1.0) > 1e-6:
            errors.append(f"trapezoid L2 norm^2 {norm2:.9f} != 1")
        return errors

    def _check_reduce(self, op, rows):
        row = rows[0]
        c3, crossing = float(row["c3"]), float(row["crossing_coefficient"])
        eps = int(math.copysign(1.0, c3))
        delta = int(math.copysign(1.0, crossing))
        expected = "Supercritical" if eps * delta < 0 else "Subcritical"
        errors = []
        if (int(row["epsilon"]), int(row["delta"]), row["verdict"]) != (eps, delta, expected):
            errors.append(f"verdict {row['verdict']} vs signs of c3 {c3} and crossing {crossing}")
        kappa = float(op["argv"][op["argv"].index("--kappa") + 1])
        l1, l2 = float(row["lambda1"]), float(row["lambda2"])
        if not det_brackets_root(l1, l2, kappa):
            errors.append(f"no determinant sign change at ({l1}, {l2})")
        return errors

    def _check_unfold(self, op, rows):
        d = {r["name"]: r["value"] for r in rows}
        det = float(d["determinant"])
        recomputed = float(d["d01"]) * float(d["d22"]) - float(d["d21"]) * float(d["d02"])
        errors = []
        if abs(det - recomputed) > 1e-9 * max(abs(det), 1e-12):
            errors.append(f"determinant {det} != d01 d22 - d21 d02 = {recomputed}")
        if d["universal"] != "True":
            errors.append(f"universal = {d['universal']}")
        return errors

    def _check_postbuckle(self, op, rows):
        x = [float(r["x"]) for r in rows]
        y = [float(r["y"]) for r in rows]
        n = len(rows) - 1
        stretch = max(abs(math.hypot(x[i + 1] - x[i], y[i + 1] - y[i]) * n - 1.0) for i in range(n))
        errors = []
        if n != 4096 or x[0] != 0.0 or y[0] != 0.0:
            errors.append(f"{n + 1} rows starting at ({x[0]}, {y[0]})")
        if stretch > 1e-6:
            errors.append(f"inextensibility broken: segment stretch {stretch:.2e}")
        if abs(y[-1]) < 1e-3:
            errors.append(f"trivial shape: tip deflection {y[-1]:.2e}")
        return errors


class CurveSweep(Workload):
    """One trace_curve over the README lambda1 grid per op."""

    name = "curve_sweep"
    # kappa strata on both sides of kappa_cr ~ 0.3753; above 0.405 the mode-1
    # family is folded (fold inside the grid from kappa ~ 0.45 on)
    STRATA = ((0.15, 0.20), (0.20, 0.25), (0.25, 0.30), (0.30, 0.36),
              (0.38, 0.42), (0.44, 0.48), (0.48, 0.52), (0.52, 0.56))

    def setup(self):
        from nanorod import charcurve

        self.charcurve = charcurve
        rng = self.rng
        for _ in range(MAX_ROUNDS):
            kappas = [rng.uniform(lo, hi) for lo, hi in self.STRATA]
            rng.shuffle(kappas)
            ops = [{"kappa": k} for k in kappas]
            rng.choice(ops)["_pick"] = rng.random()  # one root per round for the determinant oracle
            self._rounds.append(ops)
        self.charcurve.trace_curve(0.45, README_L1)  # warm-up

    def run(self, op, traced=False):
        return self.charcurve.trace_curve(op["kappa"], README_L1)

    def check(self, op, branches):
        kappa = op["kappa"]
        tags = sorted(b.branch_tag for b in branches)
        if tags == ["single"]:
            (single,) = branches
            if len(single.points) != len(README_L1) or single.fold is not None:
                return [f"single branch with {len(single.points)} points, fold {single.fold}"]
        elif tags == ["lower", "upper"] and kappa > KAPPA_CR[0]:
            lower, upper = sorted(branches, key=lambda b: b.branch_tag)
            errors = self._fold_errors(lower, upper)
            if errors:
                return errors
        else:
            return [f"branch set {tags} at kappa {kappa}"]
        if "_pick" not in op:
            return []
        points = [p for b in branches for p, _eta in b.points]
        p = points[int(op["_pick"] * len(points))]
        others = [q.lambda2 for q in points if q.lambda1 == p.lambda1]
        if not det_brackets_root(p.lambda1, p.lambda2, kappa, others):
            return [f"no determinant sign change at ({p.lambda1}, {p.lambda2})"]
        return []

    @staticmethod
    def _fold_errors(lower, upper):
        fold = lower.fold
        if fold is None:
            return ["folded family without a fold"]
        lo_pts = [p for p, _ in lower.points]
        up_pts = [p for p, _ in upper.points]
        if [p.lambda1 for p in lo_pts] != [p.lambda1 for p in up_pts]:
            return ["lower and upper branches on different columns"]
        if any(a.lambda2 >= b.lambda2 for a, b in zip(lo_pts, up_pts)):
            return ["lower branch not below upper branch"]
        last = lo_pts[-1]
        if last.lambda1 == README_L1[-1]:
            inside = fold.lambda1 > last.lambda1  # the family folds beyond the grid
        else:
            inside = (last.lambda1 < fold.lambda1 < last.lambda1 + 0.25
                      and last.lambda2 < fold.lambda2 < up_pts[-1].lambda2)
        return [] if inside else [f"fold {fold} outside the closing columns at lambda1 {last.lambda1}"]


class CriticalPoints(Workload):
    """The reduce/unfold chain at seeded critical points, plus point solves."""

    name = "critical_points"
    FAMILIES = ((0.25, 1, FIG6_L1, 16.5), (0.45, 1, FIG579_LOWER_L1, 8.0),
                (0.45, 2, FIG579_UPPER_L1, 8.0))
    SAMPLE_EVERY = 4  # one chain in every 4th round also gets the determinant/residual oracle

    def setup(self):
        from nanorod import charcurve, modes, reduction, unfolding
        from nanorod.model import LoadPoint
        from nanorod.quadrature import Grid

        self.cc, self.modes, self.reduction, self.unfolding = charcurve, modes, reduction, unfolding
        self.LoadPoint = LoadPoint
        self.grid = Grid()
        rng = self.rng
        for r in range(MAX_ROUNDS):
            ops = []
            for kappa, which, captions, hi in self.FAMILIES:
                for c in captions:
                    l1 = min(max(c + rng.uniform(-0.25, 0.25), 0.05), hi)
                    ops.append({"kind": "chain", "kappa": kappa, "lambda1": l1, "which": which})
            if r % self.SAMPLE_EVERY == 0:
                rng.choice(ops)["_sampled"] = True
            for kind in ("fold", "minimum", "kcr", rng.choice(("fold", "minimum", "kcr"))):
                ops.append(self._solve_op(kind))
            rng.shuffle(ops)
            self._rounds.append(ops)
        for op in (self._rounds[0][0], self._solve_op("fold"), self._solve_op("minimum"),
                   self._solve_op("kcr")):
            self.run(op)  # warm-up

    def _solve_op(self, kind):
        u = self.rng.uniform
        if kind == "fold":
            return {"kind": kind, "guess": (8.3 + u(-0.15, 0.15), 1.16 + u(-0.05, 0.05))}
        if kind == "minimum":
            return {"kind": kind, "guess": (6.3 + u(-0.3, 0.3), 1.045 + u(-0.02, 0.02))}
        return {"kind": kind, "guess": (0.37 + u(-0.01, 0.01), 29.0 + u(-0.5, 0.5))}

    def run(self, op, traced=False):
        kind = op["kind"]
        if kind == "fold":
            return self.cc.find_fold(0.45, self.LoadPoint(*op["guess"]))
        if kind == "minimum":
            return self.cc.find_branch_minimum(0.45, self.LoadPoint(*op["guess"]))
        if kind == "kcr":
            return self.cc.find_kappa_cr(*op["guess"])
        kappa, grid = op["kappa"], self.grid
        l2 = self.cc.solve_lambda2(op["lambda1"], kappa, which=op["which"])
        p0 = self.LoadPoint(op["lambda1"], l2)
        y_l = self.modes.mode_shape(p0, kappa, grid)
        q2 = self.modes.adjoint_kernel(2, p0, kappa, grid)
        q4 = self.modes.adjoint_kernel(4, p0, kappa, grid)
        rc2 = self.reduction.reduction_coefficients(p0, kappa, y_l, q2, grid)
        rc4 = self.reduction.reduction_coefficients(p0, kappa, y_l, q4, grid)
        uc = self.unfolding.unfolding_coefficients(p0, kappa, y_l, q2, fixture_curvature, grid)
        report = self.unfolding.is_universal_unfolding(rc2, uc)
        return p0, y_l, rc2, rc4, report

    def check(self, op, result):
        kind = op["kind"]
        if kind == "kcr":
            ok = (_near(result[0], KAPPA_CR[0], KAPPA_CR_TOL[0])
                  and _near(result[1], KAPPA_CR[1], KAPPA_CR_TOL[1]))
            return [] if ok else [f"kcr {result} vs published {KAPPA_CR}"]
        if kind in ("fold", "minimum"):
            published = FOLD_045 if kind == "fold" else MINIMUM_045
            ok = (_near(result.lambda1, published[0], POINT_TOL)
                  and _near(result.lambda2, published[1], POINT_TOL))
            return [] if ok else [f"{kind} {result} vs published {published}"]
        p0, y_l, rc2, rc4, report = result
        errors = _verdict_errors(rc2, "q2") + _verdict_errors(rc4, "q4")
        if not report.universal:
            errors.append(f"not a universal unfolding: {report.reasons}")
        if op.get("_sampled"):
            if not det_brackets_root(p0.lambda1, p0.lambda2, op["kappa"]):
                errors.append(f"no determinant sign change at ({p0.lambda1}, {p0.lambda2})")
            interior, boundary = self.modes.linear_residual_L4(y_l, p0, op["kappa"], self.grid)
            if interior > 1e-6 or max(abs(b) for b in boundary) > 1e-8:
                errors.append(f"mode residual {interior:.1e}, boundary {boundary}")
        return errors


class Postbuckle(Workload):
    """One solve_postbuckling per op; critical points are solved in set-up."""

    name = "postbuckle"
    ROUNDS = 4  # distinct input rounds; ~2 fit in a 20 s run at this commit

    def setup(self):
        from nanorod import bvp, charcurve
        from nanorod.model import LoadPoint
        from nanorod.quadrature import Grid

        self.bvp = bvp
        self.grid = Grid()
        rng = self.rng
        for r in range(self.ROUNDS):
            inputs = []
            # kappa = 0.25, along lambda1: lambda1 and delta strata paired at random
            for l1, delta in zip(_stratified(rng, 0.05, 15.0, 8), _stratified(rng, 0.1, 0.5, 8)):
                inputs.append({"kappa": 0.25, "lambda1": l1, "delta": delta,
                               "direction": "along-lambda1", "nodes": 0})
            # kappa = 0.45, along lambda2: below (0 nodes) and above (1 node) the branch minimum
            for lo, hi, nodes in ((0.5, 5.0, 0), (7.0, 8.0, 1)):
                for l1 in _stratified(rng, lo, hi, 4):
                    inputs.append({"kappa": 0.45, "lambda1": l1, "delta": rng.uniform(0.01, 0.04),
                                   "direction": "along-lambda2", "nodes": nodes})
            ops = []
            for i, inp in enumerate(inputs):
                p0 = LoadPoint(inp["lambda1"], charcurve.solve_lambda2(inp["lambda1"], inp["kappa"]))
                for sign in (1, -1):
                    ops.append(dict(inp, sign=sign, pair=f"{r}.{i}", _p0=p0))
            rng.shuffle(ops)
            self._rounds.append(ops)
        self._mirror = {}
        self.run(self._rounds[0][0])  # warm-up

    def run(self, op, traced=False):
        return self.bvp.solve_postbuckling(op["_p0"], op["kappa"], op["delta"], op["direction"],
                                           sign=op["sign"], grid=self.grid)

    def check(self, op, sol):
        import numpy as np

        traj = sol.trajectory
        errors = []
        if not sol.m2_residual < 1e-4:
            errors.append(f"operator residual {sol.m2_residual:.2e}")
        if max(abs(traj.v[-1] - sol.setup.alpha2), abs(traj.m[-1])) > 1e-9:
            errors.append(f"terminal residuals v(1) {traj.v[-1]:.2e}, m(1) {traj.m[-1]:.2e}")
        nodes = self.bvp.node_count(sol)
        if nodes != op["nodes"]:
            errors.append(f"node count {nodes}, expected {op['nodes']}")
        stretch = np.max(np.abs(np.hypot(np.diff(traj.x), np.diff(traj.y)) * self.grid.n - 1.0))
        if stretch > 1e-6:
            errors.append(f"inextensibility broken: segment stretch {stretch:.2e}")
        if abs(traj.y[-1]) < 1e-3:
            errors.append(f"trivial shape: tip deflection {traj.y[-1]:.2e}")
        partner = self._mirror.pop(op["pair"], None)
        if partner is None or partner[0] == op["sign"]:  # no partner yet, or a repeat of this op
            self._mirror[op["pair"]] = (op["sign"], traj.y.copy())
        else:
            mirror = float(np.max(np.abs(traj.y + partner[1])))
            if mirror > 1e-8:
                errors.append(f"mirror pair differs by {mirror:.2e}")
        return errors


WORKLOADS = {w.name: w for w in (CliCold, CurveSweep, CriticalPoints, Postbuckle)}
