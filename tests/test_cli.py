import contextlib
import dataclasses
import io
import json
import subprocess
import sys

import pytest
from hypothesis import example, given, settings, strategies as st

from nanorod import bvp, charcurve, errors
from nanorod.cli import MAX_GRID_N, main
from nanorod.errors import ConvergenceError, NanorodError
from nanorod.reduction import Verdict


def run_cli(args):
    """Invoke the entry point in-process, capturing stdout."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(args)
    return code, buf.getvalue()


def test_kcr_values():
    code, out = run_cli(["kcr"])
    assert code == 0
    header, row = out.strip().splitlines()
    assert header == "kappa_cr,lambda1"
    kappa_cr, lambda1 = (float(v) for v in row.split(","))
    assert abs(kappa_cr - 0.375325) < 5e-4
    assert abs(lambda1 - 29.145) < 5e-3


def test_fold_command():
    code, out = run_cli(["fold", "--kappa", "0.45", "--seed-l1", "8.3", "--seed-l2", "1.16"])
    assert code == 0
    row = out.strip().splitlines()[1].split(",")
    assert abs(float(row[1]) - 8.29796) < 1e-3
    assert abs(float(row[2]) - 1.15665) < 1e-3


def test_curve_reproduces_caption_pairs(tmp_path):
    out_file = tmp_path / "curve.csv"
    code, _ = run_cli(["curve", "--kappa", "0.25", "--l1", "2.5:15.0:2.5",
                       "--out", str(out_file)])
    assert code == 0
    lines = out_file.read_text().strip().splitlines()
    assert lines[0] == "kappa,mode,branch,lambda1,lambda2,eta_prime"
    rows = {float(r.split(",")[3]): float(r.split(",")[4]) for r in lines[1:]}
    assert abs(rows[5.0] - 1.13541) < 1e-3
    assert abs(rows[10.0] - 0.682732) < 1e-3
    assert abs(rows[12.5] - 0.436978) < 1e-3


def test_curve_empty_range_header_only(tmp_path):
    out_file = tmp_path / "empty.csv"
    code, _ = run_cli(["curve", "--kappa", "0.25", "--l1", "200.0:210.0:5.0",
                       "--out", str(out_file)])
    assert code == 0
    lines = out_file.read_text().strip().splitlines()
    assert lines == ["kappa,mode,branch,lambda1,lambda2,eta_prime"]


def test_curve_branched_emits_fold_row(tmp_path):
    out_file = tmp_path / "branched.csv"
    code, _ = run_cli(["curve", "--kappa", "0.45", "--l1", "1.0:8.5:0.5",
                       "--out", str(out_file)])
    assert code == 0
    tags = {line.split(",")[2] for line in out_file.read_text().strip().splitlines()[1:]}
    assert {"lower", "upper", "fold"} <= tags


def test_curve_grid_through_zero_lambda1():
    # eta' at lambda1 = 0 is the 40-digit value -0.028833069917474
    code, out = run_cli(["curve", "--kappa", "0.45", "--l1", "0:1:0.5"])
    assert code == 0
    assert out.splitlines()[1] == "0.45,1,lower,0,1.16920127249,-0.0288330699175"


def test_reduce_prints_verdict():
    code, out = run_cli(["reduce", "--kappa", "0.25", "--l1", "10", "--n", "2048"])
    assert code == 0
    assert "Supercritical" in out


@pytest.mark.parametrize("command,kernel", [("reduce", "q4"), ("unfold", "q2")])
def test_kernel_option_is_gone(command, kernel, capsys):
    # reduce and unfold take the order-2 kernel only: q4's coefficients fail
    # the nonlinear imperfection law (tests/test_imperfection_law.py)
    code, out = run_cli([command, "--kappa", "0.45", "--l1", "0.05", "--which", "2",
                         "--kernel", kernel])
    err = capsys.readouterr().err
    assert code == 1 and out == ""
    assert "unrecognized arguments: --kernel" in err and err.count("\n") == 1


def test_reduce_json_meta():
    code, out = run_cli(["reduce", "--kappa", "0.25", "--l1", "10", "--format", "json"])
    assert code == 0
    assert json.loads(out)["meta"] == {"command": "reduce", "kappa": 0.25}


@pytest.mark.parametrize("which", [2, 3, 5])
def test_reduce_signs_do_not_depend_on_n(which):
    # q2 takes its sign from q2(0) = 1 + r2^2/r1^2 > 0; probed at the first
    # grid point t = 1/n instead, a high mode's q2 has already changed sign
    # at small n, flipping c11, c3, epsilon and delta
    signs = set()
    for n in ("2", "4", "4096"):
        code, out = run_cli(["reduce", "--kappa", "0.45", "--l1", "5",
                             "--which", str(which), "--n", n])
        assert code == 0
        row = out.strip().splitlines()[1].split(",")
        signs.add((float(row[2]) > 0, float(row[5]) > 0, row[9], row[10]))
    assert len(signs) == 1, signs


def test_unfold_reports_universal():
    code, out = run_cli(["unfold", "--kappa", "0.25", "--l1", "10", "--n", "2048"])
    assert code == 0
    assert "universal,True" in out


def test_postbuckle_json_meta(tmp_path):
    out_file = tmp_path / "post.json"
    code, _ = run_cli(["postbuckle", "--kappa", "0.25", "--l1", "10", "--dl1", "0.3",
                       "--n", "1024", "--format", "json", "--out", str(out_file)])
    assert code == 0
    payload = json.loads(out_file.read_text())
    assert payload["meta"]["node_count"] == 0
    assert payload["meta"]["m2_residual"] < 1e-4
    assert abs(payload["meta"]["tip_deflection"]) > 0.01
    assert payload["meta"]["path"] == "direct"
    assert 1 <= payload["meta"]["newton_iterations"] <= 4
    assert len(payload["rows"]) == 1025


def test_verify_passes_on_a_coarse_grid():
    # the operator residual is the collocation's own, so a coarse --n grid
    # cannot push it over the 1e-4 gate
    code, out = run_cli(["verify", "--n", "64"])
    assert code == 0, out
    assert "FAIL" not in out


def test_postbuckle_m2_residual_does_not_depend_on_n(tmp_path):
    out_file = tmp_path / "post.json"
    code, _ = run_cli(["postbuckle", "--kappa", "0.25", "--l1", "10", "--dl1", "0.5",
                       "--n", "8", "--format", "json", "--out", str(out_file)])
    assert code == 0
    assert json.loads(out_file.read_text())["meta"]["m2_residual"] < 1e-10


def test_byte_identical_reruns(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for path in (a, b):
        code, _ = run_cli(["mode", "--kappa", "0.25", "--l1", "10",
                           "--n", "1024", "--out", str(path)])
        assert code == 0
    assert a.read_bytes() == b.read_bytes()


def test_csv_json_numerically_identical(tmp_path):
    c, j = tmp_path / "m.csv", tmp_path / "m.json"
    run_cli(["mode", "--kappa", "0.25", "--l1", "10", "--n", "1024", "--out", str(c)])
    run_cli(["mode", "--kappa", "0.25", "--l1", "10", "--n", "1024",
             "--format", "json", "--out", str(j)])
    csv_rows = [tuple(map(float, line.split(",")))
                for line in c.read_text().strip().splitlines()[1:]]
    json_rows = [(row["t"], row["y"]) for row in json.loads(j.read_text())["rows"]]
    assert csv_rows == json_rows


def test_config_file(tmp_path):
    cfg = tmp_path / "run.cfg"
    out_file = tmp_path / "cfg.json"
    cfg.write_text(f"n = 1024\nformat = json\nout = {out_file}\n")
    code, _ = run_cli(["--config", str(cfg), "mode", "--kappa", "0.25", "--l1", "10"])
    assert code == 0
    assert json.loads(out_file.read_text())["meta"]["command"] == "mode"


@pytest.mark.parametrize("cfg_text, option, first_line, rows", [
    ("n = 1024\n", [], "t,y", 1025),                       # unset: the file's value
    ("n = 1024\n", ["--n", "4096"], "t,y", 4097),          # given at the default value
    ("format = json\n", ["--format", "csv"], "t,y", 4097),
], ids=["unset-n-from-file", "n-at-default", "format-at-default"])
def test_explicit_option_beats_config(tmp_path, cfg_text, option, first_line, rows):
    cfg = _write(tmp_path / "run.cfg", cfg_text)
    code, out = run_cli(["--config", cfg, "mode", "--kappa", "0.25", "--l1", "10"] + option)
    lines = out.splitlines()
    assert code == 0
    assert lines[0] == first_line and len(lines) == rows + 1


def test_mode_at_root_next_to_the_singularity(capsys):
    # lambda2 = 2.177271 lies within 0.05 of 1/kappa = 2.2222: the critical-point
    # scale is probed inside the admissible range
    code, out = run_cli(["mode", "--kappa", "0.45", "--l1", "5", "--which", "5", "--n", "256"])
    assert code == 0 and capsys.readouterr().err == ""
    assert len(out.splitlines()) == 258


@pytest.mark.parametrize("args,rows", [
    (["mode", "--kappa", "0", "--l1", "3", "--which", "3", "--n", "256"], 257),  # root 3 past lambda2 = 40
    (["curve", "--kappa", "0", "--l1", "1:3:1", "--mode", "3"], 3),
    (["curve", "--kappa", "1e-300", "--l1", "1:2:1"], 2),  # 1/kappa = 1e300 is no bound on the walk
])
def test_small_kappa_roots_past_the_old_scan_range(args, rows, capsys):
    code, out = run_cli(args)
    assert code == 0 and capsys.readouterr().err == ""
    assert len(out.splitlines()) == rows + 1


def test_postbuckle_trivial_regime_straight_table(tmp_path):
    out_file = tmp_path / "trivial.json"
    code, _ = run_cli(["postbuckle", "--kappa", "0.25", "--l1", "10", "--dl1", "-0.3",
                       "--n", "1024", "--format", "json", "--out", str(out_file)])
    assert code == 0
    payload = json.loads(out_file.read_text())
    assert payload["meta"]["tip_deflection"] == 0.0
    assert (payload["meta"]["path"], payload["meta"]["newton_iterations"]) == ("trivial", 0)
    assert all(row["y"] == 0.0 for row in payload["rows"])


def test_branch_flag_selects_upper_root():
    code, out = run_cli(["reduce", "--kappa", "0.45", "--l1", "5", "--branch", "upper",
                         "--n", "1024"])
    assert code == 0
    lambda2 = float(out.strip().splitlines()[1].split(",")[1])
    assert abs(lambda2 - 1.61161) < 1e-3


def test_usage_error_exit_code():
    code, _ = run_cli(["curve", "--kappa", "0.25"])  # missing --l1
    assert code == 1


def test_domain_error_exit_code():
    code, _ = run_cli(["mode", "--kappa", "0.25", "--l1", "300", "--n", "1024"])
    assert code == 2


@pytest.mark.parametrize("args,named", [
    (["mode", "--kappa", "-0.1", "--l1", "10"], "kappa must be nonnegative"),
    (["curve", "--kappa", "-1", "--l1", "1:2:0.5"], "kappa must be nonnegative"),
    (["mode", "--kappa", "0.25", "--l1", "0"], "lambda1 > 0"),  # DegenerateShapeError
    (["curve", "--kappa", "-1", "--l1", "2:1:0.5"], "kappa must be nonnegative"),  # empty range
    # huge finite loads: a wavenumber overflows in the scalar, complex or array residual
    (["fold", "--kappa", "0.45", "--seed-l1", "1e200", "--seed-l2", "1"], "overflows"),
    (["minimum", "--kappa", "0.45", "--seed-l1", "1e200", "--seed-l2", "1"], "overflows"),
    (["kcr", "--seed-l1", "1e200"], "overflows"),
    (["mode", "--kappa", "0.45", "--l1", "1e200"], "overflows"),
    (["curve", "--kappa", "0.45", "--l1", "1e300:1e300:1"], "overflows"),
])
@pytest.mark.filterwarnings("error")  # a numpy warning would be a second stderr line
def test_domain_error_exits_2_in_one_line(args, named, capsys):
    code, out = run_cli(args)
    err = capsys.readouterr().err
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and err.startswith("nanorod: domain error: ") and named in err


def test_convergence_error_exit_code():
    code, _ = run_cli(["fold", "--kappa", "0.25", "--seed-l1", "10.0",
                       "--seed-l2", "0.7"])
    assert code == 3


@pytest.mark.parametrize("cls", [
    cls for cls in vars(errors).values()
    if isinstance(cls, type) and issubclass(cls, NanorodError) and cls is not NanorodError
], ids=lambda cls: cls.__name__)
def test_exit_code_follows_the_base(cls, monkeypatch, capsys):
    def fail(*args):
        raise cls("boom")

    monkeypatch.setattr(charcurve, "find_kappa_cr", fail)
    code, out = run_cli(["kcr"])
    err = capsys.readouterr().err
    if issubclass(cls, ConvergenceError):
        assert code == 3 and err == "nanorod: convergence error: boom\n"
    else:
        assert code == 2 and err == "nanorod: domain error: boom\n"
    assert out == ""


def test_postbuckle_at_degenerate_point_is_domain_error(monkeypatch, capsys):
    # no amplitude law exists between the super- and subcritical cases, so
    # no branch can be seeded; the straight rod would be a wrong answer
    chain = bvp.critical_chain

    def degenerate(*args):
        yL, q, rc = chain(*args)
        return yL, q, dataclasses.replace(rc, verdict=Verdict.DEGENERATE)

    monkeypatch.setattr(bvp, "critical_chain", degenerate)
    code, out = run_cli(["postbuckle", "--kappa", "0.25", "--l1", "10", "--dl1", "0.3",
                         "--n", "256"])
    err = capsys.readouterr().err
    assert code == 2 and out == ""
    assert err == "nanorod: domain error: degenerate critical point; no seeding amplitude\n"


def test_module_invocation():
    proc = subprocess.run(
        [sys.executable, "-m", "nanorod.cli", "kcr", "--format", "json"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "kappa_cr" in proc.stdout


@pytest.mark.parametrize("args,named", [
    (["curve", "--kappa", "0.25", "--l1", "0.5:inf:0.5"], "range"),
    (["curve", "--kappa", "nan", "--l1", "0.5:8.5:0.25"], "--kappa"),
    (["kcr", "--seed-kappa", "nan"], "--seed-kappa"),
])
def test_nonfinite_input_rejected(args, named, capsys):
    code, out = run_cli(args)
    err = capsys.readouterr().err
    assert code == 1 and out == ""
    assert err.count("\n") == 1 and named in err and "finite" in err


_NO_SCIPY = (
    "import sys\n"
    "{body}\n"
    "loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
    "print(loaded, file=sys.stderr)\n"
    "sys.exit(1 if loaded else 0)\n"
)


def test_import_and_cli_load_no_scipy():
    bodies = (
        "import nanorod",
        "import runpy\n"
        "sys.argv = ['nanorod', 'kcr']\n"
        "try:\n"
        "    runpy.run_module('nanorod.cli', run_name='__main__', alter_sys=True)\n"
        "except SystemExit as exc:\n"
        "    assert exc.code == 0, exc.code",
    )
    for body in bodies:
        proc = subprocess.run([sys.executable, "-c", _NO_SCIPY.format(body=body)],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr


def _write(path, text):
    path.write_text(text)
    return str(path)


@pytest.mark.parametrize("case", [
    "config-format-xml", "config-n-not-int", "config-missing", "config-unknown-key", "config-n-too-large",
    "profile-missing", "profile-non-numeric", "profile-t-decreasing", "out-dir-missing",
])
def test_bad_file_input_exits_1_in_one_line(case, tmp_path, capsys):
    mode = ["mode", "--kappa", "0.25", "--l1", "10"]
    unfold = ["unfold", "--kappa", "0.25", "--l1", "10", "--n", "256", "--profile"]
    argv = {
        "config-format-xml": lambda: ["--config", _write(tmp_path / "a.cfg", "format = xml\n")] + mode,
        "config-n-not-int": lambda: ["--config", _write(tmp_path / "a.cfg", "n = abc\n")] + mode,
        "config-missing": lambda: ["--config", str(tmp_path / "absent.cfg")] + mode,
        "config-unknown-key": lambda: ["--config", _write(tmp_path / "a.cfg", "fromat = json\n")] + mode,
        "config-n-too-large": lambda: ["--config", _write(tmp_path / "a.cfg", f"n = {MAX_GRID_N + 2}\n")] + mode,
        "profile-missing": lambda: unfold + [str(tmp_path / "absent.csv")],
        "profile-non-numeric": lambda: unfold + [_write(tmp_path / "p.csv", "0.0,abc\n1.0,2.0\n")],
        "profile-t-decreasing": lambda: unfold + [_write(tmp_path / "p.csv", "1.0,2.0\n0.0,1.0\n")],
        "out-dir-missing": lambda: mode + ["--out", str(tmp_path / "absent" / "m.csv")],
    }[case]()
    code, out = run_cli(argv)
    err = capsys.readouterr().err
    assert code == 1 and out == ""
    assert err.count("\n") == 1 and err.startswith("nanorod: error: ")


@pytest.mark.parametrize("args", [
    ["curve", "--kappa", "0.25", "--l1", "1:2"],
    ["curve", "--kappa", "0.25", "--l1", "1:2:0"],
    ["curve", "--kappa", "0.25", "--l1", "1:2:x"],
    ["curve", "--kappa", "0.25", "--l1", "0:1e9:1e-3"],
    ["curve", "--kappa", "0.25", "--l1", "0:10000:1"],
    ["curve", "--kappa", "0.25", "--l1", "0.5:8.5:0.25", "--mode", "0"],
    ["mode", "--kappa", "0.25", "--l1", "10", "--n", "3"],
    ["mode", "--kappa", "0.25", "--l1", "10", "--which", "0"],
    ["reduce", "--kappa", "0.45", "--l1", "5", "--which", "2", "--branch", "lower"],
    ["reduce", "--kappa", "0.45", "--l1", "5", "--which", "1", "--branch", "upper"],
    ["mode", "--kappa", "0.25", "--l1", "10", "--n", str(MAX_GRID_N + 2)],  # rejected before any Grid
])
def test_malformed_option_value_is_usage_error(args, capsys):
    code, out = run_cli(args)
    err = capsys.readouterr().err
    assert code == 1 and out == ""
    assert "error" in err and err.count("\n") == 1


def test_range_point_cap_is_inclusive():
    from nanorod.cli import MAX_RANGE_POINTS, _parse_range
    assert len(_parse_range(f"0:{MAX_RANGE_POINTS - 1}:1")) == MAX_RANGE_POINTS


def test_grid_size_cap_is_inclusive():
    from nanorod.cli import _grid_size
    assert _grid_size(str(MAX_GRID_N)) == MAX_GRID_N == 65_536


FUZZ_NUMBERS = ("0", "-1", "1e-9", "0.25", "0.45", "1", "5", "10", "29", "1e200", "nan", "x")
FUZZ_CHOICES = {"--branch": ("lower", "upper", "x")}
_CRITICAL = ("--kappa", "--l1")
FUZZ_OPTIONS = {  # command: (required options, optional options)
    "curve": (("--kappa", "--l1"), ("--mode",)),
    "kcr": ((), ("--seed-kappa", "--seed-l1")),
    "fold": (("--kappa",), ("--seed-l1", "--seed-l2")),
    "minimum": (("--kappa",), ("--seed-l1", "--seed-l2")),
    "mode": (_CRITICAL, ("--which", "--branch")),
    "reduce": (_CRITICAL, ("--which", "--branch")),
    "unfold": (_CRITICAL, ("--which", "--branch")),
    "postbuckle": (_CRITICAL + ("--dl1",), ("--which", "--branch", "--dl2", "--sign")),
}


@st.composite
def fuzz_argv(draw):
    """argv from a finite grammar: a subcommand other than verify (or none),
    its required options (each left out one time in eight) and a subset of
    its optional ones, in any order, each with a drawn number (a
    start:stop:step triple for a curve's --l1, a choice or "x" for a choice
    option), and --n 64."""
    command = draw(st.sampled_from((None,) + tuple(FUZZ_OPTIONS)))
    if command is None:
        return []
    required, optional = FUZZ_OPTIONS[command]
    options = [option for option in required if draw(st.integers(0, 7))]
    options += draw(st.lists(st.sampled_from(optional), unique=True))
    number = st.sampled_from(FUZZ_NUMBERS)
    argv = [command]
    for option in draw(st.permutations(options)):
        if option in FUZZ_CHOICES:
            value = draw(st.sampled_from(FUZZ_CHOICES[option]))
        elif command == "curve" and option == "--l1":
            value = ":".join(draw(st.lists(number, min_size=1, max_size=3)))
        else:
            value = draw(number)
        argv += [option, value]
    return argv + ["--n", "64"]


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(argv=fuzz_argv())
@example(argv=[])
def test_fuzzed_argv_ends_in_one_line(argv):
    # no exception escapes main, and a numpy warning would raise (warnings are errors)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2, 3)
    if code:
        assert err.getvalue().count("\n") == 1, err.getvalue()
    else:
        assert err.getvalue() == ""
