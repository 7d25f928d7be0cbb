"""`nanorod curve` stdout on the README grid, byte for byte against files
stored from the CLI when trace_curve still refined every bracket."""
import contextlib
import io
import pathlib

import pytest

from nanorod.cli import main

DATA = pathlib.Path(__file__).parent / "data"
README_L1 = ["--l1", "0.5:8.5:0.25"]


@pytest.mark.parametrize("name,args", [
    ("curve_kappa0.45.txt", ["--kappa", "0.45"]),  # the README command
    ("curve_kappa0.25.txt", ["--kappa", "0.25"]),
    ("curve_kappa0.45_mode3.txt", ["--kappa", "0.45", "--mode", "3"]),
])
def test_curve_stdout_is_the_golden_file(name, args):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert main(["curve", *args, *README_L1]) == 0
    assert buf.getvalue().encode() == (DATA / name).read_bytes()
