import gc
import gzip
import json
import math
import os
import pathlib
import subprocess
import sys

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from optishape import cli, problems
from optishape.problems import PROBLEMS, FenceLayout
from test_mutation_matrix import ROWS, mutate  # noqa: F401  (mutate is a fixture)

DATA = pathlib.Path(__file__).parent / "data"
# solve, verify and help output saved before the problem catalog became one
# table; the table must reproduce it byte for byte.
SOLVE_GOLDEN = json.loads((DATA / "solve_golden.json").read_text())


def strict_json(text):
    """Parse JSON, rejecting the NaN and Infinity tokens json.loads allows."""
    def reject(token):
        raise ValueError(f"non-finite JSON token {token}")
    return json.loads(text, parse_constant=reject)


def run_cli(capsys, *args):
    """Run the CLI in-process; returns (exit_code, stdout, stderr).  main
    returns argparse's code for --help and usage errors too; it never raises
    SystemExit."""
    code = cli.main(list(args))
    out, err = capsys.readouterr()
    return code, out, err


class TestSolve:
    def test_fence_golden_values(self, capsys):
        code, out, _ = run_cli(
            capsys, "solve", "fence", "--fence", "2400",
            "--v-segments", "4", "--h-segments", "2",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["problem"] == "fence"
        assert doc["solution"]["x"] == 300
        assert doc["solution"]["y"] == 600
        assert doc["method"] == "closed_form"
        assert doc["residuals"]["half_split_deficit"] <= 1e-9

    def test_can_golden_values(self, capsys):
        code, out, _ = run_cli(capsys, "solve", "can", "--volume", "1000", "--base", "circle")
        assert code == 0
        doc = json.loads(out)
        assert doc["solution"]["r"] == pytest.approx(5.4192607, abs=1e-6)
        assert doc["solution"]["h"] == pytest.approx(10.8385214, abs=1e-6)
        assert doc["inputs"]["base"] == "circle"

    def test_can_polygon_base(self, capsys):
        code, out, _ = run_cli(capsys, "solve", "can", "--volume", "2", "--base", "4")
        assert code == 0
        doc = json.loads(out)
        assert doc["inputs"]["base"] == 4
        assert doc["solution"]["r"] == pytest.approx(0.6299605249474366, rel=1e-9)

    def test_can_dual(self, capsys):
        code, out, _ = run_cli(
            capsys, "solve", "can-dual", "--surface-area", "24", "--base", "4"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["solution"]["volume"] == pytest.approx(8.0, rel=1e-9)

    def test_rectangle_uses_fence_flag_for_perimeter(self, capsys):
        code, out, _ = run_cli(capsys, "solve", "rectangle", "--fence", "40")
        assert code == 0
        doc = json.loads(out)
        assert doc["inputs"]["perimeter"] == 40
        assert doc["solution"]["x"] == 10
        assert doc["solution"]["area"] == 100

    def test_box(self, capsys):
        code, out, _ = run_cli(capsys, "solve", "box", "--volume", "8")
        assert code == 0
        doc = json.loads(out)
        assert doc["solution"]["x"] == pytest.approx(2.0, rel=1e-12)
        assert doc["solution"]["surface_area"] == pytest.approx(24.0, rel=1e-12)

    def test_rect_semicircle(self, capsys):
        code, out, _ = run_cli(capsys, "solve", "rect-semicircle", "--radius", "1")
        assert code == 0
        doc = json.loads(out)
        assert doc["solution"]["x"] == pytest.approx(math.sqrt(2) / 2, rel=1e-12)

    def test_ellipse_semicircle(self, capsys):
        code, out, _ = run_cli(capsys, "solve", "ellipse-semicircle")
        assert code == 0
        doc = json.loads(out)
        assert doc["method"] == "closed_form"
        assert doc["solution"]["a"] == pytest.approx(0.8164966, abs=1e-6)
        assert doc["solution"]["b"] == pytest.approx(0.4714045, abs=1e-6)
        contacts = doc["solution"]["contacts"]
        assert len(contacts) == 2
        assert contacts[1]["x"] == pytest.approx(0.7071068, abs=1e-6)
        assert all(v <= 1e-6 for v in doc["residuals"].values())

    @pytest.mark.parametrize("radius", ["1e-200", "1e-320"])
    def test_ellipse_at_tiny_radius(self, capsys, radius):
        code, out, _ = run_cli(capsys, "solve", "ellipse-semicircle", "--radius", radius)
        assert code == 0
        doc = strict_json(out)
        assert doc["solution"]["a"] == pytest.approx(0.8164966 * float(radius), rel=1e-6)
        assert all(v <= 1e-6 for v in doc["residuals"].values())

    # The solve residuals take their worst by verify's rule, so a NaN in a
    # numeric solution fails the run; JSON prints it as null.
    @pytest.mark.parametrize(
        "solver, argv",
        [
            ("solve_box_numeric", ("solve", "box", "--volume", "1000")),
            ("solve_fence_numeric", ("solve", "fence", "--fence", "2400")),
        ],
        ids=["box", "fence"],
    )
    def test_nan_in_numeric_solution_fails_as_null(self, capsys, monkeypatch, solver, argv):
        numeric = getattr(problems, solver)
        monkeypatch.setattr(problems, solver, lambda *args: numeric(*args)._replace(y=math.nan))
        code, out, _ = run_cli(capsys, *argv)
        doc = strict_json(out)
        assert doc["residuals"]["closed_numeric_gap"] is None
        assert doc["diagnostic"].endswith(": closed_numeric_gap")
        assert code == 1


def fits_in_float(n):
    try:
        float(n)
    except OverflowError:
        return False
    return True


def integer_flag(minimum):
    """Counts from ``minimum`` to int(sys.float_info.max), log-uniform, and
    one draw in ten past the float range, up to 4300 digits."""
    fits = st.floats(math.log2(minimum), 1024.0, exclude_max=True).map(
        lambda e: max(minimum, int(2.0**e)))
    past = st.integers(int(sys.float_info.max) + 1, 10**4300 - 1)
    return st.integers(0, 9).flatmap(lambda k: past if k == 0 else fits)


class TestExtremeScales:
    """Inputs near the ends of the float range: a verified answer with strict
    JSON, or exit 3 with the field that does not fit printed as null."""

    @pytest.mark.parametrize(
        "argv",
        [
            ("solve", "rectangle", "--fence", "1e-320"),
            ("solve", "rectangle", "--fence", "5e-324"),
            ("solve", "rectangle", "--fence", "3e-323"),  # x: 1.5 steps of 5e-324
            ("solve", "fence", "--fence", "5e-324", "--v-segments", "50", "--h-segments", "50"),
            ("solve", "fence", "--fence", "1e-320"),
            ("solve", "rect-semicircle", "--radius", "1e-320"),
            ("solve", "fence", "--fence", "9.8e-176", "--v-segments", "11", "--h-segments", "40"),
            ("solve", "can", "--volume", "1e308", "--base", "7"),
            ("solve", "can", "--volume", "5e-324"),
            ("solve", "can-dual", "--surface-area", "5e-324"),
            # both counts huge: the fence's unit area would underflow
            ("solve", "fence", "--fence", "1", "--v-segments", str(10**160),
             "--h-segments", str(10**160)),
            ("solve", "fence", "--fence", "1", "--v-segments", str(10**200),
             "--h-segments", str(10**200)),
            ("solve", "fence", "--fence", "1e308", "--v-segments", str(int(sys.float_info.max)),
             "--h-segments", str(int(sys.float_info.max))),
        ],
        ids=lambda argv: " ".join(a if len(a) < 20 else f"<{len(a)} digits>" for a in argv[1:]),
    )
    def test_verified_answer(self, capsys, argv):
        code, out, _ = run_cli(capsys, *argv)
        doc = strict_json(out)
        assert code == 0, doc.get("diagnostic")
        assert "diagnostic" not in doc
        assert all(math.isfinite(v) for v in doc["solution"].values())
        assert all(v <= 1e-6 for v in doc["residuals"].values())

    # Too small for the answer's digits, and still an answer: the 2x2 fence
    # at 1.5e-323 (three steps of 5e-324) rounds x up to one step and y down
    # to 0, each within one step of the exact 3/4 step, and both residuals
    # read 0.
    def test_subnormal_fence_rounds_y_to_zero(self, capsys):
        code, out, err = run_cli(capsys, "solve", "fence", "--fence", "1.5e-323",
                                 "--v-segments", "2", "--h-segments", "2")
        step = math.ulp(0.0)
        assert (code, err) == (0, "")
        assert strict_json(out) == {
            "problem": "fence",
            "inputs": {"fence": 3 * step, "v_segments": 2, "h_segments": 2},
            "solution": {"x": step, "y": 0, "vertical_total": 2 * step,
                         "horizontal_total": step, "area": 0},
            "method": "closed_form",
            "residuals": {"half_split_deficit": 0, "closed_numeric_gap": 0},
        }

    def test_overflowing_solution_field_is_null(self, capsys):
        code, out, _ = run_cli(capsys, "solve", "rectangle", "--fence", "1e308")
        doc = strict_json(out)
        assert doc["solution"] == {"x": 2.5e307, "y": 2.5e307, "area": None}
        assert doc["diagnostic"] == "the answer does not fit in a float: area"
        assert all(v <= 1e-6 for v in doc["residuals"].values())
        assert code == 3

    # An overflow does not hide a failed check: a wrong closed form at a scale
    # whose area overflows exits 1, and the diagnostic names both.
    def test_failed_check_outranks_overflow(self, capsys, monkeypatch):
        monkeypatch.setattr(problems, "solve_fence", lambda fence, layout:
                            problems._fence_solution(fence, layout, fence / 3.0))
        code, out, _ = run_cli(capsys, "solve", "fence", "--fence", "1e308")
        doc = strict_json(out)
        assert doc["solution"]["area"] is None
        assert doc["diagnostic"] == (
            "residuals exceed tolerance 9.9999999999999995e-07: "
            "closed_numeric_gap, half_split_deficit; "
            "the answer does not fit in a float: area")
        assert code == 1

    # Every input the CLI accepts gives a verified answer or exit 3, and
    # strict JSON either way; a count that does not fit in a float exits 2,
    # refused by the record that holds it.
    @given(
        kind=st.sampled_from([*PROBLEMS, "curve"]),
        exponent=st.floats(min_value=-323.3, max_value=308.25),
        v=integer_flag(2),
        h=integer_flag(2),
        base=st.one_of(st.just("circle"), integer_flag(3)),
        points=st.integers(2, 50),
    )
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_any_scale_gives_an_answer_or_exit_3(self, capsys, kind, exponent, v, h, base, points):
        name = "fence" if kind == "curve" else kind
        argv = ["curve", "fence", "--points", str(points)] if kind == "curve" else ["solve", kind]
        counts = {"--v-segments": v, "--h-segments": h, "--base": base}
        for spec in PROBLEMS[name].inputs:
            argv += [spec.flag, str(counts.get(spec.flag, repr(10.0 ** exponent)))]
        code, out, err = run_cli(capsys, *argv)
        oversized = [spec.flag for spec in PROBLEMS[name].inputs
                     if isinstance(counts.get(spec.flag), int) and not fits_in_float(counts[spec.flag])]
        if oversized:  # the record names the first count it refuses
            field = {"--v-segments": "v_segments", "--h-segments": "h_segments",
                     "--base": "sides"}[oversized[0]]
            assert (code, out) == (2, "") and f"error: {field} does not fit in a float" in err
            assert "Traceback" not in err
            return
        assert code in (0, 3), (argv, out, err)
        if kind == "curve" and code == 0:
            rows = [line.split(",") for line in out.splitlines()[1:]]
            assert all(math.isfinite(float(x)) for row in rows for x in row)
            return
        doc = strict_json(out)
        if code == 3:
            assert doc["diagnostic"].startswith("the answer does not fit in a float")
        elif kind != "curve":
            assert all(r <= 1e-6 for r in doc["residuals"].values()), argv

    # Rows stubbed out: the CLI hands every count up to the cap to the curve.
    @given(n=st.integers(2, cli.MAX_CURVE_POINTS))
    @example(n=2)
    @example(n=cli.MAX_CURVE_POINTS)
    @settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_every_curve_point_count_up_to_the_cap_parses(self, capsys, monkeypatch, n):
        counts = []
        monkeypatch.setattr(problems, "fence_area_curve",
                            lambda fence, layout, points: counts.append(points) or [])
        code, out, _ = run_cli(capsys, "curve", "fence", "--fence", "1", "--points", str(n))
        assert (code, out, counts) == (0, "L,area\n", [n])

    def test_overflowing_curve_writes_no_csv(self, capsys):
        code, out, _ = run_cli(capsys, "curve", "fence", "--fence", "1e308")
        assert strict_json(out) == {
            "problem": "curve", "diagnostic": "the answer does not fit in a float: area at row 1",
        }
        assert code == 3


class TestGolden:
    @pytest.mark.parametrize(
        "case", SOLVE_GOLDEN, ids=lambda case: "_".join(case["argv"])
    )
    def test_output_matches_golden(self, capsys, monkeypatch, case):
        monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help to this width
        code, out, _ = run_cli(capsys, *case["argv"])
        assert code == case["exit"]
        assert out == case["stdout"]


class TestJsonContract:
    @pytest.mark.parametrize(
        "argv",
        [
            ("solve", "fence", "--fence", "2400"),
            ("solve", "can", "--volume", "1000"),
            ("solve", "ellipse-semicircle"),
            ("verify",),
            # every other problem, its required inputs set to 7.5
            *(
                ("solve", name, *(arg for spec in problem.inputs if spec.default is None
                                  for arg in (spec.flag, "7.5")))
                for name, problem in PROBLEMS.items()
                if name not in ("fence", "can", "ellipse-semicircle")
            ),
        ],
    )
    def test_round_trip_is_byte_identical(self, capsys, argv):
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        doc = json.loads(out)
        assert cli.dumps(doc) + "\n" == out

    # A solve report holds no timing, so the same argv prints the same bytes.
    def test_same_argv_prints_the_same_bytes(self, capsys):
        argv = ("solve", "box", "--volume", "1000")
        first = run_cli(capsys, *argv)
        assert first[0] == 0
        assert run_cli(capsys, *argv) == first

    def test_empty_containers_and_unknown_types(self):
        assert cli.dumps({}) == "{}"
        assert cli.dumps([]) == "[]"
        with pytest.raises(TypeError, match="cannot serialize object"):
            cli.dumps(object())

    def test_seventeen_significant_digits(self):
        assert cli.format_number(math.pi) == "3.1415926535897931"
        assert cli.format_number(300.0) == "300"
        assert cli.format_number(-0.0) == "0"
        assert float(cli.format_number(0.1 + 0.2)) == 0.1 + 0.2


class TestCurve:
    def test_three_point_curve_bytes(self, capsys):
        code, out, _ = run_cli(
            capsys, "curve", "fence", "--fence", "2400",
            "--v-segments", "4", "--h-segments", "2", "--points", "3",
        )
        assert code == 0
        assert out == "L,area\n0,0\n1200,180000\n2400,0\n"

    def test_five_point_curve_has_quarter_row(self, capsys):
        code, out, _ = run_cli(
            capsys, "curve", "fence", "--fence", "2400", "--points", "5",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "L,area"
        assert lines[1] == "0,0"
        assert lines[2] == "600,135000"
        assert lines[-1] == "2400,0"

    def test_endpoints_always_zero(self, capsys):
        code, out, _ = run_cli(capsys, "curve", "fence", "--fence", "977.5", "--points", "11")
        assert code == 0
        rows = out.splitlines()[1:]
        assert rows[0].endswith(",0")
        assert rows[-1].endswith(",0")

    # Golden CSVs saved from the numpy.linspace implementation; the second
    # case has a step that underflows to zero.
    @pytest.mark.parametrize(
        "fence, points, golden",
        [
            ("2400", "101", "curve_fence_2400_points_101.csv"),
            ("1e-320", "10001", "curve_fence_1e-320_points_10001.csv.gz"),
        ],
    )
    def test_matches_golden_csv(self, capsys, fence, points, golden):
        code, out, _ = run_cli(capsys, "curve", "fence", "--fence", fence, "--points", points)
        assert code == 0
        path = DATA / golden
        expected = gzip.open(path, "rt") if path.suffix == ".gz" else open(path)
        with expected:
            assert out == expected.read()

    # Each row prints with one CSV_ROW format and the bytes of format_number.
    # Every L lies in [0, fence], subnormal steps included, so no area is
    # -0.0.  A fence whose area overflows exits 3 and writes no CSV.
    @given(
        fence=st.one_of(st.floats(min_value=5e-324, max_value=sys.float_info.max),
                        st.integers(1, 2**20).map(lambda k: k * 5e-324)),
        points=st.integers(2, 300),
        v=integer_flag(2).filter(fits_in_float),
        h=integer_flag(2).filter(fits_in_float),
    )
    @example(fence=5e-324, points=300, v=2, h=2)
    @example(fence=1e-320, points=300, v=3, h=7)  # its steps are subnormal
    @example(fence=sys.float_info.max, points=3, v=2, h=2)
    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_rows_print_as_format_number(self, capsys, fence, points, v, h):
        rows = problems.fence_area_curve(fence, FenceLayout(v, h), points)
        code, out, err = run_cli(capsys, "curve", "fence", "--fence", repr(fence),
                                 "--v-segments", str(v), "--h-segments", str(h),
                                 "--points", str(points))
        assert err == ""
        if not all(math.isfinite(area) for _, area in rows):
            assert code == 3
            assert strict_json(out)["diagnostic"].startswith("the answer does not fit in a float")
            return
        assert code == 0
        for L, area in rows:
            assert math.copysign(1.0, L) == 1.0 and L <= fence
            assert math.copysign(1.0, area) == 1.0
        assert out.splitlines() == ["L,area"] + [
            f"{cli.format_number(L)},{cli.format_number(area)}" for L, area in rows]


class TestWriteErrors:
    """Every command writes through one path: a closed stdout pipe exits 4
    with nothing on stderr, and any other write error exits 4 with one
    message, whether or not Python buffers stdout."""

    ARGVS = [
        ("solve", "box", "--volume", "1"),
        ("verify", "--format", "json"),
        ("curve", "fence", "--fence", "2400", "--points", "10"),
        # far more than a pipe or stdout buffer holds: the write fails mid-command
        ("curve", "fence", "--fence", "2400", "--points", "100000"),
    ]

    @staticmethod
    def run(argv, stdout, unbuffered):
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        return subprocess.run([sys.executable, "-m", "optishape", *argv], stdout=stdout,
                              stderr=subprocess.PIPE, text=True, env=env, timeout=120)

    @pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
    @pytest.mark.parametrize("argv", ARGVS, ids=lambda argv: " ".join(argv[:2]) + f" {argv[-1]}")
    def test_closed_pipe_exits_4_quietly(self, argv, unbuffered):
        proc = self.into_closed_pipe(argv, unbuffered)
        assert (proc.returncode, proc.stderr) == (4, "")

    @classmethod
    def into_closed_pipe(cls, argv, unbuffered):
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            return cls.run(argv, write_end, unbuffered)
        finally:
            os.close(write_end)

    needs_dev_full = pytest.mark.skipif(not os.path.exists("/dev/full"),
                                        reason="the platform has no /dev/full")

    @needs_dev_full
    @pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
    @pytest.mark.parametrize("argv", ARGVS, ids=lambda argv: " ".join(argv[:2]) + f" {argv[-1]}")
    def test_full_device_exits_4(self, argv, unbuffered):
        with open("/dev/full", "w") as full:
            proc = self.run(argv, full, unbuffered)
        assert proc.returncode == 4
        assert proc.stderr == "error: cannot write: [Errno 28] No space left on device\n"

    # --help takes the same path: the parser writes stdout's messages itself,
    # so that argparse (from Python 3.11) cannot discard their write error.
    HELP_ARGVS = [("solve", "box", "--help"), ("--help",)]

    @pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
    @pytest.mark.parametrize("argv", HELP_ARGVS, ids=" ".join)
    def test_help_into_a_closed_pipe(self, argv, unbuffered):
        proc = self.into_closed_pipe(argv, unbuffered)
        assert (proc.returncode, proc.stderr) == (4, "")

    @needs_dev_full
    @pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
    @pytest.mark.parametrize("argv", HELP_ARGVS, ids=" ".join)
    def test_help_into_a_full_device(self, argv, unbuffered):
        with open("/dev/full", "w") as full:
            proc = self.run(argv, full, unbuffered)
        assert (proc.returncode, proc.stderr) == (
            4, "error: cannot write: [Errno 28] No space left on device\n")


class TestEllipseCrossCheck:
    """The closed form and the frontier search check each other: shifting
    either one's b by 1e-5 fails the checks that read it."""

    @staticmethod
    def shift_b(monkeypatch, solver):
        solve = getattr(problems, solver)

        def shifted(radius=1.0):
            sol = solve(radius)
            return sol._replace(b=sol.b + 1e-5 * radius)
        monkeypatch.setattr(problems, solver, shifted)

    # The shifted ellipse pokes out of the arc; the oracle suite reads b's
    # shift itself.
    def test_coincidence_reads_the_numeric_path(self, capsys, monkeypatch):
        self.shift_b(monkeypatch, "solve_ellipse_semicircle_numeric")
        code, out, _ = run_cli(capsys, "verify", "--format", "text")
        assert "[FAIL] coincidence: ellipses_are_tangent" in out
        assert code == 1
        code, out, _ = run_cli(capsys, "verify")
        checks = {c["name"]: c for c in strict_json(out)["checks"]}
        assert checks["closed_matches_numeric_all_problems"]["passed"] is False
        assert code == 1

    def test_solve_fails_a_wrong_closed_form(self, capsys, monkeypatch):
        self.shift_b(monkeypatch, "solve_ellipse_semicircle")
        code, out, _ = run_cli(capsys, "solve", "ellipse-semicircle")
        doc = strict_json(out)
        assert doc["residuals"]["closed_numeric_gap"] == pytest.approx(1e-5, rel=1e-3)
        assert "closed_numeric_gap" in doc["diagnostic"]
        assert code == 1
        # coincidence reads only the closed form's tangency; the oracle suite
        # reads its b
        code, out, _ = run_cli(capsys, "verify")
        checks = strict_json(out)["checks"]
        assert [c["name"] for c in checks
                if c["suite"] == "coincidence" and not c["passed"]] == ["ellipses_are_tangent"]
        assert {c["name"]: c for c in checks}[
            "closed_matches_numeric_all_problems"]["passed"] is False
        assert code == 1


class TestEllipseAtRadius:
    """rescale_gap checks the answer at the radius asked for, which the other
    ellipse residuals, taken on the unit solutions, cannot see."""

    @pytest.mark.parametrize("radius, exit_code", [
        ("5e-324", 0), ("1e-320", 0), ("1e-200", 0), ("3.7", 0), ("1e200", 3), ("1e308", 3),
    ])
    def test_every_radius_exits_0_or_3(self, capsys, radius, exit_code):
        code, out, _ = run_cli(capsys, "solve", "ellipse-semicircle", "--radius", radius)
        doc = strict_json(out)
        assert code == exit_code, doc.get("diagnostic")
        assert doc["residuals"]["rescale_gap"] <= 1e-6

    # Both solvers rescale through rescale_ellipse, so a wrong degree there
    # leaves the closed-vs-numeric gap at 0.
    def test_area_scaled_by_the_wrong_degree_fails(self, capsys, monkeypatch):
        rescale = problems.rescale_ellipse
        monkeypatch.setattr(problems, "rescale_ellipse", lambda unit, radius:
                            rescale(unit, radius)._replace(area=unit.area * radius))
        code, out, _ = run_cli(capsys, "solve", "ellipse-semicircle", "--radius", "3.7")
        doc = strict_json(out)
        assert doc["residuals"]["rescale_gap"] > 0.5
        assert doc["diagnostic"].endswith(": rescale_gap")
        assert code == 1


class TestFenceCrossCheck:
    """`solve` and the `verify` oracle suite take the fence's closed-vs-numeric
    gap from one Problem.solve: moving the numeric y by 1e-5 fails both."""

    @pytest.fixture(autouse=True)
    def shift_y(self, monkeypatch):
        numeric = problems.solve_fence_numeric

        def shifted(fence, layout):
            sol = numeric(fence, layout)
            return sol._replace(y=sol.y * (1.0 + 1e-5))
        monkeypatch.setattr(problems, "solve_fence_numeric", shifted)

    def test_solve_fails(self, capsys):
        code, out, _ = run_cli(capsys, "solve", "fence", "--fence", "2400")
        doc = strict_json(out)
        assert doc["residuals"]["closed_numeric_gap"] == pytest.approx(1e-5, rel=1e-3)
        assert code == 1

    def test_verify_fails(self, capsys):
        code, out, _ = run_cli(capsys, "verify")
        failed = [c["name"] for c in strict_json(out)["checks"] if not c["passed"]]
        assert failed == ["closed_matches_numeric_all_problems"]
        assert code == 1


class TestVerifyCommand:
    def test_text_format(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--format", "text")
        assert code == 0
        assert "[PASS] h2r: h_equals_2r_numeric" in out
        assert "0 failed" in out

    def test_json_format(self, capsys):
        code, out, _ = run_cli(capsys, "verify")
        assert code == 0
        doc = json.loads(out)
        assert doc["passed"] is True
        assert all(check["passed"] for check in doc["checks"])

    # A ValueError raised inside a suite is a fault of the program, not of
    # its input: exit 1, its message on stderr and no report.  The fault is
    # the mutation matrix's row whose run raises.
    @pytest.mark.parametrize("argv", [
        ("verify",), ("verify", "--format", "text"),
    ], ids=["json", "text"])
    def test_value_error_inside_a_suite_exits_1(self, capsys, mutate, argv):
        entry = next(r for r in ROWS if r.name == "ellipse contacts taken with a and b swapped")
        mutate(entry.wraps)
        assert run_cli(capsys, *argv) == (1, "", f"error: {entry.fails}\n")

    # So is any other exception: a suite that divides by zero exits 1 the
    # same way, not with a traceback.
    @pytest.mark.parametrize("argv", [
        ("verify",), ("verify", "--format", "text"),
    ], ids=["json", "text"])
    def test_any_error_inside_a_suite_exits_1(self, capsys, monkeypatch, argv):
        from optishape import verify

        monkeypatch.setitem(verify.SUITES, "duality", lambda: 1 / 0)
        assert run_cli(capsys, *argv) == (1, "", "error: division by zero\n")

    # Every sweep check takes the worst residual by one rule: a NaN anywhere
    # fails the check, and an empty sweep reads inf.
    def test_nan_residual_fails_its_check(self, capsys, monkeypatch):
        solve_can = problems.solve_can
        monkeypatch.setattr(problems, "solve_can",
                            lambda *args: solve_can(*args)._replace(h=math.nan))
        code, out, _ = run_cli(capsys, "verify", "--format", "text")
        assert "[FAIL] h2r: h_equals_2r_closed  worst=nan" in out
        assert code == 1
        code, out, _ = run_cli(capsys, "verify")
        check = {c["name"]: c for c in strict_json(out)["checks"]}["h_equals_2r_closed"]
        assert check["residual"] is None and check["passed"] is False
        assert code == 1

    def test_missing_contacts_read_inf_and_stay_strict_json(self, capsys, monkeypatch):
        unit = problems.solve_ellipse_semicircle_numeric()
        monkeypatch.setattr(problems, "solve_ellipse_semicircle_numeric",
                            lambda radius=1.0: unit._replace(contacts=()))
        code, out, _ = run_cli(capsys, "verify", "--format", "text")
        assert "[FAIL] coincidence: contacts_on_circle  worst=inf" in out
        assert code == 1
        code, out, _ = run_cli(capsys, "verify")
        checks = {c["name"]: c for c in strict_json(out)["checks"]}
        for name in ("contacts_match_rectangle_vertices", "contacts_on_circle"):
            assert checks[name]["residual"] is None and checks[name]["passed"] is False
        assert code == 1


# Flag values by parser ("points" for curve's --points), out of range and
# in range.
REFUSED = {
    float: st.one_of(st.floats(max_value=0.0).map(repr),
                     st.sampled_from(["nan", "inf", "1e400", "-1e400"])),
    int: st.integers(max_value=1).map(str),
    problems.base: st.integers(max_value=2).map(str),
    "points": st.one_of(st.integers(max_value=1),
                        st.integers(min_value=cli.MAX_CURVE_POINTS + 1)).map(str),
}
ACCEPTED = {
    float: st.floats(1e-300, 1e300).map(repr),
    int: st.integers(2, 50).map(str),
    problems.base: st.sampled_from(["circle", "3", "12"]),
    "points": st.integers(2, 50).map(str),
}


class TestExitCodes:
    # One value out of range, whichever flag holds it, is refused when the
    # command runs, by the library's own check or curve's cap: exit 2, one
    # line on stderr, nothing on stdout.  Each value goes in both as
    # `--flag=value` and as `--flag value`, where argparse would read a
    # value such as `-1e-05` or `-inf` as a flag of its own.
    @given(kind=st.sampled_from([*PROBLEMS, "curve"]), data=st.data())
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_any_refused_value_exits_2(self, capsys, kind, data):
        flags = [(spec.flag, spec.type)
                 for spec in PROBLEMS["fence" if kind == "curve" else kind].inputs]
        argv = ["solve", kind]
        if kind == "curve":
            argv, flags = ["curve", "fence"], flags + [("--points", "points")]
        refused = data.draw(st.sampled_from([flag for flag, _ in flags]))
        values = [(flag, data.draw((REFUSED if flag == refused else ACCEPTED)[parser]))
                  for flag, parser in flags]
        for args in ([f"{flag}={value}" for flag, value in values],
                     [arg for pair in values for arg in pair]):
            code, out, err = run_cli(capsys, *argv, *args)
            assert (code, out) == (2, ""), argv + args
            assert err.startswith("error: ") and err.count("\n") == 1, err

    # argparse runs a string default through the flag's parser, so a flag
    # left out and one given its default's text print the same report.
    @pytest.mark.parametrize("name, spec", [
        (name, spec) for name, problem in PROBLEMS.items()
        for spec in problem.inputs if spec.default is not None
    ], ids=lambda x: x if isinstance(x, str) else x.flag[2:])
    def test_default_and_its_text_print_the_same_bytes(self, capsys, name, spec):
        argv = ["solve", name, *(arg for s in PROBLEMS[name].inputs if s.default is None
                                 for arg in (s.flag, "7.5"))]
        text = spec.default if isinstance(spec.default, str) else cli.format_number(spec.default)
        left_out = run_cli(capsys, *argv)
        assert left_out[0] == 0
        assert run_cli(capsys, *argv, spec.flag, text) == left_out

    def test_missing_required_flag(self, capsys):
        code, _, _ = run_cli(capsys, "solve", "can")
        assert code == 2

    def test_nonpositive_value(self, capsys):
        code, _, _ = run_cli(capsys, "solve", "can", "--volume", "-5")
        assert code == 2

    def test_bad_base(self, capsys):
        code, _, _ = run_cli(capsys, "solve", "can", "--volume", "1", "--base", "2")
        assert code == 2

    # A value that starts like a negative number, inf or nan reaches the
    # library's check as a value, not argparse's "expected one argument".
    @pytest.mark.parametrize("problem, flag, value, message", [
        ("box", "--volume", "-1e-5", "volume must be positive and finite, got -1e-05"),
        ("box", "--volume", "-inf", "volume must be positive and finite, got -inf"),
        ("box", "--volume", "-nan", "volume must be positive and finite, got nan"),
        ("rect-semicircle", "--radius", "-1E3", "radius must be positive and finite, got -1000.0"),
        ("can-dual", "--surface-area", "-.5e1",
         "surface area must be positive and finite, got -5.0"),
    ])
    def test_negative_number_text_is_a_value(self, capsys, problem, flag, value, message):
        assert run_cli(capsys, "solve", problem, flag, value) == (2, "", f"error: {message}\n")

    # Text that only looks like a flag stays a flag, and plain inputs parse
    # as before.
    @pytest.mark.parametrize("argv, code", [
        (("solve", "box", "--volume", "1e-5"), 0),
        (("solve", "can", "--volume", "2", "--base", " 6 "), 0),
        (("solve", "box", "-h"), 0),
        (("solve", "box", "--volume", "-x"), 2),
    ])
    def test_flags_and_plain_values_parse_as_before(self, capsys, argv, code):
        assert run_cli(capsys, *argv)[0] == code

    # Every check runs at its own fixed tolerance: no flag overrides it.
    @pytest.mark.parametrize("argv", [
        ("solve", "box", "--volume", "1000", "--tol", "1e-9"),
        ("verify", "--tol", "1e-7"),
    ], ids=["solve", "verify"])
    def test_tol_is_not_an_option(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert "unrecognized arguments: --tol" in err

    # verify runs every suite, and curve writes to stdout only: neither
    # takes a flag to narrow or redirect it, and neither writes a file.
    @pytest.mark.parametrize("argv", [
        ("verify", "--suite", "h2r"),
        ("curve", "fence", "--fence", "2400", "--out", "c.csv"),
    ], ids=["verify-suite", "curve-out"])
    def test_removed_option_is_refused(self, capsys, monkeypatch, tmp_path, argv):
        monkeypatch.chdir(tmp_path)
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert f"unrecognized arguments: {' '.join(argv[-2:])}" in err
        assert list(tmp_path.iterdir()) == []

    # solve prints JSON only; verify keeps --format for its text lines.
    @pytest.mark.parametrize("fmt", ["json", "text"])
    def test_format_is_not_a_solve_option(self, capsys, fmt):
        code, out, err = run_cli(capsys, "solve", "box", "--volume", "1000", "--format", fmt)
        assert code == 2
        assert out == ""
        assert f"unrecognized arguments: --format {fmt}" in err

    # Text that does not parse is refused by argparse, which names the flag;
    # a value out of range by the library's own check, which names the
    # value.  Neither prints a traceback.
    @pytest.mark.parametrize(
        "argv, message",
        [
            (("solve", "can", "--volume", "abc"), "argument --volume: invalid float value: 'abc'"),
            (("solve", "fence", "--fence", "1", "--v-segments", "2.5"),
             "argument --v-segments: invalid int value: '2.5'"),
            (("solve", "fence", "--fence", "1", "--v-segments", "1"),
             "error: a closed rectangle needs at least 2 runs in each direction, got v=1, h=2"),
            (("solve", "can", "--volume", "1", "--base", "square"),
             "argument --base: invalid base value: 'square'"),
        ],
        ids=["not a number", "not an integer", "one segment", "named base"],
    )
    def test_flag_checker_messages(self, capsys, argv, message):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert message in err
        assert "Traceback" not in err

    # A count that does not fit in a float is refused by the record that
    # holds it, with the field named, instead of overflowing in a solver; a
    # point count by the cap first.  One with more digits than int()
    # converts is refused while parsing, with the flag named.
    @pytest.mark.parametrize(
        "argv, reason",
        [
            (("solve", "fence", "--fence", "1", "--v-segments", str(10**400)),
             "error: v_segments does not fit in a float: 1329 bits"),
            (("solve", "fence", "--fence", "1", "--h-segments", str(-10**400)),
             "error: h_segments does not fit in a float: 1329 bits"),
            (("solve", "can", "--volume", "1", "--base", str(10**400)),
             "error: sides does not fit in a float: 1329 bits"),
            (("solve", "can-dual", "--surface-area", "1", "--base", str(10**400)),
             "error: sides does not fit in a float: 1329 bits"),
            (("curve", "fence", "--fence", "1", "--h-segments", str(10**400)),
             "error: h_segments does not fit in a float: 1329 bits"),
            (("curve", "fence", "--fence", "1", "--points", str(10**400)),
             "error: points must be at most 1000000, got 1000"),
            (("solve", "fence", "--fence", "1", "--v-segments", "9" * 5000),
             "argument --v-segments: invalid int value: '9999"),
            (("solve", "can", "--volume", "1", "--base", "9" * 5000),
             "argument --base: invalid base value: '9999"),
        ],
        ids=["fence --v-segments", "fence --h-segments negative", "can --base", "can-dual --base",
             "curve --h-segments", "curve --points", "fence --v-segments 5000 digits",
             "can --base 5000 digits"],
    )
    def test_count_past_the_float_range(self, capsys, argv, reason):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert reason in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv", [
        ("solve", "can", "--volume", "1", "--base", str(int(sys.float_info.max))),
        ("solve", "fence", "--fence", "1", "--v-segments", str(int(sys.float_info.max))),
        ("curve", "fence", "--fence", "1", "--h-segments", str(int(sys.float_info.max))),
    ], ids=["can --base", "fence --v-segments", "curve --h-segments"])
    def test_largest_count_that_fits_in_a_float(self, capsys, argv):
        code, _, err = run_cli(capsys, *argv)
        assert code == 0, err

    def test_too_few_curve_points(self, capsys):
        code, _, err = run_cli(capsys, "curve", "fence", "--fence", "10", "--points", "1")
        assert code == 2
        assert "error" in err

    # `curve` builds every row before it writes one, so the count is capped.
    @pytest.mark.parametrize("points, message", [
        (str(cli.MAX_CURVE_POINTS + 1), "error: points must be at most 1000000, got 1000001"),
        ("1", "error: need at least 2 points, got 1"),
    ], ids=["cap+1", "1"])
    def test_curve_points_out_of_range(self, capsys, points, message):
        code, out, err = run_cli(capsys, "curve", "fence", "--fence", "1", "--points", points)
        assert code == 2
        assert out == ""
        assert message in err
        assert "Traceback" not in err

    # The cap is read when the command runs, so a small one can stand in.
    def test_curve_points_cap_is_accepted(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "MAX_CURVE_POINTS", 5)
        for points, rows in (("2", 2), ("5", 5)):
            code, out, _ = run_cli(capsys, "curve", "fence", "--fence", "1", "--points", points)
            assert (code, len(out.splitlines())) == (0, 1 + rows)
        code, out, err = run_cli(capsys, "curve", "fence", "--fence", "1", "--points", "6")
        assert (code, out) == (2, "")
        assert "error: points must be at most 5, got 6" in err

    # A ValueError that solve or curve raises is the library refusing
    # an input, a usage error: its message on stderr, no report and no
    # traceback.  One raised inside a verify suite exits 1 (TestVerifyCommand).
    def test_value_error_maps_to_2(self, capsys, monkeypatch):
        def raiser(*args):
            raise ValueError("boom")
        monkeypatch.setattr("optishape.problems.solve_rectangle", raiser)
        code, out, err = run_cli(capsys, "solve", "rectangle", "--fence", "4")
        assert code == 2
        assert out == ""
        assert err == "error: boom\n"


def cli_doc_lines(doc):
    """The command lines of the doc's `## CLI` block, each without its
    `optishape` prefix, `# comment` and `> file`."""
    text = (pathlib.Path(__file__).parent.parent / doc).read_text()
    block = text.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [line.split("#", 1)[0].split(">", 1)[0].split() for line in block.splitlines()]
    assert all(words[0] == "optishape" for words in lines if words)
    return [tuple(words[1:]) for words in lines if words]


CLI_DOC_LINES = [(doc, argv) for doc in ("README.md", "PAPER.md") for argv in cli_doc_lines(doc)]


# Every command README and PAPER show runs: a flag that is gone cannot stay
# in either doc.
@pytest.mark.parametrize("doc, argv", CLI_DOC_LINES,
                         ids=[f"{doc}: {' '.join(argv)}" for doc, argv in CLI_DOC_LINES])
def test_cli_doc_line_exits_0(capsys, doc, argv):
    code, _, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "")


class TestRuntimeDependencies:
    RUN_CLI = (
        "import runpy, sys\n"
        "sys.argv = ['optishape', *sys.argv[1:]]\n"
        "try:\n"
        "    runpy.run_module('optishape', run_name='__main__', alter_sys=True)\n"
        "except SystemExit as exc:\n"
        "    assert exc.code == 0, exc.code\n"
    )
    PROBE = RUN_CLI + "print('numpy' in sys.modules)\n"

    def probe(self, *code_and_args):
        proc = subprocess.run(
            [sys.executable, "-c", *code_and_args],
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        return proc.stdout.splitlines()[-1]

    def test_import_does_not_load_numpy(self):
        assert self.probe("import sys, optishape; print('numpy' in sys.modules)") == "False"

    def test_ellipse_solve_does_not_load_numpy(self):
        assert self.probe(self.PROBE, "solve", "ellipse-semicircle") == "False"

    # Records are named tuples: dataclasses (and the inspect, ast, dis and
    # tokenize modules it imports) stays out of every CLI process.
    def test_import_does_not_load_dataclasses(self):
        assert self.probe(
            "import sys, optishape; print('dataclasses' in sys.modules)"
        ) == "False"

    @pytest.mark.parametrize(
        "argv",
        [("solve", "ellipse-semicircle"), ("verify",)],
        ids=["solve-ellipse-semicircle", "verify"],
    )
    def test_cli_does_not_load_dataclasses(self, argv):
        assert self.probe(self.RUN_CLI + "print('dataclasses' in sys.modules)\n", *argv) == "False"

    # The package namespace holds only the catalog, so importing it loads
    # neither the oracle nor verify; only `optishape verify` needs them.
    def test_import_loads_only_the_solver_layers(self):
        assert self.probe(
            "import sys, optishape\n"
            "print(sorted(m for m in sys.modules if m.startswith('optishape.')))"
        ) == "['optishape.geometry', 'optishape.optimize', 'optishape.problems']"

    def test_solve_does_not_load_the_oracle(self):
        assert self.probe(self.RUN_CLI + "print('optishape.oracle' in sys.modules)\n",
                          "solve", "rectangle", "--fence", "2400") == "False"

    # Only `optishape verify` loads verify.
    @pytest.mark.parametrize(
        "argv, loaded",
        [(("solve", "rectangle", "--fence", "2400"), "False"),
         (("curve", "fence", "--fence", "2400", "--points", "3"), "False"),
         (("verify",), "True")],
        ids=["solve", "curve", "verify"],
    )
    def test_only_verify_loads_verify(self, argv, loaded):
        assert self.probe(self.RUN_CLI + "print('optishape.verify' in sys.modules)\n",
                          *argv) == loaded

    # A CLI process freezes its heap after import, so the collector, the
    # one at interpreter exit included, skips that heap.
    def test_cli_process_freezes_its_heap(self):
        assert self.probe(self.RUN_CLI + "import gc\nprint(gc.get_freeze_count() > 0)\n",
                          "solve", "rectangle", "--fence", "3") == "True"

    # Only the process entry freezes: in-process callers of cli.main keep an
    # ordinary collector.
    def test_main_in_process_does_not_freeze(self, capsys):
        before = gc.get_freeze_count()
        code, _, _ = run_cli(capsys, "solve", "rectangle", "--fence", "3")
        assert (code, gc.get_freeze_count()) == (0, before)

    # The entry leaves the interpreter's exit path intact: cProfile prints
    # its report after the module has run.
    def test_runs_under_cprofile(self):
        proc = subprocess.run(
            [sys.executable, "-m", "cProfile", "-m", "optishape",
             "solve", "rectangle", "--fence", "40"],
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        report, end = json.JSONDecoder().raw_decode(proc.stdout)
        assert report["solution"]["area"] == 100.0
        assert "function calls" in proc.stdout[end:]
