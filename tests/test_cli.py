"""Command-line interface tests: subcommands, formats, exit codes."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import spinboost
from spinboost.cli import build_parser, main
from spinboost.entanglement import PARTITIONS, delta_e
from spinboost.states import SpinFamily
from spinboost.extrema import read_csv
from spinboost.sweep import GridSpec, run_sweep

from helpers import read_surface

SMALL_GRID = ["--theta-grid", "0:3.141592653589793:7", "--phi-grid", "0:6.283185307179586:9"]
# a 2x2 surface for `extrema`
STORED_CSV = "theta,phi,delta_e\n0,0,0.5\n0,1,0.25\n1,0,0\n1,1,1\n"


def test_package_top_level_is_lean():
    """`import spinboost` loads no submodule and no numpy, and carries the project version."""
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    version = tomllib.loads(pyproject.read_text(encoding="utf-8"))["project"]["version"]
    code = (
        "import json, spinboost, sys; "
        "loaded = sorted(m for m in sys.modules "
        "if m.startswith('spinboost.') or m.split('.')[0] == 'numpy'); "
        "print(json.dumps({'loaded': loaded, 'version': spinboost.__version__}))"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(spinboost.__file__).resolve().parents[1])}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env,
                          check=True)
    report = json.loads(proc.stdout)
    assert report["loaded"] == []
    assert report["version"] == version


def test_no_command_loads_numpy_random(tmp_path):
    """No command draws from numpy.random or loads dataclasses, and each command loads only
    the modules it runs: numpy for `sweep` and `check` alone, json only to read or write
    JSON, the extrema reader only for `extrema` and `sweep --summary`, and no inspect (which
    numpy loads) where numpy stays unloaded.

    Each command runs in a fresh interpreter that imports nothing else, and the modules
    loaded before the CLI is imported do not count."""
    csv, json_out = tmp_path / "s.csv", tmp_path / "s.json"
    stored = tmp_path / "stored.csv"
    stored.write_text(STORED_CSV)
    sweep = ["sweep", "--family", "s1", "--alpha", "0.7", "--omega", "0.3", "--partition", "svp",
             *SMALL_GRID]
    extrema, checks, sweep_module = "spinboost.extrema", "spinboost.checks", "spinboost.sweep"
    expected = [
        (["wigner-angle", "--xi", "1", "--eta", "1"], 0, []),
        (["--help"], 0, []),
        (["sweep", "--help"], 0, []),
        (["wigner-angle", "--xi", "1"], 1, []),  # a usage error: --eta is missing
        (["delta-e", "--state", "s00", "--alpha", "0.7", "--omega", "0.3", "--partition", "1v3"],
         0, []),
        (["extrema", "--in", str(stored)], 0, [extrema]),
        ([*sweep, "--out", str(csv)], 0, ["numpy", sweep_module]),
        ([*sweep, "--out", str(json_out)], 0, ["json", "numpy", sweep_module]),
        (["extrema", "--in", str(json_out)], 0, ["json", extrema]),
        ([*sweep, "--out", str(csv), "--summary"], 0, ["numpy", extrema, sweep_module]),
        (["check"], 0, ["numpy", checks, sweep_module]),
        (["check", "--json"], 0, ["json", "numpy", checks, sweep_module]),
    ]
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "from spinboost.cli import main\n"
        "rc = main(sys.argv[1:])\n"
        "print(rc, *sorted(set(sys.modules) - before), file=sys.stderr)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(spinboost.__file__).resolve().parents[1])}
    watched = {"dataclasses", "json", "numpy", "numpy.random", checks, extrema, sweep_module}
    reports = []
    for argv, _, loads in expected:
        proc = subprocess.run([sys.executable, "-c", code, *argv],
                              capture_output=True, text=True, env=env, check=True)
        rc, *loaded = proc.stderr.splitlines()[-1].split()
        shown = watched if "numpy" in loads else watched | {"inspect"}
        reports.append((argv, int(rc), sorted(shown.intersection(loaded))))
    assert reports == [(argv, rc, sorted(loads)) for argv, rc, loads in expected]


# one call of each command, a usage error and two help texts
CHILD_ARGVS = [
    ["wigner-angle", "--xi", "1", "--eta", "2"],
    ["delta-e", "--family", "s2", "--theta", "1", "--phi", "2", "--alpha", "0.7",
     "--xi", "1", "--eta", "2", "--partition", "svp"],
    ["sweep", "--family", "s1", "--alpha", "0.7", "--xi", "1", "--eta", "2", "--partition", "1v3",
     *SMALL_GRID, "--summary"],
    ["extrema", "--in", "{stored}"],
    ["check"],
    ["delta-e", "--state", "s00", "--alpha", "0.7", "--partition", "avb"],
    ["--help"],
    ["sweep", "--help"],
]


@pytest.mark.parametrize("argv", CHILD_ARGVS, ids=lambda argv: "-".join(argv[:2]))
def test_child_matches_in_process_main(argv, tmp_path, capsysbinary, monkeypatch):
    """`python -m spinboost.cli` writes the bytes and exits with the code that main returns."""
    stored = tmp_path / "stored.csv"
    stored.write_text(STORED_CSV)
    argv = [arg.format(stored=stored) for arg in argv]
    # argparse wraps help text to the terminal width, which COLUMNS fixes
    monkeypatch.setenv("COLUMNS", "80")
    env = {**os.environ, "PYTHONPATH": str(Path(spinboost.__file__).resolve().parents[1])}
    child = subprocess.run([sys.executable, "-m", "spinboost.cli", *argv],
                           capture_output=True, env=env)
    code = main(argv)
    captured = capsysbinary.readouterr()
    assert (child.returncode, child.stdout, child.stderr) == (code, captured.out, captured.err)


@pytest.mark.parametrize("command", ["wigner-angle", "delta-e", "sweep", "extrema", "check"])
def test_command_help_is_the_full_parsers(command, capsys, monkeypatch):
    """A command's parser, built alone for its own argv, prints the help that it prints
    among all five."""
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit):
        build_parser().parse_args([command, "--help"])
    full = capsys.readouterr().out
    assert main([command, "--help"]) == 0
    assert capsys.readouterr().out == full
    assert full.startswith(f"usage: spinboost {command} [-h]")


@pytest.mark.skipif(not Path("/dev/full").exists(), reason="needs /dev/full (Linux)")
@pytest.mark.parametrize("sink", ["full", "closed-pipe"])
@pytest.mark.parametrize(
    "argv",
    [
        ["wigner-angle", "--xi", "1", "--eta", "1"],
        ["delta-e", "--state", "s00", "--alpha", "0.7", "--omega", "0.3", "--partition", "1v3"],
        # the default grid's CSV outgrows the buffer, so the write fails inside the command
        ["sweep", "--family", "s1", "--alpha", "0.7", "--omega", "0.3", "--partition", "svp"],
        ["extrema", "--in", "{stored}"],
        ["check"],
    ],
    ids=lambda argv: argv[0],
)
def test_failed_stdout_write_exits_two(argv, sink, tmp_path):
    """Output that cannot be written is a runtime failure: one error line and exit 2, whether
    the write fails inside the command or at the final flush of buffered stdout."""
    stored = tmp_path / "stored.csv"
    stored.write_text(STORED_CSV)
    argv = [arg.format(stored=stored) for arg in argv]
    # without PYTHONUNBUFFERED, stdout to a file or a pipe is block-buffered
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(Path(spinboost.__file__).resolve().parents[1])
    if sink == "full":
        stdout = os.open("/dev/full", os.O_WRONLY)
    else:
        read_end, stdout = os.pipe()
        os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-m", "spinboost.cli", *argv],
                              stdout=stdout, stderr=subprocess.PIPE, text=True, env=env)
    finally:
        os.close(stdout)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1, proc.stderr


@pytest.mark.skipif(not Path("/dev/full").exists(), reason="needs /dev/full (Linux)")
@pytest.mark.parametrize(
    "argv,code",
    [
        (["wigner-angle", "--xi", "nan", "--eta", "1"], 2),
        (["delta-e", "--state", "s00", "--alpha", "0.7", "--omega", "nan", "--partition", "1v3"], 2),
        # a usage error from the parser, and one from the command
        (["wigner-angle", "--xi", "1"], 1),
        (["delta-e", "--state", "s00", "--alpha", "0.7", "--omega", "0.3", "--xi", "1",
          "--partition", "1v3"], 1),
    ],
)
def test_unwritable_stderr_keeps_the_exit_code(argv, code):
    """An error line that stderr cannot take is lost, but a runtime error still exits 2 and
    a usage error 1, also when the lost line stays in stderr's buffer for the final flush."""
    # without PYTHONUNBUFFERED, stderr keeps the line it could not write
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(Path(spinboost.__file__).resolve().parents[1])
    stderr = os.open("/dev/full", os.O_WRONLY)
    try:
        proc = subprocess.run([sys.executable, "-m", "spinboost.cli", *argv],
                              stdout=subprocess.PIPE, stderr=stderr, env=env)
    finally:
        os.close(stderr)
    assert proc.returncode == code
    assert proc.stdout == b""


def test_wigner_angle_command(capsys):
    assert main(["wigner-angle", "--xi", "1", "--eta", "1"]) == 0
    out = capsys.readouterr().out.strip()
    assert float(out) == 0.42078396163807286


def test_delta_e_named_state(capsys):
    code = main(
        [
            "delta-e",
            "--state",
            "s00",
            "--alpha",
            str(math.pi / 4),
            "--omega",
            str(math.pi / 8),
            "--partition",
            "1v3",
        ]
    )
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    fields = dict(line.split(" = ") for line in lines)
    assert set(fields) == {"omega", "e_before", "e_after", "delta_e"}
    assert abs(float(fields["delta_e"]) - 0.5) < 1e-12
    assert float(fields["omega"]) == math.pi / 8


def test_delta_e_explicit_angles_matches_library(capsys):
    code = main(
        [
            "delta-e",
            "--family",
            "s1",
            "--theta",
            "1.1",
            "--phi",
            "2.2",
            "--alpha",
            "0.6",
            "--omega",
            "0.9",
            "--partition",
            "svp",
        ]
    )
    assert code == 0
    fields = dict(
        line.split(" = ") for line in capsys.readouterr().out.strip().splitlines()
    )
    from spinboost.states import SpinParams

    expected = delta_e(SpinParams(SpinFamily.S1, 1.1, 2.2), 0.6, 0.9, PARTITIONS["SvsP"])
    assert float(fields["delta_e"]) == expected.delta
    assert float(fields["e_before"]) == expected.e_before


def test_delta_e_rapidity_route(capsys):
    code = main(
        [
            "delta-e",
            "--state",
            "bell-minus",
            "--alpha",
            "0.785",
            "--xi",
            "1",
            "--eta",
            "1",
            "--partition",
            "svp",
        ]
    )
    assert code == 0
    fields = dict(
        line.split(" = ") for line in capsys.readouterr().out.strip().splitlines()
    )
    assert abs(float(fields["omega"]) - 0.42078396163807286) < 1e-15


def test_usage_errors_exit_one(capsys):
    assert main([]) == 1
    assert main(["no-such-command"]) == 1
    assert main(["wigner-angle", "--xi", "1"]) == 1  # missing --eta
    assert main(["delta-e", "--state", "s00", "--alpha", "0.7", "--partition", "avb"]) == 1
    assert main(["delta-e", "--state", "s00", "--alpha", "0.7", "--xi", "1",
                 "--partition", "avb"]) == 1  # --xi without --eta
    assert (
        main(
            [
                "delta-e",
                "--state",
                "s00",
                "--alpha",
                "0.7",
                "--omega",
                "0.1",
                "--xi",
                "1",
                "--eta",
                "1",
                "--partition",
                "avb",
            ]
        )
        == 1
    )
    assert (
        main(
            [
                "delta-e",
                "--state",
                "s00",
                "--family",
                "s1",
                "--theta",
                "0",
                "--phi",
                "0",
                "--alpha",
                "0.7",
                "--omega",
                "0.1",
                "--partition",
                "avb",
            ]
        )
        == 1
    )
    assert (
        main(["delta-e", "--state", "s00", "--alpha", "0.7", "--omega", "0.1",
              "--partition", "bogus"])
        == 1
    )
    assert (
        main(["sweep", "--family", "s1", "--alpha", "0.7", "--omega", "0.1",
              "--partition", "avb", "--theta-grid", "zero:one:two"])
        == 1
    )
    assert (
        main(["sweep", "--family", "s1", "--alpha", "0.7", "--omega", "0.1",
              "--partition", "avb", "--theta-grid", "1:1:5"])
        == 1
    )
    capsys.readouterr()


def test_runtime_errors_exit_two(capsys, tmp_path):
    # unknown named state surfaces as a runtime validation error
    assert main(["delta-e", "--state", "zz", "--alpha", "0.7", "--omega", "0.1",
                 "--partition", "avb"]) == 2
    # out-of-range direct omega
    assert main(["delta-e", "--state", "s00", "--alpha", "0.7", "--omega", "9",
                 "--partition", "avb"]) == 2
    # missing input file
    assert main(["extrema", "--in", str(tmp_path / "absent.csv")]) == 2
    err = capsys.readouterr().err
    assert "error" in err
    # the boost is resolved before the state name, so a bad omega is reported first
    assert main(["delta-e", "--state", "zz", "--alpha", "0.7", "--omega", "9",
                 "--partition", "avb"]) == 2
    assert "direct omega must lie in [0, pi/2]" in capsys.readouterr().err


def test_sweep_stdout_csv(capsys):
    code = main(
        ["sweep", "--family", "s1", "--alpha", str(math.pi / 4), "--omega",
         str(math.pi / 8), "--partition", "1v3", *SMALL_GRID]
    )
    assert code == 0
    out = capsys.readouterr().out
    lines = out.strip().splitlines()
    assert lines[0] == "theta,phi,delta_e"
    assert len(lines) == 1 + 7 * 9
    expected = run_sweep(
        family=SpinFamily.S1,
        alpha=math.pi / 4,
        omega=math.pi / 8,
        partition=PARTITIONS["1vs3"],
        theta_grid=GridSpec(0.0, math.pi, 7),
        phi_grid=GridSpec(0.0, 2 * math.pi, 9),
    )
    import io

    parsed = read_surface(read_csv, io.StringIO(out))
    assert np.array_equal(parsed.values, expected.values)


def test_sweep_to_file_deterministic(tmp_path, capsys):
    args = ["sweep", "--family", "s2", "--alpha", str(math.pi / 4), "--omega",
            str(math.pi / 2), "--partition", "svp", *SMALL_GRID]
    path_a = tmp_path / "a.csv"
    path_b = tmp_path / "b.csv"
    assert main([*args, "--out", str(path_a)]) == 0
    assert main([*args, "--out", str(path_b)]) == 0
    assert path_a.read_bytes() == path_b.read_bytes()
    capsys.readouterr()


def test_sweep_takes_a_negative_grid_start_joined_by_equals(tmp_path, capsys):
    """argparse reads a separate "-0.5:1:3" as an option; joined to its flag by = it is a grid."""
    out = tmp_path / "s.csv"
    args = ["sweep", "--family", "s1", "--alpha", "0.785", "--omega", "0.3",
            "--partition", "svp", "--phi-grid", "0:1:2", "--out", str(out)]
    assert main([*args, "--theta-grid", "-0.5:1:3"]) == 1
    assert "expected one argument" in capsys.readouterr().err
    assert not out.exists()
    assert main([*args, "--theta-grid=-0.5:1:3"]) == 0
    assert out.read_text().splitlines()[1].startswith("-0.5,")
    capsys.readouterr()


def test_sweep_json_format_inference(tmp_path, capsys):
    args = ["sweep", "--family", "s1", "--alpha", "0.785", "--omega", "0.3",
            "--partition", "svp", *SMALL_GRID]
    json_path = tmp_path / "surface.json"
    assert main([*args, "--out", str(json_path)]) == 0
    envelope = json.loads(json_path.read_text())
    assert envelope["shape"] == [7, 9]
    assert envelope["config"]["partition"] == "SvsP"
    assert envelope["config"]["family"] == "s1"
    assert len(envelope["values"]) == 63
    # explicit --format wins over the extension
    csvish = tmp_path / "surface2.json"
    assert main([*args, "--out", str(csvish), "--format", "csv"]) == 0
    assert csvish.read_text().startswith("theta,phi,delta_e")
    capsys.readouterr()


def test_sweep_oversized_grid_count_exits_two(tmp_path, capsys):
    # numpy refuses an array of 10^15 floats up front, without allocating any of it
    out = tmp_path / "s.csv"
    code = main(["sweep", "--family", "s1", "--alpha", "0.785", "--omega", "0.3",
                 "--partition", "svp", "--theta-grid", "0:1:1000000000000000",
                 "--out", str(out)])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


def test_extrema_reads_csv_whatever_its_suffix(tmp_path, capsys):
    args = ["sweep", "--family", "s1", "--alpha", "0.785", "--omega", "0.3926990816987241",
            "--partition", "1v3", "--theta-grid", "0:3.141592653589793:25",
            "--phi-grid", "0:6.283185307179586:49", "--format", "csv"]
    reports = []
    for name in ("s.json", "s.csv"):
        assert main([*args, "--out", str(tmp_path / name)]) == 0
        capsys.readouterr()
        assert main(["extrema", "--in", str(tmp_path / name)]) == 0
        reports.append(capsys.readouterr().out)
    assert (tmp_path / "s.json").read_bytes() == (tmp_path / "s.csv").read_bytes()
    assert "maxima (2 clusters):" in reports[1]
    assert reports[0] == reports[1]


def test_sweep_rapidity_route_reports_omega(tmp_path, capsys):
    out = tmp_path / "s.csv"
    code = main(
        ["sweep", "--family", "s1", "--alpha", "0.785", "--xi", "1", "--eta", "1",
         "--partition", "1v3", *SMALL_GRID, "--out", str(out)]
    )
    assert code == 0
    err = capsys.readouterr().err
    assert "omega = 0.42078396163807286" in err


def test_sweep_summary_flag(tmp_path, capsys):
    out = tmp_path / "s.csv"
    code = main(
        ["sweep", "--family", "s1", "--alpha", str(math.pi / 4), "--omega",
         str(math.pi / 8), "--partition", "1v3", *SMALL_GRID, "--out", str(out),
         "--summary"]
    )
    assert code == 0
    err = capsys.readouterr().err
    assert "maxima" in err and "minima" in err


def test_extrema_command_flat_and_peaked(tmp_path, capsys):
    flat = tmp_path / "flat.csv"
    main(["sweep", "--family", "s1", "--alpha", "0.785", "--omega", "0",
          "--partition", "1v3", *SMALL_GRID, "--out", str(flat)])
    assert main(["extrema", "--in", str(flat)]) == 0
    assert "flat surface" in capsys.readouterr().out

    peaked = tmp_path / "peaked.json"
    main(["sweep", "--family", "s1", "--alpha", "0.785", "--omega", "0.3926990816987241",
          "--partition", "1v3", "--theta-grid", "0:3.141592653589793:25",
          "--phi-grid", "0:6.283185307179586:49", "--out", str(peaked)])
    assert main(["extrema", "--in", str(peaked)]) == 0
    out = capsys.readouterr().out
    assert "maxima (2 clusters):" in out
    assert "minima" in out


def test_extrema_merge_radius_flag(tmp_path, capsys):
    path = tmp_path / "s.csv"
    main(["sweep", "--family", "s1", "--alpha", "0.785", "--omega", "0.3926990816987241",
          "--partition", "1v3", "--theta-grid", "0:3.141592653589793:25",
          "--phi-grid", "0:6.283185307179586:49", "--out", str(path)])
    assert main(["extrema", "--in", str(path), "--merge-radius", "5"]) == 0
    capsys.readouterr()


def test_sweep_and_extrema_defaults_come_from_sweep(tmp_path, capsys, monkeypatch):
    """Omitted grid flags take sweep's constants and an omitted merge radius takes extrema's,
    read when the command runs."""
    import spinboost.extrema as extrema
    import spinboost.sweep as sweep

    base = ["sweep", "--family", "s1", "--alpha", "0.785", "--omega", "0.3926990816987241",
            "--partition", "1v3"]
    implicit, explicit = tmp_path / "implicit.csv", tmp_path / "explicit.csv"
    assert main([*base, "--out", str(implicit)]) == 0
    assert main([*base, "--theta-grid", "0:3.141592653589793:121",
                 "--phi-grid", "0:6.283185307179586:241", "--out", str(explicit)]) == 0
    assert implicit.read_bytes() == explicit.read_bytes()
    monkeypatch.setattr(sweep, "DEFAULT_THETA_GRID", GridSpec(0.0, math.pi, 3))
    monkeypatch.setattr(sweep, "DEFAULT_PHI_GRID", GridSpec(0.0, 2 * math.pi, 5))
    assert main([*base, "--out", str(implicit)]) == 0
    assert len(implicit.read_text().splitlines()) == 1 + 3 * 5

    peaked = tmp_path / "peaked.csv"
    assert main([*base, "--theta-grid", "0:3.141592653589793:25",
                 "--phi-grid", "0:6.283185307179586:49", "--out", str(peaked)]) == 0
    capsys.readouterr()
    reports = []
    for extra in ([], ["--merge-radius", "3"]):
        assert main(["extrema", "--in", str(peaked), *extra]) == 0
        reports.append(capsys.readouterr().out)
    assert reports[0] == reports[1]
    assert "maxima (2 clusters):" in reports[0]
    monkeypatch.setattr(extrema, "DEFAULT_MERGE_RADIUS", math.inf)
    assert main(["extrema", "--in", str(peaked)]) == 0
    assert "maxima (1 cluster):" in capsys.readouterr().out


def test_check_command(capsys):
    assert main(["check"]) == 0
    out = capsys.readouterr().out
    assert "11/11 checks passed" in out
    assert out.count("PASS") == 11


def test_check_command_json(capsys):
    assert main(["check", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["passed"] is True
    assert len(payload["checks"]) == 11
    assert all(entry["passed"] for entry in payload["checks"])


BLAS_THREAD_VARIABLES = (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "GOTO_NUM_THREADS"
)


def test_cli_asks_for_one_blas_thread_unless_one_is_set(monkeypatch):
    """With no thread count set, main asks BLAS for one thread; a count the user set,
    under any of the four names, stays as it is and no other is added."""
    wigner = ["wigner-angle", "--xi", "1", "--eta", "1"]
    for name in BLAS_THREAD_VARIABLES:
        monkeypatch.delenv(name, raising=False)
    assert main(wigner) == 0
    assert {name: os.environ.get(name) for name in BLAS_THREAD_VARIABLES} == {
        "OPENBLAS_NUM_THREADS": None, "OMP_NUM_THREADS": "1",
        "MKL_NUM_THREADS": None, "GOTO_NUM_THREADS": None,
    }
    monkeypatch.delenv("OMP_NUM_THREADS")
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "3")
    found = {name: os.environ.get(name) for name in BLAS_THREAD_VARIABLES}
    assert main(wigner) == 0
    assert {name: os.environ.get(name) for name in BLAS_THREAD_VARIABLES} == found


@pytest.mark.skipif(not Path("/proc/self/task").is_dir(), reason="no per-thread /proc entries")
def test_check_command_runs_on_one_thread():
    """A `check` child with no thread count set ends with its main thread alone."""
    code = (
        "import contextlib, io, os\n"
        "from spinboost.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    rc = main(['check'])\n"
        "print(rc, len(os.listdir('/proc/self/task')))\n"
    )
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARIABLES}
    env["PYTHONPATH"] = str(Path(spinboost.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True, env=env, check=True)
    assert proc.stdout.split() == ["0", "1"]


SWEEP_BASE = ["sweep", "--family", "s1", "--omega", "0.3", "--partition", "svp"]


@pytest.mark.parametrize(
    "argv, code",
    [
        (["sweep", "--family", "s1", "--alpha", "nan", "--omega", "0.3", "--partition", "svp",
          *SMALL_GRID], 2),
        ([*SWEEP_BASE, "--alpha", "0.5", "--theta-grid", "0:inf:3"], 1),
        ([*SWEEP_BASE, "--alpha", "0.5", "--phi-grid", "nan:1:3"], 1),
        ([*SWEEP_BASE, "--alpha", "0.5", "--theta-grid=-1e308:1e308:3"], 1),
        (["sweep", "--family", "s1", "--alpha", "0.5", "--xi", "nan", "--eta", "1",
          "--partition", "svp", *SMALL_GRID], 2),
        (["sweep", "--family", "s1", "--alpha", "0.5", "--omega", "inf", "--partition", "svp",
          *SMALL_GRID], 2),
        (["delta-e", "--state", "s00", "--alpha", "nan", "--omega", "0.3", "--partition", "svp"], 2),
        (["delta-e", "--family", "s1", "--theta", "nan", "--phi", "0.5", "--alpha", "0.7",
          "--omega", "0.3", "--partition", "svp"], 2),
        (["delta-e", "--family", "s1", "--theta", "0.5", "--phi", "inf", "--alpha", "0.7",
          "--omega", "0.3", "--partition", "svp"], 2),
        (["delta-e", "--state", "s00", "--alpha", "0.7", "--omega", "nan",
          "--partition", "svp"], 2),
        (["delta-e", "--state", "s00", "--alpha", "0.7", "--xi", "1", "--eta", "inf",
          "--partition", "svp"], 2),
        (["wigner-angle", "--xi", "nan", "--eta", "1"], 2),
        (["wigner-angle", "--xi", "1", "--eta", "inf"], 2),
    ],
    ids=["sweep-alpha-nan", "sweep-theta-grid-inf", "sweep-phi-grid-nan",
         "sweep-theta-span-overflow", "sweep-xi-nan", "sweep-omega-inf",
         "delta-e-alpha-nan", "delta-e-theta-nan", "delta-e-phi-inf", "delta-e-omega-nan",
         "delta-e-eta-inf", "wigner-xi-nan", "wigner-eta-inf"],
)
def test_non_finite_inputs_rejected(argv, code, tmp_path, capsys):
    out = tmp_path / "s.csv"
    argv = [*argv, "--out", str(out)] if argv[0] == "sweep" else argv
    assert main(argv) == code
    assert capsys.readouterr().out == ""
    assert not out.exists()


def test_wigner_angle_large_rapidities(capsys):
    assert main(["wigner-angle", "--xi", "1000", "--eta", "1000"]) == 0
    assert float(capsys.readouterr().out) == math.pi / 2
    assert main(["wigner-angle", "--xi", "1000", "--eta", "0.001"]) == 0
    assert abs(float(capsys.readouterr().out) - 0.001) < 1e-9


def _write_small_sweep(path, capsys):
    assert main(["sweep", "--family", "s1", "--alpha", "0.785", "--omega", "0.3",
                 "--partition", "svp", *SMALL_GRID, "--out", str(path)]) == 0
    capsys.readouterr()


def test_extrema_rejects_phi_outer_csv(tmp_path, capsys):
    thetas = np.linspace(0.0, math.pi, 5)
    phis = np.linspace(0.0, 2 * math.pi, 9)
    rows = [f"{t:.17g},{p:.17g},{math.sin(t) * math.cos(p):.17g}" for p in phis for t in thetas]
    path = tmp_path / "phi_outer.csv"
    path.write_text("theta,phi,delta_e\n" + "\n".join(rows) + "\n")
    assert main(["extrema", "--in", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "theta outer" in captured.err


@pytest.mark.parametrize("edit", ["drop-config", "drop-values", "drop-grid", "short-values",
                                  "wrong-shape", "equal-endpoints", "huge-count",
                                  "span-overflow", "string-value", "bool-value",
                                  "int-overflow", "values-string", "values-empty-string",
                                  "values-object"])
def test_extrema_rejects_malformed_json(edit, tmp_path, capsys):
    path = tmp_path / "s.json"
    _write_small_sweep(path, capsys)
    envelope = json.loads(path.read_text())
    if edit == "drop-config":
        del envelope["config"]
    elif edit == "drop-values":
        del envelope["values"]
    elif edit == "drop-grid":
        del envelope["config"]["phi_grid"]
    elif edit == "short-values":
        envelope["values"].pop()
    elif edit == "equal-endpoints":
        envelope["config"]["theta_grid"]["stop"] = envelope["config"]["theta_grid"]["start"]
    elif edit == "huge-count":
        # a grid of 10^15 points would be rejected by numpy; the count check comes first
        envelope["config"]["theta_grid"]["count"] = 10**15
    elif edit == "span-overflow":
        envelope["config"]["theta_grid"].update(start=-1e308, stop=1e308)
    elif edit == "string-value":
        # numpy would read each of these as a float
        envelope["values"][:2] = ["0.5", " 7 "]
    elif edit == "bool-value":
        envelope["values"][5] = True
    elif edit == "int-overflow":
        envelope["values"][0] = 10**400
    elif edit == "values-string":
        envelope["values"] = "1234"
    elif edit == "values-empty-string":
        envelope["values"] = ""
    elif edit == "values-object":
        envelope["values"] = {"0.5": 1}
    else:
        envelope["shape"] = [9, 7]
    path.write_text(json.dumps(envelope))
    assert main(["extrema", "--in", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    if edit == "huge-count":
        assert "does not match" in captured.err
    if edit == "string-value":
        assert 'got 2 that are not: "0.5", " 7 "' in captured.err
    if edit == "bool-value":
        assert "got 1 that are not: true" in captured.err
    if edit in ("values-string", "values-empty-string"):
        assert "values must be an array, got a string" in captured.err
    if edit == "values-object":
        assert "values must be an array, got an object" in captured.err


@pytest.mark.parametrize("bad", ["nan", "inf"])
def test_extrema_rejects_non_finite_cell(bad, tmp_path, capsys):
    path = tmp_path / "s.csv"
    _write_small_sweep(path, capsys)
    lines = path.read_text().splitlines()
    t, p, _ = lines[20].split(",")
    lines[20] = f"{t},{p},{bad}"
    path.write_text("\n".join(lines) + "\n")
    assert main(["extrema", "--in", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "non-finite" in captured.err


def test_extrema_rejects_non_finite_csv_coordinates(tmp_path, capsys):
    path = tmp_path / "s.csv"
    _write_small_sweep(path, capsys)
    header, *rows = path.read_text().splitlines()
    # every row of the first theta: the file is still a consistent outer product
    first = rows[0].split(",")[0]
    rows = [f"inf,{row.split(',', 1)[1]}" if row.split(",")[0] == first else row for row in rows]
    path.write_text("\n".join([header, *rows]) + "\n")
    assert main(["extrema", "--in", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "coordinates must be finite" in captured.err


@pytest.mark.parametrize("bad", ["high", "#0.5", "0.5,0.5"])
def test_extrema_rejects_malformed_csv_cell(bad, tmp_path, capsys):
    path = tmp_path / "s.csv"
    _write_small_sweep(path, capsys)
    lines = path.read_text().splitlines()
    t, p, _ = lines[20].split(",")
    lines[20] = f"{t},{p},{bad}"
    path.write_text("\n".join(lines) + "\n")
    assert main(["extrema", "--in", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


@pytest.mark.parametrize("radius", ["-1", "nan", "-inf", "wide"])
def test_extrema_rejects_bad_merge_radius(radius, tmp_path, capsys):
    path = tmp_path / "s.csv"
    _write_small_sweep(path, capsys)
    assert main(["extrema", "--in", str(path), "--merge-radius", radius]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage error: ")


def test_extrema_infinite_merge_radius_merges_everything(tmp_path, capsys):
    path = tmp_path / "s.csv"
    main(["sweep", "--family", "s1", "--alpha", "0.785", "--omega", "0.3926990816987241",
          "--partition", "1v3", "--theta-grid", "0:3.141592653589793:25",
          "--phi-grid", "0:6.283185307179586:49", "--out", str(path)])
    capsys.readouterr()
    assert main(["extrema", "--in", str(path), "--merge-radius", "inf"]) == 0
    out = capsys.readouterr().out
    assert "maxima (1 cluster):" in out
    assert "minima (1 cluster):" in out


@pytest.mark.parametrize("existing", [False, True])
def test_sweep_writer_failure_leaves_no_partial_file(existing, tmp_path, capsys, monkeypatch):
    import spinboost.sweep as sweep

    def failing_writer(result, stream):
        stream.write("theta,phi,delta_e\n")
        raise OSError("disk full")

    out = tmp_path / "s.csv"
    argv = ["sweep", "--family", "s1", "--alpha", "0.785", "--omega", "0.3",
            "--partition", "svp", *SMALL_GRID, "--out", str(out)]
    if existing:
        assert main(argv) == 0
        assert [p.name for p in tmp_path.iterdir()] == ["s.csv"]
    before = out.read_bytes() if existing else None
    # the command looks its writer up in sweep when it runs
    monkeypatch.setattr(sweep, "write_csv", failing_writer)
    assert main(argv) == 2
    assert "disk full" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == (["s.csv"] if existing else [])
    if existing:
        assert out.read_bytes() == before
