"""Command-line front end: sweeps, extrema reports, point evaluations, checks.

Exit codes: 0 success, 1 usage error, 2 runtime failure, 3 check-suite
failure. All angles are radians. Numeric output uses 17 significant digits
so emitted files round-trip exactly.
"""

from __future__ import annotations

import argparse
import io
import math
import os
import sys
from pathlib import Path

# the only package import at load time: each command and argument converter
# imports the modules it runs, so `wigner-angle`, `--help` and a missing or
# unknown flag never load numpy
from .kinematics import wigner_angle


class _UsageError(Exception):
    pass


class _Closed(io.TextIOBase):
    """sys.stdout or sys.stderr where its descriptor is not open, which Python leaves None,
    so that print() drops the output and a flush raises AttributeError: here a write fails
    as a runtime error. A closed stderr shows no error line, so the message names stdout."""

    def write(self, text: str) -> int:
        raise OSError("stdout is not open")


class _Parser(argparse.ArgumentParser):
    """ArgumentParser that signals usage problems instead of exiting with 2, and lets a
    failed write of its help through, as a runtime error, where argparse would drop it."""

    def error(self, message: str) -> None:
        raise _UsageError(message)

    def _print_message(self, message: str, file=None) -> None:
        if message:
            (file or sys.stderr).write(message)


def _grid_spec(text: str):
    from .grid import GridSpec

    parts = text.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"expected START:STOP:COUNT, got {text!r}")
    try:
        return GridSpec(float(parts[0]), float(parts[1]), int(parts[2]))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _merge_radius(text: str) -> float:
    radius = float(text)
    # the comparison also rejects nan, which fails every comparison
    if not radius >= 0.0:
        raise argparse.ArgumentTypeError(f"merge radius must be nonnegative, got {text!r}")
    return radius


def _family(text: str):
    from .states import SpinFamily

    try:
        return SpinFamily(text.lower())
    except ValueError:
        raise argparse.ArgumentTypeError(f"unknown family {text!r}, expected s1 or s2")


def _partition(text: str):
    from .entanglement import parse_partition

    try:
        return parse_partition(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _add_boost_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--omega", type=float, help="Wigner angle in radians")
    parser.add_argument("--xi", type=float, help="first particle rapidity")
    parser.add_argument("--eta", type=float, help="observer boost rapidity")


def _omega(args: argparse.Namespace) -> float:
    # the direct-omega path exists so that the limiting angle pi/2, which the
    # rapidity formula only approaches, can be requested exactly
    if args.omega is not None:
        if args.xi is not None or args.eta is not None:
            raise _UsageError("give either --omega or --xi/--eta, not both")
        # the range test also rejects nan, which fails every comparison
        if not 0.0 <= args.omega <= math.pi / 2:
            raise ValueError("direct omega must lie in [0, pi/2]")
        return args.omega
    if args.xi is None or args.eta is None:
        raise _UsageError("boost requires --omega or both --xi and --eta")
    return wigner_angle(args.xi, args.eta)


def build_parser(argv: list[str] | None = None) -> _Parser:
    """The `spinboost` parser. When argv starts with a command's name, only that
    command's subparser is built, which parses and prints help as it does among all
    five; `--help`, an unknown command and a missing one get all five."""
    parser = _Parser(prog="spinboost", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    wanted = [argv[0]] if argv and argv[0] in _COMMANDS else _COMMANDS

    if "wigner-angle" in wanted:
        p_wigner = sub.add_parser("wigner-angle", help="Wigner angle from two rapidities")
        p_wigner.add_argument("--xi", type=float, required=True)
        p_wigner.add_argument("--eta", type=float, required=True)

    if "delta-e" in wanted:
        p_delta = sub.add_parser("delta-e", help="entanglement change for one state")
        p_delta.add_argument("--state", help="named state identifier")
        p_delta.add_argument("--family", type=_family, help="spin family (s1 or s2)")
        p_delta.add_argument("--theta", type=float, help="polar angle in radians")
        p_delta.add_argument("--phi", type=float, help="azimuthal angle in radians")
        p_delta.add_argument("--alpha", type=float, required=True, help="momentum parameter")
        _add_boost_arguments(p_delta)
        p_delta.add_argument("--partition", type=_partition, required=True,
                             help="avb, mixed, svp or 1v3")

    if "sweep" in wanted:
        p_sweep = sub.add_parser("sweep", help="grid sweep of the entanglement change")
        p_sweep.add_argument("--family", type=_family, required=True)
        p_sweep.add_argument("--alpha", type=float, required=True)
        _add_boost_arguments(p_sweep)
        p_sweep.add_argument("--partition", type=_partition, required=True)
        # the grid defaults (None here) are sweep's constants and the merge-radius
        # default is extrema's, read by the commands so that the parser loads neither
        p_sweep.add_argument("--theta-grid", type=_grid_spec, metavar="START:STOP:COUNT",
                             help="default 0:pi:121; a negative START needs the = form, "
                                  "--theta-grid=-0.5:1:3")
        p_sweep.add_argument("--phi-grid", type=_grid_spec, metavar="START:STOP:COUNT",
                             help="default 0:2pi:241; a negative START needs the = form, "
                                  "--phi-grid=-1:1:5")
        p_sweep.add_argument("--out", type=Path, help="output file (default stdout)")
        p_sweep.add_argument("--format", choices=("csv", "json"),
                             help="output format (default csv, json for .json outputs)")
        p_sweep.add_argument("--summary", action="store_true",
                             help="also print an extrema summary to stderr")

    if "extrema" in wanted:
        p_extrema = sub.add_parser("extrema", help="extrema report for a sweep file")
        p_extrema.add_argument("--in", dest="infile", type=Path, required=True)
        p_extrema.add_argument("--merge-radius", type=_merge_radius,
                               help="cluster radius in grid steps")

    if "check" in wanted:
        p_check = sub.add_parser("check", help="run the self-check suite")
        p_check.add_argument("--json", action="store_true", dest="as_json")

    return parser


def _cmd_wigner_angle(args: argparse.Namespace) -> int:
    print(f"{wigner_angle(args.xi, args.eta):.17g}")
    return 0


def _cmd_delta_e(args: argparse.Namespace) -> int:
    from .entanglement import delta_e
    from .states import SpinParams, get_named_state

    angles = (args.family, args.theta, args.phi)
    if args.state is not None:
        if any(v is not None for v in angles):
            raise _UsageError("--state replaces --family/--theta/--phi")
        omega = _omega(args)
        # the name is looked up after the boost, so a bad omega is reported first
        spin = get_named_state(args.state)
    else:
        if any(v is None for v in angles):
            raise _UsageError("give --state or all of --family, --theta, --phi")
        spin = SpinParams(args.family, args.theta, args.phi)
        omega = _omega(args)
    result = delta_e(spin, args.alpha, omega, args.partition)
    print(f"omega = {omega:.17g}")
    print(f"e_before = {result.e_before:.17g}")
    print(f"e_after = {result.e_after:.17g}")
    print(f"delta_e = {result.delta:.17g}")
    return 0


def _print_extrema(report, stream) -> None:
    if report.flat:
        print("flat surface: value range below the collection tolerance", file=stream)
        return
    for label, entries in (("maxima", report.maxima), ("minima", report.minima)):
        print(f"{label} ({len(entries)} cluster{'s' if len(entries) != 1 else ''}):",
              file=stream)
        for theta, phi, value in entries:
            print(f"  theta = {theta:.17g}  phi = {phi:.17g}  delta_e = {value:.17g}",
                  file=stream)


def _cmd_sweep(args: argparse.Namespace) -> int:
    from .surface import writes_json
    from .sweep import DEFAULT_PHI_GRID, DEFAULT_THETA_GRID, writer

    omega = _omega(args)
    theta_grid = DEFAULT_THETA_GRID if args.theta_grid is None else args.theta_grid
    phi_grid = DEFAULT_PHI_GRID if args.phi_grid is None else args.phi_grid
    hits = add_row = None
    if args.summary:
        from .extrema import DEFAULT_MERGE_RADIUS, HitCollector

        hits = HitCollector()
        add_row = hits.add
    # a bad alpha or grid raises here; the rows are evaluated as write writes them, a block
    # at a time, and this process runs no other thread, so write may fork a worker
    write = writer(args.family, args.alpha, omega, args.partition, theta_grid, phi_grid,
                   writes_json(args.format, args.out), add_row)
    if args.omega is None:
        print(f"omega = {omega:.17g}", file=sys.stderr)
    if args.out is None:
        write(sys.stdout)
    elif args.out.exists() and not args.out.is_file():
        # a FIFO or a device is written into; renaming a file over it would replace it
        with open(args.out, "w", encoding="utf-8") as handle:
            write(handle)
    else:
        # write beside the target and rename, so a failure leaves no partial
        # file and an existing one stays as it was
        tmp = args.out.with_name(f".{args.out.name}.{os.getpid()}.tmp")
        try:
            with open(tmp, "w", encoding="utf-8") as handle:
                write(handle)
            os.replace(tmp, args.out)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise
    if args.summary:
        report = hits.report(theta_grid.points, phi_grid.points, DEFAULT_MERGE_RADIUS)
        _print_extrema(report, sys.stderr)
    return 0


def _cmd_extrema(args: argparse.Namespace) -> int:
    from .extrema import DEFAULT_MERGE_RADIUS
    from .surface import read

    # this process runs no other thread, so read may fork a worker
    thetas, phis, hits = read(args.infile)
    radius = DEFAULT_MERGE_RADIUS if args.merge_radius is None else args.merge_radius
    _print_extrema(hits.report(thetas, phis, radius), sys.stdout)
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    from .checks import check_suite

    report = check_suite()
    if args.as_json:
        import json

        print(json.dumps(report.to_dict(), indent=2))
    else:
        for result in report.results:
            status = "PASS" if result.passed else "FAIL"
            print(f"{status} {result.name}: {result.detail}")
        total = len(report.results)
        good = sum(r.passed for r in report.results)
        print(f"{good}/{total} checks passed")
    return 0 if report.passed else 3


_COMMANDS = {
    "wigner-angle": _cmd_wigner_angle,
    "delta-e": _cmd_delta_e,
    "sweep": _cmd_sweep,
    "extrema": _cmd_extrema,
    "check": _cmd_check,
}


# BLAS starts a thread per core when numpy loads, and the engine has no product big
# enough for threads to pay (the largest are 36x36; the grid is elementwise)
_BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "GOTO_NUM_THREADS")


def main(argv: list[str] | None = None) -> int:
    # before any command loads numpy; a thread count the user sets wins
    if not any(name in os.environ for name in _BLAS_THREADS):
        os.environ["OMP_NUM_THREADS"] = "1"
    if argv is None:
        argv = sys.argv[1:]
    sys.stdout, sys.stderr = sys.stdout or _Closed(), sys.stderr or _Closed()
    parser = build_parser(argv)
    try:
        try:
            args = parser.parse_args(argv)
        except SystemExit as exc:  # --help paths
            code = int(exc.code or 0)
        else:
            code = _COMMANDS[args.command](args)
        # buffered output that cannot be written fails here, as a runtime error
        sys.stdout.flush()
        return code
    except _UsageError as exc:
        code, line = 1, f"usage error: {exc}"
    except (OSError, ValueError, MemoryError) as exc:
        code, line = 2, f"error: {exc}"
    try:
        print(line, file=sys.stderr)
    except OSError:
        pass  # a line that stderr cannot take is lost, not the exit code
    return code


def run() -> None:
    """The `spinboost` command: main on the process's arguments, then the process ends.

    Every file a command opens is closed when main returns, so the exit skips
    interpreter teardown. main has flushed stdout already: output that cannot
    be written is a runtime failure, exit 2, reported once.
    """
    code = main()
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except OSError:
        pass  # main has reported the failed write, or stderr cannot take the report
    os._exit(code)


if __name__ == "__main__":
    run()
