"""Command-line surface.

Subcommands: check, realize, spectrum, sample, trace, psi, verify.
Exit codes: 0 ok, 2 usage, 3 outside-region, 4 construction failure,
5 I/O failure.  Every command is deterministic: identical arguments give
byte-identical stdout and output files.  JSON output is strict: a
non-finite number prints as the string "inf", "-inf" or "nan".

At module level this imports only the standard library, ``errors`` and
``region`` (with ``matrix``), for the band's default ``region._BAND``; each
``cmd_*`` imports the functions it runs when it runs, so ``check`` never
loads the criterion, synthesis, identity or sampling code, nor numpy.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import re
import sys

from .errors import Cycle4Error
from .region import _BAND

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_OUTSIDE = 3
EXIT_CONSTRUCTION = 4
EXIT_IO = 5

_SAMPLE_HEADER = "index,alpha1,alpha2,alpha3,alpha4,re,im,status"
_TRACE_HEADER = "curve,param,re,im,G"
_VERDICT_HEADER = "re,im,status,a_check,right_check,g_check"
# Rows drawn, solved and classified per block.  One block is held at a
# time, so `sample`'s peak RSS, about 47 MB, does not grow with n.  Blocks
# of 4,096 to 65,536 rows ran `sample 100000` equally fast and peaked at
# 38 to 71 MB.
_SAMPLE_BLOCK = 16384
# Rows rendered per chunk: 2048 lines of 176 bytes (NULs included), held
# until written.  Over rounds of five `sample 2000` calls, 256 rows measured
# no faster, and 1024 and 2048 rows were slower and raised peak RSS by 1.1
# and 3.6 MB.
_SAMPLE_CHUNK = 512
# sample exits 3 if any eigenvalue is Outside at this band
_GATE_BAND = 1e-7


def _g17(value: float) -> str:
    """17 significant digits: guarantees exact float round-trips in CSV."""
    return format(float(value), ".17g")


def _number(text: str, low: float, kind: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan  # fails the range test below
    if not low < value < math.inf:
        raise argparse.ArgumentTypeError(f"expected a {kind} number, got {text!r}")
    return value


def _finite(text: str) -> float:
    """argparse type of coordinates and matrix parameters: a finite float."""
    return _number(text, -math.inf, "finite")


def _finite_positive(text: str) -> float:
    """argparse type of the band option: a finite float above 0."""
    return _number(text, 0.0, "finite positive")


def _write_text(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(text)


def _print_json(record: dict) -> None:
    """Print a record as strict JSON: JSON has no non-finite numbers, so a
    non-finite float value prints as the string "inf", "-inf" or "nan".
    Values inside lists are left as they are; every list holds finite floats."""
    finite = {k: str(v) if isinstance(v, float) and not math.isfinite(v) else v for k, v in record.items()}
    print(json.dumps(finite))


def cmd_check(args: argparse.Namespace) -> int:
    from .region import Status, membership

    lam = complex(args.re, args.im)
    verdict = membership(lam, args.tol_band)
    _print_json({"re": lam.real, "im": lam.imag, **verdict._asdict()})
    if args.out:
        row = ",".join(
            [
                _g17(lam.real),
                _g17(lam.imag),
                verdict.status.value,
                _g17(verdict.a_check),
                _g17(verdict.right_check),
                _g17(verdict.g_check),
            ]
        )
        _write_text(args.out, _VERDICT_HEADER + "\n" + row + "\n")
    return EXIT_OUTSIDE if verdict.status is Status.OUTSIDE else EXIT_OK


def cmd_realize(args: argparse.Namespace) -> int:
    from . import synthesis
    from .errors import OutsideRegion
    from .region import membership

    lam = complex(args.re, args.im)
    route = synthesis.realize_via_criterion if args.method == "criterion" else synthesis.realize
    try:
        result = route(lam, args.tol_band)
    except OutsideRegion:  # the route classified lam; classify again only to print why
        _print_json({"re": lam.real, "im": lam.imag, **membership(lam, args.tol_band)._asdict()})
        return EXIT_OUTSIDE
    _print_json(result.to_dict())
    return EXIT_OK


def cmd_spectrum(args: argparse.Namespace) -> int:
    from .matrix import CycleMatrix4, eigen_residual, spectrum

    matrix = CycleMatrix4((args.a1, args.a2, args.a3, args.a4))
    eigenvalues = spectrum(matrix)
    payload = {
        "alpha": list(matrix.alpha),
        "eigenvalues": [[lam.real, lam.imag] for lam in eigenvalues],
        "residuals": [eigen_residual(matrix, lam) for lam in eigenvalues],
    }
    _print_json(payload)
    return EXIT_OK


def cmd_sample(args: argparse.Namespace) -> int:
    import numpy as np

    from . import _sample_csv, sampling
    from .region import Status

    names = [status.value for status in Status]
    outside = names.index(Status.OUTSIDE.value)
    counts = np.zeros(len(names), dtype=np.int64)
    n_outside = 0
    with open(args.out, "wb") as handle:
        handle.write(_SAMPLE_HEADER.encode() + b"\n")
        for block in range(0, args.n, _SAMPLE_BLOCK):
            rows = min(_SAMPLE_BLOCK, args.n - block)
            alphas, eigenvalues, codes = sampling.sample_records(rows, args.seed, args.tol_band, block)
            for start in range(0, rows, _SAMPLE_CHUNK):
                chunk = slice(start, start + _SAMPLE_CHUNK)
                handle.write(_sample_csv.lines(block + start, alphas[chunk], eigenvalues[chunk], codes[chunk]))
            counts += np.bincount(codes.ravel(), minlength=len(names))
            # The pass/fail gate re-checks at the wide necessity band.  The
            # region only grows with the band, so at a narrower band only
            # the points already Outside can be Outside at the wide one.
            suspects = (codes == outside) | (args.tol_band > _GATE_BAND)
            wide = sampling.classify_points(eigenvalues.real[suspects], eigenvalues.imag[suspects], _GATE_BAND)
            n_outside += int((wide == outside).sum())

    print("verdicts: " + " ".join(f"{name}={count}" for name, count in sorted(zip(names, counts.tolist()))))
    if n_outside:
        print(f"outside at band {_GATE_BAND:g}: {n_outside}", file=sys.stderr)
        return EXIT_OUTSIDE
    return EXIT_OK


def cmd_trace(args: argparse.Namespace) -> int:
    from .region import left_boundary_form, trace_left_curve, trace_right_segment

    # Each curve is traced at most once; the SVG reuses the CSV's points.
    right = trace_right_segment(args.n)
    left = trace_left_curve(args.n) if args.curve != "CR" or args.svg else None
    points = right if args.curve == "CR" else left if args.curve == "CL" else right + left
    rows = [
        f"{p.curve},{_g17(p.param)},{_g17(p.point.real)},{_g17(p.point.imag)},{_g17(p.boundary_form)}"
        for p in points
    ]
    if args.curve == "region":
        for r in (-1.0, 1.0):
            rows.append(f"real,{_g17(r)},{_g17(r)},0,{_g17(left_boundary_form(r, 0.0))}")
    _write_text(args.out, _TRACE_HEADER + "\n" + "\n".join(rows) + "\n")
    if args.svg:
        from .figure import render_region_svg

        _write_text(args.svg, render_region_svg(right, left))
    return EXIT_OK


def cmd_psi(args: argparse.Namespace) -> int:
    from . import criterion

    ctx = criterion.make_context(complex(args.re, args.im))
    payload = {
        "m": ctx.lower_arg,
        "M": ctx.upper_arg,
        "regime": ctx.regime.value,
        "U": ctx.peak_arg,
        "maxPsi": ctx.max_psi,
    }
    _print_json(payload)
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    from .identities import verify_identity_suite

    results = verify_identity_suite()
    width = max(len(r.description) for r in results)
    failed = 0
    for r in results:
        print(f"{r.ident}  {r.description.ljust(width)}  {r.status}")
        if not r.ok:
            failed += 1
    print(f"identities: {len(results) - failed}/{len(results)} zero")
    return EXIT_CONSTRUCTION if failed else EXIT_OK


class _Parser(argparse.ArgumentParser):
    """argparse, with exponents in negative numbers: "-1e-3" is a value, not
    an unknown option, as "-0.001" is.  Subparsers are of the same class."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-(\d+|\d*\.\d+)([eE][-+]?\d+)?$")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process; in-process main() calls reuse it."""
    parser = _Parser(
        prog="cycle4",
        description=(
            "Spectral region of 4-cycle row-stochastic matrices: membership "
            "checks, realizing matrices, spectra, Monte Carlo sampling, "
            "boundary traces, and exact identity verification."
        ),
        epilog=(
            "Exit codes: 0 ok, 2 usage, 3 outside-region, 4 construction "
            "failure, 5 I/O failure. CSV floats carry 17 significant digits."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_tol(p: argparse.ArgumentParser) -> None:
        # the band decides verdicts only, so only the commands that print them take it
        p.add_argument("--tol-band", type=_finite_positive, default=_BAND,
                       help="boundary band half-width (default 1e-9)")

    p = sub.add_parser("check", help="classify a point against the region")
    p.add_argument("re", type=_finite)
    p.add_argument("im", type=_finite)
    p.add_argument("--out", default=None, help=f"optional verdict CSV ({_VERDICT_HEADER})")
    add_tol(p)

    p = sub.add_parser("realize", help="construct a matrix with the point in its spectrum")
    p.add_argument("re", type=_finite)
    p.add_argument("im", type=_finite)
    p.add_argument("--method", choices=("auto", "criterion"), default="auto")
    add_tol(p)

    p = sub.add_parser("spectrum", help="eigenvalues of the matrix with the given parameters")
    p.add_argument("a1", type=_finite)
    p.add_argument("a2", type=_finite)
    p.add_argument("a3", type=_finite)
    p.add_argument("a4", type=_finite)

    p = sub.add_parser(
        "sample",
        help="sample n random matrices, write all eigenvalues with verdicts as CSV",
        description=f"CSV columns: {_SAMPLE_HEADER}. Row i is reproducible from (seed, i).",
    )
    p.add_argument("n", type=int)
    p.add_argument("seed", type=int)
    p.add_argument("out")
    add_tol(p)

    p = sub.add_parser(
        "trace",
        help="trace boundary curves to CSV (and optionally the region SVG)",
        description=f"CSV columns: {_TRACE_HEADER}.",
    )
    p.add_argument("curve", choices=("CR", "CL", "region"))
    p.add_argument("n", type=int)
    p.add_argument("out")
    p.add_argument("--svg", default=None, help="also render the closed region as SVG")

    p = sub.add_parser("psi", help="criterion diagnostics for an upper-half-plane point")
    p.add_argument("re", type=_finite)
    p.add_argument("im", type=_finite)

    sub.add_parser("verify", help="run the exact identity suite")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "n", None) is not None and args.n < 1:
        parser.error("n must be >= 1")
    if args.command == "trace" and args.n < 2:
        parser.error("trace needs n >= 2")
    if args.command == "sample" and not 0 <= args.seed < 2**128:
        parser.error("seed must be in [0, 2**128)")
    # cmd_* is looked up per call, not stored in the cached parser, so a
    # function replaced on this module after the first call still runs
    command = globals()["cmd_" + args.command]
    try:
        return command(args)
    except (Cycle4Error, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONSTRUCTION
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
