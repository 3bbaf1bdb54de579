"""Command-line front end.

Subcommands: ``curve`` writes the entropy sweep as text, ``threshold``
prints the selected thresholds, ``segment`` writes the repainted image,
``axioms`` runs the built-in property suite. Diagnostics go to stderr;
data goes to ``--out`` or stdout. Exit codes: 0 success, 1 usage error,
2 input or domain error (including running out of memory), 3 violated
internal invariant.
"""

from __future__ import annotations

import argparse
import math
import sys
from typing import Optional, Sequence

from . import axioms as axioms_mod
from . import imgio
from .errors import NeutrosegError
from .image import GrayImage
from .segment import Segmentation, render, segment
from .sweep import EntropyCurve, ThresholdSet, build_histogram, entropy_curve, find_thresholds

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INPUT = 2
EXIT_INVARIANT = 3

_LOW_CONFIDENCE_SAMPLES = 1000


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # noqa: A003 - argparse hook
        raise _UsageError(f"{self.prog}: {message}\n{self.format_usage()}")


def _build_parser() -> _Parser:
    parser = _Parser(prog="neutroseg", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def image_command(name: str, help_: str) -> _Parser:
        p = sub.add_parser(name, help=help_)
        p.add_argument("input", help="input PGM image (P2 or P5)")
        p.add_argument("--q", type=int, default=255, help="threshold grid steps")
        p.add_argument(
            "--max-thresholds", type=int, default=8, help="cap on reported minima"
        )
        p.add_argument("--out", help="output path (default: stdout)")
        return p

    image_command("curve", "write the entropy curve as comma-separated text")
    thr = image_command("threshold", "print thresholds at entropy minima")
    seg = image_command("segment", "write the image repainted with region means")
    for p in (thr, seg):
        p.add_argument("--curve-out", help="also write the entropy curve here")

    ax = sub.add_parser("axioms", help="run the entropy property suite")
    ax.add_argument("--seed", type=int, default=0, help="sample seed")
    ax.add_argument(
        "--samples",
        type=int,
        default=axioms_mod.DEFAULT_SAMPLES,
        help="draws per property check",
    )
    return parser


def _check_args(parser: _Parser, args: argparse.Namespace) -> None:
    if args.command == "axioms":
        if args.samples < 1:
            parser.error("--samples must be positive")
    elif args.q < 2:
        parser.error("--q must be at least 2")
    elif args.max_thresholds < 1:
        parser.error("--max-thresholds must be at least 1")


def _emit(data: bytes, path: Optional[str]) -> None:
    if path is None:
        sys.stdout.buffer.write(data)
        sys.stdout.buffer.flush()
    else:
        with open(path, "wb") as fh:
            fh.write(data)


def _image_curve(args: argparse.Namespace) -> tuple[GrayImage, EntropyCurve]:
    image = imgio.load_pgm(args.input)
    return image, entropy_curve(build_histogram(image, q=args.q))


def _pipeline(args: argparse.Namespace) -> tuple[GrayImage, EntropyCurve, ThresholdSet]:
    image, curve = _image_curve(args)
    found = find_thresholds(curve, max_thresholds=args.max_thresholds)
    if found.fallback_used:
        print(
            "warning: no interior entropy minimum; reporting the center of the"
            " lowest plateau",
            file=sys.stderr,
        )
    return image, curve, found


def _threshold_line(t: float, depth: int) -> str:
    level = math.floor(t * (depth - 1) + 0.5)
    return f"{t:.6f} {level}"


def cmd_curve(args: argparse.Namespace) -> int:
    _, curve = _image_curve(args)
    print(f"candidates: {len(curve)}", file=sys.stderr)
    _emit(imgio.write_curve(curve), args.out)
    return EXIT_OK


def cmd_threshold(args: argparse.Namespace) -> int:
    image, curve, found = _pipeline(args)
    if args.curve_out:
        imgio.save_curve(args.curve_out, curve)
    lines = [_threshold_line(t, image.depth) for t in found.thresholds]
    _emit(("\n".join(lines) + "\n").encode("utf-8"), args.out)
    return EXIT_OK


def _report_segmentation(seg: Segmentation, depth: int) -> None:
    for t in seg.thresholds:
        print(f"threshold {_threshold_line(t, depth)}", file=sys.stderr)
    for v, n in zip(seg.region_values, seg.region_counts):
        print(f"region {v:.6f} {n}", file=sys.stderr)


def cmd_segment(args: argparse.Namespace) -> int:
    image, curve, found = _pipeline(args)
    if args.curve_out:
        imgio.save_curve(args.curve_out, curve)
    seg = segment(image, found.thresholds)
    _report_segmentation(seg, image.depth)
    _emit(imgio.write_pgm(render(seg, image)), args.out)
    return EXIT_OK


def cmd_axioms(args: argparse.Namespace) -> int:
    if args.samples < _LOW_CONFIDENCE_SAMPLES:
        print(
            f"note: {args.samples} samples per check gives reduced confidence",
            file=sys.stderr,
        )
    checks = axioms_mod.run_axiom_checks(samples=args.samples, seed=args.seed)
    for c in checks:
        verdict = "PASS" if c.passed else "FAIL"
        print(
            f"{verdict} {c.name}: worst deviation {c.worst:.3g}"
            f" (tolerance {c.tolerance:g}, samples {c.samples})"
        )
    if all(c.passed for c in checks):
        return EXIT_OK
    print("error: entropy property violated", file=sys.stderr)
    return EXIT_INVARIANT


_HANDLERS = {
    "curve": cmd_curve,
    "threshold": cmd_threshold,
    "segment": cmd_segment,
    "axioms": cmd_axioms,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Parse ``argv`` and run one subcommand, returning the exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        _check_args(parser, args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        return _HANDLERS[args.command](args)
    except (NeutrosegError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return EXIT_INPUT


def entry() -> None:
    """Console-script hook."""
    sys.exit(main())
