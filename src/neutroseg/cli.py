"""Command-line front end.

Subcommands: ``curve`` writes the entropy sweep as text, ``threshold``
prints the selected thresholds, ``segment`` writes the repainted image,
``axioms`` runs the built-in property suite. Diagnostics go to stderr,
and are dropped when it is closed; data goes to ``--out`` or stdout. Exit
codes: 0 success, 1 usage error, 2 input or domain error (including running
out of memory), 3 violated internal invariant.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
import tempfile
from contextlib import AbstractContextManager, ExitStack, contextmanager, nullcontext
from itertools import chain
from typing import BinaryIO, Callable, Iterator, Optional, Sequence

from . import axioms as axioms_mod
from . import imgio
from .errors import NeutrosegError
from .segment import _level_paint, segment
from .sweep import (
    MAX_Q,
    ThresholdSet,
    build_histogram,
    entropy_curve,
    find_thresholds,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INPUT = 2
EXIT_INVARIANT = 3

_LOW_CONFIDENCE_SAMPLES = 1000


class _ParserExit(Exception):
    """Where argparse would exit: after ``-h`` (status 0) or a usage error."""

    def __init__(self, status: int, message: Optional[str] = None):
        super().__init__(status, message)
        self.status = status
        self.message = message


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # noqa: A003 - argparse hook
        usage = self.format_usage()
        raise _ParserExit(EXIT_USAGE, f"error: {self.prog}: {message}\n{usage}")

    def exit(self, status=0, message=None):  # noqa: A003 - argparse hook
        raise _ParserExit(status, message)


def _int_in(lo: int, hi: Optional[int] = None) -> Callable[[str], int]:
    """Argparse type: an ASCII decimal int, optionally negative, from ``lo`` to ``hi``.

    ``hi`` None sets no upper bound. Other spellings that ``int()`` takes
    (``+7``, ``1_000``, blanks, non-ASCII digits) are malformed.
    """

    def parse(text: str) -> int:
        try:
            if not re.fullmatch("-?[0-9]+", text):
                raise ValueError
            value = int(text)
        except ValueError:  # malformed, or over int()'s digit limit
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < lo:
            raise argparse.ArgumentTypeError(f"must be at least {lo}")
        if hi is not None and value > hi:
            raise argparse.ArgumentTypeError(f"must be at most {hi}")
        return value

    return parse


def _build_parser() -> _Parser:
    parser = _Parser(prog="neutroseg", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    # a command that selects thresholds takes --max-thresholds and --curve-out
    for name, help_, run, selects in (
        ("curve", "write the entropy curve as comma-separated text", cmd_curve, False),
        ("threshold", "print thresholds at entropy minima", cmd_threshold, True),
        ("segment", "write the image repainted with region means", cmd_segment, True),
    ):
        p = sub.add_parser(name, help=help_)
        p.set_defaults(run=run)
        p.add_argument("input", help="input PGM image (P2 or P5)")
        p.add_argument(
            "--q",
            type=_int_in(2, MAX_Q),
            default=255,
            help=f"threshold grid steps (2 to {MAX_Q})",
        )
        if selects:
            p.add_argument(
                "--max-thresholds",
                type=_int_in(1),
                default=8,
                help="cap on reported minima",
            )
        p.add_argument("--out", help="output path (default: stdout)")
        if selects:
            p.add_argument("--curve-out", help="also write the entropy curve here")

    ax = sub.add_parser("axioms", help="run the entropy property suite")
    ax.set_defaults(run=cmd_axioms)
    ax.add_argument("--seed", type=_int_in(0), default=0, help="sample seed")
    ax.add_argument(
        "--samples",
        type=_int_in(1),
        default=axioms_mod.DEFAULT_SAMPLES,
        help="draws per property check",
    )
    return parser


def _note(line: str) -> None:
    """Write ``line`` to stderr, or drop it when stderr is closed or failing.

    A process started without fd 2 has ``sys.stderr`` None, and ``print``
    would then write the line to stdout.
    """
    if sys.stderr is not None:
        try:
            print(line, file=sys.stderr)
        except OSError:
            pass


# Stdout, and a path that names something other than a regular file
# (/dev/null, a FIFO), get each write as it is made. Any other path is
# written to an unnamed file in its directory, which is copied into the path
# only when the block exits without an exception, so a failed run leaves the
# path as it was; a copy, unlike a rename, keeps its inode, mode and links.
# An existing target is opened for writing on entry, and truncated only at
# the copy, so a target that cannot be written ends the run before any work.
@contextmanager
def _output(path: Optional[str]) -> Iterator[BinaryIO]:
    """A binary file whose bytes go to ``path``, or to stdout when it is None."""
    if path is None:
        if sys.stdout is None:
            raise OSError("standard output is closed")
        yield sys.stdout.buffer
        sys.stdout.buffer.flush()
    elif not os.path.basename(path):
        raise OSError(f"output path {path!r} names no file")
    elif os.path.exists(path) and not os.path.isfile(path):
        with open(path, "wb") as fh:
            yield fh
    else:
        with ExitStack() as stack:
            target = None
            if os.path.isfile(path):
                fd = os.open(path, os.O_WRONLY)
                target = stack.enter_context(open(fd, "wb", buffering=0))
            try:
                tmp = tempfile.TemporaryFile(dir=os.path.dirname(path) or os.curdir)
            except OSError as exc:  # named the directory or a random file in it
                raise OSError(exc.errno, exc.strerror, path) from None
            stack.enter_context(tmp)
            yield tmp
            tmp.flush()
            size = tmp.tell()
            if target is None:
                target = stack.enter_context(open(path, "wb", buffering=0))
            else:
                target.truncate(0)
            # in the kernel, not through a buffer in this process; each
            # call moves the target's offset, which tell() reads
            while (done := target.tell()) < size:
                if not os.sendfile(target.fileno(), tmp.fileno(), done, size - done):
                    raise OSError(f"{path}: copied {done} of {size} bytes")


def _curve_output(path: Optional[str]) -> AbstractContextManager:
    """``--curve-out`` staged as :func:`_output` does; nothing when absent."""
    return nullcontext() if path is None else _output(path)


def _pipeline(args: argparse.Namespace, image, curve_out) -> ThresholdSet:
    """The thresholds selected on ``image``'s curve, written to ``curve_out``."""
    curve = entropy_curve(build_histogram(image, q=args.q))
    if curve_out:
        curve_out.writelines(imgio._curve_parts(curve))
    found = find_thresholds(curve, max_thresholds=args.max_thresholds)
    if found.fallback_used:
        _note(
            "warning: no interior entropy minimum; reporting the center of the"
            " lowest plateau"
        )
    return found


def _threshold_line(t: float, q: int, depth: int) -> str:
    """``t = k/q`` and the gray level nearest ``t*(depth-1)``, halves up."""
    k = round(t * q)  # exact: t is k/q, correctly rounded
    return f"{t:.6f} {(2 * k * (depth - 1) + q) // (2 * q)}"


# Every command stages its outputs before it opens the input, so an output
# that cannot be made ends the run before any work. --curve-out is entered
# after --out, so it is put in place first and the PGM wins when both name
# one file; neither is put in place before the input's last read, so
# either may name the input.


def cmd_curve(args: argparse.Namespace) -> int:
    with _output(args.out) as out, imgio._p5_file(args.input) as fh:
        curve = entropy_curve(build_histogram(imgio._P5File(fh), q=args.q))
        _note(f"candidates: {len(curve)}")
        # streamed a block of rows at a time, never held as one text
        out.writelines(imgio._curve_parts(curve))
    return EXIT_OK


def cmd_threshold(args: argparse.Namespace) -> int:
    with _output(args.out) as out, _curve_output(args.curve_out) as curve_out:
        with imgio._p5_file(args.input) as fh:
            image = imgio._P5File(fh)
            found = _pipeline(args, image, curve_out)
        lines = [_threshold_line(t, args.q, image.depth) for t in found.thresholds]
        out.write(("\n".join(lines) + "\n").encode("utf-8"))
    return EXIT_OK


def cmd_segment(args: argparse.Namespace) -> int:
    with _output(args.out) as out, _curve_output(args.curve_out) as curve_out:
        # the raster is left in a P5 file (imgio._P5File), the input itself
        # or a temporary copy of it, and read again as the repaint is written
        with imgio._p5_file(args.input) as fh:
            image = imgio._P5File(fh)
            found = _pipeline(args, image, curve_out)
            seg = segment(image, found.thresholds)
            for t in seg.thresholds:
                _note(f"threshold {_threshold_line(t, args.q, image.depth)}")
            for v, n in zip(seg.region_values, seg.region_counts):
                _note(f"region {v:.6f} {n}")
            # the repaint keeps the input's size and depth, so its header;
            # the raster is streamed in chunks, never held whole
            header = imgio._pgm_header(image.width, image.height, image.depth)
            raster = image._lookup_slices(_level_paint(seg))
            out.writelines(chain([header], raster))
    return EXIT_OK


def cmd_axioms(args: argparse.Namespace) -> int:
    if args.samples < _LOW_CONFIDENCE_SAMPLES:
        _note(f"note: {args.samples} samples per check gives reduced confidence")
    checks = axioms_mod.run_axiom_checks(samples=args.samples, seed=args.seed)
    lines = [
        f"{'PASS' if c.passed else 'FAIL'} {c.name}: worst deviation {c.worst:.3g}"
        f" (tolerance {c.tolerance:g}, samples {c.samples})\n"
        for c in checks
    ]
    with _output(None) as out:
        out.write("".join(lines).encode("utf-8"))
    if all(c.passed for c in checks):
        return EXIT_OK
    _note("error: entropy property violated")
    return EXIT_INVARIANT


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Parse ``argv`` and run one subcommand, returning the exit code."""
    try:
        args = _build_parser().parse_args(argv)
    except _ParserExit as exc:
        if exc.message:
            _note(exc.message)
        return exc.status
    try:
        return args.run(args)
    except (NeutrosegError, OSError) as exc:
        _note(f"error: {exc}")
        return EXIT_INPUT
    except MemoryError:
        _note("error: out of memory")
        return EXIT_INPUT


def entry() -> None:
    """Console-script hook."""
    sys.exit(main())


if __name__ == "__main__":
    entry()
