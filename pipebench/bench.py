"""In-process passes, CLI passes and output checks of one benchmark run.

Imported by ``run.py`` after it has started the CLI launcher, because this
module imports numpy and the package under test.
"""

from __future__ import annotations

import importlib.util
import os
import platform
import statistics
import sys
import time
import tracemalloc
from collections import defaultdict
from pathlib import Path

import numpy as np

import checks
import neutroseg as ns
import neutroseg.cli  # noqa: F401 - compiled here, not by the first CLI child
import workloads

SETUP_REPEATS = 5
IMPORT_PROBES = 7
CLI_MAIN = "import sys; from neutroseg.cli import main; sys.exit(main())"
AXIOM_NAMES = (
    "certainty-corners",
    "balanced-entropy",
    "truth-falsity-symmetry",
    "uncertainty-monotonicity",
    "escort-normalization",
    "no-contradiction",
)
EXACT_AXIOMS = ("certainty-corners", "truth-falsity-symmetry")


# The host's speed moves between levels about 2x apart for seconds to minutes
# at a time, and whole runs can meet only the slow one, so the pass metrics
# scale each operation by a fixed calibration kernel timed around it (see
# README, "Noise, calibration and bounds"). The kernel is a fixed mix of
# interpreter-bound work (splitting decimal text into tokens a byte at a time,
# as a P2 decoder does) and array work (a sort and an elementwise sum).
_CAL_TEXT = b" ".join(b"%d" % v for v in range(20_000))
_CAL_ARRAY = np.random.default_rng(0).random(300_000)
# The kernel's time on the reference machine at its fastest (see README).
CAL_REF_S = 0.025


def calibrate() -> float:
    """Seconds the calibration kernel takes now."""
    start = time.perf_counter()
    text, n, i = _CAL_TEXT, len(_CAL_TEXT), 0
    tokens = []
    while i < n:
        j = i
        while j < n and not text[j : j + 1].isspace():
            j += 1
        tokens.append(text[i:j])
        i = j + 1
    for _ in range(3):
        np.sort(_CAL_ARRAY)
        (_CAL_ARRAY * 3.0 + 1.0).sum()
    return time.perf_counter() - start


def at_reference(seconds: float, before: float | None) -> float:
    """``seconds`` as the reference machine would take them at its fastest,
    from the calibration kernel timed just before (``before``) and now."""
    if before is None:
        return seconds
    return seconds * CAL_REF_S / (0.5 * (before + calibrate()))


def pass_time(passes: list[list[float]]) -> float:
    """Sum over the operations of a pass of each one's median over passes."""
    return sum(statistics.median(op) for op in zip(*passes))


class Untraced:
    """Calls straight through; the timed passes use it."""

    def call(self, name, fn, *args, peak=None):
        return fn(*args)


class Tracer:
    """Wall time of every public call, and tracemalloc peaks of chosen ones."""

    def __init__(self):
        self.seconds = defaultdict(float)
        self.peak_bytes = defaultdict(int)

    def call(self, name, fn, *args, peak=None):
        if peak:
            tracemalloc.start()
        start = time.perf_counter()
        try:
            return fn(*args)
        finally:
            self.seconds[name] += time.perf_counter() - start
            if peak:
                used = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
                self.peak_bytes[peak] = max(self.peak_bytes[peak], used)


class Reference:
    """Expected outputs for one input, computed by ``checks`` and kept."""

    def __init__(self, inp):
        self.inp = inp
        q = inp.spec.q
        self.lcounts = checks.level_counts(inp.levels, inp.depth)
        self.qhist = checks.reference_histogram(self.lcounts, inp.depth, q)
        self.curve = checks.reference_curve(self.qhist, q)
        self.ks = None  # grid steps of the thresholds, once a pass has checked them
        self._tables = {}

    def steps(self) -> list[int]:
        if self.ks is None:
            t, _ = checks.select_thresholds(
                self.curve[:, 4], self.curve[:, 0], workloads.MAX_THRESHOLDS
            )
            return checks.grid_steps(t, self.inp.spec.q)
        return self.ks

    def table(self, ks: list[int]):
        key = tuple(ks)
        if key not in self._tables:
            self._tables[key] = checks.repaint_table(
                self.lcounts, ks, self.inp.spec.q, self.inp.depth
            )
        return self._tables[key]


class Bench:
    """One run of one workload: set-up, rounds, checks and metrics."""

    def __init__(self, args, launcher, workdir: Path):
        self.args = args
        self.wl = workloads.WORKLOADS[args.workload]
        self.launcher = launcher
        self.workdir = workdir
        self.inputs = []
        self.refs = []
        self.axioms_ref = None
        self.counts = None  # work counts of one pass, which must repeat exactly
        self.attempted = 0
        self.failed = 0
        self.problems = []

    # ------------------------------------------------------------ set-up

    def setup(self) -> float:
        """Generate and write the inputs, then warm up; return the seconds taken."""
        start = time.perf_counter()
        self.inputs = workloads.make_inputs(self.wl, self.args.seed, self.workdir)
        if self.wl.command == "axioms":
            ns.run_axiom_checks(samples=10_000, seed=self.args.seed)
        else:
            self.image_op(self.inputs[0], Untraced())
        return time.perf_counter() - start

    # ------------------------------------------------------ in-process ops

    def image_op(self, inp, tr) -> dict:
        image = tr.call("imgio.read_pgm", ns.read_pgm, inp.data)
        hist = tr.call("sweep.build_histogram", ns.build_histogram, image, inp.spec.q)
        curve = tr.call("sweep.entropy_curve", ns.entropy_curve, hist, peak="sweep")
        found = tr.call(
            "sweep.find_thresholds", ns.find_thresholds, curve, workloads.MAX_THRESHOLDS
        )
        out = {"image": image, "hist": hist, "curve": curve, "found": found}
        if self.wl.command == "segment":
            seg = tr.call("segment.segment", ns.segment, image, found.thresholds, peak="segment")
            painted = tr.call("segment.render", ns.render, seg, image, peak="segment")
            out["painted"] = painted
            out["pgm"] = tr.call("imgio.write_pgm", ns.write_pgm, painted)
        if self.wl.curve_out:
            out["csv"] = tr.call("imgio.write_curve", ns.write_curve, curve)
        return out

    def check_image_op(self, out: dict, inp, ref: Reference) -> list[str]:
        q = inp.spec.q
        problems = []
        image = out["image"]
        if (image.width, image.height, image.depth) != (inp.spec.side, inp.spec.side, inp.depth):
            problems.append(f"decoded {image.width}x{image.height} depth {image.depth}")
        elif not np.array_equal(image.levels, inp.levels):
            problems.append("decoded levels differ from the encoded ones")
        hist = out["hist"]
        problems += checks.check_histogram(hist.counts, hist.total, ref.qhist)
        c = out["curve"]
        problems += checks.check_curve(c.t, c.e_t, c.e_i, c.e_f, c.total, ref.curve, q)
        found = out["found"]
        problems += checks.check_thresholds(
            found.thresholds, found.fallback_used, c.total, c.t, workloads.MAX_THRESHOLDS
        )
        ks = checks.grid_steps(found.thresholds, q)
        if not problems and ref.ks is None:
            ref.ks = ks
        if "pgm" in out:
            table = ref.table(ks)
            problems += checks.check_repaint(out["painted"].levels, inp.levels, table)
            problems += checks.check_pgm(
                out["pgm"], inp.spec.side, inp.spec.side, inp.depth, inp.levels, table
            )
        if "csv" in out:
            problems += checks.check_curve_csv(out["csv"], ref.curve)
        return problems

    def check_axioms(self, results) -> list[str]:
        by_name = {c.name: c for c in results}
        if tuple(c.name for c in results) != AXIOM_NAMES:
            return [f"axiom checks {[c.name for c in results]}, expected {list(AXIOM_NAMES)}"]
        problems = [f"axiom check {c.name} failed" for c in results if not c.passed]
        problems += [
            f"{n} worst deviation {by_name[n].worst!r}, expected exactly 0"
            for n in EXACT_AXIOMS
            if by_name[n].worst != 0.0
        ]
        want = workloads.AXIOM_SAMPLES
        problems += [
            f"{c.name} drew {c.samples} samples, expected {want}"
            for c in results
            if c.name != "certainty-corners" and c.samples != want
        ]
        return problems

    def inprocess_pass(self, tr, scaled=False) -> tuple[list[float], dict]:
        """One pass through the library: the wall time of each operation,
        checks excluded (at reference speed if ``scaled``), and the pass's
        work counts."""
        times = []
        counts = defaultdict(int)
        if self.wl.command == "axioms":
            self.attempted += 1
            before = calibrate() if scaled else None
            start = time.perf_counter()
            try:
                results = tr.call(
                    "axioms.run_axiom_checks",
                    ns.run_axiom_checks,
                    workloads.AXIOM_SAMPLES,
                    self.args.seed,
                )
            except Exception as exc:  # a failed operation is counted, not fatal
                self.fail("run_axiom_checks", exc)
                return [at_reference(time.perf_counter() - start, before)], counts
            times.append(at_reference(time.perf_counter() - start, before))
            self.report("run_axiom_checks", self.check_axioms(results))
            if self.axioms_ref is None:
                self.axioms_ref = results
            counts["axioms.draws"] = sum(c.samples for c in results)
            return times, counts
        for inp, ref in zip(self.inputs, self.refs):
            self.attempted += 1
            before = calibrate() if scaled else None
            start = time.perf_counter()
            try:
                out = self.image_op(inp, tr)
            except Exception as exc:
                times.append(at_reference(time.perf_counter() - start, before))
                self.fail(f"pipeline on {inp.path.name}", exc)
                continue
            times.append(at_reference(time.perf_counter() - start, before))
            self.report(f"pipeline on {inp.path.name}", self.check_image_op(out, inp, ref))
            curve = out["curve"]
            occupied = int(np.count_nonzero(out["hist"].counts))
            counts["imgio.bytes_in"] += len(inp.data)
            counts["imgio.bytes_out"] += len(out.get("pgm", b"")) + len(out.get("csv", b""))
            counts["image.levels_bytes_per_pixel"] = max(
                counts["image.levels_bytes_per_pixel"], out["image"].levels.itemsize
            )
            counts["sweep.candidates"] += len(curve)
            counts["sweep.occupied_bins"] += occupied
            counts["sweep.grid_cells"] += len(curve) * occupied
            if "painted" in out:
                counts["segment.regions"] += len(out["found"].thresholds) + 1
            del out
        return times, counts

    # ------------------------------------------------------------ CLI ops

    def cli_pass(self) -> tuple[list[float], float]:
        """The same pass as fresh CLI processes: the wall time of each child
        at reference speed, and the largest peak RSS among them."""
        walls = []
        peak_kb = 0
        py = sys.executable
        stdout = self.workdir / "cli.stdout"
        stderr = self.workdir / "cli.stderr"
        if self.wl.command == "axioms":
            ops = [(None, None, [py, "-c", CLI_MAIN, "axioms", "--seed", str(self.args.seed),
                                 "--samples", str(workloads.AXIOM_SAMPLES)])]
        else:
            ops = []
            for inp, ref in zip(self.inputs, self.refs):
                argv = [py, "-c", CLI_MAIN, self.wl.command, str(inp.path),
                        "--q", str(inp.spec.q),
                        "--max-thresholds", str(workloads.MAX_THRESHOLDS),
                        "--out", str(self.workdir / "out.data")]
                if self.wl.curve_out:
                    argv += ["--curve-out", str(self.workdir / "curve.csv")]
                ops.append((inp, ref, argv))
        for inp, ref, argv in ops:
            self.attempted += 1
            what = f"CLI {argv[3]}" + (f" on {inp.path.name}" if inp else "")
            before = calibrate()
            res = self.launcher.run(argv, stdout, stderr)
            walls.append(at_reference(res["wall_s"], before))
            peak_kb = max(peak_kb, res["maxrss_kb"])
            if res["exit"] != 0:
                tail = stderr.read_text(errors="replace")[-400:]
                self.fail(what, f"exit code {res['exit']}: {tail}")
                continue
            if inp is None:
                self.report(what, self.check_cli_axioms(stdout.read_text()))
            else:
                self.report(what, self.check_cli_image(inp, ref, stderr.read_text()))
        return walls, peak_kb / 1024.0

    def check_cli_image(self, inp, ref: Reference, stderr_text: str) -> list[str]:
        ks = ref.steps()
        lines = checks.threshold_lines(ks, inp.spec.q, inp.depth)
        out = (self.workdir / "out.data").read_bytes()
        problems = []
        if self.wl.command == "segment":
            problems += checks.check_pgm(
                out, inp.spec.side, inp.spec.side, inp.depth, inp.levels, ref.table(ks)
            )
            reported = [
                ln[len("threshold "):]
                for ln in stderr_text.splitlines()
                if ln.startswith("threshold ")
            ]
            if reported != lines:
                problems.append(f"CLI reported thresholds {reported}, expected {lines}")
        elif out != ("\n".join(lines) + "\n").encode("ascii"):
            problems.append(f"CLI printed {out[:200]!r}, expected lines {lines}")
        if self.wl.curve_out:
            problems += checks.check_curve_csv((self.workdir / "curve.csv").read_bytes(), ref.curve)
        return problems

    def check_cli_axioms(self, text: str) -> list[str]:
        lines = text.splitlines()
        names = [ln.split()[1].rstrip(":") if len(ln.split()) > 1 else "" for ln in lines]
        if tuple(names) != AXIOM_NAMES:
            return [f"CLI axioms printed {names}, expected {list(AXIOM_NAMES)}"]
        problems = [f"CLI axioms: {ln}" for ln in lines if not ln.startswith("PASS ")]
        problems += [
            f"CLI axioms: {ln}"
            for ln, n in zip(lines, names)
            if n in EXACT_AXIOMS and " worst deviation 0 (" not in ln
        ]
        if self.axioms_ref is not None:
            for ln, c in zip(lines, self.axioms_ref):
                if f" worst deviation {c.worst:.3g} " not in ln:
                    problems.append(f"CLI axioms line {ln!r} differs from the library's {c.worst:.3g}")
        return problems

    def import_probe(self) -> float:
        """Seconds a fresh interpreter spends importing the package."""
        py = sys.executable
        out = self.workdir / "probe.out"
        bare = self.launcher.run([py, "-c", "pass"], out, out)
        full = self.launcher.run([py, "-c", "import neutroseg.cli"], out, out)
        if bare["exit"] or full["exit"]:
            self.problems.append("the import probe failed")
        return full["wall_s"] - bare["wall_s"]

    # ---------------------------------------------------------- bookkeeping

    def fail(self, what: str, exc) -> None:
        self.failed += 1
        print(f"failed: {what}: {exc!r}", file=sys.stderr)

    def report(self, what: str, problems: list[str]) -> None:
        for p in problems:
            self.problems.append(f"{what}: {p}")
            print(f"wrong output: {what}: {p}", file=sys.stderr)

    # ---------------------------------------------------------------- runs

    def run(self) -> dict:
        numba = "present" if importlib.util.find_spec("numba") else "absent"
        print(
            f"python {platform.python_version()}, numpy {np.__version__},"
            f" numba {numba}, {os.cpu_count()} cpus",
            file=sys.stderr,
        )
        setups = [self.setup()]
        self.refs = [Reference(inp) for inp in self.inputs]
        rounds = defaultdict(list)
        op_times = defaultdict(list)  # per pass, each operation's time at reference speed
        deadline = time.perf_counter() + self.args.seconds
        while True:
            # the later set-ups are spread over the first rounds, so that their
            # median samples the machine's speed over the run, not its first second
            if rounds and len(setups) < SETUP_REPEATS:
                setups.append(self.setup())
                deadline += setups[-1]
            if self.args.trace:
                self.traced_round(rounds)
            else:
                for _ in range(self.wl.passes):
                    op_times["pipeline_s"].append(self.inprocess_pass(Untraced(), True)[0])
                walls, rss = self.cli_pass()
                op_times["cli_s"].append(walls)
                rounds["cli_peak_rss_mb"].append(rss)
            if time.perf_counter() >= deadline:
                break
        setups += [self.setup() for _ in range(SETUP_REPEATS - len(setups))]
        if self.args.trace:
            # after the rounds, so that no pass follows the probes' children
            rounds["import_s"] = [self.import_probe() for _ in range(IMPORT_PROBES)]
        med = {k: statistics.median(v) for k, v in rounds.items()}
        print(f"setup_s {[round(s, 4) for s in setups]}", file=sys.stderr)
        for key in ("pipeline_s", "traced_s"):
            if key in rounds:
                print(f"{key} per pass {[round(s, 4) for s in rounds[key]]}", file=sys.stderr)
        for key, passes in op_times.items():
            print(f"{key} per pass {[round(sum(p), 4) for p in passes]}", file=sys.stderr)
        if self.args.trace:
            return self.layer_metrics(med)
        return {
            "setup_s": (statistics.median(setups), "s"),
            "pipeline_s": (pass_time(op_times["pipeline_s"]), "s"),
            "cli_s": (pass_time(op_times["cli_s"]), "s"),
            "cli_peak_rss_mb": (med["cli_peak_rss_mb"], "MB"),
        }

    def traced_round(self, rounds) -> None:
        # alternate which pass goes first, so that neither is always the warmer
        tr = Tracer()
        if len(rounds["pipeline_s"]) % 2:
            traced, counts = self.inprocess_pass(tr)
            untraced, again = self.inprocess_pass(Untraced())
        else:
            untraced, again = self.inprocess_pass(Untraced())
            traced, counts = self.inprocess_pass(tr)
        traced, untraced = sum(traced), sum(untraced)
        if self.counts is None:
            self.counts = counts
        if not counts == again == self.counts:
            self.problems.append(f"work counts differ between passes: {counts} {again}")
        rounds["pipeline_s"].append(untraced)
        rounds["traced_s"].append(traced)
        for name, s in tr.seconds.items():
            rounds[name].append(s)
        for name, b in tr.peak_bytes.items():
            rounds[f"peak.{name}"].append(b / 1e6)
        read_s = tr.seconds.get("imgio.read_pgm", 0.0)
        sweep_s = tr.seconds.get("sweep.entropy_curve", 0.0)
        axioms_s = tr.seconds.get("axioms.run_axiom_checks", 0.0)
        rounds["read_rate"].append(counts["imgio.bytes_in"] / 1e6 / read_s if read_s else 0.0)
        rounds["cell_rate"].append(counts["sweep.grid_cells"] / sweep_s if sweep_s else 0.0)
        rounds["draw_rate"].append(counts["axioms.draws"] / axioms_s if axioms_s else 0.0)

    def layer_metrics(self, med: dict) -> dict:
        def m(key):
            return med.get(key, 0.0)

        def n(key):
            return self.counts.get(key, 0)

        processes = 1 if self.wl.command == "axioms" else len(self.inputs)
        return {
            "imgio.read_pgm_s": (m("imgio.read_pgm"), "s"),
            "imgio.read_pgm_mb_per_s": (m("read_rate"), "MB/s"),
            "imgio.write_pgm_s": (m("imgio.write_pgm"), "s"),
            "imgio.write_curve_s": (m("imgio.write_curve"), "s"),
            "imgio.bytes_in": (n("imgio.bytes_in"), "bytes"),
            "imgio.bytes_out": (n("imgio.bytes_out"), "bytes"),
            "image.levels_bytes_per_pixel": (n("image.levels_bytes_per_pixel"), "bytes/pixel"),
            "sweep.build_histogram_s": (m("sweep.build_histogram"), "s"),
            "sweep.entropy_curve_s": (m("sweep.entropy_curve"), "s"),
            "sweep.cells_per_s": (m("cell_rate"), "1/s"),
            "sweep.entropy_curve_peak_mb": (m("peak.sweep"), "MB"),
            "sweep.find_thresholds_s": (m("sweep.find_thresholds"), "s"),
            "sweep.candidates": (n("sweep.candidates"), "count"),
            "sweep.occupied_bins": (n("sweep.occupied_bins"), "count"),
            "sweep.grid_cells": (n("sweep.grid_cells"), "count"),
            "segment.segment_s": (m("segment.segment"), "s"),
            "segment.render_s": (m("segment.render"), "s"),
            "segment.peak_mb": (m("peak.segment"), "MB"),
            "segment.regions": (n("segment.regions"), "count"),
            "cli.import_s": (m("import_s"), "s"),
            "cli.processes": (processes, "count"),
            "axioms.run_axiom_checks_s": (m("axioms.run_axiom_checks"), "s"),
            "axioms.draws_per_s": (m("draw_rate"), "1/s"),
            "trace.overhead_s": (m("traced_s") - m("pipeline_s"), "s"),
        }
