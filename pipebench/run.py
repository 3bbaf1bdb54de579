"""End-to-end and per-layer benchmark of the neutroseg pipeline.

Run from the repository root:

    python3 pipebench/run.py --workload large-p5 --seed 1 --seconds 20 --trace 0

A run generates the workload's inputs from ``--seed`` (set-up, repeated and
reported as a median), then repeats whole rounds until ``--seconds`` have
passed. With ``--trace 0`` a round is one to three in-process passes over
the workload's operations followed by the same pass as fresh CLI processes,
every operation timed between two runs of a calibration kernel, and the run
prints the end-to-end metrics. With ``--trace 1`` a round is an
untraced in-process pass and one that times every public call from here;
interpreter-start probes follow the rounds, and the run prints the
per-layer metrics. Every output is checked by ``checks``, which does not use
the package. The last stdout line is one JSON object: correct, attempted,
failed, metrics.

This module uses the standard library only: it starts the CLI launcher
before ``bench`` imports numpy, so that the children's peak RSS is their own.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"


class Launcher:
    """Client of ``launcher.py``, which starts the CLI children."""

    def __init__(self, env: dict):
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "launcher.py")],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
            env=env,
        )

    def run(self, argv: list[str], stdout: Path, stderr: Path) -> dict:
        req = {"argv": argv, "stdout": str(stdout), "stderr": str(stderr)}
        self.proc.stdin.write(json.dumps(req) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("the CLI launcher exited")
        return json.loads(line)

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "neutroseg" / "__init__.py").is_file():
        print(f"error: no neutroseg sources under {SRC}; run from the repository root",
              file=sys.stderr)
        return 2
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    launcher = Launcher(env)
    workdir = HERE / "_work" / f"run-{os.getpid()}"
    try:
        sys.path[:0] = [str(SRC), str(HERE)]
        import bench as bench_mod

        if args.workload not in bench_mod.workloads.WORKLOADS:
            print(f"error: unknown workload {args.workload!r}; choose from"
                  f" {sorted(bench_mod.workloads.WORKLOADS)}", file=sys.stderr)
            return 2
        if not Path(bench_mod.ns.__file__).resolve().is_relative_to(SRC.resolve()):
            print(f"error: neutroseg imported from {bench_mod.ns.__file__}", file=sys.stderr)
            return 2
        workdir.mkdir(parents=True)
        bench = bench_mod.Bench(args, launcher, workdir)
        metrics = bench.run()
    finally:
        launcher.close()
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass
    result = {
        "correct": not bench.problems,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
