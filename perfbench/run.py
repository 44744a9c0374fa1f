"""Seeded end-to-end benchmark of the ``rootpeel`` command line.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The workload's inputs are generated from the seed. With ``--trace 0`` one
closed-loop client runs the workload's round of ``rootpeel`` commands as child
processes, back to back, until ``--seconds`` have passed and at least two
rounds are done; set-up time is sampled between the commands all through the
run. Every output is checked and must be byte-identical across rounds. With
``--trace 1`` one checked round is followed by a traced in-process replay of
it (``traced.py``), whose outputs are checked the same way and whose spans
are kept in ``.perfbench_work/spans-WORKLOAD-SEED.json``.

The last line of stdout is a JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``. The program is always the one in
``src/`` of the current directory; the benchmark exits with code 2 when there
is none, and also when a command is still running 170 s after launch.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

import workloads

HERE = Path(__file__).resolve().parent
SETUP_SAMPLES = 20  # spread evenly over the timed rounds
MIN_ROUNDS = 2
MAX_SECONDS = 60.0
KILL_AFTER_S = 170.0  # any child still running then is killed and the run fails
# two pool workers (nproc here) and no BLAS threads, whatever the host has
CHILD_ENV = {"ROOTPEEL_THREADS": "2", "OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1"}
CLI = "import sys; from rootpeel.cli import main; sys.exit(main())"
WHERE = "import rootpeel.cli; print(rootpeel.cli.__file__)"

END_TO_END = {
    "wall_s": "s",
    "throughput": "units/s",
    "cpu_s": "s",
    "peak_rss_mib": "MiB",
    "setup_s": "s",
}

# per-layer metric -> (unit, span name); a metric with a span is the summed
# self time of those spans in the traced replay, one without is a count the
# replay made or a value derived from its spans in reduce_spans
PER_LAYER = {
    "space.parse_s": ("s", "space.parse"),
    "space.distances_s": ("s", "space.distances"),
    "space.distances_bytes": ("bytes", None),
    "space.kde_s": ("s", "space.kde"),
    "rooted.nn_graph_s": ("s", "rooted.nn_graph"),
    "rooted.mutual_pairs": ("count", None),
    "pset.forest_s": ("s", "pset.forest"),
    "pset.forest_levels": ("count", None),
    "pset.forest_bytes": ("bytes", None),
    "pset.forest_peak_mib": ("MiB", None),
    "rooted.peel_s": ("s", "rooted.peel"),
    "rooted.peels_neighborly": ("count", None),
    "rooted.peels_general": ("count", None),
    "rooted.peel_records": ("count", None),
    "rooted.trace_json_s": ("s", "rooted.trace_json"),
    "rooted.trace_bytes": ("bytes", None),
    "pset.merge_events_s": ("s", "pset.merge_events"),
    "rooted.elder_barcode_s": ("s", "rooted.elder_barcode"),
    "linalg.linearize_s": ("s", "linalg.linearize"),
    "linalg.idempotent_s": ("s", "linalg.idempotent"),
    "linalg.split_dims_s": ("s", "linalg.split_dims"),
    "linalg.grade_dims_s": ("s", "linalg.grade_dims"),
    "linalg.module_dim": ("count", None),
    "linalg.records_checked": ("count", None),
    "experiment.trial_s": ("s", None),
    "experiment.run_trials_s": ("s", "experiment.run_trials"),
    "experiment.pool_efficiency": ("ratio", None),
    "cli.import_s": ("s", "cli.import"),
    "cli.lazy_import_s": ("s", "cli.lazy_import"),
    "trace.remainder_s": ("s", None),
    "trace.overhead_s": ("s", None),
}


@dataclass
class Result:
    code: int
    wall: float
    cpu: float
    maxrss_kib: int
    stdout: str
    stderr: str


def _kill_group(pid: int, killed: Optional[threading.Event] = None) -> None:
    if killed is not None:
        killed.set()
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


class Runner:
    """Starts children one at a time and reaps each with ``os.wait4``, whose
    rusage covers the child and every descendant it reaped (pool workers)."""

    def __init__(self, root: Path, work: Path, started: float):
        self.work = work
        self.kill_at = started + KILL_AFTER_S
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"), **CHILD_ENV)

    def run(self, argv) -> Result:
        out_path, err_path = self.work / "stdout", self.work / "stderr"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=out, stderr=err,
                                    env=self.env, start_new_session=True)
            killed = threading.Event()
            timer = threading.Timer(max(0.0, self.kill_at - time.monotonic()), _kill_group,
                                    (proc.pid, killed))
            timer.start()
            status = None
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
                if status is None:  # interrupted: leave nothing running
                    _kill_group(proc.pid)
                    os.waitpid(proc.pid, 0)
            wall = time.perf_counter() - t0
        if killed.is_set():
            raise RuntimeError(f"{' '.join(map(str, argv))} still ran {KILL_AFTER_S:.0f} s after launch")
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Result(proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss,
                      out_path.read_text(encoding="utf-8", errors="replace"),
                      err_path.read_text(encoding="utf-8", errors="replace"))

    def cli(self, args) -> Result:
        return self.run([sys.executable, "-c", CLI, *args])

    def cli_ok(self, args) -> Result:
        res = self.cli(args)
        if res.code != 0:
            raise RuntimeError(f"rootpeel {' '.join(args)} exited {res.code}: {res.stderr.strip()}")
        return res


def check_import(runner: Runner, root: Path) -> None:
    """Children must import the ``rootpeel`` under test, not an installed one."""
    where = runner.run([sys.executable, "-c", WHERE])
    want = (root / "src" / "rootpeel" / "cli.py").resolve()
    if where.code != 0 or Path(where.stdout.strip()).resolve() != want:
        raise RuntimeError(f"rootpeel.cli resolves to {where.stdout.strip() or where.stderr.strip()!r}, "
                           f"not {want}")


class SetupSampler:
    """Wall times of fresh interpreters running ``import rootpeel.cli``,
    taken between the commands so that they spread over the whole run."""

    def __init__(self, runner: Runner):
        self.runner = runner
        self.samples = []

    def keep_pace(self, share: float) -> None:
        """Sample until ``share`` of ``SETUP_SAMPLES`` are taken."""
        while len(self.samples) < math.ceil(SETUP_SAMPLES * min(1.0, share)):
            self.samples.append(self.runner.run([sys.executable, "-c", "import rootpeel.cli"]).wall)


def op_failure(op, res: Result, first) -> str:
    if res.code != 0:
        return f"exit code {res.code}: {res.stderr.strip()[-300:]}"
    if "Traceback" in res.stderr:
        return "traceback on stderr"
    output = op.output.read_text(encoding="utf-8") if op.output else ""
    if first is not None and first != (res.stdout, output):
        return "output differs from the first round on the same input"
    return op.check(res.stdout, output)


class Tally:
    """Checks each op's result against its check and the first round's output."""

    def __init__(self, ops):
        self.ops = ops
        self.first = [None] * len(ops)
        self.attempted = self.failed = 0

    def add(self, k: int, res: Result, label: str) -> None:
        op = self.ops[k]
        self.attempted += 1
        why = op_failure(op, res, self.first[k])
        if why:
            self.failed += 1
            print(f"op failed ({label}): rootpeel {' '.join(op.args)}: {why}", file=sys.stderr)
        elif self.first[k] is None:
            self.first[k] = (res.stdout, op.output.read_text(encoding="utf-8") if op.output else "")


def run_rounds(runner: Runner, tally: Tally, seconds: float, min_rounds: int, setup=None) -> dict:
    """Closed-loop rounds until ``seconds`` have passed and ``min_rounds`` are
    done; ``setup`` (a SetupSampler) keeps pace with the elapsed share."""
    walls, cpus, peak_kib = [], [], 0
    t0 = time.monotonic()
    while len(walls) < min_rounds or time.monotonic() - t0 < seconds:
        wall = cpu = 0.0
        for k, op in enumerate(tally.ops):
            res = runner.cli(op.args)
            tally.add(k, res, f"round {len(walls) + 1}")
            wall += res.wall
            cpu += res.cpu
            peak_kib = max(peak_kib, res.maxrss_kib)
            if setup is not None:
                setup.keep_pace((time.monotonic() - t0) / seconds)
        walls.append(wall)
        cpus.append(cpu)
    if setup is not None:
        setup.keep_pace(1.0)
    return {
        "round_walls": walls,
        "wall_s": statistics.median(walls),
        "throughput": sum(op.units for op in tally.ops) / statistics.median(walls),
        "cpu_s": statistics.median(cpus),
        "peak_rss_mib": peak_kib / 1024.0,
        "setup_s": statistics.median(setup.samples) if setup is not None else None,
    }


def layer_metrics(runner: Runner, tally: Tally, spans_json: Path) -> dict:
    """Replay one round in a fresh traced process, check its outputs like a
    round's, and reduce the spans it leaves in ``spans_json``."""
    round_json = runner.work / "round.json"
    round_json.write_text(json.dumps([op.args for op in tally.ops]), encoding="utf-8")
    res = runner.run([sys.executable, str(HERE / "traced.py"), str(spans_json), str(round_json)])
    if res.code != 0:
        raise RuntimeError(f"traced replay exited {res.code}: {res.stderr.strip()}")
    trace = json.loads(spans_json.read_text(encoding="utf-8"))
    for k, (code, stdout) in enumerate(zip(trace["codes"], trace["stdouts"])):
        tally.add(k, Result(code, 0.0, 0.0, 0, stdout, res.stderr if code else ""), "traced replay")
    return reduce_spans(trace)


def reduce_spans(trace: dict) -> dict:
    """Per-layer metrics from the replay's spans, counts and overhead."""
    spans, counts = trace["spans"], trace["counts"]
    covered = [0.0] * len(spans)
    for s in spans:
        if s["parent"] is not None:
            covered[s["parent"]] += s["end"] - s["start"]
    self_s, trial_s = {}, 0.0
    for s, child in zip(spans, covered):
        dur = s["end"] - s["start"]
        self_s[s["name"]] = self_s.get(s["name"], 0.0) + dur - child
        if s["name"] == "experiment.trial":
            trial_s += dur

    pool_s = self_s.get("experiment.run_trials", 0.0)
    derived = {
        "experiment.trial_s": trial_s,
        "experiment.pool_efficiency": trial_s / (workloads.SIM_JOBS * pool_s) if pool_s else 0.0,
        # time inside the replayed cli.main calls that no layer span covers
        "trace.remainder_s": self_s.get("cli.op", 0.0),
        "trace.overhead_s": trace["overhead_s"],
    }
    out = {}
    for name, (unit, span) in PER_LAYER.items():
        value = self_s.get(span, 0.0) if span else counts.get(name, derived.get(name, 0))
        out[name] = {"value": value, "unit": unit}
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not 0 < args.seconds <= MAX_SECONDS:
        p.error(f"--seconds must be in (0, {MAX_SECONDS:.0f}]: runs must end within 180 s")

    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    started = time.monotonic()
    root = Path.cwd().resolve()
    if not (root / "src" / "rootpeel" / "cli.py").is_file():
        print(f"error: no rootpeel sources under {root / 'src'}", file=sys.stderr)
        return 2
    work = root / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        runner = Runner(root, work, started)
        try:
            check_import(runner, root)
            inputs = workloads.WORKLOADS[args.workload](work, np.random.default_rng(args.seed), runner.cli_ok)
            tally = Tally(inputs.ops)
            if args.trace:
                e2e = run_rounds(runner, tally, 0.0, 1)
                spans_json = work.parent / f"spans-{args.workload}-{args.seed}.json"
                metrics = layer_metrics(runner, tally, spans_json)
                print(f"spans written to {spans_json.relative_to(root)}", file=sys.stderr)
            else:
                setup = SetupSampler(runner)
                e2e = run_rounds(runner, tally, args.seconds, MIN_ROUNDS, setup)
                metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END.items()}
        except RuntimeError as e:
            print(f"error: {e}", file=sys.stderr)
            return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # kept spans, or another run still uses it

    walls = " ".join(f"{w:.3f}" for w in e2e["round_walls"])
    print(f"workload {args.workload}  seed {args.seed}  {len(inputs.ops)} ops per round, round walls [{walls}] s")
    if not args.trace:
        print(f"  {'setup samples':<16} {len(setup.samples)}")
    for name, m in metrics.items():
        unit = f"{inputs.unit}/s" if name == "throughput" else m["unit"]
        print(f"  {name:<28} {m['value']:.6g} {unit}")
    print(f"  {'fail_share':<28} {tally.failed / tally.attempted:.6g} ({tally.failed}/{tally.attempted} ops)")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
