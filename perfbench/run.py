"""Benchmark of the els toolkit through its public entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload (``relax-ladder``, ``feasibility-reduction`` or
``oracle-small``, see workloads.py) in this process: whole passes over the
workload's seeded instance set through ``els.pipeline.solve_report`` until
``--seconds`` have passed, with every report checked against independent
bounds (checks.py) after its pass.  The last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1`` (tracing.py; spans are written to perfbench/out/).

End-to-end times are wall times scaled to a reference machine speed by
probes run around each timed interval (speed.py); the raw wall-time medians
go to standard error.  Per-layer times are raw wall times.

An operation is one ``solve_report`` call in a pass.  It fails when it
raises or returns status ``numerical-failure``; a report that comes back
but breaks a check makes ``correct`` false.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# One BLAS thread: on a shared 2-core machine a second BLAS thread waiting
# on a busy core makes timings jumpy.  Set before numpy loads.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

SETUP_SAMPLES = 3   # this process plus fresh interpreters, median reported
CLI_SAMPLES = 5
CHILD_TIMEOUT_S = 150
WORKLOAD_NAMES = ("relax-ladder", "feasibility-reduction", "oracle-small")


def solve(workload, inst) -> dict:
    import els.pipeline

    return els.pipeline.solve_report(
        inst.problem, with_oracle=workload.with_oracle, restarts=workload.restarts, seed=0
    )


def setup(name: str, seed: int):
    """Import els, build the instances and solve the smallest one, untimed
    by the passes; returns the workload, the warm-up report and the import
    and set-up wall times."""
    t0 = time.perf_counter()
    import els  # noqa: F401

    import_s = time.perf_counter() - t0
    import workloads

    workload = workloads.build(name, seed)
    warm = solve(workload, workload.smallest())
    return workload, warm, import_s, time.perf_counter() - t0


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("ELS_SEED", None)
    return env


def probe_setup(name: str, seed: int) -> dict:
    """Import and set-up wall time of one fresh interpreter, and the set-up
    time scaled by spawn probes around it."""
    import speed

    cmd = [sys.executable, str(HERE / "run.py"), "--probe", "--workload", name, "--seed", str(seed)]
    before = speed.spawn_probe()
    done = subprocess.run(cmd, env=child_env(), capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    after = speed.spawn_probe()
    if done.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {done.stderr.strip()}")
    times = json.loads(done.stdout.strip().splitlines()[-1])
    times["scaled_s"] = speed.scaled(times["setup_s"], before, after, speed.REFERENCE_SPAWN_S)
    return times


def run_pass(workload, tracer=None):
    """One pass over the instance set: per-instance wall times, the same
    times scaled by speed probes between the solves (untraced passes only),
    and the reports."""
    import speed

    clock = time.perf_counter
    walls, scaled, reports = [], [], []
    before = speed.probe() if tracer is None else None
    for index, inst in enumerate(workload.instances):
        if tracer is not None:
            tracer.instance = index
        t0 = clock()
        try:
            report = solve(workload, inst)
        except Exception:  # a failed operation; keep measuring the rest
            traceback.print_exc()
            report = None
        walls.append(clock() - t0)
        reports.append(report)
        if tracer is None:
            after = speed.probe()
            scaled.append(speed.scaled(walls[-1], before, after))
            before = after
    return walls, scaled, reports


class Judge:
    """Counts operations and collects check failures across passes."""

    def __init__(self, workload, warm: dict):
        import checks

        self.checks = checks
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.reference = [None] * len(workload.instances)
        self.reference[workload.instances.index(workload.smallest())] = checks.canonical(warm)
        self.problems += [f"warm-up: {m}" for m in checks.check_report(workload.smallest(), warm, workload.with_oracle)]

    def judge(self, reports: list) -> None:
        checks = self.checks
        for index, (inst, report) in enumerate(zip(self.workload.instances, reports)):
            self.attempted += 1
            if report is None or report["relaxation"]["status"] == checks.FAILED_STATUS:
                self.failed += 1
                continue
            where = f"instance {index} ({inst.name})"
            self.problems += [f"{where}: {m}" for m in checks.check_report(inst, report, self.workload.with_oracle)]
            text = checks.canonical(report)
            if self.reference[index] is None:
                self.reference[index] = text
            elif text != self.reference[index]:
                self.problems.append(f"{where}: report differs between two solves (timings removed)")


class SideSamples:
    """Fresh-interpreter set-ups and ``els solve`` runs.

    A shared machine's speed drifts by several percent over seconds, so
    these are taken one of each kind between passes instead of all at once,
    and meet the machine in different states.  The CLI runs on the workload's smallest
    instance with the workload's flags, and its report must equal the
    in-process one apart from timings.
    """

    def __init__(self, workload, seed: int, judge: Judge, cli: bool):
        from els.problem import serialize_problem

        self.workload, self.seed, self.judge = workload, seed, judge
        self.probes: list[dict] = []
        self.cli_walls: list[float] = []
        self.cli_times: list[float] = []  # scaled
        self.probes_due = SETUP_SAMPLES - 1
        self.cli_due = CLI_SAMPLES if cli else 0
        inst = workload.smallest()
        self.expected = judge.reference[workload.instances.index(inst)]
        OUT.mkdir(exist_ok=True)
        problem_file = OUT / f"{workload.name}-smallest.json"
        self.report_file = OUT / f"{workload.name}-smallest-report.json"
        problem_file.write_text(serialize_problem(inst.problem))
        self.cmd = [sys.executable, "-m", "els", "solve", str(problem_file), "--out", str(self.report_file), "--seed", "0"]
        if workload.with_oracle:
            self.cmd += ["--with-oracle", "--restarts", str(workload.restarts)]

    def step(self) -> None:
        if self.probes_due:
            self.probes.append(probe_setup(self.workload.name, self.seed))
            self.probes_due -= 1
        if self.cli_due:
            self.cli_solve()
            self.cli_due -= 1

    def finish(self) -> None:
        while self.probes_due or self.cli_due:
            self.step()

    def cli_solve(self) -> None:
        import speed

        self.report_file.unlink(missing_ok=True)
        before = speed.spawn_probe()
        t0 = time.perf_counter()
        done = subprocess.run(self.cmd, env=child_env(), capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        self.cli_walls.append(time.perf_counter() - t0)
        self.cli_times.append(
            speed.scaled(self.cli_walls[-1], before, speed.spawn_probe(), speed.REFERENCE_SPAWN_S)
        )
        if done.returncode != 0:
            self.judge.problems.append(f"els solve exited {done.returncode}: {done.stderr.strip()[-300:]}")
        elif self.judge.checks.canonical(json.loads(self.report_file.read_text())) != self.expected:
            self.judge.problems.append("els solve report differs from the in-process report")


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run(args) -> dict:
    import speed

    before = speed.spawn_probe()
    workload, warm, import_s, setup_s = setup(args.workload, args.seed)
    setup_scaled = speed.scaled(setup_s, before, speed.spawn_probe(), speed.REFERENCE_SPAWN_S)
    judge = Judge(workload, warm)
    side = SideSamples(workload, args.seed, judge, cli=not args.trace)
    pass_times, instance_times, layer_rows = [], [], []
    pass_walls, instance_walls = [], []
    measured = 0.0  # pass wall time only; checks, probes and side samples do not count

    if args.trace:
        import tracing

        with tracing.Tracer() as tracer:
            # Allocation tracing slows the spans it covers, so memory comes
            # from a pass of its own and times from the passes after it.
            tracer.memory = True
            first = len(tracer.spans)
            walls, _, reports = run_pass(workload, tracer)
            measured = sum(walls)
            memory = tracing.memory_metrics(tracer.spans[first:])
            tracer.memory = False
            judge.judge(reports)
            side.step()
            while not pass_times or measured < args.seconds:
                first = len(tracer.spans)
                walls, _, reports = run_pass(workload, tracer)
                measured += sum(walls)
                pass_times.append(sum(walls))
                layer_rows.append(tracing.layer_metrics(tracer.spans[first:], reports))
                judge.judge(reports)
                side.step()
            write_spans(args, tracer.spans, pass_times)
        side.finish()
        import_samples = [import_s] + [p["import_s"] for p in side.probes]
        metrics = {"cli.import_s": metric(statistics.median(import_samples), "s")}
        for name in layer_rows[0]:
            values = [row[name] for row in layer_rows]
            count = isinstance(values[0], int)
            metrics[name] = metric(values[0] if count else statistics.median(values), unit_of(name))
        for name, value in memory.items():
            metrics[name] = metric(value, "MB")
    else:
        while not pass_times or measured < args.seconds:
            walls, times, reports = run_pass(workload)
            measured += sum(walls)
            pass_walls.append(sum(walls))
            instance_walls += walls
            pass_times.append(sum(times))
            instance_times += times
            judge.judge(reports)
            side.step()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        side.finish()
        setup_walls = [setup_s] + [p["setup_s"] for p in side.probes]
        setup_samples = [setup_scaled] + [p["scaled_s"] for p in side.probes]
        print(
            f"raw wall medians: setup_s {statistics.median(setup_walls):.4f}, "
            f"pass_s {statistics.median(pass_walls):.4f}, "
            f"instance_p50_s {statistics.median(instance_walls):.4f}, "
            f"cli_solve_s {statistics.median(side.cli_walls):.4f}",
            file=sys.stderr,
        )
        metrics = {
            "setup_s": metric(statistics.median(setup_samples), "s"),
            "pass_s": metric(statistics.median(pass_times), "s"),
            "instance_p50_s": metric(statistics.median(instance_times), "s"),
            "cli_solve_s": metric(statistics.median(side.cli_times), "s"),
            "peak_rss_mb": metric(peak_rss_mb, "MB"),
        }

    for message in judge.problems[:20]:
        print(f"check failed: {message}", file=sys.stderr)
    print(
        f"{args.workload} seed {args.seed}: {len(pass_times)} timed passes, "
        f"pass_s {[round(t, 3) for t in pass_times]}",
        file=sys.stderr,
    )
    return {
        "correct": not judge.problems,
        "attempted": judge.attempted,
        "failed": judge.failed,
        "metrics": metrics,
    }


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def write_spans(args, spans, pass_times) -> None:
    OUT.mkdir(exist_ok=True)
    doc = {
        "workload": args.workload,
        "seed": args.seed,
        "traced_pass_s": pass_times,
        "spans": [span.as_dict(i) for i, span in enumerate(spans)],
    }
    (OUT / f"trace-{args.workload}.json").write_text(json.dumps(doc) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true", help="time one fresh set-up and exit")
    args = parser.parse_args(argv)

    if not (SRC / "els" / "__init__.py").is_file():
        print(f"perfbench: no els package under {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # One core for this process and the children it waits for, which inherit
    # the setting: the two vCPUs can be in different speed states, and a
    # speed probe only describes the core it ran on.
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    if args.probe:
        _, _, import_s, setup_s = setup(args.workload, args.seed)
        print(json.dumps({"import_s": import_s, "setup_s": setup_s}))
        return 0
    print(json.dumps(run(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
