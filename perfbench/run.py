#!/usr/bin/env python3
"""Benchmark of the airtwin CLI: one workload per run, end to end or traced.

Run from the root of an airtwin checkout:

    python3 perfbench/run.py --workload greedy_demo --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all            # every workload, one after another

A run generates the workload's inputs from ``--seed``, times a fresh
set-up process several times, then repeats passes of the workload's CLI
commands, each a fresh subprocess run one at a time, until ``--seconds``
are used. Every pass's outputs are checked. With ``--trace 0`` it reports
the end-to-end metrics of ``BENCHMARK.json``; with ``--trace 1`` each
untraced pass is followed by a traced replay of the same argv
(``perfbench/tracing.py``) and it reports the per-layer metrics.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. Result records and spans are written under
``.perfbench/``. See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
REQUIRED = ("BENCHMARK.json", "src/airtwin/cli.py", "scenes/demo_6cell.json")
WORK_DIR = ".perfbench"
SETUP_PROBES = 3
MIN_PASSES = {False: 2, True: 1}   # untraced runs need two passes for the repeat check
DEADLINE_S = 170.0
COMMANDS = ("build", "evaluate", "optimize", "synth", "calibrate", "validate")


class Spawner:
    """Client of ``spawner.py``, which forks every timed command.

    The launcher is a separate small process, so a command's peak RSS does
    not start from this process's.
    """

    def __init__(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (os.path.abspath("src"), env.get("PYTHONPATH")) if p)
        self.proc = subprocess.Popen([sys.executable, os.path.join(HERE, "spawner.py")],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     env=env, text=True)

    def run(self, argv: list[str], log_path: str, deadline: float) -> dict:
        """Run ``argv`` to its exit: wall time, rusage CPU time, peak RSS, exit code."""
        request = {"argv": argv, "log": log_path, "timeout_s": deadline - time.monotonic()}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise SetupError(f"the launcher exited with code {self.proc.wait()}")
        return json.loads(line)

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait()
        self.proc.stdout.close()


class SetupError(RuntimeError):
    """The set-up probe failed, so no command of the workload can run."""


class Run:
    """One benchmark run of one workload."""

    def __init__(self, workload, seed: int, seconds: float, traced: bool, deadline: float,
                 spawner: Spawner):
        from perfbench import workloads

        self.spawner = spawner
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.traced = traced
        self.deadline = deadline
        self.tag = f"{workload.name}-seed{seed}-trace{int(traced)}"
        self.dir = os.path.join(WORK_DIR, "runs", self.tag)
        shutil.rmtree(self.dir, ignore_errors=True)
        for sub in ("in", "logs", "spans"):
            os.makedirs(os.path.join(self.dir, sub))
        self.out_dir = os.path.join(self.dir, "out")
        self.inputs = workloads.generate_inputs(workload, seed, os.path.join(self.dir, "in"))
        self.passes: list[dict] = []      # untraced passes
        self.traced_passes: list[dict] = []
        self.first_digests = None
        self.golden_digests = None
        self.counts = {"work_units": 0}

    # -- processes ---------------------------------------------------------
    def _log(self, name: str) -> str:
        return os.path.join(self.dir, "logs", f"{name}.log")

    def setup_probes(self) -> list[dict]:
        """Time the fresh-process set-up; the first, untimed, fills the bytecode cache."""
        from perfbench import workloads

        argv = [sys.executable, os.path.join(HERE, "setup_probe.py"),
                "--scene", workloads.SCENE]
        for text in self.workload.overrides:
            argv += ["--set", text]
        probes = []
        for i in range(SETUP_PROBES + 1):
            result = self.spawner.run(argv, self._log(f"setup{i}"), self.deadline)
            if result["rc"] != 0:
                raise SetupError(f"set-up probe exited {result['rc']}; "
                                 f"see {self._log(f'setup{i}')}")
            with open(self._log(f"setup{i}")) as fh:
                result.update(json.loads(fh.read().strip().splitlines()[-1]))
            if i:
                probes.append(result)
        return probes

    def run_pass(self, traced: bool) -> dict:
        from perfbench import workloads

        shutil.rmtree(self.out_dir, ignore_errors=True)
        index = len(self.traced_passes if traced else self.passes)
        name = f"{'traced' if traced else 'pass'}{index}"
        commands, span_files = [], []
        for command, cli_args in workloads.commands(self.workload, self.inputs,
                                                    self.out_dir, self.seed):
            if traced:
                span_files.append(os.path.join(self.dir, "spans", f"{name}-{command}.json"))
                argv = [sys.executable, os.path.join(HERE, "tracing.py"),
                        "--spans", span_files[-1], "--workload", self.workload.name,
                        "--run-id", f"{self.tag}/{name}", "--", *cli_args]
            else:
                argv = [sys.executable, "-m", "airtwin.cli", *cli_args]
            result = self.spawner.run(argv, self._log(f"{name}-{command}"), self.deadline)
            result["command"] = command
            commands.append(result)
        record = {"name": name, "commands": commands,
                  "wall_s": sum(c["wall_s"] for c in commands),
                  "cpu_s": sum(c["cpu_s"] for c in commands),
                  "peak_rss_mb": max(c["peak_rss_mb"] for c in commands),
                  "span_files": span_files}
        self._check_pass(record)
        (self.traced_passes if traced else self.passes).append(record)
        return record

    # -- checks --------------------------------------------------------------
    def _check_pass(self, record: dict) -> None:
        """Exit codes, digests and the cheap content checks of one pass.

        A command fails on a non-zero exit or a bad output. Every check error
        names its output as ``<command>/<file>``, so it fails that command.
        """
        from perfbench import checks, workloads

        record["errors"] = {c["command"]: [f"exit code {c['rc']}"]
                            for c in record["commands"] if c["rc"]}
        if record["errors"]:
            return
        digests = checks.output_digests(self.out_dir)
        found = []
        if self.first_digests is None:
            self.first_digests = digests
            self.golden_digests = checks.golden_digests(self.out_dir, digests)
            self.counts = workloads.output_counts(self.workload, self.inputs, self.out_dir)
            if self.seed == workloads.DEFAULT_SEED:
                found += checks.check_golden(self.out_dir, self.golden_digests, self._golden())
        else:
            found += checks.check_repeat(self.first_digests, digests)
        if self.workload.name == "greedy_demo":
            found += [f"optimize/{e}" for e in checks.check_trace(
                os.path.join(self.out_dir, "optimize", "trace.json"),
                self.inputs["candidates"])]
        self._fail(record, found)

    def _fail(self, record: dict, errors: list[str]) -> None:
        for error in errors:
            record["errors"].setdefault(error.split("/")[0], []).append(error)

    def _golden(self) -> dict:
        with open(os.path.join(HERE, "golden.json")) as fh:
            golden = json.load(fh)
        return golden["workloads"].get(self.workload.name, {"files": {}})

    def check_last_pass(self) -> None:
        """The costly content checks, once, on the outputs the last pass left.

        Every pass wrote the same bytes (the repeat check), so one suffices.
        """
        from airtwin.scene import build_voxel_grid, load_assignment
        from perfbench import checks, workloads

        record = (self.traced_passes or self.passes)[-1]
        if record["errors"]:
            return
        out = self.out_dir
        errors = []
        if self.workload.name == "field_export":
            scene = workloads.load_scene(self.workload.overrides)
            errors = [f"build/{e}" for e in checks.check_field_csv(
                os.path.join(out, "build", "field.csv"), scene,
                build_voxel_grid(scene.airspace),
                load_assignment(self.inputs["files"]["assignment"]), self.seed)]
        elif self.workload.name == "holdout_demo":
            reference = checks.validation_reference(
                workloads.load_scene(), os.path.join(out, "synth", "measurements.csv"))
            errors = [f"validate/{e}" for e in checks.check_validation(
                os.path.join(out, "validate", "validation_report.json"), reference)]
        self._fail(record, errors)

    def outcome(self) -> tuple[int, int, list[str]]:
        """Commands attempted, commands failed, and each failure's message."""
        records = self.passes + self.traced_passes
        messages = [f"{r['name']} {command}: {e}" for r in records
                    for command, errors in r["errors"].items() for e in errors]
        return (sum(len(r["commands"]) for r in records),
                sum(len(r["errors"]) for r in records), messages)

    # -- the run -------------------------------------------------------------
    def execute(self) -> None:
        self.probes = self.setup_probes()
        start = time.monotonic()
        while True:
            t0 = time.monotonic()
            self.run_pass(traced=False)
            if self.traced:
                self.run_pass(traced=True)
            took = time.monotonic() - t0
            done = len(self.passes)
            elapsed = time.monotonic() - start
            if done >= MIN_PASSES[self.traced] and (
                    elapsed + took > self.seconds or time.monotonic() + took > self.deadline):
                break
        self.check_last_pass()

    def fastest(self, key: str, traced: bool = False) -> float:
        """Each command's fastest ``key`` over the passes, summed over the commands.

        The host's speed drifts by tens of percent over tens of seconds, and
        a drift only ever slows a command down. So a command's fastest run in
        the window is far steadier from run to run than its median.
        """
        records = self.traced_passes if traced else self.passes
        return sum(min(p["commands"][i][key] for p in records)
                   for i in range(len(records[0]["commands"])))

    def end_to_end(self) -> dict:
        wall = self.fastest("wall_s")
        return {
            "wall_s": wall,
            "cpu_s": self.fastest("cpu_s"),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in self.passes),
            "setup_s": statistics.median(p["wall_s"] for p in self.probes),
            "work_per_s": self.counts["work_units"] / wall,
        }

    def per_layer(self) -> dict:
        from perfbench import tracing

        per_pass = []
        for record in self.traced_passes:
            traces = []
            for path in record["span_files"]:
                with open(path) as fh:
                    traces.append(json.load(fh))
            per_pass.append(tracing.layer_metrics(traces))
        metrics = {key: statistics.median(m[key] for m in per_pass) for key in per_pass[0]}
        metrics["cli.import_s"] = statistics.median(p["import_s"] for p in self.probes)
        for command in COMMANDS:
            runs = [c for p in self.passes for c in p["commands"] if c["command"] == command]
            metrics[f"cli.{command}.wall_s"] = min(c["wall_s"] for c in runs) if runs else 0.0
            metrics[f"cli.{command}.peak_rss_mb"] = (
                statistics.median(c["peak_rss_mb"] for c in runs) if runs else 0.0)
        metrics["trace.overhead_s"] = self.fastest("wall_s", traced=True) - self.fastest("wall_s")
        return metrics

    def write_spans(self) -> str:
        """All spans of the run in one file, each tagged with its command."""
        path = os.path.join(WORK_DIR, "results", f"{self.tag}-spans.json")
        spans = []
        for record in self.traced_passes:
            for span_path in record["span_files"]:
                with open(span_path) as fh:
                    trace = json.load(fh)
                for span in trace["spans"]:
                    span["command"] = trace["command"]
                spans += trace["spans"]
        with open(path, "w") as fh:
            json.dump(spans, fh)
        return path


def environment() -> dict:
    import numpy
    import scipy

    from airtwin import kernels

    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "backend": kernels.active_backend(),
            "nproc": len(os.sched_getaffinity(0)),
            "mem_total_mb": os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") / 2**20}


def run_workload(name: str, seed: int, seconds: float, traced: bool, spec: dict,
                 deadline: float, spawner: Spawner) -> tuple[dict, int, int]:
    from perfbench import workloads

    run = Run(workloads.WORKLOADS[name], seed, seconds, traced, deadline, spawner)
    run.execute()
    computed = run.per_layer() if traced else run.end_to_end()
    declared = spec["per_layer" if traced else "end_to_end"]
    metrics = {m["name"]: {"value": computed[m["name"]], "unit": m["unit"]} for m in declared}

    print(f"== {name}  seed {seed}  {'traced' if traced else 'end to end'}  "
          f"{len(run.passes)} pass(es), {SETUP_PROBES} set-up probes")
    for key, entry in metrics.items():
        print(f"  {key:40s} {entry['value']:14.6f} {entry['unit']}")
    if not traced:
        walls = sorted(p["wall_s"] for p in run.passes)
        print(f"  {run.workload.work_name:40s} {computed['work_per_s']:14.6f} 1/s"
              f"  (wall_s min {walls[0]:.4f} max {walls[-1]:.4f} s)")
    else:
        print(f"  {'traced wall_s':40s} {run.fastest('wall_s', traced=True):14.6f} s")
    attempted, failed, errors = run.outcome()
    print(f"  {'failed_ratio':40s} {failed / attempted:14.6f} "
          f"({failed} of {attempted} commands)")
    for error in errors:
        print(f"  FAILED {error}")

    os.makedirs(os.path.join(WORK_DIR, "results"), exist_ok=True)
    record = {
        "workload": name, "seed": seed, "trace": int(traced), "seconds": seconds,
        "inputs": {k: v for k, v in run.inputs.items() if k != "files"},
        "environment": environment(),
        "setup_probes": run.probes,
        "passes": run.passes, "traced_passes": run.traced_passes,
        "counts": run.counts, "work_name": run.workload.work_name,
        "metrics": computed,
        "attempted": attempted, "failed": failed, "errors": errors,
        "output_sha256": run.first_digests,
        "golden_digests": run.golden_digests,
    }
    if traced:
        record["spans_file"] = run.write_spans()
    path = os.path.join(WORK_DIR, "results", f"{run.tag}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    print(f"  record: {path}")
    shutil.rmtree(run.out_dir, ignore_errors=True)
    return metrics, attempted, failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="airtwin CLI benchmark")
    parser.add_argument("--workload", required=True,
                        help="workload name, or 'all' for every workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per run (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [p for p in REQUIRED if not os.path.exists(p)]
    if missing:
        print(f"error: run from the root of an airtwin checkout; missing {missing}",
              file=sys.stderr)
        return 2
    spawner = Spawner()
    try:
        return _run(args, spawner)
    finally:
        spawner.close()


def _run(args, spawner: Spawner) -> int:
    sys.path[:0] = [os.path.abspath("src"), os.path.dirname(HERE)]
    with open("BENCHMARK.json") as fh:
        spec = json.load(fh)
    from perfbench import workloads

    if args.workload != "all" and args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {list(workloads.WORKLOADS)} or 'all'", file=sys.stderr)
        return 2
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]

    results = {}
    attempted = failed = 0
    for name in workloads.WORKLOADS if args.workload == "all" else [args.workload]:
        deadline = time.monotonic() + DEADLINE_S
        try:
            metrics, tried, bad = run_workload(name, args.seed, seconds, bool(args.trace),
                                               spec, deadline, spawner)
        except SetupError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        attempted += tried
        failed += bad
        if args.workload == "all":
            metrics = {f"{name}.{key}": entry for key, entry in metrics.items()}
        results.update(metrics)
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": results}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
