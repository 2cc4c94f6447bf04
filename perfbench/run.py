"""modalstab benchmark: cold and warm command times, and per-module layer times.

Usage, from the repository root:

    python3 perfbench/run.py --workload lift|design|trajectory|all \\
        --seed N --seconds S --trace 0|1

Workloads (configs generated from the seed, see bench_workloads.py):

* ``lift``: ``synthesize`` on boundary-heat plants.  Nearly all the time is
  the lift-parameter search and the boundary plant build, which sum series
  of 10^6 terms; certificates and file I/O do almost nothing.
* ``design``: ``analyze`` -> ``synthesize`` -> ``certify`` (on the controller
  just written) for heat and wave plants, plus one ``sweep``.  Plant builds
  are cheap and there is no lift: truncation, Riccati synthesis, the beta
  scan and schema validation of small JSON documents dominate.
* ``trajectory``: ``simulate`` with controllers synthesized before timing,
  horizon 20 and step 0.01.  Dominated by writing a 4 MB trajectory.csv.

Load is a closed loop with one client: the commands of a pass run in order
through ``modalstab.cli.main`` in this process, each issued when the
previous one returns, until ``--seconds`` have passed and at least one whole
pass is done.  A first pass runs before timing and is discarded (the schema
validators compile lazily; ``cold_cmd_s`` and ``setup_s`` keep that cost
visible).  Every command's outcome is checked (bench_checks.py) and its
documents hashed; a document that differs from the first pass's is a
failure.

``--trace 0`` reports the end-to-end metrics:

* ``commands_per_s``: commands that passed their checks per second of
  in-process command wall time;
* ``cmd_s.p50`` and ``cmd_s.tail``: median command wall time and the highest
  whole percentile that has at least ten samples beyond it.  Below 20
  samples that percentile would fall under the median, so the tail is not
  resolved and the median is reported (``lift`` runs one or two passes of
  three 4 s commands); the report line names the percentile, the sample
  count and the maximum;
* ``cold_cmd_s`` and ``peak_rss_mb``: median wall time and ``ru_maxrss`` of
  fresh ``python -m modalstab`` runs of the workload's heaviest template;
* ``setup_s``: median wall time of a fresh interpreter importing
  ``modalstab.cli``.

``--trace 1`` runs every command of the loop twice, untraced and traced, in
alternating order.  Traced runs wrap the public functions of ``plants``,
``modal``, ``synthesis``, ``gains``, ``simulate`` and ``fileio`` (see
bench_trace.py) and report, per traced command, each function's self time
(``<layer>.<function>.s``) or call count (``.calls``), each layer's summed
self time (``<layer>.self_s``) and the command's remaining time
(``cli.self_s``).  The tracing overhead is traced minus untraced wall time.
Spans are written to ``.perfbench/spans-<workload>-<seed>.json``.

The line before the last is a JSON report that is not gated: run context,
fail ratio, document digest, tail percentile, trace overhead and the checks
of each workload's stated purpose.  The last line is the JSON result.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from importlib import metadata

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

from bench_checks import Checker  # noqa: E402
from bench_trace import TRACED, Tracer, call_counts, self_times  # noqa: E402
from bench_workloads import WORKLOADS, make_workload  # noqa: E402

ROUNDS = 4            # each round: a slice of the loop, cold runs, a set-up run
COLD_ROUND_S = 1.5    # cold runs repeat within a round until this long
CHILD_TIMEOUT_S = 60
TAIL_BEYOND = 10
# functions whose self time (.s) or call count (.calls) a traced run reports
SELF_TIME_METRICS = (
    "plants.search_lift_parameter", "plants.build_heat_boundary", "plants.build_heat",
    "plants.build_wave", "modal.truncate", "modal.partition_spectrum",
    "modal.select_truncation", "synthesis.synthesize_controller",
    "synthesis.check_stabilizable", "synthesis.matches_observer_structure",
    "gains.scan_certificate", "gains.decay_envelope", "simulate.simulate_closed_loop",
    "simulate.spectral_abscissa", "simulate.estimate_decay_rate",
    "fileio.validate_document", "fileio.read_json", "fileio.write_json_atomic",
    "fileio.write_trajectory_csv")
CALL_METRICS = (
    "plants.search_lift_parameter", "modal.truncate", "synthesis.care_stabilizing_solution",
    "gains.certify_small_gain", "simulate.matrix_exponential", "fileio.validate_document")
LAYERS = tuple(layer for layer, _ in TRACED)


def _plant_key(plant_doc: dict) -> str:
    return json.dumps(plant_doc, sort_keys=True)


def _digest(out_dir: str) -> str:
    h = hashlib.sha256()
    for name in sorted(os.listdir(out_dir)):
        h.update(name.encode() + b"\0")
        with open(os.path.join(out_dir, name), "rb") as fh:
            h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()


def _timed(fn, *args):
    start = time.perf_counter()
    result = fn(*args)
    return result, time.perf_counter() - start


class Session:
    """Runs, checks and counts the commands of one workload in this process."""

    def __init__(self, work_dir: str, checker: Checker):
        import modalstab.cli

        self.cli = modalstab.cli
        self.work_dir = work_dir
        self.checker = checker
        self.plants = {}       # plant document -> ModalSystem built in the first pass
        self.reference = {}    # command tag -> (exit code, document digest) of the first pass
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def record(self, problems: list):
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems)

    def run(self, cmd, runner=_timed):
        """Run one command; returns (wall seconds, passed its checks)."""
        out_dir = os.path.join(self.work_dir, cmd.tag)
        shutil.rmtree(out_dir, ignore_errors=True)
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            try:
                code, wall = runner(self.cli.main, cmd.argv(self.work_dir))
            except Exception:
                self.record([f"{cmd.tag}: {traceback.format_exc(limit=-3)}"])
                return None, False
        # byte-identical documents with the same exit code were checked already
        outcome = (code, _digest(out_dir) if os.path.isdir(out_dir) else None)
        first = self.reference.get(cmd.tag)
        problems = []
        if outcome != first:
            problems = self.checker.check(cmd, code, out_dir,
                                          self.plants.get(_plant_key(cmd.config["plant"])))
            if first is not None:
                problems.append(f"{cmd.tag}: documents differ from the first pass")
            elif not problems:
                self.reference[cmd.tag] = outcome
        self.record(problems)
        return wall, not problems

    @contextlib.contextmanager
    def capturing_plants(self):
        """Keep each plant the CLI builds, for the closed-loop checks."""
        original = self.cli.build_plant

        def build_plant(doc):
            built = original(doc)
            self.plants[_plant_key(doc)] = built[0]
            return built

        self.cli.build_plant = build_plant
        try:
            yield
        finally:
            self.cli.build_plant = original

    def pass_digest(self, commands) -> str:
        h = hashlib.sha256()
        for cmd in commands:
            h.update(f"{cmd.tag}:{self.reference.get(cmd.tag)}\n".encode())
        return h.hexdigest()


class _Loop:
    """Issues the commands of a pass in order, one when the previous returns."""

    def __init__(self, commands, step):
        self.commands = commands
        self.step = step
        self.issued = 0
        self.elapsed = 0.0

    def run_until(self, seconds: float, whole_passes: bool):
        """Continue until ``seconds`` of loop time in all and, if asked, the
        end of a pass, so that every command is sampled equally often."""
        n = len(self.commands)
        while self.elapsed < seconds or (whole_passes and (self.issued == 0 or self.issued % n)):
            start = time.perf_counter()
            self.step(self.commands[self.issued % n], self.issued)
            self.issued += 1
            self.elapsed += time.perf_counter() - start


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _spawn(argv: list, cwd: str):
    """Run a child to completion; returns (exit code, wall seconds, peak RSS in MB)."""
    start = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=cwd, env=_child_env(),
                            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def _tail(walls: list):
    """(percentile, value): the highest whole percentile with at least ten
    samples beyond it, but not below the median.

    The rule reaches the median at 20 samples; with fewer, a higher
    percentile rests on too few samples to repeat from run to run (the
    maximum of five 4 s commands spread 25% between runs of one commit)."""
    p = max(50, math.floor(100 * (1 - TAIL_BEYOND / len(walls))))
    if p == 50:
        return p, statistics.median(walls)
    return p, statistics.quantiles(walls, n=100, method="inclusive")[p - 1]


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _context(seed: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    src_lines = 0
    for dirpath, _, files in os.walk(SRC):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name), "rb") as fh:
                    src_lines += sum(1 for _ in fh)
    return {
        "machine": platform.machine(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "jsonschema": metadata.version("jsonschema"),
        "blas": blas.get("openblas configuration", blas.get("name")),
        "thread_env": {k: os.environ.get(k) for k in
                       ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "seed": seed,
        "src_py_lines": src_lines,
    }


def _measure(workload, session: Session, seconds: float) -> tuple:
    """End-to-end metrics: warm loop, cold runs and interpreter set-up.

    The machine's speed drifts over tens of seconds, so the loop is cut
    into rounds, each followed by cold runs for at least ``COLD_ROUND_S``
    (a single one on ``lift``, where a cold run takes about 5 s) and one
    set-up run; every metric then samples the whole run rather than one
    stretch of it.  The loop ends on a pass boundary, so every template
    weighs the same in every run.
    """
    walls, by_tag, passed = [], {}, [0]

    def step(cmd, _i):
        wall, ok = session.run(cmd)
        if wall is not None:
            walls.append(wall)
            by_tag.setdefault(cmd.tag, []).append(wall)
        passed[0] += ok

    def cold_run():
        shutil.rmtree(cold_out, ignore_errors=True)
        code, wall, peak = _spawn([sys.executable, "-m", "modalstab"]
                                  + cold.argv(session.work_dir), session.work_dir)
        session.record(session.checker.check(cold, code, cold_out, cold_plant))
        cold_walls.append(wall)
        rss.append(peak)
        return wall

    def setup_run():
        code, wall, _ = _spawn([sys.executable, "-c", "import modalstab.cli"], session.work_dir)
        session.record([] if code == 0 else [f"import modalstab.cli exited {code}"])
        setup.append(wall)

    loop = _Loop(workload.passes, step)
    cold = workload.cold
    cold.write_config(session.work_dir)
    cold_out = os.path.join(session.work_dir, cold.tag)
    cold_plant = session.plants.get(_plant_key(cold.config["plant"]))
    cold_walls, rss, setup = [], [], []
    for r in range(1, ROUNDS + 1):
        loop.run_until(seconds * r / ROUNDS, whole_passes=r == ROUNDS)
        spent = 0.0
        while spent < COLD_ROUND_S:
            spent += cold_run()
        setup_run()

    percentile, tail = _tail(walls)
    metrics = {
        "commands_per_s": _metric(passed[0] / sum(walls), "1/s"),
        "cmd_s.p50": _metric(statistics.median(walls), "s"),
        "cmd_s.tail": _metric(tail, "s"),
        "cold_cmd_s": _metric(statistics.median(cold_walls), "s"),
        "peak_rss_mb": _metric(statistics.median(rss), "MB"),
        "setup_s": _metric(statistics.median(setup), "s"),
    }
    report = {"tail": {"percentile": percentile, "samples": len(walls), "max_s": max(walls)},
              "cmd_s_p50_by_command": {t: statistics.median(w) for t, w in by_tag.items()},
              "cold_walls_s": cold_walls, "cold_rss_mb": rss, "setup_walls_s": setup}
    return metrics, report


def _trace(workload, session: Session, seconds: float, spans_path: str) -> tuple:
    """Per-layer metrics from paired untraced and traced runs of each command."""
    tracer = Tracer()
    untraced, traced = [], []

    def step(cmd, i):
        # flip the order every command and, for even pass lengths, every pass
        order = (False, True) if (i + i // len(workload.passes)) % 2 == 0 else (True, False)
        for use_tracer in order:
            wall, _ = session.run(cmd, tracer.command if use_tracer else _timed)
            (traced if use_tracer else untraced).append(wall)

    _Loop(workload.passes, step).run_until(seconds, whole_passes=True)
    pairs = [(u, t) for u, t in zip(untraced, traced) if u is not None and t is not None]
    own = self_times(tracer.spans)
    calls = call_counts(tracer.spans)
    n = calls["cli"]
    metrics = {}
    for name in SELF_TIME_METRICS:
        metrics[f"{name}.s"] = _metric(own.get(name, 0.0) / n, "s/cmd")
    for name in CALL_METRICS:
        metrics[f"{name}.calls"] = _metric(calls.get(name, 0) / n, "count/cmd")
    beta_points = calls.get("gains.certify_small_gain", 0)
    metrics["gains.beta_useful_ratio"] = _metric(
        calls.get("gains.scan_certificate", 0) / beta_points if beta_points else 0.0, "ratio")
    metrics["fileio.bytes_written"] = _metric(tracer.bytes_written / n, "bytes/cmd")
    layer_self = {layer: sum(v for k, v in own.items() if k.startswith(layer + "."))
                  for layer in LAYERS}
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = _metric(layer_self[layer] / n, "s/cmd")
    metrics["cli.self_s"] = _metric(own.get("cli", 0.0) / n, "s/cmd")

    untraced_mean = statistics.fmean(u for u, _ in pairs)
    traced_mean = statistics.fmean(t for _, t in pairs)
    traced_total = sum(own.values())
    # the reported per-layer self times and cli.self_s, summed per command
    accounted = (sum(layer_self.values()) + own.get("cli", 0.0)) / n
    overhead = traced_mean - untraced_mean
    largest = max(own, key=own.get)
    purpose = {
        "lift": {"plants_share_of_wall": layer_self["plants"] / traced_total},
        "design": {"search_lift_parameter_calls": calls.get("plants.search_lift_parameter", 0),
                   "accounted_minus_untraced_s": accounted - untraced_mean,
                   "accounted_within_overhead":
                       abs(accounted - untraced_mean) <= abs(overhead) + 1e-9},
        "trajectory": {"largest_self_time": largest},
    }[workload.name]
    with open(spans_path, "w") as fh:
        json.dump([[s.id, s.parent, s.name, s.start, s.end] for s in tracer.spans], fh)
    report = {"traced_commands": n,
              "untraced_cmd_s": untraced_mean, "traced_cmd_s": traced_mean,
              "trace_overhead_s": overhead, "trace_overhead_share": overhead / untraced_mean,
              "purpose": purpose, "spans": os.path.relpath(spans_path, ROOT)}
    return metrics, report


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> tuple:
    """(result, report) of one workload; raises if the program cannot run at all."""
    workload = make_workload(name, seed)
    out_root = os.path.join(ROOT, ".perfbench")
    work_dir = os.path.join(out_root, f"work-{name}-{seed}-{os.getpid()}")
    os.makedirs(work_dir, exist_ok=True)
    try:
        for cmd in workload.prepare + workload.passes:
            cmd.write_config(work_dir)
        session = Session(work_dir, Checker(os.path.join(SRC, "modalstab", "schemas")))
        with session.capturing_plants():
            for cmd in workload.prepare + workload.passes:
                session.run(cmd)
        if trace:
            spans_path = os.path.join(out_root, f"spans-{name}-{seed}.json")
            metrics, report = _trace(workload, session, seconds, spans_path)
        else:
            metrics, report = _measure(workload, session, seconds)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    report.update({
        "workload": name,
        "fail_ratio": _metric(session.failed / session.attempted, "ratio"),
        "digest": session.pass_digest(workload.prepare + workload.passes),
        "problems": session.problems[:10],
        "context": _context(seed),
    })
    result = {"correct": session.failed == 0, "attempted": session.attempted,
              "failed": session.failed, "metrics": metrics}
    return result, report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "modalstab", "cli.py")):
        print(f"perfbench: no modalstab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        result, report = run_workload(name, args.seed, args.seconds, bool(args.trace))
        results[name] = result
        for metric, m in sorted(result["metrics"].items()):
            print(f"{name} {metric} = {m['value']:.6g} {m['unit']}")
        print(f"{name} fail_ratio = {report['fail_ratio']['value']:.6g} ratio "
              f"({result['failed']}/{result['attempted']})")
        print(json.dumps({"report": report}))
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {f"{w}.{k}": v for w, r in results.items()
                             for k, v in r["metrics"].items()}}
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
