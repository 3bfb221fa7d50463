"""Scan-pipeline benchmark: one command, three workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  The benchmark drives the
program only through its public entry points (``repro-dsav`` commands,
``run_pipeline``, ``run_campaign``), each workload process launched
fresh with no scenario cache, one process at a time, shards inline.

``--trace 0`` repeats whole rounds (the workload run, then its
read-side commands) to fill about ``--seconds``, at least three, and
reports the medians of the end-to-end metrics.  ``--trace 1`` runs one untraced round and two
traced rounds and reports the per-layer metrics (see README.md).

The last line of stdout is ``{"correct", "attempted", "failed",
"metrics"}``; the line before it is the run record (inputs, host facts,
every round's figures).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from workloads import WORKLOADS, artifact_bytes

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"
WORK_ROOT = ROOT / ".perfbench-work"
#: a process that outlives this is killed and its operation failed.
LAUNCH_TIMEOUT = 150.0
#: rounds per untraced run, at least: with fewer, one slow round moves
#: the median.
MIN_ROUNDS = 3
#: imported once in a fresh process, untimed, before the first round,
#: so no timed process compiles bytecode or reads the modules cold.
WARM_UP = ("import repro.cli, repro.core.pipeline, repro.campaigns, "
           "repro.obs.diff, repro.obs.explain, repro.obs.ledger, "
           "repro.obs.trend")

END_TO_END = [
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("cpu_s", "s"),
    ("probes_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("artifact_mb", "MB"),
    ("query_s", "s"),
]

#: counts reported per run and per probe (``<name>.per_probe``).
COUNTS = [
    "scenarios.builds",
    "dns.codec.encodes",
    "dns.codec.decodes",
    "dns.codec.bytes",
    "netsim.determinism.hashes",
    "netsim.events.events",
    "netsim.fabric.packets",
    "dns.resolver.queries",
    "dns.auth.queries",
    "core.scanner.probes",
    "core.pipeline.shard_runs",
    "obs.journal.events",
    "campaigns.shard_cache_hits",
]

#: per-layer times: metric -> (how, span names) where ``self`` sums self
#: time and ``total`` sums whole span durations.
TIMES = {
    "scenarios.build_s": ("total", ["scenarios.build"]),
    "scenarios.load_s": ("total", ["scenarios.serialize",
                                   "scenarios.deserialize"]),
    "dns.codec.self_s": ("self", ["dns.codec.message_encode",
                                  "dns.codec.message_decode",
                                  "dns.codec.name_encode",
                                  "dns.codec.name_decode"]),
    "dns.transport.self_s": ("self", ["dns.transport"]),
    "core.qname.self_s": ("self", ["core.qname"]),
    "netsim.determinism.self_s": ("self", ["netsim.determinism"]),
    "netsim.events.self_s": ("self", ["netsim.events"]),
    "netsim.fabric.self_s": ("self", ["netsim.fabric"]),
    "dns.resolver.self_s": ("self", ["dns.resolver"]),
    "dns.auth.self_s": ("self", ["dns.auth"]),
    "core.scanner.self_s": ("self", ["core.scanner"]),
    "core.scanner.schedule_s": ("total", ["core.scanner.schedule"]),
    "core.collection.self_s": ("self", ["core.collection"]),
    "core.pipeline.collect_s": ("total", ["core.pipeline.collect"]),
    "core.pipeline.analyze_s": ("total", ["core.pipeline.analyze"]),
    "obs.journal.merge_s": ("total", ["obs.journal.merge"]),
    "obs.journal.classify_s": ("total", ["obs.journal.classify"]),
    "obs.explain.load_s": ("total", ["obs.explain.load"]),
    "obs.explain.audit_s": ("total", ["obs.explain.audit"]),
    "obs.ledger.rebuild_s": ("total", ["obs.ledger.rebuild"]),
    "obs.diff.run_s": ("total", ["obs.diff.run"]),
    "obs.trend.build_s": ("total", ["obs.trend.build"]),
    "campaigns.supervisor.self_s": ("self", ["campaigns.run"]),
}


def per_layer_names() -> list[str]:
    names = []
    for count in COUNTS:
        names += [count, f"{count}.per_probe"]
    names += list(TIMES)
    names += ["campaigns.epoch_s", "campaigns.shard_cache_reuse",
              "trace.wall_s", "trace.untraced_wall_s", "trace.overhead_pct",
              "trace.spans"]
    return names


# ---------------------------------------------------------------------------
# launching one process
# ---------------------------------------------------------------------------

@dataclass
class Measured:
    code: int
    start: float  # time.monotonic() just before the launch
    wall: float
    cpu: float
    rss_mb: float


def launch(argv, env, stdout_path: Path, stderr_path: Path) -> Measured:
    """Run *argv* to completion; wall, CPU and peak RSS of that process.

    ``os.wait4`` gives the resource usage of exactly this child; a timer
    kills the process group of a process that hangs.
    """
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        start = time.monotonic()
        proc = subprocess.Popen(argv, env=env, stdout=out, stderr=err,
                                cwd=ROOT, start_new_session=True)
        killer = threading.Timer(
            LAUNCH_TIMEOUT, os.killpg, (proc.pid, signal.SIGKILL)
        )
        killer.start()
        status = None
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
            if status is None:  # interrupted: take the child down too
                os.killpg(proc.pid, signal.SIGKILL)
                os.waitpid(proc.pid, 0)
        wall = time.monotonic() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Measured(
        code=proc.returncode,
        start=start,
        wall=wall,
        cpu=usage.ru_utime + usage.ru_stime,
        rss_mb=usage.ru_maxrss / 1024.0,  # Linux reports KiB
    )


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    # A warm cache silently turns a cold build into a load.
    env.pop("REPRO_SCENARIO_CACHE", None)
    return env


# ---------------------------------------------------------------------------
# rounds
# ---------------------------------------------------------------------------

@dataclass
class Round:
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    values: dict = field(default_factory=dict)
    trace: dict | None = None
    seconds: float = 0.0


def run_round(workload, inputs, run_dir: Path, logs: Path, env,
              traced: bool) -> Round:
    """One whole round: the workload run, then its read-side commands."""
    started = time.monotonic()
    logs.mkdir(parents=True, exist_ok=True)
    rnd = Round()
    launches = workload.launches(inputs, run_dir)
    rnd.attempted = sum(item.operations for item in launches)
    outputs: dict = {}
    measured: dict = {}
    records: dict = {}
    before: dict = {}
    for index, item in enumerate(launches):
        if index and (not measured or measured[launches[0].name].code != 0):
            # The read commands have nothing to read.
            rnd.failed += item.operations
            continue
        record = logs / f"{item.name}.record.json"
        spans = ["--spans", str(logs / f"{item.name}.spans")] if traced else []
        if item.kind == "main":
            argv = [sys.executable, str(CHILD), "--record", str(record),
                    *spans, *item.argv]
        elif traced:
            argv = [sys.executable, str(CHILD), "--record", str(record),
                    *spans, "cli", *item.argv]
        else:
            argv = [sys.executable, "-m", "repro.cli", *item.argv]
        out = logs / f"{item.name}.out"
        m = launch(argv, env, out, logs / f"{item.name}.err")
        measured[item.name] = m
        outputs[item.name] = (m.code, out.read_text(errors="replace"))
        if record.exists():
            records[item.name] = json.loads(record.read_text())
        if m.code != 0:
            rnd.failed += item.operations
            rnd.problems.append(
                f"{item.name} exited {m.code}: "
                + (logs / f"{item.name}.err").read_text(errors="replace")[-400:]
            )
        if index == 0 and m.code == 0:
            before = workload.before_queries(run_dir)

    main = launches[0]
    m = measured.get(main.name)
    if m is not None and m.code == 0:
        problems = workload.check_round(inputs, run_dir, outputs, before)
        if problems:
            rnd.failed += main.operations
            rnd.problems += problems
        first_probe = records.get(main.name, {}).get("first_probe_monotonic")
        probes = workload.probes(inputs, run_dir)
        rnd.values = {
            "wall_s": m.wall,
            "setup_s": (first_probe - m.start) if first_probe else None,
            "cpu_s": m.cpu,
            "probes_per_s": probes / m.wall,
            "peak_rss_mb": m.rss_mb,
            "artifact_mb": sum(
                artifact_bytes(d) for d in workload.run_dirs(inputs, run_dir)
            ) / 1e6,
            "query_s": sum(
                measured[q.name].wall for q in launches[1:]
                if q.name in measured
            ),
            "probes": probes,
        }
        if first_probe is None:
            rnd.failed += main.operations
            rnd.problems.append("no probe was ever scheduled")
    if traced:
        rnd.trace = merge_traces(
            [r["trace"] for r in records.values() if "trace" in r]
        )
        rnd.trace["missing_targets"] = sorted({
            t for r in records.values() for t in r.get("missing_targets", [])
        })
    rnd.seconds = time.monotonic() - started
    return rnd


def merge_traces(summaries: list[dict]) -> dict:
    merged = {"calls": {}, "self_s": {}, "total_s": {}, "counts": {},
              "spans": 0}
    for summary in summaries:
        for key in ("calls", "self_s", "total_s", "counts"):
            for name, value in summary[key].items():
                merged[key][name] = merged[key].get(name, 0) + value
        merged["spans"] += summary["spans"]
    return merged


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def median(values):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else None


def layer_metrics(trace: dict, probes: int, inputs, workload) -> dict:
    counts = trace["counts"]
    out = {}
    for name in COUNTS:
        value = counts.get(name, 0)
        out[name] = value
        out[f"{name}.per_probe"] = value / probes if probes else 0.0
    for metric, (how, spans) in TIMES.items():
        source = trace["self_s" if how == "self" else "total_s"]
        out[metric] = sum(source.get(s, 0.0) for s in spans)
    campaign = trace["calls"].get("campaigns.run", 0) > 0
    out["campaigns.epoch_s"] = (
        trace["total_s"].get("core.pipeline.run", 0.0) / inputs.epochs
        if campaign else 0.0
    )
    eligible = workload.SHARDS * (inputs.epochs - 1)
    out["campaigns.shard_cache_reuse"] = (
        counts.get("campaigns.shard_cache_hits", 0) / eligible
        if campaign and eligible else 0.0
    )
    out["trace.spans"] = trace["spans"]
    return out


def emit_metrics(values: dict, section: str) -> dict:
    """*values* with the units ``BENCHMARK.json`` declares for them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in spec[section]}
    missing = set(declared) - set(values)
    extra = set(values) - set(declared)
    if missing or extra:
        raise SystemExit(
            f"metric names drifted from BENCHMARK.json {section}: "
            f"missing {sorted(missing)}, undeclared {sorted(extra)}"
        )
    return {name: {"value": values[name], "unit": declared[name]}
            for name in declared}


def host_facts() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "loadavg": list(os.getloadavg()),
    }


# ---------------------------------------------------------------------------
# the two modes
# ---------------------------------------------------------------------------

def run_untraced(workload, inputs, work: Path, env, seconds: float):
    rounds = []
    count = MIN_ROUNDS
    index = 0
    while index < count:
        if index:
            workload.cleanup(work / f"run-{index - 1}")
        rnd = run_round(workload, inputs, work / f"run-{index}",
                        work / f"logs-{index}", env, traced=False)
        if index == 0:
            # Whole rounds only, as many as fill about --seconds.
            count = max(MIN_ROUNDS, round(seconds / rnd.seconds))
        rounds.append(rnd)
        index += 1
    last_dir = work / f"run-{index - 1}"
    once = []
    if rounds[-1].values:
        once = workload.check_once(inputs, last_dir, work)
    values = {
        name: median(r.values.get(name) for r in rounds if r.values)
        for name, _ in END_TO_END
    }
    return rounds, once, values


def run_traced(workload, inputs, work: Path, env):
    reference = run_round(workload, inputs, work / "run-untraced",
                          work / "logs-untraced", env, traced=False)
    workload.cleanup(work / "run-untraced")
    traced = []
    for index in range(2):
        run_dir = work / f"run-traced-{index}"
        traced.append(run_round(workload, inputs, run_dir,
                                work / f"logs-traced-{index}", env,
                                traced=True))
        if index == 0:
            workload.cleanup(run_dir)
    rounds = [reference, *traced]
    once = []
    if traced[-1].values:
        once = workload.check_once(inputs, work / "run-traced-1", work)
    if all(r.values for r in rounds):
        if traced[0].trace["counts"] != traced[1].trace["counts"]:
            once.append(
                "traced counts differ between two runs of one seed: "
                f"{traced[0].trace['counts']} vs {traced[1].trace['counts']}"
            )
        if traced[1].trace["missing_targets"]:
            once.append("trace targets not found: "
                        f"{traced[1].trace['missing_targets']}")
    values = {}
    if all(r.values for r in rounds):
        per_round = [
            layer_metrics(r.trace, r.values["probes"], inputs, workload)
            for r in traced
        ]
        for name in per_round[0]:
            values[name] = statistics.mean(p[name] for p in per_round)
        for count in COUNTS:  # exact: repeatability checked above
            values[count] = per_round[0][count]
        traced_wall = statistics.mean(r.values["wall_s"] for r in traced)
        values["trace.wall_s"] = traced_wall
        values["trace.untraced_wall_s"] = reference.values["wall_s"]
        values["trace.overhead_pct"] = 100.0 * (
            traced_wall / reference.values["wall_s"] - 1.0
        )
        keep = WORK_ROOT / f"trace-{workload.name}"
        shutil.rmtree(keep, ignore_errors=True)
        shutil.copytree(work / "logs-traced-1", keep)
    return rounds, once, values


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=2019)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Turn SIGTERM into an exception so running children are reaped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (ROOT / "src" / "repro" / "cli.py").is_file():
        print(f"error: {ROOT} holds no program source (src/repro)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    os.environ.pop("REPRO_SCENARIO_CACHE", None)
    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r} "
              f"(choose from {', '.join(WORKLOADS)})", file=sys.stderr)
        return 2

    work = WORK_ROOT / f"{workload.name}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        host = host_facts()
        prepare_start = time.monotonic()
        inputs = workload.prepare(args.seed, work)
        prepare_s = time.monotonic() - prepare_start
        env = child_env()
        launch([sys.executable, "-c", WARM_UP], env, work / "warm-up.out",
               work / "warm-up.err")
        if args.trace:
            rounds, once, values = run_traced(workload, inputs, work, env)
            section = "per_layer"
        else:
            rounds, once, values = run_untraced(
                workload, inputs, work, env, args.seconds
            )
            section = "end_to_end"
    finally:
        shutil.rmtree(work, ignore_errors=True)

    problems = [p for r in rounds for p in r.problems] + once
    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    complete = bool(values) and all(v is not None for v in values.values())
    correct = complete and not problems
    for problem in problems:
        print(f"problem: {problem}", file=sys.stderr)
    record = {
        "workload": workload.name,
        "seed": args.seed,
        "trace": args.trace,
        "inputs": inputs.description,
        "prepare_s": prepare_s,
        "host": host,
        "rounds": [
            {"seconds": r.seconds, "attempted": r.attempted,
             "failed": r.failed, **r.values}
            for r in rounds
        ],
    }
    print(json.dumps(record))
    if not complete:
        print("error: no round produced every metric", file=sys.stderr)
        return 1
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed,
                      "metrics": emit_metrics(values, section)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
