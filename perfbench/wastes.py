"""Re-measure the three known wastes the benchmark's workloads cover.

    python3 perfbench/wastes.py double-build   # ~30 s, ~700 MB peak
    python3 perfbench/wastes.py journal-passes # ~60 s
    python3 perfbench/wastes.py import-cost    # ~5 s

Each prints one JSON object.  ``double-build`` runs a 1-shard
``run_pipeline`` on a 4,000-AS star world (small AS sample) under the
layer tracer; ``journal-passes`` runs a journaled 4-shard tiered
pipeline at 120 ASes under the tracer; ``import-cost`` reads
``python -X importtime`` for ``import repro.core`` and for
``import scipy.stats`` alone.  Run from the root
of a source checkout; scratch files go to ``.perfbench-work/``.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

from run import CHILD, WORK_ROOT, child_env, launch  # noqa: E402


def traced_pipeline(spec, name: str) -> dict:
    work = WORK_ROOT / f"waste-{name}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        (work / "spec.json").write_text(json.dumps(spec.to_payload()))
        record = work / "record.json"
        m = launch(
            [sys.executable, str(CHILD), "--record", str(record), "--spans",
             str(work / "spans"), "pipeline", str(work / "spec.json"),
             str(work / "run")],
            child_env(), work / "out", work / "err",
        )
        if m.code != 0:
            raise SystemExit((work / "err").read_text()[-2000:])
        trace = json.loads(record.read_text())["trace"]
        events = work / "run" / "events.ndjson"
        return {
            "wall_s": m.wall,
            "peak_rss_mb": m.rss_mb,
            "trace": trace,
            "events_mb": events.stat().st_size / 1e6 if events.exists()
            else None,
        }
    finally:
        shutil.rmtree(work, ignore_errors=True)


def double_build() -> dict:
    from workloads import campaign_spec

    spec = campaign_spec(2019, 4000, asn_sample={"rate": 0.01, "seed": 1})
    got = traced_pipeline(spec, "double-build")
    trace = got["trace"]
    return {
        "command": "run_pipeline, star, n_ases=4000, shards=1, "
                   "asn_sample rate 0.01, workers=0",
        "wall_s": got["wall_s"],
        "peak_rss_mb": got["peak_rss_mb"],
        "builds": trace["counts"].get("scenarios.builds", 0),
        "build_s": trace["total_s"].get("scenarios.build", 0.0),
    }


def journal_passes() -> dict:
    from workloads import campaign_spec
    from repro.netsim.topology import TopologySpec

    spec = campaign_spec(2019, 120, shards=4, journal=True,
                         topology=TopologySpec().to_payload())
    got = traced_pipeline(spec, "journal-passes")
    total = got["trace"]["total_s"]
    return {
        "command": "run_pipeline, tiered, n_ases=120, shards=4, "
                   "journal, workers=0",
        "wall_s": got["wall_s"],
        "collect_s": total.get("core.pipeline.collect", 0.0),
        "analyze_s": total.get("core.pipeline.analyze", 0.0),
        "merge_shard_journals_s": total.get("obs.journal.merge", 0.0),
        "append_classifications_s": total.get("obs.journal.classify", 0.0),
        "events_mb": got["events_mb"],
    }


def _cumulative_import_s(statement: str) -> dict:
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", statement],
        env=child_env(), capture_output=True, text=True, check=True,
    )
    cumulative = {}
    for line in proc.stderr.splitlines():
        match = re.match(r"import time:\s+\d+ \|\s+(\d+) \|\s*(\S+)$", line)
        if match:
            cumulative[match.group(2)] = int(match.group(1)) / 1e6
    return cumulative


def import_cost() -> dict:
    core = _cumulative_import_s("import repro.core")
    scipy = _cumulative_import_s("import scipy.stats")
    return {
        "command": "python3 -X importtime -c 'import repro.core' (and "
                   "'import scipy.stats' alone)",
        "repro.core_s": core.get("repro.core"),
        "repro.fingerprint.portrange_s": core.get(
            "repro.fingerprint.portrange"
        ),
        "scipy.stats_alone_s": scipy.get("scipy.stats"),
    }


MEASURES = {
    "double-build": double_build,
    "journal-passes": journal_passes,
    "import-cost": import_cost,
}

if __name__ == "__main__":
    if len(sys.argv) != 2 or sys.argv[1] not in MEASURES:
        raise SystemExit(f"usage: wastes.py {{{','.join(MEASURES)}}}")
    print(json.dumps(MEASURES[sys.argv[1]](), indent=2))
