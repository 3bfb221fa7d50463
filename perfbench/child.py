"""One workload process: run a program entry point, record when the
first probe was scheduled, optionally under the layer tracer.

    python3 perfbench/child.py --record OUT.json [--spans SPANS.bin] \\
        cli <repro-dsav arguments...>
    python3 perfbench/child.py --record OUT.json pipeline SPEC.json RUN_DIR
    python3 perfbench/child.py --record OUT.json \
        campaign SPEC.json PLAN.json EPOCHS CAMPAIGN_DIR

``cli`` calls ``repro.cli.main`` exactly as the ``repro-dsav`` console
script does; ``pipeline`` calls ``run_pipeline`` on a serialized
``CampaignSpec`` and ``campaign`` calls ``run_campaign`` with it and an
evolution plan, both with inline shards (``workers=0``).  The record holds
the ``time.monotonic()`` reading at the end of the first
``Scanner.schedule_campaign`` call (system-wide clock, so the parent can
subtract its own launch time) and, when tracing, the tracer summary.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))


def _mark_first_schedule(record: dict) -> None:
    """Note the moment the first probe batch is staged, then step aside:
    the hook replaces itself with the original after one call."""
    from repro.core.scanner import Scanner

    original = Scanner.schedule_campaign

    def first_schedule(self):
        original(self)
        record.setdefault("first_probe_monotonic", time.monotonic())
        if Scanner.schedule_campaign is first_schedule:
            Scanner.schedule_campaign = original

    Scanner.schedule_campaign = first_schedule


def _run(kind: str, args: list[str]) -> int:
    if kind == "cli":
        from repro.cli import main

        return main(args)
    if kind == "pipeline":
        from repro.core.pipeline import CampaignSpec, run_pipeline

        spec_path, run_dir = args
        spec = CampaignSpec.from_payload(json.loads(Path(spec_path).read_text()))
        run_pipeline(spec, run_dir=run_dir, workers=0)
        return 0
    if kind == "campaign":
        from repro.campaigns import EvolutionPlan, run_campaign
        from repro.core.pipeline import CampaignSpec

        spec_path, plan_path, epochs, campaign_dir = args
        spec = CampaignSpec.from_payload(json.loads(Path(spec_path).read_text()))
        run_campaign(spec, EvolutionPlan.load(plan_path), int(epochs),
                     campaign_dir, workers=0)
        return 0
    raise SystemExit(f"unknown entry kind {kind!r}")


def main(argv: list[str]) -> int:
    record_path = None
    spans_path = None
    while argv and argv[0].startswith("--"):
        flag, value, *argv = argv
        if flag == "--record":
            record_path = Path(value)
        elif flag == "--spans":
            spans_path = Path(value)
        else:
            raise SystemExit(f"unknown flag {flag}")
    kind, *args = argv
    record: dict = {}
    tracer = None
    if spans_path is not None:
        from tracer import Tracer, install

        tracer = Tracer()
        record["missing_targets"] = install(tracer)
    _mark_first_schedule(record)
    code = _run(kind, args)
    record["exit_code"] = code
    if tracer is not None:
        record["trace"] = tracer.summary()
        tracer.write_spans(spans_path)
    if record_path is not None:
        record_path.write_text(json.dumps(record))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
