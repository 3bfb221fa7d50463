"""The three workloads: inputs made from the seed, the processes one
round launches, the correctness checks and the artifact accounting.

Everything here runs in the benchmark's own process, outside the timed
region.  Every seed scans the same world, the paper's default seed
2019 (``WORLD_SEED``), and a calibrated AS sample of it
(``CampaignSpec.asn_sample``).  The benchmark seed picks the
experiment keyword (``ScanConfig.keyword``) instead: it is part of
every query name, so it changes every content-keyed choice made from
one (transaction ids, source ports, probe ids, fault fates) but not how
much work a scan does.  A seed that picked the world changed the work
a lot: at equal probe counts, two star scans took 3.2 s and 7.2 s of
CPU with 46 and 144 targets reached, because each reached target draws
follow-up queries.
"""

from __future__ import annotations

import hashlib
import json
import re
import shutil
from dataclasses import dataclass, field, replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
INPUTS = HERE / "inputs"

#: the world every benchmark seed scans (``CampaignSpec.seed``).
WORLD_SEED = 2019

#: AS-sample seeds tried; the best cut over all of them is kept.
SAMPLE_SEED_CANDIDATES = 128


def scan_keyword(seed: int) -> str:
    """The experiment keyword of benchmark seed *seed*: one DNS label of
    eight characters, so every seed's query names have one length."""
    return "k" + hashlib.sha256(b"perfbench:%d" % seed).hexdigest()[:7]


# ---------------------------------------------------------------------------
# ground truth and input properties, computed apart from the scan
# ---------------------------------------------------------------------------

@dataclass
class Truth:
    """What a built world really is, reduced to what the checks need."""

    dsav_lacking: frozenset
    martian_unfiltered: frozenset
    alive: frozenset
    open_: frozenset

    @classmethod
    def of(cls, scenario) -> "Truth":
        truth = scenario.truth
        return cls(
            dsav_lacking=frozenset(truth.dsav_lacking_asns),
            martian_unfiltered=frozenset(truth.martian_unfiltered_asns),
            alive=frozenset(
                str(a) for a, info in truth.by_address.items() if info.alive
            ),
            open_=frozenset(
                str(a) for a, info in truth.by_address.items() if info.open_
            ),
        )


#: per-AS input properties: planned first-attempt probes; among alive
#: targets in a DSAV-lacking AS that admit one of their planned spoofed
#: sources (the ones a scan can reach) all, the open ones and the
#: forwarders (both answer with extra traffic); and probes times AS hops
#: from the vantage point (tiered worlds only: every hop is a border
#: check and a journal path segment).
FEATURES = ("probes", "reachable", "open", "forwarders", "probe_hops")


class AsCensus:
    """Per target ASN, the ``FEATURES``, counted on demand (the spoof
    planner is deterministic per target, so the probes are what a scan
    schedules)."""

    def __init__(self, scenario) -> None:
        from repro.core.sources import SourceCategory

        #: spoofed source categories a martian-filtering border drops.
        self._martian = {SourceCategory.PRIVATE, SourceCategory.LOOPBACK}
        self._planner = scenario.make_planner()
        self._truth = scenario.truth
        self._routes = scenario.routes if scenario.topology else None
        self._targets: dict[int, list] = {}
        for target in scenario.target_set().targets:
            self._targets.setdefault(target.asn, []).append(target.address)
        self._features: dict[int, dict] = {}

    @property
    def asns(self):
        return self._targets.keys()

    def features(self, asn: int) -> dict:
        found = self._features.get(asn)
        if found is None:
            found = dict.fromkeys(FEATURES, 0)
            lacking = asn in self._truth.dsav_lacking_asns
            martians_pass = asn in self._truth.martian_unfiltered_asns
            for address in self._targets[asn]:
                plan = self._planner.plan(address)
                sources = plan.sources if plan else ()
                found["probes"] += len(sources)
                info = self._truth.by_address.get(address)
                if not (lacking and info is not None and info.alive):
                    continue
                if info.host is not None and not any(
                    (martians_pass or source.category not in self._martian)
                    and info.host.acl.allows(source.address)
                    for source in sources
                ):
                    continue
                found["reachable"] += 1
                found["open"] += info.open_
                found["forwarders"] += info.is_forwarder
            if self._routes is not None:
                from repro.scenarios.internet import MEASUREMENT_ASN

                path = self._routes.as_path(MEASUREMENT_ASN, asn)
                hops = len(path[0]) - 1 if path else 0
                found["probe_hops"] = found["probes"] * hops
            self._features[asn] = found
        return found


def calibrate_sample(census: AsCensus, goal: dict, seed: int,
                     set_features=None):
    """The ``asn_sample`` whose input properties come closest to *goal*.

    ``CampaignSpec.asn_sample`` keeps an AS when
    ``stable_fraction(sample_seed, "as-sample", asn) < rate``.  For each
    candidate sample seed, ASes enter in fraction order.  Every cut is
    scored by its largest relative miss over the goal's properties: the
    census features, plus ``set_features(asns)`` for properties of the
    whole set (``None`` rules the cut out).  A goal under 10 counts as
    10, so one target more or less in a small count does not outweigh
    the rest.  The best cut over all candidates wins.  Returns
    ``(sample, asns, properties)``.
    """
    from repro.netsim.determinism import stable_fraction

    best = None
    for k in range(SAMPLE_SEED_CANDIDATES):
        sample_seed = seed * SAMPLE_SEED_CANDIDATES + k
        ranked = sorted(
            (stable_fraction(sample_seed, "as-sample", asn), asn)
            for asn in census.asns
        )
        totals = dict.fromkeys(FEATURES, 0)
        for j, (fraction, asn) in enumerate(ranked):
            features = census.features(asn)
            for key in totals:
                totals[key] += features[key]
            if features["probes"] == 0:
                continue
            chosen = [a for _, a in ranked[: j + 1]]
            values = dict(totals)
            if set_features is not None:
                extra = set_features(chosen)
                if extra is None:
                    continue
                values.update(extra)
            miss = max(abs(values[key] - goal[key]) / max(goal[key], 10)
                       for key in goal)
            if best is None or miss < best[0]:
                upper = ranked[j + 1][0] if j + 1 < len(ranked) else 1.0
                best = (miss, sample_seed, (fraction + upper) / 2, chosen,
                        values)
            if totals["probes"] > 1.5 * goal["probes"]:
                break
    _, sample_seed, rate, chosen, values = best
    return {"rate": rate, "seed": sample_seed}, frozenset(chosen), values


# ---------------------------------------------------------------------------
# artifact accounting
# ---------------------------------------------------------------------------

#: JSON keys whose values are paced by the wall clock (or carry span
#: timings); their bytes are left out so the figure repeats.
WALL_KEYS = ("wall_seconds", "timings", "telemetry")
_WALL_KEY = re.compile(r'"(%s)"\s*:\s*' % "|".join(WALL_KEYS))
_WALL_OR_PROVENANCE = re.compile(
    r'"(%s)"\s*:\s*' % "|".join(WALL_KEYS + ("provenance",))
)
_DECODER = json.JSONDecoder()


def _bytes_without(path: Path, pattern) -> int:
    text = path.read_text()
    size = len(text.encode())
    for match in pattern.finditer(text):
        _, end = _DECODER.raw_decode(text, match.end())
        size -= len(text[match.end():end].encode())
    return size


def artifact_bytes(run_dir: Path) -> int:
    """Bytes of the artifacts that depend only on the spec: journals,
    observations, shard artifacts, ``scenario.bin`` and results without
    ``provenance``."""
    total = 0
    for path in sorted(run_dir.iterdir()):
        name = path.name
        if name == "scenario.bin" or (
            name.startswith("events") and name.endswith(".ndjson")
        ):
            total += path.stat().st_size
        elif name == "observations.json" or (
            name.startswith("shard-") and name.endswith(".json")
        ):
            total += _bytes_without(path, _WALL_KEY)
        elif name == "results.json":
            total += _bytes_without(path, _WALL_OR_PROVENANCE)
    return total


# ---------------------------------------------------------------------------
# checks on one run directory
# ---------------------------------------------------------------------------

def read_json(path: Path):
    return json.loads(Path(path).read_text())


def results_sans_provenance(run_dir: Path) -> dict:
    results = read_json(run_dir / "results.json")
    results.pop("provenance", None)
    return results


def check_observations(run_dir: Path, truth: Truth, sample_asns,
                       label: str = "") -> list[str]:
    """Scan outcomes against the world's ground truth."""
    problems = []
    where = f"{label or run_dir.name}: "
    observations = read_json(run_dir / "observations.json")
    for obs in observations["collection"]["observations"]:
        target, asn = obs["target"], obs["asn"]
        if asn not in truth.dsav_lacking:
            problems.append(f"{where}AS{asn} reached but has DSAV")
        if target not in truth.alive:
            problems.append(f"{where}{target} reached but not alive")
        if obs["open"] and target not in truth.open_:
            problems.append(f"{where}{target} reported open but is closed")
        if "loopback" in obs["categories"] and (
            asn not in truth.martian_unfiltered
        ):
            problems.append(
                f"{where}loopback hit from AS{asn}, which filters martians"
            )
        if asn not in sample_asns:
            problems.append(f"{where}AS{asn} is outside the AS sample")
    return problems


def check_probe_journal(run_dir: Path) -> list[str]:
    """Every sent probe has exactly one ``probe.sent`` journal event."""
    sent = read_json(run_dir / "results.json")["provenance"]["probes_sent"]
    events = 0
    with open(run_dir / "events.ndjson") as handle:
        for line in handle:
            if '"probe.sent"' in line and json.loads(line)["kind"] == (
                "probe.sent"
            ):
                events += 1
    if events != sent:
        return [f"{run_dir.name}: {events} probe.sent events for "
                f"{sent} probes sent"]
    return []


def self_diff_problems(outputs: dict, name: str) -> list[str]:
    code, text = outputs[name]
    if code != 0:
        return [f"{name} exited {code}"]
    if not json.loads(text)["empty"]:
        return [f"{name}: diff of a run with itself is not empty"]
    return []


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

@dataclass
class Launch:
    """One process of a round: ``kind`` is ``main`` (the workload run,
    launched through ``child.py``) or ``query`` (a ``repro-dsav`` read
    command); ``argv`` is what follows ``child.py`` or ``-m repro.cli``;
    ``operations`` counts the campaign epochs a main run holds."""

    kind: str
    name: str
    argv: list[str]
    operations: int = 1


@dataclass
class Inputs:
    seed: int
    description: dict
    spec: object
    spec_path: Path
    sample_asns: frozenset
    truths: list = field(default_factory=list)
    epochs: int = 1
    plan: object = None


def campaign_spec(seed: int, n_ases: int, **kwargs):
    """A ``CampaignSpec``: star topology and the default scan config
    unless *kwargs* say otherwise."""
    from repro.core import ScanConfig
    from repro.core.pipeline import CampaignSpec

    config = kwargs.pop("config", None) or ScanConfig()
    return CampaignSpec.from_scan_config(
        seed=seed, n_ases=n_ases, shards=kwargs.pop("shards", 1),
        config=config, **kwargs,
    )


class Workload:
    name = ""
    N_ASES = 0
    PROBES = 0
    #: goal per planned probe for the other ``FEATURES``: typical
    #: whole-world ratios for the topology.
    PER_PROBE = {"reachable": 0.019, "open": 0.0068, "forwarders": 0.0049}
    SHARDS = 1

    def spec(self, seed: int, sample):
        from repro.core import ScanConfig

        return campaign_spec(WORLD_SEED, self.N_ASES,
                             config=ScanConfig(keyword=scan_keyword(seed)),
                             asn_sample=sample)

    def set_features(self):
        return None

    def world(self, seed: int):
        """Parameters of the world the sample is drawn from."""
        return self.spec(seed, None).scenario_params()

    def prepare(self, seed: int, work: Path) -> Inputs:
        from repro.scenarios import build_internet

        scenario = build_internet(self.world(seed))
        goal = {"probes": self.PROBES}
        goal.update((key, share * self.PROBES)
                    for key, share in self.PER_PROBE.items())
        set_features = self.set_features()
        if set_features is not None:
            goal.update(set_features.goal)
        sample, asns, properties = calibrate_sample(
            AsCensus(scenario), goal, WORLD_SEED, set_features
        )
        spec = self.spec(seed, sample)
        spec_path = work / "spec.json"
        spec_path.write_text(json.dumps(spec.to_payload()))
        return Inputs(
            seed=seed,
            description={
                "world_seed": WORLD_SEED,
                "keyword": scan_keyword(seed),
                "n_ases": self.N_ASES,
                "topology": "tiered" if spec.topology else "star",
                "shards": self.SHARDS,
                "asn_sample": sample,
                "sampled_asns": len(asns),
                **properties,
            },
            spec=spec,
            spec_path=spec_path,
            sample_asns=asns,
            truths=[Truth.of(scenario)],
        )

    def launches(self, inputs: Inputs, run_dir: Path) -> list[Launch]:
        return [
            Launch("main", "scan", ["pipeline", str(inputs.spec_path),
                                    str(run_dir)]),
            Launch("query", "diff", ["diff", str(run_dir), str(run_dir),
                                     "--json"]),
        ]

    def run_dirs(self, inputs: Inputs, run_dir: Path) -> list[Path]:
        return [run_dir]

    def probes(self, inputs: Inputs, run_dir: Path) -> int:
        return sum(
            read_json(d / "results.json")["probes"]
            for d in self.run_dirs(inputs, run_dir)
        )

    def before_queries(self, run_dir: Path) -> dict:
        """State captured after the main run, before the read commands."""
        return {}

    def check_round(self, inputs: Inputs, run_dir: Path, outputs: dict,
                    before: dict) -> list[str]:
        """Checks on one round: ``outputs`` maps each launch name to
        ``(exit code, stdout text)``; ``before`` is ``before_queries``."""
        return check_observations(
            run_dir, inputs.truths[0], inputs.sample_asns
        ) + self_diff_problems(outputs, "diff")

    def check_once(self, inputs: Inputs, run_dir: Path,
                   work: Path) -> list[str]:
        """The costly equivalence checks, once per invocation."""
        return []

    def cleanup(self, run_dir: Path) -> None:
        shutil.rmtree(run_dir, ignore_errors=True)


class PaperScan(Workload):
    name = "paper-scan"
    N_ASES = 200
    PROBES = 5000


class ForensicTiered(Workload):
    name = "forensic-tiered"
    N_ASES = 40
    PROBES = 3000
    PER_PROBE = {"reachable": 0.0075, "open": 0.0025, "forwarders": 0.0016,
                 "probe_hops": 2.5}
    SHARDS = 4

    def spec(self, seed, sample):
        from repro.core import ScanConfig
        from repro.netsim.faults import FaultPlan
        from repro.netsim.topology import TopologySpec

        return campaign_spec(
            WORLD_SEED, self.N_ASES, shards=self.SHARDS,
            config=ScanConfig(max_retries=1, keyword=scan_keyword(seed)),
            metrics=True, journal=True, stream=True,
            faults=FaultPlan.load(INPUTS / "campaign-weather.json")
            .to_payload(),
            topology=TopologySpec().to_payload(),
            asn_sample=sample,
        )

    def launches(self, inputs, run_dir):
        return [
            Launch("main", "scan", ["pipeline", str(inputs.spec_path),
                                    str(run_dir)]),
            Launch("query", "explain", ["explain", str(run_dir), "--audit"]),
        ]

    def check_round(self, inputs, run_dir, outputs, before):
        problems = check_observations(run_dir, inputs.truths[0],
                                      inputs.sample_asns)
        problems += check_probe_journal(run_dir)
        if not list(run_dir.glob("crash-000-*.marker")):
            problems.append("the scripted shard crash never fired")
        code, text = outputs["explain"]
        if code != 0 or "audit OK" not in text:
            problems.append(f"explain --audit exited {code}: {text[:200]}")
        return problems

    def check_once(self, inputs, run_dir, work):
        """The 4-shard run equals a 1-shard run of the same spec."""
        from repro.core.pipeline import run_pipeline

        single = work / "one-shard"
        spec = replace(inputs.spec, shards=1, metrics=False, journal=False,
                       stream=False)
        try:
            run_pipeline(spec, run_dir=single, workers=0)
            if results_sans_provenance(single) != results_sans_provenance(
                run_dir
            ):
                return ["4-shard results differ from the 1-shard run"]
            return []
        finally:
            shutil.rmtree(single, ignore_errors=True)


class ReusableShards:
    """Set feature: shard-epochs whose member ASes all keep an epoch
    digest seen before (the shard cache's identity for AS content),
    under the ``modulo`` partition.  The goal, 80% of the eligible
    shard-epochs, is what low churn over a ~20-AS sample gives anyway.

    A sample that leaves a shard without ASes is ruled out: an empty
    shard's target list is falsy, ``BuiltScenario.make_scanner`` then
    scans the whole world in that shard, and the merge fails with
    "shard overlap" (see CHANGES.md).
    """

    def __init__(self, plan, epochs: int, shards: int) -> None:
        from repro.campaigns import epoch_as_digest

        self._digest = epoch_as_digest
        self.plan = plan
        self.epochs = epochs
        self.shards = shards
        self._memo: dict[tuple, int] = {}
        self.goal = {"reusable_shard_epochs": 0.8 * shards * (epochs - 1)}

    def digest(self, epoch: int, asn: int) -> int:
        key = (epoch, asn)
        if key not in self._memo:
            self._memo[key] = self._digest(self.plan, epoch, asn)
        return self._memo[key]

    def __call__(self, asns) -> dict:
        members: dict[int, list] = {s: [] for s in range(self.shards)}
        for asn in sorted(asns):
            members[asn % self.shards].append(asn)
        if not all(members.values()):
            return None
        reusable = 0
        for group in members.values():
            seen = set()
            for epoch in range(self.epochs):
                key = tuple(self.digest(epoch, asn) for asn in group)
                reusable += epoch > 0 and key in seen
                seen.add(key)
        return {"reusable_shard_epochs": reusable}


class Longitudinal(Workload):
    name = "longitudinal"
    N_ASES = 60
    PROBES = 1500
    #: with the shard-epoch goal too, fewer properties keep the probe
    #: count close in a 60-AS world.
    PER_PROBE = {"reachable": 0.019}
    SHARDS = 8
    EPOCHS = 3
    DURATION = 60.0

    def spec(self, seed, sample):
        from repro.core import ScanConfig

        return campaign_spec(WORLD_SEED, self.N_ASES, shards=self.SHARDS,
                             partition="modulo",
                             config=ScanConfig(duration=self.DURATION,
                                               keyword=scan_keyword(seed)),
                             asn_sample=sample)

    def plan(self):
        from repro.campaigns import EvolutionPlan

        return EvolutionPlan.load(INPUTS / "low-churn.json")

    def set_features(self):
        return ReusableShards(self.plan(), self.EPOCHS, self.SHARDS)

    def world(self, seed):
        """Epoch 0's world: evolution applies from the first epoch on."""
        from repro.campaigns import evolve_spec

        return evolve_spec(self.spec(seed, None), self.plan(), 0) \
            .scenario_params()

    def prepare(self, seed, work):
        from repro.campaigns import evolve_spec
        from repro.scenarios import build_internet

        inputs = super().prepare(seed, work)
        inputs.plan = self.plan()
        inputs.epochs = self.EPOCHS
        inputs.description.update(epochs=self.EPOCHS, partition="modulo",
                                  plan=inputs.plan.name)
        inputs.truths += [
            Truth.of(build_internet(
                evolve_spec(inputs.spec, inputs.plan, epoch)
                .scenario_params()
            ))
            for epoch in range(1, self.EPOCHS)
        ]
        return inputs

    def _epoch_dir(self, run_dir, epoch):
        return run_dir / f"epoch-{epoch:03d}"

    def run_dirs(self, inputs, run_dir):
        return [self._epoch_dir(run_dir, e) for e in range(inputs.epochs)]

    def launches(self, inputs, run_dir):
        last = self._epoch_dir(run_dir, inputs.epochs - 1)
        return [
            Launch("main", "campaign", [
                "campaign", str(inputs.spec_path),
                str(INPUTS / "low-churn.json"), str(inputs.epochs),
                str(run_dir),
            ], operations=inputs.epochs),
            Launch("query", "ledger", ["ledger", str(run_dir), "--rebuild",
                                       "--json"]),
            Launch("query", "diff", ["diff", str(self._epoch_dir(run_dir, 0)),
                                     str(last), "--json"]),
            Launch("query", "trend", ["trend", str(run_dir), "--json"]),
        ]

    def before_queries(self, run_dir):
        return {"ledger": read_json(run_dir / "ledger.json")}

    def check_round(self, inputs, run_dir, outputs, before):
        problems = []
        for epoch, truth in enumerate(inputs.truths):
            problems += check_observations(
                self._epoch_dir(run_dir, epoch), truth, inputs.sample_asns,
                label=f"epoch {epoch}",
            )
        for entry in read_json(run_dir / "schedule.json")["epochs"]:
            if entry["status"] != "done" or entry["attempts"] != 1:
                problems.append(
                    f"epoch {entry['epoch']}: {entry['status']} after "
                    f"{entry['attempts']} attempt(s)"
                )
        if before["ledger"] != read_json(run_dir / "ledger.json"):
            problems.append("ledger --rebuild differs from the incremental "
                            "ledger")
        for name in ("ledger", "diff", "trend"):
            code, _ = outputs[name]
            if code != 0:
                problems.append(f"{name} exited {code}")
        return problems

    def check_once(self, inputs, run_dir, work):
        """Incremental epochs equal a full rescan; the diff is empty on
        a run and itself, and antisymmetric."""
        from repro.campaigns import evolve_spec
        from repro.core.pipeline import run_pipeline
        from repro.obs.diff import mirror, run_diff
        from repro.obs.ledger import results_digest

        problems = []
        schedule = read_json(run_dir / "schedule.json")["epochs"]
        if schedule[0]["cache_hits"]:
            problems.append("epoch 0 was served from the shard cache")
        # Epoch 0 ran every shard; rescan the later epochs in full.
        for entry in schedule[1:]:
            epoch = entry["epoch"]
            full = work / f"full-rescan-{epoch}"
            try:
                outcome = run_pipeline(
                    evolve_spec(inputs.spec, inputs.plan, epoch),
                    run_dir=full, workers=0,
                )
                if results_digest(outcome.results) != (
                    entry["results_digest"]
                ):
                    problems.append(f"epoch {epoch} differs from a full "
                                    "rescan")
            finally:
                shutil.rmtree(full, ignore_errors=True)
        first = self._epoch_dir(run_dir, 0)
        last = self._epoch_dir(run_dir, inputs.epochs - 1)
        if not run_diff(first, first)["empty"]:
            problems.append("diff(A, A) is not empty")
        if mirror(run_diff(first, last)) != run_diff(last, first):
            problems.append("mirror(diff(A, B)) != diff(B, A)")
        return problems


WORKLOADS = {w.name: w for w in (PaperScan(), ForensicTiered(),
                                 Longitudinal())}
