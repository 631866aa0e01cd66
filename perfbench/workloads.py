"""The benchmark's three workloads and their per-repetition checks.

Every workload runs URHunter with the default :class:`HunterConfig`
(batch execution, ``shards=0``, one stage-2 worker, no pool) over a
default-scale world built from the workload seed.  Only the inputs
differ: injected loss, an attached group result store, and world churn
between rounds.  See ``perfbench/README.md`` for why each exists.
"""

from __future__ import annotations

import gc
import hashlib
import random
import resource
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import repro.scenario as scenario
from repro.analysis.groundtruth import score_against_ground_truth
from repro.core import HunterConfig, URHunter
from repro.core.longitudinal import LongitudinalStudy
from repro.dns.rdata import RRType
from repro.incremental import GroupResultStore, run_cacheable, server_fingerprint
from repro.obs.events import run_end_fields

#: target nameservers every workload scans: a seeded sample of the
#: world's targets, so the scan is the same size whatever the seed
#: (default-scale worlds have 159-217 targets over seeds 1-60)
TARGET_NAMESERVERS = 150
#: uncacheable (recursive-fallback) targets kept in the sample when the
#: world has them (0-5 per world over seeds 1-20); each one re-executes
#: every longitudinal round and recurses for every unhosted name
UNCACHEABLE_TARGETS = 1
#: injected loss of the lossy-scan workload
LOSS_RATE = 0.1
#: longitudinal rounds: one cold round, then warm rounds
ROUNDS = 4
#: share of cacheable target nameservers churned between rounds
CHURN_FRACTION = 0.10


class StageClock:
    """Wall and virtual duration of every ``stage1_collect`` call, and
    the end time of every ``URHunter.run`` call.

    One shim call per round, installed in every repetition process,
    traced or not, so both time rounds identically; it is not one of
    the tracing wrappers.
    """

    def __init__(self) -> None:
        self.stage1: List[Tuple[float, float]] = []
        self.run_ends: List[float] = []
        stage1 = URHunter.stage1_collect
        run = URHunter.run
        clock = self

        def timed_stage1(hunter):
            virtual = hunter.network.now
            start = time.perf_counter()
            result = stage1(hunter)
            clock.stage1.append(
                (time.perf_counter() - start, hunter.network.now - virtual)
            )
            return result

        def timed_run(hunter, *args, **kwargs):
            report = run(hunter, *args, **kwargs)
            clock.run_ends.append(time.perf_counter())
            return report

        URHunter.stage1_collect = timed_stage1
        URHunter.run = timed_run

    def reset(self) -> None:
        self.stage1.clear()
        self.run_ends.clear()


@dataclass
class Rep:
    """What one repetition measured and what its checks found."""

    setup_s: float = 0.0
    run_s: float = 0.0
    warm_rounds: List[float] = field(default_factory=list)
    stage1_wall_s: float = 0.0
    virtual_scan_s: float = 0.0
    queries: int = 0
    responses: int = 0
    net_queries: int = 0
    #: ground-truth scores of the (last) report
    precision: float = 0.0
    suspicious_recall: float = 0.0
    stage3_recall: float = 0.0
    #: summary digest per report kind (must repeat for the same seed)
    digests: Dict[str, str] = field(default_factory=dict)
    failures: List[str] = field(default_factory=list)
    peak_rss_mb: float = 0.0
    #: per-layer figures of a traced repetition
    figures: Dict[str, float] = field(default_factory=dict)
    #: what the per-layer figures are read from, kept in-process only
    world: object = None
    store: Optional[GroupResultStore] = None
    reports: list = field(default_factory=list)
    #: network counters sampled around the timed section
    counters_before: Dict[str, int] = field(default_factory=dict)
    counters_after: Dict[str, int] = field(default_factory=dict)
    #: traffic-ledger pair counts sampled around the timed section
    pairs_before: dict = field(default_factory=dict)
    pairs_after: dict = field(default_factory=dict)


def digest(report) -> str:
    return hashlib.sha256(report.summary().encode("utf-8")).hexdigest()


def counters(network) -> Dict[str, int]:
    """Network-level counters the metrics are deltas of."""
    values = dict(network.stats)
    values.update(
        {f"scanpath.{k}": v for k, v in network.scanpath.to_dict().items()}
    )
    values["capture.flows"] = len(network.capture)
    return values


def check_report(rep: Rep, kind: str, report) -> None:
    """Loss accounting and the summary digest of one report."""
    unaccounted = run_end_fields(report)["unaccounted"]
    if unaccounted != 0:
        rep.failures.append(f"{kind}: unaccounted={unaccounted}")
    rep.digests[kind] = digest(report)


def build_world(seed: int):
    """The default-scale world of ``seed`` with its target nameservers
    cut to a seeded sample of :data:`TARGET_NAMESERVERS`, of which
    :data:`UNCACHEABLE_TARGETS` are uncacheable when the world has any."""
    world = scenario.build_world(scenario.ScenarioConfig(seed=seed))
    targets = world.nameserver_targets
    if len(targets) <= TARGET_NAMESERVERS:
        return world
    uncacheable, cacheable = [], []
    for index, target in enumerate(targets):
        stamp = server_fingerprint(world.network, target.address)
        (cacheable if stamp is not None else uncacheable).append(index)
    rng = random.Random(f"perfbench-targets:{seed}")
    keep = rng.sample(uncacheable, min(UNCACHEABLE_TARGETS, len(uncacheable)))
    keep += rng.sample(cacheable, TARGET_NAMESERVERS - len(keep))
    world.nameserver_targets = [targets[index] for index in sorted(keep)]
    return world


def score_report(rep: Rep, report, world) -> None:
    """Ground-truth scores: precision of the malicious label, the share
    of planted URs the run surfaces as suspicious (not excluded by stage
    2), and the share of those stage 3 labels malicious."""
    score = score_against_ground_truth(report, world)
    rep.precision = score.precision
    if score.attacker_urs:
        rep.suspicious_recall = (
            score.true_positives + score.under_reported
        ) / score.attacker_urs
    rep.stage3_recall = score.observable_recall


def churn(world, seed: int, index: int) -> None:
    """Drop one apex rrset from ~10% of the cacheable target servers.

    The servers are a seeded sample, so a world built from the same
    seed churns identically.
    """
    network = world.network
    cacheable = sorted(
        {
            target.address
            for target in world.nameserver_targets
            if server_fingerprint(network, target.address) is not None
        }
    )
    count = max(1, round(CHURN_FRACTION * len(cacheable)))
    rng = random.Random(f"perfbench-churn:{seed}:{index}")
    hosts = network.dns_hosts()
    for address in rng.sample(cacheable, count):
        for zone in hosts[address].zones:
            if zone.remove(zone.origin, RRType.A) or zone.remove(
                zone.origin, RRType.TXT
            ):
                break


class Workload:
    """One workload at one seed; :meth:`rep` runs one timed repetition."""

    name = ""

    def __init__(self, seed: int, work_dir: Path, clock: StageClock):
        self.seed = seed
        self.work_dir = work_dir
        self.clock = clock
        #: traffic ledger of a traced repetition (None when untraced)
        self.ledger = None
        self._stores = 0

    def new_store(self) -> GroupResultStore:
        self._stores += 1
        path = self.work_dir / f"store-{self._stores}"
        shutil.rmtree(path, ignore_errors=True)
        return GroupResultStore(path)

    def sample(self, rep: Rep, network, after: bool) -> None:
        """Sample the counters bracketing the timed section."""
        values = counters(network)
        pairs = self.ledger.snapshot() if self.ledger is not None else {}
        if after:
            rep.counters_after, rep.pairs_after = values, pairs
        else:
            rep.counters_before, rep.pairs_before = values, pairs

    def prepare(self, world) -> None:
        """Input changes applied between world build and hunter build."""

    def setup(self) -> Tuple[object, URHunter, float]:
        """The timed set-up: world build plus ``URHunter.from_world``."""
        gc.collect()
        start = time.perf_counter()
        world = build_world(self.seed)
        self.prepare(world)
        hunter = URHunter.from_world(world)
        return world, hunter, time.perf_counter() - start

    def rep(self) -> Rep:
        raise NotImplementedError

    def verify(self, rep: Rep) -> List[str]:
        """Checks that need more than one repetition's own outputs."""
        return []


class ColdScan(Workload):
    """One ``URHunter.run()`` on a fresh world, no result store."""

    name = "cold-scan"

    def attach(self, hunter: URHunter) -> None:
        """Per-hunter inputs (the lossy workload attaches a store)."""

    def rep(self) -> Rep:
        rep = Rep()
        world, hunter, rep.setup_s = self.setup()
        self.attach(hunter)
        network = world.network
        rep.world = world
        self.clock.reset()
        self.sample(rep, network, after=False)
        gc.collect()
        start = time.perf_counter()
        report = hunter.run()
        rep.run_s = time.perf_counter() - start
        self.sample(rep, network, after=True)
        rep.stage1_wall_s, rep.virtual_scan_s = self.clock.stage1[0]
        rep.queries = report.queries_sent
        rep.responses = report.responses_seen
        rep.net_queries = (
            rep.counters_after["dns_queries"]
            - rep.counters_before["dns_queries"]
        )
        score_report(rep, report, world)
        rep.reports.append(report)
        check_report(rep, "scan", report)
        self.check_store(rep, hunter)
        # a one-round workload: its only round stands for the warm ones
        rep.warm_rounds = [rep.run_s]
        return rep

    def check_store(self, rep: Rep, hunter: URHunter) -> None:
        """Store checks (the lossy workload has a store to check)."""


class LossyScan(ColdScan):
    """``cold-scan`` with 10% injected loss and a result store attached."""

    name = "lossy-scan"

    def prepare(self, world) -> None:
        world.network.inject_faults(loss_rate=LOSS_RATE, seed=self.seed)

    def attach(self, hunter: URHunter) -> None:
        hunter.result_store = self.new_store()

    def check_store(self, rep: Rep, hunter: URHunter) -> None:
        """A faulted run must neither read nor write the store."""
        store = hunter.result_store
        rep.store = store
        if run_cacheable(hunter)[0]:
            rep.failures.append("lossy run judged cacheable")
        if store.identities():
            rep.failures.append(
                f"faulted run wrote {len(store.identities())} store slots"
            )
        touched = {
            key: value
            for key, value in store.stats.items()
            if key != "bypassed_runs" and value
        }
        if touched:
            rep.failures.append(f"faulted run used the store: {touched}")
        if rep.queries and rep.responses >= rep.queries:
            rep.failures.append("lossy run answered every query")


class Longitudinal(Workload):
    """A store-backed ``LongitudinalStudy``: one cold round, then warm
    rounds over a world churned between rounds."""

    name = "longitudinal"

    def __init__(self, seed: int, work_dir: Path, clock: StageClock):
        super().__init__(seed, work_dir, clock)
        #: virtual clock at the start of the last round (for verify)
        self.final_epoch: Optional[float] = None

    def rep(self) -> Rep:
        rep = Rep()
        world, _, rep.setup_s = self.setup()
        network = world.network
        rep.world = world
        store = self.new_store()
        rep.store = store
        starts: List[float] = []
        epochs: List[float] = []

        def mutate(world, index):
            churn(world, self.seed, index)
            epochs.append(world.network.now)
            starts.append(time.perf_counter())

        study = LongitudinalStudy(world, mutate=mutate, result_store=store)
        self.clock.reset()
        self.sample(rep, network, after=False)
        gc.collect()
        start = time.perf_counter()
        snapshots = study.run(rounds=ROUNDS)
        rep.run_s = time.perf_counter() - start
        self.sample(rep, network, after=True)
        ends = self.clock.run_ends
        rep.warm_rounds = [end - begin for begin, end in zip(starts, ends[1:])]
        rep.stage1_wall_s = sum(wall for wall, _ in self.clock.stage1)
        rep.virtual_scan_s = sum(virtual for _, virtual in self.clock.stage1)
        reports = [snapshot.report for snapshot in snapshots]
        rep.queries = sum(report.queries_sent for report in reports)
        rep.responses = sum(report.responses_seen for report in reports)
        rep.net_queries = (
            rep.counters_after["dns_queries"]
            - rep.counters_before["dns_queries"]
        )
        score_report(rep, reports[-1], world)
        rep.reports = reports
        for index, report in enumerate(reports):
            check_report(rep, f"round{index}", report)
        if store.stats["hits"] == 0:
            rep.failures.append("warm rounds replayed no group")
        self.final_epoch = epochs[-1]
        return rep

    def verify(self, rep: Rep) -> List[str]:
        """A store-less cold scan of an identically churned world, at
        the last round's epoch, must reproduce the last round."""
        gc.collect()
        world = build_world(self.seed)
        for index in range(1, ROUNDS):
            churn(world, self.seed, index)
        world.network.set_clock(self.final_epoch)
        report = URHunter.from_world(world).run(validate=False)
        return same_report(rep.reports[-1].summary(), report.summary())


#: the one summary line a replayed group may change (see same_report)
LATENCY_LINE = "latency p50/p90/p99:"


def same_report(replayed: str, cold: str) -> List[str]:
    """Failures unless the two summaries are byte-identical, except for
    the latency percentiles, whose mean must still match.

    A replayed group keeps the latency samples of the round that stored
    it.  A sample is a difference of virtual clock readings, so it
    rounds differently at a later clock value, and a sample that sits
    on a histogram bucket edge can land in the neighbouring bucket.
    The repository's own warm-versus-cold study test excludes this line
    for the same reason.
    """
    ours, theirs = replayed.splitlines(), cold.splitlines()
    if len(ours) != len(theirs):
        return ["last longitudinal round differs from a cold scan"]
    for mine, other in zip(ours, theirs):
        if mine == other:
            continue
        if (
            LATENCY_LINE in mine
            and LATENCY_LINE in other
            and mine.split("mean:")[-1] == other.split("mean:")[-1]
        ):
            continue
        return [f"last longitudinal round differs from a cold scan: {mine!r}"]
    return []


WORKLOADS = {
    workload.name: workload for workload in (ColdScan, Longitudinal, LossyScan)
}

#: what a repetition process reports back (the rest stays in-process)
RESULT_FIELDS = (
    "setup_s",
    "run_s",
    "warm_rounds",
    "stage1_wall_s",
    "virtual_scan_s",
    "queries",
    "responses",
    "net_queries",
    "precision",
    "suspicious_recall",
    "digests",
    "failures",
    "peak_rss_mb",
    "figures",
)


def execute(
    name: str,
    seed: int,
    kind: str,
    verify: bool,
    work_dir: Path,
    spans_path: Optional[Path] = None,
) -> Dict[str, object]:
    """One repetition of workload ``name`` in this process.

    ``kind`` is ``rep`` (untraced) or ``traced`` (every tracing
    wrapper installed).  With ``verify`` the workload's cross-run check
    runs afterwards.
    """
    workload = WORKLOADS[name](seed, work_dir, StageClock())
    if kind == "traced":
        import tracing

        recorder = tracing.SpanRecorder()
        workload.ledger = tracing.TrafficLedger()
        with tracing.Tracer(recorder, workload.ledger):
            rep = workload.rep()
        rep.figures = layer_figures(rep, recorder, workload.ledger)
        if spans_path is not None:
            recorder.write(spans_path, {"workload": name, "seed": seed})
    else:
        rep = workload.rep()
    # read before verify, whose extra world and scan are not the
    # workload's own memory
    rep.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if verify and not rep.failures:
        rep.failures.extend(workload.verify(rep))
    return {key: getattr(rep, key) for key in RESULT_FIELDS}


def layer_figures(rep: Rep, recorder, ledger) -> Dict[str, float]:
    """Per-layer figures of one traced repetition.

    Times are span self times over set-up and timed section; counts and
    hit shares are deltas over the timed section.  Records a failure
    when the traffic-class ledger does not add up to the network's own
    query count.
    """
    import tracing

    before, after = rep.counters_before, rep.counters_after

    def delta(key: str) -> int:
        return after.get(key, 0) - before.get(key, 0)

    def hit_share(cache: str) -> float:
        return tracing.share(
            delta(f"scanpath.{cache}_hits"), delta(f"scanpath.{cache}_misses")
        )

    figures = tracing.layer_times(recorder)
    figures["resolver.walks"] = tracing.resolver_walks(recorder)
    pairs = {
        key: calls - rep.pairs_before.get(key, 0)
        for key, calls in rep.pairs_after.items()
    }
    classes = ledger.classify(
        pairs, HunterConfig().scanner_ip, rep.world.open_resolver_ips
    )
    for label in tracing.TRAFFIC_CLASSES:
        figures[f"net.queries.{label}"] = classes[label]
    if classes["unclassified"] or sum(classes.values()) != delta("dns_queries"):
        rep.failures.append(
            f"traffic ledger {classes} does not add up to "
            f"{delta('dns_queries')} network queries"
        )
    figures["server.compiled_hit_share"] = hit_share("compiled")
    for cache in ("query", "encode", "decode"):
        figures[f"wire.{cache}_hit_share"] = hit_share(cache)
    figures["capture.flows_recorded"] = delta("capture.flows")
    figures["engine.retries"] = sum(
        report.scan_metrics.retries for report in rep.reports
    )
    figures["engine.timeouts"] = sum(
        report.scan_metrics.timeouts for report in rep.reports
    )
    stats = rep.store.stats if rep.store is not None else {}
    figures["store.hit_share"] = tracing.share(
        stats.get("hits", 0),
        stats.get("misses", 0) + stats.get("invalidated", 0),
    )
    figures["store.invalidated"] = stats.get("invalidated", 0)
    figures["stage3.recall"] = rep.stage3_recall
    return figures
