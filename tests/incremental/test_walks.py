"""Resolver-walk replay: warm correct-record phases equal cold ones.

The correct-record phase's open-resolver walks replay from the result
store's ``walks-*`` slots.  A warm run must stay byte-identical to a
cold store-less run on the same world — report, deterministic trace and
deterministic metrics — whatever changed in between: a domain's zone,
a TLD zone, the zone of a glueless NS target, a server's online bit, or
a server's unhosted policy.  Every changed walk must be caught by its
stamps and executed; the rest replay.  Runs that may not use the store
(faulted, chaos, full capture) never touch the slots, and slots that
cannot be trusted (torn, foreign format, foreign source) execute.
"""

import json
import shutil

import pytest

from repro.core import HunterConfig, URHunter
from repro.dns.rdata import A, RRType
from repro.dns.server import UnhostedPolicy
from repro.incremental import GroupResultStore
from repro.incremental.walks import WALK_SLOT_KIND, WALK_SOURCE_MODULES
from repro.obs import RunTrace
from repro.obs.metrics import build_metrics_document
from repro.resilience.scenario import apply_scenario, load_scenario
from repro.scenario import build_world, small_config

SEED = 7


def walk_files(path):
    return sorted(path.glob(f"{WALK_SLOT_KIND}-*.json"))


def run(store=None, mutate=None, loss=0.0, chaos=None, capture_mode="off"):
    """One full measurement: the byte-compared surfaces plus every open
    resolver's cache after the run."""
    world = build_world(small_config(seed=SEED))
    if mutate is not None:
        mutate(world)
    if loss:
        world.network.inject_faults(loss_rate=loss, seed=SEED)
    hunter = URHunter.from_world(
        world, HunterConfig(capture_mode=capture_mode)
    )
    if chaos:
        apply_scenario(load_scenario(chaos), world, hunter)
    hunter.result_store = store
    trace = RunTrace()
    hunter.attach_trace(trace)
    report = hunter.run()
    doc = build_metrics_document(report, fingerprint="pinned")
    surfaces = (
        report.summary(),
        trace.deterministic_lines(),
        json.dumps(doc["deterministic"], sort_keys=True),
    )
    caches = {
        resolver.address: dict(resolver._cache)
        for resolver in world.open_resolvers
    }
    return surfaces, caches


# -- world churn --------------------------------------------------------------


def _hosts(world):
    return world.network.dns_hosts()


def _hosted_target(world):
    """The first target domain with its zone and delegated servers."""
    hosts = _hosts(world)
    for target in sorted(world.domain_targets, key=lambda t: t.domain):
        servers = sorted(world.delegated_to.get(target.domain, ()))
        zones = [hosts[address].zone_at(target.domain) for address in servers]
        if servers and all(zone is not None for zone in zones):
            return target.domain, servers, zones
    raise AssertionError("no hosted target domain")


def churn_domain_zone(world):
    domain, _, zones = _hosted_target(world)
    for zone in zones:
        if zone.remove(domain, RRType.A) or zone.remove(domain, RRType.TXT):
            return
    raise AssertionError(f"{domain} has no apex A/TXT to remove")


def churn_tld_zone(world):
    """Re-delegate a target domain, in its TLD zone, to another
    provider's nameservers (which do not host it)."""
    domain, servers, _ = _hosted_target(world)
    for provider in sorted(world.providers.values(), key=lambda p: p.name):
        pool = [ns for ns in provider.pool if ns.address not in servers]
        if pool:
            world.root.delegate(
                domain, [(ns.hostname, ns.address) for ns in pool[:2]]
            )
            return
    raise AssertionError("no other provider")


def churn_glueless_target(world):
    """Point the NS host of a glueless delegation at a sibling server,
    in the provider's own NS zone — the zone the resolver looks the NS
    target up in."""
    for target in sorted(world.domain_targets, key=lambda t: t.domain):
        tld = target.domain.labels[-1]
        for ns_name in world.root.delegation_of(target.domain):
            if ns_name.labels[-1] == tld:
                continue  # glue sits in the domain's own TLD zone
            for provider in world.providers.values():
                hosts = {ns.hostname: ns for ns in provider.pool}
                if ns_name not in hosts or len(provider.pool) < 2:
                    continue
                sibling = next(
                    ns for ns in provider.pool if ns.hostname != ns_name
                )
                zone = hosts[ns_name].server.zone_at(provider.ns_domain)
                zone.remove(ns_name, RRType.A)
                zone.add(ns_name, A(sibling.address))
                return
    raise AssertionError("no glueless delegation")


def churn_offline(world):
    """Take the server of the least used TLD offline.  (Not a UR
    target: an offline target changes the UR scan's breaker history
    between the in-line and the group route, which is no walk's doing.)
    """
    hosts = _hosts(world)
    targets = {target.address for target in world.nameserver_targets}
    tlds = sorted(
        {target.domain.labels[-1] for target in world.domain_targets},
        key=lambda tld: (
            sum(t.domain.labels[-1] == tld for t in world.domain_targets),
            tld,
        ),
    )
    for address in sorted(hosts):
        zone_at = getattr(hosts[address], "zone_at", None)
        if zone_at is None or address in targets:
            continue
        if zone_at(tlds[0]) is not None:
            world.network.set_online(address, False)
            return
    raise AssertionError("no TLD server")


def make_lame(world):
    """Unload a target domain's zone from every server it is delegated
    to: walks for it end on an unhosted answer."""
    domain, servers, _ = _hosted_target(world)
    hosts = _hosts(world)
    for address in servers:
        hosts[address].unload_zone(domain)


def protect_lame_servers(world):
    """``make_lame``, then switch the lame servers' unhosted policy."""
    domain, servers, _ = _hosted_target(world)
    make_lame(world)
    hosts = _hosts(world)
    for address in servers:
        server = hosts[address]
        server.unhosted_policy = UnhostedPolicy.PROTECTIVE
        server.protective_records = [(RRType.A, A("192.0.2.80"))]


# -- fixtures -----------------------------------------------------------------


@pytest.fixture(scope="module")
def cold():
    return run()


@pytest.fixture(scope="module")
def populated(tmp_path_factory, cold):
    """A store populated by one run over the unchanged world."""
    path = tmp_path_factory.mktemp("walk-store")
    surfaces, _ = run(store=GroupResultStore(path))
    assert surfaces == cold[0]
    return path


def copy_store(source, tmp_path):
    target = tmp_path / "store"
    shutil.copytree(source, target)
    return target


class TestWarmEqualsCold:
    def test_populate_records_every_walk(self, populated):
        files = walk_files(populated)
        assert len(files) == 8  # one slot per open resolver
        walks = sum(len(json.loads(f.read_text())["walks"]) for f in files)
        assert walks > 0

    def test_unchanged_world_replays_every_walk(
        self, cold, populated, tmp_path
    ):
        store = GroupResultStore(copy_store(populated, tmp_path))
        surfaces, caches = run(store=store)
        assert surfaces == cold[0]
        assert caches == cold[1]
        stats = store.walk_stats
        assert stats["replayed"] > 0
        assert stats["executed"] == stats["invalidated"] == 0
        assert stats["slots_written"] == 0

    @pytest.mark.parametrize(
        "base, churn",
        [
            (None, churn_domain_zone),
            (None, churn_tld_zone),
            (None, churn_glueless_target),
            (None, churn_offline),
            (make_lame, protect_lame_servers),
        ],
        ids=["domain-zone", "tld-zone", "glueless-ns", "offline", "policy"],
    )
    def test_churn_matches_cold(self, populated, tmp_path, base, churn):
        path = populated
        if base is not None:
            path = tmp_path / "base"
            run(store=GroupResultStore(path), mutate=base)
        store = GroupResultStore(copy_store(path, tmp_path / "warm"))
        cold_surfaces, cold_caches = run(mutate=churn)
        surfaces, caches = run(store=store, mutate=churn)
        assert surfaces == cold_surfaces
        assert caches == cold_caches
        stats = store.walk_stats
        assert stats["invalidated"] > 0
        assert stats["reasons"].get("stamp", 0) > 0
        assert stats["replayed"] > 0
        # the re-recorded walks replay on the next run
        again = GroupResultStore(store.path)
        assert run(store=again, mutate=churn)[0] == cold_surfaces
        assert again.walk_stats["invalidated"] == 0
        assert again.walk_stats["executed"] == 0

    def test_churn_changes_the_run(self, cold):
        assert run(mutate=churn_tld_zone)[0] != cold[0]


class TestBypass:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"loss": 0.15},
            {"chaos": "tail-latency-storm"},
            {"capture_mode": "full"},
        ],
        ids=["faulted", "chaos", "full-capture"],
    )
    def test_slots_neither_read_nor_written(
        self, populated, tmp_path, kwargs
    ):
        baseline, _ = run(**kwargs)
        path = copy_store(populated, tmp_path)
        before = {f.name: f.read_bytes() for f in walk_files(path)}
        store = GroupResultStore(path)
        surfaces, _ = run(store=store, **kwargs)
        assert surfaces == baseline
        assert {f.name: f.read_bytes() for f in walk_files(path)} == before
        assert all(
            value == 0
            for key, value in store.walk_stats.items()
            if key != "reasons"
        )

    def test_empty_store_stays_empty_of_walks(self, tmp_path):
        store = GroupResultStore(tmp_path / "store")
        run(store=store, loss=0.15)
        assert walk_files(tmp_path / "store") == []


def _rewrite_first_slot(path, edit):
    slot_file = walk_files(path)[0]
    edit(slot_file)
    return slot_file


def _torn(slot_file):
    data = slot_file.read_bytes()
    slot_file.write_bytes(data[: len(data) // 2])


def _foreign(field, value):
    def edit(slot_file):
        slot = json.loads(slot_file.read_text())
        slot["key"][field] = value
        slot_file.write_text(json.dumps(slot))

    return edit


class TestUntrustedSlots:
    @pytest.mark.parametrize(
        "edit, foreign",
        [
            (_torn, 0),
            (_foreign("format", 999), 1),
            (_foreign("source", "0" * 64), 1),
        ],
        ids=["torn", "foreign-format", "foreign-source"],
    )
    def test_untrusted_slot_executes(
        self, cold, populated, tmp_path, edit, foreign
    ):
        path = copy_store(populated, tmp_path)
        slot_file = _rewrite_first_slot(path, edit)
        store = GroupResultStore(path)
        surfaces, caches = run(store=store)
        assert surfaces == cold[0]
        assert caches == cold[1]
        stats = store.walk_stats
        assert stats["slots_foreign"] == foreign
        assert stats["slots_read"] == len(walk_files(path)) - 1
        assert stats["executed"] > 0
        assert stats["replayed"] > 0
        assert stats["slots_written"] == 1
        # the slot was re-recorded whole and now replays
        assert json.loads(slot_file.read_text())["walks"]

    def test_source_digest_covers_transport_and_wire(self):
        # truncation (MAX_UDP_PAYLOAD, the wire length), the TCP
        # fallback and the per-transaction latency shape a recorded
        # walk, so their modules must orphan slots when they change
        assert {
            "repro.dns.resolver",
            "repro.dns.server",
            "repro.dns.name",
            "repro.dns.rdata",
            "repro.dns.wire",
            "repro.net.network",
        } <= set(WALK_SOURCE_MODULES)

    def test_malformed_trace_fails_closed(self, cold, populated, tmp_path):
        def scramble(slot_file):
            slot = json.loads(slot_file.read_text())
            for key in slot["walks"]:
                slot["walks"][key] = '{"ops": [["t"]]}'
            slot_file.write_text(json.dumps(slot))

        path = copy_store(populated, tmp_path)
        _rewrite_first_slot(path, scramble)
        store = GroupResultStore(path)
        surfaces, _ = run(store=store)
        assert surfaces == cold[0]
        assert store.walk_stats["reasons"]["malformed"] > 0

    def test_cache_mismatch_fails_closed(self, populated, tmp_path):
        # forge every recorded cache hit into a miss: the shadow cache
        # disagrees, so those walks execute
        def forge(slot_file):
            slot = json.loads(slot_file.read_text())
            for key, text in slot["walks"].items():
                trace = json.loads(text)
                for op in trace["ops"]:
                    if op[0] == "r":
                        op[3] = None
                slot["walks"][key] = json.dumps(trace)
            slot_file.write_text(json.dumps(slot))

        path = copy_store(populated, tmp_path)
        _rewrite_first_slot(path, forge)
        store = GroupResultStore(path)
        run(store=store)
        assert store.walk_stats["reasons"]["cache"] > 0
