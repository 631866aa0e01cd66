"""Span recording around the program's layer boundaries.

The traced run wraps a fixed list of public functions and methods of
the program (see :data:`LAYERS`) from outside: the program's own code is
untouched, and the wrappers are installed only for the traced
repetition of a ``--trace 1`` run.  Every call of a wrapped function
becomes one span — name, start, end and parent span — kept in flat
arrays in memory and written out when the run ends.

A layer's self time is its spans' durations minus the part covered by
their direct child spans.  Generators (``BatchedEngine.execute_iter``)
record one span per resumption, so the time a consumer spends between
two pulls is never charged to the engine.

The traffic-class ledger rides on the two transport entry points
(``SimulatedInternet.query_dns`` and ``DnsChannel.query``): each call is
classified by its source and destination as scanner→authoritative,
scanner→open resolver or resolver→authoritative.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import sys
from array import array
from pathlib import Path
from time import perf_counter_ns
from typing import Callable, Dict, Iterable, List, Tuple

#: (span name, module, qualified attribute) for every wrapped callable;
#: a module-level function is replaced in every ``repro`` module that
#: imported it by name
LAYERS: Tuple[Tuple[str, str, str], ...] = (
    ("scenario.build", "repro.scenario.world", "build_world"),
    ("plan.build", "repro.plan.scanplan", "build_plan"),
    (
        "collector.protective",
        "repro.core.collector",
        "ResponseCollector.collect_protective_records",
    ),
    (
        "collector.correct",
        "repro.core.collector",
        "ResponseCollector.collect_correct_records",
    ),
    ("collector.ur", "repro.core.collector", "ResponseCollector.collect_urs"),
    ("collector.ur", "repro.plan.shards", "run_shard_scan"),
    (
        "resolver.walk",
        "repro.dns.resolver",
        "RecursiveResolver.handle_dns_query",
    ),
    ("net.transact", "repro.net.network", "SimulatedInternet.query_dns"),
    ("net.transact", "repro.net.network", "DnsChannel.query"),
    (
        "server.answer",
        "repro.dns.server",
        "AuthoritativeServer.handle_dns_query",
    ),
    ("wire.codec", "repro.dns.wire", "WireCodecCache.query_hit"),
    ("wire.codec", "repro.dns.wire", "WireCodecCache.query_store"),
    ("wire.codec", "repro.dns.wire", "WireCodecCache.encode"),
    ("wire.codec", "repro.dns.wire", "WireCodecCache.decode"),
    ("wire.codec", "repro.dns.wire", "encode_message"),
    ("wire.codec", "repro.dns.wire", "decode_message"),
    ("capture.record", "repro.net.traffic", "TrafficCapture.record"),
    ("engine.execute", "repro.engine.batched", "BatchedEngine.execute"),
    ("engine.execute", "repro.engine.batched", "BatchedEngine.execute_iter"),
    ("store.get", "repro.incremental.store", "GroupResultStore.get"),
    ("store.put", "repro.incremental.store", "GroupResultStore.put"),
    ("differ.partition", "repro.incremental.differ", "PlanDiffer.partition"),
    ("stage2", "repro.core.hunter", "URHunter.stage2_exclude"),
    ("stage3", "repro.core.hunter", "URHunter.stage3_analyze"),
    ("report", "repro.core.hunter", "URHunter.build_report"),
)

#: span names whose self time is reported, as ``<name>_s`` (or
#: ``<name>.s`` for the bare stage names)
TIMED = (
    "scenario.build",
    "plan.build",
    "collector.protective",
    "collector.correct",
    "collector.ur",
    "resolver.walk",
    "net.transact",
    "server.answer",
    "wire.codec",
    "capture.record",
    "engine.execute",
    "store.get",
    "store.put",
    "differ.partition",
    "stage2",
    "stage3",
    "report",
)

#: traffic classes of the ledger, in report order
TRAFFIC_CLASSES = ("scanner_auth", "scanner_resolver", "resolver_auth")


def timed_metric_name(span: str) -> str:
    """``collector.ur`` -> ``collector.ur_s``; ``stage2`` -> ``stage2.s``."""
    return f"{span}.s" if "." not in span else f"{span}_s"


class SpanRecorder:
    """Spans of one traced repetition, in flat arrays.

    Span ``i`` has name ``names[name[i]]``, start and end in
    nanoseconds of :func:`time.perf_counter_ns`, and the index of its
    parent span (``-1`` at top level).
    """

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self._stack: List[int] = []

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def begin(self, name_id: int) -> int:
        index = len(self.name)
        stack = self._stack
        self.name.append(name_id)
        self.parent.append(stack[-1] if stack else -1)
        self.end.append(0)
        stack.append(index)
        self.start.append(perf_counter_ns())
        return index

    def finish(self, index: int) -> None:
        self.end[index] = perf_counter_ns()
        self._stack.pop()

    def __len__(self) -> int:
        return len(self.name)

    def self_times(self) -> Dict[str, float]:
        """Seconds of self time per span name."""
        count = len(self.name)
        child = array("q", bytes(8 * count))
        name, start, end, parent = self.name, self.start, self.end, self.parent
        for index in range(count):
            up = parent[index]
            if up >= 0:
                child[up] += end[index] - start[index]
        totals = [0] * len(self.names)
        for index in range(count):
            totals[name[index]] += end[index] - start[index] - child[index]
        return {
            label: totals[ident] / 1e9 for ident, label in enumerate(self.names)
        }

    def parents_with_child(self, parent_label: str, child_label: str) -> int:
        """How many ``parent_label`` spans have a direct ``child_label``
        child (e.g. resolver queries that walked upstream)."""
        parent_id = self._ids.get(parent_label)
        child_id = self._ids.get(child_label)
        if parent_id is None or child_id is None:
            return 0
        name, parent = self.name, self.parent
        hit = {
            parent[index]
            for index in range(len(name))
            if name[index] == child_id and parent[index] >= 0
        }
        return sum(1 for index in hit if name[index] == parent_id)

    def write(self, path: Path, header: Dict[str, object]) -> None:
        """Write the spans as gzip'd TSV: a JSON header line, then one
        ``name<TAB>start_ns<TAB>end_ns<TAB>parent`` line per span."""
        origin = self.start[0] if len(self.start) else 0
        with gzip.open(path, "wt", compresslevel=1) as handle:
            handle.write(
                json.dumps(
                    {
                        **header,
                        "names": self.names,
                        "columns": ["name", "start_ns", "end_ns", "parent"],
                    }
                )
                + "\n"
            )
            handle.writelines(
                f"{n}\t{s - origin}\t{e - origin}\t{p}\n"
                for n, s, e, p in zip(
                    self.name, self.start, self.end, self.parent
                )
            )


class TrafficLedger:
    """Counts transport calls per (source, destination) address pair.

    Pairs are classified only when read (:meth:`classify`), so counting
    costs one dictionary update per call.
    """

    def __init__(self) -> None:
        self.pairs: Dict[Tuple[str, str], int] = {}

    def count(self, src_ip: str, dst_ip: str) -> None:
        key = (src_ip, dst_ip)
        self.pairs[key] = self.pairs.get(key, 0) + 1

    def snapshot(self) -> Dict[Tuple[str, str], int]:
        return dict(self.pairs)

    @staticmethod
    def classify(
        pairs: Dict[Tuple[str, str], int],
        scanner_ip: str,
        resolver_ips: Iterable[str],
    ) -> Dict[str, int]:
        """Calls per traffic class.

        The scanner's queries go to an open resolver or to an
        authoritative server.  Every other sender is a recursive
        resolver walking referrals (an open resolver, or the fallback
        resolver behind misconfigured recursive nameservers), so its
        queries must go to authoritative servers; one addressed to an
        open resolver is ``unclassified``.
        """
        resolvers = frozenset(resolver_ips)
        counts = {label: 0 for label in TRAFFIC_CLASSES}
        counts["unclassified"] = 0
        for (src_ip, dst_ip), calls in pairs.items():
            if src_ip == scanner_ip:
                label = (
                    "scanner_resolver" if dst_ip in resolvers else "scanner_auth"
                )
            elif dst_ip not in resolvers:
                label = "resolver_auth"
            else:
                label = "unclassified"
            counts[label] += calls
        return counts


def _resolve(module_name: str, qualname: str):
    module = importlib.import_module(module_name)
    owner = module
    parts = qualname.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


def _span_wrapper(recorder: SpanRecorder, label: str, fn: Callable):
    name_id = recorder.name_id(label)
    begin, finish = recorder.begin, recorder.finish

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        index = begin(name_id)
        try:
            return fn(*args, **kwargs)
        finally:
            finish(index)

    return traced


def _generator_wrapper(recorder: SpanRecorder, label: str, fn: Callable):
    name_id = recorder.name_id(label)
    begin, finish = recorder.begin, recorder.finish

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        generator = fn(*args, **kwargs)
        try:
            while True:
                index = begin(name_id)
                try:
                    item = next(generator)
                except StopIteration:
                    return
                finally:
                    finish(index)
                yield item
        finally:
            generator.close()

    return traced


class Tracer:
    """Installs span wrappers (and the traffic ledger) and removes them.

    Use as a context manager around one traced repetition; every object
    the repetition builds must be built inside it, because instances may
    hold on to the callables they were created with.
    """

    def __init__(self, recorder: SpanRecorder, ledger: TrafficLedger):
        self.recorder = recorder
        self.ledger = ledger
        self._undo: List[Tuple[object, str, object]] = []

    def _replace(self, owner, attribute: str, original, wrapped) -> None:
        if isinstance(owner, type):
            self._undo.append((owner, attribute, original))
            setattr(owner, attribute, wrapped)
            return
        # module-level function: rebind every by-name import of it
        for module_name, module in list(sys.modules.items()):
            if not module_name.startswith("repro") or module is None:
                continue
            if getattr(module, attribute, None) is original:
                self._undo.append((module, attribute, original))
                setattr(module, attribute, wrapped)

    def _ledger_wrappers(self):
        ledger = self.ledger

        def query_dns(original):
            @functools.wraps(original)
            def counted(network, src_ip, dst_ip, *args, **kwargs):
                ledger.count(src_ip, dst_ip)
                return original(network, src_ip, dst_ip, *args, **kwargs)

            return counted

        def channel_query(original):
            @functools.wraps(original)
            def counted(channel, *args, **kwargs):
                ledger.count(channel.src_ip, channel.dst_ip)
                return original(channel, *args, **kwargs)

            return counted

        return {
            "SimulatedInternet.query_dns": query_dns,
            "DnsChannel.query": channel_query,
        }

    def __enter__(self) -> "Tracer":
        ledger_wrappers = self._ledger_wrappers()
        for label, module_name, qualname in LAYERS:
            owner, attribute = _resolve(module_name, qualname)
            original = getattr(owner, attribute)
            fn = original
            if qualname in ledger_wrappers:
                fn = ledger_wrappers[qualname](fn)
            if qualname == "BatchedEngine.execute_iter":
                wrapped = _generator_wrapper(self.recorder, label, fn)
            else:
                wrapped = _span_wrapper(self.recorder, label, fn)
            self._replace(owner, attribute, original, wrapped)
        return self

    def __exit__(self, *exc_info) -> None:
        while self._undo:
            owner, attribute, original = self._undo.pop()
            setattr(owner, attribute, original)


def layer_times(recorder: SpanRecorder) -> Dict[str, float]:
    """Self time of every :data:`TIMED` layer, keyed by metric name."""
    self_times = recorder.self_times()
    return {
        timed_metric_name(label): self_times.get(label, 0.0)
        for label in TIMED
    }


def share(hits: int, misses: int) -> float:
    """Hit share of a cache, 0.0 when it saw no lookups."""
    total = hits + misses
    return hits / total if total else 0.0


def resolver_walks(recorder: SpanRecorder) -> int:
    """Resolver queries that sent at least one query upstream."""
    return recorder.parents_with_child("resolver.walk", "net.transact")
