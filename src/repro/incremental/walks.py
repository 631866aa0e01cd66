"""Replayable resolver walks for the correct-record phase.

The correct-record phase resolves every target domain, per query type,
through every open resolver, and each resolver walks root -> TLD ->
authoritative on its own (resolving glueless NS targets on the way).
Over a slowly changing world almost every walk hops only through zones
that did not change, so a warm run replays it instead of simulating it.

A **walk trace** covers one top-level
:meth:`~repro.dns.resolver.RecursiveResolver.resolve` on a cache miss.
It is the ordered list of what the walk did:

* each upstream transaction: destination, qname, transport (UDP, then
  TCP after a truncated answer) and success, with the **stamp** of
  what the destination answered from
  (:meth:`~repro.dns.server.AuthoritativeServer.answer_stamp`: the
  generation plus the answering zone's origin and serial, or the
  unhosted policy and protective records; ``["offline"]`` for a host
  that is down);
* each resolver-cache read (key and what it returned) and write (key,
  records, rcode, ttl), nested glueless ``lookup_a`` walks included,
  inline at its position;
* the result: the response message (wire plus message-id offset) or the
  :class:`~repro.dns.resolver.ResolutionError` text.

A hop to a host with no observable state (an unknown address, a
service that is not an authoritative server, an answer from the
recursive fallback) makes the walk unrecordable: it always executes.

Replay fails closed.  A recorded walk is first dry-run against the
current stamps and a shadow of the resolver cache at the simulated
clock the walk would reach, before any side effect; any mismatch (or
malformed slot content) executes the walk for real and re-records it.
A valid trace is then applied: the clock gains one ``network.latency``
per recorded transaction, added one at a time as the transport does so
the floats match; the cache reads and writes happen at their
positions; the resolver stats and the message-id counter advance as
execution would advance them; and the recorded answer comes back
through the wire codec.  Network counters, server query counters and
capture tallies do not move: they count transactions actually
simulated.

Traces persist as one ``walks-<identity>`` slot per open resolver in
the :class:`~repro.incremental.store.GroupResultStore`.  The identity
covers the resolver address, root hints and cache switch, the
scan-config fingerprint, :data:`WALK_FORMAT_VERSION` and a digest of
the source of the modules that shape a walk
(:data:`WALK_SOURCE_MODULES`); the slot repeats that key, and a slot
whose key differs is ignored.  A torn slot reads as a miss.
"""

from __future__ import annotations

import base64
import functools
import hashlib
import importlib
import json
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..dns import message as dns_message
from ..dns.message import Header, Message
from ..dns.name import Name, name
from ..dns.resolver import (
    WALK_READ,
    WALK_TX,
    WALK_WRITE,
    CacheEntry,
    RecursiveResolver,
    ResolutionError,
)
from ..dns.server import AuthoritativeServer
from ..dns.wire import (
    WireError,
    _with_message_id,
    decode_message,
    encode_message,
)

__all__ = [
    "WALK_FORMAT_VERSION",
    "WALK_SLOT_KIND",
    "WALK_SOURCE_MODULES",
    "WalkBook",
    "WalkSession",
    "walk_slot_key",
    "walk_source_digest",
]

#: bumped whenever the trace layout or its replay semantics change
WALK_FORMAT_VERSION = 1

#: store slot kind: files are ``walks-<identity>.json``
WALK_SLOT_KIND = "walks"

#: modules whose source decides what a walk does and what it answers:
#: the resolver's walk, the servers' answers (server, zone, message,
#: name, rdata), the wire a reply crosses and is truncated by (wire), and the
#: transport that falls back to TCP and charges each transaction's
#: latency (network)
WALK_SOURCE_MODULES = (
    "repro.dns.resolver",
    "repro.dns.server",
    "repro.dns.zone",
    "repro.dns.message",
    "repro.dns.name",
    "repro.dns.rdata",
    "repro.dns.wire",
    "repro.net.network",
)

#: the stamp of a destination that is registered but down
OFFLINE_STAMP = ["offline"]


@functools.lru_cache(maxsize=None)
def walk_source_digest() -> str:
    """sha256 over the source of :data:`WALK_SOURCE_MODULES`."""
    digest = hashlib.sha256()
    for module_name in WALK_SOURCE_MODULES:
        module = importlib.import_module(module_name)
        digest.update(module_name.encode("utf-8") + b"\0")
        digest.update(Path(module.__file__).read_bytes())
    return digest.hexdigest()


def walk_slot_key(
    resolver: RecursiveResolver, config_fp: str
) -> Dict[str, Any]:
    """Everything a resolver's recorded walks are only valid under."""
    return {
        "format": WALK_FORMAT_VERSION,
        "resolver": resolver.address,
        "root_hints": list(resolver.root_hints),
        "cache": resolver.cache_enabled,
        "config": config_fp,
        "source": walk_source_digest(),
    }


def _slot_identity(key: Dict[str, Any]) -> str:
    canonical = json.dumps(key, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _b64(wire: bytes) -> str:
    return base64.b64encode(wire).decode("ascii")


class _Invalid(Exception):
    """A recorded walk does not hold in the current world."""


class WalkBook:
    """One resolver's walk traces for one correct-record phase.

    Attached as :attr:`RecursiveResolver.walks`; the resolver calls
    :meth:`walk` on every top-level cache miss.
    """

    def __init__(
        self,
        session: "WalkSession",
        resolver: RecursiveResolver,
        key: Dict[str, Any],
        loaded: Dict[str, Any],
    ):
        self.session = session
        self.resolver = resolver
        self.key = key
        self.identity = _slot_identity(key)
        #: traces read from the slot, each still in its JSON text (a
        #: trace is parsed only when its walk comes up, so a loaded slot
        #: is a few thousand strings rather than a heap of containers
        #: for the cyclic garbage collector to traverse)
        self.loaded = loaded
        #: JSON traces of the walks this phase took (what is persisted)
        self.kept: Dict[str, str] = {}

    @property
    def dirty(self) -> bool:
        """Whether the slot must be rewritten."""
        return self.kept != self.loaded

    def walk(self, qname: Name, qtype: int) -> Message:
        """Resolve a top-level miss: replay when valid, else execute."""
        key = f"{qname}\t{qtype}"
        session = self.session
        resolver = self.resolver
        trace = self.loaded.get(key)
        if trace is not None:
            try:
                plan = session.dry_run(resolver, trace)
            except _Invalid as reason:
                session.invalidated(str(reason))
            else:
                self.kept[key] = trace
                return session.apply(resolver, plan)
        trace, outcome = session.record(resolver, qname, qtype)
        if trace is not None:
            self.kept[key] = trace
        if isinstance(outcome, ResolutionError):
            raise outcome
        return outcome


class WalkSession:
    """Walk replay over the open resolvers for one correct-record phase.

    Construction loads each resolver's slot and attaches a
    :class:`WalkBook`.  Used as a context manager around the phase: on
    exit it detaches the books, persists those whose traces changed
    (only when the phase completed), folds the counters into the
    store's ``walk_stats`` and emits ``incremental.walks`` on
    ``trace``.  The world must not change while a session is open (it
    never does within one phase), which lets stamps be memoized.
    """

    def __init__(
        self,
        store: Any,
        network: Any,
        resolver_ips: Sequence[str],
        config_fp: str,
        trace: Any = None,
    ):
        self.store = store
        self.network = network
        self.trace = trace
        self.hosts = network.dns_hosts()
        self.counts: Dict[str, int] = {
            "replayed": 0,
            "executed": 0,
            "invalidated": 0,
            "unrecordable": 0,
            "slots_read": 0,
            "slots_foreign": 0,
            "slots_written": 0,
        }
        self.reasons: Dict[str, int] = {}
        self._stamps: Dict[Tuple[str, str], Optional[list]] = {}
        self._records: Dict[str, Tuple[Any, ...]] = {}
        self._encoded: Dict[int, Tuple[Tuple[Any, ...], str]] = {}
        self.books: List[WalkBook] = []
        for address in dict.fromkeys(resolver_ips):
            resolver = self.hosts.get(address)
            if not isinstance(resolver, RecursiveResolver):
                continue
            if resolver.walks is not None:
                continue
            key = walk_slot_key(resolver, config_fp)
            book = WalkBook(self, resolver, key, {})
            slot = store.get_slot(WALK_SLOT_KIND, book.identity)
            if slot is not None:
                if (
                    isinstance(slot, dict)
                    and slot.get("key") == key
                    and isinstance(slot.get("walks"), dict)
                ):
                    book.loaded = slot["walks"]
                    self.counts["slots_read"] += 1
                else:
                    self.counts["slots_foreign"] += 1
            resolver.walks = book
            self.books.append(book)

    # -- stamps and records ------------------------------------------------

    def stamp(self, address: str, qname: str) -> Optional[list]:
        """The current stamp of ``address`` answering ``qname``."""
        key = (address, qname)
        try:
            return self._stamps[key]
        except KeyError:
            pass
        service = self.hosts.get(address)
        if service is None:
            stamp = None
        elif not self.network.is_online(address):
            stamp = OFFLINE_STAMP
        elif isinstance(service, AuthoritativeServer):
            stamp = service.answer_stamp(qname)
        else:
            stamp = None
        self._stamps[key] = stamp
        return stamp

    def _encode_records(self, records: Tuple[Any, ...]) -> str:
        cached = self._encoded.get(id(records))
        if cached is not None and cached[0] is records:
            return cached[1]
        text = _b64(
            encode_message(
                Message(header=Header(is_response=True), answers=list(records))
            )
        )
        self._encoded[id(records)] = (records, text)
        return text

    def _decode_records(self, text: str) -> Tuple[Any, ...]:
        records = self._records.get(text)
        if records is None:
            records = tuple(decode_message(base64.b64decode(text)).answers)
            self._records[text] = records
        return records

    # -- replay ------------------------------------------------------------

    def dry_run(self, resolver: RecursiveResolver, text: Any) -> tuple:
        """Check the JSON trace ``text`` against the world; no side
        effects.

        Returns the plan :meth:`apply` carries out; raises
        :class:`_Invalid` (with the reason) when the walk would not
        repeat, including for malformed trace content.
        """
        try:
            return self._dry_run(resolver, json.loads(text))
        except _Invalid:
            raise
        except Exception:
            raise _Invalid("malformed") from None

    def _dry_run(self, resolver: RecursiveResolver, trace: Any) -> tuple:
        network = self.network
        clock = network.now
        latency = network.latency
        cache = resolver._cache
        shadow: Dict[Tuple[Name, int], Optional[CacheEntry]] = {}
        effects: List[Tuple[Tuple[Name, int], Optional[CacheEntry]]] = []
        attempts = 0
        hits = 0
        for op in trace["ops"]:
            kind = op[0]
            if kind == WALK_TX:
                if self.stamp(op[1], op[2]) != op[5]:
                    raise _Invalid("stamp")
                clock += latency
                if op[3] == "udp":
                    attempts += 1
                continue
            key = (name(op[1]), op[2])
            if kind == WALK_READ:
                entry = shadow[key] if key in shadow else cache.get(key)
                if entry is not None and clock >= entry.expires:
                    entry = None
                    shadow[key] = None
                    effects.append((key, None))
                recorded = op[3]
                if recorded is None:
                    if entry is not None:
                        raise _Invalid("cache")
                    continue
                if (
                    entry is None
                    or entry.rcode != recorded[0]
                    or entry.records != self._decode_records(recorded[1])
                ):
                    raise _Invalid("cache")
                hits += 1
            elif kind == WALK_WRITE:
                entry = CacheEntry(
                    expires=clock + op[4],
                    records=self._decode_records(op[5]),
                    rcode=op[3],
                )
                shadow[key] = entry
                effects.append((key, entry))
            else:
                raise _Invalid("malformed")
        if attempts == 0:
            raise _Invalid("malformed")
        if "error" in trace:
            result: Any = str(trace["error"])
            offset = 0
        else:
            offset, wire = trace["result"]
            wire = base64.b64decode(wire)
            result = (
                network.codec.decode(wire)
                if network.scan_cache_enabled
                else decode_message(wire)
            )
        return clock, effects, attempts, hits, result, int(offset)

    def apply(self, resolver: RecursiveResolver, plan: tuple) -> Message:
        """Carry out a dry-run plan: the walk's effects, then its answer."""
        clock, effects, attempts, hits, result, offset = plan
        cache = resolver._cache
        for key, entry in effects:
            if entry is None:
                cache.pop(key, None)
            else:
                cache[key] = entry
        self.network.set_clock(clock)
        resolver.stats.upstream_queries += attempts
        resolver.stats.cache_hits += hits
        first_id = dns_message.next_message_id()
        for _ in range(attempts - 1):
            dns_message.next_message_id()
        self.counts["replayed"] += 1
        if isinstance(result, str):
            raise ResolutionError(result)
        message_id = (first_id + offset) & 0xFFFF
        if result.header.message_id != message_id:
            result = _with_message_id(result, message_id)
        return result

    def invalidated(self, reason: str) -> None:
        self.counts["invalidated"] += 1
        self.reasons[reason] = self.reasons.get(reason, 0) + 1

    # -- recording ---------------------------------------------------------

    def record(
        self, resolver: RecursiveResolver, qname: Name, qtype: int
    ) -> Tuple[Optional[str], Any]:
        """Execute the walk for real, recording it.

        Returns ``(trace, outcome)``: the JSON trace is None when the
        walk is unrecordable, the outcome is the response or the
        :class:`ResolutionError` the walk raised.
        """
        self.counts["executed"] += 1
        log: list = []
        resolver.walk_log = log
        try:
            outcome: Any = resolver._resolve_iteratively(qname, qtype)
        except ResolutionError as error:
            outcome = error
        finally:
            resolver.walk_log = None
        trace = self._encode(log, outcome)
        if trace is None:
            return None, outcome
        return json.dumps(trace, separators=(",", ":")), outcome

    def _encode(self, log: list, outcome: Any) -> Optional[Dict[str, Any]]:
        """The JSON trace of one logged walk (None when unrecordable)."""
        ops: List[list] = []
        first_id = None
        for item in log:
            kind = item[0]
            if kind == WALK_TX:
                _, server, qname, transport, ok, message_id = item
                text = str(qname)
                stamp = self.stamp(server, text)
                if stamp is None:
                    self.counts["unrecordable"] += 1
                    return None
                if first_id is None:
                    first_id = message_id
                ops.append([WALK_TX, server, text, transport, ok, stamp])
            elif kind == WALK_READ:
                _, qname, qtype, entry = item
                hit = None
                if entry is not None:
                    hit = [entry.rcode, self._encode_records(entry.records)]
                ops.append([WALK_READ, str(qname), qtype, hit])
            else:
                _, qname, qtype, entry, ttl = item
                ops.append(
                    [
                        WALK_WRITE,
                        str(qname),
                        qtype,
                        entry.rcode,
                        ttl,
                        self._encode_records(entry.records),
                    ]
                )
        if first_id is None:
            self.counts["unrecordable"] += 1
            return None
        trace: Dict[str, Any] = {"ops": ops}
        if isinstance(outcome, ResolutionError):
            trace["error"] = str(outcome)
            return trace
        try:
            wire = encode_message(outcome)
        except WireError:
            self.counts["unrecordable"] += 1
            return None
        trace["result"] = [
            (outcome.header.message_id - first_id) & 0xFFFF,
            _b64(wire),
        ]
        return trace

    # -- end of phase ------------------------------------------------------

    def __enter__(self) -> "WalkSession":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close(persist=exc_type is None)

    def close(self, persist: bool) -> Dict[str, Any]:
        """Detach the books; persist changed ones when ``persist``.

        Folds this phase's counters into ``store.walk_stats`` and emits
        the timing-section ``incremental.walks`` event.
        """
        for book in self.books:
            book.resolver.walks = None
        if persist:
            for book in self.books:
                if book.dirty:
                    self.store.put_slot(
                        WALK_SLOT_KIND,
                        book.identity,
                        {"key": book.key, "walks": book.kept},
                    )
                    self.counts["slots_written"] += 1
        stats = self.store.walk_stats
        for counter, value in self.counts.items():
            stats[counter] = stats.get(counter, 0) + value
        reasons = stats.setdefault("reasons", {})
        for reason, value in self.reasons.items():
            reasons[reason] = reasons.get(reason, 0) + value
        summary = {
            "resolvers": len(self.books),
            **self.counts,
            "reasons": dict(sorted(self.reasons.items())),
        }
        if self.trace is not None:
            self.trace.emit_timing("incremental.walks", **summary)
        return summary
