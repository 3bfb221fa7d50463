"""Layer tracing from outside the program.

:func:`install` wraps public functions of the simulator's modules at
run time (nothing under ``src/`` changes).  Every wrapped call becomes a
span — id, name, start, end, parent — kept in compact in-memory arrays
and written out once, when the process ends.  Self time is a span's
duration minus the time covered by its direct child spans; it is
accumulated on line, so the summary needs no second pass.

Count hooks add exact work counts at the same boundaries (codec bytes,
event-loop callbacks, probes sent, shard-cache hits, ...).
"""

from __future__ import annotations

import importlib
import json
import sys
from array import array
from collections import Counter, defaultdict
from time import perf_counter


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        # One row per finished span, in exit order.
        self.span_id = array("q")
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("q")
        self._next_id = 0
        #: open spans, innermost last: [span id, time covered by children]
        self.stack: list[list] = []
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.total_s: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()

    def name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self) -> tuple[list, int]:
        """Push a span frame; returns it with the parent span's id."""
        sid = self._next_id
        self._next_id = sid + 1
        stack = self.stack
        parent = stack[-1][0] if stack else -1
        frame = [sid, 0.0]
        stack.append(frame)
        return frame, parent

    def close(self, nid: int, frame: list, parent: int, t0: float,
              t1: float) -> None:
        stack = self.stack
        stack.pop()
        duration = t1 - t0
        if stack:
            stack[-1][1] += duration
        self.calls[nid] += 1
        self.total_s[nid] += duration
        self.self_s[nid] += duration - frame[1]
        self.span_id.append(frame[0])
        self.span_name.append(nid)
        self.span_start.append(t0)
        self.span_end.append(t1)
        self.span_parent.append(parent)

    def wrap(self, fn, name: str, hooks=()):
        """Return *fn* recorded as span *name*.  Each ``(key, amount)``
        hook adds ``amount(args, result)`` to ``counts[key]``."""
        nid = self.name_id(name)
        counts = self.counts
        open_, close = self.open, self.close

        def traced(*args, **kwargs):
            frame, parent = open_()
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                close(nid, frame, parent, t0, perf_counter())
            for key, amount in hooks:
                counts[key] += amount(args, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__qualname__ = getattr(fn, "__qualname__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    # -- output ---------------------------------------------------------

    def summary(self) -> dict:
        return {
            "calls": {self.names[k]: v for k, v in self.calls.items()},
            "self_s": {self.names[k]: v for k, v in self.self_s.items()},
            "total_s": {self.names[k]: v for k, v in self.total_s.items()},
            "counts": dict(self.counts),
            "spans": len(self.span_id),
        }

    def write_spans(self, path) -> None:
        """Write every span: a JSON header line, then one binary column
        per field in header order (``array.tofile``, native byte order).
        Times are ``time.perf_counter`` seconds of the traced process."""
        columns = [
            ("id", self.span_id),
            ("name", self.span_name),
            ("start", self.span_start),
            ("end", self.span_end),
            ("parent", self.span_parent),
        ]
        header = {
            "names": self.names,
            "count": len(self.span_id),
            "columns": [[field, col.typecode] for field, col in columns],
        }
        with open(path, "wb") as handle:
            handle.write((json.dumps(header) + "\n").encode())
            for _, column in columns:
                column.tofile(handle)


class _Region:
    """A span around a block of code rather than a call."""

    __slots__ = ("tracer", "nid", "frame", "parent", "t0")

    def __init__(self, tracer: Tracer, nid: int) -> None:
        self.tracer = tracer
        self.nid = nid

    def __enter__(self):
        self.frame, self.parent = self.tracer.open()
        self.t0 = perf_counter()
        return self

    def __exit__(self, *exc):
        self.tracer.close(
            self.nid, self.frame, self.parent, self.t0, perf_counter()
        )
        return False


# ---------------------------------------------------------------------------
# what gets wrapped
# ---------------------------------------------------------------------------

def _one(args, result):
    return 1


def _returned(args, result):
    return result


#: (module, attribute path, span name, count hooks).  ``Class.method``
#: wraps the method on the class; classmethods stay classmethods.
TARGETS = [
    ("repro.scenarios.internet", "build_internet", "scenarios.build",
     (("scenarios.builds", _one),)),
    ("repro.scenarios.compiled", "serialize_scenario",
     "scenarios.serialize", ()),
    ("repro.scenarios.compiled", "deserialize_scenario",
     "scenarios.deserialize", ()),
    ("repro.dns.message", "Message.to_wire", "dns.codec.message_encode",
     (("dns.codec.encodes", _one),
      ("dns.codec.bytes", lambda args, result: len(result)))),
    ("repro.dns.message", "Message.from_wire", "dns.codec.message_decode",
     (("dns.codec.decodes", _one),
      ("dns.codec.bytes", lambda args, result: len(args[-1])))),
    ("repro.dns.name", "Name.to_wire", "dns.codec.name_encode",
     (("dns.codec.encodes", _one),)),
    ("repro.dns.name", "Name.from_wire", "dns.codec.name_decode",
     (("dns.codec.decodes", _one),)),
    ("repro.core.qname", "QueryNameCodec.encode", "core.qname", ()),
    ("repro.core.qname", "QueryNameCodec.decode", "core.qname", ()),
    ("repro.core.qname", "QueryNameCodec.channel_of", "core.qname", ()),
    ("repro.core.qname", "QueryNameCodec.minimized_channel", "core.qname",
     ()),
    ("repro.core.qname", "encode_address", "core.qname", ()),
    ("repro.core.qname", "decode_address", "core.qname", ()),
    ("repro.core.qname", "encode_timestamp", "core.qname", ()),
    ("repro.core.qname", "decode_timestamp", "core.qname", ()),
    ("repro.netsim.determinism", "stable_hash", "netsim.determinism",
     (("netsim.determinism.hashes", _one),)),
    ("repro.netsim.determinism", "stable_fraction", "netsim.determinism",
     ()),
    ("repro.netsim.determinism", "stable_range", "netsim.determinism", ()),
    ("repro.netsim.determinism", "derive_rng", "netsim.determinism", ()),
    ("repro.netsim.events", "EventLoop.run", "netsim.events",
     (("netsim.events.events", _returned),)),
    ("repro.netsim.events", "EventLoop.run_until", "netsim.events",
     (("netsim.events.events", _returned),)),
    ("repro.netsim.events", "EventLoop.schedule", "netsim.events", ()),
    ("repro.netsim.events", "EventLoop.schedule_at", "netsim.events", ()),
    ("repro.netsim.events", "EventLoop.schedule_many", "netsim.events", ()),
    ("repro.netsim.events", "EventLoop.stage_batch", "netsim.events", ()),
    ("repro.netsim.events", "EventLoop.cancel", "netsim.events", ()),
    ("repro.netsim.fabric", "Fabric.send", "netsim.fabric",
     (("netsim.fabric.packets", _one),)),
    ("repro.dns.transport", "DNSHost.handle_packet", "dns.transport", ()),
    ("repro.dns.resolver", "RecursiveResolver.handle_dns", "dns.resolver",
     (("dns.resolver.queries", _one),)),
    ("repro.dns.resolver", "RecursiveResolver.handle_dns_response",
     "dns.resolver", ()),
    ("repro.dns.auth", "AuthoritativeServer.handle_dns", "dns.auth",
     (("dns.auth.queries", _one),)),
    ("repro.core.scanner", "Scanner.run", "core.scanner",
     (("core.scanner.probes", lambda args, result: args[0].probes_sent),)),
    ("repro.core.scanner", "Scanner.schedule_campaign",
     "core.scanner.schedule", ()),
    ("repro.core.scanner", "ScanClient.send_query", "core.scanner", ()),
    ("repro.core.collection", "Collector.on_record", "core.collection", ()),
    ("repro.core.collection", "Collector.canonicalize", "core.collection",
     ()),
    ("repro.core.collection", "Collector.absorb_payload",
     "core.collection", ()),
    ("repro.core.collection", "Collector.to_payload", "core.collection", ()),
    ("repro.core.pipeline", "run_pipeline", "core.pipeline.run", ()),
    ("repro.core.pipeline", "run_scan_shard", "core.pipeline.shard",
     (("core.pipeline.shard_runs", _one),)),
    ("repro.core.pipeline", "ShardCache.load", "campaigns.shard_cache",
     (("campaigns.shard_cache_hits",
       lambda args, result: 0 if result is None else 1),)),
    ("repro.obs.journal", "merge_shard_journals", "obs.journal.merge",
     (("obs.journal.events", _returned),)),
    ("repro.obs.journal", "append_classifications", "obs.journal.classify",
     (("obs.journal.events", _returned),)),
    ("repro.obs.explain", "load_index", "obs.explain.load", ()),
    ("repro.obs.explain", "audit", "obs.explain.audit", ()),
    ("repro.obs.ledger", "Ledger.rebuild", "obs.ledger.rebuild", ()),
    ("repro.obs.ledger", "Ledger.record", "obs.ledger.record", ()),
    ("repro.obs.diff", "run_diff", "obs.diff.run", ()),
    ("repro.obs.trend", "build_trend", "obs.trend.build", ()),
    ("repro.campaigns.supervisor", "run_campaign", "campaigns.run", ()),
]

#: program spans (``repro.obs.spans.span`` names opened by
#: ``run_pipeline``) mirrored as tracer spans: these stages are blocks
#: inside one function, not calls of their own.
STAGE_SPANS = {
    "collect": "core.pipeline.collect",
    "analyze": "core.pipeline.analyze",
}


def install(tracer: Tracer) -> list[str]:
    """Wrap every target; returns the targets that could not be found,
    so a renamed function is reported instead of failing the run."""
    missing = []
    rebind: dict[int, tuple] = {}  # id(function) -> (function, traced)
    for module_name, path, span_name, hooks in TARGETS:
        try:
            owner = importlib.import_module(module_name)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            raw = vars(owner)[attr]
        except (ImportError, AttributeError, KeyError):
            missing.append(f"{module_name}:{path}")
            continue
        is_classmethod = isinstance(raw, classmethod)
        fn = raw.__func__ if is_classmethod else raw
        traced = tracer.wrap(fn, span_name, hooks)
        setattr(owner, attr, classmethod(traced) if is_classmethod else traced)
        if not outer:
            rebind[id(fn)] = (fn, traced)
    # Functions imported by name elsewhere (``from .determinism import
    # stable_hash``) are separate bindings: rebind those too.
    for name, module in list(sys.modules.items()):
        if module is None or not name.startswith("repro"):
            continue
        for attr, value in list(vars(module).items()):
            entry = rebind.get(id(value))
            if entry is not None and entry[0] is value:
                setattr(module, attr, entry[1])
    _mirror_stage_spans(tracer)
    return missing


def _mirror_stage_spans(tracer: Tracer) -> None:
    pipeline = importlib.import_module("repro.core.pipeline")
    program_span = pipeline.span
    nids = {name: tracer.name_id(traced) for name, traced in
            STAGE_SPANS.items()}

    def span(name, **attrs):
        inner = program_span(name, **attrs)
        nid = nids.get(name)
        if nid is None:
            return inner
        return _Both(_Region(tracer, nid), inner)

    pipeline.span = span


class _Both:
    """Enter a tracer region and a program span together."""

    __slots__ = ("outer", "inner")

    def __init__(self, outer, inner) -> None:
        self.outer = outer
        self.inner = inner

    def __enter__(self):
        self.outer.__enter__()
        return self.inner.__enter__()

    def __exit__(self, *exc):
        try:
            return self.inner.__exit__(*exc)
        finally:
            self.outer.__exit__(*exc)
