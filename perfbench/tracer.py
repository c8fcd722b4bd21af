"""Per-layer self time, recorded from outside the program.

The traced run wraps the public entry points of each ``repro`` layer
(listed in :data:`SPANS`) with a timing shim, runs the workload, and puts
the originals back.  Nothing under ``src/`` knows it is being measured.

Each wrapper records one span per call.  A span's *self time* is its
duration minus the time covered by the spans it directly encloses, so the
self times of all spans plus the time that falls in no span add up to the
traced wall time and no second is counted twice.  Spans are aggregated in
memory per name (calls, self seconds, errors, bytes) and written out once,
when the run ends.

Many callers bind these functions with ``from module import name``; a
wrapper installed only on the defining module would leave those bindings
pointing at the original and the layer would silently read zero.
:meth:`Tracer.install` therefore rebinds every module-level name in every
loaded ``repro`` module that refers to a wrapped function.  Bound methods
captured before installation (firehose subscriptions) keep the original,
so a traced run must build its world after :meth:`Tracer.install`.

The harness's own work between measured windows (hashing wire frames,
drawing requests, fingerprints) runs under :func:`untraced`, so it shows
in no span.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import time
from dataclasses import dataclass
from typing import Optional

# span name -> "module:qualname" targets.  One span may cover several
# functions (every Relay publish_* variant is ``relay.publish``).
SPANS: dict[str, tuple[str, ...]] = {
    # simulation
    "sim.population": ("repro.simulation.world:World.__init__",),
    "sim.begin_day": ("repro.simulation.engine:SimProcess.begin_day",),
    "sim.generate": ("repro.simulation.engine:SimProcess.generate_owned",),
    "sim.run": ("repro.simulation.engine:Engine.run",),
    # atproto
    "cbor.encode": ("repro.atproto.cbor:cbor_encode",),
    "cbor.decode": ("repro.atproto.cbor:cbor_decode",),
    "cid.hash": ("repro.atproto.cid:cid_for_dag_cbor_bytes",),
    "cid.str": ("repro.atproto.cid:Cid.__str__",),
    "mst.set": ("repro.atproto.mst:Mst.set",),
    "mst.delete": ("repro.atproto.mst:Mst.delete",),
    "mst.root_cid": ("repro.atproto.mst:Mst.root_cid",),
    "mst.load": ("repro.atproto.mst:load_mst",),
    "repo.commit": ("repro.atproto.repo:Repo.apply_writes",),
    "repo.export_car": ("repro.atproto.repo:Repo.export_car",),
    "repo.import_car": ("repro.atproto.repo:import_car",),
    "car.read": ("repro.atproto.car:read_car",),
    "car.write": ("repro.atproto.car:write_car",),
    "keys.sign": (
        "repro.atproto.keys:HmacKeypair.sign",
        "repro.atproto.keys:Secp256k1Keypair.sign",
    ),
    "keys.verify": (
        "repro.atproto.keys:HmacPublicKey.verify",
        "repro.atproto.keys:Secp256k1PublicKey.verify",
    ),
    "frames.encode": (
        "repro.atproto.frames:encode_event_frame",
        "repro.atproto.frames:encode_label_frame",
    ),
    # services
    "pds.write": (
        "repro.services.pds:Pds.create_record",
        "repro.services.pds:Pds.update_record",
        "repro.services.pds:Pds.delete_record",
        "repro.services.pds:Pds.apply_writes",
    ),
    "relay.publish": (
        "repro.services.relay:Relay.publish_commit",
        "repro.services.relay:Relay.publish_tombstone",
        "repro.services.relay:Relay.publish_identity_event",
        "repro.services.relay:Relay.publish_handle_event",
    ),
    "relay.get_repo": ("repro.services.relay:Relay.xrpc_getRepo",),
    "relay.list_repos": ("repro.services.relay:Relay.xrpc_listRepos",),
    "appview.ingest": ("repro.services.appview:AppView.consume_event",),
    "appview.get_timeline": ("repro.services.appview:AppView.xrpc_getTimeline",),
    "appview.get_feed": ("repro.services.appview:AppView.xrpc_getFeed",),
    "appview.get_profile": ("repro.services.appview:AppView.xrpc_getProfile",),
    "feedgen.route": ("repro.services.feedgen:FeedRouter.route",),
    "feedgen.skeleton": ("repro.services.feedgen:FeedGeneratorHost.xrpc_getFeedSkeleton",),
    "labeler.emit": ("repro.services.labeler:LabelerService.emit",),
    "xrpc.call": ("repro.services.xrpc:ServiceDirectory.call",),
    # collectors
    "collect.firehose": ("repro.core.collect.firehose:FirehoseCollector.consume",),
    "collect.identifiers": ("repro.core.collect.identifiers:ListReposCollector.crawl",),
    "collect.diddocs": ("repro.core.collect.diddocs:DidDocumentCollector.crawl",),
    "collect.repos": ("repro.core.collect.repos:RepositoriesCollector.crawl",),
    "collect.labelers": (
        "repro.core.collect.labelers:LabelerCollector.discover",
        "repro.core.collect.labelers:LabelerCollector.connect_and_backfill",
    ),
    "collect.feedgens": (
        "repro.core.collect.feedgens:FeedGeneratorCollector.discover",
        "repro.core.collect.feedgens:FeedGeneratorCollector.fetch_metadata",
        "repro.core.collect.feedgens:FeedGeneratorCollector.crawl_feed_posts",
    ),
    "collect.active": (
        "repro.core.collect.active:ActiveMeasurements.probe_handles",
        "repro.core.collect.active:ActiveMeasurements.extract_registered_domains",
        "repro.core.collect.active:ActiveMeasurements.scan_whois",
        "repro.core.collect.active:ActiveMeasurements.cross_reference_tranco",
    ),
    "integrity.verify": tuple(
        "repro.core.integrity:IntegrityMonitor." + method
        for method in (
            "verify_repo_car",
            "check_frame_bytes",
            "check_diddoc",
            "check_handle_bidi",
            "check_label",
            "check_identifier",
            "check_record_uri",
        )
    ),
    # report
    "report.render": ("repro.core.report:full_report",),
}

# Spans whose first argument is a byte string worth totalling.
BYTE_SPANS = frozenset({"car.read"})

# span-name prefix -> layer (the module family it lives in).
LAYER_OF_PREFIX = {
    "sim": "simulation",
    "cbor": "atproto",
    "cid": "atproto",
    "mst": "atproto",
    "repo": "atproto",
    "car": "atproto",
    "keys": "atproto",
    "frames": "atproto",
    "pds": "services",
    "relay": "services",
    "appview": "services",
    "feedgen": "services",
    "labeler": "services",
    "xrpc": "services",
    "collect": "collect",
    "integrity": "collect",
    "report": "report",
}


def layer_of(span: str) -> str:
    return LAYER_OF_PREFIX[span.split(".", 1)[0]]


@dataclass
class SpanStats:
    calls: int = 0
    self_s: float = 0.0
    errors: int = 0
    bytes: int = 0


def _resolve(target: str):
    """``"module:Class.attr"`` -> (owner object, attribute name, function)."""
    module_name, _, qualname = target.partition(":")
    owner = importlib.import_module(module_name)
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attr, owner.__dict__[attr]


def _repro_modules():
    return [
        module
        for name, module in list(sys.modules.items())
        if module is not None and (name == "repro" or name.startswith("repro."))
    ]


# The tracer whose wrappers are installed.  Installing patches modules for
# the whole process, so at most one tracer is installed at a time, and the
# harness finds it here to keep its own work out of the figures.
_installed: Optional["Tracer"] = None


@contextlib.contextmanager
def untraced():
    """Leave the harness's own work out of the installed tracer's figures.

    For work between measured windows that calls traced functions: every
    span recorded inside the block is rolled back when it ends.  Outside a
    traced run it does nothing.
    """
    tracer = _installed
    if tracer is None:
        yield
        return
    if tracer._stack:
        raise RuntimeError("untraced() inside a traced call")
    saved = [
        (stats, stats.calls, stats.self_s, stats.errors, stats.bytes)
        for stats in tracer.stats.values()
    ]
    covered = tracer.covered_s
    try:
        yield
    finally:
        for stats, calls, self_s, errors, nbytes in saved:
            stats.calls, stats.self_s, stats.errors, stats.bytes = calls, self_s, errors, nbytes
        tracer.covered_s = covered


class Tracer:
    """Wrap :data:`SPANS` while active; aggregate self time per span.

    Use as a context manager::

        with Tracer() as tracer:
            ...  # build the world and run the workload
        tracer.stats["cbor.encode"].calls
    """

    def __init__(self):
        self.stats: dict[str, SpanStats] = {name: SpanStats() for name in SPANS}
        # Time covered by outermost spans; wall minus this is unattributed.
        self.covered_s = 0.0
        self._stack: list[list[float]] = []
        self._patched: list[tuple[object, str, object]] = []
        self._originals: dict[int, object] = {}

    # -- wrapping -------------------------------------------------------------

    def _wrap(self, name: str, fn):
        stats = self.stats[name]
        stack = self._stack
        clock = time.perf_counter
        count_bytes = name in BYTE_SPANS
        tracer = self

        @functools.wraps(fn)
        def span(*args, **kwargs):
            children = [0.0]
            stack.append(children)
            start = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                stats.errors += 1
                raise
            finally:
                elapsed = clock() - start
                stack.pop()
                stats.calls += 1
                stats.self_s += elapsed - children[0]
                if count_bytes:
                    stats.bytes += len(args[0])
                if stack:
                    stack[-1][0] += elapsed
                else:
                    tracer.covered_s += elapsed

        span.__perfbench_original__ = fn
        return span

    def install(self) -> None:
        global _installed
        if _installed is not None:
            raise RuntimeError("a tracer is already installed")
        replacements: dict[int, object] = {}
        for name, targets in SPANS.items():
            for target in targets:
                owner, attr, fn = _resolve(target)
                wrapper = self._wrap(name, fn)
                setattr(owner, attr, wrapper)
                self._patched.append((owner, attr, fn))
                if not isinstance(owner, type):
                    replacements[id(fn)] = wrapper
                self._originals[id(wrapper)] = fn
        # Rebind ``from module import name`` copies of wrapped functions.
        for module in _repro_modules():
            namespace = module.__dict__
            for key, value in list(namespace.items()):
                wrapper = replacements.get(id(value))
                if wrapper is not None and value is wrapper.__perfbench_original__:
                    namespace[key] = wrapper
                    self._patched.append((module, key, value))
        _installed = self

    def uninstall(self) -> None:
        global _installed
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()
        # A module imported while tracing copied wrappers at its import;
        # put the originals back there too.
        for module in _repro_modules():
            namespace = module.__dict__
            for key, value in list(namespace.items()):
                original = self._originals.get(id(value))
                if original is not None and getattr(value, "__perfbench_original__", None) is original:
                    namespace[key] = original
        self._originals.clear()
        if _installed is self:
            _installed = None

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.uninstall()

    # -- results --------------------------------------------------------------

    def self_total_s(self) -> float:
        return sum(stats.self_s for stats in self.stats.values())

    def layer_self_s(self) -> dict[str, float]:
        layers: dict[str, float] = {}
        for name, stats in self.stats.items():
            layer = layer_of(name)
            layers[layer] = layers.get(layer, 0.0) + stats.self_s
        return layers
