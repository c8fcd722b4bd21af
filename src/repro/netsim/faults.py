"""Deterministic fault injection for the collection path.

The paper's datasets came out of long-running crawls against an unreliable
network: a 10-day rate-limited ``getRepo`` snapshot, self-hosted PDSes
that time out or vanish, and a firehose whose three-day retention window
silently drops slow subscribers (Sections 2-3).  This module lets a study
run *rehearse* that unreliability on the simulated clock:

* :class:`FaultPlan` — a frozen, seeded description of what goes wrong
  and when: full outages, transient 429/5xx flakiness, slow hosts that
  sometimes exceed the client timeout, and firehose disconnect windows;
* :class:`FaultInjector` — the runtime that draws from the plan.  The
  :class:`~repro.services.xrpc.ServiceDirectory` consults it before every
  dispatched call, and non-XRPC probes (DID resolution, DNS, WHOIS) ask
  it directly via :meth:`FaultInjector.raise_transient`;
* :class:`RetryPolicy` / :func:`call_with_retries` — the
  backoff-with-jitter policy every collector shares, operating on virtual
  microseconds so a faulted crawl's wall-clock footprint stays computable.

Everything is deterministic: the same plan and seed produce the same
faults in the same order, so a fault-injected study is exactly as
reproducible as a fault-free one — and a *recoverable* plan (every outage
ends, every disconnect is shorter than firehose retention) converges to
the same Table 1 statistics.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, field
from typing import Optional

from repro.services.xrpc import (
    REASON_INJECTED_FLAKY,
    REASON_INJECTED_OUTAGE,
    REASON_INJECTED_TIMEOUT,
    XrpcError,
)

US_PER_SECOND = 1_000_000
US_PER_MINUTE = 60 * US_PER_SECOND
US_PER_HOUR = 60 * US_PER_MINUTE

#: XRPC statuses worth retrying: transport failure (0), timeout (408),
#: rate limiting (429), and upstream 5xx.  404s and other 4xx are final.
TRANSIENT_STATUSES = (0, 408, 429, 500, 502, 503)

#: Pseudo-targets for fault draws that do not go through the XRPC
#: directory; FlakyRule.url can name these instead of an endpoint URL.
TARGET_IDENTITY = "target:identity"  # DID document resolution
TARGET_DNS = "target:dns"  # handle-verification DNS probes
TARGET_WHOIS = "target:whois"  # WHOIS scans


def _url_matches(pattern: str, url: str) -> bool:
    if pattern == "*":
        return True
    pattern = pattern.rstrip("/").lower()
    url = url.rstrip("/").lower()
    return url == pattern or url.startswith(pattern)


@dataclass(frozen=True)
class Outage:
    """A service is fully unreachable during [start_us, end_us)."""

    url: str
    start_us: int
    end_us: int
    status: int = 0  # 0 = connection refused; 408 = hang until timeout

    def applies(self, url: str, now_us: int) -> bool:
        return self.start_us <= now_us < self.end_us and _url_matches(self.url, url)


@dataclass(frozen=True)
class FlakyRule:
    """A share of calls to matching targets fail with a transient status."""

    url: str = "*"
    probability: float = 0.0
    statuses: tuple[int, ...] = (429, 500, 503)
    start_us: int = 0
    end_us: Optional[int] = None

    def applies(self, url: str, now_us: int) -> bool:
        if now_us < self.start_us:
            return False
        if self.end_us is not None and now_us >= self.end_us:
            return False
        return _url_matches(self.url, url)


@dataclass(frozen=True)
class SlowHost:
    """Added per-call latency; calls past ``timeout_us`` fail with 408.

    Models the paper's self-hosted PDSes "that time out": every call to a
    matching host pays ``base_latency_us`` (plus deterministic jitter),
    and when the drawn latency exceeds the client timeout the call is
    charged the full timeout and fails.
    """

    url: str
    base_latency_us: int = 200_000
    jitter_us: int = 0
    timeout_us: int = 30 * US_PER_SECOND
    timeout_probability: float = 0.0


@dataclass(frozen=True)
class Disconnect:
    """The collector's firehose subscription is dead during the window.

    Events published inside the window are lost on the dead connection;
    the collector notices on the next delivery attempt after ``end_us``
    and resumes via ``subscribeRepos(cursor)``.  A window shorter than the
    firehose retention is fully recoverable; a longer one produces an
    ``OutdatedCursor`` gap with dropped-event accounting.
    """

    start_us: int
    end_us: int

    def covers(self, now_us: int) -> bool:
        return self.start_us <= now_us < self.end_us


@dataclass(frozen=True)
class FaultPlan:
    """A seeded, immutable schedule of network faults."""

    seed: int = 0
    outages: tuple[Outage, ...] = ()
    flaky: tuple[FlakyRule, ...] = ()
    slow_hosts: tuple[SlowHost, ...] = ()
    disconnects: tuple[Disconnect, ...] = ()

    def is_disconnected(self, now_us: int) -> bool:
        return any(window.covers(now_us) for window in self.disconnects)

    def is_empty(self) -> bool:
        return not (self.outages or self.flaky or self.slow_hosts or self.disconnects)

    @classmethod
    def recoverable(
        cls,
        seed: int,
        start_us: int,
        end_us: int,
        relay_url: str = "https://bsky.network",
    ) -> "FaultPlan":
        """A moderate, fully recoverable plan over the collection window.

        Every fault heals: outages end well before the collection window
        does, firehose disconnects stay far below the three-day retention,
        and flaky responses are transient — so collectors that retry and
        cursor-resume recover every event and the run converges to the
        fault-free Table 1.
        """
        rng = random.Random(seed ^ 0xFA_07)
        span = max(1, end_us - start_us)
        disconnects = []
        for _ in range(3):
            at = start_us + int(rng.random() * span * 0.8)
            length = int(rng.uniform(1, 8) * US_PER_HOUR)
            disconnects.append(Disconnect(at, at + length))
        outage_at = start_us + int(rng.random() * span * 0.7)
        outages = (
            # The relay drops out entirely for under an hour; crawls that
            # hit the window park failed DIDs on the retry queue.
            Outage(relay_url, outage_at, outage_at + int(rng.uniform(10, 45) * US_PER_MINUTE)),
        )
        flaky = (
            FlakyRule(url=relay_url, probability=0.08, statuses=(429, 503)),
            FlakyRule(url=TARGET_IDENTITY, probability=0.05, statuses=(500,)),
            FlakyRule(url=TARGET_DNS, probability=0.04, statuses=(0,)),
            FlakyRule(url=TARGET_WHOIS, probability=0.04, statuses=(0,)),
        )
        slow_hosts = (
            # Self-hosted PDSes answer slowly and occasionally hang past
            # the client timeout.
            SlowHost(
                "https://pds.",
                base_latency_us=2 * US_PER_SECOND,
                jitter_us=US_PER_SECOND,
                timeout_probability=0.05,
            ),
        )
        return cls(
            seed=seed,
            outages=outages,
            flaky=flaky,
            slow_hosts=slow_hosts,
            disconnects=tuple(sorted(disconnects, key=lambda d: d.start_us)),
        )


@dataclass
class FaultStats:
    """What the injector actually did — reported next to the datasets."""

    injected_by_kind: Counter = field(default_factory=Counter)  # outage/flaky/timeout
    injected_by_status: Counter = field(default_factory=Counter)
    injected_by_target: Counter = field(default_factory=Counter)
    injected_latency_us: int = 0
    calls_seen: int = 0

    def total_injected(self) -> int:
        return sum(self.injected_by_kind.values())


class FaultInjector:
    """Draws faults from a plan with one seeded stream *per call*.

    Each dispatch draws from an RNG keyed by ``(plan seed, target,
    method, virtual time, occurrence)`` — never by global call order —
    so a crash/resume chain that skips already-completed work cannot
    shift later draws (the same stateless design as
    :class:`AdversarialPlan`).  That is what keeps the observability
    artefacts byte-identical between a resumed and an uninterrupted
    faulted run.
    """

    def __init__(self, plan: FaultPlan):
        self.plan = plan
        self.stats = FaultStats()
        self._draws: Counter = Counter()

    def _call_rng(self, target: str, method: str, now_us: int) -> random.Random:
        key = (target, method, now_us)
        nth = self._draws[key]
        self._draws[key] = nth + 1
        return random.Random(
            "fault:%d:%s:%s:%d:%d" % (self.plan.seed, target, method, now_us, nth)
        )

    # -- checkpoint support --------------------------------------------------

    def state(self) -> dict:
        """Snapshot for the study checkpoint journal.

        Stats and draw-occurrence counters only mutate inside deferred-
        save action boundaries, so a boundary snapshot plus an exact
        replay of the redone action reproduces them — the resumed run's
        fault accounting equals an uninterrupted run's.
        """
        return {"stats": self.stats, "draws": Counter(self._draws)}

    def adopt_state(self, state: dict) -> None:
        self.stats = state["stats"]
        self._draws = Counter(state["draws"])

    # -- XRPC path (ServiceDirectory.before dispatch) ------------------------

    def before_call(self, url: str, method: str, now_us: int) -> int:
        """Fault gate for one dispatched call.

        Raises :class:`XrpcError` when the call fails; otherwise returns
        the injected latency in microseconds (0 when the host is healthy).
        """
        self.stats.calls_seen += 1
        rng = self._call_rng(url, method, now_us)
        for outage in self.plan.outages:
            if outage.applies(url, now_us):
                self._count("outage", outage.status, url)
                raise XrpcError(
                    outage.status,
                    "injected outage: %s unreachable (%s)" % (url, method),
                    injected=True,
                    reason=REASON_INJECTED_OUTAGE,
                )
        latency = 0
        for slow in self.plan.slow_hosts:
            if not _url_matches(slow.url, url):
                continue
            drawn = slow.base_latency_us
            if slow.jitter_us:
                drawn += int(rng.random() * slow.jitter_us)
            if slow.timeout_probability and rng.random() < slow.timeout_probability:
                self.stats.injected_latency_us += slow.timeout_us
                self._count("timeout", 408, url)
                raise XrpcError(
                    408,
                    "injected timeout: %s took too long (%s)" % (url, method),
                    injected=True,
                    reason=REASON_INJECTED_TIMEOUT,
                    latency_us=slow.timeout_us,
                )
            latency += min(drawn, slow.timeout_us)
        for rule in self.plan.flaky:
            if rule.probability and rule.applies(url, now_us):
                if rng.random() < rule.probability:
                    status = rule.statuses[rng.randrange(len(rule.statuses))]
                    self._count("flaky", status, url)
                    if latency:
                        # Slow-host latency already accrued before the flaky
                        # error hit; the failed attempt still paid for it.
                        self.stats.injected_latency_us += latency
                    raise XrpcError(
                        status,
                        "injected transient %d from %s (%s)" % (status, url, method),
                        injected=True,
                        reason=REASON_INJECTED_FLAKY,
                        latency_us=latency,
                    )
        self.stats.injected_latency_us += latency
        return latency

    # -- non-XRPC probes (resolver, DNS, WHOIS) ------------------------------

    def raise_transient(self, target: str, now_us: int) -> None:
        """Fault gate for probes that bypass the service directory.

        ``target`` is one of the ``TARGET_*`` pseudo-URLs; a matching
        flaky rule may raise a transient :class:`XrpcError`.
        """
        rng = self._call_rng(target, "probe", now_us)
        for rule in self.plan.flaky:
            if rule.probability and rule.applies(target, now_us):
                if rng.random() < rule.probability:
                    status = rule.statuses[rng.randrange(len(rule.statuses))]
                    self._count("flaky", status, target)
                    raise XrpcError(
                        status,
                        "injected transient %d from %s" % (status, target),
                        injected=True,
                        reason=REASON_INJECTED_FLAKY,
                    )

    def _count(self, kind: str, status: int, target: str) -> None:
        self.stats.injected_by_kind[kind] += 1
        self.stats.injected_by_status[status] += 1
        self.stats.injected_by_target[target] += 1


# ---------------------------------------------------------------------------
# Adversarial (Byzantine) data corruption
# ---------------------------------------------------------------------------

#: Corruption modes an :class:`AdversarialPlan` can assign to a host.
CORRUPT_CAR_BITFLIP = "car-bitflip"  # random byte flipped in a repo CAR
CORRUPT_CAR_DIGEST = "car-digest-mismatch"  # block body != claimed CID digest
CORRUPT_COMMIT_KEY = "commit-wrong-key"  # commit re-signed with the wrong key
CORRUPT_FRAME = "frame-garbage"  # truncated/garbage firehose frame
CORRUPT_DIDDOC_PDS = "diddoc-wrong-pds"  # DID document claims the wrong PDS
CORRUPT_HANDLE = "handle-mismatch"  # DNS TXT / well-known answers a wrong DID

#: The modes that tamper with ``getRepo`` CAR responses.
CAR_CORRUPTION_KINDS = (CORRUPT_CAR_BITFLIP, CORRUPT_CAR_DIGEST, CORRUPT_COMMIT_KEY)

ALL_CORRUPTION_KINDS = CAR_CORRUPTION_KINDS + (
    CORRUPT_FRAME,
    CORRUPT_DIDDOC_PDS,
    CORRUPT_HANDLE,
)


def _target_matches(pattern: str, target: str) -> bool:
    """URL-prefix or domain-suffix match (handles are matched by domain)."""
    if pattern == "*":
        return True
    pattern = pattern.rstrip("/").lower()
    target = target.rstrip("/").lower()
    return target == pattern or target.startswith(pattern) or target.endswith("." + pattern)


@dataclass(frozen=True)
class CorruptionRule:
    """One poisoned host: which data it serves corrupted, and how often.

    ``host`` is a URL prefix (PDS / relay endpoints) or a bare domain
    (matched as a suffix, for handle rules).  ``param`` carries
    mode-specific data: the decoy endpoint for ``diddoc-wrong-pds``, the
    forged DID for ``handle-mismatch``.
    """

    host: str
    kind: str
    probability: float = 1.0
    param: Optional[str] = None

    def __post_init__(self):
        if self.kind not in ALL_CORRUPTION_KINDS:
            raise ValueError("unknown corruption kind %r" % self.kind)


@dataclass(frozen=True)
class AdversarialPlan:
    """A seeded, immutable description of Byzantine hosts.

    Unlike :class:`FaultPlan` (which models *transient* unreliability),
    an adversarial plan makes chosen hosts serve data that is well-formed
    enough to reach the collectors but fails self-certification: blocks
    whose bytes do not hash to their CID, commits signed with the wrong
    key, garbage firehose frames, DID documents pointing at the wrong
    PDS, and handle-verification answers naming a DID the handle does
    not own.  Every draw is stateless (seeded per item), so the same plan
    corrupts exactly the same items in every run — and in a resumed one.
    """

    seed: int = 0
    rules: tuple[CorruptionRule, ...] = ()

    def is_empty(self) -> bool:
        return not self.rules

    @classmethod
    def poison(
        cls,
        seed: int,
        pds_hosts: tuple[str, ...] = (),
        relay_url: Optional[str] = None,
        handle_domains: tuple[str, ...] = (),
        decoy_pds: Optional[str] = None,
        frame_probability: float = 0.02,
    ) -> "AdversarialPlan":
        """A standard plan spreading every corruption mode across hosts.

        Each poisoned PDS serves one CAR-corruption mode (cycled) for all
        repos it hosts, plus wrong-PDS DID documents when ``decoy_pds``
        names the endpoint the tampered documents should claim.  The
        relay (when given) garbles a share of live firehose frames, and
        each handle domain answers ownership probes with a forged DID.
        """
        rules: list[CorruptionRule] = []
        for index, host in enumerate(pds_hosts):
            kind = CAR_CORRUPTION_KINDS[index % len(CAR_CORRUPTION_KINDS)]
            rules.append(CorruptionRule(host=host, kind=kind))
            if decoy_pds is not None and decoy_pds != host:
                rules.append(
                    CorruptionRule(host=host, kind=CORRUPT_DIDDOC_PDS, param=decoy_pds)
                )
        if relay_url is not None:
            rules.append(
                CorruptionRule(
                    host=relay_url, kind=CORRUPT_FRAME, probability=frame_probability
                )
            )
        for domain in handle_domains:
            rules.append(CorruptionRule(host=domain, kind=CORRUPT_HANDLE))
        return cls(seed=seed, rules=tuple(rules))


@dataclass
class AdversaryStats:
    """What the adversary actually tampered with during a run."""

    tampered: Counter = field(default_factory=Counter)  # (host, kind) -> count

    def total(self) -> int:
        return sum(self.tampered.values())

    def by_kind(self) -> Counter:
        out: Counter = Counter()
        for (_, kind), count in self.tampered.items():
            out[kind] += count
        return out


class Adversary:
    """Runtime that applies an :class:`AdversarialPlan` to served data.

    ``host_of`` maps a DID to the URL of its *hosting* PDS, so data
    served through the relay cache is still corrupted — and attributed —
    per origin host, the way a misbehaving federated PDS poisons
    everything downstream of it.  All draws are stateless functions of
    ``(plan seed, kind, item)``: deterministic across runs, processes,
    and checkpoint/resume boundaries.
    """

    def __init__(self, plan: AdversarialPlan, host_of=None):
        self.plan = plan
        self.host_of = host_of
        self.stats = AdversaryStats()
        from repro.atproto.keys import make_keypair

        self._wrong_keypair = make_keypair(b"adversary-wrong-key:%d" % plan.seed)

    # -- rule / rng plumbing -------------------------------------------------

    def _rng(self, kind: str, item: str) -> random.Random:
        return random.Random("adv:%d:%s:%s" % (self.plan.seed, kind, item))

    def _rule_for(self, kind: str, host: str, item: str) -> Optional[CorruptionRule]:
        for rule in self.plan.rules:
            if rule.kind != kind or not _target_matches(rule.host, host):
                continue
            if rule.probability >= 1.0 or self._rng(kind, item).random() < rule.probability:
                return rule
        return None

    def origin_host(self, did: str, default: str) -> str:
        if self.host_of is not None:
            host = self.host_of(did)
            if host:
                return host
        return default

    def _count(self, host: str, kind: str) -> None:
        self.stats.tampered[(host, kind)] += 1

    # -- XRPC hook (ServiceDirectory, after dispatch) ------------------------

    def after_call(self, url: str, method: str, params: dict, result):
        """Tamper with a successful XRPC result on its way back."""
        if method.endswith("sync.getRepo") and isinstance(result, (bytes, bytearray)):
            did = str(params.get("did", ""))
            return self.corrupt_car(bytes(result), self.origin_host(did, url), did)
        return result

    # -- corruption modes ----------------------------------------------------

    def corrupt_car(self, car: bytes, host: str, did: str) -> bytes:
        """Apply whichever CAR-corruption rule covers this repo's host."""
        for kind in CAR_CORRUPTION_KINDS:
            rule = self._rule_for(kind, host, did)
            if rule is None:
                continue
            if kind == CORRUPT_CAR_BITFLIP:
                car = self._bitflip(car, did)
            elif kind == CORRUPT_CAR_DIGEST:
                car = self._mismatch_digest(car, did)
            else:
                car = self._resign_commit(car)
            self._count(host, kind)
            return car
        return car

    def _bitflip(self, car: bytes, did: str) -> bytes:
        rng = self._rng("bitflip-pos", did)
        # Flip a bit past the header so the damage lands in a block
        # (position and bit are a stateless function of the DID).
        lo = min(len(car) - 1, 64)
        pos = lo + rng.randrange(max(1, len(car) - lo))
        flipped = bytearray(car)
        flipped[pos] ^= 1 << rng.randrange(8)
        return bytes(flipped)

    def _mismatch_digest(self, car: bytes, did: str) -> bytes:
        """Alter one block's payload while keeping its claimed CID."""
        from repro.atproto.car import read_car, write_car

        try:
            roots, blocks = read_car(car, verify_digests=False)
        except ValueError:
            return car
        items = list(blocks.items())
        if len(items) < 2:
            return car
        rng = self._rng("digest-pos", did)
        index = 1 + rng.randrange(len(items) - 1)  # never the root commit
        cid, body = items[index]
        tampered = bytearray(body if body else b"\x00")
        tampered[rng.randrange(len(tampered))] ^= 0xFF
        items[index] = (cid, bytes(tampered))
        return write_car(roots[0], items)

    def _resign_commit(self, car: bytes) -> bytes:
        """Re-sign the root commit with the adversary's key.

        The result is fully self-consistent (every digest matches, the
        MST is intact) — only the signature check against the DID
        document's published key can catch it.
        """
        from repro.atproto.car import read_car, write_car
        from repro.atproto.cbor import cbor_decode, cbor_encode
        from repro.atproto.cid import cid_for_dag_cbor_bytes

        try:
            roots, blocks = read_car(car, verify_digests=False)
            commit = cbor_decode(blocks[roots[0]])
        except (ValueError, KeyError, IndexError):
            return car
        if not isinstance(commit, dict):
            return car
        unsigned = {k: v for k, v in commit.items() if k != "sig"}
        unsigned["sig"] = self._wrong_keypair.sign(cbor_encode(unsigned))
        block = cbor_encode(unsigned)
        new_root = cid_for_dag_cbor_bytes(block)
        rest = [(cid, body) for cid, body in blocks.items() if cid != roots[0]]
        return write_car(new_root, [(new_root, block)] + rest)

    def corrupt_frame(self, seq: int, host: str) -> Optional[bytes]:
        """Garbage bytes replacing a live firehose frame, or None."""
        rule = self._rule_for(CORRUPT_FRAME, host, "seq:%d" % seq)
        if rule is None:
            return None
        rng = self._rng("frame-bytes", "seq:%d" % seq)
        # Lead with a CBOR break byte so the frame can never decode, then
        # a short run of noise (a torn/truncated frame on the wire).
        garbage = b"\xff" + bytes(rng.randrange(256) for _ in range(rng.randrange(0, 24)))
        self._count(host, CORRUPT_FRAME)
        return garbage

    def tamper_diddoc(self, did: str, doc):
        """Return a copy of ``doc`` claiming the wrong PDS, or ``doc``."""
        if doc is None:
            return None
        host = self.origin_host(did, "")
        rule = self._rule_for(CORRUPT_DIDDOC_PDS, host, did)
        if rule is None:
            return doc
        from repro.identity.did import PDS_SERVICE_ID, DidDocument, ServiceEndpoint

        decoy = rule.param or "https://pds.invalid"
        tampered = DidDocument(
            did=doc.did,
            handle=doc.handle,
            signing_key=doc.signing_key,
            rotation_keys=doc.rotation_keys,
            services=list(doc.services),
        )
        tampered.set_service(
            ServiceEndpoint(PDS_SERVICE_ID, "AtprotoPersonalDataServer", decoy)
        )
        self._count(host, CORRUPT_DIDDOC_PDS)
        return tampered

    def forge_handle_answer(self, handle: str) -> Optional[str]:
        """A forged DID for a poisoned handle domain, or None."""
        rule = self._rule_for(CORRUPT_HANDLE, handle, handle)
        if rule is None:
            return None
        self._count(rule.host, CORRUPT_HANDLE)
        if rule.param:
            return rule.param
        rng = self._rng("forged-did", handle)
        return "did:plc:" + "".join(
            rng.choice("abcdefghijklmnopqrstuvwxyz234567") for _ in range(24)
        )


# ---------------------------------------------------------------------------
# Crash injection (process death mid-study)
# ---------------------------------------------------------------------------


class StudyCrashed(RuntimeError):
    """The study was killed at a seeded crash point.

    The checkpoint journal (when enabled) holds the last saved state; a
    rerun with ``resume=True`` continues from it.
    """

    def __init__(self, tick: int, label: str):
        super().__init__("study crashed at tick %d (%s)" % (tick, label))
        self.tick = tick
        self.label = label


@dataclass(frozen=True)
class CrashPlan:
    """Kill the study when the progress-tick counter hits a listed point.

    Ticks count *this process's* collection progress (scheduled actions,
    firehose ingests, per-repo and per-probe steps), so a resumed run
    gets a fresh counter — crash points compose across a chain of
    crash/resume cycles instead of re-firing at the same spot forever.
    """

    points: tuple[int, ...] = ()

    def should_crash(self, tick: int) -> bool:
        return tick in self.points

    @classmethod
    def seeded(cls, seed: int, n_points: int = 1, lo: int = 50, hi: int = 2000) -> "CrashPlan":
        rng = random.Random(seed ^ 0xC4A5)
        return cls(points=tuple(sorted(rng.randrange(lo, hi) for _ in range(n_points))))


# ---------------------------------------------------------------------------
# Retry / backoff policy shared by every collector
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential backoff with deterministic jitter, in virtual time."""

    max_attempts: int = 5
    base_backoff_us: int = US_PER_SECOND  # first retry waits ~1s
    multiplier: float = 2.0
    max_backoff_us: int = 2 * US_PER_MINUTE
    jitter: float = 0.25  # fraction of the backoff added as jitter

    def is_retryable(self, status: int) -> bool:
        return status in TRANSIENT_STATUSES

    def backoff_us(self, attempt: int, rng: Optional[random.Random] = None) -> int:
        """Wait before retry number ``attempt`` (1-based)."""
        base = self.base_backoff_us * self.multiplier ** (attempt - 1)
        base = min(base, self.max_backoff_us)
        if rng is not None and self.jitter:
            base += base * self.jitter * rng.random()
        return int(base)


#: The default policy collectors share; a fault-free run never consults it.
DEFAULT_RETRY_POLICY = RetryPolicy()


def retry_jitter_rng(tag: str, now_us: int, extra: str = "") -> random.Random:
    """A replay-stable RNG for retry backoff jitter.

    Keyed by call identity (collector tag, virtual time, optional item)
    instead of process-lifetime draw order, so a checkpoint-resumed run
    that skips completed actions draws the same jitter for the work it
    redoes — the clocks (and with them the deterministic event stream)
    stay byte-identical to an uninterrupted run.
    """
    return random.Random("retry:%s:%d:%s" % (tag, now_us, extra))


def call_with_retries(
    services,
    url: str,
    method: str,
    *,
    now_us: int,
    policy: RetryPolicy = DEFAULT_RETRY_POLICY,
    rng: Optional[random.Random] = None,
    counters: Optional[Counter] = None,
    params: Optional[dict] = None,
    **kwargs,
):
    """Dispatch an XRPC call, retrying transient failures with backoff.

    Returns ``(result, now_us)`` where ``now_us`` includes injected
    latency and all backoff waits (virtual time — callers decide whether
    to sleep or just account for it).  Non-retryable errors and retryable
    errors that exhaust the policy re-raise the final :class:`XrpcError`.
    ``counters`` (when given) accumulates ``attempts`` and ``retries``.
    XRPC parameters go in ``**kwargs``, or — when a name collides with
    this function's own keywords (``now_us`` et al.) — in ``params``.
    """
    call_params = dict(params) if params else {}
    call_params.update(kwargs)
    attempt = 0
    while True:
        attempt += 1
        if counters is not None:
            counters["attempts"] += 1
        services.now_us = now_us
        try:
            result = services.call(url, method, **call_params)
        except XrpcError as exc:
            # Even a failed attempt can consume virtual time (an injected
            # timeout burns its full budget before erroring); account for
            # it so the backoff clock matches what the crawler lived.
            now_us += getattr(services, "last_call_latency_us", 0)
            if not policy.is_retryable(exc.status) or attempt >= policy.max_attempts:
                raise
            if counters is not None:
                counters["retries"] += 1
            now_us += policy.backoff_us(attempt, rng)
            continue
        return result, now_us + services.last_call_latency_us
