"""The synthetic user population.

Generates per-user specs — signup date, language, engagement, follow
attractiveness, content habits, identity choices — calibrated to
Sections 4 and 5: 98.9% of handles under ``bsky.social``, a long tail of
subdomain providers and self-managed domains, 98.7% DNS-TXT verification,
six ``did:web`` identities, registrar shares per Table 2.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Optional

from repro.simulation import vocab
from repro.simulation.clock import US_PER_DAY, date_us
from repro.simulation.config import LANGUAGES, PAPER, PUBLIC_OPENING_US, SimulationConfig

HANDLE_BSKY = "bsky.social"
IDENTITY_PLC = "plc"
IDENTITY_WEB = "web"

# Tranco-ranked organisations whose domains appear as handles (Section 5).
RANKED_ORG_DOMAINS = (
    "amazonaws.com",
    "microsoft.com",
    "cloudflare.com",
    "cnn.com",
    "nytimes.com",
    "washingtonpost.com",
    "stanford.edu",
    "columbia.edu",
)


@dataclass
class UserSpec:
    """Static attributes of one simulated user."""

    index: int
    username: str
    handle: str
    lang: str
    signup_us: int
    identity_method: str = IDENTITY_PLC
    # Behavioural rates.
    engagement: float = 1.0  # daily-activity weight
    attractiveness: float = 1.0  # follow-target weight (power law)
    follow_initial: int = 10  # follows performed shortly after signup
    # Content habits (per-post probabilities).
    media_rate: float = 0.15
    missing_alt_rate: float = 0.55
    nsfw_rate: float = 0.0
    tenor_rate: float = 0.02
    screenshot_rate: float = 0.02
    ai_tag_rate: float = 0.01
    ff14_rate: float = 0.0
    # Identity management.
    custom_domain: Optional[str] = None  # non-bsky.social handles
    registered_domain: Optional[str] = None
    verification_mechanism: str = "dns-txt"  # or "well-known"
    # Lifecycle.
    will_change_handle: bool = False
    handle_changes: int = 0
    final_handle_custom: bool = False
    will_tombstone: bool = False
    # Social role.
    is_official: bool = False
    is_newspaper: bool = False
    is_impersonator: bool = False
    is_whitewind_blogger: bool = False
    profile_description: str = ""

    @property
    def is_bsky_handle(self) -> bool:
        return self.handle.endswith("." + HANDLE_BSKY)


@dataclass
class PopulationPlan:
    """All user specs plus derived registrar/domain assignments."""

    users: list[UserSpec] = field(default_factory=list)
    # registered domain -> (registrar_name, is_cctld)
    domain_registrations: dict[str, tuple[str, bool]] = field(default_factory=dict)
    # running per-registrar counts for quota-based assignment
    registrar_counts: dict[str, int] = field(default_factory=dict)


# Registrar share targets among IANA-extractable domains (Table 2).
REGISTRAR_SHARES = (
    ("NameCheap, Inc.", 0.2094),
    ("CloudFlare, Inc.", 0.1146),
    ("Squarespace Domains", 0.1130),
    ("GoDaddy.com, LLC", 0.0719),
    ("Porkbun, LLC", 0.0685),
    ("Tucows Domains Inc.", 0.0593),
    ("GMO Internet Group", 0.0456),
)
LONG_TAIL_REGISTRAR_SHARE = 1.0 - sum(share for _, share in REGISTRAR_SHARES)
LONG_TAIL_REGISTRAR_COUNT = 242  # 249 total - 7 named


def _signup_weight_profile(day_us: int, lang: str, brazil_ban: bool = False) -> float:
    """Relative signup intensity by date and language (Figures 1 and 2)."""
    # Base curve: a tiny invite-only start ("mere hundreds" of actives in
    # December 2022), strong growth through spring 2023 reaching hundreds
    # of thousands by July, stagnation, then the public opening bump in
    # February 2024.
    if day_us < date_us("2023-03-01"):
        base = 0.01
    elif day_us < date_us("2023-07-01"):
        ramp = (day_us - date_us("2023-03-01")) / (date_us("2023-07-01") - date_us("2023-03-01"))
        base = 0.3 + 1.2 * ramp
    elif day_us < date_us("2023-08-01"):
        base = 1.8
    elif day_us < PUBLIC_OPENING_US:
        base = 0.5
    elif day_us < date_us("2024-03-01"):
        base = 3.0
    else:
        base = 0.9
    if lang == "ja" and day_us >= PUBLIC_OPENING_US:
        base *= 1.9  # Japanese community grew strongly at the public opening
    if lang == "de" and day_us >= PUBLIC_OPENING_US:
        base *= 0.45  # German community largely unaffected
    if lang == "pt":
        if brazil_ban and day_us >= date_us("2024-08-30"):
            # Footnote 6 / CNBC: after X was banned in Brazil, Bluesky
            # "attract[ed] millions in Brazil" — an order of magnitude
            # beyond the April marketing bump.
            base *= 260.0
        elif date_us("2024-04-01") <= day_us < date_us("2024-05-01"):
            base *= 30.0  # April 2024 Portuguese surge (3K → 30K actives)
        elif day_us >= date_us("2024-05-01"):
            base *= 6.0  # the grown community keeps joining post-surge
        else:
            base *= 0.06
    return base


def sample_signup_us(
    rng: random.Random, lang: str, start_us: int, end_us: int, brazil_ban: bool = False
) -> int:
    """Rejection-sample a signup time from the intensity profile."""
    max_weight = 240.0 if (brazil_ban and lang == "pt") else 30.0
    span_days = (end_us - start_us) // US_PER_DAY
    while True:
        day = rng.randrange(span_days)
        day_us = start_us + day * US_PER_DAY
        weight = min(max_weight, _signup_weight_profile(day_us, lang, brazil_ban))
        if rng.random() * max_weight <= weight:
            return day_us + rng.randrange(US_PER_DAY)


def _pick_language(rng: random.Random) -> str:
    return vocab.pick_weighted(rng, [(tag, share) for tag, share, _ in LANGUAGES])


def _assign_content_habits(rng: random.Random, user: UserSpec) -> None:
    # Rates are calibrated so window label volumes match Table 6 shares:
    # media posts missing alt text ≈ 3.5% of posts (BAATL's 72.9% share),
    # NSFW ≈ 1% (official porn/sexual/nudity ≈ 15%), tenor / screenshots /
    # AI tags each a few per mille (4.0% / 4.1% / 3.0% shares).
    user.media_rate = min(0.9, rng.gammavariate(2.0, 0.06))
    user.missing_alt_rate = rng.uniform(0.15, 0.45)
    if rng.random() < 0.008:
        user.nsfw_rate = rng.uniform(0.3, 0.95)  # dedicated NSFW accounts
    elif rng.random() < 0.04:
        user.nsfw_rate = rng.uniform(0.01, 0.08)
    user.tenor_rate = rng.uniform(0.0, 0.004)
    user.screenshot_rate = rng.uniform(0.0, 0.004)
    user.ai_tag_rate = rng.uniform(0.0, 0.003)
    if user.lang == "ja" and rng.random() < 0.04:
        user.ff14_rate = rng.uniform(0.005, 0.05)


def _assign_handle(
    rng: random.Random,
    user: UserSpec,
    plan: PopulationPlan,
    provider_pool: list[str],
    config: SimulationConfig,
) -> None:
    """Choose bsky.social vs provider subdomain vs self-managed domain."""
    roll = rng.random()
    if roll < PAPER["bsky_social_handle_share"]:
        user.handle = "%s.%s" % (user.username, HANDLE_BSKY)
        return
    # Non-default handle: split between shared providers (~10% of the
    # non-default tail, per the Figure 3 provider counts) and self-managed.
    if provider_pool and rng.random() < 0.10:
        provider = provider_pool[rng.randrange(len(provider_pool))]
        user.handle = "%s.%s" % (user.username, provider)
        user.custom_domain = provider
        user.registered_domain = provider
    elif rng.random() < PAPER["tranco_top1m_share"]:
        domain = RANKED_ORG_DOMAINS[rng.randrange(len(RANKED_ORG_DOMAINS))]
        user.handle = "%s.%s" % (user.username, domain)
        user.custom_domain = domain
        user.registered_domain = domain
        _register_domain(rng, plan, domain, is_cctld=False)
    else:
        tld, is_cctld = _pick_tld(rng)
        domain = "%s.%s" % (user.username, tld)
        if rng.random() < 0.35:
            user.handle = domain  # apex-domain handle
        else:
            user.handle = "me.%s" % domain
        user.custom_domain = domain
        user.registered_domain = domain
        _register_domain(rng, plan, domain, is_cctld)
    mech_roll = rng.random()
    user.verification_mechanism = (
        "dns-txt" if mech_roll < PAPER["dns_txt_mechanism_share"] else "well-known"
    )


def _pick_tld(rng: random.Random) -> tuple[str, bool]:
    point = rng.random() * sum(w for _, w, _ in vocab.SELF_MANAGED_TLDS)
    cumulative = 0.0
    for tld, weight, is_cctld in vocab.SELF_MANAGED_TLDS:
        cumulative += weight
        if point <= cumulative:
            return tld, is_cctld
    return "com", False


def _register_domain(
    rng: random.Random, plan: PopulationPlan, domain: str, is_cctld: bool
) -> None:
    if domain in plan.domain_registrations:
        return
    if is_cctld:
        registrar = "ccTLD Registry Partner %02d" % rng.randrange(12)
    else:
        # Quota-based assignment: pick the registrar furthest below its
        # Table 2 target share, so the shares hold even for the small
        # domain populations produced at test scales.
        # Each long-tail registrar competes with its own (tiny) share, so
        # the named Table 2 registrars fill first, in share order.
        total = sum(plan.registrar_counts.values())
        tail_share = LONG_TAIL_REGISTRAR_SHARE / LONG_TAIL_REGISTRAR_COUNT
        best_name, best_deficit = None, float("-inf")
        for name, share in REGISTRAR_SHARES:
            current = plan.registrar_counts.get(name, 0)
            deficit = share * (total + 1) - current
            if deficit > best_deficit:
                best_deficit = deficit
                best_name = name
        for index in range(LONG_TAIL_REGISTRAR_COUNT):
            name = "Registrar %03d LLC" % index
            deficit = tail_share * (total + 1) - plan.registrar_counts.get(name, 0)
            if deficit > best_deficit:
                best_deficit = deficit
                best_name = name
        registrar = best_name
        plan.registrar_counts[registrar] = plan.registrar_counts.get(registrar, 0) + 1
    plan.domain_registrations[domain] = (registrar, is_cctld)


def build_population(config: SimulationConfig) -> PopulationPlan:
    """Generate the full user population for a configuration."""
    rng = random.Random(config.seed)
    plan = PopulationPlan()
    provider_pool = [name for name, _count in vocab.SUBDOMAIN_PROVIDERS]
    for provider, _ in vocab.SUBDOMAIN_PROVIDERS:
        _register_domain(rng, plan, provider, is_cctld=False)

    n_users = config.n_users
    for index in range(n_users):
        lang = _pick_language(rng)
        username = vocab.make_username(rng, index)
        user = UserSpec(
            index=index,
            username=username,
            handle="",  # assigned below
            lang=lang,
            signup_us=sample_signup_us(
                rng, lang, config.start_us, config.end_us, config.brazil_ban_scenario
            ),
        )
        # Engagement: lognormal daily-activity weight.
        user.engagement = math.exp(rng.gauss(0.0, 1.0))
        # Attractiveness: Pareto tail for the follower distribution.
        user.attractiveness = rng.paretovariate(1.25)
        user.follow_initial = min(200, max(1, int(rng.paretovariate(1.4) * 6)))
        _assign_content_habits(rng, user)
        _assign_handle(rng, user, plan, provider_pool, config)
        # Lifecycle events.
        if rng.random() < PAPER["handle_update_unique_dids"] / PAPER["users"]:
            user.will_change_handle = True
            user.handle_changes = 1 + (rng.random() < 0.3) + (rng.random() < 0.1)
            user.final_handle_custom = rng.random() > PAPER["final_handle_bsky_share"]
        if rng.random() < 0.015:
            user.will_tombstone = True
        if rng.random() < 0.01:
            user.is_whitewind_blogger = True
        plan.users.append(user)

    # Guarantee a couple of handle-changers and WhiteWind bloggers even at
    # tiny test scales (at realistic scales the probabilistic assignment
    # dominates and these floors are already exceeded).
    if sum(1 for u in plan.users if u.will_change_handle) < 2:
        for user in rng.sample(plan.users, k=min(2, len(plan.users))):
            user.will_change_handle = True
            user.handle_changes = 1
            user.final_handle_custom = rng.random() > PAPER["final_handle_bsky_share"]
    if sum(1 for u in plan.users if u.is_whitewind_blogger) < 2:
        # Prefer long-lived, engaged accounts so the blog entries exist by
        # the time the repository snapshot is taken.
        candidates = [
            u
            for u in plan.users
            if u.signup_us < date_us("2024-01-01") and not u.will_tombstone
        ] or list(plan.users)
        candidates.sort(key=lambda u: -u.engagement)
        for user in candidates[:2]:
            user.is_whitewind_blogger = True

    # Keep the official labeler's automated pipeline exercised at any
    # scale: a couple of dedicated NSFW accounts must exist (0.8% of users
    # at full scale, but tiny worlds can roll zero).
    if sum(1 for u in plan.users if u.nsfw_rate > 0.3) < 2:
        candidates = [u for u in plan.users if not u.will_tombstone and not u.is_official]
        candidates.sort(key=lambda u: u.signup_us)
        for user in candidates[: min(2, len(candidates))]:
            user.nsfw_rate = rng.uniform(0.4, 0.9)

    # Keep the Tranco cross-reference exercised at any scale: at least one
    # handle under a top-1M organisation domain (paper: 2.8% of domains).
    if not any(u.registered_domain in RANKED_ORG_DOMAINS for u in plan.users):
        candidates = [u for u in plan.users if u.is_bsky_handle and not u.will_tombstone]
        if candidates:
            user = candidates[rng.randrange(len(candidates))]
            domain = RANKED_ORG_DOMAINS[rng.randrange(len(RANKED_ORG_DOMAINS))]
            user.handle = "%s.%s" % (user.username, domain)
            user.custom_domain = domain
            user.registered_domain = domain
            user.verification_mechanism = "dns-txt"
            _register_domain(rng, plan, domain, is_cctld=False)

    # did:web identities: a fixed, tiny absolute count (paper found six).
    web_users = [u for u in plan.users if u.custom_domain and not u.will_tombstone]
    rng.shuffle(web_users)
    for user in web_users[: min(6, len(web_users))]:
        user.identity_method = IDENTITY_WEB

    _designate_special_accounts(rng, plan, config)
    return plan


def _designate_special_accounts(
    rng: random.Random, plan: PopulationPlan, config: SimulationConfig
) -> None:
    """Official account, newspapers, and the most-blocked impersonators."""
    from repro.simulation.clock import US_PER_DAY

    users = plan.users
    if not users:
        return
    by_attr = sorted(users, key=lambda u: u.attractiveness, reverse=True)
    official = by_attr[0]
    official.is_official = True
    official.attractiveness *= 40.0  # 775K followers, far ahead of #2
    official.profile_description = "The official Bluesky account"
    # The official account exists from the platform's first days.
    official.signup_us = config.start_us + 2 * US_PER_DAY
    # Newspapers / journalists: next few most attractive accounts (200K+).
    for user in by_attr[1:6]:
        user.is_newspaper = True
        user.attractiveness *= 10.0
        user.profile_description = "newsroom account"
    # Most-blocked accounts: celebrity impersonator + propagandist.  Real
    # ones are long-lived (they accumulated ~15K blocks each); pick from
    # the earlier cohorts so blocks have time to pile up.
    cutoff = config.start_us + (config.end_us - config.start_us) // 2
    eligible = [u for u in users if not u.is_official and u.signup_us < cutoff]
    if len(eligible) < 2:
        eligible = [u for u in users if not u.is_official]
    for user in rng.sample(eligible, k=min(2, len(eligible))):
        user.is_impersonator = True
    # Special accounts persist through the study window.
    for user in users:
        if user.is_official or user.is_newspaper or user.is_impersonator:
            user.will_tombstone = False
