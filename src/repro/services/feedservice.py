"""Feed-generator-as-a-service platforms (Section 7.2, Table 5).

Most feeds are not self-hosted: three platforms (Skyfeed, Bluefeed,
Goodfeeds) host 95.8% of them, with Skyfeed alone at 85.86%.  Each
platform is a :class:`FeedGeneratorHost` plus a *feature matrix* deciding
which inputs and filters its builder UI lets users express; Skyfeed is the
only one offering regular expressions, which the paper credits for its
market share.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.services.feedgen import (
    CuratedFeed,
    FeedError,
    FeedGeneratorHost,
    FeedRule,
    RetentionPolicy,
)

# Feature identifiers used in Table 5.
INPUT_WHOLE_NETWORK = "input:whole-network"
INPUT_TAGS = "input:tags"
INPUT_SINGLE_USER = "input:single-user"
INPUT_LIST = "input:list"
INPUT_FEED = "input:feed"
INPUT_SINGLE_POST = "input:single-post"
INPUT_LABELS = "input:labels"
INPUT_TOKEN = "input:token"
INPUT_SEGMENT = "input:segment"
FILTER_ITEM = "filter:item"
FILTER_LABELS = "filter:labels"
FILTER_IMAGE_COUNT = "filter:image-count"
FILTER_LINK_COUNT = "filter:link-count"
FILTER_REPOST_COUNT = "filter:repost-count"
FILTER_EMBED = "filter:embed"
FILTER_DUPLICATE = "filter:duplicate"
FILTER_USER_LIST = "filter:list-of-users"
FILTER_LANGUAGE = "filter:language"
FILTER_REGEX_TEXT = "filter:regex-text"
FILTER_REGEX_IMAGE_ALT = "filter:regex-image-alt"
FILTER_REGEX_LINK = "filter:regex-link"
PAID_PLANS = "other:paid-plans"


@dataclass(frozen=True)
class PlatformProfile:
    """Name + feature matrix + pricing of one platform."""

    name: str
    features: frozenset
    free: bool = True
    paid: bool = False

    def supports(self, feature: str) -> bool:
        return feature in self.features


# Table 5, transcribed.
SKYFEED_PROFILE = PlatformProfile(
    "Skyfeed",
    frozenset(
        {
            INPUT_WHOLE_NETWORK,
            INPUT_TAGS,
            INPUT_SINGLE_USER,
            INPUT_LIST,
            INPUT_FEED,
            INPUT_SINGLE_POST,
            INPUT_LABELS,
            FILTER_ITEM,
            FILTER_LABELS,
            FILTER_IMAGE_COUNT,
            FILTER_LINK_COUNT,
            FILTER_REPOST_COUNT,
            FILTER_EMBED,
            FILTER_DUPLICATE,
            FILTER_USER_LIST,
            FILTER_LANGUAGE,
            FILTER_REGEX_TEXT,
            FILTER_REGEX_IMAGE_ALT,
            FILTER_REGEX_LINK,
        }
    ),
)

BLUEFEED_PROFILE = PlatformProfile(
    "Bluefeed",
    frozenset(
        {
            INPUT_WHOLE_NETWORK,
            INPUT_TAGS,
            INPUT_SINGLE_USER,
            INPUT_FEED,
            INPUT_SINGLE_POST,
            INPUT_LABELS,
            FILTER_LABELS,
        }
    ),
)

BLUESKYFEEDS_PROFILE = PlatformProfile(
    "Blueskyfeeds",
    frozenset(
        {
            INPUT_TAGS,
            INPUT_SINGLE_USER,
            INPUT_LIST,
            INPUT_SINGLE_POST,
            INPUT_TOKEN,
            INPUT_SEGMENT,
            FILTER_LABELS,
            FILTER_USER_LIST,
            FILTER_LANGUAGE,
        }
    ),
)

GOODFEEDS_PROFILE = PlatformProfile(
    "Goodfeeds",
    frozenset({INPUT_WHOLE_NETWORK, INPUT_SINGLE_USER, INPUT_LIST}),
)

BLUESKYFEEDCREATOR_PROFILE = PlatformProfile(
    "Blueskyfeedcreator",
    frozenset(
        {
            INPUT_WHOLE_NETWORK,
            INPUT_TAGS,
            INPUT_SINGLE_USER,
            INPUT_LIST,
            FILTER_ITEM,
            FILTER_LABELS,
            FILTER_USER_LIST,
            FILTER_LANGUAGE,
        }
    ),
    paid=True,
)

ALL_PROFILES = (
    SKYFEED_PROFILE,
    BLUEFEED_PROFILE,
    BLUESKYFEEDS_PROFILE,
    GOODFEEDS_PROFILE,
    BLUESKYFEEDCREATOR_PROFILE,
)


def rule_required_features(rule: FeedRule) -> set[str]:
    """Which platform features a rule needs to be expressible."""
    needed = set()
    if rule.whole_network:
        needed.add(INPUT_WHOLE_NETWORK)
    if rule.keywords:
        needed.add(INPUT_TAGS)
    if rule.authors:
        needed.add(INPUT_LIST if rule.from_list else INPUT_SINGLE_USER)
    if rule.languages:
        needed.add(FILTER_LANGUAGE)
    if rule.regex is not None:
        needed.add(FILTER_REGEX_TEXT)
    if rule.exclude_label_values:
        needed.add(FILTER_LABELS)
    if rule.require_media:
        needed.add(FILTER_IMAGE_COUNT)
    return needed


class FeedServicePlatform(FeedGeneratorHost):
    """A hosted feed-builder platform.

    Feeds created here are served from the *platform's* service DID — the
    reason one account can appear to "own" 1,799 feeds in the paper: the
    hosting association stays with the platform, not the creator.
    """

    def __init__(
        self,
        profile: PlatformProfile,
        service_did: str,
        endpoint: str,
        telemetry=None,
    ):
        super().__init__(service_did, endpoint, telemetry=telemetry)
        self.profile = profile

    def create_feed(
        self,
        creator_did: str,
        feed_uri: str,
        rule: FeedRule,
        retention: Optional[RetentionPolicy] = None,
    ) -> CuratedFeed:
        """Create a feed if the rule fits the platform's feature set."""
        missing = rule_required_features(rule) - self.profile.features
        if missing:
            raise FeedError(
                "%s does not support: %s" % (self.profile.name, ", ".join(sorted(missing)))
            )
        feed = CuratedFeed(feed_uri, rule, retention)
        self.add_feed(feed)
        return feed

def feature_matrix_table() -> dict[str, dict[str, bool]]:
    """Table 5 as data: feature → platform → supported."""
    features = sorted(set().union(*(profile.features for profile in ALL_PROFILES)))
    table: dict[str, dict[str, bool]] = {}
    for feature in features:
        table[feature] = {
            profile.name: profile.supports(feature) for profile in ALL_PROFILES
        }
    table[PAID_PLANS] = {profile.name: profile.paid for profile in ALL_PROFILES}
    return table
