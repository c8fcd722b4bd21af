"""The client: a user session composing PDS + AppView.

Provides the writes the examples perform (post, like, follow) and the
moderation-preference layer: which Labelers the user subscribes to and
how each label value should be actioned (ignore / warn / hide) in a
feed the user views.  Every user is force-subscribed to the
official Bluesky Labeler, whose ``!``-labels have hardcoded behaviour
(Section 6.2).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional

from repro.atproto.lexicon import FOLLOW, LIKE, POST
from repro.atproto.repo import CommitMeta
from repro.services.appview import AppView
from repro.services.pds import Pds


def iso_time(time_us: int) -> str:
    """Render simulation microseconds as an ISO-8601 UTC timestamp."""
    import datetime

    moment = datetime.datetime.fromtimestamp(time_us / 1_000_000, datetime.timezone.utc)
    return moment.strftime("%Y-%m-%dT%H:%M:%S.%f")[:-3] + "Z"


class LabelAction(enum.Enum):
    IGNORE = "ignore"
    WARN = "warn"
    HIDE = "hide"


# Hardcoded behaviours for globally defined values (cannot be overridden).
FORCED_ACTIONS = {
    "!hide": LabelAction.HIDE,
    "!takedown": LabelAction.HIDE,
    "!warn": LabelAction.WARN,
}


@dataclass
class ModerationPrefs:
    """The user's (private) moderation preferences, held by the session."""

    subscribed_labelers: set = field(default_factory=set)
    label_actions: dict = field(default_factory=dict)  # (labeler_did, val) -> LabelAction

    def action_for(self, labeler_did: str, val: str, official_did: str) -> LabelAction:
        forced = FORCED_ACTIONS.get(val)
        if forced is not None and labeler_did == official_did:
            return forced
        if labeler_did not in self.subscribed_labelers and labeler_did != official_did:
            return LabelAction.IGNORE
        return self.label_actions.get((labeler_did, val), LabelAction.IGNORE)


class Client:
    """A logged-in user session."""

    def __init__(self, did: str, pds: Pds, appview: Optional[AppView] = None):
        self.did = did
        self.pds = pds
        self.appview = appview
        self.prefs = ModerationPrefs()

    # -- writes ----------------------------------------------------------------

    def post(
        self,
        text: str,
        now_us: int,
        langs: Optional[list[str]] = None,
        reply_to: Optional[str] = None,
        embed: Optional[dict] = None,
    ) -> CommitMeta:
        record = {
            "$type": POST,
            "text": text,
            "createdAt": iso_time(now_us),
        }
        if langs:
            record["langs"] = list(langs)
        if reply_to:
            record["reply"] = {"parent": {"uri": reply_to}, "root": {"uri": reply_to}}
        if embed:
            record["embed"] = embed
        return self.pds.create_record(self.did, POST, record, now_us)

    def like(self, subject_uri: str, subject_cid: str, now_us: int) -> CommitMeta:
        record = {
            "$type": LIKE,
            "subject": {"uri": subject_uri, "cid": subject_cid},
            "createdAt": iso_time(now_us),
        }
        return self.pds.create_record(self.did, LIKE, record, now_us)

    def follow(self, subject_did: str, now_us: int) -> CommitMeta:
        record = {"$type": FOLLOW, "subject": subject_did, "createdAt": iso_time(now_us)}
        return self.pds.create_record(self.did, FOLLOW, record, now_us)

    # -- moderation preferences ------------------------------------------------------

    def subscribe_labeler(self, labeler_did: str) -> None:
        self.prefs.subscribed_labelers.add(labeler_did)

    def set_label_action(self, labeler_did: str, val: str, action: LabelAction) -> None:
        self.prefs.label_actions[(labeler_did, val)] = action

    # -- reads ------------------------------------------------------------------------

    def view_feed(self, feed_uri: str, now_us: int, limit: int = 50) -> list[dict]:
        """Fetch a feed through the AppView and apply moderation prefs."""
        if self.appview is None:
            raise RuntimeError("client has no AppView configured")
        response = self.appview.xrpc_getFeed(
            feed=feed_uri, limit=limit, viewer=self.did, now_us=now_us
        )
        return self._apply_moderation(response["feed"])

    def _apply_moderation(self, items: list[dict]) -> list[dict]:
        official = self.appview.official_labeler_did or ""
        visible = []
        for item in items:
            post = item["post"]
            action = LabelAction.IGNORE
            for label in post["labels"]:
                candidate = self.prefs.action_for(label["src"], label["val"], official)
                if candidate == LabelAction.HIDE:
                    action = candidate
                    break
                if candidate == LabelAction.WARN:
                    action = candidate
            if action == LabelAction.HIDE:
                continue
            entry = dict(post)
            entry["warning"] = action == LabelAction.WARN
            visible.append(entry)
        return visible
