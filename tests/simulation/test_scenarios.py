"""Tests for extension scenarios and label signing in the world."""

import pytest

from repro.simulation.clock import date_us
from repro.simulation.config import SIM_END_US, SimulationConfig
from repro.simulation.population import build_population
from repro.simulation.world import World
from tests.conftest import live_users, official_labeler


class TestBrazilBanScenario:
    def test_timeline_extends(self):
        config = SimulationConfig.tiny()
        config.brazil_ban_scenario = True
        config.__post_init__()
        assert config.end_us > SIM_END_US

    def test_september_pt_wave(self):
        config = SimulationConfig(
            seed=9, scale=1 / 10000, brazil_ban_scenario=True
        )
        plan = build_population(config)
        pt_users = [u for u in plan.users if u.lang == "pt"]
        assert len(pt_users) > 20
        september = sum(
            1 for u in pt_users if u.signup_us >= date_us("2024-08-30")
        )
        # The ban wave dominates Portuguese signups.
        assert september / len(pt_users) > 0.6

    def test_other_languages_unaffected(self):
        config = SimulationConfig(seed=9, scale=1 / 10000, brazil_ban_scenario=True)
        plan = build_population(config)
        de_users = [u for u in plan.users if u.lang == "de"]
        if de_users:
            september = sum(1 for u in de_users if u.signup_us >= date_us("2024-08-30"))
            assert september / len(de_users) < 0.5

    def test_default_config_has_no_wave(self):
        plan = build_population(SimulationConfig(seed=9, scale=1 / 10000))
        assert all(u.signup_us < SIM_END_US for u in plan.users)

    @pytest.mark.slow
    def test_scenario_world_runs(self):
        config = SimulationConfig(
            seed=4, scale=1 / 60000, feed_scale=1 / 1200, activity_scale=0.3,
            brazil_ban_scenario=True,
        )
        world = World(config).run()
        pt_sept = [
            u
            for u in live_users(world)
            if u.spec.lang == "pt" and u.spec.signup_us >= date_us("2024-08-30")
        ]
        assert pt_sept, "the September wave must produce live pt accounts"


class TestSignedLabels:
    def test_simulation_labels_are_signed(self, study_world):
        official = official_labeler(study_world)
        labels = official.service.xrpc_subscribeLabels(cursor=0, limit=5)
        assert labels
        assert all(label.sig for label in labels)

    def test_signatures_verify_against_did_document(self, study_world):
        official = official_labeler(study_world)
        doc = study_world.plc.resolve(official.did)
        from repro.atproto.keys import public_key_from_did_key

        key = public_key_from_did_key(doc.signing_key)
        label = official.service.xrpc_subscribeLabels(cursor=0, limit=1)[0]
        assert official.service.verify_label(label, key)

    def test_collector_verified_all_signatures(self, study_datasets):
        assert study_datasets.labels.signature_failures == 0
        assert any(label.sig for label in study_datasets.labels.labels)

    def test_forged_label_rejected(self, study_world):
        from repro.atproto.keys import HmacKeypair, public_key_from_did_key
        from repro.services.labeler import Label

        official = official_labeler(study_world)
        doc = study_world.plc.resolve(official.did)
        key = public_key_from_did_key(doc.signing_key)
        forged = Label(
            seq=1, src=official.did, uri="at://x/app.bsky.feed.post/1",
            val="spam", neg=False, cts=1,
            sig=HmacKeypair.from_seed(b"attacker").sign(b"whatever"),
        )
        assert not official.service.verify_label(forged, key)
