"""Tests for the CSV/JSON export."""

import csv
import json
import os

import pytest

from repro.core.export import export_artefacts


class TestExport:
    @pytest.fixture(scope="class")
    def exported(self, tmp_path_factory, study_datasets):
        directory = str(tmp_path_factory.mktemp("artefacts"))
        paths = export_artefacts(study_datasets, directory)
        return directory, paths

    def test_all_artefacts_written(self, exported):
        directory, paths = exported
        names = {os.path.basename(p) for p in paths}
        expected = {
            "table1_firehose_events.csv",
            "fig1_daily_activity.csv",
            "fig2_language_activity.csv",
            "fig3_handles_per_domain.csv",
            "table2_registrars.csv",
            "fig4_label_growth.csv",
            "table3_top_labelers.csv",
            "table4_label_targets.csv",
            "table6_labeler_reactions.csv",
            "fig6_value_reactions.csv",
            "fig7_feed_growth.csv",
            "fig8_description_words.csv",
            "fig9_feed_labels.csv",
            "fig10_posts_vs_likes.csv",
            "fig11_in_degree.csv",
            "fig11_out_degree.csv",
            "fig12_providers.csv",
            "table5_features.json",
            "dataset_overview.json",
        }
        assert expected <= names
        for path in paths:
            assert os.path.getsize(path) > 0

    def test_csv_parses_with_headers(self, exported):
        directory, _ = exported
        with open(os.path.join(directory, "fig1_daily_activity.csv")) as handle:
            rows = list(csv.DictReader(handle))
        assert rows
        assert set(rows[0]) == {
            "day", "active_users", "posts", "likes", "reposts", "follows", "blocks",
        }

    def test_overview_json_matches_dataset(self, exported, study_datasets):
        directory, _ = exported
        with open(os.path.join(directory, "dataset_overview.json")) as handle:
            overview = json.load(handle)
        assert overview["labelers_announced"] == 62
        assert overview["repositories"] == study_datasets.repositories.repo_count

    def test_fig12_shares_sum_to_one(self, exported):
        directory, _ = exported
        with open(os.path.join(directory, "fig12_providers.csv")) as handle:
            rows = list(csv.DictReader(handle))
        assert sum(float(r["feed_share"]) for r in rows) == pytest.approx(1.0, abs=0.01)
