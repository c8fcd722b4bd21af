"""Tests for the ``python -m repro`` command-line interface."""

import pytest

from repro.__main__ import ARTEFACTS, main


class TestCli:
    def test_single_artefact(self, capsys):
        exit_code = main(["table1", "--scale", "60000", "--feed-scale", "1200", "--quiet"])
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "Table 1" in out
        assert "Repo Commit" in out

    def test_table5_is_static(self, capsys):
        assert main(["table5"]) == 0
        out = capsys.readouterr().out
        assert "Skyfeed" in out

    def test_artefact_registry_complete(self):
        # 20 dynamic artefacts + table5 handled separately.
        assert len(ARTEFACTS) == 20
        assert "fig12" in ARTEFACTS and "table6" in ARTEFACTS
        assert "health" in ARTEFACTS
        assert "integrity" in ARTEFACTS

    def test_unknown_artefact_rejected(self):
        with pytest.raises(SystemExit):
            main(["table99"])

    def test_lint_subcommand_dispatches(self, capsys):
        # `lint` hands over to the determinism analyzer before the study
        # parser (which would reject its flags) sees the argv.
        assert main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        assert "unsorted-set-iter" in out
        assert "repro: allow(" in out
