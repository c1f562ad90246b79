"""Tests for the ``python -m repro`` command line."""

import pytest

from repro.__main__ import main


class TestCLI:
    def test_info(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "LC-Rec" in out
        assert "instruments" in out

    def test_stats(self, capsys):
        assert main(["stats", "tiny"]) == 0
        out = capsys.readouterr().out
        assert "tiny" in out
        assert "%" in out

    def test_stats_prints_table2(self, capsys):
        assert main(["stats", "--scale", "0.15"]) == 0
        rows = capsys.readouterr().out.splitlines()
        assert rows[0].split()[:3] == ["dataset", "#users", "#items"]
        assert [row.split()[0] for row in rows[1:]] == ["instruments", "arts", "games"]

    def test_stats_scale(self, capsys):
        assert main(["stats", "tiny", "--scale", "0.5"]) == 0

    def test_unknown_preset_rejected(self):
        with pytest.raises(SystemExit):
            main(["stats", "nope"])

    def test_command_required(self):
        with pytest.raises(SystemExit):
            main([])
