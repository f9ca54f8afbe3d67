"""Command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_known_figures(self):
        args = build_parser().parse_args(["figure", "fig5"])
        assert args.name == "fig5"

    def test_unknown_figure_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figure", "fig99"])


class TestInfo:
    def test_info_output(self, capsys):
        assert main(["info", "--nodes", "512"]) == 0
        out = capsys.readouterr().out
        assert "4x4x4x4x2" in out
        assert "psets: 4" in out


class TestTransfer:
    def test_all_modes(self, capsys):
        assert main(["transfer", "--size", "4MiB"]) == 0
        out = capsys.readouterr().out
        assert "direct" in out and "proxy" in out and "pipeline" in out

    def test_direct_only_with_links(self, capsys):
        assert main(["transfer", "--mode", "direct", "--links"]) == 0
        out = capsys.readouterr().out
        assert "directed links carried traffic" in out

    def test_max_proxies_flag(self, capsys):
        assert main(
            ["transfer", "--mode", "proxy", "--max-proxies", "3", "--size", "8MiB"]
        ) == 0
        assert "proxy:3" in capsys.readouterr().out


class TestIO:
    def test_both_methods(self, capsys):
        assert main(["io", "--cores", "2048", "--pattern", "2"]) == 0
        out = capsys.readouterr().out
        assert "topology_aware" in out
        assert "collective" in out
        assert "speedup" in out

    def test_hacc_pattern(self, capsys):
        assert main(
            ["io", "--cores", "2048", "--pattern", "hacc", "--method", "topology_aware"]
        ) == 0
        assert "topology_aware" in capsys.readouterr().out


class TestAnalyze:
    def test_bounds_printed(self, capsys):
        assert main(["analyze", "--nodes", "128"]) == 0
        out = capsys.readouterr().out
        assert "edge-disjoint paths: 10" in out
        assert "Algorithm 1 found" in out


class TestFigure:
    def test_fig8_runs(self, capsys):
        assert main(["figure", "fig8"]) == 0
        assert "fig8" in capsys.readouterr().out


class TestIORead:
    def test_read_flag(self, capsys):
        assert main(
            ["io", "--cores", "2048", "--pattern", "1", "--read"]
        ) == 0
        out = capsys.readouterr().out
        assert "speedup" in out


class TestFaults:
    def test_no_faults_matches_plain_run(self, capsys):
        assert main(
            ["faults", "--size", "8MiB", "--degraded", "0"]
        ) == 0
        out = capsys.readouterr().out
        assert "known faults: 0 links" in out
        assert "fault-blind:" in out
        assert "resilient:" in out
        assert "rounds 1, retries 0" in out

    def test_random_degradation_reports_comparison(self, capsys):
        assert main(
            [
                "faults", "--size", "16MiB", "--degraded", "32",
                "--factor", "0.1", "--seed", "7",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "known faults: 32 links at 10%" in out
        assert "speedup vs fault-blind:" in out

    def test_hidden_events_flag(self, capsys):
        assert main(
            [
                "faults", "--size", "8MiB", "--degraded", "0",
                "--events", "12", "--seed", "3",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "hidden trace: 12 timed events" in out

    def test_too_many_faults_rejected(self, capsys):
        # Invalid input lands on exit code 2 with a one-line message
        # (the argparse convention), never a traceback.
        assert main(["faults", "--degraded", "10000000"]) == 2
        assert "exceeds" in capsys.readouterr().out


class TestTrace:
    @pytest.mark.timeout(120)
    @pytest.mark.parametrize("dip", ["nan", "-1"])
    def test_bad_dip_rejected(self, dip, capsys, tmp_path):
        # A NaN dip is as invalid as a negative one: exit 2, one line.
        out = tmp_path / "trace.json"
        assert main(["trace", "p2p", "--dip", dip, "--out", str(out)]) == 2
        assert "event capacity must be >= 0" in capsys.readouterr().out
        assert not out.exists()
