"""Unit tests for the command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run", "global"])
        assert args.policy == "global"
        assert args.rate == 5.0
        assert args.variability == "none"

    def test_unknown_policy_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "mystery"])

    def test_trace_unknown_event_type_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["trace", "t.jsonl", "--type", "vm_teleported"]
            )


class TestCommands:
    def test_policies(self, capsys):
        assert main(["policies"]) == 0
        out = capsys.readouterr().out
        assert "global" in out and "static-bruteforce" in out

    def test_run(self, capsys):
        code = main(["run", "static-local", "--rate", "3", "--period", "300"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Θ=" in out and "final selection" in out

    @pytest.mark.parametrize("rate", ["nan", "inf", "0"])
    def test_run_rejects_bad_rate_without_running(self, rate):
        with pytest.raises(SystemExit, match="invalid scenario"):
            main(["run", "static-local", "--rate", rate, "--period", "300"])

    def test_run_with_timeline(self, capsys):
        code = main(
            ["run", "static-local", "--rate", "3", "--period", "300",
             "--timeline"]
        )
        assert code == 0
        assert "Ω(t)" in capsys.readouterr().out

    def test_compare(self, capsys):
        code = main(
            ["compare", "static-local", "static-global",
             "--rate", "3", "--period", "300"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "static-local" in out and "static-global" in out

    def test_figures_subset(self, capsys):
        assert main(["figures", "fig2"]) == 0
        assert "Figure 2" in capsys.readouterr().out

    def test_figures_unknown(self, capsys):
        assert main(["figures", "fig99"]) == 2
        assert "unknown" in capsys.readouterr().err


class TestTrace:
    def _record(self, tmp_path, capsys):
        """One traced run shared by the trace-command assertions."""
        out = tmp_path / "run.jsonl"
        code = main(
            ["run", "global", "--rate", "5", "--rate-kind", "wave",
             "--variability", "both", "--period", "600", "--seed", "7",
             "--trace", str(out)]
        )
        assert code == 0
        assert "trace:" in capsys.readouterr().out
        return out

    def test_run_trace_then_summarize(self, tmp_path, capsys):
        out = self._record(tmp_path, capsys)
        assert main(["trace", str(out)]) == 0
        text = capsys.readouterr().out
        assert "vm_provisioned" in text and "adaptation decisions" in text

    def test_trace_filter_and_dump(self, tmp_path, capsys):
        out = self._record(tmp_path, capsys)
        code = main(["trace", str(out), "--type", "vm_provisioned", "--dump"])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines and all('"type": "vm_provisioned"' in l for l in lines)

    def test_trace_timeline(self, tmp_path, capsys):
        out = self._record(tmp_path, capsys)
        assert main(["trace", str(out), "--timeline"]) == 0
        assert "Adaptation timeline" in capsys.readouterr().out

    def test_trace_events_table(self, tmp_path, capsys):
        out = self._record(tmp_path, capsys)
        assert main(["trace", str(out), "--events", "--limit", "5"]) == 0
        text = capsys.readouterr().out
        assert "seq" in text and "… " in text

    def test_trace_missing_file(self, tmp_path, capsys):
        assert main(["trace", str(tmp_path / "nope.jsonl")]) == 2
        assert "cannot read trace" in capsys.readouterr().err
