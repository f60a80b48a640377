"""End-to-end tests for the S26 reliability + rapid-elasticity pack."""

from __future__ import annotations

import dataclasses

import pytest

from repro.engine.batch import BatchRunner
from repro.experiments import build_manager, failure_storm_scenario, run_policy
from repro.experiments.report import _reliability_section
from repro.validate import invariants


def storm(**overrides):
    scenario = failure_storm_scenario(rate=10.0, period=3600.0, seed=3)
    if overrides:
        scenario = dataclasses.replace(scenario, **overrides)
    return scenario


class TestFailureStormScenario:
    def test_spot_tier_in_catalog(self):
        scenario = storm()
        catalog = scenario.effective_catalog()
        assert any(c.spot for c in catalog)
        assert any(not c.spot for c in catalog)
        # The largest class stays on-demand: the local strategy (and the
        # hedged fallback) picks catalog[-1], which must be durable.
        assert not catalog[-1].spot

    def test_storm_actually_storms(self):
        result = run_policy(storm(), "global")
        assert result.crashes, "storm must force at least one stop"
        assert any(c.revoked for c in result.crashes)
        assert any(c.restored_messages > 0 for c in result.crashes)

    def test_recovery_metric_populated(self):
        result = run_policy(storm(), "global")
        assert len(result.recovery_times) == len(result.crashes)
        measured = [t for t in result.recovery_times if t is not None]
        assert measured, "at least one crash must have a measured recovery"
        assert all(t > 0 for t in measured)
        assert result.mean_recovery_s == pytest.approx(
            sum(measured) / len(measured)
        )

    def test_mean_recovery_none_without_crashes(self):
        calm = run_policy(storm(spot_mtbf_hours=None), "local")
        assert calm.crashes == []
        assert calm.recovery_times == []
        assert calm.mean_recovery_s is None


class TestBatchEngineRefusesReliabilityCells:
    """The SoA engine has no revocation driver or checkpoint sweep, so a
    reliability cell handed to it directly must be refused, not run
    without its failures."""

    @pytest.mark.parametrize(
        "overrides",
        [
            {},
            {"checkpoint_interval": None},
            {"spot_mtbf_hours": None},
        ],
    )
    def test_rejected(self, overrides):
        manager = build_manager(storm(period=300.0, **overrides), "global")
        with pytest.raises(ValueError, match="serially"):
            BatchRunner([manager])


class TestHedgedStorm:
    """The PR's acceptance scenario: under a deterministic failure storm
    the reliability-aware policy beats both paper heuristics on Θ at
    comparable (here: strictly lower) cost, with zero invariant
    violations."""

    def run_checked(self, policy):
        invariants.reset()
        with invariants.checking():
            return run_policy(storm(), policy)

    def test_hedged_beats_paper_heuristics(self):
        hedged = self.run_checked("hedged")
        local = self.run_checked("local")
        glob = self.run_checked("global")
        assert hedged.outcome.constraint_met
        # Hedging drains doomed VMs ahead of their forced stop: the
        # deterministic storm yields zero crashes for hedged while the
        # crash-blind global heuristic eats every revocation.
        assert len(hedged.crashes) < len(glob.crashes)
        assert hedged.outcome.theta > local.outcome.theta
        assert hedged.outcome.theta > glob.outcome.theta
        assert hedged.outcome.total_cost < local.outcome.total_cost
        assert hedged.outcome.total_cost < glob.outcome.total_cost

    def test_hedged_run_is_deterministic(self):
        a = run_policy(storm(), "hedged")
        b = run_policy(storm(), "hedged")
        assert a.outcome.theta == b.outcome.theta
        assert a.outcome.total_cost == b.outcome.total_cost
        assert [tuple(c) for c in a.crashes] == [tuple(c) for c in b.crashes]


class TestReliabilityReport:
    def test_section_lists_per_crash_rows(self):
        section = _reliability_section(fast=True)
        assert "per-crash accounting" in section
        assert "recovery (s)" in section
        assert "msgs restored" in section
        assert "forced stops" in section
