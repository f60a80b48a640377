"""Unit tests for the scenario catalog."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.experiments import (
    EPSILON,
    OMEGA_MIN,
    MultiTenantScenario,
    Scenario,
    fig1_dataflow,
    make_performance,
    make_profile,
    run_policy,
    scaled_dataflow,
    standard_spec,
)
from repro.cloud import ConstantPerformance, TraceReplayPerformance
from repro.workloads import ConstantRate, PeriodicWave, RandomWalkRate


class TestFig1Dataflow:
    def test_structure(self):
        df = fig1_dataflow()
        assert df.inputs == ("E1",)
        assert df.outputs == ("E4",)
        assert len(df["E2"]) == 2 and len(df["E3"]) == 2

    def test_calibrated_demand_gap(self):
        """Max-value vs cheap selections differ by ~15% in per-message
        demand — the paper's headline dynamism saving."""
        df = fig1_dataflow()
        rates = {"E1": 1.0}

        def demand(selection):
            flows = df.ideal_rates(selection, rates)
            return sum(
                flows[n][0] * df.active_alternate(selection, n).cost
                for n in df.pe_names
            )

        gap = demand(df.default_selection()) / demand(df.cheapest_selection())
        assert gap == pytest.approx(1.175, abs=0.03)


class TestScaledDataflow:
    def test_sizes(self):
        df = scaled_dataflow(stages=3, alternates=4)
        assert len(df) == 1 + 3 * 3
        total_alts = sum(len(p) for p in df.pes)
        assert total_alts >= 24  # "10's of alternates"

    def test_single_output(self):
        df = scaled_dataflow(stages=2)
        assert len(df.outputs) == 1

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            scaled_dataflow(stages=0)
        with pytest.raises(ValueError):
            scaled_dataflow(alternates=0)


class TestStandardSpec:
    def test_paper_constants(self):
        spec = standard_spec(5.0)
        assert spec.omega_min == OMEGA_MIN == 0.7
        assert spec.epsilon == EPSILON == 0.05

    def test_sigma_scales_inversely_with_rate(self):
        # Higher rate → larger acceptable cost → smaller σ.
        assert standard_spec(50.0).sigma < standard_spec(2.0).sigma

    def test_invalid_rate(self):
        with pytest.raises(ValueError):
            standard_spec(0.0)


class TestFactories:
    def test_profiles(self):
        assert isinstance(make_profile("constant", 5.0), ConstantRate)
        assert isinstance(make_profile("wave", 5.0), PeriodicWave)
        assert isinstance(make_profile("walk", 5.0), RandomWalkRate)
        with pytest.raises(ValueError):
            make_profile("square", 5.0)

    def test_performance_modes(self):
        assert isinstance(make_performance("none"), ConstantPerformance)
        assert isinstance(make_performance("data"), ConstantPerformance)
        assert isinstance(make_performance("infra"), TraceReplayPerformance)
        assert isinstance(make_performance("both"), TraceReplayPerformance)


class TestScenario:
    def test_data_variability_forces_nonconstant_profile(self):
        sc = Scenario(rate=5.0, variability="data")
        assert sc.rate_kind == "wave"

    def test_fresh_provider_each_call(self):
        sc = Scenario(rate=5.0)
        assert sc.provider() is not sc.provider()

    def test_profiles_cover_inputs(self):
        sc = Scenario(rate=5.0)
        assert set(sc.profiles()) == set(sc.dataflow.inputs)

    def test_invalid_rate(self):
        with pytest.raises(ValueError):
            Scenario(rate=0.0)

    @pytest.mark.parametrize("rate", [math.nan, math.inf, -math.inf])
    def test_non_finite_rate_rejected(self, rate):
        with pytest.raises(ValueError, match="finite"):
            Scenario(rate=rate)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("variability", "bogus"),
            ("variability", None),
            ("rate_kind", "bogus"),
            ("rate_kind", "Wave"),
            ("seed", "x"),
            ("seed", 1.5),
            ("seed", True),
            ("seed", None),
        ],
    )
    def test_bad_field_rejected_at_construction(self, field, value):
        with pytest.raises((TypeError, ValueError), match=field.split("_")[-1]):
            Scenario(rate=5.0, **{field: value})

    @pytest.mark.parametrize(
        "field, value",
        [("variability", "bogus"), ("rate_kind", "bogus"), ("seed", 1.5)],
    )
    def test_fleet_rejects_bad_field_at_construction(self, field, value):
        with pytest.raises((TypeError, ValueError), match=field.split("_")[-1]):
            MultiTenantScenario(n_tenants=2, **{field: value})

    def test_integral_seeds_accepted(self):
        assert Scenario(rate=5.0, seed=np.int64(3)).seed == 3

    def test_factories_share_the_name_check(self):
        with pytest.raises(ValueError, match="variability"):
            make_performance("bogus")
        with pytest.raises(ValueError, match="rate kind"):
            make_profile("bogus", 5.0)

    def test_run_policy_end_to_end(self):
        sc = Scenario(rate=3.0, period=300.0)
        result = run_policy(sc, "static-local")
        assert len(result.timeline) == 5
        assert result.policy_name == "static-local"
