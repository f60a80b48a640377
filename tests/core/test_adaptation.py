"""Unit tests for the runtime adaptation heuristics (Alg. 2)."""

from __future__ import annotations

import itertools
from unittest import mock

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.cloud import aws_2013_catalog, spot_variants
from repro.core import AdaptationConfig, ClusterView, RuntimeAdaptation, Snapshot, VMView
from repro.core import state as _state
from repro.experiments import fig1_dataflow


def make_cluster(catalog, allocations, coefficient=1.0, paid=1800.0):
    """One live xlarge VM per allocation dict entry list."""
    cluster = ClusterView()
    for i, alloc in enumerate(allocations):
        cluster.add(
            VMView(
                vm_class=catalog[-1],
                instance_id=f"xl-{i}",
                coefficient=coefficient,
                allocations=dict(alloc),
                paid_seconds_remaining=paid,
            )
        )
    return cluster


def make_snapshot(
    fig1,
    cluster,
    rate=5.0,
    omega_last=0.7,
    omega_average=0.7,
    selection=None,
    backlogs=None,
):
    selection = selection or {
        "E1": "e1",
        "E2": "e2.2",
        "E3": "e3.2",
        "E4": "e4",
    }
    arrivals = {
        "E1": rate,
        "E2": rate,
        "E3": rate,
        "E4": rate * 1.5,
    }
    return Snapshot(
        time=600.0,
        selection=selection,
        cluster=cluster,
        input_rates={"E1": rate},
        arrival_rates=arrivals,
        omega_last=omega_last,
        omega_average=omega_average,
        backlogs=backlogs or {n: 0.0 for n in fig1.pe_names},
        cumulative_cost=1.0,
    )


@pytest.fixture
def catalog():
    return aws_2013_catalog()


def adapter(fig1, catalog, **kwargs):
    defaults = dict(strategy="local", omega_min=0.7, epsilon=0.05)
    defaults.update(kwargs)
    return RuntimeAdaptation(fig1, catalog, AdaptationConfig(**defaults))


class TestScaleOut:
    def test_underprovisioned_gets_more_cores(self, fig1, catalog):
        # A single xlarge with 1 core per PE cannot sustain 10 msg/s.
        cluster = make_cluster(
            catalog, [{"E1": 1, "E2": 1, "E3": 1, "E4": 1}]
        )
        snap = make_snapshot(
            fig1, cluster, rate=10.0, omega_last=0.4, omega_average=0.4
        )
        plan = adapter(fig1, catalog).adapt(snap, interval_index=1)
        before = 4
        after = sum(vm.used_cores for vm in plan.cluster.vms)
        assert after > before

    def test_scale_out_prefers_free_cores(self, fig1, catalog):
        cluster = make_cluster(
            catalog, [{"E1": 1, "E2": 1, "E3": 1, "E4": 1}]
        )  # 0 free on xl-0? xlarge has 4 cores, all used.
        cluster.add(
            VMView(
                vm_class=catalog[-1],
                instance_id="xl-free",
                allocations={},
                paid_seconds_remaining=1000.0,
            )
        )
        snap = make_snapshot(
            fig1, cluster, rate=6.0, omega_last=0.5, omega_average=0.5
        )
        plan = adapter(fig1, catalog).adapt(snap, interval_index=1)
        # The already-paid free VM is used before any new one is provisioned.
        assert plan.cluster["xl-free"].used_cores > 0

    def test_local_provisions_largest_class(self, fig1, catalog):
        cluster = make_cluster(catalog, [{"E1": 2, "E2": 2}, {"E3": 2, "E4": 2}])
        snap = make_snapshot(
            fig1, cluster, rate=25.0, omega_last=0.3, omega_average=0.3
        )
        plan = adapter(fig1, catalog, strategy="local").adapt(snap, 1)
        new = [vm for vm in plan.cluster.vms if vm.is_new]
        assert new and all(vm.vm_class.name == "m1.xlarge" for vm in new)

    def test_global_provision_class_best_fits_deficit(self, fig1, catalog):
        """Global picks the cheapest class covering the remaining deficit
        (Table 1's best-fit repacking at runtime); local always takes the
        largest class."""
        cluster = make_cluster(catalog, [{"E1": 1, "E2": 3}, {"E3": 3, "E4": 1}])
        # E1 deficit at 2 msg/s: 2 × 0.5 = 1 unit needed, 2 held → covered
        # by the smallest class.
        snap = make_snapshot(
            fig1, cluster, rate=2.0, omega_last=0.6, omega_average=0.6
        )
        g = adapter(fig1, catalog, strategy="global")
        l = adapter(fig1, catalog, strategy="local")
        g_class = g._provision_class(cluster, "E1", snap, snap.selection)
        l_class = l._provision_class(cluster, "E1", snap, snap.selection)
        assert g_class.name == "m1.small"
        assert l_class.name == "m1.xlarge"

    def test_backlog_inflates_demand(self, fig1, catalog):
        cluster = make_cluster(catalog, [{"E1": 1, "E2": 2}, {"E3": 2, "E4": 2}] )
        lazy = make_snapshot(
            fig1, cluster, rate=3.0, omega_last=0.69, omega_average=0.69
        )
        backlogged = make_snapshot(
            fig1,
            cluster,
            rate=3.0,
            omega_last=0.69,
            omega_average=0.69,
            backlogs={"E2": 5000.0, "E1": 0.0, "E3": 0.0, "E4": 0.0},
        )
        a = adapter(fig1, catalog)
        cores_lazy = sum(
            vm.used_cores for vm in a.adapt(lazy, 1).cluster.vms
        )
        cores_backlog = sum(
            vm.used_cores for vm in a.adapt(backlogged, 1).cluster.vms
        )
        assert cores_backlog > cores_lazy


class TestScaleIn:
    def test_overprovisioned_releases_cores(self, fig1, catalog):
        # Far more capacity than 1 msg/s needs.
        cluster = make_cluster(
            catalog,
            [
                {"E1": 2, "E2": 2},
                {"E2": 2, "E3": 2},
                {"E3": 2, "E4": 2},
            ],
        )
        snap = make_snapshot(
            fig1, cluster, rate=1.0, omega_last=1.0, omega_average=0.95
        )
        plan = adapter(fig1, catalog).adapt(snap, 1)
        assert sum(vm.used_cores for vm in plan.cluster.vms) < 12

    def test_every_pe_keeps_one_core(self, fig1, catalog):
        cluster = make_cluster(
            catalog, [{"E1": 1, "E2": 1, "E3": 1, "E4": 1}, {"E2": 1, "E3": 1}]
        )
        snap = make_snapshot(
            fig1, cluster, rate=0.1, omega_last=1.0, omega_average=1.0
        )
        plan = adapter(fig1, catalog).adapt(snap, 1)
        for name in fig1.pe_names:
            assert plan.cluster.pe_cores(name) >= 1

    def test_within_band_no_change(self, fig1, catalog):
        cluster = make_cluster(catalog, [{"E1": 1, "E2": 2}, {"E3": 2, "E4": 2}])
        snap = make_snapshot(
            fig1, cluster, rate=3.0, omega_last=0.72, omega_average=0.72
        )
        plan = adapter(fig1, catalog).adapt(snap, 1)
        assert {
            vm.key: vm.allocations for vm in plan.cluster.vms
        } == {"xl-0": {"E1": 1, "E2": 2}, "xl-1": {"E3": 2, "E4": 2}}


class TestIdleVMRetirement:
    def idle_cluster(self, catalog, paid):
        cluster = make_cluster(
            catalog, [{"E1": 1, "E2": 2}, {"E3": 2, "E4": 2}], paid=paid
        )
        cluster.add(
            VMView(
                vm_class=catalog[0],
                instance_id="sm-idle",
                allocations={},
                paid_seconds_remaining=paid,
            )
        )
        return cluster

    def test_local_retires_idle_immediately(self, fig1, catalog):
        cluster = self.idle_cluster(catalog, paid=3000.0)
        snap = make_snapshot(fig1, cluster, rate=3.0, omega_last=0.72,
                             omega_average=0.72)
        plan = adapter(fig1, catalog, strategy="local").adapt(snap, 1)
        assert "sm-idle" not in plan.cluster

    def test_global_parks_idle_with_paid_time(self, fig1, catalog):
        cluster = self.idle_cluster(catalog, paid=3000.0)
        snap = make_snapshot(fig1, cluster, rate=3.0, omega_last=0.72,
                             omega_average=0.72)
        plan = adapter(fig1, catalog, strategy="global").adapt(snap, 1)
        assert "sm-idle" in plan.cluster

    def test_global_retires_idle_when_hour_nearly_over(self, fig1, catalog):
        cluster = self.idle_cluster(catalog, paid=30.0)
        snap = make_snapshot(fig1, cluster, rate=3.0, omega_last=0.72,
                             omega_average=0.72)
        plan = adapter(fig1, catalog, strategy="global").adapt(snap, 1)
        assert "sm-idle" not in plan.cluster


class TestAlternateStage:
    def test_underprovisioned_downgrades(self, fig1, catalog):
        """When Ω trails the target, a cheaper alternate is selected."""
        cluster = make_cluster(
            catalog, [{"E1": 1, "E2": 2}, {"E3": 2, "E4": 2}]
        )
        selection = {"E1": "e1", "E2": "e2.1", "E3": "e3.1", "E4": "e4"}
        snap = make_snapshot(
            fig1, cluster, rate=4.0, omega_last=0.5, omega_average=0.5,
            selection=selection,
        )
        plan = adapter(fig1, catalog, alternate_period=1).adapt(snap, 1)
        assert plan.selection["E2"] == "e2.2"

    def test_overprovisioned_upgrades_if_it_fits(self, fig1, catalog):
        """With slack, the value-maximizing alternate that fits wins."""
        cluster = make_cluster(
            catalog,
            [{"E2": 4}, {"E2": 4}, {"E1": 1, "E3": 2}, {"E4": 2}],
        )
        snap = make_snapshot(
            fig1, cluster, rate=3.0, omega_last=0.9, omega_average=0.9
        )
        plan = adapter(fig1, catalog, alternate_period=1).adapt(snap, 1)
        # E2 has 16 units for a 3 msg/s load: e2.1 (needs 6) fits.
        assert plan.selection["E2"] == "e2.1"

    def test_upgrade_blocked_without_slack(self, fig1, catalog):
        cluster = make_cluster(catalog, [{"E1": 1, "E2": 1, "E3": 1, "E4": 1}])
        snap = make_snapshot(
            fig1, cluster, rate=5.0, omega_last=0.9, omega_average=0.9
        )
        plan = adapter(fig1, catalog, alternate_period=1).adapt(snap, 1)
        # 2 units cannot host e2.1 at 5 msg/s (needs 10): stay put.
        assert plan.selection["E2"] == "e2.2"

    def test_within_band_keeps_selection(self, fig1, catalog):
        cluster = make_cluster(catalog, [{"E1": 1, "E2": 2}, {"E3": 2, "E4": 2}])
        snap = make_snapshot(
            fig1, cluster, rate=3.0, omega_last=0.71, omega_average=0.71
        )
        plan = adapter(fig1, catalog, alternate_period=1).adapt(snap, 1)
        assert dict(plan.selection) == dict(snap.selection)

    def test_dynamism_off_never_switches(self, fig1, catalog):
        cluster = make_cluster(catalog, [{"E1": 1, "E2": 2}, {"E3": 2, "E4": 2}])
        selection = {"E1": "e1", "E2": "e2.1", "E3": "e3.1", "E4": "e4"}
        snap = make_snapshot(
            fig1, cluster, rate=5.0, omega_last=0.4, omega_average=0.4,
            selection=selection,
        )
        plan = adapter(
            fig1, catalog, dynamism=False, alternate_period=1
        ).adapt(snap, 1)
        assert dict(plan.selection) == selection

    def test_alternate_period_gates_stage(self, fig1, catalog):
        cluster = make_cluster(catalog, [{"E1": 1, "E2": 2}, {"E3": 2, "E4": 2}])
        selection = {"E1": "e1", "E2": "e2.1", "E3": "e3.1", "E4": "e4"}
        snap = make_snapshot(
            fig1, cluster, rate=4.0, omega_last=0.5, omega_average=0.5,
            selection=selection,
        )
        a = adapter(fig1, catalog, alternate_period=2)
        # Interval 1: alternate stage skipped (1 % 2 != 0).
        assert a.adapt(snap, 1).selection["E2"] == "e2.1"
        # Interval 2: stage runs.
        assert a.adapt(snap, 2).selection["E2"] == "e2.2"


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(strategy="weird"),
            dict(omega_min=0.0),
            dict(epsilon=-0.1),
            dict(alternate_period=0),
            dict(resource_period=0),
            dict(interval=0.0),
            dict(drain_intervals=0.0),
        ],
    )
    def test_invalid_config(self, kwargs):
        with pytest.raises(ValueError):
            AdaptationConfig(**kwargs)

    def test_empty_catalog_rejected(self, fig1):
        with pytest.raises(ValueError):
            RuntimeAdaptation(fig1, [])


class TestMemoizationParity:
    """The decision fast paths (ranking/closure/demand memoization) must
    be invisible: a long-lived adapter that reuses its caches across
    calls produces exactly the plans a fresh adapter would."""

    def _plan_signature(self, plan):
        # New VMs carry process-global "planned-N" keys, so compare them
        # positionally; live VMs keep their instance ids.
        return (
            dict(plan.selection),
            [
                (
                    vm.instance_id or f"new#{i}",
                    vm.vm_class.name,
                    vm.coefficient,
                    dict(vm.allocations),
                    vm.paid_seconds_remaining,
                )
                for i, vm in enumerate(plan.cluster.vms)
            ],
        )

    @pytest.mark.parametrize("strategy", ["local", "global"])
    def test_reused_adapter_matches_fresh_adapter(
        self, fig1, catalog, strategy
    ):
        def snapshots():
            under = make_snapshot(
                fig1,
                make_cluster(catalog, [{"E1": 1, "E2": 1, "E3": 1, "E4": 1}]),
                rate=10.0, omega_last=0.4, omega_average=0.4,
            )
            steady = make_snapshot(
                fig1,
                make_cluster(catalog, [{"E1": 2, "E2": 2},
                                       {"E3": 2, "E4": 2}]),
                rate=5.0, omega_last=0.71, omega_average=0.71,
            )
            over = make_snapshot(
                fig1,
                make_cluster(catalog, [{"E1": 2, "E2": 2},
                                       {"E3": 2, "E4": 2}]),
                rate=2.0, omega_last=0.98, omega_average=0.98,
                backlogs={n: 0.0 for n in fig1.pe_names},
            )
            return [under, steady, over, under, over, steady]

        reused = adapter(fig1, catalog, strategy=strategy)
        reused_plans = [
            self._plan_signature(reused.adapt(snap, i))
            for i, snap in enumerate(snapshots())
        ]
        fresh_plans = [
            self._plan_signature(
                adapter(fig1, catalog, strategy=strategy).adapt(snap, i)
            )
            for i, snap in enumerate(snapshots())
        ]
        assert reused_plans == fresh_plans

    def test_repeated_identical_snapshot_is_stable(self, fig1, catalog):
        a = adapter(fig1, catalog)
        plans = [
            self._plan_signature(
                a.adapt(
                    make_snapshot(
                        fig1,
                        make_cluster(
                            catalog, [{"E1": 1, "E2": 1, "E3": 1, "E4": 1}]
                        ),
                        rate=10.0, omega_last=0.4, omega_average=0.4,
                    ),
                    2,
                )
            )
            for _ in range(3)
        ]
        assert plans[0] == plans[1] == plans[2]


# -- bit-identity of the incremental scale-out ------------------------------------


def _reference_scale_out(self, snapshot, cluster, selection, input_rates):
    """The scale-out loop that recomputes the whole fleet per grant.

    Capacities are rebuilt from scratch before every grant, used cores
    are re-summed, free VMs are picked as the head of a full sort and a
    PE's units are ``sum()``-ed over every VM — the straightforward form
    the incremental loop must reproduce bit for bit.
    """
    cfg = self.config
    df = self.dataflow
    required_by_pe = []
    ideal = df.ideal_rates(selection, input_rates)
    for name in df.forward_bfs_order():
        backlog = float(snapshot.backlogs.get(name, 0.0))
        drain = backlog / (cfg.drain_intervals * cfg.interval)
        required = min(
            cfg.omega_min * ideal[name][0] + drain,
            cfg.burst_factor * max(ideal[name][0], 1e-9),
        )
        if required > 1e-9:
            required_by_pe.append((name, required))
    while True:
        caps = cluster.capacities(df, selection)
        bottleneck = None
        worst = 1.0 - 1e-6
        for name, required in required_by_pe:
            ratio = caps.get(name, 0.0) / required
            if ratio < worst:
                bottleneck = name
                worst = ratio
        if bottleneck is None:
            break
        if sum(vm.used_cores for vm in cluster.vms) >= cfg.max_cores:
            break
        neighbours = set(df.successors(bottleneck)) | set(
            df.predecessors(bottleneck)
        )
        free = sorted(
            (vm for vm in cluster.vms if vm.free_cores > 0),
            key=lambda vm: (
                bottleneck not in vm.allocations,
                not any(n in vm.allocations for n in neighbours),
                -vm.core_units(),
            ),
        )
        if free:
            free[0].allocate(bottleneck, 1)
            continue
        if cfg.strategy == "local":
            klass = self.catalog[-1]
        else:
            cost = df.active_alternate(selection, bottleneck).cost
            demand = self._demand_rate(snapshot, bottleneck) * cost
            held = sum(vm.units_for(bottleneck) for vm in cluster.vms)
            deficit = max(demand - held, 0.0)
            klass = next(
                (c for c in self.catalog if c.total_capacity >= deficit - 1e-9),
                self.catalog[-1],
            )
        cluster.new_vm(klass).allocate(bottleneck, 1)


_FIG1 = fig1_dataflow()
_CATALOG = aws_2013_catalog() + spot_variants(aws_2013_catalog())
_ALTERNATES = {p.name: [a.name for a in p.alternates] for p in _FIG1.pes}


@st.composite
def _scale_out_case(draw):
    vms = []
    for i in range(draw(st.integers(0, 6))):
        klass = draw(st.sampled_from(_CATALOG))
        alloc = {}
        free = klass.cores
        for pe in _FIG1.pe_names:
            n = draw(st.integers(0, free))
            if n:
                alloc[pe] = n
                free -= n
        vms.append(
            VMView(
                vm_class=klass,
                instance_id=f"vm-{i}",
                coefficient=draw(st.sampled_from([0.4, 0.75, 1.0, 1.3])),
                allocations=alloc,
                paid_seconds_remaining=draw(st.floats(0.0, 3600.0)),
            )
        )
    rate = draw(st.floats(0.1, 40.0))
    selection = {
        pe: draw(st.sampled_from(alts)) for pe, alts in _ALTERNATES.items()
    }
    snapshot = Snapshot(
        time=600.0,
        selection=selection,
        cluster=ClusterView(vms),
        input_rates={"E1": rate},
        arrival_rates={
            pe: rate * draw(st.floats(0.0, 2.0)) for pe in _FIG1.pe_names
        },
        omega_last=0.5,
        omega_average=0.5,
        backlogs={
            pe: draw(st.sampled_from([0.0, 0.0, 50.0, 1e4]))
            for pe in _FIG1.pe_names
        },
        cumulative_cost=1.0,
    )
    config = AdaptationConfig(
        strategy=draw(st.sampled_from(["local", "global"])),
        max_cores=draw(st.integers(0, 80)),
    )
    return snapshot, config


def _fleet_signature(cluster):
    return [
        (vm.key, vm.vm_class.name, dict(vm.allocations)) for vm in cluster.vms
    ]


class TestIncrementalScaleOut:
    @settings(max_examples=200, deadline=None)
    @given(_scale_out_case())
    def test_plans_match_the_recompute_loop(self, case):
        snapshot, config = case
        a = RuntimeAdaptation(_FIG1, _CATALOG, config)
        selection = dict(snapshot.selection)
        input_rates = a._input_demand(snapshot)
        plans = []
        capacity_calls = []
        original = ClusterView.capacities

        def counting(cluster, *args, **kwargs):
            capacity_calls.append(1)
            return original(cluster, *args, **kwargs)

        for scale_out in (_reference_scale_out, None):
            cluster = snapshot.cluster.clone()
            # Planned VMs draw keys from one counter: restart it per run
            # so both plans name their new VMs alike.
            with mock.patch.object(_state, "_new_vm_ids", itertools.count()):
                if scale_out is None:
                    with mock.patch.object(
                        ClusterView, "capacities", counting
                    ):
                        a._scale_out(snapshot, cluster, selection, input_rates)
                else:
                    scale_out(a, snapshot, cluster, selection, input_rates)
            plans.append(_fleet_signature(cluster))
        assert plans[0] == plans[1]
        assert len(capacity_calls) == 1

    @pytest.mark.parametrize("strategy", ["local", "global"])
    def test_one_capacities_call_however_many_grants(self, strategy):
        cluster = make_cluster(
            aws_2013_catalog(), [{"E1": 1, "E2": 1, "E3": 1, "E4": 1}]
        )
        snap = make_snapshot(
            _FIG1, cluster, rate=30.0, omega_last=0.2, omega_average=0.2
        )
        a = RuntimeAdaptation(
            _FIG1, _CATALOG, AdaptationConfig(strategy=strategy)
        )
        calls = []
        original = ClusterView.capacities

        def counting(cluster, *args, **kwargs):
            calls.append(1)
            return original(cluster, *args, **kwargs)

        planned = cluster.clone()
        with mock.patch.object(ClusterView, "capacities", counting):
            a._scale_out(
                snap, planned, dict(snap.selection), a._input_demand(snap)
            )
        assert planned.total_used_cores() - cluster.total_used_cores() > 10
        assert len(calls) == 1
