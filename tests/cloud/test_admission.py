"""Capacity pools, structured denials, and admission policies (S27)."""

from __future__ import annotations

import pytest

from repro.cloud import (
    CapacityError,
    CloudProvider,
    ProvisionDenied,
    ProvisioningError,
    aws_2013_catalog,
)
from repro.engine.tenants import (
    AdmissionPolicy,
    FairShare,
    FreeForAll,
    _water_fill,
    make_admission,
)
from repro.obs import collector


@pytest.fixture(autouse=True)
def clean_collector():
    collector.reset()
    collector.disable()
    yield
    collector.reset()
    collector.disable()


def make_provider(**kwargs):
    return CloudProvider(aws_2013_catalog(), **kwargs)


class TestCapacityDenial:
    def test_pool_exhaustion_returns_structured_denial(self):
        p = make_provider(capacity={"m1.small": 1})
        vm = p.try_provision("m1.small", now=0.0)
        assert not isinstance(vm, ProvisionDenied)
        denial = p.try_provision("m1.small", now=5.0)
        assert isinstance(denial, ProvisionDenied)
        assert denial.reason == "capacity"
        assert denial.vm_class == "m1.small"
        assert denial.tenant == 0
        assert denial.t == 5.0

    def test_denials_are_recorded_in_order(self):
        p = make_provider(capacity={"m1.small": 1})
        p.try_provision("m1.small", now=0.0)
        p.try_provision("m1.small", now=1.0)
        p.try_provision("m1.small", now=2.0, tenant=3)
        reasons = [(d.tenant, d.t) for d in p.denials()]
        assert reasons == [(0, 1.0), (3, 2.0)]

    def test_strict_provision_raises_capacity_error_with_denial(self):
        p = make_provider(capacity={"m1.large": 1})
        p.provision("m1.large", now=0.0)
        with pytest.raises(CapacityError) as exc:
            p.provision("m1.large", now=9.0)
        assert exc.value.denial.reason == "capacity"
        assert exc.value.denial.vm_class == "m1.large"
        # CapacityError stays a ProvisioningError so old handlers work.
        assert isinstance(exc.value, ProvisioningError)

    def test_other_classes_unaffected_by_one_full_pool(self):
        p = make_provider(capacity={"m1.small": 1})
        p.provision("m1.small", now=0.0)
        assert isinstance(p.try_provision("m1.small", now=1.0), ProvisionDenied)
        vm = p.try_provision("m1.medium", now=1.0)
        assert not isinstance(vm, ProvisionDenied)

    def test_terminating_frees_the_pool_slot(self):
        p = make_provider(capacity={"m1.small": 1})
        vm = p.provision("m1.small", now=0.0)
        assert isinstance(p.try_provision("m1.small", now=1.0), ProvisionDenied)
        p.terminate(vm, now=2.0)
        again = p.try_provision("m1.small", now=3.0)
        assert not isinstance(again, ProvisionDenied)

    def test_vm_denied_trace_event(self):
        p = make_provider(capacity={"m1.small": 1})
        p.provision("m1.small", now=0.0)
        collector.enable()
        p.try_provision("m1.small", now=7.0, tenant=2)
        events = [e for e in collector.events() if e.type == "vm_denied"]
        assert len(events) == 1
        e = events[0]
        assert e.tenant_id == 2
        assert e.payload["vm_class"] == "m1.small"
        assert e.payload["reason"] == "capacity"
        assert e.t == 7.0

    def test_instance_cap_still_raises_not_denies(self):
        # The runaway-scheduler cap is a caller bug, not cloud contention.
        p = make_provider(max_instances=1)
        p.provision("m1.small", now=0.0)
        with pytest.raises(ProvisioningError):
            p.try_provision("m1.small", now=1.0)
        assert p.denials() == ()

    def test_instance_cap_counts_only_active(self):
        p = make_provider(max_instances=1)
        vm = p.provision("m1.small", now=0.0)
        p.terminate(vm, now=1.0)
        # The fleet ledger keeps the stopped instance; the cap must not.
        assert len(p.all_instances()) == 1
        p.provision("m1.small", now=2.0)


class TestCanProvision:
    def test_probe_records_nothing(self):
        p = make_provider(capacity={"m1.small": 1})
        p.provision("m1.small", now=0.0)
        collector.enable()
        assert p.can_provision("m1.small", now=1.0) is False
        assert p.can_provision("m1.medium", now=1.0) is True
        assert p.denials() == ()
        assert [e for e in collector.events() if e.type == "vm_denied"] == []

    def test_probe_respects_admission_policy(self):
        p = make_provider(
            capacity={"m1.small": 2},
            admission=FairShare({0: 1.0, 1: 1.0}),
        )
        p.provision("m1.small", now=0.0, tenant=0)
        # Tenant 0 is at its 1-core share of the 2-core pool.
        assert p.can_provision("m1.small", now=1.0, tenant=0) is False
        assert p.can_provision("m1.small", now=1.0, tenant=1) is True

    def test_unknown_class_probe_is_false(self):
        p = make_provider()
        other = CloudProvider(aws_2013_catalog()[:1])
        assert p.can_provision(other.catalog[0], now=0.0) is True


class TestTenantAccounting:
    def test_cores_held_per_tenant_and_class(self):
        p = make_provider()
        p.provision("m1.xlarge", now=0.0, tenant=1)  # 4 cores
        p.provision("m1.large", now=0.0, tenant=1)  # 2 cores
        p.provision("m1.small", now=0.0, tenant=2)  # 1 core
        assert p.cores_held(1) == 6
        assert p.cores_held(1, "m1.xlarge") == 4
        assert p.cores_held(1, "m1.large") == 2
        assert p.cores_held(2) == 1
        assert p.cores_held(3) == 0

    def test_cores_held_drops_on_terminate(self):
        p = make_provider()
        vm = p.provision("m1.large", now=0.0, tenant=5)
        assert p.cores_held(5) == 2
        p.terminate(vm, now=1.0)
        assert p.cores_held(5) == 0
        assert p.cores_held(5, "m1.large") == 0

    def test_class_capacity_lookup(self):
        p = make_provider(capacity={"m1.small": 3})
        assert p.class_capacity("m1.small") == 3
        assert p.class_capacity("m1.large") is None

    def test_tenant_ids_and_views(self):
        p = make_provider()
        assert p.tenant_ids() == [0]
        view = p.tenant_view(4)
        assert p.tenant_ids() == [0, 4]
        assert view.tenant_id == 4
        assert view.catalog == p.catalog

    def test_tenant_instance_ids_prefixed_trace_keys_not(self):
        p = make_provider()
        vm0 = p.provision("m1.small", now=0.0, tenant=0)
        vm3 = p.provision("m1.small", now=0.0, tenant=3)
        assert vm0.instance_id == "m1.small-0"
        assert vm3.instance_id == "t3/m1.small-0"
        # Unprefixed trace keys are the bedrock of the shared-kernel vs
        # isolated-run bit-identity oracle: each tenant's VMs replay the
        # variability streams of its isolated run.
        assert vm0.trace_key == vm3.trace_key == "m1.small-0"

    def test_per_tenant_billing_meters_are_distinct(self):
        p = make_provider()
        p.provision("m1.small", now=0.0, tenant=0)  # $0.06/h
        p.provision("m1.large", now=0.0, tenant=1)  # $0.24/h
        assert p.tenant_billing(0).cost_at(10.0) == pytest.approx(0.06)
        assert p.tenant_billing(1).cost_at(10.0) == pytest.approx(0.24)
        assert p.cost_at(10.0) == pytest.approx(0.30)

    def test_tenant_view_scopes_fleet_and_cost(self):
        p = make_provider()
        v1, v2 = p.tenant_view(1), p.tenant_view(2)
        a = v1.provision("m1.small", now=0.0)
        b = v2.provision("m1.large", now=0.0)
        assert [r.instance_id for r in v1.all_instances()] == [a.instance_id]
        assert [r.instance_id for r in v2.all_instances()] == [b.instance_id]
        assert v1.cost_at(10.0) == pytest.approx(0.06)
        assert v2.cost_at(10.0) == pytest.approx(0.24)

    def test_tenant_view_rejects_foreign_instance(self):
        p = make_provider()
        v1, v2 = p.tenant_view(1), p.tenant_view(2)
        vm = v1.provision("m1.small", now=0.0)
        with pytest.raises(ProvisioningError):
            v2.terminate(vm, now=1.0)


class TestAdmissionPolicies:
    def test_make_admission_names(self):
        assert isinstance(make_admission("free-for-all"), FreeForAll)
        assert isinstance(make_admission("fair-share"), FairShare)

    def test_make_admission_unknown_name(self):
        with pytest.raises(ValueError, match="unknown admission policy"):
            make_admission("dictatorship")

    def test_register_rejects_nonpositive_weight(self):
        policy = AdmissionPolicy()
        with pytest.raises(ValueError):
            policy.register(0, 0.0)
        with pytest.raises(ValueError):
            FairShare({1: -2.0})

    def test_free_for_all_never_denies(self):
        p = make_provider(capacity={"m1.small": 2}, admission=FreeForAll())
        p.provision("m1.small", now=0.0, tenant=0)
        p.provision("m1.small", now=0.0, tenant=0)
        denial = p.try_provision("m1.small", now=1.0, tenant=1)
        # Only physics (the full pool) denies, never the policy.
        assert isinstance(denial, ProvisionDenied)
        assert denial.reason == "capacity"


class TestFairShare:
    def test_equal_split_of_contended_class(self):
        # Pool of 4 small VMs (4 cores), two tenants: 2 cores each.
        p = make_provider(
            capacity={"m1.small": 4}, admission=FairShare({0: 1.0, 1: 1.0})
        )
        p.provision("m1.small", now=0.0, tenant=0)
        p.provision("m1.small", now=0.0, tenant=0)
        denial = p.try_provision("m1.small", now=1.0, tenant=0)
        assert isinstance(denial, ProvisionDenied)
        assert denial.reason == "fair-share"
        # The other tenant's reserved share is still claimable.
        for _ in range(2):
            vm = p.try_provision("m1.small", now=2.0, tenant=1)
            assert not isinstance(vm, ProvisionDenied)

    def test_idle_tenant_share_stays_reserved(self):
        # Tenant 1 registered but idle: tenant 0 may not eat its half.
        p = make_provider(
            capacity={"m1.small": 2}, admission=FairShare({0: 1.0, 1: 1.0})
        )
        p.provision("m1.small", now=0.0, tenant=0)
        denial = p.try_provision("m1.small", now=1.0, tenant=0)
        assert isinstance(denial, ProvisionDenied)
        assert denial.reason == "fair-share"

    def test_weights_skew_the_split(self):
        # 3:1 weights on a 4-small pool → 3 cores vs 1 core.
        p = make_provider(
            capacity={"m1.small": 4}, admission=FairShare({0: 3.0, 1: 1.0})
        )
        for _ in range(3):
            vm = p.try_provision("m1.small", now=0.0, tenant=0)
            assert not isinstance(vm, ProvisionDenied)
        assert isinstance(
            p.try_provision("m1.small", now=1.0, tenant=0), ProvisionDenied
        )
        vm = p.try_provision("m1.small", now=1.0, tenant=1)
        assert not isinstance(vm, ProvisionDenied)

    def test_one_vm_overshoot_is_admitted(self):
        # Share is 2 cores but VMs come in 2-core units: a tenant
        # holding 0 must be admitted even though the grant lands exactly
        # at (not below) its share — denying would deadlock whenever the
        # share is smaller than one VM of the needed class.
        p = make_provider(
            capacity={"m1.large": 2}, admission=FairShare({0: 1.0, 1: 1.0})
        )
        vm = p.try_provision("m1.large", now=0.0, tenant=0)
        assert not isinstance(vm, ProvisionDenied)
        # At its share now: further growth in this class is refused.
        assert isinstance(
            p.try_provision("m1.large", now=1.0, tenant=0), ProvisionDenied
        )

    def test_uncapped_class_is_not_contended(self):
        p = make_provider(
            capacity={"m1.small": 1}, admission=FairShare({0: 1.0, 1: 1.0})
        )
        for _ in range(4):
            vm = p.try_provision("m1.xlarge", now=0.0, tenant=0)
            assert not isinstance(vm, ProvisionDenied)

    def test_contention_is_per_class(self):
        # Filling one's share of m1.small must not block m1.large.
        p = make_provider(
            capacity={"m1.small": 2, "m1.large": 2},
            admission=FairShare({0: 1.0, 1: 1.0}),
        )
        p.provision("m1.small", now=0.0, tenant=0)
        assert isinstance(
            p.try_provision("m1.small", now=1.0, tenant=0), ProvisionDenied
        )
        vm = p.try_provision("m1.large", now=1.0, tenant=0)
        assert not isinstance(vm, ProvisionDenied)

    def test_unregistered_tenant_defaults_to_weight_one(self):
        p = make_provider(capacity={"m1.small": 2}, admission=FairShare())
        p.provision("m1.small", now=0.0, tenant=0)
        p.tenant_view(1)  # tenant 1 appears; pool must now split 1:1
        assert isinstance(
            p.try_provision("m1.small", now=1.0, tenant=0), ProvisionDenied
        )


class TestFairShareCache:
    """The weight table is cached per class pool; a cached review must
    always give the verdict a fresh (uncached) policy gives."""

    def _fresh_verdict(self, policy, p, tenant, klass):
        return FairShare(policy.weights).review(p, tenant, klass, 1.0)

    def test_register_between_reviews(self):
        policy = FairShare({0: 1.0})
        p = make_provider(capacity={"m1.small": 4}, admission=policy)
        small = p.vm_class("m1.small")
        p.provision(small, now=0.0, tenant=0)
        p.provision(small, now=0.0, tenant=0)
        assert policy.review(p, 0, small, 1.0) is None
        policy.register(1, 1.0)  # the pool now splits 2 + 2
        verdict = policy.review(p, 0, small, 1.0)
        assert verdict == self._fresh_verdict(policy, p, 0, small)
        assert verdict == "fair-share"

    def test_new_tenant_between_reviews(self):
        policy = FairShare()
        p = make_provider(capacity={"m1.small": 4}, admission=policy)
        small = p.vm_class("m1.small")
        p.provision(small, now=0.0, tenant=0)
        p.provision(small, now=0.0, tenant=0)
        assert policy.review(p, 0, small, 1.0) is None
        p.tenant_view(1)  # tenant 1 appears at weight 1
        verdict = policy.review(p, 0, small, 1.0)
        assert verdict == self._fresh_verdict(policy, p, 0, small)
        assert verdict == "fair-share"

    def test_unknown_requester_does_not_leak_into_the_table(self):
        # A requester the provider has never seen counts at weight 1 in
        # its own review only, not in later reviews of other tenants.
        policy = FairShare({0: 1.0})
        p = make_provider(capacity={"m1.small": 4}, admission=policy)
        small = p.vm_class("m1.small")
        p.provision(small, now=0.0, tenant=0)
        p.provision(small, now=0.0, tenant=0)
        assert policy.review(p, 9, small, 1.0) is None
        assert policy.review(p, 0, small, 1.0) is None
        assert self._fresh_verdict(policy, p, 0, small) is None


class TestWaterFill:
    def test_satisfies_everyone_under_capacity(self):
        alloc = _water_fill({0: 1.0, 1: 2.0}, {0: 1.0, 1: 1.0}, pool=4.0)
        assert alloc == {0: 1.0, 1: 2.0}

    def test_equal_weights_split_evenly(self):
        alloc = _water_fill({0: 10.0, 1: 10.0}, {0: 1.0, 1: 1.0}, pool=4.0)
        assert alloc == {0: 2.0, 1: 2.0}

    def test_small_demand_surplus_goes_to_the_hungry(self):
        alloc = _water_fill(
            {0: 1.0, 1: 10.0, 2: 10.0}, {0: 1.0, 1: 1.0, 2: 1.0}, pool=7.0
        )
        assert alloc[0] == 1.0
        assert alloc[1] == alloc[2] == 3.0

    def test_weighted_levels(self):
        alloc = _water_fill({0: 10.0, 1: 10.0}, {0: 3.0, 1: 1.0}, pool=8.0)
        assert alloc == {0: 6.0, 1: 2.0}

    def test_allocations_never_exceed_pool(self):
        alloc = _water_fill(
            {0: 5.0, 1: 7.0, 2: 11.0}, {0: 1.0, 1: 2.0, 2: 1.0}, pool=9.0
        )
        assert sum(alloc.values()) == pytest.approx(9.0)
        assert all(alloc[t] <= d for t, d in {0: 5.0, 1: 7.0, 2: 11.0}.items())
