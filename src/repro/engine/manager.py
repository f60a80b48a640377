"""Run orchestration: deploy → execute → monitor → adapt (paper §5).

:class:`RunManager` wires the whole reproduction together for one
optimization period: it asks the policy for an initial plan from the
estimated rates, runs the fluid executor interval by interval, feeds
monitored snapshots to the policy's runtime adaptation, reconciles each
returned plan, and records the §6 metrics.  The result carries everything
the evaluation figures need.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, Optional, Sequence

from ..cloud.failures import FailureModel, SpotRevocationModel
from ..cloud.provider import CloudProvider
from ..core.objective import EvaluationOutcome, ObjectiveSpec
from ..core.policies import Policy
from ..dataflow.graph import DynamicDataflow
from ..dataflow.metrics import IntervalMetrics, MetricsTimeline
from ..obs import collector as _trace
from ..sim.kernel import Environment
from ..util import perf
from ..workloads.rates import RateProfile
from .executor import FluidExecutor
from .failures import CrashRecord, FailureDriver, FailureOracle
from .monitor import Monitor
from .reconcile import ReconcileReport, apply_plan

__all__ = ["RunLoop", "RunManager", "RunResult", "vm_ledger"]


@dataclass
class RunResult:
    """Everything observed during one managed run."""

    policy_name: str
    spec: ObjectiveSpec
    timeline: MetricsTimeline
    outcome: EvaluationOutcome
    #: Total VMs ever provisioned / peak simultaneously active.
    vms_provisioned: int
    vms_peak: int
    #: Number of intervals in which the fleet or selection changed.
    adaptations: int
    #: Alternate selection at the end of the run.
    final_selection: dict[str, str]
    #: Per-interval reconciliation reports (index 0 = initial deployment).
    reports: list[ReconcileReport] = field(default_factory=list)
    #: One :class:`~repro.engine.failures.CrashRecord` per injected crash.
    crashes: list[CrashRecord] = field(default_factory=list)
    #: Recovery time per crash, parallel to :attr:`crashes`: sim-seconds
    #: from the crash to the end of the first interval whose throughput
    #: clears Ω̂ again, or ``None`` if the run never recovers.
    recovery_times: list[Optional[float]] = field(default_factory=list)
    #: Billing-replayable VM lifecycle ledger, one row per instance in
    #: meter-registration order: ``[class_name, hourly_price, spot,
    #: started_at, stopped_at-or-None]`` (``None`` = still active at the
    #: end of the run).  Lets the result cache recompute μ under a
    #: different billing model without re-simulating (S29 delta index).
    vm_ledger: list = field(default_factory=list)

    @property
    def total_cost(self) -> float:
        return self.outcome.total_cost

    @property
    def theta(self) -> float:
        return self.outcome.theta

    @property
    def mean_recovery_s(self) -> Optional[float]:
        """Mean recovery time over the crashes that did recover."""
        done = [r for r in self.recovery_times if r is not None]
        return sum(done) / len(done) if done else None

    def summary(self) -> str:
        return f"[{self.policy_name}] {self.outcome}"


def vm_ledger(provider: CloudProvider) -> list[list]:
    """Extract the billing-replayable VM ledger from a finished run.

    Rows follow the billing meter's registration order so that replaying
    ``sum(model.instance_cost(row, T))`` reproduces ``cost_at(T)``
    bit-for-bit (same floats, same summation order).
    """
    meter = getattr(provider, "billing", None)
    if meter is None:
        return []
    return [
        [
            r.vm_class.name,
            r.vm_class.hourly_price,
            bool(r.vm_class.spot),
            r.started_at,
            None if r.stopped_at == float("inf") else r.stopped_at,
        ]
        for r in meter.instances
    ]


class RunManager:
    """Executes one policy over one optimization period.

    Parameters
    ----------
    dataflow:
        The dynamic dataflow application.
    profiles:
        Input rate profile per input PE.
    policy:
        A :class:`~repro.core.policies.Policy` (deployment + adaptation).
    provider:
        The cloud provider (carries the performance model; a fresh
        provider should be used per run so billing starts at zero).
    spec:
        Objective parameters (period, interval, Ω̂, ε, σ).
    tick:
        Fluid engine step in seconds.
    message_size_mb:
        Message size (paper: ~100 KB).
    estimated_rates:
        Input-rate estimates given to the initial deployment; defaults to
        each profile's ``mean_rate``.
    revocations:
        Optional spot-revocation model; forced stops for spot VMs with an
        advance ``vm_revocation_notice``.
    checkpoint_interval / restore_latency:
        Periodic PE-state checkpointing (see
        :class:`~repro.engine.executor.FluidExecutor`); ``None`` disables.
    hedge_horizon:
        Look-ahead (seconds) of the failure oracle feeding
        ``Snapshot.doomed``; defaults to two adaptation intervals.
    """

    def __init__(
        self,
        dataflow: DynamicDataflow,
        profiles: Mapping[str, RateProfile],
        policy: Policy,
        provider: CloudProvider,
        spec: ObjectiveSpec,
        tick: float = 1.0,
        message_size_mb: float = 0.1,
        estimated_rates: Optional[Mapping[str, float]] = None,
        failures: Optional[FailureModel] = None,
        monitor_noise_std: float = 0.0,
        monitor_seed: int = 0,
        revocations: Optional[SpotRevocationModel] = None,
        checkpoint_interval: Optional[float] = None,
        restore_latency: float = 0.0,
        hedge_horizon: Optional[float] = None,
    ) -> None:
        self.dataflow = dataflow
        self.profiles = dict(profiles)
        self.policy = policy
        self.provider = provider
        self.spec = spec
        self.tick = tick
        self.message_size_mb = message_size_mb
        self.estimated_rates = dict(
            estimated_rates
            if estimated_rates is not None
            else {n: p.mean_rate for n, p in self.profiles.items()}
        )
        self.failures = failures
        self.monitor_noise_std = monitor_noise_std
        self.monitor_seed = monitor_seed
        self.revocations = revocations
        self.checkpoint_interval = checkpoint_interval
        self.restore_latency = restore_latency
        if hedge_horizon is not None and hedge_horizon <= 0:
            raise ValueError("hedge_horizon must be positive")
        # The oracle must see past the *next* interval boundary, or the
        # adaptation loop learns of a doomed VM only after it stopped.
        self.hedge_horizon = (
            hedge_horizon if hedge_horizon is not None else 2.0 * spec.interval
        )

    @property
    def uses_reliability(self) -> bool:
        """True when failures, spot revocations or checkpointing are on
        (serial-engine features: their drivers are kernel processes)."""
        return (
            (self.failures is not None and self.failures.enabled)
            or (self.revocations is not None and self.revocations.enabled)
            or self.checkpoint_interval is not None
        )

    def run(self) -> RunResult:
        """Execute the full optimization period and return the results."""
        env = Environment()
        failures = (
            self.failures
            if self.failures is not None and self.failures.enabled
            else None
        )
        revocations = (
            self.revocations
            if self.revocations is not None and self.revocations.enabled
            else None
        )
        oracle: Optional[FailureOracle] = None
        if failures is not None or revocations is not None:
            oracle = FailureOracle(
                self.provider,
                model=failures,
                revocations=revocations,
                horizon=self.hedge_horizon,
            )
        loop = RunLoop(
            self,
            env,
            oracle=oracle,
            checkpoint_interval=self.checkpoint_interval,
            restore_latency=self.restore_latency,
        )
        executor = loop.executor
        if executor.macro_enabled:
            # Macro jumps must wake at every time this loop acts on the
            # run: the adaptation interval boundaries and (so cost
            # snapshots always follow a real tick) VM billing-hour edges.
            interval = float(self.spec.interval)
            executor.add_macro_boundary(
                lambda t: (math.floor(t / interval) + 1.0) * interval
            )
            provider = self.provider

            def _billing_edges(t: float) -> float:
                nxt = math.inf
                for r in provider.active_instances():
                    b = (
                        r.started_at
                        + (math.floor((t - r.started_at) / 3600.0) + 1.0)
                        * 3600.0
                    )
                    if b < nxt:
                        nxt = b
                return nxt

            executor.add_macro_boundary(_billing_edges)
        executor.start()

        failure_driver: Optional[FailureDriver] = None
        if failures is not None or revocations is not None:
            failure_driver = FailureDriver(
                env,
                self.provider,
                executor,
                failures,
                revocations=revocations,
            )
            failure_driver.start()

        for k in range(1, self.spec.n_intervals + 1):
            env.run(until=k * self.spec.interval)
            loop.boundary(k)
        return loop.result(failure_driver.crashes if failure_driver else ())


class RunLoop:
    """One managed run between its interval boundaries.

    Holds the deploy → (roll, record, snapshot, adapt, reconcile)* →
    result loop of :meth:`RunManager.run` without advancing time itself:
    whoever owns the clock (the serial kernel, or the SoA
    :class:`~repro.engine.batch.BatchRunner` stepping many cells in
    lockstep) moves ``env`` to the ``k``-th boundary and calls
    :meth:`boundary`.  Both engines therefore share one statement order
    per interval, which is what keeps their rows bit-identical.

    Construction is the run's preamble: the initial plan, the executor
    (``executor_options`` are forwarded to
    :class:`~repro.engine.executor.FluidExecutor`), the monitor and the
    first reconciliation.
    """

    def __init__(
        self,
        manager: RunManager,
        env: Environment,
        oracle: Optional[FailureOracle] = None,
        **executor_options,
    ) -> None:
        m = self.manager = manager
        self.env = env
        with perf.timer("policy.initial_plan"):
            plan = m.policy.initial_plan(m.estimated_rates)
        self.executor = FluidExecutor(
            env,
            m.dataflow,
            m.provider,
            m.profiles,
            selection=plan.selection,
            tick=m.tick,
            message_size_mb=m.message_size_mb,
            **executor_options,
        )
        self.monitor = Monitor(
            m.dataflow,
            m.provider,
            self.executor,
            noise_std=m.monitor_noise_std,
            seed=m.monitor_seed,
            oracle=oracle,
        )
        self.timeline = MetricsTimeline()
        self.selection = dict(plan.selection)
        self.omega_sum = 0.0
        self.adaptations = 0
        self._tenant_id = getattr(m.provider, "tenant_id", None)
        self.reports = [self._reconcile(plan, interval=0)]
        self.peak = len(m.provider.active_instances())

    def _reconcile(self, plan, interval: int) -> ReconcileReport:
        """Apply ``plan`` now; trace it when it changed the fleet.

        The trace names the owning tenant from a provider view, or
        defers to the collector's ambient tenant (tenant 0 for a
        single-tenant run)."""
        now = self.env.now
        report = apply_plan(self.manager.provider, self.executor, plan, now)
        if _trace.enabled() and report.changed:
            _trace.emit(
                "allocation_changed",
                t=now,
                tenant_id=self._tenant_id,
                interval=interval,
                provisioned=len(report.provisioned),
                terminated=len(report.terminated),
                cores_allocated=report.cores_allocated,
                cores_released=report.cores_released,
            )
        return report

    def boundary(self, k: int) -> None:
        """Close interval ``k`` (``env`` already at its end) and adapt."""
        m = self.manager
        env = self.env
        stats = self.executor.roll_interval()
        omega_k = stats.omega(m.dataflow.outputs)
        self.omega_sum += omega_k
        self.timeline.record(
            IntervalMetrics(
                t=stats.start,
                value=m.dataflow.application_value(self.selection),
                throughput=omega_k,
                cumulative_cost=m.provider.cost_at(env.now),
                delivered=sum(stats.delivered.values()),
                deliverable=sum(stats.deliverable.values()),
            )
        )
        if m.policy.adaptive and k < m.spec.n_intervals:
            snap = self.monitor.snapshot(
                stats, self.selection, self.omega_sum / k, env.now
            )
            with perf.timer("policy.adapt"):
                new_plan = m.policy.adapt(snap, k)
            if new_plan is not None:
                perf.add("policy.adaptations")
                report = self._reconcile(new_plan, interval=k)
                self.reports.append(report)
                if report.changed or dict(new_plan.selection) != self.selection:
                    self.adaptations += 1
                self.selection = dict(new_plan.selection)
        self.peak = max(self.peak, len(m.provider.active_instances()))

    def result(self, crashes: Sequence[CrashRecord] = ()) -> RunResult:
        """The run's :class:`RunResult` after its last boundary."""
        m = self.manager
        crashes = list(crashes)
        return RunResult(
            policy_name=m.policy.name,
            spec=m.spec,
            timeline=self.timeline,
            outcome=EvaluationOutcome.from_timeline(self.timeline, m.spec),
            vms_provisioned=len(m.provider.all_instances()),
            vms_peak=self.peak,
            adaptations=self.adaptations,
            final_selection=self.selection,
            reports=self.reports,
            crashes=crashes,
            recovery_times=self._recovery_times(crashes),
            vm_ledger=vm_ledger(m.provider),
        )

    def _recovery_times(
        self, crashes: list[CrashRecord]
    ) -> list[Optional[float]]:
        """Sim-time from each crash until throughput clears Ω̂ again.

        A crash "recovers" at the end of the first interval that finishes
        after it with Ω ≥ Ω̂; a crash the run never digests gets ``None``.
        The interval granularity is deliberate — the monitor only observes
        Ω at interval boundaries, so that is when recovery is detectable.
        """
        spec = self.manager.spec
        out: list[Optional[float]] = []
        for crash in crashes:
            recovered: Optional[float] = None
            for m in self.timeline:
                end = m.t + spec.interval
                if (
                    end > crash.t + 1e-9
                    and m.throughput >= spec.omega_min - 1e-9
                ):
                    recovered = end - crash.t
                    break
            out.append(recovered)
        return out
