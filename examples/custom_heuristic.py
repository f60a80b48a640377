#!/usr/bin/env python3
"""Extending the library: plugging in a custom scheduling policy.

The run manager accepts any object with the
:class:`repro.core.policies.Policy` interface, so new heuristics can be
compared against the paper's without touching the engine.  This example
implements a deliberately naive **overprovisioner** — it sizes the
initial fleet for twice the estimated load and never adapts — and races
it against the paper's global heuristic.

Run:
    python examples/custom_heuristic.py
"""

from __future__ import annotations

from typing import Mapping

from repro import Scenario, run_policy
from repro.core import (
    DeploymentConfig,
    DeploymentPlan,
    InitialDeployment,
    Policy,
)


class Overprovisioner:
    """Deploys for 2× the estimated rate with max-value alternates.

    A caricature of the "statically over-provision for peaks" strategy
    the paper's introduction criticizes: robust to bursts, expensive to
    run, blind to infrastructure variability.
    """

    def __init__(self, dataflow, catalog, headroom: float = 2.0) -> None:
        if headroom < 1.0:
            raise ValueError("headroom must be ≥ 1")
        self._inner = InitialDeployment(
            dataflow,
            catalog,
            DeploymentConfig(strategy="local", omega_min=1.0, dynamism=False),
        )
        self.headroom = headroom

    def plan(self, input_rates: Mapping[str, float]) -> DeploymentPlan:
        inflated = {k: v * self.headroom for k, v in input_rates.items()}
        return self._inner.plan(inflated)


def run(scenario: Scenario, policy: Policy):
    return run_policy(scenario, policy.name, policy_factory=lambda _sc: policy)


def main() -> None:
    scenario = Scenario(
        rate=8.0,
        rate_kind="wave",
        variability="both",
        seed=5,
        period=3600.0,
    )

    contenders = [
        scenario.policy("global"),
        Policy(
            name="overprovision-2x",
            deployer=Overprovisioner(scenario.dataflow, scenario.catalog),
            adapter=None,
        ),
    ]

    print(f"{'policy':>18}  {'Θ':>8}  {'Γ̄':>6}  {'Ω̄':>6}  {'cost $':>7}")
    results = {}
    for policy in contenders:
        result = run(scenario, policy)
        results[policy.name] = result
        o = result.outcome
        print(
            f"{policy.name:>18}  {o.theta:+8.4f}  {o.mean_value:6.3f}  "
            f"{o.mean_throughput:6.3f}  {o.total_cost:7.2f}"
        )

    over = results["overprovision-2x"].outcome
    glob = results["global"].outcome
    print()
    if over.constraint_met:
        extra = over.total_cost / max(glob.total_cost, 1e-9)
        print(
            f"The overprovisioner holds the SLO too — but pays "
            f"{extra:.1f}× the global heuristic's bill to do it."
        )
    else:
        print("Even 2× static headroom failed the SLO under variability.")


if __name__ == "__main__":
    main()
