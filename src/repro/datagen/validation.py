"""Calibration validation: check a dataset against the paper's targets.

Every statistic the paper publishes that :mod:`repro.datagen` calibrates
for is encoded here as a named check with its tolerance.  Used by the test
suite and available to downstream users generating custom configurations
(different scales/seeds) to confirm the replica still matches the paper's
shape before drawing conclusions from it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.characterization import (
    lifetime_size_correlation,
    utilization_breakdown,
)
from repro.core.contention import contention_summary
from repro.core.dataset import SAPCloudDataset
from repro.core.heatmaps import free_resource_heatmap


@dataclass(frozen=True)
class CheckResult:
    """One calibration check's outcome."""

    name: str
    passed: bool
    measured: float
    expectation: str

    def __str__(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"[{status}] {self.name}: measured {self.measured:.3f} ({self.expectation})"


@dataclass(frozen=True)
class ValidationReport:
    """All calibration checks for one dataset."""

    checks: tuple[CheckResult, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def failures(self) -> list[CheckResult]:
        return [c for c in self.checks if not c.passed]

    def render(self) -> str:
        lines = [str(c) for c in self.checks]
        lines.append(
            f"{sum(c.passed for c in self.checks)}/{len(self.checks)} "
            f"calibration checks passed"
        )
        return "\n".join(lines)


def validate_dataset(dataset: SAPCloudDataset) -> ValidationReport:
    """Run every calibration check against ``dataset``."""
    checks: list[CheckResult] = []

    def check(name: str, measured: float, low: float, high: float) -> None:
        checks.append(
            CheckResult(
                name=name,
                passed=low <= measured <= high,
                measured=float(measured),
                expectation=f"expected in [{low}, {high}]",
            )
        )

    # Fig 14a: CPU overprovisioning.
    cpu = utilization_breakdown(dataset, "cpu")
    check("fig14a.cpu_underutilized_share", cpu.underutilized, 0.80, 1.0)
    check("fig14a.cpu_optimal_exceeds_over", cpu.optimal - cpu.overutilized, 0.0, 1.0)

    # Fig 14b: memory three-way split.
    mem = utilization_breakdown(dataset, "memory")
    check("fig14b.mem_underutilized_share", mem.underutilized, 0.28, 0.48)
    check("fig14b.mem_optimal_share", mem.optimal, 0.04, 0.18)
    check("fig14b.mem_overutilized_share", mem.overutilized, 0.40, 0.65)

    # Tables 1-2: size-class marginals.
    vcpus = np.asarray(dataset.vms["vcpus"], dtype=float)
    ram = np.asarray(dataset.vms["ram_gib"], dtype=float)
    check("table1.small_share", float(np.mean(vcpus <= 4)), 0.57, 0.69)
    check(
        "table1.medium_share",
        float(np.mean((vcpus > 4) & (vcpus <= 16))), 0.26, 0.38,
    )
    check("table2.medium_share", float(np.mean((ram > 2) & (ram <= 64))), 0.85, 0.96)
    xlarge_ram = float(np.mean(ram > 128))
    check("table2.xlarge_share", xlarge_ram, 0.02, 0.08)

    # Fig 9: contention profile.
    summary = contention_summary(dataset)
    check("fig9.worst_daily_mean_pct", summary.daily_mean_max, 0.0, 5.0)
    check("fig9.overall_max_pct", summary.overall_max, 40.0, 100.0)
    check(
        "fig9.share_nodes_above_strict",
        summary.nodes_above_strict / summary.node_count, 0.005, 0.25,
    )

    # Fig 5: CPU imbalance.
    cpu_map = free_resource_heatmap(dataset, "cpu")
    check("fig5.min_cell_free_pct", float(np.nanmin(cpu_map.matrix)), 0.0, 30.0)
    check("fig5.max_cell_free_pct", float(np.nanmax(cpu_map.matrix)), 85.0, 100.0)

    # Figs 11-12: idle network.
    tx_map = free_resource_heatmap(dataset, "network_tx")
    check("fig11.min_free_tx_pct", float(np.nanmin(tx_map.column_means())), 85.0, 100.0)

    # Fig 13: storage unevenness.
    storage = free_resource_heatmap(dataset, "storage").column_means()
    check("fig13.share_hosts_over_90_free", float(np.mean(storage > 90)), 0.04, 0.35)
    check("fig13.share_hosts_over_30_used", float(np.mean(storage < 70)), 0.0, 0.20)

    # Fig 15: lifetimes.
    lifetimes = np.asarray(dataset.vms["lifetime_seconds"], dtype=float)
    check("fig15.min_lifetime_hours", lifetimes.min() / 3600.0, 0.0, 24.0)
    check("fig15.max_lifetime_years", lifetimes.max() / (365 * 86_400.0), 1.0, 50.0)
    check(
        "fig15.size_lifetime_correlation",
        abs(lifetime_size_correlation(dataset)), 0.0, 0.35,
    )

    return ValidationReport(checks=tuple(checks))
