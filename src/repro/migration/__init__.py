"""Live-migration cost modelling.

§3.2 ("Avoiding migration of heavy VMs"): migrating VMs with high memory
activity incurs overhead because updated pages must be re-copied.  This
package implements the standard pre-copy live-migration model — iterative
memory copying against a dirty-page rate — yielding total migration time,
downtime, and transferred volume, plus a planner that weighs migration
cost against rebalancing benefit.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "PrecopyModel": "precopy",
    "MigrationEstimate": "precopy",
    "MigrationPlanner": "planner",
    "MigrationPlan": "planner",
    "PlannedMove": "planner",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
