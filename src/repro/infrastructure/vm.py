"""Virtual machine model and lifecycle states."""

from __future__ import annotations

import enum
from bisect import bisect_left
from dataclasses import dataclass, field

from repro.infrastructure.capacity import Capacity
from repro.infrastructure.flavors import Flavor


class VMState(enum.Enum):
    """Lifecycle states, following Nova's instance state machine (reduced)."""

    REQUESTED = "requested"
    BUILDING = "building"
    ACTIVE = "active"
    MIGRATING = "migrating"
    RESIZING = "resizing"
    DELETED = "deleted"
    ERROR = "error"


#: Legal state transitions; anything else raises in :meth:`VM.transition`.
_TRANSITIONS: dict[VMState, frozenset[VMState]] = {
    VMState.REQUESTED: frozenset({VMState.BUILDING, VMState.ERROR}),
    VMState.BUILDING: frozenset({VMState.ACTIVE, VMState.ERROR, VMState.DELETED}),
    VMState.ACTIVE: frozenset(
        {VMState.MIGRATING, VMState.RESIZING, VMState.DELETED, VMState.ERROR}
    ),
    VMState.MIGRATING: frozenset({VMState.ACTIVE, VMState.ERROR}),
    VMState.RESIZING: frozenset({VMState.ACTIVE, VMState.ERROR}),
    VMState.DELETED: frozenset(),
    # ERROR -> BUILDING is the evacuation/rebuild path: a VM stranded by a
    # host failure is rebuilt on a new host (Nova evacuate).
    VMState.ERROR: frozenset({VMState.BUILDING, VMState.DELETED}),
}


@dataclass
class VM:
    """A virtual machine instance.

    Attributes
    ----------
    vm_id:
        Unique (anonymised) instance identifier.
    flavor:
        The resource template the VM was instantiated from.
    tenant:
        Project/tenant identifier (used by tenant isolation filters).
    az:
        Requested availability zone, or ``None`` for "any".
    created_at / deleted_at:
        Lifecycle timestamps in epoch seconds; ``deleted_at`` is ``None``
        while the VM is alive.
    node_id:
        Compute node currently hosting the VM (``None`` until placed).
    workload_profile:
        Name of the demand profile driving the VM's telemetry.
    """

    vm_id: str
    flavor: Flavor
    tenant: str = "default"
    az: str | None = None
    created_at: float = 0.0
    deleted_at: float | None = None
    node_id: str | None = None
    workload_profile: str = "general"
    state: VMState = VMState.REQUESTED
    migrations: int = 0
    metadata: dict[str, str] = field(default_factory=dict)

    def __setattr__(self, name: str, value) -> None:
        object.__setattr__(self, name, value)
        if name == "state":
            # Keep a registering LiveVMIndex's live bit in step with the
            # derived ``alive`` property, however the state was written.
            hook = self.__dict__.get("_live_hook")
            if hook is not None:
                hook[0]._set_live(hook[1], self.alive)

    def __getstate__(self) -> dict:
        # Copies and pickles leave the live-index hook behind: it belongs
        # to the simulation that registered this VM.
        state = dict(self.__dict__)
        state.pop("_live_hook", None)
        return state

    def requested(self) -> Capacity:
        """Resources this VM requests from its host."""
        return self.flavor.requested()

    def transition(self, new_state: VMState) -> None:
        """Move to ``new_state``, enforcing the lifecycle state machine."""
        if new_state not in _TRANSITIONS[self.state]:
            raise ValueError(
                f"illegal VM state transition {self.state.value} -> {new_state.value}"
            )
        self.state = new_state

    @property
    def alive(self) -> bool:
        return self.state in (
            VMState.BUILDING,
            VMState.ACTIVE,
            VMState.MIGRATING,
            VMState.RESIZING,
        )

    def lifetime_seconds(self, now: float | None = None) -> float:
        """Observed lifetime: deletion (or ``now``) minus creation."""
        end = self.deleted_at if self.deleted_at is not None else now
        if end is None:
            raise ValueError("VM is alive; pass `now` to compute lifetime")
        return max(0.0, end - self.created_at)


class LiveVMIndex:
    """VMs in registration order, with the live ones countable and
    indexable without a scan.

    A sorted list of the live VMs' registration slots replaces filtering
    every VM ever registered for ``alive``: ``len(index)`` is the number
    of live VMs and ``index.nth_live(k)`` is
    ``[vm for vm in vms if vm.alive][k]``.  Slots follow the VMs'
    ``state`` through the hook in :meth:`VM.__setattr__`, so a VM that
    leaves and re-enters the live states (evacuation's ERROR -> BUILDING
    -> ACTIVE) keeps its position.
    """

    def __init__(self) -> None:
        self._vms: list[VM] = []
        #: Registration slots of the live VMs, ascending.
        self._slots: list[int] = []

    def __len__(self) -> int:
        return len(self._slots)

    def add(self, vm: VM) -> None:
        """Register ``vm`` after every VM registered so far."""
        slot = len(self._vms)
        self._vms.append(vm)
        if vm.alive:
            self._slots.append(slot)  # the largest slot so far
        object.__setattr__(vm, "_live_hook", (self, slot))

    def _set_live(self, slot: int, live: bool) -> None:
        slots = self._slots
        i = bisect_left(slots, slot)
        present = i < len(slots) and slots[i] == slot
        if live and not present:
            slots.insert(i, slot)
        elif present and not live:
            del slots[i]

    def nth_live(self, k: int) -> VM:
        """The ``k``-th (0-based) live VM in registration order."""
        if not 0 <= k < len(self._slots):
            raise IndexError(f"live VM index {k} out of range")
        return self._vms[self._slots[k]]
