"""QoS classes, NUMA alignment, and CPU pinning.

The paper's outlook (§8): "QoS requirements provide guarantees for certain
performance standards such as latency, network bandwidth, disk I/O,
non-uniform memory access (NUMA) alignment, and CPU-pinning.  The latter
ensures reduced latency to performance-sensitive VMs by reserving dedicated
CPU cores on hosts.  In our future work, we plan to evaluate OpenStack QoS
classes for more fine-grained management of different types of VMs."

This package implements that evaluation surface: QoS class definitions
with overcommit eligibility, a socket-level NUMA topology model with
alignment scoring, a dedicated-core pinning allocator, and the scheduler
filters/weighers wiring them into placement.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "QosClass": "classes",
    "QOS_CLASSES": "classes",
    "qos_for_flavor": "classes",
    "NumaNode": "numa",
    "NumaTopology": "numa",
    "NumaPlacement": "numa",
    "CpuPinningAllocator": "pinning",
    "PinningError": "pinning",
    "QosClassFilter": "filters",
    "NumaFitFilter": "filters",
    "NumaAlignmentWeigher": "filters",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
