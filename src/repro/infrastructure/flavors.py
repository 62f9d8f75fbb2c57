"""Flavor catalogue.

In OpenStack a *flavor* is a predefined vCPU/memory/storage template; VMs are
instantiated from flavors (§2.1).  The default catalogue below spans the four
vCPU classes of Table 1 and the four RAM classes of Table 2, including the
memory-intensive HANA flavors of up to 12 TB the paper highlights (Table 3)
and the ≥3 TB flavors confined to special-purpose building blocks (§3.1).

Flavor names follow the SAP convention of a family prefix plus a size suffix
(e.g. ``g_c4_m32`` = general purpose, 4 vCPUs, 32 GiB RAM).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterator

from repro.infrastructure.capacity import Capacity

GIB_MB = 1024  # MiB per GiB; flavor RAM is specified in GiB in the paper.


@lru_cache(maxsize=1024)
def _requested_capacity(flavor: "Flavor") -> Capacity:
    # Flavor and Capacity are both frozen, so the shared instance is safe;
    # schedulers and DRS call requested() on every candidate check and the
    # Capacity churn shows up in profiles.
    return Capacity(
        vcpus=flavor.vcpus, memory_mb=flavor.ram_mb, disk_gb=flavor.disk_gb
    )


@dataclass(frozen=True, slots=True)
class Flavor:
    """A VM resource template.

    Attributes
    ----------
    name:
        Unique flavor identifier.
    vcpus / ram_gib / disk_gb:
        Requested resources; ``ram_gib`` uses GiB to match the paper's
        tables and figures.
    family:
        Workload family — ``"general"``, ``"hana"``, or ``"gpu"`` — used for
        the pack-vs-spread placement policy split (§3.2).
    extra_specs:
        Free-form scheduler hints, matching Nova's flavor extra_specs
        (consumed by AggregateInstanceExtraSpecsFilter).
    """

    name: str
    vcpus: int
    ram_gib: float
    disk_gb: float = 50.0
    family: str = "general"
    extra_specs: tuple[tuple[str, str], ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if self.vcpus <= 0:
            raise ValueError("vcpus must be positive")
        if self.ram_gib <= 0:
            raise ValueError("ram_gib must be positive")
        if self.disk_gb < 0:
            raise ValueError("disk_gb must be non-negative")

    @property
    def ram_mb(self) -> float:
        """Requested memory in MiB."""
        return self.ram_gib * GIB_MB

    def requested(self) -> Capacity:
        """The capacity this flavor requests from a host (memoized)."""
        return _requested_capacity(self)

    def spec(self, key: str, default: str | None = None) -> str | None:
        """Look up an extra-spec value."""
        for k, v in self.extra_specs:
            if k == key:
                return v
        return default

    @property
    def vcpu_class(self) -> str:
        """Table 1 classification: small / medium / large / xlarge by vCPUs."""
        return classify_vcpus(self.vcpus)

    @property
    def ram_class(self) -> str:
        """Table 2 classification: small / medium / large / xlarge by RAM."""
        return classify_ram(self.ram_gib)


def classify_vcpus(vcpus: float) -> str:
    """Classify a vCPU count per Table 1 of the paper."""
    if vcpus <= 4:
        return "small"
    if vcpus <= 16:
        return "medium"
    if vcpus <= 64:
        return "large"
    return "xlarge"


def classify_ram(ram_gib: float) -> str:
    """Classify a RAM size (GiB) per Table 2 of the paper."""
    if ram_gib <= 2:
        return "small"
    if ram_gib <= 64:
        return "medium"
    if ram_gib <= 128:
        return "large"
    return "xlarge"


class FlavorCatalog:
    """A registry of flavors by name."""

    def __init__(self, flavors: list[Flavor] | None = None) -> None:
        self._flavors: dict[str, Flavor] = {}
        #: Memo of next_larger(); register() clears it.
        self._next_larger: dict[Flavor, Flavor | None] = {}
        for flavor in flavors or []:
            self.register(flavor)

    def register(self, flavor: Flavor) -> None:
        """Add a flavor; duplicate names are rejected."""
        if flavor.name in self._flavors:
            raise ValueError(f"duplicate flavor name: {flavor.name}")
        self._flavors[flavor.name] = flavor
        self._next_larger.clear()

    def get(self, name: str) -> Flavor:
        """Look up a flavor by name (KeyError if unknown)."""
        try:
            return self._flavors[name]
        except KeyError:
            raise KeyError(f"unknown flavor: {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._flavors

    def __iter__(self) -> Iterator[Flavor]:
        return iter(self._flavors.values())

    def __len__(self) -> int:
        return len(self._flavors)

    def by_family(self, family: str) -> list[Flavor]:
        """All flavors of one workload family."""
        return [f for f in self._flavors.values() if f.family == family]

    def next_larger(self, flavor: Flavor) -> Flavor | None:
        """The resize target of ``flavor``: the flavor with the fewest
        vCPUs above its own in the same family and aggregate class (first
        registered on ties), or None when there is none.  Memoised."""
        try:
            return self._next_larger[flavor]
        except KeyError:
            pass
        aggregate = flavor.spec("aggregate_class")
        bigger = [
            f
            for f in self.by_family(flavor.family)
            if f.vcpus > flavor.vcpus and f.spec("aggregate_class") == aggregate
        ]
        target = min(bigger, key=lambda f: f.vcpus) if bigger else None
        self._next_larger[flavor] = target
        return target


def default_catalog() -> FlavorCatalog:
    """The flavor catalogue used across examples, datagen, and benchmarks.

    General-purpose flavors cover the small/medium/large vCPU classes (dev
    environments, CI/CD, Kubernetes infrastructure — §5.5); HANA flavors
    cover the memory-intensive large/xlarge end, up to the 12 TB maximum the
    paper reports in Table 3.
    """
    flavors: list[Flavor] = []
    general = [
        # (vcpus, ram_gib, disk_gb)
        (1, 1, 20),
        (1, 2, 20),
        (2, 4, 40),
        (2, 8, 40),
        (4, 8, 80),
        (4, 16, 80),
        (4, 32, 160),
        (8, 32, 160),
        (8, 64, 320),
        (16, 64, 320),
        (16, 128, 640),
        (32, 128, 640),
        (32, 256, 640),
        (64, 256, 1280),
    ]
    for vcpus, ram, disk in general:
        flavors.append(
            Flavor(
                name=f"g_c{vcpus}_m{ram}",
                vcpus=vcpus,
                ram_gib=ram,
                disk_gb=disk,
                family="general",
            )
        )
    hana = [
        (16, 256, 640),
        (32, 512, 1280),
        (48, 768, 1280),
        (64, 1024, 2560),
        (80, 1536, 2560),
        (96, 2048, 2560),
        (96, 3072, 5120),
        (112, 4096, 5120),
        (128, 6144, 10240),
        (128, 12288, 10240),
    ]
    for vcpus, ram, disk in hana:
        # HANA flavors are pinned to HANA host aggregates; the ≥3 TB ones go
        # to the reserved special-purpose building blocks (§3.1).
        if ram >= 3072:
            specs: tuple[tuple[str, str], ...] = (("aggregate_class", "hana_xl"),)
        else:
            specs = (("aggregate_class", "hana"),)
        flavors.append(
            Flavor(
                name=f"h_c{vcpus}_m{ram}",
                vcpus=vcpus,
                ram_gib=ram,
                disk_gb=disk,
                family="hana",
                extra_specs=specs,
            )
        )
    flavors.append(
        Flavor(
            name="gpu_c32_m256",
            vcpus=32,
            ram_gib=256,
            disk_gb=1280,
            family="gpu",
            extra_specs=(("aggregate_class", "gpu"),),
        )
    )
    return FlavorCatalog(flavors)


#: (flavor name, sampling weight) over :func:`default_catalog`; weights are
#: normalised at use.  Chosen so the vCPU and RAM class marginals of a
#: sampled population land on the Table 1/2 proportions.
FLAVOR_MIX: tuple[tuple[str, float], ...] = (
    ("g_c1_m1", 0.010),
    ("g_c1_m2", 0.012),
    ("g_c2_m4", 0.180),
    ("g_c2_m8", 0.150),
    ("g_c4_m8", 0.100),
    ("g_c4_m16", 0.100),
    ("g_c4_m32", 0.075),
    ("g_c8_m32", 0.120),
    ("g_c8_m64", 0.090),
    ("g_c16_m64", 0.095),
    ("g_c16_m128", 0.0000),
    ("h_c16_m256", 0.011),
    ("g_c32_m128", 0.017),
    ("g_c32_m256", 0.006),
    ("g_c64_m256", 0.005),
    ("h_c32_m512", 0.006),
    ("h_c48_m768", 0.004),
    ("h_c64_m1024", 0.0024),
    ("h_c80_m1536", 0.006),
    ("h_c96_m2048", 0.004),
    ("h_c96_m3072", 0.003),
    ("h_c112_m4096", 0.0015),
    ("h_c128_m6144", 0.001),
    ("h_c128_m12288", 0.0008),
)
