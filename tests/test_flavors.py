"""Tests for the flavor catalogue and Table 1/2 classification bounds."""

import dataclasses

import pytest

from repro.infrastructure.flavors import (
    Flavor,
    FlavorCatalog,
    classify_ram,
    classify_vcpus,
    default_catalog,
)


class TestClassification:
    """Boundary behaviour must match Tables 1 and 2 exactly."""

    @pytest.mark.parametrize(
        "vcpus,expected",
        [(1, "small"), (4, "small"), (5, "medium"), (16, "medium"),
         (17, "large"), (64, "large"), (65, "xlarge"), (128, "xlarge")],
    )
    def test_vcpu_boundaries(self, vcpus, expected):
        assert classify_vcpus(vcpus) == expected

    @pytest.mark.parametrize(
        "ram,expected",
        [(1, "small"), (2, "small"), (2.5, "medium"), (64, "medium"),
         (65, "large"), (128, "large"), (129, "xlarge"), (12288, "xlarge")],
    )
    def test_ram_boundaries(self, ram, expected):
        assert classify_ram(ram) == expected


class TestFlavor:
    def test_requested_capacity(self):
        flavor = Flavor("f", vcpus=4, ram_gib=16, disk_gb=100)
        cap = flavor.requested()
        assert cap.vcpus == 4
        assert cap.memory_mb == 16 * 1024
        assert cap.disk_gb == 100

    def test_requested_capacity_is_derived_state(self):
        flavor = Flavor("f", vcpus=4, ram_gib=16)
        assert flavor.requested() is flavor.requested()
        # Outside equality, hashing and repr; replace() recomputes it.
        assert flavor == Flavor("f", vcpus=4, ram_gib=16)
        assert hash(flavor) == hash(Flavor("f", vcpus=4, ram_gib=16))
        assert "requested" not in repr(flavor)
        bigger = dataclasses.replace(flavor, vcpus=8)
        assert bigger.requested().vcpus == 8
        assert flavor.requested().vcpus == 4

    def test_invalid_vcpus_raises(self):
        with pytest.raises(ValueError):
            Flavor("f", vcpus=0, ram_gib=1)

    def test_invalid_ram_raises(self):
        with pytest.raises(ValueError):
            Flavor("f", vcpus=1, ram_gib=0)

    def test_extra_spec_lookup(self):
        flavor = Flavor("f", 1, 1, extra_specs=(("k", "v"),))
        assert flavor.spec("k") == "v"
        assert flavor.spec("missing") is None
        assert flavor.spec("missing", "d") == "d"

    def test_class_properties(self):
        flavor = Flavor("f", vcpus=96, ram_gib=2048)
        assert flavor.vcpu_class == "xlarge"
        assert flavor.ram_class == "xlarge"


class TestCatalog:
    def test_duplicate_name_rejected(self):
        catalog = FlavorCatalog([Flavor("a", 1, 1)])
        with pytest.raises(ValueError, match="duplicate"):
            catalog.register(Flavor("a", 2, 2))

    def test_unknown_lookup_raises(self):
        with pytest.raises(KeyError, match="unknown flavor"):
            FlavorCatalog().get("zzz")

    def test_contains_and_len(self):
        catalog = FlavorCatalog([Flavor("a", 1, 1)])
        assert "a" in catalog
        assert len(catalog) == 1


class TestDefaultCatalog:
    def test_has_all_families(self):
        catalog = default_catalog()
        assert catalog.by_family("general")
        assert catalog.by_family("hana")
        assert catalog.by_family("gpu")

    def test_covers_all_size_classes(self):
        catalog = default_catalog()
        assert {f.vcpu_class for f in catalog} == {"small", "medium", "large", "xlarge"}
        assert {f.ram_class for f in catalog} == {"small", "medium", "large", "xlarge"}

    def test_includes_12tb_hana_flavor(self):
        """Table 3: the dataset contains VMs with up to 12 TB of memory."""
        catalog = default_catalog()
        assert max(f.ram_gib for f in catalog) == 12288

    def test_3tb_plus_flavors_require_special_aggregate(self):
        """§3.1: flavors with ≥3 TB memory live on reserved building blocks."""
        for flavor in default_catalog():
            if flavor.ram_gib >= 3072:
                assert flavor.spec("aggregate_class") == "hana_xl"
            elif flavor.family == "hana":
                assert flavor.spec("aggregate_class") == "hana"

    def test_names_are_unique(self):
        catalog = default_catalog()
        names = [f.name for f in catalog]
        assert len(names) == len(set(names))
