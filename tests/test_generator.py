"""Tests for the end-to-end dataset generator (shared small dataset)."""

import hashlib
import json
import math

import numpy as np
import pytest

from repro.datagen import GeneratorConfig, generate_dataset
from repro.datagen.validation import validate_dataset
from repro.telemetry.metrics import METRIC_CATALOG


class TestConfigValidation:
    def test_defaults_valid(self):
        GeneratorConfig()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"seed": -1},
            {"scale": 0},
            {"days": 0},
            {"sampling_seconds": 10},
            {"vms_per_node": 0},
            {"churn_fraction": 1.5},
            {"hotspot_fraction": 0.9},
        ],
    )
    def test_invalid_configs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            GeneratorConfig(**kwargs)

    @pytest.mark.parametrize("value", [math.inf, math.nan])
    @pytest.mark.parametrize(
        "field", ["scale", "vms_per_node", "churn_fraction", "hotspot_fraction", "window_start"]
    )
    def test_non_finite_values_rejected_by_name(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be finite, got {value!r}$"):
            GeneratorConfig(**{field: value})


class TestGeneratedDataset:
    def test_inventories_populated(self, small_dataset):
        assert small_dataset.node_count > 20
        assert small_dataset.vm_count > 500
        assert len(small_dataset.events) > 0

    def test_all_table4_metrics_present(self, small_dataset):
        assert set(small_dataset.store.metrics()) == {m.name for m in METRIC_CATALOG}

    def test_every_node_has_cpu_series(self, small_dataset):
        for node_id in small_dataset.nodes["node_id"]:
            series = small_dataset.node_series(
                "vrops_hostsystem_cpu_core_utilization_percentage", str(node_id)
            )
            assert len(series) > 0

    def test_node_series_span_window(self, small_dataset, small_config):
        node_id = str(small_dataset.nodes["node_id"][0])
        series = small_dataset.node_series(
            "vrops_hostsystem_cpu_core_utilization_percentage", node_id
        )
        assert series.timestamps[0] == small_config.window_start
        assert series.timestamps[-1] < small_config.window_end

    def test_percent_metrics_bounded(self, small_dataset):
        for metric in (
            "vrops_hostsystem_cpu_core_utilization_percentage",
            "vrops_hostsystem_memory_usage_percentage",
        ):
            for _labels, series in small_dataset.store.select(metric):
                assert series.values.min() >= 0.0
                assert series.values.max() <= 100.0

    def test_network_below_nic_capacity(self, small_dataset):
        """§5.3: network load stays notably below the 200 Gbps NICs."""
        for metric in (
            "vrops_hostsystem_network_bytes_tx_kbps",
            "vrops_hostsystem_network_bytes_rx_kbps",
        ):
            for _labels, series in small_dataset.store.select(metric):
                assert series.values.max() <= 200e6

    def test_vm_placement_recorded(self, small_dataset):
        node_ids = {str(n) for n in small_dataset.nodes["node_id"]}
        for node in small_dataset.vms["node_id"]:
            assert str(node) in node_ids

    def test_hana_vms_on_hana_bbs(self, small_dataset):
        vms = small_dataset.vms
        for i in range(len(vms)):
            if str(vms["family"][i]) == "hana":
                assert "hana" in str(vms["bb_id"][i])

    def test_all_event_kinds_present(self, small_dataset):
        """§4: creation, migration, resize, and deletion events."""
        kinds = {str(e) for e in small_dataset.events.unique("event")}
        assert kinds == {"create", "migrate", "resize", "delete"}

    def test_resize_events_move_to_larger_flavors(self, small_dataset):
        from repro.infrastructure.flavors import default_catalog

        catalog = default_catalog()
        resizes = small_dataset.events.filter(
            np.asarray([str(e) == "resize" for e in small_dataset.events["event"]])
        )
        assert len(resizes) > 0
        for row in resizes.rows():
            old = catalog.get(str(row["source"]))
            new = catalog.get(str(row["target"]))
            assert new.vcpus > old.vcpus
            assert new.family == old.family

    def test_events_sorted_by_time(self, small_dataset):
        times = np.asarray(small_dataset.events["time"], dtype=float)
        assert np.all(np.diff(times) >= 0)

    def test_events_reference_known_vms(self, small_dataset):
        vm_ids = {str(v) for v in small_dataset.vms["vm_id"]}
        for vm_id in small_dataset.events["vm_id"]:
            assert str(vm_id) in vm_ids

    def test_meta_records_provenance(self, small_dataset, small_config):
        assert small_dataset.meta["seed"] == small_config.seed
        assert small_dataset.meta["sampling_seconds"] == small_config.sampling_seconds
        # A handful of 12 TB requests may not fit the scaled-down region.
        assert small_dataset.meta["unplaced_vms"] <= 0.005 * small_dataset.vm_count

    def test_hotspots_recorded_and_marked(self, small_dataset):
        hotspots = small_dataset.meta["hotspot_nodes"]
        assert len(hotspots) >= 1
        flagged = {
            str(n)
            for n, h in zip(
                small_dataset.nodes["node_id"], small_dataset.nodes["hotspot"]
            )
            if h
        }
        assert set(hotspots) == flagged

    def test_instances_total_tracks_population(self, small_dataset):
        series = small_dataset.store.query(
            "openstack_compute_instances_total",
            {"region": "region-9"},
        )
        assert len(series) == 30  # daily
        # Never more instances than the inventory has VMs.
        assert series.values.max() <= small_dataset.vm_count


class TestDeterminism:
    def test_same_seed_same_dataset(self):
        config = GeneratorConfig(
            scale=0.01, sampling_seconds=14_400, vm_series_limit=5, days=5
        )
        a = generate_dataset(config)
        b = generate_dataset(config)
        assert a.vm_count == b.vm_count
        assert list(a.vms["node_id"]) == list(b.vms["node_id"])
        series_a = a.node_series(
            "vrops_hostsystem_cpu_core_utilization_percentage",
            str(a.nodes["node_id"][0]),
        )
        series_b = b.node_series(
            "vrops_hostsystem_cpu_core_utilization_percentage",
            str(b.nodes["node_id"][0]),
        )
        np.testing.assert_array_equal(series_a.values, series_b.values)

    def test_different_seed_differs(self):
        base = GeneratorConfig(scale=0.01, sampling_seconds=14_400, days=5)
        other = GeneratorConfig(
            scale=0.01, sampling_seconds=14_400, days=5, seed=base.seed + 1
        )
        a = generate_dataset(base)
        b = generate_dataset(other)
        assert list(a.vms["flavor"]) != list(b.vms["flavor"])


def test_deleted_migrated_vms_name_their_last_host(small_dataset):
    """A migrated VM's delete event names the node it left last, not the
    one it was first placed on."""
    last_target: dict[str, str] = {}
    deletes: dict[str, str] = {}
    for row in small_dataset.events.rows():
        if row["event"] == "migrate":
            last_target[str(row["vm_id"])] = str(row["target"])
        elif row["event"] == "delete":
            deletes[str(row["vm_id"])] = str(row["source"])
    checked = [vm for vm in last_target if vm in deletes]
    assert checked, "no migrated VM is deleted inside the window"
    for vm in checked:
        assert deletes[vm] == last_target[vm], vm


def _frame_digest(frame) -> str:
    h = hashlib.sha256()
    for name in frame.names:
        column = np.asarray(frame[name])
        h.update(name.encode())
        h.update(column.dtype.str.encode())
        if column.dtype.kind in "fiub":
            h.update(np.ascontiguousarray(column).tobytes())
        else:
            h.update(repr(column.tolist()).encode())
    return h.hexdigest()


def test_dataset_content_pinned(small_dataset):
    """The store, the vms frame, the meta and the calibration measurements
    of ``small_config``, pinned bit for bit.  A change that moves any of
    them must say so here."""
    validation = validate_dataset(small_dataset)
    measured = [(c.name, float(c.measured).hex()) for c in validation.checks]
    meta = json.dumps(small_dataset.meta, sort_keys=True, default=str)
    assert small_dataset.store.content_fingerprint() == (
        "b27bdf1262c68e2d1a7795573b4d03829ba04f1f9c5c0e8073324b0ef475a41a"
    )
    assert _frame_digest(small_dataset.vms) == (
        "00436ae0344df9e9c5f734ee80220f65b193b263ac201fd7186e79ba47a8e470"
    )
    assert hashlib.sha256(meta.encode()).hexdigest() == (
        "fca81ba7a67121f3dbd5064b82791115817f9f87a90c452d42253211c2113f1a"
    )
    assert hashlib.sha256(repr(measured).encode()).hexdigest() == (
        "4e8dc28e329eb93db0b9566f359c608b9361a7428bc03078ea9b2b19e29e4c5a"
    )
