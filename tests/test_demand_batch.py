"""The batch demand reads (repro.workloads.waveform.DemandTable): one per
scrape tick, and one per DRS node-load pass and source scan.

``DemandTable.evaluate`` must equal, bit for bit, the reference it
replaces: ``VMDemand.evaluate`` on a one-element grid, called VM by VM,
in all five columns, and leave the shared generator where those calls
would.  The properties build two identical worlds from identically seeded
generators (one read VM by VM, one read as a batch) over random ordered
mixes of VMs: every built-in profile and flavor family, hand-written
closures and nested noise that draw from the shared generator, channels
without noise, and noise on another generator; between ticks, VMs are
resized to a fresh demand in both worlds.

DRS driven through the simulation's batching load object
(:class:`repro.simulation.runner.DrsLoad`) must equal DRS driven by a
reference ``load_fn``, and DRS driven through ``DrsLoad`` one VM at a
time must equal both: fractions, migrations and generator state.

The numpy contract the batch relies on is guarded separately, so a numpy
upgrade that changes any of it fails here by name rather than as a
fingerprint diff somewhere downstream.
"""

import dataclasses

import numpy as np
from hypothesis import Phase, given, settings, strategies as st

from repro.drs.balancer import DrsBalancer, DrsConfig
from repro.drs.imbalance import load_fractions
from repro.drs.recommendations import recommend_moves
from repro.faults.migration import MigrationFaultModel
from repro.infrastructure.flavors import default_catalog
from repro.infrastructure.vm import VM
from repro.simulation import runner
from repro.workloads import patterns, waveform
from repro.workloads.demand import DemandModel
from repro.workloads.profiles import PROFILES
from repro.workloads.waveform import DemandTable
from tests.conftest import make_bb

_CATALOG = default_catalog()
_FLAVORS = tuple(f.name for f in _CATALOG)
_PROFILES = tuple(PROFILES)
#: How a mix entry departs from its profile's demand model.
_VARIANTS = (
    "profile", "profile", "profile", "closure", "nested", "noise_free", "other_rng"
)
_DAY = 86_400.0


def _handwritten(rng):
    """An opaque cpu closure that draws from the shared generator."""

    def pattern(ts):
        return 0.4 + 0.2 * rng.standard_normal(len(ts))

    return pattern


def _world(seed, mix):
    """``(shared rng, demands)`` for one mix; equal seeds, equal worlds."""
    rng = np.random.default_rng(seed)
    other = np.random.default_rng(seed + 1)
    model = DemandModel(rng)
    demands = []
    for variant, flavor, profile in mix:
        demand = model.demand_for(_CATALOG.get(flavor), PROFILES[profile])
        if variant == "closure":
            demand = dataclasses.replace(demand, cpu_pattern=_handwritten(rng))
        elif variant == "nested":
            inner = patterns.with_noise(patterns.diurnal(0.2, 0.8), 0.05, rng)
            product = patterns.composite([inner, patterns.weekly(1.0, 0.6)], mode="product")
            demand = dataclasses.replace(
                demand, cpu_pattern=patterns.with_noise(product, 0.03, rng)
            )
        elif variant == "noise_free":
            demand = dataclasses.replace(demand, mem_pattern=demand.mem_pattern.inner)
        elif variant == "other_rng":
            demand = dataclasses.replace(
                demand,
                mem_pattern=patterns.with_noise(patterns.constant(0.5), 0.02, other),
            )
        demands.append(demand)
    return rng, demands


def _bits(a) -> np.ndarray:
    return np.asarray(a, dtype=float).view(np.int64)


def _read(demand, t) -> tuple:
    """The reference read: ``demand.evaluate`` on the grid ``[t]``, as
    the five columns of a table read."""
    snap = demand.evaluate(np.asarray([t], dtype=float))
    return (
        snap.cpu_cores[0],
        snap.memory_mb[0],
        snap.network_tx_kbps[0],
        snap.network_rx_kbps[0],
        snap.disk_gb[0],
    )


_mix = st.lists(
    st.tuples(
        st.sampled_from(_VARIANTS),
        st.sampled_from(_FLAVORS),
        st.sampled_from(_PROFILES),
    ),
    min_size=1,
    max_size=40,
)
# Weekdays and weekend days, on and around day boundaries.
_ticks = st.lists(
    st.builds(
        lambda day, offset: day * _DAY + offset,
        st.integers(min_value=0, max_value=20),
        st.sampled_from([0.0, 0.001, 900.0, 43_200.0, 86_399.999])
        | st.floats(min_value=0.0, max_value=_DAY - 1.0),
    ),
    min_size=1,
    max_size=3,
)


#: Resizes between ticks: (tick index, VM position, new flavor).
_resizes = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=2),
        st.integers(min_value=0, max_value=39),
        st.sampled_from(_FLAVORS),
    ),
    max_size=4,
)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    mix=_mix,
    ticks=_ticks,
    resizes=_resizes,
)
def test_batch_equals_scalar_reads_bit_for_bit(seed, mix, ticks, resizes):
    scalar_rng, scalar_demands = _world(seed, mix)
    batch_rng, batch_demands = _world(seed, mix)
    scalar_model, batch_model = DemandModel(scalar_rng), DemandModel(batch_rng)
    table = DemandTable(batch_rng)
    slots = [table.put(f"vm{i}", d) for i, d in enumerate(batch_demands)]
    for k, t in enumerate(ticks):
        for when, i, flavor in resizes:
            if when == k and i < len(mix):
                # A resize replaces the demand object; the slot is kept.
                scalar_demands[i] = scalar_model.demand_for(_CATALOG.get(flavor))
                table.put(f"vm{i}", batch_model.demand_for(_CATALOG.get(flavor)))
        expected = np.array([_read(d, t) for d in scalar_demands]).T
        got = table.evaluate(slots, t)
        assert got.shape == (5, len(mix))
        assert np.array_equal(_bits(got), _bits(expected)), t
    # Same stream position: the next draw agrees.
    assert batch_rng.random() == scalar_rng.random()


def test_every_builtin_profile_and_family_gets_a_row():
    """The profiles' shapes all batch; only the test stand-ins are opaque."""
    rng = np.random.default_rng(3)
    model = DemandModel(rng)
    for profile in _PROFILES:
        for flavor in ("g_c8_m32", "h_c16_m256", "gpu_c32_m256"):
            for _ in range(20):
                demand = model.demand_for(_CATALOG.get(flavor), PROFILES[profile])
                assert waveform._demand_row(demand, rng) is not None, (profile, flavor)
                assert waveform._demand_row(demand, np.random.default_rng(3)) is None
    shared, opaque = _world(
        5,
        [("closure", "g_c2_m8", "cicd"), ("nested", "g_c2_m8", "devenv"),
         ("noise_free", "g_c2_m8", "general"), ("other_rng", "g_c2_m8", "hana_db")],
    )
    for demand in opaque:
        assert waveform._demand_row(demand, shared) is None


def test_slot_reuse_and_replacement():
    rng = np.random.default_rng(1)
    model = DemandModel(rng)
    flavor = _CATALOG.get("g_c4_m16")

    def demand():
        return model.demand_for(flavor)

    table = DemandTable(rng)
    a, b, c = (table.put(vm, demand()) for vm in ("a", "b", "c"))
    assert sorted((a, b, c)) == [0, 1, 2]
    assert table.pop("b") is not None
    assert table.pop("b") is None
    assert "b" not in table and set(table) == {"a", "c"}
    assert table.put("d", demand()) == b  # the freed slot, not a new one
    replacement = demand()
    assert table.put("a", replacement) == a  # a new demand keeps the slot
    assert table.get("a") is replacement
    assert len(table) == 3 and set(table.slots) == {"a", "c", "d"}


def test_table_grows_past_its_initial_capacity():
    rng_a, demands_a = _world(8, [("profile", "g_c2_m8", p) for p in _PROFILES] * 30)
    rng_b, demands_b = _world(8, [("profile", "g_c2_m8", p) for p in _PROFILES] * 30)
    table = DemandTable(rng_b)
    slots = [table.put(str(i), d) for i, d in enumerate(demands_b)]
    expected = np.array([_read(d, 4_000.0) for d in demands_a]).T
    assert np.array_equal(_bits(table.evaluate(slots, 4_000.0)), _bits(expected))
    assert rng_a.random() == rng_b.random()


class TestSimulationSlots:
    """Slots follow the simulation's identity-keyed table lifecycle."""

    def test_churn_with_resizes_keeps_slots_in_step_with_demands(self, monkeypatch):
        from tests.conftest import build_tiny_region_spec

        puts = []
        put = DemandTable.put

        def counting(table, vm_id, demand):
            puts.append(demand)
            return put(table, vm_id, demand)

        monkeypatch.setattr(DemandTable, "put", counting)
        sim = runner.RegionSimulation(
            build_tiny_region_spec(),
            runner.SimulationConfig(
                duration_days=1.0,
                scrape_interval_s=3600.0,
                drs_interval_s=None,
                arrival_rate_per_hour=30.0,
                resize_rate_per_hour=10.0,
                initial_vms=40,
                seed=4,
            ),
        )
        result = sim.run()
        assert result.resized > 0 and result.deleted > 0
        sim._handle_scrape(sim.engine, None)  # put every live demand
        table = sim._demand_table
        assert set(table) == set(table.slots) == set(sim.demands)
        slots = list(table.slots.values())
        assert len(set(slots)) == len(slots)
        # Freed slots were reused: far fewer rows than demands put.
        assert max(slots) + 1 < len(puts)

    def test_dead_letter_frees_slots_for_reuse(self):
        from tests.test_fault_evacuation import _place, _sim

        sim = _sim(bbs=1, nodes=2, evac_max_retries=2)
        for n, node_id in enumerate(("bb0-node-000", "bb0-node-001")):
            for i in range(8):
                vm = _place(sim, f"vm{n}-{i}", "g_c32_m256", node_id)
                sim.demands[vm.vm_id] = sim.demand_model.demand_for(vm.flavor)
        sim._handle_scrape(sim.engine, None)
        table = sim._demand_table
        before = dict(table.slots)
        sim.evacuation.on_host_fail(sim.engine, sim._node_index["bb0-node-000"])
        sim.engine.run_until(5000.0)
        dead = set(sim.fault_report.dead_lettered_vms)
        assert len(dead) == 8
        assert set(table.slots) == set(sim.demands) == set(before) - dead
        freed = {before[vm_id] for vm_id in dead}
        vm = _place(sim, "late", "g_c2_m8", "bb0-node-001")
        sim.demands[vm.vm_id] = sim.demand_model.demand_for(vm.flavor)
        sim._handle_scrape(sim.engine, None)
        assert table.slots["late"] in freed


# -- DRS reads ------------------------------------------------------------------

#: Flavors that fit a test node several times over, so DRS finds moves.
_DRS_FLAVORS = tuple(f.name for f in _CATALOG if f.vcpus <= 16 and f.ram_gib <= 128)


def _scalar_load(demands, now):
    """DRS's load model read VM by VM, with no ``many``: each VM's
    reference read, or its vCPUs when it has no demand model."""

    def load_fn(vm):
        demand = demands.get(vm.vm_id)
        if demand is None:
            return float(vm.flavor.vcpus)
        return _read(demand, now)[0]

    return load_fn


def _per_vm(load):
    """``load`` behind a plain per-VM function with no ``many``: the shape
    of a wrapper that counts or traces DRS's load reads."""

    def load_fn(vm):
        return load(vm)

    return load_fn


def _drs_world(seed, vms, nodes, unhealthy):
    """``(rng, bb, demands, fault model)``: the mix's VMs on a building
    block, ``nodes[i]`` of them on node i; a VM whose ``has_demand`` is
    False has no demand model.  ``unhealthy`` marks nodes failed or
    draining.  The fault model aborts most moves, drawing from the shared
    generator between DRS reads."""
    rng, demands = _world(seed, [mix for mix, _ in vms])
    bb = make_bb(nodes=len(nodes))
    members = list(bb.iter_nodes())
    by_id = {}
    at = 0
    for node, count in zip(members, nodes):
        for (mix, has_demand), demand in zip(vms[at : at + count], demands[at : at + count]):
            vm = VM(vm_id=f"v{at}", flavor=_CATALOG.get(mix[1]))
            node.add_vm(vm)
            if has_demand:
                by_id[vm.vm_id] = demand
            at += 1
    for node, state in zip(members, unhealthy):
        if state == "failed":
            node.failed = True
        elif state == "draining":
            node.maintenance = True
    return rng, bb, by_id, MigrationFaultModel(0.6, rng=rng)


def _hexes(fractions):
    return [(node_id, value.hex()) for node_id, value in fractions.items()]


_drs_vms = st.lists(
    st.tuples(
        st.tuples(
            st.sampled_from(_VARIANTS),
            st.sampled_from(_DRS_FLAVORS),
            st.sampled_from(_PROFILES),
        ),
        st.sampled_from([True, True, True, False]),  # has a demand model
    ),
    min_size=2,
    max_size=60,
)


#: The DRS properties skip shrinking: one shrink step re-runs several
#: balancing passes over up to 60 VMs, so shrinking a failure takes longer
#: than the suite's per-test timeout and a real fault would show up as a
#: timeout.  Without it, the first failing example is reported as drawn.
_NO_SHRINK = tuple(p for p in Phase if p is not Phase.shrink)


_drs_cases = given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    vms=_drs_vms,
    weights=st.lists(st.integers(min_value=0, max_value=6), min_size=2, max_size=5),
    unhealthy=st.lists(st.sampled_from(["", "", "", "failed", "draining"]), max_size=5),
    ticks=_ticks,
)


def _drs_lockstep(seed, vms, weights, unhealthy, ticks, load_a, load_b):
    """Drive DRS in two identical worlds, through ``load_a(demands, table,
    t)`` in one and ``load_b`` in the other, and require at every tick the
    same fractions to the bit, the same recommendations and migrations,
    the same aborts and the same generator state."""
    # Split the VMs over the nodes in proportion to ``weights``, skewed so
    # that DRS has work.
    total = sum(weights) or 1
    nodes = [len(vms) * w // total for w in weights]
    nodes[0] += len(vms) - sum(nodes)
    balancer = DrsBalancer(config=DrsConfig(imbalance_threshold=0.01, max_moves_per_run=12))
    a_rng, a_bb, a_demands, a_faults = _drs_world(seed, vms, nodes, unhealthy)
    b_rng, b_bb, b_demands, b_faults = _drs_world(seed, vms, nodes, unhealthy)
    a_table, b_table = DemandTable(a_rng), DemandTable(b_rng)
    for t in ticks:
        a = load_a(a_demands, a_table, t)
        b = load_b(b_demands, b_table, t)
        assert _hexes(load_fractions(a_bb.iter_nodes(), a)) == _hexes(
            load_fractions(b_bb.iter_nodes(), b)
        )
        assert recommend_moves(a_bb, a) == recommend_moves(b_bb, b)
        moved = balancer.run(a_bb, a, fault_model=a_faults)
        expected = balancer.run(b_bb, b, fault_model=b_faults)
        assert moved == expected
        assert [(m.load_cores.hex(), m.improvement.hex()) for m in moved] == [
            (m.load_cores.hex(), m.improvement.hex()) for m in expected
        ]
        assert a_faults.abort_log == b_faults.abort_log
        assert a_rng.bit_generator.state == b_rng.bit_generator.state


@settings(max_examples=40, deadline=None, phases=_NO_SHRINK)
@_drs_cases
def test_batched_drs_equals_scalar_drs(seed, vms, weights, unhealthy, ticks):
    """A load object with ``many`` (one batch per node-load pass and per
    source scan) and a reference ``load_fn`` read VM by VM drive DRS
    identically."""
    assert hasattr(runner.DrsLoad, "many")
    assert not hasattr(_scalar_load({}, 0.0), "many")
    _drs_lockstep(
        seed, vms, weights, unhealthy, ticks,
        runner.DrsLoad,
        lambda demands, table, t: _scalar_load(demands, t),
    )


@settings(max_examples=25, deadline=None, phases=_NO_SHRINK)
@_drs_cases
def test_per_vm_drs_load_equals_batched_drs_load(seed, vms, weights, unhealthy, ticks):
    """``DrsLoad`` called one VM at a time, through a wrapper with no
    ``many`` (the shape of a tracing wrapper), drives DRS exactly as
    ``DrsLoad`` itself does: a per-VM read is a batch of one."""
    assert not hasattr(_per_vm(runner.DrsLoad({}, None, 0.0)), "many")
    _drs_lockstep(
        seed, vms, weights, unhealthy, ticks,
        lambda demands, table, t: _per_vm(runner.DrsLoad(demands, table, t)),
        runner.DrsLoad,
    )


def test_drs_load_batch_recompiles_a_replaced_demand():
    """``many`` serves the registered demand object, as the scrape does:
    a replaced demand is put in its slot again before it is read."""
    rng, (first, second) = _world(21, [("profile", "g_c4_m16", "general")] * 2)
    vm = VM(vm_id="a", flavor=_CATALOG.get("g_c4_m16"))
    demands = {"a": first}
    table = DemandTable(rng)
    runner.DrsLoad(demands, table, 0.0).many([vm])
    slot = table.slots["a"]
    demands["a"] = second
    runner.DrsLoad(demands, table, 900.0).many([vm])
    assert table.get("a") is second and table.slots["a"] == slot


class TestNumpyContract:
    """What the batch assumes of numpy, each checked on its own."""

    SIGMAS = np.concatenate([np.full(7, 0.03), [0.0, 0.01, 0.0], np.linspace(0, 0.2, 50)])

    def test_array_normal_equals_successive_scalar_draws(self):
        a, b = np.random.default_rng(11), np.random.default_rng(11)
        batch = a.normal(0.0, self.SIGMAS)
        scalar = [b.normal(0.0, float(s)) for s in self.SIGMAS]
        assert np.array_equal(_bits(batch), _bits(scalar))
        assert a.random() == b.random()

    def test_run_wise_standard_normals_equal_normal(self):
        """``normal(0, sigma)`` is ``0.0 + sigma * gauss``: standard normals
        drawn into slices, scaled and shifted, give its bits (signed zeros
        from sigma 0 included) and its stream position."""
        a, b = np.random.default_rng(12), np.random.default_rng(12)
        expected = a.normal(0.0, self.SIGMAS)
        gauss = np.empty(len(self.SIGMAS))
        for lo, hi in ((0, 3), (3, 4), (4, 40), (40, len(self.SIGMAS))):
            b.standard_normal(out=gauss[lo:hi])
        assert np.array_equal(_bits(self.SIGMAS * gauss + 0.0), _bits(expected))
        assert a.random() == b.random()

    def test_array_exp_equals_scalar_exp(self):
        x = np.random.default_rng(13).uniform(-80.0, 0.0, 20_000)
        for n in range(1, 65):
            head = x[:n]
            assert np.array_equal(
                _bits(np.exp(head)), _bits([np.exp(float(v)) for v in head])
            ), n
        assert np.array_equal(_bits(np.exp(x)), _bits([np.exp(float(v)) for v in x]))

    def test_remainder_equals_python_modulo_on_spike_inputs(self):
        rng = np.random.default_rng(14)
        t = np.concatenate([rng.uniform(0.0, 60 * _DAY, 20_000), np.arange(0.0, 20 * _DAY, 900.0)])
        phase = rng.uniform(0.0, _DAY, len(t))
        period = rng.uniform(0.5, 2.0, len(t)) * _DAY
        got = np.remainder(t + phase, period)
        expected = [(float(a) + float(p)) % float(q) for a, p, q in zip(t, phase, period)]
        assert np.array_equal(_bits(got), _bits(expected))

    def test_cumsum_is_a_sequential_left_fold(self):
        """The per-node rollup: along the last axis of a (channels x nodes x
        k+1) matrix, the last cumsum column is each row's ``+=`` loop from
        0.0, zero padding included."""
        rng = np.random.default_rng(15)
        rows = [
            rng.uniform(0.0, 64.0, k) * 10.0 ** rng.integers(-3, 4, k)
            for k in (1, 7, 33, 130)
        ]
        padded = np.zeros((2, len(rows), 140))
        for i, row in enumerate(rows):
            padded[0, i, 1 : len(row) + 1] = row
            padded[1, i, 1 : len(row) + 1] = row[::-1]
        folds = []
        for channel in (rows, [row[::-1] for row in rows]):
            for row in channel:
                acc = 0.0
                for v in row.tolist():
                    acc += v
                folds.append(acc)
        got = np.cumsum(padded, axis=2)[:, :, -1].ravel()
        assert np.array_equal(_bits(got), _bits(folds))
