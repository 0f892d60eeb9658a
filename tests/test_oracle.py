"""Reference implementations: enumeration guards, refinement, queue sim."""

import csv
import dataclasses
import io
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import (channels_from_matrix, default_params, hand_scenario,
                      identity_mapping, placement_config, small_joint_config)
from oranslice.cli import _round_robin_mapping
from oranslice.oracle import (MM1_SLAB, OracleReport, OracleSizeError,
                              _children, _hall_table, _row_adds,
                              brute_force_mapping, certified_mapping,
                              exhaustive_placement, mm1_simulate,
                              summation_oracle)
from oranslice.placement import PlacementWeights, cost_psi, place
from oranslice.power import SolverOptions, solve_joint
from oranslice.radio import (PowerAllocation, SliceMapping, build_beamformers,
                             build_channels)
from oranslice.scenario import DataCenter, GeneratorConfig, generate_scenario
from oranslice.slicing import map_slices_to_services


def one_on_one():
    return SliceMapping(a=np.ones((1, 1), dtype=np.int8))


def easy_1x1(sigma_q2=None, **param_overrides):
    sc = hand_scenario(ue_counts=(1,), slice_rus=((0,),), sigma_q2=sigma_q2,
                       params=default_params(**param_overrides))
    ch = channels_from_matrix(sc, [[math.sqrt(2.0)]])
    return sc, ch, build_beamformers(sc, ch)


# --------------------------------------------------- brute-force mapping


def test_grid_refinement_never_decreases_eta():
    cfg = GeneratorConfig(n_services=2, mean_ues=1.0, max_ues=1, n_slices=1,
                          n_rus=30, rus_per_slice=30, p_max=0.5,
                          sigma_q_frac=3.5e-4, r_min_per_hz=2.0,
                          region_m=100.0)
    sc = generate_scenario(cfg, seed=21)
    ch = build_channels(sc)
    bf = build_beamformers(sc, ch)
    etas = [brute_force_mapping(sc, ch, bf, power_grid_n=n).eta
            for n in (16, 32, 64, 128)]
    # doubling the step count keeps every old grid point available
    assert all(b >= a for a, b in zip(etas, etas[1:]))


def test_brute_force_1x1_agrees_with_solver():
    # slot noise 0.05 puts the efficiency peak near p = 0.17, a third of
    # the way up the 64-step grid, where the peak is flat enough for the
    # grid to resolve it
    sc, ch, bf = easy_1x1(sigma_q2=0.05, p_max=0.5)
    oracle = brute_force_mapping(sc, ch, bf, power_grid_n=64)
    assert oracle.feasible
    assert oracle.mapping.a.tolist() == [[1]]
    joint = solve_joint(sc, SolverOptions(), ch=ch, bf=bf)
    assert joint.eta == pytest.approx(oracle.eta, rel=0.02)


def test_brute_force_reports_infeasible():
    sc, ch, bf = easy_1x1(r_min=1e7)   # unreachable at any grid power
    out = brute_force_mapping(sc, ch, bf, power_grid_n=32)
    assert not out.feasible
    assert out.mapping is None and out.powers is None
    assert out.mappings_tried == 1
    assert out.mappings_feasible == 0
    assert out.eta == 0.0


def test_brute_force_size_guards():
    sc = hand_scenario(ue_counts=(1,), slice_rus=((0,),) * 13)
    ch = channels_from_matrix(sc, [[1.0]])
    bf = build_beamformers(sc, ch)
    with pytest.raises(OracleSizeError, match="12"):
        brute_force_mapping(sc, ch, bf)
    with pytest.raises(OracleSizeError, match="12"):
        certified_mapping(sc, ch, bf)

    sc5 = hand_scenario(ue_counts=(5,), slice_rus=((0, 1, 2, 3, 4),))
    ch5 = channels_from_matrix(sc5, np.eye(5))
    bf5 = build_beamformers(sc5, ch5)
    with pytest.raises(OracleSizeError, match="4 UEs"):
        brute_force_mapping(sc5, ch5, bf5)

    sc1, ch1, bf1 = easy_1x1()
    with pytest.raises(ValueError, match="power_grid_n"):
        brute_force_mapping(sc1, ch1, bf1, power_grid_n=1)


def test_brute_force_refuses_a_grid_too_large_to_hold():
    # (10^12 + 1)^2 grid points per mapping cannot be held in memory: the
    # oracle refuses the grid before allocating it
    cfg = GeneratorConfig(n_services=2, mean_ues=1.0, max_ues=1, n_slices=1,
                          n_rus=30, rus_per_slice=30, p_max=0.5,
                          sigma_q_frac=3.5e-4, r_min_per_hz=2.0,
                          region_m=100.0, c_max=2000.0)
    sc = generate_scenario(cfg, seed=0)
    ch = build_channels(sc)
    bf = build_beamformers(sc, ch)
    with pytest.raises(OracleSizeError, match="power grid"):
        brute_force_mapping(sc, ch, bf, power_grid_n=10 ** 12)


def power_grid_instances():
    """The U <= 4 instances the tests check against the power-grid oracle:
    the 1x1 hand case, its unreachable-rate twin, `small_joint_config`
    seed 13 and the acceptance test's single-slice pool, seeds 0-24."""
    yield "1x1", easy_1x1(sigma_q2=0.05, p_max=0.5)
    yield "1x1-unreachable", easy_1x1(r_min=1e7)
    cfgs = [(small_joint_config(), 13)] + [
        (GeneratorConfig(n_services=2, mean_ues=1.0, max_ues=1, n_slices=1,
                         n_rus=30, rus_per_slice=30, p_max=0.5,
                         sigma_q_frac=3.5e-4, r_min_per_hz=2.0,
                         region_m=100.0), seed) for seed in range(25)]
    for cfg, seed in cfgs:
        sc = generate_scenario(cfg, seed=seed)
        ch = build_channels(sc)
        yield f"{cfg.n_slices}-slice-seed-{seed}", (
            sc, ch, build_beamformers(sc, ch))


def test_certified_mapping_agrees_with_power_grid():
    # the grid's best point is feasible, so it lies under the certified
    # upper end; the certified best is within the grid's 2 % resolution
    for name, (sc, ch, bf) in power_grid_instances():
        cert = certified_mapping(sc, ch, bf)
        grid = brute_force_mapping(sc, ch, bf, power_grid_n=64)
        assert cert.feasible == grid.feasible, name
        assert cert.mappings_tried == grid.mappings_tried, name
        if not grid.feasible:
            assert cert.upper == -math.inf and cert.mapping is None, name
            continue
        assert cert.eta <= cert.upper <= cert.eta * (1 + 1e-5), name
        assert grid.eta <= cert.upper, name
        assert cert.eta == pytest.approx(grid.eta, rel=0.02), name


def test_certified_mapping_takes_a_fronthaul_cap_beyond_float_range():
    # 2^2000 overflows a float; a cap that large never binds, so the
    # interval, and the grid oracle's best eta, are those of the default
    # 200 bit/s/Hz cap
    base = easy_1x1(sigma_q2=0.05, p_max=0.5)
    huge = easy_1x1(sigma_q2=0.05, p_max=0.5, c_max=2000.0)
    cert = certified_mapping(*base), certified_mapping(*huge)
    assert (cert[1].eta, cert[1].upper) == (cert[0].eta, cert[0].upper)
    grid = brute_force_mapping(*base), brute_force_mapping(*huge)
    assert grid[1].eta == grid[0].eta


# ------------------------------------------------- exhaustive placement


def test_exhaustive_placement_single_slice():
    sc = hand_scenario()
    out = exhaustive_placement(sc, one_on_one())
    assert out.feasible
    assert out.admitted_count == 1
    assert out.y.tolist() == [[1]]


def test_exhaustive_placement_capacity_short():
    sc = hand_scenario(vnf_demand=(2000.0, 10.0, 32.0))   # memory 2x the DC
    out = exhaustive_placement(sc, one_on_one())
    assert not out.feasible
    assert out.y is None
    assert out.psi == math.inf


def test_exhaustive_placement_tie_breaks_lexicographically():
    # equal-cost assignments resolve to the smallest flattened y, which
    # for a single slice on twin DCs is (0, 1)
    sc = hand_scenario(dc_specs=((1000.0, 100.0, 320.0),) * 2)
    out = exhaustive_placement(sc, one_on_one())
    assert out.feasible
    assert out.y.tolist() == [[0, 1]]


def test_exhaustive_placement_deterministic():
    cfg = GeneratorConfig(n_services=3, n_slices=3, n_dcs=2, mean_ues=1.0,
                          max_ues=2, n_rus=6, rus_per_slice=2,
                          slice_cv=0.25, dc_memory_gb=200.0,
                          dc_storage_tb=20.0, dc_cpu_ghz=64.0)
    sc = generate_scenario(cfg, seed=17)
    mapping = identity_mapping(sc)
    a = exhaustive_placement(sc, mapping, nu=1e6, single_dc=True,
                             require_all=False)
    b = exhaustive_placement(sc, mapping, nu=1e6, single_dc=True,
                             require_all=False)
    assert a.psi == b.psi and a.phi == b.phi
    assert np.array_equal(a.y, b.y)


def test_exhaustive_placement_guards():
    sc = hand_scenario(ue_counts=(1,) * 11,
                       slice_rus=tuple((s,) for s in range(11)))
    with pytest.raises(OracleSizeError, match="10 active"):
        exhaustive_placement(sc, identity_mapping(sc))

    sc6 = hand_scenario(dc_specs=((1000.0, 100.0, 320.0),) * 6)
    with pytest.raises(OracleSizeError, match="5 DCs"):
        exhaustive_placement(sc6, one_on_one())

    with pytest.raises(OracleSizeError, match="single_dc"):
        exhaustive_placement(hand_scenario(), one_on_one(), nu=1e6,
                             single_dc=False)


def max_flow_feasible(demands, caps, allowed):
    """Can each demand be split over its allowed bins within capacities?

    Float max-flow (Ford-Fulkerson with BFS) on the bipartite graph, the
    reference for the oracle's subset-load (Hall) check.
    """
    n, m = len(demands), len(caps)
    total = sum(demands)
    if total <= 0:
        return True
    # nodes: 0 = source, 1..n = demands, n+1..n+m = bins, n+m+1 = sink
    size = n + m + 2
    cap = [[0.0] * size for _ in range(size)]
    for i, dem in enumerate(demands):
        cap[0][1 + i] = dem
    for i, bins in enumerate(allowed):
        for b in bins:
            cap[1 + i][1 + n + b] = math.inf
    for b, c in enumerate(caps):
        cap[1 + n + b][n + m + 1] = c
    flow = 0.0
    tol = max(total, 1.0) * 1e-12
    while True:
        parent = [-1] * size
        parent[0] = 0
        queue = [0]
        while queue:
            node = queue.pop(0)
            for nxt in range(size):
                if parent[nxt] < 0 and cap[node][nxt] > tol:
                    parent[nxt] = node
                    queue.append(nxt)
        if parent[n + m + 1] < 0:
            break
        path = []
        node = n + m + 1
        while node != 0:
            path.append((parent[node], node))
            node = parent[node]
        push = min(cap[a][b] for a, b in path)
        for a, b in path:
            cap[a][b] -= push
            cap[b][a] += push
        flow += push
    return flow >= total * (1 - 1e-9)


def test_subset_loads_match_max_flow():
    # Hall's condition on the subset loads decides the same splits as a
    # max-flow, resource by resource
    rng = np.random.default_rng(11)
    infeasible = 0
    for _ in range(300):
        n_dcs = int(rng.integers(1, 5))
        n_items = int(rng.integers(1, 6))
        caps = rng.uniform(0.0, 10.0, (n_dcs, 3))
        demands = rng.uniform(0.0, 5.0, (n_items, 3))
        rows = [int(rng.integers(1, 1 << n_dcs)) for _ in range(n_items)]
        checked, limit = _hall_table(caps, single_dc=False)
        loads = np.zeros_like(limit)
        for m, dem in zip(rows, demands):
            children, fits = _children(loads, _row_adds(checked, [m], dem),
                                       limit)
            loads = children[0] if fits[0] else None
            if loads is None:
                break
        bins = [[d for d in range(n_dcs) if m >> d & 1] for m in rows]
        flow_ok = all(max_flow_feasible(demands[:, z].tolist(),
                                        caps[:, z].tolist(), bins)
                      for z in range(3))
        assert (loads is not None) == flow_ok
        infeasible += not flow_ok
    assert 50 <= infeasible <= 250


def full_product_placement(sc, mapping, nu, single_dc, require_all):
    """Best (psi, flattened y) over the full product of every covering
    row, rows checked jointly by max-flow; None when none is feasible."""
    active = [s for s in range(sc.n_slices) if mapping.a[:, s].any()]
    caps = np.array([[dc.memory_gb, dc.storage_tb, dc.cpu_ghz]
                     for dc in sc.dcs])
    demands = {s: np.array(sc.slices[s].total_demand()) for s in active}
    omega = {s: PlacementWeights().combine(*demands[s]) for s in active}
    sizes = [1] if single_dc else range(1, len(sc.dcs) + 1)
    rows_of = []
    for s in active:
        rows = [] if require_all else [()]
        rows += [c for r in sizes
                 for c in itertools.combinations(range(len(sc.dcs)), r)
                 if np.all(demands[s] <= caps[list(c)].sum(axis=0) + 1e-9)]
        rows_of.append(rows)
    best = None
    for combo in itertools.product(*rows_of):
        hosted = [(s, row) for s, row in zip(active, combo) if row]
        if not all(max_flow_feasible(
                [float(demands[s][z]) for s, _ in hosted],
                [float(c) for c in caps[:, z]],
                [list(row) for _, row in hosted]) for z in range(3)):
            continue
        phi = credit = 0.0
        for s, row in zip(active, combo):
            for d in row:
                phi += sc.dcs[d].phi_per_unit * omega[s]
            credit += len(row) * float(mapping.a[:, s].sum())
        phi += sum(sc.dcs[d].phi_idle for d in sorted(set().union(*combo)))
        y = np.zeros((sc.n_slices, len(sc.dcs)), dtype=np.int8)
        for s, row in zip(active, combo):
            y[s, list(row)] = 1
        key = (phi - nu * credit, tuple(y.flatten().tolist()))
        if best is None or key < best:
            best = key
    return best


@pytest.mark.parametrize("mode", ["admission", "single_dc", "split"])
def test_branch_and_bound_matches_full_product(mode):
    nu, single_dc, require_all = {"admission": (1e6, True, False),
                                  "single_dc": (0.0, True, True),
                                  "split": (0.0, False, True)}[mode]
    rng = np.random.default_rng(5)
    feasible = 0
    for seed in range(30):
        cfg = placement_config(int(rng.integers(2, 5)),
                               int(rng.integers(1, 4)),
                               float(rng.choice([0.1, 0.2, 0.35, 1.0])))
        sc = generate_scenario(cfg, seed=seed)
        mapping = _round_robin_mapping(sc)
        out = exhaustive_placement(sc, mapping, nu=nu, single_dc=single_dc,
                                   require_all=require_all)
        ref = full_product_placement(sc, mapping, nu, single_dc,
                                     require_all)
        assert out.feasible == (ref is not None), f"seed {seed}"
        assert type(out.psi) is float and type(out.phi) is float
        if ref is not None:
            feasible += 1
            assert out.psi == pytest.approx(ref[0], rel=1e-12, abs=1e-9)
            assert tuple(out.y.flatten().tolist()) == ref[1], f"seed {seed}"
    assert feasible >= 10


PLACEMENT_MODES = {"admission": (1e6, True, False),
                   "single_dc": (0.0, True, True),
                   "split": (0.0, False, True)}


@st.composite
def two_cost_placements(draw):
    """A hand-built placement instance whose DCs draw their per-unit and
    idle power from two-value sets, so that equal and unequal DCs both
    occur; integer demands keep every psi sum exact."""
    n_slices = draw(st.integers(1, 4))
    n_dcs = draw(st.integers(1, 3))
    demand = st.tuples(st.sampled_from([40.0, 100.0, 160.0]),
                       st.sampled_from([4.0, 10.0]),
                       st.sampled_from([16.0, 32.0]))
    sc = hand_scenario(ue_counts=(1,) * draw(st.integers(1, n_slices)),
                       slice_rus=((0,),) * n_slices,
                       vnf_demands=draw(st.lists(demand, min_size=n_slices,
                                                 max_size=n_slices)))
    dcs = tuple(DataCenter(id=d, memory_gb=draw(st.sampled_from([150.0,
                                                                 300.0])),
                           storage_tb=30.0, cpu_ghz=80.0,
                           phi_idle=draw(st.sampled_from([0.0, 8000.0])),
                           phi_per_unit=draw(st.sampled_from([1.0, 2.0])))
                for d in range(n_dcs))
    return dataclasses.replace(sc, dcs=dcs)


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(sc=two_cost_placements(), mode=st.sampled_from(list(PLACEMENT_MODES)))
def test_branch_and_bound_matches_full_product_on_unequal_dcs(sc, mode):
    nu, single_dc, require_all = PLACEMENT_MODES[mode]
    mapping = _round_robin_mapping(sc)
    out = exhaustive_placement(sc, mapping, nu=nu, single_dc=single_dc,
                               require_all=require_all)
    ref = full_product_placement(sc, mapping, nu, single_dc, require_all)
    assert out.feasible == (ref is not None)
    if ref is not None:
        assert (out.psi, tuple(out.y.flatten().tolist())) == ref


# (slices, DCs, capacity scale, seed) where the minimal-subset split
# search reported infeasible although `place` hosts every slice, with
# the optimum psi
SPLIT_ONLY_FEASIBLE = [((5, 2, 0.35), 0, 4578.216843510463),
                       ((6, 3, 0.2), 5, 4482.9558501787305),
                       ((6, 3, 0.2), 8, 4388.538656796648),
                       ((6, 3, 0.2), 17, 4356.278538314909),
                       ((6, 3, 0.2), 20, 4368.769464944147)]


@pytest.mark.parametrize("size, seed, psi", SPLIT_ONLY_FEASIBLE)
def test_split_oracle_finds_non_minimal_splits(size, seed, psi):
    sc = generate_scenario(placement_config(*size), seed=seed)
    mapping = _round_robin_mapping(sc)
    heuristic = place(sc, mapping)
    assert heuristic.unadmitted == []
    out = exhaustive_placement(sc, mapping, nu=0.0)
    assert out.feasible
    assert out.y.any(axis=1).all()
    assert out.psi == pytest.approx(psi, rel=1e-12)
    assert out.psi <= cost_psi(sc, mapping, heuristic, nu=0.0)[1]


# (slices, DCs, capacity scale), seed, mode, then the search's result:
# feasible, psi and phi as float.hex(), admitted count, y row by row and
# the leaves visited.  The sizes and seeds are the benchmark's oracle-gap
# rounds (workload seed 0) and SPLIT_ONLY_FEASIBLE; any change to the
# search order, bound, tie rule or summation order shows up here.
PINNED_PLACEMENTS = [
    ((6, 4, 1.0), 0, "admission", True, "-0x1.6df4471a9824ap+22",
     "0x1.06e3959f6d970p+12", 6, "0001,0001,0001,0001,0001,0001", 4),
    ((6, 4, 1.0), 0, "split", True, "0x1.06e3959f6d970p+12",
     "0x1.06e3959f6d970p+12", 6, "0001,0001,0001,0001,0001,0001", 4),
    ((7, 3, 0.35), 1, "admission", True, "-0x1.aaf6b92137f5cp+22",
     "0x1.211b7b2028f40p+12", 7, "001,001,010,010,001,010,100", 25),
    ((7, 3, 0.35), 1, "split", True, "0x1.211b7b2028f40p+12",
     "0x1.211b7b2028f40p+12", 7, "001,001,010,010,001,010,100", 25),
    ((8, 3, 1.0), 2, "admission", True, "-0x1.e7f4bc86b1207p+22",
     "0x1.4d0de53b7e2c0p+12", 8, "001,001,001,001,001,001,001,001", 3),
    ((8, 3, 1.0), 2, "split", True, "0x1.4d0de53b7e2c0p+12",
     "0x1.4d0de53b7e2c0p+12", 8, "001,001,001,001,001,001,001,001", 3),
    ((6, 3, 0.2), 3, "admission", True, "-0x1.e7f6499b98219p+21",
     "0x1.46d9919f79dfep+11", 4, "000,001,001,010,100,000", 22),
    ((6, 3, 0.2), 3, 'split', False, 'inf', 'inf', 0, None, 0),
    ((5, 3, 0.35), 4, "admission", True, "-0x1.30f9668875200p+22",
     "0x1.9ccbbc5700235p+11", 5, "001,001,001,010,010", 5),
    ((5, 3, 0.35), 4, "split", True, "0x1.9ccbbc5700235p+11",
     "0x1.9ccbbc5700235p+11", 5, "001,001,001,010,010", 5),
    ((6, 4, 1.0), 100, "admission", True, "-0x1.6df2c79139474p+22",
     "0x1.0ce1bb1ae2f4dp+12", 6, "0001,0001,0001,0001,0001,0001", 4),
    ((6, 4, 1.0), 100, "split", True, "0x1.0ce1bb1ae2f4dp+12",
     "0x1.0ce1bb1ae2f4dp+12", 6, "0001,0001,0001,0001,0001,0001", 4),
    ((7, 3, 0.35), 101, "admission", True, "-0x1.aaf91455ad46ep+22",
     "0x1.17aea94ae49a0p+12", 7, "001,001,001,010,010,100,100", 9),
    ((7, 3, 0.35), 101, "split", True, "0x1.17aea94ae49a0p+12",
     "0x1.17aea94ae49a0p+12", 7, "001,001,001,010,010,100,100", 9),
    ((8, 3, 1.0), 102, "admission", True, "-0x1.e808c18a04995p+22",
     "0x1.f9f3afdb358cbp+11", 8, "001,001,001,001,001,001,001,001", 3),
    ((8, 3, 1.0), 102, "split", True, "0x1.f9f3afdb358cbp+11",
     "0x1.f9f3afdb358cbp+11", 8, "001,001,001,001,001,001,001,001", 3),
    ((6, 3, 0.2), 103, "admission", True, "-0x1.6df9a45b9bedfp+21",
     "0x1.e2dd232090630p+10", 3, "001,010,000,100,000,000", 22),
    ((6, 3, 0.2), 103, 'split', False, 'inf', 'inf', 0, None, 0),
    ((5, 3, 0.35), 104, "admission", True, "-0x1.3102c1760f4b8p+22",
     "0x1.51f44f85a43eap+11", 5, "001,001,001,010,010", 12),
    ((5, 3, 0.35), 104, "split", True, "0x1.51f44f85a43eap+11",
     "0x1.51f44f85a43eap+11", 5, "001,001,001,010,010", 12),
    ((5, 2, 0.35), 0, "split", True, "0x1.1e237830e69cap+12",
     "0x1.1e237830e69cap+12", 5, "11,01,01,10,10", 3),
    ((6, 3, 0.2), 5, "split", True, "0x1.182f4b298e986p+12",
     "0x1.182f4b298e986p+12", 6, "001,011,001,100,100,010", 9),
    ((6, 3, 0.2), 8, "split", True, "0x1.12489e5696d5fp+12",
     "0x1.12489e5696d5fp+12", 6, "001,010,001,101,100,010", 4),
    ((6, 3, 0.2), 17, "split", True, "0x1.104474e497938p+12",
     "0x1.104474e497938p+12", 6, "001,001,010,100,101,110", 2),
    ((6, 3, 0.2), 20, "split", True, "0x1.110c4fba79288p+12",
     "0x1.110c4fba79288p+12", 6, "001,011,101,010,010,100", 4),
]
PIN_MODES = {"admission": dict(nu=1e6, single_dc=True, require_all=False),
             "split": dict(nu=0.0)}


@pytest.mark.parametrize("size, seed, mode, feasible, psi, phi, admitted, y,"
                         " leaves", PINNED_PLACEMENTS)
def test_exhaustive_placement_pinned(size, seed, mode, feasible, psi, phi,
                                     admitted, y, leaves):
    sc = generate_scenario(placement_config(*size), seed=seed)
    out = exhaustive_placement(sc, _round_robin_mapping(sc),
                               **PIN_MODES[mode])
    rows = (None if out.y is None else
            ",".join("".join(map(str, r)) for r in out.y.tolist()))
    assert (out.feasible, out.psi.hex(), out.phi.hex(), out.admitted_count,
            rows, out.leaves_checked) == (feasible, psi, phi, admitted, y,
                                          leaves)


# ------------------------------------------------------- M/M/1 simulator


def test_mm1_matches_closed_form():
    # mean sojourn of M/M/1 is 1/(mu - lambda)
    assert mm1_simulate(1.0, 2.0, 1_000_000, seed=0) \
        == pytest.approx(1.0, rel=0.05)
    assert mm1_simulate(0.3, 1.0, 1_000_000, seed=1) \
        == pytest.approx(1.0 / 0.7, rel=0.05)


def test_mm1_seed_reproducible():
    a = mm1_simulate(0.5, 1.0, 100_000, seed=7)
    b = mm1_simulate(0.5, 1.0, 100_000, seed=7)
    c = mm1_simulate(0.5, 1.0, 100_000, seed=8)
    assert a == b
    assert a != c


def mm1_peak(n_arrivals):
    """tracemalloc's peak over one simulation of n_arrivals customers."""
    tracemalloc.start()
    try:
        mm1_simulate(0.5, 1.0, n_arrivals, seed=0)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_mm1_holds_no_n_sized_array():
    # one 1M-float array alone would take 8 MB; three (32, 2048) slabs
    # take 1.6 MB, and a peak of 1.7 MB was measured at 1e5, 1M and 4M
    # arrivals.  A tail slab is no wider than a full one, so 1e5 arrivals
    # (one full slab and a tail of 34,464) peak no higher than 1M.  A
    # first call imports numpy.random, which is not the simulator's memory.
    mm1_simulate(0.5, 1.0, 100_000, seed=0)
    peak = mm1_peak(1_000_000)
    assert peak < 3e6
    assert mm1_peak(100_000) <= peak
    assert mm1_peak(4_000_000) <= 1.1 * peak


def mm1_loop(arrival_rate, service_rate, n_arrivals, seed):
    """The waiting-time recursion one customer at a time, as reference.

    It replays the simulator's draws: slab by slab (full slabs, then a
    tail of r customers as an (m, r // m) slab and a row of r % m), the
    gaps and then the services, each drawn by inversion from uniforms and
    each slab's columns flattened in customer order."""
    rng = np.random.default_rng(seed)
    m, w = MM1_SLAB
    full, r = divmod(n_arrivals, m * w)
    gaps, services = [], []
    for shape in [(m, w)] * full + [(m, r // m), (1, r % m)]:
        for out, rate in ((gaps, arrival_rate), (services, service_rate)):
            out.extend([-math.log(1.0 - u) / rate
                        for u in rng.random(shape).ravel(order="F").tolist()])
    wait = 0.0
    total = 0.0
    for k in range(n_arrivals):
        if k:
            wait = max(0.0, wait + services[k - 1] - gaps[k - 1])
        total += wait + services[k]
    return total / n_arrivals


MM1_L = MM1_SLAB[0] * MM1_SLAB[1]
MM1_EDGE = -(-100_000 // MM1_L) * MM1_L    # whole slabs past the 1e5 minimum


@pytest.mark.parametrize("rho, n_arrivals", [
    (0.3, 200_000), (0.5, 200_000), (0.8, 200_000), (0.95, 200_000),
    (0.8, 106_497), (0.95, 106_498),
    (0.95, MM1_EDGE), (0.8, MM1_EDGE + 1), (0.5, MM1_EDGE + 2),
    (0.95, MM1_EDGE + MM1_L - 1),
    # tails with no (32, r // 32) slab, and with no r % 32 row
    (0.8, MM1_EDGE + MM1_SLAB[0] - 1), (0.5, MM1_EDGE + MM1_SLAB[0]),
    (0.95, MM1_EDGE + 5 * MM1_SLAB[0])])
def test_mm1_blocked_recursion_matches_loop(rho, n_arrivals):
    sim = mm1_simulate(rho, 1.0, n_arrivals, seed=4)
    assert type(sim) is float
    assert sim == pytest.approx(mm1_loop(rho, 1.0, n_arrivals, 4),
                                rel=1e-12)


def test_mm1_rejects_bad_inputs():
    with pytest.raises(ValueError, match="unstable"):
        mm1_simulate(2.0, 2.0)
    with pytest.raises(ValueError, match="positive"):
        mm1_simulate(0.0, 1.0)
    with pytest.raises(ValueError, match="positive"):
        mm1_simulate(float("nan"), 1.0)
    with pytest.raises(ValueError, match="positive"):
        mm1_simulate(0.5, float("nan"))
    with pytest.raises(ValueError, match="1e5"):
        mm1_simulate(0.5, 1.0, n_arrivals=10)
    with pytest.raises(ValueError, match="integer"):
        mm1_simulate(0.5, 1.0, n_arrivals=1e6)


# ---------------------------------------------------------- report type


def test_oracle_report_gap_semantics():
    rep = OracleReport(instance="x", kind="ee", oracle_value=100.0,
                       heuristic_value=98.0, wall_time_s=0.5)
    assert rep.rel_gap == pytest.approx(0.02)
    assert OracleReport("x", "ee", 0.0, 0.0, 0.0).rel_gap == 0.0
    assert OracleReport("x", "ee", 0.0, 1.0, 0.0).rel_gap == math.inf
    row = rep.csv_row()
    assert len(row.split(",")) == len(OracleReport.CSV_HEADER.split(","))


@pytest.mark.parametrize("name", ["x.json", "a,b.json", 'say "hi".json',
                                  "two\nlines.json", 'all, "of"\r\nit'])
def test_oracle_report_row_reads_back_with_csv(name):
    # the instance is a file's basename, which may hold any of the
    # characters that shift an unquoted row's columns
    rep = OracleReport(name, "joint_eta", 100.0, 98.0, 0.5)
    row = rep.csv_row()
    assert list(csv.reader(io.StringIO(row))) == [
        [name, "joint_eta", "100.0", "98.0", repr(rep.rel_gap), "0.500"]]
    if name == "x.json":
        assert row == f"x.json,joint_eta,100.0,98.0,{rep.rel_gap!r},0.500"


def test_summation_oracle_unknown_id():
    sc, ch, bf = easy_1x1()
    with pytest.raises(ValueError, match="unknown expression"):
        summation_oracle("nope", sc, one_on_one(), ch, bf,
                         PowerAllocation(p=np.zeros(1)))
