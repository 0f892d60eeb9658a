"""Placement heuristic: weighted demand, affine cost, three-phase packing."""

import hashlib
import itertools
from dataclasses import replace

import numpy as np
import pytest

from conftest import hand_scenario, identity_mapping, placement_config
from oranslice.cli import _round_robin_mapping
from oranslice.oracle import exhaustive_placement
from oranslice.placement import (PlacementWeights, admitted_ratio, cost_phi,
                                 cost_psi, normalized_resource_consumption,
                                 place, weighted_capacity, weighted_demand)
from oranslice.radio import SliceMapping
from oranslice.scenario import GeneratorConfig, generate_scenario


def one_on_one():
    return SliceMapping(a=np.ones((1, 1), dtype=np.int8))


# ------------------------------------------------------------- weighting


def test_weighted_demand_mean_slice():
    # (100 GB, 10 TB, 32 GHz) under weights (1, 100, 320):
    # 100 + 1000 + 10240 = 11340; the mean DC is ten such slices
    sc = hand_scenario()
    d = weighted_demand(sc.slices[0])
    assert d == pytest.approx(11340.0)
    assert weighted_capacity(sc.dcs[0]) == pytest.approx(113400.0)


def test_weighted_demand_memory_only():
    sc = hand_scenario()
    d = weighted_demand(sc.slices[0], PlacementWeights(1.0, 0.0, 0.0))
    assert d == pytest.approx(100.0)


def test_weighted_demand_zero():
    sc = hand_scenario(vnf_demand=(0.0, 0.0, 0.0))
    assert weighted_demand(sc.slices[0]) == 0.0


# ------------------------------------------------------------------ cost


def test_cost_psi_empty_placement():
    sc = hand_scenario()
    mapping = SliceMapping(a=np.zeros((1, 1), dtype=np.int8))
    placement = place(sc, mapping)
    assert placement.admitted == [] and placement.unadmitted == []
    assert cost_psi(sc, mapping, placement) == (0.0, 0.0)


def memory_ten_scenario(phi_idle=5.0):
    # weighted demand collapses to 10 under memory-only weights
    return hand_scenario(vnf_demand=(10.0, 0.0, 0.0), phi_idle=phi_idle,
                         phi_per_unit=1.0)


def test_cost_phi_hand_affine():
    sc = memory_ten_scenario()
    mapping = one_on_one()
    placement = place(sc, mapping, weights=PlacementWeights(1.0, 0.0, 0.0))
    phi, psi = cost_psi(sc, mapping, placement)
    assert phi == pytest.approx(15.0)     # idle 5 + 1 * 10
    assert psi == pytest.approx(15.0)     # nu = 0


def test_cost_psi_admission_credit():
    sc = memory_ten_scenario()
    mapping = one_on_one()
    placement = place(sc, mapping, weights=PlacementWeights(1.0, 0.0, 0.0))
    phi, psi = cost_psi(sc, mapping, placement, nu=100.0)
    assert phi == pytest.approx(15.0)
    assert psi == pytest.approx(-85.0)    # one hosting pair, one service


# ------------------------------------------------------------- heuristic


def many_mean_slices(n):
    """n identical mean slices, one mean DC, one service per slice."""
    return hand_scenario(ue_counts=(1,) * n,
                         slice_rus=tuple((s,) for s in range(n)))


def test_place_ten_mean_slices_fill_the_dc():
    sc = many_mean_slices(10)
    mapping = identity_mapping(sc)
    placement = place(sc, mapping)
    assert placement.admitted == list(range(10))
    assert placement.unadmitted == []
    # 10 x (100 GB, 10 TB, 32 GHz) consumes (1000, 100, 320) exactly
    assert np.all(placement.residuals(sc) == 0.0)


def test_place_eleventh_slice_rejected():
    sc = many_mean_slices(11)
    mapping = identity_mapping(sc)
    placement = place(sc, mapping, single_dc=True)
    assert len(placement.admitted) == 10
    assert len(placement.unadmitted) == 1
    ratio = admitted_ratio(sc, mapping, placement, single_dc_mode=True)
    assert ratio == pytest.approx(10.0 / 11.0)


def test_place_split_slice_counts_only_in_multi_dc_mode():
    # demand exceeds each DC alone but fits their pool
    sc = hand_scenario(vnf_demand=(30.0, 3.0, 9.6),
                       dc_specs=((20.0, 2.0, 6.4), (20.0, 2.0, 6.4)))
    mapping = one_on_one()
    placement = place(sc, mapping)
    assert placement.admitted == [0]
    assert np.flatnonzero(placement.y[0]).tolist() == [0, 1]
    got = sum(placement.contributions[(0, d)] for d in (0, 1))
    assert np.allclose(got, [30.0, 3.0, 9.6])
    assert admitted_ratio(sc, mapping, placement) == 1.0
    assert admitted_ratio(sc, mapping, placement, single_dc_mode=True) == 0.0


def test_place_single_dc_mode_never_splits():
    sc = hand_scenario(vnf_demand=(30.0, 3.0, 9.6),
                       dc_specs=((20.0, 2.0, 6.4), (20.0, 2.0, 6.4)))
    placement = place(sc, one_on_one(), single_dc=True)
    assert placement.admitted == []
    assert placement.unadmitted == [0]


def consolidation_scenario(small_idle):
    sc = hand_scenario(vnf_demand=(10.0, 1.0, 3.2),
                       dc_specs=((1000.0, 100.0, 320.0), (20.0, 2.0, 6.4)),
                       phi_per_unit=1.0)
    dcs = tuple(replace(dc, phi_idle=idle)
                for dc, idle in zip(sc.dcs, (100.0, small_idle)))
    return replace(sc, dcs=dcs)


def test_place_consolidates_onto_smaller_dc():
    # phase 1 lands on the big DC; the cheap small one holds the slice
    # entirely, so the consolidation pass moves it and power drops
    sc = consolidation_scenario(small_idle=1.0)
    placement = place(sc, one_on_one())
    assert np.flatnonzero(placement.y[0]).tolist() == [1]
    omega = weighted_demand(sc.slices[0])
    assert cost_phi(sc, placement) == pytest.approx(1.0 + omega)


def test_place_rejects_costlier_consolidation():
    sc = consolidation_scenario(small_idle=1e6)
    placement = place(sc, one_on_one())
    assert np.flatnonzero(placement.y[0]).tolist() == [0]


def scarce_config():
    return GeneratorConfig(n_services=3, n_slices=3, n_dcs=2, mean_ues=1.0,
                           max_ues=2, n_rus=6, rus_per_slice=2,
                           slice_cv=0.25, dc_memory_gb=200.0,
                           dc_storage_tb=20.0, dc_cpu_ghz=64.0)


def test_place_seed17_admits_within_one_of_oracle():
    sc = generate_scenario(scarce_config(), seed=17)
    mapping = identity_mapping(sc)
    placement = place(sc, mapping, single_dc=True)
    oracle = exhaustive_placement(sc, mapping, nu=1e6, single_dc=True,
                                  require_all=False)
    assert oracle.feasible
    assert len(placement.unadmitted) > 0          # capacity actually binds
    assert len(placement.admitted) <= oracle.admitted_count
    assert len(placement.admitted) >= oracle.admitted_count - 1


def test_place_deterministic():
    sc = generate_scenario(scarce_config(), seed=3)
    mapping = identity_mapping(sc)
    a = place(sc, mapping)
    b = place(sc, mapping)
    assert np.array_equal(a.y, b.y)
    assert a.admitted == b.admitted
    assert set(a.contributions) == set(b.contributions)
    for key, amount in a.contributions.items():
        assert np.array_equal(amount, b.contributions[key])


def test_place_residuals_and_coverage():
    # the scarce config's two DCs are equal, so phase 3 never moves a
    # slice there; with unequal DCs it applies 6 moves and rejects 14
    unequal_dcs = replace(placement_config(5, 3, 0.35), dc_cv=0.3)
    for cfg, seed in itertools.product((scarce_config(), unequal_dcs),
                                       range(8)):
        sc = generate_scenario(cfg, seed=seed)
        mapping = identity_mapping(sc)
        placement = place(sc, mapping)
        assert np.all(placement.residuals(sc) >= -1e-9)
        for s in placement.admitted:
            got = sum(placement.contributions[(s, d)]
                      for d in np.flatnonzero(placement.y[s]).tolist())
            assert np.allclose(got, sc.slices[s].total_demand())
        for s in placement.unadmitted:
            assert not placement.y[s].any()


def hex_digest(lines):
    """Short sha256 of text lines of floats written in hex."""
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]


def hex_line(values):
    return ",".join(float(v).hex() for v in values)


# `place` on the placement acceptance sizes, round-robin mapping, with
# equal (dc_cv 0) and unequal (dc_cv 0.3) data centers: y rows, admitted
# slices, phi, a digest of the contributions sorted by key and, at dc_cv
# 0, of the residuals.  At dc_cv 0.3 phase 3 tries moves, and residuals
# depend on the order in which contributions are subtracted.
PINNED_PLACES = [
    ((5, 2, 0.35), 0, 0.0, "split", "11,01,10,10,01", [0, 1, 2, 3, 4],
     "0x1.1e237830e69cap+12", "fba28a2294fa2713", "018efc5c37f8d721"),
    ((5, 2, 0.35), 0, 0.0, "single", "00,01,10,10,01", [1, 2, 3, 4],
     "0x1.bc656ad40a4d7p+11", "845adc5eb6f2d36f", "109c420ef3dc432d"),
    ((5, 2, 0.35), 0, 0.3, "split", "10,01,10,10,00", [0, 1, 2, 3],
     "0x1.9fc5fe5e54836p+11", "320707db4d0ff0cb", None),
    ((5, 2, 0.35), 0, 0.3, "single", "10,01,10,10,00", [0, 1, 2, 3],
     "0x1.9fc5fe5e54836p+11", "320707db4d0ff0cb", None),
    ((5, 2, 0.35), 1, 0.0, "split", "01,10,10,10,01", [0, 1, 2, 3, 4],
     "0x1.7b3408918617dp+11", "3f2677eddb9615b9", "dd1f070b906ac4a4"),
    ((5, 2, 0.35), 1, 0.0, "single", "01,10,10,10,01", [0, 1, 2, 3, 4],
     "0x1.7b3408918617dp+11", "3f2677eddb9615b9", "dd1f070b906ac4a4"),
    ((5, 2, 0.35), 1, 0.3, "split", "01,01,10,10,01", [0, 1, 2, 3, 4],
     "0x1.7b3408918617cp+11", "a03aac36b3cd79af", None),
    ((5, 2, 0.35), 1, 0.3, "single", "01,01,10,10,01", [0, 1, 2, 3, 4],
     "0x1.7b3408918617cp+11", "a03aac36b3cd79af", None),
    ((5, 2, 0.35), 2, 0.0, "split", "10,10,01,10,01", [0, 1, 2, 3, 4],
     "0x1.8e011c5bac4a2p+11", "d787f6c8453efa1f", "9e031cf9736a5816"),
    ((5, 2, 0.35), 2, 0.0, "single", "10,10,01,10,01", [0, 1, 2, 3, 4],
     "0x1.8e011c5bac4a2p+11", "d787f6c8453efa1f", "9e031cf9736a5816"),
    ((5, 2, 0.35), 2, 0.3, "split", "00,00,00,10,01", [3, 4],
     "0x1.681d91a060daap+10", "c34489b75e62a5b1", None),
    ((5, 2, 0.35), 2, 0.3, "single", "00,00,00,10,01", [3, 4],
     "0x1.681d91a060daap+10", "c34489b75e62a5b1", None),
    ((5, 3, 0.35), 0, 0.0, "split", "001,010,100,100,010", [0, 1, 2, 3, 4],
     "0x1.0aab16cd75e1bp+12", "09f7ca12e4c2c0f3", "2ae666f61b6e811d"),
    ((5, 3, 0.35), 0, 0.0, "single", "001,010,100,100,010", [0, 1, 2, 3, 4],
     "0x1.0aab16cd75e1bp+12", "09f7ca12e4c2c0f3", "2ae666f61b6e811d"),
    ((5, 3, 0.35), 0, 0.3, "split", "001,100,100,100,001", [0, 1, 2, 3, 4],
     "0x1.fc562d9aebc35p+11", "5309388789db51dc", None),
    ((5, 3, 0.35), 0, 0.3, "single", "001,100,100,100,001", [0, 1, 2, 3, 4],
     "0x1.fc562d9aebc35p+11", "5309388789db51dc", None),
    ((5, 3, 0.35), 1, 0.0, "split", "010,100,100,100,010", [0, 1, 2, 3, 4],
     "0x1.7b3408918617dp+11", "3f2677eddb9615b9", "12cd0864d64dbeeb"),
    ((5, 3, 0.35), 1, 0.0, "single", "010,100,100,100,010", [0, 1, 2, 3, 4],
     "0x1.7b3408918617dp+11", "3f2677eddb9615b9", "12cd0864d64dbeeb"),
    ((5, 3, 0.35), 1, 0.3, "split", "100,010,010,010,010", [0, 1, 2, 3, 4],
     "0x1.7b3408918617cp+11", "274ea21ea3c1dfc5", None),
    ((5, 3, 0.35), 1, 0.3, "single", "100,010,010,010,010", [0, 1, 2, 3, 4],
     "0x1.7b3408918617cp+11", "274ea21ea3c1dfc5", None),
    ((5, 3, 0.35), 2, 0.0, "split", "100,100,010,100,010", [0, 1, 2, 3, 4],
     "0x1.8e011c5bac4a2p+11", "d787f6c8453efa1f", "b0da215a4856f383"),
    ((5, 3, 0.35), 2, 0.0, "single", "100,100,010,100,010", [0, 1, 2, 3, 4],
     "0x1.8e011c5bac4a2p+11", "d787f6c8453efa1f", "b0da215a4856f383"),
    ((5, 3, 0.35), 2, 0.3, "split", "011,001,100,001,100", [0, 1, 2, 3, 4],
     "0x1.e43d90d50adfbp+11", "5a8d894ae775de1f", None),
    ((5, 3, 0.35), 2, 0.3, "single", "000,001,100,001,100", [1, 2, 3, 4],
     "0x1.50c4a7e24db48p+11", "871ce719b8568f0e", None),
    ((6, 3, 0.2), 0, 0.0, "split", "100,010,001,111,000,000", [0, 1, 2, 3],
     "0x1.2eeecec120d90p+12", "b3cffa09ab6617bc", "5a9245bb34b63377"),
    ((6, 3, 0.2), 0, 0.0, "single", "100,010,001,000,000,000", [0, 1, 2],
     "0x1.767ab372c2392p+11", "445cadf72c9a0115", "1da7c9f034a71334"),
    ((6, 3, 0.2), 0, 0.3, "split", "100,001,010,111,000,000", [0, 1, 2, 3],
     "0x1.2eeecec120d90p+12", "715a9e6863b8c858", None),
    ((6, 3, 0.2), 0, 0.3, "single", "100,001,010,000,000,000", [0, 1, 2],
     "0x1.767ab372c2392p+11", "8023562c06f2d982", None),
    ((6, 3, 0.2), 1, 0.0, "split", "110,111,000,010,100,001", [0, 1, 3, 4, 5],
     "0x1.4e90bee4cc547p+12", "87ef36b49fcaf187", "c8d88cb8e2af69b6"),
    ((6, 3, 0.2), 1, 0.0, "single", "000,000,000,010,100,001", [3, 4, 5],
     "0x1.3a769887cbeaap+11", "20681436f1613952", "bf1dc9c65fee2a45"),
    ((6, 3, 0.2), 1, 0.3, "split", "101,111,000,100,001,010", [0, 1, 3, 4, 5],
     "0x1.4e90bee4cc547p+12", "55256ca75378ed71", None),
    ((6, 3, 0.2), 1, 0.3, "single", "000,000,000,100,001,010", [3, 4, 5],
     "0x1.3a769887cbeaap+11", "4759491fc686d892", None),
    ((6, 3, 0.2), 2, 0.0, "split", "110,100,001,010,001,000", [0, 1, 2, 3, 4],
     "0x1.0336f11a7248bp+12", "040728af92fdaf53", "18641d2f5c8f5210"),
    ((6, 3, 0.2), 2, 0.0, "single", "000,100,001,010,001,000", [1, 2, 3, 4],
     "0x1.7f5fda166af9ap+11", "878259d6c7af19ef", "c1cbad0025958507"),
    ((6, 3, 0.2), 2, 0.3, "split", "111,010,001,100,001,000", [0, 1, 2, 3, 4],
     "0x1.24fa732210aeap+12", "85fd905dec07da0b", None),
    ((6, 3, 0.2), 2, 0.3, "single", "000,010,001,100,001,000", [1, 2, 3, 4],
     "0x1.7f5fda166af9ap+11", "22d2c5c9fbc18b92", None),
    ((7, 3, 0.35), 0, 0.0, "split", "100,010,001,001,100,001,010",
     [0, 1, 2, 3, 4, 5, 6], "0x1.253634b8ca9f2p+12", "8e9c2f792d449434",
     "d6792b6a8abca586"),
    ((7, 3, 0.35), 0, 0.0, "single", "100,010,001,001,100,001,010",
     [0, 1, 2, 3, 4, 5, 6], "0x1.253634b8ca9f2p+12", "8e9c2f792d449434",
     "d6792b6a8abca586"),
    ((7, 3, 0.35), 0, 0.3, "split", "001,010,101,010,100,000,100",
     [0, 1, 2, 3, 4, 6], "0x1.249d8fe9ff9d5p+12", "991bbce5b315722b", None),
    ((7, 3, 0.35), 0, 0.3, "single", "001,010,000,010,100,000,100",
     [0, 1, 3, 4, 6], "0x1.e15c79a3792b4p+11", "68314bdc8cff8610", None),
    ((7, 3, 0.35), 1, 0.0, "split", "001,010,100,100,010,100,010",
     [0, 1, 2, 3, 4, 5, 6], "0x1.211b7b2028f40p+12", "6db6c0085043017e",
     "e170ebf8fe286abe"),
    ((7, 3, 0.35), 1, 0.0, "single", "001,010,100,100,010,100,010",
     [0, 1, 2, 3, 4, 5, 6], "0x1.211b7b2028f40p+12", "6db6c0085043017e",
     "e170ebf8fe286abe"),
    ((7, 3, 0.35), 1, 0.3, "split", "010,001,100,100,010,001,001",
     [0, 1, 2, 3, 4, 5, 6], "0x1.211b7b2028f40p+12", "1baa01609321ffd6", None),
    ((7, 3, 0.35), 1, 0.3, "single", "010,001,100,100,010,001,001",
     [0, 1, 2, 3, 4, 5, 6], "0x1.211b7b2028f40p+12", "1baa01609321ffd6", None),
    ((7, 3, 0.35), 2, 0.0, "split", "001,100,010,100,010,100,010",
     [0, 1, 2, 3, 4, 5, 6], "0x1.21530ea776ff6p+12", "e0920f002943bc5c",
     "f07b54de626182f7"),
    ((7, 3, 0.35), 2, 0.0, "single", "001,100,010,100,010,100,010",
     [0, 1, 2, 3, 4, 5, 6], "0x1.21530ea776ff6p+12", "e0920f002943bc5c",
     "f07b54de626182f7"),
    ((7, 3, 0.35), 2, 0.3, "split", "010,001,100,010,100,010,100",
     [0, 1, 2, 3, 4, 5, 6], "0x1.21530ea776ff6p+12", "be00ba054a0a560f", None),
    ((7, 3, 0.35), 2, 0.3, "single", "010,001,100,010,100,010,100",
     [0, 1, 2, 3, 4, 5, 6], "0x1.21530ea776ff6p+12", "be00ba054a0a560f", None),
    ((6, 4, 1.0), 0, 0.0, "split", "1000,1000,1000,1000,1000,1000",
     [0, 1, 2, 3, 4, 5], "0x1.06e3959f6d971p+12", "303f611cb1ad8126",
     "5494bcb508433492"),
    ((6, 4, 1.0), 0, 0.0, "single", "1000,1000,1000,1000,1000,1000",
     [0, 1, 2, 3, 4, 5], "0x1.06e3959f6d971p+12", "303f611cb1ad8126",
     "5494bcb508433492"),
    ((6, 4, 1.0), 0, 0.3, "split", "0001,0001,0001,0001,0001,0001",
     [0, 1, 2, 3, 4, 5], "0x1.06e3959f6d971p+12", "9bf654d91ab58cb0", None),
    ((6, 4, 1.0), 0, 0.3, "single", "0001,0001,0001,0001,0001,0001",
     [0, 1, 2, 3, 4, 5], "0x1.06e3959f6d971p+12", "9bf654d91ab58cb0", None),
    ((6, 4, 1.0), 1, 0.0, "split", "1000,1000,1000,1000,1000,1000",
     [0, 1, 2, 3, 4, 5], "0x1.d4cb291ac7dbap+11", "770f84a95e32ed02",
     "c0deaa3cd0cf49c9"),
    ((6, 4, 1.0), 1, 0.0, "single", "1000,1000,1000,1000,1000,1000",
     [0, 1, 2, 3, 4, 5], "0x1.d4cb291ac7dbap+11", "770f84a95e32ed02",
     "c0deaa3cd0cf49c9"),
    ((6, 4, 1.0), 1, 0.3, "split", "1000,1000,1000,1000,1000,1000",
     [0, 1, 2, 3, 4, 5], "0x1.d4cb291ac7dbap+11", "770f84a95e32ed02", None),
    ((6, 4, 1.0), 1, 0.3, "single", "1000,1000,1000,1000,1000,1000",
     [0, 1, 2, 3, 4, 5], "0x1.d4cb291ac7dbap+11", "770f84a95e32ed02", None),
    ((6, 4, 1.0), 2, 0.0, "split", "1000,1000,1000,1000,1000,1000",
     [0, 1, 2, 3, 4, 5], "0x1.c286d8fde3e19p+11", "56cad1a5995f2a0c",
     "e748654936c67632"),
    ((6, 4, 1.0), 2, 0.0, "single", "1000,1000,1000,1000,1000,1000",
     [0, 1, 2, 3, 4, 5], "0x1.c286d8fde3e19p+11", "56cad1a5995f2a0c",
     "e748654936c67632"),
    ((6, 4, 1.0), 2, 0.3, "split", "0010,0010,0010,0010,0010,0010",
     [0, 1, 2, 3, 4, 5], "0x1.c286d8fde3e19p+11", "2b7cfb367522125e", None),
    ((6, 4, 1.0), 2, 0.3, "single", "0010,0010,0010,0010,0010,0010",
     [0, 1, 2, 3, 4, 5], "0x1.c286d8fde3e19p+11", "2b7cfb367522125e", None),
]


@pytest.mark.parametrize("size, seed, dc_cv, mode, y, admitted, phi,"
                         " contributions, residuals", PINNED_PLACES)
def test_place_pinned(size, seed, dc_cv, mode, y, admitted, phi,
                      contributions, residuals):
    sc = generate_scenario(replace(placement_config(*size), dc_cv=dc_cv),
                           seed=seed)
    placement = place(sc, _round_robin_mapping(sc),
                      single_dc=mode == "single")
    pieces = placement.contributions
    rows = ",".join("".join(map(str, r)) for r in placement.y.tolist())
    assert (rows, placement.admitted, cost_phi(sc, placement).hex(),
            hex_digest(f"{s},{d}:{hex_line(pieces[s, d])}"
                       for s, d in sorted(pieces))) \
        == (y, admitted, phi, contributions)
    if residuals is not None:
        assert hex_digest(map(hex_line, placement.residuals(sc))) \
            == residuals


# ---------------------------------------------------------- normalization


def test_normalized_consumption_parity_and_empty():
    sc = memory_ten_scenario()
    mapping = one_on_one()
    placement = place(sc, mapping)
    oracle = exhaustive_placement(sc, mapping, nu=0.0, require_all=True)
    assert oracle.feasible
    ratio = cost_phi(sc, placement) / oracle.phi
    assert ratio == pytest.approx(1.0)

    empty = place(sc, SliceMapping(a=np.zeros((1, 1), dtype=np.int8)))
    assert normalized_resource_consumption(sc, empty) == 0.0


def test_normalized_consumption_near_oracle_in_the_mean():
    cfg = GeneratorConfig(n_services=10, n_slices=10, n_dcs=2, mean_ues=1.0,
                          max_ues=2, n_rus=20, rus_per_slice=2,
                          slice_cv=0.25)
    ratios = []
    for seed in range(1, 21):
        sc = generate_scenario(cfg, seed=seed)
        mapping = identity_mapping(sc)
        placement = place(sc, mapping)
        assert not placement.unadmitted
        oracle = exhaustive_placement(sc, mapping, nu=0.0, require_all=True)
        assert oracle.feasible
        ratios.append(cost_phi(sc, placement) / oracle.phi)
        assert ratios[-1] >= 1.0 - 1e-9       # the oracle is optimal
    assert np.mean(ratios) <= 1.20
