"""Scenario generation, validation, and serialization."""

import dataclasses
import math

import numpy as np
import pytest

from oranslice.scenario import (GeneratorConfig, ScenarioError,
                                generate_scenario, load_scenario,
                                save_scenario, scenario_from_dict,
                                scenario_to_dict, validate)

from conftest import hand_scenario


def test_same_seed_same_scenario():
    cfg = GeneratorConfig(n_services=3, mean_ues=10.0, max_ues=20, n_slices=4)
    a = generate_scenario(cfg, seed=7)
    b = generate_scenario(cfg, seed=7)
    assert scenario_to_dict(a) == scenario_to_dict(b)


def test_different_seed_differs():
    cfg = GeneratorConfig()
    a = generate_scenario(cfg, seed=1)
    b = generate_scenario(cfg, seed=2)
    assert scenario_to_dict(a) != scenario_to_dict(b)


def test_default_radio_parameters():
    sc = generate_scenario(GeneratorConfig(), seed=0)
    p = sc.params
    assert p.noise_psd == pytest.approx(10 ** (-174 / 10) * 1e-3, rel=1e-12)
    assert p.bandwidth_hz == 120e3
    assert p.p_max == 10.0            # 40 dBm
    assert p.c_max == 200.0
    assert p.d_max == 300e-6
    # spectral-efficiency floor is stored already multiplied by bandwidth
    assert p.r_min == pytest.approx(10.0 * 120e3)


def test_default_dc_draw_is_exact_mean():
    # dc_cv defaults to zero, so every DC sits exactly on the mean column
    sc = generate_scenario(GeneratorConfig(n_dcs=3), seed=5)
    for dc in sc.dcs:
        assert dc.cpu_ghz == 320.0
        assert dc.memory_gb == 1000.0
        assert dc.storage_tb == 100.0


def test_default_slice_demand_totals():
    sc = generate_scenario(GeneratorConfig(), seed=3)
    for sl in sc.slices:
        mem, sto, cpu = sl.total_demand()
        assert mem == pytest.approx(100.0)
        assert sto == pytest.approx(10.0)
        assert cpu == pytest.approx(32.0)


def test_sigma_q_scales_with_pmax():
    sc = generate_scenario(GeneratorConfig(sigma_q_frac=1e-3, p_max=4.0), seed=0)
    assert sc.params.sigma_q_default == pytest.approx(4e-3)
    assert all(ru.sigma_q2 == pytest.approx(4e-3) for ru in sc.rus)


@pytest.mark.parametrize("field,value", [
    ("n_services", 0), ("n_slices", 0), ("n_dcs", 0),
    ("mean_ues", 0.0), ("sigma_q_frac", 0.0), ("region_m", -5.0),
    ("arrival_rate_mean", -1.0), ("arrival_rate_spread", -0.1),
    ("arrival_rate_spread", 1.5), ("prbs_per_ue", 0),
    ("pl_d_min_m", 0.0), ("pl_d0_m", 0.0), ("pl_d_min_m", -1.0),
    ("p_max", True), ("d_max", math.inf), ("mean_ues", 1e19),
    ("mean_ues", math.inf), ("pl0", -1.0), ("pl_exponent", -1000.0),
    ("pl_exponent", 1e6), ("pl_d_min_m", 1e-300),
])
def test_invalid_config_rejected(field, value):
    with pytest.raises(ScenarioError):
        GeneratorConfig(**{field: value})


def test_rus_per_slice_bounded_by_pool():
    with pytest.raises(ScenarioError):
        GeneratorConfig(n_rus=4, rus_per_slice=5)


@pytest.mark.parametrize("seed", range(6))
def test_generated_scenarios_validate_clean(seed):
    cfg = GeneratorConfig(n_services=2 + seed % 3, n_slices=2 + seed % 4,
                          mean_ues=1.0 + seed, n_dcs=1 + seed % 3,
                          slice_cv=0.2 * (seed % 2), dc_cv=0.1 * (seed % 2))
    assert validate(generate_scenario(cfg, seed=seed)) == []


def test_hand_scenario_validates_clean():
    sc = hand_scenario(ue_counts=(2, 1), slice_rus=((0, 1), (1, 2)),
                       dc_specs=((1000.0, 100.0, 320.0),) * 2)
    assert validate(sc) == []


def test_validate_flags_empty_vnf_layer():
    sc = hand_scenario()
    bad = dataclasses.replace(sc.slices[0], m_du=0)
    sc = dataclasses.replace(sc, slices=(bad,))
    problems = validate(sc)
    assert any("slice 0" in p and "VNF" in p for p in problems)


def test_validate_flags_stray_prb_eligibility():
    # two slices with disjoint PRBs; mark a UE eligible on the other
    # slice's PRB
    sc = hand_scenario(slice_rus=((0,), (1,)))
    triples = [*sc.prb_assignment.triples.tolist(), (0, 1, 0)]
    # PRB 1 belongs to slice 1, not slice 0
    sc = dataclasses.replace(sc, prb_assignment=dataclasses.replace(
        sc.prb_assignment, triples=triples))
    problems = validate(sc)
    assert any("does not own" in p for p in problems)


def test_ue_counts_respect_cap():
    cfg = GeneratorConfig(mean_ues=50.0, max_ues=4)
    sc = generate_scenario(cfg, seed=0)
    assert all(1 <= sv.n_ues <= 4 for sv in sc.services)


def test_positions_inside_region():
    cfg = GeneratorConfig(region_m=100.0)
    sc = generate_scenario(cfg, seed=2)
    pos = np.vstack([sc.ue_positions(), sc.ru_positions()])
    assert (pos >= 0.0).all() and (pos <= 100.0).all()


def test_dedicated_prbs_are_private():
    sc = generate_scenario(GeneratorConfig(prb_mode="dedicated"), seed=4)
    triples = sc.prb_assignment.triples.tolist()
    # each UE holds exactly its own PRB in every slice
    for u in range(sc.n_ues):
        for s in range(sc.n_slices):
            assert [k for v, k, t in triples if (v, t) == (u, s)] == [u]


def test_serialization_roundtrip(tmp_path):
    sc = generate_scenario(GeneratorConfig(n_services=2, mean_ues=3.0), seed=11)
    path = tmp_path / "scenario.json"
    save_scenario(sc, str(path))
    back = load_scenario(str(path))
    assert scenario_to_dict(back) == scenario_to_dict(sc)


def test_from_dict_rejects_unknown_schema():
    sc = generate_scenario(GeneratorConfig(), seed=0)
    data = scenario_to_dict(sc)
    data["schema"] = 999
    with pytest.raises(ScenarioError):
        scenario_from_dict(data)


def test_replace_gives_fresh_index_caches():
    sc = hand_scenario(ue_counts=(1, 2))
    assert (sc.n_ues, sc.ue_index(1, 0)) == (3, 1)     # fills the caches
    fewer = dataclasses.replace(sc, services=sc.services[1:])
    assert (fewer.n_ues, fewer.ue_index(1, 0)) == (2, 0)
    assert (sc.n_ues, sc.ue_index(1, 0)) == (3, 1)

