"""Per-slice arrival rates and the three-stage delay chain."""

import numpy as np
import pytest

from oranslice.scenario import GeneratorConfig, generate_scenario
from oranslice.radio import SliceMapping
from oranslice.power import delay_linearization
from oranslice.queueing import (UnstableQueueError, layer_delays, slice_sums,
                                transmission_delays)

from conftest import default_params, evaluator, full_mapping, hand_scenario


def served_by(sc, mapping):
    return mapping.incidence(sc)


def slice_loads(sc, incidence):
    """Pooled packet arrivals of every slice, packet/s."""
    return slice_sums(sc.arrival_rates, incidence, sc.n_slices)


def one_ue_delays(arrival, rate, **params):
    """(DU, CU, transmission, unstable texts) of one UE on one slice, at
    the given rate, bit/s; a layer's text before the transmission's."""
    sc = hand_scenario(arrival_rates=[arrival],
                       params=default_params(**params))
    mapping = full_mapping(sc)
    served = served_by(sc, mapping)
    alpha = slice_loads(sc, served)
    du, cu, unstable = layer_delays(sc, alpha)
    return du, cu, *transmission_delays(
        sc, alpha, slice_sums(np.array([rate]), served, 1),
        mapping.a.any(axis=0), unstable)


def test_arrival_rate_unmapped_slice_is_zero():
    sc = hand_scenario(ue_counts=(2,), arrival_rates=[2.0, 3.0])
    empty = SliceMapping(a=np.zeros((1, 1), dtype=np.int8))
    assert slice_loads(sc, served_by(sc, empty))[0] == 0.0


def test_arrival_rate_sums_all_ues_of_mapped_service():
    sc = hand_scenario(ue_counts=(2,), arrival_rates=[2.0, 3.0])
    alpha = slice_loads(sc, served_by(sc, full_mapping(sc)))
    assert alpha[0] == pytest.approx(5.0)


def test_arrival_rate_matches_double_sum_oracle():
    cfg = GeneratorConfig(n_services=3, n_slices=3, mean_ues=2.0, max_ues=4,
                          n_rus=6, rus_per_slice=2)
    sc = generate_scenario(cfg, seed=4)
    rng = np.random.default_rng(4)
    a = rng.integers(0, 2, size=(sc.n_services, sc.n_slices)).astype(np.int8)
    mapping = SliceMapping(a=a)
    lam = sc.arrival_rates
    alpha = slice_loads(sc, served_by(sc, mapping))
    for s in range(sc.n_slices):
        ref = 0.0
        for v in range(sc.n_services):
            if a[v, s]:
                for u in sc.service_ue_indices(v):
                    ref += lam[u]
        assert alpha[s] == pytest.approx(ref)


@pytest.mark.parametrize("n_slices", [1, 2, 7])
def test_slice_sums_round_like_a_loop(rng, n_slices):
    # numpy pairs the terms of a contiguous sum; a single-slice column is
    # contiguous, so only a running sum keeps the loop's rounding
    x = rng.uniform(0.0, 1e7, 300) * rng.uniform(0.5, 2.0, 300)
    served = (rng.random((300, n_slices)) < 0.7).astype(np.int8)
    for s, got in enumerate(slice_sums(x, np.nonzero(served), n_slices)):
        ref = 0.0
        for u in np.flatnonzero(served[:, s]):
            ref += float(x[u])
        assert got == ref
    assert slice_sums(x[:0], np.nonzero(served[:0]),
                      n_slices).tolist() == [0.0] * n_slices


def test_layer_delays_empty_system():
    sc = hand_scenario(params=default_params(mu1=4.0, mu2=8.0))
    d1, d2, unstable = layer_delays(sc, np.array([0.0]))
    assert d1[0] == pytest.approx(0.25)
    assert d2[0] == pytest.approx(0.125)
    assert unstable == {}


def test_layer_delay_hand_value():
    # mu1 = 2, alpha = 1, one DU VNF: d1 = 1/(2 - 1) = 1
    sc = hand_scenario(params=default_params(mu1=2.0, mu2=100.0))
    d1, _, _ = layer_delays(sc, np.array([1.0]))
    assert d1[0] == pytest.approx(1.0)


def test_layer_delay_pole_behavior():
    mu = 0.5
    sc = hand_scenario(params=default_params(mu1=mu, mu2=100.0))
    alpha = mu * (1.0 - 1e-6)     # per-VNF load gap of 1e-6 * mu
    d1, _, _ = layer_delays(sc, np.array([alpha]))
    assert d1[0] > 1e6


@pytest.mark.parametrize("ratio", [1.0, 1.5])
def test_layer_delay_instability_names_layer(ratio):
    sc = hand_scenario(arrival_rates=[2.0 * ratio],
                       params=default_params(mu1=2.0, mu2=100.0))
    _, _, unstable = layer_delays(sc, np.array([2.0 * ratio]))
    assert "DU" in unstable[0]
    with pytest.raises(UnstableQueueError, match="DU"):
        delay_linearization(evaluator(sc, full_mapping(sc)))


def test_transmission_delay_hand_value():
    assert one_ue_delays(1.0, 2.0)[2][0] == pytest.approx(1.0)


def test_transmission_delay_zero_arrivals():
    assert one_ue_delays(0.0, 8.0)[2][0] == pytest.approx(0.125)


def test_transmission_delay_unstable():
    for arrival in (1.0, 2.0):
        unstable = one_ue_delays(arrival, 1.0)[3]
        assert unstable[0].startswith("transmission stage unstable")


def test_slice_delay_hand_total():
    # alpha = 0, R_tot = 10, mu1 = mu2 = 10: every stage contributes 0.1
    du, cu, tx, unstable = one_ue_delays(0.0, 10.0, mu1=10.0, mu2=10.0)
    assert du[0] == pytest.approx(0.1)
    assert cu[0] == pytest.approx(0.1)
    assert tx[0] == pytest.approx(0.1)
    assert du[0] + cu[0] + tx[0] == pytest.approx(0.3)
    assert unstable == {}


def test_slice_delay_at_budget_boundary():
    # defaults put the delay budget at 300 usec; three equal stages of
    # 100 usec land exactly on it
    du, cu, tx, _ = one_ue_delays(0.0, 1e4)
    assert du[0] + cu[0] + tx[0] == pytest.approx(300e-6, rel=1e-12)
    assert default_params().d_max == 300e-6


def test_slice_delay_unstable_du_raises():
    unstable = one_ue_delays(1e6, 1e9)[3]
    assert unstable[0].startswith("slice 0 DU layer unstable")


def test_slice_rate_total_counts_mapped_services_only():
    sc = hand_scenario(ue_counts=(1, 1), slice_rus=((0,), (1,)))
    a = np.zeros((2, 2), dtype=np.int8)
    a[0, 0] = 1
    rates = np.array([5.0, 7.0])
    r_tot = slice_sums(rates, served_by(sc, SliceMapping(a=a)), 2)
    assert r_tot[0] == pytest.approx(5.0)
    assert r_tot[1] == 0.0


def test_delay_monotone_in_load_and_service_rate(rng):
    base = default_params(mu1=10.0, mu2=10.0)
    sc = hand_scenario(arrival_rates=[0.0], params=base)
    fast = hand_scenario(arrival_rates=[0.0],
                         params=default_params(mu1=12.0, mu2=12.0))
    for _ in range(20):
        alpha = float(rng.uniform(0.0, 9.0))
        d1a, d2a, _ = layer_delays(sc, np.array([alpha]))
        d1b, d2b, _ = layer_delays(sc, np.array([alpha + 0.5]))
        assert d1b > d1a and d2b > d2a

        d1c, d2c, _ = layer_delays(fast, np.array([alpha]))
        assert d1c < d1a and d2c < d2a

        r = float(rng.uniform(alpha + 0.1, 20.0))
        assert (one_ue_delays(alpha, r + 1.0)[2][0]
                < one_ue_delays(alpha, r)[2][0])
