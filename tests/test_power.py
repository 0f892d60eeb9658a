"""Power solver: delay linearization, the dual bound's closed-form powers,
the barrier inner solve and its breakdown guard, Dinkelbach."""

import math

import numpy as np
import pytest

from conftest import (channels_from_matrix, default_params, hand_scenario,
                      small_joint_config)
from oranslice.cli import _ee_config
from oranslice.oracle import brute_force_mapping
from oranslice.power import (EPS_ETA, InfeasibleDelayError,
                             InfeasibleMappingError, Multipliers, PowerProblem,
                             SolverOptions, _central_path, delay_linearization,
                             solve_joint, subgradient_solve)
from oranslice.queueing import layer_delays
from oranslice.radio import (PowerAllocation, SliceMapping, beam_gains,
                             build_beamformers, build_channels,
                             interference_upper_bound, ru_powers_all,
                             slot_weight_matrix, ue_rates)
from oranslice.scenario import GeneratorConfig, generate_scenario
from oranslice.slicing import map_slices_to_services


def one_on_one():
    return SliceMapping(a=np.ones((1, 1), dtype=np.int8))


def quiet_delay_scenario(d_max, mu=10.0):
    # arrival 0 so each VNF layer sits at its service time 1/mu
    return hand_scenario(ue_counts=(1,), arrival_rates=(0.0,),
                         slice_rus=((0,),),
                         params=default_params(mu1=mu, mu2=mu, d_max=d_max))


# ---------------------------------------------------------------- delay


def test_delay_floor_hand_value():
    # layers cost 0.1 s each, budget 0.4 s -> floor 1/(0.4 - 0.2) = 5
    sc = quiet_delay_scenario(d_max=0.4)
    floors = delay_linearization(sc, one_on_one())
    assert floors == {0: pytest.approx(5.0)}


def test_delay_floor_pole():
    sc = quiet_delay_scenario(d_max=0.2 + 1e-6)
    floors = delay_linearization(sc, one_on_one())
    assert floors[0] == pytest.approx(1e6, rel=1e-3)
    with pytest.raises(InfeasibleDelayError, match="slice 0"):
        delay_linearization(quiet_delay_scenario(d_max=0.2), one_on_one())


def test_delay_floor_skips_unmapped_slice():
    sc = hand_scenario(ue_counts=(1,), arrival_rates=(0.0,),
                       slice_rus=((0,), (1,)),
                       params=default_params(mu1=10.0, mu2=10.0, d_max=0.4))
    a = np.zeros((1, 2), dtype=np.int8)
    a[0, 0] = 1
    floors = delay_linearization(sc, SliceMapping(a=a))
    assert set(floors) == {0}


def test_delay_floor_includes_offered_load():
    sc = hand_scenario(ue_counts=(1,), arrival_rates=(3.0,),
                       slice_rus=((0,),),
                       params=default_params(mu1=10.0, mu2=10.0, d_max=0.5))
    du, cu, _unstable = layer_delays(sc, np.array([3.0]))
    want = 1.0 / (0.5 - du[0] - cu[0]) + 3.0 * sc.params.packet_size_bits
    floors = delay_linearization(sc, one_on_one())
    assert floors[0] == pytest.approx(want)


# ----------------------------------------------------------- closed form


def unit_coefficient_scenario():
    """Bandwidth ln2 and noise 1/ln2 make y = (1+lam+kap) and z = 1."""
    params = default_params(bandwidth_hz=math.log(2.0),
                            noise_psd=1.0 / math.log(2.0))
    return hand_scenario(ue_counts=(1,), slice_rus=((0,),), params=params)


def zero_mults(sc):
    return Multipliers(rate_ue=np.zeros(sc.n_ues),
                       ru_cap_slot=np.zeros(len(sc.ru_slots())),
                       delay_slice=np.zeros(sc.n_slices))


def closed_form(sc, mapping, ch, bf, ibar, eta, mults=None):
    """PowerProblem.closed_form_power of the mapped instance."""
    pb = PowerProblem(sc, mapping, ch, bf, ibar, SolverOptions())
    return pb.closed_form_power(
        eta, mults if mults is not None else zero_mults(sc))


def inner_solve(sc, mapping, ch, bf, eta, max_iters=5000):
    """One inner solve on a fresh PowerProblem."""
    ibar = interference_upper_bound(sc, mapping, ch, bf)
    return subgradient_solve(PowerProblem(sc, mapping, ch, bf, ibar,
                                          SolverOptions(max_iters)), eta)


def test_closed_form_hand_unit_coefficients():
    # y=2 (lam=1), w=1 (h=1 so the precoder is 1), x=1 (eta=1, |w|^2=1),
    # z=1 -> p* = (y*w - x*z)/(x*w) = 1
    sc = unit_coefficient_scenario()
    ch = channels_from_matrix(sc, [[1.0]])
    bf = build_beamformers(sc, ch)
    mults = zero_mults(sc)
    mults.rate_ue[0] = 1.0
    out = closed_form(sc, one_on_one(), ch, bf, np.zeros(1), 1.0, mults)
    assert out[0] == pytest.approx(1.0)


def test_closed_form_clamps_to_zero_at_large_eta():
    sc = unit_coefficient_scenario()
    ch = channels_from_matrix(sc, [[1.0]])
    bf = build_beamformers(sc, ch)
    out = closed_form(sc, one_on_one(), ch, bf, np.zeros(1), 1e30)
    assert out[0] == 0.0


def test_closed_form_zero_price_degenerate():
    # with no price the objective grows without bound in p, so the UE
    # rides the per-UE cap
    sc = unit_coefficient_scenario()
    ch = channels_from_matrix(sc, [[1.0]])
    bf = build_beamformers(sc, ch)
    out = closed_form(sc, one_on_one(), ch, bf, np.zeros(1), 0.0)
    assert out[0] == sc.params.p_max


def test_closed_form_waterfilling_against_grid():
    # all multipliers zero, eta > 0: p* should maximize
    # B log2(1 + p g / z) - eta * x' * p over p >= 0
    sc = hand_scenario(ue_counts=(1,), slice_rus=((0,),))
    ch = channels_from_matrix(sc, [[math.sqrt(2.0)]])
    bf = build_beamformers(sc, ch)
    mapping = one_on_one()
    ibar = interference_upper_bound(sc, mapping, ch, bf)
    eta = 1e5
    p_star = closed_form(sc, mapping, ch, bf, ibar, eta)[0]
    assert 0.0 < p_star < sc.params.p_max

    g = beam_gains(sc, mapping, ch, bf)[0]
    z = sc.params.bandwidth_hz * sc.params.noise_psd + ibar[0]
    x_price = float(np.sum(np.abs(bf.w[(0, 0)]) ** 2)) * eta

    def objective(p):
        return sc.params.bandwidth_hz * np.log2(1.0 + p * g / z) - x_price * p

    grid = np.linspace(0.0, sc.params.p_max, 200001)
    best = grid[np.argmax(objective(grid))]
    assert objective(p_star) >= objective(grid).max() - 1e-9
    assert abs(p_star - best) <= grid[1] - grid[0]


# ----------------------------------------------------------- subgradient


def test_subgradient_eta_zero_rides_the_ru_cap():
    # |h|^2 = 1/2 makes |w|^2 = 2, so the per-slot cap binds at
    # p = (p_max - sigma_q^2)/2, well below the per-UE clamp
    sc = hand_scenario(ue_counts=(1,), slice_rus=((0,),))
    ch = channels_from_matrix(sc, [[1.0 / math.sqrt(2.0)]])
    bf = build_beamformers(sc, ch)
    mapping = one_on_one()
    ibar = interference_upper_bound(sc, mapping, ch, bf)
    res = inner_solve(sc, mapping, ch, bf, eta=0.0, max_iters=20000)
    sq = bf.slot_sigma[0]
    p_cap = (sc.params.p_max - sq) / 2.0
    assert res.feasible and res.converged
    assert res.mults.ru_cap_slot.max() > 0.0
    assert res.powers.p[0] == pytest.approx(p_cap, rel=1e-4)

    # grid oracle over slot-feasible powers: the optimum is the cap
    g = beam_gains(sc, mapping, ch, bf)[0]
    z = sc.params.bandwidth_hz * sc.params.noise_psd + ibar[0]
    grid = np.linspace(0.0, sc.params.p_max, 4001)
    rates = sc.params.bandwidth_hz * np.log2(1.0 + grid * g / z)
    ok = 2.0 * grid + sq <= sc.params.p_max * (1.0 + 1e-6)
    r_sub = sc.params.bandwidth_hz * math.log2(1.0 + res.powers.p[0] * g / z)
    assert r_sub == pytest.approx(rates[ok].max(), rel=1e-3)


def test_subgradient_reports_unreachable_rate_floor():
    sc = hand_scenario(ue_counts=(1,), slice_rus=((0,),),
                       params=default_params(r_min=1e7))
    ch = channels_from_matrix(sc, [[math.sqrt(2.0)]])
    bf = build_beamformers(sc, ch)
    res = inner_solve(sc, one_on_one(), ch, bf, eta=0.0, max_iters=300)
    assert not res.feasible
    assert not res.converged
    assert "minimum rate" in res.violated
    assert res.max_violation > 0


def test_subgradient_phase1_reports_cap_blocked_floor():
    # |w|^2 = 2 caps the slot at p = (p_max - sigma_q^2)/2, and the rate
    # floor needs 3/4 of p_max: the floor alone is reachable below p_max,
    # so only phase I can show that no strictly feasible point exists
    def instance(r_min):
        sc = hand_scenario(ue_counts=(1,), slice_rus=((0,),),
                           params=default_params(r_min=r_min))
        ch = channels_from_matrix(sc, [[1.0 / math.sqrt(2.0)]])
        bf = build_beamformers(sc, ch)
        return sc, ch, bf, interference_upper_bound(sc, one_on_one(), ch, bf)

    sc, ch, bf, ibar = instance(1.0)
    g = beam_gains(sc, one_on_one(), ch, bf)[0]
    z = sc.params.bandwidth_hz * sc.params.noise_psd + ibar[0]
    sc, ch, bf, ibar = instance(sc.params.bandwidth_hz * math.log2(
        1.0 + 0.75 * sc.params.p_max * g / z))
    res = inner_solve(sc, one_on_one(), ch, bf, eta=0.0)
    assert res.stop == "infeasible"
    assert not res.feasible and not res.converged
    assert res.violated == ["RU power cap"]
    assert res.iterations < 200


def test_central_path_stops_on_a_nan_newton_step():
    # a zero slice-floor slack at the start makes the Newton direction
    # NaN: the path must end there without a certificate, not spend its
    # budget stepping into NaN
    q, x = np.ones(1), np.ones(1)
    prob = (q, 0.0, np.ones((1, 1)), np.log1p(q * x), np.zeros((0, 1)),
            np.zeros(0), 2.0)
    points = list(_central_path(x, np.zeros(1), 1.0, prob, 50))
    assert all(np.all(np.isfinite(p)) for p, *_ in points)
    _p, _t, duals, steps = points[-1]
    assert duals is None and steps < 50


def test_inner_solve_reports_a_breakdown_as_cap():
    # a start on the p_max bound has a zero box slack, so the first
    # Newton direction is NaN
    sc, ch, bf = easy_1x1()
    mapping = one_on_one()
    ibar = interference_upper_bound(sc, mapping, ch, bf)
    pb = PowerProblem(sc, mapping, ch, bf, ibar, SolverOptions())
    pb.x = np.full(1, sc.params.p_max)
    res = subgradient_solve(pb, pb.eta0)
    assert res.stop == "cap" and not res.converged
    assert np.all(np.isfinite(res.powers.p)) and res.gap == math.inf


def test_inner_solve_that_spends_its_budget_reports_cap():
    # with 5 Newton steps per centring, the first four points of this
    # instance's path spend their whole budget; a point where the budget
    # ran out is not centred, so m/t certifies nothing there and the stop
    # is the cap
    sc = generate_scenario(_ee_config(12, 12, {}), seed=0)
    res = solve_joint(sc, SolverOptions(max_iters=5))
    spent = [row for row in res.trace if row.iterations >= 5]
    assert len(spent) >= 3
    assert all(row.stop == "cap" and not row.converged for row in spent)


def seed21_instance():
    cfg = GeneratorConfig(n_services=2, mean_ues=1.0, max_ues=1, n_slices=1,
                          n_rus=30, rus_per_slice=30, p_max=0.5,
                          sigma_q_frac=3.5e-4, r_min_per_hz=2.0,
                          region_m=100.0)
    sc = generate_scenario(cfg, seed=21)
    ch = build_channels(sc)
    bf = build_beamformers(sc, ch)
    mres = map_slices_to_services(sc, bf)
    assert not mres.uncovered_services
    return sc, ch, bf, mres.mapping


def grid_search_f(sc, ch, bf, mapping, ibar, eta, n=200):
    """Exhaustive F = R - eta*P over an n x n power grid, honoring the
    rate floors, slot power caps, fronthaul caps, and slice delay floors."""
    params = sc.params
    gains = beam_gains(sc, mapping, ch, bf)
    z = params.bandwidth_hz * params.noise_psd + ibar
    w2 = slot_weight_matrix(sc, mapping, bf)
    sigma2 = bf.slot_sigma
    fh_cap = sigma2 * 2.0 ** params.c_max

    axis = np.linspace(0.0, params.p_max, n)
    p0, p1 = np.meshgrid(axis, axis, indexing="ij")
    pts = np.stack([p0.ravel(), p1.ravel()], axis=1)      # (n*n, 2)
    rates = params.bandwidth_hz * np.log2(1.0 + pts * gains / z)
    slot_p = pts @ w2.T + sigma2                           # (n*n, slots)

    rtol = 1e-6
    ok = np.all(rates >= params.r_min * (1.0 - rtol), axis=1)
    ok &= np.all(slot_p <= params.p_max * (1.0 + rtol), axis=1)
    ok &= np.all(slot_p <= fh_cap * (1.0 + rtol), axis=1)
    for s, floor in delay_linearization(sc, mapping).items():
        rows = sorted({u for v in range(sc.n_services) if mapping.a[v, s]
                       for u in sc.service_ue_indices(v)})
        ok &= rates[:, rows].sum(axis=1) >= floor * (1.0 - rtol)

    f_all = rates.sum(axis=1) - eta * slot_p.sum(axis=1)
    assert ok.any()
    return float(f_all[ok].max())


def test_subgradient_2ue_matches_grid_search():
    sc, ch, bf, mapping = seed21_instance()
    ibar = interference_upper_bound(sc, mapping, ch, bf)
    # fix eta at the rate/power ratio of the uniform full-power point
    pw0 = PowerAllocation.uniform(sc, sc.params.p_max)
    r0 = float(ue_rates(sc, mapping, ch, bf, pw0, ibar).sum())
    eta = r0 / float(ru_powers_all(sc, mapping, bf, pw0).sum())

    res = inner_solve(sc, mapping, ch, bf, eta=eta, max_iters=4000)
    assert res.feasible
    f_grid = grid_search_f(sc, ch, bf, mapping, ibar, eta)
    assert res.f_value == pytest.approx(f_grid, rel=0.01)


# ------------------------------------------------------------ joint loop


def easy_1x1():
    sc = hand_scenario(ue_counts=(1,), slice_rus=((0,),))
    ch = channels_from_matrix(sc, [[math.sqrt(2.0)]])
    return sc, ch, build_beamformers(sc, ch)


def test_solve_joint_1x1_converges_to_root():
    sc, ch, bf = easy_1x1()
    res = solve_joint(sc, SolverOptions(), ch=ch, bf=bf)
    assert res.converged
    assert res.eta > 0
    assert res.feasible
    assert abs(res.trace[-1].f_value) <= 1e-6 * max(res.r_tot, 1.0)


def test_one_step_from_eta0_is_not_converged():
    sc, ch, bf = easy_1x1()
    mapping = one_on_one()
    ibar = interference_upper_bound(sc, mapping, ch, bf)
    pb = PowerProblem(sc, mapping, ch, bf, ibar, SolverOptions())
    res = subgradient_solve(pb, pb.eta0)
    # eta starts at R/P of the phase-I point (the rate-floor powers miss
    # the delay floor here), where F(eta0) is still 87 % of R_tot: one
    # step is nowhere near the root
    assert res.eta == pb.eta0
    assert abs(res.f_value) > EPS_ETA * max(res.r_tot, 1.0)


SHARED_PRBS = {"prb_mode": "shared", "prbs_per_slice": 16, "prbs_per_ue": 2}


def one_path_solve(n_services, mean_ues, overrides, seed):
    """solve_joint on an ee_vs_mean_ues point, checking what every path
    must do: start at a feasible ratio, so that the dual bound on F(eta0)
    is >= 0, keep eta nondecreasing and converge.  Returns the result and
    its Newton steps."""
    sc = generate_scenario(_ee_config(n_services, mean_ues, overrides),
                           seed=seed)
    res = solve_joint(sc, SolverOptions(max_iters=1500))
    first = res.trace[0]
    assert first.eta > 0 and first.f_value + first.gap >= 0
    etas = [row.eta for row in res.trace]
    assert all(b >= a for a, b in zip(etas, etas[1:]))
    assert res.converged
    return res, sum(row.iterations for row in res.trace)


def test_solve_joint_starts_feasible_and_warm_starts():
    # ee_vs_mean_ues at U=147: a cold start at eta = 0 with phase I and
    # t = 1 in every step took 301 Newton steps over 8 steps, and a
    # barrier solved to a 1e-8 gap per Dinkelbach step 152; one path
    # takes 42
    res, steps = one_path_solve(12, 12, {}, 0)
    assert res.trace[0].f_value >= 0
    assert steps <= 55
    assert res.eta == pytest.approx(2.0473907e8, rel=1e-6)


@pytest.mark.parametrize("n_services, mean_ues, overrides, seed, eta, steps", [
    (6, 8, {}, 0, 2.1763464e8, 55),
    (3, 8, SHARED_PRBS, 2, 5.0347801e6, 55),
    (96, 11, {}, 0, 8.3162946e7, 180),
], ids=["u52", "u27-shared-prbs", "u1074"])
def test_one_path_keeps_the_dinkelbach_eta(n_services, mean_ues, overrides,
                                           seed, eta, steps):
    # eta as a barrier solved to a 1e-8 gap per Dinkelbach step gave it,
    # in 155, 134 and 608 Newton steps; one path takes 45, 46 and 147.
    # At U=1074 eta0 is 14x below the root: growing t at every centred
    # point, instead of recentring after a large eta move, took 810
    res, spent = one_path_solve(n_services, mean_ues, overrides, seed)
    assert spent <= steps
    assert res.eta == pytest.approx(eta, rel=1e-6)


def test_solve_joint_raises_on_uncovered_services():
    sc = hand_scenario(ue_counts=(1,), slice_rus=((0,),),
                       params=default_params(r_min=1e12))
    ch = channels_from_matrix(sc, [[math.sqrt(2.0)]])
    bf = build_beamformers(sc, ch)
    with pytest.raises(InfeasibleMappingError) as err:
        solve_joint(sc, ch=ch, bf=bf)
    assert err.value.result.uncovered_services == [0]


@pytest.fixture(scope="module")
def joint13():
    sc = generate_scenario(small_joint_config(), seed=13)
    ch = build_channels(sc)
    bf = build_beamformers(sc, ch)
    res = solve_joint(sc, SolverOptions(max_iters=2000), ch=ch, bf=bf)
    return sc, ch, bf, res


def test_solve_joint_2x2_within_2pct_of_oracle(joint13):
    sc, ch, bf, res = joint13
    assert res.feasible
    oracle = brute_force_mapping(sc, ch, bf, power_grid_n=64)
    assert oracle.feasible
    assert res.eta == pytest.approx(oracle.eta, rel=0.02)


def test_solve_joint_eta_trace_nondecreasing(joint13):
    *_, res = joint13
    etas = [row.eta for row in res.trace]
    assert all(b >= a for a, b in zip(etas, etas[1:]))
    assert res.trace[-1].eta > 0


def test_solve_joint_power_bounds(joint13):
    sc, ch, bf, res = joint13
    assert np.all(res.powers.p >= 0.0)
    slot_p = ru_powers_all(sc, res.mapping, bf, res.powers)
    assert np.all(slot_p <= sc.params.p_max * (1.0 + 1e-6))
