"""Power solver: delay linearization, the dual bound's closed-form powers,
the exact per-slice inner solve and its agreement with the barrier, the
barrier inner solve and its breakdown guard, Dinkelbach."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import (channels_from_matrix, default_params, evaluator,
                      hand_scenario, small_joint_config)
from oranslice import power, radio
from oranslice.cli import _ee_config
from oranslice.oracle import brute_force_mapping
from oranslice.power import (EPS_ETA, InfeasibleDelayError,
                             InfeasibleMappingError, Multipliers, PowerProblem,
                             SolverOptions, T_STEP, _barrier, _central_path,
                             delay_linearization, solve_joint, solve_power,
                             subgradient_solve)
from oranslice.queueing import layer_delays, slice_sums, transmission_delays
from oranslice.radio import (MappingEvaluator, SliceMapping,
                             build_beamformers, build_channels,
                             fronthaul_rates_all)
from oranslice.scenario import GeneratorConfig, generate_scenario
from oranslice.slicing import check_feasibility, map_slices_to_services
from test_slicing import ee_shared_configs, soundness_configs


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
    floors = delay_linearization(evaluator(sc, one_on_one()))
    assert floors == {0: pytest.approx(5.0)}


def test_delay_floor_pole():
    sc = quiet_delay_scenario(d_max=0.2 + 1e-6)
    floors = delay_linearization(evaluator(sc, one_on_one()))
    assert floors[0] == pytest.approx(1e6, rel=1e-3)
    with pytest.raises(InfeasibleDelayError, match="slice 0"):
        delay_linearization(evaluator(
            quiet_delay_scenario(d_max=0.2), one_on_one()))


def test_delay_floor_skips_unmapped_slice():
    sc = hand_scenario(ue_counts=(1,), arrival_rates=(0.0,),
                       slice_rus=((0,), (1,)),
                       params=default_params(mu1=10.0, mu2=10.0, d_max=0.4))
    a = np.zeros((1, 2), dtype=np.int8)
    a[0, 0] = 1
    floors = delay_linearization(evaluator(sc, SliceMapping(a=a)))
    assert set(floors) == {0}


def test_delay_floor_includes_offered_load():
    sc = hand_scenario(ue_counts=(1,), arrival_rates=(3.0,),
                       slice_rus=((0,),),
                       params=default_params(mu1=10.0, mu2=10.0, d_max=0.5))
    du, cu, _unstable = layer_delays(sc, np.array([3.0]))
    want = 1.0 / (0.5 - du[0] - cu[0]) + 3.0 * sc.params.packet_size_bits
    floors = delay_linearization(evaluator(sc, one_on_one()))
    assert floors[0] == pytest.approx(want)


# ----------------------------------------------------------- closed form


def unit_coefficient_scenario():
    """Bandwidth ln2 and noise 1/ln2 make y = (1+lam+kap), and with no
    quantization noise z = 1."""
    params = default_params(bandwidth_hz=math.log(2.0),
                            noise_psd=1.0 / math.log(2.0))
    return hand_scenario(ue_counts=(1,), slice_rus=((0,),), params=params,
                         sigma_q2=0.0)


def zero_mults(sc):
    return Multipliers(rate_ue=np.zeros(sc.n_ues),
                       ru_cap_slot=np.zeros(len(sc.ru_slots())),
                       delay_slice=np.zeros(sc.n_slices))


def problem(sc, mapping, bf, max_iters=5000):
    """A PowerProblem on the mapping's evaluator."""
    return PowerProblem(MappingEvaluator(sc, bf, mapping),
                        SolverOptions(max_iters))


def closed_form(sc, mapping, bf, eta, mults=None):
    """PowerProblem.closed_form_power of the mapped instance."""
    return problem(sc, mapping, bf).closed_form_power(
        eta, mults if mults is not None else zero_mults(sc))


def inner_solve(sc, mapping, ch, bf, eta, max_iters=5000):
    """One inner solve on a fresh PowerProblem."""
    return subgradient_solve(problem(sc, mapping, bf, max_iters), eta)


def solve_to_gap(pb, eta):
    """`subgradient_solve` at a fixed eta, solved to its gap: t grows by
    T_STEP after each centred point until the dual gap is within 1e-8 of
    R_tot, or a solve stops short of a centred point."""
    while True:
        res = subgradient_solve(pb, eta)
        if res.stop != "gap" or res.gap <= 1e-8 * res.r_tot:
            return res
        pb.t *= T_STEP


def test_closed_form_hand_unit_coefficients():
    # y=2 (lam=1), w=1 (h=1 so the precoder is 1), x=1 (eta=1, |w|^2=1),
    # z=1 -> p* = (y*w - x*z)/(x*w) = 1
    sc = unit_coefficient_scenario()
    ch = channels_from_matrix(sc, [[1.0]])
    bf = build_beamformers(sc, ch)
    mults = zero_mults(sc)
    mults.rate_ue[0] = 1.0
    out = closed_form(sc, one_on_one(), bf, 1.0, mults)
    assert out[0] == pytest.approx(1.0)


def test_closed_form_clamps_to_zero_at_large_eta():
    sc = unit_coefficient_scenario()
    ch = channels_from_matrix(sc, [[1.0]])
    bf = build_beamformers(sc, ch)
    out = closed_form(sc, one_on_one(), bf, 1e30)
    assert out[0] == 0.0


def test_closed_form_zero_price_degenerate():
    # with no price the objective grows without bound in p, so the UE
    # rides the per-UE cap
    sc = unit_coefficient_scenario()
    ch = channels_from_matrix(sc, [[1.0]])
    bf = build_beamformers(sc, ch)
    out = closed_form(sc, one_on_one(), bf, 0.0)
    assert out[0] == sc.params.p_max


def test_closed_form_waterfilling_against_grid():
    # all multipliers zero, eta > 0: p* should maximize
    # B log2(1 + p g / z) - eta * x' * p over p >= 0
    sc = hand_scenario(ue_counts=(1,), slice_rus=((0,),))
    ch = channels_from_matrix(sc, [[math.sqrt(2.0)]])
    bf = build_beamformers(sc, ch)
    mapping = one_on_one()
    ev = MappingEvaluator(sc, bf, mapping)
    eta = 1e5
    p_star = closed_form(sc, mapping, bf, eta)[0]
    assert 0.0 < p_star < sc.params.p_max

    g = ev.gain[0]
    z = sc.params.bandwidth_hz * sc.params.noise_psd + ev.interference[0]
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
    ev = MappingEvaluator(sc, bf, mapping)
    res = solve_to_gap(PowerProblem(ev, SolverOptions(20000)), 0.0)
    sq = bf.slot_sigma[0]
    p_cap = (sc.params.p_max - sq) / 2.0
    assert res.feasible and res.converged
    assert res.mults.ru_cap_slot.max() > 0.0
    assert res.powers.p[0] == pytest.approx(p_cap, rel=1e-4)

    # grid oracle over slot-feasible powers: the optimum is the cap
    g = ev.gain[0]
    z = sc.params.bandwidth_hz * sc.params.noise_psd + ev.interference[0]
    grid = np.linspace(0.0, sc.params.p_max, 4001)
    rates = sc.params.bandwidth_hz * np.log2(1.0 + grid * g / z)
    ok = 2.0 * grid + sq <= sc.params.p_max * (1.0 + 1e-6)
    r_sub = sc.params.bandwidth_hz * math.log2(1.0 + res.powers.p[0] * g / z)
    assert r_sub == pytest.approx(rates[ok].max(), rel=1e-3)


def families(violations):
    """The constraint families of `verdict` messages."""
    return {text.split(":")[0] for text in violations}


def unreachable_floor_instance():
    """A rate floor that the UE misses even at p_max."""
    sc = hand_scenario(ue_counts=(1,), slice_rus=((0,),),
                       params=default_params(r_min=1e7))
    ch = channels_from_matrix(sc, [[math.sqrt(2.0)]])
    return sc, ch, build_beamformers(sc, ch)


def test_subgradient_reports_unreachable_rate_floor():
    sc, ch, bf = unreachable_floor_instance()
    res = inner_solve(sc, one_on_one(), ch, bf, eta=0.0, max_iters=300)
    assert not res.feasible
    assert not res.converged
    assert "minimum rate" in families(res.violations)
    assert res.max_violation > 0


def cap_blocked_instance():
    """|w|^2 = 2 caps the slot at p = (p_max - sigma_q^2)/2, and the rate
    floor needs 3/4 of p_max: the floor alone is reachable below p_max,
    so only phase I can show that no strictly feasible point exists."""
    def instance(r_min):
        sc = hand_scenario(ue_counts=(1,), slice_rus=((0,),),
                           params=default_params(r_min=r_min))
        ch = channels_from_matrix(sc, [[1.0 / math.sqrt(2.0)]])
        bf = build_beamformers(sc, ch)
        return sc, ch, bf, MappingEvaluator(sc, bf, one_on_one())

    sc, ch, bf, ev = instance(1.0)
    g = ev.gain[0]
    z = sc.params.bandwidth_hz * sc.params.noise_psd + ev.interference[0]
    return instance(sc.params.bandwidth_hz * math.log2(
        1.0 + 0.75 * sc.params.p_max * g / z))[:3]


def test_subgradient_phase1_reports_cap_blocked_floor():
    sc, ch, bf = cap_blocked_instance()
    res = inner_solve(sc, one_on_one(), ch, bf, eta=0.0)
    assert res.stop == "infeasible"
    assert not res.feasible and not res.converged
    assert families(res.violations) == {"RU power cap"}
    assert res.iterations < 200


def test_solve_power_verdict_is_check_feasibility_on_its_powers():
    # the final verdict comes from the solve's own evaluator; on the
    # cap-blocked instance it lists a violation
    sc, ch, bf = cap_blocked_instance()
    res = solve_power(sc, one_on_one(), ch, bf)
    report = check_feasibility(sc, ch, bf, one_on_one(), res.powers)
    assert res.violations
    assert (res.feasible, res.violations) == (report.ok, report.violations)


def defined_excess(sc, bf, mapping, p):
    """The largest relative excess over a limit at powers p, entry by
    entry: value/limit - 1 for the RU power and fronthaul caps, 1 -
    rate/r_min for each served UE, delay/d_max - 1 for each active slice,
    inf for an unstable stage; 0 when none is positive."""
    params, incidence = sc.params, mapping.incidence(sc)
    rates, p_bar = MappingEvaluator(sc, bf, mapping).at(p)
    served, active = mapping.a.any(axis=1)[sc.ue_service], mapping.a.any(0)
    alpha = slice_sums(sc.arrival_rates, incidence, sc.n_slices)
    du, cu, unstable = layer_delays(sc, alpha)
    tx, unstable = transmission_delays(
        sc, alpha, slice_sums(rates, incidence, sc.n_slices), active,
        unstable)
    excess = [*(p_bar / params.p_max - 1.0),
              *(1.0 - rates[served] / params.r_min),
              *(fronthaul_rates_all(bf, p_bar) / params.c_max - 1.0),
              *((du + cu + tx)[active] / params.d_max - 1.0)]
    return math.inf if unstable else max(0.0, *excess)


def sweep_u147():
    """The U=147 ee_vs_mean_ues point (seed 0) and the sweep's mapping."""
    sc = generate_scenario(_ee_config(12, 12, {}), seed=0)
    ch = build_channels(sc)
    bf = build_beamformers(sc, ch)
    return sc, ch, bf, map_slices_to_services(sc, bf).mapping


@pytest.mark.parametrize("instance", [
    sweep_u147, lambda: coupled_u147_instance(),
    lambda: (*cap_blocked_instance(), one_on_one()),
    lambda: (*unreachable_floor_instance(), one_on_one()),
], ids=["exact", "barrier", "cap-blocked", "unreachable-floor"])
def test_each_point_is_judged_once_by_verdict(instance, monkeypatch):
    # every trace point carries the judge's verdict on its own powers,
    # with the defined excess; the solve judges each point once, inside
    # subgradient_solve, and nothing after its last point
    sc, ch, bf, mapping = instance()
    events, judge, step = [], power.verdict, power.subgradient_solve
    monkeypatch.setattr(power, "verdict",
                        lambda *args: events.append("verdict") or judge(*args))
    monkeypatch.setattr(power, "subgradient_solve",
                        lambda *args: (step(*args), events.append("point"))[0])
    res = solve_power(sc, mapping, ch, bf, SolverOptions(1500))
    assert events == ["verdict", "point"] * len(res.trace)
    for row in res.trace:
        report = check_feasibility(sc, ch, bf, mapping, row.powers)
        assert (row.feasible, row.violations) == (report.ok,
                                                  report.violations)
        assert row.max_violation == report.max_violation == defined_excess(
            sc, bf, mapping, row.powers.p)
    last = res.trace[-1]
    assert (res.feasible, res.violations) == (last.feasible, last.violations)


def test_solve_power_rejects_a_mapping_that_leaves_a_service_out():
    sc = hand_scenario(ue_counts=(1, 1), slice_rus=((0,),))
    ch = channels_from_matrix(sc, [[math.sqrt(2.0), math.sqrt(2.0)]])
    a = np.zeros((2, 1), dtype=np.int8)
    a[0, 0] = 1
    with pytest.raises(ValueError, match=r"services \[1\] have no slice"):
        solve_power(sc, SliceMapping(a=a), ch, build_beamformers(sc, ch))


def test_solve_power_builds_each_part_once(monkeypatch):
    # the mapping's evaluator (interference bound, beam gains, |w|^2
    # blocks and delay terms) is built once per solve, however many
    # points the path takes and judges
    sc, ch, bf, mapping = sweep_u147()
    builds = []
    init = radio.MappingEvaluator.__init__

    def counted(ev, *args):
        builds.append(args)
        init(ev, *args)
    monkeypatch.setattr(radio.MappingEvaluator, "__init__", counted)
    res = solve_power(sc, mapping, ch, bf, SolverOptions(max_iters=1500))
    assert len(res.trace) > 1
    assert len(builds) == 1


def test_central_path_stops_on_a_nan_newton_step():
    # a zero slice-floor slack at the start makes the Newton direction
    # NaN: the path must end there without a certificate, not spend its
    # budget stepping into NaN
    q, x = np.ones(1), np.ones(1)
    prob = _barrier(q, 0.0, np.ones((1, 1)), np.log1p(q * x),
                    np.zeros((0, 1)), np.zeros(0), 2.0, 1)
    points = list(_central_path(x, np.zeros(1), 1.0, prob, 50))
    assert all(np.all(np.isfinite(p)) for p, *_ in points)
    _p, _t, duals, steps = points[-1]
    assert duals is None and steps < 50


def newton_solves(monkeypatch):
    """Sizes of the systems handed to np.linalg.solve from now on."""
    sizes, solve = [], np.linalg.solve
    monkeypatch.setattr(np.linalg, "solve",
                        lambda a, b: sizes.append(len(a)) or solve(a, b))
    return sizes


def mapped_problem(sc, mapping, ch):
    return problem(sc, mapping, build_beamformers(sc, ch))


def overlapping_floor_rows():
    # service 0 on slices 0 and 1: its UEs sit in two slice-floor rows
    sc = generate_scenario(_ee_config(2, 4, {}), seed=1)
    a = np.zeros((2, 3), dtype=np.int8)
    a[0, :2] = a[1, 2] = 1
    return mapped_problem(sc, SliceMapping(a=a), build_channels(sc))


def kept_cap_row():
    # three UEs on one slice, one per RU; |h|^2 = 1/2 makes RU 0's slot
    # weight 2, so its cap can bind and its row is kept
    sc = hand_scenario(ue_counts=(3,), slice_rus=((0, 1, 2),))
    ch = channels_from_matrix(sc, np.diag([1.0 / math.sqrt(2.0),
                                           math.sqrt(2.0), math.sqrt(2.0)]))
    return mapped_problem(sc, one_on_one(), ch)


@pytest.mark.parametrize("build", [overlapping_floor_rows, kept_cap_row],
                         ids=["overlapping-floors", "kept-cap"])
def test_general_newton_solve_still_stops_on_a_certificate(build,
                                                           monkeypatch):
    pb = build()
    q, _rho_min, _M, floor, _W, b, *_ = pb.prob
    assert pb.level is None and len(floor) + len(b) < q.size
    sizes = newton_solves(monkeypatch)
    res = solve_to_gap(pb, pb.eta0)
    assert sizes and set(sizes) == {len(floor) + len(b)}
    assert res.stop == "gap" and res.converged and res.feasible
    assert 0 <= res.gap <= 1e-6 * res.r_tot


def test_inner_solve_reports_a_breakdown_as_cap():
    # a start on the p_max bound has a zero box slack, so the first
    # Newton direction is NaN
    pb = kept_cap_row()
    pb.x = np.full(pb.sc.n_ues, pb.sc.params.p_max)
    res = subgradient_solve(pb, pb.eta0)
    assert res.stop == "cap" and not res.converged
    assert np.all(np.isfinite(res.powers.p)) and res.gap == math.inf


def test_inner_solve_that_spends_its_budget_reports_cap():
    # with 4 Newton steps per centring, all 7 points of this instance's
    # path spend their whole budget; a point where the budget ran out is
    # not centred, so m/t certifies nothing there and the stop is the cap
    res = coupled_u147(max_iters=4)
    spent = [row for row in res.trace if row.iterations >= 4]
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


def grid_search_f(sc, ch, bf, mapping, eta, n=200):
    """Exhaustive F = R - eta*P over an n x n power grid, honoring the
    rate floors, slot power caps, fronthaul caps, and slice delay floors."""
    params = sc.params
    ev = MappingEvaluator(sc, bf, mapping)
    gains = ev.gain
    z = params.bandwidth_hz * params.noise_psd + ev.interference
    w2 = np.zeros((len(bf.slot_sigma), sc.n_ues))
    for rows, ues, block in ev.blocks:
        w2[rows, ues] += block
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
    for s, floor in delay_linearization(ev).items():
        rows = sorted({u for v in range(sc.n_services) if mapping.a[v, s]
                       for u in sc.service_ue_indices(v)})
        ok &= rates[:, rows].sum(axis=1) >= floor * (1.0 - rtol)

    f_all = rates.sum(axis=1) - eta * slot_p.sum(axis=1)
    assert ok.any()
    return float(f_all[ok].max())


def test_subgradient_2ue_matches_grid_search():
    sc, ch, bf, mapping = seed21_instance()
    # fix eta at the rate/power ratio of the uniform full-power point
    rates, slots = MappingEvaluator(sc, bf, mapping).at()
    eta = float(rates.sum()) / float(slots.sum())

    res = inner_solve(sc, mapping, ch, bf, eta=eta, max_iters=4000)
    assert res.feasible
    f_grid = grid_search_f(sc, ch, bf, mapping, eta)
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
    pb = problem(sc, one_on_one(), bf)
    res = subgradient_solve(pb, pb.eta0)
    # eta starts at R/P of the cheapest powers that meet every floor (the
    # rate-floor powers miss the delay floor here), where F(eta0) is still
    # 65 % of R_tot: one step is nowhere near the root
    assert res.eta == pb.eta0
    assert abs(res.f_value) > EPS_ETA * max(res.r_tot, 1.0)


SHARED_PRBS = {"prb_mode": "shared", "prbs_per_slice": 16, "prbs_per_ue": 2}


def one_path(res):
    """What every path must do: start at a feasible ratio, so that the
    dual bound on F(eta0) is >= 0, keep eta nondecreasing and converge.
    Returns the result and its inner iterations."""
    first = res.trace[0]
    assert first.eta > 0 and first.f_value + first.gap >= 0
    etas = [row.eta for row in res.trace]
    assert all(b >= a for a, b in zip(etas, etas[1:]))
    assert res.converged
    return res, sum(row.iterations for row in res.trace)


def one_path_solve(n_services, mean_ues, overrides, seed):
    """`one_path` of solve_joint on an ee_vs_mean_ues point."""
    sc = generate_scenario(_ee_config(n_services, mean_ues, overrides),
                           seed=seed)
    return one_path(solve_joint(sc, SolverOptions(max_iters=1500)))


def coupled_u147_instance():
    """`sweep_u147` with service 1 also on slice 4: its UEs sit in two
    slice-floor rows, so the power step takes the barrier."""
    sc, ch, bf, mapping = sweep_u147()
    mapping.a[1, 4] = 1
    assert mapped_problem(sc, mapping, ch).level is None
    return sc, ch, bf, mapping


def coupled_u147(max_iters=1500):
    """solve_power on `coupled_u147_instance`."""
    sc, ch, bf, mapping = coupled_u147_instance()
    return solve_power(sc, mapping, ch, bf, SolverOptions(max_iters))


def test_solve_joint_starts_feasible_and_warm_starts():
    # the coupled U=147 instance, whose one path takes 36 Newton steps.
    # eta0 is the ratio of a feasible point, so F(eta0) >= 0: the first
    # centred point, at t = 1, reads F < 0 within its gap, so the path
    # recentres at eta0 (at t = T_STEP, since that gap is above the stop
    # tolerance) and the second point reads F >= 0
    res, steps = one_path(coupled_u147())
    first, second = res.trace[0], res.trace[1]
    assert -first.gap <= first.f_value < 0
    assert second.eta == first.eta
    assert second.f_value >= 0
    assert steps <= 42
    assert res.eta == pytest.approx(3.0732407e8, rel=1e-6)


def test_t_grows_until_the_certificate_is_tight():
    # t grows by T_STEP after every centred point whose certified gap is
    # above the stop tolerance: 6 centred points on the coupled U=147
    # instance
    res = coupled_u147()
    assert [row.iterations for row in res.trace] == [9, 4, 5, 5, 7, 6]
    assert res.eta == pytest.approx(3.073240744917153e8, rel=1e-12)


def test_exact_power_step_pinned():
    # the sweep's mapping at U=147 is slice-separable: each Dinkelbach
    # point is one exact maximization, and 4 reach the root
    sc = generate_scenario(_ee_config(12, 12, {}), seed=0)
    res = solve_joint(sc, SolverOptions(max_iters=1500))
    assert [row.iterations for row in res.trace] == [1, 1, 1, 1]
    assert all(row.stop == "gap" for row in res.trace)
    assert res.converged and res.feasible
    assert res.eta == pytest.approx(3.156451436381245e8, rel=1e-12)


@pytest.mark.parametrize("n_services, mean_ues, overrides, seed, eta, steps", [
    (6, 8, {}, 0, 2.8406707e8, 30),
    (3, 8, SHARED_PRBS, 2, 1.4911088e7, 55),
    (96, 11, {}, 0, 3.2111482e8, 70),
], ids=["u52", "u27-shared-prbs", "u1074"])
def test_one_path_keeps_the_dinkelbach_eta(n_services, mean_ues, overrides,
                                           seed, eta, steps):
    # eta as a fresh barrier solved to a 1e-8 gap at each Dinkelbach step
    # gives it, in 83, 202 and 199 Newton steps; one barrier path took 18,
    # 43 and 47, and the exact path takes 4 points on each
    res, spent = one_path_solve(n_services, mean_ues, overrides, seed)
    assert spent <= steps
    assert res.eta == pytest.approx(eta, rel=1e-6)


def on_the_barrier(mp):
    """Put every PowerProblem that would take the exact path on the
    barrier instead: its problem's barrier data, and the strictly
    feasible start phase I takes (p_max stepped towards p_lo until every
    slice floor holds strictly)."""
    real = power.PowerProblem

    def barrier_problem(ev, *args):
        pb = real(ev, *args)
        if pb.level is not None:
            sc = pb.sc
            p_max, floor = sc.params.p_max, pb.floors / pb.nat
            M = np.asfortranarray(np.arange(len(floor))[:, None] == pb.row,
                                  dtype=float)
            pb.prob = _barrier(pb.q, sc.params.r_min / pb.nat, M, floor,
                               np.zeros((0, sc.n_ues)), np.zeros(0), p_max,
                               sc.n_ues)
            starts = (p_max - theta * (p_max - pb.p_lo)
                      for theta in 0.5 ** np.arange(1, 40))
            pb.x = next(p for p in starts
                        if np.all(M @ np.log1p(pb.q * p) > floor))
            pb.level = None
        return pb
    mp.setattr(power, "PowerProblem", barrier_problem)


def free_ue0(mp):
    """Give UE 0 a zero power price c_0: its stream charges no slot."""
    real = power.MappingEvaluator

    def free(*args):
        ev = real(*args)
        ev.blocks = [(rows, ues, np.where(np.arange(ues.start, ues.stop) == 0,
                                          0.0, block))
                     for rows, ues, block in ev.blocks]
        return ev
    mp.setattr(power, "MappingEvaluator", free)


def exact_agrees_with_barrier(sc, free=False):
    """The sweep's mapping solved by the exact path and by the barrier on
    the same problem: the exact eta is not below the barrier's (1e-9
    relative) and within 1e-6 of it, every exact point is certified
    within the stop tolerance, a UE with c_u = 0 rides p_max, and a slice
    whose UE floors meet its floor has no slice multiplier."""
    ch = build_channels(sc)
    bf = build_beamformers(sc, ch)
    mres = map_slices_to_services(sc, bf)
    if mres.uncovered_services:
        return False
    results = []
    for barrier in (False, True):
        with pytest.MonkeyPatch.context() as mp:
            if free:
                free_ue0(mp)
            if barrier:
                on_the_barrier(mp)
            results.append(solve_power(sc, mres.mapping, ch, bf,
                                       SolverOptions(1500)))
    exact, barrier = results
    assert all(row.iterations == 1 for row in exact.trace)
    assert exact.converged and barrier.converged
    assert exact.feasible == barrier.feasible
    assert all(row.gap <= EPS_ETA * row.r_tot for row in exact.trace)
    assert exact.eta >= barrier.eta * (1 - 1e-9)
    assert exact.eta == pytest.approx(barrier.eta, rel=1e-6)
    if free:
        assert exact.powers.p[0] == sc.params.p_max
    floors = delay_linearization(MappingEvaluator(sc, bf, mres.mapping))
    n_ues = np.bincount(mres.mapping.incidence(sc)[1],
                        minlength=sc.n_slices)
    for s, floor in floors.items():
        if n_ues[s] * sc.params.r_min >= floor:
            assert exact.mults.delay_slice[s] == 0.0
    return True


@pytest.mark.parametrize("configs", [soundness_configs, ee_shared_configs],
                         ids=["soundness-200", "ee-shared-10"])
def test_exact_power_step_agrees_with_the_barrier(configs):
    solved = [exact_agrees_with_barrier(generate_scenario(cfg, seed=seed))
              for seed, cfg in configs()]
    assert all(solved)


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 16), n_services=st.integers(1, 3),
       n_slices=st.integers(1, 3), mean_ues=st.floats(1.0, 4.0),
       r_min_per_hz=st.sampled_from([0.5, 2.0, 8.0]),
       region_m=st.sampled_from([100.0, 300.0]),
       packet_size_bits=st.sampled_from([1.0, 2e3, 8e3]), free=st.booleans())
def test_exact_power_step_agrees_with_the_barrier_on_small_instances(
        seed, n_services, n_slices, mean_ues, r_min_per_hz, region_m,
        packet_size_bits, free):
    # large packets raise the slice delay floors above the UE floors, so
    # the slice levels bind
    cfg = GeneratorConfig(n_services=n_services, n_slices=n_slices,
                          mean_ues=mean_ues, max_ues=4, n_rus=12,
                          rus_per_slice=6, r_min_per_hz=r_min_per_hz,
                          region_m=region_m, packet_size_bits=packet_size_bits)
    exact_agrees_with_barrier(generate_scenario(cfg, seed=seed), free)


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
    slot_p = MappingEvaluator(sc, bf, res.mapping).at(res.powers.p)[1]
    assert np.all(slot_p <= sc.params.p_max * (1.0 + 1e-6))
