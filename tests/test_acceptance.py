"""Acceptance gate: one test per shipped guarantee.

Each test measures its margin and prints a single PASS/FAIL line (visible
with -s or -rA), so `pytest -v tests/test_acceptance.py` reads as the
checklist.  Tolerances and time limits are asserted, not advisory.
"""

import time

import numpy as np
import pytest

from conftest import hand_scenario, identity_mapping
from oranslice.cli import _EE_OVERRIDES, _place_point, _round_robin_mapping
from oranslice.oracle import (brute_force_mapping, certified_mapping,
                              dual_bound, exhaustive_placement, mm1_simulate,
                              summation_oracle)
from oranslice.placement import (active_slice_ids, admitted_ratio, cost_psi,
                                 place)
from oranslice.power import InfeasibleMappingError, SolverOptions, solve_joint
from oranslice.radio import (MappingEvaluator, PowerAllocation,
                             build_beamformers, build_channels,
                             zf_beamformer)
from oranslice.scenario import GeneratorConfig, generate_scenario
from oranslice.slicing import check_feasibility, map_slices_to_services


def report(name: str, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"{name}: {detail}"


def test_zero_forcing_identity_on_random_channels():
    rng = np.random.default_rng(1)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(500):
        r = int(rng.integers(1, 9))
        u = int(rng.integers(1, r + 1))
        h = (rng.standard_normal((r, u))
             + 1j * rng.standard_normal((r, u))) / np.sqrt(2.0)
        w, _ = zf_beamformer(h)
        err = np.abs(h.conj().T @ w - np.eye(u)).max()
        worst = max(worst, float(err))
    elapsed = time.perf_counter() - t0
    report("zero-forcing identity",
           worst < 1e-9 and elapsed < 5.0,
           f"max |H^H W - I| = {worst:.3e} (< 1e-9) over 500 draws "
           f"in {elapsed:.2f} s (< 5 s)")


def test_joint_solver_reaches_parametric_root():
    cfg = GeneratorConfig(n_services=3, mean_ues=1, max_ues=1, n_slices=2,
                          n_rus=12, rus_per_slice=6)
    t0 = time.perf_counter()
    solved = 0
    worst_resid = 0.0
    for seed in range(100):
        if solved == 50:
            break
        sc = generate_scenario(cfg, seed=seed)
        try:
            res = solve_joint(sc, SolverOptions(max_iters=600))
        except InfeasibleMappingError:
            continue
        if not res.feasible:
            continue
        solved += 1
        assert res.converged, f"seed {seed} did not converge"
        resid = abs(res.trace[-1].f_value) / max(res.r_tot, 1.0)
        worst_resid = max(worst_resid, resid)
        etas = [row.eta for row in res.trace]
        assert all(b >= a - 1e-12 for a, b in zip(etas, etas[1:])), \
            f"seed {seed}: eta sequence decreased"
    elapsed = time.perf_counter() - t0
    report("parametric root",
           solved == 50 and worst_resid < 1e-6 and elapsed < 60.0,
           f"{solved}/50 feasible instances converged, worst "
           f"|F(eta*)|/R_tot = {worst_resid:.3e} (< 1e-6) "
           f"in {elapsed:.1f} s (< 60 s)")


def test_joint_solver_eta_is_certified_optimal():
    # The naive oracle recomputes the Lagrangian dual at the multipliers
    # the solver returns.  A nonpositive value at eta * (1 + 1e-6) proves
    # that no feasible power allocation of the chosen mapping beats the
    # reported eta by more than 1e-6 relative.  Cases: the parametric-root
    # seeds, and ee_vs_mean_ues points at U = 52 (6 services, mean 8,
    # dedicated PRBs) and U = 5 and 27 (3 services, mean 2 and 8, shared
    # 16-PRB pools with 2 PRBs per UE, seeds 0 and 2).
    root = GeneratorConfig(n_services=3, mean_ues=1, max_ues=1, n_slices=2,
                           n_rus=12, rus_per_slice=6)
    shared = dict(_EE_OVERRIDES, prb_mode="shared", prbs_per_slice=16,
                  prbs_per_ue=2)
    rows = [
        (GeneratorConfig(n_services=6, n_slices=7, mean_ues=8,
                         **_EE_OVERRIDES), 0),
        (GeneratorConfig(n_services=3, n_slices=4, mean_ues=2, **shared), 0),
        (GeneratorConfig(n_services=3, n_slices=4, mean_ues=8, **shared), 2),
    ]
    t0 = time.perf_counter()
    solved, worst, etas = 0, -np.inf, []
    for cfg, seed in [(root, seed) for seed in range(100)] + rows:
        if cfg is root and solved == 50:
            continue
        sc = generate_scenario(cfg, seed=seed)
        try:
            res = solve_joint(sc, SolverOptions(max_iters=600))
        except InfeasibleMappingError:
            continue
        if cfg is root and not res.feasible:
            continue
        solved += cfg is root
        assert res.feasible and res.converged, f"seed {seed}, U={sc.n_ues}"
        ch = build_channels(sc)
        bf = build_beamformers(sc, ch)
        bound = dual_bound(sc, res.mapping, ch, bf, res.eta * (1 + 1e-6),
                           res.mults)
        worst = max(worst, bound / res.r_tot)
        if cfg is not root:
            etas.append(res.eta)
    elapsed = time.perf_counter() - t0
    report("certified eta",
           solved == 50 and len(etas) == 3 and worst <= 0.0
           and etas[0] >= 2.17634e8 and elapsed < 60.0,
           f"dual bound at eta*(1+1e-6) <= {worst:.3e} R_tot (<= 0) on "
           f"{solved}/50 root seeds and U=52/5/27 with eta "
           f"{['%.7g' % e for e in etas]} (U=52 >= 2.17634e8) "
           f"in {elapsed:.1f} s (< 60 s)")


def test_joint_solver_matches_power_grid_oracle():
    # single slice owning a large pool: the efficiency optimum sits in the
    # grid interior where the 64-step oracle resolves it
    cfg = GeneratorConfig(n_services=2, mean_ues=1.0, max_ues=1, n_slices=1,
                          n_rus=30, rus_per_slice=30, p_max=0.5,
                          sigma_q_frac=3.5e-4, r_min_per_hz=2.0,
                          region_m=100.0)
    t0 = time.perf_counter()
    worst = 0.0
    for seed in range(25):
        sc = generate_scenario(cfg, seed=seed)
        res = solve_joint(sc, SolverOptions(max_iters=2000))
        assert res.feasible, f"seed {seed} infeasible"
        ch = build_channels(sc)
        bf = build_beamformers(sc, ch)
        ref = brute_force_mapping(sc, ch, bf, power_grid_n=64)
        assert ref.feasible, f"seed {seed}: oracle found no feasible point"
        gap = abs(res.eta - ref.eta) / ref.eta
        worst = max(worst, gap)
    elapsed = time.perf_counter() - t0
    report("power oracle gap",
           worst <= 0.02 and elapsed < 120.0,
           f"worst |eta - eta_oracle|/eta_oracle = {worst:.3%} (<= 2%) "
           f"over 25 instances in {elapsed:.1f} s (< 120 s)")


def test_greedy_mapping_near_certified_best_mapping():
    # ee_vs_mean_ues-style instances with 2 services and 3 slices: every
    # one of the 49 coverage-complete mappings is solved and certified by
    # the naive dual bound, so the best mapping's eta lies in a certified
    # interval [eta, upper]; the gap is taken to its upper end.  Measured:
    # 1.00 % mean and 2.95 % worst (25.3 % and 34.6 % when pass 1 of the
    # sweep still gave covered services a second slice)
    cfg = GeneratorConfig(n_services=2, n_slices=3, mean_ues=4,
                          **_EE_OVERRIDES)
    t0 = time.perf_counter()
    gaps, widths = [], []
    for seed in range(10):
        sc = generate_scenario(cfg, seed=seed)
        ch = build_channels(sc)
        bf = build_beamformers(sc, ch)
        res = solve_joint(sc, SolverOptions(max_iters=1500), ch=ch, bf=bf)
        assert res.feasible and res.converged, f"seed {seed}"
        best = certified_mapping(sc, ch, bf)
        assert best.feasible, f"seed {seed}"
        gaps.append((best.upper - res.eta) / best.upper)
        widths.append((best.upper - best.eta) / best.upper)
    elapsed = time.perf_counter() - t0
    mean, worst = float(np.mean(gaps)), max(gaps)
    report("mapping gap",
           mean <= 0.02 and worst <= 0.05 and max(widths) <= 1e-5
           and elapsed < 60.0,
           f"greedy eta below the certified best mapping by {mean:.2%} "
           f"mean (<= 2%) and {worst:.2%} worst (<= 5%) over 10 instances, "
           f"interval width <= {max(widths):.1e} (<= 1e-5) "
           f"in {elapsed:.1f} s (< 60 s)")


def test_mapping_sweep_returns_only_feasible_mappings():
    rng = np.random.default_rng(4)
    t0 = time.perf_counter()
    nonzero = 0
    for seed in range(200):
        cfg = GeneratorConfig(
            n_services=int(rng.integers(2, 5)),
            mean_ues=float(rng.uniform(1.0, 3.0)),
            max_ues=3,
            n_slices=int(rng.integers(2, 5)),
            n_rus=16, rus_per_slice=8,
            r_min_per_hz=float(rng.choice([1.0, 5.0, 10.0])),
            region_m=float(rng.choice([150.0, 300.0, 500.0])))
        sc = generate_scenario(cfg, seed=seed)
        ch = build_channels(sc)
        bf = build_beamformers(sc, ch)
        result = map_slices_to_services(sc, bf)
        if not result.mapping.a.any():
            continue
        nonzero += 1
        check = check_feasibility(sc, ch, bf, result.mapping)
        assert check.ok, f"seed {seed}: {check.violations[:2]}"
    elapsed = time.perf_counter() - t0
    report("mapping soundness",
           nonzero >= 100,
           f"0 violations across {nonzero} nonzero mappings "
           f"(200 instances) in {elapsed:.1f} s")


def test_queue_simulation_matches_closed_form():
    t0 = time.perf_counter()
    worst = 0.0
    for seed, rho in enumerate((0.3, 0.5, 0.8)):
        sim = mm1_simulate(rho, 1.0, n_arrivals=1_000_000, seed=seed)
        exact = 1.0 / (1.0 - rho)
        worst = max(worst, abs(sim - exact) / exact)
    elapsed = time.perf_counter() - t0
    report("queueing oracle",
           worst < 0.05 and elapsed < 30.0,
           f"worst |sim - 1/(mu-lambda)| / exact = {worst:.3%} (< 5%) "
           f"in {elapsed:.1f} s (< 30 s)")


def many_mean_slices(n):
    return hand_scenario(ue_counts=(1,) * n,
                         slice_rus=tuple((s,) for s in range(n)))


def test_ten_mean_slices_fill_one_mean_dc():
    sc = many_mean_slices(10)
    placement = place(sc, identity_mapping(sc))
    residual = placement.residuals(sc)
    fill_ok = placement.unadmitted == [] and np.all(residual == 0.0)

    sc11 = many_mean_slices(11)
    p11 = place(sc11, identity_mapping(sc11), single_dc=True)
    reject_ok = len(p11.admitted) == 10 and len(p11.unadmitted) == 1
    report("capacity arithmetic",
           fill_ok and reject_ok,
           f"10 mean slices leave residuals {residual.tolist()} "
           f"(all zero); 11th slice rejected: {reject_ok}")


def test_placement_heuristic_near_exhaustive_oracle():
    rng = np.random.default_rng(7)
    t0 = time.perf_counter()
    worst_shortfall = 0
    phi_h, phi_o = [], []
    for seed in range(40):
        s_cnt = int(rng.integers(3, 9))
        d_cnt = int(rng.integers(2, 5))
        scale = float(rng.choice([0.2, 0.35, 1.0]))
        cfg = GeneratorConfig(n_services=min(3, s_cnt), n_slices=s_cnt,
                              n_dcs=d_cnt, mean_ues=1.0, max_ues=2,
                              n_rus=8, rus_per_slice=4, slice_cv=0.25,
                              dc_memory_gb=1000.0 * scale,
                              dc_storage_tb=100.0 * scale,
                              dc_cpu_ghz=320.0 * scale)
        sc = generate_scenario(cfg, seed=seed)
        mapping = _round_robin_mapping(sc)
        pls = place(sc, mapping)
        n_act = len(active_slice_ids(sc, mapping))
        h_count = round(
            admitted_ratio(sc, mapping, pls, single_dc_mode=True) * n_act)
        o_adm = exhaustive_placement(sc, mapping, nu=1e6, single_dc=True,
                                     require_all=False)
        worst_shortfall = max(worst_shortfall,
                              o_adm.admitted_count - h_count)
        if h_count == n_act:
            o_phi = exhaustive_placement(sc, mapping, nu=0.0, single_dc=True,
                                         require_all=True)
            if o_phi.feasible:
                phi_h.append(cost_psi(sc, mapping, pls, nu=0.0)[0])
                phi_o.append(o_phi.phi)
    elapsed = time.perf_counter() - t0
    phi_gap = (np.mean(phi_h) - np.mean(phi_o)) / np.mean(phi_o)
    report("placement oracle gap",
           worst_shortfall <= 1 and phi_gap <= 0.20
           and len(phi_h) >= 10 and elapsed < 120.0,
           f"admitted shortfall <= {worst_shortfall} slice (allowed 1); "
           f"mean phi gap {phi_gap:.2%} (<= 20%) on {len(phi_h)} "
           f"fully-admitted instances in {elapsed:.1f} s (< 120 s)")


def test_efficiency_rises_with_mean_ues():
    t0 = time.perf_counter()
    means, stds, counts = [], [], []
    for mean_ues in (2, 4, 6, 8, 10):
        cfg = GeneratorConfig(n_services=3, n_slices=4, mean_ues=mean_ues,
                              max_ues=24, n_rus=64, rus_per_slice=32,
                              region_m=80.0, r_min_per_hz=1.0)
        etas = []
        for seed in range(20):
            sc = generate_scenario(cfg, seed=seed)
            try:
                res = solve_joint(sc, SolverOptions(max_iters=400))
            except InfeasibleMappingError:
                continue
            if res.feasible:
                etas.append(res.eta)
        counts.append(len(etas))
        means.append(float(np.mean(etas)))
        stds.append(float(np.std(etas)))
    elapsed = time.perf_counter() - t0

    inversions = [i for i in range(len(means) - 1)
                  if means[i + 1] < means[i] - 1e-12]
    within = all(means[i + 1] >= means[i] - stds[i] for i in inversions)
    report("efficiency trend vs mean UEs",
           len(inversions) <= 1 and within and min(counts) >= 10,
           f"means {['%.3g' % m for m in means]} over feasible counts "
           f"{counts}; {len(inversions)} inversion(s), all within 1 std: "
           f"{within}; {elapsed:.1f} s")


def test_admitted_ratio_falls_with_slices_and_rises_with_dcs():
    t0 = time.perf_counter()
    slice_counts = (4, 12, 20, 28, 36, 44)
    curves = {}
    for n_dcs in (2, 5):
        curve = []
        for n_slices in slice_counts:
            vals = [_place_point("admitted_vs_slices", n_slices, n_dcs,
                                 seed, 1e6, {})[0]
                    for seed in range(20)]
            curve.append(float(np.mean(vals)))
        curves[n_dcs] = curve
    elapsed = time.perf_counter() - t0

    mono = all(b <= a + 1e-12
               for curve in curves.values()
               for a, b in zip(curve, curve[1:]))
    dominates = all(f >= t - 1e-12
                    for f, t in zip(curves[5], curves[2]))
    report("admission trend vs slices",
           mono and dominates,
           f"2 DCs {['%.3f' % v for v in curves[2]]}, "
           f"5 DCs {['%.3f' % v for v in curves[5]]}: nonincreasing "
           f"{mono}, 5-DC curve dominates {dominates}; {elapsed:.1f} s")


def test_vectorized_radio_matches_naive_summation():
    rng = np.random.default_rng(10)
    t0 = time.perf_counter()
    worst = 0.0
    for seed in range(100):
        cfg = GeneratorConfig(
            n_services=int(rng.integers(1, 4)),
            mean_ues=1.5, max_ues=2,
            n_slices=int(rng.integers(1, 4)),
            n_rus=8, rus_per_slice=4,
            region_m=float(rng.choice([100.0, 300.0])))
        sc = generate_scenario(cfg, seed=seed)
        ch = build_channels(sc)
        bf = build_beamformers(sc, ch)
        mapping = _round_robin_mapping(sc)
        powers = PowerAllocation(rng.uniform(0.0, sc.params.p_max, sc.n_ues))

        ev = MappingEvaluator(sc, bf, mapping)
        fast_i = ev.interference
        slow_i = summation_oracle("interference", sc, mapping, ch, bf, powers)
        rates, fast_p = ev.at(powers.p)
        slow_p = summation_oracle("ru_power", sc, mapping, ch, bf, powers)
        fast_e = rates.sum() / fast_p.sum()
        slow_e = summation_oracle("ee", sc, mapping, ch, bf, powers)

        for fast, slow in ((fast_i, slow_i), (fast_p, slow_p),
                           (np.asarray(fast_e), np.asarray(slow_e))):
            scale = np.maximum(np.abs(np.asarray(slow)), 1e-300)
            rel = float((np.abs(np.asarray(fast) - slow) / scale).max())
            worst = max(worst, rel)
    elapsed = time.perf_counter() - t0
    report("vectorized vs naive summation",
           worst <= 1e-9,
           f"worst relative difference {worst:.3e} (<= 1e-9) across "
           f"100 instances in {elapsed:.1f} s")
