"""Greedy slice-to-service mapping and its feasibility bookkeeping."""

import numpy as np
import pytest

from oranslice.scenario import GeneratorConfig, generate_scenario
from oranslice.radio import (MappingEvaluator, PowerAllocation,
                             SliceMapping, build_beamformers, build_channels)
from oranslice import slicing
from oranslice.slicing import (check_feasibility, map_slices_to_services,
                               rank_services, rank_slices)
from oranslice.power import SolverOptions, solve_joint, solve_power
from oranslice.cli import _ee_config
from oranslice.oracle import brute_force_mapping

from conftest import (channels_from_matrix, default_params, hand_scenario,
                      small_joint_config)


# --------------------------------------------------------------------------
# ranking
# --------------------------------------------------------------------------

def test_rank_services_by_count_then_load():
    # UE counts (3, 5, 5) with summed arrivals (1, 2, 1): the two 5-UE
    # services lead, higher load first, so the order is service 1, 2, 0
    rates = [1 / 3] * 3 + [0.4] * 5 + [0.2] * 5
    sc = hand_scenario(ue_counts=(3, 5, 5), arrival_rates=rates)
    assert rank_services(sc) == [1, 2, 0]


def test_rank_services_tie_breaks_by_id():
    sc = hand_scenario(ue_counts=(2, 2), arrival_rates=[1.0] * 4)
    assert rank_services(sc) == [0, 1]


def test_rank_services_single():
    sc = hand_scenario(ue_counts=(1,))
    assert rank_services(sc) == [0]


def test_rank_slices_weighted_score():
    # unit weights: (PRBs, RUs, VNFs) = (2, 1, 2) scores 5 and beats
    # (1, 1, 2) scoring 4
    sc = hand_scenario(slice_rus=((0,), (1,)),
                       slice_prbs=((0, 1), (2,)), m_du=1, m_cu=1)
    assert rank_slices(sc) == [0, 1]
    # and the reverse construction flips the order
    sc2 = hand_scenario(slice_rus=((0,), (1,)),
                        slice_prbs=((0,), (1, 2)), m_du=1, m_cu=1)
    assert rank_slices(sc2) == [1, 0]


def test_rank_slices_prbs_break_ru_vnf_tie():
    sc = hand_scenario(slice_rus=((0, 1), (2, 3)),
                       slice_prbs=((0,), (1, 2)))
    # equal RUs and VNFs: slice 1 owns more PRBs and ranks first
    assert rank_slices(sc) == [1, 0]


def test_rank_slices_tie_by_id():
    sc = hand_scenario(slice_rus=((0,), (1,)))
    assert rank_slices(sc) == [0, 1]


# --------------------------------------------------------------------------
# greedy mapping
# --------------------------------------------------------------------------

def easy_1x1():
    sc = hand_scenario(ue_counts=(1,))
    ch = channels_from_matrix(sc, [[np.sqrt(2.0) + 0.0j]])
    bf = build_beamformers(sc, ch)
    return sc, ch, bf


def test_map_trivial_instance():
    sc, ch, bf = easy_1x1()
    result = map_slices_to_services(sc, bf)
    assert result.mapping.a.tolist() == [[1]]
    assert not result.uncovered_services
    assert check_feasibility(sc, ch, bf, result.mapping).ok


def fronthaul_split_instance(swap=False):
    """One service; one slice's RU quantizes so finely that its fronthaul
    rate at full power exceeds the cap, the other slice is clean.

    The dirty slice owns two PRBs so it outranks the clean one: the sweep
    tries it first, and the outcome does not hinge on tie-breaks.  With
    swap=True the slice ids are exchanged, contents unchanged.
    """
    dirty = dict(rus=(0,), prbs=(0, 1), sigma=1e-61)
    clean = dict(rus=(1,), prbs=(2,), sigma=1e-4)
    first, second = (clean, dirty) if swap else (dirty, clean)
    sc = hand_scenario(
        ue_counts=(1,),
        slice_rus=(first["rus"], second["rus"]),
        slice_prbs=(first["prbs"], second["prbs"]),
        sigma_q2=[dirty["sigma"], clean["sigma"]],
        params=default_params(r_min=100.0))
    ch = channels_from_matrix(sc, [[np.sqrt(2.0)], [np.sqrt(2.0)]])
    return sc, build_beamformers(sc, ch)


def test_map_excludes_fronthaul_violator():
    sc, bf = fronthaul_split_instance()
    result = map_slices_to_services(sc, bf)
    assert result.mapping.a.tolist() == [[0, 1]]
    assert not result.uncovered_services
    assert any("fronthaul" in reason for _, _, reason in result.rejections)


def test_sweep_covers_each_service_once_at_u147():
    # ee_vs_mean_ues at U=147 (12 services, 13 dedicated-PRB slices): pass
    # 1 offers each slice only services that no slice covers yet, so the
    # sweep makes one check per service and rejects none (38 checks, 14 of
    # them rejected, with every slice active, when it offered covered ones)
    sc = generate_scenario(_ee_config(12, 12, {}), seed=0)
    bf = build_beamformers(sc, build_channels(sc))
    checks = []
    verdict = slicing.verdict

    def counted(ev, *point):
        checks.append(ev.a.copy())
        return verdict(ev, *point)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(slicing, "verdict", counted)
        result = map_slices_to_services(sc, bf)
    assert len(checks) == 12
    assert result.rejections == [] and result.uncovered_services == []
    assert result.mapping.a.sum(axis=1).tolist() == [1] * 12
    assert result.mapping.a.any(axis=0).sum() == 12


def test_map_equivariant_under_key_preserving_relabel():
    base = map_slices_to_services(*fronthaul_split_instance())
    swapped = map_slices_to_services(*fronthaul_split_instance(swap=True))
    assert swapped.mapping.a.tolist() == base.mapping.a[:, ::-1].tolist()


def test_map_reports_uncovered_when_nothing_fits():
    sc = hand_scenario(ue_counts=(1,),
                       params=default_params(r_min=1e12))
    ch = channels_from_matrix(sc, [[np.sqrt(2.0)]])
    bf = build_beamformers(sc, ch)
    result = map_slices_to_services(sc, bf)
    assert result.mapping.a.sum() == 0
    assert result.uncovered_services == [0]
    assert result.uncovered_services


def test_map_2x2_feasible_and_near_oracle():
    sc = generate_scenario(small_joint_config(), seed=13)
    ch = build_channels(sc)
    bf = build_beamformers(sc, ch)
    result = map_slices_to_services(sc, bf)
    assert not result.uncovered_services
    assert check_feasibility(sc, ch, bf, result.mapping).ok

    joint = solve_joint(sc, SolverOptions(max_iters=1200), ch=ch, bf=bf)
    oracle = brute_force_mapping(sc, ch, bf, power_grid_n=64)
    assert oracle.feasible
    assert joint.eta == pytest.approx(oracle.eta, rel=0.02)


def test_map_all_assignments_remain_feasible_together():
    cfg = GeneratorConfig(n_services=2, n_slices=3, mean_ues=2.0, max_ues=3,
                          n_rus=16, rus_per_slice=8)
    for seed in range(5):
        sc = generate_scenario(cfg, seed=seed)
        ch = build_channels(sc)
        bf = build_beamformers(sc, ch)
        result = map_slices_to_services(sc, bf)
        if result.mapping.a.any():
            assert check_feasibility(sc, ch, bf, result.mapping).ok


# --------------------------------------------------------------------------
# incremental sweep against a full rebuild
# --------------------------------------------------------------------------

def full_rebuild_sweep(sc, ch, bf):
    """The two-pass sweep with every candidate judged by
    check_feasibility on the whole tentative mapping.  Pass 1 offers each
    slice only the services no slice covers yet; a pair rejected in both
    passes is recorded once, with its pass-1 reason."""
    service_order, slice_order = rank_services(sc), rank_slices(sc)
    mapping = SliceMapping(a=np.zeros((sc.n_services, sc.n_slices)))
    rejections = []

    def reject(s, v, reason):
        if all((s, v) != (s2, v2) for s2, v2, _why in rejections):
            rejections.append((s, v, reason))

    def try_pair(v, s):
        if (s, v) in bf.unmappable:
            reject(s, v, bf.unmappable[(s, v)])
            return False
        mapping.a[v, s] = 1
        report = check_feasibility(sc, ch, bf, mapping)
        if report.ok:
            return True
        mapping.a[v, s] = 0
        reject(s, v, report.violations[0])
        return False

    for s in slice_order:
        for v in service_order:
            if not mapping.covered()[v] and try_pair(v, s):
                break
    for v in service_order:
        if mapping.covered()[v]:
            continue
        for s in slice_order:
            if not mapping.a[v, s] and try_pair(v, s):
                break
    uncovered = sorted(v for v in service_order if not mapping.covered()[v])
    return mapping.a.tolist(), uncovered, rejections


def soundness_configs():
    """The 200 configs of the acceptance mapping-soundness test."""
    rng = np.random.default_rng(4)
    for seed in range(200):
        yield seed, GeneratorConfig(
            n_services=int(rng.integers(2, 5)),
            mean_ues=float(rng.uniform(1.0, 3.0)),
            max_ues=3,
            n_slices=int(rng.integers(2, 5)),
            n_rus=16, rus_per_slice=8,
            r_min_per_hz=float(rng.choice([1.0, 5.0, 10.0])),
            region_m=float(rng.choice([150.0, 300.0, 500.0])))


# shared-PRB variants; each tightens one constraint family so every
# rejection family occurs across the 30 seeds.  At seed 3 a candidate's
# leakage cuts the rate sum of slices it does not join, and one of those
# then fails its delay check.
SHARED_VARIANTS = (
    {}, {"c_max": 12.0}, {"d_max": 2e-4},
    {"packet_size_bits": 5e3, "r_min_per_hz": 0.5, "d_max": 1e-3},
    {"mu1": 200.0}, {"p_max": 0.05},
)


def shared_configs():
    for seed in range(30):
        fields = dict(n_services=3, n_slices=4, mean_ues=3.0, max_ues=6,
                      n_rus=12, rus_per_slice=6, prb_mode="shared",
                      prbs_per_slice=3, prbs_per_ue=2, r_min_per_hz=5.0,
                      region_m=300.0)
        fields.update(SHARED_VARIANTS[seed % len(SHARED_VARIANTS)])
        yield seed, GeneratorConfig(**fields)


def ee_shared_configs():
    # the shared-PRB ee_vs_mean_ues point at 3 services and 8 mean UEs:
    # U = 18-30, and every seed accepts three pairs that leak into other
    # UEs on shared PRBs, so the state after a second and a third such
    # pair is checked too
    for seed in range(10):
        yield seed, _ee_config(3, 8, {"prb_mode": "shared",
                                      "prbs_per_slice": 16, "prbs_per_ue": 2})


@pytest.mark.parametrize(
    "configs", [soundness_configs, shared_configs, ee_shared_configs],
    ids=["soundness-200", "shared-30", "ee-shared-10"])
def test_incremental_sweep_matches_full_rebuild(configs):
    families = set()
    for seed, cfg in configs():
        sc = generate_scenario(cfg, seed=seed)
        ch = build_channels(sc)
        bf = build_beamformers(sc, ch)
        got = map_slices_to_services(sc, bf)
        want = full_rebuild_sweep(sc, ch, bf)
        assert (got.mapping.a.tolist(), got.uncovered_services,
                got.rejections) == want, f"seed {seed}"
        families |= {reason.split(":")[0] for _s, _v, reason in want[2]}
        if configs is ee_shared_configs:
            leaking = [(s, v) for v, s in zip(*np.nonzero(got.mapping.a))
                       if (s, v) in bf.leak]
            assert len(leaking) >= 2, f"seed {seed}"
    if configs is shared_configs:
        assert families >= {"RU power cap", "minimum rate", "fronthaul cap",
                            "delay budget", "delay"}


@pytest.mark.parametrize("configs", [shared_configs, ee_shared_configs],
                         ids=["shared-30", "ee-shared-10"])
def test_sweep_evaluator_matches_a_rebuild(configs):
    # the evaluator the sweep ends with, extended one accepted pair at a
    # time, and the one built from its final mapping give the same
    # interference bound, and the same rates and slot powers at p_max
    # (kept up to date as pairs are added, or summed at the powers) and
    # at random powers
    rng = np.random.default_rng(0)
    compared = 0
    for seed, cfg in configs():
        sc = generate_scenario(cfg, seed=seed)
        bf = build_beamformers(sc, build_channels(sc))
        accepted = []

        def judged(ev, *point, _verdict=slicing.verdict):
            report = _verdict(ev, *point)
            if report.ok:
                accepted.append(ev)
            return report
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(slicing, "verdict", judged)
            result = map_slices_to_services(sc, bf)
        if not accepted:
            continue
        swept = accepted[-1]
        rebuilt = MappingEvaluator(sc, bf, result.mapping)
        assert np.array_equal(swept.a, result.mapping.a), f"seed {seed}"
        assert swept.interference == pytest.approx(
            rebuilt.interference, rel=1e-12, abs=0)
        p_max = np.full(sc.n_ues, sc.params.p_max)
        p = rng.uniform(0, sc.params.p_max, sc.n_ues)
        for mine, theirs in ((None, None), (None, p_max), (p_max, None),
                             (p, p)):
            for x, y in zip(swept.at(mine), rebuilt.at(theirs)):
                assert x == pytest.approx(y, rel=1e-12, abs=0), f"seed {seed}"
        compared += 1
    assert compared >= 10


@pytest.mark.parametrize("configs", [soundness_configs, ee_shared_configs],
                         ids=["soundness-200", "ee-shared-10"])
def test_solve_power_verdict_matches_check_feasibility(configs):
    # shared-30 is left out: the sweep covers every service in none of
    # its configs
    solved = 0
    for seed, cfg in configs():
        sc = generate_scenario(cfg, seed=seed)
        ch = build_channels(sc)
        bf = build_beamformers(sc, ch)
        got = map_slices_to_services(sc, bf)
        if got.uncovered_services:
            continue
        res = solve_power(sc, got.mapping, ch, bf, SolverOptions(1500))
        report = check_feasibility(sc, ch, bf, got.mapping, res.powers)
        assert (res.feasible, res.violations) == (
            report.ok, report.violations), f"seed {seed}"
        solved += 1
    assert solved


# uncovered services per shared-30 config, seeds 0-29, when pass 1 of the
# sweep still offered covered services; none of the soundness-200 configs
# left any uncovered
SHARED_UNCOVERED_BEFORE = (2, 2, 3, 2, 3, 2, 2, 3, 3, 2, 3, 2, 2, 2, 3,
                           2, 3, 2, 2, 2, 3, 2, 3, 2, 2, 2, 3, 2, 3, 2)


def test_sweep_leaves_no_more_services_uncovered():
    for configs, before in ((soundness_configs, (0,) * 200),
                            (shared_configs, SHARED_UNCOVERED_BEFORE)):
        for seed, cfg in configs():
            sc = generate_scenario(cfg, seed=seed)
            bf = build_beamformers(sc, build_channels(sc))
            got = map_slices_to_services(sc, bf).uncovered_services
            assert len(got) <= before[seed], f"{configs.__name__} {seed}"


def test_sweep_reports_violations_already_present_first():
    # sigma_q^2 alone puts every slot over p_max, so every candidate is
    # rejected for slice 0's first slot, whichever slice it tries
    cfg = GeneratorConfig(n_services=2, n_slices=3, mean_ues=2.0, max_ues=3,
                          n_rus=8, rus_per_slice=4, sigma_q_frac=1.5)
    sc = generate_scenario(cfg, seed=1)
    ch = build_channels(sc)
    bf = build_beamformers(sc, ch)
    got = map_slices_to_services(sc, bf)
    assert (got.mapping.a.tolist(), got.uncovered_services,
            got.rejections) == full_rebuild_sweep(sc, ch, bf)
    assert got.uncovered_services == [0, 1]
    first = f"RU power cap: slice 0 RU {sc.slices[0].ru_ids[0]} at"
    assert got.rejections and all(reason.startswith(first)
                                  for _s, _v, reason in got.rejections)


# --------------------------------------------------------------------------
# violation text
# --------------------------------------------------------------------------

# (params, per-RU gain to the UE on its own slice, arrival rates, expected
# violations at full power); one service per slice, slice s on RU s.
# Downstream tools sort rejections into families by these prefixes.
VIOLATION_CASES = {
    "ru_cap": (default_params(), [0.5], [100.0],
               ["RU power cap: slice 0 RU 0 at 40.0001 W > 10 W"]),
    "min_rate": (default_params(r_min=1e9), [2.0], [100.0],
                 ["minimum rate: service 0 UE 0 at 1.75316e+06 bit/s "
                  "< 1e+09 bit/s"]),
    "fronthaul": (default_params(c_max=1.0), [2.0], [100.0],
                  ["fronthaul cap: slice 0 RU 0 at 14.6097 bit/s/Hz "
                   "> 1 bit/s/Hz"]),
    "budget": (default_params(d_max=1e-4), [2.0], [100.0],
               ["delay budget: slice 0 at 0.000202591 s > 0.0001 s"]),
    "du": (default_params(), [2.0], [2e4],
           ["delay: slice 0 DU layer unstable: per-VNF load 20000 >= "
            "service rate 10000 packet/s"]),
    "cu": (default_params(mu1=1e6, mu2=50.0), [2.0], [100.0],
           ["delay: slice 0 CU layer unstable: per-VNF load 100 >= "
            "service rate 50 packet/s"]),
    "transmission": (default_params(packet_size_bits=1e9), [2.0], [100.0],
                     ["delay: transmission stage unstable: slice rate "
                      "1.75316e+06 <= offered load 1e+11"]),
    "all_in_order": (
        default_params(r_min=2.1e6, c_max=18.0, d_max=1e-7, mu1=1e9,
                       mu2=1e9),
        [0.5, 1.1, 2.0], [100.0, 2e9, 5e6],
        ["RU power cap: slice 0 RU 0 at 40.0001 W > 10 W",
         "minimum rate: service 1 UE 0 at 1.96016e+06 bit/s < 2.1e+06 bit/s",
         "minimum rate: service 2 UE 0 at 1.75316e+06 bit/s < 2.1e+06 bit/s",
         "fronthaul cap: slice 0 RU 0 at 18.6096 bit/s/Hz > 18 bit/s/Hz",
         "delay budget: slice 0 at 4.49817e-07 s > 1e-07 s",
         "delay: slice 1 DU layer unstable: per-VNF load 2e+09 >= service "
         "rate 1e+09 packet/s",
         "delay: transmission stage unstable: slice rate 1.75316e+06 <= "
         "offered load 5e+06"]),
}


@pytest.mark.parametrize("case", sorted(VIOLATION_CASES))
def test_check_feasibility_violation_text(case):
    params, gains, arrivals, expected = VIOLATION_CASES[case]
    n = len(gains)
    sc = hand_scenario(ue_counts=(1,) * n,
                       slice_rus=tuple((s,) for s in range(n)),
                       arrival_rates=arrivals, params=params)
    ch = channels_from_matrix(sc, np.diag(gains))
    bf = build_beamformers(sc, ch)
    mapping = SliceMapping(a=np.eye(n, dtype=np.int8))
    report = check_feasibility(sc, ch, bf, mapping)
    assert not report.ok
    assert report.violations == expected


def test_check_feasibility_reports_negative_power():
    sc = generate_scenario(GeneratorConfig(), seed=0)
    ch = build_channels(sc)
    bf = build_beamformers(sc, ch)
    mapping = map_slices_to_services(sc, bf).mapping
    p = np.full(sc.n_ues, sc.params.p_max / 2)
    p[0] = -1.0
    report = check_feasibility(sc, ch, bf, mapping, PowerAllocation(p=p))
    assert not report.ok
    assert report.violations[0] == "negative transmit power at UE index [0]"
    # a NaN power is no more a power than a negative one, and is named
    p[0] = np.nan
    report = check_feasibility(sc, ch, bf, mapping, PowerAllocation(p=p))
    assert (report.ok, report.violations) == (
        False, ["NaN transmit power at UE index [0]"])
