"""Physical-layer checks: beamforming, interference, rates, RU power.

The zero-forcing cross-check uses a Gauss-Jordan pseudo-inverse written
directly in this file so it shares nothing with the implementation under
test (which goes through the normal equations and a library inverse).
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oranslice import radio
from oranslice.scenario import GeneratorConfig, generate_scenario
from oranslice.radio import (CONDITION_CAP, MappingEvaluator,
                             PowerAllocation, SliceMapping,
                             build_beamformers, build_channels,
                             fronthaul_rates_all,
                             interference_upper_bound, zf_beamformer)
from oranslice.oracle import summation_oracle

from conftest import channels_from_matrix, full_mapping, hand_scenario, \
    identity_mapping
from test_slicing import shared_configs, soundness_configs


# --------------------------------------------------------------------------
# independent pseudo-inverse
# --------------------------------------------------------------------------

def gauss_jordan_pinv_precoder(h):
    """W = H (H^H H)^(-1) via explicit Gauss-Jordan elimination.

    Solves (H^H H) X = H^H with partial pivoting, no linalg calls, then
    returns X^H which equals the zero-forcing precoder.
    """
    h = np.asarray(h, dtype=complex)
    n = h.shape[1]
    aug = np.hstack([h.conj().T @ h, h.conj().T]).astype(complex)
    for col in range(n):
        pivot = col + np.argmax(np.abs(aug[col:, col]))
        if abs(aug[pivot, col]) == 0:
            raise ZeroDivisionError("singular normal matrix")
        aug[[col, pivot]] = aug[[pivot, col]]
        aug[col] = aug[col] / aug[col, col]
        for row in range(n):
            if row != col:
                aug[row] = aug[row] - aug[row, col] * aug[col]
    return aug[:, n:].conj().T


def test_zf_identity_scalar():
    w, why = zf_beamformer(np.array([[1.0]]))
    assert why is None
    assert w == pytest.approx(np.array([[1.0]]))


def test_zf_diagonal_channel():
    # H = diag(2, 4i): W = H (H^H H)^(-1) = diag(1/2, i/4).  (The naive
    # diagonal reciprocal diag(1/2, -i/4) is H^(-1), which fails the
    # defining identity: H^H H^(-1) = diag(1, -1).)
    h = np.diag([2.0, 4.0j])
    w, why = zf_beamformer(h)
    assert why is None
    assert np.allclose(w, np.diag([0.5, 0.25j]), atol=1e-12)
    assert np.max(np.abs(h.conj().T @ w - np.eye(2))) < 1e-9


def test_zf_matches_gauss_jordan_oracle():
    rng = np.random.default_rng(11)
    h = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
    w, why = zf_beamformer(h)
    assert why is None
    assert np.max(np.abs(h.conj().T @ w - np.eye(2))) < 1e-9
    w_ref = gauss_jordan_pinv_precoder(h)
    assert np.max(np.abs(w - w_ref)) < 1e-9


@pytest.mark.parametrize("seed", range(25))
def test_zf_identity_random_shapes(seed):
    rng = np.random.default_rng(seed)
    r = int(rng.integers(1, 9))
    u = int(rng.integers(1, r + 1))
    h = rng.standard_normal((r, u)) + 1j * rng.standard_normal((r, u))
    w, why = zf_beamformer(h)
    assert why is None
    assert np.max(np.abs(h.conj().T @ w - np.eye(u))) < 1e-9


def test_zf_rejects_underdetermined():
    assert zf_beamformer(np.ones((1, 2), dtype=complex)) == (
        None, "1 radio units cannot zero-force 2 UEs")


def test_zf_rejects_ill_conditioned():
    # two nearly collinear UE columns push cond(H^H H) past the cap
    base = np.array([1.0, 1.0j, 0.5])
    h = np.stack([base, base * (1 + 1e-12)], axis=1)
    w, why = zf_beamformer(h)
    assert "condition" in why
    assert w is None


@pytest.mark.parametrize("seed", range(6))
def test_zf_stack_matches_per_member_inverse(seed):
    # stacks mixing well-conditioned members with members whose normal
    # matrix is past CONDITION_CAP (a repeated column), and R < U stacks
    rng = np.random.default_rng(seed)
    for r, u in ((4, 3), (6, 6), (3, 1), (2, 3)):
        h = (rng.standard_normal((7, r, u))
             + 1j * rng.standard_normal((7, r, u)))
        bad = set()
        if 1 < u <= r:
            bad = {1, 4}
            h[1, :, 1] = h[1, :, 0] * (1 + 1e-12)
            h[4, :, -1] = h[4, :, 0]
        for g in range(7):
            w, why = zf_beamformer(h[g])
            if r < u:
                assert why == f"{r} radio units cannot zero-force {u} UEs"
                assert w is None
            elif g in bad:
                assert f"exceeds {CONDITION_CAP:.0e}" in why
                assert w is None
            else:
                assert why is None
                ref = h[g] @ np.linalg.inv(h[g].conj().T @ h[g])
                assert np.array_equal(w, ref)


def read_every_pair(sc, bf):
    list(bf.w)              # iterating a pair table reads every pair
    return bf


def test_dedicated_prbs_store_no_leakage():
    cfg = GeneratorConfig(n_services=3, n_slices=4, mean_ues=3.0, max_ues=5,
                          n_rus=12, rus_per_slice=6)
    sc = generate_scenario(cfg, seed=2)
    bf = read_every_pair(sc, build_beamformers(sc, build_channels(sc)))
    assert bf.built.all() and not bf.leak
    shared = generate_scenario(dataclasses.replace(
        cfg, prb_mode="shared", prbs_per_slice=2, prbs_per_ue=2), seed=2)
    bf = read_every_pair(shared, build_beamformers(shared,
                                                   build_channels(shared)))
    assert sum(values.size for _victims, values in bf.leak.values()) > 0


def test_dedicated_prbs_have_no_sharing_rows():
    sc = generate_scenario(GeneratorConfig(n_services=3, n_slices=4), seed=2)
    rows, at = radio._prb_sharing_pairs(sc)
    assert rows.shape == (0, 4) and rows.dtype == np.int64
    assert at.tolist() == [0] * (sc.n_slices * sc.n_services + 1)


def prb_sharing_pairs_reference(sc):
    """The reference for `radio._prb_sharing_pairs`, sorting twice: the
    triples lexsorted by (slice, PRB, UE) and grouped, every group's
    (victim, source) offsets enumerated, the keys argsorted and counted,
    then the rows lexsorted by (slice, source service) and victim."""
    t = sc.prb_assignment.triples
    t = t[np.lexsort((t[:, 0], t[:, 1], t[:, 2]))]   # by slice, PRB, UE
    group = t[:, 2] * sc.prb_assignment.n_prbs + t[:, 1]
    start = np.flatnonzero(np.append(True, group[1:] != group[:-1]))
    size = np.diff(np.append(start, len(t)))
    start, size = start[size > 1], size[size > 1]
    if not size.size:             # no two UEs share a PRB: dedicated PRBs
        return (np.zeros((0, 4), dtype=np.int64),
                np.zeros(sc.n_slices * sc.n_services + 1, dtype=np.intp))
    # a group of n rows gives n * n (victim, source) offsets, n of them equal
    sq = size * size
    grp = np.repeat(np.arange(size.size), sq)
    i, k = np.divmod(np.arange(grp.size) - np.repeat(np.cumsum(sq) - sq, sq),
                     size[grp])
    first = start[grp[i != k]]
    n = sc.n_ues
    key = ((t[first, 2] * n + t[first + i[i != k], 0]) * n
           + t[first + k[i != k], 0])
    key = key[np.argsort(key, kind="stable")]
    runs = np.flatnonzero(np.append(True, key[1:] != key[:-1]))
    key, counts = key[runs], np.diff(np.append(runs, key.size))
    share = np.column_stack([key // (n * n), key // n % n, key % n, counts])
    pair = share[:, 0] * sc.n_services + sc.ue_service[share[:, 2]]
    order = np.lexsort((share[:, 1], pair))
    return share[order], np.searchsorted(
        pair[order], np.arange(sc.n_slices * sc.n_services + 1))


@st.composite
def eligibility_scenarios(draw):
    """A hand-built scenario with any set of (UE, PRB, slice) triples:
    UEs alone on their PRBs, PRB indices held by several UEs in one slice
    or across slices, and UEs listed on no PRB all occur."""
    ue_counts = tuple(draw(st.lists(st.integers(1, 3), min_size=1,
                                    max_size=3)))
    n_ues, n_slices = sum(ue_counts), draw(st.integers(1, 3))
    prbs = tuple(range(draw(st.integers(1, 4))))
    every = [(u, k, s) for u in range(n_ues) for k in prbs
             for s in range(n_slices)]
    triples = draw(st.lists(st.sampled_from(every), min_size=1, unique=True))
    return hand_scenario(ue_counts=ue_counts,
                         slice_rus=((0,),) * n_slices,
                         slice_prbs=(prbs,) * n_slices, triples=triples)


def assert_same_table(got, want):
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(sc=eligibility_scenarios())
def test_prb_sharing_pairs_match_the_reference(sc):
    assert_same_table(radio._prb_sharing_pairs(sc),
                      prb_sharing_pairs_reference(sc))


@pytest.mark.parametrize("prb_mode", ["dedicated", "shared"])
def test_prb_sharing_pairs_match_the_reference_on_generated(prb_mode):
    cfg = GeneratorConfig(n_services=3, n_slices=4, mean_ues=4.0, max_ues=8,
                          n_rus=12, rus_per_slice=6, prb_mode=prb_mode,
                          prbs_per_slice=6, prbs_per_ue=2)
    for seed in range(5):
        sc = generate_scenario(cfg, seed=seed)
        assert_same_table(radio._prb_sharing_pairs(sc),
                          prb_sharing_pairs_reference(sc))


def slot_tables_from_ru_slots(sc):
    """(slot_slice, slot_ru, slot_sigma, first_slot) as lists, read off
    `Scenario.ru_slots()` one slot at a time."""
    slots = sc.ru_slots()
    first = [0]
    for sl in sc.slices:
        first.append(first[-1] + sl.n_rus)
    return ([s for s, _j, _rid in slots], [rid for _s, _j, rid in slots],
            [sc.rus[rid].sigma_q2 for _s, _j, rid in slots], first)


def shared_ru_scenario():
    """RU 1 belongs to both slices; the RUs' noise levels differ."""
    return hand_scenario(ue_counts=(1, 1), slice_rus=((0, 1), (2, 1)),
                         sigma_q2=[1e-4, 2e-4, 3e-4])


def generated(configs):
    return lambda: [generate_scenario(cfg, seed=seed)
                    for seed, cfg in configs()]


@pytest.mark.parametrize("scenarios", [
    generated(soundness_configs), generated(shared_configs),
    lambda: [shared_ru_scenario()]],
    ids=["soundness-200", "shared-30", "ru-in-two-slices"])
def test_slot_tables_match_ru_slots(scenarios):
    for sc in scenarios():
        bf = build_beamformers(sc, build_channels(sc))
        tables = (bf.slot_slice, bf.slot_ru, bf.slot_sigma, bf.first_slot)
        assert [t.tolist() for t in tables] == list(
            slot_tables_from_ru_slots(sc))
        assert [t.dtype.kind for t in tables] == ["i", "i", "f", "i"]


# --------------------------------------------------------------------------
# zero-forcing on first read
# --------------------------------------------------------------------------

LAZY_CONFIGS = {
    # services of up to 6 UEs on 4-RU slices: some pairs cannot zero-force
    "dedicated": GeneratorConfig(n_services=4, n_slices=3, mean_ues=3.0,
                                 max_ues=6, n_rus=10, rus_per_slice=4),
    "shared": GeneratorConfig(n_services=4, n_slices=3, mean_ues=3.0,
                              max_ues=6, n_rus=10, rus_per_slice=4,
                              prb_mode="shared", prbs_per_slice=3,
                              prbs_per_ue=2),
}


def batched_reference(sc, ch):
    """Every pair's precoder, unmappable text, gain entries, |w|^2 block
    and leakage, with the precoders of each channel shape (R_s, U_v)
    stacked for one gain product and PRB overlaps counted from the
    eligibility triples here."""
    first_ue = np.cumsum([0] + [sv.n_ues for sv in sc.services])
    shapes = {}
    for sl in sc.slices:
        for sv in sc.services:
            shapes.setdefault((sl.n_rus, sv.n_ues), []).append((sl.id, sv.id))
    w, w2, unmappable, leak = {}, {}, {}, {}
    gain = np.zeros((sc.n_slices, sc.n_ues))
    for (_n_rus, n_cols), members in shapes.items():
        ru = np.array([sc.slices[s].ru_ids for s, _v in members], dtype=int)
        cols = np.array([first_ue[v] for _s, v in members])[:, None] \
            + np.arange(n_cols)
        h = ch.gains[ru[:, :, None], cols[:, None, :]]
        stack, errors = np.zeros_like(h), {}
        for g in range(len(members)):
            wg, errors[g] = zf_beamformer(h[g])
            if wg is not None:
                stack[g] = wg
        gains = np.abs(np.einsum("gru,gru->gu", h.conj(), stack)) ** 2
        for g, (s, v) in enumerate(members):
            if errors[g] is not None:
                unmappable[(s, v)] = f"{errors[g]} for slice {s}, service {v}"
                continue
            w[(s, v)] = stack[g]
            gain[s, cols[g]] = gains[g]
            w2[(s, v)] = np.abs(stack[g]) ** 2
    prbs = {}
    for u, k, s in sc.prb_assignment.triples.tolist():
        prbs.setdefault((s, u), set()).add(k)
    for (s, v), wv in w.items():
        counts = np.zeros((sc.n_ues, sc.services[v].n_ues))
        for u in range(sc.n_ues):
            for j, src in enumerate(sc.service_ue_indices(v)):
                if src != u:
                    counts[u, j] = len(prbs.get((s, u), set())
                                       & prbs.get((s, src), set()))
        victims = np.flatnonzero(counts.any(axis=1))
        if victims.size:
            h_conj = ch.gains[list(sc.slices[s].ru_ids)].conj().T
            cross = np.abs(h_conj @ wv) ** 2 * counts
            leak[(s, v)] = (victims, cross[victims].sum(axis=1))
    return w, unmappable, gain, w2, leak


@pytest.mark.parametrize("order", ["slice-major", "service-major-reversed"])
@pytest.mark.parametrize("mode", sorted(LAZY_CONFIGS))
def test_lazy_pairs_match_batched_reference(mode, order):
    sc = generate_scenario(LAZY_CONFIGS[mode], seed=3)
    ch = build_channels(sc)
    w, unmappable, gain, w2, leak = batched_reference(sc, ch)
    assert unmappable and w and (mode == "dedicated") == (not leak)
    pairs = [(s, v) for s in range(sc.n_slices) for v in range(sc.n_services)]
    if order != "slice-major":
        pairs = sorted(pairs, key=lambda p: (p[1], p[0]), reverse=True)
    bf = build_beamformers(sc, ch)
    for s, v in pairs:
        # each reader on its own pair: membership, item and leakage
        assert ((s, v) in bf.unmappable) == ((s, v) in unmappable)
        if (s, v) in unmappable:
            assert bf.unmappable[(s, v)] == unmappable[(s, v)]
            assert (s, v) not in bf.w and (s, v) not in bf.w2
        else:
            assert np.array_equal(bf.w[(s, v)], w[(s, v)])
            assert np.array_equal(bf.w2[(s, v)], w2[(s, v)])
        victims, values = bf.leakage(s, v)
        want = leak.get((s, v), (np.zeros(0, int), np.zeros(0)))
        assert np.array_equal(victims, want[0])
        assert np.array_equal(values, want[1])
    assert bf.built.all()
    assert np.array_equal(bf.gain, gain)
    assert dict(bf.unmappable) == unmappable and sorted(bf.w) == sorted(w)
    assert sorted(bf.w2) == sorted(w2)
    assert sorted(bf.leak) == sorted(leak)


def test_reading_one_pair_zero_forces_only_that_pair(monkeypatch):
    sc = generate_scenario(LAZY_CONFIGS["shared"], seed=3)
    ch = build_channels(sc)
    calls = []

    def counted(h):
        calls.append(h.shape)
        return zf_beamformer(h)

    monkeypatch.setattr(radio, "zf_beamformer", counted)
    bf = build_beamformers(sc, ch)
    assert not calls and not bf.built.any()
    s, v = 1, min(range(sc.n_services), key=lambda v: sc.services[v].n_ues)
    precoder = bf.w[(s, v)]
    assert calls == [(sc.slices[s].n_rus, sc.services[v].n_ues)]
    assert np.argwhere(bf.built).tolist() == [[s, v]]
    cols = sc.service_ue_indices(v)
    assert np.array_equal(np.argwhere(bf.gain).tolist(),
                          [[s, u] for u in cols])
    # the |w|^2 store holds that pair's R_s x U_v block and nothing else
    assert list(bf._w2) == [(s, v)]
    assert np.array_equal(bf.w2[(s, v)], np.abs(precoder) ** 2)
    assert set(bf.leak) <= {(s, v)}
    # a second read of the pair, by any reader, builds nothing
    assert (s, v) not in bf.unmappable and bf.w[(s, v)] is precoder
    bf.leakage(s, v)
    assert len(calls) == 1
    # an evaluator zero-forces the pairs its mapping maps, and only those
    mapping = identity_mapping(sc)
    interference_upper_bound(sc, mapping, ch, bf)
    want = mapping.a.T.astype(bool)
    want[s, v] = True
    assert np.array_equal(bf.built, want)


# --------------------------------------------------------------------------
# interference bound
# --------------------------------------------------------------------------

def test_interference_single_ue_quantization_only():
    sc = hand_scenario(ue_counts=(1,), slice_rus=((0, 1),))
    ch = channels_from_matrix(sc, [[1.0 + 0.0j], [0.5j]])
    bf = build_beamformers(sc, ch)
    ibar = interference_upper_bound(sc, full_mapping(sc), ch, bf)
    sig = sc.rus[0].sigma_q2
    expect = sig * (abs(1.0) ** 2 + abs(0.5j) ** 2)
    assert ibar[0] == pytest.approx(expect, rel=1e-12)


def test_interference_disjoint_prbs_no_quantization_is_zero():
    # each UE holds a private PRB and sigma_q = 0: every eligibility
    # product vanishes and the quantization term is gone, so the bound
    # is exactly zero for both UEs
    sc = hand_scenario(ue_counts=(1, 1), slice_rus=((0,), (1,)),
                       sigma_q2=0.0, triples=[(0, 0, 0), (1, 1, 1)])
    ch = channels_from_matrix(sc, np.array([[1.0, 0.3], [0.2, 1.0]],
                                           dtype=complex))
    bf = build_beamformers(sc, ch)
    ibar = interference_upper_bound(sc, identity_mapping(sc), ch, bf)
    assert np.array_equal(ibar, np.zeros(2))


@pytest.mark.parametrize("seed", [3, 5, 6, 10, 11, 12])
def test_interference_matches_summation_oracle_shared_prbs(seed):
    # colliding PRBs make the leakage term nonzero; a random partial
    # mapping gates it per (service, slice) pair, and seed 3 keeps the
    # original full mapping
    cfg = GeneratorConfig(n_services=2, n_slices=2, mean_ues=2.0, max_ues=2,
                          n_rus=6, rus_per_slice=3, prb_mode="shared",
                          prbs_per_slice=2, prbs_per_ue=2)
    sc = generate_scenario(cfg, seed=seed)
    ch = build_channels(sc)
    bf = build_beamformers(sc, ch)
    rng = np.random.default_rng(seed)
    mapping = (full_mapping(sc) if seed == 3 else SliceMapping(
        a=rng.integers(0, 2, (sc.n_services, sc.n_slices))))
    powers = PowerAllocation(p=rng.uniform(0, sc.params.p_max, sc.n_ues))

    fast = interference_upper_bound(sc, mapping, ch, bf)
    slow = summation_oracle("interference", sc, mapping, ch, bf, powers)
    # the bound is p_max * leakage + quantization noise, so halving
    # p_max exposes the leakage this test is meant to exercise
    leakage = fast - interference_upper_bound(
        dataclasses.replace(sc, params=dataclasses.replace(
            sc.params, p_max=0.5 * sc.params.p_max)), mapping, ch, bf)
    assert leakage.max() > 0
    assert fast == pytest.approx(slow, rel=1e-9)
    assert slot_powers(sc, mapping, bf, powers) == pytest.approx(
        summation_oracle("ru_power", sc, mapping, ch, bf, powers), rel=1e-9)
    assert energy_efficiency(sc, mapping, bf, powers)[0] == pytest.approx(
        summation_oracle("ee", sc, mapping, ch, bf, powers), rel=1e-9)


# --------------------------------------------------------------------------
# SNR and rates
# --------------------------------------------------------------------------

def unit_gain_instance():
    # one UE, one slice, one RU, |h| = 1 so the precoder is also 1
    sc = hand_scenario(ue_counts=(1,), slice_rus=((0,),))
    ch = channels_from_matrix(sc, [[1.0 + 0.0j]])
    bf = build_beamformers(sc, ch)
    return sc, ch, bf


def rates_at(sc, mapping, bf, powers):
    """Per-UE rates of the mapping's evaluator at `powers`."""
    return MappingEvaluator(sc, bf, mapping).at(powers.p)[0]


def slot_powers(sc, mapping, bf, powers):
    """Slot powers of the mapping's evaluator at `powers`."""
    return MappingEvaluator(sc, bf, mapping).at(powers.p)[1]


def energy_efficiency(sc, mapping, bf, powers):
    """(eta, summed rate, summed slot power) of the mapping's evaluator
    at `powers`."""
    rates, slots = MappingEvaluator(sc, bf, mapping).at(powers.p)
    r_tot, p_tot = float(rates.sum()), float(slots.sum())
    return r_tot / p_tot, r_tot, p_tot


def sinr(sc, mapping, bf, powers):
    """Per-UE SINR read back from the rate: 2^(r/B) - 1."""
    rates = rates_at(sc, mapping, bf, powers)
    return np.exp2(rates / sc.params.bandwidth_hz) - 1.0


def test_snr_zero_power():
    sc, ch, bf = unit_gain_instance()
    mapping = full_mapping(sc)
    assert sinr(sc, mapping, bf, PowerAllocation(p=np.zeros(1)))[0] == 0.0


def test_snr_unmapped_service_is_zero():
    sc, ch, bf = unit_gain_instance()
    mapping = SliceMapping(a=np.zeros((1, 1), dtype=np.int8))
    assert sinr(sc, mapping, bf, PowerAllocation(p=np.ones(1)))[0] == 0.0


def test_snr_unity_at_matched_power():
    sc, ch, bf = unit_gain_instance()
    mapping = full_mapping(sc)
    ibar = interference_upper_bound(sc, mapping, ch, bf)
    p = sc.params.bandwidth_hz * sc.params.noise_psd + ibar[0]
    got = sinr(sc, mapping, bf, PowerAllocation(p=np.array([p])))[0]
    assert got == pytest.approx(1.0, rel=1e-12)


def test_achievable_rate_values():
    # rates are B log2(1 + SINR): 0, B and 2B at SINR 0, 1 and 3
    sc, ch, bf = unit_gain_instance()
    ev = MappingEvaluator(sc, bf, full_mapping(sc))
    z = sc.params.bandwidth_hz * sc.params.noise_psd + ev.interference
    for rho, bits in ((0.0, 0.0), (1.0, 1.0), (3.0, 2.0)):
        rate = ev.at(rho * z / ev.gain)[0][0]
        assert rate == pytest.approx(bits * sc.params.bandwidth_hz)


def test_rate_monotone_in_power(rng):
    cfg = GeneratorConfig(n_services=2, n_slices=2, mean_ues=2.0, max_ues=2,
                          n_rus=6, rus_per_slice=3)
    sc = generate_scenario(cfg, seed=8)
    ch = build_channels(sc)
    bf = build_beamformers(sc, ch)
    mapping = full_mapping(sc)
    p = rng.uniform(0.1, 1.0, sc.n_ues)
    base = rates_at(sc, mapping, bf, PowerAllocation(p=p))
    for u in range(sc.n_ues):
        bumped = p.copy()
        bumped[u] *= 1.5
        after = rates_at(sc, mapping, bf, PowerAllocation(p=bumped))
        assert after[u] >= base[u]
        assert np.all(after >= -1e-12)


def test_doubling_bandwidth_doubles_rate_consistently():
    sc, ch, bf = unit_gain_instance()
    mapping = full_mapping(sc)
    p = PowerAllocation(p=np.array([2.0]))
    r1 = rates_at(sc, mapping, bf, p)[0]

    import dataclasses
    sc2 = dataclasses.replace(
        sc, params=dataclasses.replace(sc.params,
                                       bandwidth_hz=2 * sc.params.bandwidth_hz))
    ch2 = channels_from_matrix(sc2, [[1.0 + 0.0j]])
    bf2 = build_beamformers(sc2, ch2)
    ibar2 = interference_upper_bound(sc2, mapping, ch2, bf2)
    r2 = rates_at(sc2, mapping, bf2, p)[0]

    # recompose from the SNR definition: noise term scales with B while
    # the numerator stays put
    b1, b2 = sc.params.bandwidth_hz, sc2.params.bandwidth_hz
    rho2 = 2.0 / (b2 * sc.params.noise_psd + ibar2[0])
    assert r2 == pytest.approx(b2 * np.log2(1 + rho2), rel=1e-12)
    assert r2 == pytest.approx(2 * b1 * np.log2(1 + rho2), rel=1e-12)
    assert r1 > r2 / 2    # same power against doubled noise bandwidth


# --------------------------------------------------------------------------
# RU power and fronthaul
# --------------------------------------------------------------------------

def test_ru_power_zero_allocation_is_quantization_floor():
    sc, ch, bf = unit_gain_instance()
    mapping = full_mapping(sc)
    got = slot_powers(sc, mapping, bf, PowerAllocation(p=np.zeros(1)))[0]
    assert got == pytest.approx(sc.rus[0].sigma_q2, rel=1e-12)


def test_ru_power_scalar_expansion():
    # |h|^2 = 2 so the single-stream weight is |w|^2 = 1/2; p = 2 adds 1 W
    sc = hand_scenario(ue_counts=(1,), slice_rus=((0,),))
    ch = channels_from_matrix(sc, [[np.sqrt(2.0) + 0.0j]])
    bf = build_beamformers(sc, ch)
    mapping = full_mapping(sc)
    got = slot_powers(sc, mapping, bf, PowerAllocation(p=np.array([2.0])))[0]
    assert got == pytest.approx(1.0 + sc.rus[0].sigma_q2, rel=1e-12)


def test_ru_powers_match_summation_oracle():
    cfg = GeneratorConfig(n_services=2, n_slices=2, mean_ues=2.0, max_ues=2,
                          n_rus=6, rus_per_slice=3)
    sc = generate_scenario(cfg, seed=5)
    ch = build_channels(sc)
    bf = build_beamformers(sc, ch)
    mapping = full_mapping(sc)
    rng = np.random.default_rng(5)
    powers = PowerAllocation(p=rng.uniform(0, sc.params.p_max, sc.n_ues))
    fast = slot_powers(sc, mapping, bf, powers)
    slow = summation_oracle("ru_power", sc, mapping, ch, bf, powers)
    assert fast.sum() == pytest.approx(slow.sum(), rel=1e-9)
    assert fast == pytest.approx(slow, rel=1e-9)


def fronthaul(sc, mapping, bf, powers):
    return fronthaul_rates_all(bf, slot_powers(sc, mapping, bf, powers))


def test_fronthaul_zero_power_zero_rate():
    sc, ch, bf = unit_gain_instance()
    got = fronthaul(sc, full_mapping(sc), bf,
                    PowerAllocation(p=np.zeros(1)))[0]
    assert got == 0.0


def test_fronthaul_unit_signal_one_bit():
    sc, ch, bf = unit_gain_instance()
    p = sc.rus[0].sigma_q2      # |w|^2 = 1, so signal power equals sigma_q^2
    got = fronthaul(sc, full_mapping(sc), bf,
                    PowerAllocation(p=np.array([p])))[0]
    assert got == pytest.approx(1.0, rel=1e-12)


def test_fronthaul_cap_boundary_exact():
    sc, ch, bf = unit_gain_instance()
    p = sc.rus[0].sigma_q2 * (2.0 ** 200 - 1.0)
    got = fronthaul(sc, full_mapping(sc), bf,
                    PowerAllocation(p=np.array([p])))[0]
    assert got == pytest.approx(200.0, rel=1e-12)


def test_fronthaul_monotone_in_power(rng):
    cfg = GeneratorConfig(n_services=2, n_slices=2, mean_ues=2.0, max_ues=2,
                          n_rus=4, rus_per_slice=2)
    sc = generate_scenario(cfg, seed=9)
    ch = build_channels(sc)
    bf = build_beamformers(sc, ch)
    mapping = full_mapping(sc)
    p = rng.uniform(0.1, 1.0, sc.n_ues)
    base = fronthaul(sc, mapping, bf, PowerAllocation(p=p))
    for u in range(sc.n_ues):
        bumped = p.copy()
        bumped[u] *= 2.0
        after = fronthaul(sc, mapping, bf, PowerAllocation(p=bumped))
        assert np.all(after >= base - 1e-12)


# --------------------------------------------------------------------------
# energy efficiency
# --------------------------------------------------------------------------

def test_ee_zero_power_zero_eta():
    sc, ch, bf = unit_gain_instance()
    eta, r_tot, p_tot = energy_efficiency(sc, full_mapping(sc), bf,
                                          PowerAllocation(p=np.zeros(1)))
    assert eta == 0.0 and r_tot == 0.0
    assert p_tot == pytest.approx(sc.rus[0].sigma_q2)


def test_ee_is_rate_over_power_on_unit_instance():
    sc, ch, bf = unit_gain_instance()
    mapping = full_mapping(sc)
    powers = PowerAllocation(p=np.array([4.0]))
    eta, r_tot, p_tot = energy_efficiency(sc, mapping, bf, powers)
    rate = rates_at(sc, mapping, bf, powers)[0]
    slot = slot_powers(sc, mapping, bf, powers)[0]
    assert r_tot == pytest.approx(rate, rel=1e-12)
    assert p_tot == pytest.approx(slot, rel=1e-12)
    assert eta == pytest.approx(rate / slot, rel=1e-12)


def test_ee_matches_summation_oracle():
    cfg = GeneratorConfig(n_services=2, n_slices=3, mean_ues=2.0, max_ues=2,
                          n_rus=8, rus_per_slice=4)
    sc = generate_scenario(cfg, seed=9)
    ch = build_channels(sc)
    bf = build_beamformers(sc, ch)
    mapping = full_mapping(sc)
    rng = np.random.default_rng(9)
    powers = PowerAllocation(p=rng.uniform(0, sc.params.p_max, sc.n_ues))
    eta, _, _ = energy_efficiency(sc, mapping, bf, powers)
    slow = summation_oracle("ee", sc, mapping, ch, bf, powers)
    assert eta == pytest.approx(slow, rel=1e-9)
