"""Scenario generation, validation, and serialization."""

import dataclasses
import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oranslice import scenario
from oranslice.scenario import (RULES, ChannelModel, DataCenter,
                                GeneratorConfig, RadioUnit, ScenarioError,
                                SystemParams, UserEquipment, VnfRequirement,
                                draw_subsets, generate_scenario,
                                load_scenario, save_scenario,
                                scenario_from_dict, scenario_to_dict,
                                validate)

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


def per_set_choice(rng, groups):
    """`draw_subsets` as one `rng.choice` call per set."""
    return [np.sort(np.reshape([rng.choice(n, k, replace=False)
                                for _ in range(m)], (m, k)), axis=1)
            for n, k, m in groups]


@pytest.mark.parametrize("n", [1, 2, 16, 17, 64, 10_000])
def test_one_draw_equals_per_set_choice(n):
    # the sets and the generator state both match the installed numpy's
    # `choice`; each case starts after one uint32 draw, so PCG64's
    # buffered half-word is in play
    for k in sorted({1, 2, 3, n // 2, n} & set(range(1, n + 1))):
        for seed in range(10):
            ref, rng = np.random.default_rng(seed), np.random.default_rng(seed)
            for gen in (ref, rng):
                gen.integers(2 ** 32, dtype=np.uint32)
            groups = [(n, k, 2), (5, 2, 3)]
            want = per_set_choice(ref, groups)
            got = draw_subsets(rng, groups)
            assert all(np.array_equal(a, b) for a, b in zip(got, want))
            assert rng.bit_generator.state == ref.bit_generator.state


@pytest.mark.parametrize("overrides", [
    {}, {"prb_mode": "shared", "prbs_per_ue": 1},
    {"prb_mode": "shared", "prbs_per_ue": 2},
    {"prb_mode": "shared", "prbs_per_ue": 3},
    {"prb_mode": "shared", "prbs_per_ue": 16},
], ids=["dedicated", "shared-1", "shared-2", "shared-3", "shared-all"])
def test_generator_draws_as_per_set_choice(monkeypatch, overrides):
    # the DC draws come after the sets, so they see the generator state
    cfg = GeneratorConfig(n_services=3, mean_ues=4.0, n_slices=5,
                          prbs_per_slice=16, dc_cv=0.2, **overrides)
    one_call = [scenario_to_dict(generate_scenario(cfg, seed))
                for seed in range(3)]
    monkeypatch.setattr(scenario, "draw_subsets", per_set_choice)
    assert [scenario_to_dict(generate_scenario(cfg, seed))
            for seed in range(3)] == one_call


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
    ("pl_exponent", 1e6), ("pl_d_min_m", 1e-300), ("pl0", 1e-320),
    ("pl0", 1e300), ("pl0", 0.0), ("region_m", 1e300),
])
def test_invalid_config_rejected(field, value):
    with pytest.raises(ScenarioError):
        GeneratorConfig(**{field: value})


@pytest.mark.parametrize("cls", [SystemParams, GeneratorConfig, ChannelModel,
                                 UserEquipment, RadioUnit, VnfRequirement,
                                 DataCenter])
def test_every_numeric_field_has_a_rule(cls):
    # field_problems checks only the fields the rule table names, so a
    # numeric field without a row would go unchecked
    names = {f.name for f in dataclasses.fields(cls)} - {"id", "prb_mode"}
    assert names <= set(RULES)


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
    pos = np.array([ue.position for sv in sc.services for ue in sv.ues]
                   + [ru.position for ru in sc.rus])
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


@pytest.mark.parametrize("prbs, digest", [
    ("dedicated",
     "c7feb450b46afbaba81d3ae6f34408392c71b21f138cd9088e78bced0078e58b"),
    ("shared",
     "cede817a59fc104ac99e22f9e5b43b804447a3c2bc76cd6d4405839894b894df"),
])
def test_scenario_file_bytes_pinned(tmp_path, prbs, digest):
    """The bytes `save_scenario` writes for two hand-built scenarios, one
    with a private PRB per UE per slice and one with two PRBs every UE
    of a slice may use.  Hand scenarios draw nothing, so the digests do
    not depend on the numpy version."""
    if prbs == "dedicated":
        sc = hand_scenario(
            ue_counts=(2, 1), arrival_rates=(120.5, 80.25, 99.0),
            slice_rus=((0, 1), (1, 2)), sigma_q2=(1e-4, 2e-4, 3e-4),
            slice_prbs=((0, 1, 2), (0, 1, 2)),
            vnf_demands=((100.0, 10.0, 32.0), (50.0, 5.0, 16.0)),
            dc_specs=((1000.0, 100.0, 320.0), (500.0, 50.0, 160.0)),
            phi_idle=200.0, phi_per_unit=0.05,
            triples=[(u, u, s) for s in range(2) for u in range(3)])
    else:
        sc = hand_scenario(ue_counts=(2, 2), slice_rus=((0, 1), (0, 2)),
                           slice_prbs=((0, 1), (0, 1)), m_du=2, m_cu=1)
    path = tmp_path / "scenario.json"
    save_scenario(sc, str(path))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest
    assert scenario_to_dict(load_scenario(str(path))) == scenario_to_dict(sc)


def test_from_dict_rejects_unknown_schema():
    sc = generate_scenario(GeneratorConfig(), seed=0)
    data = scenario_to_dict(sc)
    data["schema"] = 999
    with pytest.raises(ScenarioError):
        scenario_from_dict(data)


def test_replace_gives_fresh_index_caches():
    sc = hand_scenario(ue_counts=(1, 2))
    # fills the caches
    assert (sc.n_ues, sc.service_ue_indices(1)[0]) == (3, 1)
    fewer = dataclasses.replace(sc, services=sc.services[1:])
    assert (fewer.n_ues, fewer.service_ue_indices(0)[0]) == (2, 0)
    assert (sc.n_ues, sc.service_ue_indices(1)[0]) == (3, 1)


# --------------------------------------------------------------------------
# validate against a record-by-record reference
# --------------------------------------------------------------------------


def norm_distances(sc):
    """RU-UE distances as the norm over the coordinate axis."""
    ues = np.array([ue.position for sv in sc.services for ue in sv.ues],
                   dtype=float)
    rus = np.array([ru.position for ru in sc.rus], dtype=float)
    with np.errstate(over="ignore"):
        return np.linalg.norm(rus[:, None, :] - ues[None, :, :], axis=2)


def reference_validate(sc):
    """`validate` written as one `field_problems` call per record and
    Python sets per slice; the column and array checks must agree."""
    problems = [why for sv in sc.services for ue in sv.ues for why in
                scenario.field_problems(f"service {sv.id} UE {ue.id} ", ue)]
    for ru in sc.rus:
        problems += scenario.field_problems(f"radio unit {ru.id} ", ru)
    for sl in sc.slices:
        for k, vnf in enumerate(sl.vnf_demands):
            problems += scenario.field_problems(f"slice {sl.id} VNF {k} ",
                                                vnf)
    for dc in sc.dcs:
        problems += scenario.field_problems(f"data center {dc.id} ", dc)
    problems += scenario.field_problems("channel ", sc.channel)
    path_loss = (sc.channel.pl0, sc.channel.d0_m, sc.channel.d_min_m,
                 sc.channel.exponent)
    try:
        d_far = float(np.max(norm_distances(sc), initial=0.0))
    except (TypeError, ValueError, IndexError):
        d_far = 0.0
    if all(map(scenario.is_real, path_loss)):
        why = scenario.path_gain_problem(*path_loss, d_far)
        if why is not None:
            problems.append(f"channel model {why}")

    def check_dense_ids(items, label):
        ids = [it.id for it in items]
        if not scenario.all_integers(ids) or ids != list(range(len(ids))):
            problems.append(f"{label} ids must be the integers "
                            f"0..{len(ids) - 1}, got {ids}")

    for items, label in ((sc.services, "service"), (sc.slices, "slice"),
                         (sc.rus, "radio unit"), (sc.dcs, "data center")):
        check_dense_ids(items, label)
    if not sc.dcs:
        problems.append("scenario has no data center")
    for sv in sc.services:
        if sv.n_ues < 1:
            problems.append(f"service {sv.id} has no UEs")
        check_dense_ids(sv.ues, f"service {sv.id} UE")

    ru_ids = {ru.id for ru in sc.rus}
    n_prbs = sc.prb_assignment.n_prbs
    for sl in sc.slices:
        for what, ids, known in (
                ("radio unit", sl.ru_ids, ru_ids.issuperset),
                ("PRB", sl.prb_ids, lambda ids: 0 <= min(ids, default=0)
                 and max(ids, default=-1) < n_prbs)):
            typed = scenario.all_integers(ids)
            if not ids:
                problems.append(f"slice {sl.id} owns no {what}s")
            if typed and len(set(ids)) != len(ids):
                problems.append(f"slice {sl.id} lists a {what} twice")
            if not (typed and known(ids)):
                problems.append(f"slice {sl.id} references unknown {what}s")
        if sl.m_du < 1 or sl.m_cu < 1:
            problems.append(f"slice {sl.id} needs at least one VNF per layer")
        if len(sl.vnf_demands) != sl.m_du + sl.m_cu:
            problems.append(
                f"slice {sl.id} must list exactly m_du+m_cu VNF demands")

    triples = sc.prb_assignment.triples
    dims = (sc.n_ues, n_prbs, sc.n_slices)
    inside = ((triples >= 0) & (triples < dims)).all(axis=1)
    if not inside.all():
        problems.append(f"zeta entries must be [ue, prb, slice] index "
                        f"triples within {dims}")
    for s, sl in enumerate(sc.slices):
        listed = {k for _u, k, t in triples[inside].tolist() if t == s}
        if scenario.all_integers(sl.prb_ids) and not listed <= set(sl.prb_ids):
            problems.append(
                f"slice {sl.id}: zeta marks PRBs the slice does not own")
    return problems


def outcome(check, sc):
    """What `check(sc)` returns, or the type and text of what it raises."""
    try:
        return check(sc)
    except Exception as exc:      # noqa: BLE001 - compared, not hidden
        return type(exc), str(exc)


# dedicated and shared PRBs; slices share RUs
DIFFERENTIAL_BASES = (
    generate_scenario(GeneratorConfig(n_services=3, n_slices=3, mean_ues=2.0,
                                      max_ues=3, n_rus=6, rus_per_slice=4),
                      seed=5),
    generate_scenario(GeneratorConfig(n_services=2, n_slices=3, mean_ues=2.0,
                                      max_ues=3, n_rus=5, rus_per_slice=3,
                                      prb_mode="shared", prbs_per_slice=4,
                                      prbs_per_ue=2), seed=6),
)

ODD_NUMBERS = st.one_of(
    st.floats(), st.integers(-3, 3),
    st.sampled_from([-0.0, 5e-324, 1e-310, 2.2250738585072014e-308,
                     -1e-310, 1.7976931348623157e308, 2**53 + 1, -2**53 - 1,
                     2**63, -2**63 - 1, 2**64, 10**30, 10**400]),
    st.booleans(), st.none(), st.just("1"), st.just(np.float64(2.5)))
POSITIONS = st.one_of(
    st.tuples(ODD_NUMBERS, ODD_NUMBERS),
    st.lists(st.floats(-100.0, 100.0), min_size=1, max_size=3).map(tuple),
    st.lists(st.floats(-100.0, 100.0), min_size=2, max_size=2),
    st.tuples(st.floats(1e150, 1e300), st.floats(-1e300, -1e150)))
IDS = st.one_of(st.integers(-1, 8), st.booleans(), st.floats(-1.0, 8.0),
                st.sampled_from([2**63, -2**63 - 1, 10**30, "0", None]))
EDITS = st.one_of(
    st.tuples(st.just("ue"), st.integers(0, 8),
              st.sampled_from(["arrival_rate", "position"]), ODD_NUMBERS),
    st.tuples(st.just("ue"), st.integers(0, 8), st.just("position"),
              POSITIONS),
    st.tuples(st.just("ru"), st.integers(0, 5),
              st.sampled_from(["sigma_q2", "position", "id"]), ODD_NUMBERS),
    st.tuples(st.just("ru"), st.integers(0, 5), st.just("position"),
              POSITIONS),
    st.tuples(st.just("vnf"), st.integers(0, 11),
              st.sampled_from(["memory_gb", "storage_tb", "cpu_ghz"]),
              ODD_NUMBERS),
    st.tuples(st.just("dc"), st.integers(0, 1),
              st.sampled_from(["memory_gb", "storage_tb", "cpu_ghz",
                               "phi_idle", "phi_per_unit"]), ODD_NUMBERS),
    st.tuples(st.just("slice"), st.integers(0, 2),
              st.sampled_from(["ru_ids", "prb_ids"]),
              st.one_of(st.lists(st.integers(-1, 6), max_size=6),
                        st.lists(IDS, max_size=5)).map(tuple)),
    st.tuples(st.just("prbs"), st.just(0), st.just("n_prbs"),
              st.sampled_from([0, 1, 3, 2**63, 2**70, 4.0])))


def edited(sc, kind, i, name, value):
    """`sc` with field `name` of its i-th record of `kind` set to
    `value` (i taken modulo the number of such records)."""
    replace = dataclasses.replace
    if kind == "prbs":
        return replace(sc, prb_assignment=replace(sc.prb_assignment,
                                                  **{name: value}))
    if kind in ("ru", "dc"):
        key = {"ru": "rus", "dc": "dcs"}[kind]
        records = list(getattr(sc, key))
        i %= len(records)
        records[i] = replace(records[i], **{name: value})
        return replace(sc, **{key: tuple(records)})
    if kind == "slice":
        slices = list(sc.slices)
        i %= len(slices)
        slices[i] = replace(slices[i], **{name: value})
        return replace(sc, slices=tuple(slices))
    owners = sc.services if kind == "ue" else sc.slices
    field_name = "ues" if kind == "ue" else "vnf_demands"
    at = [(j, k) for j, owner in enumerate(owners)
          for k in range(len(getattr(owner, field_name)))]
    j, k = at[i % len(at)]
    records = list(getattr(owners[j], field_name))
    records[k] = replace(records[k], **{name: value})
    owner = replace(owners[j], **{field_name: tuple(records)})
    owners = owners[:j] + (owner,) + owners[j + 1:]
    return replace(sc, **{"services" if kind == "ue" else "slices": owners})


@settings(derandomize=True, database=None, max_examples=400, deadline=None)
@given(base=st.sampled_from(DIFFERENTIAL_BASES),
       edits=st.lists(EDITS, min_size=1, max_size=4))
def test_validate_matches_record_by_record_reference(base, edits):
    sc = base
    for edit in edits:
        sc = edited(sc, *edit)
    fresh = dataclasses.replace(sc)       # no cached distances
    assert outcome(validate, sc) == outcome(reference_validate, fresh)


def test_reference_validate_sees_every_edit_kind():
    # the differential test compares problem lists, not empty ones
    base = DIFFERENTIAL_BASES[1]
    for edit, needle in (
            (("ue", 0, "arrival_rate", -1.0), "arrival_rate must be >= 0"),
            (("ue", 1, "position", (1.0,)), "must be an (x, y) pair"),
            (("ru", 2, "sigma_q2", 5e-324), "must be a normal float"),
            (("vnf", 3, "cpu_ghz", 2**63), "finite, a float or an int64"),
            (("dc", 1, "phi_idle", "1"), "has the wrong type"),
            (("slice", 1, "prb_ids", (0, 0)), "lists a PRB twice"),
            (("slice", 2, "ru_ids", (9,)), "unknown radio units"),
            (("slice", 0, "prb_ids", (0, 1)), "does not own"),
            # as many ids as PRBs, one of them unknown
            (("slice", 0, "prb_ids", (0, 1, 2, 7)), "does not own")):
        problems = validate(edited(base, *edit))
        assert any(needle in p for p in problems), (edit, problems)
        assert problems == reference_validate(edited(base, *edit))


@pytest.mark.parametrize("seed", range(4))
def test_distances_equal_the_norm_form(seed):
    rng = np.random.default_rng(seed)
    sc = generate_scenario(GeneratorConfig(n_rus=30, rus_per_slice=5,
                                           mean_ues=5.0, max_ues=9), seed)
    scale = [1.0, 1e150, 1e154, 1e300][seed]    # up to overflowing squares

    def moved(record):
        xy = tuple((rng.uniform(-1.0, 1.0, 2) * scale).tolist())
        return dataclasses.replace(record, position=xy)
    sc = dataclasses.replace(
        sc, rus=tuple(map(moved, sc.rus)), services=tuple(
            dataclasses.replace(sv, ues=tuple(map(moved, sv.ues)))
            for sv in sc.services))
    d, want = sc.ru_ue_distances, norm_distances(sc)
    assert d.tobytes() == want.tobytes() and not d.flags.writeable
    # positions that are not pairs keep the norm over every coordinate
    sc = dataclasses.replace(sc, rus=tuple(
        dataclasses.replace(ru, position=(*ru.position, 1.0))
        for ru in sc.rus))
    with pytest.raises(ValueError):
        norm_distances(sc)
    with pytest.raises(ValueError):
        sc.ru_ue_distances
