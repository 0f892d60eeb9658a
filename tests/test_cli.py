"""End-to-end command line checks, driven in-process through main()."""

import functools
import json
import operator
import re

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from conftest import hand_scenario, placement_config
from oranslice import cli
from oranslice.cli import main
from oranslice.oracle import BruteForceResult
from oranslice.scenario import (GeneratorConfig, generate_scenario,
                                load_scenario, save_scenario,
                                scenario_to_dict)

# single-slice family with an interior efficiency optimum the 64-step
# oracle grid can resolve (same calibration as the solver-vs-oracle tests)
EASY_CONFIG = {
    "n_services": 2, "mean_ues": 1.0, "max_ues": 1, "n_slices": 1,
    "n_rus": 30, "rus_per_slice": 30, "p_max": 0.5,
    "sigma_q_frac": 3.5e-4, "r_min_per_hz": 2.0, "region_m": 100.0,
}


def strict_json(path):
    """Parse a result file, refusing the non-standard NaN and Infinity."""
    def refuse(name):
        raise ValueError(f"non-standard JSON constant {name}")
    return json.loads(path.read_text(), parse_constant=refuse)


def read_schema_csv(path):
    lines = path.read_text().splitlines()
    assert lines[0] == "# schema=1"
    rows = [line.split(",") for line in lines[2:] if line]
    return lines[1].split(","), rows


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("cli")


@pytest.fixture(scope="module")
def easy_scenario(workdir):
    cfg = workdir / "easy.config.json"
    cfg.write_text(json.dumps(EASY_CONFIG))
    out = workdir / "easy.scenario.json"
    code = main(["generate", "--config", str(cfg), "--seed", "3",
                 "--out", str(out)])
    assert code == 0
    return out


@pytest.fixture(scope="module")
def solved(easy_scenario, workdir):
    out = workdir / "easy.result.json"
    trace = workdir / "easy.trace.csv"
    code = main(["solve", str(easy_scenario), "--out", str(out),
                 "--trace", str(trace), "--max-iters", "2000"])
    assert code == 0
    return json.loads(out.read_text()), trace


def slice_farm(workdir, name, n):
    """n mean-demand slices, one service each, one mean DC; saved to disk."""
    sc = hand_scenario(ue_counts=(1,) * n,
                       slice_rus=tuple((s,) for s in range(n)))
    path = workdir / name
    save_scenario(sc, str(path))
    return path


# --------------------------------------------------------------------------
# generate
# --------------------------------------------------------------------------


def test_generate_defaults_match_parameter_table(tmp_path, capsys):
    out = tmp_path / "sc.json"
    assert main(["generate", "--out", str(out)]) == 0
    digest = capsys.readouterr().out
    assert digest.startswith(f"scenario {out}: services=3 slices=4 ")
    assert re.search(r"rus=24 dcs=2 sha256=[0-9a-f]{12}", digest)

    sc = load_scenario(str(out))
    p = sc.params
    assert p.bandwidth_hz == 120e3
    assert p.noise_psd == pytest.approx(10 ** (-174 / 10) * 1e-3)
    assert p.p_max == 10.0                      # 40 dBm
    assert p.r_min == pytest.approx(10.0 * 120e3)
    assert p.c_max == 200.0
    assert p.d_max == 300e-6
    assert p.mu1 == 1e4 and p.mu2 == 1e4
    assert p.nu == 0.0
    assert 3 <= sc.n_ues <= 3 * 8


def test_generate_same_seed_is_byte_identical(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["generate", "--seed", "5", "--out", str(a)]) == 0
    assert main(["generate", "--seed", "5", "--out", str(b)]) == 0
    out = capsys.readouterr().out
    assert a.read_bytes() == b.read_bytes()
    shas = re.findall(r"sha256=([0-9a-f]{12})", out)
    assert shas[0] == shas[1]


def test_generate_rejects_zero_services(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n_services": 0}))
    code = main(["generate", "--config", str(cfg),
                 "--out", str(tmp_path / "sc.json")])
    err = capsys.readouterr().err
    assert code == 2
    assert "bad config" in err and "n_services" in err


def test_generate_rejects_unknown_config_field(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"frobnicate": 1}))
    code = main(["generate", "--config", str(cfg),
                 "--out", str(tmp_path / "sc.json")])
    err = capsys.readouterr().err
    assert code == 2
    assert "unknown config field(s): frobnicate" in err


def test_generate_rejects_non_object_config(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("[1, 2]")
    code = main(["generate", "--config", str(cfg),
                 "--out", str(tmp_path / "sc.json")])
    assert code == 2
    assert "JSON object" in capsys.readouterr().err


@pytest.mark.parametrize("config, argv, needle", [
    ({"n_services": 2.5}, [], "n_services=2.5 has the wrong type"),
    ({"p_max": -1}, [], "p_max must be > 0"),
    ({"prb_mode": "shared", "prbs_per_slice": 0}, [],
     "prbs_per_slice must be >= 1"),
    ({}, ["--seed", "-1"], "--seed must be >= 0"),
    ({"region_m": -5}, [], "region_m must be >= 0"),
    ({"arrival_rate_mean": -1}, [], "arrival_rate_mean must be >= 0"),
    ({"arrival_rate_spread": 2.0}, [], "arrival_rate_spread must be in"),
    ({"prb_mode": "shared", "prbs_per_ue": 0}, [],
     "prbs_per_ue must be >= 1"),
    ({"pl_d_min_m": 0, "region_m": 0}, [],
     "pl_d0_m and pl_d_min_m must be > 0"),
    ({"pl_d0_m": 0}, [], "pl_d0_m and pl_d_min_m must be > 0"),
    ({"p_max": True}, [], "p_max=True has the wrong type"),
    ({"mean_ues": 1e19}, [], "mean_ues must be <="),
    ({"pl0": -1}, [], "pl0 and pl_exponent must be >= 0"),
    ({"pl_exponent": -1000}, [], "pl0 and pl_exponent must be >= 0"),
    ({"pl_exponent": 1e6}, [], "the gain at pl_d_min_m"),
    ({"pl_d_min_m": 1e-300, "region_m": 1e-300}, [],
     "the gain at pl_d_min_m"),
], ids=["float-count", "negative-power", "empty-prb-pool", "negative-seed",
        "negative-region", "negative-arrival-mean", "wide-arrival-spread",
        "no-prbs-per-ue", "zero-clamp-distance", "zero-reference-distance",
        "bool-power", "mean-ues-beyond-poisson", "negative-path-gain",
        "gain-growing-with-distance", "overflowing-exponent",
        "overflowing-clamp-distance"])
def test_generate_rejects_bad_config(tmp_path, capsys, config, argv, needle):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "sc.json"
    code = main(["generate", "--config", str(cfg), "--out", str(out), *argv])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and needle in err
    assert not out.exists()


# --------------------------------------------------------------------------
# solve
# --------------------------------------------------------------------------


def test_solve_reports_positive_efficiency(solved, capsys):
    payload, _ = solved
    assert payload["schema"] == 1
    assert payload["eta_bit_per_joule"] > 0
    assert payload["feasible"] and payload["converged"]
    assert payload["uncovered_services"] == []
    assert len(payload["a"]) == 2 and len(payload["a"][0]) == 1


def test_solve_trace_schema_and_monotone_eta(solved):
    payload, trace = solved
    header, rows = read_schema_csv(trace)
    assert header == ["iteration", "eta", "f_value", "max_violation",
                      "inner_iterations", "gap", "stop"]
    assert len(rows) == payload["iterations"]
    etas = [float(r[1]) for r in rows]
    assert all(b >= a for a, b in zip(etas, etas[1:]))


def test_solve_oracle_appends_gap_rows(easy_scenario, workdir, capsys):
    gaps = workdir / "gaps.csv"
    for _ in range(2):
        code = main(["solve", str(easy_scenario), "--oracle",
                     "--oracle-out", str(gaps), "--max-iters", "2000"])
        assert code == 0
    out = capsys.readouterr().out
    assert "oracle eta=" in out
    header, rows = read_schema_csv(gaps)
    assert header == ["instance", "kind", "oracle_value", "heuristic_value",
                      "rel_gap", "wall_time_s"]
    assert len(rows) == 2
    for row in rows:
        assert row[0] == easy_scenario.name
        assert row[1] == "joint_eta"
        assert abs(float(row[4])) <= 0.02


def test_solve_oracle_infeasible_grid_writes_strict_json(
        easy_scenario, tmp_path, monkeypatch, capsys):
    # a grid with no feasible point reports eta 0, so the gap is infinite
    monkeypatch.setattr(cli, "brute_force_mapping", lambda *a, **k:
                        BruteForceResult(feasible=False, eta=0.0, mapping=None,
                                         powers=None, mappings_tried=1,
                                         mappings_feasible=0))
    out = tmp_path / "result.json"
    code = main(["solve", str(easy_scenario), "--oracle", "--out", str(out),
                 "--oracle-out", str(tmp_path / "gaps.csv"),
                 "--max-iters", "2000"])
    capsys.readouterr()
    assert code == 0
    assert strict_json(out)["oracle"] == {"eta": 0.0, "rel_gap": None,
                                          "mappings_tried": 1}


def test_solve_exit_3_reports_uncovered_services(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**EASY_CONFIG, "r_min_per_hz": 1000.0}))
    sc = tmp_path / "sc.json"
    assert main(["generate", "--config", str(cfg), "--out", str(sc)]) == 0
    capsys.readouterr()
    code = main(["solve", str(sc)])
    err = capsys.readouterr().err
    assert code == 3
    assert "infeasible: no slice can serve every service" in err
    assert "service 0 uncovered" in err


def test_solve_oracle_too_large_exits_4(tmp_path, capsys):
    # 13 slices push the mapping space past the exhaustive-search guard
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**EASY_CONFIG, "n_services": 1,
                               "n_slices": 13, "rus_per_slice": 2,
                               "r_min_per_hz": 0.01}))
    sc = tmp_path / "sc.json"
    assert main(["generate", "--config", str(cfg), "--out", str(sc)]) == 0
    code = main(["solve", str(sc), "--oracle", "--max-iters", "300"])
    err = capsys.readouterr().err
    assert code == 4
    assert "error:" in err and "12" in err


def test_solve_rejects_bad_packet_size(easy_scenario, capsys):
    code = main(["solve", str(easy_scenario), "--packet-size", "-1"])
    assert code == 2
    assert "--packet-size" in capsys.readouterr().err


@pytest.mark.parametrize("command, argv, needle", [
    ("solve", ["--packet-size", "nan"], "--packet-size"),
    ("solve", ["--packet-size", "inf"], "--packet-size"),
    ("solve", ["--max-iters", "0"], "--max-iters"),
    ("solve", ["--max-iters=-5"], "--max-iters"),
    ("solve", ["--oracle", "--grid-n", "1"], "--grid-n"),
    ("place", ["--weights=nan,1,1"], "--weights"),
    ("place", ["--weights=inf,1,1"], "--weights"),
    ("place", ["--weights=-1,1,1"], "--weights"),
    ("place", ["--nu=-5"], "--nu"),
    ("place", ["--nu", "nan"], "--nu"),
], ids=["packet-size-nan", "packet-size-inf", "max-iters-zero",
        "max-iters-negative", "grid-n-one", "weights-nan", "weights-inf",
        "weights-negative", "nu-negative", "nu-nan"])
def test_solve_and_place_reject_bad_arguments(easy_scenario, tmp_path, capsys,
                                              command, argv, needle):
    out = tmp_path / "out.json"
    code = main([command, str(easy_scenario), "--out", str(out), *argv])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and needle in err
    assert not out.exists()


def test_solve_rejects_missing_scenario(tmp_path, capsys):
    code = main(["solve", str(tmp_path / "nope.json")])
    assert code == 2
    assert "cannot read" in capsys.readouterr().err


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("keys, value, needle", [
    ((), {"schema": 1}, "bad scenario"),
    (("zeta", 0), [999, 0, 0], "zeta entries"),
    (("zeta", 0), [-1, 0, 0], "zeta entries"),
    (("zeta", 0), [0.5, 0, 0], "zeta entries"),
    (("zeta", 0), [0, 0], "zeta entries"),
    (("prbs", "count"), -1, "PRB count"),
    (("services", 0, "ues", 0, "arrival_rate"), NAN, "must be finite"),
    (("services", 0, "ues", 0, "position"), [INF, 0.0], "must be finite"),
    (("rus", 0, "position"), [0.0, NAN], "must be finite"),
    (("params", "p_max"), NAN, "must be finite"),
    (("zeta", 0), [True, 0, 0], "zeta entries"),
    (("slices", 0, "prb_ids"), [1.5], "unknown PRBs"),
    (("slices", 0, "prb_ids"), [True], "unknown PRBs"),
    (("slices", 0, "prb_ids"), [0, 1, 1], "lists a PRB twice"),
    (("slices", 0, "ru_ids", 0), 1.0, "unknown radio units"),
    (("slices", 0, "id"), 0.0, "slice ids must be the integers"),
    (("services", 0, "id"), False, "service ids must be the integers"),
    (("services", 0, "ues", 0, "id"), 0.0, "UE ids must be the integers"),
    (("rus", 0, "id"), 0.0, "radio unit ids must be the integers"),
    (("dcs", 0, "id"), False, "data center ids must be the integers"),
    (("channel", "seed"), True, "channel seed must be an integer"),
    (("params", "p_max"), True, "must be finite"),
    (("services", 0, "ues", 0, "arrival_rate"), True, "must be finite"),
    (("rus", 0, "sigma_q2"), False, "must be finite"),
    (("channel", "d_min_m"), 0.0, "d0_m and d_min_m must be > 0"),
    (("channel", "d0_m"), -1.0, "d0_m and d_min_m must be > 0"),
    (("channel", "pl0"), -1.0, "pl0 and exponent must be >= 0"),
    (("channel", "exponent"), -1000.0, "pl0 and exponent must be >= 0"),
    (("channel", "exponent"), 1e6, "the gain at d_min_m"),
    (("channel", "d_min_m"), 1e-300, "the gain at d_min_m"),
    (("dcs",), [], "no data center"),
], ids=["missing-fields", "zeta-ue-999", "zeta-ue-negative", "zeta-ue-float",
        "zeta-pair", "negative-prb-count", "nan-arrival", "inf-ue-position",
        "nan-ru-position", "nan-p-max", "zeta-ue-bool", "prb-id-float",
        "prb-id-bool", "prb-id-twice", "ru-id-float", "slice-id-float",
        "service-id-bool", "ue-id-float", "ru-own-id-float", "dc-id-bool",
        "channel-seed-bool", "bool-p-max", "bool-arrival", "bool-sigma-q2",
        "zero-clamp-distance", "negative-reference-distance",
        "negative-path-gain", "gain-growing-with-distance",
        "overflowing-exponent", "overflowing-clamp-distance",
        "no-data-center"])
def test_solve_rejects_malformed_scenario(easy_scenario, tmp_path, capsys,
                                          keys, value, needle):
    """`keys` locates the field replaced by `value`; () replaces the whole
    document.  `place` loads the scenario the same way and must agree."""
    data = json.loads(easy_scenario.read_text())
    if keys:
        node = data
        for key in keys[:-1]:
            node = node[key]
        node[keys[-1]] = value
    else:
        data = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    for command in ("solve", "place"):
        code = main([command, str(bad)])
        assert code == 2
        assert needle in capsys.readouterr().err


# two services on two slices that share a 3-PRB pool, two PRBs per UE
FUZZ_BASE = scenario_to_dict(generate_scenario(GeneratorConfig(
    n_services=2, mean_ues=1.5, max_ues=2, n_slices=2, n_rus=6,
    rus_per_slice=4, prb_mode="shared", prbs_per_slice=3, prbs_per_ue=2,
    r_min_per_hz=0.5, region_m=100.0), seed=1))


def index_paths(doc):
    """Every index field of a scenario document, as key paths."""
    paths = [("prbs", "count"), ("zeta",)]
    for key in ("services", "slices", "rus", "dcs"):
        paths += [(key, i, "id") for i in range(len(doc[key]))]
    for i, sv in enumerate(doc["services"]):
        paths += [("services", i, "ues", j, "id")
                  for j in range(len(sv["ues"]))]
    for s, sl in enumerate(doc["slices"]):
        for key in ("ru_ids", "prb_ids"):
            paths += [("slices", s, key)]
            paths += [("slices", s, key, j) for j in range(len(sl[key]))]
    for i in range(len(doc["zeta"])):
        paths += [("zeta", i)] + [("zeta", i, c) for c in range(3)]
    return paths


SMALL = st.integers(-1, 6)
SCALARS = st.one_of(SMALL, st.booleans(), st.none(), st.floats(-2.0, 8.0),
                    st.just("1"),
                    st.sampled_from([2**62, 2**63, -2**63 - 1, 10**30]))
VALUES = st.one_of(SMALL, SCALARS, st.lists(SMALL, max_size=4),
                   st.lists(SCALARS, max_size=4),
                   st.lists(st.lists(SMALL, min_size=3, max_size=3),
                            max_size=4))


@settings(derandomize=True, database=None, max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(edits=st.lists(st.tuples(st.sampled_from(index_paths(FUZZ_BASE)),
                                VALUES, st.booleans()),
                      min_size=1, max_size=3))
def test_index_fields_never_crash(workdir, edits):
    """Replacing an index field, or appending to a list-valued one, makes
    `solve` exit 0, 2 or 3 and `place` exit 0 or 2, never an exception."""
    data = json.loads(json.dumps(FUZZ_BASE))
    for keys, value, append in edits:
        try:
            node = functools.reduce(operator.getitem, keys[:-1], data)
            old = node[keys[-1]]
        except (KeyError, IndexError, TypeError):
            continue                  # an earlier edit removed the field
        if append and isinstance(old, list):
            old.append(value)
        elif isinstance(node, (list, dict)):
            node[keys[-1]] = value
    path = workdir / "fuzz.json"
    path.write_text(json.dumps(data))
    assert main(["solve", str(path), "--max-iters", "200"]) in (0, 2, 3)
    assert main(["place", str(path)]) in (0, 2)


# --------------------------------------------------------------------------
# place
# --------------------------------------------------------------------------


def test_place_ten_mean_slices_all_admitted(workdir, capsys):
    sc = slice_farm(workdir, "ten.json", 10)
    out = workdir / "ten.place.json"
    code = main(["place", str(sc), "--out", str(out)])
    stdout = capsys.readouterr().out
    assert code == 0
    assert "admitted=10/10 ratio=1" in stdout
    payload = json.loads(out.read_text())
    assert payload["admitted_ratio"] == 1.0
    # 10 mean slices consume the mean DC exactly
    assert all(r == 0.0 for r in payload["residuals"]["0"])


def test_place_eleventh_slice_rejected_single_dc(workdir, capsys):
    sc = slice_farm(workdir, "eleven.json", 11)
    code = main(["place", str(sc), "--single-dc"])
    stdout = capsys.readouterr().out
    assert code == 0
    assert "admitted=10/11 ratio=0.9091" in stdout


def test_place_oracle_gap_row(workdir, capsys):
    sc = slice_farm(workdir, "three.json", 3)
    gaps = workdir / "place.gaps.csv"
    code = main(["place", str(sc), "--oracle", "--oracle-out", str(gaps)])
    stdout = capsys.readouterr().out
    assert code == 0
    assert "oracle psi=" in stdout
    _, rows = read_schema_csv(gaps)
    assert rows[0][1] == "placement_psi"
    assert abs(float(rows[0][4])) <= 1e-12   # both admit everything on DC 0


def test_place_oracle_infeasible_writes_strict_json(tmp_path, capsys):
    # the six slices demand more than the three DCs hold in total
    sc = tmp_path / "tight.json"
    save_scenario(generate_scenario(placement_config(6, 3, 0.2), seed=100),
                  str(sc))
    out = tmp_path / "place.json"
    code = main(["place", str(sc), "--oracle", "--nu", "0", "--out", str(out),
                 "--oracle-out", str(tmp_path / "gaps.csv")])
    capsys.readouterr()
    assert code == 0
    assert strict_json(out)["oracle"] == {"psi": None, "feasible": False,
                                          "rel_gap": None}


def test_place_oracle_too_many_slices_exits_4(workdir, capsys):
    sc = slice_farm(workdir, "eleven_oracle.json", 11)
    code = main(["place", str(sc), "--oracle"])
    err = capsys.readouterr().err
    assert code == 4
    assert "10 active" in err


def test_place_mapping_file_selects_active_slices(workdir, tmp_path, capsys):
    sc = slice_farm(workdir, "two.json", 2)
    mapping = tmp_path / "map.json"
    mapping.write_text(json.dumps({"a": [[1, 0], [0, 0]]}))
    code = main(["place", str(sc), "--mapping", str(mapping)])
    stdout = capsys.readouterr().out
    assert code == 0
    assert "admitted=1/1 ratio=1" in stdout


@pytest.mark.parametrize("payload, needle", [
    ({"b": [[1]]}, "missing mapping matrix"),
    ({"a": [[1]]}, "mapping shape"),
    ({"a": [[1, 2], [0, 0]]}, "must be 0 or 1"),
    ({"a": [[1.5, 0], [0, 0]]}, "must be 0 or 1"),
    ({"a": [[300, 0], [0, 0]]}, "must be 0 or 1"),
    ({"a": [["ab", 0], [0, 0]]}, "must be 0 or 1"),
    ({"a": [[1, 0], [0]]}, "mapping shape"),
    ({"a": "ab"}, "mapping shape"),
])
def test_place_rejects_bad_mapping_files(workdir, tmp_path, capsys,
                                         payload, needle):
    sc = slice_farm(workdir, "two_bad.json", 2)
    mapping = tmp_path / "map.json"
    mapping.write_text(json.dumps(payload))
    code = main(["place", str(sc), "--mapping", str(mapping)])
    assert code == 2
    assert needle in capsys.readouterr().err


MAP_ENTRIES = st.one_of(st.integers(-1, 2), st.booleans(), st.none(),
                        st.floats(), st.just("1"),
                        st.sampled_from([2**63, 10**30]),
                        st.lists(st.integers(0, 1), max_size=2))
MAPPING_EDITS = st.one_of(
    st.tuples(st.just("entry"), st.integers(0, 2), st.integers(0, 2),
              MAP_ENTRIES),
    st.tuples(st.just("row"), st.integers(0, 2),
              st.one_of(MAP_ENTRIES, st.lists(MAP_ENTRIES, max_size=3))),
    st.tuples(st.just("drop"), st.integers(0, 2)),
    st.tuples(st.just("a"), MAP_ENTRIES),
    st.just(("missing",)))


@settings(derandomize=True, database=None, max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(edits=st.lists(MAPPING_EDITS, min_size=1, max_size=3))
def test_mapping_file_edits_never_crash(workdir, edits):
    """Changing a valid `place --mapping` file's shape, entry types or
    values, or dropping its `a`, makes `place` exit 0 or 2."""
    sc = slice_farm(workdir, "map_fuzz.json", 2)
    doc = {"a": [[1, 0], [0, 1]]}
    for kind, *args in edits:
        a = doc.get("a")
        if kind == "missing":
            doc.pop("a", None)
        elif kind == "a":
            doc["a"] = args[0]
        elif not isinstance(a, list) or args[0] >= len(a):
            continue
        elif kind == "drop":
            del a[args[0]]
        elif kind == "row":
            a[args[0]] = args[1]
        elif isinstance(a[args[0]], list) and args[1] < len(a[args[0]]):
            a[args[0]][args[1]] = args[2]
    mapping = workdir / "map_fuzz.mapping.json"
    mapping.write_text(json.dumps(doc))
    assert main(["place", str(sc), "--mapping", str(mapping)]) in (0, 2)


def test_place_memory_only_weights(tmp_path, capsys):
    sc = tmp_path / "memory.json"
    save_scenario(hand_scenario(vnf_demand=(10.0, 0.0, 0.0), phi_idle=5.0,
                                phi_per_unit=1.0), str(sc))
    code = main(["place", str(sc), "--weights", "1,0,0"])
    stdout = capsys.readouterr().out
    assert code == 0
    assert "phi=15" in stdout                 # idle 5 + 1 * weighted 10


@pytest.mark.parametrize("text, needle", [
    ("1,2", "wM,wS,wC"),
    ("a,b,c", "three floats"),
])
def test_place_rejects_bad_weights(workdir, capsys, text, needle):
    sc = slice_farm(workdir, "two_w.json", 2)
    code = main(["place", str(sc), "--weights", text])
    assert code == 2
    assert needle in capsys.readouterr().err


# --------------------------------------------------------------------------
# experiment
# --------------------------------------------------------------------------


def test_experiment_ee_sweep_writes_trend_column(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({
        "kind": "ee_vs_mean_ues", "x_values": [1, 2], "series": [1],
        "seeds": [0],
        "overrides": {"n_rus": 8, "rus_per_slice": 8, "max_ues": 3},
    }))
    out = tmp_path / "ee.csv"
    code = main(["experiment", str(spec), "--out", str(out)])
    stdout = capsys.readouterr().out
    assert code == 0
    assert f"wrote {out}" in stdout
    header, rows = read_schema_csv(out)
    assert header == ["n_services", "mean_ues", "n_feasible", "ee_mean",
                      "ee_std", "trend_ok"]
    assert [(r[0], r[1]) for r in rows] == [("1", "1"), ("1", "2")]
    assert rows[0][5] == "1"                  # first point has no predecessor
    for row in rows:
        assert int(row[2]) == 1               # seed 0 is feasible at both x
        assert row[5] in ("0", "1")
        assert float(row[3]) > 0


def test_experiment_admitted_sweep(tmp_path, capsys):
    out = tmp_path / "admitted.csv"
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({
        "kind": "admitted_vs_slices", "x_values": [2, 4], "series": [1],
        "seeds": [0, 1], "out": str(out),
    }))
    code = main(["experiment", str(spec), "--plot"])
    assert code == 0
    capsys.readouterr()

    header, rows = read_schema_csv(out)
    assert header == ["n_dcs", "n_slices", "n_seeds", "ratio_mean",
                      "ratio_std", "trend_ok"]
    assert [(r[0], r[1]) for r in rows] == [("1", "2"), ("1", "4")]
    for row in rows:
        assert int(row[2]) == 2
        assert 0.0 < float(row[3]) <= 1.0

    raw_header, raw_rows = read_schema_csv(tmp_path / "admitted.csv.raw.csv")
    assert raw_header == ["n_slices", "n_dcs", "seed", "admitted_ratio",
                          "phi_tot", "psi_tot"]
    assert len(raw_rows) == 4

    script = (tmp_path / "admitted.csv.gnuplot").read_text()
    assert "plot " in script and str(out) in script


def test_experiment_consumption_sweep(tmp_path, capsys):
    out = tmp_path / "consumption.csv"
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({
        "kind": "consumption_vs_slices", "x_values": [2, 4], "series": [1],
        "seeds": [0], "out": str(out),
    }))
    assert main(["experiment", str(spec)]) == 0
    capsys.readouterr()
    header, rows = read_schema_csv(out)
    assert header[3] == "consumption_mean"
    for row in rows:
        assert 0.0 <= float(row[3]) <= 1.0


def test_experiment_unknown_kind_exits_2(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"kind": "nope", "out": "x.csv"}))
    code = main(["experiment", str(spec)])
    assert code == 2
    assert "unknown experiment kind" in capsys.readouterr().err


def test_experiment_empty_seeds_exits_2(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"kind": "ee_vs_mean_ues", "seeds": [],
                                "out": "x.csv"}))
    code = main(["experiment", str(spec)])
    assert code == 2
    assert "nonempty 'seeds'" in capsys.readouterr().err


def test_experiment_needs_output_path(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"kind": "ee_vs_mean_ues", "seeds": [0]}))
    code = main(["experiment", str(spec)])
    assert code == 2
    assert "no output path" in capsys.readouterr().err


@pytest.mark.parametrize("fields", [
    {"seeds": ["a"]},
    {"x_values": ["x"]},
    {"x_values": [-3]},
    {"series": [0]},
    {"overrides": {"bogus": 1}},
    {"overrides": "zz"},
    {"kind": "admitted_vs_slices", "nu": "abc"},
    {"x_values": [1e19]},
], ids=["seed-string", "x-string", "x-negative", "series-zero",
        "override-unknown", "override-not-object", "nu-string",
        "x-beyond-poisson"])
def test_experiment_rejects_malformed_spec(tmp_path, capsys, fields):
    out = tmp_path / "x.csv"
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"kind": "ee_vs_mean_ues", "seeds": [0],
                                "out": str(out), **fields}))
    code = main(["experiment", str(spec)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("command, doc, needle", [
    ("generate", {"n_services": 10 ** 9}, "n_services must be in [1, 1000]"),
    ("generate", {"n_slices": 10 ** 9}, "n_slices must be in [1, 1000]"),
    ("experiment", {"kind": "ee_vs_mean_ues", "series": [3, 10 ** 9]},
     "n_services must be in [1, 1000]"),
    ("experiment", {"kind": "ee_vs_mean_ues", "series": [3],
                    "overrides": {"n_slices": 10 ** 9}},
     "n_slices must be in [1, 1000]"),
    ("experiment", {"kind": "admitted_vs_slices", "x_values": [10 ** 12]},
     "n_slices must be in [1, 1000]"),
], ids=["generate-services", "generate-slices", "ee-series",
        "ee-slices-override", "placement-x-values"])
def test_oversized_counts_exit_2_before_generating(tmp_path, capsys,
                                                   monkeypatch, command, doc,
                                                   needle):
    # the caps must reject the count before anything is drawn or allocated
    def never(*args, **kwargs):
        raise AssertionError("generated an oversized scenario")

    monkeypatch.setattr(cli, "generate_scenario", never)
    out = tmp_path / "out"
    path = tmp_path / "input.json"
    if command == "generate":
        path.write_text(json.dumps(doc))
        argv = ["generate", "--config", str(path), "--out", str(out)]
    else:
        path.write_text(json.dumps({"seeds": [0], "out": str(out), **doc}))
        argv = ["experiment", str(path)]
    code = main(argv)
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and needle in err
    assert not out.exists()
