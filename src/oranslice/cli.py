"""Command-line front end.

Subcommands: `generate` (scenario files), `solve` (joint mapping and
power control), `place` (VNF placement), `experiment` (seeded Monte
Carlo sweeps written as tidy CSV).  Exit codes: 0 success, 2 invalid
input or an output file that cannot be written, 3 infeasible model, 4
exhaustive-search size guard.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import errno
import functools
import hashlib
import itertools
import json
import math
import os
import statistics
import sys
import time

import numpy as np

from .scenario import (GeneratorConfig, Scenario, ScenarioError,
                       all_integers, field_problem, generate_scenario,
                       invalid_scenario_text, load_scenario, save_scenario,
                       validate, write_json)
from .radio import SliceMapping, build_beamformers, build_channels
from .power import InfeasibleMappingError, SolverOptions, solve_joint
from .placement import (PlacementWeights, admitted_ratio, cost_psi,
                        normalized_resource_consumption, place)
from .oracle import (OracleReport, OracleSizeError, certified_mapping,
                     check_mapping_space, exhaustive_placement)

CSV_SCHEMA_LINE = "# schema=1"

EXPERIMENT_KINDS = ("ee_vs_mean_ues", "admitted_vs_slices",
                    "consumption_vs_slices")


class CliError(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _load_json(path: str) -> dict:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise CliError(2, f"cannot read {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise CliError(2, f"{path} is not valid JSON: {exc}")
    if not isinstance(data, dict):
        raise CliError(2, f"{path}: expected a JSON object at top level")
    return data


def _require(label: str, name: str, value) -> None:
    """Exit 2 when `value` breaks the rule of field or flag `name`."""
    if (why := field_problem(label, name, value)) is not None:
        raise CliError(2, why)


def _parse_weights(text: str) -> PlacementWeights:
    parts = text.split(",")
    if len(parts) != 3:
        raise CliError(2, f"--weights expects wM,wS,wC, got {text!r}")
    try:
        w = [float(p) for p in parts]
    except ValueError:
        raise CliError(2, f"--weights expects three floats, got {text!r}")
    for x in w:
        _require("", "--weights", x)
    return PlacementWeights(w_mem=w[0], w_sto=w[1], w_cpu=w[2])


def _load_scenario(path: str) -> Scenario:
    try:
        return load_scenario(path)
    except ScenarioError as exc:
        raise CliError(2, f"bad scenario {path}: {exc}")
    except OSError as exc:
        raise CliError(2, f"cannot read {path}: {exc}")


@contextlib.contextmanager
def _writing(path: str):
    """Exit 2 with a message when writing output file `path` fails."""
    try:
        yield
    except OSError as exc:
        raise CliError(2, f"cannot write {path}: {exc.strerror or exc}")


def _check_dirs(*paths: str | None) -> None:
    """Exit 2, as writing would, when an output file's directory does
    not exist, so a bad path fails before any work."""
    for path in paths:
        if path and not os.path.isdir(os.path.dirname(path) or "."):
            raise CliError(2, f"cannot write {path}: "
                              f"{os.strerror(errno.ENOENT)}")


def _write_csv(path: str, header: str, lines) -> None:
    """A CSV file: the schema line, `header`, then `lines`."""
    with _writing(path), open(path, "w") as fh:
        fh.write(f"{CSV_SCHEMA_LINE}\n{header}\n")
        fh.writelines(line + "\n" for line in lines)


def _json_number(value: float) -> float | None:
    """`value` as a JSON number; None (null) when it is not finite."""
    return float(value) if math.isfinite(value) else None


@contextlib.contextmanager
def _oracle_size():
    """Exit 4 with its message when an exhaustive search refuses the
    instance's size."""
    try:
        yield
    except OracleSizeError as exc:
        raise CliError(4, str(exc))


def _run_oracle(args, kind: str, name: str, search,
                heuristic_value: float) -> tuple:
    """Time the exhaustive `search` (exit 4 when it refuses the size),
    append its gap row to the oracle CSV, print its value `name` and
    return (result, report)."""
    t0 = time.perf_counter()
    with _oracle_size():
        ref = search()
    report = OracleReport(
        instance=os.path.basename(args.scenario), kind=kind,
        oracle_value=getattr(ref, name), heuristic_value=heuristic_value,
        wall_time_s=time.perf_counter() - t0)
    path = args.oracle_out or args.scenario + ".oracle.csv"
    with _writing(path), open(path, "a") as fh:
        if not fh.tell():       # a missing or empty file gets the header
            fh.write(f"{CSV_SCHEMA_LINE}\n{OracleReport.CSV_HEADER}\n")
        fh.write(report.csv_row() + "\n")
    print(f"oracle {name}={getattr(ref, name):.6g} "
          f"rel_gap={report.rel_gap:.3e}")
    return ref, report


# --------------------------------------------------------------------------
# generate
# --------------------------------------------------------------------------


def _check_overrides(overrides: dict, label: str) -> None:
    """Generator field overrides must name GeneratorConfig fields;
    GeneratorConfig checks their values."""
    known = {f.name for f in dataclasses.fields(GeneratorConfig)}
    unknown = sorted(set(overrides) - known)
    if unknown:
        raise CliError(2, f"unknown {label} field(s): {', '.join(unknown)}")


def cmd_generate(args) -> int:
    overrides = _load_json(args.config) if args.config else {}
    _check_overrides(overrides, "config")
    _require("", "--seed", args.seed)
    try:
        config = GeneratorConfig(**overrides)
    except ScenarioError as exc:
        raise CliError(2, f"bad config: {exc}")
    sc = generate_scenario(config, seed=args.seed)
    # GeneratorConfig bounds every draw; this is the backstop
    if problems := validate(sc):
        raise CliError(2, "bad config: it draws an "
                          + invalid_scenario_text(problems))
    with _writing(args.out):
        save_scenario(sc, args.out)
    with open(args.out, "rb") as fh:
        sha = hashlib.sha256(fh.read()).hexdigest()[:12]
    print(f"scenario {args.out}: services={sc.n_services} "
          f"slices={sc.n_slices} ues={sc.n_ues} rus={len(sc.rus)} "
          f"dcs={len(sc.dcs)} sha256={sha}")
    return 0


# --------------------------------------------------------------------------
# solve
# --------------------------------------------------------------------------


def cmd_solve(args) -> int:
    _require("", "--max-iters", args.max_iters)
    sc = _load_scenario(args.scenario)
    if args.packet_size is not None:
        _require("", "--packet-size", args.packet_size)
        sc = dataclasses.replace(sc, params=dataclasses.replace(
            sc.params, packet_size_bits=args.packet_size))
    _check_dirs(args.out, args.trace, args.oracle_out)
    if args.oracle:
        with _oracle_size():
            check_mapping_space(sc)
    opts = SolverOptions(max_iters=args.max_iters)
    try:
        result = solve_joint(sc, opts)
    except InfeasibleMappingError as exc:
        print("infeasible: no slice can serve every service", file=sys.stderr)
        for v in exc.result.uncovered_services:
            reasons = [f"slice {s}: {why}"
                       for s, sv, why in exc.result.rejections if sv == v]
            detail = "; ".join(reasons) if reasons else "no feasible slice"
            print(f"  service {v} uncovered ({detail})", file=sys.stderr)
        return 3

    payload = {
        "schema": 1,
        "eta_bit_per_joule": result.eta,
        "rate_total_bit_s": result.r_tot,
        "power_total_w": result.p_tot,
        "iterations": len(result.trace),
        "converged": result.converged,
        "feasible": result.feasible,
        "violations": result.violations,
        "a": result.mapping.a.tolist(),
        "p": result.powers.p.tolist(),
        "uncovered_services": result.mapping_result.uncovered_services,
    }

    if args.oracle:
        ch = build_channels(sc)
        bf = build_beamformers(sc, ch)
        ref, report = _run_oracle(
            args, "joint_eta", "eta", lambda: certified_mapping(sc, ch, bf),
            result.eta)
        payload["oracle"] = {"eta": _json_number(ref.eta),
                             "upper": _json_number(ref.upper),
                             "rel_gap": _json_number(report.rel_gap),
                             "mappings_tried": ref.mappings_tried}

    if args.out:
        with _writing(args.out):
            write_json(args.out, payload)
    if args.trace:
        _write_csv(args.trace,
                   "iteration,eta,f_value,max_violation,inner_iterations,"
                   "gap,stop",
                   (f"{i},{row.eta!r},{row.f_value!r},{row.max_violation!r},"
                    f"{row.iterations},{row.gap!r},{row.stop}"
                    for i, row in enumerate(result.trace, 1)))
    print(f"eta={result.eta:.6g} bit/J rate={result.r_tot:.6g} bit/s "
          f"power={result.p_tot:.6g} W iterations={len(result.trace)} "
          f"converged={result.converged} feasible={result.feasible}")
    return 0


# --------------------------------------------------------------------------
# place
# --------------------------------------------------------------------------


def _round_robin_mapping(sc: Scenario) -> SliceMapping:
    """Synthetic mapping marking every slice active (service s mod V)."""
    a = np.zeros((sc.n_services, sc.n_slices), dtype=np.int8)
    for s in range(sc.n_slices):
        a[s % sc.n_services, s] = 1
    return SliceMapping(a=a)


def _mapping_from_file(path: str, sc: Scenario) -> SliceMapping:
    data = _load_json(path)
    if "a" not in data:
        raise CliError(2, f"{path}: missing mapping matrix under key 'a'")
    rows = data["a"]
    if (not isinstance(rows, list) or len(rows) != sc.n_services
            or any(not isinstance(row, list) or len(row) != sc.n_slices
                   for row in rows)):
        raise CliError(2, f"{path}: mapping shape does not match scenario "
                          f"({sc.n_services} services x {sc.n_slices} slices)")
    if not all(all_integers(row) and set(row) <= {0, 1} for row in rows):
        raise CliError(2, f"{path}: mapping entries must be 0 or 1")
    return SliceMapping(a=np.array(rows, dtype=np.int8))


def _finite_cost_psi(sc: Scenario, mapping: SliceMapping, placement,
                     nu: float) -> tuple[float, float]:
    """`cost_psi`, exiting 2 when the objective overflows."""
    phi, psi = cost_psi(sc, mapping, placement, nu=nu)
    if not (math.isfinite(phi) and math.isfinite(psi)):
        raise CliError(2, f"the placement objective is not finite "
                          f"(phi={phi:.6g} psi={psi:.6g}): the DC power "
                          f"model or nu is too large")
    return phi, psi


def cmd_place(args) -> int:
    sc = _load_scenario(args.scenario)
    mapping = (_mapping_from_file(args.mapping, sc) if args.mapping
               else _round_robin_mapping(sc))
    weights = _parse_weights(args.weights) if args.weights \
        else PlacementWeights()
    nu = args.nu if args.nu is not None else sc.params.nu
    _require("", "--nu", nu)

    placement = place(sc, mapping, weights=weights, single_dc=args.single_dc)
    phi, psi = _finite_cost_psi(sc, mapping, placement, nu)
    ratio = admitted_ratio(sc, mapping, placement,
                           single_dc_mode=args.single_dc)
    payload = {
        "schema": 1,
        "y": placement.y.tolist(),
        "admitted": placement.admitted,
        "unadmitted": placement.unadmitted,
        "admitted_ratio": ratio,
        "phi_tot": phi,
        "psi_tot": psi,
        "consumption": normalized_resource_consumption(sc, placement),
        "residuals": {str(d): row for d, row in
                      enumerate(placement.residuals(sc).tolist())},
    }

    if args.oracle:
        ref, report = _run_oracle(
            args, "placement_psi", "psi", lambda: exhaustive_placement(
                sc, mapping, weights=weights, nu=nu,
                single_dc=args.single_dc), psi)
        payload["oracle"] = {"psi": _json_number(ref.psi),
                             "feasible": ref.feasible,
                             "rel_gap": _json_number(report.rel_gap)}

    if args.out:
        with _writing(args.out):
            write_json(args.out, payload)
    print(f"admitted={len(placement.admitted)}/"
          f"{len(placement.admitted) + len(placement.unadmitted)} "
          f"ratio={ratio:.4g} phi={phi:.6g} psi={psi:.6g}")
    return 0


# --------------------------------------------------------------------------
# experiment
# --------------------------------------------------------------------------

# calibrated so the slot-noise overhead is amortized as mean_ues grows:
# keep R_s well above the largest service (zero-forcing loading penalty
# ~1/(1 - U/R) stays flat) and the region small (thermal noise below the
# quantization floor), otherwise the trend inverts
_EE_OVERRIDES = dict(max_ues=24, n_rus=64, rus_per_slice=32,
                     region_m=80.0, r_min_per_hz=1.0)
# placement sweeps need many slices, not radio fidelity
_PLACE_OVERRIDES = dict(mean_ues=1.0, max_ues=2, n_rus=8, rus_per_slice=4,
                        slice_cv=0.25)


def _ee_config(n_services: int, mean_ues: float,
               overrides: dict) -> GeneratorConfig:
    return GeneratorConfig(**{
        **_EE_OVERRIDES, "n_slices": n_services + 1, **overrides,
        "n_services": n_services, "mean_ues": mean_ues})


def _place_config(n_slices: int, n_dcs: int,
                  overrides: dict) -> GeneratorConfig:
    return GeneratorConfig(**{
        **_PLACE_OVERRIDES, **overrides, "n_slices": n_slices,
        "n_dcs": n_dcs, "n_services": min(3, n_slices)})


def _ee_point(n_services: int, mean_ues: float, seed: int,
              overrides: dict) -> float | None:
    sc = generate_scenario(_ee_config(n_services, mean_ues, overrides),
                           seed=seed)
    try:
        result = solve_joint(sc, SolverOptions(max_iters=1500))
    except InfeasibleMappingError:
        return None
    return result.eta if result.feasible else None


def _place_point(kind: str, n_slices: int, n_dcs: int, seed: int,
                 nu: float, overrides: dict) -> tuple[float, float, float]:
    sc = generate_scenario(_place_config(n_slices, n_dcs, overrides),
                           seed=seed)
    mapping = _round_robin_mapping(sc)
    placement = place(sc, mapping)
    phi, psi = _finite_cost_psi(sc, mapping, placement, nu)
    if kind == "admitted_vs_slices":
        metric = admitted_ratio(sc, mapping, placement, single_dc_mode=True)
    else:
        metric = normalized_resource_consumption(sc, placement)
    return metric, phi, psi


def _aggregate(rows: list[tuple]) -> list[tuple]:
    """Collapse sorted (series, x, seed, value) rows to (series, x, n,
    mean, std) rows; a None value is a missing point."""
    out = []
    for key, group in itertools.groupby(rows, key=lambda row: row[:2]):
        vals = [row[-1] for row in group if row[-1] is not None]
        mean = statistics.fmean(vals) if vals else float("nan")
        std = statistics.stdev(vals) if len(vals) > 1 else 0.0
        out.append(key + (len(vals), mean, std))
    return out


def _trend_column(agg: list[tuple], direction: str) -> list[int]:
    """1 when the mean keeps the expected trend against its predecessor
    in the same series, or either of them is missing."""
    prev: dict = {}
    flags = []
    for series, _x, _n, mean, _std in agg:
        last = prev.get(series, math.nan)
        prev[series] = mean
        flags.append(1 if math.isnan(mean) or math.isnan(last)
                     else int(mean >= last - 1e-12) if direction == "up"
                     else int(mean <= last + 1e-12))
    return flags


def _emit_plot_script(csv_path: str, series_values: list,
                      title: str) -> None:
    """A gnuplot script next to the CSV: the mean (column 4) against x
    (column 2), one line per series value (column 1)."""
    plots = ", ".join(
        f"'{csv_path}' using (column(1)=={val}?column(2):1/0):(column(4)) "
        f"with linespoints title 'series {val}'" for val in series_values)
    path = csv_path + ".gnuplot"
    with _writing(path), open(path, "w") as fh:
        fh.write(f"set datafile separator ','\nset title '{title}'\n"
                 f"set key outside\nplot {plots}\n")


def _parse_spec(spec: dict, out: str | None) -> tuple:
    """Type-check an experiment spec and fill in its defaults.

    Returns (kind, seeds, out, x_values, series, overrides, nu).  Every
    sweep point's generator config is built here, so a bad value exits 2
    before any point runs.
    """
    kind = spec.get("kind")
    if kind not in EXPERIMENT_KINDS:
        raise CliError(2, f"unknown experiment kind {kind!r}; expected one "
                          f"of {', '.join(EXPERIMENT_KINDS)}")
    ee = kind == "ee_vs_mean_ues"
    out = out or spec.get("out")
    if not out:
        raise CliError(2, "no output path: pass --out or set 'out' in spec")
    if not isinstance(out, str):
        raise CliError(2, "experiment 'out' must be a path string")
    seeds = spec.get("seeds", list(range(5)))
    xs = spec.get("x_values", [2, 4, 6, 8, 10] if ee
                  else [4, 12, 20, 28, 36, 44])
    series = spec.get("series", [3, 6] if ee else [2, 5])
    # each list entry becomes the generator field named with it
    for key, values, name in (
            ("seeds", seeds, "seed"),
            ("x_values", xs, "mean_ues" if ee else "n_slices"),
            ("series", series, "n_services" if ee else "n_dcs")):
        if not isinstance(values, list) or not values:
            raise CliError(2, f"experiment spec needs a nonempty '{key}' "
                              f"list")
        for i, value in enumerate(values):
            _require(f"experiment '{key}': ", name, value)
            if value in values[:i]:
                raise CliError(2, f"experiment '{key}' lists {value!r} twice")
    overrides = spec.get("overrides", {})
    if not isinstance(overrides, dict):
        raise CliError(2, "experiment 'overrides' must be a JSON object")
    _check_overrides(overrides, "override")
    nu = spec.get("nu", 1e6 if kind == "admitted_vs_slices" else 0.0)
    _require("experiment ", "nu", nu)
    try:
        for v, x in itertools.product(series, xs):
            if ee:
                _ee_config(v, x, overrides)
            else:
                _place_config(x, v, overrides)
    except ScenarioError as exc:
        raise CliError(2, f"bad experiment spec: {exc}")
    return kind, seeds, out, xs, series, overrides, nu


def cmd_experiment(args) -> int:
    kind, seeds, out, xs, series, overrides, nu = _parse_spec(
        _load_json(args.spec), args.out)
    _check_dirs(out)
    points = [(v, x, s) for v in series for x in xs for s in seeds]
    if kind == "ee_vs_mean_ues":
        values = [_ee_point(v, x, s, overrides) for v, x, s in points]
        rows = sorted((v, x, s, val)
                      for (v, x, s), val in zip(points, values))
        header = "n_services,mean_ues,n_feasible,ee_mean,ee_std"
        direction, title = "up", "efficiency vs mean UEs"
    else:
        triples = [_place_point(kind, x, d, s, nu, overrides)
                   for d, x, s in points]
        raw = sorted((x, d, s, m, phi, psi)
                     for (d, x, s), (m, phi, psi) in zip(points, triples))
        _write_csv(out + ".raw.csv", "n_slices,n_dcs,seed,"
                   + ("admitted_ratio" if kind == "admitted_vs_slices"
                      else "consumption") + ",phi_tot,psi_tot",
                   (f"{x},{d},{s},{m!r},{phi!r},{psi!r}"
                    for x, d, s, m, phi, psi in raw))
        rows = sorted((d, x, s, m) for x, d, s, m, _phi, _psi in raw)
        metric = ("ratio" if kind == "admitted_vs_slices" else "consumption")
        header = f"n_dcs,n_slices,n_seeds,{metric}_mean,{metric}_std"
        direction = "down" if kind == "admitted_vs_slices" else "up"
        title = kind.replace("_", " ")
    agg = _aggregate(rows)
    flags = _trend_column(agg, direction)
    _write_csv(out, header + ",trend_ok",
               (f"{series_value},{x},{n},{mean!r},{std!r},{flag}"
                for (series_value, x, n, mean, std), flag in zip(agg, flags)))
    if args.plot:
        _emit_plot_script(out, series, title)
    print(f"wrote {out}")
    return 0


# --------------------------------------------------------------------------
# entry point
# --------------------------------------------------------------------------


@functools.cache           # parse_args leaves the tree as it was
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="oranslice",
        description="sliced downlink simulator and optimizer")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="write a scenario file")
    p.add_argument("--config", help="JSON file overriding generator fields")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("solve", help="joint mapping and power control")
    p.add_argument("scenario")
    p.add_argument("--out", help="result JSON path")
    p.add_argument("--trace", help="convergence trace CSV path")
    p.add_argument("--oracle", action="store_true",
                   help="compare against the certified best mapping "
                        "(services x slices <= 12)")
    p.add_argument("--oracle-out", help="CSV to append the oracle gap row to")
    p.add_argument("--max-iters", type=int, default=5000,
                   help="cap on barrier Newton steps per Dinkelbach point; "
                        "the exact path on slice-separable mappings "
                        "ignores it")
    p.add_argument("--packet-size", type=float, default=None,
                   help="bits per packet for the transmission-delay term")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("place", help="place slice VNFs onto data centers")
    p.add_argument("scenario")
    p.add_argument("--mapping",
                   help="JSON with an 'a' matrix; default marks every "
                        "slice active")
    p.add_argument("--out", help="placement JSON path")
    p.add_argument("--single-dc", action="store_true",
                   help="forbid splitting a slice across DCs")
    p.add_argument("--nu", type=float, default=None,
                   help="admission reward weight in the psi objective")
    p.add_argument("--weights", help="resource weights wM,wS,wC")
    p.add_argument("--oracle", action="store_true")
    p.add_argument("--oracle-out")
    p.set_defaults(func=cmd_place)

    p = sub.add_parser("experiment", help="run a seeded sweep to CSV")
    p.add_argument("spec", help="experiment spec JSON")
    p.add_argument("--out", help="override the spec output path")
    p.add_argument("--plot", action="store_true",
                   help="also emit a gnuplot script next to the CSV")
    p.set_defaults(func=cmd_experiment)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code


if __name__ == "__main__":
    sys.exit(main())
