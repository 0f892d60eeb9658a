"""Command-line front end.

Subcommands: `generate` (scenario files), `solve` (joint mapping and
power control), `place` (VNF placement), `experiment` (seeded Monte
Carlo sweeps written as tidy CSV).  Exit codes: 0 success, 2 invalid
input, 3 infeasible model, 4 exhaustive-search size guard.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import os
import statistics
import sys
import time

import numpy as np

from .scenario import (GeneratorConfig, Scenario, ScenarioError,
                       generate_scenario, is_real, load_scenario,
                       save_scenario)
from .radio import SliceMapping, build_beamformers, build_channels
from .power import InfeasibleMappingError, SolverOptions, solve_joint
from .placement import (PlacementWeights, admitted_ratio, cost_psi,
                        normalized_resource_consumption, place)
from .oracle import (OracleReport, OracleSizeError, brute_force_mapping,
                     exhaustive_placement)

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


def _write_json(path: str, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")


def _sha12(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        h.update(fh.read())
    return h.hexdigest()[:12]


def _parse_weights(text: str) -> PlacementWeights:
    parts = text.split(",")
    if len(parts) != 3:
        raise CliError(2, f"--weights expects wM,wS,wC, got {text!r}")
    try:
        w = [float(p) for p in parts]
    except ValueError:
        raise CliError(2, f"--weights expects three floats, got {text!r}")
    if not all(math.isfinite(x) and x >= 0 for x in w):
        raise CliError(2, f"--weights must be finite and >= 0, got {text!r}")
    return PlacementWeights(w_mem=w[0], w_sto=w[1], w_cpu=w[2])


def _load_scenario(path: str) -> Scenario:
    try:
        return load_scenario(path)
    except ScenarioError as exc:
        raise CliError(2, f"bad scenario {path}: {exc}")
    except OSError as exc:
        raise CliError(2, f"cannot read {path}: {exc}")


def _with_packet_size(sc: Scenario, packet_size: float | None) -> Scenario:
    if packet_size is None:
        return sc
    if not (math.isfinite(packet_size) and packet_size > 0):
        raise CliError(2, "--packet-size must be a finite number > 0")
    params = dataclasses.replace(sc.params, packet_size_bits=packet_size)
    return dataclasses.replace(sc, params=params)


def _json_number(value: float) -> float | None:
    """`value` as a JSON number; None (null) when it is not finite."""
    return float(value) if math.isfinite(value) else None


def _append_oracle_row(path: str, report: OracleReport) -> None:
    new = not os.path.exists(path)
    with open(path, "a") as fh:
        if new:
            fh.write(CSV_SCHEMA_LINE + "\n")
            fh.write(OracleReport.CSV_HEADER + "\n")
        fh.write(report.csv_row() + "\n")


# --------------------------------------------------------------------------
# generate
# --------------------------------------------------------------------------


def _check_overrides(overrides: dict, label: str) -> None:
    """Generator field overrides must name GeneratorConfig fields and hold
    a value of the field's JSON type."""
    defaults = {f.name: f.default for f in dataclasses.fields(GeneratorConfig)}
    unknown = sorted(set(overrides) - set(defaults))
    if unknown:
        raise CliError(2, f"unknown {label} field(s): {', '.join(unknown)}")
    for key, value in overrides.items():
        if not (isinstance(value, str) if isinstance(defaults[key], str)
                else _is_number(value, type(defaults[key]) is not float)):
            raise CliError(2, f"{label} {key}={value!r} has the wrong type")


def cmd_generate(args) -> int:
    overrides = _load_json(args.config) if args.config else {}
    _check_overrides(overrides, "config")
    if args.seed < 0:
        raise CliError(2, "--seed must be >= 0")
    try:
        config = GeneratorConfig(**overrides)
    except ScenarioError as exc:
        raise CliError(2, f"bad config: {exc}")
    sc = generate_scenario(config, seed=args.seed)
    save_scenario(sc, args.out)
    print(f"scenario {args.out}: services={sc.n_services} "
          f"slices={sc.n_slices} ues={sc.n_ues} rus={len(sc.rus)} "
          f"dcs={len(sc.dcs)} sha256={_sha12(args.out)}")
    return 0


# --------------------------------------------------------------------------
# solve
# --------------------------------------------------------------------------


def _write_trace(path: str, trace) -> None:
    with open(path, "w") as fh:
        fh.write(CSV_SCHEMA_LINE + "\n")
        fh.write("iteration,eta,f_value,max_violation,inner_iterations,"
                 "gap,stop\n")
        for i, row in enumerate(trace, 1):
            fh.write(f"{i},{row.eta!r},{row.f_value!r},"
                     f"{row.max_violation!r},{row.iterations},"
                     f"{row.gap!r},{row.stop}\n")


def cmd_solve(args) -> int:
    if args.max_iters < 1:
        raise CliError(2, "--max-iters must be >= 1")
    if args.grid_n < 2:
        raise CliError(2, "--grid-n must be >= 2")
    sc = _with_packet_size(_load_scenario(args.scenario), args.packet_size)
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
        t0 = time.perf_counter()
        try:
            ref = brute_force_mapping(sc, ch, bf,
                                      power_grid_n=args.grid_n)
        except OracleSizeError as exc:
            raise CliError(4, str(exc))
        report = OracleReport(
            instance=os.path.basename(args.scenario), kind="joint_eta",
            oracle_value=ref.eta, heuristic_value=result.eta,
            wall_time_s=time.perf_counter() - t0)
        payload["oracle"] = {
            "eta": _json_number(ref.eta),
            "rel_gap": _json_number(report.rel_gap),
            "mappings_tried": ref.mappings_tried,
        }
        _append_oracle_row(args.oracle_out or args.scenario + ".oracle.csv",
                           report)
        print(f"oracle eta={ref.eta:.6g} rel_gap={report.rel_gap:.3e}")

    if args.out:
        _write_json(args.out, payload)
    if args.trace:
        _write_trace(args.trace, result.trace)
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
    if any(type(x) is not int or x not in (0, 1) for row in rows for x in row):
        raise CliError(2, f"{path}: mapping entries must be 0 or 1")
    return SliceMapping(a=np.array(rows, dtype=np.int8))


def cmd_place(args) -> int:
    sc = _load_scenario(args.scenario)
    mapping = (_mapping_from_file(args.mapping, sc) if args.mapping
               else _round_robin_mapping(sc))
    weights = _parse_weights(args.weights) if args.weights \
        else PlacementWeights()
    nu = args.nu if args.nu is not None else sc.params.nu
    if not (math.isfinite(nu) and nu >= 0):
        raise CliError(2, f"--nu must be a finite number >= 0, got {nu!r}")

    placement = place(sc, mapping, weights=weights, single_dc=args.single_dc)
    phi, psi = cost_psi(sc, mapping, placement, nu=nu)
    ratio = admitted_ratio(sc, mapping, placement,
                           single_dc_mode=args.single_dc)
    payload = {
        "schema": 1,
        "y": placement.y.tolist(),
        "admitted": sorted(placement.admitted),
        "unadmitted": sorted(placement.unadmitted),
        "admitted_ratio": ratio,
        "phi_tot": phi,
        "psi_tot": psi,
        "consumption": normalized_resource_consumption(sc, placement),
        "residuals": {str(d.id): placement.residuals(sc)[d.id].tolist()
                      for d in sc.dcs},
    }

    if args.oracle:
        t0 = time.perf_counter()
        try:
            ref = exhaustive_placement(sc, mapping, weights=weights, nu=nu,
                                       single_dc=args.single_dc)
        except OracleSizeError as exc:
            raise CliError(4, str(exc))
        report = OracleReport(
            instance=os.path.basename(args.scenario), kind="placement_psi",
            oracle_value=ref.psi, heuristic_value=psi,
            wall_time_s=time.perf_counter() - t0)
        payload["oracle"] = {"psi": _json_number(ref.psi),
                             "feasible": ref.feasible,
                             "rel_gap": _json_number(report.rel_gap)}
        _append_oracle_row(args.oracle_out or args.scenario + ".oracle.csv",
                           report)
        print(f"oracle psi={ref.psi:.6g} rel_gap={report.rel_gap:.3e}")

    if args.out:
        _write_json(args.out, payload)
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
    kwargs = dict(_EE_OVERRIDES)
    kwargs.setdefault("n_slices", n_services + 1)
    kwargs.update(overrides)
    kwargs.update(n_services=n_services, mean_ues=mean_ues)
    return GeneratorConfig(**kwargs)


def _place_config(n_slices: int, n_dcs: int,
                  overrides: dict) -> GeneratorConfig:
    kwargs = dict(_PLACE_OVERRIDES)
    kwargs.update(overrides)
    kwargs.update(n_slices=n_slices, n_dcs=n_dcs,
                  n_services=min(3, n_slices))
    return GeneratorConfig(**kwargs)


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
    phi, psi = cost_psi(sc, mapping, placement, nu=nu)
    if kind == "admitted_vs_slices":
        metric = admitted_ratio(sc, mapping, placement, single_dc_mode=True)
    else:
        metric = normalized_resource_consumption(sc, placement)
    return metric, phi, psi


def _aggregate(rows: list[tuple], group_cols: int) -> list[tuple]:
    """Collapse per-seed rows to (group..., n, mean, std) rows."""
    groups: dict[tuple, list[float]] = {}
    order: list[tuple] = []
    for row in rows:
        key, value = row[:group_cols], row[-1]
        if key not in groups:
            groups[key] = []
            order.append(key)
        if value is not None:
            groups[key].append(value)
    out = []
    for key in order:
        vals = groups[key]
        mean = statistics.fmean(vals) if vals else float("nan")
        std = statistics.stdev(vals) if len(vals) > 1 else 0.0
        out.append(key + (len(vals), mean, std))
    return out


def _trend_column(agg: list[tuple], series_cols: int,
                  direction: str) -> list[int]:
    """1 when the mean keeps the expected trend against its predecessor."""
    prev: dict[tuple, float] = {}
    flags = []
    for row in agg:
        series, mean = row[:series_cols], row[-2]
        ok = 1
        if series in prev and not (mean != mean or prev[series] != prev[series]):
            if direction == "up":
                ok = int(mean >= prev[series] - 1e-12)
            else:
                ok = int(mean <= prev[series] + 1e-12)
        prev[series] = mean
        flags.append(ok)
    return flags


def _emit_plot_script(csv_path: str, x_col: int, y_col: int,
                      series_col: int, series_values: list,
                      title: str) -> str:
    path = csv_path + ".gnuplot"
    lines = [
        "set datafile separator ','",
        f"set title '{title}'",
        "set key outside",
    ]
    plots = ", ".join(
        f"'{csv_path}' using (column({series_col})=={val}?column({x_col})"
        f":1/0):(column({y_col})) with linespoints title 'series {val}'"
        for val in series_values)
    lines.append("plot " + plots)
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    return path


def _is_number(value, integer: bool = False) -> bool:
    """A JSON int, or with integer=False any finite number (not a bool)."""
    return type(value) is int if integer else is_real(value)


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
    seeds = spec.get("seeds", list(range(5)))
    if not isinstance(seeds, list) or not seeds:
        raise CliError(2, "experiment spec needs a nonempty 'seeds' list")
    if not all(_is_number(s, integer=True) and s >= 0 for s in seeds):
        raise CliError(2, "experiment 'seeds' must be integers >= 0")
    out = out or spec.get("out")
    if not out:
        raise CliError(2, "no output path: pass --out or set 'out' in spec")
    if not isinstance(out, str):
        raise CliError(2, "experiment 'out' must be a path string")
    xs = spec.get("x_values", [2, 4, 6, 8, 10] if ee
                  else [4, 12, 20, 28, 36, 44])
    series = spec.get("series", [3, 6] if ee else [2, 5])
    for name, values, integer in (("x_values", xs, not ee),
                                  ("series", series, True)):
        if not isinstance(values, list) or not values:
            raise CliError(2, f"empty sweep: '{name}' must be a nonempty "
                              f"list")
        if not all(_is_number(v, integer) for v in values):
            raise CliError(2, f"experiment '{name}' must hold "
                              f"{'integers' if integer else 'numbers'}")
    overrides = spec.get("overrides", {})
    if not isinstance(overrides, dict):
        raise CliError(2, "experiment 'overrides' must be a JSON object")
    _check_overrides(overrides, "override")
    nu = spec.get("nu", 1e6 if kind == "admitted_vs_slices" else 0.0)
    if not _is_number(nu) or nu < 0:
        raise CliError(2, f"experiment 'nu' must be a number >= 0, "
                          f"got {nu!r}")
    try:
        for v in series:
            for x in xs:
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
    if kind == "ee_vs_mean_ues":
        points = [(v, x, s) for v in series for x in xs for s in seeds]
        values = [_ee_point(v, x, s, overrides) for v, x, s in points]
        rows = sorted((v, x, s, val)
                      for (v, x, s), val in zip(points, values))
        header = "n_services,mean_ues,n_feasible,ee_mean,ee_std"
        direction, title = "up", "efficiency vs mean UEs"
    else:
        points = [(d, x, s) for d in series for x in xs for s in seeds]
        triples = [_place_point(kind, x, d, s, nu, overrides)
                   for d, x, s in points]
        raw = sorted((x, d, s, m, phi, psi)
                     for (d, x, s), (m, phi, psi) in zip(points, triples))
        with open(out + ".raw.csv", "w") as fh:
            fh.write(CSV_SCHEMA_LINE + "\n")
            fh.write("n_slices,n_dcs,seed,"
                     + ("admitted_ratio" if kind == "admitted_vs_slices"
                        else "consumption") + ",phi_tot,psi_tot\n")
            for x, d, s, m, phi, psi in raw:
                fh.write(f"{x},{d},{s},{m!r},{phi!r},{psi!r}\n")
        rows = sorted((d, x, s, m) for x, d, s, m, _phi, _psi in raw)
        metric = ("ratio" if kind == "admitted_vs_slices" else "consumption")
        header = f"n_dcs,n_slices,n_seeds,{metric}_mean,{metric}_std"
        direction = "down" if kind == "admitted_vs_slices" else "up"
        title = kind.replace("_", " ")
    agg = _aggregate(rows, group_cols=2)
    flags = _trend_column(agg, series_cols=1, direction=direction)
    with open(out, "w") as fh:
        fh.write(CSV_SCHEMA_LINE + "\n")
        fh.write(header + ",trend_ok\n")
        for (series_value, x, n, mean, std), flag in zip(agg, flags):
            fh.write(f"{series_value},{x},{n},{mean!r},{std!r},{flag}\n")
    if args.plot:
        _emit_plot_script(out, x_col=2, y_col=4, series_col=1,
                          series_values=series, title=title)
    print(f"wrote {out}")
    return 0


# --------------------------------------------------------------------------
# entry point
# --------------------------------------------------------------------------


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
                   help="compare against exhaustive search (small instances)")
    p.add_argument("--oracle-out", help="CSV to append the oracle gap row to")
    p.add_argument("--grid-n", type=int, default=64,
                   help="oracle power grid steps per UE")
    p.add_argument("--max-iters", type=int, default=5000)
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
