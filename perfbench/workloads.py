"""The benchmark's three workloads.

Each workload is a closed loop run by one process: operation k starts when
operation k-1 has returned.  ``setup`` writes the inputs, derived from the
workload seed only; ``op`` runs one operation through oranslice's own entry
points and returns what the output checks need; ``check`` runs after the
timed loop; ``extras`` adds, in traced runs, the metrics the spans of one
operation cannot give.  Inputs repeat with a short period (``period``
operations), so an operation that reruns an input must reproduce its
result files byte for byte.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import hashlib
import io
import json
import math
import os
import statistics
import time

import numpy as np

from oranslice import radio
from oranslice.cli import main as cli_main
from oranslice.oracle import (brute_force_mapping, exhaustive_placement,
                              mm1_simulate, summation_oracle)
from oranslice.placement import (active_slice_ids, admitted_ratio, cost_psi,
                                 place)
from oranslice.power import SolverOptions, solve_joint
from oranslice.radio import (PowerAllocation, SliceMapping, build_beamformers,
                             build_channels)
from oranslice.scenario import (GeneratorConfig, generate_scenario,
                                load_scenario, save_scenario)

RTOL = 1e-9

# Generator overrides the `ee_vs_mean_ues` experiment applies at every point.
EE_OVERRIDES = dict(max_ues=24, n_rus=64, rus_per_slice=32, region_m=80.0,
                    r_min_per_hz=1.0)


def sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def ee_config(n_services: int, mean_ues: float) -> GeneratorConfig:
    """Generator config of the `ee_vs_mean_ues` experiment at one point."""
    return GeneratorConfig(n_services=n_services, n_slices=n_services + 1,
                           mean_ues=mean_ues, **EE_OVERRIDES)


def round_robin_mapping(sc) -> SliceMapping:
    """Every slice active, slice s serving service s mod V, as the
    placement experiments and acceptance tests map them."""
    a = np.zeros((sc.n_services, sc.n_slices), dtype=np.int8)
    for s in range(sc.n_slices):
        a[s % sc.n_services, s] = 1
    return SliceMapping(a=a)


@dataclasses.dataclass
class OpResult:
    units: int                     # solves, sweep points or gap rows
    ok: bool = True                # exit code and in-loop checks
    feasible: int | None = None    # units reported feasible
    etas: list[float] = dataclasses.field(default_factory=list)
    hashes: dict[str, str] = dataclasses.field(default_factory=dict)
    key: str = ""                  # identity of the input, for repeats
    check: dict = dataclasses.field(default_factory=dict)
    errors: list[str] = dataclasses.field(default_factory=list)


def run_cli(argv: list[str], log: io.TextIOBase) -> int:
    """`oranslice <argv>` in-process, its console output sent to the log."""
    with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
        return cli_main(argv)


# --------------------------------------------------------------------------
# solve-u150
# --------------------------------------------------------------------------


class SolveU150:
    """`oranslice solve` on dedicated-PRB scenarios with U near 150.

    The deployment is fixed: the `ee_vs_mean_ues` generator at 12
    services, 13 slices and 12 mean UEs, seed 0 (U = 147).  Input 0 is
    that scenario as generated, the ROADMAP baseline instance; input 1
    redraws its small-scale fading from the workload seed.  Redrawing the
    whole scenario instead swings a solve between 7 s and 20 s (3 to 12
    capped Dinkelbach steps over generator seeds 0-7), which no run of a
    few solves can average out; fading redraws of this layout take 4 or 5
    capped steps.
    """

    name = "solve-u150"
    period = 2
    min_ops = 2
    max_iters = 1500

    def __init__(self, seed: int, workdir: str):
        self.seed, self.dir = seed, workdir

    def setup(self) -> None:
        base = generate_scenario(ee_config(12, 12), seed=0)
        self.files = []
        for k in range(self.period):
            fading = 0 if k == 0 else self.seed * 1000 + k
            sc = dataclasses.replace(
                base, channel=dataclasses.replace(base.channel, seed=fading))
            path = os.path.join(self.dir, f"scenario-{k}.json")
            save_scenario(sc, path)
            self.files.append(path)
        self.keys = [f"input{k}-{sha256(f)[:16]}"
                     for k, f in enumerate(self.files)]

    def op(self, k: int, log) -> OpResult:
        i = k % self.period
        out = os.path.join(self.dir, f"result-{k}.json")
        trace = os.path.join(self.dir, f"trace-{k}.csv")
        code = run_cli(["solve", self.files[i], "--max-iters",
                        str(self.max_iters), "--out", out, "--trace", trace],
                       log)
        res = OpResult(units=1, key=self.keys[i], ok=code in (0, 3))
        if code != 0:
            res.feasible = 0
            if code != 3:
                res.errors.append(f"solve exited {code}")
            return res
        with open(out) as fh:
            payload = json.load(fh)
        res.feasible = int(bool(payload["feasible"]))
        if payload["feasible"]:
            res.etas.append(payload["eta_bit_per_joule"])
        res.hashes = {"result": sha256(out), "trace": sha256(trace)}
        res.check = {"scenario": self.files[i], "payload": payload}
        return res

    def check(self, res: OpResult) -> None:
        """Re-derive eta, slot powers and rates with the naive oracle."""
        payload = res.check.get("payload")
        if not payload or not payload["feasible"]:
            return
        sc = load_scenario(res.check["scenario"])
        ch = build_channels(sc)
        bf = build_beamformers(sc, ch)
        mapping = SliceMapping(a=np.asarray(payload["a"], dtype=np.int8))
        powers = PowerAllocation(p=np.asarray(payload["p"], dtype=float))
        eta = summation_oracle("ee", sc, mapping, ch, bf, powers)
        if abs(eta - payload["eta_bit_per_joule"]) > RTOL * abs(eta):
            res.errors.append(f"eta {payload['eta_bit_per_joule']!r} != "
                              f"naive {eta!r}")
        slot_p = summation_oracle("ru_power", sc, mapping, ch, bf, powers)
        if np.any(slot_p > sc.params.p_max * (1 + RTOL)):
            res.errors.append(f"RU cap exceeded: max slot power "
                              f"{slot_p.max():.6g} W")
        ibar = summation_oracle("interference", sc, mapping, ch, bf, powers)
        rates = naive_rates(sc, mapping, ch, bf, powers, ibar)
        covered = mapping.a.any(axis=1)
        floor = sc.params.r_min * (1 - RTOL)
        low = [u for v in range(sc.n_services) if covered[v]
               for u in sc.service_ue_indices(v) if rates[u] < floor]
        if low:
            res.errors.append(f"minimum rate missed at UEs {low[:5]}")

    def extras(self, tracer, log, ops, threads) -> tuple[dict, dict, list]:
        """ROADMAP baseline rows and the interference-bound size probe."""
        metrics, info = {}, {}
        sc52 = generate_scenario(ee_config(6, 8), seed=0)
        path = os.path.join(self.dir, "baseline-u52.json")
        save_scenario(sc52, path)
        tracer.op = "u52"
        code = run_cli(["solve", path, "--max-iters", str(self.max_iters)],
                       log)
        tracer.op = None
        info["u52_exit"] = code
        info["u52_n_ues"] = sc52.n_ues
        for label, op in (("u52", "u52"), ("u147", 0)):
            spans = [sp for sp in tracer.spans if sp["op"] == op]
            sweep = [sp for sp in spans
                     if sp["name"] == "slicing.map_slices_to_services"]
            steps = [sp for sp in spans
                     if sp["name"] == "power.subgradient_solve"]
            checks = [sp for sp in spans
                      if sp["name"] == "slicing.check_feasibility"
                      and sp["via"] == "slicing"]
            ibar = [sp for sp in spans
                    if sp["name"] == "radio.interference_upper_bound"]
            inner = [sp["attrs"]["iterations"] for sp in steps]
            metrics[f"baseline.{label}.sweep_s"] = sum(
                sp["end"] - sp["start"] for sp in sweep)
            metrics[f"baseline.{label}.power_s"] = sum(
                sp["end"] - sp["start"] for sp in steps)
            metrics[f"baseline.{label}.checks"] = len(checks)
            metrics[f"baseline.{label}.inner_iters"] = sum(inner)
            info[f"{label}_inner_iterations"] = inner
            info[f"{label}_ibar_calls_by_caller"] = {
                via: sum(1 for sp in ibar if sp["via"] == via)
                for via in sorted({sp["via"] for sp in ibar})}

        probes = {"u52": sc52,
                  "u147": generate_scenario(ee_config(12, 12), seed=0),
                  "u289": generate_scenario(ee_config(24, 11), seed=0)}
        for label, sc in probes.items():
            # the radio module's own names, which are never traced
            ch = radio.build_channels(sc)
            bf = radio.build_beamformers(sc, ch)
            a = np.zeros((sc.n_services, sc.n_slices), dtype=np.int8)
            a[np.arange(sc.n_services), np.arange(sc.n_services)] = 1
            mapping = SliceMapping(a=a)
            times = []
            for _ in range(3):
                t0 = time.perf_counter()
                radio.interference_upper_bound(sc, mapping, ch, bf)
                times.append(time.perf_counter() - t0)
            metrics[f"radio.ibar_call_s.{label}"] = statistics.median(times)
            info[f"{label}_probe_n_ues"] = sc.n_ues
        return metrics, {"baseline": info}, []


def naive_rates(sc, mapping, ch, bf, powers, interference) -> np.ndarray:
    """Per-UE rate from the oracle's interference, with the beam gain
    summed here from the channel and precoder entries."""
    noise = sc.params.bandwidth_hz * sc.params.noise_psd
    out = np.zeros(sc.n_ues)
    for v in range(sc.n_services):
        ues = sc.service_ue_indices(v)
        for s in range(sc.n_slices):
            if not mapping.a[v, s] or (s, v) not in bf.w:
                continue
            w = bf.w[(s, v)]
            rus = list(sc.slices[s].ru_ids)
            for pos, u in enumerate(ues):
                h = ch.gains[rus, u]
                gain = abs(sum(h[r].conjugate() * w[r, pos]
                               for r in range(len(rus)))) ** 2
                out[u] += gain
    rho = powers.p * out / (noise + interference)
    return sc.params.bandwidth_hz * np.log2(1.0 + rho)


# --------------------------------------------------------------------------
# ee-sweep-shared
# --------------------------------------------------------------------------


class EeSweepShared:
    """`oranslice experiment` on the shared-PRB `ee_vs_mean_ues` sweep.

    Each operation is one experiment over n_services 3 and 6 at mean_ues
    2 and 8 (four points, so the two-thread pool always has work).  Input
    k uses generator seed k (0-2) and a mean arrival rate drawn from the
    workload seed within 100 +-10 packet/s.  Generator seeds decide
    whether a point solves (1-4 s) or is rejected by the mapping sweep
    (0.1-0.5 s), so drawing them from the workload seed makes the run's
    cost a coin toss; the traffic draw keeps every point on its path.
    """

    name = "ee-sweep-shared"
    period = 3
    min_ops = 2
    series = [3, 6]
    x_values = [2, 8]

    def __init__(self, seed: int, workdir: str):
        self.seed, self.dir = seed, workdir

    def setup(self) -> None:
        rng = np.random.default_rng(self.seed)
        rates = rng.uniform(90.0, 110.0, self.period)
        self.specs = []
        for k in range(self.period):
            spec = {"kind": "ee_vs_mean_ues", "series": self.series,
                    "x_values": self.x_values, "seeds": [k],
                    "overrides": {"prb_mode": "shared", "prbs_per_slice": 16,
                                  "prbs_per_ue": 2,
                                  "arrival_rate_mean": float(rates[k])}}
            path = os.path.join(self.dir, f"spec-{k}.json")
            with open(path, "w") as fh:
                json.dump(spec, fh, indent=1, sort_keys=True)
            self.specs.append(path)
        self.keys = [f"input{k}-{sha256(f)[:16]}"
                     for k, f in enumerate(self.specs)]

    def op(self, k: int, log, tag: str = "") -> OpResult:
        i = k % self.period
        out = os.path.join(self.dir, f"sweep-{k}{tag}.csv")
        code = run_cli(["experiment", self.specs[i], "--out", out], log)
        n_points = len(self.series) * len(self.x_values)
        res = OpResult(units=n_points, key=self.keys[i], ok=code == 0)
        if code != 0:
            res.errors.append(f"experiment exited {code}")
            return res
        with open(out) as fh:
            lines = fh.read().splitlines()
        rows = list(csv.DictReader(lines[1:]))
        res.feasible = sum(int(r["n_feasible"]) for r in rows)
        for r in rows:
            res.etas += [float(r["ee_mean"])] * int(r["n_feasible"])
        res.hashes = {"csv": sha256(out)}
        res.check = {"schema": lines[0] if lines else "", "rows": rows}
        return res

    def check(self, res: OpResult) -> None:
        if not res.check:
            return
        if res.check["schema"] != "# schema=1":
            res.errors.append(f"bad schema line {res.check['schema']!r}")
        rows = res.check["rows"]
        expected = len(self.series) * len(self.x_values)
        if len(rows) != expected:
            res.errors.append(f"{len(rows)} rows, expected {expected}")
        if any(int(r["n_feasible"]) > 1 for r in rows):   # one seed each
            res.errors.append("n_feasible exceeds the number of seeds")

    def extras(self, tracer, log, ops, threads) -> tuple[dict, dict, list]:
        """Pool use over the counted operations, then input 0 rerun on one
        thread: its CSV must be byte-equal and its wall time gives the
        pool's speedup."""
        counted = [sp for sp in tracer.spans
                   if isinstance(sp["op"], int) and sp["op"] < self.min_ops]
        workers = sum(sp["cpu"] for sp in counted
                      if sp["name"] == "cli._ee_point")
        busy = sum(sp["end"] - sp["start"] for sp in counted
                   if sp["name"] == "cli.main") * threads
        first, first_wall = ops[0]
        os.environ["ORAN_SLICE_THREADS"] = "1"
        tracer.op = "one-thread"
        try:
            t0 = time.perf_counter()
            single = self.op(0, log, tag="-1thread")
            wall = time.perf_counter() - t0
        finally:
            tracer.op = None
            os.environ["ORAN_SLICE_THREADS"] = str(threads)
        errors = []
        if single.hashes.get("csv") != first.hashes.get("csv"):
            errors.append("CSV differs between 1 thread and "
                          f"{threads} threads")
        metrics = {"cli.pool_cpu_util": workers / busy if busy else 0.0,
                   "cli.pool_speedup": wall / first_wall}
        info = {"one_thread_wall_s": wall, "default_wall_s": first_wall,
                "threads": threads}
        return metrics, {"pool": info}, errors


# --------------------------------------------------------------------------
# oracle-gap
# --------------------------------------------------------------------------

# (slices, DCs, DC capacity scale) per placement instance of a round.  The
# sizes fix the exhaustive search's leaf count (1024 to 65,536), so a
# round's cost does not depend on the draw; the acceptance suite's largest
# case (8 slices, 4 DCs: 390,625 leaves, about 10 s) would not fit a run.
PLACEMENT_SIZES = ((6, 4, 1.0), (7, 3, 0.35), (8, 3, 1.0), (6, 3, 0.2),
                   (5, 3, 0.35))
GRID_INSTANCES = 2
MM1_LOADS = (0.3, 0.5, 0.8)


def placement_config(n_slices: int, n_dcs: int, scale: float):
    """The placement acceptance test's generator at one size."""
    return GeneratorConfig(n_services=min(3, n_slices), n_slices=n_slices,
                           n_dcs=n_dcs, mean_ues=1.0, max_ues=2, n_rus=8,
                           rus_per_slice=4, slice_cv=0.25,
                           dc_memory_gb=1000.0 * scale,
                           dc_storage_tb=100.0 * scale,
                           dc_cpu_ghz=320.0 * scale)


def grid_config() -> GeneratorConfig:
    """The power-grid acceptance test's 2-UE single-slice generator."""
    return GeneratorConfig(n_services=2, mean_ues=1.0, max_ues=1, n_slices=1,
                           n_rus=30, rus_per_slice=30, p_max=0.5,
                           sigma_q_frac=3.5e-4, r_min_per_hz=2.0,
                           region_m=100.0)


class OracleGap:
    """Heuristics against the exhaustive oracles, as the acceptance suite
    checks them.

    One operation is a round of gap rows: each placement instance in
    admission mode (single DC, nu = 1e6, slices may be dropped) and in
    split mode (nu = 0), each power-grid instance against the joint
    solver, and one M/M/1 simulation per load.  Rounds alternate between
    two instance sets drawn from the workload seed.
    """

    name = "oracle-gap"
    period = 2
    min_ops = 2

    def __init__(self, seed: int, workdir: str):
        self.seed, self.dir = seed, workdir

    def setup(self) -> None:
        self.rounds = []
        for parity in range(self.period):
            base = (self.seed * self.period + parity) * 100
            placements = [
                (f"place-{n}x{d}x{scale}",
                 generate_scenario(placement_config(n, d, scale),
                                   seed=base + j))
                for j, (n, d, scale) in enumerate(PLACEMENT_SIZES)]
            grids = [generate_scenario(grid_config(), seed=base + 50 + j)
                     for j in range(GRID_INSTANCES)]
            self.rounds.append({"placements": placements, "grids": grids,
                                "mm1_seed": base})

    def op(self, k: int, log) -> OpResult:
        i = k % self.period
        spec = self.rounds[i]
        rows, checks = [], []
        admitted = []
        for label, sc in spec["placements"]:
            mapping = round_robin_mapping(sc)
            n_active = len(active_slice_ids(sc, mapping))
            heur = place(sc, mapping, single_dc=True)
            ratio = admitted_ratio(sc, mapping, heur, single_dc_mode=True)
            admitted.append(ratio)
            exact = exhaustive_placement(sc, mapping, nu=1e6, single_dc=True,
                                         require_all=False)
            rows.append((label, "admitted", exact.admitted_count,
                         round(ratio * n_active)))
            checks.append(("shortfall", label,
                           exact.admitted_count - round(ratio * n_active)))

            split = place(sc, mapping)
            psi_h = cost_psi(sc, mapping, split, nu=0.0)[1]
            exact = exhaustive_placement(sc, mapping, nu=0.0,
                                         single_dc=False)
            rows.append((label, "split_psi", exact.psi, psi_h))
            if exact.feasible:
                hosted = exact.y.any(axis=1)
                checks.append(("split_hosts_all", label,
                               all(hosted[s] for s in
                                   active_slice_ids(sc, mapping))))

        for j, sc in enumerate(spec["grids"]):
            heur = solve_joint(sc, SolverOptions(max_iters=2000))
            ch = build_channels(sc)
            bf = build_beamformers(sc, ch)
            exact = brute_force_mapping(sc, ch, bf, power_grid_n=64)
            rows.append((f"grid-{j}", "joint_eta", exact.eta, heur.eta))
            checks.append(("grid_gap", f"grid-{j}",
                           abs(heur.eta - exact.eta) / exact.eta
                           if exact.feasible and heur.feasible else math.inf))

        for j, rho in enumerate(MM1_LOADS):
            sim = mm1_simulate(rho, 1.0, n_arrivals=1_000_000,
                               seed=spec["mm1_seed"] + j)
            exact = 1.0 / (1.0 - rho)
            rows.append((f"mm1-{rho}", "sojourn", exact, sim))
            checks.append(("mm1_error", f"mm1-{rho}",
                           abs(sim - exact) / exact))

        out = os.path.join(self.dir, f"gaps-{k}.csv")
        with open(out, "w") as fh:
            fh.write("instance,kind,oracle_value,heuristic_value\n")
            for label, kind, ref, heur in rows:
                fh.write(f"{label},{kind},{ref!r},{heur!r}\n")
        return OpResult(units=len(rows), key=f"input{i}",
                        hashes={"gaps": sha256(out)},
                        check={"checks": checks, "admitted": admitted})

    def extras(self, tracer, log, ops, threads) -> tuple[dict, dict, list]:
        """Mean admitted ratio of the heuristic over the counted rounds."""
        admitted = [r for res, _wall in ops[:self.min_ops]
                    for r in res.check.get("admitted", [])]
        return ({"placement.admitted_ratio": statistics.fmean(admitted)
                 if admitted else 0.0}, {}, [])

    def check(self, res: OpResult) -> None:
        """The acceptance suite's bounds, row by row."""
        for kind, label, value in res.check.get("checks", []):
            if kind == "shortfall" and not 0 <= value <= 1:
                res.errors.append(f"{label}: admission shortfall {value}")
            elif kind == "split_hosts_all" and not value:
                res.errors.append(f"{label}: split oracle left a slice out")
            elif kind == "grid_gap" and not value <= 0.02:
                res.errors.append(f"{label}: power-grid gap {value:.3%}")
            elif kind == "mm1_error" and not value < 0.05:
                res.errors.append(f"{label}: M/M/1 error {value:.3%}")


WORKLOADS = {cls.name: cls for cls in (SolveU150, EeSweepShared, OracleGap)}
