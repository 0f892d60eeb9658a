"""In-memory span recorder that wraps oranslice's public functions.

Spans are taken from outside the program: each traced name is replaced in
its *caller's* module namespace (``oranslice.slicing.interference_upper_bound``
is the name the mapping sweep looks up, ``oranslice.power.subgradient_solve``
the one ``solve_joint`` looks up), so the program's own files stay untouched.
A target that a later version of the program no longer has is listed as
absent instead of failing the run.

A span is (id, name, start, end, cpu, parent, op, via, attrs).  ``name``
is ``<callee module>.<function>``, ``cpu`` the calling thread's CPU time
inside the span, ``via`` the calling module, and ``op`` the benchmark
operation the span belongs to.  ``attrs`` holds counts read from the
return value (iterations, leaves, rejections), so ratios are measured
where the work happens.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import statistics
import threading
import time

# (caller module, name looked up there, callee module).  The callee module
# names the layer the span is charged to.
TARGETS = (
    ("cli", "load_scenario", "scenario"),
    ("cli", "generate_scenario", "scenario"),
    ("cli", "solve_joint", "power"),
    ("cli", "_ee_point", "cli"),
    ("power", "build_channels", "radio"),
    ("power", "build_beamformers", "radio"),
    ("power", "map_slices_to_services", "slicing"),
    ("power", "check_feasibility", "slicing"),
    ("power", "subgradient_solve", "power"),
    ("power", "interference_upper_bound", "radio"),
    ("power", "beam_gains", "radio"),
    ("power", "ue_rates", "radio"),
    ("power", "ru_powers_all", "radio"),
    ("power", "slot_weight_matrix", "radio"),
    ("power", "slot_sigma", "radio"),
    ("power", "layer_delays", "queueing"),
    ("power", "slice_arrival_rate", "queueing"),
    ("slicing", "check_feasibility", "slicing"),
    ("slicing", "interference_upper_bound", "radio"),
    ("slicing", "ue_rates", "radio"),
    ("slicing", "ru_powers_all", "radio"),
    ("slicing", "fronthaul_rates_all", "radio"),
    ("slicing", "slice_delay", "queueing"),
)

# Functions the benchmark itself calls, as (name in the benchmark's
# workload module, span name); patched there, since that module is their
# caller.
BENCH_TARGETS = (
    ("cli_main", "cli.main"),
    ("solve_joint", "power.solve_joint"),
    ("build_channels", "radio.build_channels"),
    ("build_beamformers", "radio.build_beamformers"),
    ("place", "placement.place"),
    ("exhaustive_placement", "oracle.exhaustive_placement"),
    ("brute_force_mapping", "oracle.brute_force_mapping"),
    ("mm1_simulate", "oracle.mm1_simulate"),
)

RADIO_EVAL = {"radio.beam_gains", "radio.ue_rates", "radio.ru_powers_all",
              "radio.fronthaul_rates_all", "radio.slot_weight_matrix",
              "radio.slot_sigma"}
QUEUEING = {"queueing.slice_delay", "queueing.layer_delays",
            "queueing.slice_arrival_rate"}

# First words of MappingResult.rejections reasons, by constraint family.
# Unmappable pairs carry the zero-forcing error text instead.
REJECT_FAMILIES = (
    ("RU power cap", "ru_cap"),
    ("minimum rate", "min_rate"),
    ("fronthaul cap", "fronthaul"),
    ("delay", "delay"),
)


def reject_family(reason: str) -> str:
    for prefix, family in REJECT_FAMILIES:
        if reason.startswith(prefix):
            return family
    return "singular"


def _attrs_of(name: str, result) -> dict:
    """Counts read off a traced call's return value."""
    if name == "slicing.map_slices_to_services":
        families = {}
        for _s, _v, reason in result.rejections:
            fam = reject_family(reason)
            families[fam] = families.get(fam, 0) + 1
        return {"accepted": int(result.mapping.a.sum()),
                "rejected": len(result.rejections), "families": families}
    if name == "power.subgradient_solve":
        return {"iterations": int(result.iterations),
                "converged": bool(result.converged)}
    if name == "slicing.check_feasibility":
        return {"ok": bool(result.ok)}
    if name == "oracle.exhaustive_placement":
        return {"leaves": int(result.leaves_checked)}
    if name == "oracle.brute_force_mapping":
        return {"mappings_tried": int(result.mappings_tried)}
    return {}


class Tracer:
    """Records spans while its wrappers are installed.

    The untraced run installs none, so it runs the program's own functions.
    A span opened on a pool worker thread with nothing open on that thread
    is parented to the span open on the main thread, which is the call
    that started the pool.
    """

    def __init__(self):
        self.spans: list[dict] = []
        self.absent: list[str] = []
        self.op = None            # current benchmark operation id
        self.main_top = None      # innermost span open on the main thread
        self._main = threading.main_thread()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._undo: list[tuple[object, str, object]] = []

    # -- span bookkeeping -------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, fn, name: str, via: str):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with _Span(tracer, name, via) as sp:
                result = fn(*args, **kwargs)
                try:
                    sp.attrs.update(_attrs_of(name, result))
                except AttributeError:
                    sp.attrs["unreadable"] = True
                return result
        return traced

    # -- patching ---------------------------------------------------------

    def install(self, bench_module) -> None:
        for caller, attr, layer in TARGETS:
            try:
                module = importlib.import_module(f"oranslice.{caller}")
            except ImportError:
                self.absent.append(f"{caller}.{attr}")
                continue
            self._patch(module, attr, f"{layer}.{attr}", caller)
        for attr, name in BENCH_TARGETS:
            self._patch(bench_module, attr, name, "bench")

    def _patch(self, module, attr: str, name: str, via: str) -> None:
        original = getattr(module, attr, None)
        if original is None:
            self.absent.append(f"{via}.{attr}")
            return
        setattr(module, attr, self.wrap(original, name, via))
        self._undo.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._undo):
            setattr(module, attr, original)
        self._undo.clear()

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            for sp in self.spans:
                fh.write(json.dumps(sp, sort_keys=True) + "\n")


class _Span:
    __slots__ = ("tracer", "name", "via", "attrs", "sid", "parent", "t0",
                 "c0")

    def __init__(self, tracer: Tracer, name: str, via: str):
        self.tracer, self.name, self.via = tracer, name, via
        self.attrs: dict = {}

    def __enter__(self):
        tr = self.tracer
        stack = tr._stack()
        self.sid = next(tr._ids)
        on_main = threading.current_thread() is tr._main
        self.parent = stack[-1] if stack else (None if on_main
                                               else tr.main_top)
        stack.append(self.sid)
        if on_main:
            tr.main_top = self.sid
        self.c0 = time.thread_time()
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        t1 = time.perf_counter()
        cpu = time.thread_time() - self.c0
        tr = self.tracer
        stack = tr._stack()
        stack.pop()
        if threading.current_thread() is tr._main:
            tr.main_top = stack[-1] if stack else None
        tr.spans.append({"id": self.sid, "name": self.name, "via": self.via,
                         "start": self.t0, "end": t1, "cpu": cpu,
                         "parent": self.parent, "op": tr.op,
                         "attrs": self.attrs})
        return False


# --------------------------------------------------------------------------
# span -> per-layer metrics
# --------------------------------------------------------------------------


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total, end = 0.0, float("-inf")
    for a, b in sorted(intervals):
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


def self_time(span: dict, children: list[dict]) -> float:
    """Span duration minus the part of it its child spans cover."""
    covered = _union_length([(max(c["start"], span["start"]),
                              min(c["end"], span["end"])) for c in children])
    return (span["end"] - span["start"]) - covered


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Per-layer counts and busy times over the given spans.

    A layer's busy time sums its spans' thread CPU time: a pool worker's
    span also lasts while the thread waits for the interpreter lock, so
    wall durations of concurrent spans would count that wait twice.
    """
    def busy(sp):
        return sp["cpu"]

    by_name: dict[str, list[dict]] = {}
    children: dict[int, list[dict]] = {}
    for sp in spans:
        by_name.setdefault(sp["name"], []).append(sp)
        if sp["parent"] is not None:
            children.setdefault(sp["parent"], []).append(sp)

    def named(*names):
        return [sp for n in names for sp in by_name.get(n, [])]

    def total(items):
        return sum(busy(sp) for sp in items)

    out: dict[str, float] = {}
    ibar = named("radio.interference_upper_bound")
    out["radio.ibar_calls"] = len(ibar)
    out["radio.ibar_s"] = total(ibar)
    out["radio.channels_s"] = total(named("radio.build_channels",
                                          "radio.build_beamformers"))
    evals = named(*sorted(RADIO_EVAL))
    out["radio.eval_calls"] = len(evals)
    out["radio.eval_s"] = total(evals)

    sweeps = named("slicing.map_slices_to_services")
    checks = [sp for sp in named("slicing.check_feasibility")
              if sp["via"] == "slicing"]
    accepted = sum(sp["attrs"].get("accepted", 0) for sp in sweeps)
    rejected = sum(sp["attrs"].get("rejected", 0) for sp in sweeps)
    out["slicing.sweep_s"] = total(sweeps)
    out["slicing.checks"] = len(checks)
    out["slicing.check_s_p50"] = (statistics.median(busy(sp) for sp in checks)
                                  if checks else 0.0)
    out["slicing.accept_ratio"] = (accepted / (accepted + rejected)
                                   if accepted + rejected else 0.0)
    for _prefix, family in REJECT_FAMILIES + (("", "singular"),):
        out[f"slicing.reject.{family}"] = sum(
            sp["attrs"].get("families", {}).get(family, 0) for sp in sweeps)

    steps = named("power.subgradient_solve")
    inner = sum(sp["attrs"].get("iterations", 0) for sp in steps)
    capped = sum(1 for sp in steps if not sp["attrs"].get("converged", True))
    out["power.steps"] = len(steps)
    out["power.inner_iters"] = inner
    out["power.capped_ratio"] = capped / len(steps) if steps else 0.0
    out["power.subgradient_s"] = total(steps)
    out["power.inner_iter_s"] = total(steps) / inner if inner else 0.0

    delays = named(*sorted(QUEUEING))
    out["queueing.delay_calls"] = len(delays)
    out["queueing.delay_s"] = total(delays)

    out["placement.place_s"] = total(named("placement.place"))

    exh = named("oracle.exhaustive_placement")
    leaves = sum(sp["attrs"].get("leaves", 0) for sp in exh)
    bf = named("oracle.brute_force_mapping")
    out["oracle.exhaustive_s"] = total(exh)
    out["oracle.leaves"] = leaves
    out["oracle.leaves_per_s"] = leaves / total(exh) if exh else 0.0
    out["oracle.brute_force_s"] = total(bf)
    out["oracle.mappings_tried"] = sum(sp["attrs"].get("mappings_tried", 0)
                                       for sp in bf)
    out["oracle.mm1_s"] = total(named("oracle.mm1_simulate"))

    out["scenario.load_s"] = total(named("scenario.load_scenario"))
    out["scenario.generate_s"] = total(named("scenario.generate_scenario"))
    out["cli.self_s"] = sum(self_time(sp, children.get(sp["id"], []))
                            for sp in named("cli.main"))
    return out
