"""Greedy assignment of network slices to services.

Services are ranked by how demanding they are (UE count, then summed
arrival rate); slices are ranked by a count of their resources (PRBs
plus radio units plus VNFs).  The sweep walks slices in rank order and
gives each slice to the first service that no slice covers yet and for
which the tentative assignment keeps the whole system feasible when
every UE transmits at the per-RU power cap under the worst-case
interference bound.  A second pass then tries to cover services that the
first pass left without any slice.  So each service gets at most one
slice, and a sweep over V services makes about V checks.

Every check is `verdict` on a `MappingEvaluator`: the sweep extends the
accepted mapping's evaluator by the candidate pair, and
`check_feasibility` builds one from the whole mapping, so both judge the
same operating point through the same code.  The power step judges each
point of its path with `verdict` too, on its mapping's evaluator.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .scenario import Scenario
from .radio import (BeamformerSet, ChannelSet, MappingEvaluator,
                    PowerAllocation, SliceMapping, fronthaul_rates_all)
from .queueing import slice_sums, transmission_delays

# Relative slack applied to every feasibility comparison so boundary
# cases (a rate exactly at the minimum, a RU exactly at its cap) are not
# rejected over float rounding.
CHECK_RTOL = 1e-9


def rank_services(sc: Scenario) -> list[int]:
    """Service ids, most demanding first.

    Sort key is (UE count, summed arrival rate) descending with lower id
    breaking ties.
    """
    def key(sv):
        return (-sv.n_ues, -sum(ue.arrival_rate for ue in sv.ues), sv.id)
    return [sv.id for sv in sorted(sc.services, key=key)]


def rank_slices(sc: Scenario) -> list[int]:
    """Slice ids, highest resource score (PRBs + RUs + VNFs) first; lower
    id breaks ties."""
    def key(sl):
        score = len(sl.prb_ids) + sl.n_rus + sl.m_du + sl.m_cu
        return (-score, sl.id)
    return [sl.id for sl in sorted(sc.slices, key=key)]


@dataclass
class FeasibilityReport:
    """Outcome of judging one operating point of a mapping."""

    ok: bool
    violations: list[str] = field(default_factory=list)
    max_violation: float = 0.0    # largest relative excess over a limit


def verdict(ev: MappingEvaluator, rates: np.ndarray,
            p_bar: np.ndarray) -> FeasibilityReport:
    """Every violation of the evaluator's mapped system at UE rates
    `rates` and slot powers `p_bar`, in report order: per-slot RU power
    cap, minimum rate of each UE whose service is mapped, per-slot
    fronthaul cap, then the delay budget of each active slice.  Its
    `max_violation` is the largest relative excess over those limits:
    value/limit - 1 for the two caps, 1 - rate/r_min, delay/d_max - 1,
    inf for an unstable stage, and 0 when none is positive."""
    sc, bf, params = ev.sc, ev.bf, ev.sc.params
    served, active, alpha, du, cu, unstable = ev.delay_terms
    fh = fronthaul_rates_all(bf, p_bar)
    tx, unstable = transmission_delays(sc, alpha, slice_sums(
        rates, ev.incidence, sc.n_slices), active, unstable)
    total = du + cu + tx
    # each family's largest excess, NaN skipped as the comparisons skip
    # it; only a family whose excess is positive can have an entry past
    # its limit's CHECK_RTOL slack, so only its entries are compared
    with np.errstate(over="ignore"):    # tiny limits: infinite excess
        ex_p = np.fmax.reduce(p_bar, initial=0.0) / params.p_max - 1.0
        ex_fh = np.fmax.reduce(fh, initial=0.0) / params.c_max - 1.0
        ex_r = 1.0 - np.fmin.reduce(rates, where=served,
                                    initial=np.inf) / params.r_min
        ex_d = np.inf if unstable else np.fmax.reduce(
            total, where=active, initial=0.0) / params.d_max - 1.0

    def slots(family, x, limit, unit):
        return [f"{family}: slice {bf.slot_slice[k]} RU {bf.slot_ru[k]} at "
                f"{x[k]:.6g} {unit} > {limit:.6g} {unit}"
                for k in np.flatnonzero(x > limit * (1.0 + CHECK_RTOL))]
    out = slots("RU power cap", p_bar, params.p_max, "W") if ex_p > 0 else []
    if ex_r > 0:
        keys = sc.ue_keys()
        out += [f"minimum rate: service {keys[u][0]} UE {keys[u][1]} at "
                f"{rates[u]:.6g} bit/s < {params.r_min:.6g} bit/s"
                for u in np.flatnonzero(
                    served & (rates < params.r_min * (1.0 - CHECK_RTOL)))]
    if ex_fh > 0:
        out += slots("fronthaul cap", fh, params.c_max, "bit/s/Hz")
    if ex_d > 0:
        late = np.flatnonzero(
            active & (total > params.d_max * (1.0 + CHECK_RTOL)))
        out += [f"delay: {unstable[s]}" if s in unstable else
                f"delay budget: slice {s} at {total[s]:.6g} s > "
                f"{params.d_max:.6g} s"
                for s in sorted(unstable.keys() | set(late.tolist()))]
    return FeasibilityReport(ok=not out, violations=out, max_violation=float(
        max(0.0, ex_p, ex_r, ex_fh, ex_d)))


def check_feasibility(sc: Scenario, ch: ChannelSet, bf: BeamformerSet,
                      mapping: SliceMapping,
                      powers: PowerAllocation | None = None,
                      ) -> FeasibilityReport:
    """Evaluate the mapped system against all operating constraints.

    With no explicit power allocation every UE is charged the per-RU
    cap, matching how the mapping sweep judges candidates.  A power that
    is negative or NaN leaves the rates undefined, so it is reported
    alone.  Otherwise the checks run, in order: per-slot RU power cap,
    per-UE minimum rate (only UEs whose service is mapped somewhere),
    per-slot fronthaul cap, and per-active-slice delay budget.  Rates use
    the interference upper bound, so a pass here is conservative.
    """
    p = None if powers is None else powers.p
    if p is not None and not np.all(p >= 0):
        bad = {"negative": p < 0, "NaN": np.isnan(p)}
        return FeasibilityReport(ok=False, violations=[
            f"{kind} transmit power at UE index {np.flatnonzero(m).tolist()}"
            for kind, m in bad.items() if m.any()], max_violation=np.inf)
    ev = MappingEvaluator(sc, bf, mapping)
    return verdict(ev, *ev.at(p))


@dataclass
class MappingResult:
    mapping: SliceMapping
    uncovered_services: list[int]
    rejections: list[tuple[int, int, str]]   # (slice, service, first reason),
                                             # once per pair


def map_slices_to_services(sc: Scenario, bf: BeamformerSet) -> MappingResult:
    """Two-pass greedy mapping sweep.

    Pass 1: walk slices in rank order; each slice tentatively serves the
    highest-ranked service that no slice covers yet and that keeps the
    system feasible at full power, and stops at the first success.  (A
    second slice for a covered service adds its slots' power and a
    zero-forcing solve, and on the measured instances it lowered the
    efficiency the power step reached; see the README.)  Pass 2: for
    each service still uncovered, walk slices in rank order again and
    take the first feasible one.  Services that remain uncovered are
    reported, not raised, and each rejected pair is recorded once, with
    the reason of its first rejection.  Each candidate is judged by
    `verdict` at full power on the accepted mapping's evaluator extended
    by the candidate pair.
    """
    left = rank_services(sc)    # services no slice covers yet, in rank order
    slice_order = rank_slices(sc)
    ev = MappingEvaluator(sc, bf)
    rejections: dict[tuple[int, int], str] = {}     # the first per pair

    def try_pair(v: int, s: int) -> bool:
        nonlocal ev
        if (s, v) in bf.unmappable:
            rejections.setdefault((s, v), bf.unmappable[(s, v)])
            return False
        trial = ev.extend(s, v)
        report = verdict(trial, *trial.at())
        if report.ok:
            ev = trial
        else:
            rejections.setdefault((s, v), report.violations[0])
        return report.ok

    for s in slice_order:
        for v in left:
            if try_pair(v, s):
                left.remove(v)
                break

    for v in list(left):
        for s in slice_order:
            if try_pair(v, s):
                left.remove(v)
                break

    return MappingResult(SliceMapping(a=ev.a), sorted(left),
                         [(s, v, why) for (s, v), why in rejections.items()])
