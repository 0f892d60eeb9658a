"""Greedy assignment of network slices to services.

Services are ranked by how demanding they are (UE count, then summed
arrival rate); slices are ranked by a count of their resources (PRBs
plus radio units plus VNFs).  The sweep walks slices in rank order and
gives each slice to the first service for which the tentative assignment
keeps the whole system feasible when every UE transmits at the per-RU
power cap under the worst-case interference bound.  A second pass then
tries to cover services that the first pass left without any slice.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .scenario import Scenario
from .radio import (BeamformerSet, ChannelSet, PowerAllocation, SliceMapping,
                    fronthaul_rates_all, interference_upper_bound,
                    ru_powers_all, ue_rates)
from .queueing import slice_delays

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
    """Outcome of checking one mapping at full power."""

    ok: bool
    violations: list[str] = field(default_factory=list)


def check_feasibility(sc: Scenario, ch: ChannelSet, bf: BeamformerSet,
                      mapping: SliceMapping,
                      powers: PowerAllocation | None = None,
                      ) -> FeasibilityReport:
    """Evaluate the mapped system against all operating constraints.

    With no explicit power allocation every UE is charged the per-RU
    cap, matching how the mapping sweep judges candidates.  A negative
    power leaves the rates undefined, so it is reported alone.  Otherwise
    the checks run, in order: per-slot RU power cap, per-UE minimum rate
    (only UEs whose service is mapped somewhere), per-slot fronthaul cap,
    and per-active-slice delay budget.  Rates use the interference upper
    bound, so a pass here is conservative.
    """
    if powers is None:
        powers = PowerAllocation.uniform(sc, sc.params.p_max)
    params = sc.params
    if np.any(powers.p < 0):
        bad = np.flatnonzero(powers.p < 0).tolist()
        return FeasibilityReport(ok=False, violations=[
            f"negative transmit power at UE index {bad}"])

    served = mapping.a[sc.ue_service]
    p_bar = ru_powers_all(sc, mapping, bf, powers)
    fh = fronthaul_rates_all(bf, p_bar)
    ibar = interference_upper_bound(sc, mapping, ch, bf)
    rates = ue_rates(sc, mapping, ch, bf, powers, ibar)
    du, cu, tx, unstable = slice_delays(sc, served, rates)
    total = du + cu + tx

    violations = [
        f"RU power cap: slice {bf.slot_slice[k]} RU {bf.slot_ru[k]} at "
        f"{p_bar[k]:.6g} W > {params.p_max:.6g} W"
        for k in np.flatnonzero(p_bar > params.p_max * (1.0 + CHECK_RTOL))]
    low = np.flatnonzero(mapping.covered()[sc.ue_service]
                         & (rates < params.r_min * (1.0 - CHECK_RTOL)))
    keys = sc.ue_keys() if low.size else []
    violations += [
        f"minimum rate: service {keys[u][0]} UE {keys[u][1]} at "
        f"{rates[u]:.6g} bit/s < {params.r_min:.6g} bit/s" for u in low]
    violations += [
        f"fronthaul cap: slice {bf.slot_slice[k]} RU {bf.slot_ru[k]} at "
        f"{fh[k]:.6g} bit/s/Hz > {params.c_max:.6g} bit/s/Hz"
        for k in np.flatnonzero(fh > params.c_max * (1.0 + CHECK_RTOL))]
    late = np.flatnonzero(served.any(axis=0)
                          & (total > params.d_max * (1.0 + CHECK_RTOL)))
    violations += [
        f"delay: {unstable[s]}" if s in unstable else
        f"delay budget: slice {s} at {total[s]:.6g} s > "
        f"{params.d_max:.6g} s"
        for s in sorted(unstable.keys() | set(late.tolist()))]
    return FeasibilityReport(ok=not violations, violations=violations)


@dataclass
class MappingResult:
    mapping: SliceMapping
    uncovered_services: list[int]
    rejections: list[tuple[int, int, str]]   # (slice, service, first reason)


def map_slices_to_services(sc: Scenario, ch: ChannelSet, bf: BeamformerSet,
                           ) -> MappingResult:
    """Two-pass greedy mapping sweep.

    Pass 1: walk slices in rank order; each slice tentatively serves the
    highest-ranked service that keeps the system feasible at full power
    and stops at the first success.  Pass 2: for each service still
    uncovered, walk slices in rank order again and accept any additional
    feasible assignment.  Services that remain uncovered are reported,
    not raised.
    """
    service_order = rank_services(sc)
    slice_order = rank_slices(sc)
    mapping = SliceMapping.empty(sc)
    rejections: list[tuple[int, int, str]] = []

    def try_pair(v: int, s: int) -> bool:
        if (s, v) in bf.unmappable:
            rejections.append((s, v, bf.unmappable[(s, v)]))
            return False
        mapping.a[v, s] = 1
        report = check_feasibility(sc, ch, bf, mapping)
        if report.ok:
            return True
        mapping.a[v, s] = 0
        rejections.append((s, v, report.violations[0]))
        return False

    for s in slice_order:
        for v in service_order:
            if try_pair(v, s):
                break

    for v in service_order:
        if mapping.covered()[v]:
            continue
        for s in slice_order:
            if mapping.a[v, s]:
                continue
            if try_pair(v, s):
                break

    uncovered = [v for v in service_order if not mapping.covered()[v]]
    return MappingResult(mapping=mapping, uncovered_services=sorted(uncovered),
                         rejections=rejections)
