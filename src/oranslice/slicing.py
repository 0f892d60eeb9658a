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
from typing import Iterator

import numpy as np

from .scenario import Scenario
from .radio import (BeamformerSet, ChannelSet, PowerAllocation, SliceMapping,
                    achievable_rate, fronthaul_rates_all,
                    interference_upper_bound, ru_powers_all, ue_rates)
from .queueing import slice_delays, slice_loads, slice_sums

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


def _violations(sc: Scenario, bf: BeamformerSet, p_bar: np.ndarray,
                rates: np.ndarray, checked: np.ndarray, active: np.ndarray,
                alpha: np.ndarray, r_tot: np.ndarray) -> Iterator[str]:
    """Violation messages of one operating point, lazily and in report
    order: per-slot RU power cap, per-UE minimum rate (only the UEs
    marked `checked`), per-slot fronthaul cap, then per-slice delay
    budget (only `active` slices).  `p_bar` holds the slot powers,
    `rates` the UE rates, `alpha` and `r_tot` the slice loads and summed
    rates."""
    params = sc.params
    for k in np.flatnonzero(p_bar > params.p_max * (1.0 + CHECK_RTOL)):
        yield (f"RU power cap: slice {bf.slot_slice[k]} RU {bf.slot_ru[k]} "
               f"at {p_bar[k]:.6g} W > {params.p_max:.6g} W")
    low = np.flatnonzero(checked & (rates < params.r_min * (1.0 - CHECK_RTOL)))
    keys = sc.ue_keys() if low.size else []
    for u in low:
        yield (f"minimum rate: service {keys[u][0]} UE {keys[u][1]} at "
               f"{rates[u]:.6g} bit/s < {params.r_min:.6g} bit/s")
    fh = fronthaul_rates_all(bf, p_bar)
    for k in np.flatnonzero(fh > params.c_max * (1.0 + CHECK_RTOL)):
        yield (f"fronthaul cap: slice {bf.slot_slice[k]} RU {bf.slot_ru[k]} "
               f"at {fh[k]:.6g} bit/s/Hz > {params.c_max:.6g} bit/s/Hz")
    du, cu, tx, unstable = slice_delays(sc, alpha, r_tot, active)
    total = du + cu + tx
    late = np.flatnonzero(active & (total > params.d_max * (1.0 + CHECK_RTOL)))
    for s in sorted(unstable.keys() | set(late.tolist())):
        yield (f"delay: {unstable[s]}" if s in unstable else
               f"delay budget: slice {s} at {total[s]:.6g} s > "
               f"{params.d_max:.6g} s")


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
    if np.any(powers.p < 0):
        bad = np.flatnonzero(powers.p < 0).tolist()
        return FeasibilityReport(ok=False, violations=[
            f"negative transmit power at UE index {bad}"])

    served = mapping.a[sc.ue_service]
    ibar = interference_upper_bound(sc, mapping, ch, bf)
    rates = ue_rates(sc, mapping, ch, bf, powers, ibar)
    violations = list(_violations(
        sc, bf, ru_powers_all(sc, mapping, bf, powers), rates,
        mapping.covered()[sc.ue_service], served.any(axis=0),
        slice_loads(sc, served), slice_sums(rates, served)))
    return FeasibilityReport(ok=not violations, violations=violations)


@dataclass
class MappingResult:
    mapping: SliceMapping
    uncovered_services: list[int]
    rejections: list[tuple[int, int, str]]   # (slice, service, first reason)


class _SweepState:
    """The full-power operating point of the sweep's accepted mapping,
    with every quantity `check_feasibility` derives from it: slot powers,
    the leakage and quantization parts of the interference bound, beam
    gains, rates, and slice loads and rate sums.  `try_add` updates only
    what a candidate (service, slice) pair touches."""

    def __init__(self, sc: Scenario, bf: BeamformerSet):
        self.sc, self.bf = sc, bf
        n_slices, n_services = sc.n_slices, sc.n_services
        self.a = np.zeros((n_services, n_slices), dtype=np.int8)
        self.served = np.zeros((sc.n_ues, n_slices), dtype=np.int8)
        self.p_bar = bf.slot_sigma.copy()
        self.leakage = np.zeros(sc.n_ues)
        self.quant = np.zeros(sc.n_ues)
        self.gains = np.zeros(sc.n_ues)
        self.rates = np.zeros(sc.n_ues)
        self.alpha = np.zeros(n_slices)
        self.r_tot = np.zeros(n_slices)
        self.checked = np.zeros(sc.n_ues, dtype=bool)   # service covered
        self.cols = [np.array(sc.service_ue_indices(v), dtype=int)
                     for v in range(n_services)]
        self.slots = np.searchsorted(bf.slot_slice, np.arange(n_slices + 1))
        self.leak_at = np.searchsorted(
            bf.leak_rows[:, 0] * n_services + bf.leak_rows[:, 1],
            np.arange(n_slices * n_services + 1))

    def try_add(self, v: int, s: int) -> str | None:
        """The message `check_feasibility` would report first for the
        mapping plus (v, s); None, after adding the pair, if it is
        feasible."""
        sc, bf, params = self.sc, self.bf, self.sc.params
        p_max, cols = params.p_max, self.cols[v]
        rows = slice(self.slots[s], self.slots[s + 1])
        p_bar = self.p_bar.copy()
        p_bar[rows] += bf.w2[rows, cols] @ np.full(cols.size, p_max)
        leak = slice(self.leak_at[s * sc.n_services + v],
                     self.leak_at[s * sc.n_services + v + 1])
        victims = bf.leak_rows[leak, 2]
        leakage = self.leakage.copy()
        leakage[victims] += bf.leak[leak]
        quant = self.quant.copy()
        quant[cols] += bf.quant[s, cols]
        gains = self.gains.copy()
        gains[cols] += bf.gain[s, cols]
        touched = np.concatenate([cols, victims])   # repeats are harmless
        rates = self.rates.copy()
        rho = (p_max * gains[touched]
               / (params.bandwidth_hz * params.noise_psd
                  + (p_max * leakage[touched] + quant[touched])))
        rates[touched] = achievable_rate(rho, params.bandwidth_hz)
        a = self.a.copy()
        a[v, s] = 1
        # slices whose rate sum moves: those serving a touched UE
        moved = np.flatnonzero(a[sc.ue_service[touched]].any(axis=0))
        at_s = np.searchsorted(moved, s)
        served = self.served[:, moved]
        served[cols, at_s] = 1
        r_tot = self.r_tot.copy()
        r_tot[moved] = slice_sums(rates, served)
        alpha = self.alpha.copy()
        alpha[s] = slice_sums(sc.arrival_rates, served[:, at_s, None])[0]
        checked = self.checked.copy()
        checked[cols] = True
        reason = next(_violations(sc, bf, p_bar, rates, checked,
                                  a.any(axis=0), alpha, r_tot), None)
        if reason is None:
            (self.a, self.p_bar, self.leakage, self.quant, self.gains,
             self.rates, self.r_tot, self.alpha, self.checked) = (
                a, p_bar, leakage, quant, gains, rates, r_tot, alpha,
                checked)
            self.served[cols, s] = 1
        return reason


def map_slices_to_services(sc: Scenario, bf: BeamformerSet) -> MappingResult:
    """Two-pass greedy mapping sweep.

    Pass 1: walk slices in rank order; each slice tentatively serves the
    highest-ranked service that keeps the system feasible at full power
    and stops at the first success.  Pass 2: for each service still
    uncovered, walk slices in rank order again and accept any additional
    feasible assignment.  Services that remain uncovered are reported,
    not raised.  Each candidate is judged as `check_feasibility` judges
    the tentative mapping, but only the quantities it changes are
    recomputed.
    """
    service_order = rank_services(sc)
    slice_order = rank_slices(sc)
    state = _SweepState(sc, bf)
    rejections: list[tuple[int, int, str]] = []

    def try_pair(v: int, s: int) -> bool:
        if (s, v) in bf.unmappable:
            rejections.append((s, v, bf.unmappable[(s, v)]))
            return False
        reason = state.try_add(v, s)
        if reason is not None:
            rejections.append((s, v, reason))
        return reason is None

    for s in slice_order:
        for v in service_order:
            if try_pair(v, s):
                break

    for v in service_order:
        if state.a[v].any():
            continue
        for s in slice_order:
            if state.a[v, s]:
                continue
            if try_pair(v, s):
                break

    mapping = SliceMapping(a=state.a)
    uncovered = [v for v in service_order if not mapping.covered()[v]]
    return MappingResult(mapping=mapping, uncovered_services=sorted(uncovered),
                         rejections=rejections)
