"""VNF placement: pack active slices' compute demands onto data centers.

Slice demands and DC capacities live in mixed units (memory GB, storage
TB, CPU GHz); a weighted sum collapses each triple to one scalar used
for ranking and for the affine power model.  The heuristic runs three
phases: whole-slice first-fit by decreasing weighted demand, resource-
wise splitting of whatever did not fit, and a consolidation pass that
moves slices onto the smallest data center that can hold them entirely
whenever that does not increase power draw.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .scenario import DataCenter, Scenario, Slice
from .radio import SliceMapping

RESOURCES = ("memory_gb", "storage_tb", "cpu_ghz")


@dataclass(frozen=True)
class PlacementWeights:
    """Scalarization weights for (memory GB, storage TB, CPU GHz)."""

    w_mem: float = 1.0
    w_sto: float = 100.0
    w_cpu: float = 320.0

    def combine(self, mem: float, sto: float, cpu: float) -> float:
        return self.w_mem * mem + self.w_sto * sto + self.w_cpu * cpu


@dataclass(frozen=True)
class SliceDemand:
    slice_id: int
    memory_gb: float
    storage_tb: float
    cpu_ghz: float
    weighted: float

    def triple(self) -> np.ndarray:
        return np.array([self.memory_gb, self.storage_tb, self.cpu_ghz])


def weighted_demand(sl: Slice,
                    weights: PlacementWeights = PlacementWeights(),
                    ) -> SliceDemand:
    """Total demand of one slice's VNF chain, plus its scalarization."""
    mem, sto, cpu = sl.total_demand()
    return SliceDemand(slice_id=sl.id, memory_gb=mem, storage_tb=sto,
                       cpu_ghz=cpu,
                       weighted=weights.combine(mem, sto, cpu))


def weighted_capacity(dc: DataCenter,
                      weights: PlacementWeights = PlacementWeights(),
                      ) -> float:
    return weights.combine(dc.memory_gb, dc.storage_tb, dc.cpu_ghz)


def active_slice_ids(sc: Scenario, mapping: SliceMapping) -> list[int]:
    """Slices serving at least one service; only these need placement."""
    return np.flatnonzero(mapping.a.any(axis=0)).tolist()


@dataclass
class Placement:
    """Assignment of slices to data centers with per-pair contributions.

    `y[s, d] = 1` when DC d hosts (part of) slice s.  `contributions`
    maps (slice_id, dc_id) to the (memory, storage, cpu) amount actually
    hosted there, so split slices are fully accounted.  `weights` records
    the scalarization used, because the power model depends on it.
    """

    y: np.ndarray                         # (n_slices, n_dcs) int8
    contributions: dict[tuple[int, int], np.ndarray]
    admitted: list[int]
    unadmitted: list[int]
    weights: PlacementWeights
    single_dc: bool = False

    def residuals(self, sc: Scenario) -> np.ndarray:
        """Remaining (memory, storage, cpu) per DC after all contributions."""
        out = np.array([[dc.memory_gb, dc.storage_tb, dc.cpu_ghz]
                        for dc in sc.dcs], dtype=float)
        for (s, d), amount in self.contributions.items():
            out[d] -= amount
        return out

    def dcs_of_slice(self, slice_id: int) -> list[int]:
        return [d for d in range(self.y.shape[1]) if self.y[slice_id, d]]


def cost_phi(sc: Scenario, placement: Placement) -> float:
    """Total placement power: idle draw once per active DC plus a
    per-unit charge of the full weighted demand at every hosting pair."""
    demands = {sl.id: weighted_demand(sl, placement.weights)
               for sl in sc.slices}
    total = 0.0
    for dc in sc.dcs:
        hosted = [s for s in range(sc.n_slices) if placement.y[s, dc.id]]
        if hosted:
            total += dc.phi_idle
            for s in hosted:
                total += dc.phi_per_unit * demands[s].weighted
    return total


def cost_psi(sc: Scenario, mapping: SliceMapping, placement: Placement,
             nu: float | None = None) -> tuple[float, float]:
    """(phi_tot, psi_tot): power cost and power-minus-admission objective.

    The admission credit counts, for every hosting pair (slice, DC), the
    number of services the slice carries, scaled by nu (defaults to the
    scenario's).
    """
    if nu is None:
        nu = sc.params.nu
    phi = cost_phi(sc, placement)
    credit = 0.0
    services_per_slice = mapping.a.sum(axis=0)
    for s in range(sc.n_slices):
        credit += float(placement.y[s].sum()) * float(services_per_slice[s])
    return phi, phi - nu * credit


def place(sc: Scenario, mapping: SliceMapping,
          weights: PlacementWeights = PlacementWeights(),
          single_dc: bool = False) -> Placement:
    """Three-phase packing of active slices onto data centers.

    Phase 1 sorts slices by weighted demand (descending) and DCs by
    weighted capacity (descending), then first-fits each slice wholly
    into the first DC whose residuals cover all three resources.
    Phase 2 (skipped in single-DC mode) splits each leftover slice
    resource-wise across DCs in the same order, rolling back entirely if
    the pooled residuals cannot finish it.  Phase 3 re-homes each placed
    slice onto the smallest-capacity DC that can hold it in one piece,
    accepting only moves that do not increase total power.  Ties
    everywhere break on lower id.
    """
    demands = {sl.id: weighted_demand(sl, weights) for sl in sc.slices}
    order = sorted(active_slice_ids(sc, mapping),
                   key=lambda s: (-demands[s].weighted, s))
    dc_order = sorted(range(len(sc.dcs)),
                      key=lambda d: (-weighted_capacity(sc.dcs[d], weights), d))
    residual = np.array([[dc.memory_gb, dc.storage_tb, dc.cpu_ghz]
                         for dc in sc.dcs], dtype=float)

    placement = Placement(
        y=np.zeros((sc.n_slices, len(sc.dcs)), dtype=np.int8),
        contributions={}, admitted=[], unadmitted=[], weights=weights,
        single_dc=single_dc)

    def host(s: int, d: int, amount: np.ndarray) -> None:
        placement.y[s, d] = 1
        placement.contributions[(s, d)] = amount.astype(float)
        residual[d] -= amount

    # Phase 1: whole-slice first fit, largest first.
    leftover = []
    for s in order:
        need = demands[s].triple()
        for d in dc_order:
            if np.all(residual[d] >= need - 1e-12):
                host(s, d, need)
                placement.admitted.append(s)
                break
        else:
            leftover.append(s)

    # Phase 2: resource-wise split of whatever is left.
    for s in ([] if single_dc else leftover):
        need = demands[s].triple().copy()
        taken: list[tuple[int, np.ndarray]] = []
        for d in dc_order:
            if np.all(need <= 1e-12):
                break
            give = np.minimum(np.maximum(residual[d], 0.0), need)
            if np.any(give > 1e-12):
                taken.append((d, give.copy()))
                residual[d] -= give
                need -= give
        if np.all(need <= 1e-12):
            for d, give in taken:
                placement.y[s, d] = 1
                placement.contributions[(s, d)] = give
            placement.admitted.append(s)
        else:
            for d, give in taken:      # roll back: no partial admissions
                residual[d] += give
    placement.unadmitted = [s for s in order if s not in placement.admitted]

    # Phase 3: consolidate onto the smallest DC that fits the whole slice.
    for s in order:
        if s not in placement.admitted:
            continue
        current = placement.dcs_of_slice(s)
        need = demands[s].triple()
        current_max_cap = max(weighted_capacity(sc.dcs[d], weights)
                              for d in current)
        candidates = sorted(
            range(len(sc.dcs)),
            key=lambda d: (weighted_capacity(sc.dcs[d], weights), d))
        for d in candidates:
            cap_d = weighted_capacity(sc.dcs[d], weights)
            if cap_d >= current_max_cap:
                break
            freed = placement.contributions.get((s, d), np.zeros(3))
            if not np.all(residual[d] + freed >= need - 1e-12):
                continue
            before = cost_phi(sc, placement)
            saved = {dd: placement.contributions.pop((s, dd))
                     for dd in current}
            for dd, amount in saved.items():
                residual[dd] += amount
                placement.y[s, dd] = 0
            host(s, d, need)
            if cost_phi(sc, placement) <= before + 1e-12:
                break
            # revert: the move would cost power
            placement.contributions.pop((s, d))
            placement.y[s, d] = 0
            residual[d] += need
            for dd, amount in saved.items():
                residual[dd] -= amount
                placement.y[s, dd] = 1
                placement.contributions[(s, dd)] = amount
            break

    placement.admitted.sort()
    placement.unadmitted.sort()
    return placement


def admitted_ratio(sc: Scenario, mapping: SliceMapping, placement: Placement,
                   single_dc_mode: bool = False) -> float:
    """Fraction of active slices that were admitted.

    In single-DC mode a slice only counts as admitted when it sits on
    exactly one data center (split slices do not count).
    """
    active = active_slice_ids(sc, mapping)
    if not active:
        return 1.0
    good = 0
    for s in active:
        hosts = placement.dcs_of_slice(s)
        if s in placement.admitted and (len(hosts) == 1 or not single_dc_mode):
            good += 1
    return good / len(active)


def normalized_resource_consumption(sc: Scenario, placement: Placement,
                                    reference_phi: float | None = None,
                                    ) -> float:
    """Placement power relative to a reference.

    With `reference_phi` given (e.g. an exhaustive-search optimum) the
    value is heuristic/reference, 1.0 meaning parity.  Otherwise the
    reference is the power of running every DC fully loaded, making the
    value a capacity-utilization figure for large instances.
    """
    phi = cost_phi(sc, placement)
    if reference_phi is None:
        reference_phi = sum(
            dc.phi_idle + dc.phi_per_unit * weighted_capacity(
                dc, placement.weights)
            for dc in sc.dcs)
    if reference_phi <= 0:
        return 0.0
    return phi / reference_phi
