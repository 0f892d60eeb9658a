"""VNF placement: pack active slices' compute demands onto data centers.

Slice demands and DC capacities live in mixed units (memory GB, storage
TB, CPU GHz); a weighted sum collapses each triple to one scalar used
for ranking and for the affine power model.  The heuristic runs three
phases: whole-slice first-fit by decreasing weighted demand, resource-
wise splitting of whatever did not fit, and a consolidation pass that
moves slices onto the smallest data center that can hold them entirely
whenever that does not increase power draw.  Each split and move is
judged before it is applied, so nothing is ever undone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .scenario import DataCenter, Scenario, Slice
from .radio import SliceMapping


@dataclass(frozen=True)
class PlacementWeights:
    """Scalarization weights for (memory GB, storage TB, CPU GHz)."""

    w_mem: float = 1.0
    w_sto: float = 100.0
    w_cpu: float = 320.0

    def combine(self, mem: float, sto: float, cpu: float) -> float:
        return self.w_mem * mem + self.w_sto * sto + self.w_cpu * cpu


def weighted_demand(sl: Slice,
                    weights: PlacementWeights = PlacementWeights(),
                    ) -> float:
    """Scalarized total demand of one slice's VNF chain."""
    return weights.combine(*sl.total_demand())


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
    hosted there, in hosting order, so split slices are fully accounted.
    `admitted` and `unadmitted` list the active slices with and without
    a host, ascending.  `weights` records the scalarization used, because
    the power model depends on it.
    """

    y: np.ndarray                         # (n_slices, n_dcs) int8
    contributions: dict[tuple[int, int], np.ndarray]
    admitted: list[int]
    unadmitted: list[int]
    weights: PlacementWeights

    def residuals(self, sc: Scenario) -> np.ndarray:
        """Remaining (memory, storage, cpu) per DC after all contributions."""
        out = np.array([[dc.memory_gb, dc.storage_tb, dc.cpu_ghz]
                        for dc in sc.dcs], dtype=float)
        for (s, d), amount in self.contributions.items():
            out[d] -= amount
        return out


def _phi(sc: Scenario, y: np.ndarray, omega: list[float]) -> float:
    """Power of hosting map y given each slice's weighted demand omega.

    DCs are summed in id order and each DC's slices ascending, so equal
    maps give bit-equal sums.
    """
    total = 0.0
    for dc in sc.dcs:
        hosted = np.flatnonzero(y[:, dc.id])
        if hosted.size:
            total += dc.phi_idle
            for s in hosted:
                total += dc.phi_per_unit * omega[s]
    return total


def cost_phi(sc: Scenario, placement: Placement) -> float:
    """Total placement power: idle draw once per active DC plus a
    per-unit charge of the full weighted demand at every hosting pair."""
    return _phi(sc, placement.y, [weighted_demand(sl, placement.weights)
                                  for sl in sc.slices])


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
    Phase 2 (skipped in single-DC mode) works out a resource-wise split
    of each leftover slice across DCs in the same order, and hosts it
    only if the residuals cover the whole demand.  Phase 3 re-homes each
    placed slice onto the smallest-capacity DC below its largest current
    one that can hold it in one piece, if the move does not increase
    total power.  Ties everywhere break on lower id.
    """
    omega = [weighted_demand(sl, weights) for sl in sc.slices]
    need = [np.array(sl.total_demand(), dtype=float) for sl in sc.slices]
    caps = [weighted_capacity(dc, weights) for dc in sc.dcs]
    active = active_slice_ids(sc, mapping)
    order = sorted(active, key=lambda s: (-omega[s], s))
    largest_first = sorted(range(len(sc.dcs)), key=lambda d: (-caps[d], d))
    smallest_first = sorted(range(len(sc.dcs)), key=lambda d: (caps[d], d))
    residual = np.array([[dc.memory_gb, dc.storage_tb, dc.cpu_ghz]
                         for dc in sc.dcs], dtype=float)
    y = np.zeros((sc.n_slices, len(sc.dcs)), dtype=np.int8)
    contributions: dict[tuple[int, int], np.ndarray] = {}

    def host(s: int, d: int, amount: np.ndarray) -> None:
        y[s, d] = 1
        contributions[(s, d)] = amount
        residual[d] -= amount

    # Phase 1: whole-slice first fit, largest first.
    for s in order:
        for d in largest_first:
            if np.all(residual[d] >= need[s] - 1e-12):
                host(s, d, need[s])
                break

    # Phase 2: resource-wise split of whatever is left.
    for s in ([] if single_dc else order):
        if y[s].any():
            continue
        rest, pieces = need[s], []
        for d in largest_first:
            if np.all(rest <= 1e-12):
                break
            give = np.minimum(np.maximum(residual[d], 0.0), rest)
            if np.any(give > 1e-12):
                pieces.append((d, give))
                rest = rest - give
        if np.all(rest <= 1e-12):          # no partial admissions
            for d, give in pieces:
                host(s, d, give)

    # Phase 3: consolidate onto the smallest DC that fits the whole slice.
    for s in order:
        current = np.flatnonzero(y[s])
        if not current.size:
            continue
        largest = max(caps[d] for d in current)
        for d in smallest_first:
            if caps[d] >= largest:
                break
            freed = contributions.get((s, d), 0.0)
            if not np.all(residual[d] + freed >= need[s] - 1e-12):
                continue
            moved = y.copy()
            moved[s] = 0
            moved[s, d] = 1
            if _phi(sc, moved, omega) <= _phi(sc, y, omega) + 1e-12:
                for dd in current:
                    residual[dd] += contributions.pop((s, dd))
                y[s] = 0
                host(s, d, need[s])
            break

    hosted = y.any(axis=1)
    return Placement(y=y, contributions=contributions,
                     admitted=[s for s in active if hosted[s]],
                     unadmitted=[s for s in active if not hosted[s]],
                     weights=weights)


def admitted_ratio(sc: Scenario, mapping: SliceMapping, placement: Placement,
                   single_dc_mode: bool = False) -> float:
    """Fraction of active slices that were admitted.

    In single-DC mode a slice only counts as admitted when it sits on
    exactly one data center (split slices do not count).
    """
    active = active_slice_ids(sc, mapping)
    if not active:
        return 1.0
    hosts = placement.y[active].sum(axis=1)
    good = hosts == 1 if single_dc_mode else hosts > 0
    return int(good.sum()) / len(active)


def normalized_resource_consumption(sc: Scenario,
                                    placement: Placement) -> float:
    """Placement power relative to the power of running every DC fully
    loaded, a capacity-utilization figure for large instances."""
    reference = sum(dc.phi_idle + dc.phi_per_unit * weighted_capacity(
        dc, placement.weights) for dc in sc.dcs)
    if reference <= 0:
        return 0.0
    return cost_phi(sc, placement) / reference
