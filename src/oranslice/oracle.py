"""Reference implementations used to validate the fast paths.

Everything here recomputes results from first principles: interference,
RU power and efficiency are re-derived with literal nested loops over
the scenario structures (sharing no evaluation code with the radio or
queueing modules), mappings are found by exhaustive enumeration and
placements by an exact branch-and-bound, and the queueing formula is
checked against a simulated queue.  All functions guard their input
size, since the searches are only meant for desk-scale verification.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .scenario import Scenario
from .radio import BeamformerSet, ChannelSet, PowerAllocation, SliceMapping
from .placement import PlacementWeights
from .power import SolverOptions, solve_power

RTOL = 1e-9
MM1_SLAB = (32, 2048)          # (rows, columns) of customers per Lindley slab
GRID_POINTS_MAX = 2 ** 25      # power-grid points per mapping; 65^4 fits


class OracleSizeError(ValueError):
    """Instance too large for exhaustive verification."""


@dataclass
class OracleReport:
    """One heuristic-vs-reference comparison, CSV-friendly."""

    instance: str
    kind: str
    oracle_value: float
    heuristic_value: float
    wall_time_s: float

    @property
    def rel_gap(self) -> float:
        if self.oracle_value == 0.0:
            return 0.0 if self.heuristic_value == 0.0 else math.inf
        return ((self.oracle_value - self.heuristic_value)
                / abs(self.oracle_value))

    CSV_HEADER = "instance,kind,oracle_value,heuristic_value,rel_gap,wall_time_s"

    def csv_row(self) -> str:
        name = self.instance        # quoted as the csv module quotes it
        if any(c in name for c in ',"\r\n'):
            name = '"' + name.replace('"', '""') + '"'
        # numpy scalars sneak in from callers; float() keeps the CSV parseable
        return (f"{name},{self.kind},{float(self.oracle_value)!r},"
                f"{float(self.heuristic_value)!r},{float(self.rel_gap)!r},"
                f"{self.wall_time_s:.3f}")


# --------------------------------------------------------------------------
# Naive system evaluation (independent of the radio module)
# --------------------------------------------------------------------------


def _cross_gain(sc: Scenario, ch: ChannelSet, bf: BeamformerSet,
                slice_id: int, victim_global: int, service_id: int,
                ue_pos: int) -> float:
    """|h_victim^H w_(service, ue)|^2 through one slice, by explicit sum."""
    sl = sc.slices[slice_id]
    w = bf.w[(slice_id, service_id)]
    acc = 0.0 + 0.0j
    for j, rid in enumerate(sl.ru_ids):
        acc += np.conj(ch.gains[rid, victim_global]) * w[j, ue_pos]
    return float(abs(acc) ** 2)


def _naive_interference(sc: Scenario, mapping: SliceMapping, ch: ChannelSet,
                        bf: BeamformerSet) -> np.ndarray:
    """Per-UE worst-case interference by literal (slice, PRB, interferer)
    loops, every interfering stream charged the per-RU cap."""
    zeta = set(map(tuple, sc.prb_assignment.triples.tolist()))
    n_prbs = sc.prb_assignment.n_prbs
    out = np.zeros(sc.n_ues)
    for sv in sc.services:
        v = sv.id
        for u_i in sc.service_ue_indices(v):
            total = 0.0
            # leakage from the UE's own service first, then the others
            for y in [v] + [sy.id for sy in sc.services if sy.id != v]:
                idx_y = sc.service_ue_indices(y)
                for sl in sc.slices:
                    s = sl.id
                    if not mapping.a[y, s] or (s, y) not in bf.w:
                        continue
                    for n in range(n_prbs):
                        for pos_l, u_l in enumerate(idx_y):
                            if (u_l != u_i and (u_i, n, s) in zeta
                                    and (u_l, n, s) in zeta):
                                total += sc.params.p_max * _cross_gain(
                                    sc, ch, bf, s, u_i, y, pos_l)
            # quantization noise of serving slices
            for sl in sc.slices:
                if not mapping.a[v, sl.id]:
                    continue
                for rid in sl.ru_ids:
                    total += (sc.rus[rid].sigma_q2
                              * abs(ch.gains[rid, u_i]) ** 2)
            out[u_i] = total
    return out


def _naive_beam_gain(sc: Scenario, mapping: SliceMapping, ch: ChannelSet,
                     bf: BeamformerSet, service_id: int, ue_pos: int,
                     ue_global: int) -> float:
    total = 0.0
    for sl in sc.slices:
        if mapping.a[service_id, sl.id] and (sl.id, service_id) in bf.w:
            total += _cross_gain(sc, ch, bf, sl.id, ue_global, service_id,
                                 ue_pos)
    return total


def _naive_rates(sc: Scenario, mapping: SliceMapping, ch: ChannelSet,
                 bf: BeamformerSet, powers: PowerAllocation,
                 interference: np.ndarray) -> np.ndarray:
    noise = sc.params.bandwidth_hz * sc.params.noise_psd
    out = np.zeros(sc.n_ues)
    for sv in sc.services:
        for pos, u in enumerate(sc.service_ue_indices(sv.id)):
            g = _naive_beam_gain(sc, mapping, ch, bf, sv.id, pos, u)
            rho = powers.p[u] * g / (noise + interference[u])
            out[u] = sc.params.bandwidth_hz * math.log2(1.0 + rho)
    return out


def _naive_slot_weights(sc: Scenario, mapping: SliceMapping,
                        bf: BeamformerSet) -> np.ndarray:
    """weights[k, u] = |w|^2 of UE u at (slice, RU) slot k when UE u's
    service is mapped to the slot's slice with a precoder, else 0.0."""
    out = np.zeros((len(sc.ru_slots()), sc.n_ues))
    for k, (s, j, rid) in enumerate(sc.ru_slots()):
        for sv in sc.services:
            if not mapping.a[sv.id, s] or (s, sv.id) not in bf.w:
                continue
            w = bf.w[(s, sv.id)]
            for pos, u in enumerate(sc.service_ue_indices(sv.id)):
                out[k, u] += abs(w[j, pos]) ** 2
    return out


def _naive_slot_powers(sc: Scenario, mapping: SliceMapping,
                       bf: BeamformerSet,
                       powers: PowerAllocation) -> np.ndarray:
    weights = _naive_slot_weights(sc, mapping, bf)
    out = []
    for k, (_s, _j, rid) in enumerate(sc.ru_slots()):
        total = sc.rus[rid].sigma_q2
        for u in range(sc.n_ues):
            total += weights[k, u] * powers.p[u]
        out.append(total)
    return np.array(out)


def summation_oracle(expression_id: str, sc: Scenario, mapping: SliceMapping,
                     ch: ChannelSet, bf: BeamformerSet,
                     powers: PowerAllocation):
    """Recompute a named quantity with naive loops.

    * "interference": per-UE worst-case interference vector (W);
    * "ru_power": per-(slice, RU) slot transmit power vector (W);
    * "ee": scalar efficiency (total rate / total slot power, bit/J),
      rates taken under the worst-case interference.
    """
    if expression_id == "interference":
        return _naive_interference(sc, mapping, ch, bf)
    if expression_id == "ru_power":
        return _naive_slot_powers(sc, mapping, bf, powers)
    if expression_id == "ee":
        ibar = _naive_interference(sc, mapping, ch, bf)
        rates = _naive_rates(sc, mapping, ch, bf, powers, ibar)
        p_tot = float(_naive_slot_powers(sc, mapping, bf, powers).sum())
        return float(rates.sum()) / p_tot if p_tot > 0 else 0.0
    raise ValueError(f"unknown expression id {expression_id!r}")


def dual_bound(sc: Scenario, mapping: SliceMapping, ch: ChannelSet,
               bf: BeamformerSet, eta: float, mults) -> float:
    """Lagrangian dual value of max R_tot - eta * P_tot at `mults`, bit/s.

    The constraints are those of the power problem for a fixed mapping:
    each covered UE's minimum rate (multiplier `mults.rate_ue[u]`), each
    (slice, RU) slot's power below min(p_max, sigma_q^2 2^c_max)
    (`mults.ru_cap_slot[k]`) and each active slice's delay rate floor
    (`mults.delay_slice[s]`).  Each UE's Lagrangian term is maximized
    over [0, p_max] on its own.  For nonnegative multipliers the value
    is, by weak duality, an upper bound on F(eta) = max R_tot - eta *
    P_tot over the feasible powers, so F(eta) <= value <= 0 proves
    that no feasible allocation beats efficiency eta.  Returns -inf
    when some active slice cannot meet its delay budget at any rate.
    """
    params = sc.params
    floors = _naive_delay_floors(sc, mapping)
    if floors is None:
        return -math.inf
    ibar = _naive_interference(sc, mapping, ch, bf)
    noise = params.bandwidth_hz * params.noise_psd
    slot_w = _naive_slot_weights(sc, mapping, bf)
    total = 0.0
    for k, (s, j, rid) in enumerate(sc.ru_slots()):
        sigma = sc.rus[rid].sigma_q2
        try:
            cap = min(params.p_max, sigma * 2.0 ** params.c_max)
        except OverflowError:           # beyond the float range: never binds
            cap = params.p_max
        total += mults.ru_cap_slot[k] * (cap - sigma) - eta * sigma
    for s, floor in floors.items():
        total -= mults.delay_slice[s] * floor
    for sv in sc.services:
        if not any(mapping.a[sv.id]):
            continue
        weight = 1.0 + sum(mults.delay_slice[s] for s in floors
                           if mapping.a[sv.id, s])
        for pos, u in enumerate(sc.service_ue_indices(sv.id)):
            g = _naive_beam_gain(sc, mapping, ch, bf, sv.id, pos, u)
            price = 0.0
            for k in range(len(slot_w)):
                price += (eta + mults.ru_cap_slot[k]) * slot_w[k, u]
            y = (weight + mults.rate_ue[u]) * params.bandwidth_hz
            z = noise + ibar[u]
            # y log2(1 + g p / z) - price p is concave in p: its maximizer
            # over [0, p_max] is the stationary point clipped to the box
            if g <= 0:
                p = 0.0
            elif price <= 0:
                p = params.p_max
            else:
                p = min(params.p_max,
                        max(0.0, y / (price * math.log(2.0)) - z / g))
            total += (y * math.log2(1.0 + g * p / z) - price * p
                      - mults.rate_ue[u] * params.r_min)
    return total


# --------------------------------------------------------------------------
# Brute-force mapping + power grid search
# --------------------------------------------------------------------------


@dataclass
class BruteForceResult:
    feasible: bool
    eta: float
    mapping: SliceMapping | None
    powers: PowerAllocation | None
    mappings_tried: int
    mappings_feasible: int


def _naive_delay_floors(sc: Scenario, mapping: SliceMapping,
                        ) -> dict[int, float] | None:
    """Per-active-slice minimum summed rate keeping the delay budget.

    Returns None when some active slice cannot meet the budget at any
    rate (VNF layers unstable or already over budget).
    """
    floors: dict[int, float] = {}
    for sl in sc.slices:
        served = [v for v in range(sc.n_services) if mapping.a[v, sl.id]]
        if not served:
            continue
        alpha = 0.0
        for v in served:
            for ue in sc.services[v].ues:
                alpha += ue.arrival_rate
        d_layers = 0.0
        for mu, m in ((sc.params.mu1, sl.m_du), (sc.params.mu2, sl.m_cu)):
            if alpha / m >= mu:
                return None
            d_layers += 1.0 / (mu - alpha / m)
        slack = sc.params.d_max - d_layers
        if slack <= 0:
            return None
        floors[sl.id] = 1.0 / slack + alpha * sc.params.packet_size_bits
    return floors


def check_mapping_space(sc: Scenario) -> None:
    """Raise OracleSizeError unless n_services * n_slices <= 12, the
    mapping enumeration's guard."""
    if sc.n_services * sc.n_slices > 12:
        raise OracleSizeError(f"mapping enumeration limited to V*S <= 12, "
                              f"got {sc.n_services * sc.n_slices}")


def _coverage_complete_mappings(sc: Scenario, bf: BeamformerSet,
                                ) -> list[SliceMapping]:
    """Every mapping that gives each service a nonempty slice set and maps
    no pair without a precoder, the services' slice subsets enumerated in
    lexicographic order.  Guard: n_services * n_slices <= 12."""
    check_mapping_space(sc)
    n_v, n_s = sc.n_services, sc.n_slices
    slice_subsets = [tuple(c)
                     for r in range(1, n_s + 1)
                     for c in itertools.combinations(range(n_s), r)]
    out = []
    for combo in itertools.product(slice_subsets, repeat=n_v):
        a = np.zeros((n_v, n_s), dtype=np.int8)
        for v, subset in enumerate(combo):
            a[v, list(subset)] = 1
        if not any((s, v) not in bf.w
                   for v in range(n_v) for s in range(n_s) if a[v, s]):
            out.append(SliceMapping(a=a))
    return out


def brute_force_mapping(sc: Scenario, ch: ChannelSet, bf: BeamformerSet,
                        power_grid_n: int = 64) -> BruteForceResult:
    """Best (mapping, power) pair by full enumeration.

    Every coverage-complete mapping is enumerated; for each one, powers
    run over a uniform per-UE grid on [0, p_max] and the best feasible
    efficiency is kept.  The grid has power_grid_n uniform steps
    (power_grid_n + 1 points including both endpoints) so that doubling
    power_grid_n refines the grid in place and can only improve the
    result.  Guards: n_services * n_slices <= 12, at most 4 UEs overall
    and at most GRID_POINTS_MAX grid points per mapping, checked before
    anything is allocated.  Feasibility uses the worst-case interference
    bound, matching the solver's constraint set.
    """
    if sc.n_ues > 4 or (power_grid_n + 1) ** sc.n_ues > GRID_POINTS_MAX:
        raise OracleSizeError(
            f"power grid limited to 4 UEs and {GRID_POINTS_MAX} points per "
            f"mapping, got {sc.n_ues} UEs x {power_grid_n + 1} points")
    if power_grid_n < 2:
        raise ValueError("power_grid_n must be >= 2")
    candidates = _coverage_complete_mappings(sc, bf)

    n_v = sc.n_services
    params = sc.params
    noise = params.bandwidth_hz * params.noise_psd
    grid = np.linspace(0.0, params.p_max, power_grid_n + 1)

    best_eta = -np.inf
    best_mapping = None
    best_powers = None
    tried = 0
    feasible_mappings = 0

    for mapping in candidates:
        tried += 1

        floors = _naive_delay_floors(sc, mapping)
        if floors is None:
            continue
        ibar = _naive_interference(sc, mapping, ch, bf)
        gains = np.array([
            _naive_beam_gain(sc, mapping, ch, bf, sv.id, pos, u)
            for sv in sc.services
            for pos, u in enumerate(sc.service_ue_indices(sv.id))])
        z = noise + ibar
        slot_w = _naive_slot_weights(sc, mapping, bf)
        sigma2 = np.array([sc.rus[rid].sigma_q2
                           for _s, _j, rid in sc.ru_slots()])
        with np.errstate(over="ignore"):    # beyond range: never binds
            fh_cap = sigma2 * np.exp2(params.c_max)
        slice_rows = {
            s: [u for v in range(n_v) if mapping.a[v, s]
                for u in sc.service_ue_indices(v)]
            for s in floors}

        # vectorized sweep of the full power grid, chunked by flat index
        # so the full mesh is never materialized
        n_pts = grid.size
        total = n_pts ** sc.n_ues
        shape = (n_pts,) * sc.n_ues
        found = False
        for start in range(0, total, 65536):
            idx = np.arange(start, min(total, start + 65536))
            chunk = grid[np.stack(np.unravel_index(idx, shape), axis=1)]
            rates = params.bandwidth_hz * np.log2(
                1.0 + chunk * gains / z)
            p_bar = chunk @ slot_w.T + sigma2
            ok = np.all(rates >= params.r_min * (1 - RTOL), axis=1)
            ok &= np.all(p_bar <= params.p_max * (1 + RTOL), axis=1)
            ok &= np.all(p_bar <= fh_cap * (1 + RTOL), axis=1)
            for s, floor in floors.items():
                ok &= (rates[:, slice_rows[s]].sum(axis=1)
                       >= floor * (1 - RTOL))
            if not ok.any():
                continue
            found = True
            eta = rates[ok].sum(axis=1) / p_bar[ok].sum(axis=1)
            j = int(np.argmax(eta))
            if eta[j] > best_eta:
                best_eta = float(eta[j])
                best_mapping = mapping
                best_powers = PowerAllocation(p=chunk[ok][j].copy())
        if found:
            feasible_mappings += 1

    return BruteForceResult(feasible=best_mapping is not None,
                            eta=(best_eta if best_mapping is not None
                                 else 0.0),
                            mapping=best_mapping, powers=best_powers,
                            mappings_tried=tried,
                            mappings_feasible=feasible_mappings)


@dataclass
class CertifiedMappingResult:
    feasible: bool
    eta: float                    # best efficiency found, bit/J
    upper: float                  # certified bound on the optimum, bit/J
    mapping: SliceMapping | None
    mappings_tried: int


def _meets_floors(sc: Scenario, mapping: SliceMapping,
                  floors: dict[int, float], rates: np.ndarray) -> bool:
    """Every UE's rate reaches r_min and every active slice's summed rate
    its delay floor (all services covered)."""
    ok = all(r >= sc.params.r_min * (1 - RTOL) for r in rates)
    for s, floor in floors.items():
        total = 0.0
        for v in range(sc.n_services):
            if mapping.a[v, s]:
                for u in sc.service_ue_indices(v):
                    total += rates[u]
        ok &= total >= floor * (1 - RTOL)
    return ok


def certified_mapping(sc: Scenario, ch: ChannelSet, bf: BeamformerSet,
                      ) -> CertifiedMappingResult:
    """Best mapping by full enumeration, as an interval [eta, upper].

    Every coverage-complete mapping is solved by `power.solve_power`, and
    the result is checked here: the efficiency is recomputed by naive
    summation, and the powers must pass the naive rate, slot power,
    fronthaul and delay constraints.  `eta` is the best efficiency that
    passes.  Each mapping also gets an upper bound.  With F(eta) = max
    R_tot - eta * P_tot over its feasible powers, `dual_bound` at the
    solve's last multipliers gives D >= F(eta) at any eta; it is taken
    at the recomputed efficiency, so that efficiency is within its own
    bound.  Every allocation pays at least P_floor, the summed sigma_q^2
    of every slot (P_tot charges them all), so a feasible one has R/P =
    eta + (R - eta P)/P <= eta + max(D, 0) / P_floor.  A mapping has no
    feasible allocation, and gets no bound, when an active slice cannot
    meet its delay budget at any rate, or when some rate floor fails
    with every UE at p_max (a UE's rate depends only on its own power
    under the interference bound).
    `upper` is the largest bound over the mappings, so the optimum lies
    in [eta, upper]; it is -inf when no mapping can be feasible.  Guard:
    n_services * n_slices <= 12, any number of UEs.
    """
    params = sc.params
    slots = sc.ru_slots()
    p_floor = sum(sc.rus[rid].sigma_q2 for _s, _j, rid in slots)
    top = PowerAllocation.uniform(sc, params.p_max)
    best = CertifiedMappingResult(feasible=False, eta=0.0, upper=-math.inf,
                                  mapping=None, mappings_tried=0)
    for mapping in _coverage_complete_mappings(sc, bf):
        best.mappings_tried += 1
        floors = _naive_delay_floors(sc, mapping)
        if floors is None:
            continue
        ibar = _naive_interference(sc, mapping, ch, bf)
        if not _meets_floors(sc, mapping, floors,
                             _naive_rates(sc, mapping, ch, bf, top, ibar)):
            continue
        res = solve_power(sc, mapping, ch, bf, SolverOptions(max_iters=2000))
        rates = _naive_rates(sc, mapping, ch, bf, res.powers, ibar)
        p_bar = _naive_slot_powers(sc, mapping, bf, res.powers)
        eta = float(rates.sum()) / float(p_bar.sum())
        bound = dual_bound(sc, mapping, ch, bf, eta, res.mults)
        best.upper = max(best.upper, eta + max(bound, 0.0) / p_floor)

        ok = _meets_floors(sc, mapping, floors, rates)
        ok &= all(0.0 <= p <= params.p_max for p in res.powers.p)
        for k, (_s, _j, rid) in enumerate(slots):
            ok &= p_bar[k] <= params.p_max * (1 + RTOL)
            ok &= (math.log2(p_bar[k] / sc.rus[rid].sigma_q2)
                   <= params.c_max * (1 + RTOL))
        if not ok:
            continue
        if not best.feasible or eta > best.eta:
            best.feasible, best.eta, best.mapping = True, eta, mapping
    return best


# --------------------------------------------------------------------------
# Exhaustive placement
# --------------------------------------------------------------------------


@dataclass
class ExhaustivePlacementResult:
    feasible: bool
    psi: float
    phi: float
    admitted_count: int
    y: np.ndarray | None
    leaves_checked: int = 0


def _members(mask: int) -> list[int]:
    return [d for d in range(mask.bit_length()) if mask >> d & 1]


def _hall_table(caps: np.ndarray, single_dc: bool,
                ) -> tuple[np.ndarray, np.ndarray]:
    """The DC subsets to check (bit d of a mask set when DC d is in it)
    and their load limits, one row of three resources per subset.

    Per resource, demands can be split over their rows within capacity
    exactly when every DC subset T holds the demand of the rows inside T
    (Hall's condition).  With single-DC rows the singletons suffice.
    """
    checked = [t for t in range(1, 1 << len(caps))
               if not single_dc or t & (t - 1) == 0]
    limit = np.array([caps[_members(t)].sum(axis=0) + 1e-9 * len(_members(t))
                      for t in checked]).reshape(-1, 3)
    return np.array(checked), limit


def _row_adds(checked: np.ndarray, masks: list[int],
              demand: np.ndarray) -> np.ndarray:
    """The loads each row adds, shape (rows, subsets, 3): `demand` on the
    checked subsets holding all of the row's DCs, 0.0 elsewhere (row 0,
    a dropped slice, adds nothing)."""
    m = np.array(masks)[:, None]
    inside = ((checked & m) == m) & (m != 0)
    return np.where(inside[:, :, None], demand, 0.0)


def _children(loads: np.ndarray, adds: np.ndarray, limit: np.ndarray,
              ) -> tuple[np.ndarray, list[bool]]:
    """Every row's loads after adding it, and whether each stays within
    all limits.  Adding 0.0 leaves a load unchanged bit for bit."""
    children = loads + adds
    return children, (children <= limit).all(axis=(1, 2)).tolist()


def exhaustive_placement(sc: Scenario, mapping: SliceMapping,
                         weights: PlacementWeights = PlacementWeights(),
                         nu: float | None = None, single_dc: bool = False,
                         require_all: bool = True,
                         ) -> ExhaustivePlacementResult:
    """Optimal placement of active slices by exact branch-and-bound.

    By default every active slice must be hosted somewhere (the
    coupling constraint of the placement problem) and the result
    minimizes psi = phi - nu * admission credit; reporting infeasible
    when capacities cannot host all active slices.  With
    `require_all=False` slices may be dropped, which is only meaningful
    together with nu > 0 and single_dc (admission-maximizing mode).

    A slice's row is the set of DCs hosting (part of) it: one DC that
    holds its whole demand or, when splitting is allowed, any DC subset
    whose pooled capacity covers it.  An assignment is feasible when,
    per resource, every DC subset holds the demand of the rows inside it
    (Hall's condition for splitting the demands over the rows).  The
    search assigns slices depth first, largest weighted demand first.
    Each node adds every row of its slice to the subset loads in one
    array step and keeps the rows whose loads stay within the limits.
    A subtree is cut when its psi lower bound (psi fixed so far, idle
    power of the DCs already open, and each remaining slice's cheapest
    row) exceeds the best psi found by more than 1e-9 relative, or when
    that bound is not below the best psi and its tie-break key (bits
    fixed so far plus each remaining slice's smallest) is not below the
    best one's: no leaf under it can win on psi or on the tie, which goes
    to the lexicographically smallest assignment matrix.  (The bound is
    summed in search order, so a leaf cut by the second rule could beat
    the best only by the bound's rounding.)  psi and phi are
    summed over slices in ascending id, independent of the search order;
    `leaves_checked` counts the feasible complete assignments visited.
    Guards: <= 10 active slices, <= 5 data centers, and nu > 0 requires
    single_dc (the credit counts hosting pairs, and a split row may give
    a DC no share, so the optimum would list every slice on every DC).
    """
    if nu is None:
        nu = sc.params.nu
    active = [sl.id for sl in sc.slices
              if any(mapping.a[v, sl.id] for v in range(sc.n_services))]
    n_dcs = len(sc.dcs)
    if len(active) > 10:
        raise OracleSizeError(
            f"placement enumeration limited to 10 active slices, "
            f"got {len(active)}")
    if n_dcs > 5:
        raise OracleSizeError(
            f"placement enumeration limited to 5 DCs, got {n_dcs}")
    if nu > 0 and not single_dc:
        raise OracleSizeError(
            "admission-weighted search requires single_dc placements")

    infeasible = ExhaustivePlacementResult(
        feasible=False, psi=math.inf, phi=math.inf, admitted_count=0, y=None)
    demands = {s: np.array(sc.slices[s].total_demand()) for s in active}
    omega = {s: float(weights.combine(*sc.slices[s].total_demand()))
             for s in active}
    services = mapping.a.sum(axis=0)
    caps = np.array([[dc.memory_gb, dc.storage_tb, dc.cpu_ghz]
                     for dc in sc.dcs])
    unit = [dc.phi_per_unit for dc in sc.dcs]
    idle = [dc.phi_idle for dc in sc.dcs]
    members = [_members(m) for m in range(1 << n_dcs)]
    checked, limit = _hall_table(caps, single_dc)
    masks = ([1 << d for d in range(n_dcs)] if single_dc
             else list(range(1, 1 << n_dcs)))
    n_bits = sc.n_slices * n_dcs

    def cost(s: int, m: int) -> float:
        return (sum(unit[d] for d in members[m]) * omega[s]
                - nu * len(members[m]) * float(services[s]))

    # per slice: its rows, cheapest first, as (cost, mask, phi terms,
    # credit, tie-break bits of y read first-bit-highest), and the loads
    # each row adds
    pooled = np.array([caps[members[m]].sum(axis=0) for m in masks])
    rows_of, adds = {}, {}
    for s in active:
        covers = np.all(demands[s] <= pooled + 1e-9, axis=1).tolist()
        rows = [m for m, ok in zip(masks, covers) if ok]
        if not require_all:
            rows.append(0)
        elif not rows:
            return infeasible
        rows_of[s] = sorted(((cost(s, m), m,
                             [unit[d] * omega[s] for d in members[m]],
                             len(members[m]) * float(services[s]),
                             sum(1 << n_bits - 1 - s * n_dcs - d
                                 for d in members[m])) for m in rows),
                            key=lambda row: row[0])
        adds[s] = _row_adds(checked, [row[1] for row in rows_of[s]],
                            demands[s])
    if require_all and active and np.any(
            sum(demands.values()) > caps.sum(axis=0) + 1e-9 * n_dcs):
        return infeasible

    order = sorted(active, key=lambda s: (-omega[s], s))
    # per depth: the cheapest cost and the smallest tie-break bits of the
    # slices from there on (the slices' bits are disjoint)
    rest = [0.0] * (len(order) + 1)
    rest_key = [0] * (len(order) + 1)
    for i in range(len(order) - 1, -1, -1):
        rest[i] = rest[i + 1] + rows_of[order[i]][0][0]
        rest_key[i] = rest_key[i + 1] + min(r[4] for r in rows_of[order[i]])
    idle_of = [sum(idle[d] for d in members[m]) for m in range(1 << n_dcs)]
    choice: dict[int, tuple] = {}
    best: list = []          # psi, tie-break key, phi, choice of the incumbent
    cut = math.inf           # psi above which a subtree is cut
    leaves = 0

    def leaf(opened: int, key: int) -> None:
        nonlocal leaves, cut
        leaves += 1
        phi = credit = 0.0
        for s in active:
            row = choice[s]
            for term in row[2]:
                phi += term
            credit += row[3]
        phi += idle_of[opened]
        psi = phi - nu * credit
        if best and (psi > best[0] or psi == best[0] and key >= best[1]):
            return
        best[:] = [psi, key, phi, dict(choice)]
        cut = psi + 1e-9 * max(1.0, abs(psi))

    def visit(i: int, loads: np.ndarray, fixed: float, opened: int,
              key: int) -> None:
        if i == len(order):
            leaf(opened, key)
            return
        s = order[i]
        children, fits = _children(loads, adds[s], limit)
        for r, (row, ok) in enumerate(zip(rows_of[s], fits)):
            c, m = row[0], row[1]
            bound = fixed + c + idle_of[opened | m] + rest[i + 1]
            if bound > cut or not ok or best and bound >= best[0] and (
                    key + row[4] + rest_key[i + 1] >= best[1]):
                continue
            choice[s] = row
            visit(i + 1, children[r], fixed + c, opened | m, key + row[4])

    visit(0, np.zeros_like(limit), 0.0, 0, 0)
    if not best:
        return infeasible
    psi, _key, phi, won = best
    y = np.zeros((sc.n_slices, n_dcs), dtype=np.int8)
    for s, row in won.items():
        y[s, members[row[1]]] = 1
    return ExhaustivePlacementResult(
        feasible=True, psi=psi, phi=phi,
        admitted_count=sum(1 for row in won.values() if row[1]), y=y,
        leaves_checked=leaves)


# --------------------------------------------------------------------------
# Queueing simulation
# --------------------------------------------------------------------------


def mm1_simulate(arrival_rate: float, service_rate: float,
                 n_arrivals: int = 1_000_000, seed: int = 0) -> float:
    """Mean sojourn time of an M/M/1 FIFO queue by simulation.

    Single-server dynamics via Lindley's waiting-time recursion: each
    customer's wait is the previous customer's wait plus service, minus
    the gap between their arrivals, floored at zero; sojourn is wait plus
    own service.  Customers come in slabs of MM1_SLAB = (m, w): column j
    of a slab holds m consecutive customers, so the customer order is the
    column-major flattening.  A tail of r customers is an (m, r // m)
    slab and then a one-row slab of r % m.  Each slab draws its gaps
    (each the gap to the next arrival) and then its services, each by
    inversion: uniforms U in [0, 1), then -log(1 - U) times the mean.
    Within a column, with C the running sum of (service - gap) from 0 and
    M the running minimum of C, a customer entering behind a wait v waits
    max(v + C, C - M); both run down the rows one vector step at a time.
    A column so maps v to max(v + a, a - min M) (a its sum), and the same
    closed form one level up carries the wait across the columns.  Memory
    is about three slabs whatever n_arrivals.  Requires a stable queue and
    an integer of at least 1e5 arrivals for a meaningful average.
    """
    if not (arrival_rate > 0 and service_rate > 0):
        raise ValueError(f"rates must be positive, got {arrival_rate!r} "
                         f"and {service_rate!r}")
    if arrival_rate >= service_rate:
        raise ValueError(
            f"unstable queue: arrival rate {arrival_rate} >= service rate "
            f"{service_rate}")
    if not isinstance(n_arrivals, (int, np.integer)):
        raise ValueError(f"n_arrivals must be an integer, got {n_arrivals!r}")
    if n_arrivals < 100_000:
        raise ValueError("need at least 1e5 arrivals")
    rng = np.random.default_rng(seed)
    m, w = MM1_SLAB
    full, r = divmod(n_arrivals, m * w)
    slabs = np.empty((3, m * w))
    wait = total = 0.0                  # the first customer never waits
    for shape in itertools.chain(itertools.repeat((m, w), full),
                                 [(m, r // m), (1, r % m)]):
        size = shape[0] * shape[1]
        if not size:
            continue
        step, service, low = (a[:size].reshape(shape) for a in slabs)
        for out, rate in ((step, arrival_rate), (service, service_rate)):
            rng.random(out=out)
            np.subtract(1.0, out, out=out)
            np.log(out, out=out)
            out *= -1.0 / rate
        total += float(service.sum())
        np.subtract(service, step, out=step)
        # row i of step becomes C of the column's customer i + 1 (the sum
        # over customers 0..i), and row i of low min(0, step[0..i])
        np.minimum(step[0], 0.0, out=low[0])
        for i in range(1, len(step)):
            np.add(step[i - 1], step[i], out=step[i])
            np.minimum(low[i - 1], step[i], out=low[i])
        reach = np.cumsum(step[-1])
        exits = reach + np.maximum.accumulate(
            np.maximum(step[-1] - low[-1] - reach, wait))
        enter = np.concatenate(([wait], exits[:-1]))
        wait = float(exits[-1])
        # row 0 waits `enter`, row i + 1 waits step[i] - min(low[i], -enter)
        np.minimum(low[:-1], -enter, out=low[:-1])
        total += float(enter.sum() + step[:-1].sum() - low[:-1].sum())
    return total / n_arrivals
