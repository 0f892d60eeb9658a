"""Energy-efficient power allocation for a mapped system.

The energy-efficiency objective is a ratio (total rate over total RU
power), maximized by the classic parametric trick: for a parameter eta,
maximize F(eta) = R_tot - eta * P_tot; the optimal eta is the unique
root of F, and iterating eta <- R_tot/P_tot converges monotonically.

The inner maximization is Lagrangian: constraints (per-RU power cap,
fronthaul cap converted to a power cap, per-UE minimum rate, per-slice
delay budget linearized into a rate floor) get nonnegative multipliers,
the stationarity condition yields a closed-form water-filling power per
UE, and the multipliers follow a projected subgradient ascent with a
diminishing step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .scenario import Scenario
from .radio import (BeamformerSet, ChannelSet, PowerAllocation, SliceMapping,
                    beam_gains, build_beamformers, build_channels,
                    interference_upper_bound, ru_powers_all, slot_sigma,
                    slot_weight_matrix, ue_rates)
from .queueing import layer_delays, slice_arrival_rate
from .slicing import MappingResult, check_feasibility, map_slices_to_services


class DegenerateCoefficientError(ValueError):
    """Closed-form power is undefined for a UE (no gain or no price)."""


class InfeasibleDelayError(ValueError):
    """A slice's VNF layers alone exceed the delay budget."""


class InfeasibleMappingError(RuntimeError):
    """The mapping sweep left services uncovered."""

    def __init__(self, result: MappingResult):
        self.result = result
        super().__init__(
            "no feasible mapping covers services "
            f"{result.uncovered_services}")


@dataclass
class Multipliers:
    """Nonnegative Lagrange multipliers, one block per constraint family."""

    rate_ue: np.ndarray       # per-UE minimum-rate multipliers
    delay_ue: np.ndarray      # per-UE linearized-delay multipliers
    ru_cap_slot: np.ndarray   # per-(slice, RU) power-cap multipliers
    fronthaul_slot: np.ndarray  # per-(slice, RU) fronthaul-cap multipliers

    @classmethod
    def zeros(cls, sc: Scenario) -> "Multipliers":
        n_slots = len(sc.ru_slots())
        return cls(rate_ue=np.zeros(sc.n_ues), delay_ue=np.zeros(sc.n_ues),
                   ru_cap_slot=np.zeros(n_slots),
                   fronthaul_slot=np.zeros(n_slots))

    def copy(self) -> "Multipliers":
        return Multipliers(self.rate_ue.copy(), self.delay_ue.copy(),
                           self.ru_cap_slot.copy(), self.fronthaul_slot.copy())


@dataclass
class SolverOptions:
    s0: float = 0.1               # base subgradient step
    max_iters: int = 5000         # inner iteration cap
    tol: float = 1e-6             # multiplier-movement stop threshold
    eps_eta: float = 1e-6         # outer stop: |F| <= eps_eta * R_tot
    i_max: int = 50               # outer iteration cap
    constraint_rtol: float = 1e-6  # feasibility slack, relative


def delay_linearization(sc: Scenario, mapping: SliceMapping,
                        ) -> dict[int, float]:
    """Rate floor per active slice that guarantees its delay budget.

    The two VNF-layer delays are power-independent, so the budget minus
    them bounds the transmission delay, which converts into a floor on
    the slice's summed rate: 1/(budget - layer delays) + offered load in
    bits.  Slices serving no service are excluded.  Raises if a slice's
    layers alone eat the budget.
    """
    out: dict[int, float] = {}
    for sl in sc.slices:
        if not mapping.services_on_slice(sl.id):
            continue
        alpha = slice_arrival_rate(sc, mapping, sl.id)
        du, cu = layer_delays(sc, alpha, sl.id)
        slack = sc.params.d_max - du - cu
        if slack <= 0:
            raise InfeasibleDelayError(
                f"slice {sl.id}: VNF layers need {du + cu:.6g} s of the "
                f"{sc.params.d_max:.6g} s budget")
        out[sl.id] = 1.0 / slack + alpha * sc.params.packet_size_bits
    return out


def closed_form_power(sc: Scenario, eta: float, mults: Multipliers,
                      gains: np.ndarray, price_weights: np.ndarray,
                      denom: np.ndarray, active: np.ndarray) -> np.ndarray:
    """Stationary-point power per UE given multipliers and eta.

    For each UE the Lagrangian is concave in its own power with a
    water-filling maximizer: with rate weight y = (1 + rate and delay
    multipliers) * B/ln2, beam gain g, noise-plus-interference z
    (`denom`), and power price x = sum over (slice, RU) slots of (cap
    multiplier + fronthaul multiplier + eta) * |w|^2 (`price_weights`
    holds |w|^2 per slot and UE), the maximizer is
    max(0, (y*g - x*z) / (x*g)), clipped at p_max.

    UEs outside `active` (those of uncovered services) get zero power,
    and an active UE with zero price rides the cap.  An active UE with
    zero beam gain has no finite maximizer and raises
    DegenerateCoefficientError.
    """
    params = sc.params
    if np.any(active & (gains <= 0)):
        u = int(np.flatnonzero(active & (gains <= 0))[0])
        raise DegenerateCoefficientError(
            f"UE index {u} has no beam gain; the UE is effectively unmapped")
    price = price_weights.T @ (mults.ru_cap_slot + mults.fronthaul_slot + eta)
    y = ((1.0 + mults.rate_ue + mults.delay_ue)
         * params.bandwidth_hz / math.log(2.0))
    p = np.zeros(sc.n_ues)
    good = active & (price > 0)
    p[good] = np.maximum(
        0.0, (y[good] * gains[good] - price[good] * denom[good])
        / (price[good] * gains[good]))
    p[active & (price <= 0)] = params.p_max
    return np.minimum(p, params.p_max)


@dataclass
class SubgradientResult:
    powers: PowerAllocation
    mults: Multipliers
    converged: bool
    iterations: int
    feasible: bool
    f_value: float                # R_tot - eta * P_tot at the returned powers
    max_violation: float          # largest normalized constraint violation
    violated: list[str] = field(default_factory=list)


def _violations(sc: Scenario, rates: np.ndarray, p_bar: np.ndarray,
                fh_power_cap: np.ndarray, floors: np.ndarray,
                member: np.ndarray, active_ue: np.ndarray,
                ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray,
                           float, list[str]]:
    """Normalized constraint violations for multiplier updates.

    `floors` holds the delay rate floor of each active slice and
    `member[u, j]` is 1 when UE u is served by the j-th of them.
    Returns per-family signed violations (positive = violated) plus the
    overall maximum and labels of the violated families.
    """
    params = sc.params
    v_rate = np.where(active_ue, (params.r_min - rates) / params.r_min, 0.0)
    v_cap = (p_bar - params.p_max) / params.p_max
    v_fh = (p_bar - fh_power_cap) / params.p_max
    v_delay = ((floors - rates[:, None]) / params.r_min * member).sum(axis=1)
    slice_viol = ((floors - rates @ member) / floors).max(initial=0.0)

    worst = {
        "minimum rate": float(v_rate.max(initial=0.0)),
        "RU power cap": float(v_cap.max(initial=0.0)),
        "fronthaul cap": float(v_fh.max(initial=0.0)),
        "delay budget": float(slice_viol),
    }
    max_violation = max(worst.values())
    violated = [k for k, val in worst.items() if val > 0]
    return v_rate, v_delay, v_cap, v_fh, max_violation, violated


def subgradient_solve(sc: Scenario, mapping: SliceMapping, ch: ChannelSet,
                      bf: BeamformerSet, ibar: np.ndarray, eta: float,
                      opts: SolverOptions = SolverOptions(),
                      mults: Multipliers | None = None,
                      seed_powers: PowerAllocation | None = None,
                      ) -> SubgradientResult:
    """Maximize R_tot - eta * P_tot over powers via dual ascent.

    Each iteration recomputes the closed-form primal from the current
    multipliers, then moves every multiplier along its normalized
    constraint violation with step s0/sqrt(t) (power-cap families are
    additionally scaled to the ratio's magnitude so they can counter
    eta in the price term).  Stops when multipliers settle or the
    iteration cap hits; returns the best feasible iterate seen, falling
    back to the least-violating one.

    Because the rate of a UE depends only on its own power once the
    interference bound is fixed, every primal iterate is also repaired
    by lifting it onto the exact rate and delay floors before being
    considered; when the RU caps are slack this repaired point is the
    constrained maximizer itself, so the dual loop only has real work
    to do when a cap binds.
    """
    params = sc.params
    mults = mults.copy() if mults is not None else Multipliers.zeros(sc)
    gains = beam_gains(sc, mapping, ch, bf)
    noise = params.bandwidth_hz * params.noise_psd
    denom = noise + ibar
    sigma2 = slot_sigma(sc)
    weights = slot_weight_matrix(sc, mapping, bf)
    fh_power_cap = sigma2 * np.exp2(params.c_max)
    dfrak = delay_linearization(sc, mapping)
    floors = np.array(list(dfrak.values()), dtype=float)
    # member[u, j] = 1 when UE u is served by the j-th delay-floored slice
    member = mapping.a[bf.ue_service][:, list(dfrak)].astype(float)
    active_ue = mapping.covered()[bf.ue_service]
    ok_gain = active_ue & (gains > 0)

    def evaluate(p_vec: np.ndarray):
        rates = np.where(ok_gain,
                         params.bandwidth_hz
                         * np.log2(1.0 + p_vec * gains / denom), 0.0)
        p_bar = weights @ p_vec + sigma2
        return rates, p_bar

    # exact per-UE power floors for the minimum rate (rate depends only
    # on the UE's own power under the fixed interference bound)
    rho_min = 2.0 ** (params.r_min / params.bandwidth_hz) - 1.0
    p_floor = np.zeros(sc.n_ues)
    p_floor[ok_gain] = rho_min * denom[ok_gain] / gains[ok_gain]

    def repair(p_vec: np.ndarray) -> np.ndarray:
        """Lift a primal point onto the rate and delay floors, one slice
        at a time in slice order (a UE on two slices is lifted twice)."""
        p2 = np.maximum(p_vec, p_floor)
        for idx, floor in zip(member.T > 0, floors):
            r_now = np.where(
                gains[idx] > 0,
                params.bandwidth_hz * np.log2(1.0 + p2[idx] * gains[idx]
                                              / denom[idx]), 0.0)
            deficit = floor - float(r_now.sum())
            if deficit > 0 and r_now.size and np.all(gains[idx] > 0):
                target = r_now + deficit / r_now.size
                p2[idx] = (denom[idx] / gains[idx]
                           * (np.exp2(target / params.bandwidth_hz) - 1.0))
        return np.minimum(p2, params.p_max)

    # Reference magnitude for the power-cap multiplier families: they
    # add to eta inside the price term, so their useful scale is the
    # rate/power ratio itself.
    p_ref = np.where(active_ue, params.p_max, 0.0)
    rates_ref, p_bar_ref = evaluate(p_ref)
    eta_ref = max(eta, float(rates_ref.sum()) / float(p_bar_ref.sum()), 1.0)

    best = None   # (key, powers, mults, feasible, f, violation, labels)

    def consider(p_vec, mults_now, rates, p_bar):
        """Keep the point if it beats the best so far; returns its
        violations."""
        nonlocal best
        viol = _violations(sc, rates, p_bar, fh_power_cap, floors, member,
                           active_ue)
        *_, max_violation, violated = viol
        f_val = float(rates.sum()) - eta * float(p_bar.sum())
        feasible = max_violation <= opts.constraint_rtol
        key = (0, -f_val) if feasible else (1, max_violation)
        if best is None or key < best[0]:
            best = (key, p_vec.copy(), mults_now.copy(), feasible, f_val,
                    max_violation, violated)
        return viol

    if seed_powers is not None:
        consider(seed_powers.p, mults, *evaluate(seed_powers.p))

    converged = False
    t = 0
    def move(old: np.ndarray, bump: np.ndarray) -> tuple[np.ndarray, float]:
        new = np.maximum(0.0, old + bump)
        delta = float(np.max(np.abs(new - old) / (1.0 + np.abs(old)),
                             initial=0.0))
        return new, delta

    for t in range(1, opts.max_iters + 1):
        p = closed_form_power(sc, eta, mults, gains, bf.w2, denom, active_ue)
        v_rate, v_delay, v_cap, v_fh, _mv, _lab = consider(
            p, mults, *evaluate(p))
        p_rep = repair(p)
        if not np.array_equal(p_rep, p):
            consider(p_rep, mults, *evaluate(p_rep))

        step = opts.s0 / math.sqrt(t)
        mults.rate_ue, d1 = move(mults.rate_ue, step * v_rate)
        mults.delay_ue, d2 = move(mults.delay_ue, step * v_delay)
        mults.ru_cap_slot, d3 = move(mults.ru_cap_slot,
                                     step * eta_ref * v_cap)
        mults.fronthaul_slot, d4 = move(mults.fronthaul_slot,
                                        step * eta_ref * v_fh)
        if max(d1, d2, d3, d4) < opts.tol:
            converged = True
            break

    _key, p_best, m_best, feasible, f_val, max_violation, violated = best
    return SubgradientResult(powers=PowerAllocation(p=p_best), mults=m_best,
                             converged=converged, iterations=t,
                             feasible=feasible, f_value=f_val,
                             max_violation=max_violation, violated=violated)


def dinkelbach_f(sc: Scenario, mapping: SliceMapping, ch: ChannelSet,
                 bf: BeamformerSet, powers: PowerAllocation, eta: float,
                 ibar: np.ndarray | None = None) -> float:
    """Parametric objective R_tot - eta * P_tot at a given allocation."""
    if ibar is None:
        ibar = interference_upper_bound(sc, mapping, ch, bf)
    rates = ue_rates(sc, mapping, ch, bf, powers, ibar)
    p_tot = float(ru_powers_all(sc, mapping, bf, powers).sum())
    return float(rates.sum()) - eta * p_tot


@dataclass
class TraceRow:
    iteration: int
    eta: float
    f_value: float
    max_violation: float
    inner_iterations: int


@dataclass
class JointResult:
    mapping_result: MappingResult
    powers: PowerAllocation
    eta: float
    r_tot: float
    p_tot: float
    converged: bool
    iterations: int
    trace: list[TraceRow]
    feasible: bool
    violations: list[str]

    @property
    def mapping(self) -> SliceMapping:
        return self.mapping_result.mapping


def solve_joint(sc: Scenario, opts: SolverOptions = SolverOptions(),
                ch: ChannelSet | None = None,
                bf: BeamformerSet | None = None,
                mapping_result: MappingResult | None = None) -> JointResult:
    """Full pipeline: map slices, then alternate ratio updates and power
    solves until the parametric objective crosses zero.

    The mapping is computed once (its sweep is deterministic and does
    not depend on eta or the powers).  Multipliers are warm-started
    across outer iterations and each inner solve is seeded with the
    previous allocation, which keeps the eta sequence nondecreasing.

    Raises InfeasibleMappingError when any service ends up uncovered.
    """
    if ch is None:
        ch = build_channels(sc)
    if bf is None:
        bf = build_beamformers(sc, ch)
    if mapping_result is None:
        mapping_result = map_slices_to_services(sc, ch, bf)
    if mapping_result.uncovered_services:
        raise InfeasibleMappingError(mapping_result)
    mapping = mapping_result.mapping

    ibar = interference_upper_bound(sc, mapping, ch, bf)
    eta = 0.0
    powers = PowerAllocation(p=np.where(mapping.covered()[bf.ue_service],
                                        sc.params.p_max, 0.0))
    mults = Multipliers.zeros(sc)
    trace: list[TraceRow] = []
    converged = False
    for i in range(1, opts.i_max + 1):
        last = subgradient_solve(sc, mapping, ch, bf, ibar, eta, opts,
                                 mults=mults, seed_powers=powers)
        mults = last.mults
        powers = last.powers
        rates = ue_rates(sc, mapping, ch, bf, powers, ibar)
        r_tot = float(rates.sum())
        p_tot = float(ru_powers_all(sc, mapping, bf, powers).sum())
        f_val = r_tot - eta * p_tot
        trace.append(TraceRow(iteration=i, eta=eta, f_value=f_val,
                              max_violation=last.max_violation,
                              inner_iterations=last.iterations))
        if abs(f_val) <= opts.eps_eta * max(r_tot, 1.0):
            converged = True
            break
        if p_tot > 0:
            eta = max(eta, r_tot / p_tot)

    final = check_feasibility(sc, ch, bf, mapping, powers)
    return JointResult(mapping_result=mapping_result, powers=powers,
                       eta=(r_tot / p_tot if p_tot > 0 else 0.0),
                       r_tot=r_tot, p_tot=p_tot, converged=converged,
                       iterations=len(trace), trace=trace,
                       feasible=final.ok and last.feasible,
                       violations=final.violations)
