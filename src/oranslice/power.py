"""Energy-efficient power allocation for a mapped system.

The energy-efficiency objective is a ratio (total rate over total RU
power), maximized by the parametric trick: for a parameter eta, maximize
F(eta) = R_tot - eta * P_tot; the optimal eta is the root of F, and
eta <- R_tot/P_tot converges superlinearly when each inner maximization
is exact (Dinkelbach, 1967).  With eta and the interference bound fixed
the inner problem is concave (rates, the mapping-gated power charge, the
per-UE rate floors, per-slot RU and fronthaul caps, per-slice delay rate
floors) and is solved by a log-barrier interior-point method (Boyd &
Vandenberghe, Convex Optimization, 2004, ch. 11) whose duals certify it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .scenario import Scenario
from .radio import (BeamformerSet, ChannelSet, PowerAllocation, SliceMapping,
                    beam_gains, build_beamformers, build_channels,
                    interference_upper_bound, ru_powers_all,
                    slot_weight_matrix, ue_rates)
from .queueing import UnstableQueueError, layer_delays, slice_loads
from .slicing import MappingResult, check_feasibility, map_slices_to_services

GAP_RTOL = 1e-8      # barrier stop: m/t <= GAP_RTOL * summed rate in nats
CENTER_TOL = 1e-6    # centering stop: half the squared Newton decrement
T_STEP = 20.0        # barrier parameter growth per centering
EPS_ETA = 1e-6       # outer stop: |F| and gap <= EPS_ETA * R_tot
CONSTRAINT_RTOL = 1e-6   # feasibility slack, relative


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

    rate_ue: np.ndarray       # per-UE minimum rate, r_u >= r_min
    ru_cap_slot: np.ndarray   # per-(slice, RU) power cap (RU or fronthaul)
    delay_slice: np.ndarray   # per-slice delay rate floor (0 when inactive)

    @classmethod
    def zeros(cls, sc: Scenario) -> "Multipliers":
        return cls(rate_ue=np.zeros(sc.n_ues),
                   ru_cap_slot=np.zeros(len(sc.ru_slots())),
                   delay_slice=np.zeros(sc.n_slices))


@dataclass
class SolverOptions:
    max_iters: int = 5000         # Newton-step cap per inner solve
    i_max: int = 50               # outer iteration cap


def delay_linearization(sc: Scenario, mapping: SliceMapping,
                        ) -> dict[int, float]:
    """Rate floor per active slice that guarantees its delay budget.

    The two VNF-layer delays are power-independent, so the budget minus
    them bounds the transmission delay, which converts into a floor on
    the slice's summed rate: 1/(budget - layer delays) + offered load in
    bits.  Slices serving no service are excluded.  Raises, for the
    lowest such slice, if an active slice's layers are unstable or alone
    eat the budget.
    """
    served = mapping.a[sc.ue_service]
    alpha = slice_loads(sc, served)
    du, cu, unstable = layer_delays(sc, alpha)
    slack = sc.params.d_max - du - cu
    active = np.flatnonzero(served.any(axis=0))
    bad = active[np.isin(active, list(unstable)) | (slack[active] <= 0)]
    if bad.size:
        s = int(bad[0])
        if s in unstable:
            raise UnstableQueueError(unstable[s])
        raise InfeasibleDelayError(
            f"slice {s}: VNF layers need {du[s] + cu[s]:.6g} s of the "
            f"{sc.params.d_max:.6g} s budget")
    floors = 1.0 / slack[active] + alpha[active] * sc.params.packet_size_bits
    return dict(zip(active.tolist(), floors))


def closed_form_power(sc: Scenario, eta: float, mults: Multipliers,
                      gains: np.ndarray, price_weights: np.ndarray,
                      denom: np.ndarray, served: np.ndarray) -> np.ndarray:
    """Maximizer over [0, p_max] of each UE's Lagrangian term.

    With rate weight y = (1 + the UE's rate multiplier + the delay
    multipliers of the slices serving it) * B/ln2, beam gain g,
    noise-plus-interference z (`denom`) and price x = sum over slots of
    (cap multiplier + eta) * gated |w|^2 (`price_weights`), the
    water-filling maximizer is max(0, (y*g - x*z) / (x*g)), clipped at
    p_max.  `served[u, s]` is 1 when slice s serves UE u's service;
    unserved UEs get zero power, a served UE with zero price rides the
    cap, and one with zero beam gain raises DegenerateCoefficientError.
    """
    params = sc.params
    active = served.any(axis=1)
    if np.any(active & (gains <= 0)):
        u = int(np.flatnonzero(active & (gains <= 0))[0])
        raise DegenerateCoefficientError(
            f"UE index {u} has no beam gain; the UE is effectively unmapped")
    price = price_weights.T @ (mults.ru_cap_slot + eta)
    y = ((1.0 + mults.rate_ue + served @ mults.delay_slice)
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
    converged: bool               # the barrier stopped on its duality gap
    iterations: int               # Newton steps, phase I included
    feasible: bool
    f_value: float                # R_tot - eta * P_tot at the returned powers
    max_violation: float          # largest normalized constraint violation
    gap: float                    # dual bound minus f_value, bit/s
    stop: str                     # "gap", "cap" or "infeasible"
    violated: list[str] = field(default_factory=list)


def _central_path(x, lin, rate_w, prob, budget):
    """Log-barrier method, as a generator: maximizes lin @ x + rate_w *
    sum(rho), rho_u = ln(1 + q_u p_u), subject to rho_u > rho_min,
    M @ rho > floor, W @ p < b * (1 - s), p < p_max and s < 1, with
    x = p (phase II) or x = (p, s) (phase I).  Yields (x, t, duals 1/(t *
    slack) in that constraint order, Newton steps) at each centred point,
    then grows t by T_STEP; returns once `budget` steps are spent.
    """
    q, rho_min, M, floor, W, b, p_max = prob
    n_p = q.size
    hi = np.where(np.arange(x.size) < n_p, p_max, 1.0)
    cuts = np.cumsum([n_p, len(floor), len(b)])

    def slacks(x):
        rho = np.log1p(q * x[:n_p])
        return rho, np.concatenate([rho - rho_min, M @ rho - floor,
                                    b * (1.0 - x[n_p:].sum()) - W @ x[:n_p],
                                    hi - x])

    def gain(rho, sl, dx):
        """Barrier increase along dx, formed from differences."""
        with np.errstate(divide="ignore", invalid="ignore"):
            drho = np.log1p(q * dx[:n_p] * np.exp(-rho))
            dsl = np.concatenate([drho, M @ drho, -b * dx[n_p:].sum()
                                  - W @ dx[:n_p], -dx])
            out = (t * (lin @ dx + rate_w * drho.sum())
                   + np.log1p(dsl / sl).sum())
        return out if np.isfinite(out) else -np.inf

    t, steps = 1.0, 0
    while True:
        while steps < budget:
            rho, sl = slacks(x)
            d1 = q * np.exp(-rho)                 # d rho / d p
            ue, sli, cap, box = np.split(1.0 / sl, cuts)
            wsum = t * rate_w + ue + M.T @ sli
            grad = t * lin - box
            grad[:n_p] += wsum * d1 - W.T @ cap
            grad[n_p:] -= b @ cap
            # -Hessian = diag(d) + R^T R with one row of R per slice
            # floor and kept cap; solved as D^1/2 (I + Rs^T Rs) D^1/2,
            # through the smaller of the two Gram matrices
            d = box ** 2
            d[:n_p] += wsum * d1 ** 2 + (ue * d1) ** 2
            rows = np.zeros((cuts[2] - n_p, x.size))
            rows[:len(floor), :n_p] = M * d1
            rows[len(floor):, :n_p] = W
            rows[len(floor):, n_p:] = b[:, None]
            rs = rows * np.concatenate([sli, cap])[:, None] / np.sqrt(d)
            gs = grad / np.sqrt(d)
            if len(rs) < x.size:
                gs -= rs.T @ np.linalg.solve(np.eye(len(rs)) + rs @ rs.T,
                                             rs @ gs)
            else:
                gs = np.linalg.solve(np.eye(x.size) + rs.T @ rs, gs)
            dx = gs / np.sqrt(d)
            lam2 = float(grad @ dx)
            alpha = 1.0
            while (lam2 > 2 * CENTER_TOL and alpha > 1e-10
                   and gain(rho, sl, alpha * dx) < 0.25 * alpha * lam2):
                alpha /= 2
            if lam2 <= 2 * CENTER_TOL or alpha <= 1e-10:
                break
            x = x + alpha * dx
            steps += 1
        yield x, t, 1.0 / (t * slacks(x)[1]), steps
        if steps >= budget:
            return
        t *= T_STEP


def subgradient_solve(sc: Scenario, mapping: SliceMapping, ch: ChannelSet,
                      bf: BeamformerSet, ibar: np.ndarray, eta: float,
                      opts: SolverOptions = SolverOptions(),
                      ) -> SubgradientResult:
    """Maximize R_tot - eta * P_tot over the powers, with a certificate.

    Phase I (floors only rise with power): step from p_max towards the
    per-UE floor powers while every slice floor holds; if a slot cap
    fails there, maximize s with the caps shrunk to b * (1 - s) until
    s > 0 or the barrier bound rules it out ("infeasible").  Phase II
    runs until m/t <= GAP_RTOL * summed rate ("gap") or the Newton-step
    cap ("cap").  Slot rows that cannot bind in the box are dropped.
    `gap` is the Lagrangian dual bound at the returned barrier duals
    (each UE maximized by `closed_form_power`) minus `f_value`.
    """
    params = sc.params
    nat = params.bandwidth_hz / math.log(2.0)     # bit/s per nat
    gains = beam_gains(sc, mapping, ch, bf)
    denom = params.bandwidth_hz * params.noise_psd + ibar
    sigma2 = bf.slot_sigma
    weights = slot_weight_matrix(sc, mapping, bf)
    fh_power_cap = sigma2 * np.exp2(params.c_max)
    dfrak = delay_linearization(sc, mapping)
    floors = np.array(list(dfrak.values()), dtype=float)
    served = mapping.a[sc.ue_service]
    member = served[:, list(dfrak)].astype(float)
    active_ue = served.any(axis=1)
    idx = np.flatnonzero(active_ue)
    q = gains[idx] / denom[idx]
    room = np.minimum(params.p_max, fh_power_cap) - sigma2
    keep = weights[:, idx].sum(axis=1) * params.p_max > room
    W, b = weights[keep][:, idx], room[keep]
    rho_min, M = params.r_min / nat, member[idx].T
    prob = (q, rho_min, M, floors / nat, W, b, params.p_max)
    with np.errstate(divide="ignore", invalid="ignore"):
        p_lo = np.expm1(rho_min) / q              # per-UE rate-floor power
    x, p, stop, steps = None, np.full(idx.size, params.p_max), "infeasible", 0
    if np.all(p_lo < params.p_max) and np.all(b > 0):
        for theta in 0.5 ** np.arange(1, 40):
            p = params.p_max - theta * (params.p_max - p_lo)
            if np.all(M @ np.log1p(q * p) > floors / nat):
                x = p
                break
    if x is not None and np.any(W @ x >= b):
        z = np.append(x, np.min(1.0 - W @ x / b) - 1.0)
        for z, t, duals, steps in _central_path(
                z, np.eye(z.size)[-1], 0.0, prob, opts.max_iters):
            if z[-1] > 0 or z[-1] + duals.size / t <= 0:
                break
        p, x = z[:-1], (z[:-1] if z[-1] > 0 else None)
        stop = "cap" if steps >= opts.max_iters else stop
    if x is not None:
        lin = -eta / nat * weights[:, idx].sum(axis=0)
        for x, t, duals, more in _central_path(x, lin, 1.0, prob,
                                               opts.max_iters - steps):
            stop = "cap"
            if duals.size / t <= GAP_RTOL * np.log1p(q * x).sum():
                stop = "gap"
                break
        p, steps = x, steps + more

    powers = PowerAllocation(p=np.zeros(sc.n_ues))
    powers.p[idx] = p
    rates = params.bandwidth_hz * np.log2(1.0 + powers.p * gains / denom)
    p_bar = weights @ powers.p + sigma2
    f_val = float(rates.sum()) - eta * float(p_bar.sum())
    worst = {"minimum rate": np.where(active_ue, (params.r_min - rates)
                                      / params.r_min, 0.0),
             "RU power cap": (p_bar - params.p_max) / params.p_max,
             "fronthaul cap": (p_bar - fh_power_cap) / params.p_max,
             "delay budget": (floors - rates @ member) / floors}
    worst = {k: float(v.max(initial=0.0)) for k, v in worst.items()}
    mults, gap = Multipliers.zeros(sc), math.inf
    if x is not None:
        ue, sli, cap, _box = np.split(duals, np.cumsum([idx.size,
                                                        len(floors), len(b)]))
        mults.rate_ue[idx] = ue
        mults.delay_slice[list(dfrak)] = sli
        mults.ru_cap_slot[keep] = nat * cap
        p_dual = closed_form_power(sc, eta, mults, gains, weights, denom,
                                   served)
        y = nat * (1.0 + mults.rate_ue + served @ mults.delay_slice)
        price = weights.T @ (mults.ru_cap_slot + eta)
        gap = float((y * np.log1p(p_dual * gains / denom)
                     - price * p_dual).sum() - eta * sigma2.sum()
                    + mults.ru_cap_slot @ room - params.r_min * ue.sum()
                    - sli @ floors - f_val)
    return SubgradientResult(
        powers=powers, mults=mults, converged=stop == "gap",
        iterations=steps, feasible=max(worst.values()) <= CONSTRAINT_RTOL,
        f_value=f_val, max_violation=max(worst.values()), gap=gap, stop=stop,
        violated=[k for k, v in worst.items() if v > 0])


@dataclass
class TraceRow:
    iteration: int
    eta: float
    f_value: float
    max_violation: float
    inner_iterations: int
    gap: float
    stop: str


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
    mults: Multipliers            # of the last inner solve

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
    not depend on eta or the powers).  `converged` means the last inner
    solve's dual gap and |F| are both within EPS_ETA * R_tot.  The
    feasible set does not depend on eta, so an inner solve that finds
    no strictly feasible point ends the loop.

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
    trace: list[TraceRow] = []
    for i in range(1, opts.i_max + 1):
        last = subgradient_solve(sc, mapping, ch, bf, ibar, eta, opts)
        powers = last.powers
        r_tot = float(ue_rates(sc, mapping, ch, bf, powers, ibar).sum())
        p_tot = float(ru_powers_all(sc, mapping, bf, powers).sum())
        f_val = r_tot - eta * p_tot
        trace.append(TraceRow(iteration=i, eta=eta, f_value=f_val,
                              max_violation=last.max_violation,
                              inner_iterations=last.iterations,
                              gap=last.gap, stop=last.stop))
        tol = EPS_ETA * max(r_tot, 1.0)
        converged = abs(f_val) <= tol and last.gap <= tol
        if converged or last.stop == "infeasible":
            break
        if p_tot > 0:
            eta = max(eta, r_tot / p_tot)

    final = check_feasibility(sc, ch, bf, mapping, powers)
    return JointResult(mapping_result=mapping_result, powers=powers,
                       eta=(r_tot / p_tot if p_tot > 0 else 0.0),
                       r_tot=r_tot, p_tot=p_tot, converged=converged,
                       iterations=len(trace), trace=trace,
                       feasible=final.ok and last.feasible,
                       violations=final.violations, mults=last.mults)
