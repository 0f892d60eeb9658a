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
Its feasible set does not depend on eta, so phase I runs once per solve;
eta starts at the ratio of a feasible point, which keeps F >= 0 and eta
monotone (Schaible, 1976), and moves at every centred point of a single
barrier path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .scenario import Scenario
from .radio import (BeamformerSet, ChannelSet, PowerAllocation, SliceMapping,
                    beam_gains, build_beamformers, build_channels,
                    interference_upper_bound, slot_weight_matrix)
from .queueing import UnstableQueueError, layer_delays, slice_loads
from .slicing import MappingResult, check_feasibility, map_slices_to_services

GAP_RTOL = 1e-8      # barrier stop: m/t <= GAP_RTOL * summed rate in nats
CENTER_TOL = 1e-6    # centering stop: half the squared Newton decrement
T_STEP = 20.0        # barrier parameter growth per centering
EPS_ETA = 1e-6       # outer stop: |F| and gap <= EPS_ETA * R_tot
CONSTRAINT_RTOL = 1e-6   # feasibility slack, relative
I_MAX = 50           # cap on the centred points of one solve_joint


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


@dataclass
class SolverOptions:
    max_iters: int = 5000         # Newton-step cap per subgradient_solve


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


@dataclass
class SubgradientResult:
    eta: float
    powers: PowerAllocation
    mults: Multipliers
    converged: bool               # the barrier stopped on its gap test
    iterations: int               # Newton steps, phase I included
    feasible: bool
    f_value: float                # R_tot - eta * P_tot at the returned powers
    r_tot: float                  # summed rate, bit/s
    p_tot: float                  # summed slot power, W
    max_violation: float          # largest normalized constraint violation
    gap: float                    # dual bound minus f_value, bit/s
    stop: str                     # "gap", "cap" or "infeasible"
    violated: list[str]


def _central_path(x, lin, rate_w, prob, budget, t=1.0):
    """Log-barrier method, as a generator: maximizes lin @ x + rate_w *
    sum(rho), rho_u = ln(1 + q_u p_u), subject to rho_u > rho_min,
    M @ rho > floor, W @ p < b * (1 - s), p < p_max and s < 1, with
    x = p (phase II) or x = (p, s) (phase I).  From barrier parameter t,
    yields (x, t, duals 1/(t * slack) in that constraint order, Newton
    steps) at each centred point, then grows t by T_STEP.  Once `budget`
    steps are spent it yields the point it reached, centred or not, and
    returns.  A non-finite Newton decrement (a zero slack, say) ends the
    path at the last finite x, yielded with duals None: no certificate."""
    q, rho_min, M, floor, W, b, p_max = prob
    n_p, n_f = q.size, len(floor)
    n_r = n_f + len(b)                    # rows of R: floors, then caps
    hi = np.where(np.arange(x.size) < n_p, p_max, 1.0)

    def slacks(x):
        rho = np.log1p(q * x[:n_p])
        return rho, np.concatenate([rho - rho_min, M @ rho - floor,
                                    b * (1.0 - x[n_p:].sum()) - W @ x[:n_p],
                                    hi - x])

    def gain(rho, sl, dx):
        """Barrier increase along dx, formed from differences."""
        drho = np.log1p(q * dx[:n_p] * np.exp(-rho))
        dsl = np.concatenate([drho, M @ drho, -b * dx[n_p:].sum()
                              - W @ dx[:n_p], -dx])
        out = (t * (lin @ dx + rate_w * drho.sum())
               + np.log1p(dsl / sl).sum())
        return out if np.isfinite(out) else -np.inf

    steps, lam2 = 0, 0.0
    while True:
        with np.errstate(divide="ignore", invalid="ignore"):
            while steps < budget:
                rho, sl = slacks(x)
                d1 = q * np.exp(-rho)                 # d rho / d p
                inv = 1.0 / sl
                ue, box = inv[:n_p], inv[n_p + n_r:]
                wsum = t * rate_w + ue + M.T @ inv[n_p:n_p + n_f]
                grad = t * lin - box
                grad[:n_p] += wsum * d1 - W.T @ inv[n_p + n_f:n_p + n_r]
                grad[n_p:] -= b @ inv[n_p + n_f:n_p + n_r]
                # -Hessian = diag(d) + R^T R with one row of R per slice
                # floor and kept cap; solved as D^1/2 (I + Rs^T Rs) D^1/2,
                # through the smaller of the two Gram matrices
                d = box ** 2
                d[:n_p] += wsum * d1 ** 2 + (ue * d1) ** 2
                rows = np.zeros((n_r, x.size))
                rows[:n_f, :n_p] = M * d1
                rows[n_f:, :n_p] = W
                rows[n_f:, n_p:] = b[:, None]
                rs = rows * inv[n_p:n_p + n_r, None] / np.sqrt(d)
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
                if not lam2 > 2 * CENTER_TOL or alpha <= 1e-10:
                    break
                x = x + alpha * dx
                steps += 1
        if not np.isfinite(lam2):
            yield x, t, None, steps
            return
        yield x, t, 1.0 / (t * slacks(x)[1]), steps
        if steps >= budget:
            return
        t *= T_STEP


class PowerProblem:
    """The eta-independent part of one mapping's inner problem, built once
    per Dinkelbach loop.  Phase I (floors only rise with power) steps from
    p_max towards the per-UE floor powers `p_lo` while every slice floor
    holds; if a slot cap fails there, it maximizes s with the caps shrunk
    to b * (1 - s) until s > 0 or the barrier bound rules it out.  The
    phase-II path stands at (`x`, `t`), where each solve resumes it; `x`
    is None without a strictly feasible point, and a solve then reports
    `p` and `stop`.  `steps` holds phase-I Newton steps not yet charged to
    a solve.  `eta0` is R/P at `p_lo` if those powers meet every floor and cap, else
    at the phase-I point: a feasible ratio, so F(eta0) >= 0.  Phase I
    and each `subgradient_solve` spend at most `opts.max_iters` Newton
    steps."""

    def __init__(self, sc: Scenario, mapping: SliceMapping, ch: ChannelSet,
                 bf: BeamformerSet, ibar: np.ndarray, opts: SolverOptions):
        self.sc, params = sc, sc.params
        self.max_iters = opts.max_iters
        self.sigma2 = sigma2 = bf.slot_sigma
        self.nat = nat = params.bandwidth_hz / math.log(2.0)  # bit/s per nat
        self.gains = gains = beam_gains(sc, mapping, ch, bf)
        self.denom = denom = params.bandwidth_hz * params.noise_psd + ibar
        self.weights = weights = slot_weight_matrix(sc, mapping, bf)
        self.fh_power_cap = sigma2 * np.exp2(params.c_max)
        self.dfrak = delay_linearization(sc, mapping)
        self.floors = floors = np.array(list(self.dfrak.values()), float)
        self.served = mapping.a[sc.ue_service]
        self.member = self.served[:, list(self.dfrak)].astype(float)
        self.active_ue = self.served.any(axis=1)
        self.idx = idx = np.flatnonzero(self.active_ue)
        q = gains[idx] / denom[idx]
        self.room = np.minimum(params.p_max, self.fh_power_cap) - sigma2
        self.keep = weights[:, idx].sum(axis=1) * params.p_max > self.room
        self.cost = weights[:, idx].sum(axis=0)      # d P_tot / d p, per UE
        W, b = weights[self.keep][:, idx], self.room[self.keep]
        rho_min, M = params.r_min / nat, self.member[idx].T
        self.prob = (q, rho_min, M, floors / nat, W, b, params.p_max)
        with np.errstate(divide="ignore", invalid="ignore"):
            p_lo = np.expm1(rho_min) / q              # per-UE rate-floor power
        x, self.p = None, np.full(idx.size, params.p_max)
        self.stop, self.steps, self.t = "infeasible", 0, 1.0
        if np.all(p_lo < params.p_max) and np.all(b > 0):
            for theta in 0.5 ** np.arange(1, 40):
                p = params.p_max - theta * (params.p_max - p_lo)
                if np.all(M @ np.log1p(q * p) > floors / nat):
                    x = p
                    break
        if x is not None and np.any(W @ x >= b):
            z = np.append(x, np.min(1.0 - W @ x / b) - 1.0)
            for z, t, duals, self.steps in _central_path(
                    z, np.eye(z.size)[-1], 0.0, self.prob, opts.max_iters):
                if z[-1] > 0 or duals is None or z[-1] + duals.size / t <= 0:
                    break
            self.p, x = z[:-1], (z[:-1] if z[-1] > 0 else None)
            if self.steps >= opts.max_iters or duals is None:
                self.stop = "cap"
        self.x = x
        lo_ok = (np.all(p_lo <= params.p_max) and np.all(W @ p_lo <= b)
                 and np.all(M @ np.log1p(q * p_lo) >= floors / nat))
        start = p_lo if lo_ok else x
        self.eta0 = 0.0 if start is None else float(
            nat * np.log1p(q * start).sum()
            / (self.cost @ start + sigma2.sum()))

    def closed_form_power(self, eta: float, mults: Multipliers) -> np.ndarray:
        """Maximizer over [0, p_max] of each UE's Lagrangian term.

        With rate weight y = (1 + the UE's rate multiplier + the delay
        multipliers of the slices serving it) * B/ln2, beam gain g,
        noise-plus-interference z and price x = sum over slots of (cap
        multiplier + eta) * gated |w|^2, the water-filling maximizer is
        max(0, (y*g - x*z) / (x*g)), clipped at p_max.  Unserved UEs get
        zero power and a served UE with zero price rides the cap.  Every
        served UE has a positive gain, since phase I found a point.
        """
        params, gains, denom = self.sc.params, self.gains, self.denom
        active = self.active_ue
        price = self.weights.T @ (mults.ru_cap_slot + eta)
        y = ((1.0 + mults.rate_ue + self.served @ mults.delay_slice)
             * params.bandwidth_hz / math.log(2.0))
        p = np.zeros(self.sc.n_ues)
        good = active & (price > 0)
        p[good] = np.maximum(
            0.0, (y[good] * gains[good] - price[good] * denom[good])
            / (price[good] * gains[good]))
        p[active & (price <= 0)] = params.p_max
        return np.minimum(p, params.p_max)

    def dual_bound(self, eta: float, mults: Multipliers) -> float:
        """Lagrangian dual function at `mults`, bit/s: an upper bound on
        R_tot - eta * P_tot over the feasible powers.  Each UE's term is
        maximized by `closed_form_power`."""
        sc, nat, served = self.sc, self.nat, self.served
        p = self.closed_form_power(eta, mults)
        y = nat * (1.0 + mults.rate_ue + served @ mults.delay_slice)
        price = self.weights.T @ (mults.ru_cap_slot + eta)
        return float((y * np.log1p(p * self.gains / self.denom)
                      - price * p).sum() - eta * self.sigma2.sum()
                     + mults.ru_cap_slot @ self.room
                     - sc.params.r_min * mults.rate_ue[self.idx].sum()
                     - mults.delay_slice[list(self.dfrak)] @ self.floors)


def subgradient_solve(problem: PowerProblem, eta: float,
                      gap_rtol: float = GAP_RTOL) -> SubgradientResult:
    """Maximize R_tot - eta * P_tot over the powers, with a certificate.

    Follows the problem's barrier path with eta held, from the point and
    t where the last call left it (a fresh `problem`: the phase-I point
    and t = 1), until a centred point whose m/t <= gap_rtol * summed
    rate ("gap"), the Newton-step cap or a breakdown of the Newton step
    ("cap").  With gap_rtol = inf that is the first centred point, which
    is how `solve_joint` moves eta along one path.  `gap` is the dual
    bound at the returned barrier duals minus `f_value`; it is infinite
    without duals.
    """
    pb, sc = problem, problem.sc
    params, nat, idx, weights = sc.params, pb.nat, pb.idx, pb.weights
    x, p, stop, steps, duals = pb.x, pb.p, pb.stop, pb.steps, None
    if x is not None:
        # duals: per-UE floors, slice floors, kept slot caps, box
        cuts = np.cumsum([idx.size, len(pb.floors), pb.keep.sum(), idx.size])
        budget = pb.max_iters - steps
        for x, t, duals, more in _central_path(
                x, -eta / nat * pb.cost, 1.0, pb.prob, budget, pb.t):
            stop = "cap"
            if duals is None:
                break
            # m/t bounds the gap only at a centred point; the point where
            # the budget ran out is not known to be one
            if more < budget and (duals.size / t <= gap_rtol
                                  * np.log1p(pb.prob[0] * x).sum()):
                stop = "gap"
                break
        p, steps = x, steps + more
        pb.x, pb.t, pb.steps = x, t, 0

    powers = PowerAllocation(p=np.zeros(sc.n_ues))
    powers.p[idx] = p
    rates = params.bandwidth_hz * np.log2(1.0 + powers.p * pb.gains
                                          / pb.denom)
    p_bar = weights @ powers.p + pb.sigma2
    r_tot, p_tot = float(rates.sum()), float(p_bar.sum())
    f_val = r_tot - eta * p_tot
    worst = {"minimum rate": np.where(pb.active_ue, (params.r_min - rates)
                                      / params.r_min, 0.0),
             "RU power cap": (p_bar - params.p_max) / params.p_max,
             "fronthaul cap": (p_bar - pb.fh_power_cap) / params.p_max,
             "delay budget": (pb.floors - rates @ pb.member) / pb.floors}
    worst = {k: float(v.max(initial=0.0)) for k, v in worst.items()}
    mults = Multipliers(rate_ue=np.zeros(sc.n_ues),
                        ru_cap_slot=np.zeros(len(p_bar)),
                        delay_slice=np.zeros(sc.n_slices))
    gap = math.inf
    if duals is not None:
        mults.rate_ue[idx] = duals[:cuts[0]]
        mults.delay_slice[list(pb.dfrak)] = duals[cuts[0]:cuts[1]]
        mults.ru_cap_slot[pb.keep] = nat * duals[cuts[1]:cuts[2]]
        gap = pb.dual_bound(eta, mults) - f_val
    return SubgradientResult(
        eta=eta, powers=powers, mults=mults, converged=stop == "gap",
        iterations=steps, feasible=max(worst.values()) <= CONSTRAINT_RTOL,
        f_value=f_val, r_tot=r_tot, p_tot=p_tot,
        max_violation=max(worst.values()), gap=gap, stop=stop,
        violated=[k for k, v in worst.items() if v > 0])


@dataclass
class JointResult:
    mapping_result: MappingResult
    powers: PowerAllocation
    eta: float
    r_tot: float
    p_tot: float
    converged: bool
    trace: list[SubgradientResult]    # one centred point of the path each
    feasible: bool
    violations: list[str]
    mults: Multipliers            # of the last point

    @property
    def mapping(self) -> SliceMapping:
        return self.mapping_result.mapping


def solve_joint(sc: Scenario, opts: SolverOptions = SolverOptions(),
                ch: ChannelSet | None = None,
                bf: BeamformerSet | None = None) -> JointResult:
    """Full pipeline: map slices, then follow one barrier path for the
    powers, raising eta to R/P at each of its centred points, until the
    parametric objective crosses zero.

    The mapping is computed once (its sweep is deterministic and does
    not depend on eta or the powers), and so is the `PowerProblem` with
    its phase-I point.  Eta starts at `PowerProblem.eta0`, R/P at the
    rate-floor powers or the phase-I point.  The path grows t by T_STEP
    only after a point whose F(eta) is within its certified gap, where
    eta is as close to the root as that t can tell; otherwise it
    recentres at the same t.  `converged` means the last point, computed
    at the last eta, has dual gap and |F| both within EPS_ETA * R_tot.
    The feasible set does not depend on eta, so a path that finds no
    strictly feasible point ends the loop.

    Raises InfeasibleMappingError when any service ends up uncovered.
    """
    if ch is None:
        ch = build_channels(sc)
    if bf is None:
        bf = build_beamformers(sc, ch)
    mapping_result = map_slices_to_services(sc, bf)
    if mapping_result.uncovered_services:
        raise InfeasibleMappingError(mapping_result)
    mapping = mapping_result.mapping

    ibar = interference_upper_bound(sc, mapping, ch, bf)
    problem = PowerProblem(sc, mapping, ch, bf, ibar, opts)
    eta = problem.eta0
    trace: list[SubgradientResult] = []
    for _ in range(I_MAX):
        last = subgradient_solve(problem, eta, gap_rtol=math.inf)
        powers, r_tot, p_tot = last.powers, last.r_tot, last.p_tot
        trace.append(last)
        tol = EPS_ETA * max(r_tot, 1.0)
        converged = abs(last.f_value) <= tol and last.gap <= tol
        if converged or last.stop == "infeasible":
            break
        if last.f_value <= last.gap:
            problem.t *= T_STEP
        if p_tot > 0:
            eta = max(eta, r_tot / p_tot)

    final = check_feasibility(sc, ch, bf, mapping, powers)
    return JointResult(mapping_result=mapping_result, powers=powers,
                       eta=(r_tot / p_tot if p_tot > 0 else 0.0),
                       r_tot=r_tot, p_tot=p_tot, converged=converged,
                       trace=trace, feasible=final.ok and last.feasible,
                       violations=final.violations, mults=last.mults)
