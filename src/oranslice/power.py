"""Energy-efficient power allocation for a mapped system.

The energy-efficiency objective is a ratio (total rate over total RU
power), maximized by the parametric trick: for a parameter eta, maximize
F(eta) = R_tot - eta * P_tot; the optimal eta is the root of F, and
eta <- R_tot/P_tot converges superlinearly when each inner maximization
is exact (Dinkelbach, 1967).  With eta and the interference bound fixed
the inner problem is concave (rates, the mapping-gated power charge, the
per-UE rate floors, per-slot RU and fronthaul caps, per-slice delay rate
floors), and duals certify it.  If each UE sits in one slice floor and
no slot cap can bind (every sweep mapping), it splits into one clipped
water-filling per slice (Boyd & Vandenberghe, Convex Optimization, 2004,
sec. 5.5.3), solved exactly; else a log-barrier method (ibid., ch. 11)
solves it along one path.  Eta starts at a feasible ratio, so F >= 0 and
eta is monotone (Schaible, 1976).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .scenario import Scenario
from .radio import (BeamformerSet, ChannelSet, MappingEvaluator,
                    PowerAllocation, SliceMapping, build_beamformers,
                    build_channels)
from .queueing import UnstableQueueError
from .slicing import MappingResult, map_slices_to_services, verdict

CENTER_TOL = 1e-6    # centering stop: half the squared Newton decrement
T_STEP = 20.0        # barrier parameter growth per centering
EPS_ETA = 1e-6       # outer stop: |F| and gap <= EPS_ETA * R_tot
I_MAX = 50           # cap on the centred points of one solve_power


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
    max_iters: int = 5000         # barrier Newton steps per point


def delay_linearization(ev: MappingEvaluator) -> dict[int, float]:
    """Rate floor per active slice of the evaluator's mapping that
    guarantees its delay budget.

    The two VNF-layer delays are power-independent, so the budget minus
    them bounds the transmission delay, which converts into a floor on
    the slice's summed rate: 1/(budget - layer delays) + offered load in
    bits.  Slices serving no service are excluded.  Raises, for the
    lowest such slice, if an active slice's layers are unstable or alone
    eat the budget.
    """
    sc = ev.sc
    _served, active, alpha, du, cu, unstable = ev.delay_terms
    slack = sc.params.d_max - du - cu
    active = np.flatnonzero(active)
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
    converged: bool               # stopped on its gap test
    iterations: int               # 1 if exact, else Newton steps (+ phase I)
    feasible: bool                # `verdict` at the returned powers: ok,
    violations: list[str]         # its messages
    max_violation: float          # and its largest relative excess
    f_value: float                # R_tot - eta * P_tot at the returned powers
    r_tot: float                  # summed rate, bit/s
    p_tot: float                  # summed slot power, W
    gap: float                    # dual bound minus f_value, bit/s
    stop: str                     # "gap", "cap" or "infeasible"


def _barrier(q, rho_min, M, floor, W, b, p_max, n_x):
    """A `_central_path` problem over x of n_x entries, built once: data,
    R with its cap rows set, upper bounds, and the buffers of one path at
    a time: slacks, trial slack ratios and the trial step."""
    n_p, n_f, n = q.size, len(floor), q.size + len(floor) + len(b) + n_x
    rows = np.zeros((len(floor) + len(b), n_x))
    rows[n_f:, :n_p], rows[n_f:, n_p:] = W, b[:, None]
    return (q, rho_min, M, floor, W, b, rows,
            np.where(np.arange(n_x) < n_p, p_max, 1.0),
            np.empty(n), np.empty(n), np.empty(n_x))


def _levels(row, lo, hi, a, target):
    """Per floor row s, the least y with sum over its UEs (row == s) of
    clip(y + a_u, lo, hi_u) >= target_s (-inf if lo meets it; a = inf sits
    at hi): one sort of the breakpoints of that piecewise-linear sum."""
    free = np.isfinite(a)
    base = np.bincount(row, np.where(free, lo, hi), len(target))
    a, r = a[free], np.tile(row[free], 2)
    y = np.concatenate([lo - a, hi[free] - a])
    order = np.lexsort((y, r))
    r, y, dn = r[order], y[order], np.repeat([1.0, -1.0], a.size)[order]
    n, c = np.cumsum(dn), np.cumsum(-dn * y)    # the sum is base + c + n y
    c -= (c + dn * y)[np.searchsorted(r, r)]    # past each breakpoint
    v = base[r] + c + n * y                     # the sum at each breakpoint
    k = np.bincount(r, v < target[r], len(target)).astype(int)
    level, s = np.full(len(target), -np.inf), np.flatnonzero(k)
    j = np.searchsorted(r, s) + k[s] - 1    # the segment past j brackets it
    level[s] = y[j] + np.maximum(target[s] - v[j], 0.0) / np.maximum(n[j], 1)
    return level


def _central_path(x, lin, rate_w, prob, budget, t=1.0):
    """Log-barrier method, as a generator: maximizes lin @ x + rate_w *
    sum(rho), rho_u = ln(1 + q_u p_u), subject to rho_u > rho_min,
    M @ rho > floor, W @ p < b * (1 - s), p < p_max and s < 1, with
    x = p (phase II) or (p, s) (phase I), `prob` from `_barrier`.  From
    barrier parameter t, yields (x, t, duals 1/(t * slack) in that order,
    Newton steps) at each centred point, then grows t by T_STEP.  Once
    `budget` steps are spent it yields the point it reached, centred or
    not, and returns.  A non-finite Newton decrement (a zero slack, say)
    ends the path at the last finite x, yielded with duals None."""
    q, rho_min, M, floor, W, b, rows, hi, sl, ratio, step = prob
    n_p, n_f = q.size, len(floor)
    c, k = n_p + n_f, n_p + len(rows)     # slacks: floors, caps, box

    def slacks(x):
        rho = np.log1p(q * x[:n_p])
        sl[:n_p], sl[n_p:c], sl[k:] = rho - rho_min, M @ rho - floor, hi - x
        if b.size:
            sl[c:k] = b * (1.0 - x[n_p:].sum()) - W @ x[:n_p]
        return rho

    def gain(e, dx):
        """Barrier increase along dx, formed from differences; -inf as
        soon as a UE's rate reaches its floor."""
        drho = np.log1p(q * dx[:n_p] * e)
        if not np.minimum.reduce(np.divide(drho, sl[:n_p], out=ratio[:n_p]),
                                 initial=np.inf) > -1.0:
            return -np.inf
        ratio[n_p:c], ratio[k:] = M @ drho, -dx
        if b.size:
            ratio[c:k] = -b * dx[n_p:].sum() - W @ dx[:n_p]
        np.divide(ratio[n_p:], sl[n_p:], out=ratio[n_p:])
        out = (t * (lin @ dx + rate_w * drho.sum())
               + np.log1p(ratio, out=ratio).sum())
        return out if np.isfinite(out) else -np.inf

    steps, lam2 = 0, 0.0
    while True:
        with np.errstate(divide="ignore", invalid="ignore"):
            while steps < budget:
                rho = slacks(x)
                e = np.exp(-rho)
                d1 = q * e                            # d rho / d p
                inv = 1.0 / sl
                ue, cap, box = inv[:n_p], inv[c:k], inv[k:]
                wsum = t * rate_w + ue + M.T @ inv[n_p:c]
                grad = t * lin - box
                grad[:n_p] += wsum * d1 - W.T @ cap if b.size else wsum * d1
                grad[n_p:] -= b @ cap
                # -Hessian = diag(d) + R^T R with one row of R per slice
                # floor and kept cap; solved as D^1/2 (I + Rs^T Rs) D^1/2,
                # through the smaller of the two Gram matrices
                d = box ** 2
                d[:n_p] += wsum * d1 ** 2 + (ue * d1) ** 2
                np.multiply(M, d1, out=rows[:n_f, :n_p])
                sd = np.sqrt(d)
                rs = rows * inv[n_p:k, None] / sd
                gs = grad / sd
                if len(rs) >= x.size:
                    gs = np.linalg.solve(np.eye(x.size) + rs.T @ rs, gs)
                else:
                    gs -= rs.T @ np.linalg.solve(np.eye(len(rs)) + rs @ rs.T,
                                                 rs @ gs)
                dx = gs / sd
                lam2 = float(grad @ dx)
                alpha = 1.0
                while (lam2 > 2 * CENTER_TOL and alpha > 1e-10
                       and gain(e, np.multiply(alpha, dx, out=step))
                       < 0.25 * alpha * lam2):
                    alpha /= 2
                if not lam2 > 2 * CENTER_TOL or alpha <= 1e-10:
                    break
                x = x + step
                steps += 1
            else:
                slacks(x)           # x moved since its slacks were formed
        if not np.isfinite(lam2):
            yield x, t, None, steps
            return
        yield x, t, 1.0 / (t * sl), steps
        if steps >= budget:
            return
        t *= T_STEP


class PowerProblem:
    """The eta-independent part of one mapping's inner problem, built once
    per Dinkelbach loop from the mapping's evaluator `ev`, which gives the
    UE rates and slot powers at any powers.  The mapping must give every
    service a slice (ValueError otherwise), so every UE is served and
    carries a power variable.  Slice-separable (one floor row per UE, no
    cap kept), it is feasible iff all `p_lo` <= p_max and all floors hold
    at p_max, and `level` holds each row's eta-free level (else None).
    Else phase I steps from p_max towards the rate-floor powers `p_lo`
    while every slice floor holds; if a slot cap fails there, it
    maximizes s with the caps shrunk to b * (1 - s) until s > 0 or the
    barrier rules it out.  The phase-II path stands at (`x`, `t`), where
    each solve resumes it; `x` is None without a strictly feasible point,
    and a solve then reports `p` and `stop`.  `steps` holds phase-I
    Newton steps (at most `opts.max_iters`) not yet charged to a solve.
    `eta0` is a feasible R/P, so F(eta0) >= 0: at `level_power(inf)`,
    else at `p_lo` if those meet every floor and cap, else at the
    phase-I point."""

    def __init__(self, ev: MappingEvaluator, opts: SolverOptions):
        sc, mapping = ev.sc, SliceMapping(a=ev.a)
        uncovered = np.flatnonzero(~mapping.covered()).tolist()
        if uncovered:
            raise ValueError(f"services {uncovered} have no slice")
        self.sc, self.ev, params = sc, ev, sc.params
        self.max_iters = opts.max_iters
        self.sigma2 = sigma2 = ev.bf.slot_sigma
        self.nat = nat = params.bandwidth_hz / math.log(2.0)  # bit/s per nat
        self.denom = denom = params.bandwidth_hz * params.noise_psd + (
            ev.interference)
        with np.errstate(over="ignore"):    # beyond range: never binds
            cap = np.minimum(params.p_max, sigma2 * np.exp2(params.c_max))
        self.dfrak = delay_linearization(ev)
        self.floors = floors = np.array(list(self.dfrak.values()), float)
        ue, slc = ev.incidence
        q, floor, rho_min = ev.gain / denom, floors / nat, params.r_min / nat
        # keep the slot caps that can bind below p_max
        self.room, self.keep = cap - sigma2, ev.full > cap
        self.cost = ev.price(np.ones(sigma2.size))     # d P_tot / d p, per UE
        with np.errstate(divide="ignore", invalid="ignore"):
            p_lo = np.expm1(rho_min) / q              # per-UE rate-floor power
        x, self.p, self.level = None, np.full(sc.n_ues, params.p_max), None
        self.stop, self.steps, self.t, start = "infeasible", 0, 1.0, None
        # each incidence entry's slice floor row
        self.row = row = np.searchsorted(list(self.dfrak), slc)
        if not self.keep.any() and np.array_equal(ue, np.arange(sc.n_ues)):
            # slice-separable: each UE in one slice floor row
            self.q, self.p_lo = q, p_lo
            hi = np.log1p(q * params.p_max)
            if (np.all(p_lo <= params.p_max) and np.all(
                    np.bincount(row, hi, len(floor)) >= floor)):
                with np.errstate(divide="ignore"):
                    a = np.log(q * nat / self.cost)
                self.level = _levels(row, rho_min, hi, a, floor)
                start = self.level_power(math.inf)
        else:
            # the barrier's dense rows, slice floors and kept caps, are
            # column-major: the rounding of the Newton step's products, and
            # so every barrier trace, depends on the layout
            member = np.zeros((sc.n_ues, len(floors)))
            member[ue, row] = 1.0
            M, W, b = member.T, ev.weight_rows(self.keep), self.room[self.keep]
            prob = (q, rho_min, M, floor, W, b, params.p_max)
            if np.all(p_lo < params.p_max) and np.all(b > 0):
                trials = (params.p_max - theta * (params.p_max - p_lo)
                          for theta in 0.5 ** np.arange(1, 40))
                x = next((p for p in trials
                          if np.all(M @ np.log1p(q * p) > floor)), None)
            if x is not None and np.any(W @ x >= b):
                z = np.append(x, np.min(1.0 - W @ x / b) - 1.0)
                for z, t, duals, self.steps in _central_path(
                        z, np.eye(z.size)[-1], 0.0, _barrier(*prob, z.size),
                        opts.max_iters):
                    if (z[-1] > 0 or duals is None
                            or z[-1] + duals.size / t <= 0):
                        break
                self.p, x = z[:-1], (z[:-1] if z[-1] > 0 else None)
                if self.steps >= opts.max_iters or duals is None:
                    self.stop = "cap"
            self.prob = _barrier(*prob, sc.n_ues)
            lo_ok = (np.all(p_lo <= params.p_max) and np.all(W @ p_lo <= b)
                     and np.all(M @ np.log1p(q * p_lo) >= floor))
            start = p_lo if lo_ok else x
        self.x = x
        self.eta0 = 0.0 if start is None else float(
            nat * np.log1p(q * start).sum()
            / (self.cost @ start + sigma2.sum()))

    def terms(self, eta: float, mults: Multipliers) -> tuple:
        """Per UE, the price x = W^T (mu + eta) = W^T mu + eta c of its
        power and its rate weight lam = 1 + its rate multiplier + the
        delay multipliers of the slices serving it."""
        (ue, slc), mu = self.ev.incidence, mults.ru_cap_slot
        return (eta * self.cost + (self.ev.price(mu) if mu.any() else 0.0),
                1.0 + mults.rate_ue + np.bincount(
                    ue, mults.delay_slice[slc], self.sc.n_ues))

    def level_power(self, eta: float) -> np.ndarray:
        """Exact-path powers at (1 + mu_s)/eta = max(1/eta, e^level_s), in
        [p_lo, p_max] (p_max at zero `cost`); at inf, the cheapest ones."""
        with np.errstate(divide="ignore", invalid="ignore"):
            z = np.maximum(np.reciprocal(eta), np.exp(self.level))
            p = z[self.row] * self.nat / self.cost - 1.0 / self.q
        p_max = self.sc.params.p_max
        return np.where(self.cost > 0, np.clip(p, self.p_lo, p_max), p_max)

    def closed_form_power(self, eta: float, mults: Multipliers,
                          terms: tuple | None = None) -> np.ndarray:
        """Maximizer over [0, p_max] of each UE's Lagrangian term.

        With rate weight y = lam * B/ln2, lam = 1 + the UE's rate
        multiplier + the delay multipliers of the slices serving it, beam
        gain g, noise-plus-interference z and price x = sum over slots of
        (cap multiplier + eta) * gated |w|^2, the water-filling maximizer
        is max(0, (y*g - x*z) / (x*g)), clipped at p_max.  A UE with zero
        price rides the cap.  Every UE has a positive gain on a feasible
        problem.  `terms` is `self.terms` when the caller has formed them.
        """
        params, gains, denom = self.sc.params, self.ev.gain, self.denom
        price, lam = terms or self.terms(eta, mults)
        y = lam * params.bandwidth_hz / math.log(2.0)
        p = np.zeros(self.sc.n_ues)
        good = price > 0
        p[good] = np.maximum(
            0.0, (y[good] * gains[good] - price[good] * denom[good])
            / (price[good] * gains[good]))
        p[price <= 0] = params.p_max
        return np.minimum(p, params.p_max)

    def dual_bound(self, eta: float, mults: Multipliers) -> float:
        """Lagrangian dual function at `mults`, bit/s: an upper bound on
        R_tot - eta * P_tot over the feasible powers.  Each UE's term is
        maximized by `closed_form_power`."""
        sc, nat = self.sc, self.nat
        price, lam = self.terms(eta, mults)
        p = self.closed_form_power(eta, mults, (price, lam))
        return float((nat * lam * np.log1p(p * self.ev.gain / self.denom)
                      - price * p).sum() - eta * self.sigma2.sum()
                     + mults.ru_cap_slot @ self.room
                     - sc.params.r_min * mults.rate_ue.sum()
                     - mults.delay_slice[list(self.dfrak)] @ self.floors)


def subgradient_solve(problem: PowerProblem,
                      eta: float) -> SubgradientResult:
    """Maximize R_tot - eta * P_tot over the powers, with a certificate.

    The exact path takes lam_s = 1 + mu_s = max(1, eta e^level_s), and
    each UE's power and floor multiplier, in closed form: one iteration,
    stop "gap".  Else it follows the barrier path with eta held, from the
    point and t where the last call left it (a fresh `problem`: the
    phase-I point and t = 1), to its next centred point ("gap"), unless
    the Newton-step cap or a breakdown of the Newton step comes first
    ("cap").  The caller moves eta and t between calls, which is how
    `solve_power` walks one path.  `gap` is the dual bound at the returned
    multipliers minus `f_value`; it is infinite without them.  The point
    is judged once, by `verdict` on the problem's evaluator.
    """
    pb, sc, nat = problem, problem.sc, problem.nat
    x, p, stop, steps, duals = pb.x, pb.p, pb.stop, pb.steps, None
    mults = Multipliers(np.zeros(sc.n_ues), np.zeros(len(pb.sigma2)),
                        np.zeros(sc.n_slices))
    if pb.level is not None:
        lam, p = np.maximum(1.0, eta * np.exp(pb.level)), pb.level_power(eta)
        mults.rate_ue[:] = np.maximum(0.0, eta * pb.cost * (
            pb.p_lo + 1.0 / pb.q) / nat - lam[pb.row])
        mults.delay_slice[list(pb.dfrak)] = lam - 1.0
        stop, steps, duals = "gap", 1, lam
    elif x is not None:
        budget = pb.max_iters - steps
        x, t, duals, more = next(_central_path(
            x, -eta / nat * pb.cost, 1.0, pb.prob, budget, pb.t))
        # m/t bounds the gap only at a centred point; the point where the
        # budget ran out is not known to be one
        stop = "gap" if duals is not None and more < budget else "cap"
        p, steps = x, steps + more
        pb.x, pb.t, pb.steps = x, t, 0
        if duals is not None:
            # duals: per-UE floors, slice floors, kept slot caps, box
            n, f = sc.n_ues, sc.n_ues + len(pb.floors)
            mults.rate_ue[:] = duals[:n]
            mults.delay_slice[list(pb.dfrak)] = duals[n:f]
            mults.ru_cap_slot[pb.keep] = nat * duals[f:f + pb.keep.sum()]

    rates, p_bar = pb.ev.at(p)
    r_tot, p_tot = float(rates.sum()), float(p_bar.sum())
    f_val = r_tot - eta * p_tot
    report = verdict(pb.ev, rates, p_bar)
    gap = math.inf if duals is None else pb.dual_bound(eta, mults) - f_val
    return SubgradientResult(
        eta=eta, powers=PowerAllocation(p=p), mults=mults,
        converged=stop == "gap", iterations=steps, feasible=report.ok,
        violations=report.violations, max_violation=report.max_violation,
        f_value=f_val, r_tot=r_tot, p_tot=p_tot, gap=gap, stop=stop)


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
    """Full pipeline: map slices with the greedy sweep, then `solve_power`
    on that mapping.  The mapping is computed once: the sweep is
    deterministic and does not depend on eta or the powers.

    Raises InfeasibleMappingError when any service ends up uncovered.
    """
    if ch is None:
        ch = build_channels(sc)
    if bf is None:
        bf = build_beamformers(sc, ch)
    mapping_result = map_slices_to_services(sc, bf)
    if mapping_result.uncovered_services:
        raise InfeasibleMappingError(mapping_result)
    return replace(solve_power(sc, mapping_result.mapping, ch, bf, opts),
                   mapping_result=mapping_result)


def solve_power(sc: Scenario, mapping: SliceMapping, ch: ChannelSet,
                bf: BeamformerSet,
                opts: SolverOptions = SolverOptions()) -> JointResult:
    """Energy-efficient powers for a fixed mapping: raise eta to R/P at
    each point of `subgradient_solve` until the parametric objective
    crosses zero, from `PowerProblem.eta0`; the problem is built once.

    A slice-separable mapping (each one the sweep makes) takes the exact
    path, one iteration per point.  Otherwise the points are the centred
    points of one barrier path, and `iterations` counts Newton steps: t
    grows by T_STEP after every point whose certified gap is above the
    stop tolerance EPS_ETA * max(R_tot, 1), and after a point within it
    the path recentres at the same t.  `converged` means the last point,
    computed at the last eta, has dual gap and |F| both within EPS_ETA *
    R_tot.  The feasible set does not depend on eta, so a problem with no
    (strictly, on the barrier) feasible point ends the loop.  `feasible` and
    `violations` are the last point's, which `verdict` judged on the
    solve's evaluator: what `check_feasibility` reports at the returned
    powers.  `mapping` must cover every service (ValueError otherwise);
    the result's `mapping_result` holds it with no uncovered services
    and no rejections.  Raises as `delay_linearization` does when an
    active slice cannot meet its delay budget at any rate.
    """
    problem = PowerProblem(MappingEvaluator(sc, bf, mapping), opts)
    eta = problem.eta0
    trace: list[SubgradientResult] = []
    for _ in range(I_MAX):
        last = subgradient_solve(problem, eta)
        powers, r_tot, p_tot = last.powers, last.r_tot, last.p_tot
        trace.append(last)
        tol = EPS_ETA * max(r_tot, 1.0)
        converged = abs(last.f_value) <= tol and last.gap <= tol
        if converged or last.stop == "infeasible":
            break
        if last.gap > tol:
            problem.t *= T_STEP
        if p_tot > 0:
            eta = max(eta, r_tot / p_tot)

    return JointResult(
        mapping_result=MappingResult(mapping=mapping, uncovered_services=[],
                                     rejections=[]),
        powers=powers, eta=(r_tot / p_tot if p_tot > 0 else 0.0),
        r_tot=r_tot, p_tot=p_tot, converged=converged, trace=trace,
        feasible=last.feasible, violations=last.violations, mults=last.mults)
