"""Physical-layer model: channels, beamforming, rates, and RU power.

The downlink is a cell-free arrangement: each slice owns a set of radio
units that jointly beamform to the UEs of every service mapped onto the
slice.  Beamforming is zero-forcing per (slice, service) pair, so within
a pair each UE sees unit gain from its own stream and (numerically) zero
gain from its peers.

Interference is evaluated as an upper bound: every interfering stream is
charged at the full per-RU power cap, which makes the bound independent
of the power allocation and lets the admission and power stages reason
about worst-case rates.

With the precoders fixed, every radio quantity is linear in the mapping
matrix a[v, s].  `build_beamformers` computes the coefficients of those
linear forms once per (scenario, channels); the evaluators below only
contract them with the mapping.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .scenario import Scenario

# Beyond this condition number the normal equations of the zero-forcing
# design are considered numerically untrustworthy and the (slice,
# service) pair is treated as unmappable.
CONDITION_CAP = 1e8


@dataclass
class ChannelSet:
    """Complex gains between every radio unit and every UE.

    `gains` has shape (n_rus, n_ues) with UEs in global scenario order.
    A (slice, service) pair's channel is the block of the slice's RU rows
    and the service's UE columns, so a RU shared by two slices sees the
    same physical channel in both.
    """

    gains: np.ndarray


def build_channels(sc: Scenario) -> ChannelSet:
    """Sample small-scale fading and combine with distance-based gain.

    Deterministic in the scenario: the fading seed is stored in the
    scenario's channel model.
    """
    rng = np.random.default_rng(sc.channel.seed)
    d = sc.ru_ue_distances()
    large = sc.channel.gain(d)
    small = (rng.standard_normal(d.shape)
             + 1j * rng.standard_normal(d.shape)) / np.sqrt(2.0)
    return ChannelSet(gains=np.sqrt(large) * small)


def zf_beamformer(h: np.ndarray) -> tuple[np.ndarray, dict[int, str]]:
    """Zero-forcing precoders W = H (H^H H)^(-1) for a stack of R x U
    channels, shape (n, R, U), with one product, condition number and
    inverse call each for the whole stack.

    Member g satisfies H^H W = I when R >= U and its normal matrix is
    well conditioned.  Returns the stacked precoders and, for each member
    that has none (its precoder is left zero), the reason.
    """
    h = np.asarray(h, dtype=complex)
    n, n_rus, n_ues = h.shape
    w = np.zeros_like(h)
    if n_rus < n_ues:
        return w, dict.fromkeys(
            range(n), f"{n_rus} radio units cannot zero-force {n_ues} UEs")
    normal = h.conj().transpose(0, 2, 1) @ h
    errors: dict[int, str] = {}
    good = np.ones(n, dtype=bool)
    if n_ues > 0:
        cond = np.linalg.cond(normal)
        good = np.isfinite(cond) & (cond <= CONDITION_CAP)
        errors = {int(g): f"channel normal matrix condition {cond[g]:.3g} "
                          f"exceeds {CONDITION_CAP:.0e}"
                  for g in np.flatnonzero(~good)}
    keep = slice(None) if good.all() else good      # a view, not a copy
    w[keep] = h[keep] @ np.linalg.inv(normal[keep])
    return w, errors


@dataclass
class BeamformerSet:
    """Zero-forcing precoders for every mappable (slice, service) pair,
    and the mapping-linear coefficients built from them.

    `w[(slice_id, service_id)]` is the R_s x U_v precoder;
    `unmappable[(slice_id, service_id)]` records why a pair has none.
    The coefficient arrays (`gain` and `w2` are zero wherever a pair has
    no precoder):

    * `slot_slice[k]`, `slot_ru[k]` and `slot_sigma[k]` are the slice,
      the RU id and the RU's quantization noise variance of (slice, RU)
      slot k, in `Scenario.ru_slots()` order;
    * `leak[n]` is, per unit transmit power, the PRB-overlap weighted
      leakage of pair (s, v)'s streams into UE u, excluding the UE's own
      stream, where (s, v, u) is row n of `leak_rows`.  Rows are sorted
      and exist only where u shares a PRB of slice s with a UE of a
      mappable v, so a dedicated-PRB scenario stores none;
    * `quant[s, u]` is the sum over the RUs r of slice s of
      sigma_r |h_{r,u}|^2;
    * `gain[s, u]` is UE u's own-stream |h^H w|^2 through slice s;
    * `w2[k, u]` is |w|^2 of UE u at slot k, whether mapped or not.
    """

    w: dict[tuple[int, int], np.ndarray]
    unmappable: dict[tuple[int, int], str]
    slot_slice: np.ndarray        # (n_slots,)
    slot_ru: np.ndarray           # (n_slots,)
    slot_sigma: np.ndarray        # (n_slots,)
    leak_rows: np.ndarray         # (n_leak, 3): slice, service, victim UE
    leak: np.ndarray              # (n_leak,)
    quant: np.ndarray             # (n_slices, n_ues)
    gain: np.ndarray              # (n_slices, n_ues)
    w2: np.ndarray                # (n_slots, n_ues)


def _run_starts(key: np.ndarray) -> np.ndarray:
    """Mask of the entries of a sorted key array that start a run of
    equal keys."""
    first = np.ones(key.size, dtype=bool)
    first[1:] = key[1:] != key[:-1]
    return first


def _prb_sharing_pairs(sc: Scenario) -> np.ndarray:
    """Rows (slice, victim UE, source UE, shared PRB count), sorted, for
    every ordered pair of distinct UEs that may both use some PRB of the
    slice; found by grouping the eligibility triples on (slice, PRB)."""
    t = sc.prb_assignment.triples
    t = t[np.lexsort((t[:, 0], t[:, 1], t[:, 2]))]   # by slice, PRB, UE
    start = np.flatnonzero(_run_starts(t[:, 2] * sc.prb_assignment.n_prbs
                                       + t[:, 1]))
    size = np.diff(np.append(start, len(t)))
    start, size = start[size > 1], size[size > 1]
    # a group of n rows gives n * n (victim, source) offsets, n of them equal
    sq = size * size
    grp = np.repeat(np.arange(size.size), sq)
    i, k = np.divmod(np.arange(grp.size) - np.repeat(np.cumsum(sq) - sq, sq),
                     size[grp])
    first = start[grp[i != k]]
    n = sc.n_ues
    key = ((t[first, 2] * n + t[first + i[i != k], 0]) * n
           + t[first + k[i != k], 0])
    key = key[np.argsort(key, kind="stable")]
    runs = np.flatnonzero(_run_starts(key))
    key, counts = key[runs], np.diff(np.append(runs, key.size))
    return np.column_stack([key // (n * n), key // n % n, key % n, counts])


def _leakage(sc: Scenario, ch: ChannelSet,
             w: dict[tuple[int, int], np.ndarray], mappable: np.ndarray,
             first_ue: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """`BeamformerSet.leak_rows` and `leak`, built only for the (slice,
    service) pairs with a precoder (`mappable[s, v]`) whose UEs share a
    PRB with some UE.  `first_ue[v]` is service v's first UE index."""
    share = _prb_sharing_pairs(sc)
    service = sc.ue_service[share[:, 2]]
    keep = mappable[share[:, 0], service]
    share, service = share[keep], service[keep]
    order = np.lexsort((share[:, 1], service, share[:, 0]))
    share, service = share[order], service[order]
    pair_key = share[:, 0] * sc.n_services + service
    key = pair_key * sc.n_ues + share[:, 1]
    first = _run_starts(key)                     # first entry of each row
    bounds = np.append(np.flatnonzero(_run_starts(pair_key)), len(share))
    leak, last = [], -1
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        s, v = int(share[lo, 0]), int(service[lo])
        if s != last:
            last, h_conj = s, ch.gains[list(sc.slices[s].ru_ids)].conj().T
        pair = share[lo:hi]
        counts = np.zeros((sc.n_ues, sc.services[v].n_ues))
        counts[pair[:, 1], pair[:, 2] - first_ue[v]] = pair[:, 3]
        # products for all U rows, not only the victims: the matrix
        # product rounds by shape, so a coefficient does not depend on
        # which other UEs share a PRB
        cross = np.abs(h_conj @ w[(s, v)]) ** 2 * counts
        leak.append(cross[pair[first[lo:hi], 1]].sum(axis=1))
    key = key[first]
    rows = np.column_stack([key // sc.n_ues // sc.n_services,
                            key // sc.n_ues % sc.n_services,
                            key % sc.n_ues])
    return rows, np.concatenate(leak) if leak else np.zeros(0)


def build_beamformers(sc: Scenario, ch: ChannelSet) -> BeamformerSet:
    """Precoders and coefficients of a `BeamformerSet`.

    The (slice, service) pairs are zero-forced in one stack per channel
    shape (R_s, U_v).  Leakage is formed only for ordered UE pairs that
    share a PRB of the slice, so without such pairs it costs nothing.
    """
    n_ues, n_services = sc.n_ues, sc.n_services
    slots = np.array(sc.ru_slots(), dtype=int).reshape(-1, 3)
    slot_sigma = np.array([sc.rus[rid].sigma_q2 for rid in slots[:, 2]])
    first_slot = np.cumsum([0] + [sl.n_rus for sl in sc.slices])
    quant = np.zeros((sc.n_slices, n_ues))
    gain = np.zeros((sc.n_slices, n_ues))
    w2 = np.zeros((len(slots), n_ues))
    with np.errstate(over="ignore"):        # noise beyond range drowns UEs
        for sl in sc.slices:
            sigma = slot_sigma[first_slot[sl.id]:first_slot[sl.id + 1]]
            quant[sl.id] = sigma @ np.abs(ch.gains[list(sl.ru_ids)]) ** 2

    # UEs are in service order: service v's are first_ue[v], first_ue[v]+1..
    first_ue = np.cumsum([0] + [sv.n_ues for sv in sc.services])
    shapes: dict[tuple[int, int], list[tuple[int, int]]] = {}
    for sl in sc.slices:
        for sv in sc.services:
            shapes.setdefault((sl.n_rus, sv.n_ues), []).append((sl.id, sv.id))
    found: dict[tuple[int, int], np.ndarray | str] = {}
    mappable = np.zeros((sc.n_slices, n_services), dtype=bool)
    for (n_rus, n_cols), members in shapes.items():
        s_of, v_of = np.array(members).T
        ru = np.array([sc.slices[s].ru_ids for s in s_of], dtype=int)
        cols = first_ue[v_of, None] + np.arange(n_cols)
        h = ch.gains[ru[:, :, None], cols[:, None, :]]
        w_stack, errors = zf_beamformer(h)
        found.update(zip(members, w_stack))
        found.update((members[g], text) for g, text in errors.items())
        ok = np.ones(len(members), dtype=bool)
        ok[list(errors)] = False
        mappable[s_of[ok], v_of[ok]] = True
        gain[s_of[ok, None], cols[ok]] = np.abs(
            np.einsum("gru,gru->gu", h[ok].conj(), w_stack[ok])) ** 2
        slot_rows = first_slot[s_of[ok], None] + np.arange(n_rus)
        w2[slot_rows[:, :, None], cols[ok, None, :]] = np.abs(
            w_stack[ok]) ** 2
    w: dict[tuple[int, int], np.ndarray] = {}
    unmappable: dict[tuple[int, int], str] = {}
    for (s, v), got in sorted(found.items()):
        if isinstance(got, str):
            unmappable[(s, v)] = f"{got} for slice {s}, service {v}"
        else:
            w[(s, v)] = got
    leak_rows, leak = _leakage(sc, ch, w, mappable, first_ue)
    return BeamformerSet(w=w, unmappable=unmappable, slot_slice=slots[:, 0],
                         slot_ru=slots[:, 2], slot_sigma=slot_sigma,
                         leak_rows=leak_rows, leak=leak,
                         quant=quant, gain=gain, w2=w2)


@dataclass
class SliceMapping:
    """Service-to-slice assignment matrix a[v, s] in {0, 1}."""

    a: np.ndarray                 # shape (n_services, n_slices), int8

    def __post_init__(self):
        self.a = np.ascontiguousarray(self.a, dtype=np.int8)

    @classmethod
    def empty(cls, sc: Scenario) -> "SliceMapping":
        return cls(a=np.zeros((sc.n_services, sc.n_slices), dtype=np.int8))

    def covered(self) -> np.ndarray:
        return self.a.sum(axis=1) >= 1


@dataclass
class PowerAllocation:
    """Per-UE transmit powers p[u] >= 0 in global UE order, W."""

    p: np.ndarray

    def __post_init__(self):
        self.p = np.ascontiguousarray(self.p, dtype=float)

    @classmethod
    def uniform(cls, sc: Scenario, level: float) -> "PowerAllocation":
        return cls(p=np.full(sc.n_ues, float(level)))


# --------------------------------------------------------------------------
# Interference
# --------------------------------------------------------------------------


def interference_upper_bound(sc: Scenario, mapping: SliceMapping,
                             ch: ChannelSet, bf: BeamformerSet) -> np.ndarray:
    """Worst-case co-channel interference per UE, W.

    Three contributions per victim UE i of service v:

    * leakage from other UEs of the same service through any slice
      mapped to v, counted once per PRB both UEs share in that slice
      (numerically ~0 under exact zero-forcing, kept for fidelity);
    * leakage from UEs of other services y through any slice mapped to
      y, again gated by shared PRBs of that slice;
    * quantization noise of every RU of every slice mapped to v, scaled
      by the victim's channel gain to that RU.

    Every interfering transmit power is replaced by the per-RU cap, so
    the result does not depend on the power allocation.  The leakage sum
    runs over the stored PRB-sharing rows only, adding them per UE in
    (slice, service) order.
    """
    a = mapping.a
    s, v, u = bf.leak_rows.T
    leakage = np.bincount(u, weights=a[v, s] * bf.leak, minlength=sc.n_ues)
    return (sc.params.p_max * leakage
            + np.einsum("us,su->u", a[sc.ue_service], bf.quant))


# --------------------------------------------------------------------------
# Signal model
# --------------------------------------------------------------------------


def beam_gains(sc: Scenario, mapping: SliceMapping, ch: ChannelSet,
               bf: BeamformerSet) -> np.ndarray:
    """Per-UE sum of |h^H w|^2 over the slices mapped to the UE's service.

    Under exact zero-forcing each mapped slice contributes 1, so the
    value counts mapped slices; computed from the actual products so
    imperfect conditioning shows up honestly.
    """
    return np.einsum("us,su->u", mapping.a[sc.ue_service], bf.gain)


def achievable_rate(rho: float | np.ndarray,
                    bandwidth_hz: float) -> float | np.ndarray:
    """Shannon rate B log2(1 + rho) in bit/s; rho must be >= 0."""
    rho_arr = np.asarray(rho, dtype=float)
    if np.any(rho_arr < 0):
        raise ValueError("SINR must be nonnegative")
    out = bandwidth_hz * np.log2(1.0 + rho_arr)
    return float(out) if np.isscalar(rho) else out


def ue_rates(sc: Scenario, mapping: SliceMapping, ch: ChannelSet,
             bf: BeamformerSet, powers: PowerAllocation,
             interference: np.ndarray) -> np.ndarray:
    """Vector of per-UE rates under the given interference budget."""
    gains = beam_gains(sc, mapping, ch, bf)
    noise = sc.params.bandwidth_hz * sc.params.noise_psd
    rho = powers.p * gains / (noise + interference)
    return achievable_rate(rho, sc.params.bandwidth_hz)


# --------------------------------------------------------------------------
# RU power and fronthaul
# --------------------------------------------------------------------------


def slot_weight_matrix(sc: Scenario, mapping: SliceMapping,
                       bf: BeamformerSet) -> np.ndarray:
    """weights[slot, u] = |w|^2 of UE u at that (slice, RU) slot.

    Only (slice, service) pairs that are actually mapped contribute, so
    `weights @ p + sigma_q2` yields every slot's transmit power at once.
    """
    return bf.w2 * mapping.a[sc.ue_service][:, bf.slot_slice].T


def ru_powers_all(sc: Scenario, mapping: SliceMapping, bf: BeamformerSet,
                  powers: PowerAllocation) -> np.ndarray:
    """Vector of every (slice, RU) slot's transmit power, W."""
    return slot_weight_matrix(sc, mapping, bf) @ powers.p + bf.slot_sigma


def fronthaul_rates_all(bf: BeamformerSet, p_bar: np.ndarray) -> np.ndarray:
    """Fronthaul load of every (slice, RU) slot at slot powers `p_bar`
    (from `ru_powers_all`), bit/s/Hz.

    log2 of one plus the ratio of beamformed signal power to the RU's
    quantization noise; equals log2(p_bar / sigma_q2) since the slot
    power is signal + quantization noise.  A ratio beyond the float range
    (a subnormal sigma_q2) reads as an infinite load, over any c_max.
    """
    sigma2 = bf.slot_sigma
    with np.errstate(over="ignore"):
        return np.log2(1.0 + (p_bar - sigma2) / sigma2)


# --------------------------------------------------------------------------
# Energy efficiency
# --------------------------------------------------------------------------


def energy_efficiency(sc: Scenario, mapping: SliceMapping, ch: ChannelSet,
                      bf: BeamformerSet, powers: PowerAllocation,
                      ) -> tuple[float, float, float]:
    """(eta, total_rate, total_power) for the whole system.

    Rates use the interference upper bound; total power sums every
    (slice, RU) slot.
    """
    interference = interference_upper_bound(sc, mapping, ch, bf)
    rates = ue_rates(sc, mapping, ch, bf, powers, interference)
    r_tot = float(rates.sum())
    p_tot = float(ru_powers_all(sc, mapping, bf, powers).sum())
    return (r_tot / p_tot if p_tot > 0 else 0.0, r_tot, p_tot)
