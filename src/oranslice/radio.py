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


class SingularChannelError(ValueError):
    """Channel matrix cannot support zero-forcing for the requested pair."""


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
    ru_pos = sc.ru_positions()
    ue_pos = sc.ue_positions()
    d = np.linalg.norm(ru_pos[:, None, :] - ue_pos[None, :, :], axis=2)
    large = sc.channel.gain(d)
    small = (rng.standard_normal(d.shape)
             + 1j * rng.standard_normal(d.shape)) / np.sqrt(2.0)
    return ChannelSet(gains=np.sqrt(large) * small)


def zf_beamformer(channel_matrix: np.ndarray,
                  pair: tuple[int, int] | None = None) -> np.ndarray:
    """Zero-forcing precoder W = H (H^H H)^(-1) for an R x U channel.

    Satisfies H^H W = I when R >= U and the normal matrix is well
    conditioned.  Raises SingularChannelError otherwise; `pair` only
    decorates the error message with the (slice, service) involved.
    """
    h = np.asarray(channel_matrix, dtype=complex)
    if h.ndim != 2:
        raise SingularChannelError("channel matrix must be 2-D")
    n_rus, n_ues = h.shape
    label = "" if pair is None else f" for slice {pair[0]}, service {pair[1]}"
    if n_rus < n_ues:
        raise SingularChannelError(
            f"{n_rus} radio units cannot zero-force {n_ues} UEs{label}")
    normal = h.conj().T @ h
    if n_ues > 0:
        cond = np.linalg.cond(normal)
        if not np.isfinite(cond) or cond > CONDITION_CAP:
            raise SingularChannelError(
                f"channel normal matrix condition {cond:.3g} exceeds "
                f"{CONDITION_CAP:.0e}{label}")
    return h @ np.linalg.inv(normal)


@dataclass
class BeamformerSet:
    """Zero-forcing precoders for every mappable (slice, service) pair,
    and the mapping-linear coefficients built from them.

    `w[(slice_id, service_id)]` is the R_s x U_v precoder;
    `unmappable[(slice_id, service_id)]` records why a pair has none.
    The coefficient arrays (`leak`, `gain` and `w2` are zero wherever a
    pair has no precoder):

    * `slot_slice[k]`, `slot_ru[k]` and `slot_sigma[k]` are the slice,
      the RU id and the RU's quantization noise variance of (slice, RU)
      slot k, in `Scenario.ru_slots()` order;
    * `leak[s, v, u]` is, per unit transmit power, the PRB-overlap
      weighted leakage of pair (s, v)'s streams into UE u, excluding
      the UE's own stream;
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
    leak: np.ndarray              # (n_slices, n_services, n_ues)
    quant: np.ndarray             # (n_slices, n_ues)
    gain: np.ndarray              # (n_slices, n_ues)
    w2: np.ndarray                # (n_slots, n_ues)


def build_beamformers(sc: Scenario, ch: ChannelSet) -> BeamformerSet:
    n_ues = sc.n_ues
    slots = np.array(sc.ru_slots(), dtype=int).reshape(-1, 3)
    slot_sigma = np.array([sc.rus[rid].sigma_q2 for rid in slots[:, 2]])
    w: dict[tuple[int, int], np.ndarray] = {}
    unmappable: dict[tuple[int, int], str] = {}
    leak = np.zeros((sc.n_slices, sc.n_services, n_ues))
    quant = np.zeros((sc.n_slices, n_ues))
    gain = np.zeros((sc.n_slices, n_ues))
    w2 = np.zeros((len(slots), n_ues))
    triples = sc.prb_assignment.triples
    service_cols = [sc.service_ue_indices(sv.id) for sv in sc.services]
    first_slot = 0
    for sl in sc.slices:
        h = ch.gains[list(sl.ru_ids)]
        rows = slice(first_slot, first_slot + sl.n_rus)
        first_slot += sl.n_rus
        quant[sl.id] = slot_sigma[rows] @ np.abs(h) ** 2
        ue, prb = triples[triples[:, 2] == sl.id, :2].T
        # one column per PRB the slice owns; validate() rejects other rows
        col = {k: j for j, k in enumerate(sl.prb_ids)}
        z = np.zeros((n_ues, len(col)))
        z[ue, [col[k] for k in prb.tolist()]] = 1.0
        shared = z @ z.T          # PRBs of this slice both UEs may use
        for sv, cols in zip(sc.services, service_cols):
            pair = (sl.id, sv.id)
            h_pair = h[:, cols]
            try:
                w_pair = zf_beamformer(h_pair, pair=pair)
            except SingularChannelError as exc:
                unmappable[pair] = str(exc)
                continue
            w[pair] = w_pair
            gain[sl.id, cols] = np.abs(
                np.einsum("ru,ru->u", h_pair.conj(), w_pair)) ** 2
            cross = np.abs(h.conj().T @ w_pair) ** 2 * shared[:, cols]
            cross[cols, np.arange(len(cols))] = 0.0
            leak[sl.id, sv.id] = cross.sum(axis=1)
            w2[rows, cols] = np.abs(w_pair) ** 2
    return BeamformerSet(w=w, unmappable=unmappable, slot_slice=slots[:, 0],
                         slot_ru=slots[:, 2], slot_sigma=slot_sigma,
                         leak=leak, quant=quant, gain=gain, w2=w2)


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
    the result does not depend on the power allocation.
    """
    a = mapping.a
    return (sc.params.p_max * np.einsum("vs,svu->u", a, bf.leak)
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
    power is signal + quantization noise.
    """
    sigma2 = bf.slot_sigma
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
