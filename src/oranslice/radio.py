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

With the precoders fixed, every radio quantity is a sum over the mapped
(slice, service) pairs.  The `BeamformerSet` of a (scenario, channels)
holds each pair's share, computed the first time the pair is read.  A
`MappingEvaluator` adds up the shares of one mapping's pairs, one pair at
a time: it gives UE rates and slot powers at any powers, and the mapping
sweep extends it by one candidate pair at the cost of that pair alone.
"""

from __future__ import annotations

import functools
from collections.abc import Mapping
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .queueing import layer_delays, slice_sums
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
    d = sc.ru_ue_distances
    large = sc.channel.gain(d)
    small = (rng.standard_normal(d.shape)
             + 1j * rng.standard_normal(d.shape)) / np.sqrt(2.0)
    return ChannelSet(gains=np.sqrt(large) * small)


def zf_beamformer(h: np.ndarray) -> tuple[np.ndarray | None, str | None]:
    """Zero-forcing precoder W = H (H^H H)^(-1) of an R x U channel.

    H^H W = I when R >= U and the normal matrix is well conditioned: the
    ratio of the Hermitian normal matrix's extreme eigenvalues is at most
    CONDITION_CAP.  Returns (W, None), or (None, the reason) when the
    channel has no precoder.
    """
    h = np.asarray(h, dtype=complex)
    n_rus, n_ues = h.shape
    if n_rus < n_ues:
        return None, f"{n_rus} radio units cannot zero-force {n_ues} UEs"
    normal = h.conj().T @ h
    if n_ues > 0:
        lam = np.linalg.eigvalsh(normal)            # ascending
        lo, hi = lam[0], lam[-1]
        if not (lo > 0 and hi <= CONDITION_CAP * lo):
            with np.errstate(over="ignore"):
                cond = hi / lo if lo > 0 else np.inf
            return None, (f"channel normal matrix condition {cond:.3g} "
                          f"exceeds {CONDITION_CAP:.0e}")
    return h @ np.linalg.inv(normal), None


class PairTable(Mapping):
    """A read-only per-(slice, service) table of a `BeamformerSet`.
    Looking a pair up zero-forces it first; iterating zero-forces every
    pair."""

    def __init__(self, bf: "BeamformerSet", table: dict):
        self._bf, self._table = bf, table

    def __contains__(self, pair) -> bool:
        self._bf.read(pair)
        return pair in self._table

    def __getitem__(self, pair):
        self._bf.read(pair)
        return self._table[pair]

    def __iter__(self):
        for pair in np.ndindex(self._bf.built.shape):
            self._bf.read(pair)
        return iter(sorted(self._table))

    def __len__(self) -> int:
        return sum(1 for _ in self)


class BeamformerSet:
    """Zero-forcing precoders of the (slice, service) pairs, and the
    mapping-linear coefficients built from them.

    A pair is zero-forced the first time something reads it: a lookup in
    `w`, `w2` or `unmappable` (iterating one reads every pair), or
    `leakage`, which `MappingEvaluator` calls on each pair it adds.
    `built[s, v]` marks the pairs done.

    `w[(slice_id, service_id)]` is the R_s x U_v precoder and
    `w2[(slice_id, service_id)]` its entries' |w|^2;
    `unmappable[(slice_id, service_id)]` records why a pair has none.
    The coefficient arrays (`gain` is zero wherever a pair has no
    precoder or is not built yet):

    * `slot_slice[k]`, `slot_ru[k]` and `slot_sigma[k]` are the slice,
      the RU id and the RU's quantization noise variance of (slice, RU)
      slot k, in `Scenario.ru_slots()` order;
    * slice s's slots are `first_slot[s]` up to `first_slot[s + 1]`;
    * `leak[(s, v)]` is (victims, values): per unit transmit power, the
      PRB-overlap weighted leakage of pair (s, v)'s streams into each
      victim UE, excluding the UE's own stream, victims ascending.  Only
      built pairs with a precoder whose UEs share a PRB of slice s with
      some UE have an entry, so a dedicated-PRB scenario stores none;
    * `quant[s, u]` is the sum over the RUs r of slice s of
      sigma_r |h_{r,u}|^2;
    * `gain[s, u]` is UE u's own-stream |h^H w|^2 through slice s.
    """

    def __init__(self, sc: Scenario, ch: ChannelSet):
        self.sc, self.ch = sc, ch
        ru_ids = [sl.ru_ids for sl in sc.slices]
        n_rus = np.fromiter(map(len, ru_ids), int, sc.n_slices)
        self.first_slot = first = np.concatenate([[0], np.cumsum(n_rus)])
        self.slot_slice = np.repeat(np.arange(sc.n_slices), n_rus)
        self.slot_ru = np.fromiter(chain.from_iterable(ru_ids), int,
                                   first[-1])
        self.slot_sigma = sigma = np.array(
            [ru.sigma_q2 for ru in sc.rus])[self.slot_ru]
        self.quant = np.zeros((sc.n_slices, sc.n_ues))
        with np.errstate(over="ignore"):    # noise beyond range drowns UEs
            g2 = np.abs(ch.gains) ** 2
            for s in range(sc.n_slices):
                rus = slice(first[s], first[s + 1])
                self.quant[s] = sigma[rus] @ g2[self.slot_ru[rus]]
        self.gain = np.zeros((sc.n_slices, sc.n_ues))
        self._sharing, self._sharing_at = _prb_sharing_pairs(sc)
        self.built = np.zeros((sc.n_slices, sc.n_services), dtype=bool)
        self.leak: dict[tuple[int, int], tuple[np.ndarray, np.ndarray]] = {}
        self._w: dict[tuple[int, int], np.ndarray] = {}
        self._w2: dict[tuple[int, int], np.ndarray] = {}
        self._unmappable: dict[tuple[int, int], str] = {}

    # views made on each access, so the set holds no reference cycle and
    # its arrays are freed as soon as the last caller drops it
    @property
    def w(self) -> PairTable:
        return PairTable(self, self._w)

    @property
    def w2(self) -> PairTable:
        return PairTable(self, self._w2)

    @property
    def unmappable(self) -> PairTable:
        return PairTable(self, self._unmappable)

    def read(self, pair) -> None:
        """Zero-force `pair` = (slice, service) unless it is built or not
        a pair of the scenario."""
        s, v = pair
        n_slices, n_services = self.built.shape
        if 0 <= s < n_slices and 0 <= v < n_services and not self.built[s, v]:
            self._zero_force(int(s), int(v))

    def leakage(self, s: int, v: int) -> tuple[np.ndarray, np.ndarray]:
        """`leak[(s, v)]`, or two empty arrays if the pair has none."""
        self.read((s, v))
        return self.leak.get((s, v), _NO_LEAK)

    def _zero_force(self, s: int, v: int) -> None:
        sc, ch = self.sc, self.ch
        self.built[s, v] = True
        ues = slice(sc.first_ue[v], sc.first_ue[v + 1])
        rus = self.slot_ru[self.first_slot[s]:self.first_slot[s + 1]]
        h = ch.gains[rus, ues]
        w, why = zf_beamformer(h)
        if w is None:
            self._unmappable[(s, v)] = f"{why} for slice {s}, service {v}"
            return
        self._w[(s, v)] = w
        self.gain[s, ues] = np.abs(np.einsum("ru,ru->u", h.conj(), w)) ** 2
        self._w2[(s, v)] = np.abs(w) ** 2
        at = s * sc.n_services + v
        rows = self._sharing[self._sharing_at[at]:self._sharing_at[at + 1]]
        if rows.size:
            counts = np.zeros((sc.n_ues, sc.services[v].n_ues))
            counts[rows[:, 1], rows[:, 2] - ues.start] = rows[:, 3]
            # products for all U rows, not only the victims: the matrix
            # product rounds by shape, so a coefficient does not depend on
            # which other UEs share a PRB
            cross = np.abs(ch.gains[rus].conj().T @ w) ** 2 * counts
            victims = rows[_run_starts(rows[:, 1]), 1]
            self.leak[(s, v)] = (victims, cross[victims].sum(axis=1))


_NO_LEAK = (np.zeros(0, dtype=int), np.zeros(0))


def _run_starts(key: np.ndarray) -> np.ndarray:
    """Mask of the entries of a sorted key array that start a run of
    equal keys."""
    first = np.ones(key.size, dtype=bool)
    first[1:] = key[1:] != key[:-1]
    return first


def _prb_sharing_pairs(sc: Scenario) -> tuple[np.ndarray, np.ndarray]:
    """Rows (slice, victim UE, source UE, shared PRB count) for every
    ordered pair of distinct UEs that may both use some PRB of the slice,
    found by grouping the eligibility triples on (slice, PRB); sorted by
    slice, the source UE's service, victim and source.  Also the row
    offsets of each (slice, service) pair s * n_services + v."""
    t = sc.prb_assignment.triples
    n, n_pairs = sc.n_ues, sc.n_slices * sc.n_services
    none = (np.zeros((0, 4), dtype=np.int64),
            np.zeros(n_pairs + 1, dtype=np.intp))
    # the triples ascend by UE, then PRB: when the PRB indices ascend too,
    # rising at each new UE, every PRB index has one UE (dedicated PRBs)
    rise = np.diff(t[:, 1])
    if np.all((rise > 0) | (rise == 0) & (np.diff(t[:, 0]) == 0)):
        return none
    t = t[np.lexsort((t[:, 0], t[:, 1], t[:, 2]))]   # by slice, PRB, UE
    start = np.flatnonzero(_run_starts(t[:, 2] * sc.prb_assignment.n_prbs
                                       + t[:, 1]))
    size = np.diff(np.append(start, len(t)))
    start, size = start[size > 1], size[size > 1]
    if not size.size:             # no two UEs share a PRB of one slice
        return none
    # a group of n rows gives n * n (victim, source) offsets, n of them equal
    sq = size * size
    grp = np.repeat(np.arange(size.size), sq)
    i, k = np.divmod(np.arange(grp.size) - np.repeat(np.cumsum(sq) - sq, sq),
                     size[grp])
    first = start[grp[i != k]]
    source = t[first + k[i != k], 0]
    key = np.sort(((t[first, 2] * sc.n_services + sc.ue_service[source]) * n
                   + t[first + i[i != k], 0]) * n + source)
    runs = np.flatnonzero(_run_starts(key))
    key, counts = key[runs], np.diff(np.append(runs, key.size))
    pair = key // (n * n)
    share = np.column_stack([pair // sc.n_services, key // n % n, key % n,
                             counts])
    return share, np.searchsorted(pair, np.arange(n_pairs + 1))


def build_beamformers(sc: Scenario, ch: ChannelSet) -> BeamformerSet:
    """The `BeamformerSet` of a scenario and its channels: slot data and
    quantization noise now, each (slice, service) pair when first read.
    Leakage is formed only for ordered UE pairs that share a PRB of the
    slice, so without such pairs it costs nothing."""
    return BeamformerSet(sc, ch)


@dataclass
class SliceMapping:
    """Service-to-slice assignment matrix a[v, s] in {0, 1}."""

    a: np.ndarray                 # shape (n_services, n_slices), int8

    def __post_init__(self):
        self.a = np.ascontiguousarray(self.a, dtype=np.int8)

    def covered(self) -> np.ndarray:
        return self.a.sum(axis=1) >= 1

    def incidence(self, sc: Scenario) -> tuple[np.ndarray, np.ndarray]:
        """(UE, slice) index arrays, one entry per UE and slice serving
        the UE's service; each slice's UEs ascend."""
        v, s = np.divmod(np.flatnonzero(self.a != 0), self.a.shape[1])
        n = sc.first_ue[v + 1] - sc.first_ue[v]
        start = np.cumsum(n) - n                # of each pair's entries
        return (np.arange(n.sum()) + np.repeat(sc.first_ue[v] - start, n),
                np.repeat(s, n))


@dataclass
class PowerAllocation:
    """Per-UE transmit powers p[u] >= 0 in global UE order, W."""

    p: np.ndarray

    def __post_init__(self):
        self.p = np.ascontiguousarray(self.p, dtype=float)

    @classmethod
    def uniform(cls, sc: Scenario, level: float) -> "PowerAllocation":
        return cls(p=np.full(sc.n_ues, float(level)))


class MappingEvaluator:
    """The operating point of one mapping: the mapped pairs' shares of
    every radio quantity, added up one (slice, service) pair at a time.

    Per UE, `gain` is the own-stream |h^H w|^2 summed over the slices
    serving it; `quant` and `leak` are the quantization-noise and the
    per-unit-power PRB-sharing leakage parts of the interference bound
    (`interference`, which charges every interfering stream the per-RU
    cap).  `a` is the mapping matrix, `incidence` its
    `SliceMapping.incidence` and `delay_terms` its power-free delay
    terms.  `blocks` holds (slot rows, UE columns,
    |w|^2) of each mapped pair with a precoder, and `full` the slot
    powers that `at` gives with every UE at p_max, updated as each pair
    is added.  `extend` adds one pair in a copy, touching only that
    pair's UEs, its block and its leakage rows; a mapping's evaluator
    adds its pairs in (slice, service) order.
    """

    def __init__(self, sc: Scenario, bf: BeamformerSet,
                 mapping: SliceMapping | None = None):
        self.sc, self.bf = sc, bf
        self.a = np.zeros((sc.n_services, sc.n_slices), dtype=np.int8)
        self.blocks: list[tuple[slice, slice, np.ndarray]] = []
        self.gain, self.quant, self.leak = np.zeros((3, sc.n_ues))
        self.full = bf.slot_sigma.copy()
        if mapping is not None:
            for s, v in np.argwhere(mapping.a.T).tolist():
                self._add(s, v)

    @functools.cached_property
    def incidence(self) -> tuple[np.ndarray, np.ndarray]:
        return SliceMapping(a=self.a).incidence(self.sc)

    @functools.cached_property
    def delay_terms(self) -> tuple:
        """(served, active, alpha, du, cu, unstable): the UEs whose
        service is mapped, the slices serving a service, each slice's
        pooled packet arrivals, and `layer_delays` of those arrivals."""
        sc, a = self.sc, self.a
        alpha = slice_sums(sc.arrival_rates, self.incidence, sc.n_slices)
        return (a.any(axis=1)[sc.ue_service], a.any(axis=0), alpha,
                *layer_delays(sc, alpha))

    @functools.cached_property
    def interference(self) -> np.ndarray:
        """Worst-case co-channel interference per UE, W."""
        return self.sc.params.p_max * self.leak + self.quant

    def extend(self, s: int, v: int) -> "MappingEvaluator":
        """A copy with service v also on slice s."""
        new = MappingEvaluator(self.sc, self.bf)
        for name in ("a", "blocks", "gain", "quant", "leak", "full"):
            setattr(new, name, getattr(self, name).copy())
        new._add(s, v)
        return new

    def _add(self, s: int, v: int) -> None:
        sc, bf = self.sc, self.bf
        victims, values = bf.leakage(s, v)          # zero-forces the pair
        ues = slice(sc.first_ue[v], sc.first_ue[v + 1])
        self.a[v, s] = 1
        self.leak[victims] += values
        self.quant[ues] += bf.quant[s, ues]
        self.gain[ues] += bf.gain[s, ues]
        w2 = bf.w2.get((s, v))
        if w2 is not None:
            rows = slice(bf.first_slot[s], bf.first_slot[s + 1])
            self.blocks.append((rows, ues, w2))
            # a p_max near the float limit overflows to an infinite slot
            # power, which the RU power cap rejects
            with np.errstate(over="ignore"):
                self.full[rows] += w2 @ np.full(w2.shape[1], sc.params.p_max)

    def at(self, p: np.ndarray | None = None,
           ) -> tuple[np.ndarray, np.ndarray]:
        """(UE rates in bit/s, slot powers in W) at UE powers `p`, under
        the interference bound; None puts every UE at p_max.  Rates are
        B log2(1 + p g / (noise + interference))."""
        params = self.sc.params
        power = np.full(self.sc.n_ues, params.p_max) if p is None else p
        with np.errstate(over="ignore"):    # p_max near the float limit
            rates = params.bandwidth_hz * np.log2(1.0 + power * self.gain / (
                params.bandwidth_hz * params.noise_psd + self.interference))
        if p is None:
            return rates, self.full
        slots = self.bf.slot_sigma.copy()
        for rows, ues, w2 in self.blocks:
            slots[rows] += w2 @ p[ues]
        return rates, slots

    def price(self, y: np.ndarray) -> np.ndarray:
        """Per UE u, the sum over slots k of |w|^2 y[k] (W^T y)."""
        out = np.zeros(self.sc.n_ues)
        for rows, ues, w2 in self.blocks:
            out[ues] += y[rows] @ w2
        return out

    def weight_rows(self, keep: np.ndarray) -> np.ndarray:
        """The dense |w|^2 rows of the slots marked `keep`, slots x UEs,
        column-major."""
        out, at = np.zeros((self.sc.n_ues, keep.sum())), np.cumsum(keep) - 1
        for rows, ues, w2 in self.blocks:
            out[ues, at[rows][keep[rows]]] = w2[keep[rows]].T
        return out.T


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
    runs over the stored PRB-sharing rows of the mapped pairs only,
    adding them per UE in (slice, service) order.
    """
    return MappingEvaluator(sc, bf, mapping).interference


def fronthaul_rates_all(bf: BeamformerSet, p_bar: np.ndarray) -> np.ndarray:
    """Fronthaul load of every (slice, RU) slot at slot powers `p_bar`,
    bit/s/Hz.

    log2 of one plus the ratio of beamformed signal power to the RU's
    quantization noise; equals log2(p_bar / sigma_q2) since the slot
    power is signal + quantization noise.  A ratio beyond the float range
    (a subnormal sigma_q2) reads as an infinite load, over any c_max.
    """
    sigma2 = bf.slot_sigma
    with np.errstate(over="ignore"):
        return np.log2(1.0 + (p_bar - sigma2) / sigma2)

