"""Scenario model for a sliced ORAN downlink.

A scenario bundles everything the solvers need: system-wide radio and
queueing parameters, services with their user equipments (UEs), network
slices (radio units, PRBs, VNF chains), PRB eligibility as (ue, prb,
slice) index triples, and the data centers that host VNFs.  Scenarios
are plain data: generation, validation and (de)serialization live here,
all physics lives elsewhere.

Units are SI throughout the radio/queueing side (W, Hz, bit/s, s,
packet/s, m).  Compute resources follow the slicing literature's habit:
memory in GB, storage in TB, CPU in GHz.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
from dataclasses import dataclass, field, asdict
from typing import Optional

import numpy as np

SCHEMA_VERSION = 1

# Largest mean numpy's Poisson sampler accepts; it raises above it.
POISSON_LAM_MAX = (np.iinfo(np.int64).max
                   - 10 * np.sqrt(np.iinfo(np.int64).max))

# Largest service and slice counts the generator accepts.  The radio
# coefficients grow as slices x RUs x UEs, so a count far beyond the
# largest studied instance (96 services, 97 slices) is a typo, not a
# request; it exits with a message instead of exhausting memory.
N_SERVICES_MAX = 1000
N_SLICES_MAX = 1000

# Fixed unit declarations written into every scenario file so readers do
# not have to guess.  Values are strings, purely documentary.
UNITS = {
    "power": "W",
    "bandwidth": "Hz",
    "noise_psd": "W/Hz",
    "rate": "bit/s",
    "fronthaul": "bit/s/Hz",
    "delay": "s",
    "arrival": "packet/s",
    "service_rate": "packet/s",
    "position": "m",
    "memory": "GB",
    "storage": "TB",
    "cpu": "GHz",
}


class ScenarioError(ValueError):
    """Raised when a scenario or generator config is structurally invalid."""


def is_real(x) -> bool:
    """True for a finite int or float that is not a bool (JSON true/false)."""
    if (isinstance(x, (bool, np.bool_))
            or not isinstance(x, (int, float, np.integer, np.floating))):
        return False
    try:
        return math.isfinite(x)
    except OverflowError:                 # an int beyond the float range
        return False


# --------------------------------------------------------------------------
# Core value types
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class SystemParams:
    """System-wide constants shared by every slice and service."""

    bandwidth_hz: float = 120e3          # per-UE bandwidth B
    noise_psd: float = 10 ** (-174 / 10) * 1e-3   # N0, -174 dBm/Hz in W/Hz
    p_max: float = 10.0                  # per-RU transmit power cap, 40 dBm
    r_min: float = 10.0 * 120e3          # per-UE minimum rate, 10 bit/s/Hz * B
    c_max: float = 200.0                 # fronthaul capacity cap, bit/s/Hz
    d_max: float = 300e-6                # per-slice delay budget, 300 usec
    mu1: float = 1e4                     # DU-layer VNF service rate, packet/s
    mu2: float = 1e4                     # CU-layer VNF service rate, packet/s
    nu: float = 0.0                      # admission weight in the placement objective
    sigma_q_default: float = 1e-4 * 10.0  # default quantization noise variance, W
    packet_size_bits: float = 1.0        # payload per queueing packet, bits

    def __post_init__(self):
        for name, value in asdict(self).items():
            if not is_real(value):
                raise ScenarioError(f"SystemParams.{name} must be finite "
                                    f"and numeric, got {value!r}")
        for name in ("bandwidth_hz", "noise_psd", "p_max", "r_min", "c_max",
                     "d_max", "mu1", "mu2", "sigma_q_default",
                     "packet_size_bits"):
            if getattr(self, name) <= 0:
                raise ScenarioError(f"SystemParams.{name} must be > 0")
        if self.nu < 0:
            raise ScenarioError("SystemParams.nu must be >= 0")


@dataclass(frozen=True)
class UserEquipment:
    id: int                       # unique within its service
    arrival_rate: float           # packet arrival rate, packet/s
    position: tuple[float, float]  # (x, y) in meters


@dataclass(frozen=True)
class Service:
    id: int
    ues: tuple[UserEquipment, ...]

    @property
    def n_ues(self) -> int:
        return len(self.ues)


@dataclass(frozen=True)
class RadioUnit:
    id: int
    position: tuple[float, float]
    sigma_q2: float               # quantization noise variance at this RU, W


@dataclass(frozen=True)
class VnfRequirement:
    memory_gb: float
    storage_tb: float
    cpu_ghz: float

    def __post_init__(self):
        if min(self.memory_gb, self.storage_tb, self.cpu_ghz) < 0:
            raise ScenarioError("VNF resource demands must be >= 0")


@dataclass(frozen=True)
class Slice:
    id: int
    ru_ids: tuple[int, ...]       # radio units owned by this slice
    prb_ids: tuple[int, ...]      # PRBs this slice may schedule
    m_du: int                     # number of DU-layer VNFs
    m_cu: int                     # number of CU-layer VNFs
    vnf_demands: tuple[VnfRequirement, ...]   # one entry per VNF, DU first

    @property
    def n_rus(self) -> int:
        return len(self.ru_ids)

    def total_demand(self) -> tuple[float, float, float]:
        """Summed (memory_gb, storage_tb, cpu_ghz) over the VNF chain."""
        mem = sum(v.memory_gb for v in self.vnf_demands)
        sto = sum(v.storage_tb for v in self.vnf_demands)
        cpu = sum(v.cpu_ghz for v in self.vnf_demands)
        return (mem, sto, cpu)


@dataclass(frozen=True)
class DataCenter:
    id: int
    memory_gb: float
    storage_tb: float
    cpu_ghz: float
    phi_idle: float               # power drawn once the DC hosts anything, W
    phi_per_unit: float           # power per unit of weighted demand, W


@dataclass(frozen=True)
class ChannelModel:
    """Distance-based large-scale fading plus seeded Rayleigh small-scale."""

    pl0: float = 1.0              # gain at the reference distance
    d0_m: float = 250.0           # reference distance
    d_min_m: float = 150.0        # near-field clamp: distances below are clipped
    exponent: float = 3.5         # path loss exponent
    seed: int = 0                 # small-scale fading seed

    def gain(self, distance_m: np.ndarray) -> np.ndarray:
        d = np.maximum(np.asarray(distance_m, dtype=float), self.d_min_m)
        return self.pl0 * (d / self.d0_m) ** (-self.exponent)


def path_gain_problem(pl0: float, d0_m: float, d_min_m: float,
                      exponent: float, prefix: str = "") -> str | None:
    """Why the gain pl0 * (max(d, d_min_m) / d0_m) ** -exponent of some
    distance d >= 0 can be negative or non-finite, or None.  Takes finite
    reals; field names in the message get `prefix` ("pl_" for the
    generator's fields)."""
    if not (d0_m > 0 and d_min_m > 0):   # a zero distance: infinite gain
        return f"{prefix}d0_m and {prefix}d_min_m must be > 0"
    if pl0 < 0 or exponent < 0:   # negative, or unbounded as d grows
        return f"pl0 and {prefix}exponent must be >= 0"
    with np.errstate(over="ignore", divide="ignore"):   # largest at d_min
        peak = pl0 * (np.float64(d_min_m) / d0_m) ** -exponent
    if not np.isfinite(peak):
        return (f"the gain at {prefix}d_min_m, pl0 * ({prefix}d_min_m / "
                f"{prefix}d0_m) ** -{prefix}exponent, must be finite")
    return None


@dataclass
class PrbAssignment:
    """PRB eligibility zeta: row (u, k, s) of `triples` means UE u may use
    PRB k of slice s.  UEs are in global order (services sorted by id, UEs
    by id within each service).  Rows are sorted, unique and read-only.
    """

    n_prbs: int
    triples: np.ndarray           # int64, shape (n, 3): (ue, prb, slice)

    def __post_init__(self):
        t = np.array(self.triples, dtype=np.int64).reshape(-1, 3)
        t = t[np.lexsort(t.T[::-1])]          # row order, as np.argwhere
        first = np.ones(len(t), dtype=bool)   # drop repeated rows
        first[1:] = (t[1:] != t[:-1]).any(axis=1)
        self.triples = t[first]
        self.triples.flags.writeable = False


@dataclass
class Scenario:
    params: SystemParams
    services: tuple[Service, ...]
    slices: tuple[Slice, ...]
    rus: tuple[RadioUnit, ...]
    dcs: tuple[DataCenter, ...]
    prb_assignment: PrbAssignment
    channel: ChannelModel = field(default_factory=ChannelModel)

    # ---- derived indexing helpers -------------------------------------

    @property
    def n_services(self) -> int:
        return len(self.services)

    @property
    def n_slices(self) -> int:
        return len(self.slices)

    @functools.cached_property
    def n_ues(self) -> int:
        return sum(s.n_ues for s in self.services)

    def ue_keys(self) -> list[tuple[int, int]]:
        """Global UE order as (service_id, ue_id) pairs."""
        return [(sv.id, ue.id) for sv in self.services for ue in sv.ues]

    def ue_index(self, service_id: int, ue_id: int) -> int:
        return self._ue_lookup[(service_id, ue_id)]

    @functools.cached_property
    def _ue_lookup(self) -> dict[tuple[int, int], int]:
        return {key: i for i, key in enumerate(self.ue_keys())}

    @functools.cached_property
    def ue_service(self) -> np.ndarray:
        """Service id of every UE, in global UE order (read-only)."""
        return _frozen([sv.id for sv in self.services for _ue in sv.ues],
                       dtype=int)

    def service_ue_indices(self, service_id: int) -> list[int]:
        lookup = self._ue_lookup
        sv = self.services[service_id]
        return [lookup[(sv.id, ue.id)] for ue in sv.ues]

    def ru_slots(self) -> list[tuple[int, int, int]]:
        """All (slice_id, local_ru_index, ru_id) triples, slice-major.

        A radio unit shared by two slices appears once per slice; per-RU
        powers and fronthaul loads are accounted per slot.
        """
        return [(sl.id, j, rid)
                for sl in self.slices for j, rid in enumerate(sl.ru_ids)]

    def ue_positions(self) -> np.ndarray:
        return np.array([ue.position for sv in self.services for ue in sv.ues],
                        dtype=float)

    def ru_positions(self) -> np.ndarray:
        return np.array([ru.position for ru in self.rus], dtype=float)

    @functools.cached_property
    def arrival_rates(self) -> np.ndarray:
        """Packet arrival rate of every UE, in global UE order (read-only)."""
        return _frozen([ue.arrival_rate
                        for sv in self.services for ue in sv.ues], dtype=float)

    @functools.cached_property
    def vnf_counts(self) -> np.ndarray:
        """(2, n_slices) VNF counts: DU layer in row 0, CU layer in row 1."""
        return _frozen([[sl.m_du for sl in self.slices],
                        [sl.m_cu for sl in self.slices]], dtype=int)


def _all_indices(xs) -> bool:
    """True when every x is an integer and none is a bool (JSON true/false)."""
    return all(issubclass(t, (int, np.integer)) and t is not bool
               for t in set(map(type, xs)))


def _frozen(rows, dtype) -> np.ndarray:
    out = np.array(rows, dtype=dtype)
    out.flags.writeable = False
    return out


# --------------------------------------------------------------------------
# Generator
# --------------------------------------------------------------------------


@dataclass
class GeneratorConfig:
    """Knobs for random scenario generation.

    Radio defaults follow the simulation table of the modeled system
    (120 kHz bandwidth, -174 dBm/Hz noise, 40 dBm RU power, 10 bit/s/Hz
    minimum spectral efficiency, 200 bit/s/Hz fronthaul cap, 300 usec
    delay budget); compute defaults follow its resource table (DC mean
    320 GHz / 1000 GB / 100 TB, slice mean 32 GHz / 100 GB / 10 TB).
    """

    n_services: int = 3
    mean_ues: float = 2.0          # mean UEs per service (clamped Poisson)
    max_ues: int = 8               # hard per-service UE cap
    n_slices: int = 4
    n_rus: int = 24                # global RU pool size
    rus_per_slice: int = 12        # RUs drawn (without replacement) per slice
    prb_mode: str = "dedicated"    # "dedicated": one private PRB per UE per slice
    prbs_per_slice: Optional[int] = None   # shared mode: pool size (default 4)
    prbs_per_ue: int = 1           # shared mode: eligible PRBs per UE per slice
    m_du: int = 2                  # DU-layer VNFs per slice
    m_cu: int = 2                  # CU-layer VNFs per slice
    arrival_rate_mean: float = 100.0   # packet/s
    arrival_rate_spread: float = 0.5   # uniform +-spread fraction around mean
    region_m: float = 500.0        # square region side
    n_dcs: int = 2
    dc_memory_gb: float = 1000.0
    dc_storage_tb: float = 100.0
    dc_cpu_ghz: float = 320.0
    dc_cv: float = 0.0             # coefficient of variation for DC draws
    slice_memory_gb: float = 100.0
    slice_storage_tb: float = 10.0
    slice_cpu_ghz: float = 32.0
    slice_cv: float = 0.0          # coefficient of variation for slice demands
    phi_idle: float = 200.0        # W
    phi_per_unit: float = 0.05     # W per weighted-demand unit
    bandwidth_hz: float = 120e3
    noise_psd: float = 10 ** (-174 / 10) * 1e-3
    p_max: float = 10.0
    r_min_per_hz: float = 10.0     # minimum spectral efficiency, bit/s/Hz
    c_max: float = 200.0
    d_max: float = 300e-6
    mu1: float = 1e4
    mu2: float = 1e4
    nu: float = 0.0
    sigma_q_frac: float = 1e-5     # sigma_q^2 = frac * p_max at every RU
    packet_size_bits: float = 1.0
    pl0: float = 1.0
    pl_d0_m: float = 250.0
    pl_d_min_m: float = 150.0
    pl_exponent: float = 3.5

    def __post_init__(self):
        if not 1 <= self.n_services <= N_SERVICES_MAX:
            raise ScenarioError(f"n_services must be in [1, {N_SERVICES_MAX}]")
        if not 1 <= self.n_slices <= N_SLICES_MAX:
            raise ScenarioError(f"n_slices must be in [1, {N_SLICES_MAX}]")
        if self.n_dcs < 1:
            raise ScenarioError("n_dcs must be >= 1")
        if self.mean_ues < 1 or self.max_ues < 1:
            raise ScenarioError("mean_ues and max_ues must be >= 1")
        if not self.mean_ues <= POISSON_LAM_MAX:
            raise ScenarioError(f"mean_ues must be <= {POISSON_LAM_MAX:.6g}")
        if self.rus_per_slice < 1 or self.rus_per_slice > self.n_rus:
            raise ScenarioError("need 1 <= rus_per_slice <= n_rus")
        if self.prb_mode not in ("dedicated", "shared"):
            raise ScenarioError("prb_mode must be 'dedicated' or 'shared'")
        if self.prbs_per_slice is not None and self.prbs_per_slice < 1:
            raise ScenarioError("prbs_per_slice must be >= 1")
        if self.prbs_per_ue < 1:
            raise ScenarioError("prbs_per_ue must be >= 1")
        if self.m_du < 1 or self.m_cu < 1:
            raise ScenarioError("m_du and m_cu must be >= 1")
        if self.sigma_q_frac <= 0:
            raise ScenarioError("sigma_q_frac must be > 0")
        if min(self.dc_cv, self.slice_cv) < 0:
            raise ScenarioError("coefficient of variation must be >= 0")
        if not self.region_m >= 0:
            raise ScenarioError("region_m must be >= 0")
        if not self.arrival_rate_mean >= 0:
            raise ScenarioError("arrival_rate_mean must be >= 0")
        if not 0 <= self.arrival_rate_spread <= 1:
            raise ScenarioError("arrival_rate_spread must be in [0, 1]")
        why = path_gain_problem(self.pl0, self.pl_d0_m, self.pl_d_min_m,
                                self.pl_exponent, "pl_")
        if why is not None:
            raise ScenarioError(why)
        self.system_params()      # raises on a bad radio or queueing field

    def system_params(self) -> SystemParams:
        return SystemParams(
            bandwidth_hz=self.bandwidth_hz,
            noise_psd=self.noise_psd,
            p_max=self.p_max,
            r_min=self.r_min_per_hz * self.bandwidth_hz,
            c_max=self.c_max,
            d_max=self.d_max,
            mu1=self.mu1,
            mu2=self.mu2,
            nu=self.nu,
            sigma_q_default=self.sigma_q_frac * self.p_max,
            packet_size_bits=self.packet_size_bits,
        )


def _positive_draw(rng: np.random.Generator, mean: float, cv: float,
                   size: int) -> np.ndarray:
    # cv = 0 degenerates to the exact mean; otherwise clip at 10% of mean
    # so resource draws stay strictly positive.
    if cv == 0.0:
        return np.full(size, mean, dtype=float)
    draws = rng.normal(mean, cv * mean, size)
    return np.maximum(draws, 0.1 * mean)


def generate_scenario(config: GeneratorConfig, seed: int) -> Scenario:
    """Draw a random scenario; a pure function of (config, seed)."""
    rng = np.random.default_rng(seed)
    params = config.system_params()

    # Services and UEs.  UE counts are Poisson with the configured mean,
    # clamped into [1, max_ues].
    services = []
    for v in range(config.n_services):
        n_ues = int(np.clip(rng.poisson(config.mean_ues), 1, config.max_ues))
        ues = []
        for i in range(n_ues):
            lo = 1.0 - config.arrival_rate_spread
            hi = 1.0 + config.arrival_rate_spread
            rate = config.arrival_rate_mean * rng.uniform(lo, hi)
            pos = tuple(rng.uniform(0.0, config.region_m, 2))
            ues.append(UserEquipment(id=i, arrival_rate=float(rate),
                                     position=(float(pos[0]), float(pos[1]))))
        services.append(Service(id=v, ues=tuple(ues)))
    services = tuple(services)
    n_ues_total = sum(s.n_ues for s in services)

    # Radio units: shared pool, positions uniform over the region.
    sigma_q2 = config.sigma_q_frac * config.p_max
    rus = tuple(
        RadioUnit(id=r,
                  position=(float(rng.uniform(0, config.region_m)),
                            float(rng.uniform(0, config.region_m))),
                  sigma_q2=sigma_q2)
        for r in range(config.n_rus)
    )

    # PRB pool.  In "dedicated" mode every slice exposes the whole pool
    # and each UE holds exactly one private PRB per slice, so no two UEs
    # ever collide inside a slice.  In "shared" mode each UE draws
    # prbs_per_ue eligible PRBs per slice and collisions are expected.
    if config.prb_mode == "dedicated":
        n_prbs = n_ues_total
    else:
        n_prbs = 4 if config.prbs_per_slice is None else config.prbs_per_slice

    slice_demand_mem = _positive_draw(rng, config.slice_memory_gb,
                                      config.slice_cv, config.n_slices)
    slice_demand_sto = _positive_draw(rng, config.slice_storage_tb,
                                      config.slice_cv, config.n_slices)
    slice_demand_cpu = _positive_draw(rng, config.slice_cpu_ghz,
                                      config.slice_cv, config.n_slices)

    slices = []
    for s in range(config.n_slices):
        ru_ids = tuple(sorted(rng.choice(config.n_rus, config.rus_per_slice,
                                         replace=False).tolist()))
        n_vnfs = config.m_du + config.m_cu
        # Per-VNF demands split the slice total evenly; only totals matter
        # to placement.
        vnfs = tuple(VnfRequirement(
            memory_gb=float(slice_demand_mem[s] / n_vnfs),
            storage_tb=float(slice_demand_sto[s] / n_vnfs),
            cpu_ghz=float(slice_demand_cpu[s] / n_vnfs),
        ) for _ in range(n_vnfs))
        slices.append(Slice(id=s, ru_ids=ru_ids,
                            prb_ids=tuple(range(n_prbs)),
                            m_du=config.m_du, m_cu=config.m_cu,
                            vnf_demands=vnfs))
    slices = tuple(slices)

    if config.prb_mode == "dedicated":
        ue, s = np.divmod(np.arange(n_ues_total * config.n_slices),
                          config.n_slices)
        triples = np.column_stack([ue, ue, s])
    else:
        triples = [(u, int(k), s) for s in range(config.n_slices)
                   for u in range(n_ues_total)
                   for k in rng.choice(n_prbs, min(config.prbs_per_ue, n_prbs),
                                       replace=False)]
    prb_assignment = PrbAssignment(n_prbs=n_prbs, triples=triples)

    dc_mem = _positive_draw(rng, config.dc_memory_gb, config.dc_cv, config.n_dcs)
    dc_sto = _positive_draw(rng, config.dc_storage_tb, config.dc_cv, config.n_dcs)
    dc_cpu = _positive_draw(rng, config.dc_cpu_ghz, config.dc_cv, config.n_dcs)
    dcs = tuple(DataCenter(id=d, memory_gb=float(dc_mem[d]),
                           storage_tb=float(dc_sto[d]),
                           cpu_ghz=float(dc_cpu[d]),
                           phi_idle=config.phi_idle,
                           phi_per_unit=config.phi_per_unit)
                for d in range(config.n_dcs))

    channel = ChannelModel(pl0=config.pl0, d0_m=config.pl_d0_m,
                           d_min_m=config.pl_d_min_m,
                           exponent=config.pl_exponent,
                           seed=seed)

    return Scenario(params=params, services=services, slices=slices,
                    rus=rus, dcs=dcs, prb_assignment=prb_assignment,
                    channel=channel)


# --------------------------------------------------------------------------
# Validation
# --------------------------------------------------------------------------


def validate(sc: Scenario) -> list[str]:
    """Structural checks; returns a list of human-readable violations.

    An empty list means the scenario is well-formed.  Checks cover
    integer ids and their uniqueness/denseness, cross-references,
    finiteness and sign constraints, the index ranges of the PRB
    eligibility triples, and the PRB eligibility consistency rule (a UE
    may only be eligible for a PRB of a slice if that slice actually
    owns the PRB).
    """
    problems: list[str] = []

    def check_finite(label, rows):
        try:
            np.array(rows, dtype=float)       # rows of equal length
            ok = all(map(is_real, itertools.chain.from_iterable(
                row if isinstance(row, tuple) else (row,) for row in rows)))
        except (TypeError, ValueError, OverflowError):
            ok = False
        if not ok:
            problems.append(f"{label} must be finite numbers")

    path_loss = (sc.channel.pl0, sc.channel.d0_m, sc.channel.d_min_m,
                 sc.channel.exponent)
    if not all(map(is_real, path_loss)):
        problems.append("channel model must be finite numbers")
    elif (why := path_gain_problem(*path_loss)) is not None:
        problems.append(f"channel model {why}")
    check_finite("UE arrival rates and positions",
                 [(ue.arrival_rate, *ue.position)
                  for sv in sc.services for ue in sv.ues])
    check_finite("radio unit sigma_q2 and positions",
                 [(ru.sigma_q2, *ru.position) for ru in sc.rus])
    check_finite("VNF demands", [(v.memory_gb, v.storage_tb, v.cpu_ghz)
                                 for sl in sc.slices for v in sl.vnf_demands])
    check_finite("data centers", [(dc.memory_gb, dc.storage_tb, dc.cpu_ghz,
                                   dc.phi_idle, dc.phi_per_unit)
                                  for dc in sc.dcs])
    if not _all_indices([sc.channel.seed]) or sc.channel.seed < 0:
        problems.append("channel seed must be an integer >= 0")

    def check_dense_ids(items, label):
        ids = [it.id for it in items]
        if not _all_indices(ids) or ids != list(range(len(ids))):
            problems.append(f"{label} ids must be the integers "
                            f"0..{len(ids) - 1}, got {ids}")

    check_dense_ids(sc.services, "service")
    check_dense_ids(sc.slices, "slice")
    check_dense_ids(sc.rus, "radio unit")
    check_dense_ids(sc.dcs, "data center")
    if not sc.dcs:
        problems.append("scenario has no data center")

    for sv in sc.services:
        if sv.n_ues < 1:
            problems.append(f"service {sv.id} has no UEs")
        ue_ids = [ue.id for ue in sv.ues]
        if not _all_indices(ue_ids) or ue_ids != list(range(sv.n_ues)):
            problems.append(f"service {sv.id} UE ids must be the integers "
                            f"0..{sv.n_ues - 1}")
        for ue in sv.ues:
            if ue.arrival_rate < 0:
                problems.append(
                    f"service {sv.id} UE {ue.id} arrival rate is negative")

    ru_ids = {ru.id for ru in sc.rus}
    for ru in sc.rus:
        if ru.sigma_q2 <= 0:
            problems.append(f"radio unit {ru.id} sigma_q2 must be > 0")

    n_prbs = sc.prb_assignment.n_prbs
    for sl in sc.slices:
        if sl.n_rus < 1:
            problems.append(f"slice {sl.id} owns no radio units")
        ru_typed = _all_indices(sl.ru_ids)
        if ru_typed and len(set(sl.ru_ids)) != len(sl.ru_ids):
            problems.append(f"slice {sl.id} lists a radio unit twice")
        if not (ru_typed and set(sl.ru_ids) <= ru_ids):
            problems.append(f"slice {sl.id} references unknown radio units")
        if len(sl.prb_ids) < 1:
            problems.append(f"slice {sl.id} owns no PRBs")
        prb_typed = _all_indices(sl.prb_ids)
        if prb_typed and len(set(sl.prb_ids)) != len(sl.prb_ids):
            problems.append(f"slice {sl.id} lists a PRB twice")
        if not (prb_typed and 0 <= min(sl.prb_ids, default=0)
                and max(sl.prb_ids, default=-1) < n_prbs):
            problems.append(f"slice {sl.id} references unknown PRBs")
        if sl.m_du < 1 or sl.m_cu < 1:
            problems.append(f"slice {sl.id} needs at least one VNF per layer")
        if len(sl.vnf_demands) != sl.m_du + sl.m_cu:
            problems.append(
                f"slice {sl.id} must list exactly m_du+m_cu VNF demands")

    for dc in sc.dcs:
        if min(dc.memory_gb, dc.storage_tb, dc.cpu_ghz) < 0:
            problems.append(f"data center {dc.id} has negative capacity")
        if dc.phi_idle < 0 or dc.phi_per_unit < 0:
            problems.append(f"data center {dc.id} has negative power model")

    triples = sc.prb_assignment.triples
    dims = (sc.n_ues, n_prbs, sc.n_slices)
    inside = ((triples >= 0) & (triples < dims)).all(axis=1)
    if not inside.all():
        problems.append(f"zeta entries must be [ue, prb, slice] index "
                        f"triples within {dims}")
    for s, sl in enumerate(sc.slices):
        listed = triples[inside & (triples[:, 2] == s), 1].tolist()
        if _all_indices(sl.prb_ids) and not set(listed) <= set(sl.prb_ids):
            problems.append(
                f"slice {sl.id}: zeta marks PRBs the slice does not own")

    return problems


# --------------------------------------------------------------------------
# Serialization
# --------------------------------------------------------------------------


def scenario_to_dict(sc: Scenario) -> dict:
    return {
        "schema": SCHEMA_VERSION,
        "units": dict(UNITS),
        "params": asdict(sc.params),
        "channel": asdict(sc.channel),
        "services": [
            {"id": sv.id,
             "ues": [{"id": ue.id, "arrival_rate": ue.arrival_rate,
                      "position": list(ue.position)} for ue in sv.ues]}
            for sv in sc.services
        ],
        "slices": [
            {"id": sl.id, "ru_ids": list(sl.ru_ids),
             "prb_ids": list(sl.prb_ids),
             "m_du": sl.m_du, "m_cu": sl.m_cu,
             "vnf_demands": [asdict(v) for v in sl.vnf_demands]}
            for sl in sc.slices
        ],
        "rus": [{"id": ru.id, "position": list(ru.position),
                 "sigma_q2": ru.sigma_q2} for ru in sc.rus],
        "prbs": {"count": sc.prb_assignment.n_prbs},
        "zeta": sc.prb_assignment.triples.tolist(),
        "dcs": [asdict(dc) for dc in sc.dcs],
    }


def scenario_from_dict(data: dict) -> Scenario:
    if data.get("schema") != SCHEMA_VERSION:
        raise ScenarioError(
            f"unsupported scenario schema {data.get('schema')!r}")
    params = SystemParams(**data["params"])
    channel = ChannelModel(**data["channel"])
    services = tuple(
        Service(id=sv["id"], ues=tuple(
            UserEquipment(id=ue["id"], arrival_rate=ue["arrival_rate"],
                          position=tuple(ue["position"]))
            for ue in sv["ues"]))
        for sv in data["services"]
    )
    slices = tuple(
        Slice(id=sl["id"], ru_ids=tuple(sl["ru_ids"]),
              prb_ids=tuple(sl["prb_ids"]), m_du=sl["m_du"], m_cu=sl["m_cu"],
              vnf_demands=tuple(VnfRequirement(**v)
                                for v in sl["vnf_demands"]))
        for sl in data["slices"]
    )
    rus = tuple(RadioUnit(id=ru["id"], position=tuple(ru["position"]),
                          sigma_q2=ru["sigma_q2"]) for ru in data["rus"])
    dcs = tuple(DataCenter(**dc) for dc in data["dcs"])
    n_prbs = data["prbs"]["count"]
    if type(n_prbs) is not int or n_prbs < 0:
        raise ScenarioError(f"PRB count must be an integer >= 0, "
                            f"got {n_prbs!r}")
    rows = data["zeta"]
    if (set(map(type, itertools.chain.from_iterable(rows))) - {int}
            or set(map(len, rows)) - {3}):
        raise ScenarioError("zeta entries must be [ue, prb, slice] integer "
                            "index triples")
    sc = Scenario(params=params, services=services, slices=slices, rus=rus,
                  dcs=dcs, prb_assignment=PrbAssignment(n_prbs, rows),
                  channel=channel)
    problems = validate(sc)
    if problems:
        raise ScenarioError("invalid scenario: " + "; ".join(problems))
    return sc


def save_scenario(sc: Scenario, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(scenario_to_dict(sc), fh, indent=1, sort_keys=True)
        fh.write("\n")


def load_scenario(path: str) -> Scenario:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ScenarioError("scenario file must hold a JSON object")
    try:
        return scenario_from_dict(data)
    except (KeyError, TypeError, OverflowError) as exc:
        raise ScenarioError(f"malformed scenario file: {exc!r}") from exc
