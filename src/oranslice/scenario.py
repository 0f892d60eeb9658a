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

import contextlib
import functools
import json
import math
import operator
from dataclasses import asdict, dataclass, field, fields
from itertools import chain
from typing import NamedTuple

import numpy as np

SCHEMA_VERSION = 1

# Largest mean numpy's Poisson sampler accepts; it raises above it.
POISSON_LAM_MAX = (np.iinfo(np.int64).max
                   - 10 * np.sqrt(np.iinfo(np.int64).max))

# Range of normal doubles; squared channel gains must stay inside it.
FLOAT = np.finfo(float)

# A normal draw lies within this many standard deviations of its mean
# but with probability below 1e-22, so mean * (1 + DRAW_SIGMAS * cv)
# bounds the DC capacity and slice demand draws.
DRAW_SIGMAS = 10

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


def is_integer_type(t: type) -> bool:
    """True for int and numpy's integer types, not bool (JSON true/false)."""
    return t is int or issubclass(t, (int, np.integer)) and t is not bool


def all_integers(xs) -> bool:
    """True when every x is an integer and none is a bool."""
    return all(map(is_integer_type, set(map(type, xs))))


def is_real(x) -> bool:
    """True for a finite float, or an integer that fits int64, that is not
    a bool.  numpy holds a larger int as an object, which its math
    functions reject."""
    if type(x) is float or isinstance(x, np.floating):
        return math.isfinite(x)
    return is_integer_type(type(x)) and -2**63 <= x < 2**63


# --------------------------------------------------------------------------
# Numeric input rules
# --------------------------------------------------------------------------


class Rule(NamedTuple):
    """What one numeric input may hold: an integer or a finite real, at
    least `lo` (above it if `strict`) and at most `hi`; with `normal`, at
    least the smallest normal float too, so that 1 / x stays finite.  An
    int `hi` reads as the interval [lo, hi] in messages, a float one (a
    sampler limit) as a bound of its own."""

    integer: bool = False
    lo: float | None = None
    strict: bool = False
    hi: float | None = None
    normal: bool = False


REAL = Rule()
NON_NEGATIVE = Rule(lo=0)
POSITIVE = Rule(lo=0, strict=True, normal=True)

# One rule per numeric field of SystemParams, GeneratorConfig and the
# scenario file, and per numeric CLI flag.  A generator field that becomes
# a scenario field shares its rule.  The caps keep counts that size the
# generator's arrays far above the largest studied instance (96 services,
# 97 slices, 64 RUs, 24 UEs per service, 16 shared PRBs, 5 DCs, 2 VNFs per
# layer): a larger count is a typo, and it exits with a message instead of
# running out of time or memory.
RULES = {
    **dict.fromkeys(("bandwidth_hz", "noise_psd", "p_max", "r_min",
                     "r_min_per_hz", "c_max", "d_max", "mu1", "mu2",
                     "sigma_q_default", "sigma_q_frac", "sigma_q2",
                     "packet_size_bits", "--packet-size"), POSITIVE),
    **dict.fromkeys(("nu", "--nu", "--weights", "arrival_rate",
                     "arrival_rate_mean", "region_m",
                     "memory_gb", "storage_tb", "cpu_ghz", "phi_idle",
                     "phi_per_unit", "dc_memory_gb", "dc_storage_tb",
                     "dc_cpu_ghz", "slice_memory_gb", "slice_storage_tb",
                     "slice_cpu_ghz", "dc_cv", "slice_cv"), NON_NEGATIVE),
    # path_gain_problem bounds the path-loss fields together
    **dict.fromkeys(("position", "pl0", "d0_m", "d_min_m", "exponent",
                     "pl_d0_m", "pl_d_min_m", "pl_exponent"), REAL),
    # seeds, and "count" of the scenario file's PRBs
    **dict.fromkeys(("seed", "--seed", "count"), Rule(integer=True, lo=0)),
    **dict.fromkeys(("rus_per_slice", "--max-iters"),
                    Rule(integer=True, lo=1)),
    "arrival_rate_spread": Rule(lo=0, hi=1),
    "mean_ues": Rule(lo=1, hi=POISSON_LAM_MAX),
    # radio coefficients grow as slices x RUs x UEs
    **dict.fromkeys(("n_services", "n_slices", "n_dcs"),
                    Rule(integer=True, lo=1, hi=1000)),
    **dict.fromkeys(("n_rus", "max_ues", "prbs_per_slice", "prbs_per_ue"),
                    Rule(integer=True, lo=1, hi=10_000)),
    **dict.fromkeys(("m_du", "m_cu"), Rule(integer=True, lo=1, hi=100)),
}


def field_problem(label: str, name: str, value) -> str | None:
    """Why `value` breaks the rule of field `name`, or None.  The text
    names the value as `label + name`."""
    integer, lo, strict, hi, normal = RULES[name]
    where = label + name
    if not (is_integer_type(type(value)) if integer else is_real(value)):
        kind = "an integer" if integer else "finite, a float or an int64"
        why = ("is not finite" if isinstance(value, (float, np.floating))
               and not integer else "has the wrong type")
        return f"{where} must be {kind}: {name}={value!r} {why}"
    if lo is not None and (value <= lo if strict else value < lo):
        return f"{where} must be {'>' if strict else '>='} {lo}, got {value!r}"
    if hi is not None and value > hi:
        bound = f"in [{lo}, {hi}]" if type(hi) is int else f"<= {hi:.6g}"
        return f"{where} must be {bound}, got {value!r}"
    if normal and value < FLOAT.tiny:     # 1 / x would overflow
        return (f"{where} must be a normal float, >= {FLOAT.tiny:.3g}, "
                f"got {value!r}")
    return None


def field_problems(label: str, obj) -> list[str]:
    """Problems of every field of `obj` that the table has a rule for; a
    position is checked coordinate by coordinate."""
    problems = []
    for name, value in vars(obj).items():
        if name == "position":
            if len(value) != 2:
                problems.append(f"{label}position must be an (x, y) pair")
                continue
            for x in value:
                if (why := field_problem(label, name, x)) is not None:
                    problems.append(why)
        elif name in RULES and (why := field_problem(label, name, value)):
            problems.append(why)
    return problems


def _suspects(rule: Rule, values: list) -> np.ndarray:
    """Mask of the `values` of a field with real (not integer) rule `rule`
    that `field_problem` may reject: all that it rejects, and perhaps a
    few that it accepts.  A value other than a float, or an int that a
    double holds exactly (|x| <= 2**53), is always marked."""
    n = len(values)
    if set(map(type, values)) <= {float}:
        x, odd = np.fromiter(values, float, n), np.zeros(n, dtype=bool)
    else:
        odd = np.fromiter((not (type(v) is float or type(v) is int
                                and -2**53 <= v <= 2**53) for v in values),
                          bool, n)
        x = np.fromiter((0.0 if o else v for v, o in zip(values, odd)),
                        float, n)
    bad = odd | ~np.isfinite(x)
    if rule.lo is not None:
        bad |= x <= rule.lo if rule.strict else x < rule.lo
    if rule.hi is not None:
        bad |= x > rule.hi
    if rule.normal:
        bad |= x < FLOAT.tiny
    return bad


def _position_suspects(positions: list) -> np.ndarray:
    """`_suspects` of a position column: a position that is not an (x, y)
    tuple, or that has a suspect coordinate, is marked."""
    n = len(positions)
    tuples = set(map(type, positions)) == {tuple}
    if tuples and set(map(len, positions)) == {2}:
        pair, xy = np.ones(n, dtype=bool), list(chain.from_iterable(positions))
    else:
        pair = np.fromiter((type(p) is tuple and len(p) == 2
                            for p in positions), bool, n)
        xy = list(chain.from_iterable(p if ok else (0.0, 0.0)
                                      for p, ok in zip(positions, pair)))
    return ~pair | _suspects(RULES["position"], xy).reshape(n, 2).any(axis=1)


def _column_problems(cls, records: list, label) -> list[str]:
    """`field_problems(label(i), records[i])` of every record of type
    `cls`, whose ruled fields are all real, in order.  Each ruled field
    is checked as one column first, and only the records some column
    marks are asked."""
    marked = np.zeros(len(records), dtype=bool)
    for f in fields(cls):
        if f.name in RULES:
            column = list(map(operator.attrgetter(f.name), records))
            marked |= (_position_suspects(column) if f.name == "position"
                       else _suspects(RULES[f.name], column))
    return [why for i in np.flatnonzero(marked).tolist()
            for why in field_problems(label(i), records[i])]


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
        if problems := field_problems("SystemParams.", self):
            raise ScenarioError(problems[0])


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
        return tuple(sum(getattr(v, name) for v in self.vnf_demands)
                     for name in ("memory_gb", "storage_tb", "cpu_ghz"))


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
                      exponent: float, d_far_m: float,
                      prefix: str = "") -> str | None:
    """Why the gain pl0 * (max(d, d_min_m) / d0_m) ** -exponent of some
    distance 0 <= d <= d_far_m can be negative or non-finite, or have a
    square outside the normal float range, or None.  The squares bound
    what zero-forcing forms from the gains (|h|^2 sums and their
    inverses), so a gain outside them gives NaN or zero rates.  Takes
    finite reals (a NaN `d_far_m` counts as d_min_m); field names in the
    message get `prefix` ("pl_" for the generator's fields)."""
    if not (d0_m > 0 and d_min_m > 0):   # a zero distance: infinite gain
        return f"{prefix}d0_m and {prefix}d_min_m must be > 0"
    if pl0 < 0 or exponent < 0:   # negative, or unbounded as d grows
        return f"pl0 and {prefix}exponent must be >= 0"
    far = d_far_m if d_far_m > d_min_m else d_min_m
    with np.errstate(over="ignore", divide="ignore", under="ignore"):
        peak = pl0 * (np.float64(d_min_m) / d0_m) ** -exponent
        floor = pl0 * (np.float64(far) / d0_m) ** -exponent
        peak2, floor2 = peak * peak, floor * floor
    if not np.isfinite(peak):
        return (f"the gain at {prefix}d_min_m, pl0 * ({prefix}d_min_m / "
                f"{prefix}d0_m) ** -{prefix}exponent, must be finite")
    if not peak2 <= FLOAT.max:
        return (f"the squared gain at {prefix}d_min_m must be at most "
                f"{FLOAT.max:.3g}")
    if not floor2 >= FLOAT.tiny:
        return (f"the squared gain at the largest RU-UE distance "
                f"({far:.6g} m) must be at least {FLOAT.tiny:.3g}")
    return None


@dataclass
class PrbAssignment:
    """PRB eligibility zeta: row (u, k, s) of `triples` means UE u may use
    PRB k of slice s.  UEs are in global order (services sorted by id, UEs
    by id within each service).  Rows are sorted, unique and read-only;
    int64 rows given already in that order are kept, not copied.
    """

    n_prbs: int
    triples: np.ndarray           # int64, shape (n, 3): (ue, prb, slice)

    def __post_init__(self):
        t = np.asarray(self.triples, dtype=np.int64).reshape(-1, 3)
        a, b = t[1:], t[:-1]
        ascending = (a[:, 0] > b[:, 0]) | (a[:, 0] == b[:, 0]) & (
            (a[:, 1] > b[:, 1]) | (a[:, 1] == b[:, 1]) & (a[:, 2] > b[:, 2]))
        if not ascending.all():
            t = t[np.lexsort(t.T[::-1])]      # row order, as np.argwhere
            first = np.ones(len(t), dtype=bool)   # drop repeated rows
            first[1:] = (t[1:] != t[:-1]).any(axis=1)
            t = t[first]
        t.flags.writeable = False
        self.triples = t


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
    def first_ue(self) -> np.ndarray:
        """Global index of each service's first UE, then n_ues: service
        v's UEs are first_ue[v] up to first_ue[v + 1] (read-only)."""
        return _frozen(np.cumsum([0] + [sv.n_ues for sv in self.services]),
                       dtype=int)

    @functools.cached_property
    def n_ues(self) -> int:
        return int(self.first_ue[-1])

    def ue_keys(self) -> list[tuple[int, int]]:
        """Global UE order as (service_id, ue_id) pairs."""
        return [(sv.id, ue.id) for sv in self.services for ue in sv.ues]

    @functools.cached_property
    def ue_service(self) -> np.ndarray:
        """Service id of every UE, in global UE order (read-only)."""
        return _frozen([sv.id for sv in self.services for _ue in sv.ues],
                       dtype=int)

    def service_ue_indices(self, service_id: int) -> list[int]:
        return list(range(self.first_ue[service_id],
                          self.first_ue[service_id + 1]))

    def ru_slots(self) -> list[tuple[int, int, int]]:
        """All (slice_id, local_ru_index, ru_id) triples, slice-major.

        A radio unit shared by two slices appears once per slice; per-RU
        powers and fronthaul loads are accounted per slot.
        """
        return [(sl.id, j, rid)
                for sl in self.slices for j, rid in enumerate(sl.ru_ids)]

    @functools.cached_property
    def ru_ue_distances(self) -> np.ndarray:
        """(n_rus, n_ues) distance from every RU to every UE, m; inf
        where it is beyond the float range (read-only).  `validate` and
        `radio.build_channels` share it."""
        ues = np.array([ue.position for sv in self.services for ue in sv.ues],
                       dtype=float)
        rus = np.array([ru.position for ru in self.rus], dtype=float)
        with np.errstate(over="ignore"):
            if ues.shape[1:] == rus.shape[1:] == (2,):
                dx = rus[:, 0, None] - ues[:, 0]
                dy = rus[:, 1, None] - ues[:, 1]
                d = np.sqrt(dx * dx + dy * dy)  # the bits of the norm below
            else:   # positions that are not pairs, which validate reports
                d = np.linalg.norm(rus[:, None, :] - ues[None, :, :], axis=2)
        d.flags.writeable = False
        return d

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
    prbs_per_slice: int = 4        # shared mode: PRB pool size
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
        if self.prb_mode not in ("dedicated", "shared"):
            raise ScenarioError("prb_mode must be 'dedicated' or 'shared'")
        if problems := field_problems("", self):
            raise ScenarioError(problems[0])
        if self.rus_per_slice > self.n_rus:
            raise ScenarioError("need 1 <= rus_per_slice <= n_rus")
        for prefix in ("dc_", "slice_"):
            cv = getattr(self, prefix + "cv")
            for name in ("memory_gb", "storage_tb", "cpu_ghz"):
                mean = getattr(self, prefix + name)
                if mean * (1 + DRAW_SIGMAS * cv) > FLOAT.max:
                    raise ScenarioError(
                        f"{prefix}cv x {prefix}{name} must keep the draws "
                        f"finite: {prefix}cv={cv!r} with {prefix}{name}="
                        f"{mean!r} can draw beyond {FLOAT.max:.6g}")
        if self.arrival_rate_mean * (1 + self.arrival_rate_spread) > FLOAT.max:
            raise ScenarioError(
                f"arrival_rate_mean x (1 + arrival_rate_spread) must keep "
                f"the draws finite: arrival_rate_mean="
                f"{self.arrival_rate_mean!r} with arrival_rate_spread="
                f"{self.arrival_rate_spread!r} can draw beyond "
                f"{FLOAT.max:.6g}")
        why = path_gain_problem(self.pl0, self.pl_d0_m, self.pl_d_min_m,
                                self.pl_exponent,
                                math.hypot(self.region_m, self.region_m),
                                "pl_")
        if why is not None:
            raise ScenarioError(why)
        self.system_params()      # raises on a bad radio or queueing field

    def system_params(self) -> SystemParams:
        mine = vars(self)
        shared = {f.name: mine[f.name] for f in fields(SystemParams)
                  if f.name in mine}
        return SystemParams(**shared,
                            r_min=self.r_min_per_hz * self.bandwidth_hz,
                            sigma_q_default=self.sigma_q_frac * self.p_max)


def _positive_draw(rng: np.random.Generator, mean: float, cv: float,
                   size: int) -> np.ndarray:
    # cv = 0 degenerates to the exact mean; otherwise clip at 10% of mean
    # so resource draws stay strictly positive.
    if cv == 0.0:
        return np.full(size, mean, dtype=float)
    draws = rng.normal(mean, cv * mean, size)
    return np.maximum(draws, 0.1 * mean)


def draw_subsets(rng: np.random.Generator,
                 groups: list[tuple[int, int, int]]) -> list[np.ndarray]:
    """For each (n, k, m) of `groups`, an (m, k) array whose rows, sorted,
    are the sets that m successive `rng.choice(n, k, replace=False)` calls
    draw, taken from one `rng.integers` call that leaves `rng` where those
    calls, group after group, would.  Needs 1 <= k <= n <= 10,000 where
    m > 0: there numpy's `choice` is Floyd's sampler, a bounded draw in
    [0, j] for j = n - k, ..., n - 1 that takes j in place of a value
    already taken, then a Fisher-Yates pass, bounded draws in [0, i] for
    i = k - 1, ..., 1 that only reorder the set (read here, not used)."""
    bounds = [np.tile(np.r_[n - k + 1:n + 1, k:1:-1], m) for n, k, m in groups]
    draws = rng.integers(0, np.concatenate(bounds))
    out, at = [], 0
    for (n, k, m), span in zip(groups, map(len, bounds)):
        v = draws[at:at + span].reshape(m, 2 * k - 1)[:, :k]
        at += span
        # Floyd across all rows: draw t gives way to j_t when an earlier
        # step took its value, that is, when it repeats an earlier draw or
        # equals the j of an earlier step that gave way itself.  Those
        # steps chain back through the row; pointer doubling follows every
        # chain at once.  Indices are flat, into the row-major m x k block.
        j, row = n - k + np.arange(k), k * np.arange(m)[:, None]
        order = np.argsort(v, axis=1, kind="stable") + row
        ordered = v.ravel()[order]
        replaced = np.zeros(m * k, dtype=bool)
        replaced[order[:, 1:]] = ordered[:, 1:] == ordered[:, :-1]
        back = (np.where((v >= n - k) & (v < j), v - (n - k), np.arange(k))
                + row).ravel()
        for _ in range(int(k).bit_length()):
            replaced |= replaced[back]
            back = back[back]
        out.append(np.sort(np.where(replaced.reshape(m, k), j, v), axis=1))
    return out


def generate_scenario(config: GeneratorConfig, seed: int) -> Scenario:
    """Draw a random scenario; a pure function of (config, seed)."""
    rng = np.random.default_rng(seed)
    params = config.system_params()

    # Services and UEs.  UE counts are Poisson with the configured mean,
    # clamped into [1, max_ues].
    lo, hi = 1.0 - config.arrival_rate_spread, 1.0 + config.arrival_rate_spread
    services = []
    for v in range(config.n_services):
        n_ues = int(np.clip(rng.poisson(config.mean_ues), 1, config.max_ues))
        services.append(Service(id=v, ues=tuple(UserEquipment(
            id=i,
            arrival_rate=float(config.arrival_rate_mean * rng.uniform(lo, hi)),
            position=tuple(rng.uniform(0.0, config.region_m, 2).tolist()))
            for i in range(n_ues))))
    services = tuple(services)
    n_ues_total = sum(s.n_ues for s in services)

    # Radio units: shared pool, positions uniform over the region.
    sigma_q2 = config.sigma_q_frac * config.p_max
    rus = tuple(RadioUnit(id=r, sigma_q2=sigma_q2, position=tuple(
        rng.uniform(0, config.region_m, 2).tolist()))
        for r in range(config.n_rus))

    # PRB pool.  In "dedicated" mode every slice exposes the whole pool
    # and each UE holds exactly one private PRB per slice, so no two UEs
    # ever collide inside a slice.  In "shared" mode each UE draws
    # prbs_per_ue eligible PRBs per slice and collisions are expected.
    n_prbs = (n_ues_total if config.prb_mode == "dedicated"
              else config.prbs_per_slice)

    # (memory, storage, cpu) demand totals of every slice
    demands = [_positive_draw(rng, mean, config.slice_cv, config.n_slices)
               for mean in (config.slice_memory_gb, config.slice_storage_tb,
                            config.slice_cpu_ghz)]

    # every slice's RUs, then in shared mode each (slice, UE) pair's
    # eligible PRBs, drawn without replacement
    n_pairs = (config.n_slices * n_ues_total if config.prb_mode == "shared"
               else 0)
    ru_sets, prb_sets = draw_subsets(rng, [
        (config.n_rus, config.rus_per_slice, config.n_slices),
        (n_prbs, min(config.prbs_per_ue, n_prbs), n_pairs)])

    slices = []
    for s in range(config.n_slices):
        ru_ids = tuple(ru_sets[s].tolist())
        n_vnfs = config.m_du + config.m_cu
        # Per-VNF demands split the slice total evenly; only totals matter
        # to placement.
        vnfs = tuple(VnfRequirement(*(float(d[s] / n_vnfs) for d in demands))
                     for _ in range(n_vnfs))
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
        s, ue = np.divmod(np.repeat(np.arange(n_pairs), prb_sets.shape[1]),
                          n_ues_total)
        triples = np.column_stack([ue, prb_sets.ravel(), s])
    prb_assignment = PrbAssignment(n_prbs=n_prbs, triples=triples)

    capacities = [_positive_draw(rng, mean, config.dc_cv, config.n_dcs)
                  for mean in (config.dc_memory_gb, config.dc_storage_tb,
                               config.dc_cpu_ghz)]
    dcs = tuple(DataCenter(d, *(float(c[d]) for c in capacities),
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


def _id_list_flags(lists: list, known: int | set) -> tuple[np.ndarray, ...]:
    """Per id list (a slice's RU or PRB ids): its length, whether every
    id is an integer and not a bool, whether it lists an id twice, and
    whether it lists an id that is not an integer or not in `known` (the
    range [0, known), or a set).  The lists are checked as one int64
    array, or one by one where an id is not an int64 or `known` a set."""
    n = len(lists)
    sizes = np.fromiter(map(len, lists), np.int64, n)
    flat = None
    if type(known) is int and all_integers(chain.from_iterable(lists)):
        with contextlib.suppress(OverflowError):    # an id beyond int64
            flat = np.fromiter(chain.from_iterable(lists), np.int64,
                               int(sizes.sum()))
    if flat is None:
        in_known = (known.issuperset if isinstance(known, set) else
                    lambda ids: (0 <= min(ids, default=0)
                                 and max(ids, default=-1) < known))
        typed = np.fromiter(map(all_integers, lists), bool, n)
        twice = [t and len(set(ids)) != len(ids)
                 for t, ids in zip(typed, lists)]
        unknown = [not (t and in_known(ids)) for t, ids in zip(typed, lists)]
        return sizes, typed, np.array(twice, bool), np.array(unknown, bool)
    owner = np.repeat(np.arange(n), sizes)
    unknown = np.zeros(n, dtype=bool)
    unknown[owner[(flat < 0) | (flat >= known)]] = True
    inner = owner[1:] == owner[:-1]
    if not (flat[1:] > flat[:-1])[inner].all():     # not ascending: sort
        flat = flat[np.lexsort((flat, owner))]
    twice = np.zeros(n, dtype=bool)
    twice[owner[1:][inner & (flat[1:] == flat[:-1])]] = True
    return sizes, np.ones(n, dtype=bool), twice, unknown


def validate(sc: Scenario) -> list[str]:
    """Structural checks; returns a list of human-readable violations.

    An empty list means the scenario is well-formed.  Checks cover
    integer ids and their uniqueness/denseness, cross-references,
    finiteness and sign constraints, the index ranges of the PRB
    eligibility triples, and the PRB eligibility consistency rule (a UE
    may only be eligible for a PRB of a slice if that slice actually
    owns the PRB).
    """
    ues = [(sv, ue) for sv in sc.services for ue in sv.ues]
    vnfs = [(sl, k, vnf) for sl in sc.slices
            for k, vnf in enumerate(sl.vnf_demands)]
    problems = [
        *_column_problems(UserEquipment, [ue for _sv, ue in ues],
                          lambda i: f"service {ues[i][0].id} UE "
                                    f"{ues[i][1].id} "),
        *_column_problems(RadioUnit, sc.rus,
                          lambda i: f"radio unit {sc.rus[i].id} "),
        *_column_problems(VnfRequirement, [vnf for *_at, vnf in vnfs],
                          lambda i: f"slice {vnfs[i][0].id} VNF "
                                    f"{vnfs[i][1]} "),
        *_column_problems(DataCenter, sc.dcs,
                          lambda i: f"data center {sc.dcs[i].id} "),
        *field_problems("channel ", sc.channel)]
    path_loss = (sc.channel.pl0, sc.channel.d0_m, sc.channel.d_min_m,
                 sc.channel.exponent)
    try:
        d_far = float(np.max(sc.ru_ue_distances, initial=0.0))
    except (TypeError, ValueError, IndexError):
        d_far = 0.0               # malformed positions are reported above
    if (all(map(is_real, path_loss))
            and (why := path_gain_problem(*path_loss, d_far)) is not None):
        problems.append(f"channel model {why}")

    def check_dense_ids(items, label) -> bool:
        ids = [it.id for it in items]
        dense = all_integers(ids) and ids == list(range(len(ids)))
        if not dense:
            problems.append(f"{label} ids must be the integers "
                            f"0..{len(ids) - 1}, got {ids}")
        return dense

    check_dense_ids(sc.services, "service")
    check_dense_ids(sc.slices, "slice")
    rus_dense = check_dense_ids(sc.rus, "radio unit")
    check_dense_ids(sc.dcs, "data center")
    if not sc.dcs:
        problems.append("scenario has no data center")

    for sv in sc.services:
        if sv.n_ues < 1:
            problems.append(f"service {sv.id} has no UEs")
        check_dense_ids(sv.ues, f"service {sv.id} UE")

    n_prbs = sc.prb_assignment.n_prbs
    flags = {
        "radio unit": _id_list_flags(
            [sl.ru_ids for sl in sc.slices],
            len(sc.rus) if rus_dense else {ru.id for ru in sc.rus}),
        "PRB": _id_list_flags([sl.prb_ids for sl in sc.slices], n_prbs)}
    for i, sl in enumerate(sc.slices):
        for what, (sizes, _typed, twice, unknown) in flags.items():
            if not sizes[i]:
                problems.append(f"slice {sl.id} owns no {what}s")
            if twice[i]:
                problems.append(f"slice {sl.id} lists a {what} twice")
            if unknown[i]:
                problems.append(f"slice {sl.id} references unknown {what}s")
        if sl.m_du < 1 or sl.m_cu < 1:
            problems.append(f"slice {sl.id} needs at least one VNF per layer")
        if len(sl.vnf_demands) != sl.m_du + sl.m_cu:
            problems.append(
                f"slice {sl.id} must list exactly m_du+m_cu VNF demands")

    triples = sc.prb_assignment.triples
    dims = (sc.n_ues, n_prbs, sc.n_slices)
    inside = ((triples >= 0) & (triples < dims)).all(axis=1)
    if not inside.all():
        problems.append(f"zeta entries must be [ue, prb, slice] index "
                        f"triples within {dims}")
    # a slice that owns every PRB owns those zeta marks; the others are
    # checked against their own lists
    sizes, typed, twice, unknown = flags["PRB"]
    partial = typed & (twice | unknown | (sizes != n_prbs))
    if partial.any():
        t = triples[inside]
        t = t[np.argsort(t[:, 2], kind="stable")]     # grouped by slice
        cuts = np.searchsorted(t[:, 2], np.arange(1, sc.n_slices))
        listed = np.split(t[:, 1], cuts)
        for i in np.flatnonzero(partial).tolist():
            if not set(listed[i].tolist()) <= set(sc.slices[i].prb_ids):
                problems.append(f"slice {sc.slices[i].id}: zeta marks PRBs "
                                f"the slice does not own")

    return problems


def invalid_scenario_text(problems: list[str], shown: int = 5) -> str:
    """The first `shown` of `validate`'s problems, and how many more."""
    more = len(problems) - shown
    return ("invalid scenario: " + "; ".join(problems[:shown])
            + (f"; and {more} more" if more > 0 else ""))


# --------------------------------------------------------------------------
# Serialization
# --------------------------------------------------------------------------


def _record(obj) -> dict:
    """A record as its JSON object: each tuple field becomes a list."""
    return asdict(obj, dict_factory=lambda items: {
        key: list(value) if isinstance(value, tuple) else value
        for key, value in items})


def scenario_to_dict(sc: Scenario) -> dict:
    return {
        "schema": SCHEMA_VERSION,
        "units": dict(UNITS),
        "params": _record(sc.params),
        "channel": _record(sc.channel),
        **{name: [_record(x) for x in getattr(sc, name)]
           for name in ("services", "slices", "rus", "dcs")},
        "prbs": {"count": sc.prb_assignment.n_prbs},
        "zeta": sc.prb_assignment.triples.tolist(),
    }


def _whole_record(cls, obj: dict):
    """`cls(**obj)`, with every field of `cls` required, defaults too."""
    if missing := [f.name for f in fields(cls) if f.name not in obj]:
        raise TypeError(f"{cls.__name__} record lacks {', '.join(missing)}")
    return cls(**obj)


def scenario_from_dict(data: dict) -> Scenario:
    """The scenario of a file's JSON object.  Each record is built from
    all of its keys, so an unknown key raises, and so does a missing one
    (`params` and `channel` give no field a default here)."""
    if data.get("schema") != SCHEMA_VERSION:
        raise ScenarioError(
            f"unsupported scenario schema {data.get('schema')!r}")
    params = _whole_record(SystemParams, data["params"])
    channel = _whole_record(ChannelModel, data["channel"])
    services = tuple(Service(**{**sv, "ues": tuple(
        UserEquipment(**{**ue, "position": tuple(ue["position"])})
        for ue in sv["ues"])}) for sv in data["services"])
    slices = tuple(Slice(**{
        **sl, "ru_ids": tuple(sl["ru_ids"]), "prb_ids": tuple(sl["prb_ids"]),
        "vnf_demands": tuple(VnfRequirement(**v) for v in sl["vnf_demands"])})
        for sl in data["slices"])
    rus = tuple(RadioUnit(**{**ru, "position": tuple(ru["position"])})
                for ru in data["rus"])
    dcs = tuple(DataCenter(**dc) for dc in data["dcs"])
    n_prbs = data["prbs"]["count"]
    if (why := field_problem("PRB ", "count", n_prbs)) is not None:
        raise ScenarioError(why)
    rows = data["zeta"]
    if (not all_integers(chain.from_iterable(rows))
            or set(map(len, rows)) - {3}):
        raise ScenarioError("zeta entries must be [ue, prb, slice] integer "
                            "index triples")
    triples = np.fromiter(chain.from_iterable(rows), np.int64, 3 * len(rows))
    sc = Scenario(params=params, services=services, slices=slices, rus=rus,
                  dcs=dcs, prb_assignment=PrbAssignment(n_prbs, triples),
                  channel=channel)
    if problems := validate(sc):
        raise ScenarioError(invalid_scenario_text(problems))
    return sc


def write_json(path: str, payload: dict) -> None:
    """`payload` as key-sorted JSON, one level per indent, newline-ended."""
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")


def save_scenario(sc: Scenario, path: str) -> None:
    write_json(path, scenario_to_dict(sc))


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
