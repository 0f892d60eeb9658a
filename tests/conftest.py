"""Shared builders for hand-constructed scenarios.

Most tests either generate a random scenario through the public config or
assemble a tiny one by hand where every number is chosen so the expected
result can be worked out on paper.  The builder below handles the second
kind: it wires up services, slices, RUs and DCs with dense ids and
permissive PRB eligibility triples, leaving every knob overridable.
"""

from __future__ import annotations

import numpy as np
import pytest

from oranslice.scenario import (ChannelModel, DataCenter, PrbAssignment,
                                RadioUnit, Scenario, Service, Slice,
                                SystemParams, UserEquipment, VnfRequirement)
from oranslice.radio import (ChannelSet, MappingEvaluator, SliceMapping,
                             build_beamformers, build_channels)


NOISE_PSD = 10.0 ** (-174.0 / 10.0) * 1e-3    # -174 dBm/Hz in W/Hz


def default_params(**overrides) -> SystemParams:
    base = dict(bandwidth_hz=120e3, noise_psd=NOISE_PSD, p_max=10.0,
                r_min=1.0, c_max=200.0, d_max=300e-6, mu1=1e4, mu2=1e4,
                nu=0.0, sigma_q_default=1e-4, packet_size_bits=1.0)
    base.update(overrides)
    return SystemParams(**base)


def hand_scenario(ue_counts=(1,), arrival_rates=None, slice_rus=((0,),),
                  n_rus=None, sigma_q2=None, slice_prbs=None,
                  prbs_per_slice=1, vnf_demands=None,
                  vnf_demand=(100.0, 10.0, 32.0), m_du=1, m_cu=1,
                  dc_specs=((1000.0, 100.0, 320.0),), phi_idle=0.0,
                  phi_per_unit=1.0, params=None, triples=None) -> Scenario:
    """Build a dense, valid scenario from plain tuples.

    ue_counts: UEs per service.  slice_rus: per slice, the tuple of RU
    ids it owns.  slice_prbs: per slice, the PRBs it owns (default:
    disjoint ranges of prbs_per_slice each).  vnf_demands: per-slice
    (mem, sto, cpu) totals, defaulting to vnf_demand for every slice.
    triples: the (ue, prb, slice) eligibility rows; by default every UE
    is eligible on every PRB its slice owns, which keeps validate() happy.
    """
    params = params or default_params()
    n_ues = sum(ue_counts)
    if arrival_rates is None:
        arrival_rates = [100.0] * n_ues
    services = []
    u = 0
    for v, cnt in enumerate(ue_counts):
        ues = tuple(UserEquipment(id=i, arrival_rate=float(arrival_rates[u + i]),
                                  position=(10.0 * (u + i), 0.0))
                    for i in range(cnt))
        services.append(Service(id=v, ues=ues))
        u += cnt
    if n_rus is None:
        n_rus = max(r for rus in slice_rus for r in rus) + 1
    if sigma_q2 is None:
        sigma_q2 = [params.sigma_q_default] * n_rus
    elif np.isscalar(sigma_q2):
        sigma_q2 = [float(sigma_q2)] * n_rus
    rus = tuple(RadioUnit(id=r, position=(0.0, 10.0 * r),
                          sigma_q2=float(sigma_q2[r])) for r in range(n_rus))
    n_slices = len(slice_rus)
    if slice_prbs is None:
        slice_prbs = tuple(tuple(range(s * prbs_per_slice,
                                       (s + 1) * prbs_per_slice))
                           for s in range(n_slices))
    if vnf_demands is None:
        vnf_demands = (vnf_demand,) * n_slices
    slices = []
    for s, rus_s in enumerate(slice_rus):
        mem, sto, cpu = vnf_demands[s]
        per_vnf = VnfRequirement(memory_gb=mem / (m_du + m_cu),
                                 storage_tb=sto / (m_du + m_cu),
                                 cpu_ghz=cpu / (m_du + m_cu))
        slices.append(Slice(id=s, ru_ids=tuple(rus_s),
                            prb_ids=tuple(slice_prbs[s]),
                            m_du=m_du, m_cu=m_cu,
                            vnf_demands=(per_vnf,) * (m_du + m_cu)))
    slices = tuple(slices)
    dcs = tuple(DataCenter(id=d, memory_gb=spec[0], storage_tb=spec[1],
                           cpu_ghz=spec[2], phi_idle=phi_idle,
                           phi_per_unit=phi_per_unit)
                for d, spec in enumerate(dc_specs))
    n_prbs = max(k for prbs in slice_prbs for k in prbs) + 1
    if triples is None:
        triples = [(u, k, s) for s in range(n_slices)
                   for u in range(n_ues) for k in slice_prbs[s]]
    return Scenario(params=params, services=tuple(services), slices=slices,
                    rus=rus, dcs=dcs,
                    prb_assignment=PrbAssignment(n_prbs=n_prbs,
                                                 triples=triples),
                    channel=ChannelModel(seed=0))


def channels_from_matrix(sc: Scenario, gains) -> ChannelSet:
    """Wrap an explicit (n_rus, n_ues) complex gain matrix."""
    g = np.asarray(gains, dtype=complex)
    assert g.shape == (len(sc.rus), sc.n_ues)
    return ChannelSet(gains=g)


def evaluator(sc: Scenario, mapping: SliceMapping) -> MappingEvaluator:
    """The mapping's evaluator under the scenario's own channels."""
    return MappingEvaluator(sc, build_beamformers(sc, build_channels(sc)),
                            mapping)


def full_mapping(sc: Scenario) -> SliceMapping:
    """Every service on every slice."""
    return SliceMapping(a=np.ones((sc.n_services, sc.n_slices), dtype=np.int8))


def identity_mapping(sc: Scenario) -> SliceMapping:
    """Service v on slice v; requires square-or-wider slice count."""
    a = np.zeros((sc.n_services, sc.n_slices), dtype=np.int8)
    for v in range(sc.n_services):
        a[v, v % sc.n_slices] = 1
    return SliceMapping(a=a)


def small_joint_config():
    """Two services, two slices, sized for the brute-force mapping oracle.

    Both slices draw on the same large RU pool so its slot noise
    dominates the power cost, and the 64-step power grid can resolve the
    flat interior optimum.
    """
    from oranslice.scenario import GeneratorConfig
    return GeneratorConfig(n_services=2, mean_ues=1.0, max_ues=1,
                           n_slices=2, n_rus=192, rus_per_slice=192,
                           p_max=0.5, sigma_q_frac=3.5e-4,
                           r_min_per_hz=1.0, region_m=100.0)


def placement_config(n_slices, n_dcs, scale):
    """The placement acceptance test's generator at one size."""
    from oranslice.scenario import GeneratorConfig
    return GeneratorConfig(n_services=min(3, n_slices), n_slices=n_slices,
                           n_dcs=n_dcs, mean_ues=1.0, max_ues=2, n_rus=8,
                           rus_per_slice=4, slice_cv=0.25,
                           dc_memory_gb=1000.0 * scale,
                           dc_storage_tb=100.0 * scale,
                           dc_cpu_ghz=320.0 * scale)


@pytest.fixture
def rng():
    return np.random.default_rng(0)
