"""Queueing model: per-slice M/M/1 VNF layers plus a transmission stage.

Every slice runs two VNF layers (distributed-unit and central-unit
processing).  Packets of all services mapped onto the slice arrive as a
pooled Poisson stream and are load-balanced across the layer's VNFs, so
each layer behaves as an M/M/1 queue with arrival rate alpha/M and mean
sojourn 1/(mu - alpha/M).  A third stage models radio transmission as an
M/M/1 queue whose service capacity is the slice's summed downlink rate.

Every function works on all slices at once.  A mapping's `incidence`
lists (UE u, slice s) for every slice s serving u's service
(`SliceMapping.incidence`), each slice's UEs in ascending order.
"""

from __future__ import annotations

import numpy as np

from .scenario import Scenario


class UnstableQueueError(ValueError):
    """A queueing stage is at or beyond its stability limit."""


def slice_sums(x: np.ndarray, incidence: tuple[np.ndarray, np.ndarray],
               n_slices: int) -> np.ndarray:
    """Per slice, the sum of x[u] over the UEs it serves.

    A running sum from zero in the incidence's ascending UE order, so
    each slice's total is rounded exactly as a loop over its UEs would
    round it.
    """
    ue, slc = incidence
    return np.bincount(slc, weights=x[ue], minlength=n_slices)



def layer_delays(sc: Scenario, alpha: np.ndarray,
                 ) -> tuple[np.ndarray, np.ndarray, dict[int, str]]:
    """Mean sojourn times (DU, CU) of every slice's two VNF layers, s.

    Each layer spreads the slice's pooled arrivals `alpha` evenly over
    its VNFs; a layer is only stable while mu > alpha / M.  The dict maps
    each slice with an unstable layer to the UnstableQueueError text of
    its first (DU before CU); that slice's delays are meaningless.
    """
    mu = np.array([[sc.params.mu1], [sc.params.mu2]])
    per_vnf = alpha / sc.vnf_counts
    unstable: dict[int, str] = {}
    for s, layer in zip(*np.nonzero((per_vnf >= mu).T)):
        unstable.setdefault(int(s), (
            f"slice {s} {('DU', 'CU')[layer]} layer unstable: per-VNF load "
            f"{per_vnf[layer, s]:.6g} >= service rate {mu[layer, 0]:.6g} "
            f"packet/s"))
    with np.errstate(divide="ignore", over="ignore"):
        du, cu = 1.0 / (mu - per_vnf)
    return du, cu, unstable


def transmission_delays(sc: Scenario, alpha: np.ndarray, r_tot: np.ndarray,
                        active: np.ndarray, unstable: dict[int, str],
                        ) -> tuple[np.ndarray, dict[int, str]]:
    """Mean sojourn of every slice's transmission stage, s, and the
    unstable texts of every slice.

    `alpha` and `r_tot` are every slice's pooled packet arrivals and
    summed UE rate in bit/s (`slice_sums` of the arrival rates and of the
    rates); `active` marks the slices that serve a service.  Packet
    arrivals are converted to bits with the configured packet size, and
    the stage is stable only while the slice's summed rate exceeds that
    offered load.  `unstable` holds the texts of the slices' two
    `layer_delays`; the returned dict adds, for each other active slice
    whose transmission stage is unstable, its UnstableQueueError text.
    A slice's total delay is its two layer delays plus this one.
    """
    with np.errstate(over="ignore", divide="ignore"):
        offered = alpha * sc.params.packet_size_bits    # inf: never stable
        return 1.0 / (r_tot - offered), {**{int(s): (
            f"transmission stage unstable: slice rate {r_tot[s]:.6g} <= "
            f"offered load {offered[s]:.6g}")
            for s in np.flatnonzero(active & (r_tot <= offered))}, **unstable}
