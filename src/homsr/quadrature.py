"""Shared quadrature helpers: tensor Gauss-Hermite nodes and envelope MC draws.

The numeric integrals in this package are expectations against the product
momentum envelope prod_m |phi(k_m)|^2, i.e. an isotropic Gaussian with
per-axis standard deviation sigma_k.  They serve :func:`homsr.fisher.fisher_L`
(Gauss-Hermite tensor grids for L <= 3, importance-sampled Monte Carlo with
the envelope as proposal above) and the ``"gh"``/``"mc"`` cross-checks of the
closed-form class weights in :func:`homsr.coincidence.class_weights`.
"""

from __future__ import annotations

import numpy as np

from .optics import PsfModel


def envelope_gh_nodes(psf: PsfModel, dim: int, nodes_per_dim: int):
    """Tensor Gauss-Hermite rule for E_env[f] = sum_i w_i f(k_i).

    Returns ``(k, w)`` with ``k`` of shape ``(nodes_per_dim**dim, dim)``.
    """
    x, wx = np.polynomial.hermite.hermgauss(nodes_per_dim)
    k1 = np.sqrt(2.0) * psf.sigma_k * x
    w1 = wx / np.sqrt(np.pi)
    grids = np.meshgrid(*([k1] * dim), indexing="ij")
    k = np.stack([g.ravel() for g in grids], axis=-1)
    w = np.ones(k.shape[0])
    wgrids = np.meshgrid(*([w1] * dim), indexing="ij")
    for g in wgrids:
        w *= g.ravel()
    return k, w


def envelope_mc_nodes(psf: PsfModel, dim: int, count: int, rng: np.random.Generator):
    """Draw ``count`` iid samples of the product envelope (equal weights 1/count)."""
    k = rng.standard_normal((count, dim)) * psf.sigma_k
    return k
