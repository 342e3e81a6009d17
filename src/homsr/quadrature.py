"""Envelope expectations: the one numeric integration path of the package.

:func:`envelope_expectation` takes E_env[f(k)] over ``dim`` momenta drawn
from the product envelope prod_m |phi(k_m)|^2 (isotropic Gaussian, per-axis
standard deviation sigma_k).  It serves :func:`homsr.fisher.fisher_L`
(dim = L) and the ``"gh"``/``"mc"`` cross-checks of
:func:`homsr.coincidence.class_weights`.  Schemes (:class:`QuadratureSpec`):

* ``"gauss_hermite_tensor"``: tensor Gauss-Hermite, ``nodes_per_dim`` per
  axis (default 64, 48, 40 for dim 1, 2, 3, else 24); the error is the
  node-refinement difference from the rule with int(3n/4) nodes per axis.
* ``"monte_carlo_importance"``: ``sample_count`` envelope draws in
  ``batch_count`` batches seeded ``[seed, dim, b]``; the error is the
  standard error of the batch means.
* ``"auto"``: Gauss-Hermite for dim <= 3, Monte Carlo above.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .optics import PsfModel

_GH_NODES = {1: 64, 2: 48, 3: 40}


@dataclass(frozen=True)
class QuadratureSpec:
    """Integration controls for :func:`envelope_expectation` (see the module docstring)."""

    scheme: str = "auto"
    nodes_per_dim: int | None = None
    sample_count: int = 200_000
    seed: int = 20240801
    relative_error_target: float = 0.05
    batch_count: int = 20

    def __post_init__(self):
        if self.nodes_per_dim is not None and self.nodes_per_dim < 8:
            raise ValueError("nodes_per_dim must be >= 8")
        if self.sample_count < 10_000:
            raise ValueError("sample_count must be >= 10^4")
        if self.batch_count < 2:
            raise ValueError("batch_count must be >= 2")


def envelope_gh_nodes(psf: PsfModel, dim: int, nodes_per_dim: int):
    """Tensor Gauss-Hermite rule for E_env[f] = sum_i w_i f(k_i).

    Returns ``(k, w)`` with ``k`` of shape ``(nodes_per_dim**dim, dim)``.
    """
    x, wx = np.polynomial.hermite.hermgauss(nodes_per_dim)
    k = np.stack(np.meshgrid(*([np.sqrt(2.0) * psf.sigma_k * x] * dim), indexing="ij"), axis=-1)
    w = np.prod(np.meshgrid(*([wx / np.sqrt(np.pi)] * dim), indexing="ij"), axis=0)
    return k.reshape(-1, dim), w.ravel()


def envelope_mc_nodes(psf: PsfModel, dim: int, count: int, rng: np.random.Generator):
    """Draw ``count`` iid samples of the product envelope (equal weights 1/count)."""
    return rng.standard_normal((count, dim)) * psf.sigma_k


def envelope_expectation(f, dim: int, psf: PsfModel, quad: QuadratureSpec):
    """E_env[f(k)] over ``dim`` envelope momenta; returns ``(value, error, scheme)``.

    ``f`` maps momenta of shape (N, dim) to values of shape (N, ...); value
    and error have the trailing shape, and ``scheme`` is the one used after
    resolving "auto".
    """
    scheme = quad.scheme
    if scheme == "auto":
        scheme = "gauss_hermite_tensor" if dim <= 3 else "monte_carlo_importance"

    if scheme == "gauss_hermite_tensor":
        def rule(nodes):
            k, w = envelope_gh_nodes(psf, dim, nodes)
            return w @ f(k)

        n = quad.nodes_per_dim or _GH_NODES.get(dim, 24)
        value = rule(n)
        return value, np.abs(value - rule(int(0.75 * n))), scheme

    if scheme == "monte_carlo_importance":
        batch = quad.sample_count // quad.batch_count
        means = np.array([
            f(envelope_mc_nodes(psf, dim, batch, np.random.default_rng([quad.seed, dim, b]))).mean(axis=0)
            for b in range(quad.batch_count)
        ])
        return means.mean(axis=0), means.std(axis=0, ddof=1) / math.sqrt(quad.batch_count), scheme

    raise ValueError(f"unknown quadrature scheme: {quad.scheme}")
