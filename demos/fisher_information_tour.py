"""Fisher-information tour: superresolution without magic.

Shows that the interferometric measurement keeps a finite separation
information all the way to s -> 0 (where direct imaging loses everything),
compares numeric integrations against the closed-form limits, and ranks the
measurement hierarchy from bucket detection to full momentum resolution.
Run with

    python3 demos/fisher_information_tour.py
"""

import numpy as np

from homsr import (
    PsfModel,
    QuadratureSpec,
    SourceScene,
    asymptotic_fisher_2p,
    bucket_fisher,
    di_baseline_fisher,
    fisher_L,
    fisher_total,
    sampling_hierarchy_fi,
    subrayleigh_fisher_total,
)

psf = PsfModel(sigma_x=1.0)
ns = 1.5

print("=" * 72)
print("Total Fisher information vs separation (N_s = 1.5, sigma_k^2 units)")
print("=" * 72)
print(f"{'s/sigma_x':>10} {'F_total':>10} {'F_2':>10} {'DI baseline':>12}")
for s in (0.01, 0.1, 0.5, 1.0, 2.0, 5.0):
    scene = SourceScene(separation=s, brightness=ns)
    breakdown = fisher_total(scene, psf)
    di = di_baseline_fisher(scene, psf, pixel_pitch=0.05, n_pixels=400)
    print(f"{s:>10.2f} {breakdown.total:>10.4f} {breakdown.per_L[2].value:>10.4f} {di:>12.5f}")
print(f"closed-form s->0 total: {subrayleigh_fisher_total(ns):.4f}")
print(f"closed-form s->inf F_2: {asymptotic_fisher_2p(ns):.4f}")
print("Direct imaging collapses as s^2 below the PSF width (the Rayleigh")
print("curse); the interferometric total stays within a factor ~3 of its")
print("small-s plateau across two decades of separation.")

print()
print("=" * 72)
print("Where the information lives: per-order breakdown at s = 0.1 sigma_x")
print("=" * 72)
scene = SourceScene(separation=0.1, brightness=ns)
breakdown = fisher_total(scene, psf)
for L in sorted(breakdown.per_L):
    est = breakdown.per_L[L]
    share = est.value / breakdown.total
    print(f"L = {L}:  F = {est.value:.5f}  ({share:6.1%})  [{est.scheme}]")
print("Even photon numbers dominate: odd frames waste the lone reference")
print("photon on an outcome whose statistics barely move with s.")

print()
print("=" * 72)
print("Measurement hierarchy at s = 1 sigma_x (two-photon frames)")
print("=" * 72)
h = sampling_hierarchy_fi(SourceScene(separation=1.0, brightness=ns), psf)
print(f"class only (bucket)         : {h.f_x:.4f}")
print(f"class + Kbar marginal       : {h.f_kbar_x:.4f}")
print(f"class + dk marginal         : {h.f_dk_x:.4f}")
print(f"fully momentum-resolved     : {h.f_full:.4f}")
gh = QuadratureSpec(scheme="gauss_hermite_tensor")  # by default fisher_L at L = 2 is f_full itself
print(f"independent 2-D quadrature  : {fisher_L(SourceScene(1.0, ns), psf, 2, gh).value:.4f}")

print()
print("=" * 72)
print("Bucket detection: free lunch below the Rayleigh limit only")
print("=" * 72)
print(f"{'s/sigma_x':>10} {'bucket/resolved':>16}")
for s in (0.02, 0.5, 2.0, 5.0, 8.0):
    scene = SourceScene(separation=s, brightness=ns)
    ratio = bucket_fisher(scene, psf, 2) / fisher_L(scene, psf, 2).value
    print(f"{s:>10.2f} {ratio:>16.4f}")
print("Photon counting per port is nearly optimal in the sub-Rayleigh")
print("regime; resolving transverse momenta becomes essential once the")
print("sources are separated by a few PSF widths.")
