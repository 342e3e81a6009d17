"""Command-line front end producing CSV/JSON artifacts.

Subcommands
-----------
probability-surface
    Coincidence-density surfaces over momentum grids (two-photon surfaces in
    mean/difference coordinates, three/four-photon surfaces on tensor grids).
fi-curve
    Per-order and total Fisher information versus separation.
fi-vs-ns
    Per-order and total Fisher information versus source brightness, with the
    sub-Rayleigh closed-form total for reference.
bucket-compare
    Momentum-resolved versus bucket (class-probability-only) Fisher
    information versus separation.
estimate
    Monte Carlo Cramér-Rao saturation study of the ML separation estimator.

Every run writes a JSON manifest next to the CSV with all resolved
parameters and the tool version, so any output is re-derivable.  Outputs are
deterministic given (config, seed): floats are serialized with ``repr`` (full
round-trip precision) and manifests carry no timestamps.

Parameters may come from a JSON config file (``--config``), whose keys are
the long option names with underscores; explicit flags override the config,
which overrides built-in defaults.  Lengths are in units of the PSF width
sigma_x, momenta in units of sigma_k, Fisher informations in units of
sigma_k^2.  The default output directory is taken from the ``HOMSR_OUTDIR``
environment variable when set.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import __version__
from .coincidence import four_photon_density, three_photon_density, two_photon_density, TwoPhotonCoordinates
from .estimation import FrameSampler, crb_report, mle_separation
from .fisher import QuadratureSpec, bucket_fisher, fisher_L, fisher_total, subrayleigh_fisher_total
from .optics import PsfModel, SourceScene

_SURFACE_GRID_DEFAULT = {2: 61, 3: 21, 4: 11}


def _parse_grid(spec: str) -> np.ndarray:
    """Parse a grid spec: "lo:hi:n" (linear), "log:lo:hi:n", or "v1,v2,...". """
    if "," in spec:
        return np.array([float(v) for v in spec.split(",")])
    parts = spec.split(":")
    if parts[0] == "log":
        lo, hi, n = float(parts[1]), float(parts[2]), int(parts[3])
        return np.geomspace(lo, hi, n)
    lo, hi, n = float(parts[0]), float(parts[1]), int(parts[2])
    return np.linspace(lo, hi, n)


def _fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return str(bool(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def _write_csv(path, header, rows):
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def _write_manifest(out_path, command, params, header):
    manifest = {
        "tool": "homsr",
        "version": __version__,
        "command": command,
        "parameters": params,
        "output": os.path.basename(out_path),
        "csv_columns": list(header),
    }
    with open(out_path + ".manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _resolve(args, defaults):
    """Merge built-in defaults, --config JSON and explicit flags."""
    params = dict(defaults)
    if args.config:
        with open(args.config) as fh:
            loaded = json.load(fh)
        unknown = set(loaded) - set(defaults)
        if unknown:
            raise SystemExit(f"unknown config keys: {sorted(unknown)}")
        params.update(loaded)
    for key in defaults:
        value = getattr(args, key, None)
        if value is not None:
            params[key] = value
    return params


def _out_path(args, params, default_name):
    out = params.get("out")
    if out is None:
        outdir = args.outdir or os.environ.get("HOMSR_OUTDIR") or "."
        out = os.path.join(outdir, default_name)
    os.makedirs(os.path.dirname(out) or ".", exist_ok=True)
    return out


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

_SURFACE_DEFAULTS = {"l": 2, "x_class": "B", "s": 5.0, "ns": 1.5, "grid": None, "out": None}


def cmd_probability_surface(args):
    params = _resolve(args, _SURFACE_DEFAULTS)
    L, x_class = int(params["l"]), str(params["x_class"]).upper()
    params["l"], params["x_class"] = L, x_class
    if L not in (2, 3, 4):
        raise SystemExit("probability-surface supports --l in {2, 3, 4}")
    psf = PsfModel()
    scene = SourceScene(separation=float(params["s"]), brightness=float(params["ns"]))
    n = int(params["grid"]) if params["grid"] is not None else _SURFACE_GRID_DEFAULT[L]
    params["grid"] = n
    sk = psf.sigma_k
    out = _out_path(args, params, "probability_surface.csv")

    if L == 2:
        if x_class not in ("A", "B"):
            raise SystemExit("two-photon class must be 'A' or 'B'")
        kbar = np.linspace(-3.0, 3.0, n) * sk
        dk = np.linspace(-6.0, 6.0, n) * sk
        header = ("kbar", "dk", "density")
        rows = []
        for kb in kbar:
            dens = two_photon_density(TwoPhotonCoordinates(k_bar=kb, delta_k=dk), x_class, scene, psf)
            rows.extend((kb / sk, d / sk, v) for d, v in zip(dk, dens))
    else:
        valid = ("B", "UA") if L == 3 else ("B", "A", "UA")
        if x_class not in valid:
            raise SystemExit(f"{L}-photon class must be one of {valid}")
        axis = np.linspace(-3.0, 3.0, n) * sk
        grids = np.meshgrid(*([axis] * L), indexing="ij")
        ks = [g.ravel() for g in grids]
        density_fn = three_photon_density if L == 3 else four_photon_density
        dens = density_fn(*ks, x_class, scene, psf)
        header = tuple(f"k{i + 1}" for i in range(L)) + ("density",)
        rows = (tuple(k[i] / sk for k in ks) + (dens[i],) for i in range(axis.size ** L))

    _write_csv(out, header, rows)
    _write_manifest(out, "probability-surface", params, header)
    return 0


_FI_CURVE_DEFAULTS = {"ns": 1.5, "s_grid": "log:0.01:8:25", "lmax": None, "quad": "auto", "out": None}


def cmd_fi_curve(args):
    params = _resolve(args, _FI_CURVE_DEFAULTS)
    psf = PsfModel()
    s_grid = _parse_grid(str(params["s_grid"]))
    scheme = {"auto": "auto", "gh": "gauss_hermite_tensor", "mc": "monte_carlo_importance"}.get(str(params["quad"]))
    if scheme is None:
        raise SystemExit(f"fi-curve supports quad in {{auto, gh, mc}}, not {params['quad']!r}")
    quad = QuadratureSpec(scheme=scheme)
    lmax = int(params["lmax"]) if params["lmax"] is not None else None
    out = _out_path(args, params, "fi_curve.csv")

    header = ("s", "L", "F_L", "F_L_stderr", "F_total", "converged")
    rows = []
    all_converged = True
    for s in s_grid:
        scene = SourceScene(separation=float(s), brightness=float(params["ns"]))
        breakdown = fisher_total(scene, psf, l_max=lmax, quad=quad)
        for L in sorted(breakdown.per_L):
            est = breakdown.per_L[L]
            all_converged &= est.converged
            rows.append((s, L, est.value, est.stderr, breakdown.total, est.converged))
    _write_csv(out, header, rows)
    _write_manifest(out, "fi-curve", params, header)
    if args.strict and not all_converged:
        print("fi-curve: unconverged Fisher estimates present", file=sys.stderr)
        return 1
    return 0


_FI_VS_NS_DEFAULTS = {"s": 0.01, "ns_grid": "0.01:5:25", "lmax": None, "out": None}


def cmd_fi_vs_ns(args):
    params = _resolve(args, _FI_VS_NS_DEFAULTS)
    psf = PsfModel()
    ns_grid = _parse_grid(str(params["ns_grid"]))
    lmax = int(params["lmax"]) if params["lmax"] is not None else None
    out = _out_path(args, params, "fi_vs_ns.csv")

    header = ("ns", "L", "F_L", "F_total", "closed_form_total")
    rows = []
    all_converged = True
    for ns in ns_grid:
        scene = SourceScene(separation=float(params["s"]), brightness=float(ns))
        breakdown = fisher_total(scene, psf, l_max=lmax)
        closed = subrayleigh_fisher_total(float(ns))
        for L in sorted(breakdown.per_L):
            est = breakdown.per_L[L]
            all_converged &= est.converged
            rows.append((ns, L, est.value, breakdown.total, closed))
    _write_csv(out, header, rows)
    _write_manifest(out, "fi-vs-ns", params, header)
    if args.strict and not all_converged:
        print("fi-vs-ns: unconverged Fisher estimates present", file=sys.stderr)
        return 1
    return 0


_BUCKET_DEFAULTS = {"l": 2, "s_grid": "log:0.01:8:25", "ns": 1.5, "out": None}


def cmd_bucket_compare(args):
    params = _resolve(args, _BUCKET_DEFAULTS)
    L = int(params["l"])
    params["l"] = L
    if L not in (2, 3, 4):
        raise SystemExit("bucket-compare supports --l in {2, 3, 4}")
    psf = PsfModel()
    s_grid = _parse_grid(str(params["s_grid"]))
    out = _out_path(args, params, "bucket_compare.csv")

    header = ("s", "F_resolved", "F_bucket")
    rows = []
    for s in s_grid:
        scene = SourceScene(separation=float(s), brightness=float(params["ns"]))
        resolved = fisher_L(scene, psf, L).value
        bucket = bucket_fisher(scene, psf, L)
        rows.append((s, resolved, bucket))
    _write_csv(out, header, rows)
    _write_manifest(out, "bucket-compare", params, header)
    return 0


_ESTIMATE_DEFAULTS = {
    "true_s": 1.0,
    "ns": 1.5,
    "frames": 5000,
    "trials": 20,
    "seed": 1234,
    "l_cap": 12,
    "out": None,
}


def cmd_estimate(args):
    params = _resolve(args, _ESTIMATE_DEFAULTS)
    psf = PsfModel()
    true_s, ns = float(params["true_s"]), float(params["ns"])
    frames, trials = int(params["frames"]), int(params["trials"])
    seed, l_cap = int(params["seed"]), int(params["l_cap"])
    scene = SourceScene(separation=true_s, brightness=ns)
    out = _out_path(args, params, "estimate.csv")

    sampler = FrameSampler(scene, psf, l_cap=l_cap)
    header = ("trial", "s_hat", "boundary")
    rows = []
    s_hats = []
    boundary_count = 0
    for trial in range(trials):
        rng = np.random.default_rng([seed, trial])
        record = sampler.sample_record(rng, frames)
        report = mle_separation(record, psf, ns, l_cap=l_cap, true_separation=true_s, compute_crb=False)
        s_hats.append(report.s_hat)
        boundary_count += report.boundary_flag
        rows.append((trial, report.s_hat, report.boundary_flag))
    _write_csv(out, header, rows)

    s_hats = np.array(s_hats)
    variance = float(s_hats.var(ddof=1)) if trials > 1 else float("nan")
    crb = crb_report(scene, psf, frames)
    ratio = variance / crb
    summary = {
        "trials": trials,
        "frames": frames,
        "true_s": true_s,
        "ns": ns,
        "seed": seed,
        "mean": float(s_hats.mean()),
        "variance": variance,
        "crb": crb,
        "bias": float(s_hats.mean() - true_s),
        "variance_over_crb": ratio,
        "saturation_pass": bool(0.8 <= ratio <= 1.3),
        "boundary_count": boundary_count,
    }
    with open(out + ".summary.json", "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    _write_manifest(out, "estimate", params, header)
    if args.strict and (boundary_count > 0 or not summary["saturation_pass"]):
        print("estimate: boundary estimates or failed saturation window", file=sys.stderr)
        return 1
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="homsr", description=__doc__.split("\n\n")[0])
    parser.add_argument("--version", action="version", version=f"homsr {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON config file; flags override its keys")
        p.add_argument("--out", help="output CSV path")
        p.add_argument("--outdir", help="output directory (default: $HOMSR_OUTDIR or '.')")
        p.add_argument("--strict", action="store_true", help="nonzero exit on any flagged non-convergence")

    p = sub.add_parser("probability-surface", help="coincidence-density surface over a momentum grid")
    p.add_argument("--l", type=int, help="photon number L (2, 3 or 4)")
    p.add_argument("--x-class", dest="x_class", help="outcome class: B, A or UA")
    p.add_argument("--s", type=float, help="separation in sigma_x units")
    p.add_argument("--ns", type=float, help="brightness per source")
    p.add_argument("--grid", type=int, help="grid points per momentum axis")
    common(p)
    p.set_defaults(func=cmd_probability_surface)

    p = sub.add_parser("fi-curve", help="Fisher information vs separation")
    p.add_argument("--ns", type=float, help="brightness per source")
    p.add_argument("--s-grid", dest="s_grid", help="grid spec: lo:hi:n, log:lo:hi:n, or v1,v2,...")
    p.add_argument("--lmax", type=int, help="largest photon order (default: brightness-based)")
    p.add_argument("--quad", choices=("auto", "gh", "mc"), help="quadrature scheme")
    common(p)
    p.set_defaults(func=cmd_fi_curve)

    p = sub.add_parser("fi-vs-ns", help="Fisher information vs brightness")
    p.add_argument("--s", type=float, help="separation in sigma_x units")
    p.add_argument("--ns-grid", dest="ns_grid", help="grid spec for brightness")
    p.add_argument("--lmax", type=int, help="largest photon order")
    common(p)
    p.set_defaults(func=cmd_fi_vs_ns)

    p = sub.add_parser("bucket-compare", help="resolved vs bucket Fisher information")
    p.add_argument("--l", type=int, help="photon order (2, 3 or 4)")
    p.add_argument("--s-grid", dest="s_grid", help="grid spec for separation")
    p.add_argument("--ns", type=float, help="brightness per source")
    common(p)
    p.set_defaults(func=cmd_bucket_compare)

    p = sub.add_parser("estimate", help="ML estimation / CRB saturation study")
    p.add_argument("--true-s", dest="true_s", type=float, help="true separation")
    p.add_argument("--ns", type=float, help="brightness per source")
    p.add_argument("--frames", type=int, help="frames per trial")
    p.add_argument("--trials", type=int, help="number of trials")
    p.add_argument("--seed", type=int, help="base RNG seed")
    p.add_argument("--l-cap", dest="l_cap", type=int, help="largest sampled frame size")
    common(p)
    p.set_defaults(func=cmd_estimate)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
