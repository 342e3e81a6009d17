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

Every option is declared once, in :data:`COMMANDS`.  Parameters may come
from a JSON config file (``--config``), whose keys are the long option names
with underscores; each value is parsed exactly like the flag's text (JSON
``null`` keeps the default).  Explicit flags override the config, which
overrides built-in defaults.  ``--strict`` makes a flagged result exit 1
after the files are written.  Lengths are in units of the PSF width sigma_x,
momenta in units of sigma_k, Fisher informations in units of sigma_k^2.  The
default output directory is taken from the ``HOMSR_OUTDIR`` environment
variable when set.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import __version__
from .coincidence import four_photon_density, three_photon_density, two_photon_density, TwoPhotonCoordinates
from .estimation import L_CAP, SEARCH_INTERVAL, FrameSampler, crb_report, mle_separation
from .fisher import QuadratureSpec, bucket_fisher, fisher_L, fisher_total
from .optics import PsfModel, SourceScene

_SURFACE_GRID_DEFAULT = {2: 61, 3: 21, 4: 11}
_QUAD_SCHEMES = {"auto": "auto", "gh": "gauss_hermite_tensor", "mc": "monte_carlo_importance"}
_UNCONVERGED = "unconverged Fisher estimates present"


def _parse_grid(spec: str) -> np.ndarray:
    """Parse a grid spec: "lo:hi:n" (linear), "log:lo:hi:n", or "v1,v2,..." (any spec without ":")."""
    try:
        if ":" not in spec:
            grid = np.array([float(v) for v in spec.split(",")])
        else:
            parts = spec.split(":")
            log = parts[0] == "log"
            lo, hi, n = parts[1:] if log else parts
            lo, hi, n = float(lo), float(hi), int(n)
            if n < 1 or not np.isfinite([lo, hi]).all() or (log and min(lo, hi) <= 0):
                raise ValueError
            grid = (np.geomspace if log else np.linspace)(lo, hi, n)
        if not np.isfinite(grid).all():
            raise ValueError
    except ValueError:
        raise ValueError(
            f"grid spec {spec!r} must be lo:hi:n, log:lo:hi:n (lo, hi > 0) or v1,v2,... with n >= 1"
        ) from None
    return grid


def _fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return str(bool(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def _write(out, command, params, header, rows, summary=None):
    """Write the CSV at ``out``, its manifest and, when given, its summary."""
    os.makedirs(os.path.dirname(out) or ".", exist_ok=True)
    with open(out, "w") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(",".join(_fmt(v) for v in row) + "\n" for row in rows)
    manifest = {
        "tool": "homsr",
        "version": __version__,
        "command": command,
        "parameters": params,
        "output": os.path.basename(out),
        "csv_columns": list(header),
    }
    for suffix, doc in ((".manifest.json", manifest), (".summary.json", summary)):
        if doc is not None:
            with open(out + suffix, "w") as fh:
                json.dump(doc, fh, indent=2, sort_keys=True)
                fh.write("\n")


def _parse_option(name, kind, value):
    """Parse a config value like the flag's text: ``kind(str(value))``, or one of the choices ``kind``."""
    parse = type(kind[0]) if isinstance(kind, tuple) else kind
    try:
        parsed = parse(str(value))
    except ValueError:
        raise ValueError(f"config key {name!r}: {value!r} is not a valid {parse.__name__}") from None
    if isinstance(kind, tuple) and parsed not in kind:
        raise ValueError(f"config key {name!r}: {value!r} is not one of {', '.join(map(str, kind))}")
    return parsed


def _resolve(args, options):
    """Merge built-in defaults, --config JSON and explicit flags, in that order."""
    options = [option for option in options if option[1] is not bool]
    params = {name: default for name, _, default, _ in options}
    loaded = {}
    if args.config:
        try:
            with open(args.config) as fh:
                loaded = json.load(fh)
        except (OSError, ValueError) as exc:  # missing, unreadable or not JSON: an input error like a bad flag
            raise ValueError(f"config {args.config}: {exc}") from None
        if not isinstance(loaded, dict):
            raise ValueError(f"config {args.config} is not a JSON object of option names: {json.dumps(loaded):.40}")
        unknown = set(loaded) - set(params)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
    for name, kind, _, _ in options:
        if loaded.get(name) is not None:
            params[name] = _parse_option(name, kind, loaded[name])
        if getattr(args, name) is not None:
            params[name] = getattr(args, name)
    return params


# ---------------------------------------------------------------------------
# Subcommands: each takes the resolved parameters and returns
# (CSV header, rows, what --strict flags or None, summary or None)
# ---------------------------------------------------------------------------

def cmd_probability_surface(params):
    L, x_class = params["l"], params["x_class"]
    psf = PsfModel()
    scene = SourceScene(separation=params["s"], brightness=params["ns"])
    n = params["grid"] = _SURFACE_GRID_DEFAULT[L] if params["grid"] is None else params["grid"]
    if n < 2 or n ** L > 10 ** 6:  # refused before any grid is built; 10^6 points bound a tensor GH rule too
        raise ValueError(f"needs grid >= 2 points per axis and grid^L <= 10^6 points, got grid={n}, grid^L = {n ** L}")
    sk = psf.sigma_k
    half_widths = (3.0, 6.0) if L == 2 else (3.0,) * L  # L = 2 is on (Kbar, dk), the difference twice as wide
    ks = [g.ravel() for g in np.meshgrid(*(np.linspace(-h, h, n) * sk for h in half_widths), indexing="ij")]
    if L == 2:
        names, dens = ("kbar", "dk"), two_photon_density(TwoPhotonCoordinates(*ks), x_class, scene, psf)
    else:
        names = tuple(f"k{i + 1}" for i in range(L))
        dens = (three_photon_density if L == 3 else four_photon_density)(*ks, x_class, scene, psf)
    rows = (tuple(k[i] / sk for k in ks) + (dens[i],) for i in range(dens.size))
    return names + ("density",), rows, None, None


def _fisher_sweep(spec, scene_at, lmax, quad=None):
    """``fisher_total`` at each value x of grid ``spec``: (x, L, F_L estimate, breakdown) rows, and
    what --strict flags."""
    psf, points = PsfModel(), []
    for x in _parse_grid(spec):
        breakdown = fisher_total(scene_at(float(x)), psf, l_max=lmax, quad=quad)
        points += [(x, L, est, breakdown) for L, est in sorted(breakdown.per_L.items())]
    return points, None if all(est.converged for _, _, est, _ in points) else _UNCONVERGED


def cmd_fi_curve(params):
    ns, quad = params["ns"], QuadratureSpec(scheme=_QUAD_SCHEMES[params["quad"]])
    points, problem = _fisher_sweep(params["s_grid"], lambda s: SourceScene(s, ns), params["lmax"], quad)
    rows = [(s, L, est.value, est.stderr, b.total, est.converged) for s, L, est, b in points]
    return ("s", "L", "F_L", "F_L_stderr", "F_total", "converged"), rows, problem, None


def cmd_fi_vs_ns(params):
    s = params["s"]
    points, problem = _fisher_sweep(params["ns_grid"], lambda ns: SourceScene(s, ns), params["lmax"])
    rows = [(ns, L, est.value, b.total, b.closed_form_refs["subrayleigh_total"]) for ns, L, est, b in points]
    return ("ns", "L", "F_L", "F_total", "closed_form_total"), rows, problem, None


def cmd_bucket_compare(params):
    L, psf, rows, converged = params["l"], PsfModel(), [], True
    for s in _parse_grid(params["s_grid"]):
        scene = SourceScene(separation=float(s), brightness=params["ns"])
        resolved = fisher_L(scene, psf, L)
        converged &= resolved.converged
        rows.append((s, resolved.value, bucket_fisher(scene, psf, L)))
    return ("s", "F_resolved", "F_bucket"), rows, None if converged else _UNCONVERGED, None


def cmd_estimate(params):
    true_s, ns, frames, trials = params["true_s"], params["ns"], params["frames"], params["trials"]
    seed, l_cap = params["seed"], params["l_cap"]
    if trials < 2 or frames < 1:
        raise ValueError(f"needs trials >= 2 and frames >= 1, got trials={trials}, frames={frames}")
    if seed < 0:  # numpy takes no negative seed, and the sampler's scan would run first
        raise ValueError(f"needs --seed >= 0, got seed={seed}")
    lo, hi = SEARCH_INTERVAL
    if not lo < true_s < hi:  # outside, every trial's estimate lands on the fit's boundary
        raise ValueError(f"needs true_s inside the fit's search interval {lo} < s < {hi}, got true_s={true_s!r}")
    psf = PsfModel()
    scene = SourceScene(separation=true_s, brightness=ns)
    sampler = FrameSampler(scene, psf, l_cap=l_cap)
    rows = []
    for trial in range(trials):
        rng = np.random.default_rng([seed, trial])
        record = sampler.sample_record(rng, frames)
        report = mle_separation(record, psf, ns, l_cap=l_cap, true_separation=true_s, compute_crb=False)
        rows.append((trial, report.s_hat, report.boundary_flag))

    s_hats = np.array([row[1] for row in rows])
    boundary_count = sum(row[2] for row in rows)
    variance = float(s_hats.var(ddof=1))
    crb = crb_report(scene, psf, frames, l_cap)
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
        "crb_l_cap": l_cap,
        "bias": float(s_hats.mean() - true_s),
        "variance_over_crb": ratio,
        "saturation_pass": bool(0.8 <= ratio <= 1.3),
        "boundary_count": boundary_count,
    }
    problem = "boundary estimates or failed saturation window"
    ok = boundary_count == 0 and summary["saturation_pass"]
    return ("trial", "s_hat", "boundary"), rows, None if ok else problem, summary


# ---------------------------------------------------------------------------
# The option table and the parser built from it
# ---------------------------------------------------------------------------

# Each option is (name, type or tuple of choices, default, help).  The flag is
# --name with "-" for "_", and the config key is the name.  A bool option is a
# flag only (store_true) and no config key.
_GRID = "grid spec: lo:hi:n, log:lo:hi:n, or v1,v2,... (one value is a one-point grid)"
_NS = ("ns", float, 1.5, "brightness per source")
_STRICT = ("strict", bool, False, "exit 1 after writing the files if any result is flagged")
_OUT = ("out", str, None, "output CSV path (default: the CSV name below, in --outdir)")
_LMAX = ("lmax", int, None, "largest photon order summed into F_total (default: min(7, ceil(4 ns + 2)) at each ns); "
         "orders above it are left out: at ns = 1.5, about 23 %% of the L <= 24 sum at s = 1 and 36 %% at s = 8")

# Each subcommand is (run, help, default CSV name, options).
COMMANDS = {
    "probability-surface": (cmd_probability_surface, "coincidence-density surface over a momentum grid",
                            "probability_surface.csv", (
        ("l", (2, 3, 4), 2, "photon number L"),
        ("x_class", str.upper, "B", "outcome class: B, A or UA (A needs L = 2 or 4, UA needs L >= 3)"),
        ("s", float, 5.0, "separation in sigma_x units"),
        _NS,
        ("grid", int, None, "grid points per momentum axis (default: 61, 21, 11 at L = 2, 3, 4)"),
        _OUT)),
    "fi-curve": (cmd_fi_curve, "Fisher information vs separation", "fi_curve.csv", (
        _NS,
        ("s_grid", str, "log:0.01:8:25", _GRID),
        _LMAX,
        ("quad", tuple(_QUAD_SCHEMES), "auto", "quadrature scheme"),
        _STRICT, _OUT)),
    "fi-vs-ns": (cmd_fi_vs_ns, "Fisher information vs brightness", "fi_vs_ns.csv", (
        ("s", float, 0.01, "separation in sigma_x units"),
        ("ns_grid", str, "0.01:5:25", _GRID),
        _LMAX,
        _STRICT, _OUT)),
    "bucket-compare": (cmd_bucket_compare, "resolved vs bucket Fisher information", "bucket_compare.csv", (
        ("l", (2, 3, 4), 2, "photon order"),
        ("s_grid", str, "log:0.01:8:25", _GRID),
        _NS,
        _STRICT, _OUT)),
    "estimate": (cmd_estimate, "ML estimation / CRB saturation study", "estimate.csv", (
        ("true_s", float, 1.0, "true separation, inside the fit's search interval {} < s < {}".format(*SEARCH_INTERVAL)),
        _NS,
        ("frames", int, 5000, "frames per trial"),
        ("trials", int, 20, "number of trials"),
        ("seed", int, 1234, "base RNG seed"),
        ("l_cap", int, L_CAP, "largest sampled frame size"),
        _STRICT, _OUT)),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="homsr", description=__doc__.split("\n\n")[0])
    parser.add_argument("--version", action="version", version=f"homsr {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, help_text, csv_name, options) in COMMANDS.items():
        p = sub.add_parser(command, help=help_text, epilog=f"The CSV is {csv_name} unless --out is given.")
        p.add_argument("--config", help="JSON config file; flags override its keys")
        p.add_argument("--outdir", help="output directory (default: $HOMSR_OUTDIR or '.')")
        for name, kind, default, text in options:
            flag = "--" + name.replace("_", "-")
            if kind is bool:
                p.add_argument(flag, dest=name, action="store_true", help=text)
                continue
            if default is not None:
                text += f" (default: {default})"
            choices = kind if isinstance(kind, tuple) else None
            p.add_argument(flag, dest=name, type=type(kind[0]) if choices else kind, choices=choices, help=text)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    run, _, csv_name, options = COMMANDS[args.command]
    try:
        params = _resolve(args, options)
        header, rows, problem, summary = run(params)
    except ValueError as exc:
        raise SystemExit(f"homsr {args.command}: {exc}") from exc
    out = params["out"] or os.path.join(args.outdir or os.environ.get("HOMSR_OUTDIR") or ".", csv_name)
    _write(out, args.command, params, header, rows, summary)
    if problem and args.strict:
        print(f"{args.command}: {problem}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
