"""Identity battery: one SHA-256 per family of homsr outputs.

    python tools/identity.py                  # digests of this checkout
    python tools/identity.py --against DIR    # and of the checkout at DIR

Use it to back a claim that a refactor leaves every output bit-identical:
run it with ``--against`` a second checkout of the parent commit (``git
worktree add ../parent HEAD~1``, say).  For each family whose digest differs
it prints the item whose largest |difference|, over that item's largest
magnitude (complex values compared as such), is greatest, and that ratio; a
family that the other checkout does not collect reads ``MISSING there``.

Each checkout runs its own ``tools/identity.py`` (a checkout without one is
refused) in its own process with its ``src`` first on ``sys.path``; both run
at once.  So each battery calls its checkout's internals in that checkout's
call shapes, and only the items' names and inputs must stay fixed from one
commit to the next.  The families are densities (every split,
with a camera assignment, with ``delta_override``, without the envelope, and
the 2-, 3- and 4-photon closed forms), all-splits densities, the frame-size
law, the bracket kernel in each call shape (one order and several orders with
every split, with one split and with split subsets taken from those, one split
per row, one order with one split per row)
at real and complex-step s, so that a kernel change is seen before
integration, envelope expectations of a fixed three-column integrand under
each scheme at dims 1..4, so that a change in how a rule sums is seen before
any Fisher value is, the Fisher integrand of orders 1..7, alone and
together, on one lattice shift and on near-diagonal two-photon rows at four
s, so that a floor or block change is seen row by row, class weights by each method,
bucket and sub-Rayleigh values, ``fisher_total`` at fixed s and l_max,
``fisher_L`` of each order alone at those scenes and at one with l_max 7
(so that a change in how orders share nodes shows per order, not only in
the sum), ``fisher_L`` of orders 1..3 at the ``fisher_total`` scenes under
explicit tensor Gauss-Hermite (``fisher_L.gh``, a path no default call
takes), each order's scheme, rule size and convergence flag in those
``fisher_total`` and ``fisher_L.gh`` items (``fisher.routes``, so that a
change in how a rule is sized or labelled shows where the values do not),
``crb_report`` at the ``homsr estimate`` scene with l_cap 12 and
6, the two-photon sampling hierarchy and the pixelated direct-imaging
baseline, the rejection bounds of every (L, X) cell of a fresh sampler at each record's scene,
before any draw (so that a change to the bound scan shows apart from one to the draws), three
5000-frame records (frames, written lines, ŝ of the record and of its
read-back copy with the search's evaluations, convergence flag and boundary flag, and likelihood
curves), one more 5000-frame record at s = 0.1 fitted on two search intervals, both fits ending on
the interval's edge (``records.edge``, the search's edge branch), five 2000-frame records that one
sampler at the ``homsr estimate`` scene draws in turn (``records.sequence``, so that a record which
depends on the records drawn before it shows), and the outputs of the CLI runs in
``tests/test_cli.py`` with their temporary paths normalised.  It takes
about 7 s on 2 vCPU.

This is not a test: pinned digests would turn every intended numeric change
into a test edit.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import pickle
import re
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

SCENES = ((0.01, 1.5), (1.0, 1.5), (4.0, 0.5), (8.0, 3.0))
# (s, N_s, l_max) of the fisher_total items; the fisher_L items take each order alone at these and at l_max 7.
FISHER_SCENES = ((1.0, 1.5, 5), (0.05, 1.5, 3))
# (s, N_s, l_cap) of the sampled records; the first is the `homsr estimate` default.
RECORDS = ((1.0, 1.5, 12), (0.3, 1.5, 8), (2.0, 4.0, 8))
RECORD_FRAMES = 5000
# (records, frames each) that one sampler at the first RECORDS scene draws in turn for records.sequence.
SEQUENCE = (5, 2000)
# (s, N_s, l_cap) of the records.edge record, and the search intervals it is fitted on.
EDGE_RECORD, EDGE_INTERVALS = (0.1, 1.5, 12), ((0.05, 4.0), (1e-3, 4.0))
# (pixel pitch, pixel count) of the direct-imaging baseline: both reach >= 6 sigma_x past the sources at s <= 8.
PIXEL_GRIDS = ((0.1, 400), (0.5, 64))
CLI_RUNS = (
    ("probability-surface", "--l", "2", "--x-class", "A", "--s", "5", "--grid", "13"),
    ("probability-surface", "--l", "2", "--x-class", "B", "--s", "20.0", "--grid", "241"),
    ("probability-surface", "--l", "4", "--x-class", "UA", "--s", "1", "--grid", "5"),
    ("probability-surface", "--l", "2", "--x-class", "B", "--grid", "5"),
    ("probability-surface", "--config", "{config}", "--s", "1.0", "--x-class", "B"),
    ("fi-curve", "--ns", "1.5", "--s-grid", "0.05,1", "--lmax", "3", "--strict"),
    ("fi-curve", "--s-grid", "0.5", "--lmax", "2"),
    ("fi-vs-ns", "--s", "0.01", "--ns-grid", "1.0,1.5", "--lmax", "2"),
    ("bucket-compare", "--l", "2", "--s-grid", "0.02,8", "--ns", "1.5"),
    ("bucket-compare", "--l", "2", "--s-grid", "0.5,1", "--ns", "1.0"),
    ("estimate", "--true-s", "1", "--ns", "1.5", "--frames", "300", "--trials", "2", "--seed", "7", "--l-cap", "6"),
    ("estimate", "--trials", "1"),
    ("fi-curve", "--lmax", "1"),
    ("fi-curve", "--s-grid", "0:1:2"),
    ("fi-curve", "--quad", "gh", "--lmax", "5", "--s-grid", "1:1:1"),
    ("probability-surface", "--l", "3", "--x-class", "A"),
)


def _densities(families, psf, rng):
    from homsr import coincidence as c
    from homsr.optics import SourceScene

    dens, splits, law = families["densities"], families["all_splits"], families["frame_size_law"]
    for s, ns in SCENES:
        scene = SourceScene(s, ns)
        law[f"s={s} ns={ns}"] = c.frame_size_distribution(30, scene, psf)
        law[f"s={s} ns={ns} delta=0"] = c.frame_size_distribution(30, scene, psf, delta_override=0.0)
        for L in (1, 2, 3, 4, 5, 7, 12):
            k = rng.standard_normal((64, L)) * psf.sigma_k
            splits[f"s={s} ns={ns} L={L}"] = c.coincidence_density_all_splits(L, k, scene, psf)
            splits[f"s={s} ns={ns} L={L} delta=0.3"] = c.coincidence_density_all_splits(
                L, k, scene, psf, delta_override=0.3)
            for X in range(L + 1):
                key = f"s={s} ns={ns} L={L} X={X}"
                dens[key] = c.coincidence_density_grid(L, X, k, scene, psf)
                dens[key + " rolled assignment"] = c.coincidence_density_grid(
                    L, X, k, scene, psf, assignment=tuple(np.roll([1] * X + [0] * (L - X), 1)))
                dens[key + " delta=0"] = c.coincidence_density_grid(L, X, k, scene, psf, delta_override=0.0)
                dens[key + " no envelope"] = c.coincidence_density_grid(L, X, k, scene, psf, include_envelope=False)
        k = rng.standard_normal((4, 64)) * psf.sigma_k
        for x_class in ("A", "B"):
            coords = c.TwoPhotonCoordinates.from_momenta(k[0], k[1])
            dens[f"s={s} ns={ns} two-photon {x_class}"] = c.two_photon_density(coords, x_class, scene, psf)
            dens[f"s={s} ns={ns} four-photon {x_class}"] = c.four_photon_density(*k, x_class, scene, psf)
        for x_class in ("B", "UA"):
            dens[f"s={s} ns={ns} three-photon {x_class}"] = c.three_photon_density(*k[:3], x_class, scene, psf)


def _kernel(families, psf, rng):
    from homsr import coincidence as c

    k = rng.standard_normal((200, 12)) * psf.sigma_k
    lengths = np.sort(rng.integers(1, 13, len(k)))[::-1]
    xs = rng.integers(0, lengths + 1)
    orders = (1, 4, 7, 12)
    sub_orders, sub_splits = (2, 5, 9), ([0, 2], [1, 4], list(range(10)))  # split subsets, some reading X = 0
    sub_columns = [sum(n + 1 for n in sub_orders[:i]) + X for i, x in enumerate(sub_splits) for X in x]
    xs7 = np.arange(len(k)) % 8  # the sampler's call shape: one L, every split mixed
    flat = np.concatenate([k[lengths > a, a] for a in range(12)])  # the per-row form's column prefixes
    for s in (0.01, 1.0, 8.0):
        for step, z in (("real", s), ("complex step", s * (1 + 1e-20j))):
            tables = c._theta_tables(12, 1.5, np.exp(-0.5 * (z * psf.sigma_k) ** 2))
            got = {f"orders {orders}": c._bracket(k, z, tables, orders)}
            got[f"orders {sub_orders} at splits {sub_splits}"] = c._bracket(k[:, :9], z, tables, sub_orders)[
                :, sub_columns]
            got["one split per row"] = c._bracket(c._row_plan(flat, lengths, xs), z, tables)
            got["L=7, one split per row"] = c._bracket(c._row_plan(k[:, :7].T.ravel(), np.full(len(k), 7), xs7), z,
                                                       tables)
            for L in (1, 2, 4, 7, 12):
                every = c._bracket(k[:, :L], z, tables)
                got[f"L={L} every split"], got[f"L={L} X={L // 2}"] = every, every[:, L // 2 : L // 2 + 1]
            for name, value in got.items():  # real and imaginary parts apart, so both are compared
                families["kernel"][f"s={s} {step} {name}"] = np.stack([value.real, value.imag])


def _quadrature(families, psf):
    from homsr import quadrature as q

    def f(k):  # column-major: two integrands and their sum
        a, b = np.exp(k.sum(axis=1)), np.abs(k).prod(axis=1)
        return np.array([a, b, a + b]).T

    for scheme in ("gauss_hermite_tensor", "monte_carlo_importance", "rank1_lattice"):
        for dim in (1, 2, 3, 4):
            value, error, _ = q.envelope_expectation(f, dim, psf, q.QuadratureSpec(scheme=scheme))
            families["quadrature"][f"{scheme} dim={dim}"] = np.array([value, error])


def _integrand(families, psf, rng):
    from homsr import fisher as f
    from homsr import quadrature as q
    from homsr.optics import SourceScene

    k = q.envelope_lattice_nodes(psf, 7, 1021, rng)
    # rows with k_2 -> k_1, whose split X = 1 falls towards zero across the integrand's floor
    near = rng.standard_normal(40) * psf.sigma_k
    near = np.column_stack([near, near + np.geomspace(1e-10, 1e-5, 40) * psf.sigma_k])
    for s in (1e-7, 0.01, 1.0, 8.0):
        scene = SourceScene(s, 1.5)
        for L in range(1, 8):
            families["integrand"][f"s={s} L={L}"] = f._fisher_integrand((L,), k[:, :L], scene, psf)[:, 0]
        families["integrand"][f"s={s} orders 1..7"] = f._fisher_integrand(tuple(range(1, 8)), k, scene, psf)
        families["integrand"][f"s={s} L=2 near-diagonal"] = f._fisher_integrand((2,), near, scene, psf)[:, 0]


def _weights_and_limits(families, psf):
    from homsr import coincidence as c
    from homsr import fisher as f
    from homsr.optics import SourceScene

    limits = families["bucket_subrayleigh"]
    for s, ns in SCENES:
        scene = SourceScene(s, ns)
        for L in range(1, 13):
            families["class_weights.auto"][f"s={s} ns={ns} L={L}"] = c.class_weights(L, scene, psf)
        for L in (1, 2, 3):
            families["class_weights.gh"][f"s={s} ns={ns} L={L}"] = c.class_weights(L, scene, psf, method="gh")
        for L in (2, 4):
            families["class_weights.mc"][f"s={s} ns={ns} L={L}"] = c.class_weights(
                L, scene, psf, method="mc", sample_count=20_000)
        key = f"s={s} ns={ns}"
        limits[key + " bucket_fisher"] = np.array([f.bucket_fisher(scene, psf, L) for L in (2, 3, 4)])
        limits[key + " bucket_probability"] = np.array([c.bucket_probability(P, scene, psf) for P in (1, 2, 3)])
        limits[key + " two_photon_class"] = np.array(
            [c.two_photon_class_probability(x, scene, psf) for x in ("A", "B")] + [c.interference_kappa(scene, psf)])
        k = np.linspace(-2.0, 2.0, 40).reshape(10, 4) * psf.sigma_k
        limits[key + " leading density"] = c.subrayleigh_leading_density(2, k, scene, psf)
    for ns in (0.1, 0.5, 1.5, 5.0):
        limits[f"ns={ns} orders, total, asymptotic"] = np.array(
            [f.subrayleigh_fisher_order(P, ns) for P in (1, 2, 3, 4)]
            + [f.subrayleigh_fisher_total(ns), f.asymptotic_fisher_2p(ns)])


def _routes(per_L):
    """Each order's (scheme, points, converged), one line per order."""
    return "\n".join(f"L={L} {e.scheme} {e.points} {e.converged}" for L, e in sorted(per_L.items()))


def _fisher(families, psf):
    from homsr import fisher as f
    from homsr.optics import SourceScene

    for s, ns, l_max in FISHER_SCENES:
        breakdown = f.fisher_total(SourceScene(s, ns), psf, l_max=l_max)
        rows = [(e.value, e.stderr) for _, e in sorted(breakdown.per_L.items())]
        families["fisher_total"][f"s={s} ns={ns} l_max={l_max}"] = np.array(
            rows + [(breakdown.total, breakdown.total_stderr)])
        families["fisher.routes"][f"fisher_total s={s} ns={ns} l_max={l_max}"] = _routes(breakdown.per_L)
    for s, ns, l_max in FISHER_SCENES + ((4.0, 1.5, 7),):
        for L in range(1, l_max + 1):
            estimate = f.fisher_L(SourceScene(s, ns), psf, L)
            families["fisher_L"][f"s={s} ns={ns} L={L}"] = np.array([estimate.value, estimate.stderr])
    gh = f.QuadratureSpec(scheme="gauss_hermite_tensor")
    for s, ns, _ in FISHER_SCENES:
        for L in (1, 2, 3):
            estimate = f.fisher_L(SourceScene(s, ns), psf, L, gh)
            families["fisher_L.gh"][f"s={s} ns={ns} L={L}"] = np.array([estimate.value, estimate.stderr])
            families["fisher.routes"][f"fisher_L.gh s={s} ns={ns} L={L}"] = _routes({L: estimate})


def _crb_and_baselines(families, psf):
    from homsr import estimation as e
    from homsr import fisher as f
    from homsr.optics import SourceScene

    for l_cap in (12, 6):
        families["crb"][f"s=1.0 ns=1.5 frames=5000 l_cap={l_cap}"] = np.array(
            e.crb_report(SourceScene(1.0, 1.5), psf, 5000, l_cap=l_cap))
    for s, ns in SCENES:
        scene = SourceScene(s, ns)
        h = f.sampling_hierarchy_fi(scene, psf)
        families["hierarchy"][f"s={s} ns={ns}"] = np.array([h.f_x, h.f_kbar_x, h.f_dk_x, h.f_full])
        families["di_baseline"][f"s={s} ns={ns}"] = np.array(
            [f.di_baseline_fisher(scene, psf, pitch, n) for pitch, n in PIXEL_GRIDS])


def _records(families, psf, tmp):
    from homsr import estimation as e
    from homsr.optics import SourceScene

    for i, (s, ns, l_cap) in enumerate(RECORDS):
        key = f"s={s} ns={ns} l_cap={l_cap}"
        sampler = e.FrameSampler(SourceScene(s, ns), psf, l_cap=l_cap)
        cells = [(L, X) for L in range(1, l_cap + 1) for X in range(L + 1)]
        families["majorants"][key] = np.array([sampler._majorant(L, X) for L, X in cells])
        record = sampler.sample_record(np.random.default_rng([20261018, i]), RECORD_FRAMES)
        frames = [(o.photon_count, o.camera_split, o.canonical_momenta) for o in record]
        families["records.frames"][key + " L, X"] = np.array([f[:2] for f in frames])
        families["records.frames"][key + " momenta"] = np.concatenate([f[2] for f in frames])
        lines = list(e.record_to_lines(record, psf))
        families["records.lines"][key] = "\n".join(lines)
        path = os.path.join(tmp, f"record{i}.csv")
        e.write_record(path, record, psf)
        back = e.read_record(path, psf)
        families["records.lines"][key + " read back"] = "\n".join(e.record_to_lines(back, psf))
        for label, r in (("", record), (" read back", back)):
            report = e.mle_separation(r, psf, ns, l_cap=l_cap, curve_points=9, compute_crb=False)
            families["records.s_hat"][key + label] = np.array(report.s_hat)
            families["records.s_hat"][key + label + " evaluations"] = np.array(report.objective_evals)
            families["records.s_hat"][key + label + " converged, at the edge"] = np.array(
                [report.optimizer_success, report.boundary_flag])
            families["records.curves"][key + label] = np.array(report.log_likelihood_curve)
    s, ns, l_cap = RECORDS[0]
    sampler = e.FrameSampler(SourceScene(s, ns), psf, l_cap=l_cap)
    for t in range(SEQUENCE[0]):
        record = sampler.sample_record(np.random.default_rng([20261018, 10 + t]), SEQUENCE[1])
        frames = [(o.photon_count, o.camera_split, o.canonical_momenta) for o in record]
        key = f"s={s} ns={ns} l_cap={l_cap} record {t}"
        families["records.sequence"][key + " L, X"] = np.array([f[:2] for f in frames])
        families["records.sequence"][key + " momenta"] = np.concatenate([f[2] for f in frames])
    s, ns, l_cap = EDGE_RECORD
    record = e.FrameSampler(SourceScene(s, ns), psf, l_cap=l_cap).sample_record(
        np.random.default_rng([20261018, len(RECORDS)]), RECORD_FRAMES)
    for interval in EDGE_INTERVALS:
        report = e.mle_separation(record, psf, ns, search_interval=interval, l_cap=l_cap, compute_crb=False)
        families["records.edge"][f"s={s} ns={ns} l_cap={l_cap} search={interval}"] = np.array(
            [report.s_hat, report.objective_evals, report.optimizer_success, report.boundary_flag])


def _cli(families, tmp):
    from homsr.cli import main

    config = os.path.join(tmp, "config.json")
    with open(config, "w") as fh:
        json.dump({"ns": 0.5, "s": 3.0, "grid": 5}, fh)
    for n, argv in enumerate(CLI_RUNS):
        out = os.path.join(tmp, f"cli{n}", "out.csv")
        argv = [a.format(config=config) for a in argv] + ["--out", out]
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
        text = [f"exit: {code}", stderr.getvalue()]
        for suffix in ("", ".manifest.json", ".summary.json"):
            if os.path.exists(out + suffix):
                text.append(Path(out + suffix).read_text())
        families["cli"][" ".join(argv[:-2]).replace(tmp, "<tmp>")] = "\n".join(text).replace(tmp, "<tmp>")


def collect(tree):
    """{family: {item: array or str}} of the homsr under ``tree/src``."""
    sys.path.insert(0, str(Path(tree) / "src"))
    import homsr
    from homsr.optics import PsfModel

    if not Path(homsr.__file__).resolve().is_relative_to((Path(tree) / "src").resolve()):
        raise SystemExit(f"imported {homsr.__file__}, not the homsr under {tree}/src")
    names = ("densities", "all_splits", "frame_size_law", "kernel", "quadrature", "integrand", "class_weights.auto",
             "class_weights.gh", "class_weights.mc", "bucket_subrayleigh", "fisher_total", "fisher_L", "fisher_L.gh",
             "fisher.routes", "crb", "hierarchy", "di_baseline", "majorants", "records.frames", "records.lines",
             "records.s_hat", "records.curves", "records.edge", "records.sequence", "cli")
    families = {name: {} for name in names}
    psf = PsfModel()
    with tempfile.TemporaryDirectory() as tmp:
        _densities(families, psf, np.random.default_rng(20261018))
        _kernel(families, psf, np.random.default_rng(20261019))
        _quadrature(families, psf)
        _integrand(families, psf, np.random.default_rng(20261020))
        _weights_and_limits(families, psf)
        _fisher(families, psf)
        _crb_and_baselines(families, psf)
        _records(families, psf, tmp)
        _cli(families, tmp)
    return families


def digest(items):
    h = hashlib.sha256()
    for key, value in items.items():
        h.update(key.encode() + b"\0")
        if isinstance(value, str):
            h.update(b"str\0" + value.encode())
        else:
            value = np.ascontiguousarray(value)
            h.update(f"{value.dtype.str}{value.shape}\0".encode() + value.tobytes())
    return h.hexdigest()


_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*(?:[eE][-+]?\d+)?|nan|inf)")


def _numbers(value):
    """An item's numbers as a flat complex array, and for text the text around them."""
    if isinstance(value, str):
        return np.array([float(t) for t in _NUMBER.findall(value)], dtype=complex), _NUMBER.sub("#", value)
    return np.asarray(value, dtype=complex).ravel(), None


def largest_difference(a, b):
    """(largest |difference| over largest magnitude, item) of the worst item of two families, or a note on
    what differs.  Each item is scaled as a whole, so an entry at rounding level beside larger ones (an error
    estimate next to its value) cannot set the reported difference alone."""
    if list(a) != list(b):
        return f"items differ: {sorted(set(a) ^ set(b))[:3]}"
    worst = (0.0, None)
    for key in a:
        (x, xt), (y, yt) = _numbers(a[key]), _numbers(b[key])
        if x.shape != y.shape or xt != yt:
            return f"{key}: shape or text differs"
        both = np.concatenate([x, y])
        with np.errstate(divide="ignore", invalid="ignore"):  # inf - inf (equal, as x == y says) and a zero scale
            delta = np.fmax.reduce(np.where(x == y, 0.0, np.abs(x - y)), initial=0.0)  # fmax skips NaN
            rel = delta / np.abs(both[np.isfinite(both)]).max(initial=0.0)
        if rel > worst[0]:
            worst = (float(rel), key)
    return worst


def run_trees(trees):
    """Collect each tree in a child process that runs the tree's own battery, all at once; returns their families
    and seconds.  A tree without ``tools/identity.py`` is refused."""
    tools = [Path(tree) / "tools" / "identity.py" for tree in trees]
    for tree, tool in zip(trees, tools):
        if not tool.is_file():
            raise SystemExit(f"{tree} has no tools/identity.py to collect it with")
    with tempfile.TemporaryDirectory() as tmp:
        jobs = []
        for n, (tree, tool) in enumerate(zip(trees, tools)):
            dump = os.path.join(tmp, f"{n}.pickle")
            argv = [sys.executable, str(tool), "--collect", str(tree), "--dump", dump]
            jobs.append((dump, time.perf_counter(), subprocess.Popen(argv, cwd=tmp)))
        results = []
        for dump, start, job in jobs:
            if job.wait():
                raise SystemExit(f"collecting {trees[len(results)]} failed with exit code {job.returncode}")
            with open(dump, "rb") as fh:
                results.append((pickle.load(fh), time.perf_counter() - start))
    return results


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--against", metavar="DIR", help="a second checkout to compare with")
    parser.add_argument("--collect", metavar="DIR", help=argparse.SUPPRESS)
    parser.add_argument("--dump", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.collect:
        families = collect(args.collect)
        with open(args.dump, "wb") as fh:
            pickle.dump(families, fh)
        return 0

    trees = [Path(__file__).resolve().parents[1]] + ([Path(args.against).resolve()] if args.against else [])
    results = run_trees(trees)
    for tree, (_, seconds) in zip(trees, results):
        print(f"# {tree}: {seconds:.1f} s")
    ours = results[0][0]
    differing = 0
    for name, items in ours.items():
        line = f"{name:20s} {len(items):4d} items  {digest(items)}"
        if args.against:
            theirs = results[1][0].get(name)
            if theirs is None:  # a family the other checkout's battery does not collect
                differing += 1
                line += "  MISSING there"
            elif digest(theirs) == digest(items):
                line += "  identical"
            else:
                differing += 1
                worst = largest_difference(items, theirs)
                line += f"  DIFFERS: {worst if isinstance(worst, str) else f'max rel {worst[0]:.3g} at {worst[1]}'}"
        print(line)
    if args.against:
        print(f"{differing} of {len(ours)} families differ or are missing there")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
