"""End-to-end tests of the command-line front end.

Each subcommand is exercised through ``homsr.cli.main`` with small grids;
assertions cover CSV schemas, manifest emission, config-file merging,
determinism of output bytes and the documented validation errors.
"""

import json
import os

import numpy as np
import pytest

from homsr.cli import main


def run(tmp_path, *argv):
    out = tmp_path / "out.csv"
    code = main(list(argv) + ["--out", str(out)])
    return code, out


def read_csv(path):
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        rows = [line.strip().split(",") for line in fh if line.strip()]
    return header, rows


class TestProbabilitySurface:
    def test_two_photon_schema_and_hom_zero(self, tmp_path):
        code, out = run(
            tmp_path, "probability-surface", "--l", "2", "--x-class", "A", "--s", "5", "--grid", "13"
        )
        assert code == 0
        header, rows = read_csv(out)
        assert header == ["kbar", "dk", "density"]
        assert len(rows) == 13 * 13
        # the antibunched class vanishes on the dk = 0 line
        zero_rows = [r for r in rows if float(r[1]) == 0.0]
        assert zero_rows and all(float(r[2]) < 1e-25 for r in zero_rows)

    def test_bunched_oscillation_period(self, tmp_path):
        # P(B) ~ 1 + cos(dk s / 2): period in dk is 4 pi / s.
        s = 20.0
        code, out = run(
            tmp_path, "probability-surface", "--l", "2", "--x-class", "B", "--s", str(s), "--grid", "241"
        )
        header, rows = read_csv(out)
        sk = 0.5
        line = [(float(r[1]), float(r[2])) for r in rows if float(r[0]) == 0.0]
        dk = np.array([v[0] for v in line]) * sk  # back to absolute units
        dens = np.array([v[1] for v in line])
        envelope = np.exp(-(dk ** 2) / (4 * sk ** 2))
        fringe = dens / envelope
        spectrum = np.abs(np.fft.rfft(fringe - fringe.mean()))
        freq = np.fft.rfftfreq(dk.size, d=dk[1] - dk[0])[np.argmax(spectrum)]
        assert 2 * np.pi * freq == pytest.approx(s / 2.0, rel=0.05)

    def test_four_photon_grid(self, tmp_path):
        code, out = run(
            tmp_path, "probability-surface", "--l", "4", "--x-class", "UA", "--s", "1", "--grid", "5"
        )
        header, rows = read_csv(out)
        assert header == ["k1", "k2", "k3", "k4", "density"]
        assert len(rows) == 5 ** 4
        assert all(float(r[-1]) >= 0 for r in rows)

    def test_invalid_class_usage_error(self, tmp_path):
        with pytest.raises(SystemExit):
            run(tmp_path, "probability-surface", "--l", "2", "--x-class", "UA")

    def test_manifest_written(self, tmp_path):
        code, out = run(tmp_path, "probability-surface", "--l", "2", "--x-class", "B", "--grid", "5")
        manifest = json.loads((tmp_path / "out.csv.manifest.json").read_text())
        assert manifest["command"] == "probability-surface"
        assert manifest["parameters"]["grid"] == 5
        assert manifest["csv_columns"] == ["kbar", "dk", "density"]
        assert manifest["tool"] == "homsr"


class TestFiCurve:
    def test_schema_and_convergence(self, tmp_path):
        code, out = run(tmp_path, "fi-curve", "--ns", "1.5", "--s-grid", "0.05,1", "--lmax", "3", "--strict")
        assert code == 0
        header, rows = read_csv(out)
        assert header == ["s", "L", "F_L", "F_L_stderr", "F_total", "converged"]
        assert len(rows) == 2 * 3
        assert all(r[5] == "True" for r in rows)
        # F_total is the sum of the per-order column at fixed s
        per_s = [float(r[2]) for r in rows if r[0] == rows[0][0]]
        assert sum(per_s) == pytest.approx(float(rows[0][4]), rel=1e-9)


class TestFiVsNs:
    def test_schema_and_closed_form_column(self, tmp_path):
        code, out = run(tmp_path, "fi-vs-ns", "--s", "0.01", "--ns-grid", "1.0,1.5", "--lmax", "2")
        assert code == 0
        header, rows = read_csv(out)
        assert header == ["ns", "L", "F_L", "F_total", "closed_form_total"]
        by_ns = {float(r[0]): float(r[4]) for r in rows}
        assert by_ns[1.0] == pytest.approx(0.3819660113, rel=1e-8)
        assert by_ns[1.5] == pytest.approx(0.4514162296, rel=1e-8)


class TestBucketCompare:
    def test_schema_and_limits(self, tmp_path):
        code, out = run(tmp_path, "bucket-compare", "--l", "2", "--s-grid", "0.02,8", "--ns", "1.5")
        assert code == 0
        header, rows = read_csv(out)
        assert header == ["s", "F_resolved", "F_bucket"]
        small = rows[0]
        large = rows[1]
        assert float(small[2]) >= 0.95 * float(small[1])
        assert float(large[2]) <= 0.05 * float(large[1])

    def test_l_validation(self, tmp_path):
        with pytest.raises(SystemExit):
            run(tmp_path, "bucket-compare", "--l", "5")


class TestEstimate:
    def test_schema_summary_and_determinism(self, tmp_path):
        args = ("estimate", "--true-s", "1", "--ns", "1.5", "--frames", "300", "--trials", "2",
                "--seed", "7", "--l-cap", "6")
        code, out = run(tmp_path, *args)
        assert code == 0
        header, rows = read_csv(out)
        assert header == ["trial", "s_hat", "boundary"]
        assert len(rows) == 2
        first = out.read_bytes()
        summary = json.loads((tmp_path / "out.csv.summary.json").read_text())
        assert set(summary) >= {"mean", "variance", "crb", "bias", "variance_over_crb", "saturation_pass"}
        code, out = run(tmp_path, *args)
        assert out.read_bytes() == first


class TestConfigAndOutdir:
    def test_config_merge_and_flag_override(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"ns": 0.5, "s": 3.0, "grid": 5}))
        out = tmp_path / "surf.csv"
        code = main([
            "probability-surface", "--config", str(config), "--s", "1.0",
            "--x-class", "B", "--out", str(out),
        ])
        assert code == 0
        manifest = json.loads((tmp_path / "surf.csv.manifest.json").read_text())
        assert manifest["parameters"]["ns"] == 0.5        # from config
        assert manifest["parameters"]["s"] == 1.0          # flag wins
        assert manifest["parameters"]["grid"] == 5

    def test_unknown_config_key_rejected(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"sigma": 1.0}))
        with pytest.raises(SystemExit):
            main(["probability-surface", "--config", str(config)])

    def test_unknown_config_quad_rejected(self, tmp_path):
        # config values bypass argparse's choices, so fi-curve checks them itself
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"quad": "simpson"}))
        with pytest.raises(SystemExit, match="auto, gh, mc"):
            main(["fi-curve", "--config", str(config), "--out", str(tmp_path / "fi.csv")])

    def test_outdir_environment_default(self, tmp_path, monkeypatch):
        monkeypatch.setenv("HOMSR_OUTDIR", str(tmp_path))
        code = main(["bucket-compare", "--l", "2", "--s-grid", "0.5,1", "--ns", "1.0"])
        assert code == 0
        assert (tmp_path / "bucket_compare.csv").exists()
        assert (tmp_path / "bucket_compare.csv.manifest.json").exists()
