"""End-to-end tests of the command-line front end.

Each subcommand is exercised through ``homsr.cli.main`` with small grids;
assertions cover CSV schemas, manifest emission, config-file merging,
determinism of output bytes and the documented validation errors.
"""

import json
import os

import numpy as np
import pytest

import homsr.cli
from homsr.cli import build_parser, main
from homsr.fisher import FisherEstimate


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

    def test_one_value_grid(self, tmp_path):
        code, out = run(tmp_path, "fi-curve", "--s-grid", "0.5", "--lmax", "2")
        assert code == 0
        header, rows = read_csv(out)
        assert [(r[0], r[1]) for r in rows] == [("0.5", "1"), ("0.5", "2")]


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

    @pytest.mark.parametrize("strict, expected", [((), 0), (("--strict",), 1)])
    def test_unconverged_point_fails_only_under_strict(self, tmp_path, monkeypatch, strict, expected):
        def unconverged(scene, psf, L, quad=None):
            return FisherEstimate(value=1.0, stderr=0.5, converged=False, scheme="stand-in")

        monkeypatch.setattr(homsr.cli, "fisher_L", unconverged)
        code, out = run(tmp_path, "bucket-compare", "--s-grid", "0.5,1", *strict)
        assert code == expected
        header, rows = read_csv(out)   # the CSV is written either way
        assert [r[1] for r in rows] == ["1.0", "1.0"]


class TestGridSpec:
    @pytest.mark.parametrize("spec", ["log:0.01:8", "1:2:x", "0:1:0"])
    def test_bad_spec_exits_naming_the_forms(self, tmp_path, spec):
        with pytest.raises(SystemExit, match="lo:hi:n.*log:lo:hi:n.*v1,v2"):
            run(tmp_path, "fi-curve", "--s-grid", spec)


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


class TestInputErrors:
    @pytest.mark.parametrize("argv, cause", [
        (("estimate", "--trials", "1"), "trials=1"),
        (("estimate", "--frames", "0"), "frames=0"),
        (("fi-curve", "--s-grid", "0:1:2"), "requires s > 0"),
        (("fi-curve", "--lmax", "1"), "l_max must be >= 2"),
        (("bucket-compare", "--s-grid", "0:1:2"), "requires s > 0"),
        (("fi-vs-ns", "--ns-grid", "0:1:2"), "brightness must be positive"),
        (("estimate", "--l-cap", "1", "--trials", "2", "--frames", "10"), "l_cap must be >= 2"),
        (("estimate", "--true-s", "0", "--trials", "2", "--frames", "50", "--l-cap", "4"), "true_s=0.0"),
        (("estimate", "--true-s", "-1", "--trials", "2", "--frames", "50", "--l-cap", "4"), "true_s=-1.0"),
        (("probability-surface", "--grid", "0"), "grid=0"),
        (("probability-surface", "--grid", "-3"), "grid=-3"),
        (("probability-surface", "--l", "3", "--grid", "1"), "grid=1"),
        (("fi-curve", "--quad", "gh", "--lmax", "5", "--s-grid", "1:1:1"), "needs 7962624 nodes.*quad=auto"),
    ])
    def test_exits_with_message_and_writes_nothing(self, tmp_path, argv, cause):
        with pytest.raises(SystemExit, match=cause) as excinfo:
            run(tmp_path, *argv)
        assert excinfo.value.code.startswith(f"homsr {argv[0]}: ")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command, config, key", [
        ("estimate", {"frames": 300.9}, "frames"),
        ("probability-surface", {"ns": True}, "ns"),
        ("probability-surface", {"l": 2.7}, "l"),
    ])
    def test_config_value_parsed_like_the_flag(self, tmp_path, command, config, key):
        # the flag would reject this text, so the config key does too
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config))
        with pytest.raises(SystemExit, match=key) as excinfo:
            main([command, "--config", str(config_path), "--out", str(tmp_path / "out" / "out.csv")])
        assert excinfo.value.code.startswith(f"homsr {command}: ")
        assert list(tmp_path.iterdir()) == [config_path]

    def test_strict_only_where_something_can_be_flagged(self, tmp_path):
        with pytest.raises(SystemExit):
            run(tmp_path, "probability-surface", "--grid", "5", "--strict")


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

    @pytest.mark.parametrize("command", ["probability-surface", "fi-curve", "fi-vs-ns", "bucket-compare", "estimate"])
    def test_config_keys_are_the_long_options(self, tmp_path, command):
        parser = build_parser()
        subparser = next(a for a in parser._actions if a.dest == "command").choices[command]
        options = {s[2:].replace("-", "_") for a in subparser._actions for s in a.option_strings if s.startswith("--")}
        keys = options - {"help", "config", "outdir", "strict"}
        config = tmp_path / "config.json"
        config.write_text(json.dumps(dict.fromkeys(keys)))   # null keeps each default
        args = parser.parse_args([command, "--config", str(config)])
        params = homsr.cli._resolve(args, homsr.cli.COMMANDS[command][3])
        assert set(params) == keys and "out" in keys
        config.write_text(json.dumps({"strict": True}))
        with pytest.raises(ValueError, match="unknown config keys"):
            homsr.cli._resolve(args, homsr.cli.COMMANDS[command][3])

    def test_help_shows_table_defaults(self, capsys):
        with pytest.raises(SystemExit):
            main(["fi-curve", "--help"])
        text = " ".join(capsys.readouterr().out.split())
        assert "(default: log:0.01:8:25)" in text and "(default: auto)" in text and "(default: 1.5)" in text

    def test_unknown_config_key_rejected(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"sigma": 1.0}))
        with pytest.raises(SystemExit):
            main(["probability-surface", "--config", str(config)])

    def test_unknown_config_quad_rejected(self, tmp_path):
        # a config value is checked against the option's choices, as the flag is
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
