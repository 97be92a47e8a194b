"""Command-line front end: config resolution, validation, artifacts,
determinism, and manifest replay."""

import dataclasses
import hashlib
import json
import os
import platform
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy
import yaml

from hotelsim import cli
from hotelsim.cli import (ConfigError, load_config, main, parse_state,
                          resolve_config, validate_config)
from hotelsim.dynamics import PropagationError
from hotelsim.io import read_raster, write_json, write_raster
from hotelsim.well import WellGeometry

G = WellGeometry(1.0)

FAST_IDEAL = ["--set", "working_modes=512", "--set", "n_support=4"]
FAST_CARPET = ["--set", "m=127", "--set", "time_samples=16",
               "--set", "space_samples=32", "--set", "dt_steps_per_tau=256"]


def run_cli(*argv):
    return main(list(argv))


class TestConfigResolution:
    def test_defaults_fill_in(self):
        exp, cfg = resolve_config({"experiment": "well-ideal"})
        assert exp == "well-ideal"
        assert cfg["p"] == 2
        assert cfg["seed"] == 0

    def test_unknown_experiment(self):
        with pytest.raises(ConfigError):
            resolve_config({"experiment": "teleporter"})

    def test_unknown_key_rejected_recursively(self):
        with pytest.raises(ConfigError, match="knobs.ramp_speed"):
            resolve_config({"experiment": "well-dynamic",
                            "knobs": {"ramp_speed": 1}})

    def test_missing_experiment(self):
        with pytest.raises(ConfigError):
            resolve_config({"p": 2})


class TestValidate:
    def test_valid_config_is_clean(self):
        exp, cfg = resolve_config({"experiment": "well-ideal"})
        assert validate_config(exp, cfg) == []

    def test_capacity_violation(self):
        exp, cfg = resolve_config({"experiment": "well-ideal",
                                   "n_support": 8, "n_modes": 10})
        assert any("capacity" in v for v in validate_config(exp, cfg))

    def test_negative_width(self):
        exp, cfg = resolve_config({"experiment": "well-ideal", "width": -1.0})
        assert any("width" in v for v in validate_config(exp, cfg))

    def test_even_p_on_optical_bench(self):
        exp, cfg = resolve_config({"experiment": "oam-multiply", "p": 2})
        assert any("odd" in v for v in validate_config(exp, cfg))

    def test_undersampled_output_charge(self):
        exp, cfg = resolve_config({"experiment": "oam-multiply", "ell": 40,
                                   "ring_radius": 0.2e-3,
                                   "ring_width": 0.05e-3})
        assert any("pixels per azimuthal cycle" in v
                   for v in validate_config(exp, cfg))

    @pytest.mark.parametrize("experiment", ["well-dynamic", "well-sweep"])
    def test_even_grid_size_rejected(self, experiment):
        exp, cfg = resolve_config({"experiment": experiment,
                                   "knobs": {"m": 256}})
        assert any("knobs.m must be odd" in v for v in validate_config(exp, cfg))


    @pytest.mark.parametrize("experiment, bad, report", [
        ("well-dynamic", "knobs.compression_time=0",
         "knobs.compression_time must be positive"),
        ("well-dynamic", "knobs.wall_height=-5", "knobs.wall_height must be positive"),
        ("well-dynamic", "knobs.wall_edge_width_dx=0",
         "knobs.wall_edge_width_dx must be positive"),
        ("well-dynamic", "knobs.barrier_height=-1",
         "knobs.barrier_height must be positive"),
        ("well-sweep", "knobs.barrier_ramp_time=0",
         "knobs.barrier_ramp_time must be positive"),
        ("well-sweep", "knobs.barrier_half_width=-0.1",
         "knobs.barrier_half_width must be positive"),
        ("well-sweep", "compression_times=[1.0,-2.0]",
         "compression_times[1] must be positive, got -2.0"),
        ("well-sweep", "compression_times=[0,4.0]",
         "compression_times[0] must be positive, got 0"),
    ])
    def test_non_positive_dynamic_knob(self, tmp_path, capsys, experiment,
                                       bad, report):
        assert run_cli("validate", experiment, "--set", bad) == 0
        violations = yaml.safe_load(capsys.readouterr().out)["violations"]
        assert len(violations) == 1 and violations[0].startswith(report)
        out = tmp_path / "r"
        assert run_cli("run", experiment, "--out", str(out), "--set", bad) == 2
        assert not out.exists()


class TestParseState:
    RNG = np.random.default_rng(0)

    def test_single_level(self):
        s = parse_state("h2", G, 4, self.RNG, 4)
        assert abs(s.amps[1] - 1.0) < 1e-15

    def test_combination_with_signs(self):
        s = parse_state("h1-h3+h5", G, 6, self.RNG, 6)
        root = 1.0 / np.sqrt(3.0)
        assert np.allclose(s.amps, [root, 0, -root, 0, root, 0])

    def test_random_draws_on_support(self):
        s = parse_state("random", G, 8, np.random.default_rng(1), 3)
        assert np.all(s.amps[3:] == 0)
        assert np.isclose(np.linalg.norm(s.amps), 1.0)

    def test_rejects_garbage(self):
        for bad in ("hh2", "", "h0", "h9", 7):
            with pytest.raises(ConfigError):
                parse_state(bad, G, 4, self.RNG, 4)


class TestCommands:
    def test_list_experiments(self, capsys):
        assert run_cli("list-experiments") == 0
        out = capsys.readouterr().out.split()
        assert "well-ideal" in out and "oam-multiply" in out
        assert out == sorted(out)

    def test_validate_command_reports_clean(self, capsys):
        assert run_cli("validate", "well-ideal") == 0
        report = yaml.safe_load(capsys.readouterr().out)
        assert report == {"experiment": "well-ideal", "violations": []}

    def test_validate_command_lists_violations(self, capsys):
        assert run_cli("validate", "well-ideal", "--set", "width=-2") == 0
        report = yaml.safe_load(capsys.readouterr().out)
        assert report["violations"]

    def test_run_rejects_unknown_key(self, tmp_path):
        assert run_cli("run", "well-ideal", "--out", str(tmp_path / "r"),
                       "--set", "wormholes=3") == 2

    def test_run_rejects_invalid_config(self, tmp_path):
        assert run_cli("run", "well-ideal", "--out", str(tmp_path / "r"),
                       "--set", "width=-2") == 2

    def test_validate_carpet_reports_bad_scheme_and_samples(self, capsys):
        assert run_cli("validate", "carpet", "--set", "scheme=bogus",
                       "--set", "time_samples=1") == 0
        violations = yaml.safe_load(capsys.readouterr().out)["violations"]
        assert any("scheme" in v for v in violations)
        assert any("time_samples" in v for v in violations)

    def test_carpet_space_samples_beyond_m_reported(self, tmp_path, capsys):
        args = ["carpet", "--set", "m=127", "--set", "space_samples=500"]
        assert run_cli("validate", *args) == 0
        violations = yaml.safe_load(capsys.readouterr().out)["violations"]
        assert violations == ["space_samples = 500 exceeds m = 127: a grid of "
                              "m points has m distinct positions"]
        assert run_cli("run", *args, "--out", str(tmp_path / "r")) == 2

    @pytest.mark.parametrize("bad", ["scheme=bogus", "time_samples=1",
                                     "m=0", "space_samples=-4",
                                     "dt_steps_per_tau=0", "levels=[600]",
                                     "levels=[1.5]", "levels=3",
                                     "levels=[1,"])
    def test_run_rejects_invalid_carpet(self, tmp_path, bad):
        assert run_cli("run", "carpet", "--out", str(tmp_path / "r"),
                       "--set", bad) == 2

    @pytest.mark.parametrize("seed", ["abc", "-1", "2.7", "true", "[3]"])
    def test_bad_seed_exits_2(self, tmp_path, capsys, seed):
        assert run_cli("validate", "well-ideal", "--set", f"seed={seed}") == 2
        assert run_cli("run", "well-ideal", "--out", str(tmp_path / "r"),
                       "--set", "input=random", "--set", f"seed={seed}") == 2
        assert "seed must be a non-negative integer" in capsys.readouterr().err
        assert not (tmp_path / "r").exists()

    def test_negative_seed_option_exits_2(self, tmp_path):
        assert run_cli("run", "well-ideal", "--out", str(tmp_path / "r"),
                       "--set", "input=random", "--seed", "-1") == 2

    @pytest.mark.parametrize("seed", ["abc", -1, 2.7, False])
    def test_bad_seed_in_config_file_exits_2(self, tmp_path, seed):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"experiment": "well-ideal", "seed": seed}))
        assert run_cli("validate", "--config", str(path)) == 2

    def test_whole_float_seed_is_an_int(self):
        _, cfg = resolve_config({"experiment": "well-ideal", "seed": 4.0})
        assert cfg["seed"] == 4 and isinstance(cfg["seed"], int)

    @pytest.mark.parametrize("experiment, bad, report", [
        ("well-dynamic", "input_level=x", "input_level must be an integer"),
        ("well-sweep", "input_level=1.5", "input_level must be an integer"),
        ("well-sweep", "compression_times=5", "compression_times"),
        ("oam-multiply", "ell=x", "ell must be an integer"),
        ("oam-crosstalk", "ell_in_max=x", "ell_in_max must be an integer"),
        ("oam-petals", "grid_n=x", "grid_n"),
        ("oam-multiply", "ring_radius=x", "ring_radius must be positive"),
        ("oam-multiply", "p=x", "p must be odd"),
        ("oam-multiply", "ring_width=x", "ring_width must be positive"),
        ("oam-petals", "mu=x", "mu must be positive"),
        ("oam-multiply", "ell_window=x", "ell_window must be a non-negative"),
        ("oam-crosstalk", "ell_out_max=-1", "ell_out_max must be a non-negative"),
        ("well-ideal", "working_modes=0", "working_modes must be positive"),
        ("well-ideal", "n_modes=-3", "n_modes must be positive"),
        ("well-ideal", "n_modes=x", "n_modes must be positive"),
    ])
    def test_mistyped_value_is_a_violation(self, tmp_path, capsys, experiment,
                                           bad, report):
        assert run_cli("validate", experiment, "--set", bad) == 0
        violations = yaml.safe_load(capsys.readouterr().out)["violations"]
        assert any(report in v for v in violations)
        assert run_cli("run", experiment, "--out", str(tmp_path / "r"),
                       "--set", bad) == 2

    @pytest.mark.parametrize("command", ["validate", "run"])
    @pytest.mark.parametrize("bad", [["knobs=3"], ["width={a: 1}"],
                                     ["knobs=3", "knobs.m=5"]])
    def test_value_and_section_do_not_swap(self, tmp_path, capsys, command,
                                           bad):
        out = ["--out", str(tmp_path / "r")] if command == "run" else []
        sets = [arg for item in bad for arg in ("--set", item)]
        assert run_cli(command, "well-dynamic", *sets, *out) == 2
        assert "mapping" in capsys.readouterr().err

    @pytest.mark.parametrize("ell", [0, -2])
    def test_petals_need_a_positive_charge(self, tmp_path, capsys, ell):
        assert run_cli("validate", "oam-petals", "--set", f"ell={ell}") == 0
        violations = yaml.safe_load(capsys.readouterr().out)["violations"]
        assert violations == [f"ell must be positive for the petal test, got {ell}"]
        out = tmp_path / "r"
        assert run_cli("run", "oam-petals", "--out", str(out),
                       "--set", f"ell={ell}") == 2
        assert not out.exists()

    @pytest.mark.parametrize("experiment, sets, report", [
        ("oam-multiply", ["grid_n=256"], "ring does not fit"),
        ("oam-petals", ["grid_n=256"], "ring does not fit"),
        ("oam-crosstalk", ["ring_radius=0.0035", "ring_width=0.0006",
                           "grid_n=512", "pitch=2e-5"], "ring does not fit"),
        ("oam-multiply", ["ell=3", "ell_window=5"], "analysis window"),
        ("oam-multiply", ["ell=-2", "ell_window=5"], "analysis window"),
        ("oam-crosstalk", ["ell_out_max=8"], "analysis window"),
    ])
    def test_oam_run_that_cannot_finish_exits_2(self, tmp_path, capsys,
                                                experiment, sets, report):
        args = [arg for item in sets for arg in ("--set", item)]
        assert run_cli("validate", experiment, *args) == 0
        violations = yaml.safe_load(capsys.readouterr().out)["violations"]
        assert len(violations) == 1 and report in violations[0]
        out = tmp_path / "r"
        assert run_cli("run", experiment, "--out", str(out), *args) == 2
        assert not out.exists()

    @pytest.mark.parametrize("experiment, sets", [
        ("oam-multiply", ["ell=3", "ell_window=9"]),
        ("oam-crosstalk", ["ell_out_max=9"]),
    ])
    def test_window_holding_the_target_passes(self, capsys, experiment, sets):
        args = [arg for item in sets for arg in ("--set", item)]
        assert run_cli("validate", experiment, *args) == 0
        assert yaml.safe_load(capsys.readouterr().out)["violations"] == []

    def test_ring_edge_on_the_half_window_runs(self, tmp_path):
        # ring_radius + 3 ring_width = grid_n * pitch / 2 = 2.56 mm exactly
        args = ["--set", "grid_n=256", "--set", "pitch=2e-5",
                "--set", "ring_radius=0.00232", "--set", "ring_width=0.00008"]
        assert run_cli("run", "oam-multiply", "--out", str(tmp_path / "r"),
                       *args) == 0

    def test_missing_config_file(self, tmp_path):
        assert run_cli("run", "well-ideal",
                       "--config", str(tmp_path / "nope.yaml")) == 2


class TestRunArtifacts:
    def test_well_ideal_run(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert run_cli("run", "well-ideal", "--out", str(out), *FAST_IDEAL) == 0
        metrics = json.loads((out / "metrics.json").read_text())
        assert metrics["fidelity"] > 1.0 - 1e-6
        assert metrics["leakage"] < 1e-8
        assert (out / "series" / "output_amps.csv").exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["experiment"] == "well-ideal"
        assert manifest["config"]["working_modes"] == 512
        assert manifest["seed"] == 0
        assert "fidelity: " in capsys.readouterr().out

    def test_manifest_records_environment(self, tmp_path):
        out = tmp_path / "run"
        assert run_cli("run", "well-ideal", "--out", str(out), *FAST_IDEAL) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["python"] == platform.python_version()
        assert manifest["numpy"] == np.__version__
        assert manifest["scipy"] == scipy.__version__
        assert manifest["platform"] == platform.platform()

    def test_manifest_hashes_every_artifact(self, tmp_path):
        out = tmp_path / "run"
        (out / "series").mkdir(parents=True)
        stale = out / "series" / "stale.csv"
        stale.write_text("from an earlier run\n")
        assert run_cli("run", "carpet", "--out", str(out), *FAST_CARPET) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        written = sorted(p.relative_to(out).as_posix()
                         for p in out.rglob("*")
                         if p.is_file() and p.name not in ("manifest.json",
                                                           "stale.csv"))
        assert "rasters/carpet.bin" in written
        assert sorted(manifest["artifacts"]) == written
        for rel, digest in manifest["artifacts"].items():
            assert digest == hashlib.sha256((out / rel).read_bytes()).hexdigest()

    def test_off_annulus_warning_reaches_metrics(self, tmp_path):
        out = tmp_path / "r"
        assert run_cli("run", "oam-multiply", "--out", str(out),
                       "--set", "grid_n=512", "--set", "pitch=4e-5",
                       "--set", "ring_radius=0.0085",
                       "--set", "ring_width=0.0002") == 0
        metrics = json.loads((out / "metrics.json").read_text())
        assert metrics["warnings"] == [
            "more than 5% of the input power lies outside the design "
            "annulus; the log-polar map is inaccurate there"]
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["metrics"] == metrics

    def test_on_annulus_run_has_no_warnings_key(self, tmp_path):
        out = tmp_path / "r"
        assert run_cli("run", "oam-multiply", "--out", str(out),
                       "--set", "grid_n=512", "--set", "pitch=4e-5") == 0
        assert "warnings" not in json.loads((out / "metrics.json").read_text())

    @pytest.mark.parametrize("experiment, sets", [
        ("oam-petals", ["ell=1"]), ("oam-crosstalk", ["ell_in_max=1"])])
    def test_off_annulus_warning_reaches_bench_metrics(self, tmp_path,
                                                       experiment, sets):
        # the ring at 8.5 mm lies far outside the sorter's design annulus
        out = tmp_path / "r"
        args = [arg for item in sets for arg in ("--set", item)]
        assert run_cli("run", experiment, "--out", str(out),
                       "--set", "grid_n=512", "--set", "pitch=4e-5",
                       "--set", "ring_radius=0.0085",
                       "--set", "ring_width=0.0002", *args) == 0
        metrics = json.loads((out / "metrics.json").read_text())
        assert metrics["warnings"] == [
            "more than 5% of the input power lies outside the design "
            "annulus; the log-polar map is inaccurate there"]
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["metrics"] == metrics

    @pytest.mark.parametrize("experiment, sets", [
        ("oam-petals", ["ell=2"]), ("oam-crosstalk", ["ell_in_max=1"])])
    def test_on_annulus_bench_run_has_no_warnings_key(self, tmp_path,
                                                      experiment, sets):
        out = tmp_path / "r"
        args = [arg for item in sets for arg in ("--set", item)]
        assert run_cli("run", experiment, "--out", str(out),
                       "--set", "grid_n=512", "--set", "pitch=4e-5",
                       *args) == 0
        assert "warnings" not in json.loads((out / "metrics.json").read_text())

    def test_carpet_run_writes_raster(self, tmp_path):
        out = tmp_path / "run"
        assert run_cli("run", "carpet", "--out", str(out), *FAST_CARPET) == 0
        density = read_raster(out / "rasters" / "carpet.bin")
        assert density.shape == (16, 32)
        assert np.all(density >= 0.0)
        times = np.loadtxt(out / "series" / "time_axis.csv", skiprows=1)
        positions = np.loadtxt(out / "series" / "position_axis.csv", skiprows=1)
        assert times.size == density.shape[0]
        assert positions.size == density.shape[1]
        assert np.all(np.diff(positions) > 0)
        assert 0.0 < positions[0] and positions[-1] < 1.0

    def test_rerun_is_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert run_cli("run", "well-ideal", "--out", str(out),
                           "--seed", "7", "--set", "input=random",
                           *FAST_IDEAL) == 0
        assert (a / "metrics.json").read_bytes() == (b / "metrics.json").read_bytes()
        assert (a / "series" / "output_amps.csv").read_bytes() \
            == (b / "series" / "output_amps.csv").read_bytes()

    def test_seed_changes_random_input(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        run_cli("run", "well-ideal", "--out", str(a), "--seed", "1",
                "--set", "input=random", *FAST_IDEAL)
        run_cli("run", "well-ideal", "--out", str(b), "--seed", "2",
                "--set", "input=random", *FAST_IDEAL)
        assert (a / "series" / "output_amps.csv").read_bytes() \
            != (b / "series" / "output_amps.csv").read_bytes()

    def test_manifest_replay_reproduces_metrics(self, tmp_path):
        first = tmp_path / "first"
        again = tmp_path / "again"
        assert run_cli("run", "well-ideal", "--out", str(first), "--seed", "3",
                       "--set", "input=random", *FAST_IDEAL) == 0
        assert run_cli("run", "--config", str(first / "manifest.json"),
                       "--out", str(again)) == 0
        assert (first / "metrics.json").read_bytes() \
            == (again / "metrics.json").read_bytes()

    @pytest.mark.parametrize("experiment", sorted(cli._EXPERIMENTS))
    def test_manifest_of_every_experiment_replays(self, tmp_path, capsys,
                                                  experiment):
        # oam manifests hold floats such as 1e-05 that YAML reads as strings
        exp, cfg = resolve_config({"experiment": experiment})
        manifest = tmp_path / "manifest.json"
        write_json(manifest, {"experiment": exp, "seed": cfg.pop("seed"),
                              "config": cfg})
        assert load_config(str(manifest)) == {"experiment": exp, "seed": 0,
                                              **cfg}
        assert run_cli("validate", "--config", str(manifest)) == 0
        assert yaml.safe_load(capsys.readouterr().out)["violations"] == []

    def test_config_file_with_overrides(self, tmp_path):
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(yaml.safe_dump({"experiment": "well-ideal",
                                       "working_modes": 512,
                                       "n_support": 4, "input": "h1+h2"}))
        out = tmp_path / "run"
        assert run_cli("run", "--config", str(cfg), "--out", str(out),
                       "--set", "input=h2") == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["input"] == "h2"
        assert manifest["input_hashes"]["config_file"]


class TestParallelAndEnv:
    SWEEP = ["--set", "n_modes=4", "--set", "knobs.m=255",
             "--set", "knobs.dt_steps_per_tau=400",
             "--set", "compression_times=[2.0,3.0]"]

    def test_parallel_sweep_matches_serial(self, tmp_path):
        a, b = tmp_path / "serial", tmp_path / "parallel"
        assert run_cli("run", "well-sweep", "--out", str(a), *self.SWEEP) == 0
        assert run_cli("run", "well-sweep", "--out", str(b), "--parallel", "2",
                       *self.SWEEP) == 0
        assert (a / "metrics.json").read_bytes() == (b / "metrics.json").read_bytes()
        assert (a / "series" / "sweep.csv").read_bytes() \
            == (b / "series" / "sweep.csv").read_bytes()

    def test_thread_cap_env(self, monkeypatch):
        monkeypatch.setenv("HOTEL_SIM_THREADS", "2")
        assert cli._max_parallel(8) == 2
        monkeypatch.setenv("HOTEL_SIM_THREADS", "squid")
        with pytest.raises(ConfigError):
            cli._max_parallel(8)

    def test_numerical_failure_exit_code(self, tmp_path, monkeypatch):
        def explode(cfg, out, parallel):
            raise PropagationError("norm drift 1.0e+00 over segment")
        monkeypatch.setitem(cli._EXPERIMENTS, "carpet", dataclasses.replace(
            cli._EXPERIMENTS["carpet"], run=explode))
        out = tmp_path / "run"
        assert run_cli("run", "carpet", "--out", str(out)) == 3
        payload = json.loads((out / "error.json").read_text())
        assert payload["error"] == "PropagationError"

    def test_numerical_failure_writes_manifest(self, tmp_path, monkeypatch):
        def explode(cfg, out, parallel):
            raise PropagationError("norm drift 1.0e+00 over segment")
        monkeypatch.setitem(cli._EXPERIMENTS, "carpet", dataclasses.replace(
            cli._EXPERIMENTS["carpet"], run=explode))
        out = tmp_path / "run"
        assert run_cli("run", "carpet", "--out", str(out), "--seed", "5",
                       *FAST_CARPET) == 3
        manifest = json.loads((out / "manifest.json").read_text())
        assert "metrics" not in manifest
        assert manifest["error"] == {
            "error": "PropagationError",
            "message": "norm drift 1.0e+00 over segment"}
        assert manifest["experiment"] == "carpet"
        assert manifest["seed"] == 5
        assert manifest["version"] == cli.__version__
        assert manifest["python"] == platform.python_version()
        assert manifest["numpy"] == np.__version__
        assert sorted(manifest["artifacts"]) == ["error.json"]
        assert manifest["artifacts"]["error.json"] == hashlib.sha256(
            (out / "error.json").read_bytes()).hexdigest()
        replay = resolve_config(load_config(str(out / "manifest.json")))
        direct = resolve_config(cli._apply_set(
            {"experiment": "carpet", "seed": 5}, FAST_CARPET[1::2]))
        assert replay == direct
        assert replay[1]["m"] == 127


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity")
                    or len(os.sched_getaffinity(0)) < 2,
                    reason="needs os.sched_setaffinity and two allowed CPUs")
def test_output_does_not_depend_on_cpu_affinity(tmp_path):
    """The two-thread kernels and multi-worker FFTs give the same bytes
    on one CPU as on every allowed CPU.  Only the child is pinned."""
    src = Path(cli.__file__).resolve().parents[1]
    code = ("import os, sys; "
            "os.sched_setaffinity(0, {int(c) for c in sys.argv[2].split(',')}); "
            "sys.path.insert(0, sys.argv[1]); "
            "from hotelsim.cli import main; sys.exit(main(sys.argv[3:]))")
    runs = {
        "well-ideal": (["--seed", "7", "--set", "input=random"],
                       ["metrics.json"]),
        "oam-multiply": (["--set", "ell=1", "--set", "grid_n=512",
                          "--set", "pitch=40e-6"],
                         ["metrics.json", "rasters/output_field.bin"]),
        "oam-petals": (["--set", "ell=2", "--set", "grid_n=512",
                        "--set", "pitch=40e-6"],
                       ["metrics.json", "series/ring_profile.csv"]),
    }
    cpus = sorted(os.sched_getaffinity(0))
    for experiment, (args, files) in runs.items():
        written = []
        for pinned in (cpus[:1], cpus):
            out = tmp_path / f"{experiment}-{len(pinned)}"
            done = subprocess.run(
                [sys.executable, "-c", code, str(src),
                 ",".join(map(str, pinned)), "run", experiment,
                 "--out", str(out), *args],
                capture_output=True, text=True, timeout=300)
            assert done.returncode == 0, done.stderr
            written.append([(out / name).read_bytes() for name in files])
        assert written[0] == written[1], experiment


class TestRasterContainer:
    def test_real_round_trip(self, tmp_path):
        data = np.arange(12.0).reshape(3, 4)
        p = tmp_path / "r.bin"
        write_raster(p, data)
        back = read_raster(p)
        assert back.dtype == np.float64
        assert np.array_equal(back, data)

    def test_complex_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        data = rng.normal(size=(5, 2)) + 1j * rng.normal(size=(5, 2))
        p = tmp_path / "c.bin"
        write_raster(p, data)
        assert np.array_equal(read_raster(p), data)

    @staticmethod
    def reference_raster_bytes(data):
        """The container built by interleaving into a new array."""
        flags = 1 if np.iscomplexobj(data) else 0
        header = b"HSIM" + struct.pack("<III", *data.shape, flags)
        if flags:
            flat = np.empty(data.size * 2, dtype="<f8")
            flat[0::2] = data.real.ravel()
            flat[1::2] = data.imag.ravel()
        else:
            flat = np.ascontiguousarray(data, dtype="<f8").ravel()
        return header + flat.tobytes()

    @pytest.mark.parametrize("kind", ["complex", "real", "transposed",
                                      "complex64", "integer"])
    def test_streamed_file_matches_interleaved_layout(self, tmp_path, kind):
        rng = np.random.default_rng(3)
        data = rng.normal(size=(6, 9)) + 1j * rng.normal(size=(6, 9))
        data = {"complex": data, "real": data.real,
                "transposed": data.T, "complex64": data.astype(np.complex64),
                "integer": np.arange(54).reshape(6, 9)}[kind]
        p = tmp_path / "s.bin"
        write_raster(p, data)
        want = self.reference_raster_bytes(data)
        assert (hashlib.sha256(p.read_bytes()).hexdigest()
                == hashlib.sha256(want).hexdigest())
        assert np.array_equal(read_raster(p), data)

    def test_header_magic_guard(self, tmp_path):
        p = tmp_path / "bad.bin"
        p.write_bytes(b"NOPE" + b"\x00" * 12)
        with pytest.raises(ValueError):
            read_raster(p)

    def test_rejects_non_2d(self, tmp_path):
        with pytest.raises(ValueError):
            write_raster(tmp_path / "x.bin", np.zeros(5))
