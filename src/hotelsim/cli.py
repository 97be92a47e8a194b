"""Command-line front end: configured experiment runs with reproducible
manifests.

Every run resolves its configuration against per-experiment defaults,
validates it, executes, and writes one directory containing
manifest.json, metrics.json, series/*.csv and rasters/*.bin.  A manifest
doubles as a config file, so any run can be reproduced bit-identically
from its own output.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import re
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import reduce
from operator import getitem
from pathlib import Path
from typing import Callable

import numpy as np
import scipy
import yaml

from . import __version__
from .io import write_csv, write_json, write_raster
from .well import SpectralState, WellGeometry, basis_state, random_state
from .protocol import (CopyFitError, NodeConditionError, ProtocolConfig,
                       hotel_multiply_oracle, run_ideal_protocol_p)
from .dynamics import (SCHEMES, DynamicKnobs, FreeFlight, PotentialTimeline,
                       PropagationError, PropagatorSettings, Segment, carpet,
                       run_dynamic_protocol, to_grid)
from .optics import (GridSpec, RingSpec, UndersampledError, make_oam_mode,
                     oam_spectrum)
from .multiplier import (AmbiguousHarmonicError, MultiplierPipelineConfig,
                         crosstalk_matrix, multiply_oam, petal_test)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERICAL = 3

_NUMERICAL_ERRORS = (PropagationError, NodeConditionError, CopyFitError,
                     AmbiguousHarmonicError, UndersampledError,
                     FloatingPointError)


class ConfigError(ValueError):
    """Invalid or inconsistent run configuration."""


# --- configuration plumbing ------------------------------------------------

def _merge(defaults: dict, overrides: dict, path: str = "") -> dict:
    out = dict(defaults)
    for key, value in overrides.items():
        where = f"{path}.{key}" if path else key
        if key not in defaults:
            raise ConfigError(f"unknown configuration key: {where}")
        if isinstance(defaults[key], dict) and isinstance(value, dict):
            out[key] = _merge(defaults[key], value, where)
        else:
            out[key] = value
    return out


def _parse(text: str):
    """JSON when the text is JSON, YAML otherwise.  YAML 1.1 reads a float
    written without a dot, such as the 1e-05 that json.dumps puts in a
    manifest, as a string."""
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return yaml.safe_load(text)


def _apply_set(config: dict, assignments: list) -> dict:
    out = dict(config)
    for item in assignments:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        dotted, raw = item.split("=", 1)
        try:
            value = _parse(raw)
        except yaml.YAMLError as exc:
            raise ConfigError(f"cannot parse --set value {raw!r}: {exc}")
        node = out
        keys = dotted.split(".")
        for k in keys[:-1]:
            nxt = dict(node.get(k, {}))
            node[k] = nxt
            node = nxt
        node[keys[-1]] = value
    return out


def load_config(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        loaded = _parse(Path(path).read_text())
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except yaml.YAMLError as exc:
        raise ConfigError(f"cannot parse config file: {exc}")
    if loaded is None:
        return {}
    if not isinstance(loaded, dict):
        raise ConfigError("config file must hold a mapping")
    if "config" in loaded and "experiment" in loaded:
        # a manifest from an earlier run: replay its resolved config
        replay = dict(loaded["config"])
        replay["experiment"] = loaded["experiment"]
        if "seed" in loaded:
            replay.setdefault("seed", loaded["seed"])
        return replay
    return loaded


def resolve_config(raw: dict) -> tuple[str, dict]:
    raw = dict(raw)
    experiment = raw.pop("experiment", None)
    seed = raw.pop("seed", 0)
    if experiment is None:
        raise ConfigError("no experiment selected (key 'experiment')")
    if experiment not in _EXPERIMENTS:
        raise ConfigError(
            f"unknown experiment {experiment!r}; "
            f"choose from {sorted(_EXPERIMENTS)}")
    merged = _merge(_EXPERIMENTS[experiment].defaults, raw)
    merged["seed"] = int(seed)
    return experiment, merged


# --- validation ------------------------------------------------------------

def validate_config(experiment: str, cfg: dict) -> list:
    """Physics/sanity report: a list of violation strings, empty if OK."""
    return _EXPERIMENTS[experiment].check(cfg)


def _not_positive(cfg: dict, *keys: str) -> list:
    """Violations for the keys (dotted paths) that hold anything but a
    positive number; None, which stands for a derived default, passes."""
    values = {key: reduce(getitem, key.split("."), cfg) for key in keys}
    return [f"{key} must be positive, got {value!r}"
            for key, value in values.items() if value is not None
            and not (isinstance(value, (int, float)) and value > 0)]


def _check_well_ideal(cfg: dict) -> list:
    v = _not_positive(cfg, "width", "p", "n_support")
    if cfg["n_modes"] is not None and cfg["p"] * cfg["n_support"] > cfg["n_modes"]:
        v.append(
            f"capacity: p*n_support = {cfg['p'] * cfg['n_support']} exceeds "
            f"n_modes = {cfg['n_modes']}")
    return v


def _check_well_grid(cfg: dict) -> list:
    v = _not_positive(cfg, "width", "n_modes", "knobs.m", "knobs.dt_steps_per_tau")
    m = cfg["knobs"]["m"]
    if isinstance(m, int) and m % 2 == 0:
        v.append(f"knobs.m must be odd so that x=L is a grid point, got {m}")
    if cfg["scheme"] not in SCHEMES:
        v.append(f"unknown scheme {cfg['scheme']!r}")
    times = cfg.get("compression_times")
    if "compression_times" in cfg and not (isinstance(times, list)
                                           and len(times) >= 2):
        v.append("compression_times needs a list of at least 2 points")
    level, n_modes = cfg["input_level"], cfg["n_modes"]
    if not isinstance(level, int):
        v.append(f"input_level must be an integer, got {level!r}")
    elif isinstance(n_modes, int) and not 1 <= level <= n_modes:
        v.append("input_level outside 1..n_modes")
    return v


def _check_oam(cfg: dict) -> list:
    v = _not_positive(cfg, "pitch", "a_target", "b", "f", "wavelength",
                      "ring_radius", "ring_width", "mu")
    sizes_ok = not v
    for name in ("ell_window", "ell_out_max"):
        value = cfg.get(name)
        if value is not None and not (isinstance(value, int) and value >= 0):
            v.append(f"{name} must be a non-negative integer, got {value!r}")
    grid_n, p = cfg["grid_n"], cfg["p"]
    if not (isinstance(grid_n, int) and grid_n >= 4 and grid_n % 2 == 0):
        v.append("grid_n must be an even integer >= 4")
    key = "ell" if "ell" in cfg else "ell_in_max"
    ell = cfg[key]
    if not isinstance(ell, int):
        v.append(f"{key} must be an integer, got {ell!r}")
    p_ok = isinstance(p, int) and p >= 1 and p % 2 == 1
    if sizes_ok and p_ok and isinstance(ell, int):
        radius = cfg["ring_radius"] if cfg["ring_radius"] is not None else cfg["b"]
        ell_out = abs(ell) * p
        if ell_out and 2 * np.pi * radius / (ell_out * cfg["pitch"]) < 8.0:
            v.append(
                f"grid sampling: output charge {ell_out} has fewer than 8 "
                "pixels per azimuthal cycle at the ring radius")
    if not p_ok:
        v.append("p must be odd for the symmetric fan-out scheme")
    return v


def _check_carpet(cfg: dict) -> list:
    v = _not_positive(cfg, "width", "duration_tau", "m", "space_samples",
                      "dt_steps_per_tau")
    levels, m = cfg["levels"], cfg["m"]
    if not (isinstance(levels, list) and levels
            and all(isinstance(n, int) and n >= 1 for n in levels)):
        v.append(f"levels must be a list of positive integers, got {levels!r}")
    elif isinstance(m, int) and max(levels) > m:
        v.append(f"max(levels) = {max(levels)} exceeds m = {m}: a grid of m "
                 "points holds levels 1..m only")
    samples = cfg["time_samples"]
    if not (isinstance(samples, int) and samples >= 2):
        v.append(f"time_samples must be an integer >= 2, got {samples!r}")
    if cfg["scheme"] not in SCHEMES:
        v.append(f"unknown scheme {cfg['scheme']!r}")
    return v


# --- experiment runners ----------------------------------------------------

_STATE_RE = re.compile(r"^\s*([+-]?)\s*h(\d+)")


def parse_state(spec, geometry: WellGeometry, n_modes: int,
                rng: np.random.Generator, n_support: int) -> SpectralState:
    """Input state notation: 'h2', 'h1+h2', 'h1-h3+h5', or 'random'.

    Named combinations are equal-weight and normalized; 'random' draws
    complex-normal amplitudes on levels up to n_support.
    """
    if isinstance(spec, str) and spec.strip() == "random":
        return random_state(geometry, n_modes, rng, n_support)
    if not isinstance(spec, str):
        raise ConfigError(f"cannot parse input state {spec!r}")
    amps = np.zeros(n_modes, dtype=complex)
    rest = spec
    while rest.strip():
        m = _STATE_RE.match(rest)
        if not m:
            raise ConfigError(f"cannot parse input state {spec!r}")
        sign = -1.0 if m.group(1) == "-" else 1.0
        level = int(m.group(2))
        if not (1 <= level <= n_modes):
            raise ConfigError(f"level h{level} outside 1..{n_modes}")
        amps[level - 1] += sign
        rest = rest[m.end():]
    if not np.any(amps):
        raise ConfigError(f"cannot parse input state {spec!r}")
    amps /= np.linalg.norm(amps)
    return SpectralState(geometry=geometry, amps=amps)


def _grid_protocol(cfg: dict, compression_time: float):
    """run_dynamic_protocol on the configured input level and knobs."""
    geometry = WellGeometry(cfg["width"])
    tau = 2.0 * np.pi / geometry.omega0()
    # the knob keys are DynamicKnobs fields, except dt in steps per tau
    knobs = {**cfg["knobs"], "compression_time": compression_time}
    dt = tau / knobs.pop("dt_steps_per_tau")
    state = basis_state(cfg["input_level"], geometry, cfg["n_modes"])
    return run_dynamic_protocol(state, DynamicKnobs(dt=dt, **knobs),
                                scheme=cfg["scheme"])


def _pipeline_from(cfg: dict) -> MultiplierPipelineConfig:
    grid = GridSpec(n=cfg["grid_n"], pitch=cfg["pitch"])
    radius = cfg["ring_radius"] if cfg["ring_radius"] is not None else cfg["b"]
    width = cfg["ring_width"] if cfg["ring_width"] is not None else radius / 7.5
    ring = RingSpec(radius=radius, width=width)
    return MultiplierPipelineConfig.design(
        p=cfg["p"], grid=grid, ring=ring, a_target=cfg["a_target"],
        b=cfg["b"], f=cfg["f"], wavelength=cfg["wavelength"], mu=cfg["mu"])


def _write_amps(out: Path, s: SpectralState) -> None:
    write_csv(out / "series" / "output_amps.csv",
              ["n", "re", "im", "power"],
              [(n + 1, a.real, a.imag, abs(a) ** 2)
               for n, a in enumerate(s.amps)])


def _run_well_ideal(cfg: dict, out: Path, parallel: int) -> dict:
    geometry = WellGeometry(cfg["width"])
    rng = np.random.default_rng(cfg["seed"])
    state = parse_state(cfg["input"], geometry, cfg["n_support"], rng,
                        cfg["n_support"])
    pcfg = ProtocolConfig(p=cfg["p"], n_modes=cfg["n_modes"],
                          working_modes=cfg["working_modes"])
    result, trace = run_ideal_protocol_p(state, pcfg)
    oracle = hotel_multiply_oracle(state, cfg["p"])
    k = min(result.n_modes, oracle.n_modes)
    fidelity = float(abs(np.vdot(oracle.amps[:k], result.amps[:k])) ** 2)
    occupied = np.zeros(result.n_modes, dtype=bool)
    occupied[cfg["p"] - 1::cfg["p"]] = True
    leakage = float(np.sum(np.abs(result.amps[~occupied]) ** 2))
    _write_amps(out, result)
    residuals = trace.copy_residuals
    return {
        "fidelity": fidelity,
        "leakage": leakage,
        "max_copy_residual": float(max(residuals)) if residuals else 0.0,
        "output_modes": result.n_modes,
    }


def _run_well_dynamic(cfg: dict, out: Path, parallel: int) -> dict:
    final, report = _grid_protocol(cfg, cfg["knobs"]["compression_time"])
    _write_amps(out, final)
    return report.to_dict()


def _sweep_point(cfg: dict, compression_time: float) -> tuple:
    _, report = _grid_protocol(cfg, compression_time)
    return compression_time, report.fidelity, report.odd_level_leakage


def _run_well_sweep(cfg: dict, out: Path, parallel: int) -> dict:
    times = [float(t) for t in cfg["compression_times"]]
    if parallel > 1:
        with ProcessPoolExecutor(max_workers=min(parallel, len(times))) as ex:
            points = list(ex.map(_sweep_point, [cfg] * len(times), times))
    else:
        points = [_sweep_point(cfg, t) for t in times]
    write_csv(out / "series" / "sweep.csv",
              ["compression_time", "fidelity", "odd_level_leakage"], points)
    fids = [fidelity for _, fidelity, _ in points]
    return {
        "compression_times": times,
        "fidelities": fids,
        "monotone_increasing": bool(all(b > a for a, b in zip(fids, fids[1:]))),
    }


def _run_oam_multiply(cfg: dict, out: Path, parallel: int) -> dict:
    pipe = _pipeline_from(cfg)
    mode = make_oam_mode(cfg["ell"], pipe.ring, pipe.grid,
                         pipe.sorter.wavelength)
    diag: dict = {}
    result = multiply_oam(mode, pipe, diagnostics=diag)
    spec = oam_spectrum(result, cfg["ell_window"],
                        method=cfg["spectrum_method"], ring=pipe.ring)
    write_csv(out / "series" / "spectrum.csv", ["ell", "fraction"],
              zip(spec.ells, spec.fractions))
    if cfg["save_field"]:
        write_raster(out / "rasters" / "output_field.bin", result.samples)
    dom = spec.dominant()
    target = cfg["p"] * cfg["ell"]
    far = float(sum(f for l, f in zip(spec.ells, spec.fractions)
                    if abs(int(l) - target) >= 3))
    return {
        "dominant_ell": dom,
        "dominant_fraction": spec.fraction(dom),
        "target_ell": target,
        "target_fraction": spec.fraction(target),
        "far_leakage": far,
        "output_power": diag["output_power"],
    }


def _run_oam_crosstalk(cfg: dict, out: Path, parallel: int) -> dict:
    pipe = _pipeline_from(cfg)
    matrix = crosstalk_matrix(pipe, cfg["ell_in_max"], cfg["ell_out_max"],
                              method=cfg["spectrum_method"])
    write_csv(out / "series" / "crosstalk.csv",
              ["ell_in"] + [f"out_{int(l)}" for l in matrix.ell_out],
              [[int(li)] + [x for x in row]
               for li, row in zip(matrix.ell_in, matrix.entries)])
    write_json(out / "series" / "crosstalk.json", matrix.to_dict())
    doms = matrix.dominant_outputs()
    diag_ok = bool(np.all(doms == cfg["p"] * matrix.ell_in))
    diag_fracs = [float(matrix.row(int(l))[
        int(np.nonzero(matrix.ell_out == cfg["p"] * int(l))[0][0])])
        for l in matrix.ell_in]
    return {
        "diagonal_at_p_ell": diag_ok,
        "dominant_outputs": [int(d) for d in doms],
        "target_fractions": diag_fracs,
    }


def _run_oam_petals(cfg: dict, out: Path, parallel: int) -> dict:
    pipe = _pipeline_from(cfg)
    report = petal_test(cfg["ell"], pipe)
    write_csv(out / "series" / "ring_profile.csv",
              ["theta_index", "intensity"],
              list(enumerate(report.ring_profile)))
    return report.to_dict()


def _run_carpet(cfg: dict, out: Path, parallel: int) -> dict:
    geometry = WellGeometry(cfg["width"])
    amps = np.zeros(max(cfg["levels"]), dtype=complex)
    for n in cfg["levels"]:
        amps[n - 1] = 1.0
    amps /= np.linalg.norm(amps)
    state = SpectralState(geometry=geometry, amps=amps)
    grid = to_grid(state, cfg["m"])
    tau = 2.0 * np.pi / geometry.omega0()
    timeline = PotentialTimeline([Segment(cfg["duration_tau"] * tau,
                                          FreeFlight())])
    settings = PropagatorSettings(dt=tau / cfg["dt_steps_per_tau"],
                                  scheme=cfg["scheme"])
    times, positions, density = carpet(grid, timeline, settings,
                                       cfg["time_samples"],
                                       cfg["space_samples"])
    write_raster(out / "rasters" / "carpet.bin", density)
    write_csv(out / "series" / "time_axis.csv", ["time"],
              [(t,) for t in times])
    write_csv(out / "series" / "position_axis.csv", ["position"],
              [(x,) for x in positions])
    return {
        "duration_tau": float(cfg["duration_tau"]),
        "time_samples": int(cfg["time_samples"]),
        "space_samples": int(density.shape[1]),
        "peak_density": float(density.max()),
    }


# --- the experiment table --------------------------------------------------

# defaults shared by several experiments
_OAM_BENCH = {
    "p": 3,
    "grid_n": 2048,
    "pitch": 10e-6,
    "a_target": 0.8e-3,
    "b": 3e-3,
    "f": 0.25,
    "wavelength": 633e-9,
    "ring_radius": None,
    "ring_width": None,
    "mu": 1.32859,
}

_WELL_GRID = {
    "input_level": 1,
    "n_modes": 8,
    "width": 1.0,
    "scheme": "crank-nicolson",
    "knobs": {
        "barrier_ramp_time": 0.002,
        "barrier_height": None,
        "barrier_half_width": None,
        "wall_height": None,
        "wall_edge_width_dx": 1.0,
        "dt_steps_per_tau": 8000,
        "m": 1023,
    },
}


@dataclass(frozen=True)
class Experiment:
    """One CLI experiment: its default config (which also fixes the keys a
    config may set), its validator and its runner."""

    defaults: dict
    check: Callable[[dict], list]
    run: Callable[[dict, Path, int], dict]    # (config, out dir, parallel)


_EXPERIMENTS = {
    "well-ideal": Experiment({
        "p": 2,
        "input": "h1",
        "n_support": 8,
        "n_modes": None,
        "working_modes": 8192,
        "width": 1.0,
    }, _check_well_ideal, _run_well_ideal),
    "well-dynamic": Experiment({
        **_WELL_GRID,
        "knobs": {"compression_time": 40.0, **_WELL_GRID["knobs"]},
    }, _check_well_grid, _run_well_dynamic),
    "well-sweep": Experiment({
        **_WELL_GRID,
        "compression_times": [10.0, 40.0, 160.0],
    }, _check_well_grid, _run_well_sweep),
    "oam-multiply": Experiment({
        "ell": 1,
        **_OAM_BENCH,
        "spectrum_method": "projective",
        "ell_window": 15,
        "save_field": True,
    }, _check_oam, _run_oam_multiply),
    "oam-crosstalk": Experiment({
        "ell_in_max": 3,
        "ell_out_max": None,
        **_OAM_BENCH,
        "spectrum_method": "projective",
    }, _check_oam, _run_oam_crosstalk),
    "oam-petals": Experiment({
        "ell": 2,
        **_OAM_BENCH,
    }, _check_oam, _run_oam_petals),
    "carpet": Experiment({
        "levels": [1, 2],
        "width": 1.0,
        "m": 511,
        "duration_tau": 1.0,
        "time_samples": 256,
        "space_samples": 256,
        "scheme": "strang-split-sine",
        "dt_steps_per_tau": 4000,
    }, _check_carpet, _run_carpet),
}


# --- entry points ----------------------------------------------------------

def _max_parallel(requested: int) -> int:
    cap = os.environ.get("HOTEL_SIM_THREADS")
    if cap is not None:
        try:
            requested = min(requested, max(1, int(cap)))
        except ValueError:
            raise ConfigError(f"HOTEL_SIM_THREADS is not an integer: {cap!r}")
    return max(1, requested)


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with path.open("rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _config_hash(path: str | None) -> str | None:
    return None if path is None else _sha256(Path(path))


def _file_stamps(root: Path) -> dict:
    return {p: p.stat().st_mtime_ns for p in root.rglob("*") if p.is_file()}


def run_experiment(experiment: str, cfg: dict, out_dir: Path,
                   parallel: int = 1, config_path: str | None = None) -> dict:
    """Execute one experiment and write its artifact directory."""
    out_dir.mkdir(parents=True, exist_ok=True)
    before = _file_stamps(out_dir)
    metrics = _EXPERIMENTS[experiment].run(cfg, out_dir, parallel)
    write_json(out_dir / "metrics.json", metrics)
    # every file this run wrote, found by its new modification time
    artifacts = {p.relative_to(out_dir).as_posix(): _sha256(p)
                 for p, stamp in _file_stamps(out_dir).items()
                 if before.get(p) != stamp and p != out_dir / "manifest.json"}
    manifest = {
        "experiment": experiment,
        "config": {k: v for k, v in cfg.items() if k != "seed"},
        "seed": cfg["seed"],
        "version": __version__,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "input_hashes": {"config_file": _config_hash(config_path)},
        "artifacts": artifacts,
        "metrics": metrics,
    }
    write_json(out_dir / "manifest.json", manifest)
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="hotel-sim",
        description="Level-multiplication protocol laboratory")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="execute an experiment")
    run_p.add_argument("experiment", nargs="?", default=None,
                       help="experiment id (may come from the config file)")
    run_p.add_argument("--config", default=None, help="YAML/JSON config or manifest")
    run_p.add_argument("--out", default=None, help="output directory")
    run_p.add_argument("--seed", type=int, default=None)
    run_p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                       help="override a config key (repeatable, dotted paths)")
    run_p.add_argument("--parallel", type=int, default=1)

    val_p = sub.add_parser("validate", help="check a config without running")
    val_p.add_argument("experiment", nargs="?", default=None)
    val_p.add_argument("--config", default=None)
    val_p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE")

    sub.add_parser("list-experiments", help="print available experiment ids")

    args = parser.parse_args(argv)

    if args.command == "list-experiments":
        for name in sorted(_EXPERIMENTS):
            print(name)
        return EXIT_OK

    try:
        raw = load_config(args.config)
        if getattr(args, "experiment", None):
            raw["experiment"] = args.experiment
        if getattr(args, "seed", None) is not None:
            raw["seed"] = args.seed
        raw = _apply_set(raw, args.set)
        experiment, cfg = resolve_config(raw)
        violations = validate_config(experiment, cfg)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    if args.command == "validate":
        report = {"experiment": experiment, "violations": violations}
        print(yaml.safe_dump(report, sort_keys=True).strip())
        return EXIT_OK

    if violations:
        for item in violations:
            print(f"error: {item}", file=sys.stderr)
        return EXIT_USAGE

    out_dir = Path(args.out) if args.out else Path("runs") / experiment
    try:
        parallel = _max_parallel(args.parallel)
        metrics = run_experiment(experiment, cfg, out_dir, parallel,
                                 config_path=args.config)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except _NUMERICAL_ERRORS as exc:
        payload = {"error": type(exc).__name__, "message": str(exc)}
        write_json(out_dir / "error.json", payload)
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    for key in sorted(metrics):
        print(f"{key}: {metrics[key]}")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
