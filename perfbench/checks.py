"""Correctness checks for the benchmark, computed apart from hotelsim.

Each check compares a program output with a reference the benchmark
computes itself (the interleaving n -> p*n, exact sine-mode evolution, an
azimuthal FFT on a ring) or with a property the method must have (norm
bounds, Bessel's inequality, revivals).  None of them reads a stored copy
of an earlier output.  A failed check raises CheckFailed.
"""

from __future__ import annotations

import csv
import struct
from pathlib import Path

import numpy as np

IDEAL_FIDELITY_FLOOR = 1.0 - 1e-8   # AC1/AC4 threshold
IDEAL_VACATED_CEILING = 1e-10       # AC1 threshold
NORM_SLACK = 1e-12                  # roundoff allowed on "output norm <= input norm"
CARPET_ROW_TOL = 1e-8               # |row - exact| / peak; an exact row is ~1e-11
BESSEL_SLACK = 1e-9


class CheckFailed(AssertionError):
    """A program output disagrees with the benchmark's own reference."""


def interleave(amps: np.ndarray, p: int) -> np.ndarray:
    """The map n -> p*n on an amplitude vector (index 0 is level 1)."""
    out = np.zeros(p * amps.size, dtype=complex)
    out[p - 1::p] = amps
    return out


def check_ideal(amps_in: np.ndarray, amps_out: np.ndarray, p: int) -> None:
    """Ideal pipeline output against the interleaving of its input."""
    ref = interleave(amps_in, p)
    if amps_out.shape != ref.shape:
        raise CheckFailed(f"p={p}: output has {amps_out.size} levels, "
                          f"want {ref.size}")
    fid = abs(np.vdot(ref, amps_out)) ** 2 / np.vdot(ref, ref).real
    vacated = np.ones(ref.size, dtype=bool)
    vacated[p - 1::p] = False
    leak = float(np.sum(np.abs(amps_out[vacated]) ** 2))
    n_in = float(np.linalg.norm(amps_in))
    n_out = float(np.linalg.norm(amps_out))
    if not fid >= IDEAL_FIDELITY_FLOOR:
        raise CheckFailed(f"p={p}: fidelity 1-{1 - fid:.2e} below 1-1e-8")
    if not leak <= IDEAL_VACATED_CEILING:
        raise CheckFailed(f"p={p}: vacated-level power {leak:.2e} above 1e-10")
    if not n_out <= n_in * (1.0 + NORM_SLACK):
        raise CheckFailed(f"p={p}: output norm {n_out!r} exceeds input {n_in!r}")


def check_dynamic(amps_in: np.ndarray, amps_out: np.ndarray, stage_norms: dict,
                  drift_tol: float, fidelity_floor: float,
                  leak_ceiling: float) -> None:
    """Grid protocol: stage norms, fidelity to the x2 interleaving, odd leak."""
    for label, norm in stage_norms.items():
        if label != "project" and not abs(norm - 1.0) <= drift_tol:
            raise CheckFailed(f"stage {label}: norm {norm!r} drifts more "
                              f"than {drift_tol:.1e}")
    ref = interleave(amps_in, 2)
    k = min(ref.size, amps_out.size)
    fid = abs(np.vdot(ref[:k], amps_out[:k])) ** 2
    odd = float(np.sum(np.abs(amps_out[0::2]) ** 2))
    if not fid >= fidelity_floor:
        raise CheckFailed(f"x2 fidelity {fid:.6f} below floor {fidelity_floor}")
    if not odd <= leak_ceiling:
        raise CheckFailed(f"odd-level leakage {odd:.3e} above {leak_ceiling}")


def exact_density(amps: np.ndarray, width: float, x: np.ndarray,
                  t: np.ndarray) -> np.ndarray:
    """|psi(x, t)|^2 for free evolution in the hard-wall well (hbar = m = 1)."""
    n = np.arange(1, amps.size + 1)
    energy = 0.5 * (np.pi * n / width) ** 2
    modes = np.sqrt(2.0 / width) * np.sin(np.pi * np.outer(n, x) / width)
    psi = (amps[None, :] * np.exp(-1j * np.outer(t, energy))) @ modes
    return np.abs(psi) ** 2


def check_carpet(amps: np.ndarray, width: float, duration: float,
                 times: np.ndarray, x: np.ndarray, rows: np.ndarray,
                 dx: float) -> np.ndarray:
    """Carpet rows against exact evolution at their labelled times.

    Returns a boolean per row: True where the row matches.  Raises when a
    row loses norm, when the labels are not a regular axis over the
    duration, or when a matching row at a whole number of revival periods
    differs from the first row.
    """
    if rows.shape != (times.size, x.size):
        raise CheckFailed(f"carpet shape {rows.shape} vs axes "
                          f"{(times.size, x.size)}")
    if not np.allclose(times, np.linspace(0.0, duration, times.size),
                       rtol=0.0, atol=1e-12 * duration):
        raise CheckFailed("carpet time labels are not a regular axis")
    norms = rows.sum(axis=1) * dx
    if not np.all(np.abs(norms - 1.0) <= 1e-9):
        raise CheckFailed(f"carpet row norm off by {np.max(np.abs(norms - 1)):.2e}")
    exact = exact_density(amps, width, x, times)
    peak = float(exact.max())
    ok = np.max(np.abs(rows - exact), axis=1) <= CARPET_ROW_TOL * peak
    tau = 4.0 * width ** 2 / np.pi   # revival period 2 pi / omega0
    periods = times / tau
    revival = np.abs(periods - np.round(periods)) <= 1e-12 * max(1.0, periods[-1])
    for i in np.flatnonzero(revival & ok):
        if np.max(np.abs(rows[i] - rows[0])) > CARPET_ROW_TOL * peak:
            raise CheckFailed(f"row {i} at {periods[i]:.0f} revival periods "
                              "differs from the first row")
    return ok


def read_hsim(path) -> np.ndarray:
    """Reader of the HSIM raster layout documented in the README.

    16-byte header: magic b"HSIM", then little-endian uint32 rows, cols,
    flags; then float64 little-endian row-major data, interleaved re/im
    pairs when flag bit 0 is set.
    """
    raw = Path(path).read_bytes()
    if len(raw) < 16 or raw[:4] != b"HSIM":
        raise CheckFailed(f"{path}: no HSIM header")
    rows, cols, flags = struct.unpack("<III", raw[4:16])
    per = 2 if flags & 1 else 1
    if len(raw) - 16 != rows * cols * per * 8:
        raise CheckFailed(f"{path}: header says {rows}x{cols}x{per} values, "
                          f"payload holds {(len(raw) - 16) / 8:g}")
    body = np.frombuffer(raw, dtype="<f8", offset=16)
    if per == 2:
        body = body[0::2] + 1j * body[1::2]
    return body.reshape(rows, cols)


def _ring_samples(field: np.ndarray, pitch: float, radius: float,
                  n_theta: int) -> np.ndarray:
    """Bilinear samples on a circle about pixel (n/2, n/2); x along columns."""
    n = field.shape[0]
    theta = 2.0 * np.pi * np.arange(n_theta) / n_theta
    col = n // 2 + radius * np.cos(theta) / pitch
    row = n // 2 + radius * np.sin(theta) / pitch
    c0 = np.floor(col).astype(int)
    r0 = np.floor(row).astype(int)
    fc = col - c0
    fr = row - r0
    return ((1 - fr) * (1 - fc) * field[r0, c0] + (1 - fr) * fc * field[r0, c0 + 1]
            + fr * (1 - fc) * field[r0 + 1, c0] + fr * fc * field[r0 + 1, c0 + 1])


def dominant_charge(field: np.ndarray, pitch: float, ring_radius: float,
                    n_theta: int = 512) -> int:
    """Azimuthal charge with the most power on the brightest ring near
    ring_radius (radii from 0.7 to 1.3 of it are scanned)."""
    radii = ring_radius * np.linspace(0.7, 1.3, 25)
    rings = [_ring_samples(field, pitch, r, n_theta) for r in radii]
    best = max(rings, key=lambda v: float(np.sum(np.abs(v) ** 2)))
    k = int(np.argmax(np.abs(np.fft.fft(best))))
    return k if k < n_theta // 2 else k - n_theta


def check_oam_raster(path, charge: int, pitch: float, ring_radius: float) -> None:
    field = read_hsim(path)
    if field.ndim != 2 or field.shape[0] != field.shape[1]:
        raise CheckFailed(f"{path}: raster is not square")
    got = dominant_charge(field, pitch, ring_radius)
    if got != charge:
        raise CheckFailed(f"{path}: dominant charge {got}, want {charge}")


def read_csv_columns(path) -> dict:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    return {name: np.array([float(r[i]) for r in body])
            for i, name in enumerate(header)}


def check_spectrum(path, charge: int) -> None:
    """Projective fractions: each >= 0, sum <= 1 (Bessel), peak at charge."""
    cols = read_csv_columns(path)
    fractions = cols["fraction"]
    if np.any(fractions < 0.0):
        raise CheckFailed(f"{path}: negative power fraction")
    if not fractions.sum() <= 1.0 + BESSEL_SLACK:
        raise CheckFailed(f"{path}: fractions sum to {fractions.sum()!r} > 1")
    peak = int(cols["ell"][int(np.argmax(fractions))])
    if peak != charge:
        raise CheckFailed(f"{path}: spectrum peaks at {peak}, want {charge}")


def check_petals(path, harmonic: int) -> None:
    """Dominant non-constant harmonic of the ring intensity profile."""
    profile = read_csv_columns(path)["intensity"]
    spec = np.abs(np.fft.rfft(profile))
    spec[0] = 0.0
    got = int(np.argmax(spec))
    if got != harmonic:
        raise CheckFailed(f"{path}: petal profile harmonic {got}, want {harmonic}")
