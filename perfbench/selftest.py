"""Show that each benchmark check rejects a deliberately wrong output.

    python3 perfbench/selftest.py

Each case first passes a correct output through the check (it must be
accepted), then a corrupted one (it must be rejected).  Needs numpy only;
hotelsim is not imported.  Exits 1 if any check accepts a wrong output
or rejects a right one.
"""

import os
import shutil
import struct
import sys
from pathlib import Path

import numpy as np

import checks

WORK = Path(__file__).resolve().parent.parent / ".perfbench_runs" / f"selftest-{os.getpid()}"


def rejects(fn, *args) -> bool:
    try:
        fn(*args)
    except checks.CheckFailed:
        return True
    return False


def write_hsim(path, data, rows=None):
    """HSIM writer; rows overrides the header's row count."""
    data = np.asarray(data, dtype=complex)
    flat = np.empty(2 * data.size)
    flat[0::2] = data.real.ravel()
    flat[1::2] = data.imag.ravel()
    header = b"HSIM" + struct.pack("<III", rows or data.shape[0], data.shape[1], 1)
    path.write_bytes(header + flat.astype("<f8").tobytes())


def ideal_case():
    """An amplitude moved off level p*n."""
    rng = np.random.default_rng(0)
    p = 3
    amps = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    amps /= np.linalg.norm(amps)
    good = checks.interleave(amps, p)
    bad = good.copy()
    bad[p * 4 - 1], bad[p * 4] = 0.0, bad[p * 4 - 1]   # level 12 -> level 13
    return (not rejects(checks.check_ideal, amps, good, p)
            and rejects(checks.check_ideal, amps, bad, p))


def ring_field(charge, n=512, pitch=2e-5, radius=3e-3):
    c = (np.arange(n) - n // 2) * pitch
    x, y = np.meshgrid(c, c, indexing="xy")
    r = np.hypot(x, y)
    return np.exp(-((r - radius) / (radius / 7.5)) ** 2) * np.exp(
        1j * charge * np.arctan2(y, x))


def raster_charge_case():
    """A raster carrying charge p*l + 1 instead of p*l."""
    p, ell = 3, 2
    good, bad = WORK / "good.bin", WORK / "bad.bin"
    write_hsim(good, ring_field(p * ell))
    write_hsim(bad, ring_field(p * ell + 1))
    return (not rejects(checks.check_oam_raster, good, p * ell, 2e-5, 3e-3)
            and rejects(checks.check_oam_raster, bad, p * ell, 2e-5, 3e-3))


def raster_header_case():
    """A raster header whose size disagrees with its payload."""
    field = ring_field(1, n=64, pitch=1e-4, radius=2e-3)
    good, bad = WORK / "h-good.bin", WORK / "h-bad.bin"
    write_hsim(good, field)
    write_hsim(bad, field, rows=65)
    return (not rejects(checks.read_hsim, good)
            and rejects(checks.read_hsim, bad))


def carpet_case():
    """A carpet row taken one step late."""
    width, m, steps_per_tau, samples = 1.0, 255, 2000, 33
    tau = 4.0 * width ** 2 / np.pi
    duration, dt = 2.0 * tau, tau / steps_per_tau
    amps = np.ones(3, dtype=complex) / np.sqrt(3.0)
    dx = width / (m + 1)
    x = dx * np.arange(1, m + 1)
    times = np.linspace(0.0, duration, samples)
    rows = checks.exact_density(amps, width, x, times)
    late = rows.copy()
    late[5] = checks.exact_density(amps, width, x, times[5:6] + dt)[0]
    ok_good = checks.check_carpet(amps, width, duration, times, x, rows, dx)
    ok_late = checks.check_carpet(amps, width, duration, times, x, late, dx)
    return bool(ok_good.all()) and list(np.flatnonzero(~ok_late)) == [5]


CASES = {
    "amplitude moved off level p*n": ideal_case,
    "raster carrying charge p*l+1": raster_charge_case,
    "raster header disagreeing with its payload": raster_header_case,
    "carpet row taken one step late": carpet_case,
}


def main() -> int:
    WORK.mkdir(parents=True, exist_ok=True)
    try:
        results = {name: case() for name, case in CASES.items()}
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    for name, ok in results.items():
        print(f"{'PASS' if ok else 'FAIL'} {name}: correct output accepted, "
              f"wrong output {'rejected' if ok else 'NOT rejected'}")
    return 0 if all(results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
