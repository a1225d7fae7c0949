"""Correctness checks and reference oracles for the benchmark.

Every check returns a list of problems; an empty list means the operation's
output is correct.  The oracles use numpy only, so they do not share code
with the package under test.  ``Tally`` counts an operation as failed when
it raised or when any of its checks reported a problem.
"""

from itertools import combinations

import numpy as np

_SQRT12 = np.sqrt(12.0)

POWER_RESIDUAL_TOL = 1e-9
NUMERIC_GAP_DB = 0.5
EQUAL_POWER_TOL = 1e-6
CONCAT_RTOL = 1e-9
NTF_PEAK_SLACK = 1.01
NTF_RMS_DB = 6.0
TRACKING_RMS_DB = 3.0
PEAK_GRID = 2048


class Tally:
    """Attempted and failed operation counts plus observed quality figures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.observed = {}

    def record(self, op, problems):
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.append(f"{op}: {'; '.join(problems)}")

    def observe(self, key, value):
        self.observed.setdefault(key, []).append(float(value))


# ---------------------------------------------------------------------------
# oracles

def closed_form_sq(sv, delta, p):
    """Sq = Sv^(2/3) * (delta * sum(Sv^(-1/3)) / (sqrt(12) P))^2 on the grid."""
    sv = np.asarray(sv, dtype=float)
    bracket = delta * float(np.sum(sv ** (-1.0 / 3.0))) / (_SQRT12 * p)
    return sv ** (2.0 / 3.0) * (bracket * bracket)


def power_of_sq(sq, delta):
    return delta * float(np.sum(np.asarray(sq, dtype=float) ** -0.5)) / _SQRT12


def integer_ratio_oracle(sv, f_lo, f_hi, p, n):
    """Brute-force integer-ratio partition: every width composition with
    n..4n total units, first plan whose worst relative deviation from equal
    power beats the best so far by more than 1e-15.  Returns (edges, dev)."""
    sv = np.asarray(sv, dtype=float)
    k = sv.size
    width = f_hi - f_lo
    grid_edges = f_lo + np.arange(k + 1) * (width / k)
    sq = closed_form_sq(sv, width / k, p)
    cum = np.concatenate([[0.0], np.cumsum((width / k) * sq ** -0.5 / _SQRT12)])
    p_even = p / n
    best_dev, best_edges = np.inf, None
    for total in range(n, 4 * n + 1):
        cuts = np.array(list(combinations(range(1, total), n - 1)), dtype=float)
        units = np.concatenate([cuts, np.full((cuts.shape[0], 1), float(total))], axis=1)
        edges = f_lo + np.concatenate([np.zeros((units.shape[0], 1)), units], axis=1) * (width / total)
        edges[:, -1] = f_hi
        at = np.interp(edges, grid_edges, cum)
        devs = np.max(np.abs(np.diff(at, axis=1) - p_even), axis=1) / p_even
        for i, dev in enumerate(devs):
            if dev < best_dev - 1e-15:
                best_dev, best_edges = float(dev), edges[i].copy()
    return best_edges, best_dev


def tf_eval(zeros, poles, gain, z):
    z = np.asarray(z, dtype=complex)
    num = np.prod(z[:, None] - np.asarray(zeros)[None, :], axis=1) if len(zeros) else 1.0
    den = np.prod(z[:, None] - np.asarray(poles)[None, :], axis=1) if len(poles) else 1.0
    return gain * num / den


def ntf_fit_rms_db(zeros, poles, gain, freqs, target, step, fs):
    """In-band RMS dB error of step^2/(12 fs) |NTF|^2 against the target PSD."""
    z = np.exp(2j * np.pi * np.asarray(freqs) / fs)
    model = step ** 2 / (12.0 * fs) * np.abs(tf_eval(zeros, poles, gain, z)) ** 2
    err = 10.0 * np.log10(model / np.asarray(target))
    return float(np.sqrt(np.mean(err ** 2)))


def read_tf_file(path):
    """Parse a zeros:/poles:/gain: transfer-function file into arrays."""
    fields = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            key, _, rest = line.strip().partition(":")
            if key:
                fields[key.strip()] = rest.split()
    pairs = {k: np.array([complex(*map(float, s.split(","))) for s in fields[k]], dtype=complex)
             for k in ("zeros", "poles")}
    return pairs["zeros"], pairs["poles"], float(fields["gain"][0])


def read_summary(path):
    with open(path, encoding="utf-8") as fh:
        return dict(line.rstrip("\n").split("=", 1) for line in fh if "=" in line)


def read_csv(path, header):
    """Numeric CSV body as a 2-D array, after checking the header line."""
    with open(path, encoding="utf-8") as fh:
        first = fh.readline().strip()
        if first != header:
            raise ValueError(f"{path}: header {first!r}, expected {header!r}")
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    if not np.all(np.isfinite(data)):
        raise ValueError(f"{path}: non-finite values")
    return data


# ---------------------------------------------------------------------------
# checks

def power_residual(residual, tol=POWER_RESIDUAL_TOL):
    if not abs(residual) <= tol:
        return [f"power residual {residual:.3g} exceeds {tol:g}"]
    return []


def numerical_shaping(converged, gap_db):
    problems = [] if converged else ["numerical shaping did not converge"]
    if not gap_db < NUMERIC_GAP_DB:
        problems.append(f"numeric/closed-form gap {gap_db:.3g} dB >= {NUMERIC_GAP_DB} dB")
    return problems


def equal_power_plan(per_band_power, concat_sq, global_sq):
    power = np.asarray(per_band_power, dtype=float)
    mean = float(np.mean(power))
    problems = []
    imbalance = float(np.max(np.abs(power - mean))) / mean
    if not imbalance < EQUAL_POWER_TOL:
        problems.append(f"band powers unbalanced by {imbalance:.3g}")
    concat_sq, global_sq = np.asarray(concat_sq), np.asarray(global_sq)
    if concat_sq.shape != global_sq.shape:
        problems.append("per-band shapes do not cover the grid")
    elif not np.allclose(concat_sq, global_sq, rtol=CONCAT_RTOL, atol=0.0):
        problems.append("per-band concatenation differs from the global solution")
    return problems


def ntf_design(zeros, poles, gain, cap, rms_db):
    """Peak |NTF| on the upper unit circle within 1.01 x cap, in-band fit
    within 6 dB RMS, poles strictly inside the unit circle."""
    z_dense = np.exp(1j * np.linspace(0.0, np.pi, PEAK_GRID))
    peak = float(np.max(np.abs(tf_eval(zeros, poles, gain, z_dense))))
    problems = []
    if not peak <= NTF_PEAK_SLACK * cap:
        problems.append(f"peak NTF gain {peak:.4g} exceeds {NTF_PEAK_SLACK} x cap {cap:g}")
    if not rms_db <= NTF_RMS_DB:
        problems.append(f"NTF fit {rms_db:.3g} dB RMS exceeds {NTF_RMS_DB} dB")
    if len(poles) and not np.all(np.abs(poles) < 1.0):
        problems.append("NTF has poles on or outside the unit circle")
    return problems


def dithered_run(stable, tracking_rms_db):
    if not stable:
        return ["modulator flagged unstable"]
    if not tracking_rms_db < TRACKING_RMS_DB:
        return [f"tracking error {tracking_rms_db:.3g} dB RMS >= {TRACKING_RMS_DB} dB"]
    return []


def undithered_run(stable, output, qerror, step, levels):
    """Output on the mid-rise lattice (k + 1/2) step and |q| <= step/2 on
    every sample whose output is not at a rail (where saturation may apply)."""
    if not stable:
        return ["modulator flagged unstable"]
    y = np.asarray(output, dtype=float)
    q = np.asarray(qerror, dtype=float)
    problems = []
    idx = y / step - 0.5
    off = np.abs(idx - np.rint(idx)) > 1e-9
    if np.any(off):
        problems.append(f"{int(np.sum(off))} output samples off the quantizer lattice")
    top = (levels / 2.0 - 0.5) * step
    inner = np.abs(y) < top - 0.5 * step
    big = np.abs(q[inner]) > 0.5 * step * (1.0 + 1e-12)
    if np.any(big):
        problems.append(f"{int(np.sum(big))} unsaturated samples with |q| > step/2")
    return problems


def integer_ratio_plan(edges, oracle_edges):
    edges = np.asarray(edges, dtype=float)
    if edges.shape != np.shape(oracle_edges):
        return [f"{edges.size - 1} bands, brute force gives {len(oracle_edges) - 1}"]
    scale = max(abs(float(oracle_edges[-1])), 1.0)
    if not np.allclose(edges, oracle_edges, rtol=0.0, atol=1e-12 * scale):
        return ["integer-ratio edges differ from the brute-force search"]
    return []
