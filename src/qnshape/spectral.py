"""Frequency grids, one-sided PSD containers, example channel generators, and
Welch PSD estimation.

Conventions used throughout the package: PSDs are one-sided, linear scale,
power per Hz; dB only appears at I/O boundaries.  All band integrals are
midpoint-rule Riemann sums on a uniform grid.
"""

from dataclasses import dataclass

import numpy as np

DB_FLOOR = -200.0


def to_db(values):
    """10*log10 with a floor of DB_FLOOR dB for zero/negative bins."""
    v = np.asarray(values, dtype=float)
    return 10.0 * np.log10(np.maximum(v, 10.0 ** (DB_FLOOR / 10.0)))


def from_db(values_db):
    return 10.0 ** (np.asarray(values_db, dtype=float) / 10.0)


@dataclass(frozen=True)
class FrequencyGrid:
    """Uniform discretization of [f_lo, f_hi] into num_bins midpoint cells.

    Bin k (0-based) is centered at f_lo + (k + 1/2)*delta with
    delta = (f_hi - f_lo)/num_bins.
    """

    f_lo: float
    f_hi: float
    num_bins: int

    def __post_init__(self):
        if not (np.isfinite(self.f_lo) and np.isfinite(self.f_hi)):
            raise ValueError("grid limits must be finite")
        if self.f_hi <= self.f_lo:
            raise ValueError(f"invalid range: f_hi={self.f_hi} must exceed f_lo={self.f_lo}")
        if int(self.num_bins) != self.num_bins or self.num_bins < 1:
            raise ValueError("num_bins must be a positive integer")
        object.__setattr__(self, "num_bins", int(self.num_bins))

    @property
    def delta(self):
        """Bin width in Hz."""
        return (self.f_hi - self.f_lo) / self.num_bins

    @property
    def width(self):
        return self.f_hi - self.f_lo

    @property
    def centers(self):
        return self.f_lo + (np.arange(self.num_bins) + 0.5) * self.delta

    @property
    def edges(self):
        return self.f_lo + np.arange(self.num_bins + 1) * self.delta


def require_same_grid(a, b, what="operands"):
    """Raise unless two grids describe the same discretization, to 1e-9 relative."""
    atol = 1e-9 * max(abs(a.width), 1.0)
    if not (a.num_bins == b.num_bins
            and np.isclose(a.f_lo, b.f_lo, rtol=1e-9, atol=atol)
            and np.isclose(a.f_hi, b.f_hi, rtol=1e-9, atol=atol)):
        raise ValueError(f"grid mismatch: {what} must share one frequency grid")


@dataclass(frozen=True, eq=False)
class Psd:
    """Nonnegative spectral density sampled on a FrequencyGrid."""

    grid: FrequencyGrid
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float).copy()
        if v.ndim != 1 or v.size != self.grid.num_bins:
            raise ValueError("values length must equal grid.num_bins")
        if not np.all(np.isfinite(v)):
            raise ValueError("PSD values must be finite")
        if np.any(v < 0):
            raise ValueError("PSD values must be nonnegative")
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    def total_power(self):
        """Band-integrated power, midpoint rule."""
        return self.grid.delta * float(np.sum(self.values))


@dataclass(frozen=True, eq=False)
class ChannelSpec:
    """Signal and noise PSDs on a shared grid, defining one conversion problem."""

    signal: Psd
    noise: Psd

    def __post_init__(self):
        require_same_grid(self.signal.grid, self.noise.grid, "signal and noise PSDs")
        if np.any(self.noise.values <= 0):
            raise ValueError("noise PSD must be strictly positive everywhere")

    @property
    def grid(self):
        return self.signal.grid


def _require_finite(**params):
    """Raise ValueError naming the first non-finite keyword value."""
    for name, value in params.items():
        if not np.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")


def make_grid(f_lo, f_hi, num_bins):
    """Build a midpoint frequency grid over [f_lo, f_hi]."""
    return FrequencyGrid(float(f_lo), float(f_hi), num_bins)


def wireline_channel(grid, signal_level_0=0.0, signal_slope=0.0,
                     noise_floor=-90.0, noise_tilt=50.0):
    """Loop-attenuation style channel: dB levels vary linearly across the band.

    signal_level_0 and noise_floor are dB densities at the low band edge;
    signal_slope and noise_tilt are the total dB change across the band.  The
    SNR is monotone whenever signal_slope != noise_tilt.
    """
    _require_finite(signal_level_0=signal_level_0, signal_slope=signal_slope,
                    noise_floor=noise_floor, noise_tilt=noise_tilt)
    frac = (grid.centers - grid.f_lo) / grid.width
    sig_db = signal_level_0 + signal_slope * frac
    noi_db = noise_floor + noise_tilt * frac
    noise = from_db(noi_db)
    if np.any(noise <= 0):
        raise ValueError("wireline parameters produce nonpositive noise")
    return ChannelSpec(Psd(grid, from_db(sig_db)), Psd(grid, noise))


def wireless_channel(grid, num_notches=3, notch_depth=30.0, notch_width=None,
                     noise_floor=-80.0, seed=0):
    """Frequency-selective channel: SNR notches from raised-cosine noise bumps.

    The signal is flat at 0 dB; the noise sits on a flat floor and rises by
    notch_depth dB inside num_notches raised-cosine bumps whose centers are
    placed deterministically from the seed.  Each bump produces one SNR
    minimum roughly notch_depth dB below the inter-notch level.
    """
    width = grid.width
    if notch_width is None:
        notch_width = width / (4.0 * max(num_notches, 1))
    _require_finite(num_notches=num_notches, notch_depth=notch_depth,
                    notch_width=notch_width, noise_floor=noise_floor)
    if num_notches < 0:
        raise ValueError("num_notches must be >= 0")
    if notch_width <= 0:
        raise ValueError("notch_width must be positive")
    if num_notches > 0 and 2.0 * notch_width * num_notches > width:
        raise ValueError("notch supports exceed the band")

    noi_db = np.full(grid.num_bins, float(noise_floor))
    if num_notches > 0:
        rng = np.random.default_rng(seed)
        slot = width / num_notches
        # keep each raised-cosine support inside its slot so minima never merge
        jitter_amp = max(0.0, 0.5 * (slot - 2.0 * notch_width)) * 0.8
        for i in range(num_notches):
            c = grid.f_lo + (i + 0.5) * slot + rng.uniform(-1.0, 1.0) * jitter_amp
            u = (grid.centers - c) / notch_width
            bump = np.where(np.abs(u) < 1.0, 0.5 * (1.0 + np.cos(np.pi * u)), 0.0)
            noi_db = noi_db + notch_depth * bump

    noise = from_db(noi_db)
    sig = np.ones(grid.num_bins)
    return ChannelSpec(Psd(grid, sig), Psd(grid, noise))


def estimate_psd(samples, sample_rate, segment_len):
    """Welch-averaged one-sided PSD of a real sequence, on a midpoint grid
    covering [0, sample_rate/2].

    Periodic Hann window, no detrending; segments overlap by half.  The
    estimate is Parseval-consistent: grid.delta * sum(values) approximates
    the mean signal power.  The periodogram's bin-edge samples (0, fs/L,
    ..., fs/2) are averaged pairwise onto the midpoint grid, which preserves
    the trapezoidal power integral.
    """
    x = np.asarray(samples, dtype=float)
    if x.ndim != 1:
        raise ValueError("samples must be one-dimensional")
    segment_len = int(segment_len)
    if segment_len < 2 or segment_len % 2 != 0:
        raise ValueError("segment_len must be an even integer >= 2")
    if segment_len > x.size:
        raise ValueError("too few samples for the requested segment length")

    window = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(segment_len) / segment_len)
    segments = np.lib.stride_tricks.sliding_window_view(x, segment_len)[::segment_len // 2]
    spectra = np.fft.rfft(segments * window, axis=1)
    pxx = np.mean(spectra.real ** 2 + spectra.imag ** 2, axis=0)
    pxx /= sample_rate * float(np.sum(window ** 2))
    pxx[1:-1] *= 2.0  # one-sided: fold the negative frequencies onto the positive ones
    vals = 0.5 * (pxx[:-1] + pxx[1:])
    grid = make_grid(0.0, sample_rate / 2.0, segment_len // 2)
    return Psd(grid, vals)


# ---------------------------------------------------------------------------
# CSV interchange

def _fmt(x):
    return f"{x:.17g}"


_CSV_BLOCK_ROWS = 4096  # rows converted to Python numbers and formatted per write


def _write_csv(path, header, columns):
    """Write equal-length columns as CSV rows under a header line.

    Integer columns are written with str and all others as _fmt does, so
    floats round-trip exactly.  Rows are formatted a block at a time, which
    keeps memory flat for long traces.
    """
    cols = [np.asarray(c) for c in columns]
    if len({c.size for c in cols}) > 1:
        raise ValueError(f"CSV columns must have equal lengths, got {[c.size for c in cols]}")
    row = ",".join("{}" if np.issubdtype(c.dtype, np.integer) else "{:.17g}"
                   for c in cols) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        for start in range(0, cols[0].size, _CSV_BLOCK_ROWS):
            block = [c[start:start + _CSV_BLOCK_ROWS].tolist() for c in cols]
            fh.write("".join(row.format(*vals) for vals in zip(*block)))


def write_psd_csv(psd, path):
    _write_csv(path, "frequency_hz,psd", [psd.grid.centers, psd.values])


def _grid_from_centers(centers):
    c = np.asarray(centers, dtype=float)
    if c.size < 2:
        raise ValueError("need at least two rows to infer the frequency grid")
    d = np.diff(c)
    delta = float(np.mean(d))
    if delta <= 0 or not np.allclose(d, delta, rtol=1e-6, atol=1e-9 * abs(delta)):
        raise ValueError("rows must be sorted on a uniform frequency grid")
    return FrequencyGrid(c[0] - 0.5 * delta, c[-1] + 0.5 * delta, c.size)


def _read_rows(path, expected_header):
    """The CSV body under expected_header as a 2-D float array; an error
    names the path, and the line of a row that is short or not numeric."""
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        if header != expected_header:
            raise ValueError(f"{path}: bad header {header!r}, expected {expected_header!r}")
        rows = [(n, line.strip().split(",")) for n, line in enumerate(fh, 2) if line.strip()]
    if not rows:
        raise ValueError(f"{path}: no data rows after the header")
    width = expected_header.count(",") + 1
    data = []
    for n, cells in rows:
        if len(cells) != width:
            raise ValueError(f"{path}, line {n}: every row needs {width} columns")
        try:
            data.append([float(cell) for cell in cells])
        except ValueError as exc:
            raise ValueError(f"{path}, line {n}: {exc}") from None
    return np.array(data)


def read_psd_csv(path):
    data = _read_rows(path, "frequency_hz,psd")
    try:
        return Psd(_grid_from_centers(data[:, 0]), data[:, 1])
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def write_channel_csv(ch, path):
    _write_csv(path, "frequency_hz,signal_psd,noise_psd",
               [ch.grid.centers, ch.signal.values, ch.noise.values])


def read_channel_csv(path):
    data = _read_rows(path, "frequency_hz,signal_psd,noise_psd")
    try:
        grid = _grid_from_centers(data[:, 0])
        return ChannelSpec(Psd(grid, data[:, 1]), Psd(grid, data[:, 2]))
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
