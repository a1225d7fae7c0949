"""Information and power functionals: channel capacity before/after conversion,
the bits <-> quantization-PSD relation, and the converter power integrals.

All rates are bits/s; power is in normalized units (Hz * 2^bits) with the
converter's proportionality constant absorbed.
"""

from dataclasses import dataclass

import numpy as np

from .spectral import FrequencyGrid, Psd, require_same_grid

_LN2 = np.log(2.0)
_SQRT12 = np.sqrt(12.0)


@dataclass(frozen=True)
class PowerBudget:
    """Normalized converter power (proportionality constant absorbed)."""

    p: float

    def __post_init__(self):
        if not np.isfinite(self.p) or self.p <= 0:
            raise ValueError(f"power budget must be positive and finite, got {self.p}")


def as_budget(p):
    """Accept a PowerBudget or a bare positive number."""
    return p if isinstance(p, PowerBudget) else PowerBudget(float(p))


@dataclass(frozen=True, eq=False)
class BitProfile:
    """Real-valued bits-per-bin profile b(f).

    Negative densities are representable: they flag a quantization PSD above
    the 1-LSB floor, and nothing clamps them.
    """

    grid: FrequencyGrid
    bits: np.ndarray

    def __post_init__(self):
        b = np.asarray(self.bits, dtype=float).copy()
        if b.ndim != 1 or b.size != self.grid.num_bins:
            raise ValueError("bits length must equal grid.num_bins")
        if not np.all(np.isfinite(b)):
            raise ValueError("bits must be finite")
        b.setflags(write=False)
        object.__setattr__(self, "bits", b)


def capacity_before(ch):
    """Band capacity of the unconverted channel, bits/s."""
    g = ch.grid
    return g.delta * float(np.sum(np.log1p(ch.signal.values / ch.noise.values))) / _LN2


def capacity_after(ch, sq):
    """Band capacity with quantization noise sq added to the channel noise."""
    require_same_grid(ch.grid, sq.grid, "channel and quantization PSD")
    g = ch.grid
    denom = ch.noise.values + sq.values
    return g.delta * float(np.sum(np.log1p(ch.signal.values / denom))) / _LN2


def info_loss(noise, sq):
    """Information lost to quantization, bits/s (small-noise form).

    Equals capacity_before - capacity_after only approximately; it is always
    an upper bound on the exact difference.
    """
    require_same_grid(noise.grid, sq.grid, "noise and quantization PSD")
    if np.any(noise.values <= 0):
        raise ValueError("noise PSD must be strictly positive")
    g = noise.grid
    return g.delta * float(np.sum(np.log1p(sq.values / noise.values))) / _LN2


def bits_from_sq(sq):
    """Bits-per-bin equivalent of a quantization noise PSD: b = -log2(12*Sq)/2."""
    if np.any(sq.values <= 0):
        raise ValueError("quantization PSD must be strictly positive to map to bits")
    return BitProfile(sq.grid, -0.5 * np.log2(12.0 * sq.values))


def sq_from_bits(bp):
    """Quantization noise PSD implied by a bit profile: Sq = 2^(-2b)/12."""
    return Psd(bp.grid, np.exp2(-2.0 * bp.bits) / 12.0)


def power_of_bits(bp):
    """Converter power of a bit profile: integral of 2^b over the band."""
    return PowerBudget(bp.grid.delta * float(np.sum(np.exp2(bp.bits))))


def power_of_sq(sq):
    """Converter power implied by a quantization PSD: integral of Sq^(-1/2)/sqrt(12)."""
    if np.any(sq.values <= 0):
        raise ValueError("quantization PSD must be strictly positive to integrate power")
    return PowerBudget(sq.grid.delta * float(np.sum(sq.values ** -0.5)) / _SQRT12)
