"""Multi-channel converter planning: time-interleaved PSD composition and
frequency partitioning of the band across several converters.

Equal-power plans carry exact (interpolated) quantile edges, so the declared
per-band powers are equal by construction.  per_band_shaping snaps edges to
grid-bin boundaries and scales each declared power by snapped / declared, the
global solution's power over the snapped and the declared band, which keeps
the concatenation identity exact on the grid for a partition function's plan.
"""

from dataclasses import dataclass

import numpy as np

from .capacity import _SQRT12, PowerBudget, as_budget
from .shaping import optimal_sq
from .spectral import FrequencyGrid, Psd, _write_csv


@dataclass(frozen=True, eq=False)
class PartitionPlan:
    """Contiguous band edges with declared per-band power (per_band_shaping
    rescales it by the snap); each band's bandwidth is its edge spacing."""

    edges: np.ndarray
    per_band_power: np.ndarray

    def __post_init__(self):
        e = np.asarray(self.edges, dtype=float).copy()
        p = np.asarray(self.per_band_power, dtype=float).copy()
        if e.ndim != 1 or e.size < 2:
            raise ValueError("edges must hold at least two frequencies")
        if not (np.all(np.isfinite(e)) and np.all(np.diff(e) > 0)):
            raise ValueError("edges must be finite and strictly increasing")
        if p.size != e.size - 1:
            raise ValueError("need one power per band")
        if not np.all(np.isfinite(p) & (p > 0)):
            raise ValueError("per-band powers must be positive and finite")
        for arr in (e, p):
            arr.setflags(write=False)
        object.__setattr__(self, "edges", e)
        object.__setattr__(self, "per_band_power", p)

    @property
    def num_bands(self):
        return self.edges.size - 1

    @property
    def per_band_bandwidth(self):
        return np.diff(self.edges)

    @property
    def total_power(self):
        return float(np.sum(self.per_band_power))


def time_interleave_psd(sq_single, n):
    """Bandwidth-expanded PSD of n time-interleaved converters.

    Pure frequency-axis dilation: the value at n*f equals the single-converter
    value at f (ideal offsets and matching assumed).
    """
    if int(n) != n or n < 1:
        raise ValueError("interleave factor must be a positive integer")
    n = int(n)
    g = sq_single.grid
    new_grid = FrequencyGrid(n * g.f_lo, n * g.f_hi, g.num_bins)
    vals = np.interp(new_grid.centers / n, g.centers, sq_single.values)
    return Psd(new_grid, vals)


def _power_measure(sq):
    """Cumulative integral, at the grid edges, of the per-bin power shares of
    the quantization PSD sq (for a closed-form shape it ends at the budget)."""
    shares = sq.grid.delta * sq.values ** -0.5 / _SQRT12
    return np.concatenate([[0.0], np.cumsum(shares)])


def _partition(noise, budget_total, n, mode):
    """(plan, result): the plan that splits noise's band into n bands in mode,
    and the global closed-form shape whose power measure it splits.  The one
    solve behind both partition functions and the partition command; the
    budget, n and mode are checked before it."""
    budget_total = as_budget(budget_total)
    if int(n) != n or n < 1:
        raise ValueError("number of bands must be a positive integer")
    n = int(n)
    g = noise.grid
    if n > g.num_bins:
        raise ValueError(f"cannot split {g.num_bins} bins into {n} bands")
    if mode not in ("equal-power", "equal-bandwidth", "integer-ratio"):
        raise ValueError(f"unknown partition mode {mode!r}")
    result = optimal_sq(noise, budget_total)
    cum = _power_measure(result.sq_opt)
    p = budget_total.p
    if mode == "equal-power":
        interior = np.interp(p * np.arange(1, n) / n, cum, g.edges)
        edges = np.concatenate([[g.f_lo], interior, [g.f_hi]])
        return PartitionPlan(edges=edges, per_band_power=np.full(n, p / n)), result
    if mode == "equal-bandwidth":
        edges = g.f_lo + np.arange(n + 1) * (g.width / n)
        edges[-1] = g.f_hi
    else:
        edges = _integer_ratio_edges(g, cum, p / n, n)
    powers = np.diff(np.interp(edges, g.edges, cum))
    return PartitionPlan(edges=edges, per_band_power=powers), result


def partition_equal_power(noise, budget_total, n):
    """Split the band into n contiguous pieces of equal converter power.

    Edges are the n-quantiles of the cumulative power integral of the global
    optimal shape (interpolated within bins, so each band receives exactly
    total/n).
    """
    return _partition(noise, budget_total, n, "equal-power")[0]


def _snap_edges_to_bins(plan, grid):
    """Bin-boundary indices for the plan's edges, each band at least one bin.

    Each interior edge goes to its nearest boundary; edges that land on one
    boundary, or outside [1, bins - 1], are then spread to neighbouring ones
    by a forward pass (each index at least 1 and one past the one before)
    and a backward pass (each at most bins - 1 and one before the next).
    A plan whose edges snap to distinct interior boundaries keeps them.
    Raises ValueError when the plan has more bands than the grid has bins.
    """
    bins = grid.num_bins
    if plan.num_bands > bins:
        raise ValueError(f"cannot shape {plan.num_bands} bands on {bins} grid bins")
    idx = np.rint((plan.edges[1:-1] - grid.f_lo) / grid.delta).astype(int)
    # less k, "one past the one before" is a running max and "one before
    # the next" a running min
    k = np.arange(idx.size)
    idx = np.maximum.accumulate(np.maximum(idx, 1) - k) + k
    idx = np.minimum.accumulate((np.minimum(idx, bins - 1) - k)[::-1])[::-1] + k
    return np.concatenate([[0], idx, [bins]])


def per_band_shaping(noise, plan):
    """Shape each band with its own budget; returns one ShapingResult per band.

    The plan must span the noise grid.  Its edges snap to bin boundaries, and
    each band's budget is its declared power times snapped / declared, the
    global closed-form shape's power over the snapped and the declared band.
    So an exactly bin-aligned plan keeps its declared budgets bit for bit, the
    hook for evaluating deliberately unequal splits.
    """
    g = noise.grid
    if max(abs(plan.edges[0] - g.f_lo), abs(plan.edges[-1] - g.f_hi)) > 1e-9 * g.width:
        raise ValueError(f"partition plan must span the noise grid [{g.f_lo}, {g.f_hi}], "
                         f"got [{plan.edges[0]}, {plan.edges[-1]}]")
    idx = _snap_edges_to_bins(plan, g)
    boundaries = g.edges
    cum = _power_measure(optimal_sq(noise, PowerBudget(plan.total_power)).sq_opt)
    snapped = np.diff(cum[idx])
    declared = np.diff(np.interp(plan.edges, boundaries, cum))
    budgets = plan.per_band_power * (snapped / declared)

    results = []
    for i in range(plan.num_bands):
        i0, i1 = idx[i], idx[i + 1]
        sub_grid = FrequencyGrid(boundaries[i0], boundaries[i1], i1 - i0)
        sub_noise = Psd(sub_grid, noise.values[i0:i1])
        results.append(optimal_sq(sub_noise, PowerBudget(budgets[i])))
    return results


def _integer_ratio_edges(grid, cum, p_even, n):
    """Edges of the integer-ratio plan for the cumulative power integral cum.

    For each total T the cut positions are i/T of the band and a band from
    cut i to cut j costs |P(j) - P(i) - p_even|.  rest[m-1][i] is the least
    worst cost of covering positions i..T with m bands:
    rest[m-1][i] = min_j max(cost[i, j], rest[m-2][j]).  Among the optimal
    compositions the lexicographically first is taken, and a larger T
    replaces a smaller one only if its worst relative deviation is lower by
    more than 1e-15 -- the order and tie rule of enumerating every
    composition.
    """
    best_edges, best_dev = None, np.inf
    for total in range(n, 4 * n + 1):
        pos = grid.f_lo + np.arange(total + 1) * (grid.width / total)
        pos[-1] = grid.f_hi
        at = np.interp(pos, grid.edges, cum)
        cost = np.abs(at[None, :] - at[:, None] - p_even)
        cost[np.tril_indices(total + 1)] = np.inf  # a band spans at least one unit
        rest = [cost[:, total]]
        for _ in range(n - 1):
            rest.append(np.min(np.maximum(cost, rest[-1][None, :]), axis=1))
        worst = rest[-1][0]
        dev = float(worst) / p_even
        if dev < best_dev - 1e-15:
            # walk forward: the first cut whose band and best completion both
            # stay within the optimum, then the next cut from there
            cuts = [0]
            for r in reversed(rest[:-1]):
                cuts.append(int(np.argmax((cost[cuts[-1]] <= worst) & (r <= worst))))
            cuts.append(total)
            best_dev, best_edges = dev, pos[cuts]
    return best_edges


def partition_constrained(noise, budget_total, n, mode="equal-bandwidth"):
    """Partition under a bandwidth constraint instead of exact power balance.

    equal-bandwidth: uniform edges; per-band powers are the global solution's
    integrals over each band, reported honestly unequal.  integer-ratio: the
    integer width composition (n..4n total units) minimizing the worst
    relative deviation from equal power, found exactly by a minimax dynamic
    program over cut positions, O(n T^2) per total T, so any n up to the bin
    count is accepted.
    """
    if mode == "equal-power":
        raise ValueError(f"unknown partition mode {mode!r}")
    return _partition(noise, budget_total, n, mode)[0]


def write_plan_csv(plan, path):
    _write_csv(path, "band_index,f_lo_hz,f_hi_hz,power,bandwidth_hz",
               [np.arange(plan.num_bands), plan.edges[:-1], plan.edges[1:],
                plan.per_band_power, plan.per_band_bandwidth])
