"""Multi-channel converter planning: time-interleaved PSD composition and
frequency partitioning of the band across several converters.

Equal-power plans carry exact (interpolated) quantile edges, so the declared
per-band powers are equal by construction.  Band/bin alignment is handled at
shaping time: per_band_shaping snaps edges to grid-bin boundaries and then
recomputes the snapped budgets from the cumulative power integral of the
global solution, which keeps the concatenation identity exact on the grid.
"""

from dataclasses import dataclass

import numpy as np

from .capacity import PowerBudget, as_budget
from .shaping import optimal_sq
from .spectral import FrequencyGrid, Psd, _write_csv

_SQRT12 = np.sqrt(12.0)


@dataclass(frozen=True, eq=False)
class PartitionPlan:
    """Contiguous band edges with per-band power; each band's bandwidth is
    its edge spacing."""

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


def _power_measure(noise, budget):
    """Per-bin power shares of the global closed-form shape (they sum to the
    budget), plus the cumulative integral at the grid edges.  A budget
    outside the small-noise regime warns, as optimal_sq does."""
    global_result = optimal_sq(noise, budget)
    g = noise.grid
    shares = g.delta * global_result.sq_opt.values ** -0.5 / _SQRT12
    cum = np.concatenate([[0.0], np.cumsum(shares)])
    return shares, cum


def _split_setup(noise, budget_total, n):
    """The checked budget and band count n for splitting noise's grid, and
    the cumulative power integral of the global optimal shape."""
    budget_total = as_budget(budget_total)
    if int(n) != n or n < 1:
        raise ValueError("number of bands must be a positive integer")
    n = int(n)
    if n > noise.grid.num_bins:
        raise ValueError(f"cannot split {noise.grid.num_bins} bins into {n} bands")
    return budget_total, n, _power_measure(noise, budget_total)[1]


def partition_equal_power(noise, budget_total, n):
    """Split the band into n contiguous pieces of equal converter power.

    Edges are the n-quantiles of the cumulative power integral of the global
    optimal shape (interpolated within bins, so each band receives exactly
    total/n).
    """
    budget_total, n, cum = _split_setup(noise, budget_total, n)
    g = noise.grid
    p = budget_total.p
    targets = p * np.arange(1, n) / n
    interior = np.interp(targets, cum, g.edges)
    edges = np.concatenate([[g.f_lo], interior, [g.f_hi]])
    return PartitionPlan(edges=edges, per_band_power=np.full(n, p / n))


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


def _is_aligned(plan, grid):
    offs = (plan.edges[1:-1] - grid.f_lo) / grid.delta
    return bool(np.all(np.abs(offs - np.rint(offs)) <= 1e-6))


def per_band_shaping(noise, plan):
    """Shape each band with its own budget; returns one ShapingResult per band.

    Plans with bin-aligned edges are used verbatim (their budgets included),
    which is the hook for evaluating deliberately unequal splits.  Unaligned
    edges are snapped to bin boundaries and the snapped budgets are
    recomputed from the global solution's cumulative power integral rather
    than assumed equal.
    """
    g = noise.grid
    if plan.edges[0] < g.f_lo - 1e-9 * g.width or plan.edges[-1] > g.f_hi + 1e-9 * g.width:
        raise ValueError("partition plan exceeds the noise grid")
    idx = _snap_edges_to_bins(plan, g)

    if _is_aligned(plan, g):
        budgets = plan.per_band_power
    else:
        shares, _ = _power_measure(noise, PowerBudget(plan.total_power))
        budgets = np.array([np.sum(shares[idx[i]:idx[i + 1]]) for i in range(plan.num_bands)])

    results = []
    boundaries = g.edges
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
    budget_total, n, cum = _split_setup(noise, budget_total, n)
    g = noise.grid
    if mode == "equal-bandwidth":
        edges = g.f_lo + np.arange(n + 1) * (g.width / n)
        edges[-1] = g.f_hi
    elif mode == "integer-ratio":
        edges = _integer_ratio_edges(g, cum, budget_total.p / n, n)
    else:
        raise ValueError(f"unknown partition mode {mode!r}")

    powers = np.diff(np.interp(edges, g.edges, cum))
    return PartitionPlan(edges=edges, per_band_power=powers)


def write_plan_csv(plan, path):
    _write_csv(path, "band_index,f_lo_hz,f_hi_hz,power,bandwidth_hz",
               [np.arange(plan.num_bands), plan.edges[:-1], plan.edges[1:],
                plan.per_band_power, plan.per_band_bandwidth])
