"""Print every design of the 64-design NTF synthesis sweep, bit for bit.

The sweep is loop orders 1-8 at OSR 12 and 16 on four channels, each
designed for its closed-form optimal quantization PSD:

- dsm: the delta-sigma test fixture, 64-bin 1-notch 12 dB wireless (seed 3);
- wireless3: a 3-notch 20 dB wireless channel on the same grid (seed 5);
- readme: the README simulate example's 1-notch wireless channel (seed 0);
- wireline: the 64-bin default wireline channel at a 2e12 budget.

Each line names the point, then holds the NTF's zeros and poles as float hex
(real and imaginary parts), or the infeasibility message, so that a diff of
two runs shows whether two versions of design_ntf give identical designs.
A feasible design's line ends with its in-band RMS fit error in dB (as the
tests compute it) and its peak |NTF| on a 2^16-point grid over [0, pi],
so that the diff also shows how far a design moved.  channels() declares
which channels are infeasible at every OSR and order; after printing every
line the tool checks each against that declaration, writes one line naming
the point to stderr for each that breaks it, and exits 1 if there was any.
Needs only numpy; run from the repository root:

    PYTHONPATH=src python3 tools/design_sweep.py > sweep.txt
"""

import sys

import numpy as np

import qnshape as q

DSM_BUDGET = 7.5e14
GRID = q.make_grid(0.0, 2e8, 64)
HALF_CIRCLE = np.exp(1j * np.linspace(0.0, np.pi, 2 ** 16))


def channels():
    """(name, channel, power budget, infeasible) for each swept channel;
    infeasible declares that no design of the channel fits its target."""
    return [
        ("dsm", q.wireless_channel(GRID, num_notches=1, notch_depth=12.0,
                                   notch_width=0.3 * GRID.width, noise_floor=-80.0,
                                   seed=3), DSM_BUDGET, False),
        ("wireless3", q.wireless_channel(GRID, num_notches=3, notch_depth=20.0,
                                         noise_floor=-80.0, seed=5), DSM_BUDGET, False),
        ("readme", q.wireless_channel(GRID, num_notches=1, notch_depth=12.0,
                                      notch_width=6e7, seed=0), DSM_BUDGET, False),
        # every fit misses design_ntf's 6 dB limit by 23 dB or more; the closest
        # feasible fit of the other channels sits 0.2 dB inside it
        ("wireline", q.wireline_channel(q.make_grid(0.0, 1e8, 64)), 2e12, True),
    ]


def broken(table, lines):
    """One line naming the point for each printed line whose feasibility is
    not the one table declares for its channel."""
    infeasible = {name: flag for name, *_, flag in table}
    for line in lines:
        name, osr, order, result = line.split(" ", 3)
        declared = "infeasible" if infeasible[name] else "feasible"
        if result.startswith("infeasible:") != infeasible[name]:
            yield f"{name} {osr} {order}: declared {declared}"


def _hex(roots):
    return " ".join(f"{float(r.real).hex()},{float(r.imag).hex()}" for r in roots)


def main():
    table, lines = channels(), []
    for name, ch, power, _ in table:
        target = q.optimal_sq(ch.noise, q.PowerBudget(power)).sq_opt
        for osr in (12.0, 16.0):
            for order in range(1, 9):
                cfg = q.ModulatorConfig(order=order, osr=osr,
                                        sample_rate=2.0 * osr * target.grid.f_hi)
                try:
                    ntf = q.design_ntf(target, cfg)
                except q.DesignInfeasibleError as exc:
                    result = f"infeasible: {exc}"
                else:
                    fit = q.ntf_quant_psd(ntf, cfg, target.grid).values / target.values
                    rms_db = float(np.sqrt(np.mean((10.0 * np.log10(fit)) ** 2)))
                    peak = float(np.max(np.abs(ntf(HALF_CIRCLE))))
                    result = (f"zeros: {_hex(ntf.zeros)} poles: {_hex(ntf.poles)} "
                              f"rms_db={rms_db:.9f} peak={peak:.9f}")
                lines.append(f"{name} osr={osr:g} order={order} {result}")
                print(lines[-1])
    problems = list(broken(table, lines))
    for problem in problems:
        print(problem, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
