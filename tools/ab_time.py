"""Time two qnshape source trees against each other in one process.

    python3 tools/ab_time.py PARENT_SRC CHANGE_SRC [--rounds N]

Each SRC is a directory that holds a ``qnshape`` package, such as the
``src`` of a checkout.  Both trees are loaded under distinct package names,
so one process runs both and a drifting host slows both alike; a pair of
separate benchmark runs cannot size a change of a few percent.  Each round
runs every operation once per tree, the tree that goes first alternating
from round to round:

- ``design_ntf`` at orders 4, 5 and 6;
- one dithered 2^18-sample ``simulate`` of the order-4 loop followed by
  ``measured_vs_predicted`` against the target;
- one undithered 2^18-sample ``simulate`` of the same loop, so that the
  modulator kernel's plain body is timed on its own.

Both work on the delta-sigma test fixture's values: a 64-bin 1-notch
wireless channel (seed 3) to 2e8 Hz at a 7.5e14 budget, OSR 12, 16 levels
of step 0.125, peak NTF gain 1.5, a -6 dBFS sine at 0.35 of the band edge.
For each operation it prints the median over rounds of the time ratio
change / parent with its quartiles, each tree's median time, and each
tree's tracemalloc peak in MB: the most memory that numpy and Python held
at once during one more, untimed call of the operation, the operation's
inputs not counted.  So one run sizes a memory claim as well as a time
claim; the peak of a given call does not vary from run to run.  Needs only
numpy; run from anywhere:

    python3 tools/ab_time.py /path/to/parent/src src

Run it on one tree against itself first to see the noise floor:

    python3 tools/ab_time.py src src

On identical code one 21-round run read 0.943 [0.898, 0.968] for the
dithered ``simulate`` and another 1.001 [0.906, 1.041] for the undithered
one, so a ratio no further from 1 than such a run's does not size a change.
The undithered ``simulate`` spreads wider still.  On a shared 2-CPU host,
against a tree whose ``simulate`` changed only after the modulator loop, it
read 1.115 [0.982, 1.178] over 21 rounds, and 1.240 over 5 rounds while
another job ran, while ``modulator_core`` timed alone read 0.962 [0.929,
1.011].  So a ratio of about 1.1 on that operation does not size a slowdown.
"""

import argparse
import importlib
import importlib.util
import os
import sys
import time
import tracemalloc
from dataclasses import replace

import numpy as np

SAMPLES = 2 ** 18


def load(src, name):
    """The qnshape package under src, imported as the package name."""
    pkg = os.path.join(os.path.abspath(src), "qnshape")
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(pkg, "__init__.py"), submodule_search_locations=[pkg])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module, importlib.import_module(f"{name}.deltasigma")


def operations(src, name):
    """(label, function) for each timed operation of one tree."""
    q, ds = load(src, name)
    grid = q.make_grid(0.0, 2e8, 64)
    channel = q.wireless_channel(grid, num_notches=1, notch_depth=12.0,
                                 notch_width=0.3 * grid.width, noise_floor=-80.0, seed=3)
    target = q.optimal_sq(channel.noise, q.PowerBudget(7.5e14)).sq_opt
    cfg = q.ModulatorConfig(order=4, osr=12.0, sample_rate=4.8e9, quantizer_levels=16,
                            step=0.125, max_ntf_gain=1.5, dither=True)
    ops = [(f"design_ntf o{order}",
            lambda c=replace(cfg, order=order): ds.design_ntf(target, c))
           for order in (4, 5, 6)]
    ntf = ds.design_ntf(target, cfg)
    loop = ds.loop_from_ntf(ntf)
    t = np.arange(SAMPLES) / cfg.sample_rate
    x = cfg.full_scale * 10.0 ** (-6.0 / 20.0) * np.sin(2.0 * np.pi * 0.35 * grid.f_hi * t)

    def track():
        trace = ds.simulate(loop, cfg, x, seed=1)
        return ds.measured_vs_predicted(trace, ntf, cfg, reference=target)
    ops.append((f"simulate + measured_vs_predicted, {SAMPLES} samples", track))
    plain = replace(cfg, dither=False)
    ops.append((f"simulate undithered, {SAMPLES} samples", lambda: ds.simulate(loop, plain, x)))
    return ops


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent_src")
    parser.add_argument("change_src")
    parser.add_argument("--rounds", type=int, default=15)
    args = parser.parse_args()
    trees = [operations(args.parent_src, "qnshape_parent"),
             operations(args.change_src, "qnshape_change")]
    times = np.zeros((args.rounds, len(trees[0]), 2))
    for r in range(args.rounds):
        for k in range(len(trees[0])):
            for side in ((0, 1) if r % 2 == 0 else (1, 0)):
                fn = trees[side][k][1]
                start = time.perf_counter()
                fn()
                times[r, k, side] = time.perf_counter() - start
    peaks = np.zeros((len(trees[0]), 2))
    for k in range(len(trees[0])):
        for side in (0, 1):
            tracemalloc.start()
            trees[side][k][1]()
            peaks[k, side] = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
    print(f"{args.rounds} rounds; ratio = change / parent, median [quartiles]; "
          "peak = tracemalloc peak of one untimed call")
    for k, (label, _) in enumerate(trees[0]):
        q1, med, q3 = np.percentile(times[:, k, 1] / times[:, k, 0], [25, 50, 75])
        parent, change = np.median(times[:, k, 0]), np.median(times[:, k, 1])
        print(f"{label}: {med:.3f} [{q1:.3f}, {q3:.3f}]  "
              f"parent {parent * 1e3:.1f} ms, change {change * 1e3:.1f} ms; "
              f"peak parent {peaks[k, 0] / 1e6:.2f} MB, change {peaks[k, 1] / 1e6:.2f} MB")


if __name__ == "__main__":
    main()
