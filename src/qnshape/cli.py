"""Command-line front end.

Subcommands: shape (optimal quantization PSD + numerical cross-check),
simulate (NTF design + modulator run + measured-vs-analytic report),
partition (multi-converter band planning), capacity (information table).
Outputs are plot-ready CSV/key=value files; rendering is left to external
tools.  Identical invocations with the same seed produce byte-identical
files.
"""

import argparse
import math
import os
import sys
import warnings

import numpy as np

from . import capacity as cap
from . import deltasigma as ds
from . import multichannel as mc
from . import shaping as sh
from . import spectral as sp
from .spectral import _fmt

# Flags that only feed a library parameter, as {dest: parameter}.  They
# default to argparse.SUPPRESS, so a flag that neither the command line nor
# the config file sets leaves the library's own default in force; the grid
# has none, so its defaults are kept here.
_GRID_PARAMS = {"bins": "num_bins", "flo": "f_lo", "fhi": "f_hi"}
_GRID_DEFAULTS = {"num_bins": 256, "f_lo": 0.0, "f_hi": 1e8}
_WIRELINE_PARAMS = {"noise_floor": "noise_floor", "noise_tilt": "noise_tilt"}
_WIRELESS_PARAMS = {"notches": "num_notches", "notch_depth": "notch_depth",
                    "notch_width": "notch_width", "noise_floor": "noise_floor"}
# The grid and generator flags each generated channel reads.  A file: channel
# takes its grid from the file and refuses them all.  --seed is a run-level
# flag that every command accepts; only wireless and simulate --dither read it.
_CHANNEL_PARAMS = {"wireline": {**_GRID_PARAMS, **_WIRELINE_PARAMS},
                   "wireless": {**_GRID_PARAMS, **_WIRELESS_PARAMS}}
_MODULATOR_PARAMS = {"order": "order", "osr": "osr", "levels": "quantizer_levels",
                     "step": "step", "max_ntf_gain": "max_ntf_gain", "dither": "dither"}


def _set_params(args, params):
    """The library keyword arguments whose flags were set."""
    given = vars(args)
    return {param: given[dest] for dest, param in params.items() if dest in given}


def _validate(args):
    if args.seed < 0:
        raise ValueError(f"--seed must be a non-negative integer, got {args.seed}")
    if args.channel.startswith("file:"):
        path = args.channel[5:]
        if not os.path.isfile(path):
            raise ValueError(f"channel file not found: {path}")
    elif args.channel not in _CHANNEL_PARAMS:
        raise ValueError(f"unknown channel {args.channel!r}")
    read = _CHANNEL_PARAMS.get(args.channel, {})
    ignored = [f"--{dest.replace('_', '-')}"
               for dest in dict.fromkeys(d for params in _CHANNEL_PARAMS.values() for d in params)
               if dest in vars(args) and dest not in read]
    if ignored:
        raise ValueError(f"--channel {args.channel} does not read {', '.join(ignored)}")
    sq = getattr(args, "sq", None)
    if sq is not None and not os.path.isfile(sq):
        raise ValueError(f"quantization PSD file not found: {sq}")
    # the directory itself is made only once a command has its results
    if args.out is not None and os.path.exists(args.out) and not (
            os.path.isdir(args.out) and os.access(args.out, os.W_OK)):
        raise ValueError(f"output directory not writable: {args.out}")
    # argparse's required= cannot say this: the config file may supply either
    if args.command != "capacity":
        if args.out is None:
            raise ValueError("--out DIR is required for this command")
        # capacity.PowerBudget checks the budget's range, first in each command
        if args.power is None:
            raise ValueError("a positive --power budget is required")


def _load_channel(args):
    if args.channel.startswith("file:"):
        return sp.read_channel_csv(args.channel[5:])
    grid = sp.make_grid(**{**_GRID_DEFAULTS, **_set_params(args, _GRID_PARAMS)})
    if args.channel == "wireline":
        return sp.wireline_channel(grid, **_set_params(args, _WIRELINE_PARAMS))
    return sp.wireless_channel(grid, seed=args.seed, **_set_params(args, _WIRELESS_PARAMS))


def cmd_shape(args):
    budget = cap.PowerBudget(args.power)
    ch = _load_channel(args)

    analytic = sh.optimal_sq(ch.noise, budget)
    numeric = sh.optimal_sq_numerical(ch, budget)
    report = sh.verify_shaping(ch, analytic.sq_opt, budget)
    numeric_loss = cap.info_loss(ch.noise, numeric.sq_opt)
    gap_db = sp.to_db(numeric.sq_opt.values) - sp.to_db(analytic.sq_opt.values)

    os.makedirs(args.out, exist_ok=True)
    sh.write_shaping_csv(analytic, os.path.join(args.out, "shaping.csv"))
    sh.write_summary(
        {
            "power_budget": budget.p,
            "power_residual": report.power_residual,
            "info_loss": report.info_loss,
            "loss_vs_closed_form": report.info_loss - numeric_loss,
            "max_sq_over_noise": report.max_sq_over_noise,
            "max_noise_over_signal": report.max_noise_over_signal,
            "min_bits": report.min_bits,
            "lagrange_scale": analytic.lagrange_scale,
            "numeric_info_loss": numeric_loss,
            "numeric_converged": numeric.converged,
            "numeric_max_gap_db": float(np.max(np.abs(gap_db))),
        },
        os.path.join(args.out, "summary.txt"),
    )
    sp._write_csv(
        os.path.join(args.out, "plotdata.csv"),
        "frequency_hz,signal_db,noise_db,sq_analytic_db,sq_numeric_db",
        [ch.grid.centers, sp.to_db(ch.signal.values), sp.to_db(ch.noise.values),
         sp.to_db(analytic.sq_opt.values), sp.to_db(numeric.sq_opt.values)],
    )
    return 0


def cmd_capacity(args):
    ch = _load_channel(args)
    c_before = cap.capacity_before(ch)
    rows = [("capacity_before_bits_per_s", c_before)]
    if args.sq is not None:
        sq = sp.read_psd_csv(args.sq)
        c_after = cap.capacity_after(ch, sq)
        loss_approx = cap.info_loss(ch.noise, sq)
        rows += [
            ("capacity_after_bits_per_s", c_after),
            ("info_loss_exact_bits_per_s", c_before - c_after),
            ("info_loss_small_noise_bits_per_s", loss_approx),
        ]
    width = max(len(name) for name, _ in rows)
    for name, value in rows:
        print(f"{name:<{width}}  {_fmt(value)}")
    if args.out is not None:
        os.makedirs(args.out, exist_ok=True)
        sh.write_summary(dict(rows), os.path.join(args.out, "summary.txt"))
    return 0


def cmd_partition(args):
    budget = cap.PowerBudget(args.power)
    ch = _load_channel(args)
    # shaped to its share of the budget, each band of a partition mode's plan
    # is the global optimum over its bins, so the bank's shape is the global one
    plan, result = mc._partition(ch.noise, budget, args.n, args.mode)

    os.makedirs(args.out, exist_ok=True)
    mc.write_plan_csv(plan, os.path.join(args.out, "plan.csv"))
    sh.write_shaping_csv(result, os.path.join(args.out, "shaping.csv"))
    marker = np.zeros(ch.grid.num_bins, dtype=int)
    marker[mc._snap_edges_to_bins(plan, ch.grid)[:-1]] = 1
    sp._write_csv(
        os.path.join(args.out, "plotdata.csv"),
        "frequency_hz,signal_db,noise_db,sq_db,band_edge_marker",
        [ch.grid.centers, sp.to_db(ch.signal.values), sp.to_db(ch.noise.values),
         sp.to_db(result.sq_opt.values), marker],
    )
    entries = {
        "mode": args.mode,
        "num_bands": plan.num_bands,
        "total_power": plan.total_power,
        "info_loss_total": cap.info_loss(ch.noise, result.sq_opt),
    }
    for i in range(plan.num_bands):
        entries[f"band{i}_power"] = float(plan.per_band_power[i])
        entries[f"band{i}_bandwidth_hz"] = float(plan.per_band_bandwidth[i])
    sh.write_summary(entries, os.path.join(args.out, "summary.txt"))
    return 0


def cmd_simulate(args):
    budget = cap.PowerBudget(args.power)
    ch = _load_channel(args)
    grid = ch.grid
    if abs(grid.f_lo) > 1e-12 * grid.width:
        raise ValueError("simulate requires a low-pass band starting at 0 Hz")

    params = _set_params(args, _MODULATOR_PARAMS)
    fs = 2.0 * params.get("osr", ds.ModulatorConfig.osr) * grid.f_hi
    modcfg = ds.ModulatorConfig(**params, sample_rate=fs)
    for flag, value in (("--fin-ratio", args.fin_ratio), ("--amplitude-dbfs", args.amplitude_dbfs)):
        if not math.isfinite(value):
            raise ValueError(f"{flag} must be finite, got {value}")
    if not 0.0 < args.fin_ratio < modcfg.osr:
        raise ValueError(f"--fin-ratio must lie in (0, --osr) = (0, {modcfg.osr}) so that "
                         f"the tone lies below fs/2, got {args.fin_ratio}")
    try:
        amp = modcfg.full_scale * 10.0 ** (args.amplitude_dbfs / 20.0)
    except OverflowError:
        amp = math.inf
    if not math.isfinite(amp):
        raise ValueError(f"--amplitude-dbfs {args.amplitude_dbfs} gives an input amplitude "
                         "beyond the float range")
    min_samples = ds._min_tracking_samples()
    if args.samples < min_samples:
        raise ValueError(f"--samples {args.samples} is too few: the tracking report needs "
                         f"at least {min_samples}")

    target = sh.optimal_sq(ch.noise, budget).sq_opt
    ntf = ds.design_ntf(target, modcfg)
    loop = ds.loop_from_ntf(ntf)

    npts = args.samples
    t = np.arange(npts) / fs
    f_in = args.fin_ratio * grid.f_hi
    x = amp * np.sin(2.0 * np.pi * f_in * t)
    trace = ds.simulate(loop, modcfg, x, seed=args.seed)

    design_fit = ds.ntf_quant_psd(ntf, modcfg, target.grid)
    design_rms_db = float(np.sqrt(np.mean(
        (sp.to_db(design_fit.values) - sp.to_db(target.values)) ** 2)))

    entries = {
        "sample_rate_hz": fs,
        "input_frequency_hz": f_in,
        "input_amplitude_dbfs": args.amplitude_dbfs,
        "stable": trace.stability_flag,
        "saturation_count": trace.saturation_count,
        "design_rms_db": design_rms_db,
    }
    if trace.stability_flag:
        report = ds.measured_vs_predicted(trace, ntf, modcfg, target)
        entries["measured_vs_predicted_rms_db"] = report.predicted_rms_db_error
        entries["measured_vs_target_rms_db"] = report.rms_db_error
        measured_db = sp.to_db(report.measured)
        predicted_db = sp.to_db(report.predicted)
    else:
        measured_db = np.full(target.grid.num_bins, sp.DB_FLOOR)
        predicted_db = sp.to_db(design_fit.values)

    os.makedirs(args.out, exist_ok=True)
    ds.write_tf(ntf, os.path.join(args.out, "ntf.txt"))
    sh.write_summary(entries, os.path.join(args.out, "summary.txt"))
    sp._write_csv(
        os.path.join(args.out, "plotdata.csv"),
        "frequency_hz,target_db,predicted_db,measured_db",
        [target.grid.centers, sp.to_db(target.values), predicted_db, measured_db],
    )
    if args.save_trace:
        ds.write_trace_csv(trace, os.path.join(args.out, "trace.csv"))
    return 0


_COMMANDS = {
    "shape": cmd_shape,
    "simulate": cmd_simulate,
    "partition": cmd_partition,
    "capacity": cmd_capacity,
}


def _add_common(p, power=True):
    p.add_argument("--channel", default="wireline",
                   help="wireline | wireless | file:PATH (channel CSV)")
    p.add_argument("--bins", type=int, default=argparse.SUPPRESS)
    p.add_argument("--flo", type=float, default=argparse.SUPPRESS, help="band lower edge, Hz")
    p.add_argument("--fhi", type=float, default=argparse.SUPPRESS, help="band upper edge, Hz")
    if power:
        p.add_argument("--power", type=float, default=None, help="normalized power budget")
    p.add_argument("--out", default=None, help="output directory")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--config", default=None, help="flat key=value config file")
    p.add_argument("--noise-floor", type=float, default=argparse.SUPPRESS, dest="noise_floor")
    p.add_argument("--noise-tilt", type=float, default=argparse.SUPPRESS, dest="noise_tilt")
    p.add_argument("--notches", type=int, default=argparse.SUPPRESS)
    p.add_argument("--notch-depth", type=float, default=argparse.SUPPRESS, dest="notch_depth")
    p.add_argument("--notch-width", type=float, default=argparse.SUPPRESS, dest="notch_width")


def build_parser():
    parser = argparse.ArgumentParser(prog="qnshape", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_shape = sub.add_parser("shape", help="optimal quantization PSD + numerical check")
    _add_common(p_shape)

    p_sim = sub.add_parser("simulate", help="design NTF for the target and simulate the loop")
    _add_common(p_sim)
    p_sim.add_argument("--order", type=int, default=argparse.SUPPRESS)
    p_sim.add_argument("--osr", type=float, default=argparse.SUPPRESS)
    p_sim.add_argument("--levels", type=int, default=argparse.SUPPRESS)
    p_sim.add_argument("--step", type=float, default=argparse.SUPPRESS)
    p_sim.add_argument("--max-ntf-gain", type=float, default=argparse.SUPPRESS,
                       dest="max_ntf_gain")
    p_sim.add_argument("--dither", action="store_true", default=argparse.SUPPRESS)
    p_sim.add_argument("--samples", type=int, default=262144)
    p_sim.add_argument("--fin-ratio", type=float, default=0.37, dest="fin_ratio",
                       help="input tone frequency as a fraction of the band edge, in (0, --osr)")
    p_sim.add_argument("--amplitude-dbfs", type=float, default=-6.0, dest="amplitude_dbfs")
    p_sim.add_argument("--save-trace", action="store_true", dest="save_trace")

    p_part = sub.add_parser("partition", help="plan a frequency-interleaved converter bank")
    _add_common(p_part)
    p_part.add_argument("--n", type=int, default=4)
    p_part.add_argument("--mode", default="equal-power",
                        choices=["equal-power", "equal-bandwidth", "integer-ratio"])

    p_cap = sub.add_parser("capacity", help="report information rates")
    _add_common(p_cap, power=False)
    p_cap.add_argument("--sq", default=None, help="quantization PSD CSV")

    return parser


_BOOLEANS = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}


def _apply_config_file(parser, args):
    """Make the config file's values the chosen subcommand's defaults.

    Parsing again then lets every command-line flag, abbreviated or not, win
    over the file, and applies each option's own type to the file's values.
    Keys of another subcommand's options are skipped.
    """
    if not os.path.isfile(args.config):
        raise ValueError(f"config file not found: {args.config}")
    subparsers = next(a for a in parser._actions if a.dest == "command").choices
    options = {a.dest: a for sub in subparsers.values() for a in sub._actions
               if a.option_strings and a.dest not in ("help", "config")}
    own = {a.dest for a in subparsers[args.command]._actions}
    defaults = {}
    with open(args.config, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, _, value = line.partition("=")
            key = key.strip().replace("-", "_")
            value = value.strip()
            if key not in options:
                raise ValueError(f"unknown config key {key!r}")
            # flags such as --dither take no value on the command line
            if options[key].nargs == 0:
                if value.lower() not in _BOOLEANS:
                    raise ValueError(f"config key {key!r} needs a boolean "
                                     f"(1/0, true/false, yes/no), got {value!r}")
                value = _BOOLEANS[value.lower()]
            if key in own:
                defaults[key] = value
    subparsers[args.command].set_defaults(**defaults)


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", UserWarning)
        try:
            args = parser.parse_args(argv)
            if args.config is not None:
                _apply_config_file(parser, args)
                args = parser.parse_args(argv)
            _validate(args)
            status = _COMMANDS[args.command](args)
        except (ValueError, ds.DesignInfeasibleError, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            status = 1
    # each distinct UserWarning once, as one line; other warnings as Python shows them
    for message in dict.fromkeys(str(w.message) for w in caught
                                 if issubclass(w.category, UserWarning)):
        print(f"warning: {message}", file=sys.stderr)
    for w in caught:
        if not issubclass(w.category, UserWarning):
            warnings.showwarning(w.message, w.category, w.filename, w.lineno)
    return status


if __name__ == "__main__":
    sys.exit(main())
