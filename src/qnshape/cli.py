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
from dataclasses import dataclass, fields

import numpy as np

from . import capacity as cap
from . import deltasigma as ds
from . import multichannel as mc
from . import shaping as sh
from . import spectral as sp
from .spectral import _fmt

@dataclass
class RunConfig:
    """Resolved options for one CLI run."""

    command: str
    channel: str = "wireline"
    bins: int = 256
    flo: float = 0.0
    fhi: float = 1e8
    power: float | None = None
    out: str | None = None
    seed: int = 0
    noise_floor: float = -90.0
    noise_tilt: float = 50.0
    notches: int = 3
    notch_depth: float = 30.0
    notch_width: float | None = None
    order: int = 4
    osr: float = 12.0
    levels: int = 16
    step: float = 0.125
    max_ntf_gain: float = 1.5
    dither: bool = False
    samples: int = 262144
    fin_ratio: float = 0.37
    amplitude_dbfs: float = -6.0
    n: int = 4
    mode: str = "equal-power"
    sq: str | None = None
    save_trace: bool = False

    def validate(self):
        if self.channel.startswith("file:"):
            path = self.channel[5:]
            if not os.path.isfile(path):
                raise ValueError(f"channel file not found: {path}")
        elif self.channel not in ("wireline", "wireless"):
            raise ValueError(f"unknown channel {self.channel!r}")
        if self.sq is not None and not os.path.isfile(self.sq):
            raise ValueError(f"quantization PSD file not found: {self.sq}")
        # the directory itself is made only once a command has its results
        if self.out is not None and os.path.exists(self.out) and not (
                os.path.isdir(self.out) and os.access(self.out, os.W_OK)):
            raise ValueError(f"output directory not writable: {self.out}")


def _load_channel(cfg):
    if cfg.channel.startswith("file:"):
        return sp.read_channel_csv(cfg.channel[5:])
    grid = sp.make_grid(cfg.flo, cfg.fhi, cfg.bins)
    if cfg.channel == "wireline":
        return sp.wireline_channel(grid, noise_floor=cfg.noise_floor,
                                   noise_tilt=cfg.noise_tilt)
    return sp.wireless_channel(grid, num_notches=cfg.notches,
                               notch_depth=cfg.notch_depth,
                               notch_width=cfg.notch_width,
                               noise_floor=cfg.noise_floor, seed=cfg.seed)


def _need_power(cfg):
    if cfg.power is None or cfg.power <= 0:
        raise ValueError("a positive --power budget is required")
    return cap.PowerBudget(cfg.power)


def _need_out(cfg):
    if cfg.out is None:
        raise ValueError("--out DIR is required for this command")
    return cfg.out


def _write_curves_csv(path, header, columns):
    cols = [np.asarray(c) for c in columns]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        for row in zip(*cols):
            fh.write(",".join(_fmt(v) if isinstance(v, (float, np.floating)) else str(v)
                              for v in row) + "\n")


def cmd_shape(cfg):
    out = _need_out(cfg)
    ch = _load_channel(cfg)
    budget = _need_power(cfg)

    import warnings
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        analytic = sh.optimal_sq(ch.noise, budget)
    numeric = sh.optimal_sq_numerical(ch, budget)
    report = sh.verify_shaping(ch, analytic.sq_opt, budget)
    gap_db = sp.to_db(numeric.sq_opt.values) - sp.to_db(analytic.sq_opt.values)

    os.makedirs(out, exist_ok=True)
    sh.write_shaping_csv(analytic, os.path.join(out, "shaping.csv"))
    sh.write_summary(
        {
            "power_budget": budget.p,
            "power_residual": report.power_residual,
            "info_loss": report.info_loss,
            "loss_vs_closed_form": report.loss_vs_closed_form,
            "max_sq_over_noise": report.max_sq_over_noise,
            "max_noise_over_signal": report.max_noise_over_signal,
            "min_bits": report.min_bits,
            "lagrange_scale": analytic.lagrange_scale,
            "numeric_info_loss": numeric.info_loss,
            "numeric_converged": numeric.converged,
            "numeric_max_gap_db": float(np.max(np.abs(gap_db))),
        },
        os.path.join(out, "summary.txt"),
    )
    _write_curves_csv(
        os.path.join(out, "plotdata.csv"),
        "frequency_hz,signal_db,noise_db,sq_analytic_db,sq_numeric_db",
        [ch.grid.centers, sp.to_db(ch.signal.values), sp.to_db(ch.noise.values),
         sp.to_db(analytic.sq_opt.values), sp.to_db(numeric.sq_opt.values)],
    )
    return 0


def cmd_capacity(cfg):
    ch = _load_channel(cfg)
    c_before = cap.capacity_before(ch)
    rows = [("capacity_before_bits_per_s", c_before)]
    if cfg.sq is not None:
        sq = sp.read_psd_csv(cfg.sq)
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
    if cfg.out is not None:
        os.makedirs(cfg.out, exist_ok=True)
        sh.write_summary(dict(rows), os.path.join(cfg.out, "summary.txt"))
    return 0


def cmd_partition(cfg):
    out = _need_out(cfg)
    ch = _load_channel(cfg)
    budget = _need_power(cfg)

    if cfg.mode == "equal-power":
        plan = mc.partition_equal_power(ch.noise, budget, cfg.n)
    else:
        plan = mc.partition_constrained(ch.noise, budget, cfg.n, mode=cfg.mode)
    results = mc.per_band_shaping(ch.noise, plan)

    os.makedirs(out, exist_ok=True)
    mc.write_plan_csv(plan, os.path.join(out, "plan.csv"))
    with open(os.path.join(out, "shaping.csv"), "w", encoding="utf-8") as fh:
        fh.write("frequency_hz,sq_opt,bits\n")
        for res in results:
            for f, s, b in zip(res.sq_opt.grid.centers, res.sq_opt.values,
                               res.bit_profile.bits):
                fh.write(f"{_fmt(f)},{_fmt(s)},{_fmt(b)}\n")

    freqs = np.concatenate([r.sq_opt.grid.centers for r in results])
    sq_all = np.concatenate([r.sq_opt.values for r in results])
    marker = np.zeros(freqs.size, dtype=int)
    pos = 0
    for r in results:
        marker[pos] = 1
        pos += r.sq_opt.grid.num_bins
    sig_db = np.interp(freqs, ch.grid.centers, sp.to_db(ch.signal.values))
    noi_db = np.interp(freqs, ch.grid.centers, sp.to_db(ch.noise.values))
    _write_curves_csv(
        os.path.join(out, "plotdata.csv"),
        "frequency_hz,signal_db,noise_db,sq_db,band_edge_marker",
        [freqs, sig_db, noi_db, sp.to_db(sq_all), marker],
    )
    entries = {
        "mode": cfg.mode,
        "num_bands": plan.num_bands,
        "total_power": plan.total_power,
        "info_loss_total": float(sum(r.info_loss for r in results)),
    }
    for i in range(plan.num_bands):
        entries[f"band{i}_power"] = float(plan.per_band_power[i])
        entries[f"band{i}_bandwidth_hz"] = float(plan.per_band_bandwidth[i])
    sh.write_summary(entries, os.path.join(out, "summary.txt"))
    return 0


def cmd_simulate(cfg):
    out = _need_out(cfg)
    ch = _load_channel(cfg)
    budget = _need_power(cfg)
    grid = ch.grid
    if abs(grid.f_lo) > 1e-12 * grid.width:
        raise ValueError("simulate requires a low-pass band starting at 0 Hz")

    fs = 2.0 * cfg.osr * grid.f_hi
    modcfg = ds.ModulatorConfig(
        order=cfg.order, osr=cfg.osr, sample_rate=fs,
        quantizer_levels=cfg.levels, step=cfg.step,
        max_ntf_gain=cfg.max_ntf_gain, dither=cfg.dither,
    )
    for flag, value in (("--fin-ratio", cfg.fin_ratio), ("--amplitude-dbfs", cfg.amplitude_dbfs)):
        if not math.isfinite(value):
            raise ValueError(f"{flag} must be finite, got {value}")
    try:
        amp = modcfg.full_scale * 10.0 ** (cfg.amplitude_dbfs / 20.0)
    except OverflowError:
        amp = math.inf
    if not math.isfinite(amp):
        raise ValueError(f"--amplitude-dbfs {cfg.amplitude_dbfs} gives an input amplitude "
                         "beyond the float range")
    min_samples = ds._min_tracking_samples()
    if cfg.samples < min_samples:
        raise ValueError(f"--samples {cfg.samples} is too few: the tracking report needs "
                         f"at least {min_samples}")

    import warnings
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        target = sh.optimal_sq(ch.noise, budget).sq_opt
    ntf = ds.design_ntf(target, modcfg)
    loop = ds.loop_from_ntf(ntf)

    npts = cfg.samples
    t = np.arange(npts) / fs
    f_in = cfg.fin_ratio * grid.f_hi
    x = amp * np.sin(2.0 * np.pi * f_in * t)
    trace = ds.simulate(loop, modcfg, x, seed=cfg.seed)

    design_fit = ds.ntf_quant_psd(ntf, modcfg, target.grid)
    design_rms_db = float(np.sqrt(np.mean(
        (sp.to_db(design_fit.values) - sp.to_db(target.values)) ** 2)))

    entries = {
        "sample_rate_hz": fs,
        "input_frequency_hz": f_in,
        "input_amplitude_dbfs": cfg.amplitude_dbfs,
        "stable": trace.stability_flag,
        "saturation_count": trace.saturation_count,
        "design_rms_db": design_rms_db,
    }
    if trace.stability_flag:
        rep_pred = ds.measured_vs_predicted(trace, ntf, modcfg, inband_grid=target.grid)
        rep_target = ds.measured_vs_predicted(trace, ntf, modcfg, reference=target)
        entries["measured_vs_predicted_rms_db"] = rep_pred.rms_db_error
        entries["measured_vs_target_rms_db"] = rep_target.rms_db_error
        measured_db = sp.to_db(rep_target.measured)
        predicted_db = sp.to_db(rep_pred.predicted)
    else:
        measured_db = np.full(target.grid.num_bins, sp.DB_FLOOR)
        predicted_db = sp.to_db(design_fit.values)

    os.makedirs(out, exist_ok=True)
    ds.write_tf(ntf, os.path.join(out, "ntf.txt"))
    sh.write_summary(entries, os.path.join(out, "summary.txt"))
    _write_curves_csv(
        os.path.join(out, "plotdata.csv"),
        "frequency_hz,target_db,predicted_db,measured_db",
        [target.grid.centers, sp.to_db(target.values), predicted_db, measured_db],
    )
    if cfg.save_trace:
        ds.write_trace_csv(trace, os.path.join(out, "trace.csv"))
    return 0


_COMMANDS = {
    "shape": cmd_shape,
    "simulate": cmd_simulate,
    "partition": cmd_partition,
    "capacity": cmd_capacity,
}


def _add_common(p):
    p.add_argument("--channel", default="wireline",
                   help="wireline | wireless | file:PATH (channel CSV)")
    p.add_argument("--bins", type=int, default=256)
    p.add_argument("--flo", type=float, default=0.0, help="band lower edge, Hz")
    p.add_argument("--fhi", type=float, default=1e8, help="band upper edge, Hz")
    p.add_argument("--power", type=float, default=None, help="normalized power budget")
    p.add_argument("--out", default=None, help="output directory")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--config", default=None, help="flat key=value config file")
    p.add_argument("--noise-floor", type=float, default=None, dest="noise_floor")
    p.add_argument("--noise-tilt", type=float, default=None, dest="noise_tilt")
    p.add_argument("--notches", type=int, default=None)
    p.add_argument("--notch-depth", type=float, default=None, dest="notch_depth")
    p.add_argument("--notch-width", type=float, default=None, dest="notch_width")


def build_parser():
    parser = argparse.ArgumentParser(prog="qnshape", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_shape = sub.add_parser("shape", help="optimal quantization PSD + numerical check")
    _add_common(p_shape)

    p_sim = sub.add_parser("simulate", help="design NTF for the target and simulate the loop")
    _add_common(p_sim)
    p_sim.add_argument("--order", type=int, default=4)
    p_sim.add_argument("--osr", type=float, default=12.0)
    p_sim.add_argument("--levels", type=int, default=16)
    p_sim.add_argument("--step", type=float, default=0.125)
    p_sim.add_argument("--max-ntf-gain", type=float, default=1.5, dest="max_ntf_gain")
    p_sim.add_argument("--dither", action="store_true")
    p_sim.add_argument("--samples", type=int, default=262144)
    p_sim.add_argument("--fin-ratio", type=float, default=0.37, dest="fin_ratio",
                       help="input tone frequency as a fraction of the band edge")
    p_sim.add_argument("--amplitude-dbfs", type=float, default=-6.0, dest="amplitude_dbfs")
    p_sim.add_argument("--save-trace", action="store_true", dest="save_trace")

    p_part = sub.add_parser("partition", help="plan a frequency-interleaved converter bank")
    _add_common(p_part)
    p_part.add_argument("--n", type=int, default=4)
    p_part.add_argument("--mode", default="equal-power",
                        choices=["equal-power", "equal-bandwidth", "integer-ratio"])

    p_cap = sub.add_parser("capacity", help="report information rates")
    _add_common(p_cap)
    p_cap.add_argument("--sq", default=None, help="quantization PSD CSV")

    return parser


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
            if key in own:
                # flags such as --dither take no value on the command line
                is_flag = options[key].nargs == 0
                defaults[key] = value.lower() in ("1", "true", "yes") if is_flag else value
    subparsers[args.command].set_defaults(**defaults)


def _run_config_from_args(args):
    names = {f.name for f in fields(RunConfig)}
    kwargs = {}
    for name in names:
        if name == "command":
            continue
        if hasattr(args, name) and getattr(args, name) is not None:
            kwargs[name] = getattr(args, name)
    cfg = RunConfig(command=args.command, **kwargs)
    # generator defaults differ per channel family
    if cfg.channel == "wireless":
        if getattr(args, "noise_floor", None) is None:
            cfg.noise_floor = -80.0
    cfg.validate()
    return cfg


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.config is not None:
            _apply_config_file(parser, args)
            args = parser.parse_args(argv)
        cfg = _run_config_from_args(args)
        return _COMMANDS[cfg.command](cfg)
    except (ValueError, ds.DesignInfeasibleError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
