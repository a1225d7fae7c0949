"""Metric assembly: end-to-end metrics from untraced passes, per-layer
metrics from traced passes, and the environment record.

Per-layer time metrics are per-pass totals (median over traced passes)
unless named per call: ``import.qnshape_s``, ``cli.<command>_s`` and
``deltasigma.design_ntf_o<k>_s`` are the median of one import, one CLI
command and one design call (set-up included).  A layer that a workload
does not exercise reads 0 there.
"""

import os
import platform
import statistics

LAYER_NAMES = ("cli", "spectral", "capacity", "shaping", "deltasigma", "kernels", "multichannel")
CLI_COMMANDS = ("shape", "shape_file", "partition", "capacity", "simulate")
CSV_WRITERS = ("spectral.write_psd_csv", "spectral.write_channel_csv",
               "shaping.write_shaping_csv", "deltasigma.write_trace_csv",
               "multichannel.write_plan_csv", "cli.write_curves_csv")


def median(values):
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def mean(values):
    values = list(values)
    return float(statistics.fmean(values)) if values else 0.0


def pass_time(passes):
    """Wall time of one pass in seconds: the median over the run's passes."""
    return median(sum(p["ops"]) for p in passes)


def pass_ref(passes):
    """Cost of one pass in reference blocks: each operation's wall time
    divided by the mean of the reference block's times just before and just
    after it, summed over the pass; the median over the run's passes.

    On a shared 2-CPU x86-64 host whose speed swings by tens of percent from
    minute to minute, seconds per pass spread by 12-32% (interquartile range
    over median, ten runs of the same code) and this ratio by 4-7%: the
    block, timed on the same CPU around each operation, slows down with the
    operations.  Doubling the modulator kernel's work still raised the
    ratio by 30%."""
    return median(sum(t / (0.5 * (before + after))
                      for t, before, after in zip(p["ops"], p["ref"], p["ref"][1:]))
                  for p in passes)


def end_to_end(setup_s, passes, peak_rss_mb, attempted, failed):
    return {
        "setup_s": {"value": setup_s, "unit": "s"},
        "wall_ref": {"value": pass_ref(passes), "unit": "ref"},
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        "success_ratio": {"value": (attempted - failed) / attempted if attempted else 0.0,
                          "unit": "ratio"},
    }


def per_layer(traced, untraced, setup_summary, observed):
    """traced, untraced: passes (tracing.summarize/merge output plus
    "ops" operation times, "cli" command times and "bytes"); setup_summary:
    the traced set-up's summary; observed: Tally.observed quality figures."""
    events = setup_summary["events"] + [e for p in traced for e in p["events"]]

    def per_pass(fn):
        return median(fn(p) for p in traced)

    def total(*names):
        return per_pass(lambda p: sum(p["total"].get(n, 0.0) for n in names))

    def named(name, **match):
        return [e for e in events if e["name"] == name
                and all(e.get(k) == v for k, v in match.items())]

    def ir_total(n):
        return per_pass(lambda p: sum(e["dur"] for e in p["events"]
                                      if e["name"] == "multichannel.partition_constrained"
                                      and e.get("n") == n and e.get("mode") == "integer-ratio"))

    imports = named("import.qnshape")
    numerical = named("shaping.optimal_sq_numerical")
    sims = named("deltasigma.simulate")
    kernel_s = sum(e["dur"] for e in named("kernels.modulator_core"))
    samples = sum(e.get("samples", 0) for e in named("kernels.modulator_core"))
    m = {
        "import.qnshape_s": (median(e["dur"] for e in imports), "s"),
        "import.modules_loaded": (median(e.get("modules", 0) for e in imports), "count"),
    }
    for cmd in CLI_COMMANDS:
        m[f"cli.{cmd}_s"] = (per_pass(lambda p, c=cmd: p["cli"].get(c, 0.0)), "s")
    m["cli.bytes_written"] = (per_pass(lambda p: p["bytes"]), "count")
    m.update({
        "spectral.channel_gen_s": (total("spectral.wireline_channel", "spectral.wireless_channel"), "s"),
        "spectral.estimate_psd_s": (total("spectral.estimate_psd"), "s"),
        "spectral.read_csv_s": (total("spectral.read_channel_csv", "spectral.read_psd_csv"), "s"),
        "spectral.write_csv_s": (total(*CSV_WRITERS), "s"),
        "capacity.calls": (per_pass(lambda p: p["layer_calls"].get("capacity", 0)), "count"),
        "shaping.optimal_sq_s": (total("shaping.optimal_sq"), "s"),
        "shaping.numerical_s": (total("shaping.optimal_sq_numerical"), "s"),
        "shaping.numerical_iterations": (mean(e.get("iterations", 0) for e in numerical), "count"),
        "shaping.numerical_converged_ratio": (mean(float(e.get("converged", False)) for e in numerical), "ratio"),
        "shaping.numeric_gap_db": (max(observed.get("numeric_gap_db", [0.0])), "dB"),
        "shaping.verify_s": (total("shaping.verify_shaping"), "s"),
        "deltasigma.design_rms_db": (mean(observed.get("design_rms_db", [])), "dB"),
        "deltasigma.simulate_s": (total("deltasigma.simulate"), "s"),
        "deltasigma.saturations": (per_pass(lambda p: sum(e.get("saturations", 0) for e in p["events"]
                                                          if e["name"] == "deltasigma.simulate")),
                                   "count"),
        "deltasigma.stable_ratio": (mean(float(e.get("stable", False)) for e in sims), "ratio"),
        "deltasigma.tracking_s": (total("deltasigma.measured_vs_predicted"), "s"),
        "deltasigma.tracking_rms_db": (mean(observed.get("tracking_rms_db", [])), "dB"),
        "kernels.modulator_core_s": (total("kernels.modulator_core"), "s"),
        "kernels.ns_per_sample": (1e9 * kernel_s / samples if samples else 0.0, "ns"),
        "kernels.samples_per_s": (samples / kernel_s if kernel_s else 0.0, "1/s"),
        "multichannel.equal_power_s": (total("multichannel.partition_equal_power"), "s"),
        "multichannel.per_band_shaping_s": (total("multichannel.per_band_shaping"), "s"),
        "multichannel.integer_ratio_n5_s": (ir_total(5), "s"),
        "multichannel.integer_ratio_n6_s": (ir_total(6), "s"),
        "multichannel.integer_ratio_dev": (max(observed.get("integer_ratio_dev", [0.0])), "ratio"),
        "trace.overhead_s": (pass_time(traced) - pass_time(untraced), "s"),
        "trace.spans": (per_pass(lambda p: p["spans"]), "count"),
    })
    for order in (4, 5, 6):
        m[f"deltasigma.design_ntf_o{order}_s"] = (
            median(e["dur"] for e in named("deltasigma.design_ntf", order=order)), "s")
    for layer in LAYER_NAMES:
        m[f"{layer}.self_s"] = (per_pass(lambda p, l=layer: p["self"].get(l, 0.0)), "s")
    return {name: {"value": float(value), "unit": unit} for name, (value, unit) in sorted(m.items())}


def environment(git_commit, nproc, cpu):
    """Versions and kernel backend; results from different backends are
    not comparable.  Imports qnshape, so call it after measuring."""
    import numpy
    import scipy
    from qnshape import _kernels

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "have_numba": bool(_kernels.HAVE_NUMBA),
        "QNSHAPE_DISABLE_NUMBA": os.environ.get("QNSHAPE_DISABLE_NUMBA"),
        "nproc": nproc,
        "pinned_cpu": cpu,
        "git_commit": git_commit,
    }
