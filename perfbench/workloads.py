"""The benchmark's workloads, each run in a process of its own.

    python3 perfbench/workloads.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/workloads.py --workload NAME --seed N --setup-only

run.py starts this with PYTHONPATH pointing at the checkout's ``src``.  The
last stdout line is a JSON object.  A pass runs the workload's fixed list of
operations once; passes repeat until ``--seconds`` have elapsed.  Each
operation is timed alone and checked after its timer stops.  A fixed
reference block, independent of qnshape, is timed before the first operation
and after each one, so every operation's time can be expressed in units of
the host's speed around it (report.pass_ref).  With ``--trace 1`` untraced
and traced passes alternate, so the tracing overhead is measured in one run.

Closed loop, one client: each operation starts after the previous one ends,
and CLI commands run one child process at a time.

numpy is imported only after qnshape, so the import measured in set-up is
the package's full cost in a fresh interpreter.
"""

import argparse
import contextlib
import json
import os
import resource
import shutil
import subprocess
import sys
import time
from dataclasses import replace

from tracing import Tracer, merge, summarize

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
WORK = os.path.join(HERE, "_work")
CLI_CHILD = os.path.join(HERE, "cli_child.py")
# what the installed `qnshape` console script runs
RUN_CLI = "import sys; from qnshape.cli import main; sys.exit(main())"
CHILD_TIMEOUT_S = 150

# fixture values of tests/conftest.py
WIRELINE_BUDGET = 2.0e12
WIRELESS_BUDGET = 5.0e12
DSM_BUDGET = 7.5e14
DSM_SAMPLE_RATE = 4.8e9
DSM_SEED = 3
MODULATE_SAMPLES = 2 ** 18
CLI_SAMPLES = 2 ** 15
REF_LOOPS = 120_000


def reference_block():
    """Time a fixed pure-Python float loop that calls nothing in qnshape
    (about 15 ms on a 2-CPU shared x86-64 host); returns seconds."""
    t0 = time.perf_counter()
    s = 0.0
    for i in range(REF_LOOPS):
        s += (i * 0.5) * 1.0001 - s * 1e-9
    return time.perf_counter() - t0


def run_op(tally, label, fn, check):
    """Time fn() alone, then check its result; returns the elapsed seconds."""
    t0 = time.perf_counter()
    try:
        result = fn()
    except Exception as exc:  # a failing operation is counted, not fatal
        tally.record(label, [f"raised {type(exc).__name__}: {exc}"])
        return time.perf_counter() - t0
    elapsed = time.perf_counter() - t0
    try:
        problems = check(result)
    except Exception as exc:  # an unreadable output fails its operation
        problems = [f"check raised {type(exc).__name__}: {exc}"]
    tally.record(label, problems)
    return elapsed


def jitter(rng, value, decades=0.05):
    """value scaled by a seeded factor within 10^(+-decades)."""
    return value * 10.0 ** rng.uniform(-decades, decades)


class InProcess:
    """Workload whose operations call the library in this process."""

    def load(self, tracer):
        span = tracer.span("import.qnshape") if tracer else contextlib.nullcontext({})
        with span as attrs:
            before = len(sys.modules)
            import qnshape
            attrs["modules"] = len(sys.modules) - before
        if not os.path.abspath(qnshape.__file__).startswith(SRC + os.sep):
            raise RuntimeError(f"qnshape imported from {qnshape.__file__}, not {SRC}")

    def run_pass(self, tally, tracer):
        if tracer:
            tracer.install()
        ops, refs = [], [reference_block()]
        try:
            for label, fn, check in self.ops():
                ops.append(run_op(tally, label, fn, check))
                refs.append(reference_block())
        finally:
            if tracer:
                tracer.uninstall()
        p = {"ops": ops, "ref": refs, "cli": {}, "bytes": 0}
        p.update(summarize(tracer.take() if tracer else []))
        return p

    @staticmethod
    def peak_rss_mb():
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def close(self):
        pass


def dsm_fixture():
    """The conftest delta-sigma channel, its shaped target and the order-4 config."""
    from qnshape import capacity as cap, deltasigma as ds, shaping as sh, spectral as sp

    grid = sp.make_grid(0.0, 2e8, 64)
    ch = sp.wireless_channel(grid, num_notches=1, notch_depth=12.0,
                             notch_width=0.3 * grid.width, noise_floor=-80.0, seed=DSM_SEED)
    target = sh.optimal_sq(ch.noise, cap.PowerBudget(DSM_BUDGET)).sq_opt
    cfg = ds.ModulatorConfig(order=4, osr=12.0, sample_rate=DSM_SAMPLE_RATE,
                             quantizer_levels=16, step=0.125, max_ntf_gain=1.5, dither=True)
    return target, cfg


def check_design(tally, target, cfg):
    """Correctness check of a design_ntf result against the target."""
    import checks

    def check(ntf):
        rms = checks.ntf_fit_rms_db(ntf.zeros, ntf.poles, ntf.gain, target.grid.centers,
                                    target.values, cfg.step, cfg.sample_rate)
        tally.observe("design_rms_db", rms)
        return checks.ntf_design(ntf.zeros, ntf.poles, ntf.gain, cfg.max_ntf_gain, rms)
    return check


class Modulate:
    """Four 2^18-sample modulator runs on the dsm fixture; NTFs designed in set-up."""

    def build(self, seed, tally):
        import numpy as np
        from qnshape import deltasigma as ds

        self.tally = tally
        self.target, cfg4 = dsm_fixture()
        self.runs = []
        rng = np.random.default_rng(seed)
        fin = rng.uniform(0.30, 0.42) * self.target.grid.f_hi
        t = np.arange(MODULATE_SAMPLES) / cfg4.sample_rate
        designs = {}
        for order in (4, 5):
            cfg = replace(cfg4, order=order)
            ntf = ds.design_ntf(self.target, cfg)
            tally.record(f"setup design o{order}", check_design(tally, self.target, cfg)(ntf))
            designs[order] = (ntf, ds.loop_from_ntf(ntf))
        for i, (order, dbfs, dither) in enumerate(((4, -20.0, True), (4, -6.0, True),
                                                   (5, -6.0, True), (4, -6.0, False))):
            cfg = replace(cfg4, order=order, dither=dither)
            amp = cfg.full_scale * 10.0 ** ((dbfs + rng.uniform(-0.5, 0.5)) / 20.0)
            x = amp * np.sin(2.0 * np.pi * fin * t + rng.uniform(0.0, 2.0 * np.pi))
            label = f"simulate o{order} {dbfs:g} dBFS {'dithered' if dither else 'undithered'}"
            self.runs.append((label, cfg, *designs[order], x, seed * 4 + i))

    def ops(self):
        import checks
        from qnshape import deltasigma as ds

        target = self.target
        for label, cfg, ntf, loop, x, sim_seed in self.runs:
            if cfg.dither:
                def fn(cfg=cfg, ntf=ntf, loop=loop, x=x, sim_seed=sim_seed):
                    trace = ds.simulate(loop, cfg, x, seed=sim_seed)
                    if not trace.stability_flag:
                        return trace, None
                    return trace, ds.measured_vs_predicted(trace, ntf, cfg, reference=target)

                def check(res):
                    trace, rep = res
                    if rep is not None:
                        self.tally.observe("tracking_rms_db", rep.rms_db_error)
                    return checks.dithered_run(trace.stability_flag,
                                               rep.rms_db_error if rep else float("nan"))
            else:
                def fn(cfg=cfg, loop=loop, x=x, sim_seed=sim_seed):
                    return ds.simulate(loop, cfg, x, seed=sim_seed)

                def check(trace, cfg=cfg):
                    return checks.undithered_run(trace.stability_flag, trace.output,
                                                 trace.quantizer_error, cfg.step,
                                                 cfg.quantizer_levels)
            yield label, fn, check


class Solve:
    """Solver work on the conftest fixtures: NTF design, partition search,
    numerical shaping, equal-power planning and verification."""

    def build(self, seed, tally):
        import numpy as np
        from qnshape import shaping as sh, spectral as sp

        self.tally = tally
        rng = np.random.default_rng(seed)
        wireline = sp.wireline_channel(sp.make_grid(0.0, 1e8, 256), signal_level_0=0.0, signal_slope=0.0,
                                       noise_floor=-90.0, noise_tilt=50.0)
        wireless = sp.wireless_channel(sp.make_grid(0.0, 2e8, 256), num_notches=3,
                                       notch_depth=30.0, noise_floor=-80.0, seed=20)
        self.fixtures = {"wireline": (wireline, jitter(rng, WIRELINE_BUDGET)),
                         "wireless": (wireless, jitter(rng, WIRELESS_BUDGET))}
        self.search = sh.SearchConfig(seed=seed)
        self.target, cfg4 = dsm_fixture()
        self.designs = [replace(cfg4, order=order) for order in (4, 5, 6)]
        self.oracles = {}

    def _integer_ratio_oracle(self, n):
        import checks

        if n not in self.oracles:
            ch, p = self.fixtures["wireline"]
            self.oracles[n] = checks.integer_ratio_oracle(ch.noise.values, ch.grid.f_lo,
                                                          ch.grid.f_hi, p, n)
        return self.oracles[n]

    def ops(self):
        import checks
        import numpy as np
        from qnshape import capacity as cap, deltasigma as ds, multichannel as mc, shaping as sh

        tally = self.tally

        for cfg in self.designs:
            yield (f"design_ntf o{cfg.order}", lambda cfg=cfg: ds.design_ntf(self.target, cfg),
                   check_design(tally, self.target, cfg))

        ch, p = self.fixtures["wireline"]
        for n in (5, 6):
            def check_ir(plan, n=n):
                edges, dev = self._integer_ratio_oracle(n)
                tally.observe("integer_ratio_dev", dev)
                return (checks.integer_ratio_plan(plan.edges, edges)
                        + checks.power_residual(plan.total_power / p - 1.0))
            yield (f"partition integer-ratio n={n}",
                   lambda n=n: mc.partition_constrained(ch.noise, cap.PowerBudget(p), n,
                                                        mode="integer-ratio"),
                   check_ir)

        for name, (fch, fp) in self.fixtures.items():
            closed = checks.closed_form_sq(fch.noise.values, fch.grid.delta, fp)

            def check_numeric(res, fch=fch, fp=fp, closed=closed):
                gap = float(np.max(np.abs(10.0 * np.log10(res.sq_opt.values / closed))))
                tally.observe("numeric_gap_db", gap)
                return (checks.numerical_shaping(res.converged, gap)
                        + checks.power_residual(
                            checks.power_of_sq(res.sq_opt.values, fch.grid.delta) / fp - 1.0))
            yield (f"optimal_sq_numerical {name}",
                   lambda fch=fch, fp=fp: sh.optimal_sq_numerical(fch, cap.PowerBudget(fp),
                                                                 self.search),
                   check_numeric)

        def equal_power():
            plan = mc.partition_equal_power(ch.noise, cap.PowerBudget(p), 4)
            return plan, mc.per_band_shaping(ch.noise, plan)

        def check_equal_power(res):
            plan, results = res
            concat = np.concatenate([r.sq_opt.values for r in results])
            closed = checks.closed_form_sq(ch.noise.values, ch.grid.delta, p)
            return checks.equal_power_plan(plan.per_band_power, concat, closed)
        yield "partition equal-power n=4 + per_band_shaping", equal_power, check_equal_power

        for name, (fch, fp) in self.fixtures.items():
            def shape_and_verify(fch=fch, fp=fp):
                res = sh.optimal_sq(fch.noise, cap.PowerBudget(fp))
                return res, sh.verify_shaping(fch, res.sq_opt, cap.PowerBudget(fp))

            def check_verify(res, fch=fch, fp=fp):
                shaped, report = res
                closed = checks.closed_form_sq(fch.noise.values, fch.grid.delta, fp)
                problems = checks.power_residual(report.power_residual)
                if not np.allclose(shaped.sq_opt.values, closed, rtol=1e-12, atol=0.0):
                    problems.append("closed-form shape differs from the reference")
                return problems
            yield f"optimal_sq + verify_shaping {name}", shape_and_verify, check_verify


class Compute(InProcess):
    """The modulator runs, then the solver work, in one pass.  They share
    one workload so that each run can be long enough to be steady on a
    shared host; the traced run separates their layers."""

    def build(self, seed, tally):
        self.parts = [Modulate(), Solve()]
        for part in self.parts:
            part.build(seed, tally)

    def ops(self):
        for part in self.parts:
            yield from part.ops()


def dir_bytes(path):
    return sum(e.stat().st_size for e in os.scandir(path) if e.is_file()) if os.path.isdir(path) else 0


class CliFlow:
    """Fresh-process `qnshape` commands at README sizes on generated inputs."""

    work = None

    def load(self, tracer):
        pass

    def build(self, seed, tally):
        import numpy as np

        import checks

        os.makedirs(WORK, exist_ok=True)
        self.work = os.path.join(WORK, f"cli-flow-{os.getpid()}")
        shutil.rmtree(self.work, ignore_errors=True)
        os.makedirs(self.work)
        rng = np.random.default_rng(seed)
        self.p_wireline = jitter(rng, WIRELINE_BUDGET)
        self.p_wireless = jitter(rng, WIRELESS_BUDGET)

        # wireless-style channel file: flat signal, noise floor with three
        # raised-cosine bumps at seeded positions
        bins, f_hi = 256, 2e8
        self.delta = f_hi / bins
        freqs = (np.arange(bins) + 0.5) * self.delta
        noise_db = np.full(bins, -80.0)
        for i in range(3):
            centre = (i + 0.5 + rng.uniform(-0.2, 0.2)) * f_hi / 3
            u = (freqs - centre) / (f_hi / 12)
            noise_db += 30.0 * np.where(np.abs(u) < 1.0, 0.5 * (1.0 + np.cos(np.pi * u)), 0.0)
        self.file_signal = np.ones(bins)
        self.file_noise = 10.0 ** (noise_db / 10.0)
        self.file_sq = checks.closed_form_sq(self.file_noise, self.delta, self.p_wireless)
        self.channel_csv = os.path.join(self.work, "channel.csv")
        self.sq_csv = os.path.join(self.work, "sq.csv")
        with open(self.channel_csv, "w", encoding="utf-8") as fh:
            fh.write("frequency_hz,signal_psd,noise_psd\n")
            fh.writelines(f"{f!r},{s!r},{v!r}\n"
                          for f, s, v in zip(freqs.tolist(), self.file_signal.tolist(),
                                             self.file_noise.tolist()))
        with open(self.sq_csv, "w", encoding="utf-8") as fh:
            fh.write("frequency_hz,psd\n")
            fh.writelines(f"{f!r},{v!r}\n" for f, v in zip(freqs.tolist(), self.file_sq.tolist()))
        config = os.path.join(self.work, "partition.cfg")
        with open(config, "w", encoding="utf-8") as fh:
            fh.write(f"channel=wireline\nbins=256\npower={self.p_wireline!r}\nn=4\nseed={seed}\n")

        fin = rng.uniform(0.30, 0.42)
        dbfs = -6.0 + rng.uniform(-1.0, 1.0)
        out = os.path.join(self.work, "out")
        self.commands = [
            ("shape", ["shape", "--channel", "wireline", "--bins", "256",
                       "--power", repr(self.p_wireline), "--seed", str(seed),
                       "--out", os.path.join(out, "shape")], self.check_shape_wireline),
            ("shape_file", ["shape", "--channel", f"file:{self.channel_csv}",
                            "--power", repr(self.p_wireless), "--seed", str(seed),
                            "--out", os.path.join(out, "shape_file")], self.check_shape_file),
            ("partition", ["partition", "--config", config,
                           "--out", os.path.join(out, "partition")], self.check_partition),
            ("capacity", ["capacity", "--channel", f"file:{self.channel_csv}", "--sq", self.sq_csv,
                          "--out", os.path.join(out, "capacity")], self.check_capacity),
            ("simulate", ["simulate", "--channel", "wireless", "--bins", "64", "--fhi", "2e8",
                          "--notches", "1", "--notch-depth", "12", "--notch-width", "6e7",
                          "--power", repr(DSM_BUDGET), "--order", "4", "--osr", "12", "--dither",
                          "--samples", str(CLI_SAMPLES), "--save-trace", "--seed", str(DSM_SEED),
                          "--fin-ratio", repr(fin), "--amplitude-dbfs", repr(dbfs),
                          "--out", os.path.join(out, "simulate")], self.check_simulate),
        ]
        # warm-up: one untimed command (capacity, the cheapest), so the file
        # cache holds the interpreter's and the package's files
        _, warm_argv, _ = self.commands[3]
        os.makedirs(warm_argv[-1], exist_ok=True)
        self._child(warm_argv, None)

    def _child(self, argv, spans_path):
        if spans_path:
            cmd = [sys.executable, CLI_CHILD, spans_path, *argv]
        else:
            cmd = [sys.executable, "-c", RUN_CLI, *argv]
        return subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)

    def run_pass(self, tally, tracer):
        p = {"ops": [], "ref": [reference_block()], "cli": {}, "bytes": 0}
        summaries = []
        for label, argv, check in self.commands:
            out = argv[-1]
            shutil.rmtree(out, ignore_errors=True)
            os.makedirs(out)
            spans_path = os.path.join(self.work, f"spans-{label}.json") if tracer else None

            def check_proc(proc, check=check, out=out):
                if proc.returncode != 0:
                    return [f"exit code {proc.returncode}: {proc.stderr.strip()[-300:]}"]
                return check(out, proc.stdout)
            elapsed = run_op(tally, f"cli {label}", lambda: self._child(argv, spans_path), check_proc)
            p["ref"].append(reference_block())
            p["ops"].append(elapsed)
            p["cli"][label] = elapsed
            p["bytes"] += dir_bytes(out)
            if spans_path and os.path.isfile(spans_path):
                with open(spans_path, encoding="utf-8") as fh:
                    summaries.append(summarize(json.load(fh)))
                os.remove(spans_path)
        p.update(merge(summaries))
        return p

    # --- output checks: every file parses and its summary passes the checks

    def _check_shape(self, out, sv, delta, p):
        import checks
        import numpy as np

        summary = checks.read_summary(os.path.join(out, "summary.txt"))
        shaping = checks.read_csv(os.path.join(out, "shaping.csv"), "frequency_hz,sq_opt,bits")
        plot = checks.read_csv(os.path.join(out, "plotdata.csv"),
                               "frequency_hz,signal_db,noise_db,sq_analytic_db,sq_numeric_db")
        if shaping.shape != (sv.size, 3) or plot.shape != (sv.size, 5):
            return [f"expected {sv.size} rows in shaping.csv and plotdata.csv"]
        problems = checks.power_residual(float(summary["power_residual"]))
        problems += checks.power_residual(checks.power_of_sq(shaping[:, 1], delta) / p - 1.0)
        if not np.allclose(shaping[:, 1], checks.closed_form_sq(sv, delta, p), rtol=1e-9, atol=0.0):
            problems.append("shaping.csv differs from the closed-form reference")
        gap = float(np.max(np.abs(plot[:, 4] - plot[:, 3])))
        self.tally.observe("numeric_gap_db", gap)
        return problems + checks.numerical_shaping(summary["numeric_converged"] == "true", gap)

    @staticmethod
    def wireline_noise():
        """Noise PSD of the CLI's default wireline channel, 256 bins."""
        import numpy as np

        frac = (np.arange(256) + 0.5) / 256
        return 10.0 ** ((-90.0 + 50.0 * frac) / 10.0)

    def check_shape_wireline(self, out, stdout):
        return self._check_shape(out, self.wireline_noise(), 1e8 / 256, self.p_wireline)

    def check_shape_file(self, out, stdout):
        return self._check_shape(out, self.file_noise, self.delta, self.p_wireless)

    def check_partition(self, out, stdout):
        import checks

        plan = checks.read_csv(os.path.join(out, "plan.csv"),
                               "band_index,f_lo_hz,f_hi_hz,power,bandwidth_hz")
        shaping = checks.read_csv(os.path.join(out, "shaping.csv"), "frequency_hz,sq_opt,bits")
        checks.read_csv(os.path.join(out, "plotdata.csv"),
                        "frequency_hz,signal_db,noise_db,sq_db,band_edge_marker")
        summary = checks.read_summary(os.path.join(out, "summary.txt"))
        problems = [] if summary.get("num_bands") == "4" and plan.shape[0] == 4 else ["expected 4 bands"]
        closed = checks.closed_form_sq(self.wireline_noise(), 1e8 / 256, self.p_wireline)
        return problems + checks.equal_power_plan(plan[:, 3], shaping[:, 1], closed)

    def check_capacity(self, out, stdout):
        import checks
        import numpy as np

        summary = checks.read_summary(os.path.join(out, "summary.txt"))
        s, v, q = self.file_signal, self.file_noise, self.file_sq
        before = self.delta * float(np.sum(np.log1p(s / v))) / np.log(2.0)
        after = self.delta * float(np.sum(np.log1p(s / (v + q)))) / np.log(2.0)
        problems = [] if len(stdout.strip().splitlines()) == 4 else ["expected 4 printed rows"]
        for key, ref in (("capacity_before_bits_per_s", before), ("capacity_after_bits_per_s", after)):
            got = float(summary[key])
            if not abs(got - ref) <= 1e-9 * abs(ref):
                problems.append(f"{key} {got!r} differs from the reference {ref!r}")
        exact = float(summary["info_loss_exact_bits_per_s"])
        bound = float(summary["info_loss_small_noise_bits_per_s"])
        if not 0.0 < exact <= bound * (1.0 + 1e-9):
            problems.append("exact information loss is not within (0, small-noise bound]")
        return problems

    def check_simulate(self, out, stdout):
        import checks
        import numpy as np

        summary = checks.read_summary(os.path.join(out, "summary.txt"))
        stable = summary["stable"] == "true"
        zeros, poles, gain = checks.read_tf_file(os.path.join(out, "ntf.txt"))
        design_rms = float(summary["design_rms_db"])
        self.tally.observe("design_rms_db", design_rms)
        problems = checks.ntf_design(zeros, poles, gain, 1.5, design_rms)
        tracking = float(summary.get("measured_vs_target_rms_db", "nan"))
        if stable:
            self.tally.observe("tracking_rms_db", tracking)
        problems += checks.dithered_run(stable, tracking)
        plot = checks.read_csv(os.path.join(out, "plotdata.csv"),
                               "frequency_hz,target_db,predicted_db,measured_db")
        trace = checks.read_csv(os.path.join(out, "trace.csv"), "n,input,output,qerror")
        if plot.shape[0] != 64 or trace.shape != (CLI_SAMPLES, 4):
            problems.append("unexpected row counts in plotdata.csv or trace.csv")
        elif (int(summary["saturation_count"]) == 0
              and np.max(np.abs(trace[:, 3])) > 0.5 * 0.125 * (1 + 1e-12)):
            problems.append("|q| exceeds step/2 (the CLI's default step) without saturation")
        return problems

    @staticmethod
    def peak_rss_mb():
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0

    def close(self):
        if self.work:
            shutil.rmtree(self.work, ignore_errors=True)


WORKLOADS = {"cli-flow": CliFlow, "compute": Compute}


def measure(name, seed, seconds, trace, setup_only):
    wl = WORKLOADS[name]()
    tracer = Tracer() if trace else None
    t0 = time.perf_counter()
    wl.load(tracer)
    import checks

    tally = wl.tally = checks.Tally()
    try:
        if tracer:
            tracer.install()
        try:
            wl.build(seed, tally)
        finally:
            if tracer:
                tracer.uninstall()
        setup_s = time.perf_counter() - t0
        setup_summary = summarize(tracer.take() if tracer else [])
        if setup_only:
            return {"setup_s": setup_s}
        untraced, traced = [], []
        deadline = time.perf_counter() + seconds
        while True:
            traced_pass = bool(trace) and len(untraced) > len(traced)
            t_pass = time.perf_counter()
            p = wl.run_pass(tally, tracer if traced_pass else None)
            (traced if traced_pass else untraced).append(p)
            now = time.perf_counter()
            # stop when the next pass would end more than half a pass late,
            # so a run lasts about --seconds whatever the pass length
            if now + (now - t_pass) / 2 >= deadline and (traced or not trace):
                break
    finally:
        wl.close()

    import report

    if trace:
        metrics = report.per_layer(traced, untraced, setup_summary, tally.observed)
    else:
        metrics = report.end_to_end(setup_s, untraced, wl.peak_rss_mb(),
                                    tally.attempted, tally.failed)
    return {"setup_s": setup_s, "attempted": tally.attempted, "failed": tally.failed,
            "problems": tally.problems, "passes": [len(untraced), len(traced)],
            "wall_s": report.pass_time(untraced),
            "ref_block_s": report.median(r for p in untraced for r in p["ref"]),
            "metrics": metrics}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--git-commit", default=None)
    args = ap.parse_args()
    # One CPU for the operations, the CLI children (which inherit it) and
    # the reference block, so that the block times the CPU the operations
    # run on: the shared host's CPUs slow down independently of each other.
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    result = measure(args.workload, args.seed, args.seconds, args.trace, args.setup_only)
    if not args.setup_only:
        import report

        result["env"] = report.environment(args.git_commit, len(cpus), min(cpus))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
