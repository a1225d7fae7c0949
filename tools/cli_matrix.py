"""Run a fixed set of qnshape CLI commands and print a fingerprint of each.

The set is the README's shape, partition and simulate examples; partition
in integer-ratio mode with 6 bands and in equal-bandwidth mode with 4 bands
and with 6 (edges inside bins, unequal declared powers); partition and
shape at a budget outside the small-noise regime, on the default wireline
channel and with its noise tilt reversed, so that stderr holds each run's
one warning; the command forms that the benchmark's cli-flow workload runs
on input files (shape and capacity --sq on a channel file, partition
--config); shape on that channel file with --bins, --flo and --fhi, which
it refuses; the README's simulate again at 5461 samples, the fewest the
tracking report takes, at --bins 256, whose comparison bins are narrower
than the report's Welch bins, with --step 1e200 and 1e-160, which it
refuses, and at +12 dBFS, where the modulator diverges; then simulate
--save-trace on the README's wireless channel at orders 4, 5 and 6 with and
without --dither, on a 2-level quantizer with step 1.0 (the modulator
diverges) and at +6 dBFS (it saturates).  The channel, quantization PSD and
config files are written from fixed text that this script computes itself,
not by qnshape's writers, so the inputs do not depend on the package under
test.  Each command runs in a fresh process, with its --out in a temporary
directory.  Each line names the command, then gives its exit code, the
sha256 of its stdout and stderr (the temporary directories' paths replaced
by OUT and IN) and the sha256 of every file it wrote, so that a diff of two
runs shows whether two versions of the package give byte-identical CLI
output.  Every partition row writes the shaping.csv of a shape row with the
same channel and budget, so their hashes must match.  A simulate run's
summary.txt hash is followed by its measured_vs_* tracking entries as
written, and a shape run's by its loss_vs_closed_form entry, so the diff
also shows how far such a number moved.  Run from the repository root:

    PYTHONPATH=src python3 tools/cli_matrix.py > matrix.txt
"""

import hashlib
import math
import os
import subprocess
import sys
import tempfile


def write_inputs(folder):
    """Write channel.csv, sq.csv and partition.cfg into folder and return
    their paths.  The channel has 256 bins to 2e8 Hz, a flat unit signal and
    a -80 dB noise floor with three 30 dB raised-cosine bumps; the
    quantization PSD is 1e-2 * noise^(2/3) * min(noise)^(1/3), at most a
    hundredth of the noise; the config is a wireline partition into 4 bands."""
    bins, f_hi = 256, 2e8
    delta = f_hi / bins
    freqs = [(k + 0.5) * delta for k in range(bins)]
    noise = []
    for f in freqs:
        db = -80.0
        for i in range(3):
            u = (f - (i + 0.5) * f_hi / 3) / (f_hi / 12)
            if abs(u) < 1.0:
                db += 30.0 * 0.5 * (1.0 + math.cos(math.pi * u))
        noise.append(10.0 ** (db / 10.0))
    floor = min(noise) ** (1.0 / 3.0)
    paths = [os.path.join(folder, name) for name in ("channel.csv", "sq.csv", "partition.cfg")]
    with open(paths[0], "w", encoding="utf-8") as fh:
        fh.write("frequency_hz,signal_psd,noise_psd\n")
        fh.writelines(f"{f!r},1.0,{v!r}\n" for f, v in zip(freqs, noise))
    with open(paths[1], "w", encoding="utf-8") as fh:
        fh.write("frequency_hz,psd\n")
        fh.writelines(f"{f!r},{1e-2 * v ** (2.0 / 3.0) * floor!r}\n" for f, v in zip(freqs, noise))
    with open(paths[2], "w", encoding="utf-8") as fh:
        fh.write("channel=wireline\nbins=256\npower=2e12\nn=4\nseed=7\n")
    return paths


def commands(channel_csv, sq_csv, config):
    """(name, argv) for each command of the matrix, given the input files."""
    wireline = ["--channel", "wireline", "--bins", "256", "--power", "2e12"]
    out_of_regime = ["--channel", "wireline", "--bins", "256", "--power", "1e9"]
    wireless = ["--channel", "wireless", "--bins", "64", "--fhi", "2e8", "--notches", "1",
                "--notch-depth", "12", "--notch-width", "6e7", "--power", "7.5e14"]
    runs = [
        ("shape", ["shape", *wireline]),
        ("partition", ["partition", *wireline, "--n", "4"]),
        ("partition-integer-ratio-n6", ["partition", *wireline, "--mode", "integer-ratio",
                                        "--n", "6"]),
        ("partition-equal-bandwidth", ["partition", *wireline, "--mode", "equal-bandwidth"]),
        ("partition-equal-bandwidth-n6", ["partition", *wireline, "--mode", "equal-bandwidth",
                                          "--n", "6"]),
        ("partition-out-of-regime", ["partition", *out_of_regime, "--n", "4"]),
        ("partition-out-of-regime-tilted", ["partition", *out_of_regime, "--n", "4",
                                            "--noise-tilt", "-50"]),
        ("shape-out-of-regime", ["shape", *out_of_regime]),
        ("shape-out-of-regime-tilted", ["shape", *out_of_regime, "--noise-tilt", "-50"]),
        ("shape-file", ["shape", "--channel", f"file:{channel_csv}", "--power", "5e12"]),
        # a file: channel takes its grid from the file, so grid flags are refused
        ("shape-file-grid-flag", ["shape", "--channel", f"file:{channel_csv}", "--power", "5e12",
                                  "--bins", "999", "--flo", "3", "--fhi", "5"]),
        ("capacity-file-sq", ["capacity", "--channel", f"file:{channel_csv}", "--sq", sq_csv]),
        ("partition-config", ["partition", "--config", config]),
        ("simulate", ["simulate", *wireless, "--order", "4", "--osr", "12", "--dither"]),
        # the fewest samples the tracking report takes
        ("simulate-min-samples", ["simulate", *wireless, "--order", "4", "--osr", "12",
                                  "--dither", "--samples", "5461"]),
        # 781 kHz comparison bins against 1.17 MHz Welch bins, so some hold none;
        # the later --bins wins
        ("simulate-bins256", ["simulate", *wireless, "--bins", "256", "--order", "4",
                              "--osr", "12", "--dither"]),
        # a step whose noise density step^2/(12*fs) overflows, or underflows, at the
        # run's sample rate: the error names that rate
        ("simulate-step-1e200", ["simulate", *wireless, "--order", "4", "--osr", "12",
                                 "--dither", "--step", "1e200"]),
        ("simulate-step-1e-160", ["simulate", *wireless, "--order", "4", "--osr", "12",
                                  "--dither", "--step", "1e-160"]),
        # +12 dBFS drives the quantizer input past 10x full scale: stable=false
        ("simulate-unstable", ["simulate", *wireless, "--order", "4", "--osr", "12",
                               "--amplitude-dbfs", "12"]),
    ]
    trace = ["simulate", *wireless, "--save-trace"]
    for order in (4, 5, 6):
        runs.append((f"trace-o{order}", [*trace, "--order", str(order)]))
        runs.append((f"trace-o{order}-dither", [*trace, "--order", str(order), "--dither"]))
    runs.append(("trace-levels2", [*trace, "--levels", "2", "--step", "1.0"]))
    runs.append(("trace-plus6dbfs", [*trace, "--amplitude-dbfs", "6"]))
    return runs


def _sha(data):
    return hashlib.sha256(data).hexdigest()


def fingerprint(argv, inputs):
    """Exit code, stdout and stderr hashes, and per-file hashes of one run;
    inputs is the folder that holds the input files."""
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "out")
        proc = subprocess.run([sys.executable, "-m", "qnshape.cli", *argv, "--out", out],
                              capture_output=True, check=False)
        fields = [f"exit={proc.returncode}"]
        for name, data in (("stdout", proc.stdout), ("stderr", proc.stderr)):
            data = data.replace(out.encode(), b"OUT").replace(inputs.encode(), b"IN")
            fields.append(f"{name}={_sha(data)}")
        for fname in sorted(os.listdir(out)) if os.path.isdir(out) else []:
            with open(os.path.join(out, fname), "rb") as fh:
                data = fh.read()
            fields.append(f"{fname}={_sha(data)}")
            if fname == "summary.txt":
                fields += [line for line in data.decode().splitlines()
                           if line.startswith(("measured_vs_", "loss_vs_closed_form="))]
    return " ".join(fields)


def main():
    with tempfile.TemporaryDirectory() as inputs:
        for name, argv in commands(*write_inputs(inputs)):
            print(f"{name} {fingerprint(argv, inputs)}", flush=True)


if __name__ == "__main__":
    main()
