"""Run a fixed set of qnshape CLI commands and print a fingerprint of each.

The set is the README's shape, partition and simulate examples, then
simulate --save-trace on the README's wireless channel at orders 4, 5 and 6
with and without --dither, on a 2-level quantizer with step 1.0 (the
modulator diverges) and at +6 dBFS (it saturates).  Each command runs in a
fresh process, with its --out in a temporary directory.  Each line names the
command, then gives its exit code, the sha256 of its stdout and stderr (the
temporary directory's path replaced by OUT) and the sha256 of every file it
wrote, so that a diff of two runs shows whether two versions of the package
give byte-identical CLI output.  A simulate run's summary.txt hash is
followed by its measured_vs_* tracking entries as written, so the diff also
shows how far a tracking number moved.  Run from the repository root:

    PYTHONPATH=src python3 tools/cli_matrix.py > matrix.txt
"""

import hashlib
import os
import subprocess
import sys
import tempfile


def commands():
    """(name, argv) for each command of the matrix."""
    wireline = ["--channel", "wireline", "--bins", "256", "--power", "2e12"]
    wireless = ["--channel", "wireless", "--bins", "64", "--fhi", "2e8", "--notches", "1",
                "--notch-depth", "12", "--notch-width", "6e7", "--power", "7.5e14"]
    runs = [
        ("shape", ["shape", *wireline]),
        ("partition", ["partition", *wireline, "--n", "4"]),
        ("simulate", ["simulate", *wireless, "--order", "4", "--osr", "12", "--dither"]),
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


def fingerprint(argv):
    """Exit code, stdout and stderr hashes, and per-file hashes of one run."""
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "out")
        proc = subprocess.run([sys.executable, "-m", "qnshape.cli", *argv, "--out", out],
                              capture_output=True, check=False)
        fields = [f"exit={proc.returncode}"]
        for name, data in (("stdout", proc.stdout), ("stderr", proc.stderr)):
            fields.append(f"{name}={_sha(data.replace(out.encode(), b'OUT'))}")
        for fname in sorted(os.listdir(out)) if os.path.isdir(out) else []:
            with open(os.path.join(out, fname), "rb") as fh:
                data = fh.read()
            fields.append(f"{fname}={_sha(data)}")
            if fname == "summary.txt":
                fields += [line for line in data.decode().splitlines()
                           if line.startswith("measured_vs_")]
    return " ".join(fields)


def main():
    for name, argv in commands():
        print(f"{name} {fingerprint(argv)}", flush=True)


if __name__ == "__main__":
    main()
