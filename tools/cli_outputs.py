#!/usr/bin/env python3
"""Write the CLI outputs of every shipped example.

    python3 tools/cli_outputs.py OUTDIR

Run from the repository root.  Builds bin/warpcc.exe, copies each
examples/*.w2 into OUTDIR/src, and for every example under a fixed
matrix of fault, speculation, budget, batching and processor flags
writes

    NAME/SET.simulate.txt   stdout of `simulate --metrics --gantt`
    NAME/SET.simulate.json  its --json timings
    NAME/SET.trace.json     its --trace span store
    NAME/SET.profile.txt    stdout of `profile --what-if`
    NAME/SET.profile.json   its --json profile

and, for `compile` at -O 2 and at -O 3 --verify-ir,

    NAME/compile-SET/compile.txt            its stdout
    NAME/compile-SET/MODULE.SECTION.wobj    the object files
    NAME/compile-SET/MODULE.SECTION.drv     and the I/O drivers

Every simulation is seeded, the compiler's output does not depend on
how many domains compiled it, and every path the CLI sees is relative
to OUTDIR, so two checkouts that compile and simulate alike write
identical trees: `diff -r` between the outputs of two commits is the
identity check for a change meant to move no compiled byte or
simulated-clock number.
A command that fails records its exit status and stderr instead, so a
failure is part of the diff too.  Exit status: 0 = written, 2 = usage
or build failure.
"""

import glob
import os
import shutil
import subprocess
import sys

# (set name, flags); each set runs under both simulate and profile.
FLAG_SETS = [
    ("default", []),
    ("p2-lpt-batch", ["--processors", "2", "--sched", "lpt+batch",
                      "--batch-threshold", "60"]),
    ("dag-lpt-static", ["--sched", "dag+lpt", "--static-cost"]),
    ("spec", ["--sched", "dag+spec"]),
    ("spec-budget1-p2", ["--sched", "dag+spec", "--spec-budget", "1",
                         "--processors", "2"]),
    ("faults-r1", ["--fault-seed", "9", "--fault-rate", "1.0",
                   "--retries", "1"]),
    ("faults-dag-p3", ["--sched", "dag", "--processors", "3",
                       "--fault-seed", "4", "--fault-rate", "0.5"]),
    ("faults-spec-r0", ["--sched", "dag+spec", "--spec-budget", "1",
                        "--fault-seed", "7", "--fault-rate", "1.0",
                        "--retries", "0"]),
]

# (set name, flags) of the `compile` runs.
COMPILE_SETS = [
    ("O2", ["-O", "2"]),
    ("O3-verify-ir", ["-O", "3", "--verify-ir"]),
]


def run(exe, args, cwd, stdout_path):
    proc = subprocess.run([exe] + args, cwd=cwd, capture_output=True,
                          text=True)
    with open(stdout_path, "w") as f:
        f.write(proc.stdout)
        if proc.returncode != 0:
            f.write(f"\n[exit {proc.returncode}]\n{proc.stderr}")


def main(argv):
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    out = os.path.abspath(argv[1])
    if subprocess.run(["dune", "build", "bin/warpcc.exe"]).returncode != 0:
        return 2
    exe = os.path.abspath("_build/default/bin/warpcc.exe")
    os.makedirs(os.path.join(out, "src"), exist_ok=True)
    for path in sorted(glob.glob("examples/*.w2")):
        name = os.path.splitext(os.path.basename(path))[0]
        src = os.path.join("src", name + ".w2")
        shutil.copyfile(path, os.path.join(out, src))
        os.makedirs(os.path.join(out, name), exist_ok=True)
        for set_name, flags in FLAG_SETS:
            base = os.path.join(name, set_name)
            run(exe, ["simulate", *flags, "--metrics", "--gantt",
                      "--json", base + ".simulate.json",
                      "--trace", base + ".trace.json", src],
                out, os.path.join(out, base + ".simulate.txt"))
            run(exe, ["profile", *flags, "--what-if",
                      "--json", base + ".profile.json", src],
                out, os.path.join(out, base + ".profile.txt"))
        for set_name, flags in COMPILE_SETS:
            obj_dir = os.path.join(name, "compile-" + set_name)
            os.makedirs(os.path.join(out, obj_dir), exist_ok=True)
            run(exe, ["compile", *flags, "-o", obj_dir, src],
                out, os.path.join(out, obj_dir, "compile.txt"))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
