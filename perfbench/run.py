#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The arguments go to the `perfbench` binary unchanged; see README.md.
Cargo builds into $CARGO_TARGET_DIR when it is set, else perfbench/target.
A failed build exits with cargo's code and prints no result.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def build():
    """Build both binaries offline; return the path of `perfbench`."""
    cmd = [
        "cargo", "build", "--release", "--offline", "--bins",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"),
        "--message-format=json-render-diagnostics",
    ]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=None, text=True)
    exe = None
    for line in proc.stdout.splitlines():
        try:
            msg = json.loads(line)
        except ValueError:
            continue
        if msg.get("reason") == "compiler-artifact" and msg.get("target", {}).get("name") == "perfbench":
            exe = msg.get("executable") or exe
    if proc.returncode != 0 or exe is None:
        sys.stderr.write("perfbench: build failed\n")
        sys.exit(proc.returncode or 1)
    return exe


def main():
    exe = build()
    sys.stdout.flush()
    sys.exit(subprocess.run([exe] + sys.argv[1:]).returncode)


if __name__ == "__main__":
    main()
