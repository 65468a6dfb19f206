#!/usr/bin/env python3
"""Allocation gate: runs one command under the alloc_count shim and compares
its allocation calls and live-heap high-water mark with a committed baseline.

    alloc_gate.py --baseline FILE --shim LIB --compiler "ID VERSION"
                  --build-type TYPE [--record] -- COMMAND [ARG...]

Both counts repeat exactly for one binary, glibc and input, so the gate
fails (exit 1) when either is more than 1% above the baseline; lower passes.
A baseline recorded with another compiler, build type or glibc counts a
different binary's allocations, so the gate then exits 77, which ctest
reports as a skip, and says what differs. --record rewrites the baseline
from this run instead, for a change that moves the counts on purpose.
"""

import argparse
import json
import os
import re
import subprocess
import sys
from pathlib import Path

TOLERANCE = 0.01
SKIP = 77
GATED = ("calls", "peak_live_bytes")


def toolchain(args):
    return {
        "compiler": args.compiler,
        "build_type": args.build_type,
        "glibc": os.confstr("CS_GNU_LIBC_VERSION") or "unknown",
    }


def run_counted(shim, command):
    env = dict(os.environ, LD_PRELOAD=shim)
    proc = subprocess.run(command, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True, check=False)
    if proc.returncode != 0:
        sys.exit(f"alloc_gate: command exited {proc.returncode}:\n"
                 f"{proc.stderr}")
    line = re.search(r"^alloc_count: (.*)$", proc.stderr, re.MULTILINE)
    if line is None:
        sys.exit("alloc_gate: no alloc_count line on stderr; "
                 "is the shim preloaded?")
    return {key: int(value) for key, value in
            (field.split("=") for field in line.group(1).split())}


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--baseline", required=True, type=Path)
    parser.add_argument("--shim", required=True)
    parser.add_argument("--compiler", required=True)
    parser.add_argument("--build-type", required=True)
    parser.add_argument("--record", action="store_true")
    parser.add_argument("command", nargs="+")
    args = parser.parse_args()
    # The command as it reads from any build tree: the binary's file name.
    command = " ".join([Path(args.command[0]).name] + args.command[1:])
    here = toolchain(args)

    if args.record:
        counts = run_counted(args.shim, args.command)
        baseline = {"command": command, "toolchain": here}
        baseline.update({key: counts[key] for key in GATED})
        args.baseline.write_text(json.dumps(baseline, indent=2) + "\n",
                                 encoding="utf-8")
        print(f"alloc_gate: recorded {args.baseline}")
        return 0

    baseline = json.loads(args.baseline.read_text(encoding="utf-8"))
    if baseline["toolchain"] != here:
        print(f"alloc_gate: skipped: the baseline was recorded with "
              f"{baseline['toolchain']}, this build is {here}")
        return SKIP
    if baseline["command"] != command:
        print(f"alloc_gate: the baseline counts `{baseline['command']}`, "
              f"not `{command}`: record it again")
        return 1
    counts = run_counted(args.shim, args.command)
    failed = False
    for key in GATED:
        change = counts[key] / baseline[key] - 1.0
        over = change > TOLERANCE
        failed |= over
        print(f"alloc_gate: {key} {counts[key]} against {baseline[key]} "
              f"({change:+.2%}, limit +{TOLERANCE:.0%})"
              f"{'  FAIL' if over else ''}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
