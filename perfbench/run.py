#!/usr/bin/env python3
"""Runs one workload of the repository benchmark (see BENCHMARK.json).

    python3 perfbench/run.py --workload prune_cold --seed 1 --seconds 8 --trace 0

Run from the repository root. Builds `wootz_cli` (the daemon, with the
root project's own flags) and the `wootz_perfbench` driver into
$CARGO_TARGET_DIR (default `.bench_build`), then runs the driver, which
starts `wootz_cli serve` on a loopback port with a fresh state directory,
drives the workload, checks every output and prints the result object
as the last line. `--trace 1` reports the per-layer metrics instead and
writes Chrome trace-event files next to the per-run details under
`<build dir>/runs/`.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Everything one run may take once built; the driver's own phases are
# far shorter, this only bounds a hung daemon.
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    """Configures (once) and builds both binaries; returns their paths."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no wootz sources next to perfbench/ (expected src/CMakeLists.txt)")
    log_path = os.path.join(build_dir, "perfbench-build.log")
    os.makedirs(build_dir, exist_ok=True)
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", build_dir, "-j", jobs, "--target",
                  "wootz_cli", "wootz_perfbench"])
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT).returncode:
                with open(log_path) as written:
                    sys.stderr.write("".join(written.readlines()[-40:]))
                fail("build failed (full log: %s)" % log_path)
    return (os.path.join(build_dir, "wootz", "examples", "wootz_cli"),
            os.path.join(build_dir, "wootz_perfbench"))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["prune_cold", "prune_warm", "predict"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=8)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    cli, driver = build(build_dir)
    work_dir = os.path.join(build_dir, "runs")

    command = [driver, "--cli", cli, "--workdir", work_dir,
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    # Own process group: the daemon the driver forks is stopped with it
    # whatever happens.
    process = subprocess.Popen(command, start_new_session=True)
    try:
        code = process.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        code = None
    try:
        os.killpg(process.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    if code is None:
        process.wait()
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    # Daemon state is only needed during the run.
    for name in os.listdir(work_dir) if os.path.isdir(work_dir) else []:
        if name.startswith("state-") or name == "replay_blocks":
            shutil.rmtree(os.path.join(work_dir, name), ignore_errors=True)
    sys.exit(code)


if __name__ == "__main__":
    main()
