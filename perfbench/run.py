#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload lookup-graph --seed 1 --seconds 20 --trace 0

Builds perfbench/bench.exe with dune (the first run builds the library
too), runs it with the given arguments and passes its standard output
through; the last line is the result object. Exits non-zero when the
build fails, the run fails or times out, or the result is not correct.
"""

import os
import signal
import subprocess
import sys

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
EXE = os.path.join("_build", "default", "perfbench", "bench.exe")


def run(cmd, timeout, env=None, capture=False):
    """Run cmd in its own process group; kill the whole group on timeout
    or when this script is terminated, and wait for it to end."""
    proc = subprocess.Popen(
        cmd,
        stdout=subprocess.PIPE if capture else sys.stderr,
        env=env,
        start_new_session=True,
    )

    def stop(signum, _frame):
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        sys.stderr.write("perfbench: %s timed out after %ds\n" % (cmd[0], timeout))
        sys.exit(3)
    finally:
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
        signal.signal(signal.SIGINT, signal.SIG_DFL)
    return proc.returncode, out


def main():
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "dune-project")) or not os.path.isdir(
        os.path.join(root, "lib")
    ):
        sys.stderr.write("perfbench: run from the root of the repository checkout\n")
        sys.exit(2)
    code, _ = run(
        ["dune", "build", "--root", ".", "--profile", "release", "./perfbench/bench.exe"],
        BUILD_TIMEOUT_S,
    )
    if code != 0 or not os.path.isfile(EXE):
        sys.stderr.write("perfbench: build failed\n")
        sys.exit(2)
    out_dir = os.path.join(root, ".perfbench")
    os.makedirs(out_dir, exist_ok=True)
    env = dict(os.environ)
    # bench.exe writes trace artifacts here, and Runtime_events its ring
    # buffer file (removed at exit)
    env["OCAML_RUNTIME_EVENTS_DIR"] = out_dir
    env.pop("OCAML_RUNTIME_EVENTS_PRESERVE", None)
    code, out = run([EXE] + sys.argv[1:], RUN_TIMEOUT_S, env, True)
    sys.stdout.write(out.decode())
    sys.stdout.flush()
    sys.exit(code)


if __name__ == "__main__":
    main()
