#!/usr/bin/env python3
"""Build the program and the benchmark harness, then run one workload.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The first run in a checkout compiles ``src/main/scala`` together with
``perfbench/src`` through the standalone sbt build in ``perfbench/`` and
caches the class path under ``.bench_build/perfbench``; later runs start the
JVM directly. The last line of standard output is the result JSON.
"""

import argparse
import hashlib
import os
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PROGRAM_SRC = os.path.join(ROOT, "src", "main", "scala")
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


def source_digest():
    """Hash of every source and build file the benchmark is built from."""
    h = hashlib.sha256()
    roots = [PROGRAM_SRC, os.path.join(HERE, "src")]
    files = [os.path.join(HERE, "build.sbt"), os.path.join(HERE, "project", "build.properties")]
    for r in roots:
        for d, dirs, names in os.walk(r):
            dirs.sort()
            files += [os.path.join(d, n) for n in sorted(names)]
    for f in files:
        h.update(os.path.relpath(f, ROOT).encode())
        with open(f, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def build(out_dir, digest):
    """Compile once per source digest; returns the runtime class path."""
    stamp = os.path.join(out_dir, "build.stamp")
    cp_file = os.path.join(out_dir, "classpath.txt")
    if os.path.exists(stamp) and os.path.exists(cp_file):
        with open(stamp) as fh:
            if fh.read().strip() == digest:
                with open(cp_file) as fh:
                    return fh.read().strip()
    log("building (sbt compile)")
    env = dict(os.environ)
    env.setdefault("COURSIER_MODE", "offline")
    env.setdefault("SBT_OPTS", "-Dsbt.override.build.repos=true -Dsbt.offline=true -Xmx2g")
    t0 = time.time()
    proc = subprocess.run(
        ["sbt", "--batch", "-Dsbt.log.noformat=true", "compile", "export Runtime/fullClasspath"],
        cwd=HERE, env=env, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, text=True,
        timeout=800)
    lines = [l for l in proc.stdout.splitlines() if l and not l.startswith("[")]
    sys.stderr.write("".join(l + "\n" for l in proc.stdout.splitlines() if l.startswith("[")))
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"perfbench: build failed (exit {proc.returncode})")
    classpath = lines[-1].strip()
    with open(cp_file, "w") as fh:
        fh.write(classpath + "\n")
    with open(stamp, "w") as fh:
        fh.write(digest + "\n")
    log(f"built in {time.time() - t0:.1f}s")
    return classpath


def git_sha():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 else ""
    except (OSError, subprocess.SubprocessError):
        return ""


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    args = ap.parse_args()

    if not os.path.isdir(PROGRAM_SRC):
        raise SystemExit("perfbench: program sources (src/main/scala) not found; "
                         "run from the root of a full checkout")

    out_dir = os.path.join(os.getcwd(), ".bench_build", "perfbench")
    tmp_dir = os.path.join(out_dir, "tmp")
    os.makedirs(tmp_dir, exist_ok=True)
    digest = source_digest()
    classpath = build(out_dir, digest)

    java = os.path.join(os.environ["JAVA_HOME"], "bin", "java") if "JAVA_HOME" in os.environ else "java"
    cmd = [java, "-Xmx2g", "-XX:+UseParallelGC", "-XX:TieredStopAtLevel=1",
           f"-Djava.io.tmpdir={tmp_dir}",
           f"-Dperfbench.source={git_sha() or 'sha256:' + digest[:16]}",
           "-cp", classpath, "perfbench.Main",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace, "--out", out_dir]
    proc = subprocess.Popen(cmd, stdin=subprocess.DEVNULL, start_new_session=True)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise SystemExit(f"perfbench: run exceeded {RUN_TIMEOUT_S}s")
    except KeyboardInterrupt:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    sys.exit(code)


if __name__ == "__main__":
    main()
