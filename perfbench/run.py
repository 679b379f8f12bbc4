#!/usr/bin/env python3
"""Benchmark launcher.

Builds the benchmark (sbt, once per source state) and runs one workload in
fresh JVMs (`FORKS`), pooling their samples:

    python3 perfbench/run.py --workload aol-local --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout. Build outputs, Spark scratch space and
span logs go to `.bench_build/perfbench/` under that root. `--smoke` runs a
tiny input for the benchmark's own tests. The last line of standard output
is the result JSON.
"""
import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".bench_build", "perfbench")
BUILD_TIMEOUT_S = 600
RUN_TIMEOUT_S = 170
# JVMs per run. The code the JIT compiler generates differs from one JVM to
# the next: on the same input, MinHash embedding ran at 0.26 s in some JVMs and
# 0.33 s in others. Pooling the samples of two JVMs halves that spread on
# the local workload. Spark runs are too long to fork, and showed no such
# modes.
FORKS = {"aol-local": 2, "aol-spark": 1}
# JVM options Spark needs on Java 17 (as spark-submit passes them).
JAVA_OPENS = [
    "--add-opens=java.base/" + p + "=ALL-UNNAMED"
    for p in ("java.lang", "java.lang.invoke", "java.lang.reflect", "java.io", "java.net", "java.nio",
              "java.util", "java.util.concurrent", "java.util.concurrent.atomic", "jdk.internal.ref",
              "sun.nio.ch", "sun.nio.cs", "sun.security.action", "sun.util.calendar")
]


def log(msg):
    print("[perfbench] " + msg, file=sys.stderr, flush=True)


def source_hash():
    """Hash of every file the build reads, so a changed source rebuilds."""
    h = hashlib.sha256()
    for top in ("build.sbt", "project", "src", "jobs", "perfbench"):
        base = os.path.join(ROOT, top)
        files = [base] if os.path.isfile(base) else []
        for d, dirs, names in os.walk(base):
            dirs[:] = sorted(x for x in dirs
                             if x not in ("target", ".bsp") and not (x == "project" and d.endswith("project")))
            files += [os.path.join(d, x) for x in sorted(names)]
        for f in files:
            if f.endswith((".scala", ".java", ".sbt", ".properties")):
                h.update(os.path.relpath(f, ROOT).encode())
                with open(f, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()[:16]


def source_id(stamp):
    """Git commit of the checkout when it is a git repository, plus the source hash."""
    sha = ""
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, stdout=subprocess.PIPE,
                                 stderr=subprocess.DEVNULL, text=True, timeout=10).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return "git %s, sources %s" % (sha or "unknown", stamp)


def build(stamp):
    """Compile the repository and the benchmark; return the runtime classpath."""
    cp_file = os.path.join(OUT, "classpath.txt")
    stamp_file = os.path.join(OUT, "stamp.txt")
    if os.path.exists(cp_file) and os.path.exists(stamp_file):
        with open(stamp_file) as f:
            if f.read().strip() == stamp:
                with open(cp_file) as g:
                    return g.read().strip()
    log("building with sbt")
    # Offline: every dependency must already be in the local caches.
    cmd = ["sbt", "--batch", "-Dsbt.offline=true", "-Dsbt.log.noformat=true", "-Dsbt.server.autostart=false",
           "export Runtime/fullClasspath"]
    env = dict(os.environ, COURSIER_MODE="offline")
    proc = subprocess.run(cmd, cwd=HERE, env=env, stdout=subprocess.PIPE, stderr=sys.stderr,
                          timeout=BUILD_TIMEOUT_S, text=True)
    lines = [x for x in proc.stdout.splitlines() if x.strip()]
    sys.stderr.write("\n".join(lines[:-1]) + "\n")
    if proc.returncode != 0 or not lines or lines[-1].startswith("["):
        raise SystemExit("build failed")
    classpath = lines[-1].strip()
    with open(cp_file, "w") as f:
        f.write(classpath)
    with open(stamp_file, "w") as f:
        f.write(stamp)
    return classpath


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(FORKS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny input, one set-up round")
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "build.sbt")) or not os.path.isdir(os.path.join(ROOT, "src", "main")):
        log("no repository sources next to the benchmark; run it from the root of a full checkout")
        return 2

    os.makedirs(os.path.join(OUT, "tmp"), exist_ok=True)
    stamp = source_hash()
    classpath = build(stamp)

    deadline = time.monotonic() + RUN_TIMEOUT_S
    forks = FORKS[args.workload]
    merged = {}
    attempted = failed = 0
    for fork in range(forks):
        cmd = ["java", "-Xms3g", "-Xmx3g", "-XX:+UseParallelGC",
               "-Djava.io.tmpdir=" + os.path.join(OUT, "tmp"),
               "-Dlog4j2.configurationFile=" + os.path.join(HERE, "log4j2.properties"),
               "-Dspark.driver.host=127.0.0.1", "-Dspark.ui.enabled=false",
               *JAVA_OPENS, "-cp", classpath, "repro.perfbench.Main",
               "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds / forks),
               "--trace", str(args.trace), "--work-dir", OUT, "--source-id", source_id(stamp)]
        if args.smoke:
            cmd.append("--smoke")
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        try:
            out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            log("run exceeded %d s" % RUN_TIMEOUT_S)
            return 1
        lines = out.rstrip("\n").splitlines()
        if proc.returncode != 0 or not lines or not lines[-1].startswith("{"):
            sys.stderr.write(out)
            log("benchmark JVM failed with exit code %d" % proc.returncode)
            return 1
        print("fork %d of %d" % (fork + 1, forks))
        print("\n".join(lines[:-1]))
        part = json.loads(lines[-1])
        attempted += part["attempted"]
        failed += part["failed"]
        for name, m in part["samples"].items():
            merged.setdefault(name, {"unit": m["unit"], "values": []})["values"].extend(m["values"])

    metrics = {}
    for name, m in merged.items():
        v = sorted(m["values"])
        metrics[name] = {"value": statistics.median(v), "unit": m["unit"]}
        print("%-28s median %14.6f  min %14.6f  max %14.6f  n=%d %s"
              % (name, metrics[name]["value"], v[0], v[-1], len(v), m["unit"]))
    print("error_rate %.6f (%d failed of %d calls)" % (failed / attempted if attempted else 0.0, failed, attempted))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
