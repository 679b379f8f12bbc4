#!/usr/bin/env python3
"""Smoke test of the benchmark itself, on tiny inputs.

    python3 perfbench/smoke_test.py

For every workload and both trace modes it runs `run.py --smoke` and checks
the result line against BENCHMARK.json: the exact top-level keys, every
metric present with its declared unit, a correct run, and no failed call. It
also checks that the benchmark exits non-zero without a result in a directory
that holds only BENCHMARK.json and the benchmark's files.
"""
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(cwd, workload, trace):
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"), "--workload", workload,
           "--seed", "3", "--seconds", "1", "--trace", str(trace), "--smoke"]
    return subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=900)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    problems = []
    for wl in spec["workloads"]:
        for trace, declared in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            p = run(ROOT, wl["name"], trace)
            tag = "%s trace=%d" % (wl["name"], trace)
            lines = p.stdout.strip().splitlines()
            if p.returncode != 0 or not lines:
                problems.append("%s: exit %d\n%s" % (tag, p.returncode, p.stderr[-3000:]))
                continue
            res = json.loads(lines[-1])
            if sorted(res) != ["attempted", "correct", "failed", "metrics"]:
                problems.append("%s: result keys %s" % (tag, sorted(res)))
            if res.get("correct") is not True or res.get("failed") != 0 or res.get("attempted", 0) < 1:
                problems.append("%s: correct=%s failed=%s attempted=%s"
                                % (tag, res.get("correct"), res.get("failed"), res.get("attempted")))
            metrics = res.get("metrics", {})
            want = {m["name"]: m["unit"] for m in declared}
            if set(metrics) != set(want):
                problems.append("%s: missing %s, extra %s"
                                % (tag, sorted(set(want) - set(metrics)), sorted(set(metrics) - set(want))))
            for name, m in metrics.items():
                if name in want and (m.get("unit") != want[name] or not isinstance(m.get("value"), (int, float))):
                    problems.append("%s: metric %s = %s" % (tag, name, m))
            print("ok" if not problems else "FAIL", tag, flush=True)

    bare = os.path.join(ROOT, ".bench_build", "perfbench", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    for path in spec["paths"]:
        shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path),
                        ignore=shutil.ignore_patterns("target", "__pycache__"))
    p = run(bare, spec["workloads"][0]["name"], 0)
    if p.returncode == 0 or p.stdout.strip().startswith("{") or '"metrics"' in p.stdout:
        problems.append("bare directory: exit %d, stdout %r" % (p.returncode, p.stdout[-300:]))
    shutil.rmtree(bare, ignore_errors=True)

    for msg in problems:
        print("FAIL " + msg)
    print("smoke test %s" % ("passed" if not problems else "FAILED"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
