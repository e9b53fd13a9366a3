#!/usr/bin/env python3
"""Builds sesp_perfbench from source and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

sesp_perfbench is compiled from perfbench/ and the repository's src/ into
.bench_build/perfbench (the first run builds; later runs only relink what
changed). Build output goes to stderr, so the last line of stdout is the
benchmark's JSON result. --selftest runs every workload of BENCHMARK.json at a
tiny size, checks that each declared metric is printed with its unit, and
checks that a planted wrong expectation fails the correctness gate.
"""

import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "sesp_perfbench")
JOBS = max(1, min(4, os.cpu_count() or 1))


def log(message):
    print("perfbench: " + message, file=sys.stderr, flush=True)


def build():
    configure = ["cmake", "-S", HERE, "-B", BUILD,
                 "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
    if shutil.which("ninja") and not os.path.exists(
            os.path.join(BUILD, "CMakeCache.txt")):
        configure += ["-G", "Ninja"]
    for cmd in (configure, ["cmake", "--build", BUILD, "-j", str(JOBS)]):
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            log("build failed: " + " ".join(cmd))
            return False
    return True


def source_id():
    """The commit when run from a git checkout, else a digest of src/."""
    try:
        done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        if done.returncode == 0 and done.stdout.strip():
            return done.stdout.strip()
    except OSError:
        pass
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for base, dirs, files in sorted(os.walk(src)):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(base, name)
            digest.update(os.path.relpath(path, src).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return "src-" + digest.hexdigest()[:16]


def run_benchmark(args):
    return subprocess.run([BINARY] + args, cwd=ROOT, capture_output=True,
                          text=True)


def last_json(stdout):
    lines = [line for line in stdout.splitlines() if line.strip()]
    return json.loads(lines[-1]) if lines else None


def selftest():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, declared in (("0", end_to_end), ("1", per_layer)):
            done = run_benchmark(["--workload", workload, "--seed", "1",
                                  "--seconds", "1", "--trace", trace,
                                  "--tiny"])
            result = last_json(done.stdout) if done.returncode == 0 else None
            where = "%s trace %s" % (workload, trace)
            if result is None:
                problems.append(where + ": no result (exit %d)\n%s"
                                % (done.returncode, done.stderr[-2000:]))
                continue
            if not result["correct"] or result["failed"] != 0:
                problems.append(where + ": correctness gate failed\n"
                                + done.stdout[-3000:])
            printed = {name: m["unit"] for name, m in result["metrics"].items()}
            if printed != declared:
                problems.append(where + ": metrics differ from BENCHMARK.json: "
                                + str(sorted(set(printed.items())
                                             ^ set(declared.items()))))
            for name in declared:
                if ("metric %s = " % name) not in done.stdout:
                    problems.append(where + ": %s not printed" % name)
        planted = run_benchmark(["--workload", workload, "--seed", "1",
                                 "--seconds", "1", "--trace", "0", "--tiny",
                                 "--plant-wrong-expectation"])
        result = last_json(planted.stdout) if planted.returncode == 0 else None
        if result is None or result["correct"] or result["failed"] < 1:
            problems.append(workload + ": a planted wrong expectation did not "
                            "fail the correctness gate")
        log("self-test: %s done" % workload)
    for problem in problems:
        print("SELF-TEST FAILURE: " + problem)
    print("perfbench self-test: " + ("OK" if not problems else "FAILED"))
    return 0 if not problems else 1


def main():
    args = sys.argv[1:]
    if not build():
        return 1
    if args == ["--selftest"]:
        return selftest()
    done = subprocess.run([BINARY] + args + ["--commit", source_id()],
                          cwd=ROOT)
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
