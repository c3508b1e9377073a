#!/usr/bin/env python3
"""Runs one workload of the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

Run from the root of a checkout. The first call configures and builds the
benchmark binary (a Release build of perfbench/ and the tfsn library from
src/) under .bench_build/; later calls rebuild only what changed. The
binary's output is relayed. Its last line maps each metric it measured to
a value; BENCHMARK.json is the one catalogue of metric names and units, so
the names are checked against it and the units attached before the result
is printed. The exit code is the binary's: 0 only when every output was
correct.

--self-test runs every workload at tiny sizes and checks that it emits
exactly the BENCHMARK.json metrics of the layers it runs, that a corrupted
reference trips the correctness gate, and that one seed reproduces the same
result digests.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), ".."))
OUT_DIR = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(OUT_DIR, "cmake")
BINARY = os.path.join(BUILD_DIR, "perfbench")
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the Release binary; False on failure."""
    os.makedirs(OUT_DIR, exist_ok=True)
    jobs = str(os.cpu_count() or 1)
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"),
                      "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        done = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                              stderr=sys.stderr, check=False)
        if done.returncode != 0:
            log("perfbench: build step failed: " + " ".join(cmd))
            return False
    return True


def source_id():
    """The git commit when there is one, else a digest of src/."""
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, check=False,
                             timeout=10)
        if sha.returncode == 0 and sha.stdout.strip():
            return sha.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for base, dirs, files in os.walk(src):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(base, name)
            digest.update(os.path.relpath(path, src).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return "src-sha256-" + digest.hexdigest()[:16]


# The per-layer metrics of layers a workload does not run, by exact name or
# by a prefix ending in ".". The traced binary does not emit them and they
# are reported as 0; every other per-layer metric must be emitted.
NOT_RUN = {
    "form_dense": ["serve.", "dist.", "loadgen.", "greedy.view_over_oracle"],
    # kAuto picks the path inside Form, so no view is built outside it.
    "form_sparse": ["view.", "serve.", "dist.", "loadgen."],
    "serve_flat_miss": ["dist.", "greedy.seed_thread_speedup",
                        "greedy.view_over_oracle"],
    "serve_tiered_hit": ["dist.", "greedy.seed_thread_speedup",
                         "greedy.view_over_oracle"],
    "form_sharded": ["compat.", "view.", "serve.", "loadgen.",
                     "greedy.seed_loop_ms", "greedy.seed_thread_speedup",
                     "greedy.view_over_oracle"],
}


def not_run(workload, name):
    return any(name == p or (p.endswith(".") and name.startswith(p))
               for p in NOT_RUN.get(workload, []))


def metric_units(trace):
    """{name: unit} for the run kind, in BENCHMARK.json's order."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def run_binary(workload, seed, seconds, trace, extra=()):
    """Runs the binary; returns (exit code, stdout lines)."""
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--out-dir", OUT_DIR, "--git-sha", source_id()] + list(extra)
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired as e:
        out = e.stdout.decode() if isinstance(e.stdout, bytes) else e.stdout
        return 124, (out or "").splitlines()
    return done.returncode, done.stdout.splitlines()


def make_result(line, workload, trace):
    """The result for the binary's last line, with every metric of the run
    kind valued and given its unit from BENCHMARK.json; raises ValueError
    when the binary measured other names than the workload runs."""
    result = json.loads(line)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise ValueError("result keys are %s" % sorted(result))
    measured = result["metrics"]
    units = metric_units(trace)
    want = {n for n in units if not (trace and not_run(workload, n))}
    if set(measured) != want:
        raise ValueError("measured metrics differ from BENCHMARK.json: "
                         "missing %s, unexpected %s"
                         % (sorted(want - set(measured)),
                            sorted(set(measured) - want)))
    result["metrics"] = {n: {"value": measured.get(n, 0), "unit": u}
                         for n, u in units.items()}
    return result


def run(args):
    if not build():
        return 1
    code, lines = run_binary(args.workload, args.seed, args.seconds,
                             args.trace == 1)
    if not lines:
        log("perfbench: the run printed nothing (exit %d)" % code)
        return code or 1
    for line in lines[:-1]:
        print(line)
    try:
        result = make_result(lines[-1], args.workload, args.trace == 1)
    except (ValueError, KeyError, TypeError) as e:
        log("perfbench: bad result line: %s" % e)
        return code or 1
    print(json.dumps(result), flush=True)
    return code


def self_test():
    if not build():
        return 1
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        workloads = [w["name"] for w in json.load(f)["workloads"]]
    problems = []

    def digest_of(lines):
        return next((l.split()[-1] for l in lines if l.startswith("# digest")),
                    None)

    for name in workloads:
        digests = []
        for trace in (False, True):
            code, lines = run_binary(name, 7, 0.3, trace, ["--tiny"])
            try:
                result = make_result(lines[-1], name, trace) if lines else None
            except (ValueError, KeyError, TypeError) as e:
                problems.append("%s trace=%d: %s" % (name, trace, e))
                continue
            if code != 0 or result is None or not result["correct"]:
                problems.append("%s trace=%d: exit %d, not correct: %s"
                                % (name, trace, code,
                                   [l for l in lines if "failure" in l]))
            digests.append(digest_of(lines))
        if len(set(digests)) != 1 or None in digests:
            problems.append("%s: same seed, different digests %s"
                            % (name, digests))
        code, lines = run_binary(name, 8, 0.3, False, ["--tiny"])
        if digest_of(lines) in digests:
            problems.append("%s: seeds 7 and 8 gave the same digest" % name)
        code, lines = run_binary(name, 7, 0.3, False,
                                 ["--tiny", "--corrupt-reference"])
        result = json.loads(lines[-1]) if lines else {}
        if code == 0 or result.get("correct", True) or not result.get("failed"):
            problems.append("%s: a corrupted reference did not trip the gate "
                            "(exit %d)" % (name, code))
        log("self-test %s: %s" % (name, "ok" if not problems else "..."))
    for p in problems:
        log("FAIL: " + p)
    log("self-test %s" % ("failed" if problems else "passed"))
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    if not args.workload:
        parser.error("--workload is required")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
