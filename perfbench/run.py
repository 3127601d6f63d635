#!/usr/bin/env python3
"""Build and run the rvm benchmark from the root of a checkout.

    python3 perfbench/run.py --workload tpca --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --smoke

The Go program in this directory is built against the engine sources one
directory up, with every Go cache and temporary file kept under
.bench_build/ in the current directory.  Its standard output is passed
through; the last line is the JSON result.  The script exits non-zero,
without a result, if the build or the run fails.

--smoke runs every workload (restart too) at minimum length and checks that every
metric BENCHMARK.json declares is emitted, that the correctness checks
pass, that one seed always generates the same op sequence, and that the
checker reports lost acknowledged ops once the crash image's log is cut
short.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
OUT = os.path.abspath(".bench_build")
BINARY = os.path.join(OUT, "perfbench")
RUN_TIMEOUT = 170  # seconds; a run must end within 180


def go_env():
    env = dict(os.environ)
    for k, sub in (("GOCACHE", "gocache"), ("GOPATH", "gopath"), ("GOTMPDIR", "tmp")):
        env[k] = os.path.join(OUT, sub)
        os.makedirs(env[k], exist_ok=True)
    env["GOMODCACHE"] = os.path.join(env["GOPATH"], "pkg", "mod")
    env.update(GOFLAGS="-mod=mod", GOTOOLCHAIN="local", GOPROXY="off", GOWORK="off", CGO_ENABLED="0")
    return env


def build():
    go = shutil.which("go")
    if go is None:
        sys.exit("perfbench: go toolchain not found")
    os.makedirs(OUT, exist_ok=True)
    r = subprocess.run([go, "build", "-o", BINARY, "."], cwd=HERE, env=go_env(),
                       stdout=sys.stderr, stderr=sys.stderr)
    if r.returncode != 0:
        sys.exit("perfbench: build failed")


def run(args, capture=False):
    """Runs the benchmark binary; returns (exit code, stdout lines)."""
    cmd = [BINARY, "--dir", OUT] + args
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=None if not capture else subprocess.PIPE,
                           text=True, timeout=RUN_TIMEOUT)
    except subprocess.TimeoutExpired:
        return 124, []
    return r.returncode, r.stdout.splitlines()


def result(lines):
    """The detail and result objects of a run's output, or None."""
    try:
        return json.loads(lines[-2]), json.loads(lines[-1])
    except (IndexError, ValueError):
        return None


def smoke():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    want = {0: {m["name"] for m in bench["end_to_end"]}, 1: {m["name"] for m in bench["per_layer"]}}
    failures = []

    def expect(ok, what):
        print(("ok   " if ok else "FAIL ") + what, flush=True)
        if not ok:
            failures.append(what)

    # restart is run by hand rather than listed in BENCHMARK.json, but it
    # must keep working all the same.
    for w in [x["name"] for x in bench["workloads"]] + ["restart"]:
        hashes = {}
        for seed, trace in ((1, 0), (1, 1), (2, 0)):
            code, lines = run(["--workload", w, "--seed", str(seed), "--seconds", "1", "--trace", str(trace)], True)
            got = result(lines) if code == 0 else None
            expect(got is not None, f"{w} seed {seed} trace {trace}: exits 0 with a result")
            if got is None:
                continue
            detail, res = got
            expect(set(res["metrics"]) == want[trace], f"{w} trace {trace}: emits exactly the declared metrics")
            expect(res["correct"] and res["failed"] == 0 and detail["lost_acked_ops"] == 0,
                   f"{w} seed {seed} trace {trace}: checks pass ({detail['checks']})")
            hashes.setdefault(seed, set()).add(detail["op_hash"])
        expect(len(hashes.get(1, ())) == 1, f"{w}: one seed gives one op sequence {hashes.get(1)}")
        expect(hashes.get(1, {1}).isdisjoint(hashes.get(2, {2})), f"{w}: another seed gives another op sequence")
        code, lines = run(["--workload", w, "--seed", "3", "--seconds", "1", "--trace", "0", "--negative"], True)
        got = result(lines) if code == 0 else None
        expect(got is not None and got[0]["lost_acked_ops"] > 0 and not got[1]["correct"],
               f"{w}: checker reports lost acked ops after the log is cut "
               f"({got[0]['lost_acked_ops'] if got else 'no result'})")
    print("smoke:", "FAILED " + str(len(failures)) if failures else "passed")
    return 1 if failures else 0


def main():
    build()
    if sys.argv[1:] == ["--smoke"]:
        sys.exit(smoke())
    code, lines = run(sys.argv[1:])
    if code != 0 or result(lines) is None:
        sys.exit(f"perfbench: run failed (exit {code})")
    print("\n".join(lines), flush=True)


if __name__ == "__main__":
    main()
