#!/usr/bin/env python3
"""Layered benchmark of the Jarvis reproduction: one command per run.

    python3 perfbench/run.py --workload <epoch-loop|plan-sweep|control-sim> \
        --seed <n> --seconds <s> --trace <0|1>

Run it from the root of a checkout. It compiles the program from the
checkout's own sources together with the benchmark (perfbench/build.sbt),
once per source state, then runs one JVM with Spark local[N], N <= nproc.
The last line of standard output is the run's JSON result; the line before
it is the run's stamp (versions, machine, input sizes, seed). Results and
traces are also written under perfbench/out/.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
TARGET = os.path.join(BENCH, "target")
OUT = os.path.join(BENCH, "out")
CLASSPATH_FILE = os.path.join(TARGET, "perfbench-classpath.txt")
MAIN_CLASS = "repro.perfbench.Main"

BUILD_TIMEOUT_S = 850
RUN_DEADLINE_S = 175
MAIN_RUN_S = 95
# control-sim times sub-microsecond steps, where one JVM's JIT decisions move
# the figures by 10-25 %; its untraced runs split --seconds over this many
# JVMs and report the median of each metric.
FORKS = {"control-sim": 5}
HEAP = "3g"

# Spark on JDK 17 needs the module system opened up, as in the root build.
ADD_OPENS = [
    "java.base/java.lang", "java.base/java.lang.invoke", "java.base/java.lang.reflect",
    "java.base/java.io", "java.base/java.net", "java.base/java.nio",
    "java.base/java.util", "java.base/java.util.concurrent",
    "java.base/java.util.concurrent.atomic", "java.base/jdk.internal.ref",
    "java.base/sun.nio.ch", "java.base/sun.nio.cs", "java.base/sun.security.action",
    "java.base/sun.util.calendar",
]

SOURCES = [
    (ROOT, os.path.join("src", "main")),
    (ROOT, "jobs"),
    (BENCH, os.path.join("src", "main")),
    (BENCH, "build.sbt"),
    (BENCH, os.path.join("project", "build.properties")),
]


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def source_digest():
    h = hashlib.sha256()
    for base, rel in SOURCES:
        top = os.path.join(base, rel)
        files = [top] if os.path.isfile(top) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(top) for f in fs)
        for path in files:
            h.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                h.update(hashlib.sha256(f.read()).digest())
    return h.hexdigest()


def run_group(cmd, timeout, **kw):
    """Run cmd in its own process group; kill the whole group on timeout."""
    proc = subprocess.Popen(cmd, start_new_session=True, **kw)
    try:
        out, err = proc.communicate(timeout=timeout)
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    return proc.returncode, out, err


def classpath(digest):
    if os.path.exists(CLASSPATH_FILE):
        with open(CLASSPATH_FILE) as f:
            lines = f.read().splitlines()
        if len(lines) == 2 and lines[0] == digest:
            return lines[1]
    if shutil.which("sbt") is None:
        fail("sbt is not on PATH")
    if not os.environ.get("SPARK_HOME"):
        fail("SPARK_HOME is not set")
    print("perfbench: building (sbt compile)", file=sys.stderr)
    cmd = ["sbt", "--batch", "-Dsbt.log.noformat=true", "compile", "export Runtime/fullClasspath"]
    try:
        code, out, _ = run_group(cmd, BUILD_TIMEOUT_S, cwd=BENCH, stdin=subprocess.DEVNULL,
                                 stdout=subprocess.PIPE, text=True)
    except subprocess.TimeoutExpired:
        fail("build timed out")
    lines = [l for l in out.splitlines() if l.strip()]
    if code != 0 or not lines or "error" in lines[-1].lower() or os.pathsep not in lines[-1]:
        sys.stderr.write(out[-4000:])
        fail(f"build failed (sbt exit {code})")
    os.makedirs(TARGET, exist_ok=True)
    with open(CLASSPATH_FILE, "w") as f:
        f.write(f"{digest}\n{lines[-1].strip()}\n")
    return lines[-1].strip()


def git_sha():
    """HEAD of the checkout, or "unknown" when the checkout is not a git root."""
    try:
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
                           capture_output=True, text=True, timeout=10)
        lines = r.stdout.split()
        if r.returncode == 0 and len(lines) == 2 and os.path.samefile(lines[0], ROOT):
            return lines[1]
    except (OSError, subprocess.SubprocessError):
        pass
    return "unknown"


def jvm(cp, args, master, extra, deadline):
    """Run one benchmark JVM until `deadline`; returns (exit code, stdout lines)."""
    for d in ("tmp", "spark-local", "warehouse"):
        os.makedirs(os.path.join(TARGET, d), exist_ok=True)
    java = os.path.join(os.environ["JAVA_HOME"], "bin", "java") if os.environ.get("JAVA_HOME") else "java"
    cmd = [java, f"-Xmx{HEAP}", "-XX:+UseG1GC"]
    cmd += [f"--add-opens={p}=ALL-UNNAMED" for p in ADD_OPENS]
    cmd += [
        "-Djdk.reflect.useDirectMethodHandle=false",
        "-Dspark.ui.enabled=false",
        "-Dspark.driver.host=127.0.0.1",
        f"-Dspark.local.dir={os.path.join(TARGET, 'spark-local')}",
        f"-Dspark.sql.warehouse.dir={os.path.join(TARGET, 'warehouse')}",
        f"-Djava.io.tmpdir={os.path.join(TARGET, 'tmp')}",
        f"-Dderby.system.home={os.path.join(TARGET, 'tmp')}",
        "-cp", cp, MAIN_CLASS,
        "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace), "--out", OUT,
    ] + extra
    env = dict(os.environ, SPARK_MASTER=master)
    remaining = deadline - time.monotonic()
    if remaining < 5:
        raise subprocess.TimeoutExpired(cmd, 0)
    code, out, _ = run_group(cmd, remaining, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                             stdout=subprocess.PIPE, text=True)
    return code, out.splitlines()


def main():
    # A stopped launcher stops its JVMs too (run_group kills their group).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=["epoch-loop", "plan-sweep", "control-sim"])
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = p.parse_args()

    for rel in (os.path.join("src", "main", "scala"), "jobs"):
        if not os.path.isdir(os.path.join(ROOT, rel)):
            fail(f"no {rel} next to {os.path.basename(BENCH)}/: run from a full checkout")

    digest = source_digest()
    cp = classpath(digest)
    deadline = time.monotonic() + RUN_DEADLINE_S
    os.environ["PERFBENCH_GIT_SHA"] = git_sha()
    os.environ["PERFBENCH_SOURCE_SHA256"] = digest
    # One core stays free for the driver thread, the JIT and the GC: with
    # local[nproc] they compete with the tasks and plan times spread more.
    cores = max(1, (os.cpu_count() or 1) - 1)

    extra = []
    if args.workload == "plan-sweep" and args.trace == 1:
        # Single-threaded baseline of the same sweep, in its own JVM; it must
        # leave the traced run MAIN_RUN_S, or its metrics read 0.
        try:
            code, lines = jvm(cp, args, "local[1]", ["--phase", "local1", "--seconds", "0"],
                              deadline - MAIN_RUN_S)
            base = json.loads(lines[-1]) if code == 0 and lines else None
            ok = base is not None and base["correct"]
            extra = ["--local1", str(base["metrics"]["local1.rec_per_s"]["value"]) if ok else "failed"]
        except subprocess.TimeoutExpired:
            print("perfbench: local[1] baseline skipped: out of time", file=sys.stderr)

    forks = 1 if args.trace else FORKS.get(args.workload, 1)
    if forks > 1:
        extra = ["--seconds", str(max(1, args.seconds // forks))]
    results = []
    for k in range(forks):
        phase = ["--phase", f"fork{k + 1}"] if forks > 1 else []
        try:
            code, lines = jvm(cp, args, f"local[{cores}]", extra + phase, deadline)
        except subprocess.TimeoutExpired:
            fail("run timed out", 3)
        for line in lines[:-1]:
            print(line)
        if code != 0 or not lines:
            fail(f"benchmark JVM exited with {code}", code or 1)
        results.append(json.loads(lines[-1]))
    print(json.dumps(merge(results)))


def merge(results):
    """One result from several forks: summed counts, median metrics."""
    if len(results) == 1:
        return results[0]
    metrics = {}
    for name, m in results[0]["metrics"].items():
        values = sorted(r["metrics"][name]["value"] for r in results)
        metrics[name] = {"value": values[len(values) // 2], "unit": m["unit"]}
    return {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }


if __name__ == "__main__":
    main()
