#!/usr/bin/env python3
"""Build and run the query-pipeline benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
        One run of one workload (job-exec, job-optimize, job-truth,
        serve-zipf); the last line of output is the JSON result. Further
        options (--data-seed, --scale) go to the program.
    python3 perfbench/run.py --workload all ...
        The four workloads in turn, one result line each.
    python3 perfbench/run.py --repeat N --workload W|all [--seconds S] [--trace 0|1]
        N runs with seeds 1..N; prints each metric's median and quartiles
        next to its bound in BENCHMARK.json. The bounds are set from this.
    python3 perfbench/run.py --regen-reference [--scale F] [--data-seed N]
        Rewrite the True_card row-count reference the output checks use.

Run it from the repository root. It builds perfbench/main.exe with dune
inside the checkout and exits non-zero if the build, a run or an output
check fails.
"""

import json
import os
import shutil
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "main.exe")
WORKLOADS = ["job-exec", "job-optimize", "job-truth", "serve-zipf"]


def build():
    dune = shutil.which("dune")
    if dune is None:
        sys.exit("perfbench: dune is not on PATH")
    # The shared dune cache lives outside the checkout; keep the build
    # inside it.
    env = dict(os.environ, DUNE_CACHE="disabled")
    done = subprocess.run(
        [dune, "build", "--root", ".", "./perfbench/main.exe"],
        cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
    if done.returncode != 0 or not os.path.exists(EXE):
        sys.exit("perfbench: build failed")


def run_once(args):
    """Runs main.exe; returns (exit code, parsed last line or None)."""
    done = subprocess.run([EXE] + args, cwd=ROOT, stdout=subprocess.PIPE,
                          text=True)
    out = done.stdout
    sys.stdout.write(out)
    sys.stdout.flush()
    lines = [l for l in out.splitlines() if l.strip()]
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    return done.returncode, result


def option(argv, name, default):
    if name in argv:
        i = argv.index(name)
        if i + 1 < len(argv):
            return argv[i + 1]
    return default


def without(argv, name):
    """argv without the option [name] and its value."""
    out, skip = [], False
    for a in argv:
        if skip:
            skip = False
        elif a == name:
            skip = True
        else:
            out.append(a)
    return out


def bounds():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    b = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    b.update({m["name"]: None for m in spec["per_layer"]})
    return spec, b


def repeat(argv):
    n = int(option(argv, "--repeat", "10"))
    spec, bound = bounds()
    rest = without(without(argv, "--repeat"), "--workload")
    rest = without(rest, "--seed")
    if "--seconds" not in rest:
        rest += ["--seconds", str(spec["run_seconds"])]
    if "--trace" not in rest:
        rest += ["--trace", "0"]
    workload = option(argv, "--workload", "all")
    names = WORKLOADS if workload == "all" else [workload]
    status = 0
    for w in names:
        values, fails = {}, set()
        for seed in range(1, n + 1):
            code, result = run_once(["--workload", w, "--seed", str(seed)] + rest)
            if code != 0 or result is None:
                status = 1
                continue
            fails.add((result["failed"], result["attempted"]))
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        shares = {f / a for f, a in fails}
        print(f"== {w}: {n} seeds, failed/attempted shares {sorted(shares)}")
        print(f"{'metric':34} {'median':>14} {'q1':>14} {'q3':>14} "
              f"{'spread':>8} {'bound':>6}")
        for name, vs in values.items():
            med = statistics.median(vs)
            q1, _, q3 = (statistics.quantiles(vs, n=4) if len(vs) > 1
                         else (vs[0], vs[0], vs[0]))
            spread = (q3 - q1) / med if med else 0.0
            b = bound.get(name)
            verdict = ""
            if b is not None:
                verdict = "ok" if spread <= b / 3 else "WIDE"
            print(f"{name:34} {med:14.6g} {q1:14.6g} {q3:14.6g} "
                  f"{spread:8.4f} {'' if b is None else b:>6} {verdict}")
        sys.stdout.flush()
    return status


def main():
    argv = sys.argv[1:]
    os.chdir(ROOT)
    build()
    if "--regen-reference" in argv:
        if "--scale" not in argv:
            argv += ["--scale", "0.005"]
        return subprocess.run([EXE] + argv, cwd=ROOT).returncode
    if "--repeat" in argv:
        return repeat(argv)
    if option(argv, "--workload", None) == "all":
        rest = without(argv, "--workload")
        status = 0
        for w in WORKLOADS:
            code, _ = run_once(["--workload", w] + rest)
            status = status or code
        return status
    code, _ = run_once(argv)
    return code


if __name__ == "__main__":
    sys.exit(main())
