"""Benchmark for the heckeslopes CLI.

Usage:
  python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Every timed run is a fresh `python3 -m heckeslopes.cli` process started
from this checkout's src/, one at a time, without HECKESLOPES_CACHE and
with either --cache "" or a cache file of its own, so no lru_cache, class
number table or cache file carries over between runs.  Each run's exit
code and stdout pass the output gate in gate.py.  Runs repeat until
--seconds have elapsed and the median is reported.  The benchmark and its
children run pinned to one CPU, and each wall time is scaled by a speed
probe timed around it (SpeedScale), because the machine's speed drifts by
more than the bounds.

--trace 0 reports the end-to-end metrics.  --trace 1 alternates untraced
runs with runs under traced_cli.py, checks that both print the same bytes,
and reports the per-layer metrics and the tracing overhead.

The seed only changes how the fixed queries are written (option order,
order of the prime and level lists, order of the records in the warm
cache file); the program must answer each of them with the same bytes.
The queries are scaled so that every run fits the time limits; see
README.md.
"""

import argparse
import hashlib
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass

import gate

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
TMP_ROOT = os.path.join(ROOT, ".perfbench_tmp")

SETUP_SAMPLES = 7
# The reference machine (a shared 2-vCPU VM) changes speed by 20-40% for
# seconds at a time, each vCPU on its own, and wall and CPU time move alike.
# The benchmark and its children are therefore pinned to one CPU, each child
# is timed between two runs of a fixed probe process on that CPU, and its
# time is scaled to the speed at which the probe takes PROBE_REF_S.
PROBE_REF_S = 0.15
PROBE_CODE = """
import numpy
from fractions import Fraction
acc = 0
for i in range(1, 10000):
    acc ^= (Fraction(i, i + 1) * Fraction(i + 2, 2 * i + 3)).numerator
"""
CACHE_SLOT = "{cache}"
# Every child must be gone well within the 180 s a benchmark run may take.
RUN_DEADLINE_S = 170.0


@dataclass(frozen=True)
class Workload:
    command: str
    primes: tuple
    levels: tuple
    k_max: int
    expected_exit: int
    extra: tuple = ()  # further (option, value) pairs
    cache: str = "none"  # "none" (--cache ""), "cold" or "warm" (a file of the run's own)

    def operations(self):
        if self.command == "witness":
            return 1
        if self.command == "crosscheck":
            return gate.crosscheck_points(self.primes, self.levels, self.k_max)
        return gate.survey_operations(self.primes, self.levels)

    def argv(self, rng, cache_path):
        primes, levels = list(self.primes), list(self.levels)
        rng.shuffle(primes)
        rng.shuffle(levels)
        options = [("--p", ",".join(map(str, primes))), ("--N", ",".join(map(str, levels))),
                   ("--k-max", str(self.k_max)), ("--cache", cache_path or "")]
        options.extend(self.extra)
        rng.shuffle(options)
        return [self.command] + [part for option in options for part in option]


SURVEY = dict(command="survey", primes=(2, 3, 5, 7), levels=tuple(range(1, 21)), k_max=12,
              expected_exit=3)
WORKLOADS = {
    # Hecke assembly in isolation: the determinant-59 Merel family on level-1
    # spaces of dim <= 5; the bound stops short of the k=74 witness, so the
    # row is inconclusive (exit 3).
    "witness_p59": Workload("witness", (59,), (1,), 36, 3),
    # Many small spaces; every charpoly is computed and written to the cache.
    "survey_cold": Workload(cache="cold", **SURVEY),
    # The same survey against a cache file filled by survey_cold: the cache
    # read path, Newton polygons and rendering.
    "survey_warm": Workload(cache="warm", **SURVEY),
    # Engine identity on a corner of the acceptance grid that the small class
    # number table covers, so every point is checked by both engines.
    "crosscheck_grid": Workload("crosscheck", (2, 3, 5, 7, 11, 13), (1, 2, 3, 4, 5), 10, 0,
                                extra=(("--direct-cap", "0"),)),
}

SECONDS_LAYERS = (
    "modsym.p1", "modsym.space", "modsym.hecke", "linalg.sparse_rref", "linalg.kernel",
    "linalg.span_solve", "linalg.charpoly", "exact.charpoly", "exact.newton",
    "traceforms.sieve", "traceforms.trace_tn", "traceforms.newton_identities",
    "cache.load", "cache.flush",
)
COUNTERS = {
    "modsym.spaces_built": "count", "modsym.spaces_distinct": "count",
    "modsym.hecke_matrices": "count", "modsym.quotient_dim_sum": "count",
    "modsym.merel_size_sum": "count", "exact.charpoly_dim_max": "count",
    "exact.coeff_bits_max": "bits", "traceforms.sieve_limit": "count",
    "traceforms.trace_tn_calls": "count", "traceforms.refusals": "count",
    "cache.hits": "count", "cache.misses": "count", "cache.rejects": "count",
    "cache.bytes_written": "bytes",
}


class BenchError(Exception):
    """The benchmark cannot run in this directory."""


@dataclass
class ChildRun:
    exit_code: int
    stdout: bytes
    stderr: bytes
    wall_s: float
    peak_rss_mb: float


def child_env():
    env = dict(os.environ)
    env.pop("HECKESLOPES_CACHE", None)
    env["PYTHONPATH"] = SRC
    return env


def run_child(argv, workdir, deadline):
    """Run argv to completion; wall time and peak RSS come from wait4."""
    with tempfile.TemporaryFile(dir=workdir) as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdin=subprocess.DEVNULL,
                                stdout=subprocess.PIPE, stderr=err)
        timer = threading.Timer(max(deadline - time.monotonic(), 0.0), proc.kill)
        timer.start()
        try:
            stdout = proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
            proc.stdout.close()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        stderr = err.read()
    return ChildRun(proc.returncode, stdout, stderr, wall, usage.ru_maxrss / 1024.0)


def cli_argv(args):
    return [sys.executable, "-m", "heckeslopes.cli"] + args


def traced_argv(stats_path, args):
    return [sys.executable, os.path.join(HERE, "traced_cli.py"), stats_path] + args


def read_reference(name):
    """Report bytes recorded from the code this benchmark was written against."""
    ref = "survey" if name.startswith("survey") else name
    path = os.path.join(HERE, "reference", ref + ".stdout")
    with open(path, "rb") as fh:
        return fh.read()


def check_checkout():
    if not os.path.isfile(os.path.join(SRC, "heckeslopes", "cli.py")):
        raise BenchError("no heckeslopes sources under %s" % SRC)


def setup_sample(workdir, deadline):
    """Seconds to start an interpreter and import heckeslopes.cli."""
    run = run_child([sys.executable, "-c", "import heckeslopes.cli"], workdir, deadline)
    if run.exit_code != 0:
        raise BenchError("import failed: %s" % run.stderr.decode(errors="replace")[-500:])
    return run.wall_s


class Session:
    """One workload run: inputs from the seed, cache files, the gate, totals."""

    def __init__(self, name, seed, workdir, deadline):
        self.name = name
        self.workload = WORKLOADS[name]
        self.rng = random.Random("%s:%d" % (name, seed))
        self.workdir = workdir
        self.deadline = deadline
        # crosscheck's counts may legitimately move, so only its summary is gated
        self.reference = None if self.workload.command == "crosscheck" else read_reference(name)
        self.attempted = self.failed = 0
        self.problems = []
        self.runs = 0
        cache = CACHE_SLOT if self.workload.cache != "none" else ""
        self.args = self.workload.argv(self.rng, cache)
        self.prefill_s = self._prefill() if self.workload.cache == "warm" else None

    def _with_cache(self, path):
        return [path if a == CACHE_SLOT else a for a in self.args]

    def _prefill(self):
        """Write the warm cache file with a survey_cold run; returns its seconds."""
        start = time.perf_counter()
        cold = os.path.join(self.workdir, "prefill.jsonl")
        open(cold, "w").close()
        self.grade(run_child(cli_argv(self._with_cache(cold)), self.workdir, self.deadline),
                   count=False)
        with open(cold, encoding="ascii") as fh:
            lines = fh.readlines()
        self.rng.shuffle(lines)
        self.warm_path = os.path.join(self.workdir, "warm.jsonl")
        with open(self.warm_path, "w", encoding="ascii") as fh:
            fh.writelines(lines)
        return time.perf_counter() - start

    def run_args(self):
        """The CLI arguments for the next run, with a cache file of its own."""
        self.runs += 1
        if self.workload.cache == "none":
            return self.args
        path = os.path.join(self.workdir, "cache-%d.jsonl" % self.runs)
        if self.workload.cache == "warm":
            shutil.copyfile(self.warm_path, path)
        else:
            open(path, "w").close()
        return self._with_cache(path)

    def grade(self, run, count=True):
        w = self.workload
        if w.command == "crosscheck":
            result = gate.grade_crosscheck(run.exit_code, run.stdout, w.operations())
        else:
            result = gate.grade_report(run.exit_code, run.stdout, w.expected_exit,
                                       self.reference, w.operations())
        if count:
            self.attempted += result.attempted
            self.failed += result.failed
        if not result.ok:
            tail = run.stderr.decode(errors="replace").strip().splitlines()[-3:]
            self.problems.append("%s: %s %s" % (self.name, result.problem, " | ".join(tail)))
        return result

    def timed_run(self):
        run = run_child(cli_argv(self.run_args()), self.workdir, self.deadline)
        self.grade(run)
        return run

    def traced_run(self):
        args = self.run_args()
        stats_path = os.path.join(self.workdir, "stats-%d.json" % self.runs)
        run = run_child(traced_argv(stats_path, args), self.workdir, self.deadline)
        self.grade(run)
        with open(stats_path, encoding="ascii") as fh:
            return run, json.load(fh)


def probe_s():
    """Seconds for a fresh interpreter to import numpy and run a fixed piece
    of exact rational arithmetic: the two kinds of work a CLI run does."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", PROBE_CODE], check=True, timeout=60,
                   stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL)
    return time.perf_counter() - start


class SpeedScale:
    """Scales child wall times to the reference machine speed.

    Call it after every child process, in order: the speed of a child's run
    is taken from the probes just before and just after it, and each probe
    serves both of its neighbours.
    """

    def __init__(self):
        probe_s()  # untimed: the first probe reads numpy from disk
        self.before = probe_s()

    def __call__(self, wall_s):
        after = probe_s()
        scaled = wall_s * 2 * PROBE_REF_S / (self.before + after)
        self.before = after
        return scaled


def metric(value, unit):
    return {"value": value, "unit": unit}


def tail_value(samples):
    """Highest-percentile sample with at least ten samples above it (max if too few)."""
    ordered = sorted(samples)
    if len(ordered) <= 10:
        return ordered[-1]
    return ordered[-11]


def end_to_end(session, seconds):
    """Workload runs for `seconds`, with the set-up samples spread evenly
    among them so that both medians see the same machine load.  Times are
    scaled to the reference speed (SpeedScale); the raw medians go to info."""
    setup_sample(session.workdir, session.deadline)  # untimed: compiles the bytecode
    scale = SpeedScale()
    runs, walls, setup, setup_raw = [], [], [], []
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        if runs and elapsed >= seconds:
            break
        if len(setup) * seconds <= elapsed * SETUP_SAMPLES:
            setup_raw.append(setup_sample(session.workdir, session.deadline))
            setup.append(scale(setup_raw[-1]))
        runs.append(session.timed_run())
        walls.append(scale(runs[-1].wall_s))
    while len(setup) < SETUP_SAMPLES:
        setup_raw.append(setup_sample(session.workdir, session.deadline))
        setup.append(scale(setup_raw[-1]))
    attempted = max(session.attempted, 1)
    metrics = {
        "wall_s": metric(statistics.median(walls), "s"),
        "setup_s": metric(statistics.median(setup), "s"),
        "peak_rss_mb": metric(statistics.median(r.peak_rss_mb for r in runs), "MB"),
        "ok_ratio": metric((attempted - session.failed) / attempted, "ratio"),
    }
    wall_raw = [r.wall_s for r in runs]
    info = {"runs": len(runs), "wall_s_raw_median": statistics.median(wall_raw),
            "setup_s_raw_median": statistics.median(setup_raw),
            "wall_s_raw": wall_raw, "wall_s_scaled": walls,
            "setup_s_raw": setup_raw, "setup_s_scaled": setup}
    return metrics, info


def layer_metrics(stats):
    """Per-layer metrics of one traced run."""
    seconds, counts = stats["seconds"], stats["counts"]
    out = {}
    for layer in SECONDS_LAYERS:
        out[layer + "_s"] = seconds.get(layer, [0.0, 0.0, 0])[1]
    for name in COUNTERS:
        out[name] = counts.get(name, 0)
    built = out["modsym.spaces_built"]
    out["modsym.space_reuse_ratio"] = out["modsym.spaces_distinct"] / built if built else 1.0
    pairs = stats["pair_s"]
    out["survey.pair_s_p50"] = statistics.median(pairs) if pairs else 0.0
    out["survey.pair_s_tail"] = tail_value(pairs) if pairs else 0.0
    return out


def layer_unit(name):
    if name in COUNTERS:
        return COUNTERS[name]
    return "ratio" if name.endswith("_ratio") else "s"


def per_layer(session, seconds):
    """Alternate untraced and traced runs; medians of the per-layer metrics.

    trace.overhead_s compares wall times scaled by the speed probe, as
    end_to_end reports them."""
    scale = SpeedScale()
    plain, traced, plain_s, traced_s, layers = [], [], [], [], []
    start = time.perf_counter()
    while not plain or time.perf_counter() - start < seconds:
        plain.append(session.timed_run())
        plain_s.append(scale(plain[-1].wall_s))
        run, stats = session.traced_run()
        traced.append(run)
        traced_s.append(scale(run.wall_s))
        layers.append(layer_metrics(stats))
        if run.stdout != plain[-1].stdout or run.exit_code != plain[-1].exit_code:
            session.problems.append("%s: traced output differs from the untraced run"
                                    % session.name)
    # counts repeat exactly from run to run, so the lower median keeps them whole
    metrics = {name: metric(statistics.median_low(l[name] for l in layers), layer_unit(name))
               for name in layers[0]}
    overhead = statistics.median(traced_s) - statistics.median(plain_s)
    metrics["trace.overhead_s"] = metric(overhead, "s")
    info = {"runs": len(traced), "pairs": len(stats["pair_s"]),
            "traced_wall_s_raw": [r.wall_s for r in traced],
            "untraced_wall_s_raw": [r.wall_s for r in plain],
            "traced_wall_s_scaled": traced_s, "untraced_wall_s_scaled": plain_s}
    return metrics, info


def environment():
    import numpy

    model = None
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True)
        commit = proc.stdout.strip() or None
    return {"nproc": os.cpu_count(), "cpu_model": model,
            "python": sys.version.split()[0], "numpy": numpy.__version__,
            "commit": commit, "src_sha256": source_digest()}


def source_digest():
    """sha256 over the package sources, to identify the code without git."""
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "heckeslopes")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            digest.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()


def run_workload(name, seed, seconds, trace, workdir):
    deadline = time.monotonic() + RUN_DEADLINE_S
    session = Session(name, seed, workdir, deadline)
    if trace:
        metrics, info = per_layer(session, seconds)
    else:
        metrics, info = end_to_end(session, seconds)
    info.update(workload=name, seed=seed, trace=trace, argv=session.args,
                prefill_s=session.prefill_s, problems=session.problems)
    return session, metrics, info


def print_metrics(name, metrics, info):
    print("%s: %d runs, %s" % (name, info["runs"], " ".join(info["argv"])))
    for key, m in metrics.items():
        print("  %-34s %14.6g %s" % (key, m["value"], m["unit"]))
    for problem in info["problems"]:
        print("  GATE FAILED %s" % problem)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        check_checkout()
    except BenchError as exc:
        print("perfbench: %s" % exc, file=sys.stderr)
        return 2
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})  # children inherit it
    os.makedirs(TMP_ROOT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=TMP_ROOT)
    results = []
    try:
        env = environment()
        for name in names:
            results.append(run_workload(name, args.seed, args.seconds, args.trace, workdir))
    except BenchError as exc:
        print("perfbench: %s" % exc, file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for session, metrics, info in results:
        print_metrics(session.name, metrics, info)
        print(json.dumps({"env": env, "info": info}))
    if len(results) == 1:
        summary_metrics = results[0][1]
    else:
        summary_metrics = {"%s.%s" % (s.name, key): m for s, ms, _ in results
                           for key, m in ms.items()}
    print(json.dumps({
        "correct": all(not s.problems for s, _, _ in results),
        "attempted": sum(s.attempted for s, _, _ in results),
        "failed": sum(s.failed for s, _, _ in results),
        "metrics": summary_metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
