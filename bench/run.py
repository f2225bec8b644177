"""jointbma benchmark: four CLI workloads, checked outputs, traced layers.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S --trace 0|1

Run from anywhere; paths resolve against this file's checkout. Inputs
for each workload are generated from --seed into .bench_work/<NAME>/ and
the program reads only those files. Load is one closed loop: one
operation at a time, one CLI child at a time, with BLAS limited to one
thread (see below).

--trace 0 measures, for about --seconds:
  setup_s      median spawn-to-exit time of a fresh interpreter that
               imports jointbma.cli and runs load_config on the config
               (SETUP_REPS runs after one untimed warm-up);
  wall_s       median spawn-to-exit time of `python -m jointbma <task>`;
  task_s       median time of cli.main(<same argv>) in this process,
               after one untimed warm-up run, each run after a garbage
               collection;
  peak_rss_mb  median peak resident memory of the CLI child.
CLI runs and in-process runs alternate, the one that has taken less
time so far going next.

The three times are scaled to a reference machine speed. The benchmark
and its children share one CPU; while an operation runs, a SIGALRM
handler times speed_probe() every PROBE_PERIOD_S, so the probes
interleave with the operation on the CPU it runs on. A sample is the
operation's time net of probe time, divided by its slowdown: the
probes' median over PROBE_REFERENCE_S. A small shared machine drifts in
speed by up to 1.6x for tens of seconds at a time, and its two CPUs
drift largely independently: unscaled medians of sweep-p15 scattered by
17-25% between runs. Scaled, on a 2-vCPU x86-64 VM, the quartile
spread over ten seeds was 1.2-11.1% for every workload and time, and the
medians of two sets of ten seeds differed by at most 7.8%. The unscaled medians and the
median slowdown are printed as well, and every sample (time, slowdown)
is written to .bench_work/<NAME>/samples.json.

--trace 1 alternates untraced and traced in-process runs (after one
untimed warm-up run) for about --seconds and prints, unscaled:
  <module>.<function>.calls, .total_s, .self_s  for each function in
      tracing.TRACED (times are medians over the traced runs; self time
      is a span's duration minus what its child spans cover); functions
      a workload never calls read 0, and _linalg is named linalg;
  model_space.ModelId.linear.calls;
  linalg.chol_factor.per_unit  Cholesky calls per unit of work: a model
      on sweep-p15 and rj-linear-p12, a model-fold on cv-p6, a chain
      iteration on rj-loglinear-64;
  rj_sampler.iterations, .jump_accept_ratio, .within_accept_ratio  from
      the chain rjmcmc_run returns;
  rj_sampler.chain_us_per_iter  time from the end of rjmcmc_run's last
      per-model set-up call to its own end, per iteration;
  rj_sampler.ess_per_s  p(1-p)/se^2 for the indicator of the model with
      the highest exact posterior probability, over the median untraced
      in-process time;
  trace_overhead_s  median traced minus median untraced in-process time.
Spans of the last traced run are written to .bench_work/<NAME>/spans.npz.

Every operation's output is checked (checks.py) and must be
byte-identical to the run's first output; an operation that exits
non-zero, raises, or fails either check counts in `failed`. The sha256
of the output is compared with reference_sha256.json (seeds 1-10) for
information only. The last line of stdout is the JSON
result.
"""
import argparse
import contextlib
import gc
import hashlib
import json
import os
from pathlib import Path
import signal
import statistics
import subprocess
import sys
import time
import traceback

# One BLAS thread, here and in every child: the only extra threads are
# then the ones cli.run_sweep starts itself. With OpenBLAS's default
# pool, idle workers spin against the program's own threads on a small
# machine, which adds CPU time and scatter to every timing. Set before
# the imports below load numpy.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np

import checks
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
REFERENCE = Path(__file__).resolve().parent / "reference_sha256.json"
SPAWN = Path(__file__).resolve().parent / "spawn.py"
SETUP_REPS = 5
# A speed probe every PROBE_PERIOD_S during each timed operation.
PROBE_PERIOD_S = 0.05
# speed_probe()'s typical time while interleaved with an operation on an
# unloaded 2-vCPU x86-64 VM (alone it takes about 0.7 ms there): scaled
# times read as seconds on such a machine.
PROBE_REFERENCE_S = 0.00103
IMPORT_REPS = 3
CHILD_TIMEOUT_S = 150
RJ = ("rj-loglinear-64", "rj-linear-p12")
# Figures the ROADMAP's north star states for the same quantities.
ROADMAP = {"import_s": 0.57, "sweep_wall_s": 1.14,
           "enumerate_linear_models_s": 0.16, "all_subsets_stats_s": 0.23,
           "cv_us_per_model_fold": 410.0, "joint_rj_us_per_iter": 175.0}
# Calls made once per chain iteration; rjmcmc_run's other children are
# per-model set-up.
PER_ITERATION = ("param_priors.log_prior_density",
                 "glm_laplace.PoissonLogLinear.loglik", "rj_sampler.rwm_step")


class Failure(Exception):
    """One operation failed; the message says why."""


def _metric_name(name):
    # Metric names must start with a letter or digit.
    return name.lstrip("_")


class Run:
    """One workload at one seed: inputs, operations and their outcomes."""

    def __init__(self, name, seed):
        self.name = name
        self.seed = seed
        self.work = WORK / name
        self.inputs = workloads.generate(name, self.work, seed)
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.argv = [self.inputs.task, "--config", self.inputs.config,
                     "--out", "out"]
        self.attempted = 0
        self.failed = 0
        self.first_sha = None
        self.first_table = None
        self._verdicts = {}
        self._exact = None
        self.probing = False

    # -- operations -------------------------------------------------------

    def op(self, fn, *args):
        """Run one operation; count it, and its failure if any."""
        self.attempted += 1
        try:
            return fn(*args)
        except Failure as exc:
            self.failed += 1
            print(f"FAILED {self.name}: {exc}")
        except Exception:
            self.failed += 1
            print(f"FAILED {self.name}: raised\n{traceback.format_exc()}")
        return None

    def _spawn(self, cmd):
        """Timing (see Ticker.timing), peak RSS (KiB) and stdout of one
        child, spawn to exit, measured by spawn.py."""
        err_path = self.work / "stderr.txt"
        report = self.work / "spawn.json"
        with open(err_path, "wb") as err, Ticker(self.probing) as ticker:
            proc = subprocess.Popen(
                [sys.executable, str(SPAWN), str(report)] + cmd,
                cwd=self.work, env=self.env, stdout=subprocess.PIPE,
                stderr=err, start_new_session=True)
            ticker.child = proc
            with proc.stdout:
                out = proc.stdout.read()
            proc.wait()
        if proc.returncode != 0:
            tail = err_path.read_text(errors="replace")[-400:]
            raise Failure(f"{cmd[1:3]} exited {proc.returncode}: {tail}")
        got = json.loads(report.read_text(encoding="utf-8"))
        return ticker.timing(got["elapsed_s"]), got["maxrss_kib"], out

    def setup_once(self):
        code = "import jointbma.cli as c; c.load_config(%r)" % \
            self.inputs.config
        return self._spawn([sys.executable, "-c", code])[0]

    def import_once(self):
        code = ("import time; t = time.perf_counter(); import jointbma; "
                "print(time.perf_counter() - t)")
        return float(self._spawn([sys.executable, "-c", code])[2])

    def cli_once(self):
        timing, rss_kib, _ = self._spawn(
            [sys.executable, "-m", "jointbma"] + self.argv)
        self.check_output()
        return timing, rss_kib / 1024.0

    def in_process_once(self, tracer=None):
        import jointbma.cli as cli
        # Garbage left by the previous operation is not this one's cost.
        gc.collect()
        here = os.getcwd()
        os.chdir(self.work)
        try:
            with tracer or contextlib.nullcontext(), \
                    Ticker(self.probing) as ticker:
                t0 = time.perf_counter()
                code = cli.main(self.argv)
                elapsed = time.perf_counter() - t0
        finally:
            os.chdir(here)
        if code != 0:
            raise Failure(f"cli.main returned {code}")
        self.check_output()
        return ticker.timing(elapsed)

    # -- output checks ----------------------------------------------------

    def check_output(self):
        raw = b"".join((self.work / f"out{s}").read_bytes()
                       for s in (".csv", ".json"))
        sha = hashlib.sha256(raw).hexdigest()
        if self.first_sha is None:
            self.first_sha = sha
            self.first_table = json.loads(
                (self.work / "out.json").read_text(encoding="utf-8"))
        elif sha != self.first_sha:
            raise Failure(f"output bytes differ between operations of one "
                          f"run ({sha[:12]} vs {self.first_sha[:12]})")
        if sha not in self._verdicts:
            self._verdicts[sha] = self._check(self.first_table)
        problems = self._verdicts[sha]
        if problems:
            raise Failure("output check: " + "; ".join(problems[:5]))

    def exact_posterior(self):
        if self._exact is None:
            if self.name == "rj-loglinear-64":
                import jointbma as lib
                cfg = lib.load_config(str(self.work / self.inputs.config))
                self._exact = checks.exact_loglinear_posterior(
                    self.inputs, cfg, lib)
            else:
                self._exact = checks.exact_linear_posterior(
                    self.inputs, workloads.LINEAR_RJ_C2)
        return self._exact

    def _check(self, table):
        if self.name == "sweep-p15":
            return checks.check_sweep(
                table, self.inputs, np.geomspace(*workloads.SWEEP_GRID),
                workloads.SWEEP_POLICIES, workloads.SWEEP_TOP_K,
                workloads.SWEEP_WATCH)
        if self.name == "cv-p6":
            return checks.check_cv(table, self.inputs, workloads.CV_C2)
        return checks.check_rj(table, self.exact_posterior())

    def ess(self):
        if self.name not in RJ or self.first_table is None:
            return None
        return checks.top_model_ess(self.first_table, self.exact_posterior())

    def reference_note(self):
        if self.first_sha is None:
            return "no output"
        refs = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
        known = refs.get(self.name, {}).get(str(self.seed))
        if known is None:
            return f"sha256 {self.first_sha} (no reference for this seed)"
        if known == self.first_sha:
            return f"sha256 {self.first_sha} matches the reference"
        return (f"sha256 {self.first_sha} differs from the reference "
                f"{known} (informational)")


def _alternate(seconds, start, ops):
    """Run each operation in ops at least once, then keep running them
    while the next is expected to end within `seconds` of start. Each
    operation returns the seconds it took, or None if it failed. The next
    one is always the one that has taken the least time so far, so short
    operations collect more samples than long ones."""
    spent = [0.0] * len(ops)
    count = [0] * len(ops)
    while True:
        k = spent.index(min(spent))
        if all(count) and (time.perf_counter() - start
                           + spent[k] / count[k] > seconds):
            return
        t0 = time.perf_counter()
        took = ops[k]()
        spent[k] += took if took is not None else time.perf_counter() - t0
        count[k] += 1


def speed_probe():
    """Seconds for a fixed mix of the work the workloads do: interpreter
    arithmetic and small dense factorizations and solves. It makes almost
    no objects the garbage collector tracks, and runs with the collector
    off, so none of the program's collection work is timed as probe time
    and the slowdown does not depend on the program's heap."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        acc = 0
        for i in range(3000):
            acc += i * i
        a = np.eye(6) * 2.0 + 0.1
        b = np.ones(6)
        for _ in range(30):
            L = np.linalg.cholesky(a)
            b = np.linalg.solve(L.T, np.linalg.solve(L, b)) + 1.0
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


class Ticker:
    """SIGALRM ticks while one operation runs. With probing on, each tick
    (every PROBE_PERIOD_S) times speed_probe(); this process and its
    children share one CPU, so the probes interleave with the operation on
    the CPU it runs on. Every tick also kills `child`, and the session it
    leads, once it has run for CHILD_TIMEOUT_S."""

    def __init__(self, probing):
        self.probing = probing
        self.probes = []
        self.child = None
        self._start = None

    def _tick(self, *_):
        if self.probing:
            self.probes.append(speed_probe())
        if (self.child is not None and self.child.poll() is None
                and time.perf_counter() - self._start > CHILD_TIMEOUT_S):
            os.killpg(self.child.pid, signal.SIGKILL)

    def __enter__(self):
        self._start = time.perf_counter()
        period = PROBE_PERIOD_S if self.probing else 1.0
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, period, period)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)

    def timing(self, elapsed):
        """(seconds net of probe time, slowdown against PROBE_REFERENCE_S;
        None without probes)."""
        if not self.probes:
            return elapsed, None
        return (elapsed - sum(self.probes),
                statistics.median(self.probes) / PROBE_REFERENCE_S)


def _median(values):
    return statistics.median(values) if values else float("nan")


def measure(run, seconds):
    """End-to-end metrics with tracing off."""
    start = time.perf_counter()
    run.probing = True
    run.op(run.setup_once)
    run.op(run.in_process_once)
    setups, walls, tasks, rss = [], [], [], []

    def sample(fn, timings):
        got = run.op(fn)
        if got is None:
            return None
        if fn == run.cli_once:
            got, mb = got
            rss.append(mb)
        timings.append(got)
        return got[0]

    for _ in range(SETUP_REPS):
        sample(run.setup_once, setups)
    _alternate(seconds, start, (lambda: sample(run.cli_once, walls),
                                lambda: sample(run.in_process_once, tasks)))
    (run.work / "samples.json").write_text(json.dumps(
        {"setup_s": setups, "wall_s": walls, "task_s": tasks,
         "peak_rss_mb": rss}) + "\n")

    def scaled(timings):
        return _median([t / slow for t, slow in timings])

    metrics = {"setup_s": (scaled(setups), "s"),
               "wall_s": (scaled(walls), "s"),
               "task_s": (scaled(tasks), "s"),
               "peak_rss_mb": (_median(rss), "MB")}
    raw = ", ".join(f"{k} {_median([t for t, _ in v]):.4g} s"
                    for k, v in (("setup", setups), ("wall", walls),
                                 ("task", tasks)))
    notes = [f"samples: setup {len(setups)}, cli {len(walls)}, "
             f"in-process {len(tasks)}",
             f"unscaled medians: {raw}; median slowdown "
             f"{_median([s for _, s in setups + walls + tasks]):.3f}"]
    ess = run.ess()
    if ess is not None and tasks:
        notes.append(f"ess_per_s {ess / metrics['task_s'][0]:.6g} 1/s "
                     f"(ESS {ess:.6g} of the top exact model over task_s)")
    if run.name == "sweep-p15":
        notes.append(_roadmap("CLI sweep end to end", metrics["wall_s"][0],
                              "s", ROADMAP["sweep_wall_s"]))
    return metrics, notes


def _roadmap(what, value, unit, figure):
    return (f"roadmap {what}: {value:.4g} {unit} here, {figure:g} {unit} "
            "in ROADMAP")


def measure_layers(run, seconds):
    """Per-layer metrics from traced in-process runs."""
    start = time.perf_counter()
    run.op(run.in_process_once)
    imports = [s for s in (run.op(run.import_once)
                           for _ in range(IMPORT_REPS)) if s is not None]
    untraced, traced, tables = [], [], []
    counts, chains, last = [], [], {}

    def traced_once():
        tracer = tracing.Tracer()
        elapsed, _ = run.in_process_once(tracer)
        spans = tracer.spans()
        table = tracing.layer_table(spans, tracer.names)
        calls = ({n: row["calls"] for n, row in table.items()},
                 tracer.counts())
        if counts and calls != counts[0]:
            raise Failure("call counts differ between traced runs")
        counts.append(calls)
        tables.append(table)
        chains.append(_chain_stats(spans, tracer))
        last["tracer"] = tracer
        return elapsed

    def plain():
        got = run.op(run.in_process_once)
        if got is not None:
            untraced.append(got[0])
            return got[0]
        return None

    def with_tracer():
        got = run.op(traced_once)
        if got is not None:
            traced.append(got)
        return got

    _alternate(seconds, start, (plain, with_tracer))
    if "tracer" in last:
        last["tracer"].save(run.work / "spans.npz")
    metrics = {}
    for name in tracing.NAMES:
        key = _metric_name(name)
        rows = [t[name] for t in tables]
        metrics[f"{key}.calls"] = (rows[0]["calls"] if rows else 0, "count")
        metrics[f"{key}.total_s"] = (_median([r["total_s"] for r in rows]),
                                     "s")
        metrics[f"{key}.self_s"] = (_median([r["self_s"] for r in rows]), "s")
    extra = counts[0][1] if counts else {}
    for mod, qual in tracing.COUNTED:
        name = f"{mod}.{qual}"
        metrics[f"{_metric_name(name)}.calls"] = (extra.get(name, 0), "count")
    chol = metrics["linalg.chol_factor.calls"][0]
    metrics["linalg.chol_factor.per_unit"] = (chol / run.inputs.units,
                                              "1/unit")
    chain = chains[0] if chains else {}
    metrics["rj_sampler.iterations"] = (chain.get("iterations", 0), "count")
    metrics["rj_sampler.jump_accept_ratio"] = (chain.get("jump", 0.0),
                                               "ratio")
    metrics["rj_sampler.within_accept_ratio"] = (chain.get("within", 0.0),
                                                 "ratio")
    metrics["rj_sampler.chain_us_per_iter"] = (
        _median([c["us_per_iter"] for c in chains if c]) if chain else 0.0,
        "us")
    ess = run.ess()
    metrics["rj_sampler.ess_per_s"] = (
        ess / _median(untraced) if ess is not None and untraced else 0.0,
        "1/s")
    metrics["trace_overhead_s"] = (_median(traced) - _median(untraced), "s")

    notes = [f"samples: untraced {len(untraced)}, traced {len(traced)}, "
             "all outputs checked byte-identical; "
             f"units: {run.inputs.units} per {run.inputs.unit_name}",
             _roadmap("import jointbma", _median(imports), "s",
                      ROADMAP["import_s"])]
    if run.name == "sweep-p15":
        notes.append(_roadmap(
            "enumerate_linear_models(15)",
            metrics["model_space.enumerate_linear_models.total_s"][0], "s",
            ROADMAP["enumerate_linear_models_s"]))
        notes.append(_roadmap(
            "all_subsets_stats", metrics["linear_exact.all_subsets_stats"
                                         ".total_s"][0], "s",
            ROADMAP["all_subsets_stats_s"]))
    if run.name == "cv-p6":
        notes.append(_roadmap(
            "exact cv per model-fold",
            1e6 * metrics["linear_exact.cv_score.total_s"][0]
            / run.inputs.units, "us", ROADMAP["cv_us_per_model_fold"]))
    if run.name == "rj-loglinear-64":
        notes.append(_roadmap(
            "joint RJ per iteration (traced)",
            metrics["rj_sampler.chain_us_per_iter"][0], "us",
            ROADMAP["joint_rj_us_per_iter"]))
    return metrics, notes


def _chain_stats(spans, tracer):
    """Counts from the chain rjmcmc_run returned, and the chain's own time:
    from the end of its last per-model set-up child to its own end."""
    chains = tracer.results["rj_sampler.rjmcmc_run"]
    if not chains:
        return {}
    chain = chains[0]
    fid = tracer.names.index("rj_sampler.rjmcmc_run")
    pos = int((spans["func"] == fid).nonzero()[0][0])
    sid, end = spans["span"][pos], spans["end"][pos]
    per_iter = [tracer.names.index(n) for n in PER_ITERATION]
    setup = (spans["parent"] == sid) & ~(spans["func"][:, None]
                                         == per_iter).any(axis=1)
    setup_end = spans["end"][setup].max() if setup.any() else \
        spans["start"][pos]
    iterations = int(chain.model_index.shape[0])
    return {"iterations": iterations,
            "jump": chain.accept_jump / max(chain.attempt_jump, 1),
            "within": chain.accept_within / max(chain.attempt_within, 1),
            "us_per_iter": 1e6 * float(end - setup_end) / iterations}


def run_workload(name, seed, seconds, trace):
    run = Run(name, seed)
    if trace:
        metrics, notes = measure_layers(run, seconds)
    else:
        metrics, notes = measure(run, seconds)
    notes.append(run.reference_note())
    notes.append(f"failed_frac {run.failed / max(run.attempted, 1):.6g} "
                 f"({run.failed} of {run.attempted} operations)")
    for key, (value, unit) in metrics.items():
        print(f"{name} {key} = {value!r} {unit}")
    for note in notes:
        print(f"{name} {note}")
    return run, metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.BUILDERS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "jointbma" / "__init__.py").is_file():
        print(f"error: no jointbma package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # One CPU for this process and its children, so the speed probes
    # time the same CPU that runs the operations: the two CPUs of a
    # small shared machine slow down largely independently.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    names = list(workloads.BUILDERS) if args.workload == "all" \
        else [args.workload]
    attempted = failed = 0
    out = {}
    for name in names:
        run, metrics = run_workload(name, args.seed, args.seconds,
                                    args.trace)
        attempted += run.attempted
        failed += run.failed
        prefix = f"{name}." if len(names) > 1 else ""
        out.update({prefix + k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()})
    if any(v["value"] != v["value"] for v in out.values()):
        print("error: a metric has no successful sample", file=sys.stderr)
        return 1
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
