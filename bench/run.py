"""retromech benchmark: CLI sessions and an in-process library sweep.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the program is imported from
``src/``). One closed-loop client runs one job at a time; every CLI job
is a fresh ``python -m retromech`` process, as a user at a shell would
run it. Workloads:

* ``cli_desk``: default-size invocations of all six subcommands, output
  to stdout. Interpreter start-up and imports dominate, so import changes
  show here, and kernel, march and formatting changes must not. Three
  known-defect probes run once per run, untimed, and count only in
  ``failed_ratio``.
* ``cli_large``: large-n invocations writing files, where the
  convolution, the RK4 march, CSV formatting and LAPACK dominate.
* ``library_sweep``: many mid-size library calls in one process after
  import, without formatting (``bench/sweep.py``).

With ``--trace 0`` the run reports the end-to-end metrics: ``setup_s``
(fresh interpreters running ``import retromech.cli``, sampled between jobs
all through the run; ``bench/startup.py``),
``pass_s`` (one pass through the job list: the sum of its job walls),
one ``<subcommand>_s`` per subcommand (one CLI invocation, or on
``library_sweep`` the in-process library work of that subcommand) and
``peak_rss_mb`` (largest peak RSS of any job, from the job's own
``wait4`` rusage). Timings are medians over blocks of passes; see
:func:`blocks`. With ``--trace 1`` it
reports per-layer figures from spans wrapped around the layer boundaries
(``bench/spans.py``) and import times from ``python -X importtime``.

Every output is checked against a closed-form oracle (``bench/checks.py``).
A readable report goes to stderr and a run record to
``.bench_work/records/``; the last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib.metadata import PackageNotFoundError, version

import spans
import startup
import workloads

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
BLOCK_S = 4.0
RUN_LIMIT_S = 170.0  # a run never takes longer; a stuck job is killed
COMMANDS = ("fracdiff", "derive-eom", "oscillate", "eigensolve", "dampedwave",
            "verify")
WORKLOADS = ("cli_desk", "cli_large", "library_sweep")


class Launcher:
    """Starts jobs through ``bench/launcher.py`` so that each job's peak RSS
    is its own, and kills any job still running at the run's time limit."""

    def __init__(self, seconds):
        self.end = time.monotonic() + seconds
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(BENCH, "launcher.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            env=dict(os.environ, PYTHONPATH=SRC))

    def run(self, argv, stdout, stderr):
        """Run argv to completion; returns (exit code or None if killed, wall
        seconds, the job's own peak RSS in KiB)."""
        left = max(self.end - time.monotonic(), 0.1)
        request = {"argv": argv, "stdout": stdout, "stderr": stderr, "timeout": left}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        reply = json.loads(self.proc.stdout.readline())
        return reply["code"], reply["wall_s"], reply["maxrss_kib"]

    def spawn(self, argv, stdout, stderr):
        """``run`` without the peak RSS, for :class:`startup.Sampler`."""
        return self.run(argv, stdout, stderr)[:2]

    def expired(self):
        return time.monotonic() >= self.end

    def close(self):
        self.proc.stdin.close()
        self.proc.wait()
        self.proc.stdout.close()


def _read(path):
    with open(path, encoding="utf-8") as handle:
        return handle.read()


# --------------------------------------------------------------------------
# statistics


def tail(samples):
    """Highest of p50/p90/p99 with at least ten samples beyond it, as
    (label, value); (None, None) when there are fewer than 20 samples."""
    ordered = sorted(samples)
    for p in (99, 90, 50):
        beyond = len(ordered) * (100 - p) // 100
        if beyond >= 10:
            return f"p{p}", ordered[len(ordered) - beyond - 1]
    return None, None


def summary(samples, unit, raw=None):
    """Median of ``samples``; the tail percentile comes from ``raw`` (the
    single measurements behind them), which defaults to the samples."""
    raw = samples if raw is None else raw
    label, value = tail(raw)
    return {"value": statistics.median(samples), "unit": unit, "n": len(samples),
            "raw": len(raw), "tail": label, "tail_value": value}


# --------------------------------------------------------------------------
# CLI workloads


def run_cli(name, params, seconds, trace, work, launcher):
    jobs = workloads.CLI_WORKLOADS[name](params)
    result = {"passes": [], "errors": [], "probes": {}, "peak_rss_kib": 0}
    sampler = startup.Sampler(launcher.spawn, work, trace)
    if name == "cli_desk":
        for probe in workloads.PROBES:
            out, err = os.path.join(work, "probe.out"), os.path.join(work, "probe.err")
            code, _, _ = launcher.run([sys.executable, "-m", "retromech", *probe.argv],
                                      out, err)
            try:
                result["probes"][probe.name] = probe.classify(code, _read(out),
                                                              _read(err))
            except (AssertionError, ValueError, KeyError, IndexError) as exc:
                result["errors"].append(f"{probe.name}: unexpected outcome: {exc}")

    # with tracing, every job runs untraced and then traced, both through
    # bench/child.py, so the two runs of a pair see the same moment of the
    # host and differ only in the span wrappers: their difference is the
    # tracing overhead. Every run makes at least two passes of each kind,
    # so that a run has two blocks and the check that counts repeat between
    # traced passes can fail.
    modes = (False, True) if trace else (False,)
    checked = {}  # job name -> outputs that passed its check
    measured = 0.0
    while ((len(result["passes"]) < 2 * len(modes) or measured < seconds)
           and not launcher.expired()):
        records = [{"traced": traced, "jobs": [], "layers": None, "coverage": []}
                   for traced in modes]
        for job in jobs:
            try:
                sampler.maybe(measured, records[0])
            except RuntimeError as exc:
                result["errors"].append(str(exc))
                return result
            for record in records:
                row = run_job(job, trace, record["traced"], work, launcher, checked,
                              result["errors"])
                measured += row["wall_s"]
                result["peak_rss_kib"] = max(result["peak_rss_kib"], row["rss_kib"])
                tree = row.pop("spans", None)
                if tree is not None:
                    record["layers"] = spans.add(record["layers"],
                                                 spans.layer_figures(tree["spans"]))
                    record["coverage"].append(
                        (job.name, spans.root_ns(tree["spans"]) / tree["main_ns"]))
                record["jobs"].append(row)
        for record in records:
            # the pass is its jobs back to back, without the checks between them
            record["pass_s"] = sum(row["wall_s"] for row in record["jobs"])
            if record["traced"]:
                record["layers"] = record["layers"] or spans.layer_figures([])
                record["layers"]["cli.bytes_out"] = sum(row["bytes_out"]
                                                        for row in record["jobs"])
            result["passes"].append(record)
    return result


def run_job(job, trace, traced, work, launcher, checked, errors):
    """Run one CLI job, check its output and remove the files it wrote.

    In a traced run (``trace``) the job goes through ``bench/child.py``,
    with spans only if ``traced``; otherwise it is ``python -m retromech``
    as a user runs it."""
    out, err, spans_file = (os.path.join(work, f"job.{ext}")
                            for ext in ("out", "err", "spans"))
    path = os.path.join(work, job.output) if job.output else None
    argv = list(job.argv) + (["--output", path] if path else [])
    if trace:
        prefix = [sys.executable, os.path.join(BENCH, "child.py"),
                  spans_file if traced else "-"]
    else:
        prefix = [sys.executable, "-m", "retromech"]
    code, wall, rss = launcher.run(prefix + argv, out, err)
    row = {"name": job.name, "command": job.command, "code": code, "wall_s": wall,
           "rss_kib": rss, "ok": code == 0}
    stdout = _read(out)
    text = _read(path) if path and os.path.exists(path) else None
    row["bytes_out"] = len(stdout.encode()) + (len(text.encode()) if text else 0)
    if not row["ok"]:
        errors.append(f"{job.name}: exit {code}: {_read(err).strip()}")
    elif checked.get(job.name) != (stdout, text):
        try:
            job.check(stdout, text)
            checked[job.name] = (stdout, text)
        except (AssertionError, ValueError, KeyError, IndexError) as exc:
            row["ok"] = False
            errors.append(f"{job.name}: {exc}")
    if text is not None:
        os.unlink(path)
    if traced and os.path.exists(spans_file):
        row["spans"] = json.loads(_read(spans_file))
        os.unlink(spans_file)
        try:
            spans.check_arithmetic(row["spans"]["spans"])
        except ValueError as exc:
            errors.append(f"{job.name}: span arithmetic: {exc}")
    return row


# --------------------------------------------------------------------------
# library sweep


def run_sweep(seed, seconds, trace, work, launcher):
    out = os.path.join(work, "sweep.json")
    log = os.path.join(work, "sweep.log")
    argv = [sys.executable, os.path.join(BENCH, "sweep.py"), "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(int(trace)), "--out", out,
            "--work", work]
    code, _, rss = launcher.run(argv, os.devnull, log)
    result = {"passes": [], "errors": [], "probes": {}, "peak_rss_kib": rss}
    if code != 0 and not os.path.exists(out):
        result["errors"].append(f"sweep worker exited {code}: {_read(log)[-2000:]}")
        return result
    doc = json.loads(_read(out))
    if doc["error"]:
        result["errors"].append(doc["error"])
    for raw in doc["passes"]:
        traced = raw.get("layers") is not None
        result["passes"].append({
            "traced": traced,
            "pass_s": raw["pass_s"],
            "jobs": [{"name": c, "command": c, "code": 0, "ok": True, "wall_s": w,
                      "rss_kib": rss, "bytes_out": 0} for c, w in raw["jobs"].items()],
            "layers": dict(raw["layers"], **{"cli.bytes_out": 0}) if traced else None,
            "coverage": list(raw["coverage"].items()),
            "setup": raw.get("setup", []),
            "imports": raw.get("imports", []),
        })
    return result


# --------------------------------------------------------------------------
# metrics


def blocks(passes):
    """Group consecutive passes into blocks of at least BLOCK_S seconds.

    The host alternates between a fast and a slow speed state that last
    seconds; a sample shorter than that lands wholly in one state, and a
    median over such samples jumps between the two. A block spans several
    state changes, so the median over blocks moves smoothly."""
    out, current = [], []
    for record in passes:
        current.append(record)
        if sum(p["pass_s"] for p in current) >= BLOCK_S:
            out.append(current)
            current = []
    if current and not out:
        out.append(current)
    elif current:
        out[-1].extend(current)
    return out


def end_to_end(result):
    """Median over blocks of the mean set-up wall, the mean pass wall and
    the mean wall of one invocation of each subcommand; the tail
    percentile is taken over the single samples."""
    groups = blocks([p for p in result["passes"] if not p["traced"]])
    per_block = [sum(p["pass_s"] for p in g) / len(g) for g in groups]
    setup = [[x for p in g for x in p.get("setup", [])] for g in groups]
    metrics = {"setup_s": summary([statistics.fmean(w) for w in setup if w], "s",
                                  [x for w in setup for x in w]),
               "pass_s": summary(per_block, "s",
                                 [p["pass_s"] for g in groups for p in g])}
    for command in COMMANDS:
        walls = [[j["wall_s"] for p in g for j in p["jobs"] if j["command"] == command]
                 for g in groups]
        metrics[command.replace("-", "_") + "_s"] = summary(
            [statistics.fmean(w) for w in walls], "s", [x for w in walls for x in w])
    jobs = sum(len(p["jobs"]) for g in groups for p in g)
    metrics["peak_rss_mb"] = single(result["peak_rss_kib"] / 1024, "MB", jobs)
    return metrics


def single(value, unit, n):
    """A figure that is not a median of timings: a count, maximum or ratio."""
    return {"value": value, "unit": unit, "n": n, "raw": n, "tail": None,
            "tail_value": None}


def per_layer(result):
    traced = [p for p in result["passes"] if p["traced"]]
    plain = [p for p in result["passes"] if not p["traced"]]
    imports = [i for p in result["passes"] for i in p.get("imports", [])]
    metrics = {}
    for package in ("numpy", "scipy", "retromech"):
        metrics[f"import.{package}_s"] = summary([i[package] for i in imports], "s")
    for metric in spans.TIME_METRICS:
        metrics[metric] = summary([p["layers"][metric] for p in traced], "s")
    for metric in list(spans.COUNT_METRICS) + ["cli.bytes_out"]:
        values = {p["layers"][metric] for p in traced}
        if len(values) != 1:
            result["errors"].append(f"{metric} differs between passes: {sorted(values)}")
        unit = "bytes" if metric == "cli.bytes_out" else "count"
        metrics[metric] = single(values.pop(), unit, len(traced))
    steps = metrics["core.march_steps"]["value"]
    metrics["core.march_ns_per_step"] = single(
        metrics["core.march_s"]["value"] / steps * 1e9 if steps else 0.0, "ns",
        len(traced))
    overhead = (statistics.median(p["pass_s"] for p in traced)
                - statistics.median(p["pass_s"] for p in plain))
    metrics["trace.overhead_s"] = single(overhead, "s", len(traced))
    coverage = [share for p in traced for _, share in p["coverage"]]
    metrics["trace.span_coverage"] = single(min(coverage), "ratio", len(coverage))
    return metrics


# --------------------------------------------------------------------------
# run record and report


def machine():
    """Versions, core count, CPU model and cache sizes of this host."""
    info = {"python": platform.python_version(), "nproc": len(os.sched_getaffinity(0)),
            "cpu_model": None, "caches_cpu0": {}, "git_sha": git_sha()}
    for package in ("numpy", "scipy"):
        try:
            info[package] = version(package)
        except PackageNotFoundError:
            info[package] = None
    try:
        for line in _read("/proc/cpuinfo").splitlines():
            if line.startswith("model name"):
                info["cpu_model"] = line.split(":", 1)[1].strip()
                break
        base = "/sys/devices/system/cpu/cpu0/cache"
        for index in sorted(os.listdir(base)):
            level = _read(os.path.join(base, index, "level")).strip()
            kind = _read(os.path.join(base, index, "type")).strip()
            if kind != "Instruction":
                info["caches_cpu0"][f"L{level}"] = _read(os.path.join(base, index,
                                                                 "size")).strip()
    except OSError:
        pass
    return info


def git_sha():
    """Commit of the checkout, or None outside a git checkout; git does not
    look above the checkout's root."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT)))
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def report(name, args, params, result, metrics, record_path):
    lines = [f"retromech benchmark  workload={name} seed={args.seed} "
             f"trace={args.trace} seconds={args.seconds}",
             f"params {params}",
             f"{'metric':26} {'value':>14} {'unit':6} {'n':>4} {'raw':>5}  tail"]
    for metric, m in metrics.items():
        tail_text = f"{m['tail']}={m['tail_value']:.6g}" if m["tail"] else "-"
        lines.append(f"{metric:26} {m['value']:14.6g} {m['unit']:6} {m['n']:4} "
                     f"{m['raw']:5}  {tail_text}")
    attempted, failed = counts(result)
    probes = result["probes"]
    defects = sum(outcome == "defect" for outcome in probes.values())
    total = attempted + len(probes)
    lines.append(f"{'failed_ratio':26} {(failed + defects) / total:14.6g} {'ratio':6} "
                 f"{total:4} {total:5}  {failed + defects} failed of {total} attempted "
                 f"({failed} timed jobs, {defects} of {len(probes)} probes)")
    for probe, outcome in probes.items():
        lines.append(f"  probe {probe}: {outcome}")
    traced = [p for p in result["passes"] if p["traced"]]
    for job, share in (traced[0]["coverage"] if traced else []):
        lines.append(f"  span coverage {job}: {share:.4f}")
    for error in result["errors"]:
        lines.append(f"  ERROR {error}")
    lines.append(f"record {os.path.relpath(record_path, ROOT)}")
    print("\n".join(lines), file=sys.stderr)


def counts(result):
    jobs = [j for p in result["passes"] for j in p["jobs"]]
    return len(jobs), sum(not j["ok"] for j in jobs)


# --------------------------------------------------------------------------


def run_workload(name, args):
    params = workloads.draw(args.seed)
    work = os.path.join(WORK, f"{name}-{args.seed}-{args.trace}-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    launcher = Launcher(RUN_LIMIT_S)
    try:
        if name == "library_sweep":
            result = run_sweep(args.seed, args.seconds, args.trace, work, launcher)
        else:
            result = run_cli(name, params, args.seconds, args.trace, work, launcher)
    finally:
        launcher.close()
        shutil.rmtree(work, ignore_errors=True)
    metrics = {}
    if result["passes"]:
        metrics = per_layer(result) if args.trace else end_to_end(result)
    attempted, failed = counts(result)
    record = {"workload": name, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "params": vars(params), "machine": machine(),
              "metrics": metrics,
              "result": result}
    os.makedirs(os.path.join(WORK, "records"), exist_ok=True)
    record_path = os.path.join(WORK, "records",
                               f"{name}-seed{args.seed}-trace{args.trace}.json")
    with open(record_path, "w") as handle:
        json.dump(record, handle, indent=1)
    report(name, args, params, result, metrics, record_path)
    return {"correct": not result["errors"] and bool(metrics),
            "attempted": max(attempted, 1), "failed": failed,
            "metrics": {k: {"value": m["value"], "unit": m["unit"]}
                        for k, m in metrics.items()}}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "retromech", "cli.py")):
        print(f"error: no retromech sources under {SRC}; run from the root of a "
              "retromech checkout", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        results[name] = run_workload(name, args)
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
