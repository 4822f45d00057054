"""A/B harness of two source trees: byte comparison of their CLI runs and
before/after measurements for the BENCH_*.json files.

    python3 tools/ab.py diff PARENT CHANGE --seeds S0 S1 > diff.json
    python3 tools/ab.py jobs-rss PARENT CHANGE --workload W --seeds S0 S1 > jobs.json
    python3 tools/ab.py bench PARENT CHANGE --workload W --seeds S0 S1 \\
        [--trace 0|1] > W.json
    python3 tools/ab.py report --what TEXT --layer TEXT \\
        [--claim WORKLOAD METRIC DROP] --bench W.json [W2.json ...] \\
        --parent-commit REV [--jobs-rss jobs.json] > report.json

PARENT and CHANGE are the roots of two source checkouts, S0 .. S1 seeds.
Each mode prints one JSON document; ``jobs-rss`` and ``bench`` run one
pair per seed, alternating which tree goes first. ``report`` summarizes
their documents in one report, a committed file or one entry of the lists
BENCH_memory.json and BENCH_dampedwave.json (oldest first), with the
``what``, ``layer`` and ``claim`` its flags give (``null``: no gain).

* ``diff`` runs argv lists through each tree's ``cli.main``, one
  interpreter per tree (the hidden mode ``_worker ROOT``), each list in a
  temporary directory that holds only README's ``run.json``, warnings
  ``"always"``. The lists come from the checkout this tool runs from, each
  once: README's ``retromech`` lines; the ``cli_desk`` and ``cli_large``
  jobs of ``bench/workloads.py`` per seed, and its probes; each ``argv``
  of a ``pytest.mark.parametrize`` in ``tests/test_cli.py``; and per seed
  the draws of each ``argv`` property of ``tests/test_properties.py``
  under ``hypothesis.seed(seed)``, with no example database.
* ``jobs-rss`` runs the jobs of the CLI workload W through each tree's
  ``bench/launcher.py``, which reads their ``wait4`` rusage: each job's own
  peak RSS and its wall time.
* Both compare outcomes: exit code (an exception that escapes ``main`` is
  one), stdout, stderr (the tree's root path read as ``ROOT``) and the
  name and bytes of each file left. They list every run whose outcomes
  differ, grouped by subcommand, exit-code transition and the streams
  that differ, with counts, and then exit 1 if any does.
* ``bench`` keeps the report of ``python3 bench/run.py --workload W --seed
  S --seconds 20 --trace T`` run from each root.
* ``report`` gives medians, quartiles and pair wins of every sample set,
  whether its median gap is wider than the parent's IQR (``resolved``:
  where it is not, as for a peak-RSS change below the heap-layout noise of
  a few seeds, the set tells the trees apart in neither direction), and
  the median and quartiles of the change/parent ratio of each pair, which
  cancel host load shared by the pair's two runs, as figures. ``resolved``
  is the one resolution rule: given ``--claim``, METRIC of WORKLOAD (trace
  off) is met where its median is at least DROP lower than the parent's,
  lower in 90 % of the pairs or more, and ``resolved``.

Up to commit 8893fc5 this tool was ``tools/bench_dampedwave.py``, the
``harness`` its older report entries name. The ``in_process``, ``cli``
and ``rss`` sections of BENCH_dampedwave.json came from modes last
present here at commit f408d30. They timed
``damped_well_modes(0.5, 1.0, count=C)`` call by call, both trees loaded
in one process; ``dampedwave --xi 0 --well 1 --count 20000 --output F`` in
fresh processes; and the peak RSS and time of one such call in a fresh
process, also with every mode shot as one stack.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import inspect
import io
import json
import os
import pathlib
import platform
import shlex
import statistics
import subprocess
import sys
import tempfile
import traceback
import warnings

SIDES = ("parent", "change")

#: the checkout this tool runs from, whose files make up the ``diff`` corpus
HERE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: the claimed metric must be lower in at least this share of the pairs
CLAIM_WINS = 0.9


def _orders(pairs):
    """Which side runs first, alternating pair by pair."""
    return [SIDES if i % 2 == 0 else SIDES[::-1] for i in range(pairs)]


def _env(root):
    return dict(os.environ, PYTHONPATH=os.path.join(root, "src"))


def _outcome(root, code, stdout, stderr, files):
    """A run's exit code, digests of its streams and files, and its stderr text."""
    def digest(data):
        return hashlib.sha256(data).hexdigest()
    stderr = stderr.replace(os.path.abspath(root).encode(), b"ROOT")
    return {"code": code, "stdout": digest(stdout), "stderr": digest(stderr),
            "files": {name: digest(data) for name, data in sorted(files.items())},
            "text": stderr.decode(errors="replace")}


def _differences(runs):
    """The (argv, parent outcome, change outcome) triples whose outcomes differ,
    grouped by subcommand, exit-code transition and the streams that differ."""
    groups = {}
    for argv, parent, change in runs:
        streams = [s for s in ("stdout", "stderr", "files") if parent[s] != change[s]]
        if parent["code"] == change["code"] and not streams:
            continue
        key = (f"{' '.join(argv[:1])}: exit {parent['code']} -> {change['code']}, "
               f"{'+'.join(streams) or 'same streams'}")
        groups.setdefault(key, []).append(
            {"argv": argv, "parent": parent["text"], "change": change["text"]})
    groups = {key: {"count": len(g), "runs": g} for key, g in sorted(groups.items())}
    differing = sum(group["count"] for group in groups.values())
    return {"compared": len(runs), "differing": differing, "groups": groups}


def _import(folder, name):
    """Module ``name`` of this checkout's FOLDER, with ``retromech`` from its src/."""
    for path in (os.path.join(HERE, "src"), os.path.join(HERE, folder)):
        if path not in sys.path:
            sys.path.insert(0, path)
    return importlib.import_module(name)


def _job_argv(job):
    return [*job.argv, *(["--output", job.output] if job.output else [])]


def _marked_lists():
    """Every ``argv`` value of a ``pytest.mark.parametrize`` in tests/test_cli.py."""
    lists = []
    for value in vars(_import("tests", "test_cli")).values():
        for fn in vars(value).values() if inspect.isclass(value) else [value]:
            marks = [m for m in getattr(fn, "pytestmark", ()) if m.name == "parametrize"]
            for names, rows in (mark.args for mark in marks):
                names = names.replace(" ", "").split(",")
                for row in rows if "argv" in names else ():
                    # a pytest.param holds its row in ``values``
                    row = getattr(row, "values", row if len(names) > 1 else (row,))
                    lists.append(row[names.index("argv")])
    return [argv for argv in lists if isinstance(argv, list)]


def _drawn_lists(seeds):
    """Per seed, the draws of each ``argv`` property of tests/test_properties.py."""
    import hypothesis
    lists = []
    for test in vars(_import("tests", "test_properties")).values():
        handle = getattr(test, "hypothesis", None)
        if not (inspect.isfunction(test) and handle is not None
                and list(inspect.signature(handle.inner_test).parameters) == ["argv"]):
            continue
        inner, handle.inner_test = handle.inner_test, lambda argv: lists.append(argv)
        try:
            for seed in seeds:
                hypothesis.seed(seed)(test)()  # the seed also drops the database
        finally:
            handle.inner_test = inner
    return lists


def _corpus(seeds):
    """The ``diff`` corpus of this checkout, each argv list once."""
    with open(os.path.join(HERE, "README.md"), encoding="utf-8") as handle:
        lists = [shlex.split(line, comments=True)[1:] for line in handle
                 if line.startswith("retromech ")]
    workloads = _import("bench", "workloads")
    lists += [list(probe.argv) for probe in workloads.PROBES]
    for seed in seeds:
        for workload in workloads.CLI_WORKLOADS.values():
            lists += [_job_argv(job) for job in workload(workloads.draw(seed))]
    lists += _marked_lists() + _drawn_lists(seeds)
    return [list(argv) for argv in dict.fromkeys(map(tuple, lists))]


def _worker(args):
    """Outcomes of the argv lists on stdin (JSON) through the ``cli.main`` of the
    tree at ``args.root``, each in a directory with only README's ``run.json``."""
    from retromech.cli import main
    outcomes = []
    for argv in json.load(sys.stdin):
        out, err = (io.TextIOWrapper(io.BytesIO(), encoding="utf-8", write_through=True)
                    for _ in range(2))
        with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings(), \
                contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            os.chdir(tmp)
            with open("run.json", "w") as handle:
                json.dump({"command": "oscillate", "k": 4.0}, handle)
            warnings.simplefilter("always")
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            except Exception as exc:  # an escaping exception is an outcome of its own
                code = f"raised {type(exc).__name__}"
                err.write("".join(traceback.format_exception_only(exc)))
            files = {name: pathlib.Path(name).read_bytes() for name in os.listdir()}
            os.chdir(HERE)
        outcomes.append(_outcome(args.root, code, out.buffer.getvalue(),
                                 err.buffer.getvalue(), files))
    return outcomes


def _run_lists(root, lists):
    """The outcomes of ``lists`` on ROOT's tree, in one interpreter."""
    done = subprocess.run([sys.executable, os.path.abspath(__file__), "_worker", root],
                          input=json.dumps(lists), capture_output=True, text=True,
                          env=_env(root), check=True)
    return json.loads(done.stdout)


def diff(args):
    lists = _corpus(args.seeds)
    outcomes = [_run_lists(root, lists) for root in (args.parent, args.change)]
    return {"seeds": args.seeds, "differences": _differences([*zip(lists, *outcomes)])}


def _launch(root):
    """``bench/launcher.py`` of ROOT, starting its jobs on ROOT/src."""
    launcher = os.path.join(root, "bench", "launcher.py")
    return subprocess.Popen([sys.executable, launcher], stdin=subprocess.PIPE,
                            stdout=subprocess.PIPE, text=True, cwd=root, env=_env(root))


def _run_job(launcher, root, job, tmp):
    """The launcher's reply to one workload job, and the job's outcome."""
    out, err, path = (pathlib.Path(tmp, f"job.{ext}") for ext in ("out", "err", "file"))
    argv = [sys.executable, "-m", "retromech", *job.argv,
            *(["--output", str(path)] if job.output else [])]
    request = {"argv": argv, "stdout": str(out), "stderr": str(err), "timeout": 600}
    launcher.stdin.write(json.dumps(request) + "\n")
    launcher.stdin.flush()
    reply = json.loads(launcher.stdout.readline())
    files = {job.output: path.read_bytes()} if job.output else {}
    return reply, _outcome(root, reply["code"], out.read_bytes(), err.read_bytes(), files)


def jobs_rss(args):
    roots = {"parent": args.parent, "change": args.change}
    # started before numpy loads here, as bench/run.py starts its launcher
    launchers = {side: _launch(root) for side, root in roots.items()}
    workloads = _import("bench", "workloads")
    orders = _orders(len(args.seeds))
    samples = {"maxrss_mb": {}, "wall_s": {}}
    runs = []
    try:
        with tempfile.TemporaryDirectory() as tmp:
            for seed, order in zip(args.seeds, orders):
                jobs = workloads.CLI_WORKLOADS[args.workload](workloads.draw(seed))
                for job in jobs:
                    outcomes = {}
                    for side in order:
                        reply, outcomes[side] = _run_job(launchers[side], roots[side],
                                                         job, tmp)
                        reply["maxrss_mb"] = reply["maxrss_kib"] / 1024
                        for key, by_job in samples.items():
                            by_job.setdefault(job.name, {s: [] for s in SIDES})
                            by_job[job.name][side].append(reply[key])
                    runs.append((_job_argv(job), outcomes["parent"], outcomes["change"]))
    finally:
        for launcher in launchers.values():
            launcher.stdin.close()
            launcher.wait()
            launcher.stdout.close()
    return {"workload": args.workload, "seeds": args.seeds,
            "first": [order[0] for order in orders], **samples,
            "differences": _differences(runs)}


def bench(args):
    roots = {"parent": args.parent, "change": args.change}
    seeds = args.seeds
    runs = {side: [] for side in SIDES}
    orders = _orders(len(seeds))
    for seed, order in zip(seeds, orders):
        for side in order:
            done = subprocess.run(
                [sys.executable, "bench/run.py", "--workload", args.workload,
                 "--seed", str(seed), "--seconds", "20", "--trace", str(args.trace)],
                cwd=roots[side], capture_output=True, text=True, check=True)
            runs[side].append(json.loads(done.stdout.splitlines()[-1]))
    return {"workload": args.workload, "trace": args.trace, "seeds": seeds,
            "first": [order[0] for order in orders], "runs": runs}


def _summary(parent, change):
    """Medians and quartiles of paired samples, the pairs the change reads
    lower in, and whether the gap between the medians is wider than the
    parent's interquartile range: where it is not, the samples cannot tell
    the two trees apart (``resolved`` false).

    Also the median and quartiles of the change/parent ratio of each pair,
    whose two runs share the host's load, so a drift that moves both runs
    cancels in it; they are figures, not a second rule. A pair of zeros
    has ratio 1; a pair whose parent alone is zero has none, and with
    fewer than two ratios the ratio fields are null."""
    def quartiles(values):
        q = statistics.quantiles(values, n=4)
        return [q[0], q[2]]
    low, high = quartiles(parent)
    gap = statistics.median(change) - statistics.median(parent)
    ratios = [c / p if p else 1.0 for p, c in zip(parent, change) if p or not c]
    paired = quartiles(ratios) if len(ratios) > 1 else None
    return {"parent_median": statistics.median(parent),
            "parent_quartiles": [low, high],
            "change_median": statistics.median(change),
            "change_quartiles": quartiles(change),
            "change_lower": f"{sum(c < p for p, c in zip(parent, change))}/{len(parent)}",
            "resolved": abs(gap) > high - low,
            "ratio_median": statistics.median(ratios) if paired else None,
            "ratio_quartiles": paired,
            "parent": parent, "change": change}


def _bench_summary(doc):
    runs = doc["runs"]
    return {"seeds": doc["seeds"], "first": doc["first"],
            "correct": {s: [r["correct"] for r in runs[s]] for s in SIDES},
            "failed_jobs": {s: [r["failed"] for r in runs[s]] for s in SIDES},
            "attempted_jobs": {s: [r["attempted"] for r in runs[s]] for s in SIDES},
            "metrics": {m: _summary(*([r["metrics"][m]["value"] for r in runs[s]]
                                      for s in SIDES))
                        for m in runs["parent"][0]["metrics"]}}


def _claim(bench_runs, workload, metric, min_drop):
    """Whether METRIC of WORKLOAD (trace off) meets the claimed gain in each
    run of it: the drop, the pair wins, and a ``resolved`` gap below zero."""
    text = (f"{workload} {metric} at least {min_drop:.0%} lower than the parent, "
            f"change lower in at least {CLAIM_WINS:.0%} of the pairs, median gap "
            "larger than the parent IQR")
    claim = {"text": text, "workload": workload, "metric": metric,
             "min_drop": min_drop, "runs": {}}
    for key, run in bench_runs.items():
        if key.startswith(f"{workload} trace 0"):
            s = run["metrics"][metric]
            lower, pairs = map(int, s["change_lower"].split("/"))
            drop = 1.0 - s["change_median"] / s["parent_median"]
            met = (drop >= min_drop and lower >= CLAIM_WINS * pairs and s["resolved"]
                   and s["change_median"] < s["parent_median"])
            claim["runs"][key] = {"drop": drop, "met": met}
    claim["met"] = (all(r["met"] for r in claim["runs"].values())
                    if claim["runs"] else None)
    return claim


def _host():
    versions = ", ".join(f"{name} {importlib.import_module(name).__version__}"
                         for name in ("numpy", "scipy"))
    return (f"{os.cpu_count()} CPUs ({platform.machine()}), {platform.system()}; "
            f"Python {platform.python_version()}, {versions}")


def report(args):
    def read(path):
        return json.loads(pathlib.Path(path).read_text())
    doc = {"what": args.what, "layer": args.layer, "parent_commit": args.parent_commit,
           "host": _host(),
           "harness": "tools/ab.py; see its docstring for each section"}
    if args.jobs_rss:
        jobs = read(args.jobs_rss)
        peaks = jobs["maxrss_mb"]
        largest = {side: [max(runs[side][i] for runs in peaks.values())
                          for i in range(len(jobs["seeds"]))] for side in SIDES}
        doc["jobs_rss"] = {"workload": jobs["workload"], "seeds": jobs["seeds"],
                           "first": jobs["first"],
                           "largest_job_mb": _summary(*largest.values()),
                           **{name: _summary(runs["parent"], runs["change"])
                              for name, runs in peaks.items()},
                           "wall_s": {name: _summary(runs["parent"], runs["change"])
                                      for name, runs in jobs["wall_s"].items()}}
    benches = {}
    for path in args.bench:
        run = read(path)
        key = (f"{run['workload']} trace {run['trace']} "
               f"seeds {run['seeds'][0]}-{run['seeds'][-1]}")
        benches[key] = _bench_summary(run)
    doc["claim"] = args.claim and _claim(benches, *args.claim[:2], float(args.claim[2]))
    doc["bench_run"] = benches
    return doc


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    pairs = {}
    for mode in ("diff", "jobs-rss", "bench"):
        p = pairs[mode] = sub.add_parser(mode)
        p.add_argument("parent")
        p.add_argument("change")
        p.add_argument("--seeds", type=int, nargs=2, default=(1101, 1110))
    # jobs-rss runs only the CLI workloads, so bench's library_sweep is no default
    pairs["jobs-rss"].add_argument("--workload", required=True)
    pairs["bench"].add_argument("--workload", default="library_sweep")
    pairs["bench"].add_argument("--trace", type=int, choices=(0, 1), default=0)
    sub.add_parser("_worker").add_argument("root")
    p = sub.add_parser("report")
    p.add_argument("--what", required=True, help="the change, in one paragraph")
    p.add_argument("--layer", required=True, help="the layer it moves and its spans")
    p.add_argument("--claim", nargs=3, metavar=("WORKLOAD", "METRIC", "DROP"),
                   help="the gain claimed, if any")
    p.add_argument("--jobs-rss")
    p.add_argument("--bench", nargs="+", required=True)
    p.add_argument("--parent-commit", required=True)
    args = parser.parse_args()
    if "seeds" in args:
        args.seeds = list(range(args.seeds[0], args.seeds[1] + 1))
    for name in ("parent", "change", "root"):  # the jobs run from inside each root
        if name in args:
            setattr(args, name, os.path.abspath(getattr(args, name)))
    result = {"diff": diff, "jobs-rss": jobs_rss, "bench": bench, "report": report,
              "_worker": _worker}[args.mode](args)
    json.dump(result, sys.stdout, indent=1)
    print()
    if isinstance(result, dict) and result.get("differences", {}).get("differing"):
        raise SystemExit(1)


if __name__ == "__main__":
    main()
