"""Smoke tests of the A/B harness ``tools/ab.py``: its
``diff`` worker, the grouping of differing outcomes, the corpus it reads
from ``tests/test_cli.py`` and the summary of paired samples."""

import importlib.util
import os
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_spec = importlib.util.spec_from_file_location(
    "ab", os.path.join(ROOT, "tools", "ab.py"))
tool = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tool)


def test_a_tree_against_itself_shows_no_difference():
    lists = [["derive-eom", "--lagrangian", "1*q[1] + 0.5*q[0.5]"],
             ["derive-eom", "--lagrangian", "1*q[1]", "--output", "eom.json"],
             ["--config", "run.json", "--n", "101"],
             ["oscillate", "--bogus"],
             ["eigensolve", "--potential", "well, 1", "--n", "0"]]
    runs = [tool._run_lists(ROOT, lists) for _ in range(2)]
    assert [outcome["code"] for outcome in runs[0]] == [0, 0, 0, 2, 1]
    assert list(runs[0][1]["files"]) == ["eom.json", "run.json"]
    assert runs[0][4]["text"].startswith("error: eigensolver.default_grid: ")
    assert tool._differences(list(zip(lists, *runs))) == {
        "compared": 5, "differing": 0, "groups": {}}


def _outcome(code, stdout="a", stderr="", files=(), text=""):
    return {"code": code, "stdout": stdout, "stderr": stderr, "files": dict(files),
            "text": text}


def test_differences_are_grouped_by_command_exit_codes_and_streams():
    runs = [
        (["oscillate", "--k", "1"], _outcome(0), _outcome(0)),
        (["oscillate", "--k", "2"], _outcome(1, text="old"), _outcome(1, text="new")),
        (["oscillate", "--k", "3"], _outcome(1, text="x"), _outcome(1, text="y")),
        (["fracdiff"], _outcome(0, files={"f": "1"}),
         _outcome(1, stdout="", files={"f": "2"}, text="error")),
        (["fracdiff", "--n=1"], _outcome("raised ValueError"), _outcome(1)),
        ([], _outcome(2), _outcome(2, stdout="b")),
    ]
    for argv, parent, change in runs[1:3]:
        parent["stderr"], change["stderr"] = parent["text"], change["text"]
    assert tool._differences(runs) == {
        "compared": 6, "differing": 5, "groups": {
            ": exit 2 -> 2, stdout": {"count": 1, "runs": [
                {"argv": [], "parent": "", "change": ""}]},
            "fracdiff: exit 0 -> 1, stdout+files": {"count": 1, "runs": [
                {"argv": ["fracdiff"], "parent": "", "change": "error"}]},
            "fracdiff: exit raised ValueError -> 1, same streams": {"count": 1, "runs": [
                {"argv": ["fracdiff", "--n=1"], "parent": "", "change": ""}]},
            "oscillate: exit 1 -> 1, stderr": {"count": 2, "runs": [
                {"argv": ["oscillate", "--k", "2"], "parent": "old", "change": "new"},
                {"argv": ["oscillate", "--k", "3"], "parent": "x", "change": "y"}]}}}


def test_mark_reader_finds_the_pinned_argv_lists():
    # a refactor of the marks must not silently empty the diff corpus
    lists = tool._marked_lists()
    assert len(lists) >= 90
    assert ["oscillate", "--k", "1e400"] in lists
    assert all(isinstance(argv, list) and all(isinstance(token, str) for token in argv)
               for argv in lists)


@pytest.mark.parametrize("argv", [
    ["diff", "p", "c", "--workload", "cli_desk"],
    ["diff", "p", "c", "--trace", "1"],
    ["jobs-rss", "p", "c", "--workload", "cli_desk", "--trace", "1"],
    ["jobs-rss", "p", "c"],
], ids=["diff-workload", "diff-trace", "jobs-rss-trace", "jobs-rss-no-workload"])
def test_each_mode_takes_only_the_flags_it_reads(monkeypatch, capsys, argv):
    monkeypatch.setattr(sys, "argv", ["ab.py", *argv])
    with pytest.raises(SystemExit) as err:
        tool.main()
    assert err.value.code == 2
    assert "error: " in capsys.readouterr().err


@pytest.mark.parametrize("mode, flags", [
    ("diff", []), ("jobs-rss", ["--workload", "cli_desk"]), ("bench", [])])
def test_roots_are_resolved_before_the_jobs_run_inside_them(monkeypatch, tmp_path, mode,
                                                            flags):
    # jobs-rss starts each root's launcher with that root as its working
    # directory, so a relative root would be read twice over
    seen = {}
    monkeypatch.setattr(tool, mode.replace("-", "_"), lambda args: seen.update(vars(args)) or {})
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(sys, "argv", ["ab.py", mode, "p", "c", *flags])
    tool.main()
    assert (seen["parent"], seen["change"]) == (str(tmp_path / "p"), str(tmp_path / "c"))


@pytest.mark.parametrize("change, resolved", [
    ([29.52, 29.83, 29.50], False),  # higher in two pairs, gap 0.05 < IQR 0.08
    ([29.40, 29.39, 29.41], False),  # lower in every pair, gap 0.07 < IQR 0.08
    ([29.30, 29.32, 29.31], True),
    ([29.70, 29.60, 29.65], True),
], ids=["higher-in-noise", "lower-in-noise", "lower", "higher"])
def test_summary_says_whether_the_median_gap_exceeds_the_parent_iqr(change, resolved):
    # parent quartiles 29.42 and 29.50 (statistics.quantiles, exclusive)
    parent = [29.47, 29.42, 29.50]
    summary = tool._summary(parent, change)
    assert summary["parent_quartiles"] == pytest.approx([29.42, 29.50])
    assert summary["resolved"] is resolved


@pytest.mark.parametrize("parent, change, below", [
    # the host's load moves both runs of a pair: the medians' gap is inside
    # the parent's IQR, but every pair reads about 2 % lower
    ([100.0, 80.0, 120.0, 90.0, 110.0], [98.0, 78.5, 117.5, 88.0, 108.0], True),
    ([100.0, 80.0, 120.0, 90.0, 110.0], [98.0, 81.0, 117.5, 91.0, 108.0], False),
    ([0.0, 0.0, 0.0], [0.0, 0.0, 0.0], False),
    ([0.0, 0.0, 1.0], [1.0, 2.0, 1.0], None),
], ids=["shared-drift", "mixed", "zeros", "zero-parents"])
def test_summary_pairs_cancel_the_load_both_runs_share(parent, change, below):
    # the ratios are figures; ``resolved`` stays the one resolution rule
    summary = tool._summary(parent, change)
    assert "paired_resolved" not in summary
    if below is None:
        assert summary["ratio_median"] is summary["ratio_quartiles"] is None
        return
    ratios = sorted(c / p if p else 1.0 for p, c in zip(parent, change))
    assert summary["ratio_median"] == ratios[len(ratios) // 2]
    assert (summary["ratio_quartiles"][1] < 1.0) is below
    assert not summary["resolved"]


@pytest.mark.parametrize("change, met", [
    ([29.30, 29.32, 29.31], True),
    ([29.40, 29.39, 29.41], False),  # lower in every pair, gap 0.07 < IQR 0.08
    ([29.70, 29.60, 29.65], False),
], ids=["lower", "lower-in-noise", "higher"])
def test_claim_reads_the_summary_resolution(change, met):
    summary = tool._summary([29.47, 29.42, 29.50], change)
    runs = {"cli_large trace 0 seeds 1-3": {"metrics": {"oscillate_s": summary}},
            "cli_large trace 1 seeds 1-3": {"metrics": {}}}
    claim = tool._claim(runs, "cli_large", "oscillate_s", 0.003)
    assert list(claim["runs"]) == ["cli_large trace 0 seeds 1-3"]
    assert claim["met"] is met
