"""Set-up samples: fresh interpreters running ``import retromech.cli``.

The host's speed drifts over seconds, so samples taken in one burst all
see the same speed. :class:`Sampler` instead takes one sample every
``EVERY_S`` seconds of measured work, between jobs, and files it under
the pass it was taken in; ``run.py`` then takes the median over blocks of
passes, as it does for every other timing. With ``trace`` the samples run
under ``python -X importtime`` and also give the per-package import times.
"""

from __future__ import annotations

import os
import re
import sys

EVERY_S = 3.5


def import_times(text):
    """Seconds of import time per package from ``-X importtime`` output.

    A module's self time goes to the package whose import pulled it in:
    numpy and scipy own everything below them (the standard-library and
    numpy modules scipy loads count as scipy's), and retromech owns the
    rest of its own imports."""
    tracked = ("numpy", "scipy", "retromech")
    pending = []  # importtime lists children before their parent
    for line in text.splitlines():
        match = re.match(r"import time:\s+(\d+) \|\s+\d+ \|( +)(\S+)", line)
        if not match:
            continue
        depth, children = len(match.group(2)), []
        while pending and pending[-1][0] > depth:
            children.append(pending.pop()[1])
        pending.append((depth, (match.group(3), int(match.group(1)), children)))
    totals = dict.fromkeys(tracked, 0.0)
    stack = [(node, None) for _, node in pending]
    while stack:
        (name, self_us, children), owner = stack.pop()
        package = name.split(".")[0]
        if package in tracked and owner in (None, "retromech"):
            owner = package
        if owner:
            totals[owner] += self_us / 1e6
        stack.extend((child, owner) for child in children)
    return totals


class Sampler:
    """Takes a set-up sample whenever ``EVERY_S`` seconds of measured work
    have passed since the last one; the first call always takes one.

    ``spawn(argv, stdout, stderr)`` runs a process to completion and
    returns ``(exit code, wall seconds)``."""

    def __init__(self, spawn, work, trace):
        self.spawn, self.trace = spawn, trace
        self.argv = [sys.executable] + (["-X", "importtime"] if trace else []) + [
            "-c", "import retromech.cli"]
        self.out = os.path.join(work, "setup.out")
        self.err = os.path.join(work, "setup.err")
        self.due = 0.0

    def maybe(self, measured, record):
        """Sample if due, adding the wall to ``record["setup"]`` and, when
        tracing, the import times to ``record["imports"]``."""
        if measured < self.due:
            return
        self.due = measured + EVERY_S
        code, wall = self.spawn(self.argv, self.out, self.err)
        with open(self.err, encoding="utf-8") as handle:
            text = handle.read()
        if code != 0:
            raise RuntimeError(f"import retromech.cli exited {code}: {text[-2000:]}")
        record.setdefault("setup", []).append(wall)
        if self.trace:
            record.setdefault("imports", []).append(import_times(text))
