"""In-memory spans around the public functions at retromech's layer boundaries.

The benchmark wraps these functions from the outside (no file under
``src/`` knows about tracing): each wrapper records a span with its name,
start and end in nanoseconds, the index of the span that was open when it
started (its parent) and, where the layer does countable work, a count
computed from the argument sizes.

Per-layer figures are derived from the spans of one pass:

* ``total`` metrics add up the outermost spans of a name, so a layer that
  calls itself (the retrocausal derivative calls the causal one) is not
  counted twice;
* ``self`` metrics add up each span's duration minus the duration of its
  direct children.

:func:`check_arithmetic` is the self-test of that arithmetic: every self
time is non-negative and the self times of a tree sum exactly to its root.
"""

from __future__ import annotations

import time

#: metric -> (span name, "total" | "self"); the arrow in the benchmark's
#: documentation says which end-to-end metric each one should move.
TIME_METRICS = {
    "cli.parse_s": ("cli.parse", "total"),
    "cli.format_s": ("cli.run", "self"),
    "fracops.deriv_s": ("fracops.deriv", "self"),
    "fracops.gl_weights_s": ("fracops.gl_weights", "total"),
    "core.march_s": ("core.march", "total"),
    "eigensolver.lapack_s": ("eigensolver.lapack", "total"),
    "eigensolver.residual_s": ("eigensolver.solve", "self"),
    "dampedwave.shoot_s": ("dampedwave.shoot", "total"),
    "oscillator.solve_s": ("oscillator.solve", "total"),
    "lagrangian.parse_s": ("lagrangian.parse", "total"),
    "lagrangian.derive_s": ("lagrangian.derive", "total"),
    "verify.run_all_s": ("verify.run_all", "total"),
}

#: count metric -> (span name, attribute summed over its outermost spans)
COUNT_METRICS = {
    "fracops.calls": ("fracops.deriv", "calls"),
    "fracops.conv_madds": ("fracops.deriv", "madds"),
    "core.march_steps": ("core.march", "steps"),
    "eigensolver.pairs": ("eigensolver.solve", "pairs"),
    "dampedwave.modes": ("dampedwave.shoot", "modes"),
}


class Tracer:
    """Records spans for every wrapped call; single-threaded by design,
    since the benchmark runs one job at a time."""

    def __init__(self):
        self.spans = []  # [name, start_ns, end_ns, parent, attrs]
        self._open = []

    def wrap(self, module, attr, name, counter=None):
        """Replace ``module.attr`` with a wrapper recording ``name`` spans;
        ``counter(*args, **kwargs)`` returns the span's count attributes.
        Returns what :func:`uninstall` needs to put the original back."""
        fn = getattr(module, attr)

        def wrapper(*args, **kwargs):
            record = [name, 0, 0, self._open[-1] if self._open else -1,
                      counter(*args, **kwargs) if counter else {}]
            self._open.append(len(self.spans))
            self.spans.append(record)
            record[1] = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter_ns()
                self._open.pop()

        wrapper.__wrapped__ = fn
        setattr(module, attr, wrapper)
        return module, attr, fn

    def reset(self):
        self.spans = []


def _frac_counts(f, order, *rest, **kwargs):
    alpha = float(getattr(order, "alpha", order))
    n = f.grid.n
    # a non-integer order runs one full np.convolve of two length-n arrays
    madds = 0 if alpha.is_integer() else n * n
    return {"calls": 1, "madds": madds}


def _march_counts(accel, y0, v0, grid, **kwargs):
    return {"steps": grid.n - 1}


def _pairs_counts(hamiltonian, count):
    return {"pairs": count}


def _modes_counts(xi, length, units=None, count=5, **kwargs):
    return {"modes": count}


def install(tracer):
    """Wrap every layer boundary of an imported retromech; returns what
    :func:`uninstall` needs to put the originals back."""
    from retromech import (cli, dampedwave, eigensolver, fracops, lagrangian,
                           oscillator, verify)

    wrapped = [tracer.wrap(cli, "parse_args", "cli.parse"),
               tracer.wrap(cli, "run", "cli.run"),
               tracer.wrap(fracops, "gl_weights", "fracops.gl_weights"),
               tracer.wrap(eigensolver, "eigh_tridiagonal", "eigensolver.lapack"),
               tracer.wrap(eigensolver, "solve_spectrum", "eigensolver.solve",
                           _pairs_counts),
               tracer.wrap(dampedwave, "damped_well_modes", "dampedwave.shoot",
                           _modes_counts),
               tracer.wrap(verify, "run_all", "verify.run_all")]
    for attr in ("causal_frac_deriv", "retrocausal_frac_deriv"):
        wrapped.append(tracer.wrap(fracops, attr, "fracops.deriv", _frac_counts))
    for module in (oscillator, dampedwave):
        wrapped.append(tracer.wrap(module, "integrate_second_order", "core.march",
                                   _march_counts))
    for attr in ("solve_causal", "solve_retrocausal"):
        wrapped.append(tracer.wrap(oscillator, attr, "oscillator.solve"))
    for attr in ("parse_lagrangian", "parse_potential"):
        wrapped.append(tracer.wrap(lagrangian, attr, "lagrangian.parse"))
    for attr in ("derive_causal_eom", "derive_retrocausal_eom"):
        wrapped.append(tracer.wrap(lagrangian, attr, "lagrangian.derive"))
    return wrapped


def uninstall(wrapped):
    for module, attr, fn in wrapped:
        setattr(module, attr, fn)


# --------------------------------------------------------------------------
# arithmetic over recorded spans


def self_times(spans):
    """Self time of every span in ns: its duration minus its direct
    children's durations."""
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def _outermost(spans, i):
    name = spans[i][0]
    parent = spans[i][3]
    while parent >= 0:
        if spans[parent][0] == name:
            return False
        parent = spans[parent][3]
    return True


def check_arithmetic(spans):
    """Raise ValueError unless self times are non-negative and each
    tree's self times sum to its root's duration."""
    own = self_times(spans)
    if any(value < 0 for value in own):
        raise ValueError("negative self time in span tree")
    roots = {}
    for i, (_, _, _, parent, _) in enumerate(spans):
        root = i
        while spans[root][3] >= 0:
            root = spans[root][3]
        roots[root] = roots.get(root, 0) + own[i]
    for root, total in roots.items():
        _, start, end, _, _ = spans[root]
        if total != end - start:
            raise ValueError(f"self times of {spans[root][0]!r} sum to {total} ns, "
                             f"span lasts {end - start} ns")


def root_ns(spans):
    """Wall time covered by the root spans."""
    return sum(end - start for _, start, end, parent, _ in spans if parent < 0)


def add(total, figures):
    """Sum two per-layer figure dicts; ``total`` may be None."""
    if total is None:
        return dict(figures)
    return {key: total[key] + figures[key] for key in total}


def layer_figures(spans):
    """Per-layer seconds and counts of a list of spans."""
    own = self_times(spans)
    out = {metric: 0.0 for metric in TIME_METRICS}
    out.update({metric: 0 for metric in COUNT_METRICS})
    for i, (name, start, end, _, attrs) in enumerate(spans):
        outer = _outermost(spans, i)
        for metric, (span_name, kind) in TIME_METRICS.items():
            if span_name != name:
                continue
            if kind == "self":
                out[metric] += own[i] / 1e9
            elif outer:
                out[metric] += (end - start) / 1e9
        if outer:
            for metric, (span_name, key) in COUNT_METRICS.items():
                if span_name == name:
                    out[metric] += attrs.get(key, 0)
    return out
