"""library_sweep worker: calls the library in-process, after import.

Run by ``run.py`` as a child process so that its peak RSS is its own:

    python bench/sweep.py --seed N --seconds S --trace 0|1 --out FILE --work DIR

One pass runs six jobs, one per CLI subcommand's library work, with the
seed's parameters and no formatting. Passes repeat until ``--seconds``
have been measured, at least two of each kind. With ``--trace 1``
untraced and traced passes alternate, so the report can give the tracing
overhead and check that counts repeat. Between jobs, set-up samples
(``bench/startup.py``) are taken in fresh interpreters, with their files
in ``--work``. Outputs are checked after each pass, outside the timed
region. The result goes to ``--out`` as JSON.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time

import numpy as np

import checks
import launcher
import spans
import startup
import workloads
from retromech import (core, dampedwave, eigensolver, fracops, lagrangian,
                       oscillator, verify)

GL = fracops.Scheme.GRUNWALD_LETNIKOV
TRAPEZOID = fracops.Scheme.PRODUCT_TRAPEZOID
FRAC_SIZES = (512, 4096, 16384)
DERIVE_TEXTS = 50


def _fracdiff(p):
    def run():
        out = []
        for n in FRAC_SIZES:
            unit = core.Grid(0.0, 1.0, n)
            t = unit.points()
            line = core.GridFunction(unit, t)
            square = core.GridFunction(unit, t**2)
            mirror = core.Grid(-1.0, 0.0, n)
            reflected = core.GridFunction(mirror, mirror.points() ** 2)
            out.append((n, t, mirror.points(),
                        fracops.causal_frac_deriv(line, p.alpha, GL),
                        fracops.causal_frac_deriv(square, p.alpha, TRAPEZOID),
                        fracops.retrocausal_frac_deriv(reflected, 1.5, GL),
                        fracops.compose_half(square)))
        return out

    def check(out):
        for n, t, s, gl, trap, retro, half in out:
            checks.check_fracdiff(f"gl-{n}", t, gl.samples, a=0.0, b=1.0, n=n, p=1,
                                  alpha=p.alpha, direction="causal")
            checks.check_fracdiff(f"trapezoid-{n}", t, trap.samples, a=0.0, b=1.0,
                                  n=n, p=2, alpha=p.alpha, direction="causal")
            checks.check_fracdiff(f"retro-1.5-{n}", s, retro.samples, a=-1.0, b=0.0,
                                  n=n, p=2, alpha=1.5, direction="retrocausal")
            checks.require(half.boundary_ok, f"compose_half-{n}: boundary flag")
            checks.check_semigroup(f"compose_half-{n}", t, half.values.samples, 2)

    return run, check


def _derive(p, seed):
    rng = random.Random(seed)
    cases = [(round(p.m + rng.uniform(0, 1), 2), round(p.c + rng.uniform(0, 1), 2),
              round(p.k + rng.uniform(0, 1), 2)) for _ in range(DERIVE_TEXTS)]
    texts = [f"{m!r}*q[1] + {c!r}*q[0.5] + {k!r}*q[0]" for m, c, k in cases]

    def run():
        out = []
        for text in texts:
            spec = lagrangian.parse_lagrangian(text)
            causal = lagrangian.derive_causal_eom(spec)
            retro = lagrangian.derive_retrocausal_eom(spec)
            out.append((lagrangian.reduce_integer_orders(causal),
                        lagrangian.reduce_integer_orders(retro)))
        return out

    def check(out):
        for (m, c, k), (causal, retro) in zip(cases, out):
            got = (causal.mass_coeff, causal.damping_coeff, causal.stiffness_coeff,
                   retro.mass_coeff, retro.damping_coeff, retro.stiffness_coeff)
            checks.require(got == (m, c, k, m, -c, k), f"reduction of {m, c, k}: {got}")

    return run, check


def _oscillate(p):
    grid = core.Grid(0.0, 10.0, 10001)

    def run():
        params = oscillator.OscillatorParams(p.m, p.c, p.k, 1.0, 0.0)
        forward = oscillator.solve_causal(params, grid)
        backward = oscillator.solve_retrocausal(params, grid)
        return forward, backward, oscillator.time_reverse(forward.position)

    def check(out):
        forward, backward, reversed_q = out
        t = grid.points()
        for name, traj, direction in (("causal", forward, "causal"),
                                      ("retro", backward, "retrocausal")):
            checks.check_oscillator(f"oscillate-{name}", t, traj.position.samples,
                                    traj.velocity.samples, traj.energy(), n=grid.n,
                                    m=p.m, c=p.c, k=p.k, direction=direction)
        # reversing the damped solution from (q0, v0) at grid.a solves the
        # anti-damped equation from (q0, -v0) at grid.b, the same state as v0 = 0
        checks.check_reflection("oscillate-reflection", reversed_q.samples,
                                backward.position.samples)

    return run, check


def _eigensolve(p):
    cases = (("well", lagrangian.InfiniteWellPotential(1.0), checks.well_energies(3)),
             ("harmonic", lagrangian.HarmonicPotential(p.k),
              checks.harmonic_energies(3, p.k)))

    def run():
        out = []
        for name, potential, _ in cases:
            grid = eigensolver.default_grid(potential, 2000)
            sol = eigensolver.solve_spectrum(
                eigensolver.build_hamiltonian(potential, grid), 3)
            pairs = [eigensolver.make_pair(sol, i) for i in range(sol.count)]
            densities = [eigensolver.density(pair, 0.7) for pair in pairs]
            report = eigensolver.stationarity_check(sol, 0, 1e-2)
            out.append((sol, densities, report))
        return out

    def check(out):
        for (name, _, exact), (sol, densities, report) in zip(cases, out):
            checks.check_spectrum(f"eigensolve-{name}", sol.energies, exact)
            for psi, rho in zip(sol.eigenfunctions, densities):
                err = np.max(np.abs(rho.samples - psi.samples**2))
                checks.require(err <= 1e-12, f"density-{name}: {err:.3e}")
            checks.require(report.stationary, f"stationarity-{name}: {report}")

    return run, check


def _dampedwave(p):
    grid = core.Grid(0.0, 10.0, 2001)

    def run():
        modes = dampedwave.damped_well_modes(p.xi, 1.0, count=20)
        free = dampedwave.solve_damped_free(dampedwave.DampedWaveParams(p.xi, 0.5),
                                            grid)
        return modes, free

    def check(out):
        modes, free = out
        checks.check_well_modes("dampedwave-well", modes.energies,
                                modes.shooting_residuals, count=20, xi=p.xi)
        psi = free.closed_form.samples
        checks.check_damped_wave("dampedwave-free", grid.points(), psi.real, psi.imag,
                                 np.abs(psi), n=grid.n, xi=p.xi, k=1.0)
        checks.require(free.max_discrepancy <= checks.DAMPED_ABS,
                       f"dampedwave-free: RK4 discrepancy {free.max_discrepancy:.3e}")

    return run, check


def _verify():
    def run():
        lines = []
        return verify.run_all(out=lines.append), lines

    def check(out):
        failures, lines = out
        checks.require(failures == 0, f"verify: {failures} failures: {lines}")

    return run, check


def jobs(seed):
    p = workloads.draw(seed)
    return [("fracdiff", *_fracdiff(p)), ("derive-eom", *_derive(p, seed)),
            ("oscillate", *_oscillate(p)), ("eigensolve", *_eigensolve(p)),
            ("dampedwave", *_dampedwave(p)), ("verify", *_verify())]


def one_pass(job_list, tracer, before_job):
    """Time each job, then check every output; the pass time is the sum of
    the job times, without the span bookkeeping between them.
    ``before_job(record)`` runs untimed before each job."""
    record = {"jobs": {}, "coverage": {}}
    results = []
    for command, run, _ in job_list:
        before_job(record)
        if tracer is not None:
            tracer.reset()
        t0 = time.perf_counter_ns()
        results.append(run())
        wall = time.perf_counter_ns() - t0
        record["jobs"][command] = wall / 1e9
        if tracer is not None:
            spans.check_arithmetic(tracer.spans)
            record["coverage"][command] = spans.root_ns(tracer.spans) / wall
            record["layers"] = spans.add(record.get("layers"),
                                         spans.layer_figures(tracer.spans))
    record["pass_s"] = sum(record["jobs"].values())
    for (_, _, check), out in zip(job_list, results):
        check(out)
    return record


def spawn(argv, stdout, stderr):
    """Run a set-up sample to completion: (exit code, wall seconds)."""
    reply = launcher.run(argv, stdout, stderr, timeout=60.0)
    return reply["code"], reply["wall_s"]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True)
    parser.add_argument("--work", required=True)
    args = parser.parse_args(argv)

    job_list = jobs(args.seed)
    # with tracing, untraced and traced passes alternate, so that both see
    # the same stretch of the run and their difference is the overhead
    tracer = spans.Tracer() if args.trace else None
    modes = (False, True) if args.trace else (False,)
    sampler = startup.Sampler(spawn, args.work, args.trace)

    def before_job(record):
        sampler.maybe(measured + sum(record["jobs"].values()), record)

    passes, error, measured = [], None, 0.0
    try:
        while len(passes) < 2 * len(modes) or measured < args.seconds:
            for traced in modes:
                wrapped = spans.install(tracer) if traced else []
                try:
                    passes.append(one_pass(job_list, tracer if traced else None,
                                           before_job))
                finally:
                    spans.uninstall(wrapped)
                measured += passes[-1]["pass_s"]
    except Exception as exc:  # the report names the first failing check
        error = f"{type(exc).__name__}: {exc}"
    with open(args.out, "w") as handle:
        json.dump({"passes": passes, "error": error}, handle)
    return 0 if error is None else 1


if __name__ == "__main__":
    sys.exit(main())
