"""Job lists of the CLI workloads, drawn from the workload seed.

The seed draws the physical parameters (alpha, m, C, k, xi); sizes stay
fixed, so every count the trace reports, except the bytes written,
repeats exactly from seed to seed. Each job carries the numeric check of
its own output.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass

import numpy as np

import checks


@dataclass(frozen=True)
class Params:
    alpha: float  # fractional order of the causal jobs
    m: float
    c: float
    k: float      # oscillator stiffness, also the harmonic potential's K
    xi: float     # damped-wave damping factor


def draw(seed: int) -> Params:
    """Parameters for one seed; every range keeps the oscillator and the
    damped wave underdamped and the well shooting inside its bound."""
    rng = random.Random(seed)
    return Params(alpha=round(rng.uniform(0.2, 0.8), 3),
                  m=round(rng.uniform(0.5, 2.0), 2),
                  c=round(rng.uniform(0.1, 0.6), 2),
                  k=round(rng.uniform(1.0, 4.0), 2),
                  xi=round(rng.uniform(0.1, 0.6), 3))


@dataclass(frozen=True)
class Job:
    name: str
    command: str          # CLI subcommand; names the job's timing metric
    argv: tuple
    output: str | None    # file written by the job, None for stdout
    check: object         # check(stdout, file_text) -> None, raises CheckError


def _on_output(check):
    """Adapt a check of the job's one output: its file, else its stdout."""
    return lambda out, text: check(out if text is None else text)


def _columns(text, header):
    head, _, body = text.partition("\n")
    checks.require(head == ",".join(header), f"CSV header {head!r}")
    values = np.array(body.replace("\n", ",").split(",")[:-1], dtype=np.float64)
    checks.require(values.size % len(header) == 0, "ragged CSV")
    return values.reshape(-1, len(header)).T


def _fracdiff(name, p, *, alpha, n, fn, power, scheme, direction, a, b, output):
    def check(text):
        t, deriv = _columns(text, ["t", "deriv"])
        checks.check_fracdiff(name, t, deriv, a=a, b=b, n=n, p=power, alpha=alpha,
                              direction=direction)

    argv = ("fracdiff", "--alpha", repr(alpha), "--fn", fn, "--scheme", scheme,
            "--direction", direction, "--a", repr(a), "--b", repr(b), "--n", str(n))
    return Job(name, "fracdiff", argv, output, _on_output(check))


def _oscillate(name, p, *, n, direction, output):
    def check(text):
        t, q, qdot, energy = _columns(text, ["t", "q", "qdot", "energy"])
        checks.check_oscillator(name, t, q, qdot, energy, n=n, m=p.m, c=p.c, k=p.k,
                                direction=direction)

    argv = ("oscillate", "--m", repr(p.m), "--c", repr(p.c), "--k", repr(p.k),
            "--direction", direction, "--n", str(n))
    return Job(name, "oscillate", argv, output, _on_output(check))


def _eigensolve(name, *, potential, exact, n, count, output):
    def check(text):
        doc = json.loads(text)
        checks.check_spectrum(name, doc["energies"], exact)

    argv = ("eigensolve", "--potential", potential, "--n", str(n),
            "--count", str(count))
    return Job(name, "eigensolve", argv, output, _on_output(check))


def _damped_free(name, p, *, n, output):
    def check(text):
        x, re, im, mag = _columns(text, ["x", "Re(psi)", "Im(psi)", "abs(psi)"])
        checks.check_damped_wave(name, x, re, im, mag, n=n, xi=p.xi, k=1.0)

    return Job(name, "dampedwave", ("dampedwave", "--xi", repr(p.xi), "--n", str(n)),
               output, _on_output(check))


def _damped_well(name, p, *, count, output):
    def check(text):
        doc = json.loads(text)
        checks.check_well_modes(name, doc["energies"], doc["shooting_residuals"],
                                count=count, xi=p.xi)

    argv = ("dampedwave", "--xi", repr(p.xi), "--well", "1", "--count", str(count),
            "--format", "json")
    return Job(name, "dampedwave", argv, output, _on_output(check))


def _derive_eom(p, *, name, output):
    """derive-eom of 'm*q[1] + C*q[0.5] + k*q[0]': exact text on stdout and,
    with a file, the same equations as JSON numbers."""
    def check(out, text):
        want = checks.eom_lines(p.m, p.c, p.k)
        checks.require(out.splitlines() == want, f"derive-eom text {out!r}")
        if text is None:
            return
        doc = json.loads(text)
        terms = [(p.m, 2.0), (p.c, 1.0), (p.k, 0.0)]
        for side, damping in (("causal", p.c), ("retrocausal", -p.c)):
            got = [(t["coeff"], t["order"]) for t in doc[side]["terms"]]
            checks.require(got == terms, f"derive-eom {side} terms {got}")
            reduced = doc["reduced"][side]
            got = (reduced["mass"], reduced["damping"], reduced["stiffness"])
            checks.require(got == (p.m, damping, p.k), f"derive-eom reduced {got}")

    lagrangian = f"{p.m!r}*q[1] + {p.c!r}*q[0.5] + {p.k!r}*q[0]"
    return Job(name, "derive-eom", ("derive-eom", "--lagrangian", lagrangian), output,
               check)


def _verify(name):
    """verify must pass every check it runs (28 of 28 at the time of
    writing); the count is not pinned, so removing a check that cannot
    fail keeps the benchmark valid."""
    def check(out, text):
        lines = out.splitlines()
        checks.require(lines and not any(line.startswith("[FAIL]") for line in lines),
                       "verify reported a failure")
        passed, _, total = lines[-1].split()[0].partition("/")
        checks.require(passed == total and int(total) == len(lines) - 1,
                       f"verify summary {lines[-1]!r}")

    return Job(name, "verify", ("verify",), None, check)


def cli_desk(p: Params) -> list:
    """Default-size invocations of all six subcommands, output to stdout.
    Invocations of one subcommand sit apart in the pass, so their samples
    see different moments of the run. derive-eom takes no size and runs
    three times a pass, so that it gets as many samples as the others."""
    def regime_check(text):
        checks.check_regime_report("dampedwave-regime", json.loads(text), xi=p.xi, k=1.0)

    return [
        _fracdiff("fracdiff-gl", p, alpha=p.alpha, n=512, fn="t", power=1,
                  scheme="gl", direction="causal", a=0.0, b=1.0, output=None),
        _oscillate("oscillate-causal", p, n=10001, direction="causal", output=None),
        _eigensolve("eigensolve-well", potential="well, 1", n=2000, count=3,
                    exact=checks.well_energies(3), output=None),
        _damped_free("dampedwave-free", p, n=2001, output=None),
        _derive_eom(p, name="derive-eom", output=None),
        _fracdiff("fracdiff-trapezoid-retro", p, alpha=p.alpha, n=512, fn="t^2",
                  power=2, scheme="trapezoid", direction="retrocausal",
                  a=-1.0, b=0.0, output=None),
        Job("dampedwave-regime", "dampedwave",
            ("dampedwave", "--xi", repr(p.xi), "--format", "json"), None,
            _on_output(regime_check)),
        _oscillate("oscillate-retro", p, n=10001, direction="retrocausal", output=None),
        _derive_eom(p, name="derive-eom-2", output=None),
        _verify("verify"),
        _eigensolve("eigensolve-harmonic", potential=f"harmonic, {p.k!r}", n=2000,
                    count=3, exact=checks.harmonic_energies(3, p.k), output=None),
        _damped_well("dampedwave-well", p, count=5, output=None),
        _derive_eom(p, name="derive-eom-3", output=None),
    ]


def cli_large(p: Params) -> list:
    """Large-n invocations writing files: convolution, RK4 march, CSV
    formatting and LAPACK dominate. derive-eom and verify take no size;
    they run as on the desk. Every subcommand runs at least twice a pass,
    so that a run has at least four samples of each."""
    return [
        _fracdiff("fracdiff-gl", p, alpha=p.alpha, n=65536, fn="t", power=1,
                  scheme="gl", direction="causal", a=0.0, b=1.0, output="gl.csv"),
        _oscillate("oscillate-causal", p, n=200001, direction="causal",
                   output="causal.csv"),
        _derive_eom(p, name="derive-eom", output="eom.json"),
        _damped_free("dampedwave-free", p, n=200001, output="wave.csv"),
        _fracdiff("fracdiff-trapezoid", p, alpha=p.alpha, n=65536, fn="t^2", power=2,
                  scheme="trapezoid", direction="causal", a=0.0, b=1.0,
                  output="trapezoid.csv"),
        _verify("verify"),
        _eigensolve("eigensolve-harmonic", potential=f"harmonic, {p.k!r}", n=20000,
                    count=20, exact=checks.harmonic_energies(20, p.k),
                    output="spectrum.json"),
        _oscillate("oscillate-retro", p, n=200001, direction="retrocausal",
                   output="retro-osc.csv"),
        _derive_eom(p, name="derive-eom-2", output="eom-2.json"),
        _fracdiff("fracdiff-retro-1.5", p, alpha=1.5, n=65536, fn="t^2", power=2,
                  scheme="gl", direction="retrocausal", a=-1.0, b=0.0,
                  output="retro.csv"),
        _damped_well("dampedwave-well", p, count=30, output="well.json"),
        _verify("verify-2"),
        _eigensolve("eigensolve-harmonic-2", potential=f"harmonic, {p.k!r}", n=20000,
                    count=20, exact=checks.harmonic_energies(20, p.k),
                    output="spectrum-2.json"),
    ]


# --------------------------------------------------------------------------
# known-defect probes: run once per cli_desk run, never timed. Each one
# classifies its outcome as the known defect or as fixed; anything else
# is a wrong output.


@dataclass(frozen=True)
class Probe:
    name: str
    argv: tuple
    classify: object  # classify(code, stdout, stderr) -> "defect" | "fixed"


def _well_40(code, out, err):
    if code == 1 and "mode 36" in err and "dampedwave" in err:
        return "defect"
    checks.require(code == 0, f"exit {code}: {err.strip()!r}")
    doc = json.loads(out)
    checks.check_well_modes("probe-well-40", doc["energies"], doc["shooting_residuals"],
                            count=40, xi=0.5)
    return "fixed"


def _well_8000(code, out, err):
    if code == 1 and "eigensolver" in err and "residual" in err:
        return "defect"
    checks.require(code == 0, f"exit {code}: {err.strip()!r}")
    checks.check_spectrum("probe-well-8000", json.loads(out)["energies"],
                          checks.well_energies(3))
    return "fixed"


def _exp_800(code, out, err):
    if code == 1:
        checks.require("fracops" in err, f"exit 1 without naming the module: {err!r}")
        return "fixed"
    checks.require(code == 0, f"exit {code}: {err.strip()!r}")
    t, deriv = _columns(out, ["t", "deriv"])
    checks.require(len(t) == 16, f"{len(t)} rows")
    return "fixed" if np.all(np.isfinite(deriv)) else "defect"


PROBES = (
    Probe("probe-well-40", ("dampedwave", "--xi", "0.5", "--well", "1",
                            "--count", "40", "--format", "json"), _well_40),
    Probe("probe-well-8000", ("eigensolve", "--potential", "well,1", "--n", "8000"),
          _well_8000),
    Probe("probe-exp-800", ("fracdiff", "--alpha", "0.5", "--fn", "exp(t)", "--a", "0",
                            "--b", "800", "--n", "16"), _exp_800),
)

CLI_WORKLOADS = {"cli_desk": cli_desk, "cli_large": cli_large}
