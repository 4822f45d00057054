"""Numeric output checks against closed-form oracles.

Every check compares values, never bytes, so a roundoff-level change in
the program still passes as long as it stays inside the tolerance the
toolkit itself pins (``tests/test_acceptance.py`` and ``retromech
verify``). Each check raises :class:`CheckError` naming what failed.
"""

from __future__ import annotations

import math

import numpy as np

POWER_LAW_REL = 1e-2     # fractional power law, interior points
SEMIGROUP_REL = 2e-2     # half-derivative composed twice
OSCILLATOR_ABS = 1e-6    # RK4 trajectory against the closed form
REFLECTION_ABS = 1e-5    # retrocausal solve against the reversed causal one
SPECTRUM_REL = 1e-3      # eigenvalues within 0.1 %
DAMPED_ABS = 1e-6        # closed form against RK4 / independent closed form
SHOOTING_ABS = 1e-8      # |psi(L)| of each well mode
INTERIOR = 0.1           # share of the interval skipped at the sweep start


class CheckError(AssertionError):
    pass


def require(condition, message):
    if not condition:
        raise CheckError(message)


def finite(name, *arrays):
    for array in arrays:
        require(np.all(np.isfinite(array)), f"{name}: non-finite values")


# --------------------------------------------------------------------------
# oracles


def power_law(t, a, b, p, alpha, direction):
    """Exact fractional derivative of (t-a)^p (causal) or (b-t)^p
    (retrocausal) and the interior mask where the check applies."""
    scale = math.gamma(p + 1) / math.gamma(p + 1 - alpha)
    if direction == "causal":
        exact = scale * (t - a) ** (p - alpha)
        inside = t >= a + INTERIOR * (b - a)
    else:
        exact = scale * (b - t) ** (p - alpha)
        inside = t <= b - INTERIOR * (b - a)
    return exact, inside


def oscillator(t, m, c, k, q0, v0, direction, t0):
    """Underdamped m q'' +/- C q' + k q = 0 from (q0, v0) at t0; the
    retrocausal sign flips the damping."""
    gamma = c / (2.0 * m)
    omega = math.sqrt(k / m - gamma**2)
    s = t - t0
    g = -gamma if direction == "causal" else gamma
    env = np.exp(g * s)
    b = (v0 - g * q0) / omega
    q = env * (q0 * np.cos(omega * s) + b * np.sin(omega * s))
    v = g * q + env * omega * (-q0 * np.sin(omega * s) + b * np.cos(omega * s))
    return q, v


def damped_free(x, xi, k):
    """psi'' + 2 xi psi' + k^2 psi = 0, psi(0) = 1, psi'(0) = 0, xi < k."""
    omega = math.sqrt(k * k - xi * xi)
    return np.exp(-xi * x) * (np.cos(omega * x) + xi / omega * np.sin(omega * x))


def well_energies(count, length=1.0):
    n = np.arange(1, count + 1, dtype=np.float64)
    return 0.5 * (n * math.pi / length) ** 2


def harmonic_energies(count, stiffness):
    return (np.arange(count) + 0.5) * math.sqrt(stiffness)


def well_mode_energies(count, xi, length=1.0):
    return well_energies(count, length) + 0.5 * xi * xi


# --------------------------------------------------------------------------
# checks on arrays


def check_fracdiff(name, t, deriv, *, a, b, n, p, alpha, direction):
    require(len(t) == n and len(deriv) == n, f"{name}: {len(t)} rows, want {n}")
    finite(name, t, deriv)
    exact, inside = power_law(t, a, b, p, alpha, direction)
    err = np.max(np.abs(deriv[inside] - exact[inside]) / np.abs(exact[inside]))
    require(err <= POWER_LAW_REL, f"{name}: power-law error {err:.3e}")


def check_semigroup(name, t, values, p):
    exact = p * t ** (p - 1)
    inside = t >= t[0] + INTERIOR * (t[-1] - t[0])
    err = np.max(np.abs(values[inside] - exact[inside]) / np.abs(exact[inside]))
    require(err <= SEMIGROUP_REL, f"{name}: semigroup error {err:.3e}")


def check_oscillator(name, t, q, qdot, energy, *, n, m, c, k, direction):
    require(len(t) == n, f"{name}: {len(t)} rows, want {n}")
    finite(name, t, q, qdot, energy)
    t0 = t[0] if direction == "causal" else t[-1]
    exact_q, exact_v = oscillator(t, m, c, k, 1.0, 0.0, direction, t0)
    err = max(np.max(np.abs(q - exact_q)), np.max(np.abs(qdot - exact_v)))
    require(err <= OSCILLATOR_ABS, f"{name}: closed-form error {err:.3e}")
    want = 0.5 * m * qdot**2 + 0.5 * k * q**2
    err = np.max(np.abs(energy - want))
    require(err <= 1e-12 * max(1.0, np.max(want)), f"{name}: energy column off {err:.3e}")


def check_reflection(name, reversed_q, backward_q):
    dev = np.max(np.abs(backward_q - reversed_q))
    require(dev <= REFLECTION_ABS, f"{name}: reflection deviation {dev:.3e}")


def check_spectrum(name, energies, exact):
    energies = np.asarray(energies, dtype=np.float64)
    require(energies.shape == exact.shape,
            f"{name}: {energies.size} energies, want {exact.size}")
    finite(name, energies)
    err = np.max(np.abs(energies - exact) / exact)
    require(err <= SPECTRUM_REL, f"{name}: spectrum error {err:.3e}")


def check_damped_wave(name, x, re, im, mag, *, n, xi, k):
    require(len(x) == n, f"{name}: {len(x)} rows, want {n}")
    finite(name, x, re, im, mag)
    exact = damped_free(x - x[0], xi, k)
    err = max(np.max(np.abs(re - exact)), np.max(np.abs(im)),
              np.max(np.abs(mag - np.abs(exact))))
    require(err <= DAMPED_ABS, f"{name}: closed-form error {err:.3e}")


def check_well_modes(name, energies, residuals, *, count, xi):
    check_spectrum(name, energies, well_mode_energies(count, xi))
    residuals = np.asarray(residuals, dtype=np.float64)
    require(residuals.size == count, f"{name}: {residuals.size} residuals")
    worst = float(np.max(residuals)) if count else 0.0
    require(worst <= SHOOTING_ABS, f"{name}: shooting residual {worst:.3e}")


def check_regime_report(name, doc, *, xi, k):
    require(doc["regime"] == ("underdamped" if xi < k else "overdamped"),
            f"{name}: regime {doc['regime']!r}")
    require(abs(doc["xi"] - xi) <= 1e-15 and abs(doc["k"] - k) <= 1e-12,
            f"{name}: echoed parameters differ")
    omega = math.sqrt(k * k - xi * xi)
    roots = sorted(complex(*r).imag for r in doc["roots"])
    require(abs(roots[0] + omega) <= 1e-12 and abs(roots[1] - omega) <= 1e-12,
            f"{name}: characteristic roots differ")
    disc = doc["max_discrepancy"]
    require(math.isfinite(disc) and disc <= DAMPED_ABS,
            f"{name}: RK4 discrepancy {disc!r}")


def _num(x):
    return str(int(x)) if x == int(x) else repr(x)


def eom_lines(m, c, k):
    """Exact derive-eom text of 'm*q[1] + C*q[0.5] + k*q[0]'."""
    terms = f"{_num(m)}·D^2[q] + {_num(c)}·D^1[q] + {_num(k)}·D^0[q] = 0"
    return [
        f"{terms} (causal)",
        f"{terms} (retrocausal)",
        f"reduced causal:      {_num(m)}·q'' + {_num(c)}·q' + {_num(k)}·q = 0",
        f"reduced retrocausal: {_num(m)}·q'' - {_num(c)}·q' + {_num(k)}·q = 0",
    ]
