"""Command-line front end.

Subcommands map one-to-one onto the library modules:

    fracdiff    sample a fractional derivative of a built-in function
    derive-eom  parse a lagrangian and print/export both equations of motion
    oscillate   integrate the damped oscillator pair
    eigensolve  solve a potential's spectrum
    dampedwave  damped free-particle solution, regime report or well modes
    verify      run the built-in verification suite

Outputs are deterministic: identical configurations yield byte-identical
files (CSV floats use 17 significant digits, JSON uses shortest
round-trip floats, random checks are seeded). CSV is streamed in blocks
of rows, each formatted with array operations to exactly the bytes of
``%.17g``, so the whole text is never held at once. Files are written to
a temporary sibling and renamed on success, so failures leave no partial
output. Exit codes: 0 success, 1 computation failure, 2 usage error.

A JSON config file mirroring the flag names (plus ``command``) can seed
any run; explicit flags override file values.

Each handler imports the modules it uses, so parsing, ``--version``,
usage errors and ``derive-eom`` load no numpy.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import re
import sys
import tempfile
from dataclasses import dataclass

from . import __version__
from .enums import Scheme

__all__ = ["RunConfig", "parse_args", "run", "main", "console_entry"]


class CommandError(Exception):
    """Computation-phase failure; rendered as `error: <origin>: <detail>`."""


@dataclass(frozen=True)
class RunConfig:
    """Validated command name plus its flag values."""

    command: str
    options: dict


# --------------------------------------------------------------------------
# deterministic formatting and output


#: Rows formatted per block; only one block's text and temporaries are
#: held at a time.
_CSV_BLOCK_ROWS = 4096

#: Bytes of a value's slot in :func:`_format_rows`. As ``uint32`` words:
#: 0 the separator before the value and ``"-0."``, 1 the leading digit as
#: ``"000d"``, 2-5 digits 1-16, 6 ``"   ."``, 7-10 digits 1-16 again. A
#: value's text is the slot's kept bytes: the separator, the sign, ``"0."``
#: and up to three zeros when |x| < 1, then the integer digits from the
#: first copy, and the point and the fraction's digits from the second.
_SLOT = 44
#: Mask row of an empty text from a %-operation, after the 2 * 21 * 17
#: fixed-notation rows; a text of length L takes the row L further on.
_PERCENT_MASKS = 2 * 21 * 17


def _csv(header: list, columns: list):
    """Header line plus one row per sample, every value as ``%.17g``;
    yields the text as bytes, one block of rows at a time."""
    import numpy as np
    table = np.column_stack(columns).astype(np.float64, copy=False)
    yield (",".join(header) + "\n").encode()
    for start in range(0, len(table), _CSV_BLOCK_ROWS):
        yield _format_rows(table[start:start + _CSV_BLOCK_ROWS])


@functools.cache
def _csv_tables():
    """Powers of ten split for the exact product, the 4-digit text and
    trailing-zero count of 0..9999, the slot's constant words, and the
    keep-mask of every text layout."""
    import numpy as np
    powers = np.array([float(10**k) for k in range(23)])
    split = powers * 134217729.0  # Veltkamp: 27 high bits
    high = split - (split - powers)
    i = np.arange(10000)
    chunk = (i[:, None] // np.array([1000, 100, 10, 1]) % 10 + ord("0"))
    digits = chunk.astype(np.uint8).view(np.uint32).ravel()
    zeros = ((i % 10 == 0).astype(np.int64) + (i % 100 == 0) + (i % 1000 == 0)
             + (i == 0))
    words = np.frombuffer(b",-0.\n-0.   .", np.uint32)
    # fixed-notation layouts by sign, exponent of the leading digit (-4..16)
    # and significant digits (1..17), then text of 0..24 bytes from a
    # %-operation; b is the byte's place in the slot
    neg = np.arange(2)[:, None, None, None]
    exp10 = np.arange(-4, 17)[None, :, None, None]
    count = np.arange(1, 18)[None, None, :, None]
    b = np.arange(_SLOT)
    small = exp10 < 0
    first = (b >= 7) & (b <= 23) & np.where(small, b - 7 < count, b - 7 <= exp10)
    second = (b >= 28) & (b <= 43) & (b - 27 > exp10) & (b - 27 < count)
    fixed = ((b == 0) | (b == 1) & (neg == 1)
             | small & ((b == 2) | (b == 3) | (b >= exp10 + 8) & (b <= 6))
             | first
             | ~small & ((b == 27) & (count - 1 > exp10) | second))
    percent = b <= np.arange(25)[:, None]
    masks = np.concatenate((fixed.reshape(-1, _SLOT), percent))
    return powers, high, powers - high, digits, zeros, words, masks


def _times_power_of_ten(a, k, powers, high, low):
    """hi + lo == a * 10**k exactly (Dekker's two-product)."""
    p = a * powers[k]
    split = a * 134217729.0
    ah = split - (split - a)
    al = a - ah
    bh, bl = high[k], low[k]
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


def _format_rows(block) -> bytes:
    """``%.17g`` text of a 2-D float64 block as comma-separated lines.

    Values that ``%.17g`` prints in fixed notation are formatted with
    array operations. Zeros, non-finite values and values printed in
    exponent notation go through one %-operation for the block.
    """
    import numpy as np
    powers, high, low, digits, zeros, words, masks = _csv_tables()
    x = block.ravel()
    # %.17g prints 1e-4 <= |x| < 1e17 in fixed notation: no double from
    # 1e-5 to 1e17 lies within half a unit of the 17th digit below a power
    # of ten, so none rounds up across a bound or to 18 digits. There
    # |x| = d * 10**-k with 17 digits d, rounded half-even as dtoa does:
    # the two-product hi + lo is |x| * 10**k exactly (10**k is exact for
    # k <= 22), and hi >= 1e16 > 2**53 is an even integer, so rounding lo
    # half-even rounds the sum half-even.
    a = np.abs(x)
    fixed = (a >= 1e-4) & (a < 1e17)
    a[~fixed] = 1.0
    k = 16 - np.floor(np.log10(a)).astype(np.int64)
    np.maximum(k, 0, out=k)
    hi, lo = _times_power_of_ten(a, k, powers, high, low)
    # log10 may miss by one next to a power of ten
    small = (hi < 1e16) | ((hi == 1e16) & (lo < 0))
    off = np.flatnonzero(small | (hi > 1e17) | ((hi == 1e17) & (lo >= 0)))
    if len(off):
        k[off] += np.where(small[off], 1, -1)
        hi[off], lo[off] = _times_power_of_ten(a[off], k[off], powers, high, low)
    d = hi.astype(np.int64) + np.rint(lo).astype(np.int64)
    exp10 = 16 - k  # exponent of the leading digit
    upper, lower = np.divmod(d, 10**8)
    lead, upper = np.divmod(upper, 10**8)
    chunks = (*np.divmod(upper, 10**4), *np.divmod(lower, 10**4))
    trailing = zeros[chunks[3]]
    run = np.flatnonzero(chunks[3] == 0)
    for chunk in chunks[2::-1]:
        trailing[run] += zeros[chunk[run]]
        run = run[chunk[run] == 0]

    slots = np.empty((len(x), _SLOT // 4), np.uint32)
    by_row = slots.reshape(*block.shape, -1)
    by_row[:, 1:, 0] = words[0]
    by_row[:, 0, 0] = words[1]
    slots[:, 1] = digits[lead]
    for j, chunk in enumerate(chunks):
        slots[:, 2 + j] = slots[:, 7 + j] = digits[chunk]
    slots[:, 6] = words[2]
    layout = np.signbit(x) * (21 * 17) + (exp10 + 4) * 17 + (16 - trailing)
    text = slots.view(np.uint8)
    other = np.flatnonzero(~fixed)
    if len(other):
        printed = (("%-24.17g" * len(other)) % tuple(x[other].tolist())).encode()
        printed = np.frombuffer(printed, np.uint8).reshape(-1, 24)
        text[other, 1:25] = printed
        layout[other] = _PERCENT_MASKS + np.count_nonzero(printed != ord(" "), axis=1)
    # every value's text starts with the separator before it
    return text[masks.take(layout, axis=0)][1:].tobytes() + b"\n"


def _json(doc) -> tuple:
    return ((json.dumps(doc, indent=2, sort_keys=True) + "\n").encode(),)


def _emit(chunks, path: str | None) -> None:
    """Write byte chunks to stdout, or to ``path`` through a temporary
    sibling that replaces it once every chunk is written."""
    if path is None:
        sys.stdout.buffer.writelines(chunks)
        sys.stdout.buffer.flush()
        return
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".retromech-", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


# --------------------------------------------------------------------------
# argument parsing

def _numpy(name):
    """numpy's ``name`` applied to an array; numpy loads at the first call."""
    def apply(t):
        import numpy as np
        return getattr(np, name)(t)
    return apply


_FN_TABLE = {
    "t": lambda t: t,
    "t^2": lambda t: t**2,
    "t^3": lambda t: t**3,
    "sin(t)": _numpy("sin"),
    "cos(t)": _numpy("cos"),
    "exp(t)": _numpy("exp"),
    "const": _numpy("ones_like"),
}

_SCHEMES = {
    "gl": Scheme.GRUNWALD_LETNIKOV,
    "trapezoid": Scheme.PRODUCT_TRAPEZOID,
}


def _add_grid_flags(p, a, b, n):
    p.add_argument("--a", type=float, default=a, help="interval start")
    p.add_argument("--b", type=float, default=b, help="interval end")
    p.add_argument("--n", type=int, default=n, help="sample count")


def _add_output_flags(p, default_format, choices=("csv", "json")):
    p.add_argument("--output", default=None, help="output path (stdout if omitted)")
    p.add_argument("--format", choices=choices, default=default_format)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="retromech",
        description="Causal/retrocausal fractional variational mechanics toolkit",
    )
    parser.add_argument("--version", action="version", version=__version__)
    parser.add_argument("--config", default=None,
                        help="JSON config file; flags override its values")
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")
    commands = {}

    p = commands["fracdiff"] = sub.add_parser(
        "fracdiff", help="sample a fractional derivative")
    p.add_argument("--alpha", type=float, default=None, help="derivative order")
    p.add_argument("--fn", choices=sorted(_FN_TABLE), default=None,
                   help="built-in sample function")
    p.add_argument("--scheme", choices=sorted(_SCHEMES), default="gl")
    p.add_argument("--direction", choices=("causal", "retrocausal"),
                   default="causal")
    _add_grid_flags(p, 0.0, 1.0, 4096)
    _add_output_flags(p, "csv")

    p = commands["derive-eom"] = sub.add_parser(
        "derive-eom", help="derive both equations of motion")
    p.add_argument("--lagrangian", default=None, help="lagrangian DSL text")
    p.add_argument("--alpha", type=float, default=None,
                   help="value substituted for the order placeholder 'a' "
                        "in q[...] before parsing")
    _add_output_flags(p, "json", choices=("json",))

    p = commands["oscillate"] = sub.add_parser(
        "oscillate", help="integrate the damped oscillator")
    p.add_argument("--m", type=float, default=1.0, help="mass")
    p.add_argument("--c", type=float, default=0.0, help="damping coefficient")
    p.add_argument("--k", type=float, default=1.0, help="stiffness")
    p.add_argument("--q0", type=float, default=1.0, help="boundary position")
    p.add_argument("--v0", type=float, default=0.0, help="boundary velocity")
    p.add_argument("--direction", choices=("causal", "retrocausal"),
                   default="causal")
    _add_grid_flags(p, 0.0, 10.0, 10001)
    _add_output_flags(p, "csv")

    p = commands["eigensolve"] = sub.add_parser(
        "eigensolve", help="solve a potential's spectrum")
    p.add_argument("--potential", default=None,
                   help="descriptor: free | harmonic, K | poly, C0, C1, ... "
                        "| well, L")
    p.add_argument("--count", type=int, default=3, help="number of eigenpairs")
    p.add_argument("--hbar", type=float, default=1.0)
    p.add_argument("--mass", type=float, default=1.0)
    _add_grid_flags(p, None, None, 2000)
    _add_output_flags(p, "json")

    p = commands["dampedwave"] = sub.add_parser(
        "dampedwave", help="damped free wave / well modes")
    p.add_argument("--xi", type=float, default=None, help="damping factor")
    p.add_argument("--B", type=float, default=None,
                   help="damping coefficient; xi = m^2 c / (2 hbar B)")
    p.add_argument("--m", type=float, default=1.0)
    p.add_argument("--c-light", type=float, default=1.0)
    p.add_argument("--hbar", type=float, default=1.0)
    p.add_argument("--energy", type=float, default=0.5)
    p.add_argument("--psi0", type=float, default=1.0, help="psi at the start")
    p.add_argument("--dpsi0", type=float, default=0.0, help="psi' at the start")
    p.add_argument("--well", type=float, default=None,
                   help="well length; switches to hard-wall mode energies")
    p.add_argument("--count", type=int, default=5, help="well mode count")
    _add_grid_flags(p, 0.0, 10.0, 2001)
    _add_output_flags(p, "csv")

    commands["verify"] = sub.add_parser(
        "verify", help="run the built-in verification suite")
    return parser, commands


_REQUIRED = {
    "fracdiff": ("alpha", "fn"),
    "derive-eom": ("lagrangian",),
    "eigensolve": ("potential",),
}


def parse_args(argv) -> RunConfig:
    """Turn argv (plus an optional JSON config) into a RunConfig.

    Usage problems (unknown flag, missing required parameter, malformed
    number) terminate with exit code 2 via argparse. Config file values
    become the defaults of the chosen subcommand, so explicit flags always
    win.
    """
    argv = list(argv)
    parser, commands = build_parser()

    # peel --config off so the file can supply the command itself
    config_values: dict = {}
    pruned = []
    i = 0
    while i < len(argv):
        arg = argv[i]
        if arg == "--config":
            if i + 1 >= len(argv):
                parser.error("argument --config: expected one argument")
            config_values = _load_config(parser, argv[i + 1])
            i += 2
            continue
        if arg.startswith("--config="):
            config_values = _load_config(parser, arg.split("=", 1)[1])
            i += 1
            continue
        pruned.append(arg)
        i += 1

    command = None
    if pruned and not pruned[0].startswith("-"):
        command = pruned[0]
        pruned = pruned[1:]
    elif "command" in config_values:
        command = str(config_values["command"])
    if command is None:
        if pruned and pruned[0] in ("-h", "--help", "--version"):
            parser.parse_args(pruned)  # prints and exits 0
        parser.print_usage(sys.stderr)
        parser.exit(2, f"{parser.prog}: error: missing command\n")
    if command not in commands:
        parser.error(f"unknown command {command!r}")

    subparser = commands[command]
    if config_values:
        actions = {action.dest: action for action in subparser._actions}
        file_defaults = {}
        for key, value in config_values.items():
            if key == "command":
                continue
            dest = key.replace("-", "_")
            if dest not in actions:
                parser.error(f"unknown config key {key!r} for command {command!r}")
            converter = actions[dest].type
            if converter is not None and value is not None:
                try:
                    value = converter(value)
                except (TypeError, ValueError):
                    parser.error(f"malformed value for config key {key!r}: {value!r}")
            file_defaults[dest] = value
        subparser.set_defaults(**file_defaults)

    namespace = parser.parse_args([command] + pruned)
    options = vars(namespace)
    options.pop("config", None)
    options.pop("command", None)

    for dest in _REQUIRED.get(command, ()):
        if options.get(dest) is None:
            parser.error(f"missing required parameter --{dest.replace('_', '-')}")
    if command == "eigensolve":
        text = str(options.get("potential") or "").strip()
        needs_domain = text.startswith("free") or text.startswith("poly")
        if needs_domain and (options.get("a") is None or options.get("b") is None):
            parser.error("--a and --b are required for free and polynomial "
                         "potentials")
    if command == "dampedwave":
        if options.get("xi") is None and options.get("B") is None:
            parser.error("one of --xi or --B is required")
        if options.get("xi") is not None and options.get("B") is not None:
            parser.error("--xi and --B are mutually exclusive")
    return RunConfig(command=command, options=options)


def _load_config(parser, path):
    try:
        with open(path) as handle:
            doc = json.load(handle)
    except OSError as exc:
        parser.error(f"cannot read config file: {exc}")
    except json.JSONDecodeError as exc:
        parser.error(f"malformed config file {path}: {exc}")
    if not isinstance(doc, dict):
        parser.error(f"config file {path} must hold a JSON object")
    return doc


# --------------------------------------------------------------------------
# command handlers


def _wrap(origin: str, fn, *args, **kwargs):
    """Run a module call, mapping its errors to a CommandError naming it.
    The library's own errors subclass these: ``ParseError`` is a
    ValueError, ``UnstableIntegrationError`` and ``SpectrumError`` are
    RuntimeErrors."""
    try:
        return fn(*args, **kwargs)
    except (ValueError, ArithmeticError, IndexError, RuntimeError) as exc:
        raise CommandError(f"{origin}: {exc}") from exc


def _build_grid(opts):
    from .core import Grid
    return _wrap("core.Grid", Grid, opts["a"], opts["b"], opts["n"])


def _cmd_fracdiff(opts):
    import numpy as np

    from . import fracops
    from .core import GridFunction
    grid = _build_grid(opts)
    order = _wrap("fracops.FracOrder", fracops.FracOrder, opts["alpha"])
    with np.errstate(over="ignore", invalid="ignore"):  # fracops rejects inf/nan
        f = GridFunction(grid, _FN_TABLE[opts["fn"]](grid.points()))
    deriv = (fracops.causal_frac_deriv if opts["direction"] == "causal"
             else fracops.retrocausal_frac_deriv)
    out = _wrap(f"fracops.{opts['direction']}_frac_deriv", deriv, f, order,
                _SCHEMES[opts["scheme"]])
    t = grid.points()
    if opts["format"] == "csv":
        return _csv(["t", "deriv"], [t, out.samples.real])
    return _json({
        "alpha": opts["alpha"],
        "fn": opts["fn"],
        "direction": opts["direction"],
        "scheme": opts["scheme"],
        "grid": {"a": grid.a, "b": grid.b, "n": grid.n},
        "t": t.tolist(),
        "deriv": out.samples.real.tolist(),
    })


def _cmd_derive_eom(opts):
    from . import lagrangian
    text = opts["lagrangian"]
    if opts["alpha"] is not None:
        # CLI convenience: a bare 'a' (or 'alpha') order placeholder gets the
        # numeric value; the core grammar itself stays purely numeric
        value = repr(float(opts["alpha"]))
        text = re.sub(r"q\[\s*(?:alpha|a)\s*\]", f"q[{value}]", text)
    spec = _wrap("lagrangian.parse_lagrangian", lagrangian.parse_lagrangian, text)
    causal = _wrap("lagrangian.derive_causal_eom",
                   lagrangian.derive_causal_eom, spec)
    retro = _wrap("lagrangian.derive_retrocausal_eom",
                  lagrangian.derive_retrocausal_eom, spec)
    lines = [lagrangian.render_eom(causal), lagrangian.render_eom(retro)]
    doc = {
        "causal": lagrangian.eom_to_json_dict(causal),
        "retrocausal": lagrangian.eom_to_json_dict(retro),
    }
    reducible = all(t.total_order.denominator == 1 for t in causal.terms)
    if reducible and not causal.is_degenerate:
        ode_c = _wrap("lagrangian.reduce_integer_orders",
                      lagrangian.reduce_integer_orders, causal)
        ode_r = _wrap("lagrangian.reduce_integer_orders",
                      lagrangian.reduce_integer_orders, retro)
        lines.append("reduced causal:      " + lagrangian.render_eom(ode_c))
        lines.append("reduced retrocausal: " + lagrangian.render_eom(ode_r))
        doc["reduced"] = {
            "causal": {"mass": ode_c.mass_coeff, "damping": ode_c.damping_coeff,
                       "stiffness": ode_c.stiffness_coeff},
            "retrocausal": {"mass": ode_r.mass_coeff,
                            "damping": ode_r.damping_coeff,
                            "stiffness": ode_r.stiffness_coeff},
        }
    print("\n".join(lines))
    # the human-readable form already went to stdout; JSON only goes to a file
    return _json(doc) if opts.get("output") else ()


def _cmd_oscillate(opts):
    from . import oscillator
    grid = _build_grid(opts)
    params = _wrap("oscillator.OscillatorParams", oscillator.OscillatorParams,
                   opts["m"], opts["c"], opts["k"], opts["q0"], opts["v0"])
    solve = (oscillator.solve_causal if opts["direction"] == "causal"
             else oscillator.solve_retrocausal)
    traj = _wrap(f"oscillator.solve_{opts['direction']}", solve, params, grid)
    t = grid.points()
    if opts["format"] == "csv":
        return _csv(["t", "q", "qdot", "energy"],
                    [t, traj.position.samples, traj.velocity.samples,
                     traj.energy()])
    return _json({
        "params": {"m": params.m, "C": params.C, "k": params.k,
                   "q0": params.q0, "v0": params.v0},
        "direction": opts["direction"],
        "t": t.tolist(),
        "q": traj.position.samples.tolist(),
        "qdot": traj.velocity.samples.tolist(),
        "energy": traj.energy().tolist(),
    })


def _cmd_eigensolve(opts):
    from . import eigensolver, lagrangian
    from .core import UnitsConfig
    potential = _wrap("lagrangian.parse_potential", lagrangian.parse_potential,
                      opts["potential"])
    units = _wrap("core.UnitsConfig", UnitsConfig, opts["hbar"], opts["mass"])
    if opts["a"] is not None and opts["b"] is not None:
        grid = _build_grid(opts)
    else:
        grid = _wrap("eigensolver.default_grid", eigensolver.default_grid,
                     potential, opts["n"], units)
    ham = _wrap("eigensolver.build_hamiltonian", eigensolver.build_hamiltonian,
                potential, grid, units)
    sol = _wrap("eigensolver.solve_spectrum", eigensolver.solve_spectrum,
                ham, opts["count"])
    if opts["format"] == "csv":
        header = ["x"] + [f"psi_{n}" for n in range(sol.count)]
        columns = [grid.points()] + [psi.samples for psi in sol.eigenfunctions]
        return _csv(header, columns)
    return _json({
        "potential": potential.to_json_dict(),
        "energies": sol.energies.tolist(),
        "units": {"hbar": units.hbar, "mass": units.mass,
                  "c_light": units.c_light},
        "grid": {"a": grid.a, "b": grid.b, "n": grid.n},
    })


def _cmd_dampedwave(opts):
    import numpy as np

    from . import dampedwave
    from .core import UnitsConfig
    units = _wrap("core.UnitsConfig", UnitsConfig,
                  opts["hbar"], opts["m"], opts["c_light"])
    if opts["B"] is not None:
        xi = _wrap("dampedwave.xi_from_params", dampedwave.xi_from_params,
                   opts["m"], opts["c_light"], opts["hbar"], opts["B"])
    else:
        xi = opts["xi"]
    if opts["well"] is not None:
        modes = _wrap("dampedwave.damped_well_modes", dampedwave.damped_well_modes,
                      xi, opts["well"], units, opts["count"])
        if opts["format"] == "csv":
            n = np.arange(1, len(modes.energies) + 1, dtype=np.float64)
            return _csv(["n", "energy"], [n, modes.energies])
        return _json({
            "xi": xi,
            "L": opts["well"],
            "energies": modes.energies.tolist(),
            "shooting_residuals": modes.shooting_residuals.tolist(),
        })
    params = _wrap("dampedwave.DampedWaveParams", dampedwave.DampedWaveParams,
                   xi, opts["energy"], units)
    grid = _build_grid(opts)
    sol = _wrap("dampedwave.solve_damped_free", dampedwave.solve_damped_free,
                params, grid, opts["psi0"], opts["dpsi0"])
    if opts["format"] == "csv":
        psi = sol.closed_form.samples
        x = grid.points()
        return _csv(["x", "Re(psi)", "Im(psi)", "abs(psi)"],
                    [x, psi.real, psi.imag, np.abs(psi)])
    roots = dampedwave.characteristic_roots(params)
    return _json({
        "xi": params.xi,
        "k": params.k_wave,
        "regime": sol.regime.value,
        "roots": [[r.real, r.imag] for r in roots],
        "max_discrepancy": sol.max_discrepancy,
    })


def _cmd_verify(_opts):
    from . import verify
    failures = verify.run_all()
    if failures:
        raise CommandError(f"verify: {failures} check(s) failed")
    return ()


#: Each handler returns its output as byte chunks; an empty sequence writes
#: nothing.
_HANDLERS = {
    "fracdiff": _cmd_fracdiff,
    "derive-eom": _cmd_derive_eom,
    "oscillate": _cmd_oscillate,
    "eigensolve": _cmd_eigensolve,
    "dampedwave": _cmd_dampedwave,
    "verify": _cmd_verify,
}


def run(config: RunConfig) -> int:
    """Execute a validated configuration. Returns the exit code."""
    handler = _HANDLERS[config.command]
    try:
        chunks = handler(config.options)
        if chunks:
            _emit(chunks, config.options.get("output"))
    except CommandError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return 1
    return 0


def main(argv=None) -> int:
    try:
        config = parse_args(sys.argv[1:] if argv is None else argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 0 if code is None else 2
    return run(config)


def console_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_entry()
