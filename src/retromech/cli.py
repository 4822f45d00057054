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
of rows by :mod:`retromech.csvtext`, which holds its digit layout and
which only runs that write CSV load. Files are written to a temporary
sibling and renamed on success, so failures leave no partial output.
Exit codes: 0 success, 1 computation failure (one line naming the
library call, ``error: module.callee: detail``, also where a size cannot
be allocated; ``error: cannot format output: ...`` where formatting the
output runs out of memory), 2 usage error. The token after a
value-taking flag is its value, whatever it looks like: ``--lagrangian
"-1*q[1]"`` reads as ``--lagrangian=-1*q[1]``. ``--`` is never a value.

A JSON config file mirroring the flag names (plus ``command``) can seed
any run. Each value is parsed as its flag would be, with the same types
and choices; ``null`` leaves a flag unset, and explicit flags override
file values.

Each handler returns a JSON document or a CSV table, which ``run``
encodes, and imports the modules it uses, so parsing, ``--version``,
usage errors and ``derive-eom`` load no numpy; no run loads
``dataclasses``, since every record is an ``enums.Record``.
``json`` loads only where a config file is read or JSON is written.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
import tempfile

from . import __version__
from .enums import Record, Scheme

__all__ = ["RunConfig", "parse_args", "run", "main", "console_entry"]


class CommandError(Exception):
    """Computation-phase failure; rendered as `error: <origin>: <detail>`."""


class RunConfig(Record):
    """Validated command name plus its flag values."""

    command: str
    options: dict


# --------------------------------------------------------------------------
# deterministic formatting and output


def _encode(result):
    """The byte chunks of a handler's result: a dict is a JSON document,
    each array in it written as its list and each record as its fields; a
    ``(header, columns)`` pair is a CSV table; ``()`` is nothing."""
    if isinstance(result, dict):
        import json
        text = json.dumps(result, indent=2, sort_keys=True, default=lambda value: (
            {name: getattr(value, name) for name in value._fields}
            if isinstance(value, Record) else value.tolist()))
        return ((text + "\n").encode(),)
    if result:
        from .csvtext import chunks
        return chunks(*result)
    return ()


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

#: Sample functions of ``(np, t)``: the handler passes numpy, so parsing loads none.
_FN_TABLE = {
    "t": lambda np, t: t,
    "t^2": lambda np, t: t**2,
    "t^3": lambda np, t: t**3,
    "sin(t)": lambda np, t: np.sin(t),
    "cos(t)": lambda np, t: np.cos(t),
    "exp(t)": lambda np, t: np.exp(t),
    "const": lambda np, t: np.ones_like(t),
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


def _float_text(token):
    """A number as its text: argparse still rejects what ``float()`` cannot
    read, and ``derive-eom --alpha X`` then means exactly ``q[X]``."""
    float(token)
    return token


_float_text.__name__ = "float"  # argparse names the type in its error


def _takes_value(flags, token):
    """Whether argparse reads ``token`` as a flag that takes a value, given
    ``flags`` (option string -> takes a value): a flag spelled in full, or
    the prefix of exactly one long flag (argparse's ``allow_abbrev`` rule).
    An ambiguous prefix is left to argparse's own error."""
    if token not in flags and token.startswith("--") and token != "--":
        matches = [flag for flag in flags if flag.startswith(token)]
        if len(matches) == 1:
            token = matches[0]
    return flags.get(token, False)


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
    p.add_argument("--alpha", type=float, required=True, help="derivative order")
    p.add_argument("--fn", choices=sorted(_FN_TABLE), required=True,
                   help="built-in sample function")
    p.add_argument("--scheme", choices=sorted(_SCHEMES), default="gl")
    p.add_argument("--direction", choices=("causal", "retrocausal"),
                   default="causal")
    _add_grid_flags(p, 0.0, 1.0, 4096)
    _add_output_flags(p, "csv")

    p = commands["derive-eom"] = sub.add_parser(
        "derive-eom", help="derive both equations of motion")
    p.add_argument("--lagrangian", required=True, help="lagrangian DSL text")
    p.add_argument("--alpha", type=_float_text,
                   help="number substituted as written for the order "
                        "placeholder 'a' in q[...] before parsing")
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
    p.add_argument("--potential", required=True,
                   help="descriptor: free | harmonic, K | poly, C0, C1, ... "
                        "| well, L")
    p.add_argument("--count", type=int, default=3, help="number of eigenpairs")
    p.add_argument("--hbar", type=float, default=1.0)
    p.add_argument("--mass", type=float, default=1.0)
    _add_grid_flags(p, None, None, 2000)
    _add_output_flags(p, "json")

    p = commands["dampedwave"] = sub.add_parser(
        "dampedwave", help="damped free wave / well modes")
    damping = p.add_mutually_exclusive_group(required=True)
    damping.add_argument("--xi", type=float, help="damping factor")
    damping.add_argument("--B", type=float,
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


def parse_args(argv) -> RunConfig:
    """Turn argv (plus an optional JSON config) into a RunConfig.

    Usage problems (unknown flag or config key, missing required flag,
    malformed number, bad choice) terminate with exit code 2 via argparse.
    Config file values go through argparse as the flags they name, ahead of
    the explicit flags, so they get the same types and choices and an
    explicit flag always wins.
    """
    parser, commands = build_parser()

    # peel --config off so the file can supply the command itself
    config_values: dict = {}
    pruned = []
    args = iter(argv)
    for arg in args:
        if arg == "--config":
            path = next(args, None)
            if path is None:
                parser.error("argument --config: expected one argument")
            config_values = _load_config(parser, path)
        elif arg.startswith("--config="):
            config_values = _load_config(parser, arg.split("=", 1)[1])
        else:
            pruned.append(arg)

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
    flags = {flag: action.nargs != 0 for action in subparser._actions
             for flag in action.option_strings}
    # a config entry is one "--flag=value" token ahead of the explicit flags,
    # so argparse converts and checks it as the flag, and an explicit flag
    # wins as the later occurrence; null means not given
    tokens = []
    for key, value in config_values.items():
        if key == "command" or value is None:
            continue
        flag = "--" + key.replace("_", "-")
        if not flags.get(flag):
            parser.error(f"unknown config key {key!r} for command {command!r}")
        import json
        tokens.append(f"{flag}={value if isinstance(value, str) else json.dumps(value)}")

    # the token after a value-taking flag is its value, whatever it looks
    # like: argparse alone takes "-2.5e+69" or "-1*q[1]" for an option
    joined = []
    for arg in pruned:
        if joined and _takes_value(flags, joined[-1]):
            joined[-1] += "=" + arg
        else:
            joined.append(arg)

    options = vars(parser.parse_args([command] + tokens + joined))
    options.pop("config", None)
    options.pop("command", None)
    empty = [key for key, value in options.items() if value == []]
    if empty:  # argparse drops a "--" value, leaving an empty list
        subparser.error(f"argument --{empty[0].replace('_', '-')}: expected one argument")
    if options.get("output") == "":  # its directory would be the parent's
        subparser.error("argument --output: expected a path, got ''")
    if command == "eigensolve":
        lone = (options["a"] is None) != (options["b"] is None)
        if lone or options["a"] is None and _needs_domain(options["potential"]):
            subparser.error("--a and --b go together, and free and polynomial "
                            "potentials require them")
    return RunConfig(command=command, options=options)


def _needs_domain(text):
    """Whether ``text`` parses as a potential without a default domain."""
    from . import lagrangian
    try:
        return lagrangian.parse_potential(text).kind in ("free", "poly")
    except ValueError:  # the handler names the parse error
        return False


def _load_config(parser, path):
    import json
    try:
        with open(path) as handle:
            doc = json.load(handle)
    except OSError as exc:
        parser.error(f"cannot read config file: {exc}")
    # bad JSON, bad UTF-8, an integer over 4300 digits, arrays nested past
    # the recursion limit
    except (ValueError, RecursionError) as exc:
        parser.error(f"malformed config file {path}: {exc}")
    if not isinstance(doc, dict):
        parser.error(f"config file {path} must hold a JSON object")
    return doc


# --------------------------------------------------------------------------
# command handlers


def _wrap(fn, *args, **kwargs):
    """Run a library call, mapping its errors to a CommandError that names
    ``fn`` as ``module.qualname`` (the function a wrapper's ``__wrapped__``
    points to, where it has one). The library's own errors subclass these:
    ``ParseError`` is a ValueError, ``UnstableIntegrationError`` and
    ``SpectrumError`` are RuntimeErrors. A size that memory cannot hold
    raises MemoryError, which numpy words as "Unable to allocate ..."."""
    try:
        return fn(*args, **kwargs)
    except (ValueError, ArithmeticError, IndexError, RuntimeError, MemoryError) as exc:
        callee = getattr(fn, "__wrapped__", fn)
        module = callee.__module__.rpartition(".")[2]
        detail = str(exc) or type(exc).__name__
        raise CommandError(f"{module}.{callee.__qualname__}: {detail}") from exc


def _build_grid(opts):
    from .core import Grid
    return _wrap(Grid, opts["a"], opts["b"], opts["n"])


def _cmd_fracdiff(opts):
    import numpy as np

    from . import fracops
    from .core import GridFunction
    grid = _build_grid(opts)
    order = _wrap(fracops.FracOrder, opts["alpha"])
    t = _wrap(grid.points)
    with np.errstate(over="ignore", invalid="ignore"):  # fracops rejects inf/nan
        f = GridFunction(grid, _FN_TABLE[opts["fn"]](np, t))
    deriv = (fracops.causal_frac_deriv if opts["direction"] == "causal"
             else fracops.retrocausal_frac_deriv)
    out = _wrap(deriv, f, order, _SCHEMES[opts["scheme"]])
    if opts["format"] == "csv":
        return ["t", "deriv"], [t, out.samples.real]
    return {
        "alpha": opts["alpha"],
        "fn": opts["fn"],
        "direction": opts["direction"],
        "scheme": opts["scheme"],
        "grid": grid,
        "t": t,
        "deriv": out.samples.real,
    }


def _cmd_derive_eom(opts):
    from . import lagrangian
    text = opts["lagrangian"]
    if opts["alpha"] is not None:
        # CLI convenience: a bare 'a' (or 'alpha') order placeholder gets the
        # number; the core grammar itself stays purely numeric
        text = re.sub(r"q\[\s*(?:alpha|a)\s*\]", f"q[{opts['alpha']}]", text)
    spec = _wrap(lagrangian.parse_lagrangian, text)
    causal = _wrap(lagrangian.derive_causal_eom, spec)
    retro = _wrap(lagrangian.derive_retrocausal_eom, spec)
    lines = [lagrangian.render_eom(causal), lagrangian.render_eom(retro)]
    doc = {
        "causal": lagrangian.eom_to_json_dict(causal),
        "retrocausal": lagrangian.eom_to_json_dict(retro),
    }
    ode_c = _wrap(lagrangian.reduce_integer_orders, causal)
    if ode_c is not None:
        ode_r = _wrap(lagrangian.reduce_integer_orders, retro)
        lines.append("reduced causal:      " + lagrangian.render_eom(ode_c))
        lines.append("reduced retrocausal: " + lagrangian.render_eom(ode_r))
        doc["reduced"] = {"causal": lagrangian.eom_to_json_dict(ode_c),
                          "retrocausal": lagrangian.eom_to_json_dict(ode_r)}
    print("\n".join(lines))
    # the human-readable form already went to stdout; JSON only goes to a file
    return doc if opts.get("output") else ()


def _cmd_oscillate(opts):
    from . import oscillator
    grid = _build_grid(opts)
    params = _wrap(oscillator.OscillatorParams, opts["m"], opts["c"], opts["k"],
                   opts["q0"], opts["v0"])
    solve = (oscillator.solve_causal if opts["direction"] == "causal"
             else oscillator.solve_retrocausal)
    traj = _wrap(solve, params, grid)
    energy = _wrap(traj.energy)
    t = _wrap(grid.points)
    if opts["format"] == "csv":
        return (["t", "q", "qdot", "energy"],
                [t, traj.position.samples, traj.velocity.samples, energy])
    return {
        "params": params,
        "direction": opts["direction"],
        "t": t,
        "q": traj.position.samples,
        "qdot": traj.velocity.samples,
        "energy": energy,
    }


def _cmd_eigensolve(opts):
    from . import eigensolver, lagrangian
    from .core import UnitsConfig
    potential = _wrap(lagrangian.parse_potential, opts["potential"])
    units = _wrap(UnitsConfig, opts["hbar"], opts["mass"])
    if opts["a"] is not None:  # parse_args takes --a and --b together
        grid = _build_grid(opts)
    else:
        grid = _wrap(eigensolver.default_grid, potential, opts["n"], units)
    ham = _wrap(eigensolver.build_hamiltonian, potential, grid, units)
    sol = _wrap(eigensolver.solve_spectrum, ham, opts["count"])
    if opts["format"] == "csv":
        header = ["x"] + [f"psi_{n}" for n in range(sol.count)]
        return header, [_wrap(grid.points)] + [psi.samples for psi in sol.eigenfunctions]
    return {
        "potential": potential.to_json_dict(),
        "energies": sol.energies,
        "units": units,
        "grid": grid,
    }


def _cmd_dampedwave(opts):
    import numpy as np

    from . import dampedwave
    from .core import UnitsConfig, characteristic_roots
    units = _wrap(UnitsConfig, opts["hbar"], opts["m"], opts["c_light"])
    xi = opts["xi"] if opts["B"] is None else _wrap(
        dampedwave.xi_from_params, opts["B"], units)
    if opts["well"] is not None:
        modes = _wrap(dampedwave.damped_well_modes, xi, opts["well"], units, opts["count"])
        if opts["format"] == "csv":
            n = np.arange(1, len(modes.energies) + 1, dtype=np.float64)
            return ["n", "energy"], [n, modes.energies]
        return {
            "xi": xi,
            "L": opts["well"],
            "energies": modes.energies,
            "shooting_residuals": modes.shooting_residuals,
        }
    params = _wrap(dampedwave.DampedWaveParams, xi, opts["energy"], units)
    grid = _build_grid(opts)
    sol = _wrap(dampedwave.solve_damped_free, params, grid, opts["psi0"], opts["dpsi0"])
    if opts["format"] == "csv":
        psi = sol.closed_form.samples
        return (["x", "Re(psi)", "Im(psi)", "abs(psi)"],
                [_wrap(grid.points), psi.real, psi.imag, np.abs(psi)])
    return {
        "xi": params.xi,
        "k": params.k_wave,
        "regime": sol.regime.value,
        "roots": [[r.real, r.imag] for r in characteristic_roots(*params.coeffs)],
        "max_discrepancy": sol.max_discrepancy,
    }


def _cmd_verify(_opts):
    from . import verify
    failures = verify.run_all()
    if failures:
        raise CommandError(f"verify: {failures} check(s) failed")
    return ()


#: Each handler returns a dict (a JSON document), a ``(header, columns)``
#: pair (a CSV table) or ``()``, not bytes: :func:`run` encodes and writes it.
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
        _emit(_encode(handler(config.options)), config.options.get("output"))
    except CommandError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:  # formatting the output, after every library call
        print(f"error: cannot format output: {str(exc) or type(exc).__name__}",
              file=sys.stderr)
        return 1
    except OSError as exc:  # its own text would name the temporary sibling
        path = config.options.get("output")
        target = "stdout" if path is None else repr(path)
        print(f"error: cannot write output to {target}: {exc.strerror or exc}",
              file=sys.stderr)
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
