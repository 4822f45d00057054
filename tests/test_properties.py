"""Property tests over random inputs; derandomized by the profile in
``conftest.py``, so every run draws the same examples."""

import contextlib
import io
import json
import os
import re
import tempfile
import warnings

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from retromech.cli import (  # noqa: E402
    _FN_TABLE,
    _SCHEMES,
    build_parser,
    main,
    parse_args,
)
from retromech.core import Grid, GridFunction, UnstableIntegrationError  # noqa: E402
from retromech.csvtext import chunks  # noqa: E402
from retromech.dampedwave import (  # noqa: E402
    DampedWaveParams,
    damped_well_modes,
    solve_damped_free,
)
from retromech.fracops import (  # noqa: E402
    _DIRECT_MAX,
    _causal_convolve,
    causal_frac_deriv,
    gl_weights,
    retrocausal_frac_deriv,
)
from retromech.enums import Direction  # noqa: E402
from retromech.lagrangian import (  # noqa: E402
    FreePotential,
    HarmonicPotential,
    InfiniteWellPotential,
    LagrangianSpec,
    PolynomialPotential,
    ProductTerm,
    derive_causal_eom,
    derive_retrocausal_eom,
    parse_lagrangian,
    reduce_integer_orders,
    render_lagrangian,
)
from retromech.oscillator import (  # noqa: E402
    OscillatorParams,
    solve_causal,
    solve_retrocausal,
    time_reverse,
)
from test_core import reference_march  # noqa: E402
from test_fracops import recursive_causal_convolve  # noqa: E402


@hypothesis.settings(max_examples=40)
@hypothesis.given(m=st.floats(0.1, 10.0), big_c=st.floats(0.0, 10.0),
                  k=st.floats(0.0, 100.0), q0=st.floats(-2.0, 2.0),
                  v0=st.floats(-2.0, 2.0))
def test_reflection_theorem(m, big_c, k, q0, v0):
    # if q solves the damped equation from (q0, v0) at t = 0, its time
    # reverse solves the anti-damped one from (q0, -v0) at t = 3
    grid = Grid(0.0, 3.0, 3001)
    causal = solve_causal(OscillatorParams(m, big_c, k, q0, v0), grid)
    retro = solve_retrocausal(OscillatorParams(m, big_c, k, q0, -v0), grid)
    reference = time_reverse(causal.position)
    assert np.max(np.abs(retro.position.samples - reference.samples)) <= 1e-5


def _powers_of_ten(low, high):
    return st.floats(low, high).map(lambda e: 10.0 ** e)


def test_step_check_trips_wherever_the_amplitude_guard_did():
    # a relative amplitude guard of 1e6 times the boundary state, run by the
    # reference march: for oscillator inputs with k > 0, every march it
    # stops has an RK4 step outside the stability region
    reached = set()

    @hypothesis.settings(max_examples=300)
    @hypothesis.given(m=_powers_of_ten(-3.0, 3.0),
                      big_c=st.just(0.0) | _powers_of_ten(-4.0, 4.0),
                      k=_powers_of_ten(-8.0, 10.0),
                      q0=st.floats(-1e3, 1e3), v0=st.floats(-1e3, 1e3),
                      n=st.sampled_from([2, 3, 5, 11, 101, 1001]),
                      b=_powers_of_ten(-2.0, 8.0), retrocausal=st.booleans())
    def compare(m, big_c, k, q0, v0, n, b, retrocausal):
        params = OscillatorParams(m, big_c, k, q0, v0)
        grid = Grid(0.0, b, n)
        c1, c0 = params.coeffs
        limit = 1e6 * max(abs(q0), abs(v0), 1e-12)
        solve = solve_retrocausal if retrocausal else solve_causal
        try:
            reference_march((-c1, c0) if retrocausal else (c1, c0), q0, v0, grid,
                            backward=retrocausal, amplitude_limit=limit)
        except UnstableIntegrationError:
            reached.add("tripped")
            with pytest.raises(UnstableIntegrationError,
                               match="is outside the stability region"):
                solve(params, grid)
        else:
            reached.add("marched")

    compare()
    assert reached == {"tripped", "marched"}


def trapezoid_kernel(mu, n):
    # the product-trapezoid weights b_k for the order-mu fractional integral
    k = np.arange(1.0, n)
    b = np.zeros(n)
    b[1:] = (k + 1.0) ** (mu + 1.0) - 2.0 * k ** (mu + 1.0) + (k - 1.0) ** (mu + 1.0)
    return b


@hypothesis.settings(max_examples=60)
@hypothesis.given(n=st.one_of(st.integers(2, _DIRECT_MAX),  # both sides of the crossover
                              st.integers(_DIRECT_MAX + 1, 4 * _DIRECT_MAX),
                              st.integers(4 * _DIRECT_MAX + 1, 64 * _DIRECT_MAX)),
                  alpha=st.floats(0.01, 1.99),
                  gl=st.booleans(), complex_samples=st.booleans(),
                  growth=st.floats(-80.0, 80.0),
                  seed=st.integers(0, 2**32 - 1))
def test_causal_convolve_matches_direct_sum(n, alpha, gl, complex_samples, growth, seed):
    hypothesis.assume(abs(alpha - 1.0) > 0.01)
    kernel = gl_weights(alpha, n) if gl else trapezoid_kernel(np.ceil(alpha) - alpha, n)
    rng = np.random.default_rng(seed)
    y = rng.standard_normal(n)
    if complex_samples:
        y = y + 1j * rng.standard_normal(n)
    y = y * np.exp(growth * np.linspace(0.0, 1.0, n))
    out = _causal_convolve(y, kernel)
    if n > 4 * _DIRECT_MAX:  # the O(n^2) sum is too slow here; the frozen recursion is exact
        assert np.array_equal(out, recursive_causal_convolve(y, kernel))
        return
    ref = np.convolve(y, kernel)[:n]
    if n <= _DIRECT_MAX:
        assert np.array_equal(out, ref)
    # each output against the size of its own sum, which only holds the
    # samples up to it; not pointwise relative: values near t = a tend to 0
    bound = 1e-14 * np.maximum.accumulate(np.abs(y)) * np.sum(np.abs(kernel))
    assert np.all(np.abs(out - ref) <= bound)


# --------------------------------------------------------------------------
# CSV text: every value exactly as format(x, ".17g")


def _csv_bytes(values, width):
    values = np.resize(values, -(-len(values) // width) * width).reshape(-1, width)
    header = [f"c{j}" for j in range(width)]
    expected = "".join(",".join(format(float(v), ".17g") for v in row) + "\n"
                       for row in values)
    got = b"".join(chunks(header, list(values.T)))
    return got, (",".join(header) + "\n" + expected).encode()


_FIXED_RANGE_BITS = st.builds(  # sign, an exponent from 2**-17 to 2**57, mantissa
    lambda sign, exponent, mantissa: sign << 63 | exponent << 52 | mantissa,
    st.integers(0, 1), st.integers(1023 - 17, 1023 + 57), st.integers(0, 2**52 - 1))
_DECIMALS = st.builds(  # short decimals: trailing zeros in the 17 digits
    lambda digits, scale: np.float64(digits / 10**scale).view(np.uint64).item(),
    st.integers(-10**17, 10**17), st.integers(0, 22))


@hypothesis.settings(max_examples=300)
@hypothesis.given(bits=st.lists(st.one_of(st.integers(0, 2**64 - 1), _FIXED_RANGE_BITS,
                                          _DECIMALS), min_size=1, max_size=300),
                  width=st.integers(1, 4))
def test_csv_matches_format_on_bit_patterns(bits, width):
    got, expected = _csv_bytes(np.array(bits, dtype=np.uint64).view(np.float64), width)
    assert got == expected


# --------------------------------------------------------------------------
# CLI output: deterministic, the same on stdout and in a file, and exact


def _grid_argv(rows, step, minimum):
    n = max(rows, minimum)
    return n, step * (n - 1), ["--a=0", f"--b={step * (n - 1)!r}", f"--n={n}"]


@st.composite
def _oscillate(draw, rows):
    m, c, k = draw(st.floats(0.5, 5.0)), draw(st.floats(0.0, 1.0)), draw(st.floats(0.0, 20.0))
    q0, v0 = draw(st.floats(-2.0, 2.0)), draw(st.floats(-2.0, 2.0))
    direction = draw(st.sampled_from(["causal", "retrocausal"]))
    n, b, grid_argv = _grid_argv(rows, draw(st.floats(1e-4, 0.01)), 2)
    argv = ["oscillate", f"--m={m!r}", f"--c={c!r}", f"--k={k!r}", f"--q0={q0!r}",
            f"--v0={v0!r}", "--direction", direction] + grid_argv

    def columns():
        grid = Grid(0.0, b, n)
        solve = solve_causal if direction == "causal" else solve_retrocausal
        traj = solve(OscillatorParams(m, c, k, q0, v0), grid)
        return [grid.points(), traj.position.samples, traj.velocity.samples,
                traj.energy()]
    return argv, columns


@st.composite
def _fracdiff(draw, rows):
    alpha = draw(st.floats(0.05, 1.95))
    fn = draw(st.sampled_from(sorted(_FN_TABLE)))
    scheme = draw(st.sampled_from(sorted(_SCHEMES)))
    direction = draw(st.sampled_from(["causal", "retrocausal"]))
    n, b, grid_argv = _grid_argv(rows, draw(st.floats(1e-4, 0.01)), 4)
    argv = ["fracdiff", f"--alpha={alpha!r}", "--fn", fn, "--scheme", scheme,
            "--direction", direction] + grid_argv

    def columns():
        grid = Grid(0.0, b, n)
        f = GridFunction(grid, _FN_TABLE[fn](np, grid.points()))
        deriv = causal_frac_deriv if direction == "causal" else retrocausal_frac_deriv
        return [grid.points(), deriv(f, alpha, _SCHEMES[scheme]).samples.real]
    return argv, columns


@st.composite
def _dampedwave(draw, rows):
    xi, energy = draw(st.floats(0.0, 2.0)), draw(st.floats(0.1, 2.0))
    if draw(st.booleans()):
        count = rows if rows <= 30 else draw(st.integers(1, 30))
        argv = ["dampedwave", f"--xi={xi!r}", "--well", "1", "--count", str(count)]
        return argv, lambda: [np.arange(1.0, count + 1),
                              damped_well_modes(xi, 1.0, count=count).energies]
    psi0, dpsi0 = draw(st.floats(-2.0, 2.0)), draw(st.floats(-2.0, 2.0))
    n, b, grid_argv = _grid_argv(rows, draw(st.floats(1e-4, 0.01)), 2)
    argv = ["dampedwave", f"--xi={xi!r}", f"--energy={energy!r}", f"--psi0={psi0!r}",
            f"--dpsi0={dpsi0!r}"] + grid_argv

    def columns():
        grid = Grid(0.0, b, n)
        sol = solve_damped_free(DampedWaveParams(xi, energy), grid, psi0, dpsi0)
        psi = sol.closed_form.samples
        return [grid.points(), psi.real, psi.imag, np.abs(psi)]
    return argv, columns


def _run_cli(argv):
    """Exit code and stdout bytes of one in-process CLI run."""
    buffer = io.BytesIO()
    stream = io.TextIOWrapper(buffer, encoding="utf-8")
    with contextlib.redirect_stdout(stream):
        code = main(argv)
        stream.flush()
    return code, buffer.getvalue()


@pytest.mark.parametrize("rows", [1, 4095, 4096, 4097, None],
                         ids=["1", "4095", "4096", "4097", "drawn"])
@pytest.mark.parametrize("command", [_oscillate, _fracdiff, _dampedwave],
                         ids=["oscillate", "fracdiff", "dampedwave"])
@hypothesis.settings(max_examples=3)
@hypothesis.given(data=st.data())
def test_cli_csv_is_deterministic_and_exact(command, rows, data):
    # rows on both sides of the 4096-row formatting block; the grid
    # commands take at least 2 (fracdiff 4) rows, the well modes at most 30
    if rows is None:
        rows = data.draw(st.integers(1, 9000))
    argv, columns = data.draw(command(rows))
    first, second = _run_cli(argv), _run_cli(argv)
    assert first == second
    code, stdout = first
    assert code == 0
    with tempfile.TemporaryDirectory() as work:
        path = os.path.join(work, "out.csv")
        assert _run_cli(argv + ["--output", path]) == (0, b"")
        with open(path, "rb") as handle:
            assert handle.read() == stdout
    body = stdout.decode().splitlines()[1:]
    parsed = np.array([[float(v) for v in line.split(",")] for line in body])
    expected = np.column_stack(columns()).astype(np.float64)
    assert parsed.shape == expected.shape
    assert np.array_equal(parsed.view(np.uint64), expected.view(np.uint64))


# --------------------------------------------------------------------------
# the argv contract: exit 0 with finite output and an empty stderr, or
# exit 1 with one line naming the module and the call that failed

_ERROR_LINE = re.compile(r"error: [a-z]+\.[A-Za-z_.]+: [^\n]*\n")
_NON_FINITE = re.compile(rb"\b(?:nan|inf|NaN|Infinity)\b")


def _magnitude(zero=False):
    """Log-uniform floats over most of the float range, and 0 with ``zero``."""
    drawn = _powers_of_ten(-300.0, 300.0).map(repr)
    return st.just("0") | drawn if zero else drawn


def _signed(zero=False):
    """:func:`_magnitude` of either sign."""
    return st.tuples(st.sampled_from(["", "-"]), _magnitude(zero)).map("".join)


def _order():
    """Derivative orders, classical or not, as text."""
    return st.sampled_from(["0", "0.5", "1", "1.5", "2", "3"]) | st.floats(0.0, 3.0).map(repr)


def _lagrangian():
    """Lagrangian texts whose terms have coefficients of either sign, so a
    text may start with '-'."""
    term = st.tuples(_signed(), _order()).map(lambda t: f"{t[0]}*q[{t[1]}]")
    coeffs = st.lists(_signed(True), min_size=1, max_size=3).map(", ".join)
    potential = (st.just("") | st.just(" - V(free)")
                 | _signed(True).map(" - V(harmonic, {})".format)
                 | coeffs.map(" - V(poly, {})".format)
                 | _magnitude().map(" - V(well, {})".format))
    return st.tuples(st.lists(term, min_size=1, max_size=3).map(" + ".join),
                     potential).map("".join)


def _potential(draw):
    """An eigensolve descriptor, and whether it needs --a and --b."""
    kind = draw(st.sampled_from(["free", "harmonic", "poly", "well"]))
    if kind == "free":
        return "free", True
    if kind == "poly":
        coeffs = draw(st.lists(_signed(True), min_size=1, max_size=4))
        return ", ".join(["poly", *coeffs]), True
    value = draw(_signed(True) if kind == "harmonic" else _magnitude())
    return f"{kind}, {value}", False


@st.composite
def _cli_argv(draw, commands):
    """A subcommand from ``commands`` with drawn values over most of the
    float range for its value flags, each spelled ``--flag=value`` or as
    two tokens; every argv is free of usage errors."""
    command = draw(st.sampled_from(commands))
    argv = [command]

    def flag(name, values):
        value = draw(values)
        argv.extend([f"{name}={value}"] if draw(st.booleans()) else [name, value])

    def choice(name, *values):
        flag(name, st.sampled_from(values))

    def ends():
        # b > a but where a + width leaves the float range
        a = draw(_signed(True))
        flag("--a", st.just(a))
        flag("--b", _magnitude().map(lambda width: repr(float(a) + float(width))))

    n = st.integers(2, 40).map(str)
    if command == "oscillate":
        flag("--m", _magnitude())
        flag("--c", _magnitude(True))
        flag("--k", _magnitude(True))
        flag("--q0", _signed(True))
        flag("--v0", _signed(True))
        choice("--direction", "causal", "retrocausal")
    elif command == "dampedwave":
        flag("--xi", _magnitude(True))
        flag("--energy", _magnitude())
        flag("--psi0", _signed(True))
        flag("--dpsi0", _signed(True))
        choice("--format", "csv", "json")
    elif command == "fracdiff":
        flag("--alpha", _order())
        choice("--fn", *sorted(_FN_TABLE))
        choice("--scheme", *sorted(_SCHEMES))
        choice("--direction", "causal", "retrocausal")
        ends()
        choice("--format", "csv", "json")
    elif command == "eigensolve":
        potential, needs_domain = _potential(draw)
        argv.extend(["--potential", potential])
        flag("--count", st.integers(0, 4).map(str))
        if draw(st.booleans()):
            flag("--hbar", _magnitude())
            flag("--mass", _magnitude())
        if needs_domain or draw(st.booleans()):
            ends()
        choice("--format", "csv", "json")
        n = st.integers(16, 60).map(str)
    else:
        flag("--lagrangian", _lagrangian())
        return argv
    if command in ("oscillate", "dampedwave"):
        flag("--b", _magnitude())
    flag("--n", n)
    return argv


def _check_contract(argv):
    """Exit 0 with finite output and an empty stderr, or exit 1 with one
    ``error: <module>.<name>: `` line; numpy's RuntimeWarnings count as
    output on stderr."""
    err = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        code, stdout = _run_cli(argv)
    assert [str(w.message) for w in caught] == []
    if code == 0:
        assert err.getvalue() == "" and not _NON_FINITE.search(stdout)
    else:
        assert code == 1 and _ERROR_LINE.fullmatch(err.getvalue()), err.getvalue()


@hypothesis.settings(max_examples=300)
@hypothesis.given(argv=_cli_argv(["oscillate", "dampedwave"]))
def test_damped_commands_exit_zero_quietly_or_one_with_a_named_line(argv):
    # the two subcommands whose stability guard and roots are shared by core
    _check_contract(argv)


@hypothesis.settings(max_examples=300)
@hypothesis.given(argv=_cli_argv(["fracdiff", "eigensolve", "derive-eom"]))
def test_other_commands_exit_zero_quietly_or_one_with_a_named_line(argv):
    # "--lagrangian -1*q[1]" exited 2: argparse read the value as a flag
    _check_contract(argv)


# --------------------------------------------------------------------------
# config files: each value is parsed as the flag it names

#: Each subcommand's value-taking flags.
_VALUE_FLAGS = {
    name: [action for action in sub._actions if action.option_strings and action.nargs != 0]
    for name, sub in build_parser()[1].items()}

#: Every JSON type, and numbers as strings.
_JSON_VALUES = (st.none() | st.booleans() | st.integers() | st.floats()
                | st.text(max_size=6) | st.floats().map(repr)
                | st.lists(st.integers(), max_size=2)
                | st.dictionaries(st.text(max_size=2), st.floats(), max_size=1))


def _typed_values(action):
    """Values the flag takes, so that whole documents often parse."""
    if action.choices is not None:
        return st.sampled_from(sorted(action.choices))
    if action.type is None:
        return st.text(max_size=6)
    if action.type is int:
        return st.integers()
    return st.floats() | st.integers() | st.floats().map(repr)


@st.composite
def _config_document(draw):
    command = draw(st.sampled_from(sorted(_VALUE_FLAGS)))
    doc = {"command": command}
    given = [action for action in _VALUE_FLAGS[command] if draw(st.booleans())]
    wild = draw(st.sampled_from([None, *given]))  # takes a value of any JSON type
    for action in given:
        name = action.option_strings[0][2:]
        key = draw(st.sampled_from([name, name.replace("-", "_")]))
        doc[key] = draw(_JSON_VALUES if action is wild else _typed_values(action))
    return doc


def _parsed(argv):
    """repr of the RunConfig, or the exit code argparse stopped with."""
    try:
        with contextlib.redirect_stderr(io.StringIO()):
            return repr(parse_args(argv))
    except SystemExit as exc:
        return exc.code


@hypothesis.settings(max_examples=40)
@hypothesis.given(doc=_config_document())
def test_config_values_parse_as_the_flags_they_name(doc):
    # a config value took its own path, which skipped choices and
    # converted JSON numbers and null its own way
    argv = [doc["command"]] + [
        f"--{key.replace('_', '-')}={value if isinstance(value, str) else json.dumps(value)}"
        for key, value in doc.items() if key != "command" and value is not None]
    with tempfile.TemporaryDirectory() as work:
        path = os.path.join(work, "run.json")
        with open(path, "w") as handle:
            json.dump(doc, handle)
        from_file = _parsed(["--config", path])
    assert from_file == _parsed(argv)
    assert isinstance(from_file, str) or from_file == 2


# --------------------------------------------------------------------------
# lagrangian DSL

_POTENTIALS = st.one_of(
    st.just(FreePotential()),
    st.builds(HarmonicPotential, st.floats(0.0, 1e300)),
    st.builds(PolynomialPotential,
              st.lists(st.floats(allow_nan=False, allow_infinity=False),
                       min_size=1, max_size=4).map(tuple)),
    st.builds(InfiniteWellPotential, st.floats(1e-300, 1e300)),
)


def _term_or_none(coeff, order):
    """The term, or None where ``ProductTerm`` rejects the order: 2*order
    not a finite float."""
    try:
        return ProductTerm(coeff, order)
    except ValueError:
        return None


# orders from the whole finite float range
_TERMS = st.lists(
    st.builds(_term_or_none,
              st.floats(allow_nan=False, allow_infinity=False).filter(bool),
              st.floats(0.0, allow_infinity=False)).filter(bool),
    max_size=5, unique_by=lambda term: term.order)


@hypothesis.settings(max_examples=200)
@hypothesis.given(terms=_TERMS, potential=_POTENTIALS)
def test_render_parse_round_trip(terms, potential):
    spec = LagrangianSpec(tuple(terms), potential)
    assert parse_lagrangian(render_lagrangian(spec)) == spec


# orders 0, 1/2 and 1 double to the classical orders 0, 1 and 2
_CLASSICAL_TERMS = st.lists(
    st.builds(ProductTerm,
              st.floats(allow_nan=False, allow_infinity=False).filter(bool),
              st.sampled_from([0.0, 0.5, 1.0])),
    max_size=3, unique_by=lambda term: term.order)


def _terms_of(eom):
    return sorted((term.coeff, term.total_order) for term in eom.terms)


@hypothesis.settings(max_examples=200)
@hypothesis.given(terms=st.one_of(_TERMS, _CLASSICAL_TERMS), potential=_POTENTIALS)
def test_direction_symmetry(terms, potential):
    # the variational rule treats both directions alike: the same doubled
    # orders and coefficients, each side tagged with its own direction
    spec = LagrangianSpec(tuple(terms), potential)
    try:
        potential.gradient()
    except ValueError as exc:  # the well, or a polynomial whose dV/dq overflows
        for derive in (derive_causal_eom, derive_retrocausal_eom):
            with pytest.raises(ValueError, match=re.escape(str(exc))):
                derive(spec)
        return
    causal, retro = derive_causal_eom(spec), derive_retrocausal_eom(spec)
    assert _terms_of(causal) == _terms_of(retro)
    assert _terms_of(causal) == sorted((t.coeff, 2 * t.order) for t in spec.terms)
    for eom, direction in ((causal, Direction.CAUSAL), (retro, Direction.RETROCAUSAL)):
        assert eom.direction is direction
        assert eom.potential == potential
    try:
        ode_c = reduce_integer_orders(causal)
    except ValueError as exc:
        with pytest.raises(ValueError, match=re.escape(str(exc))):
            reduce_integer_orders(retro)
        return
    ode_r = reduce_integer_orders(retro)
    if ode_c is None:  # no classical form, whichever the direction
        assert ode_r is None
        return
    # a retrocausal derivative of order n carries (-1)^n: only the odd
    # order, the damping, changes sign
    assert ode_r.mass_coeff == ode_c.mass_coeff
    assert ode_r.damping_coeff == -ode_c.damping_coeff
    assert ode_r.stiffness_coeff == ode_c.stiffness_coeff
