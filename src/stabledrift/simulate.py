"""Euler discretization of stable-driven SDEs and reproducible seeding.

The sampling scheme for ``dX_t = mu(X_t) dt + sigma(X_t-) dZ_t`` observed at
``t_i = i * delta`` is the explicit Euler recursion

    X_{i+1} = X_i + mu(X_i) delta + sigma(X_i) delta^(1/alpha) xi_i

with independent standard stable increments ``xi_i``.  The ``delta^(1/alpha)``
factor is the self-similarity scaling of the driving noise; at ``alpha = 2``
it reduces to the familiar ``sqrt(delta)`` (up to the variance-2 convention
of the standard stable law).

One engine steps every path.  :func:`simulate_path` steps a single path on
plain Python floats; :func:`simulate_paths` steps a batch of seeds in
lockstep, with the state a numpy vector holding one entry per path, through
the same loop.  Each step is the model's own fused step when it declares a
``stepper``, else the generic step from its drift and diffusion.  A model
that declares an affine drift ``gamma - lam * x`` with constant sigma skips
the loop: each block of draws is one linear recurrence, which a doubling
scan of about a dozen array passes solves for every path at once.  Every
operation is elementwise IEEE arithmetic, so a path's states are bit for
bit the same in a batch of any width as alone.  Each path's stable
increments are drawn in blocks of 4096 steps from its own seed's stream, so
neither a full-length draw array nor a full-length list is ever built; the
bound check runs once per block and still names the first offending step.
A batch steps in passes of at most 256 paths, and each pass allocates its
draw, scratch and state blocks once: every block of draws is mapped into
the same buffers, and each step writes the next states into a row of the
same state block.

Seeding is two-level: experiments hold one master seed and derive one
independent stream per replicate through a fixed 64-bit mixing function, so
any replicate can be regenerated in isolation and parallel execution cannot
perturb the draw sequence.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ParameterError, SimulationError, read_text
from .models import SdeModel, euler_step
from .stable import StableParams, _cms_transform

__all__ = [
    "ObservedPath",
    "simulate_path",
    "simulate_paths",
    "derive_replicate_seed",
    "write_path_csv",
    "read_path_csv",
    "increment_diagnostics",
]

_STATE_BOUND = 1e12
# Steps per block of stable draws: the draws held at once stay a few
# hundred KiB per path, whatever the path length.
_CHUNK = 4096
# Seeds stepped together in one lockstep pass: a pass's draw, scratch and
# state blocks grow with its width, so a wider batch is stepped in passes
# of at most this many seeds.  Much narrower passes step measurably slower.
_PASS = 256
_MASK64 = (1 << 64) - 1


@dataclass(frozen=True)
class ObservedPath:
    """A discretely observed trajectory.

    Attributes
    ----------
    x : numpy.ndarray
        Observations ``X_0 .. X_n``, length ``n + 1``.
    delta : float
        Observation spacing.
    n : int
        Number of increments.
    seed : int or None
        Seed the trajectory was generated from; None for externally
        loaded data.
    model_name : str
        Name of the generating model, or ``"external"``.
    noise : StableParams or None
        Driving noise parameters when known.
    """

    x: np.ndarray
    delta: float
    n: int
    seed: int | None
    model_name: str
    noise: StableParams | None

    def __post_init__(self) -> None:
        x = np.asarray(self.x, dtype=float)
        object.__setattr__(self, "x", x)
        if x.ndim != 1 or x.size < 2:
            raise ParameterError("path must be a 1-d array with at least two observations")
        if not np.isfinite(x).all():
            raise ParameterError("path contains non-finite values")
        if self.n != x.size - 1:
            raise ParameterError(f"n = {self.n} does not match {x.size} observations")
        if not (self.delta > 0.0 and math.isfinite(self.delta)):
            raise ParameterError(f"delta must be positive and finite, got {self.delta}")

    def times(self) -> np.ndarray:
        """Observation times ``i * delta``."""
        return np.arange(self.n + 1) * self.delta


def simulate_path(
    model: SdeModel,
    noise: StableParams,
    x0: float,
    n: int,
    delta: float,
    seed: int,
    burn_in: int = 100_000,
) -> ObservedPath:
    """Simulate an observed trajectory after discarding a burn-in prefix.

    The path is stepped on plain Python floats, one block of at most
    4096 steps at a time; its increments are the first ``burn_in + n``
    values of ``sample_standard_stable(noise, Generator(PCG64(seed)))``,
    drawn block by block, so no array or list of the full length is built
    except the recorded states.

    Parameters
    ----------
    model : SdeModel
    noise : StableParams
        Requires ``1 < alpha <= 2``; below that the drift has no stationary
        mean structure to estimate.
    x0 : float
        Starting state for the burn-in segment.
    n : int
        Number of recorded increments; ``n + 1`` states are returned and
        ``x[0]`` is the state reached after the burn-in.
    delta : float
        Time step.
    seed : int
        Non-negative seed for this trajectory's stable increment stream;
        ``None`` is rejected, since a run drawn from OS entropy cannot be
        reproduced.
    burn_in : int
        Steps discarded before recording starts, so the recorded segment
        starts close to stationarity.

    Raises
    ------
    SimulationError
        If the state leaves ``(-1e12, 1e12)`` or becomes non-finite; the
        message carries the first offending step index.
    """
    _check_run(model, noise, x0, n, delta, burn_in)
    _check_seed(seed)
    states = np.empty((1, n + 1))
    _euler(model, noise, x0, n, delta, [seed], burn_in, states)
    return ObservedPath(
        x=states[0], delta=delta, n=n, seed=seed, model_name=model.name, noise=noise
    )


def simulate_paths(
    model: SdeModel,
    noise: StableParams,
    x0: float,
    n: int,
    delta: float,
    seeds,
    burn_in: int = 100_000,
) -> list[ObservedPath]:
    """Simulate one trajectory per seed, stepping all of them in lockstep.

    With several seeds the state is a numpy vector with one entry per path,
    so each Euler step costs a few array operations for the whole batch.
    Every operation is elementwise IEEE arithmetic, so path ``j`` is bit for
    bit ``simulate_path(..., seed=seeds[j], ...)``; a single seed takes the
    float path of :func:`simulate_path`.  The recorded states of the batch
    share one ``(len(seeds), n + 1)`` array.  A batch of more than 256
    seeds is stepped in passes of nearly equal width, each writing its rows
    of that array, so the working memory beside it stays bounded.

    Parameters are those of :func:`simulate_path`, with ``seeds`` a
    nonempty sequence of non-negative integers.

    Raises
    ------
    SimulationError
        When a path leaves ``(-1e12, 1e12)``; the message names the first
        offending step and that path's seed, and the error's ``path_index``
        is the path's position in ``seeds``.
    """
    _check_run(model, noise, x0, n, delta, burn_in)
    seeds = list(seeds)
    if not seeds:
        raise ParameterError("seeds must be a nonempty sequence")
    for seed in seeds:
        _check_seed(seed)
    states = np.empty((len(seeds), n + 1))
    passes = math.ceil(len(seeds) / _PASS)
    bounds = [len(seeds) * k // passes for k in range(passes + 1)]
    for start, stop in zip(bounds, bounds[1:]):
        try:
            _euler(model, noise, x0, n, delta, seeds[start:stop], burn_in, states[start:stop])
        except SimulationError as exc:
            index = start + exc.path_index
            error = SimulationError(f"seed {seeds[index]}: {exc}")
            error.path_index = index
            raise error from None
    return [
        ObservedPath(x=row, delta=delta, n=n, seed=seed, model_name=model.name, noise=noise)
        for row, seed in zip(states, seeds)
    ]


def _check_run(model, noise, x0, n, delta, burn_in) -> None:
    if not isinstance(model, SdeModel):
        raise ParameterError("model must be an SdeModel")
    if not isinstance(noise, StableParams):
        raise ParameterError("noise must be a StableParams instance")
    if not (1.0 < noise.alpha <= 2.0):
        raise ParameterError(f"simulation requires 1 < alpha <= 2, got {noise.alpha}")
    if not isinstance(n, int) or n < 1:
        raise ParameterError(f"n must be a positive integer, got {n}")
    if not isinstance(burn_in, int) or burn_in < 0:
        raise ParameterError(f"burn_in must be a nonnegative integer, got {burn_in}")
    if not (delta > 0.0 and math.isfinite(delta)):
        raise ParameterError(f"delta must be positive and finite, got {delta}")
    if not math.isfinite(x0):
        raise ParameterError(f"x0 must be finite, got {x0}")


def _check_seed(seed) -> None:
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or seed < 0:
        raise ParameterError(f"seed must be a non-negative integer, got {seed!r}")


def _stable_blocks(noise: StableParams, seeds: list, total: int):
    """Yield the first ``total`` standard stable increments of every seed's
    stream as ``(len(seeds), steps)`` blocks of at most ``_CHUNK`` steps.

    The stream is that of ``sample_standard_stable(noise, rng, size=total)``
    with ``rng = Generator(PCG64(seed))``: all ``total`` uniform angles come
    first, then the exponentials.  A uniform double consumes exactly one
    64-bit output, so the exponentials are read from a second generator
    advanced by ``total``, and both streams can be consumed block by block.
    The angles are ``uniform(-pi/2, pi/2)`` bit for bit, which numpy forms
    as ``-pi/2 + pi * u`` from the same doubles ``u`` as ``random``.

    The angle, wait, scratch and variate arrays are allocated once, at the
    first block's width, and every block is drawn and mapped into them, so
    a yielded block is valid only until the next one is drawn.
    """
    angles = [np.random.Generator(np.random.PCG64(seed)) for seed in seeds]
    waits = [np.random.Generator(np.random.PCG64(seed).advance(total)) for seed in seeds]
    buffers = np.empty((4, len(seeds), min(_CHUNK, total)))
    for start in range(0, total, _CHUNK):
        v, w, scratch, xi = buffers[:, :, : min(_CHUNK, total - start)]
        for row, (angle, wait) in enumerate(zip(angles, waits)):
            angle.random(out=v[row])
            wait.standard_exponential(out=w[row])
        v *= math.pi
        v += -math.pi / 2.0
        yield _cms_transform(noise, v, w, xi, scratch)


def _euler(
    model: SdeModel,
    noise: StableParams,
    x0: float,
    n: int,
    delta: float,
    seeds: list,
    burn_in: int,
    states: np.ndarray,
) -> None:
    """Write the recorded states of every seed's path into ``states``, one
    ``n + 1`` row per seed.

    A model with ``affine_drift`` and constant sigma steps each block of
    draws as a whole through :func:`_affine_block`.  Any other model steps
    one state at a time through its :func:`euler_step`: one seed keeps the
    state a Python float, which steps faster than any numpy scalar; several
    seeds make it a vector of ``width`` states, and each step writes the
    next state into a row of a ``(steps, width)`` block that, like the
    block of scaled increments, is allocated once and reused for every
    block of draws.  The bound check runs once per block, on the block's
    states.
    """
    width = len(seeds)
    scale = delta ** (1.0 / noise.alpha)
    affine = None
    if model.sigma_constant:
        # a constant sigma folds into the increments as sigma * delta^(1/alpha)
        scale = model.sigma_bounds[0] * scale
        affine = model.affine_drift
    step = euler_step(model, delta, None if width == 1 else width)
    state = float(x0) if width == 1 else np.full(width, float(x0))
    states[:, 0] = state  # x0, kept only when there is no burn-in
    if width > 1 and affine is None:
        terms, trail = np.empty((2, min(_CHUNK, burn_in + n), width))
    done = 0
    with np.errstate(all="ignore"):
        for xi in _stable_blocks(noise, seeds, burn_in + n):
            failure = None
            if affine is not None:
                block = _affine_block(xi, scale, state, affine, delta).T
                state = block[-1].copy()
            elif width == 1:
                rows: list = []
                append = rows.append
                try:
                    for term in (xi[0] * scale).tolist():
                        state = step(state, term)
                        append(state)
                except (ArithmeticError, ValueError) as exc:
                    # Float arithmetic (x ** 3, say) may overflow once a state
                    # has left the range, before the block's check is reached.
                    failure = exc
                block = np.array(rows).reshape(len(rows), 1)
            else:
                steps = xi.shape[1]
                np.multiply(xi.T, scale, out=terms[:steps])
                taken = 0
                try:
                    for term, row in zip(terms[:steps], trail[:steps]):
                        state = step(state, term, row)
                        taken += 1
                except (ArithmeticError, ValueError) as exc:
                    failure = exc
                block = trail[:taken]
                # the next block's steps write over this one's rows
                state = state.copy()
            _check_block(block, done, burn_in)
            if failure is not None:
                raise failure
            # the state after step k is recorded at index k + 1 - burn_in
            skip = max(0, burn_in - 1 - done)
            if skip < len(block):
                states[:, done + skip + 1 - burn_in : done + len(block) + 1 - burn_in] = block[skip:].T
            done += len(block)


def _affine_block(xi: np.ndarray, scale: float, state, affine: tuple[float, float], delta: float) -> np.ndarray:
    """States after each step of a ``(width, steps)`` block of draws under
    the drift ``gamma - lam * x``, one row per path, from ``state``.

    Each Euler step is the linear recurrence ``x' = a x + u`` with
    ``a = 1 - lam * delta`` and ``u = gamma * delta + scale * xi``.  The
    rows start as ``u``, with ``a * state`` added to the first column, and
    a doubling scan then forms every prefix: after the pass with shift
    ``s``, column ``k`` sums the last ``2s`` terms ``a^(k-j) u_j``, so
    ``log2(steps)`` passes finish the block.  Every pass is elementwise
    along the rows, so a path's states do not depend on the batch around
    it; they differ from one-step-at-a-time Euler only by rounding.

    The factor ``a^s`` of each pass is kept to a few ulps.  While it is
    above 1/2 it is formed as ``1 - c`` with ``c_1 = lam * delta`` and
    ``c_2s = c_s * (2 - c_s)``, since the rounded ``a`` raised to the power
    ``s`` would scale its rounding error by ``s`` where ``lam * delta`` is
    small; below that, squaring keeps its relative error, which a large
    jump decaying through many steps would expose in ``1 - c``.  Only IEEE
    arithmetic is used, and an unstable schedule (``|a| > 1``) overflows to
    infinite factors rather than raising.
    """
    gamma, lam = affine
    c = lam * delta
    power = 1.0 - c
    rows = xi * scale + gamma * delta
    rows[:, 0] += power * state
    shift = 1
    while shift < rows.shape[1]:
        rows[:, shift:] += power * rows[:, :-shift]
        if power > 0.5:
            c = c * (2.0 - c)
            power = 1.0 - c
        else:
            power = power * power
            c = 1.0 - power
        shift *= 2
    return rows


def _check_block(block: np.ndarray, done: int, burn_in: int) -> None:
    """Raise at the first state of a ``(steps, width)`` block, taken after
    ``done`` earlier steps, that is outside ``(-1e12, 1e12)`` or not finite."""
    inside = np.abs(block) < _STATE_BOUND
    if inside.all():
        return
    row, column = np.argwhere(~inside)[0]
    step = done + int(row)
    where = f"burn-in step {step}" if step < burn_in else f"step {step - burn_in}"
    error = SimulationError(f"state left the stable range at {where}")
    error.path_index = int(column)
    raise error


def derive_replicate_seed(master_seed: int, replicate_index: int) -> int:
    """Derive the seed of one replicate from a master seed.

    Uses two rounds of the splitmix64 finalizer: the master seed is mixed
    once, XOR-ed with the replicate index, and mixed again.  The finalizer
    is a bijection on 64-bit integers, so for a fixed master seed distinct
    replicate indices always map to distinct seeds.
    """
    if not isinstance(master_seed, int):
        raise ParameterError("master_seed must be an integer")
    if not isinstance(replicate_index, int) or replicate_index < 0:
        raise ParameterError(f"replicate_index must be a nonnegative integer, got {replicate_index}")

    def mix(z: int) -> int:
        z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & _MASK64
        z = (z ^ (z >> 27)) * 0x94D049BB133111EB & _MASK64
        return z ^ (z >> 31)

    base = mix((master_seed + 0x9E3779B97F4A7C15) & _MASK64)
    return mix((base ^ replicate_index) & _MASK64)


def write_path_csv(path: ObservedPath, destination) -> None:
    """Write a trajectory as CSV with columns ``i,t,x``.

    Each time and state is written as Python's ``repr`` of the float: the
    shortest decimal that correct rounding maps back to the same double,
    independently of any locale.  :func:`read_path_csv` therefore reads
    every path back bit for bit, ``-0.0`` included, and parses fewer digits
    than 17 significant ones would give it.  The report writers keep
    ``.17g``, because their bytes are pinned by golden digests.

    Rows are formatted and written in blocks of 4096, so the text held at
    once stays a few hundred KiB whatever the path length.
    """
    delta = float(path.delta)
    with Path(destination).open("w", encoding="ascii") as handle:
        handle.write("i,t,x\n")
        for start in range(0, path.x.size, _CHUNK):
            values = path.x[start : start + _CHUNK].tolist()
            handle.write("".join(f"{i},{i * delta!r},{value!r}\n" for i, value in enumerate(values, start)))


def read_path_csv(source, *, noise: StableParams | None = None) -> ObservedPath:
    """Load a trajectory written by :func:`write_path_csv`; its model name is
    ``"external"``.

    A well-formed file is parsed in one ``np.loadtxt`` pass over the open
    file.  Any other file, or one that fails a check below, is read again
    line by line, which names the first offending byte, header or row.

    Raises
    ------
    ParameterError
        On a byte that is not ASCII, a wrong header, fewer than two
        observations, a malformed row, an ``i`` cell that is not the row's
        index, a cell that is not a finite number, or unequal spacing; row
        numbers count data rows from 1.
    """
    table = _load_path_table(source)
    if table is None:
        table = _read_path_lines(source)
    t = table[:, 1].copy()
    x = table[:, 2].copy()
    # times near the float range may overflow here; the spacing check names them
    with np.errstate(all="ignore"):
        delta = float(t[1] - t[0])
        equal = np.allclose(np.diff(t), delta, rtol=1e-9, atol=1e-12)
    if not equal:
        raise ParameterError(f"{source}: observation times are not equally spaced")
    return ObservedPath(x=x, delta=delta, n=x.size - 1, seed=None, model_name="external", noise=noise)


# ASCII line breaks of ``str.splitlines``, at which the line-by-line reader
# ends a row, that a file's line iteration keeps inside a line; a file that
# holds one is left to that reader
_SPLITLINES_ONLY = (b"\v", b"\f", b"\x1c", b"\x1d", b"\x1e")
# Bytes of a path CSV checked at once before its bulk parse; every byte the
# check looks for is a byte on its own, so none straddles two blocks.
_SCAN = 1 << 20


def _load_path_table(source) -> np.ndarray | None:
    """The ``(i, t, x)`` table of a well-formed path CSV, parsed in bulk; None
    for a file that :func:`_read_path_lines` must read, with the same result
    or the error that names what is wrong."""
    with Path(source).open("rb") as handle:
        block = handle.read(_SCAN)
        if not block.startswith((b"i,t,x\n", b"i,t,x\r")):
            return None
        while block:
            if not block.isascii() or any(mark in block for mark in _SPLITLINES_ONLY):
                return None
            block = handle.read(_SCAN)
    with open(source, encoding="ascii") as handle:
        handle.readline()
        try:
            with warnings.catch_warnings():
                # a file with no rows warns; the line reader names it instead
                warnings.simplefilter("ignore", UserWarning)
                table = np.loadtxt(handle, delimiter=",", comments=None, ndmin=2)
        except ValueError:
            return None
    valid = (
        len(table) >= 2
        and table.shape[1] == 3
        and np.isfinite(table).all()
        and np.array_equal(table[:, 0], np.arange(len(table)))
    )
    return table if valid else None


def _read_path_lines(source) -> np.ndarray:
    """The ``(i, t, x)`` table of a path CSV read line by line, skipping blank
    lines; raises :class:`ParameterError` naming the first offending byte,
    the header, or the first bad row."""
    # the file's text is not kept past this line, to bound peak memory
    rows = [line for line in read_text(source, "ascii", ParameterError).splitlines() if line.strip()]
    if not rows or rows[0] != "i,t,x":
        raise ParameterError(f"{source}: expected a path CSV with header 'i,t,x'")
    if len(rows) < 3:
        raise ParameterError(f"{source}: need at least two observations")
    return _parse_path_rows(source, rows[1:])


def _parse_path_rows(source, lines: list[str]) -> np.ndarray:
    table = np.empty((len(lines), 3))
    for pos, line in enumerate(lines):
        fields = line.split(",")
        if len(fields) != 3:
            raise ParameterError(f"{source}: malformed row {pos + 1}: {line!r}")
        try:
            table[pos] = [float(cell) for cell in fields]
        except ValueError:
            raise ParameterError(f"{source}: row {pos + 1}: cells must be numbers, got {line!r}") from None
        if table[pos, 0] != pos:
            raise ParameterError(f"{source}: row {pos + 1}: expected i = {pos}, got {fields[0]!r}")
        if not np.isfinite(table[pos]).all():
            raise ParameterError(f"{source}: row {pos + 1}: t and x must be finite, got {line!r}")
    return table


def increment_diagnostics(path: ObservedPath, sigma_scale: float) -> dict:
    """Summary statistics of the path increments, highlighting large jumps.

    ``sigma_scale`` should be a representative diffusion magnitude; the jump
    threshold is ``10 * sigma_scale * delta^(1/alpha)`` when the noise index
    is known and the Gaussian scaling otherwise.
    """
    increments = np.diff(path.x)
    alpha = path.noise.alpha if path.noise is not None else 2.0
    threshold = 10.0 * sigma_scale * path.delta ** (1.0 / alpha)
    abs_inc = np.abs(increments)
    exceed = int(np.count_nonzero(abs_inc > threshold))
    return {
        "max_abs_increment": float(abs_inc.max()),
        "q999_abs_increment": float(np.quantile(abs_inc, 0.999)),
        "jump_threshold": float(threshold),
        "jump_count": exceed,
        "jump_fraction": exceed / abs_inc.size,
    }
