"""Euler discretization of stable-driven SDEs, reproducible seeding, and
the path CSV round trip and jump diagnostics of an :class:`ObservedPath`.

The sampling scheme for ``dX_t = mu(X_t) dt + sigma(X_t-) dZ_t`` observed at
``t_i = i * delta`` is the explicit Euler recursion

    X_{i+1} = X_i + mu(X_i) delta + sigma(X_i) delta^(1/alpha) xi_i

with independent standard stable increments ``xi_i``.  The ``delta^(1/alpha)``
factor is the self-similarity scaling of the driving noise; at ``alpha = 2``
it reduces to the familiar ``sqrt(delta)`` (up to the variance-2 convention
of the standard stable law).

One engine steps every path.  :func:`simulate_path` steps a single path on
plain Python floats; :func:`simulate_paths` steps a batch of seeds in
lockstep, with the state a numpy vector holding one entry per path.  Each
path's stable increments are drawn in blocks from its own seed's stream, so
neither a full-length draw array nor a full-length list is ever built, and
each block is stepped in one call of a block stepper, which runs the
per-step loop inside the model's closure: the model's own ``stepper`` when
it declares one, else the generic step from its drift and diffusion.  A
declared step may regroup the Euler step's operations, as
bounded_nonlinear's step with a sigma(x) does, within a few ulps of the
exact step, but its float and vector forms take the same operations, so a
path's states are bit for bit the same in a batch of any width as alone.
A block stepper carries its state exactly from one block to the next, and
the stable map is elementwise, so its paths do not depend on where blocks
end: a block holds at most 2^16 draws over all paths, 4096 steps up to 16
paths and fewer steps beyond, and a wide batch's blocks stay a few MiB.
A model that declares an affine drift ``gamma - lam * x`` with constant
sigma skips the loop: each block of draws is one linear recurrence, which
a doubling scan of about a dozen elementwise array passes solves for every
path at once.  The scan's rounding depends on where its blocks end, and a
batch's groups narrow as threads are added, so its blocks are 4096 steps
at every width.  The bound check runs once per block and still names the
first offending step.  A batch steps in groups of contiguous paths, and
each group allocates its draw, scratch and state blocks once: every block
of draws is mapped into the same buffers, and the block stepper or the
scan writes the block's states into the same state block.  The groups of a
batch on the affine scan run on threads (:func:`simulate_paths` takes one
per CPU the process may run on), since its array passes release the
interpreter lock; the groups running at once hold at most 256 paths
together, so a batch's working memory is that of one 256-path pass
whatever its width and thread count.  Each group writes only its own rows
and draws only its own seeds' streams, so the paths do not depend on the
thread count.  Every other route steps its groups one after another,
because its per-step Python holds the lock.

Seeding is two-level: experiments hold one master seed and derive one
independent stream per replicate through a fixed 64-bit mixing function, so
any replicate can be regenerated in isolation and parallel execution cannot
perturb the draw sequence.
"""

from __future__ import annotations

import math
import os
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import MAX_DOUBLES, ParameterError, SimulationError, check_int, check_number, read_text
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
# Steps per block of stable draws on the affine scan, and rows per block of
# the path CSV writer: a few hundred KiB per path, whatever the path length.
_CHUNK = 4096
# Draws per block off the affine scan, over all paths of a group: a group
# wider than 16 paths steps blocks shorter than _CHUNK, so its draw, term
# and state blocks stay a few MiB, in cache, whatever its width.
_BLOCK_DRAWS = 1 << 16
# Seeds stepped at once: a group's draw, scratch and state blocks grow with
# its width, so the groups running together hold at most this many seeds.
# Much narrower groups step measurably slower on one thread.
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
        check_number("delta", self.delta, positive=True)

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
        Its type guarantees ``1 < alpha <= 2``, the range where the drift
        has a stationary mean structure to estimate.
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
    share one ``(len(seeds), n + 1)`` array, and contiguous groups of seeds
    each write their rows of it.  A model with an affine drift and constant
    sigma steps its groups on threads, one per CPU the process may run on;
    any other model steps them one after another.  The groups stepped at
    once hold at most 256 seeds together, so the working memory beside the
    states stays bounded whatever the width and the thread count, and the
    paths are the same bytes for any thread count.

    Parameters are those of :func:`simulate_path`, with ``seeds`` a
    nonempty sequence of non-negative integers.

    Raises
    ------
    SimulationError
        When a path leaves ``(-1e12, 1e12)``; the message names the first
        offending step and that path's seed, and the error's ``path_index``
        is the path's position in ``seeds``.  When several paths fail, the
        one that fails at the earliest step is named, and among those the
        first in ``seeds``.
    """
    return _simulate_paths(model, noise, x0, n, delta, seeds, burn_in, _usable_cpus())


def _simulate_paths(model, noise, x0, n, delta, seeds, burn_in, threads: int) -> list[ObservedPath]:
    """:func:`simulate_paths` on at most ``threads`` threads.

    The seeds are split into nearly equal contiguous groups, at least one
    per thread and each at most ``_PASS // threads`` wide, so the groups
    running at once hold at most ``_PASS`` seeds; on one thread they are
    passes of at most ``_PASS`` seeds stepped in turn.  Every group runs to
    its end or its first failure, and the failure reported is the earliest
    step's, ties going to the lowest position in ``seeds``: the one a
    single pass over the whole batch would name.
    """
    _check_run(model, noise, x0, n, delta, burn_in)
    seeds = list(seeds)
    if not seeds:
        raise ParameterError("seeds must be a nonempty sequence")
    for seed in seeds:
        _check_seed(seed)
    if not (model.sigma_constant and model.affine_drift is not None):
        threads = 1
    threads = min(threads, len(seeds), _PASS)
    groups = max(threads, math.ceil(len(seeds) / (_PASS // threads)))
    bounds = [len(seeds) * k // groups for k in range(groups + 1)]
    states = np.empty((len(seeds), n + 1))

    def run_group(group):
        start, stop = group
        try:
            _euler(model, noise, x0, n, delta, seeds[start:stop], burn_in, states[start:stop])
        except SimulationError as exc:
            exc.path_index += start
            return exc
        return None

    failures = [exc for exc in _thread_map(run_group, list(zip(bounds, bounds[1:])), threads) if exc is not None]
    if failures:
        first = min(failures, key=lambda exc: (exc.step, exc.path_index))
        error = SimulationError(f"seed {seeds[first.path_index]}: {first}")
        error.path_index = first.path_index
        raise error
    return [
        ObservedPath(x=row, delta=delta, n=n, seed=seed, model_name=model.name, noise=noise)
        for row, seed in zip(states, seeds)
    ]


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity set where the
    platform reports one, else every CPU."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _thread_map(function, items: list, threads: int) -> list:
    """``[function(item) for item in items]``, with at most ``threads``
    calls running at once on their own threads.

    Results are read in item order, so the exception raised is that of
    the first item whose call raised; the calls still running finish and
    those not yet started are cancelled first.  No thread outlives the
    call, so a process may fork once it returns.
    """
    if threads <= 1 or len(items) <= 1:
        return [function(item) for item in items]
    pool = ThreadPoolExecutor(max_workers=min(threads, len(items)))
    try:
        futures = [pool.submit(function, item) for item in items]
        return [future.result() for future in futures]
    finally:
        pool.shutdown(wait=True, cancel_futures=True)


def _check_run(model, noise, x0, n, delta, burn_in) -> None:
    if not isinstance(model, SdeModel):
        raise ParameterError("model must be an SdeModel")
    if not isinstance(noise, StableParams):
        raise ParameterError("noise must be a StableParams instance")
    # a path's n + 1 states are one array
    check_int("n", n, 1, MAX_DOUBLES - 1)
    check_int("burn_in", burn_in, 0)
    check_number("delta", delta, positive=True)
    check_number("x0", x0)


def _check_seed(seed) -> None:
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or seed < 0:
        raise ParameterError(f"seed must be a non-negative integer, got {seed!r}")


def _stable_blocks(noise: StableParams, seeds: list, total: int, block: int):
    """Yield the first ``total`` standard stable increments of every seed's
    stream as ``(len(seeds), steps)`` blocks of at most ``block`` steps.

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
    buffers = np.empty((4, len(seeds), min(block, total)))
    for start in range(0, total, block):
        v, w, scratch, xi = buffers[:, :, : min(block, total - start)]
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
    ``_CHUNK`` steps as a whole through :func:`_affine_block`, in a rows and
    a scratch block allocated once.  Any other model steps each block of
    draws in one call of its block stepper, :func:`euler_step`, which runs
    the per-step loop; its blocks are ``_CHUNK`` steps or ``_BLOCK_DRAWS``
    draws over all seeds, whichever is shorter.  One seed keeps the state a
    Python float, which steps faster than any numpy scalar, and the stepper
    appends the block's states to a list; several seeds make it a vector of
    ``width`` states, and the stepper writes them into the rows of a
    ``(steps, width)`` block that, like the block of scaled increments, is
    allocated once and reused for every block of draws.  The bound check
    runs once per block, on the block's states.  If a step raises, the
    states it did not reach are left out of the check: the list holds only
    the states taken, and the rows it did not reach hold zeros or states
    that passed an earlier block's check.
    """
    width = len(seeds)
    scale = delta ** (1.0 / noise.alpha)
    affine = None
    if model.sigma_constant:
        # a constant sigma folds into the increments as sigma * delta^(1/alpha)
        scale = model.sigma_bounds[0] * scale
        affine = model.affine_drift
    state = float(x0) if width == 1 else np.full(width, float(x0))
    states[:, 0] = state  # x0, kept only when there is no burn-in
    # the scan's rounding depends on where its blocks end, so they stay
    # _CHUNK long at every width; a block stepper's states do not
    length = _CHUNK if affine is not None else min(_CHUNK, _BLOCK_DRAWS // width)
    chunk = min(length, burn_in + n)
    if affine is not None:
        rows, scratch = np.empty((2, width, chunk))
    else:
        advance = euler_step(model, delta, None if width == 1 else width)
        if width > 1:
            terms, trail = np.empty((chunk, width)), np.zeros((chunk, width))
    done = 0
    with np.errstate(all="ignore"):
        for xi in _stable_blocks(noise, seeds, burn_in + n, length):
            steps = xi.shape[1]
            failure = None
            if affine is not None:
                block = _affine_block(xi, scale, state, affine, delta, rows[:, :steps], scratch[:, :steps]).T
                state = block[-1].copy()
            else:
                if width == 1:
                    block_terms, taken = xi[0] * scale, []
                else:
                    block_terms, taken = np.multiply(xi.T, scale, out=terms[:steps]), trail[:steps]
                try:
                    state = advance(state, block_terms, taken)
                except (ArithmeticError, ValueError) as exc:
                    # Float arithmetic (x ** 3, say) may overflow once a state
                    # has left the range, before the block's check is reached.
                    failure = exc
                if width == 1:
                    block = np.array(taken).reshape(len(taken), 1)
                else:
                    block = taken
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


def _affine_block(
    xi: np.ndarray, scale: float, state, affine: tuple[float, float], delta: float,
    rows: np.ndarray, scratch: np.ndarray,
) -> np.ndarray:
    """States after each step of a ``(width, steps)`` block of draws under
    the drift ``gamma - lam * x``, one row per path, from ``state``, written
    into ``rows``, which is returned; ``scratch``, of the same shape, holds
    each pass's products.

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
    np.multiply(xi, scale, out=rows)
    rows += gamma * delta
    rows[:, 0] += power * state
    steps = rows.shape[1]
    shift = 1
    while shift < steps:
        products = np.multiply(rows[:, :-shift], power, out=scratch[:, : steps - shift])
        rows[:, shift:] += products
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
    error.step = step
    raise error


def derive_replicate_seed(master_seed: int, replicate_index: int) -> int:
    """Derive the seed of one replicate from a master seed.

    Uses two rounds of the splitmix64 finalizer: the master seed is mixed
    once, XOR-ed with the replicate index, and mixed again.  The finalizer
    is a bijection on 64-bit integers, so for a fixed master seed distinct
    replicate indices always map to distinct seeds.
    """
    check_int("master_seed", master_seed)
    check_int("replicate_index", replicate_index, 0)

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

    A well-formed file is parsed in one ``np.loadtxt`` pass, given the file
    by name: numpy then reads it in chunks, where given an open file it
    builds one Python string per line first.  A name that ends in ``.gz``,
    ``.bz2``, ``.xz`` or ``.lzma``, which numpy would open through a
    decompressor, takes the same parse on the open file instead.  A file
    that fails a check below is read line by line, which names the first
    offending byte, header or row.

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
    t = table[:, 1]
    # times near the float range may overflow here; the spacing check names
    # them.  It compares one block of steps at a time, so that no temporary
    # of the table's length sits beside the table.
    with np.errstate(all="ignore"):
        delta = float(t[1] - t[0])
        equal = all(
            np.allclose(np.diff(t[start:start + _SPACING_BLOCK + 1]), delta, rtol=1e-9, atol=1e-12)
            for start in range(0, t.size - 1, _SPACING_BLOCK)
        )
    if not equal:
        raise ParameterError(f"{source}: observation times are not equally spaced")
    x = table[:, 2].copy()
    return ObservedPath(x=x, delta=delta, n=x.size - 1, seed=None, model_name="external", noise=noise)


# ASCII line breaks of ``str.splitlines``, at which the line-by-line reader
# ends a row, that a file's line iteration keeps inside a line; a file that
# holds one is left to that reader
_SPLITLINES_ONLY = (b"\v", b"\f", b"\x1c", b"\x1d", b"\x1e")
# Bytes of a path CSV checked at once before its bulk parse; every byte the
# check looks for is a byte on its own, so none straddles two blocks.
_SCAN = 1 << 20
# Time steps compared at once by the spacing check of ``read_path_csv``.
_SPACING_BLOCK = 1 << 16
# File suffixes for which numpy's ``DataSource`` opens a name through a
# decompressor; a plain path CSV so named is parsed from its open file.
_COMPRESSED_SUFFIXES = (".gz", ".bz2", ".xz", ".lzma")


def _load_path_table(source) -> np.ndarray | None:
    """The ``(i, t, x)`` table of a well-formed path CSV, parsed in bulk by
    ``np.loadtxt`` given the file's name, or its open file for a name with a
    compressed file suffix (see :func:`read_path_csv`); None for a file that
    :func:`_read_path_lines` must read, with the same result or the error
    that names what is wrong: one with a byte that is not ASCII or a line
    break that only ``str.splitlines`` sees, or a table that fails the
    checks below."""
    name = Path(source)
    with name.open("rb") as handle:
        block = handle.read(_SCAN)
        if not block.startswith((b"i,t,x\n", b"i,t,x\r")):
            return None
        while block:
            if not block.isascii() or any(mark in block for mark in _SPLITLINES_ONLY):
                return None
            block = handle.read(_SCAN)
    try:
        with warnings.catch_warnings():
            # a file with no rows warns; the line reader names it instead
            warnings.simplefilter("ignore", UserWarning)
            # ``Path`` folds every ``//`` after the start of the name, so no
            # name it gives has both a URL scheme and a network location, and
            # numpy's ``DataSource`` opens it as a local file, never a download;
            # a name it would open through a decompressor is handed over open
            with name.open(encoding="ascii") as text:
                table = np.loadtxt(
                    text if name.suffix in _COMPRESSED_SUFFIXES else os.fspath(name),
                    delimiter=",", comments=None, ndmin=2, skiprows=1, encoding="ascii",
                )
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
    threshold = 10.0 * check_number("sigma_scale", sigma_scale) * path.delta ** (1.0 / alpha)
    abs_inc = np.abs(increments)
    exceed = int(np.count_nonzero(abs_inc > threshold))
    return {
        "max_abs_increment": float(abs_inc.max()),
        "q999_abs_increment": float(np.quantile(abs_inc, 0.999)),
        "jump_threshold": float(threshold),
        "jump_count": exceed,
        "jump_fraction": exceed / abs_inc.size,
    }
