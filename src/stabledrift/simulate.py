"""Euler discretization of stable-driven SDEs and reproducible seeding.

The sampling scheme for ``dX_t = mu(X_t) dt + sigma(X_t-) dZ_t`` observed at
``t_i = i * delta`` is the explicit Euler recursion

    X_{i+1} = X_i + mu(X_i) delta + sigma(X_i) delta^(1/alpha) xi_i

with independent standard stable increments ``xi_i``.  The ``delta^(1/alpha)``
factor is the self-similarity scaling of the driving noise; at ``alpha = 2``
it reduces to the familiar ``sqrt(delta)`` (up to the variance-2 convention
of the standard stable law).

Seeding is two-level: experiments hold one master seed and derive one
independent stream per replicate through a fixed 64-bit mixing function, so
any replicate can be regenerated in isolation and parallel execution cannot
perturb the draw sequence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ParameterError, SimulationError
from .models import SdeModel
from .stable import StableParams, sample_standard_stable

__all__ = [
    "ObservedPath",
    "simulate_path",
    "derive_replicate_seed",
    "write_path_csv",
    "read_path_csv",
    "increment_diagnostics",
]

_STATE_BOUND = 1e12
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
        message carries the offending step index.
    """
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
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or seed < 0:
        raise ParameterError(f"seed must be a non-negative integer, got {seed!r}")

    rng = np.random.Generator(np.random.PCG64(seed))
    total = burn_in + n
    xi = np.asarray(sample_standard_stable(noise, rng, size=total))
    root = delta ** (1.0 / noise.alpha)
    mu = model.mu
    states = np.empty(n + 1)
    state = float(x0)
    # The recursion below runs on plain Python floats; pre-scaling the
    # increments and keeping the loop body minimal is what makes desk-scale
    # Monte Carlo runs (~1e8 steps) affordable without compiled extensions.
    if model.sigma_constant:
        terms = (xi * (model.sigma_bounds[0] * root)).tolist()
        for k in range(burn_in):
            state = state + mu(state) * delta + terms[k]
            if not (-_STATE_BOUND < state < _STATE_BOUND):
                raise SimulationError(f"state left the stable range at burn-in step {k}")
        states[0] = state
        for k in range(burn_in, total):
            state = state + mu(state) * delta + terms[k]
            if not (-_STATE_BOUND < state < _STATE_BOUND):
                raise SimulationError(f"state left the stable range at step {k - burn_in}")
            states[k - burn_in + 1] = state
    else:
        sigma = model.sigma
        terms = (xi * root).tolist()
        for k in range(burn_in):
            state = state + mu(state) * delta + sigma(state) * terms[k]
            if not (-_STATE_BOUND < state < _STATE_BOUND):
                raise SimulationError(f"state left the stable range at burn-in step {k}")
        states[0] = state
        for k in range(burn_in, total):
            state = state + mu(state) * delta + sigma(state) * terms[k]
            if not (-_STATE_BOUND < state < _STATE_BOUND):
                raise SimulationError(f"state left the stable range at step {k - burn_in}")
            states[k - burn_in + 1] = state
    return ObservedPath(
        x=states, delta=delta, n=n, seed=seed, model_name=model.name, noise=noise
    )


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

    Floats are rendered with 17 significant digits, enough to round-trip
    binary doubles exactly, and independently of any locale.
    """
    lines = ["i,t,x"]
    delta = path.delta
    for i, value in enumerate(path.x):
        lines.append(f"{i},{i * delta:.17g},{value:.17g}")
    Path(destination).write_text("\n".join(lines) + "\n", encoding="ascii")


def read_path_csv(source, *, model_name: str = "external", noise: StableParams | None = None) -> ObservedPath:
    """Load a trajectory written by :func:`write_path_csv`.

    Raises
    ------
    ParameterError
        On a wrong header, fewer than two observations, a malformed row, an
        ``i`` cell that is not the row's index, a cell that is not a finite
        number, or unequal spacing; row numbers count data rows from 1.
    """
    # the file's text is not kept past this line, to bound peak memory
    rows = [line for line in Path(source).read_text(encoding="ascii").splitlines() if line.strip()]
    if not rows or rows[0] != "i,t,x":
        raise ParameterError(f"{source}: expected a path CSV with header 'i,t,x'")
    if len(rows) < 3:
        raise ParameterError(f"{source}: need at least two observations")
    try:
        table = np.loadtxt(rows[1:], delimiter=",", comments=None, ndmin=2)
    except ValueError:
        table = None
    valid = (
        table is not None
        and table.shape[1] == 3
        and np.isfinite(table).all()
        and np.array_equal(table[:, 0], np.arange(len(table)))
    )
    if not valid:
        # the row-by-row parse names the first offending row
        table = _parse_path_rows(source, rows[1:])
    t = table[:, 1].copy()
    x = table[:, 2].copy()
    delta = float(t[1] - t[0])
    steps = np.diff(t)
    if not np.allclose(steps, delta, rtol=1e-9, atol=1e-12):
        raise ParameterError(f"{source}: observation times are not equally spaced")
    return ObservedPath(
        x=x, delta=delta, n=x.size - 1, seed=None, model_name=model_name, noise=noise
    )


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
