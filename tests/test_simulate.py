"""Path simulation: exact degenerate cases, stationary-law agreement,
increment diagnostics, seed derivation, and CSV round trips."""
from __future__ import annotations

import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from stabledrift import simulate
from stabledrift import (
    ObservedPath,
    ParameterError,
    SdeModel,
    SimulationError,
    StableParams,
    builtin_model,
    derive_replicate_seed,
    increment_diagnostics,
    ks_critical_value,
    read_path_csv,
    sample_standard_stable,
    simulate_path,
    simulate_paths,
    two_sample_ks,
    write_path_csv,
)


def constant(value):
    def fn(x):
        if isinstance(x, float):
            return value
        return np.full_like(np.asarray(x, dtype=float), value)
    return fn


def raw_model(mu, sigma_value, name="test"):
    # built directly, skipping registration checks, to pin exact dynamics
    return SdeModel(
        name=name, params={}, mu=mu, mu_prime=constant(0.0),
        mu_double_prime=constant(0.0), sigma=constant(sigma_value),
        sigma_bounds=(sigma_value, sigma_value), lipschitz_mu=1.0,
    )


class TestExactDynamics:
    def test_zero_drift_zero_noise_is_constant(self):
        m = raw_model(constant(0.0), 0.0)
        path = simulate_path(m, StableParams(1.5, 0.0), x0=1.25, n=5, delta=0.1,
                             seed=7, burn_in=3)
        assert path.x.tolist() == [1.25] * 6

    def test_pure_drift_is_euler_recursion(self):
        m = raw_model(constant(2.0), 0.0)
        path = simulate_path(m, StableParams(1.5, 0.0), x0=0.5, n=4, delta=0.25,
                             seed=7, burn_in=2)
        # burn-in advances the same recursion before recording starts
        start = 0.5 + 2 * 0.25 * 2.0
        assert_allclose(path.x, start + 0.25 * 2.0 * np.arange(5), rtol=1e-15)

    def test_zero_burn_in_starts_at_x0(self):
        m = builtin_model("ou_linear")
        path = simulate_path(m, StableParams(1.5, 0.0), x0=-3.0, n=10, delta=0.01,
                             seed=3, burn_in=0)
        assert path.x[0] == -3.0

    def test_deterministic_in_seed(self):
        m = builtin_model("ou_linear")
        a = simulate_path(m, StableParams(1.5, 0.0), x0=0.0, n=500, delta=0.01, seed=42, burn_in=100)
        b = simulate_path(m, StableParams(1.5, 0.0), x0=0.0, n=500, delta=0.01, seed=42, burn_in=100)
        c = simulate_path(m, StableParams(1.5, 0.0), x0=0.0, n=500, delta=0.01, seed=43, burn_in=100)
        assert np.array_equal(a.x, b.x)
        assert not np.array_equal(a.x, c.x)

    def test_noise_scale_follows_delta_root(self):
        # with zero drift the increments are sigma * delta^{1/alpha} * xi
        m = raw_model(constant(0.0), 2.0)
        params = StableParams(1.5, 0.0)
        path = simulate_path(m, params, x0=0.0, n=2000, delta=0.04, seed=11, burn_in=0)
        increments = np.diff(path.x)
        xi = sample_standard_stable(params, np.random.default_rng(11), size=2000)
        # state accumulation rounds each step; only the scaled draws are exact
        assert_allclose(increments, 2.0 * 0.04 ** (1 / 1.5) * xi, rtol=1e-9, atol=1e-13)


class TestStationaryLaw:
    def test_gaussian_endpoint_moments(self):
        m = builtin_model("ou_linear", {"gamma": 0.5, "lam": 1.0, "sigma": 1.0})
        path = simulate_path(m, StableParams(2.0, 0.0), x0=0.0, n=150_000, delta=0.02,
                             seed=90_210, burn_in=10_000)
        # stationary law is N(gamma/lam, sigma^2/lam)
        assert path.x.mean() == pytest.approx(0.5, abs=0.08)
        assert path.x.var() == pytest.approx(1.0, abs=0.1)

    def test_heavy_tail_law_against_direct_draws(self):
        m = builtin_model("ou_linear", {"gamma": 0.0, "lam": 1.0, "sigma": 1.0})
        params = StableParams(1.5, 0.0)
        path = simulate_path(m, params, x0=0.0, n=300_000, delta=0.02,
                             seed=561_204, burn_in=10_000)
        scale = (1.0 / (1.5 * 1.0)) ** (1 / 1.5)
        reference = scale * sample_standard_stable(params, np.random.default_rng(8), size=200_000)
        assert two_sample_ks(path.x, reference) < 0.02


class TestIncrementDiagnostics:
    def test_heavy_tail_exceeds_jump_threshold(self):
        m = builtin_model("ou_linear")
        path = simulate_path(m, StableParams(1.5, 0.0), x0=0.0, n=20_000, delta=0.01,
                             seed=314, burn_in=5_000)
        diag = increment_diagnostics(path, sigma_scale=1.0)
        assert diag["jump_threshold"] == pytest.approx(10.0 * 0.01 ** (1 / 1.5))
        assert diag["jump_count"] > 0
        assert diag["max_abs_increment"] > diag["jump_threshold"]
        assert 0.0 < diag["jump_fraction"] < 0.1
        assert diag["q999_abs_increment"] < diag["max_abs_increment"]

    def test_gaussian_has_no_flagged_jumps(self):
        m = builtin_model("ou_linear")
        path = simulate_path(m, StableParams(2.0, 0.0), x0=0.0, n=20_000, delta=0.01,
                             seed=314, burn_in=5_000)
        diag = increment_diagnostics(path, sigma_scale=1.0)
        assert diag["jump_count"] == 0


class TestGuards:
    def test_explosion_raises_with_step_index(self):
        cubic = raw_model(lambda x: x ** 3 if isinstance(x, float) else np.asarray(x) ** 3, 0.0)
        with pytest.raises(SimulationError, match="step"):
            simulate_path(cubic, StableParams(1.5, 0.0), x0=5.0, n=50, delta=0.5,
                          seed=1, burn_in=0)

    def test_overflow_past_the_bound_reports_the_first_offending_step(self):
        # x ** 3 overflows Python floats two steps after the state passes
        # 1e12; the block's bound check must still name that first step
        cubic = raw_model(lambda x: x ** 3 if isinstance(x, float) else np.asarray(x) ** 3, 0.0)
        with pytest.raises(SimulationError, match=r"^state left the stable range at step 2$"):
            simulate_path(cubic, StableParams(1.5, 0.0), x0=5.0, n=50, delta=0.5, seed=1, burn_in=0)
        with pytest.raises(SimulationError, match=r"^state left the stable range at burn-in step 2$"):
            simulate_path(cubic, StableParams(1.5, 0.0), x0=5.0, n=50, delta=0.5, seed=1, burn_in=10)

    def test_explosion_in_a_batch_names_seed_and_step(self):
        cubic = raw_model(lambda x: x ** 3 if isinstance(x, float) else np.asarray(x) ** 3, 0.0)
        with pytest.raises(SimulationError, match=r"^seed 9: state left the stable range at step 2$") as caught:
            simulate_paths(cubic, StableParams(1.5, 0.0), x0=5.0, n=50, delta=0.5, seeds=[9, 2, 3],
                           burn_in=0)
        assert caught.value.path_index == 0

    def test_batch_validation(self):
        m = builtin_model("ou_linear")
        with pytest.raises(ParameterError, match="seeds"):
            simulate_paths(m, StableParams(1.5, 0.0), x0=0.0, n=10, delta=0.01, seeds=[], burn_in=0)
        with pytest.raises(ParameterError, match="seed must be a non-negative integer"):
            simulate_paths(m, StableParams(1.5, 0.0), x0=0.0, n=10, delta=0.01, seeds=[1, -1], burn_in=0)

    def test_parameter_validation(self):
        m = builtin_model("ou_linear")
        with pytest.raises(ParameterError):
            simulate_path(m, StableParams(1.0, 0.0), x0=0.0, n=10, delta=0.01, seed=1)
        with pytest.raises(ParameterError):
            simulate_path(m, StableParams(1.5, 0.0), x0=0.0, n=0, delta=0.01, seed=1)
        with pytest.raises(ParameterError):
            simulate_path(m, StableParams(1.5, 0.0), x0=0.0, n=10, delta=0.0, seed=1)
        with pytest.raises(ParameterError):
            simulate_path(m, StableParams(1.5, 0.0), x0=math.inf, n=10, delta=0.01, seed=1)
        with pytest.raises(ParameterError):
            simulate_path(m, StableParams(1.5, 0.0), x0=0.0, n=10, delta=0.01, seed=1,
                          burn_in=-1)

    @pytest.mark.parametrize("seed", [None, -1, True, 1.0, "7"])
    def test_seed_must_be_nonnegative_integer(self, seed):
        m = builtin_model("ou_linear")
        with pytest.raises(ParameterError, match="seed must be a non-negative integer"):
            simulate_path(m, StableParams(1.5, 0.0), x0=0.0, n=10, delta=0.01, seed=seed,
                          burn_in=0)

    def test_numpy_integer_seed_accepted(self):
        m = builtin_model("ou_linear")
        a = simulate_path(m, StableParams(1.5, 0.0), x0=0.0, n=10, delta=0.01, seed=np.int64(5),
                          burn_in=0)
        b = simulate_path(m, StableParams(1.5, 0.0), x0=0.0, n=10, delta=0.01, seed=5, burn_in=0)
        assert np.array_equal(a.x, b.x)


class TestImportCost:
    def test_affine_scan_leaves_scipy_signal_unimported(self):
        # The affine route scans in numpy instead of calling
        # scipy.signal.lfilter: importing scipy.signal took 0.53-0.62 s and
        # about 20 MiB of resident memory on a 2-vCPU x86-64 host, which
        # every run would pay at startup, or on its first ou_linear path.
        source = Path(simulate.__file__).resolve().parents[1]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(source), os.environ.get("PYTHONPATH")]))}
        script = (
            "import sys\n"
            "import stabledrift\n"
            "from stabledrift import StableParams, builtin_model, simulate_paths\n"
            "simulate_paths(builtin_model('ou_linear'), StableParams(1.5, 0.0), 0.0, 5000, 0.01, [1, 2], burn_in=100)\n"
            "print('scipy.signal' in sys.modules)\n"
        )
        result = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True)
        assert result.stdout.strip() == "False"


class TestSeedDerivation:
    def test_distinct_and_deterministic(self):
        seeds = {derive_replicate_seed(1234, i) for i in range(20_000)}
        assert len(seeds) == 20_000
        assert derive_replicate_seed(1234, 77) == derive_replicate_seed(1234, 77)
        assert derive_replicate_seed(1234, 77) != derive_replicate_seed(1235, 77)
        assert all(s >= 0 for s in (derive_replicate_seed(1234, i) for i in range(50)))

    def test_index_validation(self):
        with pytest.raises(ParameterError):
            derive_replicate_seed(1, -1)


class TestObservedPath:
    def test_times(self):
        path = ObservedPath(x=np.arange(4.0), delta=0.5, n=3, seed=None,
                            model_name="external", noise=None)
        assert_allclose(path.times(), [0.0, 0.5, 1.0, 1.5])

    def test_validation(self):
        with pytest.raises(ParameterError):
            ObservedPath(x=np.arange(4.0), delta=0.5, n=5, seed=None,
                         model_name="external", noise=None)
        with pytest.raises(ParameterError):
            ObservedPath(x=np.arange(4.0), delta=-0.5, n=3, seed=None,
                         model_name="external", noise=None)
        with pytest.raises(ParameterError):
            ObservedPath(x=np.array([0.0, math.nan, 1.0]), delta=0.5, n=2, seed=None,
                         model_name="external", noise=None)


class TestCsvRoundTrip:
    def test_exact_round_trip(self, tmp_path):
        m = builtin_model("ou_linear")
        path = simulate_path(m, StableParams(1.5, 0.2), x0=0.0, n=500, delta=0.01,
                             seed=9, burn_in=50)
        target = tmp_path / "path.csv"
        write_path_csv(path, target)
        loaded = read_path_csv(target)
        assert np.array_equal(loaded.x, path.x)
        assert loaded.delta == path.delta
        assert loaded.n == path.n

    def test_header_enforced(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("a,b,c\n0,0,0\n")
        with pytest.raises(ParameterError):
            read_path_csv(bad)

    def test_undecodable_byte_named_with_its_offset(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_bytes(b"i,t,x\n0,0.0,1.0\n1,0.1,1.\xe91\n")
        with pytest.raises(ParameterError, match=r"bad\.csv: byte 0xe9 at offset 24 is not valid ascii"):
            read_path_csv(bad)

    def test_unequal_spacing_rejected(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("i,t,x\n0,0.0,1.0\n1,0.1,1.1\n2,0.3,1.2\n")
        with pytest.raises(ParameterError):
            read_path_csv(bad)

    @pytest.mark.parametrize(
        "body, row",
        [
            ("0,0.0,1.0\n1,0.1,abc\n2,0.2,1.2\n", 2),
            ("0,0.0,1.0\n1,0.1,1.1\n2,,1.2\n", 3),
            ("0,0.0,nan\n1,0.1,1.1\n2,0.2,1.2\n", 1),
            ("0,0.0,1.0\n1,inf,1.1\n2,0.2,1.2\n", 2),
            ("0,0.0,1.0\n1,0.1,1.1\n2,0.2,-inf\n", 3),
            ("0,0.0,1.0\nx,0.1,1.1\n2,0.2,1.2\n", 2),
            ("0,0.0,1.0\n1,0.1,1.1,7\n2,0.2,1.2\n", 2),
        ],
    )
    def test_bad_cell_names_its_row(self, tmp_path, body, row):
        bad = tmp_path / "bad.csv"
        bad.write_text("i,t,x\n" + body)
        with pytest.raises(ParameterError, match=f"row {row}:"):
            read_path_csv(bad)

    @pytest.mark.parametrize("body, row", [
        ("0,0.0,1.0\n2,0.1,1.1\n", 2),
        ("1,0.0,1.0\n2,0.1,1.1\n", 1),
        ("0,0.0,1.0\n1,0.1,1.1\n1,0.2,1.2\n", 3),
    ])
    def test_index_column_checked(self, tmp_path, body, row):
        bad = tmp_path / "bad.csv"
        bad.write_text("i,t,x\n" + body)
        with pytest.raises(ParameterError, match=f"row {row}: expected i ="):
            read_path_csv(bad)

    ROWS = "0,0,1.2942707331187491\n1,0.01,-0.1\n2,0.02,3e-300\n3,0.03,0.30000000000000004\n"

    @pytest.mark.parametrize(
        "text",
        [
            "\ni,t,x\n" + ROWS,
            "i,t,x\n\n" + ROWS.replace("\n", "\n\n", 2),
            "i,t,x\n" + ROWS.replace("\n", "\n  \n", 1) + "\t\n",
            ("i,t,x\n" + ROWS).replace("\n", "\r\n"),
            ("i,t,x\n" + ROWS).replace("\n", "\r"),
            "i,t,x\n" + ROWS.rstrip("\n"),
            "i,t,x\n" + ROWS.replace("\n", "\f\n", 1),
        ],
        ids=["leading-blank", "blank-lines", "whitespace-lines", "crlf", "cr", "no-final-break", "form-feed-at-end"],
    )
    def test_bulk_parse_agrees_with_the_row_parser(self, tmp_path, text):
        target = tmp_path / "path.csv"
        target.write_bytes(text.encode("ascii"))
        table = simulate._parse_path_rows(target, [line for line in text.splitlines() if line.strip()][1:])
        loaded = read_path_csv(target)
        assert np.array_equal(loaded.x, table[:, 2])
        assert loaded.delta == float(table[1, 1] - table[0, 1])

    @pytest.mark.parametrize("text", ["i,t,x\n", "i,t,x", "i,t,x\n0,0.0,1.5\n", "\ni,t,x\n\n0,0.0,1.5\n\n"])
    def test_fewer_than_two_observations_named_without_a_warning(self, tmp_path, text):
        bad = tmp_path / "bad.csv"
        bad.write_text(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ParameterError, match="need at least two observations"):
                read_path_csv(bad)

    @pytest.mark.parametrize("mark", ["\v", "\f", "\x1c", "\x1d", "\x1e"])
    def test_a_line_break_inside_a_row_splits_it(self, tmp_path, mark):
        # str.splitlines breaks a line at each of these, so the row ends there
        bad = tmp_path / "bad.csv"
        bad.write_text(f"i,t,x\n0,0.0{mark},1.5\n1,0.25,-2.0\n2,0.5,0.125\n")
        with pytest.raises(ParameterError, match="malformed row 1: '0,0.0'"):
            read_path_csv(bad)

    def test_times_near_the_float_range_fail_the_spacing_check_without_a_warning(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("i,t,x\n0,0,1\n1,1e308,2\n2,-1e308,3\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ParameterError, match="observation times are not equally spaced"):
                read_path_csv(bad)

    def test_row_parser_matches_bulk_parse(self, tmp_path):
        # the row-by-row parser, which names bad rows, is the reference for
        # the bulk parse that handles well-formed files
        path = simulate_path(builtin_model("tanh_drift"), StableParams(1.7, 0.0), x0=0.0,
                             n=2_000, delta=0.01, seed=21, burn_in=100)
        target = tmp_path / "path.csv"
        write_path_csv(path, target)
        lines = target.read_text().splitlines()[1:]
        table = simulate._parse_path_rows(target, lines)
        loaded = read_path_csv(target)
        assert np.array_equal(table[:, 0], np.arange(path.n + 1))
        assert np.array_equal(table[:, 2], loaded.x)
        assert np.array_equal(loaded.x, path.x)
        assert loaded.delta == float(table[1, 1] - table[0, 1])


# the doubles whose shortest text is least like a plain decimal: signed
# zeros, subnormals, the range's ends, and magnitudes repr writes with an
# exponent
EDGE_STATES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, -1.5e-310,
               1.7976931348623157e308, -1.7976931348623157e308, 1e16, -2.5e16, 1.2345678901234567e22]


@st.composite
def csv_paths(draw):
    state = st.one_of(st.sampled_from(EDGE_STATES), st.floats(allow_nan=False, allow_infinity=False))
    x = draw(st.lists(state, min_size=2, max_size=40))
    # the last time (len(x) - 1) * delta stays finite
    delta = draw(st.floats(min_value=5e-324, max_value=1.7976931348623157e308 / len(x)))
    return x, delta


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(csv_paths())
@example((EDGE_STATES, 0.01))
@example((EDGE_STATES, 5e-324))
@example((EDGE_STATES, 1e300))
def test_path_csv_round_trip_is_exact_in_shortest_text(tmp_path, drawn):
    x, delta = drawn
    path = ObservedPath(x=np.array(x), delta=delta, n=len(x) - 1, seed=None,
                        model_name="external", noise=None)
    target = tmp_path / "path.csv"
    write_path_csv(path, target)
    loaded = read_path_csv(target)
    assert np.array_equal(loaded.x.view(np.uint64), path.x.view(np.uint64))
    assert loaded.delta == delta
    assert loaded.n == path.n
    lines = target.read_text(encoding="ascii").splitlines()
    for line in lines[1:]:
        _, t, value = line.split(",")
        assert t == repr(float(t))
        assert value == repr(float(value))
    bulk = simulate._load_path_table(target)
    assert bulk is not None
    rows = simulate._parse_path_rows(target, lines[1:])
    assert np.array_equal(rows.view(np.uint64), bulk.view(np.uint64))


WRITER_BLOCK = simulate._CHUNK


@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    rows=st.sampled_from([WRITER_BLOCK - 1, WRITER_BLOCK, WRITER_BLOCK + 1]),
    seed=st.integers(min_value=0, max_value=2 ** 32 - 1),
    # edge states on the rows around the writer's block edge
    edges=st.lists(
        st.tuples(st.integers(min_value=WRITER_BLOCK - 3, max_value=WRITER_BLOCK), st.sampled_from(EDGE_STATES)),
        max_size=4,
    ),
    delta=st.floats(min_value=5e-324, max_value=1.7976931348623157e308 / (WRITER_BLOCK + 1)),
)
def test_path_csv_round_trip_across_the_writer_blocks(tmp_path, rows, seed, edges, delta):
    x = np.random.default_rng(seed).standard_normal(rows).cumsum()
    for index, state in edges:
        x[min(index, rows - 1)] = state
    path = ObservedPath(x=x, delta=delta, n=rows - 1, seed=None, model_name="external", noise=None)
    target = tmp_path / "path.csv"
    write_path_csv(path, target)
    # the rows of every block continue the text of one whole-path format
    whole = "i,t,x\n" + "".join(f"{i},{i * delta!r},{value!r}\n" for i, value in enumerate(x.tolist()))
    assert target.read_bytes() == whole.encode("ascii")
    loaded = read_path_csv(target)
    assert np.array_equal(loaded.x.view(np.uint64), x.view(np.uint64))
    assert loaded.delta == delta


def test_a_mark_past_the_first_scan_block_goes_to_the_line_reader(tmp_path, monkeypatch):
    # with 16-byte blocks the marks below lie in the third block or later
    monkeypatch.setattr(simulate, "_SCAN", 16)
    head = "i,t,x\n0,0.0,1.5\n1,0.25,-2.0\n"
    for tail, match in [
        ("2,0.5\f,0.125\n", r"malformed row 3: '2,0.5'"),
        ("2,0.5,0.1\xe925\n", r"byte 0xe9 at offset 37 is not valid ascii"),
    ]:
        bad = tmp_path / "bad.csv"
        bad.write_bytes((head + tail).encode("latin-1"))
        assert simulate._load_path_table(bad) is None
        with pytest.raises(ParameterError, match=match):
            read_path_csv(bad)
    good = tmp_path / "good.csv"
    good.write_text(head + "2,0.5,0.125\n")
    assert simulate._load_path_table(good) is not None
    assert read_path_csv(good).x.tolist() == [1.5, -2.0, 0.125]
