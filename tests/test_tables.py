import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracdelay import TimeFunctionTable, l2_window_norm, sup_norm_bound
from fracdelay.errors import EmptyTable, WindowOutOfRange
from fracdelay.tables import as_table, induced_norm, induced_norms


def table(times, values, interp="linear", sup=None):
    return TimeFunctionTable(np.asarray(times, float),
                             np.asarray(values, float), interp, sup)


def test_const_table_holds_left_value_and_extends():
    tbl = table([0.0, 1.0], [[[1.0]], [[2.0]]], "const")
    assert tbl(0.5)[0, 0] == 1.0
    assert tbl(1.0)[0, 0] == 2.0
    assert tbl(100.0)[0, 0] == 2.0


def test_linear_table_interpolates_and_bounds_domain():
    tbl = table([0.0, 1.0], [[[0.0]], [[2.0]]], "linear")
    assert tbl(0.25)[0, 0] == pytest.approx(0.5)
    with pytest.raises(WindowOutOfRange):
        tbl(1.5)


def test_sup_norm_bound_constant():
    assert sup_norm_bound(as_table(np.array([[-1.0]]))) == 1.0


def test_sup_norm_bound_max_of_samples():
    tbl = table([0.0, 1.0], [np.eye(2), 2 * np.eye(2)], "const")
    assert sup_norm_bound(tbl) == 2.0


def test_sup_norm_bound_declared_wins():
    tbl = table([0.0, 1.0], [np.eye(2), 2 * np.eye(2)], "const", sup=3.0)
    assert sup_norm_bound(tbl) == 3.0


def test_declared_bound_below_samples_rejected():
    with pytest.raises(ValueError):
        table([0.0], [2 * np.eye(2)], "const", sup=1.0)


def test_empty_table_rejected():
    with pytest.raises(EmptyTable):
        TimeFunctionTable(np.array([]), np.array([]), "const")


def test_l2_window_zero_function():
    tbl = table([0.0], [[[0.0]]], "const")
    assert l2_window_norm(tbl, 0.0, 5.0) == 0.0


def test_l2_window_constant():
    tbl = table([0.0], [3.0 * np.eye(2)], "const")
    delta = 2.5
    assert l2_window_norm(tbl, 0.0, delta) == pytest.approx(
        3.0 * np.sqrt(delta), rel=1e-14)


def test_l2_window_of_a_matrix_panel_bounds_the_integral():
    # ||diag(1 - t, t)||^2 = max(1 - t, t)^2 integrates to 7/12 on [0, 1];
    # Simpson gave 1/2, below it; the trapezoid gives (1 + 1) / 2
    tbl = table([0.0, 1.0], [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])],
                "linear")
    assert l2_window_norm(tbl, 0.0, 1.0) ** 2 == 1.0 >= 7.0 / 12.0


@pytest.mark.parametrize("values, exact", [
    # a scalar and a column: ||M||^2 is a quadratic, which Simpson keeps
    ([[[1.0]], [[0.0]]], 1.0 / 3.0),
    ([[[1.0], [0.0]], [[0.0], [1.0]]], 2.0 / 3.0),
])
def test_l2_window_of_a_vector_panel_stays_exact(values, exact):
    tbl = table([0.0, 1.0], values, "linear")
    assert l2_window_norm(tbl, 0.0, 1.0) == pytest.approx(np.sqrt(exact),
                                                          rel=1e-15)


def test_l2_window_linear_ramp():
    # M(t) = t on [0, 1]: integral of t^2 is 1/3
    tbl = table([0.0, 1.0], [[[0.0]], [[1.0]]], "linear")
    assert l2_window_norm(tbl, 0.0, 1.0) == pytest.approx(
        np.sqrt(1.0 / 3.0), rel=1e-14)


@pytest.mark.parametrize("t", [1e10, 1e15, 1e16])
def test_l2_window_far_start_keeps_its_width(t):
    # t + delta rounds to t or to a neighbour of t: widths come from delta
    deltas = [1e-2, 0.3, 1.0]
    tbl = table([0.0], [3.0 * np.eye(2)], "const")
    np.testing.assert_allclose([l2_window_norm(tbl, t, d) for d in deltas],
                               3.0 * np.sqrt(deltas), rtol=1e-15)
    # a sample time inside the window splits it at its offset d from t;
    # t + delta is not a float, and the last panel still has width delta - d
    ulp = np.spacing(t)
    d, delta = 8.0 * ulp, 16.25 * ulp
    step = table([0.0, t + d], [[[1.0]], [[2.0]]], "const")
    assert l2_window_norm(step, t, delta) == pytest.approx(
        np.sqrt(d + 4.0 * (delta - d)), rel=1e-15)


def test_l2_window_out_of_range():
    tbl = table([0.0, 1.0], [[[0.0]], [[1.0]]], "linear")
    with pytest.raises(WindowOutOfRange):
        l2_window_norm(tbl, 0.5, 1.0)


@settings(max_examples=40, deadline=None)
@given(st.floats(-5, 5), st.lists(st.floats(-3, 3), min_size=2, max_size=6))
def test_l2_window_homogeneity(c, vals):
    times = np.linspace(0.0, 1.0, len(vals))
    tbl = table(times, [[[v]] for v in vals], "linear")
    scaled = table(times, [[[c * v]] for v in vals], "linear")
    base = l2_window_norm(tbl, 0.0, 1.0)
    assert l2_window_norm(scaled, 0.0, 1.0) == pytest.approx(
        abs(c) * base, rel=1e-10, abs=1e-12)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(-3, 3), min_size=3, max_size=6),
       st.lists(st.floats(-3, 3), min_size=3, max_size=6))
def test_l2_window_subadditive(a_vals, b_vals):
    m = min(len(a_vals), len(b_vals))
    times = np.linspace(0.0, 1.0, m)
    ta = table(times, [[[v]] for v in a_vals[:m]], "linear")
    tb = table(times, [[[v]] for v in b_vals[:m]], "linear")
    tsum = table(times, [[[x + y]] for x, y in zip(a_vals[:m], b_vals[:m])],
                 "linear")
    lhs = l2_window_norm(tsum, 0.0, 1.0)
    rhs = l2_window_norm(ta, 0.0, 1.0) + l2_window_norm(tb, 0.0, 1.0)
    assert lhs <= rhs + 1e-10


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(0.1, 3), min_size=1, max_size=5),
       st.floats(0.1, 3))
def test_sup_norm_monotone_in_samples(vals, extra):
    times = np.arange(len(vals), dtype=float)
    tbl = table(times, [[[v]] for v in vals], "const")
    more = table(np.append(times, times[-1] + 1.0),
                 [[[v]] for v in vals] + [[[extra]]], "const")
    assert sup_norm_bound(more) >= sup_norm_bound(tbl)


def panel_reference(tbl, t, delta):
    """The windowed L2 norm one panel at a time: split at the sample times
    inside [t, t + delta]; per panel of a linear table the trapezoid for
    matrices of more than one row and column, Simpson otherwise.  Panel
    widths are differences of offsets from t (the last one delta itself).
    The norm is the package's one 2-norm, matrix by matrix."""
    a, b = float(t), float(t) + float(delta)
    times = tbl.sample_times
    cuts = times[(times > a) & (times < b)]
    knots = np.concatenate(([a], cuts, [b]))
    offsets = np.concatenate(([0.0], cuts - a, [float(delta)]))
    total = 0.0
    for lo, hi, w in zip(knots[:-1], knots[1:], np.diff(offsets)):
        if tbl.interpolation == "const":
            total += induced_norm(tbl(lo)) ** 2 * w
        elif tbl.values.ndim == 3 and min(tbl.values.shape[1:]) > 1:
            f = [induced_norm(tbl(s)) ** 2 for s in (lo, hi)]
            total += w * (f[0] + f[1]) / 2.0
        else:
            f = [induced_norm(tbl(s)) ** 2
                 for s in (lo, 0.5 * (lo + hi), hi)]
            total += w * (f[0] + 4.0 * f[1] + f[2]) / 6.0
    return float(np.sqrt(total))


def matrix_and_vector_tables():
    rng = np.random.default_rng(11)
    times = np.array([0.0, 0.5, 1.25, 2.0, 3.0])
    mats = rng.normal(size=(times.size, 3, 3))
    return [table(times, mats, "linear"), table(times, mats, "const"),
            table(times, rng.normal(size=(times.size, 4)), "linear")]


# (start, delta): inside to inside, sample to sample, inside to a sample,
# a sample to inside, the whole domain, inside one segment
WINDOWS = [(0.2, 0.7), (0.5, 0.75), (0.25, 1.75), (1.25, 0.3), (0.0, 3.0),
           (2.1, 0.5)]


@pytest.mark.parametrize("which", [0, 1, 2])
def test_l2_window_matches_the_panel_rule_bit_for_bit(which):
    # the same panels summed in the same order: equal, not just close
    tbl = matrix_and_vector_tables()[which]
    for t, delta in WINDOWS:
        assert l2_window_norm(tbl, t, delta) == panel_reference(tbl, t, delta)


@pytest.mark.parametrize("which", [0, 1, 2])
def test_l2_windows_of_one_start_match_the_panel_rule(which):
    tbl = matrix_and_vector_tables()[which]
    deltas = [1.75, 0.125, 2.75, 0.5, 1.75, 1.0]     # unsorted, repeated
    got = [l2_window_norm(tbl, 0.25, d) for d in deltas + [0.0, -1.0]]
    assert got[:6] == [panel_reference(tbl, 0.25, d) for d in deltas]
    # empty windows 0; past the end of a linear table, and at a NaN width,
    # WindowOutOfRange
    assert got[6:] == [0.0, 0.0]
    if tbl.interpolation == "linear":
        with pytest.raises(WindowOutOfRange):
            l2_window_norm(tbl, 0.25, 3.0)
    else:
        assert l2_window_norm(tbl, 0.25, 3.0) > 0.0
    with pytest.raises(WindowOutOfRange):
        l2_window_norm(tbl, 0.25, np.nan)


def two_norm_stacks(rng, n):
    """General real and complex, non-normal, rank-one and zero n x n
    matrices and n x 2n blocks, each scaled by 10^k, k in -200..200."""
    general = rng.normal(size=(6, n, n))
    complex_ = general + 1j * rng.normal(size=(6, n, n))
    nonnormal = np.triu(1e3 * rng.normal(size=(6, n, n)), 1) + np.eye(n)
    rank_one = np.einsum("ki,kj->kij", rng.normal(size=(6, n)),
                         rng.normal(size=(6, n)))
    square = np.concatenate((general, nonnormal, rank_one, np.zeros((2, n, n))))
    scale = 10.0 ** rng.integers(-200, 201, size=(3, square.shape[0]))
    return [square * s[:, None, None] for s in scale] + [
        complex_ * scale[0, :6, None, None],
        rng.normal(size=(6, n, 2 * n)) * scale[1, :6, None, None]]


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_two_norm_agrees_with_the_largest_singular_value(n):
    eps = np.finfo(float).eps
    for stack in two_norm_stacks(np.random.default_rng(n), n):
        got = induced_norms(stack)
        ref = np.linalg.svd(stack, compute_uv=False)[:, 0]
        assert got[ref == 0].tolist() == [0.0] * int(np.sum(ref == 0))
        assert np.all(np.abs(got - ref) <= 4 * n * eps * ref)


def test_two_norm_of_a_non_finite_matrix_is_its_largest_entry():
    stack = np.array([[[np.inf, 1.0], [1.0, 1.0]], [[np.nan, 1.0], [1.0, 1.0]]])
    got = induced_norms(stack)
    assert got[0] == np.inf and np.isnan(got[1])


def test_two_norm_of_scalars_and_vectors_is_unchanged():
    rng = np.random.default_rng(5)
    scalars = rng.normal(size=(9, 1, 1)) * 10.0 ** rng.integers(-200, 201, 9)[
        :, None, None]
    assert induced_norms(scalars).tolist() == np.abs(scalars[:, 0, 0]).tolist()
    rows = rng.normal(size=(9, 4))
    assert induced_norms(rows).tolist() == [float(np.linalg.norm(r))
                                            for r in rows]


@pytest.mark.parametrize("n", [1, 2])
def test_declared_sup_norm_refuses_a_nan_sample(n):
    vals = np.ones((2, n, n))
    vals[1, 0, 0] = np.nan
    with pytest.raises(ValueError, match="values must be finite"):
        table([0.0, 1.0], vals, "const", sup=10.0)


@pytest.mark.parametrize("times, values", [
    ([0.0, 1.0, 2.0], [[[0.1]], [[np.nan]], [[0.1]]]),
    ([0.0, np.inf], [[[0.1]], [[0.2]]]),
    ([np.nan], [[[0.1]]]),
], ids=["nan_value", "infinite_time", "nan_time"])
def test_non_finite_samples_are_refused(times, values):
    with pytest.raises(ValueError, match="values must be finite"):
        table(times, values)
