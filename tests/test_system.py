import numpy as np
import pytest

from conftest import const_phi, scalar_problem
from fracdelay import problem_from_dict, problem_to_dict, validate_system
from fracdelay.system import ahat_sup_norm, atilde_sup_norm, check_feedback
from fracdelay.errors import (DelayOrderViolation, DimensionMismatch,
                              EndpointMismatch, NonPositiveOrder)


def test_minimal_system_valid():
    prob = scalar_problem(0.5, -1.0, 0.5, r1=1.0)
    assert prob.k == 1
    assert prob.system.h == 1.0


def test_duplicate_delay_rejected():
    with pytest.raises(DelayOrderViolation):
        validate_system(0.5, [0.0, 1.0, 1.0],
                        [np.eye(1) * -1, np.eye(1) * 0.5, np.eye(1) * 0.5],
                        phi=[const_phi([1.0], 1.0)])


def test_delays_must_start_at_zero():
    with pytest.raises(DelayOrderViolation):
        validate_system(0.5, [0.5, 1.0], [np.eye(1), np.eye(1)],
                        phi=[const_phi([1.0], 1.0)])


def test_order_forces_initial_function_count():
    # alpha = 1.5 needs k = 2 initial functions
    with pytest.raises(EndpointMismatch):
        validate_system(1.5, [0.0], [np.eye(1) * -1],
                        phi=[const_phi([1.0], 0.0)])
    prob = validate_system(1.5, [0.0], [np.eye(1) * -1],
                           phi=[const_phi([1.0], 0.0), const_phi([0.0], 0.0)])
    assert prob.k == 2


def test_nonpositive_order_rejected():
    with pytest.raises(NonPositiveOrder):
        validate_system(0.0, [0.0], [np.eye(1)], phi=[])


def test_endpoint_mismatch_detected():
    with pytest.raises(EndpointMismatch):
        validate_system(1.0, [0.0], [np.eye(1) * -1],
                        phi=[const_phi([1.0], 0.0)], x0=[np.array([2.0])])


def test_dimension_mismatch_detected():
    with pytest.raises(DimensionMismatch):
        validate_system(1.0, [0.0, 1.0],
                        [np.eye(2) * -1, np.eye(3)],
                        phi=[const_phi([1.0, 1.0], 1.0)])


def test_all_zero_delay_encoding_allowed():
    prob = scalar_problem(1.0, -0.5, -0.5, zero_delays=True)
    assert prob.system.is_delay_free
    assert len(prob.system.A) == 2


def test_k_equals_ceil_alpha():
    for alpha, k in ((0.3, 1), (1.0, 1), (1.0001, 2), (2.0, 2), (2.5, 3)):
        phis = [const_phi([0.0], 0.0) for _ in range(k)]
        prob = validate_system(alpha, [0.0], [np.eye(1) * -1], phi=phis)
        assert prob.k == k


def test_problem_dimension():
    prob = validate_system(0.5, [0.0], [-np.eye(3)],
                           phi=[const_phi([0.0, 0.0, 0.0], 0.0)])
    assert prob.n == 3


def test_json_round_trip():
    prob = scalar_problem(0.7, -1.0, 0.3, r1=0.5, at0=0.2)
    doc = problem_to_dict(prob)
    again = problem_from_dict(doc)
    assert again.system.alpha == prob.system.alpha
    assert again.system.delays == prob.system.delays
    np.testing.assert_allclose(again.system.A[1], prob.system.A[1])
    doc2 = problem_to_dict(again)
    assert doc == doc2


def test_feedback_control_validation():
    from fracdelay import ControlInput
    fb = ControlInput.feedback([np.array([[0.2]]), np.array([[0.1]])])
    prob = scalar_problem(1.0, -1.0, 0.3, b=1.0, control=fb)
    assert prob.control.kind == "feedback"
    with pytest.raises(DimensionMismatch):
        scalar_problem(1.0, -1.0, 0.3, control=fb)  # no B matrix


def test_nan_table_sample_is_refused():
    # it used to validate, and certify returned Inconclusive on it
    doc = {"alpha": 0.8, "delays": [0.0, 1.0], "A": [[[-1.0]], [[0.1]]],
           "A_tilde": [{"times": [0.0, 1.0, 2.0],
                        "values": [[[0.1]], [[float("nan")]], [[0.1]]]},
                       None],
           "phi": [{"times": [-1.0], "values": [[1.0]], "interp": "const"}]}
    with pytest.raises(ValueError, match="values must be finite"):
        problem_from_dict(doc)


@pytest.mark.parametrize("gain, bound", [
    (np.nan, 1.0), (np.inf, 1.0), (0.1, np.nan), (0.1, np.inf)])
def test_non_finite_feedback_is_refused(gain, bound):
    from fracdelay import ControlInput
    prob = scalar_problem(1.0, -1.0, 0.3, b=1.0)
    fb = ControlInput.feedback([np.array([[gain]]), np.array([[0.1]])],
                               [bound, 0.1])
    with pytest.raises(DimensionMismatch, match="not finite"):
        check_feedback(prob.system, fb)
    with pytest.raises(DimensionMismatch, match="not finite"):
        scalar_problem(1.0, -1.0, 0.3, b=1.0, control=fb)


def test_declared_sup_norm_bounds_the_varying_part():
    # a declared sup_norm replaces the sampled one and, for a delayed lag,
    # adds to ||A_i|| by the triangle inequality
    doc = {"alpha": 0.7, "delays": [0.0, 0.5], "A": [[[-1.0]], [[-0.3]]],
           "A_tilde": [{"times": [0.0, 1.0], "values": [[[0.1]], [[0.2]]],
                        "sup_norm": 0.5},
                       {"times": [0.0, 1.0], "values": [[[0.1]], [[-0.1]]],
                        "sup_norm": 0.25}],
           "phi": [{"times": [-0.5], "values": [[1.0]], "interp": "const"}]}
    prob = problem_from_dict(doc)
    assert atilde_sup_norm(prob, 0) == 0.5
    assert ahat_sup_norm(prob, 1) == 0.3 + 0.25
    assert problem_to_dict(prob)["A_tilde"][1]["sup_norm"] == 0.25
    doc["A_tilde"][1].pop("sup_norm")
    # sampled: max over the samples of |-0.3 + Atilde_1(t)|
    assert ahat_sup_norm(problem_from_dict(doc), 1) == 0.4


def _valid_doc():
    return {"alpha": 0.8, "delays": [0.0, 1.0], "A": [[[-1.0]], [[0.1]]],
            "phi": [{"times": [-1.0], "values": [[1.0]], "interp": "const"}]}


def _const(values, times=(0.0,), **extra):
    return {"times": list(times), "values": values, "interp": "const", **extra}


# (malformed fields, error, message) per refusal of validate_system and
# TimeFunctionTable
MALFORMED = {
    "non_finite_A": ({"A": [[[float("nan")]], [[0.1]]]}, DimensionMismatch,
                     r"A\[0\] contains non-finite entries"),
    "non_finite_delay": ({"delays": [0.0, float("nan")]},
                         DelayOrderViolation, "delays must be finite"),
    "matrix_count": ({"A": [[[-1.0]], [[0.1]], [[0.1]]]}, DimensionMismatch,
                     "3 constant matrices for 2 delays"),
    "A_tilde_count": ({"A_tilde": [None]}, DimensionMismatch,
                      "1 time-varying matrices for 2 delays"),
    "A_tilde_shape": ({"A_tilde": [_const([np.eye(2).tolist()]), None]},
                      DimensionMismatch, r"A_tilde\[0\] values are"),
    "B_shape": ({"B": [[1.0], [2.0]]}, DimensionMismatch, "B values are"),
    "phi_shape": ({"phi": [_const([[1.0, 2.0]], (-1.0,))]},
                  DimensionMismatch, r"phi\[0\] values are"),
    "phi_short": ({"phi": [{"times": [-0.5, 0.0], "values": [[1.0], [1.0]]}]},
                  DimensionMismatch, r"must cover \[-h, 0\]"),
    "x0_count": ({"x0": [[1.0], [1.0]]}, EndpointMismatch,
                 "2 endpoint vectors for k=1"),
    "x0_shape": ({"x0": [[1.0, 1.0]]}, DimensionMismatch,
                 r"x0\[0\] has shape"),
    "open_loop_without_B": ({"control": {"type": "open_loop", "u": [1.0]}},
                            DimensionMismatch,
                            "open-loop control requires an input matrix B"),
    "input_width": ({"B": [[1.0]],
                     "control": {"type": "open_loop", "u": [1.0, 2.0]}},
                    DimensionMismatch, r"u values are \(2,\)"),
    "times_not_increasing": ({"A_tilde": [_const([[[0.1]], [[0.2]]],
                                                 (1.0, 0.0)), None]},
                             DimensionMismatch, "strictly increasing"),
    "value_count": ({"A_tilde": [_const([[[0.1]]], (0.0, 1.0)), None]},
                    DimensionMismatch, "1 values for 2 sample times"),
    "interpolation": ({"A_tilde": [dict(_const([[[0.1]]]), interp="cubic"),
                                   None]},
                      ValueError, "unknown interpolation 'cubic'"),
    "negative_sup_norm": ({"A_tilde": [_const([[[0.1]]], sup_norm=-1.0),
                                       None]},
                          ValueError, "declared_sup_norm must be nonnegative"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_problem_is_refused(case):
    fields, error, match = MALFORMED[case]
    with pytest.raises(error, match=match):
        problem_from_dict(dict(_valid_doc(), **fields))


@pytest.mark.parametrize("A_tilde, match", [
    ([[1.0], [2.0]], "expected 1 rows, got 2"),
    ([[1.0, 2.0]], "expected 1 cols, got 2"),
])
def test_constant_perturbation_of_the_wrong_shape_is_refused(A_tilde, match):
    # a matrix, not a table: only validate_system's as_table sees its shape
    with pytest.raises(DimensionMismatch, match=match):
        validate_system(0.8, [0.0, 1.0], [np.eye(1) * -1, np.eye(1) * 0.1],
                        [np.array(A_tilde), None],
                        phi=[const_phi([1.0], 1.0)])
