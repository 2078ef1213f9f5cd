import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ergorank.operators import (
    KIND_DENSE,
    KIND_DIAGONAL,
    KIND_SHIFT,
    KIND_SPARSE,
    NORM_TAGS,
    DimensionMismatchError,
    OperatorSpec,
    ProbeSet,
    SpecValidationError,
    apply_columns,
    basis_probes,
    built_in_gallery,
    column_norms,
    default_probes,
    gallery,
    matrix_norm,
)
from reference import add_at_apply, as_dense

finite = st.floats(min_value=-3.0, max_value=3.0, allow_nan=False, allow_infinity=False)


def _spec_strategy(kinds=(KIND_DENSE, KIND_DIAGONAL, KIND_SHIFT, KIND_SPARSE)):
    def build(draw):
        dim = draw(st.integers(min_value=1, max_value=6))
        tag = draw(st.sampled_from(NORM_TAGS))
        kind = draw(st.sampled_from(kinds))
        if kind == KIND_DENSE:
            entries = draw(
                st.lists(
                    st.lists(finite, min_size=dim, max_size=dim),
                    min_size=dim,
                    max_size=dim,
                )
            )
        elif kind == KIND_DIAGONAL:
            entries = draw(st.lists(finite, min_size=dim, max_size=dim))
        elif kind == KIND_SHIFT:
            entries = draw(st.lists(finite, min_size=dim - 1, max_size=dim - 1))
        else:
            cells = draw(
                st.lists(
                    st.tuples(
                        st.integers(0, dim - 1), st.integers(0, dim - 1), finite
                    ),
                    max_size=dim * dim,
                    unique_by=lambda t: (t[0], t[1]),
                )
            )
            entries = [[r, c, v] for r, c, v in cells]
        return OperatorSpec(kind, dim, entries, tag)

    return st.composite(build)()


# -- validation ----------------------------------------------------------


def test_rejects_unknown_kind_and_norm():
    with pytest.raises(SpecValidationError):
        OperatorSpec("mystery", 2, np.eye(2), "l2")
    with pytest.raises(SpecValidationError):
        OperatorSpec(KIND_DENSE, 2, np.eye(2), "l3")
    with pytest.raises(SpecValidationError):
        OperatorSpec(KIND_DENSE, 0, np.zeros((0, 0)), "l2")


def test_rejects_bad_shapes():
    with pytest.raises(SpecValidationError):
        OperatorSpec(KIND_DENSE, 2, np.eye(3), "l2")
    with pytest.raises(SpecValidationError):
        OperatorSpec(KIND_DIAGONAL, 2, [1.0], "l2")
    with pytest.raises(SpecValidationError):
        OperatorSpec(KIND_SHIFT, 3, [1.0], "l1")


def test_rejects_non_finite_entries():
    with pytest.raises(SpecValidationError):
        OperatorSpec(KIND_DIAGONAL, 2, [1.0, float("nan")], "l2")
    with pytest.raises(SpecValidationError):
        OperatorSpec(KIND_DENSE, 1, [[float("inf")]], "l2")


def test_rejects_bad_triplets():
    with pytest.raises(SpecValidationError):
        OperatorSpec(KIND_SPARSE, 2, [[2, 0, 1.0]], "l2")  # row out of range
    with pytest.raises(SpecValidationError):
        OperatorSpec(KIND_SPARSE, 2, [[0, 0, 1.0], [0, 0, 2.0]], "l2")  # duplicate cell


def test_entries_frozen():
    spec = OperatorSpec(KIND_DIAGONAL, 2, [1.0, 2.0], "l2")
    with pytest.raises(ValueError):
        spec.entries[0] = 5.0


@given(_spec_strategy())
def test_json_round_trip(spec):
    again = OperatorSpec.from_json_dict(spec.to_json_dict())
    assert again.kind == spec.kind
    assert again.dim == spec.dim
    assert again.norm_tag == spec.norm_tag
    assert np.array_equal(as_dense(again), as_dense(spec))


def test_from_json_missing_fields():
    with pytest.raises(SpecValidationError, match="missing"):
        OperatorSpec.from_json_dict({"kind": KIND_DIAGONAL, "dim": 1})


# -- application ---------------------------------------------------------


@given(_spec_strategy(), st.integers(0, 2 ** 31 - 1))
def test_apply_matches_dense(spec, seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((spec.dim, 1))
    assert np.allclose(apply_columns(spec, x), as_dense(spec) @ x, atol=1e-12)
    X = rng.standard_normal((spec.dim, 3))
    assert np.allclose(apply_columns(spec, X), as_dense(spec) @ X, atol=1e-12)


@st.composite
def _sparse_case(draw):
    """A sparse spec (no triplets, a full row, a full column, or random
    cells, in shuffled order) and a column block of width 1..dim.  Values
    span many magnitudes and include signed zeros, so any change in the
    order of a row's sum shows in the bits."""
    dim = draw(st.integers(1, 8))
    layout = draw(st.sampled_from(["empty", "full_row", "full_column", "random"]))
    line = draw(st.integers(0, dim - 1))
    if layout == "empty":
        cells = []
    elif layout == "full_row":
        cells = [(line, c) for c in range(dim)]
    elif layout == "full_column":
        cells = [(r, line) for r in range(dim)]
    else:
        cells = draw(st.lists(st.tuples(st.integers(0, dim - 1), st.integers(0, dim - 1)),
                              unique=True, max_size=dim * dim))
    cells = draw(st.permutations(cells))
    value = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False)
    vals = draw(st.lists(value, min_size=len(cells), max_size=len(cells)))
    spec = OperatorSpec(KIND_SPARSE, dim, [[r, c, v] for (r, c), v in zip(cells, vals)], "l1")
    width = draw(st.integers(1, dim))
    block = draw(st.lists(value, min_size=dim * width, max_size=dim * width))
    return spec, np.array(block).reshape(dim, width)


@given(_sparse_case())
@settings(max_examples=300)
def test_sparse_kernel_matches_add_at_bitwise(case):
    spec, X = case
    got, want = apply_columns(spec, X), add_at_apply(spec, X)
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


@pytest.mark.parametrize("kind", [KIND_DENSE, KIND_DIAGONAL, KIND_SHIFT, KIND_SPARSE])
@given(data=st.data())
@settings(max_examples=60)
def test_apply_into_out_matches_the_allocating_call_bitwise(kind, data):
    spec = data.draw(_spec_strategy([kind]))
    width = data.draw(st.integers(1, 4))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**31 - 1)))
    X = rng.standard_normal((spec.dim, width))
    zeros = rng.random(X.shape) < 0.4
    X[zeros] = np.copysign(0.0, rng.standard_normal(int(zeros.sum())))
    want = apply_columns(spec, X)
    # `out` is one slot of a stack holding stale values, as the stream passes it.
    stack = np.full((3, spec.dim, width), np.nan)
    got = apply_columns(spec, X, out=stack[1])
    assert np.shares_memory(got, stack[1]) and got.shape == want.shape
    assert got.tobytes() == want.tobytes()
    assert np.isnan(stack[[0, 2]]).all()


def test_apply_refuses_an_out_that_overlaps_the_input():
    spec = gallery("left_shift_l1(4)")
    X = np.ones((4, 2))
    with pytest.raises(ValueError, match="overlap"):
        apply_columns(spec, X, out=X)
    stack = np.ones((2, 4, 2))
    with pytest.raises(ValueError, match="overlap"):
        apply_columns(spec, stack[0], out=stack.reshape(4, 4)[:, :2])


def test_apply_dimension_mismatch():
    spec = OperatorSpec(KIND_DIAGONAL, 3, [1.0, 2.0, 3.0], "l2")
    with pytest.raises(DimensionMismatchError, match="3"):
        apply_columns(spec, np.ones((4, 1)))
    with pytest.raises(DimensionMismatchError, match="3"):
        apply_columns(spec, np.ones(3))


def test_shift_moves_coordinates():
    spec = OperatorSpec(KIND_SHIFT, 4, [2.0, 3.0, 4.0], "l1")
    out = apply_columns(spec, np.array([[0.0], [1.0], [2.0], [3.0]]))
    assert np.array_equal(out[:, 0], [2.0, 6.0, 12.0, 0.0])


# -- norms ---------------------------------------------------------------


def test_vec_norm_hand_values():
    x = np.array([[3.0], [-4.0]])
    assert column_norms(x, "l1")[0] == 7.0
    assert column_norms(x, "l2")[0] == 5.0
    assert column_norms(x, "linf")[0] == 4.0
    assert np.array_equal(column_norms(np.array([[3.0, 0.0], [-4.0, 2.0]]), "l1"), [7.0, 2.0])


def test_matrix_norm_hand_values():
    m = np.array([[1.0, -2.0], [3.0, 4.0]])
    assert matrix_norm(m, "l1") == 6.0  # max column abs sum
    assert matrix_norm(m, "linf") == 7.0  # max row abs sum
    assert matrix_norm(m, "l2") == pytest.approx(np.linalg.norm(m, 2), rel=1e-12)


@pytest.mark.parametrize("dim", [*range(1, 33), 97, 256])
def test_matrix_norms_of_a_stack_match_the_per_matrix_call_bitwise(dim):
    # Dense scans reduce a chunk of means A_n in one call: exact l2 up to
    # dim 32, and l1 and linf at every dim.
    rng = np.random.default_rng(dim)
    scales = 10.0 ** rng.integers(-3, 4, size=(6, 1, 1))
    stack = rng.standard_normal((6, dim, dim)) * scales
    stack[2] = np.eye(dim)
    stack[4, :, 0] = -0.0
    for tag in NORM_TAGS:
        got = matrix_norm(stack, tag)
        assert got.shape == (6,)
        for i, mat in enumerate(stack):
            assert got[i].tobytes() == np.float64(matrix_norm(mat, tag)).tobytes()
    # l2 is still what np.linalg.norm(mat, 2) computes.
    for mat in stack:
        assert np.float64(matrix_norm(mat, "l2")).tobytes() == np.linalg.norm(mat, 2).tobytes()


def _operator_norm(spec):
    return matrix_norm(as_dense(spec), spec.norm_tag)


def test_operator_norm_closed_forms():
    assert _operator_norm(gallery("identity(8)")) == 1.0
    shift = gallery("left_shift_l1(64)")
    assert _operator_norm(shift) == 1.0
    diag = OperatorSpec(KIND_DIAGONAL, 3, [0.5, -2.0, 1.0], "linf")
    assert _operator_norm(diag) == 2.0


def test_operator_norm_probe_mode_lower_bound():
    # max ||T x|| / ||x|| over a probe set bounds the induced norm from below.
    spec = gallery("jordan_1(2)")
    X = default_probes(spec).vectors.T
    ratios = column_norms(apply_columns(spec, X), spec.norm_tag) / column_norms(X, spec.norm_tag)
    assert ratios.max() <= _operator_norm(spec) + 1e-12


# -- probes --------------------------------------------------------------


def test_basis_probes_unit_norm():
    for tag in NORM_TAGS:
        ps = basis_probes(5, tag)
        assert len(ps) == 5
        assert np.allclose(column_norms(ps.vectors.T, tag), 1.0)
        assert ps.label == "canonical-basis-0..4"


def test_default_probes_deterministic_and_unit_ball():
    spec = gallery("left_shift_l1(64)")
    a = default_probes(spec)
    b = default_probes(spec)
    assert np.array_equal(a.vectors, b.vectors)
    assert len(a) == 32 + 16
    assert np.all(column_norms(a.vectors.T, "l1") <= 1.0 + 1e-12)
    c = default_probes(spec, seed=7)
    assert not np.array_equal(a.vectors[-1], c.vectors[-1])
    assert "seed=0x7" in c.label


def test_probe_set_validation():
    with pytest.raises(ValueError):
        ProbeSet(np.zeros((0, 3)), "l2", "empty")
    with pytest.raises(ValueError):
        ProbeSet(2.0 * np.eye(3), "l2", "too-big")


# -- gallery -------------------------------------------------------------


def test_gallery_unknown_name_lists_entries():
    with pytest.raises(ValueError, match="identity"):
        gallery("warp(3)")
    with pytest.raises(ValueError, match="parse"):
        gallery("no-parens")


def test_built_in_gallery_constructible():
    names = built_in_gallery()
    assert len(names) == 10
    for name in names:
        spec = gallery(name)
        assert spec.dim >= 1


def test_rotation_is_orthogonal():
    spec = gallery("rotation(1.0)")
    m = as_dense(spec)
    assert np.allclose(m.T @ m, np.eye(2), atol=1e-15)


def test_random_diagonalizable_spectrum():
    spec = gallery("random_diagonalizable(7,12)")
    m = as_dense(spec)
    assert np.allclose(m, m.T, atol=1e-12)
    eigs = np.linalg.eigvalsh(m)
    assert np.max(np.abs(eigs)) <= 1.0 + 1e-9
    away = eigs[np.abs(eigs - 1.0) > 1e-9]
    assert np.all(np.abs(1.0 - away) >= 0.15 - 1e-9)
