import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ergorank import operators
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
from ergorank.serialization import canonical_dumps, canonical_loads, sha256_hex
from reference import add_at_apply, as_dense, broadcast_apply

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


@pytest.mark.parametrize("row, col", [(0.9, 1.7), (0, 1.5), (True, 1), (0, False)])
def test_sparse_indices_must_be_integers(row, col):
    # int() alone would read (0.9, 1.7) as (0, 1).
    obj = {"kind": "sparse_triplets", "dim": 2, "norm": "l1", "entries": [[row, col, 0.5]]}
    with pytest.raises(SpecValidationError, match="rows and columns must be integers"):
        OperatorSpec.from_json_dict(obj)


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


@pytest.mark.parametrize(
    "make, shape",
    [
        (lambda a: ProbeSet(a, "l2", "caller"), (3, 3)),
        (lambda a: OperatorSpec(KIND_DENSE, 3, a, "l2"), (3, 3)),
        (lambda a: OperatorSpec(KIND_SHIFT, 4, a, "l2"), (3,)),
        (lambda a: OperatorSpec(KIND_DIAGONAL, 3, a, "l2"), (3,)),
    ],
    ids=["probes", "dense", "shift", "diagonal"],
)
def test_constructors_freeze_a_copy_not_the_callers_array(make, shape):
    values = np.full(shape, 0.5)
    made = make(values)
    assert values.flags.writeable
    values[...] = 0.25  # the caller's later writes do not reach the object
    frozen = made.vectors if isinstance(made, ProbeSet) else made.entries
    assert not frozen.flags.writeable and np.all(frozen == 0.5)


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
    # Every kind computes in float64, whatever the block's dtype.
    assert apply_columns(spec, X.astype(np.float32)).dtype == np.float64


#: Column-block entries that stress a sum's order: infinities, nan, signed
#: zeros, subnormals and the extremes of the finite range.
_SPECIAL = [math.inf, -math.inf, math.nan, 0.0, -0.0, 5e-324, -5e-324, 2.2e-308,
            1.7976931348623157e308, -1.7976931348623157e308]


@st.composite
def _sparse_case(draw, max_dim=8, extra_width=0, special=False):
    """A sparse spec (no triplets, a full row, a full column, a few heavy
    rows, or random cells, in shuffled order) and a column block of width
    1..dim + `extra_width`.  Values span many magnitudes and include signed
    zeros, so any change in the order of a row's sum shows in the bits.
    With `special`, the values come from a drawn seed (hypothesis is slow
    to draw thousands of floats) and the block also holds `_SPECIAL`
    entries."""
    dim = draw(st.integers(1, max_dim))
    layout = draw(st.sampled_from(["empty", "full_row", "full_column", "heavy_rows", "random"]))
    line = draw(st.integers(0, dim - 1))
    if layout == "empty":
        cells = []
    elif layout == "full_row":
        cells = [(line, c) for c in range(dim)]
    elif layout == "full_column":
        cells = [(r, line) for r in range(dim)]
    elif layout == "heavy_rows":
        rows = draw(st.sets(st.integers(0, dim - 1), min_size=1, max_size=4))
        skip = draw(st.sets(st.integers(0, dim - 1), max_size=dim // 3))
        cells = [(r, c) for r in sorted(rows) for c in range(dim) if c not in skip]
    else:
        cells = draw(st.lists(st.tuples(st.integers(0, dim - 1), st.integers(0, dim - 1)),
                              unique=True, max_size=min(dim * dim, 120)))
    cells = draw(st.permutations(cells))
    width = draw(st.integers(1, dim + extra_width))
    if special:
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

        def values(shape):
            out = rng.uniform(-1.0, 1.0, shape) * 10.0 ** rng.integers(-6, 7, shape)
            out[rng.random(shape) < 0.1] = -0.0
            return out

        vals = values(len(cells)).tolist()
        block = values((dim, width))
        pick = rng.random(block.shape) < 0.15
        block[pick] = rng.choice(_SPECIAL, int(pick.sum()))
    else:
        value = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False)
        vals = draw(st.lists(value, min_size=len(cells), max_size=len(cells)))
        block = np.array(draw(st.lists(value, min_size=dim * width, max_size=dim * width)))
    spec = OperatorSpec(KIND_SPARSE, dim, [[r, c, v] for (r, c), v in zip(cells, vals)], "l1")
    return spec, block.reshape(dim, width)


@given(_sparse_case())
@settings(max_examples=300)
def test_sparse_kernel_matches_add_at_bitwise(case):
    spec, X = case
    got, want = apply_columns(spec, X), add_at_apply(spec, X)
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


def _nan_as_one(a):
    """`a` with every NaN replaced by the one NaN `np.nan`.  IEEE 754 leaves
    the sign of a NaN result unspecified, and numpy's add picks the sign of
    one NaN operand or the other depending on its loop (SIMD body or scalar
    tail, in place or not), so only where NaNs are is comparable."""
    return np.where(np.isnan(a), np.nan, a)


@pytest.mark.parametrize("budget", [None, 64])
@given(case=_sparse_case(max_dim=40, extra_width=6, special=True))
@settings(max_examples=150)
def test_sparse_kernel_matches_add_at_bytes_on_wide_and_non_finite_blocks(budget, case):
    # Rows with more than 8 triplets would show a pairwise sum; inf, nan and
    # signed zeros show any change in the order of a row's sum.  A 64-byte
    # budget cuts every slot into gathers of a few triplets and leaves the
    # values a broadcast column.
    spec, X = case
    with mock.patch.object(operators, "_BLOCK_BYTES", budget or operators._BLOCK_BYTES):
        with np.errstate(invalid="ignore", over="ignore"):
            got, want = apply_columns(spec, X), add_at_apply(spec, X)
    assert _nan_as_one(got).tobytes() == _nan_as_one(want).tobytes()


def _kernel_spec(kind, dim, rng):
    if kind == KIND_DIAGONAL:
        return OperatorSpec(kind, dim, rng.standard_normal(dim), "l2")
    if kind == KIND_SHIFT:
        return OperatorSpec(kind, dim, rng.standard_normal(dim - 1), "linf")
    cells = [(r, c) for r in range(dim) for c in range(dim) if rng.random() < 0.3]
    cells = [cells[i] for i in rng.permutation(len(cells))]
    return OperatorSpec(kind, dim, [[r, c, rng.standard_normal()] for r, c in cells], "l1")


@pytest.mark.parametrize("kind", [KIND_DIAGONAL, KIND_SHIFT, KIND_SPARSE])
@pytest.mark.parametrize("dim", [1, 2, 9, 300])
def test_memoized_weights_match_the_broadcast_product_bitwise(kind, dim):
    rng = np.random.default_rng(dim)
    spec = _kernel_spec(kind, dim, rng)
    text = canonical_dumps(spec.to_json_dict())
    # Every width twice, in an order that revisits widths after others, and
    # more widths than a spec keeps blocks for.
    widths = [1, 2, dim, 3, 1, dim, *range(4, 4 + operators._BLOCK_WIDTHS), 2, dim, 1]
    for width in widths:
        X = rng.standard_normal((dim, width))
        X[rng.random(X.shape) < 0.2] = -0.0
        X[-1, 0] = math.inf  # one per row of products, so no inf - inf
        want = broadcast_apply(spec, X)
        assert apply_columns(spec, X).tobytes() == want.tobytes()
        out = np.full_like(X, np.nan)
        assert apply_columns(spec, X, out=out) is out and out.tobytes() == want.tobytes()
        weights = spec._blocks[width][0]
        assert not weights.flags.writeable
        with pytest.raises(ValueError):
            weights[...] = 0.0
    assert len(spec._blocks) <= operators._BLOCK_WIDTHS
    # The kernels leave the spec's JSON form, canonical text and digest alone.
    assert canonical_dumps(spec.to_json_dict()) == text
    assert sha256_hex(canonical_dumps(spec.to_json_dict())) == sha256_hex(text)
    assert OperatorSpec.from_json_dict(canonical_loads(text)).to_json_dict() == spec.to_json_dict()


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


def test_l2_rescales_only_the_columns_whose_squares_can_underflow():
    # Columns with every entry under 2^-500 are read scaled by 2^600: a
    # column of 1e-170s, subnormals, and zero.  Every other column, one
    # with a tiny entry beside a 1e-140 among them, keeps the bits of the
    # plain reduction.  A stack reads each slice as the call on it alone.
    X = np.random.default_rng(3).standard_normal((5, 6))
    X[:, 1] *= 1e-170
    X[:, 2] = [5e-324, 0.0, -1e-320, 0.0, 2e-310]
    X[:, 3] = 0.0
    X[:, 4] = [1e-140, 1e-170, 0.0, 5e-324, -1.0e-150]
    got = column_norms(X, "l2")
    plain = np.sqrt(np.add.reduce(X * X, axis=0))
    for j in (0, 4, 5):
        assert got[j].tobytes() == plain[j].tobytes(), j
    assert plain[1] == 0.0 and got[1] == pytest.approx(1e-170 * np.linalg.norm(X[:, 1] * 1e170), rel=1e-15)
    exact = math.sqrt(sum(float(v * 2.0**1000) ** 2 for v in X[:, 2])) * 2.0**-1000
    assert got[2] == pytest.approx(exact, rel=1e-15) and got[3] == 0.0
    assert column_norms(np.stack([X, X[::-1]]), "l2")[0].tobytes() == got.tobytes()


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
