"""Problem families: derivative correctness, validation, serialization."""
from __future__ import annotations

import hashlib
import json
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from conftest import fd_gradients, fd_hessians, fixture_problems, random_quadratic
from test_reference import ref_restrict
from pareto_atlas import (
    BUILTIN_NAMES,
    DistanceSquared,
    Example31,
    Example31Perturbed,
    Example32,
    GenericQuadratic,
    Phenotypic,
    Problem,
    ProblemFormatError,
    RemarkG,
    RidgePair,
    build_atlas,
    build_problem,
    builtin_problem,
    check_strong_convexity,
    draw_perturbation,
    parse_problem,
    perturb_problem,
    serialize_problem,
    simplex_weight,
)
from pareto_atlas.cli import main
from pareto_atlas.problems import WEIGHT_SUM_TOL

# A document with a key its family does not read, and the error it gives.
UNKNOWN_FIELD = [
    ('{"family": "example32", "epsilon": 0.5}',
     "unknown field 'epsilon' for family 'example32' (fields: none)"),
    ('{"family": "distance_squared", "points": [[0, 0], [1, 0]], "weights": [1, 2, 3]}',
     "unknown field 'weights' for family 'distance_squared' (fields: points)"),
]
UNKNOWN_FIELD_IDS = ["example32-epsilon", "distance_squared-weights"]
# One malformed document per way a field or a dimension can be wrong.
MALFORMED = [
    '{"family": "distance_squared", "points": [[]]}',
    '{"family": "ridge_pair", "X": [[]], "y": [1], "mu": 0.1}',
    '{"family": "example31_perturbed", "epsilon": true}',
    '{"family": "example31_perturbed", "epsilon": [0.1]}',
    '{"family": "distance_squared", "points": [[0, 0], [1, "1"]]}',
    '{"family": "generic_quadratic", "q": [1, 2], "b": [[0, 0]], "c": [0]}',
    '{"family": "distance_squared", "points": [0, 1]}',
    '{"family": "phenotypic", "points": [[0, 0]]}',
    '{"family": "example31", "n": null}',
    '{"family": "distance_squared", "points": [[0, 0], [1, 0]], "n": 2.7}',
    '{"family": "example31", "m": "two"}',
    '{"family": "distance_squared", "points": [[0, 0], [1]]}',
    '{"family": "distance_squared", "points": %s0%s}' % ("[" * 500, "]" * 500),
    '{"family": "distance_squared", "points": %s0%s}' % ("[" * 100_000, "]" * 100_000),
] + [doc for doc, _ in UNKNOWN_FIELD]
MALFORMED_IDS = ["empty-points", "empty-X", "bool-epsilon", "list-epsilon", "string-point",
                 "1d-q", "1d-points", "missing-field", "null-n", "float-n", "string-m",
                 "ragged-points", "deep-points", "too-deep-for-the-json-parser",
                 *UNKNOWN_FIELD_IDS]
BUILTIN_SHA256 = {
    "example31": "a5a51bd258249eb4c2b4356c7b910add8d3fef1a50a6e136032bde97f3f45877",
    "example31_perturbed": "369b9bf9f38f6937dc1e59828448650c63588af32a953f12f969182451b93483",
    "example32": "f93708627465ded0f908d52e6d41b299aeb2410d1e5eb19900c20db582bc287b",
    "remark_g": "33219558e325b19a41282cd039a954687cf041027b13d72db2cc8c61c6d99a12",
}

FIXTURES = fixture_problems()
IDS = [name for name, _ in FIXTURES]
PROBLEMS = [p for _, p in FIXTURES]


class TestDerivatives:
    @pytest.mark.parametrize("problem", PROBLEMS, ids=IDS)
    def test_gradients_match_finite_differences(self, problem, rng):
        for _ in range(5):
            x = rng.normal(size=problem.n)
            assert_allclose(problem.gradients(x), fd_gradients(problem, x),
                            rtol=1e-6, atol=1e-6)

    @pytest.mark.parametrize("problem", PROBLEMS, ids=IDS)
    def test_hessians_match_finite_differences(self, problem, rng):
        for _ in range(3):
            x = rng.normal(size=problem.n)
            assert_allclose(problem.hessians(x), fd_hessians(problem, x),
                            rtol=1e-6, atol=1e-6)

    @pytest.mark.parametrize("problem", PROBLEMS, ids=IDS)
    def test_hessians_symmetric(self, problem, rng):
        x = rng.normal(size=problem.n)
        h = problem.hessians(x)
        scale = max(1.0, np.abs(h).max())
        assert_allclose(h, np.transpose(h, (0, 2, 1)), rtol=0, atol=1e-12 * scale)

    @pytest.mark.parametrize("problem", PROBLEMS, ids=IDS)
    def test_evaluate_bundles_all_three(self, problem, rng):
        """One call on a stack of K points equals the per-point rows."""
        k, m, n = 6, problem.m, problem.n
        xs = rng.normal(size=(k, n))
        f, g, h = problem.evaluate(xs)
        assert f.shape == (k, m) and g.shape == (k, m, n)
        assert h.shape[0] in (1, k)
        h = np.broadcast_to(h, (k, m, n, n))
        for row, x in enumerate(xs):
            assert_allclose(f[row], problem.values(x), rtol=1e-14, atol=1e-14)
            assert_allclose(g[row], problem.gradients(x), rtol=1e-14, atol=1e-14)
            assert_allclose(h[row], problem.hessians(x), rtol=1e-14, atol=1e-14)


class TestFrozenValues:
    """Hand-computed values at specific points."""

    def test_example31(self, example31):
        x = np.array([0.3, -0.2, 0.5])
        assert_allclose(example31.values(x), [0.38, 0.48, 0.32], rtol=1e-15)
        assert_allclose(
            example31.gradients(x),
            [[0.6, -0.4, 1.0], [1.6, 0.6, 1.0], [-0.4, -1.8, 1.0]],
            rtol=1e-15,
        )
        assert_allclose(example31.hessians(x)[2], np.diag([2.0, 4.0, 2.0]))

    def test_example31_perturbed_shifts_first_objective_only(self, example31):
        pert = builtin_problem("example31_perturbed", epsilon=0.25)
        x = np.array([0.3, -0.2, 0.5])
        base_f, base_g = example31.values(x), example31.gradients(x)
        f, g = pert.values(x), pert.gradients(x)
        assert_allclose(f - base_f, [0.25 * 0.5, 0.0, 0.0], atol=1e-15)
        diff = g - base_g
        assert diff[0, 2] == 0.25
        diff[0, 2] = 0.0
        assert_allclose(diff, 0.0, atol=0.0)

    def test_example32(self, example32):
        x = np.array([0.5, 0.5, 1.0])
        assert_allclose(example32.values(x), [1.25, 2.5, 4.25], rtol=1e-15)
        assert_allclose(
            example32.gradients(x),
            [[1.0, 0.0, 2.0], [-4.0, 2.0, 2.0], [-5.0, -2.0, 2.0]],
            rtol=1e-15,
        )

    def test_remark_g(self, remark_g):
        zero = np.zeros(4)
        assert_allclose(remark_g.values(zero), 0.0, atol=0.0)
        assert_allclose(
            remark_g.gradients(zero),
            [[0, 0, -1, 0], [0, 0, 0, -1], [0, 0, 1, 0], [0, 0, 0, 1]],
            atol=0.0,
        )
        ones = np.ones(4)
        assert_allclose(remark_g.values(ones), [4.0, 4.0, 6.0, 6.0], rtol=1e-15)
        assert_allclose(
            remark_g.gradients(ones),
            [
                [2.5, 2.0, 2.0, 2.5],
                [2.0, 2.5, 2.5, 2.0],
                [2.5, 2.0, 4.0, 2.5],
                [2.0, 2.5, 2.5, 4.0],
            ],
            rtol=1e-15,
        )

    def test_distance_squared_at_demand_point(self):
        p = build_problem(DistanceSquared(np.array([[0.0, 0.0], [1.0, 2.0]])))
        f = p.values(np.zeros(2))
        assert_allclose(f, [0.0, 5.0])
        assert_allclose(p.gradients(np.zeros(2))[0], 0.0, atol=0.0)
        assert_allclose(p.hessians(np.zeros(2))[0], 2.0 * np.eye(2))


class TestWeight:
    def test_of_builds_support_face(self):
        """A weight on a face keeps its zeros; the result is a float array."""
        w = simplex_weight([0.5, 0, 0.5])
        assert w.dtype == float and w.tolist() == [0.5, 0.0, 0.5]
        assert np.flatnonzero(w).tolist() == [0, 2]

    def test_rejects_negative(self):
        with pytest.raises(ValueError, match="nonnegative"):
            simplex_weight([1.2, -0.2, 0.0])

    def test_rejects_bad_sum(self):
        # the sum is printed as a Python float, not as a numpy repr
        with pytest.raises(ValueError, match=r"sum to 1, got 0\.9$"):
            simplex_weight([0.5, 0.4])

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="nonempty vector"):
            simplex_weight([])

    @pytest.mark.parametrize("coords", [[np.nan, 0.5, 0.5], [np.inf, 0.0, 0.0]])
    def test_rejects_non_finite(self, coords):
        # NaN slips past the sum check, since abs(nan - 1) > tol is False
        with pytest.raises(ValueError, match="finite"):
            simplex_weight(coords)

    def test_accepts_rounded_grid_sum(self):
        coords = np.array([1, 7, 2], dtype=float) / 10.0
        simplex_weight(coords)  # no raise

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), m=st.integers(1, 5))
    def test_valid_iff_finite_nonnegative_summing_to_one_and_on_the_face(self, data, m):
        """Grid-like weights on a random face, then at most one corruption."""
        face = tuple(data.draw(st.sets(st.integers(0, m - 1))))
        off_face = [i for i in range(m) if i not in face]
        coords = np.array(data.draw(st.lists(st.integers(0, 5), min_size=m, max_size=m)),
                          dtype=float)
        coords[off_face] = 0.0
        coords /= coords.sum() or 1.0
        i = data.draw(st.integers(0, m - 1))
        corruption = data.draw(st.sampled_from(
            ["none", "nan", "inf", "negative", "moved", "scaled"]))
        if corruption == "nan":
            coords[i] = np.nan
        elif corruption == "inf":
            coords[i] = data.draw(st.sampled_from([np.inf, -np.inf]))
        elif corruption == "negative":
            coords[i] = -data.draw(st.sampled_from([1e-300, 1e-13, 0.25]))
        elif corruption == "moved":  # shift mass onto coordinate i, keeping the sum
            j = data.draw(st.integers(0, m - 1))
            coords[j] -= coords[j] / 2.0
            coords[i] += coords[j]
        elif corruption == "scaled":
            coords *= 1.0 + data.draw(st.sampled_from([1e-15, 1e-13, 1e-11, -1e-11]))
        with np.errstate(invalid="ignore"):
            valid = bool(np.isfinite(coords).all() and (coords >= 0.0).all()
                         and abs(coords.sum() - 1.0) <= WEIGHT_SUM_TOL)
        if valid:
            assert np.array_equal(simplex_weight(coords), coords)
        else:
            with pytest.raises(ValueError):
                simplex_weight(coords)


class TestValidation:
    def test_rejects_asymmetric_quadratic(self):
        q = np.array([[[1.0, 0.5], [0.0, 1.0]]])
        with pytest.raises(ProblemFormatError, match="symmetric"):
            build_problem(GenericQuadratic(q, np.zeros((1, 2)), np.zeros(1)))

    def test_rejects_indefinite_quadratic(self):
        q = np.array([np.diag([1.0, -1.0])])
        with pytest.raises(ProblemFormatError, match="positive definite"):
            build_problem(GenericQuadratic(q, np.zeros((1, 2)), np.zeros(1)))

    def test_rejects_shape_mismatch(self):
        q = np.array([np.eye(2), np.eye(2)])
        with pytest.raises(ProblemFormatError, match="dimension mismatch"):
            build_problem(GenericQuadratic(q, np.zeros((3, 2)), np.zeros(2)))

    def test_rejects_nonpositive_ridge_penalty(self):
        with pytest.raises(ProblemFormatError, match="must be positive"):
            build_problem(RidgePair(np.ones((3, 2)), np.ones(3), mu=0.0))

    def test_rejects_ridge_length_mismatch(self):
        with pytest.raises(ProblemFormatError, match="dimension mismatch"):
            build_problem(RidgePair(np.ones((3, 2)), np.ones(4), mu=0.1))

    def test_rejects_zero_epsilon(self):
        with pytest.raises(ProblemFormatError, match="nonzero"):
            build_problem(Example31Perturbed(0.0))

    def test_rejects_phenotypic_point_mismatch(self):
        mats = np.array([np.eye(2), np.eye(2)])
        with pytest.raises(ProblemFormatError, match="dimension mismatch"):
            build_problem(Phenotypic(mats, np.zeros((3, 2))))

    def test_point_shape_checked_on_evaluation(self, example31):
        with pytest.raises(ValueError, match="shape"):
            example31.values(np.zeros(4))
        with pytest.raises(ValueError, match="shape"):
            example31.evaluate(np.zeros(3))  # a stack is (N, n)
        with pytest.raises(ValueError, match="shape"):
            example31.evaluate(np.zeros((2, 4)))

    @pytest.mark.parametrize("spec", [
        GenericQuadratic([[[2.0, 0.0], [0.0, np.nan]]], [[0.0, 0.0]], [0.0]),
        GenericQuadratic([np.eye(2)], [[0.0, np.inf]], [0.0]),
        Example31Perturbed(np.nan),
        RidgePair(np.ones((3, 2)), np.ones(3), mu=np.inf),
    ], ids=["nan-q", "inf-b", "nan-epsilon", "inf-mu"])
    def test_rejects_non_finite_fields(self, spec):
        with pytest.raises(ProblemFormatError, match="finite"):
            build_problem(spec)


@st.composite
def family_specs(draw):
    """A spec of every family, with random sizes and seeded random data."""
    tag = draw(st.sampled_from(["generic_quadratic", "example31", "example31_perturbed",
                                "example32", "remark_g", "distance_squared", "phenotypic",
                                "ridge_pair"]))
    n, m = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = 10.0 ** draw(st.integers(-3, 3))

    def spd(count):
        a = gen.normal(size=(count, n, n))
        q = a @ a.transpose(0, 2, 1) + np.eye(n)
        return 0.5 * (q + q.transpose(0, 2, 1))

    if tag == "generic_quadratic":
        return GenericQuadratic(spd(m), scale * gen.normal(size=(m, n)), gen.normal(size=m))
    if tag == "example31_perturbed":
        return Example31Perturbed(scale * gen.normal())
    if tag == "distance_squared":
        return DistanceSquared(scale * gen.normal(size=(m, n)))
    if tag == "phenotypic":
        return Phenotypic(spd(m), scale * gen.normal(size=(m, n)))
    if tag == "ridge_pair":
        rows = draw(st.integers(1, 6))
        return RidgePair(scale * gen.normal(size=(rows, n)), gen.normal(size=rows),
                         float(gen.uniform(0.01, 2.0)))
    return {"example31": Example31, "example32": Example32, "remark_g": RemarkG}[tag]()


class TestSerialization:
    @settings(max_examples=200, deadline=None)
    @given(spec=family_specs(), seed=st.integers(0, 2**32 - 1))
    def test_round_trip_is_bit_identical(self, spec, seed):
        text = serialize_problem(spec)
        clone = parse_problem(text)
        assert serialize_problem(clone) == text
        problem = build_problem(spec)
        xs = np.random.default_rng(seed).normal(size=(5, problem.n))
        for got, want in zip(build_problem(clone).evaluate(xs), problem.evaluate(xs)):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("problem", PROBLEMS, ids=IDS)
    def test_round_trip_preserves_evaluation(self, problem, rng):
        text = serialize_problem(problem)
        clone = build_problem(parse_problem(text))
        assert clone.n == problem.n and clone.m == problem.m
        for _ in range(3):
            x = rng.normal(size=problem.n)
            assert_allclose(clone.values(x), problem.values(x), rtol=1e-15)
            assert_allclose(clone.gradients(x), problem.gradients(x), rtol=1e-15)

    def test_invalid_json_reports_position(self):
        with pytest.raises(ProblemFormatError, match="line 1"):
            parse_problem("{not json")

    def test_unknown_family_lists_known_ones(self):
        with pytest.raises(ProblemFormatError, match="unknown family"):
            parse_problem('{"family": "mystery"}')

    def test_non_string_family_is_unknown(self):
        with pytest.raises(ProblemFormatError, match="unknown family"):
            parse_problem('{"family": ["example31"]}')

    @pytest.mark.parametrize("doc, message", UNKNOWN_FIELD, ids=UNKNOWN_FIELD_IDS)
    def test_unknown_field_rejected(self, doc, message):
        """An extra key would be ignored: example32 is not perturbed, and the
        demand points are not weighted."""
        with pytest.raises(ProblemFormatError) as err:
            parse_problem(doc)
        assert str(err.value) == message

    def test_document_dimensions_must_agree(self):
        with pytest.raises(ProblemFormatError, match="dimension mismatch"):
            parse_problem('{"family": "example31", "n": 5}')

    def test_missing_field_names_the_field(self):
        with pytest.raises(ProblemFormatError, match="'points'"):
            parse_problem('{"family": "distance_squared"}')

    def test_non_object_document_rejected(self):
        with pytest.raises(ProblemFormatError, match="JSON object"):
            parse_problem("[1, 2, 3]")

    @pytest.mark.parametrize("doc", [
        '{"family": "distance_squared", "points": [[0, NaN], [1, 0]]}',
        '{"family": "distance_squared", "points": [[0, Infinity], [1, 0]]}',
        '{"family": "ridge_pair", "X": [[1, 0]], "y": [-Infinity], "mu": 0.1}',
        '{"family": "ridge_pair", "X": [[1, 0]], "y": [1], "mu": 1e400}',
        '{"family": "example31_perturbed", "epsilon": NaN}',
        '{"family": "generic_quadratic", "q": [[[1e400]]], "b": [[0]], "c": [0]}',
    ])
    def test_non_finite_numbers_rejected(self, doc):
        with pytest.raises(ProblemFormatError, match="must be finite"):
            parse_problem(doc)

    def test_integer_beyond_float_range_rejected(self):
        doc = '{"family": "example31_perturbed", "epsilon": 1' + "0" * 400 + "}"
        with pytest.raises(ProblemFormatError,
                           match="bad field .* int too large to convert to float"):
            parse_problem(doc)

    @pytest.mark.parametrize("doc", MALFORMED, ids=MALFORMED_IDS)
    def test_malformed_documents_rejected(self, doc):
        with pytest.raises(ProblemFormatError):
            parse_problem(doc)

    @pytest.mark.parametrize("doc", MALFORMED, ids=MALFORMED_IDS)
    def test_malformed_documents_exit_2_with_one_line(self, doc, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(doc)
        assert main(["verify", str(path), "-r", "3"]) == 2
        out, err = capsys.readouterr()
        assert out == ""  # exit 2 prints no report
        assert "Traceback" not in err
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    def test_builtin_serialization_is_pinned(self, name):
        """Every CLI header prints this digest of the builtin's JSON."""
        text = serialize_problem(builtin_problem(name))
        assert hashlib.sha256(text.encode()).hexdigest() == BUILTIN_SHA256[name]

    @pytest.mark.parametrize("problem", PROBLEMS, ids=IDS)
    def test_parse_then_serialize_gives_the_same_bytes(self, problem):
        text = serialize_problem(problem)
        assert serialize_problem(parse_problem(text)) == text

    def test_derived_problem_serialization_says_derived(self, example31):
        pi = np.zeros((3, 3))
        for derived in (ref_restrict(example31, (0, 1)), perturb_problem(example31, pi)):
            with pytest.raises(ProblemFormatError, match="cannot serialize a derived problem"):
                serialize_problem(derived)

    def test_unvalidated_spec_serialization_is_a_format_error(self):
        with pytest.raises(ProblemFormatError, match=r"points must be an array of shape \(m, n\)"):
            serialize_problem(DistanceSquared([1.0, 2.0]))

    def test_only_family_specs_serialize(self):
        with pytest.raises(ProblemFormatError, match="cannot serialize problem of type object"):
            serialize_problem(object())

    def test_unknown_builtin_lists_known_ones(self):
        with pytest.raises(ProblemFormatError, match=r"unknown builtin 'nope' \(known: "):
            builtin_problem("nope")

    def test_readme_problem_json_blocks_parse(self):
        """Every JSON example in the README's problem-format section parses."""
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        section = readme.split("### Problem JSON (input)", 1)[1].split("\n### ", 1)[0]
        blocks = re.findall(r"```json\n(.*?)```", section, flags=re.DOTALL)
        assert blocks
        for block in blocks:
            spec = parse_problem(block)
            assert build_problem(spec).m == spec.m

    def test_parse_validates_payload(self):
        doc = '{"family": "ridge_pair", "X": [[1, 0]], "y": [1], "mu": -1.0}'
        with pytest.raises(ProblemFormatError, match="must be positive"):
            parse_problem(doc)


class TestStrongConvexity:
    def test_example31_beta_is_two(self, example31):
        cert = check_strong_convexity(example31, count=50, seed=0)
        assert cert.ok
        assert_allclose(cert.beta_min, 2.0, rtol=1e-12)

    def test_example32_beta(self, example32):
        cert = check_strong_convexity(example32, count=50, seed=0)
        assert_allclose(cert.beta_min, 3.0 - np.sqrt(5.0), rtol=1e-12)

    def test_remark_g_beta(self, remark_g):
        cert = check_strong_convexity(remark_g, count=50, seed=0)
        assert_allclose(cert.beta_min, (3.0 - np.sqrt(5.0)) / 2.0, rtol=1e-12)

    def test_double_identity_quadratic(self):
        q = np.array([2.0 * np.eye(3), 2.0 * np.eye(3)])
        p = build_problem(GenericQuadratic(q, np.zeros((2, 3)), np.zeros(2)))
        cert = check_strong_convexity(p, count=20, seed=1)
        assert_allclose(cert.beta_min, 2.0, rtol=1e-12)

    def test_flags_nonconvex_sample(self):
        q = np.array([np.diag([1.0, -1.0])])
        p = GenericQuadratic(q, np.zeros((1, 2)), np.zeros(1))  # not validated
        cert = check_strong_convexity(p, count=10, seed=0)
        assert not cert.ok
        assert cert.beta_min < 0.0
        assert cert.witness_objective == 0

    def test_rejects_empty_sample(self, example31):
        with pytest.raises(ValueError, match="count"):
            check_strong_convexity(example31, count=0)


class TestRestrict:
    def test_selects_objectives(self, example32, rng):
        sub = ref_restrict(example32, (2, 0))
        assert sub.m == 2 and sub.indices == (0, 2)
        x = rng.normal(size=3)
        assert_allclose(sub.values(x), example32.values(x)[[0, 2]])
        assert_allclose(sub.gradients(x), example32.gradients(x)[[0, 2]])
        assert_allclose(sub.hessians(x), example32.hessians(x)[[0, 2]])
        f, g, h = sub.evaluate(x[None, :])
        assert f.shape == (1, 2) and g.shape == (1, 2, 3) and h.shape == (1, 2, 3, 3)
        assert repr(sub) == "RefSubproblem(base=Example32(), indices=(0, 2))"

    def test_rejects_bad_indices(self, example32):
        with pytest.raises(ValueError, match="out of range"):
            ref_restrict(example32, (0, 3))
        with pytest.raises(ValueError, match="nonempty"):
            ref_restrict(example32, ())

    def test_restriction_of_quadratic_matches_manual(self, rng):
        p = random_quadratic(11, n=4, m=4)
        sub = ref_restrict(p, (1, 3))
        x = rng.normal(size=4)
        manual = build_problem(
            GenericQuadratic(p.qs[[1, 3]], p.bs[[1, 3]], p.cs[[1, 3]])
        )
        assert_allclose(sub.values(x), manual.values(x))


class TestDerivedProblems:
    """Subproblems and linear perturbations are views of one problem."""

    def test_restricted_perturbation_is_the_perturbed_columns(self, example32, rng):
        pi = draw_perturbation(3, 3, seed=2, scale=0.1)
        perturbed = perturb_problem(example32, pi)
        sub = ref_restrict(perturbed, (2, 0))
        xs = rng.normal(size=(5, 3))
        for got, full in zip(sub.evaluate(xs), perturbed.evaluate(xs)):
            assert np.array_equal(got, full[:, [0, 2]])

    @pytest.mark.parametrize("epsilon", [0.1, 0.3, -1e-3, 1e-12, 5.0])
    def test_perturbed_fixture_is_a_linear_perturbation(self, example31, epsilon, rng):
        """example31_perturbed is example31 with pi[0, 2] = epsilon, bit for bit."""
        pi = np.zeros((3, 3))
        pi[0, 2] = epsilon
        view = perturb_problem(example31, pi)
        fixture = builtin_problem("example31_perturbed", epsilon=epsilon)
        xs = rng.normal(size=(1000, 3))
        for got, want in zip(fixture.evaluate(xs), view.evaluate(xs)):
            assert np.array_equal(got, want)

    def test_restriction_of_a_restriction_is_one_restriction(self, remark_g, rng):
        twice = ref_restrict(ref_restrict(remark_g, (0, 1, 3)), (0, 2))
        once = ref_restrict(remark_g, (0, 3))
        assert twice.m == once.m == 2
        xs = rng.normal(size=(5, 4))
        for got, want in zip(twice.evaluate(xs), once.evaluate(xs)):
            assert np.array_equal(got, want)

    def test_only_underived_problems_have_a_family(self, example31):
        for _, problem in fixture_problems():
            assert isinstance(problem, Problem)
        spec = Example31()
        assert build_problem(spec) is spec
        pi = np.zeros((3, 3))
        for derived in (ref_restrict(example31, (0, 1)), perturb_problem(example31, pi),
                        ref_restrict(perturb_problem(example31, pi), (1,))):
            with pytest.raises(ProblemFormatError, match="cannot serialize a derived problem"):
                serialize_problem(derived)

    def test_perturbed_atlas_exports_no_family(self, example32, tmp_path):
        pi = draw_perturbation(3, 3, seed=0, scale=0.1)
        atlas = build_atlas(perturb_problem(example32, pi), 3)
        atlas.to_json(tmp_path / "atlas.json")
        doc = json.loads((tmp_path / "atlas.json").read_text())
        assert doc["family"] is None
        build_atlas(example32, 3).to_json(tmp_path / "base.json")
        assert json.loads((tmp_path / "base.json").read_text())["family"] == "example32"
