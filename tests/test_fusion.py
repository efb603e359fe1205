"""Fusion algebra: products, dimensions, trees, quantum dimensions."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anyons.errors import InputError, ResourceError
from anyons.fusion import (
    TREE_CAP,
    AnyonModel,
    composite_fermion_statistics,
    enumerate_fusion_trees,
    fibonacci_model,
    fuse,
    fusion_space_dim,
    named_model,
    quantum_dimensions,
    toric_model,
    total_dimension_entropy,
    zd_model,
)

from oracles import brute_force_tree_count

PHI = (1 + math.sqrt(5)) / 2
FIB = fibonacci_model()


class TestFuse:
    def test_fibonacci_tau_tau(self):
        assert fuse(FIB, 1, 1) == [(0, 1), (1, 1)]

    def test_vacuum_identity(self):
        for a in FIB.labels:
            assert fuse(FIB, 0, a) == [(a, 1)]

    def test_z3_additive(self):
        z3 = zd_model(3)
        assert fuse(z3, 1, 2) == [(0, 1)]

    def test_unknown_label(self):
        with pytest.raises(InputError):
            fuse(FIB, 1, 7)


class TestFusionSpaceDim:
    def test_small_chain_dimensions(self):
        assert fusion_space_dim(FIB, [1, 1], 1) == 1
        assert fusion_space_dim(FIB, [1, 1, 1], 1) == 2
        assert fusion_space_dim(FIB, [1, 1, 1, 1], 1) == 3

    def test_fibonacci_sequence(self):
        # dim([1]^n -> 1) = Fib(n) with Fib(1) = Fib(2) = 1
        fib = [0, 1, 1]
        for n in range(3, 32):
            fib.append(fib[-1] + fib[-2])
        for n in range(1, 26):
            assert fusion_space_dim(FIB, [1] * n, 1) == fib[n]

    def test_frozen_large_values(self):
        assert fusion_space_dim(FIB, [1] * 20, 1) == 6765
        assert fusion_space_dim(FIB, [1] * 21, 1) == 10946

    def test_growth_ratio_approaches_phi(self):
        d30 = fusion_space_dim(FIB, [1] * 30, 1)
        d31 = fusion_space_dim(FIB, [1] * 31, 1)
        assert abs(d31 / d30 - PHI) < 1e-6

    def test_empty_inputs_rejected(self):
        with pytest.raises(InputError):
            fusion_space_dim(FIB, [], 1)

    def test_partition_identity(self):
        # summing over totals counts every fusion path exactly once
        for inputs in ([1, 1, 1], [1, 0, 1, 1], [1] * 6):
            by_total = sum(fusion_space_dim(FIB, inputs, t) for t in FIB.labels)
            paths = brute_force_tree_count(FIB, inputs, 0) + brute_force_tree_count(
                FIB, inputs, 1
            )
            assert by_total == paths


class TestEnumerateTrees:
    def test_four_taus_to_vacuum(self):
        trees = enumerate_fusion_trees(FIB, [1, 1, 1, 1], 0)
        assert [t.internal for t in trees] == [(0, 1), (1, 1)]

    def test_single_input(self):
        trees = enumerate_fusion_trees(FIB, [1], 1)
        assert len(trees) == 1 and trees[0].internal == ()
        assert enumerate_fusion_trees(FIB, [1], 0) == []

    def test_five_taus(self):
        assert len(enumerate_fusion_trees(FIB, [1] * 5, 1)) == 5

    def test_matches_dim_and_oracle(self):
        for model in (FIB, zd_model(3)):
            for length in range(1, 8):
                for total in model.labels:
                    inputs = [model.labels[i % len(model.labels)] for i in range(length)]
                    trees = enumerate_fusion_trees(model, inputs, total)
                    assert len(trees) == fusion_space_dim(model, inputs, total)
                    assert len(trees) == brute_force_tree_count(model, inputs, total)

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.sampled_from([0, 1]), min_size=1, max_size=8),
        st.sampled_from([0, 1]),
    )
    def test_enumeration_equals_dim_property(self, inputs, total):
        trees = enumerate_fusion_trees(FIB, inputs, total)
        assert len(trees) == fusion_space_dim(FIB, inputs, total)
        for tree in trees:
            chain = (inputs[0],) + tree.intermediates()
            for prev, leaf, nxt in zip(chain, inputs[1:], chain[1:]):
                assert FIB.n(prev, leaf, nxt) > 0

    def test_cap(self):
        with pytest.raises(ResourceError):
            enumerate_fusion_trees(FIB, [1] * 25, 1, cap=100)

    def test_cap_cannot_be_raised(self):
        with pytest.raises(ResourceError, match="tree cap"):
            enumerate_fusion_trees(FIB, [1] * 3, 1, cap=TREE_CAP + 1)
        assert len(enumerate_fusion_trees(FIB, [1] * 3, 1, cap=TREE_CAP)) == 2

    def test_multiplicity_counted_as_branch_copies(self):
        # no built-in model has N > 1; a synthetic tensor exercises the rule
        model = AnyonModel(
            (0, 1),
            0,
            {0: 0, 1: 1},
            {
                (0, 0, 0): 1,
                (0, 1, 1): 1,
                (1, 0, 1): 1,
                (1, 1, 0): 1,
                (1, 1, 1): 2,
            },
        )
        assert fusion_space_dim(model, [1, 1, 1], 1) == 5
        trees = enumerate_fusion_trees(model, [1, 1, 1], 1)
        assert len(trees) == 5
        assert [t.internal for t in trees] == [(0,), (1,), (1,), (1,), (1,)]
        assert fusion_space_dim(model, [1, 1, 1], 1) == brute_force_tree_count(
            model, [1, 1, 1], 1
        )


class TestQuantumDimensions:
    def test_fibonacci(self):
        dims = quantum_dimensions(FIB)
        assert dims[0] == 1.0
        assert abs(dims[1] - PHI) < 1e-10

    def test_abelian_all_one(self):
        for model in (zd_model(2), zd_model(5), toric_model()):
            dims = quantum_dimensions(model)
            assert all(abs(v - 1.0) < 1e-12 for v in dims.values())

    def test_product_rule_residual(self):
        for model in (FIB, zd_model(3), toric_model()):
            dims = quantum_dimensions(model)
            for a in model.labels:
                for b in model.labels:
                    rhs = sum(model.n(a, b, c) * dims[c] for c in model.labels)
                    assert abs(dims[a] * dims[b] - rhs) < 1e-10

    def test_no_convergence_is_numeric_error(self):
        from anyons.errors import NumericError

        with pytest.raises(NumericError):
            quantum_dimensions(FIB, max_iter=0)


class TestEntropy:
    def test_fibonacci(self):
        D, S = total_dimension_entropy(FIB)
        assert abs(D - math.sqrt(1 + PHI ** 2)) < 1e-10
        assert abs(S - math.log(D)) < 1e-12

    def test_toric(self):
        D, S = total_dimension_entropy(toric_model())
        assert abs(D - 2.0) < 1e-10
        assert abs(S - math.log(2.0)) < 1e-10

    def test_trivial_model(self):
        trivial = AnyonModel((0,), 0, {0: 0}, {(0, 0, 0): 1})
        D, S = total_dimension_entropy(trivial)
        assert abs(D - 1.0) < 1e-12 and abs(S) < 1e-12

    def test_log_base(self):
        _, S2 = total_dimension_entropy(toric_model(), log_base=2)
        assert abs(S2 - 1.0) < 1e-10


class TestCompositeFermion:
    def test_values(self):
        assert composite_fermion_statistics(1, 1) == Fraction(2, 3)
        assert composite_fermion_statistics(1, 2) == Fraction(2, 5)
        assert composite_fermion_statistics(0, 1) == 0

    def test_bad_input(self):
        with pytest.raises(InputError):
            composite_fermion_statistics(-1, 1)
        with pytest.raises(InputError):
            composite_fermion_statistics(1, 0)


class TestModels:
    def test_named(self):
        assert named_model("fibonacci").labels == (0, 1)
        assert named_model("z_d:4").labels == (0, 1, 2, 3)
        assert named_model("toric").labels == ("1", "e", "m", "em")
        with pytest.raises(InputError):
            named_model("nope")

    def test_json_round_trip(self):
        for model in (FIB, zd_model(3), toric_model()):
            assert AnyonModel.from_json(model.to_json()) == model

    def test_invariants_enforced(self):
        with pytest.raises(InputError):  # vacuum not the identity
            AnyonModel((0, 1), 0, {0: 0, 1: 1}, {(0, 0, 0): 1, (1, 1, 0): 1})
        with pytest.raises(InputError):  # non-commutative fusion
            AnyonModel(
                (0, 1),
                0,
                {0: 0, 1: 1},
                {
                    (0, 0, 0): 1,
                    (0, 1, 1): 1,
                    (1, 0, 1): 1,
                    (1, 1, 0): 1,
                    (1, 1, 1): 2,
                    (1, 0, 0): 1,
                },
            )
