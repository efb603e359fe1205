"""Fusion algebra: products, dimensions, trees, quantum dimensions."""

import itertools
import math
import time
import timeit
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anyons import fusion
from anyons.errors import InputError, ResourceError
from anyons.fusion import (
    DIM_DIGITS_CAP,
    FUSION_WORK_CAP,
    LABEL_CAP,
    LISTED_LABEL_CAP,
    TREE_CAP,
    Z_D_CAP,
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
from anyons.fsymbols import (
    f_unitarity_residual,
    fibonacci_data,
    hexagon_residual,
    pentagon_residual,
    trivial_data,
)

from oracles import brute_force_tree_count, fusion_trees_oracle

PHI = (1 + math.sqrt(5)) / 2
FIB = fibonacci_model()
FIB_FUSION = {(0, 0, 0): 1, (0, 1, 1): 1, (1, 0, 1): 1, (1, 1, 0): 1, (1, 1, 1): 1}


def _multiplicity_model(m: int) -> AnyonModel:
    """Fibonacci's fusion rules with ``N^1_11 = m``."""
    return AnyonModel((0, 1), 0, {0: 0, 1: 1}, {**FIB_FUSION, (1, 1, 1): m})


def _linear_growth_model() -> AnyonModel:
    """Labels 0, a, s, x, each its own dual, with a x x = a + s and s x x = s
    (and a x a, s x s, x x x = 0): from a, each x leaf adds one tree."""
    rules = {}
    for a, b, c in ((0, "a", "a"), (0, "s", "s"), (0, "x", "x"), (0, 0, 0), ("a", "a", 0),
                    ("s", "s", 0), ("x", "x", 0), ("a", "x", "a"), ("a", "x", "s"),
                    ("s", "x", "s")):
        rules[(a, b, c)] = rules[(b, a, c)] = 1
    return AnyonModel((0, "a", "s", "x"), 0, {a: a for a in (0, "a", "s", "x")}, rules)


LINEAR_GROWTH = _linear_growth_model()

#: Models whose tree lists are checked against the recursive oracle.
ORACLE_MODELS = (FIB, toric_model(), zd_model(3), zd_model(5),
                 _multiplicity_model(2), _multiplicity_model(3), LINEAR_GROWTH)


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

    def test_exact_past_int64(self):
        # Fib(100) > 2^63: the counts are Python integers, not int64
        dim = fusion_space_dim(FIB, [1] * 100, 1)
        assert dim == 354224848179261915075 and type(dim) is int

    def test_growth_ratio_approaches_phi(self):
        d30 = fusion_space_dim(FIB, [1] * 30, 1)
        d31 = fusion_space_dim(FIB, [1] * 31, 1)
        assert abs(d31 / d30 - PHI) < 1e-6

    def test_empty_inputs_rejected(self):
        with pytest.raises(InputError):
            fusion_space_dim(FIB, [], 1)

    def test_digit_bound(self):
        # each tau leaf at most doubles the count, so n leaves give at most
        # 2^(n-1) trees: refused from 14,286 leaves, the exact count printed
        # below
        n = math.ceil(DIM_DIGITS_CAP / math.log10(2)) + 1
        fib = [0, 1]
        for _ in range(n - 3):
            fib.append(fib[-1] + fib[-2])
        assert fusion_space_dim(FIB, [1] * (n - 1), 0) == fib[-1]
        with pytest.raises(ResourceError, match=f"{n} leaves could exceed"):
            fusion_space_dim(FIB, [1] * n, 0)

    def test_digit_bound_survives_huge_multiplicities(self):
        # row sums of 2^63 - 1 multiplicities overflow int64 but not floats
        big = AnyonModel((0, 1), 0, {0: 0, 1: 1}, {**FIB_FUSION, (1, 1, 0): 2 ** 63 - 1,
                                                   (1, 1, 1): 2 ** 63 - 1})
        assert fusion_space_dim(big, [1] * 3, 1) == (2 ** 63 - 1) * 2 ** 63  # M^2 + M
        with pytest.raises(ResourceError, match="could exceed"):
            fusion_space_dim(big, [1] * 300, 1)

    def test_work_bound(self, monkeypatch):
        # (n - 1) max(k^2, 100) products: below 11 labels a leaf counts as 100
        assert 15 * 100 <= FUSION_WORK_CAP
        z6 = zd_model(6)
        monkeypatch.setattr(fusion, "FUSION_WORK_CAP", 15 * 100)
        assert fusion_space_dim(z6, [5] * 16, 2) == 1
        with pytest.raises(ResourceError, match="17 leaves over 6 labels need 1600 products"):
            fusion_space_dim(z6, [5] * 17, 1)
        monkeypatch.setattr(fusion, "FUSION_WORK_CAP", 2 * 11 ** 2)
        assert fusion_space_dim(zd_model(11), [1] * 3, 3) == 1
        with pytest.raises(ResourceError, match="4 leaves over 11 labels need 363 products"):
            fusion_space_dim(zd_model(11), [1] * 4, 4)

    def test_work_bound_refuses_before_any_step(self):
        model = zd_model(LABEL_CAP)
        start = time.perf_counter()
        with pytest.raises(ResourceError, match="over the cap of"):
            fusion_space_dim(model, [LABEL_CAP - 1] * 14_000, 0)
        assert time.perf_counter() - start < 0.1

    def test_leaves_refused_before_their_labels_are_read(self):
        # 2,000,000 Z_2 leaves: reading their labels alone would take 0.1 s
        inputs = [1] * 2_000_000
        for count in (fusion_space_dim, enumerate_fusion_trees):
            start = time.perf_counter()
            with pytest.raises(ResourceError, match="2000000 leaves over 2 labels need"):
                count(zd_model(2), inputs, 0)
            assert time.perf_counter() - start < 0.1

    def test_vacuum_leaves_cost_no_contraction(self):
        # the longest vacuum run the work cap admits; one contraction per
        # leaf, at about 0.7 us each, would take 0.07 s
        n = FUSION_WORK_CAP // 100
        inputs = [1] + [0] * n
        elapsed = min(timeit.repeat(lambda: fusion_space_dim(FIB, inputs, 1), number=1, repeat=3))
        assert fusion_space_dim(FIB, inputs, 1) == 1 and elapsed < 0.05
        with pytest.raises(ResourceError, match="over the cap of"):
            fusion_space_dim(FIB, inputs + [0], 1)

    @pytest.mark.parametrize("model", ORACLE_MODELS, ids=lambda model: str(model.labels))
    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_equals_the_brute_force_count(self, model, data):
        # the listing reads the same counts, so the dimension is checked
        # against the recursion on its own, vacuum leaves interleaved
        inputs = data.draw(st.lists(st.sampled_from(model.labels), min_size=1, max_size=8))
        for _ in range(data.draw(st.integers(0, 4))):
            inputs.insert(data.draw(st.integers(0, len(inputs))), model.vacuum)
        total = data.draw(st.sampled_from(model.labels))
        expected = brute_force_tree_count(model, inputs, total)
        assert fusion_space_dim(model, inputs, total) == expected

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
        assert enumerate_fusion_trees(FIB, [1, 1, 1, 1], 0) == [(0, 1), (1, 1)]

    def test_single_input(self):
        assert enumerate_fusion_trees(FIB, [1], 1) == [()]
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
            chain = (inputs[0], *tree, total)
            for prev, leaf, nxt in zip(chain, inputs[1:], chain[1:]):
                assert FIB.n(prev, leaf, nxt) > 0

    def test_cap(self):
        # its 8.3 M labels are over the label cap too: the tree cap comes first
        assert fusion_space_dim(FIB, [1] * 28, 1) == 317_811 > TREE_CAP
        with pytest.raises(ResourceError, match=f"317811 trees exceed the tree cap {TREE_CAP}"):
            enumerate_fusion_trees(FIB, [1] * 28, 1)

    def test_cap_cannot_be_raised(self):
        # the tree cap is a constant: no argument lifts it
        with pytest.raises(TypeError):
            enumerate_fusion_trees(FIB, [1] * 3, 1, cap=TREE_CAP + 1)
        assert len(enumerate_fusion_trees(FIB, [1] * 3, 1)) == 2

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
        assert trees == [(0,), (1,), (1,), (1,), (1,)]
        assert fusion_space_dim(model, [1, 1, 1], 1) == brute_force_tree_count(
            model, [1, 1, 1], 1
        )

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_equals_the_oracle_in_order(self, data):
        # element for element: a multiplicity repeats a whole sub-block in place
        model = data.draw(st.sampled_from(ORACLE_MODELS))
        inputs = data.draw(st.lists(st.sampled_from(model.labels), min_size=1, max_size=8))
        total = data.draw(st.sampled_from(model.labels))
        expected = fusion_trees_oracle(model, inputs, total)
        assert enumerate_fusion_trees(model, inputs, total) == expected
        assert len(expected) == fusion_space_dim(model, inputs, total)
        names = [f"<{a}>" for a in model.labels]
        named = [tuple(names[model.index[a]] for a in tree) for tree in expected]
        assert enumerate_fusion_trees(model, inputs, total, names) == named

    def test_every_fibonacci_input_of_up_to_ten_leaves(self):
        for n in range(1, 11):
            for inputs in itertools.product((0, 1), repeat=n):
                for total in (0, 1):
                    trees = enumerate_fusion_trees(FIB, inputs, total)
                    assert trees == fusion_trees_oracle(FIB, inputs, total)
                    assert len(trees) == fusion_space_dim(FIB, inputs, total)

    def test_work_is_linear_in_the_labels(self):
        # prefixing one label per depth would copy every tree once per leaf:
        # quadratic in the leaves for 100,000 vacuum leaves (one tree of
        # 99,999 labels), cubic for trees that grow by one per leaf (1,399
        # trees of 1,398 labels; a x x = a + s and s x x = s)
        start = time.perf_counter()
        assert enumerate_fusion_trees(FIB, [1] + [0] * 100_000, 1) == [(1,) * 99_999]
        trees = enumerate_fusion_trees(LINEAR_GROWTH, ["a"] + ["x"] * 1_399, "s")
        assert trees == [("a",) * k + ("s",) * (1_398 - k) for k in range(1_398, -1, -1)]
        assert time.perf_counter() - start < 1.0

    def test_label_cap_at_the_bound(self):
        inputs = [1] * 25 + [0] * 4  # 75,025 trees of 27 internal labels
        assert 75_025 * 27 == 2_025_675 <= LISTED_LABEL_CAP
        start = time.perf_counter()
        trees = enumerate_fusion_trees(FIB, inputs, 1)
        elapsed = time.perf_counter() - start
        assert len(trees) == 75_025 and elapsed < 1.0
        del trees
        tracemalloc.start()
        try:
            assert len(enumerate_fusion_trees(FIB, inputs, 1)) == 75_025
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 48 * 2**20

    def test_label_cap_refuses_before_listing(self):
        # one vacuum leaf more adds no tree but 75,025 labels
        inputs = [1] * 25 + [0] * 5
        start = time.perf_counter()
        with pytest.raises(ResourceError, match=(
                "75025 trees of 28 internal labels each list 2100700 labels, "
                f"over the cap of {LISTED_LABEL_CAP}")):
            enumerate_fusion_trees(FIB, inputs, 1)
        assert time.perf_counter() - start < 0.1


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

    def test_summed_fusion_graph_is_a_star_around_the_vacuum(self):
        # every model quantum_dimensions accepts has an irreducible matrix
        for model in (FIB, zd_model(5), toric_model(), zd_model(Z_D_CAP)):
            M = model.N.sum(axis=0)
            v = model.index[model.vacuum]
            assert (M[v] > 0).all() and (M[:, v] > 0).all()

    def test_no_convergence_is_numeric_error(self, monkeypatch):
        from anyons.errors import NumericError

        monkeypatch.setattr(fusion, "QDIM_MAX_ITER", 0)
        with pytest.raises(NumericError, match="in 0 iterations"):
            quantum_dimensions(FIB)


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

    @pytest.mark.parametrize("p", [0, -3])
    def test_bosonic_limit_checks_p(self, p):
        # j = 0 is the bosonic limit only for a filling p >= 1
        with pytest.raises(InputError, match="need j >= 0 and p >= 1"):
            composite_fermion_statistics(0, p)


class TestModels:
    def test_shared_model_maps_are_read_only(self):
        model = named_model("z_d:3")
        for mapping, key in ((model.dual, 1), (model.index, 1)):
            with pytest.raises(TypeError):
                mapping[key] = 0
        assert model.n(1, 1, 2) == model.N[1, 1, 2] == 1
        fusion_map = {(a, b, (a + b) % 3): 1 for a in range(3) for b in range(3)}
        built = AnyonModel((0, 1, 2), 0, {0: 0, 1: 2, 2: 1}, fusion_map)
        fusion_map[(1, 1, 2)] = 0  # the model holds its own copy
        assert built.n(1, 1, 2) == 1 and built == model
        assert AnyonModel.from_json(model.to_json()) == model

    def test_named(self):
        assert named_model("fibonacci").labels == (0, 1)
        assert named_model("z_d:4").labels == (0, 1, 2, 3)
        assert named_model("toric").labels == ("1", "e", "m", "em")
        with pytest.raises(InputError):
            named_model("nope")

    def test_fibonacci_is_one_instance_that_compares_as_before(self):
        assert fibonacci_model() is FIB and named_model("fibonacci") is FIB
        assert fibonacci_data()[0] is FIB
        built = AnyonModel((0, 1), 0, {0: 0, 1: 1}, dict(FIB_FUSION), name="fibonacci")
        assert built == FIB and built is not FIB
        doubled = AnyonModel((0, 1), 0, {0: 0, 1: 1}, {**FIB_FUSION, (1, 1, 1): 2})
        assert FIB != zd_model(2) and FIB != doubled
        _, f, r = fibonacci_data()
        assert pentagon_residual(built, f) < 1e-12 and hexagon_residual(built, f, r) < 1e-12
        other_f, other_r = trivial_data(zd_model(2))
        for check in (lambda: pentagon_residual(FIB, other_f),
                      lambda: f_unitarity_residual(FIB, other_f),
                      lambda: hexagon_residual(FIB, f, other_r),
                      lambda: hexagon_residual(zd_model(2), f, r)):
            with pytest.raises(InputError, match="different model"):
                check()

    def test_equality_follows_n(self):
        # a listed zero multiplicity is the same rule as an absent one
        listed = AnyonModel((0, 1), 0, {0: 0, 1: 1}, {**FIB_FUSION, (1, 0, 0): 0})
        assert listed == FIB and listed.n(1, 0, 0) == 0
        assert not hasattr(listed, "fusion")
        assert AnyonModel.from_json(listed.to_json()) == FIB

    def test_equal_models_hash_equal(self):
        floats = AnyonModel((0.0, 1.0), 0.0, {0.0: 0.0, 1.0: 1.0},
                            {tuple(map(float, key)): m for key, m in FIB_FUSION.items()})
        equal = [FIB, AnyonModel.from_json(FIB.to_json()), floats,
                 AnyonModel((0, 1), 0, {0: 0, 1: 1}, {**FIB_FUSION, (1, 0, 0): 0}, name="other")]
        assert all(model == FIB for model in equal)
        assert {hash(model) for model in equal} == {hash(FIB)}
        assert len(set(equal)) == 1 and {FIB: 1}[floats] == 1
        assert hash(AnyonModel.from_json(toric_model().to_json())) == hash(toric_model())
        assert len({FIB, zd_model(2), zd_model(3)}) == 3

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

    @pytest.mark.parametrize("labels, dual, fusion, message", [
        pytest.param((0, 1), {0: 0, 1: 1}, {(0, 0, 0): 1, (1, 1, 0): 1},
                     r"vacuum is not a fusion identity at \(1, 1\)", id="vacuum"),
        pytest.param((0, 1), {0: 0, 1: 1}, {**FIB_FUSION, (1, 0, 0): 1},
                     r"fusion not commutative at \(0, 1, 0\)", id="non-commutative"),
        pytest.param((0, 1, 2), {0: 0, 1: 1, 2: 2},
                     {(a, b, (a + b) % 3): 1 for a in range(3) for b in range(3)},
                     "1 does not annihilate with its dual", id="dual"),
        # {0, 1} is Z_2 and 2 x 2 = 2: a fusion graph with no path from 2 to
        # the vacuum, refused by the same invariant
        pytest.param((0, 1, 2), {0: 0, 1: 1, 2: 2},
                     {(0, 0, 0): 1, (0, 1, 1): 1, (1, 0, 1): 1, (0, 2, 2): 1, (2, 0, 2): 1,
                      (1, 1, 0): 1, (2, 2, 2): 1},
                     "2 does not annihilate with its dual", id="disconnected"),
        pytest.param((0, 1), {0: 0, 1: 1}, {**FIB_FUSION, (1, 7, 1): 1},
                     "unknown label 7", id="unknown-label"),
        pytest.param((0, 1), {0: 0, 1: 1}, {**FIB_FUSION, (1, 1, 1): -1},
                     r"multiplicity at \(1, 1, 1\) is not a non-negative integer",
                     id="negative"),
        pytest.param((0, 1), {0: 0, 1: 1}, {**FIB_FUSION, (1, 1, 1): 1.5},
                     r"multiplicity at \(1, 1, 1\) is not a non-negative integer",
                     id="non-integer"),
        pytest.param((0, 1), {0: 0, 1: 1}, {**FIB_FUSION, (1, 1, 1): 2 ** 63},
                     "does not fit in int64", id="int64-overflow"),
    ])
    def test_each_refusal_names_its_cause(self, labels, dual, fusion, message):
        with pytest.raises(InputError, match=message):
            AnyonModel(labels, 0, dual, fusion)

    def test_label_cap_refuses_before_allocating(self):
        labels = tuple(range(10_000))  # a (k, k, k) int64 tensor of 7.28 TiB
        tracemalloc.start()
        try:
            with pytest.raises(ResourceError, match="10000 labels exceed the cap of"):
                AnyonModel(labels, 0, {a: a for a in labels}, {(0, 0, 0): 1})
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20

    def test_model_at_the_label_cap_builds_in_bounded_memory(self):
        assert Z_D_CAP <= LABEL_CAP
        zd_model.cache_clear()  # measure a build, not a cache hit
        tracemalloc.start()
        try:
            model = zd_model(LABEL_CAP)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert model.N.shape == (LABEL_CAP,) * 3 and peak < 64 * 2**20
        with pytest.raises(ResourceError, match="labels exceed"):
            zd_model(LABEL_CAP + 1)

    def test_largest_int64_multiplicity_accepted(self):
        model = AnyonModel((0, 1), 0, {0: 0, 1: 1}, {**FIB_FUSION, (1, 1, 1): 2 ** 63 - 1})
        assert model.N[1, 1, 1] == 2 ** 63 - 1

    def test_fusion_tensor_array(self):
        assert FIB.N.dtype == np.int64 and FIB.N.shape == (2, 2, 2)
        assert not FIB.N.flags.writeable
        assert FIB.N.tolist() == [[[1, 0], [0, 1]], [[0, 1], [1, 1]]]
        for model in (FIB, zd_model(3), toric_model()):
            for a, b, c in itertools.product(model.labels, repeat=3):
                index = [model.index[x] for x in (a, b, c)]
                assert model.N[tuple(index)] == model.n(a, b, c)

    @pytest.mark.parametrize("model, text", [
        (FIB, '{"dual": [[0, 0], [1, 1]], "fusion": [[0, 0, 0, 1], [0, 1, 1, 1], '
              '[1, 0, 1, 1], [1, 1, 0, 1], [1, 1, 1, 1]], "labels": [0, 1], '
              '"name": "fibonacci", "vacuum": 0}'),
        (toric_model(),
         '{"dual": [["1", "1"], ["e", "e"], ["m", "m"], ["em", "em"]], "fusion": '
         '[["1", "1", "1", 1], ["1", "e", "e", 1], ["1", "m", "m", 1], '
         '["1", "em", "em", 1], ["e", "1", "e", 1], ["e", "e", "1", 1], '
         '["e", "m", "em", 1], ["e", "em", "m", 1], ["m", "1", "m", 1], '
         '["m", "e", "em", 1], ["m", "m", "1", 1], ["m", "em", "e", 1], '
         '["em", "1", "em", 1], ["em", "e", "m", 1], ["em", "m", "e", 1], '
         '["em", "em", "1", 1]], "labels": ["1", "e", "m", "em"], "name": "toric", '
         '"vacuum": "1"}'),
        (zd_model(3),
         '{"dual": [[0, 0], [1, 2], [2, 1]], "fusion": [[0, 0, 0, 1], [0, 1, 1, 1], '
         '[0, 2, 2, 1], [1, 0, 1, 1], [1, 1, 2, 1], [1, 2, 0, 1], [2, 0, 2, 1], '
         '[2, 1, 0, 1], [2, 2, 1, 1]], "labels": [0, 1, 2], "name": "z_d:3", '
         '"vacuum": 0}'),
        (AnyonModel((0, 1), 0, {0: 0, 1: 1}, {**FIB_FUSION, (1, 1, 1): 2}),
         '{"dual": [[0, 0], [1, 1]], "fusion": [[0, 0, 0, 1], [0, 1, 1, 1], '
         '[1, 0, 1, 1], [1, 1, 0, 1], [1, 1, 1, 2]], "labels": [0, 1], "name": "", '
         '"vacuum": 0}'),
    ], ids=["fibonacci", "toric", "z_d:3", "multiplicity-2"])
    def test_json_bytes(self, model, text):
        assert model.to_json() == text
