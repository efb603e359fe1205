"""Toric-code engine: stabilizers, strings, correction, braiding, protocol."""

import functools
import itertools
import math
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anyons import toric
from anyons.errors import InputError, InvariantViolation, ResourceError
from anyons.pauli import PauliString, commutation_phase
from anyons.toric import (
    BRAIDING_TABLE_CAP,
    EDGE_SIGNS,
    LATTICE_EDGE_CAP,
    PRIME_TEST_CAP,
    Syndrome,
    TorusLattice,
    _incidence_rank,
    _star_face_overlaps,
    _vertex_far_from,
    braiding_table,
    build_stabilizers,
    correct,
    dyon_braiding_phase,
    extract_mutual_statistics,
    ground_space_dim,
    homology_class,
    honeycomb_effective_coupling,
    honeycomb_phase,
    interferometer_run,
    stabilizer_products_are_identity,
    stabilizers_commute,
    string_operator,
    syndrome,
)
from oracles import (
    braiding_table_oracle,
    check_blocks,
    code_state_expectation,
    correct_oracle,
    edge_endpoints,
    expectation,
    ground_state,
    interferometer_oracle,
    interferometer_pairs_oracle,
    pauli_dense,
    rank_mod_p,
    string_operator_oracle,
    syndrome_oracle,
    vertex_far_from_oracle,
)


def charge_string(lat, vertices, r=1, d=2):
    return string_operator(lat, vertices, "charge", r, d)


def flux_string(lat, faces, r=1, d=2):
    return string_operator(lat, faces, "flux", r, d)


class TestLattice:
    @pytest.mark.parametrize("lx,ly", [(2, 2), (3, 2), (4, 5), (6, 6)])
    def test_structure(self, lx, ly):
        lat = TorusLattice(lx, ly)
        lat.validate()
        assert lat.n_edges == 2 * lx * ly

    def test_too_small(self):
        with pytest.raises(InputError):
            TorusLattice(1, 4)


class TestStabilizers:
    @pytest.mark.parametrize("d", [2, 3, 5])
    @pytest.mark.parametrize("lx,ly", [(2, 2), (3, 3), (6, 6)])
    def test_all_pairs_commute(self, lx, ly, d):
        lat = TorusLattice(lx, ly)
        stars, plaqs = build_stabilizers(lat, d)
        ops = stars + plaqs
        assert all(
            commutation_phase(p, q) == 0 for p in ops for q in ops
        )

    def test_counts(self):
        lat = TorusLattice(2, 2)
        stars, plaqs = build_stabilizers(lat, 2)
        assert len(stars) == 4 and len(plaqs) == 4

    @pytest.mark.parametrize("d", [2, 3])
    def test_selected_rows_match_the_full_build(self, d):
        lat = TorusLattice(4, 3)
        stars, plaqs = build_stabilizers(lat, d)
        some_stars, no_plaqs = build_stabilizers(lat, d, vertices=[7, 0, 7], faces=())
        assert some_stars == [stars[7], stars[0], stars[7]] and no_plaqs == []
        no_stars, some_plaqs = build_stabilizers(lat, d, vertices=(), faces=[11, 2])
        assert no_stars == [] and some_plaqs == [plaqs[11], plaqs[2]]

    @pytest.mark.parametrize("d", [2, 3])
    def test_products_are_identity(self, d):
        lat = TorusLattice(3, 2)
        stars, plaqs = build_stabilizers(lat, d)
        one = PauliString(d, [0] * lat.n_edges, [0] * lat.n_edges)
        prod = one
        for s in stars:
            prod = prod * s
        assert prod == one
        prod = one
        for p in plaqs:
            prod = prod * p
        assert prod == one


class TestCheckMatrix:
    """The edge-index arrays against explicit dense stabilizers."""

    @pytest.mark.parametrize("d", [2, 3, 5])
    @pytest.mark.parametrize("lx,ly", [(2, 2), (3, 4), (5, 5)])
    def test_block_rank_equals_stacked_rank(self, lx, ly, d):
        lat = TorusLattice(lx, ly)
        stars, plaqs = build_stabilizers(lat, d)
        stacked = np.array([np.concatenate([p.x, p.z]) for p in stars + plaqs])
        rank = rank_mod_p(stacked, d)
        assert ground_space_dim(lat, d) == d ** (lat.n_edges - rank)

    @pytest.mark.parametrize("d", [2, 3, 4, 6])
    @pytest.mark.parametrize("lx,ly", [(2, 2), (3, 2), (4, 5)])
    def test_commutation_check_matches_all_pairs(self, lx, ly, d):
        lat = TorusLattice(lx, ly)
        stars, plaqs = build_stabilizers(lat, d)
        ops = stars + plaqs
        every_pair = all(commutation_phase(p, q) == 0 for p in ops for q in ops)
        assert stabilizers_commute(lat, d) is every_pair is True

    @pytest.mark.parametrize("d", [3, 5])
    @pytest.mark.parametrize("which", ["star", "face"])
    def test_commutation_check_catches_one_flipped_sign(self, which, d):
        lat = TorusLattice(4, 3)
        signs = np.tile(EDGE_SIGNS, (lat.lx * lat.ly, 1))
        signs[5, 2] = -signs[5, 2]
        args = (signs, EDGE_SIGNS) if which == "star" else (EDGE_SIGNS, signs)
        _, sums = _star_face_overlaps(lat, *args)
        assert np.any(sums % d)
        # qubits do not see a sign: -1 = +1 mod 2
        assert not np.any(sums % 2)

    def test_overlap_memory_is_a_few_rows_per_star(self):
        # an (n, 8, 8) comparison of each star's face incidences took 896
        # bytes per star; ten (n, 8) int64 arrays take 640
        lat = TorusLattice(64, 64)
        lat.star_edges, lat.face_edges
        tracemalloc.start()
        try:
            _star_face_overlaps(lat, EDGE_SIGNS, EDGE_SIGNS)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10 * 8 * 8 * lat.n_vertices

    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("lx,ly", [(2, 2), (3, 2), (4, 4)])
    def test_products_match_explicit_products(self, lx, ly, d):
        lat = TorusLattice(lx, ly)
        stars, plaqs = build_stabilizers(lat, d)
        explicit = []
        one = PauliString(d, [0] * lat.n_edges, [0] * lat.n_edges)
        for ops in (stars, plaqs):
            prod = one
            for op in ops:
                prod = prod * op
            explicit.append(prod == one)
        assert stabilizer_products_are_identity(lat, d) == tuple(explicit) == (True, True)

    @pytest.mark.parametrize("d", [1, 0, -2])
    def test_products_refuse_a_dimension_below_two(self, d):
        with pytest.raises(InputError, match=">= 2"):
            stabilizer_products_are_identity(TorusLattice(3, 3), d)

    def test_products_catch_a_flipped_star_row(self):
        lat = TorusLattice(4, 3)
        edges = lat.star_edges.copy()
        edges[5, [0, 2]] = edges[5, [2, 0]]  # trades the signs of two of its edges
        vars(lat)["star_edges"] = edges  # the cached property's slot
        for d, expected in ((3, (False, True)), (2, (True, True))):  # -1 = +1 mod 2
            stars, plaqs = build_stabilizers(lat, d)
            one = PauliString(d, [0] * lat.n_edges, [0] * lat.n_edges)
            explicit = tuple(functools.reduce(PauliString.__mul__, ops, one) == one
                             for ops in (stars, plaqs))
            assert stabilizer_products_are_identity(lat, d) == explicit == expected

    def test_rows_are_the_exponent_maps(self):
        lat = TorusLattice(3, 4)
        stars, plaqs = build_stabilizers(lat, 3)
        for v in range(lat.n_vertices):
            assert {e: int(stars[v].x[e]) for e in np.flatnonzero(stars[v].x)} == {
                int(e): int(s) % 3 for e, s in zip(lat.star_edges[v], EDGE_SIGNS)}
            assert {e: int(plaqs[v].z[e]) for e in np.flatnonzero(plaqs[v].z)} == {
                int(e): int(s) % 3 for e, s in zip(lat.face_edges[v], EDGE_SIGNS)}

    @settings(max_examples=60, deadline=None)
    @given(
        d=st.integers(2, 7),
        lx=st.integers(2, 9),
        ly=st.integers(2, 9),
        seed=st.integers(0, 2 ** 32 - 1),
        p=st.sampled_from([0.05, 0.2, 1.0]),
    )
    def test_syndrome_and_correction_match_oracles(self, d, lx, ly, seed, p):
        lat = TorusLattice(lx, ly)
        rng = np.random.default_rng(seed)
        n = lat.n_edges
        x = np.where(rng.random(n) < p, rng.integers(1, d, n), 0)
        z = np.where(rng.random(n) < p, rng.integers(1, d, n), 0)
        error = PauliString(d, x, z, int(rng.integers(0, 2 * d)))
        syn = syndrome(lat, error)
        assert syn == syndrome_oracle(lat, error)
        assert correct(lat, syn) == correct_oracle(lat, syn)

    # lx or ly = 2 (and 32) puts partners at the half-way wrap tie; d > 2
    # leaves partners alive after a pairing
    @pytest.mark.parametrize("lx,ly,d,p", [
        (2, 2, 7, 1.0), (2, 31, 7, 0.3), (33, 2, 5, 0.3), (2, 17, 4, 1.0),
        (9, 2, 3, 0.6), (32, 2, 2, 0.2), (2, 32, 6, 0.1), (33, 31, 7, 0.004),
    ])
    def test_correction_matches_the_oracle_on_wide_and_thin_tori(self, lx, ly, d, p):
        lat = TorusLattice(lx, ly)
        n = lat.n_edges
        for seed in range(1 if lx * ly > 100 else 3):  # the oracle is slow at 33x31
            rng = np.random.default_rng([lx, ly, d, seed])
            x = np.where(rng.random(n) < p, rng.integers(1, d, n), 0)
            z = np.where(rng.random(n) < p, rng.integers(1, d, n), 0)
            syn = syndrome(lat, PauliString(d, x, z))
            assert correct(lat, syn) == correct_oracle(lat, syn), seed

    @pytest.mark.parametrize("block", [1, 250, 1000])
    def test_distance_blocks_do_not_change_the_pairing(self, monkeypatch, block):
        monkeypatch.setattr(toric, "_DISTANCE_BLOCK", block)  # 1, 4 or 16 rows of ~60
        lat = TorusLattice(10, 7)
        n = lat.n_edges
        for d, p in ((2, 0.15), (5, 0.2)):
            rng = np.random.default_rng([block, d])
            x = np.where(rng.random(n) < p, rng.integers(1, d, n), 0)
            z = np.where(rng.random(n) < p, rng.integers(1, d, n), 0)
            syn = syndrome(lat, PauliString(d, x, z))
            assert len(syn.vertex) + len(syn.face) > 40
            assert correct(lat, syn) == correct_oracle(lat, syn)

    def test_edge_rows_are_shared_per_shape(self):
        a, b = TorusLattice(5, 4), TorusLattice(5, 4)
        assert a.star_edges is b.star_edges and a.face_edges is b.face_edges
        assert not a.star_edges.flags.writeable and not a.face_edges.flags.writeable
        assert TorusLattice(4, 5).star_edges.shape == a.star_edges.shape
        assert not np.array_equal(TorusLattice(4, 5).star_edges, a.star_edges)

    @pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
    def test_component_rank_equals_dense_rank(self, p):
        for lx, ly in itertools.product(range(2, 9), repeat=2):
            lat = TorusLattice(lx, ly)
            for edges, block in zip((lat.star_edges, lat.face_edges), check_blocks(lat)):
                assert _incidence_rank(edges, lat.n_edges) == rank_mod_p(block, p), (lx, ly)

    @pytest.mark.parametrize("attr", ["star_edges", "face_edges"])
    @pytest.mark.parametrize("fault,message", [
        ("one row twice", "one row twice"),
        ("signs do not cancel", "opposite signs"),
        ("three rows", "exactly two rows"),
    ])
    def test_malformed_incidence_is_refused(self, attr, fault, message):
        lat = TorusLattice(3, 4)
        edges = getattr(lat, attr).copy()
        if fault == "one row twice":
            # trade row 0's -1 edge for the +1 edge's other (-1) occurrence
            other = np.flatnonzero(edges[:, 2] == edges[0, 0])[0]
            edges[[0, other], 2] = edges[[other, 0], 2]
        elif fault == "signs do not cancel":
            edges[0, [0, 2]] = edges[0, [2, 0]]
        else:
            edges[0, 0] = edges[1, 0]
        vars(lat)[attr] = edges  # the cached property's slot
        with pytest.raises(InvariantViolation, match=message):
            ground_space_dim(lat, 3)

    def test_lattice_edge_cap(self):
        assert TorusLattice(128, 128).n_edges == LATTICE_EDGE_CAP
        for lx, ly in [(400, 400), (129, 128)]:
            big = TorusLattice(lx, ly)
            with pytest.raises(ResourceError):
                ground_space_dim(big, 2)
            assert "star_edges" not in vars(big)  # refused before the arrays are built


def _counting(monkeypatch, name):
    """Replace ``toric.<name>`` by a wrapper that counts its calls."""
    calls = []
    inner = getattr(toric, name)

    def counted(*args):
        calls.append(args)
        return inner(*args)

    monkeypatch.setattr(toric, name, counted)
    return calls


class TestWorkCounts:
    """Each lattice structure is computed once per lattice object."""

    def test_one_toric_run_computes_one_overlap(self, monkeypatch):
        from anyons.cli import run

        calls = _counting(monkeypatch, "_star_face_overlaps")
        res = run(["toric", "--lx", "3", "--ly", "3", "--d", "3"])
        assert res.status == 0 and res.payload["stabilizers_commute"] is True
        assert len(calls) == 1

    def test_one_rank_pass_per_ground_space_dim(self, monkeypatch):
        calls = _counting(monkeypatch, "_incidence_rank")
        lat = TorusLattice(4, 3)
        assert ground_space_dim(lat, 3) == 9
        assert len(calls) == 1
        edges, n_edges = calls[0]
        assert n_edges == 2 * lat.n_edges and len(edges) == 2 * lat.n_vertices

    def test_each_lattice_object_computes_its_own_overlap(self, monkeypatch):
        calls = _counting(monkeypatch, "_star_face_overlaps")
        a, b = TorusLattice(3, 3), TorusLattice(3, 3)
        for lat in (a, b, a, b):
            lat.validate()
            assert stabilizers_commute(lat, 5)
        assert len(calls) == 2
        assert a.star_face_overlap[1] is not b.star_face_overlap[1]

    def test_held_overlap_is_read_only(self):
        lat = TorusLattice(3, 4)
        expected = _star_face_overlaps(lat, EDGE_SIGNS, EDGE_SIGNS)
        for held, fresh in zip(lat.star_face_overlap, expected):
            assert np.array_equal(held, fresh) and not held.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                held[0, 0] = 0


class TestGroundSpaceDim:
    @pytest.mark.parametrize("lx,ly", [(2, 2), (3, 3), (4, 3), (6, 6)])
    def test_qubit_degeneracy_four(self, lx, ly):
        assert ground_space_dim(TorusLattice(lx, ly), 2) == 4

    @pytest.mark.parametrize("d", [3, 5])
    @pytest.mark.parametrize("lx,ly", [(2, 2), (3, 3)])
    def test_qudit_degeneracy(self, lx, ly, d):
        assert ground_space_dim(TorusLattice(lx, ly), d) == d ** 2

    def test_non_prime_rejected(self):
        with pytest.raises(InputError):
            ground_space_dim(TorusLattice(2, 2), 4)

    @pytest.mark.parametrize("d", [PRIME_TEST_CAP, 2 ** 61 - 1, 2 ** 127 - 1])
    def test_d_over_the_prime_test_cap_refused_at_once(self, d):
        # trial division of the Mersenne prime 2^61 - 1 would take minutes
        start = time.perf_counter()
        with pytest.raises(ResourceError, match="prime-test cap"):
            ground_space_dim(TorusLattice(2, 2), d)
        assert time.perf_counter() - start < 0.1

    def test_largest_d_under_the_prime_test_cap(self):
        # 2^31 - 1 is prime: the full trial division runs
        assert ground_space_dim(TorusLattice(2, 2), PRIME_TEST_CAP - 1) == (PRIME_TEST_CAP - 1) ** 2

    @pytest.mark.parametrize("d", [2, 3])
    def test_largest_lattice_admitted(self, d):
        assert ground_space_dim(TorusLattice(128, 128), d) == d ** 2

    def test_memory_is_linear_in_the_lattice(self):
        # dense blocks and one working copy would take 48 (lx*ly)^2 bytes, 12 GB here
        tracemalloc.start()
        try:
            ground_space_dim(TorusLattice(128, 128), 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2 ** 20


class TestStrings:
    def test_single_edge_charge_defects(self):
        lat = TorusLattice(4, 4)
        op = charge_string(lat, [(0, 0), (1, 0)])
        syn = syndrome(lat, op)
        assert set(syn.vertex) == {lat.vertex_index(0, 0), lat.vertex_index(1, 0)}
        assert syn.face == {}

    def test_open_string_two_defects_only(self):
        lat = TorusLattice(5, 5)
        for kind, builder in (("charge", charge_string), ("flux", flux_string)):
            op = builder(lat, [(0, 0), (1, 0), (2, 0), (2, 1)])
            syn = syndrome(lat, op)
            defects = syn.vertex if kind == "charge" else syn.face
            others = syn.face if kind == "charge" else syn.vertex
            assert len(defects) == 2 and not others

    def test_qudit_endpoint_exponents(self):
        lat = TorusLattice(4, 4)
        op = string_operator(lat, [(0, 0), (1, 0), (2, 0)], "charge", 2, 3)
        syn = syndrome(lat, op)
        assert sorted(syn.vertex.values()) == [1, 2]  # +2 and -2 mod 3

    def test_closed_contractible_loop_is_stabilizer_product(self):
        lat = TorusLattice(4, 4)
        ring = [(1, 1), (2, 1), (2, 2), (1, 2), (1, 1)]
        loop = charge_string(lat, ring)
        assert syndrome(lat, loop).is_empty()
        # counterclockwise unit charge loop = the plaquette it encloses
        _, plaqs = build_stabilizers(lat, 2)
        assert loop == plaqs[lat.vertex_index(1, 1)]

    def test_flux_loop_is_star(self):
        lat = TorusLattice(4, 4)
        dual_ring = [(1, 1), (2, 1), (2, 2), (1, 2), (1, 1)]
        loop = flux_string(lat, dual_ring)
        stars, _ = build_stabilizers(lat, 2)
        assert loop == stars[lat.vertex_index(2, 2)]

    def test_disconnected_path_rejected(self):
        # two connected pieces with a jump from (1, 0) to (2, 2) between them
        lat = TorusLattice(4, 4)
        for kind, points in (("charge", "vertices"), ("flux", "faces")):
            with pytest.raises(InputError, match=rf"{points} \(1, 0\) and \(2, 2\) are not adjacent"):
                string_operator(lat, [(0, 0), (1, 0), (2, 2), (2, 3)], kind, 1, 2)

    def test_non_adjacent_vertices_rejected(self):
        lat = TorusLattice(4, 4)
        for path in ([(0, 0), (2, 0)], [(0, 0), (0, 0)], [(0, 0), (1, 1)]):
            with pytest.raises(InputError, match="vertices .* not adjacent"):
                string_operator(lat, path, "charge", 1, 2)

    def test_non_adjacent_faces_rejected(self):
        lat = TorusLattice(4, 4)
        for path in ([(0, 0), (0, 2)], [(3, 3), (-1, 3)], [(0, 0), (3, 1)]):
            with pytest.raises(InputError, match="faces .* not adjacent"):
                string_operator(lat, path, "flux", 1, 2)

    def test_unknown_kind_rejected(self):
        with pytest.raises(InputError, match="kind"):
            string_operator(TorusLattice(3, 3), [(0, 0), (1, 0)], "dyon", 1, 2)

    @pytest.mark.parametrize("lx,ly", [(3, 3), (3, 5), (4, 3), (6, 4)])
    def test_matches_the_edge_search_oracle(self, lx, ly):
        lat = TorusLattice(lx, ly)
        rng = np.random.default_rng(lx * 10 + ly)
        for _ in range(40):
            x, y = rng.integers(-10, 10, 2).tolist()
            path = [(x, y)]
            for _ in range(int(rng.integers(0, 12))):
                dx, dy = ((1, 0), (-1, 0), (0, 1), (0, -1))[rng.integers(4)]
                x, y = x + dx, y + dy
                # the same point, written with a random wrap
                path.append((x + lx * int(rng.integers(-2, 3)), y + ly * int(rng.integers(-2, 3))))
            r, d = int(rng.integers(-20, 20)), int(rng.choice([2, 3, 5, 7]))
            for kind in ("charge", "flux"):
                assert (string_operator(lat, path, kind, r, d)
                        == string_operator_oracle(lat, path, kind, r, d)), (path, kind)

    def test_a_side_of_two_reads_each_step_as_forward(self):
        # on a side of 2 both neighbours along it are one step ahead, and
        # two edges join the same pair of points: the step takes the edge
        # of a forward step
        lat = TorusLattice(2, 3)
        zeros = np.zeros(lat.n_edges, dtype=np.int64)

        def unit(*edges):
            out = zeros.copy()
            for edge, sign in edges:
                out[edge] += sign
            return out % 3

        cases = [
            ("charge", [(0, 0), (1, 0)], unit((lat.h_edge(0, 0), 1))),
            ("charge", [(1, 0), (0, 0)], unit((lat.h_edge(1, 0), 1))),
            ("charge", [(1, 2), (2, 2)], unit((lat.h_edge(1, 2), 1))),
            ("flux", [(0, 0), (1, 0)], unit((lat.v_edge(1, 0), -1))),
            ("flux", [(1, 0), (0, 0)], unit((lat.v_edge(0, 0), -1))),
            ("flux", [(1, 1), (0, 4)], unit((lat.v_edge(0, 1), -1))),
        ]
        for kind, path, exponents in cases:
            op = string_operator(lat, path, kind, 1, 3)
            assert np.array_equal(op.x if kind == "flux" else op.z, exponents), (kind, path)
            assert not (op.z if kind == "flux" else op.x).any()
        # so there and back again winds once around the side of 2
        loop = string_operator(lat, [(0, 0), (1, 0), (0, 0)], "charge", 1, 3)
        assert homology_class(lat, loop)["charge"] == (1, 0)


class TestSyndromeAndCorrection:
    def test_identity_has_empty_syndrome(self):
        lat = TorusLattice(3, 3)
        one = PauliString(2, [0] * lat.n_edges, [0] * lat.n_edges)
        syn = syndrome(lat, one)
        assert syn.is_empty()
        assert correct(lat, syn) == one

    def test_noncontractible_loop_empty_syndrome_nontrivial_class(self):
        lat = TorusLattice(5, 5)
        loop = charge_string(lat, [(x, 0) for x in range(5)] + [(0, 0)])
        syn = syndrome(lat, loop)
        assert syn.is_empty()
        assert homology_class(lat, loop)["charge"] == (1, 0)

    def test_noncontractible_dual_loop_is_logical(self):
        lat = TorusLattice(5, 5)
        loop = flux_string(lat, [(x, 1) for x in range(5)] + [(0, 1)])
        assert syndrome(lat, loop).is_empty()
        cls = homology_class(lat, loop)
        assert cls["flux"] != (0, 0) and cls["charge"] == (0, 0)

    def test_adjacent_pair_single_edge_correction(self):
        lat = TorusLattice(5, 5)
        error = charge_string(lat, [(1, 1), (2, 1)])
        syn = syndrome(lat, error)
        corr = correct(lat, syn)
        composite = error * corr
        assert syndrome(lat, composite).is_empty()
        assert homology_class(lat, composite)["charge"] == (0, 0)

    @pytest.mark.parametrize("d", [2, 3])
    def test_random_errors_corrected(self, d):
        lat = TorusLattice(5, 5)
        rng = np.random.default_rng(d)
        for _ in range(25):
            x = rng.integers(0, d, size=lat.n_edges)
            z = rng.integers(0, d, size=lat.n_edges)
            mask = rng.random(lat.n_edges) < 3.0 / lat.n_edges
            error = PauliString(d, x * mask, z * mask)
            syn = syndrome(lat, error)
            corr = correct(lat, syn)
            assert syndrome(lat, error * corr).is_empty()

    def test_long_string_becomes_logical_error(self):
        lat = TorusLattice(5, 5)
        error = charge_string(lat, [(x, 0) for x in range(4)])  # length 4 > 5/2
        syn = syndrome(lat, error)
        corr = correct(lat, syn)
        composite = error * corr
        assert syndrome(lat, composite).is_empty()
        assert homology_class(lat, composite)["charge"] == (1, 0)

    def test_sum_rule_enforced(self):
        lat = TorusLattice(3, 3)
        with pytest.raises(InputError):
            correct(lat, Syndrome(2, {0: 1}, {}))

    @pytest.mark.parametrize("d", [0, 1, -2])
    def test_dimension_below_two_refused(self, d):
        with pytest.raises(InputError, match="dimension"):
            Syndrome(d, {1: 1}, {})

    @pytest.mark.parametrize("vertex,face", [
        ({-3: 1, 0: 1}, {}), ({0: 1, 10 ** 6: 1}, {}), ({}, {16: 1, 0: 1}), ({}, {-1: 1, 15: 1}),
    ])
    def test_defects_off_the_lattice_refused(self, vertex, face):
        with pytest.raises(InputError, match="outside"):
            correct(TorusLattice(4, 4), Syndrome(2, vertex, face))

    def test_correction_memory_is_linear_in_the_defects(self):
        # all distances of the ~16,000 defects at once would take 2 GB
        lat = TorusLattice(128, 128)
        rng = np.random.default_rng(1)
        n = lat.n_edges
        error = PauliString(2, rng.random(n) < 0.3, rng.random(n) < 0.3)
        syn = syndrome(lat, error)
        assert len(syn.vertex) + len(syn.face) > 15_000
        tracemalloc.start()
        try:
            corr = correct(lat, syn)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2 ** 20
        assert syndrome(lat, error * corr).is_empty()

    def test_homology_requires_closed(self):
        lat = TorusLattice(4, 4)
        with pytest.raises(InputError):
            homology_class(lat, charge_string(lat, [(0, 0), (1, 0)]))

    def test_power_d_trivializes_winding(self):
        lat = TorusLattice(4, 4)
        d = 3
        loop = string_operator(lat, [(x, 0) for x in range(4)] + [(0, 0)], "charge", 1, d)
        assert homology_class(lat, loop)["charge"] == (1, 0)
        assert homology_class(lat, loop * loop * loop)["charge"] == (0, 0)  # loop^d


class TestDyonBraiding:
    def test_qubit_charge_around_flux_is_minus_one(self):
        phi = dyon_braiding_phase(2, (1, 0), (0, 1))
        assert phi == 2  # exponent 2 in units of pi/2: U = exp(i pi) = -1

    def test_vacuum_partner_trivial(self):
        for d in (2, 3):
            assert dyon_braiding_phase(d, (1, 1), (0, 0)) == 0

    def test_d3_example(self):
        # 2 pi/3 (1*1 + 2*2) = 10 pi/3 = 4 pi/3: exponent 4 in pi/3 units
        assert dyon_braiding_phase(3, (1, 2), (2, 1)) == 4

    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_composition_matches_closed_form_everywhere(self, d):
        for r, s, rp, sp in itertools.product(range(d), repeat=4):
            phi = dyon_braiding_phase(d, (r, s), (rp, sp))
            assert phi == (2 * (r * sp + s * rp)) % (2 * d)

    def test_symmetric_in_the_two_dyons(self):
        for d in (2, 3):
            for r, s, rp, sp in itertools.product(range(d), repeat=4):
                assert dyon_braiding_phase(d, (r, s), (rp, sp)) == dyon_braiding_phase(
                    d, (rp, sp), (r, s)
                )


class TestBraidingTable:
    @pytest.mark.parametrize("d", [2, 3, 5, 7])
    def test_matches_the_per_entry_composition(self, d):
        assert braiding_table(d) == braiding_table_oracle(d)

    @pytest.mark.parametrize("d", range(2, 14))
    def test_equals_the_closed_form(self, d):
        q = np.arange(d)
        r, s, rp, sp = np.ix_(q, q, q, q)
        assert braiding_table(d) == (2 * (r * sp + s * rp) % (2 * d)).tolist()

    def test_four_unit_strings_and_one_composition(self, monkeypatch):
        strings, checked = [], []
        original_string, original_check = toric.string_operator, toric._closed_form_checked
        monkeypatch.setattr(toric, "string_operator",
                            lambda *args: strings.append(args[2:]) or original_string(*args))
        monkeypatch.setattr(toric, "_closed_form_checked", lambda d, phi, a, b: (
            checked.append((a, b)) or original_check(d, phi, a, b)))
        monkeypatch.setattr(toric, "dyon_braiding_phase", None)  # any call fails
        braiding_table(5)
        # the four unit strings, built once: the four unit pairs, then the
        # (1, 1)-around-(1, 1) check composes the same strings
        assert strings == [("charge", 1, 5), ("flux", 1, 5)] * 2
        units = ((1, 0), (0, 1))
        assert checked == [(a, b) for a in units for b in units] + [((1, 1), (1, 1))]

    def test_table_against_the_composition(self, monkeypatch):
        # a bilinear extension that disagrees with the explicit composition raises
        original = toric._closed_form_checked
        monkeypatch.setattr(toric, "_closed_form_checked", lambda d, phi, a, b: (
            original(d, phi, a, b) + (a == b == (1, 1))))
        with pytest.raises(InvariantViolation, match="composition"):
            braiding_table(3)

    def test_unit_composition_against_the_closed_form(self, monkeypatch):
        # a unit phase that disagrees with 2 (r s' + s r') still raises
        original = toric.commutation_phase
        monkeypatch.setattr(toric, "commutation_phase", lambda p, q: original(p, q) + 2)
        with pytest.raises(InvariantViolation, match="closed form"):
            braiding_table(3)

    def test_refusals_before_any_composition(self, monkeypatch):
        monkeypatch.setattr(toric, "_dyon_strings", None)  # any call fails
        with pytest.raises(InputError):
            braiding_table(1)
        assert 13 ** 4 <= BRAIDING_TABLE_CAP < 14 ** 4
        with pytest.raises(ResourceError, match=f"has {14 ** 4} entries"):
            braiding_table(14)


class TestGroundState:
    def test_2x2_stabilized(self):
        lat = TorusLattice(2, 2)
        psi = ground_state(lat)
        assert psi.shape == (256,)
        stars, plaqs = build_stabilizers(lat, 2)
        for op in stars + plaqs:
            assert expectation(op, psi) == pytest.approx(1.0, abs=1e-12)

    def test_contractible_loops_act_trivially(self):
        lat = TorusLattice(3, 3)
        psi = ground_state(lat)
        x_loop = flux_string(lat, [(1, 1), (2, 1), (2, 2), (1, 2), (1, 1)])
        z_loop = charge_string(lat, [(1, 1), (2, 1), (2, 2), (1, 2), (1, 1)])
        assert expectation(x_loop, psi) == pytest.approx(1.0, abs=1e-12)
        assert expectation(z_loop, psi) == pytest.approx(1.0, abs=1e-12)

    def test_noncontractible_loop_expectation_in_range(self):
        lat = TorusLattice(3, 3)
        psi = ground_state(lat)
        loop = flux_string(lat, [(x, 0) for x in range(3)] + [(0, 0)])
        value = expectation(loop, psi).real
        assert -1.0 <= value <= 1.0

    def test_cap(self):
        with pytest.raises(ResourceError):
            ground_state(TorusLattice(4, 4))  # 32 qubits > 20

    def test_d_restriction(self):
        with pytest.raises(InputError):
            ground_state(TorusLattice(2, 2), d=3)


class TestInterferometer:
    def test_beta_quarter_pi(self):
        lat = TorusLattice(3, 3)
        no_braid = interferometer_run(lat, braid=False, beta=math.pi / 4)
        braided = interferometer_run(lat, braid=True, beta=math.pi / 4)
        assert no_braid == pytest.approx(math.sqrt(2) / 2, abs=1e-9)
        assert braided == pytest.approx(-math.sqrt(2) / 2, abs=1e-9)
        assert extract_mutual_statistics(braided, no_braid) == math.pi

    def test_beta_zero_degenerate(self):
        lat = TorusLattice(2, 2)
        assert interferometer_run(lat, braid=False, beta=0.0) == pytest.approx(0.0, abs=1e-12)
        assert interferometer_run(lat, braid=True, beta=0.0) == pytest.approx(0.0, abs=1e-12)

    def test_sine_curve(self):
        lat = TorusLattice(2, 2)
        for beta in (0.3, 1.1, 2.0):
            assert interferometer_run(lat, braid=False, beta=beta) == pytest.approx(
                math.sin(beta), abs=1e-9
            )
            assert interferometer_run(lat, braid=True, beta=beta) == pytest.approx(
                math.sin(beta + math.pi), abs=1e-9
            )

    def test_reference_vertex_matches_the_oracle(self):
        rng = np.random.default_rng(23)
        for lx in range(2, 14):
            for ly in range(2, 14):
                lat = TorusLattice(lx, ly)
                for edge in {lat.h_edge(0, 0), *rng.integers(0, lat.n_edges, 4).tolist()}:
                    ends = edge_endpoints(lat, edge)
                    far = _vertex_far_from(lat, *ends)
                    assert far == vertex_far_from_oracle(lat, *ends) and far not in ends
                avoid = rng.integers(0, lat.n_vertices, 3).tolist()
                assert _vertex_far_from(lat, *avoid) == vertex_far_from_oracle(lat, *avoid)

    def test_two_vanishing_runs_cannot_resolve_the_statistics(self):
        lat = TorusLattice(3, 3)
        runs = [interferometer_run(lat, braid, 0.0) for braid in (True, False)]
        assert runs == [0.0, 0.0]
        for braided, reference in (runs, (-0.0, 0.0), (0.0, -0.0)):
            with pytest.raises(InputError):
                extract_mutual_statistics(braided, reference)
        for beta in (math.pi, 1e-13):  # tiny runs still carry their signs
            braided, reference = (interferometer_run(lat, braid, beta) for braid in (True, False))
            assert braided != 0 and extract_mutual_statistics(braided, reference) == math.pi

    def test_work_per_run(self, monkeypatch):
        """A run computes each generator once: no syndrome and no Pauli string
        per term pair (the pair loop makes 64 and 214)."""
        calls = {"syndrome": 0, "pauli": 0}
        syndrome_, post_init = toric.syndrome, PauliString.__post_init__

        def counted_syndrome(*args):
            calls["syndrome"] += 1
            return syndrome_(*args)

        def counted_post_init(self):
            calls["pauli"] += 1
            post_init(self)

        monkeypatch.setattr(toric, "syndrome", counted_syndrome)
        monkeypatch.setattr(PauliString, "__post_init__", counted_post_init)
        for size in (3, 32):
            for braid in (True, False):
                calls.update(syndrome=0, pauli=0)
                interferometer_run(TorusLattice(size, size), braid, 0.3)
                assert calls["syndrome"] <= 4 and calls["pauli"] <= 4, (size, braid, calls)

    def test_non_finite_beta_rejected(self):
        with pytest.raises(InputError):
            interferometer_run(TorusLattice(2, 2), braid=True, beta=float("nan"))

    def test_edge_cap_refuses_before_building(self):
        big = TorusLattice(10 ** 6, 10 ** 6)
        with pytest.raises(ResourceError):
            interferometer_run(big, braid=True, beta=0.5)
        assert "star_edges" not in vars(big)  # the cached index arrays were never built
        assert TorusLattice(128, 128).n_edges == LATTICE_EDGE_CAP


class TestCodeStateExpectation:
    def test_matches_dense_expectation(self):
        lat = TorusLattice(3, 3)
        n = lat.n_edges
        psi = ground_state(lat)
        stars, plaqs = build_stabilizers(lat, 2)
        around_x = [(x, 0) for x in range(3)] + [(0, 0)]
        around_y = [(0, y) for y in range(3)] + [(0, 0)]
        charge_loops = [charge_string(lat, around_x), charge_string(lat, around_y)]
        flux_loops = [flux_string(lat, around_x), flux_string(lat, around_y)]
        rng = np.random.default_rng(6)
        values = []
        for _ in range(320):
            op = PauliString(2, _zeros(lat), _zeros(lat), int(rng.integers(4)))
            for g in stars + plaqs + charge_loops:
                if rng.random() < 0.5:
                    op = op * g
            for g in flux_loops:
                if rng.random() < 0.2:
                    op = op * g
            if rng.random() < 0.4:  # noise on one or two edges
                edges = rng.choice(n, size=int(rng.integers(1, 3)), replace=False)
                x, z = _zeros(lat), _zeros(lat)
                x[edges] = rng.integers(0, 2, len(edges))
                z[edges] = rng.integers(0, 2, len(edges))
                op = op * PauliString(2, x, z)
            value = code_state_expectation(lat, op)
            assert abs(value - expectation(op, psi)) < 1e-12
            values.append(value)
        assert sum(v != 0 for v in values) >= 100
        assert sum(v == 0 for v in values) >= 100
        assert {v for v in values if v} == {1, -1, 1j, -1j}


SMALL_LATTICES = [(lx, ly) for lx in range(2, 6) for ly in range(2, 6) if 2 * lx * ly <= 20]


@functools.cache
def _dense_ground_state(lx, ly):
    return ground_state(TorusLattice(lx, ly))


PAIR_ORACLE_BETAS = (0.0, -0.0, 0.3, 0.785398, 1.2, 2.0, math.pi, -1.0, 1e-300, 1e6)


class TestInterferometerAgainstPairOracle:
    """The subset arithmetic gives the pair loop's float bit for bit: same
    terms, same coefficient products, same summation order."""

    @pytest.mark.parametrize("lx,ly", [(2, 2), (3, 3), (2, 5), (4, 7), (8, 8), (16, 16), (32, 32)])
    def test_same_bytes_on_the_beta_grid(self, lx, ly):
        lat = TorusLattice(lx, ly)
        for beta in PAIR_ORACLE_BETAS:
            for braid in (True, False):
                assert repr(interferometer_run(lat, braid, beta)) == repr(
                    interferometer_pairs_oracle(lat, braid, beta)), (beta, braid)

    @pytest.mark.parametrize("lx,ly", [(3, 3), (4, 7)])
    @settings(max_examples=40, deadline=None)
    @given(beta=st.floats(allow_nan=False, allow_infinity=False), braid=st.booleans())
    def test_same_bytes_on_any_finite_beta(self, lx, ly, beta, braid):
        lat = TorusLattice(lx, ly)
        assert repr(interferometer_run(lat, braid, beta)) == repr(
            interferometer_pairs_oracle(lat, braid, beta))

    def test_same_bytes_at_the_edge_cap(self):
        lat = TorusLattice(128, 128)
        for braid in (True, False):
            assert repr(interferometer_run(lat, braid, 0.785398)) == repr(
                interferometer_pairs_oracle(lat, braid, 0.785398))


class TestInterferometerAgainstOracle:
    @pytest.mark.parametrize("lx,ly", SMALL_LATTICES)
    @settings(max_examples=12, deadline=None)
    @given(beta=st.floats(-math.pi, math.pi), braid=st.booleans())
    def test_matches_dense_oracle(self, lx, ly, beta, braid):
        lat = TorusLattice(lx, ly)
        value = interferometer_run(lat, braid, beta)
        dense = interferometer_oracle(lat, braid, beta, psi=_dense_ground_state(lx, ly))
        assert abs(value - dense) < 1e-12
        assert abs(value - math.sin(beta + math.pi * braid)) < 1e-12


class TestHoneycomb:
    def test_phase_boundary(self):
        assert honeycomb_phase(1, 1, 1) == "gapless"
        assert honeycomb_phase(1, 0, 0) == "gapped"
        assert honeycomb_phase(0, 0, 0) == "gapless"
        assert honeycomb_phase(1, 1, 2) == "gapless"  # equality counts as gapless
        assert honeycomb_phase(1, 1, 2.01) == "gapped"

    def test_effective_coupling(self):
        assert honeycomb_effective_coupling(1, 1, 4) == pytest.approx(1 / 1024)
        assert honeycomb_effective_coupling(2, 2, 2) == pytest.approx(1 / 8)
        assert honeycomb_effective_coupling(0, 1, 1) == 0.0
        assert honeycomb_effective_coupling(1, 1, -2) == pytest.approx(1 / 128)

    def test_jz_zero_rejected(self):
        with pytest.raises(InputError):
            honeycomb_effective_coupling(1, 1, 0)


class TestWenModelEquivalence:
    """Single-qubit basis change mapping Y Z Y Z diamond terms onto the
    toric-code stars and plaquettes on a 2x2 torus."""

    def _diamond_terms(self, lat):
        y = lambda e: PauliString(2, _one_hot(lat, e), _one_hot(lat, e), phase=1)
        z = lambda e: PauliString(2, _zeros(lat), _one_hot(lat, e))
        vertex_terms = []
        for vy in range(lat.ly):
            for vx in range(lat.lx):
                # horizontal neighbours get Y, vertical neighbours get Z
                term = (
                    y(lat.h_edge(vx - 1, vy))
                    * y(lat.h_edge(vx, vy))
                    * z(lat.v_edge(vx, vy))
                    * z(lat.v_edge(vx, vy - 1))
                )
                vertex_terms.append(term)
        face_terms = []
        for fy in range(lat.ly):
            for fx in range(lat.lx):
                term = (
                    y(lat.v_edge(fx, fy))
                    * y(lat.v_edge(fx + 1, fy))
                    * z(lat.h_edge(fx, fy))
                    * z(lat.h_edge(fx, fy + 1))
                )
                face_terms.append(term)
        return vertex_terms, face_terms

    def test_basis_change_to_surface_code(self):
        lat = TorusLattice(2, 2)
        wen_vertex, wen_face = self._diamond_terms(lat)
        stars, plaqs = build_stabilizers(lat, 2)

        # u_h = S^dag maps (X, Y, Z) -> (-Y, X, Z); u_v cycles (X, Y, Z) -> (Y, Z, X)
        u_h = np.diag([1.0, -1.0j])
        axis = (np.array([[0, 1], [1, 0]]) + np.array([[0, -1j], [1j, 0]])
                + np.diag([1.0, -1.0])) / np.sqrt(3)
        u_v = np.cos(np.pi / 3) * np.eye(2) - 1j * np.sin(np.pi / 3) * axis
        xmat = np.array([[0, 1], [1, 0]], dtype=complex)
        if not np.allclose(u_v @ np.diag([1.0, -1.0]) @ u_v.conj().T, xmat):
            u_v = u_v.conj().T
        assert np.allclose(u_v @ np.diag([1.0, -1.0]) @ u_v.conj().T, xmat, atol=1e-12)

        n_h = lat.lx * lat.ly
        factors = [u_h] * n_h + [u_v] * n_h
        big_u = np.eye(1, dtype=complex)
        for f in reversed(factors):  # site 0 least significant, as in pauli_dense()
            big_u = np.kron(big_u, f)

        for wen, target in zip(wen_vertex + wen_face, stars + plaqs):
            mapped = big_u @ pauli_dense(wen) @ big_u.conj().T
            assert np.allclose(mapped, pauli_dense(target), atol=1e-10)


def _zeros(lat):
    return np.zeros(lat.n_edges, dtype=np.int64)


def _one_hot(lat, e):
    v = np.zeros(lat.n_edges, dtype=np.int64)
    v[e] = 1
    return v
