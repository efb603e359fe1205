"""F/R symbol data, consistency residuals, admissibility."""

import hashlib
import itertools
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anyons import cli, fsymbols
from anyons.errors import CompletenessError, InputError, InvariantViolation, ResourceError
from anyons.fsymbols import (
    FIB_F1111,
    PENTAGON_TUPLE_CAP,
    FSymbolTable,
    RSymbolTable,
    f_unitarity_residual,
    fibonacci_data,
    gauge_transform,
    hexagon_residual,
    pentagon_residual,
    su2k_admissible,
    trivial_data,
)
from anyons.fusion import AnyonModel, fibonacci_model, named_model, toric_model, zd_model
from oracles import f_admissible, f_unitarity_oracle, hexagon_oracle, pentagon_oracle

PHI = (1 + math.sqrt(5)) / 2


def su2k_model(k: int) -> AnyonModel:
    """SU(2)_k fusion rules; label ``n`` is twice the spin."""
    labels = tuple(range(k + 1))
    fusion = {
        (a, b, c): 1
        for a, b, c in itertools.product(labels, repeat=3)
        if su2k_admissible(a / 2, b / 2, c / 2, k)
    }
    return AnyonModel(labels, 0, {a: a for a in labels}, fusion, name=f"su2_{k}")


def ising_model() -> AnyonModel:
    """Ising fusion rules: sigma x sigma = 1 + psi, sigma x psi = sigma, psi x psi = 1."""
    labels = ("1", "sigma", "psi")
    products = {("sigma", "sigma"): ("1", "psi"), ("sigma", "psi"): ("sigma",),
                ("psi", "psi"): ("1",)}
    fusion = {}
    for x in labels:
        fusion[("1", x, x)] = fusion[(x, "1", x)] = 1
    for (x, y), outcomes in products.items():
        for z in outcomes:
            fusion[(x, y, z)] = fusion[(y, x, z)] = 1
    return AnyonModel(labels, "1", {x: x for x in labels}, fusion, name="ising")


ORACLE_MODELS = [fibonacci_model(), toric_model(), *(zd_model(d) for d in range(1, 7)),
                 ising_model(), *(su2k_model(k) for k in (2, 3, 4))]


def product_scan(model):
    """Admissible F keys and allowed R keys by scanning the full label product."""
    f_keys = [t for t in itertools.product(model.labels, repeat=6) if f_admissible(model, *t)]
    r_keys = [t for t in itertools.product(model.labels, repeat=3) if model.n(*t)]
    return f_keys, r_keys


def random_tables(model, seed: int, scale: float = 1.0):
    """Random complex values on every admissible F entry and allowed R entry."""
    f_keys, r_keys = product_scan(model)
    z = scale * np.random.default_rng(seed).standard_normal((len(f_keys) + len(r_keys), 2))
    values = (z @ [1, 1j]).tolist()
    return (FSymbolTable(model, dict(zip(f_keys, values))),
            RSymbolTable(model, dict(zip(r_keys, values[len(f_keys):]))))


def outcome(fn, *args):
    """A residual, or the type of the package error it raised."""
    try:
        return fn(*args)
    except InvariantViolation as exc:
        return type(exc)


def assert_matches(got, want):
    if isinstance(want, type):
        assert got is want
    else:
        assert abs(got - want) <= 1e-12 * max(1.0, want), (got, want)


@pytest.fixture(scope="module")
def fib_data():
    return fibonacci_data()


def clear_table_caches():
    """Forget the cached built-in tables and F/R structures, so that the next
    build enumerates."""
    fibonacci_data.cache_clear()
    cli._builtin_fr_data.cache_clear()
    fsymbols._structure.cache_clear()


@pytest.fixture
def uncached_tables():
    """For a test that patches how tables are built: it starts from no cached
    table and leaves none of its own behind, so no result depends on test
    order."""
    clear_table_caches()
    yield
    clear_table_caches()


class TestFibonacciValues:
    def test_f_matrix_block(self, fib_data):
        _, f, _ = fib_data
        assert f.entries[1, 1, 1, 1, 0, 0] == pytest.approx(1 / PHI)
        assert f.entries[1, 1, 1, 1, 0, 1] == pytest.approx(1 / math.sqrt(PHI))
        assert f.entries[1, 1, 1, 1, 1, 0] == pytest.approx(1 / math.sqrt(PHI))
        assert f.entries[1, 1, 1, 1, 1, 1] == pytest.approx(-1 / PHI)

    def test_one_dimensional_entries(self, fib_data):
        _, f, _ = fib_data
        assert f.entries[0, 0, 0, 0, 0, 0] == 1
        assert f.entries[1, 1, 0, 1, 1, 1] == 1
        assert f.entries[0, 1, 1, 1, 1, 1] == 1
        assert f.entries[1, 1, 1, 0, 1, 1] == 1
        assert f.entries[1, 0, 1, 1, 1, 1] == 1

    def test_r_values(self, fib_data):
        _, _, r = fib_data
        assert r.entries[1, 1, 0] == pytest.approx(np.exp(4j * np.pi / 5))
        assert r.entries[1, 1, 1] == pytest.approx(-np.exp(2j * np.pi / 5))
        assert r.entries[0, 0, 0] == 1 and r.entries[0, 1, 1] == 1

    def test_non_admissible_is_zero(self, fib_data):
        # a zero F or R symbol is one the table does not hold
        _, f, r = fib_data
        assert (0, 0, 0, 1, 0, 0) not in f.entries
        assert (1, 1, 1, 1, 0, 2) not in f.entries  # unknown label never admissible
        assert (0, 1, 0) not in r.entries and (1, 1, 2) not in r.entries

    def test_block(self, fib_data):
        _, f, _ = fib_data
        rows, cols, mat = f.block(1, 1, 1, 1)
        assert rows == cols == [0, 1]
        np.testing.assert_array_equal(mat, FIB_F1111)
        rows, cols, mat = f.block(0, 0, 0, 1)
        assert rows == cols == [] and mat.shape == (0, 0)
        with pytest.raises(InputError, match="unknown label 2"):
            f.block(1, 1, 1, 2)

    def test_unit_modulus_r(self, fib_data):
        _, _, r = fib_data
        assert all(abs(abs(v) - 1) < 1e-12 for v in r.entries.values())


class TestResiduals:
    def test_pentagon_fibonacci(self, fib_data):
        model, f, _ = fib_data
        assert pentagon_residual(model, f) < 1e-12

    def test_hexagon_fibonacci(self, fib_data):
        model, f, r = fib_data
        assert hexagon_residual(model, f, r) < 1e-12

    def test_unitarity_fibonacci(self, fib_data):
        model, f, _ = fib_data
        assert f_unitarity_residual(model, f) < 1e-12

    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_abelian_trivial_exact_zero(self, d):
        model = zd_model(d)
        f, r = trivial_data(model)
        assert pentagon_residual(model, f) == 0.0
        assert hexagon_residual(model, f, r) == 0.0

    def test_toric_trivial_exact_zero(self):
        model = toric_model()
        f, r = trivial_data(model)
        assert pentagon_residual(model, f) == 0.0
        assert hexagon_residual(model, f, r) == 0.0

    def test_trivial_single_label_model(self):
        model = AnyonModel((0,), 0, {0: 0}, {(0, 0, 0): 1})
        f, r = trivial_data(model)
        assert pentagon_residual(model, f) == 0.0
        assert hexagon_residual(model, f, r) == 0.0
        assert f_unitarity_residual(model, f) == 0.0

    def test_perturbed_pentagon_blows_up(self, fib_data):
        model, f, _ = fib_data
        entries = dict(f.entries)
        entries[(1, 1, 1, 1, 0, 0)] += 0.01
        assert pentagon_residual(model, FSymbolTable(model, entries)) > 1e-3

    def test_conjugated_r_breaks_hexagon(self, fib_data):
        model, f, r = fib_data
        entries = dict(r.entries)
        entries[(1, 1, 0)] = np.conj(entries[(1, 1, 0)])
        assert hexagon_residual(model, f, RSymbolTable(model, entries)) > 1e-3

    def test_scaled_block_unitarity(self, fib_data):
        model, f, _ = fib_data
        entries = {
            k: (v * 1.1 if k[:4] == (1, 1, 1, 1) else v)
            for k, v in f.entries.items()
        }
        resid = f_unitarity_residual(model, FSymbolTable(model, entries))
        assert resid == pytest.approx(1.1 ** 2 - 1, abs=1e-9)

    def test_missing_entry_named(self, fib_data):
        model, f, _ = fib_data
        entries = dict(f.entries)
        del entries[(1, 1, 1, 1, 0, 0)]
        with pytest.raises(CompletenessError, match=r"1, 1, 1, 1, 0, 0"):
            FSymbolTable(model, entries)

    def test_missing_r_entry_named(self, fib_data):
        model, _, r = fib_data
        entries = dict(r.entries)
        del entries[(1, 1, 1)]
        with pytest.raises(CompletenessError, match=r"1, 1, 1"):
            RSymbolTable(model, entries)


class TestTablesHoldTheirRows:
    """The residuals read the rows and values a table built once."""

    @pytest.mark.parametrize("name", ["fibonacci", "z_d:3", "random su2_3"])
    @pytest.mark.usefixtures("uncached_tables")
    def test_residuals_never_enumerate(self, monkeypatch, name):
        if name == "fibonacci":
            model, f, r = fibonacci_data()
        elif name == "z_d:3":
            model = zd_model(3)
            f, r = trivial_data(model)
        else:
            model = su2k_model(3)
            f, r = random_tables(model, 5)
        want = (pentagon_residual(model, f), hexagon_residual(model, f, r),
                f_unitarity_residual(model, f))

        def refuse(*args):
            raise AssertionError("a residual enumerated its tuples again")

        monkeypatch.setattr(fsymbols, "_admissible_tuples", refuse)
        monkeypatch.setattr(fsymbols, "_vertices", refuse)
        got = (pentagon_residual(model, f), hexagon_residual(model, f, r),
               f_unitarity_residual(model, f))
        assert got == want

    def test_rows_and_values_follow_the_entries(self, fib_data):
        model, f, r = fib_data
        labels = np.array(model.labels)
        assert [tuple(row) for row in labels[f.rows].tolist()] == sorted(f.entries)
        assert f.values.tolist() == [f.entries[key] for key in sorted(f.entries)]
        assert [tuple(row) for row in labels[r.rows].tolist()] == list(r.entries)
        assert r.values.tolist() == list(r.entries.values())
        assert f.non_square == ""
        for array in (f.rows, f.values, r.rows, r.values):
            assert not array.flags.writeable

    def test_held_arrays_stay_out_of_equality_and_repr(self, fib_data):
        model, f, r = fib_data
        assert FSymbolTable(model, dict(f.entries)) == f
        assert RSymbolTable(model, dict(r.entries)) == r
        assert "rows" not in repr(f) and "values" not in repr(r)

    def test_tables_and_entries_are_read_only(self, fib_data):
        _, f, r = fib_data
        with pytest.raises(AttributeError):
            f.values = r.values
        with pytest.raises(TypeError):
            f.entries[(0, 0, 0, 0, 0, 0)] = 2.0

    @pytest.mark.usefixtures("uncached_tables")
    def test_one_enumeration_per_table(self, monkeypatch, fib_data):
        model, f, _ = fib_data
        text = f.to_json()
        calls = []
        enumerate_tuples = fsymbols._admissible_tuples

        def counted(model):
            calls.append(model)
            return enumerate_tuples(model)

        def pentagon(name):
            return lambda: cli.run(["pentagon", "--model", name])

        monkeypatch.setattr(fsymbols, "_admissible_tuples", counted)
        clear_table_caches()  # a first build enumerates, a repeat build never
        builds = {
            "fibonacci_data": (fibonacci_data, 1),
            "fibonacci_data again": (fibonacci_data, 0),
            "trivial_data z_d:3": (lambda: trivial_data(zd_model(3)), 1),
            "from_json": (lambda: FSymbolTable.from_json(text), 0),  # an equal model
            "pentagon --model z_d:4": (pentagon("z_d:4"), 1),
            "pentagon --model z_d:4 again": (pentagon("z_d:4"), 0),
            "pentagon --model z_d:04": (pentagon("z_d:04"), 0),  # the same model
            "hexagon --model z_d:4": (lambda: cli.run(["hexagon", "--model", "z_d:4"]), 0),
            "pentagon --model fibonacci": (pentagon("fibonacci"), 0),
            "gauge_transform": (lambda: gauge_transform(f, {(1, 1, 0): 1j}), 0),
        }
        got = {}
        for name, (build, _) in builds.items():
            calls.clear()
            assert getattr(build(), "status", 0) == 0, name  # a CLI run succeeds
            got[name] = len(calls)
        assert got == {name: want for name, (_, want) in builds.items()}

    def test_entries_are_built_only_when_read(self, monkeypatch):
        model = zd_model(4)
        f, r = trivial_data(model)
        label_rows = fsymbols._label_rows

        def refuse(*args):
            raise AssertionError("label tuples built although no entry was read")

        monkeypatch.setattr(fsymbols, "_label_rows", refuse)
        g = gauge_transform(f, {(1, 1, 2): 1j})
        assert (pentagon_residual(model, g), hexagon_residual(model, f, r),
                f_unitarity_residual(model, f)) == (0.0, 0.0, 0.0)
        assert g != f and trivial_data(model) == (f, r)
        monkeypatch.setattr(fsymbols, "_label_rows", label_rows)
        assert g.entries[(1, 1, 2, 0, 2, 3)] == 1j  # u(1,1,2) on the left tree only


#: ``to_json`` of the Fibonacci tables, byte for byte, as the dict-only
#: tables wrote them.
FIB_F_JSON = (
    '{"entries": [[[0, 0, 0, 0, 0, 0], [1.0, 0.0]], [[0, 0, 1, 1, 0, 1], [1.0, 0.0]], '
    '[[0, 1, 0, 1, 1, 1], [1.0, 0.0]], [[0, 1, 1, 0, 1, 0], [1.0, 0.0]], '
    '[[0, 1, 1, 1, 1, 1], [1.0, 0.0]], [[1, 0, 0, 1, 1, 0], [1.0, 0.0]], '
    '[[1, 0, 1, 0, 1, 1], [1.0, 0.0]], [[1, 0, 1, 1, 1, 1], [1.0, 0.0]], '
    '[[1, 1, 0, 0, 0, 1], [1.0, 0.0]], [[1, 1, 0, 1, 1, 1], [1.0, 0.0]], '
    '[[1, 1, 1, 0, 1, 1], [1.0, 0.0]], [[1, 1, 1, 1, 0, 0], [0.6180339887498948, 0.0]], '
    '[[1, 1, 1, 1, 0, 1], [0.7861513777574233, 0.0]], '
    '[[1, 1, 1, 1, 1, 0], [0.7861513777574233, 0.0]], '
    '[[1, 1, 1, 1, 1, 1], [-0.6180339887498948, 0.0]]], '
    '"model": {"dual": [[0, 0], [1, 1]], "fusion": [[0, 0, 0, 1], [0, 1, 1, 1], '
    '[1, 0, 1, 1], [1, 1, 0, 1], [1, 1, 1, 1]], "labels": [0, 1], "name": "fibonacci", '
    '"vacuum": 0}}'
)
FIB_R_JSON = (
    '{"entries": [[[0, 0, 0], [1.0, 0.0]], [[0, 1, 1], [1.0, 0.0]], '
    '[[1, 0, 1], [1.0, 0.0]], [[1, 1, 0], [-0.8090169943749473, 0.5877852522924732]], '
    '[[1, 1, 1], [-0.30901699437494745, -0.9510565162951535]]], '
    '"model": {"dual": [[0, 0], [1, 1]], "fusion": [[0, 0, 0, 1], [0, 1, 1, 1], '
    '[1, 0, 1, 1], [1, 1, 0, 1], [1, 1, 1, 1]], "labels": [0, 1], "name": "fibonacci", '
    '"vacuum": 0}}'
)

#: (pentagon, hexagon, unitarity) residuals as ``float.hex``, as the
#: dict-only tables computed them: the named models' own data, then
#: ``random_tables(model, 11)``.
RESIDUAL_PINS = {
    "fibonacci": ("0x1.0000000000000p-53", "0x1.6a09e667f3bcdp-53", "0x1.0000000000000p-53"),
    **{name: ("0x0.0p+0",) * 3 for name in ("toric", "z_d:3", "z_d:4", "z_d:5", "z_d:6")},
}
RANDOM_RESIDUAL_PINS = {
    "fibonacci": ("0x1.df988fad6c6a6p+2", "0x1.2d1797376f601p+2", "0x1.019705ab522acp+2"),
    "toric": ("0x1.ffe2665de20adp+2", "0x1.6b2aba749f3a0p+3", "0x1.d6b74b8c13beep+2"),
    "z_d:3": ("0x1.a287b7bec3358p+2", "0x1.96041868b4c19p+2", "0x1.acd99fae2d5a2p+1"),
    "z_d:4": ("0x1.577aa5be8a60fp+3", "0x1.6b2aba749f3a0p+3", "0x1.d6b74b8c13beep+2"),
}


def _residual_hex(model, f, r) -> tuple[str, str, str]:
    return (pentagon_residual(model, f).hex(), hexagon_residual(model, f, r).hex(),
            f_unitarity_residual(model, f).hex())


class TestPinnedOutputs:
    def test_fibonacci_table_bytes(self, fib_data):
        _, f, r = fib_data
        assert f.to_json() == FIB_F_JSON
        assert r.to_json() == FIB_R_JSON

    def test_z_d_3_trivial_table_bytes(self):
        f, r = trivial_data(zd_model(3))
        for table, size, digest in (
            (f, 1165, "dd25d3fba90bae109b8af02789ec0b8311c88a51d9ae9b1fd356387e48630fc6"),
            (r, 472, "2eb609ebabfa283e77a972a860880ff7203e5fe781a3e8e62becf54082a9a566"),
        ):
            text = table.to_json()
            assert (len(text), hashlib.sha256(text.encode()).hexdigest()) == (size, digest)

    def test_gauged_table_bytes(self, fib_data):
        # unit phases on every allowed vertex; bytes as the dict-only
        # gauge_transform wrote them
        for model, f, size, digest in (
            (fib_data[0], fib_data[1], 1016,
             "73d93797a4fae4895cec77b90bfe6c1ba8bfab00578e0659c1af2be37688b8f3"),
            (zd_model(3), trivial_data(zd_model(3))[0], 1920,
             "9bc073525a1b3a1a0a4a44873a563a4c78a6aa9e948c04687370e87a557d4a18"),
        ):
            rng = np.random.default_rng(15)
            phases = {
                t: complex(np.exp(2j * np.pi * rng.random()))
                for t in itertools.product(model.labels, repeat=3)
                if model.n(*t)
            }
            text = gauge_transform(f, phases).to_json()
            assert (len(text), hashlib.sha256(text.encode()).hexdigest()) == (size, digest)

    def test_fibonacci_entry_order(self, fib_data):
        model, f, r = fib_data
        assert list(r.entries) == [(0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 0), (1, 1, 1)]
        assert list(f.entries) == product_scan(model)[0]

    @pytest.mark.parametrize("name", sorted(RESIDUAL_PINS))
    def test_named_model_residuals(self, name):
        model = named_model(name)
        f, r = fibonacci_data()[1:] if name == "fibonacci" else trivial_data(model)
        assert _residual_hex(model, f, r) == RESIDUAL_PINS[name]

    @pytest.mark.parametrize("name", sorted(RANDOM_RESIDUAL_PINS))
    def test_random_table_residuals(self, name):
        model = named_model(name)
        assert _residual_hex(model, *random_tables(model, 11)) == RANDOM_RESIDUAL_PINS[name]


PLANS = ("pentagon_plan", "hexagon_plan", "unitarity_plan")

#: SHA-256 of the residuals' ``float.hex`` triples of eight random gauges of
#: the Fibonacci data, then of z_d:3's trivial data, as per-table plans
#: computed them.
GAUGE_SWEEP_SHA256 = "2379f5144fc46e3734785af70d99174ab2a42e74b657d2973c4193ee1bc5fe84"


def _plan_inputs():
    """``(name, factory)``: every pinned input, then z_d:2 to z_d:8 with
    trivial and with random values; a factory builds a new model and tables."""
    inputs = []
    for name in sorted(RESIDUAL_PINS):
        def named(name=name):
            model = named_model(name)
            return model, (fibonacci_data()[1:] if name == "fibonacci" else trivial_data(model))
        inputs.append((name, named))
    for name in sorted(RANDOM_RESIDUAL_PINS):
        def random(name=name):
            return named_model(name), random_tables(named_model(name), 11)
        inputs.append((f"random {name}", random))
    for d in range(2, 9):
        if f"z_d:{d}" not in RESIDUAL_PINS:
            inputs.append((f"z_d:{d}", lambda d=d: (zd_model(d), trivial_data(zd_model(d)))))
        inputs.append((f"z_d:{d} random", lambda d=d: (zd_model(d), random_tables(zd_model(d), d))))
    return inputs


class TestPlans:
    """Each F table joins its rows once per residual; later checks of it
    gather and scatter its values only."""

    @pytest.mark.parametrize("name, build", _plan_inputs(), ids=[n for n, _ in _plan_inputs()])
    def test_reused_plans_give_the_first_bits(self, monkeypatch, name, build):
        model, (f, r) = build()
        first = _residual_hex(model, f, r)
        joins = []
        join = fsymbols._join
        monkeypatch.setattr(fsymbols, "_join", lambda *a: joins.append(a) or join(*a))
        assert _residual_hex(model, f, r) == first
        assert joins == []  # the second check made no join
        monkeypatch.setattr(fsymbols, "_join", join)
        fresh = (FSymbolTable(model, dict(f.entries)), RSymbolTable(model, dict(r.entries)))
        assert fresh[0].structure is f.structure and not any(plan in vars(fresh[0]) for plan in PLANS)
        assert _residual_hex(model, *fresh) == first
        fsymbols._structure.cache_clear()  # a new structure joins its rows again
        fresh = (FSymbolTable(model, dict(f.entries)), RSymbolTable(model, dict(r.entries)))
        assert not any(plan in vars(fresh[0].structure) for plan in PLANS)
        assert _residual_hex(model, *fresh) == first
        if name in RESIDUAL_PINS:
            assert first == RESIDUAL_PINS[name]
        elif name.startswith("random "):
            assert first == RANDOM_RESIDUAL_PINS[name.removeprefix("random ")]

    def test_each_checked_residual_joins_once(self, monkeypatch):
        model = zd_model(4)
        f, r = trivial_data(model)
        joins = []
        join = fsymbols._join
        monkeypatch.setattr(fsymbols, "_join", lambda *a: joins.append(a[2]) or join(*a))
        for _ in range(3):
            pentagon_residual(model, f), hexagon_residual(model, f, r)
            f_unitarity_residual(model, f)
        assert joins == ["the pentagon"] * 3 + ["the hexagon", "the unitarity check"]

    @pytest.mark.usefixtures("uncached_tables")
    @pytest.mark.parametrize("derive", ["gauge_transform", "from_json"])
    def test_a_derived_table_builds_its_own_plans(self, derive, monkeypatch):
        # checked before its parent, a derived table builds its model's
        # plans itself: they equal a fresh structure's, its residuals have
        # the parent's bits, and the parent's check then joins nothing
        model, f, r = fibonacci_data()
        g = (gauge_transform(f, {}) if derive == "gauge_transform"
             else FSymbolTable.from_json(f.to_json()))
        assert g is not f and g.structure is f.structure
        assert not any(plan in vars(g.structure) for plan in PLANS)
        want = _residual_hex(model, g, r)
        assert all(plan in vars(g.structure) for plan in PLANS)
        fresh = fsymbols._Structure(model.N)
        for plan in PLANS:
            for held, other in zip(getattr(g.structure, plan), getattr(fresh, plan)):
                if isinstance(held, np.ndarray):
                    assert held is not other and np.array_equal(held, other)
                else:
                    assert held == other
        joins = []
        join = fsymbols._join
        monkeypatch.setattr(fsymbols, "_join", lambda *a: joins.append(a) or join(*a))
        assert _residual_hex(model, f, r) == want
        assert joins == []

    @pytest.mark.usefixtures("uncached_tables")
    def test_tables_of_equal_models_share_one_structure(self, monkeypatch):
        # a gauge sweep of each model, and each gauged table read back from
        # its JSON document (a new model, equal to the first): after the
        # model's first check no table joins, and every residual has the
        # bits the per-table plans gave
        joins = []
        join = fsymbols._join
        got = []
        for model, f, r in (fibonacci_data(), (zd_model(3), *trivial_data(zd_model(3)))):
            _residual_hex(model, f, r)
            monkeypatch.setattr(fsymbols, "_join", lambda *a: joins.append(a) or join(*a))
            rng = np.random.default_rng(30)
            vertices = [t for t in itertools.product(model.labels, repeat=3) if model.n(*t)]
            for _ in range(8):
                g = gauge_transform(f, {t: complex(np.exp(2j * np.pi * rng.random()))
                                        for t in vertices})
                read = FSymbolTable.from_json(g.to_json())
                assert read.model is not model and read.model == model
                assert g.structure is read.structure is f.structure
                got.append(_residual_hex(model, g, r))
                assert _residual_hex(read.model, read, r) == got[-1]
            monkeypatch.setattr(fsymbols, "_join", join)
        assert joins == []
        assert hashlib.sha256(repr(got).encode()).hexdigest() == GAUGE_SWEEP_SHA256

    def test_an_equal_model_keeps_its_own_labels(self, fib_data):
        model, f, r = fib_data
        floats = AnyonModel((0.0, 1.0), 0.0, {0.0: 0.0, 1.0: 1.0},
                            {tuple(map(float, key)): 1 for key in r.entries})
        entries = {tuple(map(float, key)): value for key, value in f.entries.items()}
        g = FSymbolTable(floats, entries)
        h = FSymbolTable(model, dict(f.entries))
        assert floats == model and g.structure is h.structure and g == h == f
        assert all(type(x) is float for key in g.entries for x in key)
        assert list(g.entries.values()) == list(f.entries.values())
        assert FSymbolTable.from_json(g.to_json()).entries == g.entries
        del entries[(0.0, 1.0, 1.0, 1.0, 1.0, 1.0)]
        with pytest.raises(CompletenessError, match=r"\(0\.0, 1\.0, 1\.0, 1\.0, 1\.0, 1\.0\)"):
            FSymbolTable(floats, entries)
        doc = json.loads(g.to_json())
        doc["entries"].append([[0, 0, 0, 1, 0, 0], [1.0, 0.0]])
        with pytest.raises(InputError, match=r"entry at \(0\.0, 0\.0, 0\.0, 1\.0, 0\.0, 0\.0\)"):
            FSymbolTable.from_json(json.dumps(doc))
        fusion = {(0, a, a): 1 for a in range(3)} | {(a, 0, a): 1 for a in range(3)}
        fusion |= {(1, 1, 0): 1, (1, 1, 2): 1, (1, 2, 2): 1, (2, 1, 2): 1, (2, 2, 0): 1}
        odd = [AnyonModel(labels, labels[0], dict(zip(labels, labels)),
                          {tuple(labels[x] for x in key): m for key, m in fusion.items()})
               for labels in ((0, 1, 2), (0.0, 1.0, 2.0))]
        tables = [trivial_data(m)[0] for m in odd]
        assert tables[0].structure is tables[1].structure
        assert [t.non_square for t in tables] == ["F block (1, 1, 2, 0) is not square (1 x 0)",
                                                  "F block (1.0, 1.0, 2.0, 0.0) is not square (1 x 0)"]

    def test_plans_are_read_only(self, fib_data):
        model, f, r = fib_data
        _residual_hex(model, f, r)
        for plan in PLANS:
            arrays = [part for part in getattr(f.structure, plan) if isinstance(part, np.ndarray)]
            assert arrays and not any(part.flags.writeable for part in arrays)
            with pytest.raises(ValueError, match="read-only"):
                arrays[0][0] = 0
            with pytest.raises(AttributeError):
                setattr(f.structure, plan, ())

    def test_a_refused_check_holds_no_plan(self):
        model = zd_model(23)  # 23^4 tuples per pentagon side, over the cap
        f, r = trivial_data(model)
        with pytest.raises(ResourceError, match="the pentagon needs"):
            pentagon_residual(model, f)
        assert "pentagon_plan" not in vars(f.structure)
        with pytest.raises(InputError, match="different model"):
            pentagon_residual(zd_model(22), f)
        with pytest.raises(InputError, match="different model"):
            hexagon_residual(zd_model(22), f, r)
        assert (hexagon_residual(model, f, r), f_unitarity_residual(model, f)) == (0.0, 0.0)
        assert "pentagon_plan" not in vars(f.structure)
        with pytest.raises(ResourceError, match="the pentagon needs"):
            pentagon_residual(model, trivial_data(model)[0])  # a second table of the model


class TestGaugeCovariance:
    @pytest.mark.parametrize("model_factory", [fibonacci_model, lambda: zd_model(3)])
    def test_pentagon_invariant_under_rephasing(self, model_factory):
        model = model_factory()
        if model.name == "fibonacci":
            _, f, _ = fibonacci_data()
        else:
            f, _ = trivial_data(model)
        rng = np.random.default_rng(42)
        phases = {
            t: complex(np.exp(2j * np.pi * rng.random()))
            for t in itertools.product(model.labels, repeat=3)
            if model.n(*t)
        }
        gauged = gauge_transform(f, phases)
        assert pentagon_residual(model, gauged) < 1e-12

    def test_bad_phase_rejected(self, fib_data):
        _, f, _ = fib_data
        for phases in (
            {(0, 0, 1): 1.0},  # not an allowed vertex
            {(1, 1, 2): 1.0},  # unknown label
            {((1,), 1, 0): 1.0},
            {(1, 1): 1.0},  # not a 3-tuple
            {"110": 1.0},
            {(1, 1, 0): 2.0},  # not unit modulus
            {(1, 1, 0): float("nan")},
            {(1, 1, 0): complex(float("inf"), 0.0)},
            {(1, 1, 0): complex(1e308, 1e308)},
            {(1, 1, 0): 10 ** 400},
            {(1, 1, 0): "1"},  # not a number
            {(1, 1, 0): None},
        ):
            with pytest.raises(InputError):
                gauge_transform(f, phases)


class TestAdmissibility:
    def test_oriented_triples(self):
        z3 = zd_model(3)
        # (a,b->i), (i,c->d), (b,c->j), (a,j->d)
        assert f_admissible(z3, 1, 1, 1, 0, 2, 2)
        assert not f_admissible(z3, 1, 1, 1, 0, 2, 1)

    def test_self_dual_matches_unordered(self, fib_data):
        model, f, _ = fib_data
        for key in itertools.product(model.labels, repeat=6):
            a, b, c, d, i, j = key
            unordered = bool(
                model.n(a, b, i)
                and model.n(c, d, i)
                and model.n(a, d, j)
                and model.n(c, b, j)
            )
            assert f_admissible(model, *key) == unordered


class TestSU2k:
    def test_examples(self):
        assert su2k_admissible(0.5, 0.5, 1, 2) is True
        assert su2k_admissible(0.5, 0.5, 1, 1) is False
        for k in (2, 3, 6):
            for twice_j in range(0, k + 1):
                j = twice_j / 2
                assert su2k_admissible(0, j, j, k) is True

    def test_so3_level3_is_fibonacci(self):
        fib = fibonacci_model()
        for a in (0, 1):
            for b in (0, 1):
                for c in (0, 1):
                    assert su2k_admissible(a, b, c, 3) == (fib.n(a, b, c) > 0)

    def test_triangle_rule(self):
        assert su2k_admissible(1, 1, 2, 100)
        assert not su2k_admissible(1, 1, 3, 100)
        assert not su2k_admissible(0.5, 1, 1, 100)  # half-integer sum

    def test_level_bound(self):
        assert not su2k_admissible(2, 2, 2, 3)  # each spin must be <= k/2
        assert su2k_admissible(1, 1, 1, 3)
        assert not su2k_admissible(1, 1, 1, 2)  # j1+j2+j <= k fails

    def test_bad_input(self):
        with pytest.raises(InputError):
            su2k_admissible(0.3, 0.5, 1, 2)
        with pytest.raises(InputError):
            su2k_admissible(0.5, 0.5, 1, 0)


class TestSerialization:
    def test_round_trips(self, fib_data):
        model, f, r = fib_data
        assert FSymbolTable.from_json(f.to_json()).entries == f.entries
        assert RSymbolTable.from_json(r.to_json()).entries == r.entries

    def test_complex_as_re_im_pairs(self, fib_data):
        import json

        _, _, r = fib_data
        doc = json.loads(r.to_json())
        for _, value in doc["entries"]:
            assert isinstance(value, list) and len(value) == 2


class TestAgainstDenseOracles:
    """Random complex tables catch an index mix-up that all-ones Z_d tables
    and the two-label Fibonacci theory cannot."""

    @pytest.mark.parametrize("model", ORACLE_MODELS, ids=lambda m: m.name)
    @settings(max_examples=4, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), scale=st.sampled_from([1e-3, 1.0, 1e3]))
    def test_residuals_equal_dense_einsums(self, model, seed, scale):
        f, r = random_tables(model, seed, scale)
        assert_matches(pentagon_residual(model, f), pentagon_oracle(model, f))
        assert_matches(hexagon_residual(model, f, r), hexagon_oracle(model, f, r))
        assert_matches(f_unitarity_residual(model, f), f_unitarity_oracle(model, f))

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_random_fusion_rules(self, data):
        # commutative, self-dual rules, mostly not associative: blocks may be
        # non-square, and the right side of the pentagon may leave its left
        # side's support
        k = data.draw(st.integers(1, 3))
        fusion = {}
        for a in range(k):
            fusion[(0, a, a)] = fusion[(a, 0, a)] = 1
        for a, b in itertools.combinations_with_replacement(range(1, k), 2):
            outcomes = data.draw(st.sets(st.integers(0, k - 1), min_size=1))
            for c in outcomes | ({0} if a == b else set()):
                fusion[(a, b, c)] = fusion[(b, a, c)] = 1
        model = AnyonModel(tuple(range(k)), 0, {a: a for a in range(k)}, fusion)
        f, r = random_tables(model, data.draw(st.integers(0, 2**32 - 1)))
        assert_matches(pentagon_residual(model, f), pentagon_oracle(model, f))
        assert_matches(hexagon_residual(model, f, r), hexagon_oracle(model, f, r))
        assert_matches(outcome(f_unitarity_residual, model, f),
                       outcome(f_unitarity_oracle, model, f))

    @pytest.mark.parametrize("model", ORACLE_MODELS, ids=lambda m: m.name)
    def test_enumeration_equals_the_product_scan(self, model):
        f, r = trivial_data(model)
        f_keys, r_keys = product_scan(model)
        assert list(f.entries) == f_keys  # same keys, in label-product order
        assert list(r.entries) == r_keys

    def test_first_missing_entry_in_label_order(self, fib_data):
        model, f, _ = fib_data
        entries = dict(f.entries)
        del entries[(1, 1, 1, 1, 1, 0)]
        del entries[(0, 1, 1, 1, 1, 1)]
        with pytest.raises(CompletenessError, match=r"\(0, 1, 1, 1, 1, 1\)"):
            FSymbolTable(model, entries)

    def test_non_square_block_is_an_invariant_violation(self):
        # 1 x 1 = 0 + 2 but 1 x 2 = 2: (1 x 1) x 2 holds 0 and 1 x (1 x 2)
        # does not, so F(1120) has one row (i = 2) and no column
        fusion = {(0, a, a): 1 for a in range(3)} | {(a, 0, a): 1 for a in range(3)}
        fusion |= {(1, 1, 0): 1, (1, 1, 2): 1, (1, 2, 2): 1, (2, 1, 2): 1, (2, 2, 0): 1}
        model = AnyonModel((0, 1, 2), 0, {0: 0, 1: 1, 2: 2}, fusion)
        f, _ = trivial_data(model)
        with pytest.raises(InvariantViolation, match="not square"):
            f_unitarity_oracle(model, f)
        with pytest.raises(InvariantViolation, match=r"\(1, 1, 2, 0\) is not square \(1 x 0\)"):
            f_unitarity_residual(model, f)
        assert "unitarity_plan" not in vars(f.structure)  # refused before the plan is built


class TestTupleCodes:
    @pytest.mark.parametrize("k", [2, 7, 2**13, 2**40])  # the last two need rank steps
    def test_codes_equal_exactly_for_equal_rows_and_keep_their_order(self, k):
        rng = np.random.default_rng(k)
        width = 9
        pool = rng.integers(0, k, size=(40, width))
        left = pool[rng.integers(0, 40, size=300)]
        right = pool[rng.integers(0, 40, size=200)]
        lc, rc = fsymbols._shared_codes(k, list(left.T), list(right.T))
        rows = np.concatenate([left, right])
        codes = np.concatenate([lc, rc])
        same_rows = (rows[:, None, :] == rows[None, :, :]).all(axis=2)
        assert np.array_equal(codes[:, None] == codes[None, :], same_rows)
        assert np.array_equal(np.argsort(codes, kind="stable"),
                              np.lexsort(rows.T[::-1]))


class TestTableValidation:
    @pytest.fixture
    def fib_doc(self, fib_data):
        return json.loads(fib_data[1].to_json())

    @pytest.mark.parametrize("entry, match", [
        ([[0, 1, 1, 1, 1, 7], [1.0, 0.0]], "label outside"),  # unknown label
        ([[0, 1, 1, 1, 1, "1"], [1.0, 0.0]], "label outside"),
        ([[0, 1, 1, 1, 1, [1]], [1.0, 0.0]], "label outside"),  # unhashable
        ([[0, 0, 0, 1, 0, 0], [1.0, 0.0]], "do not allow"),  # non-admissible
        ([[1, 1, 1, 1, 0, 0], [1.0, 0.0]], "twice"),
        ([[0, 1, 1, 1, 1], [1.0, 0.0]], "6 labels"),
        ([[0, 0, 0, 0, 0, 0], "1"], "finite"),
        ([[0, 0, 0, 0, 0, 0], [1.0]], "finite"),
        ([[0, 0, 0, 0, 0, 0], [True, 0]], "finite"),
        ([[0, 0, 0, 0, 0, 0], [None, 0]], "finite"),
        ([[0, 0, 0, 0, 0, 0], [10 ** 400, 0]], "finite"),
        ([[0, 0, 0, 0, 0, 0], [float("nan"), 0]], "finite"),
        ([[0, 0, 0, 0, 0, 0]], "pair"),
        ("junk", "pair"),
        ([[0, 1, 1, 1, 1, True], [1.0, 0.0]], "label outside"),  # true is not label 1
    ])
    def test_bad_f_entry_refused(self, fib_doc, entry, match):
        if entry[0] != [0, 0, 0, 0, 0, 0] or match == "pair":
            fib_doc["entries"].append(entry)
        else:  # replace the existing value
            fib_doc["entries"] = [e for e in fib_doc["entries"] if e[0] != entry[0]] + [entry]
        with pytest.raises(InputError, match=match):
            FSymbolTable.from_json(json.dumps(fib_doc))

    def test_stray_entry_no_longer_moves_the_residual(self, fib_data, fib_doc):
        model, f, _ = fib_data
        fib_doc["entries"].append([[0, 0, 0, 1, 0, 0], [20.0, 0.0]])
        with pytest.raises(InputError):
            FSymbolTable.from_json(json.dumps(fib_doc))
        # built by hand, the stray entry is ignored, as value() ignores it
        stray = FSymbolTable(model, {**f.entries, (0, 0, 0, 1, 0, 0): 20.0})
        assert pentagon_residual(model, stray) == pentagon_residual(model, f)

    @pytest.mark.parametrize("text", [
        "[]", "3", '{"entries": []}', '{"model": 1, "entries": []}',
        '{"model": {"labels": [0]}, "entries": []}',
        '{"model": {"labels": [[0]], "vacuum": 0, "dual": [], "fusion": []}, "entries": []}',
        '{"model": {"labels": [0, 1], "vacuum": 0, "dual": [[0, 0]], "fusion": []},'
        ' "entries": []}',
    ])
    def test_malformed_documents_refused(self, text):
        with pytest.raises(InputError):
            FSymbolTable.from_json(text)
        with pytest.raises(InputError):
            RSymbolTable.from_json(text)

    def test_the_model_is_read_from_the_parsed_document(self, monkeypatch, fib_data):
        _, f, r = fib_data

        def refuse(text):
            raise AssertionError("the model document was serialised and parsed again")

        monkeypatch.setattr(AnyonModel, "from_json", refuse)
        assert FSymbolTable.from_json(f.to_json()) == f
        assert RSymbolTable.from_json(r.to_json()) == r
        with pytest.raises(InputError, match="malformed model document"):
            FSymbolTable.from_json('{"model": {"labels": [0]}, "entries": []}')

    @pytest.mark.parametrize("entry, match", [
        ([[1, 1, 2], [1.0, 0.0]], "label outside"),
        ([[0, 0, 1], [1.0, 0.0]], "do not allow"),
        ([[1, 1], [1.0, 0.0]], "3 labels"),
        ([[1, 1, 0], "phase"], "finite"),
        ([[1, True, 0], [1.0, 0.0]], "label outside"),
    ])
    def test_bad_r_entry_refused(self, fib_data, entry, match):
        doc = json.loads(fib_data[2].to_json())
        doc["entries"] = [e for e in doc["entries"] if e[0] != entry[0]] + [entry]
        with pytest.raises(InputError, match=match):
            RSymbolTable.from_json(json.dumps(doc))

    def test_labels_are_canonical(self, fib_data, fib_doc):
        _, f, _ = fib_data
        for entry in fib_doc["entries"]:
            entry[0] = [float(x) for x in entry[0]]  # 1.0 names label 1
        loaded = FSymbolTable.from_json(json.dumps(fib_doc))
        assert loaded.entries == f.entries
        assert all(type(x) is int for key in loaded.entries for x in key)


class TestCaps:
    @pytest.mark.usefixtures("uncached_tables")
    def test_pentagon_cap_refuses_before_the_join(self, monkeypatch):
        model = zd_model(4)  # 4^4 = 256 tuples per pentagon side
        f, r = trivial_data(model)
        monkeypatch.setattr(fsymbols, "PENTAGON_TUPLE_CAP", 255)
        with pytest.raises(ResourceError, match="the pentagon needs 256 index tuples"):
            pentagon_residual(model, f)
        with pytest.raises(ResourceError, match="F enumeration"):
            trivial_data(zd_model(7))  # 7^3 = 343 admissible tuples
        monkeypatch.setattr(fsymbols, "PENTAGON_TUPLE_CAP", 256)
        assert pentagon_residual(model, f) == 0.0
        assert hexagon_residual(model, f, r) == 0.0

    def test_cap_admits_z_d_22_pentagon_and_z_d_64_tables(self):
        assert 22 ** 4 <= PENTAGON_TUPLE_CAP < 23 ** 4
        assert 64 ** 3 <= PENTAGON_TUPLE_CAP < 65 ** 3

    def test_refusal_allocates_little(self):
        model = zd_model(30)  # 30^4 > cap
        f, _ = trivial_data(model)
        tracemalloc.start()
        try:
            with pytest.raises(ResourceError):
                pentagon_residual(model, f)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20

    def test_z_d_6_pentagon_memory(self):
        # the dense einsums peaked at 539 MB here; the table already holds the
        # admissible tuples, so the window holds only the joins
        model = zd_model(6)
        f, _ = trivial_data(model)
        tracemalloc.start()
        try:
            assert pentagon_residual(model, f) == 0.0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20
