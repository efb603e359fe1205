r"""F and R symbol tables and their consistency checks.

An F symbol ``F(abcd)^i_j`` is the recoupling coefficient between the two
ways to fuse three labels ``a, b, c`` into ``d``: the left-associated tree
with vertices ``(a, b -> i)`` and ``(i, c -> d)``, and the right-associated
tree with vertices ``(b, c -> j)`` and ``(a, j -> d)``::

    a   b   c            a   b   c
     \ /   /              \   \ /
      i   /    = sum_j     \   j     x  F(abcd)^i_j
       \ /                  \ /
        d                    d

An entry is admissible exactly when those four oriented vertices are
allowed fusion products (read as unordered label sets they are ``{abi}``,
``{cdi}``, ``{cbj}``, ``{adj}``); non-admissible entries are identically
zero.  For each fixed ``(a,b,c,d)`` the matrix ``F(abcd)^i_j`` must be
unitary.

An R symbol ``R(a,b -> c)`` is the phase acquired when ``a`` and ``b`` are
exchanged counterclockwise in fusion channel ``c``.

A table is its arrays: the admissible tuples, enumerated once, as an
``(m, 6)`` array of label indices (joining the allowed fusion vertices of
the two trees above), and its values in the same row order; ``entries``,
keyed by label tuples, is a read-only view of them built when first read.
Every check runs over those rows only.  Each side of the pentagon
and hexagon equations is a join of those rows on their shared labels, with
the contracted label summed over int64 tuple codes, and the residual is the
worst absolute deviation over the union of the two sides' supports:
outside it both sides vanish, so this is the maximum over the full label
product.  Every join counts its output before allocating it and refuses
more than :data:`PENTAGON_TUPLE_CAP` tuples.  The equations are stated in
the tree-oriented form, which is what makes them hold verbatim for
non-self-dual models (abelian Z_d with d > 2); for self-dual models such as
the Fibonacci theory the oriented and unordered readings have identical
admissible sets and values.

Which entries may be non-zero depends on the fusion rules only: a gauge
change moves the values and never that set.  So every join depends on the
model, never on a table's values, and each check is split into a plan and a
value pass.  The F/R *structure* of a model holds what its tables share:
the admissible rows, the first non-square block, the allowed vertices, each
row's position by index tuple (for reading JSON tables) and the three
plans, each built when first needed.  :func:`_structure` keeps one per
distinct model (models are compared by :meth:`AnyonModel.__eq__`), and every
table of the model holds a reference to it: the built-in data, a
:func:`gauge_transform` result, a table read by ``from_json`` or built
from a dict.  A structure holds label indices only, never labels, so each
table keeps its own ``model``, and its ``entries`` and messages use that
model's labels.  A plan holds, as read-only intp arrays, the joined row
indices of every term of both sides and each term's position among the
label assignments it contributes to: for the pentagon and the unitarity
check a bucket among the distinct keys of both sides (and their count),
for the hexagon a row of the table and the R symbols' positions among the
allowed vertices.  A join refused by the cap leaves no plan behind.  The
value pass gathers the values at those indices, multiplies them, sums the
terms of equal position with ``np.add.at`` in row order and takes the worst
deviation, so every check of a model after its first pays only that pass.
"""

from __future__ import annotations

import json
import math
import numbers
from fractions import Fraction
from functools import cached_property, lru_cache
from types import MappingProxyType

import numpy as np

from .errors import CompletenessError, InputError, InvariantViolation, ResourceError
from .fusion import AnyonModel, Label, fibonacci_model

PHI = (1 + math.sqrt(5)) / 2

#: The only non-trivial Fibonacci F block, ``F(1111)^i_j`` for i, j in {0, 1}
#: (read-only).
FIB_F1111 = np.array([[1 / PHI, 1 / math.sqrt(PHI)], [1 / math.sqrt(PHI), -1 / PHI]])
FIB_F1111.flags.writeable = False

#: The Fibonacci exchange phases ``(R(1,1->0), R(1,1->1))``.
FIB_R11 = (complex(np.exp(4j * np.pi / 5)), complex(-np.exp(2j * np.pi / 5)))

#: Most index tuples one join of the F/R checks may produce: the F-tuple
#: enumeration, a side of the pentagon or hexagon, the unitarity Gram pairs.
#: Each join counts its output before allocating it.  The largest Z_d
#: pentagon within the cap is z_d:22 (22^4 tuples per side, about 0.3 s and
#: a 75 MB peak); the largest table it lets a model enumerate is that of
#: z_d:64 (64^3 tuples).
PENTAGON_TUPLE_CAP = 2**18

_CODE_SPAN = 2**62


def _allowed(model: AnyonModel, x, y, z) -> bool:
    """Whether ``x, y -> z`` is an allowed fusion vertex, read from ``model.N``;
    a vertex with an unknown label is not."""
    index = model.index
    try:
        return bool(model.N[index[x], index[y], index[z]])
    except KeyError:
        return False


class _Structure:
    """The F/R structure of one fusion model, read from its ``N`` alone;
    each part is read-only and built when first read.

    ``f_rows`` are the admissible ``(a, b, c, d, i, j)`` and ``r_rows`` the
    allowed vertices ``(x, y, z)``, as sorted rows of label indices;
    ``f_keys`` and ``r_keys`` map each row's index tuple to its position.
    Building ``f_rows`` also sets ``non_square``: the first non-square
    block as ``(a, b, c, d, rows, columns)``, label indices and sizes, or
    ``()``.  ``pentagon_plan``, ``hexagon_plan`` and ``unitarity_plan``
    are the checks' joins of ``f_rows``.  No labels are held: models that
    compare equal, such as one labelled ``0.0, 1.0`` and
    :func:`~anyons.fusion.fibonacci_model`, share one structure.
    """

    def __setattr__(self, name, value):
        raise AttributeError("an F/R structure is read-only")

    def __init__(self, N: np.ndarray):
        vars(self)["N"] = N

    @cached_property
    def f_rows(self) -> np.ndarray:
        rows, vars(self)["non_square"] = _admissible_tuples(self.N)
        rows.flags.writeable = False
        return rows

    @cached_property
    def r_rows(self) -> np.ndarray:
        rows = _vertices(self.N)
        rows.flags.writeable = False
        return rows

    @cached_property
    def f_keys(self) -> MappingProxyType:
        return _positions(self.f_rows)

    @cached_property
    def r_keys(self) -> MappingProxyType:
        return _positions(self.r_rows)

    @cached_property
    def pentagon_plan(self) -> tuple:
        """:func:`_pentagon_plan` of ``f_rows``."""
        return _frozen(_pentagon_plan(len(self.N), self.f_rows))

    @cached_property
    def hexagon_plan(self) -> tuple:
        """:func:`_hexagon_plan` of ``f_rows`` and ``r_rows``."""
        return _frozen(_hexagon_plan(len(self.N), self.f_rows, self.r_rows))

    @cached_property
    def unitarity_plan(self) -> tuple:
        """:func:`_unitarity_plan` of ``f_rows``."""
        return _frozen(_unitarity_plan(len(self.N), self.f_rows))


@lru_cache(maxsize=8)
def _structure(model: AnyonModel) -> _Structure:
    """The F/R structure of ``model``: one instance per distinct model, so
    every table of equal models shares its rows and plans.  Holds at most 8
    (their sizes are in ``cli._builtin_fr_data``)."""
    return _Structure(model.N)


def _positions(rows: np.ndarray) -> MappingProxyType:
    """Each row's position, keyed by its tuple of label indices (read-only)."""
    return MappingProxyType({key: at for at, key in enumerate(map(tuple, rows.tolist()))})


class _Table:
    """What F and R tables share: the read-only ``model``, its
    ``structure`` (:func:`_structure`, shared by every table of an equal
    model), ``rows`` (the structure's rows for this kind of table) and
    ``values`` (the entries at those rows).  Two tables are equal when their
    models and values are; ``repr`` shows the model and entries."""

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is read-only")

    def __init__(self, model: AnyonModel, entries: dict):
        """Hold ``entries``, a dict keyed by label tuples, at the structure's
        rows; other keys are ignored, and the first missing one raises
        CompletenessError."""
        structure = _structure(model)
        try:
            values = np.array([entries[key] for key in _label_rows(model, self._rows_of(structure))],
                              dtype=complex)
        except KeyError as exc:
            raise CompletenessError(f"{self._missing} {exc.args[0]}") from None
        self._hold(model, structure, values)

    def _hold(self, model: AnyonModel, structure: _Structure, values: np.ndarray):
        """Hold the model, its structure, the structure's rows and ``values``
        (made read-only), and return the table: every way to build one ends
        here."""
        values.flags.writeable = False
        vars(self).update(model=model, structure=structure, rows=self._rows_of(structure),
                          values=values)
        return self

    @classmethod
    def _of(cls, model: AnyonModel, structure: _Structure, values: np.ndarray):
        return object.__new__(cls)._hold(model, structure, values)

    @cached_property
    def entries(self) -> MappingProxyType:
        """The values keyed by label tuples, in row (label-product) order: a
        read-only view, built when first read."""
        return MappingProxyType(dict(zip(_label_rows(self.model, self.rows),
                                         self.values.tolist())))

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.model == other.model and np.array_equal(self.values, other.values)

    def __repr__(self) -> str:
        return f"{type(self).__name__}(model={self.model!r}, entries={dict(self.entries)!r})"

    def to_json(self) -> str:
        entries = sorted(self.entries.items(), key=lambda kv: str(kv[0]))
        return json.dumps({"model": json.loads(self.model.to_json()),
                           "entries": [[list(k), [v.real, v.imag]] for k, v in entries]},
                          sort_keys=True)

    @classmethod
    def from_json(cls, text: str):
        """Parse a :meth:`to_json` document; every entry must sit at an
        admissible key of the model (for R, an allowed fusion triple) and
        hold a finite ``[re, im]`` pair."""
        return cls._of(*_table_from_json(text, cls))


class FSymbolTable(_Table):
    """Complete map of admissible ``(a, b, c, d, i, j)`` tuples to values.

    A missing admissible entry raises CompletenessError, naming the first in
    label order.
    """

    _what, _arity, _missing = "F", 6, "F table missing admissible entry"

    @staticmethod
    def _rows_of(structure: _Structure) -> np.ndarray:
        return structure.f_rows

    @staticmethod
    def _keys_of(structure: _Structure) -> MappingProxyType:
        return structure.f_keys

    @property
    def non_square(self) -> str:
        """A message naming the first non-square block in this table's
        labels, or ``""``."""
        if not self.structure.non_square:
            return ""
        *abcd, rows, cols = self.structure.non_square
        return (f"F block {tuple(self.model.labels[x] for x in abcd)} is not square "
                f"({rows} x {cols})")

    def block(self, a, b, c, d) -> tuple[list[Label], list[Label], np.ndarray]:
        """The matrix ``F(abcd)^i_j`` with its admissible row/column labels;
        an unknown label raises InputError.

        Every (row, column) pair of a block is admissible, and the block's
        table rows are sorted by ``(i, j)``, so its values are the matrix in
        row-major order.
        """
        m = self.model
        A, B, C, D = (m.index[m.require_label(x)] for x in (a, b, c, d))
        rows = [m.labels[i] for i in np.flatnonzero(np.logical_and(m.N[A, B], m.N[:, C, D]))]
        cols = [m.labels[j] for j in np.flatnonzero(np.logical_and(m.N[B, C], m.N[A, :, D]))]
        at = np.flatnonzero((self.rows[:, :4] == (A, B, C, D)).all(axis=1))
        return rows, cols, self.values[at].reshape(len(rows), len(cols))


class RSymbolTable(_Table):
    """Complete map of allowed exchange triples ``(a, b, c)`` to complex
    values; ``rows`` holds the allowed vertices.

    Nothing checks that a value is a unit-modulus phase: ``from_json``
    refuses a value that is not a finite ``[re, im]`` pair, and a wrong
    phase shows in :func:`hexagon_residual`.
    """

    _what, _arity, _missing = "R", 3, "R table missing allowed entry"

    @staticmethod
    def _rows_of(structure: _Structure) -> np.ndarray:
        return structure.r_rows

    @staticmethod
    def _keys_of(structure: _Structure) -> MappingProxyType:
        return structure.r_keys


def _table_from_json(text: str, table: type) -> tuple[AnyonModel, _Structure, np.ndarray]:
    """The model, structure and values of a ``table.to_json`` document.

    Each key is refused, in document order, if its labels are not the
    model's (a JSON number equal to a label names it, so ``1.0`` names label
    1; a boolean names none), if it is not one of the structure's rows, or
    if it repeats; then its value if it is not a finite ``[re, im]`` pair.
    The first row no key names raises CompletenessError.
    """
    what, arity = table._what, table._arity
    doc = json.loads(text)
    if not (isinstance(doc, dict) and "model" in doc and isinstance(doc.get("entries"), list)):
        raise InputError(f"{what} table JSON needs a 'model' and an 'entries' list")
    model = AnyonModel.from_doc(doc["model"])
    structure = _structure(model)
    keys, labels, index = table._keys_of(structure), model.labels, model.index.__getitem__
    found = [None] * len(keys)
    for row in doc["entries"]:
        if not (isinstance(row, list) and len(row) == 2 and isinstance(row[0], list)):
            raise InputError(f"{what} entry {row!r} is not a [key, [re, im]] pair")
        raw, value = row
        if len(raw) != arity:
            raise InputError(f"{what} key {raw!r} does not have {arity} labels")
        try:
            at = tuple(map(index, raw))
        except (KeyError, TypeError):
            at = None
        if at is None or bool in map(type, raw):  # True == 1, but true is no label
            raise InputError(f"{what} key {raw!r} has a label outside {list(labels)}")
        position = keys.get(at)
        z = None if position is None or found[position] is not None else _finite_complex(value)
        if z is None:
            key = tuple(labels[x] for x in at)
            if position is None:
                raise InputError(f"{what} entry at {key}, which the fusion rules do not allow")
            if found[position] is not None:
                raise InputError(f"{what} table lists {key} twice")
            raise InputError(f"{what} entry {key}: value {value!r} is not a finite [re, im] pair")
        found[position] = z
    if None in found:
        rows = table._rows_of(structure)
        key = tuple(labels[x] for x in rows[found.index(None)].tolist())
        raise CompletenessError(f"{table._missing} {key}")
    return model, structure, np.array(found, dtype=complex)


def _finite_complex(value) -> complex | None:
    """``[re, im]`` of two JSON numbers as a finite complex, else None."""
    try:
        re, im = value
        if type(re) in (int, float) and type(im) in (int, float):
            z = complex(float(re), float(im))
            if math.isfinite(z.real) and math.isfinite(z.imag):
                return z
    except (TypeError, ValueError, OverflowError):
        pass
    return None


# ---------------------------------------------------------------------------
# admissible tuples as index arrays


def _codes(k: int, columns) -> np.ndarray:
    """One int64 code per row of equal-length label-index columns; two rows
    get the same code exactly when they are equal, and codes keep the
    lexicographic order of the rows.

    Mixed radix ``k``; when the codes could overflow, the partial codes are
    replaced by their ranks before each further digit.
    """
    code = np.asarray(columns[0], dtype=np.int64)
    span = k
    for col in columns[1:]:
        if span > _CODE_SPAN // k:
            code = np.unique(code, return_inverse=True)[1]
            span = len(code)
        code = code * k + col
        span *= k
    return code


def _shared_codes(k: int, left, right) -> tuple[np.ndarray, np.ndarray]:
    """Codes of two sets of columns in one code space."""
    codes = _codes(k, [np.concatenate(pair) for pair in zip(left, right)])
    return codes[: len(left[0])], codes[len(left[0]):]


def _join(left: np.ndarray, right: np.ndarray, what: str) -> tuple[np.ndarray, np.ndarray]:
    """Every index pair ``(p, q)`` with ``left[p] == right[q]``, ordered by ``p``
    and then ``q``.

    The pair count is read off the sorted codes before any pair array is
    allocated; above :data:`PENTAGON_TUPLE_CAP` it raises ResourceError.
    """
    order = right.argsort(kind="stable")
    keys = right[order]
    lo = keys.searchsorted(left, side="left")
    n = keys.searchsorted(left, side="right") - lo
    total = int(n.sum())
    if total > PENTAGON_TUPLE_CAP:
        raise ResourceError(
            f"{what} needs {total} index tuples, over the cap of {PENTAGON_TUPLE_CAP}"
        )
    p = np.arange(len(left)).repeat(n)
    q = order[(lo - n.cumsum() + n).repeat(n) + np.arange(total)]
    return p, q


def _vertices(N: np.ndarray) -> np.ndarray:
    """The allowed fusion vertices ``(x, y -> z)`` of the fusion rules ``N``
    as sorted rows of label indices."""
    return np.argwhere(N)


def _admissible_tuples(N: np.ndarray) -> tuple[np.ndarray, tuple]:
    """The admissible ``(a, b, c, d, i, j)`` of the fusion rules ``N`` as
    sorted rows of label indices, and the first non-square block as
    ``(a, b, c, d, rows, columns)`` (empty if there is none).

    One join of the allowed vertices gives every chain ``(x, y -> z),
    (z, y' -> z')``.  Fusion is commutative, so each chain reads both as a
    left tree ``(a, b -> i), (i, c -> d)`` and as a right tree
    ``(b, c -> j), (j, a -> d)``; the admissible tuples join the two
    readings on ``(a, b, c, d)``.  A block's rows are its left trees and its
    columns its right trees.
    """
    k = len(N)
    x, y, z = _vertices(N).T
    p, q = _join(*_shared_codes(k, [z], [x]), "the F enumeration")
    x, y, z, y2, z2 = x[p], y[p], z[p], y[q], z[q]
    readings = ([x, y, y2, z2], [y2, x, y, z2])  # (a, b, c, d) of each reading
    lc, rc = _shared_codes(k, *readings)
    non_square = ()
    if not np.array_equal(np.sort(lc), np.sort(rc)):  # a block code per row / column
        blocks, at = np.unique(np.concatenate([lc, rc]), return_inverse=True)
        rows = np.bincount(at[: len(lc)], minlength=len(blocks))
        cols = np.bincount(at[len(lc):], minlength=len(blocks))
        bad = np.flatnonzero(rows != cols)[0]
        first = int(np.argmax(at == bad))
        reading = readings[first // len(lc)]
        abcd = (int(col[first % len(lc)]) for col in reading)
        non_square = (*abcd, int(rows[bad]), int(cols[bad]))
    p, q = _join(lc, rc, "the F enumeration")
    tuples = np.array([x[p], y[p], y2[p], z2[p], z[p], z[q]])
    return tuples.T[np.lexsort(tuples[::-1])], non_square


def _label_rows(model: AnyonModel, rows: np.ndarray) -> list[tuple]:
    """Rows of label indices as tuples of labels."""
    labels = np.fromiter(model.labels, dtype=object, count=len(model.labels))
    return list(zip(*labels[rows.T].tolist()))


# ---------------------------------------------------------------------------
# concrete data


@lru_cache(maxsize=1)
def fibonacci_data() -> tuple[AnyonModel, FSymbolTable, RSymbolTable]:
    """The Fibonacci anyon solution of the pentagon and hexagon equations,
    one cached instance (15 F rows and 5 R rows, read-only).

    All admissible F entries with a vacuum label among ``(a, b, c, d)`` are 1;
    the only non-trivial block is the real symmetric matrix
    :data:`FIB_F1111`

        F(1111) = [[1/phi,        1/sqrt(phi)],
                   [1/sqrt(phi), -1/phi      ]]

    and the exchange phases :data:`FIB_R11` are ``R(1,1->0) = exp(4 pi i / 5)``
    and ``R(1,1->1) = -exp(2 pi i / 5)`` with trivial vacuum entries.
    """
    model = fibonacci_model()
    structure = _structure(model)
    rows = structure.f_rows
    values = np.ones(len(rows), dtype=complex)
    tau = np.all(rows[:, :4] == 1, axis=1)  # the F(1111) block; label = index
    values[tau] = FIB_F1111[rows[tau, 4], rows[tau, 5]]
    # the allowed vertices, in row order: 000, 011, 101, 110, 111
    r_values = np.array([1, 1, 1, *FIB_R11], dtype=complex)
    return (model, FSymbolTable._of(model, structure, values),
            RSymbolTable._of(model, structure, r_values))


def trivial_data(model: AnyonModel) -> tuple[FSymbolTable, RSymbolTable]:
    """F == 1 on every admissible tuple and R == 1 on every allowed triple.

    A consistent (pentagon- and hexagon-exact) solution for any abelian
    group model where all fusion multiplicities are one.
    """
    structure = _structure(model)
    return (
        FSymbolTable._of(model, structure, np.ones(len(structure.f_rows), dtype=complex)),
        RSymbolTable._of(model, structure, np.ones(len(structure.r_rows), dtype=complex)),
    )


def gauge_transform(
    f: FSymbolTable, phases: dict[tuple[Label, Label, Label], complex]
) -> FSymbolTable:
    """Rephase fusion-vertex bases by unit phases ``u(x, y, z)`` per vertex.

    ``phases`` is keyed by allowed fusion vertices ``(x, y, z)`` meaning
    ``x`` and ``y`` fuse to ``z``; a vertex left out keeps phase 1, and a
    phase must be a finite unit-modulus number.  The F symbols transform
    with the left tree's vertices over the right tree's:

        F'(abcd)^i_j = F(abcd)^i_j * u(a,b,i) u(i,c,d) / (u(b,c,j) u(a,j,d))

    which leaves the pentagon residual invariant.
    """
    model = f.model
    u = np.ones((len(model.labels),) * 3, dtype=complex)
    for key, phase in phases.items():
        if not (isinstance(key, tuple) and len(key) == 3 and _allowed(model, *key)):
            raise InputError(f"phase attached to non-allowed vertex {key!r}")
        try:
            unit = isinstance(phase, numbers.Number) and abs(abs(complex(phase)) - 1.0) <= 1e-12
        except (TypeError, ValueError, OverflowError):
            unit = False
        if not unit:  # NaN and infinities fail the comparison
            raise InputError(f"gauge phase at {key} is not a finite unit-modulus number")
        u[tuple(model.index[x] for x in key)] = complex(phase)
    A, B, C, D, I, J = f.rows.T
    columns = (f.values, u[A, B, I], u[I, C, D], u[B, C, J], u[A, J, D])
    # Python complex arithmetic, in the order written: numpy's rounds differently
    values = [val * abi * icd / (bcj * ajd)
              for val, abi, icd, bcj, ajd in zip(*(col.tolist() for col in columns))]
    return FSymbolTable._of(model, f.structure, np.array(values, dtype=complex))


# ---------------------------------------------------------------------------
# residual checks
#
# In each kernel the columns ``A, B, C, D, I, J`` of the admissible rows are
# the table slots ``(a, b, c, d, i, j)`` of ``F(abcd)^i_j``; a comment names
# the labels each row stands for in the equation.


def _pentagon_plan(k: int, rows: np.ndarray) -> tuple:
    """The pentagon's joins of ``rows``: ``(lp, lq, p, q, s, left_at,
    right_at, size)``, the rows of each left-side term ``v[lp] v[lq]`` and
    right-side term ``v[p] v[q] v[s]``, and each term's bucket among the
    ``size`` label assignments of either side."""
    A, B, C, D, I, J = rows.T
    # left side: row p is (f,c,d,e,g,l), row q is (a,b,l,e,f,k); shared f, l, e
    lp, lq = _join(*_shared_codes(k, [A, J, D], [I, C, D]), "the pentagon")
    lhs_key = [A[lq], B[lq], B[lp], C[lp], D[lp], A[lp], I[lp], J[lq], J[lp]]
    # right side: row p is (a,b,c,g,f,h), row q is (a,h,d,e,g,k); shared a, g, h
    p, q = _join(*_shared_codes(k, [A, D, J], [A, I, B]), "the pentagon")
    # and row s is (b,c,d,k,h,l); shared b, c, d, k, h
    pq, s = _join(
        *_shared_codes(k, [B[p], C[p], C[q], J[q], J[p]], [A, B, C, D, I]), "the pentagon"
    )
    p, q = p[pq], q[pq]
    rhs_key = [A[p], B[p], C[p], C[q], D[q], I[p], D[p], J[q], J[s]]
    return (lp, lq, p, q, s, *_buckets(k, lhs_key, rhs_key))


def _hexagon_plan(k: int, rows: np.ndarray, vertices: np.ndarray) -> tuple:
    """The hexagon's joins of ``rows``: ``(p, q, mkr, mlq, mpj, right_at)``,
    the F rows of each right-side term ``v[p] rv[mpj] v[q]``, the R rows of
    each left-side term ``rv[mkr] v rv[mlq]``, and the F row each
    right-side term is summed into.

    R positions index the allowed ``vertices``, which are the rows of every
    :class:`RSymbolTable` of the model.
    """
    A, B, C, D, I, J = rows.T
    # right side: row p is (l,k,m,j,p,r), row q is (m,l,k,j,q,p); shared l, k, m, j, p
    p, q = _join(*_shared_codes(k, [A, B, C, D, I], [B, C, A, D, J]), "the hexagon")
    # Fusion is commutative, so R(m,k,r), R(m,l,q) and R(m,p,j) of a row
    # (l,m,k,j,q,r) or (l,k,m,j,p,r) sit at allowed vertices, and every
    # right-side term's (l,m,k,j,q,r) is an admissible row: the left side's
    # rows carry the union of both supports.
    known, asked = _shared_codes(
        k, list(vertices.T), [np.concatenate(c) for c in ((B, B, C), (C, A, I), (J, I, D))]
    )
    mkr, mlq, mpj = known.searchsorted(asked).reshape(3, len(rows))
    known, asked = _shared_codes(k, [A, B, C, D, I, J], [A[p], C[p], B[p], D[p], I[q], J[p]])
    return p, q, mkr, mlq, mpj[p], known.searchsorted(asked)


def _unitarity_plan(k: int, rows: np.ndarray) -> tuple:
    """The Gram products of ``rows``: ``(p, q, diagonal_at, gram_at, size)``,
    the rows of each term ``v[p] conj(v[q])``, and the buckets of the
    identity's ones and of the terms among ``size`` entries of the blocks'
    ``F F^dag``."""
    A, B, C, D, I, J = rows.T
    # (F F^dag)^i_i' sums over pairs of entries sharing (a, b, c, d, j)
    abcdj = _codes(k, [A, B, C, D, J])
    p, q = _join(abcdj, abcdj, "the unitarity check")
    # the identity: one 1 per row label i of each block
    first = np.ones(len(rows), dtype=bool)
    first[1:] = np.any(rows[1:, :5] != rows[:-1, :5], axis=1)
    diagonal = [A[first], B[first], C[first], D[first], I[first], I[first]]
    gram_key = [A[p], B[p], C[p], D[p], I[p], I[q]]
    return (p, q, *_buckets(k, diagonal, gram_key))


def _buckets(k: int, lhs_key, rhs_key) -> tuple[np.ndarray, np.ndarray, int]:
    """``(left_at, right_at, size)``: the position of each row of two sets of
    label-index columns among the ``size`` distinct rows of both."""
    keys, at = np.unique(np.concatenate(_shared_codes(k, lhs_key, rhs_key)),
                         return_inverse=True)
    return at[: len(lhs_key[0])], at[len(lhs_key[0]):], len(keys)


def _frozen(plan: tuple) -> tuple:
    """``plan`` with its arrays made read-only."""
    for part in plan:
        if isinstance(part, np.ndarray):
            part.flags.writeable = False
    return plan


def _deviation(left: np.ndarray, right_at: np.ndarray, terms: np.ndarray) -> float:
    """``max |left - right|``, where ``right`` sums ``terms`` at ``right_at``
    in row order."""
    right = np.zeros(len(left), dtype=complex)
    np.add.at(right, right_at, terms)
    return float(np.max(np.abs(left - right), initial=0.0))


def pentagon_residual(model: AnyonModel, f: FSymbolTable) -> float:
    """Worst absolute deviation of the pentagon identity

        F(fcde)^g_l F(able)^f_k
            = sum_h F(abcg)^f_h F(ahde)^g_k F(bcdk)^h_l

    over all label assignments (a, b, c, d, e, f, g, k, l).  This is the
    tree-oriented statement of the familiar five-recoupling cycle; common
    self-dual shorthands of it (with slots permuted via tetrahedral 6j
    symmetry) coincide with it on every self-dual model.
    """
    if f.model != model:
        raise InputError("F table belongs to a different model")
    lp, lq, p, q, s, left_at, right_at, size = f.structure.pentagon_plan
    v = f.values
    left = np.zeros(size, dtype=complex)
    left[left_at] = v[lp] * v[lq]
    return _deviation(left, right_at, v[p] * v[q] * v[s])


def hexagon_residual(model: AnyonModel, f: FSymbolTable, r: RSymbolTable) -> float:
    """Worst absolute deviation of the hexagon identity

        R(mk)_r F(lmkj)^q_r R(ml)_q
            = sum_p F(lkmj)^p_r R(mp)_j F(mlkj)^q_p

    over all label assignments (m, k, l, j, q, r).
    """
    if f.model != model or r.model != model:
        raise InputError("symbol tables belong to a different model")
    p, q, mkr, mlq, mpj, right_at = f.structure.hexagon_plan
    v, rv = f.values, r.values
    return _deviation(rv[mkr] * v * rv[mlq], right_at, v[p] * rv[mpj] * v[q])


def f_unitarity_residual(model: AnyonModel, f: FSymbolTable) -> float:
    """``max over (a,b,c,d) of max-entry norm of F(abcd) F(abcd)^dag - 1``."""
    if f.model != model:
        raise InputError("F table belongs to a different model")
    if f.non_square:
        raise InvariantViolation(f.non_square)
    p, q, diagonal_at, gram_at, size = f.structure.unitarity_plan
    v = f.values
    left = np.zeros(size, dtype=complex)
    left[diagonal_at] = 1
    return _deviation(left, gram_at, v[p] * v[q].conj())


# ---------------------------------------------------------------------------
# SU(2)_k admissibility


def _as_half_integer(x) -> Fraction:
    v = Fraction(x).limit_denominator(2) if isinstance(x, float) else Fraction(x)
    if v != x or v.denominator not in (1, 2) or v < 0:
        raise InputError(f"{x!r} is not a non-negative half-integer")
    return v


def su2k_admissible(j1, j2, j, k: int) -> bool:
    """Whether ``(j1, j2, j)`` is an allowed fusion triple in SU(2)_k.

    Requires the triangle rule ``|j1 - j2| <= j <= j1 + j2`` with integer
    ``j1 + j2 + j``, every spin bounded by ``k/2``, and the level truncation
    ``j1 + j2 + j <= k``.
    """
    if k < 1:
        raise InputError("level k must be a positive integer")
    a, b, c = _as_half_integer(j1), _as_half_integer(j2), _as_half_integer(j)
    if (a + b + c).denominator != 1:
        return False
    if not (abs(a - b) <= c <= a + b):
        return False
    if max(a, b, c) > Fraction(k, 2):
        return False
    return a + b + c <= k
