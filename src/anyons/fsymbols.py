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

Every check runs over the admissible tuples only.  Each check enumerates
them as an ``(m, 6)`` array of label indices, by joining the allowed fusion
vertices of the two trees above.  Each side of the pentagon
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
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction

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


def f_admissible(model: AnyonModel, a, b, c, d, i, j) -> bool:
    """True when all four vertex triples of ``F(abcd)^i_j`` are allowed:
    ``(a, b -> i)``, ``(i, c -> d)``, ``(b, c -> j)``, ``(a, j -> d)``."""
    return bool(
        model.n(a, b, i)
        and model.n(i, c, d)
        and model.n(b, c, j)
        and model.n(a, j, d)
    )


@dataclass(frozen=True)
class FSymbolTable:
    """Complete map of admissible ``(a, b, c, d, i, j)`` tuples to values."""

    model: AnyonModel
    entries: dict[tuple[Label, Label, Label, Label, Label, Label], complex]

    def value(self, a, b, c, d, i, j) -> complex:
        key = (a, b, c, d, i, j)
        if not f_admissible(self.model, *key):
            return 0.0
        try:
            return self.entries[key]
        except KeyError:
            raise CompletenessError(f"F table missing admissible entry {key}") from None

    def check_complete(self):
        _f_values(self, _admissible_tuples(self.model)[0])

    def block(self, a, b, c, d) -> tuple[list[Label], list[Label], np.ndarray]:
        """The matrix ``F(abcd)^i_j`` with its admissible row/column labels."""
        m = self.model
        rows = [i for i in m.labels if m.n(a, b, i) and m.n(i, c, d)]
        cols = [j for j in m.labels if m.n(b, c, j) and m.n(a, j, d)]
        mat = np.array(
            [[self.value(a, b, c, d, i, j) for j in cols] for i in rows],
            dtype=complex,
        ).reshape(len(rows), len(cols))
        return rows, cols, mat

    def to_json(self) -> str:
        doc = {
            "model": json.loads(self.model.to_json()),
            "entries": [
                [list(k), [complex(v).real, complex(v).imag]]
                for k, v in sorted(self.entries.items(), key=lambda kv: str(kv[0]))
            ],
        }
        return json.dumps(doc, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "FSymbolTable":
        """Parse a :meth:`to_json` document; every entry must sit at an
        admissible key of the model and hold a finite ``[re, im]`` pair."""
        return cls(*_table_from_json(text, "F"))


@dataclass(frozen=True)
class RSymbolTable:
    """Map of allowed exchange triples ``(a, b, c)`` to unit-modulus phases."""

    model: AnyonModel
    entries: dict[tuple[Label, Label, Label], complex]

    def value(self, a, b, c) -> complex:
        key = (a, b, c)
        if not self.model.n(a, b, c):
            return 0.0
        try:
            return self.entries[key]
        except KeyError:
            raise CompletenessError(f"R table missing allowed entry {key}") from None

    def check_complete(self):
        _r_data(self)

    def to_json(self) -> str:
        doc = {
            "model": json.loads(self.model.to_json()),
            "entries": [
                [list(k), [v.real, v.imag]]
                for k, v in sorted(self.entries.items(), key=lambda kv: str(kv[0]))
            ],
        }
        return json.dumps(doc, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "RSymbolTable":
        """Parse a :meth:`to_json` document; every entry must sit at an
        allowed fusion triple of the model and hold a finite ``[re, im]``."""
        return cls(*_table_from_json(text, "R"))


def _table_from_json(text: str, what: str) -> tuple[AnyonModel, dict]:
    doc = json.loads(text)
    if not (isinstance(doc, dict) and "model" in doc and isinstance(doc.get("entries"), list)):
        raise InputError(f"{what} table JSON needs a 'model' and an 'entries' list")
    model = AnyonModel.from_json(json.dumps(doc["model"]))
    arity = 6 if what == "F" else 3
    canonical = {label: label for label in model.labels}  # 1.0 names label 1
    entries = {}
    for row in doc["entries"]:
        if not (isinstance(row, list) and len(row) == 2 and isinstance(row[0], list)):
            raise InputError(f"{what} entry {row!r} is not a [key, [re, im]] pair")
        raw, value = row
        if len(raw) != arity:
            raise InputError(f"{what} key {raw!r} does not have {arity} labels")
        try:
            key = tuple(canonical[x] for x in raw)
        except (KeyError, TypeError):
            raise InputError(
                f"{what} key {raw!r} has a label outside {list(model.labels)}"
            ) from None
        if not (f_admissible(model, *key) if what == "F" else model.n(*key)):
            raise InputError(f"{what} entry at {key}, which the fusion rules do not allow")
        if key in entries:
            raise InputError(f"{what} table lists {key} twice")
        entries[key] = _finite_complex(value, f"{what} entry {key}")
    return model, entries


def _finite_complex(value, where: str) -> complex:
    try:
        re, im = value
        if type(re) in (int, float) and type(im) in (int, float):
            z = complex(float(re), float(im))
            if math.isfinite(z.real) and math.isfinite(z.imag):
                return z
    except (TypeError, ValueError, OverflowError):
        pass
    raise InputError(f"{where}: value {value!r} is not a finite [re, im] pair")


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


def _vertices(model: AnyonModel) -> np.ndarray:
    """The allowed fusion vertices ``(x, y -> z)`` as sorted rows of label indices."""
    index = {label: i for i, label in enumerate(model.labels)}
    rows = sorted(
        (index[a], index[b], index[c]) for (a, b, c), m in model.fusion.items() if m
    )
    return np.array(rows, dtype=np.int64).reshape(-1, 3)


def _admissible_tuples(model: AnyonModel) -> tuple[np.ndarray, str]:
    """The admissible ``(a, b, c, d, i, j)`` as sorted rows of label indices,
    and a message naming the first non-square block (empty if there is none).

    One join of the allowed vertices gives every chain ``(x, y -> z),
    (z, y' -> z')``.  Fusion is commutative, so each chain reads both as a
    left tree ``(a, b -> i), (i, c -> d)`` and as a right tree
    ``(b, c -> j), (j, a -> d)``; the admissible tuples join the two
    readings on ``(a, b, c, d)``.  A block's rows are its left trees and its
    columns its right trees.
    """
    k = len(model.labels)
    x, y, z = _vertices(model).T
    p, q = _join(*_shared_codes(k, [z], [x]), "the F enumeration")
    x, y, z, y2, z2 = x[p], y[p], z[p], y[q], z[q]
    readings = ([x, y, y2, z2], [y2, x, y, z2])  # (a, b, c, d) of each reading
    lc, rc = _shared_codes(k, *readings)
    non_square = ""
    if not np.array_equal(np.sort(lc), np.sort(rc)):  # a block code per row / column
        blocks, at = np.unique(np.concatenate([lc, rc]), return_inverse=True)
        rows = np.bincount(at[: len(lc)], minlength=len(blocks))
        cols = np.bincount(at[len(lc):], minlength=len(blocks))
        bad = np.flatnonzero(rows != cols)[0]
        first = int(np.argmax(at == bad))
        reading = readings[first // len(lc)]
        abcd = tuple(model.labels[int(col[first % len(lc)])] for col in reading)
        non_square = f"F block {abcd} is not square ({rows[bad]} x {cols[bad]})"
    p, q = _join(lc, rc, "the F enumeration")
    tuples = np.array([x[p], y[p], y2[p], z2[p], z[p], z[q]])
    return tuples.T[np.lexsort(tuples[::-1])], non_square


def _label_rows(model: AnyonModel, rows: np.ndarray) -> list[tuple]:
    """Rows of label indices as tuples of labels."""
    labels = np.fromiter(model.labels, dtype=object, count=len(model.labels))
    return list(zip(*labels[rows.T].tolist()))


def _values(entries: dict, keys: list[tuple], missing: str) -> np.ndarray:
    try:
        return np.array([entries[key] for key in keys], dtype=complex)
    except KeyError as exc:
        raise CompletenessError(f"{missing} {exc.args[0]}") from None


def _f_values(f: FSymbolTable, rows: np.ndarray) -> np.ndarray:
    """The values of ``f`` at admissible rows; missing ones raise CompletenessError."""
    return _values(f.entries, _label_rows(f.model, rows), "F table missing admissible entry")


def _r_data(r: RSymbolTable) -> tuple[np.ndarray, np.ndarray]:
    """Allowed vertices of ``r``'s model and their values."""
    vertices = _vertices(r.model)
    keys = _label_rows(r.model, vertices)
    return vertices, _values(r.entries, keys, "R table missing allowed entry")


def _max_deviation(k: int, lhs_key, lhs: np.ndarray, rhs_key, rhs: np.ndarray) -> float:
    """``max |lhs - rhs|`` over the union of both supports.

    ``lhs_key``/``rhs_key`` are label-index columns, one row per value; the
    ``lhs`` rows have distinct keys, and ``rhs`` values with equal keys (the
    terms of the contracted label) are summed in row order.
    """
    keys, at = np.unique(np.concatenate(_shared_codes(k, lhs_key, rhs_key)),
                         return_inverse=True)
    left = np.zeros(len(keys), dtype=complex)
    left[at[: len(lhs)]] = lhs
    right = np.zeros(len(keys), dtype=complex)
    np.add.at(right, at[len(lhs):], rhs)
    return float(np.max(np.abs(left - right), initial=0.0))


# ---------------------------------------------------------------------------
# concrete data


def fibonacci_data() -> tuple[AnyonModel, FSymbolTable, RSymbolTable]:
    """The Fibonacci anyon solution of the pentagon and hexagon equations.

    All admissible F entries with a vacuum label among ``(a, b, c, d)`` are 1;
    the only non-trivial block is the real symmetric matrix
    :data:`FIB_F1111`

        F(1111) = [[1/phi,        1/sqrt(phi)],
                   [1/sqrt(phi), -1/phi      ]]

    and the exchange phases :data:`FIB_R11` are ``R(1,1->0) = exp(4 pi i / 5)``
    and ``R(1,1->1) = -exp(2 pi i / 5)`` with trivial vacuum entries.
    """
    model = fibonacci_model()
    entries = dict.fromkeys(_label_rows(model, _admissible_tuples(model)[0]), 1.0 + 0.0j)
    for i in (0, 1):
        for j in (0, 1):
            entries[(1, 1, 1, 1, i, j)] = complex(FIB_F1111[i, j])
    r_entries = {
        (0, 0, 0): 1.0 + 0.0j,
        (0, 1, 1): 1.0 + 0.0j,
        (1, 0, 1): 1.0 + 0.0j,
        (1, 1, 0): FIB_R11[0],
        (1, 1, 1): FIB_R11[1],
    }
    return model, FSymbolTable(model, entries), RSymbolTable(model, r_entries)


def trivial_data(model: AnyonModel) -> tuple[FSymbolTable, RSymbolTable]:
    """F == 1 on every admissible tuple and R == 1 on every allowed triple.

    A consistent (pentagon- and hexagon-exact) solution for any abelian
    group model where all fusion multiplicities are one.
    """
    f_keys = _label_rows(model, _admissible_tuples(model)[0])
    r_keys = _label_rows(model, _vertices(model))
    return (
        FSymbolTable(model, dict.fromkeys(f_keys, 1.0 + 0.0j)),
        RSymbolTable(model, dict.fromkeys(r_keys, 1.0 + 0.0j)),
    )


def gauge_transform(
    f: FSymbolTable, phases: dict[tuple[Label, Label, Label], complex]
) -> FSymbolTable:
    """Rephase fusion-vertex bases by unit phases ``u(x, y, z)`` per vertex.

    ``phases`` is keyed by allowed fusion vertices ``(x, y, z)`` meaning
    ``x`` and ``y`` fuse to ``z``.  The F symbols transform with the left
    tree's vertices over the right tree's:

        F'(abcd)^i_j = F(abcd)^i_j * u(a,b,i) u(i,c,d) / (u(b,c,j) u(a,j,d))

    which leaves the pentagon residual invariant.
    """
    for key, u in phases.items():
        if not f.model.n(*key):
            raise InputError(f"phase attached to non-allowed vertex {key}")
        if abs(abs(u) - 1.0) > 1e-12:
            raise InputError(f"gauge phase at {key} is not unit modulus")
    out = {}
    for (a, b, c, d, i, j), val in f.entries.items():
        out[(a, b, c, d, i, j)] = (
            val
            * phases.get((a, b, i), 1.0)
            * phases.get((i, c, d), 1.0)
            / (phases.get((b, c, j), 1.0) * phases.get((a, j, d), 1.0))
        )
    return FSymbolTable(f.model, out)


# ---------------------------------------------------------------------------
# residual checks
#
# In each kernel the columns ``A, B, C, D, I, J`` of the admissible rows are
# the table slots ``(a, b, c, d, i, j)`` of ``F(abcd)^i_j``; a comment names
# the labels each row stands for in the equation.


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
    rows, _ = _admissible_tuples(model)
    k = len(model.labels)
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
    # the joins above hold the caps; the values are read only now
    v = _f_values(f, rows)
    lhs = v[lp] * v[lq]
    rhs = v[p] * v[q] * v[s]
    return _max_deviation(k, lhs_key, lhs, rhs_key, rhs)


def hexagon_residual(model: AnyonModel, f: FSymbolTable, r: RSymbolTable) -> float:
    """Worst absolute deviation of the hexagon identity

        R(mk)_r F(lmkj)^q_r R(ml)_q
            = sum_p F(lkmj)^p_r R(mp)_j F(mlkj)^q_p

    over all label assignments (m, k, l, j, q, r).
    """
    if f.model != model or r.model != model:
        raise InputError("symbol tables belong to a different model")
    rows, _ = _admissible_tuples(model)
    k = len(model.labels)
    A, B, C, D, I, J = rows.T
    # right side: row p is (l,k,m,j,p,r), row q is (m,l,k,j,q,p); shared l, k, m, j, p
    p, q = _join(*_shared_codes(k, [A, B, C, D, I], [B, C, A, D, J]), "the hexagon")
    v = _f_values(f, rows)
    vertices, rv = _r_data(r)
    # Fusion is commutative, so R(m,k,r), R(m,l,q) and R(m,p,j) of a row
    # (l,m,k,j,q,r) or (l,k,m,j,p,r) sit at allowed vertices, and every
    # right-side term's (l,m,k,j,q,r) is an admissible row: the left side's
    # rows carry the union of both supports.
    known, asked = _shared_codes(
        k, list(vertices.T), [np.concatenate(c) for c in ((B, B, C), (C, A, I), (J, I, D))]
    )
    r_mkr, r_mlq, r_mpj = rv[known.searchsorted(asked)].reshape(3, len(rows))
    lhs = r_mkr * v * r_mlq
    known, asked = _shared_codes(k, [A, B, C, D, I, J], [A[p], C[p], B[p], D[p], I[q], J[p]])
    rhs = np.zeros(len(rows), dtype=complex)
    np.add.at(rhs, known.searchsorted(asked), v[p] * r_mpj[p] * v[q])
    return float(np.max(np.abs(lhs - rhs), initial=0.0))


def f_unitarity_residual(model: AnyonModel, f: FSymbolTable) -> float:
    """``max over (a,b,c,d) of max-entry norm of F(abcd) F(abcd)^dag - 1``."""
    if f.model != model:
        raise InputError("F table belongs to a different model")
    rows, non_square = _admissible_tuples(model)
    if non_square:
        raise InvariantViolation(non_square)
    k = len(model.labels)
    A, B, C, D, I, J = rows.T
    # (F F^dag)^i_i' sums over pairs of entries sharing (a, b, c, d, j)
    abcdj = _codes(k, [A, B, C, D, J])
    p, q = _join(abcdj, abcdj, "the unitarity check")
    v = _f_values(f, rows)
    # the identity: one 1 per row label i of each block
    first = np.ones(len(rows), dtype=bool)
    first[1:] = np.any(rows[1:, :5] != rows[:-1, :5], axis=1)
    diagonal = [A[first], B[first], C[first], D[first], I[first], I[first]]
    gram_key = [A[p], B[p], C[p], D[p], I[p], I[q]]
    return _max_deviation(
        k, diagonal, np.ones(int(first.sum()), dtype=complex), gram_key, v[p] * v[q].conj()
    )


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
