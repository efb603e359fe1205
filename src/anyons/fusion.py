"""Fusion-rule algebra for anyon models.

An :class:`AnyonModel` is a commutative fusion ring presented by a label set,
a vacuum label, a dual (antiparticle) map and a non-negative multiplicity
tensor ``N[a, b, c]`` giving the number of ways ``a x b`` can fuse to ``c``.
The model is given the tensor as a sparse ``{(a, b, c): m}`` dict and holds
it as one read-only int64 array ``N`` of shape ``(k, k, k)`` over label
indices; every operation here reads that array.  On top of it this module
computes fusion products, fusion-space dimensions and the left-associated
fusion trees (both from one backward count in exact integers; a tuple of
internal labels per tree, listed column by column in time linear in the
labels), quantum dimensions, the total quantum dimension
``D = sqrt(sum_j d_j^2)`` and the topological entropy ``log D``.

Fusion trees are left associated throughout: leaves ``l1 .. ln`` are fused
as ``((l1 x l2) x l3) x ...``; other bracketings are reachable by F-moves
(see :mod:`anyons.fsymbols`) and are deliberately not represented here.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import InitVar, dataclass, field
from fractions import Fraction
from types import MappingProxyType
from typing import Hashable, Mapping, Sequence

import numpy as np

from .errors import InputError, NumericError, ResourceError

Label = Hashable

#: Fixed-point iteration of :func:`quantum_dimensions`: the default
#: tolerance and the iteration limit.
QDIM_TOL = 1e-12
QDIM_MAX_ITER = 100_000

#: Cap on the number of trees :func:`enumerate_fusion_trees` will list.
TREE_CAP = 200_000

#: Cap on the internal labels :func:`enumerate_fusion_trees` will list, trees
#: times (leaves - 2), checked after :data:`TREE_CAP`: vacuum leaves lengthen
#: every tree without adding trees.  Listing and printing take about 120 ns
#: and 20 B of ``tracemalloc`` peak per label through ``anyons fusion-trees``
#: (2-core x86, Python 3.11), so about 0.25 s and 42 MB at the cap.
LISTED_LABEL_CAP = 2 ** 21

#: Most labels an :class:`AnyonModel` may have, checked before its
#: ``(k, k, k)`` int64 tensor is allocated: building and checking a model at
#: the cap holds that tensor and two byte copies of it, 3 * 8 * 128^3 bytes,
#: about 50 MB.
LABEL_CAP = 128

#: Most decimal digits a fusion-space dimension may have: the default limit
#: of Python's int-to-str conversion, past which the exact count cannot be
#: printed.
DIM_DIGITS_CAP = 4300

#: Most products counting the trees of n leaves over k labels may cost, taken
#: as ``(n - 1) max(k^2, 100)``: 15 ns a product, 1 us a leaf to count, 3 us
#: more to list.  At the cap (2-core x86, Python 3.11): 0.13 s to count 611
#: leaves at k = 128; 0.5 s, the slowest, to list 100,001 leaves at k = 10.
FUSION_WORK_CAP = 10 ** 7

#: Largest ``d`` that :func:`named_model` builds for ``z_d:<d>``.  Building a
#: model fills its d^3 tensor and checks it with array comparisons, and the
#: quantum dimensions iterate a d x d matrix: z_d:64 builds once per process,
#: in about 5 ms (2.4 MB held), and its dimensions take about 0.5 ms (2-core
#: x86, Python 3.11, numpy 2.4).
#: The cap stays at 64 because there the F enumeration of
#: :mod:`anyons.fsymbols` (d^3 tuples) meets its ``PENTAGON_TUPLE_CAP``.
Z_D_CAP = 64


@dataclass(frozen=True, eq=False)
class AnyonModel:
    """A finite commutative fusion ring.

    Parameters
    ----------
    labels : ordered particle labels; the order fixes output ordering of
        every operation in this module.
    vacuum : the identity label.
    dual : antiparticle map, ``dual[a] x a`` must contain the vacuum.
    fusion : sparse multiplicity tensor ``{(a, b, c): N^c_ab}``; absent
        entries are zero.  A multiplicity must fit in int64.  Read once into
        ``N`` and not held.

    The model holds ``dual`` as a read-only view of its own copy, so a
    model shared by many callers cannot change under them.  Built once, and
    neither printed nor serialised:

    index : the label order as a read-only map ``{labels[i]: i}``.
    N : the fusion rules, held only here, as a read-only int64 array of
        shape ``(k, k, k)`` over label indices,
        ``N[index[a], index[b], index[c]] = N^c_ab``.

    Two models are equal when their labels, vacuum, dual and ``N`` are; the
    name is not compared.  The hash reads the labels and vacuum only.
    """

    labels: tuple[Label, ...]
    vacuum: Label
    dual: Mapping[Label, Label]
    fusion: InitVar[Mapping[tuple[Label, Label, Label], int]]
    name: str = ""
    index: Mapping[Label, int] = field(init=False, repr=False)
    N: np.ndarray = field(init=False, repr=False)

    def __post_init__(self, fusion):
        try:
            index = {label: i for i, label in enumerate(self.labels)}
        except TypeError:
            raise InputError(f"labels {list(self.labels)} are not all hashable") from None
        if len(index) != len(self.labels):
            raise InputError(f"labels {list(self.labels)} repeat")
        if self.vacuum not in index:
            raise InputError(f"vacuum {self.vacuum!r} not among labels")
        for a, b in self.dual.items():
            if a not in index or b not in index:
                raise InputError(f"dual map mentions unknown label {a!r} or {b!r}")
        if len(self.dual) != len(self.labels):
            raise InputError("dual map must give every label a dual")
        k = len(self.labels)
        if k > LABEL_CAP:
            raise ResourceError(f"{k} labels exceed the cap of {LABEL_CAP}")
        N = np.zeros((k, k, k), dtype=np.int64)
        for (a, b, c), m in fusion.items():
            if isinstance(m, bool) or not isinstance(m, (int, np.integer)) or m < 0:
                raise InputError(f"multiplicity at {(a, b, c)} is not a non-negative integer")
            try:
                N[index[a], index[b], index[c]] = m
            except KeyError:
                unknown = next(x for x in (a, b, c) if x not in index)
                raise InputError(f"fusion tensor mentions unknown label {unknown!r}") from None
            except OverflowError:
                raise InputError(f"multiplicity {m} at {(a, b, c)} does not fit in int64") from None
        N.flags.writeable = False
        object.__setattr__(self, "dual", MappingProxyType(dict(self.dual)))
        object.__setattr__(self, "index", MappingProxyType(index))
        object.__setattr__(self, "N", N)
        self._check_invariants()

    def __eq__(self, other) -> bool:
        if self is other:  # a cached built-in, compared by every F/R residual
            return True
        if not isinstance(other, AnyonModel):
            return NotImplemented
        # equal labels give equal shapes, so byte equality of N is exact
        return (self.labels == other.labels and self.vacuum == other.vacuum
                and self.dual == other.dual and self.N.tobytes() == other.N.tobytes())

    def __hash__(self) -> int:
        # equal models have equal labels and vacuum; N is left out, as hashing
        # it would cost a pass over k^3 entries per lookup
        return hash((self.labels, self.vacuum))

    def _check_invariants(self):
        # byte equality of int64 arrays is exact and, at a few labels, cheaper
        # than an elementwise test; offenders are located only on failure
        N, labels, v = self.N, self.labels, self.index[self.vacuum]
        k = len(labels)
        eye = np.eye(k, dtype=np.int64)
        if N[v].tobytes() != eye.tobytes():
            a, c = np.argwhere(N[v] != eye)[0]
            raise InputError(f"vacuum is not a fusion identity at ({labels[a]!r}, {labels[c]!r})")
        swapped = N.swapaxes(0, 1)
        if N.tobytes() != swapped.tobytes():
            # the first offender in index order has a < b: (b, a, c) offends too
            a, b, c = np.argwhere(N != swapped)[0]
            raise InputError(
                f"fusion not commutative at ({labels[a]!r}, {labels[b]!r}, {labels[c]!r})"
            )
        # N[a, dual[a], vacuum] for every a, gathered by flat index
        annihilates = N.take([(a * k + self.index[self.dual[x]]) * k + v
                              for a, x in enumerate(labels)])
        if not annihilates.all():
            a = labels[np.argmin(annihilates)]
            raise InputError(f"{a!r} does not annihilate with its dual")

    def n(self, a: Label, b: Label, c: Label) -> int:
        """Multiplicity ``N^c_ab``, read from ``N``."""
        return int(self.N[self.index[a], self.index[b], self.index[c]])

    def require_label(self, a: Label) -> Label:
        if a not in self.index:
            raise InputError(f"unknown label {a!r} (model has {list(self.labels)})")
        return a

    # -- serialization ----------------------------------------------------

    def to_json(self) -> str:
        doc = {
            "labels": list(self.labels),
            "vacuum": self.vacuum,
            "dual": [[a, self.dual[a]] for a in self.labels],
            "fusion": [  # argwhere's rows are in label-index order
                [self.labels[a], self.labels[b], self.labels[c], int(self.N[a, b, c])]
                for a, b, c in np.argwhere(self.N).tolist()
            ],
            "name": self.name,
        }
        return json.dumps(doc, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "AnyonModel":
        return cls.from_doc(json.loads(text))

    @classmethod
    def from_doc(cls, doc) -> "AnyonModel":
        """The model of a parsed :meth:`to_json` document."""
        try:
            fields = dict(
                labels=tuple(doc["labels"]),
                vacuum=doc["vacuum"],
                dual={a: b for a, b in doc["dual"]},
                fusion={(a, b, c): m for a, b, c, m in doc["fusion"]},
                name=doc.get("name", ""),
            )
        except (KeyError, TypeError, ValueError, AttributeError) as exc:
            raise InputError(f"malformed model document ({type(exc).__name__}: {exc})") from None
        return cls(**fields)


# ---------------------------------------------------------------------------
# built-in models


@functools.lru_cache(maxsize=1)
def fibonacci_model() -> AnyonModel:
    """Fibonacci anyons: labels 0 (vacuum) and 1 (tau), with 1 x 1 = 0 + 1.

    Every call returns one cached instance.
    """
    fusion = {
        (0, 0, 0): 1,
        (0, 1, 1): 1,
        (1, 0, 1): 1,
        (1, 1, 0): 1,
        (1, 1, 1): 1,
    }
    return AnyonModel((0, 1), 0, {0: 0, 1: 1}, fusion, name="fibonacci")


@functools.lru_cache(maxsize=8)
def zd_model(d: int) -> AnyonModel:
    """Abelian Z_d model: labels 0..d-1 fusing additively mod d.

    Every call with one ``d`` returns one cached instance.  The cache holds
    at most 8 models: z_d:64 holds about 2.4 MB and the largest, z_d:128
    (:data:`LABEL_CAP` labels), about 18 MB, so z_d:121 to z_d:128 hold
    about 136 MB at worst, and the eight largest built-ins of
    :func:`named_model` (d <= :data:`Z_D_CAP`) about 17 MB.
    """
    if d < 1:
        raise InputError("z_d model needs d >= 1")
    fusion = {(a, b, (a + b) % d): 1 for a in range(d) for b in range(d)}
    return AnyonModel(tuple(range(d)), 0, {a: (-a) % d for a in range(d)}, fusion,
                      name=f"z_d:{d}")


@functools.lru_cache(maxsize=1)
def toric_model() -> AnyonModel:
    """Z_2 gauge theory anyons of the toric code: 1, e, m, em; every call
    returns one cached instance."""
    labels = ("1", "e", "m", "em")
    charge = {"1": (0, 0), "e": (1, 0), "m": (0, 1), "em": (1, 1)}
    inv = {v: k for k, v in charge.items()}
    fusion = {}
    for a in labels:
        for b in labels:
            c = inv[((charge[a][0] + charge[b][0]) % 2,
                     (charge[a][1] + charge[b][1]) % 2)]
            fusion[(a, b, c)] = 1
    return AnyonModel(labels, "1", {a: a for a in labels}, fusion, name="toric")


def named_model(name: str) -> AnyonModel:
    """Look up a built-in model: ``fibonacci``, ``z_d:<d>`` or ``toric``,
    one cached instance per model."""
    if name == "fibonacci":
        return fibonacci_model()
    if name == "toric":
        return toric_model()
    if name.startswith("z_d:"):
        try:
            d = int(name.split(":", 1)[1])
        except ValueError:
            raise InputError(f"bad z_d model name {name!r}") from None
        if d > Z_D_CAP:
            raise ResourceError(f"z_d:{d} exceeds the cap d <= {Z_D_CAP}")
        return zd_model(d)
    raise InputError(f"unknown model {name!r} (try fibonacci, z_d:<d>, toric)")


# ---------------------------------------------------------------------------
# operations


def fuse(model: AnyonModel, a: Label, b: Label) -> list[tuple[Label, int]]:
    """Fusion product ``a x b`` as ``[(c, N^c_ab), ...]`` in label order."""
    row = model.N[model.index[model.require_label(a)], model.index[model.require_label(b)]]
    return [(model.labels[c], m) for c, m in enumerate(row.tolist()) if m]


def check_fusion_work(model: AnyonModel, leaves: int) -> None:
    """ResourceError when ``leaves`` leaves cost over :data:`FUSION_WORK_CAP`; reads no label."""
    work = (leaves - 1) * max(len(model.labels) ** 2, 100)
    if work > FUSION_WORK_CAP:
        raise ResourceError(f"{leaves} leaves over {len(model.labels)} labels need {work} "
                            f"products, over the cap of {FUSION_WORK_CAP}")


def _tree_counts(model: AnyonModel, inputs: Sequence[Label], total: Label):
    """The leaves as label indices and ``counts[j][c]``, the ways outcome
    ``c`` after leaf ``j`` fuses with the later leaves to the total, for each
    leaf but the last, from one backward pass over the slices ``N[:, leaf]``
    in Python integers; a vacuum leaf, whose slice is the identity (a model
    invariant), keeps the counts.  The caps are checked before any step."""
    if not inputs:
        raise InputError("inputs must be non-empty")
    check_fusion_work(model, len(inputs))
    *leaves, t = [model.index[model.require_label(a)] for a in (*inputs, total)]
    distinct = sorted(set(leaves[1:]))
    # a step multiplies the count by at most the largest row sum of a leaf
    # slice, below k * 2^63, so only long inputs need the row sums
    if (len(leaves) - 1) * math.log10(len(model.labels) * 2.0**63) >= DIM_DIGITS_CAP:
        rows = model.N[:, distinct].sum(axis=2, dtype=float)  # floats: no int64 overflow
        if (len(leaves) - 1) * math.log10(rows.max(initial=1.0)) >= DIM_DIGITS_CAP:
            raise ResourceError(
                f"the dimension of {len(leaves)} leaves could exceed {DIM_DIGITS_CAP} digits"
            )
    slices = {leaf: model.N[:, leaf].astype(object) for leaf in distinct}
    v = model.index[model.vacuum]
    # after the next-to-last leaf: column t of the last slice (a lone leaf: of the vacuum's)
    count = slices[leaves[-1]][:, t] if len(leaves) > 1 else model.N[:, v, t].astype(object)
    counts = [count]
    for leaf in leaves[-2:0:-1]:
        if leaf != v:
            count = slices[leaf].dot(count)
        counts.append(count)
    return leaves, counts[::-1]


def fusion_space_dim(model: AnyonModel, inputs: Sequence[Label], total: Label) -> int:
    """Number of left-associated fusion trees taking ``inputs`` to ``total``,
    exact, by :func:`_tree_counts` (which applies the caps)."""
    leaves, counts = _tree_counts(model, inputs, total)
    return counts[0][leaves[0]]


def enumerate_fusion_trees(
    model: AnyonModel,
    inputs: Sequence[Label],
    total: Label,
    names: Sequence | None = None,
) -> list[tuple]:
    """Every fusion tree with the given leaves and total, in lexicographic
    order, as the tuple of its internal labels.

    A tree's tuple holds the running outcome after each of the leaves 2 to
    n - 1, so it has n - 2 entries (none for one or two leaves, where the
    total closes the tree); ``names``, in label order, gives what to list for
    each label, the labels themselves by default.  A multiplicity ``m > 1``
    lists the whole block of trees through that vertex ``m`` times in place.

    The backward count of :func:`fusion_space_dim` gives the trees below each
    outcome after each leaf; their number is refused past :data:`TREE_CAP`,
    and times n - 2 past :data:`LISTED_LABEL_CAP`.  A forward pass walks the
    trie depth by depth, a node per copy of a multiplicity, and lists a column
    per depth: each node's name once per tree below it, zipped into tuples.
    """
    leaves, counts = _tree_counts(model, inputs, total)
    dim = counts[0][leaves[0]]
    if dim > TREE_CAP:
        raise ResourceError(f"{dim} trees exceed the tree cap {TREE_CAP}")
    listed = dim * max(len(leaves) - 2, 0)
    if listed > LISTED_LABEL_CAP:
        raise ResourceError(
            f"{dim} trees of {len(leaves) - 2} internal labels each list {listed} labels, "
            f"over the cap of {LISTED_LABEL_CAP}"
        )
    if dim == 0 or len(leaves) <= 2:
        return [()] * dim
    names = model.labels if names is None else names
    v = model.index[model.vacuum]  # a vacuum leaf repeats the column before it
    # the trie's nodes at each depth, in tree order
    nodes, columns = [leaves[0]], []
    for leaf, size in zip(leaves[1:-1], counts[1:]):
        if leaf == v and columns:
            columns.append(columns[-1])
            continue
        row, size = model.N[:, leaf], size.tolist()  # row[c][c2] = N^c2_{c,leaf}
        kids, runs = {}, {}
        for c in set(nodes):
            kids[c] = [c2 for c2, m in enumerate(row[c].tolist()) if size[c2] for _ in range(m)]
            runs[c] = []
            for c2 in kids[c]:
                runs[c] += [names[c2]] * size[c2]
        parents, nodes, column = nodes, [], []
        for c in parents:
            nodes += kids[c]
            column += runs[c]
        columns.append(column)
    return list(zip(*columns))


def quantum_dimensions(
    model: AnyonModel,
    tol: float = QDIM_TOL,
) -> dict[Label, float]:
    """The unique positive solution of ``d_a d_b = sum_c N^c_ab d_c``.

    The dimension vector is the common Perron eigenvector of all fusion
    matrices; it is found by fixed-point iteration of
    ``M[b, c] = sum_a N[a, b, c]`` from the all-ones vector, renormalised so
    the vacuum has dimension exactly 1.

    ``M`` is irreducible and aperiodic for every model, so that vector is
    unique: the vacuum row ``M[v, c] = N[c, v, c] = 1`` reaches every label,
    and every label ``b`` reaches the vacuum through its dual,
    ``M[b, v] >= N[dual(b), b, v] > 0`` (both are invariants the model checks
    when it is built).
    """
    k = len(model.labels)
    M = model.N.sum(axis=0).astype(float)
    iv = model.index[model.vacuum]
    v = np.ones(k)
    for _ in range(QDIM_MAX_ITER):
        nxt = M @ v
        nxt /= nxt[iv]
        if np.abs(nxt - v).max() < tol:
            v = nxt
            break
        v = nxt
    else:
        raise NumericError(
            f"quantum dimensions did not converge in {QDIM_MAX_ITER} iterations"
        )
    dims = {a: float(v[i]) for i, a in enumerate(model.labels)}
    resid = product_rule_residual(model, dims)
    if not resid < math.sqrt(tol):
        raise NumericError(f"product-rule residual {resid} after convergence")
    return dims


def product_rule_residual(model: AnyonModel, dims: dict[Label, float]) -> float:
    """``max_{a,b} |d_a d_b - sum_c N^c_ab d_c|`` for a candidate solution."""
    d = np.array([dims[a] for a in model.labels])
    return float(np.abs(np.outer(d, d) - model.N @ d).max())


def total_dimension_entropy(
    model: AnyonModel, log_base: float | None = None
) -> tuple[float, float]:
    """Total quantum dimension ``D = sqrt(sum_j d_j^2)`` and entropy ``log D``.

    The logarithm is natural by default; pass ``log_base`` to change it.
    """
    dims = quantum_dimensions(model)
    D = math.sqrt(sum(d * d for d in dims.values()))
    S = math.log(D) if log_base is None else math.log(D, log_base)
    return D, S


def composite_fermion_statistics(j: int, p: int) -> Fraction:
    """Relative statistical phase (in units of 2 pi) of composite-fermion
    quasiparticles at filling p/(2jp+1): exactly ``2j/(2jp+1)``.

    ``j = 0`` is accepted as the bosonic limit and returns 0.
    """
    if j < 0 or p < 1:
        raise InputError("need j >= 0 and p >= 1")
    return Fraction(2 * j, 2 * j * p + 1)
