"""Fusion-rule algebra for anyon models.

An :class:`AnyonModel` is a commutative fusion ring presented by a label set,
a vacuum label, a dual (antiparticle) map and a non-negative multiplicity
tensor ``N[a, b, c]`` giving the number of ways ``a x b`` can fuse to ``c``.
On top of it this module computes fusion products, fusion-space dimensions
(dynamic program), explicit left-associated fusion trees (brute-force
enumeration, the oracle for the dynamic program), quantum dimensions, the
total quantum dimension ``D = sqrt(sum_j d_j^2)`` and the topological
entropy ``log D``.

Fusion trees are left associated throughout: leaves ``l1 .. ln`` are fused
as ``((l1 x l2) x l3) x ...``; other bracketings are reachable by F-moves
(see :mod:`anyons.fsymbols`) and are deliberately not represented here.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Hashable, Sequence

import numpy as np

from .errors import InputError, NumericError, ResourceError

Label = Hashable

#: Fixed-point iteration defaults for :func:`quantum_dimensions`.
QDIM_TOL = 1e-12
QDIM_MAX_ITER = 100_000

#: Cap on the number of trees :func:`enumerate_fusion_trees` will list; its
#: ``cap`` argument can lower it, not raise it.
TREE_CAP = 200_000

#: Largest ``d`` that :func:`named_model` builds for ``z_d:<d>``.  Building a
#: model checks O(d^3) fusion identities and the quantum dimensions take
#: O(d^3) more (z_d:64 builds in about 0.05 s; z_d:200 would take 2 s).
Z_D_CAP = 64


@dataclass(frozen=True)
class AnyonModel:
    """A finite commutative fusion ring.

    Parameters
    ----------
    labels : ordered particle labels; the order fixes output ordering of
        every operation in this module.
    vacuum : the identity label.
    dual : antiparticle map, ``dual[a] x a`` must contain the vacuum.
    fusion : sparse multiplicity tensor ``{(a, b, c): N^c_ab}``; absent
        entries are zero.
    """

    labels: tuple[Label, ...]
    vacuum: Label
    dual: dict[Label, Label]
    fusion: dict[tuple[Label, Label, Label], int]
    name: str = field(default="", compare=False)

    def __post_init__(self):
        try:
            distinct = len(set(self.labels)) == len(self.labels)
        except TypeError:
            raise InputError(f"labels {list(self.labels)} are not all hashable") from None
        if not distinct:
            raise InputError(f"labels {list(self.labels)} repeat")
        if self.vacuum not in self.labels:
            raise InputError(f"vacuum {self.vacuum!r} not among labels")
        for a, b in self.dual.items():
            if a not in self.labels or b not in self.labels:
                raise InputError(f"dual map mentions unknown label {a!r} or {b!r}")
        if len(self.dual) != len(self.labels):
            raise InputError("dual map must give every label a dual")
        for (a, b, c), m in self.fusion.items():
            if not isinstance(m, (int, np.integer)) or m < 0:
                raise InputError(f"multiplicity at {(a, b, c)} is not a non-negative integer")
            for x in (a, b, c):
                if x not in self.labels:
                    raise InputError(f"fusion tensor mentions unknown label {x!r}")
        self._check_invariants()

    def _check_invariants(self):
        for a in self.labels:
            for c in self.labels:
                want = 1 if c == a else 0
                if self.n(self.vacuum, a, c) != want:
                    raise InputError(
                        f"vacuum is not a fusion identity at ({a!r}, {c!r})"
                    )
        for a, b in itertools.combinations_with_replacement(self.labels, 2):
            for c in self.labels:
                if self.n(a, b, c) != self.n(b, a, c):
                    raise InputError(f"fusion not commutative at ({a!r}, {b!r}, {c!r})")
        for a in self.labels:
            if self.n(a, self.dual[a], self.vacuum) < 1:
                raise InputError(f"{a!r} does not annihilate with its dual")

    def n(self, a: Label, b: Label, c: Label) -> int:
        """Multiplicity ``N^c_ab``."""
        return self.fusion.get((a, b, c), 0)

    def require_label(self, a: Label) -> Label:
        if a not in self.labels:
            raise InputError(f"unknown label {a!r} (model has {list(self.labels)})")
        return a

    def label_index(self, a: Label) -> int:
        self.require_label(a)
        return self.labels.index(a)

    # -- serialization ----------------------------------------------------

    def to_json(self) -> str:
        doc = {
            "labels": list(self.labels),
            "vacuum": self.vacuum,
            "dual": [[a, self.dual[a]] for a in self.labels],
            "fusion": sorted(
                [list(k) + [m] for k, m in self.fusion.items() if m],
                key=lambda row: [self.labels.index(x) for x in row[:3]],
            ),
            "name": self.name,
        }
        return json.dumps(doc, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "AnyonModel":
        doc = json.loads(text)
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


@dataclass(frozen=True)
class FusionTree:
    """One left-associated fusion history.

    ``internal[k]`` is the outcome after fusing leaf ``k + 2`` into the
    running product, so ``len(internal) == len(leaves) - 2`` (and is empty
    for one or two leaves, where the total itself closes the tree).
    """

    leaves: tuple[Label, ...]
    internal: tuple[Label, ...]
    total: Label

    def intermediates(self) -> tuple[Label, ...]:
        """The full chain of running outcomes, ending in the total."""
        return self.internal + (self.total,)


# ---------------------------------------------------------------------------
# built-in models


def fibonacci_model() -> AnyonModel:
    """Fibonacci anyons: labels 0 (vacuum) and 1 (tau), with 1 x 1 = 0 + 1."""
    fusion = {
        (0, 0, 0): 1,
        (0, 1, 1): 1,
        (1, 0, 1): 1,
        (1, 1, 0): 1,
        (1, 1, 1): 1,
    }
    return AnyonModel((0, 1), 0, {0: 0, 1: 1}, fusion, name="fibonacci")


def zd_model(d: int) -> AnyonModel:
    """Abelian Z_d model: labels 0..d-1 fusing additively mod d."""
    if d < 1:
        raise InputError("z_d model needs d >= 1")
    fusion = {(a, b, (a + b) % d): 1 for a in range(d) for b in range(d)}
    return AnyonModel(tuple(range(d)), 0, {a: (-a) % d for a in range(d)}, fusion,
                      name=f"z_d:{d}")


def toric_model() -> AnyonModel:
    """Z_2 gauge theory anyons of the toric code: 1, e, m, em."""
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
    """Look up a built-in model: ``fibonacci``, ``z_d:<d>`` or ``toric``."""
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
    model.require_label(a)
    model.require_label(b)
    return [(c, model.n(a, b, c)) for c in model.labels if model.n(a, b, c) > 0]


def fusion_space_dim(model: AnyonModel, inputs: Sequence[Label], total: Label) -> int:
    """Number of left-associated fusion trees taking ``inputs`` to ``total``.

    One sparse tensor contraction per leaf: the vector of path counts per
    running outcome is updated through ``N``.
    """
    if not inputs:
        raise InputError("inputs must be non-empty")
    for a in inputs:
        model.require_label(a)
    model.require_label(total)
    counts = {inputs[0]: 1}
    for leaf in inputs[1:]:
        nxt: dict[Label, int] = {}
        for x, ways in counts.items():
            for c in model.labels:
                m = model.n(x, leaf, c)
                if m:
                    nxt[c] = nxt.get(c, 0) + ways * m
        counts = nxt
    return counts.get(total, 0)


def enumerate_fusion_trees(
    model: AnyonModel,
    inputs: Sequence[Label],
    total: Label,
    cap: int = TREE_CAP,
) -> list[FusionTree]:
    """All fusion trees with the given leaves and total, lexicographically.

    This is the brute-force counterpart of :func:`fusion_space_dim`; the two
    must agree on every input.  A multiplicity ``m > 1`` contributes ``m``
    identical-label branch copies.  Raises :class:`ResourceError` when the
    tree count would exceed ``cap``, or when ``cap`` itself exceeds
    :data:`TREE_CAP`: a caller may lower the bound on the work, not lift it.
    """
    if cap > TREE_CAP:
        raise ResourceError(f"cap {cap} exceeds the tree cap {TREE_CAP}")
    dim = fusion_space_dim(model, inputs, total)  # validates labels
    if dim > cap:
        raise ResourceError(f"{dim} trees exceed cap {cap}")
    leaves = tuple(inputs)
    if len(leaves) == 1:
        if leaves[0] == total:
            return [FusionTree(leaves, (), total)]
        return []

    trees: list[FusionTree] = []

    def grow(current: Label, pos: int, internal: tuple[Label, ...]):
        if pos == len(leaves) - 1:
            for _ in range(model.n(current, leaves[pos], total)):
                trees.append(FusionTree(leaves, internal, total))
            return
        for c in model.labels:
            for _ in range(model.n(current, leaves[pos], c)):
                grow(c, pos + 1, internal + (c,))

    grow(leaves[0], 1, ())
    assert len(trees) == dim
    return trees


def _fusion_matrix(model: AnyonModel, a: Label) -> np.ndarray:
    """Matrix ``(N_a)[b, c] = N^c_ab`` over the label order."""
    k = len(model.labels)
    mat = np.zeros((k, k))
    for ib, b in enumerate(model.labels):
        for ic, c in enumerate(model.labels):
            mat[ib, ic] = model.n(a, b, c)
    return mat


def _check_connected(model: AnyonModel, mat: np.ndarray):
    """The summed fusion graph must be connected for a unique Perron vector."""
    k = mat.shape[0]
    adj = mat + mat.T > 0
    seen = {0}
    frontier = [0]
    while frontier:
        v = frontier.pop()
        for w in range(k):
            if adj[v, w] and w not in seen:
                seen.add(w)
                frontier.append(w)
    if len(seen) != k:
        unreachable = [model.labels[i] for i in range(k) if i not in seen]
        raise InputError(f"fusion tensor not irreducible; isolated labels {unreachable}")


def quantum_dimensions(
    model: AnyonModel,
    tol: float = QDIM_TOL,
    max_iter: int = QDIM_MAX_ITER,
) -> dict[Label, float]:
    """The unique positive solution of ``d_a d_b = sum_c N^c_ab d_c``.

    The dimension vector is the common Perron eigenvector of all fusion
    matrices; it is found by fixed-point iteration of ``M = sum_a N_a`` from
    the all-ones vector, renormalised so the vacuum has dimension exactly 1.
    """
    k = len(model.labels)
    M = sum(_fusion_matrix(model, a) for a in model.labels)
    _check_connected(model, M)
    iv = model.labels.index(model.vacuum)
    v = np.ones(k)
    for _ in range(max_iter):
        nxt = M @ v
        nxt /= nxt[iv]
        if np.max(np.abs(nxt - v)) < tol:
            v = nxt
            break
        v = nxt
    else:
        raise NumericError(
            f"quantum dimensions did not converge in {max_iter} iterations"
        )
    dims = {a: float(v[i]) for i, a in enumerate(model.labels)}
    resid = product_rule_residual(model, dims)
    if not resid < math.sqrt(tol):
        raise NumericError(f"product-rule residual {resid} after convergence")
    return dims


def product_rule_residual(model: AnyonModel, dims: dict[Label, float]) -> float:
    """``max_{a,b} |d_a d_b - sum_c N^c_ab d_c|`` for a candidate solution."""
    worst = 0.0
    for a in model.labels:
        for b in model.labels:
            rhs = sum(model.n(a, b, c) * dims[c] for c in model.labels)
            worst = max(worst, abs(dims[a] * dims[b] - rhs))
    return worst


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
    if j == 0:
        return Fraction(0)
    if j < 0 or p < 1:
        raise InputError("need j >= 0 and p >= 1")
    return Fraction(2 * j, 2 * j * p + 1)
