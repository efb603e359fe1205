"""Command-line interface exposing every module as a subcommand.

Every successful invocation prints one JSON document to stdout with a
top-level ``"schema": 1`` field, serialised with sorted keys so output is
byte-stable for fixed inputs (and fixed ``--seed`` where randomness
exists).  Complex numbers are ``[re, im]`` pairs; exact polynomials are
maps from quarter-unit exponent (string) to integer coefficient.

Exit codes: 0 success, 1 input error, 2 resource error, 3 invariant
violation (including numeric non-convergence).  Diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import dataclass

import numpy as np

from . import braids, fsymbols, fusion, knots, stringnet, toric, trace_estimation
from .errors import AnyonError, InputError, InvariantViolation, ResourceError

SCHEMA = 1


@dataclass(frozen=True)
class CommandResult:
    """Outcome of one CLI invocation: exit status plus JSON payload."""

    status: int
    payload: dict | None = None
    error: str | None = None
    text: str = ""  # the payload as strict JSON, what ``render`` prints


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # route argparse failures to exit code 1
        raise InputError(message)


def _parse_model(name_or_path: str) -> fusion.AnyonModel:
    if name_or_path.startswith("@"):
        with open(name_or_path[1:], encoding="utf-8") as fh:
            return fusion.AnyonModel.from_json(fh.read())
    return fusion.named_model(name_or_path)


def _parse_leaves(args) -> tuple:
    """The model, leaves and total of a fusion command (of labels that print
    alike, the first); too many leaves are refused before any is read."""
    model = _parse_model(args.model)
    fusion.check_fusion_work(model, args.inputs.count(",") + 1)
    by_name = {str(label): label for label in reversed(model.labels)}
    try:
        *inputs, total = [by_name[token] for token in [*args.inputs.split(","), args.total]]
    except KeyError as exc:
        raise InputError(f"label {exc.args[0]!r} not in model {list(model.labels)}") from None
    return model, inputs, total


def _finite_float(text: str) -> float:
    """argparse type of every float flag: NaN and infinities are input errors."""
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"{text!r} is not a finite number")
    return value


def _seed(text: str) -> int:
    """argparse type of ``--seed``: the key range of the Philox generator."""
    value = int(text)
    if not 0 <= value < 2 ** 128:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer in [0, 2**128)")
    return value


def _positive_float(text: str) -> float:
    value = _finite_float(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"{text!r} is not a positive number")
    return value


def _log_base(text: str) -> float:
    value = _finite_float(text)
    if value <= 0 or value == 1:
        raise argparse.ArgumentTypeError("a logarithm base must be > 0 and != 1")
    return value


def _parse_complex(text: str) -> complex:
    parts = text.split(",")
    if len(parts) not in (1, 2):
        raise InputError(f"cannot parse complex number from {text!r}")
    re_im = [float(part) for part in parts] + [0.0]
    if not all(math.isfinite(v) for v in re_im):
        raise InputError(f"{text!r} is not a finite complex number")
    return complex(re_im[0], re_im[1])


def _cpx(z: complex) -> list[float]:
    return [float(z.real), float(z.imag)]


_NAMED_GATES = {
    "identity": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "NOT": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.diag([1.0, -1.0]).astype(complex),
    "H": np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2),
    "S": np.diag([1.0, 1.0j]),
    "T": np.diag([1.0, np.exp(1j * np.pi / 4)]),
}


def _parse_gate(text: str) -> np.ndarray:
    if text in _NAMED_GATES:
        return _NAMED_GATES[text]
    try:
        pairs = [[(re, im) for re, im in row] for row in json.loads(text)]
        if any(type(x) is bool for row in pairs for pair in row for x in pair):
            raise TypeError("a JSON boolean is not a number")
        return np.array([[complex(*pair) for pair in row] for row in pairs], dtype=complex)
    except (ValueError, TypeError) as exc:
        raise InputError(
            f"target must be one of {sorted(_NAMED_GATES)} or a JSON matrix "
            "of [re, im] pairs"
        ) from exc


def _fr_data_for(model_name: str):
    """The model and F/R tables ``--model`` names: a model file is read and
    its trivial tables built on every call; a built-in model's data is one
    cached instance, shared by every call that names the model."""
    if model_name.startswith("@"):
        model = _parse_model(model_name)
        return (model, *fsymbols.trivial_data(model))
    return _builtin_fr_data(fusion.named_model(model_name).name)


@functools.lru_cache(maxsize=8)
def _builtin_fr_data(name: str):
    """The model and F/R tables of the built-in model of canonical name
    ``name``: Fibonacci's own data, any other model's trivial data.

    Holds at most 8 entries: read-only tables whose ``entries`` view the
    CLI never reads.  Their rows and the plans their checks build are held
    by the model's F/R structure (``fsymbols._structure``, at most 8
    models), which every table of an equal model shares, a table read by
    ``--f-json`` or ``--r-json`` included (see :mod:`anyons.fsymbols`).
    With every plan its checks build, an entry and its structure hold about
    13 KB (fibonacci), 110 KB (z_d:6), 1.4 MB (z_d:12) and 15 MB (z_d:22,
    13 MB of it the pentagon plan).  The largest is z_d:64's, about 40 MB:
    17 MB of tables (64^3 admissible rows and their values), a 2 MB model,
    and 21 MB of hexagon and unitarity plans (its pentagon is refused and
    holds none).  At worst, z_d:57 to z_d:64 each checked by ``pentagon``
    and ``hexagon``, this cache holds about 275 MB, 142 MB of it plans.
    The structure cache may meanwhile hold 8 other models' structures, up to
    36 MB of rows and plans each at 64^3 rows, and a structure that read a
    JSON table also holds its map of row keys (41 MB at z_d:64, 1.6 MB at
    z_d:22, 3 KB for fibonacci).
    """
    if name == "fibonacci":
        return fsymbols.fibonacci_data()
    model = fusion.named_model(name)
    return (model, *fsymbols.trivial_data(model))


def _rep_for(args) -> braids.BraidRep:
    if args.rep == "abelian":
        return braids.abelian_rep(args.phi)
    if args.rep == "tl":
        return braids.tl_b3_rep(_parse_complex(args.t))
    if args.rep == "fib":
        return braids.fib_qubit_rep()
    raise InputError(f"unknown representation {args.rep!r}")


@functools.lru_cache(maxsize=1)  # built once per process; parsing leaves it unchanged
def _build_parser() -> _Parser:
    """The parser, and the one registry of subcommands: ``subcommands`` maps
    each name to its subparser, which carries its handler as the default
    ``handler``."""
    p = _Parser(prog="anyons", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)
    p.subcommands = sub.choices

    def command(name, help, handler):
        sp = sub.add_parser(name, help=help)
        sp.set_defaults(handler=handler)
        return sp

    sp = command("fusion-dim", "fusion-space dimension", _cmd_fusion_dim)
    sp.add_argument("--model", required=True)
    sp.add_argument("--inputs", required=True, help="comma-separated labels")
    sp.add_argument("--total", required=True)

    sp = command("fusion-trees", "enumerate fusion trees", _cmd_fusion_trees)
    sp.add_argument("--model", required=True)
    sp.add_argument("--inputs", required=True)
    sp.add_argument("--total", required=True)

    sp = command("qdims", "quantum dimensions", _cmd_qdims)
    sp.add_argument("--model", required=True)
    sp.add_argument("--tolerance", type=_positive_float, default=fusion.QDIM_TOL)

    sp = command("entropy", "total quantum dimension and entropy", _cmd_entropy)
    sp.add_argument("--model", required=True)
    sp.add_argument("--base", type=_log_base, default=None,
                    help="logarithm base (natural log when omitted)")

    for name, handler in (("pentagon", _cmd_pentagon), ("hexagon", _cmd_hexagon)):
        sp = command(name, f"{name} residual of built-in F/R data", handler)
        sp.add_argument("--model", default="fibonacci")
        sp.add_argument("--f-json", default=None,
                        help="serialized F table file (overrides --model data)")
    sp.add_argument("--r-json", default=None,  # on the hexagon's parser, the last one
                    help="serialized R table file")

    sp = command("braid-check", "braid-relation residual of a rep", _cmd_braid_check)
    sp.add_argument("--rep", choices=("abelian", "tl", "fib"), required=True)
    sp.add_argument("--strands", type=int, default=3)
    sp.add_argument("--phi", type=_finite_float, default=np.pi,
                    help="abelian exchange phase")
    sp.add_argument("--t", default="1,0", help="Temperley-Lieb parameter re,im")
    sp.add_argument("--braid", default=None,
                    help="optional braid word to evaluate (round-trip check)")

    sp = command("compile", "meet-in-the-middle braid-word gate compilation", _cmd_compile)
    sp.add_argument("--target", required=True)
    sp.add_argument("--max-len", type=int, required=True)

    for name, handler in (("jones", _cmd_jones), ("bracket", _cmd_bracket)):
        sp = command(name, f"exact {name} of a braid closure", handler)
        sp.add_argument("--braid", required=True)
        sp.add_argument("--t", default=None,
                        help="also evaluate at this complex t (re,im)")
    sp.add_argument("--method", choices=("statesum", "tl"),  # on the bracket's parser
                    default="statesum",
                    help="statesum: the exact Laurent bracket (by a "
                         "Temperley-Lieb transfer); tl: the B_3 trace "
                         "formula evaluated at --t")

    sp = command("trace-est", "Hadamard-test trace estimate", _cmd_trace_est)
    sp.add_argument("--braid", required=True)
    sp.add_argument("--rep", choices=("fib", "tl", "abelian"), default="fib")
    sp.add_argument("--t", default="1,0")
    sp.add_argument("--phi", type=_finite_float, default=np.pi)
    sp.add_argument("--shots", type=int, required=True)
    sp.add_argument("--seed", type=_seed, required=True)

    sp = command("toric", "toric-code summary", _cmd_toric)
    sp.add_argument("--lx", type=int, required=True)
    sp.add_argument("--ly", type=int, required=True)
    sp.add_argument("--d", type=int, required=True)

    sp = command("interferometer", "charge/flux interferometer", _cmd_interferometer)
    sp.add_argument("--lx", type=int, required=True)
    sp.add_argument("--ly", type=int, required=True)
    sp.add_argument("--beta", type=_finite_float, required=True)
    sp.add_argument("--braid", choices=("yes", "no"), required=True)

    command("stringnet-check", "Levin-Wen face-term residuals", _cmd_stringnet_check)

    sp = command("honeycomb", "honeycomb-model phase and coupling", _cmd_honeycomb)
    sp.add_argument("--jx", type=_finite_float, required=True)
    sp.add_argument("--jy", type=_finite_float, required=True)
    sp.add_argument("--jz", type=_finite_float, required=True)

    sp = command("cf-statistics", "composite-fermion statistics", _cmd_cf_statistics)
    sp.add_argument("--j", type=int, required=True)
    sp.add_argument("--p", type=int, required=True)

    sp = command("su2k", "SU(2)_k fusion admissibility", _cmd_su2k)
    sp.add_argument("--j1", required=True)
    sp.add_argument("--j2", required=True)
    sp.add_argument("--j", required=True)
    sp.add_argument("--k", type=int, required=True)

    return p


def _cmd_fusion_dim(args) -> dict:
    return {"dim": fusion.fusion_space_dim(*_parse_leaves(args))}


def _cmd_fusion_trees(args) -> dict:
    model, inputs, total = _parse_leaves(args)
    trees = fusion.enumerate_fusion_trees(model, inputs, total, [str(a) for a in model.labels])
    return {"count": len(trees), "trees": trees}


def _cmd_qdims(args) -> dict:
    model = _parse_model(args.model)
    dims = fusion.quantum_dimensions(model, tol=args.tolerance)
    return {"dims": {str(k): v for k, v in dims.items()}}


def _cmd_entropy(args) -> dict:
    model = _parse_model(args.model)
    D, S = fusion.total_dimension_entropy(model, log_base=args.base)
    return {"D": D, "S": S, "log_base": args.base if args.base else "natural"}


def _load_table(path: str, table_type):
    with open(path, encoding="utf-8") as fh:
        return table_type.from_json(fh.read())


def _cmd_pentagon(args) -> dict:
    if args.f_json:
        f = _load_table(args.f_json, fsymbols.FSymbolTable)
        model = f.model
    else:
        model, f, _ = _fr_data_for(args.model)
    return {
        "model": args.model if not args.f_json else "from file",
        "residual": fsymbols.pentagon_residual(model, f),
        "unitarity_residual": fsymbols.f_unitarity_residual(model, f),
    }


def _cmd_hexagon(args) -> dict:
    if not (args.f_json and args.r_json):
        _, f, r = _fr_data_for(args.model)
    if args.f_json:
        f = _load_table(args.f_json, fsymbols.FSymbolTable)
    if args.r_json:
        r = _load_table(args.r_json, fsymbols.RSymbolTable)
    return {
        "model": args.model if not args.f_json else "from file",
        "residual": fsymbols.hexagon_residual(f.model, f, r),
    }


def _cmd_braid_check(args) -> dict:
    rep = _rep_for(args)
    out = {
        "rep": args.rep,
        "strands": args.strands,
        "residual": braids.relation_residual(rep, args.strands),
        "unitary": rep.unitary,
    }
    if args.braid is not None:
        word = braids.parse_braid(args.braid)
        matrix = braids.evaluate(rep, word)
        out["word"] = braids.format_braid(word)
        out["matrix"] = [[_cpx(z) for z in row] for row in matrix]
    return out


def _cmd_compile(args) -> dict:
    target = _parse_gate(args.target)
    word, dist = braids.compile_gate(target, args.max_len)
    return {"word": braids.format_braid(word), "distance": dist,
            "length": len(word)}


def _cmd_jones(args) -> dict:
    word = braids.parse_braid(args.braid)
    poly = knots.jones(word)
    out = {"poly": poly.to_json_dict(), "writhe": word.writhe()}
    if args.t is not None:
        out["value"] = _cpx(poly.evaluate(_parse_complex(args.t)))
    return out


def _cmd_bracket(args) -> dict:
    word = braids.parse_braid(args.braid)
    if args.method == "tl":
        if args.t is None:
            raise InputError("--method tl needs --t")
        value = knots.bracket_tl_b3(word, _parse_complex(args.t))
        return {"method": "tl", "value": _cpx(value)}
    poly = knots.kauffman_bracket(word)
    out = {"method": "statesum", "poly": poly.to_json_dict()}
    if args.t is not None:
        out["value"] = _cpx(poly.evaluate(_parse_complex(args.t)))
    return out


def _cmd_trace_est(args) -> dict:
    u = braids.evaluate(_rep_for(args), braids.parse_braid(args.braid))
    exact = np.trace(u) / len(u)
    est = trace_estimation.hadamard_test_trace(u, args.shots, args.seed)
    return {
        "re": est.value.real,
        "im": est.value.imag,
        "stderr_re": est.stderr_re,
        "stderr_im": est.stderr_im,
        "shots": est.shots,
        "seed": est.seed,
        "exact": _cpx(exact),
    }


def _cmd_toric(args) -> dict:
    lat = toric.TorusLattice(args.lx, args.ly)
    d = args.d
    degeneracy = toric.ground_space_dim(lat, d)
    table = toric.braiding_table(d)
    lat.validate()
    stars_identity, plaquettes_identity = toric.stabilizer_products_are_identity(lat, d)
    demo = _correction_demo(lat, d)
    return {
        "lx": args.lx,
        "ly": args.ly,
        "d": d,
        "n_edges": lat.n_edges,
        "degeneracy": degeneracy,
        "stabilizers_commute": toric.stabilizers_commute(lat, d),
        "product_of_stars_is_identity": stars_identity,
        "product_of_plaquettes_is_identity": plaquettes_identity,
        "braiding_phase_exponents": table,
        "braiding_phase_units": "pi/d, mod 2d",
        "correction_demo": demo,
    }


def _correction_demo(lat: toric.TorusLattice, d: int) -> dict:
    """Charge-pair error, its syndrome, greedy correction, homology class."""
    error = toric.string_operator(lat, [(0, 0), (1, 0), (1, 1)], "charge", 1, d)
    syn = toric.syndrome(lat, error)
    corr = toric.correct(lat, syn)
    # homology_class refuses a composite with any defect, so it is corrected
    cls = toric.homology_class(lat, error * corr)
    return {
        "error_vertex_defects": {str(k): v for k, v in sorted(syn.vertex.items())},
        "corrected": True,
        "homology_class": {k: list(v) for k, v in cls.items()},
    }


def _cmd_interferometer(args) -> dict:
    lat = toric.TorusLattice(args.lx, args.ly)
    no_braid = toric.interferometer_run(lat, braid=False, beta=args.beta)
    braid_run = toric.interferometer_run(lat, braid=True, beta=args.beta)
    phi11 = toric.extract_mutual_statistics(braid_run, no_braid)
    requested = braid_run if args.braid == "yes" else no_braid
    return {
        "beta": args.beta,
        "expectation": requested,
        "no_braid_expectation": no_braid,
        "braid_expectation": braid_run,
        "phi_1_1": phi11,
    }


def _cmd_stringnet_check(args) -> dict:
    _, coeffs = stringnet.vertex_projector()
    checks = stringnet.face_term_checks()
    pauli = {
        "z" + "".join(str(q) for q in subset) if subset else "identity":
            [c.numerator, c.denominator]
        for subset, c in coeffs.items()
    }
    return {**checks, "vertex_pauli_coefficients": pauli}


def _cmd_honeycomb(args) -> dict:
    phase = toric.honeycomb_phase(args.jx, args.jy, args.jz)
    j_eff = (
        toric.honeycomb_effective_coupling(args.jx, args.jy, args.jz)
        if args.jz != 0
        else None
    )
    return {"phase": phase, "j_eff": j_eff}


def _cmd_cf_statistics(args) -> dict:
    value = fusion.composite_fermion_statistics(args.j, args.p)
    return {
        "value": [value.numerator, value.denominator],
        "as_float": float(value),
    }


def _cmd_su2k(args) -> dict:
    from fractions import Fraction

    def half(tok):
        try:
            return Fraction(tok)
        except ZeroDivisionError as exc:
            raise InputError(f"{tok!r} has a zero denominator") from exc

    return {
        "admissible": fsymbols.su2k_admissible(
            half(args.j1), half(args.j2), half(args.j), args.k
        )
    }


def _parse_args(argv: list[str]) -> argparse.Namespace:
    """``argv`` parsed as the top-level parser parses it, in one pass.

    An ``argv`` whose first token names a subcommand goes straight to that
    subcommand's parser, which is all the top-level parser would do with it
    after scanning every token; any other ``argv`` (empty, an unknown
    command, ``-h``) goes to the top-level parser, for its messages and
    exit status.
    """
    parser = _build_parser()
    if argv and argv[0] in parser.subcommands:
        args = parser.subcommands[argv[0]].parse_args(argv[1:])
        args.command = argv[0]
        return args
    return parser.parse_args(argv)


def run(argv: list[str]) -> CommandResult:
    """Dispatch one invocation; never raises package errors.

    An invocation that names a subcommand is parsed by that subcommand's
    parser directly (:func:`_parse_args`).  A payload that is not strict
    JSON (a NaN or an infinity leaked into it) is an invariant violation,
    exit 3, never printed.
    """
    try:
        args = _parse_args(argv)
        payload = {"schema": SCHEMA, **args.handler(args)}
    except ResourceError as exc:
        return CommandResult(2, error=str(exc))
    except InvariantViolation as exc:
        return CommandResult(3, error=str(exc))
    except (InputError, AnyonError) as exc:
        return CommandResult(1, error=str(exc))
    except (OSError, ValueError) as exc:
        # unreadable files, malformed JSON documents, bad numeric literals
        return CommandResult(1, error=str(exc))
    try:
        text = json.dumps(payload, sort_keys=True, allow_nan=False)
    except ValueError as exc:
        return CommandResult(3, error=f"non-finite number in the output: {exc}")
    return CommandResult(0, payload, text=text)


def render(result: CommandResult) -> str:
    return result.text


def main(argv: list[str] | None = None) -> int:
    result = run(sys.argv[1:] if argv is None else argv)
    if result.payload is not None:
        print(render(result))
    if result.error is not None:
        print(f"error: {result.error}", file=sys.stderr)
    return result.status


if __name__ == "__main__":
    sys.exit(main())
