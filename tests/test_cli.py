"""CLI dispatch, JSON stability, exit codes, operation coverage."""

import contextlib
import io
import json
import math
import pathlib
import subprocess
import sys
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import anyons
from anyons import cli, fusion, toric
from anyons.cli import OPERATION_COVERAGE, main, render, run
from anyons.trace_estimation import SHOTS_CAP

GOLDEN = pathlib.Path(__file__).parent / "golden"

GOLDEN_CASES = {
    "fusion_dim_fibonacci.json": [
        "fusion-dim", "--model", "fibonacci", "--inputs", "1,1,1,1", "--total", "0",
    ],
    "jones_two_unlink.json": ["jones", "--braid", "B2:"],
    "toric_2x2_d2.json": ["toric", "--lx", "2", "--ly", "2", "--d", "2"],
}


class TestGoldenFiles:
    @pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
    def test_byte_stable_against_golden(self, name):
        argv = GOLDEN_CASES[name]
        first = render(run(argv)) + "\n"
        second = render(run(argv)) + "\n"
        assert first == second
        assert first == (GOLDEN / name).read_text()

    def test_known_payload_values(self):
        fusion = json.loads(render(run(GOLDEN_CASES["fusion_dim_fibonacci.json"])))
        assert fusion["dim"] == 2
        jones = json.loads(render(run(GOLDEN_CASES["jones_two_unlink.json"])))
        assert jones["poly"] == {"-2": -1, "2": -1}
        toric = json.loads(render(run(GOLDEN_CASES["toric_2x2_d2.json"])))
        assert toric["degeneracy"] == 4
        assert toric["stabilizers_commute"] is True
        assert toric["product_of_stars_is_identity"] is True
        # qubit charge around flux: exponent 2 in units of pi/2 is the phase -1
        assert toric["braiding_phase_exponents"][1][0][0][1] == 2

    def test_schema_field_everywhere(self):
        for argv in GOLDEN_CASES.values():
            payload = json.loads(render(run(argv)))
            assert payload["schema"] == 1


class TestExitCodes:
    def test_success(self):
        assert run(["honeycomb", "--jx", "1", "--jy", "1", "--jz", "1"]).status == 0

    def test_input_error(self):
        assert run(["fusion-dim", "--model", "nope", "--inputs", "1", "--total", "1"]).status == 1
        assert run(["jones", "--braid", "garbage"]).status == 1
        assert run(["unknown-subcommand"]).status == 1
        assert run(["toric", "--lx", "2", "--ly", "2", "--d", "4"]).status == 1

    def test_resource_error(self):
        res = run(["jones", "--braid", "B2: " + " ".join(["s1"] * 30)])
        assert res.status == 2
        res = run(["compile", "--target", "identity", "--max-len", "20"])
        assert res.status == 2
        for argv in (
            ["braid-check", "--rep", "abelian", "--strands", "100000000"],
            ["braid-check", "--rep", "abelian", "--strands", "318"],  # 50,086 relations
            ["jones", "--braid", "B4000:"],
            ["bracket", "--braid", "B100000000: s1"],
        ):
            start = time.perf_counter()
            assert run(argv).status == 2, argv
            assert time.perf_counter() - start < 1.0

    def test_error_message_on_stderr_not_payload(self):
        res = run(["jones", "--braid", "garbage"])
        assert res.payload is None
        assert "byte offset" in res.error

    def test_missing_file_is_input_error(self):
        res = run(["fusion-dim", "--model", "@/no/such/file.json",
                   "--inputs", "1", "--total", "1"])
        assert res.status == 1
        res = run(["pentagon", "--f-json", "/no/such/table.json"])
        assert res.status == 1

    def test_bad_numeric_flag_is_input_error(self):
        res = run(["jones", "--braid", "B2: s1", "--t", "not-a-number"])
        assert res.status == 1

    @pytest.mark.parametrize("argv", [
        ["entropy", "--model", "fibonacci", "--base", "1"],
        ["entropy", "--model", "fibonacci", "--base", "0"],
        ["entropy", "--model", "fibonacci", "--base", "-2"],
        ["qdims", "--model", "fibonacci", "--tolerance", "nan"],
        ["qdims", "--model", "fibonacci", "--tolerance", "0"],
        ["qdims", "--model", "fibonacci", "--tolerance", "-1"],
        ["entropy", "--model", "fibonacci", "--tolerance", "0"],
        ["entropy", "--model", "fibonacci", "--tolerance", "-1"],
        ["entropy", "--model", "fibonacci", "--tolerance", "0.5"],  # no such flag
        ["trace-est", "--braid", "B3: s1 s2", "--rep", "abelian", "--phi", "nan",
         "--shots", "1000", "--seed", "1"],
        ["braid-check", "--rep", "abelian", "--phi", "inf"],
        ["braid-check", "--rep", "tl", "--t", "nan,0"],
        ["jones", "--braid", "B2: s1", "--t", "0.5,inf"],
        ["interferometer", "--lx", "3", "--ly", "3", "--beta", "nan", "--braid", "yes"],
        ["honeycomb", "--jx", "nan", "--jy", "1", "--jz", "1"],
        ["honeycomb", "--jx", "1", "--jy", "-inf", "--jz", "1"],
        ["honeycomb", "--jx", "1e200", "--jy", "1", "--jz", "1"],
        ["honeycomb", "--jx", "1e154", "--jy", "1e154", "--jz", "1"],
        ["honeycomb", "--jx", "1", "--jy", "1", "--jz", "1e-200"],
        ["toric", "--lx", "2", "--ly", "2", "--d", "15"],
        ["braid-check", "--rep", "abelian", "--strands", "-5"],
        ["braid-check", "--rep", "abelian", "--strands", "0"],
        ["su2k", "--j1", "1/0", "--j2", "1", "--j", "1", "--k", "2"],
        # entries whose products overflow: refused before any product
        ["compile", "--target", "[[[1e308,1e308],[0,0]],[[0,0],[1,0]]]", "--max-len", "3"],
        ["braid-check", "--rep", "tl", "--t", "1e300,0"],
        ["braid-check", "--rep", "tl", "--t", "1e-300,0"],
        ["braid-check", "--rep", "tl", "--t", "1e100,0", "--braid", "B3: s1 s1 s1 s1 s1"],
        ["trace-est", "--rep", "tl", "--t", "1e90,0", "--braid",
         "B3: s1 s1 s1 s1 s1 s1 s1 s1", "--shots", "100", "--seed", "1"],
    ], ids=" ".join)
    @pytest.mark.filterwarnings("error")
    def test_non_finite_or_bad_float_is_refused(self, argv, capsys):
        assert main(argv) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ")

    def test_tree_cap_can_only_be_lowered(self, capsys):
        def argv(inputs, cap):
            return ["fusion-trees", "--model", "fibonacci", "--inputs", ",".join(inputs),
                    "--total", "1", "--cap", str(cap)]

        start = time.perf_counter()
        assert main(argv(["1"] * 30, 10 ** 8)) == 2  # 832,040 trees
        assert time.perf_counter() - start < 1.0
        out, err = capsys.readouterr()
        assert out == "" and "tree cap" in err
        assert run(argv(["1"] * 3, fusion.TREE_CAP)).status == 0
        assert run(argv(["1"] * 3, fusion.TREE_CAP + 1)).status == 2

    @pytest.mark.parametrize("shots", [SHOTS_CAP + 1, 10 ** 12, 10 ** 14])
    def test_shot_cap_refuses_before_drawing(self, shots, capsys):
        start = time.perf_counter()
        assert main(["trace-est", "--braid", "B3: s1 s2", "--rep", "fib",
                     "--shots", str(shots), "--seed", "1"]) == 2
        assert time.perf_counter() - start < 1.0
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ") and "cap" in err

    def test_cached_parser_matches_a_fresh_one(self, monkeypatch):
        sequence = [
            ["compile", "--target", "H", "--max-len", "4"],
            ["qdims", "--model", "fibonacci", "--tolerance", "-1"],  # argparse error
            ["su2k", "--j1", "1", "--j2", "1", "--j", "2", "--k", "4"],
        ]
        assert cli._build_parser() is cli._build_parser()
        cached = [run(argv) for argv in sequence]
        monkeypatch.setattr(cli, "_build_parser", cli._build_parser.__wrapped__)
        fresh = [run(argv) for argv in sequence]
        assert [r.status for r in cached] == [0, 1, 0]
        assert cached == fresh

    def test_non_finite_output_is_an_invariant_violation(self, monkeypatch):
        monkeypatch.setitem(cli._HANDLERS, "qdims", lambda args: {"x": float("nan")})
        res = run(["qdims", "--model", "fibonacci"])
        assert res.status == 3 and res.payload is None and render(res) == ""
        assert "non-finite" in res.error

    @pytest.mark.parametrize("argv", [
        ["toric", "--lx", "2", "--ly", "2", "--d", "97"],
        ["toric", "--lx", "400", "--ly", "400", "--d", "2"],
        ["toric", "--lx", "2", "--ly", "2", "--d", str(2 ** 61 - 1)],  # a prime
        ["interferometer", "--lx", "129", "--ly", "128", "--beta", "0.5", "--braid", "yes"],
        ["interferometer", "--lx", str(10 ** 12), "--ly", "2", "--beta", "0.5",
         "--braid", "no"],
    ], ids=" ".join)
    def test_toric_work_caps_refuse_before_working(self, argv):
        start = time.perf_counter()
        res = run(argv)
        assert res.status == 2, res.error
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("argv", [
        ["pentagon", "--model", "z_d:40"],  # 40^4 tuples per pentagon side
        ["pentagon", "--model", "z_d:64"],  # the largest z_d model
        ["pentagon", "--model", "z_d:100000"],  # over the z_d cap, never built
        ["hexagon", "--model", "z_d:" + "9" * 40],
        ["fusion-dim", "--model", "z_d:65", "--inputs", "1", "--total", "1"],
    ], ids=lambda argv: " ".join(argv)[:40])
    def test_fr_caps_refuse_before_working(self, argv, capsys):
        start = time.perf_counter()
        assert main(argv) == 2
        assert time.perf_counter() - start < 1.0
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ")

    def test_hexagon_cap_refuses_a_large_model_file(self, tmp_path, capsys):
        from anyons.fusion import zd_model

        path = tmp_path / "z70.json"
        path.write_text(zd_model(70).to_json())  # 70^3 admissible F tuples
        start = time.perf_counter()
        assert main(["hexagon", "--model", f"@{path}"]) == 2
        assert time.perf_counter() - start < 1.0
        out, err = capsys.readouterr()
        assert out == "" and "F enumeration" in err

    def test_toric_caps_admit_the_baseline_sizes(self):
        assert 13 ** 4 <= toric.BRAIDING_TABLE_CAP < 17 ** 4
        assert run(["toric", "--lx", "32", "--ly", "32", "--d", "2"]).status == 0
        res = run(["interferometer", "--lx", "32", "--ly", "32", "--beta", "0.785398",
                   "--braid", "yes"])
        assert res.status == 0
        assert abs(res.payload["braid_expectation"] + math.sin(0.785398)) < 1e-12
        assert abs(res.payload["no_braid_expectation"] - math.sin(0.785398)) < 1e-12


_BAD_TOKENS = st.sampled_from(["s0", "s", "s1^2", "s1^-", "x", "B3:", "s-1", "s99"])
_T_VALUES = st.one_of(
    st.sampled_from(["nan", "inf", "-inf", "0", "1", "1,nan", "0.5,inf", "a,b", "1,2,3"]),
    st.tuples(st.floats(-4, 4), st.floats(-4, 4)).map(lambda z: f"{z[0]},{z[1]}"),
)


@st.composite
def _knot_argv(draw):
    """A jones/bracket argv: mostly valid words on 1-60 strands, some malformed."""
    n = draw(st.integers(1, 60))
    token = st.tuples(st.integers(1, max(n - 1, 1)), st.booleans()).map(
        lambda kv: f"s{kv[0]}^-1" if kv[1] else f"s{kv[0]}")
    tokens = draw(st.lists(token, max_size=30))
    if draw(st.integers(0, 3)) == 0:
        tokens.insert(draw(st.integers(0, len(tokens))), draw(_BAD_TOKENS))
    header = f"B{n}:" if draw(st.integers(0, 5)) else draw(st.sampled_from(["B0:", "b3:", ""]))
    argv = [draw(st.sampled_from(["jones", "bracket"])), "--braid", " ".join([header, *tokens])]
    if draw(st.booleans()):
        argv.append("--t=" + draw(_T_VALUES))
    if argv[0] == "bracket" and draw(st.booleans()):
        argv += ["--method", draw(st.sampled_from(["statesum", "tl"]))]
    if draw(st.booleans()):
        argv.append(f"--cap={draw(st.integers(-1, 30))}")
    return argv


class TestKnotCommandFuzz:
    @settings(max_examples=150, deadline=None)
    @given(_knot_argv())
    def test_exit_code_and_strict_json(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            status = main(argv)
        assert status in (0, 1, 2, 3)
        if status == 0:
            json.loads(out.getvalue(), parse_constant=pytest.fail)
        else:
            assert out.getvalue() == ""
            assert err.getvalue().startswith("error: ")


def _table_text(draw, kind: str) -> str:
    """An F or R table file: valid, or broken in one of the ways a user's can be."""
    from anyons.fsymbols import fibonacci_data, trivial_data
    from anyons.fusion import toric_model, zd_model

    model = draw(st.sampled_from(["fibonacci", "toric", "z_d:3"]))
    if model == "fibonacci":
        _, f, r = fibonacci_data()
    else:
        f, r = trivial_data(toric_model() if model == "toric" else zd_model(3))
    doc = json.loads((f if kind == "F" else r).to_json())
    entries = doc["entries"]
    arity = len(entries[0][0])
    labels = doc["model"]["labels"]
    flaw = draw(st.sampled_from(["none", "truncated", "unknown label", "stray key",
                                 "missing", "arity", "value", "shape", "model"]))
    if flaw == "truncated":
        text = json.dumps(doc)
        return text[: draw(st.integers(0, len(text) - 1))]
    if flaw == "unknown label":
        entries[0][0][draw(st.integers(0, arity - 1))] = draw(
            st.sampled_from([7, -1, "x", None, [0], 1.5]))
    elif flaw == "stray key":
        entries.append([[draw(st.sampled_from(labels)) for _ in range(arity)], [1.0, 0.0]])
    elif flaw == "missing":
        del entries[draw(st.integers(0, len(entries) - 1))]
    elif flaw == "arity":
        entries[0][0] = entries[0][0][: draw(st.integers(0, arity - 1))]
    elif flaw == "value":
        entries[0][1] = draw(st.sampled_from(["1", [1.0], [True, 0], None, [1, 2, 3]]))
    elif flaw == "shape":
        doc = draw(st.sampled_from([[], 3, {"entries": []}, {"model": doc["model"]}]))
    elif flaw == "model":
        del doc["model"][draw(st.sampled_from(["labels", "vacuum", "dual", "fusion"]))]
    return json.dumps(doc)


_MODEL_NAMES = st.one_of(
    st.sampled_from(["fibonacci", "toric", "z_d:", "z_d:x", "z_d:1.5", "su3", "",
                     "@/no/such/model.json"]),
    st.integers(-3, 8).map(lambda d: f"z_d:{d}"),
    st.sampled_from([65, 10 ** 6, 10 ** 30]).map(lambda d: f"z_d:{d}"),
)


class TestConsistencyCommandFuzz:
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_exit_code_and_strict_json(self, tmp_path_factory, data):
        folder = tmp_path_factory.mktemp("tables")
        command = data.draw(st.sampled_from(["pentagon", "hexagon"]))
        argv = [command]
        if data.draw(st.booleans()):
            argv += ["--model", data.draw(_MODEL_NAMES)]
        for kind, flag in (("F", "--f-json"), ("R", "--r-json")):
            if (kind == "F" or command == "hexagon") and data.draw(st.booleans()):
                path = folder / f"{kind}.json"
                path.write_text(_table_text(data.draw, kind))
                argv += [flag, str(path)]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            status = main(argv)
        assert status in (0, 1, 2, 3)
        if status == 0:
            json.loads(out.getvalue(), parse_constant=pytest.fail)
        else:
            assert out.getvalue() == ""
            assert err.getvalue().startswith("error: ")

    def test_stray_key_file_is_an_input_error(self, tmp_path, capsys):
        from anyons.fsymbols import fibonacci_data

        doc = json.loads(fibonacci_data()[1].to_json())
        doc["entries"].append([[0, 0, 0, 1, 0, 0], [20.0, 0.0]])
        path = tmp_path / "f.json"
        path.write_text(json.dumps(doc))
        assert main(["pentagon", "--f-json", str(path)]) == 1
        out, err = capsys.readouterr()
        assert out == "" and "(0, 0, 0, 1, 0, 0)" in err


def _value(valid, odd=()):
    """A flag value: three times in four from ``valid``, else an edge value or junk."""
    odd_values = st.sampled_from([*map(str, odd), "", "x", "1.5", "nan", "-1", "1e400"])
    return st.integers(0, 3).flatmap(lambda k: valid.map(str) if k else odd_values)


_MODELS = _value(st.sampled_from(["fibonacci", "toric", "z_d:3", "z_d:5"]),
                 ["su3", "z_d:0", "z_d:65"])
_LABELS = _value(st.sampled_from(["0", "1"]), [2, 7])
_WORDS = _value(
    st.lists(st.sampled_from(["s1", "s2", "s1^-1", "s2^-1"]), max_size=8).map(
        lambda t: " ".join(["B3:", *t])),
    ["B2: s1", "B5: s1 s4^-1", "B3: s3", "B0:", "B100000000: s1"],
)
_FLOATS = _value(st.floats(-1e3, 1e3), ["inf", "-inf", "0", "1e200", "1e-200"])
_T = _value(st.sampled_from(["1,0", "0.5,0.5", "0.3,-0.9"]), ["0,0", "1e300,0", "1,inf"])
_SPINS = _value(st.sampled_from(["0", "1/2", "1", "3/2", "2"]), ["1/0", "-1/2", "1e400"])


def _fusion_flags(draw):
    inputs = draw(st.lists(st.sampled_from(["0", "1"]), min_size=1, max_size=12))
    if draw(st.integers(0, 3)) == 0:
        inputs.insert(draw(st.integers(0, len(inputs))), draw(_LABELS))
    return ["--model", draw(_MODELS), "--inputs", ",".join(inputs),
            "--total", draw(_LABELS)]


def _optional(draw, flag, values):
    return [flag, draw(values)] if draw(st.booleans()) else []


_SUBCOMMAND_FLAGS = {
    "fusion-dim": _fusion_flags,
    "fusion-trees": lambda draw: _fusion_flags(draw) + _optional(
        draw, "--cap", _value(st.integers(1, 10 ** 4), [0, -1])),
    "qdims": lambda draw: ["--model", draw(_MODELS)] + _optional(
        draw, "--tolerance", _value(st.sampled_from(["1e-9", "1e-6", "0.1"]),
                                    [0, -1, "1e-300"])),
    "entropy": lambda draw: ["--model", draw(_MODELS)] + _optional(
        draw, "--base", _value(st.sampled_from(["2", "10", "0.5"]),
                               [1, 0, -2, "1e-320", "inf"])),
    "braid-check": lambda draw: [
        "--rep", draw(_value(st.sampled_from(["abelian", "tl", "fib"]), ["ising"])),
        *_optional(draw, "--strands", _value(
            st.integers(1, 12), [-5, 0, 318, 10 ** 8, 10 ** 30])),
        *_optional(draw, "--phi", _FLOATS),
        *_optional(draw, "--t", _T),
        *_optional(draw, "--braid", _WORDS),
    ],
    "compile": lambda draw: [
        "--target", draw(_value(
            st.sampled_from(["H", "T", "identity", "[[[0,0],[1,0]],[[1,0],[0,0]]]"]),
            ["Q", "[[1,2]]", "[[[1,0],[0,0]],[[0,0],[2,0]]]",
             "[[[NaN,0],[0,0]],[[0,0],[1,0]]]"])),
        "--max-len", draw(_value(st.integers(0, 5), [-2, 15, 10 ** 6])),
    ],
    "trace-est": lambda draw: [
        "--braid", draw(_WORDS),
        *_optional(draw, "--rep", _value(st.sampled_from(["fib", "tl", "abelian"]),
                                         ["ising"])),
        *_optional(draw, "--t", _T),
        *_optional(draw, "--phi", _FLOATS),
        # values over SHOTS_CAP are refused with exit 2 before any draw
        "--shots", draw(_value(st.integers(1, 2000),
                               [0, -1, 10 ** 5, SHOTS_CAP + 1, 10 ** 14])),
        "--seed", draw(_value(st.integers(0, 2 ** 64), [-2])),
    ],
    "toric": lambda draw: [
        "--lx", draw(_value(st.integers(2, 6), [0, 1, 400, 10 ** 12])),
        "--ly", draw(_value(st.integers(2, 6), [0, 1])),
        "--d", draw(_value(st.sampled_from([2, 3, 5, 7, 11, 13]),
                           [4, 15, 17, 97, 2 ** 61 - 1])),
    ],
    "interferometer": lambda draw: [
        "--lx", draw(_value(st.integers(2, 6), [-1, 1, 129, 10 ** 6, 10 ** 12])),
        "--ly", draw(_value(st.integers(2, 6), [128, 10 ** 12])),
        "--beta", draw(_FLOATS),
        "--braid", draw(_value(st.sampled_from(["yes", "no"]), ["maybe"])),
    ],
    "stringnet-check": lambda draw: draw(st.sampled_from([[], [], ["--bogus"], ["1"]])),
    "honeycomb": lambda draw: [
        flag for name in ("--jx", "--jy", "--jz") for flag in (name, draw(_FLOATS))],
    "cf-statistics": lambda draw: [
        "--j", draw(_value(st.integers(0, 10), [-3, 10 ** 30])),
        "--p", draw(_value(st.integers(1, 10), [0, -3, 10 ** 30])),
    ],
    "su2k": lambda draw: [
        "--j1", draw(_SPINS), "--j2", draw(_SPINS), "--j", draw(_SPINS),
        "--k", draw(_value(st.integers(1, 6), [0, -1, 10 ** 30])),
    ],
}


@st.composite
def _other_argv(draw):
    """An argv of a subcommand in :data:`_SUBCOMMAND_FLAGS`, sometimes cut short."""
    command = draw(st.sampled_from(sorted(_SUBCOMMAND_FLAGS)))
    argv = [command, *_SUBCOMMAND_FLAGS[command](draw)]
    if draw(st.integers(0, 7)) == 0:  # a missing flag or value
        argv = argv[: draw(st.integers(1, len(argv)))]
    elif draw(st.integers(0, 7)) == 0:
        argv.append("--bogus")
    return argv


class TestEveryOtherCommandFuzz:
    """Every subcommand that the knot and consistency fuzzes do not reach."""

    def test_covers_every_other_subcommand(self):
        fuzzed = set(_SUBCOMMAND_FLAGS) | {"jones", "bracket", "pentagon", "hexagon"}
        assert fuzzed == set(OPERATION_COVERAGE)

    @settings(max_examples=300, deadline=None)
    @given(_other_argv())
    @example(["interferometer", "--lx", "129", "--ly", "128", "--beta", "0.5", "--braid", "no"])
    @example(["interferometer", "--lx", str(10 ** 12), "--ly", "3", "--beta", "1", "--braid",
              "yes"])
    @example(["braid-check", "--rep", "abelian", "--strands", "-5"])
    @example(["braid-check", "--rep", "abelian", "--strands", str(10 ** 8)])
    @example(["su2k", "--j1", "1/0", "--j2", "1", "--j", "1", "--k", "2"])
    @example(["compile", "--target", "[[[1e308,1e308],[0,0]],[[0,0],[1,0]]]",
              "--max-len", "3"])
    @example(["braid-check", "--rep", "tl", "--t", "1e300,0"])
    @example(["trace-est", "--braid", "B3: s1 s2", "--rep", "fib", "--shots", str(10 ** 14),
              "--seed", "1"])
    @example(["fusion-trees", "--model", "fibonacci", "--inputs", ",".join(["1"] * 30),
              "--total", "1", "--cap", "100000000"])
    def test_exit_code_and_strict_json(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            status = main(argv)
        assert status in (0, 1, 2, 3)
        if status == 0:
            json.loads(out.getvalue(), parse_constant=pytest.fail)
        else:
            assert out.getvalue() == ""
            assert err.getvalue().startswith("error: ")


class TestDeterminism:
    def test_trace_est_seeded(self):
        argv = [
            "trace-est", "--braid", "B3: s1 s2 s1", "--rep", "fib",
            "--shots", "2000", "--seed", "42",
        ]
        assert render(run(argv)) == render(run(argv))
        other = argv[:-1] + ["43"]
        assert render(run(argv)) != render(run(other))

    def test_interferometer(self):
        res = json.loads(render(run([
            "interferometer", "--lx", "2", "--ly", "2",
            "--beta", "0.7853981633974483", "--braid", "yes",
        ])))
        assert res["no_braid_expectation"] == pytest.approx(0.7071067811865476, abs=1e-9)
        assert res["braid_expectation"] == pytest.approx(-0.7071067811865476, abs=1e-9)
        assert res["phi_1_1"] == pytest.approx(3.141592653589793)
        assert res["expectation"] == res["braid_expectation"]


class TestCoverage:
    def test_every_operation_reachable(self):
        operations = {
            # anyon algebra
            "fuse", "fusion_space_dim", "enumerate_fusion_trees",
            "quantum_dimensions", "total_dimension_entropy",
            "composite_fermion_statistics",
            # F/R symbols
            "fibonacci_data", "pentagon_residual", "hexagon_residual",
            "f_unitarity_residual", "su2k_admissible",
            # braids
            "parse_braid", "abelian_rep", "tl_b3_rep", "fib_qubit_rep",
            "evaluate", "relation_residual", "compile_gate",
            # knots
            "closure", "writhe", "kauffman_bracket", "jones", "bracket_tl_b3",
            # trace estimation
            "exact_normalized_trace", "hadamard_test_trace",
            # toric
            "build_stabilizers", "commutation_phase", "ground_space_dim",
            "string_operator", "syndrome", "correct", "homology_class",
            "dyon_braiding_phase", "interferometer_run",
            "honeycomb_phase", "honeycomb_effective_coupling",
            # string net
            "vertex_projector", "face_operator", "face_term_checks",
        }
        covered = {op for ops in OPERATION_COVERAGE.values() for op in ops}
        missing = operations - covered
        assert not missing, f"operations unreachable from the CLI: {missing}"
        # and the map only names real public API
        for op in covered:
            assert hasattr(anyons, op), op

    def test_coverage_map_matches_parser(self):
        from anyons.cli import _build_parser

        parser = _build_parser()
        subcommands = set()
        for action in parser._actions:
            if hasattr(action, "choices") and action.choices:
                subcommands = set(action.choices)
        assert subcommands == set(OPERATION_COVERAGE)


SMOKE_INVOCATIONS = [
    ["fusion-dim", "--model", "z_d:3", "--inputs", "1,2", "--total", "0"],
    ["fusion-trees", "--model", "fibonacci", "--inputs", "1,1,1,1,1", "--total", "1"],
    ["qdims", "--model", "toric"],
    ["entropy", "--model", "fibonacci", "--base", "2"],
    ["pentagon", "--model", "z_d:3"],
    ["hexagon", "--model", "fibonacci"],
    ["braid-check", "--rep", "fib", "--braid", "B3: s1 s2^-1"],
    ["braid-check", "--rep", "abelian", "--phi", "3.14159", "--strands", "5"],
    ["compile", "--target", "H", "--max-len", "4"],
    ["jones", "--braid", "B3: s1 s2", "--t", "0.5,0.2"],
    ["bracket", "--braid", "B3: s1 s2^-1"],
    ["bracket", "--braid", "B3: s1", "--method", "tl", "--t", "0.9,0.1"],
    ["trace-est", "--braid", "B3: s1", "--rep", "tl", "--t", "1,0",
     "--shots", "100", "--seed", "0"],
    ["toric", "--lx", "3", "--ly", "3", "--d", "3"],
    ["interferometer", "--lx", "2", "--ly", "2", "--beta", "0.5", "--braid", "no"],
    ["stringnet-check"],
    ["honeycomb", "--jx", "1", "--jy", "2", "--jz", "0"],
    ["cf-statistics", "--j", "2", "--p", "3"],
    ["su2k", "--j1", "1", "--j2", "1", "--j", "2", "--k", "4"],
]


class TestAllSubcommandsEmitJson:
    @pytest.mark.parametrize("argv", SMOKE_INVOCATIONS, ids=lambda a: " ".join(a))
    def test_valid_json_with_schema(self, argv):
        res = run(argv)
        assert res.status == 0, res.error
        payload = json.loads(render(res))
        assert payload["schema"] == 1


class TestProcessLevel:
    @pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
    def test_golden_bytes_across_processes(self, name):
        # separate interpreter runs get fresh hash randomization; output
        # bytes must not depend on it
        outs = set()
        for _ in range(2):
            proc = subprocess.run(
                [sys.executable, "-m", "anyons.cli", *GOLDEN_CASES[name]],
                capture_output=True, text=True,
            )
            assert proc.returncode == 0
            outs.add(proc.stdout)
        assert len(outs) == 1
        assert outs.pop() == (GOLDEN / name).read_text()

    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "anyons.cli", "fusion-dim", "--model",
             "fibonacci", "--inputs", "1,1", "--total", "0"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout) == {"dim": 1, "schema": 1}

    def test_error_exit_code(self):
        proc = subprocess.run(
            [sys.executable, "-m", "anyons.cli", "jones", "--braid", "bad"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert "error" in proc.stderr


class TestModelFileInput:
    def test_model_from_json_file(self, tmp_path):
        from anyons.fusion import zd_model

        path = tmp_path / "z4.json"
        path.write_text(zd_model(4).to_json())
        res = run(["fusion-dim", "--model", f"@{path}", "--inputs", "1,3", "--total", "0"])
        assert res.status == 0
        assert json.loads(render(res))["dim"] == 1

    def test_symbol_tables_from_files(self, tmp_path):
        from anyons.fsymbols import fibonacci_data

        _, f, r = fibonacci_data()
        f_path = tmp_path / "f.json"
        r_path = tmp_path / "r.json"
        f_path.write_text(f.to_json())
        r_path.write_text(r.to_json())
        res = run(["pentagon", "--f-json", str(f_path)])
        assert res.status == 0
        assert json.loads(render(res))["residual"] < 1e-12
        res = run(["hexagon", "--f-json", str(f_path), "--r-json", str(r_path)])
        assert res.status == 0
        assert json.loads(render(res))["residual"] < 1e-12
