"""CLI dispatch, JSON stability, exit codes, measured operation coverage."""

import argparse
import contextlib
import hashlib
import importlib
import io
import itertools
import json
import math
import pathlib
import re
import subprocess
import sys
import tempfile
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import anyons
from anyons import braids, cli, fsymbols, fusion, toric
from anyons.cli import CommandResult, main, render, run
from anyons.errors import InputError
from anyons.trace_estimation import SHOTS_CAP


def _subcommands() -> dict:
    """Each subcommand's parser, by name, as the CLI registers it."""
    return cli._build_parser().subcommands


GOLDEN = pathlib.Path(__file__).parent / "golden"

#: A model file of 10,000 labels (about 200 KB), whose (k, k, k) fusion
#: tensor would need 7.28 TiB; :func:`_write_big_model` writes it.
BIG_MODEL = pathlib.Path(tempfile.gettempdir()) / "anyons-test-10000-labels.json"

#: ``fusion-dim`` over 30,000 Fibonacci leaves: the exact dimension has over
#: 6,000 digits, past what Python prints.
LONG_FUSION_DIM = ["fusion-dim", "--model", "fibonacci", "--inputs", ",".join(["1"] * 30_000),
                   "--total", "0"]


def _write_big_model(path: pathlib.Path):
    labels = list(range(10_000))
    path.write_text(json.dumps({"labels": labels, "vacuum": 0, "name": "big",
                                "dual": [[a, a] for a in labels], "fusion": [[0, 0, 0, 1]]}))

B6_24 = ("B6: s5 s4 s1^-1 s5 s3^-1 s1^-1 s2 s4 s5 s2 s3 s5 s4^-1 s1^-1 s4 s4 s2 s3^-1 "
         "s1 s2 s3 s2 s5 s1")
B8_24 = ("B8: s2^-1 s4^-1 s6^-1 s2^-1 s5^-1 s6^-1 s4 s4 s7 s4^-1 s1 s5 s4 s6^-1 s7^-1 "
         "s5 s1 s3^-1 s1 s6 s2 s2 s5 s4")

GOLDEN_CASES = {
    "fusion_dim_fibonacci.json": [
        "fusion-dim", "--model", "fibonacci", "--inputs", "1,1,1,1", "--total", "0",
    ],
    "jones_two_unlink.json": ["jones", "--braid", "B2:"],
    "toric_2x2_d2.json": ["toric", "--lx", "2", "--ly", "2", "--d", "2"],
    "interferometer_3x3_braid.json": [
        "interferometer", "--lx", "3", "--ly", "3", "--beta", "0.785398", "--braid", "yes",
    ],
    "compile_h_max_len_12.json": ["compile", "--target", "H", "--max-len", "12"],
    # 24 crossings: past the state-sum oracle, and not B3 for the trace formula
    "bracket_b6_24_crossings.json": ["bracket", "--braid", B6_24, "--method", "statesum"],
    "bracket_b8_24_crossings.json": ["bracket", "--braid", B8_24, "--method", "statesum"],
    "jones_b8_24_crossings.json": ["jones", "--braid", B8_24, "--t", "0.6,0.8"],
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

    def test_largest_braiding_table_bytes(self, capsys):
        # recorded from the per-entry composition of braiding_table_oracle
        assert main(["toric", "--lx", "2", "--ly", "2", "--d", "13"]) == 0
        out = capsys.readouterr().out.encode()
        assert (len(out), hashlib.sha256(out).hexdigest()) == (
            108304, "0099cdfedfa0b36693a25b2cb95e8f772fc4c67b808d4a51828c6b0ddc1714ea")

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

    def test_resource_error(self, tmp_path, capsys):
        big = tmp_path / "big.json"
        _write_big_model(big)
        z128 = tmp_path / "z128.json"
        z128.write_text(fusion.zd_model(128).to_json())
        many_leaves = ["fusion-dim", "--model", f"@{z128}", "--inputs",
                       ",".join(["127"] * 14_000), "--total", "0"]
        for argv in (["qdims", "--model", f"@{big}"], LONG_FUSION_DIM, many_leaves):
            start = time.perf_counter()
            assert main(argv) == 2
            assert time.perf_counter() - start < 1.0
            out, err = capsys.readouterr()
            assert out == "" and err.startswith("error: ") and "Traceback" not in err
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

    @pytest.mark.parametrize("rep, braid", [("tl", "B5: s1"), ("fib", "B2: s1")])
    def test_trace_est_refuses_a_word_the_rep_has_no_strands_for(self, rep, braid, capsys):
        argv = ["trace-est", "--rep", rep, "--braid", braid, "--shots", "10", "--seed", "1"]
        assert main(argv) == 1
        out, err = capsys.readouterr()
        strands = braid[1]
        assert out == "" and err == f"error: word on {strands} strands fed to a 3-strand rep\n"

    @pytest.mark.parametrize("argv, strands", [
        (["braid-check", "--rep", "fib", "--strands", "4"], 4),
        (["braid-check", "--rep", "tl", "--t", "0.5,-0.8660254", "--strands", "2"], 2),
        (["braid-check", "--rep", "fib", "--strands", "3", "--braid", "B5: s4"], 5),
        (["bracket", "--braid", "B2: s1", "--method", "tl", "--t", "1"], 2),
        (["bracket", "--braid", "B4: s3^-1", "--method", "tl", "--t", "0.5,-0.8660254"], 4),
    ])
    def test_one_strand_count_refusal_on_every_path(self, argv, strands, capsys):
        # relation_residual, evaluate and the Temperley-Lieb trace formula
        # refuse a strand count through the one check trace-est uses
        assert main(argv) == 1
        out, err = capsys.readouterr()
        assert out == "" and err == f"error: word on {strands} strands fed to a 3-strand rep\n"

    def test_trace_est_abelian_rep_takes_any_strand_count(self):
        res = run(["trace-est", "--rep", "abelian", "--braid", "B5: s1 s4^-1",
                   "--shots", "10", "--seed", "1"])
        assert res.status == 0, res.error

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
        # negative caps and seeds outside the Philox key range, refused at parse time
        ["fusion-trees", "--model", "fibonacci", "--inputs", "1,1", "--total", "1",
         "--cap", "-5"],
        ["jones", "--braid", "B2: s1", "--cap", "-1"],
        ["bracket", "--braid", "B2: s1", "--cap", "-3"],
        ["trace-est", "--braid", "B3: s1", "--shots", "10", "--seed", "-1"],
        ["trace-est", "--braid", "B3: s1", "--shots", "10", "--seed", str(2 ** 128)],
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
        monkeypatch.setitem(_subcommands()["qdims"]._defaults, "handler",
                            lambda args: {"x": float("nan")})
        res = run(["qdims", "--model", "fibonacci"])
        assert res.status == 3 and res.payload is None and render(res) == ""
        assert "non-finite" in res.error

    @pytest.mark.parametrize("argv", [
        ["toric", "--lx", "2", "--ly", "2", "--d", "97"],
        ["toric", "--lx", "400", "--ly", "400", "--d", "2"],
        ["toric", "--lx", "129", "--ly", "128", "--d", "2"],
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

    def test_interferometer_refuses_a_beta_that_cannot_resolve_the_statistics(self, capsys):
        def argv(beta):
            return ["interferometer", "--lx", "3", "--ly", "3", "--beta", beta, "--braid", "yes"]

        for beta in ("0", "-0.0"):  # both runs vanish: no sign to compare
            assert main(argv(beta)) == 1
            out, err = capsys.readouterr()
            assert out == "" and err.startswith("error: ") and "beta" in err
        for beta in (repr(math.pi), "1e-13"):
            res = run(argv(beta))
            assert res.status == 0 and res.payload["phi_1_1"] == math.pi

    def test_toric_caps_admit_the_baseline_sizes(self):
        assert 13 ** 4 <= toric.BRAIDING_TABLE_CAP < 17 ** 4
        assert run(["toric", "--lx", "32", "--ly", "32", "--d", "2"]).status == 0
        start = time.perf_counter()
        res = run(["toric", "--lx", "128", "--ly", "128", "--d", "2"])  # the edge cap
        assert time.perf_counter() - start < 1.0
        assert res.status == 0 and res.payload["degeneracy"] == 4
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
        "--seed", draw(_value(st.integers(0, 2 ** 64), [-2, 2 ** 128])),
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

    @pytest.fixture(scope="class", autouse=True)
    def big_model(self):
        _write_big_model(BIG_MODEL)
        yield
        BIG_MODEL.unlink()

    def test_covers_every_other_subcommand(self):
        fuzzed = set(_SUBCOMMAND_FLAGS) | {"jones", "bracket", "pentagon", "hexagon"}
        assert fuzzed == set(_subcommands())

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
    @example(["fusion-trees", "--model", "fibonacci", "--inputs", "1,1", "--total", "1",
              "--cap", "-5"])
    @example(["trace-est", "--braid", "B3: s1", "--shots", "10", "--seed", "-1"])
    @example(["qdims", "--model", f"@{BIG_MODEL}"])
    @example(LONG_FUSION_DIM)
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


#: Public functions that no subcommand reaches: library operations that only
#: demos 01 and 02 and the benchmark's gauge files call.
LIBRARY_ONLY = {"fuse", "gauge_transform"}

#: Run in a fresh interpreter, so that no cache of a warm process (the
#: built-in F/R data) hides a builder: wraps every public function that
#: ``anyons`` exports, wherever an ``anyons.*`` module binds it, runs the argv
#: lists read from stdin through ``cli.run`` and prints the names reached.
_MEASURE_REACH = """
import functools, inspect, json, sys
import anyons
from anyons import cli

public = {name: fn for name, fn in vars(anyons).items() if not name.startswith("_")
          and (inspect.isfunction(fn) or hasattr(fn, "cache_info"))}
reached = set()

def counted(name, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        reached.add(name)
        return fn(*args, **kwargs)
    return wrapper

wrappers = {id(fn): counted(name, fn) for name, fn in public.items()}
for name, module in list(sys.modules.items()):
    if name == "anyons" or name.startswith("anyons."):
        for attr, value in list(vars(module).items()):
            if id(value) in wrappers:
                setattr(module, attr, wrappers[id(value)])
statuses = [cli.run(argv).status for argv in json.load(sys.stdin)]
json.dump({"public": sorted(public), "reached": sorted(reached), "statuses": statuses},
          sys.stdout)
"""


def measured_reach(invocations) -> dict:
    proc = subprocess.run([sys.executable, "-c", _MEASURE_REACH], input=json.dumps(invocations),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


class TestCoverage:
    def test_every_operation_reachable(self):
        reach = measured_reach(SMOKE_INVOCATIONS)
        assert reach["statuses"] == [0] * len(SMOKE_INVOCATIONS)
        assert {"fibonacci_data", "kauffman_bracket", "face_term_checks"} <= set(reach["public"])
        unreached = set(reach["public"]) - set(reach["reached"])
        assert unreached == LIBRARY_ONLY, f"operations unreachable from the CLI: {unreached}"

    def test_coverage_map_matches_parser(self):
        assert len(_subcommands()) == 17
        for name, sp in _subcommands().items():
            assert callable(sp.get_default("handler")), name


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
    ["honeycomb", "--jx", "1", "--jy", "2", "--jz", "3"],
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


def _parsed(parse, argv):
    """What ``parse(argv)`` gives: the Namespace, the InputError text, or the
    exit status and stdout of a help request."""
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            return parse(argv)
    except InputError as exc:
        return f"InputError: {exc}"
    except SystemExit as exc:
        return f"exit {exc.code}: {out.getvalue()}"


def _top_level(argv):
    return cli._build_parser().parse_args(argv)


#: Argument errors of each kind, each a subcommand's own.
ARGUMENT_ERRORS = [
    *(argv + ["--bogus", "1"] for argv in SMOKE_INVOCATIONS),  # an unknown flag
    ["fusion-dim", "--model", "fibonacci", "--inputs", "1,1"],  # a missing required flag
    ["compile", "--target", "H"],
    ["braid-check", "--rep", "spin"],  # a bad choices value
    ["bracket", "--braid", "B2: s1", "--method", "sum"],
    ["interferometer", "--lx", "3", "--ly", "3", "--beta", "0.5", "--braid", "maybe"],
    ["trace-est", "--braid", "B3: s1", "--shots", "10", "--seed", "-1"],  # a bad type
    ["interferometer", "--lx", "3", "--ly", "3", "--beta", "nan", "--braid", "yes"],
    ["toric", "--lx", "two", "--ly", "2", "--d", "2"],
    ["qdims", "--model", "fibonacci", "--tolerance", "-1"],
]


class TestDirectDispatch:
    """``_parse_args`` hands an argv that starts with a subcommand to that
    subcommand's parser; it must read every argv as the top-level parser does."""

    @pytest.mark.parametrize("argv", [*GOLDEN_CASES.values(), *SMOKE_INVOCATIONS],
                             ids=" ".join)
    def test_same_namespace(self, argv):
        args = cli._parse_args(argv)
        assert isinstance(args, argparse.Namespace) and args.command == argv[0]
        assert args == _top_level(argv)

    @pytest.mark.parametrize("argv", ARGUMENT_ERRORS, ids=" ".join)
    def test_same_input_error(self, argv):
        direct = _parsed(cli._parse_args, argv)
        assert direct.startswith("InputError: ")
        assert direct == _parsed(_top_level, argv)
        assert run(argv) == CommandResult(1, error=direct.removeprefix("InputError: "))

    @pytest.mark.parametrize("name", sorted(_subcommands()))
    def test_every_bare_subcommand(self, name):  # its required flags missing, or all defaults
        assert _parsed(cli._parse_args, [name]) == _parsed(_top_level, [name])

    @pytest.mark.parametrize("argv", [["pentagon", "-h"], ["toric", "--help"]], ids=" ".join)
    def test_same_subcommand_help(self, argv):
        direct = _parsed(cli._parse_args, argv)
        assert direct.startswith(f"exit 0: usage: anyons {argv[0]} ")
        assert direct == _parsed(_top_level, argv)

    @pytest.mark.parametrize("argv, message", [
        ([], "the following arguments are required: command"),
        (["qdim", "--model", "fibonacci"], "argument command: invalid choice: 'qdim'"),
        (["--model", "fibonacci", "qdims"], "argument command: invalid choice: 'fibonacci'"),
    ], ids=str)
    def test_other_argv_goes_to_the_top_level_parser(self, argv, message):
        direct = _parsed(cli._parse_args, argv)
        assert direct.startswith(f"InputError: {message}")
        assert direct == _parsed(_top_level, argv)
        assert run(argv).status == 1

    def test_top_level_help(self):
        direct = _parsed(cli._parse_args, ["-h"])
        assert direct.startswith("exit 0: usage: anyons [-h]\n")
        assert direct == _parsed(_top_level, ["-h"])


class TestBuiltInsAreShared:
    NAMES = ("fibonacci", "toric", "z_d:5")

    def test_one_instance_per_built_in(self):
        for name in self.NAMES:
            assert fusion.named_model(name) is fusion.named_model(name)
            assert cli._fr_data_for(name) is cli._fr_data_for(name)
            assert cli._fr_data_for(name)[0] is fusion.named_model(name)
        assert fusion.named_model("z_d:05") is fusion.zd_model(5) is fusion.named_model("z_d:5")
        assert cli._fr_data_for("z_d:05") is cli._fr_data_for("z_d:5")
        assert fsymbols.fibonacci_data() is fsymbols.fibonacci_data()

    def test_model_files_are_read_on_every_call(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text(fusion.zd_model(3).to_json())
        first, second = cli._fr_data_for(f"@{path}"), cli._fr_data_for(f"@{path}")
        assert first[0] == second[0] and first[0] is not second[0]
        assert first[1] is not second[1] and first[2] is not second[2]
        path.write_text(fusion.zd_model(4).to_json())
        assert cli._fr_data_for(f"@{path}")[0].labels == (0, 1, 2, 3)

    def test_shared_data_is_read_only(self):
        for name in self.NAMES:
            model, f, r = cli._fr_data_for(name)
            with pytest.raises(ValueError, match="read-only"):
                model.N[0, 0, 0] = 2
            label = model.labels[0]
            for mapping, key in ((model.fusion, next(iter(model.fusion))),
                                 (model.dual, label), (model.index, label)):
                with pytest.raises(TypeError):
                    mapping[key] = 0
            for table in (f, r):
                for array in (table.rows, table.values):
                    with pytest.raises(ValueError, match="read-only"):
                        array[0] = 0
                with pytest.raises(AttributeError):
                    table.values = table.values.copy()
        rep = braids.fib_qubit_rep()
        codebooks = (braids._distinct_words(half) for half in (0, 3, 7))
        for array in (*(rep.generator(g) for g in (-2, -1, 1, 2)), *itertools.chain(*codebooks)):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0

    def test_every_cache_is_bounded(self):
        caches, decorated = _package_caches()
        assert len(caches) == decorated  # every decorated function was found
        names = {f"{cache.__module__}.{cache.__qualname__}" for cache in caches}
        assert {"anyons.braids._distinct_words", "anyons.braids.fib_qubit_rep",
                "anyons.fusion.zd_model", "anyons.cli._builtin_fr_data"} <= names
        for cache in caches:
            maxsize = cache.cache_info().maxsize
            assert isinstance(maxsize, int) and 1 <= maxsize <= 8, cache


_CACHE_DECORATOR = re.compile(r"^\s*@(?:functools\.)?(?:lru_cache|cache)\b", re.MULTILINE)


def _package_caches():
    """Every ``functools`` cache of a module-level function or class method in
    ``src/anyons``, and the number of cache decorators in its source."""
    caches, decorated = [], 0
    for path in sorted(pathlib.Path(anyons.__file__).parent.glob("*.py")):
        module = importlib.import_module(
            "anyons" if path.stem == "__init__" else f"anyons.{path.stem}")
        decorated += len(_CACHE_DECORATOR.findall(path.read_text()))
        scopes = [vars(module)] + [vars(value) for value in vars(module).values()
                                   if isinstance(value, type) and value.__module__ == module.__name__]
        caches += [value for scope in scopes for value in scope.values()
                   if hasattr(value, "cache_info") and value.__module__ == module.__name__]
    return caches, decorated


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

    def test_labels_that_print_alike_name_the_first(self, tmp_path):
        # Z_2 with labels 0 and "0": the token "0" names the vacuum 0
        labels = [0, "0"]
        path = tmp_path / "z2.json"
        path.write_text(json.dumps({
            "labels": labels, "vacuum": 0, "dual": [[a, a] for a in labels],
            "fusion": [[a, b, labels[(i + j) % 2], 1]
                       for i, a in enumerate(labels) for j, b in enumerate(labels)]}))
        res = run(["fusion-dim", "--model", f"@{path}", "--inputs", "0,0", "--total", "0"])
        assert res.status == 0 and res.payload["dim"] == 1
        res = run(["fusion-trees", "--model", f"@{path}", "--inputs", "0", "--total", "1"])
        assert res.status == 1 and res.error == "label '1' not in model [0, '0']"

    def test_multiplicity_past_int64_is_an_input_error(self, tmp_path, capsys):
        doc = json.loads(fusion.fibonacci_model().to_json())
        doc["fusion"][-1][3] = 10 ** 29
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(doc))
        assert main(["qdims", "--model", f"@{path}"]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ") and "int64" in err

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
