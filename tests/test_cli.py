import hashlib
import json
import os
import resource
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import click
import numpy as np
import pytest
from click.testing import CliRunner

from productldpc import SparseBinMatrix, cli, simulate
from productldpc.alist import write_alist
from productldpc.cli import main


@pytest.fixture()
def runner():
    return CliRunner()


def test_unknown_subcommand_exits_2(runner):
    result = runner.invoke(main, ["frobnicate"])
    assert result.exit_code == 2


@pytest.mark.parametrize("exc, line", [
    (ValueError("bad input"), "error: bad input"),
    (OSError("no such file"), "error: no such file"),
    (KeyError("n"), "error: 'n'"),
    (MemoryError("no room"), "error: out of memory in fail: no room"),
    (MemoryError(), "error: out of memory in fail"),
], ids=["value", "os", "key", "memory", "bare-memory"])
def test_any_command_reports_errors_on_one_line(runner, monkeypatch, exc, line):
    # A command added to the group gets the same boundary as the built-in ones.
    @click.command()
    def fail():
        raise exc

    monkeypatch.setitem(main.commands, "fail", fail)
    result = runner.invoke(main, ["fail"])
    assert result.exit_code == 1 and isinstance(result.exception, SystemExit)
    assert result.output.strip() == line


def test_out_of_memory_is_one_line(tmp_path):
    # The address-space limit holds in the child alone.  The direct
    # spc:30000 square asks for a 6.7 GiB permutation table at once, so
    # the run fails in about 0.15 s instead of building anything.
    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))

    src = str(Path(cli.__file__).parents[1])
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = tmp_path / "h.alist"
    result = subprocess.run(
        [sys.executable, "-m", "productldpc.cli", "construct", "--comp-a", "spc:30000",
         "--comp-b", "spc:30000", "--out", str(out)],
        preexec_fn=limit, env=env, capture_output=True, text=True, timeout=60,
    )
    assert result.returncode == 1 and result.stdout == ""
    lines = result.stderr.splitlines()
    assert len(lines) == 1, result.stderr
    assert lines[0].startswith("error: out of memory in construct: building the "
                               "spc:30000 x spc:30000 product code (n=900060001): ")
    assert not out.exists()


def test_bad_component_spec_exits_1(runner, tmp_path):
    result = runner.invoke(
        main,
        ["construct", "--comp-a", "bogus:1", "--comp-b", "spc:3",
         "--out", str(tmp_path / "h.alist")],
    )
    assert result.exit_code == 1
    assert "error:" in result.output


def test_construct_then_girth(runner, tmp_path):
    out = tmp_path / "h.alist"
    result = runner.invoke(
        main,
        ["construct", "--comp-a", "mscmpc:5:3,4", "--comp-b", "mscmpc:5:3,4",
         "--out", str(out)],
    )
    assert result.exit_code == 0, result.output
    assert "(144,25)" in result.output.replace(" ", "")
    girth_json = tmp_path / "girth.json"
    result = runner.invoke(
        main, ["girth", "--in", str(out), "--json", str(girth_json)]
    )
    assert result.exit_code == 0, result.output
    assert "global_girth=8" in result.output
    doc = json.loads(girth_json.read_text())
    assert doc["global_girth"] == 8


def test_peg_then_interleaved_construct(runner, tmp_path):
    perms = tmp_path / "perms.json"
    result = runner.invoke(
        main,
        ["peg", "--variant", "generic", "--seed", "11",
         "--comp-a", "mscmpc:5:3,4", "--comp-b", "mscmpc:5:3,4",
         "--out", str(perms)],
    )
    assert result.exit_code == 0, result.output
    assert "seed=11" in result.output
    design_s = result.output.splitlines()[-1]
    assert design_s.startswith("design_s=") and float(design_s[len("design_s="):]) >= 0
    doc = json.loads(perms.read_text())
    assert doc["n_a"] == 12 and len(doc["perms"]) == 12
    assert doc["meta"]["seed"] == 11

    out = tmp_path / "hi.alist"
    result = runner.invoke(
        main,
        ["construct", "--comp-a", "mscmpc:5:3,4", "--comp-b", "mscmpc:5:3,4",
         "--perms", str(perms), "--out", str(out)],
    )
    assert result.exit_code == 0, result.output
    result = runner.invoke(main, ["girth", "--in", str(out)])
    assert result.exit_code == 0
    assert "global_girth=8" in result.output


@pytest.mark.parametrize("variant", ["circulant", "generic"])
def test_peg_names_a_negative_seed(runner, tmp_path, variant):
    perms = tmp_path / "perms.json"
    result = runner.invoke(
        main,
        ["peg", "--variant", variant, "--seed", "-1",
         "--comp-a", "mscmpc:5:3,4", "--comp-b", "mscmpc:5:3,4", "--out", str(perms)],
    )
    assert result.exit_code == 1
    assert result.output.strip() == "error: seed must be at least 0, got -1"
    assert not perms.exists()


# SHA-256 of each JSON file the CLI writes with its meta, on the (144,25)
# codes, when these pins were recorded; meta.tool holds "productldpc 0.1.0".
@pytest.mark.parametrize("args, digest", [
    (["peg", "--variant", "generic", "--seed", "1", "--comp-a", "mscmpc:5:3,4",
      "--comp-b", "mscmpc:5:3,4", "--out", "out.json"],
     "a98c935b0403adf20567d42bfd72bc71ebde5d037c452e46aec8e6faaa50715a"),
    (["spectrum", "--comp", "mscmpc:5:3,4", "--square", "--out", "out.json"],
     "b7981688ce01e25fed9982829bef7e74f6ac0c00d68251041a1425f36dd48197"),
    (["girth", "--in", "h.alist", "--json", "out.json"],
     "74818c6420e73835ee31f2c67f96312625d4f3daec828c1fded4726fc5140ddd"),
], ids=["peg", "spectrum", "girth"])
def test_cli_json_bytes_are_pinned(runner, tmp_path, monkeypatch, args, digest):
    # Relative paths, since girth's meta records its input path as given.
    monkeypatch.chdir(tmp_path)
    result = runner.invoke(main, ["construct", "--comp-a", "mscmpc:5:3,4",
                                  "--comp-b", "mscmpc:5:3,4", "--out", "h.alist"])
    assert result.exit_code == 0, result.output
    result = runner.invoke(main, args)
    assert result.exit_code == 0, result.output
    assert hashlib.sha256((tmp_path / "out.json").read_bytes()).hexdigest() == digest


def test_spectrum_small_square(runner, tmp_path):
    out = tmp_path / "spec.json"
    result = runner.invoke(
        main, ["spectrum", "--comp", "spc:3", "--square", "--out", str(out)]
    )
    assert result.exit_code == 0, result.output
    doc = json.loads(out.read_text())
    assert doc["n"] == 16 and doc["k"] == 9 and doc["complete"]
    assert doc["counts"]["0"] == 1
    assert doc["counts"]["4"] == 36  # 6 weight-2 row words x 6 column words
    assert doc["meta"]["tool"].startswith("productldpc")


def test_mindist(runner, tmp_path):
    out = tmp_path / "trunc.json"
    result = runner.invoke(
        main, ["mindist", "--comp", "mscmpc:81:9,10", "--out", str(out)]
    )
    assert result.exit_code == 0, result.output
    assert "d=4 multiplicity=2025" in result.output
    doc = json.loads(out.read_text())
    assert doc["counts"]["4"] == 2025
    assert not doc["complete"]


def test_mindist_refuses_a_count_with_a_digit_separator(runner):
    result = runner.invoke(main, ["mindist", "--comp", "spc:3_0"])
    assert result.exit_code == 1
    assert result.output == "error: invalid component spec 'spc:3_0': '3_0' is not a count\n"


def test_mindist_finds_no_low_weight_word_and_bound_refuses_its_spectrum(runner, tmp_path):
    spec = tmp_path / "f.json"
    result = runner.invoke(
        main, ["mindist", "--comp", "spc:3", "--w-max", "1", "--out", str(spec)]
    )
    assert result.exit_code == 0, result.output
    assert result.output.strip() == "no codewords of weight <= 1"
    assert json.loads(spec.read_text())["counts"] == {"0": 1}
    out = tmp_path / "ub.csv"
    result = runner.invoke(
        main, ["bound", "--spectrum", str(spec), "--ebn0", "0:4:1", "--out", str(out)]
    )
    assert result.exit_code == 1 and isinstance(result.exception, SystemExit)
    assert result.output.strip() == "error: spectrum has no nonzero-weight terms"
    assert not out.exists()


def test_bound_from_spectrum(runner, tmp_path):
    spec = tmp_path / "spec.json"
    runner.invoke(main, ["spectrum", "--comp", "spc:3", "--square", "--out", str(spec)])
    out = tmp_path / "ub.csv"
    result = runner.invoke(
        main,
        ["bound", "--spectrum", str(spec), "--ebn0", "0:4:1", "--out", str(out)],
    )
    assert result.exit_code == 0, result.output
    lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
    assert lines[0] == "ebn0_db,fer_ub,ber_ub"
    assert len(lines) == 6
    fers = [float(l.split(",")[1]) for l in lines[1:]]
    assert all(a >= b for a, b in zip(fers, fers[1:]))


def test_bound_single_term(runner, tmp_path):
    out = tmp_path / "ub.csv"
    result = runner.invoke(
        main,
        ["bound", "--weight", "16", "--multiplicity", str(2025 ** 2),
         "--n", "10000", "--k", "6561", "--ebn0", "1,2,3", "--out", str(out)],
    )
    assert result.exit_code == 0, result.output


def test_bound_requires_inputs(runner, tmp_path):
    result = runner.invoke(
        main, ["bound", "--ebn0", "1,2", "--out", str(tmp_path / "x.csv")]
    )
    assert result.exit_code == 1


@pytest.mark.parametrize("args", [
    ["--weight", "16", "--multiplicity", "4", "--n", "0", "--k", "0"],
    ["--weight", "16", "--multiplicity", "4", "--n", "10", "--k", "11"],
    ["--spectrum", "{spec}"],
], ids=["n0-k0", "k-above-n", "file-n0"])
def test_bound_rejects_bad_dimensions(runner, tmp_path, args):
    spec = tmp_path / "spec.json"
    spec.write_text('{"n": 0, "k": 0, "complete": false, "counts": {"16": 4}}')
    args = [a.format(spec=spec) for a in args]
    result = runner.invoke(
        main, ["bound", *args, "--ebn0", "1,2", "--out", str(tmp_path / "x.csv")]
    )
    out = result.output.strip()
    assert result.exit_code == 1 and isinstance(result.exception, SystemExit)
    assert out.startswith("error: a spectrum needs n >= 1") and "\n" not in out
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("doc", [
    "[16, 64]",
    '{"n": 144, "k": 25, "complete": false, "counts": [[16, 64]]}',
], ids=["not-an-object", "counts-list"])
def test_bound_rejects_misshapen_spectrum_file(runner, tmp_path, doc):
    spec = tmp_path / "spec.json"
    spec.write_text(doc)
    result = runner.invoke(
        main, ["bound", "--spectrum", str(spec), "--ebn0", "1,2", "--out", str(tmp_path / "x.csv")]
    )
    out = result.output.strip()
    assert result.exit_code == 1 and isinstance(result.exception, SystemExit)
    assert out.startswith("error:") and "JSON object" in out and "\n" not in out
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("doc, message", [
    ('{"n": 144.9, "k": 25, "complete": false, "counts": {"16": 64}}',
     "spectrum n must be an integer, got 144.9"),
    ('{"n": 144, "k": 25, "complete": false, "counts": {"16": 64.7}}',
     "spectrum A_16 must be an integer, got 64.7"),
    ('{"n": 144, "k": 25, "complete": "no", "counts": {"16": 64}}',
     "spectrum complete must be true or false, got 'no'"),
    ('{"n": 144, "k": true, "complete": false, "counts": {"16": 64}}',
     "spectrum k must be an integer, got True"),
    ('{"n": 144, "k": 25, "complete": false, "counts": {"16.5": 64}}',
     "spectrum weight '16.5' is not an integer"),
    ('{"k": 25, "complete": false, "counts": {"16": 64}}', "spectrum entry 'n' is missing"),
    ('{"n": 144, "complete": false, "counts": {"16": 64}}', "spectrum entry 'k' is missing"),
    ('{"n": 144, "k": 25, "counts": {"16": 64}}', "spectrum entry 'complete' is missing"),
], ids=["n-float", "count-float", "complete-string", "k-bool", "weight-float",
        "n-missing", "k-missing", "complete-missing"])
def test_bound_rejects_non_integer_spectrum_entries(runner, tmp_path, doc, message):
    spec = tmp_path / "spec.json"
    spec.write_text(doc)
    result = runner.invoke(
        main, ["bound", "--spectrum", str(spec), "--ebn0", "1,2", "--out", str(tmp_path / "x.csv")]
    )
    out = result.output.strip()
    assert result.exit_code == 1 and isinstance(result.exception, SystemExit)
    assert out == f"error: {message}"
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("args,message", [
    (["--weight", "200", "--multiplicity", "4"], "weight 200 is outside 0..144"),
    (["--weight", "16", "--multiplicity", "-64"], "A_16=-64 is negative"),
    (["--weight", "16", "--multiplicity", "64", "--rate", "nan"], "rate must be finite"),
    (["--weight", "16", "--multiplicity", "64", "--rate", "1.5"], "rate must be finite"),
], ids=["weight-above-n", "negative-count", "rate-nan", "rate-above-one"])
def test_bound_rejects_impossible_terms_and_rates(runner, tmp_path, args, message):
    result = runner.invoke(
        main,
        ["bound", *args, "--n", "144", "--k", "25", "--ebn0", "1,2",
         "--out", str(tmp_path / "x.csv")],
    )
    out = result.output.strip()
    assert result.exit_code == 1 and isinstance(result.exception, SystemExit)
    assert out.startswith("error:") and message in out and "\n" not in out
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("ebn0", ["nan,1", "1,inf", "-inf", "0:inf:1", "nan:2:1", "0:2:nan"])
def test_bound_rejects_non_finite_ebn0(runner, tmp_path, ebn0):
    result = runner.invoke(
        main,
        ["bound", "--weight", "4", "--multiplicity", "3", "--n", "9", "--k", "4",
         "--ebn0", ebn0, "--out", str(tmp_path / "x.csv")],
    )
    out = result.output.strip()
    assert result.exit_code == 1 and isinstance(result.exception, SystemExit)
    assert out.startswith("error:") and "finite" in out and "\n" not in out
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("ebn0, token", [("1_0,2", "1_0"), ("2,1_0", "1_0"), ("0:4:1_0", "1_0"),
                                         ("2,\uff14", "\uff14")],
                         ids=["list", "list-last", "range-step", "full-width"])
def test_bound_refuses_digit_separators_in_ebn0(runner, tmp_path, ebn0, token):
    # Python's float() reads "1_0" as 10, which would write a 10 dB row.
    result = runner.invoke(
        main,
        ["bound", "--weight", "4", "--multiplicity", "3", "--n", "9", "--k", "4",
         "--ebn0", ebn0, "--out", str(tmp_path / "x.csv")],
    )
    assert result.exit_code == 1 and isinstance(result.exception, SystemExit)
    assert result.output == f"error: Eb/N0 value {token!r} is not a number\n"
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("ebn0", ["0:1e9:1e-9", "-1e308:1e308:1"],
                         ids=["1e18-points", "inf-points"])
def test_bound_rejects_oversized_ebn0_range_before_building_it(runner, tmp_path, ebn0):
    tracemalloc.start()
    try:
        result = runner.invoke(
            main,
            ["bound", "--weight", "4", "--multiplicity", "3", "--n", "9", "--k", "4",
             "--ebn0", ebn0, "--out", str(tmp_path / "x.csv")],
        )
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    out = result.output.strip()
    assert result.exit_code == 1 and isinstance(result.exception, SystemExit)
    assert out.startswith("error:") and "100000 points" in out and "\n" not in out
    assert peak < 1 << 20  # the grid was never built
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("ebn0", ["2:1:0.5", "1e308:-1e308:1", ",", ""],
                         ids=["stop-below-start", "stop-far-below-start", "comma", "blank"])
def test_bound_rejects_empty_ebn0_grid(runner, tmp_path, ebn0):
    result = runner.invoke(
        main,
        ["bound", "--weight", "4", "--multiplicity", "3", "--n", "9", "--k", "4",
         "--ebn0", ebn0, "--out", str(tmp_path / "x.csv")],
    )
    out = result.output.strip()
    assert result.exit_code == 1 and isinstance(result.exception, SystemExit)
    assert out.startswith("error:") and "has no points" in out and "\n" not in out
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("token", ["-1", "2", "x"])
def test_encode_accepts_only_binary_bits(runner, tmp_path, token):
    info_path = tmp_path / "info.txt"
    info_path.write_text(" ".join(["0"] * 8 + [token]))
    out_path = tmp_path / "cw.txt"
    result = runner.invoke(
        main,
        ["encode", "--comp-a", "spc:3", "--comp-b", "spc:3",
         "--info", str(info_path), "--out", str(out_path)],
    )
    assert result.exit_code == 1 and isinstance(result.exception, SystemExit)
    assert result.output.strip() == f"error: information bits must be 0 or 1, got {token!r}"
    assert not out_path.exists()


@pytest.mark.parametrize("doc, message", [
    ([[1, 2, 3]] * 3, "{path}: expected a JSON object with a perms list"),
    ({"n_a": 3, "perms": 5}, "{path}: expected a JSON object with a perms list"),
    ({"n_a": 3, "perms": [[1.5, 2, 3], [1, 2, 3], [1, 2, 3]]},
     "{path}: block 0 must be a list of integers in 1..3"),
    ({"n_a": 3, "perms": [[True, 2, 3], [1, 2, 3], [1, 2, 3]]},
     "{path}: block 0 must be a list of integers in 1..3"),
    ({"n_a": 3.9, "perms": [[1, 2, 3]] * 3}, "n_a must be an integer, got 3.9"),
    # The bulk check must name the same block as a block-by-block read.
    ({"n_a": 3, "perms": [[1, 2, 3], [1, 0, 3], [1, 2, 3]]},
     "{path}: block 1 must be a list of integers in 1..3"),
    ({"n_a": 3, "perms": [[1, 2, 3], [1, 2, 3], [4, 2, 3]]},
     "{path}: block 2 must be a list of integers in 1..3"),
    ({"n_a": 3, "perms": [[1, 2, 3], [1, 2**70, 3], [1, 2, 3]]},
     "{path}: block 1 must be a list of integers in 1..3"),
    ({"n_a": 3, "perms": [[1, 2, 3], [1, 2, "3"], [1, 2, 3]]},
     "{path}: block 1 must be a list of integers in 1..3"),
    ({"n_a": 3, "perms": [[1, 2, 3], {"1": 2}, [1, 2, 3]]},
     "{path}: block 1 must be a list of integers in 1..3"),
    ({"n_a": 3, "perms": [[1, 2, 3], [1, 2, 3], [1, 2]]}, "block 2 is not a permutation of 0..2"),
    # Refused before numpy allocates anything n_a long, which would fail
    # naming neither the file nor n_a.
    ({"n_a": 10**30, "perms": []},
     "{path}: n_a = 1000000000000000000000000000000 does not fit in a file of 53 characters"),
    ({"n_a": 2**62, "perms": [[1]]},
     "{path}: n_a = 4611686018427387904 does not fit in a file of 44 characters"),
], ids=["top-level-array", "scalar-perms", "float-entry", "bool-entry", "float-n_a",
        "zero-entry", "entry-past-n_a", "entry-past-int64", "string-entry", "non-list-block",
        "short-block", "n_a-past-intp", "n_a-past-memory"])
def test_construct_rejects_malformed_permutation_file(runner, tmp_path, doc, message):
    perms = tmp_path / "perms.json"
    perms.write_text(json.dumps(doc))
    out_path = tmp_path / "h.alist"
    result = runner.invoke(
        main,
        ["construct", "--comp-a", "spc:2", "--comp-b", "spc:2",
         "--perms", str(perms), "--out", str(out_path)],
    )
    assert result.exit_code == 1 and isinstance(result.exception, SystemExit)
    assert result.output == "error: " + message.format(path=perms) + "\n"
    assert not out_path.exists()


@pytest.mark.parametrize("token, message", [
    ("1_0", "LLR '1_0' is not a number"),
    ("-2_5.0", "LLR '-2_5.0' is not a number"),
    ("x", "could not convert string to float: 'x'"),
    ("\uff14", "LLR '\uff14' is not a number"),
], ids=["digit-separator", "signed-separator", "word", "full-width"])
def test_decode_rejects_malformed_llr(runner, tmp_path, token, message):
    h_path = tmp_path / "h.alist"
    runner.invoke(main, ["construct", "--comp-a", "spc:2", "--comp-b", "spc:2",
                         "--out", str(h_path)])
    llr_path = tmp_path / "llr.txt"
    llr_path.write_text(" ".join(["1.5"] * 8 + [token]))
    out_path = tmp_path / "hard.txt"
    result = runner.invoke(
        main, ["decode", "--in", str(h_path), "--llr", str(llr_path), "--out", str(out_path)]
    )
    assert result.exit_code == 1 and isinstance(result.exception, SystemExit)
    assert result.output == f"error: {message}\n"
    assert not out_path.exists()


def test_encode_decode_round_trip(runner, tmp_path, rng):
    h_path = tmp_path / "h.alist"
    runner.invoke(
        main,
        ["construct", "--comp-a", "mscmpc:5:3,4", "--comp-b", "mscmpc:5:3,4",
         "--out", str(h_path)],
    )
    info = rng.integers(0, 2, 25)
    info_path = tmp_path / "info.txt"
    info_path.write_text(" ".join(map(str, info)))
    cw_path = tmp_path / "cw.txt"
    result = runner.invoke(
        main,
        ["encode", "--comp-a", "mscmpc:5:3,4", "--comp-b", "mscmpc:5:3,4",
         "--info", str(info_path), "--out", str(cw_path)],
    )
    assert result.exit_code == 0, result.output
    bits = np.array([int(t) for t in cw_path.read_text().split()])
    assert bits.shape == (144,)

    llr_path = tmp_path / "llr.txt"
    llr = 9.0 * (1 - 2 * bits.astype(float))
    llr[5] = -llr[5] / 3  # one corrupted position
    llr_path.write_text(" ".join(f"{v:.3f}" for v in llr))
    out_path = tmp_path / "hard.txt"
    result = runner.invoke(
        main,
        ["decode", "--in", str(h_path), "--llr", str(llr_path),
         "--out", str(out_path)],
    )
    assert result.exit_code == 0, result.output
    assert "converged=True" in result.output
    decoded = np.array([int(t) for t in out_path.read_text().split()])
    assert np.array_equal(decoded, bits)


def test_simulate_uncoded(runner, tmp_path):
    cfg = {
        "uncoded_n": 1000,
        "ebn0_db": [6.0],
        "max_iter": 3,
        "min_frame_errors": 5,
        "max_frames": 40,
        "seed": 4,
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "res.csv"
    result = runner.invoke(
        main, ["simulate", "--config", str(cfg_path), "--out", str(out)]
    )
    assert result.exit_code == 0, result.output
    assert "seed=4" in result.output
    text = out.read_text()
    assert "# seed=4" in text
    assert "ebn0_db,frames" in text


def test_simulate_product_code(runner, tmp_path):
    cfg = {
        "comp_a": "spc:3",
        "comp_b": "spc:3",
        "ebn0_db": [2.0],
        "max_iter": 20,
        "min_frame_errors": 5,
        "max_frames": 100,
        "seed": 6,
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "res.csv"
    result = runner.invoke(
        main, ["simulate", "--config", str(cfg_path), "--out", str(out)]
    )
    assert result.exit_code == 0, result.output
    rows = [l for l in out.read_text().splitlines() if not l.startswith("#")]
    assert len(rows) == 2


def test_simulate_takes_max_frames_past_sys_maxsize(runner, tmp_path):
    # The stopping rule ends the point long before the frame cap.
    cfg = {"comp_a": "spc:2", "comp_b": "spc:2", "ebn0_db": [0.0], "min_frame_errors": 1,
           "max_frames": 10**29, "seed": 3}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "res.csv"
    result = runner.invoke(main, ["simulate", "--config", str(cfg_path), "--out", str(out)])
    assert result.exit_code == 0, result.output
    assert "Traceback" not in result.output
    rows = [l for l in out.read_text().splitlines() if not l.startswith("#")]
    assert len(rows) == 2


@pytest.mark.parametrize("max_iter", [0, 2.5])
def test_simulate_rejects_bad_max_iter_before_starting(runner, tmp_path, max_iter):
    cfg = {"comp_a": "spc:3", "comp_b": "spc:3", "ebn0_db": [2.0], "max_iter": max_iter}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    result = runner.invoke(
        main, ["simulate", "--config", str(cfg_path), "--out", str(tmp_path / "r.csv"),
               "--workers", "2"]
    )
    assert result.exit_code == 1
    assert result.output.strip().splitlines() == [result.output.strip()]
    assert "max_iter" in result.output and "seed=" not in result.output
    assert not (tmp_path / "r.csv").exists()


@pytest.mark.parametrize("key, value", [
    ("min_frame_errors", 2.7), ("max_frames", 30.9), ("seed", 1.5), ("seed", -1),
    ("uncoded_n", 2.5),
])
def test_simulate_rejects_non_integer_config_before_starting(runner, tmp_path, key, value):
    cfg = {"comp_a": "spc:3", "comp_b": "spc:3", "ebn0_db": [2.0],
           "min_frame_errors": 5, "max_frames": 100, key: value}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    result = runner.invoke(
        main, ["simulate", "--config", str(cfg_path), "--out", str(tmp_path / "r.csv"),
               "--workers", "2"]
    )
    out = result.output.strip()
    assert result.exit_code == 1
    assert out.startswith(f"error: {key} must be") and "\n" not in out
    assert not (tmp_path / "r.csv").exists()


@pytest.mark.parametrize("text, message", [
    ('{"comp_a": "spc:3", "comp_b": "spc:3", "ebn0_db": 5}', "ebn0_db list"),
    ('[{"comp_a": "spc:3", "comp_b": "spc:3", "ebn0_db": [2.0]}]', "ebn0_db list"),
    ('{"comp_a": "spc:3", "comp_b": "spc:3", "ebn0_db": ["abc"]}', "ebn0_db entries"),
    ('{"comp_a": "spc:3", "comp_b": "spc:3", "ebn0_db": [NaN]}', "ebn0_db entries"),
    ('{"comp_a": "spc:3", "comp_b": "spc:3", "ebn0_db": [1.0, Infinity]}', "ebn0_db entries"),
    ('{"comp_a": "spc:3", "comp_b": "spc:3", "ebn0_db": [true]}', "ebn0_db entries"),
    ('{"comp_a": 5, "comp_b": "spc:3", "ebn0_db": [2.0]}', "comp_a must be"),
    ('{"comp_a": "spc:3", "comp_b": ["spc:3"], "ebn0_db": [2.0]}', "comp_b must be"),
    ('{"comp_b": "spc:3", "ebn0_db": [2.0]}', "comp_a must be"),
    ('{"comp_a": "spc:3", "comp_b": "spc:3", "perms": 7, "ebn0_db": [2.0]}', "perms must be"),
    ('{"comp_a": "spc:3", "comp_b": "spc:3", "perms": true, "ebn0_db": [2.0]}', "perms must be"),
    ('{"uncoded_n": 4, "comp_a": "spc:3", "ebn0_db": [2.0]}',
     "uncoded_n together with comp_a; give one code"),
    ('{"uncoded_n": 4, "perms": null, "ebn0_db": [2.0]}',
     "uncoded_n together with perms; give one code"),
    ('{"uncoded_n": 4, "comp_a": "spc:3", "comp_b": "spc:3", "ebn0_db": [2.0]}',
     "uncoded_n together with comp_a, comp_b; give one code"),
], ids=["scalar-grid", "top-level-array", "string", "nan", "infinity", "bool",
        "int-comp-a", "list-comp-b", "missing-comp-a", "int-perms", "bool-perms",
        "uncoded-with-comp-a", "uncoded-with-perms", "uncoded-with-both"])
def test_simulate_rejects_bad_config_shape_before_starting(runner, tmp_path, text, message):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(text)
    result = runner.invoke(
        main, ["simulate", "--config", str(cfg_path), "--out", str(tmp_path / "r.csv")]
    )
    out = result.output.strip()
    assert result.exit_code == 1 and isinstance(result.exception, SystemExit)
    assert out.startswith("error:") and message in out and "\n" not in out
    assert not (tmp_path / "r.csv").exists()


@pytest.mark.parametrize("workers", ["0", "-4"])
def test_simulate_rejects_workers_below_one(runner, tmp_path, workers):
    cfg = {"comp_a": "spc:3", "comp_b": "spc:3", "ebn0_db": [2.0], "max_frames": 100}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    result = runner.invoke(
        main, ["simulate", "--config", str(cfg_path), "--out", str(tmp_path / "r.csv"),
               "--workers", workers]
    )
    assert result.exit_code == 1
    assert result.output.strip() == f"error: workers must be at least 1, got {workers}"
    assert not (tmp_path / "r.csv").exists()


def test_simulate_rejects_workers_above_cap(runner, tmp_path, monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("a process pool was started")

    # Should the cap check ever be lost, the sweep fails here instead of
    # starting a pool of that many processes.
    monkeypatch.setattr(simulate, "ProcessPoolExecutor", no_pool)
    cfg = {"comp_a": "spc:3", "comp_b": "spc:3", "ebn0_db": [2.0], "max_frames": 100}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    workers = simulate.MAX_WORKERS + 1
    result = runner.invoke(
        main, ["simulate", "--config", str(cfg_path), "--out", str(tmp_path / "r.csv"),
               "--workers", str(workers)]
    )
    assert result.exit_code == 1 and isinstance(result.exception, SystemExit)
    assert result.output.strip() == (
        f"error: workers must be at most {simulate.MAX_WORKERS}, got {workers}"
    )
    assert not (tmp_path / "r.csv").exists()


@pytest.mark.parametrize("ebn0", [-1e308, 4000])
def test_simulate_rejects_ebn0_outside_the_float_range(runner, tmp_path, ebn0):
    # -1e308 dB makes Eb/N0 underflow to 0 and 4000 dB overflows it.
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"uncoded_n": 4, "ebn0_db": [1.0, ebn0]}))
    result = runner.invoke(
        main, ["simulate", "--config", str(cfg_path), "--out", str(tmp_path / "r.csv")]
    )
    out = result.output.strip()
    assert result.exit_code == 1 and isinstance(result.exception, SystemExit)
    assert out.startswith(f"error: ebn0_db entry {ebn0!r} is out of range") and "\n" not in out
    assert not (tmp_path / "r.csv").exists()


def test_girth_rejects_trailing_alist_tokens(runner, tmp_path):
    path = tmp_path / "h.alist"
    path.write_text("2 1\n1 2\n1 1\n2\n1\n1\n1 2\n9 9 9\n")
    result = runner.invoke(main, ["girth", "--in", str(path)])
    out = result.output.strip()
    assert result.exit_code == 1 and isinstance(result.exception, SystemExit)
    assert out == "error: 3 trailing tokens after the row lists"


@pytest.mark.parametrize("token", ["1_1", "+11", "\uff11\uff11", "\u0661\u0661"],
                         ids=["separator", "plus", "full-width", "arabic-indic"])
def test_girth_refuses_alist_integers_other_than_ascii_digits(runner, tmp_path, token):
    # int() reads each token as 11, the column index it stands for here.
    path = tmp_path / "h.alist"
    write_alist(SparseBinMatrix(1, 11, [list(range(11))]), path)
    text = path.read_text()
    assert text.endswith(" 11\n")
    path.write_text(text[:-3] + token + "\n")
    result = runner.invoke(main, ["girth", "--in", str(path)])
    assert result.exit_code == 1 and isinstance(result.exception, SystemExit)
    assert result.output == f"error: alist token {token!r} is not an integer\n"


@pytest.mark.parametrize("text, line", [
    # column 0 declares degree 2 and lists one row index
    ("2 1\n1 2\n2 1\n2\n1\n1\n1 2\n", "error: column 0: degree list disagrees with indices"),
    # column 0 names row 3 of a one-row matrix
    ("2 1\n1 2\n1 1\n2\n3\n1\n1 2\n", "error: column 0: row index 3 out of range"),
    # the header names the sizes and stops before the degree lines
    ("3 2\n", "error: truncated alist file"),
    # a 0 x 0 matrix reads, but has no girth
    ("0 0\n0 0\n", "error: girth of an empty matrix is undefined"),
], ids=["degree", "range", "short-header", "empty"])
def test_girth_rejects_inconsistent_alist_columns(runner, tmp_path, text, line):
    path = tmp_path / "h.alist"
    path.write_text(text)
    result = runner.invoke(main, ["girth", "--in", str(path)])
    assert result.exit_code == 1 and isinstance(result.exception, SystemExit)
    assert result.output.strip() == line


def test_simulate_rejects_unknown_config_keys(runner, tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"uncoded_n": 4, "ebn0_db": [3.0], "max_frame": 50,
                                    "min_frame_errors": 1, "seeed": 5}))
    result = runner.invoke(
        main, ["simulate", "--config", str(cfg_path), "--out", str(tmp_path / "r.csv")]
    )
    assert result.exit_code == 1 and isinstance(result.exception, SystemExit)
    assert result.output.strip() == (
        "error: config has unknown keys max_frame, seeed; known keys are comp_a, comp_b, "
        "ebn0_db, max_frames, max_iter, min_frame_errors, perms, seed, uncoded_n"
    )
    assert not (tmp_path / "r.csv").exists()


def test_simulate_checks_the_output_directory_before_starting(runner, tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"uncoded_n": 4, "ebn0_db": [3.0], "max_frames": 10}))
    out = tmp_path / "missing" / "r.csv"
    result = runner.invoke(main, ["simulate", "--config", str(cfg_path), "--out", str(out)])
    assert result.exit_code == 2 and isinstance(result.exception, SystemExit)
    assert result.output.splitlines() == [
        f"error: Invalid value for '--out': directory {str(out.parent)!r} does not exist"
    ]
    assert not out.parent.exists()


@pytest.mark.parametrize("args, work", [
    (["peg", "--variant", "generic", "--seed", "1", "--comp-a", "spc:3", "--comp-b", "spc:3",
      "--out"], "design_generic"),
    (["spectrum", "--comp", "spc:3", "--square", "--out"], "exhaustive_spectrum"),
    (["girth", "--in", "{alist}", "--json"], "local_girth"),
    (["mindist", "--comp", "spc:3", "--out"], "low_weight_search"),
], ids=["peg", "spectrum", "girth-json", "mindist"])
def test_missing_output_directory_is_found_before_any_work(runner, tmp_path, monkeypatch,
                                                           args, work):
    def no_work(*a, **k):
        raise AssertionError(f"{work} ran")

    monkeypatch.setattr(cli, work, no_work)
    alist = tmp_path / "h.alist"
    alist.write_text("2 1\n1 2\n1 1\n2\n1\n1\n1 2\n")
    out = tmp_path / "missing" / "out.json"
    argv = [a.format(alist=alist) for a in args] + [str(out)]
    result = runner.invoke(main, argv)
    assert result.exit_code == 2 and isinstance(result.exception, SystemExit)
    assert result.output.strip().startswith("error: Invalid value for")
    assert "\n" not in result.output.strip()
    assert not out.parent.exists()


@pytest.mark.parametrize("args, line", [
    (["girth", "--in", "missing"],
     "error: Invalid value for '--in': Path 'missing' does not exist."),
    (["peg", "--variant", "generic", "--seed", "x", "--comp-a", "spc:3", "--comp-b", "spc:3",
      "--out", "p.json"], "error: Invalid value for '--seed': 'x' is not a valid integer."),
    (["mindist"], "error: Missing option '--comp'."),
], ids=["missing-file", "bad-int", "missing-option"])
def test_usage_errors_are_one_line_with_exit_2(runner, args, line):
    result = runner.invoke(main, args)
    assert result.exit_code == 2 and isinstance(result.exception, SystemExit)
    assert result.output.strip() == line


# Every numeric flag, with a command line that reaches it; {flag} stands for
# the flag and its value, and the output goes to {out}.
_BOUND = ["bound", "--weight", "4", "--multiplicity", "3", "--n", "9", "--k", "4",
          "--ebn0", "1", "--out", "{out}"]
_NUMBER_FLAGS = {
    "--seed": ["peg", "--variant", "generic", "{flag}", "--comp-a", "spc:3", "--comp-b", "spc:3",
               "--out", "{out}"],
    "--w-max": ["mindist", "--comp", "spc:3", "{flag}", "--out", "{out}"],
    **{flag: [*_BOUND, "{flag}"] for flag in ("--weight", "--multiplicity", "--n", "--k",
                                             "--rate")},
    "--max-iter": ["decode", "--in", "{alist}", "--llr", "{llr}", "{flag}", "--out", "{out}"],
    "--workers": ["simulate", "--config", "{config}", "{flag}", "--out", "{out}"],
}


@pytest.mark.parametrize("flag, value", [
    (flag, value) for flag in _NUMBER_FLAGS for value in ("1_0", "+1", "\uff11")
    if (flag, value) != ("--rate", "+1")  # a real may carry a sign
])
def test_numeric_flags_follow_the_number_rule(runner, tmp_path, flag, value):
    # click's int() and float() read 1_0 as 10, and +1 and a full-width 1 as 1.
    alist, llr, config, out = (tmp_path / name for name in ("h.alist", "llr.txt", "c.json", "o"))
    write_alist(SparseBinMatrix(1, 2, [[0, 1]]), alist)
    llr.write_text("1.5 1.5\n")
    config.write_text(json.dumps({"uncoded_n": 2, "ebn0_db": [3.0], "max_frames": 25}))
    argv = []
    for arg in _NUMBER_FLAGS[flag]:
        argv += [flag, value] if arg == "{flag}" else [
            arg.format(alist=alist, llr=llr, config=config, out=out)]
    result = runner.invoke(main, argv)
    kind = "float" if flag == "--rate" else "integer"
    assert result.exit_code == 2 and isinstance(result.exception, SystemExit)
    assert result.output == (
        f"error: Invalid value for '{flag}': {value!r} is not a valid {kind}.\n")
    assert not out.exists()


@pytest.mark.parametrize("source", ["flags", "file"])
def test_bound_rejects_count_past_the_float_range(runner, tmp_path, source):
    if source == "flags":
        args = ["--weight", "16", "--multiplicity", str(10**400),
                "--n", "10000", "--k", "6561"]
    else:
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"n": 10000, "k": 6561, "complete": False,
                                    "counts": {"16": 10**400}}))
        args = ["--spectrum", str(spec)]
    out = tmp_path / "ub.csv"
    result = runner.invoke(main, ["bound", *args, "--ebn0", "1:2:0.5", "--out", str(out)])
    assert result.exit_code == 1 and isinstance(result.exception, SystemExit)
    assert result.output.strip() == "error: spectrum count A_16 is past the float range"
    assert not out.exists()


def test_bound_rejects_sum_past_the_float_range(runner, tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"n": 100, "k": 50, "complete": False,
                                "counts": {str(w): 10**308 for w in range(4, 8)}}))
    out = tmp_path / "ub.csv"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = runner.invoke(main, ["bound", "--spectrum", str(spec), "--ebn0", "-300,0",
                                      "--out", str(out)])
    assert not caught
    assert result.exit_code == 1 and isinstance(result.exception, SystemExit)
    assert result.output.strip() == "error: union bound at Eb/N0 = -300 dB is past the float range"
    assert not out.exists()
