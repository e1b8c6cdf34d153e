"""Command-line interface: subcommands, pipelines, exit codes."""

import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import sparsepoly
import sparsepoly.cli as cli
from helpers import time_limit
from sparsepoly import HashMismatch, canonical_json, knight, parse, rmvp

KNIGHT2 = (
    "a^-2 b^-1 + a^-2 b + a^-1 b^-2 + a^-1 b^2 + a b^-2 + a b^2"
    " + a^2 b^-1 + a^2 b"
)


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out.rstrip("\n"), captured.err.rstrip("\n")


def test_eval_zero(capsys):
    code, out, _ = run(capsys, "eval", "0")
    assert code == 0
    assert out == "0"


def test_eval_canonical(capsys):
    code, out, _ = run(capsys, "eval", "3 x y + z^3 + x y^6 z")
    assert code == 0
    assert out == "3 x y + x y^6 z + z^3"


def test_eval_lex_varorder(capsys):
    code, out, _ = run(capsys, "eval", "x + y + x^2", "--order", "lex", "--varorder", "x,y")
    assert code == 0
    assert out == "x^2 + x + y"


def test_eval_lex_repeated_varorder_exit_code(capsys):
    code, out, err = run(capsys, "eval", "x^2 y", "--order", "lex", "--varorder", "x,x,y")
    assert code == 1
    assert out == ""
    assert "repeats" in err


def test_eval_lex_invalid_varorder_name_exit_code(capsys):
    code, out, err = run(capsys, "eval", "x^2 y", "--order", "lex", "--varorder", "x,y,1bad")
    assert code == 1
    assert out == ""
    assert "invalid symbol" in err


def test_eval_json(capsys):
    code, out, _ = run(capsys, "eval", "2 x", "--json")
    assert code == 0
    assert json.loads(out) == {"terms": [{"powers": {"x": 1}, "coeff": 2.0}]}


def test_eval_banner(capsys):
    code, out, _ = run(capsys, "eval", "x", "--banner")
    assert code == 0
    assert out == "polynomial:\nx"


def test_eval_stdin_lines(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("a + b\n\n2 x 3\n"))
    code, out, _ = run(capsys, "eval", "-")
    assert code == 0
    assert out == "a + b\n6 x"


def test_stdin_lines_lose_only_grammar_whitespace(capsys, monkeypatch):
    # U+00A0 is Unicode whitespace that the grammar rejects: a line with it
    # fails on stdin as it does as an argument.
    monkeypatch.setattr("sys.stdin", io.StringIO("x\u00a0\n"))
    code, out, err = run(capsys, "eval", "-")
    assert code == 1
    assert out == ""
    assert err == "sparsepoly: unexpected character '\\xa0' (at offset 1)"
    assert run(capsys, "eval", "x\u00a0")[:2] == (1, "")
    monkeypatch.setattr("sys.stdin", io.StringIO(" \tx \r\n\n\t\n"))
    assert run(capsys, "eval", "-")[:2] == (0, "x")


def test_subs_scalar_output(capsys):
    code, out, _ = run(capsys, "subs", "x + 5 x^4 y + 8 y^2 x z^3", "x=1", "y=2", "z=3")
    assert code == 0
    assert out == "875"


def test_subs_order_sensitive(capsys):
    code, out, _ = run(capsys, "subs", "a+b+c", "a=x^6", "x=1+a")
    assert code == 0
    assert out == "1 + 6 a + 15 a^2 + 20 a^3 + 15 a^4 + 6 a^5 + a^6 + b + c"
    code, out, _ = run(capsys, "subs", "a+b+c", "x=1+a", "a=x^6")
    assert out == "b + c + x^6"


def test_pipeline_via_stdin(capsys, monkeypatch):
    code, first, _ = run(capsys, "eval", "a+b+c")
    assert code == 0
    monkeypatch.setattr("sys.stdin", io.StringIO(first + "\n"))
    code, out, _ = run(capsys, "subs", "-", "a=x^6")
    assert code == 0
    assert out == "b + c + x^6"


def test_json_lines_on_stdin_are_lossless(capsys, monkeypatch):
    code, first, _ = run(capsys, "eval", "--json", "0.1 a")
    assert code == 0
    monkeypatch.setattr("sys.stdin", io.StringIO(first + "\n"))
    code, out, _ = run(capsys, "eval", "-")
    assert code == 0
    assert out == "0.1 a"
    # a third has no exact text form; through JSON it comes back bit for bit
    third = canonical_json(parse("a") / 3)
    monkeypatch.setattr("sys.stdin", io.StringIO(f"{third}\n2 b\n"))
    code, out, _ = run(capsys, "eval", "-", "--json")
    assert code == 0
    assert out.splitlines() == [third, canonical_json(parse("2 b"))]
    half = '{"terms":[{"powers":{"a":1},"coeff":0.5}]}'
    monkeypatch.setattr("sys.stdin", io.StringIO(half + "\n"))
    code, out, _ = run(capsys, "subs", "-", "a=2")
    assert code == 0
    assert out == "1"


def test_subs_with_two_bindings_prints_the_bytes_of_two_piped_stages(capsys, monkeypatch):
    line = "-a^2 x y^2 + a^3 + b^3 - x^3 y"
    a, x = "a=0.3 x + 0.33 y^2 + 0.7 b", "x=0.1 + 0.14 a + 2.3 y"

    def stage(stdin, *bindings):
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin + "\n"))
        code, out, err = run(capsys, "subs", "-", *bindings, "--json")
        assert (code, err) == (0, "")
        return out

    assert stage(line, a, x) == stage(stage(line, a), x)


def test_handlers_call_the_library_through_the_module_globals(capsys, monkeypatch):
    # A tracer swaps these names in the module globals; a handler that
    # captured a function at import would hide its calls from the trace.
    from sparsepoly import arith

    names = (
        "parse", "from_json", "render", "canonical_json", "subs", "subvec", "deriv", "series", "trunc"
    )
    calls = {}

    def counting(module, name):
        real = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    for name in names:
        counting(cli, name)
    counting(arith, "power")
    json_line = canonical_json(parse("0.5 a"))
    cases = [
        (["eval", "x + y"], "", {"parse": 1, "render": 1}),
        (
            ["eval", "-", "--json"],
            f"{json_line}\nx\n",
            {"from_json": 1, "parse": 1, "canonical_json": 2},
        ),
        (["subs", "-", "a=2", "b=x"], "a b\na\n", {"parse": 4, "subs": 2, "render": 1}),
        (["subvec", "x y", "x=1,2", "y=3"], "", {"parse": 1, "subvec": 1}),
        (["deriv", "x^2", "x", "--json"], "", {"parse": 1, "deriv": 1, "canonical_json": 1}),
        (["series", "x^2 + x y", "x"], "", {"parse": 1, "series": 1}),
        (["trunc", "x^2 + x", "1"], "", {"parse": 1, "trunc": 1, "render": 1}),
        (["knight", "2", "--pow", "2"], "", {"power": 1, "render": 1}),
    ]
    for argv, stdin, want in cases:
        calls.clear()
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
        code, _, err = run(capsys, *argv)
        assert (code, err) == (0, "")
        assert calls == want, argv


def test_subvec(capsys):
    code, out, _ = run(
        capsys, "subvec", "3 a c + 6 a^2 b^2 + 8 a^2 c^2 + 4 a^4", "a=1", "b=2", "c=1,2,3,4,5"
    )
    assert code == 0
    assert out == "39 66 109 168 243"


@pytest.mark.parametrize(
    "argv",
    [
        ["horner", "x", "1,,2"],
        ["horner", "x", "1,2,"],
        ["horner", "x", ",1"],
        ["horner", "x", "1, ,2"],
        ["subvec", "x+y", "x=1,,2", "y=3,4"],
        ["subvec", "x", "x=1,2,"],
    ],
)
def test_empty_number_list_entry_exit_code(capsys, argv):
    # An empty entry used to be skipped: horner shifted the coefficients
    # to lower powers and subvec paired the wrong components.
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("sparsepoly")


@pytest.mark.parametrize(
    "numbers, reason",
    [
        ("1,,2", "empty entry in the number list '1,,2'"),
        ("1,a", "could not convert string to float: 'a'"),
        ("1/0", "zero denominator in '1/0'"),
    ],
)
@pytest.mark.parametrize("command", ["horner", "subvec"])
def test_bad_number_list_message_names_the_reason(capsys, command, numbers, reason):
    argv = ["horner", "x", numbers] if command == "horner" else ["subvec", "x", f"x={numbers}"]
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err == f"sparsepoly: {reason}"


def test_number_list_entries_may_carry_spaces(capsys):
    code, out, _ = run(capsys, "horner", "x", "1, 2 ,3")
    assert code == 0
    assert out == "1 + 2 x + 3 x^2"


def test_deriv(capsys):
    code, out, _ = run(capsys, "deriv", "a + 5 a^5*b^2*c^8 -3 x^2 a^3 b c^3", "a", "b", "c")
    assert code == 0
    assert out == "-27 a^2 c^2 x^2 + 400 a^4 b c^7"


def test_aderiv(capsys):
    code, out, _ = run(capsys, "aderiv", "a + 5 a^5*b^2*c^8 -3 x^2 a^3 b c^3", "a=3", "b=1", "c=2")
    assert code == 0
    assert out == "33600 a^2 b c^6 - 108 c x^2"


def test_horner_with_fractions(capsys):
    code, out, _ = run(capsys, "horner", "x", "1,2,3")
    assert code == 0
    assert out == "1 + 2 x + 3 x^2"
    code, out, _ = run(capsys, "horner", "x+y", "0,1,0,-1/6,0,1/120")
    assert code == 0
    assert out.startswith("x - 0.5 x y^2 + 0.04166667 x y^4")


def test_trunc_family(capsys):
    cubed = ("1 + 3 x + 3 x^2 + 3 x^2 y + x^3 + 6 x^3 y + 3 x^4 y"
             " + 3 x^4 y^2 + 3 x^5 y^2 + x^6 y^3")
    code, out, _ = run(capsys, "trunc", cubed, "3")
    assert code == 0
    assert out == "1 + 3 x + 3 x^2 + 3 x^2 y + x^3"
    code, out, _ = run(capsys, "trunc1", "x^2 y + x^4", "x=2")
    assert out == "x^2 y"
    code, out, _ = run(capsys, "onevarpow", "x^2 y + x^4 + 3 x^2", "x=2")
    assert out == "3 + y"


def test_series_command(capsys):
    code, out, _ = run(capsys, "series", "a^2 x b + x^2 a b + b c x^2 + a b c + c^6 x", "x")
    assert code == 0
    assert out == "x^0(a b c) + x^1(a^2 b + c^6) + x^2(a b + b c)"


def test_taylor_command(capsys):
    code, out, _ = run(capsys, "taylor", "x^2", "x", "a")
    assert code == 0
    assert out == "(x-a)^0(a^2) + (x-a)^1(2 a) + (x-a)^2(1)"


def test_coeffs_display(capsys):
    code, out, _ = run(capsys, "coeffs", "5 + 8*x^2*y - 13*y*x^2 + 11*z - 3*x*yz")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("A disord object with hash ")
    assert lines[0].endswith(" and elements")
    assert lines[1] == "5 -3 -5 11"
    assert lines[2] == "(in some order)"


def test_powers_display(capsys):
    code, out, _ = run(capsys, "powers", "5 + 2 x^2 y")
    assert code == 0
    assert out.splitlines()[1] == "[1] [x^2 y]"


def test_knight_fixture(capsys):
    code, out, _ = run(capsys, "knight", "2")
    assert code == 0
    assert out == KNIGHT2


def test_knight_dimension_one_is_zero(capsys):
    code, out, _ = run(capsys, "knight", "1")
    assert code == 0
    assert out == "0"


def test_knight_rejects_dimension_zero(capsys):
    code, _, err = run(capsys, "knight", "0")
    assert code == 1
    assert "dimension" in err


def test_knight_constant(capsys):
    # number of two-move round trips in 2D: each move paired with its inverse
    moves = [
        (si * 2, sj) for si in (1, -1) for sj in (1, -1)
    ] + [(sj, si * 2) for si in (1, -1) for sj in (1, -1)]
    expected = sum(
        1 for m1 in moves for m2 in moves if (m1[0] + m2[0], m1[1] + m2[1]) == (0, 0)
    )
    code, out, _ = run(capsys, "knight", "2", "--pow", "2", "--constant")
    assert code == 0
    assert out == str(expected) == "8"


def test_knight_onevarpow(capsys):
    # a=0, b=0 keeps exactly the constant term of knight(2)^2
    code, out, _ = run(capsys, "knight", "2", "--pow", "2", "--onevarpow", "a=0,b=0")
    assert code == 0
    assert out == "8"


def test_knight_expected_distance(capsys):
    # every 2D knight move has norm sqrt(2^2 + 1^2)
    code, out, _ = run(capsys, "knight", "2", "--expected-distance")
    assert code == 0
    assert abs(float(out) - math.sqrt(5)) < 1e-6
    assert out == "2.236068"


def test_knight_term_count_property():
    for d in (1, 2, 3, 4):
        k = knight(d)
        assert len(k) == 4 * d * (d - 1)
        for t, c in k.terms():
            assert c == 1
            assert sorted(abs(p) for _, p in t) == [1, 2]


def test_knight_matches_brute_force_move_enumeration():
    # independent enumeration of distinct move vectors in 4 dimensions
    moves = set()
    for i in range(4):
        for j in range(4):
            if i == j:
                continue
            for si in (2, -2):
                for sj in (1, -1):
                    vec = [0, 0, 0, 0]
                    vec[i], vec[j] = si, sj
                    moves.add(tuple(vec))
    assert len(knight(4)) == len(moves) == 48


def test_knight_power_is_symmetric_under_inversion():
    from sparsepoly import invert

    k32 = knight(3) ** 2
    assert invert(k32) == k32
    k23 = knight(2) ** 3
    assert invert(k23) == k23


def test_rmvp_deterministic(capsys):
    code, out1, _ = run(capsys, "rmvp", "5", "2", "2", "4", "--seed", "42")
    code, out2, _ = run(capsys, "rmvp", "5", "2", "2", "4", "--seed", "42")
    assert out1 == out2
    code, out3, _ = run(capsys, "rmvp", "5", "2", "2", "4", "--seed", "43")
    assert out1 != out3


def test_rmvp_bounds_property():
    p = rmvp(5, 2, 2, 4, seed=99)
    assert 1 <= len(p) <= 5
    for t, c in p.terms():
        assert c in {1.0, 2.0, 3.0, 4.0, 5.0}
        assert {s for s, _ in t} <= set("abcd")
        assert all(1 <= k <= 4 for _, k in t)
        assert 1 <= len(t) <= 2


def test_rmvp_degenerate_is_single_symbol():
    assert rmvp(1, 1, 1, 1, seed=0) == parse("a")


def test_rmvp_alphabet_names(capsys):
    code, out, _ = run(capsys, "rmvp", "6", "2", "2", "u,v", "--seed", "7")
    assert code == 0
    assert set(parse(out).symbols()) <= {"u", "v"}


def test_rmvp_rejects_invalid_alphabet_names(capsys):
    with pytest.raises(ValueError, match="invalid symbol name"):
        rmvp(3, 1, 1, ["1x", "y z"], seed=1)
    code, out, err = run(capsys, "rmvp", "3", "1", "1", "1x,y z", "--seed", "1")
    assert code == 1
    assert out == ""
    assert "invalid symbol name" in err


@pytest.mark.parametrize("alphabet", ["\u0663", "\u00b2"], ids=["arabic-indic-3", "superscript-2"])
def test_rmvp_pool_size_is_ascii_digits_only(capsys, alphabet):
    # str.isdigit() accepts these; as an alphabet they are invalid names.
    code, out, err = run(capsys, "rmvp", "3", "1", "1", alphabet, "--seed", "1")
    assert code == 1
    assert out == ""
    assert err == f"sparsepoly: invalid symbol name: {alphabet!r}"


def test_coefficient_overflow_exit_code(capsys, monkeypatch):
    big = "1" + "0" * 200
    monkeypatch.setattr(sys, "stdin", io.StringIO(big + " x\n"))
    code, out, err = run(capsys, "subs", "-", f"x={big}")
    assert code == 1
    assert out == ""
    assert "overflows a double" in err


def test_subvec_overflow_exit_code(capsys):
    big = "1" + "0" * 200
    code, out, err = run(capsys, "subvec", f"{big} x", f"x={big}")
    assert code == 1
    assert out == ""
    assert "overflows a double" in err


def test_huge_derivative_order_exit_code(capsys):
    with time_limit(5):
        code, out, _ = run(capsys, "aderiv", "x", "x=1000000000")
    assert code == 0
    assert out == "0"


def test_huge_power_of_a_monomial_binding_exit_code(capsys):
    with time_limit(5):
        code, out, err = run(capsys, "subs", f"x^{2**62}", "x=y^5")
    assert code == 1
    assert out == ""
    assert "outside the signed 64-bit range" in err


def test_parse_error_exit_code(capsys):
    code, _, err = run(capsys, "eval", "3 @@")
    assert code == 1
    assert "unexpected character" in err
    code, out, err = run(capsys, "eval", "1" + "0" * 400 + " x")
    assert code == 1
    assert out == ""
    assert "too large" in err


def test_deeply_nested_json_line_exit_code(capsys, monkeypatch):
    nested = '{"terms":' + "[" * 200000 + "]" * 200000 + "}"
    monkeypatch.setattr("sys.stdin", io.StringIO(nested + "\n"))
    code, out, err = run(capsys, "eval", "-")
    assert code == 1
    assert out == ""
    assert err == "sparsepoly: JSON document nested too deeply"


@pytest.mark.parametrize(
    "argv",
    [
        ["series", "x+y", "1bad"],
        ["taylor", "x^2", "x", "y+z"],
        ["trunc1", "x+y", "1bad=0"],
        ["onevarpow", "x+y", "1bad=0"],
        ["knight", "2", "--onevarpow", "1bad=0"],
    ],
)
def test_invalid_symbol_name_exit_code(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert "invalid symbol name" in err


def test_domain_error_exit_code(capsys):
    code, _, err = run(capsys, "subs", "x^-1", "x=0")
    assert code == 1


def test_usage_error_exit_code(capsys):
    code, _, err = run(capsys, "frobnicate")
    assert code == 1


def test_help_exits_zero(capsys):
    assert cli.main(["--help"]) == 0
    capsys.readouterr()


def test_hash_mismatch_exit_code(capsys, monkeypatch):
    def boom(args):
        raise HashMismatch("aaaa", "bbbb")

    monkeypatch.setattr(cli, "_run", boom)
    code, _, err = run(capsys, "eval", "x")
    assert code == 2
    assert "aaaa" in err


def _fresh_env():
    """The environment of a new interpreter that imports this checkout's sparsepoly."""
    src = Path(sparsepoly.__file__).resolve().parents[1]
    path = [str(src)] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(path)}


def _fresh_python(code, stdin=None):
    """Run ``code`` in a new interpreter that imports this checkout's sparsepoly."""
    return subprocess.run(
        [sys.executable, "-c", code],
        env=_fresh_env(),
        input=stdin,
        capture_output=True,
        text=True,
        timeout=60,
    )


def test_import_loads_no_numpy_and_binds_cli():
    # numpy is most of the import time; only subvec and the packed
    # multiply path need it
    code = (
        "import sys, sparsepoly\n"
        "assert 'numpy' not in sys.modules, 'import sparsepoly loaded numpy'\n"
        "assert callable(sparsepoly.cli.main)\n"
        "print(sparsepoly.__file__)\n"
    )
    done = _fresh_python(code)
    assert done.returncode == 0, done.stderr
    src = Path(sparsepoly.__file__).resolve().parents[1]
    assert Path(done.stdout.strip()).resolve().parent == src / "sparsepoly"


def test_subs_on_stdin_loads_no_numpy():
    # The products of a substitution on a CLI line stay on the dict path.
    line = "a + b + a b x + x^2 + 3 x^3 + a x^4 + b^2 x^5 + x^6 + 2 x^7 + a b x^8 + x^9 + 7\n"
    assert len(parse(line)) == 12
    code = (
        "import sys\n"
        "from sparsepoly import cli\n"
        "assert cli.main(['subs', '-', 'x=2 + b']) == 0\n"
        "assert 'numpy' not in sys.modules, 'subs loaded numpy'\n"
    )
    done = _fresh_python(code, stdin=line)
    assert done.returncode == 0, done.stderr
    assert parse(done.stdout) == sparsepoly.subs(parse(line), x="2 + b")


def test_a_power_on_the_dict_path_loads_no_numpy():
    # (1+x)^5 squares 2 and 3 terms and ends with 2 x 5 terms: every
    # product is under the packed path's 8-term floor.
    code = (
        "import sys\n"
        "from sparsepoly import parse\n"
        "print(parse('1+x') ** 5)\n"
        "assert 'numpy' not in sys.modules, 'the power loaded numpy'\n"
    )
    done = _fresh_python(code)
    assert done.returncode == 0, done.stderr
    assert parse(done.stdout) == parse("1 + 5 x + 10 x^2 + 10 x^3 + 5 x^4 + x^5")


def test_import_and_subs_stage_load_no_unused_stdlib_module():
    # Standard-library modules that a text pipeline never runs.  Each CLI
    # stage is a new interpreter, so importing one costs every stage.
    lazy = ["dataclasses", "inspect", "hashlib", "decimal", "json"]
    # The perfbench tracer reads these from sys.modules right after
    # ``import sparsepoly``, so the package must keep importing them.
    layers = [
        "_kernel", "arith", "parser", "printer", "core",
        "disord", "transform", "calculus", "series", "cli",
    ]
    code = (
        "import sys\n"
        f"lazy = {lazy!r}\n"
        "before = set(sys.modules)\n"
        "import sparsepoly\n"
        "from sparsepoly import cli\n"
        "loaded = [m for m in lazy if m in sys.modules and m not in before]\n"
        "assert not loaded, f'import sparsepoly loaded {loaded}'\n"
        f"missing = [m for m in {layers!r} if 'sparsepoly.' + m not in sys.modules]\n"
        "assert not missing, f'import sparsepoly did not load {missing}'\n"
        "assert cli.main(['subs', '-', 'x=2 + b']) == 0\n"
        "loaded = [m for m in lazy if m in sys.modules and m not in before]\n"
        "assert not loaded, f'subs loaded {loaded}'\n"
    )
    done = _fresh_python(code, stdin="a + x^2 + 3 x y\n")
    assert done.returncode == 0, done.stderr
    assert parse(done.stdout) == parse("4 + a + 4 b + b^2 + 6 y + 3 b y")


@pytest.mark.parametrize(
    "module, argv, stdin, expected",
    [
        (
            "hashlib",
            ["coeffs", "3 x y + z^3 - 2 x"],
            None,
            "A disord object with hash"
            " c8e18f45b4462413527b479ec0bc4454e29a08f0ea93b15077210f56804aa656"
            " and elements\n-2 3 1\n(in some order)\n",
        ),
        (
            "json",
            ["eval", "-"],
            '{"terms":[{"powers":{},"coeff":-2.0},{"powers":{"a":1,"b":-2},"coeff":7.0}]}\n',
            "-2 + 7 a b^-2\n",
        ),
        (
            "decimal",
            ["horner", "x", "0.5,0.25,-1/3"],
            None,
            "0.5 + 0.25 x - 0.3333333 x^2\n",
        ),
    ],
    ids=["hashlib", "json", "decimal"],
)
def test_first_use_of_a_lazy_import_keeps_the_bytes(module, argv, stdin, expected):
    code = (
        "import sys\n"
        "from sparsepoly import cli\n"
        f"assert {module!r} not in sys.modules\n"
        f"assert cli.main({argv!r}) == 0\n"
        f"assert {module!r} in sys.modules\n"
    )
    done = _fresh_python(code, stdin=stdin)
    assert done.returncode == 0, done.stderr
    assert done.stdout == expected


def test_reader_that_closes_the_pipe_gets_no_traceback(tmp_path):
    # sparsepoly eval - < lines | head -1: far more output than a pipe holds
    lines = tmp_path / "lines.txt"
    lines.write_text("1 + 2 x + 3 x^2 y + 4 y^3 z^-1\n" * 20000)
    with open(lines) as stdin, subprocess.Popen(
        [sys.executable, "-m", "sparsepoly", "eval", "-"],
        env=_fresh_env(),
        stdin=stdin,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    ) as proc:
        first = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        code = proc.wait(timeout=60)
    assert parse(first) == parse("1 + 2 x + 3 x^2 y + 4 y^3 z^-1")
    assert "Traceback" not in err
    assert "BrokenPipeError" not in err
    assert code == 1
