"""Command-line behavior: exit codes, stream separation, partial-output
guarantees and reproducibility."""

import collections
import contextlib
import errno
import gc
import io
import json
import re
import shutil
import subprocess
import sys
import tracemalloc
import weakref
from pathlib import Path

import pytest

from rula import cli, codegen, explore, ir, parser, runtime

SWAP = "entanglement_swapping.rula"

HAND_OVER = """#repeaters: vec[Repeater]
rule hand_over<#rep>(){
    cond {
        @q: res(1, 0.8, #rep.hop(-1), 0)
    } => act {
        transfer(q) -> #rep.hop(1)
    }
}
ruleset hand{
    hand_over<#repeaters(1)>()
}
"""

# line 9 reads, at column 22, a name that nothing binds
UNBOUND_LIB = """#repeaters: vec[Repeater]
import std::operation::{measure}

// binds a name that nothing defines
rule bad<#rep>(){
    let partner: Repeater = #rep.hop(1)
    cond { @q: res(1, 0.5, partner, 0) }
    => act {
        let x: int = ghost
        free(q)
    }
}
"""

# a rule whose partner is past the end of a 3-node chain: a fault of lowering
FAR_LIB = """#repeaters: vec[Repeater]
// reaches past the end of a 3-node chain
rule far<#rep>(){
    cond { @q: res(1, 0.5, #rep.hop(5), 0) }
    => act { free(q) }
}
"""

# `set r` without `as` stores the result under `r`, which `get r` reads
SET_WITHOUT_ALIAS = """#repeaters: vec[Repeater]
import std::operation::{measure}
rule producer<#rep>(){
    cond {
        @q: res(1, 0.5, #rep.hop(1), 0)
    } => act {
        let r: Result = measure(q, "Z")
        set r
    }
}
rule consumer<#rep>(){
    cond {
        @q: res(1, 0.5, #rep.hop(1), 1)
    } => act {
        if (get r == "0") {
            free(q) -> #rep.hop(1)
        } else {
            free(q) -> #rep.hop(1)
        }
    }
}
ruleset stored{
    producer<#repeaters(0)>()
    consumer<#repeaters(0)>()
}
"""

# a match arm that measures again and matches on that measurement: lowering
# emits sibling rules whose shared prefix is only the first measurement, and
# the simulator takes the second one before it compares its result
NESTED_MATCH = """#repeaters: vec[Repeater]
import std::operation::{measure}
rule nested<#rep>(){
    cond {
        @q1: res(1, 0.5, #rep.hop(1), 0)
        @q2: res(1, 0.5, #rep.hop(1), 1)
    } => act {
        let a: Result = measure(q1, "Z")
        match a {
            "0" => {
                let b: Result = measure(q2, "Z"),
                match b {
                    "0" => { set_timer("t0", 1) },
                    "1" => { set_timer("t1", 1) },
                }
            },
            "1" => { free(q2) -> #rep.hop(1) },
        }
    }
}
ruleset nest{
    nested<#repeaters(0)>()
}
"""


BIG_COUNT = """\
#repeaters: vec[Repeater]
rule claim<#rep>(count: int){
    let partner: Repeater = #rep.hop(1)
    cond {
        @q1: res(count, 0.5, partner, 0)
    } => act {
        free(q1)
    }
}
ruleset big{
    let x: int = COUNT
    claim<#repeaters(0)>(x)
}
"""


def run_cli(argv, capsys):
    code = cli.main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def unreadable(monkeypatch, name, method="read_text"):
    """`Path.<method>` of any file called `name` raises PermissionError, as
    reading a mode-000 file does for a user other than root."""
    real = getattr(Path, method)

    def read(path, *args, **kwargs):
        if path.name == name:
            raise PermissionError(13, "Permission denied", str(path))
        return real(path, *args, **kwargs)

    monkeypatch.setattr(Path, method, read)


def compile_swap(corpus, capsys, tmp_path, config="config5.json", extra=()):
    out_dir = tmp_path / "out"
    argv = [
        "compile",
        corpus / SWAP,
        "--config",
        corpus / config,
        "--out-dir",
        out_dir,
        *extra,
    ]
    code, out, err = run_cli(argv, capsys)
    return code, out, err, out_dir


# a recv that no send of the program binds
LONELY_RECV = """#repeaters: vec[Repeater]
rule listen<#rep>(){
    cond {
        @message: recv(#rep.hop(1))
    } => act {
    }
}
ruleset lonely{
    listen<#repeaters(0)>()
}
"""


class TestCompile:
    def test_five_node_writes_five_files(self, corpus, capsys, tmp_path):
        code, out, err, out_dir = compile_swap(corpus, capsys, tmp_path)
        assert code == 0
        files = sorted(out_dir.glob("*.json"))
        assert [f.name for f in files] == [
            f"entanglement_swapping_{i}.json" for i in range(5)
        ]
        # stdout carries exactly the machine-readable file list
        assert out.splitlines() == [str(f) for f in files]
        assert "5 rule(s)" in err
        ids = {json.loads(f.read_text())["id"] for f in files}
        assert len(ids) == 1

    def test_rejects_non_rula_extension(self, corpus, capsys, tmp_path):
        program = tmp_path / "program.txt"
        program.write_text("ruleset nothing{\n}\n")
        code, _out, err = run_cli(
            ["compile", program, "--config", corpus / "config3.json"], capsys
        )
        assert code == 2
        assert "expected .rula input" in err

    def test_missing_config_is_usage_error(self, corpus, capsys, tmp_path):
        code, _out, err = run_cli(
            ["compile", corpus / SWAP, "--config", tmp_path / "nope.json"], capsys
        )
        assert code == 2
        assert "no such config" in err

    def test_missing_program_is_usage_error(self, corpus, capsys, tmp_path):
        program = tmp_path / "nope.rula"
        code, out, err = run_cli(["compile", program, "--config", corpus / "config3.json"], capsys)
        assert (code, out, err) == (2, "", f"error: no such program: {program}\n")

    @pytest.mark.parametrize("ruleset_id", [str(2**64), "-1"])
    def test_ruleset_id_outside_64_bits_is_usage_error(self, corpus, capsys, tmp_path, ruleset_id):
        with pytest.raises(SystemExit) as exited:
            compile_swap(corpus, capsys, tmp_path, extra=["--ruleset-id", ruleset_id])
        assert exited.value.code == 2
        assert "ruleset id must fit in 64 bits" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_unbound_recv_is_a_warning(self, corpus, capsys, tmp_path):
        program = tmp_path / "lonely.rula"
        program.write_text(LONELY_RECV)
        argv = ["compile", program, "--config", corpus / "config3.json", "--out-dir", tmp_path / "out"]
        code, out, err = run_cli(argv, capsys)
        assert code == 0 and len(out.splitlines()) == 3
        warning = "recv from address 1 in rule listen on address 0 never receives a send"
        assert f"warning[unbound-recv]: {warning}" in err.splitlines()

    def test_parse_error_reports_position(self, corpus, capsys, tmp_path):
        program = tmp_path / "broken.rula"
        program.write_text("rule oops<#rep>( {\n}\n")
        out_dir = tmp_path / "out"
        code, out, err = run_cli(
            [
                "compile",
                program,
                "--config",
                corpus / "config3.json",
                "--out-dir",
                out_dir,
            ],
            capsys,
        )
        assert code == 1
        assert out == ""
        assert "error[parse]" in err
        assert "broken.rula:1:" in err
        assert not out_dir.exists() or not list(out_dir.iterdir())

    @pytest.mark.parametrize("extra", [0, 1], ids=["at_limit", "one_deeper"])
    def test_nesting_limit(self, corpus, capsys, tmp_path, extra):
        # The ruleset brace is one level, each `if` block one more.
        k = parser.MAX_DEPTH - 1 + extra
        program = tmp_path / "deep.rula"
        program.write_text(
            "#repeaters: vec[Repeater]\n"
            "ruleset deep { " + "if (true) { " * k + "let x: int = 1" + " }" * k + " }\n"
        )
        out_dir = tmp_path / "out"
        argv = ["compile", program, "--config", corpus / "config3.json", "--out-dir", out_dir]
        code, _out, err = run_cli(argv, capsys)
        if extra:
            assert code == 1
            assert "error[parse]: parse failure" in err
            assert f"at most {parser.MAX_DEPTH} nested brackets" in err
            assert not out_dir.exists() or not list(out_dir.iterdir())
        else:
            assert code == 0, err

    def test_overflowing_nesting_is_a_parse_error(self, corpus, capsys, tmp_path):
        program = tmp_path / "parens.rula"
        program.write_text("ruleset r { let x: int = " + "(" * 400 + "1" + ")" * 400 + " }\n")
        argv = ["compile", program, "--config", corpus / "config3.json", "--out-dir", tmp_path]
        code, _out, err = run_cli(argv, capsys)
        assert code == 1
        assert "parens.rula:1:" in err and "error[parse]" in err

    def test_codegen_error_writes_nothing(self, corpus, capsys, tmp_path):
        program = tmp_path / "overreach.rula"
        program.write_text(
            (corpus / SWAP).read_text().replace("hop(-distance)", "hop(-9)")
        )
        out_dir = tmp_path / "out"
        code, out, err = run_cli(
            [
                "compile",
                program,
                "--config",
                corpus / "config3.json",
                "--out-dir",
                out_dir,
            ],
            capsys,
        )
        assert code == 1
        assert out == ""
        assert "hop-range" in err
        assert not out_dir.exists() or not list(out_dir.iterdir())

    @pytest.mark.parametrize("fresh", [False, True], ids=["earlier-compile", "fresh-dir"])
    def test_failed_write_leaves_out_dir_as_it_was(
        self, corpus, capsys, tmp_path, monkeypatch, fresh
    ):
        _code, _out, _err, out_dir = compile_swap(corpus, capsys, tmp_path)
        before = {f.name: f.read_bytes() for f in out_dir.iterdir()}
        assert len(before) == 5
        if fresh:
            out_dir = tmp_path / "fresh" / "out"
        serialize, calls = ir.serialize, []

        def failing(*args):
            calls.append(args)
            if len(calls) == 3:
                raise RuntimeError("disk on fire")
            return serialize(*args)

        monkeypatch.setattr(codegen.ir, "serialize", failing)
        argv = ["compile", corpus / SWAP, "--config", corpus / "config5.json"]
        with pytest.raises(RuntimeError, match="disk on fire"):
            cli.main([str(a) for a in [*argv, "--out-dir", out_dir]])
        assert len(calls) == 3
        if fresh:
            assert not (tmp_path / "fresh").exists()
        else:
            assert {f.name: f.read_bytes() for f in out_dir.iterdir()} == before

    @pytest.mark.parametrize("below", [False, True], ids=["a-file", "under-a-file"])
    def test_out_dir_on_a_file_is_an_error(self, corpus, capsys, tmp_path, below):
        """An --out-dir that is a file, or lies under one, exits 1 with one
        error that names it, and leaves the file as it was."""
        blocker = tmp_path / "F"
        blocker.write_text("kept")
        out_dir = blocker / "sub" if below else blocker
        argv = ["compile", corpus / SWAP, "--config", corpus / "config5.json", "--out-dir", out_dir]
        code, out, err = run_cli(argv, capsys)
        assert (code, out) == (1, "")
        assert err.startswith(f"error: cannot write to {out_dir}: ") and err.count("\n") == 1
        assert blocker.read_text() == "kept"

    @pytest.mark.parametrize(
        "name,method,what",
        [(SWAP, "read_text", "program"), ("config5.json", "read_bytes", "config")],
    )
    def test_unreadable_input_is_one_error(
        self, corpus, capsys, tmp_path, monkeypatch, name, method, what
    ):
        """A program or config that cannot be read exits 2, as a missing one
        does, with one error line that names it."""
        unreadable(monkeypatch, name, method)
        code, out, err, out_dir = compile_swap(corpus, capsys, tmp_path)
        assert (code, out) == (2, "")
        assert err.startswith(f"error: cannot read {what} {corpus / name}: ")
        assert "Permission denied" in err and err.count("\n") == 1
        assert not out_dir.exists()

    def test_unreadable_import_is_a_diagnostic(self, corpus, capsys, tmp_path, monkeypatch):
        unreadable(monkeypatch, SWAP)
        code, out, err = run_cli(
            ["compile", corpus / "purification.rula", "--config", corpus / "config3.json",
             "--out-dir", tmp_path / "out"],
            capsys,
        )
        assert (code, out) == (1, "")
        assert "error[bad-import]: cannot read entanglement_swapping.rula: " in err
        assert "Permission denied" in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "text,rule,error",
        [
            (UNBOUND_LIB, "bad", "9:22: error[unknown-name]: unknown identifier ghost"),
            (
                FAR_LIB,
                "far",
                "4:28: error[hop-range]: hop leaves the path: index 0 with offset 5 "
                "targets 5, valid indices are 0..2",
            ),
        ],
        ids=["analyzer", "lowering"],
    )
    def test_error_in_an_imported_rule_names_its_file(
        self, corpus, capsys, tmp_path, text, rule, error
    ):
        (tmp_path / "lib.rula").write_text(text)
        program = tmp_path / "main.rula"
        # longer than lib.rula, so that the error's offset also falls inside it
        padding = "// the rule is imported\n" * 20
        program.write_text(f"#repeaters: vec[Repeater]\nimport (rule) lib::{rule}\n{padding}"
                           f"ruleset main {{ {rule}<#repeaters(0)>() }}\n")
        code, out, err = run_cli(
            ["compile", program, "--config", corpus / "config3.json", "--out-dir", tmp_path / "out"],
            capsys,
        )
        lib = (tmp_path / "lib.rula").resolve()
        assert (code, out) == (1, "")
        assert err == f"{lib}:{error}\n"

    def test_os_error_leaves_an_earlier_compile(self, corpus, capsys, tmp_path):
        """A write that fails with an OS error at the third file exits 1, and
        the files of an earlier compile to that directory are untouched."""
        _code, _out, _err, out_dir = compile_swap(corpus, capsys, tmp_path)
        before = {f.name: f.read_bytes() for f in out_dir.iterdir()}
        (out_dir / "entanglement_swapping_2.json.tmp").mkdir()  # where the third is written
        code, out, err = compile_swap(corpus, capsys, tmp_path)[:3]
        assert (code, out) == (1, "")
        assert err.startswith(f"error: cannot write to {out_dir}: ") and "Is a directory" in err
        assert {f.name: f.read_bytes() for f in out_dir.iterdir() if f.is_file()} == before

    def test_folded_integer_over_4300_digits_writes_nothing(self, corpus, capsys, tmp_path):
        program = tmp_path / "big.rula"
        program.write_text(
            BIG_COUNT.replace("COUNT", "2 ^ 70000"), encoding="utf-8"
        )
        out_dir = tmp_path / "out"
        argv = ["compile", program, "--config", corpus / "config3.json", "--out-dir", out_dir]
        code, out, err = run_cli(argv, capsys)
        assert code == 1
        assert out == ""
        assert err == (
            f"{program}:11:18: error[const-expr]: an integer of more than 4300 digits "
            "in a compile-time expression\n"
        )
        assert not out_dir.exists()

    @pytest.mark.parametrize(
        "clause,literal,message",
        [
            ("res(1, 2.5, partner, 1)", "2.5", "fidelity 2.5 outside [0, 1]"),
            ("res(0, 0.5, partner, 1)", "0", "resource count 0 below 1"),
        ],
        ids=["fidelity", "count"],
    )
    def test_res_literal_out_of_range_points_at_it(
        self, corpus, capsys, tmp_path, clause, literal, message
    ):
        text = (corpus / "purification.rula").read_text()
        text = text.replace("res(1, 0.5, partner, 1)", clause)
        program = tmp_path / "purification.rula"
        program.write_text(text)
        offset = text.index(clause) + clause.index(literal)
        line = text.count("\n", 0, offset) + 1
        column = offset - text.rfind("\n", 0, offset)
        out_dir = tmp_path / "out"
        code, out, err = run_cli(
            [
                "compile",
                program,
                "--config",
                corpus / "config5.json",
                "--out-dir",
                out_dir,
                "--include",
                corpus,
            ],
            capsys,
        )
        assert code == 1
        assert out == ""
        assert f"{program}:{line}:{column}: error[bad-res]: {message}" in err
        assert not out_dir.exists()

    def test_plain_return_arrow_is_a_style_warning(self, corpus, capsys, tmp_path):
        text = (corpus / "purification.rula").read_text()
        text = text.replace(":-> Qubit {", "-> Qubit {", 1)
        program = tmp_path / "purification.rula"
        program.write_text(text)
        offset = text.index("-> Qubit {")
        line = text.count("\n", 0, offset) + 1
        column = offset - text.rfind("\n", 0, offset)
        argv = ["compile", program, "--config", corpus / "config3.json"]
        argv += ["--out-dir", tmp_path / "out", "--include", corpus]
        code, _out, err = run_cli(argv, capsys)
        assert code == 0
        message = 'return annotation written with "->"; the canonical arrow is ":->"'
        assert f"{program}:{line}:{column}: warning[style]: {message}" in err.splitlines()

    def test_explicit_ruleset_id(self, corpus, capsys, tmp_path):
        code, _out, _err, out_dir = compile_swap(
            corpus, capsys, tmp_path, extra=["--ruleset-id", "0x13ed232"]
        )
        assert code == 0
        for f in out_dir.glob("*.json"):
            assert json.loads(f.read_text())["id"] == 20894258

    def test_default_id_tracks_config_bytes(self, corpus, capsys, tmp_path):
        _c, _o, _e, dir_a = compile_swap(corpus, capsys, tmp_path, config="config5.json")
        id_a = json.loads((dir_a / "entanglement_swapping_0.json").read_text())["id"]
        shutil.rmtree(dir_a)
        _c, _o, _e, dir_b = compile_swap(corpus, capsys, tmp_path, config="config3.json")
        id_b = json.loads((dir_b / "entanglement_swapping_0.json").read_text())["id"]
        assert id_a != id_b

    def test_recompile_is_byte_identical(self, corpus, capsys, tmp_path):
        _c, _o, _e, out_dir = compile_swap(corpus, capsys, tmp_path)
        first = {f.name: f.read_bytes() for f in out_dir.glob("*.json")}
        shutil.rmtree(out_dir)
        _c, _o, _e, out_dir = compile_swap(corpus, capsys, tmp_path)
        second = {f.name: f.read_bytes() for f in out_dir.glob("*.json")}
        assert first == second

    def test_include_path_environment(self, corpus, capsys, tmp_path, monkeypatch):
        src = tmp_path / "purification.rula"
        src.write_text((corpus / "purification.rula").read_text())
        out_dir = tmp_path / "out"
        argv = [
            "compile",
            src,
            "--config",
            corpus / "config3.json",
            "--out-dir",
            out_dir,
        ]
        monkeypatch.delenv("RULA_INCLUDE_PATH", raising=False)
        code, _out, err = run_cli(argv, capsys)
        assert code == 1  # the imported rule file is not next to the program
        monkeypatch.setenv("RULA_INCLUDE_PATH", str(corpus))
        code, _out, _err = run_cli(argv, capsys)
        assert code == 0
        assert len(list(out_dir.glob("*.json"))) == 3

    def test_non_utf8_source_is_a_diagnostic(self, corpus, capsys, tmp_path):
        program = tmp_path / "latin1.rula"
        program.write_bytes(b"\xff" + (corpus / SWAP).read_bytes())
        out_dir = tmp_path / "out"
        code, out, err = run_cli(
            ["compile", program, "--config", corpus / "config3.json", "--out-dir", out_dir],
            capsys,
        )
        assert code == 1
        assert out == ""
        assert "latin1.rula: error[parse]: source is not UTF-8" in err
        assert not out_dir.exists()

    def test_non_utf8_import_is_a_diagnostic(self, corpus, capsys, tmp_path):
        program = tmp_path / "purification.rula"
        program.write_text((corpus / "purification.rula").read_text())
        (tmp_path / SWAP).write_bytes(b"\xff" + (corpus / SWAP).read_bytes())
        code, out, err = run_cli(
            ["compile", program, "--config", corpus / "config3.json", "--out-dir", tmp_path / "out"],
            capsys,
        )
        assert code == 1
        assert out == ""
        assert "bad-import" in err and "cannot parse entanglement_swapping.rula" in err


def oversized_owner(path, digits=5001):
    """Write `path` with its `owner_addr` replaced by a `digits`-digit integer."""
    text = path.read_text()
    bad = re.sub('"owner_addr": [0-9]+', '"owner_addr": ' + "7" * digits, text, count=1)
    assert bad != text
    path.write_text(bad)


class TestValidate:
    def test_compiled_output_is_clean(self, corpus, capsys, tmp_path):
        _c, _o, _e, out_dir = compile_swap(corpus, capsys, tmp_path)
        files = sorted(out_dir.glob("*.json"))
        code, _out, err = run_cli(["validate", *files], capsys)
        assert code == 0
        assert err.count(": ok") == 5

    def test_duplicate_rule_id_is_a_finding(self, corpus, capsys, tmp_path):
        _c, _o, _e, out_dir = compile_swap(corpus, capsys, tmp_path)
        target = out_dir / "entanglement_swapping_1.json"
        doc = json.loads(target.read_text())
        doc["stages"][0]["rules"][1]["id"] = 0
        target.write_text(json.dumps(doc))
        code, _out, err = run_cli(["validate", target], capsys)
        assert code == 1
        assert "error" in err

    def test_unreadable_file_is_one_error(self, corpus, capsys, tmp_path, monkeypatch):
        """A file that cannot be read fails, as a missing one does, with one
        error line that names it; the files after it are still checked."""
        _c, _o, _e, out_dir = compile_swap(corpus, capsys, tmp_path)
        bad, good = (out_dir / f"entanglement_swapping_{i}.json" for i in (0, 1))
        unreadable(monkeypatch, bad.name)
        code, out, err = run_cli(["validate", bad, good], capsys)
        assert (code, out) == (1, "")
        first, second = err.splitlines()
        assert first.startswith(f"error: cannot read {bad}: ") and "Permission denied" in first
        assert second == f"{good}: ok"

    def test_missing_file(self, corpus, capsys, tmp_path):
        code, _out, err = run_cli(["validate", tmp_path / "ghost.json"], capsys)
        assert code == 1
        assert "no such file" in err

    def test_deeply_nested_json_is_a_schema_error(self, capsys, tmp_path):
        target = tmp_path / "deep.json"
        target.write_text("[" * 100_000)
        code, _out, err = run_cli(["validate", target], capsys)
        assert code == 1
        assert f"{target}: error[schema]: " in err and "nested too deeply" in err

    def test_integer_too_long_to_convert_is_a_schema_error(self, corpus, capsys, tmp_path):
        """One error line, alone and as the tenth file of a load, whose shape
        recurs from the ninth on."""
        _c, _o, _e, out_dir = compile_swap(corpus, capsys, tmp_path)
        good = out_dir / "entanglement_swapping_1.json"
        bad = tmp_path / "bad.json"
        shutil.copy(good, bad)
        oversized_owner(bad)
        for files in ([bad], [good] * 9 + [bad]):
            code, _out, err = run_cli(["validate", *files], capsys)
            assert code == 1
            lines = [line for line in err.splitlines() if "error" in line]
            assert lines == [f"{bad}: error[schema]: $: integer too long to convert"]
            assert err.count(": ok") == len(files) - 1


class TestRun:
    def compiled(self, corpus, capsys, tmp_path, config="config3.json"):
        _c, _o, _e, out_dir = compile_swap(corpus, capsys, tmp_path, config=config)
        capsys.readouterr()
        return out_dir

    def test_seeded_run_quiescent(self, corpus, capsys, tmp_path):
        out_dir = self.compiled(corpus, capsys, tmp_path)
        code, out, err = run_cli(
            [
                "run",
                "--config",
                corpus / "config3.json",
                "--rulesets",
                out_dir,
                "--seed",
                "7",
                "--report-json",
            ],
            capsys,
        )
        assert code == 0
        report = json.loads(out)
        assert report["status"] == "quiescent"
        assert "quiescent" in err

    def test_a_directory_named_like_a_ruleset_is_an_error(self, corpus, capsys, tmp_path):
        out_dir = self.compiled(corpus, capsys, tmp_path)
        (out_dir / "zz.json").mkdir()
        argv = ["run", "--config", corpus / "config3.json", "--rulesets", out_dir]
        code, out, err = run_cli(argv, capsys)
        assert (code, out) == (1, "")
        assert err.startswith(f"error: {out_dir / 'zz.json'}: ") and err.count("\n") == 1

    def test_seed_reproducibility(self, corpus, capsys, tmp_path):
        out_dir = self.compiled(corpus, capsys, tmp_path)
        argv = [
            "run",
            "--config",
            corpus / "config3.json",
            "--rulesets",
            out_dir,
            "--seed",
            "7",
            "--report-json",
        ]
        _code, first, _err = run_cli(argv, capsys)
        _code, second, _err = run_cli(argv, capsys)
        assert first == second

    def test_step_budget_exhaustion(self, corpus, capsys, tmp_path):
        out_dir = self.compiled(corpus, capsys, tmp_path)
        code, _out, err = run_cli(
            [
                "run",
                "--config",
                corpus / "config3.json",
                "--rulesets",
                out_dir,
                "--max-steps",
                "1",
            ],
            capsys,
        )
        assert code == 1
        assert "stuck" in err

    @pytest.mark.parametrize("enumerate_outcomes", [False, True])
    def test_budget_cut_is_not_a_deadlock(self, corpus, capsys, tmp_path, enumerate_outcomes):
        """chain7 ends quiescent on every branch, each after more than 3
        rounds. Cut off after 3, each run is stuck with the spent budget as
        its one reason, and no sender is blamed for a message it would still
        send."""
        out_dir = tmp_path / "out"
        argv = ["compile", corpus / "chain7.rula", "--config", corpus / "config7.json", "--out-dir", out_dir]
        assert run_cli(argv, capsys)[0] == 0
        argv = ["run", "--config", corpus / "config7.json", "--rulesets", out_dir, "--report-json"]
        if enumerate_outcomes:
            argv.append("--enumerate-outcomes")
        code, out, _err = run_cli(argv, capsys)
        doc = json.loads(out)
        reports = doc["reports"] if enumerate_outcomes else [doc]
        assert code == 0 and all(r["status"] == "quiescent" and r["rounds"] > 3 for r in reports)

        code, out, err = run_cli([*argv, "--max-steps", "3"], capsys)
        doc = json.loads(out)
        reports = doc["reports"] if enumerate_outcomes else [doc]
        assert code == 1
        spent = "round budget of 3 round(s) spent before every node completed"
        for report in reports:
            assert (report["status"], report["rounds"], report["stuck"]) == ("stuck", 3, [spent])
        assert err.count(f"stuck: {spent}\n") == len(reports)
        assert "never sends it" not in err

    def test_unreadable_config_is_one_error(self, corpus, capsys, tmp_path, monkeypatch):
        out_dir = self.compiled(corpus, capsys, tmp_path)
        unreadable(monkeypatch, "config3.json", "read_bytes")  # as `rula compile` reads it
        argv = ["run", "--config", corpus / "config3.json", "--rulesets", out_dir]
        code, out, err = run_cli(argv, capsys)
        assert (code, out) == (2, "")
        assert err.startswith(f"error: cannot read config {corpus / 'config3.json'}: ")
        assert "Permission denied" in err and err.count("\n") == 1

    def test_negative_round_budget_is_usage_error(self, corpus, capsys, tmp_path):
        out_dir = self.compiled(corpus, capsys, tmp_path)
        argv = ["run", "--config", corpus / "config3.json", "--rulesets", out_dir]
        with pytest.raises(SystemExit) as exc:
            run_cli([*argv, "--max-steps", "-3", "--report-json"], capsys)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "usage:" in captured.err and "round budget must not be negative" in captured.err

    @pytest.mark.parametrize("fidelity", ["1.5", "-0.5", "nan", "inf"])
    def test_fidelity_outside_unit_interval_is_usage_error(
        self, corpus, capsys, tmp_path, fidelity
    ):
        out_dir = self.compiled(corpus, capsys, tmp_path)
        argv = ["run", "--config", corpus / "config3.json", "--rulesets", out_dir]
        with pytest.raises(SystemExit) as exc:
            run_cli([*argv, "--fidelity", fidelity, "--report-json"], capsys)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "usage:" in captured.err and "fidelity must be a number in [0, 1]" in captured.err

    def test_fidelity_in_unit_interval_is_accepted(self, corpus, capsys, tmp_path):
        out_dir = self.compiled(corpus, capsys, tmp_path)
        argv = ["run", "--config", corpus / "config3.json", "--rulesets", out_dir]
        code, out, _err = run_cli([*argv, "--fidelity", "0.9", "--report-json"], capsys)
        assert code == 0
        assert [pair["fidelity"] for pair in json.loads(out)["pairs"]] == [0.81]

    def test_enumerate_outcomes_four_branches(self, corpus, capsys, tmp_path):
        out_dir = self.compiled(corpus, capsys, tmp_path)
        code, out, err = run_cli(
            [
                "run",
                "--config",
                corpus / "config3.json",
                "--rulesets",
                out_dir,
                "--enumerate-outcomes",
                "--report-json",
            ],
            capsys,
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["branches"] == 4
        assert payload["all_quiescent"] is True
        assert [r["outcome_path"] for r in payload["reports"]] == [[0, 0], [0, 1], [1, 0], [1, 1]]
        assert "4 branch(es), all quiescent" in err

    def test_every_command_pauses_the_collector(self, corpus, capsys, tmp_path, monkeypatch):
        seen = []

        def spying(module, name):
            real = getattr(module, name)

            def spy(*args, **kwargs):
                seen.append((name, gc.isenabled()))
                return real(*args, **kwargs)

            monkeypatch.setattr(module, name, spy)

        spying(codegen, "compile_program")
        spying(ir, "validate")
        spying(cli, "_load_rulesets")
        spying(runtime, "run")
        spying(explore, "outcomes")
        out_dir = self.compiled(corpus, capsys, tmp_path)
        assert seen == [("compile_program", False)] and gc.isenabled()
        seen.clear()
        files = sorted(out_dir.glob("*.json"))
        assert run_cli(["validate", *files], capsys)[0] == 0
        assert seen == [("validate", False)] * 3 and gc.isenabled()
        seen.clear()
        argv = ["run", "--config", corpus / "config3.json", "--rulesets", out_dir]
        assert run_cli(argv, capsys)[0] == 0
        assert seen == [("_load_rulesets", False), ("run", False)] and gc.isenabled()
        seen.clear()
        assert run_cli([*argv, "--enumerate-outcomes"], capsys)[0] == 0
        assert seen == [("_load_rulesets", False), ("outcomes", False)]
        assert gc.isenabled()
        # a failed command turns the collector back on, one that raises too
        (out_dir / "entanglement_swapping_2.json").unlink()
        assert run_cli(argv, capsys)[0] == 1 and gc.isenabled()

        def failing(ruleset):
            raise OSError("no device")

        monkeypatch.setattr(ir, "validate", failing)
        with pytest.raises(OSError):
            cli.main(["validate", str(files[0])])
        assert gc.isenabled()
        # and a caller that paused it finds it paused
        gc.disable()
        try:
            run_cli(argv, capsys)
            assert not gc.isenabled()
        finally:
            gc.enable()

    def test_missing_ruleset_for_address(self, corpus, capsys, tmp_path):
        out_dir = self.compiled(corpus, capsys, tmp_path)
        (out_dir / "entanglement_swapping_2.json").unlink()
        code, _out, err = run_cli(
            ["run", "--config", corpus / "config3.json", "--rulesets", out_dir],
            capsys,
        )
        assert code == 1
        assert "missing RuleSet for address 2" in err

    @pytest.mark.parametrize(
        "change,error",
        [
            ("no-directory", "error: no such ruleset directory: {out_dir}"),
            ("two-for-one", "error: {out_dir}/zz.json: duplicate RuleSet for address 1"),
            ("not-in-config", "error: RuleSet for address 2 not in the config"),
        ],
    )
    def test_rulesets_that_do_not_fit_the_config(self, corpus, capsys, tmp_path, change, error):
        out_dir = self.compiled(corpus, capsys, tmp_path)
        config = corpus / "config3.json"
        if change == "no-directory":
            shutil.rmtree(out_dir)
        elif change == "two-for-one":
            shutil.copy(out_dir / "entanglement_swapping_1.json", out_dir / "zz.json")
        else:
            config = corpus / "config2.json"  # addresses 0 and 1
        code, out, err = run_cli(["run", "--config", config, "--rulesets", out_dir], capsys)
        assert (code, out, err) == (1, "", error.format(out_dir=out_dir) + "\n")

    def test_non_utf8_ruleset_is_a_failure(self, corpus, capsys, tmp_path):
        out_dir = self.compiled(corpus, capsys, tmp_path)
        target = out_dir / "entanglement_swapping_1.json"
        target.write_bytes(b"\xff" + target.read_bytes())
        code, out, err = run_cli(
            ["run", "--config", corpus / "config3.json", "--rulesets", out_dir],
            capsys,
        )
        assert code == 1
        assert out == ""
        assert "error: " in err and "entanglement_swapping_1.json" in err

    def test_deeply_nested_ruleset_names_the_file(self, corpus, capsys, tmp_path):
        out_dir = self.compiled(corpus, capsys, tmp_path)
        target = out_dir / "entanglement_swapping_1.json"
        target.write_text("[" * 100_000)
        code, out, err = run_cli(
            ["run", "--config", corpus / "config3.json", "--rulesets", out_dir],
            capsys,
        )
        assert code == 1
        assert out == ""
        assert f"error: {target}: " in err and "nested too deeply" in err

    def test_integer_too_long_to_convert_names_the_file(self, corpus, capsys, tmp_path):
        out_dir = self.compiled(corpus, capsys, tmp_path)
        target = out_dir / "entanglement_swapping_1.json"
        oversized_owner(target)
        code, out, err = run_cli(
            ["run", "--config", corpus / "config3.json", "--rulesets", out_dir],
            capsys,
        )
        assert code == 1
        assert out == ""
        assert err == f"error: {target}: $: integer too long to convert\n"

    @pytest.mark.parametrize("command", ["compile", "run"])
    def test_config_integer_too_long_to_convert_is_usage_error(
        self, corpus, capsys, tmp_path, command
    ):
        config_path = tmp_path / "huge.json"
        config_path.write_text('{"repeaters": [{"name": "a", "address": %s}]}' % ("7" * 5001))
        if command == "compile":
            argv = ["compile", corpus / SWAP, "--config", config_path, "--out-dir", tmp_path]
        else:
            argv = ["run", "--config", config_path, "--rulesets", tmp_path]
        code, out, err = run_cli(argv, capsys)
        assert code == 2
        assert out == ""
        assert err == "error: invalid config: configuration holds an integer too long to convert\n"

    def test_non_utf8_config_is_usage_error(self, corpus, capsys, tmp_path):
        out_dir = self.compiled(corpus, capsys, tmp_path)
        bad_config = tmp_path / "config.json"
        bad_config.write_bytes(b"\xff" + (corpus / "config3.json").read_bytes())
        code, out, err = run_cli(
            ["run", "--config", bad_config, "--rulesets", out_dir], capsys
        )
        assert code == 2
        assert out == ""
        assert "error: invalid config" in err

    @pytest.mark.parametrize("mode", [["--seed", "0"], ["--enumerate-outcomes"]])
    @pytest.mark.parametrize(
        "pattern,replacement,message",
        [
            # a basis the schema admits but the simulator does not track
            ('"basis": "Z"', '"basis": "Y"', "unsupported measurement basis 'Y'"),
            # a send to an address the config does not define
            (
                r'("Meas": \{\s*"partner_addr": )0',
                r"\g<1>9",
                "address 1: send to address 9, which is not in the config",
            ),
            # a send payload naming a register the rule never wrote
            (
                '"result": "MeasResult"',
                '"result": "MeasResult7"',
                "address 1: send payload result names register 'MeasResult7', "
                "which the rule never wrote",
            ),
            # a gate the schema admits but the Pauli frame cannot track
            (
                r'(?s)"CxControl"(.*?)"CxTarget"',
                r'"H"\g<1>"H"',
                "gate H on an entangled qubit is outside the tracked state space",
            ),
        ],
        ids=["basis", "address", "register", "gate"],
    )
    def test_simulation_error_is_reported(
        self, corpus, capsys, tmp_path, mode, pattern, replacement, message
    ):
        out_dir = tmp_path / "out"
        code, _out, _err = run_cli(
            ["compile", corpus / "purification.rula", "--config", corpus / "config5.json",
             "--out-dir", out_dir],
            capsys,
        )
        assert code == 0
        target = out_dir / "purification_1.json"
        text, edits = re.subn(pattern, replacement, target.read_text(), count=1)
        assert edits == 1
        target.write_text(text)
        code, _out, err = run_cli(["validate", *sorted(out_dir.glob("*.json"))], capsys)
        assert code == 0
        code, out, err = run_cli(
            ["run", "--config", corpus / "config5.json", "--rulesets", out_dir,
             "--report-json", *mode],
            capsys,
        )
        assert code == 1
        assert out == ""
        assert err == f"error: simulation: {message}\n"


    def test_unbindable_qubit_ends_stuck(self, corpus, capsys, tmp_path):
        """The middle node transfers its pair with the left node to the
        right end node, which holds no pair to promote: the run ends stuck
        on that rule instead of raising."""
        program = tmp_path / "hand_over.rula"
        program.write_text(HAND_OVER)
        out_dir = tmp_path / "out"
        config3 = corpus / "config3.json"
        code, _out, _err = run_cli(
            ["compile", program, "--config", config3, "--out-dir", out_dir], capsys
        )
        assert code == 0
        code, _out, err = run_cli(["validate", *sorted(out_dir.glob("*.json"))], capsys)
        assert code == 0 and err.count(": ok") == 3
        for mode in (["--seed", "0"], ["--enumerate-outcomes"]):
            code, _out, err = run_cli(
                ["run", "--config", config3, "--rulesets", out_dir, *mode], capsys
            )
            assert code == 1
            assert "error" not in err
            assert (
                "stuck: address 2: rule 'wait_transfer' (id 0) has no pair or promoted "
                "qubit to bind to slot 0\n"
            ) in err

    def compiled_source(self, source, corpus, capsys, tmp_path):
        program = tmp_path / "program.rula"
        program.write_text(source)
        out_dir = tmp_path / "out"
        code, _out, _err = run_cli(
            ["compile", program, "--config", corpus / "config2.json", "--out-dir", out_dir],
            capsys,
        )
        assert code == 0
        return ["run", "--config", corpus / "config2.json", "--rulesets", out_dir]

    def test_set_without_alias_is_read_by_get(self, corpus, capsys, tmp_path):
        run = self.compiled_source(SET_WITHOUT_ALIAS, corpus, capsys, tmp_path)
        code, out, _err = run_cli([*run, "--enumerate-outcomes", "--report-json"], capsys)
        assert code == 0
        fired = {
            tuple(report["outcome_path"]): [(f["address"], f["id"]) for f in report["fired"]]
            for report in json.loads(out)["reports"]
        }
        assert fired == {(0,): [(0, 0), (0, 1), (1, 0)], (1,): [(0, 0), (0, 2), (1, 0)]}

    @pytest.mark.parametrize(
        "inner,fired",
        [
            (
                '"1" => { set_timer("t1", 1) },',
                {(0, 0): [(0, 0)], (0, 1): [(0, 1)], (1,): [(0, 2), (1, 0)]},
            ),
            (
                'otherwise => { set_timer("t1", 1) }',
                {(0, 0): [(0, 0)], (0, 1): [(0, 2)], (1,): [(0, 1), (1, 0)]},
            ),
        ],
        ids=["match", "otherwise"],
    )
    def test_match_arm_is_compared_after_its_measurement(
        self, corpus, capsys, tmp_path, inner, fired
    ):
        """The inner match is read once `measure(q2)` has run, so each
        branch fires the arm its two outcomes name; after the outer `"1"`
        arm frees q2, node 1's `wait_free` fires."""
        source = NESTED_MATCH.replace('"1" => { set_timer("t1", 1) },', inner)
        assert inner in source
        run = self.compiled_source(source, corpus, capsys, tmp_path)
        code, out, _err = run_cli([*run, "--enumerate-outcomes", "--report-json"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["branches"] == 3 and doc["all_quiescent"]
        assert {
            tuple(report["outcome_path"]): [(f["address"], f["id"]) for f in report["fired"]]
            for report in doc["reports"]
        } == fired
        [freed] = [r for r in doc["reports"] if r["outcome_path"] == [1]]
        assert [f["rule"] for f in freed["fired"]] == ["nested", "wait_free"]

    def test_bsm_on_pairs_with_one_far_node(self, corpus, capsys, tmp_path):
        """Both qubits of the swap come from the left partner. Lowering
        rejects the bsm; RuleSets edited to do the same end stuck at the
        swap and never splice a pair with both ends on one node."""
        program = tmp_path / "left_only.rula"
        source = (corpus / SWAP).read_text()
        right = "@q2: res(1, 0.8, right_partner, 1)"
        program.write_text(source.replace(right, right.replace("right", "left")))
        config3 = corpus / "config3.json"
        code, _out, err = run_cli(
            ["compile", program, "--config", config3, "--out-dir", tmp_path / "none"], capsys
        )
        line, col = parser.line_col(source, source.index("bsm(q1, q2)"))
        assert code == 1
        assert err.count("error[") == 1
        assert f"left_only.rula:{line}:{col}: error[bsm-partner]: bsm(q1, q2) joins" in err
        assert not (tmp_path / "none").exists()

        _c, _o, _e, out_dir = compile_swap(corpus, capsys, tmp_path, config="config3.json")
        path = out_dir / "entanglement_swapping_1.json"
        doc = json.loads(path.read_text())
        for rule in doc["stages"][0]["rules"]:
            for clause in rule["condition"]["clauses"]:
                if clause.get("Res", {}).get("qubit_index") == 1:
                    clause["Res"]["partner_addr"] = 0
        path.write_text(json.dumps(doc))
        for mode in (["--seed", "0"], ["--enumerate-outcomes"]):
            code, out, err = run_cli(
                ["run", "--config", config3, "--rulesets", out_dir, *mode], capsys
            )
            assert code == 1
            assert "error" not in err
            assert "pair (0, 0)" not in out + err
            assert (
                "stuck: address 1: rule 'swapping' (id 0) splices two pairs whose far "
                "ends both sit on address 0\n"
            ) in err

    def test_each_command_loads_with_a_fresh_table(
        self, corpus, capsys, tmp_path, monkeypatch
    ):
        # the doubling schedule on 17 nodes: a load keys documents by shape
        # from its ninth on, and the last nine files have five shapes
        program, config17 = tmp_path / "doubling.rula", tmp_path / "chain17.json"
        program.write_text(
            (corpus / SWAP)
            .read_text()
            .replace("for d in 1..(#repeaters.len()/2)", "for d in [1, 2, 4, 8]")
        )
        repeaters = [{"name": f"#{i}", "address": i} for i in range(17)]
        config17.write_text(json.dumps({"repeaters": repeaters}))
        out_dir = tmp_path / "out"
        argv = ["compile", program, "--config", config17, "--out-dir", out_dir]
        assert run_cli(argv, capsys)[0] == 0
        texts = {path.read_text() for path in out_dir.glob("*.json")}
        real, real_loads = ir.deserialize, json.loads
        loads: list[list[tuple[int, dict, ir.RuleSet]]] = []
        decoded: list[list[str]] = []

        def recording(text, interned):
            size = len(interned)
            ruleset = real(text, interned)
            loads[-1].append((size, interned, ruleset))
            return ruleset

        monkeypatch.setattr(ir, "deserialize", recording)
        monkeypatch.setattr(
            json, "loads", lambda text, **kw: decoded[-1].append(text) or real_loads(text, **kw)
        )
        argv = ["run", "--config", config17, "--rulesets", out_dir]
        for command in (argv, ["validate", *sorted(out_dir.glob("*.json"))], argv):
            loads.append([])
            decoded.append([])
            assert run_cli(command, capsys)[0] == 0
        monkeypatch.undo()
        assert [len(calls) for calls in loads] == [17, 17, 17]
        # each command decodes the first eight and one file of each shape,
        # and refills the other four
        assert [len(texts.intersection(seen)) for seen in decoded] == [13, 13, 13]
        for calls in loads:
            # one table for the files of one command, empty when it starts
            assert calls[0][0] == 0
            assert all(table is calls[0][1] for _size, table, _rs in calls)
        tables = [calls[0][1] for calls in loads]
        assert len({id(t) for t in tables}) == 3
        # the first and the last command load the same files, and share no
        # rule, condition, action or leaf
        first = {id(node) for _s, _t, rs in loads[0] for node in _nodes(rs)}
        assert not first & {id(node) for _s, _t, rs in loads[2] for node in _nodes(rs)}
        # nothing a command loaded, its shapes included, outlives it
        alive = [weakref.ref(rs) for calls in loads for _s, _t, rs in calls]
        del loads, tables, calls
        gc.collect()
        assert not [ref for ref in alive if ref() is not None]


def _garbage_after(action):
    """How many unreachable objects the cyclic collector finds after
    `action` runs with the collector paused."""
    gc.collect()
    gc.disable()
    try:
        action()
        return gc.collect()
    finally:
        gc.enable()


class TestNoCycles:
    """Every command runs with the collector paused, so what it builds must
    be freed by reference counting: it leaves no more cyclic garbage than
    building the argument parser does."""

    @pytest.mark.parametrize(
        "program, config",
        [
            ("chain7.rula", "config7.json"),
            ("entanglement_swapping.rula", "config5.json"),
            ("loop_probe.rula", "config2.json"),
            ("purification.rula", "config5.json"),
            ("two_matches.rula", "config3.json"),
        ],
    )
    def test_no_command_leaves_cycles(self, corpus, capsys, tmp_path, program, config):
        parser_only = _garbage_after(cli.build_parser)

        def garbage(*argv):
            codes = []
            found = _garbage_after(lambda: codes.append(cli.main([str(a) for a in argv])))
            capsys.readouterr()
            assert codes == [0], argv
            return found

        out_dir = tmp_path / "out"
        compiled = ["compile", corpus / program, "--config", corpus / config, "--out-dir", out_dir]
        assert garbage(*compiled) <= parser_only
        assert garbage("validate", *sorted(out_dir.glob("*.json"))) <= parser_only
        run = ["run", "--config", corpus / config, "--rulesets", out_dir]
        assert garbage(*run, "--seed", "7") <= parser_only
        assert garbage(*run, "--enumerate-outcomes", "--report-json") <= parser_only

    def test_a_failed_compile_leaves_no_cycles(self, corpus, capsys, tmp_path):
        argv = ["compile", str(corpus / "multiround.rula"), "--config",
                str(corpus / "config3.json"), "--out-dir", str(tmp_path)]
        parser_only = _garbage_after(cli.build_parser)
        codes = []
        assert _garbage_after(lambda: codes.append(cli.main(argv))) <= parser_only
        assert codes == [1] and "error[unknown-rule]" in capsys.readouterr().err


def _nodes(ruleset):
    rules = [r for stage in ruleset.stages for r in stage.rules]
    blocks = [b for r in rules for b in (r.condition, r.action)]
    return rules + blocks + [c for b in blocks for c in b.clauses]


class TestProcessEntry:
    def test_module_invocation(self, corpus, tmp_path):
        result = subprocess.run(
            [
                sys.executable,
                "-m",
                "rula",
                "compile",
                str(corpus / SWAP),
                "--config",
                str(corpus / "config5.json"),
                "--out-dir",
                str(tmp_path),
            ],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0
        assert len(result.stdout.splitlines()) == 5

    def test_module_validates_reference_document(self, corpus):
        result = subprocess.run(
            [sys.executable, "-m", "rula", "validate", str(corpus / "swapping_ruleset.json")],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0, result.stderr
        assert result.stderr.endswith("swapping_ruleset.json: ok\n")

    def test_usage_error_exit_code(self):
        result = subprocess.run(
            [sys.executable, "-m", "rula", "frobnicate"],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 2


class _FullStream(io.TextIOBase):
    """A stdout or stderr on a full disk: every write raises ENOSPC."""

    def write(self, text):
        raise OSError(errno.ENOSPC, "No space left on device")


class _CountingStdout(io.TextIOBase):
    """A stdout that counts the characters written to it and keeps none."""

    chars = 0

    def write(self, text):
        self.chars += len(text)
        return len(text)


def _compile_chain7(corpus, capsys, tmp_path):
    out_dir = tmp_path / "out"
    config = corpus / "config7.json"
    argv = ["compile", corpus / "chain7.rula", "--config", config, "--out-dir", out_dir]
    assert run_cli(argv, capsys)[0] == 0
    return ["run", "--config", config, "--rulesets", out_dir, "--enumerate-outcomes", "--report-json"]


class TestReportJson:
    # the corpus programs and configs that compile
    COMPILED = [
        ("chain7.rula", "config7.json"),
        ("entanglement_swapping.rula", "config3.json"),
        ("entanglement_swapping.rula", "config5.json"),
        ("loop_probe.rula", "config2.json"),
        ("loop_probe.rula", "config3.json"),
        ("loop_probe.rula", "config5.json"),
        ("loop_probe.rula", "config7.json"),
        ("purification.rula", "config3.json"),
        ("purification.rula", "config5.json"),
        ("two_matches.rula", "config3.json"),
    ]

    def test_every_object_is_key_sorted(self, corpus, capsys, tmp_path):
        """The report dicts are built in wire order, which `ir.dump` keeps:
        every object of every sampled and enumerated report of the corpus
        has its keys sorted."""
        objects = 0

        def sorted_object(pairs):
            nonlocal objects
            keys = [key for key, _ in pairs]
            assert keys == sorted(keys), keys
            objects += 1
            return dict(pairs)

        for program, config_name in self.COMPILED:
            out_dir = tmp_path / f"{program}-{config_name}"
            config = corpus / config_name
            argv = ["compile", corpus / program, "--config", config, "--out-dir", out_dir]
            assert run_cli(argv, capsys)[0] == 0, (program, config_name)
            run = ["run", "--config", config, "--rulesets", out_dir, "--report-json"]
            for extra in (["--seed", "0"], ["--enumerate-outcomes"]):
                code, out, err = run_cli([*run, *extra], capsys)
                assert code in (0, 1) and out, err
                json.loads(out, object_pairs_hook=sorted_object)
        assert objects > 10_000

    def test_report_json_is_never_held_whole(self, corpus, capsys, monkeypatch, tmp_path):
        """`rula run --report-json` writes its text as it goes: the memory
        the whole enumeration of chain7 allocates at its peak, reports
        included, is less than the text it writes."""
        argv = _compile_chain7(corpus, capsys, tmp_path)
        sink = _CountingStdout()
        monkeypatch.setattr(sys, "stdout", sink)
        tracemalloc.start()
        try:
            code = cli.main([str(a) for a in argv])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert sink.chars > 2_000_000  # its 1 024 reports
        assert peak < sink.chars, (peak, sink.chars)


def _per_line_report(report, prefix, err):
    """Write `report`'s stderr lines one at a time, in the format
    `rula run` writes them in."""
    err(f"{prefix}{report.status} after {report.rounds} round(s), "
        f"{len(report.fired)} rule(s) fired, {report.messages_delivered} message(s) delivered\n")
    for pair in report.pairs:
        a, b = pair["nodes"]
        phase, parity = pair["bell_index"]
        err(f"{prefix}pair ({a}, {b}): bell_index ({phase}, {parity}), "
            f"fidelity {pair['fidelity']}, {'/'.join(pair['states'])}\n")
    for line in report.stuck:
        err(f"{prefix}stuck: {line}\n")
    return report


def _generic_run(config, rulesets, *, fidelity="1.0", max_steps="10000", seed=None, report_json):
    """What `rula run` writes, made the generic way: every report built
    (`runtime.enumerate_outcomes` or `runtime.run`), its stderr lines written
    one by one and its `to_json()` written by `ir.dump`, each branch's lines
    before its JSON.  The (stream, text) pieces in the order written, and
    the exit status."""
    written = []

    def out(text):
        written.append(("out", text))

    def err(text):
        written.append(("err", text))

    topology = cli._read_config(str(config))[1]
    loaded = cli._load_rulesets(Path(rulesets), topology)
    budget = {"initial_fidelity": float(fidelity), "max_rounds": int(max_steps)}
    if seed is None:
        reports = runtime.enumerate_outcomes(loaded, topology, **budget)
        ok = all(r.quiescent for r in reports)
        described = (
            _per_line_report(r, f"branch {''.join(map(str, r.outcome_path))}: ", err).to_json()
            for r in reports
        )
        if report_json:
            document = {"all_quiescent": ok, "branches": len(reports), "mode": "enumerate",
                        "reports": described}
            ir.dump(document, out, indent=2)
            out("\n")
        for _report in described:
            pass
        err(f"{len(reports)} branch(es), " + ("all quiescent" if ok else "some stuck") + "\n")
    else:
        report = _per_line_report(runtime.run(loaded, topology, seed=seed, **budget), "", err)
        ok = report.quiescent
        if report_json:
            ir.dump(report.to_json(), out, indent=2)
            out("\n")
    return written, 0 if ok else 1


def _streams(written, *names):
    return "".join([text for stream, text in written if stream in names])


def _same(got: str, want: str) -> None:
    """Fail unless `got == want`, naming where they part: pytest's own diff
    of megabytes of text takes minutes."""
    if got != want:
        at = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b), min(len(got), len(want)))
        pytest.fail(f"texts part at {at} of {len(got)} / {len(want)} chars: "
                    f"{got[at - 60:at + 60]!r} != {want[at - 60:at + 60]!r}")


class _Recording(io.TextIOBase):
    """A stream that adds each text written to it, under its name, to one
    list shared with another."""

    def __init__(self, name, written):
        self.name, self.written = name, written

    def write(self, text):
        self.written.append((self.name, text))
        return len(text)


class TestBranchWriter:
    """`rula run --enumerate-outcomes` writes each branch from text folded
    along the outcome graph (`cli._Branches`): its stdout, stderr and exit
    status are those of the generic path (`_generic_run`)."""

    @pytest.fixture(scope="class")
    def compiled(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("compiled")
        corpus = Path(__file__).parent / "corpus"
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            for program, config_name in TestReportJson.COMPILED:
                assert cli.main(["compile", str(corpus / program), "--config", str(corpus / config_name),
                                 "--out-dir", str(root / f"{program}-{config_name}")]) == 0
        return root

    @staticmethod
    def run(corpus, compiled, program, config_name, *extra, report_json=True):
        config = corpus / config_name
        rulesets = compiled / f"{program}-{config_name}"
        argv = ["run", "--config", str(config), "--rulesets", str(rulesets), *extra]
        return argv + ["--report-json"] * report_json, config, rulesets

    @pytest.mark.parametrize("report_json", [True, False], ids=["json", "text"])
    @pytest.mark.parametrize("fidelity", ["1.0", "0.9", "0.8"])
    @pytest.mark.parametrize("mode", ["enumerate", "seed"])
    @pytest.mark.parametrize("program,config_name", TestReportJson.COMPILED)
    def test_matches_generic_path(
        self, corpus, compiled, capsys, program, config_name, mode, fidelity, report_json
    ):
        extra = ["--enumerate-outcomes"] if mode == "enumerate" else ["--seed", "3"]
        argv, config, rulesets = self.run(corpus, compiled, program, config_name, *extra,
                                          "--fidelity", fidelity, report_json=report_json)
        code = cli.main(argv)
        out, err = capsys.readouterr()
        written, want = _generic_run(config, rulesets, fidelity=fidelity, report_json=report_json,
                                     seed=None if mode == "enumerate" else 3)
        assert code == want
        _same(out, _streams(written, "out"))
        _same(err, _streams(written, "err"))

    @pytest.mark.parametrize(
        "program,config_name,max_steps",
        [("chain7.rula", "config7.json", "0"), ("chain7.rula", "config7.json", "3"),
         ("purification.rula", "config5.json", "3")],
    )
    def test_round_budgets(self, corpus, compiled, capsys, program, config_name, max_steps):
        argv, config, rulesets = self.run(corpus, compiled, program, config_name,
                                          "--enumerate-outcomes", "--max-steps", max_steps)
        code = cli.main(argv)
        out, err = capsys.readouterr()
        written, want = _generic_run(config, rulesets, max_steps=max_steps, report_json=True)
        assert code == want
        _same(out, _streams(written, "out"))
        _same(err, _streams(written, "err"))
        if max_steps == "3":
            assert "stuck: round budget of 3 round(s) spent" in err
        else:  # one branch, which draws no bit and fires nothing
            [report] = json.loads(out)["reports"]
            assert report["outcome_path"] == [] and report["fired"] == []
            assert err.startswith("branch : stuck after 0 round(s), 0 rule(s) fired")

    @pytest.mark.parametrize(
        "program,config_name,fidelity,max_steps",
        [("chain7.rula", "config7.json", "0.8", "10000"), ("purification.rula", "config5.json", "1.0", "10000"),
         ("chain7.rula", "config7.json", "1.0", "3")],
    )
    def test_one_stream_keeps_the_order(
        self, corpus, compiled, monkeypatch, program, config_name, fidelity, max_steps
    ):
        """Written to one stream, `"reports": ` comes before the first
        branch's stderr block, and each block before its branch's JSON."""
        argv, config, rulesets = self.run(corpus, compiled, program, config_name, "--enumerate-outcomes",
                                          "--fidelity", fidelity, "--max-steps", max_steps)
        both = io.StringIO()
        monkeypatch.setattr(sys, "stdout", both)
        monkeypatch.setattr(sys, "stderr", both)
        code = cli.main(argv)
        written, want = _generic_run(config, rulesets, fidelity=fidelity, max_steps=max_steps,
                                     report_json=True)
        assert code == want
        _same(both.getvalue(), _streams(written, "out", "err"))
        assert '"reports": branch 0' in both.getvalue()

    def test_one_write_per_branch(self, corpus, compiled, monkeypatch):
        """Each branch of chain7 on 7 nodes costs one stdout write and one
        stderr write, and the document's head, close and summary a few more."""
        written = []
        monkeypatch.setattr(sys, "stdout", _Recording("out", written))
        monkeypatch.setattr(sys, "stderr", _Recording("err", written))
        argv, _config, _rulesets = self.run(corpus, compiled, "chain7.rula", "config7.json",
                                            "--enumerate-outcomes")
        assert cli.main(argv) == 0
        writes = collections.Counter(stream for stream, _text in written)
        assert writes["out"] <= 1024 + 4 and writes["err"] <= 1024 + 4, writes
        assert _streams(written, "err").count("\nbranch ") == 1023 + 1024  # one pair line each


class TestFullStderr:
    """A stderr that cannot be written loses its lines and nothing else:
    `rula compile` still lists the files it wrote on stdout, and exits 0."""

    @staticmethod
    def argv(corpus, out_dir):
        return ["compile", str(corpus / "chain7.rula"), "--config", str(corpus / "config7.json"),
                "--out-dir", str(out_dir)]

    @staticmethod
    def written(out_dir):
        paths = [str(path) for path in sorted(out_dir.glob("*.json"))]
        assert len(paths) == 7
        return paths

    def test_in_process(self, corpus, capsys, monkeypatch, tmp_path):
        with monkeypatch.context() as patch:
            patch.setattr(sys, "stderr", _FullStream())
            code = cli.main(self.argv(corpus, tmp_path / "out"))
        assert code == 0
        assert capsys.readouterr().out.splitlines() == self.written(tmp_path / "out")

    @pytest.mark.skipif(not Path("/dev/full").exists(), reason="needs /dev/full")
    def test_full_device(self, corpus, tmp_path):
        with open("/dev/full", "w") as full:
            proc = subprocess.run([sys.executable, "-m", "rula", *self.argv(corpus, tmp_path / "out")],
                                  stdout=subprocess.PIPE, stderr=full, text=True)
        assert proc.returncode == 0
        assert proc.stdout.splitlines() == self.written(tmp_path / "out")


class TestClosedStdout:
    """A reader that closes stdout, or a stdout that cannot be written,
    before a command has written it all ends the command with exit 1 and no
    traceback.  Each command writes more than a pipe holds, so it is still
    writing when the pipe closes."""

    def test_full_stdout_is_one_error_line(self, corpus, capsys, monkeypatch, tmp_path):
        run = _compile_chain7(corpus, capsys, tmp_path)
        compile_ = ["compile", corpus / "chain7.rula", "--config", corpus / "config7.json",
                    "--out-dir", tmp_path / "again"]
        for argv in (run, compile_):
            with monkeypatch.context() as patch:
                patch.setattr(sys, "stdout", _FullStream())
                code = cli.main([str(a) for a in argv])
            err = capsys.readouterr().err
            assert code == 1
            errors = [line for line in err.splitlines() if line.startswith("error")]
            assert errors == ["error: cannot write to stdout: [Errno 28] No space left on device"]

    @pytest.mark.skipif(not Path("/dev/full").exists(), reason="needs /dev/full")
    def test_full_device(self, corpus, capsys, tmp_path):
        """A stdout on /dev/full: one error line, and nothing at exit."""
        run = _compile_chain7(corpus, capsys, tmp_path)
        compile_ = ["compile", corpus / "chain7.rula", "--config", corpus / "config7.json",
                    "--out-dir", tmp_path / "again"]
        for argv in (run, compile_):
            with open("/dev/full", "w") as full:
                proc = subprocess.run([sys.executable, "-m", "rula", *map(str, argv)],
                                      stdout=full, stderr=subprocess.PIPE, text=True)
            assert proc.returncode == 1
            lines = proc.stderr.splitlines()
            assert [line for line in lines if "stdout" in line] == [
                "error: cannot write to stdout: [Errno 28] No space left on device"
            ]
            assert "Traceback" not in proc.stderr and "Exception ignored" not in proc.stderr

    @staticmethod
    def closed_early(argv, tmp_path):
        with open(tmp_path / "stderr.txt", "w+") as err:
            proc = subprocess.Popen(
                [sys.executable, "-m", "rula", *map(str, argv)], stdout=subprocess.PIPE, stderr=err
            )
            assert len(proc.stdout.read(10)) == 10
            proc.stdout.close()
            code = proc.wait()
            err.seek(0)
            return code, err.read()

    def test_run_report_json(self, corpus, capsys, tmp_path):
        """Each branch is described as it is written, so stderr stops at the
        branch that met the closed pipe, before the last of 1 024, and the
        error line ends it."""
        code, err = self.closed_early(_compile_chain7(corpus, capsys, tmp_path), tmp_path)
        assert code == 1 and "Traceback" not in err, err[-2000:]
        lines = err.splitlines()
        assert lines[-1].startswith("error: cannot write to stdout: ")
        assert sum(" round(s), " in line for line in lines) < 1024
        assert "branch(es)" not in err

    def test_compile(self, corpus, tmp_path):
        # 129 paths of over 1 000 characters each: twice what a pipe holds
        config = tmp_path / "chain129.json"
        config.write_text(json.dumps({"repeaters": [{"name": f"#{i}", "address": i} for i in range(129)]}))
        out_dir = tmp_path.joinpath(*["d" * 250] * 4)
        argv = ["compile", corpus / "chain7.rula", "--config", config, "--out-dir", out_dir]
        code, err = self.closed_early(argv, tmp_path)
        assert code == 1 and "Traceback" not in err, err[-2000:]
