import contextlib
import io
import json
import os
import subprocess
import sys
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from posetsat import (
    SetFamily,
    butterfly_construction,
    butterfly_poset,
    format_family,
    n_construction,
    n_poset,
    parse_family,
    sample_saturated_families,
)
from posetsat import cli
from posetsat.cli import run
from posetsat.embedding import _FamilyIndex


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestConstruct:
    def test_butterfly_13_lines(self, capsys):
        code, out, err = invoke(capsys, "construct", "--family", "butterfly", "--n", "4")
        assert code == 0
        assert len(out.strip().splitlines()) == 13
        assert "13 sets" in err

    def test_round_trip_through_check(self, capsys, tmp_path):
        path = tmp_path / "fam.txt"
        code, _, _ = invoke(
            capsys, "construct", "--family", "butterfly", "--n", "4", "--out", str(path)
        )
        assert code == 0
        read_back = parse_family(path.read_text(), butterfly_construction(4).ground)
        assert read_back.bit_list == butterfly_construction(4).bit_list
        code, out, _ = invoke(
            capsys, "check", "--poset", "butterfly", "--in", str(path), "--n", "4"
        )
        assert code == 0
        assert json.loads(out)["saturated"] is True

    def test_k2k_requires_k(self, capsys):
        code, _, err = invoke(capsys, "construct", "--family", "k2k", "--n", "5")
        assert code == 2
        assert "requires --k" in err


class TestCheck:
    def test_saturated_exit_zero(self, capsys, tmp_path):
        path = tmp_path / "n5.txt"
        path.write_text(format_family(n_construction(5)))
        code, out, _ = invoke(capsys, "check", "--poset", "n", "--in", str(path), "--n", "5")
        assert code == 0
        report = json.loads(out)
        assert report["saturated"] is True and report["free"] is True

    def test_unsaturated_exit_one(self, capsys, tmp_path):
        path = tmp_path / "tiny.txt"
        path.write_text("{}\n")
        code, out, _ = invoke(capsys, "check", "--poset", "butterfly", "--in", str(path), "--n", "4")
        assert code == 1
        assert json.loads(out)["saturated"] is False

    def test_missing_file_is_usage_error(self, capsys):
        code, _, err = invoke(capsys, "check", "--poset", "n", "--in", "/no/such/file")
        assert code == 2
        assert "error" in err

    def test_byte_order_mark_is_skipped(self, capsys, tmp_path):
        # editors such as Windows Notepad start a UTF-8 file with U+FEFF
        fam, poset = tmp_path / "n5.txt", tmp_path / "n.json"
        texts = {fam: format_family(n_construction(5)),
                 poset: '{"size": 4, "less": [[0, 2], [1, 2], [1, 3]]}'}
        args = ("check", "--poset", str(poset), "--in", str(fam), "--n", "5")
        runs = []
        for mark in (b"", b"\xef\xbb\xbf"):
            for path, text in texts.items():
                path.write_bytes(mark + text.encode())
            runs.append(invoke(capsys, *args))
        assert runs[0][0] == 0
        assert runs[1] == runs[0]

    def test_byte_order_mark_keeps_decode_offsets(self, capsys, tmp_path):
        # the bad byte is the 8th of the file, after the mark and "{1}\n"
        path = tmp_path / "fam.txt"
        path.write_bytes(b"\xef\xbb\xbf{1}\n\xff\n")
        code, out, err = invoke(capsys, "check", "--poset", "b", "--in", str(path))
        assert (code, out) == (2, "")
        assert err == f"error: {path} is not UTF-8 text (byte 7)\n"

    def test_threads_option_removed(self, tmp_path):
        path = tmp_path / "fam.txt"
        path.write_text(format_family(butterfly_construction(4)))
        for flag in ("--threads", "--thread"):
            proc = subprocess.run(
                [sys.executable, "-m", "posetsat.cli", "check", "--poset", "butterfly",
                 "--in", str(path), flag, "2"],
                capture_output=True,
                text=True,
            )
            assert proc.returncode == 2
            assert proc.stdout == ""
            assert "Traceback" not in proc.stderr

    def test_byte_determinism(self, capsys, tmp_path):
        path = tmp_path / "fam.txt"
        path.write_text(format_family(butterfly_construction(4)))
        args = ("check", "--poset", "butterfly", "--in", str(path), "--n", "4")
        _, out1, _ = invoke(capsys, *args)
        _, out2, _ = invoke(capsys, *args)
        assert out1 == out2

    def test_fail_fast_reports_the_first_unsaturated_set(self, capsys, tmp_path):
        # the N construction at n=14 without {1..5} has three addable sets
        fam = n_construction(14)
        prefix = 0b11111
        fam = SetFamily.from_masks(fam.ground, [b for b in fam.bit_list if b != prefix])
        index = _FamilyIndex(fam.bit_list, 14)
        missing = [b for b in fam.ground.all_masks() if not fam.has_mask(b)]
        for first in missing:  # one forced search per missing set
            index.append(first)
            addable = index.search(n_poset(), forced_index=len(fam)) is None
            index.pop()
            if addable:
                break
        path = tmp_path / "n14-neg.txt"
        path.write_text(format_family(fam))
        args = ("check", "--poset", "n", "--in", str(path), "--n", "14")
        code, out, err = invoke(capsys, *args)
        assert code == 1
        assert json.loads(out)["unsaturated"] == [[5, 6], [1, 2, 3, 4, 5], [1, 2, 3, 4, 6]]
        assert err == "free but unsaturated: 3 addable sets\n"
        code, out, err = invoke(capsys, *args, "--fail-fast")
        assert code == 1
        assert first == 0b110000
        assert json.loads(out) == {
            "free": True, "saturated": False, "unsaturated": [[5, 6]], "witness": None,
        }
        assert err == "free but unsaturated: 1 addable sets\n"


class TestEmbed:
    def test_witness_emitted(self, capsys, tmp_path):
        path = tmp_path / "fam.txt"
        path.write_text("{1}\n{2}\n{1,2,3}\n{1,2,4}\n")
        code, out, _ = invoke(capsys, "embed", "--poset", "butterfly", "--in", str(path), "--n", "4")
        assert code == 0
        witness = json.loads(out)
        assert {w["poset_element"] for w in witness} == {"min1", "min2", "max1", "max2"}

    def test_none_when_absent(self, capsys, tmp_path):
        path = tmp_path / "fam.txt"
        path.write_text("{1}\n{1,2}\n")
        code, out, _ = invoke(capsys, "embed", "--poset", "butterfly", "--in", str(path), "--n", "4")
        assert code == 0
        assert out.strip() == "none"

    def test_required_flag(self, capsys, tmp_path):
        path = tmp_path / "fam.txt"
        path.write_text("{1}\n{2}\n{1,2,3}\n{1,2,4}\n")
        code, out, _ = invoke(
            capsys,
            "embed", "--poset", "butterfly", "--in", str(path), "--n", "4",
            "--required", "{1,2,3}",
        )
        assert code == 0
        sets = [tuple(w["set"]) for w in json.loads(out)]
        assert (1, 2, 3) in sets

    def test_required_on_ten_disjoint_chains_finishes(self, tmp_path):
        # 10! automorphisms and no twins; the forced search tries the least
        # element of each of the 20 one-element twin classes
        poset = tmp_path / "chains.json"
        poset.write_text(json.dumps({"size": 20, "less": [[2 * i, 2 * i + 1] for i in range(10)]}))
        path = tmp_path / "fam.txt"
        path.write_text("".join(f"{{{i}}}\n{{{i},11}}\n" for i in range(1, 11)))
        proc = subprocess.run(
            [
                sys.executable, "-m", "posetsat.cli", "embed", "--poset", str(poset),
                "--in", str(path), "--n", "11", "--required", "{3,11}",
            ],
            capture_output=True,
            text=True,
            timeout=20,
        )
        assert proc.returncode == 0
        sets = [tuple(w["set"]) for w in json.loads(proc.stdout)]
        assert sets[:2] == [(3,), (3, 11)]

    def test_required_not_member(self, capsys, tmp_path):
        path = tmp_path / "fam.txt"
        path.write_text("{1}\n{2}\n")
        code, _, err = invoke(
            capsys,
            "embed", "--poset", "butterfly", "--in", str(path), "--n", "4",
            "--required", "{1,2}",
        )
        assert code == 2



class TestElementsAboveTheGroundLimit:
    """An element above ``MAX_GROUND_SIZE`` is rejected on its line before
    its mask is built, so the error costs little memory whatever the
    number; an element outside a given ground set is named by line."""

    def invoke_traced(self, capsys, *argv):
        tracemalloc.start()
        try:
            code = run(list(argv))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        captured = capsys.readouterr()
        assert captured.out == ""
        return code, captured.err, peak

    @pytest.mark.parametrize("ground", [[], ["--n", "4"]], ids=["inferred", "given"])
    def test_check_rejects_the_line(self, capsys, tmp_path, ground):
        path = tmp_path / "fam.txt"
        path.write_text("{1}\n30000000\n")
        code, err, peak = self.invoke_traced(
            capsys, "check", "--poset", "b", "--in", str(path), *ground
        )
        assert code == 2
        assert err == "error: line 2: element 30000000 is above the largest ground size 24\n"
        assert peak < 1 << 20  # the mask 1 << 29999999 alone is 3.75 MB

    def test_embed_required_rejects_the_element(self, capsys, tmp_path):
        path = tmp_path / "fam.txt"
        path.write_text("{1}\n{2}\n")
        code, err, peak = self.invoke_traced(
            capsys, "embed", "--poset", "n", "--in", str(path), "--required", "30000000"
        )
        assert code == 2
        assert err == "error: line 1: element 30000000 is above the largest ground size 24\n"
        assert peak < 1 << 20

    def test_does_not_fit_names_line_and_element(self, capsys, tmp_path):
        path = tmp_path / "fam.txt"
        path.write_text("{1}\n0x40\n")
        code, err, _ = self.invoke_traced(
            capsys, "check", "--poset", "b", "--in", str(path), "--n", "4"
        )
        assert code == 2
        assert err == "error: line 2: element 7 does not fit in ground set of size 4\n"
        path.write_text("{1}\n{2}\n")
        code, err, _ = self.invoke_traced(
            capsys, "embed", "--poset", "n", "--in", str(path), "--required", "{1,24}"
        )
        assert code == 2
        assert err == "error: line 1: element 24 does not fit in ground set of size 2\n"


class TestLongInputsInErrors:
    """A bad value in a family or poset file is echoed cut short: the error
    is one line under 200 bytes however long the value."""

    FAMILY_LINES = {
        "token": "x" * 100_000,
        "element": "9" * 4_000,
        "below-one": "-" + "9" * 4_000,
        "over-digit-limit": "9" * 5_000,
        "hex-mask": "0x" + "g" * 50_000,
        "braces": "{" + "1," * 50_000,
    }
    POSETS = {
        "less": json.dumps({"size": 4, "less": "x" * 100_000}),
        "pair": json.dumps({"size": 4, "less": [[0, 1], list(range(50_000))]}),
        "labels": json.dumps({"size": 2, "less": [], "labels": ["x" * 100_000, 3]}),
        "size-type": json.dumps({"size": "x" * 100_000, "less": []}),
        "size-value": json.dumps({"size": 10 ** 4_000, "less": []}),
        "relation": json.dumps({"size": 3, "less": [[10 ** 4_000, 1]]}),
        # above Python's int digit limit, which json.loads raises ValueError for
        "over-digit-limit": '{"size": ' + "9" * 5_000 + ', "less": []}',
        # every ordered pair of 64 elements: thousands of violated cells
        "all-pairs": json.dumps(
            {"size": 64, "less": [[a, b] for a in range(64) for b in range(64)]}
        ),
    }

    def assert_short_error(self, capsys, *argv):
        code, out, err = invoke(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert len(err.encode()) < 200

    @pytest.mark.parametrize("name", sorted(FAMILY_LINES))
    def test_family_line(self, capsys, tmp_path, name):
        path = tmp_path / "fam.txt"
        path.write_text("{1}\n" + self.FAMILY_LINES[name] + "\n")
        self.assert_short_error(capsys, "check", "--poset", "b", "--in", str(path))

    @pytest.mark.parametrize("name", sorted(POSETS))
    def test_poset_json(self, capsys, tmp_path, name):
        poset = tmp_path / "q.json"
        poset.write_text(self.POSETS[name])
        fam = tmp_path / "fam.txt"
        fam.write_text("{1}\n")
        self.assert_short_error(capsys, "check", "--poset", str(poset), "--in", str(fam))


class TestGreedy:
    def test_empty_seed_closes_power_set(self, capsys):
        code, out, _ = invoke(capsys, "greedy", "--poset", "butterfly", "--n", "3")
        assert code == 0
        assert len(out.strip().splitlines()) == 8

    def test_non_free_seed_usage_error(self, capsys, tmp_path):
        path = tmp_path / "seed.txt"
        path.write_text("{1}\n{2}\n{1,2,3}\n{1,2,4}\n")
        code, _, err = invoke(
            capsys, "greedy", "--poset", "butterfly", "--in", str(path), "--n", "4"
        )
        assert code == 2
        assert "induced copy" in err


class TestVerify:
    def test_suite_seed_defaults_to_one(self, capsys, monkeypatch):
        seeds = []
        monkeypatch.setattr(cli, "run_paper_suite", lambda seed: seeds.append(seed) or True)
        assert invoke(capsys, "verify", "--suite", "paper")[0] == 0
        assert invoke(capsys, "verify", "--suite", "paper", "--rng-seed", "7")[0] == 0
        assert seeds == [1, 7]

    def test_t2_passes_on_construction(self, capsys, tmp_path):
        path = tmp_path / "fam.txt"
        path.write_text(format_family(butterfly_construction(4)))
        code, out, _ = invoke(capsys, "verify", "t2", "--in", str(path), "--n", "4")
        assert code == 0
        report = json.loads(out)
        assert report["passed"] is True and report["theorem"] == "T2"

    def test_t2_gate_failure_exits_one(self, capsys, tmp_path):
        fam = butterfly_construction(4)
        trimmed = fam.bit_list[:-1]
        path = tmp_path / "fam.txt"
        path.write_text("".join(f"0x{b:x}\n" for b in trimmed))
        code, out, _ = invoke(capsys, "verify", "t2", "--in", str(path), "--n", "4")
        assert code == 1
        report = json.loads(out)
        assert report["hypotheses_hold"] is False

    def test_tsv_export(self, capsys, tmp_path):
        path = tmp_path / "fam.txt"
        path.write_text(format_family(butterfly_construction(4)))
        code, out, _ = invoke(
            capsys, "verify", "t2", "--in", str(path), "--n", "4", "--format", "tsv"
        )
        assert code == 0
        assert out.splitlines()[0] == "domain\tA\tB\tC\timage"

    def test_tsv_needs_saturated_family(self, capsys, tmp_path):
        path = tmp_path / "fam.txt"
        path.write_text("{}\n{1}\n")
        code, _, err = invoke(
            capsys, "verify", "t2", "--in", str(path), "--n", "4", "--format", "tsv"
        )
        assert code == 2
        assert "saturated" in err

    def test_tsv_refusal_gives_the_verifier_reason(self, capsys, tmp_path):
        # butterfly-saturated, 38 sets, no singletons: T3 refuses, T2 exports
        fam = sample_saturated_families(6, butterfly_poset(), 17, 1006)[11]
        assert len(fam) == 38 and not any(m.cardinality == 1 for m in fam)
        path = tmp_path / "fam.txt"
        path.write_text(format_family(fam))
        args = ("verify", "t3", "--in", str(path), "--n", "6", "--format", "tsv")
        code, out, err = invoke(capsys, *args)
        assert code == 2
        assert out == ""
        assert err == "error: no singletons present; the bound is vacuous\n"
        code, out, _ = invoke(capsys, "verify", "t2", *args[2:])
        assert code == 0
        assert out.startswith("domain\tA\tB\tC\timage\n")

    def test_tsv_rejected_for_p4(self, capsys, tmp_path):
        path = tmp_path / "fam.txt"
        path.write_text(format_family(n_construction(4)))
        code, _, _ = invoke(
            capsys, "verify", "p4", "--in", str(path), "--n", "4", "--format", "tsv"
        )
        assert code == 2

    def test_p4_text_format(self, capsys, tmp_path):
        path = tmp_path / "fam.txt"
        path.write_text(format_family(n_construction(6)))
        code, out, _ = invoke(
            capsys, "verify", "p4", "--in", str(path), "--n", "6", "--format", "text"
        )
        assert code == 0
        assert out.startswith("P4: passed")

    def test_p4_strong(self, capsys, tmp_path):
        path = tmp_path / "fam.txt"
        path.write_text(format_family(n_construction(6)))
        code, out, _ = invoke(capsys, "verify", "p4", "--in", str(path), "--n", "6", "--strong")
        assert code == 0
        assert json.loads(out)["passed"] is True

    def test_verify_needs_target_or_suite(self, capsys):
        code, _, _ = invoke(capsys, "verify")
        assert code == 2

    def test_unknown_suite(self, capsys):
        code, _, _ = invoke(capsys, "verify", "--suite", "everything")
        assert code == 2


class TestSolve:
    def test_exact_small(self, capsys):
        code, out, _ = invoke(capsys, "solve", "--poset", "butterfly", "--n", "2")
        assert code == 0
        result = json.loads(out)
        assert result["value"] == 4 and result["exact"] is True

    def test_enumerate_method(self, capsys):
        code, out, _ = invoke(
            capsys, "solve", "--poset", "butterfly", "--n", "3", "--method", "enumerate"
        )
        assert code == 0
        result = json.loads(out)
        assert result["value"] == 8 and result["enumerated_count"] == 1

    def test_greedy_method(self, capsys):
        code, out, _ = invoke(
            capsys,
            "solve", "--poset", "n", "--n", "5", "--method", "greedy",
            "--trials", "2", "--rng-seed", "1",
        )
        assert code == 0
        result = json.loads(out)
        assert result["exact"] is False and result["value"] <= 10

    def test_greedy_seed_defaults_to_one(self, capsys):
        argv = ("solve", "--poset", "n", "--n", "4", "--method", "greedy", "--trials", "2")
        seeds = ((), ("--rng-seed", "1"))
        results = [json.loads(invoke(capsys, *argv, *seed)[1]) for seed in seeds]
        for result in results:
            result.pop("elapsed_ms", None)
        assert results[0] == results[1]


class TestHasse:
    def test_chain_dot(self, capsys, tmp_path):
        path = tmp_path / "fam.txt"
        path.write_text("{}\n{1}\n{1,2}\n")
        code, out, _ = invoke(capsys, "hasse", "--in", str(path), "--n", "2")
        assert code == 0
        assert out.count("->") == 2
        assert out.startswith("digraph hasse {")


class TestEntryPoint:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "posetsat.cli", "construct", "--family", "n", "--n", "5"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert len(proc.stdout.strip().splitlines()) == 10

    def test_bad_subcommand_exit_two(self):
        proc = subprocess.run(
            [sys.executable, "-m", "posetsat.cli", "frobnicate"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 2


def run_module(*argv):
    return subprocess.run(
        [sys.executable, "-m", "posetsat.cli", *argv], capture_output=True, text=True
    )


class TestInternalErrors:
    """Any other exception exits 3 with one ``internal error:`` line;
    ``--debug`` re-raises it."""

    @pytest.fixture
    def broken_construct(self, monkeypatch):
        def boom(args):
            raise RuntimeError("boom\nsecond line")

        monkeypatch.setattr(cli, "_cmd_construct", boom)

    def test_exit_three_with_one_line(self, capsys, broken_construct):
        code, out, err = invoke(capsys, "construct", "--family", "n", "--n", "4")
        assert code == 3
        assert out == ""
        assert err == "internal error: RuntimeError: boom second line\n"
        assert "Traceback" not in err

    def test_debug_reraises(self, capsys, broken_construct):
        with pytest.raises(RuntimeError, match="boom"):
            run(["--debug", "construct", "--family", "n", "--n", "4"])

    def test_usage_errors_keep_exit_two_under_debug(self, capsys):
        code, _, err = invoke(capsys, "--debug", "construct", "--family", "k2k", "--n", "5")
        assert code == 2
        assert "requires --k" in err


class TestClosedPipe:
    """A reader that closes stdout early, as ``| head`` does, ends the run
    with exit 141 (128 + SIGPIPE) and nothing printed."""

    def test_exit_141_and_stdout_sent_to_null_device(self, capsys, monkeypatch, tmp_path):
        class ClosedPipe:
            def __init__(self, fd):
                self.fd = fd

            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

            def flush(self):
                pass

            def fileno(self):
                return self.fd

        target = tmp_path / "stdout"
        fd = os.open(target, os.O_WRONLY | os.O_CREAT)
        try:
            monkeypatch.setattr(sys, "stdout", ClosedPipe(fd))
            code = run(["construct", "--family", "n", "--n", "4"])
            monkeypatch.undo()
            os.write(fd, b"written after the pipe closed")
        finally:
            os.close(fd)
        assert code == 141
        assert capsys.readouterr() == ("", "")
        assert target.read_bytes() == b""


class TestUsageErrors:
    """Malformed input exits 2 with one ``error:`` line, never a traceback."""

    def assert_usage_error(self, proc):
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("error: ")
        assert proc.stderr.count("\n") == 1

    def test_k2k_selector_needs_integer(self, tmp_path):
        path = tmp_path / "fam.txt"
        path.write_text("{1}\n")
        self.assert_usage_error(run_module("check", "--poset", "k2k:x", "--in", str(path)))

    def test_kkk_selector_needs_integer(self, tmp_path):
        path = tmp_path / "fam.txt"
        path.write_text("{1}\n")
        self.assert_usage_error(run_module("check", "--poset", "kkk:x", "--in", str(path)))

    def test_poset_json_pair_needs_integers(self, tmp_path):
        poset = tmp_path / "q.json"
        poset.write_text('{"size":2,"less":[["a",1]]}')
        fam = tmp_path / "fam.txt"
        fam.write_text("{1}\n")
        self.assert_usage_error(run_module("check", "--poset", str(poset), "--in", str(fam)))

    def assert_poset_too_large(self, selector, tmp_path):
        fam = tmp_path / "fam.txt"
        fam.write_text("{1}\n")
        proc = run_module("check", "--poset", str(selector), "--in", str(fam))
        self.assert_usage_error(proc)
        assert "exceeds the limit of 64 elements" in proc.stderr

    def test_poset_file_above_the_size_limit(self, tmp_path):
        poset = tmp_path / "q.json"
        poset.write_text(json.dumps({"size": 65, "less": [[i, i + 1] for i in range(64)]}))
        self.assert_poset_too_large(poset, tmp_path)

    @pytest.mark.parametrize("selector", ["kkk:33", "k2k:63"])
    def test_bipartite_selector_above_the_size_limit(self, selector, tmp_path):
        self.assert_poset_too_large(selector, tmp_path)

    def test_non_utf8_family_file(self, tmp_path):
        path = tmp_path / "fam.txt"
        path.write_bytes(b"{1}\n\xff\xfe\n")
        self.assert_usage_error(run_module("check", "--poset", "b", "--in", str(path)))

    def test_non_utf8_poset_file(self, tmp_path):
        poset = tmp_path / "q.json"
        poset.write_bytes(b'{"size":2,"less":[[0,1]]}\xff')
        fam = tmp_path / "fam.txt"
        fam.write_text("{1}\n")
        self.assert_usage_error(run_module("check", "--poset", str(poset), "--in", str(fam)))

    @pytest.mark.parametrize("budget", ["nan", "-1"])
    def test_budget_must_be_a_non_negative_number(self, budget):
        self.assert_usage_error(run_module("solve", "--poset", "b", "--n", "3", "--budget", budget))

    @pytest.mark.parametrize("target", ["lemma1", "t2", "t3"])
    def test_strong_applies_only_to_p4(self, target, tmp_path):
        path = tmp_path / "fam.txt"
        path.write_text(format_family(butterfly_construction(4)))
        self.assert_usage_error(run_module("verify", target, "--in", str(path), "--strong"))

    def test_strong_rejected_with_suite(self):
        self.assert_usage_error(run_module("verify", "--suite", "paper", "--strong"))

    @pytest.mark.parametrize(
        "extra",
        [["t2"], ["--in", "@fam"], ["--format", "json"], ["t2", "--in", "@fam", "--format", "tsv"]],
    )
    def test_suite_rejects_target_in_and_format(self, extra, tmp_path):
        path = tmp_path / "fam.txt"
        path.write_text(format_family(butterfly_construction(4)))
        extra = [str(path) if a == "@fam" else a for a in extra]
        self.assert_usage_error(run_module("verify", "--suite", "paper", *extra))

    @pytest.mark.parametrize("method", [[], ["--method", "auto"], ["--method", "enumerate"]])
    def test_trials_rejected_without_greedy(self, method):
        self.assert_usage_error(
            run_module(
                "solve", "--poset", "b", "--n", "2", *method, "--trials", "-5", "--rng-seed", "3"
            )
        )

    def test_rng_seed_rejected_without_suite(self, tmp_path):
        path = tmp_path / "fam.txt"
        path.write_text(format_family(butterfly_construction(4)))
        self.assert_usage_error(run_module("verify", "t2", "--in", str(path), "--rng-seed", "99"))

    @pytest.mark.parametrize("method", [[], ["--method", "auto"], ["--method", "enumerate"]])
    def test_rng_seed_rejected_without_greedy(self, method):
        self.assert_usage_error(
            run_module("solve", "--poset", "b", "--n", "2", *method, "--rng-seed", "99")
        )

    @pytest.mark.parametrize("method", ["greedy", "enumerate"])
    @pytest.mark.parametrize("budget", ["5", "nan", "-1"])
    def test_budget_rejected_with_greedy_or_enumerate(self, method, budget):
        # neither method searches under a deadline, so a budget is refused
        proc = run_module("solve", "--poset", "b", "--n", "3", "--method", method,
                          "--budget", budget)
        self.assert_usage_error(proc)
        assert "budget" in proc.stderr

    def test_unwritable_out_path(self, tmp_path):
        out = str(tmp_path / "missing-dir" / "x")
        self.assert_usage_error(run_module("construct", "--family", "n", "--n", "4", "--out", out))
        self.assert_usage_error(run_module("greedy", "--poset", "b", "--n", "3", "--out", out))
        fam = tmp_path / "fam.txt"
        fam.write_text("{1}\n")
        self.assert_usage_error(run_module("hasse", "--in", str(fam), "--out", out))


# Fixed argv vocabulary; "@name" stands for a file built by the fixture.
# Sizes stay small (n <= 4, no battery) so each run takes milliseconds.
_SUBCOMMANDS = ("construct", "check", "embed", "greedy", "verify", "solve", "hasse", "frobnicate")
_FLAG_VALUES = {
    "--family": ("butterfly", "n", "k2k", "kkk", "x"),
    "--n": ("0", "2", "3", "x", "25"),
    "--k": ("0", "2", "3", "x"),
    "--poset": (
        "b", "n", "k2k:2", "kkk:x", "k2k:x",
        "@poset", "@poset_pair", "@poset_labels", "@poset_bytes", "@missing",
    ),
    "--in": ("@fam_b4", "@fam_n3", "@fam_empty", "@fam_bytes", "@fam_bad_line", "@missing"),
    "--out": ("@out", "@no_dir"),
    "--required": ("{1,2}", "{1}", "{}", "x", "{9}"),
    "--method": ("auto", "enumerate", "greedy", "x"),
    "--budget": ("5", "x", "nan", "-1"),
    "--trials": ("1", "0", "x"),
    "--format": ("json", "tsv", "text", "x"),
    "--suite": ("x",),
    "--rng-seed": ("1", "x"),
    "--fail-fast": None,
    "--strong": None,
}
_TARGETS = ("lemma1", "t2", "t3", "p4", "x")


@pytest.fixture(scope="module")
def cli_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli-fuzz")
    texts = {
        "poset": b'{"size": 3, "less": [[0, 1], [1, 2]]}',
        "poset_pair": b'{"size":2,"less":[["a",1]]}',
        "poset_labels": b'{"size":2,"less":[[0,1]],"labels":[{"a":1},"b"]}',
        "poset_bytes": b'{"size":2,"less":[[0,1]]}\xff',
        "fam_b4": format_family(butterfly_construction(4)).encode(),
        "fam_n3": format_family(n_construction(3)).encode(),
        "fam_empty": b"",
        "fam_bytes": b"{1}\n\xff\n",
        "fam_bad_line": b"{1,\n",
    }
    paths = {}
    for name, data in texts.items():
        paths[name] = root / name
        paths[name].write_bytes(data)
    paths["missing"] = root / "missing"
    paths["out"] = root / "out.txt"
    paths["no_dir"] = root / "no-dir" / "out.txt"
    return {name: str(path) for name, path in paths.items()}


@st.composite
def cli_argv(draw):
    argv = [draw(st.sampled_from(_SUBCOMMANDS))]
    if argv[0] == "verify" and draw(st.booleans()):
        argv.append(draw(st.sampled_from(_TARGETS)))
    for flag in draw(st.lists(st.sampled_from(sorted(_FLAG_VALUES)), max_size=5, unique=True)):
        argv.append(flag)
        if _FLAG_VALUES[flag] is not None:
            argv.append(draw(st.sampled_from(_FLAG_VALUES[flag])))
    return argv


class TestArgvProperty:
    @given(argv=cli_argv())
    @settings(max_examples=150, deadline=None)
    def test_exit_code_and_no_traceback(self, argv, cli_files):
        argv = [cli_files[a[1:]] if a.startswith("@") else a for a in argv]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run(argv)
        assert code in (0, 1, 2)
        assert "Traceback" not in err.getvalue()
        if code == 2:
            assert out.getvalue() == ""
