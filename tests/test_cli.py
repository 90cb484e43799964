import dataclasses
import json
import os
import resource
import subprocess
import sys

import pytest

from conftest import ACCEPTING_MODELS
from sbc.cli import build_parser, main
from sbc.machine import ModelKind
from sbc.pipelines import (
    PIPELINES,
    BlockPlan,
    FormatError,
    PipelineId,
    block_encode,
    build_container,
    decode_container,
    encode_bwt_dc_ac,
    encode_bwt_mtf_rle_ac,
    encode_kth_order,
    encode_st_dc_ac,
    parse_container,
    read_varint,
)

CORPUS = os.path.join(os.path.dirname(__file__), "fixtures", "corpus")
MODELS = ("standard", "multipass", "wstreams", "streamsort", "readwrite")
PKG_ROOT = os.path.join(os.path.dirname(__file__), os.pardir, "src")


def run_cli(args, data=b"", env_extra=None, preexec_fn=None):
    env = dict(os.environ, PYTHONPATH=PKG_ROOT + os.pathsep + os.environ.get("PYTHONPATH", ""))
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "sbc", *args],
        input=data, capture_output=True, env=env, preexec_fn=preexec_fn,
    )


def test_compress_decompress_roundtrip_all_pipelines(tmp_path):
    data = b"the quick onyx goblin jumps over the lazy dwarf" * 20
    for pipeline in ("bwt-mtf-rle-ac", "bwt-dc-ac", "block-kth", "kth-order"):
        comp = run_cli(["compress", "--pipeline", pipeline], data)
        assert comp.returncode == 0, comp.stderr
        out = run_cli(["decompress"], comp.stdout)
        assert out.returncode == 0, out.stderr
        assert out.stdout == data


def test_compress_json_ledger_on_stderr():
    comp = run_cli(["compress", "--pipeline", "kth-order", "--model", "standard", "--json"],
                   b"abracadabra")
    assert comp.returncode == 0
    report = json.loads(comp.stderr.decode().strip().splitlines()[-1])
    assert report["passes"] == 1
    assert report["pipeline"] == "kth-order"
    assert report["size_bits"] == 8 * len(comp.stdout)
    _, _, payload = parse_container(comp.stdout)
    assert report["total_output_bits"] == 8 * len(payload)


def test_host_work_reports_host_stages():
    # Work that ran on no machine reports the host stage, not an all-zero ledger.
    comp = run_cli(["compress", "--pipeline", "kth-order", "--json"], b"abracadabra")
    assert comp.returncode == 0, comp.stderr
    report = json.loads(comp.stderr.decode().strip().splitlines()[-1])
    assert report == {"pipeline": "kth-order", "n": 11, "sigma": 5,
                      "size_bits": 8 * len(comp.stdout), "host_stages": ["kth-order"]}
    dec = run_cli(["decompress", "--json"], comp.stdout)
    assert dec.returncode == 0, dec.stderr
    assert dec.stdout == b"abracadabra"
    assert json.loads(dec.stderr.decode().strip().splitlines()[-1]) == {
        "pipeline": "kth-order", "n": 11, "sigma": 5, "size_bits": 8 * len(comp.stdout),
        "host_stages": ["decode"]}
    sim = run_cli(["simulate", "--algo", "sort-chars", "--json"], b"banana")
    assert sim.returncode == 0, sim.stderr
    assert sim.stdout == b"aaabnn\n"
    assert json.loads(sim.stderr.decode().strip().splitlines()[-1]) == {"host_stages": ["sort-chars"]}
    sim = run_cli(["simulate", "--algo", "sort-numbers", "--json"], b"9 3 7 1")
    assert sim.returncode == 0, sim.stderr
    assert json.loads(sim.stderr.decode().strip().splitlines()[-1]) == {"host_stages": ["sort-numbers"]}


@pytest.mark.parametrize("pipeline, model, host_stages", [
    ("bwt-mtf-rle-ac", "readwrite", None),
    ("bwt-dc-ac", "readwrite", None),
    ("st-dc-ac", "streamsort", ["input-reload"]),
    ("block-kth", "standard", None),
    ("kth-order", "standard", None),
    ("kth-order", "multipass", None),
])
def test_machine_reports_name_host_stages(pipeline, model, host_stages):
    # A machine run names the stages its ledger leaves out, beside the ledger.
    comp = run_cli(["compress", "--pipeline", pipeline, "--model", model, "--json"],
                   b"abracadabra")
    assert comp.returncode == 0, comp.stderr
    report = json.loads(comp.stderr.decode().strip().splitlines()[-1])
    assert report["passes"] >= 1
    assert report.get("host_stages") == host_stages


def test_exit_codes_end_to_end():
    ok = run_cli(["compress", "--pipeline", "bwt-dc-ac"], b"hello")
    assert ok.returncode == 0

    usage = run_cli(["compress", "--pipeline", "no-such-pipeline"], b"hello")
    assert usage.returncode == 1

    fmt = run_cli(["decompress"], b"this is not a container")
    assert fmt.returncode == 2

    budget = run_cli(
        ["compress", "--pipeline", "kth-order", "--model", "standard",
         "--memory-budget-bits", "16"],
        b"hello world hello world",
    )
    assert budget.returncode == 3


def _limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


def test_decompress_out_of_memory_is_resource_error():
    # A bwt-dc-ac header forged to n = 10^9 makes the distance decoder ask
    # for gigabytes at once.  The child's address space is capped at 1 GiB,
    # so that request fails at once instead of being served.
    header, alphabet, payload = parse_container(encode_bwt_dc_ac([0, 1, 2, 1, 0], 3))
    forged = build_container(dataclasses.replace(header, n=10**9), alphabet, payload)
    out = run_cli(["decompress"], forged, preexec_fn=_limit_address_space)
    assert out.returncode == 3, out.stderr
    assert out.stderr.decode().startswith("resource error: ")
    assert out.stdout == b""


# Each subcommand takes --json and --trace only where its handler reads them.
@pytest.mark.parametrize("argv", [
    ["entropy", "--json"],
    ["transform", "--op", "bwt", "--json"],
    ["transform", "--op", "bwt", "--trace"],
    ["adversary", "--sigma", "2", "--k", "2", "--json"],
    ["adversary", "--sigma", "2", "--k", "2", "--trace"],
    ["decompress", "--trace"],
])
def test_unread_report_flags_are_usage_errors(argv, capsys):
    assert main(argv) == 1
    assert "unrecognized arguments" in capsys.readouterr().err


def test_file_arguments_roundtrip(tmp_path):
    src = tmp_path / "f"
    packed = tmp_path / "f.sbc"
    out = tmp_path / "f.out"
    src.write_bytes(b"to be, or not to be" * 50)
    assert run_cli(["compress", "--pipeline", "bwt-dc-ac", str(src), "-o", str(packed)]).returncode == 0
    assert run_cli(["decompress", str(packed), "-o", str(out)]).returncode == 0
    assert out.read_bytes() == src.read_bytes()


def test_declared_sigma():
    comp = run_cli(["compress", "--sigma", "120"], b"abc")
    assert comp.returncode == 0
    assert run_cli(["decompress"], comp.stdout).stdout == b"abc"
    narrow = run_cli(["compress", "--sigma", "2"], b"abc")
    assert narrow.returncode == 2
    assert narrow.stderr.decode().splitlines() == ["input error: symbol 97 out of alphabet"]
    assert run_cli(["compress", "--sigma", "300"], b"abc").returncode == 1


def test_model_pipeline_mismatch_is_usage_error():
    out = run_cli(["compress", "--pipeline", "bwt-mtf-rle-ac", "--model", "streamsort"], b"abc")
    assert out.returncode == 1


@pytest.mark.parametrize("budget", ["0", "-5"])
@pytest.mark.parametrize("argv", [
    ["compress", "--pipeline", "kth-order", "--model", "standard"],
    ["simulate", "--algo", "rw-bwt"],
])
def test_memory_budget_must_be_positive(argv, budget):
    out = run_cli([*argv, "--memory-budget-bits", budget], b"hello")
    assert out.returncode == 1, out.stderr
    assert out.stdout == b""


# The library encoder each pipeline must match, with the CLI's defaults.
LIBRARY = {
    "bwt-mtf-rle-ac": encode_bwt_mtf_rle_ac,
    "bwt-dc-ac": encode_bwt_dc_ac,
    "st-dc-ac": lambda s, sigma, alphabet: encode_st_dc_ac(
        s, sigma, min(4, max(1, len(s)).bit_length()), alphabet),
    "block-kth": lambda s, sigma, alphabet: block_encode(
        s, sigma, BlockPlan.for_length(len(s), 0.5, 0.25), alphabet=alphabet),
    "kth-order": lambda s, sigma, alphabet: encode_kth_order(s, sigma, 2, alphabet),
}


def test_pipeline_table_is_complete():
    assert sorted(p.id for p in PIPELINES.values()) == sorted(PipelineId)
    assert sorted(PIPELINES) == sorted(LIBRARY)
    command = next(a for a in build_parser()._actions if a.dest == "command")
    compress = command.choices["compress"]
    choices = next(a for a in compress._actions if a.dest == "pipeline").choices
    assert sorted(choices) == sorted(PIPELINES)


@pytest.mark.parametrize("name", sorted(LIBRARY))
def test_pipeline_model_matches_library(name, tmp_path, capsys):
    # Every model that the pipeline's stages accept gives the library's
    # container and the home model's ledger and trace; every other model is
    # a usage error that leaves no output file.
    entry = PIPELINES[name]
    home = entry.model.value
    inputs = [open(os.path.join(CORPUS, f), "rb").read() for f in sorted(os.listdir(CORPUS))]
    src, plain, streamed = tmp_path / "in", tmp_path / "plain", tmp_path / "streamed"
    for data in inputs + [b"", b"x"]:
        src.write_bytes(data)
        assert main(["compress", "--pipeline", name, str(src), "-o", str(plain)]) == 0
        alphabet = bytes(sorted(set(data)))
        ranks = [alphabet.index(b) for b in data]
        container = LIBRARY[name](ranks, len(alphabet), alphabet)
        assert plain.read_bytes() == container
        if entry.decode is None:
            with pytest.raises(FormatError):
                decode_container(container)
        else:
            assert decode_container(container)[0] == ranks
        capsys.readouterr()
        assert main(["compress", "--pipeline", name, "--model", home, "--json", "--trace",
                     str(src), "-o", str(streamed)]) == 0
        home_report = capsys.readouterr().err
        for model in MODELS:
            streamed.unlink(missing_ok=True)
            code = main(["compress", "--pipeline", name, "--model", model, "--json", "--trace",
                         str(src), "-o", str(streamed)])
            err = capsys.readouterr().err
            if ModelKind(model) in ACCEPTING_MODELS[name]:
                assert (code, err) == (0, home_report), model
                assert streamed.read_bytes() == container, model
            else:
                assert (code, err) == (1, f"usage error: this stage needs the {home} model, "
                                          f"not {model}\n")
                assert not streamed.exists(), model


@pytest.mark.parametrize("name", sorted(PIPELINES))
def test_model_trace_has_one_line_per_pass(name, tmp_path, capsys):
    entry = PIPELINES[name]
    for fname in sorted(os.listdir(CORPUS)):
        assert main(["compress", "--pipeline", name, "--model", entry.model.value, "--json",
                     "--trace", os.path.join(CORPUS, fname), "-o", str(tmp_path / "out")]) == 0
        *trace, report = capsys.readouterr().err.splitlines()
        passes = json.loads(report)["passes"]
        # Passes are numbered as they close, so the lines read pass=1..passes in order.
        assert [line.split()[0] for line in trace] == [f"pass={i}" for i in range(1, passes + 1)]


def test_st_pipeline_is_encode_only():
    comp = run_cli(["compress", "--pipeline", "st-dc-ac", "--k", "2"], b"banana banana")
    assert comp.returncode == 0
    out = run_cli(["decompress"], comp.stdout)
    assert out.returncode == 2


def test_streamsort_model_compress():
    comp = run_cli(["compress", "--pipeline", "st-dc-ac", "--k", "2",
                    "--model", "streamsort", "--json"], b"mississippi mississippi")
    assert comp.returncode == 0
    report = json.loads(comp.stderr.decode().strip().splitlines()[-1])
    assert report["sort_passes"] >= 1


def test_entropy_report():
    out = run_cli(["entropy"], b"mississippi")
    assert out.returncode == 0
    report = json.loads(out.stdout.decode())
    assert report["n"] == 11 and report["sigma"] == 4
    assert abs(report["h"][0] - 1.8230) < 1e-3
    assert len(report["h"]) == 5


def test_entropy_empty_is_error():
    assert run_cli(["entropy"], b"").returncode == 2


def test_entropy_negative_kmax_is_usage_error():
    out = run_cli(["entropy", "--kmax", "-1"], b"mississippi")
    assert out.returncode == 1, out.stderr
    assert out.stderr.decode().startswith("usage error: ")
    assert b"Traceback" not in out.stderr
    assert out.stdout == b""


def test_transform_bwt_unbwt():
    out = run_cli(["transform", "--op", "bwt"], b"mississippi")
    assert out.returncode == 0
    assert out.stdout == b"ms\xffspipissii"
    back = run_cli(["transform", "--op", "unbwt"], out.stdout)
    assert back.returncode == 0 and back.stdout == b"mississippi"


def test_transform_rejects_reserved_byte():
    assert run_cli(["transform", "--op", "bwt"], b"a\xffb").returncode == 2


# Byte 0xff is the end marker's slot, so the stage that reads it refuses it.
@pytest.mark.parametrize("argv", [
    ["transform", "--op", "bwt"],
    ["transform", "--op", "st", "--k", "1"],
    ["simulate", "--algo", "rw-bwt", "--trace"],
    ["simulate", "--algo", "rw-sa"],
], ids=" ".join)
def test_end_marker_byte_is_refused_before_any_pass(argv, tmp_path, capsys):
    path = tmp_path / "in"
    path.write_bytes(b"a\xffb")
    assert main([*argv, str(path)]) == 2
    out, err = capsys.readouterr()
    assert err == "input error: symbol 255 out of alphabet\n"
    assert "pass=" not in err
    assert out == ""


def test_transform_dc_accepts_byte_ff():
    # Distance coding has no end marker, so 0xff is an ordinary symbol.
    out = run_cli(["transform", "--op", "dc"], b"a\xffb")
    assert out.returncode == 0, out.stderr
    length, pos = read_varint(out.stdout, 0)
    first = []
    for _ in range(256):
        entry, pos = read_varint(out.stdout, pos)
        first.append(entry)
    assert length == 3
    assert first[0xFF] == 2  # first occurrence at position 1, stored plus one


def test_transform_mtf():
    out = run_cli(["transform", "--op", "mtf"], b"aab")
    assert out.returncode == 0
    assert out.stdout == bytes([ord("a"), 0, ord("b")])


def test_transform_st_and_dc_produce_output():
    out = run_cli(["transform", "--op", "st", "--k", "2"], b"mississippi")
    assert out.returncode == 0
    assert sorted(out.stdout) == sorted(b"mississippi" + b"\xff")
    out = run_cli(["transform", "--op", "dc"], b"abab")
    assert out.returncode == 0 and len(out.stdout) > 0


def test_transform_st_beyond_the_string_is_the_bwt():
    # Contexts longer than the string are whole rotations, so the cost must
    # not grow with k.
    out = run_cli(["transform", "--op", "st", "--k", "1000000000"], b"mississippi")
    assert out.returncode == 0, out.stderr
    assert out.stdout == b"ms\xffspipissii"


def test_transform_negative_k_is_usage_error():
    out = run_cli(["transform", "--op", "st", "--k", "-1"], b"mississippi")
    assert out.returncode == 1, out.stderr
    assert out.stdout == b""


def test_simulate_rw_sa():
    out = run_cli(["simulate", "--algo", "rw-sa"], b"ab")
    assert out.returncode == 0
    assert out.stdout.decode().strip() == "0 1 2"


def test_simulate_rw_bwt_final_line():
    out = run_cli(["simulate", "--algo", "rw-bwt"], b"mississippi")
    assert out.returncode == 0
    assert out.stdout.decode().strip().splitlines()[-1] == "ms#spipissii"


def test_simulate_trace_emits_rounds():
    out = run_cli(["simulate", "--algo", "rw-bwt", "--trace"], b"mississippi")
    text = out.stdout.decode()
    lines = [l for l in text.splitlines() if "\t" in l]
    assert len(lines) == 3 * 12  # three rounds of twelve records
    assert all(len(l.split("\t")) == 3 for l in lines)
    # Position, rank and next char, in position order; the last round ranks
    # every record apart, and its next chars in rank order are the transform.
    assert lines[24:] == [
        "0\t6\ti", "1\t2\ts", "2\t9\ts", "3\t11\ti", "4\t4\ts", "5\t10\ts",
        "6\t12\ti", "7\t5\tp", "8\t7\tp", "9\t8\ti", "10\t3\t#", "11\t1\tm",
    ]
    out = run_cli(["simulate", "--algo", "rw-unbwt", "--trace"], b"ms#spipissii")
    text = out.stdout.decode()
    assert text.splitlines()[-1] == "mississippi"
    lines = [l for l in text.splitlines() if "\t" in l]
    assert len(lines) == 4 * 12  # four rounds of twelve records
    # Row, position and char, in row order; a pending position shows as "?".
    pending = [sum(l.split("\t")[1] == "?" for l in lines[r:r + 12]) for r in range(0, 48, 12)]
    assert pending == [10, 8, 4, 0]
    # The last round places every row, and its chars by position spell the string.
    assert lines[36:] == [
        "0\t0\tm", "1\t2\ts", "2\t11\t#", "3\t5\ts", "4\t8\tp", "5\t1\ti",
        "6\t9\tp", "7\t10\ti", "8\t3\ts", "9\t6\ts", "10\t4\ti", "11\t7\ti",
    ]


def test_simulate_sorts():
    out = run_cli(["simulate", "--algo", "sort-chars"], b"cba")
    assert out.stdout.decode().strip() == "abc"
    out = run_cli(["simulate", "--algo", "sort-numbers"], b"9 3 7 1")
    assert out.stdout.decode().strip() == "1 3 7 9"
    # Every byte value: more than 255 distinct pairs.
    out = run_cli(["simulate", "--algo", "sort-chars"], bytes(range(255, -1, -1)))
    assert out.returncode == 0, out.stderr
    rendered = "".join(chr(c) if 33 <= c <= 126 else f"\\x{c:02x}" for c in range(256))
    assert out.stdout.decode() == rendered + "\n"


def test_simulate_rw_roundtrip():
    enc = run_cli(["simulate", "--algo", "rw-bwt"], b"banana")
    image = enc.stdout.decode().strip().splitlines()[-1].encode()
    dec = run_cli(["simulate", "--algo", "rw-unbwt"], image)
    assert dec.stdout.decode().strip().splitlines()[-1] == "banana"


def test_adversary_power_output():
    out = run_cli(["adversary", "--sigma", "2", "--k", "2", "--power", "2"])
    assert out.returncode == 0
    assert out.stdout == b"aabbaabb"
    out = run_cli(["adversary", "--sigma", "256", "--k", "1"])  # the widest alphabet
    assert out.returncode == 0, out.stderr
    assert out.stdout == bytes(range(256))


# The last flag of each command line carries the bad value, so the command never runs.
@pytest.mark.parametrize("argv", [
    ["compress", "--pipeline", "block-kth", "--c", "inf"],
    ["compress", "--pipeline", "block-kth", "--epsilon", "nan"],
    ["bench", "corpus", "--c", "nan"],
    ["bench", "corpus", "--epsilon", "inf"],
    ["adversary", "--experiment", "--n", "4096", "--epsilon", "0.25", "--c", "inf"],
    ["adversary", "--experiment", "--n", "4096", "--c", "0.5", "--epsilon", "nan"],
    ["adversary", "--experiment", "--c", "0.5", "--epsilon", "0.25", "--n", "0"],
    ["adversary", "--experiment", "--c", "0.5", "--epsilon", "0.25", "--n", "1"],
    ["adversary", "--k", "1", "--sigma", "300"],
    ["adversary", "--k", "1", "--sigma", "1"],
    ["adversary", "--sigma", "2", "--k", "0"],
    ["adversary", "--sigma", "2", "--k", "2", "--power", "0"],
    ["compress", "--pipeline", "kth-order", "--k", "-1"],
    ["compress", "--pipeline", "kth-order", "--k", "300"],
    ["compress", "--pipeline", "st-dc-ac", "--k", "300"],
    ["compress", "--pipeline", "kth-order", "--k", "255"],
    ["bench", "corpus", "--k", "-1"],
    ["bench", "corpus", "--k", "255"],
], ids=" ".join)
def test_bad_numeric_flags_are_usage_errors(argv):
    out = run_cli(argv, b"abracadabra")
    assert out.returncode == 1, out.stderr
    assert f"argument {argv[-2]}:" in out.stderr.decode()
    assert b"Traceback" not in out.stderr
    assert out.stdout == b""


# A --k that nothing reads is refused before any input is read, in the words
# of the other flags that have no effect; the input named here does not exist.
K_WITHOUT_A_CONTEXT = [
    (["compress", "--pipeline", "bwt-dc-ac", "--k", "3"], "bwt-dc-ac"),
    (["compress", "--pipeline", "bwt-mtf-rle-ac", "--k", "0", "--model", "readwrite"],
     "bwt-mtf-rle-ac"),
    (["compress", "--pipeline", "block-kth", "--k", "3"], "block-kth"),
    (["transform", "--op", "mtf", "--k", "3"], "mtf"),
    (["transform", "--op", "bwt", "--k", "0"], "bwt"),
    (["transform", "--op", "unbwt", "--k", "1"], "unbwt"),
    (["transform", "--op", "dc", "--k", "2"], "dc"),
]


@pytest.mark.parametrize("argv, name", K_WITHOUT_A_CONTEXT,
                         ids=[" ".join(argv) for argv, _ in K_WITHOUT_A_CONTEXT])
def test_k_that_nothing_reads_is_a_usage_error(argv, name, tmp_path, capsys):
    assert main([*argv, str(tmp_path / "missing")]) == 1
    out, err = capsys.readouterr()
    assert err == f"usage error: --k has no effect: {name} takes no context length\n"
    assert out == ""


# A pair of exponents that are each finite but break 0 < epsilon < c < 1 - epsilon
# is refused before any input is read: the input named here does not exist.
@pytest.mark.parametrize("argv", [
    ["compress", "--pipeline", "block-kth", "--c", "0.5", "--epsilon", "0.5", "MISSING"],
    ["compress", "--pipeline", "kth-order", "--c", "0.5", "--epsilon", "0.5", "MISSING"],
    ["bench", "MISSING", "--c", "0.5", "--epsilon", "0.5"],
    ["adversary", "--experiment", "--n", "4096", "--c", "0.5", "--epsilon", "0.5"],
], ids=" ".join)
def test_bad_exponent_pairs_are_usage_errors(argv, tmp_path, capsys):
    argv = [str(tmp_path / "missing") if a == "MISSING" else a for a in argv]
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert err == "usage error: --c 0.5 and --epsilon 0.5: need 1 - epsilon > c > epsilon > 0\n"
    assert out == ""


# Where no machine runs, the flags only a machine reads are refused before the
# input is read, naming the flag; the input named here does not exist.
MACHINE_FLAGS_WITHOUT_A_MACHINE = [
    (["compress", "--pipeline", "kth-order", "--trace", "--memory-budget-bits", "1"],
     "--trace needs --model"),
    (["compress", "--memory-budget-bits", "1"], "--memory-budget-bits needs --model"),
    (["simulate", "--algo", "sort-chars", "--trace"], "--trace has no effect: sort-chars"),
    (["simulate", "--algo", "sort-numbers", "--memory-budget-bits", "1"],
     "--memory-budget-bits has no effect: sort-numbers"),
]


@pytest.mark.parametrize("argv, message", MACHINE_FLAGS_WITHOUT_A_MACHINE,
                         ids=[" ".join(argv) for argv, _ in MACHINE_FLAGS_WITHOUT_A_MACHINE])
def test_machine_flags_without_a_machine_are_usage_errors(argv, message, tmp_path, capsys):
    assert main([*argv, str(tmp_path / "missing")]) == 1
    out, err = capsys.readouterr()
    assert err.startswith(f"usage error: {message}")
    assert out == ""


OTHER_MODE_FLAGS = [
    (["--sigma", "2", "--k", "3", "--n", "100", "--c", "0.5"], "--n needs --experiment"),
    (["--sigma", "2", "--k", "3", "--epsilon", "0.25"], "--epsilon needs --experiment"),
    (["--experiment", "--n", "4096", "--c", "0.5", "--epsilon", "0.25", "--sigma", "3", "--k", "5",
      "--power", "9"], "--sigma has no effect with --experiment"),
    (["--experiment", "--n", "4096", "--c", "0.5", "--epsilon", "0.25", "--power", "9"],
     "--power has no effect with --experiment"),
]


@pytest.mark.parametrize("argv, message", OTHER_MODE_FLAGS,
                         ids=[" ".join(argv) for argv, _ in OTHER_MODE_FLAGS])
def test_adversary_refuses_the_other_modes_flags(argv, message, tmp_path, capsys):
    output = tmp_path / "out"
    assert main(["adversary", *argv, "-o", str(output)]) == 1
    out, err = capsys.readouterr()
    assert err == f"usage error: {message}\n"
    assert out == "" and not output.exists()


def test_adversary_experiment_json():
    out = run_cli(["adversary", "--experiment", "--n", "4096", "--c", "0.5",
                   "--epsilon", "0.25"])
    assert out.returncode == 0
    report = json.loads(out.stdout.decode())
    assert report["k"] == 8
    assert report["ratio"] > 1


def test_bench_csv(tmp_path):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / "a.txt").write_bytes(b"abracadabra" * 30)
    (corpus / "b.txt").write_bytes(bytes(range(64)) * 4)
    out = run_cli(["bench", str(corpus), "--pipelines", "bwt-dc-ac,kth-order", "--k", "1"])
    assert out.returncode == 0
    lines = out.stdout.decode().strip().splitlines()
    header = lines[0].split(",")
    assert len(header) == 20
    assert lines[0].startswith("file,pipeline,")
    assert header[-1] == "host_stages"
    assert len(lines) == 1 + 2 * 2
    for row in lines[1:]:
        cells = row.split(",")
        assert len(cells) == 20
        # The k the container carries: 255 where the pipeline takes none.
        assert cells[2] == {"bwt-dc-ac": "255", "kth-order": "1"}[cells[1]]
        # The JSON report's host_stages, joined by "+"; empty where none ran.
        assert cells[-1] == ""


def test_bench_reproduces_experiment_sizes(tmp_path):
    import json as _json
    sys.path.insert(0, PKG_ROOT)
    from sbc.adversary import db_power, de_bruijn

    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / "power.bin").write_bytes(bytes(db_power(de_bruijn(2, 8), 16)))
    out = run_cli(["bench", str(corpus), "--pipelines", "block-kth,bwt-dc-ac",
                   "--c", "0.5", "--epsilon", "0.25"])
    assert out.returncode == 0
    rows = out.stdout.decode().strip().splitlines()
    header = rows[0].split(",")
    sizes = {}
    for row in rows[1:]:
        cells = dict(zip(header, row.split(",")))
        sizes[cells["pipeline"]] = int(cells["size_bits"])
    exp = run_cli(["adversary", "--experiment", "--n", "4096", "--c", "0.5",
                   "--epsilon", "0.25"])
    report = _json.loads(exp.stdout.decode())
    assert sizes["block-kth"] == report["size_block_bits"]
    assert sizes["bwt-dc-ac"] == report["size_full_bits"]


def test_bench_skips_an_unrepresentable_file(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / "a.txt").write_bytes(b"abracadabra")
    (corpus / "all.bin").write_bytes(bytes(range(256)))  # 256 distinct bytes
    csv = tmp_path / "bench.csv"
    assert main(["bench", str(corpus), "--pipelines", "bwt-dc-ac,kth-order", "-o", str(csv)]) == 1
    assert capsys.readouterr().err == (
        "warning: skipping all.bin: more than 255 distinct bytes; not representable\n")
    rows = csv.read_text().splitlines()[1:]
    assert [row.split(",")[:2] for row in rows] == [["a.txt", "bwt-dc-ac"], ["a.txt", "kth-order"]]


def test_bench_skips_a_pipeline_that_refuses_a_file(tmp_path, capsys):
    # streamsort_st's key-width guard refuses k = 200; the kth-order row stays.
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / "a.txt").write_bytes(b"abracadabra abracadabra")
    csv = tmp_path / "bench.csv"
    assert main(["bench", str(corpus), "--pipelines", "st-dc-ac,kth-order", "--k", "200",
                 "-o", str(csv)]) == 1
    assert capsys.readouterr().err == (
        "warning: skipping a.txt st-dc-ac: context length too large for a logarithmic key\n")
    rows = csv.read_text().splitlines()[1:]
    assert [row.split(",")[:3] for row in rows] == [["a.txt", "kth-order", "200"]]


def test_bench_empty_corpus(tmp_path):
    corpus = tmp_path / "empty"
    corpus.mkdir()
    out = run_cli(["bench", str(corpus)])
    assert out.returncode == 0
    assert out.stdout.decode().strip().count("\n") == 0  # header only


def test_output_file_atomicity(tmp_path):
    target = tmp_path / "out.bin"
    bad = run_cli(["decompress", "-o", str(target)], b"garbage")
    assert bad.returncode == 2
    assert not target.exists()
    # A failed replace removes its temporary file.
    (tmp_path / "outdir").mkdir()
    before = sorted(os.listdir(tmp_path))
    assert run_cli(["compress", "-o", str(tmp_path / "outdir")], b"abc").returncode == 2
    assert sorted(os.listdir(tmp_path)) == before
    assert os.listdir(tmp_path / "outdir") == []
    # An existing file named like a temporary is left alone.
    (tmp_path / "out.bin.tmp").write_bytes(b"keep")
    assert run_cli(["compress", "-o", str(target)], b"abc").returncode == 0
    assert (tmp_path / "out.bin.tmp").read_bytes() == b"keep"
    assert sorted(os.listdir(tmp_path)) == ["out.bin", "out.bin.tmp", "outdir"]
