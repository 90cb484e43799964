import dataclasses
import json
import os
import resource
import subprocess
import sys

import pytest

from sbc.cli import build_parser, main
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
    assert run_cli(["compress", "--sigma", "2"], b"abc").returncode == 2
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
def test_pipeline_model_matches_library(name, tmp_path):
    entry = PIPELINES[name]
    inputs = [open(os.path.join(CORPUS, f), "rb").read() for f in sorted(os.listdir(CORPUS))]
    src, plain, streamed = tmp_path / "in", tmp_path / "plain", tmp_path / "streamed"
    for data in inputs + [b"", b"x"]:
        src.write_bytes(data)
        assert main(["compress", "--pipeline", name, str(src), "-o", str(plain)]) == 0
        assert main(["compress", "--pipeline", name, "--model", entry.model.value,
                     str(src), "-o", str(streamed)]) == 0
        alphabet = bytes(sorted(set(data)))
        ranks = [alphabet.index(b) for b in data]
        container = LIBRARY[name](ranks, len(alphabet), alphabet)
        assert plain.read_bytes() == streamed.read_bytes() == container
        if entry.decode is None:
            with pytest.raises(FormatError):
                decode_container(container)
        else:
            assert decode_container(container)[0] == ranks
    for model in MODELS:
        if model != entry.model.value:
            assert main(["compress", "--pipeline", name, "--model", model,
                         str(src), "-o", str(streamed)]) == 1


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


def test_transform_bwt_unbwt():
    out = run_cli(["transform", "--op", "bwt"], b"mississippi")
    assert out.returncode == 0
    assert out.stdout == b"ms\xffspipissii"
    back = run_cli(["transform", "--op", "unbwt"], out.stdout)
    assert back.returncode == 0 and back.stdout == b"mississippi"


def test_transform_rejects_reserved_byte():
    assert run_cli(["transform", "--op", "bwt"], b"a\xffb").returncode == 2


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
    # env alias behaves like the flag
    out2 = run_cli(["simulate", "--algo", "rw-bwt"], b"mississippi",
                   env_extra={"SBC_TRACE": "1"})
    assert out2.stdout == out.stdout


def test_simulate_sorts():
    out = run_cli(["simulate", "--algo", "sort-chars"], b"cba")
    assert out.stdout.decode().strip() == "abc"
    out = run_cli(["simulate", "--algo", "sort-numbers"], b"9 3 7 1")
    assert out.stdout.decode().strip() == "1 3 7 9"


def test_simulate_rw_roundtrip():
    enc = run_cli(["simulate", "--algo", "rw-bwt"], b"banana")
    image = enc.stdout.decode().strip().splitlines()[-1].encode()
    dec = run_cli(["simulate", "--algo", "rw-unbwt"], image)
    assert dec.stdout.decode().strip().splitlines()[-1] == "banana"


def test_adversary_power_output():
    out = run_cli(["adversary", "--sigma", "2", "--k", "2", "--power", "2"])
    assert out.returncode == 0
    assert out.stdout == b"aabbaabb"


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
    assert len(header) == 19
    assert lines[0].startswith("file,pipeline,")
    assert len(lines) == 1 + 2 * 2
    for row in lines[1:]:
        assert len(row.split(",")) == 19


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
