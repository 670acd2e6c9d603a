import pytest

import p5cert as pc
from p5cert.cli import cli_main
from p5cert.harness import FAMILIES


def run_cli(capsys, *args):
    code = cli_main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_gen_partition_prove_verify_run(tmp_path, capsys):
    graph_file = str(tmp_path / "g.graph")
    cert_file = str(tmp_path / "g.certs")

    code, out, _ = run_cli(capsys, "gen", "--family", "cograph", "--n", "12", "--seed", "4", "--out", graph_file)
    assert code == 0 and "p5free=yes" in out

    code, out, _ = run_cli(capsys, "partition", graph_file)
    assert code == 0 and "validation: Valid" in out

    code, out, _ = run_cli(capsys, "prove", graph_file, "--out", cert_file)
    assert code == 0

    code, out, _ = run_cli(capsys, "verify", graph_file, cert_file)
    assert code == 0 and out.strip().splitlines()[-1] == "result: ALL-ACCEPT"

    code, out, _ = run_cli(capsys, "run", graph_file)
    assert code == 0 and "max_bits=" in out

    code, out, _ = run_cli(capsys, "run", graph_file, "--certs", cert_file)
    assert code == 0 and "result: ALL-ACCEPT" in out


def test_gen_p5free_tag_matches_oracle(tmp_path, capsys):
    graph_file = str(tmp_path / "g.graph")
    tags = set()
    for family in FAMILIES:
        for seed in range(3):
            _, out, _ = run_cli(capsys, "gen", "--family", family, "--n", "14", "--p", "0.3", "--seed", str(seed), "--out", graph_file)
            g = pc.parse_graph(open(graph_file).read())
            tag = "p5free=yes" if pc.oracle_is_p5_free(g) else "p5free=no"
            assert tag in out
            tags.add(tag)
    assert tags == {"p5free=yes", "p5free=no"}


def test_gen_deterministic(tmp_path, capsys):
    a, b = str(tmp_path / "a.graph"), str(tmp_path / "b.graph")
    run_cli(capsys, "gen", "--family", "split", "--n", "20", "--seed", "5", "--out", a)
    run_cli(capsys, "gen", "--family", "split", "--n", "20", "--seed", "5", "--out", b)
    assert open(a).read() == open(b).read()


def test_run_p5_graph_rejects(tmp_path, capsys, p5_graph):
    graph_file = tmp_path / "p5.graph"
    graph_file.write_text(pc.write_graph(p5_graph))
    code, out, _ = run_cli(capsys, "run", str(graph_file))
    assert code == 1
    assert "3 reject step=v" in out


def test_verify_truncated_certificates(tmp_path, capsys, p5_graph):
    graph_file = tmp_path / "p5.graph"
    graph_file.write_text(pc.write_graph(p5_graph))
    certs = pc.prove(p5_graph)
    certs[2] = certs[2].slice(0, certs[2].length - 1)
    cert_file = tmp_path / "bad.certs"
    cert_file.write_text(pc.write_certificates(certs))
    # still parses as a file; the verifier rejects with reason malformed
    code, out, _ = run_cli(capsys, "verify", str(graph_file), str(cert_file))
    assert code == 1 and "step=malformed" in out

    cert_file.write_text("1 8 zz\n")
    code, _, err = run_cli(capsys, "verify", str(graph_file), str(cert_file))
    assert code == 2

    # a parseable file that omits vertices is malformed input too
    partial = {v: b for v, b in pc.prove(p5_graph).items() if v != 4}
    cert_file.write_text(pc.write_certificates(partial))
    code, _, err = run_cli(capsys, "verify", str(graph_file), str(cert_file))
    assert code == 2 and "MissingCertificate" in err


def test_run_certificates_for_ids_outside_the_graph(tmp_path, capsys, corpus_graphs):
    # the small graph's own certificates plus lines for ids 6..8, taken from
    # a larger graph's file: malformed input, exit 2, no ratio line
    small = pc.build_graph(5, [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)])
    graph_file = tmp_path / "small.graph"
    graph_file.write_text(pc.write_graph(small))
    big = next(g for _, g in corpus_graphs if g.n >= 8)
    mixed = {**{v: b for v, b in pc.prove(big).items() if 6 <= v <= 8}, **pc.prove(small)}
    cert_file = tmp_path / "mixed.certs"
    cert_file.write_text(pc.write_certificates(mixed))
    for cmd in (["run", str(graph_file), "--certs", str(cert_file)], ["verify", str(graph_file), str(cert_file)]):
        code, out, err = run_cli(capsys, *cmd)
        assert code == 2, (cmd, out, err)
        assert out == "" and "CertificateFormatError" in err and "vertex 6, outside 1..5" in err


def test_malformed_graph_file(tmp_path, capsys):
    bad = tmp_path / "bad.graph"
    bad.write_text("p 3 5\ne 1 2\n")
    code, _, err = run_cli(capsys, "partition", str(bad))
    assert code == 2 and "GraphFormatError" in err


def test_disconnected_graph_precondition(tmp_path, capsys):
    f = tmp_path / "disc.graph"
    f.write_text("p 4 1\ne 1 2\n")
    code, _, err = run_cli(capsys, "run", str(f))
    assert code == 3


def test_prove_failure_exit(tmp_path, capsys):
    f = tmp_path / "p7.graph"
    f.write_text(pc.write_graph(pc.build_graph(7, [(i, i + 1) for i in range(1, 7)])))
    code, _, err = run_cli(capsys, "prove", str(f), "--out", str(tmp_path / "x.certs"))
    assert code == 1


def test_fuzz_command(tmp_path, capsys, p5_graph):
    graph_file = tmp_path / "p5.graph"
    graph_file.write_text(pc.write_graph(p5_graph))
    code, out, _ = run_cli(
        capsys, "fuzz", str(graph_file), "--strategy", "bitflip", "--trials", "20", "--seed", "3"
    )
    assert code == 0 and "SOUNDNESS-FUZZ: PASS(20)" in out


def test_fuzz_precondition_exit(tmp_path, capsys):
    f = tmp_path / "c5.graph"
    f.write_text(pc.write_graph(pc.build_graph(5, [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)])))
    code, _, err = run_cli(capsys, "fuzz", str(f), "--strategy", "bitflip", "--trials", "5", "--seed", "1")
    assert code == 3 and "PreconditionNotP5" in err


def test_measure_command(tmp_path, capsys):
    out_csv = tmp_path / "scaling.csv"
    code, out, _ = run_cli(
        capsys, "measure", "--sizes", "8,16", "--family", "split", "--seed", "2", "--out", str(out_csv)
    )
    assert code == 0
    lines = out_csv.read_text().splitlines()
    assert lines[0] == "n,family,seed,max_cert_bits,ratio"
    assert len(lines) == 3
    code2, out2, _ = run_cli(
        capsys, "measure", "--sizes", "8,16", "--family", "split", "--seed", "2", "--out", str(out_csv)
    )
    assert out_csv.read_text().splitlines() == lines


def _exit_code(capsys, *args):
    with pytest.raises(SystemExit) as exc:
        cli_main(list(args))
    return exc.value.code, capsys.readouterr().err


def test_measure_malformed_sizes_exit_2(tmp_path, capsys):
    out_csv = str(tmp_path / "scaling.csv")
    for sizes in ("4,x", "8,,16", "0", "-4", ""):
        code, err = _exit_code(capsys, "measure", "--sizes", sizes, "--family", "split", "--seed", "2", "--out", out_csv)
        assert code == 2 and f"got {sizes!r}" in err, (sizes, err)
    assert not (tmp_path / "scaling.csv").exists()


def test_malformed_numbers_exit_2(tmp_path, capsys):
    graph_file = str(tmp_path / "g.graph")
    out_csv = str(tmp_path / "scaling.csv")
    gen = ["gen", "--family", "split", "--seed", "1", "--out", graph_file]
    cases = [
        (gen + ["--n", "0"], "--n", "0"),
        (gen + ["--n", "-3"], "--n", "-3"),
        (gen + ["--n", "8.5"], "--n", "8.5"),
        (gen + ["--n", "8", "--p", "1.5"], "--p", "1.5"),
        (gen + ["--n", "8", "--p", "nan"], "--p", "nan"),
        (["measure", "--sizes", "8", "--family", "split", "--seed", "1", "--p", "2", "--out", out_csv], "--p", "2"),
        (["fuzz", graph_file, "--strategy", "bitflip", "--trials", "0", "--seed", "1"], "--trials", "0"),
    ]
    for args, option, bad in cases:
        code, err = _exit_code(capsys, *args)
        assert code == 2 and f"argument {option}:" in err and f"got {bad!r}" in err, (args, err)
    assert not any(tmp_path.iterdir())


def test_generation_budget_exceeded_exit_1(tmp_path, capsys):
    # no graph on 4 or fewer vertices has an induced 5-path
    for args in (
        ["gen", "--family", "with-p5", "--n", "4", "--seed", "1", "--out", str(tmp_path / "g.graph")],
        ["measure", "--sizes", "3", "--family", "with-p5", "--seed", "1", "--out", str(tmp_path / "scaling.csv")],
    ):
        code, out, err = run_cli(capsys, *args)
        assert code == 1 and out == "", (args, out)
        assert err.startswith("error: GenerationBudgetExceeded: no graph with an induced 5-path"), (args, err)
    assert not any(tmp_path.iterdir())


def test_malformed_kk_scheme_exit_2(tmp_path, capsys):
    graph_file = str(tmp_path / "g.graph")
    run_cli(capsys, "gen", "--family", "split", "--n", "10", "--seed", "1", "--out", graph_file)
    for command in (["run", graph_file], ["prove", graph_file, "--out", str(tmp_path / "g.certs")]):
        code, err = _exit_code(capsys, *command, "--scheme", "kk:x")
        assert code == 2 and "'kk:x'" in err, (command, err)
    # a well-formed k below 3 is still a semantic reject
    code, _, err = run_cli(capsys, "run", graph_file, "--scheme", "kk:2")
    assert code == 1 and "ValueError" in err


def test_unknown_scheme_exit_2(tmp_path, capsys):
    graph_file = str(tmp_path / "g.graph")
    cert_file = str(tmp_path / "g.certs")
    run_cli(capsys, "gen", "--family", "split", "--n", "10", "--seed", "1", "--out", graph_file)
    run_cli(capsys, "prove", graph_file, "--out", cert_file)
    for command in (["run", graph_file], ["prove", graph_file, "--out", cert_file], ["verify", graph_file, cert_file]):
        for name in ("foo", "P5", "kk", ""):
            code, err = _exit_code(capsys, *command, "--scheme", name)
            assert code == 2 and f"unknown scheme {name!r}" in err, (command, name, err)


def test_scheme_selection(tmp_path, capsys):
    graph_file = str(tmp_path / "g.graph")
    run_cli(capsys, "gen", "--family", "split", "--n", "10", "--seed", "1", "--out", graph_file)
    for scheme_name in ("p5", "universal-p5", "stree-n", "kk:3"):
        code, out, _ = run_cli(capsys, "run", graph_file, "--scheme", scheme_name)
        # split graphs can contain triangles, so kk:3 may reject; others accept
        if scheme_name == "kk:3":
            assert code in (0, 1)
        else:
            assert code == 0, (scheme_name, out)


def test_library_parity_with_cli(tmp_path, capsys, p5_graph):
    # the CLI is a thin wrapper: identical bytes to library calls
    graph_file = tmp_path / "p5.graph"
    graph_file.write_text(pc.write_graph(p5_graph))
    cert_file = tmp_path / "p5.certs"
    run_cli(capsys, "prove", str(graph_file), "--out", str(cert_file))
    assert cert_file.read_text() == pc.write_certificates(pc.prove(p5_graph))
