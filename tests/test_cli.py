"""Command line contract: report schema, determinism, exit codes."""

import json
from pathlib import Path

import numpy as np
import pytest

from bvattack.boolfn import BooleanFunction, save_function
from bvattack.cli import main
from bvattack.experiments import example_quadratic, inner_product_function


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, (json.loads(out) if out else None)


@pytest.fixture()
def quad_file(tmp_path):
    path = tmp_path / "quad.txt"
    save_function(path, example_quadratic())
    return str(path)


@pytest.fixture()
def em_file(tmp_path, capsys):
    path = tmp_path / "em.txt"
    code, _ = run(capsys, "gen-cipher", "--kind", "even-mansour", "--n", "6",
                  "--seed", "50", "--out", str(path))
    assert code == 0
    return str(path)


@pytest.fixture()
def toy_file(tmp_path, capsys):
    path = tmp_path / "toy.txt"
    code, _ = run(capsys, "gen-cipher", "--kind", "toy", "--n", "4",
                  "--seed", "51", "--preset", "weak", "--out", str(path))
    assert code == 0
    return str(path)


def file_keys(path):
    for line in open(path):
        if line.startswith("keys "):
            return {k: int(v, 0) for k, v in
                    (tok.split("=") for tok in line.split()[1:])}
    return {}


# --- report contract -----------------------------------------------------------


def test_report_shape_and_order(capsys, quad_file):
    code = main(["spectrum", quad_file])
    out = capsys.readouterr().out
    assert code == 0
    assert out.startswith('{\n  "schema": "bvattack/1"')
    assert out.endswith("}\n")
    rep = json.loads(out)
    assert list(rep) == ["schema", "invocation", "result"]
    assert rep["invocation"]["subcommand"] == "spectrum"
    assert rep["result"]["coefficients"] == [0, 4, 0, 4, 0, 4, 0, -4]
    assert rep["result"]["parseval_ok"] is True


def test_spectrum_uniformity_profile(capsys, quad_file):
    code, rep = run(capsys, "spectrum", quad_file)
    assert code == 0
    res = rep["result"]
    assert res["differential_uniformity"] == "1"
    assert res["structure_free_uniformity"] == "1/2"
    assert res["structures"] == {"zero": [0], "one": [1]}


def test_spectrum_rejects_vector_file(tmp_path, capsys):
    from bvattack.boolfn import VectorFunction
    path = tmp_path / "vec.txt"
    save_function(path, VectorFunction(2, 2, np.arange(4)))
    assert main(["spectrum", str(path)]) == 2


def _parseval_ok(monkeypatch, capsys, tmp_path, n, tamper=None):
    """spectrum's Parseval readout on a random n-bit function, with the
    spectrum the CLI sees edited in place by tamper."""
    import bvattack.cli as cli
    from bvattack.boolfn import WalshSpectrum, random_boolean_function, walsh_spectrum
    from bvattack.rng import seeded_rng

    def tampered(f):
        c = walsh_spectrum(f).coeffs.copy()
        tamper(c)
        return WalshSpectrum(f.n, c)

    if tamper is not None:
        monkeypatch.setattr(cli, "walsh_spectrum", tampered)
    table = random_boolean_function(n, seeded_rng(n, 12)).table.copy()
    table[0] ^= table.sum() & 1  # even weight, so some coefficients are 0
    path = tmp_path / f"f{n}.txt"
    save_function(path, BooleanFunction(n, table))
    code, rep = run(capsys, "spectrum", str(path))
    assert code == 0
    return rep["result"]["parseval_ok"]


@pytest.mark.parametrize("n", [1, 13, 15])
def test_spectrum_parseval_exact(monkeypatch, capsys, tmp_path, n):
    # 2^13 and 2^15 coefficients fall on either side of one 2^14-term row
    assert _parseval_ok(monkeypatch, capsys, tmp_path, n) is True


@pytest.mark.parametrize("n", [1, 13, 15])
def test_spectrum_parseval_catches_tampering(monkeypatch, capsys, tmp_path, n):
    def bump(c):
        c[-1] += 2

    def huge(c):
        # on a zero coefficient: the square wraps to 0 in int64, leaving the sum at 4^n
        c[np.flatnonzero(c == 0)[0]] = 1 << 40

    assert _parseval_ok(monkeypatch, capsys, tmp_path, n, bump) is False
    assert _parseval_ok(monkeypatch, capsys, tmp_path, n, huge) is False


def test_lsfind_reports_structure(capsys, quad_file):
    code, rep = run(capsys, "lsfind", quad_file, "--seed", "3")
    assert code == 0
    assert rep["result"]["found"] is True
    assert rep["result"]["smallest_candidate"] == [1, 1]
    assert rep["queries"] == {"quantum": 12, "classical": 0}


def test_lsfind_no_structure_exits_one(tmp_path, capsys):
    path = tmp_path / "bent.txt"
    save_function(path, inner_product_function(6))
    code, rep = run(capsys, "lsfind", path.as_posix(), "--seed", "4")
    assert code == 1
    assert rep["result"]["found"] is False


def test_lsfind_vector_report_charges_only_the_sampled_components(tmp_path, capsys):
    from bvattack.boolfn import VectorFunction

    # components x1 x2, x1 x2 + x3 x4 (bent: the search halts there), x1 x2
    x = np.arange(16)
    c1 = (x >> 3) & (x >> 2) & 1
    c2 = c1 ^ ((x >> 1) & x & 1)
    path = tmp_path / "vec.txt"
    save_function(path, VectorFunction(4, 3, (c1 << 2) | (c2 << 1) | c1))
    code, rep = run(capsys, "lsfind", str(path), "--p", "32", "--seed", "3")
    assert code == 1
    assert [c["trivial"] for c in rep["result"]["components"]] == [False, True]
    assert rep["queries"] == {"quantum": 64, "classical": 0}


def test_sample_counts_beyond_the_draw_budget_exit_two(capsys, quad_file, toy_file,
                                                       monkeypatch):
    from bvattack import bv

    class NoDraws:
        def integers(self, *args, **kwargs):
            raise AssertionError("draws allocated before the budget check")

        def choice(self, *args, **kwargs):
            raise AssertionError("pairs allocated before the budget check")

    real_rng = bv.seeded_rng
    monkeypatch.setattr(bv, "seeded_rng", lambda *key: NoDraws())
    assert main(["lsfind", quad_file, "--p", "10000000000", "--seed", "1"]) == 2
    assert "budget" in capsys.readouterr().err
    # p = n^3 l^2 q^2 = 64 * 100 * 10^4 > MAX_DRAWS
    assert main(["attack-smallprob", toy_file, "--seed", "1", "--q", "100",
                 "--l", "10"]) == 2
    assert "budget" in capsys.readouterr().err
    monkeypatch.setattr(bv, "seeded_rng", real_rng)
    from bvattack import attacks

    monkeypatch.setattr(attacks, "seeded_rng", lambda *key: NoDraws())
    assert main(["attack-diff", toy_file, "--seed", "1", "--q", "2",
                 "--pairs", str(bv.MAX_DRAWS + 1)]) == 2
    assert "budget" in capsys.readouterr().err


def test_over_budget_pairs_exit_two_on_a_no_answer(capsys, tmp_path):
    # the pair count is checked before the search, not only once it answers Yes
    from bvattack.bv import MAX_DRAWS

    path = str(tmp_path / "strong.txt")
    assert run(capsys, "gen-cipher", "--kind", "toy", "--n", "5", "--seed", "1",
               "--preset", "strong", "--out", path)[0] == 0
    for argv in (["attack-diff", path, "--seed", "1", "--q", "2"],
                 ["attack-impossible", path, "--seed", "1"]):
        assert run(capsys, *argv)[0] == 1
        assert main(argv + ["--pairs", str(MAX_DRAWS + 1)]) == 2
        assert "pair count" in capsys.readouterr().err


def test_zero_pairs_exit_two_whatever_the_search_answers(capsys, toy_file, tmp_path):
    # a weak cipher's search answers Yes and a strong one's No; both are refused
    strong = str(tmp_path / "strong.txt")
    assert run(capsys, "gen-cipher", "--kind", "toy", "--n", "4", "--seed", "3",
               "--preset", "strong", "--out", strong)[0] == 0
    for path in (toy_file, strong):
        assert main(["attack-diff", path, "--seed", "1", "--q", "2", "--pairs", "0"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "at least one plaintext pair" in err


def test_missing_file_exits_two(capsys):
    assert main(["lsfind", "/nonexistent/f.txt", "--seed", "1"]) == 2
    assert main(["attack-em", "/nonexistent/c.txt", "--seed", "1"]) == 2


# --- attack flows ----------------------------------------------------------------


def test_em_attack_flow(capsys, em_file):
    code, rep = run(capsys, "attack-em", em_file, "--seed", "52")
    assert code == 0
    keys = file_keys(em_file)
    assert rep["result"]["k1"] == keys["k1"]
    assert rep["result"]["k2"] == keys["k2"]
    assert rep["queries"]["quantum"] == 36
    assert rep["queries"]["classical"] == 1


def test_attack_em_rejects_other_kinds(capsys, toy_file):
    assert main(["attack-em", toy_file, "--seed", "1"]) == 2


def test_malformed_cipher_files_exit_two(capsys, tmp_path, monkeypatch):
    from bvattack.ciphers import ToyCipher, ToyCipherPublic, save_cipher

    def unreachable(self):
        raise AssertionError("keyed family built before the width check")

    monkeypatch.setattr(ToyCipherPublic, "reduced_encrypt_all_keys", unreachable)
    no_shape = tmp_path / "em.txt"
    no_shape.write_text("cipher even-mansour n=2\ntable etable n=2\n0 1 2 3\n")
    assert main(["attack-em", str(no_shape), "--seed", "1"]) == 2
    no_r = tmp_path / "toy.txt"
    no_r.write_text("cipher toy n=2\n" + "".join(
        f"table {name} m=2 n=2\n0 1 2 3\n" for name in ("sbox", "last_sbox", "etable")))
    assert main(["attack-impossible", str(no_r), "--seed", "1"]) == 2
    # a valid n=5 file whose header claims 5 rounds: a 25-bit keyed family
    wide = tmp_path / "wide.txt"
    save_cipher(wide, ToyCipher.generate(5, seed=51))
    text = wide.read_text()
    assert text.startswith("cipher toy n=5 r=3 ")
    wide.write_text(text.replace(" r=3 ", " r=5 ", 1))
    assert main(["attack-impossible", str(wide), "--seed", "1"]) == 2
    err = capsys.readouterr().err
    assert err.count("error:") == 3 and "n * rounds" in err


def test_attack_em_reads_the_file_as_an_even_mansour_cipher(capsys, tmp_path):
    """An even-mansour file whose perm is no bijection, or whose header n is
    not its tables' width, exits 2 with no report."""
    path = tmp_path / "em.txt"
    assert main(["gen-cipher", "--kind", "even-mansour", "--n", "4", "--seed", "50",
                 "--out", str(path)]) == 0
    capsys.readouterr()
    text = path.read_text()
    perm = text.split("table perm m=4 n=4\n")[1].split("\n")[0]
    zero = tmp_path / "zero_perm.txt"
    zero.write_text(text.replace(perm, " ".join(["0"] * 16), 1))
    wide = tmp_path / "n9.txt"
    wide.write_text(text.replace(" n=4", " n=9", 1))  # the header's n only
    for bad, message in ((zero, "perm must be a bijection"), (wide, "perm maps 4 to 4 bits")):
        assert main(["attack-em", str(bad), "--seed", "52"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and message in err, bad.name


def test_toy_attacks_reject_mismatched_etable(capsys, tmp_path, monkeypatch, toy_file):
    from bvattack.ciphers import ToyCipher, ToyCipherPublic, save_cipher

    def unreachable(self):
        raise AssertionError("keyed family built before the etable check")

    monkeypatch.setattr(ToyCipherPublic, "reduced_encrypt_all_keys", unreachable)
    # the etable section of an n=5 toy file spliced into the n=4 one
    wide = tmp_path / "wide.txt"
    save_cipher(wide, ToyCipher.generate(5, seed=51))
    head = Path(toy_file).read_text().split("table etable")[0]
    spliced = tmp_path / "spliced.txt"
    spliced.write_text(head + "table etable" + wide.read_text().split("table etable")[1])
    for argv in (["attack-diff", "--q", "2"], ["attack-smallprob", "--q", "2", "--l", "2"],
                 ["attack-impossible"]):
        assert main([argv[0], str(spliced), "--seed", "1", *argv[1:]]) == 2
    assert capsys.readouterr().err.count("etable maps 5 to 5 bits") == 3


def test_diff_attack_flow(capsys, toy_file):
    code, rep = run(capsys, "attack-diff", toy_file, "--seed", "53", "--q", "4")
    assert code == 0
    assert rep["result"]["a"] == 3 and rep["result"]["alpha"] == 3
    assert rep["result"]["recovered_last_key"] == file_keys(toy_file)["s"]
    assert len(rep["result"]["counts"]) == 16


def test_smallprob_attack_flow(capsys, toy_file):
    code, rep = run(capsys, "attack-smallprob", toy_file,
                    "--seed", "54", "--q", "2", "--l", "2")
    assert code == 0
    assert rep["result"]["recovered_last_key"] == file_keys(toy_file)["s"]
    assert rep["result"]["target_diff"] == 12
    assert rep["result"]["rates"][file_keys(toy_file)["s"]] == "0"


def test_impossible_attack_flow(capsys, toy_file):
    code, rep = run(capsys, "attack-impossible", toy_file, "--seed", "55")
    assert code == 0
    assert rep["result"]["certificate"]["a"] == 3
    assert rep["result"]["certificate_valid"] is True
    assert file_keys(toy_file)["s"] in rep["result"]["alive"]


def test_challenge_file_attack(tmp_path, capsys, toy_file):
    chal = tmp_path / "chal.txt"
    code, _ = run(capsys, "gen-cipher", "--kind", "toy", "--n", "4",
                  "--seed", "51", "--preset", "weak", "--challenge",
                  "--out", str(chal))
    assert code == 0
    assert file_keys(chal) == {}
    code, rep = run(capsys, "attack-diff", str(chal), "--seed", "53", "--q", "4")
    assert code == 0
    # same generation seed as the open file: recovered key must match it
    assert rep["result"]["recovered_last_key"] == file_keys(toy_file)["s"]


def test_distinguish_single_and_multi(capsys):
    code, rep = run(capsys, "distinguish-feistel", "--n", "5",
                    "--target", "feistel", "--seed", "57")
    assert code == 0 and rep["result"]["verdict"] is True
    code, rep = run(capsys, "distinguish-feistel", "--n", "5",
                    "--target", "feistel", "--seed", "57", "--trials", "10")
    assert code == 0
    assert rep["result"]["yes"] == 10
    assert rep["queries"]["quantum"] == 10 * 5 * 6


def test_distinguish_random_target_says_no(capsys):
    code, rep = run(capsys, "distinguish-feistel", "--n", "3",
                    "--target", "random", "--seed", "58")
    assert code == 1
    assert rep["result"]["verdict"] is False
    code, rep = run(capsys, "distinguish-feistel", "--n", "3",
                    "--target", "random", "--seed", "58", "--trials", "20")
    assert code == 0
    assert rep["result"]["yes"] <= 2


# --- determinism and output routing ------------------------------------------------


def test_byte_identical_reports(tmp_path, capsys, toy_file):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for out in (a, b):
        code = main(["attack-diff", toy_file, "--seed", "53",
                     "--q", "4", "--out", str(out)])
        assert code == 0
        assert capsys.readouterr().out == ""  # --out keeps stdout clean
    assert a.read_bytes() == b.read_bytes()


def test_out_matches_stdout(tmp_path, capsys, quad_file):
    code, rep = run(capsys, "spectrum", quad_file)
    out_file = tmp_path / "r.json"
    main(["spectrum", quad_file, "--out", str(out_file)])
    capsys.readouterr()
    assert json.loads(out_file.read_text()) == rep


def test_no_threads_flag(capsys, em_file, toy_file):
    # execution is sequential: no subcommand takes a worker count or records one
    runs = [["distinguish-feistel", "--n", "3", "--target", "feistel", "--seed", "1"],
            ["attack-em", em_file, "--seed", "52"],
            ["attack-diff", toy_file, "--seed", "53", "--q", "4"],
            ["attack-smallprob", toy_file, "--seed", "54", "--q", "2", "--l", "2"],
            ["attack-impossible", toy_file, "--seed", "55"],
            ["verify-theorems", "--which", "T5", "--seed", "7", "--n", "4", "--trials", "30"]]
    for argv in runs:
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--threads", "4"])
        assert exc.value.code == 2
        capsys.readouterr()
        code, rep = run(capsys, *argv)
        assert code == 0
        assert "threads" not in rep["invocation"]["params"], argv[0]


# --- verify-theorems and gen-cipher --------------------------------------------------


def test_verify_theorems_cli(capsys):
    code, rep = run(capsys, "verify-theorems", "--which", "T5", "--seed", "7",
                    "--trials", "30")
    assert code == 0
    assert rep["result"]["passed"] is True
    exp = rep["result"]["experiments"][0]
    assert exp["which"] == "T5"
    assert all(c["passed"] for c in exp["checks"])


def test_verify_theorems_flag_conflicts(capsys, tmp_path):
    assert main(["verify-theorems", "--which", "all", "--seed", "1", "--n", "4"]) == 2
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"which": "T5", "seed": 3, "trials": 30}))
    assert main(["verify-theorems", "--config", str(cfg), "--seed", "1",
                 "--which", "T5"]) == 2
    code, rep = run(capsys, "verify-theorems", "--config", str(cfg), "--seed", "1")
    assert code == 0
    assert rep["result"]["experiments"][0]["config"]["seed"] == 3


def test_verify_theorems_strong_toy_too_narrow_exits_2():
    for n in ("1", "2"):
        assert main(["verify-theorems", "--which", "T2", "--variant", "strong-toy",
                     "--n", n, "--trials", "30", "--seed", "1"]) == 2


def test_verify_theorems_params_echo_the_config(capsys, tmp_path):
    # the config's seed, z and variant ran, so the params record them, not the flags
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"which": "T5", "seed": 3, "trials": 30, "z": 0.5}))
    code, rep = run(capsys, "verify-theorems", "--config", str(cfg), "--seed", "1")
    assert code == 0
    ran = rep["result"]["experiments"][0]["config"]
    params = rep["invocation"]["params"]
    assert (params["seed"], params["z"], params["variant"]) == (3, 0.5, "default")
    assert (params["seed"], params["z"], params["variant"]) == (
        ran["seed"], ran["z"], ran["variant"])


def test_verify_theorems_rejects_malformed_config(capsys, tmp_path):
    cfg = tmp_path / "c.json"
    for raw in ({"which": ["T5"], "seed": 1}, {"which": "T5", "seed": None},
                {"which": "T5", "seed": 1, "n": 6.7}):
        cfg.write_text(json.dumps(raw))
        assert main(["verify-theorems", "--config", str(cfg), "--seed", "1"]) == 2
    assert capsys.readouterr().err.count("error:") == 3
    assert main(["verify-theorems", "--which", "T2", "--variant", "bogus", "--seed", "1"]) == 2
    assert "unknown variant" in capsys.readouterr().err


def test_verify_theorems_rejects_non_finite_or_negative_z(capsys, tmp_path):
    for z in ("nan", "inf", "-1"):
        assert main(["verify-theorems", "--which", "T5", "--seed", "1", "--z", z]) == 2
    cfg = tmp_path / "c.json"
    cfg.write_text('{"which": "T5", "seed": 1, "z": 1e999}')
    assert main(["verify-theorems", "--config", str(cfg), "--seed", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("z must be") == 4


def test_gen_cipher_guards(capsys, tmp_path):
    out = str(tmp_path / "x.txt")
    assert main(["gen-cipher", "--kind", "feistel3", "--n", "13",
                 "--seed", "1", "--out", out]) == 2
    assert main(["gen-cipher", "--kind", "toy", "--n", "9", "--seed", "1",
                 "--rounds", "3", "--out", out]) == 2
    assert main(["gen-cipher", "--kind", "toy", "--n", "4", "--seed", "1",
                 "--rounds", "1", "--out", out]) == 2


def test_gen_cipher_rejects_widths_below_one_without_writing(capsys, tmp_path):
    for kind in ("toy", "feistel3", "even-mansour"):
        for n in ("0", "-1"):
            out = tmp_path / f"{kind}{n}.cipher"
            assert main(["gen-cipher", "--kind", kind, "--n", n, "--seed", "1",
                         "--out", str(out)]) == 2
            captured = capsys.readouterr()
            assert captured.out == "" and "must be in [1, 24]" in captured.err
            assert not out.exists()


def test_width_and_trial_guards_exit_two(capsys, tmp_path):
    for argv in (["distinguish-feistel", "--n", "13", "--target", "feistel", "--seed", "1"],
                 ["distinguish-feistel", "--n", "4", "--target", "feistel", "--seed", "1",
                  "--trials", "0"]):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: ")
    out = tmp_path / "em.cipher"
    assert main(["gen-cipher", "--kind", "even-mansour", "--n", "21", "--seed", "1",
                 "--out", str(out)]) == 2
    assert "too wide" in capsys.readouterr().err and not out.exists()


def test_gen_cipher_checks_toy_width_before_building_tables(capsys, tmp_path, monkeypatch):
    from bvattack import ciphers

    def unreachable(*args, **kwargs):
        raise AssertionError("toy tables built before the width check")

    for builder in ("weak_sbox", "random_permutation"):
        monkeypatch.setattr(ciphers, builder, unreachable)
    assert main(["gen-cipher", "--kind", "toy", "--n", "9", "--seed", "1",
                 "--rounds", "3", "--out", str(tmp_path / "x.txt")]) == 2
    assert "n * rounds" in capsys.readouterr().err
    assert main(["gen-cipher", "--kind", "toy", "--n", "22", "--seed", "1",
                 "--rounds", "1", "--out", str(tmp_path / "x.txt")]) == 2
    assert "keyed round" in capsys.readouterr().err


def test_gen_cipher_report(capsys, tmp_path):
    out = tmp_path / "t.txt"
    code, rep = run(capsys, "gen-cipher", "--kind", "toy", "--n", "4",
                    "--seed", "9", "--out", str(out))
    assert code == 0
    assert rep["result"]["secrets_included"] is True
    assert rep["invocation"]["params"]["preset"] == "weak"
    from bvattack.ciphers import load_cipher
    assert load_cipher(out).params["seed"] == 9


def test_gen_cipher_default_out_name(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, rep = run(capsys, "gen-cipher", "--kind", "even-mansour",
                    "--n", "4", "--seed", "7")
    assert code == 0
    assert rep["result"]["written"] == "even-mansour-n4-seed7.cipher"
    assert (tmp_path / "even-mansour-n4-seed7.cipher").exists()
