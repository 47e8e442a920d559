import json

import pytest

from clawbench.claw import CapacityError, find_claws_sorted
from clawbench.cli import main, planted_claw_problem
from clawbench.walk import check_walk_steps, walk_params


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_cipher_enc_dec_round_trip(capsys):
    code, out, _ = run_cli(capsys, "cipher", "enc", "--block", "CDF5|E8B4",
                           "--master", "B0AEC7E9C3CEE6C3")
    assert code == 0
    assert out.strip() == "BE3A|8ECF"
    code, out, _ = run_cli(capsys, "cipher", "dec", "--block", "BE3A|8ECF",
                           "--master", "B0AEC7E9C3CEE6C3")
    assert code == 0
    assert out.strip() == "CDF5|E8B4"


def test_cipher_subkeys_option(capsys):
    code, out, _ = run_cli(capsys, "cipher", "enc", "--block", "CDF5|E8B4",
                           "--subkeys", "B0AE,C7E9,C3CE,E6C3,05A9,FE40")
    assert code == 0
    assert out.strip() == "BE3A|8ECF"


def test_cipher_input_errors(capsys):
    code, _, err = run_cli(capsys, "cipher", "enc", "--block", "nothex|00",
                           "--master", "B0AEC7E9C3CEE6C3")
    assert code == 3
    code, _, err = run_cli(capsys, "cipher", "enc", "--block", "0000|0000")
    assert code == 3
    code, _, _ = run_cli(capsys, "cipher", "enc", "--block", "0000|0000",
                         "--master", "B0AE")
    assert code == 3


def test_usage_errors_exit_as_input_errors(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["attack", "run", "--retry-bound", "5"])
    assert exc.value.code == 3
    assert "unrecognized arguments: --retry-bound" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        main(["attack", "run", "--backend", "nope"])
    assert exc.value.code == 3
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert "usage: clawbench" in capsys.readouterr().out


def test_keyschedule_report(capsys):
    code, out, _ = run_cli(capsys, "keyschedule",
                           "--master", "B0AEC7E9C3CEE6C3")
    assert code == 0
    report = json.loads(out)
    assert report["subkeys"] == ["B0AE", "C7E9", "C3CE", "E6C3",
                                 "05A9", "FE40"]
    code, out, _ = run_cli(capsys, "keyschedule",
                           "--master", "B0AEC7E9C3CEE6C3",
                           "--z-variant", "standard")
    assert json.loads(out)["subkeys"][4:] == ["05A8", "FE41"]


def test_attack_paper_vectors(capsys):
    code, out, _ = run_cli(capsys, "attack", "run", "--width", "16",
                           "--vectors", "paper")
    assert code == 0
    report = json.loads(out)
    rec = report["recovered"]
    assert [rec[f"K{i}"] for i in range(1, 7)] == [
        "B0AE", "C7E9", "C3CE", "E6C3", "05A9", "FE40"]
    assert rec["K2_prime"] == "1169"
    assert rec["K1_xor_K3"] == "7360"
    assert rec["uniqueness"] == "unique"
    assert report["verified"] is True
    assert report["data_complexity"] == 4
    assert {t["entry"] for t in report["vector_notes"]} >= {
        "plaintext row 2 R1", "ciphertext row 2"}


def test_attack_paper_vectors_no_extra_pair(capsys):
    code, out, _ = run_cli(capsys, "attack", "run", "--width", "16",
                           "--vectors", "paper", "--no-extra-pair")
    assert code == 0
    report = json.loads(out)
    assert report["recovered"]["uniqueness"] == "equivalence-family"
    assert report["data_complexity"] == 3


def test_attack_reports_are_byte_identical(capsys):
    _, out1, _ = run_cli(capsys, "attack", "run", "--width", "8",
                         "--random-seed", "3")
    _, out2, _ = run_cli(capsys, "attack", "run", "--width", "8",
                         "--random-seed", "3")
    assert out1 == out2


def test_attack_pairs_file(tmp_path, capsys):
    pair_file = tmp_path / "pairs.json"
    pair_file.write_text(json.dumps({
        "constant_c": "FFEE",
        "pairs": [
            {"plaintext": "CDF5|E8B4", "ciphertext": "BE3A|8ECF"},
            {"plaintext": "C191|7CDD", "ciphertext": "544D|F9EA"},
            {"plaintext": "D0C4|4EE7", "ciphertext": "63CB|541A"},
        ],
        "extra_pair": {"plaintext": "0000|0000", "ciphertext": "BEDD|19A8"},
    }))
    code, out, _ = run_cli(capsys, "attack", "run", "--width", "16",
                           "--pairs", str(pair_file))
    assert code == 0
    assert json.loads(out)["recovered"]["K1"] == "B0AE"


def test_attack_pairs_file_errors(tmp_path, capsys):
    missing = tmp_path / "nope.json"
    code, _, _ = run_cli(capsys, "attack", "run", "--pairs", str(missing))
    assert code == 3
    malformed = tmp_path / "bad.json"
    malformed.write_text('{"pairs": "what"}')
    code, _, _ = run_cli(capsys, "attack", "run", "--pairs", str(malformed))
    assert code == 3


def test_attack_corrupted_pairs_rejected(tmp_path, capsys):
    pair_file = tmp_path / "pairs.json"
    pair_file.write_text(json.dumps({
        "constant_c": "FFEE",
        "pairs": [
            {"plaintext": "CDF5|E8B4", "ciphertext": "BE3A|8ECF"},
            {"plaintext": "C191|7CDD", "ciphertext": "0000|0000"},
            {"plaintext": "D0C4|4EE7", "ciphertext": "63CB|541A"},
        ],
    }))
    code, _, err = run_cli(capsys, "attack", "run", "--width", "16",
                           "--pairs", str(pair_file))
    assert code == 2


PAPER_PAIRS = [
    {"plaintext": "CDF5|E8B4", "ciphertext": "BE3A|8ECF"},
    {"plaintext": "C191|7CDD", "ciphertext": "544D|F9EA"},
    {"plaintext": "D0C4|4EE7", "ciphertext": "63CB|541A"},
]


def write_pairs(tmp_path, pairs, extra=None):
    pair_file = tmp_path / "pairs.json"
    pair_file.write_text(json.dumps({"constant_c": "FFEE", "pairs": pairs,
                                     "extra_pair": extra}))
    return str(pair_file)


@pytest.mark.parametrize("pairs, extra, message", [
    (PAPER_PAIRS[:2], None, "need exactly 3 rule pairs, got 2"),
    ([{"plaintext": "CDF5|E8B5", "ciphertext": "BE3A|8ECF"}]
     + PAPER_PAIRS[1:], None, "violates the plaintext selection rule"),
    ([PAPER_PAIRS[0]] * 3, None, "distinct L1"),
    # F(0) = 0, so L1 = 0000 with R1 = C satisfies the rule
    (PAPER_PAIRS, {"plaintext": "0000|FFEE", "ciphertext": "0000|0000"},
     "extra pair must violate the selection rule"),
], ids=["two-pairs", "rule-violated", "duplicate-l1", "extra-obeys-rule"])
def test_attack_malformed_pair_set_is_an_input_error(tmp_path, capsys, pairs,
                                                     extra, message):
    code, out, err = run_cli(capsys, "attack", "run", "--pairs",
                             write_pairs(tmp_path, pairs, extra))
    assert code == 3
    assert out == ""
    assert err.startswith("input error: ") and message in err


def test_attack_instance_sources_are_exclusive(tmp_path, capsys):
    pair_file = write_pairs(tmp_path, PAPER_PAIRS)
    for argv in (("--vectors", "paper", "--pairs", pair_file),
                 ("--pairs", pair_file, "--random-seed", "5"),
                 ("--vectors", "paper", "--random-seed", "0")):
        with pytest.raises(SystemExit) as exc:
            main(["attack", "run", *argv])
        assert exc.value.code == 3
        assert "not allowed with argument" in capsys.readouterr().err


def test_attack_extra_pair_flags_apply_to_a_pair_file(tmp_path, capsys):
    extra = {"plaintext": "0000|0000", "ciphertext": "BEDD|19A8"}
    with_extra = write_pairs(tmp_path, PAPER_PAIRS, extra)
    code, out, _ = run_cli(capsys, "attack", "run", "--pairs", with_extra,
                           "--no-extra-pair")
    assert code == 0
    report = json.loads(out)
    assert report["data_complexity"] == 3
    assert report["recovered"]["uniqueness"] == "equivalence-family"
    without_extra = write_pairs(tmp_path, PAPER_PAIRS)
    code, out, err = run_cli(capsys, "attack", "run", "--pairs",
                             without_extra, "--extra-pair")
    assert code == 3
    assert out == ""
    assert "no extra pair" in err


def test_attack_vectors_require_width_16(capsys):
    code, _, _ = run_cli(capsys, "attack", "run", "--width", "8",
                         "--vectors", "paper")
    assert code == 3


def test_sim_grover(capsys):
    code, out, _ = run_cli(capsys, "sim-grover", "--items", "4",
                           "--marked", "2")
    assert code == 0
    report = json.loads(out)
    assert report["iterations"] == 1
    assert report["success_prob_statevector"] == pytest.approx(1.0)
    assert report["success_prob_closed_form"] == pytest.approx(1.0)


def test_sim_grover_rejects_marked_outside_items(capsys):
    for marked in ("--marked=-1", "--marked=9"):
        code, out, err = run_cli(capsys, "sim-grover", "--items", "8", marked)
        assert code == 3
        assert out == ""
        assert "marked indices" in err


def test_sim_grover_rejects_duplicate_marked(capsys):
    code, out, err = run_cli(capsys, "sim-grover", "--items", "8",
                             "--marked", "3,3")
    assert code == 3
    assert out == ""
    assert "marked indices must be distinct" in err


def test_sim_grover_rejects_negative_iterations(capsys):
    code, out, err = run_cli(capsys, "sim-grover", "--items", "8",
                             "--marked", "1", "--iterations", "-1")
    assert code == 3
    assert out == ""
    assert "iterations must be >= 0" in err


def test_sim_grover_capacity_guard(capsys):
    code, _, _ = run_cli(capsys, "sim-grover", "--items", str(1 << 21),
                         "--marked", "0", "--iterations", "1")
    assert code == 4


def test_sim_grover_work_guard(capsys):
    code, out, err = run_cli(capsys, "sim-grover", "--items", "8",
                             "--marked", "1", "--iterations", "1000000000")
    assert code == 4
    assert out == ""
    assert "amplitude updates" in err


def test_sim_clawwalk_collapsed(capsys):
    code, out, _ = run_cli(capsys, "sim-clawwalk", "--bits", "4",
                           "--seed", "0")
    assert code == 0
    report = json.loads(out)
    assert report["sampled_claw"] == report["planted_claw"]
    assert report["norm_drift"] < 1e-12


def test_sim_clawwalk_full_matches_collapsed_success(capsys):
    _, out_c, _ = run_cli(capsys, "sim-clawwalk", "--bits", "3",
                          "--seed", "5", "--mode", "collapsed", "--no-tune")
    _, out_f, _ = run_cli(capsys, "sim-clawwalk", "--bits", "3",
                          "--seed", "5", "--mode", "full", "--no-tune")
    p_c = json.loads(out_c)["success_prob"]
    p_f = json.loads(out_f)["success_prob"]
    assert p_f == pytest.approx(p_c, abs=1e-10)


def test_sim_clawwalk_refuses_bits_before_building_tables(capsys,
                                                          monkeypatch):
    def refuse(*args):
        raise AssertionError("planted tables built before the guard")

    monkeypatch.setattr("clawbench.cli.planted_claw_problem", refuse)
    code, _, err = run_cli(capsys, "sim-clawwalk", "--bits", "13")
    assert code == 4
    assert "u=13 > 12" in err


def test_attack_walk_full_refuses_basis_before_tuning(capsys, monkeypatch):
    monkeypatch.setattr("clawbench.walk.tune_outer_reps", None)
    code, _, err = run_cli(capsys, "attack", "run", "--vectors", "paper",
                           "--backend", "walk-full")
    assert code == 4
    assert len(err.encode()) < 200


def test_scaling_csv(capsys):
    code, out, _ = run_cli(capsys, "scaling", "--min-exp", "6",
                           "--max-exp", "8")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "N,r,t1,t2,outer_reps,queries,success_prob,mode"
    collapsed = [l for l in lines[1:] if l.endswith(",collapsed")]
    baseline = [l for l in lines[1:] if l.endswith(",classical-sorted")]
    assert len(collapsed) == 3
    assert len(baseline) == 3
    n, r, t1, t2, outer, queries, _, _ = collapsed[0].split(",")
    assert int(queries) == 2 * int(r) + int(outer) * (int(t1) + int(t2)) * 2


def test_scaling_classical_row_charges_the_sorted_search(capsys):
    code, out, _ = run_cli(capsys, "scaling", "--min-exp", "6",
                           "--max-exp", "8")
    assert code == 0
    rows = [l.split(",") for l in out.splitlines()
            if l.endswith(",classical-sorted")]
    for u, row in zip(range(6, 9), rows, strict=True):
        problem, _ = planted_claw_problem(u, seed=0)
        assert int(row[0]) == 1 << u
        assert int(row[5]) == find_claws_sorted(problem)[1]


def test_scaling_rejects_an_empty_range(capsys):
    code, out, err = run_cli(capsys, "scaling", "--min-exp", "8",
                             "--max-exp", "6")
    assert code == 3
    assert out == ""
    assert "empty sweep" in err


@pytest.mark.parametrize("multiplier", ["-1", "0", "nan"])
def test_walk_commands_reject_a_multiplier_that_is_not_positive(
        capsys, multiplier):
    for argv in (("scaling", "--min-exp", "6", "--max-exp", "6"),
                 ("sim-clawwalk", "--bits", "4")):
        code, out, err = run_cli(capsys, *argv, "--multiplier", multiplier)
        assert code == 3
        assert out == ""
        assert "multiplier must be positive" in err


def test_scaling_refuses_step_count_before_any_run(capsys, monkeypatch):
    def no_run(*args):
        raise AssertionError("a walk ran before the refusal")

    monkeypatch.setattr("clawbench.cli.CollapsedWalkSim", no_run)
    code, out, err = run_cli(capsys, "scaling", "--min-exp", "6",
                             "--max-exp", "40")
    assert code == 4
    assert out == ""
    assert "steps exceeds guard" in err


def test_scaling_refuses_float_overflow_before_any_run(capsys, monkeypatch):
    def no_run(*args):
        raise AssertionError("a walk ran before the refusal")

    monkeypatch.setattr("clawbench.cli.CollapsedWalkSim", no_run)
    # (2^1100)^2 has no float cube root: walk_params overflows
    code, out, err = run_cli(capsys, "scaling", "--min-exp", "1100",
                             "--max-exp", "1100")
    assert code == 4
    assert out == ""
    assert err.count("\n") == 1
    assert "overflow" in err


def test_walk_step_guard_boundary():
    # u = 29 runs 1,039,014 steps, u = 30 runs 1,648,640
    check_walk_steps(walk_params(1 << 29, 1 << 29))
    with pytest.raises(CapacityError):
        check_walk_steps(walk_params(1 << 30, 1 << 30))


def test_selftest(capsys):
    code, out, _ = run_cli(capsys, "selftest")
    assert code == 0
    assert "FAIL" not in out
