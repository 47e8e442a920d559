import dataclasses
import json

import pytest

from clawbench.claw import CapacityError, find_claws_sorted
from clawbench.cli import main, planted_claw_problem
from clawbench.walk import (WalkParams, check_walk_steps, claw_walk_sample,
                            ledger_law, walk_expected_queries, walk_params)


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
    code, _, _ = run_cli(capsys, "cipher", "enc", "--block", "0000|0000",
                         "--master", "B0AE")
    assert code == 3
    code, _, err = run_cli(capsys, "cipher", "enc", "--width", "8",
                           "--block", "00|00", "--subkeys", "1,2")
    assert code == 3
    assert "need 6 subkeys" in err


def test_cipher_takes_exactly_one_key_source(capsys):
    for keys in (("--master", "B0AEC7E9C3CEE6C3", "--subkeys",
                  "B0AE,C7E9,C3CE,E6C3,05A9,FE40"), ()):
        with pytest.raises(SystemExit) as exc:
            main(["cipher", "enc", "--block", "CDF5|E8B4", *keys])
        assert exc.value.code == 3
        out = capsys.readouterr()
        assert out.out == ""
        assert "--master" in out.err.splitlines()[-1]


def test_unopenable_out_path_is_an_input_error(tmp_path, capsys):
    out = tmp_path / "missing" / "x.json"
    code, stdout, err = run_cli(capsys, "attack", "run", "--vectors",
                                "paper", "--out", str(out))
    assert code == 3
    assert stdout == ""
    assert err == ("input error: [Errno 2] No such file or directory: "
                   f"'{out}'\n")


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


@pytest.mark.parametrize("pairs, extra", [
    ([{"plaintext": 5, "ciphertext": "BE3A|8ECF"}] + PAPER_PAIRS[1:], None),
    (PAPER_PAIRS, {"plaintext": ["1"], "ciphertext": "BEDD|19A8"}),
], ids=["rule-pair-number", "extra-pair-list"])
def test_attack_block_that_is_not_a_string_is_an_input_error(
        tmp_path, capsys, pairs, extra):
    code, out, err = run_cli(capsys, "attack", "run", "--pairs",
                             write_pairs(tmp_path, pairs, extra))
    assert code == 3
    assert out == ""
    assert err.startswith("input error: malformed pair file: block must be")


def test_attack_takes_no_seed(capsys):
    # the attack makes no random draw, so there is nothing to seed
    with pytest.raises(SystemExit) as exc:
        main(["attack", "run", "--vectors", "paper", "--seed", "1"])
    assert exc.value.code == 3
    assert "unrecognized arguments: --seed 1" in capsys.readouterr().err


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
    # an iteration updates only the M marked amplitudes and one scalar, so
    # 1,025 iterations at the 2^20-item limit are admitted
    code, out, _ = run_cli(capsys, "sim-grover", "--items", str(1 << 20),
                           "--marked", "5", "--iterations", "1025")
    assert code == 0
    assert json.loads(out)["oracle_queries"] == 1025


def test_sim_clawwalk_collapsed(capsys):
    code, out, _ = run_cli(capsys, "sim-clawwalk", "--bits", "4",
                           "--seed", "0")
    assert code == 0
    report = json.loads(out)
    assert report["expected_queries"] == walk_expected_queries(
        WalkParams(**report["params"]), report["success_prob"])
    assert report["norm_drift"] < 1e-12


def test_sim_clawwalk_full_matches_collapsed_success(capsys):
    _, out_c, _ = run_cli(capsys, "sim-clawwalk", "--bits", "3",
                          "--seed", "5", "--mode", "collapsed", "--no-tune")
    _, out_f, _ = run_cli(capsys, "sim-clawwalk", "--bits", "3",
                          "--seed", "5", "--mode", "full", "--no-tune")
    p_c = json.loads(out_c)["success_prob"]
    p_f = json.loads(out_f)["success_prob"]
    assert p_f == pytest.approx(p_c, abs=1e-10)


# sim-clawwalk --seed 0: (bits, mode, tune), then the reported params as
# (r, t1, t2, outer_reps) and repr(success_prob); claw_walk_sample's
# ledger, retries and claw on the same walk at seed 0; and the reported
# oracle_queries (one run's ledger, ledger_law(params)) and
# expected_queries.  The tuned 8-bit walk's 5835 is the claw-stage figure
# quantum_toy_attack.py prints, the same N = 256 walk.
CLAWWALK_PINS = [
    (3, "collapsed", True, (4, 2, 2, 6), "0.29729260945773306",
     112, 2, [2, 6], 56, 189),
    (3, "collapsed", False, (4, 2, 2, 2), "0.04751869838786557",
     72, 3, [2, 6], 24, 506),
    (3, "full", True, (4, 2, 2, 6), "0.29729260945773317",
     112, 2, [2, 6], 56, 189),
    (3, "full", False, (4, 2, 2, 2), "0.04751869838786566",
     72, 3, [2, 6], 24, 506),
    (4, "collapsed", True, (7, 3, 3, 4), "0.27317226911308296",
     124, 2, [8, 10], 62, 227),
    (4, "collapsed", False, (7, 3, 3, 3), "0.11176478750535397",
     150, 3, [8, 10], 50, 448),
    (5, "collapsed", True, (11, 3, 3, 5), "0.1286932753189509",
     246, 3, [1, 2], 82, 638),
    (5, "collapsed", False, (11, 3, 3, 3), "0.10349739442334714",
     174, 3, [1, 2], 58, 561),
    (6, "collapsed", True, (16, 4, 4, 11), "0.1071130040407016",
     624, 3, [55, 5], 208, 1942),
    (6, "collapsed", False, (16, 4, 4, 4), "0.03991723343753635",
     384, 4, [55, 5], 96, 2405),
    (7, "collapsed", True, (26, 5, 5, 15), "0.06966069004600293",
     1056, 3, [99, 1], 352, 5054),
    (7, "collapsed", False, (26, 5, 5, 5), "0.029439138770590446",
     608, 4, [99, 1], 152, 5164),
    (8, "collapsed", True, (41, 6, 6, 12), "0.06342090659555641",
     1110, 3, [34, 182], 370, 5835),
    (8, "collapsed", False, (41, 6, 6, 7), "0.011029410489888687",
     3000, 12, [34, 182], 250, 22667),
]


@pytest.mark.parametrize("bits, mode, tune, params, prob, sampled, retries, "
                         "claw, queries, expected", CLAWWALK_PINS)
def test_sim_clawwalk_outputs_are_pinned(capsys, bits, mode, tune, params,
                                         prob, sampled, retries, claw,
                                         queries, expected):
    code, out, _ = run_cli(capsys, "sim-clawwalk", "--bits", str(bits),
                           "--mode", mode,
                           "--tune" if tune else "--no-tune")
    assert code == 0
    report = json.loads(out)
    walk = WalkParams(*params)
    assert report["params"] == dataclasses.asdict(walk)
    assert repr(report["success_prob"]) == prob
    assert report["planted_claw"] == claw
    assert report["oracle_queries"] == queries == ledger_law(walk)
    assert report["expected_queries"] == expected
    assert "sampled_claw" not in report and "retries" not in report
    problem, _ = planted_claw_problem(bits, 0)
    n = 1 << bits
    result = claw_walk_sample(problem, 0, mode, walk_params(n, n), tune=tune)
    assert (result.params, repr(result.success_prob)) == (walk, prob)
    assert (result.ledger.oracle_queries, result.retries, list(result.claw)) \
        == (sampled, retries, claw)
    assert sampled == retries * queries


def test_sim_clawwalk_refuses_bits_before_building_tables(capsys,
                                                          monkeypatch):
    def refuse(*args):
        raise AssertionError("planted tables built before the guard")

    monkeypatch.setattr("clawbench.cli.planted_claw_problem", refuse)
    code, _, err = run_cli(capsys, "sim-clawwalk", "--bits", "13")
    assert code == 4
    assert err == ("capacity guard: exhaustive census side bits: 13 "
                   "exceeds guard 12\n")


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


SCALING_3_16 = """\
N,r,t1,t2,outer_reps,queries,success_prob,mode
8,4,2,2,2,24,0.0475187,collapsed
8,,,,,16,1,classical-sorted
16,7,3,3,3,50,0.111765,collapsed
16,,,,,32,1,classical-sorted
32,11,3,3,3,58,0.103497,collapsed
32,,,,,64,1,classical-sorted
64,16,4,4,4,96,0.0399172,collapsed
64,,,,,128,1,classical-sorted
128,26,5,5,5,152,0.0294391,collapsed
128,,,,,256,1,classical-sorted
256,41,6,6,7,250,0.0110294,collapsed
256,,,,,512,1,classical-sorted
512,64,7,7,8,352,0.00652668,collapsed
512,,,,,1024,1,classical-sorted
1024,102,8,8,11,556,0.00101716,collapsed
1024,,,,,2048,1,classical-sorted
2048,162,10,10,13,844,1.33102e-05,collapsed
2048,,,,,4096,1,classical-sorted
4096,256,13,13,16,1344,0.00660829,collapsed
4096,,,,,8192,1,classical-sorted
8192,407,16,16,21,2158,0.000497259,collapsed
8192,,,,,16384,1,classical-sorted
16384,646,20,20,26,3372,0.000414042,collapsed
16384,,,,,32768,1,classical-sorted
32768,1024,26,26,32,5376,4.49022e-05,collapsed
32768,,,,,65536,1,classical-sorted
65536,1626,32,32,41,8500,1.30087e-06,collapsed
65536,,,,,131072,1,classical-sorted
"""


def test_scaling_csv_is_pinned(capsys):
    code, out, _ = run_cli(capsys, "scaling", "--min-exp", "3",
                           "--max-exp", "16")
    assert code == 0
    assert out == SCALING_3_16


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


@pytest.mark.parametrize("multiplier", ["-1", "0", "nan", "inf"])
def test_walk_commands_reject_a_multiplier_that_is_not_positive(
        capsys, multiplier):
    for argv in (("scaling", "--min-exp", "6", "--max-exp", "6"),
                 ("sim-clawwalk", "--bits", "4")):
        code, out, err = run_cli(capsys, *argv, "--multiplier", multiplier)
        assert code == 3
        assert out == ""
        assert "multiplier must be positive" in err


def test_walk_commands_refuse_sides_below_4(capsys):
    # r = ceil(N^(2/3)) is below N exactly from N = 4
    for argv in (("scaling", "--min-exp", "1", "--max-exp", "3"),
                 ("scaling", "--min-exp", "0", "--max-exp", "1"),
                 ("sim-clawwalk", "--bits", "1")):
        code, out, err = run_cli(capsys, *argv)
        assert code == 3, argv
        assert out == ""
        assert err.endswith("side domains must have at least 4 elements\n")
    for argv in (("scaling", "--min-exp", "2", "--max-exp", "3"),
                 ("sim-clawwalk", "--bits", "2")):
        assert run_cli(capsys, *argv)[0] == 0, argv


def test_scaling_refuses_step_count_before_any_run(capsys, monkeypatch):
    def no_run(*args):
        raise AssertionError("a walk ran before the refusal")

    monkeypatch.setattr("clawbench.cli.CollapsedWalkSim", no_run)
    code, out, err = run_cli(capsys, "scaling", "--min-exp", "6",
                             "--max-exp", "40")
    assert code == 4
    assert out == ""
    # u = 30 is the first size over the guard
    assert err == "capacity guard: walk steps: 1648640 exceeds guard 1048576\n"


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


def test_sim_clawwalk_refuses_float_overflow(capsys):
    code, out, err = run_cli(capsys, "sim-clawwalk", "--bits", "4",
                             "--multiplier", "1e308")
    assert code == 4
    assert out == ""
    assert err.count("\n") == 1
    assert "overflow" in err


def test_sim_clawwalk_refuses_step_count_before_tuning(capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a walk ran before the refusal")

    monkeypatch.setattr("clawbench.walk.tune_outer_reps", refuse)
    code, out, err = run_cli(capsys, "sim-clawwalk", "--bits", "4",
                             "--multiplier", "1e7")
    assert code == 4
    assert out == ""
    assert err == ("capacity guard: walk steps: 137142858 exceeds guard "
                   "1048576\n")


def test_sim_clawwalk_refuses_tuning_scan_over_the_guard(capsys,
                                                         monkeypatch):
    # the untuned walk passes the guard at 1,042,290 steps, but tuning
    # would scan 3 x 173,715 repetitions of 6 steps, 3,126,870 steps
    def refuse(*args, **kwargs):
        raise AssertionError("a walk was simulated before the refusal")

    monkeypatch.setattr("clawbench.walk.CollapsedWalkSim", refuse)
    params = walk_params(16, 16, 76000)
    check_walk_steps(params)
    code, out, err = run_cli(capsys, "sim-clawwalk", "--bits", "4",
                             "--multiplier", "76000")
    assert code == 4
    assert out == ""
    assert err == "capacity guard: walk steps: 3126870 exceeds guard 1048576\n"


@pytest.mark.parametrize("argv, what", [
    (("--mode", "full"), "full walk amplitudes: "),
    (("--multiplier", "1e7"), "walk steps: "),
    # the walk passes at 416,000 steps, tuning's scan is 3x that
    (("--multiplier", "1000"), "walk steps: 1248000 "),
], ids=["full-basis", "steps", "tuning-scan"])
def test_sim_clawwalk_refuses_before_the_claw_census(capsys, monkeypatch,
                                                      argv, what):
    def no_census(problem):
        raise AssertionError("claw census built before the refusal")

    monkeypatch.setattr("clawbench.cli.find_claws_exhaustive", no_census)
    code, out, err = run_cli(capsys, "sim-clawwalk", "--bits", "12", *argv)
    assert code == 4
    assert out == ""
    assert err.count("\n") == 1
    assert err.startswith("capacity guard: " + what)


MASTER = ("--master", "B0AEC7E9C3CEE6C3")
OVER_BUDGET = {
    "cipher": ("cipher", "enc", "--block", "CDF5|E8B4", *MASTER,
               "--rounds", "1000000"),
    "keyschedule": ("keyschedule", *MASTER, "--rounds", "1000000"),
    "attack": ("attack", "run", "--vectors", "paper", "--backend",
               "walk-full"),
    "sim-grover": ("sim-grover", "--items", str(1 << 21), "--marked", "0"),
    "sim-clawwalk": ("sim-clawwalk", "--bits", "13"),
    "scaling": ("scaling", "--max-exp", "30"),
}


@pytest.mark.parametrize("command", sorted(OVER_BUDGET))
def test_every_command_refuses_an_over_budget_request(tmp_path, capsys,
                                                      command):
    argv = OVER_BUDGET[command]
    out_file = tmp_path / "out.json"
    if command != "cipher":         # cipher prints its one block
        argv += ("--out", str(out_file))
    code, out, err = run_cli(capsys, *argv)
    assert code == 4
    assert out == ""
    assert err.startswith("capacity guard: ") and err.count("\n") == 1
    assert not out_file.exists()


def test_round_guard_boundary(capsys):
    for argv in (("cipher", "enc", "--block", "CDF5|E8B4", *MASTER),
                 ("keyschedule", *MASTER)):
        code, out, _ = run_cli(capsys, *argv, "--rounds", "4096")
        assert code == 0 and out
        code, out, err = run_cli(capsys, *argv, "--rounds", "4097")
        assert code == 4
        assert out == ""
        assert err == "capacity guard: rounds: 4097 exceeds guard 4096\n"


def test_walk_step_guard_boundary():
    # u = 29 runs 1,039,014 steps, u = 30 runs 1,648,640
    check_walk_steps(walk_params(1 << 29, 1 << 29))
    with pytest.raises(CapacityError):
        check_walk_steps(walk_params(1 << 30, 1 << 30))


def test_selftest(capsys):
    code, out, _ = run_cli(capsys, "selftest")
    assert code == 0
    assert "FAIL" not in out
